// manycore-256: SP and IS at 256 threads on MachineConfig::manycore()
// (256 cores, 256 L2s, 8-column socket mesh). Each app is detected with SM
// on the serial event loop, mapped with the auto strategy (multisection at
// this size), and evaluated under that mapping and under a seeded random
// placement through the epoch engine. SP is also detected with HM and the
// oracle, which is affordable for SP only (IS's oracle alone takes over a
// minute), so the HM and cosine metrics here describe SP.
#include <algorithm>

#include "core/experiment.hpp"
#include "core/worker_pool.hpp"
#include "harness.hpp"

namespace tlbbench {
namespace {

using namespace tlbmap;

constexpr int kThreads = 256;
/// SP at a tenth of its iterations makes 4.2M accesses. IS makes 36.5M at
/// any scale: one iteration of its all-to-all count exchange is the floor.
constexpr double kIterScale = 0.1;

struct App {
  std::string name;
  std::unique_ptr<Workload> workload;
  std::uint64_t accesses = 0;
  bool hm_and_oracle = false;
  Mapping random;
};

/// Detections of one app in one iteration.
struct AppDetections {
  TimedDetection sm, hm, oracle;
};

double ratio(double a, double b) { return b == 0.0 ? 1.0 : a / b; }

class Manycore final : public BenchWorkload {
 public:
  explicit Manycore(const Options& options) : options_(options) {}

  void setup() override {
    machine_ = MachineConfig::manycore();
    machine_.validate();
    const SuiteConfig defaults;
    sm_ = defaults.sm;
    hm_ = defaults.hm;
    // Every run starts by building its machine; set-up pays for one.
    topology_ = std::make_unique<Topology>(Machine(machine_).topology());
    apps_.clear();
    WorkloadParams params;
    params.num_threads = kThreads;
    params.iter_scale = kIterScale;
    for (const char* name : {"SP", "IS"}) {
      App app;
      app.name = name;
      app.workload = make_npb_workload(name, params);
      app.accesses = stream_accesses(*app.workload);
      app.hm_and_oracle = app.name == "SP";
      app.random = random_mapping(kThreads, topology_->num_cores(),
                                  options_.seed * 7919 + apps_.size() * 131);
      apps_.push_back(std::move(app));
    }
    sm_mappings_.assign(apps_.size(), Mapping{});
  }

  std::string workers_json() const override {
    return "{\"detect_pool\": " + std::to_string(options_.workers) +
           ", \"machine_workers\": " + std::to_string(options_.workers) + "}";
  }

  Iteration iterate(Report& report, Trace* trace) override {
    // Detection: every (app, mechanism) run in one pool, longest app first
    // (IS's SM run is the critical path).
    std::vector<AppDetections> detected(apps_.size());
    struct DetectTask {
      std::size_t app;
      Pipeline::Mechanism mechanism;
      TimedDetection* slot;
    };
    std::vector<DetectTask> tasks;
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      tasks.push_back(
          {i, Pipeline::Mechanism::kSoftwareManaged, &detected[i].sm});
      if (apps_[i].hm_and_oracle) {
        tasks.push_back(
            {i, Pipeline::Mechanism::kHardwareManaged, &detected[i].hm});
        tasks.push_back({i, Pipeline::Mechanism::kOracle, &detected[i].oracle});
      }
    }
    std::stable_sort(tasks.begin(), tasks.end(),
                     [&](const DetectTask& a, const DetectTask& b) {
                       return apps_[a.app].accesses > apps_[b.app].accesses;
                     });
    {
      WorkerPool pool(options_.workers);
      pool.run(tasks.size(), [&](std::size_t idx) {
        const DetectTask& t = tasks[idx];
        const Workload& w = *apps_[t.app].workload;
        if (trace != nullptr) {
          *t.slot = timed_detect(machine_, w, t.mechanism, sm_, hm_,
                                 options_.seed, &trace->obs, trace->clock_ns);
        } else {
          t.slot->result =
              make_pipeline(nullptr, 0).detect(w, t.mechanism, options_.seed);
        }
      });
    }
    report.tasks(tasks.size());

    Digest digest;
    MachineStats all;
    std::uint64_t sm_searches = 0, hm_sweeps = 0;
    double hm_intervals = 0.0;
    for (const DetectTask& t : tasks) {
      const DetectionResult& d = t.slot->result;
      check_stats(report, d.stats, apps_[t.app].accesses,
                  apps_[t.app].name + " " + d.mechanism + " detection");
      digest.add(d.stats);
      digest.add(d.matrix);
      all += d.stats;
      if (t.mechanism == Pipeline::Mechanism::kSoftwareManaged) {
        sm_searches += d.searches;
      } else if (t.mechanism == Pipeline::Mechanism::kHardwareManaged) {
        hm_sweeps += d.searches;
        hm_intervals += static_cast<double>(d.stats.execution_cycles) /
                        static_cast<double>(hm_.interval);
      }
      if (trace != nullptr) {
        trace->sheet.add_detection(*t.slot, t.mechanism, hm_);
        trace->sheet.serial_accesses += d.stats.accesses;
      }
    }
    check_detection_regime(report, sm_searches, hm_sweeps, hm_intervals);

    // Mapping, then evaluation through the epoch engine.
    Pipeline pipe = make_pipeline(trace, options_.workers);
    auto evaluate = [&](const App& app, const Mapping& mapping,
                        const std::string& label) {
      check_mapping(report, mapping, kThreads, topology_->num_cores(),
                    app.name + " " + label);
      const double cpu0 = process_cpu_seconds();
      const MachineStats s =
          pipe.evaluate(*app.workload, mapping, options_.seed + 1000);
      if (trace != nullptr) {
        trace->sheet.epoch_iteration_cpu_s += process_cpu_seconds() - cpu0;
      }
      report.tasks(1);
      check_stats(report, s, app.accesses, app.name + " " + label + " run");
      digest.add(mapping);
      digest.add(s);
      all += s;
      return s;
    };
    std::vector<double> time_sm, time_hm, inv_sm, l2_sm, cos_sm, cos_hm,
        ovh_sm, ovh_hm;
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      const App& app = apps_[i];
      const AppDetections& d = detected[i];
      ovh_sm.push_back(100.0 * d.sm.result.stats.overhead_fraction());
      sm_mappings_[i] = timed_map(pipe, d.sm.result.matrix, trace);
      const MachineStats random = evaluate(app, app.random, "random");
      const MachineStats sm = evaluate(app, sm_mappings_[i], "SM");
      time_sm.push_back(ratio(sm.execution_cycles, random.execution_cycles));
      inv_sm.push_back(ratio(sm.invalidations, random.invalidations));
      l2_sm.push_back(ratio(sm.l2_misses, random.l2_misses));
      if (trace != nullptr) {
        add_cost_vs_random(trace->sheet, d.sm.result.matrix, sm_mappings_[i],
                           *topology_, options_.seed);
      }
      if (!app.hm_and_oracle) continue;
      const CommMatrix& oracle = d.oracle.result.matrix;
      cos_sm.push_back(
          CommMatrix::cosine_similarity(d.sm.result.matrix, oracle));
      cos_hm.push_back(
          CommMatrix::cosine_similarity(d.hm.result.matrix, oracle));
      ovh_hm.push_back(100.0 * d.hm.result.stats.overhead_fraction());
      const MachineStats hm =
          evaluate(app, timed_map(pipe, d.hm.result.matrix, trace), "HM");
      time_hm.push_back(ratio(hm.execution_cycles, random.execution_cycles));
    }

    Iteration it;
    it.digest = digest.value();
    it.accesses = all.accesses;
    it.outcome = Outcome{
        .time_ratio_sm = geomean(time_sm),
        .time_ratio_hm = geomean(time_hm),
        .inv_ratio_sm = geomean(inv_sm),
        .l2miss_ratio_sm = geomean(l2_sm),
        .cosine_sm = mean(cos_sm),
        .cosine_hm = mean(cos_hm),
        .overhead_pct_sm = mean(ovh_sm),
        .overhead_pct_hm = mean(ovh_hm),
    };
    if (trace != nullptr) trace->sheet.all += all;
    return it;
  }

  void probe_layers(Report& report, Trace& trace) override {
    LayerSheet& sheet = trace.sheet;
    const App& sp = apps_.front();
    const Mapping& mapping = sm_mappings_.front();

    // Epoch fan-out: SP's SM-mapped evaluation at the run's worker count
    // and at one worker must give identical stats.
    const double cpu0 = process_cpu_seconds();
    auto start = Clock::now();
    const MachineStats wide = make_pipeline(nullptr, options_.workers)
                                  .evaluate(*sp.workload, mapping,
                                            options_.seed + 1000);
    sheet.epoch_eval_s = seconds_since(start);
    sheet.epoch_cpu_per_wall =
        (process_cpu_seconds() - cpu0) / sheet.epoch_eval_s;
    start = Clock::now();
    const MachineStats one = make_pipeline(nullptr, 1).evaluate(
        *sp.workload, mapping, options_.seed + 1000);
    sheet.epoch_eval_s_w1 = seconds_since(start);
    report.tasks(2);
    report.check(wide == one, "epoch engine: stats at " +
                                  std::to_string(options_.workers) +
                                  " workers equal stats at 1 worker");
    std::vector<bool> used(static_cast<std::size_t>(topology_->num_l2()));
    for (CoreId c : mapping) {
      used[static_cast<std::size_t>(topology_->l2_of(c))] = true;
    }
    sheet.epoch_shards =
        static_cast<int>(std::count(used.begin(), used.end(), true));

    // Generation, hierarchy and the serial machine loop on SP.
    StreamProbe probe =
        probe_streams(machine_, *sp.workload, mapping, options_.seed + 1000);
    report.tasks(2);
    report.check(probe.accesses == sp.accesses,
                 "SP: drained stream count == accesses_of");
    check_stats(report, probe.replay_stats, sp.accesses, "SP hierarchy replay");
    check_stats(report, probe.run_stats, sp.accesses, "SP serial machine run");
    sheet.probes.push_back(std::move(probe));
  }

 private:
  Pipeline make_pipeline(Trace* trace, int machine_workers) const {
    Pipeline pipe(machine_);
    pipe.sm_config() = sm_;
    pipe.hm_config() = hm_;
    pipe.set_machine_workers(machine_workers);
    pipe.set_observability(trace ? &trace->obs : nullptr);
    return pipe;
  }

  Options options_;
  MachineConfig machine_;
  SmDetectorConfig sm_;
  HmDetectorConfig hm_;
  std::unique_ptr<Topology> topology_;
  std::vector<App> apps_;
  std::vector<Mapping> sm_mappings_;  ///< per app, from the last iteration
};

}  // namespace

std::unique_ptr<BenchWorkload> make_manycore(const Options& options) {
  return std::make_unique<Manycore>(options);
}

}  // namespace tlbbench
