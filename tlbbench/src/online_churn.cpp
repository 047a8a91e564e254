// online-churn: the online mapper (OnlineMapper, PhaseDetector, migrations,
// canary rollback). Pipeline::evaluate_dynamic runs CHURN, SP and
// MP:SP+CG on Harpertown from seeded random starts with the
// ChurnScenarioConfig::online tuning (every miss sampled, a decision every
// 2 barriers), each against a static run from the same start. The apps
// are also detected (SM, HM, oracle), mapped and evaluated, so the static
// mapping metrics have this workload's baseline: the static runs from the
// random starts. run_churn_scenario runs at the library's default
// schedule.
#include "core/experiment.hpp"
#include "core/worker_pool.hpp"
#include "harness.hpp"

namespace tlbbench {
namespace {

using namespace tlbmap;

/// Random starts per app: the online mapper's outcome depends strongly on
/// its start (one run's dynamic/static cycle ratio ranges 0.9–2.0), so
/// each iteration averages over this many.
constexpr int kStarts = 16;
/// SM detections per app (distinct seeds), each mapped and run once: one
/// detection's mapping swings the static ratios by several percent, and
/// its critical-path overhead by ±15 %.
constexpr int kSmDetections = 8;
/// Runs of the HM mapping (seeds shared with the SM-mapped runs).
constexpr int kHmRuns = kSmDetections;

struct App {
  std::unique_ptr<Workload> workload;
  std::uint64_t accesses = 0;
  std::vector<Mapping> starts;
};

/// Results of one app in one iteration.
struct AppRuns {
  std::vector<TimedDynamic> dynamic{kStarts};
  std::vector<MachineStats> fixed{kStarts};  ///< static runs from the starts
  std::vector<TimedDetection> sm{kSmDetections};
  TimedDetection hm, oracle;
  std::vector<Mapping> sm_mapping{kSmDetections};
  Mapping hm_mapping;
  std::vector<MachineStats> sm_runs{kSmDetections};
  std::vector<MachineStats> hm_runs{kHmRuns};
};

double mean_of(const std::vector<MachineStats>& runs,
               std::uint64_t MachineStats::*field) {
  double sum = 0.0;
  for (const MachineStats& s : runs) sum += static_cast<double>(s.*field);
  return sum / static_cast<double>(runs.size());
}

/// mean(field over `runs`) / mean(field over `base`); 1 when the base is 0.
double ratio_of(const std::vector<MachineStats>& runs,
                const std::vector<MachineStats>& base,
                std::uint64_t MachineStats::*field) {
  const double b = mean_of(base, field);
  return b == 0.0 ? 1.0 : mean_of(runs, field) / b;
}

class OnlineChurn final : public BenchWorkload {
 public:
  explicit OnlineChurn(const Options& options) : options_(options) {}

  void setup() override {
    machine_ = MachineConfig::harpertown();
    machine_.validate();
    // Every run starts by building its machine; set-up pays for one.
    cores_ = Machine(machine_).topology().num_cores();
    const SuiteConfig defaults;
    sm_ = defaults.sm;
    hm_ = defaults.hm;
    scenario_ = ChurnScenarioConfig{};
    scenario_.seed = options_.seed;
    online_ = scenario_.online;
    online_.validate();
    apps_.clear();
    for (const char* name : {"CHURN", "SP", "MP:SP+CG"}) {
      WorkloadParams params;
      // The multiprogrammed pair runs 4 + 4 threads on the 8 cores.
      if (std::string(name).rfind("MP:", 0) == 0) params.num_threads = 4;
      App app;
      app.workload = make_npb_workload(name, params);
      app.accesses = stream_accesses(*app.workload);
      for (int k = 0; k < kStarts; ++k) {
        app.starts.push_back(random_mapping(
            app.workload->num_threads(), cores_,
            options_.seed * 7919 + apps_.size() * 131 +
                static_cast<std::uint64_t>(k)));
      }
      apps_.push_back(std::move(app));
    }
  }

  std::string workers_json() const override {
    return "{\"task_pool\": " + std::to_string(options_.workers) +
           ", \"machine_workers\": 0}";
  }

  Iteration iterate(Report& report, Trace* trace) override {
    const std::size_t napps = apps_.size();
    std::vector<AppRuns> runs(napps);
    ChurnScenarioResult churn;

    // Phase 1, one pool: per app the dynamic and static runs from every
    // start and every detection; plus the churn scenario.
    constexpr std::size_t kPerApp = 2 * kStarts + kSmDetections + 2;
    {
      WorkerPool pool(options_.workers);
      pool.run(napps * kPerApp + 1, [&](std::size_t idx) {
        if (idx == napps * kPerApp) {
          churn = run_churn_scenario(scenario_);
          return;
        }
        const App& app = apps_[idx / kPerApp];
        AppRuns& out = runs[idx / kPerApp];
        const std::size_t t = idx % kPerApp;
        const int k = static_cast<int>(t % kStarts);
        if (t < kStarts) {
          out.dynamic[k] = dynamic_run(app, k, trace);
        } else if (t < 2 * kStarts) {
          out.fixed[k] = make_pipeline(trace).evaluate(
              *app.workload, app.starts[k], run_seed(k));
        } else if (t < 2 * kStarts + kSmDetections) {
          const int j = static_cast<int>(t - 2 * kStarts);
          out.sm[j] = detect(app, Pipeline::Mechanism::kSoftwareManaged,
                             detect_seed(j), trace);
        } else if (t == 2 * kStarts + kSmDetections) {
          out.hm = detect(app, Pipeline::Mechanism::kHardwareManaged,
                          detect_seed(0), trace);
        } else {
          out.oracle = detect(app, Pipeline::Mechanism::kOracle,
                              detect_seed(0), trace);
        }
      });
    }
    report.tasks(napps * kPerApp + 3);

    // Phase 2: map every SM and HM matrix.
    Pipeline pipe = make_pipeline(trace);
    for (std::size_t i = 0; i < napps; ++i) {
      for (int j = 0; j < kSmDetections; ++j) {
        runs[i].sm_mapping[j] = timed_map(pipe, runs[i].sm[j].result.matrix,
                                          trace);
      }
      runs[i].hm_mapping = timed_map(pipe, runs[i].hm.result.matrix, trace);
    }

    // Phase 3, one pool: run every mapping.
    constexpr std::size_t kMappedPerApp = kSmDetections + kHmRuns;
    {
      WorkerPool pool(options_.workers);
      pool.run(napps * kMappedPerApp, [&](std::size_t idx) {
        const App& app = apps_[idx / kMappedPerApp];
        AppRuns& out = runs[idx / kMappedPerApp];
        const int j = static_cast<int>(idx % kMappedPerApp);
        Pipeline p = make_pipeline(trace);
        if (j < kSmDetections) {
          out.sm_runs[j] =
              p.evaluate(*app.workload, out.sm_mapping[j], run_seed(j));
        } else {
          const int r = j - kSmDetections;
          out.hm_runs[r] =
              p.evaluate(*app.workload, out.hm_mapping, run_seed(r));
        }
      });
    }
    report.tasks(napps * kMappedPerApp);

    // Checks, digest and outcome.
    Digest digest;
    MachineStats all;
    std::uint64_t decisions = 0, sm_searches = 0, hm_sweeps = 0;
    double hm_intervals = 0.0;
    std::vector<double> online_ratio, time_sm, time_hm, inv_sm, l2_sm, cos_sm,
        cos_hm, ovh_sm, ovh_hm;
    auto stats = [&](const MachineStats& s, const App& app,
                     const std::string& what) {
      check_stats(report, s, app.accesses, app.workload->name() + " " + what);
      digest.add(s);
      all += s;
    };
    auto mapping = [&](const Mapping& m, const App& app,
                       const std::string& what) {
      check_mapping(report, m, app.workload->num_threads(), cores_,
                    app.workload->name() + " " + what);
      digest.add(m);
    };
    for (std::size_t i = 0; i < napps; ++i) {
      const App& app = apps_[i];
      AppRuns& r = runs[i];
      for (int k = 0; k < kStarts; ++k) {
        const Pipeline::DynamicRunResult& d = r.dynamic[k].result;
        const std::string start = "start " + std::to_string(k);
        stats(d.stats, app, start + " dynamic run");
        stats(r.fixed[k], app, start + " static run");
        mapping(d.final_mapping, app, start + " final placement");
        for (int v : {d.migrations, d.remap_decisions, d.rollbacks,
                      d.canary_commits}) {
          digest.add(static_cast<std::uint64_t>(v));
        }
        decisions += static_cast<std::uint64_t>(d.remap_decisions);
        online_ratio.push_back(
            static_cast<double>(d.stats.execution_cycles) /
            static_cast<double>(r.fixed[k].execution_cycles));
        if (trace != nullptr) trace->sheet.add_dynamic(r.dynamic[k]);
      }
      for (int j = 0; j < kSmDetections; ++j) {
        const DetectionResult& d = r.sm[j].result;
        stats(d.stats, app, "SM detection");
        digest.add(d.matrix);
        mapping(r.sm_mapping[j], app, "SM");
        stats(r.sm_runs[j], app, "SM-mapped run");
        sm_searches += d.searches;
        cos_sm.push_back(
            CommMatrix::cosine_similarity(d.matrix, r.oracle.result.matrix));
        ovh_sm.push_back(100.0 * d.stats.overhead_fraction());
      }
      for (const TimedDetection* d : {&r.hm, &r.oracle}) {
        stats(d->result.stats, app, d->result.mechanism + " detection");
        digest.add(d->result.matrix);
      }
      mapping(r.hm_mapping, app, "HM");
      for (const MachineStats& s : r.hm_runs) stats(s, app, "HM-mapped run");
      hm_sweeps += r.hm.result.searches;
      hm_intervals += static_cast<double>(r.hm.result.stats.execution_cycles) /
                      static_cast<double>(hm_.interval);
      cos_hm.push_back(CommMatrix::cosine_similarity(r.hm.result.matrix,
                                                     r.oracle.result.matrix));
      ovh_hm.push_back(100.0 * r.hm.result.stats.overhead_fraction());
      time_sm.push_back(
          ratio_of(r.sm_runs, r.fixed, &MachineStats::execution_cycles));
      time_hm.push_back(
          ratio_of(r.hm_runs, r.fixed, &MachineStats::execution_cycles));
      inv_sm.push_back(
          ratio_of(r.sm_runs, r.fixed, &MachineStats::invalidations));
      l2_sm.push_back(ratio_of(r.sm_runs, r.fixed, &MachineStats::l2_misses));
      if (trace != nullptr) {
        for (int j = 0; j < kSmDetections; ++j) {
          trace->sheet.add_detection(
              r.sm[j], Pipeline::Mechanism::kSoftwareManaged, hm_);
          add_cost_vs_random(trace->sheet, r.sm[j].result.matrix,
                             r.sm_mapping[j], Topology(machine_),
                             options_.seed);
        }
        trace->sheet.add_detection(r.hm, Pipeline::Mechanism::kHardwareManaged,
                                   hm_);
        trace->sheet.add_detection(r.oracle, Pipeline::Mechanism::kOracle, hm_);
      }
    }
    report.check(decisions > 0, "regime: the online mapper made decisions");
    check_detection_regime(report, sm_searches, hm_sweeps, hm_intervals);

    for (const ChurnArmResult* arm :
         {&churn.never_remap, &churn.no_rollback, &churn.canary}) {
      check_mapping(report, arm->run.final_mapping, scenario_.num_threads,
                    cores_, "churn scenario arm");
      digest.add(arm->run.stats);
      digest.add(arm->run.final_mapping);
      all += arm->run.stats;
    }
    report.check(churn.canary.run.remap_decisions > 0,
                 "regime: the churn scenario's canary arm made decisions");
    report.check(churn.never_remap.final_cost > 0.0,
                 "churn scenario: never-remap cost is positive");

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
        .online_cycles_ratio = geomean(online_ratio),
        .canary_cost_ratio =
            churn.canary.final_cost / churn.never_remap.final_cost,
    };
    if (trace != nullptr) {
      trace->sheet.all += all;
      trace->sheet.serial_accesses += all.accesses;
    }
    return it;
  }

  void probe_layers(Report& report, Trace& trace) override {
    // Generation, hierarchy and machine loop on every app from its first
    // random start (the loop's run must equal that start's static run).
    for (const App& app : apps_) {
      StreamProbe probe =
          probe_streams(machine_, *app.workload, app.starts[0], run_seed(0));
      report.tasks(3);
      const std::string name = app.workload->name();
      report.check(probe.accesses == app.accesses,
                   name + ": drained stream count == accesses_of");
      check_stats(report, probe.replay_stats, app.accesses,
                  name + " hierarchy replay");
      report.check(probe.run_stats ==
                       make_pipeline(nullptr).evaluate(
                           *app.workload, app.starts[0], run_seed(0)),
                   name + ": Machine::run reproduces Pipeline::evaluate");
      trace.sheet.probes.push_back(std::move(probe));
    }
  }

 private:
  std::uint64_t run_seed(int k) const {
    return options_.seed + 1000 + static_cast<std::uint64_t>(k);
  }
  std::uint64_t detect_seed(int j) const {
    return options_.seed + 2000 + static_cast<std::uint64_t>(j);
  }

  Pipeline make_pipeline(Trace* trace) const {
    Pipeline pipe(machine_);
    pipe.sm_config() = sm_;
    pipe.hm_config() = hm_;
    pipe.set_observability(trace ? &trace->obs : nullptr);
    return pipe;
  }

  /// Pipeline::evaluate_dynamic, through the decorator when traced.
  TimedDynamic dynamic_run(const App& app, int k, Trace* trace) const {
    if (trace != nullptr) {
      return timed_dynamic(machine_, *app.workload, app.starts[k], online_,
                           run_seed(k), &trace->obs, trace->clock_ns);
    }
    TimedDynamic out;
    out.result = make_pipeline(nullptr).evaluate_dynamic(
        *app.workload, app.starts[k], online_, run_seed(k));
    return out;
  }

  /// Pipeline::detect, through the decorator when traced.
  TimedDetection detect(const App& app, Pipeline::Mechanism m,
                        std::uint64_t seed, Trace* trace) const {
    if (trace != nullptr) {
      return timed_detect(machine_, *app.workload, m, sm_, hm_, seed,
                          &trace->obs, trace->clock_ns);
    }
    TimedDetection out;
    out.result = make_pipeline(nullptr).detect(*app.workload, m, seed);
    return out;
  }

  Options options_;
  MachineConfig machine_;
  int cores_ = 0;
  SmDetectorConfig sm_;
  HmDetectorConfig hm_;
  ChurnScenarioConfig scenario_;
  OnlineMapperConfig online_;
  std::vector<App> apps_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_online_churn(const Options& options) {
  return std::make_unique<OnlineChurn>(options);
}

}  // namespace tlbbench
