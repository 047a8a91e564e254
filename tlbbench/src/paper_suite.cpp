// paper-suite: the paper's evaluation as users run it — run_suite over the
// nine NPB apps at 8 threads on Harpertown with the SuiteConfig defaults
// (SM 1-in-10, HM every 400k cycles, oracle, auto mapping, OS random
// placement re-rolled per repetition), each iteration against a fresh,
// empty cache directory.
#include <cstdlib>
#include <fstream>

#include "core/experiment.hpp"
#include "core/io.hpp"
#include "core/worker_pool.hpp"
#include "harness.hpp"
#include "obs/trace.hpp"

namespace tlbbench {
namespace {

using namespace tlbmap;

/// Scale: half the default iteration count and four repetitions keep one
/// suite near six seconds on four workers.
constexpr double kIterScale = 0.5;
constexpr int kRepetitions = 4;

constexpr Pipeline::Mechanism kMechanisms[] = {
    Pipeline::Mechanism::kSoftwareManaged,
    Pipeline::Mechanism::kHardwareManaged,
    Pipeline::Mechanism::kOracle,
};

const DetectionResult& detection_of(const AppExperiment& app,
                                    Pipeline::Mechanism m) {
  switch (m) {
    case Pipeline::Mechanism::kSoftwareManaged:
      return app.sm_detection;
    case Pipeline::Mechanism::kHardwareManaged:
      return app.hm_detection;
    case Pipeline::Mechanism::kOracle:
      break;
  }
  return app.oracle_detection;
}

/// mean(metric under `runs`) / mean(metric under OS), over the apps where
/// the OS mean is non-zero, combined by geometric mean.
double ratio_over_apps(const SuiteResult& r, bool hm, Metric metric) {
  std::vector<double> ratios;
  for (const AppExperiment& app : r.apps) {
    const double v = app.normalized(hm ? app.hm_runs : app.sm_runs, metric);
    if (std::isfinite(v) && v > 0.0) ratios.push_back(v);
  }
  return geomean(ratios);
}

class PaperSuite final : public BenchWorkload {
 public:
  explicit PaperSuite(const Options& options) : options_(options) {}

  void setup() override {
    // The cache lives in the run's scratch directory, never a shared one.
    unsetenv("TLBMAP_NO_CACHE");
    config_ = SuiteConfig{};
    config_.base_seed = options_.seed;
    config_.workload.iter_scale = kIterScale;
    config_.repetitions = kRepetitions;
    config_.parallel_workers = options_.workers;
    config_.use_cache = true;
    eval_.clear();
    detect_.clear();
    eval_accesses_.clear();
    detect_accesses_.clear();
    WorkloadParams detect_params = config_.workload;
    detect_params.iter_scale *= config_.detect_iter_scale;
    for (const std::string& name : config_.apps) {
      eval_.push_back(make_npb_workload(name, config_.workload));
      detect_.push_back(make_npb_workload(name, detect_params));
      eval_accesses_.push_back(stream_accesses(*eval_.back()));
      detect_accesses_.push_back(stream_accesses(*detect_.back()));
    }
    // Every run starts by building its machine; set-up pays for one.
    cores_ = Machine(config_.machine).topology().num_cores();
  }

  std::string workers_json() const override {
    return "{\"suite_parallel_workers\": " +
           std::to_string(config_.parallel_workers) +
           ", \"machine_workers\": 0, \"probe_pool\": " +
           std::to_string(options_.workers) + "}";
  }

  Iteration iterate(Report& report, Trace* trace) override {
    cache_dir_ = options_.work_dir / ("cache-" + std::to_string(++iterations_));
    std::filesystem::remove_all(cache_dir_);
    std::filesystem::create_directories(cache_dir_);
    setenv("TLBMAP_CACHE_DIR", cache_dir_.c_str(), 1);

    result_ = run_suite(config_, nullptr, trace ? &trace->obs : nullptr);
    const SuiteResult& r = result_;
    const std::size_t apps = r.apps.size();
    report.tasks(apps * 3 + apps * 3 * static_cast<std::size_t>(kRepetitions));

    report.check(!r.degraded(), "suite is not degraded");
    report.check(!r.interrupted, "suite was not interrupted");
    report.check(apps == eval_.size(), "suite ran every app");
    report.check(std::filesystem::exists(cache_dir_ / suite_cache_key(config_)),
                 "suite wrote its cache entry");

    Iteration it;
    Digest digest;
    MachineStats all;
    std::uint64_t sm_searches = 0, hm_sweeps = 0;
    double hm_intervals = 0.0;
    std::vector<double> cos_sm, cos_hm, ovh_sm, ovh_hm;
    for (std::size_t i = 0; i < apps && i < eval_.size(); ++i) {
      const AppExperiment& app = r.apps[i];
      for (Pipeline::Mechanism m : kMechanisms) {
        const DetectionResult& d = detection_of(app, m);
        check_stats(report, d.stats, detect_accesses_[i],
                    app.app + " " + d.mechanism + " detection");
        digest.add(d.stats);
        digest.add(d.matrix);
        all += d.stats;
      }
      sm_searches += app.sm_detection.searches;
      hm_sweeps += app.hm_detection.searches;
      hm_intervals +=
          static_cast<double>(app.hm_detection.stats.execution_cycles) /
          static_cast<double>(config_.hm.interval);
      check_mapping(report, app.sm_mapping, eval_[i]->num_threads(), cores_,
                    app.app + " SM");
      check_mapping(report, app.hm_mapping, eval_[i]->num_threads(), cores_,
                    app.app + " HM");
      digest.add(app.sm_mapping);
      digest.add(app.hm_mapping);
      for (const MappingRuns* runs :
           {&app.os_runs, &app.sm_runs, &app.hm_runs}) {
        report.check(runs->runs.size() == kRepetitions,
                     app.app + " " + runs->label + " ran every repetition");
        for (const MachineStats& s : runs->runs) {
          check_stats(report, s, eval_accesses_[i],
                      app.app + " " + runs->label + " run");
          digest.add(s);
          all += s;
        }
      }
      cos_sm.push_back(CommMatrix::cosine_similarity(
          app.sm_detection.matrix, app.oracle_detection.matrix));
      cos_hm.push_back(CommMatrix::cosine_similarity(
          app.hm_detection.matrix, app.oracle_detection.matrix));
      ovh_sm.push_back(100.0 * app.sm_detection.stats.overhead_fraction());
      ovh_hm.push_back(100.0 * app.hm_detection.stats.overhead_fraction());
    }
    check_detection_regime(report, sm_searches, hm_sweeps, hm_intervals);

    it.digest = digest.value();
    it.accesses = all.accesses;
    it.outcome = Outcome{
        .time_ratio_sm = ratio_over_apps(r, false, Metric::kTimeSeconds),
        .time_ratio_hm = ratio_over_apps(r, true, Metric::kTimeSeconds),
        .inv_ratio_sm = ratio_over_apps(r, false, Metric::kInvalidations),
        .l2miss_ratio_sm = ratio_over_apps(r, false, Metric::kL2Misses),
        .cosine_sm = mean(cos_sm),
        .cosine_hm = mean(cos_hm),
        .overhead_pct_sm = mean(ovh_sm),
        .overhead_pct_hm = mean(ovh_hm),
    };
    if (trace != nullptr) {
      trace->sheet.all += all;
      trace->sheet.serial_accesses += all.accesses;
    } else {
      std::filesystem::remove_all(cache_dir_);
    }
    return it;
  }

  void probe_layers(Report& report, Trace& trace) override {
    LayerSheet& sheet = trace.sheet;
    const SuiteResult& r = result_;

    // Suite phases, map calls and per-task wall time from the traced
    // iteration's spans.
    double task_us = 0.0;
    for (const obs::TraceEvent& ev : trace.obs.tracer.snapshot()) {
      if (ev.kind != obs::TraceEvent::Kind::kSpan) continue;
      const double us = static_cast<double>(ev.dur_us);
      if (ev.name == "suite.detect") sheet.suite_detect_s += us * 1e-6;
      if (ev.name == "suite.map") sheet.suite_map_s += us * 1e-6;
      if (ev.name == "suite.evaluate") sheet.suite_evaluate_s += us * 1e-6;
      if (ev.name == "pipeline.map") {
        sheet.map_us.push_back(us);
        ++sheet.map_calls;
      }
      if (ev.name == "pipeline.detect" || ev.name == "pipeline.evaluate") {
        sheet.suite_task_ms.push_back(us * 1e-3);
        task_us += us;
      }
    }
    report.check(trace.obs.tracer.dropped() == 0, "tracer dropped no events");
    const double pool_s = (sheet.suite_detect_s + sheet.suite_evaluate_s) *
                          config_.parallel_workers;
    sheet.suite_pool_busy = pool_s > 0.0 ? task_us * 1e-6 / pool_s : 0.0;
    const Topology topology(config_.machine);
    for (const AppExperiment& app : r.apps) {
      add_cost_vs_random(sheet, app.sm_detection.matrix, app.sm_mapping,
                         topology, options_.seed);
    }

    // Cache write and a warm rerun that must load the same results.
    const auto write_start = Clock::now();
    const auto written = atomic_write_file(options_.work_dir / "cache-probe",
                                           serialize_suite(r));
    sheet.cache_write_ms = seconds_since(write_start) * 1e3;
    report.check(static_cast<bool>(written), "suite cache entry written");
    const auto hit_start = Clock::now();
    const SuiteResult warm = run_suite(config_);
    sheet.cache_hit_s = seconds_since(hit_start);
    report.check(serialize_suite(warm) == serialize_suite(r),
                 "warm rerun loads the cold run's results");

    // Detection through decorated detectors: the suite's detect phase
    // again, each run's matrix and stats checked against the suite's.
    const std::size_t apps = std::min(r.apps.size(), detect_.size());
    std::vector<TimedDetection> timed(apps * 3);
    {
      WorkerPool pool(options_.workers);
      pool.run(timed.size(), [&](std::size_t idx) {
        timed[idx] = timed_detect(config_.machine, *detect_[idx / 3],
                                  kMechanisms[idx % 3], config_.sm,
                                  config_.hm, config_.base_seed, nullptr,
                                  trace.clock_ns);
      });
    }
    report.tasks(timed.size());
    for (std::size_t idx = 0; idx < timed.size(); ++idx) {
      const Pipeline::Mechanism m = kMechanisms[idx % 3];
      const DetectionResult& want = detection_of(r.apps[idx / 3], m);
      report.check(timed[idx].result.matrix == want.matrix &&
                       timed[idx].result.stats == want.stats,
                   r.apps[idx / 3].app + " " + want.mechanism +
                       ": decorated detector matches Pipeline::detect");
      sheet.add_detection(timed[idx], m, config_.hm);
    }

    // Generation, hierarchy and machine loop on every app's SM-mapped
    // evaluation (the loop's run must equal the suite's first SM run).
    for (std::size_t i = 0; i < apps; ++i) {
      const AppExperiment& app = r.apps[i];
      StreamProbe probe = probe_streams(config_.machine, *eval_[i],
                                        app.sm_mapping,
                                        config_.base_seed + 1000);
      report.tasks(2);
      report.check(probe.accesses == eval_accesses_[i],
                   app.app + ": drained stream count == accesses_of");
      check_stats(report, probe.replay_stats, eval_accesses_[i],
                  app.app + " hierarchy replay");
      report.check(!app.sm_runs.runs.empty() &&
                       probe.run_stats == app.sm_runs.runs.front(),
                   app.app + ": Machine::run reproduces the suite's SM run");
      sheet.probes.push_back(std::move(probe));
    }
  }

 private:
  Options options_;
  SuiteConfig config_;
  std::vector<std::unique_ptr<Workload>> eval_, detect_;
  std::vector<std::uint64_t> eval_accesses_, detect_accesses_;
  int cores_ = 0;
  int iterations_ = 0;
  std::filesystem::path cache_dir_;
  SuiteResult result_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_paper_suite(const Options& options) {
  return std::make_unique<PaperSuite>(options);
}

}  // namespace tlbbench
