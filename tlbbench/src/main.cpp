// tlbbench: the end-to-end and per-layer benchmark of tlbmap.
//
//   tlbbench --workload paper-suite|manycore-256|online-churn --seed N
//            --seconds S --trace 0|1 --work-dir DIR
//
// Untraced (--trace 0): times set-up 21 times, then runs iterations of
// the workload until S seconds are spent (at least two), checks every
// iteration's outputs and that all iterations produce the same digest, and
// prints the end-to-end metrics. Traced (--trace 1): one untraced and one
// traced iteration, the layer probes, and the per-layer metrics. The last
// line of standard output is the JSON result; lines before it starting
// with "#" carry provenance and the determinism digest.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <thread>

#include "harness.hpp"
#include "obs/selfprof.hpp"

namespace tlbbench {
namespace {

constexpr int kSetupRepeats = 21;
constexpr int kMinIterations = 2;

[[noreturn]] void usage(const char* why) {
  std::cerr << "tlbbench: " << why
            << "\nusage: tlbbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      } else if (flag == "--work-dir") {
        o.work_dir = value;
        have_dir = true;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_dir) {
    usage("--workload, --seed and --work-dir are required");
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  o.workers = static_cast<int>(std::min(4u, hw));
  return o;
}

std::unique_ptr<BenchWorkload> make_workload(const Options& o) {
  if (o.workload == "paper-suite") return make_paper_suite(o);
  if (o.workload == "manycore-256") return make_manycore(o);
  if (o.workload == "online-churn") return make_online_churn(o);
  usage(("unknown workload " + o.workload).c_str());
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

void print_provenance(const Options& o, const BenchWorkload& w) {
  std::cout << "# provenance {\"workload\": \"" << o.workload
            << "\", \"seed\": " << o.seed
            << ", \"held_out_seed\": " << kHeldOutSeed
            << ", \"trace\": " << (o.trace ? 1 : 0)
            << ", \"seconds\": " << o.seconds
            << ", \"build_type\": \"" << TLBBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << TLBBENCH_COMPILER
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"git_describe\": \"" << tlbmap::obs::build_git_describe()
            << "\", \"workers\": " << w.workers_json() << "}\n";
}

void emit_outcome(Report& report, const Outcome& o) {
  report.metric("time_ratio_sm", o.time_ratio_sm, "ratio");
  report.metric("time_ratio_hm", o.time_ratio_hm, "ratio");
  report.metric("inv_ratio_sm", o.inv_ratio_sm, "ratio");
  report.metric("l2miss_ratio_sm", o.l2miss_ratio_sm, "ratio");
  report.metric("cosine_sm", o.cosine_sm, "cosine");
  report.metric("cosine_hm", o.cosine_hm, "cosine");
  report.metric("overhead_pct_sm", o.overhead_pct_sm, "%");
  report.metric("overhead_pct_hm", o.overhead_pct_hm, "%");
  report.metric("online_cycles_ratio", o.online_cycles_ratio, "ratio");
  report.metric("canary_cost_ratio", o.canary_cost_ratio, "ratio");
}

double ratio_or_zero(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Per-layer metrics of a traced run. Layers the workload does not use
/// read zero.
void emit_layers(Report& report, const Trace& trace) {
  const LayerSheet& s = trace.sheet;
  const tlbmap::obs::MetricsRegistry& reg = trace.obs.metrics;

  // npb trace generation and the sim hierarchy, from the stream probes.
  std::uint64_t probe_accesses = 0, probe_barriers = 0;
  double gen_s = 0.0, hier_s = 0.0, run_s = 0.0;
  std::vector<double> batch_ns;
  for (const StreamProbe& p : s.probes) {
    probe_accesses += p.accesses;
    probe_barriers += p.barriers;
    gen_s += p.gen_s;
    hier_s += p.hierarchy_s;
    run_s += p.machine_run_s;
    batch_ns.insert(batch_ns.end(), p.batch_ns.begin(), p.batch_ns.end());
  }
  const double acc = static_cast<double>(probe_accesses);
  const double gen_ns = ratio_or_zero(gen_s * 1e9, acc);
  report.metric("npb.gen_ns_per_access", gen_ns, "ns");
  report.metric("npb.accesses", static_cast<double>(s.npb_accesses), "count");
  report.metric("sim.hierarchy_ns_per_access_p50", quantile(batch_ns, 0.5),
                "ns");
  report.metric("sim.hierarchy_ns_per_access_p99", quantile(batch_ns, 0.99),
                "ns");
  const tlbmap::MachineStats& a = s.all;
  const double all_acc = static_cast<double>(a.accesses);
  report.metric("sim.tlb_miss_rate", ratio_or_zero(a.tlb_misses, all_acc),
                "ratio");
  report.metric("sim.l1_miss_rate", ratio_or_zero(a.l1_misses, all_acc),
                "ratio");
  report.metric("sim.l2_miss_rate",
                ratio_or_zero(a.l2_misses, static_cast<double>(a.l2_accesses)),
                "ratio");
  report.metric("sim.inv_per_kacc",
                ratio_or_zero(a.invalidations * 1e3, all_acc), "1/kacc");
  report.metric("sim.snoop_per_kacc",
                ratio_or_zero(a.snoop_transactions * 1e3, all_acc), "1/kacc");
  report.metric("sim.inter_socket_per_kacc",
                ratio_or_zero(a.inter_socket_messages * 1e3, all_acc),
                "1/kacc");

  // Coherence directory (counters every traced run publishes).
  const double probes =
      static_cast<double>(reg.counter_value("coherence.directory_probes"));
  report.metric("sim.dir_probes", probes, "count");
  report.metric(
      "sim.dir_holder_hit_ratio",
      ratio_or_zero(reg.counter_value("coherence.directory_holder_hits"),
                    probes),
      "ratio");
  report.metric(
      "sim.dir_visits_per_probe",
      ratio_or_zero(reg.counter_value("coherence.directory_holder_visits"),
                    probes),
      "count");

  // Machine loop: observer-free run minus generation and hierarchy.
  const double events = acc + static_cast<double>(probe_barriers);
  report.metric("sim.machine_run_s", run_s, "s");
  report.metric("sim.sched_ns_per_event",
                ratio_or_zero((run_s - gen_s - hier_s) * 1e9, events), "ns");
  report.metric("sim.barriers", static_cast<double>(probe_barriers), "count");

  // Epoch engine.
  const double epochs =
      static_cast<double>(reg.counter_value("machine.epochs"));
  report.metric("epoch.evaluate_s", s.epoch_eval_s, "s");
  report.metric("epoch.evaluate_s_w1", s.epoch_eval_s_w1, "s");
  report.metric("epoch.fanout_speedup",
                ratio_or_zero(s.epoch_eval_s_w1, s.epoch_eval_s), "ratio");
  report.metric("epoch.cpu_per_wall", s.epoch_cpu_per_wall, "ratio");
  report.metric("epoch.epochs", epochs, "count");
  report.metric("epoch.stall_ratio",
                ratio_or_zero(reg.counter_value("machine.shard_stalls"),
                              epochs * s.epoch_shards),
                "ratio");

  // Detectors.
  report.metric("detect.sm.searches", static_cast<double>(s.sm_searches),
                "count");
  report.metric("detect.sm.search_us_p50", quantile(s.sm_search_us, 0.5),
                "us");
  report.metric("detect.sm.search_us_p99", quantile(s.sm_search_us, 0.99),
                "us");
  report.metric("detect.sm.on_access_ns",
                ratio_or_zero(s.sm_access_ns_sum,
                              static_cast<double>(s.sm_access_calls)),
                "ns");
  report.metric("detect.hm.sweeps", static_cast<double>(s.hm_sweeps), "count");
  report.metric("detect.hm.sweep_us_p50", quantile(s.hm_sweep_us, 0.5), "us");
  report.metric("detect.hm.sweep_us_p99", quantile(s.hm_sweep_us, 0.99),
                "us");
  report.metric("detect.hm.sweeps_per_interval",
                ratio_or_zero(static_cast<double>(s.hm_sweeps), s.hm_intervals),
                "ratio");
  report.metric("detect.oracle.ns_per_access",
                ratio_or_zero(s.oracle_access_ns_sum,
                              static_cast<double>(s.oracle_access_calls)),
                "ns");
  report.metric("detect.share_of_wall",
                ratio_or_zero(s.detector_s, s.cpu_traced), "ratio");

  // Mapping.
  report.metric("mapping.map_us_p50", quantile(s.map_us, 0.5), "us");
  report.metric("mapping.map_us_max", quantile(s.map_us, 1.0), "us");
  report.metric("mapping.calls", static_cast<double>(s.map_calls), "count");
  report.metric("mapping.cost_vs_random", geomean(s.cost_vs_random), "ratio");

  // Online mapper.
  report.metric("dynamic.decisions", static_cast<double>(s.decisions),
                "count");
  report.metric("dynamic.migrations", static_cast<double>(s.migrations),
                "count");
  report.metric("dynamic.rollbacks", static_cast<double>(s.rollbacks),
                "count");
  report.metric("dynamic.commit_ratio",
                ratio_or_zero(static_cast<double>(s.canary_commits),
                              static_cast<double>(s.migrations)),
                "ratio");
  report.metric("dynamic.phase_epochs", static_cast<double>(s.phase_epochs),
                "count");
  report.metric("dynamic.decision_us_p50", quantile(s.decision_us, 0.5), "us");
  report.metric("dynamic.decision_us_p99", quantile(s.decision_us, 0.99),
                "us");
  report.metric("dynamic.on_access_ns",
                ratio_or_zero(s.online_access_ns_sum,
                              static_cast<double>(s.online_access_calls)),
                "ns");

  // Experiment suite and its cache.
  report.metric("suite.detect_phase_s", s.suite_detect_s, "s");
  report.metric("suite.map_phase_s", s.suite_map_s, "s");
  report.metric("suite.evaluate_phase_s", s.suite_evaluate_s, "s");
  report.metric("suite.task_ms_p50", quantile(s.suite_task_ms, 0.5), "ms");
  report.metric("suite.task_ms_p90", quantile(s.suite_task_ms, 0.9), "ms");
  report.metric("suite.pool_busy_ratio", s.suite_pool_busy, "ratio");
  report.metric("persist.cache_write_ms", s.cache_write_ms, "ms");
  report.metric("persist.cache_hit_s", s.cache_hit_s, "s");

  // Tracing itself, and what the layer ledger does not explain: CPU of the
  // traced iteration minus the self time of every layer measured above.
  report.metric("trace.overhead_pct",
                100.0 * ratio_or_zero(s.wall_traced - s.wall_untraced,
                                      s.wall_untraced),
                "%");
  const double machine_ns = ratio_or_zero(run_s * 1e9, acc);
  const double attributed =
      static_cast<double>(s.serial_accesses) * machine_ns * 1e-9 +
      s.epoch_iteration_cpu_s + s.detector_s + s.dynamic_s +
      std::accumulate(s.map_us.begin(), s.map_us.end(), 0.0) * 1e-6;
  report.metric("trace.unattributed_pct",
                100.0 * ratio_or_zero(s.cpu_traced - attributed, s.cpu_traced),
                "%");
}

int run(const Options& options) {
  const ScratchDir scratch(options.work_dir /
                           (options.workload + "-" + std::to_string(getpid())));
  Options o = options;
  o.work_dir = scratch.path;
  std::unique_ptr<BenchWorkload> workload = make_workload(o);

  Report report;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_since(start));
  }
  print_provenance(o, *workload);

  Iteration first;
  if (!o.trace) {
    std::vector<double> walls, cpus;
    const auto run_start = Clock::now();
    while (true) {
      const auto start = Clock::now();
      const double cpu0 = process_cpu_seconds();
      const Iteration it = workload->iterate(report, nullptr);
      cpus.push_back(process_cpu_seconds() - cpu0);
      walls.push_back(seconds_since(start));
      if (walls.size() == 1) {
        first = it;
      } else {
        report.check(it.digest == first.digest,
                     "iteration " + std::to_string(walls.size()) +
                         " reproduces the first iteration's digest");
      }
      const bool enough = static_cast<int>(walls.size()) >= kMinIterations;
      if (enough && seconds_since(run_start) + median(walls) > o.seconds) {
        break;
      }
    }
    std::cout << "# iterations " << walls.size() << "\n";
    report.metric("setup_s", median(setup_s), "s");
    report.metric("wall_s", median(walls), "s");
    report.metric("accesses_per_s",
                  static_cast<double>(first.accesses) / median(walls), "1/s");
    report.metric("cpu_s", median(cpus), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    emit_outcome(report, first.outcome);
  } else {
    Trace trace;
    trace.clock_ns = clock_overhead_ns();
    auto start = Clock::now();
    first = workload->iterate(report, nullptr);
    trace.sheet.wall_untraced = seconds_since(start);
    start = Clock::now();
    const double cpu0 = process_cpu_seconds();
    const Iteration traced = workload->iterate(report, &trace);
    trace.sheet.cpu_traced = process_cpu_seconds() - cpu0;
    trace.sheet.wall_traced = seconds_since(start);
    trace.sheet.npb_accesses = traced.accesses;
    report.check(traced.digest == first.digest,
                 "traced iteration reproduces the untraced digest");
    workload->probe_layers(report, trace);
    emit_layers(report, trace);
  }
  std::printf("# digest %016llx\n",
              static_cast<unsigned long long>(first.digest));
  if (!o.trace) report.metric("ok_ratio", report.ok_ratio(), "ratio");
  std::cout << report.json() << std::endl;
  return 0;
}

}  // namespace
}  // namespace tlbbench

int main(int argc, char** argv) {
  try {
    return tlbbench::run(tlbbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "tlbbench: fatal: " << e.what() << "\n";
    return 1;
  }
}
