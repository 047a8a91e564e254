// The benchmark's workload interface and the per-layer ledger a traced run
// fills. main.cpp drives a workload: set-up (timed several times), measured
// iterations until the run's time is spent, then the result line.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ledger.hpp"
#include "obs/obs.hpp"
#include "report.hpp"
#include "sim/stats.hpp"

namespace tlbbench {

/// A second seed, never used while the benchmark was sized: a claimed gain
/// must also hold with --seed kHeldOutSeed.
inline constexpr std::uint64_t kHeldOutSeed = 7919;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::filesystem::path work_dir;  ///< scratch space inside the checkout
  int workers = 1;                 ///< threads the workload may use
};

/// End-to-end metrics computed from simulated results (README.md defines
/// each one).
struct Outcome {
  double time_ratio_sm = 0.0;
  double time_ratio_hm = 0.0;
  double inv_ratio_sm = 0.0;
  double l2miss_ratio_sm = 0.0;
  double cosine_sm = 0.0;
  double cosine_hm = 0.0;
  double overhead_pct_sm = 0.0;
  double overhead_pct_hm = 0.0;
  /// 1 by definition where no online mapper runs: the dynamic run is then
  /// the static run.
  double online_cycles_ratio = 1.0;
  double canary_cost_ratio = 1.0;
};

/// The simulated outcome of one iteration. Identical for every iteration
/// of a run (same seed), which the digest proves.
struct Iteration {
  std::uint64_t digest = 0;
  std::uint64_t accesses = 0;  ///< simulated accesses, every run included
  Outcome outcome;
};

/// What the layers did during a traced iteration plus the probes after it.
/// Fields a workload leaves at zero are layers it does not use.
struct LayerSheet {
  // npb / sim: stream probes over the workload's inputs.
  std::vector<StreamProbe> probes;
  std::uint64_t npb_accesses = 0;   ///< accesses generated in the iteration
  tlbmap::MachineStats all;         ///< every run of the iteration, summed
  std::uint64_t serial_accesses = 0;  ///< of which on the serial event loop

  // Epoch engine (observer-free evaluations with machine workers).
  double epoch_eval_s = 0.0;     ///< probe evaluation at the run's workers
  double epoch_eval_s_w1 = 0.0;  ///< the same evaluation at 1 worker
  double epoch_cpu_per_wall = 0.0;
  int epoch_shards = 0;          ///< occupied L2 domains of the probe
  double epoch_iteration_cpu_s = 0.0;  ///< CPU of the iteration's evaluations

  // Detectors (decorated runs).
  std::uint64_t sm_searches = 0;
  std::vector<double> sm_search_us;
  double sm_access_ns_sum = 0.0;  ///< mean ns x calls, summed over runs
  std::uint64_t sm_access_calls = 0;
  std::uint64_t hm_sweeps = 0;
  std::vector<double> hm_sweep_us;
  double hm_intervals = 0.0;      ///< execution cycles / interval, summed
  double oracle_access_ns_sum = 0.0;
  std::uint64_t oracle_access_calls = 0;
  double detector_s = 0.0;

  // Mapping.
  std::vector<double> map_us;
  std::uint64_t map_calls = 0;
  std::vector<double> cost_vs_random;

  // Online mapper.
  std::uint64_t decisions = 0, migrations = 0, rollbacks = 0,
                canary_commits = 0, phase_epochs = 0;
  std::vector<double> decision_us;
  double online_access_ns_sum = 0.0;
  std::uint64_t online_access_calls = 0;
  double dynamic_s = 0.0;

  // Experiment suite.
  double suite_detect_s = 0.0, suite_map_s = 0.0, suite_evaluate_s = 0.0;
  std::vector<double> suite_task_ms;
  double suite_pool_busy = 0.0;
  double cache_write_ms = 0.0;
  double cache_hit_s = 0.0;

  // Whole iteration.
  double wall_untraced = 0.0;
  double wall_traced = 0.0;
  double cpu_traced = 0.0;

  void add_detection(const TimedDetection& d,
                     tlbmap::Pipeline::Mechanism mechanism,
                     const tlbmap::HmDetectorConfig& hm);
  void add_dynamic(const TimedDynamic& d);
};

/// State of a traced iteration: the obs context attached to every
/// pipeline and the ledger the iteration and probes fill.
struct Trace {
  tlbmap::obs::ObsContext obs;
  LayerSheet sheet;
  double clock_ns = 0.0;
};

class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;
  /// Builds the inputs of an iteration: workloads, machine and detector
  /// configs, expected access counts. Timed as the set-up cost.
  virtual void setup() = 0;
  /// One iteration. With `trace` set it runs with the obs context attached
  /// and its detector and online-mapper runs decorated; it must produce
  /// the same digest either way.
  virtual Iteration iterate(Report& report, Trace* trace) = 0;
  /// Probes of a traced run, after the traced iteration.
  virtual void probe_layers(Report& report, Trace& trace) = 0;
  /// Worker counts, for the provenance line.
  virtual std::string workers_json() const = 0;
};

std::unique_ptr<BenchWorkload> make_paper_suite(const Options& options);
std::unique_ptr<BenchWorkload> make_manycore(const Options& options);
std::unique_ptr<BenchWorkload> make_online_churn(const Options& options);

/// Timed Pipeline::map (the ledger records it in traced runs).
tlbmap::Mapping timed_map(const tlbmap::Pipeline& pipe,
                          const tlbmap::CommMatrix& matrix, Trace* trace);

/// Records the communication cost of `mapping` over that of a seeded
/// random placement, both priced under `matrix` (skipped when the random
/// placement costs nothing, e.g. an empty matrix).
void add_cost_vs_random(LayerSheet& sheet, const tlbmap::CommMatrix& matrix,
                        const tlbmap::Mapping& mapping,
                        const tlbmap::Topology& topology, std::uint64_t seed);

/// Regime guards shared by the workloads that detect: SM searched at least
/// once, HM swept at least once and about once per interval.
void check_detection_regime(Report& report, std::uint64_t sm_searches,
                            std::uint64_t hm_sweeps, double hm_intervals);

}  // namespace tlbbench
