// Per-layer measurements taken from outside the library: forwarding
// decorators that time the detector and online-mapper hooks the machine
// calls, and standalone probes that time trace generation, the memory
// hierarchy and the observer-free machine loop on the same inputs the
// workload simulates. Used only by traced runs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "detect/detector.hpp"
#include "npb/workload.hpp"
#include "sim/machine.hpp"

namespace tlbbench {

/// Median cost of one timed region's two clock reads, in nanoseconds.
/// Subtracted from every individually timed hook call.
double clock_overhead_ns();

/// Times on_access calls of a hook: every TLB-miss call, and one in
/// kSampleEvery of the others (a clock read costs more than the fast
/// path it would time).
class AccessTimer {
 public:
  static constexpr std::uint64_t kSampleEvery = 64;

  /// True when the next call should be timed.
  bool should_time(bool tlb_miss) {
    ++calls_;
    if (tlb_miss) return true;
    return (++hit_calls_ % kSampleEvery) == 0;
  }
  void record(bool tlb_miss, double ns);

  std::uint64_t calls() const { return calls_; }
  /// Estimated mean cost of one call in ns, all calls.
  double mean_ns() const;
  /// Estimated total seconds spent in the hook.
  double total_s() const {
    return mean_ns() * static_cast<double>(calls_) * 1e-9;
  }

 private:
  std::uint64_t calls_ = 0;
  std::uint64_t hit_calls_ = 0;
  std::uint64_t miss_calls_ = 0;
  std::uint64_t timed_hits_ = 0;
  double miss_ns_ = 0.0;
  double timed_hit_ns_ = 0.0;
};

/// Forwarding MachineObserver around a detector the benchmark built. Times
/// every call that ran an SM search and every HM sweep individually.
class TimedDetector final : public tlbmap::MachineObserver {
 public:
  TimedDetector(tlbmap::Detector& inner, double clock_ns)
      : inner_(inner), clock_ns_(clock_ns), sweeps_(inner.name() == "HM") {}

  tlbmap::Cycles on_access(tlbmap::ThreadId thread, tlbmap::CoreId core,
                           tlbmap::VirtAddr addr, tlbmap::PageNum page,
                           tlbmap::AccessType type, bool tlb_miss,
                           tlbmap::Cycles now) override;
  tlbmap::Cycles on_tick(tlbmap::Cycles now) override;

  const AccessTimer& access_timer() const { return access_; }
  /// Duration of each search-running on_access call (SM), microseconds.
  const std::vector<double>& search_us() const { return search_us_; }
  /// Duration of each sweep-running on_tick call (HM), microseconds.
  const std::vector<double>& sweep_us() const { return sweep_us_; }
  /// Seconds in the detector's hooks (access estimate + sweeps).
  double self_s() const;

 private:
  tlbmap::Detector& inner_;
  double clock_ns_;
  bool sweeps_;  ///< only the HM detector does work in on_tick
  AccessTimer access_;
  std::vector<double> search_us_;
  std::vector<double> sweep_us_;
  double sweep_s_ = 0.0;
};

/// Forwarding observer + migration policy around an OnlineMapper. Times
/// the access hook as AccessTimer does and every barrier decision.
class TimedOnlineMapper final : public tlbmap::MachineObserver,
                                public tlbmap::MigrationPolicy {
 public:
  TimedOnlineMapper(tlbmap::OnlineMapper& inner, double clock_ns)
      : inner_(inner), clock_ns_(clock_ns) {}

  tlbmap::Cycles on_access(tlbmap::ThreadId thread, tlbmap::CoreId core,
                           tlbmap::VirtAddr addr, tlbmap::PageNum page,
                           tlbmap::AccessType type, bool tlb_miss,
                           tlbmap::Cycles now) override;
  tlbmap::Cycles on_tick(tlbmap::Cycles now) override {
    return inner_.on_tick(now);
  }
  std::vector<tlbmap::CoreId> on_barrier(int barrier_index,
                                         tlbmap::Cycles now) override;
  std::vector<tlbmap::CoreId> on_barrier(
      int barrier_index, tlbmap::Cycles now,
      const tlbmap::MachineStats& stats) override;

  const AccessTimer& access_timer() const { return access_; }
  /// Duration of each barrier call that made a remap decision, µs.
  const std::vector<double>& decision_us() const { return decision_us_; }
  /// Seconds in the mapper's hooks (access estimate + barrier calls).
  double self_s() const { return access_.total_s() + barrier_s_; }

 private:
  tlbmap::OnlineMapper& inner_;
  double clock_ns_;
  AccessTimer access_;
  std::vector<double> decision_us_;
  double barrier_s_ = 0.0;
};

/// Pipeline::detect with the detector wrapped in a TimedDetector: the same
/// machine, placement (identity) and run config, so the matrix and stats
/// must equal Pipeline::detect's.
struct TimedDetection {
  tlbmap::DetectionResult result;
  std::vector<double> search_us;  ///< SM searches / HM sweeps, µs
  std::uint64_t access_calls = 0;
  double access_ns = 0.0;         ///< mean on_access cost
  double self_s = 0.0;
};
TimedDetection timed_detect(const tlbmap::MachineConfig& machine,
                            const tlbmap::Workload& workload,
                            tlbmap::Pipeline::Mechanism mechanism,
                            const tlbmap::SmDetectorConfig& sm,
                            const tlbmap::HmDetectorConfig& hm,
                            std::uint64_t seed, tlbmap::obs::ObsContext* obs,
                            double clock_ns);

/// Pipeline::evaluate_dynamic with the OnlineMapper wrapped in a
/// TimedOnlineMapper (same machine and run config).
struct TimedDynamic {
  tlbmap::Pipeline::DynamicRunResult result;
  std::vector<double> decision_us;
  std::uint64_t access_calls = 0;
  double access_ns = 0.0;
  double self_s = 0.0;
};
TimedDynamic timed_dynamic(const tlbmap::MachineConfig& machine,
                           const tlbmap::Workload& workload,
                           const tlbmap::Mapping& initial,
                           const tlbmap::OnlineMapperConfig& config,
                           std::uint64_t seed, tlbmap::obs::ObsContext* obs,
                           double clock_ns);

/// Trace generation and the memory hierarchy timed apart: every thread's
/// stream is drained in round-robin batches, each batch's pull timed as
/// generation and its replay through MemoryHierarchy::access timed as one
/// batch (per-access cost = batch time / batch size, one histogram sample
/// per batch). Then the observer-free serial Machine::run of the same
/// workload, placement and seed, timed whole.
struct StreamProbe {
  std::uint64_t accesses = 0;       ///< drained from the streams
  std::uint64_t barriers = 0;       ///< barrier events drained
  double gen_s = 0.0;
  double hierarchy_s = 0.0;
  std::vector<double> batch_ns;     ///< per-access ns of each replay batch
  tlbmap::MachineStats replay_stats;
  double machine_run_s = 0.0;
  tlbmap::MachineStats run_stats;
};
StreamProbe probe_streams(const tlbmap::MachineConfig& machine,
                          const tlbmap::Workload& workload,
                          const tlbmap::Mapping& mapping, std::uint64_t seed);

/// Sum of Workload::accesses_of over every thread.
std::uint64_t stream_accesses(const tlbmap::Workload& workload);

}  // namespace tlbbench
