// Counters collected by a simulation run plus small statistics helpers
// (mean / standard deviation across repetitions, per-second rates).
//
// The counter names follow the paper's measurements: execution time,
// cache-line invalidations, snoop transactions and L2 misses (Figures 6-9,
// Tables IV and V), plus TLB statistics for Table III.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/types.hpp"

namespace tlbmap {

/// All counters of one simulation run.
struct MachineStats {
  // Demand stream.
  std::uint64_t accesses = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;

  // TLB.
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;

  // Caches.
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;

  // Coherence (the paper's headline metrics).
  std::uint64_t invalidations = 0;       ///< remote cache lines invalidated
  std::uint64_t snoop_transactions = 0;  ///< cache-to-cache data transfers
  std::uint64_t writebacks = 0;
  std::uint64_t memory_fetches = 0;
  /// NUMA split of memory_fetches (UMA machines count everything local).
  std::uint64_t memory_fetches_local = 0;
  std::uint64_t memory_fetches_remote = 0;

  // Interconnect traffic, by locality.
  std::uint64_t intra_socket_messages = 0;
  std::uint64_t inter_socket_messages = 0;

  // Time.
  Cycles execution_cycles = 0;          ///< max thread finish time
  Cycles detection_overhead_cycles = 0; ///< detector cycles on the critical path

  // Detector bookkeeping (Table III).
  std::uint64_t detector_searches = 0;  ///< SM sampled searches / HM sweeps

  double tlb_miss_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(tlb_misses) / static_cast<double>(accesses);
  }
  double overhead_fraction() const {
    return execution_cycles == 0
               ? 0.0
               : static_cast<double>(detection_overhead_cycles) /
                     static_cast<double>(execution_cycles);
  }

  MachineStats& operator+=(const MachineStats& o);

  /// Field-wise equality over every counter. The differential tests lean on
  /// this to prove the engine fast paths (coherence directory, translation
  /// memo, SoA tag scans) change no observable result.
  bool operator==(const MachineStats&) const = default;
};

/// Mean and (sample) standard deviation of a sequence.
struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t n = 0;

  /// Standard deviation as a fraction of the mean (the paper's Table V).
  double rel_stddev() const { return mean == 0.0 ? 0.0 : stddev / mean; }
};

Summary summarize(std::span<const double> values);

/// Seconds for a cycle count at the simulated clock (Xeon E5405: 2.33 GHz;
/// converts Table IV counters into per-second rates).
inline constexpr double kClockHz = 2.33e9;

inline double cycles_to_seconds(Cycles c) {
  return static_cast<double>(c) / kClockHz;
}

/// counter / seconds; 0 when the run took no time.
double per_second(std::uint64_t counter, Cycles execution_cycles);

/// Publishes every MachineStats counter into `registry` under the
/// "sim.<field>" namespace with the given labels (typically the pipeline
/// phase and mechanism). Counters accumulate, so repeated runs with the same
/// labels sum up — MachineStats stays the per-run view, the registry the
/// cross-run aggregate.
void publish_stats(obs::MetricsRegistry& registry, const MachineStats& stats,
                   const obs::Labels& labels);

}  // namespace tlbmap
