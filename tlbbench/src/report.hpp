// Result bookkeeping shared by the benchmark's workloads: metric values,
// output checks, the determinism digest and host-time helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "detect/comm_matrix.hpp"
#include "mapping/mapping.hpp"
#include "sim/stats.hpp"

namespace tlbbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process user + system CPU seconds so far (all threads).
double process_cpu_seconds();
/// Process peak resident set size in MiB.
double peak_rss_mb();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// exp(mean(log x)); 0 for an empty sample.
double geomean(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// FNV-1a over every MachineStats counter and matrix cell: two runs of the
/// same code and seed must produce the same digest.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(const tlbmap::MachineStats& s);
  void add(const tlbmap::CommMatrix& m);
  void add(const tlbmap::Mapping& m);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Metrics, output checks and the final result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// One output check: counts as attempted, and as failed when !ok (the
  /// failure is described on stderr).
  bool check(bool ok, const std::string& what);
  /// Simulation runs and other tasks performed (attempted, not failed).
  void tasks(std::uint64_t n) { attempted_ += n; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// Share of attempted items that succeeded.
  double ok_ratio() const;

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Counter identities that hold by construction for every run:
/// reads + writes, TLB hits + misses and L1 hits + misses all equal the
/// access count, L2 hits + misses equal L2 accesses, and the access count
/// equals what the workload's streams emit (`expected_accesses`).
void check_stats(Report& report, const tlbmap::MachineStats& s,
                 std::uint64_t expected_accesses, const std::string& what);

/// `mapping` places `threads` threads on distinct cores of the machine.
void check_mapping(Report& report, const tlbmap::Mapping& mapping,
                   int threads, int cores, const std::string& what);

}  // namespace tlbbench
