#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace tlbbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add(const tlbmap::MachineStats& s) {
  for (std::uint64_t v :
       {s.accesses, s.reads, s.writes, s.tlb_hits, s.tlb_misses, s.l1_hits,
        s.l1_misses, s.l2_accesses, s.l2_hits, s.l2_misses, s.invalidations,
        s.snoop_transactions, s.writebacks, s.memory_fetches,
        s.memory_fetches_local, s.memory_fetches_remote,
        s.intra_socket_messages, s.inter_socket_messages,
        static_cast<std::uint64_t>(s.execution_cycles),
        static_cast<std::uint64_t>(s.detection_overhead_cycles),
        s.detector_searches}) {
    add(v);
  }
}

void Digest::add(const tlbmap::CommMatrix& m) {
  for (const auto& row : m.rows()) {
    for (std::uint64_t v : row) add(v);
  }
}

void Digest::add(const tlbmap::Mapping& m) {
  for (tlbmap::CoreId c : m) add(static_cast<std::uint64_t>(c));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!check(std::isfinite(value), "metric " + name + " is finite")) {
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "tlbbench: CHECK FAILED: " << what << "\n";
  }
  return ok;
}

double Report::ok_ratio() const {
  if (attempted_ == 0) return 0.0;
  return static_cast<double>(attempted_ - failed_) /
         static_cast<double>(attempted_);
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
    out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
        << "\": {\"value\": " << buf << ", \"unit\": \"" << metrics_[i].unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

void check_stats(Report& report, const tlbmap::MachineStats& s,
                 std::uint64_t expected_accesses, const std::string& what) {
  report.check(s.reads + s.writes == s.accesses,
               what + ": reads + writes == accesses");
  report.check(s.tlb_hits + s.tlb_misses == s.accesses,
               what + ": TLB hits + misses == accesses");
  report.check(s.l1_hits + s.l1_misses == s.accesses,
               what + ": L1 hits + misses == accesses");
  report.check(s.l2_hits + s.l2_misses == s.l2_accesses,
               what + ": L2 hits + misses == L2 accesses");
  report.check(s.accesses == expected_accesses,
               what + ": accesses == stream accesses (" +
                   std::to_string(s.accesses) + " vs " +
                   std::to_string(expected_accesses) + ")");
}

void check_mapping(Report& report, const tlbmap::Mapping& mapping,
                   int threads, int cores, const std::string& what) {
  report.check(static_cast<int>(mapping.size()) == threads &&
                   tlbmap::is_valid_mapping(mapping, cores),
               what + ": mapping is a permutation onto distinct cores");
}

}  // namespace tlbbench
