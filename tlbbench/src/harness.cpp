#include "harness.hpp"

#include "mapping/mapping.hpp"

namespace tlbbench {

using namespace tlbmap;

void LayerSheet::add_detection(const TimedDetection& d,
                               Pipeline::Mechanism mechanism,
                               const HmDetectorConfig& hm) {
  const double calls = static_cast<double>(d.access_calls);
  switch (mechanism) {
    case Pipeline::Mechanism::kSoftwareManaged:
      sm_searches += d.result.searches;
      sm_search_us.insert(sm_search_us.end(), d.search_us.begin(),
                          d.search_us.end());
      sm_access_ns_sum += d.access_ns * calls;
      sm_access_calls += d.access_calls;
      break;
    case Pipeline::Mechanism::kHardwareManaged:
      hm_sweeps += d.result.searches;
      hm_sweep_us.insert(hm_sweep_us.end(), d.search_us.begin(),
                         d.search_us.end());
      hm_intervals += static_cast<double>(d.result.stats.execution_cycles) /
                      static_cast<double>(hm.interval);
      break;
    case Pipeline::Mechanism::kOracle:
      oracle_access_ns_sum += d.access_ns * calls;
      oracle_access_calls += d.access_calls;
      break;
  }
  detector_s += d.self_s;
}

void LayerSheet::add_dynamic(const TimedDynamic& d) {
  const auto& r = d.result;
  decisions += static_cast<std::uint64_t>(r.remap_decisions);
  migrations += static_cast<std::uint64_t>(r.migrations);
  rollbacks += static_cast<std::uint64_t>(r.rollbacks);
  canary_commits += static_cast<std::uint64_t>(r.canary_commits);
  phase_epochs += r.phase_epochs;
  decision_us.insert(decision_us.end(), d.decision_us.begin(),
                     d.decision_us.end());
  online_access_ns_sum += d.access_ns * static_cast<double>(d.access_calls);
  online_access_calls += d.access_calls;
  dynamic_s += d.self_s;
  // Every remap decision runs the matcher once.
  map_calls += static_cast<std::uint64_t>(r.remap_decisions);
}

Mapping timed_map(const Pipeline& pipe, const CommMatrix& matrix,
                  Trace* trace) {
  const auto start = Clock::now();
  Mapping mapping = pipe.map(matrix);
  if (trace != nullptr) {
    trace->sheet.map_us.push_back(seconds_since(start) * 1e6);
    ++trace->sheet.map_calls;
  }
  return mapping;
}

void add_cost_vs_random(LayerSheet& sheet, const CommMatrix& matrix,
                        const Mapping& mapping, const Topology& topology,
                        std::uint64_t seed) {
  const Mapping random = random_mapping(static_cast<int>(mapping.size()),
                                        topology.num_cores(), seed);
  const double random_cost = mapping_cost(matrix, random, topology);
  if (random_cost <= 0.0) return;
  sheet.cost_vs_random.push_back(mapping_cost(matrix, mapping, topology) /
                                 random_cost);
}

void check_detection_regime(Report& report, std::uint64_t sm_searches,
                            std::uint64_t hm_sweeps, double hm_intervals) {
  report.check(sm_searches > 0, "regime: SM detection ran searches");
  report.check(hm_sweeps > 0, "regime: HM detection swept");
  const double per_interval = static_cast<double>(hm_sweeps) / hm_intervals;
  report.check(per_interval > 0.5 && per_interval < 1.5,
               "regime: HM sweeps about once per interval (" +
                   std::to_string(per_interval) + ")");
}

}  // namespace tlbbench
