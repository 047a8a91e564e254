#include "ledger.hpp"

#include <algorithm>
#include <memory>

#include "detect/hm_detector.hpp"
#include "detect/oracle_detector.hpp"
#include "detect/sm_detector.hpp"
#include "report.hpp"

namespace tlbbench {

using namespace tlbmap;

namespace {

double elapsed_ns(Clock::time_point start, double clock_ns) {
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  return std::max(0.0, ns - clock_ns);
}

}  // namespace

double clock_overhead_ns() {
  std::vector<double> samples;
  samples.reserve(1001);
  for (int i = 0; i < 1001; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    samples.push_back(std::chrono::duration<double, std::nano>(b - a).count());
  }
  return median(std::move(samples));
}

void AccessTimer::record(bool tlb_miss, double ns) {
  if (tlb_miss) {
    ++miss_calls_;
    miss_ns_ += ns;
  } else {
    ++timed_hits_;
    timed_hit_ns_ += ns;
  }
}

double AccessTimer::mean_ns() const {
  if (calls_ == 0) return 0.0;
  const std::uint64_t hits = calls_ - miss_calls_;
  const double hit_mean =
      timed_hits_ == 0 ? 0.0 : timed_hit_ns_ / static_cast<double>(timed_hits_);
  return (miss_ns_ + hit_mean * static_cast<double>(hits)) /
         static_cast<double>(calls_);
}

Cycles TimedDetector::on_access(ThreadId thread, CoreId core, VirtAddr addr,
                                PageNum page, AccessType type, bool tlb_miss,
                                Cycles now) {
  if (!access_.should_time(tlb_miss)) {
    return inner_.on_access(thread, core, addr, page, type, tlb_miss, now);
  }
  const std::uint64_t searches = inner_.searches();
  const auto start = Clock::now();
  const Cycles cost =
      inner_.on_access(thread, core, addr, page, type, tlb_miss, now);
  const double ns = elapsed_ns(start, clock_ns_);
  access_.record(tlb_miss, ns);
  if (inner_.searches() != searches) search_us_.push_back(ns * 1e-3);
  return cost;
}

Cycles TimedDetector::on_tick(Cycles now) {
  if (!sweeps_) return inner_.on_tick(now);
  const std::uint64_t sweeps = inner_.searches();
  const auto start = Clock::now();
  const Cycles cost = inner_.on_tick(now);
  if (inner_.searches() != sweeps) {
    const double ns = elapsed_ns(start, clock_ns_);
    sweep_us_.push_back(ns * 1e-3);
    sweep_s_ += ns * 1e-9;
  }
  return cost;
}

double TimedDetector::self_s() const { return access_.total_s() + sweep_s_; }

Cycles TimedOnlineMapper::on_access(ThreadId thread, CoreId core,
                                    VirtAddr addr, PageNum page,
                                    AccessType type, bool tlb_miss,
                                    Cycles now) {
  if (!access_.should_time(tlb_miss)) {
    return inner_.on_access(thread, core, addr, page, type, tlb_miss, now);
  }
  const auto start = Clock::now();
  const Cycles cost =
      inner_.on_access(thread, core, addr, page, type, tlb_miss, now);
  access_.record(tlb_miss, elapsed_ns(start, clock_ns_));
  return cost;
}

std::vector<CoreId> TimedOnlineMapper::on_barrier(int barrier_index,
                                                  Cycles now) {
  return inner_.on_barrier(barrier_index, now);
}

std::vector<CoreId> TimedOnlineMapper::on_barrier(int barrier_index,
                                                  Cycles now,
                                                  const MachineStats& stats) {
  const int decisions = inner_.remap_decisions();
  const auto start = Clock::now();
  std::vector<CoreId> next = inner_.on_barrier(barrier_index, now, stats);
  const double ns = elapsed_ns(start, clock_ns_);
  barrier_s_ += ns * 1e-9;
  if (inner_.remap_decisions() != decisions) decision_us_.push_back(ns * 1e-3);
  return next;
}

namespace {

std::vector<std::unique_ptr<ThreadStream>> make_streams(
    const Workload& workload, std::uint64_t seed) {
  std::vector<std::unique_ptr<ThreadStream>> streams;
  for (ThreadId t = 0; t < workload.num_threads(); ++t) {
    streams.push_back(workload.stream(t, seed));
  }
  return streams;
}

}  // namespace

TimedDetection timed_detect(const MachineConfig& machine_config,
                            const Workload& workload,
                            Pipeline::Mechanism mechanism,
                            const SmDetectorConfig& sm,
                            const HmDetectorConfig& hm, std::uint64_t seed,
                            obs::ObsContext* obs, double clock_ns) {
  Machine machine(machine_config);
  std::unique_ptr<Detector> detector;
  switch (mechanism) {
    case Pipeline::Mechanism::kSoftwareManaged:
      detector =
          std::make_unique<SmDetector>(machine, workload.num_threads(), sm);
      break;
    case Pipeline::Mechanism::kHardwareManaged:
      detector =
          std::make_unique<HmDetector>(machine, workload.num_threads(), hm);
      break;
    case Pipeline::Mechanism::kOracle:
      detector = std::make_unique<OracleDetector>(workload.num_threads());
      break;
  }
  detector->set_observability(obs);
  TimedDetector timed(*detector, clock_ns);

  Machine::RunConfig run;
  run.thread_to_core = identity_mapping(workload.num_threads());
  run.observer = &timed;
  run.obs = obs;

  TimedDetection out;
  out.result.stats = machine.run(make_streams(workload, seed), run);
  out.result.matrix = detector->matrix();
  out.result.searches = detector->searches();
  out.result.mechanism = detector->name();
  out.search_us = mechanism == Pipeline::Mechanism::kHardwareManaged
                      ? timed.sweep_us()
                      : timed.search_us();
  out.access_calls = timed.access_timer().calls();
  out.access_ns = timed.access_timer().mean_ns();
  out.self_s = timed.self_s();
  return out;
}

TimedDynamic timed_dynamic(const MachineConfig& machine_config,
                           const Workload& workload, const Mapping& initial,
                           const OnlineMapperConfig& config,
                           std::uint64_t seed, obs::ObsContext* obs,
                           double clock_ns) {
  Machine machine(machine_config);
  OnlineMapper online(machine, workload.num_threads(), initial, config);
  online.set_observability(obs);
  TimedOnlineMapper timed(online, clock_ns);

  Machine::RunConfig run;
  run.thread_to_core = initial;
  run.observer = &timed;
  run.migration = &timed;
  run.obs = obs;

  TimedDynamic out;
  out.result.stats = machine.run(make_streams(workload, seed), run);
  out.result.migrations = online.migrations();
  out.result.remap_decisions = online.remap_decisions();
  out.result.degraded_decisions = online.degraded_decisions();
  out.result.rollbacks = online.rollbacks();
  out.result.canary_commits = online.canary_commits();
  out.result.backoff_skips = online.backoff_skips();
  out.result.phase_epochs = online.phase_epochs();
  out.result.final_mapping = online.current_mapping();
  out.decision_us = timed.decision_us();
  out.access_calls = timed.access_timer().calls();
  out.access_ns = timed.access_timer().mean_ns();
  out.self_s = timed.self_s();
  return out;
}

StreamProbe probe_streams(const MachineConfig& machine_config,
                          const Workload& workload, const Mapping& mapping,
                          std::uint64_t seed) {
  constexpr std::size_t kBatch = 256;
  StreamProbe probe;
  MemoryHierarchy hierarchy(machine_config);
  auto streams = make_streams(workload, seed);
  std::vector<bool> done(streams.size(), false);
  std::vector<MemAccess> batch;
  batch.reserve(kBatch);
  std::size_t live = streams.size();
  while (live > 0) {
    for (std::size_t t = 0; t < streams.size(); ++t) {
      if (done[t]) continue;
      batch.clear();
      const auto gen_start = Clock::now();
      while (batch.size() < kBatch) {
        const TraceEvent ev = streams[t]->next();
        if (ev.kind == TraceEvent::Kind::kAccess) {
          batch.push_back(ev.access);
        } else if (ev.kind == TraceEvent::Kind::kBarrier) {
          ++probe.barriers;
        } else {
          done[t] = true;
          --live;
          break;
        }
      }
      probe.gen_s += seconds_since(gen_start);
      if (batch.empty()) continue;
      const CoreId core = mapping[t];
      const auto hier_start = Clock::now();
      for (const MemAccess& a : batch) {
        hierarchy.access(core, a.addr, a.type, probe.replay_stats);
      }
      const double dt = seconds_since(hier_start);
      probe.hierarchy_s += dt;
      probe.batch_ns.push_back(dt * 1e9 / static_cast<double>(batch.size()));
      probe.accesses += batch.size();
    }
  }

  Machine machine(machine_config);
  Machine::RunConfig run;
  run.thread_to_core = mapping;
  const auto run_start = Clock::now();
  probe.run_stats = machine.run(make_streams(workload, seed), run);
  probe.machine_run_s = seconds_since(run_start);
  return probe;
}

std::uint64_t stream_accesses(const Workload& workload) {
  std::uint64_t n = 0;
  for (ThreadId t = 0; t < workload.num_threads(); ++t) {
    n += workload.accesses_of(t);
  }
  return n;
}

}  // namespace tlbbench
