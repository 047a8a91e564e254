// Differential tests for the simulator's engine fast paths. Each fast path
// (the coherence line-occupancy directory, the per-core translation memo +
// sibling-shootdown presence check, the SoA tag scans) claims to be a pure
// acceleration: the simulated outcome — every MachineStats counter — must
// be bit-identical to the reference path. These tests run real NPB
// workloads under both paths and compare the full counter structs, across
// UMA and both NUMA policies, static and migrating (dynamic) runs. They
// also hold the directory to its ground truth: after arbitrary runs, every
// directory bit must agree with the actual L2 contents. The scheduler has
// no second path left; golden counters recorded with the pickers it
// replaced pin it instead.
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "mapping/mapping.hpp"
#include "npb/workload.hpp"
#include "sim/machine.hpp"
#include "sim/scan.hpp"

namespace tlbmap {
namespace {

WorkloadParams small_params(int threads = 8) {
  WorkloadParams p;
  p.num_threads = threads;
  p.size_scale = 0.5;
  p.iter_scale = 0.25;
  return p;
}

std::vector<std::unique_ptr<ThreadStream>> streams_of(
    const Workload& workload, std::uint64_t seed) {
  std::vector<std::unique_ptr<ThreadStream>> streams;
  for (ThreadId t = 0; t < workload.num_threads(); ++t) {
    streams.push_back(workload.stream(t, seed));
  }
  return streams;
}

MachineConfig machine_variant(const std::string& variant) {
  if (variant == "uma") return MachineConfig::harpertown();
  MachineConfig m = MachineConfig::numa_harpertown();
  if (variant == "numa_interleave") m.numa_policy = NumaPolicy::kInterleave;
  return m;
}

/// One full run at the Machine level with every engine knob exposed.
MachineStats run_app(const MachineConfig& machine_config,
                     const Workload& workload, const Mapping& mapping,
                     bool fast_hierarchy, std::uint64_t seed) {
  Machine machine(machine_config);
  machine.hierarchy().set_fast_path_enabled(fast_hierarchy);
  Machine::RunConfig run;
  run.thread_to_core = mapping;
  return machine.run(streams_of(workload, seed), run);
}

/// Every MachineStats counter in declaration order, one line. The golden
/// tests compare against this form so a mismatch names the field.
std::string counters_of(const MachineStats& s) {
  std::ostringstream os;
  os << "acc=" << s.accesses << " rd=" << s.reads << " wr=" << s.writes
     << " tlb=" << s.tlb_hits << "/" << s.tlb_misses << " l1=" << s.l1_hits
     << "/" << s.l1_misses << " l2=" << s.l2_accesses << "/" << s.l2_hits
     << "/" << s.l2_misses << " inv=" << s.invalidations
     << " snoop=" << s.snoop_transactions << " wb=" << s.writebacks
     << " mem=" << s.memory_fetches << "/" << s.memory_fetches_local << "/"
     << s.memory_fetches_remote << " msg=" << s.intra_socket_messages << "/"
     << s.inter_socket_messages << " cyc=" << s.execution_cycles
     << " ovh=" << s.detection_overhead_cycles
     << " search=" << s.detector_searches;
  return os.str();
}

struct DiffParam {
  const char* app;
  const char* variant;  ///< "uma" | "numa_first_touch" | "numa_interleave"
};

class CoherenceDirectoryDifferential
    : public ::testing::TestWithParam<DiffParam> {};

// The tentpole contract: directory-resolved coherence produces exactly the
// statistics of the walked broadcast — probe traffic, snoop transactions,
// invalidations, writebacks, latencies — on identity and scrambled
// placements alike.
TEST_P(CoherenceDirectoryDifferential, BitIdenticalStatsToBroadcast) {
  const auto [app, variant] = GetParam();
  const auto workload = make_npb_workload(app, small_params());
  MachineConfig directory_config = machine_variant(variant);
  directory_config.coherence_broadcast = false;
  MachineConfig broadcast_config = directory_config;
  broadcast_config.coherence_broadcast = true;

  const Mapping mappings[] = {
      identity_mapping(workload->num_threads()),
      random_mapping(workload->num_threads(), directory_config.num_cores(),
                     /*seed=*/97),
  };
  for (const Mapping& mapping : mappings) {
    const MachineStats with_directory =
        run_app(directory_config, *workload, mapping,
                /*fast_hierarchy=*/true, /*seed=*/5);
    const MachineStats with_broadcast =
        run_app(broadcast_config, *workload, mapping,
                /*fast_hierarchy=*/true, /*seed=*/5);
    EXPECT_TRUE(with_directory == with_broadcast)
        << app << "/" << variant << ": directory and broadcast stats differ "
        << "(cycles " << with_directory.execution_cycles << " vs "
        << with_broadcast.execution_cycles << ", invalidations "
        << with_directory.invalidations << " vs "
        << with_broadcast.invalidations << ", messages "
        << with_directory.intra_socket_messages << "+"
        << with_directory.inter_socket_messages << " vs "
        << with_broadcast.intra_socket_messages << "+"
        << with_broadcast.inter_socket_messages << ")";
  }
}

// The hierarchy fast paths (translation memo, shootdown presence check) are
// equally invisible in the statistics.
TEST_P(CoherenceDirectoryDifferential, HierarchyFastPathIsInvisible) {
  const auto [app, variant] = GetParam();
  const auto workload = make_npb_workload(app, small_params());
  const MachineConfig config = machine_variant(variant);
  const Mapping mapping = random_mapping(workload->num_threads(),
                                         config.num_cores(), /*seed=*/31);
  const MachineStats fast = run_app(config, *workload, mapping,
                                    /*fast_hierarchy=*/true, /*seed=*/7);
  const MachineStats slow = run_app(config, *workload, mapping,
                                    /*fast_hierarchy=*/false, /*seed=*/7);
  EXPECT_TRUE(fast == slow)
      << app << "/" << variant << ": hierarchy fast path changed stats "
      << "(tlb " << fast.tlb_hits << "/" << fast.tlb_misses << " vs "
      << slow.tlb_hits << "/" << slow.tlb_misses << ", cycles "
      << fast.execution_cycles << " vs " << slow.execution_cycles << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndMachines, CoherenceDirectoryDifferential,
    ::testing::Values(DiffParam{"SP", "uma"}, DiffParam{"CG", "uma"},
                      DiffParam{"UA", "uma"}, DiffParam{"FT", "numa_first_touch"},
                      DiffParam{"MG", "numa_first_touch"},
                      DiffParam{"SP", "numa_interleave"},
                      DiffParam{"LU", "numa_interleave"}),
    [](const ::testing::TestParamInfo<DiffParam>& info) {
      return std::string(info.param.app) + "_" + info.param.variant;
    });

// Migration runs exercise the remaining path: detection attached, threads
// moving between sockets at barriers, caches cooling behind them. The
// dynamic result (stats, migration count, final placement) must not depend
// on how coherence probes are resolved.
TEST(CoherenceDirectoryDifferential, DynamicMigrationRunsMatchBroadcast) {
  const auto workload = make_npb_workload("SP", small_params());
  MachineConfig directory_config = MachineConfig::harpertown();
  MachineConfig broadcast_config = directory_config;
  broadcast_config.coherence_broadcast = true;

  const Mapping initial = random_mapping(workload->num_threads(),
                                         directory_config.num_cores(),
                                         /*seed=*/123);
  OnlineMapperConfig online;
  online.remap_every_barriers = 2;

  Pipeline directory_pipe(directory_config);
  Pipeline broadcast_pipe(broadcast_config);
  const auto with_directory =
      directory_pipe.evaluate_dynamic(*workload, initial, online, /*seed=*/9);
  const auto with_broadcast =
      broadcast_pipe.evaluate_dynamic(*workload, initial, online, /*seed=*/9);

  EXPECT_TRUE(with_directory.stats == with_broadcast.stats);
  EXPECT_EQ(with_directory.migrations, with_broadcast.migrations);
  EXPECT_EQ(with_directory.remap_decisions, with_broadcast.remap_decisions);
  EXPECT_EQ(with_directory.final_mapping, with_broadcast.final_mapping);
}

/// Restores the process-global scan toggle even if an assertion fires.
struct ScopedScalarScan {
  ScopedScalarScan() { set_simd_scan_enabled(false); }
  ~ScopedScalarScan() { set_simd_scan_enabled(true); }
};

// The SoA tag-scan kernels (scan.hpp) are the fourth engine fast path:
// TLB lookups, cache set scans and the HM sweep read dense uint64 tag
// mirrors instead of striding through structs. Same contract as the rest —
// the simulated outcome must be bit-identical to the scalar reference
// walk, on static and detection-driven dynamic runs alike.
TEST(ScanKernelDifferential, SimdAndScalarScansProduceIdenticalRuns) {
  for (const char* variant : {"uma", "numa_first_touch"}) {
    const auto workload = make_npb_workload("SP", small_params());
    const MachineConfig config = machine_variant(variant);
    const Mapping mapping = random_mapping(workload->num_threads(),
                                           config.num_cores(), /*seed=*/53);
    ASSERT_TRUE(simd_scan_enabled());  // default on
    const MachineStats simd = run_app(config, *workload, mapping,
                                      /*fast_hierarchy=*/true, /*seed=*/7);
    MachineStats scalar;
    {
      ScopedScalarScan scoped;
      scalar = run_app(config, *workload, mapping,
                       /*fast_hierarchy=*/true, /*seed=*/7);
    }
    EXPECT_TRUE(simd == scalar)
        << variant << ": SoA tag scan changed simulated results (tlb "
        << simd.tlb_hits << "/" << simd.tlb_misses << " vs "
        << scalar.tlb_hits << "/" << scalar.tlb_misses << ", cycles "
        << simd.execution_cycles << " vs " << scalar.execution_cycles << ")";
  }
}

// The HM detector's sweep reads the tag mirrors directly (naive pairwise
// and inverted-index paths both); the communication matrix and the dynamic
// mapping decisions built from it must not notice.
TEST(ScanKernelDifferential, HmSweepMatchesScalarOnDynamicRuns) {
  const auto workload = make_npb_workload("CG", small_params());
  const MachineConfig config = MachineConfig::harpertown();
  const Mapping initial = random_mapping(workload->num_threads(),
                                         config.num_cores(), /*seed=*/59);
  OnlineMapperConfig online;
  online.remap_every_barriers = 2;

  auto run_dynamic = [&] {
    Pipeline pipe(config);
    return pipe.evaluate_dynamic(*workload, initial, online, /*seed=*/9);
  };
  const auto simd = run_dynamic();
  ScopedScalarScan scoped;
  const auto scalar = run_dynamic();
  EXPECT_TRUE(simd.stats == scalar.stats);
  EXPECT_EQ(simd.migrations, scalar.migrations);
  EXPECT_EQ(simd.remap_decisions, scalar.remap_decisions);
  EXPECT_EQ(simd.final_mapping, scalar.final_mapping);
}

// Golden runs for the scheduler. The retired pickers — a linear scan below
// 16 threads and a lazy binary heap above — agreed on every run; these
// counters were recorded with them, and the winner tree must reproduce them
// bit for bit (it is unit-tested against a brute-force scan in
// test_machine.cpp).
TEST(SchedulerGolden, HarpertownAppsMatchRetiredPickers) {
  const struct {
    const char* app;
    const char* counters;
  } cases[] = {
      {"SP", "acc=190464 rd=141312 wr=49152 tlb=190180/284 l1=86784/103680 l2=152832/132608/20224 inv=3840 snoop=3840 wb=2560 mem=16384/16384/0 msg=23296/45056 cyc=548521 ovh=0 search=0"},
      {"CG", "acc=94208 rd=65536 wr=28672 tlb=93994/214 l1=45795/48413 l2=71063/54249/16814 inv=4417 snoop=4462 wb=3679 mem=12352/12352/0 msg=20017/39027 cyc=368664 ovh=0 search=0"},
      {"IS", "acc=126976 rd=98304 wr=28672 tlb=126436/540 l1=45230/81746 l2=85842/54040/31802 inv=2446 snoop=3982 wb=2958 mem=27820/27820/0 msg=33803/65585 cyc=663165 ovh=0 search=0"},
  };
  for (const auto& c : cases) {
    const auto workload = make_npb_workload(c.app, small_params());
    const MachineConfig config = MachineConfig::harpertown();
    const Mapping mapping = random_mapping(workload->num_threads(),
                                           config.num_cores(), /*seed=*/17);
    const MachineStats stats = run_app(config, *workload, mapping,
                                       /*fast_hierarchy=*/true, /*seed=*/3);
    EXPECT_EQ(counters_of(stats), c.counters) << c.app;
  }
}

// The OnlineMapper run the heap picker was differentially tested on: the
// mapper observes every access and is consulted at every barrier release,
// where the tree is rebuilt.
TEST(SchedulerGolden, MigratingOnlineMapperRunMatchesRetiredPickers) {
  const auto workload = make_npb_workload("BT", small_params());
  const MachineConfig config = MachineConfig::harpertown();
  const Mapping initial = identity_mapping(workload->num_threads());
  OnlineMapperConfig online;
  online.remap_every_barriers = 2;

  Machine machine(config);
  OnlineMapper mapper(machine, workload->num_threads(), initial, online);
  Machine::RunConfig run;
  run.thread_to_core = initial;
  run.observer = &mapper;
  run.migration = &mapper;
  const MachineStats stats =
      machine.run(streams_of(*workload, /*seed=*/11), run);
  EXPECT_EQ(counters_of(stats), "acc=137216 rd=88064 wr=49152 tlb=136036/1180 l1=61696/75520 l2=124672/74752/49920 inv=768 snoop=768 wb=0 mem=49152/49152/0 msg=50944/100352 cyc=1066236 ovh=5544 search=0");
}

/// Charges 5 cycles per TLB miss to the issuing thread and stalls every
/// thread for 300 cycles whenever global time passes the next 20,000-cycle
/// mark: the cost shape of the detectors, without their matrices.
class PeriodicStallObserver : public MachineObserver {
 public:
  Cycles on_access(ThreadId, CoreId, VirtAddr, PageNum, AccessType,
                   bool tlb_miss, Cycles) override {
    return tlb_miss ? 5 : 0;
  }
  Cycles on_tick(Cycles now) override {
    if (now < next_stall_) return 0;
    next_stall_ = now + 20000;
    return 300;
  }

 private:
  Cycles next_stall_ = 20000;
};

/// Moves every thread one core over at every second barrier.
class RotatingPolicy : public MigrationPolicy {
 public:
  RotatingPolicy(int threads, int cores) : threads_(threads), cores_(cores) {}

  std::vector<CoreId> on_barrier(int barrier_index, Cycles) override {
    if (barrier_index % 2 != 0) return {};
    std::vector<CoreId> next(static_cast<std::size_t>(threads_));
    for (int t = 0; t < threads_; ++t) {
      next[static_cast<std::size_t>(t)] = (t + barrier_index / 2) % cores_;
    }
    return next;
  }

 private:
  int threads_;
  int cores_;
};

// 256 threads on the 256-L2 mesh through the serial loop: the regime the
// heap picker served, with the multi-word directory underneath. The second
// run adds global stalls, which shift every runnable key of the tree, and
// migrations, which rebuild it.
TEST(SchedulerGolden, Manycore256ThreadSerialRunsMatchRetiredPickers) {
  WorkloadParams params = small_params(256);
  params.size_scale = 0.25;
  params.iter_scale = 0.1;
  const auto workload = make_npb_workload("SP", params);
  const MachineConfig config = MachineConfig::manycore();
  const Mapping mapping = random_mapping(workload->num_threads(),
                                         config.num_cores(), /*seed=*/71);
  const MachineStats plain = run_app(config, *workload, mapping,
                                     /*fast_hierarchy=*/true, /*seed=*/23);
  EXPECT_EQ(counters_of(plain), "acc=1047552 rd=785408 wr=262144 tlb=1041926/5626 l1=490624/556928 l2=819072/262144/556928 inv=16037 snoop=32401 wb=229376 mem=524527/508591/15936 msg=3899648/138165430 cyc=395787 ovh=0 search=0");

  Machine machine(config);
  PeriodicStallObserver observer;
  RotatingPolicy policy(workload->num_threads(), config.num_cores());
  Machine::RunConfig run;
  run.thread_to_core = mapping;
  run.observer = &observer;
  run.migration = &policy;
  const MachineStats stalled =
      machine.run(streams_of(*workload, /*seed=*/23), run);
  EXPECT_EQ(counters_of(stalled), "acc=1047552 rd=785408 wr=262144 tlb=1041926/5626 l1=490624/556928 l2=819072/262144/556928 inv=16037 snoop=32401 wb=229376 mem=524527/508591/15936 msg=3899648/138165430 cyc=403897 ovh=6110 search=0");
}

// Manycore parity: the same contract far past the 64-L2 inline holder word.
// 128 L2s (16x8, fully connected sockets) and 256 L2s (the mesh-priced
// manycore() preset, 32x8 with per-hop extras) must produce bit-identical
// stats with the multi-word directory and the walked broadcast. This is the
// regression test for the old single-word directory's silent fallback.
TEST(ManycoreDifferential, DirectoryMatchesBroadcastPast64L2s) {
  MachineConfig l2_128;
  l2_128.num_sockets = 16;
  l2_128.cores_per_socket = 8;
  l2_128.cores_per_l2 = 1;
  l2_128.l1 = CacheConfig{1024, 64, 2, 2};
  l2_128.l2 = CacheConfig{4096, 64, 4, 8};

  struct Case {
    const char* name;
    MachineConfig machine;
  };
  const Case cases[] = {{"128_flat", l2_128},
                        {"256_mesh", MachineConfig::manycore()}};
  for (const Case& c : cases) {
    WorkloadParams params = small_params(32);
    params.size_scale = 0.25;
    params.iter_scale = 0.1;
    const auto workload = make_npb_workload("SP", params);
    MachineConfig directory_config = c.machine;
    directory_config.coherence_broadcast = false;
    MachineConfig broadcast_config = c.machine;
    broadcast_config.coherence_broadcast = true;
    const Mapping mapping = random_mapping(
        workload->num_threads(), c.machine.num_cores(), /*seed=*/71);

    const MachineStats with_directory =
        run_app(directory_config, *workload, mapping,
                /*fast_hierarchy=*/true, /*seed=*/23);
    const MachineStats with_broadcast =
        run_app(broadcast_config, *workload, mapping,
                /*fast_hierarchy=*/true, /*seed=*/23);
    EXPECT_TRUE(with_directory == with_broadcast)
        << c.name << ": directory and broadcast stats differ (cycles "
        << with_directory.execution_cycles << " vs "
        << with_broadcast.execution_cycles << ", invalidations "
        << with_directory.invalidations << " vs "
        << with_broadcast.invalidations << ", messages "
        << with_directory.intra_socket_messages << "+"
        << with_directory.inter_socket_messages << " vs "
        << with_broadcast.intra_socket_messages << "+"
        << with_broadcast.inter_socket_messages << ")";
  }
}

// The directory stays on and consistent on a 256-L2 machine after a real
// run — the exact scenario the 64-L2 cliff used to silently degrade.
TEST(ManycoreDifferential, DirectoryEnabledAndConsistentAt256L2s) {
  WorkloadParams params = small_params(64);
  params.size_scale = 0.25;
  params.iter_scale = 0.1;
  const auto workload = make_npb_workload("CG", params);
  const MachineConfig config = MachineConfig::manycore();
  Machine machine(config);
  ASSERT_EQ(machine.topology().num_l2(), 256);
  ASSERT_TRUE(machine.hierarchy().coherence().directory_enabled());

  Machine::RunConfig run;
  run.thread_to_core = random_mapping(workload->num_threads(),
                                      config.num_cores(), /*seed=*/83);
  machine.run(streams_of(*workload, /*seed=*/29), run);

  const CoherenceDomain& coherence = machine.hierarchy().coherence();
  EXPECT_TRUE(coherence.directory_consistent());
  EXPECT_GT(coherence.directory_lines(), 0u);
  EXPECT_GT(coherence.directory_stats().holder_hits, 0u);
}

// IS's all-to-all key exchange misses in L2 constantly (about 0.9M misses
// here against under 8k lines left at the end), so most directory entries
// die by eviction or invalidation: the flat table's backward-shift erase
// runs hundreds of thousands of times on 256 L2s before the ground-truth
// check.
TEST(ManycoreDifferential, DirectoryConsistentAfterEraseHeavyIsRunAt256L2s) {
  WorkloadParams params = small_params(64);
  params.size_scale = 0.25;
  params.iter_scale = 0.1;
  const auto workload = make_npb_workload("IS", params);
  const MachineConfig config = MachineConfig::manycore();
  Machine machine(config);
  Machine::RunConfig run;
  run.thread_to_core = random_mapping(workload->num_threads(),
                                      config.num_cores(), /*seed=*/89);
  const MachineStats stats =
      machine.run(streams_of(*workload, /*seed=*/31), run);

  const CoherenceDomain& coherence = machine.hierarchy().coherence();
  EXPECT_TRUE(coherence.directory_consistent());
  EXPECT_GT(stats.invalidations, 0u);
  EXPECT_GT(coherence.directory_stats().holder_visits, 0u);
}

// Ground truth for the directory itself: after an arbitrary run, the holder
// bitmasks must match the L2 contents exactly in both directions — no stale
// bits, no untracked lines. (The sanitize CI job runs this under
// ASan/UBSan.)
TEST(CoherenceDirectoryInvariant, MasksMatchCacheContentsAfterRuns) {
  for (const char* app : {"SP", "UA"}) {
    const auto workload = make_npb_workload(app, small_params());
    const MachineConfig config = MachineConfig::harpertown();
    Machine machine(config);
    ASSERT_TRUE(machine.hierarchy().coherence().directory_enabled());

    Machine::RunConfig run;
    run.thread_to_core = random_mapping(workload->num_threads(),
                                        config.num_cores(), /*seed=*/41);
    machine.run(streams_of(*workload, /*seed=*/13), run);

    const CoherenceDomain& coherence = machine.hierarchy().coherence();
    EXPECT_TRUE(coherence.directory_consistent()) << app;
    EXPECT_GT(coherence.directory_lines(), 0u) << app;
    EXPECT_GT(coherence.directory_stats().probes, 0u) << app;
    EXPECT_GE(coherence.directory_stats().probes,
              coherence.directory_stats().holder_hits)
        << app;

    // flush_caches drops every line; the directory must empty with them.
    machine.hierarchy().flush_caches();
    EXPECT_EQ(coherence.directory_lines(), 0u) << app;
    EXPECT_TRUE(coherence.directory_consistent()) << app;
  }
}

// The epoch-parallel engine composes with every engine fast path tested
// above: on the coherence-bound 256-core manycore preset, workers=8 with
// the full fast-path stack (directory + memo + tag scans) must equal
// workers=1 bit for bit — the acceptance contract of the parallel core
// (test_parallel_machine.cpp holds the rest of it).
TEST(ManycoreDifferential, EpochEngineWorkers8MatchWorkers1At256Cores) {
  WorkloadParams params = small_params(64);
  params.size_scale = 0.25;
  params.iter_scale = 0.1;
  const auto workload = make_npb_workload("SP", params);
  const MachineConfig config = MachineConfig::manycore();
  ASSERT_EQ(config.num_cores(), 256);
  const Mapping mapping = random_mapping(workload->num_threads(),
                                         config.num_cores(), /*seed=*/71);

  auto run_parallel = [&](int workers) {
    Machine machine(config);
    Machine::RunConfig run;
    run.thread_to_core = mapping;
    run.machine_workers = workers;
    return machine.run(streams_of(*workload, /*seed=*/23), run);
  };
  const MachineStats reference = run_parallel(1);
  const MachineStats parallel = run_parallel(8);
  EXPECT_GT(reference.snoop_transactions, 0u);
  EXPECT_TRUE(parallel == reference)
      << "epoch engine: workers=8 diverged from workers=1 (cycles "
      << parallel.execution_cycles << " vs " << reference.execution_cycles
      << ", invalidations " << parallel.invalidations << " vs "
      << reference.invalidations << ")";
}

// Opting out via MachineConfig::coherence_broadcast leaves the directory
// dark: no entries, no stats, consistency trivially true.
TEST(CoherenceDirectoryInvariant, BroadcastModeKeepsDirectoryEmpty) {
  const auto workload = make_npb_workload("CG", small_params());
  MachineConfig config = MachineConfig::harpertown();
  config.coherence_broadcast = true;
  Machine machine(config);
  EXPECT_FALSE(machine.hierarchy().coherence().directory_enabled());

  Machine::RunConfig run;
  run.thread_to_core = identity_mapping(workload->num_threads());
  machine.run(streams_of(*workload, /*seed=*/19), run);

  const CoherenceDomain& coherence = machine.hierarchy().coherence();
  EXPECT_EQ(coherence.directory_lines(), 0u);
  EXPECT_EQ(coherence.directory_stats().probes, 0u);
  EXPECT_TRUE(coherence.directory_consistent());
}

}  // namespace
}  // namespace tlbmap
