// Epoch-parallel simulator core (DESIGN.md Sec. 15): the engine behind
// Machine::RunConfig::machine_workers.
//
// The serial reference loop in machine.cpp advances one global event at a
// time, which caps a 256-core coherence-bound run at single-thread speed.
// This engine shards the event loop by L2 domain — every core, private L1,
// TLB and the shared L2 of one domain belong to exactly one shard, and so
// do the threads pinned to those cores. Shards advance concurrently in
// bounded *epochs* (at most RunConfig::epoch_events issued events per shard
// per epoch) against a frozen epoch-start view of all remote caches:
//
//   - Reads and writes hit the shard's own TLBs/L1s/L2 live, exactly as in
//     the serial loop.
//   - Cross-domain coherence (cache-to-cache transfers, downgrades,
//     ownership invalidations) is *priced and counted at issue time* from
//     the frozen view, and the remote mutations are queued as per-victim
//     ops. The frozen view is a flat line table (sim/line_table.hpp) whose
//     row per line is two holder rows: the L2s holding it, and the subset
//     holding it Modified. Workers only read it; the commit updates it in
//     place, without allocating per line.
//   - First touches of unmapped pages yield the thread for the rest of its
//     epoch and queue a page claim instead of allocating (frame numbers
//     feed cache-set indices, so allocation order is simulated semantics).
//
// At the epoch commit the coordinator (a) applies the queued ops, fanned
// out by victim domain — the per-(line, victim) outcome is order-
// independent: invalidation beats downgrade and both are residency-checked
// no-ops when the victim already evicted the line; (b) reconciles the
// frozen view from the touched (domain, line) pairs; (c) grants page
// claims in canonical (clock, thread-id) order; (d) releases barriers and
// runs the MigrationPolicy exactly like the serial loop.
//
// Every shard's epoch work is therefore a pure function of the epoch-start
// global state and its own threads, and the commit is a canonical serial
// reduction — so the result is bit-identical for every worker count, and
// `machine_workers = 1` *is* the deterministic serial reference of this
// semantics. The epoch model is deliberately weaker than the serial loop's
// per-event global interleaving (two domains can each believe they won the
// same line within one epoch); epoch_events bounds that staleness and is
// part of the simulated semantics.
//
// Not supported here: MachineObserver hooks (detection runs use the serial
// loop) and trace streams that share hidden mutable state across threads
// (the NPB/synthetic generators are independent per thread).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/expected.hpp"
#include "obs/obs.hpp"
#include "sim/holder_set.hpp"
#include "sim/line_table.hpp"
#include "sim/machine.hpp"
#include "sim/page_table.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace tlbmap {

class WorkerPool;

class EpochEngine {
 public:
  /// Entered from Machine::try_run with the placement validated and
  /// applied (thread_on_core_ filled) and flush_first already honoured.
  EpochEngine(Machine& machine, const Machine::RunConfig& config,
              std::vector<std::unique_ptr<ThreadStream>>& streams);

  Expected<MachineStats> run();

 private:
  /// Engine-private copy of MemoryHierarchy's translation memo. The engine
  /// mutates per-core TLBs itself, so it must own the "nothing touched
  /// this TLB since the core's last access" bookkeeping too.
  struct Memo {
    PageNum page = 0;
    PhysAddr frame_base = 0;
    Cycles memory_latency = 0;
    bool remote_home = false;
    bool valid = false;
  };

  struct ThreadCtx {
    ThreadStream* stream = nullptr;
    Cycles clock = 0;
    bool at_barrier = false;
    bool done = false;
    /// Yielded on an unmapped page this epoch; cleared when the commit
    /// grants the claims.
    bool waiting_fault = false;
    /// The yielded access is re-issued (not re-pulled) next epoch.
    bool has_pending = false;
    TraceEvent pending{};
  };

  /// Queued mutation of a remote L2, applied at the commit.
  struct RemoteOp {
    LineAddr line = 0;
    bool invalidate = false;  ///< false = downgrade to Shared
  };

  /// First touch of an unmapped page, granted at the commit in canonical
  /// (clock, tid) order.
  struct PageClaim {
    Cycles clock = 0;
    ThreadId tid = 0;
    PageNum page = 0;
    int home = 0;
  };

  struct Shard {
    L2Id domain = 0;
    std::vector<ThreadId> threads;  ///< ascending (the scan's tie-break)
    MachineStats stats;
    CoherenceDomain::DirectoryStats dir_stats;
    /// ops_by_victim[v] = this shard's queued mutations of domain v this
    /// epoch. Allocated lazily on first use; only buckets named in
    /// dirty_victims are non-empty between commits.
    std::vector<std::vector<RemoteOp>> ops_by_victim;
    std::vector<L2Id> dirty_victims;
    /// Own-domain lines whose residency or MESI state changed this epoch.
    std::vector<LineAddr> touched;
    std::vector<PageClaim> claims;
    /// Fast (non-deterministic) mode only: shard-local mirror of page
    /// table entries, so epoch execution never reads the global table
    /// outside the allocation lock.
    std::unordered_map<PageNum, PageTable::Entry> page_cache;
    std::uint64_t epoch_events = 0;
    std::uint64_t total_events = 0;
  };

  void run_shard_epoch(Shard& shard);
  /// False when the thread yielded on an unmapped page (claim queued).
  bool execute_access(Shard& shard, ThreadId tid, ThreadCtx& thread,
                      const TraceEvent& ev);
  Cycles domain_read(Shard& shard, LineAddr line, Cycles memory_latency,
                     bool remote_home);
  Cycles domain_write(Shard& shard, LineAddr line, Cycles memory_latency,
                      bool remote_home);
  void local_insert(Shard& shard, LineAddr line, MesiState state);
  void drop_domain_l1s(L2Id domain, LineAddr line);
  void queue_op(Shard& shard, L2Id victim, LineAddr line, bool invalidate);

  /// tlbmap::nearest_holder over a frozen row, as a checked L2 id.
  L2Id nearest_holder(L2Id me, const std::uint64_t* holders) const;

  void apply_victim_ops(L2Id victim);
  void reconcile(L2Id domain, std::vector<LineAddr>& lines);
  void commit_claims();
  bool release_barrier_if_ready();
  void apply_migration(const std::vector<CoreId>& next);
  void reshard();
  /// Restores shared machine state for whoever runs next (serial or
  /// parallel): live directory rebuilt from cache contents, hierarchy
  /// memos dropped, per-shard directory bookkeeping folded in. Called on
  /// every exit path.
  void finish_state();

  Machine* machine_;
  const Machine::RunConfig* config_;
  MemoryHierarchy* hierarchy_;
  const Topology* topology_;
  Interconnect* interconnect_;
  CoherenceDomain* coherence_;
  PageTable* page_table_;

  int page_shift_ = 0;
  VirtAddr page_offset_mask_ = 0;
  int line_shift_ = 0;
  int num_threads_ = 0;
  int num_domains_ = 0;
  Cycles l1_latency_ = 0;
  Cycles l2_latency_ = 0;
  Cycles miss_penalty_ = 0;
  Cycles base_memory_latency_ = 0;
  Cycles remote_extra_ = 0;
  bool numa_ = false;
  bool interleave_ = false;
  bool directory_enabled_ = false;

  std::vector<ThreadCtx> threads_;
  std::vector<CoreId> placement_;
  std::vector<Memo> memos_;            ///< per core
  std::vector<Shard> shards_;          ///< one per L2 domain
  std::vector<std::size_t> active_shards_;  ///< domains with threads
  std::uint32_t words_ = 0;  ///< holder_words(num_domains_)
  /// Row d = the L2s on d's socket (row-major, words_ per row).
  std::vector<std::uint64_t> socket_mask_;
  /// Epoch-start residency: line -> [holders | modified], words_ each.
  LineTable frozen_;
  std::vector<std::vector<LineAddr>> commit_touched_;  ///< per victim
  std::vector<char> victim_dirty_;          ///< commit scratch
  std::vector<L2Id> victims_scratch_;
  std::vector<PageClaim> claims_scratch_;
  std::mutex page_mutex_;  ///< fast mode first-touch allocation

  int live_ = 0;
  int barrier_count_ = 0;
  CoherenceDomain::DirectoryStats dir_sum_;
  std::uint64_t events_total_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t stall_epochs_ = 0;
  std::optional<Error> fatal_;
};

}  // namespace tlbmap
