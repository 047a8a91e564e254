#include "sim/parallel_machine.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "core/shutdown.hpp"
#include "core/worker_pool.hpp"

namespace tlbmap {

Expected<MachineStats> Machine::try_run_epoch(
    std::vector<std::unique_ptr<ThreadStream>>& streams,
    const RunConfig& config) {
  EpochEngine engine(*this, config, streams);
  return engine.run();
}

EpochEngine::EpochEngine(Machine& machine, const Machine::RunConfig& config,
                         std::vector<std::unique_ptr<ThreadStream>>& streams)
    : machine_(&machine),
      config_(&config),
      hierarchy_(&machine.hierarchy()),
      topology_(&machine.topology()),
      interconnect_(&machine.hierarchy().interconnect()),
      coherence_(&machine.hierarchy().coherence()),
      page_table_(&machine.hierarchy().page_table()),
      words_(holder_words(machine.topology().num_l2())),
      frozen_(2 * words_) {
  const MachineConfig& mc = hierarchy_->config();
  page_shift_ = mc.page_shift();
  page_offset_mask_ = (VirtAddr{1} << page_shift_) - 1;
  for (std::size_t v = mc.l1.line_size; v > 1; v >>= 1) ++line_shift_;
  num_threads_ = static_cast<int>(streams.size());
  num_domains_ = topology_->num_l2();
  l1_latency_ = mc.l1.latency;
  l2_latency_ = mc.l2.latency;
  miss_penalty_ = mc.tlb.miss_penalty;
  base_memory_latency_ = mc.interconnect.memory_latency;
  remote_extra_ = mc.interconnect.memory_remote_extra;
  numa_ = mc.numa;
  interleave_ = mc.numa_policy == NumaPolicy::kInterleave;
  directory_enabled_ = coherence_->directory_enabled();

  threads_.resize(streams.size());
  for (std::size_t t = 0; t < streams.size(); ++t) {
    threads_[t].stream = streams[t].get();
  }
  live_ = num_threads_;
  placement_ = config.thread_to_core;
  memos_.resize(static_cast<std::size_t>(topology_->num_cores()));
  shards_.resize(static_cast<std::size_t>(num_domains_));
  for (int d = 0; d < num_domains_; ++d) {
    shards_[static_cast<std::size_t>(d)].domain = d;
  }
  commit_touched_.resize(static_cast<std::size_t>(num_domains_));
  victim_dirty_.assign(static_cast<std::size_t>(num_domains_), 0);
  // The frozen-view probe needs the nearest-holder partition in broadcast
  // mode too, so the engine builds its own copy instead of borrowing the
  // directory's.
  socket_mask_ = socket_mask_rows(*topology_);
  reshard();
  // Epoch-start view from the actual cache contents — non-empty when the
  // run was configured with flush_first off.
  for (int id = 0; id < num_domains_; ++id) {
    coherence_->l2(id).for_each_line([&](const CacheLine& cl) {
      std::uint64_t* f = frozen_.find_or_insert(cl.addr);
      set_holder(f, id);
      if (cl.state == MesiState::kModified) set_holder(f + words_, id);
    });
  }
}

void EpochEngine::reshard() {
  for (Shard& s : shards_) s.threads.clear();
  for (ThreadId t = 0; t < num_threads_; ++t) {
    const L2Id d =
        topology_->l2_of(placement_[static_cast<std::size_t>(t)]);
    // Ascending thread ids per shard: the epoch scheduler's scan order is
    // the serial loop's lowest-id tie-break.
    shards_[static_cast<std::size_t>(d)].threads.push_back(t);
  }
  active_shards_.clear();
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    if (!shards_[d].threads.empty()) active_shards_.push_back(d);
  }
}

L2Id EpochEngine::nearest_holder(L2Id me,
                                 const std::uint64_t* holders) const {
  const int pick = tlbmap::nearest_holder(
      holders, &socket_mask_[static_cast<std::size_t>(me) * words_], words_,
      me);
  if (pick == -1) return -1;
  return checked_l2id(static_cast<std::size_t>(pick),
                      static_cast<std::size_t>(num_domains_));
}

void EpochEngine::drop_domain_l1s(L2Id domain, LineAddr line) {
  const CoreId first = domain * topology_->cores_per_l2();
  for (CoreId core = first; core < first + topology_->cores_per_l2();
       ++core) {
    hierarchy_->l1(core).invalidate(line);
  }
}

void EpochEngine::queue_op(Shard& s, L2Id victim, LineAddr line,
                           bool invalidate) {
  if (s.ops_by_victim.empty()) {
    s.ops_by_victim.resize(static_cast<std::size_t>(num_domains_));
  }
  std::vector<RemoteOp>& bucket =
      s.ops_by_victim[static_cast<std::size_t>(victim)];
  if (bucket.empty()) s.dirty_victims.push_back(victim);
  bucket.push_back(RemoteOp{line, invalidate});
}

void EpochEngine::local_insert(Shard& s, LineAddr line, MesiState state) {
  const auto evicted = coherence_->l2(s.domain).insert(line, state);
  s.touched.push_back(line);
  if (evicted.has_value()) {
    if (evicted->state == MesiState::kModified) ++s.stats.writebacks;
    drop_domain_l1s(s.domain, evicted->addr);
    s.touched.push_back(evicted->addr);
  }
}

Cycles EpochEngine::domain_read(Shard& s, LineAddr line,
                                Cycles memory_latency, bool remote_home) {
  MachineStats& st = s.stats;
  ++st.l2_accesses;
  if (coherence_->l2(s.domain).find(line) != nullptr) {
    ++st.l2_hits;
    return l2_latency_;
  }
  ++st.l2_misses;
  Cycles latency = l2_latency_;
  interconnect_->record_probe_broadcast(s.domain, st);
  if (directory_enabled_) ++s.dir_stats.probes;
  const std::uint64_t* frozen = frozen_.find(line);
  const L2Id holder = frozen != nullptr ? nearest_holder(s.domain, frozen) : -1;
  if (holder != -1) {
    if (directory_enabled_) ++s.dir_stats.holder_hits;
    // Costed from the epoch-start view: a modified frozen holder pays the
    // writeback here even if its own epoch already downgraded the line.
    if (test_holder(frozen + words_, holder)) ++st.writebacks;
    ++st.snoop_transactions;
    latency += interconnect_->transfer(holder, s.domain, st);
    queue_op(s, holder, line, /*invalidate=*/false);
    local_insert(s, line, MesiState::kShared);
  } else {
    ++st.memory_fetches;
    if (remote_home) {
      ++st.memory_fetches_remote;
    } else {
      ++st.memory_fetches_local;
    }
    latency += memory_latency;
    local_insert(s, line, MesiState::kExclusive);
  }
  return latency;
}

Cycles EpochEngine::domain_write(Shard& s, LineAddr line,
                                 Cycles memory_latency, bool remote_home) {
  MachineStats& st = s.stats;
  ++st.l2_accesses;
  if (CacheLine* held = coherence_->l2(s.domain).find(line)) {
    ++st.l2_hits;
    switch (held->state) {
      case MesiState::kModified:
        return 1;
      case MesiState::kExclusive:
        held->state = MesiState::kModified;
        s.touched.push_back(line);
        return 1;
      case MesiState::kShared: {
        // Ownership upgrade against the frozen holder set.
        Cycles worst = 0;
        if (const std::uint64_t* frozen = frozen_.find(line)) {
          for_each_excluding(frozen, words_, s.domain, [&](int b) {
            const L2Id other =
                checked_l2id(static_cast<std::size_t>(b),
                             static_cast<std::size_t>(num_domains_));
            if (directory_enabled_) ++s.dir_stats.holder_visits;
            ++st.invalidations;
            worst = std::max(worst,
                             interconnect_->invalidate(s.domain, other, st));
            queue_op(s, other, line, /*invalidate=*/true);
          });
        }
        held->state = MesiState::kModified;
        s.touched.push_back(line);
        return 1 + worst;
      }
      case MesiState::kInvalid:
        break;  // unreachable: find() only returns valid lines
    }
  }
  // Write miss: read-for-ownership against the frozen holder set; data
  // comes from the nearest frozen holder when one exists.
  ++st.l2_misses;
  Cycles latency = 1;
  interconnect_->record_probe_broadcast(s.domain, st);
  if (directory_enabled_) ++s.dir_stats.probes;
  const std::uint64_t* frozen = frozen_.find(line);
  const L2Id source = frozen != nullptr ? nearest_holder(s.domain, frozen) : -1;
  if (source != -1) {
    if (directory_enabled_) ++s.dir_stats.holder_hits;
    Cycles worst = 0;
    for_each_excluding(frozen, words_, s.domain, [&](int b) {
      const L2Id other = checked_l2id(static_cast<std::size_t>(b),
                                      static_cast<std::size_t>(num_domains_));
      if (directory_enabled_) ++s.dir_stats.holder_visits;
      ++st.invalidations;
      if (test_holder(frozen + words_, other)) ++st.writebacks;
      queue_op(s, other, line, /*invalidate=*/true);
      if (other == source) {
        ++st.snoop_transactions;
        worst = std::max(worst, interconnect_->transfer(other, s.domain, st));
      } else {
        worst = std::max(worst, interconnect_->invalidate(s.domain, other, st));
      }
    });
    latency += worst;
  } else {
    ++st.memory_fetches;
    if (remote_home) {
      ++st.memory_fetches_remote;
    } else {
      ++st.memory_fetches_local;
    }
    latency += memory_latency;
  }
  local_insert(s, line, MesiState::kModified);
  return latency;
}

bool EpochEngine::execute_access(Shard& s, ThreadId tid, ThreadCtx& t,
                                 const TraceEvent& ev) {
  const CoreId core = placement_[static_cast<std::size_t>(tid)];
  const VirtAddr addr = ev.access.addr;
  const PageNum page = addr >> page_shift_;
  Memo& memo = memos_[static_cast<std::size_t>(core)];
  const bool memo_hit = memo.valid && memo.page == page;
  PageTable::Entry entry{};
  if (!memo_hit) {
    if (config_->deterministic) {
      // Epochs only read the shared page table; a first touch yields the
      // thread and the commit grants all claims in (clock, tid) order, so
      // frame numbers — and the cache-set conflicts they cause — are
      // independent of worker scheduling.
      const PageTable::Entry* found = page_table_->find(page);
      if (found == nullptr) {
        const int home =
            interleave_
                ? static_cast<int>(
                      page % static_cast<PageNum>(topology_->num_sockets()))
                : topology_->socket_of(core);
        s.claims.push_back(PageClaim{t.clock, tid, page, home});
        return false;
      }
      entry = *found;
    } else {
      // Fast mode: allocate on the spot under a lock. The shard-local
      // mirror keeps every later translation of the page off the shared
      // table, whose buckets may be rehashed by other shards' allocations.
      const auto it = s.page_cache.find(page);
      if (it != s.page_cache.end()) {
        entry = it->second;
      } else {
        const int home =
            interleave_
                ? static_cast<int>(
                      page % static_cast<PageNum>(topology_->num_sockets()))
                : topology_->socket_of(core);
        {
          const std::lock_guard<std::mutex> lock(page_mutex_);
          page_table_->frame_of(page, home);
          entry = *page_table_->find(page);
        }
        s.page_cache.emplace(page, entry);
      }
    }
  }

  MachineStats& st = s.stats;
  ++st.accesses;
  const bool is_read = ev.access.type == AccessType::kRead;
  if (is_read) {
    ++st.reads;
  } else {
    ++st.writes;
  }

  Cycles latency = 0;
  PhysAddr phys;
  Cycles memory_latency;
  bool remote_home;
  if (memo_hit) {
    ++st.tlb_hits;
    phys = memo.frame_base | (addr & page_offset_mask_);
    memory_latency = memo.memory_latency;
    remote_home = memo.remote_home;
  } else {
    Tlb& tlb = hierarchy_->tlb(core);
    if (tlb.lookup(page)) {
      ++st.tlb_hits;
    } else {
      ++st.tlb_misses;
      tlb.insert(page);
      latency += miss_penalty_;
    }
    const PhysAddr frame_base = entry.frame << page_shift_;
    phys = frame_base | (addr & page_offset_mask_);
    memory_latency = base_memory_latency_;
    remote_home = numa_ && entry.home_node != topology_->socket_of(core);
    if (remote_home) memory_latency += remote_extra_;
    memo = Memo{page, frame_base, memory_latency, remote_home, true};
  }
  const LineAddr line = phys >> line_shift_;

  Cache& l1 = hierarchy_->l1(core);
  if (is_read) {
    if (l1.find(line) != nullptr) {
      ++st.l1_hits;
      latency += l1_latency_;
    } else {
      ++st.l1_misses;
      latency +=
          l1_latency_ + domain_read(s, line, memory_latency, remote_home);
      l1.insert(line, MesiState::kShared);  // write-through L1: never dirty
    }
  } else {
    if (l1.find(line) != nullptr) {
      ++st.l1_hits;
    } else {
      ++st.l1_misses;
    }
    // Sibling L1 shootdown within the shard's own domain (the inclusive-L1
    // guard of the serial fast path is always on here).
    if (coherence_->l2(s.domain).peek(line) != nullptr) {
      const CoreId first = s.domain * topology_->cores_per_l2();
      for (CoreId sibling = first;
           sibling < first + topology_->cores_per_l2(); ++sibling) {
        if (sibling != core) hierarchy_->l1(sibling).invalidate(line);
      }
    }
    latency += domain_write(s, line, memory_latency, remote_home);
  }
  t.clock += ev.access.compute_gap + latency;
  return true;
}

void EpochEngine::run_shard_epoch(Shard& s) {
  s.epoch_events = 0;
  while (s.epoch_events < config_->epoch_events) {
    // Runnable thread with the smallest clock, lowest id on ties — the
    // serial scheduler restricted to this shard's threads.
    ThreadId pick = kNoThread;
    for (const ThreadId tid : s.threads) {
      const ThreadCtx& t = threads_[static_cast<std::size_t>(tid)];
      if (t.done || t.at_barrier || t.waiting_fault) continue;
      if (pick == kNoThread ||
          t.clock < threads_[static_cast<std::size_t>(pick)].clock) {
        pick = tid;
      }
    }
    if (pick == kNoThread) break;
    ThreadCtx& t = threads_[static_cast<std::size_t>(pick)];
    TraceEvent ev;
    if (t.has_pending) {
      ev = t.pending;
      t.has_pending = false;
    } else {
      ev = t.stream->next();
    }
    switch (ev.kind) {
      case TraceEvent::Kind::kAccess:
        if (!execute_access(s, pick, t, ev)) {
          // Unmapped page: park the event and the thread until the commit
          // grants the claim. The attempt is not an issued event.
          t.pending = ev;
          t.has_pending = true;
          t.waiting_fault = true;
          continue;
        }
        break;
      case TraceEvent::Kind::kBarrier:
        t.at_barrier = true;
        break;
      case TraceEvent::Kind::kEnd:
        t.done = true;
        break;
    }
    ++s.epoch_events;
  }
  s.total_events += s.epoch_events;
}

void EpochEngine::apply_victim_ops(L2Id victim) {
  std::vector<LineAddr>& touched =
      commit_touched_[static_cast<std::size_t>(victim)];
  touched.clear();
  Cache& cache = coherence_->l2(victim);
  // Shard order is fixed, and the per-(line, victim) outcome is order-
  // independent anyway: invalidation beats downgrade, both no-op once the
  // victim no longer holds the line. No stats here — they were counted at
  // issue time from the frozen view.
  for (const std::size_t idx : active_shards_) {
    const Shard& s = shards_[idx];
    if (s.ops_by_victim.empty()) continue;
    for (const RemoteOp& op :
         s.ops_by_victim[static_cast<std::size_t>(victim)]) {
      if (op.invalidate) {
        if (cache.invalidate(op.line).has_value()) {
          drop_domain_l1s(victim, op.line);
          touched.push_back(op.line);
        }
      } else if (CacheLine* held = cache.peek_mutable(op.line)) {
        if (held->state != MesiState::kShared) {
          held->state = MesiState::kShared;
          touched.push_back(op.line);
        }
      }
    }
  }
}

void EpochEngine::reconcile(L2Id domain, std::vector<LineAddr>& lines) {
  const Cache& cache =
      static_cast<const CoherenceDomain*>(coherence_)->l2(domain);
  for (const LineAddr line : lines) {
    const CacheLine* held = cache.peek(line);
    if (held == nullptr) {
      std::uint64_t* f = frozen_.find(line);
      if (f == nullptr) continue;
      reset_holder(f, domain);
      reset_holder(f + words_, domain);
      if (no_holders(f, words_)) frozen_.erase(line);
      continue;
    }
    std::uint64_t* f = frozen_.find_or_insert(line);
    set_holder(f, domain);
    if (held->state == MesiState::kModified) {
      set_holder(f + words_, domain);
    } else {
      reset_holder(f + words_, domain);
    }
  }
  lines.clear();
}

void EpochEngine::commit_claims() {
  claims_scratch_.clear();
  for (const std::size_t idx : active_shards_) {
    Shard& s = shards_[idx];
    claims_scratch_.insert(claims_scratch_.end(), s.claims.begin(),
                           s.claims.end());
    s.claims.clear();
  }
  if (claims_scratch_.empty()) return;
  // Canonical first-touch order: the thread that would have touched the
  // page first in simulated time homes it (ties cannot happen — a thread
  // yields at most once per epoch).
  std::sort(claims_scratch_.begin(), claims_scratch_.end(),
            [](const PageClaim& a, const PageClaim& b) {
              return a.clock != b.clock ? a.clock < b.clock : a.tid < b.tid;
            });
  for (const PageClaim& claim : claims_scratch_) {
    page_table_->frame_of(claim.page, claim.home);  // losers keep winner's home
  }
  for (ThreadCtx& t : threads_) t.waiting_fault = false;
}

void EpochEngine::apply_migration(const std::vector<CoreId>& next) {
  if (next.empty()) return;
  bool valid = next.size() == placement_.size();
  if (valid) {
    std::vector<bool> used(static_cast<std::size_t>(topology_->num_cores()),
                           false);
    for (const CoreId core : next) {
      if (core < 0 || core >= topology_->num_cores() ||
          used[static_cast<std::size_t>(core)]) {
        valid = false;
        break;
      }
      used[static_cast<std::size_t>(core)] = true;
    }
  }
  if (!valid) {
    if (config_->strict_migrations) {
      fatal_ = Error{ErrorCode::kInvalidMapping,
                     next.size() == placement_.size()
                         ? "MigrationPolicy: invalid mapping"
                         : "MigrationPolicy: wrong mapping size"};
      return;
    }
    if (obs::Tracer* tracer =
            obs::tracer_at(config_->obs, obs::ObsLevel::kFull)) {
      tracer->record_instant("machine.migration_rejected", "sim", "");
    }
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(config_->obs, obs::ObsLevel::kPhases)) {
      metrics->counter("machine.rejected_migrations").add(1);
    }
    return;
  }
  std::fill(machine_->thread_on_core_.begin(), machine_->thread_on_core_.end(),
            kNoThread);
  int moved = 0;
  for (ThreadId t = 0; t < num_threads_; ++t) {
    const CoreId core = next[static_cast<std::size_t>(t)];
    machine_->thread_on_core_[static_cast<std::size_t>(core)] = t;
    if (core != placement_[static_cast<std::size_t>(t)] &&
        !threads_[static_cast<std::size_t>(t)].done) {
      threads_[static_cast<std::size_t>(t)].clock += config_->migration_cost;
      ++moved;
    }
  }
  placement_ = next;
  // Threads may have crossed domains; rebuild shard ownership. A thread's
  // in-flight state (pending access, fault wait) travels with it.
  reshard();
  if (moved > 0) {
    if (obs::Tracer* tracer =
            obs::tracer_at(config_->obs, obs::ObsLevel::kFull)) {
      std::ostringstream args;
      args << "\"threads_moved\":" << moved;
      tracer->record_instant("machine.migrate", "sim", args.str());
    }
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(config_->obs, obs::ObsLevel::kPhases)) {
      metrics->counter("machine.thread_migrations")
          .add(static_cast<std::uint64_t>(moved));
    }
  }
}

bool EpochEngine::release_barrier_if_ready() {
  int waiting = 0;
  Cycles latest = 0;
  for (const ThreadCtx& t : threads_) {
    if (t.done) continue;
    if (!t.at_barrier) return false;
    ++waiting;
    latest = std::max(latest, t.clock);
  }
  if (waiting == 0) return false;
  for (ThreadCtx& t : threads_) {
    if (t.done) continue;
    t.at_barrier = false;
    t.clock = latest + config_->barrier_latency;
  }
  ++barrier_count_;
  if (obs::Tracer* tracer =
          obs::tracer_at(config_->obs, obs::ObsLevel::kFull)) {
    std::ostringstream args;
    args << "\"barrier\":" << barrier_count_ << ",\"sim_cycles\":" << latest;
    tracer->record_instant("machine.barrier", "sim", args.str());
  }
  if (config_->migration != nullptr) {
    apply_migration(config_->migration->on_barrier(
        barrier_count_, latest + config_->barrier_latency));
  }
  return true;
}

void EpochEngine::finish_state() {
  for (const Shard& s : shards_) {
    dir_sum_.probes += s.dir_stats.probes;
    dir_sum_.holder_hits += s.dir_stats.holder_hits;
    dir_sum_.holder_visits += s.dir_stats.holder_visits;
  }
  coherence_->add_directory_stats(dir_sum_);
  // The frozen view is dead from here on: free it before the rebuild below
  // grows the directory, so the two tables never peak together.
  frozen_ = LineTable(2 * words_);
  // The live directory was bypassed the whole run; rebuild it from the
  // caches the engine left behind so a subsequent serial run (and
  // directory_consistent()) sees reality.
  coherence_->rebuild_directory();
  hierarchy_->invalidate_memos();
}

Expected<MachineStats> EpochEngine::run() {
  const Machine::RunConfig& config = *config_;
  if (config.observer != nullptr) {
    return Error{ErrorCode::kInvalidArgument,
                 "Machine::run: machine_workers does not support observers; "
                 "detection runs use the serial loop (machine_workers = 0)"};
  }
  if (config.epoch_events == 0) {
    return Error{ErrorCode::kInvalidArgument,
                 "Machine::run: epoch_events must be >= 1"};
  }
  std::unique_ptr<WorkerPool> owned_pool;
  WorkerPool* pool = config.pool;
  if (pool == nullptr) {
    owned_pool = std::make_unique<WorkerPool>(config.machine_workers);
    pool = owned_pool.get();
  }

  obs::TraceSpan run_span(obs::tracer_at(config.obs, obs::ObsLevel::kPhases),
                          "machine.run", "sim");
  const std::uint64_t watchdog_budget =
      hierarchy_->config().watchdog_max_events;

  obs::MetricsRegistry* interval_metrics =
      config.metrics_interval_events != 0
          ? obs::metrics_at(config.obs, obs::ObsLevel::kPhases)
          : nullptr;
  obs::Gauge* events_gauge = nullptr;
  obs::Gauge* accesses_gauge = nullptr;
  obs::Gauge* sim_cycles_gauge = nullptr;
  if (interval_metrics != nullptr) {
    events_gauge = &interval_metrics->gauge("machine.events_issued");
    accesses_gauge = &interval_metrics->gauge("machine.accesses");
    sim_cycles_gauge = &interval_metrics->gauge("machine.sim_cycles");
  }
  std::uint64_t last_bucket = 0;
  const auto total_accesses = [&] {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.stats.accesses;
    return total;
  };
  const auto max_clock = [&] {
    Cycles finish = 0;
    for (const ThreadCtx& t : threads_) finish = std::max(finish, t.clock);
    return finish;
  };
  const auto publish_progress = [&](Cycles sim_now) {
    events_gauge->set(static_cast<double>(events_total_));
    accesses_gauge->set(static_cast<double>(total_accesses()));
    sim_cycles_gauge->set(static_cast<double>(sim_now));
  };
  obs::Histogram* epoch_hist = nullptr;
  if (obs::MetricsRegistry* metrics =
          obs::metrics_at(config.obs, obs::ObsLevel::kPhases)) {
    epoch_hist = &metrics->histogram("machine.epoch_events");
  }

  const auto epoch_task = [this](std::size_t i) {
    run_shard_epoch(shards_[active_shards_[i]]);
  };
  const auto victim_task = [this](std::size_t i) {
    apply_victim_ops(victims_scratch_[i]);
  };

  while (live_ > 0) {
    // Per-epoch shutdown poll: SIGTERM latency is bounded by one epoch of
    // simulated work, independent of how events happen to align.
    if (shutdown_requested()) {
      finish_state();
      return Error{ErrorCode::kInterrupted,
                   "Machine::run: stopped by shutdown request after " +
                       std::to_string(events_total_) + " events"};
    }
    if (watchdog_budget != 0 && events_total_ >= watchdog_budget) {
      std::ostringstream msg;
      msg << "Machine::run: watchdog tripped after " << events_total_
          << " events (budget " << watchdog_budget << ")";
      if (obs::MetricsRegistry* metrics =
              obs::metrics_at(config.obs, obs::ObsLevel::kPhases)) {
        metrics->counter("machine.watchdog_trips").add(1);
      }
      finish_state();
      return Error{ErrorCode::kWatchdogTimeout, msg.str()};
    }

    // ---- Parallel phase: every populated shard advances one epoch
    // against the frozen remote view. ----
    pool->run(active_shards_.size(), epoch_task);
    ++epochs_;
    std::uint64_t epoch_events = 0;
    std::size_t epoch_claims = 0;
    for (const std::size_t idx : active_shards_) {
      const Shard& s = shards_[idx];
      epoch_events += s.epoch_events;
      epoch_claims += s.claims.size();
      if (s.epoch_events == 0) {
        for (const ThreadId tid : s.threads) {
          if (!threads_[static_cast<std::size_t>(tid)].done) {
            ++stall_epochs_;
            break;
          }
        }
      }
    }
    events_total_ += epoch_events;

    // ---- Commit A: queued cross-domain ops, fanned out by victim
    // domain (disjoint state per victim, so this phase parallelises). ----
    victims_scratch_.clear();
    for (const std::size_t idx : active_shards_) {
      for (const L2Id v : shards_[idx].dirty_victims) {
        if (victim_dirty_[static_cast<std::size_t>(v)] == 0) {
          victim_dirty_[static_cast<std::size_t>(v)] = 1;
          victims_scratch_.push_back(v);
        }
      }
    }
    pool->run(victims_scratch_.size(), victim_task);

    // ---- Commit B: reconcile the frozen view from every touched
    // (domain, line) pair; drain the epoch's queues. ----
    for (const std::size_t idx : active_shards_) {
      Shard& s = shards_[idx];
      reconcile(s.domain, s.touched);
      for (const L2Id v : s.dirty_victims) {
        s.ops_by_victim[static_cast<std::size_t>(v)].clear();
      }
      s.dirty_victims.clear();
    }
    for (const L2Id v : victims_scratch_) {
      reconcile(v, commit_touched_[static_cast<std::size_t>(v)]);
      victim_dirty_[static_cast<std::size_t>(v)] = 0;
    }

    commit_claims();

    const bool released = release_barrier_if_ready();
    if (fatal_) {
      finish_state();
      return *std::move(fatal_);
    }
    live_ = 0;
    for (const ThreadCtx& t : threads_) {
      if (!t.done) ++live_;
    }
    // A live machine that issued nothing, claimed nothing and released no
    // barrier cannot make progress next epoch either; fail loudly instead
    // of spinning (cannot happen for well-formed streams).
    if (live_ > 0 && epoch_events == 0 && epoch_claims == 0 && !released) {
      finish_state();
      return Error{ErrorCode::kInvalidArgument,
                   "Machine::run: epoch engine made no progress "
                   "(malformed trace stream?)"};
    }
    if (epoch_hist != nullptr) {
      epoch_hist->observe(static_cast<double>(epoch_events));
    }
    if (interval_metrics != nullptr) {
      const std::uint64_t bucket =
          events_total_ / config.metrics_interval_events;
      if (bucket > last_bucket) {
        last_bucket = bucket;
        publish_progress(max_clock());
        interval_metrics->sample_series(events_total_, "interval");
      }
    }
  }

  // Deterministic reduction: per-shard counters summed in domain order.
  MachineStats stats;
  for (const Shard& s : shards_) stats += s.stats;
  const Cycles finish = max_clock();
  stats.execution_cycles = finish;
  stats.detection_overhead_cycles = 0;  // observers rejected above
  finish_state();

  if (interval_metrics != nullptr) {
    publish_progress(finish);
  }
  if (obs::MetricsRegistry* metrics =
          obs::metrics_at(config.obs, obs::ObsLevel::kPhases)) {
    metrics->counter("machine.epochs").add(epochs_);
    metrics->counter("machine.shard_stalls").add(stall_epochs_);
    obs::Histogram& shard_hist = metrics->histogram("machine.shard_events");
    for (const Shard& s : shards_) {
      if (s.total_events != 0) {
        shard_hist.observe(static_cast<double>(s.total_events));
      }
    }
    const std::uint64_t wall_us = run_span.elapsed_us();
    if (wall_us > 0) {
      metrics->wallclock_gauge("machine.sim_events_per_sec")
          .set(static_cast<double>(stats.accesses) * 1e6 /
               static_cast<double>(wall_us));
    }
    metrics->gauge("coherence.directory_disabled")
        .set(directory_enabled_ ? 0.0 : 1.0);
    if (directory_enabled_) {
      metrics->counter("coherence.directory_probes").add(dir_sum_.probes);
      metrics->counter("coherence.directory_holder_hits")
          .add(dir_sum_.holder_hits);
      metrics->counter("coherence.directory_holder_visits")
          .add(dir_sum_.holder_visits);
      metrics->gauge("coherence.directory_lines")
          .set(static_cast<double>(coherence_->directory_lines()));
    }
    std::ostringstream args;
    args << "\"accesses\":" << stats.accesses
         << ",\"sim_cycles\":" << stats.execution_cycles
         << ",\"barriers\":" << barrier_count_ << ",\"epochs\":" << epochs_
         << ",\"machine_workers\":" << config.machine_workers;
    run_span.set_args(args.str());
  }
  return stats;
}

}  // namespace tlbmap
