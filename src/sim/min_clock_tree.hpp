// MinClockTree: the serial event loop's thread picker.
//
// An array-backed winner tree over thread ids keyed on (clock, id): every
// internal node holds the id that wins its subtree, so the root is the
// runnable thread with the smallest clock, lowest id on ties — the order the
// event loop must interleave threads in. A thread that is not runnable
// (at a barrier, or finished) carries kBlocked and never wins.
//
// Issuing an event changes one clock, so update() replays that one
// leaf-to-root path: log2(T) sibling comparisons and no stale entries. The
// path's running winner stays in a register, so the comparisons do not wait
// on the stores. A barrier release or migration changes many clocks at
// once; those assign() every key and rebuild() the internal nodes in O(T).
// A kernel-wide detector stall adds the same amount to every runnable
// clock, which preserves every comparison in the tree, so shift() moves the
// keys without touching the nodes.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/types.hpp"

namespace tlbmap {

class MinClockTree {
 public:
  /// Key of a thread that must not be picked.
  static constexpr Cycles kBlocked = std::numeric_limits<Cycles>::max();

  /// `size` threads, all blocked.
  explicit MinClockTree(int size) {
    while (leaves_ < size) leaves_ *= 2;
    keys_.assign(static_cast<std::size_t>(leaves_), kBlocked);
    winner_.resize(2 * static_cast<std::size_t>(leaves_));
    for (int i = 0; i < leaves_; ++i) winner_[leaf(i)] = i;
    rebuild();
  }

  /// Sets thread `id`'s key without touching the internal nodes; call
  /// rebuild() once after a batch.
  void assign(int id, Cycles key) { keys_[static_cast<std::size_t>(id)] = key; }

  /// Recomputes every internal node from the keys. O(T).
  void rebuild() {
    for (std::size_t n = static_cast<std::size_t>(leaves_) - 1; n >= 1; --n) {
      winner_[n] = min_of(winner_[2 * n], winner_[2 * n + 1]);
    }
  }

  /// Sets thread `id`'s key and replays its path to the root. O(log T).
  void update(int id, Cycles key) {
    keys_[static_cast<std::size_t>(id)] = key;
    int w = id;
    for (std::size_t n = leaf(id); n > 1; n /= 2) {
      w = min_of(w, winner_[n ^ 1]);
      winner_[n / 2] = w;
    }
  }

  /// Adds `delta` to every non-blocked key. Valid only when the caller's
  /// clocks all moved by `delta` too: the order, hence the tree, is
  /// unchanged.
  void shift(Cycles delta) {
    for (Cycles& k : keys_) {
      if (k != kBlocked) k += delta;
    }
  }

  /// Runnable thread with the smallest (clock, id), or -1 when none is.
  int top() const {
    const int w = winner_[1];
    return keys_[static_cast<std::size_t>(w)] == kBlocked ? -1 : w;
  }

 private:
  /// The winner of two ids, written so the compiler selects without a
  /// branch: which side wins is data-dependent, so a branch would
  /// mispredict on every other level of the path.
  int min_of(int a, int b) const {
    const Cycles ka = keys_[static_cast<std::size_t>(a)];
    const Cycles kb = keys_[static_cast<std::size_t>(b)];
    const bool b_wins = (kb < ka) | ((kb == ka) & (b < a));
    return b_wins ? b : a;
  }
  std::size_t leaf(int id) const {
    return static_cast<std::size_t>(leaves_) + static_cast<std::size_t>(id);
  }

  int leaves_ = 1;
  std::vector<Cycles> keys_;  ///< per thread; padding leaves stay blocked
  std::vector<int> winner_;   ///< [1] root, [leaves_, 2*leaves_) leaf ids
};

}  // namespace tlbmap
