// LineTable: a flat, open-addressed map LineAddr -> fixed-width row of
// uint64 words. It is the coherence directory (one holder row per line) and
// the epoch engine's frozen view (a holder row and a modified row per line).
//
// Each slot is one key word followed by its row, all in one flat array, so
// a lookup touches one slot's cache lines instead of a key array and a row
// array. kInvalidTag marks an empty slot, collisions probe linearly, and
// erase() shifts the rest of the probe chain back instead of leaving
// tombstones, so a lookup never walks past a dead entry. The table only
// grows (doubling at load 3/4) and never allocates per line, so the
// per-access paths that look lines up, insert them and drop them do no heap
// work once the table has reached its working size.
//
// Rows stay valid until the next insert or erase; callers re-find instead of
// holding a row across either.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/scan.hpp"
#include "sim/types.hpp"

namespace tlbmap {

class LineTable {
 public:
  /// Each line maps to `row_words` zero-initialised words.
  explicit LineTable(std::uint32_t row_words) : stride_(1 + row_words) {
    resize(kInitialSlots);
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return mask_ + 1; }

  /// Slot where `line`'s probe chain starts. Each run of 8 consecutive
  /// lines homes in one group of 8 consecutive slots, and a Fibonacci hash
  /// of the run number spreads the groups over the table: a streaming sweep
  /// then walks the table in order instead of missing the cache on every
  /// line, while unrelated runs still scatter.
  std::size_t home(LineAddr line) const {
    const std::uint64_t group = ((line >> 3) * 0x9E3779B97F4A7C15ull) >>
                                (shift_ + 3);
    return static_cast<std::size_t>(group << 3 | (line & 7));
  }

  /// Row of `line`, or nullptr when the line has no entry.
  std::uint64_t* find(LineAddr line) {
    for (std::size_t i = home(line);; i = (i + 1) & mask_) {
      if (key(i) == line) return row(i);
      if (key(i) == kInvalidTag) return nullptr;
    }
  }
  const std::uint64_t* find(LineAddr line) const {
    return const_cast<LineTable*>(this)->find(line);
  }

  /// Row of `line`, inserting an all-zero row when absent.
  std::uint64_t* find_or_insert(LineAddr line) {
    std::size_t i = home(line);
    for (; key(i) != kInvalidTag; i = (i + 1) & mask_) {
      if (key(i) == line) return row(i);
    }
    if (4 * (size_ + 1) > 3 * capacity()) {
      resize(2 * capacity());
      for (i = home(line); key(i) != kInvalidTag; i = (i + 1) & mask_) {
      }
    }
    key(i) = line;
    ++size_;
    std::fill_n(row(i), stride_ - 1, std::uint64_t{0});
    return row(i);
  }

  /// Removes `line`'s entry (no-op when absent) by backward-shift deletion:
  /// every later entry of the probe chain whose home slot does not lie
  /// cyclically in (hole, its slot] moves back into the hole.
  void erase(LineAddr line) {
    std::size_t hole = home(line);
    for (; key(hole) != line; hole = (hole + 1) & mask_) {
      if (key(hole) == kInvalidTag) return;
    }
    for (std::size_t j = (hole + 1) & mask_; key(j) != kInvalidTag;
         j = (j + 1) & mask_) {
      const std::size_t h = home(key(j));
      const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      std::copy_n(&key(j), stride_, &key(hole));
      hole = j;
    }
    key(hole) = kInvalidTag;
    --size_;
  }

  /// Drops every entry; keeps the capacity.
  void clear() {
    if (size_ == 0) return;
    for (std::size_t i = 0; i <= mask_; ++i) key(i) = kInvalidTag;
    size_ = 0;
  }

  /// Calls `fn(line, row)` for every entry, in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i <= mask_; ++i) {
      if (key(i) != kInvalidTag) fn(key(i), row(i));
    }
  }

 private:
  static constexpr std::size_t kInitialSlots = 1024;  ///< >= one group

  LineAddr& key(std::size_t slot) { return slots_[slot * stride_]; }
  LineAddr key(std::size_t slot) const { return slots_[slot * stride_]; }
  std::uint64_t* row(std::size_t slot) { return &slots_[slot * stride_ + 1]; }
  const std::uint64_t* row(std::size_t slot) const {
    return &slots_[slot * stride_ + 1];
  }

  /// Rehashes into `slots` (a power of two) slots.
  void resize(std::size_t slots) {
    const std::vector<std::uint64_t> old = std::exchange(
        slots_, std::vector<std::uint64_t>(slots * stride_, kInvalidTag));
    mask_ = slots - 1;
    shift_ = 64;
    for (std::size_t s = slots; s > 1; s >>= 1) --shift_;
    for (std::size_t at = 0; at < old.size(); at += stride_) {
      if (old[at] == kInvalidTag) continue;
      std::size_t j = home(old[at]);
      while (key(j) != kInvalidTag) j = (j + 1) & mask_;
      std::copy_n(&old[at], stride_, &key(j));
    }
  }

  std::size_t stride_;  ///< words per slot: the key, then the row
  /// slots_[i * stride_] = key of slot i (kInvalidTag = empty), followed by
  /// its row (stale while the slot is empty).
  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace tlbmap
