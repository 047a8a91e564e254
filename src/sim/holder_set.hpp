// Holder rows: fixed-width bitsets over L2 ids, stored as plain runs of
// uint64 words — the rows of the coherence directory, of the epoch engine's
// frozen view (sim/line_table.hpp) and of the per-socket masks.
//
// Every row of a machine has holder_words(num_l2) words, so two rows always
// combine word by word. The queries return and visit bits in ascending
// order: that is the order the reference broadcast walks its peers, which
// keeps the directory's tie-breaks and invalidation loops bit-identical to
// it. `exclude` = -1 excludes nothing.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/topology.hpp"

namespace tlbmap {

/// Checked narrowing from a bit index to an L2Id. Every conversion of a
/// directory bit position into an L2 id routes through here, so a holder in
/// word 1+ (id >= 64) can never silently truncate or alias an id in word 0.
/// `limit` is the machine's L2 count; out-of-range indices mean directory
/// corruption, reported loudly instead of as a wrong-holder probe result.
inline L2Id checked_l2id(std::size_t bit, std::size_t limit) {
  if (bit >= limit) {
    throw std::logic_error("checked_l2id: holder bit beyond machine L2s");
  }
  return static_cast<L2Id>(bit);
}

/// Words per row on a machine with `num_l2` L2 domains.
inline std::uint32_t holder_words(int num_l2) {
  return (static_cast<std::uint32_t>(num_l2) + 63u) / 64u;
}

namespace holder_detail {
inline std::uint32_t word_of(int bit) {
  return static_cast<std::uint32_t>(bit) / 64u;
}
inline std::uint64_t mask_of(int bit) {
  return std::uint64_t{1} << (static_cast<unsigned>(bit) % 64u);
}
}  // namespace holder_detail

inline void set_holder(std::uint64_t* row, int bit) {
  row[holder_detail::word_of(bit)] |= holder_detail::mask_of(bit);
}
inline void reset_holder(std::uint64_t* row, int bit) {
  row[holder_detail::word_of(bit)] &= ~holder_detail::mask_of(bit);
}
inline bool test_holder(const std::uint64_t* row, int bit) {
  return (row[holder_detail::word_of(bit)] & holder_detail::mask_of(bit)) != 0;
}
inline bool no_holders(const std::uint64_t* row, std::uint32_t words) {
  for (std::uint32_t i = 0; i < words; ++i) {
    if (row[i] != 0) return false;
  }
  return true;
}

/// Row-major socket masks: row a (holder_words(num_l2) words) holds the L2s
/// on a's socket — the partition behind the nearest-holder tie-break.
inline std::vector<std::uint64_t> socket_mask_rows(const Topology& topology) {
  const std::uint32_t words = holder_words(topology.num_l2());
  std::vector<std::uint64_t> rows(
      static_cast<std::size_t>(topology.num_l2()) * words, 0);
  for (int a = 0; a < topology.num_l2(); ++a) {
    for (int b = 0; b < topology.num_l2(); ++b) {
      if (topology.socket_of_l2(a) == topology.socket_of_l2(b)) {
        set_holder(&rows[static_cast<std::size_t>(a) * words], b);
      }
    }
  }
  return rows;
}

/// Lowest bit set in both `row` and `mask` other than `exclude`, or -1; pass
/// mask = nullptr for "lowest bit of `row` other than `exclude`". With a
/// socket mask this is the directory probe's "lowest-indexed holder on my
/// socket" tie-break, computed without materialising the intersection.
inline int first_and_excluding(const std::uint64_t* row,
                               const std::uint64_t* mask, std::uint32_t words,
                               int exclude) {
  const std::uint32_t xw = holder_detail::word_of(exclude);
  for (std::uint32_t i = 0; i < words; ++i) {
    std::uint64_t v = mask != nullptr ? row[i] & mask[i] : row[i];
    if (i == xw) v &= ~holder_detail::mask_of(exclude);
    if (v != 0) return static_cast<int>(i) * 64 + std::countr_zero(v);
  }
  return -1;
}

/// The holder `me` takes a line from: the lowest-indexed holder on me's
/// socket (`socket` = me's socket-mask row) when one exists, else the
/// lowest-indexed holder overall; -1 when no other L2 holds it. This is the
/// broadcast scan's tie-break, shared by the directory and the epoch
/// engine's frozen view.
inline int nearest_holder(const std::uint64_t* row,
                          const std::uint64_t* socket, std::uint32_t words,
                          int me) {
  const int pick = first_and_excluding(row, socket, words, me);
  return pick != -1 ? pick : first_and_excluding(row, nullptr, words, me);
}

/// Calls `fn(bit)` for every set bit other than `exclude`, ascending — the
/// holder-walk order of the upgrade/RFO loops.
template <typename Fn>
void for_each_excluding(const std::uint64_t* row, std::uint32_t words,
                        int exclude, Fn&& fn) {
  const std::uint32_t xw = holder_detail::word_of(exclude);
  for (std::uint32_t i = 0; i < words; ++i) {
    std::uint64_t v = row[i];
    if (i == xw) v &= ~holder_detail::mask_of(exclude);
    for (; v != 0; v &= v - 1) {
      fn(static_cast<int>(i) * 64 + std::countr_zero(v));
    }
  }
}

}  // namespace tlbmap
