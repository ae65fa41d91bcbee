// The visited set of the sequential search driver.
//
// Every search in this library deduplicates flat `std::vector<int64_t>`
// node encodings, in one of two modes: *exact* (the full encoding is
// stored in a flat KeyTable, engine/key_table.hpp — zero false-prune risk,
// and the mode the explorer's sound state merging requires) or
// *fingerprint* (128-bit two-chain fingerprints, cal/fingerprint.hpp — 16
// bytes per node at a ~2^-64 per-pair false-prune risk). VisitedSet puts
// both modes behind one insert(), so SequentialSearch
// (engine/search_engine.hpp) never branches on the mode, and reports
// bytes() as the table's real footprint: arena words allocated plus the
// index in exact mode, the slot array in fingerprint mode. The explorer's
// parallel walk dedups exact keys in a par::ShardedStateSet instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cal/engine/key_table.hpp"
#include "cal/fingerprint.hpp"

namespace cal::engine {

using NodeKey = std::vector<std::int64_t>;

/// Single-threaded visited set: exact stored keys or 128-bit fingerprints
/// behind one runtime switch.
class VisitedSet {
 public:
  explicit VisitedSet(bool exact) : exact_(exact) {}

  /// Dedups `key`; true iff it was new. The key is only copied when stored
  /// (exact mode, first sighting), so callers can reuse a scratch buffer.
  bool insert(const NodeKey& key) {
    if (exact_) return exact_set_.insert(key).inserted;
    return fp_set_.insert(fingerprint_key(key));
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return exact_ ? exact_set_.size() : fp_set_.size();
  }

  /// Bytes held by the table; the set only grows, so this is its peak.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return exact_ ? exact_set_.bytes() : fp_set_.bytes();
  }

 private:
  bool exact_;
  KeyTable exact_set_;
  FingerprintSet fp_set_;
};

}  // namespace cal::engine
