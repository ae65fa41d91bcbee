// The CAL membership checker (Def. 6 of the paper).
//
// Given a well-formed history H and a CA-spec (a generator of the trace-set
// 𝒯), decide whether there exist a completion H^c ∈ complete(H) and a trace
// T ∈ 𝒯 with H^c ⊑CAL T. The search fires CA-elements one at a time:
//
//   * a candidate element is a non-empty set of *enabled* operations of one
//     object (enabled = every real-time predecessor already fired); enabled
//     sets are automatically antichains of ≺H, which is exactly Def. 5's
//     requirement that co-located operations overlap pairwise;
//   * pending invocations may be fired (the spec fills in their return
//     value — this realizes the response-extension half of complete(H)) or
//     left unfired forever (the invocation-removal half);
//   * the search succeeds when every *completed* operation has been fired;
//   * states (spec state, fired-set) are memoized, Wing–Gong style.
//
// This generalizes the classical linearizability checker: running it with
// SeqAsCaSpec(S) decides classical linearizability w.r.t. S.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "cal/ca_trace.hpp"
#include "cal/history.hpp"
#include "cal/spec.hpp"

namespace cal {

struct CalCheckOptions {
  /// Hard cap on visited (state, fired-set) pairs; 0 = unlimited. The
  /// checker reports `exhausted` when the cap trips.
  std::size_t max_visited = 0;
  /// Also try firing pending invocations (completion by response extension).
  /// When false, pending invocations are always dropped.
  bool complete_pending = true;
  /// Deduplicate visited nodes by their full encodings instead of the
  /// default 128-bit fingerprints (cal/fingerprint.hpp). Fingerprints
  /// shrink the visited set to 16 bytes/node at a ~2^-64 per-pair risk of
  /// a false prune; this switch restores the stored-key table so tests can
  /// pin verdict equality between the two modes.
  bool exact_visited = false;
  /// Symmetry reduction: operations the spec declares interchangeable
  /// (CaSpec::symmetry_class) and that share identical real-time
  /// constraints are *counted*, not identified, in the dedup key, merging
  /// search states that differ only in which of them fired. Verdicts are
  /// unchanged; visited_states can drop exponentially in the number of
  /// interchangeable operations (e.g. an exchanger history where w threads
  /// all fail: 2^w fired-subsets collapse to w+1 counts).
  bool symmetry = false;
  /// Consult CaSpec::order_check before the engine. Specs with a
  /// polynomial membership characterization (the stack, queue and
  /// priority queue through SeqAsCaSpec; the exchanger and the
  /// synchronous queue by their pairing monitor) decide the history
  /// without any state search; a declined order check falls back to the
  /// engine. A spec with parts (UnionCaSpec) is decided object by object,
  /// each part by its own order path or the engine (DESIGN.md
  /// § "Locality"). Disable to force the engine on the whole spec (a
  /// union as the product of its parts: cal_check --no-order-check,
  /// differential tests, tests whose subject is the engine).
  bool order_check = true;
};

struct CalCheckPart;

struct CalCheckResult {
  bool ok = false;
  /// True when the search hit `max_visited` before finding a witness; `ok`
  /// is then inconclusive-negative.
  bool exhausted = false;
  /// On success: a witness trace T ∈ 𝒯 with H^c ⊑CAL T.
  std::optional<CaTrace> witness;
  /// Search effort diagnostics.
  std::size_t visited_states = 0;
  std::size_t fired_elements = 0;
  /// Bytes held by the visited set when the search finished; the set only
  /// grows, so this is also its peak (arena words allocated plus the index
  /// in exact mode, the fingerprint table's bytes otherwise).
  std::size_t visited_bytes = 0;
  /// Spec-step memoization: transition sets served from the per-search
  /// cache vs computed by CaSpec::step.
  std::size_t step_cache_hits = 0;
  std::size_t step_cache_misses = 0;
  /// Candidate subsets discarded by CaSpec::compatible before any step().
  std::size_t pruned_subsets = 0;
  /// With CalCheckOptions::symmetry: dedup hits on nodes with a partially
  /// fired symmetry group — an upper bound on the merges classic dedup
  /// would have missed.
  std::size_t symmetry_merged = 0;
  /// True when the verdict came from CaSpec::order_check; the engine never
  /// ran and the engine counters above are all zero.
  bool order_checked = false;
  /// Order-check effort counters (see OrderCheckOutcome): distinct values
  /// examined, and for the priority queue forced-presence zones built and
  /// candidate points bumped past a zone.
  std::size_t order_values = 0;
  std::size_t order_zones = 0;
  std::size_t order_bumps = 0;
  /// A spec with parts, checked object by object: each part's own result
  /// (without its witness, which `witness` merges), in the spec's order.
  /// The counters above are then their sums, `order_checked` holds when
  /// every part took its order path, and `exhausted` only when no part
  /// rejected.
  std::vector<CalCheckPart> parts;

  explicit operator bool() const noexcept { return ok; }
};

/// One object's share of a CalCheckResult.
struct CalCheckPart {
  Symbol object;
  CalCheckResult result;
};

class CalChecker {
 public:
  explicit CalChecker(const CaSpec& spec, CalCheckOptions options = {})
      : spec_(spec), options_(options) {}

  /// Decides CAL membership of `history` (must be well-formed).
  [[nodiscard]] CalCheckResult check(const History& history) const;

  /// As above, on pre-extracted operation records.
  [[nodiscard]] CalCheckResult check(const std::vector<OpRecord>& ops) const;

 private:
  /// check() on a spec with parts: one check per object, one merged
  /// witness.
  [[nodiscard]] CalCheckResult check_parts(
      const std::vector<OpRecord>& ops) const;

  const CaSpec& spec_;
  CalCheckOptions options_;
};

}  // namespace cal
