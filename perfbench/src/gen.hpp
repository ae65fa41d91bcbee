// Seeded input generators and the witness oracle.
//
// Every generated history comes from a valid CA-trace: a *plan* lists the
// trace's CA-elements in order, and interleave() turns it into a history
// whose operations overlap with bounded width while each element's
// operations are all open at its linearization point. The history then
// agrees with the plan (Def. 5) and the plan is in the spec's trace-set, so
// the expected verdict is ACCEPT by construction. mutate_impossible()
// rewrites one return value to a value no operation ever offered, which no
// trace can explain: expected REJECT.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cal/ca_trace.hpp"
#include "cal/history.hpp"
#include "cal/spec.hpp"

namespace perfbench {

/// A CA-trace to realize: elements in linearization order, tids unset.
using Plan = std::vector<std::vector<cal::Operation>>;

struct Generated {
  cal::History history;
  /// Action counts at which no operation is open (ascending; the last one
  /// is history.size()). The real-time order splits the history there.
  std::vector<std::size_t> quiescent;
};

/// Realizes `plan` with at most `width` simultaneously open operations.
/// With `quiesce_every` > 0 every open operation responds after each
/// `quiesce_every`-th element, giving a quiescent cut.
[[nodiscard]] Generated interleave(const Plan& plan, std::size_t width,
                                   std::size_t quiesce_every, Rng& rng);

/// Values offered by the plans are fresh positive integers from `next`.
[[nodiscard]] Plan plan_exchanger(cal::Symbol obj, std::size_t elements,
                                  std::int64_t& next, Rng& rng);
[[nodiscard]] Plan plan_sync_queue(cal::Symbol obj, std::size_t elements,
                                   std::int64_t& next, Rng& rng);
/// LIFO stack whose depth never exceeds `bound`.
[[nodiscard]] Plan plan_stack(cal::Symbol obj, std::size_t elements,
                              std::size_t bound, std::int64_t& next, Rng& rng);
/// FIFO queue whose length never exceeds `bound`.
[[nodiscard]] Plan plan_queue(cal::Symbol obj, std::size_t elements,
                              std::size_t bound, std::int64_t& next, Rng& rng);
/// Priority queue with distinct inserted values (the order-checked case).
[[nodiscard]] Plan plan_pq(cal::Symbol obj, std::size_t elements,
                           std::int64_t& next, Rng& rng);

/// A value no plan ever offers.
inline constexpr std::int64_t kImpossible = 987654321;

/// Rewrites the return value of one of the last three pair-returning
/// responses to (true, kImpossible). False if there is no such response.
bool mutate_impossible(cal::History& history, Rng& rng);

/// The witness oracle: T ∈ 𝒯 (replay_ca) and H ⊑CAL T (agrees_with).
/// `history` must be complete. Returns the reason on failure.
[[nodiscard]] std::optional<std::string> verify_witness(
    const cal::History& history, const cal::CaTrace& witness,
    const cal::CaSpec& spec);

/// The same oracle for a long history with quiescent cuts: agreement is
/// decided segment by segment (every operation before a quiescent cut
/// precedes every operation after it, so an agreeing witness must map
/// each segment onto a contiguous run of elements).
[[nodiscard]] std::optional<std::string> verify_witness_segmented(
    const cal::History& history, const std::vector<std::size_t>& quiescent,
    const cal::CaTrace& witness, const cal::CaSpec& spec);

}  // namespace perfbench
