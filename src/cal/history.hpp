// Histories (Def. 2) and the real-time order (Def. 3).
//
// A history is a finite sequence of invocation and response actions. It is
// *well-formed* if every per-thread projection is sequential (alternating
// inv/res starting with an invocation, responses matching the preceding
// invocation), and *complete* if additionally every invocation has a
// matching response. `complete(H)` — the set of completions — extends H
// with responses for some pending invocations and drops the rest; because
// the added return values are constrained only by the specification, the
// checker (not this class) chooses them, and this class exposes the pending
// operations for it to complete.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "cal/action.hpp"
#include "cal/operation.hpp"

namespace cal {

/// An operation extracted from a history together with the indices of its
/// actions, which define the real-time order.
struct OpRecord {
  Operation op;
  std::size_t inv_index = 0;
  std::optional<std::size_t> res_index;  ///< empty for pending operations

  [[nodiscard]] bool is_pending() const noexcept {
    return !res_index.has_value();
  }
};

class History {
 public:
  History() = default;
  explicit History(std::vector<Action> actions)
      : actions_(std::move(actions)) {}

  [[nodiscard]] std::size_t size() const noexcept { return actions_.size(); }
  [[nodiscard]] bool empty() const noexcept { return actions_.empty(); }
  [[nodiscard]] const Action& operator[](std::size_t i) const {
    return actions_[i];
  }
  [[nodiscard]] const std::vector<Action>& actions() const noexcept {
    return actions_;
  }

  void append(Action a) { actions_.push_back(std::move(a)); }

  /// Appends (t, inv o.f(arg)).
  void invoke(ThreadId t, Symbol o, Symbol f, Value arg = Value::unit()) {
    actions_.push_back(Action::invoke(t, o, f, std::move(arg)));
  }
  /// Appends (t, res o.f ▷ ret).
  void respond(ThreadId t, Symbol o, Symbol f, Value ret = Value::unit()) {
    actions_.push_back(Action::respond(t, o, f, std::move(ret)));
  }

  /// H|t — the subsequence of actions of thread t (Def. 2).
  [[nodiscard]] History project_thread(ThreadId t) const;
  /// H|o — the subsequence of actions on object o.
  [[nodiscard]] History project_object(Symbol o) const;

  /// True iff every per-thread projection is sequential and responses match
  /// their preceding invocation's object and method.
  [[nodiscard]] bool well_formed() const;

  /// True iff the history alternates inv/res starting with an invocation
  /// and each response matches the immediately preceding invocation.
  [[nodiscard]] bool sequential() const;

  /// True iff well-formed and every invocation has a matching response.
  [[nodiscard]] bool complete() const;

  /// Extracts the operations of a well-formed history in invocation order.
  /// Pending invocations yield OpRecords with no response index.
  [[nodiscard]] std::vector<OpRecord> operations() const;

  /// operations() and well_formed() in one walk: the records when the
  /// history is well-formed, nullopt when it is not. The checkers'
  /// check(const History&) entry points use it.
  [[nodiscard]] std::optional<std::vector<OpRecord>> well_formed_operations()
      const;

  /// The real-time order ≺H on the result of operations(): record i
  /// precedes record j iff i's response appears before j's invocation
  /// (Def. 3). Returns false when either endpoint is missing.
  [[nodiscard]] static bool precedes(const OpRecord& a, const OpRecord& b) {
    return a.res_index.has_value() && *a.res_index < b.inv_index;
  }

  /// The completion of H that simply drops every pending invocation.
  [[nodiscard]] History drop_pending() const;

  /// Pretty-printer: one action per line.
  [[nodiscard]] std::string to_string() const;

  /// Fig. 3-style interval diagram: one row per thread, `[--]` spans from
  /// invocation to response, `[--…` for pending operations.
  [[nodiscard]] std::string render_ascii() const;

  friend bool operator==(const History& a, const History& b) noexcept {
    return a.actions_ == b.actions_;
  }

 private:
  std::vector<Action> actions_;
};

/// Convenience builder for tests and examples:
///   auto h = HistoryBuilder()
///                .call(1, "E", "exchange", Value::integer(3))
///                .call(2, "E", "exchange", Value::integer(4))
///                .ret(1, Value::pair(true, 4))
///                .ret(2, Value::pair(true, 3))
///                .history();
/// `ret` with no explicit object/method answers the thread's open invocation.
class HistoryBuilder {
 public:
  HistoryBuilder& call(ThreadId t, std::string_view object,
                       std::string_view method, Value arg = Value::unit());
  HistoryBuilder& ret(ThreadId t, Value value = Value::unit());

  /// Shorthand for call + immediate ret (a sequentially executed operation).
  HistoryBuilder& op(ThreadId t, std::string_view object,
                     std::string_view method, Value arg, Value ret_value);

  [[nodiscard]] History history() const { return h_; }

 private:
  struct Open {
    ThreadId tid;
    Symbol object;
    Symbol method;
  };
  History h_;
  std::vector<Open> open_;
};

}  // namespace cal
