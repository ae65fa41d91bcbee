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
//
// A History that parse_history returns also keeps what the parser's one
// pass found: the operation records and the well-formedness verdict (the
// "kept records"). well_formed() answers from the kept verdict, and the
// checkers' check(const History&) read the kept records in place. Only the
// parser sets them; append, invoke and respond drop them, and a History
// built from actions has none, so it walks its actions as it always has.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cal/action.hpp"
#include "cal/operation.hpp"
#include "cal/thread_table.hpp"

namespace cal {

template <typename T>
struct ParseResult;

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

/// Def. 2's per-thread walk, one action at a time, building the operation
/// records (Def. 4) in invocation order. History's operations() and
/// well_formed_operations() and parse_history feed every action through
/// step(), so well-formedness has one rule.
class RecordWalk {
 public:
  /// Strict, step() reports the first action that breaks well-formedness.
  /// Otherwise it skips a stray response and lets a nested invocation
  /// leave the earlier one pending, as operations() always has.
  explicit RecordWalk(bool strict) noexcept : strict_(strict) {}

  void reserve(std::size_t records) { records_.reserve(records); }

  /// Feeds action `index`, which is `a`. Returns false when the walk is
  /// strict and `a` is a nested invocation, a response with no open
  /// invocation on its thread, or a response to another object or method;
  /// the walk must not be fed after that.
  bool step(const Action& a, std::size_t index) {
    std::size_t& slot = open_[a.tid];
    if (a.is_invoke()) {
      if (strict_ && slot != ThreadTable::kNone) return false;  // nested
      slot = records_.size();
      OpRecord& rec = records_.emplace_back();
      rec.op.tid = a.tid;
      rec.op.object = a.object;
      rec.op.method = a.method;
      rec.op.arg = a.payload;
      rec.inv_index = index;
      return true;
    }
    if (slot == ThreadTable::kNone) {
      return !strict_;  // a response without an open invocation
    }
    OpRecord& rec = records_[slot];
    if (strict_ && (rec.op.object != a.object || rec.op.method != a.method)) {
      return false;  // a response to another object or method
    }
    rec.op.ret = a.payload;
    rec.res_index = index;
    slot = ThreadTable::kNone;
    return true;
  }

  /// The records so far, in invocation order.
  [[nodiscard]] std::vector<OpRecord> take() && {
    return std::move(records_);
  }

 private:
  ThreadTable open_;  ///< index into records_ of each thread's open op
  std::vector<OpRecord> records_;
  bool strict_;
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

  /// Appends `a`, dropping any kept records.
  void append(Action a) {
    drop_kept();
    actions_.push_back(std::move(a));
  }

  /// Appends (t, inv o.f(arg)).
  void invoke(ThreadId t, Symbol o, Symbol f, Value arg = Value::unit()) {
    drop_kept();
    actions_.push_back(Action::invoke(t, o, f, std::move(arg)));
  }
  /// Appends (t, res o.f ▷ ret).
  void respond(ThreadId t, Symbol o, Symbol f, Value ret = Value::unit()) {
    drop_kept();
    actions_.push_back(Action::respond(t, o, f, std::move(ret)));
  }

  /// H|t — the subsequence of actions of thread t (Def. 2).
  [[nodiscard]] History project_thread(ThreadId t) const;
  /// H|o — the subsequence of actions on object o.
  [[nodiscard]] History project_object(Symbol o) const;

  /// True iff every per-thread projection is sequential and responses match
  /// their preceding invocation's object and method. Answers from the kept
  /// verdict when there is one.
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
  /// history is well-formed, nullopt when it is not. A copy of the kept
  /// records, or the kept verdict, when there are some.
  [[nodiscard]] std::optional<std::vector<OpRecord>> well_formed_operations()
      const;

  /// The kept records, read in place: non-null only for a well-formed
  /// history that parse_history returned and nothing has appended to
  /// since. The checkers' check(const History&) read these, and walk
  /// (well_formed_operations) only when they are null.
  [[nodiscard]] const std::vector<OpRecord>* kept_operations() const noexcept {
    return kept_ == Kept::kWellFormed ? &kept_records_ : nullptr;
  }

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
  /// The one writer of the kept records.
  friend ParseResult<History> parse_history(std::string_view text);

  /// What the kept verdict says; kNone when there is none.
  enum class Kept : std::uint8_t { kNone, kWellFormed, kIllFormed };

  void drop_kept() noexcept {
    if (kept_ != Kept::kNone) {
      kept_ = Kept::kNone;
      kept_records_ = {};
    }
  }

  std::vector<Action> actions_;
  /// The parser's records when kept_ is kWellFormed; empty otherwise.
  std::vector<OpRecord> kept_records_;
  Kept kept_ = Kept::kNone;
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
