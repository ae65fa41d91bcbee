#include "cal/history.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "cal/action.hpp"

namespace cal {

namespace {

std::size_t invocations(const std::vector<Action>& actions) {
  return static_cast<std::size_t>(
      std::count_if(actions.begin(), actions.end(),
                    [](const Action& a) { return a.is_invoke(); }));
}

}  // namespace

std::string Action::to_string() const {
  std::string out = "(t" + std::to_string(tid) + ", ";
  if (is_invoke()) {
    out += "inv " + object.str() + "." + method.str() + "(" +
           (payload.is_unit() ? "" : payload.to_string()) + ")";
  } else {
    out += "res " + object.str() + "." + method.str() + " > " +
           payload.to_string();
  }
  out += ")";
  return out;
}

std::string Operation::to_string() const {
  std::string out = "(t" + std::to_string(tid) + ", " + object.str() + "." +
                    method.str() + "(" +
                    (arg.is_unit() ? "" : arg.to_string()) + ") > ";
  out += ret ? ret->to_string() : "?pending?";
  out += ")";
  return out;
}

History History::project_thread(ThreadId t) const {
  History out;
  for (const Action& a : actions_) {
    if (a.tid == t) out.append(a);
  }
  return out;
}

History History::project_object(Symbol o) const {
  History out;
  for (const Action& a : actions_) {
    if (a.object == o) out.append(a);
  }
  return out;
}

bool History::sequential() const {
  bool expect_invoke = true;
  Symbol open_object;
  Symbol open_method;
  ThreadId open_tid = 0;
  for (const Action& a : actions_) {
    if (expect_invoke) {
      if (!a.is_invoke()) return false;
      open_object = a.object;
      open_method = a.method;
      open_tid = a.tid;
    } else {
      if (!a.is_respond() || a.object != open_object ||
          a.method != open_method || a.tid != open_tid) {
        return false;
      }
    }
    expect_invoke = !expect_invoke;
  }
  return true;
}

bool History::well_formed() const {
  if (kept_ != Kept::kNone) return kept_ == Kept::kWellFormed;
  // Per-thread state: the index of the thread's open invocation, if any.
  ThreadTable open;
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    const Action& a = actions_[i];
    std::size_t& slot = open[a.tid];
    if (a.is_invoke()) {
      if (slot != ThreadTable::kNone) return false;  // nested invocation
      slot = i;
    } else {
      if (slot == ThreadTable::kNone || actions_[slot].object != a.object ||
          actions_[slot].method != a.method) {
        return false;  // response without (matching) open invocation
      }
      slot = ThreadTable::kNone;
    }
  }
  return true;
}

bool History::complete() const {
  if (!well_formed()) return false;
  // Well-formed: each thread alternates inv/res, so the history is
  // complete iff it has as many responses as invocations.
  return 2 * invocations(actions_) == actions_.size();
}

namespace {

/// The walk behind operations() and well_formed_operations(): the
/// operations of `actions` in invocation order, or nullopt when a strict
/// walk meets an action that breaks well-formedness.
std::optional<std::vector<OpRecord>> extract_operations(
    const std::vector<Action>& actions, bool strict) {
  RecordWalk walk(strict);
  walk.reserve(invocations(actions));
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (!walk.step(actions[i], i)) return std::nullopt;
  }
  return std::move(walk).take();
}

}  // namespace

std::vector<OpRecord> History::operations() const {
  // A well-formed history's lenient walk is its strict walk.
  if (kept_ == Kept::kWellFormed) return kept_records_;
  return *extract_operations(actions_, /*strict=*/false);
}

std::optional<std::vector<OpRecord>> History::well_formed_operations() const {
  switch (kept_) {
    case Kept::kWellFormed:
      return kept_records_;
    case Kept::kIllFormed:
      return std::nullopt;
    case Kept::kNone:
      break;
  }
  return extract_operations(actions_, /*strict=*/true);
}

History History::drop_pending() const {
  // An invocation is pending iff its thread has no later matching response.
  std::vector<bool> keep(actions_.size(), true);
  ThreadTable open;
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    const Action& a = actions_[i];
    std::size_t& slot = open[a.tid];
    if (a.is_invoke()) {
      slot = i;
      keep[i] = false;  // provisionally pending
    } else if (slot != ThreadTable::kNone) {
      keep[slot] = true;
      slot = ThreadTable::kNone;
    }
  }
  History out;
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    if (keep[i]) out.append(actions_[i]);
  }
  return out;
}

std::string History::to_string() const {
  std::string out;
  for (const Action& a : actions_) {
    out += a.to_string();
    out += "\n";
  }
  return out;
}

std::string History::render_ascii() const {
  // One column per action, one row per thread.
  std::map<ThreadId, std::string> rows;
  for (const Action& a : actions_) rows.emplace(a.tid, "");

  constexpr std::size_t kCell = 14;
  auto pad = [](std::string s) {
    if (s.size() < kCell) s += std::string(kCell - s.size(), ' ');
    return s;
  };

  std::unordered_map<ThreadId, bool> open;
  for (const Action& a : actions_) {
    for (auto& [tid, row] : rows) {
      if (tid == a.tid) {
        std::string label;
        if (a.is_invoke()) {
          label = "[" + a.method.str() + "(" +
                  (a.payload.is_unit() ? "" : a.payload.to_string()) + ")";
          open[tid] = true;
        } else {
          label = ">" + a.payload.to_string() + "]";
          open[tid] = false;
        }
        row += pad(label);
      } else {
        row += open[tid] ? pad(std::string(kCell, '-'))
                         : pad("");
      }
    }
  }

  std::ostringstream out;
  for (auto& [tid, row] : rows) {
    // Trim trailing whitespace for stable golden tests.
    std::size_t end = row.find_last_not_of(' ');
    out << "t" << tid << ": "
        << (end == std::string::npos ? "" : row.substr(0, end + 1)) << "\n";
  }
  return out.str();
}

HistoryBuilder& HistoryBuilder::call(ThreadId t, std::string_view object,
                                     std::string_view method, Value arg) {
  Symbol o{object};
  Symbol f{method};
  h_.invoke(t, o, f, std::move(arg));
  open_.push_back(Open{t, o, f});
  return *this;
}

HistoryBuilder& HistoryBuilder::ret(ThreadId t, Value value) {
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (open_[i].tid == t) {
      h_.respond(t, open_[i].object, open_[i].method, std::move(value));
      open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
      return *this;
    }
  }
  // No open invocation: record a response on a null object; well_formed()
  // will reject the resulting history, which is what tests want to see.
  h_.respond(t, Symbol{}, Symbol{}, std::move(value));
  return *this;
}

HistoryBuilder& HistoryBuilder::op(ThreadId t, std::string_view object,
                                   std::string_view method, Value arg,
                                   Value ret_value) {
  call(t, object, method, std::move(arg));
  ret(t, std::move(ret_value));
  return *this;
}

}  // namespace cal
