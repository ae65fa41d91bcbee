#include "cal/text.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <vector>

namespace cal {

namespace {

/// The C locale's isspace, without the locale lookup.
constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

/// Splits `text` into lines the way std::getline does: on '\n', with a
/// final unterminated line counted and an empty tail after the last '\n'
/// not counted. The views alias `text`.
class Lines {
 public:
  explicit Lines(std::string_view text) : rest_(text) {}

  bool next(std::string_view& line) {
    if (rest_.empty()) return false;
    const std::size_t nl = rest_.find('\n');
    if (nl == std::string_view::npos) {
      line = rest_;
      rest_ = {};
    } else {
      line = rest_.substr(0, nl);
      rest_.remove_prefix(nl + 1);
    }
    return true;
  }

 private:
  std::string_view rest_;
};

/// The whitespace-separated tokens of a line, at most kMax of them. No
/// line of either grammar has more than 4, so `count == kMax` flags a line
/// with too many without scanning the rest of it.
struct Tokens {
  static constexpr std::size_t kMax = 5;
  std::array<std::string_view, kMax> tok;
  std::size_t count = 0;
};

Tokens split(std::string_view line) {
  Tokens out;
  std::size_t i = 0;
  while (out.count < Tokens::kMax) {
    while (i < line.size() && is_space(line[i])) ++i;
    if (i == line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    out.tok[out.count++] = line.substr(start, i - start);
  }
  return out;
}

std::optional<std::int64_t> parse_int(std::string_view token) {
  if (token == "inf") return kInfinity;
  std::int64_t out = 0;
  const char* first = token.data();
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return out;
}

std::optional<ThreadId> parse_thread(std::string_view token) {
  if (token.size() < 2 || token[0] != 't') return std::nullopt;
  std::uint32_t id = 0;
  const char* first = token.data() + 1;
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, id);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return id;
}

template <typename T>
ParseResult<T> fail_at(std::size_t line, std::string message) {
  ParseResult<T> r;
  r.error = ParseError{line, std::move(message)};
  return r;
}

/// Why a history line failed: `what`, then the offending token in quotes
/// (none when the line has the wrong number of tokens). The message is
/// built only for the failing line.
struct LineError {
  const char* what;
  std::optional<std::string_view> token;

  [[nodiscard]] std::string message() const {
    if (!token) return what;
    return std::string(what) + " '" + std::string(*token) + "'";
  }
};

/// Parses one history line, handing its action (none for a blank or
/// comment line) to `sink(Action&&)`.
template <typename Sink>
std::optional<LineError> parse_line(std::string_view raw, Sink&& sink) {
  const std::string_view line = trim(raw);
  if (line.empty() || line.front() == '#') return std::nullopt;
  const Tokens t = split(line);
  if (t.count < 3 || t.count > 4) {
    return LineError{"expected: inv|res t<N> obj.method [value]", {}};
  }
  Action::Kind kind;
  if (t.tok[0] == "inv") {
    kind = Action::Kind::kInvoke;
  } else if (t.tok[0] == "res") {
    kind = Action::Kind::kRespond;
  } else {
    return LineError{"unknown action kind", t.tok[0]};
  }
  const auto tid = parse_thread(t.tok[1]);
  if (!tid) return LineError{"bad thread id", t.tok[1]};
  // "E.exchange" -> (E, exchange); the method is the part after the LAST
  // dot so object names may themselves be dotted ("ES.AR.E[0]").
  const std::string_view target = t.tok[2];
  const std::size_t dot = target.rfind('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 == target.size()) {
    return LineError{"bad object.method", target};
  }
  Value payload = Value::unit();
  if (t.count == 4) {
    auto v = parse_value(t.tok[3]);
    if (!v) return LineError{"bad value", t.tok[3]};
    payload = std::move(*v);
  }
  // Method before object: the order symbols have always been interned in,
  // so a parse assigns the same symbol ids it always did.
  const Symbol method{target.substr(dot + 1)};
  const Symbol object{target.substr(0, dot)};
  sink(Action{kind, *tid, object, method, std::move(payload)});
  return std::nullopt;
}

/// Parses "t1 exchange 3 (true,4)" (an operation inside an `elem` line).
std::optional<Operation> parse_element_op(std::string_view text,
                                          Symbol object) {
  const Tokens t = split(text);
  if (t.count != 4) return std::nullopt;
  const auto tid = parse_thread(t.tok[0]);
  if (!tid) return std::nullopt;
  auto arg = parse_value(t.tok[2]);
  auto ret = parse_value(t.tok[3]);
  if (!arg || !ret) return std::nullopt;
  return Operation::make(*tid, object, Symbol{t.tok[1]}, std::move(*arg),
                         std::move(*ret));
}

void append_int(std::string& out, std::int64_t x) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x);
  out.append(buf, end);
}

/// An integer in value syntax: `inf` for kInfinity.
void append_int_or_inf(std::string& out, std::int64_t x) {
  if (x == kInfinity) {
    out += "inf";
  } else {
    append_int(out, x);
  }
}

void append_value(std::string& out, const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kUnit:
      out += "()";
      return;
    case Value::Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      return;
    case Value::Kind::kInt:
      append_int_or_inf(out, v.as_int());
      return;
    case Value::Kind::kPair:
      out += v.pair_ok() ? "(true," : "(false,";
      append_int_or_inf(out, v.pair_int());
      out += ')';
      return;
    case Value::Kind::kVec: {
      // Vector items are always decimal (no `inf`), as they always were.
      out += '[';
      for (std::size_t i = 0; i < v.as_vec().size(); ++i) {
        if (i) out += ',';
        append_int(out, v.as_vec()[i]);
      }
      out += ']';
      return;
    }
  }
  out += "()";
}

/// A symbol's spelling, looked up again only when the symbol changes —
/// serializers meet the same object and method on line after line.
class Spelling {
 public:
  const std::string& operator()(Symbol s) {
    if (spelling_ == nullptr || s != last_) {
      last_ = s;
      spelling_ = &s.str();
    }
    return *spelling_;
  }

 private:
  Symbol last_;
  const std::string* spelling_ = nullptr;
};

}  // namespace

std::optional<Value> parse_value(std::string_view token) {
  token = trim(token);
  if (token.empty()) return std::nullopt;
  if (token == "()") return Value::unit();
  if (token == "true") return Value::boolean(true);
  if (token == "false") return Value::boolean(false);
  if (token.front() == '(' && token.back() == ')') {
    std::string_view inner = token.substr(1, token.size() - 2);
    const std::size_t comma = inner.find(',');
    if (comma == std::string_view::npos) return std::nullopt;
    std::string_view b = trim(inner.substr(0, comma));
    std::string_view i = trim(inner.substr(comma + 1));
    bool ok = false;
    if (b == "true") {
      ok = true;
    } else if (b != "false") {
      return std::nullopt;
    }
    const auto n = parse_int(i);
    if (!n) return std::nullopt;
    return Value::pair(ok, *n);
  }
  if (token.front() == '[' && token.back() == ']') {
    std::string_view inner = trim(token.substr(1, token.size() - 2));
    std::vector<std::int64_t> items;
    while (!inner.empty()) {
      const std::size_t comma = inner.find(',');
      std::string_view piece = comma == std::string_view::npos
                                   ? inner
                                   : inner.substr(0, comma);
      const auto n = parse_int(trim(piece));
      if (!n) return std::nullopt;
      items.push_back(*n);
      if (comma == std::string_view::npos) break;
      inner = inner.substr(comma + 1);
    }
    return Value::vec(std::move(items));
  }
  if (const auto n = parse_int(token)) return Value::integer(*n);
  return std::nullopt;
}

std::string format_value(const Value& v) {
  std::string out;
  append_value(out, v);
  return out;
}

ParseResult<std::optional<Action>> parse_action_line(std::string_view raw) {
  using Out = std::optional<Action>;
  ParseResult<Out> r;
  r.value.emplace(std::nullopt);
  if (const auto err =
          parse_line(raw, [&r](Action&& a) { r.value->emplace(std::move(a)); })) {
    return fail_at<Out>(1, err->message());
  }
  return r;
}

ParseResult<History> parse_history(std::string_view text) {
  std::vector<Action> actions;
  actions.reserve(static_cast<std::size_t>(
                      std::count(text.begin(), text.end(), '\n')) +
                  1);
  std::size_t line_no = 0;
  Lines lines(text);
  std::string_view raw;
  while (lines.next(raw)) {
    ++line_no;
    if (const auto err = parse_line(
            raw, [&actions](Action&& a) { actions.push_back(std::move(a)); })) {
      return fail_at<History>(line_no, err->message());
    }
  }
  ParseResult<History> r;
  r.value.emplace(std::move(actions));
  return r;
}

std::string format_history(const History& h) {
  std::string out;
  Spelling object;
  Spelling method;
  for (const Action& a : h.actions()) {
    out += a.is_invoke() ? "inv t" : "res t";
    append_int(out, a.tid);
    out += ' ';
    out += object(a.object);
    out += '.';
    out += method(a.method);
    if (!a.payload.is_unit() || a.is_respond()) {
      out += ' ';
      append_value(out, a.payload);
    }
    out += '\n';
  }
  return out;
}

ParseResult<CaTrace> parse_trace(std::string_view text) {
  CaTrace t;
  std::size_t line_no = 0;
  Lines lines(text);
  std::string_view raw;
  while (lines.next(raw)) {
    ++line_no;
    std::string_view line = trim(raw);
    if (line.empty() || line.front() == '#') continue;
    if (!line.starts_with("elem ")) {
      return fail_at<CaTrace>(line_no, "expected: elem OBJ.{...}");
    }
    line.remove_prefix(5);
    const std::size_t brace = line.find(".{");
    if (brace == std::string_view::npos || line.back() != '}') {
      return fail_at<CaTrace>(line_no, "expected OBJ.{op | op | ...}");
    }
    const Symbol object{trim(line.substr(0, brace))};
    std::string_view inner = line.substr(brace + 2);
    inner.remove_suffix(1);  // trailing '}'
    std::vector<Operation> ops;
    while (true) {
      const std::size_t bar = inner.find('|');
      std::string_view piece =
          bar == std::string_view::npos ? inner : inner.substr(0, bar);
      auto op = parse_element_op(trim(piece), object);
      if (!op) {
        return fail_at<CaTrace>(line_no, "bad operation '" +
                                             std::string(trim(piece)) + "'");
      }
      ops.push_back(std::move(*op));
      if (bar == std::string_view::npos) break;
      inner = inner.substr(bar + 1);
    }
    if (ops.empty()) {
      return fail_at<CaTrace>(line_no, "empty CA-element");
    }
    t.append(CaElement(object, std::move(ops)));
  }
  ParseResult<CaTrace> r;
  r.value = std::move(t);
  return r;
}

std::string format_trace(const CaTrace& t) {
  static const Value kUnit;
  std::string out;
  Spelling object;
  Spelling method;
  for (const CaElement& e : t.elements()) {
    out += "elem ";
    out += object(e.object());
    out += ".{";
    for (std::size_t i = 0; i < e.ops().size(); ++i) {
      const Operation& op = e.ops()[i];
      if (i) out += " | ";
      out += 't';
      append_int(out, op.tid);
      out += ' ';
      out += method(op.method);
      out += ' ';
      append_value(out, op.arg);
      out += ' ';
      append_value(out, op.ret ? *op.ret : kUnit);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace cal
