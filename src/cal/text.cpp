#include "cal/text.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
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

/// A per-thread direct-mapped cache from a line's whole `obj.method`
/// spelling to its two symbols: one lookup per line where interning the
/// halves takes two, and a hit needs no look for the dot. Only spellings
/// parse_line would accept are inserted, so a hit is a valid target.
class TargetCache {
 public:
  struct Symbols {
    Symbol object;
    Symbol method;
  };

  /// The symbols of `target` if it is cached, else nullptr.
  [[nodiscard]] const Symbols* find(std::string_view target) noexcept {
    const Entry& e = entries_[slot_of(target)];
    if (e.size != target.size() ||
        std::memcmp(e.spelling, target.data(), target.size()) != 0) {
      return nullptr;
    }
    return &e.symbols;
  }

  /// Interns `target`, whose last dot is at `dot`: the method, then the
  /// object — the order parse_line interns them in, so a parse assigns
  /// the symbol ids it always did. Spellings longer than an entry holds
  /// are not cached.
  Symbols insert(std::string_view target, std::size_t dot) {
    const Symbol method{target.substr(dot + 1)};
    const Symbol object{target.substr(0, dot)};
    if (target.size() <= kMaxSpelling) {
      Entry& e = entries_[slot_of(target)];
      e.size = static_cast<std::uint8_t>(target.size());
      std::memcpy(e.spelling, target.data(), target.size());
      e.symbols = Symbols{object, method};
    }
    return Symbols{object, method};
  }

 private:
  static constexpr std::size_t kSlots = 64;
  static constexpr std::size_t kMaxSpelling = 46;

  struct Entry {
    Symbols symbols;
    std::uint8_t size = 0;  ///< 0 = empty: scan_line looks up no empty target
    char spelling[kMaxSpelling] = {};
  };

  /// Mixes the length with the first and last (up to) eight bytes.
  static std::size_t slot_of(std::string_view s) noexcept {
    const char* p = s.data();
    const std::size_t n = s.size();
    std::uint64_t head = 0;
    std::uint64_t tail = 0;
    if (n >= 8) {
      std::memcpy(&head, p, 8);
      std::memcpy(&tail, p + n - 8, 8);
    } else if (n >= 4) {
      std::uint32_t h32 = 0;
      std::uint32_t t32 = 0;
      std::memcpy(&h32, p, 4);
      std::memcpy(&t32, p + n - 4, 4);
      head = h32;
      tail = t32;
    } else if (n > 0) {
      head = static_cast<unsigned char>(p[0]) |
             static_cast<unsigned>(static_cast<unsigned char>(p[n / 2])) << 8;
      tail = static_cast<unsigned char>(p[n - 1]);
    }
    const std::uint64_t h =
        (head ^ (tail * 0x9e3779b97f4a7c15ull) ^ n) * 0xff51afd7ed558ccdull;
    return static_cast<std::size_t>(h >> 58) & (kSlots - 1);
  }

  std::array<Entry, kSlots> entries_;
};

thread_local TargetCache target_cache;

/// The first byte at or after `p` that is a blank, a control character
/// or NUL (any byte up to ' '), or `end`: eight bytes at a time while
/// eight remain.
const char* token_end(const char* p, const char* end) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::uint64_t kOnes = 0x0101010101010101ull;
    while (end - p >= 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, p, 8);
      // The high bit of every byte below 0x21 — exact for the first one,
      // which is all the count below reads.
      const std::uint64_t low = (w - kOnes * 0x21) & ~w & (kOnes * 0x80);
      if (low != 0) return p + (std::countr_zero(low) >> 3);
      p += 8;
    }
  }
  while (p != end && static_cast<unsigned char>(*p) > ' ') ++p;
  return p;
}

/// The position after the line end at `p` — '\n', "\r\n", or the end of
/// the text, which a '\r' may precede — or nullptr when `p` is not at one.
const char* after_line_end(const char* p, const char* end) noexcept {
  if (p != end && *p == '\r') ++p;
  if (p == end) return p;
  return *p == '\n' ? p + 1 : nullptr;
}

/// The fast scan of one history line in its usual shape, "inv t1 E.x 3":
/// single blanks between three or four tokens, nothing before them, and a
/// '\n' or "\r\n" after them. It reads the line once, left to right, up to
/// its end, and returns the position after it. The thread id and the value
/// go through parse_thread and parse_value, as in parse_line. Any other
/// line — blank, a comment, tabs, runs of blanks, other control bytes, or
/// an error — makes it return nullptr; the caller then hands the line to
/// parse_line, which decides it and owns every error message.
const char* scan_line(const char* p, const char* end, Action& out) {
  if (end - p < 4 || p[3] != ' ') return nullptr;
  if (p[0] == 'i' && p[1] == 'n' && p[2] == 'v') {
    out.kind = Action::Kind::kInvoke;
  } else if (p[0] == 'r' && p[1] == 'e' && p[2] == 's') {
    out.kind = Action::Kind::kRespond;
  } else {
    return nullptr;
  }
  const char* const tid_first = p + 4;
  p = token_end(tid_first, end);
  if (p == end || *p != ' ') return nullptr;
  const auto tid = parse_thread(
      std::string_view(tid_first, static_cast<std::size_t>(p - tid_first)));
  if (!tid) return nullptr;
  out.tid = *tid;
  const char* const first = p + 1;
  p = token_end(first, end);
  if (p == first) return nullptr;
  const std::string_view target(first, static_cast<std::size_t>(p - first));
  const TargetCache::Symbols* symbols = target_cache.find(target);
  std::size_t dot = 0;
  if (symbols == nullptr) {
    dot = target.rfind('.');
    if (dot == std::string_view::npos || dot == 0 ||
        dot + 1 == target.size()) {
      return nullptr;
    }
  }
  if (p != end && *p == ' ') {
    const char* const value_first = p + 1;
    p = token_end(value_first, end);
    if (p == value_first) return nullptr;
    auto value = parse_value(std::string_view(
        value_first, static_cast<std::size_t>(p - value_first)));
    if (!value) return nullptr;
    out.payload = std::move(*value);
  } else {
    out.payload = Value::unit();
  }
  p = after_line_end(p, end);
  if (p == nullptr) return nullptr;
  // A new spelling is interned only once the line is known good, as
  // parse_line does.
  const TargetCache::Symbols s =
      symbols != nullptr ? *symbols : target_cache.insert(target, dot);
  out.object = s.object;
  out.method = s.method;
  return p;
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
  Action a;
  const char* const end = raw.data() + raw.size();
  if (const char* next = scan_line(raw.data(), end, a);
      next != nullptr && next == end) {
    r.value.emplace(std::move(a));
    return r;
  }
  r.value.emplace(std::nullopt);
  if (const auto err =
          parse_line(raw, [&r](Action&& a) { r.value->emplace(std::move(a)); })) {
    return fail_at<Out>(1, err->message());
  }
  return r;
}

ParseResult<History> parse_history(std::string_view text) {
  // The shortest action line, "inv t1 o.m", is ten bytes and its '\n'.
  constexpr std::size_t kMinLine = 11;
  std::vector<Action> actions;
  actions.reserve(text.size() / kMinLine + 1);
  // Records and the verdict (Def. 2) in the same pass, through the strict
  // step History's own walk takes.
  RecordWalk walk(/*strict=*/true);
  walk.reserve(actions.capacity() / 2);
  bool well_formed = true;
  std::size_t line_no = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p != end) {
    ++line_no;
    if (const char* next = scan_line(p, end, actions.emplace_back())) {
      p = next;
    } else {
      actions.pop_back();
      const char* nl = static_cast<const char*>(
          std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
      const std::string_view raw(
          p, static_cast<std::size_t>((nl != nullptr ? nl : end) - p));
      p = nl != nullptr ? nl + 1 : end;
      const std::size_t before = actions.size();
      if (const auto err = parse_line(raw, [&actions](Action&& a) {
            actions.push_back(std::move(a));
          })) {
        return fail_at<History>(line_no, err->message());
      }
      if (actions.size() == before) continue;  // blank or comment
    }
    if (well_formed) {
      well_formed = walk.step(actions.back(), actions.size() - 1);
    }
  }
  ParseResult<History> r;
  History& h = r.value.emplace(std::move(actions));
  if (well_formed) {
    h.kept_records_ = std::move(walk).take();
    h.kept_ = History::Kept::kWellFormed;
  } else {
    h.kept_ = History::Kept::kIllFormed;
  }
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
