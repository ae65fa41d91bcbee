// Differential tests of the batch front end: the history parser, the
// history and trace formatters, History's per-thread tables and the
// symbol front cache, each against the straightforward implementation it
// replaced (kept below as the reference). The parser is driven by a
// seeded in-repo mutator over examples/histories/ and generated texts:
// every mutant must give the same ParseResult — the same actions, or the
// same error line and message — from both parsers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cal/ca_trace.hpp"
#include "cal/history.hpp"
#include "cal/text.hpp"

namespace cal {
namespace {

// ---------------------------------------------------------------------------
// Reference implementations (the previous text.cpp and history.cpp code).

namespace reference {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> tokens_of(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i > start) out.push_back(line.substr(start, i - start));
  }
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

std::optional<std::pair<Symbol, Symbol>> parse_target(std::string_view token) {
  const std::size_t dot = token.rfind('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 == token.size()) {
    return std::nullopt;
  }
  return std::make_pair(Symbol{token.substr(0, dot)},
                        Symbol{token.substr(dot + 1)});
}

template <typename T>
ParseResult<T> fail_at(std::size_t line, std::string message) {
  ParseResult<T> r;
  r.error = ParseError{line, std::move(message)};
  return r;
}

ParseResult<std::optional<Action>> parse_action_line(std::string_view raw) {
  using Out = std::optional<Action>;
  std::string_view line = trim(raw);
  if (line.empty() || line.front() == '#') {
    ParseResult<Out> r;
    r.value.emplace(std::nullopt);
    return r;
  }
  const auto toks = tokens_of(line);
  if (toks.size() < 3 || toks.size() > 4) {
    return fail_at<Out>(1, "expected: inv|res t<N> obj.method [value]");
  }
  Action::Kind kind;
  if (toks[0] == "inv") {
    kind = Action::Kind::kInvoke;
  } else if (toks[0] == "res") {
    kind = Action::Kind::kRespond;
  } else {
    return fail_at<Out>(1,
                        "unknown action kind '" + std::string(toks[0]) + "'");
  }
  const auto tid = parse_thread(toks[1]);
  if (!tid) {
    return fail_at<Out>(1, "bad thread id '" + std::string(toks[1]) + "'");
  }
  const auto target = parse_target(toks[2]);
  if (!target) {
    return fail_at<Out>(1,
                        "bad object.method '" + std::string(toks[2]) + "'");
  }
  Value payload = Value::unit();
  if (toks.size() == 4) {
    const auto v = parse_value(toks[3]);
    if (!v) {
      return fail_at<Out>(1, "bad value '" + std::string(toks[3]) + "'");
    }
    payload = *v;
  }
  ParseResult<Out> r;
  r.value.emplace(Action{kind, *tid, target->first, target->second, payload});
  return r;
}

ParseResult<History> parse_history(std::string_view text) {
  History h;
  std::size_t line_no = 0;
  std::istringstream in{std::string(text)};
  std::string raw;
  while (std::getline(in, raw)) {
    ++line_no;
    ParseResult<std::optional<Action>> a = parse_action_line(raw);
    if (!a) return fail_at<History>(line_no, a.error->message);
    if (*a.value) h.append(**a.value);
  }
  ParseResult<History> r;
  r.value = std::move(h);
  return r;
}

std::string format_value(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kUnit:
      return "()";
    case Value::Kind::kBool:
      return v.as_bool() ? "true" : "false";
    case Value::Kind::kInt:
      return v.as_int() == kInfinity ? "inf" : std::to_string(v.as_int());
    case Value::Kind::kPair: {
      std::string i = v.pair_int() == kInfinity
                          ? "inf"
                          : std::to_string(v.pair_int());
      return std::string("(") + (v.pair_ok() ? "true" : "false") + "," + i +
             ")";
    }
    case Value::Kind::kVec: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.as_vec().size(); ++i) {
        if (i) out += ",";
        out += std::to_string(v.as_vec()[i]);
      }
      return out + "]";
    }
  }
  return "()";
}

std::string format_history(const History& h) {
  std::string out;
  for (const Action& a : h.actions()) {
    out += a.is_invoke() ? "inv" : "res";
    out += " t" + std::to_string(a.tid) + " " + a.object.str() + "." +
           a.method.str();
    if (!a.payload.is_unit() || a.is_respond()) {
      out += " " + reference::format_value(a.payload);
    }
    out += "\n";
  }
  return out;
}

std::string format_trace(const CaTrace& t) {
  std::string out;
  for (const CaElement& e : t.elements()) {
    out += "elem " + e.object().str() + ".{";
    for (std::size_t i = 0; i < e.ops().size(); ++i) {
      const Operation& op = e.ops()[i];
      if (i) out += " | ";
      out += "t" + std::to_string(op.tid) + " " + op.method.str() + " " +
             reference::format_value(op.arg) + " " +
             reference::format_value(op.ret.value_or(Value::unit()));
    }
    out += "}\n";
  }
  return out;
}

bool well_formed(const History& h) {
  std::unordered_map<ThreadId, std::optional<Action>> open;
  for (const Action& a : h.actions()) {
    auto& slot = open[a.tid];
    if (a.is_invoke()) {
      if (slot.has_value()) return false;
      slot = a;
    } else {
      if (!slot.has_value() || slot->object != a.object ||
          slot->method != a.method) {
        return false;
      }
      slot.reset();
    }
  }
  return true;
}

bool complete(const History& h) {
  if (!well_formed(h)) return false;
  std::unordered_map<ThreadId, int> open;
  for (const Action& a : h.actions()) {
    open[a.tid] += a.is_invoke() ? 1 : -1;
  }
  return std::all_of(open.begin(), open.end(),
                     [](const auto& kv) { return kv.second == 0; });
}

std::vector<OpRecord> operations(const History& h) {
  std::vector<OpRecord> out;
  std::unordered_map<ThreadId, std::size_t> open;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const Action& a = h[i];
    if (a.is_invoke()) {
      open[a.tid] = out.size();
      out.push_back(OpRecord{
          Operation::pending(a.tid, a.object, a.method, a.payload), i,
          std::nullopt});
    } else {
      auto it = open.find(a.tid);
      if (it == open.end()) continue;
      OpRecord& rec = out[it->second];
      rec.op.ret = a.payload;
      rec.res_index = i;
      open.erase(it);
    }
  }
  return out;
}

History drop_pending(const History& h) {
  std::vector<bool> keep(h.size(), true);
  std::unordered_map<ThreadId, std::size_t> open;
  for (std::size_t i = 0; i < h.size(); ++i) {
    const Action& a = h[i];
    if (a.is_invoke()) {
      open[a.tid] = i;
      keep[i] = false;
    } else if (auto it = open.find(a.tid); it != open.end()) {
      keep[it->second] = true;
      open.erase(it);
    }
  }
  History out;
  for (std::size_t i = 0; i < h.size(); ++i) {
    if (keep[i]) out.append(h[i]);
  }
  return out;
}

}  // namespace reference

// ---------------------------------------------------------------------------
// Seeded generators.

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  bool coin() { return (next() & 1) != 0; }

 private:
  std::uint64_t s_;
};

Value random_value(Rng& rng) {
  const auto small = [&rng] {
    return static_cast<std::int64_t>(rng.below(41)) - 20;
  };
  switch (rng.below(8)) {
    case 0:
      return Value::unit();
    case 1:
      return Value::boolean(rng.coin());
    case 2:
      return Value::integer(kInfinity);
    case 3:
      return Value::pair(rng.coin(), rng.coin() ? kInfinity : small());
    case 4: {
      std::vector<std::int64_t> items(rng.below(4));
      for (std::int64_t& x : items) x = rng.below(5) == 0 ? kInfinity : small();
      return Value::vec(std::move(items));
    }
    case 5:
      return Value::integer(rng.coin() ? INT64_MIN : INT64_MAX - 1);
    default:
      return Value::integer(small());
  }
}

/// A random history — well-formed or not — over dotted and plain names.
History random_history(Rng& rng) {
  static const char* const kObjects[] = {"E", "S", "Q", "ES.AR.E[0]", "obj_1"};
  static const char* const kMethods[] = {"exchange", "push", "pop", "enq",
                                         "deq"};
  static const ThreadId kTids[] = {0, 1, 2, 3, 7, 4294967295u};
  History h;
  const std::size_t n = rng.below(16);
  for (std::size_t i = 0; i < n; ++i) {
    const Symbol o{kObjects[rng.below(std::size(kObjects))]};
    const Symbol f{kMethods[rng.below(std::size(kMethods))]};
    const ThreadId t = kTids[rng.below(std::size(kTids))];
    if (rng.coin()) {
      h.invoke(t, o, f, random_value(rng));
    } else {
      h.respond(t, o, f, random_value(rng));
    }
  }
  return h;
}

/// A random well-formed history (operations overlap across threads, some
/// stay pending).
History random_well_formed(Rng& rng) {
  HistoryBuilder b;
  std::vector<bool> open(5, false);
  const std::size_t n = rng.below(24);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<ThreadId>(rng.below(open.size()));
    if (open[t]) {
      b.ret(t, random_value(rng));
    } else {
      b.call(t, rng.coin() ? "E" : "S", rng.coin() ? "exchange" : "push",
             random_value(rng));
    }
    open[t] = !open[t];
  }
  return b.history();
}

std::vector<std::string> seed_texts() {
  std::vector<std::string> out;
  const std::filesystem::path dir = CAL_EXAMPLES_HISTORIES_DIR;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    out.emplace_back(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
  }
  std::sort(out.begin(), out.end());  // directory order is unspecified
  Rng rng(7);
  for (int i = 0; i < 24; ++i) {
    out.push_back(reference::format_history(random_history(rng)));
    out.push_back(reference::format_history(random_well_formed(rng)));
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at <= text.size()) {
    const std::size_t nl = text.find('\n', at);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(at));
      break;
    }
    lines.push_back(text.substr(at, nl - at));
    at = nl + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines,
                       const std::string& eol) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i) out += eol;
    out += lines[i];
  }
  return out;
}

/// One mutation of the line grammar's corner cases.
std::string mutate(std::string text, Rng& rng) {
  static const char* const kBadThreads[] = {"t", "t-1", "t4294967296", "t+1",
                                            "x1", "t1a", "T1", "t01",
                                            "t4294967295"};
  static const char* const kBadTargets[] = {"obj.", ".m", "E..x", "E",
                                            "a.b.c", ".", "E.exchange.",
                                            "..m"};
  static const char* const kJunk[] = {"# comment", "", "   ", "\t",
                                      "#", "inv", "res t1",
                                      "inv t1 E.exchange 1 2",
                                      "bogus line here"};
  std::vector<std::string> lines = split_lines(text);
  const auto line_of = [&]() -> std::string& {
    return lines[rng.below(lines.size())];
  };
  switch (rng.below(12)) {
    case 0:  // CRLF line endings, everywhere or on one line
      if (rng.coin()) return join_lines(lines, "\r\n");
      line_of() += '\r';
      break;
    case 1: {  // tabs for blanks
      std::string& l = line_of();
      for (char& c : l) {
        if (c == ' ' && rng.coin()) c = '\t';
      }
      break;
    }
    case 2: {  // leading and trailing blanks
      std::string& l = line_of();
      l = std::string(rng.below(3), rng.coin() ? ' ' : '\t') + l +
          std::string(rng.below(3), rng.coin() ? ' ' : '\v');
      break;
    }
    case 3:  // comment, blank and malformed lines
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(lines.size() + 1)),
                   kJunk[rng.below(std::size(kJunk))]);
      break;
    case 4:  // a missing (or doubled) final newline
      if (!text.empty() && text.back() == '\n') {
        text.pop_back();
      } else {
        text += "\n\n";
      }
      return text;
    case 5: {  // lines with 2 and with 5 tokens
      std::string& l = line_of();
      if (rng.coin()) {
        const std::size_t sp = l.rfind(' ');
        if (sp != std::string::npos) l.erase(sp);
      } else {
        l += rng.coin() ? " 1 2" : " extra";
      }
      break;
    }
    case 6: {  // bad thread ids
      std::string& l = line_of();
      const std::size_t t = l.find(" t");
      if (t != std::string::npos) {
        const std::size_t end = l.find(' ', t + 1);
        l.replace(t + 1, end == std::string::npos ? std::string::npos
                                                  : end - t - 1,
                  kBadThreads[rng.below(std::size(kBadThreads))]);
      }
      break;
    }
    case 7: {  // dotted objects and empty halves
      std::string& l = line_of();
      const std::size_t dot = l.find('.');
      if (dot != std::string::npos) {
        const std::size_t start = l.rfind(' ', dot);
        const std::size_t end = l.find(' ', dot);
        const std::size_t from = start == std::string::npos ? 0 : start + 1;
        l.replace(from,
                  end == std::string::npos ? std::string::npos : end - from,
                  kBadTargets[rng.below(std::size(kBadTargets))]);
      }
      break;
    }
    case 8: {  // truncated values
      std::string& l = line_of();
      const std::size_t sp = l.rfind(' ');
      if (sp != std::string::npos && sp + 2 < l.size()) {
        l.resize(sp + 1 + rng.below(l.size() - sp - 1));
      }
      break;
    }
    case 9:  // NUL bytes
      if (!text.empty()) {
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(text.size() + 1)),
                    '\0');
      }
      return text;
    case 10: {  // a byte deleted, duplicated or replaced
      if (text.empty()) return text;
      const std::size_t at = rng.below(text.size());
      static const char kBytes[] = {' ', '\t', '\n', '.', ',', '(', ')',
                                    '[', ']', 't', '-', '9', '#', '\r'};
      switch (rng.below(3)) {
        case 0:
          text.erase(at, 1);
          break;
        case 1:
          text.insert(at, 1, text[at]);
          break;
        default:
          text[at] = kBytes[rng.below(sizeof kBytes)];
          break;
      }
      return text;
    }
    default:  // lines swapped or dropped
      if (lines.size() > 1) {
        const std::size_t a = rng.below(lines.size());
        const std::size_t b = rng.below(lines.size());
        if (rng.coin()) {
          std::swap(lines[a], lines[b]);
        } else {
          lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(a));
        }
      }
      break;
  }
  return join_lines(lines, "\n");
}

template <typename T>
void expect_same(const ParseResult<T>& got, const ParseResult<T>& want,
                 const std::string& input) {
  ASSERT_EQ(got.value.has_value(), want.value.has_value()) << input;
  ASSERT_EQ(got.error.has_value(), want.error.has_value()) << input;
  if (want.value) {
    EXPECT_TRUE(*got.value == *want.value) << input;
  } else {
    EXPECT_EQ(got.error->line, want.error->line) << input;
    EXPECT_EQ(got.error->message, want.error->message) << input;
  }
}

// ---------------------------------------------------------------------------

TEST(FrontEndDifferential, ParserMatchesReferenceOnMutants) {
  const std::vector<std::string> seeds = seed_texts();
  ASSERT_GE(seeds.size(), 4u + 48u);
  Rng rng(20240517);
  std::size_t mutants = 0;
  std::size_t rejected = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < 80; ++round) {
    for (const std::string& seed : seeds) {
      std::string text = seed;
      const std::size_t n = 1 + rng.below(3);
      for (std::size_t m = 0; m < n; ++m) text = mutate(std::move(text), rng);
      ++mutants;
      const ParseResult<History> got = parse_history(text);
      const ParseResult<History> want = reference::parse_history(text);
      expect_same(got, want, text);
      if (!want) ++rejected;
      // The streaming entry point, line by line.
      for (const std::string& line : split_lines(text)) {
        expect_same(parse_action_line(line),
                    reference::parse_action_line(line), line);
      }
      if (testing::Test::HasFailure()) return;
    }
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_GE(mutants, 4000u);
  // The mutator must reach both outcomes often.
  EXPECT_GT(rejected, mutants / 5);
  EXPECT_LT(rejected, mutants * 4 / 5);
  RecordProperty("mutants", static_cast<int>(mutants));
  RecordProperty("milliseconds", static_cast<int>(seconds * 1e3));
}

TEST(FrontEndDifferential, ParserAgreesOnEdgeCaseLines) {
  const char* const cases[] = {
      "", "\n", "\n\n", "#\n", "inv t1 E.exchange 3", "inv t1 E.exchange 3\r\n",
      "\tinv\tt1\tE.exchange\t3\t", "inv t1 E.exchange", "res t1 E.exchange",
      "inv t E.x", "inv t-1 E.x", "inv t4294967296 E.x", "inv t4294967295 E.x",
      "inv t1 obj. 1", "inv t1 .m 1", "inv t1 a.b.c (true,inf)",
      "inv t1 E.x (true,", "inv t1 E.x [1,2", "inv t1 E.x [ 1 ,2 ]",
      "inv t1 E.x ( true , 3 )",
      "inv t1 E.x 1 2", "inv t1 E.x 1 2 3", "inv t1", "nop t1 E.x",
      "inv t1 E.x inf", "inv t1 E.x -0", "inv t1 E.x 9223372036854775808",
  };
  for (const char* c : cases) {
    expect_same(parse_history(c), reference::parse_history(c), c);
    expect_same(parse_action_line(c), reference::parse_action_line(c), c);
  }
  const std::string with_nul("inv t1 E.x\0 1\nres t1 E.x 2\n", 27);
  expect_same(parse_history(with_nul), reference::parse_history(with_nul),
              "embedded NUL");
}

TEST(FrontEndDifferential, FormattersMatchReference) {
  Rng rng(99);
  for (int i = 0; i < 600; ++i) {
    const History h = i % 2 == 0 ? random_history(rng) : random_well_formed(rng);
    ASSERT_EQ(format_history(h), reference::format_history(h));
    // A trace of singleton elements over the history's operations (pending
    // ones completed with a random return), plus one multi-operation
    // element.
    CaTrace t;
    std::vector<Operation> group;
    for (const OpRecord& rec : reference::operations(h)) {
      Operation op = rec.op;
      if (op.is_pending()) op.ret = random_value(rng);
      t.append(CaElement::singleton(op.object, op));
      if (op.object == Symbol{"E"}) group.push_back(op);
    }
    if (!group.empty()) t.append(CaElement(Symbol{"E"}, group));
    ASSERT_EQ(format_trace(t), reference::format_trace(t));
  }
  for (int i = 0; i < 2000; ++i) {
    const Value v = random_value(rng);
    ASSERT_EQ(format_value(v), reference::format_value(v));
  }
}

TEST(FrontEndDifferential, HistoryTablesMatchReference) {
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const History h = i % 2 == 0 ? random_history(rng) : random_well_formed(rng);
    ASSERT_EQ(h.well_formed(), reference::well_formed(h));
    ASSERT_EQ(h.complete(), reference::complete(h));
    const std::vector<OpRecord> got = h.operations();
    const std::vector<OpRecord> want = reference::operations(h);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].op, want[k].op);
      EXPECT_EQ(got[k].inv_index, want[k].inv_index);
      EXPECT_EQ(got[k].res_index, want[k].res_index);
    }
    // The checkers' one-walk entry: records iff well-formed, and then the
    // same records.
    const std::optional<std::vector<OpRecord>> checked =
        h.well_formed_operations();
    ASSERT_EQ(checked.has_value(), reference::well_formed(h));
    if (checked) {
      ASSERT_EQ(checked->size(), want.size());
      for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ((*checked)[k].op, want[k].op);
        EXPECT_EQ((*checked)[k].inv_index, want[k].inv_index);
        EXPECT_EQ((*checked)[k].res_index, want[k].res_index);
      }
    }
    ASSERT_EQ(h.drop_pending(), reference::drop_pending(h));
  }
  // Many distinct thread ids grow the flat table past its first size.
  History wide;
  const Symbol e{"E"};
  const Symbol x{"exchange"};
  for (ThreadId t = 0; t < 300; ++t) wide.invoke(t * 7919u, e, x, Value::integer(t));
  for (ThreadId t = 300; t-- > 0;) wide.respond(t * 7919u, e, x, Value::pair(false, t));
  EXPECT_TRUE(wide.well_formed());
  EXPECT_TRUE(wide.complete());
  EXPECT_EQ(wide.operations().size(), 300u);
  EXPECT_EQ(wide.operations()[299].res_index, std::optional<std::size_t>(300));
}

TEST(SymbolFrontCache, ThreadsAgreeOnIds) {
  // More names than the per-thread cache has slots, interned from several
  // threads at once in different orders: every thread must see the ids
  // the interner assigned, and every spelling must round-trip.
  constexpr int kNames = 300;
  constexpr int kThreads = 4;
  std::vector<std::vector<std::uint32_t>> ids(kThreads,
                                              std::vector<std::uint32_t>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (int round = 0; round < 3; ++round) {
        for (int k = 0; k < kNames; ++k) {
          const int n = (t % 2 == 0) ? k : kNames - 1 - k;
          ids[t][n] = Symbol{"front-cache-" + std::to_string(n)}.id();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int n = 0; n < kNames; ++n) {
    const Symbol s{"front-cache-" + std::to_string(n)};
    EXPECT_EQ(s.str(), "front-cache-" + std::to_string(n));
    for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ids[t][n], s.id());
  }
  EXPECT_NE(Symbol{""}.id(), 0u);
  EXPECT_EQ(Symbol{""}, Symbol{std::string_view()});
}

}  // namespace
}  // namespace cal
