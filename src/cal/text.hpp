// Plain-text serialization of histories and CA-traces.
//
// Enables tooling (the cal-check CLI, golden files, interchange with other
// checkers). The grammar is line-oriented:
//
//   history line  := ("inv" | "res") WS thread WS object "." method
//                    [WS value]            ; value defaults to ()
//   thread        := "t" digits
//   value         := "()" | "true" | "false" | "inf" | int
//                  | "(" ("true"|"false") "," (int|"inf") ")"
//                  | "[" [int ("," int)*] "]"
//   comment       := "#" anything          ; blank lines ignored
//
// Example:
//   inv t1 E.exchange 3
//   inv t2 E.exchange 4
//   res t1 E.exchange (true,4)
//   res t2 E.exchange (true,3)
//
// Trace lines group operations of one CA-element with `|`:
//   elem E.{t1 exchange 3 (true,4) | t2 exchange 4 (true,3)}
//
// History lines are read in one left-to-right scan when they have their
// usual shape — single blanks between the tokens, nothing before them, and
// a '\n' or "\r\n" after them — with one per-thread cache lookup for the
// whole `obj.method` spelling; the thread id and the value are read by the
// functions the tokenizing parser uses. Every other line (blank lines,
// comments, tabs, runs of blanks, other control bytes, errors) goes to the
// tokenizing parser, which is the only source of error messages.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "cal/ca_trace.hpp"
#include "cal/history.hpp"

namespace cal {

struct ParseError {
  std::size_t line = 0;  ///< 1-based line number
  std::string message;
};

template <typename T>
struct ParseResult {
  std::optional<T> value;
  std::optional<ParseError> error;

  explicit operator bool() const noexcept { return value.has_value(); }
};

/// Parses a value token (see grammar above).
[[nodiscard]] std::optional<Value> parse_value(std::string_view token);

/// Renders a value in the grammar's syntax (inverse of parse_value).
[[nodiscard]] std::string format_value(const Value& v);

/// Parses one line of the history grammar — the streaming entry point
/// (cal-check --follow feeds a live tail through this), on the same scan
/// as parse_history. An engaged result holds the action, or std::nullopt
/// for blank/comment lines; the reported error line is always 1 (callers
/// track their own line numbers).
[[nodiscard]] ParseResult<std::optional<Action>> parse_action_line(
    std::string_view line);

/// Parses a whole history document. In the same pass it builds the
/// operation records (in invocation order) and decides well-formedness
/// (Def. 2), and the returned History keeps both (History::kept_operations)
/// for the checkers to read in place.
[[nodiscard]] ParseResult<History> parse_history(std::string_view text);

/// Serializes a history in the line grammar (inverse of parse_history).
[[nodiscard]] std::string format_history(const History& h);

/// Parses a CA-trace document of `elem` lines.
[[nodiscard]] ParseResult<CaTrace> parse_trace(std::string_view text);

/// Serializes a CA-trace in the `elem` grammar.
[[nodiscard]] std::string format_trace(const CaTrace& t);

}  // namespace cal
