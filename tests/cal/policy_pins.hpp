// Pinned search counters and witnesses of the two searches that run the
// CAL policy outside CalChecker: LinChecker's engine path (order check
// off) on the engine-equivalence lin corpus, and IncrementalChecker on the
// example-history and wide-overlap streams.
//
// Each function renders one line per (input, dedup mode) — verdict, the
// counters and the witness — and the suites compare the lines with the
// expected values in tests/cal/data/. Those values were recorded before
// the lin engine and the streaming windows moved onto engine::CalPolicy,
// when each still had its own policy, so they pin the merge to the
// searches it replaced: same nodes in the same order, same memo traffic,
// byte-identical witnesses.
#pragma once

#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cal/engine/incremental.hpp"
#include "cal/lin_checker.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "corpus.hpp"

namespace cal::pins {

/// The lin corpus of test_engine_equivalence: its handcrafted stack
/// histories, GarbageStackRuns and PendingInvocations at seeds 0–9.
inline std::vector<std::pair<std::string, History>> lin_corpus() {
  std::vector<std::pair<std::string, History>> out;
  const auto iv = [](std::int64_t x) { return Value::integer(x); };
  out.emplace_back("empty", History{});
  out.emplace_back("push-pop", HistoryBuilder()
                                   .op(1, "S", "push", iv(1),
                                       Value::boolean(true))
                                   .op(2, "S", "pop", Value::unit(),
                                       Value::pair(true, 1))
                                   .history());
  out.emplace_back("push-pop-wrong", HistoryBuilder()
                                         .op(1, "S", "push", iv(1),
                                             Value::boolean(true))
                                         .op(2, "S", "pop", Value::unit(),
                                             Value::pair(true, 2))
                                         .history());
  out.emplace_back("concurrent", HistoryBuilder()
                                     .call(1, "S", "push", iv(7))
                                     .call(2, "S", "pop")
                                     .ret(2, Value::pair(true, 7))
                                     .ret(1, Value::boolean(true))
                                     .history());
  for (unsigned seed = 0; seed < 10; ++seed) {
    std::mt19937 rng(seed + 100);
    for (int round = 0; round < 3; ++round) {
      out.emplace_back("garbage/s" + std::to_string(seed) + "/r" +
                           std::to_string(round),
                       garbage_stack_history(rng, 6));
    }
  }
  for (unsigned seed = 0; seed < 10; ++seed) {
    std::mt19937 rng(seed + 300);
    std::vector<Action> actions = garbage_stack_history(rng, 5).actions();
    if (!actions.empty()) actions.pop_back();  // drop the last response
    History pending{std::move(actions)};
    if (!pending.well_formed()) continue;
    out.emplace_back("pending/s" + std::to_string(seed), std::move(pending));
  }
  return out;
}

inline std::vector<std::string> lin_pin_lines() {
  const StackSpec spec(Symbol{"S"});
  std::vector<std::string> lines;
  for (const auto& [name, h] : lin_corpus()) {
    for (bool exact : {false, true}) {
      LinCheckOptions opts;
      opts.exact_visited = exact;
      opts.order_check = false;
      const LinCheckResult r = LinChecker(spec, opts).check(h);
      std::string line = "lin " + name + " exact=" + (exact ? "1" : "0") +
                         " ok=" + (r.ok ? "1" : "0") +
                         " visited=" + std::to_string(r.visited_states) +
                         " hits=" + std::to_string(r.step_cache_hits) +
                         " misses=" + std::to_string(r.step_cache_misses) +
                         " witness=";
      if (r.witness) {
        for (const Operation& op : *r.witness) line += op.to_string() + ";";
      }
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

inline std::vector<std::string> incremental_pin_lines() {
  const Symbol kE{"E"};
  const ExchangerSpec exchanger(kE, Symbol{"exchange"});
  const SeqAsCaSpec stack(std::make_shared<StackSpec>(Symbol{"S"}));
  const std::vector<std::tuple<std::string, const CaSpec*, History>> streams =
      {{"fig3_h1", &exchanger, load_history("fig3_h1.history")},
       {"fig3_h3", &exchanger, load_history("fig3_h3.history")},
       {"stack", &stack, load_history("stack.history")},
       {"wide6", &exchanger, wide_overlap_history(6, false)},
       {"wide6-corrupt", &exchanger, wide_overlap_history(6, true)}};
  std::vector<std::string> lines;
  for (const auto& [name, spec, h] : streams) {
    for (std::size_t window : {1, 2, 16}) {
      for (bool exact : {false, true}) {
        engine::IncrementalOptions opts;
        opts.window = window;
        opts.exact_visited = exact;
        opts.order_check = false;  // the pins are the engine windows'
        engine::IncrementalChecker inc(*spec, opts);
        inc.push(h);
        inc.finish();
        const engine::IncrementalStatus& s = inc.status();
        std::string line =
            "inc " + name + " window=" + std::to_string(window) +
            " exact=" + (exact ? "1" : "0") + " ok=" + (s.ok ? "1" : "0") +
            " windows=" + std::to_string(s.windows_checked) +
            " visited=" + std::to_string(s.visited_states) +
            " frontier=" + std::to_string(s.frontier_size) +
            " retired=" + std::to_string(s.retired_ops) + " witness=";
        if (const std::optional<CaTrace> w = inc.witness()) {
          for (const CaElement& e : w->elements()) line += e.to_string() + ";";
        }
        lines.push_back(std::move(line));
      }
    }
  }
  return lines;
}

/// The lines of `path` that start with `prefix` (the expected values).
inline std::vector<std::string> expected_lines(const std::string& path,
                                               const std::string& prefix) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

}  // namespace cal::pins
