// Quickstart: record a concurrent exchanger execution and check it for
// concurrency-aware linearizability (CAL).
//
//   $ ./quickstart
//
// Walks the core loop of the library:
//   1. build a CA-object (the wait-free exchanger of Fig. 1),
//   2. run threads against it, recording the interface history,
//   3. decide CAL membership w.r.t. the exchanger's CA-spec (Def. 6),
//   4. print the witness CA-trace.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cal/cal_checker.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "objects/exchanger.hpp"
#include "runtime/recorder.hpp"

int main() {
  using namespace cal;  // NOLINT: example
  namespace rt = cal::runtime;
  namespace obj = cal::objects;

  // 1. The object. The EpochDomain is the GC substitute for offers that
  //    racing threads may still read after a call returns.
  rt::EpochDomain ebr;
  obj::Exchanger exchanger(ebr, Symbol{"E"});

  // 2. Run four threads, each trying three exchanges, recording at the
  //    object's interface.
  rt::Recorder recorder;
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back([&, i] {
        const auto tid = static_cast<rt::ThreadId>(i);
        for (int round = 0; round < 3; ++round) {
          const std::int64_t offer = i * 10 + round;
          recorder.invoke(tid, exchanger.name(), exchanger.method(),
                          Value::integer(offer));
          obj::ExchangeResult r = exchanger.exchange(tid, offer, 2048);
          recorder.respond(tid, exchanger.name(), exchanger.method(),
                           Value::pair(r.ok, r.value));
        }
      });
    }
  }

  const History history = recorder.snapshot();
  std::printf("--- recorded history (%zu actions) ---\n%s\n", history.size(),
              history.render_ascii().c_str());

  // 3. Decide CAL membership.
  ExchangerSpec spec(exchanger.name(), exchanger.method());
  CalChecker checker(spec);
  CalCheckResult result = checker.check(history);

  //    The exchanger's spec is stateless, so the checker decides it by
  //    pairing overlapping operations in one sweep (the order path); the
  //    state-search engine runs only where a spec declines that path.
  const std::string path =
      result.order_checked
          ? "order path: " + std::to_string(result.order_values) +
                " successful exchanges paired, no search"
          : "engine: " + std::to_string(result.visited_states) +
                " states visited, " + std::to_string(result.fired_elements) +
                " elements fired";
  if (!result.ok) {
    std::printf("NOT CA-linearizable (%s)\n", path.c_str());
    return 1;
  }

  // 4. The witness: a CA-trace in the spec's trace-set that the history
  //    agrees with. Swap elements pair the two operations that "seem to
  //    take effect simultaneously".
  std::printf("CA-linearizable. Witness CA-trace:\n%s",
              result.witness->to_string().c_str());
  std::printf("(decided by the %s)\n", path.c_str());
  return 0;
}
