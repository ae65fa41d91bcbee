// cal-check — command-line membership checker for recorded histories.
//
//   cal-check --spec exchanger:E [--checker cal|set-lin] [FILE]
//   cal-check --spec stack:S --checker lin history.txt
//   cal-check --spec exchanger:E --jobs 8 traces/*.history
//
// Reads one or more histories in the line format of cal/text.hpp (stdin
// when no FILE is given), decides membership w.r.t. the named
// specification, prints the verdict and (on acceptance) the witness, and
// exits 0/1/2 for accept/reject/usage-or-parse error. With several FILEs
// the verdicts are prefixed with the file name and printed in argument
// order; --jobs N checks the files through a parallel pipeline, and the
// exit code is the worst per-file code.
//
// Flags:
//   --jobs N          check files concurrently on N pool workers (0 = #cores)
//   --threads N       worker threads *inside* each CAL check
//                     (CalCheckOptions::threads; 0 = #cores, default 1)
//   --exact-visited   dedup visited search nodes by full stored keys
//                     instead of 128-bit fingerprints (CalCheckOptions::
//                     exact_visited): more memory, zero false-prune risk
//   --symmetry        merge search states that differ only in which of a
//                     set of spec-interchangeable operations fired
//                     (CalCheckOptions::symmetry); verdict unchanged
//   --no-order-check  force the engine search even when the spec offers a
//                     polynomial order_check decision (exchanger,
//                     sync-queue, stack, queue, pq), for --checker cal and
//                     lin alike. The verdict line
//                     always names the path that ran: `path=order` with
//                     its value/zone/bump counters, or `path=engine` with
//                     the search counters. --follow always streams through
//                     the engine (the incremental checker has no order
//                     path).
//   --follow          streaming mode: consume actions line-by-line (stdin
//                     or one FILE, e.g. a live tail) through the
//                     incremental checker, deciding window-by-window with
//                     per-window progress on stderr. A violation exits 1
//                     within one window of the offending response and
//                     prints the consumed prefix as a replayable history.
//   --window N        actions per streaming window (--follow; default 16,
//                     at least 1). --follow refuses --symmetry: the
//                     incremental checker has no symmetry groups.
//
// Specs:
//   exchanger:<obj>[:<method>]   CA-spec (swap pairs / failures)
//   sync-queue:<obj>             CA-spec (put/take hand-offs)
//   snapshot:<obj>               CA-spec (immediate snapshot, unbounded)
//   stack:<obj>                  sequential (push always true; pop blocks)
//   central-stack:<obj>          sequential with spurious CAS failures
//   queue:<obj>                  sequential FIFO
//   pq:<obj>                     sequential priority queue (insert/deleteMin)
//   register:<obj>               sequential read/write register
// Sequential specs work with every checker (wrapped in SeqAsCaSpec for
// cal/set-lin); CA-specs reject --checker lin. exchanger, sync-queue,
// stack, queue and pq carry the polynomial order-check fast path.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cal/cal_checker.hpp"
#include "cal/engine/incremental.hpp"
#include "cal/lin_checker.hpp"
#include "cal/parallel/task_pool.hpp"
#include "cal/set_lin.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/priority_queue_spec.hpp"
#include "cal/specs/queue_spec.hpp"
#include "cal/specs/snapshot_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "cal/specs/sync_queue_spec.hpp"
#include "cal/text.hpp"

namespace {

using namespace cal;  // NOLINT: tool

struct Options {
  std::string spec;
  std::string checker = "cal";
  std::vector<std::string> files;  // empty = stdin
  bool quiet = false;
  std::size_t jobs = 1;     // files checked concurrently (0 = #cores)
  std::size_t threads = 1;  // CalCheckOptions::threads per check
  bool exact_visited = false;  // CalCheckOptions::exact_visited
  bool symmetry = false;       // CalCheckOptions::symmetry
  bool order_check = true;     // Cal/LinCheckOptions::order_check
  bool follow = false;         // streaming incremental mode
  std::size_t window = 16;     // IncrementalOptions::window
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --spec KIND:OBJ[:METHOD] [--checker cal|lin|set-lin]\n"
      "          [--quiet] [--jobs N] [--threads N] [--exact-visited]\n"
      "          [--symmetry] [--no-order-check] [--follow [--window N]]\n"
      "          [FILE...]\n"
      "spec kinds: exchanger sync-queue snapshot stack central-stack queue "
      "pq register\n",
      argv0);
  return 2;
}

struct SpecBundle {
  std::shared_ptr<SequentialSpec> seq;  // set for sequential kinds
  std::shared_ptr<CaSpec> ca;           // always set
};

std::optional<SpecBundle> make_spec(const std::string& desc) {
  std::vector<std::string> parts;
  std::stringstream ss(desc);
  std::string piece;
  while (std::getline(ss, piece, ':')) parts.push_back(piece);
  if (parts.size() < 2 || parts[1].empty()) return std::nullopt;
  const std::string& kind = parts[0];
  const Symbol object{parts[1]};

  SpecBundle b;
  if (kind == "exchanger") {
    const Symbol method{parts.size() > 2 ? parts[2] : "exchange"};
    b.ca = std::make_shared<ExchangerSpec>(object, method);
  } else if (kind == "sync-queue") {
    b.ca = std::make_shared<SyncQueueSpec>(object);
  } else if (kind == "snapshot") {
    b.ca = std::make_shared<SnapshotSpec>(object);
  } else if (kind == "stack") {
    b.seq = std::make_shared<StackSpec>(object);
  } else if (kind == "central-stack") {
    b.seq = std::make_shared<CentralStackSpec>(object);
  } else if (kind == "queue") {
    b.seq = std::make_shared<QueueSpec>(object);
  } else if (kind == "pq") {
    b.seq = std::make_shared<PriorityQueueSpec>(object);
    // SeqAsCaSpec plus symmetry classes.
    b.ca = std::make_shared<PriorityQueueCaSpec>(object);
  } else if (kind == "register") {
    b.seq = std::make_shared<RegisterSpec>(object);
  } else {
    return std::nullopt;
  }
  if (b.seq && !b.ca) b.ca = std::make_shared<SeqAsCaSpec>(b.seq);
  return b;
}

/// Outcome of checking one input: the process-style exit code plus the
/// text for each stream. Batch mode buffers these so a parallel pipeline
/// still prints verdicts in argument order.
struct CheckOutcome {
  int code = 2;
  std::string out;  // stdout text
  std::string err;  // stderr text
};

CheckOutcome check_text(const Options& opt, const SpecBundle& spec,
                        const std::string& text) {
  CheckOutcome o;
  ParseResult<History> parsed = parse_history(text);
  if (!parsed) {
    o.err = "parse error at line " + std::to_string(parsed.error->line) +
            ": " + parsed.error->message + "\n";
    return o;
  }
  const History& history = *parsed.value;
  const std::optional<std::vector<OpRecord>> ops =
      history.well_formed_operations();
  if (!ops) {
    o.out = "REJECT: history is not well-formed\n";
    o.code = 1;
    return o;
  }

  if (opt.checker == "cal") {
    CalCheckOptions copts;
    copts.threads = opt.threads;
    copts.exact_visited = opt.exact_visited;
    copts.symmetry = opt.symmetry;
    copts.order_check = opt.order_check;
    CalChecker checker(*spec.ca, copts);
    CalCheckResult r = checker.check(*ops);
    std::string stats;
    if (r.order_checked) {
      stats = "path=order, " + std::to_string(r.order_values) + " values, " +
              std::to_string(r.order_zones) + " zones, " +
              std::to_string(r.order_bumps) + " bumps";
    } else {
      stats = "path=engine, " + std::to_string(r.visited_states) +
              " states, " + std::to_string(r.visited_bytes) +
              " visited bytes, " + std::to_string(r.step_cache_hits) + "/" +
              std::to_string(r.step_cache_hits + r.step_cache_misses) +
              " step-cache hits, " + std::to_string(r.pruned_subsets) +
              " pruned subsets";
      if (opt.symmetry) {
        stats +=
            ", " + std::to_string(r.symmetry_merged) + " symmetry merges";
      }
    }
    if (r.ok) {
      if (!opt.quiet) {
        o.out = "ACCEPT: CA-linearizable (" + stats + ")\nwitness:\n" +
                format_trace(*r.witness);
      } else {
        o.out = "ACCEPT\n";
      }
      o.code = 0;
      return o;
    }
    o.out = "REJECT: not CA-linearizable (" + stats +
            (r.exhausted ? ", search exhausted" : "") + ")\n";
    o.code = 1;
    return o;
  }
  if (opt.checker == "set-lin") {
    SetLinChecker checker(*spec.ca);
    SetLinResult r = checker.check(history);
    if (r.ok) {
      if (!opt.quiet) {
        o.out = "ACCEPT: set-linearizable\nwitness:\n" +
                format_trace(*r.witness);
      } else {
        o.out = "ACCEPT\n";
      }
      o.code = 0;
      return o;
    }
    o.out = "REJECT: not set-linearizable\n";
    o.code = 1;
    return o;
  }
  if (opt.checker == "lin") {
    LinCheckOptions lopts;
    lopts.order_check = opt.order_check;
    LinChecker checker(*spec.seq, lopts);
    LinCheckResult r = checker.check(*ops);
    const std::string stats =
        r.order_checked
            ? std::string("path=order")
            : "path=engine, " + std::to_string(r.visited_states) + " states";
    if (r.ok) {
      if (!opt.quiet && r.witness) {
        o.out = "ACCEPT: linearizable (" + stats +
                ")\nwitness linearization:\n";
        for (const Operation& op : *r.witness) {
          o.out += "  " + op.to_string() + "\n";
        }
      } else {
        o.out = "ACCEPT\n";
      }
      o.code = 0;
      return o;
    }
    o.out = "REJECT: not linearizable (" + stats +
            (r.exhausted ? ", search exhausted" : "") + ")\n";
    o.code = 1;
    return o;
  }
  o.err = "unknown checker '" + opt.checker + "'\n";
  return o;
}

/// Streaming mode: pushes each parsed line into the incremental checker,
/// reporting per-window progress on stderr. Output matches the batch
/// format (ACCEPT/REJECT first line, witness on acceptance); a rejection
/// additionally prints the consumed action prefix, which is itself a valid
/// history document — replayable through the batch checker.
int run_follow(const Options& opt, const SpecBundle& spec, std::istream& in) {
  engine::IncrementalOptions iopts;
  iopts.window = opt.window;
  iopts.threads = opt.threads;
  iopts.exact_visited = opt.exact_visited;
  engine::IncrementalChecker checker(*spec.ca, iopts);

  History consumed;
  std::string raw;
  std::size_t line_no = 0;
  std::size_t last_window = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    // Writer-side `!dropped <n>` directive: wait-free recorders emit it
    // when their publish log overflowed. A nonzero count means the stream
    // is missing actions, so any verdict over it would be unsound — bail
    // out with the infrastructure exit code rather than report ACCEPT or
    // REJECT over a hole.
    if (raw.rfind("!dropped", 0) == 0) {
      long long n = -1;
      if (std::sscanf(raw.c_str(), "!dropped %lld", &n) != 1 || n < 0) {
        std::fprintf(stderr,
                     "parse error at line %zu: malformed !dropped directive\n",
                     line_no);
        return 2;
      }
      if (n > 0) {
        std::fprintf(stderr,
                     "warning: writer dropped %lld action(s); the stream is "
                     "incomplete, refusing to give a verdict\n",
                     n);
        return 2;
      }
      continue;
    }
    ParseResult<std::optional<Action>> parsed = parse_action_line(raw);
    if (!parsed) {
      std::fprintf(stderr, "parse error at line %zu: %s\n", line_no,
                   parsed.error->message.c_str());
      return 2;
    }
    if (!*parsed.value) continue;  // blank / comment
    consumed.append(**parsed.value);
    checker.push(**parsed.value);

    const auto& s = checker.status();
    if (!opt.quiet && s.windows_checked > last_window) {
      last_window = s.windows_checked;
      std::fprintf(stderr,
                   "window %zu: %zu actions, %zu/%zu ops completed, "
                   "frontier %zu, active %zu, retired %zu\n",
                   s.windows_checked, s.actions_consumed, s.completed,
                   s.operations, s.frontier_size, s.active_ops,
                   s.retired_ops);
    }
    if (!s.ok) break;
  }
  checker.finish();

  const auto& s = checker.status();
  const std::string stats = std::to_string(s.visited_states) + " states, " +
                            std::to_string(s.windows_checked) + " windows, " +
                            std::to_string(s.actions_consumed) + " actions";
  if (s.ok) {
    if (opt.quiet) {
      std::printf("ACCEPT\n");
    } else {
      std::printf("ACCEPT: CA-linearizable (%s)\n", stats.c_str());
      if (const auto w = checker.witness()) {
        std::printf("witness:\n%s", format_trace(*w).c_str());
      }
    }
    return 0;
  }
  std::printf("REJECT: not CA-linearizable (%s%s)\n", stats.c_str(),
              s.exhausted ? ", search exhausted" : "");
  if (!opt.quiet) {
    std::printf("window %zu: %s\n", s.violation_window, s.reason.c_str());
    std::printf("consumed prefix (replayable):\n%s",
                format_history(consumed).c_str());
  }
  return 1;
}

CheckOutcome check_file(const Options& opt, const SpecBundle& spec,
                        const std::string& file) {
  std::ifstream in(file);
  if (!in) {
    CheckOutcome o;
    o.err = "cannot open " + file + "\n";
    return o;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return check_text(opt, spec, buf.str());
}

/// Emits one buffered outcome, prefixing each stdout line with the file
/// name in multi-file mode.
void emit(const CheckOutcome& o, const std::string& prefix) {
  if (!o.err.empty()) std::fputs(o.err.c_str(), stderr);
  if (o.out.empty()) return;
  if (prefix.empty()) {
    std::fputs(o.out.c_str(), stdout);
    return;
  }
  std::istringstream lines(o.out);
  std::string line;
  while (std::getline(lines, line)) {
    std::printf("%s: %s\n", prefix.c_str(), line.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string bad_count_flag;  // name of the flag with a bad count value
  auto parse_count = [&](const char* flag, const char* s) -> std::size_t {
    // stoul accepts "-1" (wrapping to SIZE_MAX), so insist on plain digits
    // and a sane ceiling before handing the count to a thread pool.
    const std::string v = s;
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
      bad_count_flag = flag;
      return 1;
    }
    try {
      const unsigned long n = std::stoul(v);
      if (n > 4096) {
        bad_count_flag = flag;
        return 1;
      }
      return static_cast<std::size_t>(n);
    } catch (...) {
      bad_count_flag = flag;
      return 1;
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec" && i + 1 < argc) {
      opt.spec = argv[++i];
    } else if (arg == "--checker" && i + 1 < argc) {
      opt.checker = argv[++i];
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      opt.jobs = parse_count("--jobs", argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      opt.threads = parse_count("--threads", argv[++i]);
    } else if (arg == "--exact-visited") {
      opt.exact_visited = true;
    } else if (arg == "--symmetry") {
      opt.symmetry = true;
    } else if (arg == "--no-order-check") {
      opt.order_check = false;
    } else if (arg == "--follow") {
      opt.follow = true;
    } else if (arg == "--window" && i + 1 < argc) {
      opt.window = parse_count("--window", argv[++i]);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage(argv[0]);
    } else {
      opt.files.push_back(arg);
    }
  }
  if (!bad_count_flag.empty()) {
    std::fprintf(stderr, "bad count for %s: expected 0..4096\n",
                 bad_count_flag.c_str());
    return usage(argv[0]);
  }
  if (opt.spec.empty()) return usage(argv[0]);

  const auto spec = make_spec(opt.spec);
  if (!spec) {
    std::fprintf(stderr, "bad --spec '%s'\n", opt.spec.c_str());
    return usage(argv[0]);
  }
  if (opt.checker == "lin" && !spec->seq) {
    std::fprintf(stderr,
                 "--checker lin needs a sequential spec; '%s' is a "
                 "CA-spec (that impossibility is the point of the paper — "
                 "use cal or set-lin)\n",
                 opt.spec.c_str());
    return 2;
  }

  if (opt.follow) {
    if (opt.checker != "cal") {
      std::fprintf(stderr, "--follow streams through the cal checker only\n");
      return 2;
    }
    if (opt.files.size() > 1) {
      std::fprintf(stderr, "--follow takes at most one FILE\n");
      return 2;
    }
    if (opt.window == 0) {
      std::fprintf(stderr, "bad count for --window: expected 1..4096\n");
      return 2;
    }
    if (opt.symmetry) {
      std::fprintf(stderr,
                   "--symmetry is not supported with --follow (the "
                   "incremental checker has no symmetry groups)\n");
      return 2;
    }
    if (opt.files.empty()) return run_follow(opt, *spec, std::cin);
    std::ifstream in(opt.files.front());
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", opt.files.front().c_str());
      return 2;
    }
    return run_follow(opt, *spec, in);
  }

  if (opt.files.empty()) {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    CheckOutcome o = check_text(opt, *spec, buf.str());
    emit(o, "");
    return o.code;
  }
  if (opt.files.size() == 1) {
    CheckOutcome o = check_file(opt, *spec, opt.files.front());
    emit(o, "");
    return o.code;
  }

  // Batch pipeline: fan the files out over a pool, then report in
  // argument order. The worst per-file exit code wins.
  std::vector<CheckOutcome> outcomes(opt.files.size());
  const std::size_t jobs =
      std::min(par::resolve_threads(opt.jobs), opt.files.size());
  if (jobs > 1) {
    par::TaskPool pool(jobs);
    for (std::size_t i = 0; i < opt.files.size(); ++i) {
      pool.submit([&, i] { outcomes[i] = check_file(opt, *spec, opt.files[i]); });
    }
    pool.wait_idle();
  } else {
    for (std::size_t i = 0; i < opt.files.size(); ++i) {
      outcomes[i] = check_file(opt, *spec, opt.files[i]);
    }
  }
  int code = 0;
  for (std::size_t i = 0; i < opt.files.size(); ++i) {
    emit(outcomes[i], opt.files[i]);
    code = std::max(code, outcomes[i].code);
  }
  return code;
}
