#!/usr/bin/env python3
"""End-to-end benchmark of the CAL library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the benchmark (perfbench/CMakeLists.txt, Release, into
.bench_build/ at the repository root) from the sources in the checkout,
runs one workload and prints its metrics. The last line of stdout is the
JSON result {"correct", "attempted", "failed", "metrics"}. Build output goes
to stderr. Workloads, metrics and the layer map are described in
perfbench/README.md.

--self-test runs every workload of BENCHMARK.json at a tiny size, checks
that each prints every metric BENCHMARK.json names with its unit, and
checks the negative control: with one expectation deliberately mislabelled
the run must report failed units.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "cal_perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the Release benchmark; False on failure."""
    if not (ROOT / "src" / "cal" / "cal_checker.hpp").is_file():
        log(f"no CAL sources under {ROOT / 'src'}")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_ROOT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_commit():
    """The checkout's commit, read from .git inside it ("unknown" if none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_binary(args, out_dir):
    """Runs the benchmark binary; returns (exit code, stdout, parsed last line)."""
    cmd = [str(BINARY), *args, "--commit", git_commit(), "--out-dir",
           str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, e.stdout or "", None
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, proc.stdout, result


def run(args):
    if not build():
        log("build failed")
        return 1
    code, out, result = run_binary(
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", str(args.trace)],
        BUILD_ROOT / "trace")
    if code != 0 or result is None:
        sys.stderr.write(out)
        log(f"run failed (exit code {code})")
        return 1
    sys.stdout.write(out)
    return 0


def self_test():
    if not build():
        log("build failed")
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    out_dir = BUILD_ROOT / "selftest"
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        base = ["--workload", name, "--seed", "7", "--seconds", "1", "--tiny"]
        for trace in (0, 1):
            code, out, result = run_binary(base + ["--trace", str(trace)],
                                           out_dir)
            where = f"{name} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, no result")
                continue
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed units")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json")
            printed = {line.split()[1]: line.split()[-1]
                       for line in out.splitlines()
                       if line.startswith("metric ")}
            if printed != want[trace]:
                problems.append(f"{where}: printed metric lines differ")
            if trace == 0 and any(v["value"] <= 0
                                  for v in result["metrics"].values()):
                problems.append(f"{where}: an end-to-end metric is not > 0")
        code, out, result = run_binary(base + ["--trace", "0", "--mislabel"],
                                       out_dir)
        if result is None or result["failed"] == 0 or result["correct"]:
            problems.append(f"{name} --mislabel: failure went uncounted")
        else:
            share = result["failed"] / result["attempted"]
            log(f"{name}: negative control failed_share = {share:.4f}")
    for p in problems:
        log(f"SELF-TEST PROBLEM: {p}")
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
