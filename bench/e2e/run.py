#!/usr/bin/env python3
"""Builds bench_e2e and runs the end-to-end benchmark (see README.md).

One set -- every workload in a fresh process, every metric printed as
`workload metric value unit n=samples`, nonzero exit when a check fails:

    python3 bench/e2e/run.py --build build --seed 1 [--trace] [--smoke]

One run of one workload, whose last stdout line is a JSON result with the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer ones
(--trace 1):

    python3 bench/e2e/run.py --workload house-inmem --seed 3 --seconds 30 \
        --trace 0

--oracle recomputes the brute-force house count and pins it in
expected_counts.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXPECTED_COUNTS = os.path.join(HERE, "expected_counts.json")
WORKLOADS = ["house-inmem", "clique-spill", "service-short", "evolve-mixed"]
# A run may take 180 s; bench_e2e's own watchdog (300 s) is for set mode.
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 1.5

# End-to-end metrics that only some workloads report, so BENCHMARK.json,
# whose metrics every run must report, cannot list them (error_rate is on
# every workload but reads 0). Same fields as BENCHMARK.json's entries.
WORKLOAD_END_TO_END = [
    {"name": "query_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "query_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "update_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "update_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "updates_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "error_rate", "unit": "fraction", "better": "lower",
     "bound": 0.0},
]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def default_build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")


def read_cache(build_dir):
    """`build_dir`'s CMake cache as {name: value} ({} when unconfigured)."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    entries = {}
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                name, sep, value = line.partition("=")
                if sep and not line.startswith(("#", "//")):
                    entries[name.split(":")[0]] = value.strip()
    return entries


def build(build_dir):
    """Configures the top-level project with bench/e2e added to it (once),
    builds bench_e2e, and returns its path, or None on failure.

    A build directory configured from another source tree is refused, so
    two checkouts never share one bench_e2e binary."""
    build_dir = os.path.abspath(build_dir)
    hook = os.path.join(HERE, "add_to_top_level.cmake")
    cache = read_cache(build_dir)
    source = cache.get("CMAKE_HOME_DIRECTORY")
    if source and os.path.realpath(source) != os.path.realpath(ROOT):
        log("bench_e2e: %s was configured from %s, not %s; give another "
            "--build" % (build_dir, source, ROOT))
        return None
    if cache.get("CMAKE_PROJECT_INCLUDE") != hook:
        cmd = ["cmake", "-S", ROOT, "-B", build_dir,
               "-DCMAKE_PROJECT_INCLUDE=" + hook]
        if not cache and shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "bench", "e2e", "bench_e2e")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_workload(binary, workload, seed, seconds, trace=False, smoke=False,
                 oracle=False, trace_path=None):
    """Runs one workload in a fresh process; returns (result, exit code).

    The result is bench_e2e's JSON, or None when it wrote none (crash,
    refused environment, timeout).
    """
    bin_dir = os.path.dirname(binary)
    results = os.path.join(bin_dir, "results")
    os.makedirs(results, exist_ok=True)
    json_path = os.path.join(
        results, "%s-s%d%s.json" % (workload, seed, "-trace" if trace else ""))
    if os.path.exists(json_path):
        os.remove(json_path)
    workdir = os.path.join(bin_dir, "work-%d" % os.getpid())
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--json", json_path,
           "--workdir", workdir, "--expected", EXPECTED_COUNTS,
           "--git-sha", git_sha()]
    if trace:
        cmd.append("--trace")
        if trace_path:
            cmd += ["--trace-out", trace_path]
    if smoke:
        cmd.append("--smoke")
    if oracle:
        cmd.append("--oracle")
    try:
        code = subprocess.run(cmd, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S))
        code = -1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not os.path.exists(json_path):
        return None, code
    with open(json_path) as f:
        return json.load(f), code


def print_metrics(workload, result, names=None):
    for name, m in result["metrics"].items():
        if names is None or name in names:
            print("%s %s %.6g %s n=%d" % (workload, name, m["value"],
                                           m["unit"], m["n"]))
    for note in result["notes"]:
        print("%s note: %s" % (workload, note))


def report_failures(workload, result, code):
    if result is None:
        log("%s: FAILED (exit %d, no result)" % (workload, code))
        return True
    for msg in result["check_failures"]:
        log("%s: CHECK FAILED: %s" % (workload, msg))
    if code != 0 or not result["correct"]:
        log("%s: FAILED (exit %d, %d of %d checks failed)" % (
            workload, code, result["checks_failed"], result["checks_run"]))
        return True
    return False


def print_trace_summary(workload, result, trace_path):
    with open(trace_path) as f:
        trace = json.load(f)
    root = trace["root_ms"]
    total = sum(trace["layer_self_ms"].values()) + sum(
        trace["other_self_ms"].values())
    print("%s trace: %s (%d root spans, %.1f ms)" % (
        workload, trace_path, trace["roots"], root))
    for kind in ("layer_self_ms", "other_self_ms"):
        for name, ms in sorted(trace[kind].items()):
            print("%s self %-22s %10.1f ms %5.1f%%" % (
                workload, name, ms, 100.0 * ms / root if root else 0.0))
    off = abs(total - root) / root if root else 0.0
    print("%s self times sum to %.1f ms, %.2f%% off the roots (%s)" % (
        workload, total, 100 * off, "ok" if off <= 0.05 and
        trace["roots_off"] == 0 else "OVER 5%"))
    overhead = result["metrics"].get("trace.overhead_pct")
    if overhead:
        print("%s tracing overhead %+.1f%% on query_p50_ms" % (
            workload, overhead["value"]))


def pin_oracle(result):
    oracle = result.get("oracle")
    if not oracle:
        return
    with open(EXPECTED_COUNTS) as f:
        counts = json.load(f)
    counts[oracle["key"]] = oracle["count"]
    with open(EXPECTED_COUNTS, "w") as f:
        json.dump(counts, f, indent=2, sort_keys=True)
        f.write("\n")
    log("pinned %s = %d in %s" % (oracle["key"], oracle["count"],
                                  EXPECTED_COUNTS))


def run_one(args, binary):
    """Single-run mode: one workload, one JSON line at the end."""
    bench = load_benchmark()
    declared = bench["per_layer" if args.trace else "end_to_end"]
    result, code = run_workload(binary, args.workload, args.seed,
                                args.seconds, trace=bool(args.trace),
                                smoke=args.smoke, oracle=args.oracle)
    if report_failures(args.workload, result, code) and result is None:
        return 1
    if args.oracle:
        pin_oracle(result)
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(result, f)
    print_metrics(args.workload, result)
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log("%s: metric %s missing or not in %s" % (
                args.workload, m["name"], m["unit"]))
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = result["correct"] and code == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_set(args, binary):
    """Set mode: every workload, untraced; then traced under --trace."""
    failed = False
    for w in WORKLOADS:
        result, code = run_workload(binary, w, args.seed, args.seconds,
                                    smoke=args.smoke, oracle=args.oracle)
        failed |= report_failures(w, result, code)
        if result is None:
            continue
        if args.oracle:
            pin_oracle(result)
        print_metrics(w, result)
    if args.trace:
        results = os.path.join(os.path.dirname(binary), "results")
        for w in WORKLOADS:
            trace_path = os.path.join(results, "trace_%s.json" % w)
            result, code = run_workload(binary, w, args.seed, args.seconds,
                                        trace=True, smoke=args.smoke,
                                        trace_path=trace_path)
            failed |= report_failures(w, result, code)
            if result is None:
                continue
            traced = {n for n in result["metrics"]
                      if n.startswith(("trace.", "core.execute_ms",
                                       "runtime.session_self_ms"))}
            print_metrics(w + "[traced]", result, traced)
            print_trace_summary(w, result, trace_path)
    if failed:
        log("bench_e2e: at least one workload FAILED")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (single-run mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--build", default=default_build_dir(),
                        help="build directory (bench_e2e lands in "
                             "BUILD/bench/e2e)")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes and %.1f s runs" % SMOKE_SECONDS)
    parser.add_argument("--oracle", action="store_true",
                        help="recompute and pin the brute-force house count")
    parser.add_argument("--json-out",
                        help="single-run mode: also copy bench_e2e's full "
                             "result")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = (SMOKE_SECONDS if args.smoke
                        else load_benchmark()["run_seconds"])
    binary = build(args.build)
    if binary is None:
        log("bench_e2e: build failed")
        return 1
    return run_one(args, binary) if args.workload else run_set(args, binary)


if __name__ == "__main__":
    sys.exit(main())
