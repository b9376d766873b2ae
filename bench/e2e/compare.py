#!/usr/bin/env python3
"""Compares a parent and a change with bench_e2e (see README.md).

    python3 bench/e2e/compare.py --parent ../parent --change . [--pairs 10]
    python3 bench/e2e/compare.py --self [--pairs 5]
    python3 bench/e2e/compare.py --load runs.jsonl

Runs each workload on both checkouts in pairs, alternating which side runs
first, and prints one row per (workload, end-to-end metric): each side's
median and quartiles, the share of pairs the change wins (ties count for
neither), whether the medians differ by more than the parent's
interquartile spread, and a verdict against the metric's bound. Bounds come
from BENCHMARK.json and run.py's WORKLOAD_END_TO_END, both read from the
checkout this script is in. A metric whose parent spread exceeds its bound
is "unresolved" unless every change run beats every parent run. --self runs
two sets of the same checkout; otherwise the sides must be different
checkouts, and different commits where both are git checkouts. Exits 1 on
a regression or an unresolved metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
import run  # noqa: E402  (WORKLOADS, WORKLOAD_END_TO_END)

# A gain needs at least this many pairs; fewer cannot support one.
MIN_GAIN_PAIRS = 10


def run_side(checkout, workload, seed, seconds, out_json):
    """One run of `workload` on `checkout`; returns bench_e2e's result."""
    cmd = [sys.executable, os.path.join("bench", "e2e", "run.py"),
           "--workload", workload, "--seed", str(seed), "--json-out",
           out_json]
    if seconds:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.DEVNULL)
    if proc.returncode != 0 or not os.path.exists(out_json):
        sys.exit("compare: %s failed on %s (exit %d)" % (
            workload, checkout, proc.returncode))
    with open(out_json) as f:
        return json.load(f)


def collect(args, log_path):
    """Runs the pairs; returns records {pair, side, workload, result}."""
    parent = os.path.abspath(args.parent)
    change = os.path.abspath(args.change)
    out_dir = os.path.dirname(log_path)
    records = []
    shas = {}
    with open(log_path, "w") as log:
        for pair in range(args.pairs):
            order = [("parent", parent), ("change", change)]
            if pair % 2 == 1:
                order.reverse()
            for workload in args.workload:
                for side, checkout in order:
                    out = os.path.join(out_dir, "run.json")
                    result = run_side(checkout, workload, args.seed,
                                      args.seconds, out)
                    shas[side] = result["env"]["git_sha"]
                    if (not args.self and len(shas) == 2
                            and shas["parent"] == shas["change"] != "unknown"):
                        sys.exit("compare: parent and change both ran commit "
                                 "%s; use --self to compare a commit with "
                                 "itself" % shas["parent"])
                    record = {"pair": pair, "side": side,
                              "workload": workload, "result": result}
                    records.append(record)
                    log.write(json.dumps(record) + "\n")
                    log.flush()
                    print("pair %d %s %s done" % (pair, side, workload),
                          file=sys.stderr, flush=True)
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change):
    """Row for one (workload, metric) from paired value lists."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(c, p):
        return c < p if lower else c > p

    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(better(c, p) for c, p in zip(change, parent)) / len(parent)
    spread = p3 - p1
    beyond_spread = abs(cm - pm) > spread
    if pm != 0:
        worse_by = (cm - pm) / abs(pm) if lower else (pm - cm) / abs(pm)
        rel_spread = spread / abs(pm)
    else:
        worse_by = float("inf") if better(pm, cm) else 0.0
        rel_spread = 0.0 if spread == 0 else float("inf")
    if (len(parent) >= MIN_GAIN_PAIRS and wins >= 0.9 and beyond_spread
            and better(cm, pm)):
        outcome = "gain"
    elif rel_spread > bound:
        every = all(better(c, p) for c in change for p in parent)
        outcome = "better in every run" if every else "unresolved"
    elif worse_by > bound:
        outcome = "REGRESSION"
    else:
        outcome = "within bound"
    return {"parent": (pm, p1, p3), "change": (cm, c1, c3), "wins": wins,
            "beyond_spread": beyond_spread, "worse_by": worse_by,
            "rel_spread": rel_spread, "bound": bound, "verdict": outcome}


def report(records):
    metrics = run.load_benchmark()["end_to_end"] + run.WORKLOAD_END_TO_END
    workloads = sorted({r["workload"] for r in records},
                       key=run.WORKLOADS.index)
    print("%-13s %-14s %26s %26s %5s %6s %8s %6s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", ">IQR", "worse by", "bound",
        "verdict"))
    bad = 0
    for w in workloads:
        for m in metrics:
            values = {"parent": {}, "change": {}}
            for r in records:
                got = r["result"]["metrics"].get(m["name"])
                if r["workload"] == w and got is not None:
                    values[r["side"]][r["pair"]] = got["value"]
            pairs = sorted(set(values["parent"]) & set(values["change"]))
            if not pairs:
                continue
            row = verdict(m, [values["parent"][i] for i in pairs],
                          [values["change"][i] for i in pairs])
            bad += row["verdict"] in ("REGRESSION", "unresolved")
            print("%-13s %-14s %26s %26s %4.0f%% %6s %+7.1f%% %5.0f%%  %s" % (
                w, m["name"],
                "%.4g [%.4g, %.4g]" % row["parent"],
                "%.4g [%.4g, %.4g]" % row["change"],
                100 * row["wins"], "yes" if row["beyond_spread"] else "no",
                100 * row["worse_by"], 100 * row["bound"], row["verdict"]))
            print("%-13s %-14s parent spread %.1f%% of its median, n=%d "
                  "pairs" % ("", "", 100 * row["rel_spread"], len(pairs)))
    return bad


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--self", action="store_true",
                        help="compare two sets of runs of this checkout")
    parser.add_argument("--load", help="re-analyse a saved runs.jsonl")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds (default: BENCHMARK.json's)")
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".bench_build", "compare-%d" % int(time.time())))
    args = parser.parse_args()

    if args.load:
        with open(args.load) as f:
            records = [json.loads(line) for line in f]
    else:
        if args.self:
            args.parent = args.change = ROOT
        if not (args.parent and args.change):
            parser.error("give --parent and --change, --self, or --load")
        if not args.self and (os.path.realpath(args.parent) ==
                              os.path.realpath(args.change)):
            parser.error("--parent and --change are one checkout; use --self")
        if args.pairs < (5 if args.self else 10):
            parser.error("need at least %d pairs" % (5 if args.self else 10))
        args.workload = args.workload or run.WORKLOADS
        os.makedirs(args.out, exist_ok=True)
        log_path = os.path.join(args.out, "runs.jsonl")
        records = collect(args, log_path)
        print("runs saved to %s" % log_path, file=sys.stderr)
    bad = report(records)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
