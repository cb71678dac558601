#!/usr/bin/env python3
"""Steadiness check for the step benchmark.

    python3 stepbench/steady.py [--runs 10] [--seconds 20] [--trace 0|1|both]

Runs every workload --runs times through run.py, interleaved (round i
runs each workload once, with seed i + 1), and prints for every
metric the median, the quartiles (statistics.quantiles, n=4), min/max and
the quartile spread as a share of the median. With --trace both, each
round also runs the traced variant, and the summary adds the tracing
overhead (traced train.step_s over untraced step_s) and the Gist step-time
ratio (gist-train over dense-train step_s, paired by round).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dense-train", "gist-train", "budget-fleet")


def run_once(workload, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed "
                 f"(exit {p.returncode}):\n{p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith("# detail "):
            detail = json.loads(line[len("# detail "):])
            result["metrics"]["step_median_s"] = {
                "value": detail["step_median_s"], "unit": "s"}
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / med if med else float("nan")}


def print_table(title, results):
    print(f"\n== {title}: {len(results)} runs")
    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"correct: {ok}; attempted {min(r['attempted'] for r in results)}"
          f"-{max(r['attempted'] for r in results)}; failed share "
          f"{sorted(shares)}")
    print(f"{'metric':34} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'min':>12} {'max':>12} {'IQR/med':>8}")
    for name in sorted(results[0]["metrics"]):
        unit = results[0]["metrics"][name]["unit"]
        s = summarize([r["metrics"][name]["value"] for r in results])
        print(f"{name:34} {unit:8} {s['median']:12.6g} {s['q1']:12.6g} "
              f"{s['q3']:12.6g} {s['min']:12.6g} {s['max']:12.6g} "
              f"{s['spread']:8.4f}")


def print_ratio(title, values):
    s = summarize(values)
    print(f"{title}: median {s['median']:.4f}, quartiles {s['q1']:.4f}"
          f"..{s['q3']:.4f}, min {s['min']:.4f}, max {s['max']:.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    results = {(w, t): [] for w in WORKLOADS for t in traces}
    for i in range(args.runs):
        for w in WORKLOADS:
            for t in traces:
                r = run_once(w, i + 1, args.seconds, t)
                results[(w, t)].append(r)
                print(f"run {i} {w} trace={t} correct={r['correct']}",
                      file=sys.stderr, flush=True)

    for (w, t), rs in results.items():
        print_table(f"{w} trace={t}", rs)
    if args.trace == "both":
        print()
        for w in WORKLOADS:
            print_ratio(f"tracing overhead {w} (traced/untraced step_s)",
                        [b["metrics"]["train.step_s"]["value"] /
                         a["metrics"]["step_s"]["value"]
                         for a, b in zip(results[(w, 0)], results[(w, 1)])])
    if 0 in traces:
        print_ratio("gist-train / dense-train step_s (paired by run)",
                    [g["metrics"]["step_s"]["value"] /
                     d["metrics"]["step_s"]["value"]
                     for d, g in zip(results[("dense-train", 0)],
                                     results[("gist-train", 0)])])
    return 0


if __name__ == "__main__":
    sys.exit(main())
