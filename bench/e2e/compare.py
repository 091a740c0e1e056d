#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results against the bounds in
BENCHMARK.json.

    python3 bench/e2e/compare.py BASE CHANGE

BASE and CHANGE are each an untraced result set written by
`run.sh --out FILE`, or a directory of such files (several runs of one
commit; traced sets in it are skipped). For every (end-to-end
metric, workload) pair one row is printed:

  better         the change's median is better than the base's by more
                 than the bound
  worse          the change's median is worse than the base's by more than
                 the bound, or the change fails operations the base did not
  within-bound   neither
  unresolved     the base's own runs spread (quartile distance over median)
                 wider than the bound, and not every change run beats every
                 base run

Exits 1 if any row is "worse", 2 on unusable input.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def die(msg):
    print(f"compare.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_sets(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    sets = []
    for name in files:
        with open(name) as f:
            data = json.load(f)
        if data.get("trace"):
            if os.path.isdir(path):
                continue  # a directory may hold traced sets beside untraced ones
            die(f"{name} is a traced set; compare untraced sets")
        sets.append(data["results"])
    if not sets:
        die(f"no result sets in {path}")
    return sets


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def classify(base, change, better, bound):
    """One row's verdict; `base`/`change` are lists of the metric's values."""
    sign = 1 if better == "lower" else -1
    b, c = statistics.median(base), statistics.median(change)
    worse_by = sign * (c - b) / b
    if spread(base) > bound:
        beats = (max(change) < min(base)) if better == "lower" else (
            min(change) > max(base))
        return ("better" if beats else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "within-bound", worse_by


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        bench = json.load(f)
    base, change = load_sets(argv[1]), load_sets(argv[2])
    print(f"{'workload':16} {'metric':16} {'base':>12} {'change':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    any_worse = False
    for w in (w["name"] for w in bench["workloads"]):
        try:
            base_runs = [s[w] for s in base]
            change_runs = [s[w] for s in change]
        except KeyError:
            die(f"workload {w} missing from a result set")
        base_failed = max(r["failed"] for r in base_runs)
        change_failed = max(r["failed"] for r in change_runs)
        if change_failed > base_failed or not all(r["correct"] for r in change_runs):
            print(f"{w:16} {'failed':16} {base_failed:>12} {change_failed:>12} "
                  f"{'':>9} {'':>6}  worse")
            any_worse = True
        for m in bench["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base_runs]
            c = [r["metrics"][name]["value"] for r in change_runs]
            verdict, worse_by = classify(b, c, m["better"], m["bound"])
            any_worse |= verdict == "worse"
            print(f"{w:16} {name:16} {statistics.median(b):12.6g} "
                  f"{statistics.median(c):12.6g} {worse_by:+9.3f} "
                  f"{m['bound']:6.2f}  {verdict}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
