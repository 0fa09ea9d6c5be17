"""Compare two recorded run sets of the benchmark.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py RUNS.jsonl          # spreads of one set

A run set is the JSONL file that ``run.py --record`` (or ``sweep.py``)
appends to.  Runs are paired by (workload, seed); the two sets must
hold the same pairs, and each pair's manifests must agree in everything
but the code revision, or the comparison is refused.

For every workload and end-to-end metric it prints each set's sample
count, median, quartiles and the highest percentile (on the metric's
worse side) with at least ten samples beyond it, then a verdict against
the metric's bound from ``BENCHMARK.json``:

* ``worse`` — the new median is worse by more than the bound, or the
  spread exceeds the bound and every new run is worse than every base
  run;
* ``better`` — the new median is better by more than the bound and the
  new run wins at least nine tenths of the pairs (or, with a spread
  above the bound, every new run beats every base run).  A shift
  within the bound is never credited as a gain: sets recorded one after
  the other differ by that much on an unchanged program when the
  machine's speed drifts;
* ``unresolved`` — the spread of either set exceeds the bound and
  neither of the above holds;
* ``unchanged`` — otherwise.

The exit status is 1 on any ``worse`` verdict, on any pair whose new
run has more failed inputs than its base run, and on refused input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Manifest fields allowed to differ between the two sets.
REVISION_FIELDS = ("revision", "dirty")

#: Percentiles tried, highest first, for the tail column.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def load_runs(path: str) -> dict[tuple[str, int], dict]:
    """Records of one run set keyed by (workload, seed); last one wins."""
    runs = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                key = (record["workload"], record["manifest"]["seed"])
                runs[key] = record
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def tail(values: list[float], better: str) -> str:
    """Highest worse-side percentile with >= 10 samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100)
            q = p if better == "lower" else 100 - p
            return f"p{p}={cuts[q - 1]:.6g}"
    return "p-=n/a"


def verdict(base: list[float], new: list[float], metric: dict) -> str:
    """Verdict of ``new`` against ``base`` (paired lists) for a metric."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    base_median = quartiles(base)[1]
    new_median = quartiles(new)[1]
    scale = abs(base_median) or 1.0
    worse_by = sign * (new_median - base_median) / scale
    wins = sum(sign * (b - a) < 0 for a, b in zip(base, new))
    if max(spread(base), spread(new)) > bound:
        # Signed so that smaller is better for every metric.
        new_s = [sign * v for v in new]
        base_s = [sign * v for v in base]
        if max(new_s) < min(base_s):
            return "better"
        if min(new_s) > max(base_s):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > bound and wins >= 0.9 * len(base):
        return "better"
    return "unchanged"


def _metric_values(runs, workload, name) -> list[float]:
    return [
        record["end_to_end"][name]
        for (w, _), record in sorted(runs.items())
        if w == workload
    ]


def _describe(values: list[float], better: str) -> str:
    q1, median, q3 = quartiles(values)
    return (
        f"n={len(values)} med={median:.6g} q1={q1:.6g} q3={q3:.6g} "
        f"{tail(values, better)}"
    )


def print_spreads(runs: dict, spec: dict) -> None:
    """Per workload and end-to-end metric: distribution and spread."""
    for workload in sorted({w for w, _ in runs}):
        print(f"[{workload}]")
        for metric in spec["end_to_end"]:
            values = _metric_values(runs, workload, metric["name"])
            share = spread(values)
            flag = "" if share <= metric["bound"] / 3 else "  (> bound/3)"
            print(
                f"  {metric['name']:<14} {_describe(values, metric['better'])}"
                f" spread={share:.4f} bound={metric['bound']}{flag}"
            )


def refusal(base: dict, new: dict) -> str | None:
    """Why two run sets cannot be compared, or None."""
    if set(base) != set(new):
        return "the sets hold different (workload, seed) runs"
    for key in sorted(base):
        a = {k: v for k, v in base[key]["manifest"].items()
             if k not in REVISION_FIELDS}
        b = {k: v for k, v in new[key]["manifest"].items()
             if k not in REVISION_FIELDS}
        if a != b:
            diff = sorted(k for k in a.keys() | b.keys()
                          if a.get(k) != b.get(k))
            return f"manifests of {key} differ in {diff}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    base = load_runs(args.base)
    if args.new is None:
        print_spreads(base, spec)
        return 0
    new = load_runs(args.new)
    reason = refusal(base, new)
    if reason is not None:
        print(f"refused: {reason}", file=sys.stderr)
        return 2

    status = 0
    for workload in sorted({w for w, _ in base}):
        print(f"[{workload}]")
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            a = _metric_values(base, workload, name)
            b = _metric_values(new, workload, name)
            outcome = verdict(a, b, metric)
            status |= outcome == "worse"
            print(f"  {name:<14} {outcome:<10} bound={metric['bound']}")
            print(f"    base {_describe(a, better)}")
            print(f"    new  {_describe(b, better)}")
    for key in sorted(base):
        if new[key]["result"]["failed"] > base[key]["result"]["failed"]:
            print(f"more failed inputs in {key}: "
                  f"{new[key]['failures']}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
