"""Run the benchmark over several seeds and record one run set.

Usage (from the repository root)::

    python3 perfbench/sweep.py --out .perfbench_runs/a.jsonl \\
        [--workloads refactor_deep small_mixed] [--seeds 0-9] \\
        [--seconds 60]

Each (workload, seed) pair is one untraced ``run.py`` process, run one
after the other; its record (manifest, result, raw iterations) is appended to
``--out``.  The defaults come from ``BENCHMARK.json``.  Afterwards the
spread of every metric over the recorded seeds is printed, as
``compare.py`` would for a single set.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    """``"0-9"`` or ``"1,4,7"`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--workloads", nargs="+",
        default=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds),
                    "--trace", "0", "--record", args.out,
                ],
                capture_output=True, text=True, cwd=ROOT,
            )
            took = time.perf_counter() - start
            last = (proc.stdout.strip().splitlines() or ["(no output)"])[-1]
            print(
                f"{workload} seed {seed}: exit {proc.returncode} "
                f"in {took:.1f}s  {last[:160]}",
                flush=True,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
    from compare import load_runs, print_spreads

    print_spreads(load_runs(args.out), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
