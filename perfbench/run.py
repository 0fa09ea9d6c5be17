"""Repository benchmark: read -> optimize -> write, checked, per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload refactor_deep --seed 1 \\
        --seconds 60 --trace 0 [--record runs.jsonl]

The benchmark generates the workload's inputs from ``--seed``, writes
them as binary AIGER, and then runs iterations until ``--seconds`` are
used up.  Each iteration is a fresh single-threaded process
(``worker.py``) that reads the inputs with ``read_aiger``, runs the
workload's script(s) with the GPU engine and writes the results with
``write_aag``.  Every output is checked against its input by the
benchmark's own simulator (``simcheck.py``), outside the timed region;
``small_mixed`` outputs also go through full SAT CEC.

``--trace 0`` reports the end-to-end metrics (wall times are means over
the run's samples, QoR and modeled time come from the first iteration);
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics, including ``trace_overhead_frac``.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run manifest.  ``--record``
appends the manifest, the result and the raw iteration data to a JSONL
file for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

from simcheck import mismatch, netlist_of_aig, parse_aag, simulate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Keep NumPy (and anything under it) single-threaded in every process.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Cutoff constants recorded in the manifest: (label, module, attribute).
CUTOFFS = (
    ("KERNEL_CUTOFF", "repro.algorithms.kernels", "KERNEL_CUTOFF"),
    ("aig._BATCH_CUTOFF", "repro.aig.aig", "_BATCH_CUTOFF"),
    ("traversal._VEC_MIN_NODES", "repro.aig.traversal", "_VEC_MIN_NODES"),
    ("frontier._VEC_MIN_ITEMS", "repro.parallel.frontier", "_VEC_MIN_ITEMS"),
    ("vec._SCALAR_CUTOFF", "repro.parallel.vec", "_SCALAR_CUTOFF"),
)

#: A run ends by this many seconds; each worker gets what is left.
HARD_LIMIT_S = 165.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def git_revision() -> tuple[str | None, bool | None]:
    """HEAD and dirty flag of the checkout, or (None, None) outside git."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return head, bool(status.strip())


def manifest(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The configuration a result was measured under."""
    import numpy

    from repro.parallel import backend

    cutoffs = {}
    for label, module, attr in CUTOFFS:
        try:
            cutoffs[label] = getattr(
                importlib.import_module(module), attr, None
            )
        except ImportError:
            cutoffs[label] = None
    revision, dirty = git_revision()
    return {
        "revision": revision,
        "dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": backend.current_backend(),
        "cutoffs": cutoffs,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


class OutputChecker:
    """Checks written outputs against the generated inputs.

    Outputs are simulated (and, with ``full_cec``, SAT-checked) once per
    distinct file content; later iterations that write the same bytes
    reuse the verdict.
    """

    def __init__(self, inputs, sim_seed: int, full_cec: bool) -> None:
        self.sim_seed = sim_seed
        self.full_cec = full_cec
        self.references = [
            simulate(netlist_of_aig(aig), sim_seed) for _, aig in inputs
        ]
        self.aigs = [aig for _, aig in inputs] if full_cec else None
        self.verdicts: dict[tuple[int, str], dict] = {}
        self.cec_s = 0.0

    def check(self, index: int, path: str) -> dict:
        """``{"error": str|None, "ands": int, "depth": int}`` for a file."""
        with open(path, encoding="ascii") as handle:
            text = handle.read()
        key = (index, hashlib.sha256(text.encode("ascii")).hexdigest())
        if key not in self.verdicts:
            self.verdicts[key] = self._check_text(index, text)
        return self.verdicts[key]

    def _check_text(self, index: int, text: str) -> dict:
        signature = simulate(parse_aag(text), self.sim_seed)
        verdict = {
            "error": mismatch(self.references[index], signature),
            "ands": signature.num_ands,
            "depth": signature.depth,
        }
        if self.full_cec and verdict["error"] is None:
            from repro.aig.io_aiger import parse_aag as program_parse
            from repro.cec import check_equivalence
            from repro.cec.equivalence import CecStatus

            start = time.perf_counter()
            cec = check_equivalence(self.aigs[index], program_parse(text))
            self.cec_s += time.perf_counter() - start
            if cec.status is not CecStatus.EQUIVALENT:
                verdict["error"] = f"full CEC: {cec.status.name}"
        return verdict


def _run_worker(workload, paths, outdir, traced, timeout) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--inputs", *map(str, paths),
        "--outdir", str(outdir),
        "--scripts", *workload.scripts,
        "--trace", str(int(traced)),
    ]
    env = {**os.environ, **THREAD_ENV}
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, env=env,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f}s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"worker exit {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "worker printed no report"}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    corrupt: Callable[[str], None] | None = None,
) -> tuple[dict, dict]:
    """One benchmark run; returns (result line object, full record).

    ``tiny`` shrinks every input (for the benchmark's own tests);
    ``corrupt`` is called on each output file before it is checked (the
    tests use it to show that a wrong output is counted as failed).
    """
    from workloads import WORKLOADS, make_inputs

    from repro.aig.io_aiger import write_aig_binary

    spec = load_spec()
    workload = WORKLOADS[name]
    started = time.perf_counter()
    workdir = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    try:
        inputs = make_inputs(workload, seed, tiny)
        paths = []
        for input_name, aig in inputs:
            path = workdir / f"{input_name}.aig"
            write_aig_binary(aig, path)
            paths.append(path)
        checker = OutputChecker(inputs, seed, workload.full_cec)
        del inputs
        iterations = _iterate(
            workload, paths, workdir / "out", seconds, trace, checker,
            corrupt, started,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _summarize(
        spec, workload, iterations, checker, trace, len(paths)
    )


def _iterate(
    workload, paths, outdir, seconds, trace, checker, corrupt, started
) -> list[dict]:
    """Run iterations while the next one is expected to end within
    ``seconds`` (at least one, or one untraced and one traced when
    tracing); check every output of each."""
    iterations: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        iteration_start = time.perf_counter()
        remaining = max(1.0, HARD_LIMIT_S - (iteration_start - started))
        report = _run_worker(workload, paths, outdir, traced, remaining)
        report["traced"] = traced
        records = report.get("inputs") or [
            {"error": report.get("error", "no report")} for _ in paths
        ]
        report["inputs"] = records
        for index, record in enumerate(records):
            if "error" in record:
                continue
            try:
                if corrupt is not None:
                    corrupt(record["output"])
                record["check"] = checker.check(index, record["output"])
            except Exception as exc:  # a bad output fails, not the run
                record["check"] = {"error": f"{type(exc).__name__}: {exc}"}
        iterations.append(report)
        now = time.perf_counter()
        took, elapsed = now - iteration_start, now - loop_start
        if trace and len(iterations) < 2:
            continue
        if elapsed + took > seconds:
            return iterations


def _failure(record: dict) -> str | None:
    if "error" in record:
        return record["error"]
    return record["check"]["error"]


def _summarize(spec, workload, iterations, checker, trace, num_inputs):
    plain = [it for it in iterations if not it["traced"]]
    traced = [it for it in iterations if it["traced"]]
    failures = [
        f"{Path(r.get('input', '?')).name}: {_failure(r)}"
        for it in iterations
        for r in it["inputs"]
        if _failure(r) is not None
    ]
    attempted = num_inputs * len(iterations)

    def per_iteration(its, field):
        """Per iteration: ``field`` summed over the inputs."""
        return [
            sum(r.get(field, 0.0) for r in it["inputs"]) for it in its
        ]

    # Wall times are means over the run's samples, not medians: a short
    # sample falls into one of two machine speed modes about 1.9x apart
    # that last for seconds, so a median of a few samples flips between
    # the modes from run to run while the mean follows the mix smoothly.
    def io_mean(its, field):
        """Mean over iterations and I/O repeats of ``field`` summed over
        the inputs."""
        samples = []
        for it in its:
            lists = [r[field] for r in it["inputs"] if field in r]
            samples.extend(map(sum, zip(*lists)))
        return _mean(samples)

    # QoR and modeled time are deterministic, so the first iteration
    # gives them; a partial sum over the inputs that did not fail would
    # read as a gain, so any failure there makes them NaN.
    first = iterations[0]["inputs"]
    if any(_failure(r) is not None for r in first):
        ands = levels = modeled = math.nan
    else:
        ands = sum(r["check"]["ands"] for r in first)
        levels = sum(r["check"]["depth"] for r in first)
        modeled = sum(r["modeled_s"] for r in first)
    e2e = {
        "opt_wall_s": _mean(per_iteration(plain, "opt_s")),
        "setup_s": io_mean(plain, "read_s"),
        "ands_after": ands,
        "levels_after": levels,
        "modeled_s": modeled,
        "peak_rss_mb": _median(
            [it["peak_rss_mb"] for it in plain if "peak_rss_mb" in it]
        ),
        "passed_frac": 1.0 - len(failures) / attempted,
    }
    layers: dict[str, float] = {}
    if traced:
        names = traced[0].get("layers", {}).keys()
        for key in names:
            layers[key] = _median(
                [it["layers"][key] for it in traced if "layers" in it]
            )
        ands_in = sum(r.get("ands_in", 0) for r in traced[0]["inputs"])
        ands_out = sum(r.get("ands_out", 0) for r in traced[0]["inputs"])
        read_s = io_mean(traced, "read_s")
        write_s = io_mean(traced, "write_s")
        layers["aig.io.read_ands_per_s"] = (
            ands_in / read_s if read_s else 0.0
        )
        layers["aig.io.write_ands_per_s"] = (
            ands_out / write_s if write_s else 0.0
        )
        layers["cec.check_s"] = checker.cec_s
        plain_opt = _mean(per_iteration(plain, "opt_s"))
        traced_opt = _mean(per_iteration(traced, "opt_s"))
        layers["trace_overhead_frac"] = (
            traced_opt / plain_opt - 1.0 if plain_opt else 0.0
        )
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = layers if trace else e2e
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            m["name"]: {
                "value": values.get(m["name"], 0.0), "unit": m["unit"]
            }
            for m in declared
        },
    }
    record = {
        "workload": workload.name,
        "end_to_end": e2e,
        "layers": layers,
        "failures": failures,
        "iterations": iterations,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", help="append the run to this JSONL file"
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    result, record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    record["manifest"] = manifest(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    record["result"] = result
    print(
        f"workload {args.workload}  seed {args.seed}  "
        f"iterations {len(record['iterations'])}"
    )
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
