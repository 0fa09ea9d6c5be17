"""One benchmark iteration in a fresh process: read, optimize, write.

Run by ``run.py`` once per iteration, so every iteration pays the same
cold process caches a ``repro-aig opt`` user pays.  For each input file
it times ``read_aiger`` (``IO_REPEATS`` times; the last graph is kept),
``run_script`` with the GPU engine for every script in turn, and
``write_aag`` (``IO_REPEATS`` times), then prints one JSON object on
stdout.  With ``--trace 1`` the ``repro.observe`` tracer and the layer
probes are on and the object carries the per-layer metrics.  An input
that raises is reported with its error and the remaining inputs still
run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro import observe  # noqa: E402
from repro.aig.io_aiger import read_aiger, write_aag  # noqa: E402
from repro.engine import run_script  # noqa: E402
from repro.experiments.scale import peak_rss_mb  # noqa: E402

from layers import LayerProbes, layer_metrics  # noqa: E402

#: Reads and writes of each input per iteration, to give ``setup_s``
#: and the write throughput more samples.
IO_REPEATS = 3


def run_input(path: str, out: str, scripts: list[str]) -> tuple[dict, list]:
    record: dict = {
        "read_s": [], "opt_s": 0.0, "modeled_s": 0.0, "write_s": []
    }
    for _ in range(IO_REPEATS):
        aig = None  # drop the previous graph before timing the next read
        start = time.perf_counter()
        aig = read_aiger(path)
        record["read_s"].append(time.perf_counter() - start)
    record["ands_in"] = aig.num_ands
    results = []
    for script in scripts:
        start = time.perf_counter()
        result = run_script(aig, script, engine="gpu")
        record["opt_s"] += time.perf_counter() - start
        record["modeled_s"] += result.modeled_time()
        results.append(result)
        aig = result.aig
    for _ in range(IO_REPEATS):
        start = time.perf_counter()
        write_aag(aig, out)
        record["write_s"].append(time.perf_counter() - start)
    record["ands_out"] = aig.num_ands
    return record, results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", nargs="+", required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--scripts", nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    probes = None
    if args.trace:
        probes = LayerProbes()
        probes.install()
        observe.enable()
    records, all_results = [], []
    for path in args.inputs:
        out = os.path.join(args.outdir, Path(path).stem + ".aag")
        try:
            record, results = run_input(path, out, args.scripts)
        except Exception as exc:  # report the input as failed, go on
            traceback.print_exc(file=sys.stderr)
            record, results = {"error": f"{type(exc).__name__}: {exc}"}, []
        record["input"], record["output"] = path, out
        records.append(record)
        all_results.extend(results)
    report = {"inputs": records, "peak_rss_mb": peak_rss_mb()}
    if probes is not None:
        tracer, registry = observe.disable()
        probes.uninstall()
        report["layers"] = layer_metrics(
            probes, tracer, registry, all_results
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
