"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests).

The runs here use ``tiny=True`` inputs and a near-zero time budget, so
each run is a single iteration (two when traced) on graphs of a few
hundred ANDs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
from simcheck import (  # noqa: E402
    mismatch,
    netlist_of_aig,
    parse_aag,
    simulate,
)
from workloads import WORKLOADS, make_inputs  # noqa: E402

from repro.aig.io_aiger import dump_aag  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "ANDs", "levels"}

#: Per-layer metrics that must be non-zero on each tiny workload: the
#: layers that workload exercises.
ACTIVE = {
    "refactor_deep": [
        "aig.cuts.reconv_calls", "logic.resyn.calls",
        "algorithms.rf.collapse_s", "algorithms.rf.resynthesize_s",
        "algorithms.rfc.collect_s", "algorithms.rfc.resolve_s",
        "algorithms.rfc.replace_s", "algorithms.rf.hit_rate",
        "algorithms.rfc.hit_rate", "commit.replay_s",
        "commit.serial_replays", "engine.cmd.rfc.wall_s",
        "engine.cmd.rfc.ands_removed",
    ],
    "small_mixed": [
        "aig.cuts.enum_calls", "aig.cuts.cuts_per_node", "logic.npn.calls",
        "logic.npn.cache_hit_rate", "logic.resyn.calls",
        "algorithms.rw.match_s", "algorithms.rw.replace_s",
        "algorithms.rw.hit_rate", "algorithms.dedup.s",
        "algorithms.b.collapse_s", "algorithms.b.reconstruct_s",
        "engine.cmd.rw.wall_s", "engine.cmd.rwz.wall_s",
        "engine.cmd.rf.wall_s", "engine.cmd.b.wall_s", "commit.plans",
        "parallel.machine.launches", "parallel.machine.kernel_work",
        "parallel.hashtable.probes", "aig.io.read_ands_per_s",
        "aig.io.write_ands_per_s", "cec.check_s",
    ],
}


def tiny_run(name, seed=3, trace=False, corrupt=None):
    return run.run_workload(name, seed, 0.01, trace, tiny=True,
                            corrupt=corrupt)


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deterministic_fields_repeat(name):
    first, _ = tiny_run(name)
    second, _ = tiny_run(name)
    assert first["correct"] and second["correct"]
    assert first["attempted"] == second["attempted"]
    for metric in SPEC["end_to_end"]:
        if metric["unit"] in COUNT_UNITS or metric["name"] in (
            "modeled_s", "passed_frac",
        ):
            key = metric["name"]
            assert values(first)[key] == values(second)[key], key
    assert values(first)["passed_frac"] == 1.0


def test_traced_counts_repeat():
    first, _ = tiny_run("refactor_deep", trace=True)
    second, _ = tiny_run("refactor_deep", trace=True)
    for metric in SPEC["per_layer"]:
        if metric["unit"] in COUNT_UNITS:
            key = metric["name"]
            assert values(first)[key] == values(second)[key], key


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs(name):
    def texts(seed):
        return [dump_aag(aig) for _, aig in
                make_inputs(WORKLOADS[name], seed, tiny=True)]

    assert texts(1) == texts(1)
    assert texts(1) != texts(2)


def _flip_first_po(path):
    lines = Path(path).read_text().split("\n")
    num_pis = int(lines[0].split()[2])
    po = 1 + num_pis
    lines[po] = str(int(lines[po]) ^ 1)
    Path(path).write_text("\n".join(lines))


def test_corrupted_output_is_counted_failed():
    result, record = tiny_run("small_mixed", corrupt=_flip_first_po)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert values(result)["passed_frac"] < 1.0
    # No partial QoR sum over the inputs that passed.
    assert math.isnan(values(result)["ands_after"])
    assert all("PO" in failure for failure in record["failures"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer(name):
    result, record = tiny_run(name, trace=True)
    assert result["correct"]
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert list(result["metrics"]) == declared
    assert "trace_overhead_frac" in record["layers"]
    for key in ACTIVE[name]:
        assert values(result)[key] > 0, key
    # End-to-end numbers come from the untraced iterations only.
    untraced = [it for it in record["iterations"] if not it["traced"]]
    assert untraced and len(untraced) < len(record["iterations"])


def test_untraced_run_reports_every_end_to_end_metric():
    result, _ = tiny_run("small_mixed")
    assert list(result["metrics"]) == [
        m["name"] for m in SPEC["end_to_end"]
    ]
    assert all(v > 0 for v in values(result).values())


def test_simulator_agrees_with_program_writer():
    _, aig = make_inputs(WORKLOADS["small_mixed"], 5, tiny=True)[3]
    direct = simulate(netlist_of_aig(aig), seed=9)
    parsed = simulate(parse_aag(dump_aag(aig)), seed=9)
    assert mismatch(direct, parsed) is None
    assert (direct.num_ands, direct.depth) == (parsed.num_ands, parsed.depth)
    parsed.po_words[0, 0] ^= 1
    assert mismatch(direct, parsed) is not None


def _metric(better="lower", bound=0.1):
    return {"name": "m", "better": better, "bound": bound}


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    assert compare.verdict(base, base, _metric()) == "unchanged"
    assert compare.verdict(base, [v * 1.2 for v in base],
                           _metric()) == "worse"
    assert compare.verdict(base, [v * 0.8 for v in base],
                           _metric()) == "better"
    assert compare.verdict(base, [v * 0.8 for v in base],
                           _metric("higher")) == "worse"
    noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 7.0, 13.0, 8.0, 12.0, 10.0]
    assert compare.verdict(base, noisy, _metric()) == "unresolved"


def test_compare_drift_within_bound_is_unchanged():
    # A whole set shifted by less than the bound (machine drift between
    # two recordings of one program) wins every pair but is no gain.
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    for factor in (0.93, 1.07):
        drifted = [v * factor for v in base]
        assert compare.verdict(base, drifted, _metric()) == "unchanged"


def test_compare_refuses_other_configuration(tmp_path):
    _, record = tiny_run("refactor_deep")
    record["manifest"] = run.manifest("refactor_deep", 3, 0.01, False)
    record["result"] = {"failed": 0}
    base, new = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    base.write_text(json.dumps(record) + "\n")
    record["manifest"]["revision"] = "another"
    new.write_text(json.dumps(record) + "\n")
    assert compare.main([str(base), str(new)]) == 0
    record["manifest"]["cutoffs"]["KERNEL_CUTOFF"] = 0
    new.write_text(json.dumps(record) + "\n")
    assert compare.main([str(base), str(new)]) == 2


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_mixed",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
