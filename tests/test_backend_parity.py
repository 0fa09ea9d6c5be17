"""Scalar-vs-vector parity: the size cutoffs never change a result.

Every batched kernel runs a per-item scalar loop below its size cutoff
and whole-array code at or above it (``docs/ARCHITECTURE.md``, "Scalar
vs vector paths").  Each case here runs once with the shipped cutoffs
and once with every cutoff forced to its vector side
(:func:`tests.conftest.force_vector_paths`), and asserts identical
serialized AIGs, identical ``hashtable.*`` counters and identical
modeled times.  Only wall-clock may differ.

The rewriting match stage has one more reference: a direct
per-(root, cut) evaluation, :func:`scalar_match_stage`, which
``_match_stage`` must reproduce candidate for candidate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observe
from repro.aig.aig import Aig
from repro.aig.cuts import enumerate_cuts
from repro.aig.io_aiger import dump_aag
from repro.aig.literals import make_lit
from repro.algorithms.common import AliasView
from repro.algorithms.par_rewrite import _match_stage
from repro.algorithms.rewrite_lib import match_function
from repro.algorithms.seq_rewrite import (
    CUT_EVAL_WORK,
    MAX_CUTS_PER_NODE,
    REWRITE_CUT_SIZE,
    _cone_nodes,
)
from repro.benchgen.suite import load_benchmark
from repro.commit import deref_cone, ref_cone_back
from repro.engine import run_script
from repro.engine.context import clone_with_context, context_for
from repro.logic.truth import simulate_cone
from repro.parallel import backend
from repro.parallel.machine import ParallelMachine
from tests.conftest import build_random_aig, vector_paths

aig_seeds = st.integers(min_value=0, max_value=100_000)
aig_sizes = st.integers(min_value=5, max_value=150)


def _run_script(aig, script: str):
    """Run ``script``; returns the parity tuple."""
    observe.enable()
    machine = ParallelMachine()
    try:
        result = run_script(aig, script, engine="gpu", machine=machine)
    finally:
        _, registry = observe.disable()
    counters = {
        key: value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith("hashtable")
    }
    return dump_aag(result.aig), counters, machine.total_time()


def _assert_parity(make_aig, script: str) -> None:
    aag_s, counters_s, modeled_s = _run_script(make_aig(), script)
    with vector_paths():
        aag_v, counters_v, modeled_v = _run_script(make_aig(), script)
    assert aag_s == aag_v
    assert modeled_s == modeled_v
    assert counters_s == counters_v


# ----------------------------------------------------------------------
# Named-suite parity
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    ("name", "script"),
    [
        ("div", "b; rw; rf; b"),
        ("vga_lcd", "resyn2"),
    ],
)
def test_suite_parity(name, script):
    _assert_parity(lambda: load_benchmark(name, 0), script)


# ----------------------------------------------------------------------
# Randomized resyn2 parity (hypothesis)
# ----------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(seed=aig_seeds, size=aig_sizes)
def test_random_resyn2_parity(seed, size):
    _assert_parity(
        lambda: build_random_aig(seed, num_ands=size), "resyn2"
    )


def test_const_profile_and_launch_batch_equivalence():
    """launch_batch builds the same KernelRecord from array and list."""
    from_array = ParallelMachine()
    from_array.launch_batch("k", backend.const_profile(3, 17))
    from_list = ParallelMachine()
    from_list.launch_batch("k", [3] * 17)
    assert from_array.records == from_list.records
    assert from_array.total_time() == from_list.total_time()


# ----------------------------------------------------------------------
# Rewriting match stage vs its direct reference
# ----------------------------------------------------------------------


def scalar_match_stage(
    aig: Aig, machine: ParallelMachine, min_gain: int
) -> dict[int, tuple]:
    """Best rewriting candidate per node, evaluated item by item.

    The reference for ``par_rewrite._match_stage``: every
    (root, cut) item simulates its cone, matches the library and sizes
    its MFFC by dereferencing the shared fanout counts (restored
    exactly afterwards).  Returns ``{root: (leaves, transform,
    template, est_gain)}`` for the nodes whose best candidate meets
    the gain threshold.
    """
    cuts = enumerate_cuts(aig, REWRITE_CUT_SIZE, MAX_CUTS_PER_NODE)
    machine.launch(
        "rw.cut_enum",
        [len(cuts.get(var, ())) for var in aig.and_vars()],
    )
    # Cached shared list: deref_cone/ref_cone_back restore it exactly.
    nref = context_for(aig).fanout_counts()
    static_view = AliasView(aig)  # empty alias: plain resolved reads
    candidates: dict[int, tuple] = {}

    def match(root: int) -> tuple[None, int]:
        work = 1
        best = None
        for cut in cuts.get(root, ()):
            if len(cut) < 2:
                continue
            work += CUT_EVAL_WORK
            leaves = sorted(set(cut))
            try:
                cone = _cone_nodes(static_view, root, set(leaves))
                table = simulate_cone(aig, make_lit(root), leaves)
            except ValueError:
                continue
            transform, template = match_function(table, leaves)
            deleted = deref_cone(static_view, root, cone, nref)
            ref_cone_back(static_view, deleted, nref)
            est_gain = len(deleted) - template.num_ands
            if best is None or est_gain > best[3]:
                best = (leaves, transform, template, est_gain)
        if best is not None and best[3] >= min_gain:
            candidates[root] = best
        return None, work

    machine.kernel("rw.match", list(aig.and_vars()), match)
    return candidates


def _match(stage, aig: Aig, min_gain: int):
    """Comparable candidates plus the machine of one match stage."""
    machine = ParallelMachine()
    candidates = stage(clone_with_context(aig), machine, min_gain)
    summary = {
        root: (list(leaves), transform, dump_aag(template), gain)
        for root, (leaves, transform, template, gain) in candidates.items()
    }
    return summary, machine


@settings(max_examples=15, deadline=None)
@given(
    seed=aig_seeds,
    size=st.integers(min_value=5, max_value=200),
    min_gain=st.integers(min_value=0, max_value=1),
)
def test_match_stage_matches_scalar_reference(seed, size, min_gain):
    aig = build_random_aig(seed, num_ands=size)
    expected, reference = _match(scalar_match_stage, aig, min_gain)
    shipped, machine = _match(_match_stage, aig, min_gain)
    with vector_paths():
        forced, forced_machine = _match(_match_stage, aig, min_gain)
    assert shipped == expected
    assert forced == expected
    for run in (machine, forced_machine):
        assert run.records == reference.records
        assert run.total_time() == reference.total_time()
