"""Column-native pass stages against their scalar oracles.

``b``, ``rw``, ``rf`` and ``rfc`` run one implementation of every hot
stage: whole-array NumPy sweeps over the graph columns.  The scalar
per-node loops those sweeps replaced live on here as test oracles:

* :func:`oracle_par_balance` — the frontier/heap balance pass
  (collapse, level-wise reconstruction, PO mapping);
* :func:`oracle_match_stage` — the per-item MFFC walk of the
  rewriting match stage;
* :func:`oracle_survivor_keys` — the facade walk of ``rf``'s
  semi-sharing refine;
* :func:`oracle_collapse_into_ffcs` — the FFC collapse over Python
  fanout lists;
* :func:`oracle_deletable_sets` — ``rfc``'s per-cone ``deref_cone``.

Whole scripts are run once as shipped and once with every oracle
patched in, and must agree on serialized AIGs, machine records,
modeled times and counters; each stage is also compared directly.
"""

from __future__ import annotations

import heapq
import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observe
from repro.aig.aig import Aig
from repro.aig.cuts import enumerate_cuts_with_tables, reconv_cut
from repro.aig.io_aiger import dump_aag
from repro.aig.literals import lit_compl, lit_not_cond, lit_var
from repro.aig.mffc import cone_deletable, mffc_nodes, mffc_size
from repro.aig.traversal import fanout_counts, fanout_lists
from repro.algorithms.common import ConeJob, PassResult
from repro.algorithms.rewrite_lib import match_function
from repro.algorithms.seq_balance import (
    BALANCE_WORK_SCALE,
    _internal_mask,
    collect_cluster_inputs,
)
from repro.algorithms.seq_rewrite import (
    CUT_EVAL_WORK,
    MAX_CUTS_PER_NODE,
    REWRITE_CUT_SIZE,
)
from repro.commit import InsertionSession, deref_cone, ref_cone_back
from repro.engine import run_script
from repro.engine.context import clone_with_context, context_for
from repro.parallel import backend
from repro.parallel.frontier import gather_unique
from repro.parallel.machine import ParallelMachine
from repro.verify import sanitizer
from repro.verify.sanitizer import Sanitizer
from tests.conftest import build_random_aig

# The package re-exports the pass functions under the module names, so
# the modules themselves are fetched by their dotted path.
common, par_balance, par_refactor, par_refactor_cb, par_rewrite = (
    importlib.import_module(f"repro.algorithms.{name}")
    for name in (
        "common", "par_balance", "par_refactor", "par_refactor_cb",
        "par_rewrite",
    )
)

aig_seeds = st.integers(min_value=0, max_value=50_000)
aig_sizes = st.integers(min_value=10, max_value=150)

SCRIPTS = ("b", "rf", "rw", "rfc")


# ----------------------------------------------------------------------
# Oracles: the scalar stage loops
# ----------------------------------------------------------------------


def _oracle_collapse(aig: Aig, machine: ParallelMachine):
    """Balance collapse: cluster roots and their input literal lists."""
    internal = _internal_mask(aig)
    machine.launch_batch(
        "b.mark_internal",
        backend.const_profile(BALANCE_WORK_SCALE, max(aig.num_vars, 1)),
    )
    frontier, gather_work = gather_unique(
        (lit_var(lit) for lit in aig.pos), keep=aig.is_and
    )
    machine.launch_batch(
        "b.init_frontier",
        backend.const_profile(BALANCE_WORK_SCALE, max(gather_work, 1)),
    )
    enqueued = set(frontier)
    roots: list[int] = []
    inputs_of: dict[int, list[int]] = {}
    guard = sanitizer.batch("b.collapse")
    while frontier:
        works = []
        next_candidates: list[int] = []
        for root in frontier:
            members: list[int] = []
            inputs, visited = collect_cluster_inputs(
                aig, root, internal, members=members
            )
            guard.write(root, members)
            inputs_of[root] = inputs
            roots.append(root)
            works.append((visited + len(inputs)) * BALANCE_WORK_SCALE)
            next_candidates.extend(lit_var(fanin) for fanin in inputs)
        machine.launch("b.collapse", works)
        frontier, _ = gather_unique(
            next_candidates,
            keep=lambda var: aig.is_and(var) and var not in enqueued,
        )
        enqueued.update(frontier)
        machine.launch_batch(
            "b.gather_frontier",
            backend.const_profile(
                BALANCE_WORK_SCALE, max(len(next_candidates), 1)
            ),
        )
    return roots, inputs_of


def _oracle_reconstruct(aig, roots, inputs_of, machine, order_rng=None):
    """Balance reconstruction with one (delay, literal) heap per root."""
    level_of: dict[int, int] = {0: 0}
    for var in aig.pis:
        level_of[var] = 0
    for root in sorted(roots):  # id order is topological
        level = 0
        for fanin in inputs_of[root]:
            level = max(level, level_of[lit_var(fanin)])
        level_of[root] = level + 1
    machine.launch_batch(
        "b.levelize",
        backend.const_profile(BALANCE_WORK_SCALE, max(len(roots), 1)),
    )
    batches: dict[int, list[int]] = {}
    for root in roots:
        batches.setdefault(level_of[root], []).append(root)

    new = Aig(aig.name)
    session = InsertionSession(new, expected=aig.num_ands * 2)
    lit_map: dict[int, tuple[int, int]] = {0: (0, 0)}
    for var in aig.pis:
        lit_map[var] = (new.add_pi(), 0)
    for level in sorted(batches):
        batch = batches[level]
        if order_rng is not None:
            batch = list(batch)
            order_rng.shuffle(batch)
        heaps = []
        for root in batch:
            operands = []
            for fanin in inputs_of[root]:
                mapped, delay = lit_map[lit_var(fanin)]
                operands.append(
                    (delay, lit_not_cond(mapped, lit_compl(fanin)))
                )
            heapq.heapify(operands)
            heaps.append(operands)
        machine.launch(
            "b.init_recon_table",
            [len(inputs_of[root]) * BALANCE_WORK_SCALE for root in batch],
        )
        while True:
            pairs = []
            popped = []
            for heap in heaps:
                if len(heap) < 2:
                    continue
                d0, l0 = heapq.heappop(heap)
                d1, l1 = heapq.heappop(heap)
                pairs.append((l0, l1))
                popped.append((heap, d0, l0, d1, l1))
            if not pairs:
                break
            merged_list, probes_list = session.insert_round(pairs)
            works = []
            for (heap, d0, l0, d1, l1), merged, probes in zip(
                popped, merged_list, probes_list
            ):
                if merged == l0:
                    heapq.heappush(heap, (d0, merged))
                elif merged == l1:
                    heapq.heappush(heap, (d1, merged))
                elif merged <= 1:
                    heapq.heappush(heap, (0, merged))
                else:
                    heapq.heappush(heap, (max(d0, d1) + 1, merged))
                works.append((probes + 5) * BALANCE_WORK_SCALE)
            machine.launch("b.insertion_pass", works)
            observe.count("b.insertion_passes")
        for root, heap in zip(batch, heaps):
            delay, literal = heap[0]
            lit_map[root] = (literal, delay)
    return new, lit_map


def oracle_par_balance(aig, machine=None, order_rng=None) -> PassResult:
    """The scalar ``par_balance``: same stages, same launches."""
    machine = machine if machine is not None else ParallelMachine()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()
    roots, inputs_of = _oracle_collapse(aig, machine)
    observe.count("b.clusters_collapsed", len(roots))
    new, lit_map = _oracle_reconstruct(
        aig, roots, inputs_of, machine, order_rng=order_rng
    )
    for index, po_lit in enumerate(aig.pos):
        mapped_lit, _ = lit_map[lit_var(po_lit)]
        new.add_po(
            lit_not_cond(mapped_lit, lit_compl(po_lit)), aig.po_name(index)
        )
    machine.host("b.finalize", aig.num_pos)
    result, _ = new.compact()
    return PassResult(
        result,
        nodes_before,
        result.num_ands,
        levels_before,
        context_for(result).depth(),
        details={"clusters": len(roots)},
    )


def oracle_match_stage(aig, machine, min_gain):
    """Rewriting match stage with one MFFC walk per sized item."""
    cuts, tables, cones = enumerate_cuts_with_tables(
        aig, REWRITE_CUT_SIZE, MAX_CUTS_PER_NODE
    )
    machine.launch(
        "rw.cut_enum",
        [len(cuts.get(var, ())) for var in aig.and_vars()],
    )
    nref = context_for(aig).fanout_counts()
    fan0 = aig._fanin0
    fan1 = aig._fanin1
    candidates: dict[int, tuple] = {}
    works: list[int] = []
    for root in aig.and_vars():
        work = 1
        best = None
        for cut, table, cone in zip(cuts[root], tables[root], cones[root]):
            if len(cut) < 2:
                continue
            work += CUT_EVAL_WORK
            if len(cone) > 64:
                continue
            transform, template = match_function(table, list(cut))
            bound = len(cone) - template.num_ands
            if bound < min_gain:
                continue
            if best is not None and bound <= best[3]:
                continue
            deleted: set[int] = set()
            dec: dict[int, int] = {}
            stack = [root]
            while stack:
                var = stack.pop()
                if var in deleted:
                    continue
                deleted.add(var)
                for fvar in (fan0[var] >> 1, fan1[var] >> 1):
                    count = dec.get(fvar, 0) + 1
                    dec[fvar] = count
                    if nref[fvar] == count and fvar in cone:
                        stack.append(fvar)
            est_gain = len(deleted) - template.num_ands
            if best is None or est_gain > best[3]:
                best = (list(cut), transform, template, est_gain)
        if best is not None and best[3] >= min_gain:
            candidates[root] = best
        works.append(work)
    machine.launch("rw.match", works)
    return candidates


def oracle_survivor_keys(aig, replaced_nodes):
    """``rf`` survivor map by the per-node facade walk."""
    keys = {}
    for var in aig.and_vars():
        if var not in replaced_nodes:
            keys[aig.fanins(var)] = var
    return keys


def oracle_collapse_into_ffcs(aig, max_cut_size, machine, early_stop=True):
    """``rf`` collapse testing the FFC condition on fanout lists."""
    drives_po = context_for(aig).po_fanout_mask()
    fanouts = fanout_lists(aig)

    def expandable(var: int, cone: set[int]) -> bool:
        if drives_po[var]:
            return False
        return all(reader in cone for reader in fanouts[var])

    machine.launch_batch(
        "rf.fanout_index", backend.const_profile(1, max(aig.num_vars, 1))
    )
    limit = max_cut_size if early_stop else aig.num_vars + 2
    frontier, gather_work = gather_unique(
        (lit_var(lit) for lit in aig.pos), keep=aig.is_and
    )
    machine.launch_batch(
        "rf.init_frontier", backend.const_profile(1, max(gather_work, 1))
    )
    enqueued = set(frontier)
    cones: list[ConeJob] = []
    rounds = 0
    while frontier:
        rounds += 1
        works = []
        candidates: list[int] = []
        for root in frontier:
            cut = reconv_cut(aig, root, limit, expandable=expandable)
            works.append(cut.work)
            cones.append(ConeJob(cut))
            candidates.extend(cut.leaves)
        machine.launch("rf.collapse", works)
        frontier, _ = gather_unique(
            candidates,
            keep=lambda var: aig.is_and(var) and var not in enqueued,
        )
        enqueued.update(frontier)
        machine.launch_batch(
            "rf.gather_frontier",
            backend.const_profile(1, max(len(candidates), 1)),
        )
    if observe.enabled:
        observe.count("rf.rounds", rounds)
    return cones


def oracle_deletable_sets(aig, cones, machine):
    """``rfc`` deletable sets by one ``deref_cone`` walk per cone."""
    if not cones:
        return
    machine.launch_batch(
        "rfc.ref_index", backend.const_profile(1, max(aig.num_vars, 1))
    )
    counts = context_for(aig).fanout_counts()
    for job in cones:
        deleted = deref_cone(aig, job.cut.root, job.cut.cone, counts)
        ref_cone_back(aig, deleted, counts)
        job.deleted = deleted
    machine.launch("rfc.deref", [len(job.cut.cone) for job in cones])


#: (module, attribute, oracle) for every column-native stage.
ORACLES = (
    (par_balance, "par_balance", oracle_par_balance),
    (par_rewrite, "_match_stage", oracle_match_stage),
    (par_refactor, "_survivor_keys", oracle_survivor_keys),
    (par_refactor, "collapse_into_ffcs", oracle_collapse_into_ffcs),
    (par_refactor_cb, "_deletable_sets", oracle_deletable_sets),
)


# ----------------------------------------------------------------------
# Whole scripts: shipped stages vs oracles (hypothesis)
# ----------------------------------------------------------------------


def _run(aig, script: str, oracle: bool):
    """Run ``script`` shipped or with every oracle patched in."""
    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            for module, name, replacement in ORACLES:
                patch.setattr(module, name, replacement)
        observe.enable()
        machine = ParallelMachine()
        try:
            result = run_script(aig, script, engine="gpu", machine=machine)
        finally:
            _, registry = observe.disable()
    # ``kernels.*`` count the column sweeps' own batching, which the
    # oracles do not have; the fanout-list oracle reads the raw
    # traversal instead of the context cache (``engine.cache_*``).
    counters = {
        key: value
        for key, value in registry.snapshot()["counters"].items()
        if not key.startswith(("kernels.", "engine.cache_"))
    }
    records = [
        (type(record).__name__, vars(record))
        for record in machine.records
    ]
    return dump_aag(result.aig), counters, records, machine.total_time()


def _assert_oracle_parity(make_aig, script: str) -> None:
    # Process-wide caches (the rewriting library's templates) count
    # their own construction (``strash.rehashes``) on first use; warm
    # them so both measured runs start from the same state.
    _run(make_aig(), script, oracle=True)
    shipped = _run(make_aig(), script, oracle=False)
    oracle = _run(make_aig(), script, oracle=True)
    assert shipped[0] == oracle[0], "serialized AIGs differ"
    assert shipped[1] == oracle[1], "counters differ"
    assert shipped[2] == oracle[2], "machine records differ"
    assert shipped[3] == oracle[3], "modeled times differ"


@settings(max_examples=8, deadline=None)
@given(seed=aig_seeds, size=aig_sizes)
@pytest.mark.parametrize("script", SCRIPTS)
def test_kernel_parity_random(script, seed, size):
    _assert_oracle_parity(
        lambda: build_random_aig(seed, num_ands=size), script
    )


@pytest.mark.parametrize("script", SCRIPTS + ("resyn2", "rfc_resyn"))
def test_kernel_parity_deep(script):
    # Deeper/narrower shape than the default random graphs.
    _assert_oracle_parity(
        lambda: build_random_aig(11, num_pis=4, num_ands=200, locality=6),
        script,
    )


# ----------------------------------------------------------------------
# Balance: order knob, mutation-free sanitizer coverage
# ----------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(seed=aig_seeds, order_seed=st.integers(0, 2**32 - 1))
def test_balance_order_rng_matches_oracle(seed, order_seed):
    aig = build_random_aig(seed, num_ands=120, locality=8)
    shipped = par_balance.par_balance(
        aig, order_rng=random.Random(order_seed)
    )
    oracle = oracle_par_balance(aig, order_rng=random.Random(order_seed))
    assert dump_aag(shipped.aig) == dump_aag(oracle.aig)


def _sanitized(run):
    san = Sanitizer()
    sanitizer.set_sanitizer(san)
    observe.enable()
    try:
        run()
    finally:
        sanitizer.set_sanitizer(None)
        _, registry = observe.disable()
    return san.summary(), registry.snapshot()["counters"]


@pytest.mark.parametrize("seed", [0, 5])
def test_sanitized_balance_registers_clusters_and_table_batches(seed):
    aig = build_random_aig(seed, num_ands=150, locality=8)
    summary, counters = _sanitized(lambda: par_balance.par_balance(aig))
    roots, inputs_of = _oracle_collapse(aig, ParallelMachine())
    # One guard over the collapse; its writes partition the ANDs (every
    # AND of these graphs reaches a PO) into one lane per cluster.
    assert summary["batches"] == 1
    assert summary["writes"] == aig.num_ands
    # Every insertion pass is one table batch; a k-input cluster costs
    # k - 1 inserted pairs.
    assert summary["table_batches"] == counters["b.insertion_passes"]
    assert summary["table_items"] == sum(
        len(inputs_of[root]) - 1 for root in roots
    )
    oracle_summary, _ = _sanitized(lambda: oracle_par_balance(aig))
    assert summary == oracle_summary


# ----------------------------------------------------------------------
# Stages against their oracles
# ----------------------------------------------------------------------


def _records(machine):
    return [(type(r).__name__, vars(r)) for r in machine.records]


@settings(max_examples=10, deadline=None)
@given(seed=aig_seeds, size=aig_sizes, min_gain=st.integers(0, 1))
def test_match_stage_matches_oracle(seed, size, min_gain):
    aig = build_random_aig(seed, num_ands=size)
    runs = []
    for stage in (par_rewrite._match_stage, oracle_match_stage):
        machine = ParallelMachine()
        candidates = stage(clone_with_context(aig), machine, min_gain)
        summary = {
            root: (leaves, transform, dump_aag(template), gain)
            for root, (leaves, transform, template, gain)
            in candidates.items()
        }
        runs.append((summary, _records(machine)))
    assert runs[0] == runs[1]


@settings(max_examples=10, deadline=None)
@given(seed=aig_seeds, size=aig_sizes, limit=st.integers(2, 12))
def test_collapse_into_ffcs_matches_fanout_list_oracle(seed, size, limit):
    aig = build_random_aig(seed, num_ands=size)
    runs = []
    for collapse in (common.collapse_into_ffcs, oracle_collapse_into_ffcs):
        machine = ParallelMachine()
        cones = collapse(aig, limit, machine)
        summary = [
            (job.cut.root, sorted(job.cut.cone), sorted(job.cut.leaves),
             job.cut.work)
            for job in cones
        ]
        runs.append((summary, _records(machine)))
    assert runs[0] == runs[1]


@settings(max_examples=10, deadline=None)
@given(seed=aig_seeds, size=aig_sizes)
def test_deletable_sets_match_deref_oracle(seed, size):
    aig = build_random_aig(seed, num_ands=size)
    cones, _ = par_refactor_cb._collect_overlapping(
        aig, 8, ParallelMachine()
    )
    runs = []
    for stage in (par_refactor_cb._deletable_sets, oracle_deletable_sets):
        jobs = [ConeJob(job.cut) for job in cones]
        machine = ParallelMachine()
        stage(aig, jobs, machine)
        runs.append(([job.deleted for job in jobs], _records(machine)))
    assert runs[0] == runs[1]


@settings(max_examples=10, deadline=None)
@given(seed=aig_seeds)
def test_fanout_degrees_matches_fanout_lists(seed):
    aig = build_random_aig(seed)
    degrees = context_for(aig).fanout_degrees()
    lists = fanout_lists(aig)
    assert degrees.tolist() == [len(entry) for entry in lists]


def _deletable_sizes(aig, nref, roots, cones):
    _, offsets, deleted = cone_deletable(aig, nref, roots, cones)
    sizes = [int(deleted[a:b].sum()) for a, b in zip(offsets, offsets[1:])]
    return sizes


@given(seed=aig_seeds)
@settings(max_examples=10, deadline=None)
def test_rewrite_batched_mffc_matches_mffc_size(seed):
    # Full MFFC cones: the batched fixpoint must reproduce the
    # reference-count walk for every root at once.
    aig = build_random_aig(seed, num_ands=80)
    nref = fanout_counts(aig)
    roots = list(aig.and_vars())
    cones = [mffc_nodes(aig, root, nref) for root in roots]
    members, offsets, deleted = cone_deletable(aig, nref, roots, cones)
    for index, cone in enumerate(cones):
        lo, hi = offsets[index], offsets[index + 1]
        assert members[lo:hi].tolist() == list(cone)
        assert deleted[lo:hi].all()
    expected = [mffc_size(aig, root, nref) for root in roots]
    assert _deletable_sizes(aig, nref, roots, cones) == expected


def test_rewrite_batched_mffc_partial_cones():
    # Cones smaller than the MFFC clamp the deletable set: the walk
    # only recurses into cone members.
    aig = build_random_aig(17, num_ands=60)
    nref = fanout_counts(aig)
    fan0 = aig._fanin0
    fan1 = aig._fanin1
    roots = []
    cones = []
    for root in aig.and_vars():
        cone = {root}
        for fvar in (fan0[root] >> 1, fan1[root] >> 1):
            if aig.is_and(fvar):
                cone.add(fvar)
        roots.append(root)
        cones.append(frozenset(cone))
    members, offsets, deleted = cone_deletable(aig, nref, roots, cones)
    for index, (root, cone) in enumerate(zip(roots, cones)):
        lo, hi = offsets[index], offsets[index + 1]
        got = set(members[lo:hi][deleted[lo:hi]].tolist())
        expected = deref_cone(aig, root, set(cone), nref)
        ref_cone_back(aig, expected, nref)
        assert got == expected


def test_rewrite_batched_mffc_empty_and_singletons():
    aig = build_random_aig(1, num_ands=20)
    nref = fanout_counts(aig)
    members, offsets, deleted = cone_deletable(aig, nref, [], [])
    assert members.tolist() == [] and offsets.tolist() == [0]
    assert deleted.tolist() == []
    # All-singleton batches skip the fixpoint entirely: size is 1.
    roots = list(aig.and_vars())[:5]
    assert _deletable_sizes(
        aig, nref, roots, [frozenset({root}) for root in roots]
    ) == [1] * len(roots)


def test_refactor_survivor_keys_matches_facade_walk():
    aig = build_random_aig(23, num_ands=90)
    live = list(aig.and_vars())
    replaced = set(live[::7])
    keys = par_refactor._survivor_keys(aig, replaced)
    assert keys == oracle_survivor_keys(aig, replaced)
    # And with nothing replaced.
    assert par_refactor._survivor_keys(aig, set()) == (
        oracle_survivor_keys(aig, set())
    )
