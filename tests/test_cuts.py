"""Unit tests for cut computation."""

import random

import pytest

from repro.aig.aig import Aig
from repro.aig.cuts import enumerate_cuts, reconv_cut
from repro.aig.traversal import cone_nodes
from repro.algorithms.common import AliasView
from repro.engine.context import context_for
from tests.conftest import build_random_aig
from tests.refactor_oracles import oracle_reconv_cut


def test_reconv_cut_of_simple_node():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    node = aig.add_and(a, b)
    aig.add_po(node)
    cut = reconv_cut(aig, node >> 1, 4)
    assert cut.leaves == {a >> 1, b >> 1}
    assert cut.cone == {node >> 1}


def test_reconv_cut_expands_reconvergence():
    # f = (a & b) & (a & c): expanding both fanins yields cut {a, b, c}.
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    left = aig.add_and(a, b)
    right = aig.add_and(a, c)
    top = aig.add_and(left, right)
    aig.add_po(top)
    cut = reconv_cut(aig, top >> 1, 3)
    assert cut.leaves == {a >> 1, b >> 1, c >> 1}
    assert cut.cone == {left >> 1, right >> 1, top >> 1}


def test_reconv_cut_respects_size_limit():
    aig = build_random_aig(5, num_ands=80)
    for limit in (2, 4, 8, 12):
        for root in list(aig.and_vars())[-10:]:
            cut = reconv_cut(aig, root, limit)
            assert len(cut.leaves) <= limit


def test_reconv_cut_is_a_valid_cut():
    aig = build_random_aig(9, num_ands=80)
    for root in list(aig.and_vars())[-15:]:
        cut = reconv_cut(aig, root, 8)
        # cone_nodes raises if some PI-to-root path avoids the leaves.
        cone = cone_nodes(aig, root, cut.leaves)
        assert cone == cut.cone


def test_reconv_cut_expandable_predicate_blocks():
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    left = aig.add_and(a, b)
    top = aig.add_and(left, c)
    aig.add_po(top)
    cut = reconv_cut(
        aig, top >> 1, 8, expandable=lambda var, cone: False
    )
    assert cut.leaves == {left >> 1, c >> 1}
    assert cut.cone == {top >> 1}


def test_reconv_cut_rejects_tiny_limit():
    aig = Aig()
    a, b = aig.add_pi(), aig.add_pi()
    node = aig.add_and(a, b)
    with pytest.raises(ValueError):
        reconv_cut(aig, node >> 1, 1)


def test_enumerate_cuts_contains_trivial_cut():
    aig = build_random_aig(2, num_ands=40)
    cuts = enumerate_cuts(aig, 4)
    for var in aig.and_vars():
        assert (var,) in cuts[var]


def test_enumerate_cuts_respects_k():
    aig = build_random_aig(2, num_ands=40)
    cuts = enumerate_cuts(aig, 4)
    for var in aig.and_vars():
        for cut in cuts[var]:
            assert len(cut) <= 4


def test_enumerate_cuts_are_valid_cuts():
    aig = build_random_aig(4, num_ands=40)
    cuts = enumerate_cuts(aig, 4)
    for var in list(aig.and_vars())[-10:]:
        for cut in cuts[var]:
            if cut == (var,):
                continue
            cone_nodes(aig, var, set(cut))  # raises when invalid


def test_enumerate_cuts_no_dominated_cut():
    aig = build_random_aig(6, num_ands=40)
    cuts = enumerate_cuts(aig, 4)
    for var in aig.and_vars():
        non_trivial = [set(c) for c in cuts[var] if c != (var,)]
        for i, cut_a in enumerate(non_trivial):
            for j, cut_b in enumerate(non_trivial):
                if i != j:
                    assert not cut_a < cut_b, (var, cut_a, cut_b)


def test_enumerate_cuts_respects_budget():
    aig = build_random_aig(8, num_ands=60)
    cuts = enumerate_cuts(aig, 4, max_cuts_per_node=3)
    for var in aig.and_vars():
        assert len(cuts[var]) <= 4  # trivial + 3


def test_enumerate_cuts_rejects_k1():
    aig = build_random_aig(1, num_ands=10)
    with pytest.raises(ValueError):
        enumerate_cuts(aig, 1)


# ----------------------------------------------------------------------
# Parity with the facade-reading reference cut
# ----------------------------------------------------------------------


def _assert_same_cut(cut, ref):
    assert cut.root == ref.root
    assert cut.leaves == ref.leaves
    # Same set operations in the same order: downstream frontier
    # gathers iterate the leaf set, so its order must match too.
    assert list(cut.leaves) == list(ref.leaves)
    assert cut.cone == ref.cone
    assert cut.work == ref.work


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_reconv_cut_matches_reference_on_random_graphs(seed):
    aig = build_random_aig(seed, num_pis=10, num_ands=160)
    for limit in (2, 3, 5, 8, 12):
        for root in aig.and_vars():
            _assert_same_cut(
                reconv_cut(aig, root, limit),
                oracle_reconv_cut(aig, root, limit),
            )


@pytest.mark.parametrize("seed", [1, 7])
def test_reconv_cut_matches_reference_through_alias_view(seed):
    aig = build_random_aig(seed, num_pis=8, num_ands=120)
    view = AliasView(aig)
    rng = random.Random(seed)
    ands = list(aig.and_vars())
    # Redirect some nodes to earlier literals (keeps the view acyclic)
    # and kill some others: both change what the cut may cross.
    for var in rng.sample(ands, 20):
        view.set_alias(var, rng.randrange(2, 2 * var))
    for var in rng.sample([v for v in ands if v not in view.alias], 10):
        view.kill(var)
    roots = [
        var for var in ands if view.is_and(var) and var not in view.alias
    ]
    assert roots
    for limit in (4, 8, 12):
        for root in roots:
            _assert_same_cut(
                reconv_cut(view, root, limit),
                oracle_reconv_cut(view, root, limit),
            )


def _collapse_hooks(aig, calls):
    """The FFC ``expandable``/``on_expand`` pair of the ``rf`` collapse.

    Same predicate as :func:`repro.algorithms.common.collapse_into_ffcs`
    (all live readers already in the cone, no PO driven); every call is
    logged to ``calls`` so the two cut implementations can be compared
    call for call.
    """
    context = context_for(aig)
    drives_po = context.po_fanout_mask()
    degrees = context.fanout_degrees().tolist()
    reads: dict[int, int] = {}

    def expandable(var, cone):
        calls.append(("expandable", var, len(cone)))
        return not drives_po[var] and reads.get(var, 0) == degrees[var]

    def on_expand(member):
        calls.append(("on_expand", member))
        f0, f1 = aig.fanins(member)
        reads[f0 >> 1] = reads.get(f0 >> 1, 0) + 1
        if f1 >> 1 != f0 >> 1:
            reads[f1 >> 1] = reads.get(f1 >> 1, 0) + 1

    return reads, expandable, on_expand


@pytest.mark.parametrize("seed", [2, 5])
def test_reconv_cut_matches_reference_with_ffc_hooks(seed):
    aig = build_random_aig(seed, num_pis=10, num_ands=200)
    shipped_calls: list = []
    oracle_calls: list = []
    shipped = _collapse_hooks(aig, shipped_calls)
    oracle = _collapse_hooks(aig, oracle_calls)
    for limit in (4, 12, aig.num_vars + 2):
        for root in aig.and_vars():
            shipped[0].clear()
            oracle[0].clear()
            cut = reconv_cut(
                aig, root, limit, expandable=shipped[1], on_expand=shipped[2]
            )
            ref = oracle_reconv_cut(
                aig, root, limit, expandable=oracle[1], on_expand=oracle[2]
            )
            _assert_same_cut(cut, ref)
            assert shipped_calls == oracle_calls
