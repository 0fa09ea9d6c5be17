"""The counting serial-lane commit against the build-then-rollback oracle.

:func:`repro.commit.apply_replacement` counts a replacement before it
builds and never touches the graph for a rejected candidate;
:func:`tests.replay_oracle.apply_replacement_oracle` builds first and
rolls back through truncate + revive.  On random graphs — including
cones that hold ``add_raw_and`` nodes, duplicated or not registered in
the strash — and random templates, both must return the same
``(gain, created)`` and new-root literal and leave the same columns,
reference counts, aliases, level caps and strash lookups behind.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.aig.cuts import reconv_cut
from repro.aig.io_aiger import dump_aag
from repro.aig.literals import lit_pair_key, lit_var
from repro.aig.traversal import aig_levels
from repro.algorithms.common import AliasView, resolved_fanout_counts
from repro.commit import apply_replacement, deref_cone
from tests import replay_oracle
from tests.replay_oracle import apply_replacement_oracle


def mixed_graph(rng: random.Random) -> Aig:
    """Random AIG where about a fifth of the ANDs bypass the strash.

    Half of those raw nodes duplicate the key of an existing AND, the
    other half carry a key no strash entry holds.
    """
    aig = Aig("mixed")
    lits = [aig.add_pi() for _ in range(rng.randint(3, 6))]
    for _ in range(rng.randint(12, 40)):
        ands = [lit for lit in lits if aig.is_and(lit >> 1)]
        roll = rng.random()
        if roll < 0.1 and ands:
            twin = aig.fanins(rng.choice(ands) >> 1)
            lits.append(aig.add_raw_and(*twin))
            continue
        a = rng.choice(lits[-8:]) ^ rng.randint(0, 1)
        b = rng.choice(lits) ^ rng.randint(0, 1)
        if lit_var(a) == lit_var(b):
            continue
        if roll < 0.2:
            lits.append(aig.add_raw_and(a, b))
        else:
            lits.append(aig.add_and(a, b))
    refs = resolved_fanout_counts(AliasView(aig))
    for var in aig.and_vars():
        if refs[var] == 0 or rng.random() < 0.1:
            aig.add_po((var << 1) | rng.randint(0, 1))
    if aig.num_pos == 0:
        aig.add_po(lits[-1])
    return aig


def fanout_cone(view, root):
    """Live variables whose resolved fanins reach ``root``."""
    aig = view.aig
    reaches = {root: True}
    for start in range(1, aig.num_vars):
        stack = [start]
        while stack:
            var = stack[-1]
            if var in reaches:
                stack.pop()
                continue
            if not view.is_and(var):
                reaches[var] = False
                stack.pop()
                continue
            fanins = [lit_var(lit) for lit in view.fanins(var)]
            pending = [fvar for fvar in fanins if fvar not in reaches]
            if pending:
                stack.extend(pending)
                continue
            reaches[var] = any(reaches[fvar] for fvar in fanins)
            stack.pop()
    return {var for var, hit in reaches.items() if hit}


def random_build(rng, view, root, cone, deleted, leaves):
    """A template: the cone re-expressed, then random ANDs on top.

    Operands are the cut leaves, the constants, and a few live nodes
    outside the dereferenced cone and the root's fanout, so the build
    folds, hits live nodes, misses on the killed cone and reuses its
    own new nodes.
    """
    above = fanout_cone(view, root)
    outside = [
        var for var in range(1, view.aig.num_vars)
        if view.is_and(var) and var not in view.alias
        and var not in deleted and var not in above
    ]
    pool = [leaf << 1 for leaf in leaves] + [0, 1]
    shared = rng.sample(outside, min(3, len(outside)))
    pool += [var << 1 for var in shared]
    mirror = [
        (var, view.fanins(var))
        for var in sorted(cone)
        if rng.random() < 0.8
    ]
    extra = [
        (rng.randrange(1 << 16), rng.randrange(1 << 16),
         rng.randint(0, 1), rng.randint(0, 1))
        for _ in range(rng.randint(0, 4))
    ]
    pick = rng.randrange(1 << 16)
    flip = rng.randint(0, 1)

    def build(add_and):
        known = {leaf: leaf << 1 for leaf in leaves}
        values = list(pool)
        for var, (f0, f1) in mirror:
            if lit_var(f0) in known and lit_var(f1) in known:
                n0 = known[lit_var(f0)] ^ (f0 & 1)
                n1 = known[lit_var(f1)] ^ (f1 & 1)
                known[var] = add_and(n0, n1)
                values.append(known[var])
        for i, j, c0, c1 in extra:
            a = values[i % len(values)] ^ c0
            b = values[j % len(values)] ^ c1
            values.append(add_and(a, b))
        return values[pick % len(values)] ^ flip

    return build


def snapshot(aig, view, nref, caps, keys):
    fan0, fan1, dead = aig.arrays()
    return (
        fan0.tolist(),
        fan1.tolist(),
        dead.tolist(),
        aig.num_ands,
        list(nref),
        dict(view.alias),
        set(view.dead),
        None if caps is None else dict(caps),
        {key: aig._strash.get(key) for key in sorted(keys)},
        dump_aag(aig),
    )


def scenario(seed, apply, min_gain, use_caps):
    """Replay a few random replacements; returns the observation log."""
    rng = random.Random(seed)
    aig = mixed_graph(rng)
    view = AliasView(aig)
    nref = resolved_fanout_counts(view)
    caps = dict(enumerate(aig_levels(aig))) if use_caps else None
    keys = {
        aig.fanins(var) for var in range(aig.num_vars) if aig.is_and(var)
    }
    log = []
    for _ in range(4):
        roots = [
            var for var in aig.and_vars()
            if var not in view.alias and nref[var] > 0
        ]
        if not roots:
            break
        root = rng.choice(roots)
        cut = reconv_cut(view, root, rng.randint(2, 5))
        deleted = deref_cone(view, root, cut.cone, nref)
        build = random_build(
            rng, view, root, cut.cone, deleted, cut.leaves
        )
        if caps is not None:
            caps[root] += rng.randint(-1, 1)
        returned = []

        def recorded(add_and, build=build, returned=returned):
            def tracked(lit0, lit1):
                keys.add(lit_pair_key(lit0, lit1))
                return add_and(lit0, lit1)

            returned.append(build(tracked))
            return returned[-1]

        result = apply(
            view, nref, root, deleted, recorded, min_gain, level_cap=caps
        )
        keys.update(
            aig.fanins(var) for var in range(aig.num_vars)
            if aig.is_and(var)
        )
        log.append((root, result, returned))
        log.append(snapshot(aig, view, nref, caps, keys))
    return log


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=1 << 30),
    min_gain=st.sampled_from([0, 1]),
    use_caps=st.booleans(),
)
@example(seed=0, min_gain=0, use_caps=False)
@example(seed=7, min_gain=1, use_caps=True)
def test_counting_commit_matches_rollback_oracle(seed, min_gain, use_caps):
    shipped = scenario(seed, apply_replacement, min_gain, use_caps)
    oracle = scenario(seed, apply_replacement_oracle, min_gain, use_caps)
    assert shipped == oracle


def test_scenarios_reach_both_verdicts_and_raw_nodes():
    """The generator exercises accepts, rejects and raw nodes."""
    verdicts = set()
    raw_graphs = 0
    for seed in range(40):
        rng = random.Random(seed)
        aig = mixed_graph(rng)
        unregistered = {
            var for var in aig.and_vars()
            if aig._strash.get(aig.fanins(var)) != var
        }
        log = scenario(seed, apply_replacement, 0, seed % 2 == 0)
        for root, (gain, _), _ in log[::2]:
            verdicts.add(gain is None)
        raw_graphs += bool(unregistered)
    assert verdicts == {True, False}
    assert raw_graphs > 20


def chain_with_unregistered_node():
    """(a & b) & c whose inner AND was added past the strash."""
    aig = Aig("raw")
    a, b, c = (aig.add_pi() for _ in range(3))
    inner = aig.add_raw_and(a, b)
    top = aig.add_and(inner, c)
    aig.add_po(top)
    return aig, (a, b, c), lit_var(inner), lit_var(top)


def test_rejected_candidate_registers_unregistered_cone_node():
    """Pins today's behaviour: a rejected attempt hands the strash key
    of an unregistered live node in its cone to that node (the effect
    the old rollback's revive had on ``add_raw_and`` wave nodes)."""
    aig, (a, b, c), inner, root = chain_with_unregistered_node()
    assert aig.find_and(a, b) is None
    view = AliasView(aig)
    nref = resolved_fanout_counts(view)
    deleted = deref_cone(view, root, {inner, root}, nref)
    before = dump_aag(aig)
    gain, created = apply_replacement(
        view,
        nref,
        root,
        deleted,
        lambda add_and: add_and(add_and(a, c), add_and(b, c)),
        0,
    )
    assert (gain, created) == (None, 3)
    assert dump_aag(aig) == before
    assert aig.num_vars == 1 + 3 + 2
    assert aig.find_and(a, b) == inner << 1


def test_rejected_candidate_hands_duplicate_key_to_first_in_cone():
    """Two cone nodes with one key: after a rejection the key belongs to
    the first of them in the cone's iteration order, as kill-then-revive
    left it — even when that one was not registered before."""
    for raw_first in (True, False):
        aig = Aig("dups")
        a, b, c = (aig.add_pi() for _ in range(3))
        if raw_first:
            one = aig.add_raw_and(a, b)
            two = aig.add_and(a, b)
        else:
            one = aig.add_and(a, b)
            two = aig.add_raw_and(a, b)
        root = aig.add_and(aig.add_and(one, c), aig.add_and(two, c ^ 1))
        aig.add_po(root)
        holders = []
        for apply in (apply_replacement, apply_replacement_oracle):
            work = aig.clone()
            view = AliasView(work)
            nref = resolved_fanout_counts(view)
            cone = set(range(4, work.num_vars))
            deleted = deref_cone(view, lit_var(root), cone, nref)
            assert min(deleted) == lit_var(one)
            gain, _ = apply(
                view, nref, lit_var(root), deleted,
                lambda add_and: add_and(add_and(a, c), add_and(b, c)),
                10,
            )
            assert gain is None
            holders.append(work._strash.get(lit_pair_key(a, b)))
        assert holders == [lit_var(one)] * 2


# ----------------------------------------------------------------------
# The oracle's own primitives
# ----------------------------------------------------------------------


def make_chain():
    aig = Aig("chain")
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    ab = aig.add_and(a, b)
    abc = aig.add_and(ab, c)
    aig.add_po(abc)
    return aig, (a, b, c, ab, abc)


def test_truncate_removes_speculative_nodes():
    aig, (a, b, c, ab, abc) = make_chain()
    snapshot_vars = aig.num_vars
    spec = aig.add_and(a, c)
    assert aig.num_vars == snapshot_vars + 1
    replay_oracle.truncate(aig, snapshot_vars)
    assert aig.num_vars == snapshot_vars
    assert aig.num_ands == 2
    # The strash entry is gone; recreating yields a fresh node.
    again = aig.add_and(a, c)
    assert again == spec


def test_truncate_rejects_pi_range():
    aig, _ = make_chain()
    with pytest.raises(ValueError):
        replay_oracle.truncate(aig, 1)


def test_revive_restores_node_and_free_key():
    aig, (a, b, c, ab, abc) = make_chain()
    aig.mark_dead(ab >> 1)
    replay_oracle.revive(aig, ab >> 1)
    assert not aig.is_dead(ab >> 1)
    assert aig.num_ands == 2
    assert aig.find_and(a, b) == ab
