"""Scalar replay commit: one cone replacement at a time.

This is the sequential half of the transactional layer: the commit
discipline the seq passes (and the serial lanes of the parallel
passes) use to land one replacement on an
:class:`~repro.algorithms.common.AliasView` — dereference the
cone-restricted MFFC, count what the replacement would add to the
strash with that cone dead, and only then either commit (kill the
cone, append the counted nodes, transfer references, alias the root)
or reject without having built anything (re-reference the cone).

:func:`deref_cone` / :func:`ref_cone_back` are the reference-count
halves of that transaction; :func:`apply_replacement` is the gated
commit (gain / same-root / level-cap rejection before any build) and
:func:`commit_replacement` the unconditional variant for callers that
prove profitability before touching the graph (resubstitution).
"""

from __future__ import annotations

from typing import Callable

from repro import observe
from repro.aig.literals import fold_and, lit_pair_key, lit_var
from repro.aig.mffc import RefCounts
from repro.verify import mutations

__all__ = [
    "apply_replacement",
    "commit_replacement",
    "deref_cone",
    "ref_cone_back",
    "retire_unreachable",
]


def deref_cone(view, root: int, cone: set[int], nref: RefCounts) -> set[int]:
    """Dereference the MFFC of ``root`` restricted to ``cone``.

    Walks down from the root decrementing fanin reference counts,
    recursing only into cone members whose count reaches zero — the
    nodes that become unreferenced once the root's function is
    re-implemented over the cone's cut.  Returns the dereferenced set
    (the root included).  Shared by refactoring and rewriting.
    """
    deleted: set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in deleted:
            continue
        deleted.add(var)
        for fanin in view.fanins(var):
            fvar = lit_var(fanin)
            nref[fvar] -= 1
            if nref[fvar] == 0 and fvar in cone:
                stack.append(fvar)
    return deleted


def ref_cone_back(view, deleted: set[int], nref: RefCounts) -> None:
    """Undo :func:`deref_cone` for the exact node set it collected."""
    for var in deleted:
        for fanin in view.fanins(var):
            nref[lit_var(fanin)] += 1


def retire_unreachable(view, reachable, num_vars: int) -> None:
    """Kill every live AND of ``view`` outside ``reachable``.

    Pre-replay cleanup for serial lanes working on a post-wave graph: a
    strash hit on an unreachable survivor would dodge the level caps,
    and compaction drops those nodes anyway.
    """
    for var in range(num_vars):
        if view.is_and(var) and var not in reachable:
            view.kill(var)


def apply_replacement(
    view,
    nref: RefCounts,
    root: int,
    deleted: set[int],
    build: Callable[[Callable[[int, int], int]], int],
    min_gain: int,
    *,
    level_cap: dict[int, int] | None = None,
    flip_mutation: str | None = None,
) -> tuple[int | None, int]:
    """Count one replacement and build it only if the gates pass.

    ``deleted`` is the already-dereferenced cone
    (:func:`deref_cone`'s result); ``build`` receives an ``add_and``
    and returns the new root literal.  Returns ``(gain_or_None,
    created)``, ``created`` counted for rejected attempts too.
    ``None`` means rejected: the cone is re-referenced and its strash
    keys re-registered (:meth:`~repro.aig.aig.Aig.register_keys`), and
    nothing else changes.

    Gates: ``gain < min_gain``, the new root resolving to the old root,
    and — when ``level_cap`` is given — the new root's cap exceeding
    the old root's.  Counted nodes record their own caps in place; a
    rejected attempt's stale entries are overwritten when the ids are
    reused.

    ``flip_mutation`` names the pass's seeded root-polarity bug; the
    layer's own ``commit-replay-flip-root`` mutation flips here too, so
    the CEC gate exercises the shared replay path directly.
    """
    aig = view.aig
    snapshot = aig.num_vars
    new_root, pairs = _count_build(aig, deleted, build)
    created = len(pairs)
    gain = len(deleted) - created

    too_deep = False
    if level_cap is not None:
        # Counted ids are contiguous and topological, so one ascending
        # sweep fills their caps.
        for var, (key0, key1) in enumerate(pairs, snapshot):
            level_cap[var] = 1 + max(
                level_cap[key0 >> 1], level_cap[key1 >> 1]
            )
        too_deep = level_cap[new_root >> 1] > level_cap[root]

    if gain < min_gain or (new_root >> 1) == root or too_deep:
        ref_cone_back(view, deleted, nref)
        aig.register_keys(deleted)
        return None, created

    for var in deleted:
        view.kill(var)
    add_and = aig.add_and
    for key0, key1 in pairs:
        add_and(key0, key1)
    if mutations.armed:
        if flip_mutation is not None and mutations.active(flip_mutation):
            new_root ^= 1
        if mutations.active("commit-replay-flip-root"):
            new_root ^= 1
    _commit(view, nref, root, snapshot, new_root)
    return gain, created


def commit_replacement(
    view,
    nref: RefCounts,
    root: int,
    removed: set[int],
    build: Callable[[Callable[[int, int], int]], int],
) -> int:
    """Unconditionally land one replacement (no gates).

    For callers that establish profitability *before* mutating the
    graph (resubstitution checks its exact gain against the nominal
    new-node cost first): kill ``removed``, build the new root, account
    references, transfer the old root's count and alias it.  Returns
    the new root literal.
    """
    aig = view.aig
    for var in removed:
        view.kill(var)
    snapshot = aig.num_vars
    new_root = build(aig.add_and)
    _commit(view, nref, root, snapshot, new_root)
    return new_root


def _count_build(aig, deleted: set[int], build):
    """Dry-run ``build`` as if ``deleted`` were dead; changes nothing.

    The counter mirrors ``Aig.add_and`` — :func:`fold_and`, then a
    strash lookup that treats ``deleted`` as dead — and names the
    ``k``-th new node ``num_vars + k``, the id the real build assigns.
    Returns ``(new_root, pairs)``; ``pairs[k]`` is that node's key.
    """
    base = aig.num_vars
    find_and = aig.find_and
    fresh: dict[tuple[int, int], int] = {}  # key -> literal, in order

    def count_and(lit0: int, lit1: int) -> int:
        key = lit_pair_key(lit0, lit1)
        folded = fold_and(*key)
        if folded is not None:
            return folded
        if key in fresh:
            return fresh[key]
        hit = find_and(*key)
        if hit is not None and (hit >> 1) not in deleted:
            return hit
        fresh[key] = lit = (base + len(fresh)) << 1
        return lit

    return build(count_and), list(fresh)


def _commit(view, nref: RefCounts, root: int, snapshot: int, new_root):
    """Commit tail: reference the nodes created since ``snapshot``,
    move ``root``'s references to ``new_root`` and alias it."""
    aig = view.aig
    while len(nref) < aig.num_vars:
        nref.append(0)
    for var in range(snapshot, aig.num_vars):
        f0, f1 = aig.fanins(var)
        nref[lit_var(f0)] += 1
        nref[lit_var(f1)] += 1
    nref[new_root >> 1] += nref[root]
    nref[root] = 0
    view.set_alias(root, new_root)
    if observe.enabled:
        observe.count("commit.plans")
        observe.count("commit.serial_replays", aig.num_vars - snapshot)
