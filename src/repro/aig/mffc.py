"""Maximum fanout-free cone (MFFC) computation.

The MFFC of a node is the set of nodes that become dangling when the
node is deleted — "all logic dedicated to drive the node" (paper,
Section III-A).  It is computed by ABC-style reference-count
dereferencing: walking down from the root, decrementing fanin reference
counts, and recursing into fanins whose count reaches zero.

Property 2 of the paper (MFFCs of different nodes are laminar: nested
or disjoint) is exercised by the property-test suite against this
implementation.

:func:`cone_deletable` is the batched, cone-restricted form the
parallel passes use: the deletable sets of many (root, cone) items in
one reference-count fixpoint sweep.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.aig.aig import Aig
from repro.aig.literals import lit_var
from repro.aig.traversal import fanout_counts

#: Mutable reference-count storage accepted by every walk here: a plain
#: list or a graph-owned NumPy column (the int64 ndarray from
#: ``GraphContext.fanout_counts_array`` or the column's memoryview
#: scalar twin) — anything indexable with in-place integer updates.
#: Walks mutate counts element-wise, so nothing is copied into a list.
RefCounts = list[int] | np.ndarray | memoryview


def mffc_nodes(aig: Aig, root: int, nref: RefCounts | None = None) -> set[int]:
    """AND variables in the MFFC of ``root`` (the root included).

    Parameters
    ----------
    nref:
        Current reference (fanout) counts; computed fresh when omitted.
        The storage is modified during the walk and restored before
        returning, so callers may share one buffer across many queries.
    """
    if not aig.is_and(root):
        raise ValueError(f"MFFC is defined for AND nodes, got var {root}")
    if nref is None:
        nref = fanout_counts(aig)
    cone = _deref(aig, root, nref)
    _ref(aig, root, nref, cone)
    return cone


def mffc_size(aig: Aig, root: int, nref: RefCounts | None = None) -> int:
    """Number of AND nodes in the MFFC of ``root``."""
    return len(mffc_nodes(aig, root, nref))


def _deref(aig: Aig, root: int, nref: RefCounts) -> set[int]:
    """Dereference the cone below ``root``; returns the collected MFFC."""
    cone: set[int] = set()
    stack = [root]
    while stack:
        var = stack.pop()
        if var in cone:
            continue
        cone.add(var)
        for fanin in aig.fanins(var):
            fvar = lit_var(fanin)
            nref[fvar] -= 1
            if nref[fvar] == 0 and aig.is_and(fvar):
                stack.append(fvar)
    return cone


def _ref(aig: Aig, root: int, nref: RefCounts, cone: set[int]) -> None:
    """Undo :func:`_deref` for the exact node set it collected."""
    for var in cone:
        for fanin in aig.fanins(var):
            nref[lit_var(fanin)] += 1


def deref_mffc(aig: Aig, root: int, nref: RefCounts) -> set[int]:
    """Dereference the MFFC of ``root`` *without* restoring counts.

    Used by in-place replacement: after dereferencing, the returned
    nodes are genuinely unreferenced and may be deleted.  The caller is
    responsible for re-referencing (via :func:`ref_cone`) if the
    replacement is abandoned.
    """
    return _deref(aig, root, nref)


def ref_cone(aig: Aig, root: int, nref: RefCounts, cone: set[int]) -> None:
    """Re-reference a cone previously removed by :func:`deref_mffc`."""
    _ref(aig, root, nref, cone)


def cone_deletable(
    aig: Aig, nref: RefCounts, roots: list[int], cones: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cone-restricted deletable sets of many (root, cone) items at once.

    ``cones[i]`` is item ``i``'s node collection (``roots[i]`` included,
    any iteration order) and ``nref`` the PO-inclusive fanout counts
    (double edges counted twice), read only.  Item ``i``'s deletable
    set is the least fixpoint, seeded at its root, of "every fanout
    reference comes from an already-deleted cone member" — exactly
    what :func:`repro.commit.deref_cone` collects on pristine counts,
    and the whole MFFC when the cone covers it.

    Returns ``(members, offsets, deleted)``: item ``i``'s cone members
    are ``members[offsets[i]:offsets[i + 1]]`` (in the cone's iteration
    order) and ``deleted`` flags the deletable ones.  Rewriting reads
    the per-item sizes (``np.add.reduceat(deleted, offsets[:-1])``),
    conflict-breaking refactoring the member sets.

    Each member's two fanin edges are charged once, when it enters
    the deleted set, so the batch costs O(total cone nodes) whatever
    the cone depth.
    """
    num_items = len(cones)
    counts = np.fromiter(
        (len(cone) for cone in cones), dtype=np.int64, count=num_items
    )
    offsets = np.zeros(num_items + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    members = np.fromiter(
        chain.from_iterable(cones), dtype=np.int64, count=total
    )
    # A singleton cone deletes just its root: only the slots of
    # multi-node items enter the fixpoint.
    deleted = np.repeat(counts == 1, counts)
    slots = np.flatnonzero(~deleted)
    if not slots.size:
        return members, offsets, deleted
    item_of = np.repeat(np.arange(num_items, dtype=np.int64), counts)[slots]
    sub_vars = members[slots]
    size = int(slots.size)
    fan0, fan1, _ = aig.arrays()
    # Per-item slot lookup: cone members are unique within an item, so
    # (item, var) keys are globally unique and searchsorted resolves a
    # fanin's slot (or proves it lies outside the cone).
    stride = aig.num_vars
    keys = item_of * stride
    keys += sub_vars
    order = np.argsort(keys)
    sorted_keys = keys[order]
    del keys
    # dst_slot[k, s]: slot of sub-slot s's fanin k, or -1 for a fanin
    # outside the cone (never deletable from here).  A batch can hold
    # every cone of a pass, so the lookup runs one fanin at a time and
    # drops its temporaries before the fixpoint (peak memory).
    dst_slot = np.empty((2, size), dtype=np.int64)
    for row, fan in zip(dst_slot, (fan0, fan1)):
        dst_keys = fan[sub_vars] >> 1
        dst_keys += item_of * stride
        found = np.searchsorted(sorted_keys, dst_keys)
        np.minimum(found, size - 1, out=found)
        np.copyto(row, order[found])
        row[sorted_keys[found] != dst_keys] = -1
    del item_of, dst_keys, found
    need = np.asarray(nref)[sub_vars]
    sub_deleted = np.zeros(size, dtype=bool)
    multi_items = np.flatnonzero(counts > 1)
    root_keys = multi_items * stride + np.asarray(roots, dtype=np.int64)[
        multi_items
    ]
    frontier = order[np.searchsorted(sorted_keys, root_keys)]
    del order, sorted_keys
    sub_deleted[frontier] = True
    dec = np.zeros(size, dtype=np.int64)
    while frontier.size:
        dsts = dst_slot[:, frontier].ravel()
        dec += np.bincount(dsts[dsts >= 0], minlength=size)
        frontier = np.flatnonzero((dec == need) & ~sub_deleted & (need > 0))
        sub_deleted[frontier] = True
    deleted[slots] = sub_deleted
    return members, offsets, deleted
