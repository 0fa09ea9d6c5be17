"""Whole-array batch kernels for the parallel substrate.

Every kernel here executes one of the already-batched operations of
:mod:`repro.parallel` as whole-array NumPy code while reproducing the
per-item loop **bit-identically**: same table layouts, same per-item
probe counts, same allocation order, same ``hashtable.*`` counters.
Batches below :data:`_SCALAR_CUTOFF` items run the per-item loop
instead (``docs/ARCHITECTURE.md``, "Scalar vs vector paths").

The interesting kernel is batched hash insertion
(:meth:`repro.parallel.hashtable.HashTable.insert_batch`).  The
per-item loop resolves same-key (and same-slot) conflicts
deterministically in batch order; a naive data-parallel insert would
not.  The vectorized version reproduces the sequential result in two
phases:

1. **Key grouping** — duplicate keys inside a batch are folded onto
   their first occurrence.  Because the table never deletes, a later
   same-key item walks exactly the representative's probe path and
   terminates on the representative's slot (as a hit), so its result
   and probe count derive from the representative's without touching
   the table.

2. **Stable placement** — the remaining distinct keys are classified
   once against the pre-batch table.  A resident key is always found
   before any empty slot (linear-probing paths contain no gaps), so
   hits are final immediately and misses are *pure slot contention*:
   every pending item walks to the first slot it may claim, each
   contested slot goes to the lowest batch index (``np.minimum.at``),
   and a claimant displaced by a lower index resumes its walk from the
   slot it lost.  This priority fixpoint is exactly the assignment the
   per-item loop produces by inserting in batch order, and each item's
   probe count is the length of its cumulative walk — also exactly the
   per-item count, because a sequential insert visits every slot between
   its hash slot and its final slot.  The number of rounds is the
   depth of the longest displacement cascade (single digits in
   practice), each touching only the still-unplaced items.

Batched ``update`` adds per-key value chaining on top (every hit
returns the previous batch item's value and the last one's value
stays), and batched ``get_or_create`` inserts negative sentinels for
misses, then allocates node ids in batch order and patches them over
the sentinels, exactly like the per-item loop.
"""

from __future__ import annotations

import numpy as np

from repro import observe

_EMPTY = -1

#: Below this batch size the whole-array set-up cost exceeds the scalar
#: loop; fall back to the per-item path, which is the same table
#: layout and the same counters either way (pure wall-clock heuristic,
#: never a semantic switch).
_SCALAR_CUTOFF = 512


def count_nonzero(name: str, value: int) -> None:
    """Aggregate counter bump that, like the per-item path, never
    materializes a key for zero events."""
    if value:
        observe.count(name, value)


#: Multiplicative hashing constant — must match ``hashtable._MIX``.
_MIX = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(31)


def hash_keys(key0: np.ndarray, key1: np.ndarray) -> np.ndarray:
    """Vectorized ``hashtable._hash_key`` (uint64 wrap-around)."""
    value = key0.astype(np.uint64) * _MIX + key1.astype(np.uint64)
    value ^= value >> _SHIFT
    return value * _MIX


def probe_sim(
    tkey0: np.ndarray,
    tkey1: np.ndarray,
    tvalue: np.ndarray,
    mask: int,
    key0: np.ndarray,
    key1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate scalar probe paths against a frozen table.

    Returns ``(hit, slot, probes)``: whether each item's path ends on a
    matching key (vs an empty slot), the terminal slot index, and the
    number of slots visited — exactly the scalar loop's probe count.
    """
    n = key0.shape[0]
    cur = (hash_keys(key0, key1) & np.uint64(mask)).astype(np.int64)
    probes = np.ones(n, dtype=np.int64)
    hit = np.zeros(n, dtype=bool)
    slot = cur.copy()
    active = np.arange(n)
    while active.size:
        value = tvalue[cur]
        empty = value == _EMPTY
        match = (
            ~empty
            & (tkey0[cur] == key0[active])
            & (tkey1[cur] == key1[active])
        )
        stop = empty | match
        if stop.any():
            stopped = active[stop]
            slot[stopped] = cur[stop]
            hit[stopped] = match[stop]
            keep = ~stop
            active = active[keep]
            cur = cur[keep]
        cur = (cur + 1) & mask
        probes[active] += 1
    return hit, slot, probes


def group_keys(
    key0: np.ndarray, key1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group a chunk by key; duplicates fold onto their first occurrence.

    Returns ``(order, rep_pos, reps)``: a stable (key, index) sort
    order, each item's position into ``reps`` (its group's
    representative), and the representative item indices themselves.
    ``reps`` is ascending — position within it is batch order, which
    :meth:`HashTable._stable_place` uses as the placement priority.
    Shared with :meth:`repro.aig.aig.Aig.add_and_batch`, whose strash
    probe dedups batch keys the same way.
    """
    n = key0.shape[0]
    order = np.lexsort((np.arange(n), key1, key0))
    k0s = key0[order]
    k1s = key1[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = (k0s[1:] != k0s[:-1]) | (k1s[1:] != k1s[:-1])
    group_of_sorted = np.cumsum(new_group) - 1
    reps = order[new_group]
    rank = np.empty(reps.shape[0], dtype=np.int64)
    rank[np.argsort(reps, kind="stable")] = np.arange(reps.shape[0])
    rep_pos = np.empty(n, dtype=np.int64)
    rep_pos[order] = rank[group_of_sorted]
    return order, rep_pos, np.sort(reps)


def as_key_arrays(keys) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(keys, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


def seed_batch(node_table, lits0, lits1, variables):
    """Vectorized :meth:`NodeHashTable.seed` over parallel lists."""
    if len(variables) < _SCALAR_CUTOFF:
        return [
            node_table.seed(int(lit0), int(lit1), int(var))
            for lit0, lit1, var in zip(lits0, lits1, variables)
        ]
    arr0 = np.asarray(lits0, dtype=np.int64)
    arr1 = np.asarray(lits1, dtype=np.int64)
    keys = np.stack(
        [np.minimum(arr0, arr1), np.maximum(arr0, arr1)], axis=1
    )
    _, probes = node_table._table.insert_batch(keys, list(variables))
    return probes


def get_or_create_batch(node_table, pairs, alloc, alloc_batch=None):
    """Vectorized :meth:`NodeHashTable.get_or_create` over a batch.

    ``alloc`` is invoked in batch order for exactly the items the
    scalar loop would have allocated, so fresh node ids — which feed
    later hash keys — are assigned identically.  ``alloc_batch``, when
    provided, allocates a whole miss chunk in one call (same order,
    same ids — a pure wall-clock path).  Returns
    ``(literals, probe_works)`` as plain lists.
    """
    n = len(pairs)
    if n == 0:
        return [], []
    if n < _SCALAR_CUTOFF:
        literals = []
        works = []
        for lit0, lit1 in pairs:
            literal, probes = node_table.get_or_create(
                int(lit0), int(lit1), alloc
            )
            literals.append(int(literal))
            works.append(probes)
        return literals, works
    arr = np.asarray(pairs, dtype=np.int64).reshape(n, 2)
    lits, probes = goc_batch_arrays(
        node_table, arr[:, 0], arr[:, 1], alloc, alloc_batch
    )
    return lits.tolist(), probes.tolist()


def goc_batch_arrays(node_table, lits0, lits1, alloc, alloc_batch=None):
    """Array-native :func:`get_or_create_batch` core.

    Takes two parallel int64 literal arrays and returns
    ``(literals, probe_works)`` as int64 ndarrays — the column-native
    pass kernels feed these straight into ``launch_batch`` without a
    list round-trip.  Below :data:`_SCALAR_CUTOFF` the scalar path
    runs item by item (same layouts, same counters).
    """
    n = lits0.shape[0]
    if n < _SCALAR_CUTOFF:
        out = []
        works = []
        for lit0, lit1 in zip(lits0.tolist(), lits1.tolist()):
            literal, probes = node_table.get_or_create(lit0, lit1, alloc)
            out.append(literal)
            works.append(probes)
        return (
            np.array(out, dtype=np.int64),
            np.array(works, dtype=np.int64),
        )
    table = node_table._table
    key0 = np.minimum(lits0, lits1)
    key1 = np.maximum(lits0, lits1)
    lits = np.full(n, -1, dtype=np.int64)
    probes = np.zeros(n, dtype=np.int64)
    # Trivial-AND folding: the array form of
    # repro.aig.literals.fold_and, in the same rule order.
    lits[key0 == 0] = 0
    rest = lits == -1
    pick = rest & (key0 == 1)
    lits[pick] = key1[pick]
    rest &= ~pick
    pick = rest & (key0 == key1)
    lits[pick] = key0[pick]
    rest &= ~pick
    lits[rest & (key0 == (key1 ^ 1))] = 0
    pending = np.flatnonzero(lits == -1)
    start = 0
    while start < pending.size:
        room = table._room()
        if room <= 0:
            # Growth is imminent, and its scalar timing depends on
            # whether the *next* item misses (growth happens inside
            # insert, after the lookup probed the old layout).  Replay
            # one item scalar to keep the sequence exact, then resume.
            index = int(pending[start])
            lit, work = node_table.get_or_create(
                int(lits0[index]), int(lits1[index]), alloc
            )
            lits[index] = lit
            probes[index] = work
            start += 1
            continue
        stop = min(pending.size, start + room)
        chunk = pending[start:stop]
        clit, cprb = _goc_chunk(
            table, key0[chunk], key1[chunk], alloc, alloc_batch
        )
        lits[chunk] = clit
        probes[chunk] = cprb
        start = stop
    return lits, probes


def _goc_chunk(table, key0, key1, alloc, alloc_batch=None):
    """get_or_create for one growth-free chunk; returns (lits, works).

    Misses insert a per-group negative sentinel value during stable
    placement; node ids are then allocated in batch order and patched
    over the sentinels (in the table slots and the results).  A miss
    costs double its path length — the scalar loop pays the probe path
    once for the lookup and once more for the insert; intra-batch
    duplicates of a missing key pay it once (their lookup finds the
    freshly created node).
    """
    m = key0.shape[0]
    _, rep_pos, reps = group_keys(key0, key1)
    sentinels = -(np.arange(reps.shape[0], dtype=np.int64) + 2)
    hit, slot, path = table._stable_place(key0[reps], key1[reps], sentinels)
    miss = ~hit
    table._size += int(miss.sum())
    res = table._avalue[slot][rep_pos]
    prb = path[rep_pos]
    prb[reps[miss]] *= 2  # doubled for the missing representative only
    # Allocate fresh node ids in batch order (``reps`` is ascending,
    # so representative positions are batch order), exactly like the
    # scalar loop.
    variables = np.empty(reps.shape[0], dtype=np.int64)
    tvalue = table._avalue
    if alloc_batch is not None:
        miss_pos = np.flatnonzero(miss)
        if miss_pos.size:
            created = alloc_batch(
                key0[reps[miss_pos]], key1[reps[miss_pos]]
            )
            variables[miss_pos] = created
            tvalue[slot[miss_pos]] = created
    else:
        for pos in np.flatnonzero(miss).tolist():
            var = alloc(int(key0[reps[pos]]), int(key1[reps[pos]]))
            variables[pos] = var
            tvalue[slot[pos]] = var
    shared = res <= -2
    if shared.any():
        res[shared] = variables[-(res[shared] + 2)]
    if observe.enabled:
        count_nonzero("hashtable.lookups", m)
        count_nonzero("hashtable.inserts", int(miss.sum()))
        count_nonzero("hashtable.probes", int(prb.sum()))
    return res << 1, prb
