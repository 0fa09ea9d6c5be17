"""Differential tests for the batched hash-table kernels.

Every batched operation of :class:`repro.parallel.hashtable.HashTable`
has a per-item loop (below :data:`repro.parallel.vec._SCALAR_CUTOFF`)
and a whole-array path; both must give the same resident values, the
same per-item probe counts, the same final slot layout and the same
``hashtable.*`` counters.  These tests drive twin tables — one pinned
to each path — through crafted collision batches and randomized op
mixes and compare everything.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from repro import observe
from repro.parallel import vec
from repro.parallel.hashtable import HashTable, NodeHashTable, _hash_key

#: ``_SCALAR_CUTOFF`` values pinning every batch to one path.
PER_ITEM = 10**9
WHOLE_ARRAY = 0


@contextmanager
def _path(cutoff: int):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vec, "_SCALAR_CUTOFF", cutoff)
        yield


def _twin_tables(expected: int = 4) -> tuple[HashTable, HashTable]:
    scalar = HashTable(expected=expected)
    vector = HashTable(expected=expected)
    return scalar, vector


def _apply(table, op, keys, values=None):
    if op == "lookup":
        return table.lookup_batch(keys)
    if op == "insert":
        return table.insert_batch(keys, values)
    return table.update_batch(keys, values)


def _colliding_keys(capacity: int, count: int) -> list[tuple[int, int]]:
    """``count`` distinct keys hashing to one bucket of ``capacity``."""
    mask = capacity - 1
    bucket = _hash_key(0, 0) & mask
    keys = []
    key0 = 0
    while len(keys) < count:
        if _hash_key(key0, 7) & mask == bucket:
            keys.append((key0, 7))
        key0 += 1
    return keys


def _compare_batch(scalar, vector, op, keys, values=None):
    with _path(PER_ITEM):
        got_s = _apply(scalar, op, keys, values)
    with _path(WHOLE_ARRAY):
        got_v = _apply(vector, op, keys, values)
    assert got_s == got_v
    assert scalar.dump() == vector.dump()
    assert scalar.size == vector.size
    assert scalar.capacity == vector.capacity
    return got_s


# ----------------------------------------------------------------------
# Crafted collision batches (probe-conflict resolution)
# ----------------------------------------------------------------------


def test_single_bucket_collision_batch():
    """All keys probe the same slot: probes must be 1, 2, 3, ..."""
    scalar, vector = _twin_tables(expected=4)
    keys = _colliding_keys(scalar.capacity, 6)
    values = [100 + i for i in range(len(keys))]
    out, works = _compare_batch(scalar, vector, "insert", keys, values)
    assert out == values
    assert works == list(range(1, len(keys) + 1))


def test_duplicate_keys_in_batch_first_wins():
    """Same key many times in one batch: the first value is resident."""
    scalar, vector = _twin_tables(expected=4)
    keys = [(9, 9)] * 5 + [(3, 4)] * 3
    values = [10, 11, 12, 13, 14, 20, 21, 22]
    out, _ = _compare_batch(scalar, vector, "insert", keys, values)
    assert out == [10, 10, 10, 10, 10, 20, 20, 20]


def test_update_batch_duplicate_keys_chain():
    """Duplicate update keys chain: each sees the previous one's value."""
    scalar, vector = _twin_tables(expected=4)
    _compare_batch(scalar, vector, "insert", [(1, 2)], [50])
    keys = [(1, 2), (1, 2), (8, 8), (8, 8)]
    values = [60, 70, 80, 90]
    out, _ = _compare_batch(scalar, vector, "update", keys, values)
    assert out == [50, 60, None, 80]
    out, _ = _compare_batch(scalar, vector, "lookup", [(1, 2), (8, 8)])
    assert out == [70, 90]


def test_eviction_wraparound_near_full():
    """Probe sequences that wrap past the end of the slot array."""
    scalar, vector = _twin_tables(expected=4)
    capacity = scalar.capacity
    mask = capacity - 1
    # Keys biased into the last two buckets force wraparound probing.
    keys = []
    key0 = 0
    while len(keys) < capacity // 2 - 1:
        if _hash_key(key0, 3) & mask >= capacity - 2:
            keys.append((key0, 3))
        key0 += 1
    values = list(range(len(keys)))
    _compare_batch(scalar, vector, "insert", keys, values)
    _compare_batch(scalar, vector, "lookup", keys)


def test_growth_mid_batch():
    """One batch large enough to trigger several doublings."""
    scalar, vector = _twin_tables(expected=4)
    rng = random.Random(7)
    keys = [(rng.randrange(10_000), rng.randrange(10_000)) for _ in range(600)]
    values = list(range(len(keys)))
    _compare_batch(scalar, vector, "insert", keys, values)
    assert scalar.capacity > 16
    _compare_batch(scalar, vector, "lookup", keys)


def test_empty_batches():
    scalar, vector = _twin_tables(expected=4)
    assert _compare_batch(scalar, vector, "insert", [], []) == ([], [])
    assert _compare_batch(scalar, vector, "update", [], []) == ([], [])
    assert _compare_batch(scalar, vector, "lookup", []) == ([], [])


def test_scalar_cutoff_boundary():
    """Batches just below/above the shipped cutoff match the loop."""
    cutoff = vec._SCALAR_CUTOFF
    for n in (cutoff - 1, cutoff, cutoff + 1):
        scalar, shipped = _twin_tables(expected=4)
        rng = random.Random(n)
        keys = [(rng.randrange(200), rng.randrange(200)) for _ in range(n)]
        values = list(range(n))
        for op, args in (("insert", (keys, values)), ("lookup", (keys,))):
            with _path(PER_ITEM):
                expected = _apply(scalar, op, *args)
            assert _apply(shipped, op, *args) == expected
            assert shipped.dump() == scalar.dump()


# ----------------------------------------------------------------------
# Randomized differential fuzz (ops, layout, counters)
# ----------------------------------------------------------------------


def _counters(registry) -> dict[str, int]:
    return {
        key: value
        for key, value in registry.snapshot()["counters"].items()
        if key.startswith("hashtable")
    }


@pytest.mark.parametrize("seed", range(60))
def test_mixed_op_fuzz_differential(seed):
    """Random insert/update/lookup mixes: outputs, layout, counters."""
    rng = random.Random(seed)
    scalar, vector = _twin_tables(expected=rng.choice([4, 64, 1024]))
    keyspace = rng.choice([8, 60, 400, 5000])
    ops = []
    for _ in range(rng.randrange(1, 12)):
        op = rng.choice(["insert", "update", "lookup"])
        m = rng.randrange(0, rng.choice([8, 40, 300, 3000]))
        keys = [
            (rng.randrange(keyspace), rng.randrange(keyspace))
            for _ in range(m)
        ]
        values = [rng.randrange(10**6) for _ in range(m)]
        ops.append((op, keys, values))

    outs = {}
    counters = {}
    for cutoff, table in ((PER_ITEM, scalar), (WHOLE_ARRAY, vector)):
        with _path(cutoff):
            observe.enable()
            got = [_apply(table, *op) for op in ops]
            _, registry = observe.disable()
        outs[cutoff] = got
        counters[cutoff] = _counters(registry)

    assert outs[PER_ITEM] == outs[WHOLE_ARRAY]
    assert scalar.dump() == vector.dump()
    assert counters[PER_ITEM] == counters[WHOLE_ARRAY]


def _node_table_run(seed: int):
    """One seeded seed/get_or_create session; everything observable."""
    rng = random.Random(seed)
    observe.enable()
    table = NodeHashTable(expected=rng.choice([4, 256]))
    next_var = [100]

    def alloc(key0, key1):
        next_var[0] += 1
        return next_var[0]

    outs = []
    litspace = rng.choice([6, 50, 800])
    m0 = rng.randrange(0, 50)
    lits0 = [rng.randrange(litspace) for _ in range(m0)]
    lits1 = [rng.randrange(litspace) for _ in range(m0)]
    outs.append(table.seed_batch(lits0, lits1, list(range(500, 500 + m0))))
    for _ in range(rng.randrange(1, 8)):
        m = rng.randrange(0, rng.choice([8, 60, 900]))
        pairs = [
            (rng.randrange(litspace), rng.randrange(litspace))
            for _ in range(m)
        ]
        outs.append(table.get_or_create_batch(pairs, alloc))
    _, registry = observe.disable()
    return outs, table._table.dump(), next_var[0], _counters(registry)


@pytest.mark.parametrize("seed", range(60))
def test_node_table_get_or_create_fuzz(seed):
    """NodeHashTable seed/get_or_create batches on both paths."""
    with _path(PER_ITEM):
        scalar = _node_table_run(seed)
    with _path(WHOLE_ARRAY):
        vector = _node_table_run(seed)
    # (outputs, table layout, allocation count, hashtable.* counters)
    assert scalar == vector
