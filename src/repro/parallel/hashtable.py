"""Batched linear-probing hash table (the paper's GPU hash table).

Section III-E: node uniqueness during concurrent creation is ensured by
a GPU-parallel hash table supporting *batched* insertion and query of
key-value pairs, using linear probing (memory locality) rather than
chaining, plus a concurrent dump of all pairs to a dense array.

The simulation keeps the exact open-addressing layout (power-of-two
slot array, multiplicative hash, linear probes) so that *probe counts*
— the work units the cost model charges — are faithful to what the GPU
kernels would execute.  Concurrent same-key insertions, which CUDA
resolves by atomicCAS winner-takes-all, are resolved deterministically
in batch order; the paper reports the resulting area variation to be
below 0.001%, and the simulation is simply exact.
"""

from __future__ import annotations

import numpy as np

from repro import observe
from repro.aig.literals import fold_and, lit_pair_key
from repro.parallel import vec
from repro.verify import sanitizer

_EMPTY = -1

#: Multiplicative hashing constant (Knuth, 64-bit golden ratio).
_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _hash_key(key0: int, key1: int) -> int:
    value = (key0 * _MIX + key1) & _MASK64
    value ^= value >> 31
    return (value * _MIX) & _MASK64


class HashTable:
    """Open-addressing hash table from (int, int) keys to int values.

    Storage is three int64 slot arrays.  The single-item operations
    index them through *memoryview* twins (``_key0``/``_key1``/
    ``_value``), which speak plain Python ints at close to list speed
    where ndarray scalar indexing would box ``np.int64`` on every
    probe.  The batched operations run whole-array code at or above
    :data:`repro.parallel.vec._SCALAR_CUTOFF` items and the per-item
    loop below it — same layout, same probe counts, same counters.
    """

    def __init__(self, expected: int = 1024, load_factor: float = 0.5) -> None:
        if not 0.0 < load_factor < 1.0:
            raise ValueError("load factor must be in (0, 1)")
        self._load_factor = load_factor
        capacity = 16
        while capacity * load_factor < max(expected, 1):
            capacity *= 2
        self._alloc_slots(capacity)
        self._size = 0

    def _alloc_slots(self, capacity: int) -> None:
        """Allocate the slot arrays plus their memoryview twins.

        ``_acidx`` holds, per slot, the batch position of a tentative
        occupant during stable placement (-1 outside it).
        """
        self._akey0 = np.full(capacity, _EMPTY, dtype=np.int64)
        self._akey1 = np.full(capacity, _EMPTY, dtype=np.int64)
        self._avalue = np.full(capacity, _EMPTY, dtype=np.int64)
        self._acidx = np.full(capacity, -1, dtype=np.int64)
        self._key0 = memoryview(self._akey0)
        self._key1 = memoryview(self._akey1)
        self._value = memoryview(self._avalue)

    @property
    def size(self) -> int:
        """Number of resident key-value pairs."""
        return self._size

    @property
    def capacity(self) -> int:
        """Allocated slot count (power of two)."""
        return len(self._value)

    # ------------------------------------------------------------------
    # Single-item operations (each returns its probe count as work)
    # ------------------------------------------------------------------

    def insert(self, key0: int, key1: int, value: int) -> tuple[int, int]:
        """Insert a pair; returns ``(resident_value, probes)``.

        If the key already exists the stored value is returned unchanged
        — this "insert then read back" is exactly how shareable nodes
        are discovered (Section III-E).
        """
        if (self._size + 1) > len(self._value) * self._load_factor:
            self._grow()
        mask = len(self._value) - 1
        slot = _hash_key(key0, key1) & mask
        probes = 1
        while True:
            if self._value[slot] == _EMPTY:
                self._key0[slot] = key0
                self._key1[slot] = key1
                self._value[slot] = value
                self._size += 1
                if observe.enabled:
                    observe.count("hashtable.inserts")
                    observe.count("hashtable.probes", probes)
                return value, probes
            if self._key0[slot] == key0 and self._key1[slot] == key1:
                if observe.enabled:
                    observe.count("hashtable.insert_hits")
                    observe.count("hashtable.probes", probes)
                return self._value[slot], probes
            slot = (slot + 1) & mask
            probes += 1

    def lookup(self, key0: int, key1: int) -> tuple[int | None, int]:
        """Find a key; returns ``(value_or_None, probes)``."""
        mask = len(self._value) - 1
        slot = _hash_key(key0, key1) & mask
        probes = 1
        while True:
            if self._value[slot] == _EMPTY:
                value = None
                break
            if self._key0[slot] == key0 and self._key1[slot] == key1:
                value = self._value[slot]
                break
            slot = (slot + 1) & mask
            probes += 1
        if observe.enabled:
            observe.count("hashtable.lookups")
            observe.count("hashtable.probes", probes)
        return value, probes

    def update(
        self, key0: int, key1: int, value: int
    ) -> tuple[int | None, int]:
        """Overwrite the value of an existing key (or insert).

        Returns ``(previous_value_or_None, probes)``.  Needed by the
        level-wise de-duplication pass, which re-points keys at their
        surviving representative.
        """
        if (self._size + 1) > len(self._value) * self._load_factor:
            self._grow()
        mask = len(self._value) - 1
        slot = _hash_key(key0, key1) & mask
        probes = 1
        while True:
            if self._value[slot] == _EMPTY:
                self._key0[slot] = key0
                self._key1[slot] = key1
                self._value[slot] = value
                self._size += 1
                if observe.enabled:
                    # Not an update of anything resident: classified
                    # separately so ``hashtable.updates`` counts actual
                    # re-pointings only.
                    observe.count("hashtable.update_inserts")
                    observe.count("hashtable.probes", probes)
                return None, probes
            if self._key0[slot] == key0 and self._key1[slot] == key1:
                previous = self._value[slot]
                self._value[slot] = value
                if observe.enabled:
                    observe.count("hashtable.updates")
                    observe.count("hashtable.probes", probes)
                return previous, probes
            slot = (slot + 1) & mask
            probes += 1

    # ------------------------------------------------------------------
    # Batched operations
    # ------------------------------------------------------------------

    def insert_batch(self, keys, values) -> tuple[list[int], list[int]]:
        """Batched insert; returns (resident values, per-item probes)."""
        n = len(values)
        if n == 0:
            return [], []
        if n < vec._SCALAR_CUTOFF:
            out = []
            works = []
            for (k0, k1), value in zip(keys, values):
                resident, probes = self.insert(int(k0), int(k1), int(value))
                out.append(int(resident))
                works.append(probes)
            return out, works
        key0, key1 = vec.as_key_arrays(keys)
        vals = np.asarray(values, dtype=np.int64)
        res = np.empty(n, dtype=np.int64)
        prb = np.empty(n, dtype=np.int64)
        inserted = 0
        start = 0
        while start < n:
            room = self._room()
            if room <= 0:
                self._grow()
                continue
            stop = min(n, start + room)
            ck0 = key0[start:stop]
            ck1 = key1[start:stop]
            cvals = vals[start:stop]
            _, rep_pos, reps = vec.group_keys(ck0, ck1)
            hit, slot, path = self._stable_place(
                ck0[reps], ck1[reps], cvals[reps]
            )
            inserted += int((~hit).sum())
            self._size += int((~hit).sum())
            # Every group member returns its representative's resident
            # value and walks its representative's exact path.
            res[start:stop] = self._avalue[slot][rep_pos]
            prb[start:stop] = path[rep_pos]
            start = stop
        if observe.enabled:
            vec.count_nonzero("hashtable.inserts", inserted)
            vec.count_nonzero("hashtable.insert_hits", n - inserted)
            vec.count_nonzero("hashtable.probes", int(prb.sum()))
        return res.tolist(), prb.tolist()

    def lookup_batch(self, keys) -> tuple[list[int | None], list[int]]:
        """Batched lookup; returns (values, per-item probes)."""
        n = len(keys)
        if n == 0:
            return [], []
        if n < vec._SCALAR_CUTOFF:
            out = []
            works = []
            for k0, k1 in keys:
                value, probes = self.lookup(int(k0), int(k1))
                out.append(None if value is None else int(value))
                works.append(probes)
            return out, works
        key0, key1 = vec.as_key_arrays(keys)
        hit, slot, probes = vec.probe_sim(
            self._akey0,
            self._akey1,
            self._avalue,
            self._avalue.shape[0] - 1,
            key0,
            key1,
        )
        if observe.enabled:
            vec.count_nonzero("hashtable.lookups", n)
            vec.count_nonzero("hashtable.probes", int(probes.sum()))
        values = self._avalue[slot].tolist()
        return (
            [value if ok else None for value, ok in zip(values, hit.tolist())],
            probes.tolist(),
        )

    def update_batch(
        self, keys, values
    ) -> tuple[list[int | None], list[int]]:
        """Batched update; returns (previous values, per-item probes)."""
        n = len(values)
        if n == 0:
            return [], []
        if n < vec._SCALAR_CUTOFF:
            out = []
            works = []
            for (k0, k1), value in zip(keys, values):
                previous, probes = self.update(int(k0), int(k1), int(value))
                out.append(None if previous is None else int(previous))
                works.append(probes)
            return out, works
        key0, key1 = vec.as_key_arrays(keys)
        vals = np.asarray(values, dtype=np.int64)
        prev = np.empty(n, dtype=np.int64)
        was_hit = np.zeros(n, dtype=bool)
        prb = np.empty(n, dtype=np.int64)
        inserted = 0
        start = 0
        while start < n:
            room = self._room()
            if room <= 0:
                self._grow()
                continue
            stop = min(n, start + room)
            ck0 = key0[start:stop]
            ck1 = key1[start:stop]
            cvals = vals[start:stop]
            order, rep_pos, reps = vec.group_keys(ck0, ck1)
            hit, slot, path = self._stable_place(
                ck0[reps], ck1[reps], cvals[reps]
            )
            misses = int((~hit).sum())
            inserted += misses
            self._size += misses
            prb[start:stop] = path[rep_pos]
            # Per-item update semantics, per key and in batch order: the
            # first item sees the pre-batch resident value (None on a
            # miss), every later one sees its predecessor's value, and
            # the last value stays in the table.
            sorted_pos = rep_pos[order]
            first = np.empty(order.shape[0], dtype=bool)
            first[0] = True
            first[1:] = sorted_pos[1:] != sorted_pos[:-1]
            cprev = np.empty(order.shape[0], dtype=np.int64)
            cprev[~first] = cvals[order[:-1]][~first[1:]]
            base = self._avalue[slot]
            cprev[first] = base[sorted_pos[first]]
            chit = np.ones(order.shape[0], dtype=bool)
            chit[first] = hit[sorted_pos[first]]
            prev[start + order] = cprev
            was_hit[start + order] = chit
            last = np.empty(order.shape[0], dtype=bool)
            last[-1] = True
            last[:-1] = first[1:]
            self._avalue[slot[sorted_pos[last]]] = cvals[order[last]]
            start = stop
        updated = int(was_hit.sum())
        if observe.enabled:
            vec.count_nonzero("hashtable.updates", updated)
            vec.count_nonzero("hashtable.update_inserts", inserted)
            vec.count_nonzero("hashtable.probes", int(prb.sum()))
        return (
            [
                value if ok else None
                for value, ok in zip(prev.tolist(), was_hit.tolist())
            ],
            prb.tolist(),
        )

    def dump(self) -> list[tuple[int, int, int]]:
        """All (key0, key1, value) triples, densely packed.

        Mirrors the table's concurrent compaction to a consecutive
        array; the order is slot order, deterministic for a given
        insertion history.
        """
        used = np.flatnonzero(self._avalue != _EMPTY)
        return list(
            zip(
                self._akey0[used].tolist(),
                self._akey1[used].tolist(),
                self._avalue[used].tolist(),
            )
        )

    def _grow(self) -> None:
        if observe.enabled:
            observe.count("hashtable.resizes")
        used = np.flatnonzero(self._avalue != _EMPTY)
        key0 = self._akey0[used]
        key1 = self._akey1[used]
        values = self._avalue[used]
        self._alloc_slots(self._avalue.shape[0] * 2)
        self._size = 0
        if key0.shape[0]:
            # Resident keys are unique: place directly, no grouping.
            # Rehash probes are maintenance, billed apart from inserts.
            _, _, path = self._stable_place(key0, key1, values)
            self._size = key0.shape[0]
            if observe.enabled:
                observe.count("hashtable.rehash_probes", int(path.sum()))

    def _room(self) -> int:
        """Inserts guaranteed not to trigger the growth check."""
        return (
            int(self._avalue.shape[0] * self._load_factor) - self._size
        )

    def _stable_place(
        self, key0: np.ndarray, key1: np.ndarray, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stable placement of a growth-free chunk of DISTINCT keys.

        Returns ``(hit, slot, path)``.  Misses are committed: their
        keys and ``values`` entries are written at their final slots
        (the caller adjusts ``_size`` and rewrites values when the
        semantics require it).  ``path`` is each item's full walk
        length — the per-item probe count.  The
        :mod:`repro.parallel.vec` docstring explains why this priority
        fixpoint is exactly insertion in batch order.
        """
        tkey0, tkey1, tvalue = self._akey0, self._akey1, self._avalue
        cidx = self._acidx
        mask = tvalue.shape[0] - 1
        m = key0.shape[0]
        hit = np.zeros(m, dtype=bool)
        slot = np.full(m, -1, dtype=np.int64)
        path = np.ones(m, dtype=np.int64)
        active = np.arange(m)
        cur = (vec.hash_keys(key0, key1) & np.uint64(mask)).astype(
            np.int64
        )
        rounds = 0
        while active.size:
            rounds += 1
            # Walk every active item to the first slot it stops on:
            # a key match (final hit), an empty slot, or a tentative
            # occupant with a later batch position (evictable).
            walking = active
            wcur = cur
            while walking.size:
                value = tvalue[wcur]
                empty = value == _EMPTY
                match = (
                    ~empty
                    & (tkey0[wcur] == key0[walking])
                    & (tkey1[wcur] == key1[walking])
                )
                stop = empty | match | (cidx[wcur] > walking)
                if stop.any():
                    stopped = walking[stop]
                    slot[stopped] = wcur[stop]
                    hit[stopped] = match[stop]
                    keep = ~stop
                    walking = walking[keep]
                    wcur = wcur[keep]
                wcur = (wcur + 1) & mask
                path[walking] += 1
            claimants = active[~hit[active]]
            if claimants.size == 0:
                break
            # Each contested slot goes to its lowest batch position.
            cslot = slot[claimants]
            owner = np.full(tvalue.shape[0], m, dtype=np.int64)
            np.minimum.at(owner, cslot, claimants)
            winner = owner[cslot] == claimants
            wslot = cslot[winner]
            widx = claimants[winner]
            evicted = cidx[wslot]
            evicted = evicted[evicted >= 0]
            tkey0[wslot] = key0[widx]
            tkey1[wslot] = key1[widx]
            tvalue[wslot] = values[widx]
            cidx[wslot] = widx
            # Losers re-examine the slot they lost (it stays counted in
            # their path); the displaced resume from the slot they held.
            active = np.concatenate([claimants[~winner], evicted])
            cur = slot[active]
        self._acidx[slot[~hit]] = -1
        if sanitizer.enabled and rounds > 1:
            # Extra placement rounds = slot-level arbitration between
            # batch items (the physical contention the per-item loop
            # resolves implicitly in batch order) — a vector-path
            # diagnostic, not part of the results.
            sanitizer.current().on_evictions(rounds - 1)
        return hit, slot, path


class NodeHashTable:
    """Sharing-aware AND-node creation on top of :class:`HashTable`.

    Keys are canonical fanin pairs; values are node variable ids.  The
    trivial-AND folding rules are applied before any table access, like
    the GPU node-creation kernel does.
    """

    def __init__(self, expected: int = 1024) -> None:
        self._table = HashTable(expected)

    @property
    def size(self) -> int:
        """Number of registered AND nodes."""
        return self._table.size

    def seed(self, lit0: int, lit1: int, var: int) -> int:
        """Pre-register an existing node; returns probe work."""
        key0, key1 = lit_pair_key(lit0, lit1)
        _, probes = self._table.insert(key0, key1, var)
        return probes

    def seed_batch(self, lits0, lits1, variables) -> list[int]:
        """Batched :meth:`seed`; returns per-item probe works."""
        if sanitizer.enabled:
            sanitizer.current().on_table_batch(
                "seed",
                [
                    lit_pair_key(lit0, lit1)
                    for lit0, lit1 in zip(lits0, lits1)
                ],
            )
        return vec.seed_batch(self, lits0, lits1, variables)

    def get_or_create(self, lit0: int, lit1: int, alloc) -> tuple[int, int]:
        """Return the literal of AND(lit0, lit1), creating it if new.

        ``alloc(key0, key1)`` must append a fresh raw AND node and
        return its variable id; it is called only when no equivalent
        node is resident.  Returns ``(literal, probe_work)``.
        """
        key0, key1 = lit_pair_key(lit0, lit1)
        folded = fold_and(key0, key1)
        if folded is not None:
            return folded, 0
        value, probes = self._table.lookup(key0, key1)
        if value is not None:
            return value << 1, probes
        var = alloc(key0, key1)
        resident, more = self._table.insert(key0, key1, var)
        return resident << 1, probes + more

    def get_or_create_batch(
        self, pairs: list[tuple[int, int]], alloc, alloc_batch=None
    ) -> tuple[list[int], list[int]]:
        """Batched :meth:`get_or_create` over fanin-literal pairs.

        ``alloc`` is called in batch order for the items no equivalent
        node exists for — the deterministic stand-in for the GPU's
        atomicCAS winner-takes-all.  ``alloc_batch``, when provided,
        allocates whole miss chunks of the vector path in one call
        (same ids, same order — wall-clock only).  Returns
        (literals, probe works).
        """
        if sanitizer.enabled:
            # Same-key items in one batch are the paper's atomicCAS
            # arbitration case: counted as contention, never a race.
            sanitizer.current().on_table_batch(
                "get_or_create",
                [lit_pair_key(lit0, lit1) for lit0, lit1 in pairs],
            )
        return vec.get_or_create_batch(self, pairs, alloc, alloc_batch)

    def get_or_create_arrays(self, lits0, lits1, alloc, alloc_batch=None):
        """:meth:`get_or_create_batch` over two int64 literal arrays.

        Same allocation order, probes and sanitizer report; returns
        ``(literals, probe_works)`` as int64 ndarrays.
        """
        if sanitizer.enabled:
            sanitizer.current().on_table_batch(
                "get_or_create",
                list(
                    zip(
                        np.minimum(lits0, lits1).tolist(),
                        np.maximum(lits0, lits1).tolist(),
                    )
                ),
            )
        return vec.goc_batch_arrays(self, lits0, lits1, alloc, alloc_batch)

    def lookup_lit(self, lit0: int, lit1: int) -> tuple[int | None, int]:
        """Literal of an existing AND(lit0, lit1) or None, plus work."""
        key0, key1 = lit_pair_key(lit0, lit1)
        value, probes = self._table.lookup(key0, key1)
        if value is None:
            return None, probes
        return value << 1, probes
