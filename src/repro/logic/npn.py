"""Exact NPN canonicalization of small Boolean functions.

Rewriting matches each 4-input cut function against a library indexed
by NPN class (negation of inputs, permutation of inputs, negation of
output).  For up to four variables exhaustive canonicalization is
cheap: all ``2 * n! * 2^n`` transforms are applied at once, as one
NumPy gather through precomputed minterm maps, and the
lexicographically smallest truth table wins.  Results are memoized
per process, so each distinct table pays the search once.

The transform bookkeeping follows one convention throughout:

    ``canon(y) = f(z) ^ out_neg``  with  ``z[perm[i]] = y[i] ^ phase[perm[i]]``

so a structure realizing ``canon`` over inputs ``y_i`` is instantiated
on a concrete cut by feeding input ``i`` with the leaf for variable
``perm[i]``, complemented when bit ``perm[i]`` of ``phase`` is set, and
complementing the output when ``out_neg`` holds
(:func:`npn_leaf_assignment`).  ``tests/test_npn.py`` checks this
round-trip identity exhaustively.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from repro.logic.truth import full_mask

#: Largest input count supported by exact NPN canonicalization here.
MAX_NPN_VARS = 4


class NpnTransform:
    """Canonical form of a function plus the transform reaching it."""

    __slots__ = ("canon", "perm", "phase", "out_neg", "num_vars")

    def __init__(
        self,
        canon: int,
        perm: tuple[int, ...],
        phase: int,
        out_neg: bool,
        num_vars: int,
    ) -> None:
        self.canon = canon
        self.perm = perm
        self.phase = phase
        self.out_neg = out_neg
        self.num_vars = num_vars

    def __repr__(self) -> str:
        return (
            f"NpnTransform(canon={self.canon:#x}, perm={self.perm}, "
            f"phase={self.phase:#04b}, out_neg={self.out_neg})"
        )


@lru_cache(maxsize=None)
def _minterm_maps(
    num_vars: int,
) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """All (perm, phase, minterm-map) triples for ``num_vars`` inputs.

    ``map[m]`` is the minterm of the original function that position
    ``m`` of the transformed table reads: ``scatter_perm(m) ^ phase``.
    The list order (permutations lexicographic, phases ascending) is
    the search order that breaks ties between equal candidates.
    """
    size = 1 << num_vars
    maps = []
    for perm in permutations(range(num_vars)):
        scatter = []
        for minterm in range(size):
            source = 0
            for index in range(num_vars):
                if minterm >> index & 1:
                    source |= 1 << perm[index]
            scatter.append(source)
        for phase in range(size):
            mapped = tuple(source ^ phase for source in scatter)
            maps.append((perm, phase, mapped))
    return maps


@lru_cache(maxsize=None)
def _gather_plan(num_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """``(maps, weights)`` arrays for the vectorized search.

    ``maps`` is the ``(transforms, 2**num_vars)`` stack of
    :func:`_minterm_maps`, in its order; ``weights[m] = 2**m`` turns
    one gathered row of minterm bits back into a truth table.
    """
    maps = np.array(
        [mapped for _, _, mapped in _minterm_maps(num_vars)], dtype=np.intp
    ).reshape(-1, 1 << num_vars)
    weights = np.left_shift(1, np.arange(1 << num_vars, dtype=np.int64))
    return maps, weights


@lru_cache(maxsize=None)
def npn_canon(table: int, num_vars: int) -> NpnTransform:
    """Exact NPN-canonical representative of ``table``.

    Returns the lexicographically smallest truth table among all NPN
    transforms, together with one transform achieving it: the first
    minimum in :func:`_minterm_maps` order, uncomplemented output
    before complemented.  A miss costs one NumPy gather of the
    table's minterm bits through every transform's minterm map.
    """
    if not 0 <= num_vars <= MAX_NPN_VARS:
        raise ValueError(
            f"exact NPN supports up to {MAX_NPN_VARS} variables, "
            f"got {num_vars}"
        )
    mask = full_mask(num_vars)
    if table & ~mask:
        raise ValueError("truth table wider than the declared variable count")
    maps, weights = _gather_plan(num_vars)
    bits = np.right_shift(table, np.arange(len(weights), dtype=np.int64)) & 1
    transformed = bits[maps] @ weights
    # Candidate 2*t is transform t as is, 2*t+1 its output complement;
    # argmin returns the first minimum, the scalar search's strict-<
    # tie-break.
    candidates = np.empty(2 * len(transformed), dtype=np.int64)
    candidates[0::2] = transformed
    candidates[1::2] = transformed ^ mask
    best = int(np.argmin(candidates))
    perm, phase, _ = _minterm_maps(num_vars)[best >> 1]
    return NpnTransform(
        int(candidates[best]), perm, phase, bool(best & 1), num_vars
    )


def npn_apply(transform: NpnTransform, table: int) -> int:
    """Apply ``transform`` to ``table`` (sanity-check helper)."""
    size = 1 << transform.num_vars
    mask = full_mask(transform.num_vars)
    out = 0
    for minterm in range(size):
        source = 0
        for index in range(transform.num_vars):
            if minterm >> index & 1:
                source |= 1 << transform.perm[index]
        source ^= transform.phase
        if table >> source & 1:
            out |= 1 << minterm
    return out ^ mask if transform.out_neg else out


def npn_leaf_assignment(
    transform: NpnTransform, leaf_lits: list[int]
) -> tuple[list[int], bool]:
    """Inputs for a canonical structure realizing the original function.

    Given AIG literals ``leaf_lits[v]`` for the original variables,
    returns ``(inputs, complement_output)`` such that feeding a
    structure of ``transform.canon`` with ``inputs[i]`` on canonical
    input ``i`` (and complementing its output when requested) realizes
    the original function.
    """
    inputs = []
    for index in range(transform.num_vars):
        source = transform.perm[index]
        literal = leaf_lits[source]
        if transform.phase >> source & 1:
            literal ^= 1
        inputs.append(literal)
    return inputs, transform.out_neg


def npn_class_count(num_vars: int) -> int:
    """Number of distinct NPN classes (exhaustive; for tests/docs)."""
    mask = full_mask(num_vars)
    classes = set()
    for table in range(mask + 1):
        classes.add(npn_canon(table, num_vars).canon)
    return len(classes)
