"""Irredundant sum-of-products via the Minato–Morreale algorithm.

This is the SOP-generation step of refactoring's resynthesis pipeline
(paper, Section III-B: "truthtable computation, Sum-of-Product
generation and algebraic factoring").  The recursion computes, for a
lower bound L and upper bound U (L ⊆ f ⊆ U allowed), an irredundant
cover sitting between the bounds; calling it with L = U = f yields an
ISOP of f.

Sub-problems below split variable ``s`` depend only on the variables
under ``s``, so the recursion passes tables narrowed to ``2**var_limit``
bits (as ABC's ``Kit_TruthIsop`` does) and packed-int cubes
(:func:`repro.logic.sop.pack_cube`), the form :func:`isop_cubes` hands
to factoring.

The recursion meets the same sub-problem many times (cofactor pairs
recur across branches), so each top-level call memoizes its
sub-problems in a dict that is dropped when the call returns.  The memo
is per call rather than per process: a process-wide one holds every
sub-cover of every function ever seen.
"""

from __future__ import annotations

from repro import observe
from repro.logic.sop import Cover, unpack_cube
from repro.logic.truth import MAX_TT_VARS, full_mask

#: ``_MASKS[k]`` is the all-ones table over ``k`` variables.
_MASKS = tuple(full_mask(k) for k in range(MAX_TT_VARS + 1))


def isop(table: int, num_vars: int) -> Cover:
    """Compute an irredundant SOP cover of ``table``.

    The returned cover's truth table equals ``table`` exactly (verified
    cheaply by callers via :func:`repro.logic.sop.cover_tt`); no cube or
    literal can be removed without changing the function.
    """
    return isop_with_dc(table, table, num_vars)


def isop_cubes(table: int, num_vars: int) -> list[int]:
    """:func:`isop` with packed cubes (bit ``l`` = SOP literal ``l``)."""
    full_mask(num_vars)  # validates num_vars
    return _isop(table, table, num_vars, {})[0]


def isop_with_dc(lower: int, upper: int, num_vars: int) -> Cover:
    """ISOP of any function f with ``lower ⊆ f ⊆ upper`` (don't-cares)."""
    if lower & ~upper:
        raise ValueError("lower bound is not contained in upper bound")
    full_mask(num_vars)  # validates num_vars
    return [unpack_cube(cube) for cube in _isop(lower, upper, num_vars, {})[0]]


def _isop(
    lower: int,
    upper: int,
    var_limit: int,
    memo: dict[tuple[int, int, int], tuple[list[int], int]],
) -> tuple[list[int], int]:
    """Recursive core: returns (packed cover, truth table of the cover).

    ``lower`` and ``upper`` depend only on the variables below
    ``var_limit`` and are given (and the table is returned) at
    ``2**var_limit`` bits.  ``memo`` maps ``(lower, upper, var_limit)``
    to a finished result of this top-level call.  Stored covers are
    shared between the sub-results that reuse them, so nothing here
    mutates a cover after it is returned.
    """
    if lower == 0:
        return [], 0
    mask = _MASKS[var_limit]
    if upper == mask:
        return [0], mask
    key = (lower, upper, var_limit)
    hit = memo.get(key)
    if hit is not None:
        if observe.enabled:
            observe.count("isop.memo_hits")
        return hit
    # Split on the highest variable either bound still depends on; the
    # bounds drop to the low half for every variable skipped.
    split = var_limit - 1
    while True:
        if split < 0:
            # Bounds are constant but neither 0 nor 1 — impossible.
            raise AssertionError("non-constant bounds without support")
        half = 1 << split
        low = _MASKS[split]
        lower0 = lower & low
        lower1 = lower >> half
        upper0 = upper & low
        upper1 = upper >> half
        if lower0 != lower1 or upper0 != upper1:
            break
        lower = lower0
        upper = upper0
        split -= 1
    # Minterms needed only on the x=0 (resp. x=1) side.
    cover0, table0 = _isop(lower0 & ~upper1, upper0, split, memo)
    cover1, table1 = _isop(lower1 & ~upper0, upper1, split, memo)
    # What remains uncovered must be covered independently of x.
    rest_lower = (lower0 & ~table0) | (lower1 & ~table1)
    cover_star, table_star = _isop(rest_lower, upper0 & upper1, split, memo)
    neg_literal = 1 << (2 * split + 1)
    pos_literal = 1 << (2 * split)
    cover = [cube | neg_literal for cube in cover0]
    cover += [cube | pos_literal for cube in cover1]
    cover += cover_star
    result = (table0 | table_star) | ((table1 | table_star) << half)
    # Widen back over the skipped variables (the table ignores them).
    width = half << 1
    while width < 1 << var_limit:
        result |= result << width
        width <<= 1
    memo[key] = (cover, result)
    return cover, result
