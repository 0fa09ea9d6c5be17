"""Reference implementations of the refactoring kernels (test oracles).

The shipped kernels (:mod:`repro.logic.factor`, :mod:`repro.logic.isop`,
:func:`repro.aig.cuts.reconv_cut`) work on packed cubes, narrowed truth
tables and once-read fanin pairs.  The plain formulations they replaced
live here and nowhere in ``src/``: the full-width ISOP recursion,
frozenset cube algebra with MIS-style GFACTOR on top, a resynthesis
plan built from those, and the reconvergence cut that asks the graph
facade for every fanin pair in every expansion round.  Parity tests
compare the shipped results against these structurally.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.aig.cuts import CutResult
from repro.aig.literals import lit_var
from repro.logic.factor import FactorNode, count_factored_ands
from repro.logic.resyn import MAX_RESYN_CUBES
from repro.logic.sop import TRUE_CUBE, Cover, Cube
from repro.logic.truth import full_mask, tt_cofactor0, tt_cofactor1, var_table

# ----------------------------------------------------------------------
# Full-width ISOP
# ----------------------------------------------------------------------


def oracle_isop(lower, upper, num_vars, var_limit, memo=None):
    """Minato–Morreale recursion on ``2**num_vars``-bit tables.

    Returns ``(cover, table)``.  Memo-free by default; given a ``memo``
    dict it memoizes the way the shipped recursion does and counts hits
    under ``memo["hits"]``.
    """
    if lower == 0:
        return [], 0
    mask = full_mask(num_vars)
    if upper == mask:
        return [frozenset()], mask
    key = (lower, upper, var_limit)
    if memo is not None and key in memo:
        memo["hits"] = memo.get("hits", 0) + 1
        return memo[key]
    split = -1
    for index in range(var_limit - 1, -1, -1):
        if _depends_on(lower, index, num_vars) or _depends_on(
            upper, index, num_vars
        ):
            split = index
            break
    lower0 = tt_cofactor0(lower, split, num_vars)
    lower1 = tt_cofactor1(lower, split, num_vars)
    upper0 = tt_cofactor0(upper, split, num_vars)
    upper1 = tt_cofactor1(upper, split, num_vars)
    cover0, table0 = oracle_isop(
        lower0 & ~upper1, upper0, num_vars, split, memo
    )
    cover1, table1 = oracle_isop(
        lower1 & ~upper0, upper1, num_vars, split, memo
    )
    rest_lower = (lower0 & ~table0) | (lower1 & ~table1)
    cover_star, table_star = oracle_isop(
        rest_lower, upper0 & upper1, num_vars, split, memo
    )
    cover = [cube | {2 * split + 1} for cube in cover0]
    cover += [cube | {2 * split} for cube in cover1]
    cover += cover_star
    var_tt = var_table(split, num_vars)
    result = (table0 & ~var_tt) | (table1 & var_tt) | table_star
    if memo is not None:
        memo[key] = (cover, result)
    return cover, result


def _depends_on(table: int, index: int, num_vars: int) -> bool:
    """Dependence by the definition: the two cofactors differ."""
    return tt_cofactor0(table, index, num_vars) != tt_cofactor1(
        table, index, num_vars
    )


def oracle_support(table: int, num_vars: int) -> list[int]:
    """Support by the cofactor definition."""
    return [
        index
        for index in range(num_vars)
        if _depends_on(table, index, num_vars)
    ]


# ----------------------------------------------------------------------
# Frozenset cube algebra
# ----------------------------------------------------------------------


def literal_counts(cover: Cover) -> dict[int, int]:
    """How many cubes each SOP literal appears in."""
    counts: dict[int, int] = {}
    for cube in cover:
        for literal in cube:
            counts[literal] = counts.get(literal, 0) + 1
    return counts


def common_cube(cover: Cover) -> Cube:
    """Largest cube dividing every cube of the cover."""
    if not cover:
        return TRUE_CUBE
    common = set(cover[0])
    for cube in cover[1:]:
        common &= cube
        if not common:
            break
    return frozenset(common)


def make_cube_free(cover: Cover) -> Cover:
    """Divide out the largest common cube."""
    common = common_cube(cover)
    if not common:
        return list(cover)
    return [cube - common for cube in cover]


def is_cube_free(cover: Cover) -> bool:
    """True when no single literal divides every cube."""
    return not common_cube(cover)


def divide_by_cube(cover: Cover, divisor: Cube) -> tuple[Cover, Cover]:
    """Algebraic division of a cover by a single cube."""
    quotient: Cover = []
    remainder: Cover = []
    for cube in cover:
        if divisor <= cube:
            quotient.append(cube - divisor)
        else:
            remainder.append(cube)
    return quotient, remainder


def divide(cover: Cover, divisor: Cover) -> tuple[Cover, Cover]:
    """Weak algebraic division of a cover by a multi-cube divisor."""
    if not divisor:
        raise ValueError("cannot divide by the empty (constant-false) cover")
    if len(divisor) == 1:
        return divide_by_cube(cover, divisor[0])
    quotient_sets: list[set[Cube]] = []
    for div_cube in divisor:
        partial, _ = divide_by_cube(cover, div_cube)
        quotient_sets.append(set(partial))
        if not partial:
            return [], list(cover)
    quotient = set.intersection(*quotient_sets)
    if not quotient:
        return [], list(cover)
    product = {
        frozenset(q_cube | d_cube)
        for q_cube in quotient
        for d_cube in divisor
    }
    remainder = [cube for cube in cover if cube not in product]
    return sorted(quotient, key=_cube_key), remainder


def _cube_key(cube: Cube) -> tuple[int, tuple[int, ...]]:
    return (len(cube), tuple(sorted(cube)))


# ----------------------------------------------------------------------
# GFACTOR over frozenset covers
# ----------------------------------------------------------------------


def oracle_factor_cover(cover: Cover) -> FactorNode:
    """Factor a cover into a multi-level expression tree."""
    if not cover:
        return FactorNode("const0")
    if any(len(cube) == 0 for cube in cover):
        return FactorNode("const1")
    return _gfactor(list(cover))


def _cube_node(cube: Cube) -> FactorNode:
    return FactorNode.and_([FactorNode.lit(lit) for lit in sorted(cube)])


def _sop_node(cover: Cover) -> FactorNode:
    return FactorNode.or_([_cube_node(cube) for cube in cover])


def _gfactor(cover: Cover) -> FactorNode:
    if len(cover) == 1:
        return _cube_node(cover[0])
    divisor = _quick_divisor(cover)
    if divisor is None:
        return _sop_node(cover)
    quotient, _ = divide(cover, divisor)
    if len(quotient) == 1:
        return _literal_factor(cover, quotient[0] | _seed_cube(divisor))
    quotient = make_cube_free(quotient)
    divisor_new, remainder = divide(cover, quotient)
    if not divisor_new:
        return _literal_factor(cover, _best_literal_cube(cover))
    if is_cube_free(divisor_new):
        quotient_tree = _gfactor(quotient)
        divisor_tree = _gfactor(divisor_new)
        product = FactorNode.and_([divisor_tree, quotient_tree])
        if not remainder:
            return product
        return FactorNode.or_([product, _gfactor(remainder)])
    return _literal_factor(cover, common_cube(divisor_new))


def _seed_cube(divisor: Cover) -> Cube:
    return divisor[0] if divisor else frozenset()


def _best_literal_cube(cover: Cover) -> Cube:
    counts = literal_counts(cover)
    best = max(counts, key=lambda lit: (counts[lit], -lit))
    return frozenset({best})


def _literal_factor(cover: Cover, candidates: Cube) -> FactorNode:
    counts = literal_counts(cover)
    pool = [lit for lit in candidates if counts.get(lit, 0) > 1]
    if not pool:
        pool = [lit for lit, count in counts.items() if count > 1]
    if not pool:
        return _sop_node(cover)
    literal = max(pool, key=lambda lit: (counts[lit], -lit))
    quotient, remainder = divide_by_cube(cover, frozenset({literal}))
    product = FactorNode.and_([FactorNode.lit(literal), _gfactor(quotient)])
    if not remainder:
        return product
    return FactorNode.or_([product, _gfactor(remainder)])


def _quick_divisor(cover: Cover) -> Cover | None:
    counts = literal_counts(cover)
    if not any(count > 1 for count in counts.values()):
        return None
    kernel = list(cover)
    while True:
        counts = literal_counts(kernel)
        repeated = [lit for lit, count in counts.items() if count > 1]
        if not repeated:
            break
        literal = max(repeated, key=lambda lit: (counts[lit], -lit))
        kernel, _ = divide_by_cube(kernel, frozenset({literal}))
        kernel = make_cube_free(kernel)
        if len(kernel) <= 1:
            return None
    return kernel if len(kernel) > 1 else None


def oracle_plan(
    table: int, num_vars: int, max_cubes: int = MAX_RESYN_CUBES
) -> tuple | None:
    """``(tree shape, output_neg, est_ands, support, work)`` of a plan.

    The resynthesis plan of :func:`repro.logic.resyn.plan_resynthesis`
    rebuilt from the oracles above, field for field.
    """
    support = oracle_support(table, num_vars)
    pos_cover = oracle_isop(table, table, num_vars, num_vars, {})[0]
    negated = table ^ full_mask(num_vars)
    neg_cover = oracle_isop(negated, negated, num_vars, num_vars, {})[0]

    def cover_work(cover):
        return sum(len(cube) + 1 for cube in cover)

    def single(cover, output_neg):
        tree = oracle_factor_cover(cover)
        return (
            tree_shape(tree),
            output_neg,
            count_factored_ands(tree),
            support,
            cover_work(cover),
        )

    if min(len(pos_cover), len(neg_cover)) > max_cubes:
        return None
    if len(pos_cover) > max_cubes:
        return single(neg_cover, True)
    if len(neg_cover) > max_cubes:
        return single(pos_cover, False)
    pos_tree = oracle_factor_cover(pos_cover)
    neg_tree = oracle_factor_cover(neg_cover)
    pos_cost = count_factored_ands(pos_tree)
    neg_cost = count_factored_ands(neg_tree)
    work = (
        cover_work(pos_cover)
        + cover_work(neg_cover)
        + max(1, (1 << num_vars) >> 6)
    )
    if neg_cost < pos_cost:
        return tree_shape(neg_tree), True, neg_cost, support, work
    return tree_shape(pos_tree), False, pos_cost, support, work


def tree_shape(tree: FactorNode) -> tuple:
    """Kind, payload and ordered children of a tree, as nested tuples."""
    return (
        tree.kind,
        tree.payload,
        tuple(tree_shape(child) for child in tree.children),
    )


# ----------------------------------------------------------------------
# Reconvergence-driven cut through the facade
# ----------------------------------------------------------------------


def oracle_reconv_cut(
    aig,
    root: int,
    max_cut_size: int,
    expandable: Callable[[int, set[int]], bool] | None = None,
    on_expand: Callable[[int], None] | None = None,
) -> CutResult:
    """Best-first cut growth reading fanins on every evaluation."""
    if max_cut_size < 2:
        raise ValueError("max_cut_size must be at least 2")
    cone: set[int] = {root}
    if on_expand is not None:
        on_expand(root)
    leaves: set[int] = set()
    for fanin in aig.fanins(root):
        leaves.add(lit_var(fanin))
    work = 0
    while True:
        best_var = -1
        best_cost = 3
        for var in leaves:
            if not aig.is_and(var):
                continue
            if expandable is not None and not expandable(var, cone):
                continue
            work += 1
            cost = -1
            for fanin in aig.fanins(var):
                fvar = lit_var(fanin)
                if fvar not in leaves and fvar not in cone:
                    cost += 1
            if cost < best_cost or (cost == best_cost and var < best_var):
                best_var = var
                best_cost = cost
        if best_var < 0 or len(leaves) + best_cost > max_cut_size:
            break
        leaves.discard(best_var)
        cone.add(best_var)
        if on_expand is not None:
            on_expand(best_var)
        for fanin in aig.fanins(best_var):
            fvar = lit_var(fanin)
            if fvar not in cone:
                leaves.add(fvar)
    return CutResult(root, leaves, cone, work + len(cone))
