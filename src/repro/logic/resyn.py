"""Cone resynthesis: truth table → ISOP → factoring → AND-inverter logic.

This is the per-cone resynthesis pipeline shared by sequential and
parallel refactoring (paper, Section III-B: one GPU thread runs exactly
this per identified cone).  Both polarities of the function are
factored and the cheaper factored form wins, mirroring ABC's practice
of resynthesizing whichever of f / f' factors better.

A plan is a pure function of ``(table, num_vars, max_cubes)``, so
:func:`plan_resynthesis` keeps one bounded process-wide LRU of plans
that every refactoring call site shares; plans (and their factored
trees) are therefore immutable once built.
"""

from __future__ import annotations

from functools import lru_cache

from repro import observe
from repro.logic.factor import (
    FactorNode,
    count_factored_ands,
    factor_cubes,
    factored_to_aig,
)
from repro.logic.isop import isop_cubes
from repro.logic.truth import full_mask, tt_support


class ResynPlan:
    """A chosen implementation for a cone function.

    Immutable by contract: :func:`plan_resynthesis` hands the same
    cached instance to every caller asking for the same function, so
    neither the plan, its ``support`` list nor its ``tree`` may be
    modified after construction.

    Attributes
    ----------
    tree:
        Factored form of the implemented polarity.
    output_neg:
        True when the tree realizes the complement of the requested
        function (the built root literal must then be inverted).
    est_ands:
        Predicted number of fresh 2-input ANDs (:func:`count_factored_ands`
        of the tree) — the new-cone size of the paper's gain lower bound.
    support:
        Cut variables the function actually depends on; leaves outside
        this set would become dangling after replacement (Section III-F).
    work:
        Unit-work estimate for the cost model (SOP cubes + literals
        processed).
    """

    __slots__ = ("tree", "output_neg", "est_ands", "support", "work")

    def __init__(
        self,
        tree: FactorNode,
        output_neg: bool,
        est_ands: int,
        support: list[int],
        work: int,
    ) -> None:
        self.tree = tree
        self.output_neg = output_neg
        self.est_ands = est_ands
        self.support = support
        self.work = work


#: Covers beyond this many cubes are not factored (XOR-dominated cone
#: functions explode in SOP form; ABC's refactoring bails out alike).
MAX_RESYN_CUBES = 128


#: Distinct functions whose plans :func:`plan_resynthesis` keeps.
PLAN_CACHE_SIZE = 256


def plan_resynthesis(
    table: int, num_vars: int, max_cubes: int = MAX_RESYN_CUBES
) -> ResynPlan | None:
    """Factor ``table`` (trying both polarities) and report the plan.

    Returns None when both polarities exceed ``max_cubes`` product
    terms — the cone is left untouched by the caller.  Results come
    from a process-wide LRU of :data:`PLAN_CACHE_SIZE` entries
    (``plan_resynthesis.cache_info()`` / ``.cache_clear()``); a hit
    returns the very plan object a miss built.
    """
    if not observe.enabled:
        return _cached_plan(table, num_vars, max_cubes)
    misses = _cached_plan.cache_info().misses
    plan = _cached_plan(table, num_vars, max_cubes)
    if _cached_plan.cache_info().misses == misses:
        observe.count("resyn.plan_cache.hits")
    else:
        observe.count("resyn.plan_cache.misses")
    return plan


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cached_plan(
    table: int, num_vars: int, max_cubes: int
) -> ResynPlan | None:
    """The planning itself, memoized behind :func:`plan_resynthesis`."""
    support = tt_support(table, num_vars)
    pos_cover = isop_cubes(table, num_vars)
    neg_cover = isop_cubes(table ^ full_mask(num_vars), num_vars)
    if min(len(pos_cover), len(neg_cover)) > max_cubes:
        return None
    if len(pos_cover) > max_cubes:
        return _plan_single(neg_cover, True, support)
    if len(neg_cover) > max_cubes:
        return _plan_single(pos_cover, False, support)
    pos_tree = factor_cubes(pos_cover)
    neg_tree = factor_cubes(neg_cover)
    pos_cost = count_factored_ands(pos_tree)
    neg_cost = count_factored_ands(neg_tree)
    # Work in probe-equivalent units: truth tables cost one unit per
    # 64-bit word, ISOP/factoring one unit per cube literal.
    work = (
        sum(cube.bit_count() + 1 for cube in pos_cover)
        + sum(cube.bit_count() + 1 for cube in neg_cover)
        + max(1, (1 << num_vars) >> 6)
    )
    if neg_cost < pos_cost:
        return ResynPlan(neg_tree, True, neg_cost, support, work)
    return ResynPlan(pos_tree, False, pos_cost, support, work)


def _plan_single(cover, output_neg: bool, support: list[int]) -> ResynPlan:
    """Plan from one polarity when the other polarity's cover blew up."""
    tree = factor_cubes(cover)
    cost = count_factored_ands(tree)
    work = sum(cube.bit_count() + 1 for cube in cover)
    return ResynPlan(tree, output_neg, cost, support, work)


def build_plan(plan: ResynPlan, leaf_lits: list[int], add_and) -> int:
    """Materialize a plan over concrete leaf literals; returns root literal."""
    literal = factored_to_aig(plan.tree, leaf_lits, add_and)
    return literal ^ 1 if plan.output_neg else literal


plan_resynthesis.cache_info = _cached_plan.cache_info
plan_resynthesis.cache_clear = _cached_plan.cache_clear
