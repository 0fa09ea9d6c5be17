"""Unit tests for the cone resynthesis pipeline (tt -> ISOP -> factor)."""

import random

from repro import observe
from repro.aig.aig import Aig
from repro.logic.resyn import (
    PLAN_CACHE_SIZE,
    build_plan,
    plan_resynthesis,
)
from repro.logic.truth import full_mask, simulate_cone


def realize_plan(plan, num_vars: int) -> int:
    aig = Aig()
    leaves = [aig.add_pi() for _ in range(num_vars)]
    literal = build_plan(plan, leaves, aig.add_and)
    if literal <= 1:
        return 0 if literal == 0 else full_mask(num_vars)
    return simulate_cone(aig, literal, [leaf >> 1 for leaf in leaves])


def test_plan_realizes_random_functions():
    rng = random.Random(5)
    for num_vars in (2, 3, 4, 5):
        for _ in range(30):
            table = rng.getrandbits(1 << num_vars)
            plan = plan_resynthesis(table, num_vars)
            assert plan is not None
            assert realize_plan(plan, num_vars) == table


def test_plan_constants():
    plan0 = plan_resynthesis(0, 3)
    assert realize_plan(plan0, 3) == 0
    plan1 = plan_resynthesis(full_mask(3), 3)
    assert realize_plan(plan1, 3) == full_mask(3)


def test_plan_picks_cheaper_polarity():
    # f = a + b + c + d: SOP of f has 4 cubes but !f is one cube, so
    # the complemented polarity gives the smaller factored form.
    table = full_mask(4) ^ 1  # everything except minterm 0000
    plan = plan_resynthesis(table, 4)
    assert plan is not None
    assert plan.est_ands <= 3
    assert realize_plan(plan, 4) == table


def test_plan_support_excludes_dead_inputs():
    from repro.logic.truth import var_table

    table = var_table(1, 3)  # depends only on x1
    plan = plan_resynthesis(table, 3)
    assert plan.support == [1]


def test_plan_cube_cap_returns_none():
    # 8-input XOR: both polarities need 128 cubes.
    table = 0
    for minterm in range(1 << 8):
        if bin(minterm).count("1") % 2:
            table |= 1 << minterm
    assert plan_resynthesis(table, 8, max_cubes=64) is None


def test_plan_cube_cap_one_polarity_ok():
    # f with tiny complement cover: cap hits only the positive cover.
    table = full_mask(6) ^ 1
    plan = plan_resynthesis(table, 6, max_cubes=4)
    assert plan is not None
    assert plan.output_neg
    assert realize_plan(plan, 6) == table


def test_plan_work_is_positive():
    plan = plan_resynthesis(0xCA, 3)
    assert plan.work > 0


def test_est_ands_upper_bounds_build():
    rng = random.Random(9)
    for _ in range(40):
        table = rng.getrandbits(16)
        plan = plan_resynthesis(table, 4)
        aig = Aig()
        leaves = [aig.add_pi() for _ in range(4)]
        build_plan(plan, leaves, aig.add_and)
        assert aig.num_ands <= plan.est_ands


def test_plan_cache_counts_hits_and_misses():
    plan_resynthesis.cache_clear()
    observe.enable()
    try:
        first = plan_resynthesis(0xCA, 3)
        second = plan_resynthesis(0xCA, 3)
        plan_resynthesis(0x96, 3)
    finally:
        _, registry = observe.disable()
    counters = registry.snapshot()["counters"]
    assert second is first  # a hit returns the plan the miss built
    assert counters["resyn.plan_cache.hits"] == 1
    assert counters["resyn.plan_cache.misses"] == 2
    info = plan_resynthesis.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


def test_plan_cache_is_bounded():
    plan_resynthesis.cache_clear()
    for table in range(PLAN_CACHE_SIZE + 40):
        plan_resynthesis(table, 4)
    assert plan_resynthesis.cache_info().currsize == PLAN_CACHE_SIZE
    # Evicted entries are recomputed to an equal plan.
    again = plan_resynthesis(0x0001, 4)
    assert realize_plan(again, 4) == 0x0001
