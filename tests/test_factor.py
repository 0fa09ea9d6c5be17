"""Unit and property tests for algebraic factoring."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.aig import Aig
from repro.benchgen.arith import isqrt
from repro.engine import run_script
from repro.logic import resyn
from repro.logic.factor import (
    FactorNode,
    count_factored_ands,
    factor_cover,
    factored_to_aig,
)
from repro.logic.isop import isop
from repro.logic.sop import cover_num_literals, cover_tt, make_cube
from repro.logic.truth import full_mask, simulate_cone
from tests.refactor_oracles import oracle_factor_cover, oracle_plan, tree_shape


def tables(num_vars: int):
    return st.integers(min_value=0, max_value=full_mask(num_vars))


def realize(tree: FactorNode, num_vars: int) -> int:
    """Truth table of a factored form, via a throwaway AIG."""
    aig = Aig()
    leaves = [aig.add_pi() for _ in range(num_vars)]
    literal = factored_to_aig(tree, leaves, aig.add_and)
    if literal <= 1:
        return 0 if literal == 0 else full_mask(num_vars)
    return simulate_cone(aig, literal, [leaf >> 1 for leaf in leaves])


def test_factor_constants():
    assert factor_cover([]).kind == "const0"
    assert factor_cover([frozenset()]).kind == "const1"


def test_factor_single_cube():
    tree = factor_cover([make_cube([0, 2])])
    assert realize(tree, 2) == 0b1000


def test_factor_extracts_common_literal():
    # ab + ac  ->  a(b + c): 5 literals down to 3.
    cover = [make_cube([0, 2]), make_cube([0, 4])]
    tree = factor_cover(cover)
    assert tree.num_literals() == 3
    assert realize(tree, 3) == (0b10001000 | 0b10100000)


def test_factor_kernel_extraction():
    # ac + ad + bc + bd = (a + b)(c + d): 8 literals down to 4.
    cover = [
        make_cube([0, 4]), make_cube([0, 6]),
        make_cube([2, 4]), make_cube([2, 6]),
    ]
    tree = factor_cover(cover)
    assert tree.num_literals() == 4
    assert realize(tree, 4) == realize(
        FactorNode.or_([FactorNode.and_([FactorNode.lit(a), FactorNode.lit(c)])
                        for a in (0, 2) for c in (4, 6)]),
        4,
    )


def test_factored_never_more_literals_than_sop():
    import random

    rng = random.Random(4)
    for _ in range(60):
        table = rng.getrandbits(16)
        cover = isop(table, 4)
        tree = factor_cover(cover)
        assert tree.num_literals() <= cover_num_literals(cover)


@settings(max_examples=120, deadline=None)
@given(table=tables(4))
def test_factoring_preserves_function_4vars(table):
    tree = factor_cover(isop(table, 4))
    assert realize(tree, 4) == table


@settings(max_examples=30, deadline=None)
@given(table=tables(6))
def test_factoring_preserves_function_6vars(table):
    tree = factor_cover(isop(table, 6))
    assert realize(tree, 6) == table


@settings(max_examples=60, deadline=None)
@given(table=tables(4))
def test_count_factored_ands_matches_fresh_build(table):
    """The predicted AND count bounds the strash-free build."""
    tree = factor_cover(isop(table, 4))
    counted = count_factored_ands(tree)
    aig = Aig()
    leaves = [aig.add_pi() for _ in range(4)]
    factored_to_aig(tree, leaves, aig.add_and)
    assert aig.num_ands <= counted


def test_node_flattening():
    nested = FactorNode.and_(
        [
            FactorNode.lit(0),
            FactorNode.and_([FactorNode.lit(2), FactorNode.lit(4)]),
        ]
    )
    assert nested.kind == "and"
    assert len(nested.children) == 3


def test_or_identity_and_absorber():
    assert FactorNode.or_([]).kind == "const0"
    assert FactorNode.and_([]).kind == "const1"
    eaten = FactorNode.and_([FactorNode.lit(0), FactorNode("const0")])
    assert eaten.kind == "const0"


def test_to_string_renders():
    tree = factor_cover([make_cube([0, 2]), make_cube([0, 5])])
    text = tree.to_string()
    assert "a" in text and "+" in text


# ----------------------------------------------------------------------
# Parity with the frozenset GFACTOR oracle
# ----------------------------------------------------------------------


def _shape_or_error(factor, cover):
    try:
        return tree_shape(factor(cover))
    except ValueError as error:  # both sides must fail alike
        return ("error", type(error).__name__)


@st.composite
def random_cubes(draw, num_vars):
    """A random cube: each variable absent, positive or negative."""
    picks = draw(
        st.lists(st.integers(0, 2), min_size=num_vars, max_size=num_vars)
    )
    return frozenset(
        2 * var + (pick - 1) for var, pick in enumerate(picks) if pick
    )


@st.composite
def isop_covers(draw):
    """ISOP of the function of a random small cover, 1–12 inputs."""
    num_vars = draw(st.integers(1, 12))
    seed_cover = draw(st.lists(random_cubes(num_vars), max_size=10))
    return isop(cover_tt(seed_cover, num_vars), num_vars)


@st.composite
def arbitrary_covers(draw):
    """Covers no ISOP would produce: duplicates, contained cubes, …"""
    num_vars = draw(st.integers(1, 8))
    cubes = draw(st.lists(random_cubes(num_vars), max_size=14))
    repeats = draw(st.lists(st.integers(0, 13), max_size=4))
    return cubes + [cubes[i] for i in repeats if i < len(cubes)]


@settings(max_examples=200, deadline=None)
@given(cover=isop_covers())
def test_factor_matches_oracle_on_isop_covers(cover):
    assert _shape_or_error(factor_cover, cover) == _shape_or_error(
        oracle_factor_cover, cover
    )


@settings(max_examples=300, deadline=None)
@given(cover=arbitrary_covers())
def test_factor_matches_oracle_on_arbitrary_covers(cover):
    assert _shape_or_error(factor_cover, cover) == _shape_or_error(
        oracle_factor_cover, cover
    )


def _rfc_resyn_12_input_tables(monkeypatch) -> list[int]:
    """Distinct 12-input functions ``rfc_resyn`` plans on ``isqrt(10)``."""
    seen: dict[int, None] = {}
    planner = resyn._cached_plan

    def recording(table, num_vars, max_cubes):
        if num_vars == 12:
            seen[table] = None
        return planner(table, num_vars, max_cubes)

    with monkeypatch.context() as patch:
        patch.setattr(resyn, "_cached_plan", recording)
        run_script(isqrt(10), "rfc_resyn", engine="gpu")
    return list(seen)


def test_plans_match_oracle_on_rfc_resyn_tables(monkeypatch):
    tables_12 = _rfc_resyn_12_input_tables(monkeypatch)
    assert len(tables_12) > 100
    resyn.plan_resynthesis.cache_clear()
    for table in tables_12:
        plan = resyn.plan_resynthesis(table, 12)
        expected = oracle_plan(table, 12)
        if expected is None:
            assert plan is None
            continue
        got = (
            tree_shape(plan.tree),
            plan.output_neg,
            plan.est_ands,
            plan.support,
            plan.work,
        )
        assert got == expected
