"""Unit and property tests for cube algebra and ISOP generation."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import observe
from repro.logic.factor import (
    common_cube,
    divide,
    divide_by_cube,
    literal_planes,
    make_cube_free,
    most_frequent,
)
from repro.logic.isop import isop, isop_cubes, isop_with_dc
from repro.logic.sop import (
    TRUE_CUBE,
    cover_num_literals,
    cover_support,
    cover_to_string,
    cover_tt,
    cube_tt,
    make_cube,
    pack_cube,
    unpack_cube,
)
from repro.logic.truth import full_mask, var_table
from tests.refactor_oracles import oracle_isop as _reference_isop


def packed(*cubes):
    """A packed cover from literal lists."""
    return [pack_cube(make_cube(literals)) for literals in cubes]


def tables(num_vars: int):
    return st.integers(min_value=0, max_value=full_mask(num_vars))


# ----------------------------------------------------------------------
# Cubes and covers
# ----------------------------------------------------------------------


def test_make_cube_rejects_contradiction():
    with pytest.raises(ValueError):
        make_cube([0, 1])  # x0 and !x0


def test_cube_tt():
    cube = make_cube([0, 3])  # x0 & !x1
    assert cube_tt(cube, 2) == 0b0010
    assert cube_tt(TRUE_CUBE, 2) == 0xF


def test_cover_tt_is_or_of_cubes():
    cover = [make_cube([0]), make_cube([2])]  # x0 + x1
    assert cover_tt(cover, 2) == 0b1110


def test_pack_cube_round_trip():
    assert pack_cube(make_cube([0, 3, 6])) == 0b1001001
    assert unpack_cube(0b1001001) == frozenset({0, 3, 6})
    assert pack_cube(TRUE_CUBE) == 0
    assert unpack_cube(0) == TRUE_CUBE


def test_literal_counts_and_support():
    cover = [make_cube([0, 2]), make_cube([0, 5])]
    planes, repeated = literal_planes([pack_cube(cube) for cube in cover])
    # Literal 0 is counted twice (plane 1), literals 2 and 5 once.
    assert planes == [0b100100, 0b1]
    assert repeated == 0b1
    assert cover_support(cover) == {0, 1, 2}
    assert cover_num_literals(cover) == 4


def test_literal_planes_count_and_rank():
    # Literal 4 in three cubes, literals 0 and 2 in two: 4 wins, and
    # among the two-count literals the smaller one wins the tie.
    cover = packed([0, 4], [2, 4], [0, 2, 4], [6])
    planes, repeated = literal_planes(cover)
    counts = {
        lit: sum(((plane >> lit) & 1) << k for k, plane in enumerate(planes))
        for lit in range(8)
    }
    assert counts == {0: 2, 1: 0, 2: 2, 3: 0, 4: 3, 5: 0, 6: 1, 7: 0}
    assert repeated == 0b10101
    assert most_frequent(planes, repeated) == 1 << 4
    assert most_frequent(planes, 0b101) == 1 << 0


def test_common_cube_and_cube_free():
    cover = packed([0, 2], [0, 4])
    assert common_cube(cover) == pack_cube(frozenset({0}))
    free = make_cube_free(cover)
    assert common_cube(free) == 0
    assert free == packed([2], [4])


def test_divide_by_cube():
    # F = abc + abd + e, divisor ab.
    f = packed([0, 2, 4], [0, 2, 6], [8])
    quotient, remainder = divide_by_cube(f, pack_cube(make_cube([0, 2])))
    assert sorted(quotient) == sorted(packed([4], [6]))
    assert remainder == packed([8])


def test_weak_division_identity():
    # F = (a + b)(c + d) + e  expanded; divide by (c + d).
    f = packed([0, 4], [0, 6], [2, 4], [2, 6], [8])
    divisor = packed([4], [6])
    quotient, remainder = divide(f, divisor)
    assert quotient == packed([0], [2])
    assert remainder == packed([8])
    # Check F == Q*D + R over truth tables.
    product = [unpack_cube(q | d) for q in quotient for d in divisor]
    assert cover_tt(product + [unpack_cube(c) for c in remainder], 5) == (
        cover_tt([unpack_cube(c) for c in f], 5)
    )


def test_divide_by_empty_cover_rejected():
    with pytest.raises(ValueError):
        divide(packed([0]), [])


def test_divide_no_common_quotient():
    f = packed([0], [2])
    divisor = packed([4], [6])
    quotient, remainder = divide(f, divisor)
    assert quotient == []
    assert remainder == f


def test_cover_to_string():
    cover = [make_cube([0, 3]), TRUE_CUBE]
    text = cover_to_string(cover, 2)
    assert "1" in text
    assert "ab'" in text
    assert cover_to_string([], 2) == "0"


# ----------------------------------------------------------------------
# ISOP
# ----------------------------------------------------------------------


def test_isop_constants():
    assert isop(0, 3) == []
    assert isop(full_mask(3), 3) == [frozenset()]


def test_isop_single_variable():
    cover = isop(0b1010, 2)  # f = x0
    assert cover == [frozenset({0})]


@settings(max_examples=120, deadline=None)
@given(table=tables(4))
def test_isop_realizes_function_4vars(table):
    assert cover_tt(isop(table, 4), 4) == table


@settings(max_examples=40, deadline=None)
@given(table=tables(6))
def test_isop_realizes_function_6vars(table):
    assert cover_tt(isop(table, 6), 6) == table


@settings(max_examples=60, deadline=None)
@given(table=tables(4))
def test_isop_is_irredundant(table):
    """Removing any cube changes the function."""
    cover = isop(table, 4)
    assert cover_tt(cover, 4) == table
    for index in range(len(cover)):
        reduced = cover[:index] + cover[index + 1 :]
        assert cover_tt(reduced, 4) != table


def test_isop_with_dont_cares_respects_bounds():
    lower = 0b1000
    upper = 0b1110
    cover = isop_with_dc(lower, upper, 2)
    realized = cover_tt(cover, 2)
    assert realized & ~upper == 0
    assert lower & ~realized == 0


def test_isop_with_dc_rejects_bad_bounds():
    with pytest.raises(ValueError):
        isop_with_dc(0b11, 0b01, 2)


def test_isop_xor_has_expected_cube_count():
    # 3-input XOR needs 4 minterm cubes in any SOP.
    xor3 = 0b10010110
    cover = isop(xor3, 3)
    assert len(cover) == 4
    assert cover_tt(cover, 3) == xor3


# ----------------------------------------------------------------------
# Per-call memo: parity with the memo-free recursion
# ----------------------------------------------------------------------


def _fixed_12_input_tables():
    """Deterministic 12-input functions: full, sparse and DC-bounded."""
    rng = random.Random(12)
    mask = full_mask(12)
    xs = [var_table(index, 12) for index in range(12)]
    majority3 = (xs[0] & xs[5]) | (xs[5] & xs[11]) | (xs[0] & xs[11])
    parity4 = xs[1] ^ xs[4] ^ xs[7] ^ xs[10]
    adder = (xs[0] & xs[1]) | ((xs[0] ^ xs[1]) & (xs[2] & xs[3] | xs[6]))
    cases = [
        (majority3, majority3),
        (parity4, parity4),
        (adder ^ xs[11], adder ^ xs[11]),
        (majority3 & ~xs[8], majority3 | xs[2]),
    ]
    for _ in range(6):
        upper = rng.getrandbits(1 << 12)
        cases.append((upper, upper))
        cases.append((upper & rng.getrandbits(1 << 12), upper))
    # Sparse random: a random function of four of the twelve inputs.
    chosen = [2, 3, 9, 11]
    table = 0
    for minterm in range(1 << 12):
        index = sum(
            ((minterm >> var) & 1) << k for k, var in enumerate(chosen)
        )
        if (0xB6E9 >> index) & 1:
            table |= 1 << minterm
    cases.append((table, table))
    cases.append((table & ~xs[0], table | xs[6] & xs[7]))
    return [(lower & mask, upper & mask) for lower, upper in cases]


_CASES_12 = _fixed_12_input_tables()


@pytest.mark.parametrize("index", range(len(_CASES_12)))
def test_isop_matches_reference_at_12_inputs(index):
    """Narrowed recursion vs the full-width one: covers and memo hits."""
    lower, upper = _CASES_12[index]
    memo = {}
    expected, _ = _reference_isop(lower, upper, 12, 12, memo)
    observe.enable()
    try:
        if lower == upper:
            got = isop(lower, 12)
        else:
            got = isop_with_dc(lower, upper, 12)
    finally:
        _, registry = observe.disable()
    assert got == expected
    hits = registry.snapshot()["counters"].get("isop.memo_hits", 0)
    assert hits == memo.get("hits", 0)
    if lower == upper:
        assert cover_tt(got, 12) == lower
        packed_cover = isop_cubes(lower, 12)
        assert [unpack_cube(cube) for cube in packed_cover] == got


@st.composite
def bounded_functions(draw):
    """``(lower, upper, num_vars)`` with ``lower ⊆ upper``, 1–12 vars."""
    num_vars = draw(st.integers(min_value=1, max_value=12))
    upper = draw(tables(num_vars))
    lower = upper & draw(tables(num_vars))
    return lower, upper, num_vars


@settings(max_examples=80, deadline=None)
@given(case=bounded_functions())
@example(case=(*_CASES_12[0], 12))
@example(case=(*_CASES_12[2], 12))
@example(case=(*_CASES_12[3], 12))
@example(case=(*_CASES_12[-1], 12))
@example(case=(*_CASES_12[-2], 12))
def test_isop_matches_memo_free_reference(case):
    lower, upper, num_vars = case
    for table in (lower, upper):
        expected, _ = _reference_isop(table, table, num_vars, num_vars)
        assert isop(table, num_vars) == expected
    expected, _ = _reference_isop(lower, upper, num_vars, num_vars)
    assert isop_with_dc(lower, upper, num_vars) == expected


def test_returned_covers_do_not_leak_between_calls():
    # 0x6996 (4-input XOR) and a 6-input majority-like table both hit
    # the memo; a caller mutating one result must not see the change
    # echoed by the next identical call.
    for table, num_vars in ((0x6996, 4), (0xE8E8E880E8808000, 6)):
        first = isop(table, num_vars)
        expected = list(first)
        first.append(frozenset({0}))
        first[0] = frozenset({1})
        assert isop(table, num_vars) == expected
        lower = table & 0x5555555555555555
        first = isop_with_dc(lower, table, num_vars)
        expected = list(first)
        first.clear()
        assert isop_with_dc(lower, table, num_vars) == expected


def test_memo_hits_are_counted_when_observed():
    observe.enable()
    try:
        isop(0x6996, 4)
    finally:
        _, registry = observe.disable()
    assert registry.snapshot()["counters"]["isop.memo_hits"] > 0
