"""Unit tests for the AIGER literal encoding."""

import pytest

from repro.aig.aig import Aig
from repro.aig.literals import (
    CONST0,
    CONST1,
    fold_and,
    is_const_lit,
    lit_compl,
    lit_not,
    lit_not_cond,
    lit_pair_key,
    lit_regular,
    lit_var,
    make_lit,
)
from repro.parallel.hashtable import NodeHashTable


def test_constants():
    assert CONST0 == 0
    assert CONST1 == 1
    assert lit_not(CONST0) == CONST1


def test_make_lit_packs_var_and_complement():
    assert make_lit(5) == 10
    assert make_lit(5, True) == 11
    assert make_lit(0) == 0


def test_make_lit_rejects_negative_var():
    with pytest.raises(ValueError):
        make_lit(-1)


def test_var_and_compl_roundtrip():
    for var in (0, 1, 7, 1000):
        for compl in (False, True):
            lit = make_lit(var, compl)
            assert lit_var(lit) == var
            assert lit_compl(lit) == compl


def test_lit_not_is_involution():
    assert lit_not(lit_not(42)) == 42
    assert lit_not(10) == 11
    assert lit_not(11) == 10


def test_lit_not_cond():
    assert lit_not_cond(10, True) == 11
    assert lit_not_cond(10, False) == 10
    assert lit_not_cond(11, True) == 10


def test_lit_regular_strips_complement():
    assert lit_regular(11) == 10
    assert lit_regular(10) == 10


def test_is_const_lit():
    assert is_const_lit(0)
    assert is_const_lit(1)
    assert not is_const_lit(2)
    assert not is_const_lit(3)


def test_lit_pair_key_orders_commutatively():
    assert lit_pair_key(7, 4) == (4, 7)
    assert lit_pair_key(4, 7) == (4, 7)
    assert lit_pair_key(5, 5) == (5, 5)


def test_fold_rule_shared_by_every_and_constructor():
    """fold_and, Aig.add_and and NodeHashTable.get_or_create agree on
    every literal pair over the constant and three inputs."""
    aig = Aig("fold")
    inputs = [aig.add_pi() for _ in range(3)]
    literals = [CONST0, CONST1] + [
        lit ^ compl for lit in inputs for compl in (0, 1)
    ]
    table = NodeHashTable()
    for lit0 in literals:
        for lit1 in literals:
            folded = fold_and(*lit_pair_key(lit0, lit1))
            allocated = []

            def alloc(key0, key1, allocated=allocated):
                allocated.append((key0, key1))
                return aig.add_raw_and(key0, key1) >> 1

            made, probes = table.get_or_create(lit0, lit1, alloc)
            if folded is None:
                assert lit_var(lit0) != lit_var(lit1)
                assert min(lit0, lit1) > CONST1
                assert aig.is_and(lit_var(aig.add_and(lit0, lit1)))
                assert aig.is_and(lit_var(made)) and probes > 0
            else:
                assert aig.add_and(lit0, lit1) == folded
                assert (made, probes) == (folded, 0)
                assert allocated == []
