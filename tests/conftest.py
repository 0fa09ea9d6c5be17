"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib
import random
from contextlib import contextmanager

import pytest

from repro.aig.aig import Aig
from repro.aig.traversal import fanout_counts
from repro.cec.equivalence import CecStatus, check_equivalence


def build_random_aig(
    seed: int,
    num_pis: int = 8,
    num_ands: int = 120,
    locality: int = 30,
) -> Aig:
    """Small random AIG with every node observable through some PO."""
    rng = random.Random(seed)
    aig = Aig(f"rand{seed}")
    literals = [aig.add_pi() for _ in range(num_pis)]
    for _ in range(num_ands):
        a = rng.choice(literals[-locality:]) ^ rng.randint(0, 1)
        b = rng.choice(literals) ^ rng.randint(0, 1)
        literals.append(aig.add_and(a, b))
    counts = fanout_counts(aig)
    for var in aig.and_vars():
        if counts[var] == 0:
            aig.add_po((var << 1) | rng.randint(0, 1))
    if aig.num_pos == 0:
        aig.add_po(literals[-1])
    return aig


def assert_equivalent(left: Aig, right: Aig, width: int = 256) -> None:
    """Fail the test unless the two AIGs are functionally equivalent."""
    result = check_equivalence(left, right, sim_width=width)
    assert result.status is CecStatus.EQUIVALENT, (
        f"{left.name} vs {right.name}: {result.status.value}, "
        f"cex={result.counterexample}, po={result.failing_output}"
    )


#: Every size cutoff that picks a scalar loop or a whole-array kernel,
#: as (module, attribute).  Results never depend on which side runs.
SIZE_CUTOFFS = (
    ("repro.aig.aig", "_BATCH_CUTOFF"),
    ("repro.aig.aig", "_BULK_COMPACT_MIN"),
    ("repro.aig.store", "_BULK_MIN"),
    ("repro.aig.traversal", "_VEC_MIN_NODES"),
    ("repro.engine.context", "_VEC_EXTEND_MIN"),
    ("repro.parallel.frontier", "_VEC_MIN_ITEMS"),
    ("repro.parallel.vec", "_SCALAR_CUTOFF"),
)


def force_vector_paths(patch: pytest.MonkeyPatch) -> None:
    """Set every size cutoff to 1 so each kernel takes its vector side."""
    for module, name in SIZE_CUTOFFS:
        patch.setattr(importlib.import_module(module), name, 1)


@contextmanager
def vector_paths():
    """:func:`force_vector_paths` as a context (for hypothesis bodies)."""
    with pytest.MonkeyPatch.context() as patch:
        force_vector_paths(patch)
        yield


@pytest.fixture
def all_vector(monkeypatch):
    """Run the test with every size cutoff on its vector side."""
    force_vector_paths(monkeypatch)


@pytest.fixture
def rand_aig() -> Aig:
    return build_random_aig(7)


@pytest.fixture(params=[0, 1, 2, 3])
def seeded_aig(request) -> Aig:
    return build_random_aig(request.param)
