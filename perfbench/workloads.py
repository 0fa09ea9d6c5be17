"""The benchmark's workloads and their seeded input generators.

Every workload is a list of input graphs plus the script(s) a
``repro-aig opt`` user would run on each.  Inputs are derived from the
benchmark seed alone; the program only ever sees the ``.aig`` files the
benchmark writes from them.

Each input is a seeded variant of a fixed base circuit from
:mod:`repro.benchgen`: :func:`variant` keeps the base unchanged and adds
a disjoint random control block of about fifteen ANDs, with its own PIs
and POs, drawn from the seed.  The work the optimizer does on the base
stays the same for every seed while every input, and every QoR number,
changes a little.  Drawing whole new random graphs per seed instead
moves AND counts by a few percent and script wall time by more than 15%
from seed to seed, which would hide the regressions the bounds are
meant to catch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.aig.aig import Aig
from repro.benchgen.arith import isqrt, log2_approx, multiplier
from repro.benchgen.control import random_control
from repro.benchgen.random_aig import mtm_random

Inputs = list[tuple[str, Aig]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: seeded inputs and the scripts run on them.

    ``scripts`` run one after the other on each input (the second on the
    first's result).  ``full_cec`` adds a SAT equivalence check of every
    output on top of the simulation check.
    """

    name: str
    why: str
    scripts: tuple[str, ...]
    build: Callable[[random.Random, bool], Inputs]
    full_cec: bool = False


def variant(base: Aig, rng: random.Random) -> Aig:
    """``base`` unchanged beside a disjoint seeded random control block.

    The block (about fifteen ANDs, own PIs and POs) is built after the
    base, so the base keeps its node order and the optimizer treats it
    the same way for every seed.  It is small so that the seeded part of
    ``ands_after`` spreads well within that metric's bound.
    """
    side = random_control(6, 2, 6, rng=rng, name="side")
    out = Aig(base.name)
    for graph in (base, side):
        lits = {0: 0}
        for index, var in enumerate(graph.pis):
            lits[var] = out.add_pi(graph.pi_name(index))

        def mapped(lit: int) -> int:
            return lits[lit >> 1] ^ (lit & 1)

        for var in graph.and_vars():
            f0, f1 = graph.fanins(var)
            lits[var] = out.add_and(mapped(f0), mapped(f1))
        for index, lit in enumerate(graph.pos):
            out.add_po(mapped(lit), graph.po_name(index))
    compacted, _ = out.compact()
    return compacted


def _refactor_deep(rng: random.Random, tiny: bool) -> Inputs:
    return [("isqrt", variant(isqrt(10 if tiny else 16), rng))]


def _small_mixed(rng: random.Random, tiny: bool) -> Inputs:
    n = 4 if tiny else 1
    bases = [
        ("mtm_a", mtm_random(24, 250 // n, 8, seed=23, locality=48)),
        ("mtm_b", mtm_random(28, 220 // n, 10, seed=20, locality=96)),
        ("mult", multiplier(6 if tiny else 9)),
        ("log2", log2_approx(8 if tiny else 24)),
        ("ctrl_a", random_control(32, 4, 120 // n, seed=97)),
        ("ctrl_b", random_control(36, 3, 160 // n, seed=1005)),
    ]
    return [(name, variant(base, rng)) for name, base in bases]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "refactor_deep",
            "rf_resyn then rfc_resyn on a ~1k-AND, ~170-level isqrt: no rw, "
            "so resynthesis and commit work run and the cut/NPN match idles",
            ("rf_resyn", "rfc_resyn"),
            _refactor_deep,
        ),
        Workload(
            "small_mixed",
            "resyn2 on six 400-750-AND random, arithmetic and control "
            "graphs below the kernel cutoffs: scalar paths and cold caches",
            ("resyn2",),
            _small_mixed,
            full_cec=True,
        ),
    )
}


def make_inputs(workload: Workload, seed: int, tiny: bool = False) -> Inputs:
    """The workload's input graphs for ``seed`` (same seed, same graphs)."""
    return workload.build(random.Random(f"{workload.name}/{seed}"), tiny)
