"""Independent output check: AIGER parsing and bit-parallel simulation.

Nothing here calls the optimizer, the program's AIGER reader or
``repro.cec``: an input graph is taken through the public array
accessors of :class:`~repro.aig.aig.Aig`, an output is parsed straight
from the ``.aag`` text the program wrote, and both are simulated on the
same seeded random patterns.  Equal primary-output words on every
pattern is the pass criterion; the simulation also yields the AND count
and depth the QoR metrics report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: 64-bit pattern words simulated per signal (1024 patterns).
WORDS = 16


@dataclass
class Netlist:
    """A combinational AIG as flat arrays, ANDs in topological order."""

    num_vars: int
    pi_vars: np.ndarray
    and_vars: np.ndarray
    lit0: np.ndarray
    lit1: np.ndarray
    po_lits: np.ndarray

    @property
    def num_ands(self) -> int:
        return int(self.and_vars.size)


@dataclass
class Signature:
    """Simulation result of one netlist."""

    num_pis: int
    po_words: np.ndarray
    num_ands: int
    depth: int


def netlist_of_aig(aig) -> Netlist:
    """Flat arrays of ``aig``'s live logic via its public accessors."""
    f0, f1, _ = aig.arrays()
    ands = aig.live_and_array()
    return Netlist(
        int(f0.size),
        np.asarray(aig.pi_array(), dtype=np.int64),
        ands.astype(np.int64),
        f0[ands].astype(np.int64),
        f1[ands].astype(np.int64),
        np.asarray(aig.po_array(), dtype=np.int64),
    )


def parse_aag(text: str) -> Netlist:
    """Parse combinational ASCII AIGER; raises ValueError if malformed."""
    head, _, body = text.partition("\n")
    fields = head.split()
    if len(fields) != 6 or fields[0] != "aag":
        raise ValueError(f"bad AIGER header {head!r}")
    max_var, num_pis, latches, num_pos, num_ands = map(int, fields[1:])
    if latches:
        raise ValueError("latches are not supported")
    need = num_pis + num_pos + 3 * num_ands
    tokens = body.split(None, need)[:need]
    if len(tokens) < need:
        raise ValueError("truncated AIGER body")
    values = np.array(tokens, dtype=np.int64)
    rows = values[num_pis + num_pos :].reshape(num_ands, 3)
    if (rows[:, 0] & 1).any():
        raise ValueError("complemented AND output literal")
    return Netlist(
        max_var + 1,
        values[:num_pis] >> 1,
        rows[:, 0] >> 1,
        rows[:, 1],
        rows[:, 2],
        values[num_pis : num_pis + num_pos],
    )


def _levels(net: Netlist) -> np.ndarray:
    level = [0] * net.num_vars
    for var, a, b in zip(
        net.and_vars.tolist(),
        (net.lit0 >> 1).tolist(),
        (net.lit1 >> 1).tolist(),
    ):
        if a >= var or b >= var:
            raise ValueError(f"AND {var} is not in topological order")
        la, lb = level[a], level[b]
        level[var] = 1 + (la if la > lb else lb)
    return np.array(level, dtype=np.int64)


def _inv_mask(lits: np.ndarray) -> np.ndarray:
    return np.where(lits & 1, np.uint64(~np.uint64(0)), np.uint64(0))[
        :, None
    ]


def simulate(net: Netlist, seed: int) -> Signature:
    """PO words of ``net`` under ``WORDS`` seeded 64-bit patterns per PI.

    Patterns are assigned to PIs by position, so two netlists with the
    same PI order are compared on identical stimuli.
    """
    rng = np.random.default_rng(seed)
    values = np.zeros((net.num_vars, WORDS), dtype=np.uint64)
    values[net.pi_vars] = rng.integers(
        0, 2**64, size=(net.pi_vars.size, WORDS), dtype=np.uint64
    )
    level = _levels(net)
    and_level = level[net.and_vars]
    order = np.argsort(and_level, kind="stable")
    bounds = np.searchsorted(
        and_level[order], np.arange(1, int(and_level.max(initial=0)) + 2)
    )
    for start, stop in zip(bounds[:-1], bounds[1:]):
        pick = order[start:stop]
        l0, l1 = net.lit0[pick], net.lit1[pick]
        values[net.and_vars[pick]] = (values[l0 >> 1] ^ _inv_mask(l0)) & (
            values[l1 >> 1] ^ _inv_mask(l1)
        )
    po = net.po_lits
    depth = int(level[po >> 1].max(initial=0))
    return Signature(
        int(net.pi_vars.size),
        values[po >> 1] ^ _inv_mask(po),
        net.num_ands,
        depth,
    )


def mismatch(reference: Signature, output: Signature) -> str | None:
    """Why ``output`` differs from ``reference``, or None if it matches."""
    if reference.num_pis != output.num_pis:
        return f"{output.num_pis} PIs, expected {reference.num_pis}"
    ref, out = reference.po_words, output.po_words
    if ref.shape != out.shape:
        return f"PO/pattern shape {out.shape} != {ref.shape}"
    bad = np.flatnonzero((ref != out).any(axis=1))
    if bad.size:
        return f"{bad.size} PO(s) differ, first PO {int(bad[0])}"
    return None
