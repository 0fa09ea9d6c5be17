"""Kernel-path identity and constant work profiles.

Every batched kernel runs as whole-array NumPy code above a per-kernel
size cutoff and as a per-item scalar loop below it; both sides produce
the same AIGs, probe counts, counters and modeled times
(``docs/ARCHITECTURE.md``, "Scalar vs vector paths").  There is no
runtime backend choice: :func:`current_backend` names the one
implementation so run manifests can record it.
"""

from __future__ import annotations

import numpy as np


def current_backend() -> str:
    """The kernel implementation name recorded in run manifests."""
    return "numpy"


def const_profile(work: int, count: int) -> np.ndarray:
    """A work profile of ``count`` items, each charging ``work`` units.

    Consumed by
    :meth:`~repro.parallel.machine.ParallelMachine.launch_batch`
    without a per-item loop.
    """
    return np.full(count, work, dtype=np.int64)
