"""GPU-parallel AND-balancing (paper, Section IV).

The recursive ABC algorithm interleaves cluster collapse and subtree
reconstruction; the parallel reformulation separates them into two
stages (Section IV-B) justified by Property 3 (reconstruction order
does not affect delay as long as topological dependencies hold):

1. **Collapse** — identify all maximal AND clusters ("n-input AND
   nodes") level-wise from POs to PIs with a frontier array, exactly
   like the refactoring collapse but without early-stopping.
2. **Reconstruction** — process the collapsed network's levels from PIs
   to POs; within one level, all subtrees are rebuilt simultaneously by
   repeated synchronized *insertion passes*, each creating one new AND
   per subtree by combining its two minimum-delay operands through the
   shared GPU hash table (Figure 6).

Both stages are column-native: whole-array NumPy sweeps over
:meth:`~repro.aig.aig.Aig.arrays`, with Python loops only for the
clusters that need them (multi-node collapse DFS, heaps of subtrees
with more than two inputs).  Every stage reports batch/work profiles
to the :class:`~repro.parallel.machine.ParallelMachine` for the cost
model.
"""

from __future__ import annotations

import heapq
import random

import numpy as np

from repro import observe
from repro.aig.aig import Aig
from repro.algorithms.common import PassResult
from repro.algorithms.seq_balance import (
    BALANCE_WORK_SCALE,
    collect_cluster_inputs,
)
from repro.commit import InsertionSession
from repro.engine.context import context_for
from repro.engine.registry import (
    PassInvocation,
    register_command,
    register_pass,
)
from repro.parallel import backend
from repro.parallel.frontier import gather_unique_array
from repro.parallel.machine import ParallelMachine
from repro.verify import mutations, sanitizer

#: Reconstruction operands are packed ``delay << _LIT_BITS | literal``
#: so that integer order is the heap's (delay, literal) order and one
#: XOR with a fanin's complement bit yields the complemented operand.
_LIT_BITS = 32
_LIT_MASK = (1 << _LIT_BITS) - 1


@register_pass(
    "par_balance", engine="gpu", description="level-wise parallel balancing"
)
def par_balance(
    aig: Aig,
    machine: ParallelMachine | None = None,
    order_rng: random.Random | None = None,
) -> PassResult:
    """Balance an AIG with the level-wise parallel algorithm.

    ``order_rng`` shuffles the within-level subtree processing order of
    the reconstruction stage — Property 3 says the resulting delay is
    order-invariant, and the property-based tests exercise exactly
    this knob.
    """
    machine = machine if machine is not None else ParallelMachine()
    nodes_before = aig.num_ands
    levels_before = context_for(aig).depth()

    with observe.span("b.collapse", "stage"):
        plan = _collapse(aig, machine)
    observe.count("b.clusters_collapsed", plan.num_roots)
    with observe.span("b.reconstruct", "stage"):
        new, mapped = _reconstruct(aig, plan, machine, order_rng)
    pos = aig.po_array()
    new.add_po_batch(
        mapped[pos >> 1] ^ (pos & 1),
        [aig.po_name(index) for index in range(aig.num_pos)],
    )
    machine.host("b.finalize", aig.num_pos)
    result, _ = new.compact()
    return PassResult(
        result,
        nodes_before,
        result.num_ands,
        levels_before,
        context_for(result).depth(),
        details={"clusters": plan.num_roots},
    )


@register_command("b", "gpu", description="level-wise parallel balancing")
def _bind_b(invocation: PassInvocation) -> list[PassResult]:
    return [par_balance(invocation.aig, machine=invocation.machine)]


class BalancePlan:
    """The collapsed network produced by :func:`_collapse`.

    ``roots`` are the cluster roots in discovery order; root ``i``'s
    input literals are ``inputs[offsets[i]:offsets[i + 1]]`` and
    ``counts[i]`` is their number.
    """

    __slots__ = ("roots", "counts", "offsets", "inputs")

    def __init__(self, roots, counts, inputs) -> None:
        self.roots = roots
        self.counts = counts
        self.offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        self.inputs = inputs

    @property
    def num_roots(self) -> int:
        return int(self.roots.shape[0])


def _internal_mask(aig: Aig):
    """Nodes folded inside an enclosing cluster, plus the AND mask.

    A node is internal exactly when it has a single reference and that
    reference is a non-complemented AND fanin edge (not a PO), per the
    cluster definition of Section IV-A.
    """
    fan0, fan1, dead = aig.arrays()
    nref = context_for(aig).fanout_counts_array()
    is_and = fan0 >= 0
    live = is_and & ~dead
    compl_or_po = np.zeros(aig.num_vars, dtype=bool)
    compl_or_po[aig.po_array() >> 1] = True
    lf0 = fan0[live]
    lf1 = fan1[live]
    compl_or_po[(lf0 >> 1)[(lf0 & 1) == 1]] = True
    compl_or_po[(lf1 >> 1)[(lf1 & 1) == 1]] = True
    internal = live & (nref == 1) & ~compl_or_po
    return internal, is_and


def _collapse(aig: Aig, machine: ParallelMachine) -> BalancePlan:
    """Frontier-driven cluster identification from POs towards PIs.

    The dominant cluster shape — a 2-input root whose fanin edges both
    terminate (complemented, multi-fanout or PI) — is recognized with
    two mask reads and needs no traversal; only multi-node clusters
    run the DFS of :func:`collect_cluster_inputs`.
    """
    fan0, fan1, _ = aig.arrays()
    internal, is_and = _internal_mask(aig)
    # All balance kernels charge BALANCE_WORK_SCALE probe-equivalents
    # per node operation, matching the sequential meter's units.
    machine.launch_batch(
        "b.mark_internal",
        backend.const_profile(BALANCE_WORK_SCALE, max(aig.num_vars, 1)),
    )

    frontier, gather_work = gather_unique_array(aig.po_array() >> 1, is_and)
    machine.launch_batch(
        "b.init_frontier",
        backend.const_profile(BALANCE_WORK_SCALE, max(gather_work, 1)),
    )
    enqueued = np.zeros(aig.num_vars, dtype=bool)
    enqueued[frontier] = True

    # Clusters partition the AND nodes (internal nodes have exactly one
    # non-complemented fanout, so each belongs to one cluster): one
    # guard over the whole collapse checks the partition empirically.
    guard = sanitizer.batch("b.collapse")
    roots_parts = []
    counts_parts = []
    inputs_parts = []
    while frontier.size:
        f0 = fan0[frontier]
        f1 = fan1[frontier]
        multi = ((f0 & 1) == 0) & internal[f0 >> 1]
        multi |= ((f1 & 1) == 0) & internal[f1 >> 1]
        n = int(frontier.shape[0])
        visited = np.ones(n, dtype=np.int64)
        counts = np.full(n, 2, dtype=np.int64)
        multi_idx = np.flatnonzero(multi).tolist()
        multi_inputs: list[list[int]] = []
        members: dict[int, list[int]] = {}
        for index in multi_idx:
            lane = [] if sanitizer.enabled else None
            inputs, seen = collect_cluster_inputs(
                aig, int(frontier[index]), internal, members=lane
            )
            if lane is not None:
                members[index] = lane
            multi_inputs.append(inputs)
            visited[index] = seen
            counts[index] = len(inputs)
        if sanitizer.enabled:
            for index, root in enumerate(frontier.tolist()):
                guard.write(root, members.get(index, (root,)))
        starts = np.cumsum(counts) - counts
        flat = np.empty(int(counts.sum()), dtype=np.int64)
        single = ~multi
        flat[starts[single]] = f0[single]
        flat[starts[single] + 1] = f1[single]
        for index, inputs in zip(multi_idx, multi_inputs):
            flat[starts[index]:starts[index] + len(inputs)] = inputs
        machine.launch_batch(
            "b.collapse", (visited + counts) * BALANCE_WORK_SCALE
        )
        roots_parts.append(frontier)
        counts_parts.append(counts)
        inputs_parts.append(flat)
        if observe.enabled:
            observe.count("kernels.b_singleton_clusters", n - len(multi_idx))
        candidates = flat >> 1
        frontier, _ = gather_unique_array(candidates, is_and & ~enqueued)
        enqueued[frontier] = True
        machine.launch_batch(
            "b.gather_frontier",
            backend.const_profile(
                BALANCE_WORK_SCALE, max(int(candidates.shape[0]), 1)
            ),
        )
    if not roots_parts:
        empty = np.empty(0, dtype=np.int64)
        return BalancePlan(empty, empty, empty)
    return BalancePlan(
        np.concatenate(roots_parts),
        np.concatenate(counts_parts),
        np.concatenate(inputs_parts),
    )


def _combine(got: int, p0: int, p1: int) -> int:
    """Packed operand of ``AND(p0, p1)`` once the table returned ``got``.

    ``p1`` is the larger packed operand, so it holds the larger delay:
    a table node sits one level above it, while a fold onto an operand
    keeps that operand's delay and a constant has none.
    """
    if got == p0 & _LIT_MASK:
        return p0
    if got == p1 & _LIT_MASK:
        return p1
    if got <= 1:
        return got
    return ((p1 | _LIT_MASK) + 1) | got


def _levelize_collapsed(aig: Aig, plan: BalancePlan):
    """Roots grouped by level of the collapsed network (wave fixpoint).

    A root's level is one more than the maximum level over its input
    subtrees; constants and PIs are level 0.  Cluster inputs only ever
    reference constants, PIs and other roots, so wave ``k`` settles
    exactly the roots of level ``k``: those whose inputs all settled.
    Returns ``(order, bounds)``: root indices by ascending level,
    discovery order within a level, and the level boundaries in
    ``order`` (``bounds[0] == 0``, ``bounds[-1] == len(order)``).
    """
    settled = np.zeros(aig.num_vars, dtype=bool)
    settled[0] = True
    settled[aig.pi_array()] = True
    pending = np.ones(plan.num_roots, dtype=bool)
    starts = plan.offsets[:-1]
    invars = plan.inputs >> 1
    waves = []
    bounds = [0]
    while bounds[-1] < plan.num_roots:
        ready = np.logical_and.reduceat(settled[invars], starts)
        wave = np.flatnonzero(ready & pending)
        if not wave.size:
            # A cluster input that is neither a PI nor a cluster root.
            raise KeyError(int(plan.roots[np.flatnonzero(pending)[0]]))
        pending[wave] = False
        settled[plan.roots[wave]] = True
        waves.append(wave)
        bounds.append(bounds[-1] + int(wave.shape[0]))
    order = np.concatenate(waves) if waves else np.empty(0, np.int64)
    return order, bounds


def _reconstruct(
    aig: Aig,
    plan: BalancePlan,
    machine: ParallelMachine,
    order_rng: random.Random | None = None,
):
    """Level-wise parallel subtree reconstruction (PIs to POs).

    Two-input subtrees — the vast majority — finish in the first
    synchronized insertion pass of their level and are handled
    entirely with array arithmetic; deeper subtrees keep per-subtree
    heaps of packed (delay, literal) operands.  Every table call, node
    allocation and work profile is issued in batch order.

    ``order_rng`` randomizes the within-level subtree order; by
    Property 3 the delays produced are identical for every order (node
    counts may differ through sharing, functions never do).

    Returns ``(new, mapped)``: the rebuilt (uncompacted) graph and the
    per-old-variable array of new literals.
    """
    order, bounds = _levelize_collapsed(aig, plan)
    machine.launch_batch(
        "b.levelize",
        backend.const_profile(BALANCE_WORK_SCALE, max(plan.num_roots, 1)),
    )

    new = Aig(aig.name)
    # Counted allocation through the commit layer: whole miss chunks go
    # through the batch constructor (``commit.bulk_nodes``), stragglers
    # through the scalar path (``commit.serial_replays``).
    session = InsertionSession(new, expected=aig.num_ands * 2)
    # Per old variable: packed (delay, new literal) of its rebuilt
    # subtree; constants are (0, 0) and PIs (0, new PI literal).
    packed = np.zeros(aig.num_vars, dtype=np.int64)
    pis = aig.pi_array()
    packed[pis] = new.add_pi_batch(int(pis.shape[0]))
    if not plan.num_roots:
        return new, packed

    # Every per-root column in level order, so that each level is one
    # contiguous slice.
    roots = plan.roots[order]
    counts = plan.counts[order]
    starts = plan.offsets[:-1][order]
    works = counts * BALANCE_WORK_SCALE
    # Operands of every subtree's first two inputs (only two-input
    # subtrees use them; deeper ones are overwritten from their heaps).
    in_a = plan.inputs[starts]
    in_b = plan.inputs[starts + 1]
    var_a, bit_a = in_a >> 1, in_a & 1
    var_b, bit_b = in_b >> 1, in_b & 1
    deep = counts != 2
    deep_levels = np.add.reduceat(deep, bounds[:-1]).tolist()
    fanin = plan.inputs
    mutate = mutations.armed and mutations.active("b-flip-input")
    for lo, hi, num_deep in zip(bounds, bounds[1:], deep_levels):
        batch = slice(lo, hi)
        if order_rng is not None:
            shuffled = list(range(lo, hi))
            order_rng.shuffle(shuffled)
            batch = np.asarray(shuffled, dtype=np.int64)
        # Operands map through the final entries of lower levels.
        ka = packed[var_a[batch]] ^ bit_a[batch]
        kb = packed[var_b[batch]] ^ bit_b[batch]
        # Reconstruction table of the deeper subtrees: a min-heap of
        # packed operands still to be combined, per batch position.
        heaps: dict[int, list[int]] = {}
        if num_deep:
            for position in np.flatnonzero(deep[batch]).tolist():
                index = (
                    lo + position if order_rng is None else batch[position]
                )
                start = int(starts[index])
                seg = fanin[start:start + int(counts[index])]
                heaps[position] = (packed[seg >> 1] ^ (seg & 1)).tolist()
        if mutate:
            # Complement the level's first subtree's first operand.
            if 0 in heaps:
                heaps[0][0] ^= 1
            else:
                ka[0] ^= 1
            mutate = False
        for heap in heaps.values():
            heapq.heapify(heap)
        machine.launch_batch("b.init_recon_table", works[batch])
        # First synchronized insertion pass: every subtree of the
        # level participates, in batch order.  Two-input subtrees pop
        # their full operand set here (min/max of the packed keys is
        # the heap's order), so this one pass finishes them.
        k0 = np.minimum(ka, kb)
        k1 = np.maximum(ka, kb)
        for position, heap in heaps.items():
            k0[position] = heapq.heappop(heap)
            k1[position] = heapq.heappop(heap)
        merged, probes = session.insert_round_arrays(
            k0 & _LIT_MASK, k1 & _LIT_MASK
        )
        # Every table node sits one level above its deeper operand;
        # only trivially folded pairs (no probe) need :func:`_combine`.
        result = ((k1 | _LIT_MASK) + 1) | merged
        if not probes.all():
            for position in np.flatnonzero(probes == 0).tolist():
                result[position] = _combine(
                    int(merged[position]),
                    int(k0[position]),
                    int(k1[position]),
                )
        for position, heap in heaps.items():
            heapq.heappush(heap, int(result[position]))
        machine.launch_batch(
            "b.insertion_pass", (probes + 5) * BALANCE_WORK_SCALE
        )
        observe.count("b.insertion_passes")
        # Remaining passes only ever involve the deep subtrees.
        while True:
            pairs = []
            popped = []
            for heap in heaps.values():
                if len(heap) < 2:
                    continue
                p0 = heapq.heappop(heap)
                p1 = heapq.heappop(heap)
                pairs.append((p0 & _LIT_MASK, p1 & _LIT_MASK))
                popped.append((heap, p0, p1))
            if not pairs:
                break
            merged_list, probes_list = session.insert_round(pairs)
            pass_works = []
            for (heap, p0, p1), got, cost in zip(
                popped, merged_list, probes_list
            ):
                heapq.heappush(heap, _combine(got, p0, p1))
                # Probe + heap maintenance, in probe-equivalents.
                pass_works.append((cost + 5) * BALANCE_WORK_SCALE)
            machine.launch("b.insertion_pass", pass_works)
            observe.count("b.insertion_passes")
        # Commit the level: two-input roots finished in pass 1, heap
        # roots hold their single remaining operand.
        for position, heap in heaps.items():
            result[position] = heap[0]
        packed[roots[batch]] = result
    return new, packed & _LIT_MASK
