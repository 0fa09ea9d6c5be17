"""Per-layer measurement for traced runs, installed from outside ``src/``.

:class:`LayerProbes` wraps the public entry points of the layers on the
optimize path with timers and counters by rebinding every ``repro.*``
module attribute that refers to the original function.  Nested calls of
one probe (``enumerate_cuts_with_tables`` calling ``enumerate_cuts``)
are timed once, at the outermost call.  :func:`layer_metrics` turns the
probes, the ``repro.observe`` trace and counters, and the scripts'
:class:`~repro.engine.SequenceResult` objects into the flat per-layer
metric set that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable

#: Commands whose per-command wall and AND savings are reported.
COMMANDS = ("b", "rw", "rwz", "rf", "rfz", "rfc")

#: Stage spans (as named by ``observe.span``) reported as
#: ``algorithms.<name>_s`` (inclusive) and ``..._self_s``.
STAGES = (
    "rw.match",
    "rw.replace",
    "rf.collapse",
    "rf.refine",
    "rf.resynthesize",
    "rf.replace",
    "rfc.collect",
    "rfc.resynthesize",
    "rfc.resolve",
    "rfc.replace",
    "b.collapse",
    "b.reconstruct",
)


class Probe:
    """Accumulated wall time and call count of one wrapped function."""

    def __init__(self, on_result: Callable[[Any], None] | None = None):
        self.seconds = 0.0
        self.calls = 0
        self.on_result = on_result
        self._depth = 0

    def wrap(self, func: Callable) -> Callable:
        def timed(*args, **kwargs):
            if self._depth:
                return func(*args, **kwargs)
            self._depth += 1
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
                self._depth -= 1
            self.calls += 1
            if self.on_result is not None:
                self.on_result(result)
            return result

        timed.__wrapped__ = func
        return timed


class LayerProbes:
    """Timers on cut enumeration, NPN, resynthesis and commit replay."""

    def __init__(self) -> None:
        self.cuts = 0
        self.cut_nodes = 0
        self.replay_accepted = 0
        self.enum = Probe(self._count_cuts)
        self.reconv = Probe()
        self.npn = Probe()
        self.resyn = Probe()
        self.replay = Probe(self._count_replay)
        self._targets = [
            ("repro.aig.cuts", "enumerate_cuts", self.enum),
            ("repro.aig.cuts", "enumerate_cuts_with_tables", self.enum),
            ("repro.aig.cuts", "reconv_cut", self.reconv),
            ("repro.logic.npn", "npn_canon", self.npn),
            ("repro.logic.resyn", "plan_resynthesis", self.resyn),
            ("repro.commit.replay", "apply_replacement", self.replay),
        ]
        self._undo: list[tuple[object, str, object]] = []
        self._npn_canon = None

    def _count_cuts(self, result) -> None:
        cuts = result[0] if isinstance(result, tuple) else result
        self.cut_nodes += len(cuts)
        self.cuts += sum(len(node_cuts) for node_cuts in cuts.values())

    def _count_replay(self, result) -> None:
        if result[0] is not None:
            self.replay_accepted += 1

    def install(self) -> None:
        """Rebind every ``repro`` module reference to a wrapped target."""
        for module_name, name, probe in self._targets:
            original = getattr(importlib.import_module(module_name), name)
            if name == "npn_canon":
                self._npn_canon = original
            wrapped = probe.wrap(original)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def npn_hit_rate(self) -> float:
        info = self._npn_canon.cache_info()
        lookups = info.hits + info.misses
        return info.hits / lookups if lookups else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _span_times(tracer) -> dict[str, tuple[float, float]]:
    """Inclusive and self wall seconds per span name, summed."""
    out: dict[str, tuple[float, float]] = {}
    for span in tracer.spans():
        covered = sum(child.wall_time for child in span.children)
        incl, self_s = out.get(span.name, (0.0, 0.0))
        out[span.name] = (
            incl + span.wall_time,
            self_s + span.wall_time - covered,
        )
    return out


def layer_metrics(probes: LayerProbes, tracer, registry, results) -> dict:
    """Flat per-layer metrics of one traced iteration (no I/O numbers)."""
    counters = registry.counters
    spans = _span_times(tracer)
    m: dict[str, float] = {
        "aig.cuts.enum_s": probes.enum.seconds,
        "aig.cuts.enum_calls": probes.enum.calls,
        "aig.cuts.cuts_per_node": _ratio(probes.cuts, probes.cut_nodes),
        "aig.cuts.reconv_s": probes.reconv.seconds,
        "aig.cuts.reconv_calls": probes.reconv.calls,
        "logic.npn.s": probes.npn.seconds,
        "logic.npn.calls": probes.npn.calls,
        "logic.npn.cache_hit_rate": probes.npn_hit_rate(),
        "logic.resyn.s": probes.resyn.seconds,
        "logic.resyn.calls": probes.resyn.calls,
        "commit.replay_s": probes.replay.seconds,
        "commit.replay_accept_rate": _ratio(
            probes.replay_accepted, probes.replay.calls
        ),
    }
    for stage in STAGES:
        incl, self_s = spans.get(stage, (0.0, 0.0))
        m[f"algorithms.{stage}_s"] = incl
        m[f"algorithms.{stage}_self_s"] = self_s
    incl, self_s = spans.get("dedup", (0.0, 0.0))
    m["algorithms.dedup.s"] = incl
    m["algorithms.dedup.self_s"] = self_s
    c = counters.get
    m["algorithms.rw.hit_rate"] = _ratio(
        c("rw.replaced", 0), c("rw.candidates", 0)
    )
    m["algorithms.rf.hit_rate"] = _ratio(
        c("rf.cones_replaced", 0), c("rf.cones_collapsed", 0)
    )
    m["algorithms.rfc.hit_rate"] = _ratio(
        c("rfc.wave_commits", 0) + c("rfc.serial_commits", 0),
        c("rfc.cones_admitted", 0),
    )
    m["algorithms.kernels.rw_waves"] = c("kernels.rw_waves", 0)
    for name in ("plans", "conflicts", "bulk_nodes", "serial_replays"):
        m[f"commit.{name}"] = c(f"commit.{name}", 0)
    lookups = c("engine.cache_hits", 0) + c("engine.cache_misses", 0)
    m["engine.cache_hit_rate"] = _ratio(c("engine.cache_hits", 0), lookups)
    m["parallel.machine.launches"] = c("machine.launches", 0)
    m["parallel.machine.kernel_work"] = c("machine.kernel_work", 0)
    m["parallel.machine.host_work"] = c("machine.host_work", 0)
    m["parallel.hashtable.probes"] = c("hashtable.probes", 0)

    for command in COMMANDS:
        m[f"engine.cmd.{command}.wall_s"] = 0.0
        m[f"engine.cmd.{command}.ands_removed"] = 0
        m[f"engine.cmd.{command}.uncovered_s"] = 0.0

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0) + value

    for result in results:
        for command, wall in result.walls:
            add(f"engine.cmd.{command}.wall_s", wall)
        for command, step in result.steps:
            removed = step.nodes_before - step.nodes_after
            add(f"engine.cmd.{command}.ands_removed", removed)
    for span in tracer.passes():
        stages = sum(
            child.wall_time for child in span.children if child.kind == "stage"
        )
        add(f"engine.cmd.{span.name}.uncovered_s", span.wall_time - stages)
    return m
