"""In-memory span recording around the program's public entry points.

The traced run wraps each layer's entry point *in the namespace where the
program looks it up* (``repro.flow.stages.run_phase2``, not
``repro.gsino.phase2.run_phase2``), so the program itself is unchanged and
the untraced runs execute no benchmark code inside it.  A span records its
name, start, end, parent and the id of the run it belongs to; spans stay in
memory until the benchmark writes them out at the end.

A layer's *self time* is its span's duration minus the time its direct
child spans cover.  Every call is single-threaded on the serial backend, so
children never overlap and the self times of a span tree add up exactly to
its root's duration.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

Counts = Dict[str, float]


@dataclass
class Span:
    """One timed call: name, perf-counter interval, parent index, run id."""

    name: str
    start: float
    end: float
    parent: int
    run: str
    counts: Counts = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """A stack of open spans plus the list of every span ever closed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run = "setup"
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        record = Span(name=name, start=time.perf_counter(), end=0.0, parent=parent, run=self.run)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def to_dicts(self) -> List[Dict[str, object]]:
        return [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "run": span.run,
                "counts": span.counts,
            }
            for span in self.spans
        ]

    @staticmethod
    def from_dicts(records: Sequence[Mapping[str, object]]) -> List[Span]:
        return [
            Span(
                name=str(record["name"]),
                start=float(record["start"]),
                end=float(record["end"]),
                parent=int(record["parent"]),
                run=str(record["run"]),
                counts=dict(record["counts"]),
            )
            for record in records
        ]


#: Name of the benchmark's own span around one operation.
ROOT = "op"


def self_times(spans: Sequence[Span]) -> List[float]:
    """Duration of each span minus the durations of its direct children."""
    result = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            result[span.parent] -= span.duration
    return result


# -- the entry points the traced run wraps ------------------------------------------


def _router_layer(args: Tuple[object, ...]) -> str:
    router = args[0]
    reserved = router.config.reserve_shields
    return "router.route_reserved" if reserved else "router.route_baseline"


def _router_counts(args: Tuple[object, ...], result: object) -> Counts:
    report = result[1]
    return {
        "router.deleted_edges": report.deleted_edges,
        "router.heap_repushes": report.heap_repushes,
    }


def _phase2_counts(args: Tuple[object, ...], result: object) -> Counts:
    problems = result.problems.values()
    return {
        "sino.panels": len(problems),
        "sino.segments": sum(len(problem.segments) for problem in problems),
        "sino.invalid_panels": result.num_invalid_panels(),
    }


def _phase3_counts(args: Tuple[object, ...], result: object) -> Counts:
    return {
        "gsino.phase3_sino_reruns": result.pass1_sino_reruns,
        "gsino.phase3_pass1_iterations": result.pass1_outer_iterations,
        "gsino.phase3_regions_relaxed": result.pass2_regions_relaxed,
        "gsino.phase3_unfixable_nets": len(result.unfixable_nets),
    }


def _sensitivity_counts(args: Tuple[object, ...], result: object) -> Counts:
    size = len(result)
    return {"grid.sensitivity_map_calls": 1, "grid.sensitivity_pairs": size * (size - 1) // 2}


def _solve_panels_counts(args: Tuple[object, ...], result: object) -> Counts:
    return {"engine.panel_tasks": len(result)}


def _solve_panel_counts(args: Tuple[object, ...], result: object) -> Counts:
    return {"engine.panel_tasks": 1}


@dataclass(frozen=True)
class Shim:
    """One wrapped entry point: ``module:attribute`` timed as span ``layer``.

    ``layer_of`` picks the span name from the call's arguments when one
    entry point serves two layers (the router's two weight sets);
    ``counts`` reads work counters off the call's arguments and result.
    ``metrics`` names every per-layer metric the shim feeds: a span's self
    time is reported as ``<span name>_s``.
    """

    module: str
    attribute: str
    layer: str
    metrics: Tuple[str, ...]
    counts: Optional[Callable[[Tuple[object, ...], object], Counts]] = None
    layer_of: Optional[Callable[[Tuple[object, ...]], str]] = None


SHIMS: Tuple[Shim, ...] = (
    Shim("repro.bench.ibm", "generate_circuit", "bench.generate", ("bench.generate_s",)),
    Shim(
        "repro.flow.graph",
        "FlowContext.instance_signature",
        "flow.instance_signature",
        ("flow.instance_signature_s",),
    ),
    Shim("repro.flow.stages", "compute_budgets", "gsino.budgeting", ("gsino.budgeting_s",)),
    Shim(
        "repro.flow.stages",
        "run_phase2",
        "gsino.phase2",
        ("gsino.phase2_s", "sino.panels", "sino.mean_segments", "sino.invalid_panels"),
        counts=_phase2_counts,
    ),
    Shim(
        "repro.gsino.phase2",
        "build_panel_problems",
        "gsino.phase2_build",
        ("gsino.phase2_build_s",),
    ),
    # The stage graph rebuilds panel problems itself when it restores the
    # solved panels from a store (the service's repeated flow jobs).
    Shim(
        "repro.flow.stages",
        "build_panel_problems",
        "gsino.phase2_build",
        ("gsino.phase2_build_s",),
    ),
    Shim(
        "repro.flow.stages",
        "run_phase3",
        "gsino.phase3",
        (
            "gsino.phase3_s",
            "gsino.phase3_sino_reruns",
            "gsino.phase3_pass1_iterations",
            "gsino.phase3_regions_relaxed",
            "gsino.phase3_unfixable_nets",
        ),
        counts=_phase3_counts,
    ),
    Shim("repro.flow.stages", "compute_flow_metrics", "gsino.metrics", ("gsino.metrics_s",)),
    Shim(
        "repro.router.iterative_deletion",
        "IterativeDeletionRouter.route",
        "router.route",
        (
            "router.route_baseline_s",
            "router.route_reserved_s",
            "router.deleted_edges",
            "router.heap_repushes",
        ),
        counts=_router_counts,
        layer_of=_router_layer,
    ),
    Shim(
        "repro.grid.nets",
        "Netlist.local_sensitivity_map",
        "grid.sensitivity_map",
        ("grid.sensitivity_map_s", "grid.sensitivity_map_calls", "grid.sensitivity_pairs"),
        counts=_sensitivity_counts,
    ),
    Shim(
        "repro.engine.panels",
        "Engine.solve_panels",
        "engine.solve_panels",
        ("engine.solve_panels_s", "engine.panel_tasks"),
        counts=_solve_panels_counts,
    ),
    Shim(
        "repro.engine.panels",
        "Engine.solve_panel",
        "engine.solve_panel",
        ("engine.solve_panel_s", "engine.panel_tasks"),
        counts=_solve_panel_counts,
    ),
)


def _wrap(
    original: Callable[..., object], shim: Shim, recorder: SpanRecorder
) -> Callable[..., object]:
    @functools.wraps(original)
    def traced(*args: object, **kwargs: object) -> object:
        layer = shim.layer_of(args) if shim.layer_of is not None else shim.layer
        with recorder.span(layer) as span:
            result = original(*args, **kwargs)
        if shim.counts is not None:
            span.counts.update(shim.counts(args, result))
        return result

    return traced


class Installed:
    """The shims one :func:`install` call put in place (undo with ``remove``).

    ``missing`` holds the shims whose entry point no longer exists: a
    renamed or moved entry point must not fail the run, so its layer's
    metrics are reported missing instead of measured.
    """

    def __init__(self) -> None:
        self.replaced: List[Tuple[object, str, object]] = []
        self.missing: List[Shim] = []

    def missing_metrics(self) -> List[str]:
        return sorted({metric for shim in self.missing for metric in shim.metrics})

    def remove(self) -> None:
        for owner, name, original in reversed(self.replaced):
            setattr(owner, name, original)
        self.replaced.clear()


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every entry point of :data:`SHIMS` so calls record spans into ``recorder``."""
    installed = Installed()
    for shim in SHIMS:
        *path, name = shim.attribute.split(".")
        try:
            owner: object = importlib.import_module(shim.module)
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            installed.missing.append(shim)
            continue
        installed.replaced.append((owner, name, original))
        setattr(owner, name, _wrap(original, shim, recorder))
    return installed


def layer_totals(spans: Sequence[Span], runs: Sequence[str]) -> Counts:
    """Summed self time per layer and summed counters over the spans of ``runs``.

    A span's self time is reported as ``<name>_s``.  The self time of the
    benchmark's own root span (named ``op``) is ``flow.unaccounted_s``:
    the part of the operation no wrapped entry point covers.
    """
    selected = set(runs)
    totals: Counts = {}
    for span, self_time in zip(spans, self_times(spans)):
        if span.run not in selected:
            continue
        metric = "flow.unaccounted_s" if span.name == ROOT else f"{span.name}_s"
        totals[metric] = totals.get(metric, 0.0) + self_time
        for key, value in span.counts.items():
            totals[key] = totals.get(key, 0.0) + value
    return totals
