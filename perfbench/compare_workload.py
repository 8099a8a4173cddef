"""The compare workloads: cold three-flow comparisons on generated ibm01 instances.

One operation is one cold ``run_compare(build_context(...))`` — a fresh
engine with an empty solution cache and no store, exactly what ``repro
compare`` does after its set-up — on one generated instance.  A run
measures a fixed set of instances derived from ``--seed`` (the first one
*is* ``--seed``, so ``--seed 7`` contains the instance ``repro compare
--seed 7`` routes), repeated in whole passes while the run's time lasts.
Instance-to-instance cost differs by tens of percent, so averaging over
several instances per run is what keeps a run's median steady from seed
to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench import ibm
from repro.engine.cache import SolutionCache
from repro.engine.panels import Engine
from repro.flow.flows import CompareOutcome, build_context, run_compare
from repro.flow.graph import FlowContext
from repro.gsino.config import GsinoConfig
from repro.gsino.metrics import compute_flow_metrics
from repro.sino.estimate import default_shield_estimator
from repro.sino.panel import SHIELD

from hostspeed import kernel_seconds, speed_factor
from spans import ROOT, SpanRecorder, install, layer_totals

#: Stage counts of one cold compare: ten stages run, three are shared.
EXPECTED_STAGES = {"executed": 10, "shared": 3}

#: The generated circuit every compare routes.
CIRCUIT = "ibm01"


@dataclass(frozen=True)
class CompareWorkload:
    """One compare workload: the generated instance family and its size."""

    name: str
    sensitivity_rate: float
    instances: int
    scale: float = 0.04


@dataclass
class Op:
    """One measured compare: its set-up, its wall time and what it produced."""

    seed: int
    setup_s: float
    compare_s: float = 0.0
    #: Raw seconds to reference seconds (see :mod:`hostspeed`).
    speed_factor: float = 1.0
    problems: List[str] = field(default_factory=list)
    digest: str = ""
    quality: Dict[str, float] = field(default_factory=dict)


def instance_seeds(seed: int, count: int) -> List[int]:
    """``seed`` itself, then ``count - 1`` seeds hashed from it (no overlap
    between the instance sets of two different run seeds)."""
    derived = [
        int(hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=4).hexdigest(), 16)
        for index in range(1, count)
    ]
    return [seed, *derived]


def set_up(workload: CompareWorkload, seed: int) -> Tuple[FlowContext, float]:
    """Everything ``repro compare`` does before ``run_compare``, timed.

    The process-wide shield-estimator fit is cleared first, so every
    set-up pays it the way a fresh ``repro compare`` process does.
    """
    start = time.perf_counter()
    default_shield_estimator.cache_clear()
    circuit = ibm.generate_circuit(
        CIRCUIT,
        sensitivity_rate=workload.sensitivity_rate,
        scale=workload.scale,
        seed=seed,
    )
    config = GsinoConfig(length_scale=1.0 / math.sqrt(workload.scale))
    config.resolved_estimator()
    context = build_context(circuit.grid, circuit.netlist, config, Engine(cache=SolutionCache()))
    return context, time.perf_counter() - start


def check_outcome(outcome: CompareOutcome, context: FlowContext) -> List[str]:
    """Every way a finished comparison can be wrong; empty when it is right."""
    problems: List[str] = []
    counts = outcome.runner.outcome_counts()
    for outcome_name, expected in EXPECTED_STAGES.items():
        if counts[outcome_name] != expected:
            problems.append(f"{counts[outcome_name]} stages {outcome_name}, expected {expected}")
    for flow, result in outcome.results.items():
        for key, solution in result.panels.items():
            placed = sorted(entry for entry in solution.layout if entry is not SHIELD)
            if placed != sorted(solution.problem.segments):
                problems.append(f"{flow} panel {key}: layout does not hold each net once")
        try:
            metrics, _congestion = compute_flow_metrics(
                result.routing, result.panels, context.config
            )
        except Exception as error:  # noqa: BLE001 - a broken output is a failed check
            problems.append(f"{flow}: metrics cannot be recomputed: {error}")
            continue
        if metrics.summary() != result.metrics.summary():
            problems.append(f"{flow}: recomputed metrics differ from the reported ones")
    return problems


def outcome_digest(outcome: CompareOutcome) -> str:
    """Hash of every panel layout and metric summary of a comparison."""
    digest = hashlib.sha256()
    for flow in sorted(outcome.results):
        result = outcome.results[flow]
        digest.update(flow.encode())
        digest.update(json.dumps(result.metrics.summary(), sort_keys=True).encode())
        for key in sorted(result.panels):
            digest.update(repr((key, tuple(result.panels[key].layout))).encode())
    return digest.hexdigest()


def quality_of(outcome: CompareOutcome) -> Dict[str, float]:
    """The Table 1-3 numbers of the three flows."""
    quality: Dict[str, float] = {}
    for flow, result in outcome.results.items():
        metrics = result.metrics
        quality[f"{flow}_violations"] = metrics.crosstalk.num_violations
        quality[f"{flow}_area_um2"] = metrics.area.area
        quality[f"{flow}_shields"] = metrics.total_shields
        quality[f"{flow}_wirelength_um"] = metrics.average_wirelength_um
    return quality


def measure(
    workload: CompareWorkload, seed: int, recorder: Optional[SpanRecorder] = None, index: int = 0
) -> Tuple[Op, Optional[CompareOutcome], Optional[FlowContext]]:
    """Set up and run one compare.

    With a ``recorder`` the set-up's spans belong to run ``setup-<index>``
    and the compare's to run ``op-<index>``, inside the root span.
    """
    if recorder is not None:
        recorder.run = f"setup-{index}"
    context, setup_s = set_up(workload, seed)
    op = Op(seed=seed, setup_s=setup_s)
    try:
        start = time.perf_counter()
        if recorder is None:
            outcome = run_compare(context)
        else:
            recorder.run = f"op-{index}"
            with recorder.span(ROOT):
                outcome = run_compare(context)
        op.compare_s = time.perf_counter() - start
    except Exception as error:  # noqa: BLE001 - a raising compare is one failed operation
        op.problems.append(f"run_compare raised {type(error).__name__}: {error}")
        return op, None, None
    if recorder is not None:
        recorder.run = "check"
    op.problems.extend(check_outcome(outcome, context))
    op.digest = outcome_digest(outcome)
    op.quality = quality_of(outcome)
    return op, outcome, context


def count_failed(ops: List[Op]) -> int:
    """Operations with at least one problem (each counts once)."""
    return sum(1 for op in ops if op.problems)


def _check_digests(ops: List[Op]) -> None:
    """A repeated instance must reproduce its first digest exactly."""
    first: Dict[int, str] = {}
    for op in ops:
        if not op.digest:
            continue
        expected = first.setdefault(op.seed, op.digest)
        if op.digest != expected:
            op.problems.append(f"instance {op.seed}: digest differs from its first run")


def _quality_means(ops: List[Op]) -> Dict[str, float]:
    """Mean of each quality number over the run's distinct instances."""
    by_seed: Dict[int, Dict[str, float]] = {}
    for op in ops:
        if op.quality:
            by_seed.setdefault(op.seed, op.quality)
    keys = sorted({key for quality in by_seed.values() for key in quality})
    return {key: statistics.fmean(quality[key] for quality in by_seed.values()) for key in keys}


def _report_ops(workload: CompareWorkload, ops: List[Op]) -> None:
    instances = len({op.seed for op in ops})
    print(f"{workload.name}: {len(ops)} compare(s) over {instances} instance(s)")
    for op in ops:
        quality = op.quality
        line = (
            f"  seed {op.seed:>10d} setup {op.setup_s:6.3f}s compare {op.compare_s:7.3f}s "
            f"(host speed factor {op.speed_factor:.3f})"
        )
        if quality:
            line += (
                f"  violations id_no/isino/gsino "
                f"{quality['id_no_violations']:.0f}/{quality['isino_violations']:.0f}/"
                f"{quality['gsino_violations']:.0f}  gsino area {quality['gsino_area_um2']:.0f} "
                f"shields {quality['gsino_shields']:.0f}  digest {op.digest[:12]}"
            )
        for problem in op.problems:
            line += f"\n    FAILED: {problem}"
        print(line)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(workload: CompareWorkload, seed: int, seconds: float) -> Tuple[List[Op], Dict]:
    """Whole passes over the run's instances while time remains (at least one).

    The reference kernel runs between consecutive compares; each compare's
    times are scaled to the reference speed by the kernels on either side.
    After the last pass the ``--seed`` instance is compared once more,
    outside the timed medians, so every run checks that a repeated compare
    reproduces its digest.
    """
    seeds = instance_seeds(seed, workload.instances)
    ops: List[Op] = []
    start = time.perf_counter()
    kernel_seconds()  # warm-up: the first call pays one-time costs
    kernel = kernel_seconds()
    passes = 0
    while True:
        for instance in seeds:
            op = measure(workload, instance)[0]
            previous, kernel = kernel, kernel_seconds()
            op.speed_factor = speed_factor(previous, kernel)
            ops.append(op)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            break
    timed = list(ops)
    ops.append(measure(workload, seed)[0])
    _check_digests(ops)
    _report_ops(workload, ops)
    print("  (the last compare repeats the first instance to check its digest; it is not timed)")
    good = [op for op in timed if not op.problems]
    compare_times = [op.compare_s * op.speed_factor for op in good] or [0.0]
    quality = _quality_means(good)
    metrics = {
        "setup_s": statistics.median(op.setup_s * op.speed_factor for op in timed),
        "op_s": statistics.median(compare_times),
        "peak_rss_mb": _peak_rss_mb(),
        "gsino_area_um2": quality.get("gsino_area_um2", 0.0),
        "isino_area_um2": quality.get("isino_area_um2", 0.0),
        "gsino_wirelength_um": quality.get("gsino_wirelength_um", 0.0),
    }
    return ops, metrics


def run_traced(workload: CompareWorkload, seed: int, seconds: float) -> Tuple[List[Op], Dict]:
    """Alternate untraced and traced compares of the ``--seed`` instance.

    The untraced half runs with no shim installed; the traced half wraps
    every entry point for the duration of its set-up and compare only.
    Per-layer values are means per traced compare.
    """
    recorder = SpanRecorder()
    ops: List[Op] = []
    untraced: List[float] = []
    traced: List[float] = []
    setup_runs: List[str] = []
    op_runs: List[str] = []
    counters: Dict[str, float] = {}
    missing: List[str] = []
    kernels: List[float] = []
    start = time.perf_counter()
    kernel_seconds()  # warm-up: the first call pays one-time costs
    while True:
        kernels.append(kernel_seconds())
        op = measure(workload, seed)[0]
        ops.append(op)
        if not op.problems:
            untraced.append(op.compare_s)
        index = len(ops)
        installed = install(recorder)
        try:
            op, outcome, context = measure(workload, seed, recorder, index)
        finally:
            installed.remove()
        missing = installed.missing_metrics()
        ops.append(op)
        if outcome is not None and context is not None and not op.problems:
            traced.append(op.compare_s)
            setup_runs.append(f"setup-{index}")
            op_runs.append(f"op-{index}")
            _add(counters, _outcome_counters(outcome, context))
        elapsed = time.perf_counter() - start
        if not traced or elapsed + elapsed / len(traced) > seconds:
            break
    _check_digests(ops)
    _report_ops(workload, ops)
    count = max(len(traced), 1)
    totals = layer_totals(recorder.spans, op_runs)
    setup_totals = layer_totals(recorder.spans, setup_runs)
    layers = {key: value / count for key, value in totals.items()}
    layers["bench.generate_s"] = setup_totals.get("bench.generate_s", 0.0) / count
    layers.update({key: value / count for key, value in counters.items()})
    layers["sino.mean_segments"] = totals.get("sino.segments", 0.0) / max(
        totals.get("sino.panels", 0.0), 1.0
    )
    layers.pop("sino.segments", None)
    layers["trace.op_s"] = statistics.fmean(traced) if traced else 0.0
    layers["host.kernel_s"] = statistics.median(kernels)
    layers["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced) if traced and untraced else 0.0
    )
    _print_accounting(layers, sum(v for k, v in totals.items() if k.endswith("_s")) / count)
    return ops, {"layers": layers, "missing": missing}


def _outcome_counters(outcome: CompareOutcome, context: FlowContext) -> Dict[str, float]:
    counts = outcome.runner.outcome_counts()
    stats = context.engine.cache_stats()
    quality = quality_of(outcome)
    return {
        "flow.stages_executed": counts["executed"],
        "flow.stages_shared": counts["shared"],
        "engine.cache_lookups": stats.lookups,
        "engine.cache_hit_ratio": stats.hit_rate,
        "quality.gsino_shields": quality["gsino_shields"],
        "quality.isino_shields": quality["isino_shields"],
        "quality.id_no_violations": quality["id_no_violations"],
        "quality.isino_violations": quality["isino_violations"],
        "quality.gsino_violations": quality["gsino_violations"],
    }


def _add(into: Dict[str, float], values: Dict[str, float]) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0.0) + value


def _print_accounting(layers: Dict[str, float], self_total: float) -> None:
    """Show that the self times plus the unaccounted rest make the traced op."""
    print(
        f"traced op {layers['trace.op_s']:.4f}s = self times + unaccounted {self_total:.4f}s "
        f"(unaccounted {layers.get('flow.unaccounted_s', 0.0):.4f}s); "
        f"tracing overhead {layers['trace.overhead_s']:+.4f}s"
    )
