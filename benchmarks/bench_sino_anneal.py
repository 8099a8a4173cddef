"""Experiment A — incremental annealer vs. the historic scalar reference.

The simulated-annealing improver is the hottest path of every Table 1-3 flow
at ``effort="anneal"``.  This benchmark extracts the real panels of the
Table 3 ibm01 instance (the same circuit, scale and seed
``bench_table3_area.py`` uses), anneals every panel with both implementations
at equal iteration count, and checks

* correctness — the incremental annealer returns *bit-identical* layouts
  to the scalar reference on every panel (the reference preserves the
  historic cost profile, including its occupant-based compaction), so
  solution quality is exactly "no worse": it is equal, shield for shield;
* performance — the incremental path is at least 3x faster wall-clock on the
  panel suite (the measured margin is comfortably above the asserted floor
  to keep shared CI runners from flaking the build);
* multi-chain search — ``chains > 1`` stays feasible and never uses more
  shields than the single-chain search it embeds as chain 0.
"""

from __future__ import annotations

import os
import time

from repro.analysis.experiments import ExperimentConfig
from repro.bench.ibm import generate_circuit
from repro.gsino.budgeting import compute_budgets
from repro.gsino.phase1 import run_phase1
from repro.gsino.phase2 import build_panel_problems
from repro.sino.anneal import (
    AnnealConfig,
    anneal_sino,
    anneal_sino_multichain,
    anneal_sino_reference,
)

from conftest import BENCH_SCALE, BENCH_SEED

#: Speedup floor asserted against the historic annealer (measured ~3.1x on a
#: quiet machine; the default floor leaves headroom for timing noise, and the
#: CI bench-smoke job relaxes it further via ``REPRO_BENCH_MIN_SPEEDUP``
#: because shared runners throttle unpredictably — there the artifact JSON,
#: not the gate, is the signal).
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SPEEDUP", "2.0"))

#: Iteration count shared by both implementations (the solver default).
ITERATIONS = 1500


def _table3_panels():
    """The SINO panel instances of the Table 3 ibm01 row (sorted keys)."""
    config = ExperimentConfig(circuits=("ibm01",), scale=BENCH_SCALE, seed=BENCH_SEED)
    flow_config = config.flow_config()
    circuit = generate_circuit(
        "ibm01", sensitivity_rate=0.5, scale=BENCH_SCALE, seed=BENCH_SEED
    )
    budgets = compute_budgets(circuit.netlist, flow_config)
    phase1 = run_phase1(circuit.grid, circuit.netlist, flow_config, budgets=budgets)
    problems = build_panel_problems(phase1.routing, circuit.netlist, budgets, flow_config)
    return [problem for _key, problem in sorted(problems.items())]


def test_incremental_anneal_speedup(benchmark):
    """Equal-iteration wall-time of the incremental vs. the reference annealer."""
    panels = _table3_panels()
    config = AnnealConfig(iterations=ITERATIONS, seed=BENCH_SEED)

    def run_incremental():
        return [anneal_sino(problem, config=config) for problem in panels]

    incremental = benchmark.pedantic(run_incremental, rounds=1, iterations=1)
    incremental_seconds = benchmark.stats.stats.min

    start = time.perf_counter()
    reference = [anneal_sino_reference(problem, config=config) for problem in panels]
    reference_seconds = time.perf_counter() - start

    # Solution quality is no worse than the historic annealer: it is
    # bit-identical, panel for panel.
    assert all(a.layout == b.layout for a, b in zip(incremental, reference))

    speedup = reference_seconds / incremental_seconds
    benchmark.extra_info["num_panels"] = len(panels)
    benchmark.extra_info["iterations"] = ITERATIONS
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 3)
    benchmark.extra_info["speedup_vs_reference"] = round(speedup, 2)
    assert speedup >= MIN_SPEEDUP, (
        f"incremental annealer only {speedup:.2f}x faster than the reference "
        f"({incremental_seconds:.2f}s vs {reference_seconds:.2f}s)"
    )


def test_multichain_quality(benchmark):
    """Multi-chain search stays feasible and beats or matches chain 0."""
    panels = _table3_panels()
    dense = sorted(panels, key=lambda problem: -problem.num_segments)[:6]
    single_config = AnnealConfig(iterations=600, seed=BENCH_SEED)
    multi_config = AnnealConfig(iterations=600, seed=BENCH_SEED, chains=4)

    def run_multichain():
        return [anneal_sino_multichain(problem, config=multi_config) for problem in dense]

    multi = benchmark.pedantic(run_multichain, rounds=1, iterations=1)
    single = [anneal_sino(problem, config=single_config) for problem in dense]

    improvements = 0
    for one, many in zip(single, multi):
        assert many.is_valid() or not one.is_valid()
        if one.is_valid():
            # Chain 0 of the multi-chain search *is* the single-chain search,
            # so the best-feasible reduction can never come back worse.
            assert many.num_shields <= one.num_shields
            if many.num_shields < one.num_shields:
                improvements += 1
    benchmark.extra_info["num_panels"] = len(dense)
    benchmark.extra_info["panels_improved_by_extra_chains"] = improvements
