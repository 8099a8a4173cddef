"""Experiment S1 — screened greedy SINO vs. the per-gap reference loop.

Greedy SINO is the default per-region solver, so it runs on every panel of
every flow.  This benchmark extracts the real panels of the Table 3 ibm01
instance at sensitivity rate 0.5 (``bench_sino_anneal._table3_panels``),
solves every panel with ``greedy_sino`` and with the reference construction
kept in ``tests/greedy_oracle.py`` (one full excess evaluation per candidate
gap, list-based ordering), and checks

* correctness — every layout equals the reference layout, panel for panel;
* performance — the screened solver is at least ``MIN_SPEEDUP`` times
  faster than the reference on the same panels in the same run, so host
  speed cancels out of the ratio.
"""

from __future__ import annotations

import time

from repro.sino.greedy import greedy_sino

from bench_sino_anneal import _table3_panels
from tests.greedy_oracle import reference_greedy_sino

#: Floor on reference seconds / screened seconds (measured 1.55-2.2x at
#: REPRO_BENCH_SCALE=0.02 and 2.05-2.45x at the default 0.025 on a 2-core x86
#: host; the shield compaction both solvers share bounds the ratio on the
#: small panels of small scales).
MIN_SPEEDUP = 1.3

#: Timed rounds of each solver; the fastest of each is compared.
ROUNDS = 7


def test_greedy_sino_screen_speedup(benchmark):
    """Wall time of the screened greedy solver vs. the per-gap reference."""
    panels = _table3_panels()
    for problem in panels:
        problem.evaluator()  # both solvers share the cached evaluator

    reference = []
    reference_seconds = []

    def run_reference():
        # The untimed set-up of each screened round: the two solvers'
        # rounds interleave, so a drift in host speed hits both.
        start = time.perf_counter()
        reference[:] = [reference_greedy_sino(problem) for problem in panels]
        reference_seconds.append(time.perf_counter() - start)

    def run_screened():
        return [greedy_sino(problem) for problem in panels]

    screened = benchmark.pedantic(run_screened, setup=run_reference, rounds=ROUNDS)
    screened_seconds = benchmark.stats.stats.min

    assert [solution.layout for solution in screened] == [
        solution.layout for solution in reference
    ]

    speedup = min(reference_seconds) / screened_seconds
    benchmark.extra_info["num_panels"] = len(panels)
    benchmark.extra_info["reference_seconds"] = round(min(reference_seconds), 3)
    benchmark.extra_info["speedup_vs_reference"] = round(speedup, 2)
    assert speedup >= MIN_SPEEDUP, (
        f"screened greedy SINO only {speedup:.2f}x faster than the per-gap reference "
        f"({screened_seconds:.2f}s vs {min(reference_seconds):.2f}s)"
    )
