"""Per-gap reference implementations of the greedy SINO construction.

:mod:`repro.sino.greedy` screens every candidate shield gap with one closed
form and orders segments over the evaluator's sensitivity matrix.  These are
the straightforward versions it replaced — one full excess evaluation per
candidate gap, one ``aggressors_of`` query per remaining segment — kept as
test oracles: the fast paths must choose exactly what these choose.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sino.greedy import _candidate_gaps, insert_capacitive_shields
from repro.sino.panel import SHIELD, SinoProblem, SinoSolution


def reference_greedy_order(problem: SinoProblem) -> List[int]:
    """Most constrained first, then the most constrained segment that is not
    sensitive to the one just placed (any segment when none qualifies)."""
    remaining = sorted(
        problem.segments,
        key=lambda segment: (-problem.sensitivity_degree(segment), segment),
    )
    if not remaining:
        return []
    order: List[int] = [remaining.pop(0)]
    while remaining:
        last = order[-1]
        compatible = [
            segment for segment in remaining
            if segment not in problem.aggressors_of(last)
        ]
        pool = compatible if compatible else remaining
        chosen = max(pool, key=lambda segment: (problem.sensitivity_degree(segment), -segment))
        remaining.remove(chosen)
        order.append(chosen)
    return order


def reference_best_shield_gap(solution: SinoSolution) -> Optional[int]:
    """Insert a shield at every candidate gap in turn and keep the first that
    beats the best so far by more than 1e-12 (``None`` when none beats the
    layout itself)."""
    evaluator = solution.problem.evaluator()
    baseline = evaluator.total_excess(solution.layout)
    if baseline <= 0.0:
        return None
    violating = evaluator.violating_segments(solution.layout)
    best_gap: Optional[int] = None
    best_excess = baseline
    for gap in _candidate_gaps(solution.layout, violating):
        candidate_layout = list(solution.layout)
        candidate_layout.insert(gap, SHIELD)
        excess = evaluator.total_excess(candidate_layout)
        if excess < best_excess - 1e-12:
            best_excess = excess
            best_gap = gap
    return best_gap


def reference_greedy_sino(problem: SinoProblem) -> SinoSolution:
    """The whole greedy construction over the reference order and gap loop."""
    layout = insert_capacitive_shields(problem, reference_greedy_order(problem))
    current = SinoSolution(problem=problem, layout=layout)
    evaluator = problem.evaluator()
    for _ in range(2 * current.num_segments + 2):
        if evaluator.total_excess(current.layout) <= 0.0:
            break
        gap = reference_best_shield_gap(current)
        if gap is None:
            break
        current.layout.insert(gap, SHIELD)
    return current.compact()
