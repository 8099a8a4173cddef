"""Greedy constructive SINO solver.

The construction follows the spirit of the original SINO heuristic (reference
[4] of the paper):

1. order the net segments so mutually sensitive segments are kept apart where
   possible (net ordering),
2. insert a shield between any remaining adjacent sensitive pair (capacitive
   constraint becomes satisfied by construction),
3. while some segment exceeds its inductive bound ``Kth``, insert one more
   shield at the gap that reduces the total excess the most.  Only the gaps
   next to a violating segment are candidates.  A shield at gap ``g`` changes
   two things: every pair straddling ``g`` gains one track of distance and
   one shield in between, and the two neighbours of ``g`` gain the
   adjacent-shield bonus.  With ``D = C - C'`` (each pair's coupling now
   minus after an insert) and ``S`` the candidates-by-segments mask "segment
   lies before gap ``g``", every segment's coupling drop at every candidate
   is ``where(S, rowsum(D) - S @ D, S @ D)``, and ``S @ D`` is a prefix sum
   of ``D``'s rows in track order — one array pass screens all gaps.
   The screen only shortlists: the gaps within ``SCREEN_TOLERANCE`` of its
   minimum are re-scored exactly, in candidate order, under the same
   strict-improvement rule a per-gap loop uses, so the chosen gap (and the
   layout) is exactly the per-gap loop's.

The result is feasible whenever a feasible solution exists within the shield
budget guard; it is not necessarily minimum-area, which is what the annealing
improver in :mod:`repro.sino.anneal` is for.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sino.evaluator import PanelEvaluator
from repro.sino.panel import SHIELD, SinoProblem, SinoSolution

#: Screened excesses this close to the screened minimum are re-scored exactly.
#: The screen's rounding error is many orders of magnitude below it, so every
#: gap the exact rule could choose is on the shortlist.
SCREEN_TOLERANCE = 1e-7


def greedy_order(problem: SinoProblem) -> List[int]:
    """Order the segments so sensitive pairs are separated where possible.

    Strategy: place the most-constrained (highest sensitivity degree) segment
    first, then repeatedly append a segment that is *not* sensitive to the one
    just placed, preferring the most constrained among the candidates so the
    easy segments remain available as separators.  When every remaining
    segment is sensitive to the last one, the most constrained is appended
    anyway (a shield will be inserted later).
    """
    evaluator = problem.evaluator()
    segments = evaluator.segments
    if not segments:
        return []
    sensitive = evaluator.sensitive_matrix
    degree = sensitive.sum(axis=1).tolist()
    # Segments in (-degree, id) order: the most constrained member of any
    # pool is then its first remaining entry.
    rank = sorted(range(len(segments)), key=lambda i: (-degree[i], segments[i]))
    ranked_sensitive = sensitive[np.ix_(rank, rank)]
    remaining = np.ones(len(rank), dtype=bool)
    remaining[0] = False
    picked = [0]
    for _ in range(len(rank) - 1):
        compatible = remaining & ~ranked_sensitive[picked[-1]]
        pick = int(compatible.argmax())
        if not compatible[pick]:
            pick = int(remaining.argmax())
        remaining[pick] = False
        picked.append(pick)
    return [segments[rank[pick]] for pick in picked]


def insert_capacitive_shields(problem: SinoProblem, order: Sequence[int]) -> List[Optional[int]]:
    """Insert a shield between every adjacent sensitive pair of an ordering."""
    layout: List[Optional[int]] = []
    for segment in order:
        if layout:
            last = layout[-1]
            if last is not SHIELD and segment in problem.aggressors_of(last):
                layout.append(SHIELD)
        layout.append(segment)
    return layout


def _candidate_gaps(layout: List[Optional[int]], violating: List[int]) -> List[int]:
    """Gap indices worth trying for the next shield.

    Only gaps directly adjacent to a violating segment can reduce that
    segment's coupling appreciably (the Keff model is dominated by the nearest
    aggressors), so the search is restricted to those gaps.  Gaps already
    flanked by shields on both sides are skipped.
    """
    violating_set = set(violating)
    gaps: List[int] = []
    seen = set()
    for position, entry in enumerate(layout):
        if entry is SHIELD or entry not in violating_set:
            continue
        for gap in (position, position + 1):
            if gap in seen:
                continue
            left = layout[gap - 1] if gap > 0 else SHIELD
            right = layout[gap] if gap < len(layout) else SHIELD
            if left is SHIELD and right is SHIELD:
                continue
            seen.add(gap)
            gaps.append(gap)
    return gaps


def _screen_gaps(
    evaluator: PanelEvaluator, layout: List[Optional[int]], gaps: List[int]
) -> np.ndarray:
    """Total excess after a shield at each gap, from the closed form above.

    Agrees with :meth:`PanelEvaluator.total_excess` of each candidate layout up
    to rounding; temporaries are at most candidates × segments or
    (segments + 1) × segments.
    """
    positions, shield_tracks = evaluator.layout_arrays(layout)
    distance, shields_between, adjacent = evaluator.pair_terms(positions, shield_tracks)
    coupling = evaluator.pair_coupling(distance, shields_between)
    drop = coupling - evaluator.pair_coupling(distance + 1.0, shields_between + 1)
    # ``S @ D`` as prefix sums: the segments before a gap are the k lowest
    # ones, so row k of the running sum of ``D``'s rows in track order is the
    # product's row for every gap with k segments before it.  Same values up
    # to rounding, O(n²) instead of O(G·n²), and no multithreaded BLAS call.
    by_track = np.argsort(positions)
    prefix = np.zeros((positions.size + 1, positions.size))
    np.cumsum(drop[by_track], axis=0, out=prefix[1:])
    gap_tracks = np.array(gaps, dtype=float)[:, None]
    straddling_drop = prefix[np.searchsorted(positions[by_track], gap_tracks[:, 0])]
    before = positions[None, :] < gap_tracks
    change = np.where(before, drop.sum(axis=1) - straddling_drop, straddling_drop)
    raw = coupling.sum(axis=1) - change
    bonus = adjacent | (positions == gap_tracks) | (positions + 1.0 == gap_tracks)
    couplings = np.where(bonus, raw / evaluator.keff_model.adjacent_shield_bonus, raw)
    return np.maximum(couplings - evaluator.bounds_vector, 0.0).sum(axis=1)


def _best_shield_gap(
    evaluator: PanelEvaluator, layout: List[Optional[int]], excess: np.ndarray
) -> Optional[Tuple[int, np.ndarray]]:
    """Gap whose shield insertion reduces the total inductive excess most.

    ``excess`` is the layout's :meth:`PanelEvaluator.excess_vector`.  Returns
    the gap with the excess vector of the layout after the insertion, or
    ``None`` when no insertion reduces the excess (within tolerance).
    """
    best_excess = float(excess.sum())
    if best_excess <= 0.0:
        return None
    violating = [evaluator.segments[i] for i in np.nonzero(excess > 1e-12)[0]]
    gaps = _candidate_gaps(layout, violating)
    if not gaps:
        return None
    screened = _screen_gaps(evaluator, layout, gaps)
    shortlist = screened <= screened.min() + SCREEN_TOLERANCE
    best: Optional[Tuple[int, np.ndarray]] = None
    for gap, listed in zip(gaps, shortlist):
        if not listed:
            continue
        candidate_layout = list(layout)
        candidate_layout.insert(gap, SHIELD)
        candidate_excess = evaluator.excess_vector(candidate_layout)
        total = float(candidate_excess.sum())
        if total < best_excess - 1e-12:
            best_excess = total
            best = (gap, candidate_excess)
    return best


def fix_inductive_violations(solution: SinoSolution, max_extra_shields: Optional[int] = None) -> SinoSolution:
    """Add shields one at a time until every inductive bound holds.

    Parameters
    ----------
    solution:
        Starting layout (already capacitive-crosstalk free).
    max_extra_shields:
        Safety guard on how many shields may be added; defaults to twice the
        number of segments plus two, which is enough to fully isolate every
        segment.

    Returns
    -------
    SinoSolution
        A new solution.  If the guard is reached before feasibility, the best
        layout found is returned and the caller decides what to do with the
        residual violations (Phase III handles that case).
    """
    if max_extra_shields is None:
        max_extra_shields = 2 * solution.num_segments + 2
    current = solution.copy()
    evaluator = current.problem.evaluator()
    excess = evaluator.excess_vector(current.layout)
    for _ in range(max_extra_shields):
        choice = _best_shield_gap(evaluator, current.layout, excess)
        if choice is None:
            break
        gap, excess = choice
        current.layout.insert(gap, SHIELD)
    return current


def greedy_sino(problem: SinoProblem) -> SinoSolution:
    """Run the full greedy construction for one panel."""
    order = greedy_order(problem)
    layout = insert_capacitive_shields(problem, order)
    solution = SinoSolution(problem=problem, layout=layout)
    solution = fix_inductive_violations(solution)
    return solution.compact()
