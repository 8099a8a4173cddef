"""Fast repeated evaluation of SINO layouts for one problem instance.

The SINO solvers evaluate thousands of candidate layouts of the *same*
problem (same segments, same sensitivity relation, same bounds) while they
search.  The sensitivity structure never changes between those evaluations,
so this evaluator precomputes it once as a dense numpy matrix and evaluates a
layout's couplings with pure array arithmetic.

The values are identical to :func:`repro.noise.keff.panel_couplings`, the
scalar reference; the test suite cross-checks the two.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.noise.keff import KeffModel


class PanelEvaluator:
    """Precomputed sensitivity structure of one :class:`SinoProblem`.

    Parameters
    ----------
    segments:
        Segment ids in a fixed order; all layouts evaluated through this
        object must contain exactly these segments.
    sensitivity_pairs:
        Symmetric sensitivity as an iterable of (segment, segment) pairs.
    keff_model:
        Keff model parameters.
    bounds:
        Optional per-segment Kth bounds (needed by the excess helpers).
    """

    def __init__(
        self,
        segments: Sequence[int],
        sensitivity_pairs: Sequence[Tuple[int, int]],
        keff_model: KeffModel,
        bounds: Optional[Dict[int, float]] = None,
    ) -> None:
        self.segments: Tuple[int, ...] = tuple(segments)
        self.keff_model = keff_model
        self._index: Dict[int, int] = {segment: i for i, segment in enumerate(self.segments)}
        n = len(self.segments)
        self._sensitive = np.zeros((n, n), dtype=bool)
        for seg_a, seg_b in sensitivity_pairs:
            if seg_a in self._index and seg_b in self._index and seg_a != seg_b:
                ia, ib = self._index[seg_a], self._index[seg_b]
                self._sensitive[ia, ib] = True
                self._sensitive[ib, ia] = True
        if bounds is None:
            self._bounds = np.full(n, np.inf)
        else:
            self._bounds = np.array([bounds.get(segment, np.inf) for segment in self.segments])

    @property
    def num_segments(self) -> int:
        """Number of segments the evaluator was built for."""
        return len(self.segments)

    @property
    def sensitive_matrix(self) -> np.ndarray:
        """The symmetric boolean sensitivity matrix (segment order; read-only)."""
        return self._sensitive

    @property
    def bounds_vector(self) -> np.ndarray:
        """Per-segment Kth bounds in segment order (read-only)."""
        return self._bounds

    def layout_arrays(self, layout: Sequence[Optional[int]]) -> Tuple[np.ndarray, np.ndarray]:
        """Track positions of each segment (in segment order) and of the shields."""
        positions = np.empty(len(self.segments))
        positions.fill(np.nan)
        shield_tracks: List[float] = []
        for track, entry in enumerate(layout):
            if entry is None:
                shield_tracks.append(float(track))
            else:
                index = self._index.get(entry)
                if index is None:
                    raise ValueError(f"layout contains unknown segment {entry}")
                positions[index] = float(track)
        if np.any(np.isnan(positions)):
            missing = [self.segments[i] for i in np.nonzero(np.isnan(positions))[0]]
            raise ValueError(f"layout is missing segments {missing}")
        return positions, np.array(sorted(shield_tracks))

    def pair_terms(
        self, positions: np.ndarray, shield_tracks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairwise track distance, shields strictly between each pair, and
        whether each segment has a shield on a neighbouring track."""
        n = positions.size
        distance = np.abs(positions[:, None] - positions[None, :])
        if shield_tracks.size:
            high = np.maximum(positions[:, None], positions[None, :])
            low = np.minimum(positions[:, None], positions[None, :])
            shields_between = (
                np.searchsorted(shield_tracks, high.ravel(), side="left").reshape(n, n)
                - np.searchsorted(shield_tracks, low.ravel(), side="right").reshape(n, n)
            )
            shields_between = np.maximum(shields_between, 0)
            adjacent_shield = np.isin(positions - 1, shield_tracks) | np.isin(positions + 1, shield_tracks)
        else:
            shields_between = np.zeros((n, n), dtype=int)
            adjacent_shield = np.zeros(n, dtype=bool)
        return distance, shields_between, adjacent_shield

    def pair_coupling(self, distance: np.ndarray, shields_between: np.ndarray) -> np.ndarray:
        """``K_ij`` of every sensitive pair before the adjacent-shield bonus
        (0 for insensitive pairs and on the diagonal)."""
        model = self.keff_model
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(
                self._sensitive & (distance > 0),
                1.0
                / np.power(np.maximum(distance, 1.0), model.distance_exponent)
                / np.power(model.shield_attenuation, shields_between),
                0.0,
            )

    def coupling_vector(self, layout: Sequence[Optional[int]]) -> np.ndarray:
        """``K_i`` for every segment, in the evaluator's segment order."""
        positions, shield_tracks = self.layout_arrays(layout)
        if positions.size == 0:
            return np.zeros(0)
        distance, shields_between, adjacent_shield = self.pair_terms(positions, shield_tracks)
        totals = self.pair_coupling(distance, shields_between).sum(axis=1)
        totals[adjacent_shield] /= self.keff_model.adjacent_shield_bonus
        return totals

    def couplings(self, layout: Sequence[Optional[int]]) -> Dict[int, float]:
        """``{segment: K_i}`` for a layout."""
        vector = self.coupling_vector(layout)
        return {segment: float(vector[i]) for i, segment in enumerate(self.segments)}

    def excess_vector(self, layout: Sequence[Optional[int]]) -> np.ndarray:
        """Per-segment ``max(0, K_i - Kth_i)``."""
        return np.maximum(self.coupling_vector(layout) - self._bounds, 0.0)

    def total_excess(self, layout: Sequence[Optional[int]]) -> float:
        """Sum of all Kth excesses (0 when every inductive bound holds)."""
        return float(self.excess_vector(layout).sum())

    def violating_segments(self, layout: Sequence[Optional[int]]) -> List[int]:
        """Segments whose coupling exceeds their bound."""
        excess = self.excess_vector(layout)
        return [self.segments[i] for i in np.nonzero(excess > 1e-12)[0]]

    def capacitive_count(self, layout: Sequence[Optional[int]]) -> int:
        """Number of adjacent sensitive segment pairs in a layout.

        Equals ``len(SinoSolution(...).capacitive_violation_pairs())`` — two
        segments are adjacent exactly when their track distance is 1 — but
        runs on the precomputed sensitivity matrix instead of building
        occupant records, which matters in the solvers' compaction loops.
        """
        positions, _ = self.layout_arrays(layout)
        if positions.size < 2:
            return 0
        distance = np.abs(positions[:, None] - positions[None, :])
        return int(np.count_nonzero(self._sensitive & (distance == 1.0))) // 2
