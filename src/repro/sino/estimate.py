"""Closed-form shield-count estimation — Formula 3 of the paper.

Phase I of GSINO must know, while routing, how many shield tracks a region
will need once SINO runs there, so it can reserve (and minimise) that area.
Running SINO inside the router would be far too slow; instead the paper uses
the closed-form estimate

    Nss = a1 * sum(Si^2) + a2 * (1/Nns) * sum(Si^2)
        + a3 * sum(Si)   + a4 * (1/Nns) * sum(Si)
        + a5 * Nns       + a6                                (Formula 3)

where ``Nns`` is the number of net segments in the region and ``Si`` the
sensitivity rate of segment ``i``.  The coefficient values are published only
in the technical-report version, so this module reproduces the *procedure*
instead: it fits the six coefficients by least squares against min-area SINO
solutions sampled over a range of ``Nns`` and sensitivity rates, and verifies
the ±10 % accuracy claim (benchmark M2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.noise.keff import DEFAULT_KEFF_MODEL, KeffModel
from repro.sino.anneal import AnnealConfig, solve_min_area_sino
from repro.sino.panel import SinoProblem


@dataclass(frozen=True)
class Formula3Coefficients:
    """The six fitted coefficients ``a1 .. a6`` of Formula 3."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float

    def as_array(self) -> np.ndarray:
        """Coefficients as a length-6 vector (same order as the formula)."""
        return np.array(self.as_tuple())

    def as_tuple(self) -> Tuple[float, ...]:
        """Coefficients as six Python floats (same order as the formula)."""
        return tuple(float(a) for a in (self.a1, self.a2, self.a3, self.a4, self.a5, self.a6))


def formula3_features(sensitivity_rates: Sequence[float]) -> np.ndarray:
    """Feature vector ``[sum(S^2), sum(S^2)/N, sum(S), sum(S)/N, N, 1]``."""
    rates = np.asarray(list(sensitivity_rates), dtype=float)
    if rates.size == 0:
        raise ValueError("at least one segment is needed to evaluate Formula 3")
    if np.any(rates < 0.0) or np.any(rates > 1.0):
        raise ValueError("sensitivity rates must lie in [0, 1]")
    num_segments = float(rates.size)
    sum_sq = float(np.sum(rates ** 2))
    sum_s = float(np.sum(rates))
    return np.array([
        sum_sq,
        sum_sq / num_segments,
        sum_s,
        sum_s / num_segments,
        num_segments,
        1.0,
    ])


@dataclass(frozen=True)
class ShieldEstimator:
    """Evaluates Formula 3 for a region's segment sensitivity rates.

    Attributes
    ----------
    coefficients:
        Fitted ``a1 .. a6``.
    reference_kth:
        The per-segment Kth bound the fit was generated at; estimates are most
        accurate near this bound (the paper's fit has the same scope).
    fit_relative_error:
        Mean relative error against the fitting data (the paper reports at
        most 10 %).
    """

    coefficients: Formula3Coefficients
    reference_kth: float = 1.0
    fit_relative_error: float = 0.0

    def estimate(self, sensitivity_rates: Sequence[float]) -> float:
        """Estimated number of shield tracks for one region (clamped to >= 0)."""
        if len(sensitivity_rates) == 0:
            return 0.0
        features = formula3_features(sensitivity_rates)
        value = float(features @ self.coefficients.as_array())
        return max(value, 0.0)

    def estimate_rounded(self, sensitivity_rates: Sequence[float]) -> int:
        """Estimate rounded to a whole number of tracks."""
        return int(round(self.estimate(sensitivity_rates)))


def _random_problem(
    num_segments: int,
    sensitivity_rate: float,
    kth: float,
    rng: np.random.Generator,
    keff_model: KeffModel,
) -> SinoProblem:
    """Random single-panel SINO instance at a target sensitivity rate."""
    segments = list(range(num_segments))
    sensitivity = {segment: set() for segment in segments}
    for i in segments:
        for j in segments:
            if j <= i:
                continue
            if rng.random() < sensitivity_rate:
                sensitivity[i].add(j)
                sensitivity[j].add(i)
    return SinoProblem.build(
        segments=segments,
        sensitivity=sensitivity,
        default_kth=kth,
        keff_model=keff_model,
    )


def fit_formula3(
    segment_counts: Sequence[int] = (2, 3, 4, 6, 8, 10, 12),
    sensitivity_rates: Sequence[float] = (0.1, 0.2, 0.3, 0.5, 0.7, 0.9),
    samples_per_point: int = 3,
    kth: float = 1.0,
    effort: str = "greedy",
    anneal_config: Optional[AnnealConfig] = None,
    keff_model: KeffModel = DEFAULT_KEFF_MODEL,
    seed: int = 42,
) -> Tuple[ShieldEstimator, List[Tuple[np.ndarray, float]]]:
    """Fit Formula 3 against min-area SINO solutions.

    Returns the fitted estimator and the raw (features, observed Nss) samples
    so callers (tests, the M2 benchmark) can evaluate the fit quality
    themselves.
    """
    if samples_per_point < 1:
        raise ValueError(f"samples_per_point must be >= 1, got {samples_per_point}")
    rng = np.random.default_rng(seed)
    rows: List[np.ndarray] = []
    targets: List[float] = []
    samples: List[Tuple[np.ndarray, float]] = []
    for num_segments in segment_counts:
        for rate in sensitivity_rates:
            for _ in range(samples_per_point):
                problem = _random_problem(num_segments, rate, kth, rng, keff_model)
                solution = solve_min_area_sino(problem, effort=effort, config=anneal_config)
                rates = [problem.sensitivity_rate_of(segment) for segment in problem.segments]
                features = formula3_features(rates)
                observed = float(solution.num_shields)
                rows.append(features)
                targets.append(observed)
                samples.append((features, observed))
    matrix = np.vstack(rows)
    vector = np.asarray(targets)
    coefficients, _, _, _ = np.linalg.lstsq(matrix, vector, rcond=None)
    estimator = ShieldEstimator(
        coefficients=Formula3Coefficients(*[float(c) for c in coefficients]),
        reference_kth=kth,
        fit_relative_error=_mean_relative_error(matrix, vector, coefficients),
    )
    return estimator, samples


def _mean_relative_error(matrix: np.ndarray, observed: np.ndarray, coefficients: np.ndarray) -> float:
    """Mean relative error of the fit, ignoring zero-shield observations."""
    predicted = np.clip(matrix @ coefficients, 0.0, None)
    mask = observed > 0.5
    if not np.any(mask):
        return float(np.mean(np.abs(predicted - observed)))
    return float(np.mean(np.abs(predicted[mask] - observed[mask]) / observed[mask]))


@lru_cache(maxsize=4)
def default_shield_estimator(kth: float = 1.0, seed: int = 42) -> ShieldEstimator:
    """A cached estimator fitted with the default (fast) settings.

    The GSINO pipeline and the ID router weight function call this when the
    user does not supply their own estimator; caching keeps repeated pipeline
    construction cheap.
    """
    estimator, _ = fit_formula3(kth=kth, seed=seed)
    return estimator
