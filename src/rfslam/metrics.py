"""Mapping and state-estimation metrics.

The mapping metric is the generalized optimal subpattern assignment
distance: an optimal partial assignment between estimated and true
landmark positions where pairs beyond a cutoff are never matched and every
unmatched element (missed or false) pays cutoff^p / alpha.  The inner
assignment reuses the same optimal-assignment kernel as the data
association, on a padded square matrix with dummy miss/false slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .density import PmbmDensity


@dataclass(frozen=True)
class GospaParams:
    cutoff: float = 20.0    # maximum pairing distance (m)
    alpha: float = 2.0      # cardinality-penalty normalization
    exponent: float = 2.0   # distance power

    def __post_init__(self):
        if not (0.0 < self.cutoff < np.inf and 0.0 < self.alpha <= 2.0
                and 1.0 <= self.exponent < np.inf):
            raise ValueError("invalid GOSPA parameters")


def gospa(estimates, truth, params: GospaParams = GospaParams()):
    """GOSPA distance plus its {localization, missed, false} decomposition.

    The decomposition entries are the additive terms of the p-th power sum;
    the returned distance is their sum to the 1/p power.
    """
    est = np.atleast_2d(np.asarray(estimates, dtype=float)) \
        if len(estimates) else np.zeros((0, 3))
    tru = np.atleast_2d(np.asarray(truth, dtype=float)) \
        if len(truth) else np.zeros((0, 3))
    m, n = est.shape[0], tru.shape[0]
    p = params.exponent
    penalty = params.cutoff ** p / params.alpha
    size = m + n
    costs = np.full((size, size), np.inf)
    if m and n:
        d = np.linalg.norm(est[:, None, :] - tru[None, :, :], axis=2)
        block = np.where(d < params.cutoff, d ** p, np.inf)
        costs[:m, :n] = block
    costs[:m, n:][np.eye(m, dtype=bool)] = penalty   # false-estimate slots
    costs[m:, :n][np.eye(n, dtype=bool)] = penalty   # missed-truth slots
    costs[m:, n:] = 0.0
    rows, cols = linear_sum_assignment(costs)
    localization = 0.0
    matched = 0
    for r, c in zip(rows, cols):
        if r < m and c < n:
            localization += costs[r, c]
            matched += 1
    missed = penalty * (n - matched)
    false = penalty * (m - matched)
    distance = (localization + missed + false) ** (1.0 / p)
    return distance, {"localization": localization, "missed": missed,
                      "false": false}


def extract_map(density: PmbmDensity, existence_threshold: float):
    """Landmark estimates from the highest-weight hypothesis.

    Bernoullis with existence >= threshold contribute their dominant-type
    mean; returns a list of (position, LandmarkType).
    """
    if not 0.0 < existence_threshold < 1.0:
        raise ValueError("existence threshold must lie in (0, 1)")
    if not density.hypotheses:
        return []
    best = density.best_hypothesis()
    out = []
    for bern in best.bernoullis:
        if bern.existence >= existence_threshold:
            kind = bern.belief.dominant_type()
            out.append((bern.belief.types[kind].mean, kind))
    return out


def rmse(errors) -> float:
    """Root mean squared error."""
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        raise ValueError("rmse of empty input")
    return float(np.sqrt(np.mean(np.square(e))))


def mae_per_step(errors) -> np.ndarray:
    """Mean absolute error per step over Monte-Carlo runs.

    ``errors`` has shape (runs, steps).
    """
    e = np.atleast_2d(np.asarray(errors, dtype=float))
    if e.size == 0:
        raise ValueError("mae of empty input")
    return np.mean(np.abs(e), axis=0)
