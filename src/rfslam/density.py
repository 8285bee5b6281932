"""RFS density containers and reduction primitives.

The landmark map is represented as a Poisson multi-Bernoulli mixture: a
uniform-intensity Poisson point process per landmark type for undetected
landmarks, plus a weighted mixture of multi-Bernoulli hypotheses for
landmarks detected at least once.  Each Bernoulli carries an existence
probability and, per landmark type, a type probability with a Gaussian
over the 3-D position.  ``mix_types`` is the one kernel that collapses
weighted beliefs into one: the merge here, and the cell averaging and TOMB
recombination of :mod:`rfslam.reduction`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

import numpy as np

from .geometry import TYPE_ORDER, LandmarkType


class DegenerateDensityError(ValueError):
    """All probability mass vanished (no hypotheses or all-zero weights)."""


def symmetrize(cov: np.ndarray) -> np.ndarray:
    """Numerical hygiene after updates: (C + C^T) / 2."""
    return 0.5 * (cov + cov.T)


@dataclass(frozen=True)
class GaussianComponent:
    """Gaussian belief with mean vector and covariance matrix."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "covariance",
                           np.asarray(self.covariance, dtype=float))

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class TypeComponent:
    """One landmark type's share of a belief: probability + position Gaussian."""

    weight: float
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "covariance",
                           np.asarray(self.covariance, dtype=float))


def _ordered_types(types: dict) -> dict:
    return {k: types[k] for k in TYPE_ORDER if k in types}


@dataclass(frozen=True)
class LandmarkBelief:
    """Mixture over landmark types; type probabilities sum to one."""

    types: dict  # LandmarkType -> TypeComponent

    def __post_init__(self):
        object.__setattr__(self, "types", _ordered_types(self.types))

    def dominant_type(self) -> LandmarkType:
        return max(self.types, key=lambda k: self.types[k].weight)


@dataclass(frozen=True)
class Bernoulli:
    """A potentially existing landmark: existence probability + belief."""

    existence: float
    belief: LandmarkBelief


@dataclass(frozen=True)
class GlobalHypothesis:
    """One data-association hypothesis: weight + its Bernoulli components.

    ``assoc`` optionally records the association vector that produced this
    hypothesis within the current step (needed by the PMB reduction).
    """

    weight: float
    bernoullis: tuple
    assoc: Optional[Any] = None

    def __post_init__(self):
        object.__setattr__(self, "bernoullis", tuple(self.bernoullis))


@dataclass(frozen=True)
class PmbmDensity:
    """PPP intensity rates per type plus the weighted hypothesis mixture."""

    ppp_intensity: dict  # LandmarkType -> rate (expected landmarks / volume)
    hypotheses: tuple

    def __post_init__(self):
        object.__setattr__(self, "ppp_intensity",
                           _ordered_types(dict(self.ppp_intensity)))
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))

    def best_hypothesis(self) -> GlobalHypothesis:
        return max(self.hypotheses, key=lambda h: h.weight)


def absent_bernoulli() -> Bernoulli:
    """Zero-existence placeholder for a track slot that holds no landmark.

    Fills the slot of a measurement explained as clutter only and of a new
    track born in no hypothesis; :func:`prune` drops it before any output.
    """
    return Bernoulli(0.0, LandmarkBelief({
        LandmarkType.VA: TypeComponent(1.0, np.zeros(3), 1e6 * np.eye(3))}))


#: Default map-region volume for the uniform PPP: x, y in [-200, 200] m,
#: z in [0, 40] m.
MAP_REGION_VOLUME = 400.0 * 400.0 * 40.0


def default_ppp_intensity() -> dict:
    """Uniform birth intensity: zero for the known BS, and ten expected
    undetected landmarks over the map region for VA and for SP."""
    rate = 10.0 / MAP_REGION_VOLUME
    return {LandmarkType.BS: 0.0, LandmarkType.VA: rate, LandmarkType.SP: rate}


def normalize_weights(density: PmbmDensity) -> PmbmDensity:
    """Rescale hypothesis weights to sum to one."""
    if not density.hypotheses:
        raise DegenerateDensityError("no hypotheses to normalize")
    total = sum(h.weight for h in density.hypotheses)
    if total <= 0.0:
        raise DegenerateDensityError("all hypothesis weights are zero")
    hyps = tuple(replace(h, weight=h.weight / total) for h in density.hypotheses)
    return replace(density, hypotheses=hyps)


def prune(density: PmbmDensity, bernoulli_threshold: float,
          hypothesis_threshold: float, max_hypotheses: int) -> PmbmDensity:
    """Drop low-existence Bernoullis and low-weight hypotheses, cap, renormalize."""
    if not (0.0 <= bernoulli_threshold < 1.0 and 0.0 <= hypothesis_threshold < 1.0):
        raise ValueError("thresholds must lie in [0, 1)")
    kept = []
    for hyp in density.hypotheses:
        berns = tuple(b for b in hyp.bernoullis
                      if b.existence >= bernoulli_threshold)
        kept.append(replace(hyp, bernoullis=berns))
    kept = [h for h in kept if h.weight >= hypothesis_threshold]
    kept.sort(key=lambda h: -h.weight)
    kept = kept[:max_hypotheses]
    if not kept:
        raise DegenerateDensityError("pruning removed every hypothesis")
    return normalize_weights(replace(density, hypotheses=tuple(kept)))


def _merge_pair_gate(a: Bernoulli, b: Bernoulli, threshold: float) -> bool:
    ka, kb = a.belief.dominant_type(), b.belief.dominant_type()
    if ka is not kb:
        return False
    ca, cb = a.belief.types[ka], b.belief.types[kb]
    d = ca.mean - cb.mean
    # For an SPD C, d^T C^-1 d >= |d|^2 / lambda_max(C) >= |d|^2 / tr(C), so
    # a pair this far apart fails the gate under either covariance and needs
    # no solve; the relative margin 1e-9 absorbs rounding.
    if float(d @ d) > threshold * (1.0 + 1e-9) * min(
            ca.covariance.trace(), cb.covariance.trace()):
        return False
    try:
        da = float(d @ np.linalg.solve(ca.covariance, d))
        db = float(d @ np.linalg.solve(cb.covariance, d))
    except np.linalg.LinAlgError:
        return False
    return max(da, db) <= threshold


def moment_match(coefs, means, covs, norm: float):
    """Moment-matched (mean, covariance) of a weighted Gaussian mixture.

    mean = sum_i c_i m_i / norm and
    cov = sum_i c_i (C_i + (m_i - mean)(m_i - mean)^T) / norm, symmetrized.
    ``np.add.reduce`` over the stacked members adds them one after another
    from zero, as the built-in ``sum`` does, so the result is bit-identical
    to the Python loop over the members.
    """
    coefs = np.array(coefs, dtype=float)
    means = np.array(means, dtype=float)
    mean = np.add.reduce(coefs[:, None] * means, axis=0) / norm
    d = means - mean
    spread = np.array(covs, dtype=float) + d[:, :, None] * d[:, None, :]
    cov = np.add.reduce(coefs[:, None, None] * spread, axis=0) / norm
    return mean, symmetrize(cov)


#: Mass below which a reduction cell or a mixed type carries no posterior mass.
MIN_CELL_MASS = 1e-12


def mix_types(members: list, total: float,
              type_weights=None) -> LandmarkBelief:
    """Type-weighted moment match of beliefs: the one kernel of the merge,
    the cell averaging and the TOMB recombination.

    ``members`` are ``(scale, belief)`` pairs.  For each type in
    ``TYPE_ORDER``, a member holding the type gets the coefficient scale
    times its type weight: the type probability, or ``type_weights[i](kind)``
    for member ``i`` when given.  The type probability is the summed
    coefficient over ``total`` (0 when ``total`` is not positive).  Below
    ``MIN_CELL_MASS`` the type keeps the first member's Gaussian; above it
    the members are moment matched.
    """
    types = {}
    for kind in TYPE_ORDER:
        coefs, comps = [], []
        for i, (scale, belief) in enumerate(members):
            comp = belief.types.get(kind)
            if comp is not None:
                coefs.append(scale * (comp.weight if type_weights is None
                                      else type_weights[i](kind)))
                comps.append(comp)
        if not comps:
            continue
        mass = sum(coefs)
        psi = mass / total if total > 0.0 else 0.0
        if mass < MIN_CELL_MASS:
            types[kind] = TypeComponent(psi, comps[0].mean, comps[0].covariance)
            continue
        mean, cov = moment_match(coefs, [c.mean for c in comps],
                                 [c.covariance for c in comps], mass)
        types[kind] = TypeComponent(psi, mean, cov)
    return LandmarkBelief(types)


def merge_bernoullis(hypothesis: GlobalHypothesis,
                     mahalanobis_threshold: float) -> GlobalHypothesis:
    """Merge same-dominant-type Bernoullis that are statistically close.

    The gate is the symmetrized squared Mahalanobis distance between the
    dominant-type position means (evaluated under each covariance, maximum
    taken).  Merged components are moment matched with existence-and-type
    weights; existence adds up, clamped at one.
    """
    if mahalanobis_threshold <= 0.0:
        raise ValueError("merge threshold must be positive")
    remaining = list(hypothesis.bernoullis)
    merged = []
    while remaining:
        # Seed with the strongest remaining component for determinism.
        seed_idx = max(range(len(remaining)),
                       key=lambda i: remaining[i].existence)
        seed = remaining.pop(seed_idx)
        group = [seed]
        rest = []
        for b in remaining:
            if _merge_pair_gate(seed, b, mahalanobis_threshold):
                group.append(b)
            else:
                rest.append(b)
        remaining = rest
        if len(group) == 1:
            merged.append(seed)
            continue
        total = sum(b.existence for b in group)
        merged.append(Bernoulli(min(1.0, total), mix_types(
            [(b.existence, b.belief) for b in group], total)))
    return replace(hypothesis, bernoullis=tuple(merged))
