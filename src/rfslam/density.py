"""RFS density containers and reduction primitives.

The landmark map is represented as a Poisson multi-Bernoulli mixture: a
uniform-intensity Poisson point process per landmark type for undetected
landmarks, plus a weighted mixture of multi-Bernoulli hypotheses for
landmarks detected at least once.  Each Bernoulli carries an existence
probability and, per landmark type, a type probability with a Gaussian
over the 3-D position.  README's "Library use" states the containers'
contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

import numpy as np

from .geometry import TYPE_ORDER, LandmarkType


class DegenerateDensityError(ValueError):
    """All probability mass vanished (no hypotheses or all-zero weights)."""


def _shape_groups(blocks) -> list:
    """Index lists of the rows of ``blocks`` that share a shape, in order:
    a model may give each landmark type its own dimension, and a stack
    holds one shape."""
    groups = {}
    for k, block in enumerate(blocks):
        groups.setdefault(block.shape, []).append(k)
    return list(groups.values())


def sum_in_order(terms) -> float:
    """The terms added one after another, left to right from +0.0.

    Builtin ``sum`` of floats does this up to Python 3.11; from 3.12 it
    compensates, which rounds differently, so the filter's float sums take
    this loop instead to keep their bits on every interpreter.
    """
    total = 0.0
    for term in terms:
        total += term
    return total


def symmetrize(cov: np.ndarray) -> np.ndarray:
    """Numerical hygiene after updates: (C + C^T) / 2, of one matrix or of
    each in a stack."""
    return 0.5 * (cov + cov.swapaxes(-1, -2))


@dataclass(frozen=True)
class GaussianComponent:
    """Gaussian belief with mean vector and covariance matrix."""

    mean: np.ndarray
    covariance: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class TypeComponent:
    """One landmark type's share of a belief: probability + position Gaussian."""

    weight: float
    mean: np.ndarray
    covariance: np.ndarray


def _ordered_types(types: dict) -> dict:
    return {k: types[k] for k in TYPE_ORDER if k in types}


@dataclass(frozen=True)
class LandmarkBelief:
    """Mixture over landmark types; type probabilities sum to one."""

    types: dict  # LandmarkType -> TypeComponent, in TYPE_ORDER

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


@dataclass(frozen=True)
class PmbmDensity:
    """PPP intensity rates per type plus the weighted hypothesis mixture."""

    ppp_intensity: dict  # LandmarkType -> rate (expected landmarks / volume)
    hypotheses: tuple

    def best_hypothesis(self) -> GlobalHypothesis:
        return max(self.hypotheses, key=lambda h: h.weight)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_ABSENT = Bernoulli(0.0, LandmarkBelief({LandmarkType.VA: TypeComponent(
    1.0, _read_only(np.zeros(3)), _read_only(1e6 * np.eye(3)))}))


def absent_bernoulli() -> Bernoulli:
    """Zero-existence placeholder for a track slot that holds no landmark.

    Fills the slot of a measurement explained as clutter only and of a new
    track born in no hypothesis; :func:`prune` drops it before any output.
    Every slot shares one instance, whose arrays are read-only.
    """
    return _ABSENT


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
    total = sum_in_order(h.weight for h in density.hypotheses)
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


def _merge_pair_gate(ca: TypeComponent, cb: TypeComponent,
                     threshold: float) -> bool:
    """Whether two dominant components of one type lie within the merge
    gate: d^T C^-1 d <= threshold under each covariance."""
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


def moment_match(groups):
    """Moment-matched (mean, covariance) of every weighted Gaussian mixture
    in ``groups``, all in one array pass.

    ``groups`` holds ``(coefs, members, norm)`` triples: a list of
    coefficients c_i, each positive or +0, a list of as many members
    (anything with ``mean`` and ``covariance``, of one dimension d
    throughout) and the normalizer.  For each group,
    mean = sum_i c_i m_i / norm and
    cov = sum_i c_i (C_i + (m_i - mean)(m_i - mean)^T) / norm, symmetrized.
    Returns the means stacked (G, d) and the covariances (G, d, d).

    The member axis leads: coefficients are (N, G), means (N, G, d) and
    covariances (N, G, d, d) for the longest group's N members, so
    ``np.add.reduce`` over axis 0 adds one member's whole (G, ...) slab at
    a time.  Each group's sums equal, bit for bit, its members added one
    after another, for two reasons.

    - Reduction order.  ``np.add.reduce`` adds pairwise, in eight partial
      sums, along the innermost contiguous axis once it holds 8 or more
      terms; along any other axis each output element adds its terms one
      after another in index order.  So the member axis is never the
      innermost one, nor the only axis longer than 1, which a lone group
      of 1-D members would make it: such a group is matched beside a dummy
      group of one zero coefficient, whose row is dropped.
    - Padding.  A group shorter than the longest is padded, after its own
      members, with zero coefficients on copies of its first member, so
      each padded term is 0 x, a zero signed like x.  Adding a signed zero
      changes no sum but -0.0, and a sum of doubles is -0.0 only when
      every term is -0.0.  numpy 2.4 starts each sum from +0.0, add's
      identity, so no running sum is -0.0.  A reduction that starts from
      its first term reaches -0.0 only when every term is, the first
      member's c x among them; as c is positive or +0, x is then negative
      or -0.0, and so is 0 x.  Either way each padded term adds an exact
      zero, as long as x is finite (0 inf is NaN).  So members must be
      finite: a padded group whose first member is not may read NaN where
      matching it alone reads inf (the other groups keep their bits).
    """
    if len(groups) == 1 and groups[0][1][0].mean.shape == (1,):
        mean, cov = moment_match([*groups, ([0.0], groups[0][1][:1], 1.0)])
        return mean[:1], cov[:1]
    width = max(len(coefs) for coefs, _, _ in groups)
    # Row g of ``rows``: group g's members in ``flat``, then its first
    # member again in each padded slot, whose coefficient is 0.
    flat, padded, rows = [], [], []
    for coefs, members, _ in groups:
        pad = width - len(coefs)
        rows += range(len(flat), len(flat) + len(coefs))
        rows += [len(flat)] * pad
        flat += members
        padded += coefs + [0.0] * pad
    dim = flat[0].mean.shape[0]
    # Member-major (N, G).
    rows = np.array(rows).reshape(-1, width).T
    coefs = np.array(padded).reshape(-1, width).T[:, :, None]
    means = np.concatenate([m.mean for m in flat]).reshape(-1, dim)
    covs = np.concatenate([m.covariance for m in flat]).reshape(-1, dim, dim)
    means, covs = means.take(rows, axis=0), covs.take(rows, axis=0)
    norms = np.array([norm for _, _, norm in groups])[:, None]
    mean = np.add.reduce(coefs * means, axis=0) / norms
    d = means - mean
    spread = covs + d[..., :, None] * d[..., None, :]
    cov = symmetrize(np.add.reduce(coefs[..., None] * spread, axis=0)
                     / norms[..., None])
    return mean, cov


#: Mass below which a reduction cell or a mixed type carries no posterior mass.
MIN_CELL_MASS = 1e-12


def mix_types(jobs: list) -> list:
    """Type-weighted moment match of beliefs, every job of a stage in one
    :func:`moment_match` call per member dimension: the one kernel of the
    merge, the cell averaging and the TOMB recombination.

    A job is ``(members, total, masses)``: ``members`` are ``(scale,
    Bernoulli)`` pairs whose beliefs are mixed (the existence plays no
    part), and ``masses`` is None or one ``{type: mass}`` dict per member.
    For each type, a member holding it gets the coefficient scale
    times its type weight: the type probability, or the member's entry in
    ``masses``.  The type's mass is its coefficients summed left to right
    from zero, and its probability is the mass over ``total`` (0 when
    ``total`` is not positive).  Below ``MIN_CELL_MASS`` the type keeps the
    first holder's Gaussian; above it the holders are moment matched.
    Returns one ``(belief, masses)`` pair per job, the belief's types in
    ``TYPE_ORDER``, where ``masses`` maps each type it holds to its mass.
    """
    results, groups, slots = [], [], []
    for members, total, masses in jobs:
        held = {}
        for i, (scale, bern) in enumerate(members):
            for kind, comp in bern.belief.types.items():
                group = held.get(kind)
                if group is None:
                    group = held[kind] = ([], [])
                group[0].append(scale * (comp.weight if masses is None
                                         else masses[i][kind]))
                group[1].append(comp)
        types, type_masses = {}, {}
        for kind, (coefs, comps) in held.items():
            mass = type_masses[kind] = sum_in_order(coefs)
            psi = mass / total if total > 0.0 else 0.0
            if mass < MIN_CELL_MASS:
                types[kind] = TypeComponent(psi, comps[0].mean,
                                            comps[0].covariance)
            else:
                types[kind] = psi
                groups.append((coefs, comps, mass))
                slots.append((types, kind))
        results.append((types, type_masses))
    for group in _shape_groups([comps[0].mean for _, comps, _ in groups]):
        means, covs = moment_match([groups[k] for k in group])
        for k, mean, cov in zip(group, means, covs):
            types, kind = slots[k]
            types[kind] = TypeComponent(types[kind], mean, cov)
    return [(LandmarkBelief(_ordered_types(types)), type_masses)
            for types, type_masses in results]


#: Relative margin of the merge's array bound over the pair gate's own.
MERGE_BOUND_MARGIN = 1e-6


def _merge_candidates(kinds, comps, threshold: float) -> list:
    """``near[i][j]``: False where Bernoullis i and j may not merge: their
    dominant types ``kinds`` differ, or :func:`_merge_pair_gate` is sure to
    reject their dominant components ``comps`` without a solve, because
    the trace bound |d|^2 > threshold (1 + 1e-9) min(tr C_i, tr C_j)
    holds.

    One array pass bounds every pair, with a wider bound than the gate's.
    Its |d|^2 sums the squares in numpy where the gate takes ``d @ d``
    (BLAS), and the two sums round differently.  Each is within a relative
    3u/(1 - 3u) (u = 2^-53) of the exact |d|^2, plus at most 5 subnormal
    roundings of 2^-1075 each where products underflow, so a pair this
    pass rejects has ``d @ d`` above the gate's bound: the relative margin
    ``MERGE_BOUND_MARGIN`` covers the first term and the slack 1e-300 the
    second.  A negative bound rejects every pair in both; a NaN bound or
    distance compares False and keeps the pair.

    A stack holds one shape, so each dimension's Bernoullis are bounded
    by themselves (:func:`_shape_groups`).  A pair across dimensions has
    two dominant types and is False.
    """
    codes = np.array([TYPE_ORDER.index(k) for k in kinds])
    near = codes[:, None] == codes
    for group in _shape_groups([c.mean for c in comps]):
        means = np.array([comps[k].mean for k in group])
        # The gate's traces: each sums its diagonal in the same order.
        traces = np.array([comps[k].covariance for k in group]).trace(
            axis1=1, axis2=2)
        d = means[:, None, :] - means[None, :, :]
        bound = (threshold * (1.0 + MERGE_BOUND_MARGIN)
                 * np.minimum(traces[:, None], traces[None, :]) + 1e-300)
        near[np.ix_(group, group)] &= ~((d * d).sum(axis=-1) > bound)
    return near.tolist()


def merge_bernoullis(hypothesis: GlobalHypothesis,
                     mahalanobis_threshold: float) -> GlobalHypothesis:
    """Merge same-dominant-type Bernoullis that are statistically close.

    The gate is the symmetrized squared Mahalanobis distance between the
    dominant-type position means (evaluated under each covariance, maximum
    taken).  Merged components are moment matched with existence-and-type
    weights; existence adds up, clamped at one.  Each Bernoulli's dominant
    type and component are found once; only the pairs of one type that
    :func:`_merge_candidates` keeps reach :func:`_merge_pair_gate`, as the
    others would fail it without a solve.
    """
    if mahalanobis_threshold <= 0.0:
        raise ValueError("merge threshold must be positive")
    berns = hypothesis.bernoullis
    kinds = [b.belief.dominant_type() for b in berns]
    comps = [b.belief.types[k] for b, k in zip(berns, kinds)]
    near = (_merge_candidates(kinds, comps, mahalanobis_threshold)
            if len(berns) > 1 else [])
    existence = [b.existence for b in berns]
    remaining = list(range(len(berns)))
    merged = []
    while remaining:
        # Seed with the strongest remaining component for determinism (the
        # first of equals).
        s = max(remaining, key=existence.__getitem__)
        remaining.remove(s)
        seed = berns[s]
        group = [seed]
        rest = []
        for j in remaining:
            if near[s][j] and _merge_pair_gate(comps[s], comps[j],
                                               mahalanobis_threshold):
                group.append(berns[j])
            else:
                rest.append(j)
        remaining = rest
        if len(group) == 1:
            merged.append(seed)
            continue
        total = sum_in_order(b.existence for b in group)
        (belief, _), = mix_types([([(b.existence, b) for b in group], total,
                                   None)])
        merged.append(Bernoulli(min(1.0, total), belief))
    return replace(hypothesis, bernoullis=tuple(merged))
