"""Data association: local weights, cost matrix, ranked k-best assignment.

Each previously detected landmark can be detected again or misdetected,
and each measurement can start a new landmark or be clutter.  Each local
weight has one implementation, which the cost matrix and the joint update
both use: :func:`log_weight_detected`, :func:`misdetection_weight` and
:func:`weight_birth`, each returning its per-type masses.
:func:`build_cost_matrix` builds a hypothesis's costs, :func:`murty_kbest`
ranks its best ``gamma`` associations, and :func:`chol_solve` is the
filter's one Cholesky entry.  Stacked work keeps each row's bits by the
bit rules of :mod:`rfslam.geometry`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np
from scipy.linalg.blas import ddot
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import linear_sum_assignment

from .density import (
    Bernoulli,
    GaussianComponent,
    GlobalHypothesis,
    _shape_groups,
    sum_in_order,
    symmetrize,
)
from .geometry import MAX_P_DETECT, LandmarkType

LOG_2PI = math.log(2.0 * math.pi)

#: Default ellipsoidal gate on squared Mahalanobis innovation distance.
DEFAULT_GATE = 30.0


class InfeasibleAssignmentError(ValueError):
    """A measurement row admits no finite-cost assignment."""


def _all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` for a real array, at a fraction of its cost.

    The BLAS sum of the squared entries is inf or NaN when an entry is, and
    finite when every entry is unless it overflows; only a sum that is not
    finite pays for the exact test.  The f2py ``ddot`` sets no numpy
    warning on overflow, as ``ndarray.dot`` does.
    """
    flat = a.ravel("K")
    return (not flat.size or math.isfinite(ddot(flat, flat))
            or bool(np.isfinite(a).all()))


def _dpotrf(a: np.ndarray) -> np.ndarray:
    factor, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return factor


def chol_solve(stack: np.ndarray, rhs: np.ndarray, drop: bool = False):
    """``(kept, factors, solutions)`` of a stack of symmetric matrices and a
    stack of right-hand sides: per row, the lower Cholesky factor and the
    solution of ``a x = b``, bit-identical to ``scipy.linalg.cho_factor(a,
    lower=True)[0]`` (the strict upper triangle keeps ``a``) and to
    ``cho_solve`` on it, without the wrappers' per-call overhead.  A row
    that is not positive definite raises LinAlgError, or with ``drop`` is
    left out of ``kept``.  Each operand stack is tested for finiteness once,
    which raises ValueError.  A factor needs no test: ``dpotrf`` stops at
    the first pivot that is not positive or is NaN, and every entry of a
    factor it completes is bounded by the square root of a diagonal entry,
    so a completed factor of a finite matrix is finite.
    """
    if not (_all_finite(stack) and _all_finite(rhs)):
        raise ValueError("array must not contain infs or NaNs")
    kept, factors, solutions = [], [], []
    for k in range(len(stack)):
        try:
            factor = _dpotrf(stack[k])
        except np.linalg.LinAlgError:
            if drop:
                continue
            raise
        x, info = dpotrs(factor, rhs[k], lower=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrs")
        kept.append(k)
        factors.append(factor)
        solutions.append(x)
    return kept, factors, solutions


def chol_logpdf(residuals: np.ndarray, covs: np.ndarray) -> tuple[list, list]:
    """(log Gaussian densities, squared Mahalanobis distances) of a nonempty
    stack of residuals, one per row, each under its own covariance.

    Every row gets its own ``dpotrf`` and ``dpotrs`` (:func:`chol_solve`).
    The distances are the rows' BLAS dots, one stacked ``(N,1,d) @
    (N,d,1)`` product, and the log-determinants sum each factor's
    log-diagonal along the last axis, so every row has the bits of its own
    1-D computation.  Raises LinAlgError with context at the first
    covariance that is not positive definite.
    """
    try:
        _, factors, solved = chol_solve(covs, residuals)
    except np.linalg.LinAlgError as exc:
        d = covs.shape[1]
        raise np.linalg.LinAlgError(
            f"singular innovation covariance ({d}x{d}): {exc}") from exc
    mahal = (residuals[:, None, :] @ np.array(solved)[:, :, None])[:, 0, 0]
    logdet = 2.0 * np.log(
        np.array(factors).diagonal(axis1=1, axis2=2)).sum(axis=-1)
    k = residuals.shape[1]
    return (-0.5 * (k * LOG_2PI + logdet + mahal)).tolist(), mahal.tolist()


@dataclass(frozen=True)
class TypePrediction:
    """One (landmark, type) row of ``model.linearize``: detection
    probability and the Jacobian's sensor and landmark blocks, None when
    the sensor cannot see the type or its geometry is degenerate.  The
    predicted measurements stay in :func:`predict_types`'s stack."""

    p_detect: float
    H_s: Optional[np.ndarray]
    H_x: Optional[np.ndarray]


def linearize_types(berns, z_rows: np.ndarray, sensor: GaussianComponent,
                    ppp: dict, model):
    """Every row's geometry at the sensor mean: one ``model.invert`` call
    over every measurement for every birth type (a positive PPP rate, and
    not the known BS), and one ``model.linearize`` call over the landmark
    rows, landmark by landmark in each belief's type order, then the
    newborn rows in ``invert``'s order.

    Returns ``(members, born, means, linearization)``: the ``(landmark,
    kind, component)`` of each landmark row, the ``(kind, measurement)``
    and the mean of each newborn row, and the ``linearize`` result.
    """
    members = [(i, kind, comp) for i, bern in enumerate(berns)
               for kind, comp in bern.belief.types.items()]
    kinds = [kind for kind, rate in ppp.items()
             if rate > 0.0 and kind is not LandmarkType.BS]
    born, means = (model.invert(z_rows, sensor.mean, kinds)
                   if kinds and len(z_rows) else ([], []))
    return members, born, means, model.linearize(
        sensor.mean, [c.mean for _, _, c in members] + list(means),
        [kind for _, kind, _ in members] + [kind for kind, _ in born])


def _dimension_stacks(H_x, rows: list) -> list:
    """``(block, H_x stack)`` per landmark dimension of the prediction rows
    ``rows``: all of them when ``H_x`` is one stack, else a block per
    shape of its per-row blocks, in first-seen order."""
    if isinstance(H_x, np.ndarray):
        return [(rows, H_x[rows])] if rows else []
    return [(block, np.array([H_x[r] for r in block]))
            for block in ([rows[j] for j in group] for group in
                          _shape_groups([H_x[r] for r in rows]))]


def predict_types(berns, sensor: GaussianComponent, geometry):
    """Predicted measurement statistics for every type of every Bernoulli,
    read from the landmark rows of :func:`linearize_types`, and one
    stacked ``hph``.  A type the sensor cannot see keeps its detection
    probability and has no prediction; degenerate geometry counts as
    detection probability 0.

    Returns ``(preds, rows, z_pred, hph)``: per landmark a dict kind ->
    :class:`TypePrediction` in its belief's type order, the ``(landmark,
    kind)`` of every type with a prediction, landmark by landmark, and
    their predictions and H blkdiag(P, C) H^T (without R), stacked in
    ``rows`` order -- the order of the landmark rows of the linearization.
    """
    members, _, _, (p_detect, seen, z_pred, H_s, H_x) = geometry
    preds = [dict.fromkeys(bern.belief.types) for bern in berns]
    m = bisect_left(seen, len(members))
    row = dict(zip(seen[:m], range(m)))
    for k, (i, kind, _) in enumerate(members):
        r = row.get(k)
        preds[i][kind] = (TypePrediction(p_detect[k], None, None) if r is None
                          else TypePrediction(p_detect[k], H_s[r], H_x[r]))
    rows = [members[k][:2] for k in seen[:m]]
    if not rows:
        return tuple(preds), rows, None, None
    hph = H_s[:m] @ sensor.covariance @ H_s[:m].swapaxes(-1, -2)
    for block, H in _dimension_stacks(H_x, list(range(m))):
        C = np.array([members[seen[r]][2].covariance for r in block])
        hph[block] += H @ C @ H.swapaxes(-1, -2)
    return tuple(preds), rows, z_pred[:m], hph


def log_weight_detected(bern: Bernoulli, preds: dict, densities: dict):
    """Local weight for "detected again", in log domain, for one pair.

    ``densities`` maps each contributing type -- one with a prediction and a
    positive detection probability and weight -- to its ``(ln N(z; h, S),
    squared Mahalanobis distance)``, rows of one :func:`chol_logpdf` call.
    Returns ``(ln l, masses, mahal)`` with l = r sum_type psi pd N(z; h, S).
    A contributing type's mass is its term over the largest one,
    exp(ln(psi pd N) - peak), and every other type of the belief has mass
    0.0; mahal is the smallest squared Mahalanobis distance over the
    contributing types (the caller gates on it).  With no contributing
    type, or zero existence, ln l is -inf and the masses are empty.
    """
    best_mahal = math.inf
    if bern.existence <= 0.0:
        return -math.inf, {}, best_mahal
    terms = {}
    types = bern.belief.types
    for kind, (loglik, mahal) in densities.items():
        best_mahal = min(best_mahal, mahal)
        terms[kind] = (math.log(types[kind].weight)
                       + math.log(preds[kind].p_detect) + loglik)
    log_l, masses = _log_sum_exp(terms)
    if not masses:
        return -math.inf, {}, best_mahal
    return (math.log(bern.existence) + log_l,
            {k: masses.get(k, 0.0) for k in types}, best_mahal)


def _log_sum_exp(terms: dict):
    """``(ln sum_k exp(t_k), masses)`` of log-domain terms: a term's mass is
    exp(t_k - peak), its share of the largest, and the log-sum is the peak
    plus the log of their sum, added in ``terms`` order.  With no finite
    peak the log-sum is -inf and the masses are empty."""
    peak = max(terms.values(), default=-math.inf)
    if not math.isfinite(peak):
        return -math.inf, {}
    masses = {k: math.exp(t - peak) for k, t in terms.items()}
    return peak + math.log(sum_in_order(masses.values())), masses


def misdetection_weight(bern: Bernoulli, preds: dict):
    """Local weight for "not detected": l0 = (1 - r) + r sum_type psi (1 - pd).

    Returns ``(masses, survive, l0)``: the per-type masses psi (1 - pd),
    with pd clamped to ``MAX_P_DETECT`` (degenerate geometry counts as
    pd = 0), survive = their sum, and l0.  The masses are the factored
    form ``(1 - pd) psi``, not the survival form ``1 - pd psi``: the
    survival form has an interior fixed point that keeps pulling resolved
    type probabilities back toward it, which destabilizes landmarks outside
    the field of view.
    """
    masses = {k: comp.weight * (1.0 - min(preds[k].p_detect, MAX_P_DETECT))
              for k, comp in bern.belief.types.items()}
    survive = sum_in_order(masses.values())
    return masses, survive, (1.0 - bern.existence) + bern.existence * survive


def newborns(geometry, ppp: dict, z_rows: np.ndarray, r_stack: np.ndarray,
             sensor: GaussianComponent, model) -> list:
    """Newborn landmark Gaussians and birth densities of every measurement.

    The mean inverts the measurement at the sensor mean, and the
    prediction there is the newborn row of the hypothesis's ``linearize``
    (:func:`linearize_types`).  The covariance is the infinite-prior EK
    update, i.e. the inverse Fisher-style form (Hx^T (Hs P Hs^T + R)^-1
    Hx)^-1, and the birth density is N(z; h, Hs P Hs^T + Hx C Hx^T + R).
    A (measurement, type) has no newborn when the measurement does not
    determine a position, the newborn's geometry is degenerate, the sensor
    cannot see it (detection probability 0), or its gain or information
    matrix is not positive definite; the measurement is then clutter-only
    for that type.

    Returns per measurement ``(terms, comps)``: kind -> ``(rate, p_detect,
    ln N)`` and kind -> newborn :class:`GaussianComponent`, in ``ppp``
    order, for :func:`weight_birth`.
    """
    members, born, means, (p_detect, seen, z_pred, H_s, H_x) = geometry
    n = len(members)
    live = [r for r in range(bisect_left(seen, n), len(seen))
            if p_detect[seen[r]] > 0.0]
    kept = []
    for block, H in _dimension_stacks(H_x, live):
        kept += [(block[b], loglik, cov) for b, loglik, cov in _newborn_stack(
            [born[seen[r] - n][1] for r in block], z_pred[block],
            H_s[block], H, z_rows, r_stack, sensor, model)]
    out = [({}, {}) for _ in z_rows]
    # Stack order is ppp order, then measurement order.
    for r, loglik, cov in sorted(kept):
        (kind, p), mean = born[seen[r] - n], means[seen[r] - n]
        out[p][0][kind] = (ppp[kind], p_detect[seen[r]], loglik)
        out[p][1][kind] = GaussianComponent(mean, cov)
    return out


def _newborn_stack(meas, z_pred, H_s, H_x, z_rows, r_stack, sensor,
                   model) -> list:
    """``(row, ln N, covariance)`` of each newborn row, of measurement
    ``meas[row]`` with prediction ``z_pred[row]`` and Jacobian blocks
    ``H_s[row]`` and ``H_x[row]``, whose gain and information matrices are
    positive definite."""
    r_rows = r_stack[meas]
    hph_s = H_s @ sensor.covariance @ H_s.swapaxes(-1, -2)
    live, _, solved = chol_solve(hph_s + r_rows, H_x, drop=True)
    if not live:
        return []
    H_x = H_x[live]
    info = H_x.swapaxes(-1, -2) @ np.array(solved)
    kept, _, inverses = chol_solve(
        info, np.eye(info.shape[-1])[None].repeat(len(info), axis=0),
        drop=True)
    if not kept:
        return []
    live = [live[j] for j in kept]
    cov = symmetrize(np.array(inverses))
    H_x = H_x[kept]
    hph = hph_s[live] + H_x @ cov @ H_x.swapaxes(-1, -2)
    v = model.wrap_residual(z_rows[[meas[k] for k in live]] - z_pred[live])
    logliks, _ = chol_logpdf(v, hph + r_rows[live])
    return list(zip(live, logliks, cov))


@dataclass(frozen=True)
class BirthCandidate:
    """Everything needed to append a newborn Bernoulli for one measurement."""

    log_weight: float          # ln l_B = ln(clutter + sum_type rho)
    existence: float           # rho_B / l_B
    masses: dict               # LandmarkType -> rho; {} when sum_type rho <= 0
    comps: dict                # LandmarkType -> newborn GaussianComponent


def weight_birth(terms: dict, comps: dict, clutter_intensity: float):
    """Local weight for "detected for the first time" of one measurement.

    ``terms`` and ``comps`` are the measurement's :func:`newborns`.  Returns
    the :class:`BirthCandidate`: a type's mass is its rate rho = eta pd N
    (clutter never enters it).  When sum_type rho is not
    positive the measurement is clutter-only (weight floor
    ``clutter_intensity``) and the masses are empty, unless there is no
    clutter and every rho underflowed: then ln l_B is the log-sum of the
    rates, the existence 1, and the masses the rates over the largest, so a
    measurement that only a newborn explains keeps a finite cost.  A
    density too large for a float raises InfeasibleAssignmentError: the
    measurement's birth cost would be -inf.  ``clutter_intensity`` is finite
    and >= 0, as :class:`rfslam.update.FilterConfig` checks.
    """
    rho = {}
    for kind, (rate, pd, loglik) in terms.items():
        try:
            rho[kind] = rate * pd * math.exp(loglik)
        except OverflowError:
            raise InfeasibleAssignmentError(
                f"birth density of a {kind.value} overflows "
                f"(ln N = {loglik:.6g})") from None
    rho_total = sum_in_order(rho.values())
    weight = clutter_intensity + rho_total
    if weight > 0.0:
        return BirthCandidate(math.log(weight), rho_total / weight,
                              rho if rho_total > 0.0 else {}, comps)
    # No clutter and every rate underflowed: the weight is the log-sum of
    # the rates, and a type's mass its rate over the largest.
    log_weight, masses = _log_sum_exp({
        kind: math.log(rate) + math.log(pd) + loglik
        for kind, (rate, pd, loglik) in terms.items()})
    return BirthCandidate(log_weight, 1.0 if masses else 0.0, masses, comps)


@dataclass(frozen=True)
class CostMatrix:
    """Negative-log-weight assignment costs.

    Rows are measurements; the first ``n_prior`` columns are previously
    detected landmarks (costs of detected-again over misdetected), the
    trailing square block is diagonal with new-landmark costs and +inf
    elsewhere.
    """

    matrix: np.ndarray
    n_prior: int


@dataclass(frozen=True)
class AssociationVector:
    """Slot-to-measurement mapping for one data association.

    ``sigma`` has one entry per prior landmark then one per measurement
    (birth slots).  Prior entries are 1-based measurement indices or 0 for
    misdetection; birth entries are the slot's own measurement index or
    None when no landmark is born.
    """

    n_prior: int
    sigma: tuple

    @property
    def n_meas(self) -> int:
        return len(self.sigma) - self.n_prior

    def detected_pairs(self):
        """0-based (landmark, measurement) pairs for re-detections."""
        return [(i, p - 1) for i, p in enumerate(self.sigma[:self.n_prior])
                if p and p > 0]

    def born_measurements(self):
        """0-based measurement indices that spawn a new landmark."""
        return [p - 1 for p in self.sigma[self.n_prior:] if p is not None]

    def validate(self) -> None:
        n_prior, sigma = self.n_prior, self.sigma
        n_meas = len(sigma) - n_prior
        seen = []
        for entry in sigma[:n_prior]:
            if entry is None or entry < 0 or entry > n_meas:
                raise ValueError(f"bad prior-slot entry {entry!r}")
            if entry > 0:
                seen.append(entry)
        for expected, entry in enumerate(sigma[n_prior:], 1):
            if entry is not None:
                if entry != expected:
                    raise ValueError(f"birth slot {n_prior + expected - 1} "
                                     f"must map to {expected}")
                seen.append(entry)
        if sorted(seen) != list(range(1, n_meas + 1)):
            raise ValueError("each measurement must appear exactly once")


@dataclass(frozen=True)
class AssociationContext:
    """Reusable per-hypothesis association statistics.

    Collected while building the cost matrix, each fact once, so the joint
    update and the local Bernoullis recompute nothing: the type predictions
    (their stacked ``hph`` stays in the cost matrix), each landmark's
    misdetection weight, each kept pair's detected masses and wrapped
    residuals, and each measurement's birth candidate.
    """

    type_preds: tuple        # per landmark: dict kind -> TypePrediction
    misdetection: tuple      # per landmark: misdetection_weight's triple
    pairs: dict              # (landmark, measurement) -> (masses, residuals)
    births: tuple            # per measurement: BirthCandidate


def build_cost_matrix(hypothesis: GlobalHypothesis, measurements,
                      sensor: GaussianComponent, ppp: dict,
                      clutter_intensity: float, model,
                      gate: Optional[float] = DEFAULT_GATE):
    """Assemble the assignment costs for one global hypothesis.

    Returns ``(CostMatrix, misdetect_log_sum, AssociationContext)`` where
    the second element, sum_i ln l^{i,0}, recovers unnormalized hypothesis
    weights from assignment costs.

    Each stage runs once, over one stack of rows: the geometry
    (:func:`linearize_types`), the type predictions and their ``hph``
    (:func:`predict_types`), the misdetection weights, the gated
    detections (:func:`_detections`), and the newborns (:func:`newborns`)
    with one :func:`weight_birth` call per measurement.  A stage where the
    landmark dimension enters takes one stack per dimension
    (:func:`_dimension_stacks`).

    Raises ValueError on non-finite input and LinAlgError when an
    innovation covariance is not positive definite; a newborn whose gain or
    information matrix is not positive definite is dropped instead.
    """
    berns = hypothesis.bernoullis
    n_prior, n_meas = len(berns), len(measurements)
    matrix = np.full((n_meas, n_prior + n_meas), np.inf)

    z_rows = np.array([meas.z for meas in measurements])
    geometry = linearize_types(berns, z_rows, sensor, ppp, model)
    type_preds, rows, z_pred, hph = predict_types(berns, sensor, geometry)
    misdetection = tuple(misdetection_weight(b, preds)
                         for b, preds in zip(berns, type_preds))
    log_l0 = [math.log(m[2]) for m in misdetection]
    pairs = {}
    births = ()
    if n_meas:
        r_stack = np.array([meas.covariance for meas in measurements])
        if rows:
            for i, p, log_l, masses, residuals in _detections(
                    berns, type_preds, rows, z_pred, hph, z_rows, r_stack,
                    model, gate):
                pairs[(i, p)] = masses, residuals
                matrix[p, i] = log_l0[i] - log_l
        births = tuple(weight_birth(terms, comps, clutter_intensity)
                       for terms, comps in newborns(geometry, ppp, z_rows,
                                                    r_stack, sensor, model))
        matrix[:, n_prior:][np.diag_indices(n_meas)] = [
            -cand.log_weight for cand in births]

    ctx = AssociationContext(type_preds=type_preds, misdetection=misdetection,
                             pairs=pairs, births=births)
    return CostMatrix(matrix, n_prior), sum_in_order(log_l0), ctx


def _detections(berns, type_preds, keys, z_pred, hph, z_rows, r_stack, model,
                gate):
    """``(landmark, measurement, ln l, masses, residuals)`` of every pair
    the gate keeps, landmark by landmark: its :func:`log_weight_detected`
    masses and its wrapped rows, kind -> row, the innovation of each type
    with a prediction, on which the joint update conditions that type.

    ``keys`` holds the ``(landmark, kind)`` of each type row with a
    prediction, a landmark's rows consecutive, and ``z_pred`` and ``hph``
    their stacked predictions and ``hph``.  One wrapped-residual array
    (rows, measurements, d) serves the bound, the densities and the rows.
    One pass takes each pair's marginal bound max_j v_j^2 / S_jj, which
    never exceeds v^T S^-1 v (a marginal's Mahalanobis distance is at most
    the joint one).  A landmark's candidates are the measurements that
    some row of it puts inside the gate, with a relative margin of 1e-9
    that absorbs rounding; only their (pair, contributing type) rows reach
    :func:`chol_logpdf`, in one call.  The gate on the full distance then
    keeps or drops exactly the pairs it would without the bound.  A NaN
    bound compares False and is kept.  A type that cannot contribute (zero
    detection probability or weight) only adds pairs whose contributing
    types all lie beyond the gate, which the full distance drops, and a
    landmark with existence 0 has ln l = -inf, so its cells stay +inf.
    """
    residuals = model.wrap_residual(z_rows - z_pred[:, None, :])
    starts = [j for j, (i, _) in enumerate(keys)
              if j == 0 or keys[j - 1][0] != i]
    if gate is None:
        inside = [[True] * len(z_rows)] * len(starts)
    else:
        s_diag = (hph.diagonal(axis1=1, axis2=2)[:, None, :]
                  + r_stack.diagonal(axis1=1, axis2=2))
        kept = ~((residuals * residuals / s_diag).max(axis=2)
                 > gate * (1.0 + 1e-9))
        inside = np.logical_or.reduceat(kept, starts).tolist()
    # Per landmark: its rows, its contributing rows and its candidates.
    groups = []
    for start, end, flags in zip(starts, starts[1:] + [len(keys)], inside):
        i = keys[start][0]
        types, preds = berns[i].belief.types, type_preds[i]
        groups.append((i, range(start, end),
                       [j for j in range(start, end)
                        if preds[keys[j][1]].p_detect > 0.0
                        and types[keys[j][1]].weight > 0.0],
                       [p for p, flag in enumerate(flags) if flag]))
    stack = [(j, p) for _, _, contributing, candidates in groups
             for p in candidates for j in contributing]
    if not stack:
        return
    js, ps = (list(index) for index in zip(*stack))
    densities = iter(zip(*chol_logpdf(residuals[js, ps],
                                      hph[js] + r_stack[ps])))
    for i, rows, contributing, candidates in groups:
        for p in candidates:
            log_l, masses, mahal = log_weight_detected(
                berns[i], type_preds[i],
                {keys[j][1]: next(densities) for j in contributing})
            if log_l == -math.inf or (gate is not None and mahal > gate):
                continue
            yield i, p, log_l, masses, {keys[j][1]: residuals[j, p]
                                        for j in rows}


def _solve_assignment(matrix: np.ndarray):
    """Optimal assignment or None when infeasible; deterministic."""
    if matrix.shape[0] > matrix.shape[1]:
        return None     # the solver would leave rows unassigned
    try:
        rows, cols = linear_sum_assignment(matrix)
    except ValueError:
        return None
    cost = float(matrix[rows, cols].sum())
    if not math.isfinite(cost):
        return None
    assignment = np.empty(matrix.shape[0], dtype=int)
    assignment[rows] = cols
    return assignment, cost


def _sigma_from_assignment(assignment, n_prior: int,
                           n_meas: int) -> AssociationVector:
    """Association vector of an assignment, one column index per row."""
    sigma = [0] * n_prior + [None] * n_meas
    for r, c in enumerate(assignment):
        if c < n_prior:
            sigma[c] = r + 1
        else:
            # Birth block: the diagonal structure ties column to row.
            sigma[n_prior + r] = r + 1
    return AssociationVector(n_prior, tuple(sigma))


def _murty(matrix: np.ndarray):
    """Murty's ranked assignments of ``matrix``, best first, on demand.

    Yields ``(assignment, cost)`` by nondecreasing cost, where the
    assignment is a list of one column per row and the cost is the
    row-order sum ``_solve_assignment`` takes; ties are resolved by
    expansion order, which is deterministic.  A solution is partitioned
    only when the next one is asked for.  Raises InfeasibleAssignmentError
    when no assignment is feasible.

    Child ``r`` of a popped solution forbids its cell in row ``r`` and
    forces its cells in the rows above, so row ``r`` can only take a finite
    cell at a column that no row ``<= r`` of the solution claims, while
    every later row keeps its own cell.  One array test finds the children
    whose row ``r`` has no such cell.  Such a child is dead: it is skipped
    before any copy or solve, where solving it would only have failed, so
    the heap and its tie counter see what they would without the skip.
    The popped matrix is copied once into the partition, which forces each
    pair in place up to the last live child.
    """
    first = _solve_assignment(matrix)
    if first is None:
        raise InfeasibleAssignmentError("no feasible assignment exists")
    n_rows, n_cols = matrix.shape
    rows = np.arange(n_rows)
    counter = 0
    heap = [(first[1], counter, matrix, first[0])]
    while heap:
        cost, _, matrix, assignment = heapq.heappop(heap)
        yield assignment.tolist(), float(cost)
        # rank[c]: the row that claims column c, n_rows for a free column.
        rank = np.full(n_cols, n_rows)
        rank[assignment] = rows
        alive = (np.isfinite(matrix)
                 & (rank > rows[:, None])).any(axis=1).tolist()
        if True not in alive:
            continue
        last = n_rows - 1 - alive[::-1].index(True)
        # Partition: child r forbids pair r and forces pairs < r.
        partition = matrix.copy()
        for r, c in enumerate(assignment[:last + 1].tolist()):
            if alive[r]:
                child = partition.copy()
                child[r, c] = np.inf
                solved = _solve_assignment(child)
                if solved is not None:
                    counter += 1
                    heapq.heappush(heap, (solved[1], counter, child,
                                          solved[0]))
            if r < last:
                # Force (r, c) for the later children.
                forced_value = partition[r, c]
                partition[r, :] = np.inf
                partition[:, c] = np.inf
                partition[r, c] = forced_value


#: Costs ranked closer than this share of the matrix's cost scale, rows
#: times its largest finite |cost|, count as tied (see :func:`murty_kbest`).
TIE_MARGIN = 1e-9


def _row_ranking(matrix: np.ndarray, finite: np.ndarray, k: int):
    """The ``k`` best ``(assignment, cost)`` pairs of a matrix whose rows
    share no finite column, merged from each row's sorted cells, or None
    when two consecutive costs lie within the tie floor.  ``finite`` masks
    the finite cells; every row needs one, and no cell may be NaN or -inf.
    """
    row_index = np.arange(matrix.shape[0])
    order = np.argsort(matrix, axis=1, kind="stable")[:, :k]
    sorted_costs = matrix[row_index[:, None], order]
    n_options = np.count_nonzero(sorted_costs < math.inf, axis=1).tolist()
    costs = sorted_costs.tolist()
    movable = [r for r, n in enumerate(n_options) if n > 1]
    # (cost above the best, tie counter, option index per row, last movable
    # row advanced).  A successor advances a movable row at or after the
    # last one advanced, so each index vector is reached once.
    heap = [(0.0, 0, [0] * len(n_options), 0)]
    counter = 0
    ranked = []
    while heap:
        above, _, index, last = heapq.heappop(heap)
        ranked.append(index)
        if len(ranked) == k:
            break
        for j in range(last, len(movable)):
            r = movable[j]
            i = index[r] + 1
            if i < n_options[r]:
                child = index.copy()
                child[r] = i
                counter += 1
                heapq.heappush(heap, (above + (costs[r][i] - costs[r][i - 1]),
                                      counter, child, j))
    assignments = order[row_index, np.array(ranked)]
    # The cost _solve_assignment takes, the full-matrix row-order sum: a
    # C-ordered 2-D sum along its rows gives each row its 1-D sum's bits.
    keys = matrix[row_index, assignments].sum(axis=1).tolist()
    if len(keys) > 1:
        top = np.abs(matrix).max(where=finite, initial=0.0)
        floor = TIE_MARGIN * matrix.shape[0] * float(top)
        if any(not b - a > floor for a, b in zip(keys, keys[1:])):
            return None
    return list(zip(assignments.tolist(), keys))


def murty_kbest(costs: CostMatrix, gamma: int):
    """Ranked ``gamma``-best data associations by nondecreasing total cost.

    The result is Murty's ranking of the whole matrix (:func:`_murty`):
    the same associations in the same order with the same cost bits, and
    the same errors.  At ``gamma`` 1 it is one optimal-assignment solve,
    since Murty partitions a solution only when the next is asked for.

    Above ``gamma`` 1 one kind of matrix is ranked without Murty.  Rows
    interact only through columns that more than one of them can take; in
    the filter's matrices those are prior-landmark columns, since a birth
    column is finite in its own row only.  When no column is finite in two
    rows, an association is one independent choice of cell per row and its
    cost is the sum of theirs, so :func:`_row_ranking` merges the rows'
    sorted cells with a heap over index vectors and pops the ``gamma + 1``
    best.  Each gets the cost ``_solve_assignment`` gives it, the
    full-matrix row-order sum.  The merge's order and Murty's can differ
    only between costs that are tied or within rounding of each other:
    rounding a sum of n costs errs by at most about n * 1.1e-16 times the
    cost scale (rows times the largest finite |cost|), and Murty's
    optimal-assignment solves by the same order.  So when each cost
    exceeds the one before by more than ``TIE_MARGIN`` (1e-9) times the
    scale, the ``gamma`` best agree with Murty's, in the same order; the
    extra candidate tells whether the ``gamma``-th is tied with the next,
    which decides which of two tied associations Murty ranks ``gamma``-th.

    Everything else goes to Murty: a column finite in two rows, costs
    within the margin, exact ties included, and row minima whose sum
    overflows.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    matrix = costs.matrix
    n_meas = matrix.shape[0]
    n_prior = costs.n_prior
    if n_meas == 0:
        return [(AssociationVector(n_prior, (0,) * n_prior), 0.0)]
    mins = matrix.min(axis=1)
    ranked = None
    if math.isfinite(float(mins.sum())):
        finite = matrix < math.inf
        if gamma > 1 and finite.sum(axis=0).max() < 2:
            ranked = _row_ranking(matrix, finite, gamma + 1)
    elif not np.isfinite(mins).all():
        # A row without a finite cell, or a NaN or -inf cell; else the sum
        # overflowed, and Murty ranks the matrix.
        raise InfeasibleAssignmentError("a measurement row has no finite cost")
    return [(_sigma_from_assignment(a, n_prior, n_meas), cost)
            for a, cost in islice(ranked or _murty(matrix), gamma)]
