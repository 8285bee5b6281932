"""Data association: local weights, cost matrix, ranked k-best assignment.

Each previously detected landmark can be detected again, misdetected, or a
measurement can start a new landmark (or be clutter).  Each of the three
local weights has one implementation here -- :func:`log_weight_detected`,
:func:`misdetection_weight` and :func:`weight_birth` (with the newborn
Gaussian from :func:`birth_from_measurement`) -- which the cost matrix and
the joint update both use.  Each weight is a sum over landmark types, and a
type's posterior probability is its term normalized: the weights return
their per-type masses, which :func:`update_type_probs` normalizes.  The
resulting assignment problem is solved for the best ``gamma`` associations
per global hypothesis by Murty's ranked partitioning on top of an
optimal-assignment kernel (scipy's Jonker-Volgenant-style solver), in
negative-log-weight (cost) domain.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import linear_sum_assignment

from .density import (
    Bernoulli,
    GaussianComponent,
    GlobalHypothesis,
    TypeComponent,
    symmetrize,
)
from .geometry import MAX_P_DETECT, DegenerateGeometryError, LandmarkType

LOG_2PI = math.log(2.0 * math.pi)

#: Default ellipsoidal gate on squared Mahalanobis innovation distance.
DEFAULT_GATE = 30.0


class InfeasibleAssignmentError(ValueError):
    """A measurement row admits no finite-cost assignment."""


def chol_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    The LAPACK call ``scipy.linalg.cho_factor(a, lower=True)`` makes, without
    its wrapper's per-call overhead, so the factor is bit-identical to
    ``cho_factor(a, lower=True)[0]`` (the strict upper triangle keeps ``a``).
    Raises ValueError on non-finite input and LinAlgError when ``a`` is not
    positive definite.
    """
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    factor, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return factor


def chol_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` from the :func:`chol_factor` factor of ``a``.

    Bit-identical to ``scipy.linalg.cho_solve((factor, True), b)``; raises
    ValueError when either operand is not finite.
    """
    if not (np.isfinite(factor).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    x, info = dpotrs(factor, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def chol_logpdf(residual: np.ndarray, cov: np.ndarray) -> tuple[float, float]:
    """(log Gaussian density, squared Mahalanobis) of a residual.

    Raises LinAlgError with context when the covariance is not positive
    definite.
    """
    try:
        factor = chol_factor(cov)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"singular innovation covariance ({cov.shape[0]}x{cov.shape[0]}): {exc}"
        ) from exc
    mahal = float(residual @ chol_solve(factor, residual))
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
    k = residual.size
    return -0.5 * (k * LOG_2PI + logdet + mahal), mahal


@dataclass(frozen=True)
class TypePrediction:
    """Per-type predicted measurement and its sensor+landmark covariance part."""

    p_detect: float
    z_pred: Optional[np.ndarray]   # None when the geometry is degenerate
    hph: Optional[np.ndarray]      # H blkdiag(P, C) H^T (without R)
    H_s: Optional[np.ndarray] = None
    H_x: Optional[np.ndarray] = None


def predict_types(bern: Bernoulli, sensor: GaussianComponent, model) -> dict:
    """Predicted measurement statistics for every type of a Bernoulli."""
    preds = {}
    for kind, comp in bern.belief.types.items():
        pd = model.detection_probability(sensor.mean, comp.mean, kind)
        try:
            z_pred = model.predict(sensor.mean, comp.mean, kind)
            H_s, H_x = model.jacobians(sensor.mean, comp.mean, kind)
        except DegenerateGeometryError:
            preds[kind] = TypePrediction(0.0, None, None)
            continue
        hph = H_s @ sensor.covariance @ H_s.T + H_x @ comp.covariance @ H_x.T
        preds[kind] = TypePrediction(pd, z_pred, hph, H_s, H_x)
    return preds


def residual_blocks(bern: Bernoulli, preds: dict, z, model) -> dict:
    """Wrapped residuals ``z - h`` of every type that can explain a detection.

    A type contributes when its detection probability and weight are
    positive and its geometry is valid.  ``z`` is one measurement vector or
    a stack of them, one per row; each block has the shape of ``z``, and
    its row for a measurement has the bits of wrapping that pair alone
    (subtraction and the wrap are element-wise).
    """
    blocks = {}
    for kind, comp in bern.belief.types.items():
        pred = preds[kind]
        if (pred.p_detect > 0.0 and comp.weight > 0.0
                and pred.z_pred is not None):
            blocks[kind] = model.wrap_residual(z - pred.z_pred)
    return blocks


def log_weight_detected(bern: Bernoulli, meas, preds: dict, residuals: dict):
    """Local weight for "detected again", in log domain, for one pair.

    ``residuals`` maps each contributing type to the pair's wrapped
    residual (one row of :func:`residual_blocks`).  Returns ``(ln l,
    masses, mahal)`` with l = r sum_type psi pd N(z; h, S).  A contributing
    type's mass is its term over the largest one, exp(ln(psi pd N) - peak),
    and every other type of the belief has mass 0.0; mahal is the smallest
    squared Mahalanobis distance over the types (the caller gates on it).
    With no contributing type, or zero existence, ln l is -inf and the
    masses are empty.
    """
    best_mahal = math.inf
    if bern.existence <= 0.0:
        return -math.inf, {}, best_mahal
    terms = {}
    types = bern.belief.types
    for kind, v in residuals.items():
        pred = preds[kind]
        loglik, mahal = chol_logpdf(v, pred.hph + meas.covariance)
        best_mahal = min(best_mahal, mahal)
        terms[kind] = (math.log(types[kind].weight) + math.log(pred.p_detect)
                       + loglik)
    peak = max(terms.values(), default=-math.inf)
    if not math.isfinite(peak):
        return -math.inf, {}, best_mahal
    masses = {k: math.exp(terms[k] - peak) if k in terms else 0.0
              for k in types}
    log_l = peak + math.log(sum(masses.values()))
    return math.log(bern.existence) + log_l, masses, best_mahal


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
    survive = sum(masses.values())
    return masses, survive, (1.0 - bern.existence) + bern.existence * survive


def update_type_probs(masses: dict) -> dict:
    """Posterior type probabilities: per-type masses normalized to one.

    All-zero (or non-finite) mass falls back to uniform, with a
    RuntimeWarning.
    """
    total = sum(masses.values())
    if total <= 0.0 or not math.isfinite(total):
        warnings.warn("all-zero type-probability mass; falling back to uniform",
                      RuntimeWarning, stacklevel=2)
        return {k: 1.0 / len(masses) for k in masses}
    return {k: v / total for k, v in masses.items()}


def birth_from_measurement(meas, sensor: GaussianComponent,
                           kind: LandmarkType, model):
    """Newborn landmark Gaussian from a single measurement.

    Mean by geometric inversion at the sensor mean; covariance from the
    infinite-prior EK update, i.e. the inverse Fisher-style form
    (Hx^T (Hs P Hs^T + R)^-1 Hx)^-1.  Returns ``(component, H_x, hph_s)``
    with the landmark Jacobian and the sensor part Hs P Hs^T, both at the
    newborn mean, or None when the measurement does not determine a
    position (caller treats it as clutter-only).
    """
    mean = model.invert(meas.z, sensor.mean, kind)
    if mean is None:
        return None
    try:
        H_s, H_x = model.jacobians(sensor.mean, mean, kind)
    except DegenerateGeometryError:
        return None
    hph_s = H_s @ sensor.covariance @ H_s.T
    gain_cov = hph_s + meas.covariance
    try:
        info = H_x.T @ chol_solve(chol_factor(gain_cov), H_x)
        cov = chol_solve(chol_factor(info), np.eye(info.shape[0]))
    except np.linalg.LinAlgError:
        return None
    component = GaussianComponent(np.asarray(mean, dtype=float),
                                  symmetrize(cov))
    return component, H_x, hph_s


@dataclass(frozen=True)
class BirthCandidate:
    """Everything needed to append a newborn Bernoulli for one measurement."""

    log_weight: float          # ln l_B = ln(clutter + sum_type rho)
    existence: float           # rho_B / l_B
    types: dict                # LandmarkType -> TypeComponent (psi_B, mean, cov)


def weight_birth(meas, sensor: GaussianComponent, ppp: dict,
                 clutter_intensity: float, model):
    """Local weight for "detected for the first time" plus birth data.

    Returns the :class:`BirthCandidate`.  Every type with a positive PPP
    rate can be born, except the BS, which is known; a newborn type's
    probability is its share of sum_type rho (clutter never enters it).
    Types whose geometric inversion fails contribute nothing; when no type
    survives the measurement is clutter-only (weight floor
    ``clutter_intensity``).
    """
    if clutter_intensity < 0.0:
        raise ValueError("clutter intensity must be nonnegative")
    rho = {}
    comps = {}
    for kind, rate in ppp.items():
        if rate <= 0.0 or kind is LandmarkType.BS:
            continue
        birth = birth_from_measurement(meas, sensor, kind, model)
        if birth is None:
            continue
        component, H_x, hph_s = birth
        pd = model.detection_probability(sensor.mean, component.mean, kind)
        if pd <= 0.0:
            continue
        try:
            z_pred = model.predict(sensor.mean, component.mean, kind)
        except DegenerateGeometryError:
            continue
        S = hph_s + H_x @ component.covariance @ H_x.T + meas.covariance
        v = model.wrap_residual(meas.z - z_pred)
        loglik, _ = chol_logpdf(v, S)
        rho[kind] = rate * pd * math.exp(loglik)
        comps[kind] = component
    rho_total = sum(rho.values())
    weight = clutter_intensity + rho_total
    types = {}
    if rho_total > 0.0:
        types = {k: TypeComponent(r / rho_total, comps[k].mean,
                                  comps[k].covariance) for k, r in rho.items()}
    existence = rho_total / weight if weight > 0.0 else 0.0
    log_weight = math.log(weight) if weight > 0.0 else -math.inf
    return BirthCandidate(log_weight, existence, types)


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

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))

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
        seen = []
        for t, entry in enumerate(self.sigma):
            if t < self.n_prior:
                if entry is None or entry < 0 or entry > self.n_meas:
                    raise ValueError(f"bad prior-slot entry {entry!r}")
                if entry > 0:
                    seen.append(entry)
            else:
                expected = t - self.n_prior + 1
                if entry is not None and entry != expected:
                    raise ValueError(f"birth slot {t} must map to {expected}")
                if entry is not None:
                    seen.append(entry)
        if sorted(seen) != list(range(1, self.n_meas + 1)):
            raise ValueError("each measurement must appear exactly once")


@dataclass(frozen=True)
class AssociationContext:
    """Reusable per-hypothesis association statistics.

    Collected while building the cost matrix so the joint update and the
    type-probability updates do not recompute predictions.
    """

    type_preds: tuple        # per landmark: dict kind -> TypePrediction
    misdetection: tuple      # per landmark: misdetection_weight's triple
    pair_masses: dict        # (landmark, measurement) -> dict kind -> mass
    pair_residuals: dict     # (landmark, measurement) -> dict kind -> residual
    births: tuple            # per measurement: BirthCandidate


def build_cost_matrix(hypothesis: GlobalHypothesis, measurements,
                      sensor: GaussianComponent, ppp: dict,
                      clutter_intensity: float, model,
                      gate: Optional[float] = DEFAULT_GATE):
    """Assemble the assignment costs for one global hypothesis.

    Returns ``(CostMatrix, misdetect_log_sum, AssociationContext)`` where
    the second element, sum_i ln l^{i,0}, recovers unnormalized hypothesis
    weights from assignment costs.

    Per landmark and contributing type, one array pass wraps the residuals
    against every measurement and takes each pair's marginal bound
    max_j v_j^2 / S_jj, which never exceeds v^T S^-1 v (a marginal's
    Mahalanobis distance is at most the joint one).  Only a pair that some
    type puts inside the gate, with a relative margin of 1e-9 that absorbs
    rounding, reaches :func:`log_weight_detected` and its factorizations;
    the gate on the full distance then keeps or drops exactly the pairs it
    would without the bound.  A NaN bound compares False and is kept.
    """
    berns = hypothesis.bernoullis
    n_prior, n_meas = len(berns), len(measurements)
    matrix = np.full((n_meas, n_prior + n_meas), np.inf)

    type_preds = tuple(predict_types(b, sensor, model) for b in berns)
    misdetection = tuple(misdetection_weight(b, preds)
                         for b, preds in zip(berns, type_preds))
    misdetect_log_sum = 0.0
    pair_masses = {}
    pair_residuals = {}
    limit = None if gate is None else gate * (1.0 + 1e-9)
    if n_meas:
        z_rows = np.array([meas.z for meas in measurements])
        r_diag = np.array([meas.covariance.diagonal()
                           for meas in measurements])
    for i, bern in enumerate(berns):
        log_l0 = math.log(misdetection[i][2])
        misdetect_log_sum += log_l0
        if not n_meas or bern.existence <= 0.0:
            continue
        preds = type_preds[i]
        blocks = residual_blocks(bern, preds, z_rows, model)
        if gate is None:
            candidates = range(n_meas)
        else:
            inside = np.zeros(n_meas, dtype=bool)
            for kind, block in blocks.items():
                s_diag = preds[kind].hph.diagonal() + r_diag
                inside |= ~((block * block / s_diag).max(axis=1) > limit)
            candidates = np.flatnonzero(inside).tolist()
        for p in candidates:
            rows = {kind: block[p] for kind, block in blocks.items()}
            log_l, masses, mahal = log_weight_detected(
                bern, measurements[p], preds, rows)
            if log_l == -math.inf or (gate is not None and mahal > gate):
                continue
            pair_masses[(i, p)] = masses
            pair_residuals[(i, p)] = rows
            matrix[p, i] = log_l0 - log_l

    births = []
    for p, meas in enumerate(measurements):
        cand = weight_birth(meas, sensor, ppp, clutter_intensity, model)
        births.append(cand)
        matrix[p, n_prior + p] = -cand.log_weight

    ctx = AssociationContext(type_preds=type_preds, misdetection=misdetection,
                             pair_masses=pair_masses,
                             pair_residuals=pair_residuals,
                             births=tuple(births))
    return CostMatrix(matrix, n_prior), misdetect_log_sum, ctx


def _solve_assignment(matrix: np.ndarray):
    """Optimal assignment or None when infeasible; deterministic."""
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


def _sigma_from_assignment(assignment: np.ndarray, n_prior: int,
                           n_meas: int) -> AssociationVector:
    sigma = [0] * n_prior + [None] * n_meas
    for r in range(n_meas):
        c = int(assignment[r])
        if c < n_prior:
            sigma[c] = r + 1
        else:
            # Birth block: the diagonal structure ties column to row.
            sigma[n_prior + r] = r + 1
    return AssociationVector(n_prior, tuple(sigma))


def murty_kbest(costs: CostMatrix, gamma: int):
    """Ranked ``gamma``-best data associations by nondecreasing total cost.

    The first solution is the optimal assignment.  Ties are resolved by
    expansion order, which is deterministic.
    """
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    n_meas, n_cols = costs.matrix.shape
    n_prior = costs.n_prior
    if n_meas == 0:
        return [(AssociationVector(n_prior, (0,) * n_prior), 0.0)]
    if np.any(~np.isfinite(costs.matrix.min(axis=1))):
        raise InfeasibleAssignmentError("a measurement row has no finite cost")

    first = _solve_assignment(costs.matrix)
    if first is None:
        raise InfeasibleAssignmentError("no feasible assignment exists")

    counter = 0
    heap = []
    heapq.heappush(heap, (first[1], counter, costs.matrix, first[0]))
    results = []
    while heap and len(results) < gamma:
        cost, _, matrix, assignment = heapq.heappop(heap)
        results.append((_sigma_from_assignment(assignment, n_prior, n_meas),
                        float(cost)))
        # Partition: child k forbids assignment pair k and forces pairs < k.
        partition = matrix
        for r in range(n_meas):
            c = int(assignment[r])
            child = partition.copy()
            child[r, c] = np.inf
            solved = _solve_assignment(child)
            if solved is not None:
                counter += 1
                heapq.heappush(heap, (solved[1], counter, child, solved[0]))
            # Force (r, c) for subsequent children.
            partition = partition.copy()
            forced_value = partition[r, c]
            partition[r, :] = np.inf
            partition[:, c] = np.inf
            partition[r, c] = forced_value
    return results
