"""Data association: local weights, cost matrix, ranked k-best assignment.

Each previously detected landmark can be detected again, misdetected, or a
measurement can start a new landmark (or be clutter).  Each of the three
local weights has one implementation here -- :func:`log_weight_detected`,
:func:`misdetection_weight` and :func:`weight_birth` (with the newborn
Gaussian from :func:`birth_from_measurement`) -- which the cost matrix and
the joint update both use.  Each weight is a sum over landmark types, and a
type's posterior probability is its term normalized: all three weights
return their per-type masses (a birth's are its per-type rates), which
:func:`update_type_probs` normalizes.  The resulting assignment problem is
solved for the best ``gamma`` associations per global hypothesis by
Murty's ranked partitioning on top of an optimal-assignment kernel
(scipy's Jonker-Volgenant-style solver), in negative-log-weight (cost)
domain.  :func:`murty_kbest` returns Murty's ranking bit for bit; above
``gamma`` 1, when no two rows share a finite column, it merges the rows'
sorted cells instead, unless two costs lie within a margin far above
rounding.
"""

from __future__ import annotations

import heapq
import math
import warnings
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
    symmetrize,
)
from .geometry import MAX_P_DETECT, DegenerateGeometryError, LandmarkType

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


def chol_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix.

    The LAPACK call ``scipy.linalg.cho_factor(a, lower=True)`` makes, without
    its wrapper's per-call overhead, so the factor is bit-identical to
    ``cho_factor(a, lower=True)[0]`` (the strict upper triangle keeps ``a``).
    Raises ValueError on non-finite input and LinAlgError when ``a`` is not
    positive definite.
    """
    if not _all_finite(a):
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
    if not (_all_finite(factor) and _all_finite(b)):
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
    logdet = 2.0 * float(np.log(factor.diagonal()).sum())
    k = residual.size
    return -0.5 * (k * LOG_2PI + logdet + mahal), mahal


@dataclass(frozen=True)
class TypePrediction:
    """Per-type predicted measurement and its sensor+landmark covariance part."""

    p_detect: float
    z_pred: Optional[np.ndarray]   # None: degenerate geometry or p_detect 0
    hph: Optional[np.ndarray]      # H blkdiag(P, C) H^T (without R)
    H_s: Optional[np.ndarray] = None
    H_x: Optional[np.ndarray] = None


def predict_types(bern: Bernoulli, sensor: GaussianComponent, model) -> dict:
    """Predicted measurement statistics for every type of a Bernoulli, from
    one ``model.linearize`` call per type.  A type the sensor cannot see
    keeps its detection probability and has no prediction."""
    preds = {}
    for kind, comp in bern.belief.types.items():
        try:
            pd, z_pred, H_s, H_x = model.linearize(sensor.mean, comp.mean,
                                                   kind)
        except DegenerateGeometryError:
            preds[kind] = TypePrediction(0.0, None, None)
            continue
        if z_pred is None:
            preds[kind] = TypePrediction(pd, None, None)
            continue
        hph = H_s @ sensor.covariance @ H_s.T + H_x @ comp.covariance @ H_x.T
        preds[kind] = TypePrediction(pd, z_pred, hph, H_s, H_x)
    return preds


def residual_blocks(bern: Bernoulli, preds: dict, z, model) -> dict:
    """Wrapped residuals ``z - h`` of every type that has a prediction.

    ``z`` is one measurement vector or a stack of them, one per row; each
    block has the shape of ``z``, and its row for a measurement has the bits
    of wrapping that pair alone (subtraction and the wrap are element-wise).
    """
    return {kind: model.wrap_residual(z - preds[kind].z_pred)
            for kind in bern.belief.types
            if preds[kind].z_pred is not None}


def log_weight_detected(bern: Bernoulli, meas, preds: dict, residuals: dict):
    """Local weight for "detected again", in log domain, for one pair.

    ``residuals`` maps each type with a prediction to the pair's wrapped
    residual (one row of :func:`residual_blocks`).  A type contributes when
    its detection probability and weight are positive as well.  Returns
    ``(ln l, masses, mahal)`` with l = r sum_type psi pd N(z; h, S).  A
    contributing type's mass is its term over the largest one,
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
    for kind, v in residuals.items():
        pred = preds[kind]
        if not (pred.p_detect > 0.0 and types[kind].weight > 0.0):
            continue
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


#: Read-only identity for the newborn covariance of a 3-D landmark, the
#: landmark of every channel model; ``dpotrs`` solves into a copy.
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def birth_from_measurement(meas, sensor: GaussianComponent,
                           kind: LandmarkType, model):
    """Newborn landmark Gaussian from a single measurement.

    Mean by geometric inversion at the sensor mean; covariance from the
    infinite-prior EK update, i.e. the inverse Fisher-style form
    (Hx^T (Hs P Hs^T + R)^-1 Hx)^-1.  Returns ``(component, prediction)``:
    the :class:`TypePrediction` of the newborn at its own mean, from one
    ``linearize`` call, with hph = Hs P Hs^T + Hx C Hx^T.  Returns None when
    the measurement does not determine a position, the newborn's geometry
    is degenerate, or the sensor cannot see it (detection probability 0);
    the caller then treats the measurement as clutter-only for this type.
    """
    mean = model.invert(meas.z, sensor.mean, kind)
    if mean is None:
        return None
    try:
        pd, z_pred, H_s, H_x = model.linearize(sensor.mean, mean, kind)
    except DegenerateGeometryError:
        return None
    if pd <= 0.0:
        return None
    hph_s = H_s @ sensor.covariance @ H_s.T
    gain_cov = hph_s + meas.covariance
    try:
        info = H_x.T @ chol_solve(chol_factor(gain_cov), H_x)
        n = info.shape[0]
        cov = chol_solve(chol_factor(info), _EYE3 if n == 3 else np.eye(n))
    except np.linalg.LinAlgError:
        return None
    component = GaussianComponent(mean, symmetrize(cov))
    hph = hph_s + H_x @ component.covariance @ H_x.T
    return component, TypePrediction(pd, z_pred, hph, H_s, H_x)


@dataclass(frozen=True)
class BirthCandidate:
    """Everything needed to append a newborn Bernoulli for one measurement."""

    log_weight: float          # ln l_B = ln(clutter + sum_type rho)
    existence: float           # rho_B / l_B
    masses: dict               # LandmarkType -> rho; {} when sum_type rho <= 0
    comps: dict                # LandmarkType -> newborn GaussianComponent


def weight_birth(meas, sensor: GaussianComponent, ppp: dict,
                 clutter_intensity: float, model):
    """Local weight for "detected for the first time" plus birth data.

    Returns the :class:`BirthCandidate`.  Every type with a positive PPP
    rate can be born, except the BS, which is known; a type's mass is its
    rate rho, so :func:`update_type_probs` gives each its share of
    sum_type rho (clutter never enters it).  Types without a newborn
    (:func:`birth_from_measurement` returns None) contribute nothing; when
    sum_type rho is not positive the measurement is clutter-only (weight
    floor ``clutter_intensity``) and the masses are empty.
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
        component, pred = birth
        v = model.wrap_residual(meas.z - pred.z_pred)
        loglik, _ = chol_logpdf(v, pred.hph + meas.covariance)
        rho[kind] = rate * pred.p_detect * math.exp(loglik)
        comps[kind] = component
    rho_total = sum(rho.values())
    weight = clutter_intensity + rho_total
    existence = rho_total / weight if weight > 0.0 else 0.0
    log_weight = math.log(weight) if weight > 0.0 else -math.inf
    return BirthCandidate(log_weight, existence,
                          rho if rho_total > 0.0 else {}, comps)


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

    Per landmark and type with a prediction, one array pass wraps the
    residuals against every measurement and takes each pair's marginal
    bound max_j v_j^2 / S_jj, which never exceeds v^T S^-1 v (a marginal's
    Mahalanobis distance is at most the joint one).  Only a pair that some
    type puts inside the gate, with a relative margin of 1e-9 that absorbs
    rounding, reaches :func:`log_weight_detected` and its factorizations;
    the gate on the full distance then keeps or drops exactly the pairs it
    would without the bound.  A NaN bound compares False and is kept.  A
    type that cannot contribute (zero detection probability or weight)
    only adds pairs whose contributing types all lie beyond the gate, which
    the full distance drops.  The wrapped rows of a kept pair are its
    ``pair_residuals``: the innovation of every type the joint update
    stacks.
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
