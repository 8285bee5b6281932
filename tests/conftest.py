"""Shared test helpers: linear toy measurement models, small builders, the
association kernels for one Bernoulli, pair or measurement, their per-row
references, and the density invariant check."""

import itertools
import math
import sys
from typing import NamedTuple, Optional

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from rfslam import association, cli
from rfslam.association import (
    BirthCandidate,
    build_cost_matrix,
    chol_logpdf,
    log_weight_detected,
)
from rfslam.density import (
    Bernoulli,
    GaussianComponent,
    GlobalHypothesis,
    LandmarkBelief,
    PmbmDensity,
    TypeComponent,
    sum_in_order,
    symmetrize,
)
from rfslam.geometry import (
    TYPE_ORDER,
    ChannelModel,
    DegenerateGeometryError,
    LandmarkType,
)


class LinearModel:
    """Linear toy measurement model: h(s, x) = A s + B x + c per type.

    Dimension-agnostic stand-in for the channel geometry, used to check the
    filter core against closed-form Gaussian conditioning.  As for every
    model, its landmark types share one dimension.
    """

    def __init__(self, mats, dim, p_detect=0.9):
        """mats: {LandmarkType: (A, B)} or {LandmarkType: (A, B, c)}."""
        self.mats = {}
        for kind, entry in mats.items():
            A = np.atleast_2d(np.asarray(entry[0], dtype=float))
            B = np.atleast_2d(np.asarray(entry[1], dtype=float))
            c = (np.asarray(entry[2], dtype=float) if len(entry) > 2
                 else np.zeros(A.shape[0]))
            self.mats[kind] = (A, B, c)
        self._dim = dim
        if not isinstance(p_detect, dict):
            p_detect = {k: p_detect for k in self.mats}
        self.p_detect = p_detect

    @property
    def dim(self):
        return self._dim

    def wrap_residual(self, v):
        return np.asarray(v, dtype=float)

    def predict(self, sensor_mean, lm_mean, kind):
        A, B, c = self.mats[kind]
        return A @ np.atleast_1d(sensor_mean) + B @ np.atleast_1d(lm_mean) + c

    def jacobians(self, sensor_mean, lm_mean, kind):
        A, B, _ = self.mats[kind]
        return A, B

    def detection_probability(self, sensor_mean, lm_mean, kind):
        return float(self.p_detect.get(kind, 0.0))

    def linearize(self, sensor_mean, positions, kinds):
        """``(p_detect, seen, z_pred, H_s, H_x)`` of a sequence of landmark
        means, one kind per row, each row from the three methods above; a
        row whose ``predict`` raises DegenerateGeometryError has p_detect 0
        and no prediction."""
        p_detect, seen, found = [], [], []
        for k, (x, kind) in enumerate(zip(positions, kinds)):
            try:
                z_pred = self.predict(sensor_mean, x, kind)
            except DegenerateGeometryError:
                p_detect.append(0.0)
                continue
            p_detect.append(self.detection_probability(sensor_mean, x, kind))
            seen.append(k)
            found.append((z_pred, *self.jacobians(sensor_mean, x, kind)))
        z_pred, H_s, H_x = (np.array([row[j] for row in found])
                            for j in range(3))
        return p_detect, seen, z_pred, H_s, H_x

    def invert(self, z_rows, sensor_mean, kinds):
        """``(rows, means)``: the ``(kind, measurement)`` of every
        measurement that determines a landmark mean by least squares, kind
        by kind, and those means."""
        rows, means = [], []
        for kind in kinds:
            A, B, c = self.mats[kind]
            for p, z in enumerate(z_rows):
                rhs = np.atleast_1d(z) - A @ np.atleast_1d(sensor_mean) - c
                sol, _, rank, _ = np.linalg.lstsq(B, rhs, rcond=None)
                if rank == B.shape[1]:
                    rows.append((kind, p))
                    means.append(sol)
        return rows, means


def linearize_one(model, sensor_mean, mean, kind):
    """One row of ``model.linearize``: ``(p_detect, z_pred, H_s, H_x)``,
    the last three None when the row has no prediction."""
    (pd,), seen, z_pred, H_s, H_x = model.linearize(
        sensor_mean, np.asarray(mean, dtype=float)[None], (kind,))
    return (pd, z_pred[0], H_s[0], H_x[0]) if seen else (pd, None, None, None)


def invert_one(model, z, sensor_mean, kind):
    """One row of ``model.invert``: the landmark mean, or None."""
    rows, means = model.invert(np.asarray(z, dtype=float)[None], sensor_mean,
                               (kind,))
    return means[0] if rows else None


class RowPrediction(NamedTuple):
    """A type's prediction with its own ``hph`` (H blkdiag(P, C) H^T,
    without R), as the per-row code held it.  The filter's
    ``TypePrediction`` has no ``hph``: the cost matrix keeps the stack."""

    p_detect: float
    z_pred: Optional[np.ndarray]
    hph: Optional[np.ndarray]
    H_s: Optional[np.ndarray]
    H_x: Optional[np.ndarray]


# The association kernels as the cost matrix runs them, for one Bernoulli,
# one pair or one measurement.  The cost matrix stacks a whole hypothesis;
# these take a stack of one.

def stacked_predict_types(berns, sensor, model):
    """``(preds, rows, z_pred, hph)`` of
    :func:`rfslam.association.predict_types` over the Bernoullis' one
    ``linearize`` call."""
    return association.predict_types(
        berns, sensor, association.linearize_types(berns, np.empty(0), sensor,
                                                   {}, model))


def predict_types(bern, sensor, model):
    """One Bernoulli's type predictions, each with its rows of the stacked
    ``z_pred`` and ``hph``, from :func:`rfslam.association.predict_types`
    of a hypothesis holding it."""
    (preds,), rows, z_pred, hph = stacked_predict_types((bern,), sensor,
                                                        model)
    stacked = ({kind: (z, s) for (_, kind), z, s in zip(rows, z_pred, hph)}
               if rows else {})
    return {kind: RowPrediction(pred.p_detect,
                                *stacked.get(kind, (None, None)),
                                pred.H_s, pred.H_x)
            for kind, pred in preds.items()}


def pair_densities(residuals: dict, covs: dict) -> dict:
    """kind -> ``(ln N, squared Mahalanobis)`` of each residual under its
    covariance, from one :func:`rfslam.association.chol_logpdf` call (none
    for no residual)."""
    if not residuals:
        return {}
    logliks, mahals = chol_logpdf(np.array(list(residuals.values())),
                                  np.array([covs[k] for k in residuals]))
    return dict(zip(residuals, zip(logliks, mahals)))


def detected_weight(bern, meas, preds, model):
    """:func:`rfslam.association.log_weight_detected` of one pair: each
    contributing type's residual wrapped by the model and its density taken
    in one ``chol_logpdf`` call, as the cost matrix takes them."""
    kinds = [k for k, c in bern.belief.types.items()
             if preds[k].z_pred is not None and preds[k].p_detect > 0.0
             and c.weight > 0.0]
    return log_weight_detected(bern, preds, pair_densities(
        {k: model.wrap_residual(meas.z - preds[k].z_pred) for k in kinds},
        {k: preds[k].hph + meas.covariance for k in kinds}))


def birth_candidate(meas, sensor, ppp, clutter_intensity, model):
    """The :class:`BirthCandidate` of one measurement, from the cost matrix
    of a hypothesis without landmarks."""
    _, _, ctx = build_cost_matrix(GlobalHypothesis(1.0, ()), [meas], sensor,
                                  ppp, clutter_intensity, model)
    return ctx.births[0]


def newborn(meas, sensor, kind, model):
    """``(component, prediction)`` of the newborn of ``kind`` that ``meas``
    starts, or None when it has none.

    The component is the cost matrix's (:func:`birth_candidate` at rate 1),
    and the prediction the one its birth density uses: this checks that the
    component has the bits of :func:`reference_birth_from_measurement` and
    that the birth mass has the bits of rate * pd * N(z; h, hph + R) from
    the reference prediction at the newborn mean.
    """
    cand = birth_candidate(meas, sensor, {kind: 1.0}, 0.0, model)
    comp = cand.comps.get(kind)
    want = reference_birth_from_measurement(meas, sensor, kind, model)
    assert (comp is None) == (want is None)
    if comp is None:
        return None
    want_comp, pred = want
    assert comp.mean.tobytes() == want_comp.mean.tobytes()
    assert comp.covariance.tobytes() == want_comp.covariance.tobytes()
    v = reference_wrap_residual(model, meas.z - pred.z_pred)
    loglik, _ = reference_chol_logpdf(v, pred.hph + meas.covariance)
    mass = 1.0 * pred.p_detect * math.exp(loglik)
    if mass > 0.0:
        assert cand.masses.get(kind, 0.0) == mass
    else:
        # The density underflowed: without clutter the weight is ln(pd N).
        assert cand.masses == {kind: 1.0}
        assert cand.log_weight == math.log(pred.p_detect) + loglik
    return comp, pred


# The per-row code the cost matrix stacks, kept as references: every
# stacked stage must give their bits.

def reference_chol_logpdf(residual, cov):
    """One residual's (log Gaussian density, squared Mahalanobis) through
    scipy's factor and solve, and the log-determinant through ``np.diag``
    and ``np.sum``."""
    factor = cho_factor(cov, lower=True)[0]
    mahal = float(residual @ cho_solve((factor, True), residual))
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor))))
    return -0.5 * (residual.size * association.LOG_2PI + logdet + mahal), mahal


def reference_wrap(a: float) -> float:
    """One angle wrapped to (-pi, pi] by the floored modulo, the scalar form
    the package's wrap is checked against."""
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def reference_wrap_residual(model, v):
    """``ChannelModel.wrap_residual`` one float at a time:
    :func:`reference_wrap` on every angle of every residual, in any
    shape."""
    if not isinstance(model, ChannelModel):
        return model.wrap_residual(v)
    v = np.array(v, dtype=float)
    for row in v.reshape(-1, v.shape[-1]):
        row[model.angle_components] = [
            reference_wrap(a) for a in row[model.angle_components].tolist()]
    return v


def reference_predict_types(bern, sensor, model):
    """Predicted measurement statistics of one Bernoulli, one type at a time
    with its own ``hph``."""
    preds = {}
    for kind, comp in bern.belief.types.items():
        pd, z_pred, H_s, H_x = linearize_one(model, sensor.mean, comp.mean,
                                             kind)
        if z_pred is None:
            preds[kind] = RowPrediction(pd, None, None, None, None)
            continue
        hph = H_s @ sensor.covariance @ H_s.T + H_x @ comp.covariance @ H_x.T
        preds[kind] = RowPrediction(pd, z_pred, hph, H_s, H_x)
    return preds


def reference_birth_from_measurement(meas, sensor, kind, model):
    """One newborn: ``(component, prediction at its mean)``, or None, with
    its own factorizations and a fresh identity."""
    mean = invert_one(model, meas.z, sensor.mean, kind)
    if mean is None:
        return None
    pd, z_pred, H_s, H_x = linearize_one(model, sensor.mean, mean, kind)
    if z_pred is None or pd <= 0.0:
        return None
    hph_s = H_s @ sensor.covariance @ H_s.T
    gain_cov = hph_s + meas.covariance
    try:
        info = H_x.T @ cho_solve((cho_factor(gain_cov, lower=True)[0], True),
                                 H_x)
        cov = cho_solve((cho_factor(info, lower=True)[0], True),
                        np.eye(info.shape[0]))
    except np.linalg.LinAlgError:
        return None
    component = GaussianComponent(np.asarray(mean, dtype=float),
                                  0.5 * (cov + cov.T))
    hph = hph_s + H_x @ component.covariance @ H_x.T
    return component, RowPrediction(pd, z_pred, hph, H_s, H_x)


def reference_birth_candidate(meas, sensor, ppp, clutter_intensity, model):
    """One measurement's :class:`BirthCandidate` from the per-row newborns,
    wrap and density."""
    rho, comps = {}, {}
    for kind, rate in ppp.items():
        if rate <= 0.0 or kind is LandmarkType.BS:
            continue
        birth = reference_birth_from_measurement(meas, sensor, kind, model)
        if birth is None:
            continue
        component, pred = birth
        v = reference_wrap_residual(model, meas.z - pred.z_pred)
        loglik, _ = reference_chol_logpdf(v, pred.hph + meas.covariance)
        rho[kind] = rate * pred.p_detect * math.exp(loglik)
        comps[kind] = component
    rho_total = sum_in_order(rho.values())
    weight = clutter_intensity + rho_total
    return BirthCandidate(math.log(weight) if weight > 0.0 else -math.inf,
                          rho_total / weight if weight > 0.0 else 0.0,
                          rho if rho_total > 0.0 else {}, comps)


def single_type_bernoulli(r, kind, mean, cov):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return Bernoulli(r, LandmarkBelief({kind: TypeComponent(1.0, mean, cov)}))


def enumerate_associations(n_prior, n_meas):
    """All valid sigma vectors: measurements to distinct priors or own birth."""
    options = []
    for p in range(n_meas):
        options.append(list(range(n_prior)) + [f"birth{p}"])
    for combo in itertools.product(*options):
        taken = [c for c in combo if not isinstance(c, str)]
        if len(taken) != len(set(taken)):
            continue
        sigma = [0] * n_prior + [None] * n_meas
        for p, c in enumerate(combo):
            if isinstance(c, str):
                sigma[n_prior + p] = p + 1
            else:
                sigma[c] = p + 1
        yield tuple(sigma)


def assignment_cost(matrix, sigma, n_prior):
    cost = 0.0
    for t, entry in enumerate(sigma):
        if t < n_prior:
            if entry:
                cost += matrix[entry - 1, t]
        elif entry is not None:
            cost += matrix[entry - 1, n_prior + entry - 1]
    return cost


def in_type_order(types: dict) -> bool:
    """Whether a per-type dict iterates in ``TYPE_ORDER``."""
    return list(types) == [k for k in TYPE_ORDER if k in types]


def check_density(density: PmbmDensity, tol: float = 1e-9) -> None:
    """Raise AssertionError when a structural invariant is violated,
    including the container contract the constructors do not enforce:
    tuples of hypotheses and Bernoullis, per-type dicts in ``TYPE_ORDER``
    and float64 ndarray means and covariances of matching shape, every type
    component of the density of one dimension."""
    assert type(density.hypotheses) is tuple, "hypotheses must be a tuple"
    assert in_type_order(density.ppp_intensity), "PPP rates out of type order"
    weights = [h.weight for h in density.hypotheses]
    assert abs(sum(weights) - 1.0) <= tol, "hypothesis weights must sum to 1"
    for rate in density.ppp_intensity.values():
        assert rate >= 0.0, "PPP intensity must be nonnegative"
    dims = {comp.mean.shape for hyp in density.hypotheses
            for bern in hyp.bernoullis
            for comp in bern.belief.types.values()}
    assert len(dims) <= 1, f"type components of dimensions {sorted(dims)}"
    for hyp in density.hypotheses:
        assert type(hyp.bernoullis) is tuple, "bernoullis must be a tuple"
        for bern in hyp.bernoullis:
            assert -tol <= bern.existence <= 1.0 + tol, "existence out of [0, 1]"
            assert in_type_order(bern.belief.types), "types out of type order"
            psis = [c.weight for c in bern.belief.types.values()]
            assert abs(sum(psis) - 1.0) <= tol, "type probabilities must sum to 1"
            for comp in bern.belief.types.values():
                c = comp.covariance
                for a in (comp.mean, c):
                    assert type(a) is np.ndarray and a.dtype == np.float64, \
                        "means and covariances must be float64 ndarrays"
                assert comp.mean.ndim == 1 and c.shape == comp.mean.shape * 2, \
                    "covariance shape must match its mean"
                assert np.max(np.abs(c - c.T)) <= tol, "covariance asymmetric"
                assert np.min(np.linalg.eigvalsh(symmetrize(c))) >= -tol, \
                    "covariance indefinite"


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as CPython 3.12 and later compute it: integers add
    exactly; a float total then carries a Neumaier compensation term while
    the items are floats or ints, and adds the first other item, and every
    one after it, with plain ``+``."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is float:
        comp, rest = 0.0, ()
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
            elif type(item) in (int, bool):
                total += item
            else:
                rest = (item,)
                break
        if comp and math.isfinite(comp):
            total += comp
        for item in rest:
            total = total + item
    for item in items:
        total = total + item
    return total


@pytest.fixture(autouse=True, scope="module")
def compensated_builtin_sum(request):
    """Every test module, and the helpers here, add with Python 3.12's
    ``sum`` on any interpreter.

    The filter adds floats left to right on every interpreter
    (``density.sum_in_order``).  A bit-for-bit reference that added with
    builtin ``sum`` would match it only before 3.12, so a reference must
    add left to right of its own accord to pass here.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(globals(), "sum", compensated_sum)
        patch.setattr(request.module, "sum", compensated_sum, raising=False)
        yield


def update_step_calls(scenario, filter_cfg, seed: int, runs: int) -> tuple:
    """``(C calls, Python calls, steps)`` inside ``update_step`` over MC
    runs 0 to ``runs`` - 1 of ``cli.run_single``: the ``c_call`` and
    ``call`` events that ``sys.setprofile`` sees from entering the step to
    leaving it.  A ``call`` is a Python function, generator or
    comprehension entered; a ``c_call`` a builtin or C function called,
    numpy's ufuncs and linear algebra among them.  The counts are exact
    for given inputs and Python and numpy versions."""
    counts = {"c_call": 0, "call": 0}
    update_step, steps = cli.update_step, []

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    def counted(*args):
        steps.append(None)
        sys.setprofile(count)
        try:
            return update_step(*args)
        finally:
            sys.setprofile(None)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "update_step", counted)
        for run in range(runs):
            cli.run_single(scenario, filter_cfg, seed, run,
                           cli.EXTRACT_THRESHOLD)
    return counts["c_call"], counts["call"], len(steps)
