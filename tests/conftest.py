"""Shared test helpers: linear toy measurement models, small builders and
the density invariant check."""

import itertools

import numpy as np

from rfslam.density import (
    Bernoulli,
    LandmarkBelief,
    PmbmDensity,
    TypeComponent,
    symmetrize,
)
from rfslam.geometry import LandmarkType


class LinearModel:
    """Linear toy measurement model: h(s, x) = A s + B x + c per type.

    Dimension-agnostic stand-in for the channel geometry, used to check the
    filter core against closed-form Gaussian conditioning.
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

    def linearize(self, sensor_mean, lm_mean, kind):
        """(p_detect, prediction, H_s, H_x) from the three methods above."""
        pd = self.detection_probability(sensor_mean, lm_mean, kind)
        z_pred = self.predict(sensor_mean, lm_mean, kind)
        H_s, H_x = self.jacobians(sensor_mean, lm_mean, kind)
        return pd, z_pred, H_s, H_x

    def invert(self, z, sensor_mean, kind):
        A, B, c = self.mats[kind]
        rhs = np.atleast_1d(z) - A @ np.atleast_1d(sensor_mean) - c
        sol, _, rank, _ = np.linalg.lstsq(B, rhs, rcond=None)
        if rank < B.shape[1]:
            return None
        return sol


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


def check_density(density: PmbmDensity, tol: float = 1e-9) -> None:
    """Raise AssertionError when a structural invariant is violated."""
    weights = [h.weight for h in density.hypotheses]
    assert abs(sum(weights) - 1.0) <= tol, "hypothesis weights must sum to 1"
    for rate in density.ppp_intensity.values():
        assert rate >= 0.0, "PPP intensity must be nonnegative"
    for hyp in density.hypotheses:
        for bern in hyp.bernoullis:
            assert -tol <= bern.existence <= 1.0 + tol, "existence out of [0, 1]"
            psis = [c.weight for c in bern.belief.types.values()]
            assert abs(sum(psis) - 1.0) <= tol, "type probabilities must sum to 1"
            for comp in bern.belief.types.values():
                c = comp.covariance
                assert np.max(np.abs(c - c.T)) <= tol, "covariance asymmetric"
                assert np.min(np.linalg.eigvalsh(symmetrize(c))) >= -tol, \
                    "covariance indefinite"
