"""Bistatic channel geometry: landmark models, measurement function and Jacobians.

The transmitter (a base station, BS) and the mobile receiver (UE) are not
synchronized, so delays are expressed in meters of path length and carry an
additive clock bias.  Three landmark kinds produce paths:

* ``BS``   -- the direct line-of-sight path to the transmitter itself,
* ``VA``   -- a virtual anchor, the mirror image of the BS across a flat
  reflecting surface; the surface is fully determined by the (BS, VA) pair,
* ``SP``   -- a point scatterer, producing a two-leg BS -> SP -> UE path.

A measurement is the 5-vector [toa, aoa_az, aoa_el, aod_az, aod_el]:
path length plus bias (m), angle of arrival at the UE (azimuth measured in
the UE frame, i.e. global azimuth minus heading; elevation in the global
frame, the UE array is assumed level) and angle of departure at the BS
(global frame).  Azimuth conventions are atan2(dy, dx); elevation is
atan2(dz, hypot(dx, dy)).

The bit rules, which the layering guards and the bit-for-bit reference
tests enforce: a stacked kernel gives each row the bits it has alone,
whatever else the stack holds, here and in :mod:`rfslam.association`.

* Element-wise float64 work (``+ - * /``, negation, ``sqrt`` and
  :func:`wrap_angle`'s floored ``%``) rounds alike in any shape, and on a
  Python float as in numpy, so it runs on the stack.
* Transcendental functions keep the per-row code's source, as numpy's and
  ``math``'s round differently: ``math`` per row on Python floats here
  (``atan2``, ``hypot``, ``cos``, ``sin``) and in the local weights,
  ``np.log`` on Cholesky factors' diagonals.
* Every reduction is a BLAS ``@`` with the shapes of its one-row form.  On
  C-contiguous stacks, or views that transpose them, a stacked ``@`` (or
  ``np.matmul`` with ``out=``) makes one BLAS call per slice, so
  ``(N,1,d) @ (N,d,1)`` gives each row the dot ``v @ x``; a sum along the
  last axis of a C-contiguous stack adds each row as its 1-D sum does.
* No ``np.einsum``, ``(a * b).sum(axis)`` or ``np.linalg.cholesky``: each
  rounds differently from the BLAS dot or from ``dpotrf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi


class DegenerateGeometryError(ValueError):
    """A direction vector needed for angles has (near-)zero length."""


class LandmarkType(Enum):
    BS = "BS"
    VA = "VA"
    SP = "SP"

    # Identity hash: members are singletons, and Enum's name-based hash is a
    # Python call on every dict lookup.  Only dicts (insertion-ordered) are
    # keyed by type, so no iteration order depends on the hash.
    __hash__ = object.__hash__


#: Canonical ordering used everywhere a per-type structure is iterated.
TYPE_ORDER = (LandmarkType.BS, LandmarkType.VA, LandmarkType.SP)


def wrap_angle(a):
    """Wrap an angle (a float, a numpy scalar or an array) to (-pi, pi]:
    Python's float ``%`` and numpy's are the same floored fmod."""
    return math.pi - (math.pi - a) % TWO_PI


def _finite_point(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not all(map(math.isfinite, v.tolist())):
        raise ValueError(f"{what} position must be a finite 3-vector")
    return v


@dataclass(frozen=True)
class UEState:
    """Receiver state: 3-D position (m), heading (rad), clock bias (m)."""

    position: np.ndarray
    heading: float
    clock_bias: float

    def __post_init__(self):
        object.__setattr__(self, "position", _finite_point(self.position, "UE"))
        object.__setattr__(self, "heading", wrap_angle(float(self.heading)))
        object.__setattr__(self, "clock_bias", float(self.clock_bias))

    def as_vector(self) -> np.ndarray:
        """State as the 5-vector [x, y, z, heading, bias]."""
        return np.concatenate([self.position, [self.heading, self.clock_bias]])

    @classmethod
    def from_vector(cls, v) -> "UEState":
        v = np.asarray(v, dtype=float)
        return cls(position=v[:3], heading=v[3], clock_bias=v[4])


@dataclass(frozen=True)
class Landmark:
    """A static landmark: kind plus 3-D position."""

    kind: LandmarkType
    position: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position",
                           _finite_point(self.position, "landmark"))


@dataclass(frozen=True)
class Plane:
    """A flat surface given by a point on it and its unit normal."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "normal", np.asarray(self.normal, dtype=float))


@dataclass(frozen=True)
class Measurement:
    """A channel-parameter measurement vector with its covariance.

    For the bistatic channel the vector is [toa, aoa_az, aoa_el, aod_az,
    aod_el]; the container itself is dimension-agnostic so the filter core
    can be exercised with toy models.
    """

    z: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariance, dtype=float)
        _set_vector(self, self.z, cov)
        if not np.isfinite(cov).all():
            raise ValueError("measurement and covariance must be finite")
        if np.max(np.abs(cov - cov.T)) > 1e-9:
            raise ValueError("measurement covariance must be symmetric within 1e-9")
        if np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))) <= 0.0:
            raise ValueError("measurement covariance must be positive definite")


def _set_vector(meas: Measurement, z, cov: np.ndarray) -> Measurement:
    """Set ``meas``'s vector ``z`` and covariance ``cov`` once the vector
    has the covariance's size and is finite: the checks a measurement's
    vector can fail."""
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or cov.shape != (z.size, z.size):
        raise ValueError("measurement/covariance shapes inconsistent")
    if not all(map(math.isfinite, z.tolist())):
        raise ValueError("measurement and covariance must be finite")
    object.__setattr__(meas, "z", z)
    object.__setattr__(meas, "covariance", cov)
    return meas


def measurements_with_covariance(vectors, covariance) -> list:
    """``[Measurement(z, covariance) for z in vectors]`` for a covariance
    that already passes :class:`Measurement`'s checks (finite, symmetric
    within 1e-9, positive definite), as a scenario's does.

    The covariance is not checked again: each measurement runs only
    :func:`_set_vector`'s checks, and all of them share the one covariance
    array.
    """
    cov = np.asarray(covariance, dtype=float)
    return [_set_vector(object.__new__(Measurement), z, cov) for z in vectors]


def mirror_bs(bs_position, surface_point, surface_normal) -> np.ndarray:
    """Mirror the BS across a flat surface, yielding the virtual anchor.

    Computes (I - 2 nu nu^T) x + 2 (mu^T nu) nu for surface point mu and unit
    normal nu.  Raises ValueError if the normal is not unit length.
    """
    x = np.asarray(bs_position, dtype=float)
    mu = np.asarray(surface_point, dtype=float)
    nu = np.asarray(surface_normal, dtype=float)
    if abs(np.linalg.norm(nu) - 1.0) > 1e-9:
        raise ValueError("surface normal must have unit norm")
    return x - 2.0 * nu * (nu @ x) + 2.0 * (mu @ nu) * nu


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dots of a C-contiguous (N, d) stack with a like stack or with
    one d-vector: one stacked ``@``, so each is the BLAS dot of its row."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


#: Shortest vector (m) whose direction the geometry takes.
MIN_LEG = 1e-12

_EYE3 = np.eye(3)


#: Signs that turn (gy, gx) into (-gy, gx), exactly.
_FLIP = np.array([-1.0, 1.0])


def _angle_gradients(g: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """Gradients of the azimuth and of the elevation of each row of a
    direction stack ``g`` (N x 3) with respect to it, stacked 2 x N x 3;
    ``rho2`` holds each row's squared horizontal length, at least 1e-24."""
    r2 = rho2 + g[:, 2] * g[:, 2]
    rho = np.sqrt(rho2)
    out = np.empty((2, len(g), 3))
    # (-gy, gx, 0) / rho2 and (-gx gz, -gy gz) / (rho r2), rho / r2.
    out[0, :, :2] = g[:, 1::-1] * _FLIP / rho2[:, None]
    out[0, :, 2] = 0.0
    out[1, :, :2] = -g[:, :2] * g[:, 2:] / (rho * r2)[:, None]
    out[1, :, 2] = rho / r2
    return out


def _channel(u, heading: float, bias: float, X: np.ndarray, kinds,
             live, bs: np.ndarray, fov: float, jacobians: bool):
    """``(seen, z_pred, H_s, H_x)`` of the paths to the landmark positions
    ``X`` (N x 3), of kinds ``kinds`` (one per row), from a UE at ``u``
    with the heading and clock bias given.

    ``seen`` lists the rows kept, ascending; ``z_pred`` stacks their
    channel parameters (M x 5) and, with ``jacobians``, ``H_s`` and
    ``H_x`` the sensor and landmark blocks of their Jacobians (M x 5 x 5,
    M x 5 x 3; else None), in ``seen`` order.  The Jacobian's columns are
    [ue position (3), heading, clock bias] and the landmark position.
    Only rows of the kinds in ``live`` are kept.  A row is dropped before
    any division when its SP lies farther than ``fov`` from the UE or a leg
    is shorter than ``MIN_LEG``.  A row with a vertical direction whose
    azimuth it takes (horizontal length below 1e-12) or, with
    ``jacobians``, differentiates (squared length below 1e-24) stays in
    the stacks, with a squared length of 1 so that no gradient divides by
    0, and is left out of the output.

    The rows are grouped by kind, BS then VA then SP, so each kind's rows
    are one contiguous slice: the work every kind shares runs once on the
    whole stack, and the kind-specific work on its slice.  ``nu`` and the
    BS-to-landmark leg are formed on the VA and SP rows only: a BS row
    needs neither, and the anchor at the BS position has a leg of length
    0.
    """
    if not set(kinds) <= set(TYPE_ORDER):
        raise ValueError(f"unknown landmark kind in {kinds!r}")
    groups = [[k for k, kind in enumerate(kinds) if kind is t]
              if t in live else [] for t in TYPE_ORDER]
    nb, nv = len(groups[0]), len(groups[1])
    seen = np.array(groups[0] + groups[1] + groups[2], dtype=int)
    X = X[seen]
    # The legs: g = x - u toward the apparent source with its length n, and
    # for a VA or SP the BS-to-landmark vector b with its length span.
    g = X - u
    n = np.sqrt(_dots(g, g))
    b = X[nb:] - bs
    span = np.sqrt(_dots(b, b))
    keep = n >= MIN_LEG
    keep[nb:] &= span >= MIN_LEG
    keep[nb + nv:] &= n[nb + nv:] <= fov
    if not keep.all():
        b, span = b[keep[nb:]], span[keep[nb:]]
        nb, nv = int(keep[:nb].sum()), int(keep[nb:nb + nv].sum())
        seen, X, g, n = seen[keep], X[keep], g[keep], n[keep]
    va, sp = slice(nb, nb + nv), slice(nb + nv, None)
    d = u - X
    # Mirroring VA->UE across the surface (unit normal nu) gives the
    # BS->incidence ray, d - 2 nu (nu . d); an SP's second leg is b.
    nu = b / span[:, None]
    s = _dots(nu[:nv], d[va])
    path = np.concatenate([n[:nb + nv], span[nv:] + n[sp]])
    g_aod = np.concatenate([d[:nb], d[va] - 2.0 * nu[:nv] * s[:, None],
                            b[nv:]])
    if jacobians:
        # The VA ray as the product R d, with R = I - 2 nu nu^T, and
        # d nu / d x = N = (I - nu nu^T) / span.
        outer = nu[:nv, :, None] * nu[:nv, None, :]
        R = _EYE3 - 2.0 * outer
        N = (_EYE3 - outer) / span[:nv, None, None]
        # The directions whose angles are differentiated, AOA then AOD, and
        # their squared horizontal lengths.
        dirs = np.concatenate([g, d[:nb], (R @ d[va][:, :, None])[:, :, 0],
                               b[nv:]])
        rho2 = dirs[:, 0] * dirs[:, 0] + dirs[:, 1] * dirs[:, 1]
    # The transcendental functions, per row on Python floats, with the
    # horizontal lengths that test for a vertical direction.
    rows, ok = [], []
    for toa, (gx, gy, gz), (ax, ay, az) in zip(
            (path + bias).tolist(), g.tolist(), g_aod.tolist()):
        rho, rho_aod = math.hypot(gx, gy), math.hypot(ax, ay)
        rows.append((toa, wrap_angle(math.atan2(gy, gx) - heading),
                     math.atan2(gz, rho), math.atan2(ay, ax),
                     math.atan2(az, rho_aod)))
        ok.append(not min(rho, rho_aod) < 1e-12)
    z_pred = np.array(rows).reshape(len(rows), 5)
    ok = np.array(ok, dtype=bool)
    if jacobians:
        flat = rho2 < 1e-24
        ok &= ~flat.reshape(2, -1).any(axis=0)
        rho2[flat] = 1.0
    # Back to input order, seen ascending, without the vertical rows.
    back = np.argsort(seen, kind="stable")
    back = back[ok[back]]
    seen = seen[back].tolist()
    if not jacobians:
        return seen, z_pred[back], None, None
    M = len(g)
    H_s, H_x = np.zeros((M, 5, 5)), np.empty((M, 5, 3))
    H_s[:, 0, 4], H_s[:, 1, 3] = 1.0, -1.0
    # Delay row: the bias enters additively, the positions through the unit
    # AOA direction e (and for an SP the unit BS-SP direction nu as well).
    # AOA rows: the apparent source is the landmark itself for every kind.
    grads = _angle_gradients(dirs, rho2)
    e = g / n[:, None]
    H_x[:, 0], H_x[:, 1:3] = e, grads[:, :M].swapaxes(0, 1)
    np.negative(H_x[:, :3], out=H_s[:, :3, :3])
    np.add(nu[nv:], e[sp], out=H_x[sp, 0])
    aod = grads[:, M:]
    H_s[:nb, 3:, :3] = aod[:, :nb].swapaxes(0, 1)
    np.negative(H_s[:nb, 3:, :3], out=H_x[:nb, 3:])
    # VA: g_aod = R(nu(x)) d(x, u): dg/du = R, and dg/dx by the product
    # rule.
    nd = (N @ d[va][:, :, None])[:, :, 0]
    dg_dx = (-R - (2.0 * s)[:, None, None] * N
             - 2.0 * (nu[:nv, :, None] * nd[:, None, :]))
    for row, grad in zip((3, 4), aod[:, va, None]):
        np.matmul(grad, R, out=H_s[va, row:row + 1, :3])
        np.matmul(grad, dg_dx, out=H_x[va, row:row + 1])
    H_x[sp, 3:] = aod[:, sp].swapaxes(0, 1)
    return seen, z_pred[back], H_s[back], H_x[back]


def _one_row(u, heading: float, bias: float, x, kind: LandmarkType, bs,
             jacobians: bool) -> list:
    """``[z_pred, H_s, H_x]`` of one path by :func:`_channel`, with no
    field-of-view cut; raises DegenerateGeometryError where it has none."""
    seen, *stacks = _channel(u, heading, bias, x[None], (kind,), TYPE_ORDER,
                             np.asarray(bs, dtype=float), math.inf, jacobians)
    if not seen:
        raise DegenerateGeometryError(
            "degenerate geometry: a zero-length or vertical direction")
    return [a if a is None else a[0] for a in stacks]


def measure(ue: UEState, lm: Landmark, bs_position) -> np.ndarray:
    """Noise-free channel parameters [toa, aoa_az, aoa_el, aod_az, aod_el].

    The TOA is the path length in meters plus the UE clock bias.  AOA
    azimuth is relative to the UE heading; all angles wrapped to (-pi, pi].
    """
    return _one_row(ue.position, ue.heading, ue.clock_bias, lm.position,
                    lm.kind, bs_position, False)[0]


def measure_jacobian(ue: UEState, lm: Landmark, bs_position) -> np.ndarray:
    """Analytic 5x8 Jacobian of :func:`measure`.

    Columns stack the joint state [ue position (3), heading, clock bias,
    landmark position (3)].
    """
    return np.concatenate(_one_row(ue.position, ue.heading, ue.clock_bias,
                                   lm.position, lm.kind, bs_position,
                                   True)[1:], axis=1)


def measure_all(ue: UEState, landmarks, bs_position,
                fov_radius: float) -> list:
    """:func:`measure` of every landmark the UE can see, from one stacked
    pass: None where the geometry is degenerate or an SP lies farther than
    ``fov_radius`` from the UE."""
    seen, z_pred, _, _ = _channel(
        ue.position, ue.heading, ue.clock_bias,
        np.array([lm.position for lm in landmarks]).reshape(-1, 3),
        [lm.kind for lm in landmarks], TYPE_ORDER,
        np.asarray(bs_position, dtype=float), fov_radius, False)
    found = dict(zip(seen, z_pred))
    return [found.get(k) for k in range(len(landmarks))]


# Clamp keeping misdetection weights strictly positive even for p_detect = 1.
MAX_P_DETECT = 1.0 - 1e-9


@dataclass(frozen=True)
class ChannelModel:
    """Measurement-model facade the filter core works against: the channel
    geometry with the known BS position and the detection model.  Any
    object with the methods README's "Library use" lists can take its
    place.

    ``predict``, ``jacobians`` and ``detection_probability`` are one-row
    calls of the same kernel: ``predict`` and ``jacobians`` take no
    field-of-view cut and raise DegenerateGeometryError where ``linearize``
    would give no prediction.  No filter code calls them: they stay only
    because the benchmark's tracer wraps them by name, so add no caller.

    ``p_detect`` values must lie in [0, 1] (1 is clamped to
    ``MAX_P_DETECT``) and ``fov_radius`` must be positive (``math.inf``
    sees every SP); anything else raises ValueError.
    """

    bs_position: np.ndarray
    p_detect: dict = field(default_factory=lambda: {
        LandmarkType.BS: 0.9, LandmarkType.VA: 0.9, LandmarkType.SP: 0.9})
    fov_radius: float = 50.0

    def __post_init__(self):
        object.__setattr__(self, "bs_position",
                           np.asarray(self.bs_position, dtype=float))
        if not all(0.0 <= pd <= 1.0 for pd in self.p_detect.values()):
            raise ValueError("every p_detect must be in [0, 1]")
        clamped = {k: min(float(v), MAX_P_DETECT) for k, v in self.p_detect.items()}
        object.__setattr__(self, "p_detect", clamped)
        if not self.fov_radius > 0.0:
            raise ValueError("fov_radius must be > 0")

    #: Angular measurement components (residuals wrapped).
    angle_components = slice(1, 5)

    def wrap_residual(self, v: np.ndarray) -> np.ndarray:
        v = np.array(v, dtype=float)
        v[..., self.angle_components] = wrap_angle(v[..., self.angle_components])
        return v

    # The methods below take the raw sensor vector [x, y, z, heading, bias]
    # and check it as UEState.from_vector would, once per call, without
    # building a UEState.

    @staticmethod
    def _sensor(sensor_mean):
        """(position, wrapped heading, clock bias) of a sensor vector."""
        v = np.asarray(sensor_mean, dtype=float)
        heading, bias = wrap_angle(float(v[3])), float(v[4])
        return _finite_point(v[:3], "UE"), heading, bias

    def linearize(self, sensor_mean, positions, kinds):
        """``(p_detect, seen, z_pred, H_s, H_x)`` of N landmark positions
        (a sequence of 3-vectors or an N x 3 stack, rows in any order, N = 0
        included) of the kinds ``kinds`` (one per row) at one sensor
        vector, from one decode and one stacked pass (:func:`_channel`).

        ``p_detect`` holds each row's detection probability, and ``seen``
        the rows with a prediction, ascending; ``z_pred`` (M x 5), ``H_s``
        (M x 5 x 5) and ``H_x`` (M x 5 x 3) stack their predictions and
        Jacobian blocks, C-contiguous.  A row the sensor cannot see (its
        kind has detection probability 0, or it is an SP beyond
        ``fov_radius``) or with degenerate geometry has p_detect 0 and no
        prediction: it enters the filter only through its misdetection
        mass.  Raises ValueError on a non-finite sensor position or
        landmark row, an unknown kind, or a kind count that is not the
        row count."""
        u, heading, bias = self._sensor(sensor_mean)
        X = np.asarray(positions, dtype=float)
        if X.shape == (0,):
            X = X.reshape(0, 3)
        if X.ndim != 2 or X.shape[1] != 3 or not np.isfinite(X).all():
            raise ValueError("landmark position must be a finite 3-vector")
        if len(kinds) != len(X):
            raise ValueError("linearize takes one landmark kind per row")
        seen, z_pred, H_s, H_x = _channel(
            u, heading, bias, X, kinds,
            [k for k in TYPE_ORDER if self.p_detect.get(k, 0.0) > 0.0],
            self.bs_position, self.fov_radius, True)
        kept = set(seen)
        return ([self.p_detect[kind] if k in kept else 0.0
                 for k, kind in enumerate(kinds)], seen, z_pred, H_s, H_x)

    def predict(self, sensor_mean, lm_position, kind: LandmarkType) -> np.ndarray:
        u, heading, bias = self._sensor(sensor_mean)
        return _one_row(u, heading, bias,
                        _finite_point(lm_position, "landmark"), kind,
                        self.bs_position, False)[0]

    def jacobians(self, sensor_mean, lm_position, kind: LandmarkType):
        """(H_sensor, H_landmark) blocks of the measurement Jacobian."""
        u, heading, bias = self._sensor(sensor_mean)
        return tuple(_one_row(u, heading, bias,
                              _finite_point(lm_position, "landmark"), kind,
                              self.bs_position, True)[1:])

    def detection_probability(self, sensor_mean, lm_position,
                              kind: LandmarkType) -> float:
        return self.linearize(sensor_mean,
                              _finite_point(lm_position, "landmark")[None],
                              (kind,))[0][0]

    def invert(self, z_rows, sensor_mean, kinds):
        """``(rows, means)``: the ``(kind, measurement)`` rows of a stack of
        measurements (P x 5) that invert to a landmark position at the
        sensor mean, for every kind of ``kinds`` -- ordered by ``kinds``,
        then by measurement -- and those positions (K x 3).  An SP inverts
        along its angle of departure, any other kind along its angle of
        arrival, all in one trig loop.  A row whose geometry admits no
        solution is left out (the caller treats the measurement as
        clutter-only for the kind)."""
        z = np.asarray(z_rows, dtype=float)
        u, heading, bias = self._sensor(sensor_mean)
        if not set(kinds) <= set(TYPE_ORDER):
            raise ValueError(f"unknown landmark kind in {kinds!r}")
        arrival = list(zip((z[:, 1] + heading).tolist(), z[:, 2].tolist()))
        departure = list(zip(z[:, 3].tolist(), z[:, 4].tolist()))
        rays = np.array([(math.cos(e) * math.cos(a),
                          math.cos(e) * math.sin(a), math.sin(e))
                         for kind in kinds for a, e in
                         (departure if kind is LandmarkType.SP else arrival)
                         ]).reshape(len(kinds), len(z), 3)
        path = z[:, 0] - bias
        found = (path > 0.0).nonzero()[0]
        w = self.bs_position - u
        rows, means = [], [np.empty((0, 3))]
        for kind, g in zip(kinds, rays):
            r = found
            if kind is LandmarkType.SP:
                # The SP lies on the departure ray at the distance s from
                # the BS at which its two legs add up to the path.
                denom = 2.0 * (path[r] + _dots(g[r], w))
                r, denom = r[denom > 1e-9], denom[denom > 1e-9]
                s = (path[r] * path[r] - float(w @ w)) / denom
                fits = (s > 0.0) & (s < path[r])
                r = r[fits]
                means.append(self.bs_position + s[fits, None] * g[r])
            else:
                means.append(u + path[r, None] * g[r])
            rows += [(kind, p) for p in r.tolist()]
        return rows, np.concatenate(means)
