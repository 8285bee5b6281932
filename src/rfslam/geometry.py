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

The linearization kernels run once per (landmark, type) and per newborn, on
3-vectors, so numpy's per-call cost outweighs their arithmetic.  They follow
one rule, which keeps their results bit for bit:

* an element-wise float64 operation (``+ - * /``, negation, ``sqrt``)
  rounds the same in numpy and on Python floats, so element-wise work may
  move to Python floats;
* a BLAS reduction does not round as a sequential Python sum does: over
  20,000 draws of standard normal operands, a 3-term numpy dot differed
  from the Python sum of its products in 6,674, and a 3x3 matrix-vector
  product in 13,984 (numpy 2.4 with OpenBLAS, x86-64);
* so every reduction (``v.dot(v)`` in :func:`_norm`, the dot and
  matrix-vector products of the VA Jacobian) stays the same numpy call on
  the same operands;
* a stacked ``@`` is the same call: on C-contiguous stacks (or views that
  transpose them) numpy makes one BLAS call per slice, so each slice has
  the bits of its own 2-D product, and ``(N,1,d) @ (N,d,1)`` gives each
  row the BLAS dot of ``v @ x``.  :mod:`rfslam.association` stacks its
  linear algebra by this clause;
* other stacked reductions are not: over 2,000 row dots of standard-normal
  5-vectors, ``np.einsum("ij,ij->i", a, b)`` differed from the BLAS dot in
  1,038 and ``(a * b).sum(axis=1)`` in 847, and over 3,000 random 5x5
  positive-definite matrices ``np.linalg.cholesky`` differed from scipy's
  ``dpotrf`` in 359 (numpy 2.4 with OpenBLAS, x86-64).
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
    """Wrap an angle (or array of angles) to (-pi, pi]."""
    w = np.pi - np.mod(np.pi - np.asarray(a, dtype=float), TWO_PI)
    if np.ndim(a) == 0:
        return float(w)
    return w


def _wrap_scalar(a: float) -> float:
    """:func:`wrap_angle` of one float, bit for bit: Python's float ``%``
    and ``np.mod`` are both the floored fmod."""
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


def _norm(v: np.ndarray) -> float:
    """Length of a real vector: ``np.linalg.norm``'s own formula for 1-D
    input (the square root of ``v.dot(v)``), so the bits are the same."""
    return math.sqrt(v.dot(v))


#: Shortest vector (m) whose direction the geometry takes.
MIN_LEG = 1e-12


def _direction(v, what: str) -> tuple[np.ndarray, float]:
    n = _norm(v)
    if n < MIN_LEG:
        raise DegenerateGeometryError(f"zero-length {what} direction")
    return v, n


def _azimuth_elevation(gx: float, gy: float, gz: float) -> tuple[float, float]:
    rho = math.hypot(gx, gy)
    if rho < 1e-12:
        raise DegenerateGeometryError("vertical direction: azimuth undefined")
    return math.atan2(gy, gx), math.atan2(gz, rho)


def _unit_direction(az: float, el: float) -> np.ndarray:
    """Unit vector at azimuth ``az`` and elevation ``el``."""
    return np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az),
                     math.sin(el)])


def _angle_gradients(gx: float, gy: float, gz: float):
    """Gradients of the azimuth and of the elevation of a direction vector
    (gx, gy, gz) with respect to it, as two 3-tuples of floats."""
    rho2 = gx * gx + gy * gy
    r2 = rho2 + gz * gz
    if rho2 < 1e-24:
        raise DegenerateGeometryError("vertical direction: azimuth undefined")
    rho = math.sqrt(rho2)
    rho_r2 = rho * r2
    return ((-gy / rho2, gx / rho2, 0.0),
            (-gx * gz / rho_r2, -gy * gz / rho_r2, rho / r2))


#: The UE-to-landmark and BS-to-landmark direction of each two-leg kind, as
#: a degeneracy error names them.
_LEG_NAMES = {LandmarkType.VA: ("UE-VA", "BS-VA"),
              LandmarkType.SP: ("UE-SP", "BS-SP")}


def _legs(u, kind: LandmarkType, x, bs_position):
    """The vectors the prediction, its Jacobian and the visibility share.

    Returns ``(g, n, d, b, span, nu)``: the AOA direction g = x - u from the
    UE toward the apparent source with its length n, d = u - x, and for a VA
    or SP the BS-to-landmark vector b = x - bs with its length span and unit
    vector nu (a VA's surface normal); the last three are None for the BS.
    Raises DegenerateGeometryError when g or b has (near-)zero length.
    """
    if kind is LandmarkType.BS:
        g, n = _direction(x - u, "UE-BS")
        return g, n, u - x, None, None, None
    names = _LEG_NAMES.get(kind)
    if names is None:
        raise ValueError(f"unknown landmark kind {kind!r}")
    g, n = _direction(x - u, names[0])
    b, span = _direction(x - np.asarray(bs_position, dtype=float), names[1])
    return g, n, u - x, b, span, b / span


def _prediction(heading: float, bias: float, kind: LandmarkType,
                legs) -> np.ndarray:
    """Noise-free channel parameters from the :func:`_legs` of a path.

    The AOD direction is an unnormalized global-frame vector from the BS
    toward the departure target.
    """
    g, n, d, b, span, nu = legs
    if kind is LandmarkType.BS:
        path, g_aod = n, d.tolist()
    elif kind is LandmarkType.VA:
        # Mirroring VA->UE across the surface gives the BS->incidence ray,
        # d - 2 nu (nu . d).
        s = float(nu @ d)
        path = n
        g_aod = [di - 2.0 * ni * s for di, ni in zip(d.tolist(), nu.tolist())]
    else:
        path, g_aod = span + n, b.tolist()
    aoa_az, aoa_el = _azimuth_elevation(*g.tolist())
    aod_az, aod_el = _azimuth_elevation(*g_aod)
    return np.array([
        path + bias,
        _wrap_scalar(aoa_az - heading),
        aoa_el,
        aod_az,
        aod_el,
    ])


#: The 3x3 identity in row-major order, for the VA mirror Jacobian.
_EYE3_FLAT = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _matrix(values, rows: int) -> np.ndarray:
    """C-ordered float array of ``rows`` rows from row-major ``values``."""
    return np.array(values).reshape(rows, -1)


def _jacobian(kind: LandmarkType, legs) -> np.ndarray:
    """Analytic 5x8 Jacobian of :func:`_prediction` from the same legs.

    Columns stack the joint state [ue position (3), heading, clock bias,
    landmark position (3)].  Each entry is the element-wise expression of
    the array code it replaces, evaluated on Python floats; the VA block
    keeps its numpy dot and matrix-vector products (see the module
    docstring).
    """
    g, n, d, b, span, nu = legs
    gx, gy, gz = g.tolist()
    # Delay row: the bias enters additively, the positions through the unit
    # AOA direction e (and for an SP the unit BS-SP direction nu as well).
    ex, ey, ez = gx / n, gy / n, gz / n
    # AOA rows: the apparent source is the landmark itself for every kind.
    (ax, ay, az), (lx, ly, lz) = _angle_gradients(gx, gy, gz)
    head = [-ex, -ey, -ez, 0.0, 1.0]
    aoa = [-ax, -ay, -az, -1.0, 0.0, ax, ay, az,
           -lx, -ly, -lz, 0.0, 0.0, lx, ly, lz]

    if kind is LandmarkType.BS:
        (px, py, pz), (qx, qy, qz) = _angle_gradients(*d.tolist())
        return _matrix([*head, ex, ey, ez, *aoa,
                        px, py, pz, 0.0, 0.0, -px, -py, -pz,
                        qx, qy, qz, 0.0, 0.0, -qx, -qy, -qz], 5)
    if kind is LandmarkType.VA:
        # g = R(nu(x)) d(x, u) with R = I - 2 nu nu^T:  dg/du = R, and dg/dx
        # by the product rule with d nu / d x = N = (I - nu nu^T) / span.
        nus = nu.tolist()
        outer = [ni * nj for ni in nus for nj in nus]
        r_flat = [e - 2.0 * o for e, o in zip(_EYE3_FLAT, outer)]
        n_flat = [(e - o) / span for e, o in zip(_EYE3_FLAT, outer)]
        R, N = _matrix(r_flat, 3), _matrix(n_flat, 3)
        g_aod = R @ d
        c = 2.0 * float(nu @ d)
        nd = (N @ d).tolist()
        nu_nd = [ni * w for ni in nus for w in nd]
        dg_dx = _matrix([-r - c * m - 2.0 * o
                         for r, m, o in zip(r_flat, n_flat, nu_nd)], 3)
        d_az2, d_el2 = map(np.array, _angle_gradients(*g_aod.tolist()))
        return _matrix([*head, ex, ey, ez, *aoa,
                        *(d_az2 @ R).tolist(), 0.0, 0.0,
                        *(d_az2 @ dg_dx).tolist(),
                        *(d_el2 @ R).tolist(), 0.0, 0.0,
                        *(d_el2 @ dg_dx).tolist()], 5)
    nx, ny, nz = nu.tolist()
    (px, py, pz), (qx, qy, qz) = _angle_gradients(*b.tolist())
    return _matrix([*head, nx + ex, ny + ey, nz + ez, *aoa,
                    0.0, 0.0, 0.0, 0.0, 0.0, px, py, pz,
                    0.0, 0.0, 0.0, 0.0, 0.0, qx, qy, qz], 5)


def measure(ue: UEState, lm: Landmark, bs_position) -> np.ndarray:
    """Noise-free channel parameters [toa, aoa_az, aoa_el, aod_az, aod_el].

    The TOA is the path length in meters plus the UE clock bias.  AOA
    azimuth is relative to the UE heading; all angles wrapped to (-pi, pi].
    """
    return _prediction(ue.heading, ue.clock_bias, lm.kind,
                       _legs(ue.position, lm.kind, lm.position, bs_position))


def measure_jacobian(ue: UEState, lm: Landmark, bs_position) -> np.ndarray:
    """Analytic 5x8 Jacobian of :func:`measure`.

    Columns stack the joint state [ue position (3), heading, clock bias,
    landmark position (3)].
    """
    return _jacobian(lm.kind,
                     _legs(ue.position, lm.kind, lm.position, bs_position))


def detection_probability(ue: UEState, lm: Landmark, p_detect: dict,
                          fov_radius: float) -> float:
    """Probability that the landmark produces a measurement.

    BS and VA paths are always visible; an SP is visible only within
    ``fov_radius`` meters of the UE.  ``p_detect`` maps each
    :class:`LandmarkType` to its detection probability; a missing type is
    never detected.
    """
    return _visible(lm.kind, _norm(lm.position - ue.position),
                    float(p_detect.get(lm.kind, 0.0)), fov_radius)


def _visible(kind: LandmarkType, dist: float, pd: float,
             fov_radius: float) -> float:
    """``pd``, or 0.0 for an SP farther than ``fov_radius`` from the UE;
    ``dist`` is the UE-landmark distance."""
    if kind is LandmarkType.SP and dist > fov_radius:
        return 0.0
    return pd


# Clamp keeping misdetection weights strictly positive even for p_detect = 1.
MAX_P_DETECT = 1.0 - 1e-9


@dataclass(frozen=True)
class ChannelModel:
    """Measurement-model facade the filter core works against.

    Wraps the channel geometry with the known BS anchor position and the
    detection model.  The filter calls three methods: ``linearize``,
    ``invert`` and ``wrap_residual`` (and reads ``p_detect`` and
    ``fov_radius`` when present), so any object with them can be
    substituted, e.g. linear toys in tests.  ``wrap_residual`` takes a
    residual or a stack of them of any shape, the components on the last
    axis, and wraps every angle with :func:`wrap_angle`, which gives
    ``_wrap_scalar``'s bits.  ``predict``, ``jacobians`` and
    ``detection_probability`` give ``linearize``'s parts one at a time for
    a pair the sensor can see.  No filter code calls them: they stay only
    because the benchmark's tracer wraps them by name, so add no caller;
    they go when the tracer's name list drops them.
    """

    bs_position: np.ndarray
    p_detect: dict = field(default_factory=lambda: {
        LandmarkType.BS: 0.9, LandmarkType.VA: 0.9, LandmarkType.SP: 0.9})
    fov_radius: float = 50.0

    def __post_init__(self):
        object.__setattr__(self, "bs_position",
                           np.asarray(self.bs_position, dtype=float))
        clamped = {k: min(float(v), MAX_P_DETECT) for k, v in self.p_detect.items()}
        object.__setattr__(self, "p_detect", clamped)

    #: Angular measurement components (residuals wrapped).
    angle_components = slice(1, 5)

    def wrap_residual(self, v: np.ndarray) -> np.ndarray:
        v = np.array(v, dtype=float)
        v[..., self.angle_components] = wrap_angle(v[..., self.angle_components])
        return v

    # The methods below take the raw sensor vector [x, y, z, heading, bias]
    # and landmark position, and check them as UEState.from_vector and
    # Landmark would, without building either object on every call.

    @staticmethod
    def _sensor(sensor_mean):
        """(position, wrapped heading, clock bias) of a sensor vector."""
        v = np.asarray(sensor_mean, dtype=float)
        heading, bias = _wrap_scalar(float(v[3])), float(v[4])
        return _finite_point(v[:3], "UE"), heading, bias

    def linearize(self, sensor_mean, lm_position, kind: LandmarkType):
        """(p_detect, z_pred, H_sensor, H_landmark) at one sensor vector and
        landmark position: :meth:`detection_probability`, :meth:`predict`
        and :meth:`jacobians` from one decode and one pass over the path's
        directions.  A pair the sensor cannot see (p_detect 0, e.g. an SP
        beyond ``fov_radius``) gives ``(p_detect, None, None, None)``: it
        enters the filter only through its misdetection mass.  Raises
        ValueError on non-finite input and DegenerateGeometryError on a
        zero-length leg, for any pair; a visible pair raises
        DegenerateGeometryError whenever ``predict`` or ``jacobians`` would,
        with the message of the first of the two to raise."""
        u, heading, bias = self._sensor(sensor_mean)
        legs = _legs(u, kind, _finite_point(lm_position, "landmark"),
                     self.bs_position)
        pd = _visible(kind, legs[1], float(self.p_detect.get(kind, 0.0)),
                      self.fov_radius)
        if pd <= 0.0:
            return pd, None, None, None
        z_pred = _prediction(heading, bias, kind, legs)
        H = _jacobian(kind, legs)
        return pd, z_pred, H[:, :5], H[:, 5:]

    def predict(self, sensor_mean, lm_position, kind: LandmarkType) -> np.ndarray:
        u, heading, bias = self._sensor(sensor_mean)
        return _prediction(heading, bias, kind,
                           _legs(u, kind, _finite_point(lm_position, "landmark"),
                                 self.bs_position))

    def jacobians(self, sensor_mean, lm_position, kind: LandmarkType):
        """(H_sensor, H_landmark) blocks of the measurement Jacobian."""
        u, _, _ = self._sensor(sensor_mean)
        x = _finite_point(lm_position, "landmark")
        H = _jacobian(kind, _legs(u, kind, x, self.bs_position))
        return H[:, :5], H[:, 5:]

    def detection_probability(self, sensor_mean, lm_position,
                              kind: LandmarkType) -> float:
        u, _, _ = self._sensor(sensor_mean)
        x = _finite_point(lm_position, "landmark")
        return _visible(kind, _norm(x - u),
                        float(self.p_detect.get(kind, 0.0)), self.fov_radius)

    def invert(self, z, sensor_mean, kind: LandmarkType):
        """Invert a measurement to a landmark position at the sensor mean.

        Returns None when the geometry does not admit a solution (the caller
        treats the measurement as clutter-only).
        """
        z = np.asarray(z, dtype=float)
        u, heading, bias = self._sensor(sensor_mean)
        path = z[0] - bias
        if path <= 0.0:
            return None
        if kind in (LandmarkType.BS, LandmarkType.VA):
            return u + path * _unit_direction(z[1] + heading, z[2])
        if kind is LandmarkType.SP:
            g = _unit_direction(z[3], z[4])
            w = self.bs_position - u
            denom = 2.0 * (path + g @ w)
            if denom <= 1e-9:
                return None
            s = (path * path - float(w @ w)) / denom
            if s <= 0.0 or s >= path:
                return None
            return self.bs_position + s * g
        raise ValueError(f"unknown landmark kind {kind!r}")
