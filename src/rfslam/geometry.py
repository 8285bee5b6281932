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
        z = np.asarray(self.z, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "covariance", cov)
        if z.ndim != 1 or cov.shape != (z.size, z.size):
            raise ValueError("measurement/covariance shapes inconsistent")
        if not (np.isfinite(z).all() and np.isfinite(cov).all()):
            raise ValueError("measurement and covariance must be finite")
        if np.max(np.abs(cov - cov.T)) > 1e-9:
            raise ValueError("measurement covariance must be symmetric within 1e-9")
        if np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))) <= 0.0:
            raise ValueError("measurement covariance must be positive definite")


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


def _direction(v, what: str) -> tuple[np.ndarray, float]:
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise DegenerateGeometryError(f"zero-length {what} direction")
    return v, n


def _azimuth_elevation(g) -> tuple[float, float]:
    rho = math.hypot(g[0], g[1])
    if rho < 1e-12:
        raise DegenerateGeometryError("vertical direction: azimuth undefined")
    return math.atan2(g[1], g[0]), math.atan2(g[2], rho)


def _unit_direction(az: float, el: float) -> np.ndarray:
    """Unit vector at azimuth ``az`` and elevation ``el``."""
    return np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az),
                     math.sin(el)])


def _angle_gradients(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of azimuth and elevation of a direction vector w.r.t. it.

    The scalar arithmetic runs on Python floats, which round like numpy
    float64 scalars at a fraction of their per-operation cost.
    """
    gx, gy, gz = g.tolist()
    rho2 = gx * gx + gy * gy
    r2 = rho2 + gz * gz
    if rho2 < 1e-24:
        raise DegenerateGeometryError("vertical direction: azimuth undefined")
    rho = math.sqrt(rho2)
    rho_r2 = rho * r2
    d_az = np.array([-gy / rho2, gx / rho2, 0.0])
    d_el = np.array([-gx * gz / rho_r2, -gy * gz / rho_r2, rho / r2])
    return d_az, d_el


def _path_geometry(u, kind: LandmarkType, x, bs_position):
    """Return (path_length, aoa_direction, aod_direction) for the landmark kind.

    ``u`` and ``x`` are the UE and landmark positions.  Directions are
    unnormalized global-frame vectors: the AOA direction points from the UE
    toward the apparent source, the AOD direction from the BS toward the
    departure target.
    """
    if kind is LandmarkType.BS:
        d, rng = _direction(x - u, "UE-BS")
        return rng, d, u - x
    if kind is LandmarkType.VA:
        d, rng = _direction(x - u, "UE-VA")
        bs = np.asarray(bs_position, dtype=float)
        nu_raw, span = _direction(x - bs, "BS-VA")
        nu = nu_raw / span
        # Mirroring VA->UE across the surface gives the BS->incidence ray.
        aod = (u - x) - 2.0 * nu * (nu @ (u - x))
        return rng, d, aod
    if kind is LandmarkType.SP:
        bs = np.asarray(bs_position, dtype=float)
        d2, leg2 = _direction(x - u, "UE-SP")
        _, leg1 = _direction(x - bs, "BS-SP")
        return leg1 + leg2, d2, x - bs
    raise ValueError(f"unknown landmark kind {kind!r}")


def measure(ue: UEState, lm: Landmark, bs_position) -> np.ndarray:
    """Noise-free channel parameters [toa, aoa_az, aoa_el, aod_az, aod_el].

    The TOA is the path length in meters plus the UE clock bias.  AOA
    azimuth is relative to the UE heading; all angles wrapped to (-pi, pi].
    """
    return _measure(ue.position, ue.heading, ue.clock_bias, lm.kind,
                    lm.position, bs_position)


def _measure(u, heading: float, bias: float, kind: LandmarkType, x,
             bs_position) -> np.ndarray:
    path, g_aoa, g_aod = _path_geometry(u, kind, x, bs_position)
    aoa_az, aoa_el = _azimuth_elevation(g_aoa)
    aod_az, aod_el = _azimuth_elevation(g_aod)
    return np.array([
        path + bias,
        _wrap_scalar(aoa_az - heading),
        aoa_el,
        aod_az,
        aod_el,
    ])


def measure_jacobian(ue: UEState, lm: Landmark, bs_position) -> np.ndarray:
    """Analytic 5x8 Jacobian of :func:`measure`.

    Columns stack the joint state [ue position (3), heading, clock bias,
    landmark position (3)].
    """
    return _measure_jacobian(ue.position, lm.kind, lm.position, bs_position)


#: Read-only 3x3 identity for the VA mirror Jacobian.
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def _measure_jacobian(u, kind: LandmarkType, x, bs_position) -> np.ndarray:
    H = np.zeros((5, 8))
    H[0, 4] = 1.0  # bias enters the delay additively

    # AOA rows: the apparent source is the landmark itself for every kind.
    g_aoa, n_aoa = _direction(x - u, "UE-landmark")
    e = g_aoa / n_aoa
    d_az, d_el = _angle_gradients(g_aoa)
    H[1, 0:3] = -d_az
    H[1, 5:8] = d_az
    H[1, 3] = -1.0
    H[2, 0:3] = -d_el
    H[2, 5:8] = d_el

    if kind is LandmarkType.BS:
        H[0, 0:3] = -e
        H[0, 5:8] = e
        d_az2, d_el2 = _angle_gradients(u - x)
        H[3, 0:3] = d_az2
        H[3, 5:8] = -d_az2
        H[4, 0:3] = d_el2
        H[4, 5:8] = -d_el2
    elif kind is LandmarkType.VA:
        H[0, 0:3] = -e
        H[0, 5:8] = e
        bs = np.asarray(bs_position, dtype=float)
        span_vec, span = _direction(x - bs, "BS-VA")
        nu = span_vec / span
        nu_nu = np.outer(nu, nu)
        R = _EYE3 - 2.0 * nu_nu
        N = (_EYE3 - nu_nu) / span  # d nu / d x
        d = u - x
        g_aod = R @ d
        # g = R(nu(x)) d(x, u):  dg/du = R,  dg/dx per product rule.
        dg_dx = -R - 2.0 * (nu @ d) * N - 2.0 * np.outer(nu, N @ d)
        d_az2, d_el2 = _angle_gradients(g_aod)
        H[3, 0:3] = d_az2 @ R
        H[3, 5:8] = d_az2 @ dg_dx
        H[4, 0:3] = d_el2 @ R
        H[4, 5:8] = d_el2 @ dg_dx
    elif kind is LandmarkType.SP:
        bs = np.asarray(bs_position, dtype=float)
        leg1_vec, leg1 = _direction(x - bs, "BS-SP")
        e1 = leg1_vec / leg1
        H[0, 0:3] = -e
        H[0, 5:8] = e1 + e
        d_az2, d_el2 = _angle_gradients(x - bs)
        H[3, 5:8] = d_az2
        H[4, 5:8] = d_el2
    else:
        raise ValueError(f"unknown landmark kind {kind!r}")
    return H


def detection_probability(ue: UEState, lm: Landmark, p_detect=0.9,
                          fov_radius: float = 50.0) -> float:
    """Probability that the landmark produces a measurement.

    BS and VA paths are always visible; an SP is visible only within
    ``fov_radius`` meters of the UE.  ``p_detect`` may be a scalar or a
    mapping from :class:`LandmarkType`.
    """
    if isinstance(p_detect, dict):
        pd = float(p_detect.get(lm.kind, 0.0))
    else:
        pd = float(p_detect)
    return _visible(ue.position, lm.kind, lm.position, pd, fov_radius)


def _visible(u, kind: LandmarkType, x, pd: float, fov_radius: float) -> float:
    if kind is LandmarkType.SP:
        if np.linalg.norm(x - u) > fov_radius:
            return 0.0
    return pd


# Clamp keeping misdetection weights strictly positive even for p_detect = 1.
MAX_P_DETECT = 1.0 - 1e-9


@dataclass(frozen=True)
class ChannelModel:
    """Measurement-model facade the filter core works against.

    Wraps the channel geometry with the known BS anchor position and the
    detection model.  Any object with the same methods (``predict``,
    ``jacobians``, ``detection_probability``, ``invert``, ``wrap_residual``)
    can be substituted, e.g. linear toys in tests.  ``wrap_residual`` takes
    one residual or a stack of them, one per row.
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

    def predict(self, sensor_mean, lm_position, kind: LandmarkType) -> np.ndarray:
        u, heading, bias = self._sensor(sensor_mean)
        return _measure(u, heading, bias, kind,
                        _finite_point(lm_position, "landmark"), self.bs_position)

    def jacobians(self, sensor_mean, lm_position, kind: LandmarkType):
        """(H_sensor, H_landmark) blocks of the measurement Jacobian."""
        u, _, _ = self._sensor(sensor_mean)
        H = _measure_jacobian(u, kind, _finite_point(lm_position, "landmark"),
                              self.bs_position)
        return H[:, :5], H[:, 5:]

    def detection_probability(self, sensor_mean, lm_position,
                              kind: LandmarkType) -> float:
        u, _, _ = self._sensor(sensor_mean)
        return _visible(u, kind, _finite_point(lm_position, "landmark"),
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
