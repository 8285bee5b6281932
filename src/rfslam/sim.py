"""Ground-truth scenario generation and measurement synthesis.

The reference scenario mirrors a bistatic urban setup: one BS, four
reflecting walls (virtual anchors mirrored across them), four scatterers
near the walls, and a UE driving a counterclockwise constant-turn loop
around the BS.  Measurements are synthesized directly at the channel-
parameter level: per-landmark detections with additive Gaussian noise plus
uniform Poisson clutter over the measurement space.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .density import GaussianComponent
from .geometry import (
    MIN_LEG,
    Landmark,
    LandmarkType,
    Plane,
    UEState,
    _norm,
    _wrap_scalar,
    measure_all,
    measurements_with_covariance,
    mirror_bs,
    wrap_angle,
)
from .motion import _is_covariance_5x5, sensor_transition

#: Measurement-space volume for clutter: range 200 m x azimuth 2pi x
#: elevation pi, twice (arrival and departure).  Intensity = mean / volume.
CLUTTER_VOLUME = 200.0 * (2.0 * math.pi) ** 2 * math.pi ** 2
SENSING_RANGE = 200.0

#: Largest mean clutter count per step.  Each measurement is a row and a
#: birth column of a dense float64 cost matrix per global hypothesis, so a
#: step at this mean builds matrices of 8e8 bytes (0.8 GB) each.  (numpy's
#: Poisson sampler refuses means above about 9.2e18.)
MAX_CLUTTER_MEAN = 1e4
#: Filter steps one campaign may hold over its MC runs (mc x steps).  A run
#: keeps each step's record, about 2.5 kB with its part of the report text,
#: until the campaign writes its report: 1 GB at this bound.
MAX_CAMPAIGN_STEPS = 400_000


@dataclass(frozen=True)
class Scenario:
    """Ground truth: landmarks, UE initialization, motion and noise models."""

    bs: Landmark
    vas: tuple          # (Landmark, Plane) pairs
    sps: tuple          # Landmark
    ue_init: GaussianComponent       # over [x, y, z, heading, bias]
    process_noise: np.ndarray        # 5x5
    speed: float
    turn_rate: float
    dt: float
    steps: int
    noise_std: np.ndarray            # per-channel-parameter std, 5-vector
    p_detect: dict = field(default_factory=lambda: {
        LandmarkType.BS: 0.9, LandmarkType.VA: 0.9, LandmarkType.SP: 0.9})
    fov_radius: float = 50.0
    clutter_mean: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "process_noise",
                           np.asarray(self.process_noise, dtype=float))
        object.__setattr__(self, "noise_std",
                           np.asarray(self.noise_std, dtype=float))
        object.__setattr__(self, "ue_init", GaussianComponent(
            np.asarray(self.ue_init.mean, dtype=float),
            np.asarray(self.ue_init.covariance, dtype=float)))
        object.__setattr__(self, "vas", tuple(self.vas))
        object.__setattr__(self, "sps", tuple(self.sps))
        # A range error caught here would otherwise end in a traceback, a
        # numerical failure, or a silent run with wrong physics.
        if set(self.p_detect) != set(LandmarkType):
            raise ValueError("p_detect must name BS, VA and SP")
        for kind, pd in self.p_detect.items():
            if not 0.0 <= pd <= 1.0:
                raise ValueError(f"p_detect of {kind.value} must be in [0, 1]")
        if not 0.0 < self.fov_radius < math.inf:
            raise ValueError("fov_radius must be finite and > 0")
        if not 0.0 <= self.clutter_mean <= MAX_CLUTTER_MEAN:
            raise ValueError("clutter_mean must be >= 0 and <= "
                             f"{MAX_CLUTTER_MEAN:g}")
        if self.noise_std.shape != (5,) or not all(
                0.0 < std < math.inf for std in self.noise_std.tolist()):
            raise ValueError("noise_std must be 5 entries, finite and > 0")
        # The one measurement covariance of every step, checked here once.
        # A diagonal matrix is positive definite when its entries are, so a
        # std whose square underflows to 0 or overflows to inf is refused.
        with np.errstate(over="ignore"):
            noise_cov = np.diag(self.noise_std ** 2)
        if not all(0.0 < var < math.inf
                   for var in noise_cov.diagonal().tolist()):
            raise ValueError("noise_std must square to variances finite "
                             "and > 0")
        noise_cov.flags.writeable = False
        object.__setattr__(self, "_measurement_cov", noise_cov)
        for name, cov in (("process_noise", self.process_noise),
                          ("ue_init.cov", self.ue_init.covariance)):
            if not _is_covariance_5x5(cov):
                raise ValueError(f"{name} must be a finite, symmetric, "
                                 "positive semi-definite 5x5 matrix")
        mean = self.ue_init.mean
        if mean.shape != (5,) or not np.isfinite(mean).all():
            raise ValueError("ue_init.mean must be a finite 5-vector")
        for name in ("speed", "turn_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("steps", "seed"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer")
            object.__setattr__(self, name, int(value))
        if not 1 <= self.steps <= MAX_CAMPAIGN_STEPS:
            raise ValueError(f"steps must be >= 1 and <= {MAX_CAMPAIGN_STEPS}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 <= self.dt < math.inf:
            raise ValueError("dt must be finite and >= 0")
        for va, plane in self.vas:
            mirrored = mirror_bs(self.bs.position, plane.point, plane.normal)
            if not np.allclose(mirrored, va.position, atol=1e-9):
                raise ValueError("VA inconsistent with its reflecting surface")
        for lm in self.landmarks()[1:]:
            if _norm(lm.position - self.bs.position) < MIN_LEG:
                raise ValueError(f"{lm.kind.value} at the BS position "
                                 f"{lm.position.tolist()}: its BS-"
                                 f"{lm.kind.value} direction is undefined")

    @property
    def clutter_intensity(self) -> float:
        return self.clutter_mean / CLUTTER_VOLUME

    def landmarks(self):
        return ([self.bs] + [va for va, _ in self.vas] + list(self.sps))

    def measurement_covariance(self) -> np.ndarray:
        """diag(noise_std^2), read-only: positive definite and finite."""
        return self._measurement_cov


def default_scenario(seed: int = 0, steps: int = 40) -> Scenario:
    """The reference scenario: BS at [0, 0, 40], four walls, four scatterers.

    The UE starts at [70.7285, 0, 0] heading north with a 300 m clock bias
    and loops counterclockwise around the BS in 40 half-second steps.
    """
    bs = Landmark(LandmarkType.BS, [0.0, 0.0, 40.0])
    walls = [
        Plane([100.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
        Plane([-100.0, 0.0, 0.0], [-1.0, 0.0, 0.0]),
        Plane([0.0, 100.0, 0.0], [0.0, 1.0, 0.0]),
        Plane([0.0, -100.0, 0.0], [0.0, -1.0, 0.0]),
    ]
    vas = tuple(
        (Landmark(LandmarkType.VA, mirror_bs(bs.position, p.point, p.normal)), p)
        for p in walls)
    sps = tuple(Landmark(LandmarkType.SP, pos) for pos in
                ([99.0, 0.0, 10.0], [-99.0, 0.0, 10.0],
                 [0.0, 99.0, 10.0], [0.0, -99.0, 10.0]))
    ue_init = GaussianComponent(
        np.array([70.7285, 0.0, 0.0, math.pi / 2, 300.0]),
        np.diag([0.3, 0.3, 0.0, 0.0052, 0.3]))
    return Scenario(
        bs=bs, vas=vas, sps=sps, ue_init=ue_init,
        process_noise=np.diag([0.2, 0.2, 0.0, 0.001, 0.2]),
        speed=22.22, turn_rate=math.pi / 10.0, dt=0.5, steps=steps,
        noise_std=np.array([0.1, 0.005, 0.005, 0.005, 0.005]),
        seed=seed)


def _sample_gaussian(rng, cov: np.ndarray) -> np.ndarray:
    # Eigen-based sampling: tolerates the zero rows of a singular Q.
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
    scale = np.sqrt(np.clip(vals, 0.0, None))
    return vecs @ (scale * rng.standard_normal(cov.shape[0]))


def simulate_trajectory(scenario: Scenario, rng=None):
    """Ground-truth UE states [s_0 .. s_steps] under the noisy turn model."""
    if rng is None:
        rng = np.random.default_rng(scenario.seed)
    states = [UEState.from_vector(scenario.ue_init.mean)]
    for _ in range(scenario.steps):
        vec = sensor_transition(states[-1].as_vector(), scenario.speed,
                                scenario.turn_rate, scenario.dt)
        vec = vec + _sample_gaussian(rng, scenario.process_noise)
        vec[3] = wrap_angle(vec[3])
        states.append(UEState.from_vector(vec))
    return states


@dataclass(frozen=True)
class MeasurementSet:
    """Measurements of one step plus diagnostic truth labels.

    ``labels[i]`` is the index into ``scenario.landmarks()`` that produced
    measurement ``i``, or -1 for clutter.  Labels are never shown to the
    filter.
    """

    measurements: tuple
    labels: tuple


def _clamp_elevation(el: float) -> float:
    """``float(np.clip(el, -pi/2, pi/2))`` of one float, bit for bit."""
    return min(max(el, -math.pi / 2), math.pi / 2)


def generate_measurements(ue: UEState, scenario: Scenario,
                          rng) -> MeasurementSet:
    """Detections with additive noise, plus uniform Poisson clutter, shuffled."""
    cov = scenario.measurement_covariance()
    std = scenario.noise_std
    vectors, labels = [], []
    landmarks = scenario.landmarks()
    truth = measure_all(ue, landmarks, scenario.bs.position,
                        scenario.fov_radius)
    for idx, (lm, z) in enumerate(zip(landmarks, truth)):
        # An SP beyond the field of view, or a path the geometry cannot
        # form, is missed: the filter's detection rule.
        pd = 0.0 if z is None else scenario.p_detect[lm.kind]
        if rng.uniform() >= pd:
            continue
        toa, aoa_az, aoa_el, aod_az, aod_el = (
            z + std * rng.standard_normal(5)).tolist()
        vectors.append(np.array([toa, _wrap_scalar(aoa_az),
                                 _clamp_elevation(aoa_el),
                                 _wrap_scalar(aod_az),
                                 _clamp_elevation(aod_el)]))
        labels.append(idx)
    for _ in range(rng.poisson(scenario.clutter_mean)):
        vectors.append(np.array([
            rng.uniform(0.0, SENSING_RANGE),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi / 2, math.pi / 2),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi / 2, math.pi / 2),
        ]))
        labels.append(-1)
    # Every measurement shares the scenario's covariance, checked with it.
    measurements = measurements_with_covariance(vectors, cov)
    order = rng.permutation(len(measurements))
    return MeasurementSet(
        measurements=tuple(measurements[i] for i in order),
        labels=tuple(labels[i] for i in order))


# ---------------------------------------------------------------------------
# Scenario files

def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "bs": scenario.bs.position.tolist(),
        "vas": [{"position": va.position.tolist(),
                 "plane_point": plane.point.tolist(),
                 "plane_normal": plane.normal.tolist()}
                for va, plane in scenario.vas],
        "sps": [sp.position.tolist() for sp in scenario.sps],
        "ue_init": {"mean": scenario.ue_init.mean.tolist(),
                    "cov": scenario.ue_init.covariance.tolist()},
        "process_noise": scenario.process_noise.tolist(),
        "speed": scenario.speed,
        "turn_rate": scenario.turn_rate,
        "dt": scenario.dt,
        "steps": scenario.steps,
        "noise_std": scenario.noise_std.tolist(),
        "p_detect": {k.value: v for k, v in scenario.p_detect.items()},
        "fov_radius": scenario.fov_radius,
        "clutter_mean": scenario.clutter_mean,
        "seed": scenario.seed,
    }


_NUMBER = (float, int)
#: The JSON types each scenario-file key accepts, checked as the run config
#: file checks its keys: a bool is no number, steps and seed take integers,
#: and an array is a list whose entries :func:`_numbers` checks.
_SCENARIO_KEYS = {
    "bs": (list,), "vas": (list,), "sps": (list,), "ue_init": (dict,),
    "process_noise": (list,), "noise_std": (list,), "p_detect": (dict,),
    "speed": _NUMBER, "turn_rate": _NUMBER, "dt": _NUMBER, "steps": (int,),
    "fov_radius": _NUMBER, "clutter_mean": _NUMBER, "seed": (int,)}
_NOUNS = {float: "a number", int: "an integer", bool: "true or false",
          str: "a string", list: "a list", dict: "an object"}


def _typed(name: str, value, kinds: tuple):
    """``value`` as written; ValueError if its JSON type is not in ``kinds``,
    or if it is an integer for a number key that no float can hold (JSON
    integers have no size limit)."""
    if type(value) not in kinds:
        raise ValueError(f"{name} must be {_NOUNS[kinds[0]]}, not {value!r}")
    if type(value) is int and float in kinds:
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} must be a number, not an integer too "
                             "large for a float") from None
    return value


def _object(name: str, value, keys) -> dict:
    """``value`` if it is a JSON object with no key outside ``keys``."""
    for key in _typed(name, value, (dict,)):
        if key not in keys:
            raise ValueError(f"{name} has unknown key {key!r}")
    return value


def _numbers(name: str, value, depth: int = 2):
    """A JSON number, or lists of them nested at most ``depth`` deep (a
    scenario's matrices are two), with every entry checked by
    :func:`_typed`: numpy would coerce a bool or a numeric string.  Shapes
    are left to the scenario's own checks."""
    if type(value) is not list:
        return _typed(f"{name} entry", value, _NUMBER)
    if not depth:
        raise ValueError(f"{name} nests lists deeper than a matrix")
    return [_numbers(name, v, depth - 1) for v in value]


def scenario_from_dict(doc: dict) -> Scenario:
    """The scenario a file describes; a key the file leaves out takes the
    :class:`Scenario` default."""
    fields = {}
    for key, value in _object("top level", doc, _SCENARIO_KEYS).items():
        kinds = _SCENARIO_KEYS[key]
        # kinds[0] makes a number key a float also where the file has an int.
        fields[key] = kinds[0](_typed(key, value, kinds))
    if "p_detect" in fields:
        fields["p_detect"] = {
            LandmarkType(k): float(_typed(f"p_detect of {k}", v, _NUMBER))
            for k, v in fields["p_detect"].items()}
    vas = [_object("vas entry", entry, ("position", "plane_point",
                                        "plane_normal"))
           for entry in fields.pop("vas")]
    ue_init = _object("ue_init", fields.pop("ue_init"), ("mean", "cov"))
    return Scenario(
        bs=Landmark(LandmarkType.BS, _numbers("bs", fields.pop("bs"))),
        vas=tuple(
            (Landmark(LandmarkType.VA,
                      _numbers("vas position", entry["position"])),
             Plane(_numbers("vas plane_point", entry["plane_point"]),
                   _numbers("vas plane_normal", entry["plane_normal"])))
            for entry in vas),
        sps=tuple(Landmark(LandmarkType.SP, _numbers("sps", pos))
                  for pos in fields.pop("sps")),
        ue_init=GaussianComponent(_numbers("ue_init.mean", ue_init["mean"]),
                                  _numbers("ue_init.cov", ue_init["cov"])),
        process_noise=_numbers("process_noise", fields.pop("process_noise")),
        noise_std=_numbers("noise_std", fields.pop("noise_std")),
        **fields,
    )


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)


def _read_json(path):
    """The JSON document in file ``path``; ValueError, as for any other
    malformed document, when it nests too deeply to decode."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply to decode") from None


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_read_json(path))
