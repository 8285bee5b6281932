"""Filter core: EK prediction, joint sensor-landmark update, step loop.

One step runs the recursion: predict the sensor through the constant-turn
model of :mod:`rfslam.motion` (the map is static, so the density passes
through the prediction unchanged), then for each global hypothesis build
the association cost matrix, rank the best ``gamma`` associations, and
perform a joint extended-Kalman update of the sensor together with every
re-detected landmark (all landmark types stacked, the measurement
replicated per type with a fully correlated noise block).  The local
weights, type predictions and birth candidates all come from the cost
matrix of :mod:`rfslam.association`, held by one :class:`ChildParts` per
hypothesis.  The sensor posterior is the moment-matched mixture over all
children.  In PMB mode the resulting mixture is reduced back to a single
hypothesis by the track-oriented recombination in :mod:`rfslam.reduction`.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import reduction
from .association import (
    DEFAULT_GATE,
    AssociationVector,
    build_cost_matrix,
    chol_solve,
    murty_kbest,
)
from .density import (
    MAP_REGION_VOLUME,
    Bernoulli,
    DegenerateDensityError,
    GaussianComponent,
    GlobalHypothesis,
    LandmarkBelief,
    PmbmDensity,
    TypeComponent,
    absent_bernoulli,
    merge_bernoullis,
    moment_match,
    prune,
    sum_in_order,
    symmetrize,
)
from .geometry import LandmarkType
from .motion import (
    _is_covariance_5x5,
    sensor_transition,
    sensor_transition_jacobian,
)

EK_PMB = "ek-pmb"
EK_PMBM = "ek-pmbm"

#: Housekeeping after each update: the existence and hypothesis-weight
#: pruning floors, the hypothesis cap and the merge gate of :mod:`density`.
PRUNE_EXISTENCE = 1e-4
PRUNE_HYPOTHESIS = 1e-4
MAX_HYPOTHESES = 50
MERGE_THRESHOLD = 50.0


@dataclass(frozen=True)
class FilterConfig:
    """Everything a filter step needs besides the densities themselves."""

    model: object                       # measurement model (e.g. ChannelModel)
    process_noise: np.ndarray           # Q over the 5-D sensor state
    speed: float = 22.22                # translation speed (m/s)
    turn_rate: float = math.pi / 10.0   # rad/s
    dt: float = 0.5                     # sampling interval (s)
    gamma: int = 10                     # ranked associations per hypothesis
    filter_kind: str = EK_PMB
    clutter_intensity: float = 1.0 / (800.0 * math.pi ** 4)
    gate: Optional[float] = DEFAULT_GATE
    multi_model: bool = True            # False: hard type decision at birth
    # Landmark-type components below this posterior probability are dropped
    # (their replicated measurement rows would otherwise keep enforcing a
    # stale zero-noise cross-type constraint on the sensor).  0 keeps every
    # type component forever.
    type_prune: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "process_noise",
                           np.asarray(self.process_noise, dtype=float))
        if not 0.0 <= self.dt < math.inf:
            raise ValueError("dt must be finite and >= 0")
        if not (math.isfinite(self.speed) and math.isfinite(self.turn_rate)):
            raise ValueError("speed and turn_rate must be finite")
        if self.gate is not None and not 0.0 < self.gate < math.inf:
            raise ValueError("gate must be None or finite and > 0")
        if not 0.0 <= self.type_prune < 1.0:
            raise ValueError("type_prune must be in [0, 1)")
        if (isinstance(self.gamma, bool)
                or not isinstance(self.gamma, numbers.Integral)
                or self.gamma < 1):
            raise ValueError("gamma must be an integer >= 1")
        if not isinstance(self.multi_model, bool):
            raise ValueError("multi_model must be a bool")
        if not _is_covariance_5x5(self.process_noise):
            raise ValueError("process_noise must be a finite, symmetric, "
                             "positive semi-definite 5x5 matrix")
        if self.filter_kind not in (EK_PMB, EK_PMBM):
            raise ValueError(f"unknown filter kind {self.filter_kind!r}")
        if not (math.isfinite(self.clutter_intensity)
                and self.clutter_intensity >= 0.0):
            raise ValueError("clutter intensity must be finite and >= 0")


def thin_ppp(ppp: dict, config: FilterConfig) -> dict:
    """Scale undetected-landmark rates by the constant misdetection mass.

    The per-type constant is the model's detection probability, scaled for
    SPs by the FOV-to-region volume fraction: an undetected SP drawn
    uniformly over the region is almost surely outside the field of view,
    so its intensity must not decay at the in-FOV rate.
    """
    p_detect = dict(getattr(config.model, "p_detect", {}))
    fov = getattr(config.model, "fov_radius", None)
    if fov is not None and LandmarkType.SP in p_detect:
        half_ball = (2.0 / 3.0) * math.pi * fov ** 3
        fraction = min(1.0, half_ball / MAP_REGION_VOLUME)
        p_detect[LandmarkType.SP] = p_detect[LandmarkType.SP] * fraction
    return {kind: rate * (1.0 - p_detect.get(kind, 0.0))
            for kind, rate in ppp.items()}


def marginalize_sensor(children) -> GaussianComponent:
    """Moment-matched sensor Gaussian over weighted per-association posteriors."""
    children = list(children)
    weights = np.array([w for w, _ in children])
    if abs(weights.sum() - 1.0) > 1e-6:
        raise ValueError("child weights must sum to 1 within 1e-6")
    if len(children) == 1:
        return children[0][1]
    # The weights already sum to one, and x / 1.0 is exact.
    mean, cov = moment_match(
        [(weights.tolist(), [g for _, g in children], 1.0)])
    return GaussianComponent(mean[0], cov[0])


def update_type_probs(masses: dict) -> dict:
    """Posterior type probabilities: per-type masses normalized to one.

    All-zero (or non-finite) mass falls back to uniform, with a
    RuntimeWarning.
    """
    total = sum_in_order(masses.values())
    if total <= 0.0 or not math.isfinite(total):
        warnings.warn("all-zero type-probability mass; falling back to uniform",
                      RuntimeWarning, stacklevel=2)
        return {k: 1.0 / len(masses) for k in masses}
    return {k: v / total for k, v in masses.items()}


def _type_posterior(masses: dict, config: FilterConfig, hard: bool) -> dict:
    """Posterior type probabilities of a local hypothesis from its per-type
    masses: the one rule of all three local hypotheses (detected,
    misdetected, newborn), each of whose local weights returns its masses.

    :func:`update_type_probs` normalizes the masses; with ``hard`` (a birth
    when ``multi_model`` is off) only the most probable type, the first of
    equals, is kept.  Types below ``type_prune`` are then dropped, always
    keeping the strongest, and the rest renormalized.
    """
    psi = update_type_probs(masses)
    if hard:
        best = max(psi, key=psi.get)
        psi = {best: psi[best]}
    kept = {k: v for k, v in psi.items() if v >= config.type_prune}
    if not kept:
        best = max(psi, key=psi.get)
        kept = {best: psi[best]}
    total = sum_in_order(kept.values())
    return {k: v / total for k, v in kept.items()}


def _local_bernoulli(existence: float, masses: dict, comps: dict,
                     config: FilterConfig, hard: bool) -> Bernoulli:
    """A misdetected or newborn Bernoulli: the type posterior of ``masses``
    over the Gaussians ``comps`` holds per type."""
    psi = _type_posterior(masses, config, hard)
    return Bernoulli(existence, LandmarkBelief({
        k: TypeComponent(psi[k], comps[k].mean, comps[k].covariance)
        for k in psi}))


class ChildParts:
    """One hypothesis's association costs and the pieces of its children
    that no association changes.

    The constructor makes the hypothesis's one :func:`build_cost_matrix`
    call and keeps its results: ``costs``, ``log_const`` (sum_i ln l^{i,0},
    which turns an association's cost back into its weight) and ``ctx``.
    A misdetected landmark's Bernoulli, a detected landmark's posterior type
    probabilities, its innovation per type (against ``measurements[p]``) and
    the types it stacks, and a newborn Bernoulli are pure functions of the
    hypothesis and the landmark and/or measurement, so every ranked
    association of the hypothesis shares them (track-oriented PMBM children
    share their per-track local hypotheses).  Each is built on first use,
    from the weights ``ctx`` holds.
    """

    def __init__(self, hypothesis: GlobalHypothesis, measurements,
                 sensor: GaussianComponent, ppp: dict, config: FilterConfig):
        self.hypothesis = hypothesis
        self.measurements = measurements
        self.sensor = sensor
        self.config = config
        self.costs, self.log_const, self.ctx = build_cost_matrix(
            hypothesis, measurements, sensor, ppp, config.clutter_intensity,
            config.model, gate=config.gate)
        self._misdetected = {}
        self._detections = {}
        self._born = {}

    def misdetected(self, i: int) -> Bernoulli:
        """Landmark ``i`` after a misdetection."""
        bern = self._misdetected.get(i)
        if bern is None:
            prior = self.hypothesis.bernoullis[i]
            masses, survive, l0 = self.ctx.misdetection[i]
            bern = self._misdetected[i] = _local_bernoulli(
                prior.existence * survive / l0 if l0 > 0.0 else 0.0, masses,
                prior.belief.types, self.config, hard=False)
        return bern

    def detection(self, i: int, p: int) -> tuple:
        """``(psi, stack)`` of landmark ``i`` detected by ``p``: its pruned
        posterior type probabilities, and one ``(kind, prior component,
        prediction, innovation)`` per type of them with a prediction, in
        their order -- the types the joint update stacks.  LinAlgError when
        the cost matrix ruled the pair out.
        """
        found = self._detections.get((i, p))
        if found is None:
            pair = self.ctx.pairs.get((i, p))
            if pair is None:
                raise np.linalg.LinAlgError(
                    f"landmark {i} detected by measurement {p}, but no type "
                    "with valid geometry explains it inside the gate")
            masses, rows = pair
            psi = _type_posterior(masses, self.config, hard=False)
            comps = self.hypothesis.bernoullis[i].belief.types
            preds = self.ctx.type_preds[i]
            found = self._detections[(i, p)] = (psi, tuple(
                (kind, comps[kind], preds[kind], rows[kind])
                for kind in psi if kind in rows))
        return found

    def born(self, p: int) -> Bernoulli:
        """The Bernoulli measurement ``p`` starts."""
        bern = self._born.get(p)
        if bern is None:
            cand = self.ctx.births[p]
            # A measurement explained as clutter keeps its slot with zero
            # existence.
            bern = self._born[p] = (_local_bernoulli(
                cand.existence, cand.masses, cand.comps, self.config,
                hard=not self.config.multi_model) if cand.masses
                else absent_bernoulli())
        return bern


def joint_update(parts: ChildParts, sigma: AssociationVector):
    """Joint EK update of the sensor and all landmarks under one association.

    ``parts`` gives the hypothesis, the predicted sensor, the measurements,
    the config and the association context; ``sigma`` is one association of
    that hypothesis.  Returns ``(child hypothesis, sensor posterior)``.
    The child keeps the parent weight; callers reweight.

    One block per stacked (landmark, type) lays out the system: its slice of
    the state, after the sensor's, and its rows, which replicate the
    landmark's measurement.  A detected landmark stacks every type of its
    pruned posterior that has a prediction; a type without one keeps its
    prior Gaussian.  A singular innovation covariance is retried once with
    1e-9 I added; raises ``numpy.linalg.LinAlgError`` when it stays singular
    (the association is then discarded).
    """
    hypothesis = parts.hypothesis
    sensor, measurements = parts.sensor, parts.measurements
    sigma.validate()
    berns = hypothesis.bernoullis
    if len(berns) != sigma.n_prior or len(measurements) != sigma.n_meas:
        raise ValueError("association vector inconsistent with inputs")
    # Posterior type probabilities first: type components whose probability
    # collapses are dropped from the stack, so their replicated-measurement
    # rows cannot force a stale cross-type constraint onto the sensor.
    detections = {i: (p, *parts.detection(i, p))
                  for i, p in sigma.detected_pairs()}

    ds = sensor.dim
    # Per stacked type: (landmark, type, prior component, prediction,
    # innovation, state slice, row slice); per landmark: (measurement
    # covariance, stacked types, row span).
    blocks, spans = [], []
    n_state, n_rows = ds, 0
    for i, (p, _, stack) in detections.items():
        first, cov_z = n_rows, measurements[p].covariance
        dz = cov_z.shape[0]
        for kind, comp, pred, v in stack:
            dx = comp.mean.size
            blocks.append((i, kind, comp, pred, v,
                           slice(n_state, n_state + dx),
                           slice(n_rows, n_rows + dz)))
            n_state += dx
            n_rows += dz
        spans.append((cov_z, len(stack), slice(first, n_rows)))

    sensor_post, posterior = sensor, {}
    if blocks:
        mean = np.zeros(n_state)
        cov = np.zeros((n_state, n_state))
        H = np.zeros((n_rows, n_state))
        R = np.zeros((n_rows, n_rows))
        innovation = np.zeros(n_rows)
        mean[:ds] = sensor.mean
        cov[:ds, :ds] = sensor.covariance
        for _, _, comp, pred, v, state, rows in blocks:
            mean[state] = comp.mean
            cov[state, state] = comp.covariance
            H[rows, :ds] = pred.H_s
            H[rows, state] = pred.H_x
            innovation[rows] = v
        # Replicated measurement noise is fully correlated across types:
        # every (type, type) block of a landmark's span is its covariance.
        for cov_z, n_kinds, span in spans:
            dz = cov_z.shape[0]
            R[span, span].reshape(n_kinds, dz, n_kinds, dz)[...] = \
                cov_z[:, None, :]
        S = H @ cov @ H.T + R
        PHt = cov @ H.T
        # S K^T = (P H^T)^T, factored and solved as a one-row stack.
        try:
            _, _, (gain,) = chol_solve(symmetrize(S)[None], PHt.T[None])
        except np.linalg.LinAlgError:
            S = S + 1e-9 * np.eye(n_rows)
            _, _, (gain,) = chol_solve(symmetrize(S)[None], PHt.T[None])
        gain = gain.T
        post_mean = mean + gain @ innovation
        # Diagonal blocks of the symmetrized covariance are exactly symmetric.
        post_cov = symmetrize(cov - gain @ PHt.T)
        sensor_post = GaussianComponent(post_mean[:ds], post_cov[:ds, :ds])
        posterior = {(i, kind): (post_mean[state], post_cov[state, state])
                     for i, kind, _, _, _, state, _ in blocks}

    new_berns = []
    for i, bern in enumerate(berns):
        if i in detections:
            prior = bern.belief.types
            types = {kind: TypeComponent(psi, *posterior.get(
                         (i, kind), (prior[kind].mean, prior[kind].covariance)))
                     for kind, psi in detections[i][1].items()}
            new_berns.append(Bernoulli(1.0, LandmarkBelief(types)))
        else:
            new_berns.append(parts.misdetected(i))

    for p in sigma.born_measurements():
        new_berns.append(parts.born(p))

    child = GlobalHypothesis(hypothesis.weight, tuple(new_berns), assoc=sigma)
    return child, sensor_post


def predict_step(density: PmbmDensity, sensor: GaussianComponent,
                 config: FilterConfig):
    """Prediction half of one filter step: the density passes through, and
    the sensor takes the EK prediction through the turn model, mean v(m)
    and covariance FPF^T + Q."""
    motion = (config.speed, config.turn_rate, config.dt)
    F = sensor_transition_jacobian(sensor.mean, *motion)
    return density, GaussianComponent(
        sensor_transition(sensor.mean, *motion),
        symmetrize(F @ sensor.covariance @ F.T + config.process_noise))


def update_step(density: PmbmDensity, sensor_pred: GaussianComponent,
                measurements, config: FilterConfig):
    """Measurement-update half of one filter step.

    Runs association, the per-association joint updates, the sensor
    marginalization, the PMB reduction when configured, PPP thinning, and
    the pruning/merging housekeeping.
    """
    children = []
    for hyp in density.hypotheses:
        parts = ChildParts(hyp, measurements, sensor_pred,
                           density.ppp_intensity, config)
        for sigma, cost in murty_kbest(parts.costs, config.gamma):
            log_weight = math.log(hyp.weight) + parts.log_const - cost
            try:
                child, child_sensor = joint_update(parts, sigma)
            except np.linalg.LinAlgError:
                continue  # weight redistributed over surviving associations
            children.append((log_weight, child, child_sensor))
    if not children:
        raise DegenerateDensityError("every association failed numerically")

    log_weights = np.array([lw for lw, _, _ in children])
    peak = log_weights.max()
    weights = np.exp(log_weights - peak)
    weights /= weights.sum()

    sensor_post = marginalize_sensor(
        [(w, sensor) for w, (_, _, sensor) in zip(weights, children)])

    ppp_post = thin_ppp(density.ppp_intensity, config)
    hypotheses = tuple(GlobalHypothesis(w, child.bernoullis, child.assoc)
                       for w, (_, child, _) in zip(weights, children))
    posterior = PmbmDensity(ppp_post, hypotheses)

    if config.filter_kind == EK_PMB:
        table = reduction.align_hypotheses(posterior)
        table = reduction.average_conditionals(table)
        mb = reduction.tomb_recombine(table)
        posterior = PmbmDensity(ppp_post, (mb,))

    posterior = prune(posterior, PRUNE_EXISTENCE, PRUNE_HYPOTHESIS,
                      MAX_HYPOTHESES)
    posterior = replace(posterior, hypotheses=tuple(
        merge_bernoullis(h, MERGE_THRESHOLD) for h in posterior.hypotheses))
    return posterior, sensor_post


def step(density: PmbmDensity, sensor: GaussianComponent, measurements,
         config: FilterConfig):
    """One full prediction + update cycle."""
    density_pred, sensor_pred = predict_step(density, sensor, config)
    return update_step(density_pred, sensor_pred, measurements, config)
