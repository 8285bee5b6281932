"""Filter core: EK prediction, joint sensor-landmark update, step loop.

One step runs the recursion: predict the sensor through the constant-turn
model of :mod:`rfslam.motion` (the map is static, so the density passes
through the prediction unchanged), then for each global hypothesis build
the association cost matrix, rank the best ``gamma`` associations, and
perform a joint extended-Kalman update of the sensor together with every
re-detected landmark (all landmark types stacked, the measurement
replicated per type with a fully correlated noise block).  The local
weights, their per-type masses, type predictions and birth candidates all
come from the cost matrix in :mod:`rfslam.association`; misdetected
landmarks reuse its misdetection weight and newborn landmarks its birth
candidates, so every type with a positive PPP rate but the BS can be born.
One :class:`ChildParts` per hypothesis holds its cost matrix and the
pieces a child takes unchanged from its parent (misdetected and newborn
Bernoullis, detected type posteriors), shared by all its ranked
associations; it is :func:`joint_update`'s only input besides the
association.  The sensor posterior is the moment-matched mixture over all
children.  In PMB mode the resulting mixture is reduced back to a single
hypothesis by the track-oriented recombination in :mod:`rfslam.reduction`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import reduction
from .association import (
    DEFAULT_GATE,
    AssociationVector,
    build_cost_matrix,
    chol_factor,
    chol_solve,
    murty_kbest,
    update_type_probs,
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
    symmetrize,
)
from .geometry import LandmarkType
from .motion import sensor_transition, sensor_transition_jacobian

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
    joseph_form: bool = False
    # Landmark-type components below this posterior probability are dropped
    # (their replicated measurement rows would otherwise keep enforcing a
    # stale zero-noise cross-type constraint on the sensor).  0 keeps every
    # type component forever.
    type_prune: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "process_noise",
                           np.asarray(self.process_noise, dtype=float))
        if self.dt < 0.0:
            raise ValueError("dt must be nonnegative")
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.filter_kind not in (EK_PMB, EK_PMBM):
            raise ValueError(f"unknown filter kind {self.filter_kind!r}")


def predict_sensor(belief: GaussianComponent,
                   config: FilterConfig) -> GaussianComponent:
    """EK prediction through the turn model: mean v(m), covariance FPF^T + Q."""
    motion = (config.speed, config.turn_rate, config.dt)
    mean = sensor_transition(belief.mean, *motion)
    F = sensor_transition_jacobian(belief.mean, *motion)
    cov = symmetrize(F @ belief.covariance @ F.T + config.process_noise)
    return GaussianComponent(mean, cov)


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
    mean, cov = moment_match(weights, [g.mean for _, g in children],
                             [g.covariance for _, g in children], 1.0)
    return GaussianComponent(mean, cov)


def _birth_bernoulli(candidate, config: FilterConfig) -> Bernoulli:
    if not candidate.types:
        # Measurement explained as clutter: keep the slot with zero existence.
        return absent_bernoulli()
    types = candidate.types
    if not config.multi_model and len(types) > 1:
        kind = max(types, key=lambda k: types[k].weight)
        types = {kind: types[kind]}
    psi = _prune_type_probs({k: c.weight for k, c in types.items()},
                            config.type_prune)
    types = {k: TypeComponent(psi[k], types[k].mean, types[k].covariance)
             for k in psi}
    return Bernoulli(candidate.existence, LandmarkBelief(types))


def _misdetected_bernoulli(bern: Bernoulli, misdetection: tuple,
                           config: FilterConfig) -> Bernoulli:
    masses, survive, l0 = misdetection
    existence = bern.existence * survive / l0 if l0 > 0.0 else 0.0
    psi = _prune_type_probs(update_type_probs(masses), config.type_prune)
    types = {k: TypeComponent(psi[k], bern.belief.types[k].mean,
                              bern.belief.types[k].covariance)
             for k in psi}
    return Bernoulli(existence, LandmarkBelief(types))


class ChildParts:
    """One hypothesis's association costs and the pieces of its children
    that no association changes.

    The constructor makes the hypothesis's one :func:`build_cost_matrix`
    call and keeps its results: ``costs``, ``log_const`` (sum_i ln l^{i,0},
    which turns an association's cost back into its weight) and ``ctx``.
    A misdetected landmark's Bernoulli, a detected landmark's posterior type
    probabilities and its innovation per type (against ``measurements[p]``),
    and a newborn Bernoulli are pure functions of the hypothesis and the
    landmark and/or measurement, so every ranked association of the
    hypothesis shares them (track-oriented PMBM children share their
    per-track local hypotheses).  Each is built on first use.
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
        self._detected = {}
        self._innovations = {}
        self._born = {}

    def misdetected(self, i: int) -> Bernoulli:
        """Landmark ``i`` after a misdetection."""
        bern = self._misdetected.get(i)
        if bern is None:
            bern = self._misdetected[i] = _misdetected_bernoulli(
                self.hypothesis.bernoullis[i], self.ctx.misdetection[i],
                self.config)
        return bern

    def detected_type_probs(self, i: int, p: int) -> dict:
        """Pruned posterior type probabilities of landmark ``i`` given ``p``;
        LinAlgError when the cost matrix ruled the pair out."""
        psi = self._detected.get((i, p))
        if psi is None:
            masses = self.ctx.pair_masses.get((i, p))
            if masses is None:
                raise np.linalg.LinAlgError(
                    f"landmark {i} detected by measurement {p}, but no type "
                    "with valid geometry explains it inside the gate")
            psi = self._detected[(i, p)] = _prune_type_probs(
                update_type_probs(masses), self.config.type_prune)
        return psi

    def innovation(self, i: int, p: int, kind) -> np.ndarray:
        """Wrapped residual of measurement ``p`` against landmark ``i``'s
        prediction as type ``kind``.

        The cost matrix keeps the residual of every type that contributed
        to the pair's weight.  A stacked type that did not (zero detection
        probability or weight, kept when ``type_prune`` is 0) is wrapped
        here, once.
        """
        v = self.ctx.pair_residuals[(i, p)].get(kind)
        if v is not None:
            return v
        key = (i, p, kind)
        v = self._innovations.get(key)
        if v is None:
            z_pred = self.ctx.type_preds[i][kind].z_pred
            v = self._innovations[key] = self.config.model.wrap_residual(
                self.measurements[p].z - z_pred)
        return v

    def born(self, p: int) -> Bernoulli:
        """The Bernoulli measurement ``p`` starts."""
        bern = self._born.get(p)
        if bern is None:
            bern = self._born[p] = _birth_bernoulli(self.ctx.births[p],
                                                   self.config)
        return bern


def _prune_type_probs(psi: dict, threshold: float) -> dict:
    """Drop negligible-probability types (always keeping the strongest)."""
    kept = {k: v for k, v in psi.items() if v >= threshold}
    if not kept:
        best = max(psi, key=psi.get)
        kept = {best: psi[best]}
    total = sum(kept.values())
    return {k: v / total for k, v in kept.items()}


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
    hypothesis, config = parts.hypothesis, parts.config
    sensor, measurements = parts.sensor, parts.measurements
    sigma.validate()
    berns = hypothesis.bernoullis
    if len(berns) != sigma.n_prior or len(measurements) != sigma.n_meas:
        raise ValueError("association vector inconsistent with inputs")
    detected = dict(sigma.detected_pairs())
    type_preds = parts.ctx.type_preds

    # Posterior type probabilities first: type components whose probability
    # collapses are dropped from the stack, so their replicated-measurement
    # rows cannot force a stale cross-type constraint onto the sensor.
    psi_post = {i: parts.detected_type_probs(i, p) for i, p in detected.items()}

    ds = sensor.dim
    blocks = []   # (landmark, measurement, type, state slice, row slice)
    spans = []    # (measurement, stacked types, row span) per landmark
    n_state, n_rows = ds, 0
    for i, p in detected.items():
        kinds = [k for k in psi_post[i] if type_preds[i][k].z_pred is not None]
        first, dz = n_rows, measurements[p].z.size
        for kind in kinds:
            dx = berns[i].belief.types[kind].mean.size
            blocks.append((i, p, kind, slice(n_state, n_state + dx),
                           slice(n_rows, n_rows + dz)))
            n_state += dx
            n_rows += dz
        spans.append((p, len(kinds), slice(first, n_rows)))

    sensor_post, posterior = sensor, {}
    if blocks:
        mean = np.zeros(n_state)
        cov = np.zeros((n_state, n_state))
        H = np.zeros((n_rows, n_state))
        R = np.zeros((n_rows, n_rows))
        innovation = np.zeros(n_rows)
        mean[:ds] = sensor.mean
        cov[:ds, :ds] = sensor.covariance
        for i, p, kind, state, rows in blocks:
            comp, pred = berns[i].belief.types[kind], type_preds[i][kind]
            mean[state] = comp.mean
            cov[state, state] = comp.covariance
            H[rows, :ds] = pred.H_s
            H[rows, state] = pred.H_x
            innovation[rows] = parts.innovation(i, p, kind)
        # Replicated measurement noise is fully correlated across types.
        for p, n_kinds, span in spans:
            R[span, span] = np.tile(measurements[p].covariance,
                                    (n_kinds, n_kinds))
        S = H @ cov @ H.T + R
        try:
            factor = chol_factor(symmetrize(S))
        except np.linalg.LinAlgError:
            S = S + 1e-9 * np.eye(n_rows)
            factor = chol_factor(symmetrize(S))
        PHt = cov @ H.T
        gain = chol_solve(factor, PHt.T).T
        post_mean = mean + gain @ innovation
        if config.joseph_form:
            A = np.eye(n_state) - gain @ H
            post_cov = A @ cov @ A.T + gain @ R @ gain.T
        else:
            post_cov = cov - gain @ PHt.T
        # Diagonal blocks of the symmetrized covariance are exactly symmetric.
        post_cov = symmetrize(post_cov)
        sensor_post = GaussianComponent(post_mean[:ds], post_cov[:ds, :ds])
        posterior = {(i, kind): (post_mean[state], post_cov[state, state])
                     for i, _, kind, state, _ in blocks}

    new_berns = []
    for i, bern in enumerate(berns):
        if i in detected:
            prior = bern.belief.types
            types = {kind: TypeComponent(psi, *posterior.get(
                         (i, kind), (prior[kind].mean, prior[kind].covariance)))
                     for kind, psi in psi_post[i].items()}
            new_berns.append(Bernoulli(1.0, LandmarkBelief(types)))
        else:
            new_berns.append(parts.misdetected(i))

    for p in sigma.born_measurements():
        new_berns.append(parts.born(p))

    child = GlobalHypothesis(hypothesis.weight, tuple(new_berns), assoc=sigma)
    return child, sensor_post


def predict_step(density: PmbmDensity, sensor: GaussianComponent,
                 config: FilterConfig):
    """Prediction half of one filter step."""
    return density, predict_sensor(sensor, config)


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
    hypotheses = tuple(replace(child, weight=w)
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
