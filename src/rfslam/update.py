"""Filter core: EK prediction, joint sensor-landmark update, step loop.

One step runs the recursion: predict the sensor through the constant-turn
model of :mod:`rfslam.motion` (the map is static, so the density passes
through the prediction unchanged), then for each global hypothesis build
the association cost matrix of :mod:`rfslam.association` (one
:class:`ChildParts`), rank the best ``gamma`` associations, and update the
sensor jointly with every re-detected landmark, in information form: the
terms of each type of each detected pair once per hypothesis, then every
ranked association in one stacked pass (:func:`joint_update`).  An
association that detects a pair with a singular innovation covariance is
dropped.  The sensor posterior is the moment-matched mixture over all
children; PMB reduces them to one hypothesis (:mod:`rfslam.reduction`), and
gives each detected pair one Bernoulli, already averaged over the
associations that hold it (:func:`update_step`).
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
    # Landmark-type components below this posterior probability are dropped,
    # so a type the measurements have ruled out costs no later work.  0
    # keeps every type component forever.
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
    """Posterior type probabilities of a local hypothesis (detected,
    misdetected or newborn) from the per-type masses its local weight
    returns: :func:`update_type_probs` of them, without the types below
    ``type_prune``, renormalized.  The strongest type, the first of equals,
    always stays, and with ``hard`` (a birth when ``multi_model`` is off)
    only it stays."""
    psi = update_type_probs(masses)
    best = max(psi, key=psi.get)
    kept = {} if hard else {k: v for k, v in psi.items()
                            if v >= config.type_prune}
    kept = kept or {best: psi[best]}
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
    and :func:`murty_kbest` calls and keeps ``costs``, ``log_const`` (sum_i
    ln l^{i,0}, which turns a cost back into a weight), ``ctx`` and
    ``ranked``; :func:`joint_update` keeps its results in ``posteriors``.
    Every ranked association shares a misdetected or newborn Bernoulli
    (track-oriented children share their per-track local hypotheses), built
    on first use from the weights ``ctx`` holds.
    """

    def __init__(self, hypothesis: GlobalHypothesis, measurements,
                 sensor: GaussianComponent, ppp: dict, config: FilterConfig):
        self.hypothesis, self.measurements = hypothesis, measurements
        self.sensor, self.config = sensor, config
        self.costs, self.log_const, self.ctx = build_cost_matrix(
            hypothesis, measurements, sensor, ppp, config.clutter_intensity,
            config.model, gate=config.gate)
        self.ranked = murty_kbest(self.costs, config.gamma)
        self.posteriors, self._misdetected, self._born = {}, {}, {}

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
        """``(psi, types)`` of landmark ``i`` detected by ``p``: its pruned
        type posterior and the ``(kind, prior component, prediction,
        innovation)`` of each type with a prediction, which the update
        conditions on its own; LinAlgError for a pair not kept."""
        if (i, p) not in self.ctx.pairs:
            raise np.linalg.LinAlgError(
                f"landmark {i} detected by measurement {p}, but no type "
                "with valid geometry explains it inside the gate")
        masses, rows = self.ctx.pairs[(i, p)]
        psi = _type_posterior(masses, self.config, hard=False)
        comps = self.hypothesis.bernoullis[i].belief.types
        return psi, tuple((kind, comps[kind], self.ctx.type_preds[i][kind],
                           rows[kind]) for kind in psi if kind in rows)

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
    that hypothesis.  Returns ``(child hypothesis, sensor posterior)``; the
    child keeps the parent weight, and callers reweight.

    Information form: a priori the landmarks are independent of the sensor
    and of each other, so each type t with a prediction of a detected pair
    (i, p) gives fixed terms; a type without one keeps its prior.  With
    H_s, H_x, x, P_x and v its Jacobian blocks, mean, covariance and
    innovation, and S_x = H_x P_x H_x^T + R: J = H_s^T S_x^-1 H_s, g =
    H_s^T S_x^-1 v, K = P_x H_x^T S_x^-1, P_c = (I - K H_x) P_x.  With J_a,
    g_a the sums of psi_t J, psi_t g over the types of the pairs ``sigma``
    detects (psi_t the pair's type posterior), the sensor (m, P) gets
    Sigma_a = (I + P J_a)^-1 P, as P - P J_a (I + P J_a)^-1 P so that a
    zero-variance component stays 0 (I + P J_a is invertible for PSD P and
    J_a), and m + delta_a, delta_a = Sigma_a g_a; each type gets x + K v -
    K H_s delta_a and P_c + K H_s Sigma_a H_s^T K^T.  No two types of a
    landmark are conditioned jointly: that would assert their predictions
    equal with no noise.

    The first call with one of ``parts.ranked`` updates them all in one
    :func:`_information_pass`, any other ``sigma`` alone; stacked work is
    per row, so a child's bits do not depend on its pass.  Raises
    ``numpy.linalg.LinAlgError`` (the association is discarded) when
    ``sigma`` detects a pair with a type whose S_x is not positive
    definite.
    """
    sigma.validate()
    berns = parts.hypothesis.bernoullis
    if len(berns) != sigma.n_prior or len(parts.measurements) != sigma.n_meas:
        raise ValueError("association vector inconsistent with inputs")
    if sigma not in parts.posteriors:
        ranked = [s for s, _ in parts.ranked]
        parts.posteriors.update(_information_pass(
            parts, ranked if sigma in ranked else [sigma]))
    return _child(parts, sigma, parts.posteriors[sigma])


def _child(parts: ChildParts, sigma: AssociationVector, found) -> tuple:
    """``(child, sensor posterior)`` of ``sigma`` from its outcome ``found``
    in :func:`_information_pass`; raises the LinAlgError that dropped it."""
    if isinstance(found, np.linalg.LinAlgError):
        raise found
    sensor_post, detected = found
    child = GlobalHypothesis(parts.hypothesis.weight, tuple(
        [detected.get(i) or parts.misdetected(i)
         for i in range(sigma.n_prior)]
        + [parts.born(p) for p in sigma.born_measurements()]), assoc=sigma)
    return child, sensor_post


def _information_pass(parts: ChildParts, batch: list,
                      log_weights: Optional[dict] = None) -> dict:
    """Each association of ``batch`` -> ``(sensor posterior, {landmark:
    detected Bernoulli})``, or the LinAlgError that drops it.  Only a
    ``sigma`` passed alone can detect a pair the cost matrix did not keep;
    :meth:`ChildParts.detection` then raises.

    With ``log_weights`` (sigma -> its log weight, up to a constant) the
    associations that survive and detect pair (i, p) hold one Bernoulli,
    their average: with b_a their normalized weights, each type gets x + K
    v - K H_s delta-bar and P_c + K H_s (Sigma-bar + C_delta) H_s^T K^T,
    delta-bar and Sigma-bar the b-weighted means of delta_a and Sigma_a and
    C_delta the b-weighted covariance of delta_a (:func:`joint_update`)."""
    sensor, ds, P = parts.sensor, parts.sensor.dim, parts.sensor.covariance
    live = [(sigma, sigma.detected_pairs()) for sigma in batch]
    pairs, shapes, terms, groups = {}, {}, {}, []
    for key in dict.fromkeys(key for _, keys in live for key in keys):
        psi, types = parts.detection(*key)
        pairs[key] = psi, [(key, kind) for kind, *_ in types]
        for kind, comp, pred, v in types:
            shapes.setdefault(comp.mean.size, []).append(
                ((key, kind), psi[kind], comp, pred, v))
    for members in shapes.values():
        names, w, comps, preds, v = zip(*members)
        x = np.array([comp.mean for comp in comps])
        Px = np.array([comp.covariance for comp in comps])
        Hx = np.array([pred.H_x for pred in preds])
        hc = Hx @ Px
        S = np.array([parts.measurements[p].covariance
                      for ((_, p), _) in names])
        S += hc @ Hx.swapaxes(-1, -2)
        rhs = np.concatenate([np.array([pred.H_s for pred in preds]),
                              np.array(v)[:, :, None], hc], axis=2)
        kept, _, solved = chol_solve(S, rhs, drop=True)
        rhs, x, Px = rhs[kept], x[kept], Px[kept]
        # rhs^T S_x^-1 rhs: [J, g] atop [K H_s, K v, K H_x P_x].
        G = rhs.swapaxes(-1, -2) @ np.reshape(solved, rhs.shape)
        terms.update({names[e]: len(terms) + k for k, e in enumerate(kept)})
        groups.append((G[:, :ds, :ds + 1] * np.array(w)[kept, None, None], G,
                       x + G[:, ds + 1:, ds], Px - G[:, ds + 1:, ds + 1:],
                       slice(len(terms) - len(kept), len(terms))))
    out = {sigma: np.linalg.LinAlgError(
        "innovation covariance of landmark {} detected by measurement {} is "
        "not positive definite".format(*key))
        for sigma, keys in live for key in keys
        if not all(name in terms for name in pairs[key][1])}
    live = [(sigma, keys) for sigma, keys in live if sigma not in out]
    # J_a, g_a: psi_t [J, g] of its pairs' types in order, -0.0-padded (x +
    # -0.0 is x; a one-type pair has psi 1.0, and x * 1.0 is x).
    rows = [[terms[name] for key in keys for name in pairs[key][1]]
            for _, keys in live]
    held = np.array([row + [-1] * (len(terms) + 1 - len(row)) for row in rows],
                    dtype=int).reshape(-1, len(terms) + 1)
    JG = np.concatenate([wJG for wJG, *_ in groups]
                        + [np.full((1, ds, ds + 1), -0.0)])[held].sum(1)
    PJ = P @ JG[:, :, :ds]
    cov = symmetrize(P - PJ @ np.linalg.solve(np.eye(ds) + PJ, P))
    D = cov @ JG
    means = sensor.mean + D[:, :, ds]
    D[:, :, :ds] = cov
    # Every association against every type: B D_a = [B Sigma_a, B delta_a].
    Ds = [D[:, None]] * len(groups)
    if log_weights is not None:
        # Or each type row against its pair's moments [Sigma-bar + C_delta,
        # delta-bar] over the associations that hold it, b_a = exp(log
        # weight - their largest) normalized: a row no survivor holds
        # stays 0.
        L = np.full(held.shape, -np.inf)
        L[np.arange(len(live))[:, None], held] = np.array(
            [log_weights[sigma] for sigma, _ in live])[:, None]
        b = np.exp(L - L.max(0, initial=np.finfo(float).min))[:, :-1]
        b /= np.maximum(b.sum(0), 1.0)
        M = (b.T @ D.reshape(-1, ds * (ds + 1))).reshape(-1, ds, ds + 1)
        dev = D[:, :, ds] - M[:, None, :, ds]
        M[:, :, :ds] += (b.T[..., None] * dev).swapaxes(1, 2) @ dev
        Ds = [M[None, span] for *_, span in groups]
    posts = [(xKv - BD[..., ds], symmetrize(
        Pc + BD[..., :ds] @ G[:, ds + 1:, :ds].swapaxes(-1, -2)))
        for (_, G, xKv, Pc, _), D_rows in zip(groups, Ds)
        for BD in [G[:, ds + 1:, :ds] @ D_rows]]
    posts = [(xs[:, k], Ps[:, k]) for xs, Ps in posts
             for k in range(xs.shape[1])]
    # Per pair once: psi -> (kind, w, its rows over the columns).
    for key, (psi, _) in pairs.items():
        prior = parts.hypothesis.bernoullis[key[0]].belief.types
        pairs[key] = [(kind, w, *posts[terms[(key, kind)]])
                      if (key, kind) in terms
                      else (kind, w, [prior[kind].mean] * len(live),
                            [prior[kind].covariance] * len(live))
                      for kind, w in psi.items()]

    def detected(key, c):
        return Bernoulli(1.0, LandmarkBelief({kind: TypeComponent(
            w, xs[c], Ps[c]) for kind, w, xs, Ps in pairs[key]}))

    shared = {} if log_weights is None else {
        key: detected(key, 0)
        for key in dict.fromkeys(k for _, keys in live for k in keys)}
    for a, (sigma, keys) in enumerate(live):
        out[sigma] = (GaussianComponent(means[a], cov[a]) if keys else sensor,
                      {i: shared.get((i, p)) or detected((i, p), a)
                       for i, p in keys})
    return out


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

    Under PMB no child carries a detected posterior of its own, which the
    reduction would only average with its siblings' into the pair's cell:
    one :func:`_information_pass` per hypothesis, given the child log
    weights, forms that average, and the children share it.
    """
    children = []
    for hyp in density.hypotheses:
        parts = ChildParts(hyp, measurements, sensor_pred,
                           density.ppp_intensity, config)
        ranked = {sigma: math.log(hyp.weight) + parts.log_const - cost
                  for sigma, cost in parts.ranked}
        averaged = (None if config.filter_kind == EK_PMBM
                    else _information_pass(parts, list(ranked), ranked))
        for sigma, log_weight in ranked.items():
            try:
                child, child_sensor = (
                    joint_update(parts, sigma) if averaged is None
                    else _child(parts, sigma, averaged[sigma]))
            except np.linalg.LinAlgError:
                continue  # weight redistributed over surviving associations
            children.append((log_weight, child, child_sensor))
    if not children:
        raise DegenerateDensityError("every association failed numerically")

    log_weights = np.array([lw for lw, _, _ in children])
    weights = np.exp(log_weights - log_weights.max())
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
