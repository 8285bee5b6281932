"""Multi-model landmark types: each local weight's per-type masses and the
type posteriors :func:`rfslam.update.update_type_probs` makes of them.

A detection weighs each type by its detection probability and measurement
likelihood; a misdetection down-weights types that should have been
detected; a birth's masses are its rates over the types that explain the
measurement.
"""

import math
import warnings

import numpy as np
import pytest
from conftest import (
    LinearModel,
    RowPrediction,
    birth_candidate,
    detected_weight,
    newborn,
    pair_densities,
    predict_types,
    reference_chol_logpdf,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from rfslam.association import log_weight_detected, misdetection_weight
from rfslam.density import (
    Bernoulli,
    GaussianComponent,
    LandmarkBelief,
    TypeComponent,
    absent_bernoulli,
    sum_in_order,
)
from rfslam.geometry import MAX_P_DETECT, TYPE_ORDER, LandmarkType, Measurement
from rfslam.update import FilterConfig, _local_bernoulli, update_type_probs

BS, VA, SP = LandmarkType.BS, LandmarkType.VA, LandmarkType.SP
SENSOR = GaussianComponent(np.zeros(1), np.eye(1))


def belief(psi: dict, means=None) -> Bernoulli:
    """A certain landmark with type probabilities ``psi``, each type's
    position N(mean, 1) (mean 0 unless ``means`` names it)."""
    means = means or {}
    return Bernoulli(1.0, LandmarkBelief({
        k: TypeComponent(w, np.array([means.get(k, 0.0)]), np.eye(1))
        for k, w in psi.items()}))


def identity_model(p_detect) -> LinearModel:
    """h = x for every type."""
    return LinearModel({k: ([[0.0]], [[1.0]]) for k in (BS, VA, SP)}, 1,
                       p_detect=p_detect)


def misdetected(bern, model) -> dict:
    masses, _, _ = misdetection_weight(bern, predict_types(bern, SENSOR,
                                                           model))
    return update_type_probs(masses)


def detected(bern, model, z: float) -> dict:
    preds = predict_types(bern, SENSOR, model)
    meas = Measurement(np.array([z]), np.eye(1))
    _, masses, _ = detected_weight(bern, meas, preds, model)
    return update_type_probs(masses)


class TestUpdateTypeProbs:
    def test_single_type_is_always_one(self):
        bern = belief({VA: 1.0})
        model = identity_model(0.9)
        assert misdetected(bern, model) == {VA: 1.0}
        assert detected(bern, model, 2.0) == {VA: 1.0}

    def test_symmetric_detection_stays_uniform(self):
        out = detected(belief({VA: 0.5, SP: 0.5}), identity_model(0.9), 1.3)
        assert out[VA] == pytest.approx(0.5)
        assert out[SP] == pytest.approx(0.5)

    def test_likelihood_ratio_4_to_1(self):
        # S = 2 for both types; the SP residual squared is 4 ln 4 larger,
        # so its likelihood is a quarter of the VA one.
        bern = belief({VA: 0.5, SP: 0.5}, {SP: -math.sqrt(4 * math.log(4))})
        out = detected(bern, identity_model(0.9), 0.0)
        assert out[VA] == pytest.approx(0.8)
        assert out[SP] == pytest.approx(0.2)

    def test_misdetection_factored_variant(self):
        out = misdetected(belief({VA: 0.9, SP: 0.1}), identity_model(0.9))
        # Equal detection probabilities: the factored form keeps the prior.
        assert out[VA] == pytest.approx(0.9)
        assert out[SP] == pytest.approx(0.1)

    def test_misdetection_uniform_prior_never_raises_strongest(self):
        rng = np.random.default_rng(2)
        prior = {k: 1.0 / 3.0 for k in (BS, VA, SP)}
        for _ in range(50):
            pd = dict(zip((BS, VA, SP), rng.uniform(0.1, 0.95, size=3)))
            strongest = max(prior, key=lambda k: pd[k] * prior[k])
            out = misdetected(belief(prior), identity_model(pd))
            assert out[strongest] <= prior[strongest] + 1e-12

    def test_factored_resolves_out_of_fov_scatterer(self):
        # Repeated misdetections of a landmark whose SP hypothesis is out
        # of the FOV (pd 0) while the VA hypothesis stays visible must
        # converge to the SP type under the factored form.
        psi = {VA: 0.5, SP: 0.5}
        model = identity_model({VA: 0.9, SP: 0.0})
        for _ in range(20):
            psi = misdetected(belief(psi), model)
        assert psi[SP] > 0.999

    def test_zero_mass_falls_back_to_uniform(self):
        # Zero-weight types leave the misdetection no mass to normalize.
        with pytest.warns(RuntimeWarning):
            out = misdetected(belief({VA: 0.0, SP: 0.0}), identity_model(0.9))
        assert out == {VA: 0.5, SP: 0.5}

    def test_outputs_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            psis = rng.dirichlet(np.ones(2))
            bern = belief({VA: psis[0], SP: psis[1]},
                          {VA: rng.normal(), SP: rng.normal()})
            model = identity_model({VA: rng.uniform(0, 1),
                                    SP: rng.uniform(0, 1)})
            out = detected(bern, model, rng.normal())
            assert sum(out.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(0.0 <= v <= 1.0 for v in out.values())


def birth_psi(rates: dict, clutter: float) -> dict:
    """Newborn type probabilities of the birth weight; h = x + c
    puts the VA and SP births 0.3 and 0.6 from the measurement."""
    model = LinearModel({VA: ([[0.0]], [[1.0]], [0.3]),
                         SP: ([[0.0]], [[1.0]], [0.6])}, 1, p_detect=0.9)
    meas = Measurement(np.array([0.2]), np.eye(1))
    cand = birth_candidate(meas, SENSOR, rates, clutter, model)
    return update_type_probs(cand.masses)


class TestBirthTypeProbs:
    def test_single_positive_rate(self):
        assert birth_psi({VA: 0.0, SP: 3.2e-4}, 1e-6) == {SP: 1.0}

    def test_ratio_normalization(self):
        # Births invert exactly, so both types have the same likelihood and
        # the rates set the ratio.
        out = birth_psi({VA: 3e-4, SP: 1e-4}, 1e-6)
        assert out[VA] == pytest.approx(0.75)
        assert out[SP] == pytest.approx(0.25)

    def test_clutter_independent(self):
        # Clutter enters the birth weight, never the type ratios.
        a = birth_psi({VA: 2e-4, SP: 6e-4}, 1e-6)
        assert birth_psi({VA: 2e-4, SP: 6e-4}, 10.0) == a
        assert birth_psi({VA: 2e-3, SP: 6e-3}, 1e-6)[VA] == \
            pytest.approx(a[VA])


# ---------------------------------------------------------------------------
# The type posteriors as a separate module computed them before the local
# weights returned their masses: the prior, detection probabilities and
# log-likelihoods in, the weight's terms rebuilt.  Kept as the reference
# the masses must reproduce bit for bit.

def _reference_normalize(masses: dict) -> dict:
    total = sum_in_order(masses.values())
    if total <= 0.0 or not math.isfinite(total):
        warnings.warn("all-zero type-probability mass; falling back to uniform",
                      RuntimeWarning, stacklevel=3)
        n = len(masses)
        return {k: 1.0 / n for k in masses}
    return {k: v / total for k, v in masses.items()}


def reference_update_type_probs(prior_probs: dict, p_detect: dict,
                                logliks=None) -> dict:
    kinds = [k for k in TYPE_ORDER if k in prior_probs]
    if len(kinds) == 1:
        return {kinds[0]: 1.0}
    if logliks is None:
        return _reference_normalize({
            k: (1.0 - p_detect.get(k, 0.0)) * prior_probs[k] for k in kinds})
    log_terms = {}
    for k in kinds:
        pd = p_detect.get(k, 0.0)
        psi = prior_probs[k]
        ll = logliks.get(k)
        if pd <= 0.0 or psi <= 0.0 or ll is None:
            log_terms[k] = -math.inf
        else:
            log_terms[k] = math.log(pd) + math.log(psi) + ll
    peak = max(log_terms.values())
    if not math.isfinite(peak):
        return _reference_normalize({k: 0.0 for k in kinds})
    return _reference_normalize({k: math.exp(v - peak)
                                 for k, v in log_terms.items()})


def reference_birth_type_probs(rho_by_type: dict) -> dict:
    total = sum_in_order(rho_by_type.values())
    if total <= 0.0:
        raise ValueError("birth rejected: zero total birth mass")
    return {k: rho_by_type[k] / total
            for k in TYPE_ORDER if k in rho_by_type}


def bits(probs: dict) -> list:
    return [(k, v.hex()) for k, v in probs.items()]


#: One landmark type as drawn: raw weight (0 for a zero-weight type),
#: detection probability (0 and 1 included; 1 is clamped on misdetection),
#: whether its geometry is degenerate, residual, and predicted variance.
type_draws = st.tuples(
    st.sampled_from([0.0]) | st.floats(1e-3, 1.0),
    st.sampled_from([0.0, 1.0, MAX_P_DETECT]) | st.floats(0.0, 1.0),
    st.booleans(),
    st.floats(-30.0, 30.0),
    st.floats(1e-3, 10.0))


class TestTypePosteriorReference:
    @settings(max_examples=300, deadline=None)
    @given(kinds=st.lists(st.sampled_from(TYPE_ORDER), min_size=1,
                          max_size=3, unique=True),
           draws=st.lists(type_draws, min_size=3, max_size=3),
           existence=st.floats(1e-3, 1.0))
    def test_local_weight_masses_match_reference(self, kinds, draws,
                                                 existence):
        kinds = [k for k in TYPE_ORDER if k in kinds]
        draws = dict(zip(kinds, draws))
        raw = {k: draws[k][0] for k in kinds}
        if sum(raw.values()) <= 0.0:
            raw[kinds[0]] = 1.0
        # Type weights sum to one, as in every belief the filter holds.
        total = sum(raw.values())
        bern = Bernoulli(existence, LandmarkBelief({
            k: TypeComponent(w / total, np.zeros(1), np.eye(1))
            for k, w in raw.items()}))
        preds = {}
        for k, (_, pd, degenerate, _, var) in draws.items():
            preds[k] = (RowPrediction(0.0, None, None, None, None)
                        if degenerate else RowPrediction(
                            pd, np.zeros(1), np.array([[var]]), None, None))
        prior = {k: c.weight for k, c in bern.belief.types.items()}

        masses, _, _ = misdetection_weight(bern, preds)
        clamped = {k: min(preds[k].p_detect, MAX_P_DETECT) for k in kinds}
        assert bits(update_type_probs(masses)) == bits(
            reference_update_type_probs(prior, clamped))

        meas = Measurement(np.zeros(1), np.eye(1))
        residuals = {k: np.array([draws[k][3]]) for k, c in
                     bern.belief.types.items()
                     if preds[k].p_detect > 0.0 and c.weight > 0.0
                     and preds[k].z_pred is not None}
        densities = pair_densities(residuals, {
            k: preds[k].hph + meas.covariance for k in residuals})
        log_l, masses, _ = log_weight_detected(bern, preds, densities)
        if log_l == -math.inf:
            # No type explains the detection: the cost matrix drops the
            # pair and no posterior is taken.
            assert masses == {} and residuals == {}
            return
        logliks = {k: densities[k][0] for k in residuals}
        assert bits(update_type_probs(masses)) == bits(
            reference_update_type_probs(
                prior, {k: p.p_detect for k, p in preds.items()}, logliks))

    @settings(max_examples=200, deadline=None)
    @given(rates=st.lists(st.sampled_from([0.0]) | st.floats(1e-8, 1e-2),
                          min_size=3, max_size=3),
           gains=st.lists(st.floats(0.2, 3.0), min_size=3, max_size=3),
           offsets=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           pd=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
                       min_size=3, max_size=3),
           clutter=st.floats(0.0, 1.0))
    def test_birth_shares_match_reference(self, rates, gains, offsets, pd,
                                          clutter):
        model = LinearModel({k: ([[1.0]], [[b]], [c]) for k, b, c in
                             zip(TYPE_ORDER, gains, offsets)}, 1,
                            p_detect=dict(zip(TYPE_ORDER, pd)))
        ppp = dict(zip(TYPE_ORDER, rates))
        sensor = GaussianComponent(np.zeros(1), np.array([[0.25]]))
        meas = Measurement(np.array([0.7]), np.eye(1))
        cand = birth_candidate(meas, sensor, ppp, clutter, model)
        # The rates the birth weight splits: the BS is never born.
        rho = {}
        for k, rate in ppp.items():
            if rate <= 0.0 or k is BS or model.p_detect[k] <= 0.0:
                continue
            comp, pred = newborn(meas, sensor, k, model)
            v = meas.z - model.predict(sensor.mean, comp.mean, k)
            S = (pred.H_s @ sensor.covariance @ pred.H_s.T
                 + pred.H_x @ comp.covariance @ pred.H_x.T + meas.covariance)
            rho[k] = rate * model.p_detect[k] * math.exp(
                reference_chol_logpdf(v, S)[0])
        if sum(rho.values()) <= 0.0:
            assert cand.masses == {}
            return
        assert bits(update_type_probs(cand.masses)) == bits(
            reference_birth_type_probs(rho))


# ---------------------------------------------------------------------------
# The newborn Bernoulli as it was built before births returned their masses:
# ``weight_birth`` split the rates into TypeComponents, then the birth made
# its hard type decision on their weights and pruned them.  Kept as the
# reference the one type-posterior rule must reproduce bit for bit.

def reference_prune_type_probs(psi: dict, threshold: float) -> dict:
    kept = {k: v for k, v in psi.items() if v >= threshold}
    if not kept:
        best = max(psi, key=psi.get)
        kept = {best: psi[best]}
    total = sum_in_order(kept.values())
    return {k: v / total for k, v in kept.items()}


def reference_birth_bernoulli(rho: dict, comps: dict, existence: float,
                              config) -> Bernoulli:
    rho_total = sum_in_order(rho.values())
    types = {}
    if rho_total > 0.0:
        types = {k: TypeComponent(r / rho_total, comps[k].mean,
                                  comps[k].covariance) for k, r in rho.items()}
    if not types:
        return absent_bernoulli()
    if not config.multi_model and len(types) > 1:
        kind = max(types, key=lambda k: types[k].weight)
        types = {kind: types[kind]}
    psi = reference_prune_type_probs({k: c.weight for k, c in types.items()},
                                     config.type_prune)
    types = {k: TypeComponent(psi[k], types[k].mean, types[k].covariance)
             for k in psi}
    return Bernoulli(existence, LandmarkBelief(types))


class TestBirthBernoulliReference:
    @settings(max_examples=300, deadline=None)
    @given(kinds=st.lists(st.sampled_from(TYPE_ORDER), min_size=1,
                          max_size=3, unique=True),
           rates=st.lists(st.sampled_from([0.0, 2.5e-6])
                          | st.floats(1e-12, 1.0), min_size=3, max_size=3),
           existence=st.floats(0.0, 1.0),
           multi_model=st.booleans(),
           type_prune=st.sampled_from([0.0, 1e-4]))
    def test_bit_equal_to_reference(self, kinds, rates, existence,
                                    multi_model, type_prune):
        # Rates of 0.0 and repeated 2.5e-6 give zero and equal shares.
        rho = dict(zip(kinds, rates))
        comps = {k: GaussianComponent(np.array([float(j)]),
                                      (j + 1.0) * np.eye(1))
                 for j, k in enumerate(kinds)}
        config = FilterConfig(model=None, process_noise=np.zeros((5, 5)),
                              multi_model=multi_model, type_prune=type_prune)
        # weight_birth's candidate: the rates are the masses, none when
        # they sum to zero.  A candidate without masses is clutter only and
        # builds no Bernoulli (test_update.py's
        # test_clutter_only_birth_slot_is_the_placeholder_and_pruned).
        want = reference_birth_bernoulli(rho, comps, existence, config)
        if sum(rho.values()) <= 0.0:
            assert want is absent_bernoulli()
            return
        got = _local_bernoulli(existence, rho, comps, config,
                               hard=not multi_model)
        assert got.existence.hex() == want.existence.hex()
        assert list(got.belief.types) == list(want.belief.types)
        for kind, comp in got.belief.types.items():
            ref = want.belief.types[kind]
            assert comp.weight.hex() == ref.weight.hex()
            assert comp.mean.tobytes() == ref.mean.tobytes()
            assert comp.covariance.tobytes() == ref.covariance.tobytes()
