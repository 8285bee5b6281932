import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    LinearModel,
    assignment_cost,
    enumerate_associations,
    single_type_bernoulli,
)

from scipy.linalg import cho_factor, cho_solve

from rfslam import association
from rfslam.association import (
    DEFAULT_GATE,
    AssociationVector,
    CostMatrix,
    InfeasibleAssignmentError,
    build_cost_matrix,
    chol_factor,
    chol_logpdf,
    chol_solve,
    log_weight_detected,
    misdetection_weight,
    murty_kbest,
    predict_types,
    residual_blocks,
    weight_birth,
)
from rfslam.density import (
    Bernoulli,
    GaussianComponent,
    GlobalHypothesis,
    LandmarkBelief,
    TypeComponent,
)
from rfslam.geometry import (
    ChannelModel,
    DegenerateGeometryError,
    LandmarkType,
    Measurement,
)

BS = LandmarkType.BS
SP = LandmarkType.SP
VA = LandmarkType.VA


def toy_model(p_detect=0.9, a=0.0, b=1.0):
    return LinearModel({SP: ([[a]], [[b]])}, dim=1, p_detect=p_detect)


def toy_sensor(var=1.0):
    return GaussianComponent(np.zeros(1), np.array([[var]]))


def detected_weight(bern, meas, preds, model):
    """``log_weight_detected`` of one pair, with its residuals wrapped by
    the function the cost matrix uses."""
    return log_weight_detected(bern, meas, preds,
                               residual_blocks(bern, preds, meas.z, model))


def linear_detected_weight(bern, meas, sensor, model):
    """Linear detected weight via the function the cost matrix uses."""
    preds = predict_types(bern, sensor, model)
    log_l, _, _ = detected_weight(bern, meas, preds, model)
    return math.exp(log_l)


def misdetected_l0(bern, sensor, model):
    """Misdetection weight l0 via the function the cost matrix uses."""
    return misdetection_weight(bern, predict_types(bern, sensor, model))[2]


def random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


class TestCholeskyPair:
    @pytest.mark.parametrize("n", [3, 5, 60])
    def test_bit_equal_to_scipy_wrappers(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            a = random_spd(rng, n)
            factor = chol_factor(a)
            ref = cho_factor(a, lower=True)
            assert np.array_equal(factor, ref[0])
            for b in (rng.normal(size=n), rng.normal(size=(n, 4))):
                assert np.array_equal(chol_solve(factor, b), cho_solve(ref, b))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_operand_raises_value_error(self, bad):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 5)
        b = rng.normal(size=5)
        factor = chol_factor(a)
        a_bad, factor_bad, b_bad = a.copy(), factor.copy(), b.copy()
        a_bad[2, 2] = bad
        factor_bad[3, 1] = bad
        b_bad[4] = bad
        with pytest.raises(ValueError):
            chol_factor(a_bad)
        with pytest.raises(ValueError):
            chol_solve(factor_bad, b)
        with pytest.raises(ValueError):
            chol_solve(factor, b_bad)

    def test_indefinite_matrix_raises_linalg_error(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            chol_factor(a)
        with pytest.raises(np.linalg.LinAlgError,
                           match="singular innovation covariance"):
            chol_logpdf(np.ones(3), a)


class TestWeightDetected:
    def test_zero_existence(self):
        bern = single_type_bernoulli(0.0, SP, [0.0], [[1.0]])
        meas = Measurement(np.zeros(1), np.eye(1))
        log_l, masses, _ = detected_weight(
            bern, meas, predict_types(bern, toy_sensor(), toy_model()),
            toy_model())
        assert log_l == -math.inf and masses == {}
        assert linear_detected_weight(bern, meas, toy_sensor(),
                                      toy_model()) == 0.0

    def test_zero_detection_probability(self):
        bern = single_type_bernoulli(1.0, SP, [0.0], [[1.0]])
        meas = Measurement(np.zeros(1), np.eye(1))
        assert linear_detected_weight(bern, meas, toy_sensor(),
                                      toy_model(0.0)) == 0.0

    def test_scalar_closed_form(self):
        # h = x, prior N(0, 1), R = 1, z = 0: S = 2, weight = 0.9 / sqrt(4 pi).
        bern = single_type_bernoulli(1.0, SP, [0.0], [[1.0]])
        meas = Measurement(np.zeros(1), np.eye(1))
        w = linear_detected_weight(bern, meas, toy_sensor(5.0), toy_model(0.9))
        assert w == pytest.approx(0.9 / math.sqrt(4 * math.pi), rel=1e-12)
        assert w == pytest.approx(0.2538853125964903, rel=1e-9)
        _, masses, mahal = detected_weight(
            bern, meas, predict_types(bern, toy_sensor(5.0), toy_model(0.9)),
            toy_model(0.9))
        assert masses == {SP: 1.0}
        assert mahal == 0.0

    def test_two_type_belief_marginalizes(self):
        model = LinearModel({VA: ([[0.0]], [[1.0]]), SP: ([[0.0]], [[2.0]])},
                            dim=1, p_detect={VA: 0.9, SP: 0.6})
        belief = LandmarkBelief({
            VA: TypeComponent(0.7, np.zeros(1), np.eye(1)),
            SP: TypeComponent(0.3, np.array([0.5]), np.eye(1)),
        })
        meas = Measurement(np.array([0.2]), np.eye(1))
        w = linear_detected_weight(Bernoulli(0.8, belief), meas,
                                   toy_sensor(0.0), model)

        def normal(x, mean, var):
            return math.exp(-0.5 * (x - mean) ** 2 / var) / math.sqrt(
                2 * math.pi * var)

        expected = 0.8 * (0.7 * 0.9 * normal(0.2, 0.0, 2.0)
                          + 0.3 * 0.6 * normal(0.2, 1.0, 5.0))
        assert w == pytest.approx(expected, rel=1e-12)


class TestWeightMisdetected:
    def test_zero_detection_probability(self):
        bern = single_type_bernoulli(0.7, SP, [0.0], [[1.0]])
        assert misdetected_l0(bern, toy_sensor(), toy_model(0.0)) == \
            pytest.approx(1.0)

    def test_certain_landmark(self):
        bern = single_type_bernoulli(1.0, SP, [0.0], [[1.0]])
        assert misdetected_l0(bern, toy_sensor(), toy_model(0.9)) == \
            pytest.approx(0.1)

    def test_direct_evaluation(self):
        bern = single_type_bernoulli(0.9, SP, [0.0], [[1.0]])
        assert misdetected_l0(bern, toy_sensor(), toy_model(0.9)) == \
            pytest.approx(0.19)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            bern = single_type_bernoulli(rng.uniform(0, 1), SP,
                                         [rng.normal()], [[1.0]])
            w = misdetected_l0(bern, toy_sensor(),
                               toy_model(rng.uniform(0, 1.0)))
            assert 0.0 < w <= 1.0

    def test_degenerate_type_counts_as_undetectable(self):
        # Both types have pd = 0.9, but the SP prediction is degenerate:
        # the SP share must count with pd = 0, as the runtime treats it.
        class DegenerateSp(LinearModel):
            def predict(self, sensor_mean, lm_mean, kind):
                if kind is SP:
                    raise DegenerateGeometryError("vertical direction")
                return super().predict(sensor_mean, lm_mean, kind)

        model = DegenerateSp({VA: ([[0.0]], [[1.0]]), SP: ([[0.0]], [[1.0]])},
                             dim=1, p_detect=0.9)
        belief = LandmarkBelief({
            VA: TypeComponent(0.6, np.zeros(1), np.eye(1)),
            SP: TypeComponent(0.4, np.zeros(1), np.eye(1)),
        })
        bern = Bernoulli(0.8, belief)
        masses, survive, l0 = misdetection_weight(
            bern, predict_types(bern, toy_sensor(), model))
        assert masses == {VA: 0.6 * (1.0 - 0.9), SP: 0.4}
        assert survive == pytest.approx(0.6 * 0.1 + 0.4 * 1.0, rel=1e-12)
        assert l0 == pytest.approx(0.2 + 0.8 * (0.06 + 0.4), rel=1e-12)
        _, const, _ = build_cost_matrix(GlobalHypothesis(1.0, (bern,)), [],
                                        toy_sensor(), {}, 0.1, model)
        assert const == math.log(l0)


class TestWeightBirth:
    def test_zero_rates_gives_clutter_floor(self):
        meas = Measurement(np.zeros(1), np.eye(1))
        cand = weight_birth(meas, toy_sensor(), {SP: 0.0}, 0.5, toy_model())
        assert cand.log_weight == pytest.approx(math.log(0.5))
        assert cand.existence == 0.0
        assert cand.types == {}

    def test_reference_clutter_intensity_floor(self):
        c = 1.0 / (4 * 200 * math.pi ** 4)
        assert c == pytest.approx(1.28325e-5, rel=1e-4)
        meas = Measurement(np.array([1000.0]), np.eye(1))  # far from any birth
        cand = weight_birth(meas, toy_sensor(), {SP: 1e-6}, c, toy_model())
        assert cand.log_weight >= math.log(c)

    def test_scalar_hand_evaluated(self):
        # h = s + x, sensor N(0, 0.25), R = 1, eta = 2, pd = 0.9, z = 0.3.
        model = LinearModel({SP: ([[1.0]], [[1.0]])}, dim=1, p_detect=0.9)
        sensor = GaussianComponent(np.zeros(1), np.array([[0.25]]))
        meas = Measurement(np.array([0.3]), np.eye(1))
        cand = weight_birth(meas, sensor, {SP: 2.0}, 0.01, model)
        # Birth mean inverts exactly: u = z - s = 0.3; C = (P + R) = 1.25;
        # S = P + C + R = 2.5 and the predicted residual is 0.
        rho = 2.0 * 0.9 / math.sqrt(2 * math.pi * 2.5)
        assert cand.types[SP].mean[0] == pytest.approx(0.3)
        assert cand.types[SP].covariance[0, 0] == pytest.approx(1.25)
        assert cand.log_weight == pytest.approx(math.log(0.01 + rho),
                                                abs=1e-12)
        assert cand.existence == pytest.approx(rho / (0.01 + rho), rel=1e-12)
        assert cand.types[SP].weight == 1.0


class TestBuildCostMatrix:
    def test_zero_measurements(self):
        hyp = GlobalHypothesis(1.0, (single_type_bernoulli(0.5, SP, [0.0], [[1.0]]),))
        costs, const, ctx = build_cost_matrix(
            hyp, [], toy_sensor(), {SP: 1.0}, 0.1, toy_model())
        assert costs.matrix.shape == (0, 1)
        sols = murty_kbest(costs, 5)
        assert len(sols) == 1
        assert sols[0][0].sigma == (0,)
        assert sols[0][1] == 0.0

    def test_single_measurement_no_priors(self):
        hyp = GlobalHypothesis(1.0, ())
        meas = Measurement(np.zeros(1), np.eye(1))
        costs, const, ctx = build_cost_matrix(
            hyp, [meas], toy_sensor(), {SP: 1.0}, 0.1, toy_model())
        assert costs.matrix.shape == (1, 1)
        cand = weight_birth(meas, toy_sensor(), {SP: 1.0}, 0.1, toy_model())
        assert costs.matrix[0, 0] == pytest.approx(-cand.log_weight)
        assert const == 0.0

    def test_entries_match_direct_weight_calls(self):
        rng = np.random.default_rng(11)
        model = toy_model()
        sensor = toy_sensor(0.5)
        berns = (single_type_bernoulli(0.8, SP, [0.2], [[0.5]]),)
        hyp = GlobalHypothesis(1.0, berns)
        measurements = [Measurement(rng.normal(size=1), np.eye(1))
                        for _ in range(2)]
        costs, const, ctx = build_cost_matrix(
            hyp, measurements, sensor, {SP: 1.5}, 0.2, model, gate=None)
        assert costs.matrix.shape == (2, 3)
        l0 = misdetected_l0(berns[0], sensor, model)
        assert const == pytest.approx(math.log(l0))
        for p, meas in enumerate(measurements):
            ld = linear_detected_weight(berns[0], meas, sensor, model)
            assert costs.matrix[p, 0] == pytest.approx(math.log(l0) - math.log(ld))
            _, masses, _ = detected_weight(berns[0], meas,
                                           ctx.type_preds[0], model)
            assert ctx.pair_masses[(0, p)] == masses
            cand = weight_birth(meas, sensor, {SP: 1.5}, 0.2, model)
            assert costs.matrix[p, 1 + p] == pytest.approx(-cand.log_weight)
        assert np.isinf(costs.matrix[0, 2]) and np.isinf(costs.matrix[1, 1])

    def test_gate_disables_far_pairs(self):
        model = toy_model()
        sensor = toy_sensor(0.01)
        berns = (single_type_bernoulli(0.9, SP, [0.0], [[0.01]]),)
        hyp = GlobalHypothesis(1.0, berns)
        far = Measurement(np.array([500.0]), np.eye(1))
        costs, _, _ = build_cost_matrix(hyp, [far], sensor, {SP: 1.0}, 0.1,
                                        model, gate=30.0)
        assert np.isinf(costs.matrix[0, 0])


def channel_association_case(seed, n_landmarks, n_meas, tight,
                             varied_cov=False, zero_existence=False,
                             degenerate=False):
    """Random channel-model association problem around the reference UE.

    Each landmark mixes one to three types with random SPD covariances; each
    measurement is a noisy detection of a random landmark type or uniform
    clutter.  With ``tight``, the sensor and landmark covariances are tiny
    and detections move one channel only, so S is nearly the diagonal R and
    the marginal bound of a pair nearly equals its full Mahalanobis distance.
    ``varied_cov`` gives every measurement its own diagonal covariance,
    ``zero_existence`` sets the first landmark's existence to zero, and
    ``degenerate`` adds to the last landmark a type straight above the
    sensor mean, whose prediction fails.
    """
    rng = np.random.default_rng(seed)
    model = ChannelModel(np.array([0.0, 0.0, 40.0]))
    scale = 1e-12 if tight else 1.0
    sensor = GaussianComponent(
        np.array([70.0, 0.0, 0.0, math.pi / 2, 300.0]) + rng.normal(size=5),
        scale * random_spd(rng, 5) / 10.0)
    berns = []
    for _ in range(n_landmarks):
        kinds = list(rng.choice([BS, VA, SP], size=int(rng.integers(1, 4)),
                                replace=False))
        psi = rng.dirichlet(np.ones(len(kinds)))
        centre = rng.uniform([-100.0, -100.0, 0.0], [100.0, 100.0, 40.0])
        types = {k: TypeComponent(float(w), centre + rng.normal(size=3),
                                  scale * random_spd(rng, 3))
                 for k, w in zip(kinds, psi)}
        berns.append(Bernoulli(float(rng.uniform(0.05, 1.0)),
                               LandmarkBelief(types)))
    if zero_existence:
        berns[0] = Bernoulli(0.0, berns[0].belief)
    if degenerate:
        types = dict(berns[-1].belief.types)
        kind = next(iter(types))
        types[kind] = TypeComponent(
            types[kind].weight, sensor.mean[:3] + np.array([0.0, 0.0, 15.0]),
            np.eye(3))
        berns[-1] = Bernoulli(berns[-1].existence, LandmarkBelief(types))
    std = np.array([0.1, 0.005, 0.005, 0.005, 0.005])
    R = np.diag(std ** 2)
    measurements = []
    for _ in range(n_meas):
        bern = berns[int(rng.integers(n_landmarks))]
        comp_kind = list(bern.belief.types)[
            int(rng.integers(len(bern.belief.types)))]
        comp = bern.belief.types[comp_kind]
        try:
            z = model.predict(sensor.mean, comp.mean, comp_kind)
        except DegenerateGeometryError:
            z = None
        if z is None or rng.uniform() < 0.2:
            z = rng.uniform([0.0, -3.0, -1.5, -3.0, -1.5],
                            [600.0, 3.0, 1.5, 3.0, 1.5])
        elif tight:
            j = int(rng.integers(5))
            z = z.copy()
            z[j] += rng.normal() * 6.0 * math.sqrt(R[j, j])
        else:
            z = z + rng.normal(size=5) * np.sqrt(np.diag(R)) * 4.0
        cov = R
        if varied_cov:
            cov = np.diag((std * rng.uniform(0.5, 2.0, size=5)) ** 2)
        measurements.append(Measurement(z, cov))
    hyp = GlobalHypothesis(1.0, tuple(berns))
    ppp = {BS: 0.0, VA: 1e-5, SP: 1e-5}
    return hyp, measurements, sensor, ppp, model


def reference_log_weight_detected(bern, meas, preds, model, gate=None):
    """The per-pair detected weight before the array pass: wrap each
    contributing type's residual, bound the pair against the gate, then
    factor.  Returns (ln l, per-type masses, mahal)."""
    best_mahal = math.inf
    if bern.existence <= 0.0:
        return -math.inf, {}, best_mahal
    residuals = []
    for kind, comp in bern.belief.types.items():
        pred = preds[kind]
        if pred.p_detect <= 0.0 or comp.weight <= 0.0 or pred.z_pred is None:
            continue
        S = pred.hph + meas.covariance
        v = model.wrap_residual(meas.z - pred.z_pred)
        residuals.append((kind, comp.weight, pred.p_detect, v, S))
    if gate is not None:
        bounds = [float((v * v / S.diagonal()).max())
                  for _, _, _, v, S in residuals]
        if all(b > gate * (1.0 + 1e-9) for b in bounds):
            return -math.inf, {}, min(bounds, default=math.inf)
    terms = {}
    for kind, weight, p_detect, v, S in residuals:
        loglik, mahal = chol_logpdf(v, S)
        best_mahal = min(best_mahal, mahal)
        terms[kind] = math.log(weight) + math.log(p_detect) + loglik
    m = max(terms.values(), default=-math.inf)
    if not math.isfinite(m):
        return -math.inf, {}, best_mahal
    masses = {k: math.exp(terms[k] - m) if k in terms else 0.0
              for k in bern.belief.types}
    m += math.log(sum(math.exp(t - m) for t in terms.values()))
    return math.log(bern.existence) + m, masses, best_mahal


def reference_cost_matrix(hypothesis, measurements, sensor, ppp, clutter,
                          model, gate):
    """The cost matrix as the per-pair loop built it: (matrix, sum of
    ln l^{i,0}, pair type masses, pair residuals)."""
    berns = hypothesis.bernoullis
    n_prior, n_meas = len(berns), len(measurements)
    matrix = np.full((n_meas, n_prior + n_meas), np.inf)
    log_sum = 0.0
    pair_masses, pair_residuals = {}, {}
    for i, bern in enumerate(berns):
        preds = predict_types(bern, sensor, model)
        log_l0 = math.log(misdetection_weight(bern, preds)[2])
        log_sum += log_l0
        for p, meas in enumerate(measurements):
            log_l, masses, mahal = reference_log_weight_detected(
                bern, meas, preds, model, gate)
            if log_l == -math.inf or (gate is not None and mahal > gate):
                continue
            pair_masses[(i, p)] = masses
            pair_residuals[(i, p)] = {
                k: model.wrap_residual(meas.z - preds[k].z_pred)
                for k, comp in bern.belief.types.items()
                if preds[k].p_detect > 0.0 and comp.weight > 0.0
                and preds[k].z_pred is not None}
            matrix[p, i] = log_l0 - log_l
    for p, meas in enumerate(measurements):
        cand = weight_birth(meas, sensor, ppp, clutter, model)
        matrix[p, n_prior + p] = -cand.log_weight
    return matrix, log_sum, pair_masses, pair_residuals


class TestArrayPass:
    """``build_cost_matrix`` wraps and bounds all measurements of a landmark
    type in one array pass; it must give the per-pair reference's bits."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_landmarks=st.integers(1, 5),
           n_meas=st.integers(0, 6),
           tight=st.booleans(),
           varied_cov=st.booleans(),
           zero_existence=st.booleans(),
           degenerate=st.booleans(),
           pick=st.integers(0, 10 ** 6),
           gate_kind=st.sampled_from(["none", "default", -1e-9, 0.0, 1e-9]))
    def test_bit_equal_to_per_pair_reference(self, seed, n_landmarks, n_meas,
                                             tight, varied_cov,
                                             zero_existence, degenerate,
                                             pick, gate_kind):
        hyp, meas, sensor, ppp, model = channel_association_case(
            seed, n_landmarks, n_meas, tight, varied_cov=varied_cov,
            zero_existence=zero_existence, degenerate=degenerate)
        clutter = 1e-6
        if gate_kind == "none":
            gate = None
        else:
            gate = DEFAULT_GATE
            finite = []
            for bern in hyp.bernoullis:
                preds = predict_types(bern, sensor, model)
                for z in meas:
                    _, _, m = reference_log_weight_detected(bern, z, preds,
                                                            model)
                    if math.isfinite(m):
                        finite.append(m)
            finite.sort()
            if gate_kind != "default" and finite:
                # Put the gate within 1e-9 of one pair's full distance.
                gate = finite[pick % len(finite)] * (1.0 + gate_kind)

        matrix, log_sum, masses, residuals = reference_cost_matrix(
            hyp, meas, sensor, ppp, clutter, model, gate)
        costs, got_log_sum, ctx = build_cost_matrix(
            hyp, meas, sensor, ppp, clutter, model, gate=gate)
        assert costs.matrix.tobytes() == matrix.tobytes()
        assert got_log_sum == log_sum
        assert ctx.pair_masses == masses
        assert ctx.pair_residuals.keys() == residuals.keys()
        for key, rows in residuals.items():
            got = ctx.pair_residuals[key]
            assert list(got) == list(rows)
            assert all(got[k].tobytes() == v.tobytes()
                       for k, v in rows.items())


class TestGatedCostMatrix:
    """The pre-gate in ``build_cost_matrix`` only skips work.

    ``build_cost_matrix(gate=g)`` must equal, bit for bit, the ungated
    matrix with the gate applied afterwards on each pair's full Mahalanobis
    distance, including for pairs within 1e-9 of the gate.
    """

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_landmarks=st.integers(1, 5),
           n_meas=st.integers(1, 6),
           tight=st.booleans(),
           pick=st.integers(0, 10 ** 6),
           rel=st.sampled_from([-1e-9, -1e-12, 0.0, 1e-12, 1e-9, None]))
    def test_bit_equal_to_gate_applied_afterwards(self, seed, n_landmarks,
                                                  n_meas, tight, pick, rel):
        hyp, meas, sensor, ppp, model = channel_association_case(
            seed, n_landmarks, n_meas, tight)
        clutter = 1e-6
        ungated, log_sum, ctx = build_cost_matrix(
            hyp, meas, sensor, ppp, clutter, model, gate=None)
        mahal = {}
        for (i, p) in ctx.pair_masses:
            _, _, mahal[(i, p)] = detected_weight(
                hyp.bernoullis[i], meas[p], ctx.type_preds[i], model)
        finite = sorted(m for m in mahal.values() if math.isfinite(m))
        if rel is None or not finite:
            gate = DEFAULT_GATE
        else:
            # Put the gate within 1e-9 of one pair's full distance.
            gate = finite[pick % len(finite)] * (1.0 + rel)

        expected = ungated.matrix.copy()
        expected_masses = dict(ctx.pair_masses)
        for (i, p), m in mahal.items():
            if m > gate:
                expected[p, i] = np.inf
                del expected_masses[(i, p)]

        gated, gated_log_sum, gated_ctx = build_cost_matrix(
            hyp, meas, sensor, ppp, clutter, model, gate=gate)
        assert gated.matrix.tobytes() == expected.tobytes()
        assert gated_ctx.pair_masses == expected_masses
        assert gated_log_sum == log_sum

    def test_rejected_pair_is_not_factored(self, monkeypatch):
        hyp, meas, sensor, _, model = channel_association_case(
            3, 1, 1, tight=False)
        far = Measurement(meas[0].z + np.array([500.0, 0, 0, 0, 0]),
                          meas[0].covariance)
        preds = predict_types(hyp.bernoullis[0], sensor, model)
        _, _, bound = reference_log_weight_detected(
            hyp.bernoullis[0], far, preds, model, gate=DEFAULT_GATE)
        assert bound > DEFAULT_GATE
        calls = []
        monkeypatch.setattr(association, "chol_logpdf",
                            lambda *a: calls.append(a))
        # No birth rate, so the birth weight factors nothing either.
        costs, _, ctx = build_cost_matrix(hyp, [far], sensor, {}, 1e-6,
                                          model, gate=DEFAULT_GATE)
        assert (costs.matrix[0, 0], ctx.pair_masses, calls) == \
            (np.inf, {}, [])


class TestMurty:
    def test_single_cell(self):
        costs = CostMatrix(np.array([[0.7]]), 0)
        sols = murty_kbest(costs, 3)
        assert len(sols) == 1
        sigma, cost = sols[0]
        assert cost == pytest.approx(0.7)
        assert sigma.sigma == (1,)

    def test_two_by_two_by_hand(self):
        costs = CostMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), 2)
        sols = murty_kbest(costs, 2)
        assert len(sols) == 2
        assert sols[0][1] == pytest.approx(2.0)
        assert sols[0][0].sigma[:2] == (1, 2)
        assert sols[1][1] == pytest.approx(4.0)
        assert sols[1][0].sigma[:2] == (2, 1)

    def test_costs_nondecreasing_and_first_optimal(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n_meas = rng.integers(1, 5)
            n_prior = rng.integers(0, 6)
            matrix = np.full((n_meas, n_prior + n_meas), np.inf)
            matrix[:, :n_prior] = rng.normal(size=(n_meas, n_prior))
            matrix[:, n_prior:][np.eye(n_meas, dtype=bool)] = rng.normal(size=n_meas)
            sols = murty_kbest(CostMatrix(matrix, int(n_prior)), 10)
            costs = [c for _, c in sols]
            assert costs == sorted(costs)
            brute = sorted(
                assignment_cost(matrix, s, n_prior)
                for s in enumerate_associations(int(n_prior), int(n_meas)))
            assert costs[0] == pytest.approx(brute[0], abs=1e-9)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            n_meas = int(rng.integers(1, 4))
            n_prior = int(rng.integers(0, 5))
            matrix = np.full((n_meas, n_prior + n_meas), np.inf)
            matrix[:, :n_prior] = rng.normal(size=(n_meas, n_prior))
            matrix[:, n_prior:][np.eye(n_meas, dtype=bool)] = rng.normal(size=n_meas)
            sols = murty_kbest(CostMatrix(matrix, n_prior), 10)
            brute = sorted(
                (assignment_cost(matrix, s, n_prior), s)
                for s in enumerate_associations(n_prior, n_meas))
            assert len(sols) == min(10, len(brute))
            for (sigma, cost), (bcost, bsigma) in zip(sols, brute):
                assert cost == pytest.approx(bcost, abs=1e-9)
            assert sorted(round(c, 9) for _, c in sols) == [
                round(c, 9) for c, _ in brute[:len(sols)]]

    def test_sigma_validates(self):
        rng = np.random.default_rng(23)
        matrix = np.full((3, 5), np.inf)
        matrix[:, :2] = rng.normal(size=(3, 2))
        matrix[:, 2:][np.eye(3, dtype=bool)] = rng.normal(size=3)
        for sigma, _ in murty_kbest(CostMatrix(matrix, 2), 8):
            sigma.validate()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_meas=st.integers(1, 4),
           n_prior=st.integers(0, 4), gamma=st.integers(1, 8))
    def test_ties_and_infinite_cells_match_brute_force(self, seed, n_meas,
                                                       n_prior, gamma):
        # Integer costs 0-3 tie often, and their sums are exact.  A prior
        # cell is infinite with probability 1/2, a birth cell with 0.3.
        rng = np.random.default_rng(seed)
        matrix = np.full((n_meas, n_prior + n_meas), np.inf)
        prior = rng.integers(0, 4, size=(n_meas, n_prior)).astype(float)
        prior[rng.uniform(size=prior.shape) < 0.5] = np.inf
        matrix[:, :n_prior] = prior
        birth = rng.integers(0, 4, size=n_meas).astype(float)
        birth[rng.uniform(size=n_meas) < 0.3] = np.inf
        matrix[:, n_prior:][np.eye(n_meas, dtype=bool)] = birth
        costs = CostMatrix(matrix, n_prior)
        brute = sorted(
            c for c in (assignment_cost(matrix, s, n_prior)
                        for s in enumerate_associations(n_prior, n_meas))
            if math.isfinite(c))
        if not brute:
            with pytest.raises(InfeasibleAssignmentError):
                murty_kbest(costs, gamma)
            return
        sols = murty_kbest(costs, gamma)
        assert [c for _, c in sols] == brute[:gamma]
        assert len({sigma.sigma for sigma, _ in sols}) == len(sols)
        for sigma, cost in sols:
            sigma.validate()
            assert assignment_cost(matrix, sigma.sigma, n_prior) == cost

    def test_infeasible_row_raises(self):
        matrix = np.full((1, 2), np.inf)
        with pytest.raises(InfeasibleAssignmentError):
            murty_kbest(CostMatrix(matrix, 1), 2)


class TestAssociationVector:
    def test_validate_rejects_duplicates(self):
        with pytest.raises(ValueError):
            AssociationVector(2, (1, 1, None, None)).validate()

    def test_validate_rejects_missing_measurement(self):
        with pytest.raises(ValueError):
            AssociationVector(1, (0, None)).validate()

    def test_helpers(self):
        sigma = AssociationVector(2, (2, 0, 1, None))
        sigma.validate()
        assert sigma.detected_pairs() == [(0, 1)]
        assert sigma.born_measurements() == [0]
