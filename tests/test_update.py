import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    LinearModel,
    birth_candidate,
    check_density,
    detected_weight,
    invert_one,
    linearize_one,
    newborn,
    predict_types,
    reference_birth_from_measurement,
    single_type_bernoulli,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag, cho_factor, cho_solve

from rfslam import association, reduction
from rfslam import update as update_module
from rfslam.association import (
    AssociationVector,
    InfeasibleAssignmentError,
    build_cost_matrix,
)
from rfslam.cli import RunConfig, build_filter_config, initial_state
from rfslam.density import (
    MIN_CELL_MASS,
    Bernoulli,
    DegenerateDensityError,
    GaussianComponent,
    GlobalHypothesis,
    LandmarkBelief,
    PmbmDensity,
    TypeComponent,
    absent_bernoulli,
    default_ppp_intensity,
    prune,
    sum_in_order,
    symmetrize,
)
from rfslam.geometry import (
    ChannelModel,
    DegenerateGeometryError,
    Landmark,
    LandmarkType,
    Measurement,
    Plane,
    UEState,
    measure,
)
from rfslam.motion import sensor_transition, sensor_transition_jacobian
from rfslam.reduction import align_hypotheses, average_conditionals
from rfslam.sim import (
    default_scenario,
    generate_measurements,
    simulate_trajectory,
)
from rfslam.update import (
    EK_PMB,
    EK_PMBM,
    MAX_COST_GAP,
    MAX_HYPOTHESES,
    ChildParts,
    FilterConfig,
    joint_update,
    marginalize_sensor,
    predict_step,
    step,
    thin_ppp,
    update_step,
    update_type_probs,
)

BS, VA, SP = LandmarkType.BS, LandmarkType.VA, LandmarkType.SP
BS_POS = np.array([0.0, 0.0, 40.0])


def make_config(model, **kw):
    defaults = dict(model=model, process_noise=np.zeros((5, 5)))
    defaults.update(kw)
    return FilterConfig(**defaults)


def child_parts(hyp, measurements, sensor, cfg):
    """The hypothesis's context under the default PPP."""
    return ChildParts(hyp, measurements, sensor, default_ppp_intensity(), cfg)


def conditioning_oracle(prior_mean, prior_cov, H, R, z, offset):
    """Closed-form joint-Gaussian conditioning (Schur complement)."""
    S = H @ prior_cov @ H.T + R
    K = prior_cov @ H.T @ np.linalg.inv(S)
    mean = prior_mean + K @ (z - H @ prior_mean - offset)
    cov = prior_cov - K @ S @ K.T
    return mean, cov


class TestFilterConfig:
    @pytest.mark.parametrize("clutter", [-1.0, math.nan, math.inf])
    def test_refuses_clutter_intensity_not_finite_and_nonnegative(self,
                                                                  clutter):
        # A NaN once passed the birth weight's own test and ended the step
        # in "a measurement row has no finite cost".
        with pytest.raises(ValueError, match="clutter intensity must be "
                                             "finite and >= 0"):
            make_config(LinearModel({VA: ([[1.0]], [[1.0]])}, 1),
                        clutter_intensity=clutter)

    def test_zero_clutter_intensity_builds(self):
        cfg = make_config(LinearModel({VA: ([[1.0]], [[1.0]])}, 1),
                          clutter_intensity=0.0)
        assert cfg.clutter_intensity == 0.0

    @pytest.mark.parametrize("field, value", [
        ("gate", -5.0), ("gate", 0.0), ("gate", math.nan), ("gate", math.inf),
        ("type_prune", -0.1), ("type_prune", 1.0), ("type_prune", math.nan),
        ("dt", math.nan), ("dt", math.inf), ("speed", math.inf),
        ("speed", math.nan), ("turn_rate", math.nan),
        ("turn_rate", -math.inf), ("gamma", 2.5), ("gamma", True),
        ("multi_model", "no"), ("process_noise", np.full((5, 5), math.nan)),
        ("process_noise", -np.eye(5)), ("process_noise", np.eye(3))])
    def test_refuses_values_that_corrupt_or_fail_a_run(self, field, value):
        # Each once built: a negative gate ran with every pair gated out,
        # a NaN gate ran as no gate, gamma True ran as 1 and multi_model
        # "no" as on, and a NaN dt, speed or turn rate, gamma 2.5 and each
        # process noise failed in the first step.
        with pytest.raises(ValueError, match=f"{field} .*must be"):
            make_config(ChannelModel(BS_POS), **{field: value})

    def test_numpy_integer_gamma_builds(self):
        assert make_config(ChannelModel(BS_POS), gamma=np.int64(3)).gamma == 3


class TestPredictSensor:
    #: The map half of the prediction passes it through (TestPredictMap).
    density = PmbmDensity(default_ppp_intensity(),
                          (GlobalHypothesis(1.0, ()),))

    def test_turn_model_closed_form(self):
        cfg = make_config(LinearModel({SP: ([[0.0]], [[1.0]])}, 1))
        belief = GaussianComponent(
            np.array([70.7285, 0.0, 0.0, np.pi / 2, 300.0]), np.eye(5))
        out = predict_step(self.density, belief, cfg)[1]
        ratio = 22.22 / (np.pi / 10)
        expected = np.array([
            70.7285 + ratio * (math.cos(np.pi / 20) - 1.0),
            ratio * math.sin(np.pi / 20),
            0.0,
            np.pi / 2 + np.pi / 20,
            300.0,
        ])
        assert np.allclose(out.mean, expected, atol=1e-12)
        assert out.mean[0] == pytest.approx(69.8578, abs=2e-3)
        assert out.mean[1] == pytest.approx(11.0639, abs=2e-3)

    def test_zero_q_zero_dt_is_identity(self):
        cfg = make_config(LinearModel({SP: ([[0.0]], [[1.0]])}, 1), dt=0.0)
        belief = GaussianComponent(np.array([1.0, 2.0, 0.0, 0.3, 5.0]),
                                   np.diag([1.0, 2, 3, 4, 5]))
        out = predict_step(self.density, belief, cfg)[1]
        assert np.allclose(out.mean, belief.mean)
        assert np.allclose(out.covariance, belief.covariance)

    def test_covariance_growth_is_exactly_q(self):
        q = np.diag([0.2, 0.2, 0.0, 0.001, 0.2])
        cfg = make_config(LinearModel({SP: ([[0.0]], [[1.0]])}, 1),
                          process_noise=q)
        belief = GaussianComponent(np.array([1.0, 2.0, 0.0, 0.3, 5.0]),
                                   0.5 * np.eye(5))
        F = sensor_transition_jacobian(belief.mean, cfg.speed, cfg.turn_rate,
                                       cfg.dt)
        out = predict_step(self.density, belief, cfg)[1]
        assert np.allclose(out.covariance - F @ belief.covariance @ F.T, q,
                           atol=1e-12)

    def test_straight_line_limit(self):
        cfg = make_config(LinearModel({SP: ([[0.0]], [[1.0]])}, 1),
                          turn_rate=0.0, speed=10.0, dt=0.5)
        belief = GaussianComponent(np.array([0.0, 0.0, 0.0, np.pi / 4, 0.0]),
                                   np.eye(5))
        out = predict_step(self.density, belief, cfg)[1]
        assert out.mean[0] == pytest.approx(5.0 * math.cos(np.pi / 4))
        assert out.mean[1] == pytest.approx(5.0 * math.sin(np.pi / 4))


class TestPredictMap:
    def test_identity(self):
        # Landmarks are static: the map passes through the prediction.
        density = PmbmDensity(default_ppp_intensity(),
                              (GlobalHypothesis(1.0, ()),))
        cfg = make_config(LinearModel({SP: ([[0.0]], [[1.0]])}, 1))
        sensor = GaussianComponent(np.zeros(5), np.eye(5))
        assert predict_step(density, sensor, cfg)[0] is density


class TestThinPpp:
    def test_scaling(self):
        model = ChannelModel(BS_POS)
        cfg = make_config(model)
        ppp = {BS: 0.0, VA: 1.0, SP: 2.0}
        out = thin_ppp(ppp, cfg)
        assert out[VA] == pytest.approx(0.1)
        # SP intensity thins at the rate an undetected SP drawn uniformly
        # over the region is actually detectable: pd times the FOV fraction.
        fraction = (2.0 / 3.0) * math.pi * 50.0 ** 3 / (400.0 * 400.0 * 40.0)
        assert out[SP] == pytest.approx(2.0 * (1.0 - 0.9 * fraction))

    def test_model_without_fov_thins_sp_at_full_pd(self):
        model = LinearModel({SP: ([[0.0]], [[1.0]])}, 1, p_detect=0.9)
        out = thin_ppp({SP: 2.0}, make_config(model))
        assert out[SP] == pytest.approx(0.2)

    def test_zero_pd_unchanged(self):
        model = LinearModel({SP: ([[0.0]], [[1.0]])}, 1, p_detect=0.0)
        cfg = make_config(model)
        assert thin_ppp({SP: 3.0}, cfg)[SP] == 3.0

    def test_repeated_applications(self):
        model = ChannelModel(BS_POS)
        cfg = make_config(model)
        ppp = {VA: 1.0}
        for _ in range(3):
            ppp = thin_ppp(ppp, cfg)
        assert ppp[VA] == pytest.approx(0.1 ** 3)


class TestBirthFromMeasurement:
    def test_noiseless_los_inversion(self):
        model = ChannelModel(BS_POS)
        ue = UEState([10.0, 5.0, 0.0], 0.7, 120.0)
        z = measure(ue, Landmark(BS, BS_POS), BS_POS)
        meas = Measurement(z, np.diag([0.01, 1e-4, 1e-4, 1e-4, 1e-4]))
        sensor = GaussianComponent(ue.as_vector(), np.zeros((5, 5)))
        # The filter bears no BS; the per-row newborn inverts it.
        comp, _ = reference_birth_from_measurement(meas, sensor, BS, model)
        assert np.allclose(comp.mean, BS_POS, atol=1e-9)

    def test_perfect_sensor_limit(self):
        # P = 0 reduces the birth covariance to (Hx^T R^-1 Hx)^-1.
        model = ChannelModel(BS_POS)
        ue = UEState([30.0, -20.0, 0.0], -0.4, 80.0)
        lm = Landmark(VA, [150.0, 40.0, 40.0])
        z = measure(ue, lm, BS_POS)
        R = np.diag([0.01, 1e-4, 1e-4, 1e-4, 1e-4])
        meas = Measurement(z, R)
        sensor = GaussianComponent(ue.as_vector(), np.zeros((5, 5)))
        comp, pred = newborn(meas, sensor, VA, model)
        from rfslam.geometry import measure_jacobian
        H = measure_jacobian(ue, Landmark(VA, comp.mean), BS_POS)
        Hx = H[:, 5:]
        # The returned Jacobian is the one at the newborn mean.
        assert np.array_equal(pred.H_x, Hx)
        expected = np.linalg.inv(Hx.T @ np.linalg.inv(R) @ Hx)
        assert np.allclose(comp.covariance, expected, rtol=1e-8)

    def test_matches_large_prior_ek_update(self):
        # Infinite-prior covariance equals a standard EK update with a huge
        # landmark prior (1e8 I), within 1e-4 relative.  The SPs lie up to
        # about 170 m from the UE, so the model's field of view covers them
        # all; under the default 50 m one, exactly the SPs farther than 50 m
        # (every draw here) have no newborn.
        rng = np.random.default_rng(9)
        model = ChannelModel(BS_POS, fov_radius=500.0)
        default_fov = ChannelModel(BS_POS)
        hidden = []
        for kind in (VA, SP):
            for _ in range(10):
                ue = UEState([rng.uniform(-60, 60), rng.uniform(-60, 60), 0.0],
                             rng.uniform(-np.pi, np.pi), rng.uniform(0, 300))
                if kind is VA:
                    pos = np.array([rng.uniform(120, 220),
                                    rng.uniform(-80, 80),
                                    rng.uniform(20, 60)])
                else:
                    pos = np.array([rng.uniform(40, 110),
                                    rng.uniform(-110, 110),
                                    rng.uniform(4, 16)])
                lm = Landmark(kind, pos)
                z = measure(ue, lm, BS_POS)
                R = np.diag([0.01, 1e-4, 1e-4, 1e-4, 1e-4])
                meas = Measurement(z, R)
                P = np.diag([0.3, 0.3, 0.0, 0.005, 0.3])
                sensor = GaussianComponent(ue.as_vector(), P)
                comp, pred = newborn(meas, sensor, kind, model)
                far = (kind is SP and np.linalg.norm(comp.mean - ue.position)
                       > default_fov.fov_radius)
                hidden.append(far)
                assert (newborn(meas, sensor, kind, default_fov)
                        is None) == far
                from rfslam.geometry import measure_jacobian
                H = measure_jacobian(ue, Landmark(kind, comp.mean), BS_POS)
                # Both parts are taken at the newborn mean.
                assert np.array_equal(pred.H_s, H[:, :5])
                assert np.array_equal(pred.H_x, H[:, 5:])
                H_s, H_x = H[:, :5], H[:, 5:]
                assert np.array_equal(pred.hph, H_s @ P @ H_s.T
                                      + H_x @ comp.covariance @ H_x.T)
                prior_cov = np.zeros((8, 8))
                prior_cov[:5, :5] = P
                prior_cov[5:, 5:] = 1e8 * np.eye(3)
                S = H @ prior_cov @ H.T + R
                K = prior_cov @ H.T @ np.linalg.inv(S)
                # Joseph form: the plain covariance subtraction cancels eight
                # digits against the 1e8 prior and would swamp the comparison.
                A = np.eye(8) - K @ H
                post = A @ prior_cov @ A.T + K @ R @ K.T
                assert np.allclose(comp.covariance, post[5:, 5:], rtol=1e-4)
        assert any(hidden)

    def test_failed_inversion_returns_none(self):
        model = ChannelModel(BS_POS)
        sensor = GaussianComponent(
            np.array([10.0, 0.0, 0.0, 0.0, 300.0]), np.eye(5))
        z = np.array([100.0, 0.0, 0.0, 0.0, 0.0])  # path < bias
        meas = Measurement(z, np.eye(5))
        assert newborn(meas, sensor, VA, model) is None


class TestMarginalizeSensor:
    def test_single_child_identity(self):
        g = GaussianComponent(np.array([1.0, 2.0]), np.eye(2))
        assert marginalize_sensor([(1.0, g)]) is g

    def test_two_children_moment_match(self):
        a = GaussianComponent(np.array([1.0]), np.array([[1.0]]))
        b = GaussianComponent(np.array([-1.0]), np.array([[1.0]]))
        out = marginalize_sensor([(0.5, a), (0.5, b)])
        assert out.mean[0] == pytest.approx(0.0)
        assert out.covariance[0, 0] == pytest.approx(2.0)

    def test_identical_children(self):
        g = GaussianComponent(np.array([3.0]), np.array([[0.5]]))
        out = marginalize_sensor([(0.5, g), (0.5, g)])
        assert out.mean[0] == pytest.approx(3.0)
        assert out.covariance[0, 0] == pytest.approx(0.5)

    def test_rejects_bad_weights(self):
        g = GaussianComponent(np.array([0.0]), np.array([[1.0]]))
        with pytest.raises(ValueError):
            marginalize_sensor([(0.4, g), (0.4, g)])

    def test_trace_dominates_weighted_child_traces(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            children = []
            weights = rng.dirichlet(np.ones(4))
            for w in weights:
                c = rng.normal(size=(3, 3))
                children.append((float(w), GaussianComponent(
                    rng.normal(size=3), c @ c.T + np.eye(3))))
            out = marginalize_sensor(children)
            avg = sum(w * np.trace(g.covariance) for w, g in children)
            assert np.trace(out.covariance) >= avg - 1e-12


def linear_setup(rng, n_landmarks, multi_type=False):
    """Random linear toy: returns (model, config, sensor, hypothesis, kinds)."""
    ds = int(rng.integers(1, 4))
    dz = int(rng.integers(1, 4))
    dx = int(rng.integers(1, 4))
    kinds = [BS, VA, SP][:max(2, n_landmarks)] if multi_type else None
    mats = {kind: (rng.normal(size=(dz, ds)), rng.normal(size=(dz, dx)),
                   rng.normal(size=dz)) for kind in (BS, VA, SP)}
    model = LinearModel(mats, dz, p_detect=0.8)
    sensor_cov = rng.normal(size=(ds, ds))
    sensor_cov = sensor_cov @ sensor_cov.T + ds * np.eye(ds)
    sensor = GaussianComponent(rng.normal(size=ds), sensor_cov)
    berns = []
    for i in range(n_landmarks):
        if multi_type:
            types = {}
            psis = rng.dirichlet(np.ones(2))
            for kind, psi in zip((VA, SP), psis):
                cov = rng.normal(size=(dx, dx))
                types[kind] = TypeComponent(psi, rng.normal(size=dx),
                                            cov @ cov.T + dx * np.eye(dx))
            berns.append(Bernoulli(rng.uniform(0.3, 1.0), LandmarkBelief(types)))
        else:
            kind = (BS, VA, SP)[i % 3]
            cov = rng.normal(size=(dx, dx))
            berns.append(single_type_bernoulli(
                rng.uniform(0.3, 1.0), kind, rng.normal(size=dx),
                cov @ cov.T + dx * np.eye(dx)))
    hyp = GlobalHypothesis(1.0, tuple(berns))
    # type_prune off: the toys verify the per-type update algebra.
    cfg = make_config(model, gate=None, type_prune=0.0)
    return model, cfg, sensor, hyp


class TestJointUpdate:
    def test_all_misdetection_no_measurements(self):
        rng = np.random.default_rng(31)
        model, cfg, sensor, hyp = linear_setup(rng, 2)
        sigma = AssociationVector(2, (0, 0))
        parts = child_parts(hyp, [], sensor, cfg)
        child, sensor_post = joint_update(parts, sigma)
        assert sensor_post is sensor
        for before, after in zip(hyp.bernoullis, child.bernoullis):
            for kind in before.belief.types:
                assert np.array_equal(after.belief.types[kind].mean,
                                      before.belief.types[kind].mean)
                assert np.array_equal(after.belief.types[kind].covariance,
                                      before.belief.types[kind].covariance)
            assert after.existence < before.existence

    def test_misdetection_existence_update(self):
        # r = 0.9, pd = 0.9 -> 0.09 / 0.19.
        model = LinearModel({SP: ([[0.0]], [[1.0]])}, 1, p_detect=0.9)
        cfg = make_config(model)
        bern = single_type_bernoulli(0.9, SP, [0.0], [[1.0]])
        hyp = GlobalHypothesis(1.0, (bern,))
        sensor = GaussianComponent(np.zeros(1), np.eye(1))
        sigma = AssociationVector(1, (0,))
        parts = child_parts(hyp, [], sensor, cfg)
        child, _ = joint_update(parts, sigma)
        assert child.bernoullis[0].existence == pytest.approx(0.09 / 0.19, rel=1e-12)

    def test_detected_existence_is_one(self):
        rng = np.random.default_rng(32)
        model, cfg, sensor, hyp = linear_setup(rng, 1)
        kind = next(iter(hyp.bernoullis[0].belief.types))
        z = model.predict(sensor.mean, hyp.bernoullis[0].belief.types[kind].mean,
                          kind)
        meas = Measurement(z, np.eye(z.size))
        sigma = AssociationVector(1, (1, None))
        parts = child_parts(hyp, [meas], sensor, cfg)
        child, _ = joint_update(parts, sigma)
        assert child.bernoullis[0].existence == 1.0

    @pytest.mark.parametrize("n_landmarks", [1, 2, 3])
    def test_matches_gaussian_conditioning(self, n_landmarks):
        rng = np.random.default_rng(100 + n_landmarks)
        for _ in range(20):
            model, cfg, sensor, hyp = linear_setup(rng, n_landmarks)
            ds = sensor.dim
            dz = model.dim
            n_meas = n_landmarks
            measurements = []
            for p in range(n_meas):
                cov = rng.normal(size=(dz, dz))
                measurements.append(Measurement(
                    rng.normal(size=dz), cov @ cov.T + dz * np.eye(dz)))
            sigma = AssociationVector(
                n_landmarks,
                tuple(range(1, n_landmarks + 1)) + (None,) * n_meas)
            parts = child_parts(hyp, measurements, sensor, cfg)
            child, sensor_post = joint_update(parts, sigma)
            # Oracle: stack the joint prior and condition in closed form.
            kinds = [next(iter(b.belief.types)) for b in hyp.bernoullis]
            dxs = [b.belief.types[k].mean.size
                   for b, k in zip(hyp.bernoullis, kinds)]
            n_state = ds + sum(dxs)
            mean0 = np.concatenate(
                [sensor.mean] + [b.belief.types[k].mean
                                 for b, k in zip(hyp.bernoullis, kinds)])
            cov0 = np.zeros((n_state, n_state))
            cov0[:ds, :ds] = sensor.covariance
            offs = ds
            slices = []
            for b, k, dx in zip(hyp.bernoullis, kinds, dxs):
                cov0[offs:offs + dx, offs:offs + dx] = b.belief.types[k].covariance
                slices.append(slice(offs, offs + dx))
                offs += dx
            H = np.zeros((dz * n_meas, n_state))
            R = np.zeros((dz * n_meas, dz * n_meas))
            z = np.zeros(dz * n_meas)
            offset = np.zeros(dz * n_meas)
            for i, (b, k) in enumerate(zip(hyp.bernoullis, kinds)):
                A, Bm, c = model.mats[k]
                rows = slice(i * dz, (i + 1) * dz)
                H[rows, :ds] = A
                H[rows, slices[i]] = Bm
                R[rows, rows] = measurements[i].covariance
                z[i * dz:(i + 1) * dz] = measurements[i].z
                offset[i * dz:(i + 1) * dz] = c
            mean_o, cov_o = conditioning_oracle(mean0, cov0, H, R, z, offset)
            assert np.allclose(sensor_post.mean, mean_o[:ds], rtol=1e-10,
                               atol=1e-10)
            assert np.allclose(sensor_post.covariance, cov_o[:ds, :ds],
                               rtol=1e-10, atol=1e-10)
            for i, (b, k) in enumerate(zip(child.bernoullis, kinds)):
                comp = b.belief.types[k]
                assert np.allclose(comp.mean, mean_o[slices[i]], rtol=1e-10,
                                   atol=1e-10)
                assert np.allclose(comp.covariance,
                                   cov_o[slices[i], slices[i]], rtol=1e-10,
                                   atol=1e-10)

    def test_multi_type_pair_conditions_each_type_on_its_own(self):
        # Two-type landmark, one measurement: each type is an independent
        # piece of sensor information, its innovation covariance S_t
        # inflated by 1/psi_t, so the sensor matches closed-form
        # conditioning on those rows; each type's posterior is its
        # conditional given the sensor and z (a Schur complement of the
        # prior joint of s, x_t and z) taken at the sensor posterior, and
        # its weight is psi_t ~ w_t pd N(z; A m + B x_t + c, A P A^T + S_t).
        rng = np.random.default_rng(41)
        for _ in range(10):
            model, cfg, sensor, hyp = linear_setup(rng, 1, multi_type=True)
            ds, dz = sensor.dim, model.dim
            P, m = sensor.covariance, sensor.mean
            types = hyp.bernoullis[0].belief.types
            cov = rng.normal(size=(dz, dz))
            meas = Measurement(rng.normal(size=dz), cov @ cov.T + dz * np.eye(dz))
            sigma = AssociationVector(1, (1, None))
            parts = child_parts(hyp, [meas], sensor, cfg)
            child, sensor_post = joint_update(parts, sigma)
            S_x, masses = {}, {}
            for kind, comp in types.items():
                A, Bm, c = model.mats[kind]
                S_x[kind] = Bm @ comp.covariance @ Bm.T + meas.covariance
                S = A @ P @ A.T + S_x[kind]
                v = meas.z - A @ m - Bm @ comp.mean - c
                masses[kind] = comp.weight * 0.8 * math.exp(
                    -0.5 * v @ np.linalg.solve(S, v)) / math.sqrt(
                    np.linalg.det(2.0 * math.pi * S))
            psi = {kind: w / sum(masses.values()) for kind, w in masses.items()}
            H = np.vstack([model.mats[kind][0] for kind in types])
            z = np.concatenate([meas.z - model.mats[kind][1] @ comp.mean
                                for kind, comp in types.items()])
            offset = np.concatenate([model.mats[kind][2] for kind in types])
            mean_o, cov_o = conditioning_oracle(
                m, P, H, block_diag(*(S_x[kind] / psi[kind] for kind in types)),
                z, offset)
            assert np.allclose(sensor_post.mean, mean_o, rtol=1e-9, atol=1e-9)
            assert np.allclose(sensor_post.covariance, cov_o, rtol=1e-9,
                               atol=1e-9)
            post = child.bernoullis[0].belief.types
            assert list(post) == list(types)
            for kind, comp in types.items():
                A, Bm, c = model.mats[kind]
                C = comp.covariance
                # Prior joint of (s, z) and its cross-covariance with x_t.
                joint = np.block([[P, P @ A.T],
                                  [A @ P, A @ P @ A.T + S_x[kind]]])
                cross = np.hstack([np.zeros((C.shape[0], ds)), C @ Bm.T])
                coef = cross @ np.linalg.inv(joint)
                want_mean = comp.mean + coef @ np.concatenate(
                    [mean_o - m, meas.z - A @ m - Bm @ comp.mean - c])
                want_cov = (C - coef @ cross.T
                            + coef[:, :ds] @ cov_o @ coef[:, :ds].T)
                assert post[kind].weight == pytest.approx(psi[kind], rel=1e-9)
                assert not np.allclose(post[kind].mean, comp.mean)
                assert np.allclose(post[kind].mean, want_mean, rtol=1e-9,
                                   atol=1e-9)
                assert np.allclose(post[kind].covariance, want_cov,
                                   rtol=1e-9, atol=1e-9)

    def test_row_omission_equals_padded_reference(self):
        # The padded reference carries misdetected landmarks with zero
        # measurement rows (z = 0, h = 0, R = I); posterior must match the
        # row-omitted implementation exactly.
        rng = np.random.default_rng(42)
        model, cfg, sensor, hyp = linear_setup(rng, 3)
        ds, dz = sensor.dim, model.dim
        kinds = [next(iter(b.belief.types)) for b in hyp.bernoullis]
        z1 = model.predict(sensor.mean, hyp.bernoullis[0].belief.types[kinds[0]].mean,
                           kinds[0]) + 0.1
        meas = Measurement(z1, np.eye(dz))
        sigma = AssociationVector(3, (1, 0, 0, None))
        parts = child_parts(hyp, [meas], sensor, cfg)
        child, sensor_post = joint_update(parts, sigma)

        dxs = [b.belief.types[k].mean.size
               for b, k in zip(hyp.bernoullis, kinds)]
        n_state = ds + sum(dxs)
        mean0 = np.concatenate([sensor.mean]
                               + [b.belief.types[k].mean
                                  for b, k in zip(hyp.bernoullis, kinds)])
        cov0 = np.zeros((n_state, n_state))
        cov0[:ds, :ds] = sensor.covariance
        offs, slices = ds, []
        for b, k, dx in zip(hyp.bernoullis, kinds, dxs):
            cov0[offs:offs + dx, offs:offs + dx] = b.belief.types[k].covariance
            slices.append(slice(offs, offs + dx))
            offs += dx
        H = np.zeros((3 * dz, n_state))
        R = np.eye(3 * dz)
        z = np.zeros(3 * dz)
        offset = np.zeros(3 * dz)
        A, Bm, c = model.mats[kinds[0]]
        H[:dz, :ds] = A
        H[:dz, slices[0]] = Bm
        R[:dz, :dz] = meas.covariance
        z[:dz] = meas.z
        offset[:dz] = c
        mean_o, cov_o = conditioning_oracle(mean0, cov0, H, R, z, offset)
        assert np.allclose(sensor_post.mean, mean_o[:ds], rtol=1e-12, atol=1e-12)
        assert np.allclose(sensor_post.covariance, cov_o[:ds, :ds], rtol=1e-12,
                           atol=1e-12)
        comp = child.bernoullis[0].belief.types[kinds[0]]
        assert np.allclose(comp.mean, mean_o[slices[0]], atol=1e-12)
        for i in (1, 2):
            comp = child.bernoullis[i].belief.types[kinds[i]]
            assert np.allclose(comp.mean, mean_o[slices[i]], atol=1e-12)
            assert np.allclose(comp.covariance, cov_o[slices[i], slices[i]],
                               atol=1e-12)

    def test_singular_pair_drops_only_its_associations(self):
        # Landmark 0 detected by measurement 0 is the pair of
        # rounding_singular_pair, whose S_x fails its Cholesky factorization;
        # with measurement 1, and landmark 1 with either measurement, S_x
        # is positive definite.  The associations that detect pair (0, 0)
        # raise, each in its own call, and update_step keeps every other
        # one.
        model, bad, singular = rounding_singular_pair()
        cfg = make_config(model, gate=None, gamma=20, filter_kind=EK_PMBM)
        good = single_type_bernoulli(0.9, SP, [2.0], [[1.0]])
        hyp = GlobalHypothesis(1.0, (bad, good))
        sensor = GaussianComponent(np.zeros(1), np.eye(1))
        measurements = [singular, Measurement(np.array([2.1, 2.0]), np.eye(2))]
        parts = child_parts(hyp, measurements, sensor, cfg)
        outcomes = {sigma: update_outcome(joint_update, parts, sigma)
                    for sigma, _ in parts.ranked}
        dropped = {sigma for sigma, outcome in outcomes.items()
                   if outcome is np.linalg.LinAlgError}
        assert dropped == {sigma for sigma in outcomes
                           if (0, 0) in sigma.detected_pairs()}
        assert 0 < len(dropped) < len(outcomes)
        assert any((0, 1) in sigma.detected_pairs() for sigma in outcomes)
        with pytest.raises(np.linalg.LinAlgError, match="not positive"):
            joint_update(parts, next(iter(dropped)))

        kept = []
        original = update_module.marginalize_sensor
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(update_module, "marginalize_sensor",
                          lambda children: kept.append(len(children))
                          or original(children))
            density, _ = update_step(PmbmDensity(default_ppp_intensity(),
                                                 (hyp,)),
                                     sensor, measurements, cfg)
        assert kept == [len(outcomes) - len(dropped)]
        check_density(density)


def rounding_singular_pair():
    """``(model, landmark, measurement)`` of a one-type pair whose S_x
    fails ``dpotrf`` by rounding alone: R = [[1, 1 - 1e-12], [1 - 1e-12,
    1]] is positive definite, and so is S_x = R + 3e6 [[1, 1], [1, 1]]
    exactly, but 3e6 + 1 - 1e-12 rounds to 3e6 + 1, so the S_x the filter
    forms is singular (with 1e6 in place of 3e6, dpotrf succeeds).  Its
    H_s [1, -1] makes the pair's full S positive definite, so the cost
    matrix keeps it.  The model's SP type reads a landmark with the
    sensor's first row only."""
    model = LinearModel({VA: ([[1.0], [-1.0]], [[1.0], [1.0]]),
                         SP: ([[1.0], [0.0]], [[0.0], [1.0]])}, 2,
                        p_detect=0.9)
    landmark = single_type_bernoulli(0.8, VA, [0.0], [[3e6]])
    noise = np.array([[1.0, 1.0 - 1e-12], [1.0 - 1e-12, 1.0]])
    return model, landmark, Measurement(np.array([0.3, -0.2]), noise)


def innovations(parts, i, p):
    """Each conditioned type's innovation of landmark ``i`` detected by
    ``p``."""
    return {kind: v for kind, _, _, v in parts.detection(i, p)[1]}


def pair_innovation_cov(parts, i, p):
    """``(kind, psi, H_s, S_x)`` of each type of landmark ``i`` detected by
    ``p`` that the update conditions on: its type posterior, H_s and S_x =
    H_x P_x H_x^T + R."""
    psi, stack = parts.detection(i, p)
    R = parts.measurements[p].covariance
    return [(kind, psi[kind], pred.H_s, pred.H_x @ comp.covariance
             @ pred.H_x.T + R) for kind, comp, pred, _ in stack]


def reference_joint_update(parts, sigma):
    """The joint update written densely, per association: each detected
    type t with a prediction is an independent reading of the sensor, its
    rows H_s and innovation v with noise S_x / psi_t, and the sensor is
    conditioned on all of them in one Cholesky solve (a type with psi_t 0
    adds no rows); each such type then conditions on z given the sensor, x
    + K (v - H_s (s - m)) with covariance (I - K H_x) P_x, taken over the
    sensor posterior.  Any other type keeps its prior.  It keeps the drop
    rule: a detected pair with a type whose S_x is not positive definite
    raises."""
    hypothesis = parts.hypothesis
    sensor_prior, measurements = parts.sensor, parts.measurements
    sigma.validate()
    berns = hypothesis.bernoullis
    if len(berns) != sigma.n_prior or len(measurements) != sigma.n_meas:
        raise ValueError("association vector inconsistent with inputs")
    detected = sigma.detected_pairs()
    type_preds = parts.ctx.type_preds
    psi_post = {i: parts.detection(i, p)[0] for i, p in detected}
    m, P = sensor_prior.mean, sensor_prior.covariance
    ds = sensor_prior.dim
    terms = {}
    for i, p in detected:
        v = innovations(parts, i, p)
        for kind in psi_post[i]:
            pred = type_preds[i][kind]
            if pred.H_s is None:
                continue
            comp = berns[i].belief.types[kind]
            S_x = pred.H_x @ comp.covariance @ pred.H_x.T \
                + measurements[p].covariance
            cho_factor(S_x, lower=True)
            terms[(i, kind)] = (psi_post[i][kind], pred, comp, S_x, v[kind])
    rows = [(pred.H_s, S_x / w, v) for w, pred, _, S_x, v in terms.values()
            if w > 0.0]
    if rows:
        H = np.vstack([H_s for H_s, _, _ in rows])
        gain = cho_solve(cho_factor(symmetrize(
            H @ P @ H.T + block_diag(*(N for _, N, _ in rows))), lower=True),
            H @ P).T
        delta = gain @ np.concatenate([v for _, _, v in rows])
        Sigma = symmetrize(P - gain @ H @ P)
    else:
        delta, Sigma = np.zeros(ds), P
    sensor_post = (GaussianComponent(m + delta, Sigma) if detected
                   else sensor_prior)
    posterior_comp = {}
    for (i, kind), (_, pred, comp, S_x, v) in terms.items():
        K = cho_solve(cho_factor(S_x, lower=True),
                      pred.H_x @ comp.covariance).T
        KHs = K @ pred.H_s
        posterior_comp[(i, kind)] = (
            comp.mean + K @ v - KHs @ delta,
            symmetrize(comp.covariance - K @ pred.H_x @ comp.covariance
                       + KHs @ Sigma @ KHs.T))

    detected_by_landmark = dict(detected)
    new_berns = []
    for i, bern in enumerate(berns):
        if i in detected_by_landmark:
            types = {}
            for kind, psi in psi_post[i].items():
                if (i, kind) in posterior_comp:
                    mean, cov = posterior_comp[(i, kind)]
                else:
                    comp = bern.belief.types[kind]
                    mean, cov = comp.mean, comp.covariance
                types[kind] = TypeComponent(psi, mean, cov)
            new_berns.append(Bernoulli(1.0, LandmarkBelief(types)))
        else:
            new_berns.append(parts.misdetected(i))

    for p in sigma.born_measurements():
        new_berns.append(parts.born(p))

    child = GlobalHypothesis(hypothesis.weight, tuple(new_berns), assoc=sigma)
    return child, sensor_post


class DegenerateLinearModel(LinearModel):
    """Linear toy whose ``degenerate`` types have no valid geometry."""

    def __init__(self, mats, dim, p_detect, degenerate):
        super().__init__(mats, dim, p_detect)
        self.degenerate = degenerate

    def predict(self, sensor_mean, lm_mean, kind):
        if kind in self.degenerate:
            raise DegenerateGeometryError(f"toy {kind.value} has no geometry")
        return super().predict(sensor_mean, lm_mean, kind)


def reference_toy(rng, n_landmarks, multi_type, pd_zero, degenerate,
                  zero_variance=False):
    """Random linear toy for the reference comparison: (model, sensor,
    hypothesis, measurements).  Most landmarks get a measurement near the
    prediction of one of their types; a clutter measurement may follow.
    With ``zero_variance`` one sensor component has variance 0, as the
    filter's sensor height has."""
    ds, dz, dx = (int(rng.integers(1, 4)) for _ in range(3))
    mats = {kind: (rng.normal(size=(dz, ds)), rng.normal(size=(dz, dx)),
                   rng.normal(size=dz)) for kind in (BS, VA, SP)}
    model = DegenerateLinearModel(
        mats, dz, {kind: 0.0 if kind is pd_zero else 0.8
                   for kind in (BS, VA, SP)}, {degenerate})
    sensor_cov = rng.normal(size=(ds, ds))
    sensor_cov = sensor_cov @ sensor_cov.T + ds * np.eye(ds)
    if zero_variance:
        j = int(rng.integers(0, ds))
        sensor_cov[j, :] = sensor_cov[:, j] = 0.0
    sensor = GaussianComponent(rng.normal(size=ds), sensor_cov)

    def spd(n):
        a = rng.normal(size=(n, n))
        return a @ a.T + n * np.eye(n)

    berns = []
    for _ in range(n_landmarks):
        kinds = ([VA, SP] + [BS] * int(rng.integers(0, 2)) if multi_type
                 else [(BS, VA, SP)[int(rng.integers(0, 3))]])
        psis = rng.dirichlet(np.ones(len(kinds)))
        types = {}
        for kind, psi in zip(kinds, psis):
            types[kind] = TypeComponent(psi, rng.normal(size=dx), spd(dx))
        berns.append(Bernoulli(rng.uniform(0.3, 1.0), LandmarkBelief(types)))
    measurements = []
    for bern in berns:
        if rng.uniform() < 0.8:
            kind = list(bern.belief.types)[
                int(rng.integers(0, len(bern.belief.types)))]
            A, B, c = model.mats[kind]
            z = (A @ sensor.mean + B @ bern.belief.types[kind].mean + c
                 + 0.3 * rng.normal(size=dz))
            measurements.append(Measurement(z, spd(dz)))
    if rng.uniform() < 0.3:
        measurements.append(Measurement(3.0 * rng.normal(size=dz), spd(dz)))
    order = rng.permutation(len(measurements))
    return (model, sensor, GlobalHypothesis(1.0, tuple(berns)),
            [measurements[k] for k in order])


def same_bytes(a, b):
    """Equal dtype, shape and bytes: signed zeros count."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def assert_children_bit_equal(got, want):
    (child, sensor), (ref, ref_sensor) = got, want
    assert same_bytes(sensor.mean, ref_sensor.mean)
    assert same_bytes(sensor.covariance, ref_sensor.covariance)
    assert child.weight == ref.weight and child.assoc is ref.assoc
    assert len(child.bernoullis) == len(ref.bernoullis)
    for a, b in zip(child.bernoullis, ref.bernoullis):
        assert a.existence == b.existence
        assert list(a.belief.types) == list(b.belief.types)
        for kind, comp in a.belief.types.items():
            other = b.belief.types[kind]
            assert comp.weight == other.weight
            assert same_bytes(comp.mean, other.mean)
            assert same_bytes(comp.covariance, other.covariance)


def conditioning(parts, sigma):
    """kappa(S_x) of the worst type ``sigma`` detects times kappa(I + P
    J_a), 2-norm condition numbers: the information form solves with
    both."""
    P = parts.sensor.covariance
    J, worst = np.zeros_like(P), 1.0
    for i, p in sigma.detected_pairs():
        for _, w, H_s, S_x in pair_innovation_cov(parts, i, p):
            worst = max(worst, np.linalg.cond(S_x))
            J = J + w * H_s.T @ np.linalg.solve(S_x, H_s)
    return worst * np.linalg.cond(np.eye(len(P)) + P @ J)


def reference_rtol(parts, sigma):
    """The relative tolerance of the information form against the dense
    reference: 1e-12 times :func:`conditioning`, and at least 1e-10.

    Both take the same posterior, so they differ by rounding alone, and
    the information form's rounding grows with the two condition numbers.
    Measured over 25,333 ranked associations of the toys below (seeds
    0-399, 1-3 landmarks, one or several types, with and without a
    zero-variance sensor component, type_prune 0): at most 7.5e-15 times
    the conditioning, and at most 2.2e-13 where it is below 100; the
    channel model's runs read 7e-15 with or without a second type.  A
    wrong term (no K H_s delta_a, no K H_s Sigma_a H_s^T K^T, or the full S
    in place of S_x in J) moves a well-conditioned result by a relative
    1e-3 or more.
    """
    return max(1e-10, 1e-12 * conditioning(parts, sigma))


def assert_close(got, want, scale, rtol):
    """Equal shapes and ``|got - want| <= rtol max(|want|, scale)``, the
    largest entries: ``scale`` is the prior's, whose rounding the
    update's differences carry even where the posterior is near 0."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= \
        rtol * max(np.max(np.abs(want), initial=0.0), scale)


def assert_children_close(got, want, parts, rtol):
    """Two update outcomes of ``parts``'s hypothesis that agree within
    ``rtol`` of each prior's scale, with the same children structure,
    weights and type probabilities."""
    (child, sensor), (ref, ref_sensor) = got, want
    priors = [(parts.sensor, ref_sensor, sensor)] + [
        (ref_comp if i >= len(parts.hypothesis.bernoullis) else
         parts.hypothesis.bernoullis[i].belief.types[kind], ref_comp,
         b.belief.types[kind])
        for i, (b, r) in enumerate(zip(child.bernoullis, ref.bernoullis))
        for kind, ref_comp in r.belief.types.items()]
    assert child.weight == ref.weight and child.assoc is ref.assoc
    assert len(child.bernoullis) == len(ref.bernoullis)
    for a, b in zip(child.bernoullis, ref.bernoullis):
        assert a.existence == b.existence
        assert list(a.belief.types) == list(b.belief.types)
        assert [c.weight for c in a.belief.types.values()] == \
            [c.weight for c in b.belief.types.values()]
    for prior, ref_comp, comp in priors:
        cov_scale = np.max(np.abs(prior.covariance))
        assert_close(comp.mean, ref_comp.mean, max(
            np.max(np.abs(prior.mean)), np.sqrt(cov_scale)), rtol)
        assert_close(comp.covariance, ref_comp.covariance, cov_scale, rtol)


def exact_children(made):
    """The exact children of the contexts in ``made``: each context rebuilt
    fresh, every association it ranked updated by :func:`joint_update` and
    weighted as ``update_step`` weights it, in one density; None when every
    association is dropped."""
    children = []
    for parts in made:
        fresh = ChildParts(parts.hypothesis, parts.measurements, parts.sensor,
                           parts.ppp, parts.config)
        for sigma, cost in parts.ranked:
            try:
                child, _ = joint_update(fresh, sigma)
            except np.linalg.LinAlgError:
                continue
            children.append((math.log(parts.hypothesis.weight)
                             + fresh.log_const - cost, child))
    if not children:
        return None
    log_weights = np.array([lw for lw, _ in children])
    weights = np.exp(log_weights - log_weights.max())
    weights /= weights.sum()
    return PmbmDensity({}, tuple(
        GlobalHypothesis(w, child.bernoullis, child.assoc)
        for w, (_, child) in zip(weights, children)))


def exact_pmb_table(made):
    """The track table a PMB step averages, from the exact children
    (:func:`exact_children`) aligned and averaged by the reduction; None
    when every association is dropped."""
    children = exact_children(made)
    return (None if children is None
            else average_conditionals(align_hypotheses(children)))


def cell_rtol(n_holders):
    """Relative tolerance of a detected cell's Bernoulli against the
    average of the exact children.

    Both start from one pass's per-association terms, bit for bit: delta_a,
    Sigma_a, K H_s, x + K v and P_c.  The children form x_a = x + K v - K
    H_s delta_a and P_a = P_c + K H_s Sigma_a H_s^T K^T and moment match
    them in landmark space; the cell forms x + K v - K H_s delta-bar and P_c
    + K H_s (Sigma-bar + C_delta) H_s^T K^T in sensor space.  These are the
    same moments, as x_a - x-bar = -K H_s (delta_a - delta-bar), so the two
    differ by rounding alone.  Each side chains at most four sums or dot
    products of at most ``n_holders`` + 6 terms (6: the 5-D sensor plus
    one column), and a sum of k terms errs by at most k u times the sum of
    their magnitudes, u = 2^-53 (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, sec. 4.2).  With the magnitudes bounded by
    :func:`cell_scales`, the two differ by at most 8 (``n_holders`` + 6) u
    of the scale.  Measured: at most 0.062 of that over 10,158 type
    comparisons of 1,200 toy steps, and 0.048 over 1,342 of 20 channel-model
    runs.  A wrong moment (no C_delta, weights without beta, or every
    association in place of the pair's holders) fails it."""
    return 8 * (n_holders + 6) * 2.0 ** -53


def cell_scales(prior, comps, mean):
    """The magnitudes a cell's rounding scales with: for the mean, the
    largest entry of its prior's mean, its prior's standard deviation and
    its holders' means; for the covariance, the largest entry of its
    prior's and its holders' covariances and of each holder mean times its
    distance from the average ``mean``."""
    spread = max(np.max(np.abs(c.mean)) * np.max(np.abs(c.mean - mean))
                 for c in comps)
    cov = max([np.max(np.abs(prior.covariance)), spread]
              + [np.max(np.abs(c.covariance)) for c in comps])
    return max([np.max(np.abs(prior.mean)),
                np.sqrt(np.max(np.abs(prior.covariance)))]
               + [np.max(np.abs(c.mean)) for c in comps]), cov


def assert_detected_cells_close(got, want, priors):
    """A PMB step's averaged track table ``got`` against the exact one
    ``want`` (:func:`exact_pmb_table`): the same cells with the same beta
    and type masses, and each live detected cell's Bernoulli within
    :func:`cell_rtol` of the exact average, the types whose mass is below
    ``MIN_CELL_MASS`` excepted (the exact average keeps one child's
    Gaussian there).  ``priors`` are the prior Bernoullis of the tracks.
    Returns ``(holders, types)`` of each detected cell compared."""
    assert got.n_prior == want.n_prior
    assert [list(t) for t in got.cells] == [list(t) for t in want.cells]
    held = []
    for i, (track, ref_track) in enumerate(zip(got.cells[:got.n_prior],
                                               want.cells[:want.n_prior])):
        for q, cell in track.items():
            ref = ref_track[q]
            assert cell.beta == ref.beta
            if len(track) > 1:
                assert cell.masses == ref.masses
            if q == 0 or ref.bernoulli is None:
                continue
            bern, exact = cell.bernoulli, ref.bernoulli
            assert bern.belief.types.keys() == exact.belief.types.keys()
            for kind, comp in bern.belief.types.items():
                ref_comp = exact.belief.types[kind]
                # Children of two parents can hold different types of a
                # pair: only the contributors that hold the type mix it.
                holding = [(w, b.belief.types[kind])
                           for w, b in ref.contributors
                           if kind in b.belief.types]
                comps = [c for _, c in holding]
                rtol = cell_rtol(len(comps))
                assert abs(comp.weight - ref_comp.weight) <= rtol
                if sum_in_order(w * c.weight for w, c in holding) \
                        < MIN_CELL_MASS:
                    continue
                mean_scale, cov_scale = cell_scales(
                    priors[i].belief.types[kind], comps, ref_comp.mean)
                assert_close(comp.mean, ref_comp.mean, mean_scale, rtol)
                assert_close(comp.covariance, ref_comp.covariance,
                             cov_scale, rtol)
            assert abs(bern.existence - exact.existence) <= cell_rtol(
                len(ref.contributors))
            held.append((len(ref.contributors), len(bern.belief.types)))
    return held


def update_outcome(update, parts, sigma):
    """The update's ``(child, sensor)``, or the LinAlgError class it raised."""
    try:
        return update(parts, sigma)
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError


class RecordingParts(ChildParts):
    """``ChildParts`` that keeps its PPP, so a test can build a fresh twin."""

    def __init__(self, hypothesis, measurements, sensor, ppp, config):
        super().__init__(hypothesis, measurements, sensor, ppp, config)
        self.ppp = ppp


def listing_parts(made):
    """A :class:`RecordingParts` whose every context is appended to
    ``made``."""

    class Listed(RecordingParts):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    return Listed


class TestJointUpdateReference:
    """``joint_update`` conditions in the information form, every ranked
    association of a hypothesis in one pass.  It must agree with the dense
    reference within :func:`reference_rtol` on every association the filter
    ranks, and each child must have the bits its association gets alone."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_landmarks=st.integers(0, 3),
           multi_type=st.booleans(), type_prune=st.sampled_from([0.0, 1e-4]),
           pd_zero=st.sampled_from([None, VA, SP]),
           degenerate=st.sampled_from([None, VA, SP]),
           zero_variance=st.booleans())
    def test_within_tolerance_of_dense_reference(
            self, seed, n_landmarks, multi_type, type_prune, pd_zero,
            degenerate, zero_variance):
        rng = np.random.default_rng(seed)
        model, sensor, hyp, measurements = reference_toy(
            rng, n_landmarks, multi_type, pd_zero, degenerate, zero_variance)
        cfg = make_config(model, gate=None, type_prune=type_prune, gamma=8)
        parts = child_parts(hyp, measurements, sensor, cfg)
        for sigma, _ in parts.ranked:
            got = update_outcome(joint_update, parts, sigma)
            # A fresh context: the reference sees no piece the pass built.
            want = update_outcome(reference_joint_update, child_parts(
                hyp, measurements, sensor, cfg), sigma)
            if np.linalg.LinAlgError in (got, want):
                assert got is want
            else:
                assert_children_close(got, want, parts,
                                      reference_rtol(parts, sigma))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_landmarks=st.integers(0, 3),
           multi_type=st.booleans(), type_prune=st.sampled_from([0.0, 1e-4]),
           pd_zero=st.sampled_from([None, VA, SP]),
           degenerate=st.sampled_from([None, VA, SP]),
           zero_variance=st.booleans())
    def test_bit_equal_on_ranked_associations(
            self, seed, n_landmarks, multi_type, type_prune, pd_zero,
            degenerate, zero_variance):
        # The first call updates all eight ranked associations in one pass;
        # under gamma 1 each association passes alone: the best is the one
        # ranked, and any other is not ranked at all.
        rng = np.random.default_rng(seed)
        model, sensor, hyp, measurements = reference_toy(
            rng, n_landmarks, multi_type, pd_zero, degenerate, zero_variance)
        cfg = make_config(model, gate=None, type_prune=type_prune, gamma=8)
        parts = child_parts(hyp, measurements, sensor, cfg)
        for sigma, _ in parts.ranked:
            got = update_outcome(joint_update, parts, sigma)
            alone = update_outcome(joint_update, child_parts(
                hyp, measurements, sensor, replace(cfg, gamma=1)), sigma)
            if np.linalg.LinAlgError in (got, alone):
                assert got is alone
            else:
                assert_children_bit_equal(got, alone)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("type_prune", [0.0, 1e-4])
    @pytest.mark.parametrize("filter_kind", [EK_PMB, EK_PMBM])
    def test_bit_equal_in_channel_model_runs(self, seed, type_prune,
                                             filter_kind):
        # Every update of a cluttered channel-model run, as update_step
        # makes it.  Under PMBM each child is within reference_rtol of the
        # reference and has the bits of its association passed alone.  A
        # PMB step calls no joint_update: it gives each detected pair one
        # averaged Bernoulli, and every step's detected cells must be
        # within cell_rtol of the reduction's average of the exact
        # children.
        scenario = replace(default_scenario(seed=seed, steps=8),
                           clutter_mean=3.0)
        cfg = replace(build_filter_config(scenario, RunConfig(
            filter_kind=filter_kind, gamma=5)), type_prune=type_prune)
        rng = np.random.default_rng([seed, 0])
        density, sensor = initial_state(scenario)
        spans, made, cells = [], [], []

        def compared(parts, sigma):
            def fresh(config):
                return ChildParts(parts.hypothesis, parts.measurements,
                                  parts.sensor, parts.ppp, config)

            got = update_outcome(joint_update, parts, sigma)
            want = update_outcome(reference_joint_update, fresh(parts.config),
                                  sigma)
            alone = update_outcome(joint_update,
                                   fresh(replace(parts.config, gamma=1)), sigma)
            if np.linalg.LinAlgError in (got, want, alone):
                assert got is want is alone
                raise np.linalg.LinAlgError("association dropped")
            assert_children_close(got, want, parts,
                                  reference_rtol(parts, sigma))
            assert_children_bit_equal(got, alone)
            spans.extend(len(parts.detection(i, p)[1])
                         for i, p in sigma.detected_pairs())
            return got

        def averaged(table):
            table = average_conditionals(table)
            cells.extend(assert_detected_cells_close(
                table, exact_pmb_table(made), made[0].hypothesis.bernoullis))
            made.clear()
            return table

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(update_module, "ChildParts", listing_parts(made))
            patch.setattr(update_module, "joint_update", compared)
            patch.setattr(reduction, "average_conditionals", averaged)
            for truth in simulate_trajectory(scenario, rng)[1:]:
                zset = generate_measurements(truth, scenario, rng)
                density, sensor = step(density, sensor,
                                       list(zset.measurements), cfg)
        # With no type pruned, a VA/SP newborn re-detected inside the FOV
        # keeps both types, and each is conditioned on.
        spans += [types for _, types in cells]
        assert spans and (max(spans) > 1 or type_prune > 0.0)
        assert (filter_kind == EK_PMB) == bool(cells)
        assert filter_kind == EK_PMBM or max(n for n, _ in cells) > 1

    def test_both_raise_when_no_type_has_geometry(self):
        # The cost matrix never ranks such a detection; forced, it raises.
        model = DegenerateLinearModel({VA: ([[1.0]], [[1.0]]),
                                       SP: ([[1.0]], [[1.0]])}, 1, 0.9, {SP})
        hyp = GlobalHypothesis(1.0, (single_type_bernoulli(
            0.9, SP, [0.0], [[1.0]]),))
        sensor = GaussianComponent(np.zeros(1), np.eye(1))
        meas = Measurement(np.array([0.3]), np.eye(1))
        cfg = make_config(model, gate=None)
        for update in (joint_update, reference_joint_update):
            with pytest.raises(np.linalg.LinAlgError, match="valid geometry"):
                update(child_parts(hyp, [meas], sensor, cfg),
                       AssociationVector(1, (1, None)))

    def test_both_drop_a_singular_pair(self):
        # The pair of rounding_singular_pair alone: its S_x fails dpotrf.
        model, bern, meas = rounding_singular_pair()
        hyp = GlobalHypothesis(1.0, (bern,))
        sensor = GaussianComponent(np.zeros(1), np.eye(1))
        sigma = AssociationVector(1, (1, None))
        cfg = make_config(model, gate=None)
        for update in (joint_update, reference_joint_update):
            assert update_outcome(update, child_parts(hyp, [meas], sensor,
                                                      cfg), sigma) \
                is np.linalg.LinAlgError


def toy_pmb_step_cells(seed, n_landmarks, multi_type, type_prune, pd_zero,
                       degenerate, zero_variance, two_parents):
    """One PMB step at gamma 8 on a :func:`reference_toy` draw, its detected
    cells checked by :func:`assert_detected_cells_close`; returns what that
    returns.  With ``two_parents`` a second hypothesis over the same tracks,
    its means moved, takes 0.4 of the weight."""
    rng = np.random.default_rng(seed)
    model, sensor, hyp, measurements = reference_toy(
        rng, n_landmarks, multi_type, pd_zero, degenerate, zero_variance)
    hyps = (hyp,)
    if two_parents:
        hyps = (replace(hyp, weight=0.6), GlobalHypothesis(0.4, tuple(
            Bernoulli(b.existence, LandmarkBelief({
                kind: TypeComponent(c.weight, c.mean + rng.normal(
                    size=c.mean.shape), c.covariance)
                for kind, c in b.belief.types.items()}))
            for b in hyp.bernoullis)))
    density = PmbmDensity(default_ppp_intensity(), hyps)
    cfg = make_config(model, gate=None, type_prune=type_prune, gamma=8)
    made, tables = [], []

    def averaged(table):
        tables.append(average_conditionals(table))
        return tables[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(update_module, "ChildParts", listing_parts(made))
        patch.setattr(reduction, "average_conditionals", averaged)
        try:
            update_step(density, sensor, measurements, cfg)
        except DegenerateDensityError:
            assert exact_pmb_table(made) is None
            return []
    (table,) = tables
    return assert_detected_cells_close(table, exact_pmb_table(made),
                                       hyps[0].bernoullis)


class TestCellAverage:
    """A PMB step gives each detected pair one Bernoulli, the average of
    its holders' posteriors formed in sensor space.  It must agree with the
    reduction's average of the exact children within :func:`cell_rtol`,
    for multi-type pairs and for a density of two parent hypotheses, whose
    per-parent averages the reduction then mixes."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_landmarks=st.integers(1, 3),
           multi_type=st.booleans(), type_prune=st.sampled_from([0.0, 1e-4]),
           pd_zero=st.sampled_from([None, VA, SP]),
           degenerate=st.sampled_from([None, VA, SP]),
           zero_variance=st.booleans(), two_parents=st.booleans())
    def test_matches_average_of_exact_children(
            self, seed, n_landmarks, multi_type, type_prune, pd_zero,
            degenerate, zero_variance, two_parents):
        toy_pmb_step_cells(seed, n_landmarks, multi_type, type_prune,
                           pd_zero, degenerate, zero_variance, two_parents)

    def test_draws_hold_shared_and_multi_type_cells(self):
        # The oracle sees cells of several holders, multi-type cells and
        # two-parent steps: on 40 fixed draws each kind is compared.
        cells = {two_parents: [cell for seed in range(20)
                               for cell in toy_pmb_step_cells(
                                   seed, 3, True, 0.0, None, None, False,
                                   two_parents)]
                 for two_parents in (False, True)}
        for found in cells.values():
            assert min(n for n, _ in found) == 1
            assert max(n for n, _ in found) > 1
            assert max(types for _, types in found) > 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cell_of_one_holder_is_its_own_posterior(self, seed):
        # Every PMB step of a cluttered channel-model run at gamma 10: a
        # detected pair that one surviving association holds gets, bit for
        # bit, the Bernoulli that association gets from the per-association
        # tail (no log_weights), and every association keeps its sensor.
        scenario = replace(default_scenario(seed=seed, steps=8),
                           clutter_mean=3.0)
        cfg = build_filter_config(scenario, RunConfig(filter_kind=EK_PMB,
                                                      gamma=10))
        information_pass = update_module._information_pass
        held = Counter()

        def compared(parts, batch, log_weights=None):
            got = information_pass(parts, batch, log_weights)
            own = information_pass(parts, batch)
            live = [sigma for sigma in batch
                    if not isinstance(got[sigma], np.linalg.LinAlgError)]
            holders = Counter(key for sigma in live
                              for key in sigma.detected_pairs())
            for sigma in batch:
                if sigma not in live:
                    assert isinstance(own[sigma], np.linalg.LinAlgError)
                    continue
                (sensor, cells), (own_sensor, own_cells) = (got[sigma],
                                                            own[sigma])
                for i, p in sigma.detected_pairs():
                    held[holders[(i, p)]] += 1
                    if holders[(i, p)] == 1:
                        assert_children_bit_equal(
                            (GlobalHypothesis(1.0, (cells[i],)), sensor),
                            (GlobalHypothesis(1.0, (own_cells[i],)),
                             own_sensor))
            return got

        rng = np.random.default_rng([seed, 0])
        density, sensor = initial_state(scenario)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(update_module, "_information_pass", compared)
            for truth in simulate_trajectory(scenario, rng)[1:]:
                zset = generate_measurements(truth, scenario, rng)
                density, sensor = step(density, sensor,
                                       list(zset.measurements), cfg)
        assert held[1] and max(held) > 1


def dropped_mass_bound(gamma):
    """The largest share of a step's weight that the cost-gap floor drops.

    A hypothesis ranks at most ``gamma`` - 1 associations besides its best,
    and :class:`ChildParts` drops one only when it carries under
    ``MIN_CELL_MASS`` of the best one's weight, so of the hypothesis's
    weight; summed over the hypotheses, the dropped weight is under
    (``gamma`` - 1) ``MIN_CELL_MASS`` of the total."""
    return (gamma - 1) * MIN_CELL_MASS


def floor_step(density, sensor_pred, measurements, cfg, gap):
    """``update_step`` with ``MAX_COST_GAP`` set to ``gap``: its outcome,
    the children ``marginalize_sensor`` mixes, the density ``prune`` gets
    and the association contexts the step built."""
    seen = {"made": []}

    def children(weighted):
        seen["children"] = weighted
        return marginalize_sensor(weighted)

    def pruned(posterior, *args):
        seen["pre_prune"] = posterior
        return prune(posterior, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(update_module, "MAX_COST_GAP", gap)
        patch.setattr(update_module, "marginalize_sensor", children)
        patch.setattr(update_module, "prune", pruned)
        patch.setattr(update_module, "ChildParts",
                      listing_parts(seen["made"]))
        seen["outcome"] = update_step(density, sensor_pred, measurements,
                                      cfg)
    return seen


def track_summands(made):
    """Each track's summands over the exact children of the contexts in
    ``made`` (:func:`exact_children`): ``(weight, Bernoulli)`` per child
    that holds the track, ``(weight, None)`` for those in which a new track
    is not born."""
    table = align_hypotheses(exact_children(made))
    return [[pair for cell in track.values()
             for pair in cell.contributors or [(cell.beta, None)]]
            for track in table.cells]


def assert_moments_within(got, want, summands, share, rounding):
    """A mixture's moments ``got`` (mean, covariance) without a share at
    most ``share`` <= 1/2 of the weight of ``summands`` (weight, mean,
    covariance), against ``want`` with it.

    Dropping a share e of the weight moves a weighted mean by e / (1 - e)
    <= 2e times the removed summands' mean distance from it, so by at most
    2e R_x, R_x the largest distance of a summand's mean from ``want``'s.
    The covariance is the weighted mean of P_a + d_a d_a^T about the mean
    less the moved mean's outer product, so it moves by at most 2e R_P +
    (2e R_x)^2, R_P the largest distance of P_a + d_a d_a^T from ``want``'s
    covariance.  ``rounding`` (a relative tolerance) adds the rounding of
    both sides at the summands' scale."""
    (mean, cov), (ref_mean, ref_cov) = got, want
    d = np.array([x - ref_mean for _, x, _ in summands])
    spread_x = np.max(np.abs(d))
    spread_P = max(np.max(np.abs(P + np.outer(v, v) - ref_cov))
                   for (_, _, P), v in zip(summands, d))
    mean_scale = max(np.max(np.abs(x)) for _, x, _ in summands)
    cov_scale = max(max(np.max(np.abs(P)) for _, _, P in summands),
                    mean_scale * spread_x)
    assert np.max(np.abs(mean - ref_mean)) <= \
        2 * share * spread_x + rounding * mean_scale
    assert np.max(np.abs(cov - ref_cov)) <= \
        2 * share * spread_P + (2 * share * spread_x) ** 2 \
        + rounding * cov_scale


def assert_track_within(got, want, summands, eps):
    """One track of a PMB step's recombined multi-Bernoulli without the
    dropped associations, ``got``, against ``want`` over every ranked one.

    The track is a mixture over the associations' summands: its existence
    the w-weighted mean of r_a, a type's weight the w r-weighted mean of
    psi_a, the type's Gaussian the w r psi-weighted moments.  The dropped
    associations hold at most ``eps`` of w, so at most eps / r of w r and
    eps / (r psi) of w r psi, and each quantity moves by at most twice its
    share times its summands' spread (:func:`assert_moments_within`).
    Rounding: each side is within 8 (n + 6) u of the exact mixture at the
    cell and again at the recombination (:func:`cell_rtol`).  A type under
    2 eps of mass is skipped, where the share can pass 1/2, and so are
    Gaussians under ``MIN_CELL_MASS``, which keep one holder's."""
    rounding = 4 * cell_rtol(len(summands))
    r = want.existence
    assert abs(got.existence - r) <= 2 * eps + rounding
    assert got.belief.types.keys() <= want.belief.types.keys()
    for kind, ref in want.belief.types.items():
        mass = r * ref.weight
        comp = got.belief.types.get(kind)
        if comp is None:
            # Only dropped associations held the type.
            assert mass <= eps + rounding
            continue
        if r < 2 * eps:
            continue
        assert abs(comp.weight - ref.weight) <= 2 * eps / r + rounding
        if mass < max(2 * eps, MIN_CELL_MASS):
            continue
        assert_moments_within(
            (comp.mean, comp.covariance), (ref.mean, ref.covariance),
            [(w, b.belief.types[kind].mean, b.belief.types[kind].covariance)
             for w, b in summands
             if b is not None and kind in b.belief.types],
            eps / mass, rounding)


class TestCostGapFloor:
    """``ChildParts`` keeps a ranked association only within
    ``MAX_COST_GAP`` of its hypothesis's best cost.  The oracle is the same
    step over every ranked association: the two must agree within what
    the dropped mass (:func:`dropped_mass_bound`) can move, under both
    filters."""

    @pytest.mark.parametrize("filter_kind", [EK_PMB, EK_PMBM])
    def test_within_dropped_mass_of_every_ranked_association(self,
                                                             filter_kind):
        scenario = replace(default_scenario(seed=3, steps=12),
                           clutter_mean=3.0)
        cfg = build_filter_config(scenario, RunConfig(
            filter_kind=filter_kind, gamma=10))
        eps = dropped_mass_bound(cfg.gamma)
        rng = np.random.default_rng([3, 0])
        density, sensor = initial_state(scenario)
        dropped = 0
        for truth in simulate_trajectory(scenario, rng)[1:]:
            measurements = list(generate_measurements(
                truth, scenario, rng).measurements)
            density, sensor_pred = predict_step(density, sensor, cfg)
            floor, every = (floor_step(density, sensor_pred, measurements,
                                       cfg, gap)
                            for gap in (MAX_COST_GAP, math.inf))
            dropped += sum(len(b.ranked) - len(a.ranked)
                           for a, b in zip(floor["made"], every["made"]))
            (density, sensor), (want, want_sensor) = (floor["outcome"],
                                                      every["outcome"])
            assert_moments_within(
                (sensor.mean, sensor.covariance),
                (want_sensor.mean, want_sensor.covariance),
                [(w, g.mean, g.covariance) for w, g in every["children"]],
                eps, 4 * cell_rtol(len(every["children"])))
            if filter_kind == EK_PMBM:
                # The children are the same objects' bits; only the
                # weights renormalize, by at most 2 eps.
                assert [h.assoc for h in density.hypotheses] == \
                    [h.assoc for h in want.hypotheses]
                for hyp, ref in zip(density.hypotheses, want.hypotheses):
                    assert abs(hyp.weight - ref.weight) <= 2 * eps + \
                        4 * cell_rtol(len(every["children"]))
                    assert_densities_bit_equal(
                        PmbmDensity({}, (replace(hyp, weight=1.0),)),
                        PmbmDensity({}, (replace(ref, weight=1.0),)))
                continue
            (mb,), (ref_mb,) = (floor["pre_prune"].hypotheses,
                                every["pre_prune"].hypotheses)
            assert len(mb.bernoullis) == len(ref_mb.bernoullis)
            for bern, ref, summands in zip(mb.bernoullis, ref_mb.bernoullis,
                                           track_summands(every["made"])):
                assert_track_within(bern, ref, summands, eps)
        assert dropped > 0


class LinearizeOnlyModel:
    """The filter's whole model protocol and nothing else: ``linearize``,
    ``invert`` and ``wrap_residual``, plus the ``p_detect`` table that
    PPP thinning reads, delegated to a :class:`LinearModel`."""

    __slots__ = ("linearize", "invert", "wrap_residual", "p_detect")

    def __init__(self, model):
        self.linearize = model.linearize
        self.invert = model.invert
        self.wrap_residual = model.wrap_residual
        self.p_detect = model.p_detect


def assert_densities_bit_equal(a, b):
    assert a.ppp_intensity == b.ppp_intensity
    assert len(a.hypotheses) == len(b.hypotheses)
    for hyp, other in zip(a.hypotheses, b.hypotheses):
        assert hyp.weight == other.weight
        assert len(hyp.bernoullis) == len(other.bernoullis)
        for x, y in zip(hyp.bernoullis, other.bernoullis):
            assert x.existence == y.existence
            assert list(x.belief.types) == list(y.belief.types)
            for kind, comp in x.belief.types.items():
                ref = y.belief.types[kind]
                assert comp.weight == ref.weight
                assert np.array_equal(comp.mean, ref.mean)
                assert np.array_equal(comp.covariance, ref.covariance)


class TestModelProtocol:
    @pytest.mark.parametrize("filter_kind", [EK_PMB, EK_PMBM])
    def test_step_needs_only_linearize_invert_wrap_residual(self,
                                                            filter_kind):
        # Three landmarks are born from their first measurements and then
        # re-detected; a clutter measurement arrives every other step.  A
        # model without predict, jacobians or detection_probability gives
        # the full model's densities and sensors bit for bit.
        rng = np.random.default_rng(41)
        A = 0.1 * rng.normal(size=(3, 5))
        full = LinearModel({VA: (A, np.eye(3)),
                            SP: (A, 2.0 * np.eye(3), [1.0, -2.0, 0.5])}, 3,
                           p_detect={VA: 0.9, SP: 0.8})
        truth = [(VA, np.array([5.0, 1.0, 2.0])),
                 (SP, np.array([-3.0, 4.0, 1.0])),
                 (VA, np.array([0.0, -6.0, 3.0]))]
        R = 0.01 * np.eye(3)
        start = np.array([1.0, 2.0, 0.0, 0.3, 5.0])
        sensor_true = start
        steps = []
        for k in range(6):
            sensor_true = sensor_transition(sensor_true, 22.22,
                                            math.pi / 10.0, 0.5)
            zs = [Measurement(full.predict(sensor_true, x, kind)
                              + 0.05 * rng.normal(size=3), R)
                  for kind, x in truth if rng.uniform() < 0.9]
            if k % 2:
                zs.append(Measurement(10.0 * rng.normal(size=3), R))
            steps.append([zs[j] for j in rng.permutation(len(zs))])
        results = []
        for model in (full, LinearizeOnlyModel(full)):
            cfg = make_config(model, process_noise=0.01 * np.eye(5),
                              filter_kind=filter_kind, gamma=3)
            density = PmbmDensity({VA: 1e-3, SP: 1e-3},
                                  (GlobalHypothesis(1.0, ()),))
            sensor = GaussianComponent(start, 0.01 * np.eye(5))
            trace = []
            for zs in steps:
                density, sensor = step(density, sensor, zs, cfg)
                trace.append((density, sensor))
            results.append(trace)
        for (d_full, s_full), (d_min, s_min) in zip(*results):
            assert_densities_bit_equal(d_min, d_full)
            assert np.array_equal(s_min.mean, s_full.mean)
            assert np.array_equal(s_min.covariance, s_full.covariance)
        # Births happened, and re-detections shrank the newborn covariances.
        first, last = results[0][0][0], results[0][-1][0]
        born = max(first.hypotheses, key=lambda h: h.weight).bernoullis
        final = max(last.hypotheses, key=lambda h: h.weight).bernoullis
        assert sum(b.existence > 0.5 for b in final) >= 3
        traces = [np.trace(c.covariance) for b in born if b.existence > 0.5
                  for c in b.belief.types.values()]
        later = [np.trace(c.covariance) for b in final if b.existence > 0.5
                 for c in b.belief.types.values()]
        assert traces and min(later) < min(traces)


class SeeAllChannelModel(ChannelModel):
    """``ChannelModel`` linearizing every pair, visible or not: the
    detection probabilities of its field of view, with the predictions of
    the same model without one."""

    def linearize(self, sensor_mean, positions, kinds):
        p_detect = super().linearize(sensor_mean, positions, kinds)[0]
        return (p_detect, *ChannelModel.linearize(
            replace(self, fov_radius=math.inf), sensor_mean, positions,
            kinds)[1:])


def scenario_run(scenario, filter_kind, gamma, model_cls=ChannelModel):
    """(densities, sensors) of ``step`` over a simulated run of the
    scenario, with the filter's model rebuilt as ``model_cls``."""
    cfg = build_filter_config(scenario, RunConfig(filter_kind=filter_kind,
                                                  gamma=gamma))
    cfg = replace(cfg, model=model_cls(cfg.model.bs_position,
                                       p_detect=cfg.model.p_detect,
                                       fov_radius=cfg.model.fov_radius))
    rng = np.random.default_rng([scenario.seed, 0])
    density, sensor = initial_state(scenario)
    trace = []
    for truth in simulate_trajectory(scenario, rng)[1:]:
        zset = generate_measurements(truth, scenario, rng)
        density, sensor = step(density, sensor, list(zset.measurements), cfg)
        trace.append((density, sensor))
    return trace


class TestInvisiblePairs:
    """``ChannelModel.linearize`` gives no prediction for a pair with
    p_detect 0 (an SP beyond the field of view), and the filter neither
    linearizes such a pair nor builds such a newborn."""

    @pytest.mark.parametrize("filter_kind, gamma", [(EK_PMB, 10),
                                                    (EK_PMBM, 3)])
    def test_filter_output_bit_equal_to_linearizing_every_pair(
            self, monkeypatch, filter_kind, gamma):
        # Under the default type_prune a hidden type's posterior of 0 is
        # pruned before stacking, so its prediction was never read.
        scenario = replace(default_scenario(seed=1, steps=15),
                           clutter_mean=3.0)
        want = scenario_run(scenario, filter_kind, gamma, SeeAllChannelModel)
        hidden = []
        linearize = ChannelModel.linearize

        def counting(model, sensor_mean, positions, kinds):
            out = linearize(model, sensor_mean, positions, kinds)
            hidden.extend(k not in out[1] for k in range(len(positions)))
            return out

        monkeypatch.setattr(ChannelModel, "linearize", counting)
        got = scenario_run(scenario, filter_kind, gamma)
        assert any(hidden) and not all(hidden)
        for (d_got, s_got), (d_want, s_want) in zip(got, want, strict=True):
            assert_densities_bit_equal(d_got, d_want)
            assert np.array_equal(s_got.mean, s_want.mean)
            assert np.array_equal(s_got.covariance, s_want.covariance)

    def test_hidden_type_keeps_its_prior_without_type_pruning(self):
        # A landmark detected as its VA type also carries an SP type 120 m
        # from the UE.  With type_prune 0 every type stays in the posterior;
        # the hidden SP type has no prediction, so it is not conditioned on
        # and keeps its prior Gaussian, while linearizing it would move it.
        ue = UEState([70.7285, 0.0, 0.0], math.pi / 2, 300.0)
        va, sp = np.array([200.0, 0.0, 40.0]), np.array([0.0, 99.0, 10.0])
        cov = 0.5 * np.eye(3)
        bern = Bernoulli(0.99, LandmarkBelief({
            VA: TypeComponent(0.9, va, cov), SP: TypeComponent(0.1, sp, cov)}))
        hyp = GlobalHypothesis(1.0, (bern,))
        meas = [Measurement(measure(ue, Landmark(VA, va), BS_POS) + 0.01,
                            np.diag([0.01, 1e-4, 1e-4, 1e-4, 1e-4]))]
        sensor = GaussianComponent(ue.as_vector(),
                                   np.diag([0.3, 0.3, 0.0, 0.005, 0.3]))
        sigma = AssociationVector(1, (1, None))
        posteriors = {}
        for model in (ChannelModel(BS_POS), SeeAllChannelModel(BS_POS)):
            cfg = make_config(model, type_prune=0.0)
            child, _ = joint_update(child_parts(hyp, meas, sensor, cfg), sigma)
            posteriors[type(model)] = child.bernoullis[0].belief.types
        hidden = posteriors[ChannelModel][SP]
        assert hidden.weight == 0.0
        assert np.array_equal(hidden.mean, sp)
        assert np.array_equal(hidden.covariance, cov)
        assert not np.array_equal(posteriors[ChannelModel][VA].mean, va)
        assert not np.array_equal(posteriors[SeeAllChannelModel][SP].mean, sp)

    def test_no_hidden_sp_is_linearized_or_factorized(self, monkeypatch):
        # Every row of a short PMB run that gets a prediction and Jacobian,
        # recorded by kind and distance from the sensor mean, and every
        # newborn, recorded with whether it got a Gaussian, beside the
        # factorizations of its newborn pass.
        scenario = default_scenario(seed=1, steps=10)
        fov = scenario.fov_radius
        predicted, births, passes, factors = [], [], [], []
        linearize = ChannelModel.linearize
        factor = association._dpotrf
        newborn_pass = association.newborns

        def recording_linearize(model, sensor_mean, positions, kinds):
            out = linearize(model, sensor_mean, positions, kinds)
            predicted.extend(
                (kinds[k],
                 float(np.linalg.norm(positions[k] - sensor_mean[:3])))
                for k in out[1])
            return out

        def counting_factor(a):
            factors.append(a.shape)
            return factor(a)

        def recording_newborns(geometry, ppp, z_rows, r_stack, sensor,
                               model):
            before = len(factors)
            out = newborn_pass(geometry, ppp, z_rows, r_stack, sensor, model)
            _, born, means, _ = geometry
            for (kind, p), mean in zip(born, means):
                dist = float(np.linalg.norm(mean - sensor.mean[:3]))
                births.append((kind, dist, kind in out[p][1]))
            passes.append((sum(len(comps) for _, comps in out),
                           len(factors) - before))
            return out

        monkeypatch.setattr(ChannelModel, "linearize", recording_linearize)
        monkeypatch.setattr(association, "_dpotrf", counting_factor)
        monkeypatch.setattr(association, "newborns", recording_newborns)
        scenario_run(scenario, EK_PMB, 1)
        sp_dists = [d for kind, d in predicted if kind is SP]
        assert sp_dists and max(sp_dists) <= fov
        hidden = [born for kind, d, born in births if kind is SP and d > fov]
        seen = [born for kind, d, born in births if kind is SP and d <= fov]
        assert hidden and not any(hidden)
        assert seen and all(seen)
        # Two factorizations per newborn Gaussian (gain and information
        # matrix) and one for its density; a hidden newborn gets none.
        assert passes and all(n == 3 * born for born, n in passes)


def mixed_dimension_case(filter_kind):
    """``update_step`` arguments with a 1-D VA and a 2-D SP type: two
    landmarks holding both, and two measurements."""
    model = LinearModel({VA: ([[1.0]], [[1.0]]),
                         SP: ([[1.0]], [[1.0, 0.5]])}, 1, p_detect=0.9)
    cfg = make_config(model, gamma=10, filter_kind=filter_kind, gate=None)
    berns = tuple(Bernoulli(0.9, LandmarkBelief({
        VA: TypeComponent(psi, np.full(1, x), np.eye(1)),
        SP: TypeComponent(1.0 - psi, np.full(2, x), np.eye(2))}))
        for psi, x in ((0.5, 0.0), (0.3, 1.0)))
    density = PmbmDensity(default_ppp_intensity(),
                          (GlobalHypothesis(1.0, berns),))
    sensor = GaussianComponent(np.zeros(1), np.eye(1))
    meas = [Measurement(np.array([z]), np.eye(1)) for z in (0.2, 2.1)]
    return density, sensor, meas, cfg


def empty_hypothesis_case(filter_kind):
    """``update_step`` arguments with no landmark and no measurement: the
    hypothesis has no row to linearize."""
    cfg = make_config(ChannelModel(BS_POS), filter_kind=filter_kind)
    density = PmbmDensity(default_ppp_intensity(),
                          (GlobalHypothesis(1.0, ()),))
    sensor = GaussianComponent(
        np.array([70.7285, 0.0, 0.0, np.pi / 2, 300.0]),
        np.diag([0.3, 0.3, 0.0, 0.0052, 0.3]))
    return density, sensor, [], cfg


class TestGeometryCalls:
    @pytest.mark.parametrize("case", [empty_hypothesis_case])
    @pytest.mark.parametrize("filter_kind", [EK_PMB, EK_PMBM])
    def test_one_linearize_whatever_the_rows(self, monkeypatch, case,
                                             filter_kind):
        # No row at all: still exactly one linearize call per hypothesis.
        density, sensor, meas, cfg = case(filter_kind)
        calls = []
        cost_matrix = update_module.build_cost_matrix
        linearize = type(cfg.model).linearize

        def per_hypothesis(*args, **kwargs):
            calls.append(0)
            return cost_matrix(*args, **kwargs)

        def counting(model, *args):
            calls[-1] += 1
            return linearize(model, *args)

        monkeypatch.setattr(update_module, "build_cost_matrix", per_hypothesis)
        monkeypatch.setattr(type(cfg.model), "linearize", counting)
        update_step(density, sensor, meas, cfg)
        assert calls == [1] * len(density.hypotheses)

    @pytest.mark.parametrize("filter_kind, gamma", [(EK_PMB, 10),
                                                    (EK_PMBM, 3)])
    def test_one_linearize_and_invert_per_hypothesis(
            self, monkeypatch, filter_kind, gamma):
        # Every model call of every update_step of a short run, keyed by
        # step and hypothesis: exactly one linearize call per hypothesis,
        # over every landmark type, and at most one invert call, over both
        # birth types.
        scenario = default_scenario(seed=1, steps=8)
        calls, current, hypotheses = [], [], []
        cost_matrix = update_module.build_cost_matrix

        def per_hypothesis(*args, **kwargs):
            current.append(len(current))
            hypotheses.append((len(steps), current[-1]))
            return cost_matrix(*args, **kwargs)

        def recording(name, method):
            def wrapped(model, *args):
                calls.append((len(steps), current[-1], name,
                              frozenset(args[-1])))
                return method(model, *args)
            return wrapped

        steps = []
        update = update_module.update_step

        def counting_steps(*args):
            steps.append(None)
            return update(*args)

        monkeypatch.setattr(update_module, "build_cost_matrix", per_hypothesis)
        monkeypatch.setattr(update_module, "update_step", counting_steps)
        for name in ("linearize", "invert"):
            monkeypatch.setattr(ChannelModel, name,
                                recording(name, getattr(ChannelModel, name)))
        scenario_run(scenario, filter_kind, gamma)
        assert len(steps) == scenario.steps
        linearized, inverted = (
            Counter((k, h) for k, h, called, _ in calls if called == name)
            for name in ("linearize", "invert"))
        assert linearized == Counter(hypotheses)
        assert set(inverted) <= set(hypotheses)
        assert max(inverted.values()) == 1
        assert {kinds for _, _, name, kinds in calls if name == "invert"} == {
            frozenset({VA, SP})}
        assert any(kinds == {BS, VA, SP} for _, _, name, kinds in calls
                   if name == "linearize")
        per_step = {}
        for step_index, h in hypotheses:
            per_step.setdefault(step_index, set()).add(h)
        # The PMBM mixture puts more than one hypothesis in some step.
        most = max(len(hs) for hs in per_step.values())
        assert most > 1 if filter_kind == EK_PMBM else most == 1


class TestStep:
    def channel_setup(self, filter_kind=EK_PMB, gamma=1):
        model = ChannelModel(BS_POS)
        cfg = make_config(model,
                          process_noise=np.diag([0.2, 0.2, 0.0, 0.001, 0.2]),
                          filter_kind=filter_kind, gamma=gamma)
        anchor = Bernoulli(1.0, LandmarkBelief(
            {BS: TypeComponent(1.0, BS_POS, 1e-6 * np.eye(3))}))
        density = PmbmDensity(default_ppp_intensity(),
                              (GlobalHypothesis(1.0, (anchor,), None),))
        sensor = GaussianComponent(
            np.array([70.7285, 0.0, 0.0, np.pi / 2, 300.0]),
            np.diag([0.3, 0.3, 0.0, 0.0052, 0.3]))
        return model, cfg, density, sensor

    @pytest.mark.parametrize("filter_kind", [EK_PMB, EK_PMBM])
    def test_types_of_different_dimension(self, monkeypatch, filter_kind):
        # Every landmark type of a model shares one dimension: a hypothesis
        # holding a 1-D VA and a 2-D SP is refused before the model is
        # called.
        density, sensor, meas, cfg = mixed_dimension_case(filter_kind)
        calls = []
        for name in ("linearize", "invert"):
            monkeypatch.setattr(LinearModel, name,
                                lambda *args, name=name: calls.append(name))
        with pytest.raises(ValueError, match=r"dimensions \[1, 2\]"):
            update_step(density, sensor, meas, cfg)
        assert calls == []

    def test_unexplained_measurement_without_clutter_is_infeasible(self):
        # The TOA lies below the 300 m clock bias, so neither birth type
        # inverts it; the BS gate rejects it; with zero clutter intensity
        # its cost row is all +inf.
        model, cfg, density, sensor = self.channel_setup()
        z = np.array([100.0, 1.0, 0.2, 1.0, 0.2])
        meas = [Measurement(z, np.diag([1e-2] + [2.5e-5] * 4))]
        assert invert_one(model, z, sensor.mean, VA) is None
        assert invert_one(model, z, sensor.mean, SP) is None
        with pytest.raises(InfeasibleAssignmentError, match="no finite cost"):
            update_step(density, sensor, meas,
                        replace(cfg, clutter_intensity=0.0))
        # Any clutter intensity explains it as clutter.
        posterior, _ = update_step(density, sensor, meas, cfg)
        assert len(posterior.hypotheses) == 1

    @pytest.mark.parametrize("filter_kind", [EK_PMB, EK_PMBM])
    def test_clutter_only_birth_slot_is_the_placeholder_and_pruned(
            self, monkeypatch, filter_kind):
        # The TOA lies below the clock bias, so no type inverts it and the
        # BS gate rejects it: the measurement is clutter and its birth slot
        # holds the zero-existence placeholder until prune drops it.
        import rfslam.update as update
        model, cfg, density, sensor = self.channel_setup(filter_kind)
        z = np.array([100.0, 1.0, 0.2, 1.0, 0.2])
        meas = [Measurement(z, np.diag([1e-2] + [2.5e-5] * 4))]
        original_prune = update.prune
        before_prune = []

        def spy(density, *args):
            before_prune.append(density)
            return original_prune(density, *args)

        monkeypatch.setattr(update, "prune", spy)
        posterior, _ = update_step(density, sensor, meas, cfg)
        ((hyp,),) = [d.hypotheses for d in before_prune]
        _, slot = hyp.bernoullis
        placeholder = absent_bernoulli()
        assert slot.existence == placeholder.existence == 0.0
        assert list(slot.belief.types) == list(placeholder.belief.types)
        for kind, comp in slot.belief.types.items():
            other = placeholder.belief.types[kind]
            assert comp.weight == other.weight
            assert np.array_equal(comp.mean, other.mean)
            assert np.array_equal(comp.covariance, other.covariance)
        (kept,) = posterior.hypotheses
        assert [b.belief.dominant_type() for b in kept.bernoullis] == [BS]

    def test_positive_bs_ppp_rate_never_births_a_bs(self):
        # Both types invert the measurement and both have a positive PPP
        # rate, but the BS is known: only the SP is born.
        model = LinearModel({BS: ([[0.0]], [[1.0]]), SP: ([[0.0]], [[1.0]])},
                            1)
        cfg = make_config(model, gate=None, filter_kind=EK_PMBM)
        density = PmbmDensity({BS: 0.5, SP: 0.5},
                              (GlobalHypothesis(1.0, ()),))
        sensor = GaussianComponent(np.zeros(1), np.eye(1))
        meas = Measurement(np.array([0.2]), np.eye(1))
        assert invert_one(model, meas.z, sensor.mean, BS) is not None
        posterior, _ = update_step(density, sensor, [meas], cfg)
        (hyp,) = posterior.hypotheses
        (born,) = hyp.bernoullis
        assert born.existence > 0.5
        assert list(born.belief.types) == [SP]

    def test_empty_measurements(self):
        model, cfg, density, sensor = self.channel_setup()
        _, sensor_pred = predict_step(density, sensor, cfg)
        density_post, sensor_post = step(density, sensor, [], cfg)
        assert len(density_post.hypotheses) == 1
        assert density_post.hypotheses[0].weight == 1.0
        assert np.allclose(sensor_post.mean, sensor_pred.mean)
        assert np.allclose(sensor_post.covariance, sensor_pred.covariance)

    def test_single_measurement_birth_trace(self):
        model, cfg, density, sensor = self.channel_setup(EK_PMBM)
        empty = PmbmDensity(density.ppp_intensity, (GlobalHypothesis(1.0, ()),))
        _, sensor_pred = predict_step(empty, sensor, cfg)
        va_true = np.array([200.0, 0.0, 40.0])
        ue = UEState.from_vector(sensor_pred.mean)
        z = measure(ue, Landmark(VA, va_true), BS_POS)
        meas = Measurement(z, np.diag([0.01, 1e-4, 1e-4, 1e-4, 1e-4]))
        density_post, _ = step(empty, sensor, [meas], cfg)
        assert len(density_post.hypotheses) == 1
        hyp = density_post.hypotheses[0]
        assert len(hyp.bernoullis) == 1
        cand = birth_candidate(meas, sensor_pred, empty.ppp_intensity,
                               cfg.clutter_intensity, model)
        assert hyp.bernoullis[0].existence == pytest.approx(cand.existence,
                                                            rel=1e-9)
        # A reflection and a scatterer at the incidence point are
        # indistinguishable from one snapshot: the type stays ambiguous.
        probs = {k: c.weight
                 for k, c in hyp.bernoullis[0].belief.types.items()}
        assert probs[VA] == pytest.approx(0.5, abs=0.2)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_pmbm_multi_hypothesis_invariants(self):
        from rfslam.sim import (default_scenario, generate_measurements,
                                simulate_trajectory)
        model, cfg, density, sensor = self.channel_setup(EK_PMBM, gamma=4)
        sc = default_scenario(seed=13)
        rng = np.random.default_rng(13)
        traj = simulate_trajectory(sc, rng)
        max_hyps = 1
        for k in range(1, 15):
            zset = generate_measurements(traj[k], sc, rng)
            density, sensor = step(density, sensor, list(zset.measurements),
                                   cfg)
            check_density(density, tol=1e-9)
            assert len(density.hypotheses) <= MAX_HYPOTHESES
            max_hyps = max(max_hyps, len(density.hypotheses))
        assert max_hyps > 1  # the mixture genuinely branches

    def test_child_weights_compose_from_local_weights(self):
        # One prior landmark, one measurement, gamma 2: the two children are
        # "detected" and "misdetected + birth", with weights proportional to
        # l_detected and l_misdetected * l_birth.
        from rfslam.association import misdetection_weight
        rng = np.random.default_rng(77)
        model = LinearModel({SP: ([[0.4]], [[1.0]])}, 1, p_detect=0.7)
        cfg = make_config(model, gamma=2, gate=None, filter_kind=EK_PMBM,
                          clutter_intensity=0.05)
        bern = single_type_bernoulli(0.6, SP, [0.3], [[0.8]])
        density = PmbmDensity({SP: 0.8}, (GlobalHypothesis(1.0, (bern,)),))
        sensor = GaussianComponent(np.zeros(1), np.array([[0.5]]))
        meas = Measurement(np.array([0.4]), np.eye(1))
        posterior, _ = update_step(density, sensor, [meas], cfg)
        assert len(posterior.hypotheses) == 2
        preds = predict_types(bern, sensor, model)
        log_det = detected_weight(bern, meas, preds, model)[0]
        l_mis = misdetection_weight(bern, preds)[2]
        cand = birth_candidate(meas, sensor, {SP: 0.8}, 0.05, model)
        expected = np.exp([log_det, math.log(l_mis) + cand.log_weight])
        expected /= expected.sum()
        got = sorted((h.weight for h in posterior.hypotheses), reverse=True)
        assert np.allclose(sorted(expected, reverse=True), got, rtol=1e-9)

    def test_child_parts_built_once_per_hypothesis(self, monkeypatch):
        # One PMBM update at gamma 10 of a multi-landmark hypothesis (a PMB
        # step builds no child by joint_update): the pieces a child takes
        # unchanged from its parent hypothesis are built once and shared,
        # and every child is bit for bit the one a fresh context gives.
        import rfslam.association as association
        import rfslam.update as update
        from rfslam.sim import (default_scenario, generate_measurements,
                                simulate_trajectory)
        model, cfg, density, sensor = self.channel_setup(EK_PMB, gamma=10)
        sc = default_scenario(seed=5)
        rng = np.random.default_rng(5)
        traj = simulate_trajectory(sc, rng)
        for k in range(1, 8):
            zset = generate_measurements(traj[k], sc, rng)
            density, sensor = step(density, sensor, list(zset.measurements),
                                   cfg)
        measurements = list(generate_measurements(traj[8], sc,
                                                  rng).measurements)
        (hyp,) = density.hypotheses
        assert len(hyp.bernoullis) >= 2
        cfg = replace(cfg, filter_kind=EK_PMBM)
        _, sensor_pred = predict_step(density, sensor, cfg)

        original = {name: getattr(update, name) for name in (
            "_local_bernoulli", "build_cost_matrix", "update_type_probs",
            "joint_update")}
        original_weight = association.misdetection_weight
        original_wrap = ChannelModel.wrap_residual
        calls = {"local": [], "type_probs": 0, "misdetection_weight": 0,
                 "innovations": 0}
        children = []
        in_cost_matrix = []

        def local_bernoulli(*args, **kwargs):
            # The per-type Gaussians a build passes: a misdetection the
            # prior's ``belief.types``, a birth its candidate's ``comps``.
            calls["local"].append(args[2])
            return original["_local_bernoulli"](*args, **kwargs)

        def cost_matrix(*args, **kwargs):
            in_cost_matrix.append(True)
            try:
                return original["build_cost_matrix"](*args, **kwargs)
            finally:
                in_cost_matrix.pop()

        def misdetection(*args):
            assert in_cost_matrix, "misdetection_weight outside the cost matrix"
            calls["misdetection_weight"] += 1
            return original_weight(*args)

        def type_probs(*args):
            calls["type_probs"] += 1
            return original["update_type_probs"](*args)

        def wrap_residual(self, v):
            if not in_cost_matrix:
                calls["innovations"] += 1
            return original_wrap(self, v)

        def recorded(*args):
            out = original["joint_update"](*args)
            children.append((args, out))
            return out

        monkeypatch.setattr(update, "_local_bernoulli", local_bernoulli)
        monkeypatch.setattr(update, "build_cost_matrix", cost_matrix)
        monkeypatch.setattr(association, "misdetection_weight", misdetection)
        monkeypatch.setattr(update, "update_type_probs", type_probs)
        monkeypatch.setattr(update, "joint_update", recorded)
        monkeypatch.setattr(ChannelModel, "wrap_residual", wrap_residual)
        update_step(density, sensor_pred, measurements, cfg)
        monkeypatch.undo()

        sigmas = [args[1] for args, _ in children]
        parts = children[0][0][0]
        # Each kept association gives one child; every ranked association
        # the cost-gap rule dropped carries under MIN_CELL_MASS of the best
        # one's weight.
        ranked = association.murty_kbest(parts.costs, cfg.gamma)
        assert sigmas == [sigma for sigma, _ in parts.ranked]
        assert parts.ranked == ranked[:len(sigmas)]
        assert all(cost - ranked[0][1] > MAX_COST_GAP
                   for _, cost in ranked[len(sigmas):])
        misdetected = [i for s in sigmas
                       for i, p in enumerate(s.sigma[:s.n_prior]) if p == 0]
        born = [p for s in sigmas for p in s.born_measurements()]
        detected = {pair for s in sigmas for pair in s.detected_pairs()}
        # Shared pieces exist, so the counts below test the sharing.
        assert len(misdetected) > len(set(misdetected))
        assert len(born) > len(set(born))
        # A clutter-only birth slot builds no Bernoulli.
        newborn = {p for p in born if parts.ctx.births[p].masses}
        misdetected_builds = [i for comps in calls["local"]
                              for i, b in enumerate(hyp.bernoullis)
                              if comps is b.belief.types]
        born_builds = [p for comps in calls["local"]
                       for p, cand in enumerate(parts.ctx.births)
                       if comps is cand.comps]
        assert len(misdetected_builds) + len(born_builds) == \
            len(calls["local"])
        assert misdetected_builds == list(dict.fromkeys(misdetected))
        assert len(born_builds) == len(newborn)
        assert set(born_builds) == newborn
        assert calls["misdetection_weight"] == len(hyp.bernoullis)
        # One type posterior per misdetected landmark, detected pair and
        # newborn (not per clutter-only birth slot).
        assert calls["type_probs"] == (len(set(misdetected)) + len(detected)
                                       + len(newborn))
        # The innovations are the residual rows the cost matrix wrapped:
        # every conditioned type's is its row, and nothing is wrapped outside
        # the cost matrix.
        stacked = [(i, p, kind) for (_, sigma, *_), (child, _) in children
                   for i, p in sigma.detected_pairs()
                   for kind in child.bernoullis[i].belief.types]
        assert len(stacked) > len(set(stacked))
        assert calls["innovations"] == 0
        for i, p in detected:
            _, rows = parts.ctx.pairs[(i, p)]
            assert all(v is rows[kind]
                       for kind, _, _, v in parts.detection(i, p)[1])

        for (_, sigma), (child, child_sensor) in children:
            fresh = ChildParts(hyp, measurements, sensor_pred,
                               density.ppp_intensity, cfg)
            ref, ref_sensor = joint_update(fresh, sigma)
            assert np.array_equal(child_sensor.mean, ref_sensor.mean)
            assert np.array_equal(child_sensor.covariance,
                                  ref_sensor.covariance)
            assert len(child.bernoullis) == len(ref.bernoullis)
            for a, b in zip(child.bernoullis, ref.bernoullis):
                assert a.existence == b.existence
                assert list(a.belief.types) == list(b.belief.types)
                for kind, comp in a.belief.types.items():
                    other = b.belief.types[kind]
                    assert comp.weight == other.weight
                    assert np.array_equal(comp.mean, other.mean)
                    assert np.array_equal(comp.covariance, other.covariance)

    def test_pmb_cells_of_a_shared_bernoulli_are_that_object(self,
                                                            monkeypatch):
        # The PMB reduction copies a cell whose contributors are one object.
        # The children of a hypothesis share their misdetected and newborn
        # Bernoullis, and each detected pair's one averaged Bernoulli, so
        # under PMB every cell is copied.  One gamma 10 step of the
        # reference scenario: a Bernoulli two children hold is one object,
        # its averaged cell is that object, and the averaging hands
        # mix_types no job.
        _, cfg, density, sensor = self.channel_setup(EK_PMB, gamma=10)
        sc = default_scenario(seed=5)
        rng = np.random.default_rng(5)
        traj = simulate_trajectory(sc, rng)
        for k in range(1, 8):
            zset = generate_measurements(traj[k], sc, rng)
            density, sensor = step(density, sensor, list(zset.measurements),
                                   cfg)
        measurements = list(generate_measurements(traj[8], sc,
                                                  rng).measurements)
        tables, jobs, averaging = [], [], []
        original_mix = reduction.mix_types

        def average(table):
            averaging.append(True)
            tables.append(average_conditionals(table))
            averaging.pop()
            return tables[-1]

        def mix(batch):
            if averaging:
                jobs.extend(batch)
            return original_mix(batch)

        monkeypatch.setattr(reduction, "average_conditionals", average)
        monkeypatch.setattr(reduction, "mix_types", mix)
        update_step(*predict_step(density, sensor, cfg), measurements, cfg)
        (table,) = tables
        assert jobs == []
        misdetected = [track[0] for track in table.cells[:table.n_prior]
                       if 0 in track and len(track[0].contributors) >= 2]
        detected = [cell for track in table.cells[:table.n_prior]
                    for q, cell in track.items()
                    if q != 0 and len(cell.contributors) >= 2]
        born = [cell for track in table.cells[table.n_prior:]
                for q, cell in track.items()
                if q is not None and len(cell.contributors) >= 2]
        assert misdetected and detected and born
        for cell in misdetected + detected + born:
            first = cell.contributors[0][1]
            assert all(b is first for _, b in cell.contributors)
            assert cell.bernoulli is first

    def test_hard_type_decision_births_one_type(self):
        # multi_model off: every newborn keeps only its most probable type,
        # at probability 1.0, in a cluttered reference run.
        scenario = replace(default_scenario(seed=2, steps=8),
                           clutter_mean=3.0)
        cfg = build_filter_config(scenario, RunConfig(multi_model=False))
        rng = np.random.default_rng([2, 0])
        density, sensor = initial_state(scenario)
        births = []
        original = ChildParts.born

        def recorded(parts, p):
            bern = original(parts, p)
            births.append((parts.ctx.births[p], bern))
            return bern

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ChildParts, "born", recorded)
            for truth in simulate_trajectory(scenario, rng)[1:]:
                zset = generate_measurements(truth, scenario, rng)
                density, sensor = step(density, sensor,
                                       list(zset.measurements), cfg)
        # Some measurements could start either type, and some only clutter.
        assert any(len(cand.masses) > 1 for cand, _ in births)
        assert any(not cand.masses for cand, _ in births)
        for cand, bern in births:
            if not cand.masses:
                assert bern is absent_bernoulli()
                continue
            ((kind, comp),) = bern.belief.types.items()
            assert comp.weight == 1.0
            psi = update_type_probs(cand.masses)
            assert kind == max(psi, key=psi.get)

    def test_innovation_of_every_stacked_type(self):
        # With type_prune 0 a type that cannot explain the detection (pd 0)
        # is still conditioned on, with weight 0.  Its residual, like the
        # contributing type's, is the row the cost matrix kept.
        model = LinearModel({VA: ([[0.0]], [[1.0]]),
                             SP: ([[0.0]], [[1.0]], [0.5])}, 1,
                            p_detect={VA: 0.9, SP: 0.0})
        cfg = make_config(model, gate=None, type_prune=0.0)
        belief = LandmarkBelief({
            VA: TypeComponent(0.5, np.zeros(1), np.eye(1)),
            SP: TypeComponent(0.5, np.array([0.2]), np.eye(1))})
        hyp = GlobalHypothesis(1.0, (Bernoulli(0.9, belief),))
        sensor = GaussianComponent(np.zeros(1), np.eye(1))
        meas = Measurement(np.array([0.3]), np.eye(1))
        parts = ChildParts(hyp, [meas], sensor, {SP: 0.1}, cfg)
        _, rows = parts.ctx.pairs[(0, 0)]
        assert list(rows) == [VA, SP]
        for kind in (VA, SP):
            v = innovations(parts, 0, 0)[kind]
            z_pred = linearize_one(model, sensor.mean,
                                   belief.types[kind].mean, kind)[1]
            assert v.tobytes() == (meas.z - z_pred).tobytes()
            assert innovations(parts, 0, 0)[kind] is v
            assert v is rows[kind]
        child, _ = joint_update(parts, AssociationVector(1, (1, None)))
        assert list(child.bernoullis[0].belief.types) == [VA, SP]

    def test_pmb_gamma1_equals_pmbm_gamma1(self):
        states = []
        for kind_name in (EK_PMB, EK_PMBM):
            model, cfg, density, sensor = self.channel_setup(kind_name, gamma=1)
            rng_local = np.random.default_rng(7)
            for k in range(5):
                ue_true = UEState([70.7285 * math.cos(k * 0.1),
                                   70.7285 * math.sin(k * 0.1), 0.0],
                                  np.pi / 2 + k * 0.1, 300.0)
                zs = []
                for lm in (Landmark(BS, BS_POS),
                           Landmark(VA, [200.0, 0.0, 40.0]),
                           Landmark(SP, [99.0, 0.0, 10.0])):
                    z = measure(ue_true, lm, BS_POS)
                    noise = rng_local.normal(0, 0.01, size=5)
                    zs.append(Measurement(z + noise,
                                          np.diag([0.01, 1e-4, 1e-4, 1e-4, 1e-4])))
                density, sensor = step(density, sensor, zs, cfg)
            states.append((density, sensor))
        (d_pmb, s_pmb), (d_pmbm, s_pmbm) = states
        assert np.array_equal(s_pmb.mean, s_pmbm.mean)
        assert np.array_equal(s_pmb.covariance, s_pmbm.covariance)
        assert len(d_pmb.hypotheses) == len(d_pmbm.hypotheses) == 1
        for a, b in zip(d_pmb.hypotheses[0].bernoullis,
                        d_pmbm.hypotheses[0].bernoullis):
            assert a.existence == b.existence
            for kind in a.belief.types:
                assert np.array_equal(a.belief.types[kind].mean,
                                      b.belief.types[kind].mean)
                assert np.array_equal(a.belief.types[kind].covariance,
                                      b.belief.types[kind].covariance)


#: The sensor's free components: x, y, heading and bias.  The height is
#: known, with variance 0 by design.
FREE = [0, 1, 3, 4]


class TestRandomizedSteps:
    @settings(max_examples=60, deadline=None)
    @given(filter_kind=st.sampled_from([EK_PMB, EK_PMBM]),
           clutter_mean=st.floats(0.0, 20.0),
           p_detect=st.lists(st.floats(0.5, 1.0), min_size=3, max_size=3),
           noise_scale=st.floats(0.1, 10.0),
           fov_radius=st.floats(5.0, 300.0),
           gamma=st.integers(1, 10),
           silent=st.lists(st.booleans(), min_size=12, max_size=12),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_every_step_leaves_a_valid_density(
            self, filter_kind, clutter_mean, p_detect, noise_scale,
            fov_radius, gamma, silent, seed):
        base = default_scenario(seed=1, steps=len(silent))
        scenario = replace(
            base, clutter_mean=clutter_mean,
            p_detect=dict(zip(LandmarkType, p_detect)),
            noise_std=base.noise_std * noise_scale, fov_radius=fov_radius)
        cfg = build_filter_config(scenario, RunConfig(filter_kind=filter_kind,
                                                      gamma=gamma))
        rng = np.random.default_rng(seed)
        density, sensor = initial_state(scenario)
        trajectory = simulate_trajectory(scenario, rng)[1:]
        for truth, no_measurement in zip(trajectory, silent):
            zset = generate_measurements(truth, scenario, rng)
            measurements = [] if no_measurement else list(zset.measurements)
            try:
                posterior = step(density, sensor, measurements, cfg)
            except InfeasibleAssignmentError:
                # Without clutter (clutter_mean 0, or an intensity that
                # underflows to 0) a measurement that no newborn inverts
                # and no gate admits has no finite cost, by design
                # (test_unexplained_measurement_without_clutter_is_infeasible).
                # The step's own cost matrices must show such a row.
                assert cfg.clutter_intensity == 0.0
                _, sensor_pred = predict_step(density, sensor, cfg)
                assert not all(
                    np.isfinite(build_cost_matrix(
                        hyp, measurements, sensor_pred, density.ppp_intensity,
                        cfg.clutter_intensity, cfg.model, gate=cfg.gate
                    )[0].matrix).any(axis=1).all()
                    for hyp in density.hypotheses)
                return
            density, sensor = posterior
            check_density(density)
            assert np.isfinite(sensor.mean).all()
            # Cholesky raises unless the free block is positive definite.
            np.linalg.cholesky(sensor.covariance[np.ix_(FREE, FREE)])
            assert not sensor.covariance[2].any()
            assert not sensor.covariance[:, 2].any()


#: Largest difference the metamorphic relations allow, relative to the
#: compared quantity's scale.  Permuting the inputs only reorders sums
#: (cost-matrix rows and columns, the children's moment match), and
#: translating the scene only changes how its coordinates round; either
#: moves the results by rounding, about 1e-16 per operation.  A changed
#: association moves them by the measurement noise, orders above this.
RELATION_TOL = 1e-9


def close(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.abs(b).max(initial=0.0)))
    return a.shape == b.shape and float(
        np.abs(a - b).max(initial=0.0)) <= RELATION_TOL * scale


def same_bernoulli(a, b) -> bool:
    if not close(a.existence, b.existence) or \
            a.belief.types.keys() != b.belief.types.keys():
        return False
    return all(close(a.belief.types[k].weight, b.belief.types[k].weight)
               and close(a.belief.types[k].mean, b.belief.types[k].mean)
               and close(a.belief.types[k].covariance,
                         b.belief.types[k].covariance)
               for k in a.belief.types)


def assert_same_outcome(got, want):
    """Equal sensor posteriors, and the best hypotheses' Bernoullis equal
    as a set, both within ``RELATION_TOL``."""
    (got_density, got_sensor), (want_density, want_sensor) = got, want
    assert close(got_sensor.mean, want_sensor.mean)
    assert close(got_sensor.covariance, want_sensor.covariance)
    unmatched = list(want_density.best_hypothesis().bernoullis)
    for bern in got_density.best_hypothesis().bernoullis:
        match = next((i for i, other in enumerate(unmatched)
                      if same_bernoulli(bern, other)), None)
        assert match is not None
        unmatched.pop(match)
    assert unmatched == []


def translated_scenario(scenario, shift):
    """``scenario`` with its BS, landmarks, walls and UE start moved by
    ``shift``."""
    return replace(
        scenario,
        bs=Landmark(LandmarkType.BS, scenario.bs.position + shift),
        vas=tuple((Landmark(LandmarkType.VA, va.position + shift),
                   Plane(wall.point + shift, wall.normal))
                  for va, wall in scenario.vas),
        sps=tuple(Landmark(LandmarkType.SP, sp.position + shift)
                  for sp in scenario.sps),
        ue_init=GaussianComponent(
            scenario.ue_init.mean + np.r_[shift, 0.0, 0.0],
            scenario.ue_init.covariance))


def translated_outcome(outcome, shift):
    """The best hypothesis and the sensor of ``(density, sensor)`` with
    every position moved by ``shift``."""
    density, sensor = outcome
    best = density.best_hypothesis()
    berns = tuple(Bernoulli(b.existence, LandmarkBelief({
        kind: TypeComponent(c.weight, c.mean + shift, c.covariance)
        for kind, c in b.belief.types.items()})) for b in best.bernoullis)
    return (replace(density, hypotheses=(replace(best, bernoullis=berns),)),
            GaussianComponent(sensor.mean + np.r_[shift, 0.0, 0.0],
                              sensor.covariance))


class TestMetamorphicRelations:
    #: Binary-exact, so the translated scene differs from the original
    #: only by how its sums round.
    SHIFT = np.array([40.5, -24.25, 8.0])

    @pytest.mark.parametrize("filter_kind", [EK_PMB, EK_PMBM])
    def test_permuted_measurements_and_priors_change_nothing(self,
                                                             filter_kind):
        # Each step is also run with its measurements permuted, and with
        # every hypothesis's prior Bernoullis permuted; the campaign goes
        # on from the unpermuted step.
        steps = 0
        for seed in range(4):
            scenario = replace(default_scenario(seed=seed, steps=30),
                               clutter_mean=3.0)
            cfg = build_filter_config(scenario, RunConfig(
                filter_kind=filter_kind, gamma=10))
            rng = np.random.default_rng([seed, 0])
            shuffle = np.random.default_rng([seed, 1])
            density, sensor = initial_state(scenario)
            for truth in simulate_trajectory(scenario, rng)[1:]:
                zset = generate_measurements(truth, scenario, rng)
                meas = list(zset.measurements)
                want = step(density, sensor, meas, cfg)
                permuted_meas = [meas[i] for i in
                                 shuffle.permutation(len(meas))]
                assert_same_outcome(
                    step(density, sensor, permuted_meas, cfg), want)
                permuted_priors = replace(density, hypotheses=tuple(
                    replace(h, bernoullis=tuple(
                        h.bernoullis[i] for i in
                        shuffle.permutation(len(h.bernoullis))))
                    for h in density.hypotheses))
                assert_same_outcome(
                    step(permuted_priors, sensor, meas, cfg), want)
                density, sensor = want
                steps += 1
        assert steps == 4 * 30

    @pytest.mark.parametrize("filter_kind", [EK_PMB, EK_PMBM])
    def test_translated_scene_translates_the_estimates(self, filter_kind):
        # The scene and its translate run as two campaigns on the same
        # random draws; after every step the translate's sensor and best
        # hypothesis, moved back, match the original's.
        steps = 0
        for seed in range(4):
            scenario = replace(default_scenario(seed=seed, steps=30),
                               clutter_mean=3.0)
            runs = []
            for scene in (scenario,
                          translated_scenario(scenario, self.SHIFT)):
                cfg = build_filter_config(scene, RunConfig(
                    filter_kind=filter_kind, gamma=10))
                rng = np.random.default_rng([seed, 0])
                outcome = initial_state(scene)
                outcomes = []
                for truth in simulate_trajectory(scene, rng)[1:]:
                    zset = generate_measurements(truth, scene, rng)
                    outcome = step(*outcome, list(zset.measurements), cfg)
                    outcomes.append(outcome)
                runs.append(outcomes)
            for want, got in zip(*runs):
                assert_same_outcome(translated_outcome(got, -self.SHIFT),
                                    want)
                steps += 1
        assert steps == 4 * 30
