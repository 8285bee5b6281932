import heapq
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    LinearModel,
    assignment_cost,
    birth_candidate,
    detected_weight,
    enumerate_associations,
    newborn,
    predict_types,
    reference_birth_candidate,
    reference_chol_logpdf,
    reference_predict_types,
    reference_wrap_residual,
    single_type_bernoulli,
)

from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs

from rfslam import association
from rfslam import update as update_module
from rfslam.association import (
    DEFAULT_GATE,
    AssociationVector,
    CostMatrix,
    InfeasibleAssignmentError,
    build_cost_matrix,
    chol_logpdf,
    chol_solve,
    misdetection_weight,
    murty_kbest,
)
from rfslam.cli import (
    NUMERICAL_ERRORS,
    RunConfig,
    build_filter_config,
    initial_state,
)
from rfslam.density import (
    Bernoulli,
    GaussianComponent,
    GlobalHypothesis,
    LandmarkBelief,
    PmbmDensity,
    TypeComponent,
    sum_in_order,
)
from rfslam.geometry import (
    ChannelModel,
    DegenerateGeometryError,
    Landmark,
    LandmarkType,
    Measurement,
)
from rfslam.sim import (default_scenario, generate_measurements,
                        simulate_trajectory)
from rfslam.update import EK_PMB, EK_PMBM, step, update_type_probs

BS = LandmarkType.BS
SP = LandmarkType.SP
VA = LandmarkType.VA


def toy_model(p_detect=0.9, a=0.0, b=1.0):
    return LinearModel({SP: ([[a]], [[b]])}, dim=1, p_detect=p_detect)


def toy_sensor(var=1.0):
    return GaussianComponent(np.zeros(1), np.array([[var]]))


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
    """``chol_solve``, the one Cholesky entry, on one-row stacks (as the
    joint update passes its innovation covariance) and multi-row stacks
    (as the cost matrix passes its densities and newborns)."""

    @pytest.mark.parametrize("n", [3, 5, 60])
    def test_bit_equal_to_scipy_wrappers(self, n):
        rng = np.random.default_rng(n)
        for rows in (1, 1, 1, 4, 4):
            stack = np.array([random_spd(rng, n) for _ in range(rows)])
            # A stack of vectors, of matrices, and of the transposed views
            # the joint update passes.
            for rhs in (rng.normal(size=(rows, n)),
                        rng.normal(size=(rows, n, 4)),
                        rng.normal(size=(rows, n + 2, n)).swapaxes(1, 2)):
                kept, factors, solutions = chol_solve(stack, rhs)
                assert kept == list(range(rows))
                for a, b, factor, x in zip(stack, rhs, factors, solutions):
                    ref = cho_factor(a, lower=True)
                    assert np.array_equal(factor, ref[0])
                    assert np.array_equal(x, cho_solve(ref, b))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_operand_raises_value_error(self, bad):
        rng = np.random.default_rng(1)
        stack = np.array([random_spd(rng, 5) for _ in range(2)])
        b = rng.normal(size=(2, 5))
        stack_bad, b_bad = stack.copy(), b.copy()
        stack_bad[1, 2, 2] = bad
        b_bad[0, 4] = bad
        with pytest.raises(ValueError):
            chol_solve(stack_bad, b)
        with pytest.raises(ValueError):
            chol_solve(stack, b_bad)
        with pytest.raises(ValueError):
            chol_solve(stack_bad, b, drop=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_at_every_position(self, bad):
        # The operands the filter passes: a C-ordered matrix stack, a stack
        # of vectors, a stack of strided Jacobian blocks, and the one-row
        # stack of the joint update, whose right-hand side is a transposed
        # view.
        rng = np.random.default_rng(2)
        stack = np.array([random_spd(rng, 5) for _ in range(2)])
        b = rng.normal(size=(2, 5))
        H = rng.normal(size=(2, 5, 8))
        PHt = rng.normal(size=(7, 5))
        for index in np.ndindex(stack.shape):
            stack_bad = stack.copy()
            stack_bad[index] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                chol_solve(stack_bad, b)
            with pytest.raises(ValueError, match="infs or NaNs"):
                chol_solve(stack_bad[index[0]][None], PHt.T[None])
        for index in np.ndindex(b.shape):
            b_bad = b.copy()
            b_bad[index] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                chol_solve(stack, b_bad)
        for k, i, j in np.ndindex(2, 5, 3):
            H_bad = H.copy()
            H_bad[k, i, 5 + j] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                chol_solve(stack, H_bad[:, :, 5:])
        for index in np.ndindex(PHt.shape):
            PHt_bad = PHt.copy()
            PHt_bad[index] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                chol_solve(stack[:1], PHt_bad.T[None])

    @settings(max_examples=300, deadline=None)
    @given(shape=st.tuples(st.integers(0, 6), st.integers(0, 6)),
           entries=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                            min_size=36, max_size=36),
           layout=st.sampled_from(["C", "F", "view", "vector"]))
    def test_finiteness_test_equals_isfinite_all(self, shape, entries,
                                                 layout):
        # Any floats, huge ones included: the test never warns (pytest
        # turns a RuntimeWarning into an error) and agrees everywhere.
        a = np.array(entries).reshape(6, 6)[:shape[0], :shape[1]]
        if layout == "C":
            a = np.ascontiguousarray(a)
        elif layout == "F":
            a = np.asfortranarray(a)
        elif layout == "vector":
            a = a.ravel()
        assert association._all_finite(a) == bool(np.isfinite(a).all())

    def test_finite_operands_whose_squares_overflow_pass(self):
        # Entries of +-1e308: the sum of squares overflows, the operands
        # are finite, and the results are scipy's.
        signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        big = 1e308 * np.outer(signs, signs)
        assert association._all_finite(big)
        diag = np.diag(np.full(5, 1e308))
        _, (factor,), _ = chol_solve(diag[None], np.ones((1, 5)))
        assert np.array_equal(factor, cho_factor(diag, lower=True)[0])
        four = np.array([4.0 * np.eye(5)] * 2)
        for rhs in (1e308 * signs, big):
            _, (factor, _), solutions = chol_solve(four, np.array([rhs] * 2))
            for x in solutions:
                assert np.array_equal(x, cho_solve((factor, True), rhs))

    def test_indefinite_matrix_raises_linalg_error(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            chol_solve(a[None], np.ones((1, 3)))
        stack = np.array([np.eye(3), a, 2.0 * np.eye(3)])
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            chol_solve(stack, np.ones((3, 3)))
        # With ``drop`` the indefinite row is left out, and only it.
        kept, factors, solutions = chol_solve(stack, np.ones((3, 3)),
                                              drop=True)
        assert kept == [0, 2] and len(factors) == len(solutions) == 2
        with pytest.raises(np.linalg.LinAlgError,
                           match="singular innovation covariance"):
            chol_logpdf(np.ones((1, 3)), a[None])


def reference_weight_birth(meas, sensor, ppp, clutter_intensity, model):
    """``weight_birth`` on the reference newborn, wrap and density, from
    before it returned its masses: ``(log_weight, existence, types)`` with
    each newborn type's share of sum_type rho in a TypeComponent."""
    cand = reference_birth_candidate(meas, sensor, ppp, clutter_intensity,
                                     model)
    rho_total = sum_in_order(cand.masses.values())
    types = {k: TypeComponent(r / rho_total, cand.comps[k].mean,
                              cand.comps[k].covariance)
             for k, r in cand.masses.items()}
    return cand.log_weight, cand.existence, types


def bits(x):
    """The bytes of an array or float, None kept as None."""
    return None if x is None else np.asarray(x, dtype=float).tobytes()


@st.composite
def birth_case(draw):
    """(measurement, sensor, model): a VA or SP measured from a sensor
    near the UE, with random SPD sensor and measurement covariances, under
    the channel model or a 3-D linear toy."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from([VA, SP]))
    ue = np.array([rng.uniform(-60, 60), rng.uniform(-60, 60), 0.0,
                   rng.uniform(-math.pi, math.pi), rng.uniform(0, 300)])
    a = rng.normal(size=(5, 5)) * 10 ** rng.uniform(-3, 0)
    sensor = GaussianComponent(ue + rng.normal(size=5) * 0.3,
                               a @ a.T + 1e-6 * np.eye(5))
    c = rng.normal(size=(5, 5)) * 10 ** rng.uniform(-3, -1)
    r = c @ c.T + np.diag([0.01, 1e-5, 1e-5, 1e-5, 1e-5])
    if draw(st.booleans()):
        model = ChannelModel(np.array([0.0, 0.0, 40.0]),
                             fov_radius=draw(st.sampled_from([50.0, 500.0])))
        x = (np.array([rng.uniform(120, 220), rng.uniform(-80, 80),
                       rng.uniform(20, 60)]) if kind is VA else
             np.array([rng.uniform(-110, 110), rng.uniform(-110, 110),
                       rng.uniform(4, 16)]))
        z = model.linearize(ue, x, kind)[1]
        if z is None:   # hidden SP: measure it as the model would see it
            z = ChannelModel(model.bs_position, fov_radius=1e9).linearize(
                ue, x, kind)[1]
        z = z + rng.normal(size=5) * np.sqrt(np.diag(r))
    else:
        model = LinearModel({VA: (rng.normal(size=(5, 5)),
                                  rng.normal(size=(5, 3))),
                             SP: (rng.normal(size=(5, 5)),
                                  rng.normal(size=(5, 3)),
                                  rng.normal(size=5))}, dim=5,
                            p_detect={VA: 0.8, SP: 0.6})
        z = rng.normal(size=5) * 10
    return Measurement(z, r), sensor, model


class TestStackingPremise:
    """Each stacked expression of ``build_cost_matrix`` equals its per-slice
    2-D call bit for bit, with the operand layouts of the per-row code:
    Jacobian blocks that are views of one ``(d, 8)`` array, and ``dpotrf``
    and ``dpotrs`` results in Fortran order.  This is the premise of the
    stacking (the ``rfslam.geometry`` bit rule), so a numpy or BLAS upgrade
    that breaks it fails here by name and not only at the golden hashes."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3]))
    def test_stacked_expressions_equal_per_slice_calls(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        P = random_spd(rng, 5) * scale
        H = rng.normal(size=(n, 5, 8)) * scale
        C = np.array([random_spd(rng, 3) * scale for _ in range(n)])
        R = np.array([random_spd(rng, 5) * scale for _ in range(n)])
        v = rng.normal(size=(n, 5)) * scale
        views = [(h[:, :5], h[:, 5:]) for h in H]
        H_s, H_x = (np.array(block) for block in zip(*views))

        def stack(per_slice):
            return np.array([per_slice(k) for k in range(n)])

        # Type predictions and newborns: H_s P H_s^T + H_x C H_x^T.
        hph_s = H_s @ P @ H_s.swapaxes(-1, -2)
        got = hph_s + H_x @ C @ H_x.swapaxes(-1, -2)
        want = stack(lambda k: views[k][0] @ P @ views[k][0].T
                     + views[k][1] @ C[k] @ views[k][1].T)
        assert got.tobytes() == want.tobytes()
        # Newborn information matrix: H_x^T (gain)^-1 H_x from the 5x3
        # dpotrs solutions, each in Fortran order.
        factors = [dpotrf(hph_s[k] + R[k], lower=1, clean=0)[0]
                   for k in range(n)]
        solved = [dpotrs(factors[k], views[k][1], lower=1)[0]
                  for k in range(n)]
        info = H_x.swapaxes(-1, -2) @ np.array(solved)
        assert info.tobytes() == stack(
            lambda k: views[k][1].T @ solved[k]).tobytes()
        # Newborn prediction: hph_s + H_x cov H_x^T with a 3x3 covariance.
        cov = 0.5 * (C + C.swapaxes(-1, -2))
        got = hph_s + H_x @ cov @ H_x.swapaxes(-1, -2)
        want = stack(lambda k: views[k][0] @ P @ views[k][0].T
                     + views[k][1] @ (0.5 * (C[k] + C[k].T))
                     @ views[k][1].T)
        assert got.tobytes() == want.tobytes()
        # Densities: row dots v^T S^-1 v and log-diagonal sums.
        x = [dpotrs(factors[k], v[k], lower=1)[0] for k in range(n)]
        dots = (v[:, None, :] @ np.array(x)[:, :, None])[:, 0, 0]
        assert dots.tobytes() == stack(lambda k: v[k] @ x[k]).tobytes()
        logdet = np.log(np.array(factors).diagonal(axis1=1, axis2=2)).sum(
            axis=-1)
        assert logdet.tobytes() == stack(
            lambda k: np.log(factors[k].diagonal()).sum()).tobytes()


class TestLocalWeightReference:
    """The newborn and Gaussian kernels give the bits of their reference
    copies."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 8), rows=st.integers(1, 16),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-6, 1e-2, 1.0, 1e3]))
    def test_chol_logpdf_bit_equal(self, n, rows, seed, scale):
        # A stack of rows, each with its own covariance and scale: every
        # row has the bits of its own reference call.
        rng = np.random.default_rng(seed)
        scales = scale * 10.0 ** rng.integers(-2, 3, size=rows)
        covs = np.array([random_spd(rng, n) * s for s in scales])
        residuals = rng.normal(size=(rows, n)) * np.sqrt(scales)[:, None]
        logpdfs, mahals = chol_logpdf(residuals, covs)
        for got_logpdf, got_mahal, v, cov in zip(logpdfs, mahals, residuals,
                                                 covs):
            want = reference_chol_logpdf(v, cov)
            assert bits(got_logpdf) == bits(want[0])
            assert bits(got_mahal) == bits(want[1])

    @settings(max_examples=300, deadline=None)
    @given(case=birth_case())
    def test_birth_and_weight_bit_equal(self, case):
        meas, sensor, model = case
        for kind in (VA, SP):
            # The cost matrix's newborn against the reference newborn, and
            # its birth mass against the reference prediction's density.
            newborn(meas, sensor, kind, model)
        ppp = {BS: 1e-4, VA: 2.5e-6, SP: 4e-6}
        got = birth_candidate(meas, sensor, ppp, 1.3e-5, model)
        log_weight, existence, types = reference_weight_birth(
            meas, sensor, ppp, 1.3e-5, model)
        assert bits(got.log_weight) == bits(log_weight)
        assert bits(got.existence) == bits(existence)
        psi = update_type_probs(got.masses) if got.masses else {}
        assert list(psi) == list(types)
        for kind, share in psi.items():
            ref = types[kind]
            assert bits(share) == bits(ref.weight)
            assert bits(got.comps[kind].mean) == bits(ref.mean)
            assert bits(got.comps[kind].covariance) == bits(ref.covariance)
        want = reference_birth_candidate(meas, sensor, ppp, 1.3e-5, model)
        assert {k: bits(r) for k, r in got.masses.items()} == \
            {k: bits(r) for k, r in want.masses.items()}

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(
        st.floats(-1e4, 1e4) | st.sampled_from(
            [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, math.nan]),
        min_size=5, max_size=5), min_size=1, max_size=4),
        one=st.booleans())
    def test_wrap_residual_bit_equal(self, rows, one):
        model = ChannelModel(np.array([0.0, 0.0, 40.0]))
        v = np.array(rows[0] if one else rows)
        assert bits(model.wrap_residual(v)) == \
            bits(reference_wrap_residual(model, v))
        assert model.wrap_residual(v).shape == v.shape


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
        cand = birth_candidate(meas, toy_sensor(), {SP: 0.0}, 0.5,
                               toy_model())
        assert cand.log_weight == pytest.approx(math.log(0.5))
        assert cand.existence == 0.0
        assert cand.masses == {} and cand.comps == {}

    def test_reference_clutter_intensity_floor(self):
        c = 1.0 / (4 * 200 * math.pi ** 4)
        assert c == pytest.approx(1.28325e-5, rel=1e-4)
        meas = Measurement(np.array([1000.0]), np.eye(1))  # far from any birth
        cand = birth_candidate(meas, toy_sensor(), {SP: 1e-6}, c,
                               toy_model())
        assert cand.log_weight >= math.log(c)

    def test_scalar_hand_evaluated(self):
        # h = s + x, sensor N(0, 0.25), R = 1, eta = 2, pd = 0.9, z = 0.3.
        model = LinearModel({SP: ([[1.0]], [[1.0]])}, dim=1, p_detect=0.9)
        sensor = GaussianComponent(np.zeros(1), np.array([[0.25]]))
        meas = Measurement(np.array([0.3]), np.eye(1))
        cand = birth_candidate(meas, sensor, {SP: 2.0}, 0.01, model)
        # Birth mean inverts exactly: u = z - s = 0.3; C = (P + R) = 1.25;
        # S = P + C + R = 2.5 and the predicted residual is 0.
        rho = 2.0 * 0.9 / math.sqrt(2 * math.pi * 2.5)
        assert cand.comps[SP].mean[0] == pytest.approx(0.3)
        assert cand.comps[SP].covariance[0, 0] == pytest.approx(1.25)
        assert cand.masses[SP] == pytest.approx(rho, rel=1e-12)
        assert cand.log_weight == pytest.approx(math.log(0.01 + rho),
                                                abs=1e-12)
        assert cand.existence == pytest.approx(rho / (0.01 + rho), rel=1e-12)
        assert update_type_probs(cand.masses) == {SP: 1.0}


    def test_overflowing_birth_density_is_a_typed_error(self):
        # A zero sensor covariance and R = 1e-300 I: the newborn's density
        # N(z; h, 2e-300 I) is far beyond the float range.  The birth
        # raises a numerical error the CLI maps to exit 4, and nothing on
        # the way warns.
        model = LinearModel({VA: (np.zeros((5, 5)), np.eye(5))}, dim=5)
        sensor = GaussianComponent(np.zeros(5), np.zeros((5, 5)))
        meas = Measurement(np.ones(5), 1e-300 * np.eye(5))
        config = update_module.FilterConfig(model, np.zeros((5, 5)))
        density = PmbmDensity({VA: 1.0}, (GlobalHypothesis(1.0, ()),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleAssignmentError, match="overflows"):
                birth_candidate(meas, sensor, {VA: 1.0}, 0.0, model)
            with pytest.raises(NUMERICAL_ERRORS):
                update_module.update_step(density, sensor, [meas], config)

    def test_underflowing_birth_density_without_clutter_is_born(self):
        # R = 1e300 I: the newborn's density N(z; h, 2e300 I) underflows to
        # 0.  Without clutter nothing else explains the measurement, so its
        # birth weight is the log-sum of the rates, not ln 0, and it is born.
        model = LinearModel({VA: (np.zeros((5, 5)), np.eye(5))}, dim=5)
        sensor = GaussianComponent(np.zeros(5), np.zeros((5, 5)))
        meas = Measurement(np.ones(5), 1e300 * np.eye(5))
        loglik = -0.5 * 5 * (math.log(2.0 * math.pi) + math.log(2e300))
        assert math.exp(loglik) == 0.0
        cand = birth_candidate(meas, sensor, {VA: 1.0}, 0.0, model)
        assert cand.log_weight == pytest.approx(math.log(0.9) + loglik,
                                                rel=1e-12)
        assert cand.existence == 1.0
        assert cand.masses == {VA: 1.0}
        # Two types: each mass is its rate over the largest.
        cand = association.weight_birth(
            {VA: (1.0, 1.0, -900.0), SP: (3.0, 1.0, -900.0)}, {}, 0.0)
        assert cand.log_weight == pytest.approx(math.log(4.0) - 900.0,
                                                rel=1e-12)
        assert cand.masses == {VA: pytest.approx(1.0 / 3.0), SP: 1.0}
        # With clutter the clutter weight is the floor, as before.
        cand = association.weight_birth({VA: (1.0, 1.0, -900.0)}, {}, 0.5)
        assert (cand.log_weight, cand.existence, cand.masses) == (
            math.log(0.5), 0.0, {})
        config = update_module.FilterConfig(model, np.zeros((5, 5)),
                                            clutter_intensity=0.0)
        density = PmbmDensity({VA: 1.0}, (GlobalHypothesis(1.0, ()),))
        posterior, _ = update_module.update_step(density, sensor, [meas],
                                                 config)
        (bern,) = posterior.best_hypothesis().bernoullis
        assert bern.existence == 1.0
        assert np.array_equal(bern.belief.types[VA].mean, np.ones(5))


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
        cand = birth_candidate(meas, toy_sensor(), {SP: 1.0}, 0.1,
                               toy_model())
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
            _, masses, _ = detected_weight(
                berns[0], meas, predict_types(berns[0], sensor, model), model)
            assert ctx.pairs[(0, p)][0] == masses
            cand = birth_candidate(meas, sensor, {SP: 1.5}, 0.2, model)
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
        loglik, mahal = reference_chol_logpdf(v, S)
        best_mahal = min(best_mahal, mahal)
        terms[kind] = math.log(weight) + math.log(p_detect) + loglik
    m = max(terms.values(), default=-math.inf)
    if not math.isfinite(m):
        return -math.inf, {}, best_mahal
    masses = {k: math.exp(terms[k] - m) if k in terms else 0.0
              for k in bern.belief.types}
    m += math.log(sum_in_order(math.exp(t - m) for t in terms.values()))
    return math.log(bern.existence) + m, masses, best_mahal


def reference_cost_matrix(hypothesis, measurements, sensor, ppp, clutter,
                          model, gate):
    """The cost matrix as the per-pair loop built it: (matrix, sum of
    ln l^{i,0}, (type masses, residuals) per kept pair, type predictions per
    landmark, birth candidates)."""
    berns = hypothesis.bernoullis
    n_prior, n_meas = len(berns), len(measurements)
    matrix = np.full((n_meas, n_prior + n_meas), np.inf)
    log_sum = 0.0
    pairs = {}
    type_preds = []
    for i, bern in enumerate(berns):
        preds = reference_predict_types(bern, sensor, model)
        type_preds.append(preds)
        log_l0 = math.log(misdetection_weight(bern, preds)[2])
        log_sum += log_l0
        for p, meas in enumerate(measurements):
            log_l, masses, mahal = reference_log_weight_detected(
                bern, meas, preds, model, gate)
            if log_l == -math.inf or (gate is not None and mahal > gate):
                continue
            pairs[(i, p)] = masses, {
                k: model.wrap_residual(meas.z - preds[k].z_pred)
                for k in bern.belief.types if preds[k].z_pred is not None}
            matrix[p, i] = log_l0 - log_l
    births = []
    for p, meas in enumerate(measurements):
        cand = reference_birth_candidate(meas, sensor, ppp, clutter, model)
        births.append(cand)
        matrix[p, n_prior + p] = -cand.log_weight
    return matrix, log_sum, pairs, type_preds, births


class RankLossModel(ChannelModel):
    """The channel model with a landmark Jacobian of rank 0 more than 80 m
    above the ground, where a newborn's information matrix then fails its
    factorization (no prior landmark of ``channel_association_case`` is
    there)."""

    def linearize(self, sensor_mean, lm_position, kind):
        pd, z_pred, H_s, H_x = super().linearize(sensor_mean, lm_position,
                                                 kind)
        if H_x is not None and lm_position[2] > 80.0:
            H_x = np.zeros_like(H_x)
        return pd, z_pred, H_s, H_x


def with_birth_faults(seed, measurements, sensor, model):
    """``(measurements, model)`` with four measurements added at random
    places whose newborn of some type fails, beside the other type's and
    the other measurements' live rows: one inverts to None for both types
    (path below the clock bias), one is a true SP beyond the field of view
    (its VA newborn lives), one has a vertical angle of arrival (its VA
    newborn's geometry is degenerate) and one puts its VA newborn 93 m up,
    where :class:`RankLossModel` makes its information matrix singular.
    The last two depart from the BS toward the UE, so their SP newborns
    lie in the field of view and live."""
    rng = np.random.default_rng(seed + 1)
    ue, bias = sensor.mean[:3], sensor.mean[4]
    far_sp = ue + np.array([0.0, 90.0, 10.0])
    R = np.diag(np.array([0.1, 0.005, 0.005, 0.005, 0.005]) ** 2)
    faults = [
        np.array([bias - 5.0, 0.1, 0.1, 0.1, 0.1]),
        ChannelModel(model.bs_position, fov_radius=1e9).linearize(
            sensor.mean, far_sp, SP)[1],
        np.array([bias + 100.0, 0.3, math.pi / 2, 0.0, -0.46]),
        np.array([bias + 100.0, 0.4, 1.2, 0.0, -0.46]),
    ]
    out = list(measurements)
    for z in faults:
        out.insert(int(rng.integers(len(out) + 1)), Measurement(z, R))
    return out, RankLossModel(model.bs_position)


class TestArrayPass:
    """``build_cost_matrix`` runs each stage of a hypothesis over one stack
    of rows; every output must have the per-pair reference's bits."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_landmarks=st.integers(1, 8),
           n_meas=st.integers(0, 10),
           tight=st.booleans(),
           varied_cov=st.booleans(),
           zero_existence=st.booleans(),
           degenerate=st.booleans(),
           birth_faults=st.booleans(),
           pick=st.integers(0, 10 ** 6),
           gate_kind=st.sampled_from(["none", "default", -1e-9, 0.0, 1e-9]))
    def test_bit_equal_to_per_pair_reference(self, seed, n_landmarks, n_meas,
                                             tight, varied_cov,
                                             zero_existence, degenerate,
                                             birth_faults, pick, gate_kind):
        hyp, meas, sensor, ppp, model = channel_association_case(
            seed, n_landmarks, n_meas, tight, varied_cov=varied_cov,
            zero_existence=zero_existence, degenerate=degenerate)
        if birth_faults:
            meas, model = with_birth_faults(seed, meas, sensor, model)
        clutter = 1e-6
        if gate_kind == "none":
            gate = None
        else:
            gate = DEFAULT_GATE
            finite = []
            for bern in hyp.bernoullis:
                preds = reference_predict_types(bern, sensor, model)
                for z in meas:
                    _, _, m = reference_log_weight_detected(bern, z, preds,
                                                            model)
                    if math.isfinite(m):
                        finite.append(m)
            finite.sort()
            if gate_kind != "default" and finite:
                # Put the gate within 1e-9 of one pair's full distance.
                gate = finite[pick % len(finite)] * (1.0 + gate_kind)

        matrix, log_sum, pairs, type_preds, births = reference_cost_matrix(
            hyp, meas, sensor, ppp, clutter, model, gate)
        costs, got_log_sum, ctx = build_cost_matrix(
            hyp, meas, sensor, ppp, clutter, model, gate=gate)
        assert costs.matrix.tobytes() == matrix.tobytes()
        assert got_log_sum == log_sum
        assert ctx.pairs.keys() == pairs.keys()
        for key, (masses, rows) in pairs.items():
            got_masses, got = ctx.pairs[key]
            assert got_masses == masses
            assert list(got) == list(rows)
            assert all(got[k].tobytes() == v.tobytes()
                       for k, v in rows.items())
        # The stacked hph, one row per type with a prediction, is the
        # cost matrix's; each row has the bits of the type's own.
        _, rows, hph = association.predict_types(hyp.bernoullis, sensor,
                                                 model)
        stacked = dict(zip(rows, hph)) if rows else {}
        for i, (got, want) in enumerate(zip(ctx.type_preds, type_preds,
                                            strict=True)):
            assert list(got) == list(want)
            for kind, pred in want.items():
                assert got[kind].p_detect == pred.p_detect
                for name in ("z_pred", "H_s", "H_x"):
                    assert bits(getattr(got[kind], name)) == \
                        bits(getattr(pred, name))
                assert bits(stacked.get((i, kind))) == bits(pred.hph)
        for got, want in zip(ctx.births, births, strict=True):
            assert bits(got.log_weight) == bits(want.log_weight)
            assert bits(got.existence) == bits(want.existence)
            assert {k: bits(r) for k, r in got.masses.items()} == \
                {k: bits(r) for k, r in want.masses.items()}
            assert list(got.comps) == list(want.comps)
            for kind, comp in want.comps.items():
                assert bits(got.comps[kind].mean) == bits(comp.mean)
                assert bits(got.comps[kind].covariance) == \
                    bits(comp.covariance)


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
        for (i, p) in ctx.pairs:
            _, _, mahal[(i, p)] = detected_weight(
                hyp.bernoullis[i], meas[p],
                predict_types(hyp.bernoullis[i], sensor, model), model)
        finite = sorted(m for m in mahal.values() if math.isfinite(m))
        if rel is None or not finite:
            gate = DEFAULT_GATE
        else:
            # Put the gate within 1e-9 of one pair's full distance.
            gate = finite[pick % len(finite)] * (1.0 + rel)

        expected = ungated.matrix.copy()
        expected_pairs = dict(ctx.pairs)
        for (i, p), m in mahal.items():
            if m > gate:
                expected[p, i] = np.inf
                del expected_pairs[(i, p)]

        gated, gated_log_sum, gated_ctx = build_cost_matrix(
            hyp, meas, sensor, ppp, clutter, model, gate=gate)
        assert gated.matrix.tobytes() == expected.tobytes()
        assert gated_ctx.pairs.keys() == expected_pairs.keys()
        for key, (masses, rows) in expected_pairs.items():
            got_masses, got = gated_ctx.pairs[key]
            assert got_masses == masses
            assert list(got) == list(rows)
            assert all(got[k].tobytes() == v.tobytes()
                       for k, v in rows.items())
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
        assert (costs.matrix[0, 0], ctx.pairs, calls) == \
            (np.inf, {}, [])


def reference_murty_kbest(costs, gamma):
    """``murty_kbest`` before it stopped at the gamma-th solution: it also
    partitioned the last popped solution and discarded the children."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    n_meas = costs.matrix.shape[0]
    n_prior = costs.n_prior
    if n_meas == 0:
        return [(AssociationVector(n_prior, (0,) * n_prior), 0.0)]
    if np.any(~np.isfinite(costs.matrix.min(axis=1))):
        raise InfeasibleAssignmentError("a measurement row has no finite cost")
    first = association._solve_assignment(costs.matrix)
    if first is None:
        raise InfeasibleAssignmentError("no feasible assignment exists")
    counter = 0
    heap = [(first[1], counter, costs.matrix, first[0])]
    results = []
    while heap and len(results) < gamma:
        cost, _, matrix, assignment = heapq.heappop(heap)
        results.append((association._sigma_from_assignment(
            assignment, n_prior, n_meas), float(cost)))
        partition = matrix
        for r in range(n_meas):
            c = int(assignment[r])
            child = partition.copy()
            child[r, c] = np.inf
            solved = association._solve_assignment(child)
            if solved is not None:
                counter += 1
                heapq.heappush(heap, (solved[1], counter, child, solved[0]))
            partition = partition.copy()
            forced_value = partition[r, c]
            partition[r, :] = np.inf
            partition[:, c] = np.inf
            partition[r, c] = forced_value
    return results


def whole_matrix_kbest(costs, gamma):
    """``murty_kbest`` with the row merge declining, so that ``_murty``
    ranks every matrix, as it ranks one with a column shared by two rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(association, "_row_ranking", lambda *args: None)
        return murty_kbest(costs, gamma)


def ties_and_infinite_cells(seed, n_meas, n_prior):
    """Integer costs 0-3, which tie often and sum exactly; a prior cell is
    infinite with probability 1/2, a birth cell with 0.3."""
    rng = np.random.default_rng(seed)
    matrix = np.full((n_meas, n_prior + n_meas), np.inf)
    prior = rng.integers(0, 4, size=(n_meas, n_prior)).astype(float)
    prior[rng.uniform(size=prior.shape) < 0.5] = np.inf
    matrix[:, :n_prior] = prior
    birth = rng.integers(0, 4, size=n_meas).astype(float)
    birth[rng.uniform(size=n_meas) < 0.3] = np.inf
    matrix[:, n_prior:][np.eye(n_meas, dtype=bool)] = birth
    return CostMatrix(matrix, n_prior)


def clustered_cells(seed, n_meas, n_prior, integer):
    """Rows in clusters: each prior column is finite in none, one, two or
    three rows, so two or three rows can share one.  A row is forced with
    probability 0.3: it keeps one finite cell, a prior one when it has any,
    which another row may share.  A birth cell is infinite with probability
    0.2, so a row can be left with no finite cell.  Integer costs 0-3 tie
    often; normal costs almost never do."""
    rng = np.random.default_rng(seed)

    def draw(size):
        if integer:
            return rng.integers(0, 4, size).astype(float)
        return rng.normal(size=size)

    matrix = np.full((n_meas, n_prior + n_meas), np.inf)
    for c in range(n_prior):
        rows = rng.choice(n_meas, size=rng.integers(0, min(3, n_meas) + 1),
                          replace=False)
        matrix[rows, c] = draw(rows.size)
    birth = draw(n_meas)
    birth[rng.uniform(size=n_meas) < 0.2] = np.inf
    matrix[:, n_prior:][np.eye(n_meas, dtype=bool)] = birth
    for r in range(n_meas):
        if rng.uniform() < 0.3:
            finite = np.flatnonzero(np.isfinite(matrix[r, :n_prior]))
            keep = int(rng.choice(finite)) if finite.size else n_prior + r
            value = matrix[r, keep]
            matrix[r] = np.inf
            matrix[r, keep] = value if np.isfinite(value) else 1.0
    return CostMatrix(matrix, n_prior)


def cost_matrices(kind, seed, n_meas, n_prior):
    if kind == "ties":
        return ties_and_infinite_cells(seed, n_meas, n_prior)
    return clustered_cells(seed, n_meas, n_prior, kind == "integer clusters")


def ranking_outcome(ranking, costs, gamma):
    """Each ranked association's sigma and cost bits, or the type and the
    message of the error raised."""
    try:
        return [(sigma.sigma, bits(cost)) for sigma, cost in
                ranking(costs, gamma)]
    except ValueError as exc:
        return type(exc), str(exc)


def captured_cost_matrices(filter_kind, scenario, seed):
    """The cost matrices a short gamma-10 campaign ranks."""
    cfg = build_filter_config(scenario, RunConfig(filter_kind=filter_kind,
                                                  gamma=10))
    rng = np.random.default_rng([seed, 0])
    density, sensor = initial_state(scenario)
    captured = []

    def recording(costs, gamma):
        captured.append(costs)
        return murty_kbest(costs, gamma)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(update_module, "murty_kbest", recording)
        for truth in simulate_trajectory(scenario, rng)[1:]:
            zset = generate_measurements(truth, scenario, rng)
            density, sensor = step(density, sensor, list(zset.measurements),
                                   cfg)
    return captured


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

    @settings(max_examples=600, deadline=None)
    @given(kind=st.sampled_from(["ties", "integer clusters",
                                 "real clusters"]),
           seed=st.integers(0, 2 ** 32 - 1), n_meas=st.integers(0, 5),
           n_prior=st.integers(0, 5), gamma=st.integers(1, 12))
    def test_rankings_match_the_reference(self, kind, seed, n_meas, n_prior,
                                          gamma):
        costs = cost_matrices(kind, seed, n_meas, n_prior)
        assert ranking_outcome(murty_kbest, costs, gamma) == \
            ranking_outcome(reference_murty_kbest, costs, gamma)

    def test_a_tie_after_the_gamma_th_falls_back(self):
        # The 4th and 5th best both cost 7.  Rows 0 and 2 share landmark
        # 0, so Murty ranks this matrix and the merge never sees it; the
        # merge's extra candidate is pinned by the test after this one.
        matrix = np.array([[0.0, np.inf, 3.0, np.inf, np.inf],
                           [np.inf, 1.0, np.inf, 3.0, np.inf],
                           [1.0, np.inf, np.inf, np.inf, 3.0]])
        costs = CostMatrix(matrix, 2)
        for gamma in range(1, 10):
            assert ranking_outcome(murty_kbest, costs, gamma) == \
                ranking_outcome(reference_murty_kbest, costs, gamma)

    def test_the_extra_candidate_shows_a_tie_at_the_gamma_th(self):
        # No column is finite in two rows, so the merge ranks this matrix.
        # The 2nd and 3rd best both cost 0.7, and the merge ranks them in
        # the other order from Murty's, so at gamma 2 only the candidate
        # past the gamma-th shows the tie and sends the matrix to Murty.
        costs = CostMatrix(np.array([[0.3, np.inf, 0.1, np.inf],
                                     [np.inf, 0.6, np.inf, 0.4]]), 2)
        for gamma in range(1, 5):
            assert ranking_outcome(murty_kbest, costs, gamma) == \
                ranking_outcome(reference_murty_kbest, costs, gamma)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_meas=st.integers(1, 6),
           n_prior=st.integers(0, 6), gamma=st.integers(1, 40))
    def test_single_row_clusters_are_ranked_without_a_solve(
            self, seed, n_meas, n_prior, gamma):
        # Each prior column is finite in at most one row; real costs.
        rng = np.random.default_rng(seed)
        matrix = np.full((n_meas, n_prior + n_meas), np.inf)
        owner = rng.integers(-1, n_meas, size=n_prior)
        matrix[owner[owner >= 0], np.flatnonzero(owner >= 0)] = rng.normal(
            size=int((owner >= 0).sum()))
        matrix[:, n_prior:][np.eye(n_meas, dtype=bool)] = rng.normal(
            size=n_meas)
        costs = CostMatrix(matrix, n_prior)
        calls = []
        solve = association._solve_assignment

        def counting(child):
            calls.append(child.shape)
            return solve(child)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(association, "_solve_assignment", counting)
            got = ranking_outcome(murty_kbest, costs, gamma)
        # At gamma 1 Murty's first solve is the whole ranking.
        assert calls == ([] if gamma > 1 else [matrix.shape])
        assert got == ranking_outcome(reference_murty_kbest, costs, gamma)

    def test_ties_and_only_ties_fall_back_to_the_full_matrix(self):
        # Only a matrix without a shared column is merged, and seeds 0-149
        # draw no such tie-heavy 4x4 matrix: hence 600.
        def fallbacks(kind, gamma):
            count = 0
            for seed in range(600):
                costs = cost_matrices(kind, seed, 4, 4)
                matrix = costs.matrix
                finite = matrix < math.inf
                try:
                    reference_murty_kbest(costs, gamma)
                except InfeasibleAssignmentError:
                    continue
                if np.count_nonzero(finite, axis=0).max() > 1:
                    continue    # a shared column: Murty ranks it
                ranked = association._row_ranking(matrix, finite, gamma + 1)
                count += ranked is None
            return count

        for gamma in (2, 5):
            assert fallbacks("ties", gamma) > 0
            assert fallbacks("integer clusters", gamma) > 0
            assert fallbacks("real clusters", gamma) == 0

    @pytest.mark.parametrize("filter_kind, stress", [(EK_PMB, False),
                                                     (EK_PMBM, True)])
    def test_filter_matrices_rank_as_the_whole_matrix(self, filter_kind,
                                                      stress):
        scenario = default_scenario(seed=3, steps=12)
        if stress:
            # Heavy clutter, misdetections and a twin 3 m from each
            # scatterer, so measurements share landmarks.
            twins = tuple(Landmark(SP, pos) for pos in
                          ([99.0, 3.0, 10.0], [-99.0, -3.0, 10.0],
                           [3.0, 99.0, 10.0], [-3.0, -99.0, 10.0]))
            scenario = replace(scenario, sps=scenario.sps + twins,
                               clutter_mean=10.0,
                               p_detect={kind: 0.6 for kind in LandmarkType})
        captured = captured_cost_matrices(filter_kind, scenario, 3)
        assert len(captured) >= 12
        shared = 0
        murty = association._murty
        for costs in captured:
            in_two_rows = np.isfinite(costs.matrix).sum(axis=0).max() > 1
            shared += in_two_rows
            for gamma in (10, 50):
                calls = []
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(association, "_murty", lambda matrix: (
                        calls.append(matrix.shape) or murty(matrix)))
                    got = ranking_outcome(murty_kbest, costs, gamma)
                # Murty ranks a matrix with a shared column; the merge
                # ranks every other one and never falls back.
                assert len(calls) == in_two_rows
                assert got == ranking_outcome(reference_murty_kbest, costs,
                                              gamma)
        assert shared > 0 or not stress

    def test_gamma_one_solves_once(self, monkeypatch):
        calls = []
        solve = association._solve_assignment

        def counting(matrix):
            calls.append(matrix.shape)
            return solve(matrix)

        monkeypatch.setattr(association, "_solve_assignment", counting)
        rng = np.random.default_rng(24)
        matrix = np.full((4, 7), np.inf)
        matrix[:, :3] = rng.normal(size=(4, 3))
        matrix[:, 3:][np.eye(4, dtype=bool)] = rng.normal(size=4)
        (sol,) = murty_kbest(CostMatrix(matrix, 3), 1)
        assert calls == [(4, 7)]
        assert sol == reference_murty_kbest(CostMatrix(matrix, 3), 1)[0]

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_meas=st.integers(1, 5),
           n_prior=st.integers(0, 4), gamma=st.integers(1, 8),
           finite_births=st.booleans())
    def test_dead_children_are_never_solved(self, seed, n_meas, n_prior,
                                            gamma, finite_births):
        costs = ties_and_infinite_cells(seed, n_meas, n_prior)
        matrix = costs.matrix.copy()
        rng = np.random.default_rng([seed, 1])
        birth = matrix[:, n_prior:]
        if finite_births:
            # The filter's matrices: every measurement can be clutter.
            birth[np.eye(n_meas, dtype=bool)] = rng.integers(0, 4, n_meas)
        for r in range(n_meas):
            if rng.uniform() < 0.3:
                # A row with one finite cell: birth or clutter only, or,
                # with an infinite birth cell, one landmark.
                finite = np.flatnonzero(np.isfinite(matrix[r]))
                keep = (n_prior + r if np.isfinite(birth[r, r])
                        or not finite.size else int(rng.choice(finite)))
                value = matrix[r, keep]
                matrix[r] = np.inf
                matrix[r, keep] = value if np.isfinite(value) else 1.0
        costs = CostMatrix(matrix, n_prior)

        def recorded(ranking):
            calls = []
            solve = association._solve_assignment

            def recording(child):
                solved = solve(child)
                calls.append((child.copy(), solved is not None))
                return solved

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(association, "_solve_assignment", recording)
                try:
                    return ranking(costs, gamma), calls
                except InfeasibleAssignmentError as exc:
                    return str(exc), calls

        got, solved = recorded(whole_matrix_kbest)
        want, ref_solved = recorded(reference_murty_kbest)
        if isinstance(want, str):
            assert got == want
            return
        assert [(s.sigma, c) for s, c in got] == \
            [(s.sigma, c) for s, c in want]
        # The reference also partitions the gamma-th solution.
        if len(want) == gamma:
            ref_solved = ref_solved[:-n_meas]
        no_dead_row = [(m, ok) for m, ok in ref_solved
                       if np.isfinite(m).any(axis=1).all()]
        assert not any(ok for m, ok in ref_solved
                       if not np.isfinite(m).any(axis=1).all())
        assert [m.tobytes() for m, _ in solved] == \
            [m.tobytes() for m, _ in no_dead_row]
        feasible = sum(ok for _, ok in ref_solved)
        if finite_births:
            # A child with a finite cell in every row is then feasible.
            assert len(solved) == feasible
        else:
            assert len(solved) >= feasible

    def test_more_rows_than_columns_is_infeasible(self):
        # linear_sum_assignment assigns only as many rows as there are
        # columns; the rest were left uninitialized, at a finite cost.
        assert association._solve_assignment(np.array([[1.0], [2.0]])) is None
        # Two forced rows on one landmark: a cluster of two rows and one
        # column.
        matrix = np.full((3, 5), np.inf)
        matrix[0, 0] = matrix[1, 0] = 1.0
        matrix[2, 1] = matrix[2, 4] = 0.5
        with pytest.raises(InfeasibleAssignmentError,
                           match="^no feasible assignment exists$"):
            murty_kbest(CostMatrix(matrix, 2), 3)

    def test_infeasible_row_raises(self):
        matrix = np.full((1, 2), np.inf)
        with pytest.raises(InfeasibleAssignmentError):
            murty_kbest(CostMatrix(matrix, 1), 2)


def reference_validate(sigma):
    """``AssociationVector.validate`` as it was before it read ``n_meas``
    once: one loop over all slots."""
    seen = []
    for t, entry in enumerate(sigma.sigma):
        if t < sigma.n_prior:
            if entry is None or entry < 0 or entry > sigma.n_meas:
                raise ValueError(f"bad prior-slot entry {entry!r}")
            if entry > 0:
                seen.append(entry)
        else:
            expected = t - sigma.n_prior + 1
            if entry is not None and entry != expected:
                raise ValueError(f"birth slot {t} must map to {expected}")
            if entry is not None:
                seen.append(entry)
    if sorted(seen) != list(range(1, sigma.n_meas + 1)):
        raise ValueError("each measurement must appear exactly once")


class TestAssociationVector:
    @settings(max_examples=500, deadline=None)
    @given(n_prior=st.integers(0, 4), entries=st.lists(
        st.one_of(st.none(), st.integers(-1, 6)), max_size=8))
    def test_validate_raises_what_the_reference_raises(self, n_prior,
                                                       entries):
        sigma = AssociationVector(n_prior, tuple(entries))
        results = []
        for check in (sigma.validate, lambda: reference_validate(sigma)):
            try:
                results.append(check())
            except (ValueError, TypeError) as exc:
                results.append((type(exc), str(exc)))
        assert results[0] == results[1]

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
