import itertools
import math

import numpy as np
import pytest
from conftest import single_type_bernoulli

from rfslam.density import GlobalHypothesis, PmbmDensity
from rfslam.geometry import LandmarkType
from rfslam.metrics import GospaParams, extract_map, gospa, mae_per_step, rmse

VA, SP = LandmarkType.VA, LandmarkType.SP


def brute_force_gospa(est, tru, params):
    """Exhaustive minimization over all partial assignments."""
    est, tru = list(est), list(tru)
    p = params.exponent
    penalty = params.cutoff ** p / params.alpha
    best = math.inf
    m, n = len(est), len(tru)
    for k in range(min(m, n) + 1):
        for est_idx in itertools.combinations(range(m), k):
            for tru_perm in itertools.permutations(range(n), k):
                total = 0.0
                ok = True
                for i, j in zip(est_idx, tru_perm):
                    d = np.linalg.norm(np.asarray(est[i]) - np.asarray(tru[j]))
                    if d >= params.cutoff:
                        ok = False
                        break
                    total += d ** p
                if not ok:
                    continue
                total += penalty * ((m - k) + (n - k))
                best = min(best, total)
    return best ** (1.0 / p)


class TestGospa:
    def test_both_empty(self):
        d, parts = gospa([], [])
        assert d == 0.0
        assert parts == {"localization": 0.0, "missed": 0.0, "false": 0.0}

    def test_missed_landmark_plateau_values(self):
        truth = [[0.0, 0.0, 0.0]]
        d1, parts = gospa([], truth)
        assert d1 == pytest.approx(math.sqrt(400.0 / 2.0), abs=1e-12)
        assert d1 == pytest.approx(14.1421, abs=1e-3)
        assert parts["missed"] == pytest.approx(200.0)
        d2, _ = gospa([], [[0.0, 0, 0], [1.0, 0, 0]])
        assert d2 == pytest.approx(20.0, abs=1e-9)
        d3, _ = gospa([], [[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        assert d3 == pytest.approx(math.sqrt(3 * 200.0), abs=1e-12)
        assert d3 == pytest.approx(24.4949, abs=1e-3)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            est = rng.normal(size=(rng.integers(0, 4), 3)) * 10
            tru = rng.normal(size=(rng.integers(0, 4), 3)) * 10
            da, _ = gospa(est, tru)
            db, _ = gospa(tru, est)
            assert da == pytest.approx(db, abs=1e-12)

    def test_zero_iff_equal_sets(self):
        pts = np.array([[1.0, 2, 3], [-4.0, 0, 1]])
        d, _ = gospa(pts, pts[::-1])
        assert d == pytest.approx(0.0, abs=1e-12)
        d2, _ = gospa(pts, pts + 0.1)
        assert d2 > 0.0

    def test_large_cutoff_equal_cardinality_is_assignment_norm(self):
        rng = np.random.default_rng(1)
        params = GospaParams(cutoff=1e9, alpha=2.0, exponent=2.0)
        est = rng.normal(size=(3, 3))
        tru = rng.normal(size=(3, 3))
        d, parts = gospa(est, tru, params)
        best = min(
            math.sqrt(sum(
                np.linalg.norm(est[i] - tru[j]) ** 2
                for i, j in zip(range(3), perm)))
            for perm in itertools.permutations(range(3)))
        assert d == pytest.approx(best, abs=1e-9)
        assert parts["missed"] == 0.0 and parts["false"] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        params = GospaParams()
        for _ in range(100):
            m, n = rng.integers(0, 5), rng.integers(0, 5)
            est = rng.uniform(-30, 30, size=(m, 3))
            tru = rng.uniform(-30, 30, size=(n, 3))
            d, _ = gospa(est, tru, params)
            assert d == pytest.approx(brute_force_gospa(est, tru, params),
                                      abs=1e-9)

    def test_beyond_cutoff_never_assigned(self):
        d, parts = gospa([[100.0, 0, 0]], [[0.0, 0, 0]])
        assert parts["localization"] == 0.0
        assert parts["missed"] == pytest.approx(200.0)
        assert parts["false"] == pytest.approx(200.0)
        assert d == pytest.approx(20.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GospaParams(cutoff=0.0)
        with pytest.raises(ValueError):
            GospaParams(alpha=3.0)
        with pytest.raises(ValueError):
            GospaParams(exponent=0.5)

    @pytest.mark.parametrize("field, value", [
        ("cutoff", math.nan), ("cutoff", math.inf),
        ("exponent", math.nan), ("exponent", math.inf)])
    def test_non_finite_params_refused(self, field, value):
        # A NaN once passed and made gospa raise scipy's "invalid numeric
        # entries"; an infinite cutoff made it return NaN.
        with pytest.raises(ValueError, match="invalid GOSPA parameters"):
            GospaParams(**{field: value})


class TestExtractMap:
    def test_empty_density(self):
        density = PmbmDensity({VA: 0.0}, (GlobalHypothesis(1.0, ()),))
        assert extract_map(density, 0.5) == []

    def test_single_bernoulli(self):
        bern = single_type_bernoulli(0.9, VA, [1.0, 2, 3], np.eye(3))
        density = PmbmDensity({VA: 0.0}, (GlobalHypothesis(1.0, (bern,)),))
        out = extract_map(density, 0.5)
        assert len(out) == 1
        pos, kind = out[0]
        assert np.allclose(pos, [1.0, 2, 3])
        assert kind is VA

    def test_threshold_boundary(self):
        below = single_type_bernoulli(0.4999, VA, [0.0, 0, 0], np.eye(3))
        at = single_type_bernoulli(0.5, SP, [1.0, 0, 0], np.eye(3))
        density = PmbmDensity({VA: 0.0},
                              (GlobalHypothesis(1.0, (below, at)),))
        out = extract_map(density, 0.5)
        assert len(out) == 1
        assert out[0][1] is SP

    def test_uses_highest_weight_hypothesis(self):
        a = single_type_bernoulli(0.9, VA, [0.0, 0, 0], np.eye(3))
        b = single_type_bernoulli(0.9, SP, [5.0, 0, 0], np.eye(3))
        density = PmbmDensity({VA: 0.0}, (
            GlobalHypothesis(0.3, (a,)), GlobalHypothesis(0.7, (b,))))
        out = extract_map(density, 0.5)
        assert len(out) == 1
        assert out[0][1] is SP


class TestErrorMetrics:
    def test_constant_error(self):
        assert rmse([2.0, 2.0, 2.0]) == pytest.approx(2.0)
        assert mae_per_step([[2.0, 2.0]])[0] == pytest.approx(2.0)

    def test_three_four(self):
        assert rmse([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
        assert np.mean(np.abs([3.0, 4.0])) == pytest.approx(3.5)

    def test_mae_shape(self):
        errors = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        out = mae_per_step(errors)
        assert out.shape == (3,)
        assert np.allclose(out, [2.0, 2.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([])
