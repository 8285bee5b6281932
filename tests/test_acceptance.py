"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The timing columns of the metrics CSV and the timing subtree of
the report are wall-clock measurements and are masked in the byte-identity
checks (criteria 5 and 10); everything else must match bit for bit.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from conftest import (
    LinearModel,
    assignment_cost,
    check_density,
    enumerate_associations,
    single_type_bernoulli,
)

from rfslam.association import AssociationVector, CostMatrix, murty_kbest
from rfslam.cli import (
    RunConfig,
    deterministic_metrics_view,
    deterministic_report_view,
    run,
)
from rfslam.density import GaussianComponent, GlobalHypothesis
from rfslam.geometry import Landmark, LandmarkType, Measurement, UEState, \
    measure, measure_jacobian, wrap_angle
from rfslam.metrics import GospaParams, gospa
from rfslam.reduction import align_hypotheses, average_conditionals, \
    tomb_recombine
from rfslam.update import EK_PMB, ChildParts, FilterConfig, joint_update

BS_POS = np.array([0.0, 0.0, 40.0])


def ok(n, text):
    print(f"[PASS] criterion {n}: {text}")


@pytest.fixture(scope="module")
def campaign_reports(tmp_path_factory):
    """The two 100-run campaigns shared by criteria 6 and 7."""
    base = tmp_path_factory.mktemp("campaigns")
    t0 = time.perf_counter()
    g10 = run(RunConfig(filter_kind=EK_PMB, gamma=10, mc_runs=100, seed=2026,
                        out_dir=str(base / "g10")))
    g1 = run(RunConfig(filter_kind=EK_PMB, gamma=1, mc_runs=100, seed=2026,
                       out_dir=str(base / "g1")))
    return g10, g1, time.perf_counter() - t0


class TestCriterion1MurtyOracle:
    def test_assignment_oracle(self):
        rng = np.random.default_rng(1001)
        t0 = time.perf_counter()
        for _ in range(200):
            n_meas = int(rng.integers(1, 5))
            n_prior = int(rng.integers(0, 6))
            matrix = np.full((n_meas, n_prior + n_meas), np.inf)
            matrix[:, :n_prior] = rng.normal(size=(n_meas, n_prior)) * 3.0
            matrix[:, n_prior:][np.eye(n_meas, dtype=bool)] = \
                rng.normal(size=n_meas) * 3.0
            sols = murty_kbest(CostMatrix(matrix, n_prior), 10)
            brute = sorted(
                (assignment_cost(matrix, s, n_prior), s)
                for s in enumerate_associations(n_prior, n_meas))
            assert len(sols) == min(10, len(brute))
            for (sigma, cost), (bcost, bsigma) in zip(sols, brute):
                assert abs(cost - bcost) <= 1e-9
            assert sorted(tuple(s.sigma) for s, _ in sols) == \
                sorted(bs for _, bs in brute[:len(sols)])
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0
        ok(1, f"murty_kbest matches exhaustive enumeration on 200 matrices "
              f"({elapsed:.2f} s)")


class TestCriterion2GospaOracle:
    @staticmethod
    def brute(est, tru, params):
        p = params.exponent
        penalty = params.cutoff ** p / params.alpha
        m, n = len(est), len(tru)
        best = math.inf
        for k in range(min(m, n) + 1):
            for idx in itertools.combinations(range(m), k):
                for perm in itertools.permutations(range(n), k):
                    total, valid = 0.0, True
                    for i, j in zip(idx, perm):
                        d = np.linalg.norm(np.asarray(est[i]) - np.asarray(tru[j]))
                        if d >= params.cutoff:
                            valid = False
                            break
                        total += d ** p
                    if valid:
                        total += penalty * ((m - k) + (n - k))
                        best = min(best, total)
        return best ** (1.0 / p)

    def test_gospa_oracle_and_plateaus(self):
        params = GospaParams()
        rng = np.random.default_rng(1002)
        t0 = time.perf_counter()
        for _ in range(200):
            m, n = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            est = rng.uniform(-40, 40, size=(m, 3))
            tru = rng.uniform(-40, 40, size=(n, 3))
            d, _ = gospa(est, tru, params)
            assert abs(d - self.brute(est, tru, params)) <= 1e-9
        elapsed = time.perf_counter() - t0
        truth = [[0.0, 0, 0], [50.0, 0, 0], [0.0, 50, 0]]
        d1, _ = gospa([], truth[:1], params)
        d2, _ = gospa([], truth[:2], params)
        d3, _ = gospa([], truth[:3], params)
        assert d1 == pytest.approx(14.1421, abs=1e-4)
        assert d2 == pytest.approx(20.0000, abs=1e-9)
        assert d3 == pytest.approx(24.4949, abs=1e-4)
        assert elapsed < 5.0
        ok(2, f"gospa matches brute force on 200 set pairs, plateaus "
              f"14.1421 / 20.0000 / 24.4949 exact ({elapsed:.2f} s)")


class TestCriterion3KalmanOracle:
    def test_joint_update_matches_conditioning(self):
        rng = np.random.default_rng(1003)
        worst = 0.0
        for _ in range(60):
            n_landmarks = int(rng.integers(1, 4))
            ds = int(rng.integers(1, 4))
            dz = int(rng.integers(1, 4))
            dx = int(rng.integers(1, 4))
            kinds, mats = [], {}
            for i, kind in zip(range(n_landmarks), LandmarkType):
                mats[kind] = (rng.normal(size=(dz, ds)),
                              rng.normal(size=(dz, dx)), rng.normal(size=dz))
                kinds.append(kind)
            model = LinearModel(mats, dz, p_detect=0.8)
            cov = rng.normal(size=(ds, ds))
            sensor = GaussianComponent(rng.normal(size=ds),
                                       cov @ cov.T + ds * np.eye(ds))
            berns = []
            for kind in kinds:
                dx = mats[kind][1].shape[1]
                c = rng.normal(size=(dx, dx))
                berns.append(single_type_bernoulli(
                    rng.uniform(0.5, 1.0), kind, rng.normal(size=dx),
                    c @ c.T + dx * np.eye(dx)))
            hyp = GlobalHypothesis(1.0, tuple(berns))
            cfg = FilterConfig(model=model, process_noise=np.zeros((5, 5)),
                               gate=None, type_prune=0.0)
            measurements = []
            for _ in range(n_landmarks):
                c = rng.normal(size=(dz, dz))
                measurements.append(Measurement(rng.normal(size=dz),
                                                c @ c.T + dz * np.eye(dz)))
            sigma = AssociationVector(
                n_landmarks, tuple(range(1, n_landmarks + 1))
                + (None,) * n_landmarks)
            parts = ChildParts(hyp, measurements, sensor, {}, cfg)
            child, sensor_post = joint_update(parts, sigma)
            # Closed-form conditioning oracle over the stacked joint state.
            dxs = [b.belief.types[k].mean.size for b, k in zip(berns, kinds)]
            n_state = ds + sum(dxs)
            mean0 = np.concatenate([sensor.mean] + [
                b.belief.types[k].mean for b, k in zip(berns, kinds)])
            cov0 = np.zeros((n_state, n_state))
            cov0[:ds, :ds] = sensor.covariance
            offs, slices = ds, []
            for b, k, dx in zip(berns, kinds, dxs):
                cov0[offs:offs + dx, offs:offs + dx] = \
                    b.belief.types[k].covariance
                slices.append(slice(offs, offs + dx))
                offs += dx
            H = np.zeros((dz * n_landmarks, n_state))
            R = np.zeros((dz * n_landmarks, dz * n_landmarks))
            z = np.zeros(dz * n_landmarks)
            offset = np.zeros(dz * n_landmarks)
            for i, k in enumerate(kinds):
                A, B, c = mats[k]
                rows = slice(i * dz, (i + 1) * dz)
                H[rows, :ds] = A
                H[rows, slices[i]] = B
                R[rows, rows] = measurements[i].covariance
                z[rows] = measurements[i].z
                offset[rows] = c
            S = H @ cov0 @ H.T + R
            K = cov0 @ H.T @ np.linalg.inv(S)
            mean_o = mean0 + K @ (z - H @ mean0 - offset)
            cov_o = cov0 - K @ S @ K.T
            scale_m = max(1.0, float(np.max(np.abs(mean_o))))
            scale_c = max(1.0, float(np.max(np.abs(cov_o))))
            worst = max(worst, float(np.max(np.abs(
                sensor_post.mean - mean_o[:ds]))) / scale_m)
            worst = max(worst, float(np.max(np.abs(
                sensor_post.covariance - cov_o[:ds, :ds]))) / scale_c)
            for i, (b, k) in enumerate(zip(child.bernoullis, kinds)):
                comp = b.belief.types[k]
                worst = max(worst, float(np.max(np.abs(
                    comp.mean - mean_o[slices[i]]))) / scale_m)
                worst = max(worst, float(np.max(np.abs(
                    comp.covariance - cov_o[slices[i], slices[i]]))) / scale_c)
        assert worst < 1e-10
        ok(3, f"joint_update matches closed-form conditioning "
              f"(max rel err {worst:.2e})")


class TestCriterion4Jacobian:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(1004)
        step = 1e-6
        worst = 0.0
        for kind in LandmarkType:
            for _ in range(100):
                while True:
                    u = np.array([rng.uniform(-80, 80), rng.uniform(-80, 80),
                                  0.0])
                    heading = rng.uniform(-np.pi, np.pi)
                    bias = rng.uniform(0, 400)
                    if kind is LandmarkType.BS:
                        pos = BS_POS
                    elif kind is LandmarkType.VA:
                        pos = np.array([rng.uniform(100, 250),
                                        rng.uniform(-200, 200),
                                        rng.uniform(10, 60)])
                    else:
                        pos = np.array([rng.uniform(-120, 120),
                                        rng.uniform(-120, 120),
                                        rng.uniform(2, 20)])
                    clear = (kind is LandmarkType.BS
                             or np.linalg.norm(pos - BS_POS) > 1.0)
                    if np.linalg.norm((pos - u)[:2]) > 1.0 and clear:
                        break
                ue = UEState(u, heading, bias)
                lm = Landmark(kind, pos)
                joint = np.concatenate([ue.as_vector(), lm.position])
                H = measure_jacobian(ue, lm, BS_POS)
                H_num = np.zeros_like(H)
                for c in range(8):
                    hi, lo = joint.copy(), joint.copy()
                    hi[c] += step
                    lo[c] -= step
                    z_hi = measure(UEState.from_vector(hi[:5]),
                                   Landmark(kind, hi[5:]), BS_POS)
                    z_lo = measure(UEState.from_vector(lo[:5]),
                                   Landmark(kind, lo[5:]), BS_POS)
                    H_num[:, c] = wrap_angle(z_hi - z_lo) / (2 * step)
                scale = np.maximum(np.abs(H_num), 1.0)
                worst = max(worst, float(np.max(np.abs(H - H_num) / scale)))
        assert worst < 1e-5
        ok(4, f"analytic Jacobians match central differences "
              f"(max rel err {worst:.2e} over 100 geometries per type)")


class TestCriterion5StructuralIdentity:
    def test_pmb_pmbm_gamma1_identical_metrics(self, tmp_path):
        a = run(RunConfig(filter_kind="ek-pmb", gamma=1, mc_runs=10, seed=77,
                          out_dir=str(tmp_path / "pmb")))
        b = run(RunConfig(filter_kind="ek-pmbm", gamma=1, mc_runs=10, seed=77,
                          out_dir=str(tmp_path / "pmbm")))
        va = deterministic_metrics_view(
            (tmp_path / "pmb" / "metrics.csv").read_text())
        vb = deterministic_metrics_view(
            (tmp_path / "pmbm" / "metrics.csv").read_text())
        assert va == vb
        ok(5, "EK-PMB(gamma=1) and EK-PMBM(gamma=1) metric CSVs byte-identical "
              "(wall-clock timing columns masked)")


class TestCriterion6FilterSanity:
    def test_trends(self, campaign_reports):
        g10, g1, elapsed = campaign_reports
        ps10 = g10["per_step"]
        va = ps10["gospa_va"]
        sp = ps10["gospa_sp"]
        # (a) VA mapping improves by at least half from step 5 to step 40.
        assert va[39] < 0.5 * va[4], (va[4], va[39])
        # (b) more associations never hurt the final VA map.
        assert va[39] <= g1["per_step"]["gospa_va"][39]
        # (c) the SP staircase: strictly decreasing mid-plateau probes.
        probes = [sp[4], sp[14], sp[24], sp[34]]
        assert probes[0] > probes[1] > probes[2] > probes[3], probes
        # (d) position RMSE inside the sanity band.
        assert g10["rmse"]["position"] < 0.5
        assert elapsed < 600.0
        ok(6, f"trends hold: VA GOSPA {va[4]:.2f}->{va[39]:.2f} m, "
              f"gamma ordering {va[39]:.2f}<={g1['per_step']['gospa_va'][39]:.2f}, "
              f"SP staircase {[round(p, 2) for p in probes]}, position RMSE "
              f"{g10['rmse']['position']:.3f} m ({elapsed:.0f} s for 200 runs)")


class TestCriterion7Timing:
    def test_order_of_magnitude(self, campaign_reports):
        g10, _, _ = campaign_reports
        timing = g10["timing"]
        assert timing["mean_ms_total"] < 100.0
        assert timing["mean_ms_update"] > timing["mean_ms_predict"]
        ok(7, f"EK-PMB(gamma=10) per-step mean {timing['mean_ms_total']:.2f} ms "
              f"(predict {timing['mean_ms_predict']:.3f}, update "
              f"{timing['mean_ms_update']:.2f})")


class TestCriterion8InvariantSuite:
    def test_invariants_every_step(self, monkeypatch):
        from rfslam import reduction
        from rfslam.cli import build_filter_config, initial_state
        from rfslam.sim import default_scenario, generate_measurements, \
            simulate_trajectory
        from rfslam.update import predict_step, update_step

        sc = default_scenario(seed=9)
        cfg = build_filter_config(sc, RunConfig(gamma=10, filter_kind=EK_PMB))
        rng = np.random.default_rng([9, 0])
        traj = simulate_trajectory(sc, rng)
        density, sensor = initial_state(sc)
        diag = {}
        recombine = reduction.tomb_recombine

        def recording(table):
            diag["beta_rows"] = [sum(c.beta for c in cells.values())
                                 for cells in table.cells]
            return recombine(table)

        monkeypatch.setattr(reduction, "tomb_recombine", recording)
        for k in range(1, 41):
            zset = generate_measurements(traj[k], sc, rng)
            dp, sp = predict_step(density, sensor, cfg)
            diag.clear()
            density, sensor = update_step(dp, sp, list(zset.measurements),
                                          cfg)
            check_density(density, tol=1e-9)
            for total in diag["beta_rows"]:
                assert abs(total - 1.0) <= 1e-9
        ok(8, "hypothesis weights, existence, type probabilities, covariance "
              "eigenvalues and beta rows valid after every one of 40 steps")


class TestCriterion9ReductionConservation:
    def test_conservation_against_exhaustive_marginals(self):
        import sys
        sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
        from test_reduction import build_pmbm, expected_count

        rng = np.random.default_rng(1009)
        for _ in range(100):
            n_prior = int(rng.integers(0, 4))
            n_meas = int(rng.integers(0, 4))
            density = build_pmbm(rng, n_prior, n_meas)
            table = average_conditionals(align_hypotheses(density))
            for t in range(n_prior + n_meas):
                for q, cell in table.cells[t].items():
                    brute = sum(h.weight for h in density.hypotheses
                                if h.assoc.sigma[t] == q)
                    assert abs(cell.beta - brute) <= 1e-12
            mb = tomb_recombine(table)
            total = sum(b.existence for b in mb.bernoullis)
            assert abs(total - expected_count(density)) <= 1e-9
        ok(9, "tomb_recombine conserves expected landmark count on 100 random "
              "PMBMs, marginals equal exhaustive computation")


class TestCriterion10Determinism:
    def test_bit_identical_runs(self, tmp_path):
        cfg_a = RunConfig(filter_kind=EK_PMB, gamma=3, mc_runs=4, seed=31,
                          out_dir=str(tmp_path / "a"))
        cfg_b = RunConfig(filter_kind=EK_PMB, gamma=3, mc_runs=4, seed=31,
                          out_dir=str(tmp_path / "b"))
        run(cfg_a)
        run(cfg_b)
        va = deterministic_metrics_view(
            (tmp_path / "a" / "metrics.csv").read_text())
        vb = deterministic_metrics_view(
            (tmp_path / "b" / "metrics.csv").read_text())
        assert va == vb
        ra = deterministic_report_view(
            json.loads((tmp_path / "a" / "report.json").read_text()))
        rb = deterministic_report_view(
            json.loads((tmp_path / "b" / "report.json").read_text()))
        assert json.dumps(ra, sort_keys=True).encode() == \
            json.dumps(rb, sort_keys=True).encode()
        for svg in ("gospa_vs_step.svg", "mae_vs_step.svg"):
            assert (tmp_path / "a" / svg).read_bytes() == \
                (tmp_path / "b" / svg).read_bytes()
        ok(10, "identical (config, seed) reproduce CSV/JSON/SVG outputs bit "
               "for bit (wall-clock timing masked)")
