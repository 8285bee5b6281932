import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfslam.geometry import (
    LandmarkType,
    UEState,
    _wrap_scalar,
    measure,
    mirror_bs,
    wrap_angle,
)
from rfslam.motion import sensor_transition
from rfslam.sim import (
    _clamp_elevation,
    default_scenario,
    generate_measurements,
    load_scenario,
    save_scenario,
    scenario_to_dict,
    simulate_trajectory,
)

BS, VA, SP = LandmarkType.BS, LandmarkType.VA, LandmarkType.SP


class TestDefaultScenario:
    def test_reference_geometry(self):
        sc = default_scenario()
        assert np.allclose(sc.bs.position, [0.0, 0.0, 40.0])
        va_positions = sorted(tuple(va.position) for va, _ in sc.vas)
        assert va_positions == sorted([(200.0, 0.0, 40.0), (-200.0, 0.0, 40.0),
                                       (0.0, 200.0, 40.0), (0.0, -200.0, 40.0)])
        sp_positions = sorted(tuple(sp.position) for sp in sc.sps)
        assert sp_positions == sorted([(99.0, 0.0, 10.0), (-99.0, 0.0, 10.0),
                                       (0.0, 99.0, 10.0), (0.0, -99.0, 10.0)])

    def test_motion_and_noise_parameters(self):
        sc = default_scenario()
        assert sc.process_noise[3, 3] == pytest.approx(0.001)
        assert np.allclose(np.diag(sc.process_noise), [0.2, 0.2, 0.0, 0.001, 0.2])
        assert sc.ue_init.mean[4] == 300.0
        assert np.allclose(sc.ue_init.mean[:3], [70.7285, 0.0, 0.0])
        assert sc.ue_init.mean[3] == pytest.approx(math.pi / 2)
        assert sc.speed == 22.22
        assert sc.turn_rate == pytest.approx(math.pi / 10)
        assert sc.dt == 0.5
        assert sc.steps == 40

    def test_clutter_intensity_value(self):
        sc = default_scenario()
        assert sc.clutter_intensity == pytest.approx(
            1.0 / (4 * 200 * math.pi ** 4), rel=1e-12)
        assert sc.clutter_intensity == pytest.approx(1.2833e-5, rel=1e-3)

    def test_vas_consistent_with_planes(self):
        sc = default_scenario()
        for va, plane in sc.vas:
            assert np.allclose(
                mirror_bs(sc.bs.position, plane.point, plane.normal),
                va.position, atol=1e-12)


class TestTrajectory:
    def test_noiseless_matches_prediction_chain(self):
        sc = default_scenario()
        sc = replace(sc, process_noise=np.zeros((5, 5)))
        states = simulate_trajectory(sc)
        vec = sc.ue_init.mean.copy()
        for state in states[1:]:
            vec = sensor_transition(vec, sc.speed, sc.turn_rate, sc.dt)
            assert np.allclose(state.as_vector(), vec, atol=1e-12)

    def test_heading_increment_per_step(self):
        sc = replace(default_scenario(), process_noise=np.zeros((5, 5)))
        states = simulate_trajectory(sc)
        for a, b in zip(states, states[1:]):
            assert wrap_angle(b.heading - a.heading) == pytest.approx(
                math.pi / 20, abs=1e-12)

    def test_full_loop_in_40_steps(self):
        sc = replace(default_scenario(), process_noise=np.zeros((5, 5)))
        states = simulate_trajectory(sc)
        assert len(states) == 41
        # 40 * pi/20 = 2 pi: back to the start pose.
        assert states[-1].heading == pytest.approx(states[0].heading, abs=1e-9)
        assert np.allclose(states[-1].position, states[0].position, atol=1e-6)

    def test_seeded_determinism(self):
        sc = default_scenario(seed=123)
        a = simulate_trajectory(sc)
        b = simulate_trajectory(sc)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.as_vector(), sb.as_vector())

    def test_z_never_moves(self):
        sc = default_scenario(seed=5)
        for state in simulate_trajectory(sc):
            assert state.position[2] == 0.0


class TestGenerateMeasurements:
    def test_all_dead_gives_empty(self):
        sc = default_scenario()
        sc = replace(sc, p_detect={k: 0.0 for k in LandmarkType},
                     clutter_mean=0.0)
        rng = np.random.default_rng(0)
        ue = UEState.from_vector(sc.ue_init.mean)
        out = generate_measurements(ue, sc, rng)
        assert out.measurements == ()

    def test_noiseless_measurements_satisfy_measure(self):
        sc = default_scenario()
        sc = replace(sc, noise_std=np.full(5, 1e-9), clutter_mean=0.0,
                     p_detect={k: 0.999999999 for k in LandmarkType})
        rng = np.random.default_rng(1)
        ue = UEState.from_vector(sc.ue_init.mean)
        out = generate_measurements(ue, sc, rng)
        landmarks = sc.landmarks()
        assert len(out.measurements) > 0
        for meas, label in zip(out.measurements, out.labels):
            assert label >= 0
            z_true = measure(ue, landmarks[label], sc.bs.position)
            assert meas.z[0] == pytest.approx(z_true[0], abs=1e-7)
            for i in (1, 2, 3, 4):  # angles match modulo 2 pi
                assert wrap_angle(meas.z[i] - z_true[i]) == pytest.approx(
                    0.0, abs=1e-7)

    def test_empirical_bs_detection_rate(self):
        sc = default_scenario()
        sc = replace(sc, vas=(), sps=(), clutter_mean=0.0)
        rng = np.random.default_rng(2)
        ue = UEState.from_vector(sc.ue_init.mean)
        hits = sum(
            1 for _ in range(10000)
            if generate_measurements(ue, sc, rng).measurements)
        assert hits / 10000 == pytest.approx(0.9, abs=0.01)

    def test_clutter_poisson_statistics(self):
        sc = default_scenario()
        sc = replace(sc, p_detect={k: 0.0 for k in LandmarkType})
        rng = np.random.default_rng(3)
        ue = UEState.from_vector(sc.ue_init.mean)
        counts = np.array([
            len(generate_measurements(ue, sc, rng).measurements)
            for _ in range(10000)])
        assert counts.mean() == pytest.approx(1.0, abs=0.05)
        assert counts.var() == pytest.approx(1.0, abs=0.1)

    def test_clutter_within_measurement_space(self):
        sc = default_scenario()
        sc = replace(sc, p_detect={k: 0.0 for k in LandmarkType},
                     clutter_mean=5.0)
        rng = np.random.default_rng(4)
        ue = UEState.from_vector(sc.ue_init.mean)
        out = generate_measurements(ue, sc, rng)
        for meas in out.measurements:
            assert 0.0 <= meas.z[0] <= 200.0
            assert -math.pi < meas.z[1] <= math.pi
            assert -math.pi / 2 <= meas.z[2] <= math.pi / 2

    def test_same_seed_bit_identical(self):
        sc = default_scenario(seed=9)
        ue = UEState.from_vector(sc.ue_init.mean)
        a = generate_measurements(ue, sc, np.random.default_rng(42))
        b = generate_measurements(ue, sc, np.random.default_rng(42))
        assert a.labels == b.labels
        for ma, mb in zip(a.measurements, b.measurements):
            assert np.array_equal(ma.z, mb.z)

    def test_labels_align_with_sources(self):
        sc = default_scenario()
        rng = np.random.default_rng(6)
        ue = UEState.from_vector(sc.ue_init.mean)
        out = generate_measurements(ue, sc, rng)
        landmarks = sc.landmarks()
        for meas, label in zip(out.measurements, out.labels):
            if label < 0:
                continue
            z_true = measure(ue, landmarks[label], sc.bs.position)
            assert abs(meas.z[0] - z_true[0]) < 1.0  # within noise, not clutter


class TestScenarioIO:
    def test_round_trip(self, tmp_path):
        sc = default_scenario(seed=77)
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        sc2 = load_scenario(path)
        assert scenario_to_dict(sc2) == scenario_to_dict(sc)

    def test_left_out_keys_take_the_scenario_defaults(self, tmp_path):
        # A file without p_detect detects every type at 0.9, not never.
        doc = scenario_to_dict(default_scenario(seed=1))
        for key in ("p_detect", "fov_radius", "clutter_mean", "seed"):
            del doc[key]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        sc = load_scenario(path)
        assert sc.p_detect == {BS: 0.9, VA: 0.9, SP: 0.9}
        assert (sc.fov_radius, sc.clutter_mean, sc.seed) == (50.0, 1.0, 0)

    def test_partial_p_detect_rejected(self):
        with pytest.raises(ValueError, match="p_detect must name BS, VA and SP"):
            replace(default_scenario(), p_detect={VA: 0.9})


#: +-pi, +-pi/2 and the doubles one ulp to either side of each.
ANGLE_EDGES = [math.nextafter(edge, toward) for edge in
               (math.pi, -math.pi, math.pi / 2, -math.pi / 2)
               for toward in (-math.inf, math.inf)] + \
    [math.pi, -math.pi, math.pi / 2, -math.pi / 2, 0.0, -0.0]


class TestScalarAngleKernels:
    @given(a=st.sampled_from(ANGLE_EDGES) | st.floats(allow_nan=True,
                                                      allow_infinity=False))
    def test_bit_equal_to_the_array_expressions(self, a):
        # generate_measurements wraps and clamps one float at a time.
        def bits(x):
            return np.float64(x).tobytes()

        assert bits(_wrap_scalar(a)) == bits(wrap_angle(a))
        assert bits(_clamp_elevation(a)) == \
            bits(float(np.clip(a, -math.pi / 2, math.pi / 2)))
