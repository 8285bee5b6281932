import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_wrap
from hypothesis import given, settings
from hypothesis import strategies as st

from rfslam.cli import scenario_hash
from rfslam.density import GaussianComponent
from rfslam.geometry import (
    MIN_LEG,
    Landmark,
    LandmarkType,
    Measurement,
    Plane,
    UEState,
    measure,
    measurements_with_covariance,
    mirror_bs,
    wrap_angle,
)
from rfslam.motion import sensor_transition
from rfslam.sim import (
    SENSING_RANGE,
    MeasurementSet,
    Scenario,
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
        states = simulate_trajectory(sc, np.random.default_rng(sc.seed))
        vec = sc.ue_init.mean.copy()
        for state in states[1:]:
            vec = sensor_transition(vec, sc.speed, sc.turn_rate, sc.dt)
            assert np.allclose(state.as_vector(), vec, atol=1e-12)

    def test_heading_increment_per_step(self):
        sc = replace(default_scenario(), process_noise=np.zeros((5, 5)))
        states = simulate_trajectory(sc, np.random.default_rng(sc.seed))
        for a, b in zip(states, states[1:]):
            assert wrap_angle(b.heading - a.heading) == pytest.approx(
                math.pi / 20, abs=1e-12)

    def test_full_loop_in_40_steps(self):
        sc = replace(default_scenario(), process_noise=np.zeros((5, 5)))
        states = simulate_trajectory(sc, np.random.default_rng(sc.seed))
        assert len(states) == 41
        # 40 * pi/20 = 2 pi: back to the start pose.
        assert states[-1].heading == pytest.approx(states[0].heading, abs=1e-9)
        assert np.allclose(states[-1].position, states[0].position, atol=1e-6)

    def test_seeded_determinism(self):
        sc = default_scenario(seed=123)
        a = simulate_trajectory(sc, np.random.default_rng(sc.seed))
        b = simulate_trajectory(sc, np.random.default_rng(sc.seed))
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.as_vector(), sb.as_vector())

    def test_z_never_moves(self):
        sc = default_scenario(seed=5)
        for state in simulate_trajectory(sc, np.random.default_rng(sc.seed)):
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

    def test_a_path_the_geometry_cannot_form_is_missed(self):
        # Straight under the BS the direct path is vertical and has no
        # azimuth: it is missed, as the filter's predictions assume, while
        # the four VAs are seen and the SPs lie beyond the field of view.
        sc = replace(default_scenario(), clutter_mean=0.0,
                     p_detect={k: 1.0 for k in LandmarkType})
        ue = UEState([0.0, 0.0, 0.0], sc.ue_init.mean[3], sc.ue_init.mean[4])
        out = generate_measurements(ue, sc, np.random.default_rng(0))
        assert sorted(out.labels) == [1, 2, 3, 4]

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


def reference_detection_probability(ue, lm, scenario):
    """The simulator's detection rule for a path it can form: the type's
    ``p_detect``, or 0 for an SP beyond the field of view."""
    if lm.kind is LandmarkType.SP and np.linalg.norm(
            lm.position - ue.position) > scenario.fov_radius:
        return 0.0
    return scenario.p_detect[lm.kind]


def reference_generate_measurements(ue, scenario, rng):
    """``generate_measurements`` building and checking every measurement on
    its own."""
    cov = scenario.measurement_covariance()
    std = scenario.noise_std
    items = []
    for idx, lm in enumerate(scenario.landmarks()):
        pd = reference_detection_probability(ue, lm, scenario)
        if rng.uniform() >= pd:
            continue
        z = measure(ue, lm, scenario.bs.position)
        toa, aoa_az, aoa_el, aod_az, aod_el = (
            z + std * rng.standard_normal(5)).tolist()
        z = np.array([toa, reference_wrap(aoa_az), _clamp_elevation(aoa_el),
                      reference_wrap(aod_az), _clamp_elevation(aod_el)])
        items.append((Measurement(z, cov), idx))
    for _ in range(rng.poisson(scenario.clutter_mean)):
        z = np.array([
            rng.uniform(0.0, SENSING_RANGE),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi / 2, math.pi / 2),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-math.pi / 2, math.pi / 2),
        ])
        items.append((Measurement(z, cov), -1))
    order = rng.permutation(len(items))
    return MeasurementSet(
        measurements=tuple(items[i][0] for i in order),
        labels=tuple(items[i][1] for i in order))


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestSharedCovariance:
    """A step's measurements share one covariance, checked once."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), clutter=st.sampled_from(
        [0.0, 1.0, 10.0]), step=st.integers(0, 40))
    def test_bit_equal_to_one_check_per_measurement(self, seed, clutter,
                                                    step):
        sc = replace(default_scenario(seed=seed % 100), clutter_mean=clutter)
        ue = simulate_trajectory(sc, np.random.default_rng(seed))[step]
        got_rng, ref_rng = (np.random.default_rng([seed, 1]),
                            np.random.default_rng([seed, 1]))
        got = generate_measurements(ue, sc, got_rng)
        ref = reference_generate_measurements(ue, sc, ref_rng)
        assert got.labels == ref.labels
        assert len(got.measurements) == len(ref.measurements)
        for a, b in zip(got.measurements, ref.measurements):
            assert a.z.tobytes() == b.z.tobytes()
            assert a.covariance.tobytes() == b.covariance.tobytes()
        # The same draws, in the same order.
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_covariance_checked_once_per_scenario(self, monkeypatch):
        sc = replace(default_scenario(seed=1), clutter_mean=10.0)
        ue = UEState.from_vector(sc.ue_init.mean)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append(1) or eigvalsh(a))
        out = generate_measurements(ue, sc, np.random.default_rng(4))
        assert len(out.measurements) > 5 and not calls
        cov = sc.measurement_covariance()
        assert all(m.covariance is cov for m in out.measurements)
        assert not cov.flags.writeable
        assert cov.tobytes() == np.diag(sc.noise_std ** 2).tobytes()
        # It passes every check of a measurement built on its own.
        Measurement(np.zeros(5), cov)

    @pytest.mark.parametrize("std", [1e-200, 1e200, 1e-170, 1.5e154])
    def test_noise_squares_out_of_range_are_refused_by_the_scenario(
            self, std):
        # 1e-200 squares to 0.0 and 1e200 to inf, as do the others: no
        # measurement could be built with their covariance.
        with pytest.raises(ValueError, match="noise_std must square to "
                           "variances finite and > 0"):
            replace(default_scenario(seed=1),
                    noise_std=np.array([0.1, 0.005, std, 0.005, 0.005]))

    @pytest.mark.parametrize("std", [1e-150, 1e150])
    def test_noise_squares_in_range_are_kept(self, std):
        sc = replace(default_scenario(seed=1),
                     noise_std=np.array([std, 0.005, 0.005, 0.005, 0.005]))
        assert sc.measurement_covariance()[0, 0] == std * std

    @pytest.mark.parametrize("vectors, cov", [
        ([], np.eye(5)),
        ([np.zeros(5), np.ones(5)], np.eye(5)),
        ([np.zeros(5), [0.0, 1.0, np.nan, 0.0, 0.0]], np.eye(5)),
        ([np.zeros(5), [0.0, 1.0, 2.0, -np.inf, 0.0]], np.eye(5)),
        ([np.zeros(5), np.zeros(4)], np.eye(5)),
        ([np.zeros(5), np.zeros((5, 1))], np.eye(5)),
        ([[np.inf, 0, 0, 0, 0], np.zeros(5)], np.eye(5)),
        ([np.zeros(2), np.ones(2)], np.array([[1.0, 1e-12], [0.0, 1.0]])),
        ([np.zeros(3), [1, 2, 3]], 2.0 * np.eye(3))], ids=repr)
    def test_same_result_or_error_as_building_each(self, vectors, cov):
        def each(vectors, cov):
            return [Measurement(z, cov) for z in vectors]

        got = outcome(measurements_with_covariance, vectors, cov)
        ref = outcome(each, vectors, cov)
        if isinstance(ref, tuple):
            assert got == ref
            return
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert type(a) is Measurement
            assert a.z.dtype == b.z.dtype and a.z.tobytes() == b.z.tobytes()
            assert a.covariance.tobytes() == b.covariance.tobytes()


def _whole_as_int(doc):
    """``doc`` with every whole float except -0.0 written as a JSON int."""
    if type(doc) is dict:
        return {k: _whole_as_int(v) for k, v in doc.items()}
    if type(doc) is list:
        return [_whole_as_int(v) for v in doc]
    if type(doc) is float and doc.is_integer() and math.copysign(1, doc) > 0:
        return int(doc)
    return doc


def reals(lo, hi):
    """Finite floats in [lo, hi], often whole or a signed zero."""
    return (st.sampled_from([x for x in (-0.0, 0.0, 1.0, 3.0, -2.0)
                             if lo <= x <= hi])
            | st.floats(lo, hi))


def points():
    return st.lists(reals(-150.0, 150.0), min_size=3, max_size=3)


@st.composite
def scenarios(draw):
    """Valid scenarios: VAs mirrored across random walls, diagonal
    covariances, every scalar within its range, and no VA or SP at the BS
    (a wall through the BS mirrors it onto itself)."""
    bs = Landmark(BS, draw(points()))

    def apart(position):
        return np.linalg.norm(np.asarray(position) - bs.position) >= MIN_LEG

    vas = []
    for point, normal in draw(st.lists(st.tuples(points(), points()),
                                       max_size=4)):
        normal = np.array(normal)
        if np.linalg.norm(normal) < 1e-3:
            normal = np.array([0.0, -0.0, 1.0])
        plane = Plane(point, normal / np.linalg.norm(normal))
        va = mirror_bs(bs.position, plane.point, plane.normal)
        if apart(va):
            vas.append((Landmark(VA, va), plane))

    def diagonal():
        return np.diag(draw(st.lists(reals(0.0, 10.0), min_size=5,
                                     max_size=5)))

    return Scenario(
        bs=bs, vas=vas,
        sps=[Landmark(SP, p) for p in draw(st.lists(points(), max_size=4))
             if apart(p)],
        ue_init=GaussianComponent(
            draw(st.lists(reals(-300.0, 300.0), min_size=5, max_size=5)),
            diagonal()),
        process_noise=diagonal(),
        speed=draw(reals(-50.0, 50.0)), turn_rate=draw(reals(-3.0, 3.0)),
        dt=draw(reals(0.0, 2.0)), steps=draw(st.integers(1, 100)),
        noise_std=draw(st.lists(reals(1e-3, 10.0), min_size=5, max_size=5)),
        p_detect={kind: draw(reals(0.0, 1.0)) for kind in LandmarkType},
        fov_radius=draw(reals(1e-3, 500.0)),
        clutter_mean=draw(reals(0.0, 50.0)),
        seed=draw(st.integers(0, 2 ** 63)))


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

    @pytest.mark.parametrize("kind", [VA, SP])
    def test_landmark_at_the_bs_rejected(self, kind):
        # The threshold is the geometry's: 5e-13 m from the BS has no
        # BS-landmark direction, 2e-12 m has one.
        sc = default_scenario()

        def with_landmark(offset):
            position = sc.bs.position + [offset, 0.0, 0.0]
            if kind is SP:
                return replace(sc, sps=sc.sps + (Landmark(SP, position),))
            # The wall halfway between the BS and the VA.
            plane = Plane((sc.bs.position + position) / 2, [1.0, 0.0, 0.0])
            va = mirror_bs(sc.bs.position, plane.point, plane.normal)
            return replace(sc, vas=sc.vas + ((Landmark(VA, va), plane),))

        for offset in (0.0, 5e-13):
            with pytest.raises(ValueError, match=f"^{kind.value} at the BS "
                               "position .*direction is undefined$"):
                with_landmark(offset)
        changed = with_landmark(2e-12)
        landmark = changed.vas[-1][0] if kind is VA else changed.sps[-1]
        measure(UEState([70.0, 0.0, 0.0], 0.0, 300.0), landmark,
                sc.bs.position)

    def test_partial_p_detect_rejected(self):
        with pytest.raises(ValueError, match="p_detect must name BS, VA and SP"):
            replace(default_scenario(), p_detect={VA: 0.9})

    @pytest.mark.parametrize("field, value", [
        ("steps", 5.0), ("steps", True), ("seed", 1.5), ("seed", True)])
    def test_non_integer_steps_and_seed_rejected(self, field, value):
        # Each once built: steps 5.0 failed in run_single, steps True ran
        # one step, and a seed 1.5 or True was echoed as given.
        with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
            replace(default_scenario(seed=1, steps=5), **{field: value})

    def test_numpy_integer_steps_and_seed_saved_as_int(self):
        # Once kept as np.int64, which the JSON writer refuses.
        sc = replace(default_scenario(seed=1, steps=5), steps=np.int64(5),
                     seed=np.int64(2))
        doc = scenario_to_dict(sc)
        assert (doc["steps"], doc["seed"]) == (5, 2)
        assert json.loads(json.dumps(doc))["steps"] == 5

    @settings(max_examples=60, deadline=None)
    @given(scenario=scenarios())
    def test_random_round_trip(self, scenario):
        # JSON writes a whole float as 3.0; the loader must also read the 3
        # a hand-written file may hold as the float, or the hash changes.
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            save_scenario(scenario, path)
            for text in (path.read_text(),
                         json.dumps(_whole_as_int(scenario_to_dict(scenario)))):
                path.write_text(text)
                loaded = load_scenario(path)
                assert scenario_to_dict(loaded) == scenario_to_dict(scenario)
                assert scenario_hash(loaded) == scenario_hash(scenario)


#: +-pi, +-pi/2 and the doubles one ulp to either side of each.
ANGLE_EDGES = [math.nextafter(edge, toward) for edge in
               (math.pi, -math.pi, math.pi / 2, -math.pi / 2)
               for toward in (-math.inf, math.inf)] + \
    [math.pi, -math.pi, math.pi / 2, -math.pi / 2, 0.0, -0.0]


#: Angles to wrap: the edges, odd multiples of pi up to 1e6 in magnitude,
#: NaN and any float of magnitude up to 1e6.
WRAP_DRAWS = (
    st.sampled_from(ANGLE_EDGES + [k * math.pi for k in (-3, -2, 2, 3)])
    | st.integers(-159155, 159154).map(lambda k: (2 * k + 1) * math.pi)
    | st.just(math.nan) | st.floats(-1e6, 1e6))


class TestScalarAngleKernels:
    @given(a=st.sampled_from(ANGLE_EDGES) | st.floats(allow_nan=True,
                                                      allow_infinity=False))
    def test_bit_equal_to_the_array_expressions(self, a):
        # generate_measurements clamps one float at a time.
        def bits(x):
            return np.float64(x).tobytes()

        assert bits(_clamp_elevation(a)) == \
            bits(float(np.clip(a, -math.pi / 2, math.pi / 2)))

    @given(a=WRAP_DRAWS)
    def test_wrap_angle_bit_equal_in_every_form(self, a):
        # The array expression wrap_angle took before it served floats.
        want = (np.pi - np.mod(np.pi - np.array([a]), 2.0 * np.pi)).tobytes()
        wrapped = wrap_angle(a)
        assert type(wrapped) is float
        for got in (wrapped, wrap_angle(np.float64(a)),
                    wrap_angle(np.array([a]))):
            assert np.asarray(got, dtype=float).reshape(1).tobytes() == want
