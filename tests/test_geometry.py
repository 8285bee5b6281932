import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfslam import geometry
from rfslam.geometry import (
    ChannelModel,
    DegenerateGeometryError,
    Landmark,
    LandmarkType,
    Measurement,
    UEState,
    detection_probability,
    measure,
    measure_jacobian,
    mirror_bs,
    wrap_angle,
)

BS = np.array([0.0, 0.0, 40.0])


def random_geometry(rng, kind):
    """A random non-degenerate UE/landmark pair for the given kind."""
    while True:
        u = np.array([rng.uniform(-80, 80), rng.uniform(-80, 80), 0.0])
        heading = rng.uniform(-np.pi, np.pi)
        bias = rng.uniform(0, 400)
        if kind is LandmarkType.BS:
            pos = BS
        elif kind is LandmarkType.VA:
            pos = np.array([rng.uniform(100, 250), rng.uniform(-200, 200),
                            rng.uniform(10, 60)])
        else:
            pos = np.array([rng.uniform(-120, 120), rng.uniform(-120, 120),
                            rng.uniform(2, 20)])
        ue = UEState(u, heading, bias)
        lm = Landmark(kind, pos)
        horiz = np.linalg.norm((pos - u)[:2])
        clear_of_bs = kind is LandmarkType.BS or np.linalg.norm(pos - BS) > 1.0
        if horiz > 1.0 and clear_of_bs:
            return ue, lm


class TestWrapAngle:
    def test_half_open_interval(self):
        assert wrap_angle(np.pi) == pytest.approx(np.pi)
        assert wrap_angle(-np.pi) == pytest.approx(np.pi)
        assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)

    def test_idempotent_on_range(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-10, 10, size=200)
        w = wrap_angle(a)
        assert np.all(w > -np.pi) and np.all(w <= np.pi)
        assert np.allclose(wrap_angle(w), w)
        residual = np.mod(w - a, 2 * np.pi)
        assert np.all(np.minimum(residual, 2 * np.pi - residual) < 1e-9)


class TestMirrorBs:
    def test_wall_at_x_100(self):
        va = mirror_bs(BS, np.array([100.0, 0, 0]), np.array([1.0, 0, 0]))
        assert np.allclose(va, [200.0, 0.0, 40.0])

    def test_point_on_plane_fixed(self):
        va = mirror_bs(BS, np.array([0.0, 0, 40.0]), np.array([0.0, 0, 1.0]))
        assert np.allclose(va, BS)

    def test_involution_and_distance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.normal(size=3) * 50
            mu = rng.normal(size=3) * 20
            nu = rng.normal(size=3)
            nu /= np.linalg.norm(nu)
            q = mirror_bs(p, mu, nu)
            assert np.allclose(mirror_bs(q, mu, nu), p, atol=1e-9)
            assert abs(nu @ (p - mu)) == pytest.approx(abs(nu @ (q - mu)), abs=1e-9)

    def test_non_unit_normal_rejected(self):
        with pytest.raises(ValueError):
            mirror_bs(BS, np.zeros(3), np.array([1.0, 1.0, 0.0]))


class TestMeasure:
    def test_los_hand_example(self):
        ue = UEState([10.0, 0, 0], np.pi / 2, 0.0)
        z = measure(ue, Landmark(LandmarkType.BS, BS), BS)
        assert z[0] == pytest.approx(math.sqrt(1700.0), abs=1e-9)
        assert z[1] == pytest.approx(np.pi / 2, abs=1e-12)
        assert z[2] == pytest.approx(math.atan2(40.0, 10.0), abs=1e-12)
        assert z[3] == pytest.approx(0.0, abs=1e-12)
        assert z[4] == pytest.approx(math.atan2(-40.0, 10.0), abs=1e-12)

    def test_bias_shifts_only_toa(self):
        rng = np.random.default_rng(2)
        for kind in LandmarkType:
            ue, lm = random_geometry(rng, kind)
            z0 = measure(ue, lm, BS)
            shifted = UEState(ue.position, ue.heading, ue.clock_bias + 17.25)
            z1 = measure(shifted, lm, BS)
            assert z1[0] - z0[0] == pytest.approx(17.25, abs=1e-9)
            assert np.allclose(z1[1:], z0[1:])

    def test_va_path_by_explicit_ray_construction(self):
        # Intersect the VA->UE segment with the stored wall plane and sum the
        # two legs; this must equal the mirror-path length and the AOD must
        # point from the BS at the incidence point.
        rng = np.random.default_rng(3)
        for _ in range(25):
            mu = np.array([rng.uniform(90, 140), rng.uniform(-30, 30), 0.0])
            nu = np.array([1.0, 0.0, 0.0])
            va = mirror_bs(BS, mu, nu)
            ue, _ = random_geometry(rng, LandmarkType.BS)
            lm = Landmark(LandmarkType.VA, va)
            z = measure(ue, lm, BS)
            d = ue.position - va
            t = (nu @ (mu - va)) / (nu @ d)
            incidence = va + t * d
            assert 0.0 < t < 1.0
            legs = np.linalg.norm(incidence - BS) + np.linalg.norm(
                ue.position - incidence)
            assert z[0] - ue.clock_bias == pytest.approx(
                np.linalg.norm(va - ue.position), abs=1e-9)
            assert legs == pytest.approx(np.linalg.norm(va - ue.position), abs=1e-9)
            g = incidence - BS
            assert z[3] == pytest.approx(math.atan2(g[1], g[0]), abs=1e-9)
            assert z[4] == pytest.approx(
                math.atan2(g[2], np.linalg.norm(g[:2])), abs=1e-9)

    def test_sp_two_leg_path(self):
        ue = UEState([70.7285, 0, 0], 0.3, 5.0)
        sp = Landmark(LandmarkType.SP, [99.0, 0, 10.0])
        z = measure(ue, sp, BS)
        expected = (np.linalg.norm(sp.position - BS)
                    + np.linalg.norm(sp.position - ue.position) + 5.0)
        assert z[0] == pytest.approx(expected, abs=1e-9)

    def test_angle_ranges(self):
        rng = np.random.default_rng(4)
        for kind in LandmarkType:
            for _ in range(20):
                ue, lm = random_geometry(rng, kind)
                z = measure(ue, lm, BS)
                assert np.all(z[1:] > -np.pi) and np.all(z[1:] <= np.pi)
                assert -np.pi / 2 <= z[2] <= np.pi / 2
                assert -np.pi / 2 <= z[4] <= np.pi / 2

    def test_degenerate_geometry_raises(self):
        ue = UEState([0.0, 0, 40.0], 0.0, 0.0)
        with pytest.raises(DegenerateGeometryError):
            measure(ue, Landmark(LandmarkType.BS, BS), BS)


class TestMeasureJacobian:
    def test_exact_rows(self):
        rng = np.random.default_rng(5)
        for kind in LandmarkType:
            ue, lm = random_geometry(rng, kind)
            H = measure_jacobian(ue, lm, BS)
            assert H[0, 4] == 1.0
            assert H[1, 3] == -1.0
            assert np.all(H[[0, 2, 3, 4], 3] == 0.0)
            assert np.all(H[1:, 4] == 0.0)

    @pytest.mark.parametrize("kind", list(LandmarkType))
    def test_matches_central_finite_differences(self, kind):
        rng = np.random.default_rng(6)
        step = 1e-6
        worst = 0.0
        for _ in range(100):
            ue, lm = random_geometry(rng, kind)
            joint = np.concatenate([ue.as_vector(), lm.position])
            H = measure_jacobian(ue, lm, BS)
            H_num = np.zeros_like(H)
            for c in range(8):
                hi, lo = joint.copy(), joint.copy()
                hi[c] += step
                lo[c] -= step
                z_hi = measure(UEState.from_vector(hi[:5]),
                               Landmark(kind, hi[5:]), BS)
                z_lo = measure(UEState.from_vector(lo[:5]),
                               Landmark(kind, lo[5:]), BS)
                H_num[:, c] = wrap_angle(z_hi - z_lo) / (2 * step)
            scale = np.maximum(np.abs(H_num), 1.0)
            worst = max(worst, np.max(np.abs(H - H_num) / scale))
        assert worst < 1e-5


class TestDetectionProbability:
    def test_sp_inside_fov(self):
        ue = UEState([70.7285, 0, 0], 0.0, 0.0)
        sp = Landmark(LandmarkType.SP, [99.0, 0, 10.0])
        assert np.linalg.norm(sp.position - ue.position) == pytest.approx(30.0, abs=0.1)
        assert detection_probability(ue, sp, {LandmarkType.SP: 0.9},
                                     50.0) == pytest.approx(0.9)

    def test_sp_outside_fov(self):
        ue = UEState([70.7285, 0, 0], 0.0, 0.0)
        sp = Landmark(LandmarkType.SP, [-99.0, 0, 10.0])
        assert detection_probability(ue, sp, {LandmarkType.SP: 0.9},
                                     50.0) == 0.0

    def test_bs_and_va_always_visible(self):
        ue = UEState([70.7285, 0, 0], 0.0, 0.0)
        assert detection_probability(ue, Landmark(LandmarkType.BS, BS),
                                     {LandmarkType.BS: 0.9}, 50.0) == 0.9
        far_va = Landmark(LandmarkType.VA, [-200.0, 0, 40.0])
        assert detection_probability(ue, far_va, {LandmarkType.VA: 0.9},
                                     50.0) == 0.9


class TestChannelModel:
    def test_clamps_p_detect(self):
        model = ChannelModel(BS, p_detect={k: 1.0 for k in LandmarkType})
        assert model.p_detect[LandmarkType.BS] < 1.0

    def test_invert_los_recovers_position(self):
        rng = np.random.default_rng(7)
        model = ChannelModel(BS)
        for kind in (LandmarkType.BS, LandmarkType.VA):
            ue, lm = random_geometry(rng, kind)
            z = measure(ue, lm, BS)
            rec = model.invert(z, ue.as_vector(), kind)
            assert np.allclose(rec, lm.position, atol=1e-9)

    def test_invert_sp_recovers_position(self):
        rng = np.random.default_rng(8)
        model = ChannelModel(BS)
        for _ in range(25):
            ue, lm = random_geometry(rng, LandmarkType.SP)
            z = measure(ue, lm, BS)
            rec = model.invert(z, ue.as_vector(), LandmarkType.SP)
            assert rec is not None
            assert np.allclose(rec, lm.position, atol=1e-8)

    def test_invert_rejects_impossible_path(self):
        model = ChannelModel(BS)
        ue = UEState([10.0, 0, 0], 0.0, 300.0)
        z = np.array([200.0, 0.0, 0.0, 0.0, 0.0])  # path shorter than bias
        assert model.invert(z, ue.as_vector(), LandmarkType.BS) is None

    def test_wrap_residual_only_touches_angles(self):
        model = ChannelModel(BS)
        v = np.array([500.0, 2 * np.pi + 0.1, 0.0, -2 * np.pi - 0.2, 0.3])
        w = model.wrap_residual(v)
        assert w[0] == 500.0
        assert w[1] == pytest.approx(0.1)
        assert w[3] == pytest.approx(-0.2)


def invert_reference(model, z, ue, kind):
    """ChannelModel.invert written against a validated UEState."""
    path = z[0] - ue.clock_bias
    if path <= 0.0:
        return None
    if kind is LandmarkType.SP:
        az, el = z[3], z[4]
    else:
        az, el = z[1] + ue.heading, z[2]
    g = np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az),
                  math.sin(el)])
    if kind is not LandmarkType.SP:
        return ue.position + path * g
    w = model.bs_position - ue.position
    denom = 2.0 * (path + g @ w)
    if denom <= 1e-9:
        return None
    s = (path * path - float(w @ w)) / denom
    if s <= 0.0 or s >= path:
        return None
    return model.bs_position + s * g


class TestChannelModelRawPath:
    """The model methods take the raw sensor vector; they must give what the
    validated UEState/Landmark functions give, bit for bit."""

    @pytest.mark.parametrize("kind", list(LandmarkType))
    def test_bit_equal_to_validated_functions(self, kind):
        rng = np.random.default_rng(11)
        model = ChannelModel(BS, fov_radius=60.0)
        headings = [7.0, -4.0, np.pi, -np.pi, 13.5, -25.0,
                    *rng.uniform(-10.0, 10.0, size=6)]
        for heading in headings:
            ue0, lm = random_geometry(rng, kind)
            v = np.concatenate([ue0.position, [heading, ue0.clock_bias]])
            ue = UEState.from_vector(v)
            assert np.array_equal(model.predict(v, lm.position, kind),
                                  measure(ue, lm, BS))
            H = measure_jacobian(ue, lm, BS)
            H_s, H_x = model.jacobians(v, lm.position, kind)
            assert np.array_equal(H_s, H[:, :5])
            assert np.array_equal(H_x, H[:, 5:])
            assert model.detection_probability(v, lm.position, kind) == \
                detection_probability(ue, lm, model.p_detect, model.fov_radius)
            z = measure(ue, lm, BS) + rng.normal(0.0, 0.01, size=5)
            got = model.invert(z, v, kind)
            ref = invert_reference(model, z, ue, kind)
            assert (got is None) == (ref is None)
            if ref is not None:
                assert np.array_equal(got, ref)

    def test_non_finite_positions_raise(self):
        model = ChannelModel(BS)
        good = np.array([10.0, 5.0, 0.0, 7.0, 300.0])
        lm = np.array([60.0, 20.0, 10.0])
        for bad in (np.nan, np.inf):
            v = good.copy()
            v[1] = bad
            for call in (lambda: model.predict(v, lm, LandmarkType.SP),
                         lambda: model.jacobians(v, lm, LandmarkType.SP),
                         lambda: model.detection_probability(
                             v, lm, LandmarkType.SP),
                         lambda: model.invert(np.ones(5) * 400.0, v,
                                              LandmarkType.BS)):
                with pytest.raises(ValueError, match="UE position"):
                    call()
            x = lm.copy()
            x[2] = bad
            for call in (lambda: model.predict(good, x, LandmarkType.SP),
                         lambda: model.jacobians(good, x, LandmarkType.SP),
                         lambda: model.detection_probability(
                             good, x, LandmarkType.SP)):
                with pytest.raises(ValueError, match="landmark position"):
                    call()


def reference_finite_point(v, what):
    v = np.asarray(v, dtype=float)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise ValueError(f"{what} position must be a finite 3-vector")
    return v


def reference_angle_gradients(g):
    gx, gy, gz = g
    rho2 = gx * gx + gy * gy
    r2 = rho2 + gz * gz
    if rho2 < 1e-24:
        raise DegenerateGeometryError("vertical direction: azimuth undefined")
    rho = math.sqrt(rho2)
    d_az = np.array([-gy / rho2, gx / rho2, 0.0])
    d_el = np.array([-gx * gz / (rho * r2), -gy * gz / (rho * r2), rho / r2])
    return d_az, d_el


def reference_measure_jacobian(u, kind, x, bs_position):
    """The 5x8 Jacobian as computed before the kernel cuts: one norm per
    unit vector, fresh identities and outer products per term, and
    numpy-scalar arithmetic in the angle gradients."""
    H = np.zeros((5, 8))
    H[0, 4] = 1.0
    g_aoa, _ = geometry._direction(x - u, "UE-landmark")
    d_az, d_el = reference_angle_gradients(g_aoa)
    H[1, 0:3] = -d_az
    H[1, 5:8] = d_az
    H[1, 3] = -1.0
    H[2, 0:3] = -d_el
    H[2, 5:8] = d_el
    if kind is LandmarkType.BS:
        e = g_aoa / np.linalg.norm(g_aoa)
        H[0, 0:3] = -e
        H[0, 5:8] = e
        d_az2, d_el2 = reference_angle_gradients(u - x)
        H[3, 0:3] = d_az2
        H[3, 5:8] = -d_az2
        H[4, 0:3] = d_el2
        H[4, 5:8] = -d_el2
    elif kind is LandmarkType.VA:
        e = g_aoa / np.linalg.norm(g_aoa)
        H[0, 0:3] = -e
        H[0, 5:8] = e
        bs = np.asarray(bs_position, dtype=float)
        span_vec, span = geometry._direction(x - bs, "BS-VA")
        nu = span_vec / span
        R = np.eye(3) - 2.0 * np.outer(nu, nu)
        N = (np.eye(3) - np.outer(nu, nu)) / span
        d = u - x
        g_aod = R @ d
        dg_dx = -R - 2.0 * (nu @ d) * N - 2.0 * np.outer(nu, N @ d)
        d_az2, d_el2 = reference_angle_gradients(g_aod)
        H[3, 0:3] = d_az2 @ R
        H[3, 5:8] = d_az2 @ dg_dx
        H[4, 0:3] = d_el2 @ R
        H[4, 5:8] = d_el2 @ dg_dx
    else:
        bs = np.asarray(bs_position, dtype=float)
        leg1_vec, leg1 = geometry._direction(x - bs, "BS-SP")
        e1 = leg1_vec / leg1
        e2 = g_aoa / np.linalg.norm(g_aoa)
        H[0, 0:3] = -e2
        H[0, 5:8] = e1 + e2
        d_az2, d_el2 = reference_angle_gradients(x - bs)
        H[3, 5:8] = d_az2
        H[4, 5:8] = d_el2
    return H


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the exception it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def reference_measure(u, heading, bias, kind, x, bs_position):
    """The prediction before the float kernels: the VA mirror as array
    arithmetic, and azimuth and elevation from indexed numpy scalars."""
    def azimuth_elevation(g):
        rho = math.hypot(g[0], g[1])
        if rho < 1e-12:
            raise DegenerateGeometryError(
                "vertical direction: azimuth undefined")
        return math.atan2(g[1], g[0]), math.atan2(g[2], rho)

    g, n, d, b, span, nu = geometry._legs(u, kind, x, bs_position)
    if kind is LandmarkType.BS:
        path, g_aod = n, d
    elif kind is LandmarkType.VA:
        path, g_aod = n, d - 2.0 * nu * (nu @ d)
    else:
        path, g_aod = span + n, b
    aoa_az, aoa_el = azimuth_elevation(g)
    aod_az, aod_el = azimuth_elevation(g_aod)
    return np.array([path + bias, geometry._wrap_scalar(aoa_az - heading),
                     aoa_el, aod_az, aod_el])


#: Horizontal offsets of a near-vertical direction: zero, both sides of the
#: 1e-12 length threshold of the angles and of the 1e-24 squared one of
#: their gradients, and clear of both.
NEAR_VERTICAL = (st.sampled_from([0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-6])
                 | st.floats(5e-13, 2e-12))


@st.composite
def kernel_case(draw, kind):
    """(sensor vector, landmark position) for ``kind``: generic geometry, a
    BS at its own position, or the UE-landmark or BS-landmark direction
    near vertical, never of zero length."""
    u = np.array([draw(st.floats(-80.0, 80.0)), draw(st.floats(-80.0, 80.0)),
                  draw(st.sampled_from([0.0, 1.5]))])
    v = np.concatenate([u, [draw(st.floats(-30.0, 30.0)),
                            draw(st.floats(0.0, 400.0))]])
    shape = draw(st.sampled_from(
        ["generic", "above UE", "above BS"]
        + (["BS"] if kind is LandmarkType.BS else [])))
    if shape == "generic":
        x = np.array([draw(st.floats(-150.0, 250.0)),
                      draw(st.floats(-200.0, 200.0)),
                      draw(st.floats(2.0, 60.0))])
    elif shape == "BS":
        x = BS.copy()
    else:
        base = u if shape == "above UE" else BS
        x = base + np.array([draw(NEAR_VERTICAL), draw(NEAR_VERTICAL),
                             draw(st.sampled_from([25.0, -12.0, 1e-3]))])
    return v, x


def same_bits(got, ref):
    """Equal outcomes: the same exception, or arrays of equal bytes (a
    signed zero counts) and shape."""
    if isinstance(ref, tuple):
        return got == ref
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestKernelReference:
    """The linearization kernels give the bits of the reference copies."""

    @pytest.mark.parametrize("kind", list(LandmarkType))
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_predict_and_jacobians_bit_equal(self, kind, data):
        v, x = data.draw(kernel_case(kind))
        # A FOV that sees every SP, so linearize gives every part.
        model = ChannelModel(BS, fov_radius=1e9)
        u = reference_finite_point(v[:3], "UE")
        x = reference_finite_point(x, "landmark")
        ref_h = outcome(reference_measure_jacobian, u, kind, x, BS)
        ref_z = outcome(reference_measure, u, geometry._wrap_scalar(v[3]),
                        float(v[4]), kind, x, BS)
        jac = outcome(model.jacobians, v, x, kind)
        if isinstance(ref_h, tuple):
            assert jac == ref_h
        else:
            assert same_bits(jac[0], ref_h[:, :5])
            assert same_bits(jac[1], ref_h[:, 5:])
        assert same_bits(outcome(model.predict, v, x, kind), ref_z)
        lin = outcome(model.linearize, v, x, kind)
        if isinstance(ref_z, tuple) or isinstance(ref_h, tuple):
            assert lin == (ref_z if isinstance(ref_z, tuple) else ref_h)
            return
        pd, z_pred, H_s, H_x = lin
        assert pd == model.p_detect[kind]
        assert same_bits(z_pred, ref_z)
        assert same_bits(H_s, ref_h[:, :5]) and same_bits(H_x, ref_h[:, 5:])

    def test_vertical_direction_still_raises(self):
        model = ChannelModel(BS)
        v = np.array([10.0, -5.0, 0.0, 0.3, 200.0])
        for kind in LandmarkType:
            with pytest.raises(DegenerateGeometryError):
                model.jacobians(v, v[:3] + np.array([0.0, 0.0, 20.0]), kind)

    @pytest.mark.parametrize("value", [
        [1.0, 2.0, 3.0], (0, -1, 5), np.array([1e308, -1e308, 0.0]),
        [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf],
        [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]], 5.0, [],
        np.ones((3, 1))], ids=repr)
    def test_finite_point_rejects_what_the_reference_rejects(self, value):
        got = outcome(geometry._finite_point, value, "UE")
        ref = outcome(reference_finite_point, value, "UE")
        if isinstance(ref, tuple):
            assert got == ref
        else:
            assert np.array_equal(got, ref) and got.dtype == ref.dtype


def per_part_outcome(model, v, x, kind):
    """``(p_detect, z_pred, H_s, H_x)`` from the three one-part methods in
    the order the filter called them before ``linearize``, or the type and
    message of the first exception."""
    try:
        pd = model.detection_probability(v, x, kind)
        z_pred = model.predict(v, x, kind)
        H_s, H_x = model.jacobians(v, x, kind)
    except ValueError as exc:
        return type(exc), str(exc)
    return pd, z_pred, H_s, H_x


@st.composite
def linearize_case(draw):
    """(model, sensor vector, landmark position, kind) over generic and
    edge geometries."""
    kind = draw(st.sampled_from(list(LandmarkType)))
    u = np.array([draw(st.integers(-80, 80)), draw(st.integers(-80, 80)),
                  draw(st.sampled_from([0.0, 1.5]))], dtype=float)
    heading = draw(st.floats(-30.0, 30.0))
    bias = draw(st.floats(0.0, 400.0))
    shape = draw(st.sampled_from(
        ["generic", "fov", "above UE", "above BS", "non-finite UE",
         "non-finite landmark"]))
    fov = 50.0
    if shape in ("above UE", "above BS"):
        base = u if shape == "above UE" else BS
        x = base + np.array([draw(NEAR_VERTICAL), draw(NEAR_VERTICAL),
                             draw(st.sampled_from([0.0, 25.0, -12.0]))])
    else:
        x = np.array([draw(st.floats(-150.0, 250.0)),
                      draw(st.floats(-200.0, 200.0)),
                      draw(st.floats(0.0, 60.0))])
    if shape == "fov":
        # The SP at, just inside or just outside the field of view.
        dist = float(np.linalg.norm(x - u))
        fov = draw(st.sampled_from([dist, math.nextafter(dist, 0.0),
                                    math.nextafter(dist, math.inf)]))
    v = np.concatenate([u, [heading, bias]])
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if shape == "non-finite UE":
        v[draw(st.integers(0, 2))] = bad
    elif shape == "non-finite landmark":
        x[draw(st.integers(0, 2))] = bad
    return ChannelModel(BS, fov_radius=fov), v, x, kind


class TestLinearize:
    @settings(max_examples=1500, deadline=None)
    @given(case=linearize_case())
    def test_bit_equal_to_the_one_part_methods(self, case):
        # A pair the sensor can see gives the one-part methods' bits; a
        # hidden one gives no prediction, unless a check made before the
        # visibility (non-finite input, zero-length leg) raises.
        model, v, x, kind = case
        got = outcome(model.linearize, v, x, kind)
        ref = per_part_outcome(model, v, x, kind)
        raised_first = len(ref) == 2 and not ref[1].startswith("vertical")
        if not raised_first and model.detection_probability(v, x, kind) == 0.0:
            assert got == (0.0, None, None, None) and type(got[0]) is float
            return
        if len(ref) == 2:
            assert got == ref
            return
        assert len(got) == 4
        assert type(got[0]) is type(ref[0]) and got[0] == ref[0]
        for a, b in zip(got[1:], ref[1:]):
            assert a.shape == b.shape and np.array_equal(a, b)

    def test_edge_cases_are_reached(self):
        # The strategy's edge shapes give every outcome the comparison
        # covers: visible and hidden SPs at the FOV edge, a hidden SP in a
        # vertical direction, both degeneracy messages, and both non-finite
        # messages.
        model = ChannelModel(BS, fov_radius=50.0)
        v = np.array([10.0, -5.0, 0.0, 9.0, 300.0])
        x = v[:3] + np.array([30.0, 40.0, 0.0])   # 50 m away, exactly
        assert model.linearize(v, x, LandmarkType.SP)[0] == 0.9
        nearer = ChannelModel(BS, fov_radius=math.nextafter(50.0, 0.0))
        assert nearer.linearize(v, x, LandmarkType.SP) == \
            (0.0, None, None, None)
        above = v[:3] + np.array([0.0, 0.0, 60.0])   # straight up, hidden
        assert per_part_outcome(model, v, above, LandmarkType.SP) == \
            (DegenerateGeometryError, "vertical direction: azimuth undefined")
        assert model.linearize(v, above, LandmarkType.SP) == \
            (0.0, None, None, None)
        for kind, x, message in (
                (LandmarkType.VA, v[:3] + [1e-13, 0.0, 25.0],
                 "vertical direction: azimuth undefined"),
                (LandmarkType.SP, v[:3].copy(), "zero-length UE-SP direction"),
                (LandmarkType.SP, BS.copy(), "zero-length BS-SP direction")):
            assert outcome(model.linearize, v, x, kind) == \
                per_part_outcome(model, v, x, kind) == \
                (DegenerateGeometryError, message)
        for i, what in ((0, "UE"), (5, "landmark")):
            w, y = v.copy(), np.array([60.0, 20.0, 10.0])
            if i < 5:
                w[i] = np.nan
            else:
                y[0] = np.inf
            assert outcome(model.linearize, w, y, LandmarkType.BS) == \
                per_part_outcome(model, w, y, LandmarkType.BS) == \
                (ValueError, f"{what} position must be a finite 3-vector")


class TestMeasurementType:
    def test_validates_covariance(self):
        with pytest.raises(ValueError):
            Measurement(np.zeros(5), np.diag([1.0, 1, 1, 1, -1.0]))
        bad = np.eye(5)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            Measurement(np.zeros(5), bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        z = np.zeros(5)
        z[2] = bad
        with pytest.raises(ValueError, match="finite"):
            Measurement(z, np.eye(5))
        cov = np.eye(5)
        cov[1, 1] = bad   # inf - inf is NaN, which no symmetry check catches
        with pytest.raises(ValueError, match="finite"):
            Measurement(np.zeros(5), cov)
