import math

import numpy as np
import pytest
from conftest import invert_one, reference_wrap
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
    measure,
    measure_all,
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
    """The field of view: ``measure_all`` leaves out an SP beyond it, which
    the simulator then misses, and ``ChannelModel`` gives it p_detect 0."""

    UE = UEState([70.7285, 0, 0], 0.0, 0.0)
    MODEL = ChannelModel(BS, {k: 0.9 for k in LandmarkType}, 50.0)

    def visible(self, lm):
        z, = measure_all(self.UE, [lm], BS, 50.0)
        pd = self.MODEL.detection_probability(self.UE.as_vector(),
                                              lm.position, lm.kind)
        assert (z is not None) == (pd > 0.0)
        return pd

    def test_sp_inside_fov(self):
        sp = Landmark(LandmarkType.SP, [99.0, 0, 10.0])
        assert np.linalg.norm(sp.position - self.UE.position) == \
            pytest.approx(30.0, abs=0.1)
        assert self.visible(sp) == pytest.approx(0.9)

    def test_sp_outside_fov(self):
        assert self.visible(Landmark(LandmarkType.SP, [-99.0, 0, 10.0])) == 0.0

    def test_bs_and_va_always_visible(self):
        assert self.visible(Landmark(LandmarkType.BS, BS)) == 0.9
        assert self.visible(Landmark(LandmarkType.VA, [-200.0, 0, 40.0])) \
            == 0.9


class TestChannelModel:
    def test_clamps_p_detect(self):
        model = ChannelModel(BS, p_detect={k: 1.0 for k in LandmarkType})
        assert model.p_detect[LandmarkType.BS] < 1.0

    @pytest.mark.parametrize("value", [-0.2, math.nan, 1.5, -math.inf,
                                       math.inf], ids=repr)
    def test_rejects_p_detect_outside_unit_interval(self, value):
        # A negative rate would grow the PPP under thinning, and a NaN one
        # would make it NaN.
        p_detect = {LandmarkType.BS: 0.9, LandmarkType.VA: value,
                    LandmarkType.SP: 0.9}
        with pytest.raises(ValueError, match=r"p_detect must be in \[0, 1\]"):
            ChannelModel(BS, p_detect=p_detect)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, -math.inf],
                             ids=repr)
    def test_rejects_fov_radius_that_is_not_positive(self, value):
        with pytest.raises(ValueError, match="fov_radius must be > 0"):
            ChannelModel(BS, fov_radius=value)

    def test_accepts_unit_interval_and_infinite_fov(self):
        model = ChannelModel(BS, p_detect={LandmarkType.BS: 0.0,
                                           LandmarkType.VA: 1.0},
                             fov_radius=math.inf)
        assert model.p_detect == {LandmarkType.BS: 0.0,
                                  LandmarkType.VA: geometry.MAX_P_DETECT}
        assert model.fov_radius == math.inf

    def test_invert_los_recovers_position(self):
        rng = np.random.default_rng(7)
        model = ChannelModel(BS)
        for kind in (LandmarkType.BS, LandmarkType.VA):
            ue, lm = random_geometry(rng, kind)
            z = measure(ue, lm, BS)
            rec = invert_one(model, z, ue.as_vector(), kind)
            assert np.allclose(rec, lm.position, atol=1e-9)

    def test_invert_sp_recovers_position(self):
        rng = np.random.default_rng(8)
        model = ChannelModel(BS)
        for _ in range(25):
            ue, lm = random_geometry(rng, LandmarkType.SP)
            z = measure(ue, lm, BS)
            rec = invert_one(model, z, ue.as_vector(), LandmarkType.SP)
            assert rec is not None
            assert np.allclose(rec, lm.position, atol=1e-8)

    def test_invert_rejects_impossible_path(self):
        model = ChannelModel(BS)
        ue = UEState([10.0, 0, 0], 0.0, 300.0)
        z = np.array([200.0, 0.0, 0.0, 0.0, 0.0])  # path shorter than bias
        assert invert_one(model, z, ue.as_vector(), LandmarkType.BS) is None

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


# The per-row kernels that the stacked ``geometry._channel`` replaced, kept
# as its bit reference: one (UE, landmark) pair at a time, element-wise
# work on Python floats, and the numpy dot and matrix-vector products of
# the VA Jacobian on 1-D and 2-D operands.

def row_direction(v, what):
    n = math.sqrt(v.dot(v))
    if n < geometry.MIN_LEG:
        raise DegenerateGeometryError(f"zero-length {what} direction")
    return v, n


def row_azimuth_elevation(gx, gy, gz):
    rho = math.hypot(gx, gy)
    if rho < 1e-12:
        raise DegenerateGeometryError("vertical direction: azimuth undefined")
    return math.atan2(gy, gx), math.atan2(gz, rho)


def row_angle_gradients(gx, gy, gz):
    rho2 = gx * gx + gy * gy
    r2 = rho2 + gz * gz
    if rho2 < 1e-24:
        raise DegenerateGeometryError("vertical direction: azimuth undefined")
    rho = math.sqrt(rho2)
    rho_r2 = rho * r2
    return ((-gy / rho2, gx / rho2, 0.0),
            (-gx * gz / rho_r2, -gy * gz / rho_r2, rho / r2))


ROW_LEG_NAMES = {LandmarkType.VA: ("UE-VA", "BS-VA"),
                 LandmarkType.SP: ("UE-SP", "BS-SP")}


def row_legs(u, kind, x, bs_position):
    """``(g, n, d, b, span, nu)`` of one path (None for the BS's last
    three)."""
    if kind is LandmarkType.BS:
        g, n = row_direction(x - u, "UE-BS")
        return g, n, u - x, None, None, None
    names = ROW_LEG_NAMES[kind]
    g, n = row_direction(x - u, names[0])
    b, span = row_direction(x - np.asarray(bs_position, dtype=float),
                            names[1])
    return g, n, u - x, b, span, b / span


def row_prediction(heading, bias, kind, legs):
    g, n, d, b, span, nu = legs
    if kind is LandmarkType.BS:
        path, g_aod = n, d.tolist()
    elif kind is LandmarkType.VA:
        s = float(nu @ d)
        path = n
        g_aod = [di - 2.0 * ni * s for di, ni in zip(d.tolist(), nu.tolist())]
    else:
        path, g_aod = span + n, b.tolist()
    aoa_az, aoa_el = row_azimuth_elevation(*g.tolist())
    aod_az, aod_el = row_azimuth_elevation(*g_aod)
    return np.array([path + bias, reference_wrap(aoa_az - heading),
                     aoa_el, aod_az, aod_el])


ROW_EYE3_FLAT = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def row_matrix(values, rows):
    return np.array(values).reshape(rows, -1)


def row_jacobian(kind, legs):
    """The 5x8 Jacobian of :func:`row_prediction` from the same legs."""
    g, n, d, b, span, nu = legs
    gx, gy, gz = g.tolist()
    ex, ey, ez = gx / n, gy / n, gz / n
    (ax, ay, az), (lx, ly, lz) = row_angle_gradients(gx, gy, gz)
    head = [-ex, -ey, -ez, 0.0, 1.0]
    aoa = [-ax, -ay, -az, -1.0, 0.0, ax, ay, az,
           -lx, -ly, -lz, 0.0, 0.0, lx, ly, lz]
    if kind is LandmarkType.BS:
        (px, py, pz), (qx, qy, qz) = row_angle_gradients(*d.tolist())
        return row_matrix([*head, ex, ey, ez, *aoa,
                           px, py, pz, 0.0, 0.0, -px, -py, -pz,
                           qx, qy, qz, 0.0, 0.0, -qx, -qy, -qz], 5)
    if kind is LandmarkType.VA:
        nus = nu.tolist()
        outer = [ni * nj for ni in nus for nj in nus]
        r_flat = [e - 2.0 * o for e, o in zip(ROW_EYE3_FLAT, outer)]
        n_flat = [(e - o) / span for e, o in zip(ROW_EYE3_FLAT, outer)]
        R, N = row_matrix(r_flat, 3), row_matrix(n_flat, 3)
        g_aod = R @ d
        c = 2.0 * float(nu @ d)
        nd = (N @ d).tolist()
        nu_nd = [ni * w for ni in nus for w in nd]
        dg_dx = row_matrix([-r - c * m - 2.0 * o
                            for r, m, o in zip(r_flat, n_flat, nu_nd)], 3)
        d_az2, d_el2 = map(np.array, row_angle_gradients(*g_aod.tolist()))
        return row_matrix([*head, ex, ey, ez, *aoa,
                           *(d_az2 @ R).tolist(), 0.0, 0.0,
                           *(d_az2 @ dg_dx).tolist(),
                           *(d_el2 @ R).tolist(), 0.0, 0.0,
                           *(d_el2 @ dg_dx).tolist()], 5)
    nx, ny, nz = nu.tolist()
    (px, py, pz), (qx, qy, qz) = row_angle_gradients(*b.tolist())
    return row_matrix([*head, nx + ex, ny + ey, nz + ez, *aoa,
                       0.0, 0.0, 0.0, 0.0, 0.0, px, py, pz,
                       0.0, 0.0, 0.0, 0.0, 0.0, qx, qy, qz], 5)


def row_linearize(model, v, x, kind):
    """``ChannelModel.linearize`` of one pair as the per-row code gave it to
    the filter: ``(p_detect, z_pred, H)``, with ``(0.0, None, None)`` for a
    pair the sensor cannot see (its kind has detection probability 0, or it
    is an SP beyond the field of view) or with degenerate geometry."""
    u = reference_finite_point(v[:3], "UE")
    x = reference_finite_point(x, "landmark")
    pd = model.p_detect.get(kind, 0.0)
    try:
        legs = row_legs(u, kind, x, model.bs_position)
        if pd <= 0.0 or (kind is LandmarkType.SP
                         and legs[1] > model.fov_radius):
            return 0.0, None, None
        z = row_prediction(reference_wrap(float(v[3])), float(v[4]),
                           kind, legs)
        return pd, z, row_jacobian(kind, legs)
    except DegenerateGeometryError:
        return 0.0, None, None


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
                row_linearize(model, v, lm.position, kind)[0]
            z = measure(ue, lm, BS) + rng.normal(0.0, 0.01, size=5)
            got = invert_one(model, z, v, kind)
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
                         lambda: model.invert(np.ones((1, 5)) * 400.0, v,
                                              (LandmarkType.BS,))):
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
    g_aoa, _ = row_direction(x - u, "UE-landmark")
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
        span_vec, span = row_direction(x - bs, "BS-VA")
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
        leg1_vec, leg1 = row_direction(x - bs, "BS-SP")
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

    g, n, d, b, span, nu = row_legs(u, kind, x, bs_position)
    if kind is LandmarkType.BS:
        path, g_aod = n, d
    elif kind is LandmarkType.VA:
        path, g_aod = n, d - 2.0 * nu * (nu @ d)
    else:
        path, g_aod = span + n, b
    aoa_az, aoa_el = azimuth_elevation(g)
    aod_az, aod_el = azimuth_elevation(g_aod)
    return np.array([path + bias, reference_wrap(aoa_az - heading),
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
        ref_z = outcome(reference_measure, u, reference_wrap(v[3]),
                        float(v[4]), kind, x, BS)
        # A degenerate pair raises DegenerateGeometryError from the one-row
        # methods without naming its direction: ``predict`` where the
        # prediction's reference raises, ``jacobians`` where either
        # reference does.  ``linearize`` gives it p_detect 0 and no
        # prediction.
        degenerate = isinstance(ref_z, tuple) or isinstance(ref_h, tuple)
        z_out = outcome(model.predict, v, x, kind)
        if isinstance(ref_z, tuple):
            assert z_out[0] is DegenerateGeometryError
        else:
            assert same_bits(z_out, ref_z)
        jac = outcome(model.jacobians, v, x, kind)
        lin = model.linearize(v, x[None], (kind,))
        if degenerate:
            assert jac[0] is DegenerateGeometryError
            assert lin[:2] == ([0.0], [])
            return
        assert same_bits(jac[0], ref_h[:, :5])
        assert same_bits(jac[1], ref_h[:, 5:])
        (pd,), seen, z_pred, H_s, H_x = lin
        assert pd == model.p_detect[kind] and seen == [0]
        assert same_bits(z_pred[0], ref_z)
        assert same_bits(H_s[0], ref_h[:, :5])
        assert same_bits(H_x[0], ref_h[:, 5:])

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


def fov_edges(dist):
    """A field of view at, just inside or just outside a row's distance
    ``dist``, never below the smallest positive radius."""
    return st.sampled_from([f for f in (dist, math.nextafter(dist, 0.0),
                                        math.nextafter(dist, math.inf))
                            if f > 0.0])


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
        fov = draw(fov_edges(float(np.linalg.norm(x - u))))
    v = np.concatenate([u, [heading, bias]])
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    if shape == "non-finite UE":
        v[draw(st.integers(0, 2))] = bad
    elif shape == "non-finite landmark":
        x[draw(st.integers(0, 2))] = bad
    return ChannelModel(BS, fov_radius=fov), v, x, kind


def row_raise(model, v, x, kind):
    """The message of the per-row reference's DegenerateGeometryError for a
    pair at any field of view, or None."""
    try:
        legs = row_legs(v[:3], kind, x, model.bs_position)
        row_prediction(0.0, 0.0, kind, legs)
        row_jacobian(kind, legs)
    except DegenerateGeometryError as exc:
        return str(exc)
    return None


class TestLinearize:
    @settings(max_examples=1500, deadline=None)
    @given(case=linearize_case())
    def test_bit_equal_to_the_one_part_methods(self, case):
        # A pair the sensor can see gives the one-part methods' bits and
        # the per-row reference's; a hidden one, or one with degenerate
        # geometry (where a one-part method raises), has p_detect 0 and no
        # prediction.  Non-finite input raises as the one-part methods do.
        model, v, x, kind = case
        got = outcome(model.linearize, v, x[None], (kind,))
        ref = per_part_outcome(model, v, x, kind)
        if len(ref) == 2 and ref[0] is not DegenerateGeometryError:
            assert got == ref
            return
        pd, z_pred, H = row_linearize(model, v, x, kind)
        if len(ref) == 2 or ref[0] == 0.0:
            p_detect, seen, *stacks = got
            assert p_detect == [0.0] and type(p_detect[0]) is float
            assert seen == [] and z_pred is None
            assert [a.shape for a in stacks] == [(0, 5), (0, 5, 5), (0, 5, 3)]
            return
        (got_pd,), seen, *stacks = got
        assert type(got_pd) is type(ref[0]) and got_pd == ref[0] == pd
        assert seen == [0]
        for a, b, c in zip([a[0] for a in stacks], ref[1:],
                           (z_pred, H[:, :5], H[:, 5:])):
            assert a.shape == b.shape and np.array_equal(a, b)
            assert same_bits(a, c)

    def test_edge_cases_are_reached(self):
        # The strategy's edge shapes give every outcome the comparison
        # covers: visible and hidden SPs at the FOV edge, a hidden SP in a
        # vertical direction, a vertical and both zero-length degeneracies
        # (named by the per-row reference), and both non-finite messages.
        model = ChannelModel(BS, fov_radius=50.0)
        v = np.array([10.0, -5.0, 0.0, 9.0, 300.0])
        x = v[:3] + np.array([30.0, 40.0, 0.0])   # 50 m away, exactly
        SP = (LandmarkType.SP,)
        assert model.linearize(v, x[None], SP)[:2] == ([0.9], [0])
        nearer = ChannelModel(BS, fov_radius=math.nextafter(50.0, 0.0))
        assert nearer.linearize(v, x[None], SP)[:2] == ([0.0], [])
        above = v[:3] + np.array([0.0, 0.0, 60.0])   # straight up, hidden
        for kind, x, message in (
                (LandmarkType.SP, above,
                 "vertical direction: azimuth undefined"),
                (LandmarkType.VA, v[:3] + [1e-13, 0.0, 25.0],
                 "vertical direction: azimuth undefined"),
                (LandmarkType.SP, v[:3].copy(), "zero-length UE-SP direction"),
                (LandmarkType.SP, BS.copy(), "zero-length BS-SP direction")):
            assert row_raise(model, v, x, kind) == message
            assert per_part_outcome(model, v, x, kind)[0] is \
                DegenerateGeometryError
            assert model.linearize(v, x[None], (kind,))[:2] == ([0.0], [])
        for i, what in ((0, "UE"), (5, "landmark")):
            w, y = v.copy(), np.array([60.0, 20.0, 10.0])
            if i < 5:
                w[i] = np.nan
            else:
                y[0] = np.inf
            assert outcome(model.linearize, w, y[None],
                           (LandmarkType.BS,)) == \
                per_part_outcome(model, w, y, LandmarkType.BS) == \
                (ValueError, f"{what} position must be a finite 3-vector")


#: Shapes of one row of a drawn stack.
ROW_SHAPES = ("generic", "generic", "generic", "above UE", "above BS",
              "non-finite")


def generic_point(draw):
    return np.array([draw(st.floats(-150.0, 250.0)),
                     draw(st.floats(-200.0, 200.0)),
                     draw(st.floats(0.0, 60.0))])


@st.composite
def stack_case(draw):
    """(model, sensor vector, kinds, rows) of one ``linearize`` call: 0-12
    landmark rows of shuffled kinds that mix generic rows, SPs hidden
    beyond the field of view or at its edge (``nextafter`` of an SP row's
    distance, as in :func:`linearize_case`), rows nearly straight above the
    UE or the BS (both vertical-direction degeneracies, and zero-length
    legs) and non-finite rows; one kind may have detection probability 0
    or none."""
    u = np.array([draw(st.integers(-80, 80)), draw(st.integers(-80, 80)),
                  draw(st.sampled_from([0.0, 1.5]))], dtype=float)
    v = np.concatenate([u, [draw(st.floats(-30.0, 30.0)),
                            draw(st.floats(0.0, 400.0))]])
    rows, kinds = [], []
    for shape in draw(st.lists(st.sampled_from(ROW_SHAPES), max_size=12)):
        if shape in ("above UE", "above BS"):
            base = u if shape == "above UE" else BS
            x = base + np.array([draw(NEAR_VERTICAL), draw(NEAR_VERTICAL),
                                 draw(st.sampled_from([0.0, 25.0, -12.0]))])
        else:
            x = generic_point(draw)
        if shape == "non-finite":
            x[draw(st.integers(0, 2))] = draw(
                st.sampled_from([np.nan, np.inf, -np.inf]))
        rows.append(x)
        kinds.append(draw(st.sampled_from(list(LandmarkType))))
    fov = 50.0
    sps = [x for x, kind in zip(rows, kinds)
           if kind is LandmarkType.SP and np.isfinite(x).all()]
    if sps and draw(st.booleans()):
        fov = draw(fov_edges(float(np.linalg.norm(draw(st.sampled_from(sps))
                                                  - u))))
    p_detect = {kind: 0.9 for kind in LandmarkType}
    blind = draw(st.sampled_from([None, *LandmarkType]))
    if blind is not None:
        if draw(st.booleans()):
            p_detect[blind] = 0.0
        else:
            del p_detect[blind]
    return ChannelModel(BS, p_detect=p_detect, fov_radius=fov), v, kinds, rows


def assert_rows_match_reference(model, v, kinds, X, got):
    """Each row of one ``linearize`` result against :func:`row_linearize`:
    a row the sensor sees has the reference's detection probability and the
    bytes of its prediction and Jacobian blocks (signed zeros count); a
    hidden or degenerate row has p_detect 0 and no prediction."""
    p_detect, seen, z_pred, H_s, H_x = got
    assert len(p_detect) == len(X)
    assert z_pred.shape == (len(seen), 5)
    assert H_s.shape == (len(seen), 5, 5) and H_x.shape == (len(seen), 5, 3)
    assert H_s.flags.c_contiguous and H_x.flags.c_contiguous
    r = 0
    for k, x in enumerate(X):
        pd, z, H = row_linearize(model, v, x, kinds[k])
        assert type(p_detect[k]) is float and p_detect[k] == pd
        if z is None:
            assert k not in seen
            continue
        assert seen[r] == k
        assert same_bits(z_pred[r], z)
        assert same_bits(H_s[r], H[:, :5]) and same_bits(H_x[r], H[:, 5:])
        r += 1
    assert r == len(seen)


def row_bytes(got):
    """Row index -> (p_detect, bytes of its prediction and blocks, or None)."""
    p_detect, seen, *stacks = got
    found = {k: tuple(a[r].tobytes() for a in stacks)
             for r, k in enumerate(seen)}
    return {k: (pd, found.get(k)) for k, pd in enumerate(p_detect)}


def kind_list(draw, n):
    return [draw(st.sampled_from(list(LandmarkType))) for _ in range(n)]


class TestStackedKernel:
    """``ChannelModel.linearize`` and ``invert`` on stacks of rows of mixed
    kinds: every row has the per-row reference's bits and a one-row call's,
    whatever else the stack holds."""

    @settings(max_examples=500, deadline=None)
    @given(case=stack_case(), data=st.data())
    def test_rows_bit_equal_to_the_per_row_reference(self, case, data):
        model, v, kinds, rows = case
        X = np.array(rows).reshape(len(rows), 3)
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            assert outcome(model.linearize, v, X, kinds) == \
                (ValueError, "landmark position must be a finite 3-vector")
            X = X[finite]
            kinds = [kind for kind, ok in zip(kinds, finite) if ok]
        got = model.linearize(v, X, kinds)
        assert_rows_match_reference(model, v, kinds, X, got)
        want = row_bytes(got)
        for k in range(len(X)):
            assert row_bytes(model.linearize(v, X[k:k + 1], kinds[k:k + 1])
                             ) == {0: want[k]}
        # Permuting or padding the stack leaves each row's bytes alone.
        order = data.draw(st.permutations(range(len(X))))
        permuted = row_bytes(model.linearize(v, X[order],
                                             [kinds[j] for j in order]))
        assert {order[j]: out for j, out in permuted.items()} == want
        before = [generic_point(data.draw) for _ in range(
            data.draw(st.integers(0, 3)))]
        after = [generic_point(data.draw) for _ in range(
            data.draw(st.integers(1, 3)))]
        padded = row_bytes(model.linearize(
            v, np.array(before + list(X) + after),
            kind_list(data.draw, len(before)) + kinds
            + kind_list(data.draw, len(after))))
        assert {k: padded[len(before) + k] for k in want} == want

    def test_unknown_or_missing_kind_raises(self):
        model = ChannelModel(BS)
        v = np.array([10.0, -5.0, 0.0, 0.3, 200.0])
        X = np.array([[60.0, 20.0, 10.0], [80.0, 0.0, 5.0]])
        for call in (lambda: model.linearize(v, X, [LandmarkType.VA, "SP"]),
                     lambda: model.invert(np.ones((1, 5)), v, ["SP"])):
            with pytest.raises(ValueError, match="unknown landmark kind"):
                call()
        for kinds in ([LandmarkType.VA], [LandmarkType.SP] * 3):
            with pytest.raises(ValueError, match="one landmark kind per row"):
                model.linearize(v, X, kinds)

    def test_no_rows_give_empty_stacks(self):
        # A hypothesis with no landmark and no newborn reaches linearize as
        # an empty sequence; a stack of rows that are not 3-vectors still
        # raises, empty or not.
        model = ChannelModel(BS)
        v = np.array([10.0, -5.0, 0.0, 0.3, 200.0])
        for X in ([], np.empty((0, 3))):
            p_detect, seen, z_pred, H_s, H_x = model.linearize(v, X, [])
            assert p_detect == [] and seen == []
            assert (z_pred.shape, H_s.shape, H_x.shape) == (
                (0, 5), (0, 5, 5), (0, 5, 3))
        for X in (np.empty((0, 2)), np.ones(3), np.ones((1, 2))):
            with pytest.raises(ValueError, match="finite 3-vector"):
                model.linearize(v, X, [LandmarkType.VA] * len(X))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_invert_rows_bit_equal_to_the_reference(self, data):
        kinds = data.draw(st.lists(st.sampled_from(list(LandmarkType)),
                                   unique=True, max_size=3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        ue, _ = random_geometry(rng, LandmarkType.BS)
        v = ue.as_vector()
        model = ChannelModel(BS)
        z_rows = []
        for shape in data.draw(st.lists(st.sampled_from(
                ["landmark", "landmark", "short path", "random"]),
                max_size=12)):
            if shape == "landmark":
                kind = data.draw(st.sampled_from(list(LandmarkType)))
                z = measure(ue, random_geometry(rng, kind)[1], BS)
                z = z + rng.normal(0.0, 0.01, size=5)
            elif shape == "short path":
                z = np.array([ue.clock_bias - rng.uniform(0.0, 5.0),
                              *rng.uniform(-3.0, 3.0, size=4)])
            else:
                z = np.array([ue.clock_bias + rng.uniform(0.0, 300.0),
                              *rng.uniform(-3.0, 3.0, size=4)])
            z_rows.append(z)
        Z = np.array(z_rows).reshape(len(z_rows), 5)
        rows, means = model.invert(Z, v, kinds)
        # Ordered by kinds, then by measurement.
        assert means.shape == (len(rows), 3)
        assert rows == sorted(set(rows),
                              key=lambda row: (kinds.index(row[0]), row[1]))
        got = dict(zip(rows, means))
        for kind in kinds:
            for p, z in enumerate(Z):
                ref = invert_reference(model, z, ue, kind)
                assert ((kind, p) in got) == (ref is not None)
                if ref is not None:
                    assert same_bits(got[(kind, p)], ref)
                    assert same_bits(invert_one(model, z, v, kind), ref)
        order = data.draw(st.permutations(range(len(Z))))
        rows_p, means_p = model.invert(Z[order], v, kinds)
        assert {(kind, order[j]): m.tobytes()
                for (kind, j), m in zip(rows_p, means_p)} == \
            {key: m.tobytes() for key, m in got.items()}


@st.composite
def landmark_list(draw):
    """(UE, landmarks): 0-12 landmarks of shuffled kinds, generic or nearly
    straight above the UE or the BS, zero-length legs included."""
    ue = UEState([draw(st.integers(-80, 80)), draw(st.integers(-80, 80)),
                  draw(st.sampled_from([0.0, 1.5]))],
                 draw(st.floats(-30.0, 30.0)), draw(st.floats(0.0, 400.0)))
    landmarks = []
    for shape in draw(st.lists(st.sampled_from(ROW_SHAPES[:-1]),
                               max_size=12)):
        if shape == "generic":
            x = generic_point(draw)
        else:
            base = ue.position if shape == "above UE" else BS
            x = base + np.array([draw(NEAR_VERTICAL), draw(NEAR_VERTICAL),
                                 draw(st.sampled_from([0.0, 25.0, -12.0]))])
        landmarks.append(Landmark(draw(st.sampled_from(list(LandmarkType))),
                                  x))
    return ue, landmarks


class TestMeasureAll:
    @settings(max_examples=300, deadline=None)
    @given(case=landmark_list(), fov=st.sampled_from([math.inf, 60.5, 150.5]))
    def test_each_entry_is_measure_of_its_landmark(self, case, fov):
        ue, landmarks = case
        got = measure_all(ue, landmarks, BS, fov)
        assert len(got) == len(landmarks)
        for lm, z in zip(landmarks, got):
            ref = outcome(measure, ue, lm, BS)
            if isinstance(ref, tuple):
                assert ref[0] is DegenerateGeometryError and z is None
            elif lm.kind is LandmarkType.SP and row_direction(
                    lm.position - ue.position, "UE-SP")[1] > fov:
                assert z is None
            else:
                assert same_bits(z, ref)


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
