from unittest import mock

import numpy as np
import pytest
from conftest import check_density
from hypothesis import given, settings
from hypothesis import strategies as st

from rfslam import density as density_module
from rfslam.density import (
    Bernoulli,
    DegenerateDensityError,
    GlobalHypothesis,
    LandmarkBelief,
    PmbmDensity,
    TypeComponent,
    default_ppp_intensity,
    merge_bernoullis,
    moment_match,
    normalize_weights,
    prune,
    symmetrize,
)
from rfslam.geometry import LandmarkType


def bern(r, kind=LandmarkType.VA, mean=(0.0, 0.0, 0.0), cov=None, psi=1.0,
         other=None):
    cov = np.eye(3) if cov is None else np.asarray(cov, dtype=float)
    types = {kind: TypeComponent(psi, np.asarray(mean, dtype=float), cov)}
    if other is not None:
        types[other] = TypeComponent(1.0 - psi, np.asarray(mean, dtype=float), cov)
    return Bernoulli(r, LandmarkBelief(types))


def density(weights, bern_lists, ppp=None):
    ppp = default_ppp_intensity() if ppp is None else ppp
    hyps = tuple(GlobalHypothesis(w, tuple(bs))
                 for w, bs in zip(weights, bern_lists))
    return PmbmDensity(ppp, hyps)


class TestNormalize:
    def test_uniform_rescale(self):
        d = normalize_weights(density([2.0, 2.0], [[], []]))
        assert [h.weight for h in d.hypotheses] == [0.5, 0.5]

    def test_single_hypothesis(self):
        d = normalize_weights(density([0.3], [[]]))
        assert d.hypotheses[0].weight == 1.0

    def test_ratio_preserved(self):
        d = normalize_weights(density([1.0, 3.0], [[], []]))
        assert [h.weight for h in d.hypotheses] == [0.25, 0.75]

    def test_idempotent(self):
        d = normalize_weights(density([1.0, 3.0], [[], []]))
        d2 = normalize_weights(d)
        assert [h.weight for h in d2.hypotheses] == [h.weight for h in d.hypotheses]

    def test_degenerate(self):
        with pytest.raises(DegenerateDensityError):
            normalize_weights(density([0.0, 0.0], [[], []]))


class TestPrune:
    def test_low_existence_removed(self):
        d = density([1.0], [[bern(5e-5), bern(0.5)]])
        out = prune(d, 1e-4, 1e-4, 10)
        assert len(out.hypotheses[0].bernoullis) == 1
        assert out.hypotheses[0].bernoullis[0].existence == 0.5

    def test_unchanged_when_all_above(self):
        d = density([0.5], [[bern(0.3), bern(0.9)]])
        out = prune(d, 1e-4, 1e-4, 10)
        assert len(out.hypotheses[0].bernoullis) == 2
        assert out.hypotheses[0].weight == 1.0

    def test_cap_renormalizes_top_two(self):
        d = density([0.9, 0.09, 0.01], [[], [], []])
        out = prune(d, 1e-4, 1e-4, 2)
        w = [h.weight for h in out.hypotheses]
        assert w[0] == pytest.approx(0.9 / 0.99)
        assert w[1] == pytest.approx(0.09 / 0.99)
        assert sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_never_increases_bernoulli_count(self):
        d = density([0.6, 0.4], [[bern(0.5)], [bern(0.5), bern(1e-6)]])
        out = prune(d, 1e-4, 1e-4, 10)
        for before, after in zip(d.hypotheses, out.hypotheses):
            assert len(after.bernoullis) <= len(before.bernoullis)

    def test_all_pruned_raises(self):
        d = density([1e-9], [[]])
        with pytest.raises(DegenerateDensityError):
            prune(d, 1e-4, 1e-3, 10)


class TestMerge:
    def test_identical_pair(self):
        h = GlobalHypothesis(1.0, (bern(0.4), bern(0.4)))
        out = merge_bernoullis(h, 50.0)
        assert len(out.bernoullis) == 1
        merged = out.bernoullis[0]
        assert merged.existence == pytest.approx(0.8)
        comp = merged.belief.types[LandmarkType.VA]
        assert np.allclose(comp.mean, 0.0)
        assert np.allclose(comp.covariance, np.eye(3))

    def test_distant_pair_untouched(self):
        h = GlobalHypothesis(1.0, (bern(0.4, mean=(0, 0, 0)),
                                   bern(0.4, mean=(200.0, 0, 0))))
        out = merge_bernoullis(h, 50.0)
        assert len(out.bernoullis) == 2

    def test_spread_of_means_term(self):
        h = GlobalHypothesis(1.0, (bern(0.5, mean=(0.0, 0, 0)),
                                   bern(0.5, mean=(2.0, 0, 0))))
        out = merge_bernoullis(h, 50.0)
        assert len(out.bernoullis) == 1
        comp = out.bernoullis[0].belief.types[LandmarkType.VA]
        assert np.allclose(comp.mean, [1.0, 0, 0])
        assert comp.covariance[0, 0] == pytest.approx(2.0)
        assert comp.covariance[1, 1] == pytest.approx(1.0)

    def test_different_dominant_types_not_merged(self):
        h = GlobalHypothesis(1.0, (bern(0.4, kind=LandmarkType.VA),
                                   bern(0.4, kind=LandmarkType.SP)))
        out = merge_bernoullis(h, 50.0)
        assert len(out.bernoullis) == 2

    def test_existence_mass_conserved_up_to_clamp(self):
        rng = np.random.default_rng(0)
        berns = [bern(rng.uniform(0.05, 0.4), mean=rng.normal(size=3))
                 for _ in range(6)]
        h = GlobalHypothesis(1.0, tuple(berns))
        out = merge_bernoullis(h, 1e6)
        assert sum(b.existence for b in out.bernoullis) <= sum(
            b.existence for b in berns) + 1e-12

    def test_psi_weighted_type_mix(self):
        a = bern(0.6, kind=LandmarkType.VA, psi=0.75, other=LandmarkType.SP)
        b = bern(0.2, kind=LandmarkType.VA, psi=0.75, other=LandmarkType.SP)
        out = merge_bernoullis(GlobalHypothesis(1.0, (a, b)), 50.0)
        merged = out.bernoullis[0]
        assert merged.existence == pytest.approx(0.8)
        probs = merged.belief.type_probs()
        assert probs[LandmarkType.VA] == pytest.approx(0.75)
        assert sum(probs.values()) == pytest.approx(1.0)


def solving_merge_gate(a, b, threshold):
    """The merge gate without its trace bound: both solves, every pair."""
    ka, kb = a.belief.dominant_type(), b.belief.dominant_type()
    if ka is not kb:
        return False
    ca, cb = a.belief.types[ka], b.belief.types[kb]
    d = ca.mean - cb.mean
    try:
        da = float(d @ np.linalg.solve(ca.covariance, d))
        db = float(d @ np.linalg.solve(cb.covariance, d))
    except np.linalg.LinAlgError:
        return False
    return max(da, db) <= threshold


def assert_bernoullis_bit_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.existence == w.existence
        assert list(g.belief.types) == list(w.belief.types)
        for kind, comp in g.belief.types.items():
            ref = w.belief.types[kind]
            assert comp.weight == ref.weight
            assert comp.mean.tobytes() == ref.mean.tobytes()
            assert comp.covariance.tobytes() == ref.covariance.tobytes()


class TestMergeGateBound:
    """The trace bound in the merge gate only skips solves."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           n_extra=st.integers(0, 6),
           flat=st.sampled_from([1e-17, 1e-14, 1e-10, 1e-4, 1.0]),
           rel=st.sampled_from([-1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1.0]),
           threshold=st.sampled_from([1.0, 50.0, 400.0]))
    def test_bit_equal_to_always_solving(self, seed, n_extra, flat, rel,
                                         threshold):
        # A near-rank-one covariance C = s (u u^T + flat I) and an offset d
        # along u with d^T C^-1 d = threshold (1 + rel): the trace bound of
        # this pair lies within flat and rel of the gate.  With flat 1e-17,
        # u is a coordinate axis so that C stays exactly diagonal and
        # positive definite, and the bound equals the solved distance up to
        # rounding.
        rng = np.random.default_rng(seed)
        kinds = (LandmarkType.VA, LandmarkType.SP)
        if flat < 1e-15:
            u = np.eye(3)[int(rng.integers(3))]
        else:
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
        s = 10 ** rng.uniform(-1, 2)
        cov = s * (np.outer(u, u) + flat * np.eye(3))
        centre = rng.uniform(-100.0, 100.0, size=3)
        d = u * np.sqrt(threshold * (1.0 + rel) * s * (1.0 + flat))
        kind = kinds[int(rng.integers(2))]
        berns = [bern(0.9, kind=kind, mean=centre, cov=cov),
                 bern(0.5, kind=kind, mean=centre + d, cov=cov)]
        for _ in range(n_extra):
            a = rng.normal(size=(3, 3))
            other_cov = (cov if rng.uniform() < 0.3
                         else a @ a.T * 10 ** rng.uniform(-2, 1)
                         + 1e-3 * np.eye(3))
            mean = centre + rng.normal(size=3) * 10 ** rng.uniform(-1, 1.5)
            k = int(rng.integers(2))
            berns.append(bern(float(rng.uniform(0.01, 0.8)), kind=kinds[k],
                              mean=mean, cov=other_cov,
                              psi=float(rng.uniform(0.5, 1.0)),
                              other=kinds[1 - k]))
        order = rng.permutation(len(berns))
        hyp = GlobalHypothesis(1.0, tuple(berns[i] for i in order))

        got = merge_bernoullis(hyp, threshold)
        with mock.patch.object(density_module, "_merge_pair_gate",
                               solving_merge_gate):
            want = merge_bernoullis(hyp, threshold)
        assert_bernoullis_bit_equal(got.bernoullis, want.bernoullis)

    def test_pair_on_the_gate_merges_despite_rounding(self):
        # The solved distance is exactly the threshold, 50.0, but |d|^2
        # exceeds threshold * tr C by one ulp: without the relative margin
        # the bound would wrongly reject the pair.
        s = 9.233432782774749
        cov = np.diag([s, 1e-17 * s, 1e-17 * s])
        a = bern(0.5, cov=cov)
        b = bern(0.4, mean=(21.48654553758555, 0.0, 0.0), cov=cov)
        assert solving_merge_gate(a, b, 50.0)
        merged = merge_bernoullis(GlobalHypothesis(1.0, (a, b)), 50.0)
        assert len(merged.bernoullis) == 1

    def test_far_pair_is_rejected_without_solving(self):
        a, b = bern(0.5), bern(0.5, mean=(20.0, 0.0, 0.0))
        with mock.patch.object(np.linalg, "solve",
                               side_effect=AssertionError("solved")):
            assert merge_bernoullis(GlobalHypothesis(1.0, (a, b)),
                                    50.0).bernoullis == (a, b)


def loop_moment_match(coefs, means, covs, norm):
    """The moment-matching loop the stacked kernel replaced."""
    mean = sum(w * m for w, m in zip(coefs, means)) / norm
    cov = sum(w * (c + np.outer(m - mean, m - mean))
              for w, m, c in zip(coefs, means, covs)) / norm
    return mean, symmetrize(cov)


class TestMomentMatch:
    """``moment_match`` must equal the Python loop bit for bit."""

    @staticmethod
    def assert_matches_loop(coefs, means, covs, norm):
        mean, cov = moment_match(coefs, means, covs, norm)
        ref_mean, ref_cov = loop_moment_match(coefs, means, covs, norm)
        assert mean.tobytes() == ref_mean.tobytes()
        assert cov.tobytes() == ref_cov.tobytes()

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("dim", [3, 5])
    def test_random_members(self, n, dim):
        rng = np.random.default_rng(100 * n + dim)
        for _ in range(50):
            coefs = [float(w) for w in
                     rng.random(n) * 10 ** rng.uniform(-8, 1, n)]
            means = [rng.normal(size=dim) * 10 ** rng.uniform(-2, 2)
                     for _ in range(n)]
            covs = []
            for _ in range(n):
                a = rng.normal(size=(dim, dim))
                covs.append(a @ a.T)
            for norm in (sum(coefs), 1.0):
                self.assert_matches_loop(coefs, means, covs, norm)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_members_share_one_object(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(3, 3))
        mean, cov = rng.normal(size=3) * 50.0, a @ a.T
        coefs = [float(w) for w in rng.random(n)]
        self.assert_matches_loop(coefs, [mean] * n, [cov] * n, sum(coefs))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_zero_weight_members(self, n):
        rng = np.random.default_rng(50 + n)
        coefs = [float(w) for w in rng.random(n)]
        for k in rng.choice(n, size=n // 2 + 1, replace=False):
            coefs[k] = 0.0
        if sum(coefs) == 0.0:
            coefs[-1] = 0.25
        means = [rng.normal(size=3) for _ in range(n)]
        means[0][1] = -0.0
        covs = [np.eye(3) * rng.uniform(0.1, 2.0) for _ in range(n)]
        self.assert_matches_loop(coefs, means, covs, sum(coefs))


class TestSerialization:
    def test_check_density_catches_bad_psi(self):
        types = {LandmarkType.VA: TypeComponent(0.5, np.zeros(3), np.eye(3))}
        d = density([1.0], [[Bernoulli(0.5, LandmarkBelief(types))]])
        with pytest.raises(AssertionError):
            check_density(d)


class TestDefaults:
    def test_default_ppp(self):
        ppp = default_ppp_intensity()
        assert ppp[LandmarkType.BS] == 0.0
        assert ppp[LandmarkType.VA] == pytest.approx(10.0 / 6.4e6)
        assert ppp[LandmarkType.VA] == ppp[LandmarkType.SP]
