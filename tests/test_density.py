import numpy as np
import pytest

from rfslam.density import (
    Bernoulli,
    DegenerateDensityError,
    GlobalHypothesis,
    LandmarkBelief,
    PmbmDensity,
    TypeComponent,
    check_density,
    default_ppp_intensity,
    merge_bernoullis,
    normalize_weights,
    prune,
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
