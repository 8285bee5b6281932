import numpy as np
import pytest
from conftest import (
    check_density,
    enumerate_associations,
    single_type_bernoulli,
)

from rfslam.association import AssociationVector
from rfslam.density import GlobalHypothesis, PmbmDensity
from rfslam.geometry import LandmarkType
from rfslam.reduction import (
    InconsistentHypothesesError,
    align_hypotheses,
    average_conditionals,
    tomb_recombine,
)

VA, SP = LandmarkType.VA, LandmarkType.SP


def rnd_bernoulli(rng, kind=VA, existence=None):
    cov = rng.normal(size=(3, 3))
    r = rng.uniform(0.1, 1.0) if existence is None else existence
    return single_type_bernoulli(r, kind, rng.normal(size=3),
                                 cov @ cov.T + np.eye(3))


def build_pmbm(rng, n_prior, n_meas, n_hyp=None, ppp=None):
    """Random but structurally consistent PMBM with shared birth Bernoullis."""
    sigmas = list(enumerate_associations(n_prior, n_meas))
    if n_hyp is not None and n_hyp < len(sigmas):
        idx = rng.choice(len(sigmas), size=n_hyp, replace=False)
        sigmas = [sigmas[i] for i in sorted(idx)]
    weights = rng.dirichlet(np.ones(len(sigmas)))
    births = [rnd_bernoulli(rng, kind=SP, existence=rng.uniform(0.2, 0.95))
              for _ in range(n_meas)]
    hyps = []
    for w, sigma in zip(weights, sigmas):
        berns = [rnd_bernoulli(rng) for _ in range(n_prior)]
        for t in range(n_prior, n_prior + n_meas):
            if sigma[t] is not None:
                berns.append(births[sigma[t] - 1])
        hyps.append(GlobalHypothesis(
            float(w), tuple(berns), assoc=AssociationVector(n_prior, sigma)))
    return PmbmDensity(ppp or {VA: 0.0, SP: 0.0}, tuple(hyps))


def expected_count(density):
    return sum(h.weight * sum(b.existence for b in h.bernoullis)
               for h in density.hypotheses)


class TestAlign:
    def test_single_hypothesis_one_cell_per_track(self):
        rng = np.random.default_rng(0)
        density = build_pmbm(rng, 2, 2, n_hyp=1)
        table = align_hypotheses(density)
        assert (table.n_prior, len(table.cells) - table.n_prior) == (2, 2)
        for cells in table.cells:
            assert len(cells) == 1
            assert next(iter(cells.values())).beta == pytest.approx(1.0)

    def test_two_hypotheses_split_on_one_track(self):
        rng = np.random.default_rng(1)
        prior = [rnd_bernoulli(rng)]
        meas_bern = rnd_bernoulli(rng, kind=SP)
        # Hypothesis A: landmark detected by measurement 1; B: misdetected,
        # measurement 1 starts a new landmark.
        hyp_a = GlobalHypothesis(0.7, (prior[0],),
                                 assoc=AssociationVector(1, (1, None)))
        hyp_b = GlobalHypothesis(0.3, (prior[0], meas_bern),
                                 assoc=AssociationVector(1, (0, 1)))
        density = PmbmDensity({VA: 0.0}, (hyp_a, hyp_b))
        table = align_hypotheses(density)
        track0 = table.cells[0]
        assert track0[1].beta == pytest.approx(0.7)
        assert track0[0].beta == pytest.approx(0.3)
        track1 = table.cells[1]
        assert track1[None].beta == pytest.approx(0.7)
        assert track1[1].beta == pytest.approx(0.3)

    def test_beta_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            density = build_pmbm(rng, int(rng.integers(0, 3)),
                                 int(rng.integers(0, 3)))
            table = align_hypotheses(density)
            for cells in table.cells:
                total = sum(c.beta for c in cells.values())
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_slot_triggers_zero_existence_cell(self):
        rng = np.random.default_rng(3)
        density = build_pmbm(rng, 0, 1, n_hyp=1)
        sigma = density.hypotheses[0].assoc.sigma
        table = align_hypotheses(density)
        if sigma[0] is None:
            cell = table.cells[0][None]
            assert cell.contributors == []

    def test_missing_assoc_rejected(self):
        hyp = GlobalHypothesis(1.0, (), assoc=None)
        with pytest.raises(InconsistentHypothesesError):
            align_hypotheses(PmbmDensity({VA: 0.0}, (hyp,)))

    def test_inconsistent_structure_rejected(self):
        a = GlobalHypothesis(0.5, (), assoc=AssociationVector(0, (None,)))
        b = GlobalHypothesis(0.5, (), assoc=AssociationVector(1, (0, None)))
        with pytest.raises(InconsistentHypothesesError):
            align_hypotheses(PmbmDensity({VA: 0.0}, (a, b)))


class TestAverage:
    def test_single_contributor_identity(self):
        rng = np.random.default_rng(4)
        density = build_pmbm(rng, 2, 1, n_hyp=1)
        table = average_conditionals(align_hypotheses(density))
        sigma = density.hypotheses[0].assoc.sigma
        for t in range(2):
            cell = table.cells[t][sigma[t]]
            assert cell.bernoulli is density.hypotheses[0].bernoullis[t]

    def test_equal_weight_moment_match(self):
        mean_a, mean_b = np.array([1.0, 0, 0]), np.array([-1.0, 0, 0])
        bern_a = single_type_bernoulli(1.0, VA, mean_a, np.eye(3))
        bern_b = single_type_bernoulli(1.0, VA, mean_b, np.eye(3))
        hyp_a = GlobalHypothesis(0.5, (bern_a,),
                                 assoc=AssociationVector(1, (1, None)))
        hyp_b = GlobalHypothesis(0.5, (bern_b,),
                                 assoc=AssociationVector(1, (1, None)))
        density = PmbmDensity({VA: 0.0}, (hyp_a, hyp_b))
        table = average_conditionals(align_hypotheses(density))
        cell = table.cells[0][1]
        comp = cell.bernoulli.belief.types[VA]
        assert np.allclose(comp.mean, 0.0)
        assert comp.covariance[0, 0] == pytest.approx(2.0)
        assert comp.covariance[1, 1] == pytest.approx(1.0)

    def test_existence_averaging(self):
        bern_a = single_type_bernoulli(1.0, VA, np.zeros(3), np.eye(3))
        bern_b = single_type_bernoulli(0.5, VA, np.zeros(3), np.eye(3))
        hyp_a = GlobalHypothesis(0.6, (bern_a,),
                                 assoc=AssociationVector(1, (0,)))
        hyp_b = GlobalHypothesis(0.4, (bern_b,),
                                 assoc=AssociationVector(1, (0,)))
        density = PmbmDensity({VA: 0.0}, (hyp_a, hyp_b))
        table = average_conditionals(align_hypotheses(density))
        assert table.cells[0][0].bernoulli.existence == pytest.approx(0.8)


class TestTombRecombine:
    def test_concentrated_beta_returns_single_hypothesis(self):
        rng = np.random.default_rng(5)
        density = build_pmbm(rng, 2, 2, n_hyp=1)
        table = average_conditionals(align_hypotheses(density))
        mb = tomb_recombine(table)
        src = density.hypotheses[0]
        live = [b for b in mb.bernoullis if b.existence > 0.0]
        assert len(live) == len(src.bernoullis)
        born = [b for b in mb.bernoullis[2:] if b.existence > 0.0]
        for rec, orig in zip(list(mb.bernoullis[:2]) + born,
                             src.bernoullis):
            assert rec.existence == orig.existence
            for kind in orig.belief.types:
                assert np.array_equal(rec.belief.types[kind].mean,
                                      orig.belief.types[kind].mean)

    def test_unborn_track_has_zero_existence(self):
        hyp = GlobalHypothesis(1.0, (), assoc=AssociationVector(0, (None,)))
        density = PmbmDensity({VA: 0.0}, (hyp,))
        table = average_conditionals(align_hypotheses(density))
        mb = tomb_recombine(table)
        assert len(mb.bernoullis) == 1
        assert mb.bernoullis[0].existence == 0.0

    def test_conservation_and_marginals_random_pmbms(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n_prior = int(rng.integers(0, 4))
            n_meas = int(rng.integers(0, 4))
            density = build_pmbm(rng, n_prior, n_meas)
            table = average_conditionals(align_hypotheses(density))
            # Exhaustive marginal association probabilities.
            for t in range(n_prior + n_meas):
                for q, cell in table.cells[t].items():
                    brute = sum(h.weight for h in density.hypotheses
                                if h.assoc.sigma[t] == q)
                    assert cell.beta == pytest.approx(brute, abs=1e-12)
            mb = tomb_recombine(table)
            total = sum(b.existence for b in mb.bernoullis)
            assert total == pytest.approx(expected_count(density), abs=1e-9)

    def test_two_track_two_measurement_brute_force(self):
        rng = np.random.default_rng(7)
        density = build_pmbm(rng, 2, 2)
        table = average_conditionals(align_hypotheses(density))
        mb = tomb_recombine(table)
        # Exact marginal existence per track: sum_j w_j r_j(track).
        for t in range(2):
            brute = sum(h.weight * h.bernoullis[t].existence
                        for h in density.hypotheses)
            assert mb.bernoullis[t].existence == pytest.approx(brute, abs=1e-12)
        for t, p in ((2, 1), (3, 2)):
            brute = 0.0
            for h in density.hypotheses:
                if h.assoc.sigma[t] == p:
                    born_rank = sum(
                        1 for s in h.assoc.sigma[2:t] if s is not None)
                    brute += h.weight * h.bernoullis[2 + born_rank].existence
            assert mb.bernoullis[t].existence == pytest.approx(brute, abs=1e-12)

    def test_output_density_is_valid(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            density = build_pmbm(rng, int(rng.integers(0, 3)),
                                 int(rng.integers(0, 3)))
            table = average_conditionals(align_hypotheses(density))
            mb = tomb_recombine(table)
            check_density(PmbmDensity(density.ppp_intensity, (mb,)))
