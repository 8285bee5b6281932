import math
from unittest import mock

import numpy as np
import pytest
from conftest import check_density
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfslam import density as density_module
from rfslam.association import AssociationVector
from rfslam.density import (
    MIN_CELL_MASS,
    Bernoulli,
    DegenerateDensityError,
    GaussianComponent,
    GlobalHypothesis,
    LandmarkBelief,
    PmbmDensity,
    TypeComponent,
    absent_bernoulli,
    default_ppp_intensity,
    merge_bernoullis,
    mix_types,
    moment_match,
    prune,
    sum_in_order,
    symmetrize,
)
from rfslam.geometry import TYPE_ORDER, LandmarkType
from rfslam.reduction import (
    InconsistentHypothesesError,
    TrackCell,
    TrackTable,
    align_hypotheses,
    average_conditionals,
    tomb_recombine,
)


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


def normalize(d):
    """``prune`` with nothing to drop: its weight normalization alone."""
    return prune(d, 0.0, 0.0, len(d.hypotheses))


class TestNormalize:
    def test_uniform_rescale(self):
        d = normalize(density([2.0, 2.0], [[], []]))
        assert [h.weight for h in d.hypotheses] == [0.5, 0.5]

    def test_single_hypothesis(self):
        d = normalize(density([0.3], [[]]))
        assert d.hypotheses[0].weight == 1.0

    def test_ratio_preserved(self):
        # prune puts the heavier hypothesis first.
        d = normalize(density([1.0, 3.0], [[], []]))
        assert [h.weight for h in d.hypotheses] == [0.75, 0.25]

    def test_idempotent(self):
        d = normalize(density([1.0, 3.0], [[], []]))
        d2 = normalize(d)
        assert [h.weight for h in d2.hypotheses] == [h.weight for h in d.hypotheses]

    def test_degenerate(self):
        with pytest.raises(DegenerateDensityError,
                           match="all hypothesis weights are zero"):
            normalize(density([0.0, 0.0], [[], []]))


class TestPrune:
    def test_low_existence_removed(self):
        d = density([1.0], [[bern(5e-5), bern(0.5)]])
        out = prune(d, 1e-4, 1e-4, 10)
        assert len(out.hypotheses[0].bernoullis) == 1
        assert out.hypotheses[0].bernoullis[0].existence == 0.5
        check_density(out)

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
        check_density(out)

    def test_all_pruned_raises(self):
        d = density([1e-9], [[]])
        with pytest.raises(DegenerateDensityError):
            prune(d, 1e-4, 1e-3, 10)

    def test_absent_placeholder_is_dropped(self):
        absent = absent_bernoulli()
        d = density([0.7, 0.3], [[absent, bern(0.5), absent], [absent]])
        out = prune(d, 1e-4, 1e-4, 10)
        assert [[b.existence for b in h.bernoullis]
                for h in out.hypotheses] == [[0.5], []]


class TestAbsentBernoulli:
    def test_one_instance_with_read_only_arrays(self):
        absent = absent_bernoulli()
        assert absent_bernoulli() is absent and absent.existence == 0.0
        (kind, comp), = absent.belief.types.items()
        assert kind is LandmarkType.VA and comp.weight == 1.0
        assert np.array_equal(comp.mean, np.zeros(3))
        assert np.array_equal(comp.covariance, 1e6 * np.eye(3))
        for array in (comp.mean, comp.covariance):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0


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
        probs = {k: c.weight for k, c in merged.belief.types.items()}
        assert probs[LandmarkType.VA] == pytest.approx(0.75)
        assert sum(probs.values()) == pytest.approx(1.0)


def merge_candidates(berns, threshold):
    """The merge's array bound over ``berns``' dominant components."""
    kinds = [b.belief.dominant_type() for b in berns]
    return density_module._merge_candidates(
        kinds, [b.belief.types[k] for b, k in zip(berns, kinds)], threshold)


def solving_merge_gate(a, b, threshold):
    """The merge gate with no bound before it: both solves, every pair."""
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


def reference_merge_bernoullis(hypothesis, threshold):
    """The merge before its bounds: every remaining pair goes through the
    solving gate, seed by seed."""
    remaining = list(hypothesis.bernoullis)
    merged = []
    while remaining:
        seed_idx = max(range(len(remaining)),
                       key=lambda i: remaining[i].existence)
        seed = remaining.pop(seed_idx)
        group = [seed]
        rest = []
        for b in remaining:
            if solving_merge_gate(seed, b, threshold):
                group.append(b)
            else:
                rest.append(b)
        remaining = rest
        if len(group) == 1:
            merged.append(seed)
            continue
        total = sum_in_order(b.existence for b in group)
        (belief, _), = mix_types(
            [([(b.existence, b) for b in group], total, None)])
        merged.append(Bernoulli(min(1.0, total), belief))
    return GlobalHypothesis(hypothesis.weight, tuple(merged))


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
    """The merge's trace bound only skips solves."""

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
        want = reference_merge_bernoullis(hyp, threshold)
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

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([1e-162, 1e-160, 1e-155, 1e-3, 1.0, 1e3,
                                  1e150]),
           threshold=st.sampled_from([1.0, 50.0, 400.0, 3.7e-5]))
    def test_array_bound_keeps_every_pair_the_gate_bound_keeps(
            self, seed, scale, threshold):
        # Second covariances whose traces put the bound that leaves the
        # solves 1e-9 for rounding, threshold (1 + 1e-9) tr C, within a few
        # ulps of d @ d (the first covariance's trace is larger): every
        # pair whose d @ d passes that bound must survive the array bound,
        # which sums the squares in numpy.  Normal draws make the two sums
        # differ in about a third of the pairs; the tiny scales take the
        # squares below the normal range.
        rng = np.random.default_rng(seed)
        kept = 0
        for _ in range(20):
            d = rng.normal(size=3) * scale
            dd = float(d @ d)
            centre = dd / (threshold * (1.0 + 1e-9))
            traces = [centre]
            for toward in (-math.inf, math.inf):
                trace = centre
                for _ in range(4):
                    trace = math.nextafter(trace, toward)
                    traces.append(trace)
            for trace in traces:
                a = bern(0.9, mean=np.zeros(3),
                         cov=np.diag([2.0 * trace + 1.0, 0.0, 0.0]))
                b = bern(0.5, mean=-d, cov=np.diag([trace, 0.0, 0.0]))
                near = merge_candidates((a, b), threshold)
                if not dd > threshold * (1.0 + 1e-9) * trace:
                    kept += 1
                    assert near[0][1] and near[1][0]
        assert kept > 0

    def test_array_sum_rounds_within_the_stated_bound(self):
        # The numpy sum of squares and d @ d do differ, by no more than
        # the relative 2 * 3u / (1 - 3u) plus the subnormal slack that
        # _merge_candidates' docstring states; MERGE_BOUND_MARGIN is far
        # wider than the relative term.
        rng = np.random.default_rng(5)
        u = 2.0 ** -53
        rel = 2.0 * 3.0 * u / (1.0 - 3.0 * u)
        differ = 0
        for scale in (1e-160, 1e-3, 1.0, 1e3, 1e150):
            d = rng.normal(size=(4000, 3)) * scale
            array_sum = (d * d).sum(axis=-1)
            for row, s in zip(d, array_sum.tolist()):
                dd = float(row @ row)
                differ += s != dd
                assert abs(s - dd) <= rel * max(s, dd) + 10 * 2.0 ** -1075
        assert differ > 0
        assert density_module.MERGE_BOUND_MARGIN > 1e6 * rel

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


class TestSumInOrder:
    def test_adds_left_to_right_where_builtin_sum_compensates(self):
        # Test modules add with Python 3.12's ``sum`` on every interpreter
        # (conftest.compensated_builtin_sum), so a reference that needs the
        # filter's bits must add in order too.
        terms = [0.1] * 10
        assert sum_in_order(terms) == 0.9999999999999999
        assert sum(terms) == 1.0


class TestMomentMatch:
    """``moment_match`` must equal the Python loop bit for bit."""

    @staticmethod
    def assert_matches_loop(coefs, means, covs, norm):
        # Members given by the same arrays stay one object.
        shared = {}
        members = [shared.setdefault((id(m), id(c)), GaussianComponent(m, c))
                   for m, c in zip(means, covs)]
        (mean,), (cov,) = moment_match([(list(coefs), members, norm)])
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

    @pytest.mark.parametrize("n", range(8, 20))
    def test_lone_one_dimensional_group(self, n):
        # One group of 1-D members leaves the member axis the only one
        # longer than 1, which np.add.reduce alone would sum pairwise from
        # 8 terms on; the sums must still add the members in order.
        rng = np.random.default_rng(300 + n)
        for _ in range(20):
            coefs = [float(w) for w in
                     rng.random(n) * 10 ** rng.uniform(-8, 1, n)]
            means = [rng.normal(size=1) * 10 ** rng.uniform(-2, 2)
                     for _ in range(n)]
            covs = [rng.uniform(0.1, 10.0, size=(1, 1)) for _ in range(n)]
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


# The three per-type loops ``mix_types`` replaced, kept as references.

def loop_merge_types(members):
    """The merge's loop: existence times type probability, floor ``<= 0``."""
    total_r = sum_in_order(b.existence for b in members)
    types = {}
    for kind in TYPE_ORDER:
        weights, comps = [], []
        for b in members:
            comp = b.belief.types.get(kind)
            if comp is None:
                continue
            weights.append(b.existence * comp.weight)
            comps.append(comp)
        if not comps:
            continue
        wsum = sum_in_order(weights)
        psi = wsum / total_r if total_r > 0 else 0.0
        if wsum <= 0.0:
            types[kind] = TypeComponent(psi, comps[0].mean, comps[0].covariance)
            continue
        (mean,), (cov,) = moment_match([(weights, comps, wsum)])
        types[kind] = TypeComponent(psi, mean, cov)
    return LandmarkBelief(types)


def loop_type_mass(contributors, kind):
    """Sum of w * psi over the ``(w, Bernoulli)`` contributors that hold
    ``kind``, added left to right from zero."""
    mass = 0.0
    for w, bern in contributors:
        comp = bern.belief.types.get(kind)
        if comp is not None:
            mass += w * comp.weight
    return mass


def loop_average_cell(cell):
    """The cell averaging's loop: hypothesis weight times type probability,
    except that a cell whose contributors are all one Bernoulli object is
    that object (:class:`TestSharedBernoulliCell`)."""
    first = cell.contributors[0][1]
    if all(b is first for _, b in cell.contributors):
        return first
    beta = cell.beta
    existence = sum_in_order(
        w * b.existence for w, b in cell.contributors) / beta
    types = {}
    for kind in TYPE_ORDER:
        members = [(w, b.belief.types[kind]) for w, b in cell.contributors
                   if kind in b.belief.types]
        if not members:
            continue
        norm = loop_type_mass(cell.contributors, kind)
        psi = norm / beta
        if norm < MIN_CELL_MASS:
            comp = members[0][1]
            types[kind] = TypeComponent(psi, comp.mean, comp.covariance)
            continue
        (mean,), (cov,) = moment_match([([w * c.weight for w, c in members],
                                          [c for _, c in members], norm)])
        types[kind] = TypeComponent(psi, mean, cov)
    return Bernoulli(existence, LandmarkBelief(types))


def loop_recombine_prior_track(cells):
    """The TOMB loop: averaged existence times the cell's type mass; a
    zero-existence track got uniform type probabilities."""
    live = {q: c for q, c in cells.items()
            if c.bernoulli is not None and c.beta >= MIN_CELL_MASS}
    if not live:
        raise InconsistentHypothesesError("prior track with no live cells")
    if len(live) == len(cells) == 1:
        (_, cell), = live.items()
        return cell.bernoulli
    existence = sum_in_order(c.beta * c.bernoulli.existence
                             for c in live.values())
    types = {}
    for kind in TYPE_ORDER:
        members = [(loop_type_mass(c.contributors, kind), c.bernoulli)
                   for c in live.values()
                   if kind in c.bernoulli.belief.types]
        if not members:
            continue
        norm = sum_in_order(bt * b.existence for bt, b in members)
        psi = norm / existence if existence > 0.0 else 1.0 / len(TYPE_ORDER)
        if norm < MIN_CELL_MASS:
            comp = members[0][1].belief.types[kind]
            types[kind] = TypeComponent(psi, comp.mean, comp.covariance)
            continue
        comps = [b.belief.types[kind] for _, b in members]
        (mean,), (cov,) = moment_match(
            [([bt * b.existence for bt, b in members], comps, norm)])
        types[kind] = TypeComponent(psi, mean, cov)
    if existence <= 0.0:
        template = live[next(iter(live))].bernoulli.belief
        return Bernoulli(0.0, LandmarkBelief({
            k: TypeComponent(1.0 / len(template.types), c.mean, c.covariance)
            for k, c in template.types.items()}))
    return Bernoulli(min(1.0, existence), LandmarkBelief(types))


#: Values on both sides of ``MIN_CELL_MASS`` for scales and type weights.
TINY = (0.0, 1e-13, 5e-13, 9.999e-13, 1e-12, 1.0001e-12, 3e-12)


def draw_value(rng, tiny):
    """A uniform draw in (0, 1], or with probability ``tiny`` a tiny one."""
    if rng.uniform() < tiny:
        return TINY[int(rng.integers(len(TINY)))]
    return float(1.0 - rng.uniform())


def random_members(rng, n, n_types, shared, tiny, zero_existence,
                   dims=None):
    """``n`` Bernoullis over ``n_types`` types; with ``shared`` "all" they
    are one object, with "some" about half repeat an earlier one.  ``dims``
    maps each type to its dimension (3 for every type by default)."""
    kinds = [TYPE_ORDER[i] for i in sorted(rng.choice(3, n_types, replace=False))]
    members = []
    for _ in range(n):
        if members and (shared == "all"
                        or (shared == "some" and rng.uniform() < 0.5)):
            members.append(members[int(rng.integers(len(members)))])
            continue
        held = [k for k in kinds if rng.uniform() < 0.7] or [
            kinds[int(rng.integers(len(kinds)))]]
        types = {}
        for kind in held:
            dim = 3 if dims is None else dims[kind]
            a = rng.normal(size=(dim, dim))
            types[kind] = TypeComponent(
                draw_value(rng, tiny),
                rng.normal(size=dim) * 10 ** rng.uniform(-1, 2),
                a @ a.T + 1e-3 * np.eye(dim))
        existence = 0.0 if zero_existence else draw_value(rng, tiny)
        members.append(Bernoulli(existence, LandmarkBelief(types)))
    return members


def assert_beliefs_bit_equal(got, want):
    assert list(got.types) == list(want.types)
    for kind, comp in got.types.items():
        ref = want.types[kind]
        assert comp.weight == ref.weight
        assert comp.mean.tobytes() == ref.mean.tobytes()
        assert comp.covariance.tobytes() == ref.covariance.tobytes()


mixture_cases = dict(
    seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
    n_types=st.integers(1, 3), shared=st.sampled_from(["none", "some", "all"]),
    tiny=st.sampled_from([0.0, 0.3, 1.0]), zero_existence=st.booleans())


class TestMixTypes:
    """``mix_types`` equals each loop it replaced bit for bit, except where
    a declared edge case moved: the merge floor is ``MIN_CELL_MASS`` (was
    ``<= 0``), and a zero-existence prior track is ``absent_bernoulli()``."""

    @settings(max_examples=150, deadline=None)
    @given(**mixture_cases)
    def test_merge(self, seed, n, n_types, shared, tiny, zero_existence):
        rng = np.random.default_rng(seed)
        members = random_members(rng, n, n_types, shared, tiny, zero_existence)
        # merge_bernoullis puts its seed, the strongest member, first.
        first = max(range(n), key=lambda i: members[i].existence)
        group = [members[first]] + members[:first] + members[first + 1:]
        total = sum_in_order(b.existence for b in group)
        (got, _), = mix_types(
            [([(b.existence, b) for b in group], total, None)])
        want = loop_merge_types(group)
        assert list(got.types) == list(want.types)
        for kind, comp in got.types.items():
            holders = [b for b in group if kind in b.belief.types]
            mass = sum_in_order(b.existence * b.belief.types[kind].weight
                                for b in holders)
            ref = want.types[kind]
            if 0.0 < mass < MIN_CELL_MASS:
                ref = TypeComponent(ref.weight,
                                    holders[0].belief.types[kind].mean,
                                    holders[0].belief.types[kind].covariance)
            assert_beliefs_bit_equal(LandmarkBelief({kind: comp}),
                                     LandmarkBelief({kind: ref}))
        if n > 1:
            # Every pair passes both the array bound and the gate.
            with mock.patch.object(density_module, "_merge_pair_gate",
                                   lambda ca, cb, threshold: True), \
                    mock.patch.object(density_module, "_merge_candidates",
                                      lambda kinds, comps, threshold:
                                      [[True] * len(kinds)] * len(kinds)):
                merged, = merge_bernoullis(GlobalHypothesis(1.0, members),
                                           1.0).bernoullis
            assert merged.existence == min(1.0, total)
            assert_beliefs_bit_equal(merged.belief, got)

    @settings(max_examples=150, deadline=None)
    @given(**mixture_cases)
    def test_average_cell(self, seed, n, n_types, shared, tiny,
                          zero_existence):
        rng = np.random.default_rng(seed)
        members = random_members(rng, n, n_types, shared, tiny, zero_existence)
        cell = TrackCell()
        for bern in members:
            w = draw_value(rng, tiny)
            cell.beta += w
            cell.contributors.append((w, bern))
        average_conditionals(TrackTable(1, [{0: cell}]))
        if cell.beta < MIN_CELL_MASS:
            assert cell.bernoulli is None
            return
        want = loop_average_cell(cell)
        assert cell.bernoulli.existence == want.existence
        assert_beliefs_bit_equal(cell.bernoulli.belief, want.belief)

    @settings(max_examples=150, deadline=None)
    @given(**mixture_cases, n_cells=st.integers(1, 4))
    def test_recombine_prior_track(self, seed, n, n_types, shared, tiny,
                                   zero_existence, n_cells):
        rng = np.random.default_rng(seed)
        members = random_members(rng, n, n_types, shared, tiny, zero_existence)
        cells = {q: TrackCell() for q in range(n_cells)}
        for bern in members:
            cell = cells[int(rng.integers(n_cells))]
            w = draw_value(rng, tiny)
            cell.beta += w
            cell.contributors.append((w, bern))
        table = average_conditionals(TrackTable(1, [cells]))
        try:
            want = loop_recombine_prior_track(cells)
        except InconsistentHypothesesError:
            with pytest.raises(InconsistentHypothesesError):
                tomb_recombine(table)
            return
        got = tomb_recombine(table).bernoullis[0]
        live = [c for c in cells.values()
                if c.bernoulli is not None and c.beta >= MIN_CELL_MASS]
        copied = len(live) == len(cells) == 1
        if not copied and sum_in_order(c.beta * c.bernoulli.existence
                                       for c in live) <= 0.0:
            want = absent_bernoulli()
        assert got.existence == want.existence
        assert_beliefs_bit_equal(got.belief, want.belief)

    def test_zero_total_gives_zero_type_probability(self):
        a, b = bern(0.0, mean=(1.0, 2.0, 3.0)), bern(0.0)
        (mixed, _), = mix_types(
            [([(a.existence, a), (b.existence, b)], 0.0, None)])
        comp = mixed.types[LandmarkType.VA]
        assert comp.weight == 0.0
        assert comp.mean is a.belief.types[LandmarkType.VA].mean

    def test_merge_below_floor_keeps_first_gaussian(self):
        # The merged VA mass 8e-13 lies in (0, MIN_CELL_MASS): the seed's
        # Gaussian is kept.  The former ``<= 0`` floor moment matched it to
        # the mean (0.375, 0, 0).
        a = bern(5e-13, mean=(0.0, 0.0, 0.0), cov=np.eye(3))
        b = bern(3e-13, mean=(1.0, 0.0, 0.0), cov=2.0 * np.eye(3))
        merged, = merge_bernoullis(GlobalHypothesis(1.0, (b, a)),
                                   50.0).bernoullis
        comp = merged.belief.types[LandmarkType.VA]
        assert merged.existence == 5e-13 + 3e-13
        assert comp.weight == 1.0
        assert comp.mean is a.belief.types[LandmarkType.VA].mean
        assert comp.covariance is a.belief.types[LandmarkType.VA].covariance

    def test_zero_existence_prior_track_is_the_placeholder(self):
        # Two hypotheses disagree on the prior track's association, and each
        # holds it with existence zero: the recombined track is the absent
        # placeholder (formerly a uniform-type belief), and prune drops it.
        track = bern(0.0, kind=LandmarkType.SP, psi=0.7,
                     other=LandmarkType.VA)
        hyps = (GlobalHypothesis(0.6, (track,),
                                 assoc=AssociationVector(1, (0, None))),
                GlobalHypothesis(0.4, (track,),
                                 assoc=AssociationVector(1, (1, None))))
        table = average_conditionals(align_hypotheses(
            PmbmDensity(default_ppp_intensity(), hyps)))
        recombined = tomb_recombine(table)
        got = recombined.bernoullis[0]
        want = absent_bernoulli()
        assert got.existence == 0.0
        assert_beliefs_bit_equal(got.belief, want.belief)
        pruned = prune(PmbmDensity(default_ppp_intensity(), (recombined,)),
                       1e-4, 1e-4, 10)  # FilterConfig's prune defaults
        assert pruned.hypotheses[0].bernoullis == ()


#: Each type's dimension in a model whose landmark types differ in it.  VA
#: is 1-D, so a type matched alone is often a lone group of 1-D members.
MIXED_DIMS = {LandmarkType.BS: 3, LandmarkType.VA: 1, LandmarkType.SP: 4}


def dominant_dim(b):
    return b.belief.types[b.belief.dominant_type()].mean.size


class TestMixedDimensions:
    """Landmark types of different dimension: ``mix_types`` takes every job
    of a stage at once and gives each type the bits of matching it alone,
    and the merge bounds each dimension's Bernoullis by themselves."""

    @settings(max_examples=100, deadline=None)
    @given(**mixture_cases, n_jobs=st.integers(1, 3))
    def test_mix_types_matches_each_type_alone(self, seed, n, n_types, shared,
                                               tiny, zero_existence, n_jobs):
        rng = np.random.default_rng(seed)
        jobs = []
        for _ in range(n_jobs):
            members = random_members(rng, n, n_types, shared, tiny,
                                     zero_existence, dims=MIXED_DIMS)
            scaled = [(draw_value(rng, tiny), b) for b in members]
            jobs.append((scaled, sum(w for w, _ in scaled), None))
        for (members, total, _), (got, masses) in zip(jobs, mix_types(jobs)):
            for kind, comp in got.types.items():
                alone = [(w, Bernoulli(b.existence, LandmarkBelief(
                    {kind: b.belief.types[kind]})))
                    for w, b in members if kind in b.belief.types]
                (want, want_masses), = mix_types([(alone, total, None)])
                assert masses[kind] == want_masses[kind]
                assert_beliefs_bit_equal(LandmarkBelief({kind: comp}), want)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 10),
           threshold=st.sampled_from([1.0, 50.0, 400.0]))
    def test_merge_bounds_each_dimension_apart(self, seed, n, threshold):
        rng = np.random.default_rng(seed)
        va, sp = LandmarkType.VA, LandmarkType.SP
        berns = []
        for _ in range(n):
            psi = float(rng.uniform(0.5, 1.0))
            kinds = (va, sp) if rng.uniform() < 0.5 else (sp, va)
            types = {}
            for kind, weight in zip(kinds, (psi, 1.0 - psi)):
                dim = MIXED_DIMS[kind]
                types[kind] = TypeComponent(
                    weight, rng.normal(size=dim) * 10 ** rng.uniform(-1, 1),
                    10 ** rng.uniform(-0.5, 1) * np.eye(dim))
            berns.append(Bernoulli(float(rng.uniform(0.01, 0.9)),
                                   LandmarkBelief(types)))
        near = merge_candidates(berns, threshold)
        for i, a in enumerate(berns):
            for j, b in enumerate(berns):
                if dominant_dim(a) != dominant_dim(b):
                    assert not near[i][j]
                elif solving_merge_gate(a, b, threshold):
                    assert near[i][j]
        hyp = GlobalHypothesis(1.0, tuple(berns))
        assert_bernoullis_bit_equal(
            merge_bernoullis(hyp, threshold).bernoullis,
            reference_merge_bernoullis(hyp, threshold).bernoullis)


def loop_recombine_new_track(cells):
    """A new track: its born cell with probability beta, each type
    probability the cell's type mass over beta."""
    born = [c for q, c in cells.items()
            if q is not None and c.bernoulli is not None]
    if not born:
        return absent_bernoulli()
    cell, = born
    if len(cells) == 1:
        return cell.bernoulli
    if cell.bernoulli.existence <= 0.0:
        return Bernoulli(0.0, cell.bernoulli.belief)
    return Bernoulli(cell.beta * cell.bernoulli.existence, LandmarkBelief({
        kind: TypeComponent(loop_type_mass(cell.contributors, kind)
                            / cell.beta, comp.mean, comp.covariance)
        for kind, comp in cell.bernoulli.belief.types.items()}))


def random_table(rng, n_cells, n_types, shared, tiny, neg_zero):
    """A track table of ``n_cells`` cells with 1-12 contributors each:
    prior tracks of 1-4 cells and new tracks of one born cell, half of
    them with a not-born cell too.  With ``neg_zero`` every drawn mean has
    -0.0 in one coordinate, so all of a group's terms there are -0.0: the
    one sum a padded +0.0 would flip, were it started from its first term
    (see the ``rfslam.density`` docstring)."""
    def cell():
        c = TrackCell()
        for bern in random_members(rng, int(rng.integers(1, 13)), n_types,
                                   shared, tiny, rng.uniform() < 0.1):
            if neg_zero is not None:
                for comp in bern.belief.types.values():
                    comp.mean[neg_zero] = -0.0
            w = draw_value(rng, tiny)
            c.beta += w
            c.contributors.append((w, bern))
        return c

    prior, new = [], []
    while n_cells:
        if rng.uniform() < 0.3:
            track = {0: cell()}
            if rng.uniform() < 0.5:
                track[None] = TrackCell(beta=draw_value(rng, tiny))
            new.append(track)
            n_cells -= 1
        else:
            k = min(n_cells, int(rng.integers(1, 5)))
            prior.append({q: cell() for q in range(k)})
            n_cells -= k
    return TrackTable(len(prior), prior + new)


class TestBatchedReduction:
    """One ``mix_types`` call per stage equals the per-cell and per-track
    loops bit for bit: the cells' groups have 1-12 members, past numpy's
    8-term pairwise threshold, and the shorter ones are padded."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_cells=st.integers(1, 6),
           n_types=st.integers(1, 3),
           shared=st.sampled_from(["none", "some", "all"]),
           tiny=st.sampled_from([0.0, 0.3]),
           neg_zero=st.sampled_from([None, 0, 1, 2]))
    @example(seed=7, n_cells=4, n_types=1, shared="all", tiny=0.0,
             neg_zero=1)
    @example(seed=11, n_cells=3, n_types=1, shared="none", tiny=0.0,
             neg_zero=None)
    def test_table_matches_per_cell_loops(self, seed, n_cells, n_types,
                                          shared, tiny, neg_zero):
        rng = np.random.default_rng(seed)
        table = random_table(rng, n_cells, n_types, shared, tiny, neg_zero)
        average_conditionals(table)
        for track in table.cells:
            for q, cell in track.items():
                if q is None or cell.beta < MIN_CELL_MASS:
                    assert cell.bernoulli is None
                    continue
                want = loop_average_cell(cell)
                assert cell.bernoulli.existence == want.existence
                assert_beliefs_bit_equal(cell.bernoulli.belief, want.belief)
        prior = table.cells[:table.n_prior]
        try:
            want = [loop_recombine_prior_track(cells) for cells in prior]
        except InconsistentHypothesesError:
            with pytest.raises(InconsistentHypothesesError):
                tomb_recombine(table)
            return
        for i, cells in enumerate(prior):
            live = [c for c in cells.values()
                    if c.bernoulli is not None and c.beta >= MIN_CELL_MASS]
            if not len(live) == len(cells) == 1 and sum_in_order(
                    c.beta * c.bernoulli.existence for c in live) <= 0.0:
                want[i] = absent_bernoulli()
        want += [loop_recombine_new_track(cells)
                 for cells in table.cells[table.n_prior:]]
        got = tomb_recombine(table).bernoullis
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.existence == w.existence
            assert_beliefs_bit_equal(g.belief, w.belief)


class TestSharedBernoulliCell:
    """A cell whose m >= 2 contributors are one Bernoulli object is that
    object, and its masses are the in-order sums of w psi bit for bit.

    The moment match it replaced, ``mix_types`` on the same cell, reads the
    same values up to rounding.  Its coefficients are >= 0 and its members
    identical, so each in-order sum of m <= 12 terms is within (m - 1) u
    relative of exact (u = 2^-53), and a quotient of two such sums within
    2m u: the existence, the type weights and each mean entry.  The spread
    m_i - mean is then at most 2m u |mean|, whose square is negligible
    against these draws' covariances (|mean| < 1e3, C >= 1e-3 I), and the
    symmetrization moves an entry by a few u of the largest.  2m u < 2.7e-15
    for m <= 12, so 1e-14 relative to each array's largest entry holds with
    room; 20,000 draws read at most 6.7e-16."""

    RTOL = 1e-14

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(2, 12),
           n_types=st.integers(1, 3), tiny=st.sampled_from([0.0, 0.3]))
    def test_copy_is_the_shared_object(self, seed, m, n_types, tiny):
        rng = np.random.default_rng(seed)
        shared, other = random_members(rng, 2, n_types, "none", tiny, False)
        cell = TrackCell()
        for _ in range(m):
            w = draw_value(rng, tiny)
            cell.beta += w
            cell.contributors.append((w, shared))
        # A second cell in the track: the recombinations then weight by the
        # cell's masses, so averaging sets them.
        lone = TrackCell(0.5, [(0.5, other)])
        average_conditionals(TrackTable(1, [{0: cell, 1: lone}]))
        if cell.beta < MIN_CELL_MASS:
            assert cell.bernoulli is None
            return
        assert cell.bernoulli is shared
        kinds = list(shared.belief.types)
        want = {kind: loop_type_mass(cell.contributors, kind)
                for kind in kinds}
        assert list(cell.masses) == kinds
        for kind in kinds:
            assert cell.masses[kind].hex() == want[kind].hex()
        (old, masses), = mix_types([(cell.contributors, cell.beta, None)])
        assert masses == cell.masses
        existence = sum_in_order(w * b.existence
                                 for w, b in cell.contributors) / cell.beta
        assert existence == pytest.approx(shared.existence, rel=self.RTOL)
        assert list(old.types) == kinds
        for kind, comp in shared.belief.types.items():
            moved = old.types[kind]
            assert moved.weight == pytest.approx(comp.weight, rel=self.RTOL)
            for got, ref in ((moved.mean, comp.mean),
                             (moved.covariance, comp.covariance)):
                assert np.abs(got - ref).max() <= (
                    self.RTOL * np.abs(ref).max())


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
