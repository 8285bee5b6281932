import math

import numpy as np
import pytest

from rfslam.geometry import LandmarkType
from rfslam.multimodel import birth_type_probs, update_type_probs

BS, VA, SP = LandmarkType.BS, LandmarkType.VA, LandmarkType.SP


class TestUpdateTypeProbs:
    def test_single_type_is_always_one(self):
        for logliks in (None, {VA: -2.0}):
            out = update_type_probs({VA: 1.0}, {VA: 0.9}, logliks)
            assert out == {VA: 1.0}

    def test_symmetric_detection_stays_uniform(self):
        out = update_type_probs({VA: 0.5, SP: 0.5}, {VA: 0.9, SP: 0.9},
                                {VA: -1.3, SP: -1.3})
        assert out[VA] == pytest.approx(0.5)
        assert out[SP] == pytest.approx(0.5)

    def test_likelihood_ratio_4_to_1(self):
        out = update_type_probs({VA: 0.5, SP: 0.5}, {VA: 0.9, SP: 0.9},
                                {VA: math.log(4.0) - 2.0, SP: -2.0})
        assert out[VA] == pytest.approx(0.8)
        assert out[SP] == pytest.approx(0.2)

    def test_misdetection_factored_variant(self):
        prior = {VA: 0.9, SP: 0.1}
        out = update_type_probs(prior, {VA: 0.9, SP: 0.9}, None)
        # Equal detection probabilities: the factored form keeps the prior.
        assert out[VA] == pytest.approx(0.9)
        assert out[SP] == pytest.approx(0.1)

    def test_misdetection_uniform_prior_never_raises_strongest(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pds = rng.uniform(0.1, 0.95, size=3)
            prior = {k: 1.0 / 3.0 for k in (BS, VA, SP)}
            pd = dict(zip((BS, VA, SP), pds))
            strongest = max(prior, key=lambda k: pd[k] * prior[k])
            out = update_type_probs(prior, pd, None)
            assert out[strongest] <= prior[strongest] + 1e-12

    def test_factored_resolves_out_of_fov_scatterer(self):
        # Repeated misdetections of a landmark whose SP hypothesis is out
        # of the FOV (pd 0) while the VA hypothesis stays visible must
        # converge to the SP type under the factored form.
        psi = {VA: 0.5, SP: 0.5}
        for _ in range(20):
            psi = update_type_probs(psi, {VA: 0.9, SP: 0.0}, None)
        assert psi[SP] > 0.999

    def test_zero_mass_falls_back_to_uniform(self):
        with pytest.warns(RuntimeWarning):
            out = update_type_probs({VA: 0.5, SP: 0.5}, {VA: 0.0, SP: 0.0},
                                    {})
        assert out[VA] == pytest.approx(0.5)
        assert out[SP] == pytest.approx(0.5)

    def test_outputs_normalized(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            psis = rng.dirichlet(np.ones(2))
            out = update_type_probs(
                {VA: psis[0], SP: psis[1]},
                {VA: rng.uniform(0, 1), SP: rng.uniform(0, 1)},
                {VA: rng.normal(), SP: rng.normal()})
            assert sum(out.values()) == pytest.approx(1.0, abs=1e-12)
            assert all(0.0 <= v <= 1.0 for v in out.values())


class TestBirthTypeProbs:
    def test_single_positive_rate(self):
        out = birth_type_probs({VA: 0.0, SP: 3.2e-4})
        assert out[SP] == pytest.approx(1.0)

    def test_ratio_normalization(self):
        out = birth_type_probs({VA: 3e-4, SP: 1e-4})
        assert out[VA] == pytest.approx(0.75)
        assert out[SP] == pytest.approx(0.25)

    def test_clutter_independent(self):
        # Clutter enters the birth weight, never the type ratios.
        a = birth_type_probs({VA: 2e-4, SP: 6e-4})
        b = birth_type_probs({VA: 2e-3, SP: 6e-3})
        assert a[VA] == pytest.approx(b[VA])

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            birth_type_probs({VA: 0.0, SP: 0.0})
