"""Known-map NEES: a statistical oracle for the whole EK chain.

The bit-for-bit references check each kernel against earlier code; nothing
there checks that the chain as a whole reports honest covariances.  Given
a near-exact map, the sensor's normalized estimation error squared (NEES)
does: the motion Jacobian, the process noise, the measurement Jacobians,
the residual wrap, the replicated-type noise block and marginalization all
enter it, and a consistent filter's NEES over the sensor's free components
follows the chi-square law with that many degrees of freedom.

Scope: this checks the EK chain given a near-exact map.  It does not claim
that the filter is consistent.  With a map the filter learns itself, the
sensor is over-confident (ROADMAP item 15), and this test does not cover
that.
"""

import math
from dataclasses import replace

import numpy as np
from scipy.stats import chi2

from rfslam.cli import RunConfig, build_filter_config, initial_state
from rfslam.density import Bernoulli, LandmarkBelief, TypeComponent
from rfslam.geometry import wrap_angle
from rfslam.sim import default_scenario, generate_measurements, \
    simulate_trajectory
from rfslam.update import step

#: The sensor's free components: x, y, heading, clock bias (its height has
#: zero variance by design).
FREE = [0, 1, 3, 4]

#: Campaign: the reference scenario, PMB at gamma 10, 20 runs of 40 steps,
#: each landmark known to within 1e-6 m^2.
RUNS, STEPS, MAP_VARIANCE = 20, 40, 1e-6


def nees_band(runs: int, dof: int, level: float = 0.95):
    """Two-sided ``level`` band of an average NEES over ``runs`` runs.

    Under consistency each run's NEES at a step is chi-square with ``dof``
    degrees of freedom, and runs are independent, so ``runs`` times a
    step's average is chi-square with ``runs * dof``.  The campaign average
    also averages over steps, which are correlated within a run (the error
    at one step carries into the next).  With independent steps its band
    would be ``steps`` times narrower in variance; with fully correlated
    steps the campaign average is distributed as one step's average.  The
    band takes that worst case, the widest of them, so the correlation can
    only make a consistent filter fall outside it less often.
    """
    tail = (1.0 - level) / 2.0
    n = runs * dof
    return chi2.ppf(tail, n) / runs, chi2.ppf(1.0 - tail, n) / runs


def known_map_nees(scenario):
    """Per-step NEES of the sensor's free components, runs x steps, with
    the filter's prior holding every true landmark."""
    cfg = build_filter_config(scenario, RunConfig(gamma=10))
    density0, sensor0 = initial_state(scenario)
    known = tuple(
        Bernoulli(1.0, LandmarkBelief({lm.kind: TypeComponent(
            1.0, lm.position, MAP_VARIANCE * np.eye(3))}))
        for lm in scenario.landmarks()[1:])
    (hyp,) = density0.hypotheses
    density0 = replace(density0, hypotheses=(
        replace(hyp, bernoullis=hyp.bernoullis + known),))
    nees = np.zeros((RUNS, scenario.steps))
    for r in range(RUNS):
        rng = np.random.default_rng([11, r])
        trajectory = simulate_trajectory(scenario, rng)
        density, sensor = density0, sensor0
        for k, truth in enumerate(trajectory[1:]):
            zset = generate_measurements(truth, scenario, rng)
            density, sensor = step(density, sensor, list(zset.measurements),
                                   cfg)
            err = (sensor.mean - truth.as_vector())[FREE]
            err[2] = wrap_angle(err[2])
            cov = sensor.covariance[np.ix_(FREE, FREE)]
            nees[r, k] = err @ np.linalg.solve(cov, err)
    return nees


def test_band_is_the_chi_square_law():
    # 20 runs of a 4-dof NEES: chi-square with 80 dof, over 20.
    low, high = nees_band(20, 4)
    assert math.isclose(low, 57.153 / 20, rel_tol=1e-4)
    assert math.isclose(high, 106.629 / 20, rel_tol=1e-4)


def test_known_map_anees_inside_the_chi_square_band():
    scenario = default_scenario(seed=1, steps=STEPS)
    nees = known_map_nees(scenario)
    low, high = nees_band(RUNS, len(FREE))
    assert np.isfinite(nees).all()
    assert low <= nees.mean() <= high, (nees.mean(), (low, high))
