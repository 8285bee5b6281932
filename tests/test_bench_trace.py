"""The benchmark's trace contract: every call site ``perfbench/bench_trace.py``
substitutes exists, and a traced filter step records the layers it names.

The benchmark times layers by swapping module and class attributes, so a
refactor that renames or inlines one of them would otherwise break only the
benchmark's own smoke test, or silently leave a per-layer metric at zero.
This test reads ``perfbench/`` and changes nothing in it.
"""

import importlib.util
from pathlib import Path

import numpy as np

import rfslam.cli as cli
from rfslam.sim import (default_scenario, generate_measurements,
                        simulate_trajectory)
from rfslam.update import EK_PMB, EK_PMBM

BENCH_TRACE = (Path(__file__).resolve().parent.parent / "perfbench"
               / "bench_trace.py")


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_substituted_call_site_exists():
    bench_trace = load_bench_trace()
    subs = bench_trace._substitutions(bench_trace.Tracer())
    missing = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, _ in subs if name not in owner.__dict__]
    assert missing == []


def test_traced_update_step_records_every_association_layer():
    bench_trace = load_bench_trace()
    scenario = default_scenario(seed=1)
    filter_cfg = cli.build_filter_config(scenario, cli.RunConfig())
    density, sensor = cli.initial_state(scenario)
    rng = np.random.default_rng(1)
    trajectory = simulate_trajectory(scenario, rng)
    measurements = list(generate_measurements(trajectory[1], scenario,
                                              rng).measurements)
    assert measurements
    tracer = bench_trace.Tracer()
    with bench_trace.traced(tracer):
        density_pred, sensor_pred = cli.predict_step(density, sensor,
                                                     filter_cfg)
        cli.update_step(density_pred, sensor_pred, measurements, filter_cfg)
    self_ms = tracer.self_ms()
    # A renamed ranking entry point would leave association.murty_ms at 0.
    for span in ("association.build_cost_matrix", "association.weight_birth",
                 "association.murty", "geometry"):
        assert self_ms[span] > 0.0, span
    assert tracer.counts["chol_logpdf_calls"] > 0
    assert tracer.counts["murty_solutions"] > 0
    assert tracer.counts["steps"] == 1


def test_traced_pmbm_step_calls_joint_update_per_ranked_association():
    # The joint update runs all of a hypothesis's ranked associations in its
    # first call, and a PMBM update_step still calls it once per
    # association: the span holds the work, and the call count is the
    # ranked count.  (A PMB step calls no joint_update; its EK work is
    # update_step's own time.)
    bench_trace = load_bench_trace()
    scenario = default_scenario(seed=2)
    filter_cfg = cli.build_filter_config(scenario, cli.RunConfig(
        filter_kind=EK_PMBM, gamma=5))
    assert filter_cfg.gamma >= 2
    density, sensor = cli.initial_state(scenario)
    rng = np.random.default_rng(2)
    tracer = bench_trace.Tracer()
    for truth in simulate_trajectory(scenario, rng)[1:4]:
        measurements = list(generate_measurements(truth, scenario,
                                                  rng).measurements)
        with bench_trace.traced(tracer):
            density_pred, sensor_pred = cli.predict_step(density, sensor,
                                                         filter_cfg)
            density, sensor = cli.update_step(density_pred, sensor_pred,
                                              measurements, filter_cfg)
    assert tracer.counts["steps"] == 3
    assert tracer.counts["murty_solutions"] > tracer.counts["steps"]
    assert tracer.counts["joint_update_calls"] == \
        tracer.counts["murty_solutions"]
    assert tracer.self_ms()["update.joint_update"] > 0.0


def test_traced_pmb_step_records_every_reduction_stage():
    # perfbench/smoke.py's check_layers requires the three reduction self
    # times above 0 under PMB: a stage the step skipped or renamed would
    # otherwise fail only the benchmark's smoke test.
    bench_trace = load_bench_trace()
    scenario = default_scenario(seed=1)
    filter_cfg = cli.build_filter_config(scenario, cli.RunConfig())
    assert filter_cfg.filter_kind == EK_PMB and filter_cfg.gamma >= 2
    density, sensor = cli.initial_state(scenario)
    rng = np.random.default_rng(1)
    truth = simulate_trajectory(scenario, rng)[1]
    measurements = list(generate_measurements(truth, scenario,
                                              rng).measurements)
    tracer = bench_trace.Tracer()
    with bench_trace.traced(tracer):
        cli.update_step(*cli.predict_step(density, sensor, filter_cfg),
                        measurements, filter_cfg)
    self_ms = tracer.self_ms()
    for span in ("reduction.align", "reduction.average",
                 "reduction.recombine"):
        assert self_ms[span] > 0.0, span
