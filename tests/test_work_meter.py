"""The work meter: calls per ``update_step``, pinned like the line budgets.

On a shared 2-core host, timed pairs resolve only a few percent, and a
fixed cost added a little at a time passes each change's timing bound.
The calls a step makes are exact instead: :func:`conftest.update_step_calls`
counts the Python and C calls that ``sys.setprofile`` sees inside
``update_step`` on fixed inputs.  The step's matrices are small, so
per-call overhead dominates its time, and the count follows a timed change
in sign and roughly in size.  It is a signal, not a timing: a speed claim
still cites timed benchmark pairs.
"""

import importlib.util
import platform
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import update_step_calls

from rfslam.cli import RunConfig, build_filter_config
from rfslam.sim import default_scenario
from rfslam.update import EK_PMB, EK_PMBM

#: The Python and numpy versions :data:`WORK_BUDGET` was counted under.
#: numpy's Python-level wrappers count as calls, so other versions count
#: otherwise.
MEASURED_UNDER = {"python": "3.11.7", "numpy": "2.4.6"}

#: Calls (C plus Python) per ``update_step`` on each workload of
#: :data:`WORKLOADS`.  A change that raises a count raises it here in its
#: own diff and says why; one that lowers a count lowers it.
WORK_BUDGET = {"ref-pmb-g1": 1533.6, "ref-pmb-g10": 2849.1,
               "clutter-pmbm-g10": 5508.1}

#: name -> (stress scenario?, filter, gamma, MC runs), all at seed 3 and 40
#: steps: the benchmark's workloads of the same names, with fewer runs.
WORKLOADS = {"ref-pmb-g1": (False, EK_PMB, 1, 2),
             "ref-pmb-g10": (False, EK_PMB, 10, 2),
             "clutter-pmbm-g10": (True, EK_PMBM, 10, 1)}
SEED = 3

BENCH_WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
                   / "bench_workloads.py")


def stress_scenario(seed: int):
    """The benchmark's clutter stress scenario, read from ``perfbench/``."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.stress_scenario(seed)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_calls_per_step_within_budget(name):
    versions = {"python": platform.python_version(),
                "numpy": np.__version__}
    if versions != MEASURED_UNDER:
        pytest.skip(f"WORK_BUDGET was counted under Python "
                    f"{MEASURED_UNDER['python']} and numpy "
                    f"{MEASURED_UNDER['numpy']}; this is Python "
                    f"{versions['python']} and numpy {versions['numpy']}")
    stress, filter_kind, gamma, runs = WORKLOADS[name]
    scenario = (stress_scenario(SEED) if stress
                else default_scenario(seed=SEED))
    cfg = build_filter_config(scenario, RunConfig(filter_kind=filter_kind,
                                                  gamma=gamma))
    c_calls, py_calls, steps = update_step_calls(scenario, cfg, SEED, runs)
    assert steps == runs * scenario.steps
    per_step = round((c_calls + py_calls) / steps, 1)
    assert per_step <= WORK_BUDGET[name], (
        f"{name}: {per_step} calls per step ({c_calls / steps:.1f} C, "
        f"{py_calls / steps:.1f} Python), budget {WORK_BUDGET[name]}")
