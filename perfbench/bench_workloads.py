"""Benchmark workloads: which campaign each one runs, and the stress scenario.

The program only ever sees generated inputs: the reference workloads use the
built-in reference scenario (``RunConfig(scenario="default")``), the stress
workload writes a scenario built here with ``save_scenario`` and hands its
path to ``RunConfig``.  Every input is a function of the workload name and
the ``--seed`` given to the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from rfslam.cli import RunConfig
from rfslam.geometry import Landmark, LandmarkType, Plane, mirror_bs
from rfslam.sim import default_scenario, save_scenario
from rfslam.update import EK_PMB, EK_PMBM

#: Filter steps per Monte-Carlo run on every workload.
STEPS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    filter_kind: str
    gamma: int
    mc_runs: int            # Monte-Carlo runs in one campaign
    campaign_s: float       # nominal wall time of one campaign (2-core VM)
    stress: bool = False    # True: the clutter stress scenario, else reference


WORKLOADS = {w.name: w for w in (
    Workload("ref-pmb-g10",
             "reference scenario, PMB, gamma=10: the paper's headline "
             "configuration; loads the joint EK updates and the PMB "
             "reduction, with one hypothesis per step",
             EK_PMB, 10, mc_runs=4, campaign_s=2.1),
    Workload("ref-pmb-g1",
             "reference scenario, PMB, gamma=1: one association and one joint "
             "update per step, so Murty, joint-update and reduction changes "
             "are bypassed",
             EK_PMB, 1, mc_runs=6, campaign_s=1.9),
    # Not in BENCHMARK.json: its per-run cost depends on a hypothesis
    # mixture that, once formed, persists to the end of the run, so its
    # figures swing far from seed to seed (see README.md).
    Workload("clutter-pmbm-g10",
             "clutter stress scenario, PMBM, gamma=10: a real hypothesis "
             "mixture, larger Murty problems, merge/prune, no reduction",
             EK_PMBM, 10, mc_runs=2, campaign_s=3.6, stress=True),
)}


def stress_scenario(seed: int):
    """Reference walls plus a ground reflector, 8 scatterers, heavy clutter.

    Five virtual anchors; each reference scatterer gets a twin 3 m away,
    which makes re-detections ambiguous; ``clutter_mean`` = 10 and
    ``p_detect`` = 0.6 for every landmark type.  Together they keep several
    global hypotheses alive, which the reference scenario does not.
    """
    base = default_scenario(seed=seed, steps=STEPS)
    ground = Plane([0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    ground_va = Landmark(LandmarkType.VA,
                         mirror_bs(base.bs.position, ground.point, ground.normal))
    twins = tuple(Landmark(LandmarkType.SP, pos) for pos in
                  ([99.0, 3.0, 10.0], [-99.0, -3.0, 10.0],
                   [3.0, 99.0, 10.0], [-3.0, -99.0, 10.0]))
    return replace(base, vas=base.vas + ((ground_va, ground),),
                   sps=base.sps + twins, clutter_mean=10.0,
                   p_detect={kind: 0.6 for kind in LandmarkType})


def prepare(workload: Workload, seed: int, work_dir: Path) -> RunConfig:
    """Build and save the workload's inputs; return the campaign config."""
    work_dir.mkdir(parents=True, exist_ok=True)
    scenario = "default"
    if workload.stress:
        path = work_dir / "scenario_in.json"
        save_scenario(stress_scenario(seed), path)
        scenario = str(path)
    return RunConfig(scenario=scenario, filter_kind=workload.filter_kind,
                     gamma=workload.gamma, mc_runs=workload.mc_runs, seed=seed,
                     out_dir=str(work_dir / "campaign"), jobs=1)

