"""rfslam benchmark: seeded Monte-Carlo campaigns through ``rfslam.cli.run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``
directory.  A run executes about ``S`` seconds of campaigns (``jobs=1``) of
one workload, checks their outputs and prints the metrics, one per line with
its unit, then a record of the workload identity and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
first half of the campaigns runs untraced and then traced, which gives the
per-layer ones.  See
``perfbench/README.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: the matrices are at most
# about 60x60, so on a 2-core VM threads would only measure the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = Path(".bench_out")   # relative to ROOT, so report hashes are too

sys.path[:0] = [str(SRC), str(BENCH_DIR)]
import rfslam  # noqa: E402

# A checkout without sources must fail, not fall back to an installed copy.
if Path(rfslam.__file__).resolve().parent != SRC / "rfslam":
    raise ImportError(f"rfslam was imported from {rfslam.__file__}, "
                      f"not from {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg import cho_factor, cho_solve  # noqa: E402

import rfslam.cli as cli  # noqa: E402
from bench_trace import Tracer, layer_metrics, traced  # noqa: E402
from bench_workloads import STEPS, WORKLOADS, Workload, prepare  # noqa: E402

#: Metric names and units come from BENCHMARK.json, so the two cannot drift.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {mode: {m["name"]: m["unit"] for m in SPEC[key]}
         for mode, key in ((False, "end_to_end"), (True, "per_layer"))}


#: The host-speed kernel's loop count, and its wall time on the reference
#: 2-core VM when the host is quiet.  Campaign and update timings are
#: divided by the kernel's slowdown against that time (see README.md).
HOST_LOOPS = 1200
HOST_REF_S = 0.03

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Share of MC runs cut from each end before averaging final GOSPA: one
#: missed landmark adds about 14 m to a run, which a plain mean would mostly
#: count.
GOSPA_TRIM = 0.1
#: Filter sanity limits: above them the filter no longer tracks.
MAX_POS_RMSE_M = 1.0
MAX_GOSPA_M = 5.0
#: The stress workload must keep a hypothesis mixture entering the update.
MIN_STRESS_HYPOTHESES = 1.5

_SETUP_CODE = (
    "import sys\n"
    "from pathlib import Path\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import bench_workloads as w\n"
    "w.prepare(w.WORKLOADS[sys.argv[3]], int(sys.argv[4]), Path(sys.argv[5]))\n"
)


def host_seconds() -> float:
    """Wall time of a fixed kernel shaped like the filter's inner loop.

    Small Cholesky solves, matrix products and Python bookkeeping, with no
    rfslam code, so a change to the program cannot change it.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    cov = a @ a.T + 5.0 * np.eye(5)
    v = rng.standard_normal(5)
    sums = {}
    start = time.perf_counter()
    for i in range(HOST_LOOPS):
        x = cho_solve(cho_factor(cov, lower=True), v)
        sums[i % 7] = sums.get(i % 7, 0.0) + float(x @ (cov @ v))
    return time.perf_counter() - start


class RunProbe:
    """Pass-through for ``rfslam.cli.run_single`` (looked up per MC run).

    Counts runs started, keeps the per-step ``ms_update`` the program
    measures itself, and records any exception before re-raising it.  After
    each run it times the host-speed kernel, so that the run's timings can
    be divided by the host's slowdown while it ran.
    """

    def __init__(self, inner):
        self.inner = inner
        self.started = 0
        self.failed = 0
        self.errors = []
        self.ms_update = []      # as the program measured them
        self.ms_scaled = []      # divided by their run's host slowdown
        self.run_s = 0.0         # wall time of completed runs
        self.scaled_s = 0.0      # the same, each run divided by its slowdown
        self.kernel_s = 0.0      # wall time spent in the host-speed kernel
        self.host_s = host_seconds()

    def __call__(self, *args, **kwargs):
        self.started += 1
        start = time.perf_counter()
        try:
            out = self.inner(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.errors.append(repr(exc))
            raise
        wall = time.perf_counter() - start
        before = self.host_s
        start = time.perf_counter()
        self.host_s = host_seconds()
        self.kernel_s += time.perf_counter() - start
        slowdown = (before + self.host_s) / (2.0 * HOST_REF_S)
        self.ms_update.extend(out["ms_update"])
        self.ms_scaled.extend(ms / slowdown for ms in out["ms_update"])
        self.run_s += wall
        self.scaled_s += wall / slowdown
        return out


@dataclass
class Campaign:
    config: cli.RunConfig
    wall_s: float           # cli.run wall time, host-speed kernel left out
    slowdown: float         # host slowdown over its runs, time-weighted
    report_hash: str
    scenario_hash: str
    rmse_position: float
    final_va: list
    final_sp: list
    ms_update: list
    ms_scaled: list
    problems: list = field(default_factory=list)


def report_hash(report: dict) -> str:
    view = cli.deterministic_report_view(report)
    return hashlib.sha256(json.dumps(view, sort_keys=True).encode()).hexdigest()


def _check_report(report: dict, config: cli.RunConfig) -> list:
    problems = []
    if report.get("schema") != cli.REPORT_SCHEMA:
        problems.append("unexpected report schema")
    if report.get("config") != config.to_dict():
        problems.append("report config echo differs from the RunConfig")
    if len(report["runs"]) != config.mc_runs:
        problems.append("report holds the wrong number of runs")
    if report["per_step"]["step"] != list(range(1, STEPS + 1)):
        problems.append("report holds the wrong steps")
    values = [report["rmse"]["position"], *report["gospa_final"].values()]
    if not all(np.isfinite(values)):
        problems.append("non-finite accuracy figures")
    return problems


def run_campaign(config: cli.RunConfig, probe: RunProbe) -> Campaign:
    """One campaign through the user path; raises what the program raises."""
    first = len(probe.ms_update)
    run_s, scaled_s, kernel_s = probe.run_s, probe.scaled_s, probe.kernel_s
    start = time.perf_counter()
    report = cli.run(config)
    wall = time.perf_counter() - start - (probe.kernel_s - kernel_s)
    slowdown = (probe.run_s - run_s) / (probe.scaled_s - scaled_s)
    runs = report["runs"]
    return Campaign(config, wall, slowdown, report_hash(report),
                    report["scenario_hash"], report["rmse"]["position"],
                    [r["gospa_va"][-1] for r in runs],
                    [r["gospa_sp"][-1] for r in runs],
                    probe.ms_update[first:], probe.ms_scaled[first:],
                    _check_report(report, config))


def campaign_configs(workload: Workload, seed: int, seconds: int) -> list:
    """The run's campaigns: about ``seconds`` of work, fixed by the seed."""
    count = max(1, round(seconds / workload.campaign_s))
    base = prepare(workload, seed, OUT_DIR / workload.name / f"seed{seed}")
    # Campaign j draws its MC realizations from RunConfig seed 1000*seed + j.
    return [replace(base, seed=1000 * seed + j, out_dir=f"{base.out_dir}{j}")
            for j in range(count)]


def setup_seconds(workload: Workload, seed: int) -> float:
    """Median wall time of fresh interpreters importing and preparing."""
    work_dir = OUT_DIR / workload.name / f"seed{seed}" / "setup"
    argv = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(BENCH_DIR),
            workload.name, str(seed), str(work_dir)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class CampaignRunner:
    """Campaigns of one benchmark run, with failures counted, not fatal."""

    def __init__(self):
        self.probe = RunProbe(cli.run_single)
        self.problems = []
        self.totals = {}

    def campaign(self, config: cli.RunConfig):
        cli.run_single = self.probe
        try:
            return run_campaign(config, self.probe)
        except Exception as exc:   # counted as failed; the run goes on
            self.problems.append(f"campaign seed {config.seed} raised {exc!r}")
            return None
        finally:
            cli.run_single = self.probe.inner

    def campaigns(self, configs) -> list:
        done = [self.campaign(c) for c in configs]
        return [c for c in done if c is not None]


def _same_outputs(a: list, b: list, what: str) -> list:
    hashes = {c.config.seed: c.report_hash for c in a}
    return [f"campaign seed {c.config.seed}: {what} report hash differs"
            for c in b if hashes.get(c.config.seed, c.report_hash)
            != c.report_hash]


def _trimmed_mean(values: list) -> float:
    ordered = np.sort(values)
    cut = int(GOSPA_TRIM * len(ordered))
    return float(ordered[cut:len(ordered) - cut].mean())


def end_to_end_metrics(done: list, setup_s: float) -> dict:
    samples = np.array([ms for c in done for ms in c.ms_scaled])
    walls = sum(c.wall_s / c.slowdown for c in done)
    steps = sum(c.config.mc_runs for c in done) * STEPS
    return {
        "steps_per_s": steps / walls,
        "update_ms_p50": float(np.percentile(samples, 50)),
        "update_ms_p95": float(np.percentile(samples, 95)),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pos_rmse_m": float(np.sqrt(np.mean([c.rmse_position ** 2
                                             for c in done]))),
        "gospa_va_final_m": _trimmed_mean([v for c in done
                                           for v in c.final_va]),
        "gospa_sp_final_m": _trimmed_mean([v for c in done
                                           for v in c.final_sp]),
    }


def _accuracy_problems(metrics: dict) -> list:
    problems = []
    if not metrics["pos_rmse_m"] < MAX_POS_RMSE_M:
        problems.append(f"position RMSE {metrics['pos_rmse_m']} m: the "
                        f"filter lost the sensor")
    for name in ("gospa_va_final_m", "gospa_sp_final_m"):
        if not metrics[name] < MAX_GOSPA_M:
            problems.append(f"{name} {metrics[name]} m: the map is lost")
    return problems


def machine_info() -> dict:
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def _layer_run(workload: Workload, configs: list, done: list,
               runner: CampaignRunner) -> dict:
    """Trace the same campaigns again; per-layer metrics and their checks."""
    tracer = Tracer()
    with traced(tracer):
        traced_done = runner.campaigns(configs)
    runner.problems += _same_outputs(done, traced_done, "traced")
    metrics = layer_metrics(tracer)
    untraced_s = {c.config.seed: c.wall_s / c.slowdown for c in done}
    pairs = [(c.wall_s / c.slowdown, untraced_s[c.config.seed])
             for c in traced_done if c.config.seed in untraced_s]
    metrics["trace.overhead_frac"] = (sum(t for t, _ in pairs)
                                      / sum(u for _, u in pairs) - 1.0)
    stage_ms = tracer.child_ms("update.update_step")
    update_ms = sum(sum(c.ms_update) for c in traced_done)
    runner.totals.update(traced_stage_ms=stage_ms, traced_ms_update=update_ms)
    if stage_ms > update_ms:
        runner.problems.append(
            f"traced stages take {stage_ms} ms, more than the program's own "
            f"ms_update total {update_ms} ms")
    hypotheses = metrics["density.hyp_per_step"]
    if workload.stress and hypotheses <= MIN_STRESS_HYPOTHESES:
        runner.problems.append(f"stress workload lost its mixture: "
                               f"{hypotheses} hypotheses per step")
    return metrics


def measure(workload: Workload, seed: int, seconds: int, trace: bool):
    """One benchmark run: ``(result line, record of the run)``."""
    configs = campaign_configs(workload, seed, seconds)
    runner = CampaignRunner()
    setup_s = None if trace else setup_seconds(workload, seed)
    # Warm-up: a one-run campaign, twice, whose report hashes must agree.
    warm = replace(configs[0], mc_runs=1, out_dir=f"{configs[0].out_dir}w")
    runner.problems += _same_outputs(runner.campaigns([warm]),
                                     runner.campaigns([warm]), "repeated")
    if trace:
        configs = configs[:max(1, len(configs) // 2)]
    done = runner.campaigns(configs)
    for c in done:
        runner.problems += c.problems
    metrics = {}
    probe = runner.probe
    if trace and done:
        metrics = _layer_run(workload, configs, done, runner)
        metrics["failed_frac"] = probe.failed / probe.started
    elif done:
        metrics = end_to_end_metrics(done, setup_s)
        runner.problems += _accuracy_problems(metrics)
    units = UNITS[trace]
    if metrics and set(metrics) != set(units):
        raise RuntimeError("metrics differ from those BENCHMARK.json names")
    result = {
        "correct": bool(metrics) and not runner.problems,
        "attempted": max(1, probe.started), "failed": probe.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    samples = [s for c in done for s in c.ms_update]
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "machine": machine_info(),
        "run_config": done[0].config.to_dict() if done else None,
        "campaigns": [{"seed": c.config.seed, "report_hash": c.report_hash,
                       "scenario_hash": c.scenario_hash, "wall_s": c.wall_s,
                       "host_slowdown": c.slowdown}
                      for c in done],
        "update_samples": len(samples), **runner.totals,
        "problems": runner.problems, "errors": probe.errors,
    }
    if not trace and metrics:
        raw = np.array(samples)
        record["update_samples_beyond_p95"] = int(np.sum(
            raw > np.percentile(raw, 95)))
        # The same figures without the host-speed scaling.
        record["wall_clock"] = {
            "steps_per_s": STEPS * sum(c.config.mc_runs for c in done)
            / sum(c.wall_s for c in done),
            "update_ms_p50": float(np.percentile(raw, 50)),
            "update_ms_p95": float(np.percentile(raw, 95))}
    return result, record


def _print_report(result: dict, record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  campaigns {len(record['campaigns'])}  "
          f"update samples {record['update_samples']}"
          + (f" ({record['update_samples_beyond_p95']} beyond p95)"
             if "update_samples_beyond_p95" in record else ""))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    os.chdir(ROOT)
    result, record = measure(WORKLOADS[args.workload], args.seed,
                             args.seconds, bool(args.trace))
    out = OUT_DIR / args.workload / f"seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "record": record}, indent=2) + "\n")
    _print_report(result, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
