"""Batch experiment runner: seeded Monte-Carlo campaigns and report export.

``rfslam run`` simulates the scenario, runs the selected filter over every
Monte-Carlo realization, and writes a metrics CSV, a JSON report, and SVG
plots.  ``rfslam compare`` builds a side-by-side table from run reports of
the same scenario.

Exit codes: 2 configuration error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .association import InfeasibleAssignmentError
from .density import (
    Bernoulli,
    DegenerateDensityError,
    GaussianComponent,
    GlobalHypothesis,
    LandmarkBelief,
    PmbmDensity,
    TypeComponent,
    default_ppp_intensity,
)
from .geometry import ChannelModel, LandmarkType, wrap_angle
from .metrics import (
    GospaParams,
    extract_map,
    gospa,
    mae_per_step,
    rmse,
)
from .sim import (
    MAX_CAMPAIGN_STEPS,
    Scenario,
    _object,
    _read_json,
    _typed,
    default_scenario,
    generate_measurements,
    load_scenario,
    save_scenario,
    scenario_to_dict,
    simulate_trajectory,
)
from .svgplot import save_chart
from .update import EK_PMB, EK_PMBM, FilterConfig, predict_step, update_step

REPORT_SCHEMA = "rfslam-report/v1"

METRICS_HEADER = ("step,gospa_va,gospa_sp,mae_pos,mae_heading,mae_bias,"
                  "ms_predict,ms_update")

#: Columns of the metrics CSV that carry wall-clock values; everything else
#: is bit-reproducible for a fixed (config, seed).
TIMING_COLUMNS = ("ms_predict", "ms_update")

#: The existence from which a landmark enters the estimated map.
EXTRACT_THRESHOLD = 0.5


class ConfigError(ValueError):
    """Invalid run configuration or scenario content."""


#: Each config file key: (RunConfig field, JSON types, echoed in the report).
#: An int for a float key is kept as written; out and jobs are environment.
_CONFIG_KEYS = {
    "scenario": ("scenario", (str,), True),
    "filter": ("filter_kind", (str,), True),
    "gamma": ("gamma", (int,), True),
    "mc": ("mc_runs", (int,), True),
    "seed": ("seed", (int,), True),
    "out": ("out_dir", (str,), False),
    "mm": ("multi_model", (bool,), True),
    "noise_toa": ("noise_toa", (float, int, type(None)), True),
    "noise_angle": ("noise_angle", (float, int, type(None)), True),
    "jobs": ("jobs", (int,), False)}


@dataclass(frozen=True)
class RunConfig:
    """One Monte-Carlo campaign: scenario, filter selection, output target."""

    scenario: str = "default"
    filter_kind: str = EK_PMB
    gamma: int = 10
    mc_runs: int = 100
    seed: int = 0
    out_dir: str = "."
    multi_model: bool = True
    noise_toa: float | None = None
    noise_angle: float | None = None
    jobs: int = 1

    def __post_init__(self):
        # Built in library code, a field gets the config reader's type check.
        for key, (name, kinds, _) in _CONFIG_KEYS.items():
            try:
                _typed(key, getattr(self, name), kinds)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if not 1 <= self.mc_runs <= MAX_CAMPAIGN_STEPS:
            raise ConfigError(f"mc_runs must be >= 1 and <= "
                              f"{MAX_CAMPAIGN_STEPS}")
        if self.gamma < 1:
            raise ConfigError("gamma must be >= 1")
        if self.filter_kind not in (EK_PMB, EK_PMBM):
            raise ConfigError(f"unknown filter kind {self.filter_kind!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        # A None noise std keeps the scenario's; any other overrides it, and
        # the scenario refuses a std whose square is not a finite, positive
        # variance.
        for name in ("noise_toa", "noise_angle"):
            std = getattr(self, name)
            if std is not None and not (math.isfinite(std) and std > 0.0):
                raise ConfigError(f"{name} must be finite and > 0")
            if std is not None and not 0.0 < float(std) * float(std) < math.inf:
                raise ConfigError(f"{name} must square to a variance finite "
                                  "and > 0")

    def to_dict(self) -> dict:
        return {key: getattr(self, name)
                for key, (name, _, echoed) in _CONFIG_KEYS.items() if echoed}


def _resolve_scenario(config: RunConfig) -> Scenario:
    if config.scenario == "default":
        scenario = default_scenario(seed=config.seed)
    else:
        try:
            scenario = load_scenario(config.scenario)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid scenario file: {exc}") from exc
    noise = scenario.noise_std.copy()
    if config.noise_toa is not None:
        noise[0] = config.noise_toa
    if config.noise_angle is not None:
        noise[1:] = config.noise_angle
    return replace(scenario, noise_std=noise)


def scenario_hash(scenario: Scenario) -> str:
    doc = json.dumps(scenario_to_dict(scenario), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def build_filter_config(scenario: Scenario, config: RunConfig) -> FilterConfig:
    model = ChannelModel(scenario.bs.position, p_detect=dict(scenario.p_detect),
                         fov_radius=scenario.fov_radius)
    return FilterConfig(
        model=model,
        process_noise=scenario.process_noise,
        speed=scenario.speed,
        turn_rate=scenario.turn_rate,
        dt=scenario.dt,
        gamma=config.gamma,
        filter_kind=config.filter_kind,
        clutter_intensity=scenario.clutter_intensity,
        multi_model=config.multi_model,
    )


def initial_state(scenario: Scenario):
    """Prior density (known BS anchor) and sensor belief at k = 0."""
    anchor = Bernoulli(1.0, LandmarkBelief({
        LandmarkType.BS: TypeComponent(1.0, scenario.bs.position,
                                       1e-6 * np.eye(3))}))
    density = PmbmDensity(default_ppp_intensity(),
                          (GlobalHypothesis(1.0, (anchor,), None),))
    sensor = GaussianComponent(scenario.ue_init.mean.copy(),
                               scenario.ue_init.covariance.copy())
    return density, sensor


#: Failures of the filter's numerics: exit code 4.
NUMERICAL_ERRORS = (np.linalg.LinAlgError, DegenerateDensityError,
                    InfeasibleAssignmentError)


def run_single(scenario: Scenario, filter_cfg: FilterConfig, seed: int,
               run_index: int, extract_threshold: float) -> dict:
    """One Monte-Carlo realization; returns per-step estimates and timing.

    A numerical failure is raised again as its own type with the MC run
    index and the 1-based step appended to its message.
    """
    rng = np.random.default_rng([seed, run_index])
    trajectory = simulate_trajectory(scenario, rng)
    density, sensor = initial_state(scenario)
    va_truth = np.array([va.position for va, _ in scenario.vas])
    sp_truth = np.array([sp.position for sp in scenario.sps])
    params = GospaParams()
    out = {"estimates": [], "truth": [], "gospa_va": [], "gospa_sp": [],
           "gospa_va_parts": [], "gospa_sp_parts": [],
           "ms_predict": [], "ms_update": []}
    for k in range(1, scenario.steps + 1):
        truth = trajectory[k]
        zset = generate_measurements(truth, scenario, rng)
        t0 = time.perf_counter()
        try:
            density_pred, sensor_pred = predict_step(density, sensor,
                                                     filter_cfg)
            t1 = time.perf_counter()
            density, sensor = update_step(density_pred, sensor_pred,
                                          list(zset.measurements), filter_cfg)
        except NUMERICAL_ERRORS as exc:
            # Same type, so main still maps it to exit 4, and a plain message
            # argument, so it pickles back from a worker process.
            raise type(exc)(f"{exc} (MC run {run_index}, step {k})") from exc
        t2 = time.perf_counter()
        landmarks = extract_map(density, extract_threshold)
        est_va = [pos for pos, kind in landmarks if kind is LandmarkType.VA]
        est_sp = [pos for pos, kind in landmarks if kind is LandmarkType.SP]
        d_va, va_parts = gospa(est_va, va_truth, params)
        d_sp, sp_parts = gospa(est_sp, sp_truth, params)
        out["estimates"].append([float(v) for v in sensor.mean])
        out["truth"].append([float(v) for v in truth.as_vector()])
        out["gospa_va"].append(float(d_va))
        out["gospa_sp"].append(float(d_sp))
        out["gospa_va_parts"].append([va_parts["localization"],
                                      va_parts["missed"], va_parts["false"]])
        out["gospa_sp_parts"].append([sp_parts["localization"],
                                      sp_parts["missed"], sp_parts["false"]])
        out["ms_predict"].append((t1 - t0) * 1e3)
        out["ms_update"].append((t2 - t1) * 1e3)
    return out


def _worker(args):
    scenario, filter_cfg, seed, run_index, threshold = args
    return run_single(scenario, filter_cfg, seed, run_index, threshold)


def run(config: RunConfig) -> dict:
    """Execute the Monte-Carlo campaign and write all outputs.

    Returns the report document (also written to ``report.json``).
    """
    scenario = _resolve_scenario(config)
    if config.mc_runs * scenario.steps > MAX_CAMPAIGN_STEPS:
        raise ConfigError(f"mc_runs x steps must be <= {MAX_CAMPAIGN_STEPS}, "
                          f"not {config.mc_runs} x {scenario.steps}")
    filter_cfg = build_filter_config(scenario, config)
    tasks = [(scenario, filter_cfg, config.seed, i, EXTRACT_THRESHOLD)
             for i in range(config.mc_runs)]
    # More workers than runs or cores cannot help; each MC run seeds its own
    # generator, so the worker count never changes the report.
    workers = min(config.jobs, config.mc_runs, os.cpu_count() or 1)
    if workers == 1:
        runs = [_worker(task) for task in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers) as pool:
            runs = list(pool.map(_worker, tasks))

    steps = scenario.steps
    est = np.array([r["estimates"] for r in runs])   # (mc, steps, 5)
    tru = np.array([r["truth"] for r in runs])
    pos_err = np.linalg.norm(est[:, :, :3] - tru[:, :, :3], axis=2)
    heading_err = wrap_angle(est[:, :, 3] - tru[:, :, 3])
    bias_err = est[:, :, 4] - tru[:, :, 4]
    gospa_va = np.array([r["gospa_va"] for r in runs])
    gospa_sp = np.array([r["gospa_sp"] for r in runs])
    ms_predict = np.array([r["ms_predict"] for r in runs])
    ms_update = np.array([r["ms_update"] for r in runs])

    va_parts = np.array([r["gospa_va_parts"] for r in runs]).mean(axis=0)
    sp_parts = np.array([r["gospa_sp_parts"] for r in runs]).mean(axis=0)
    decomposition = {
        label: {"localization": parts[:, 0].tolist(),
                "missed": parts[:, 1].tolist(),
                "false": parts[:, 2].tolist()}
        for label, parts in (("va", va_parts), ("sp", sp_parts))
    }
    per_step = {
        "step": list(range(1, steps + 1)),
        "gospa_va": gospa_va.mean(axis=0).tolist(),
        "gospa_sp": gospa_sp.mean(axis=0).tolist(),
        "gospa_decomposition": decomposition,
        "mae_pos": mae_per_step(pos_err).tolist(),
        "mae_heading": mae_per_step(heading_err).tolist(),
        "mae_bias": mae_per_step(bias_err).tolist(),
    }
    report = {
        "schema": REPORT_SCHEMA,
        "config": config.to_dict(),
        "scenario_hash": scenario_hash(scenario),
        "rmse": {
            "position": rmse(pos_err),
            "heading": rmse(heading_err),
            "bias": rmse(bias_err),
        },
        "gospa_final": {"va": per_step["gospa_va"][-1],
                        "sp": per_step["gospa_sp"][-1]},
        "per_step": per_step,
        "runs": [{"estimates": r["estimates"], "truth": r["truth"],
                  "gospa_va": r["gospa_va"], "gospa_sp": r["gospa_sp"]}
                 for r in runs],
        "timing": {
            "per_step_ms_predict": ms_predict.mean(axis=0).tolist(),
            "per_step_ms_update": ms_update.mean(axis=0).tolist(),
            "mean_ms_predict": float(ms_predict.mean()),
            "mean_ms_update": float(ms_update.mean()),
            "mean_ms_total": float(ms_predict.mean() + ms_update.mean()),
        },
    }

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(out_dir / "metrics.csv", report)
    write_report(out_dir / "report.json", report)
    write_gospa_decomposition_csv(out_dir / "gospa_decomposition.csv",
                                  per_step["step"], decomposition)
    write_rmse_csv(out_dir / "rmse.csv", report["rmse"])
    save_scenario(scenario, out_dir / "scenario.json")
    xs = per_step["step"]
    save_chart(out_dir / "gospa_vs_step.svg",
               [("VA", xs, per_step["gospa_va"]),
                ("SP", xs, per_step["gospa_sp"])],
               "Mapping error vs time", "time step", "GOSPA distance [m]")
    save_chart(out_dir / "mae_vs_step.svg",
               [("position [m]", xs, per_step["mae_pos"]),
                ("heading [rad]", xs, per_step["mae_heading"]),
                ("clock bias [m]", xs, per_step["mae_bias"])],
               "State estimation error vs time", "time step", "MAE")
    return report


def _csv_text(header: str, rows) -> str:
    """A CSV table: the header line, then one line per row of cells.  A
    float's ``str`` is its ``repr``, so every value is written exactly."""
    return "".join(line + "\n" for line in
                   [header] + [",".join(map(str, row)) for row in rows])


def _write_csv(path, header: str, rows) -> None:
    Path(path).write_text(_csv_text(header, rows))


def write_metrics_csv(path, report: dict) -> None:
    per_step, timing = report["per_step"], report["timing"]
    columns = [per_step[k] for k in ("gospa_va", "gospa_sp", "mae_pos",
                                     "mae_heading", "mae_bias")]
    columns += [timing["per_step_ms_predict"], timing["per_step_ms_update"]]
    _write_csv(path, METRICS_HEADER, zip(per_step["step"], *columns))


def write_gospa_decomposition_csv(path, steps, parts_by_type) -> None:
    """Per-step GOSPA decomposition, one column group per landmark type.

    ``parts_by_type`` maps a type label to a dict with per-step lists under
    "localization", "missed" and "false".
    """
    columns = [(label, part) for label in sorted(parts_by_type)
               for part in ("localization", "missed", "false")]
    _write_csv(path, ",".join(["step"] + [f"{label}_{part}"
                                          for label, part in columns]),
               zip(steps, *(parts_by_type[label][part]
                            for label, part in columns)))


def write_rmse_csv(path, rmse_by_quantity: dict) -> None:
    """Final RMSE table: one row per estimated quantity."""
    _write_csv(path, "quantity,rmse", sorted(rmse_by_quantity.items()))


def write_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path) -> dict:
    """A run report that :func:`compare` can read; any other file is a
    ConfigError naming it."""
    try:
        report = _read_json(path)
        if report["schema"] != REPORT_SCHEMA:
            raise ValueError(f"unsupported schema {report['schema']!r}")
        compare([report, report])  # reads every field a comparison needs
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path} is not a run report: {exc!r}") from exc
    return report


def deterministic_metrics_view(csv_text: str) -> str:
    """The metrics CSV with wall-clock columns removed (bit-reproducible part)."""
    header = csv_text.splitlines()[0].split(",")
    keep = [i for i, name in enumerate(header) if name not in TIMING_COLUMNS]
    rows = []
    for line in csv_text.strip().splitlines():
        cells = line.split(",")
        rows.append(",".join(cells[i] for i in keep))
    return "\n".join(rows) + "\n"


def deterministic_report_view(report: dict) -> dict:
    """The report without its wall-clock subtree (bit-reproducible part)."""
    return {k: v for k, v in report.items() if k != "timing"}


def compare(reports: list) -> tuple[str, str]:
    """Side-by-side comparison of run reports: (csv text, formatted text).

    Refuses reports from different scenarios.
    """
    if len(reports) < 2:
        raise ConfigError("compare needs at least two reports")
    hashes = {r["scenario_hash"] for r in reports}
    if len(hashes) != 1:
        raise ConfigError("reports come from different scenarios; "
                          "comparison refused")
    labels = [f"{r['config']['filter']}(gamma={r['config']['gamma']})"
              for r in reports]
    rows = [
        ("position_rmse_m", [r["rmse"]["position"] for r in reports]),
        ("heading_rmse_rad", [r["rmse"]["heading"] for r in reports]),
        ("bias_rmse_m", [r["rmse"]["bias"] for r in reports]),
        ("final_gospa_va_m", [r["gospa_final"]["va"] for r in reports]),
        ("final_gospa_sp_m", [r["gospa_final"]["sp"] for r in reports]),
        ("mean_ms_predict", [r["timing"]["mean_ms_predict"] for r in reports]),
        ("mean_ms_update", [r["timing"]["mean_ms_update"] for r in reports]),
        ("mean_ms_total", [r["timing"]["mean_ms_total"] for r in reports]),
    ]
    csv_text = _csv_text("metric," + ",".join(labels),
                         [(name, *values) for name, values in rows])
    width = max(len(name) for name, _ in rows) + 2
    col = max(max(len(lbl) for lbl in labels) + 2, 14)
    text_lines = [" " * width + "".join(lbl.rjust(col) for lbl in labels)]
    for name, values in rows:
        text_lines.append(name.ljust(width)
                          + "".join(f"{v:.4f}".rjust(col) for v in values))
    return csv_text, "\n".join(text_lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfslam",
        description="Radio-SLAM filter experiments: PMB/PMBM with joint "
                    "extended-Kalman updates.")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a Monte-Carlo campaign")
    runp.add_argument("--config", metavar="PATH",
                      help="JSON file with RunConfig fields; flags override")
    runp.add_argument("--filter", choices=[EK_PMB, EK_PMBM], dest="filter_kind")
    runp.add_argument("--gamma", type=int)
    runp.add_argument("--mc", type=int, dest="mc_runs")
    runp.add_argument("--seed", type=int)
    runp.add_argument("--out", dest="out_dir")
    runp.add_argument("--mm", choices=["on", "off"])
    runp.add_argument("--noise-toa", type=float, dest="noise_toa")
    runp.add_argument("--noise-angle", type=float, dest="noise_angle")
    runp.add_argument("--jobs", type=int)

    cmp_p = sub.add_parser("compare", help="compare run reports")
    cmp_p.add_argument("reports", nargs="+", metavar="REPORT_JSON")
    cmp_p.add_argument("--out", dest="out_dir", default=None)
    return parser


def _config_from_sources(args) -> RunConfig:
    values: dict = {}
    if args.config:
        try:
            doc = _object("top level", _read_json(args.config), _CONFIG_KEYS)
            for key, value in doc.items():
                name, kinds, _ = _CONFIG_KEYS[key]
                values[name] = _typed(key, value, kinds)
        except ValueError as exc:
            raise ConfigError(f"invalid config file: {exc}") from exc
    # A flag's dest is the field it sets, and None where it is not given.
    for name, _, _ in _CONFIG_KEYS.values():
        if getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    if args.mm is not None:
        values["multi_model"] = args.mm == "on"
    return RunConfig(**values)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = _config_from_sources(args)
            report = run(config)
            print(f"wrote {config.out_dir}/metrics.csv, "
                  f"gospa_decomposition.csv, rmse.csv, report.json, "
                  f"gospa_vs_step.svg, mae_vs_step.svg")
            print(f"position RMSE: {report['rmse']['position']:.4f} m; "
                  f"mean step time: {report['timing']['mean_ms_total']:.2f} ms")
        elif args.command == "compare":
            reports = [load_report(p) for p in args.reports]
            csv_text, table = compare(reports)
            print(table, end="")
            if args.out_dir:
                out = Path(args.out_dir)
                out.mkdir(parents=True, exist_ok=True)
                (out / "comparison.csv").write_text(csv_text)
                (out / "comparison.txt").write_text(table)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
