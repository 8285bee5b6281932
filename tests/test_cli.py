import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfslam import cli
from rfslam.cli import (
    ConfigError,
    METRICS_HEADER,
    RunConfig,
    compare,
    deterministic_metrics_view,
    deterministic_report_view,
    load_report,
    main,
    run,
    scenario_hash,
)
from rfslam.sim import (MAX_CAMPAIGN_STEPS, MAX_CLUTTER_MEAN,
                        default_scenario, save_scenario, scenario_to_dict)


def no_run(*args):
    """``cli.run_single`` for a test whose campaign must be refused first:
    a run that starts regardless fails at once, not after hours."""
    raise AssertionError("the campaign started")


def small_config(**kw):
    defaults = dict(filter_kind="ek-pmb", gamma=2, mc_runs=2, seed=11)
    defaults.update(kw)
    return RunConfig(**defaults)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    report = run(small_config(out_dir=str(out)))
    return out, report


class TestRun:
    def test_writes_all_outputs(self, small_report):
        out, report = small_report
        for name in ("metrics.csv", "report.json", "gospa_vs_step.svg",
                     "mae_vs_step.svg", "gospa_decomposition.csv", "rmse.csv",
                     "scenario.json"):
            assert (out / name).exists()
        assert report["schema"] == "rfslam-report/v1"
        assert len(report["per_step"]["step"]) == 40

    def test_decomposition_csv_consistent(self, small_report):
        out, report = small_report
        lines = (out / "gospa_decomposition.csv").read_text().strip().splitlines()
        assert lines[0] == ("step,sp_localization,sp_missed,sp_false,"
                            "va_localization,va_missed,va_false")
        assert len(lines) == 41
        # Decomposition terms recombine to the reported distance (power 2).
        parts = report["per_step"]["gospa_decomposition"]["va"]
        per_run = np.array([r["gospa_va"] for r in report["runs"]])
        assert len(parts["localization"]) == 40
        rmse_csv = (out / "rmse.csv").read_text().strip().splitlines()
        assert rmse_csv[0] == "quantity,rmse"
        assert len(rmse_csv) == 4

    def test_metrics_header(self, small_report):
        out, _ = small_report
        text = (out / "metrics.csv").read_text()
        assert text.splitlines()[0] == METRICS_HEADER
        assert len(text.strip().splitlines()) == 41

    def test_report_schema_roundtrip_is_byte_stable(self, small_report, tmp_path):
        out, _ = small_report
        original = (out / "report.json").read_bytes()
        report = load_report(out / "report.json")
        from rfslam.cli import write_report
        write_report(tmp_path / "again.json", report)
        assert (tmp_path / "again.json").read_bytes() == original

    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(small_config(out_dir=str(a), mc_runs=2))
        run(small_config(out_dir=str(b), mc_runs=2))
        va = deterministic_metrics_view((a / "metrics.csv").read_text())
        vb = deterministic_metrics_view((b / "metrics.csv").read_text())
        assert va == vb
        ra = deterministic_report_view(json.loads((a / "report.json").read_text()))
        rb = deterministic_report_view(json.loads((b / "report.json").read_text()))
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
        assert (a / "gospa_vs_step.svg").read_bytes() == \
            (b / "gospa_vs_step.svg").read_bytes()

    def test_seed_changes_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(small_config(out_dir=str(a)))
        run(small_config(out_dir=str(b), seed=12))
        assert deterministic_metrics_view((a / "metrics.csv").read_text()) != \
            deterministic_metrics_view((b / "metrics.csv").read_text())

    def test_structural_identity_gamma1(self, tmp_path):
        a = tmp_path / "pmb"
        b = tmp_path / "pmbm"
        run(small_config(out_dir=str(a), filter_kind="ek-pmb", gamma=1,
                         mc_runs=3))
        run(small_config(out_dir=str(b), filter_kind="ek-pmbm", gamma=1,
                         mc_runs=3))
        assert deterministic_metrics_view((a / "metrics.csv").read_text()) == \
            deterministic_metrics_view((b / "metrics.csv").read_text())

    def test_parallel_jobs_match_sequential(self, tmp_path):
        a = tmp_path / "seq"
        b = tmp_path / "par"
        run(small_config(out_dir=str(a), mc_runs=3, jobs=1))
        run(small_config(out_dir=str(b), mc_runs=3, jobs=2))
        assert deterministic_metrics_view((a / "metrics.csv").read_text()) == \
            deterministic_metrics_view((b / "metrics.csv").read_text())

    @pytest.mark.parametrize("jobs, mc_runs, cpus, workers", [
        (10_000, 3, 8, 3), (4, 3, 2, 2), (3, 3, None, 1), (2, 1, 8, 1),
        (1, 3, 8, 1)])
    def test_worker_count_is_bounded(self, tmp_path, monkeypatch, jobs,
                                     mc_runs, cpus, workers):
        # min(jobs, mc_runs, cpu_count() or 1) workers, and none at all
        # (in-process) for one.  The pool runs its tasks in-process here.
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        got = run(small_config(out_dir=str(tmp_path / "a"), gamma=1,
                               mc_runs=mc_runs, jobs=jobs))
        assert pools == ([] if workers == 1 else [workers])
        want = run(small_config(out_dir=str(tmp_path / "b"), gamma=1,
                                mc_runs=mc_runs, jobs=1))
        assert deterministic_report_view(got) == \
            deterministic_report_view(want)

    def test_deterministic_view_strips_timing(self, small_report):
        out, report = small_report
        view = deterministic_metrics_view((out / "metrics.csv").read_text())
        assert "ms_predict" not in view.splitlines()[0]
        assert "timing" not in deterministic_report_view(report)


class TestGoldenOutput:
    """Speed-ups must leave the deterministic report bit-identical.

    The sha256 of ``json.dumps(deterministic_report_view(report),
    sort_keys=True)`` for three reference campaigns.  The values hold for
    the numeric stack the package is developed on (numpy 2.4, scipy 1.17
    with OpenBLAS); a change that moves them changes the filter's output
    and must say so.
    """

    @pytest.mark.parametrize("filter_kind, gamma, digest", [
        ("ek-pmb", 10,
         "b0ec63490d204b2bbe2f2dbebaef1834d65906a30e77e63c2943683fb10ea6a8"),
        ("ek-pmb", 1,
         "174beff598cb716707424c5bdf7dafd723548099bec9ee3d3e08636adec8a806"),
        ("ek-pmbm", 10,
         "e341b5bcc983c499566526f3b8ad540043b5afc97078ee09a297d494e8cb6935"),
    ], ids=["ek-pmb-10", "ek-pmb-1", "ek-pmbm-10"])
    def test_report_hash_pinned(self, tmp_path, filter_kind, gamma, digest):
        report = run(RunConfig(filter_kind=filter_kind, gamma=gamma,
                               mc_runs=5, seed=1, jobs=1,
                               out_dir=str(tmp_path)))
        view = json.dumps(deterministic_report_view(report), sort_keys=True)
        assert hashlib.sha256(view.encode()).hexdigest() == digest

    def test_clutter_heavy_report_hash_pinned(self, tmp_path, monkeypatch):
        # Ten clutter measurements per step: the association and merge
        # bounds reject the most pairs here.  The report echoes the scenario
        # path, so the file is written and named relative to the run
        # directory.
        monkeypatch.chdir(tmp_path)
        save_scenario(replace(default_scenario(seed=1), clutter_mean=10.0),
                      "clutter.json")
        report = run(RunConfig(scenario="clutter.json", filter_kind="ek-pmb",
                               gamma=10, mc_runs=5, seed=1, jobs=1,
                               out_dir=str(tmp_path)))
        view = json.dumps(deterministic_report_view(report), sort_keys=True)
        assert hashlib.sha256(view.encode()).hexdigest() == (
            "94797f6c3a651892c1d7a48ffe0f4d3e06ae291b117d28abfbf8a2ff9835a1c2")


class TestCompare:
    def test_identical_reports_zero_delta(self, small_report):
        _, report = small_report
        csv_text, table = compare([report, report])
        rows = csv_text.strip().splitlines()
        assert rows[0].startswith("metric,")
        for row in rows[1:]:
            cells = row.split(",")
            assert cells[1] == cells[2]
        assert "position_rmse_m" in table

    def test_refuses_mismatched_scenarios(self, small_report, tmp_path):
        _, report = small_report
        other = dict(report)
        other["scenario_hash"] = "0" * 64
        with pytest.raises(ConfigError):
            compare([report, other])

    def test_needs_two_reports(self, small_report):
        _, report = small_report
        with pytest.raises(ConfigError):
            compare([report])


class TestScenarioHash:
    def test_stable_and_sensitive(self):
        a = default_scenario(seed=1)
        b = default_scenario(seed=1)
        c = default_scenario(seed=2)
        assert scenario_hash(a) == scenario_hash(b)
        assert scenario_hash(a) != scenario_hash(c)


class TestMain:
    def test_run_and_compare_cli(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--filter", "ek-pmb", "--gamma", "1", "--mc", "2",
                     "--seed", "5", "--out", str(out_a)]) == 0
        assert main(["run", "--filter", "ek-pmb", "--gamma", "2", "--mc", "2",
                     "--seed", "5", "--out", str(out_b)]) == 0
        assert main(["compare", str(out_a / "report.json"),
                     str(out_b / "report.json"),
                     "--out", str(tmp_path / "cmp")]) == 0
        assert (tmp_path / "cmp" / "comparison.csv").exists()
        captured = capsys.readouterr()
        assert "position_rmse_m" in captured.out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"filter": "ek-pmbm", "gamma": 3,
                                        "mc": 2, "seed": 4, "noise_toa": 1}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--gamma", "1",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["gamma"] == 1
        assert report["config"]["filter"] == "ek-pmbm"
        # An int for a float key is kept as written.
        assert type(report["config"]["noise_toa"]) is int

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2
        bad.write_text(json.dumps({"unknown_key": 1}))
        assert main(["run", "--config", str(bad)]) == 2
        assert main(["run", "--mc", "0", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("doc", [
        {"mc": 2.5}, {"noise_toa": "wide"}, {"mm": "off"}])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mc": 1, "out": str(tmp_path / "o"),
                                   **doc}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc", [
        {"seed": -1}, {"noise_toa": 0.0}, {"noise_toa": -1.0},
        {"noise_toa": math.nan}, {"noise_angle": 0.0},
        {"noise_angle": math.inf}, {"jobs": 0}, {"jobs": -3}], ids=json.dumps)
    def test_out_of_range_config_exits_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mc": 1, "out": str(tmp_path / "o"),
                                   **doc}))
        assert main(["run", "--config", str(cfg)]) == 2
        (key,) = doc
        assert (f"configuration error: {key} must be"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mc", [MAX_CAMPAIGN_STEPS + 1, 10 ** 400])
    def test_mc_above_the_campaign_bound_exits_2(self, tmp_path, capsys,
                                                  monkeypatch, mc):
        monkeypatch.setattr(cli, "run_single", no_run)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mc": %d, "out": "%s"}' % (mc, tmp_path / "o"))
        assert main(["run", "--config", str(cfg)]) == 2
        assert (f"configuration error: mc_runs must be >= 1 and <= "
                f"{MAX_CAMPAIGN_STEPS}" in capsys.readouterr().err)
        assert main(["run", "--mc", str(mc), "--out",
                     str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field, value", [
        ("clutter_mean", 1e19), ("clutter_mean", MAX_CLUTTER_MEAN * 1.5),
        ("steps", MAX_CAMPAIGN_STEPS + 1), ("steps", 10 ** 400)], ids=repr)
    def test_scenario_above_its_bound_exits_2(self, tmp_path, capsys,
                                              monkeypatch, field, value):
        # clutter_mean 1e19 once ended in numpy's "lam value too large";
        # steps had no upper bound at all.
        monkeypatch.setattr(cli, "run_single", no_run)
        doc = scenario_to_dict(default_scenario(seed=1, steps=3))
        doc[field] = value
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert (f"configuration error: invalid scenario file: {field} must "
                f"be >= " in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_bounds_admit_their_own_value(self):
        scenario = replace(default_scenario(seed=1, steps=MAX_CAMPAIGN_STEPS),
                           clutter_mean=MAX_CLUTTER_MEAN)
        assert scenario.steps == MAX_CAMPAIGN_STEPS
        assert RunConfig(mc_runs=MAX_CAMPAIGN_STEPS).mc_runs == \
            MAX_CAMPAIGN_STEPS

    @pytest.mark.parametrize("fields, message", [
        ({"noise_toa": 10 ** 400}, "noise_toa must be a number, not an "
         "integer too large for a float"),
        ({"gamma": 2.5}, "gamma must be an integer, not 2.5"),
        ({"gamma": True}, "gamma must be an integer, not True")],
        ids=["huge noise_toa", "fractional gamma", "bool gamma"])
    def test_library_config_gets_the_readers_type_check(self, fields,
                                                         message):
        with pytest.raises(ConfigError) as info:
            RunConfig(**fields)
        assert str(info.value) == message

    def test_mc_times_steps_above_the_campaign_bound_exits_2(
            self, tmp_path, capsys, monkeypatch):
        # Each within its own bound, together one run record too many.
        monkeypatch.setattr(cli, "run_single", no_run)
        steps = 1000
        doc = scenario_to_dict(default_scenario(seed=1, steps=steps))
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        mc = MAX_CAMPAIGN_STEPS // steps + 1
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": mc,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert (f"configuration error: mc_runs x steps must be <= "
                f"{MAX_CAMPAIGN_STEPS}, not {mc} x {steps}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_config_integer_too_large_for_a_float_exits_2(self, tmp_path,
                                                          capsys):
        # JSON integers have no size limit; float() of this one overflows.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mc": 1, "out": "%s", "noise_toa": 1%s}'
                       % (tmp_path / "o", "0" * 400))
        assert main(["run", "--config", str(cfg)]) == 2
        assert ("configuration error: invalid config file: noise_toa must be "
                "a number, not an integer too large for a float"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_scenario_integer_too_large_for_a_float_exits_2(self, tmp_path,
                                                            capsys):
        doc = scenario_to_dict(default_scenario(seed=1, steps=3))
        doc["speed"] = 10 ** 400
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert ("configuration error: invalid scenario file: speed must be a "
                "number, not an integer too large for a float"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--noise-toa", "--noise-angle"])
    @pytest.mark.parametrize("std", ["1e-200", "1e200"])
    def test_noise_flag_whose_square_is_out_of_range_exits_2(
            self, tmp_path, capsys, flag, std):
        # Finite and > 0, but 1e-200 squares to 0 and 1e200 to inf.
        out = tmp_path / "o"
        assert main(["run", "--mc", "1", "--out", str(out), flag, std]) == 2
        key = flag[2:].replace("-", "_")
        assert (f"configuration error: {key} must square to a variance "
                "finite and > 0" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("std", [1e-200, 1e200])
    def test_scenario_noise_whose_square_is_out_of_range_exits_2(
            self, tmp_path, capsys, std):
        doc = scenario_to_dict(default_scenario(seed=1, steps=3))
        doc["noise_std"] = [std] * 5
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert ("configuration error: invalid scenario file: noise_std must "
                "square to variances finite and > 0"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_infeasible_assignment_exits_4(self, tmp_path, capsys,
                                           monkeypatch):
        import rfslam.cli
        from rfslam.association import InfeasibleAssignmentError

        def infeasible(*args, **kwargs):
            raise InfeasibleAssignmentError("no finite cost")

        monkeypatch.setattr(rfslam.cli, "update_step", infeasible)
        assert main(["run", "--mc", "1", "--out", str(tmp_path)]) == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_zero_clutter_failed_inversion_exits_4(self, tmp_path, capsys):
        # With no clutter and a 100 m TOA noise, a measurement whose TOA
        # falls below the clock bias inverts to no landmark and nothing else
        # explains it: the real update raises InfeasibleAssignmentError.
        scen = tmp_path / "scen.json"
        save_scenario(replace(default_scenario(seed=1, steps=5),
                              clutter_mean=0.0), scen)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1, "seed": 2,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg), "--noise-toa", "100"]) == 4
        assert ("numerical failure: a measurement row has no finite cost"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_numerical_failure_names_run_and_step(self, tmp_path, capsys,
                                                  jobs):
        # The setup of test_zero_clutter_failed_inversion_exits_4: the
        # message locates the failure, also when a worker process raised it.
        scen = tmp_path / "scen.json"
        save_scenario(replace(default_scenario(seed=1, steps=5),
                              clutter_mean=0.0), scen)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1, "seed": 2,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg), "--noise-toa", "100",
                     "--jobs", str(jobs)]) == 4
        assert ("numerical failure: a measurement row has no finite cost "
                "(MC run 0, step 1)\n" in capsys.readouterr().err)

    def test_bad_report_files_exits_2(self, tmp_path, capsys):
        # Not JSON, not a JSON object, and a report without its fields.
        for name, text in (("broken.json", "{not json"),
                           ("array.json", "[1, 2]"),
                           ("bare.json", '{"schema": "rfslam-report/v1"}')):
            bad = tmp_path / name
            bad.write_text(text)
            assert main(["compare", str(bad), str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ") and str(bad) in err

    def test_deeply_nested_report_exits_2(self, tmp_path, capsys):
        # The decoder runs out of recursion depth on this nesting.
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["compare", str(deep), str(deep)]) == 2
        assert (f"configuration error: {deep} is not a run report: "
                "ValueError('JSON nested too deeply to decode')"
                in capsys.readouterr().err)

    def test_deeply_nested_config_exits_2(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        assert main(["run", "--config", str(deep)]) == 2
        assert ("configuration error: invalid config file: JSON nested too "
                "deeply to decode" in capsys.readouterr().err)

    @pytest.mark.parametrize("depth, message", [
        (200_000, "JSON nested too deeply to decode"),
        (3, "bs nests lists deeper than a matrix"),
        (500, "bs nests lists deeper than a matrix")])
    def test_deeply_nested_scenario_exits_2(self, tmp_path, capsys,
                                            monkeypatch, depth, message):
        # The whole file, or a bs list that json decodes and the array
        # reader used to meet with two Python frames per level.
        monkeypatch.setattr(cli, "run_single", no_run)
        nested = "[" * depth + "0.0" + "]" * depth
        scen = tmp_path / "scen.json"
        if depth > 1000:
            scen.write_text(nested)
        else:
            doc = scenario_to_dict(default_scenario(seed=1, steps=3))
            doc["bs"] = "nested"
            scen.write_text(json.dumps(doc).replace('"nested"', nested))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert (f"configuration error: invalid scenario file: {message}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("kind", ["VA", "SP"])
    def test_landmark_at_the_bs_exits_2(self, tmp_path, capsys, monkeypatch,
                                        kind):
        # Measurements of it ended in "zero-length BS-VA direction".
        monkeypatch.setattr(cli, "run_single", no_run)
        doc = scenario_to_dict(default_scenario(seed=1, steps=3))
        if kind == "VA":
            # Mirrored across a plane through the BS, the BS stays put.
            doc["vas"][0] = {"position": doc["bs"], "plane_point": doc["bs"],
                             "plane_normal": [1.0, 0.0, 0.0]}
        else:
            doc["sps"][0] = doc["bs"]
            doc["fov_radius"] = 200.0
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert (f"configuration error: invalid scenario file: {kind} at the "
                "BS position [0.0, 0.0, 40.0]" in capsys.readouterr().err)

    def test_missing_scenario_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(tmp_path / "missing.json"),
                                   "mc": 1, "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 3

    def test_invalid_scenario_exits_2(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text("{\"bs\": [0, 0]}")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("field, value", [
        ("p_detect", {"VA": 1.5}), ("p_detect", {"VA": -0.2}),
        ("p_detect", {"SP": math.nan}), ("fov_radius", -5.0),
        ("fov_radius", 0.0), ("fov_radius", math.inf),
        ("clutter_mean", -1.0), ("clutter_mean", math.nan),
        ("noise_std", [0.1, 0.005, math.nan, 0.005, 0.005]),
        ("noise_std", [0.0, 0.005, 0.005, 0.005, 0.005]),
        ("noise_std", [0.1, 0.005, 0.005, -0.005, 0.005]),
        ("steps", 0), ("dt", -0.5), ("dt", math.inf),
        ("noise_std", [0.1, 0.005, 0.005]), ("speed", math.nan),
        ("turn_rate", math.inf), ("process_noise", [[1.0]]),
        ("process_noise", np.diag([0.2, 0.2, 0.0, math.nan, 0.2]).tolist()),
        ("process_noise", (np.eye(5) + np.eye(5, k=1)).tolist()),
        ("ue_init", {"cov": (-np.eye(5)).tolist()}),
        ("ue_init", {"mean": [70.0, 0.0, 0.0]}),
        ("ue_init", {"mean": [70.0, 0.0, 0.0, math.inf, 300.0]}),
        ("steps", "3"), ("steps", True), ("steps", 2.7), ("seed", 1.9),
        ("fov_radius", True), ("speed", "22.22"), ("p_detect", [0.9]),
        ("p_detect", {"VA": True}), ("p_detect", {"SP": "0.9"}),
        ("vas", {}), ("sps", {}), ("seed", -4)], ids=repr)
    def test_out_of_range_scenario_exits_2(self, tmp_path, capsys, field,
                                           value):
        doc = scenario_to_dict(default_scenario(seed=1, steps=3))
        merge = field in ("p_detect", "ue_init") and isinstance(value, dict)
        doc[field] = {**doc[field], **value} if merge else value
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert (f"configuration error: invalid scenario file: {field}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, value, message", [
        (("bs", 0), False, "bs entry must be a number, not False"),
        (("noise_std", 0), "0.1", "noise_std entry must be a number, not '0.1'"),
        (("ue_init", "mean", 0), "70.7285",
         "ue_init.mean entry must be a number, not '70.7285'"),
        (("sps", 1, 2), None, "sps entry must be a number, not None"),
        (("vas", 0, "plane_normal", 0), True,
         "vas plane_normal entry must be a number, not True"),
        (("process_noise", 4, 4), "0.2",
         "process_noise entry must be a number, not '0.2'")], ids=repr)
    def test_non_number_in_scenario_array_exits_2(self, tmp_path, capsys,
                                                  path, value, message):
        # numpy would coerce a bool or a numeric string into the array.
        doc = scenario_to_dict(default_scenario(seed=1, steps=3))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert (f"configuration error: invalid scenario file: {message}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, message", [
        (("clutter_maen",), "top level has unknown key 'clutter_maen'"),
        (("vas", 1, "plane_nromal"),
         "vas entry has unknown key 'plane_nromal'"),
        (("ue_init", "covariance"), "ue_init has unknown key 'covariance'")],
        ids=repr)
    def test_unknown_scenario_key_exits_2(self, tmp_path, capsys, path,
                                          message):
        # A misspelt key would otherwise leave its field at the default.
        doc = scenario_to_dict(default_scenario(seed=1, steps=3))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 50.0
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert (f"configuration error: invalid scenario file: {message}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_partial_p_detect_exits_2(self, tmp_path, capsys):
        doc = scenario_to_dict(default_scenario(seed=1, steps=3))
        doc["p_detect"] = {"VA": 0.9}
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert ("configuration error: invalid scenario file: p_detect must "
                "name BS, VA and SP" in capsys.readouterr().err)

    def test_scenario_file_without_p_detect_detects(self, tmp_path):
        # Every type is detected at the scenario default of 0.9, so the BS
        # is re-detected and the sensor stays on track (with nothing ever
        # detected, the position RMSE is over 10 m).
        doc = scenario_to_dict(default_scenario(seed=1))
        del doc["p_detect"]
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1, "seed": 1,
                                   "gamma": 1}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rmse"]["position"] < 1.0

    def test_scenario_file_accepted(self, tmp_path):
        scen = tmp_path / "scen.json"
        save_scenario(default_scenario(seed=2, steps=5), scen)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1,
                                   "gamma": 1}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_step"]["step"]) == 5


def _key_paths(doc, path=()):
    """Every key path of a JSON document: into objects, and into the first
    entry of a list of objects."""
    for key, value in doc.items():
        yield path + (key,)
        if type(value) is dict:
            yield from _key_paths(value, path + (key,))
        elif type(value) is list and value and type(value[0]) is dict:
            yield from _key_paths(value[0], path + (key, 0))


def _json_kind(value):
    return {bool: "bool", int: "number", float: "number", str: "string",
            list: "list", dict: "object", type(None): "null"}[type(value)]


SCENARIO_DOC = scenario_to_dict(default_scenario(seed=1, steps=3))
CONFIG_DOC = {**RunConfig().to_dict(), "out": ".", "jobs": 1}
#: Config keys that take a number or null; their default may be either.
NULLABLE = {"noise_toa", "noise_angle"}
#: Keys the config file no longer takes, with the value each last took: the
#: gate and the extraction threshold are fixed, and the update has one
#: covariance form.
REMOVED_KEYS = {"gate": 30, "joseph": False, "extract_threshold": 0.5}
#: Values of each JSON kind other than the valid one: a bool, a numeric
#: string, null, and a list or an object in place of the other.
WRONG = {
    "bool": st.booleans(),
    "string": st.one_of(st.integers(), st.floats(allow_nan=False)).map(str),
    "null": st.none(),
    "list": st.lists(st.floats(-10.0, 10.0), max_size=3),
    "object": st.dictionaries(st.sampled_from(["a", "mean", "VA"]),
                              st.floats(-10.0, 10.0), max_size=2),
}


class TestWrongJsonType:
    """A value of the wrong JSON type, at any key of either file, is a
    configuration error naming the key, and nothing is written.  At a key
    the config file no longer takes every value is wrong, even the one it
    last took."""

    @staticmethod
    def wrong_value(data, path, default):
        valid = {_json_kind(default)}
        if path[-1] in NULLABLE:
            valid |= {"number", "null"}
        return data.draw(st.one_of(
            [strategy for kind, strategy in WRONG.items()
             if kind not in valid]))

    @staticmethod
    def exits_2_naming(tmp, path, config):
        cfg = tmp / "cfg.json"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["run", "--config", str(cfg)]) == 2
        assert err.getvalue().startswith("configuration error: ")
        assert all(key in err.getvalue() for key in path if type(key) is str)
        assert {p.name for p in tmp.iterdir()} <= {"cfg.json", "scen.json"}

    @pytest.mark.parametrize("key", [*CONFIG_DOC, *REMOVED_KEYS])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_config_key(self, tmp_path_factory, key, data):
        tmp = tmp_path_factory.mktemp("cfg")
        value = (data.draw(st.one_of(st.just(REMOVED_KEYS[key]),
                                     *WRONG.values()))
                 if key in REMOVED_KEYS
                 else self.wrong_value(data, (key,), CONFIG_DOC[key]))
        self.exits_2_naming(tmp, (key,),
                            {"mc": 1, "out": str(tmp / "o"), key: value})

    @pytest.mark.parametrize("path", list(_key_paths(SCENARIO_DOC)),
                             ids=repr)
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_scenario_key(self, tmp_path_factory, path, data):
        tmp = tmp_path_factory.mktemp("scen")
        doc = json.loads(json.dumps(SCENARIO_DOC))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = self.wrong_value(data, path, target[path[-1]])
        (tmp / "scen.json").write_text(json.dumps(doc))
        self.exits_2_naming(tmp, path, {"scenario": str(tmp / "scen.json"),
                                        "mc": 1, "out": str(tmp / "o")})
