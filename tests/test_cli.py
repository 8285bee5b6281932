import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

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
from rfslam.sim import default_scenario, save_scenario, scenario_to_dict


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
         "6fc54d0df6d6573a9f4745a208843887ad04d17371a4c896b509acba6e35ce7d"),
        ("ek-pmb", 1,
         "c936e6d8c7ae8b3c57b4765d178cad149dc99a430b1783425a3797a3da805c02"),
        ("ek-pmbm", 10,
         "3d84b4709546e41e1068a1e16ca82318a1cb7e6b51a9e8889559c8b148fa799e"),
    ])
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
            "f692d7c5c0f73fa90f535b88fb397926debe246e9db9e547e5bf10ec00c17698")


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
                                        "mc": 2, "seed": 4, "gate": 30}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--gamma", "1",
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["gamma"] == 1
        assert report["config"]["filter"] == "ek-pmbm"
        # An int for a float key is kept as written.
        assert type(report["config"]["gate"]) is int

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2
        bad.write_text(json.dumps({"unknown_key": 1}))
        assert main(["run", "--config", str(bad)]) == 2
        assert main(["run", "--mc", "0", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("doc", [
        {"mc": 2.5}, {"gate": "wide"}, {"mm": "off"},
        {"extract_threshold": 1.5}])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mc": 1, "out": str(tmp_path / "o"),
                                   **doc}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("doc", [
        {"seed": -1}, {"gate": 0}, {"gate": -5.0}, {"gate": math.nan},
        {"gate": math.inf}, {"noise_toa": 0.0}, {"noise_toa": -1.0},
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
        cfg.write_text(json.dumps({"scenario": str(scen), "mc": 1, "seed": 1,
                                   "out": str(tmp_path / "o")}))
        assert main(["run", "--config", str(cfg), "--noise-toa", "100"]) == 4
        assert ("numerical failure: a measurement row has no finite cost"
                in capsys.readouterr().err)

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
        ("p_detect", {"VA": True}), ("p_detect", {"SP": "0.9"})], ids=repr)
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
