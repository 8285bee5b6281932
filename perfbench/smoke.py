"""Smoke test of the benchmark itself, on one-run campaigns.

    python3 perfbench/smoke.py

Checks that every metric ``BENCHMARK.json`` names prints with its unit in
both modes on every workload, that the traced stage times stay within the
program's own ``ms_update``, the layer facts the workloads are chosen for,
and that MC runs raising inside ``rfslam.cli.run_single`` are counted as
failed.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace

import run as bench   # puts the checkout's src first on sys.path
import bench_workloads
import rfslam.cli

SPEC = bench.SPEC
SEED = 1


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def run_main(workload: str, seconds: int, trace: int):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(["--workload", workload, "--seed", str(SEED),
                           "--seconds", str(seconds), "--trace", str(trace)])
    check(code == 0, f"{workload} trace {trace} exited {code}")
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def check_metrics_print(workload: str, trace: int) -> dict:
    lines, result = run_main(workload, 1, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in spec},
          f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
    for metric in spec:
        name, unit = metric["name"], metric["unit"]
        check(result["metrics"][name]["unit"] == unit,
              f"{workload}: {name} has unit "
              f"{result['metrics'][name]['unit']}, not {unit}")
        check(any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                  for line in lines),
              f"{workload}: no '{name} = ... {unit}' line")
    check(result["failed"] == 0, f"{workload}: unexpected failed runs")
    return result


def check_layers(workload: str, metrics: dict) -> None:
    value = {name: m["value"] for name, m in metrics.items()}
    reduction = [value[f"reduction.{s}_ms"]
                 for s in ("align", "average", "recombine")]
    if bench_workloads.WORKLOADS[workload].filter_kind == "ek-pmb":
        check(value["association.weight_birth_per_meas"] == 1.0,
              f"{workload}: weight_birth_per_meas is not 1.0 under PMB")
        check(all(t > 0.0 for t in reduction), f"{workload}: no reduction")
    else:
        check(value["association.weight_birth_per_meas"] > 1.0,
              f"{workload}: one hypothesis only")
        check(reduction == [0.0, 0.0, 0.0],
              f"{workload}: reduction ran under PMBM")


def check_stage_times() -> None:
    workload = bench_workloads.WORKLOADS["ref-pmb-g10"]
    _, record = bench.measure(workload, SEED, 2, trace=True)
    check(0.0 < record["traced_stage_ms"] <= record["traced_ms_update"],
          f"traced stages {record['traced_stage_ms']} ms against "
          f"ms_update {record['traced_ms_update']} ms")


def check_failures_counted() -> None:
    """Campaign 1 of 4 raises in its only MC run; the rest complete."""
    workload = bench_workloads.WORKLOADS["ref-pmb-g1"]
    inner = rfslam.cli.run_single

    def flaky(scenario, filter_cfg, seed, run_index, threshold):
        if seed == 1000 * SEED + 1:
            raise RuntimeError("injected failure")
        return inner(scenario, filter_cfg, seed, run_index, threshold)

    rfslam.cli.run_single = flaky
    try:
        untraced, _ = bench.measure(workload, SEED, 4, trace=False)
        traced, _ = bench.measure(workload, SEED, 4, trace=True)
    finally:
        rfslam.cli.run_single = inner
    # Two warm-up runs plus four campaigns; traced: two campaigns, twice.
    check((untraced["attempted"], untraced["failed"]) == (6, 1),
          f"untraced attempted/failed {untraced['attempted']}/"
          f"{untraced['failed']}, expected 6/1")
    check((traced["attempted"], traced["failed"]) == (6, 2),
          f"traced attempted/failed {traced['attempted']}/"
          f"{traced['failed']}, expected 6/2")
    check(traced["metrics"]["failed_frac"]["value"] == 2 / 6,
          "failed_frac is not failed runs over runs started")
    check(not untraced["correct"] and not traced["correct"],
          "a run with a failed campaign reported correct")


def main() -> int:
    for name, workload in list(bench_workloads.WORKLOADS.items()):
        bench_workloads.WORKLOADS[name] = replace(workload, mc_runs=1,
                                                  campaign_s=1.0)
    for w in SPEC["workloads"]:
        check(bench_workloads.WORKLOADS[w["name"]].why == w["why"],
              f"{w['name']}: reason differs from BENCHMARK.json")
    for name in bench_workloads.WORKLOADS:
        untraced = check_metrics_print(name, 0)
        traced = check_metrics_print(name, 1)
        check_layers(name, traced["metrics"])
        if not bench_workloads.WORKLOADS[name].stress:
            check(untraced["correct"] and traced["correct"],
                  f"{name}: output checks failed")
        print(f"smoke: {name}: all metrics print with their units")
    check_stage_times()
    print("smoke: traced stage times stay within the program's ms_update")
    check_failures_counted()
    print("smoke: failed MC runs are counted")
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
