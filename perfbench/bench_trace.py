"""Layer tracing for the benchmark, done entirely from outside ``rfslam``.

The traced run substitutes module attributes around the calls into each
layer (the names the calling module looks up at call time), records one span
per call -- name, start, end and parent span -- and restores every attribute
afterwards.  Spans stay in memory until the end of the run; a layer's self
time is its span's duration minus the part its child spans cover.  Counters
are taken at the same boundaries from the call arguments and results.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

import rfslam.association
import rfslam.cli
import rfslam.reduction
import rfslam.update
from rfslam.geometry import ChannelModel

#: Span names; a layer's ``*_ms`` metric is the self time of its span.
SPANS = (
    "update.update_step", "update.predict", "update.joint_update",
    "update.marginalize", "association.build_cost_matrix",
    "association.weight_birth", "association.murty", "reduction.align",
    "reduction.average", "reduction.recombine", "density.prune",
    "density.merge", "geometry", "sim.generate", "metrics.extract",
    "metrics.gospa", "cli.report_write",
)
_SPAN_ID = {name: i for i, name in enumerate(SPANS)}


class Tracer:
    """In-memory span recorder plus deterministic counters."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = []

    def wrap(self, span: str, fn, before=None, after=None):
        """``fn`` recording a span; optional hooks see the args and result."""
        span_id = _SPAN_ID[span]

        def traced(*args, **kwargs):
            if before is not None:
                before(self.counts, args)
            index = len(self.name)
            self.name.append(span_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def count(self, counter: str, fn):
        """``fn`` counting its calls without a span (hot, tiny functions)."""
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _durations(self):
        """(name id, duration, time covered by child spans) per span."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return names, dur, covered

    def self_ms(self) -> dict:
        """Total self time per span name, in milliseconds."""
        names, dur, covered = self._durations()
        totals = np.zeros(len(SPANS))
        np.add.at(totals, names, dur - covered)
        return {name: 1e3 * float(totals[i]) for i, name in enumerate(SPANS)}

    def child_ms(self, root: str) -> float:
        """Time covered by the child spans of every ``root`` span, in ms.

        Children of one span run one after another, so this is the summed
        self time of everything traced below ``root``.
        """
        names, _, covered = self._durations()
        return 1e3 * float(covered[names == _SPAN_ID[root]].sum())


# -- counter hooks ----------------------------------------------------------

def _calls(counter: str):
    def hook(counts, args):
        counts[counter] += 1
    return hook


def _update_in(counts, args):
    density, _, measurements = args[:3]
    counts["steps"] += 1
    counts["hyp_in"] += len(density.hypotheses)
    counts["bern_in"] += sum(len(h.bernoullis) for h in density.hypotheses)
    counts["meas_in"] += len(measurements)


def _cost_matrix_out(counts, args, result):
    costs = result[0]
    pairs = costs.matrix[:, :costs.n_prior]
    counts["pair_cells"] += pairs.size
    counts["pair_finite"] += int(np.isfinite(pairs).sum())


def _murty_out(counts, args, result):
    counts["murty_slots"] += args[1]           # gamma
    counts["murty_solutions"] += len(result)


def _marginalize_in(counts, args):
    counts["children"] += len(args[0])


def _merge_out(counts, args, result):
    counts["merged"] += len(args[0].bernoullis) - len(result.bernoullis)


def _measurements_out(counts, args, result):
    counts["sim_meas"] += len(result.measurements)
    counts["sim_clutter"] += sum(1 for label in result.labels if label < 0)


def _joint_update_counting_drops(tracer: Tracer, fn):
    def joint_update(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except np.linalg.LinAlgError:
            tracer.counts["assoc_dropped"] += 1
            raise
    return tracer.wrap("update.joint_update", joint_update,
                       before=_calls("joint_update_calls"))


_REPORT_WRITERS = ("write_metrics_csv", "write_report",
                   "write_gospa_decomposition_csv", "write_rmse_csv",
                   "save_scenario", "save_chart")


def _substitutions(tracer: Tracer):
    """(owner, attribute, replacement) for every traced call site."""
    cli, upd, assoc, red = (rfslam.cli, rfslam.update, rfslam.association,
                            rfslam.reduction)
    subs = [
        (cli, "update_step",
         tracer.wrap("update.update_step", cli.update_step, before=_update_in)),
        (cli, "predict_step", tracer.wrap("update.predict", cli.predict_step)),
        (cli, "simulate_trajectory",
         tracer.wrap("sim.generate", cli.simulate_trajectory)),
        (cli, "generate_measurements",
         tracer.wrap("sim.generate", cli.generate_measurements,
                     after=_measurements_out)),
        (cli, "extract_map", tracer.wrap("metrics.extract", cli.extract_map)),
        (cli, "gospa", tracer.wrap("metrics.gospa", cli.gospa)),
        (upd, "build_cost_matrix",
         tracer.wrap("association.build_cost_matrix", upd.build_cost_matrix,
                     after=_cost_matrix_out)),
        (upd, "murty_kbest",
         tracer.wrap("association.murty", upd.murty_kbest, after=_murty_out)),
        (upd, "joint_update",
         _joint_update_counting_drops(tracer, upd.joint_update)),
        (upd, "marginalize_sensor",
         tracer.wrap("update.marginalize", upd.marginalize_sensor,
                     before=_marginalize_in)),
        (upd, "prune", tracer.wrap("density.prune", upd.prune)),
        (upd, "merge_bernoullis",
         tracer.wrap("density.merge", upd.merge_bernoullis, after=_merge_out)),
        (upd, "update_type_probs",
         tracer.count("type_update_calls", upd.update_type_probs)),
        (assoc, "weight_birth",
         tracer.wrap("association.weight_birth", assoc.weight_birth,
                     before=_calls("weight_birth_calls"))),
        (assoc, "chol_logpdf",
         tracer.count("chol_logpdf_calls", assoc.chol_logpdf)),
        (red, "align_hypotheses",
         tracer.wrap("reduction.align", red.align_hypotheses)),
        (red, "average_conditionals",
         tracer.wrap("reduction.average", red.average_conditionals)),
        (red, "tomb_recombine",
         tracer.wrap("reduction.recombine", red.tomb_recombine)),
    ]
    subs += [(cli, name, tracer.wrap("cli.report_write", getattr(cli, name)))
             for name in _REPORT_WRITERS]
    subs += [(ChannelModel, name,
              tracer.wrap("geometry", getattr(ChannelModel, name),
                          before=_calls("geometry_calls")))
             for name in ("predict", "jacobians", "detection_probability",
                          "invert")]
    return subs


@contextmanager
def traced(tracer: Tracer):
    """Install the tracing substitutions; restore the originals on exit."""
    subs = _substitutions(tracer)
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in subs]
    try:
        for owner, name, replacement in subs:
            setattr(owner, name, replacement)
        yield tracer
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics: times and counts per filter step, plus ratios."""
    c = tracer.counts
    steps = c["steps"]
    if steps == 0:
        raise ValueError("traced run completed no filter step")
    ms = tracer.self_ms()

    def per_step(value):
        return value / steps

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "association.build_cost_matrix_ms":
            per_step(ms["association.build_cost_matrix"]),
        "association.weight_birth_ms": per_step(ms["association.weight_birth"]),
        "association.weight_birth_per_meas":
            ratio(c["weight_birth_calls"], c["meas_in"]),
        "association.chol_logpdf_calls": per_step(c["chol_logpdf_calls"]),
        "association.gated_pair_frac": ratio(c["pair_finite"], c["pair_cells"]),
        "association.murty_ms": per_step(ms["association.murty"]),
        "association.murty_fill": ratio(c["murty_solutions"], c["murty_slots"]),
        "update.predict_ms": per_step(ms["update.predict"]),
        "update.joint_update_ms": per_step(ms["update.joint_update"]),
        "update.joint_update_calls": per_step(c["joint_update_calls"]),
        "update.assoc_dropped": per_step(c["assoc_dropped"]),
        "update.marginalize_ms": per_step(ms["update.marginalize"]),
        "update.children_per_step": per_step(c["children"]),
        "reduction.align_ms": per_step(ms["reduction.align"]),
        "reduction.average_ms": per_step(ms["reduction.average"]),
        "reduction.recombine_ms": per_step(ms["reduction.recombine"]),
        "density.prune_ms": per_step(ms["density.prune"]),
        "density.merge_ms": per_step(ms["density.merge"]),
        "density.hyp_per_step": per_step(c["hyp_in"]),
        "density.bern_per_step": per_step(c["bern_in"]),
        "density.merged_per_step": per_step(c["merged"]),
        "geometry.calls": per_step(c["geometry_calls"]),
        "geometry.ms": per_step(ms["geometry"]),
        "multimodel.type_update_calls": per_step(c["type_update_calls"]),
        "sim.generate_ms": per_step(ms["sim.generate"]),
        "sim.meas_per_step": per_step(c["sim_meas"]),
        "sim.clutter_per_step": per_step(c["sim_clutter"]),
        "metrics.extract_ms": per_step(ms["metrics.extract"]),
        "metrics.gospa_ms": per_step(ms["metrics.gospa"]),
        "cli.report_write_ms": per_step(ms["cli.report_write"]),
    }
