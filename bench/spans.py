"""In-memory span tracing from outside the package.

``Tracer.install`` replaces the names one module of ``xtalk_quant`` imports
from another (``cli.make_bundle``, ``monte_carlo.loss_arrays``,
``scenario.synthesize_channel`` ...) with wrappers that record a span: name,
start, end and the index of the enclosing span.  The package itself is not
edited, and ``uninstall`` puts every original back.  Spans assume one thread,
which holds because the workloads leave ``XTALK_THREADS`` unset.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time

MIB = 1024.0 * 1024.0

# (module, attribute, span name).  An attribute "Class.method" patches the
# method on the class.  Two patch points may share a span name when they are
# the same public function reached from two importing modules.
PATCH_POINTS = [
    ("cli", "cmd_synth_channel", "cli.synth_channel"),
    ("cli", "cmd_inspect_channel", "cli.inspect_channel"),
    ("cli", "cmd_analyze", "cli.analyze"),
    ("cli", "cmd_bound", "cli.bound"),
    ("cli", "cmd_design_bits", "cli.design_bits"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "run_trials", "monte_carlo.run_trials"),
    ("monte_carlo", "run_trials", "monte_carlo.run_trials"),
    ("monte_carlo", "min_bits_empirical", "monte_carlo.min_bits_empirical"),
    ("monte_carlo", "loss_arrays", "rate_analysis.loss_arrays"),
    ("rate_analysis", "loss_arrays", "rate_analysis.loss_arrays"),
    ("cli", "build_report", "rate_analysis.build_report"),
    ("rate_analysis", "LinkBudget.snr_matrix", "rate_analysis.snr_matrix"),
    ("scenario", "synthesize_channel", "channel_model.synthesize_channel"),
    ("scenario", "load_channel", "channel_model.load_channel"),
    ("cli", "load_channel", "channel_model.load_channel"),
    ("cli", "save_channel", "channel_model.save_channel"),
    ("cli", "fit_row_dominance", "channel_model.fit"),
    ("cli", "fit_alpha", "channel_model.fit"),
    ("cli", "make_bundle", "precoding.make_bundle"),
    ("precoding", "ideal_precoder", "precoding.ideal_precoder"),
    ("precoding", "quantize_precoder", "precoding.quantize_precoder"),
    ("precoding", "build_delta", "precoding.build_delta"),
    ("cli", "bound_general_per_tone", "analytic_bounds.bound_general_per_tone"),
    ("cli", "bound_main_band", "analytic_bounds.bound_main_band"),
    ("cli", "bound_main_per_tone", "analytic_bounds.bound_main_per_tone"),
    ("cli", "bound_relative", "analytic_bounds.bound_relative"),
    ("cli", "bound_simplified_per_tone", "analytic_bounds.bound_simplified_per_tone"),
    ("cli", "bound_werner_decay", "analytic_bounds.bound_werner_decay"),
    ("cli", "min_admissible_bits", "analytic_bounds.min_admissible_bits"),
    ("design", "bound_main_per_tone", "analytic_bounds.bound_main_per_tone"),
    ("design", "bound_relative", "analytic_bounds.bound_relative"),
    ("design", "min_admissible_bits", "analytic_bounds.min_admissible_bits"),
    ("cli", "bits_for_relative_loss", "design.bits_for_relative_loss"),
    ("cli", "bits_for_tone_loss", "design.bits_for_tone_loss"),
    ("cli", "sweep_bits_vs_loop_length", "design.sweep_bits_vs_loop_length"),
    ("design", "bits_for_relative_loss", "design.bits_for_relative_loss"),
    ("cli", "render_table", "reports.render_table"),
    ("scenario", "Scenario.ensemble", "scenario.ensemble"),
]

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "monte_carlo.run_trials_s": "s",
    "monte_carlo.min_bits_empirical_s": "s",
    "monte_carlo.engine_self_s": "s",
    "monte_carlo.trials": "count",
    "monte_carlo.trial_evals_per_s": "1/s",
    "monte_carlo.resamples": "count",
    "monte_carlo.delta_mb": "MB",
    "rate_analysis.loss_arrays_s": "s",
    "rate_analysis.loss_arrays_calls": "count",
    "rate_analysis.build_report_s": "s",
    "rate_analysis.snr_matrix_s": "s",
    "channel_model.synthesize_channel_s": "s",
    "channel_model.save_channel_s": "s",
    "channel_model.load_channel_s": "s",
    "channel_model.load_calls": "count",
    "channel_model.fit_s": "s",
    "channel_model.file_bytes": "bytes",
    "precoding.make_bundle_s": "s",
    "precoding.ideal_precoder_s": "s",
    "precoding.quantize_precoder_s": "s",
    "precoding.build_delta_s": "s",
    "precoding.bundles": "count",
    "analytic_bounds.s": "s",
    "analytic_bounds.calls": "count",
    "design.s": "s",
    "design.calls": "count",
    "reports.render_table_s": "s",
    "reports.bytes": "bytes",
    "reports.rows": "count",
    "scenario.ensemble_s": "s",
    "cli.synth_channel_s": "s",
    "cli.inspect_channel_s": "s",
    "cli.analyze_s": "s",
    "cli.analyze_self_s": "s",
    "cli.bound_s": "s",
    "cli.design_bits_s": "s",
    "cli.simulate_s": "s",
    "cli.sweep_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one [name id, start, end, parent index or -1] per span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._patched: list[tuple] = []

    def reset(self) -> None:
        """Drop the spans and counts recorded so far."""
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()

    # -- recording -------------------------------------------------------------

    def _count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        observe = _OBSERVERS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return traced

    def install(self, package: str) -> None:
        """Patch every point of PATCH_POINTS in ``package`` ('xtalk_quant')."""
        import importlib

        for module_name, attr, span_name in PATCH_POINTS:
            owner = importlib.import_module(f"{package}.{module_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "columns": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)

    # -- analysis --------------------------------------------------------------

    def _durations(self):
        """Per span: (name, duration, self time, outermost span of its layer?).

        Self time is the duration minus the time its child spans cover.  No
        function here calls itself, so a name's total is the plain sum of its
        spans; a layer's total counts only spans not nested in the same layer.
        """
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = [name.split(".")[0] for name in self.names]
        out = []
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            top = True
            p = parent
            while p >= 0 and top:
                top = layers[self.spans[p][0]] != layers[name_id]
                p = self.spans[p][3]
            out.append((self.names[name_id], end - start, end - start - child_time[i], top))
        return out

    def layer_metrics(self, rounds: list) -> dict:
        """Per-layer metrics of the spans recorded in the last traced round.

        ``process.cpu_s`` is the median untraced round's CPU time and
        ``trace.overhead_s`` the median traced round's wall time minus the
        median untraced one's, over all ``rounds`` of the run.
        """
        spans = self._durations()

        def median_of(key, traced):
            return statistics.median(r[key] for r in rounds if r["traced"] == traced)

        def total(name):
            return sum(d for n, d, _, _ in spans if n == name)

        def self_time(name):
            return sum(s for n, _, s, _ in spans if n == name)

        def layer(prefix):
            return sum(d for n, d, _, top in spans if n.startswith(prefix + ".") and top)

        def calls(prefix):
            return sum(1 for n, *_ in spans if n == prefix or n.startswith(prefix + "."))

        run_trials_s = total("monte_carlo.run_trials")
        c = self.counts
        values = {
            "monte_carlo.run_trials_s": run_trials_s,
            "monte_carlo.min_bits_empirical_s": total("monte_carlo.min_bits_empirical"),
            "monte_carlo.engine_self_s": self_time("monte_carlo.run_trials"),
            "monte_carlo.trials": c.get("trials", 0),
            "monte_carlo.trial_evals_per_s": (
                c.get("trial_evals", 0) / run_trials_s if run_trials_s > 0 else 0.0),
            "monte_carlo.resamples": c.get("resamples", 0),
            "monte_carlo.delta_mb": c.get("delta_bytes", 0) / MIB,
            "rate_analysis.loss_arrays_s": total("rate_analysis.loss_arrays"),
            "rate_analysis.loss_arrays_calls": calls("rate_analysis.loss_arrays"),
            "rate_analysis.build_report_s": total("rate_analysis.build_report"),
            "rate_analysis.snr_matrix_s": total("rate_analysis.snr_matrix"),
            "channel_model.synthesize_channel_s": total("channel_model.synthesize_channel"),
            "channel_model.save_channel_s": total("channel_model.save_channel"),
            "channel_model.load_channel_s": total("channel_model.load_channel"),
            "channel_model.load_calls": calls("channel_model.load_channel"),
            "channel_model.fit_s": total("channel_model.fit"),
            "channel_model.file_bytes": c.get("file_bytes", 0),
            "precoding.make_bundle_s": total("precoding.make_bundle"),
            "precoding.ideal_precoder_s": total("precoding.ideal_precoder"),
            "precoding.quantize_precoder_s": total("precoding.quantize_precoder"),
            "precoding.build_delta_s": total("precoding.build_delta"),
            "precoding.bundles": calls("precoding.make_bundle"),
            "analytic_bounds.s": layer("analytic_bounds"),
            "analytic_bounds.calls": calls("analytic_bounds"),
            "design.s": layer("design"),
            "design.calls": calls("design"),
            "reports.render_table_s": total("reports.render_table"),
            "reports.bytes": c.get("report_bytes", 0),
            "reports.rows": c.get("report_rows", 0),
            "scenario.ensemble_s": total("scenario.ensemble"),
            "cli.synth_channel_s": total("cli.synth_channel"),
            "cli.inspect_channel_s": total("cli.inspect_channel"),
            "cli.analyze_s": total("cli.analyze"),
            "cli.analyze_self_s": self_time("cli.analyze"),
            "cli.bound_s": total("cli.bound"),
            "cli.design_bits_s": total("cli.design_bits"),
            "cli.simulate_s": total("cli.simulate"),
            "cli.sweep_s": total("cli.sweep"),
            "process.cpu_s": median_of("cpu_s", False),
            "trace.overhead_s": median_of("wall_s", True) - median_of("wall_s", False),
        }
        return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


# -- observers: counts taken from a traced call's arguments and result ----------


def _observe_run_trials(tracer, args, kwargs, report):
    ensemble, config = args[0], args[2]
    tones = ensemble.grid.count
    tracer._count("trials", config.n_trials * tones)
    tracer._count("trial_evals", config.n_trials * tones * ensemble.p)
    tracer._count("resamples", len(report.trial_failures))


def _observe_loss_arrays(tracer, args, kwargs, out):
    delta = args[3]
    if delta.ndim == 3:  # a stack of trials: the engine's Delta, shape (n, p, p)
        tracer._count("delta_bytes", delta.size * delta.itemsize)


def _observe_save_channel(tracer, args, kwargs, out):
    tracer._count("file_bytes", os.path.getsize(args[1]))


def _observe_render_table(tracer, args, kwargs, text):
    tracer._count("report_bytes", len(text.encode("utf-8")))
    tracer._count("report_rows", len(args[3]))


_OBSERVERS = {
    "monte_carlo.run_trials": _observe_run_trials,
    "rate_analysis.loss_arrays": _observe_loss_arrays,
    "channel_model.save_channel": _observe_save_channel,
    "reports.render_table": _observe_render_table,
}
