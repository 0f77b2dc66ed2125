"""Span tracing of gazesim's layers, installed from outside the program.

Each traced function is replaced, in its defining module and in every
gazesim module that imported it by name, with a wrapper that records a span
(name, start, end, parent) and passes the return value or exception through
unchanged. Spans are kept in memory and summarised, or written out, after
the traced repetition. Exact counters are derived from call arguments and
span counts, outside the timed span.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import math
import os
import statistics
import sys
import time

# (module, function) pairs wrapped; the span name is "<module>.<function>",
# except the CLI command handlers, whose spans are "cli.<command>".
TRACED = {
    "oracle": ("generate_recording",),
    "io": ("write_recording", "read_recording", "read_quality_table",
           "write_quality_table"),
    "metrics": ("recording_quality", "estimate_latency", "extract_fixations",
                "reject_outliers"),
    "degrade": ("degrade_benchmark", "degrade_modified", "zero_noise_pass",
                "lowpass_zero_phase", "resample_spline", "add_precision_noise",
                "jitter_timestamps", "build_accuracy_signal", "plan_modified",
                "save_plan"),
    "calibrate": ("sweep_sigma",),
    "assess": ("repeated_assessment", "one_nn_two_sample", "distribution_summary"),
    "cli": ("cmd_synth", "cmd_metrics", "cmd_calibrate", "cmd_degrade",
            "cmd_assess", "cmd_report"),
}
CLI_COMMANDS = tuple(func[len("cmd_"):] for func in TRACED["cli"])

# Per-layer metrics printed with --trace 1, in order, with their units. Times
# are seconds per traced repetition: busy_s is the time inside a function's
# spans, self_s that minus its child spans. A layer a workload never enters
# reads 0.
LAYER_METRICS = (
    ("oracle.generate_recording.calls", "count"),
    ("oracle.generate_recording.busy_s", "s"),
    ("oracle.samples_generated", "count"),
    ("io.write_recording.calls", "count"),
    ("io.write_recording.busy_s", "s"),
    ("io.read_recording.calls", "count"),
    ("io.read_recording.busy_s", "s"),
    ("io.read_quality_table.busy_s", "s"),
    ("io.write_quality_table.busy_s", "s"),
    ("io.bytes_written", "bytes"),
    ("io.bytes_read", "bytes"),
    ("metrics.recording_quality.calls", "count"),
    ("metrics.recording_quality.busy_s", "s"),
    ("metrics.recording_quality.self_s", "s"),
    ("metrics.estimate_latency.calls", "count"),
    ("metrics.estimate_latency.busy_s", "s"),
    ("metrics.latency_sample_pairs", "count"),
    ("metrics.extract_fixations.busy_s", "s"),
    ("metrics.reject_outliers.calls", "count"),
    ("metrics.reject_outliers.busy_s", "s"),
    ("metrics.latency_calls_per_recording", "ratio"),
    ("degrade.degrade_benchmark.calls", "count"),
    ("degrade.degrade_modified.calls", "count"),
    ("degrade.zero_noise_pass.calls", "count"),
    ("degrade.lowpass_zero_phase.busy_s", "s"),
    ("degrade.resample_spline.busy_s", "s"),
    ("degrade.add_precision_noise.busy_s", "s"),
    ("degrade.jitter_timestamps.busy_s", "s"),
    ("degrade.build_accuracy_signal.busy_s", "s"),
    ("degrade.plan_modified.busy_s", "s"),
    ("degrade.save_plan.busy_s", "s"),
    ("degrade.samples_filtered", "count"),
    ("calibrate.sweep_sigma.busy_s", "s"),
    ("calibrate.sweep_sigma.self_s", "s"),
    ("calibrate.filter_passes_per_recording", "ratio"),
    ("assess.repeated_assessment.busy_s", "s"),
    ("assess.one_nn_two_sample.calls", "count"),
    ("assess.one_nn_two_sample.busy_s", "s"),
    ("assess.distance_matrix_bytes", "bytes"),
    ("assess.distribution_summary.busy_s", "s"),
) + tuple((f"cli.{c}.self_s", "s") for c in CLI_COMMANDS) + (
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
)

# Counters that must repeat exactly between traced runs of one seed.
EXACT_COUNTERS = tuple(name for name, unit in LAYER_METRICS
                       if unit in ("count", "bytes", "ratio"))

_EPS_MS = 1e-9  # matches the latency search's rounding guard


def latency_sample_pairs(n: int, rate_hz: float, search_range_ms, step_ms) -> int:
    """Gaze/target sample pairs the brute-force latency search compares:
    the sum over searched shifts k of (n - k), with the search's own bounds."""
    lo, hi = float(search_range_ms[0]), float(search_range_ms[1])
    period = 1000.0 / rate_hz
    k_lo = int(math.ceil(lo / period - _EPS_MS))
    k_hi = int(math.floor(hi / period + _EPS_MS))
    k_step = 1 if step_ms is None else max(1, int(round(step_ms / period)))
    return sum(n - k for k in range(k_lo, k_hi + 1, k_step) if n - k >= 2)


def _signal_key(rec) -> tuple:
    h = hashlib.blake2b(digest_size=16)
    for arr in (rec.timestamps_ms, rec.gaze_x, rec.gaze_y):
        h.update(arr.tobytes())
    return rec.recording_id, rec.n_samples, h.hexdigest()


class Tracer:
    """Collects spans and counters for one traced repetition."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent_index, child_s]
        self._stack = []       # indices of the open spans
        self.counters = {
            "oracle.samples_generated": 0,
            "io.bytes_written": 0,
            "io.bytes_read": 0,
            "metrics.latency_sample_pairs": 0,
            "degrade.samples_filtered": 0,
            "calibrate.filter_passes": 0,
            "calibrate.corpus_recordings": 0,
            "assess.distance_matrix_bytes": 0,
            "metrics.distinct_latency_inputs": 0,
        }
        self._latency_inputs = set()   # distinct signals seen in the current command

    def call(self, name, fn, signature, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        if name.startswith("cli."):
            self._latency_inputs = set()
        span = [name, 0.0, 0.0, parent, 0.0]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        self._count(name, signature, args, kwargs, result)
        if parent is not None:
            # the parent's self time excludes this child and its counting
            self.spans[parent][4] += time.perf_counter() - span[1]
        return result

    def _count(self, name, signature, args, kwargs, result):
        c = self.counters
        if name == "oracle.generate_recording":
            c["oracle.samples_generated"] += result[0].n_samples
        elif name in ("io.write_recording", "io.write_quality_table"):
            c["io.bytes_written"] += os.path.getsize(_bound(signature, args, kwargs)["path"])
        elif name in ("io.read_recording", "io.read_quality_table"):
            c["io.bytes_read"] += os.path.getsize(_bound(signature, args, kwargs)["path"])
        elif name == "metrics.estimate_latency":
            b = _bound(signature, args, kwargs)
            rec = b["rec"]
            c["metrics.latency_sample_pairs"] += latency_sample_pairs(
                rec.n_samples, rec.nominal_rate_hz, b["search_range_ms"], b["step_ms"])
            key = _signal_key(rec)
            if key not in self._latency_inputs:
                self._latency_inputs.add(key)
                c["metrics.distinct_latency_inputs"] += 1
        elif name == "degrade.lowpass_zero_phase":
            c["degrade.samples_filtered"] += _bound(signature, args, kwargs)["rec"].n_samples
            if any(self.spans[i][0] == "calibrate.sweep_sigma" for i in self._stack):
                c["calibrate.filter_passes"] += 1
        elif name == "calibrate.sweep_sigma":
            c["calibrate.corpus_recordings"] += len(_bound(signature, args, kwargs)["corpus"])
        elif name == "assess.one_nn_two_sample":
            n = len(_bound(signature, args, kwargs)["real"])
            c["assess.distance_matrix_bytes"] = max(c["assess.distance_matrix_bytes"],
                                                    (2 * n) ** 2 * 8)

    def summary(self) -> dict:
        """Per span name: calls, busy seconds, self seconds, per-call p50."""
        out = {}
        for name, start, end, _parent, child_s in self.spans:
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                          "durations": []})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += (end - start) - child_s
            entry["durations"].append(end - start)
        for entry in out.values():
            entry["p50_ms"] = 1000.0 * statistics.median(entry.pop("durations"))
        return out


def _bound(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _span_name(module: str, func: str) -> str:
    if module == "cli":
        return "cli." + func[len("cmd_"):]
    return f"{module}.{func}"


def install(tracer: Tracer) -> list:
    """Wrap every traced function wherever gazesim binds it; returns the
    (module, attribute, original) list that uninstall() restores."""
    gazesim_modules = [m for name, m in sorted(sys.modules.items())
                       if m is not None and (name == "gazesim" or name.startswith("gazesim."))]
    patched = []
    for module, funcs in TRACED.items():
        defining = sys.modules[f"gazesim.{module}"]
        for func in funcs:
            original = getattr(defining, func)
            name = _span_name(module, func)
            signature = inspect.signature(original)

            def wrapper(*args, __fn=original, __name=name, __sig=signature, **kwargs):
                return tracer.call(__name, __fn, __sig, args, kwargs)

            functools.update_wrapper(wrapper, original)
            for mod in gazesim_modules:
                if getattr(mod, func, None) is original:
                    setattr(mod, func, wrapper)
                    patched.append((mod, func, original))
    return patched


def uninstall(patched: list) -> None:
    for mod, func, original in patched:
        setattr(mod, func, original)


def layer_metrics(summaries: list, counters: list, traced_best_s: float,
                  untraced_best_s: float) -> dict:
    """Per-layer metric values from the traced repetitions of one run.

    Span times are the median over traced repetitions of each repetition's
    total; calls and counters come from the first traced repetition (the
    caller checks that every repetition repeats them exactly). The traced
    and untraced sequence times are medians over repetitions, as for the
    end-to-end wall_s.
    """
    first = summaries[0]

    def per_rep(name, key):
        return statistics.median(s.get(name, {}).get(key, 0.0) for s in summaries)

    values = {}
    for metric, _unit in LAYER_METRICS:
        name, _, key = metric.rpartition(".")
        if key == "calls":
            values[metric] = first.get(name, {}).get("calls", 0)
        elif key in ("busy_s", "self_s"):
            values[metric] = per_rep(name, key)
    names = dict(LAYER_METRICS)
    counts = counters[0]
    values.update({key: count for key, count in counts.items() if key in names})
    latency_calls = first.get("metrics.estimate_latency", {}).get("calls", 0)
    distinct = counts["metrics.distinct_latency_inputs"]
    values["metrics.latency_calls_per_recording"] = latency_calls / distinct if distinct else 0.0
    corpus = counts["calibrate.corpus_recordings"]
    values["calibrate.filter_passes_per_recording"] = (
        counts["calibrate.filter_passes"] / corpus if corpus else 0.0)
    values["trace.wall_s"] = traced_best_s
    values["trace.overhead_pct"] = 100.0 * (traced_best_s - untraced_best_s) / untraced_best_s
    return values
