"""Outside-in tracer: spans around the calls into each speechbp module.

Nothing under src/ knows about it.  Each declared span wraps one public
function, and the wrapper is bound under every name by which a speechbp
module reaches that function: `from .x import y` copies the reference into
the importing module, so patching only the defining module would record
nothing from, say, `bp extract`.  A span whose function has moved or gone
fails at install time, and `zero_call_spans` names every span that recorded
no calls on a workload declared to exercise it, so a refactor has to update
this table instead of silently losing a layer.

Spans are kept in memory; a span records its name, start, end, parent span
and the stage or request (the context) it ran under.  Self time is a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import os
import pkgutil
import time
from collections import Counter

import numpy as np

PIPE, PRED, SEL = "cohort-pipeline", "predict-wav", "cohort-1k-select"

# span name -> (defining module, function, phase, workloads that must call it)
# The phase says which part of a run the span's numbers come from: the timed
# passes, or the set-up (only cohort synthesis is reported from set-up).
SPANS = {
    "audio_io.load_wav": ("audio_io", "load_wav", "timed", {PIPE, PRED}),
    "dsp.detect_voiced_regions": ("dsp", "detect_voiced_regions", "timed",
                                  {PIPE, PRED}),
    "dsp.fft_magnitude": ("dsp", "fft_magnitude", "timed", {PIPE, PRED}),
    "dsp.segment_regions": ("dsp", "segment_regions", "timed", {PIPE, PRED}),
    "features.segment_features": ("features", "segment_features", "timed",
                                  {PIPE, PRED}),
    "features.pitch": ("features", "pitch", "timed", {PIPE, PRED}),
    "features.mfcc_12": ("features", "mfcc_12", "timed", {PIPE, PRED}),
    "features.aggregate_recording": ("features", "aggregate_recording",
                                     "timed", {PIPE, PRED}),
    "features.read_features_csv": ("features", "read_features_csv", "timed",
                                   {PIPE, SEL}),
    "dataset.read_manifest": ("dataset", "read_manifest", "timed",
                              {PIPE, SEL}),
    "relieff.relieff_weights": ("relieff", "relieff_weights", "timed",
                                {PIPE, SEL}),
    "relieff.cross_validated_selection": ("relieff",
                                          "cross_validated_selection",
                                          "timed", {PIPE, SEL}),
    "textcodec.serialize_features": ("textcodec", "serialize_features",
                                     "timed", {PIPE, PRED}),
    "textcodec.tokenize": ("textcodec", "tokenize", "timed", {PIPE, PRED}),
    # one wrapper, reported per mode: see FORWARD_MODES
    "model.forward": ("model", "forward", "timed", {PIPE, PRED}),
    "model.backward": ("model", "backward", "timed", {PIPE}),
    "training.adam_step": ("training", "adam_step", "timed", {PIPE}),
    "training.train": ("training", "train", "timed", {PIPE}),
    "model.load_params": ("model", "load_params", "timed", {PIPE, PRED}),
    "model.save_params": ("model", "save_params", "timed", {PIPE}),
    "training.evaluate": ("training", "evaluate", "timed", {PIPE}),
    "training.predict_pressures": ("training", "predict_pressures", "timed",
                                   {PIPE, PRED}),
    "dataset.correlation_matrix": ("dataset", "correlation_matrix", "timed",
                                   {PIPE, SEL}),
    "dataset.synthesize_cohort": ("dataset", "synthesize_cohort", "setup",
                                  {PIPE, PRED, SEL}),
    "cli.cmd_extract": ("cli", "cmd_extract", "timed", {PIPE}),
    "cli.cmd_select": ("cli", "cmd_select", "timed", {PIPE, SEL}),
    "cli.cmd_train": ("cli", "cmd_train", "timed", {PIPE}),
    "cli.cmd_eval": ("cli", "cmd_eval", "timed", {PIPE}),
    "cli.cmd_report": ("cli", "cmd_report", "timed", {PIPE, SEL}),
    "cli.cmd_predict": ("cli", "cmd_predict", "timed", {PRED}),
}

FORWARD_MODES = {"train": {PIPE}, "eval": {PIPE, PRED}}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# extra counts taken after a call returns: span -> f(args, kwargs, result)
def _wav_bytes(args, kwargs, result):
    return {"audio_io.load_wav.bytes": os.path.getsize(
        _arg(args, kwargs, 0, "path"))}


def _segments(args, kwargs, result):
    return {"dsp.segment_regions.segments": len(result)}


def _tokens(args, kwargs, result):
    return {"textcodec.tokenize.tokens": result.true_length}


COUNTERS = {"audio_io.load_wav": _wav_bytes,
            "dsp.segment_regions": _segments,
            "textcodec.tokenize": _tokens}


class Tracer:
    """Records spans while installed; `summary` aggregates them per name."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, context]
        self.counts = Counter()
        self.fit_keys = set()    # distinct ReliefF training sets
        self.context = None
        self._stack = []
        self._saved = []         # (module, attribute, original)

    def install(self):
        import speechbp
        modules = [importlib.import_module(f"speechbp.{m.name}")
                   for m in pkgutil.iter_modules(speechbp.__path__)]
        for span, (module, func, _phase, _on) in SPANS.items():
            home = importlib.import_module(f"speechbp.{module}")
            original = getattr(home, func, None)
            if (not inspect.isfunction(original)
                    or original.__module__ != home.__name__):
                self.remove()
                raise LookupError(f"span {span}: speechbp.{module}.{func} is "
                                  "not defined there any more; update "
                                  "perfbench/tracer.py")
            wrapper = self._wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved = []

    def _wrap(self, span, fn):
        spans, stack = self.spans, self._stack
        count = COUNTERS.get(span)
        clock = time.perf_counter
        mode_default = None
        if span == "model.forward":
            mode_default = inspect.signature(fn).parameters["mode"].default
        tracer = self

        def traced(*args, **kwargs):
            name = span
            if mode_default is not None:
                mode = args[3] if len(args) > 3 else kwargs.get(
                    "mode", mode_default)
                name = f"{span}.{mode}"
                batch = _arg(args, kwargs, 2, "sequences")
                tracer.counts[f"{name}.tokens"] += len(batch) * max(
                    s.true_length for s in batch)
            elif span == "relieff.relieff_weights":
                digest = hashlib.sha1()
                for index, arg in ((0, "X"), (1, "y")):
                    digest.update(np.ascontiguousarray(
                        _arg(args, kwargs, index, arg)).tobytes())
                tracer.fit_keys.add(digest.hexdigest())
            record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.context]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                tracer.counts.update(count(args, kwargs, result))
            return result

        return traced

    def summary(self) -> dict:
        """{span name: {"calls", "self_s", "total_s"}} plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_span = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = per_span.setdefault(
                name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return {"spans": per_span, "counts": dict(self.counts),
                "distinct_fits": len(self.fit_keys)}


def _reported_spans():
    """(reported span name, phase, workloads that must call it)."""
    for span, (_module, _func, phase, on) in SPANS.items():
        if span == "model.forward":
            for mode, mode_on in FORWARD_MODES.items():
                yield f"{span}.{mode}", phase, mode_on
        else:
            yield span, phase, on


def zero_call_spans(workload, setup, timed) -> list:
    """Declared spans that recorded no calls on a workload that uses them."""
    phases = {"setup": setup, "timed": timed}
    return [name for name, phase, on in _reported_spans()
            if workload in on
            and not phases[phase]["spans"].get(name, {}).get("calls")]


def layer_metrics(setup, timed) -> dict:
    """Per-layer metrics {name: (value, unit)} from the two phase summaries.

    Every name is present on every workload; a layer a workload does not
    use reads 0.
    """
    phases = {"setup": setup, "timed": timed}
    spans = {name: phases[phase]["spans"].get(
                 name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
             for name, phase, _ in _reported_spans()}
    out = {}
    for name, span in spans.items():
        if name.startswith("cli.cmd_"):  # stage wall time
            out[f"cli.{name[len('cli.cmd_'):]}_s"] = (span["total_s"], "s")
        else:
            out[f"{name}.calls"] = (span["calls"], "count")
            out[f"{name}.self_s"] = (span["self_s"], "s")
    counts = timed["counts"]
    out["audio_io.load_wav.bytes"] = (
        counts.get("audio_io.load_wav.bytes", 0), "bytes")
    out["dsp.segment_regions.segments"] = (
        counts.get("dsp.segment_regions.segments", 0), "count")
    out["dsp.fft_per_segment"] = (
        _ratio(spans["dsp.fft_magnitude"]["calls"],
               spans["features.segment_features"]["calls"]), "ratio")
    out["relieff.distinct_fit_ratio"] = (
        _ratio(timed["distinct_fits"],
               spans["relieff.relieff_weights"]["calls"]), "ratio")
    out["textcodec.tokens_per_sequence"] = (
        _ratio(counts.get("textcodec.tokenize.tokens", 0),
               spans["textcodec.tokenize"]["calls"]), "tokens")
    out["model.forward.train.tokens"] = (
        counts.get("model.forward.train.tokens", 0), "tokens")
    return out


def _ratio(num, den):
    return num / den if den else 0.0
