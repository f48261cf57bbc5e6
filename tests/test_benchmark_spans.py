"""The benchmark's tracer still finds every function it spans.

perfbench/tracer.py wraps named speechbp functions from the outside, and
`Tracer.install` raises LookupError when one has been renamed or moved.
Installing it here makes such a refactor fail the test suite, not only a
traced benchmark run.  A small traced pipeline does the same for a spanned
function that still exists but is no longer called on a workload that
declares it, and for a spanned call made off the thread that called
`main`: the tracer keeps one span stack, so such a call would garble the
per-layer numbers.
"""

import functools
import importlib
import importlib.util
import json
import pkgutil
import threading
from pathlib import Path

import numpy as np

import speechbp
from speechbp import features
from speechbp.audio_io import AudioClip
from speechbp.cli import EXIT_OK, main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spanned(spans) -> dict:
    return {span: getattr(importlib.import_module(f"speechbp.{module}"), func)
            for span, (module, func, _, _) in spans.items()}


def note_threads(spans, monkeypatch) -> list:
    """Bind each spanned function, under every name a speechbp module holds
    it by, to a wrapper that notes the thread it runs on; a tracer
    installed afterwards wraps these wrappers."""
    threads = []
    modules = [importlib.import_module(f"speechbp.{m.name}")
               for m in pkgutil.iter_modules(speechbp.__path__)]

    def noting(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            threads.append(threading.get_ident())
            return fn(*args, **kwargs)
        return call

    for fn in spanned(spans).values():
        wrapper = noting(fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return threads


def test_tracer_installs_and_removes():
    tracer_module = load_tracer()
    originals = spanned(tracer_module.SPANS)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        wrapped = spanned(tracer_module.SPANS)
        # features reaches segment_regions through `from .dsp import`
        clip = AudioClip(np.zeros(4800), 48000, 1)
        features.segment_regions(clip, [(0, 4800)])
    finally:
        tracer.remove()
    assert all(wrapped[span] is not fn for span, fn in originals.items())
    assert tracer.counts["dsp.segment_regions.segments"] == 2
    assert spanned(tracer_module.SPANS) == originals


def small_config(tmp_path) -> Path:
    """6 F + 6 M, two folds, one epoch of an 8-wide encoder."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "workdir": str(tmp_path / "w"), "seed": 3,
        "cohort": {"n_female": 6, "n_male": 6},
        "selection": {"folds": 2, "k_grid": [1]},
        "encoder": {"hidden_dim": 8, "n_layers": 1, "n_heads": 2,
                    "ff_dim": 16, "max_len": 128},
        "training": {"epochs": 1, "batch_size": 8}}))
    return config


def test_small_pipeline_calls_every_declared_span(tmp_path, monkeypatch):
    # synth to report over the small cohort, then one predict --wav, all
    # traced
    tracer_module = load_tracer()
    config = small_config(tmp_path)
    threads = note_threads(tracer_module.SPANS, monkeypatch)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = [main([command, "--config", str(config)])
                 for command in ("synth", "extract", "select", "train",
                                 "eval", "report")]
        codes.append(main(["predict", "--config", str(config), "--wav",
                           str(tmp_path / "w" / "wav" / "F001.wav")]))
    finally:
        tracer.remove()
    assert codes == [EXIT_OK] * 7
    summary = tracer.summary()
    for workload in (tracer_module.PIPE, tracer_module.PRED):
        assert tracer_module.zero_call_spans(workload, summary,
                                             summary) == []
    # one span stack holds only if every span runs on the calling thread,
    # and then each span lies inside its parent
    assert len(threads) == len(tracer.spans)
    assert set(threads) == {threading.get_ident()}
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            _, parent_start, parent_end, _, _ = tracer.spans[parent]
            assert parent_start <= start <= end <= parent_end, name


def test_traced_extract_counts_every_segment_once(tmp_path):
    # the tracer counts the segments segment_regions hands out; however
    # extract batches them, features.json must account for each one
    tracer_module = load_tracer()
    config = small_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == EXIT_OK
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        code = main(["extract", "--config", str(config)])
    finally:
        tracer.remove()
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "w" / "features.json").read_text())
    assert tracer.counts["dsp.segment_regions.segments"] == sum(
        rec["n_segments"] for rec in manifest["recordings"])
