"""The benchmark's tracer still finds every function it spans.

perfbench/tracer.py wraps named speechbp functions from the outside, and
`Tracer.install` raises LookupError when one has been renamed or moved.
Installing it here makes such a refactor fail the test suite, not only a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from speechbp import features
from speechbp.audio_io import AudioClip

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spanned(spans) -> dict:
    return {span: getattr(importlib.import_module(f"speechbp.{module}"), func)
            for span, (module, func, _, _) in spans.items()}


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
