"""Voiced-region detection, 50 ms segmentation, windowing, and the FFT.

The FFT takes power-of-two lengths; frames are zero-padded to the next power
of two (2400-sample frames at 48 kHz become 4096 points).  It is numpy's FFT
(np.fft, pocketfft), O(N log N): real frames go through its real transform
and get their upper bins as conjugates of the lower ones.  Pitch (in
features) comes from an FFT autocorrelation built from two such transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .audio_io import AudioClip
from .errors import DegenerateInput

SEGMENT_SECONDS = 0.050
MAX_SEGMENTS = 2400
DEFAULT_WINDOW_SIGMA = 0.4

# voiced gate: frame RMS > 2x clip median frame RMS and flatness < 0.3
VOICED_RMS_FACTOR = 2.0
VOICED_FLATNESS_MAX = 0.3
FLATNESS_BAND_HZ = (100.0, 4000.0)
MIN_REGION_SECONDS = 0.100
# rows per stack wherever frames or segments go through the FFT in stacks:
# the voiced gate's frames here, and a clip's segments in features
STACK_ROWS = 8

FLATNESS_FLOOR = 1e-12


@dataclass(frozen=True)
class Segment:
    """A 50 ms segment, or a stack of equal-length segments along leading
    axes of `samples`, with the first one's start and index."""

    samples: np.ndarray
    sample_rate: int
    start_s: float
    index: int


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum over bins 0..N/2."""

    magnitudes: np.ndarray
    bin_hz: float
    fft_size: int


def segment_length(sample_rate: int) -> int:
    return int(round(SEGMENT_SECONDS * sample_rate))


@cache
def gaussian_window(n: int) -> np.ndarray:
    """w[i] = exp(-0.5 * ((i - (n-1)/2) / (sigma * (n-1)/2))^2), peak 1 at
    center, with sigma = DEFAULT_WINDOW_SIGMA.

    Built once per length and returned read-only, shared by every caller.
    """
    if n < 2:
        raise ValueError(f"window needs n >= 2, got {n}")
    half = (n - 1) / 2.0
    i = np.arange(n)
    w = np.exp(-0.5 * ((i - half) / (DEFAULT_WINDOW_SIGMA * half)) ** 2)
    w.flags.writeable = False
    return w


# === FFT ===

def fft_radix2(x) -> np.ndarray:
    """FFT along the last axis, all N bins, by numpy's FFT.

    N must be a power of two.  Complex input goes through np.fft.fft.  Real
    input goes through np.fft.rfft for bins 0..N/2, and bins N/2+1..N-1 are
    the conjugates of bins N/2-1..1, as the DFT of a real frame has them.
    Each row of a stack along the leading axes gets the bits it gets alone.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"radix-2 length must be a power of two, got {n}")
    if np.iscomplexobj(x):
        return np.fft.fft(x.astype(np.complex128, copy=False))
    # rfft writes into the output's lower bins (out= needs numpy 2.0): a
    # separate half-spectrum array, copied over, costs fresh pages per call
    out = np.empty(x.shape[:-1] + (n,), dtype=np.complex128)
    np.fft.rfft(x.astype(np.float64, copy=False), out=out[..., :n // 2 + 1])
    np.conjugate(out[..., n // 2 - 1:0:-1], out=out[..., n // 2 + 1:])
    return out


def fft_magnitude(samples, sample_rate: int) -> Spectrum:
    """Magnitude spectrum of a frame, zero-padded to the next power of two.

    Returns bins 0..N/2 inclusive; bin_hz = sample_rate / N.  A stack of
    equal-length frames along leading axes gives one spectrum per frame, and
    each equals the spectrum of that frame transformed alone, bit for bit.
    """
    x = np.asarray(samples, dtype=np.float64)
    length = x.shape[-1]
    if length == 0:
        raise ValueError("cannot transform an empty frame")
    if not np.all(np.isfinite(x)):
        raise ValueError("frame contains non-finite samples")
    nfft = 1
    while nfft < length:
        nfft *= 2
    padded = np.zeros(x.shape[:-1] + (nfft,))
    padded[..., :length] = x
    mags = np.abs(fft_radix2(padded)[..., :nfft // 2 + 1])
    return Spectrum(magnitudes=mags, bin_hz=sample_rate / nfft, fft_size=nfft)


def flatness_ratio(magnitudes):
    """Geometric over arithmetic mean along the last axis, bins floored at 1e-12.

    Near 1 for noise-like spectra, near 0 for tonal ones; one ratio per row
    of a stack of spectra.  The voiced-frame gate below is its caller.
    """
    m = np.maximum(np.asarray(magnitudes, dtype=np.float64), FLATNESS_FLOOR)
    return np.exp(np.mean(np.log(m), axis=-1)) / np.mean(m, axis=-1)


# === voiced-region detection ===

def detect_voiced_regions(clip: AudioClip) -> list[tuple[int, int]]:
    """Energy + flatness gating over non-overlapping 50 ms frames.

    A frame qualifies when its RMS exceeds VOICED_RMS_FACTOR times the clip's
    median frame RMS and its spectral flatness over 100-4000 Hz is below
    VOICED_FLATNESS_MAX.  Runs of qualifying frames become regions, returned
    as [start, end) sample bounds on the frame grid; regions shorter than
    100 ms are dropped.  A clip shorter than 100 ms, or sampled too slowly
    for any frame to reach the flatness band, is DegenerateInput.
    """
    sr = clip.sample_rate
    if sr < 2 * FLATNESS_BAND_HZ[0]:
        raise DegenerateInput(
            f"sample rate {sr} Hz is below {2 * FLATNESS_BAND_HZ[0]:.0f} Hz, "
            f"so no frame reaches the voiced gate's flatness band")
    if clip.duration_s < MIN_REGION_SECONDS:
        raise DegenerateInput(
            f"need at least {MIN_REGION_SECONDS * 1000:.0f} ms, "
            f"got {clip.duration_s * 1000:.1f} ms")

    frame_len = segment_length(sr)
    x = np.asarray(clip.samples, dtype=np.float64)
    n_frames = len(x) // frame_len
    if n_frames == 0:
        return []

    frames = x[:n_frames * frame_len].reshape(n_frames, frame_len)
    # frame RMS in stacks of STACK_ROWS rows, like the FFT below: squaring
    # the whole frame matrix would hold a second float64 copy of the clip
    rms = np.concatenate([
        np.sqrt(np.mean(frames[lo:lo + STACK_ROWS] ** 2, axis=1))
        for lo in range(0, n_frames, STACK_ROWS)])
    gate = VOICED_RMS_FACTOR * float(np.median(rms))

    # Gaussian analysis window keeps leakage out of the flatness measurement;
    # rectangular frames smear enough to push tonal frames past the gate.
    window = gaussian_window(frame_len)
    voiced = np.zeros(n_frames, dtype=bool)
    loud = np.flatnonzero(rms > gate)
    band = None
    # frames go through the FFT in stacks of STACK_ROWS so the working set
    # stays bounded however long the clip is
    for lo in range(0, len(loud), STACK_ROWS):
        rows = loud[lo:lo + STACK_ROWS]
        spec = fft_magnitude(frames[rows] * window, sr)
        if band is None:
            freqs = np.arange(spec.magnitudes.shape[-1]) * spec.bin_hz
            band = (freqs >= FLATNESS_BAND_HZ[0]) & (freqs <= FLATNESS_BAND_HZ[1])
        voiced[rows] = (flatness_ratio(spec.magnitudes[:, band])
                        < VOICED_FLATNESS_MAX)

    # a run starts where the mask turns on and ends where it turns off, so
    # two runs are split by at least one unvoiced frame and never touch
    edges = np.flatnonzero(np.diff(voiced, prepend=False, append=False))
    return [(lo, hi) for lo, hi in (edges.reshape(-1, 2) * frame_len).tolist()
            if (hi - lo) / sr >= MIN_REGION_SECONDS]


def segment_regions(clip: AudioClip, regions) -> list[Segment]:
    """Tile 50 ms non-overlapping segments left to right inside each
    [start, end) sample region.

    Partial trailing windows are dropped; output is capped at MAX_SEGMENTS,
    keeping the earliest voiced audio.
    """
    sr = clip.sample_rate
    seg_len = segment_length(sr)
    starts = [s for lo, hi in regions
              for s in range(lo, hi - seg_len + 1, seg_len)]
    return [Segment(samples=clip.samples[s:s + seg_len], sample_rate=sr,
                    start_s=s / sr, index=i)
            for i, s in enumerate(starts[:MAX_SEGMENTS])]
