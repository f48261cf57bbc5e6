"""Voiced-region detection, 50 ms segmentation, windowing, and the FFT.

The FFT takes power-of-two lengths; frames are zero-padded to the next power
of two (2400-sample frames at 48 kHz become 4096 points).  It is Bailey's
four-step transform (FFTs in external or hierarchical memory, J.
Supercomputing 4, 1990): N = N1*N2 points become an N2-point DFT-matrix
product, a twiddle multiply and an N1-point DFT-matrix product, with the
matrices cached per length.  A real frame of N points goes through one
N/2-point complex transform: even samples as the real part, odd samples as
the imaginary part, then a split step that recovers bins 0..N/2 (Sorensen et
al., Real-valued FFT algorithms, IEEE TASSP 1987).  Pitch (in features)
comes from an FFT autocorrelation built from two such packed transforms.
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


# === four-step FFT ===

def _dft_matrix(n: int) -> np.ndarray:
    # k*j is reduced mod n in integers, so every angle lies below 2*pi
    k = np.arange(n)
    return np.exp(-2j * np.pi * (np.outer(k, k) % n) / n)


@cache
def _plan(n: int) -> tuple:
    """(N1-point DFT matrix, N2-point DFT matrix, twiddles [k2, n1]) of the
    length-n four-step transform, read-only."""
    n1 = 1 << ((n.bit_length() - 1) // 2)
    n2 = n // n1
    plan = (_dft_matrix(n1), _dft_matrix(n2),
            np.exp(-2j * np.pi * np.outer(np.arange(n2), np.arange(n1)) / n))
    for table in plan:
        table.flags.writeable = False
    return plan


@cache
def _split_twiddles(n: int) -> np.ndarray:
    """-i/2 * W_N^k for k = 0..N/2, the split step's twiddles, read-only."""
    tw = -0.5j * np.exp(-2j * np.pi * np.arange(n // 2 + 1) / n)
    tw.flags.writeable = False
    return tw


def fft_radix2(x) -> np.ndarray:
    """In-order FFT along the last axis, as Bailey's four-step transform.

    Length must be a power of two.  N = N1*N2 with N1 = 2^floor(log2(N)/2);
    the frame x[n1 + N1*n2] is an (N2, N1) matrix.  The N2-point DFT matrix
    transforms its columns, the twiddles W_N^(n1*k2) scale the result, the
    N1-point DFT matrix transforms its rows, and X[N2*k1 + k2] is read out.
    Both products run batched over the leading axes.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n == 0 or n & (n - 1):
        raise ValueError(f"radix-2 length must be a power of two, got {n}")
    if n == 1:
        return x.copy()

    f1, f2, twiddles = _plan(n)
    lead = x.shape[:-1]
    # in place where the arithmetic allows: a stack's temporaries are large
    # enough that each fresh one costs page faults
    t = f2 @ x.reshape(*lead, len(f2), len(f1))
    t *= twiddles
    c = t @ f1
    out = t.reshape(*lead, len(f1), len(f2))
    np.copyto(out, c.swapaxes(-1, -2))
    return out.reshape(*lead, n)


def real_fft(x) -> np.ndarray:
    """Bins 0..N/2 of the DFT of real frames along the last axis.

    N must be a power of two and at least 2.  The N/2-point transform of
    z[k] = x[2k] + i*x[2k+1] holds the even- and odd-sample spectra E and O,
    which the split step separates and joins as X[k] = E[k] + W_N^k O[k].
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    z = 1j * x[..., 1::2]
    z += x[..., 0::2]
    z = fft_radix2(z)
    # zk[k] = Z[k mod N/2] and its reversal gives Z[(N/2 - k) mod N/2]
    zk = np.concatenate([z, z[..., :1]], axis=-1)
    zr = np.conj(zk[..., ::-1])
    out = zk + zr
    out *= 0.5
    np.subtract(zk, zr, out=zr)
    out += np.multiply(_split_twiddles(n), zr, out=zr)
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
    if nfft == 1:
        mags = np.abs(x)
    else:
        padded = np.zeros(x.shape[:-1] + (nfft,))
        padded[..., :length] = x
        mags = np.abs(real_fft(padded))
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
