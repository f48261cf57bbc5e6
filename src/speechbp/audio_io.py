"""WAV ingestion and vowel-like fixture synthesis.

The corpus format is RIFF/WAVE, PCM format code 1, 16-bit little-endian,
stereo at 48 kHz.  The extensible header (format code 0xFFFE) that many
recorders write is read as format 1 when its subformat is PCM.  Loading
downmixes to mono; other sample rates are accepted and passed through,
downstream frame sizes are derived from the actual rate.

The synthesizer evaluates its harmonic series as one complex matrix product
over the sample index split as a*B + b (the factoring of Bailey's four-step
FFT), not one sine per harmonic per sample.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_bytes
from .errors import MalformedArtifact

# -32768 maps to -1.0 exactly with this divisor
INT16_FULL_SCALE = 32768.0

# WAVE_FORMAT_EXTENSIBLE, and KSDATAFORMAT_SUBTYPE_PCM as its fmt chunk
# stores it at bytes 24..39
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
PCM_SUBFORMAT = bytes.fromhex("0100000000001000800000aa00389b71")

F0_MIN_HZ = 60.0
F0_MAX_HZ = 400.0


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform with amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int
    source_channels: int = 1

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


def load_wav(path) -> AudioClip:
    """Parse a RIFF/WAVE file into a mono AudioClip.

    Stereo input is downmixed by averaging the two channels.  Samples are
    scaled by 1/32768.  The file is read once and its data chunk is viewed,
    not copied.

    Raises MalformedArtifact for a container that is not RIFF/WAVE, is cut
    short, or is not 16-bit integer PCM (format 1, or extensible with the
    PCM subformat).
    """
    data = memoryview(Path(path).read_bytes())
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedArtifact(
            f"{path}: not a little-endian RIFF/WAVE container")

    fmt = None
    pcm = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (declared,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + declared]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise MalformedArtifact(
                    f"{path}: fmt chunk shorter than 16 bytes")
            fmt = body
        elif chunk_id == b"data":
            if len(body) < declared:
                raise MalformedArtifact(
                    f"{path}: data chunk declares {declared} bytes, "
                    f"only {len(body)} present")
            pcm = body
        # chunk bodies are word-aligned; skip the pad byte after odd sizes
        pos += 8 + declared + (declared & 1)

    if fmt is None or pcm is None:
        raise MalformedArtifact(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = (
        struct.unpack_from("<HHIIHH", fmt, 0))
    subformat = bytes(fmt[24:40])
    if audio_format == WAVE_FORMAT_EXTENSIBLE and subformat != PCM_SUBFORMAT:
        raise MalformedArtifact(
            f"{path}: extensible format needs the PCM subformat, got "
            f"{subformat.hex() or 'none'} in a {len(fmt)}-byte fmt chunk")
    if audio_format not in (1, WAVE_FORMAT_EXTENSIBLE):
        raise MalformedArtifact(
            f"{path}: PCM format code 1 required, got {audio_format}")
    if bits != 16:
        raise MalformedArtifact(f"{path}: 16-bit samples required, got {bits}")
    if channels not in (1, 2):
        raise MalformedArtifact(
            f"{path}: expected 1 or 2 channels, got {channels}")
    if sample_rate <= 0:
        raise MalformedArtifact(
            f"{path}: nonpositive sample rate in fmt chunk")

    usable = len(pcm) - len(pcm) % (2 * channels)
    ints = np.frombuffer(pcm[:usable], dtype="<i2")
    if channels == 2:
        # exact in doubles, so the same bits as the mean of l/32768 and r/32768
        samples = np.add(ints[0::2], ints[1::2],
                         dtype=np.float64) / (2 * INT16_FULL_SCALE)
    else:
        samples = ints / INT16_FULL_SCALE
    return AudioClip(samples=samples, sample_rate=int(sample_rate),
                     source_channels=int(channels))


def write_wav(path, samples, sample_rate: int, channels: int = 2) -> None:
    """Write mono samples as a 16-bit PCM WAV; channels=2 duplicates the signal.

    Round trip through load_wav recovers the samples up to one quantization
    step (1/32768).
    """
    if channels not in (1, 2):
        raise ValueError(f"can only write 1 or 2 channels, got {channels}")
    x = np.asarray(samples, dtype=np.float64)
    q = np.clip(np.round(x * INT16_FULL_SCALE), -32768, 32767).astype("<i2")
    if channels == 2:
        q = np.repeat(q, 2)
    payload = q.tobytes()
    block_align = 2 * channels
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    fmt = b"fmt " + struct.pack("<IHHIIHH", 16, 1, channels, sample_rate,
                                sample_rate * block_align, block_align, 16)
    data = b"data" + struct.pack("<I", len(payload))
    write_bytes(path, header + fmt + data + payload)


def synthesize_speech(f0: float, formants, duration_s: float,
                      sample_rate: int = 48000, seed: int = 0) -> AudioClip:
    """Generate a vowel-like periodic signal for fixtures and synthetic cohorts.

    A harmonic series at f0 is shaped by Gaussian resonance bumps centered on
    the given (center_hz, gain) formants, amplitude-modulated by a slow random
    envelope, dusted with low-level noise, and peak-normalized.  Bit-identical
    for identical arguments and seed.

    The harmonic sum  sum_k A_k sin(k w t + phi_k)  is the imaginary part of
    sum_k c_k e^{i k w t} with c_k = A_k e^{i phi_k}.  Splitting the sample
    index as t = a B + b (B about sqrt(n)) turns it into one complex matrix
    product: U[a, k] = c_k e^{i k w a B}, an A x K matrix, times
    V[k, b] = e^{i k w b}, a K x B matrix, read out row by row.  That is
    2 sqrt(n) K complex exponentials in place of n K sines.

    Raises ValueError for an f0 outside [F0_MIN_HZ, F0_MAX_HZ], a sample rate
    that is not positive, or a duration that rounds to no samples.
    """
    if not (F0_MIN_HZ <= f0 <= F0_MAX_HZ):
        raise ValueError(f"f0 {f0} Hz outside [{F0_MIN_HZ}, {F0_MAX_HZ}]")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if sample_rate <= 0:
        raise ValueError(f"sample_rate must be positive, got {sample_rate}")
    n = int(round(duration_s * sample_rate))
    if n == 0:
        raise ValueError(f"duration_s {duration_s} s rounds to zero samples "
                         f"at {sample_rate} Hz")

    rng = np.random.default_rng(seed)
    t = np.arange(n) / sample_rate
    formants = [(float(c), float(g)) for c, g in formants]

    bandwidth_hz = 90.0
    n_harmonics = min(int((sample_rate / 2) / f0), 60)
    k = np.arange(1, n_harmonics + 1)
    f = k * f0
    resonance = sum(g * np.exp(-0.5 * ((f - c) / bandwidth_hz) ** 2)
                    for c, g in formants)
    amplitude = (0.02 + resonance) / k ** 0.5
    phase = rng.uniform(0.0, 2.0 * np.pi, n_harmonics)

    # sample a*block + b is row a of u (phases at t[a*block]) times
    # column b of v (advanced by t[b])
    block = math.isqrt(n)
    omega = 2.0 * np.pi * f
    u = amplitude * np.exp(1j * (np.outer(t[::block], omega) + phase))
    v = np.exp(1j * np.outer(omega, t[:block]))
    y = (u @ v).imag.ravel()[:n]

    # slow amplitude modulation decouples per-segment extrema from f0
    am_rate = rng.uniform(2.0, 4.0)
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    am_depth = rng.uniform(0.15, 0.25)
    y *= 1.0 + am_depth * np.sin(2.0 * np.pi * am_rate * t + am_phase)

    # raised-cosine onset/offset so the weakest frames sit at region edges
    ramp = min(int(round(0.060 * sample_rate)), n // 4)
    if ramp > 0:
        fade = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
        y[:ramp] *= fade
        y[-ramp:] *= fade[::-1]

    peak = np.max(np.abs(y))
    if peak > 0:
        y /= peak
    y += 0.004 * rng.standard_normal(n)
    y /= np.max(np.abs(y))
    return AudioClip(samples=y, sample_rate=int(sample_rate), source_channels=1)
