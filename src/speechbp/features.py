"""Per-segment acoustic features and their per-recording aggregation.

Each 50 ms segment yields one row: 12 MFCCs, amplitude-shape statistics
(skewness, excess kurtosis, rectified area, extrema) and pitch, in
SEGMENT_NAMES order.  A recording is summarized by the arithmetic mean of each
of its schema's columns over its segments, so downstream CSVs line up.

Every per-segment function works along the last axis, so a clip's segments go
through them in stacks of at most STACK_ROWS consecutive segments, and each
row of a stack equals, bit for bit, that segment computed alone.  Where a
stacked operation would round differently (a matrix-matrix product, numpy's
array power, a row-wise sum of squares) the code keeps one matrix-vector
product, one Python float or one dot product per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .artifacts import (read_csv, read_json, require_keys, write_csv,
                        write_json)
from .dsp import (DEFAULT_WINDOW_SIGMA, SEGMENT_SECONDS, STACK_ROWS, Segment,
                  detect_voiced_regions, fft_magnitude, fft_radix2,
                  gaussian_window, segment_length, segment_regions)
from .audio_io import AudioClip
from .errors import DegenerateInput, InsufficientData, MalformedArtifact

PREEMPHASIS = 0.97
N_MEL_FILTERS = 26
LOG_FLOOR = 1e-10
N_MFCC = 12

PITCH_MIN_HZ = 60.0
PITCH_MAX_HZ = 400.0
PITCH_MIN_CORRELATION = 0.3
# a recording's pitch is its voiced segments' mean only when at least this
# fraction of segments comes back voiced, and 0.0 (unvoiced) otherwise
PITCH_VOICED_FRACTION = 0.5

BASE_NAMES = tuple(f"mfcc{i}" for i in range(1, N_MFCC + 1)) + (
    "skewness", "kurtosis", "poly_area", "amp_max", "amp_min")
PITCH_NAME = "pitch_hz"
# the columns of a segment_features row, in order
SEGMENT_NAMES = BASE_NAMES + (PITCH_NAME,)

BASE_SCHEMA = "base"
# schema id -> the columns a recording's vector averages
SCHEMAS = {BASE_SCHEMA: BASE_NAMES, "extended": SEGMENT_NAMES}


@dataclass(frozen=True)
class FeatureVector:
    names: tuple
    values: np.ndarray
    n_segments: int
    schema_id: str


def mel_from_hz(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def hz_from_mel(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@cache
def mel_filterbank(sample_rate: int, n_bins: int,
                   fft_size: int) -> np.ndarray:
    """N_MEL_FILTERS triangular filters spanning 0 Hz to Nyquist, evaluated
    at bin centers.

    Rows are filters, columns are spectrum bins; each filter rises linearly
    in Hz from its left edge to 1.0 at its center and falls to the right
    edge, with the edges equally spaced on the mel scale.  Built once per
    argument tuple and returned read-only, shared by every caller.
    """
    edges = hz_from_mel(np.linspace(0.0, mel_from_hz(sample_rate / 2.0),
                                    N_MEL_FILTERS + 2))
    freqs = np.arange(n_bins) * (sample_rate / fft_size)
    left = edges[:-2, None]
    center = edges[1:-1, None]
    right = edges[2:, None]
    rising = (freqs - left) / (center - left)
    falling = (right - freqs) / (right - center)
    bank = np.clip(np.minimum(rising, falling), 0.0, None)
    bank.flags.writeable = False
    return bank


@cache
def _dct2_matrix(m: int) -> np.ndarray:
    # orthonormal DCT-II, read-only; row 0 carries the DC scale even though
    # mfcc_12 discards it
    k = np.arange(m)[:, None]
    i = np.arange(m)[None, :]
    mat = np.cos(np.pi * k * (2 * i + 1) / (2 * m)) * np.sqrt(2.0 / m)
    mat[0] /= np.sqrt(2.0)
    mat.flags.writeable = False
    return mat


def mfcc_12(segment: Segment) -> np.ndarray:
    """Mel-frequency cepstral coefficients 1..12 of each 50 ms segment."""
    x = np.asarray(segment.samples, dtype=np.float64)
    expected = segment_length(segment.sample_rate)
    if x.shape[-1] != expected:
        raise ValueError(f"segment has {x.shape[-1]} samples, "
                         f"expected {expected}")
    emphasized = np.empty_like(x)
    emphasized[..., 0] = x[..., 0]
    emphasized[..., 1:] = x[..., 1:] - PREEMPHASIS * x[..., :-1]
    emphasized *= gaussian_window(expected)
    spec = fft_magnitude(emphasized, segment.sample_rate)
    bank = mel_filterbank(segment.sample_rate, spec.magnitudes.shape[-1],
                          spec.fft_size)
    # a trailing unit axis makes both products matrix-vector, one per row,
    # so each row rounds as it does alone (a matrix-matrix product need not)
    log_e = np.log(np.maximum(bank @ spec.magnitudes[..., None], LOG_FLOOR))
    return (_dct2_matrix(len(bank)) @ log_e)[..., 1:N_MFCC + 1, 0]


def _per_row(formula, *columns):
    """formula applied to Python floats, one row at a time.

    numpy's array power can round a last bit differently from the scalar
    power a lone segment takes, so per-row ratios of moments go through this.
    """
    shape = np.shape(columns[0])
    values = [formula(*row) for row in zip(*(np.ravel(c).tolist()
                                              for c in columns))]
    return np.array(values, dtype=np.float64).reshape(shape)[()]


def _central_moments(samples, least: int, name: str):
    """(centered, squared, second moment) along the last axis."""
    x = np.asarray(samples, dtype=np.float64)
    if x.shape[-1] < least:
        raise ValueError(f"{name} needs at least {least} samples")
    centered = x - x.mean(axis=-1, keepdims=True)
    squared = centered * centered
    m2 = np.mean(squared, axis=-1)
    if np.any(m2 == 0.0):
        raise InsufficientData(f"constant signal has no {name}")
    return centered, squared, m2


def skewness(samples):
    centered, squared, m2 = _central_moments(samples, 3, "skewness")
    return _per_row(lambda m3, m2: m3 / m2 ** 1.5,
                    np.mean(squared * centered, axis=-1), m2)


def kurtosis(samples):
    """Excess kurtosis: 0 for a normal distribution, -2 for a two-level one."""
    _, squared, m2 = _central_moments(samples, 4, "kurtosis")
    return _per_row(lambda m4, m2: m4 / m2 ** 2 - 3.0,
                    np.mean(squared * squared, axis=-1), m2)


def poly_area(segment: Segment):
    """Trapezoidal integral of |x(t)| over the segment, in amplitude-seconds."""
    x = np.abs(np.asarray(segment.samples, dtype=np.float64))
    if x.shape[-1] < 2:
        raise ValueError("area needs at least 2 samples")
    return (np.sum(x[..., 1:] + x[..., :-1], axis=-1) * 0.5
            / segment.sample_rate)


def amplitude_extrema(segment: Segment):
    x = np.asarray(segment.samples, dtype=np.float64)
    if x.shape[-1] == 0:
        raise ValueError("empty segment has no extrema")
    return np.max(x, axis=-1), np.min(x, axis=-1)


def pitch(segment: Segment):
    """Autocorrelation pitch in the 60-400 Hz band; 0.0 means unvoiced.

    The normalized autocorrelation must reach 0.3 at the winning lag;
    anything weaker (noise, silence) is reported as unvoiced rather than
    raising.  A stack of segments gives one pitch per segment.
    """
    x = np.asarray(segment.samples, dtype=np.float64)
    n = x.shape[-1]
    hz = np.zeros(x.shape[:-1])
    lag_lo = int(round(segment.sample_rate / PITCH_MAX_HZ))
    lag_hi = min(int(round(segment.sample_rate / PITCH_MIN_HZ)), n - 1)
    if lag_lo < 1 or lag_hi < lag_lo:
        return hz[()]
    rows = x.reshape(-1, n)
    # one dot product per row, as a lone segment takes it
    r0 = np.array([float(np.dot(row, row)) for row in rows])
    live = np.flatnonzero(r0 > 0.0)
    if len(live) == 0:
        return hz[()]
    # Every lag comes from one autocorrelation: the inverse transform of the
    # power spectrum.  Padding to nfft >= n + lag_hi keeps the circular
    # autocorrelation from wrapping into the lags read here.  The power
    # spectrum is real and even, so its forward transform is nfft times its
    # inverse and a second forward transform of a real frame serves.
    nfft = 2
    while nfft < n + lag_hi:
        nfft *= 2
    padded = np.zeros((len(live), nfft))
    padded[:, :n] = rows[live]
    spec = fft_radix2(padded)
    # the power spectrum over all nfft bins, even because the upper bins
    # are conjugates of the lower ones, written into the padded frames'
    # buffer
    power = np.multiply(spec.real, spec.real, out=padded)
    power += spec.imag * spec.imag
    acf = fft_radix2(power).real
    r = acf[:, lag_lo:lag_hi + 1] / (nfft * r0[live, None])
    best = np.argmax(r, axis=-1)  # first maximum, as a strict > scan would
    peak = r[np.arange(len(live)), best]
    # written as "not >=" so a non-finite frame (NaN maximum) reads unvoiced
    found = segment.sample_rate / (lag_lo + best)
    found[~(peak >= PITCH_MIN_CORRELATION)] = 0.0
    hz.reshape(-1)[live] = found
    return hz[()]


def segment_features(segment: Segment) -> np.ndarray:
    """All per-segment features in one pass, in SEGMENT_NAMES order.

    One segment gives one row; a stack of segments (samples of shape (k, n))
    gives k rows, each equal bit for bit to that segment's own.  A stack
    raises what its first failing feature raises for any of its rows.
    """
    x = np.asarray(segment.samples, dtype=np.float64)
    return np.concatenate([mfcc_12(segment), np.stack([
        skewness(x), kurtosis(x), poly_area(segment),
        *amplitude_extrema(segment), pitch(segment)], axis=-1)], axis=-1)


def aggregate_recording(rows, schema: str = BASE_SCHEMA) -> FeatureVector:
    """Mean of each of the schema's columns over the segment rows.

    Pitch is the mean over the voiced rows (pitch above 0) when at least
    PITCH_VOICED_FRACTION of the rows are voiced, and 0.0 otherwise, the
    value an unvoiced segment gives.
    """
    if schema not in SCHEMAS:
        raise ValueError(f"unknown schema {schema!r}")
    rows = np.asarray(rows, dtype=np.float64)
    if len(rows) == 0:
        raise DegenerateInput("no voiced audio in input")

    names = SCHEMAS[schema]
    # take keeps the copy row-major, so each column sums its rows in order;
    # pitch, the last column, is averaged apart
    values = list(rows.take([SEGMENT_NAMES.index(n) for n in names
                             if n != PITCH_NAME], axis=1).mean(axis=0))
    if PITCH_NAME in names:
        hz = rows[:, SEGMENT_NAMES.index(PITCH_NAME)]
        voiced = hz[hz > 0.0]
        values.append(voiced.mean()
                      if len(voiced) >= PITCH_VOICED_FRACTION * len(rows)
                      else 0.0)
    return FeatureVector(names=names,
                         values=np.array(values, dtype=np.float64),
                         n_segments=len(rows), schema_id=schema)


def extract_recording(clips: Sequence[AudioClip],
                      schema: str = BASE_SCHEMA) -> FeatureVector:
    """Voiced-region detection, segmentation, and aggregation for a recording.

    Each clip is segmented on its own, so the segment cap applies per clip,
    and its segments go through segment_features in stacks of at most
    STACK_ROWS, so the working set stays bounded however long the clip is;
    the features are then averaged over the segments of all clips.  Raises
    DegenerateInput when no clip holds a voiced segment.
    """
    rows = [np.empty((0, len(SEGMENT_NAMES)))]
    for clip in clips:
        segments = segment_regions(clip, detect_voiced_regions(clip))
        for lo in range(0, len(segments), STACK_ROWS):
            stack = segments[lo:lo + STACK_ROWS]
            rows.append(segment_features(Segment(
                samples=np.stack([s.samples for s in stack]),
                sample_rate=clip.sample_rate, start_s=stack[0].start_s,
                index=stack[0].index)))
    return aggregate_recording(np.concatenate(rows), schema)


def default_parameters() -> dict:
    return {
        "segment_seconds": SEGMENT_SECONDS,
        "window_sigma": DEFAULT_WINDOW_SIGMA,
        "preemphasis": PREEMPHASIS,
        "n_mel_filters": N_MEL_FILTERS,
        "log_floor": LOG_FLOOR,
        "n_mfcc": N_MFCC,
        "pitch_band_hz": [PITCH_MIN_HZ, PITCH_MAX_HZ],
    }


def write_features_csv(csv_path, manifest_path, recording_ids,
                       vectors: Sequence[FeatureVector],
                       parameters: dict | None = None) -> None:
    """One CSV row per recording plus a JSON manifest with ids and settings.

    The CSV header is exactly the feature names; row order matches the
    manifest's recording list.
    """
    if len(recording_ids) != len(vectors):
        raise ValueError("one id per feature vector required")
    if not vectors:
        raise ValueError("nothing to write")
    names = vectors[0].names
    for v in vectors:
        if v.names != names:
            raise ValueError("feature vectors disagree on schema layout")

    write_csv(csv_path, names, [v.values for v in vectors])
    merged = default_parameters()
    if parameters:
        merged.update(parameters)
    write_json(manifest_path, {
        "schema_id": vectors[0].schema_id,
        "parameters": merged,
        "recordings": [{"id": str(rid), "n_segments": v.n_segments}
                       for rid, v in zip(recording_ids, vectors)],
    })


def read_features_csv(csv_path, manifest_path):
    """Returns (ids, names, value matrix, manifest dict).

    A bad cell, an unknown schema id, a header that is not that schema's
    columns, a repeated recording id, or a manifest whose recordings
    disagree with the CSV's rows is MalformedArtifact, naming the file.
    """
    manifest = read_json(manifest_path, {"schema_id": str,
                                         "recordings": list})
    names, rows = read_csv(csv_path)
    try:
        matrix = np.array([[float(cell) for cell in row] for row in rows],
                          dtype=np.float64).reshape(len(rows), len(names))
    except ValueError as err:
        raise MalformedArtifact(f"{csv_path}: {err}") from None
    if not np.all(np.isfinite(matrix)):
        raise MalformedArtifact(f"{csv_path}: a cell is not finite")
    schema_id = manifest["schema_id"]
    if schema_id not in SCHEMAS:
        raise MalformedArtifact(f"{manifest_path}: unknown schema_id "
                                f"{schema_id!r}")
    if names != SCHEMAS[schema_id]:
        raise MalformedArtifact(f"{manifest_path}: schema_id {schema_id!r} "
                                f"does not match the header of {csv_path}")
    ids = [require_keys(rec, {"id": str, "n_segments": int},
                        manifest_path)["id"]
           for rec in manifest["recordings"]]
    first: dict = {}
    for pos, rid in enumerate(ids):
        if first.setdefault(rid, pos) != pos:
            raise MalformedArtifact(
                f"{manifest_path}: recording id {rid!r} repeats at "
                f"recordings[{first[rid]}] and recordings[{pos}]")
    if len(ids) != len(matrix):
        raise MalformedArtifact(f"{manifest_path} lists {len(ids)} "
                                f"recordings, {csv_path} has {len(matrix)} "
                                f"rows")
    return ids, names, matrix, manifest
