"""Participant records, labeling, scaling, partitioning, and cohort synthesis.

The synthetic cohort exists so the whole pipeline can run end to end without
clinical data: blood pressure values are drawn per sex from bounded normal
profiles, and each participant's vowel recording carries the pressure in its
acoustics (f0 tracks systolic, first formant tracks diastolic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import read_csv, write_csv
from .audio_io import synthesize_speech, write_wav
from .errors import InsufficientData, MalformedArtifact
from .features import FeatureVector
from .parallel import ordered_map

SBP_RANGE = (60.0, 260.0)
DBP_RANGE = (30.0, 160.0)
AGE_RANGE = (20, 70)

SBP_THRESHOLD = 115.0
DBP_THRESHOLD = 72.0

# the share of the cohort that `bp train` holds out for `bp eval`, and the
# share of the rest that it holds out to report a validation loss
TEST_FRACTION = 0.2
VAL_FRACTION = 0.1

# Per-sex (min, max, mean, std) for systolic and diastolic pressure.
DEFAULT_PROFILE = {
    "F": {"sbp": (91.0, 153.0, 114.28, 15.74),
          "dbp": (35.0, 98.0, 77.42, 13.30)},
    "M": {"sbp": (86.0, 153.0, 119.7, 13.73),
          "dbp": (48.0, 91.0, 79.88, 17.01)},
}

# planted acoustic couplings: fraction of the cohort BP range maps linearly
# onto these bands
F0_BAND_HZ = (90.0, 240.0)
F1_BAND_HZ = (500.0, 900.0)
SECOND_FORMANT = (1200.0, 0.6)

# latent coupling before clipping; the bound-and-gap adjustments below pull
# the realized cohort correlation down to roughly 0.83
SBP_DBP_CORRELATION = 0.88
MIN_PRESSURE_GAP = 10.0

VOWEL_SECONDS = 1.5
SILENCE_SECONDS = 0.8
SILENCE_NOISE = 5e-4
COHORT_SAMPLE_RATE = 48000

MANIFEST_COLUMNS = ("id", "sex", "age", "sbp_initial", "sbp_final",
                    "dbp_initial", "dbp_final", "heart_rate", "wav_path")


def _reject_constant(stds: np.ndarray, names) -> None:
    flat = np.flatnonzero(stds == 0.0)
    if flat.size:
        raise InsufficientData("constant column "
                               + ", ".join(str(names[i]) for i in flat))


def _check_bp(value: float, lo: float, hi: float, what: str) -> None:
    if not lo <= value <= hi:
        raise ValueError(f"{what} {value} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class ParticipantRecord:
    id: str
    sex: str
    age: int
    sbp_initial: float
    sbp_final: float
    dbp_initial: float
    dbp_final: float
    heart_rate: float | None = None
    wav_paths: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.sex not in ("F", "M"):
            raise ValueError(f"sex must be F or M, got {self.sex!r}")
        if not AGE_RANGE[0] <= self.age <= AGE_RANGE[1]:
            raise ValueError(f"age {self.age} outside {AGE_RANGE}")
        for v, what in ((self.sbp_initial, "initial SBP"),
                        (self.sbp_final, "final SBP")):
            _check_bp(v, *SBP_RANGE, what)
        for v, what in ((self.dbp_initial, "initial DBP"),
                        (self.dbp_final, "final DBP")):
            _check_bp(v, *DBP_RANGE, what)
        if self.heart_rate is not None and not math.isfinite(self.heart_rate):
            raise ValueError(f"heart rate {self.heart_rate} is not finite")
        if self.dbp_initial >= self.sbp_initial:
            raise ValueError("initial DBP must stay below SBP")
        if self.dbp_final >= self.sbp_final:
            raise ValueError("final DBP must stay below SBP")


@dataclass(frozen=True)
class LabeledExample:
    participant_id: str
    features: FeatureVector
    sbp_target: float
    dbp_target: float
    hypertension: int


def label_hypertension(sbp: float, dbp: float) -> int:
    """1 when either pressure exceeds its threshold, boundary included as 0."""
    _check_bp(sbp, *SBP_RANGE, "SBP")
    _check_bp(dbp, *DBP_RANGE, "DBP")
    return int(sbp > SBP_THRESHOLD or dbp > DBP_THRESHOLD)


def mean_of_measurements(record: ParticipantRecord):
    return ((record.sbp_initial + record.sbp_final) / 2.0,
            (record.dbp_initial + record.dbp_final) / 2.0)


def build_examples(records: Sequence[ParticipantRecord],
                   feature_vectors: dict):
    """Pair each participant with their feature vector and BP targets."""
    examples = []
    for record in records:
        if record.id not in feature_vectors:
            raise ValueError(f"participant {record.id} has no feature vector")
        sbp, dbp = mean_of_measurements(record)
        examples.append(LabeledExample(
            participant_id=record.id,
            features=feature_vectors[record.id],
            sbp_target=float(sbp),
            dbp_target=float(dbp),
            hypertension=label_hypertension(sbp, dbp),
        ))
    return examples


# --- scaling ---

@dataclass(frozen=True)
class Scaler:
    kind: str
    center: np.ndarray  # per-feature mean
    scale: np.ndarray   # per-feature std; 0 flags a constant column


def fit_scaler(train_features, kind: str, on_constant: str = "reject",
               names=None) -> Scaler:
    """Per-column mean and std.  A constant column raises InsufficientData,
    named from `names` (else by index), unless on_constant is "center"."""
    X = np.asarray(train_features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("need a 2-d matrix with at least 2 training rows")
    if kind != "standard":
        raise ValueError(f"unknown scaler kind {kind!r}")
    center = X.mean(axis=0)
    scale = X.std(axis=0)
    if on_constant == "reject":
        _reject_constant(scale, range(X.shape[1]) if names is None else names)
    return Scaler(kind=kind, center=center, scale=scale)


def apply_scaler(scaler: Scaler, features) -> np.ndarray:
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    safe = np.where(scaler.scale == 0.0, 1.0, scaler.scale)
    out = (X - scaler.center) / safe
    out[:, scaler.scale == 0.0] = 0.0
    return out


def invert_scaler(scaler: Scaler, scaled) -> np.ndarray:
    X = np.atleast_2d(np.asarray(scaled, dtype=np.float64))
    out = X * scaler.scale + scaler.center
    out[:, scaler.scale == 0.0] = scaler.center[scaler.scale == 0.0]
    return out


def scaler_to_dict(scaler: Scaler) -> dict:
    return {"kind": scaler.kind,
            "center": [float(v) for v in scaler.center],
            "scale": [float(v) for v in scaler.scale]}


def scaler_from_dict(payload: dict) -> Scaler:
    if payload["kind"] != "standard":
        raise ValueError(f"unknown scaler kind {payload['kind']!r}")
    return Scaler(kind=payload["kind"],
                  center=np.array(payload["center"], dtype=np.float64),
                  scale=np.array(payload["scale"], dtype=np.float64))


# --- partitioning ---

def stratified_order(labels, seed: int) -> dict:
    """{class: its positions in `labels`, in drawn order}, classes ascending.

    Each class draws from its own rng stream, keyed on (seed, class), so the
    draw for one class never disturbs another's.  The test and validation
    parts and relieff's CV folds all take their members from this order.
    """
    labels = np.asarray(labels, dtype=np.int64)
    order = {}
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        rng = np.random.default_rng((seed, int(label)))
        order[int(label)] = members[rng.permutation(len(members))]
    return order


def partition(labels, seed: int):
    """Seeded, class-stratified (train, val, test) positions into `labels`,
    each list ascending.

    Each class gives floor or ceil of its TEST_FRACTION share to the test
    part; leftover seats go to the classes with the largest fractional parts
    so the test size lands on round(n * TEST_FRACTION), and no class gives
    up its last member.  The validation part is int(m * VAL_FRACTION) of each
    class's m remaining members, drawn over the remaining positions alone.
    """
    labels = np.asarray(labels, dtype=np.int64)
    order = stratified_order(labels, seed)
    for label, members in order.items():
        if len(members) < 2:
            raise InsufficientData(
                f"class {label} has {len(members)} example(s); need >= 2")

    total_test = int(round(len(labels) * TEST_FRACTION))
    shares = {label: len(m) * TEST_FRACTION for label, m in order.items()}
    counts = {label: int(np.floor(s)) for label, s in shares.items()}
    leftovers = total_test - sum(counts.values())
    for label in sorted(order, key=lambda c: (counts[c] - shares[c], c)):
        if leftovers <= 0:
            break
        if counts[label] + 1 < len(order[label]):
            counts[label] += 1
            leftovers -= 1
    test = sorted(int(i) for label, drawn in order.items()
                  for i in drawn[:counts[label]])

    rest = np.setdiff1d(np.arange(len(labels)), test)
    val = sorted(int(rest[i])
                 for drawn in stratified_order(labels[rest], seed).values()
                 for i in drawn[:int(len(drawn) * VAL_FRACTION)])
    train = [int(i) for i in np.setdiff1d(rest, val)]
    return train, val, test


# --- synthetic cohort ---

def _bounded_pair(rng, sbp_stats, dbp_stats):
    """Correlated (sbp, dbp) base values, clipped into the profile bounds."""
    s_lo, s_hi, s_mean, s_std = sbp_stats
    d_lo, d_hi, d_mean, d_std = dbp_stats
    z1 = rng.standard_normal()
    z2 = rng.standard_normal()
    rho = SBP_DBP_CORRELATION
    sbp = float(np.clip(s_mean + s_std * z1, s_lo, s_hi))
    dbp_z = rho * z1 + np.sqrt(1.0 - rho * rho) * z2
    dbp = float(np.clip(d_mean + d_std * dbp_z, d_lo, d_hi))
    dbp = float(np.clip(min(dbp, sbp - MIN_PRESSURE_GAP), d_lo, d_hi))
    return sbp, dbp


def _band_position(value, lo, hi):
    return float(np.clip((value - lo) / (hi - lo), 0.0, 1.0))


def planted_voice(profile: dict, sbp_target: float, dbp_target: float):
    """(f0, formants) carrying the BP targets; shared by synthesis and tests."""
    sbp_lo = min(profile[s]["sbp"][0] for s in ("F", "M"))
    sbp_hi = max(profile[s]["sbp"][1] for s in ("F", "M"))
    dbp_lo = min(profile[s]["dbp"][0] for s in ("F", "M"))
    dbp_hi = max(profile[s]["dbp"][1] for s in ("F", "M"))
    f0 = F0_BAND_HZ[0] + _band_position(sbp_target, sbp_lo, sbp_hi) * (
        F0_BAND_HZ[1] - F0_BAND_HZ[0])
    f1 = F1_BAND_HZ[0] + _band_position(dbp_target, dbp_lo, dbp_hi) * (
        F1_BAND_HZ[1] - F1_BAND_HZ[0])
    return f0, [(f1, 1.0), SECOND_FORMANT]


def synthesize_cohort(n_female: int = 45, n_male: int = 50, seed: int = 0,
                      wav_dir: str | Path | None = None):
    """Deterministic synthetic participant list, optionally with WAV files.

    All random draws happen in a fixed order that does not depend on
    wav_dir, so the records are identical whether or not audio is written.
    The WAVs, each drawn from its own seeds, go through `ordered_map`.
    """
    if n_female < 0 or n_male < 0:
        raise ValueError("cohort sizes must be non-negative")

    rng = np.random.default_rng(seed)
    records, clips = [], []
    for sex, count in (("F", n_female), ("M", n_male)):
        for j in range(count):
            sbp, dbp = _bounded_pair(rng, DEFAULT_PROFILE[sex]["sbp"],
                                     DEFAULT_PROFILE[sex]["dbp"])
            jitter_s = float(np.clip(rng.normal(0.0, 2.0), -4.0, 4.0))
            jitter_d = float(np.clip(rng.normal(0.0, 2.0), -4.0, 4.0))
            age = int(rng.integers(AGE_RANGE[0], AGE_RANGE[1] + 1))
            heart_rate = round(float(np.clip(rng.normal(74.0, 9.0),
                                             45.0, 120.0)), 1)
            pid = f"{sex}{j + 1:03d}"
            wav_paths: tuple = ()
            if wav_dir is not None:
                # the WAV draws from its own generators, never from rng
                wav_paths = (str(Path(wav_dir) / f"{pid}.wav"),)
                clips.append((Path(wav_paths[0]), sbp, dbp,
                              seed * 1_000_003 + len(records)))
            records.append(ParticipantRecord(
                id=pid, sex=sex, age=age,
                sbp_initial=sbp + jitter_s, sbp_final=sbp - jitter_s,
                dbp_initial=dbp + jitter_d, dbp_final=dbp - jitter_d,
                heart_rate=heart_rate, wav_paths=wav_paths,
            ))
    ordered_map(lambda clip: _write_cohort_wav(*clip), clips)
    return records


def _write_cohort_wav(path: Path, sbp: float, dbp: float,
                      wav_seed: int) -> None:
    f0, formants = planted_voice(DEFAULT_PROFILE, sbp, dbp)
    vowel = synthesize_speech(f0, formants, VOWEL_SECONDS,
                              COHORT_SAMPLE_RATE, seed=wav_seed)
    noise_rng = np.random.default_rng((wav_seed, 1))
    pad_len = int(round(SILENCE_SECONDS * COHORT_SAMPLE_RATE))
    lead = noise_rng.normal(0.0, SILENCE_NOISE, pad_len)
    tail = noise_rng.normal(0.0, SILENCE_NOISE, pad_len)
    samples = np.concatenate([lead, vowel.samples, tail])
    path.parent.mkdir(parents=True, exist_ok=True)
    write_wav(path, samples, COHORT_SAMPLE_RATE, channels=1)


# --- manifest I/O ---

def write_manifest(path, records: Sequence[ParticipantRecord]) -> None:
    write_csv(path, MANIFEST_COLUMNS, [
        (r.id, r.sex, r.age, r.sbp_initial, r.sbp_final, r.dbp_initial,
         r.dbp_final, r.heart_rate, ";".join(r.wav_paths))
        for r in records])


def read_manifest(path):
    """The participant records, in file order.  A wrong header, a cell that
    is not a number, a record out of range or a repeated id is a damaged
    manifest: MalformedArtifact, naming the file and the line."""
    header, rows = read_csv(path)
    if header != MANIFEST_COLUMNS:
        raise MalformedArtifact(
            f"{path}: line 1: unexpected manifest header {header}")
    records = []
    first_line: dict = {}
    for line, (pid, sex, age, sbp_i, sbp_f, dbp_i, dbp_f, hr,
               wavs) in enumerate(rows, start=2):
        try:
            records.append(ParticipantRecord(
                pid, sex, int(age), float(sbp_i), float(sbp_f),
                float(dbp_i), float(dbp_f), None if hr == "" else float(hr),
                wav_paths=tuple(p for p in wavs.split(";") if p)))
        except ValueError as err:
            raise MalformedArtifact(f"{path}: line {line}: {err}") from None
        if pid in first_line:
            raise MalformedArtifact(
                f"{path}: line {line}: id {pid} repeats line "
                f"{first_line[pid]}")
        first_line[pid] = line
    return records


# --- correlations ---

def correlation_matrix(columns: dict):
    """Pearson correlations between named columns.

    Returns (names, matrix); the matrix is exactly symmetric with a unit
    diagonal.
    """
    names = list(columns)
    if not names:
        raise ValueError("no columns given")
    X = np.column_stack([np.asarray(columns[n], dtype=np.float64)
                         for n in names])
    if X.shape[0] < 3:
        raise ValueError("need at least 3 rows")
    stds = X.std(axis=0)
    _reject_constant(stds, names)
    Z = (X - X.mean(axis=0)) / stds
    r = (Z.T @ Z) / X.shape[0]
    r = (r + r.T) / 2.0
    np.clip(r, -1.0, 1.0, out=r)
    np.fill_diagonal(r, 1.0)
    return names, r
