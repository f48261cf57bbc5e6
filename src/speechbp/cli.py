"""Batch pipeline driver behind the `bp` entry point.

Every subcommand reads and writes file artifacts under one working
directory, so a full experiment is synth -> extract -> select -> train ->
eval -> report with a single config.  Stages are deterministic given their
inputs and seed; rerunning a command over unchanged inputs rewrites
byte-identical outputs.

Exit codes: 0 success, 1 some recordings failed, 2 bad config or schema,
3 file system trouble, 4 not enough data, 5 training diverged, 6 nothing
usable in the input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path

import numpy as np

from .artifacts import read_json, write_bytes, write_csv, write_json
from .audio_io import load_wav
from .dataset import (Scaler, apply_scaler, build_examples,
                      correlation_matrix, fit_scaler, partition,
                      read_manifest, scaler_from_dict, scaler_to_dict,
                      synthesize_cohort, write_manifest)
from .errors import (ConfigError, DegenerateInput, InsufficientData,
                     MalformedArtifact, TrainingDiverged)
from .features import (BASE_SCHEMA, SCHEMAS, FeatureVector,
                       extract_recording, read_features_csv,
                       write_features_csv)
from .model import EncoderConfig, init_params, load_params, save_params
from .relieff import (DEFAULT_FOLDS, DEFAULT_K_GRID,
                      cross_validated_selection, write_selection_manifest,
                      write_weights_report)
from .textcodec import (DEFAULT_DECIMALS, SPECIALS, build_vocabulary,
                        serialize_features, tokenize)
from .training import (LabeledSequence, TrainConfig, confusion_matrix,
                       evaluate, label_prediction, predict_pressures,
                       read_history_csv, train, write_history_csv,
                       write_metrics_json)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_DATA = 4
EXIT_DIVERGED = 5
EXIT_DEGENERATE = 6

WORKDIR_ENV = "BP_WORKDIR"
DEFAULT_WORKDIR = "runs"


def _field_defaults(cls, *settable) -> dict:
    """The defaults of a config dataclass's settable fields; the pipeline
    fills in or fixes the others."""
    return {f.name: f.default for f in fields(cls) if f.name in settable}


# every key is optional in the JSON file; unknown keys are rejected
CONFIG_DEFAULTS = {
    "workdir": None,
    "seed": 0,
    "schema": BASE_SCHEMA,
    "cohort": {"n_female": 45, "n_male": 50},
    "selection": {"folds": DEFAULT_FOLDS, "k_grid": list(DEFAULT_K_GRID)},
    "encoder": _field_defaults(EncoderConfig, "hidden_dim", "n_layers",
                               "n_heads", "ff_dim", "max_len"),
    "training": _field_defaults(TrainConfig, "epochs", "batch_size",
                                "learning_rate"),
}


@dataclass(frozen=True)
class PipelineConfig:
    workdir: Path
    seed: int
    schema: str
    cohort: dict
    selection: dict
    encoder: dict
    training: dict


# the JSON type a value must have, by its default's type; workdir's null
# default takes a string, and an int passes for a float
_JSON_TYPES = {type(None): (str, "a string"), int: (int, "an integer"),
               float: ((int, float), "a number"), str: (str, "a string"),
               list: (list, "a list"), dict: (dict, "an object")}


def _merge_section(defaults: dict, given: dict, where: str) -> dict:
    merged = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {where + key!r}")
        accepted, what = _JSON_TYPES[type(defaults[key])]
        # a bool is an int to Python, but no config value is a bool
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ConfigError(f"config key {where}{key} must be {what}")
        if isinstance(value, dict):
            merged[key] = _merge_section(defaults[key], value,
                                         f"{where}{key}.")
        else:
            merged[key] = value
    return merged


def _finite_number(text):
    # json.loads takes NaN, Infinity and -Infinity, and reads 1e400 as inf
    if math.isfinite(value := float(text)):
        return value
    raise ConfigError(f"config number {text} is not finite")


def resolve_config(config_path, seed_override=None,
                   workdir_override=None) -> PipelineConfig:
    """Defaults, then the JSON file, then command-line overrides.

    The working directory resolves as flag > config > $BP_WORKDIR > the
    built-in default, and one global seed feeds every seeded stage.
    """
    given = {}
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}")
        try:
            given = json.loads(text, parse_float=_finite_number,
                               parse_constant=_finite_number)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}")
        if not isinstance(given, dict):
            raise ConfigError("config root must be a JSON object")
    merged = _merge_section(CONFIG_DEFAULTS, given, "")

    workdir = (workdir_override or merged["workdir"]
               or os.environ.get(WORKDIR_ENV) or DEFAULT_WORKDIR)
    seed = merged["seed"] if seed_override is None else seed_override
    if seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    for key, size in merged["cohort"].items():
        if size < 0:
            raise ConfigError(
                f"cohort.{key} must be a non-negative integer, got {size}")
    if sum(merged["cohort"].values()) == 0:
        raise ConfigError("cohort must hold at least one participant, "
                          "got n_female + n_male = 0")
    if merged["schema"] not in SCHEMAS:
        raise ConfigError(f"unknown feature schema {merged['schema']!r}")
    if merged["selection"]["folds"] < 2:
        raise ConfigError("selection.folds must be at least 2")
    k_grid = merged["selection"]["k_grid"]
    if not k_grid or not all(type(k) is int and k >= 1 for k in k_grid):
        raise ConfigError(
            "selection.k_grid must be a non-empty list of integers >= 1")
    # the dataclasses' own checks, so every command rejects what train
    # would; the four specials are the smallest vocabulary
    try:
        TrainConfig(**merged["training"])
        EncoderConfig(vocab_size=len(SPECIALS), **merged["encoder"])
    except ValueError as err:
        raise ConfigError(f"bad config value: {err}") from None
    return PipelineConfig(**{**merged, "workdir": Path(workdir),
                             "seed": seed})


# --- shared plumbing --------------------------------------------------------

def _read_examples(cfg: PipelineConfig):
    """Labeled examples over the full extracted schema, manifest order.

    Participants whose extraction failed (no features row) are skipped so a
    partial corpus still trains and evaluates.
    """
    records = read_manifest(cfg.workdir / "manifest.csv")
    ids, names, X, fman = read_features_csv(cfg.workdir / "features.csv",
                                            cfg.workdir / "features.json")
    nseg = {r["id"]: r["n_segments"] for r in fman["recordings"]}
    by_id = dict(zip(ids, X))
    have = [r for r in records if r.id in by_id]
    if not have:
        raise InsufficientData("no participant has both a manifest row "
                               "and a features row")
    vectors = {r.id: FeatureVector(names=tuple(names), values=by_id[r.id],
                                   n_segments=nseg[r.id],
                                   schema_id=fman["schema_id"])
               for r in have}
    return build_examples(have, vectors), tuple(names), fman


def _feature_names(value, where) -> tuple:
    """`value` as kept feature names: a non-empty list of distinct strings,
    else MalformedArtifact naming `where`."""
    # all names first: a repeat check over unhashable entries would raise
    if (not isinstance(value, list) or not value
            or not all(isinstance(k, str) for k in value)
            or len(set(value)) != len(value)):
        raise MalformedArtifact(f"{where} must be a non-empty list of "
                                f"distinct feature names, got {value}")
    return tuple(value)


def _kept_columns(names, X, kept) -> np.ndarray:
    """The columns of the feature rows X (named by `names`) that the model
    keeps, in kept order."""
    missing = [k for k in kept if k not in names]
    if missing:
        raise ConfigError(f"input features lack {missing}")
    # take, not X[:, cols]: the result stays row-major, so column means sum
    # in the same order as over the full table
    return X.take([names.index(k) for k in kept], axis=1)


def _encode(names, X, kept, feature_scaler, max_len) -> list:
    """Model input for feature rows: the kept columns, scaled as one
    matrix, rendered as "name value" text and tokenized."""
    vocab = build_vocabulary(kept)
    Z = apply_scaler(feature_scaler, _kept_columns(names, X, kept))
    return [tokenize(serialize_features(
                FeatureVector(names=kept, values=z, n_segments=0,
                              schema_id="")), vocab, max_len)
            for z in Z]


@dataclass(frozen=True)
class ModelBundle:
    enc: EncoderConfig
    params: dict
    kept: tuple
    feature_scaler: Scaler
    target_scaler: Scaler
    schema_id: str
    test_ids: tuple


def _load_model(cfg: PipelineConfig) -> ModelBundle:
    """The model file, its pipeline record checked against its weights.

    The vocabulary is not stored: it follows from the kept features and
    must have the size the weights were trained with.  Any damage raises
    MalformedArtifact, naming the file.
    """
    path = cfg.workdir / "model" / "params.bin"
    enc, params, pipe = load_params(path)
    try:
        kept, decimals = pipe["kept_features"], pipe["decimals"]
        schema_id, test_ids = pipe["schema_id"], pipe["split"]["test"]
        feature_scaler = scaler_from_dict(pipe["feature_scaler"])
        target_scaler = scaler_from_dict(pipe["target_scaler"])
    except (KeyError, TypeError, ValueError) as err:
        raise MalformedArtifact(f"{path}: not a model pipeline "
                                f"({type(err).__name__}: {err})") from None
    kept = _feature_names(kept, f"{path}: kept_features")
    # the record is input like any file; a bool is an int to Python
    if type(decimals) is not int or decimals != DEFAULT_DECIMALS:
        raise MalformedArtifact(f"{path}: decimals must be "
                                f"{DEFAULT_DECIMALS}, got {decimals!r}")
    if not (isinstance(schema_id, str) and schema_id in SCHEMAS):
        raise MalformedArtifact(f"{path}: unknown schema_id {schema_id!r}")
    if not (isinstance(test_ids, list) and test_ids
            and all(isinstance(i, str) for i in test_ids)):
        raise MalformedArtifact(f"{path}: split.test must be a list of "
                                f"participant ids, got {test_ids!r}")
    model = ModelBundle(enc=enc, params=params, kept=kept,
                        feature_scaler=feature_scaler,
                        target_scaler=target_scaler, schema_id=schema_id,
                        test_ids=tuple(test_ids))
    vocab_size = len(build_vocabulary(kept))
    if vocab_size != enc.vocab_size:
        raise MalformedArtifact(
            f"{path}: the kept features make a vocabulary of "
            f"{vocab_size}, the weights expect {enc.vocab_size}")
    for what, scaler, size in (("feature", model.feature_scaler, len(kept)),
                               ("target", model.target_scaler, 2)):
        center, scale = scaler.center, scaler.scale
        # a zero scale marks a constant column
        if not (center.shape == scale.shape == (size,)
                and np.isfinite(center).all() and np.isfinite(scale).all()
                and (scale >= 0.0).all()):
            raise MalformedArtifact(
                f"{path}: {what} scaler must hold {size} finite centers and "
                f"{size} finite scales of at least 0")
    return model


# --- subcommands ------------------------------------------------------------

def cmd_synth(cfg: PipelineConfig) -> int:
    # absolute, so the manifest's WAV paths hold from any directory
    wav_dir = cfg.workdir.resolve() / "wav"
    wav_dir.mkdir(parents=True, exist_ok=True)
    # an old manifest would list the mix of WAVs that a cut-short synth leaves
    (cfg.workdir / "manifest.csv").unlink(missing_ok=True)
    records = synthesize_cohort(n_female=cfg.cohort["n_female"],
                                n_male=cfg.cohort["n_male"],
                                seed=cfg.seed, wav_dir=wav_dir)
    write_manifest(cfg.workdir / "manifest.csv", records)
    print(f"wrote {len(records)} participants under {cfg.workdir}")
    return EXIT_OK


def cmd_extract(cfg: PipelineConfig) -> int:
    records = read_manifest(cfg.workdir / "manifest.csv")
    ids, vectors = [], []
    for record in records:
        try:
            if not record.wav_paths:
                raise DegenerateInput(
                    "the manifest lists no WAV file for this participant")
            vectors.append(extract_recording(
                [load_wav(p) for p in record.wav_paths], cfg.schema))
            ids.append(record.id)
        except (ValueError, OSError) as err:
            print(f"  failed {record.id}: {err}", file=sys.stderr)
    print(f"extracted features for {len(ids)} of {len(records)} recordings")
    if not vectors:
        raise InsufficientData(
            f"no recording yielded features ({len(records)} failed)")
    write_features_csv(cfg.workdir / "features.csv",
                       cfg.workdir / "features.json", ids, vectors,
                       parameters={"schema": cfg.schema})
    return EXIT_PARTIAL if len(ids) < len(records) else EXIT_OK


def cmd_select(cfg: PipelineConfig) -> int:
    examples, names, _ = _read_examples(cfg)
    X = np.array([ex.features.values for ex in examples], dtype=np.float64)
    y = np.array([ex.hypertension for ex in examples], dtype=np.int64)
    result = cross_validated_selection(
        X, y, folds=cfg.selection["folds"],
        k_grid=cfg.selection["k_grid"], seed=cfg.seed, names=names)
    write_weights_report(cfg.workdir / "weights.csv", result.weights,
                         result.kept)
    write_selection_manifest(cfg.workdir / "selection.json", result,
                             cfg.selection["folds"], cfg.seed)
    print(f"kept {len(result.kept)} of {len(names)} features "
          f"(k={result.chosen_k})")
    return EXIT_OK


def cmd_train(cfg: PipelineConfig) -> int:
    examples, names, fman = _read_examples(cfg)
    selection = cfg.workdir / "selection.json"
    kept = _feature_names(read_json(selection, {"kept": list})["kept"],
                          f"{selection}: kept")

    train_idx, val_idx, test_idx = partition(
        [ex.hypertension for ex in examples], cfg.seed)
    # both scalers see the train and validation rows, in manifest order
    fit_ex = [examples[i] for i in sorted(train_idx + val_idx)]
    X = np.array([ex.features.values for ex in fit_ex])
    feature_scaler = fit_scaler(_kept_columns(names, X, kept), "standard",
                                on_constant="center")
    target_scaler = fit_scaler(
        np.array([[ex.sbp_target, ex.dbp_target] for ex in fit_ex]),
        "standard", names=("SBP", "DBP"))

    enc = EncoderConfig(vocab_size=len(build_vocabulary(kept)),
                        seed=cfg.seed, **cfg.encoder)
    sequences = {ex.participant_id: LabeledSequence(
                     ex.participant_id, seq, ex.sbp_target, ex.dbp_target)
                 for ex, seq in zip(fit_ex, _encode(names, X, kept,
                                                    feature_scaler,
                                                    enc.max_len))}
    train_part = [sequences[examples[i].participant_id] for i in train_idx]
    val_part = [sequences[examples[i].participant_id] for i in val_idx]
    params, history = train(enc, init_params(enc), train_part, val_part,
                            TrainConfig(seed=cfg.seed, **cfg.training,
                                        target_scaler=target_scaler))

    (cfg.workdir / "model").mkdir(parents=True, exist_ok=True)
    save_params(cfg.workdir / "model" / "params.bin", enc, params, {
        "schema_id": fman["schema_id"],
        "decimals": DEFAULT_DECIMALS,
        "kept_features": list(kept),
        "feature_scaler": scaler_to_dict(feature_scaler),
        "target_scaler": scaler_to_dict(target_scaler),
        "split": {
            "train": [s.participant_id for s in train_part],
            "val": [s.participant_id for s in val_part],
            "test": [examples[i].participant_id for i in test_idx],
        },
    })
    write_history_csv(cfg.workdir / "loss_curve.csv", history)
    print(f"epoch {len(history.train_loss)}: "
          f"train loss {history.train_loss[-1]:.6f}, "
          f"val loss {history.val_loss[-1]:.6f}")
    return EXIT_OK


def cmd_eval(cfg: PipelineConfig) -> int:
    model = _load_model(cfg)
    examples, names, _ = _read_examples(cfg)
    by_id = {ex.participant_id: ex for ex in examples}
    missing = [i for i in model.test_ids if i not in by_id]
    if missing:
        raise InsufficientData(f"test participants {missing} have no features")
    test_ex = [by_id[i] for i in model.test_ids]
    seqs = _encode(names, np.array([ex.features.values for ex in test_ex]),
                   model.kept, model.feature_scaler, model.enc.max_len)

    preds = predict_pressures(model.enc, model.params, seqs,
                              model.target_scaler)
    metrics = evaluate(model.enc, model.params,
                       [LabeledSequence(ex.participant_id, seq, ex.sbp_target,
                                        ex.dbp_target)
                        for ex, seq in zip(test_ex, seqs)],
                       model.target_scaler, preds=preds)
    counts = confusion_matrix(preds[:, 0], preds[:, 1],
                              [ex.hypertension for ex in test_ex])
    write_metrics_json(cfg.workdir / "metrics.json", metrics)
    write_json(cfg.workdir / "confusion.json", counts)
    print(f"test n={metrics.n}  SBP mae {metrics.sbp_mae:.2f} "
          f"r2 {metrics.sbp_r2:.3f}  DBP mae {metrics.dbp_mae:.2f} "
          f"r2 {metrics.dbp_r2:.3f}")
    return EXIT_OK


def cmd_predict(cfg: PipelineConfig, wav=None, row=None) -> int:
    if (wav is None) == (row is None):
        raise ConfigError("predict needs exactly one of --wav or --row")
    model = _load_model(cfg)

    if wav is not None:
        vector = extract_recording([load_wav(wav)], model.schema_id)
        source = str(wav)
    else:
        examples, _, _ = _read_examples(cfg)
        match = [ex.features for ex in examples if ex.participant_id == row]
        if not match:
            raise ConfigError(f"participant {row!r} has no features row")
        vector = match[0]
        source = str(row)

    seqs = _encode(vector.names, vector.values[None], model.kept,
                   model.feature_scaler, model.enc.max_len)
    sbp, dbp = predict_pressures(model.enc, model.params, seqs,
                                 model.target_scaler)[0]
    print(json.dumps({"input": source, "sbp_mmhg": float(sbp),
                      "dbp_mmhg": float(dbp),
                      "hypertensive": label_prediction(sbp, dbp)}))
    return EXIT_OK


def cmd_report(cfg: PipelineConfig) -> int:
    examples, names, _ = _read_examples(cfg)
    if len(examples) < 3:
        raise InsufficientData("correlation needs at least 3 participants")
    columns = {name: [ex.features.values[j] for ex in examples]
               for j, name in enumerate(names)}
    columns["SBP"] = [ex.sbp_target for ex in examples]
    columns["DBP"] = [ex.dbp_target for ex in examples]
    corr_names, matrix = correlation_matrix(columns)

    write_csv(cfg.workdir / "correlation.csv", ["feature"] + corr_names,
              [[name, *rowvals] for name, rowvals in zip(corr_names, matrix)])
    _write_heatmap_svg(cfg.workdir / "correlation.svg", corr_names, matrix)
    made = ["correlation.csv", "correlation.svg"]
    loss_curve = cfg.workdir / "loss_curve.csv"
    if loss_curve.exists():
        _write_line_chart_svg(cfg.workdir / "loss_curve.svg",
                              read_history_csv(loss_curve))
        made.append("loss_curve.svg")
    print("wrote " + ", ".join(made))
    return EXIT_OK


# --- SVG emission -----------------------------------------------------------

CHART_W, CHART_H = 640, 400
CHART_MARGIN = 54


def _chart_scale(values, lo_px, hi_px):
    lo, hi = min(values), max(values)
    if hi == lo:
        # degenerate span: park everything mid-scale
        hi = lo + 1.0
    span = hi - lo

    def place(v):
        return lo_px + (hi_px - lo_px) * ((v - lo) / span)

    return place, lo, hi


def _write_line_chart_svg(path, history) -> None:
    """Train and validation loss per epoch as a static line chart."""
    n = len(history.train_loss)
    epochs = list(range(1, n + 1))
    finite = [v for v in history.train_loss + history.val_loss
              if math.isfinite(v)]
    x_of, _, _ = _chart_scale([1, max(n, 2)], CHART_MARGIN,
                              CHART_W - CHART_MARGIN // 2)
    y_of, lo, hi = _chart_scale(finite, CHART_H - CHART_MARGIN,
                                CHART_MARGIN // 2)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{CHART_W}" '
             f'height="{CHART_H}" viewBox="0 0 {CHART_W} {CHART_H}">',
             f'<rect width="{CHART_W}" height="{CHART_H}" fill="white"/>']
    axis_y = CHART_H - CHART_MARGIN
    parts.append(f'<line x1="{CHART_MARGIN}" y1="{axis_y}" '
                 f'x2="{CHART_W - CHART_MARGIN // 2}" y2="{axis_y}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{CHART_MARGIN}" y1="{CHART_MARGIN // 2}" '
                 f'x2="{CHART_MARGIN}" y2="{axis_y}" stroke="black"/>')
    for tick in range(5):
        value = lo + (hi - lo) * tick / 4.0
        y = y_of(value)
        parts.append(f'<line x1="{CHART_MARGIN - 4}" y1="{y:.2f}" '
                     f'x2="{CHART_MARGIN}" y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{CHART_MARGIN - 8}" y="{y + 4:.2f}" '
                     'text-anchor="end" font-family="monospace" '
                     f'font-size="11">{value:.3g}</text>')
    step = max(1, n // 8)
    for epoch in list(range(1, n + 1, step)) + [n]:
        x = x_of(epoch)
        parts.append(f'<text x="{x:.2f}" y="{axis_y + 16}" '
                     'text-anchor="middle" font-family="monospace" '
                     f'font-size="11">{epoch}</text>')
    for series, color, label, offset in (
            (history.train_loss, "#1f77b4", "train", 0),
            (history.val_loss, "#d62728", "val", 16)):
        points = " ".join(f"{x_of(e):.2f},{y_of(v):.2f}"
                          for e, v in zip(epochs, series)
                          if math.isfinite(v))
        if points:
            parts.append(f'<polyline points="{points}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        y = CHART_MARGIN // 2 + 10 + offset
        parts.append(f'<line x1="{CHART_W - 130}" y1="{y}" '
                     f'x2="{CHART_W - 104}" y2="{y}" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{CHART_W - 98}" y="{y + 4}" '
                     'font-family="monospace" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    write_bytes(path, ("\n".join(parts) + "\n").encode("utf-8"))


def _diverging_rgb(r: float) -> str:
    """White at 0, saturated red at +1, saturated blue at -1."""
    r = min(max(r, -1.0), 1.0)
    if r >= 0.0:
        level = int(round(255 * (1.0 - r)))
        return f"rgb(255,{level},{level})"
    level = int(round(255 * (1.0 + r)))
    return f"rgb({level},{level},255)"


def _write_heatmap_svg(path, names, matrix) -> None:
    """Correlation grid with labeled rows and columns."""
    cell = 22
    left, top = 120, 120
    n = len(names)
    width = left + cell * n + 10
    height = top + cell * n + 10
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for i, name in enumerate(names):
        y = top + cell * i + cell // 2 + 4
        parts.append(f'<text x="{left - 6}" y="{y}" text-anchor="end" '
                     f'font-family="monospace" font-size="10">{name}</text>')
        x = left + cell * i + cell // 2
        parts.append(f'<text x="{x}" y="{top - 6}" text-anchor="start" '
                     f'font-family="monospace" font-size="10" '
                     f'transform="rotate(-60 {x} {top - 6})">{name}</text>')
    for i in range(n):
        for j in range(n):
            x = left + cell * j
            y = top + cell * i
            color = _diverging_rgb(matrix[i][j])
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" '
                         f'height="{cell}" fill="{color}" stroke="#ccc" '
                         'stroke-width="0.5">'
                         f'<title>{names[i]} / {names[j]}: '
                         f'{matrix[i][j]:.3f}</title></rect>')
    parts.append("</svg>")
    write_bytes(path, ("\n".join(parts) + "\n").encode("utf-8"))


# --- argument handling ------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bp",
        description="Blood pressure estimation from speech: synthesis, "
                    "feature extraction, selection, training, and reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("synth", "synthesize a labeled cohort of WAV recordings"),
        ("extract", "extract acoustic features for every recording"),
        ("select", "rank features with ReliefF and pick the keepers"),
        ("train", "train the regression model on selected features"),
        ("eval", "score the trained model on the held-out split"),
        ("predict", "predict SBP/DBP for one WAV file or feature row"),
        ("report", "emit correlation tables and SVG charts"),
    )
    for name, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="JSON config; missing keys take defaults")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's global seed")
        p.add_argument("--workdir", default=None,
                       help=f"artifact directory (falls back to config, "
                            f"then ${WORKDIR_ENV})")
        if name == "predict":
            p.add_argument("--wav", default=None,
                           help="WAV file to run the full pipeline on")
            p.add_argument("--row", default=None,
                           help="participant id to look up in features.csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.seed, args.workdir)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "extract":
            return cmd_extract(cfg)
        if args.command == "select":
            return cmd_select(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "predict":
            return cmd_predict(cfg, wav=args.wav, row=args.row)
        return cmd_report(cfg)
    # one class of `errors` per code; all but TrainingDiverged are
    # ValueErrors, so each is caught before the catch-all
    except TrainingDiverged as err:
        return _fail(EXIT_DIVERGED, err)
    except InsufficientData as err:
        return _fail(EXIT_DATA, err)
    except DegenerateInput as err:
        return _fail(EXIT_DEGENERATE, err)
    # a config file that is not UTF-8 is file trouble too
    except (MalformedArtifact, OSError, UnicodeDecodeError) as err:
        return _fail(EXIT_IO, err)
    # ConfigError, and any argument a stage rejects with a plain ValueError
    except (ValueError, KeyError) as err:
        return _fail(EXIT_CONFIG, err)


def _fail(code: int, err) -> int:
    print(f"error: {err}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
