"""End-to-end tests for the `bp` command line driver.

A session fixture runs the full pipeline once on a small synthetic cohort;
most tests assert against its artifacts.  Destructive scenarios build their
own throwaway working directories.
"""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from speechbp import dataset, training
from speechbp.audio_io import write_wav
from speechbp.cli import (CONFIG_DEFAULTS, EXIT_CONFIG, EXIT_DATA,
                          EXIT_DEGENERATE, EXIT_DIVERGED, EXIT_IO, EXIT_OK,
                          EXIT_PARTIAL, main, resolve_config)
from speechbp.dataset import (label_hypertension, read_manifest,
                              synthesize_cohort, write_manifest)
from speechbp.errors import ConfigError
from speechbp.features import BASE_NAMES, SEGMENT_NAMES
from speechbp.model import load_params, save_params

ROOT = Path(__file__).resolve().parents[1]
COHORT = {"n_female": 16, "n_male": 16}
SELECTION = {"folds": 4, "k_grid": [3, 5]}
TRAINING = {"epochs": 3, "batch_size": 8, "learning_rate": 1e-3}


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_config(path: Path, workdir: Path, **overrides) -> Path:
    payload = {"workdir": str(workdir), "seed": 3, "cohort": COHORT,
               "selection": SELECTION, "training": TRAINING}
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


def clone_inputs(workdir: Path, clone: Path, *extra: str) -> Path:
    """A fresh workdir holding the pipeline's manifest and feature table,
    plus the named extra artifacts (a directory is copied whole)."""
    clone.mkdir()
    for name in ("manifest.csv", "features.csv", "features.json") + extra:
        if (workdir / name).is_dir():
            shutil.copytree(workdir / name, clone / name)
        else:
            shutil.copy(workdir / name, clone / name)
    return clone


def snapshot(directory: Path) -> dict:
    return {p: p.read_bytes() for p in sorted(directory.rglob("*"))
            if p.is_file()}


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Workdir holding every artifact of one full seeded pipeline run."""
    workdir = tmp_path_factory.mktemp("pipeline")
    config = write_config(workdir / "cfg.json", workdir)
    for command in ("synth", "extract", "select", "train", "eval",
                    "report"):
        assert main([command, "--config", str(config)]) == EXIT_OK, command
    return workdir, config


class TestConfigResolution:
    def test_all_defaults(self):
        cfg = resolve_config(None)
        assert cfg.workdir == Path("runs")
        assert cfg.seed == 0
        assert cfg.encoder["hidden_dim"] == 64
        assert cfg.training["learning_rate"] == 2e-5

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        # an int passes where the default is a float
        p.write_text(json.dumps({"seed": 9, "training": {
            "epochs": 7, "learning_rate": 1}}))
        cfg = resolve_config(p)
        assert cfg.seed == 9
        assert cfg.training["epochs"] == 7
        assert cfg.training["learning_rate"] == 1
        assert cfg.training["batch_size"] == \
            CONFIG_DEFAULTS["training"]["batch_size"]

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"optimizer": "sgd"}))
        with pytest.raises(ConfigError):
            resolve_config(p)

    def test_unknown_nested_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"training": {"momentum": 0.9}}))
        with pytest.raises(ConfigError):
            resolve_config(p)

    def test_non_object_root_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            resolve_config(p)

    def test_bad_json_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError):
            resolve_config(p)

    def test_non_utf8_config_exits_io(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_bytes(b'{"seed": 1\xff}')
        assert main(["synth", "--config", str(p), "--workdir",
                     str(tmp_path / "w")]) == EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("payload", [{"schema": "mel"},
                                         {"decimals": -1},
                                         {"decimals": 13},
                                         {"seed": True},
                                         {"training": {"learning_rate":
                                                       False}},
                                         {"workdir": 5},
                                         # json.dumps writes these as the
                                         # NaN and Infinity that json.loads
                                         # takes back
                                         {"training": {"learning_rate":
                                                       float("nan")}},
                                         {"training": {"learning_rate":
                                                       float("inf")}},
                                         {"encoder": {"layernorm_epsilon":
                                                      float("nan")}},
                                         {"split": {"test_fraction":
                                                    float("-inf")}},
                                         # Adam's constants are not settings
                                         {"training": {"beta1": 0.9}},
                                         {"training": {"beta2": 0.999}},
                                         {"training": {"epsilon": 1e-8}},
                                         # raw text: json.loads reads
                                         # these as inf and -inf
                                         '{"training": {"learning_rate":'
                                         ' 1e400}}',
                                         '{"training": {"learning_rate":'
                                         ' -1e400}}'])
    def test_value_guards(self, tmp_path, payload):
        p = tmp_path / "c.json"
        p.write_text(payload if isinstance(payload, str)
                     else json.dumps(payload))
        with pytest.raises(ConfigError):
            resolve_config(p)

    @pytest.mark.parametrize("command, overrides", [
        ("select", {"selection": {"folds": 0}}),
        ("select", {"selection": {"folds": 1}}),
        ("select", {"selection": {"k_grid": []}}),
        ("select", {"selection": {"k_grid": [0]}}),
        ("select", {"selection": {"folds": 2.5}}),
        ("select", {"selection": {"k_grid": 3}}),
        ("train", {"training": {"epochs": "5"}}),
        ("train", {"split": {"test_fraction": "0.2"}}),
        ("train", {"split": {"val_fraction": -0.5}}),
        ("train", {"split": {"val_fraction": 1.0}}),
        # every command rejects a config that train would reject
        ("select", {"training": {"epochs": 0}}),
        ("select", {"encoder": {"n_heads": 3}}),
        ("select", {"split": {"test_fraction": 1.5}}),
        # rejected before synth makes its wav directory
        ("synth", {"seed": -3}),
        ("synth --seed -1", {}),
        ("synth", {"cohort": {"n_female": -1, "n_male": 0}}),
        ("synth", {"cohort": {"n_female": 0, "n_male": -1}}),
        ("synth", {"cohort": {"n_female": 0, "n_male": 0}}),
    ], ids=["folds-0", "folds-1", "k_grid-empty", "k_grid-0", "folds-float",
            "k_grid-int", "epochs-string", "test_fraction-string",
            "val_fraction-negative", "val_fraction-1", "select-epochs-0",
            "select-n_heads-3", "select-test_fraction-1.5", "seed-negative",
            "seed-flag-negative", "cohort-n_female-negative",
            "cohort-n_male-negative", "cohort-empty"])
    def test_bad_value_exits_config_and_writes_nothing(
            self, pipeline, tmp_path, capsys, command, overrides):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "selection.json")
        before = snapshot(clone)
        config = write_config(tmp_path / "c.json", clone, **overrides)
        assert main([*command.split(), "--config", str(config)]) == \
            EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert snapshot(clone) == before
        assert not (clone / "wav").exists()

    @pytest.mark.parametrize("command", ["train", "select"])
    @pytest.mark.parametrize("overrides, key", [
        ({"decimals": 2}, "decimals"),
        # the whole section is unknown, so the message names the section
        ({"split": {"test_fraction": 0.2}}, "split"),
        ({"split": {"val_fraction": 0.1}}, "split"),
        ({"encoder": {"dropout_p": 0.1}}, "encoder.dropout_p"),
        ({"encoder": {"layernorm_epsilon": 1e-5}},
         "encoder.layernorm_epsilon"),
        # every stage reads the 17 base features; there is no other set
        ({"schema": "base"}, "schema"),
        ({"schema": "extended"}, "schema"),
    ], ids=["decimals", "split-test_fraction", "split-val_fraction",
            "dropout_p", "layernorm_epsilon", "schema-base",
            "schema-extended"])
    def test_fixed_value_is_an_unknown_key(self, pipeline, tmp_path, capsys,
                                           overrides, key, command):
        # fixed values of the experiment, not settings, even at their value
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "selection.json")
        before = snapshot(clone)
        config = write_config(tmp_path / "c.json", clone, **overrides)
        assert main([command, "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"error: unknown config key {key!r}\n"
        assert snapshot(clone) == before

    def test_negative_seed_names_the_key(self):
        with pytest.raises(ConfigError, match=re.escape(
                "seed must be a non-negative integer, got -1")):
            resolve_config(None, seed_override=-1)

    @pytest.mark.parametrize("key", ["n_female", "n_male"])
    def test_negative_cohort_names_the_key(self, tmp_path, key):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"cohort": {key: -1}}))
        with pytest.raises(ConfigError, match=re.escape(
                f"cohort.{key} must be a non-negative integer, got -1")):
            resolve_config(p)

    def test_workdir_priority(self, tmp_path, monkeypatch):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"workdir": "from_config"}))
        monkeypatch.setenv("BP_WORKDIR", "from_env")
        assert resolve_config(p, workdir_override="from_flag").workdir == \
            Path("from_flag")
        assert resolve_config(p).workdir == Path("from_config")
        assert resolve_config(None).workdir == Path("from_env")
        monkeypatch.delenv("BP_WORKDIR")
        assert resolve_config(None).workdir == Path("runs")

    def test_readme_default_tree(self):
        text = (ROOT / "README.md").read_text()
        block = text.split("complete default tree:", 1)[1]
        block = block.split("```json", 1)[1].split("```", 1)[0]
        assert json.loads(block) == CONFIG_DEFAULTS

    def test_readme_artifact_tree(self, pipeline):
        # the tree under "## Artifacts" lists every file a full run leaves
        block = (ROOT / "README.md").read_text().split("## Artifacts", 1)[1]
        lines = block.split("```", 2)[1].strip("\n").splitlines()
        listed, parents = set(), []
        for line in lines[1:]:
            indent = len(line) - len(line.lstrip())
            if indent > 8:  # a description's second line
                continue
            parents[indent // 2 - 1:] = [line.split()[0]]
            listed.add("".join(parents))
        workdir, config = pipeline
        made = {str(p.relative_to(workdir)) + ("/" if p.is_dir() else "")
                for p in workdir.rglob("*")
                if p != config and p.parent != workdir / "wav"}
        assert made == listed

    def test_seed_override(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 4}))
        assert resolve_config(p).seed == 4
        assert resolve_config(p, seed_override=77).seed == 77


class TestSynth:
    def test_cohort_size_and_layout(self, pipeline):
        workdir, _ = pipeline
        with open(workdir / "manifest.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == COHORT["n_female"] + COHORT["n_male"]
        wavs = sorted((workdir / "wav").glob("*.wav"))
        assert len(wavs) == len(rows) - 1

    def test_default_cohort_has_95_rows(self, tmp_path):
        assert main(["synth", "--workdir", str(tmp_path / "w")]) == EXIT_OK
        with open(tmp_path / "w" / "manifest.csv") as fh:
            assert sum(1 for _ in fh) - 1 == 95

    def test_rerun_is_byte_identical(self, tmp_path):
        workdir = tmp_path / "w"
        assert main(["synth", "--workdir", str(workdir),
                     "--seed", "11"]) == EXIT_OK
        first = (sha(workdir / "manifest.csv"),
                 sha(workdir / "wav" / "F001.wav"))
        assert main(["synth", "--workdir", str(workdir),
                     "--seed", "11"]) == EXIT_OK
        assert (sha(workdir / "manifest.csv"),
                sha(workdir / "wav" / "F001.wav")) == first

    def test_seed_changes_cohort(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--workdir", str(a), "--seed", "1"])
        main(["synth", "--workdir", str(b), "--seed", "2"])
        assert (a / "manifest.csv").read_text() != \
            (b / "manifest.csv").read_text()

    def test_manifest_paths_hold_from_another_directory(self, tmp_path,
                                                        monkeypatch):
        # synth records absolute WAV paths, so extract finds the audio
        # whichever directory it runs in
        config = write_config(tmp_path / "c.json", Path("runs"),
                              cohort={"n_female": 2, "n_male": 2})
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / "a")
        assert main(["synth", "--config", str(config)]) == EXIT_OK
        monkeypatch.chdir(tmp_path / "b")
        assert main(["extract", "--config", str(config),
                     "--workdir", "../a/runs"]) == EXIT_OK

    def test_interrupted_synth_leaves_no_manifest(self, tmp_path,
                                                  monkeypatch):
        # the WAVs of a synth that stops part-way are a mix of old and new
        # ones, which the old manifest must not go on listing
        config = write_config(tmp_path / "c.json", tmp_path / "w",
                              cohort={"n_female": 4, "n_male": 4})
        assert main(["synth", "--config", str(config)]) == EXIT_OK
        write = dataset._write_cohort_wav

        def failing(path, *args):
            if path.name == "M002.wav":  # item 5
                raise OSError("disk full")
            write(path, *args)

        monkeypatch.setattr(dataset, "_write_cohort_wav", failing)
        assert main(["synth", "--config", str(config)]) == EXIT_IO
        assert not (tmp_path / "w" / "manifest.csv").exists()
        assert main(["extract", "--config", str(config)]) == EXIT_IO

    def test_unwritable_workdir(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["synth", "--workdir",
                     str(blocker / "sub")]) == EXIT_IO

    def test_unknown_config_key_exit(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"optimizer": "sgd"}))
        assert main(["synth", "--config", str(p)]) == EXIT_CONFIG


class TestExtract:
    def test_one_row_per_recording(self, pipeline):
        workdir, _ = pipeline
        with open(workdir / "features.csv") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == BASE_NAMES
        assert len(rows) - 1 == COHORT["n_female"] + COHORT["n_male"]

    def test_rerun_is_byte_identical(self, pipeline):
        workdir, config = pipeline
        before = sha(workdir / "features.csv")
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        assert sha(workdir / "features.csv") == before

    def test_corrupt_wav_partial_failure(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        config = write_config(tmp_path / "c.json", workdir,
                              cohort={"n_female": 4, "n_male": 4})
        assert main(["synth", "--config", str(config)]) == EXIT_OK
        victim = workdir / "wav" / "F002.wav"
        victim.write_bytes(victim.read_bytes()[:100])
        assert main(["extract", "--config", str(config)]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "F002" in err
        with open(workdir / "features.csv") as fh:
            assert sum(1 for _ in fh) - 1 == 7

    def test_row_without_recording_partial_failure(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        config = write_config(tmp_path / "c.json", workdir,
                              cohort={"n_female": 4, "n_male": 4})
        assert main(["synth", "--config", str(config)]) == EXIT_OK
        manifest = workdir / "manifest.csv"
        with open(manifest, newline="") as fh:
            rows = list(csv.reader(fh))
        victim = next(r for r in rows if r[0] == "F002")
        victim[-1] = ""
        with open(manifest, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["extract", "--config", str(config)]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert ("failed F002: the manifest lists no WAV file for this "
                "participant") in err
        with open(workdir / "features.csv") as fh:
            assert sum(1 for _ in fh) - 1 == 7

    def test_manifest_without_audio_names_the_cause(self, tmp_path, capsys):
        # the manifest synthesize_cohort writes when it makes no audio
        write_manifest(tmp_path / "manifest.csv",
                       synthesize_cohort(n_female=2, n_male=2, seed=3))
        assert main(["extract", "--workdir", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()
        assert err == [f"  failed {pid}: the manifest lists no WAV file for "
                       "this participant"
                       for pid in ("F001", "F002", "M001", "M002")] + [
            "error: no recording yielded features (4 failed)"]
        assert not (tmp_path / "features.csv").exists()

    def test_slow_rate_recording_partial_failure(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        config = write_config(tmp_path / "c.json", workdir,
                              cohort={"n_female": 4, "n_male": 4})
        assert main(["synth", "--config", str(config)]) == EXIT_OK
        write_wav(workdir / "wav" / "F002.wav", np.full(24, 0.25), 8,
                  channels=1)
        assert main(["extract", "--config", str(config)]) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "failed F002: sample rate 8 Hz is below 200 Hz" in err
        ids = [r["id"] for r in json.loads(
            (workdir / "features.json").read_text())["recordings"]]
        assert len(ids) == 7 and "F002" not in ids

    def test_every_recording_failing_exits_data(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        config = write_config(tmp_path / "c.json", workdir,
                              cohort={"n_female": 4, "n_male": 4})
        assert main(["synth", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        for wav in (workdir / "wav").glob("*.wav"):
            wav.write_bytes(b"junk" * 16)
        before = snapshot(workdir)
        capsys.readouterr()
        assert main(["extract", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("  failed ") == 8
        assert err.endswith("error: no recording yielded features "
                            "(8 failed)\n")
        assert snapshot(workdir) == before

    def test_missing_manifest(self, tmp_path):
        assert main(["extract", "--workdir",
                     str(tmp_path / "empty")]) == EXIT_IO


def _without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _n_segments(value):
    """features.json damage: the first recording's n_segments is value."""
    return lambda m: {**m, "recordings": [{**m["recordings"][0],
                                           "n_segments": value}]
                      + m["recordings"][1:]}


def _edit_first_row(text: str, edit) -> str:
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, edit(first), rest])


class TestSelect:
    def test_artifacts(self, pipeline):
        workdir, _ = pipeline
        selection = json.loads((workdir / "selection.json").read_text())
        assert selection["chosen_k"] in SELECTION["k_grid"]
        assert 1 <= len(selection["kept"]) <= len(BASE_NAMES)
        assert set(selection["kept"]) <= set(BASE_NAMES)
        with open(workdir / "weights.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "weight", "kept"]
        assert len(rows) - 1 == len(BASE_NAMES)

    def test_class_too_small(self, tmp_path):
        workdir = tmp_path / "w"
        config = write_config(tmp_path / "c.json", workdir,
                              cohort={"n_female": 4, "n_male": 4},
                              selection={"folds": 10, "k_grid": [3]})
        assert main(["synth", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        assert main(["select", "--config", str(config)]) == EXIT_DATA


    @pytest.mark.parametrize("damage", [
        lambda text: text[:len(text) // 2],
        lambda text: _edit_first_row(text, lambda row: row + ",0.5"),
        lambda text: _edit_first_row(text,
                                     lambda row: "nan" + row[row.index(","):]),
    ], ids=["truncated", "ragged-row", "nan-cell"])
    def test_damaged_features_exit_io(self, pipeline, tmp_path, capsys,
                                      damage):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w")
        table = clone / "features.csv"
        table.write_text(damage(table.read_text()))
        assert main(["select", "--workdir", str(clone)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("error: ")
        assert not (clone / "weights.csv").exists()
        assert not (clone / "selection.json").exists()

    @pytest.mark.parametrize("damage", [
        _without("schema_id"), _without("recordings"),
        lambda m: {**m, "recordings": [_without("id")(m["recordings"][0])]
                   + m["recordings"][1:]},
        lambda m: {**m, "recordings": [_without("n_segments")(
            m["recordings"][0])] + m["recordings"][1:]},
    ], ids=["schema_id", "recordings", "recording-id",
            "recording-n_segments"])
    def test_features_json_missing_key_exits_io(self, pipeline, tmp_path,
                                                capsys, damage):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w")
        manifest = clone / "features.json"
        manifest.write_text(json.dumps(damage(json.loads(
            manifest.read_text()))))
        assert main(["select", "--workdir", str(clone)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "features.json" in err
        assert not (clone / "selection.json").exists()

    @pytest.mark.parametrize("key", ["recordings"])
    def test_features_json_wrong_type_exits_io(self, pipeline, tmp_path,
                                               capsys, key):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w")
        manifest = clone / "features.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                        key: 5}))
        assert main(["select", "--workdir", str(clone)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "features.json" in err
        assert f"{key} is int, expected list" in err


    @pytest.mark.parametrize("command,extra", [
        ("select", ()), ("train", ("selection.json",)), ("eval", ("model",)),
        ("report", ()),
    ])
    @pytest.mark.parametrize("damage,message", [
        (lambda m: {**m, "recordings": [m["recordings"][0], {
            **m["recordings"][1], "id": m["recordings"][0]["id"]}]
            + m["recordings"][2:]},
         "recording id 'F001' repeats at recordings[0] and recordings[1]"),
        (lambda m: {**m, "schema_id": "bogus"}, "unknown schema_id 'bogus'"),
        # the retired schema; every stage reads the 17 base features
        (lambda m: {**m, "schema_id": "extended"},
         "unknown schema_id 'extended'"),
        # a bool is an int to Python, and no recording has no segment
        (_n_segments(True), "n_segments is bool, expected int"),
        (_n_segments(0), "n_segments must be at least 1, got 0"),
        (_n_segments(-5), "n_segments must be at least 1, got -5"),
    ], ids=["repeated-id", "unknown-schema", "extended-schema",
            "n_segments-bool", "n_segments-0", "n_segments-negative"])
    def test_features_json_bad_value_exits_io(self, pipeline, tmp_path,
                                              capsys, command, extra, damage,
                                              message):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", *extra)
        manifest = clone / "features.json"
        manifest.write_text(json.dumps(damage(json.loads(
            manifest.read_text()))))
        before = snapshot(clone)
        assert main([command, "--workdir", str(clone)]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == f"error: {manifest}: {message}"
        assert snapshot(clone) == before

    def test_extended_table_labelled_base_exits_io(self, pipeline, tmp_path,
                                                   capsys):
        # the base table grows the extended-only columns; features.json
        # keeps schema_id "base"
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w")
        extra = [n for n in SEGMENT_NAMES if n not in BASE_NAMES]
        with open(clone / "features.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        with open(clone / "features.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([rows[0] + extra] + [
                r + ["0.5"] * len(extra) for r in rows[1:]])
        manifest = clone / "features.json"
        before = snapshot(clone)
        assert main(["select", "--workdir", str(clone)]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {manifest}: schema_id 'base' does not match "
                       f"the header of {clone / 'features.csv'}"]
        assert snapshot(clone) == before


class TestTrain:
    def test_artifacts(self, pipeline):
        workdir, _ = pipeline
        with open(workdir / "loss_curve.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss"]
        assert len(rows) - 1 == TRAINING["epochs"]
        # the model is one file; the vocabulary follows from kept_features
        assert sorted(p.name for p in (workdir / "model").iterdir()) == [
            "params.bin"]
        _, _, pipe = load_params(workdir / "model" / "params.bin")
        kept = json.loads((workdir / "selection.json").read_text())["kept"]
        assert pipe["kept_features"] == kept
        split_ids = pipe["split"]
        all_ids = (split_ids["train"] + split_ids["val"]
                   + split_ids["test"])
        assert len(all_ids) == len(set(all_ids)) == 32

    def test_rerun_reproduces_weight_checksum(self, pipeline):
        workdir, config = pipeline
        before = sha(workdir / "model" / "params.bin")
        assert main(["train", "--config", str(config)]) == EXIT_OK
        assert sha(workdir / "model" / "params.bin") == before

    def test_divergent_learning_rate(self, pipeline, tmp_path):
        workdir, config = pipeline
        payload = json.loads(Path(config).read_text())
        payload["training"] = {"epochs": 12, "batch_size": 8,
                               "learning_rate": 10.0}
        bad = tmp_path / "div.json"
        bad.write_text(json.dumps(payload))
        assert main(["train", "--config", str(bad)]) == EXIT_DIVERGED

    def test_selection_without_kept_exits_io(self, pipeline, tmp_path,
                                             capsys):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "selection.json")
        selection = clone / "selection.json"
        selection.write_text(json.dumps(_without("kept")(json.loads(
            selection.read_text()))))
        assert main(["train", "--workdir", str(clone)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "selection.json" in err
        assert not (clone / "model").exists()

    def test_selection_kept_not_a_list_exits_io(self, pipeline, tmp_path,
                                                capsys):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "selection.json")
        (clone / "selection.json").write_text(json.dumps({"kept": 5}))
        assert main(["train", "--workdir", str(clone)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "selection.json" in err
        assert "kept is int, expected list" in err
        assert not (clone / "model").exists()

    @pytest.mark.parametrize("kept", [[], [5], "repeat"],
                             ids=["empty", "not-a-string", "repeated-name"])
    def test_damaged_kept_exits_io(self, pipeline, tmp_path, capsys, kept):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "selection.json")
        selection = clone / "selection.json"
        payload = json.loads(selection.read_text())
        if kept == "repeat":
            kept = payload["kept"] + payload["kept"][:1]
        selection.write_text(json.dumps({**payload, "kept": kept}))
        assert main(["train", "--workdir", str(clone)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"error: {selection}: kept must be a non-empty "
                              "list of distinct feature names")
        assert not (clone / "model").exists()

    def test_model_is_one_write(self, pipeline, tmp_path, monkeypatch):
        # artifacts.write_bytes renames each file into place with
        # os.replace, so its targets are the files a stage writes
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "selection.json")
        config = write_config(tmp_path / "c.json", clone,
                              encoder=FUZZ_ENCODER,
                              training={**TRAINING, "epochs": 1})
        targets = []
        real = os.replace

        def record(src, dst):
            targets.append(Path(dst))
            real(src, dst)
        monkeypatch.setattr(os, "replace", record)
        assert main(["train", "--config", str(config)]) == EXIT_OK
        assert [t for t in targets if clone / "model" in t.parents] == [
            clone / "model" / "params.bin"]

    def test_failed_write_keeps_old_model(self, pipeline, tmp_path,
                                          monkeypatch, capsys):
        # every file is renamed into place whole, so a write that fails
        # (here: the rename itself) leaves the old model as it was
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "selection.json",
                             "model")
        before = snapshot(clone)
        config = write_config(tmp_path / "c.json", clone,
                              encoder=FUZZ_ENCODER,
                              training={**TRAINING, "epochs": 1})

        def refuse(src, dst):
            raise OSError(f"cannot rename {src} to {dst}")
        monkeypatch.setattr(os, "replace", refuse)
        assert main(["train", "--config", str(config)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("error: cannot rename")
        assert snapshot(clone) == before

    def test_max_len_too_short_exits_config(self, pipeline, tmp_path,
                                            capsys):
        # a row's feature text takes at least 7 tokens; the encoder would
        # see only a prefix of it
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "selection.json")
        config = write_config(tmp_path / "c.json", clone,
                              encoder={**FUZZ_ENCODER, "max_len": 6})
        assert main(["train", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: feature text needs ")
        assert "tokens, encoder.max_len is 6" in err
        assert not (clone / "model" / "params.bin").exists()

    def test_max_len_2_names_the_key(self, pipeline, tmp_path, capsys):
        # the encoder takes a max_len of 2; feature text never fits it
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "selection.json")
        config = write_config(tmp_path / "c.json", clone,
                              encoder={**FUZZ_ENCODER, "max_len": 2})
        assert main(["train", "--config", str(config)]) == EXIT_CONFIG
        assert "encoder.max_len is 2" in capsys.readouterr().err
        assert not (clone / "model" / "params.bin").exists()

    def test_missing_selection(self, tmp_path):
        workdir = tmp_path / "w"
        config = write_config(tmp_path / "c.json", workdir,
                              cohort={"n_female": 3, "n_male": 3})
        assert main(["synth", "--config", str(config)]) == EXIT_OK
        assert main(["extract", "--config", str(config)]) == EXIT_OK
        assert main(["train", "--config", str(config)]) == EXIT_IO


class TestEval:
    def test_metrics_layout(self, pipeline):
        workdir, _ = pipeline
        metrics = json.loads((workdir / "metrics.json").read_text())
        assert set(metrics) == {"n", "sbp", "dbp"}
        assert set(metrics["sbp"]) == {"mae", "mse", "r2"}
        _, _, pipe = load_params(workdir / "model" / "params.bin")
        assert metrics["n"] == len(pipe["split"]["test"])

    def test_confusion_counts_cover_test_set(self, pipeline):
        workdir, _ = pipeline
        counts = json.loads((workdir / "confusion.json").read_text())
        metrics = json.loads((workdir / "metrics.json").read_text())
        assert set(counts) == {"tp", "fp", "fn", "tn"}
        assert sum(counts.values()) == metrics["n"]

    def test_rerun_is_byte_identical(self, pipeline):
        workdir, config = pipeline
        before = sha(workdir / "metrics.json")
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        assert sha(workdir / "metrics.json") == before

    def test_missing_model(self, tmp_path):
        assert main(["eval", "--workdir",
                     str(tmp_path / "empty")]) == EXIT_IO

    @pytest.mark.parametrize("argv", [["eval"], ["predict", "--row", "F001"]],
                             ids=["eval", "predict"])
    def test_non_finite_prediction_exits_diverged(self, pipeline, tmp_path,
                                                  capsys, argv):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "model")
        enc, params, pipe = load_params(clone / "model" / "params.bin")
        params["sbp_bias"] = np.full(1, np.nan)
        save_params(clone / "model" / "params.bin", enc, params, pipe)
        assert main(argv + ["--workdir", str(clone)]) == EXIT_DIVERGED
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ")
        assert not (clone / "metrics.json").exists()

    def test_encoder_runs_once_over_test_set(self, pipeline, monkeypatch):
        workdir, config = pipeline
        seen = []
        real = training.forward

        def counting(enc, params, sequences, *args, **kwargs):
            seen.append(len(sequences))
            return real(enc, params, sequences, *args, **kwargs)

        monkeypatch.setattr(training, "forward", counting)
        assert main(["eval", "--config", str(config)]) == EXIT_OK
        metrics = json.loads((workdir / "metrics.json").read_text())
        assert sum(seen) == metrics["n"]


class TestPredict:
    def run_json(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, json.loads(out)

    def test_feature_row(self, pipeline, capsys):
        workdir, config = pipeline
        code, payload = self.run_json(
            ["predict", "--config", str(config), "--row", "F001"], capsys)
        assert code == EXIT_OK
        assert 60.0 <= payload["sbp_mmhg"] <= 260.0
        assert 30.0 <= payload["dbp_mmhg"] <= 160.0

    def test_class_matches_thresholds(self, pipeline, capsys):
        workdir, config = pipeline
        for row in ("F001", "M001", "M016"):
            code, payload = self.run_json(
                ["predict", "--config", str(config), "--row", row], capsys)
            assert code == EXIT_OK
            clipped_sbp = min(max(payload["sbp_mmhg"], 60.0), 260.0)
            clipped_dbp = min(max(payload["dbp_mmhg"], 30.0), 160.0)
            assert payload["hypertensive"] == \
                label_hypertension(clipped_sbp, clipped_dbp)

    def test_wav_input(self, pipeline, capsys):
        workdir, config = pipeline
        code, payload = self.run_json(
            ["predict", "--config", str(config), "--wav",
             str(workdir / "wav" / "M003.wav")], capsys)
        assert code == EXIT_OK
        assert payload["sbp_mmhg"] > payload["dbp_mmhg"]

    def test_silent_wav(self, pipeline, tmp_path):
        _, config = pipeline
        rng = np.random.default_rng(0)
        silent = tmp_path / "silent.wav"
        write_wav(silent, rng.normal(0.0, 2e-4, 48000), 48000, channels=1)
        assert main(["predict", "--config", str(config), "--wav",
                     str(silent)]) == EXIT_DEGENERATE

    @pytest.mark.parametrize("n_samples", [2880, 0])
    def test_clip_under_100_ms(self, pipeline, tmp_path, capsys, n_samples):
        _, config = pipeline
        short = tmp_path / "short.wav"
        write_wav(short, np.zeros(n_samples), 48000, channels=1)
        assert main(["predict", "--config", str(config), "--wav",
                     str(short)]) == EXIT_DEGENERATE
        assert "need at least 100 ms" in capsys.readouterr().err

    @pytest.mark.parametrize("sample_rate", [8, 20])
    def test_rate_below_flatness_band(self, pipeline, tmp_path, capsys,
                                      sample_rate):
        _, config = pipeline
        slow = tmp_path / "slow.wav"
        t = np.arange(3 * sample_rate) / sample_rate
        write_wav(slow, 0.5 * np.sin(2 * np.pi * 1.5 * t), sample_rate,
                  channels=1)
        assert main(["predict", "--config", str(config), "--wav",
                     str(slow)]) == EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: sample rate {sample_rate} Hz is "
                                "below 200 Hz, so no frame reaches the "
                                "voiced gate's flatness band\n")

    def test_requires_exactly_one_input(self, pipeline):
        workdir, config = pipeline
        assert main(["predict", "--config", str(config)]) == EXIT_CONFIG
        assert main(["predict", "--config", str(config), "--row", "F001",
                     "--wav", "x.wav"]) == EXIT_CONFIG

    def test_unknown_row(self, pipeline):
        _, config = pipeline
        assert main(["predict", "--config", str(config), "--row",
                     "Z999"]) == EXIT_CONFIG

    def test_schema_mismatch(self, pipeline, tmp_path, capsys):
        # a valid base feature table, and a model, signed again, of the
        # retired `extended` schema that keeps its extra column
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "model")
        params_path = clone / "model" / "params.bin"
        enc, params, pipe = load_params(params_path)
        kept = ["pitch_hz"] + pipe["kept_features"][1:]
        save_params(params_path, enc, params,
                    {**pipe, "schema_id": "extended", "kept_features": kept})
        for source in (["--row", "F001"],
                       ["--wav", str(workdir / "wav" / "F001.wav")]):
            assert main(["predict", "--workdir", str(clone),
                         *source]) == EXIT_IO
            assert capsys.readouterr().err == (
                f"error: {params_path}: unknown schema_id 'extended'\n")


def _flip_payload_byte(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 0xFF])


def _replace_header(data: bytes, fill: bytes) -> bytes:
    (n,) = struct.unpack_from("<Q", data, 0)
    return data[:8] + fill * n + data[8 + n:]


def _edit_header(edit, sign=False):
    """Damage that rewrites params.bin's JSON header through `edit`, and
    signs it again only if `sign`."""
    def damage(data: bytes) -> bytes:
        (n,) = struct.unpack_from("<Q", data, 0)
        header, payload = edit(json.loads(data[8:8 + n])), data[8 + n:]
        if sign:
            signed = {k: v for k, v in header.items() if k != "sha256"}
            header["sha256"] = hashlib.sha256(
                json.dumps(signed, sort_keys=True).encode("utf-8")
                + payload).hexdigest()
        blob = json.dumps(header).encode("utf-8")
        return struct.pack("<Q", len(blob)) + blob + payload
    return damage


def _truncate(data: bytes) -> bytes:
    return data[:len(data) // 2]


def _on_bytes(damage):
    """Damage to the model file's raw bytes."""
    return lambda path: path.write_bytes(damage(path.read_bytes()))


def _signed_record(edit):
    """Damage that rewrites the model's pipeline record through `edit` and
    saves it with save_params, so the file stays signed and the load
    reaches the record checks."""
    def damage(path):
        enc, params, pipe = load_params(path)
        save_params(path, enc, params, edit(pipe))
    return damage


def _signed_config(edit):
    """Damage that saves the model under the encoder config `edit` makes,
    with the weights and record as they were, signed."""
    def damage(path):
        enc, params, pipe = load_params(path)
        save_params(path, edit(enc), params, pipe)
    return damage


def _test_ids(ids):
    """A pipeline-record edit that sets the split's test ids."""
    return lambda pipe: {**pipe, "split": {**pipe["split"], "test": ids}}


def _scaler_value(scaler, key, value):
    """A pipeline-record edit that sets the first entry of a scaler's
    centers or scales."""
    def edit(pipe):
        values = [value] + pipe[scaler][key][1:]
        return {**pipe, scaler: {**pipe[scaler], key: values}}
    return edit


def _shift_center(header):
    header["pipeline"]["feature_scaler"]["center"][0] += 5.0
    return header


def _signed_v1(data: bytes) -> bytes:
    """The model file as a format-1 writer made it: no pipeline record, and
    a checksum over the payload alone."""
    (n,) = struct.unpack_from("<Q", data, 0)
    header, payload = json.loads(data[8:8 + n]), data[8 + n:]
    del header["pipeline"]
    header.update(format_version=1,
                  sha256=hashlib.sha256(payload).hexdigest())
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return struct.pack("<Q", len(blob)) + blob + payload


class TestDamagedModel:
    """A damaged model file is a malformed file: exit 3, not a config error."""

    @pytest.mark.parametrize("damage", [
        _on_bytes(_flip_payload_byte),
        _on_bytes(lambda d: _replace_header(d, b"#")),
        _on_bytes(lambda d: _replace_header(d, b"\xff")),
        _on_bytes(_edit_header(
            lambda h: {**h, "format_version": h["format_version"] + 1})),
        _on_bytes(_edit_header(
            lambda h: {**h, "config": {**h["config"], "colour": 1}})),
        _on_bytes(_edit_header(
            lambda h: {**h, "config": {**h["config"], "n_heads": 3}})),
        _on_bytes(_edit_header(lambda h: [])),
        _on_bytes(_truncate),
        # the checksum covers the header, so an edit that passes every
        # other check is caught unless the file is signed again
        _on_bytes(_edit_header(_shift_center)),
        _signed_record(lambda p: [1]),
        _signed_record(_without("kept_features")),
        _signed_record(
            lambda p: {**p, "kept_features": p["kept_features"][:-1]}),
        _signed_record(lambda p: {**p, "feature_scaler": {
            **p["feature_scaler"], "center": [0.0]}}),
        _signed_record(lambda p: {**p, "target_scaler": {
            **p["target_scaler"], "scale": [1.0, 1.0, 1.0]}}),
        _signed_record(_scaler_value("feature_scaler", "center", math.nan)),
        _signed_record(_scaler_value("target_scaler", "center", math.nan)),
        _signed_record(_scaler_value("feature_scaler", "scale", -1.0)),
        _signed_record(lambda p: {**p, "schema_id": "mel"}),
        _signed_record(lambda p: {**p, "decimals": -1}),
        _signed_record(lambda p: {**p, "decimals": 2.7}),
        # feature text has always been written at 2 decimals
        _signed_record(lambda p: {**p, "decimals": 4}),
        _signed_record(lambda p: {**p, "feature_scaler": {
            **p["feature_scaler"], "kind": 5}}),
        _signed_record(lambda p: {**p, "target_scaler": {
            **p["target_scaler"], "kind": "minmax"}}),
        _signed_record(_test_ids([[1]])),
        _signed_record(_test_ids("F001")),
        _signed_record(lambda p: {**p, "kept_features": list(
            range(len(p["kept_features"])))}),
        # a config signed again whose layout outgrows the payload
        _signed_config(lambda enc: dataclasses.replace(
            enc, ff_dim=2 * enc.ff_dim)),
        # a float size that matches the payload length, signed again
        _on_bytes(_edit_header(lambda h: {**h, "config": {
            **h["config"], "ff_dim": float(h["config"]["ff_dim"])}},
            sign=True)),
    ], ids=["payload-byte", "header-garbage", "header-not-utf8",
            "header-version", "config-unknown-key", "config-n_heads-3",
            "header-not-object", "truncated", "header-edit-unsigned",
            "pipeline-not-object", "pipeline-no-kept", "kept-one-short",
            "feature-scaler-length-1", "target-scaler-length-3",
            "feature-center-nan", "target-center-nan",
            "feature-scale-negative", "schema-unknown", "decimals-negative",
            "decimals-float", "decimals-4", "feature-scaler-kind-5",
            "target-scaler-kind-minmax", "test-ids-nested", "test-ids-string",
            "kept-not-strings", "config-ff_dim-resigned",
            "config-ff_dim-float-resigned"])
    def test_exits_io(self, pipeline, tmp_path, capsys, damage):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "model")
        damage(clone / "model" / "params.bin")
        assert main(["predict", "--workdir", str(clone), "--row",
                     "F001"]) == EXIT_IO
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: {clone / 'model' / 'params.bin'}")

    def test_eval_nested_test_ids_exits_io(self, pipeline, tmp_path,
                                           capsys):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "model")
        path = clone / "model" / "params.bin"
        _signed_record(_test_ids([[1]]))(path)
        before = snapshot(clone)
        assert main(["eval", "--workdir", str(clone)]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: split.test must be a list of "
                       "participant ids, got [[1]]"]
        assert snapshot(clone) == before

    def test_eval_empty_test_ids_exits_io(self, pipeline, tmp_path, capsys):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "model")
        path = clone / "model" / "params.bin"
        _signed_record(_test_ids([]))(path)
        before = snapshot(clone)
        assert main(["eval", "--workdir", str(clone)]) == EXIT_IO
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: split.test must be a list of "
                       "participant ids, got []"]
        assert snapshot(clone) == before

    def test_format_1_file_exits_io(self, pipeline, tmp_path, capsys):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "model")
        _on_bytes(_signed_v1)(clone / "model" / "params.bin")
        for argv in (["predict", "--row", "F001"], ["eval"]):
            assert main(argv + ["--workdir", str(clone)]) == EXIT_IO
            out = capsys.readouterr()
            assert out.out == ""
            assert "container version 1, expected 2" in out.err
        assert not (clone / "metrics.json").exists()

    def _predict_ignores(self, pipeline, tmp_path, capsys, name, stale):
        workdir, config = pipeline
        assert main(["predict", "--config", str(config), "--row",
                     "F001"]) == EXIT_OK
        want = capsys.readouterr().out
        clone = clone_inputs(workdir, tmp_path / "w", "model")
        (clone / "model" / name).write_bytes(stale)
        assert main(["predict", "--workdir", str(clone), "--row",
                     "F001"]) == EXIT_OK
        assert capsys.readouterr().out == want

    def test_stale_vocab_file_ignored(self, pipeline, tmp_path, capsys):
        # the vocabulary follows from the model's kept features; a
        # vocab.json left by an older version is never read
        self._predict_ignores(pipeline, tmp_path, capsys, "vocab.json",
                              b"[]\n")

    def test_stale_pipeline_json_ignored(self, pipeline, tmp_path, capsys):
        # the pipeline record lives in params.bin; a pipeline.json left by
        # an older version is never read
        self._predict_ignores(pipeline, tmp_path, capsys, "pipeline.json",
                              b"[1]\n")


class TestConstantSbp:
    """A constant column is InsufficientData (exit 4) wherever it is found,
    and the message names it."""

    @pytest.mark.parametrize("command", ["train", "report"])
    def test_constant_sbp_exits_data(self, pipeline, tmp_path, capsys,
                                     command):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "selection.json")
        records = read_manifest(clone / "manifest.csv")
        write_manifest(clone / "manifest.csv", [
            dataclasses.replace(r, sbp_initial=110.0, sbp_final=110.0)
            for r in records])
        before = snapshot(clone)
        assert main([command, "--workdir", str(clone)]) == EXIT_DATA
        assert "constant column SBP" in capsys.readouterr().err
        assert snapshot(clone) == before


# (damaged file, extra files its command needs, the command)
FUZZ_TARGETS = [
    ("manifest.csv", (), ["report"]),
    ("loss_curve.csv", ("loss_curve.csv",), ["report"]),
    ("features.csv", (), ["select"]),
    ("features.json", (), ["select"]),
    ("selection.json", ("selection.json",), ["train"]),
    ("model/params.bin", ("model",), ["predict", "--row", "F001"]),
    ("wav/F001.wav", ("model",), ["predict", "--wav"]),
]
# the README's exit codes, less 1: no damaged input is a partial extraction
DOCUMENTED_EXITS = {EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DATA, EXIT_DIVERGED,
                    EXIT_DEGENERATE}
# a one-epoch, one-layer model keeps each fuzzed `train` cheap
FUZZ_ENCODER = {"hidden_dim": 8, "n_layers": 1, "n_heads": 2, "ff_dim": 16,
                "max_len": 128}


def _damage(data, raw: bytes) -> bytes:
    """raw cut short, or one of its bytes flipped, as drawn."""
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        return raw[:at]
    flip = data.draw(st.integers(1, 255), label="xor")
    return raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:]


class TestParserFuzz:
    """A truncated or byte-flipped input file exits with a documented code,
    never 1, and with no traceback."""

    @pytest.mark.parametrize("target, extra, argv", FUZZ_TARGETS,
                             ids=[t[0] for t in FUZZ_TARGETS])
    @settings(derandomize=True, max_examples=30, deadline=None,
              database=None)
    @given(data=st.data())
    def test_damaged_input(self, pipeline, target, extra, argv, data):
        workdir, _ = pipeline
        damaged = _damage(data, (workdir / target).read_bytes())
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            clone = clone_inputs(workdir, Path(tmp) / "w", *extra)
            path = clone / target
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(damaged)
            config = write_config(Path(tmp) / "c.json", clone,
                                  encoder=FUZZ_ENCODER,
                                  training={**TRAINING, "epochs": 1})
            if argv[-1] == "--wav":
                argv = argv + [str(path)]
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv + ["--config", str(config)])
        assert code in DOCUMENTED_EXITS, err.getvalue()
        if code != EXIT_OK:
            assert err.getvalue().startswith("error: ")

    @pytest.mark.parametrize("cut, code", [
        (lambda text: 0, EXIT_IO),
        (lambda text: text.index("\n") + 10, EXIT_IO),
    ], ids=["empty", "mid-row"])
    def test_truncated_manifest(self, pipeline, tmp_path, capsys, cut, code):
        # an empty manifest has no header and a cut inside a row leaves it
        # ragged: either is a malformed file (exit 3)
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w")
        text = (clone / "manifest.csv").read_text()
        (clone / "manifest.csv").write_text(text[:cut(text)])
        assert main(["report", "--workdir", str(clone)]) == code
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("column", ["age", "sbp_initial", "dbp_final",
                                        "heart_rate"])
    def test_manifest_non_number_exits_io(self, pipeline, tmp_path, capsys,
                                          column):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w")
        path = clone / "manifest.csv"
        header, first, rest = path.read_text().split("\n", 2)
        cells = first.split(",")
        cells[header.split(",").index(column)] = "13;.1"
        path.write_text("\n".join([header, ",".join(cells), rest]))
        assert main(["report", "--workdir", str(clone)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "manifest.csv: line 2" in err

    @pytest.mark.parametrize("line, column, value, message", [
        (2, "age", "200", "line 2: age 200 outside (20, 70)"),
        (4, "id", "F001", "line 4: id F001 repeats line 2"),
    ], ids=["age-200", "repeated-id"])
    def test_manifest_invalid_record_exits_io(self, pipeline, tmp_path,
                                              capsys, line, column, value,
                                              message):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w")
        path = clone / "manifest.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[line - 1][rows[0].index(column)] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        for command in ("extract", "report"):
            assert main([command, "--workdir", str(clone)]) == EXIT_IO
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert f"manifest.csv: {message}" in err

    @pytest.mark.parametrize("damage", [
        lambda text: text[:text.index("\n", text.index("\n") + 1) + 4],
        lambda text: text.replace("\n1,", "\n1,x", 1),
        lambda text: "epoch,loss\n" + text.split("\n", 1)[1],
        lambda text: text.split("\n", 1)[0] + "\n",
        # train never writes a non-finite train loss
        lambda text: re.sub(r"(?m)^(\d+),[^,]+,", r"\1,nan,", text),
        lambda text: re.sub(r"\n1,[^,]+,", "\n1,inf,", text),
    ], ids=["mid-row-cut", "non-number", "wrong-header", "no-epochs",
            "train-loss-all-nan", "train-loss-inf"])
    def test_damaged_loss_curve_exits_io(self, pipeline, tmp_path, capsys,
                                         damage):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "loss_curve.csv")
        path = clone / "loss_curve.csv"
        path.write_text(damage(path.read_text()))
        assert main(["report", "--workdir", str(clone)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "loss_curve.csv" in err
        assert not (clone / "loss_curve.svg").exists()


class TestReport:
    def test_correlation_csv(self, pipeline):
        workdir, _ = pipeline
        with open(workdir / "correlation.csv") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[0] == "feature"
        assert header[1:] == list(BASE_NAMES) + ["SBP", "DBP"]
        sbp_row = next(r for r in rows[1:] if r[0] == "SBP")
        assert float(sbp_row[header.index("SBP")]) == 1.0
        coupling = float(sbp_row[header.index("DBP")])
        # generator plants a latent SBP-DBP correlation of 0.88
        assert abs(coupling - 0.88) < 0.1

    def test_svg_artifacts(self, pipeline):
        workdir, _ = pipeline
        for name in ("correlation.svg", "loss_curve.svg"):
            text = (workdir / name).read_text()
            assert text.startswith("<svg ")
            assert text.rstrip().endswith("</svg>")

    def test_rerun_is_byte_identical(self, pipeline):
        workdir, config = pipeline
        before = (sha(workdir / "correlation.svg"),
                  sha(workdir / "loss_curve.svg"))
        assert main(["report", "--config", str(config)]) == EXIT_OK
        assert (sha(workdir / "correlation.svg"),
                sha(workdir / "loss_curve.svg")) == before

    def test_nan_val_loss_charts_train_alone(self, pipeline, tmp_path):
        # an empty validation split writes NaN val losses, a legal curve
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w", "loss_curve.csv")
        path = clone / "loss_curve.csv"
        path.write_text(re.sub(r"(?m)^(\d+,[^,]+),.*$", r"\1,nan",
                               path.read_text()))
        assert main(["report", "--workdir", str(clone)]) == EXIT_OK
        assert (clone / "loss_curve.svg").read_text().count("<polyline") == 1

    def test_without_loss_curve(self, pipeline, tmp_path):
        workdir, _ = pipeline
        clone = clone_inputs(workdir, tmp_path / "w")
        assert main(["report", "--workdir", str(clone)]) == EXIT_OK
        assert (clone / "correlation.csv").exists()
        assert not (clone / "loss_curve.svg").exists()

    def test_missing_features(self, tmp_path):
        assert main(["report", "--workdir",
                     str(tmp_path / "empty")]) == EXIT_IO


def project_scripts(pyproject: Path) -> dict:
    """The ``[project.scripts]`` table of a pyproject.toml file."""
    text = pyproject.read_text()
    try:
        import tomllib
    except ImportError:
        # Python 3.10 has no tomllib; the table is flat ``name = "ref"``
        # lines, which this reads up to the next table header.
        section = re.search(r"^\[project\.scripts\]\s*$(.*?)(?=^\[|\Z)",
                            text, re.M | re.S)
        return dict(re.findall(r'^\s*([\w.-]+)\s*=\s*"([^"]*)"',
                               section.group(1) if section else "", re.M))
    return tomllib.loads(text).get("project", {}).get("scripts", {})


@pytest.fixture(scope="session")
def console_env(tmp_path_factory):
    """Environment whose PATH starts with a ``bp`` launcher for this tree.

    The launcher is the one pip writes for the ``bp`` entry of
    ``[project.scripts]``: it runs under the suite's interpreter, imports
    the declared function from the ``src`` tree, and exits with its return
    value.  So the tests exercise the declared entry point as a separate
    process without installing the package, and never some other ``bp``
    that happens to be on PATH.
    """
    ref = project_scripts(ROOT / "pyproject.toml")["bp"]
    module, _, func = (part.strip() for part in ref.partition(":"))
    bindir = tmp_path_factory.mktemp("bin")
    launcher = bindir / "bp"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n")
    launcher.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bindir),
                                                env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class TestEntryPoint:
    def test_console_script_help(self, console_env):
        result = subprocess.run(["bp", "--help"], capture_output=True,
                                text=True, env=console_env)
        assert result.returncode == 0
        for command in ("synth", "extract", "select", "train", "eval",
                        "predict", "report"):
            assert command in result.stdout

    def test_console_script_predict(self, pipeline, console_env):
        workdir, _ = pipeline
        result = subprocess.run(
            ["bp", "predict", "--workdir", str(workdir), "--row", "M001"],
            capture_output=True, text=True, env=console_env)
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        assert payload["input"] == "M001"

    def test_params_independent_of_blas_threads(self, tmp_path, console_env):
        # the criterion-09 config trained, evaluated and asked for one
        # prediction in two processes, at one and at two OpenBLAS threads; a
        # weight gradient that OpenBLAS reduces over all of a batch's rows
        # in one product changes its last bits with the thread count, and
        # the trained weights, metrics and predictions follow
        workdir = tmp_path / "work"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "workdir": str(workdir), "seed": 0,
            "training": {"epochs": 6, "batch_size": 32,
                         "learning_rate": 1e-3}}))
        for command in ("synth", "extract", "select"):
            assert main([command, "--config", str(config)]) == EXIT_OK
        digests, metrics, predictions = [], [], []
        for threads in ("1", "2"):
            env = {**console_env, "OPENBLAS_NUM_THREADS": threads}
            for argv in (["train"], ["eval"], ["predict", "--row", "M001"]):
                result = subprocess.run(
                    ["bp", *argv, "--config", str(config)],
                    capture_output=True, text=True, env=env)
                assert result.returncode == 0, result.stderr
            digests.append(sha(workdir / "model" / "params.bin"))
            metrics.append(sha(workdir / "metrics.json"))
            predictions.append(result.stdout)
        assert digests[0] == digests[1]
        assert metrics[0] == metrics[1]
        assert predictions[0] == predictions[1]
