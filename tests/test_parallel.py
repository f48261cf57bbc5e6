"""Tests for the ordered map on threads, and the cohort WAVs and the
encoder's shards that run through it."""

import contextlib
import ctypes
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from speechbp import dataset, model, parallel
from speechbp.cli import EXIT_OK, main
from speechbp.parallel import ordered_map
from speechbp.textcodec import TokenSequence

ROOT = Path(__file__).resolve().parents[1]

# the thread controls of the OpenBLAS that numpy bundles, when it does
try:
    _blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    BLAS_GET = _blas.scipy_openblas_get_num_threads64_
    BLAS_SET = _blas.scipy_openblas_set_num_threads64_
except (AttributeError, OSError):
    BLAS_GET = BLAS_SET = None


@pytest.fixture
def started(monkeypatch):
    """Every thread started while the test runs, in start order."""
    threads, start = [], threading.Thread.start

    def noting_start(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", noting_start)
    return threads


@pytest.fixture
def often():
    """Switch threads as often as the interpreter can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestOrderedMap:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_in_item_order(self, monkeypatch, started, often,
                                   workers):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
        before = threading.active_count()
        # an exception returned as a value is a result, not an error
        got = ordered_map(lambda i: ValueError(i) if i == 3 else i * i,
                          range(7))
        assert threading.active_count() == before
        assert len(started) == min(workers, 7) - 1
        assert got[:3] + got[4:] == [0, 1, 4, 16, 25, 36]
        assert isinstance(got[3], ValueError)

    def test_no_items_start_no_thread(self, started):
        assert ordered_map(lambda i: i, []) == []
        assert started == []


class TestCohortWorkers:
    """synth's WAVs go through the map at min(participants, usable CPUs)
    workers, the calling thread among them; no byte it writes may follow
    that count.  The cohort is 4 F + 4 M, so items 0-3 are F001-F004 and
    items 4-7 are M001-M004."""

    def synth(self, monkeypatch, tmp_path, workers):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
        workdir = tmp_path / f"w{workers}"
        code = main(["synth", "--workdir", str(workdir), "--seed", "5",
                     "--config", str(self.config(tmp_path))])
        return code, workdir

    @staticmethod
    def config(tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"cohort": {"n_female": 4, "n_male": 4}}')
        return path

    def test_worker_count_leaves_bytes(self, monkeypatch, tmp_path, started,
                                       often):
        writers, write = set(), dataset._write_cohort_wav

        def noting_write(*args):
            writers.add(threading.get_ident())
            write(*args)

        monkeypatch.setattr(dataset, "_write_cohort_wav", noting_write)
        outputs = {}
        for workers in (1, 2, 3):
            writers.clear()
            started.clear()
            before = threading.active_count()
            code, workdir = self.synth(monkeypatch, tmp_path, workers)
            assert code == EXIT_OK
            assert threading.active_count() == before
            assert len(started) == workers - 1
            assert (len(writers) > 1) == (workers > 1)
            wavs = {p.name: p.read_bytes()
                    for p in sorted((workdir / "wav").iterdir())}
            # the manifest's WAV paths name each workdir; the rest must match
            manifest = (workdir / "manifest.csv").read_text().replace(
                str(workdir.resolve()), "<workdir>")
            outputs[workers] = (wavs, manifest)
        assert len(outputs[1][0]) == 8
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]

    def test_first_failing_item_raises(self, monkeypatch, tmp_path, often):
        # items 5 and 7 fail with different errors; at 2 and 3 workers item
        # 7 can fail before item 5 does
        write = dataset._write_cohort_wav

        def failing(path, *args):
            if path.name == "M002.wav":
                raise OSError("item 5")
            if path.name == "M004.wav":
                raise ValueError("item 7")
            write(path, *args)

        monkeypatch.setattr(dataset, "_write_cohort_wav", failing)
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
            before = threading.active_count()
            with pytest.raises(OSError, match="^item 5$"):
                dataset.synthesize_cohort(4, 4, seed=5,
                                          wav_dir=tmp_path / f"w{workers}")
            assert threading.active_count() == before

    @pytest.mark.skipif(BLAS_GET is None,
                        reason="numpy bundles no scipy-openblas")
    @pytest.mark.parametrize("fail", [False, True])
    def test_one_blas_thread_inside(self, monkeypatch, tmp_path, fail):
        counts, write = [], dataset._write_cohort_wav

        def recording(path, *args):
            counts.append(BLAS_GET())
            if fail and path.name == "M002.wav":
                raise OSError("item 5")
            write(path, *args)

        monkeypatch.setattr(dataset, "_write_cohort_wav", recording)
        before = BLAS_GET()
        BLAS_SET(2)
        try:
            for workers in (1, 2, 3):
                counts.clear()
                monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
                with (pytest.raises(OSError, match="^item 5$") if fail
                      else contextlib.nullcontext()):
                    dataset.synthesize_cohort(
                        4, 4, seed=5, wav_dir=tmp_path / f"w{workers}")
                assert counts and set(counts) == {1}
                assert BLAS_GET() == 2
        finally:
            BLAS_SET(before)


class TestEncoderWorkers:
    """The encoder runs each block on min(usable CPUs, examples, token rows
    // ROWS_PER_SHARD) shards; no byte that train, eval or predict writes
    may follow that count.  ROWS_PER_SHARD is lowered to one row so the
    small cohort's batches shard too."""

    @pytest.fixture(scope="class")
    def selected(self, tmp_path_factory):
        """A workdir through `bp select` for 6 F + 6 M, with a two-block
        encoder trained two epochs on batches of 5."""
        workdir = tmp_path_factory.mktemp("encoder")
        config = workdir / "cfg.json"
        config.write_text(json.dumps({
            "seed": 3, "cohort": {"n_female": 6, "n_male": 6},
            "selection": {"folds": 2, "k_grid": [1]},
            "encoder": {"hidden_dim": 8, "n_layers": 2, "n_heads": 2,
                        "ff_dim": 16, "max_len": 128},
            "training": {"epochs": 2, "batch_size": 5}}))
        for command in ("synth", "extract", "select"):
            assert main([command, "--workdir", str(workdir / "w"),
                         "--config", str(config)]) == EXIT_OK
        return workdir / "w", config

    def test_worker_count_leaves_bytes(self, selected, monkeypatch, tmp_path,
                                       capsys, started, often):
        base, config = selected
        monkeypatch.setattr(model, "ROWS_PER_SHARD", 1)
        outputs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
            workdir = tmp_path / f"w{workers}"
            shutil.copytree(base, workdir)
            started.clear()
            before = threading.active_count()
            capsys.readouterr()
            for command in (["train"], ["eval"], ["predict", "--row", "F001"]):
                assert main(command + ["--workdir", str(workdir), "--config",
                                       str(config)]) == EXIT_OK
            stdout = capsys.readouterr().out
            assert '"sbp_mmhg"' in stdout.splitlines()[-1]
            assert threading.active_count() == before
            assert (len(started) > 0) == (workers > 1)
            outputs[workers] = (
                *(Path(workdir, name).read_bytes() for name in (
                    "model/params.bin", "metrics.json", "loss_curve.csv")),
                stdout)
        assert outputs[2] == outputs[1]
        assert outputs[3] == outputs[1]

    @pytest.mark.skipif(BLAS_GET is None,
                        reason="numpy bundles no scipy-openblas")
    @pytest.mark.parametrize("fail", [False, True])
    def test_one_blas_thread_inside(self, monkeypatch, fail):
        # every shard runs at one OpenBLAS thread, and the caller's count
        # is back after the pass returns and after it raises
        monkeypatch.setattr(model, "ROWS_PER_SHARD", 1)
        counts, gelu = [], model._gelu

        def recording(u, *args):
            counts.append(BLAS_GET())
            if fail and threading.current_thread() is not \
                    threading.main_thread():
                raise FloatingPointError("shard")
            return gelu(u, *args)

        monkeypatch.setattr(model, "_gelu", recording)
        cfg = model.EncoderConfig(vocab_size=12, hidden_dim=8, n_heads=2,
                                  ff_dim=16, max_len=16)
        batch = [TokenSequence(np.array([2, 5, 7, 3]), np.ones(4, int), 4)
                 for _ in range(5)]
        before = BLAS_GET()
        BLAS_SET(2)
        try:
            for workers in (1, 2, 3):
                counts.clear()
                monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
                with (pytest.raises(FloatingPointError, match="^shard$")
                      if fail and workers > 1 else contextlib.nullcontext()):
                    model.forward(cfg, model.init_params(cfg), batch)
                assert counts and set(counts) == {1}
                assert BLAS_GET() == 2
        finally:
            BLAS_SET(before)


def test_import_loads_no_executor():
    # concurrent.futures costs every `bp` process 3-5 ms and 0.4 MB to import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, speechbp.cli; "
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"
