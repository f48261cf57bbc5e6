"""Tests for ReliefF weights, the keep rule, and cross-validated selection."""

import csv
import itertools
import json
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from speechbp import parallel, relieff
from speechbp.errors import InsufficientData
from speechbp.relieff import (FeatureWeights, _fold_assignment,
                              _nearest_neighbor_accuracy, _relieff_pass,
                              cross_validated_selection, relieff_weights,
                              select_features, write_selection_manifest,
                              write_weights_report)


def balanced_labels(rng, n, min_per_class=4):
    y = rng.integers(0, 2, size=n)
    while np.bincount(y, minlength=2).min() < min_per_class:
        y = rng.integers(0, 2, size=n)
    return y


class TestWeights:
    def test_matches_brute_force_oracle(self):
        for trial in range(10):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(8, 50))
            d = int(rng.integers(1, 7))
            X = rng.normal(size=(n, d))
            y = balanced_labels(rng, n, min_per_class=2)
            k = max(1, int(min(3, np.bincount(y).min() - 1)))
            got = relieff_weights(X, y, k=k).weights
            want = oracles.relieff_oracle(X.tolist(), y.tolist(), k)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_label_copy_is_exactly_one(self):
        y = np.array([0, 1] * 10)
        X = np.column_stack([y.astype(float), np.full(20, 3.3)])
        w = relieff_weights(X, y, k=3).weights
        assert w[0] == 1.0
        assert w[1] == 0.0

    def test_all_constant_features(self):
        X = np.full((12, 3), 7.0)
        y = np.array([0, 1] * 6)
        np.testing.assert_array_equal(relieff_weights(X, y, k=2).weights,
                                      np.zeros(3))

    def test_adversarial_feature_is_exactly_minus_one(self):
        # paired sites: within a site the two classes coincide, so the
        # nearest miss never differs; nearest hits sit one site over where
        # the anti feature has flipped
        sites, dims = 6, 6
        rows, labels = [], []
        for s in range(sites):
            info = [float(s)] * dims
            for cls in (0, 1):
                rows.append(info + [float(s % 2)])
                labels.append(cls)
        X, y = np.array(rows), np.array(labels)
        w = relieff_weights(X, y, k=1).weights
        assert w[-1] == -1.0
        np.testing.assert_allclose(
            w, oracles.relieff_oracle(X.tolist(), y.tolist(), 1), atol=1e-12)

    def test_noise_feature_bound(self):
        violations = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            X = rng.uniform(size=(200, 1))
            y = balanced_labels(rng, 200, min_per_class=11)
            w = relieff_weights(X, y, k=10).weights
            violations += abs(w[0]) >= 0.1
        assert violations <= 5

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 4))
        y = balanced_labels(rng, 30)
        w1 = relieff_weights(X, y, k=3).weights
        X2 = X * np.array([2.0, 0.5, 10.0, 1.0]) + np.array(
            [5.0, -3.0, 0.0, 100.0])
        w2 = relieff_weights(X2, y, k=3).weights
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_duplication_keeps_separated_ranks(self):
        # statistically tied weights may swap when the data is doubled, so
        # the check applies only to pairs separated by a clear margin
        for seed in range(50):
            rng = np.random.default_rng(seed)
            y = balanced_labels(rng, 40)
            X = np.column_stack([y + rng.normal(0, s, 40)
                                 for s in (0.05, 0.3, 0.8, 2.0)])
            a = relieff_weights(X, y, k=3).weights
            b = relieff_weights(np.vstack([X, X]), np.concatenate([y, y]),
                                k=3).weights
            for i, j in itertools.combinations(range(4), 2):
                if abs(a[i] - a[j]) > 0.1:
                    assert (a[i] - a[j]) * (b[i] - b[j]) > 0

    def test_weights_bounded_by_one(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            X = rng.normal(size=(25, 5))
            y = balanced_labels(rng, 25)
            w = relieff_weights(X, y, k=3).weights
            assert np.all(np.abs(w) <= 1.0 + 1e-12)

    def test_grid_pass_equals_single_k(self):
        # one neighbor order serves every k: each row of the grid pass is
        # bit for bit the lone fit at that k
        ks = (1, 2, 3, 5)
        for trial in range(5):
            rng = np.random.default_rng(50 + trial)
            n = int(rng.integers(20, 80))
            X = rng.normal(size=(n, int(rng.integers(1, 9))))
            X[:, 0] = np.round(X[:, 0])  # distance ties
            y = balanced_labels(rng, n, min_per_class=6)
            grid = _relieff_pass(X, y, ks)
            for k, row in zip(ks, grid):
                np.testing.assert_array_equal(
                    row, relieff_weights(X, y, k=k).weights)

    # (n, d, decimals, ks, zero-range column): rounding makes exact
    # distance ties; 400 rows go in blocks of 81 rows, the last one
    # short, and 300 x 1000 adds a thousand features into each block's
    # sum
    LOOP_CASES = [
        (60, 5, None, (1, 2, 3, 5), False),
        (80, 17, None, (3, 5, 10), False),
        (90, 17, 0, (1, 2, 3, 5), False),
        (90, 17, 0, (3, 5, 10), False),
        (120, 9, 1, (3, 5, 10), False),
        (120, 23, 2, (1, 2, 3, 5), False),
        (70, 1, 0, (3, 5, 10), False),
        (70, 6, 1, (1, 2, 3, 5), True),
        (400, 17, None, (3, 5, 10), False),
        (400, 17, 0, (1, 2, 3, 5), False),
        (300, 1000, 1, (3, 5, 10), False),
    ]

    @pytest.mark.parametrize(
        "n,d,decimals,ks,zero_col", LOOP_CASES,
        ids=[f"{n}x{d}-" + ("unrounded" if r is None else f"round{r}")
             + f"-k{'_'.join(map(str, ks))}" + ("-zero_range" if z else "")
             for n, d, r, ks, z in LOOP_CASES])
    def test_pass_matches_row_loop(self, n, d, decimals, ks, zero_col):
        # blocks of query rows and the partial neighbor selection give the
        # per-row loop's weights bit for bit, exact ties included
        rng = np.random.default_rng(n * d)
        X = rng.normal(size=(n, d))
        if decimals is not None:
            X = np.round(X, decimals)
        if zero_col:
            X[:, 1] = 2.5
        y = balanced_labels(rng, n, min_per_class=ks[-1] + 1)
        np.testing.assert_array_equal(_relieff_pass(X, y, ks),
                                      oracles.relieff_pass_loop(X, y, ks))
        train = np.arange(n) % 3 != 0
        args = (X[train], y[train], X[~train], y[~train])
        assert (_nearest_neighbor_accuracy(*args)
                == oracles.nearest_neighbor_accuracy_loop(*args))

    @pytest.mark.parametrize("block_rows", [1, 3, 7])
    def test_block_size_leaves_bits(self, block_rows, monkeypatch):
        # blocks of 1, 3 and 7 query rows, the last one short, over three
        # classes with exact distance ties from rounding to 0.1
        rng = np.random.default_rng(block_rows)
        n, ks = 50, (1, 3, 5)
        X = np.round(rng.normal(size=(n, 17)), 1)
        y = rng.permutation(np.repeat([0, 1, 2], [17, 16, 17]))
        monkeypatch.setattr(relieff, "BLOCK_ELEMENTS", 2 * n * block_rows)
        np.testing.assert_array_equal(_relieff_pass(X, y, ks),
                                      oracles.relieff_pass_loop(X, y, ks))
        train = np.arange(n) % 5 != 0
        args = (X[train], y[train], X[~train], y[~train])
        assert (_nearest_neighbor_accuracy(*args)
                == oracles.nearest_neighbor_accuracy_loop(*args))

    def test_memory_bounded(self):
        # one block's two buffers of at most BLOCK_ELEMENTS values (512 KB)
        # at a time; an n x n x d array would be 544 MB here
        rng = np.random.default_rng(2)
        X = rng.normal(size=(2000, 17))
        y = balanced_labels(rng, 2000)
        tracemalloc.start()
        try:
            relieff_weights(X, y, k=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_custom_names(self):
        y = np.array([0, 1] * 5)
        w = relieff_weights(np.outer(y, [1.0, 2.0]), y, k=1,
                            names=("a", "b"))
        assert w.names == ("a", "b")

    def test_k_too_large(self):
        y = np.array([0, 0, 0, 1, 1, 1])
        with pytest.raises(InsufficientData,
                           match="k=3 exceeds smallest class size 3 - 1"):
            relieff_weights(np.zeros((6, 2)), y, k=3)

    def test_single_class(self):
        with pytest.raises(InsufficientData,
                           match="at least 2 examples in each of 2 classes"):
            relieff_weights(np.zeros((6, 2)), np.zeros(6, dtype=int), k=1)

    def test_no_features(self):
        with pytest.raises(ValueError, match="no feature columns"):
            relieff_weights(np.zeros((6, 0)), np.array([0, 1] * 3), k=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        X = np.random.default_rng(0).normal(size=(30, 2))
        X[4, 1] = bad
        y = np.array([0, 1] * 15)
        with pytest.raises(ValueError, match="NaN or infinite"):
            relieff_weights(X, y, k=3)
        with pytest.raises(ValueError, match="NaN or infinite"):
            cross_validated_selection(X, y, folds=10, seed=0)


def weights_fixture():
    return FeatureWeights(names=("a", "b", "c"),
                          weights=np.array([0.5, -0.2, 0.0]))


class TestSelection:
    def test_drop_nonpositive(self):
        assert select_features(weights_fixture()) == ["a"]

    def test_tie_keeps_earlier_feature(self):
        w = FeatureWeights(names=("a", "b", "c"),
                           weights=np.array([0.3, 0.5, 0.5]))
        assert select_features(w) == ["b", "c", "a"]

    def test_descending_order(self):
        w = FeatureWeights(names=("a", "b", "c"),
                           weights=np.array([0.1, 0.9, 0.5]))
        assert select_features(w) == ["b", "c", "a"]

    def test_all_dropped(self):
        # no positive weight: the single best feature stays, never none
        w = FeatureWeights(names=("a", "b", "c"),
                           weights=np.array([-0.4, 0.0, -0.1]))
        assert select_features(w) == ["b"]

    def test_informative_feature_ranked_first(self):
        firsts = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = balanced_labels(rng, 40)
            X = np.column_stack([y + rng.normal(0, 0.1, 40),
                                 rng.normal(size=40), rng.normal(size=40),
                                 rng.normal(size=40)])
            w = relieff_weights(X, y, k=3)
            firsts += select_features(w)[0] == "f0"
        assert firsts >= 95


class TestCrossValidation:
    def label_data(self, seed=3):
        rng = np.random.default_rng(seed)
        y = np.array([0, 1] * 15)
        X = np.column_stack([y.astype(float), rng.normal(size=30)])
        return X, y

    def test_label_feature_always_wins(self):
        X, y = self.label_data()
        res = cross_validated_selection(X, y, folds=10, seed=4,
                                        names=("lab", "noise"))
        assert res.fold_accuracies == (1.0,) * 10
        assert "lab" in res.kept
        assert res.chosen_k in (3, 5, 10)

    def test_deterministic(self):
        X, y = self.label_data()
        a = cross_validated_selection(X, y, folds=10, seed=4)
        b = cross_validated_selection(X, y, folds=10, seed=4)
        assert a.chosen_k == b.chosen_k
        assert a.kept == b.kept
        assert a.fold_accuracies == b.fold_accuracies
        np.testing.assert_array_equal(a.weights.weights, b.weights.weights)

    def test_tie_prefers_smaller_k(self):
        X, y = self.label_data()
        res = cross_validated_selection(X, y, folds=10, seed=4)
        # all candidates reach accuracy 1.0 on the label feature
        assert res.chosen_k == 3

    def test_infeasible_k_skipped(self):
        X, y = self.label_data()
        res = cross_validated_selection(X, y, folds=10, k_grid=(3, 5, 50),
                                        seed=1)
        assert res.chosen_k in (3, 5)

    def test_matches_refit_per_k_and_fold(self):
        # the fold loop as one ReliefF fit per (k, fold) pair, skipping a k
        # that some training part's smallest class cannot serve
        for seed in range(4):
            rng = np.random.default_rng(seed)
            y = balanced_labels(rng, 60, min_per_class=12)
            X = np.column_stack([y + rng.normal(0, 0.7, 60),
                                 rng.normal(size=(60, 4))])
            fold_of = _fold_assignment(y, 5, seed)
            smallest = min(np.bincount(y[fold_of != f]).min()
                           for f in range(5))
            grid = (40, int(smallest), int(smallest) - 1, 5, 2, 1)
            per_k = {}
            for k in sorted(set(grid)):
                try:
                    fits = [relieff_weights(X[fold_of != f], y[fold_of != f],
                                            k=k) for f in range(5)]
                except InsufficientData:
                    continue
                per_k[k] = []
                for f, w in enumerate(fits):
                    tr, te = fold_of != f, fold_of == f
                    cols = [int(name[1:]) for name in select_features(w)]
                    per_k[k].append(_nearest_neighbor_accuracy(
                        X[tr][:, cols], y[tr], X[te][:, cols], y[te]))
            want = min(per_k, key=lambda k: (-float(np.mean(per_k[k])), k))
            res = cross_validated_selection(X, y, folds=5, k_grid=grid,
                                            seed=seed)
            assert res.chosen_k == want
            assert res.fold_accuracies == tuple(per_k[want])
            np.testing.assert_array_equal(
                res.weights.weights, relieff_weights(X, y, k=want).weights)

    def test_small_class_rejected(self):
        y = np.array([0] * 9 + [1] * 20)
        X = np.random.default_rng(0).normal(size=(29, 2))
        with pytest.raises(InsufficientData,
                           match="at least 10 examples for 10-fold CV"):
            cross_validated_selection(X, y, folds=10, seed=0)

    def test_fold_count_matches(self):
        X, y = self.label_data()
        res = cross_validated_selection(X, y, folds=5, seed=2)
        assert len(res.fold_accuracies) == 5

    def test_fold_assignment_matches_loop(self):
        # the folds deal out the same per-class draw as before the draw
        # moved into dataset.stratified_order
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for n in (20, 37, 95):
                y = balanced_labels(rng, n, min_per_class=5)
                for folds in (2, 5):
                    np.testing.assert_array_equal(
                        _fold_assignment(y, folds, seed),
                        oracles.fold_assignment_loop(y, folds, seed))


class TestFoldWorkers:
    """The folds run on min(folds, usable CPUs) threads, the calling thread
    among them; nothing the selection returns or raises may follow that
    count."""

    def data(self):
        # a weak label signal: the folds keep different feature sets
        rng = np.random.default_rng(5)
        y = balanced_labels(rng, 90, min_per_class=20)
        X = np.column_stack([y + rng.normal(0, 1.5, 90),
                             rng.normal(size=(90, 5))])
        return X, y

    def select(self, monkeypatch, workers):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
        return cross_validated_selection(*self.data(), folds=5,
                                         k_grid=(1, 3, 5), seed=2)

    def test_worker_count_leaves_bits(self, monkeypatch):
        kept, fold_threads, started = set(), set(), []
        keep, start = relieff._kept_columns, threading.Thread.start

        def noting_keep(weights):
            fold_threads.add(threading.get_ident())
            cols = keep(weights)
            kept.add(tuple(cols))
            return cols

        def noting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(relieff, "_kept_columns", noting_keep)
        monkeypatch.setattr(threading.Thread, "start", noting_start)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as it can
        try:
            for workers in (1, 2, 3):
                fold_threads.clear()
                started.clear()
                before = threading.active_count()
                results[workers] = self.select(monkeypatch, workers)
                assert threading.active_count() == before
                # the calling thread is one of the workers
                assert len(started) == workers - 1
                assert (len(fold_threads) > 1) == (workers > 1)
        finally:
            sys.setswitchinterval(interval)
        assert len(kept) > 1
        serial = results[1]
        for workers in (2, 3):
            res = results[workers]
            assert res.chosen_k == serial.chosen_k
            assert res.kept == serial.kept
            assert res.fold_accuracies_by_k == serial.fold_accuracies_by_k
            assert (res.weights.weights.tobytes()
                    == serial.weights.weights.tobytes())

    def test_usable_cpus_without_affinity(self, monkeypatch):
        assert parallel.usable_cpus() >= 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert parallel.usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert parallel.usable_cpus() == 1

    def test_first_failing_fold_raises(self, monkeypatch):
        # fold 2 fails and so do the folds after it, with another error;
        # at 2 and 3 workers a later fold can fail before fold 2 does
        X, y = self.data()
        fold_of = _fold_assignment(y, 5, 2)
        real = relieff._relieff_pass

        def failing(X_train, y_train, ks):
            f = next(f for f in range(5)
                     if np.array_equal(X_train, X[fold_of != f]))
            if f == 2:
                raise InsufficientData("fold 2")
            if f > 2:
                raise ValueError(f"fold {f}")
            return real(X_train, y_train, ks)

        monkeypatch.setattr(relieff, "_relieff_pass", failing)
        for workers in (1, 2, 3):
            before = threading.active_count()
            with pytest.raises(InsufficientData, match="^fold 2$"):
                self.select(monkeypatch, workers)
            assert threading.active_count() == before


class TestReports:
    def test_weights_report(self, tmp_path):
        p = tmp_path / "weights.csv"
        write_weights_report(p, weights_fixture(), kept=["a"])
        rows = list(csv.reader(p.open()))
        assert rows[0] == ["feature", "weight", "kept"]
        assert rows[1] == ["a", "0.5", "1"]
        assert rows[2][0] == "b" and rows[2][2] == "0"

    def test_selection_manifest(self, tmp_path):
        X = np.column_stack([np.array([0, 1] * 15, float),
                             np.random.default_rng(1).normal(size=30)])
        y = np.array([0, 1] * 15)
        res = cross_validated_selection(X, y, folds=10, seed=7,
                                        names=("lab", "noise"))
        p = tmp_path / "selection.json"
        write_selection_manifest(p, res, folds=10, seed=7)
        payload = json.loads(p.read_text())
        assert payload["chosen_k"] == res.chosen_k
        assert payload["folds"] == 10
        assert payload["seed"] == 7
        assert payload["kept"] == list(res.kept)
        assert len(payload["fold_accuracies"]) == 10
        by_k = payload["fold_accuracies_by_k"]
        assert sorted(by_k, key=int) == ["3", "5", "10"]
        assert all(len(acc) == 10 for acc in by_k.values())
        assert by_k[str(res.chosen_k)] == payload["fold_accuracies"]

    def test_report_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_weights_report(a, weights_fixture(), kept=["a"])
        write_weights_report(b, weights_fixture(), kept=["a"])
        assert a.read_bytes() == b.read_bytes()
