"""ReliefF feature weighting and cross-validated selection.

Exhaustive variant: every instance serves as a query in index order, so there
is no sampling randomness anywhere in the weights.  Distances are Manhattan
on range-normalized features; neighbor ties go to the lower index so results
are reproducible across implementations.  Query rows are walked one at a
time, so memory stays at one n x d block of diffs whatever n is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .artifacts import write_csv, write_json
from .errors import InsufficientData

DEFAULT_K_GRID = (3, 5, 10)
DEFAULT_FOLDS = 10


@dataclass(frozen=True)
class FeatureWeights:
    names: tuple
    weights: np.ndarray


@dataclass(frozen=True)
class SelectionResult:
    chosen_k: int
    kept: tuple
    fold_accuracies: tuple
    weights: FeatureWeights


def _range_scale(X: np.ndarray) -> np.ndarray:
    """Column ranges, inf for a zero-range column so |a - b| / scale reads
    exactly 0 there."""
    ranges = X.max(axis=0) - X.min(axis=0)
    return np.where(ranges == 0.0, np.inf, ranges)


def _relieff_pass(X, y, ks: Sequence[int]) -> np.ndarray:
    """ReliefF weights for every k of the ascending grid ks, one row per k.

    Each query row's diffs to all instances are built on their own and its
    neighbors are sorted once: the k nearest hits and misses are a prefix of
    the max(ks) nearest, so one order serves the whole grid.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-d with one label per row")
    n, d = X.shape
    if d == 0:
        raise ValueError("no feature columns")
    labels, counts = np.unique(y, return_counts=True)
    if len(labels) < 2 or np.min(counts) < 2:
        raise InsufficientData("need at least 2 examples in each of 2 classes")
    for k in (ks[0], ks[-1]):
        if k < 1 or k > np.min(counts) - 1:
            raise InsufficientData(
                f"k={k} exceeds smallest class size {int(np.min(counts))} - 1")

    count_of = {int(c): int(cnt) for c, cnt in zip(labels, counts)}
    scale = _range_scale(X)
    # the j-th nearest miss counts for every k > j, a suffix of the grid
    first_k_above = np.searchsorted(ks, np.arange(ks[-1]), side="right")
    hit_acc = np.zeros((len(ks), d))
    miss_acc = np.zeros((len(ks), d))
    for r in range(n):
        diff = np.abs(X - X[r]) / scale
        dist = diff.sum(axis=1)
        dist[r] = np.inf
        order = np.argsort(dist, kind="stable")  # ties -> lower index
        same = y[order] == y[r]
        hits = order[same][:ks[-1]]
        misses = order[~same][:ks[-1]]
        for i, k in enumerate(ks):
            hit_acc[i] += diff[hits[:k]].sum(axis=0)
        denom = n - count_of[int(y[r])]
        for j, mi in enumerate(misses):
            miss_acc[first_k_above[j]:] += (
                (count_of[int(y[mi])] / denom) * diff[mi])
    return (miss_acc - hit_acc) / (n * np.asarray(ks))[:, None]


def relieff_weights(X, y, k: int,
                    names: Sequence[str] | None = None) -> FeatureWeights:
    weights = _relieff_pass(X, y, (k,))[0]
    if names is None:
        names = tuple(f"f{i}" for i in range(len(weights)))
    return FeatureWeights(names=tuple(names), weights=weights)


def _kept_columns(weights: np.ndarray) -> np.ndarray:
    """The positive weights in descending order, or else the single best."""
    order = np.argsort(-weights, kind="stable")
    return order[:max(1, int(np.count_nonzero(weights > 0.0)))]


def select_features(weights: FeatureWeights) -> list:
    """Kept feature names, by the one keep rule of `_kept_columns`."""
    return [weights.names[i] for i in _kept_columns(weights.weights)]


def _nearest_neighbor_accuracy(X_train, y_train, X_test, y_test) -> float:
    """1-NN accuracy, Manhattan on ranges learned from the training part."""
    scale = _range_scale(X_train)
    correct = 0
    for i in range(len(X_test)):
        d = np.abs(X_train - X_test[i]) / scale
        nearest = int(np.argmin(d.sum(axis=1)))  # ties -> lower index
        correct += int(y_train[nearest] == y_test[i])
    return correct / len(X_test)


def _fold_assignment(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    fold_of = np.empty(len(y), dtype=np.int64)
    for label in np.unique(y):
        members = np.flatnonzero(y == label)
        rng = np.random.default_rng((seed, int(label)))
        shuffled = members[rng.permutation(len(members))]
        fold_of[shuffled] = np.arange(len(shuffled)) % folds
    return fold_of


def cross_validated_selection(X, y, folds: int = DEFAULT_FOLDS,
                              k_grid: Sequence[int] = DEFAULT_K_GRID,
                              seed: int = 0,
                              names: Sequence[str] | None = None
                              ) -> SelectionResult:
    """Pick the neighbor count by stratified k-fold 1-NN accuracy.

    Each fold's training part gets one ReliefF pass over every feasible k:
    a k is feasible when every training part has more than k examples in
    each class.  Ties in mean accuracy go to the smaller k.  Final weights
    are recomputed on the full data with the winner.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if folds < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    labels, counts = np.unique(y, return_counts=True)
    if len(labels) < 2 or np.min(counts) < folds:
        raise InsufficientData(
            f"every class needs at least {folds} examples for {folds}-fold CV")

    fold_of = _fold_assignment(y, folds, seed)
    smallest = min(int(np.min(np.unique(y[fold_of != f],
                                        return_counts=True)[1]))
                   for f in range(folds))
    ks = [k for k in sorted(set(int(k) for k in k_grid))
          if 1 <= k <= smallest - 1]
    if not ks:
        raise InsufficientData("no candidate k fits the smallest class")

    per_k: dict = {k: [] for k in ks}
    for f in range(folds):
        tr = fold_of != f
        te = ~tr
        for k, weights in zip(ks, _relieff_pass(X[tr], y[tr], ks)):
            cols = _kept_columns(weights)
            per_k[k].append(_nearest_neighbor_accuracy(
                X[tr][:, cols], y[tr], X[te][:, cols], y[te]))

    chosen = min(per_k, key=lambda k: (-float(np.mean(per_k[k])), k))
    final = relieff_weights(X, y, k=chosen, names=names)
    return SelectionResult(chosen_k=chosen, kept=tuple(select_features(final)),
                           fold_accuracies=tuple(per_k[chosen]),
                           weights=final)


def write_weights_report(path, weights: FeatureWeights,
                         kept: Sequence[str]) -> None:
    kept_set = set(kept)
    write_csv(path, ("feature", "weight", "kept"),
              [(name, w, int(name in kept_set))
               for name, w in zip(weights.names, weights.weights)])


def write_selection_manifest(path, result: SelectionResult, folds: int,
                             seed: int) -> None:
    write_json(path, {
        "chosen_k": result.chosen_k,
        "folds": folds,
        "seed": seed,
        "fold_accuracies": [float(a) for a in result.fold_accuracies],
        "kept": list(result.kept),
    })
