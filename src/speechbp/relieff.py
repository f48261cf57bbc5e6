"""ReliefF feature weighting and cross-validated selection.

Exhaustive variant: every instance serves as a query in index order, so there
is no sampling randomness anywhere in the weights.  Distances are Manhattan
on range-normalized features, summed over the features in column order;
neighbor ties go to the lower index so results are reproducible across
implementations.  Query rows go in blocks whose distance buffers hold at
most BLOCK_ELEMENTS values, so memory stays bounded whatever n is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .artifacts import write_csv, write_json
from .dataset import stratified_order
from .errors import InsufficientData
from .parallel import ordered_map

DEFAULT_K_GRID = (3, 5, 10)
DEFAULT_FOLDS = 10
BLOCK_ELEMENTS = 2**16  # values in a block's two buffers: 512 KB of float64


@dataclass(frozen=True)
class FeatureWeights:
    names: tuple
    weights: np.ndarray


@dataclass(frozen=True)
class SelectionResult:
    chosen_k: int
    kept: tuple
    fold_accuracies_by_k: dict  # k -> per-fold 1-NN accuracies
    weights: FeatureWeights

    @property
    def fold_accuracies(self) -> tuple:
        return self.fold_accuracies_by_k[self.chosen_k]


def _range_scale(X: np.ndarray) -> np.ndarray:
    """Column ranges, inf for a zero-range column so |a - b| / scale reads
    exactly 0 there."""
    ranges = X.max(axis=0) - X.min(axis=0)
    return np.where(ranges == 0.0, np.inf, ranges)


def _check_finite(X: np.ndarray) -> None:
    if not np.all(np.isfinite(X)):
        raise ValueError("X holds a NaN or infinite value")


def _distance_blocks(X: np.ndarray, Q: np.ndarray, scale: np.ndarray):
    """Manhattan distances on range-normalized features from blocks of
    query rows Q to the rows of X, as (start, dist) with dist of shape
    (B, len(X)).

    The features are added into the block's sum one after another, in
    column order, each read from a contiguous row of X.T.  The sum and one
    feature's term are two reused buffers of at most BLOCK_ELEMENTS values
    together, so memory is bounded whatever n is; a yielded dist holds its
    values until the next block is computed.
    """
    XT = np.ascontiguousarray(X.T)
    d, n = XT.shape
    rows = max(1, BLOCK_ELEMENTS // (2 * n))
    dist_buf = np.empty((min(rows, len(Q)), n))
    term_buf = np.empty_like(dist_buf)
    for start in range(0, len(Q), rows):
        q = Q[start:start + rows]
        dist, term = dist_buf[:len(q)], term_buf[:len(q)]
        for f in range(d):
            out = dist if f == 0 else term
            np.subtract(XT[f], q[:, f, None], out=out)
            np.abs(out, out=out)
            np.divide(out, scale[f], out=out)
            if f:
                dist += term
        yield start, dist


def _nearest(dist: np.ndarray, K: int) -> np.ndarray:
    """Column indices of the K smallest distances of each row, nearest
    first with ties to the lower index: the first K of a stable argsort."""
    kth = np.partition(dist, K - 1, axis=1)[:, K - 1]
    rows, cols = np.nonzero(dist <= kth[:, None])
    order = np.lexsort((dist[rows, cols], rows))  # stable: ties by index
    first = np.searchsorted(rows, np.arange(len(dist)))
    return cols[order][first[:, None] + np.arange(K)]


def _fold(acc: np.ndarray, contribs: np.ndarray) -> np.ndarray:
    """acc plus each row of contribs in turn, left to right."""
    return np.add.accumulate(np.concatenate([acc[None], contribs]))[-1]


def _relieff_pass(X, y, ks: Sequence[int]) -> np.ndarray:
    """ReliefF weights for every k of the ascending grid ks, one row per k.

    Query rows go in blocks; each row's K = max(ks) nearest hits and misses
    are found once, since the k nearest are a prefix of the K nearest, so
    one selection serves the whole grid.  Contributions are added in row
    order, then neighbor order, whatever the block size.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-d with one label per row")
    n, d = X.shape
    if d == 0:
        raise ValueError("no feature columns")
    _check_finite(X)
    labels, counts = np.unique(y, return_counts=True)
    if len(labels) < 2 or np.min(counts) < 2:
        raise InsufficientData("need at least 2 examples in each of 2 classes")
    for k in (ks[0], ks[-1]):
        if k < 1 or k > np.min(counts) - 1:
            raise InsufficientData(
                f"k={k} exceeds smallest class size {int(np.min(counts))} - 1")

    K = ks[-1]
    count_of = counts[np.searchsorted(labels, y)]
    hit_acc = np.zeros((len(ks), d))
    miss_acc = np.zeros((len(ks), d))
    scale = _range_scale(X)
    for start, dist in _distance_blocks(X, X, scale):
        B = len(dist)
        rows = np.arange(B)
        dist[rows, start + rows] = np.inf
        same = y[None, :] == y[start:start + B, None]
        hits = _nearest(np.where(same, dist, np.inf), K)
        misses = _nearest(np.where(same, np.inf, dist), K)
        q = X[start:start + B, None, :]
        # (B, K, d) in C order keeps numpy's sum over the neighbor axis in
        # neighbor order
        hit_diffs = np.abs(X[hits] - q) / scale
        prior = count_of[misses] / (n - count_of[start:start + B])[:, None]
        miss_diffs = prior[:, :, None] * (np.abs(X[misses] - q) / scale)
        for i, k in enumerate(ks):
            hit_acc[i] = _fold(hit_acc[i],
                               np.add.reduce(hit_diffs[:, :k], axis=1))
            miss_acc[i] = _fold(miss_acc[i],
                                miss_diffs[:, :k].reshape(-1, d))
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
    nearest = np.concatenate([
        np.argmin(dist, axis=1)  # ties -> lower index
        for _, dist in _distance_blocks(X_train, X_test,
                                        _range_scale(X_train))])
    return int(np.count_nonzero(y_train[nearest] == y_test)) / len(X_test)


def _fold_assignment(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    fold_of = np.empty(len(y), dtype=np.int64)
    for drawn in stratified_order(y, seed).values():
        fold_of[drawn] = np.arange(len(drawn)) % folds
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
    are recomputed on the full data with the winner.  The folds go through
    `parallel.ordered_map`, so the result and the first error raised are
    those of a fold-by-fold loop.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if folds < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    _check_finite(X)
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

    def fold_accuracies(f):
        # one accuracy per k; no callee here is a tracer span
        tr, te = fold_of != f, fold_of == f
        return [_nearest_neighbor_accuracy(X[tr][:, cols], y[tr],
                                           X[te][:, cols], y[te])
                for cols in map(_kept_columns,
                                _relieff_pass(X[tr], y[tr], ks))]

    per_k: dict = {k: [] for k in ks}
    for accuracies in ordered_map(fold_accuracies, range(folds)):
        for k, accuracy in zip(ks, accuracies):
            per_k[k].append(accuracy)

    chosen = min(per_k, key=lambda k: (-float(np.mean(per_k[k])), k))
    final = relieff_weights(X, y, k=chosen, names=names)
    return SelectionResult(chosen_k=chosen, kept=tuple(select_features(final)),
                           fold_accuracies_by_k={
                               k: tuple(acc) for k, acc in per_k.items()},
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
        "fold_accuracies_by_k": {
            str(k): [float(a) for a in acc]
            for k, acc in result.fold_accuracies_by_k.items()},
        "kept": list(result.kept),
    })
