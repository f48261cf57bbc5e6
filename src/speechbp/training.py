"""Loss, Adam, the training loop, and regression metrics.

Targets are standardized with a scaler fitted on the train split before the
loss sees them; every reported metric is converted back to mmHg first.  The
loop is deterministic end to end: the shuffle is seeded per epoch, dropout
per (seed, epoch, batch), and Adam runs in plain float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .artifacts import read_csv, write_csv, write_json
from .dataset import (DBP_RANGE, SBP_RANGE, Scaler, apply_scaler,
                      invert_scaler, label_hypertension)
from .errors import InsufficientData, MalformedArtifact, TrainingDiverged
from .model import EncoderConfig, backward, forward
from .parallel import one_blas_thread
from .textcodec import TokenSequence

EVAL_BATCH = 32

# limit for the divergence guard, in standardized-target loss units where a
# constant-zero predictor scores exactly 2.0
DIVERGENCE_LIMIT = 1000.0

# Adam's moment decay rates and denominator floor (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 2e-5
    seed: int = 0
    target_scaler: Scaler | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class LabeledSequence:
    """A tokenized recording with its mmHg targets."""
    participant_id: str
    sequence: TokenSequence
    sbp: float
    dbp: float


@dataclass(frozen=True)
class TrainHistory:
    train_loss: tuple
    val_loss: tuple


@dataclass(frozen=True)
class Metrics:
    sbp_mae: float
    sbp_mse: float
    sbp_r2: float
    dbp_mae: float
    dbp_mse: float
    dbp_r2: float
    n: int


# --- metrics ----------------------------------------------------------------

def _paired(y, yhat):
    a = np.asarray(y, dtype=np.float64).ravel()
    b = np.asarray(yhat, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"{a.shape[0]} targets vs {b.shape[0]} predictions")
    if a.size == 0:
        raise InsufficientData("no examples")
    return a, b


def mse(y, yhat) -> float:
    a, b = _paired(y, yhat)
    return float(np.mean((a - b) ** 2))


def mae(y, yhat) -> float:
    a, b = _paired(y, yhat)
    return float(np.mean(np.abs(a - b)))


def r2(y, yhat) -> float:
    a, b = _paired(y, yhat)
    tss = float(np.sum((a - np.mean(a)) ** 2))
    if tss == 0.0:
        raise InsufficientData("targets carry no variance")
    rss = float(np.sum((a - b) ** 2))
    return 1.0 - rss / tss


def total_loss(sbp_pred, dbp_pred, sbp_true, dbp_true) -> float:
    return mse(sbp_true, sbp_pred) + mse(dbp_true, dbp_pred)


def total_loss_gradients(sbp_pred, dbp_pred, sbp_true, dbp_true):
    """d total_loss / d predictions, as column vectors ready for backward."""
    ts, ps = _paired(sbp_true, sbp_pred)
    td, pd = _paired(dbp_true, dbp_pred)
    n = ps.size
    return (2.0 * (ps - ts) / n).reshape(-1, 1), \
        (2.0 * (pd - td) / n).reshape(-1, 1)


# --- optimizer --------------------------------------------------------------

def init_adam_state(params: dict) -> dict:
    return {"m": {n: np.zeros_like(a) for n, a in params.items()},
            "v": {n: np.zeros_like(a) for n, a in params.items()}}


def adam_step(params: dict, grads: dict, state: dict, t: int,
              config: TrainConfig):
    """One bias-corrected Adam update; mutates params and state in place,
    through two scratch arrays per parameter array, and leaves grads as
    they are."""
    if t < 1:
        raise ValueError("step index starts at 1")
    if set(grads) != set(params):
        raise ValueError("gradient keys do not match parameters")
    for name, g in grads.items():
        if g.shape != params[name].shape:
            raise ValueError(f"{name}: grad {g.shape} vs "
                             f"param {params[name].shape}")
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    lr = config.learning_rate
    for name, g in grads.items():
        m, v = state["m"][name], state["v"][name]
        step, denom = np.empty_like(g), np.empty_like(g)
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        m *= b1
        np.multiply(g, 1.0 - b1, out=step)
        m += step
        v *= b2
        np.multiply(g, 1.0 - b2, out=step)
        step *= g
        v += step
        # (lr m_hat) / (sqrt(v_hat) + eps), m_hat = m / (1 - b1^t) and
        # v_hat = v / (1 - b2^t)
        np.divide(m, 1.0 - b1 ** t, out=step)
        step *= lr
        np.divide(v, 1.0 - b2 ** t, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPSILON
        step /= denom
        params[name] -= step
    return params, state


# --- training loop ----------------------------------------------------------

def _targets(examples) -> np.ndarray:
    return np.array([[ex.sbp, ex.dbp] for ex in examples], dtype=np.float64)


def _predict(enc_config, params, sequences):
    """Eval-mode predictions for token sequences in fixed-size chunks, in
    scaler units, (n, 2)."""
    rows = []
    with one_blas_thread():
        for start in range(0, len(sequences), EVAL_BATCH):
            out = forward(enc_config, params,
                          sequences[start:start + EVAL_BATCH], mode="eval")
            rows.append(np.hstack([out.sbp_pred, out.dbp_pred]))
    return np.vstack(rows)


def train(enc_config: EncoderConfig, params: dict,
          train_set: Sequence[LabeledSequence],
          val_set: Sequence[LabeledSequence], config: TrainConfig):
    """Run the full loop; mutates params in place and returns them with the
    per-epoch loss history.

    Shuffle order is drawn from (seed, epoch) and dropout from
    (seed, epoch, batch), so a rerun with the same inputs reproduces every
    update bit for bit.  A non-finite batch or validation loss aborts with
    TrainingDiverged rather than writing garbage onward.
    """
    if not train_set:
        raise InsufficientData("no training examples")
    if config.target_scaler is None:
        raise ValueError("config.target_scaler must be fitted first")
    scaler = config.target_scaler
    n = len(train_set)
    z = apply_scaler(scaler, _targets(train_set))
    z_val = apply_scaler(scaler, _targets(val_set)) if val_set else None

    state = init_adam_state(params)
    # the encoder's full-batch arrays, kept from step to step: allocated
    # afresh, most steps paged them in again
    workspace = {}
    step = 0
    train_hist, val_hist = [], []
    with one_blas_thread():
        for epoch in range(1, config.epochs + 1):
            order = np.random.default_rng((config.seed, epoch)).permutation(n)
            running = 0.0
            for bi, start in enumerate(range(0, n, config.batch_size)):
                idx = order[start:start + config.batch_size]
                batch = [train_set[i].sequence for i in idx]
                out = forward(enc_config, params, batch, mode="train",
                              dropout_seed=(config.seed, epoch, bi),
                              workspace=workspace)
                zb = z[idx]
                loss = total_loss(out.sbp_pred, out.dbp_pred, *zb.T)
                if not math.isfinite(loss) or loss > DIVERGENCE_LIMIT:
                    raise TrainingDiverged(
                        f"loss {loss:.3g} at epoch {epoch}, batch {bi}")
                gs, gd = total_loss_gradients(out.sbp_pred, out.dbp_pred,
                                              *zb.T)
                grads = backward(enc_config, params, out, gs, gd, workspace)
                step += 1
                adam_step(params, grads, state, step, config)
                running += loss * len(idx)
            train_hist.append(running / n)
            if val_set:
                pv = _predict(enc_config, params,
                              [ex.sequence for ex in val_set])
                val_loss = total_loss(*pv.T, *z_val.T)
                if not math.isfinite(val_loss) or val_loss > DIVERGENCE_LIMIT:
                    raise TrainingDiverged(
                        f"val loss {val_loss:.3g} at epoch {epoch}")
            else:
                val_loss = math.nan
            val_hist.append(val_loss)
    return params, TrainHistory(train_loss=tuple(train_hist),
                                val_loss=tuple(val_hist))


def evaluate(enc_config: EncoderConfig, params: dict,
             test_set: Sequence[LabeledSequence],
             target_scaler: Scaler, preds=None) -> Metrics:
    """Metrics in mmHg on a held-out set.

    `preds` takes the (n, 2) mmHg predictions when the caller already has
    them from `predict_pressures`; without it they are computed here.
    """
    if not test_set:
        raise InsufficientData("no evaluation examples")
    if preds is None:
        preds = predict_pressures(enc_config, params,
                                  [ex.sequence for ex in test_set],
                                  target_scaler)
    y = _targets(test_set)
    return Metrics(
        sbp_mae=mae(y[:, 0], preds[:, 0]),
        sbp_mse=mse(y[:, 0], preds[:, 0]),
        sbp_r2=r2(y[:, 0], preds[:, 0]),
        dbp_mae=mae(y[:, 1], preds[:, 1]),
        dbp_mse=mse(y[:, 1], preds[:, 1]),
        dbp_r2=r2(y[:, 1], preds[:, 1]),
        n=len(test_set))


def predict_pressures(enc_config, params, sequences, target_scaler):
    """mmHg predictions for bare token sequences, (n, 2).

    A non-finite prediction means the saved model diverged."""
    preds = invert_scaler(target_scaler,
                          _predict(enc_config, params, sequences))
    if not np.all(np.isfinite(preds)):
        raise TrainingDiverged("model predicts a non-finite pressure")
    return preds


# --- classification view ----------------------------------------------------

def label_prediction(sbp: float, dbp: float) -> int:
    """Hypertension label of a predicted pressure pair.

    Raw model output can wander outside physiologic bounds early in
    training; predictions are clipped into the valid ranges first.  Both
    thresholds sit strictly inside their ranges, so clipping never moves a
    prediction across a class boundary.
    """
    return label_hypertension(float(np.clip(sbp, *SBP_RANGE)),
                              float(np.clip(dbp, *DBP_RANGE)))


def confusion_matrix(pred_sbp, pred_dbp, true_class) -> dict:
    """2x2 counts with hypertensive as the positive class, predictions
    labeled by `label_prediction`."""
    ps = np.asarray(pred_sbp, dtype=np.float64).ravel()
    pd = np.asarray(pred_dbp, dtype=np.float64).ravel()
    tc = np.asarray(true_class).ravel()
    if not ps.shape == pd.shape == tc.shape:
        raise ValueError("prediction and label lengths differ")
    counts = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
    for s, d, t in zip(ps, pd, tc):
        predicted = label_prediction(s, d)
        truth = int(t)
        if predicted and truth:
            counts["tp"] += 1
        elif predicted and not truth:
            counts["fp"] += 1
        elif not predicted and truth:
            counts["fn"] += 1
        else:
            counts["tn"] += 1
    return counts


# --- report files -----------------------------------------------------------

HISTORY_COLUMNS = ("epoch", "train_loss", "val_loss")


def write_history_csv(path, history: TrainHistory) -> None:
    write_csv(path, HISTORY_COLUMNS,
              [(i, float(tr), float(vl)) for i, (tr, vl) in enumerate(
                  zip(history.train_loss, history.val_loss), start=1)])


def read_history_csv(path) -> TrainHistory:
    header, rows = read_csv(path)
    if header != HISTORY_COLUMNS or not rows:
        raise MalformedArtifact(f"{path}: not a loss curve")
    try:
        losses = [(float(tr), float(vl)) for _, tr, vl in rows]
    except ValueError as err:
        raise MalformedArtifact(f"{path}: {err}") from None
    # train never writes a non-finite train loss; a NaN val loss means the
    # validation split was empty
    for epoch, (tr, _) in enumerate(losses, 1):
        if not math.isfinite(tr):
            raise MalformedArtifact(f"{path}: train loss {tr} at epoch "
                                    f"{epoch} is not finite")
    return TrainHistory(train_loss=tuple(tr for tr, _ in losses),
                        val_loss=tuple(vl for _, vl in losses))


def write_metrics_json(path, metrics: Metrics) -> None:
    write_json(path, {
        "n": metrics.n,
        "sbp": {"mae": metrics.sbp_mae, "mse": metrics.sbp_mse,
                "r2": metrics.sbp_r2},
        "dbp": {"mae": metrics.dbp_mae, "mse": metrics.dbp_mse,
                "r2": metrics.dbp_r2},
    })
