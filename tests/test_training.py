"""Tests for metrics, Adam, the training loop, and report writers."""

import ctypes
import math

import numpy as np
import pytest

import oracles
from speechbp import training
from speechbp.artifacts import write_json
from speechbp.dataset import fit_scaler, partition
from speechbp.errors import InsufficientData, TrainingDiverged
from speechbp.features import BASE_NAMES, FeatureVector
from speechbp.model import (CHUNK, EncoderConfig, forward, init_params,
                            load_params, save_params)
from speechbp.textcodec import build_vocabulary, serialize_features, tokenize
from speechbp.training import (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON,
                               DIVERGENCE_LIMIT, LabeledSequence, Metrics,
                               TrainConfig, TrainHistory, adam_step,
                               confusion_matrix, evaluate,
                               label_prediction, mae, mse, predict_pressures, r2,
                               read_history_csv, total_loss,
                               total_loss_gradients, train, write_history_csv,
                               write_metrics_json)

VOCAB = build_vocabulary(BASE_NAMES)

# the thread controls of the OpenBLAS that numpy bundles, when it does
try:
    _blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    BLAS_GET = _blas.scipy_openblas_get_num_threads64_
    BLAS_SET = _blas.scipy_openblas_set_num_threads64_
except (AttributeError, OSError):
    BLAS_GET = BLAS_SET = None


def toy_encoder(**kw):
    base = dict(vocab_size=len(VOCAB), hidden_dim=8, n_layers=1, n_heads=2,
                ff_dim=16, max_len=128, dropout_p=0.1, seed=0)
    base.update(kw)
    return EncoderConfig(**base)


def labeled_examples(n=10, seed=1):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        sbp = 100.0 + 5.0 * i
        vec = FeatureVector(names=BASE_NAMES, values=rng.normal(0, 1, 17),
                            n_segments=1, schema_id="base")
        seq = tokenize(serialize_features(vec), VOCAB, max_len=128)
        out.append(LabeledSequence(f"p{i}", seq, sbp, sbp - 35.0))
    return out


def target_scaler(examples):
    return fit_scaler(np.array([[e.sbp, e.dbp] for e in examples]),
                      "standard")


class TestMse:
    def test_perfect(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        assert mse([0.0, 0.0], [2.0, 2.0]) == 4.0

    def test_hand_value(self):
        assert mse([1, 2, 3], [2, 2, 2]) == pytest.approx(2.0 / 3.0,
                                                          abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 targets vs 2 predictions"):
            mse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(InsufficientData, match="no examples"):
            mse([], [])


class TestMae:
    def test_perfect(self):
        assert mae([5.0, 5.0], [5.0, 5.0]) == 0.0

    def test_hand_value(self):
        assert mae([0.0, 0.0], [1.0, 3.0]) == 2.0

    def test_jensen_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            y = rng.normal(100, 20, 25)
            p = y + rng.normal(0, 6, 25)
            assert mae(y, p) <= math.sqrt(mse(y, p)) + 1e-12


class TestR2:
    def test_perfect(self):
        assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_baseline(self):
        y = [1.0, 2.0, 3.0]
        assert r2(y, [2.0, 2.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert r2([1, 2, 3], [1, 2, 4]) == pytest.approx(0.5, abs=1e-15)

    def test_zero_variance(self):
        with pytest.raises(InsufficientData,
                           match="targets carry no variance"):
            r2([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.normal(120, 15, 40)
        p = y + rng.normal(0, 4, 40)
        base = r2(y, p)
        for a, b in ((3.0, -7.0), (-0.5, 100.0)):
            assert r2(a * y + b, a * p + b) == pytest.approx(base,
                                                             abs=1e-12)


class TestMetricOracles:
    def test_twenty_fixtures(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            y = rng.normal(110, 18, n)
            p = y + rng.normal(0, 5, n)
            assert abs(mse(y, p) - oracles.mse_oracle(y, p)) < 1e-12
            assert abs(mae(y, p) - oracles.mae_oracle(y, p)) < 1e-12
            assert abs(r2(y, p) - oracles.r2_oracle(y, p)) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        y = rng.normal(100, 10, 30)
        p = y + rng.normal(0, 3, 30)
        perm = rng.permutation(30)
        assert mse(y[perm], p[perm]) == pytest.approx(mse(y, p), abs=1e-12)
        assert mae(y[perm], p[perm]) == pytest.approx(mae(y, p), abs=1e-12)
        assert r2(y[perm], p[perm]) == pytest.approx(r2(y, p), abs=1e-12)

    def test_equal_magnitude_residuals(self):
        # all residuals |r| = 3: mse = 9 = mae^2
        y = np.array([10.0, 20.0, 30.0, 40.0])
        p = y + np.array([3.0, -3.0, 3.0, -3.0])
        assert mse(y, p) == mae(y, p) ** 2


class TestTotalLoss:
    def test_perfect(self):
        assert total_loss([1.0], [2.0], [1.0], [2.0]) == 0.0

    def test_additivity(self):
        # sbp residuals [1, 0] -> 0.5; dbp residuals [1, 1] -> 1.0
        assert total_loss([1.0, 0.0], [1.0, 1.0],
                          [0.0, 0.0], [0.0, 0.0]) == 1.5

    def test_matches_component_sum(self):
        rng = np.random.default_rng(7)
        sp, dp = rng.normal(size=6), rng.normal(size=6)
        st, dt = rng.normal(size=6), rng.normal(size=6)
        assert total_loss(sp, dp, st, dt) == pytest.approx(
            mse(st, sp) + mse(dt, dp), abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        sp, dp = rng.normal(size=5), rng.normal(size=5)
        st, dt = rng.normal(size=5), rng.normal(size=5)
        gs, gd = total_loss_gradients(sp, dp, st, dt)
        assert gs.shape == (5, 1) and gd.shape == (5, 1)
        for j in range(5):
            fd = oracles.central_difference(
                lambda: total_loss(sp, dp, st, dt),
                lambda: sp[j], lambda v: sp.__setitem__(j, v))
            assert gs[j, 0] == pytest.approx(fd, rel=1e-8)
            assert gs[j, 0] == pytest.approx(2.0 * (sp[j] - st[j]) / 5.0,
                                             abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 targets vs 2 predictions"):
            total_loss([1.0, 2.0], [1.0, 2.0], [1.0], [1.0, 2.0])


class TestAdam:
    """Adam runs over the parameter, gradient and two moment vectors."""

    def cfg(self, **kw):
        base = dict(epochs=1, batch_size=1, learning_rate=2e-5, seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_first_step_hand_value(self):
        params = np.zeros(4)
        m, v = np.zeros_like(params), np.zeros_like(params)
        adam_step(params, np.ones(4), m, v, 1, self.cfg())
        want = oracles.adam_single_step_oracle(0.0, 1.0)
        assert np.all(params == want)
        assert params[0] == pytest.approx(-2e-5, rel=1e-7)

    def test_zero_gradient_leaves_params(self):
        params = np.array([1.0, -2.0, 3.0])
        before = params.copy()
        m, v = np.zeros_like(params), np.zeros_like(params)
        adam_step(params, np.zeros(3), m, v, 1, self.cfg())
        np.testing.assert_array_equal(params, before)

    def test_update_opposes_gradient_sign(self):
        rng = np.random.default_rng(13)
        g = rng.normal(size=20)
        params = np.zeros(20)
        m, v = np.zeros_like(params), np.zeros_like(params)
        adam_step(params, g, m, v, 1, self.cfg())
        nz = g != 0
        assert np.all(np.sign(params[nz]) == -np.sign(g[nz]))

    def test_two_steps_match_scalar_recurrence(self):
        lr, b1, b2, eps = 2e-5, 0.9, 0.999, 1e-8
        params = np.array([0.5])
        m, v = np.zeros_like(params), np.zeros_like(params)
        theta, want_m, want_v = 0.5, 0.0, 0.0
        for t, g in ((1, 0.3), (2, -1.1)):
            adam_step(params, np.array([g]), m, v, t, self.cfg())
            want_m = b1 * want_m + (1 - b1) * g
            want_v = b2 * want_v + (1 - b2) * g * g
            theta -= lr * (want_m / (1 - b1 ** t)) / (
                math.sqrt(want_v / (1 - b2 ** t)) + eps)
        assert params[0] == pytest.approx(theta, abs=1e-18)

    def test_shape_mismatch(self):
        params = np.zeros(3)
        m, v = np.zeros_like(params), np.zeros_like(params)
        with pytest.raises(ValueError, match=r"grad \(4,\) vs param \(3,\)"):
            adam_step(params, np.zeros(4), m, v, 1, self.cfg())

    def test_step_index_starts_at_one(self):
        params = np.zeros(3)
        with pytest.raises(ValueError):
            adam_step(params, np.zeros(3), np.zeros(3), np.zeros(3), 0,
                      self.cfg())

    @pytest.mark.parametrize("shape", [(1,), (CHUNK - 1,), (CHUNK,),
                                       (CHUNK + 1,), (32, 95, 256)])
    def test_in_place_update_matches_oracle(self, shape):
        # three steps of the in-place update over a vector of the shape's
        # size against the one-expression update, bit for bit; the
        # gradients are left as they were
        size = math.prod(shape)
        rng = np.random.default_rng(shape[0])
        params = rng.normal(size=size)
        m, v = np.zeros(size), np.zeros(size)
        theta, want_m, want_v = params.copy(), np.zeros(size), np.zeros(size)
        for t in (1, 2, 3):
            g = rng.normal(size=size)
            g[::7] = 0.0
            before = g.copy()
            adam_step(params, g, m, v, t, self.cfg(learning_rate=1e-3))
            theta, want_m, want_v = oracles.adam_update_oracle(
                theta, g, want_m, want_v, t, 1e-3)
            np.testing.assert_array_equal(g, before)
            for got, want in ((params, theta), (m, want_m), (v, want_v)):
                assert got.tobytes() == want.tobytes()


class TestTrainConfig:
    def test_defaults_echo_published_table(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_size, cfg.learning_rate) == (50, 32,
                                                                   2e-5)
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize("kw", [dict(epochs=0), dict(batch_size=0),
                                    dict(learning_rate=0.0),
                                    dict(learning_rate=-1e-5)])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestValidationSplit:
    """The validation part of the partition: the rows whose loss `train`
    reports after each epoch."""

    def test_stratified_and_disjoint(self):
        labels = [i % 2 for i in range(30)]
        train_set, val, test = partition(labels, seed=5)
        assert (len(train_set), len(val), len(test)) == (22, 2, 6)
        assert set(train_set).isdisjoint(val)
        assert {labels[i] for i in val} == {0, 1}

    def test_deterministic(self):
        labels = [int(i % 3 == 0) for i in range(40)]
        assert partition(labels, seed=3)[1] == partition(labels, seed=3)[1]

    def test_small_classes_leave_it_empty(self):
        # a class of fewer than 10 left after the test part gives it none
        train_set, val, test = partition([0] * 6 + [1] * 5, seed=0)
        assert val == [] and len(train_set) == 9


class TestTrain:
    def test_bit_exact_determinism(self):
        enc = toy_encoder()
        examples = labeled_examples()
        scaler = target_scaler(examples)
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-3,
                          seed=9, target_scaler=scaler)
        p1, h1 = train(enc, init_params(enc), examples[:8], examples[8:],
                       cfg)
        p2, h2 = train(enc, init_params(enc), examples[:8], examples[8:],
                       cfg)
        assert h1 == h2
        for name in p1:
            np.testing.assert_array_equal(p1[name], p2[name])

    def test_seed_changes_trajectory(self):
        enc = toy_encoder()
        examples = labeled_examples()
        scaler = target_scaler(examples)
        kw = dict(epochs=3, batch_size=4, learning_rate=1e-3,
                  target_scaler=scaler)
        _, h1 = train(enc, init_params(enc), examples[:8], examples[8:],
                      TrainConfig(seed=1, **kw))
        _, h2 = train(enc, init_params(enc), examples[:8], examples[8:],
                      TrainConfig(seed=2, **kw))
        assert h1 != h2

    def test_history_lengths_and_finiteness(self):
        enc = toy_encoder()
        examples = labeled_examples()
        scaler = target_scaler(examples)
        _, hist = train(enc, init_params(enc), examples[:8], examples[8:],
                        TrainConfig(epochs=4, batch_size=4,
                                    learning_rate=1e-3, seed=0,
                                    target_scaler=scaler))
        assert len(hist.train_loss) == len(hist.val_loss) == 4
        assert all(math.isfinite(v) for v in hist.train_loss)
        assert all(math.isfinite(v) for v in hist.val_loss)

    def test_empty_val_records_nan(self):
        enc = toy_encoder()
        examples = labeled_examples()
        scaler = target_scaler(examples)
        _, hist = train(enc, init_params(enc), examples, [],
                        TrainConfig(epochs=1, batch_size=4,
                                    learning_rate=1e-3, seed=0,
                                    target_scaler=scaler))
        assert math.isnan(hist.val_loss[0])

    def test_empty_train_rejected(self):
        enc = toy_encoder()
        scaler = target_scaler(labeled_examples())
        with pytest.raises(InsufficientData, match="no training examples"):
            train(enc, init_params(enc), [], [],
                  TrainConfig(target_scaler=scaler))

    def test_missing_scaler_rejected(self):
        enc = toy_encoder()
        with pytest.raises(ValueError):
            train(enc, init_params(enc), labeled_examples(), [],
                  TrainConfig())

    def test_divergent_learning_rate(self):
        enc = toy_encoder()
        examples = labeled_examples()
        scaler = target_scaler(examples)
        with pytest.raises(TrainingDiverged):
            train(enc, init_params(enc), examples, [],
                  TrainConfig(epochs=12, batch_size=4, learning_rate=10.0,
                              seed=0, target_scaler=scaler))

    def test_parameters_move(self):
        enc = toy_encoder()
        examples = labeled_examples()
        scaler = target_scaler(examples)
        before = init_params(enc)
        frozen = {n: a.copy() for n, a in before.items()}
        after, _ = train(enc, before, examples, [],
                         TrainConfig(epochs=1, batch_size=4,
                                     learning_rate=1e-3, seed=0,
                                     target_scaler=scaler))
        assert any(not np.array_equal(frozen[n], after[n]) for n in frozen)


@pytest.mark.skipif(BLAS_GET is None,
                    reason="numpy bundles no scipy-openblas")
class TestOneBlasThread:
    """The encoder runs at one OpenBLAS thread inside train and
    predict_pressures, and the caller's count is back once they return or
    raise."""

    @pytest.fixture
    def seen(self, monkeypatch):
        counts = []

        def recording(*args, **kwargs):
            counts.append(BLAS_GET())
            return forward(*args, **kwargs)

        monkeypatch.setattr(training, "forward", recording)
        before = BLAS_GET()
        BLAS_SET(2)
        assert BLAS_GET() == 2
        yield counts
        BLAS_SET(before)

    def test_train(self, seen):
        enc = toy_encoder()
        examples = labeled_examples()
        train(enc, init_params(enc), examples[:8], examples[8:],
              TrainConfig(epochs=2, batch_size=4, learning_rate=1e-3,
                          seed=0, target_scaler=target_scaler(examples)))
        # two train batches and one validation batch per epoch
        assert seen == [1] * 6
        assert BLAS_GET() == 2

    def test_predict_pressures(self, seen):
        enc = toy_encoder()
        examples = labeled_examples()
        predict_pressures(enc, init_params(enc),
                          [ex.sequence for ex in examples],
                          target_scaler(examples))
        assert seen == [1]
        assert BLAS_GET() == 2

    def test_train_diverged(self, seen):
        enc = toy_encoder()
        examples = labeled_examples()
        with pytest.raises(TrainingDiverged):
            train(enc, init_params(enc), examples, [],
                  TrainConfig(epochs=12, batch_size=4, learning_rate=10.0,
                              seed=0, target_scaler=target_scaler(examples)))
        assert seen and set(seen) == {1}
        assert BLAS_GET() == 2


class TestEvaluate:
    def test_constant_predictor_r2_nonpositive(self):
        enc = toy_encoder()
        examples = labeled_examples()
        scaler = target_scaler(examples)
        params = init_params(enc)
        for head in ("sbp", "dbp"):
            params[f"{head}_weight"] = np.zeros_like(
                params[f"{head}_weight"])
            params[f"{head}_bias"] = np.array([0.3])
        m = evaluate(enc, params, examples, scaler)
        assert m.sbp_r2 <= 0.0
        assert m.dbp_r2 <= 0.0
        assert m.n == len(examples)

    def test_metrics_survive_weight_round_trip(self, tmp_path):
        enc = toy_encoder()
        examples = labeled_examples()
        scaler = target_scaler(examples)
        params, _ = train(enc, init_params(enc), examples, [],
                          TrainConfig(epochs=2, batch_size=4,
                                      learning_rate=1e-3, seed=0,
                                      target_scaler=scaler))
        before = evaluate(enc, params, examples, scaler)
        path = tmp_path / "weights.bin"
        save_params(path, enc, params, {})
        enc2, params2, _ = load_params(path)
        after = evaluate(enc2, params2, examples, scaler)
        assert before == after

    def test_empty_set_rejected(self):
        enc = toy_encoder()
        scaler = target_scaler(labeled_examples())
        with pytest.raises(InsufficientData,
                           match="no evaluation examples"):
            evaluate(enc, init_params(enc), [], scaler)

    def test_precomputed_predictions(self):
        enc = toy_encoder()
        examples = labeled_examples()
        scaler = target_scaler(examples)
        params = init_params(enc)
        preds = predict_pressures(enc, params,
                                  [ex.sequence for ex in examples], scaler)
        assert evaluate(enc, params, examples, scaler, preds=preds) == \
            evaluate(enc, params, examples, scaler)


class TestConfusion:
    def test_perfect_predictions(self):
        sbp = [130.0, 100.0, 120.0, 90.0]
        dbp = [80.0, 60.0, 65.0, 55.0]
        truth = [1, 0, 1, 0]
        counts = confusion_matrix(sbp, dbp, truth)
        assert counts == {"tp": 2, "fp": 0, "fn": 0, "tn": 2}

    def test_degenerate_normotensive_predictor(self):
        n = 10
        counts = confusion_matrix([100.0] * n, [60.0] * n,
                                  [1] * (n // 2) + [0] * (n // 2))
        assert counts == {"tp": 0, "fp": 0, "fn": 5, "tn": 5}

    def test_twenty_pairs_against_enumeration(self):
        rng = np.random.default_rng(17)
        sbp = rng.uniform(80, 180, 20)
        dbp = rng.uniform(40, 110, 20)
        truth = rng.integers(0, 2, 20)
        pred_classes = [oracles.hypertensive_oracle(s, d)
                        for s, d in zip(sbp, dbp)]
        want = oracles.confusion_oracle(pred_classes,
                                        [bool(t) for t in truth])
        assert confusion_matrix(sbp, dbp, truth) == want

    def test_out_of_range_predictions_clipped(self):
        counts = confusion_matrix([500.0, 10.0], [20.0, 20.0], [1, 0])
        assert counts == {"tp": 1, "fp": 0, "fn": 0, "tn": 1}

    def test_length_mismatch(self):
        with pytest.raises(ValueError,
                           match="prediction and label lengths differ"):
            confusion_matrix([120.0], [80.0, 70.0], [1, 0])

    @pytest.mark.parametrize("sbp, dbp, want", [
        (500.0, 20.0, 1), (10.0, 20.0, 0), (10.0, 500.0, 1),
        (115.0, 72.0, 0), (115.0 + 1e-9, 72.0, 1), (-np.inf, np.inf, 1)])
    def test_label_prediction_clips_then_labels(self, sbp, dbp, want):
        # the rule confusion_matrix and `bp predict` share
        assert label_prediction(sbp, dbp) == want
        assert confusion_matrix([sbp], [dbp], [want])[
            "tp" if want else "tn"] == 1


class TestWriters:
    def test_history_round_trip(self, tmp_path):
        hist = TrainHistory(train_loss=(2.0, 1.0 / 3.0),
                            val_loss=(1.9, 0.123456789012345678))
        path = tmp_path / "loss_curve.csv"
        write_history_csv(path, hist)
        assert read_history_csv(path) == hist
        header = path.read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss"

    def test_metrics_json_layout(self, tmp_path):
        m = Metrics(sbp_mae=1.5, sbp_mse=4.0, sbp_r2=0.9, dbp_mae=1.0,
                    dbp_mse=2.0, dbp_r2=0.8, n=20)
        path = tmp_path / "metrics.json"
        write_metrics_json(path, m)
        import json
        payload = json.loads(path.read_text())
        assert payload["n"] == 20
        assert payload["sbp"] == {"mae": 1.5, "mse": 4.0, "r2": 0.9}
        assert payload["dbp"] == {"mae": 1.0, "mse": 2.0, "r2": 0.8}

    def test_confusion_json(self, tmp_path):
        path = tmp_path / "confusion.json"
        write_json(path, {"tp": 1, "fp": 2, "fn": 3, "tn": 4})
        assert path.read_text() == ('{\n  "fn": 3,\n  "fp": 2,\n  "tn": 4,\n'
                                    '  "tp": 1\n}\n')
