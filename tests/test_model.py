"""Encoder tests: config guards, masking, exact gradients, persistence.

The keystone here is the finite-difference sweep: every parameter family is
sampled and compared against the hand-derived backward pass.
"""

import hashlib
import json
import math
import re
import struct
import threading
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import (central_difference, encoder_forward_oracle,
                     gelu_backward_pow_oracle, gelu_pow_oracle)
from speechbp import model, parallel
from speechbp.errors import MalformedArtifact
from speechbp.model import (CHUNK, EncoderConfig, ForwardOutput,
                            _embedding_backward, _gelu, _gelu_backward,
                            _layer_norm, _layer_norm_backward,
                            _layer_norm_sums, _softmax_rows, backward,
                            forward, init_params, load_params,
                            param_shapes, save_params, zero_gradients)
from speechbp.textcodec import TokenSequence

VOCAB = 12
# a stand-in for the record `bp train` stores beside the weights
PIPELINE = {"kept_features": ["mfcc_1"], "decimals": 4,
            "feature_scaler": {"center": [0.5], "scale": [2.0]}}


def toy_config(**kw):
    base = dict(vocab_size=VOCAB, hidden_dim=8, n_layers=1, n_heads=2,
                ff_dim=16, max_len=8, dropout_p=0.1, seed=0)
    base.update(kw)
    return EncoderConfig(**base)


def make_seq(ids, width=6):
    arr = np.zeros(width, dtype=np.int64)
    arr[:len(ids)] = ids
    mask = np.zeros(width, dtype=np.int64)
    mask[:len(ids)] = 1
    return TokenSequence(arr, mask, len(ids))


def random_seq(rng, width=12, vocab=VOCAB, length=None):
    tl = int(rng.integers(3, width)) if length is None else length
    ids = np.zeros(width, dtype=np.int64)
    ids[0], ids[tl - 1] = 2, 3
    ids[1:tl - 1] = rng.integers(4, vocab, size=tl - 2)
    mask = np.zeros(width, dtype=np.int64)
    mask[:tl] = 1
    return TokenSequence(ids, mask, tl)


def padded_batch(rng, n, vocab=40, width=99):
    """n sequences of 91 to 99 tokens padded to `width`: the token lengths
    of the default pipeline's feature text."""
    return [random_seq(rng, width, vocab, int(rng.integers(91, 100)))
            for _ in range(n)]


def assert_bits_equal(got, want):
    """Equal values with equal signs of zero: the same bytes."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def toy():
    cfg = toy_config()
    return cfg, init_params(cfg), [make_seq([2, 5, 7, 4, 9, 3]),
                                   make_seq([2, 8, 10, 3])]


class TestConfig:
    def test_head_dim(self):
        assert EncoderConfig(vocab_size=40, hidden_dim=64,
                             n_heads=4).head_dim == 16

    @pytest.mark.parametrize("kw", [
        dict(hidden_dim=10, n_heads=4),     # not divisible
        dict(dropout_p=1.0),
        dict(dropout_p=-0.1),
        dict(max_len=1),
        dict(vocab_size=3),
        dict(n_layers=0),
        dict(layernorm_epsilon=0.0),
        dict(n_heads=2.0),
        dict(ff_dim=True),
    ])
    def test_invalid(self, kw):
        base = dict(vocab_size=VOCAB, hidden_dim=8, n_layers=1, n_heads=2,
                    ff_dim=16, max_len=8)
        base.update(kw)
        match = {"hidden_dim": "not divisible by n_heads",
                 "dropout_p": r"dropout_p must lie in \[0, 1\)",
                 "max_len": "max_len must admit",
                 "vocab_size": "vocab_size must cover",
                 "n_layers": "dimensions must be positive",
                 "layernorm_epsilon": "layernorm_epsilon must be positive",
                 "n_heads": "n_heads must be an integer, got 2.0",
                 "ff_dim": "ff_dim must be an integer, got True",
                 }[next(iter(kw))]
        with pytest.raises(ValueError, match=match):
            EncoderConfig(**base)

    def test_full_scale_geometry_constructible(self):
        # the classic base geometry must remain expressible for shape checks
        cfg = EncoderConfig(vocab_size=30522, hidden_dim=768, n_layers=12,
                            n_heads=12, ff_dim=3072, max_len=512)
        shapes = param_shapes(cfg)
        total = sum(int(np.prod(s)) for s in shapes.values())
        assert total == 109_471_490
        assert len(shapes) == 188


class TestInit:
    def test_seed_deterministic(self):
        cfg = toy_config(seed=11)
        a, b = init_params(cfg), init_params(cfg)
        assert all(np.array_equal(a[n], b[n]) for n in a)

    def test_seed_sensitivity(self):
        a = init_params(toy_config(seed=0))
        b = init_params(toy_config(seed=1))
        assert not np.array_equal(a["token_embedding"], b["token_embedding"])

    def test_norms_identity_and_biases_zero(self, toy):
        _, params, _ = toy
        assert np.all(params["layer0.attn_gain"] == 1.0)
        assert np.all(params["layer0.ffn_gain"] == 1.0)
        for name in ("layer0.attn_bias", "layer0.ffn_bias", "layer0.bq",
                     "layer0.bo", "layer0.b1", "layer0.b2", "pooler_bias",
                     "sbp_bias", "dbp_bias"):
            assert np.all(params[name] == 0.0)

    def test_truncation_bound(self, toy):
        _, params, _ = toy
        for name, arr in params.items():
            assert np.abs(arr).max() <= 2.0 * 0.02 + 1e-15 or \
                np.all((arr == 0.0) | (arr == 1.0))

    def test_sample_mean_near_zero(self):
        cfg = EncoderConfig(vocab_size=2000, hidden_dim=64, n_layers=1,
                            n_heads=4, ff_dim=64, max_len=8, seed=3)
        emb = init_params(cfg)["token_embedding"]   # 128000 draws
        assert emb.size >= 100_000
        assert abs(float(emb.mean())) < 0.001

    def test_shapes_match_table(self, toy):
        cfg, params, _ = toy
        assert {n: a.shape for n, a in params.items()} == param_shapes(cfg)


class TestForward:
    def test_prediction_shapes(self, toy):
        cfg, params, batch = toy
        out = forward(cfg, params, batch)
        assert out.sbp_pred.shape == (2, 1)
        assert out.dbp_pred.shape == (2, 1)

    def test_eval_deterministic_and_cacheless(self, toy):
        cfg, params, batch = toy
        a = forward(cfg, params, batch, mode="eval")
        b = forward(cfg, params, batch, mode="eval")
        assert np.array_equal(a.sbp_pred, b.sbp_pred)
        assert np.array_equal(a.dbp_pred, b.dbp_pred)
        assert a.cache is None

    def test_train_mode_caches(self, toy):
        cfg, params, batch = toy
        out = forward(cfg, params, batch, mode="train", dropout_seed=1)
        assert out.cache is not None
        assert len(out.cache["layers"]) == cfg.n_layers

    def test_finite_outputs(self, toy):
        cfg, params, batch = toy
        out = forward(cfg, params, batch)
        assert np.all(np.isfinite(out.sbp_pred))
        assert np.all(np.isfinite(out.dbp_pred))

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_matches_full_row_oracle(self, n_layers):
        # the last block computes row 0 alone; predictions must equal those
        # of the forward that computes every row of every block.  Weights
        # far from init make every block matter.
        cfg = toy_config(n_layers=n_layers, max_len=16)
        rng = np.random.default_rng(n_layers)
        params = {name: rng.normal(0.0, 0.5, shape)
                  for name, shape in param_shapes(cfg).items()}
        batch = [random_seq(rng) for _ in range(5)]
        assert len({s.true_length for s in batch}) > 1
        out = forward(cfg, params, batch)
        want_sbp, want_dbp = encoder_forward_oracle(cfg, params, batch)
        for got, want in ((out.sbp_pred, want_sbp),
                          (out.dbp_pred, want_dbp)):
            assert np.max(np.abs(got - want)) <= \
                1e-12 * np.max(np.abs(want))

    def test_last_block_caches_one_row(self):
        cfg = toy_config(n_layers=2)
        out = forward(cfg, init_params(cfg), [make_seq([2, 5, 7, 4, 9, 3])],
                      mode="train", dropout_seed=1)
        inner, last = out.cache["layers"]
        assert inner["h1"].shape[1] == 6 and inner["attn"].shape[2] == 6
        assert last["h1"].shape[1] == 1 and last["attn"].shape[2] == 1
        assert last["k"].shape[2] == 6 and last["v"].shape[2] == 6

    def test_bad_mode(self, toy):
        cfg, params, batch = toy
        with pytest.raises(ValueError):
            forward(cfg, params, batch, mode="predict")

    def test_empty_batch(self, toy):
        cfg, params, _ = toy
        with pytest.raises(ValueError):
            forward(cfg, params, [])

    def test_id_out_of_range(self, toy):
        cfg, params, _ = toy
        with pytest.raises(ValueError, match=r"token ids must lie in \[0, "):
            forward(cfg, params, [make_seq([2, VOCAB, 3])])

    def test_negative_id(self, toy):
        cfg, params, _ = toy
        bad = make_seq([2, 5, 3])
        bad.input_ids[1] = -1
        with pytest.raises(ValueError, match=r"token ids must lie in \[0, "):
            forward(cfg, params, [bad])

    def test_length_exceeds_max(self, toy):
        cfg, params, _ = toy
        ids = [2] + [5] * 9 + [3]       # 11 tokens > max_len 8
        with pytest.raises(ValueError,
                           match="sequence length 11 exceeds max_len 8"):
            forward(cfg, params, [make_seq(ids, width=11)])

    def test_pad_perturbation_bit_identical(self):
        cfg = toy_config(n_layers=2, max_len=16)
        params = init_params(cfg)
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = random_seq(rng)
            base = forward(cfg, params, [s])
            ids = s.input_ids.copy()
            pads = np.where(s.attention_mask == 0)[0]
            ids[pads] = rng.integers(0, VOCAB, size=len(pads))
            pert = forward(cfg, params,
                           [TokenSequence(ids, s.attention_mask,
                                          s.true_length)])
            assert np.array_equal(base.sbp_pred, pert.sbp_pred)
            assert np.array_equal(base.dbp_pred, pert.dbp_pred)

    def test_pad_perturbation_within_batch(self):
        # a short sequence batched with a long one has pads inside the
        # trimmed window; they must still be invisible
        cfg = toy_config(n_layers=2, max_len=16)
        params = init_params(cfg)
        rng = np.random.default_rng(4)
        long, short = random_seq(rng), make_seq([2, 6, 3], width=12)
        a = forward(cfg, params, [long, short])
        ids = short.input_ids.copy()
        ids[np.where(short.attention_mask == 0)[0]] = 7
        b = forward(cfg, params,
                    [long, TokenSequence(ids, short.attention_mask, 3)])
        assert np.array_equal(a.sbp_pred, b.sbp_pred)
        assert np.array_equal(a.dbp_pred, b.dbp_pred)

    def test_attention_rows_are_distributions(self, toy):
        cfg, params, batch = toy
        out = forward(cfg, params, batch, mode="train", dropout_seed=1)
        mask = out.cache["mask"]
        for layer in out.cache["layers"]:
            attn = layer["attn"]
            assert np.all(attn >= 0.0)
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)
            for bi in range(mask.shape[0]):
                dead = np.where(mask[bi] == 0)[0]
                assert np.all(attn[bi][:, :, dead] == 0.0)

    def test_layernorm_standardizes(self, toy):
        cfg, params, batch = toy
        out = forward(cfg, params, batch, mode="train", dropout_seed=1)
        for layer in out.cache["layers"]:
            for key in ("ln1_xhat", "ln2_xhat"):
                xhat = layer[key]
                assert np.abs(xhat.mean(axis=-1)).max() < 1e-9
                assert np.abs(xhat.var(axis=-1) - 1.0).max() < 1e-9

    def test_eval_keeps_no_block_activations(self):
        # eval mode lets each block's activations go once the next block
        # has read them, so its peak stays below train mode's, which keeps
        # every block's for backward
        cfg = EncoderConfig(vocab_size=40, max_len=128, seed=3)
        params = init_params(cfg)
        batch = padded_batch(np.random.default_rng(8), 32)
        peaks = {}
        for mode in ("train", "eval"):
            tracemalloc.start()
            try:
                forward(cfg, params, batch, mode=mode, dropout_seed=1)
                _, peaks[mode] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks["eval"] < peaks["train"]


class TestDropout:
    def test_same_seed_reproducible(self, toy):
        cfg, params, batch = toy
        a = forward(cfg, params, batch, mode="train", dropout_seed=(0, 3, 1))
        b = forward(cfg, params, batch, mode="train", dropout_seed=(0, 3, 1))
        assert np.array_equal(a.sbp_pred, b.sbp_pred)

    def test_masks_vary_across_seeds(self, toy):
        cfg, params, batch = toy
        scales = {forward(cfg, params, batch, mode="train",
                          dropout_seed=s).cache["drop_scale"].tobytes()
                  for s in range(50)}
        assert len(scales) > 1

    def test_inverted_scaling_values(self, toy):
        cfg, params, batch = toy
        seen = set()
        for s in range(50):
            out = forward(cfg, params, batch, mode="train", dropout_seed=s)
            seen.update(np.round(out.cache["drop_scale"], 12).ravel())
        assert seen <= {0.0, round(1.0 / 0.9, 12)}
        assert len(seen) == 2

    def test_zero_rate_matches_eval(self):
        cfg = toy_config(dropout_p=0.0)
        params = init_params(cfg)
        batch = [make_seq([2, 5, 7, 3])]
        tr = forward(cfg, params, batch, mode="train", dropout_seed=9)
        ev = forward(cfg, params, batch, mode="eval")
        assert np.array_equal(tr.sbp_pred, ev.sbp_pred)
        assert np.array_equal(tr.dbp_pred, ev.dbp_pred)


def gradcheck(cfg, params, batch, per_array=11, dropout_seed=777,
              coord_seed=7):
    """Worst relative error between backward and central differences."""
    rng = np.random.default_rng(coord_seed)
    a = rng.normal(size=(len(batch), 1))
    b = rng.normal(size=(len(batch), 1))

    def scalar():
        out = forward(cfg, params, batch, mode="train",
                      dropout_seed=dropout_seed)
        return math.fsum((a * out.sbp_pred).ravel().tolist()
                         + (b * out.dbp_pred).ravel().tolist())

    out = forward(cfg, params, batch, mode="train", dropout_seed=dropout_seed)
    grads = backward(cfg, params, out, a, b)
    worst, checked = 0.0, 0
    for name, shape in param_shapes(cfg).items():
        size = int(np.prod(shape))
        for flat in rng.choice(size, size=min(size, per_array),
                               replace=False):
            idx = np.unravel_index(int(flat), shape)
            fd = central_difference(scalar,
                                    lambda: params[name][idx],
                                    lambda v: params[name].__setitem__(idx,
                                                                       v))
            an = float(grads[name][idx])
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), 1e-6))
            checked += 1
    return worst, checked


class TestBackward:
    def test_finite_difference_keystone(self, toy):
        cfg, params, batch = toy
        worst, checked = gradcheck(cfg, params, batch)
        assert checked >= 200
        assert worst < 1e-4

    def test_finite_difference_two_layers(self, toy):
        # an inner block over every row feeding a last block over the
        # [CLS] row, on a padded batch of two lengths
        _, _, batch = toy
        cfg = toy_config(n_layers=2)
        worst, checked = gradcheck(cfg, init_params(cfg), batch)
        assert checked >= 200
        assert worst < 1e-4

    def test_linearity_in_upstream_grad(self, toy):
        cfg, params, batch = toy
        out = forward(cfg, params, batch, mode="train", dropout_seed=5)
        g1 = backward(cfg, params, out, np.ones((2, 1)),
                      np.full((2, 1), 0.5))
        g2 = backward(cfg, params, out, 2 * np.ones((2, 1)),
                      np.full((2, 1), 1.0))
        for name in g1:
            np.testing.assert_array_equal(2.0 * g1[name], g2[name])

    def test_dead_head_gradient_zero(self, toy):
        cfg, params, batch = toy
        out = forward(cfg, params, batch, mode="train", dropout_seed=5)
        grads = backward(cfg, params, out, np.ones((2, 1)),
                         np.zeros((2, 1)))
        assert np.all(grads["dbp_weight"] == 0.0)
        assert np.all(grads["dbp_bias"] == 0.0)
        assert np.any(grads["sbp_weight"] != 0.0)

    def test_unused_token_rows_zero(self, toy):
        cfg, params, batch = toy
        out = forward(cfg, params, batch, mode="train", dropout_seed=5)
        grads = backward(cfg, params, out, np.ones((2, 1)),
                         np.ones((2, 1)))
        used = set(out.cache["ids"].ravel().tolist())
        for row in range(VOCAB):
            if row not in used:
                assert np.all(grads["token_embedding"][row] == 0.0)

    def test_missing_cache(self, toy):
        cfg, params, batch = toy
        out = forward(cfg, params, batch, mode="eval")
        with pytest.raises(ValueError, match="needs a train-mode forward"):
            backward(cfg, params, out, np.ones((2, 1)), np.ones((2, 1)))

    def test_gradient_shapes(self, toy):
        cfg, params, batch = toy
        out = forward(cfg, params, batch, mode="train", dropout_seed=5)
        grads = backward(cfg, params, out, np.ones((2, 1)),
                         np.ones((2, 1)))
        assert {n: g.shape for n, g in grads.items()} == param_shapes(cfg)

    def test_zero_gradients_layout(self, toy):
        cfg, _, _ = toy
        z = zero_gradients(cfg)
        assert all(np.all(arr == 0.0) for arr in z.values())
        assert {n: a.shape for n, a in z.items()} == param_shapes(cfg)


class TestGelu:
    U = np.concatenate([np.linspace(-10.0, 10.0, 20001),
                        np.random.default_rng(5).normal(0.0, 3.0, 5000)])

    def test_matches_pow_form(self):
        g, t = _gelu(self.U)
        want_g, want_t = gelu_pow_oracle(self.U)
        np.testing.assert_allclose(t, want_t, rtol=1e-13, atol=0.0)
        # 0.5 u (1 + t) cancels for u near -4, where 1 + t is ~1e-7 and a
        # one-ulp change in t is a 1e-11 relative change in the output; so
        # the error is measured against |u|, the scale of the product
        assert np.all(np.abs(g - want_g) <= 1e-13 * np.abs(self.U))

    def test_backward_matches_pow_form(self):
        _, t = gelu_pow_oracle(self.U)
        d_out = np.random.default_rng(6).normal(size=self.U.shape)
        np.testing.assert_allclose(
            _gelu_backward(d_out, self.U, t),
            gelu_backward_pow_oracle(d_out, self.U, t), rtol=1e-13, atol=0.0)


class TestLayerNormDegenerate:
    def test_constant_input_floors(self):
        gain, bias = np.ones(8), np.zeros(8)
        x = np.full((1, 8), 3.0)
        y, xhat, inv, live = _layer_norm(x, gain, bias, 1e-5)
        assert float(inv[0, 0]) == pytest.approx(1e5)
        assert not bool(live[0, 0])
        np.testing.assert_array_equal(y, np.zeros((1, 8)))

    def test_floored_branch_gradient(self):
        # finite differences with a small step stay on the floored branch
        gain, bias = np.ones(8), np.zeros(8)
        x = np.full((1, 8), 3.0)
        w = np.random.default_rng(3).normal(size=(1, 8))

        def scalar():
            y, *_ = _layer_norm(x, gain, bias, 1e-5)
            return float(np.sum(w * y))

        _, xhat, inv, live = _layer_norm(x, gain, bias, 1e-5)
        d_x, _ = _layer_norm_backward(w, xhat, inv, live, gain)
        for j in range(8):
            fd = central_difference(scalar, lambda: x[0, j],
                                    lambda v: x.__setitem__((0, j), v),
                                    h=1e-7)
            rel = abs(d_x[0, j] - fd) / max(abs(d_x[0, j]), abs(fd), 1e-6)
            assert rel < 1e-4


# flat sizes around one element-wise chunk, a batch of FFN activations and
# one of block outputs
KERNEL_SHAPES = [(1,), (CHUNK - 1,), (CHUNK,), (CHUNK + 1,), (32, 95, 256),
                 (32, 95, 64)]


def kernel_input(shape, seed, std=3.0):
    return np.random.default_rng(seed).normal(0.0, std, size=shape)


def assert_unchanged(arrays, copies):
    for a, b in zip(arrays, copies):
        assert_bits_equal(a, b)


class TestKernelsMatchOracles:
    """Each in-place kernel against its one-expression-per-step oracle, bit
    for bit, and no input changed by the call."""

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_gelu(self, shape):
        u = kernel_input(shape, 1)
        before = u.copy()
        for got, want in zip(_gelu(u), oracles.gelu_oracle(u)):
            assert_bits_equal(got, want)
        assert_bits_equal(u, before)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_gelu_backward(self, shape):
        u = kernel_input(shape, 2)
        _, t = oracles.gelu_oracle(u)
        inputs = (kernel_input(shape, 3, 1.0), u, t)
        copies = [a.copy() for a in inputs]
        assert_bits_equal(_gelu_backward(*inputs),
                          oracles.gelu_backward_oracle(*inputs))
        assert_unchanged(inputs, copies)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_softmax_rows_in_place(self, shape):
        scores = kernel_input(shape, 4)
        scores[..., 1::3] += model.MASK_BIAS     # masked keys
        want = oracles.softmax_rows_oracle(scores)
        got = _softmax_rows(scores)
        assert got is scores
        assert_bits_equal(got, want)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_layer_norm(self, shape):
        x = kernel_input(shape, 5)
        if x.ndim > 1:
            x[0, 0] = 3.0               # a constant row takes the floor
        gain = kernel_input(shape[-1:], 6, 1.0)
        bias = kernel_input(shape[-1:], 7, 1.0)
        inputs = (x, gain, bias)
        copies = [a.copy() for a in inputs]
        for got, want in zip(_layer_norm(*inputs, 1e-5),
                             oracles.layer_norm_oracle(*inputs, 1e-5)):
            assert_bits_equal(got, want)
        assert_unchanged(inputs, copies)

    @pytest.mark.parametrize("shape", KERNEL_SHAPES)
    def test_layer_norm_backward(self, shape):
        x = kernel_input(shape, 8)
        if x.ndim > 1:
            x[0, 0] = 3.0
        gain = kernel_input(shape[-1:], 9, 1.0)
        _, xhat, inv, live = oracles.layer_norm_oracle(x, gain, 0.0, 1e-5)
        inputs = (kernel_input(shape, 10, 1.0), xhat, inv, live, gain)
        copies = [a.copy() for a in inputs]
        # the row-local part, then the sums over rows that backward runs on
        # the whole batch
        d_x, prod = _layer_norm_backward(*inputs)
        parts = (d_x, *_layer_norm_sums(inputs[0], prod))
        for got, want in zip(parts,
                             oracles.layer_norm_backward_oracle(*inputs)):
            assert_bits_equal(got, want)
        assert_unchanged(inputs, copies)

    @pytest.mark.parametrize("rows", [1, CHUNK - 1, CHUNK, CHUNK + 1,
                                      32 * 95])
    def test_embedding_gradient(self, rows):
        rng = np.random.default_rng(rows)
        ids = rng.integers(0, 40, size=rows)
        ids[ids == 7] = 8               # id 7 never occurs
        d_rows = rng.normal(size=(rows, 64))
        d_rows[::17, ::5] = -0.0
        d_rows[1::19, 2::7] = 0.0
        d_rows[ids == 5] = -0.0         # add.at sums these to +0.0
        d_rows[ids == 6, :3] = -0.0
        copies = [ids.copy(), d_rows.copy()]
        assert_bits_equal(
            _embedding_backward(ids, d_rows, 40),
            oracles.embedding_gradient_oracle(ids, d_rows, 40))
        assert_unchanged((ids, d_rows), copies)


class TestAttentionGroups:
    @pytest.mark.parametrize("n", [1, 7, 33])
    def test_group_size_leaves_bits(self, n, monkeypatch):
        # attention runs a group of examples at a time; one example per
        # group, the default, and the whole batch as one group must give
        # the same predictions and gradients bit for bit
        cfg = EncoderConfig(vocab_size=40, max_len=128, seed=5)
        params = init_params(cfg)
        batch = padded_batch(np.random.default_rng(n), n)
        up = np.random.default_rng(100 + n).normal(size=(2, n, 1))
        runs = []
        for group in (1, model.GROUP_SCORES, 2**40):
            monkeypatch.setattr(model, "GROUP_SCORES", group)
            out = forward(cfg, params, batch, mode="train", dropout_seed=2)
            ev = forward(cfg, params, batch)
            runs.append([out.sbp_pred, out.dbp_pred, ev.sbp_pred,
                         ev.dbp_pred,
                         *backward(cfg, params, out, *up).values()])
        for run in runs[1:]:
            assert len(run) == len(runs[0])
            for got, want in zip(run, runs[0]):
                assert_bits_equal(got, want)


@pytest.fixture
def started(monkeypatch):
    """Every thread started while the test runs, in start order."""
    threads, start = [], threading.Thread.start

    def noting_start(thread):
        threads.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", noting_start)
    return threads


def step_arrays(cfg, params, batch, up, **kwargs):
    """Train-mode and eval-mode predictions and every gradient of one
    step, in a fixed order."""
    out = forward(cfg, params, batch, mode="train", dropout_seed=2, **kwargs)
    grads = backward(cfg, params, out, *up, **kwargs)
    ev = forward(cfg, params, batch)
    return [out.sbp_pred, out.dbp_pred, ev.sbp_pred, ev.dbp_pred,
            *(grads[name] for name in param_shapes(cfg))]


class TestShards:
    """Each block's row-local work runs on contiguous shards of the
    batch's examples, one thread each; every sum over rows stays one
    operation over the whole batch, so no bit may follow the count."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("n", [1, 5, 33])
    def test_worker_count_leaves_bits(self, n, n_layers, monkeypatch,
                                      started):
        # one token row per shard suffices, so 5 examples on 3 workers
        # make shards of 1, 2 and 2 examples
        monkeypatch.setattr(model, "ROWS_PER_SHARD", 1)
        cfg = EncoderConfig(vocab_size=40, max_len=128, n_layers=n_layers,
                            seed=n)
        params = init_params(cfg)
        batch = padded_batch(np.random.default_rng(n), n)
        up = np.random.default_rng(200 + n).normal(size=(2, n, 1))
        runs = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
            started.clear()
            before = threading.active_count()
            runs[workers] = step_arrays(cfg, params, batch, up)
            assert threading.active_count() == before
            # train forward, backward and eval forward: one map per block
            assert len(started) == 3 * n_layers * (min(workers, n) - 1)
        for workers in (2, 3):
            assert len(runs[workers]) == len(runs[1])
            for got, want in zip(runs[workers], runs[1]):
                assert_bits_equal(got, want)

    def test_workspace_leaves_bits(self, monkeypatch):
        # steps of 33, 5 and again 33 examples through one workspace, at
        # two workers, as without one
        monkeypatch.setattr(model, "ROWS_PER_SHARD", 1)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        cfg = EncoderConfig(vocab_size=40, max_len=128, seed=6)
        params = init_params(cfg)
        workspace = {}
        for n in (33, 5, 33):
            batch = padded_batch(np.random.default_rng(n), n)
            up = np.random.default_rng(300 + n).normal(size=(2, n, 1))
            got = step_arrays(cfg, params, batch, up, workspace=workspace)
            for g, want in zip(got, step_arrays(cfg, params, batch, up)):
                assert_bits_equal(g, want)

    @pytest.mark.parametrize("n, width, threads", [(1, 99, 0), (8, 19, 0),
                                                   (32, 99, 2)])
    def test_small_batches_start_no_thread(self, n, width, threads,
                                           monkeypatch, started):
        # one example, or item 1's (8 x 19) batches, stay on the calling
        # thread; 32 full-length feature texts take one thread per block
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        cfg = EncoderConfig(vocab_size=40, max_len=128, seed=7)
        rng = np.random.default_rng(n)
        batch = [random_seq(rng, width, 40, width) for _ in range(n)]
        forward(cfg, init_params(cfg), batch)
        assert len(started) == threads


def header_edit(mutate, sign=False):
    """Damage to a model file: its JSON header rewritten through `mutate`,
    and signed again only if `sign`."""
    def damage(raw: bytes) -> bytes:
        (hlen,) = struct.unpack_from("<Q", raw, 0)
        header, payload = json.loads(raw[8:8 + hlen]), raw[8 + hlen:]
        mutate(header)
        if sign:
            signed = {k: v for k, v in header.items() if k != "sha256"}
            header["sha256"] = hashlib.sha256(
                json.dumps(signed, sort_keys=True).encode()
                + payload).hexdigest()
        blob = json.dumps(header, sort_keys=True).encode()
        return struct.pack("<Q", len(blob)) + blob + payload
    return damage


def with_array_index(header):
    """The header as format 2 first wrote it: an index of every array's
    name, shape and extent, and the payload length, beside the config."""
    index, offset = [], 0
    for name, shape in param_shapes(EncoderConfig(**header["config"])).items():
        nbytes = 8 * math.prod(shape)
        index.append({"name": name, "shape": list(shape), "offset": offset,
                      "nbytes": nbytes})
        offset += nbytes
    header.update(arrays=index, payload_bytes=offset)


class TestPersistence:
    def test_round_trip_bit_exact(self, toy, tmp_path):
        cfg, params, _ = toy
        p = tmp_path / "weights.bin"
        save_params(p, cfg, params, PIPELINE)
        cfg2, params2, pipeline = load_params(p)
        assert cfg2 == cfg
        assert pipeline == PIPELINE
        for name in params:
            np.testing.assert_array_equal(params[name], params2[name])

    def test_header_holds_no_layout(self, toy, tmp_path):
        # the config fixes every array's shape and place in the payload
        cfg, params, _ = toy
        p = tmp_path / "weights.bin"
        save_params(p, cfg, params, PIPELINE)
        raw = p.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw, 0)
        assert sorted(json.loads(raw[8:8 + hlen])) == [
            "config", "format_version", "pipeline", "sha256"]

    def test_file_with_array_index_loads(self, toy, tmp_path):
        # earlier format-2 files carry a signed array index and payload
        # length; the reader ignores both
        cfg, params, _ = toy
        p = tmp_path / "weights.bin"
        save_params(p, cfg, params, PIPELINE)
        p.write_bytes(header_edit(with_array_index, sign=True)(
            p.read_bytes()))
        cfg2, params2, pipeline = load_params(p)
        assert cfg2 == cfg
        assert pipeline == PIPELINE
        assert list(params2) == list(params)
        for name in params:
            assert params2[name].tobytes() == params[name].tobytes()

    def test_predictions_survive_round_trip(self, toy, tmp_path):
        cfg, params, batch = toy
        p = tmp_path / "weights.bin"
        save_params(p, cfg, params, PIPELINE)
        cfg2, params2, _ = load_params(p)
        a = forward(cfg, params, batch)
        b = forward(cfg2, params2, batch)
        assert np.array_equal(a.sbp_pred, b.sbp_pred)
        assert np.array_equal(a.dbp_pred, b.dbp_pred)

    def test_truncated_payload(self, toy, tmp_path):
        cfg, params, _ = toy
        p = tmp_path / "weights.bin"
        save_params(p, cfg, params, PIPELINE)
        raw = p.read_bytes()
        p.write_bytes(raw[:-16])
        with pytest.raises(MalformedArtifact,
                           match="payload length does not match header"):
            load_params(p)

    def test_payload_bit_flip(self, toy, tmp_path):
        cfg, params, _ = toy
        p = tmp_path / "weights.bin"
        save_params(p, cfg, params, PIPELINE)
        raw = bytearray(p.read_bytes())
        raw[-5] ^= 0x40
        p.write_bytes(bytes(raw))
        with pytest.raises(MalformedArtifact, match="checksum mismatch"):
            load_params(p)

    def test_tiny_file(self, tmp_path):
        p = tmp_path / "weights.bin"
        p.write_bytes(b"\x01\x02")
        with pytest.raises(MalformedArtifact,
                           match="file shorter than its own header length"):
            load_params(p)

    def _rewrite_header(self, path, mutate):
        path.write_bytes(header_edit(mutate)(path.read_bytes()))

    def test_version_mismatch(self, toy, tmp_path):
        cfg, params, _ = toy
        p = tmp_path / "weights.bin"
        save_params(p, cfg, params, PIPELINE)
        self._rewrite_header(p, lambda h: h.update(format_version=99))
        with pytest.raises(MalformedArtifact,
                           match="container version 99, expected 2"):
            load_params(p)

    def test_hidden_dim_mismatch(self, toy, tmp_path):
        # header claims a wider model than the payload was written for
        cfg, params, _ = toy
        p = tmp_path / "weights.bin"
        save_params(p, cfg, params, PIPELINE)
        self._rewrite_header(
            p, lambda h: h["config"].update(hidden_dim=16, n_heads=2))
        with pytest.raises(MalformedArtifact,
                           match="payload length does not match header"):
            load_params(p)

    @pytest.mark.parametrize("mutate", [
        lambda h: h["pipeline"].update(feature_scaler={
            "center": [5.5], "scale": [2.0]}),
        lambda h: h["pipeline"].update(kept_features=["mfcc_2"]),
        lambda h: h["config"].update(dropout_p=0.5),
    ], ids=["scaler", "kept-name", "config"])
    def test_header_edit_without_resigning(self, toy, tmp_path, mutate):
        # the checksum covers the header less its own field, then the payload
        cfg, params, _ = toy
        p = tmp_path / "weights.bin"
        save_params(p, cfg, params, PIPELINE)
        self._rewrite_header(p, mutate)
        with pytest.raises(MalformedArtifact, match="checksum mismatch"):
            load_params(p)

    @pytest.mark.parametrize("damage, message", [
        (lambda raw: raw[:2], "file shorter than its own header length"),
        (lambda raw: raw[:100], "truncated header"),
        (lambda raw: raw[:-8], "payload length does not match header"),
        # a config edit signed again still cannot move the layout
        (header_edit(lambda h: h["config"].update(ff_dim=32), sign=True),
         "payload length does not match header"),
    ], ids=["short-file", "truncated-header", "payload-length",
            "resigned-ff_dim"])
    def test_layout_damage_names_the_file(self, toy, tmp_path, damage,
                                          message):
        cfg, params, _ = toy
        p = tmp_path / "weights.bin"
        save_params(p, cfg, params, PIPELINE)
        p.write_bytes(damage(p.read_bytes()))
        with pytest.raises(MalformedArtifact,
                           match=re.escape(f"{p}: {message}")):
            load_params(p)
