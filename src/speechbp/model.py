"""Transformer encoder over feature-text tokens with two regression heads.

Pure numpy, all float64, no autograd: `forward` in train mode retains the
activations a reverse sweep needs and `backward` replays them into exact
gradients for every parameter array; in eval mode each block's activations
go once the next block has read them.  The layout is the familiar post-norm
encoder stack: token + position embeddings, L blocks of masked multi-head
self-attention and a GELU feed-forward (each followed by residual +
layernorm), a tanh pooler over the first position, dropout on the pooled
vector in train mode, and one linear head per pressure target.  Since the
pooler reads position 0 alone, the last block computes only that row: its
keys and values still span every position, but its queries, attention
output, both layernorms and the feed-forward run on row 0, in forward and in
backward.

Each block runs on contiguous shards of the batch's examples, one thread
per shard through `parallel.ordered_map`, when the batch has at least
ROWS_PER_SHARD token rows per shard; a smaller batch is one shard on the
calling thread.  A shard does only row-local work: its rows' dense
products, layernorm's per-row statistics, GELU, attention within its
examples and, in backward, every d_out @ W.T.  It writes each array that
outlives it into its examples' slice of a full-batch array the calling
thread allocated.  Every reduction over rows runs on the calling thread
after the join, over the whole batch: each weight gradient as one product
over all rows, each bias, gain and position sum, and the token-embedding
gradient; so do the embedding lookup, the pooler and the heads.  A shard's
rows of a stacked product are the whole batch's bit for bit, so the trained
bytes do not depend on the number of CPUs.  A training loop passes a
workspace that keeps the full-batch arrays from one step to the next.

The element-wise work runs in place on cache-sized pieces: GELU and its
backward over flat chunks of CHUNK values, attention (scores, mask, softmax
and its jacobian, the products with the values) a group of examples at a
time into preallocated outputs.  Each element still goes through the same
operations in the same order as with one numpy expression per step, so the
trained bytes do not depend on the chunk or the group size either.

Weights live in a flat dict keyed by the names `param_shapes` defines, which
is also the serialization order of the on-disk container.

A trained model is one file: a little-endian u64 header length, a JSON
header, then every array as little-endian float64 in `param_shapes` order,
so the config alone fixes the payload's layout.  The header holds the
format version, the encoder config, the pipeline record (how a feature row
becomes model input: kept features, scalers, decimals, schema, split) and a
sha256 over the header less that field (sorted-key JSON) followed by the
payload.  So an edit to the weights, the config or the record that leaves
the header parseable fails the checksum.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import parallel
from .artifacts import parse_json, write_bytes
from .errors import MalformedArtifact
from .textcodec import TokenSequence

FORMAT_VERSION = 2
INIT_STD = 0.02
MASK_BIAS = -1e9
CHUNK = 2**14          # values per elementwise chunk: 128 KB of float64
GROUP_SCORES = 2**16   # attention weights per group of examples: 512 KB
ROWS_PER_SHARD = 1024  # token rows a shard needs to pay for its thread


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    hidden_dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ff_dim: int = 256
    max_len: int = 512
    dropout_p: float = 0.1
    layernorm_epsilon: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "hidden_dim", "n_layers", "n_heads",
                     "ff_dim", "max_len", "seed"):
            value = getattr(self, name)
            # exactly int: a bool or a float such as 16.0 passes the range
            # checks below, then breaks slicing and the head split
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must cover the four special ids")
        if min(self.hidden_dim, self.n_layers, self.n_heads, self.ff_dim) < 1:
            raise ValueError(
                f"dimensions must be positive: hidden_dim {self.hidden_dim}, "
                f"n_layers {self.n_layers}, n_heads {self.n_heads}, "
                f"ff_dim {self.ff_dim}")
        if self.hidden_dim % self.n_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by "
                f"n_heads {self.n_heads}")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p must lie in [0, 1)")
        if self.max_len < 2:
            raise ValueError("max_len must admit [CLS] and [SEP]")
        if self.layernorm_epsilon <= 0.0:
            raise ValueError("layernorm_epsilon must be positive")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.n_heads


@dataclass(frozen=True)
class ForwardOutput:
    sbp_pred: np.ndarray
    dbp_pred: np.ndarray
    cache: dict | None


def param_shapes(config: EncoderConfig) -> dict:
    """Name -> shape for every parameter array, in serialization order."""
    h, ff = config.hidden_dim, config.ff_dim
    shapes = {
        "token_embedding": (config.vocab_size, h),
        "position_embedding": (config.max_len, h),
    }
    for i in range(config.n_layers):
        p = f"layer{i}."
        for mat in ("wq", "wk", "wv", "wo"):
            shapes[p + mat] = (h, h)
        for vec in ("bq", "bv", "bo"):
            shapes[p + vec] = (h,)
        shapes[p + "attn_gain"] = (h,)
        shapes[p + "attn_bias"] = (h,)
        shapes[p + "w1"] = (h, ff)
        shapes[p + "b1"] = (ff,)
        shapes[p + "w2"] = (ff, h)
        shapes[p + "b2"] = (h,)
        shapes[p + "ffn_gain"] = (h,)
        shapes[p + "ffn_bias"] = (h,)
    shapes["pooler_weight"] = (h, h)
    shapes["pooler_bias"] = (h,)
    shapes["sbp_weight"] = (h, 1)
    shapes["sbp_bias"] = (1,)
    shapes["dbp_weight"] = (h, 1)
    shapes["dbp_bias"] = (1,)
    return shapes


def _truncated_normal(rng, shape, std):
    # resample anything beyond two standard deviations
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while np.any(bad):
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def init_params(config: EncoderConfig) -> dict:
    """Seed-deterministic init: truncated normal weights, identity norms."""
    rng = np.random.default_rng(config.seed)
    params = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(("_gain",)):
            params[name] = np.ones(shape)
        elif name.endswith(("_bias", "b1", "b2", "bq", "bv", "bo")):
            params[name] = np.zeros(shape)
        else:
            params[name] = _truncated_normal(rng, shape, INIT_STD)
    return params


def zero_gradients(config: EncoderConfig) -> dict:
    return {name: np.zeros(shape)
            for name, shape in param_shapes(config).items()}


# --- forward pieces ---------------------------------------------------------

def _batch_arrays(config, sequences):
    if not sequences:
        raise ValueError("empty batch")
    t_max = max(s.true_length for s in sequences)
    if t_max > config.max_len:
        raise ValueError(
            f"sequence length {t_max} exceeds max_len {config.max_len}")
    # trimming to the longest real prefix is exact: trailing positions are
    # masked everywhere and nothing downstream of the mask reads them
    ids = np.stack([np.asarray(s.input_ids[:t_max]) for s in sequences])
    mask = np.stack([np.asarray(s.attention_mask[:t_max])
                     for s in sequences]).astype(np.float64)
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        raise ValueError(f"token ids must lie in [0, {config.vocab_size})")
    return ids, mask


def _split_heads(x, n_heads):
    b, t, h = x.shape
    return x.reshape(b, t, n_heads, h // n_heads).transpose(0, 2, 1, 3)


def _layer_norm(x, gain, bias, eps, out=(None,) * 4):
    """(y, xhat, inv, live) of a layernorm along the last axis, each into
    its entry of `out` when that is an array."""
    # epsilon floors the denominator instead of padding the variance, so on
    # any non-degenerate input the normalized vector has variance exactly 1.
    # The variance is x.var's own arithmetic: the centred values squared,
    # summed along the row, divided by the row length.
    y, xhat, inv, live = out
    mu = x.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x, mu, out=xhat)
    y = np.square(xhat, out=y)      # the squares, then the output
    sd = np.sqrt(np.add.reduce(y, axis=-1, keepdims=True) / x.shape[-1])
    inv = np.divide(1.0, np.maximum(sd, eps), out=inv)
    xhat *= inv
    np.multiply(xhat, gain, out=y)
    y += bias
    return y, xhat, inv, np.greater_equal(sd, eps, out=live)


def _layer_norm_backward(d_out, xhat, inv, live, gain, out=(None,) * 2):
    """(d_x, d_out * xhat) of `_layer_norm`, each into its entry of `out`
    when that is an array; row by row, so the gain and bias gradients are
    left to `_layer_norm_sums` over the whole batch."""
    d_x, prod = out
    prod = np.multiply(d_out, xhat, out=prod)
    d_x = np.multiply(d_out, gain, out=d_x)   # d_xhat, then d_x in place
    m1 = d_x.mean(axis=-1, keepdims=True)
    scratch = np.multiply(d_x, xhat)
    m2 = scratch.mean(axis=-1, keepdims=True)
    # on the floored branch the denominator is a constant, so the variance
    # term of the jacobian vanishes
    np.multiply(xhat, m2, out=scratch)
    scratch *= live
    d_x -= m1
    d_x -= scratch
    d_x *= inv
    return d_x, prod


def _layer_norm_sums(d_out, prod):
    """d loss / d gain and d loss / d bias of a layernorm: its d_out * xhat
    and its d_out, each summed over every row."""
    rows = tuple(range(d_out.ndim - 1))
    return np.sum(prod, axis=rows), np.sum(d_out, axis=rows)


_GELU_C = np.sqrt(2.0 / np.pi)


def _chunks(n):
    """Slices of at most CHUNK values covering range(n)."""
    return (slice(s, min(s + CHUNK, n)) for s in range(0, n, CHUNK))


def _gelu(u, out=(None,) * 2):
    """(gelu(u), the tanh term its backward reads), each into its entry of
    `out` when that is a contiguous array."""
    # tanh form: 0.5 * u * (1 + tanh(sqrt(2/pi) * (u + 0.044715 u^3))); the
    # cube is two multiplies because numpy's pow costs ~40x as much here
    flat = u.reshape(-1)
    g, t = (np.empty_like(flat) if z is None else z.reshape(-1) for z in out)
    scratch = np.empty(min(CHUNK, flat.size))
    for c in _chunks(flat.size):
        uc, tc, gc, sc = flat[c], t[c], g[c], scratch[:c.stop - c.start]
        np.multiply(uc, uc, out=tc)
        tc *= uc
        tc *= 0.044715
        tc += uc
        tc *= _GELU_C
        np.tanh(tc, out=tc)
        np.multiply(uc, 0.5, out=gc)
        np.add(tc, 1.0, out=sc)
        gc *= sc
    return g.reshape(u.shape), t.reshape(u.shape)


def _gelu_backward(d_out, u, t, out=None):
    """d loss / d u of `_gelu`, into `out` when that is a contiguous
    array."""
    # d_out * (0.5 (1 + t) + 0.5 u (1 - t^2) sqrt(2/pi) (1 + 3 0.044715 u^2))
    flat_d, flat_u, flat_t = d_out.reshape(-1), u.reshape(-1), t.reshape(-1)
    d_u = np.empty_like(flat_u) if out is None else out.reshape(-1)
    inner = np.empty(min(CHUNK, flat_u.size))
    term = np.empty_like(inner)
    for c in _chunks(flat_u.size):
        uc, tc, oc = flat_u[c], flat_t[c], d_u[c]
        ic, sc = inner[:c.stop - c.start], term[:c.stop - c.start]
        np.multiply(uc, uc, out=ic)
        ic *= 3.0 * 0.044715
        ic += 1.0
        ic *= _GELU_C
        np.multiply(tc, tc, out=oc)
        np.subtract(1.0, oc, out=oc)
        np.multiply(uc, 0.5, out=sc)
        sc *= oc
        sc *= ic
        np.add(tc, 1.0, out=oc)
        oc *= 0.5
        oc += sc
        oc *= flat_d[c]
    return d_u.reshape(u.shape)


def _softmax_rows(scores):
    """Softmax along the last axis, in place: `scores` becomes the
    weights, and is returned."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _groups(b, per_example):
    """Slices of consecutive examples holding at most GROUP_SCORES values
    of `per_example` each, one example at least."""
    step = max(1, GROUP_SCORES // per_example)
    return [slice(s, min(s + step, b)) for s in range(0, b, step)]


def _dense(src, params, weight, bias=None, out=None):
    """`src @ params[weight] + params[bias]`, the bias added in place, into
    `out` when that is an array."""
    out = np.matmul(src, params[weight], out=out)
    if bias:
        out += params[bias]
    return out


def _attention(q, k, v, key_bias, scale, out=(None,) * 2):
    """Masked attention of (b, a, tq, dh) queries over (b, a, t, dh) keys
    and values, a group of examples at a time.  Returns the context in
    merged (b, tq, h) layout, into `out[0]` when that is an array; the
    (b, a, tq, t) weights are kept in `out[1]` when that is an array, and
    live in one group-sized buffer otherwise."""
    b, a, tq, dh = q.shape
    t = k.shape[2]
    groups = _groups(b, a * tq * t)
    ctx, attn = out
    keep = attn is not None
    if not keep:
        attn = np.empty((groups[0].stop, a, tq, t))
    if ctx is None:
        ctx = np.empty((b, tq, a * dh))
    ctx_h = _split_heads(ctx, a)
    k_t = k.transpose(0, 1, 3, 2)
    for g in groups:
        w = attn[g] if keep else attn[:g.stop - g.start]
        np.matmul(q[g], k_t[g], out=w)
        w *= scale
        w += key_bias[g]
        _softmax_rows(w)
        np.matmul(w, v[g], out=ctx_h[g])
    return ctx


def _attention_backward(d_ctx, c, scale, out):
    """Gradients of `_attention` for the queries, keys and values, into the
    three (b, rows, h) arrays of `out`, from d loss / d context and a
    block's cache; a group of examples at a time."""
    q, k, v, attn = c["q"], c["k"], c["v"], c["attn"]
    b, a, tq, t = attn.shape
    d_ctx_h = _split_heads(d_ctx, a)
    d_q, d_k, d_v = out
    d_qh, d_kh, d_vh = (_split_heads(z, a) for z in (d_q, d_k, d_v))
    groups = _groups(b, a * tq * t)
    d_scores = np.empty((groups[0].stop, a, tq, t))
    product = np.empty_like(d_scores)
    v_t, attn_t = v.transpose(0, 1, 3, 2), attn.transpose(0, 1, 3, 2)
    for g in groups:
        ds, pr, w = (d_scores[:g.stop - g.start], product[:g.stop - g.start],
                     attn[g])
        np.matmul(d_ctx_h[g], v_t[g], out=ds)
        np.matmul(attn_t[g], d_ctx_h[g], out=d_vh[g])
        # softmax jacobian; rows with zero weight contribute zero, so the
        # additive mask constant never leaks gradient
        np.multiply(ds, w, out=pr)
        ds -= pr.sum(axis=-1, keepdims=True)
        ds *= w
        np.matmul(ds, k[g], out=d_qh[g])
        d_qh[g] *= scale
        np.matmul(ds.transpose(0, 1, 3, 2), q[g], out=d_kh[g])
        d_kh[g] *= scale


def _shards(b, t):
    """Contiguous slices of a batch's b examples of t tokens, one per
    worker: as many as there are usable CPUs, examples and shares of
    ROWS_PER_SHARD token rows, one at least."""
    workers = max(1, min(parallel.usable_cpus(), b, b * t // ROWS_PER_SHARD))
    return [slice(b * k // workers, b * (k + 1) // workers)
            for k in range(workers)]


def _buffer(workspace, key, shape, dtype=np.float64):
    """An empty C-contiguous array of `shape`: a fresh one without a
    workspace, else a view of the workspace's buffer under `key`, which
    grows to the largest shape asked of it and is then reused."""
    if workspace is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    flat = workspace.get(key)
    if flat is None or flat.size < size:
        flat = workspace[key] = np.empty(size, dtype)
    return flat[:size].reshape(shape)


def _block_arrays(config, b, t, tq, train, workspace, p):
    """Empty full-batch arrays for block `p`'s output rows ("y2") and, in
    train mode, the activations its backward reads; q, k and v in merged
    (b, rows, h) layout.  The shards fill them at their examples."""
    h, ff, a = config.hidden_dim, config.ff_dim, config.n_heads
    shapes = {"y2": (b, tq, h)}
    if train:
        shapes.update(q=(b, tq, h), k=(b, t, h), v=(b, t, h),
                      attn=(b, a, tq, t), ctx=(b, tq, h), ln1_xhat=(b, tq, h),
                      ln1_inv=(b, tq, 1), y1=(b, tq, h), h1=(b, tq, ff),
                      gelu_t=(b, tq, ff), g=(b, tq, ff), ln2_xhat=(b, tq, h),
                      ln2_inv=(b, tq, 1))
    c = {name: _buffer(workspace, p + name, shape)
         for name, shape in shapes.items()}
    if train:
        for name in ("ln1_live", "ln2_live"):
            c[name] = _buffer(workspace, p + name, (b, tq, 1), bool)
    return c


def _block_rows(config, params, p, scale, key_bias, c):
    """Block `p`'s forward on one shard, `c` its `_block_arrays` and its
    input "x_in" at the shard's examples: each array there is filled, and
    each activation without one is let go."""
    x, y2 = c["x_in"], c["y2"]
    # the query rows: all of them, except in the last block, whose only
    # reader is the pooler at position 0
    xq = x[:, :y2.shape[1]]
    q = _split_heads(_dense(xq, params, p + "wq", p + "bq", c.get("q")),
                     config.n_heads)
    # no key bias: the softmax cancels the q . b_k it would add
    k = _split_heads(_dense(x, params, p + "wk", out=c.get("k")),
                     config.n_heads)
    v = _split_heads(_dense(x, params, p + "wv", p + "bv", c.get("v")),
                     config.n_heads)
    ctx = _attention(q, k, v, key_bias, scale, (c.get("ctx"), c.get("attn")))
    res1 = _dense(ctx, params, p + "wo", p + "bo")
    res1 += xq
    y1 = _layer_norm(res1, params[p + "attn_gain"], params[p + "attn_bias"],
                     config.layernorm_epsilon,
                     (c.get("y1"), c.get("ln1_xhat"), c.get("ln1_inv"),
                      c.get("ln1_live")))[0]
    g = _gelu(_dense(y1, params, p + "w1", p + "b1", c.get("h1")),
              (c.get("g"), c.get("gelu_t")))[0]
    res2 = _dense(g, params, p + "w2", p + "b2")
    res2 += y1
    _layer_norm(res2, params[p + "ffn_gain"], params[p + "ffn_bias"],
                config.layernorm_epsilon,
                (y2, c.get("ln2_xhat"), c.get("ln2_inv"), c.get("ln2_live")))


def forward(config: EncoderConfig, params: dict,
            sequences: Sequence[TokenSequence], mode: str = "eval",
            dropout_seed=0, workspace: dict | None = None) -> ForwardOutput:
    """Run the encoder on a batch; train mode retains the backward cache,
    eval mode lets each block's activations go once the next has read
    them.  Each block runs on shards of the batch's examples.

    A `workspace`, a dict the caller keeps from one training step to the
    next, holds the train-mode cache's arrays and `backward`'s: each call
    writes over the previous one's, in memory that stays paged in."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    ids, mask = _batch_arrays(config, sequences)
    b, t = ids.shape
    scale = 1.0 / np.sqrt(config.head_dim)
    train = mode == "train"
    shards = _shards(b, t)

    x = params["token_embedding"][ids]
    x += params["position_embedding"][:t]
    # keys at masked positions get a -1e9 logit, which underflows to an
    # exactly zero attention weight after the softmax
    key_bias = (1.0 - mask)[:, None, None, :] * MASK_BIAS

    layers = []
    for i in range(config.n_layers):
        p = f"layer{i}."
        tq = 1 if i == config.n_layers - 1 else t
        c = _block_arrays(config, b, t, tq, train, workspace, p)
        c["x_in"] = x
        parallel.ordered_map(
            lambda s: _block_rows(config, params, p, scale, key_bias[s],
                                  {name: a[s] for name, a in c.items()}),
            shards)
        x = c.pop("y2")
        if train:
            c["xq"] = c["x_in"][:, :tq]
            for name in ("q", "k", "v"):
                c[name] = _split_heads(c[name], config.n_heads)
            layers.append(c)

    # the pooler's product stays whole: on a one-example shard it would be
    # a matrix-vector call, whose bits differ from the matrix product's
    pooled = _dense(x[:, 0, :], params, "pooler_weight", "pooler_bias")
    np.tanh(pooled, out=pooled)
    dropped, cache = pooled, None
    if train:
        rng = np.random.default_rng(dropout_seed)
        keep = rng.random(size=pooled.shape) >= config.dropout_p
        drop_scale = keep / (1.0 - config.dropout_p)   # inverted scaling
        dropped = pooled * drop_scale
        cache = {"ids": ids, "mask": mask, "layers": layers,
                 "state0": x[:, 0, :], "pooled": pooled,
                 "drop_scale": drop_scale, "dropped": dropped}
    sbp = _dense(dropped, params, "sbp_weight", "sbp_bias")
    dbp = _dense(dropped, params, "dbp_weight", "dbp_bias")
    return ForwardOutput(sbp_pred=sbp, dbp_pred=dbp, cache=cache)


def _row_gradients(c, d_y2, workspace, p):
    """Empty full-batch arrays for what the reductions over rows read of a
    block's reverse sweep, `c` its cache: d loss / d each dense layer's
    output, each layernorm's d_out * xhat ("ln1", "ln2") and d loss / d the
    block input ("d_x"); "d_y2", d loss / d its output, is whole already.
    Their keys in the workspace are block `p`'s, behind "d."."""
    b, tq, h = c["ctx"].shape
    t, ff = c["x_in"].shape[1], c["h1"].shape[2]
    shapes = {"ln2": (b, tq, h), "d_res2": (b, tq, h), "d_h1": (b, tq, ff),
              "d_y1": (b, tq, h), "ln1": (b, tq, h), "d_res1": (b, tq, h),
              "d_q": (b, tq, h), "d_k": (b, t, h), "d_v": (b, t, h),
              "d_x": (b, t, h)}
    r = {name: _buffer(workspace, "d." + p + name, shape)
         for name, shape in shapes.items()}
    r["d_y2"] = d_y2
    return r


def _block_backward_rows(params, p, scale, c, r):
    """The row-local part of block `p`'s reverse sweep on one shard, with
    `c` and `r` its cache and `_row_gradients` at the shard's examples:
    layernorm's per-row part, every d_out @ W.T, GELU's and attention's
    backward."""
    d_res2 = _layer_norm_backward(
        r["d_y2"], c["ln2_xhat"], c["ln2_inv"], c["ln2_live"],
        params[p + "ffn_gain"], (r["d_res2"], r["ln2"]))[0]
    d_g = d_res2 @ params[p + "w2"].T
    d_h1 = _gelu_backward(d_g, c["h1"], c["gelu_t"], r["d_h1"])
    d_y1 = np.matmul(d_h1, params[p + "w1"].T, out=r["d_y1"])
    d_y1 += d_res2
    d_res1 = _layer_norm_backward(
        d_y1, c["ln1_xhat"], c["ln1_inv"], c["ln1_live"],
        params[p + "attn_gain"], (r["d_res1"], r["ln1"]))[0]
    d_ctx = d_res1 @ params[p + "wo"].T
    _attention_backward(d_ctx, c, scale, (r["d_q"], r["d_k"], r["d_v"]))

    # the residual and Q paths reach the query rows, K and V every row
    d_x = r["d_x"]
    d_x.fill(0.0)
    d_xq = d_x[:, :d_res1.shape[1]]
    d_xq += d_res1
    d_xq += r["d_q"] @ params[p + "wq"].T
    d_x += r["d_k"] @ params[p + "wk"].T
    d_x += r["d_v"] @ params[p + "wv"].T


def backward(config: EncoderConfig, params: dict, output: ForwardOutput,
             grad_sbp: np.ndarray, grad_dbp: np.ndarray,
             workspace: dict | None = None) -> dict:
    """Exact reverse sweep; upstream grads are d loss / d head outputs;
    `workspace` as for `forward`.

    Each block's row-local part runs on shards of the batch's examples;
    after it, every sum over rows runs here, as one operation over the
    whole batch."""
    cache = output.cache
    if cache is None:
        raise ValueError("backward needs a train-mode forward cache")
    grad_sbp = np.asarray(grad_sbp, dtype=np.float64).reshape(-1, 1)
    grad_dbp = np.asarray(grad_dbp, dtype=np.float64).reshape(-1, 1)
    grads = zero_gradients(config)
    scale = 1.0 / np.sqrt(config.head_dim)

    d_dropped = _dense_backward(grad_sbp, cache["dropped"], params, grads,
                                "sbp_weight", "sbp_bias")
    d_dropped += _dense_backward(grad_dbp, cache["dropped"], params, grads,
                                 "dbp_weight", "dbp_bias")
    d_pooled = d_dropped * cache["drop_scale"]
    d_pooled_pre = d_pooled * (1.0 - cache["pooled"] ** 2)
    # d loss / d the last block's output, which has the query row alone
    d_x = _dense_backward(d_pooled_pre, cache["state0"], params, grads,
                          "pooler_weight", "pooler_bias")[:, None, :]

    b, t = cache["ids"].shape
    shards = _shards(b, t)
    for i in reversed(range(config.n_layers)):
        p = f"layer{i}."
        c = cache["layers"][i]
        r = _row_gradients(c, d_x, workspace, p)
        parallel.ordered_map(
            lambda s: _block_backward_rows(
                params, p, scale, {name: a[s] for name, a in c.items()},
                {name: a[s] for name, a in r.items()}),
            shards)

        grads[p + "ffn_gain"], grads[p + "ffn_bias"] = _layer_norm_sums(
            r["d_y2"], r["ln2"])
        _weight_gradients(grads, r["d_res2"], c["g"], p + "w2", p + "b2")
        _weight_gradients(grads, r["d_h1"], c["y1"], p + "w1", p + "b1")
        grads[p + "attn_gain"], grads[p + "attn_bias"] = _layer_norm_sums(
            r["d_y1"], r["ln1"])
        _weight_gradients(grads, r["d_res1"], c["ctx"], p + "wo", p + "bo")
        _weight_gradients(grads, r["d_q"], c["xq"], p + "wq", p + "bq")
        _weight_gradients(grads, r["d_k"], c["x_in"], p + "wk")
        _weight_gradients(grads, r["d_v"], c["x_in"], p + "wv", p + "bv")
        d_x = r["d_x"]

    grads["token_embedding"] = _embedding_backward(
        cache["ids"].ravel(), d_x.reshape(-1, config.hidden_dim),
        config.vocab_size)
    grads["position_embedding"][:t] = d_x.sum(axis=0)
    return grads


def _embedding_backward(ids, rows, vocab_size):
    """d loss / d token table: each id's rows summed in their order from
    +0.0, as np.add.at into a zero table sums them, by a stable sort on id
    and one reduce per id.  numpy reduces rows of two or more values one
    row after another; a single column it would sum pairwise."""
    grad = np.zeros((vocab_size, rows.shape[1]))
    order = np.argsort(ids, kind="stable")
    rows = rows[order]
    tokens, starts = np.unique(ids[order], return_index=True)
    for token, start, stop in zip(tokens, starts,
                                  np.append(starts[1:], len(ids))):
        grad[token] = np.add.reduce(rows[start:stop], axis=0, initial=0.0)
    return grad


def _weight_gradients(grads, d_out, src, weight, bias=None):
    """The gradients of the dense layer `src @ params[weight] +
    params[bias]` into `grads`, from d loss / d its output: the weight's as
    one product over every row, the bias's as one sum."""
    grads[weight] = (src.reshape(-1, src.shape[-1]).T
                     @ d_out.reshape(-1, d_out.shape[-1]))
    if bias:
        grads[bias] = d_out.sum(axis=tuple(range(d_out.ndim - 1)))


def _dense_backward(d_out, src, params, grads, weight, bias=None):
    """Backward of a dense layer run whole: fills its gradients in
    `grads` and returns d loss / d src."""
    _weight_gradients(grads, d_out, src, weight, bias)
    return d_out @ params[weight].T


# --- persistence ------------------------------------------------------------

def _digest(header: dict, payload: bytes) -> str:
    signed = {k: v for k, v in header.items() if k != "sha256"}
    return hashlib.sha256(json.dumps(signed, sort_keys=True).encode("utf-8")
                          + payload).hexdigest()


def save_params(path, config: EncoderConfig, params: dict,
                pipeline: dict) -> None:
    """The whole trained model as one file, written once."""
    payload = b"".join(np.ascontiguousarray(params[name], dtype="<f8")
                       .tobytes() for name in param_shapes(config))
    header = {"format_version": FORMAT_VERSION, "config": asdict(config),
              "pipeline": pipeline}
    header["sha256"] = _digest(header, payload)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    write_bytes(path, struct.pack("<Q", len(blob)) + blob + payload)


def load_params(path):
    """Read a model file back into (config, params, pipeline); verifies the
    payload length against the declared config, header and payload by
    checksum."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise MalformedArtifact(
            f"{path}: file shorter than its own header length")
    (header_len,) = struct.unpack_from("<Q", raw, 0)
    if len(raw) < 8 + header_len:
        raise MalformedArtifact(f"{path}: truncated header")
    header = parse_json(raw[8:8 + header_len], f"{path} header", {})
    if header.get("format_version") != FORMAT_VERSION:
        raise MalformedArtifact(
            f"{path}: container version {header.get('format_version')!r}, "
            f"expected {FORMAT_VERSION}")

    try:
        config = EncoderConfig(**header["config"])
        digest, pipeline = header["sha256"], header["pipeline"]
    except (KeyError, TypeError, ValueError) as err:
        raise MalformedArtifact(
            f"{path}: header does not describe a model "
            f"({type(err).__name__}: {err})") from None
    shapes = param_shapes(config)
    payload = raw[8 + header_len:]
    if len(payload) != 8 * sum(math.prod(s) for s in shapes.values()):
        raise MalformedArtifact(
            f"{path}: payload length does not match header")
    if _digest(header, payload) != digest:
        raise MalformedArtifact(f"{path}: checksum mismatch")

    flat = np.frombuffer(payload, dtype="<f8")
    params, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        params[name] = flat[offset:offset + size].reshape(shape).astype(
            np.float64)
        offset += size
    return config, params, pipeline
