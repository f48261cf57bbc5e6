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

Every dense layer is one product over all of a batch's rows with its bias
added in place, and goes back through one rule whose weight gradient is
again one product over all rows.  The element-wise work runs in place on
cache-sized pieces: GELU and its backward over flat chunks of CHUNK values,
attention (scores, mask, softmax and its jacobian, the products with the
values) a group of examples at a time into preallocated outputs.  Each
element still goes through the same operations in the same order as with
one numpy expression per step, so the trained bytes do not depend on the
chunk or the group size.

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

from .artifacts import parse_json, write_bytes
from .errors import MalformedArtifact
from .textcodec import TokenSequence

FORMAT_VERSION = 2
INIT_STD = 0.02
MASK_BIAS = -1e9
CHUNK = 2**14          # values per elementwise chunk: 128 KB of float64
GROUP_SCORES = 2**16   # attention weights per group of examples: 512 KB


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


def _layer_norm(x, gain, bias, eps):
    # epsilon floors the denominator instead of padding the variance, so on
    # any non-degenerate input the normalized vector has variance exactly 1.
    # The variance is x.var's own arithmetic: the centred values squared,
    # summed along the row, divided by the row length.
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    y = np.square(xhat)             # the squares, then the output
    sd = np.sqrt(np.add.reduce(y, axis=-1, keepdims=True) / x.shape[-1])
    inv = 1.0 / np.maximum(sd, eps)
    xhat *= inv
    np.multiply(xhat, gain, out=y)
    y += bias
    return y, xhat, inv, sd >= eps


def _layer_norm_backward(d_out, xhat, inv, live, gain):
    rows = tuple(range(d_out.ndim - 1))
    scratch = np.multiply(d_out, xhat)
    d_gain = np.sum(scratch, axis=rows)
    d_bias = np.sum(d_out, axis=rows)
    d_x = np.multiply(d_out, gain)  # d_xhat, then d_x in place
    m1 = d_x.mean(axis=-1, keepdims=True)
    np.multiply(d_x, xhat, out=scratch)
    m2 = scratch.mean(axis=-1, keepdims=True)
    # on the floored branch the denominator is a constant, so the variance
    # term of the jacobian vanishes
    np.multiply(xhat, m2, out=scratch)
    scratch *= live
    d_x -= m1
    d_x -= scratch
    d_x *= inv
    return d_x, d_gain, d_bias


_GELU_C = np.sqrt(2.0 / np.pi)


def _chunks(n):
    """Slices of at most CHUNK values covering range(n)."""
    return (slice(s, min(s + CHUNK, n)) for s in range(0, n, CHUNK))


def _gelu(u):
    # tanh form: 0.5 * u * (1 + tanh(sqrt(2/pi) * (u + 0.044715 u^3))); the
    # cube is two multiplies because numpy's pow costs ~40x as much here
    flat = u.reshape(-1)
    g, t = np.empty_like(flat), np.empty_like(flat)
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


def _gelu_backward(d_out, u, t):
    # d_out * (0.5 (1 + t) + 0.5 u (1 - t^2) sqrt(2/pi) (1 + 3 0.044715 u^2))
    flat_d, flat_u, flat_t = d_out.reshape(-1), u.reshape(-1), t.reshape(-1)
    d_u = np.empty_like(flat_u)
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


def _dense(src, params, weight, bias=None):
    """`src @ params[weight] + params[bias]`, the bias added in place."""
    out = src @ params[weight]
    if bias:
        out += params[bias]
    return out


def _attention(q, k, v, key_bias, scale, keep):
    """Masked attention of (b, a, tq, dh) queries over (b, a, t, dh) keys
    and values, a group of examples at a time.  Returns the context in
    merged (b, tq, h) layout and, when `keep`, the (b, a, tq, t) weights;
    without it the weights live in one group-sized buffer."""
    b, a, tq, dh = q.shape
    t = k.shape[2]
    groups = _groups(b, a * tq * t)
    attn = np.empty((b if keep else groups[0].stop, a, tq, t))
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
    return ctx, attn if keep else None


def _attention_backward(d_ctx, c, scale):
    """Gradients of `_attention` for the queries, keys and values, each in
    merged (b, rows, h) layout, from d loss / d context and a block's
    cache; a group of examples at a time."""
    q, k, v, attn = c["q"], c["k"], c["v"], c["attn"]
    b, a, tq, t = attn.shape
    h = d_ctx.shape[-1]
    d_ctx_h = _split_heads(d_ctx, a)
    d_q = np.empty((b, tq, h))
    d_k, d_v = np.empty((b, t, h)), np.empty((b, t, h))
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
    return d_q, d_k, d_v


def forward(config: EncoderConfig, params: dict,
            sequences: Sequence[TokenSequence], mode: str = "eval",
            dropout_seed=0) -> ForwardOutput:
    """Run the encoder on a batch; train mode retains the backward cache,
    eval mode lets each block's activations go once the next has read
    them."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    ids, mask = _batch_arrays(config, sequences)
    b, t = ids.shape
    scale = 1.0 / np.sqrt(config.head_dim)
    train = mode == "train"

    x = params["token_embedding"][ids]
    x += params["position_embedding"][:t]
    # keys at masked positions get a -1e9 logit, which underflows to an
    # exactly zero attention weight after the softmax
    key_bias = (1.0 - mask)[:, None, None, :] * MASK_BIAS

    layers = []
    for i in range(config.n_layers):
        p = f"layer{i}."
        # the query rows: all of them, except in the last block, whose only
        # reader is the pooler at position 0
        xq = x[:, :1] if i == config.n_layers - 1 else x
        q = _split_heads(_dense(xq, params, p + "wq", p + "bq"),
                         config.n_heads)
        # no key bias: the softmax cancels the q . b_k it would add
        k = _split_heads(_dense(x, params, p + "wk"), config.n_heads)
        v = _split_heads(_dense(x, params, p + "wv", p + "bv"),
                         config.n_heads)
        ctx, attn = _attention(q, k, v, key_bias, scale, keep=train)
        res1 = _dense(ctx, params, p + "wo", p + "bo")
        res1 += xq
        y1, ln1_xhat, ln1_inv, ln1_live = _layer_norm(
            res1, params[p + "attn_gain"], params[p + "attn_bias"],
            config.layernorm_epsilon)
        h1 = _dense(y1, params, p + "w1", p + "b1")
        g, gelu_t = _gelu(h1)
        res2 = _dense(g, params, p + "w2", p + "b2")
        res2 += y1
        y2, ln2_xhat, ln2_inv, ln2_live = _layer_norm(
            res2, params[p + "ffn_gain"], params[p + "ffn_bias"],
            config.layernorm_epsilon)
        if train:
            layers.append({"x_in": x, "xq": xq, "q": q, "k": k, "v": v,
                           "attn": attn, "ctx": ctx, "ln1_xhat": ln1_xhat,
                           "ln1_inv": ln1_inv, "ln1_live": ln1_live,
                           "y1": y1, "h1": h1, "gelu_t": gelu_t, "g": g,
                           "ln2_xhat": ln2_xhat, "ln2_inv": ln2_inv,
                           "ln2_live": ln2_live})
        x = y2

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


def backward(config: EncoderConfig, params: dict, output: ForwardOutput,
             grad_sbp: np.ndarray, grad_dbp: np.ndarray) -> dict:
    """Exact reverse sweep; upstream grads are d loss / d head outputs."""
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

    # d loss / d block output at the query rows; the last block has one
    d_x = _dense_backward(d_pooled_pre, cache["state0"], params, grads,
                          "pooler_weight", "pooler_bias")[:, None, :]

    for i in reversed(range(config.n_layers)):
        p = f"layer{i}."
        c = cache["layers"][i]

        d_res2, grads[p + "ffn_gain"], grads[p + "ffn_bias"] = \
            _layer_norm_backward(d_x, c["ln2_xhat"], c["ln2_inv"],
                                 c["ln2_live"], params[p + "ffn_gain"])
        d_g = _dense_backward(d_res2, c["g"], params, grads, p + "w2", p + "b2")
        d_h1 = _gelu_backward(d_g, c["h1"], c["gelu_t"])
        d_y1 = _dense_backward(d_h1, c["y1"], params, grads, p + "w1",
                               p + "b1")
        d_y1 += d_res2

        d_res1, grads[p + "attn_gain"], grads[p + "attn_bias"] = \
            _layer_norm_backward(d_y1, c["ln1_xhat"], c["ln1_inv"],
                                 c["ln1_live"], params[p + "attn_gain"])
        d_ctx = _dense_backward(d_res1, c["ctx"], params, grads,
                                p + "wo", p + "bo")
        d_q, d_k, d_v = _attention_backward(d_ctx, c, scale)

        # the residual and Q paths reach the query rows, K and V every row
        x_in, xq = c["x_in"], c["xq"]
        d_x = np.zeros_like(x_in)
        d_xq = d_x[:, :xq.shape[1]]
        d_xq += d_res1
        for mat, vec, dh, src, dst in (("wq", "bq", d_q, xq, d_xq),
                                       ("wk", None, d_k, x_in, d_x),
                                       ("wv", "bv", d_v, x_in, d_x)):
            dst += _dense_backward(dh, src, params, grads,
                                   p + mat, vec and p + vec)

    grads["token_embedding"] = _embedding_backward(
        cache["ids"].ravel(), d_x.reshape(-1, config.hidden_dim),
        config.vocab_size)
    grads["position_embedding"][:d_x.shape[1]] = d_x.sum(axis=0)
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


def _dense_backward(d_out, src, params, grads, weight, bias=None):
    """Backward of the dense layer `src @ params[weight] + params[bias]`:
    fills its gradients in `grads`, the weight's as one product over every
    row, and returns d loss / d src."""
    grads[weight] = (src.reshape(-1, src.shape[-1]).T
                     @ d_out.reshape(-1, d_out.shape[-1]))
    if bias:
        grads[bias] = d_out.sum(axis=tuple(range(d_out.ndim - 1)))
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
