"""Independent reference implementations that pin expected test values.

Everything in this file is written in the most literal style available:
explicit sums, explicit loops, plain Python floats where speed allows.  The
oracles were authored against the written contracts before the corresponding
package implementations existed and must never import from speechbp, so the
two routes stay independent.
"""

import cmath
import math


# === discrete Fourier transforms, O(N^2) on purpose ===

def dft_loop(x):
    """Textbook DFT by double loop.  Only usable for small N."""
    n = len(x)
    out = []
    for k in range(n):
        acc = complex(0.0, 0.0)
        for i in range(n):
            acc += x[i] * cmath.exp(-2j * cmath.pi * k * i / n)
        out.append(acc)
    return out


def dft_matrix(x):
    """O(N^2) DFT through an explicit exponent table.

    numpy is used only to make the N^2 products affordable at N=4096; there
    is no divide-and-conquer step and no factoring of N anywhere, so this
    stays independent of the FFT under test.
    """
    import numpy as np

    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    table = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return table @ x


# === the vowel synthesizer, one sine per harmonic ===

def synthesize_speech_loop(f0, formants, duration_s, sample_rate=48000,
                           seed=0):
    """The samples of speechbp.audio_io.synthesize_speech, harmonic by
    harmonic: one np.sin over every sample for each of up to 60 harmonics,
    with the phases drawn one scalar at a time.  The argument checks are
    left out."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    formants = [(float(c), float(g)) for c, g in formants]

    bandwidth_hz = 90.0
    y = np.zeros(n)
    n_harmonics = min(int((sample_rate / 2) / f0), 60)
    for k in range(1, n_harmonics + 1):
        f = k * f0
        resonance = sum(g * np.exp(-0.5 * ((f - c) / bandwidth_hz) ** 2)
                        for c, g in formants)
        amplitude = (0.02 + resonance) / k ** 0.5
        phase = rng.uniform(0.0, 2.0 * np.pi)
        y += amplitude * np.sin(2.0 * np.pi * f * t + phase)

    am_rate = rng.uniform(2.0, 4.0)
    am_phase = rng.uniform(0.0, 2.0 * np.pi)
    am_depth = rng.uniform(0.15, 0.25)
    y *= 1.0 + am_depth * np.sin(2.0 * np.pi * am_rate * t + am_phase)

    ramp = min(int(round(0.060 * sample_rate)), n // 4)
    if ramp > 0:
        fade = 0.5 * (1.0 - np.cos(np.pi * np.arange(ramp) / ramp))
        y[:ramp] *= fade
        y[-ramp:] *= fade[::-1]

    peak = np.max(np.abs(y))
    if peak > 0:
        y /= peak
    y += 0.004 * rng.standard_normal(n)
    y /= np.max(np.abs(y))
    return y


# === MFCC, every stage spelled out ===

def mel_from_hz(f):
    return 2595.0 * math.log10(1.0 + f / 700.0)


def hz_from_mel(m):
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def mfcc_oracle(frame, sample_rate, n_filters=26, sigma=0.4, preemphasis=0.97,
                log_floor=1e-10, n_coefs=12):
    """Straight-line MFCC pipeline: pre-emphasis, Gaussian window, zero-padded
    DFT magnitudes, triangular mel filters, floored natural log, orthonormal
    DCT-II, coefficients 1..n_coefs."""
    n = len(frame)
    y = [float(frame[0])]
    for i in range(1, n):
        y.append(float(frame[i]) - preemphasis * float(frame[i - 1]))

    half = (n - 1) / 2.0
    for i in range(n):
        y[i] *= math.exp(-0.5 * ((i - half) / (sigma * half)) ** 2)

    nfft = 1
    while nfft < n:
        nfft *= 2
    padded = y + [0.0] * (nfft - n)
    spectrum = dft_matrix(padded)
    mags = [abs(spectrum[k]) for k in range(nfft // 2 + 1)]
    bin_hz = sample_rate / nfft

    lo = mel_from_hz(0.0)
    hi = mel_from_hz(sample_rate / 2.0)
    edges = [hz_from_mel(lo + (hi - lo) * j / (n_filters + 1))
             for j in range(n_filters + 2)]

    energies = []
    for m in range(1, n_filters + 1):
        left, center, right = edges[m - 1], edges[m], edges[m + 1]
        acc = 0.0
        for k in range(len(mags)):
            f = k * bin_hz
            if left < f < right:
                if f <= center:
                    resp = (f - left) / (center - left)
                else:
                    resp = (right - f) / (right - center)
                acc += resp * mags[k]
        energies.append(acc)

    log_e = [math.log(max(e, log_floor)) for e in energies]

    coefs = []
    scale = math.sqrt(2.0 / n_filters)
    for j in range(1, n_coefs + 1):
        s = 0.0
        for m in range(n_filters):
            s += log_e[m] * math.cos(math.pi * j * (2 * m + 1) / (2 * n_filters))
        coefs.append(scale * s)
    return coefs


# === moment features ===

def skewness_oracle(xs):
    xs = [float(v) for v in xs]
    n = len(xs)
    mean = math.fsum(xs) / n
    m2 = math.fsum((v - mean) ** 2 for v in xs) / n
    m3 = math.fsum((v - mean) ** 3 for v in xs) / n
    return m3 / m2 ** 1.5


def kurtosis_oracle(xs):
    xs = [float(v) for v in xs]
    n = len(xs)
    mean = math.fsum(xs) / n
    m2 = math.fsum((v - mean) ** 2 for v in xs) / n
    m4 = math.fsum((v - mean) ** 4 for v in xs) / n
    return m4 / m2 ** 2 - 3.0


def trapezoid_abs_oracle(xs, sample_rate):
    """Rectified trapezoid rule, summed term by term."""
    dt = 1.0 / sample_rate
    acc = 0.0
    for i in range(len(xs) - 1):
        acc += 0.5 * (abs(float(xs[i])) + abs(float(xs[i + 1]))) * dt
    return acc


# === autocorrelation pitch, one dot product per lag ===

def pitch_oracle(samples, sample_rate, min_hz=60.0, max_hz=400.0,
                 min_correlation=0.3):
    """Normalized autocorrelation scanned lag by lag over the pitch band.

    The first lag holding the maximum wins; a maximum below min_correlation,
    a silent frame, or a frame shorter than the shortest lag reads 0.0.
    """
    import numpy as np

    x = np.asarray(samples, dtype=np.float64)
    n = len(x)
    lag_lo = int(round(sample_rate / max_hz))
    lag_hi = min(int(round(sample_rate / min_hz)), n - 1)
    if lag_lo < 1 or lag_hi < lag_lo:
        return 0.0
    r0 = float(np.dot(x, x))
    if r0 <= 0.0:
        return 0.0
    best_lag = 0
    best_r = -np.inf
    for lag in range(lag_lo, lag_hi + 1):
        r = float(np.dot(x[:-lag], x[lag:])) / r0
        if r > best_r:
            best_r = r
            best_lag = lag
    if best_r < min_correlation:
        return 0.0
    return sample_rate / best_lag


# === ReliefF, exhaustive by definition ===

def relieff_oracle(X, y, k):
    """Two-class ReliefF over every instance, explicit loops throughout.

    Manhattan distance on range-normalized features, distance ties broken by
    lower index, miss contributions weighted by prior(miss class) divided by
    (1 - prior(own class)), one division at the very end.
    """
    X = [[float(v) for v in row] for row in X]
    y = [int(c) for c in y]
    n = len(X)
    d = len(X[0])

    ranges = []
    for f in range(d):
        col = [X[i][f] for i in range(n)]
        ranges.append(max(col) - min(col))

    def diff(f, a, b):
        if ranges[f] == 0.0:
            return 0.0
        return abs(X[a][f] - X[b][f]) / ranges[f]

    def dist(a, b):
        return sum(diff(f, a, b) for f in range(d))

    counts = {}
    for c in y:
        counts[c] = counts.get(c, 0) + 1

    hit_acc = [0.0] * d
    miss_acc = [0.0] * d
    for r in range(n):
        order = sorted((i for i in range(n) if i != r),
                       key=lambda i: (dist(r, i), i))
        hits = [i for i in order if y[i] == y[r]][:k]
        misses = [i for i in order if y[i] != y[r]][:k]
        for h in hits:
            for f in range(d):
                hit_acc[f] += diff(f, r, h)
        for mi in misses:
            prior_ratio = counts[y[mi]] / (n - counts[y[r]])
            for f in range(d):
                miss_acc[f] += prior_ratio * diff(f, r, mi)

    return [(miss_acc[f] - hit_acc[f]) / (n * k) for f in range(d)]


def fold_assignment_loop(y, folds, seed):
    """relieff's fold of each position as the CV loop drew it before one
    per-class order served every partition: one (seed, class) stream per
    class, its shuffled members dealt round-robin to the folds."""
    import numpy as np

    fold_of = np.empty(len(y), dtype=np.int64)
    for label in np.unique(y):
        members = np.flatnonzero(y == label)
        rng = np.random.default_rng((seed, int(label)))
        shuffled = members[rng.permutation(len(members))]
        fold_of[shuffled] = np.arange(len(shuffled)) % folds
    return fold_of


def relieff_pass_loop(X, y, ks):
    """The weights of speechbp.relieff._relieff_pass for the ascending grid
    ks, one query row at a time: each row's diffs to all instances, one
    stable argsort of its distances, then the hit and miss sums added per
    k.  The argument checks are left out.

    Distances are summed over the features in column order, as in
    relieff_oracle; numpy's diff.sum(axis=1) sums 8 or more features
    pairwise, which can break exact distance ties the other way.
    """
    import numpy as np

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    labels, counts = np.unique(y, return_counts=True)
    count_of = {int(c): int(cnt) for c, cnt in zip(labels, counts)}
    ranges = X.max(axis=0) - X.min(axis=0)
    scale = np.where(ranges == 0.0, np.inf, ranges)
    # the j-th nearest miss counts for every k > j, a suffix of the grid
    first_k_above = np.searchsorted(ks, np.arange(ks[-1]), side="right")
    hit_acc = np.zeros((len(ks), d))
    miss_acc = np.zeros((len(ks), d))
    for r in range(n):
        diff = np.abs(X - X[r]) / scale
        dist = sum(diff[:, f] for f in range(d))
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


def nearest_neighbor_accuracy_loop(X_train, y_train, X_test, y_test):
    """1-NN accuracy one test row at a time: Manhattan distance on ranges
    learned from the training part, summed over the features in column
    order, ties to the lower index."""
    import numpy as np

    ranges = X_train.max(axis=0) - X_train.min(axis=0)
    scale = np.where(ranges == 0.0, np.inf, ranges)
    correct = 0
    for i in range(len(X_test)):
        diff = np.abs(X_train - X_test[i]) / scale
        dist = sum(diff[:, f] for f in range(X_train.shape[1]))
        nearest = int(np.argmin(dist))  # ties -> lower index
        correct += int(y_train[nearest] == y_test[i])
    return correct / len(X_test)


# === regression metrics, Kahan-grade accumulation via fsum ===

def mse_oracle(y, yhat):
    return math.fsum((float(a) - float(b)) ** 2
                     for a, b in zip(y, yhat)) / len(y)


def mae_oracle(y, yhat):
    return math.fsum(abs(float(a) - float(b))
                     for a, b in zip(y, yhat)) / len(y)


def r2_oracle(y, yhat):
    y = [float(v) for v in y]
    mean = math.fsum(y) / len(y)
    rss = math.fsum((a - float(b)) ** 2 for a, b in zip(y, yhat))
    tss = math.fsum((a - mean) ** 2 for a in y)
    return 1.0 - rss / tss


def pearson_oracle(xs, ys):
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
    sxx = math.fsum((a - mx) ** 2 for a in xs)
    syy = math.fsum((b - my) ** 2 for b in ys)
    return sxy / math.sqrt(sxx * syy)


# === classification tallies ===

def hypertensive_oracle(sbp, dbp):
    return sbp > 115.0 or dbp > 72.0


def confusion_oracle(pred_classes, true_classes):
    tp = fp = fn = tn = 0
    for p, t in zip(pred_classes, true_classes):
        if p and t:
            tp += 1
        elif p and not t:
            fp += 1
        elif not p and t:
            fn += 1
        else:
            tn += 1
    return {"tp": tp, "fp": fp, "fn": fn, "tn": tn}


# === the train / validation / test partition ===

def partition_oracle(labels, seed, test_fraction=0.2, val_fraction=0.1):
    """(train, val, test) positions into `labels`, each ascending, as the
    pipeline drew them as two separate splits: a class-stratified test split
    with a largest-remainder share per class, then a validation split over
    what the test split left.  A class of fewer than 2 raises ValueError."""
    import numpy as np

    # the test split: floor or ceil of each class's proportional share
    by_class = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)
    for label, members in sorted(by_class.items()):
        if len(members) < 2:
            raise ValueError(
                f"class {label} has {len(members)} example(s); need >= 2")

    total_test = int(round(len(labels) * test_fraction))
    shares = {label: len(m) * test_fraction for label, m in by_class.items()}
    counts = {label: int(np.floor(s)) for label, s in shares.items()}
    leftovers = total_test - sum(counts.values())
    by_fraction = sorted(by_class, key=lambda c: (counts[c] - shares[c], c))
    for label in by_fraction:
        if leftovers <= 0:
            break
        if counts[label] + 1 < len(by_class[label]):
            counts[label] += 1
            leftovers -= 1

    test_idx = []
    for label in sorted(by_class):
        members = np.array(by_class[label])
        rng = np.random.default_rng((seed, int(label)))
        chosen = members[rng.permutation(len(members))[:counts[label]]]
        test_idx.extend(int(i) for i in chosen)
    test_set = set(test_idx)
    rest = [i for i in range(len(labels)) if i not in test_set]

    # the validation split, by position within the rest
    by_class = {}
    for j, i in enumerate(rest):
        by_class.setdefault(labels[i], []).append(j)
    val_idx = set()
    for label in sorted(by_class):
        members = by_class[label]
        n_val = int(len(members) * val_fraction)
        rng = np.random.default_rng((seed, label))
        for p in rng.permutation(len(members))[:n_val]:
            val_idx.add(members[p])
    train = [i for j, i in enumerate(rest) if j not in val_idx]
    val = [rest[j] for j in sorted(val_idx)]
    return train, val, sorted(test_idx)


# === optimizer and gradient references ===

def adam_single_step_oracle(theta, g, lr=2e-5, beta1=0.9, beta2=0.999,
                            eps=1e-8):
    """One Adam update from zeroed moments (t = 1), scalar by scalar."""
    m = (1.0 - beta1) * g
    v = (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1)          # == g at t=1
    v_hat = v / (1.0 - beta2)          # == g^2 at t=1
    return theta - lr * m_hat / (math.sqrt(v_hat) + eps)


def central_difference(f, get, put, h=1e-4):
    """d f / d coordinate via central differences.

    `get()` reads the coordinate, `put(v)` writes it.  f must be a pure
    function of the stored value.  Uses the symmetric quotient so truncation
    error is O(h^2); f is expected to accumulate its own sums with fsum.
    """
    orig = get()
    put(orig + h)
    f_plus = f()
    put(orig - h)
    f_minus = f()
    put(orig)
    return (f_plus - f_minus) / (2.0 * h)


# === the encoder step's element-wise kernels, one expression each ===
#
# speechbp.model's GELU, softmax and layernorm, training's Adam update and
# the token-embedding gradient as they were written before they ran in
# place, chunk by chunk or group by group: every intermediate is a fresh
# array.  The in-place kernels must match these bit for bit.

def gelu_oracle(u):
    """(gelu, tanh term) of the tanh GELU, the cube as two multiplies."""
    import numpy as np

    t = np.tanh(np.sqrt(2.0 / np.pi) * (u + 0.044715 * ((u * u) * u)))
    return 0.5 * u * (1.0 + t), t


def gelu_backward_oracle(d_out, u, t):
    import numpy as np

    du_inner = np.sqrt(2.0 / np.pi) * (1.0 + 3.0 * 0.044715 * (u * u))
    return d_out * (0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * du_inner)


def softmax_rows_oracle(scores):
    import numpy as np

    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_oracle(x, gain, bias, eps):
    """(output, xhat, 1 / floored sd, sd >= eps) along the last axis."""
    import numpy as np

    mu = x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(x.var(axis=-1, keepdims=True))
    inv = 1.0 / np.maximum(sd, eps)
    xhat = (x - mu) * inv
    return xhat * gain + bias, xhat, inv, sd >= eps


def layer_norm_backward_oracle(d_out, xhat, inv, live, gain):
    """(d_x, d_gain, d_bias) of layer_norm_oracle."""
    import numpy as np

    d_gain = np.sum(d_out * xhat, axis=tuple(range(d_out.ndim - 1)))
    d_bias = np.sum(d_out, axis=tuple(range(d_out.ndim - 1)))
    d_xhat = d_out * gain
    m1 = d_xhat.mean(axis=-1, keepdims=True)
    m2 = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    d_x = inv * (d_xhat - m1 - xhat * m2 * live)
    return d_x, d_gain, d_bias


def adam_update_oracle(param, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One bias-corrected Adam update of one array at step t, on copies:
    returns the new (param, m, v)."""
    import numpy as np

    param, m, v = param.copy(), m.copy(), v.copy()
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v


def embedding_gradient_oracle(ids, rows, vocab_size):
    """Each row added into a zero (vocab_size, h) table at its id, one row
    at a time in order."""
    import numpy as np

    grad = np.zeros((vocab_size, rows.shape[1]))
    np.add.at(grad, ids, rows)
    return grad


# === the encoder's eval forward over every position of every block ===
#
# The encoder's eval forward as it stood before its last block was cut
# down to the [CLS] row, copied with its helpers and with the u ** 3 GELU;
# only the error checks and the train-mode branch are left out.  `config`
# needs the attributes of speechbp.model.EncoderConfig, `sequences` those of
# speechbp.textcodec.TokenSequence.

def _full_batch_arrays(sequences):
    import numpy as np

    t_max = max(s.true_length for s in sequences)
    ids = np.stack([np.asarray(s.input_ids[:t_max]) for s in sequences])
    mask = np.stack([np.asarray(s.attention_mask[:t_max])
                     for s in sequences]).astype(np.float64)
    return ids, mask


def _full_split_heads(x, n_heads):
    b, t, h = x.shape
    return x.reshape(b, t, n_heads, h // n_heads).transpose(0, 2, 1, 3)


def _full_merge_heads(x):
    b, a, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, a * dh)


def gelu_pow_oracle(u):
    """The tanh GELU with the cube taken by pow; returns (gelu, tanh term)."""
    import numpy as np

    t = np.tanh(np.sqrt(2.0 / np.pi) * (u + 0.044715 * u ** 3))
    return 0.5 * u * (1.0 + t), t


def gelu_backward_pow_oracle(d_out, u, t):
    """d gelu / d u times d_out, with the square taken by pow."""
    import numpy as np

    du_inner = np.sqrt(2.0 / np.pi) * (1.0 + 3.0 * 0.044715 * u ** 2)
    return d_out * (0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * du_inner)


def encoder_forward_oracle(config, params, sequences):
    """Eval-mode (sbp, dbp) predictions, each (b, 1), every row computed."""
    import numpy as np

    ids, mask = _full_batch_arrays(sequences)
    b, t = ids.shape
    scale = 1.0 / np.sqrt(config.hidden_dim // config.n_heads)

    x = params["token_embedding"][ids] + params["position_embedding"][:t]
    key_bias = (1.0 - mask)[:, None, None, :] * -1e9

    for i in range(config.n_layers):
        p = f"layer{i}."
        q = _full_split_heads(x @ params[p + "wq"] + params[p + "bq"],
                              config.n_heads)
        k = _full_split_heads(x @ params[p + "wk"], config.n_heads)
        v = _full_split_heads(x @ params[p + "wv"] + params[p + "bv"],
                              config.n_heads)
        scores = q @ k.transpose(0, 1, 3, 2) * scale + key_bias
        attn = softmax_rows_oracle(scores)
        ctx = _full_merge_heads(attn @ v)
        attn_out = ctx @ params[p + "wo"] + params[p + "bo"]
        y1, *_ = layer_norm_oracle(
            x + attn_out, params[p + "attn_gain"], params[p + "attn_bias"],
            config.layernorm_epsilon)
        h1 = y1 @ params[p + "w1"] + params[p + "b1"]
        g, _ = gelu_pow_oracle(h1)
        ffn_out = g @ params[p + "w2"] + params[p + "b2"]
        x, *_ = layer_norm_oracle(
            y1 + ffn_out, params[p + "ffn_gain"], params[p + "ffn_bias"],
            config.layernorm_epsilon)

    pooled = np.tanh(x[:, 0, :] @ params["pooler_weight"]
                     + params["pooler_bias"])
    sbp = pooled @ params["sbp_weight"] + params["sbp_bias"]
    dbp = pooled @ params["dbp_weight"] + params["dbp_bias"]
    return sbp, dbp
