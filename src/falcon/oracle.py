"""Trusted plaintext references for every equivalence test.

Three layers:

* plain integer oracles for the comparison/wrap/argmax substrate,
* an exact fixed-point engine (`fx_*`) that reproduces the secure path's
  arithmetic bit for bit, raw values mod 2^ell with the same
  truncation rounding,
* a 64-bit float engine for accuracy comparisons.

Both network engines read convolution and maxpool windows through one
gather, `_patches`, and scatter window gradients back through its adjoint,
`_unpatches`. Each forward records its layer's output shape, and the
backward reshapes the incoming delta to that shape once, before the layer
sees it, as `nn.backward` does.

Deliberately independent: from falcon this imports only `rings`, and its
windows are explicit strided slices rather than `rss.window_share`, so a
divergence is a test failure rather than a shared bug.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from .rings import (
    UINT,
    RingParams,
    add_mod,
    encode_fixed,
    matmul_mod,
    mul_mod,
    reduce_mod,
    shift_signed,
    signed,
    sub_mod,
    wrap3,
)

# ---------------------------------------------------------------------------
# plain oracles


def oracle_compare(x, r) -> np.ndarray:
    """Ground truth for private compare: the bit (x > r)."""
    return (np.asarray(x, dtype=UINT) > np.asarray(r, dtype=UINT)).astype(UINT)


def oracle_wrap3(a1, a2, a3, L: int) -> np.ndarray:
    """Parity of the number of times a1 + a2 + a3 overflows L."""
    return wrap3(a1, a2, a3, L)


def oracle_drelu(a, params: RingParams) -> np.ndarray:
    """1 iff the signed reading of a is nonnegative (MSB = 0)."""
    return (signed(a, params) >= 0).astype(UINT)


def oracle_relu(a, params: RingParams) -> np.ndarray:
    v = signed(a, params)
    return reduce_mod(np.where(v >= 0, v, 0), params.L)


def oracle_argmax(vec) -> tuple:
    """(max, index) with ties broken toward the earliest index."""
    vec = np.asarray(vec)
    idx = int(np.argmax(vec))
    return vec[idx], idx


# ---------------------------------------------------------------------------
# exact fixed-point engine (bit-exact twin of the secure arithmetic)


def fx_trunc(raw, d: int, params: RingParams) -> np.ndarray:
    """Arithmetic shift by d (exact floor), as the pair-based truncation."""
    return shift_signed(np.asarray(raw, UINT), d, params)


def fx_matmul(a, b, params: RingParams) -> np.ndarray:
    """Twin of the secure matmul with its fixed-point rescale."""
    return fx_trunc(matmul_mod(a, b, params.L), params.fp, params)


def _sum_mod(x, axis: int, L: int) -> np.ndarray:
    return reduce_mod(np.asarray(x).sum(axis=axis, dtype=UINT), L)


def fx_maxpool_with_onehot(raws, params: RingParams):
    """Running max over the last axis with earliest-tie one-hot: the
    sequential reference (incumbent kept when the new candidate does not
    exceed it) whose earliest-tie argmax the secure tournament tree must
    match."""
    v = signed(raws, params)
    n = v.shape[-1]
    best = v[..., 0]
    arg = np.zeros(v.shape[:-1], dtype=np.int64)
    for i in range(1, n):
        take = v[..., i] > best
        best = np.where(take, v[..., i], best)
        arg = np.where(take, i, arg)
    onehot = (np.arange(n) == arg[..., None]).astype(UINT)
    return reduce_mod(best, params.L), onehot


# ---------------------------------------------------------------------------
# fixed-point numeric kernels (mirror the secure pipeline step for step)


def fx_working_precision(params: RingParams) -> int:
    return min(params.fp, (params.ell - 6) // 2)


def fx_rescale(raw, s, params: RingParams, nearest: bool = True) -> np.ndarray:
    """Elementwise / 2^s with public (possibly negative, per-element) shifts."""
    raw = np.asarray(raw, UINT)
    s = np.broadcast_to(np.asarray(s, np.int64), raw.shape)
    pos = s > 0
    out = np.empty_like(raw)
    if np.any(pos):
        r = raw[pos]
        if nearest:
            half = np.uint64(1) << (s[pos].astype(np.uint64) - np.uint64(1))
            r = add_mod(r, half, params.L)
        out[pos] = shift_signed(r, s[pos], params)
    if np.any(~pos):
        out[~pos] = mul_mod(raw[~pos], np.uint64(1) << (-s[~pos]).astype(np.uint64), params.L)
    return out


def fx_bounding_power(raw, params: RingParams) -> np.ndarray:
    """floor(log2(signed(raw))) for raw >= 1 (what the secure search reveals)."""
    v = signed(raw, params)
    if np.any(v < 1):
        raise ValueError("bounding power requires strictly positive values")
    cur = v.astype(np.uint64)
    alpha = np.zeros(np.shape(cur), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        big = cur >= (np.uint64(1) << np.uint64(s))
        alpha = alpha + np.where(big, s, 0)
        cur = np.where(big, cur >> np.uint64(s), cur)
    return alpha


def fx_divide(a_raw, b_raw, params: RingParams, a_max_bits: int | None = None) -> np.ndarray:
    """Exact twin of the secure division pipeline (same roundings, same order)."""
    a_raw = np.atleast_1d(np.asarray(a_raw, UINT))
    b_raw = np.atleast_1d(np.asarray(b_raw, UINT))
    fp = params.fp
    w = fx_working_precision(params)
    alpha = fx_bounding_power(b_raw, params)
    q = alpha + 1
    y = _fx_reciprocal_series(b_raw, q, w, params)
    if a_max_bits is None:
        a_max_bits = fp + 7
    h = min(10, params.ell - 2 - a_max_bits)
    s1 = w + q - fp
    return _fx_chunked_product(a_raw, y, s1, h, w, params)


def _fx_reciprocal_series(b_raw, q, w: int, params: RingParams) -> np.ndarray:
    x = fx_rescale(b_raw, q - w, params)
    c29 = np.uint64(round(2.9142 * (1 << w)))
    one = np.uint64(1 << w)
    w0 = add_mod(mul_mod(reduce_mod(-2, params.L), x, params.L), c29, params.L)
    e0 = sub_mod(one, fx_rescale(mul_mod(x, w0, params.L), w, params), params.L)
    e1 = fx_rescale(mul_mod(e0, e0, params.L), w, params)
    t1 = add_mod(e0, one, params.L)
    t2 = add_mod(e1, one, params.L)
    y = fx_rescale(mul_mod(w0, t1, params.L), w, params)
    return fx_rescale(mul_mod(y, t2, params.L), w, params)


def _fx_chunked_product(a_raw, y, s1, h: int, w: int, params: RingParams) -> np.ndarray:
    nchunks = max(1, -(-(w + 2) // h))
    chunks = []
    prev = y
    for k in range(1, nchunks):
        t = fx_rescale(y, np.full(y.shape, k * h, np.int64), params, nearest=False)
        chunks.append(sub_mod(prev, mul_mod(np.uint64(1 << h), t, params.L), params.L))
        prev = t
    chunks.append(prev)
    out = np.zeros_like(a_raw)
    for k, chunk in enumerate(chunks):
        prod = mul_mod(a_raw, chunk, params.L)
        out = add_mod(out, fx_rescale(prod, s1 - k * h, params), params.L)
    return out


def fx_inv_sqrt(b_raw, alpha, params: RingParams) -> np.ndarray:
    b_raw = np.atleast_1d(np.asarray(b_raw, UINT))
    fp = params.fp
    w = fx_working_precision(params)
    alpha_s = np.asarray(alpha).reshape(b_raw.shape) - fp
    e = alpha_s + (alpha_s & 1)
    c = fx_rescale(b_raw, e + fp - w, params)
    x = np.full(b_raw.shape, np.uint64(1 << w))
    three = np.uint64(3 << w)
    for _ in range(4):
        y = fx_rescale(mul_mod(x, x, params.L), w, params)
        y = fx_rescale(mul_mod(c, y, params.L), w, params)
        t = add_mod(mul_mod(reduce_mod(-1, params.L), y, params.L), three, params.L)
        x = fx_rescale(mul_mod(x, t, params.L), w + 1, params)
    return fx_rescale(x, w + e // 2 - fp, params)


def fx_sqrt(a_raw, params: RingParams) -> np.ndarray:
    a_raw = np.atleast_1d(np.asarray(a_raw, UINT))
    fp = params.fp
    alpha = fx_bounding_power(a_raw, params)
    alpha_s = alpha - fp
    guess_exp = (alpha_s + (alpha_s & 1)) // 2 + fp
    x = np.uint64(1) << guess_exp.astype(np.uint64)
    for _ in range(4):
        quot = fx_divide(a_raw, x, params, a_max_bits=int(alpha.max()) + 2)
        x = fx_rescale(add_mod(x, quot, params.L), np.int64(1), params)
    return x


def fx_batch_norm(acts_raw, gamma_raw, beta_raw, params: RingParams, want_cache: bool = False):
    """Twin of the secure batch-norm forward over the last axis (eps = 2^-10)."""
    acts_raw = np.asarray(acts_raw, UINT)
    fp = params.fp
    m = acts_raw.shape[-1]
    mu = _fx_mean_last(acts_raw, m, params)
    dev = sub_mod(acts_raw, mu[..., None], params.L)
    sq = fx_rescale(mul_mod(dev, dev, params.L), fp, params)
    var = _fx_mean_last(sq, m, params)
    b = add_mod(var, np.uint64(1 << (fp - 10)), params.L)
    alpha = fx_bounding_power(b, params)
    inv = fx_inv_sqrt(b, alpha, params)
    z = fx_rescale(mul_mod(dev, inv[..., None], params.L), fp, params)
    g = fx_rescale(mul_mod(np.asarray(gamma_raw, UINT)[..., None], z, params.L), fp, params)
    out = add_mod(g, np.asarray(beta_raw, UINT)[..., None], params.L)
    if want_cache:
        return out, z, inv
    return out


def _fx_mean_last(x, m: int, params: RingParams) -> np.ndarray:
    total = _sum_mod(x, -1, params.L)
    if m & (m - 1) == 0:
        return fx_rescale(total, int(np.log2(m)), params)
    inv_m = np.uint64(round((1 << params.fp) / m))
    return fx_rescale(mul_mod(inv_m, total, params.L), params.fp, params)


# ---------------------------------------------------------------------------
# windows, channel grouping and the layer drivers of both network engines


def _patches(a: np.ndarray, F: int, stride: int, pad: int) -> np.ndarray:
    """The F x F windows of a (B, C, H, W) image zero-padded by `pad`, taken
    every `stride` pixels, as (B, C, Ho, Wo, F*F): slot i*F + j holds offset
    (i, j). The only place the output size (Ho, Wo) is worked out."""
    B, C, H, W = a.shape
    Ho = (H + 2 * pad - F) // stride + 1
    Wo = (W + 2 * pad - F) // stride + 1
    a = np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.empty((B, C, Ho, Wo, F * F), a.dtype)
    for i in range(F):
        for j in range(F):
            out[..., i * F + j] = a[:, :, i : i + stride * Ho : stride, j : j + stride * Wo : stride]
    return out


def _unpatches(d: np.ndarray, shape, F: int, stride: int, pad: int) -> np.ndarray:
    """Adjoint of `_patches`: scatter-add (B, C, Ho, Wo, F*F) windows into a
    (B, C, H, W) image of `shape`. Integer windows add in wrapping uint64,
    which the fixed-point engine then reduces mod 2^ell."""
    B, C, H, W = shape
    Ho, Wo = d.shape[2:4]
    out = np.zeros((B, C, H + 2 * pad, W + 2 * pad), UINT if d.dtype.kind == "u" else d.dtype)
    for i in range(F):
        for j in range(F):
            out[:, :, i : i + stride * Ho : stride, j : j + stride * Wo : stride] += d[..., i * F + j]
    return out[:, :, pad : pad + H, pad : pad + W]


def _conv_rows(a: np.ndarray, F: int, stride: int, pad: int):
    """A convolution's input windows as matmul rows, (B*Ho*Wo, C*F*F) in the
    kernel's (C, F, F) order, and the (B, Ho, Wo) the rows run over."""
    p = _patches(a, F, stride, pad)
    B, C, Ho, Wo, FF = p.shape
    return p.transpose(0, 2, 3, 1, 4).reshape(B * Ho * Wo, C * FF), (B, Ho, Wo)


def _channels_first(x: np.ndarray):
    """Group (B, C, ...) activations per channel or feature as (C, rest),
    plus the inverse of that grouping."""
    swap = (1, 0) + tuple(range(2, x.ndim))
    grouped = x.transpose(swap)
    return grouped.reshape(len(grouped), -1), lambda y: y.reshape(grouped.shape).transpose(swap)


def _forward(net, x: np.ndarray, layer_forward, caches: list | None) -> np.ndarray:
    """Run layer_forward(layer, i, x, cache) through the net. Each cache also
    records its layer's output shape and is appended to `caches` if given."""
    if len(net.input_shape) == 1:
        x = x.reshape(len(x), -1)
    for i, layer in enumerate(net.layers):
        cache: dict = {}
        x = layer_forward(layer, i, x, cache)
        cache["out_shape"] = x.shape
        if caches is not None:
            caches.append(cache)
    return x.reshape(len(x), -1)


def _backward(net, caches: list, delta: np.ndarray, layer_backward) -> dict:
    """Chain rule over the caches of `_forward`, as `nn.backward`: the delta
    is reshaped once to each layer's output shape before
    layer_backward(layer, i, cache, delta, grads) returns its input's."""
    grads: dict = {}
    for i in range(len(net.layers) - 1, -1, -1):
        cache = caches[i]
        delta = layer_backward(net.layers[i], i, cache, delta.reshape(cache["out_shape"]), grads)
    return grads


# ---------------------------------------------------------------------------
# fixed-point NN engine (bit-exact twin of falcon.nn)


def fx_forward(net, raw_params: dict, batch_raw: np.ndarray, params: RingParams,
               caches: list | None = None) -> np.ndarray:
    """Plaintext fixed-point forward; appends each layer's cache to `caches`."""
    return _forward(net, np.asarray(batch_raw, UINT),
                    partial(_fx_layer_forward, raw_params, params), caches)


def fx_backward(net, raw_params: dict, caches: list, loss_grad_raw: np.ndarray,
                params: RingParams) -> dict:
    return _backward(net, caches, np.asarray(loss_grad_raw, UINT),
                     partial(_fx_layer_backward, raw_params, params))


def _fx_layer_forward(raw_params, params: RingParams, layer, i, x, cache: dict):
    L = params.L
    if layer.kind == "fc":
        x = cache["a_in"] = x.reshape(len(x), -1)
        return add_mod(fx_matmul(x, raw_params[f"{i}.w"], params), raw_params[f"{i}.b"], L)
    if layer.kind == "conv":
        cache["a_in"] = x
        w = raw_params[f"{i}.w"]
        rows, bhw = _conv_rows(x, layer.kernel, layer.stride, layer.pad)
        out = add_mod(fx_matmul(rows, w.reshape(len(w), -1).T, params), raw_params[f"{i}.b"], L)
        return out.reshape(bhw + (-1,)).transpose(0, 3, 1, 2)
    if layer.kind == "relu":
        cache["drelu"] = bits = oracle_drelu(x, params)
        return np.where(bits == 1, x, np.uint64(0))
    if layer.kind == "maxpool":
        cache["in_shape"] = x.shape
        best, cache["onehot"] = fx_maxpool_with_onehot(
            _patches(x, layer.window, layer.stride, 0), params)
        return best
    if layer.kind == "bn":
        grouped, restore = _channels_first(x)
        out, cache["z"], cache["inv"] = fx_batch_norm(
            grouped, raw_params[f"{i}.gamma"], raw_params[f"{i}.beta"], params, want_cache=True)
        return restore(out)
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def _fx_layer_backward(raw_params, params: RingParams, layer, i, cache: dict, delta, grads: dict):
    fp, L = params.fp, params.L
    if layer.kind == "fc":
        grads[f"{i}.w"] = fx_matmul(cache["a_in"].T, delta, params)
        grads[f"{i}.b"] = _sum_mod(delta, 0, L)
        return fx_matmul(delta, raw_params[f"{i}.w"].T, params)
    if layer.kind == "conv":
        a_in, w = cache["a_in"], raw_params[f"{i}.w"]
        rows, (B, Ho, Wo) = _conv_rows(a_in, layer.kernel, layer.stride, layer.pad)
        d = delta.transpose(0, 2, 3, 1).reshape(len(rows), -1)  # (B*Ho*Wo, Cout)
        grads[f"{i}.w"] = fx_matmul(d.T, rows, params).reshape(w.shape)
        grads[f"{i}.b"] = _sum_mod(d, 0, L)
        drows = fx_matmul(d, w.reshape(len(w), -1), params)
        dwin = drows.reshape(B, Ho, Wo, a_in.shape[1], -1).transpose(0, 3, 1, 2, 4)
        return reduce_mod(_unpatches(dwin, a_in.shape, layer.kernel, layer.stride, layer.pad), L)
    if layer.kind == "relu":
        return np.where(cache["drelu"] == 1, delta, np.uint64(0))
    if layer.kind == "maxpool":
        routed = mul_mod(cache["onehot"], delta[..., None], L)
        return reduce_mod(_unpatches(routed, cache["in_shape"], layer.window, layer.stride, 0), L)
    if layer.kind == "bn":
        z, inv = cache["z"], cache["inv"]
        dy, restore = _channels_first(delta)
        dyz = fx_trunc(mul_mod(dy, z, L), fp, params)
        grads[f"{i}.gamma"] = sum_dyz = _sum_mod(dyz, -1, L)
        grads[f"{i}.beta"] = sum_dy = _sum_mod(dy, -1, L)
        # the means come before the products: dy - mean(dy) - z * mean(dy*z)
        mean_dy, mean_dyz = fx_trunc(np.stack([sum_dy, sum_dyz]), int(np.log2(z.shape[-1])), params)
        zs = fx_trunc(mul_mod(z, mean_dyz[..., None], L), fp, params)
        t = sub_mod(sub_mod(dy, mean_dy[..., None], L), zs, L)
        g_inv = fx_trunc(mul_mod(raw_params[f"{i}.gamma"], inv, L), fp, params)
        return restore(fx_trunc(mul_mod(g_inv[..., None], t, L), fp, params))
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def fx_sgd_step(raw_params: dict, grads: dict, lr_shift: int, params: RingParams):
    for name, g in grads.items():
        raw_params[name] = sub_mod(raw_params[name], fx_rescale(g, lr_shift, params), params.L)


def fx_loss_grad(logits_raw: np.ndarray, onehot: np.ndarray, params: RingParams,
                 scale_shift: int = 0) -> np.ndarray:
    """Twin of the secure ASM loss gradient."""
    fp = params.fp
    L = params.L
    B, classes = logits_raw.shape
    r = oracle_relu(logits_raw, params)
    total = _sum_mod(r, -1, L)
    pos = oracle_drelu(add_mod(total, reduce_mod(-1, L), L), params)
    one = np.uint64(1 << fp)
    denom = np.where(pos == 1, total, one)
    recip = fx_divide(np.full(B, one), denom, params, a_max_bits=fp + 1)
    probs = fx_trunc(mul_mod(r, recip[..., None], L), fp, params)
    uniform = np.uint64(round((1 << fp) / classes))
    phat = np.where(pos[..., None] == 1, probs, uniform)
    onehot_raw = encode_fixed(np.asarray(onehot, np.float64), params)
    delta = sub_mod(phat, onehot_raw, L)
    if scale_shift:
        delta = fx_rescale(delta, scale_shift, params)
    return delta


# ---------------------------------------------------------------------------
# float64 engine


def float_forward(net, float_params: dict, batch: np.ndarray, caches: list | None = None) -> np.ndarray:
    """64-bit float reference forward pass over the same declarative spec."""
    return _forward(net, np.asarray(batch, np.float64),
                    partial(_float_layer_forward, float_params), caches)


def float_backward(net, float_params: dict, caches: list, loss_grad: np.ndarray) -> dict:
    return _backward(net, caches, np.asarray(loss_grad, np.float64),
                     partial(_float_layer_backward, float_params))


def float_conv2d(img, kern, bias, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Reference convolution: img (B,Cin,H,W), kern (Cout,Cin,F,F)."""
    kern = np.asarray(kern, np.float64)
    rows, bhw = _conv_rows(np.asarray(img, np.float64), kern.shape[-1], stride, padding)
    out = rows @ kern.reshape(len(kern), -1).T
    if bias is not None:
        out += np.asarray(bias, np.float64)
    return out.reshape(bhw + (-1,)).transpose(0, 3, 1, 2)


def float_maxpool(img, window: int, stride: int) -> np.ndarray:
    return _patches(np.asarray(img, np.float64), window, stride, 0).max(axis=-1)


def _float_layer_forward(float_params, layer, i, x, cache: dict):
    if layer.kind == "fc":
        x = cache["a_in"] = x.reshape(len(x), -1)
        return x @ float_params[f"{i}.w"] + float_params[f"{i}.b"]
    if layer.kind == "conv":
        cache["a_in"] = x
        return float_conv2d(x, float_params[f"{i}.w"], float_params[f"{i}.b"],
                            stride=layer.stride, padding=layer.pad)
    if layer.kind == "relu":
        cache["mask"] = x > 0
        return np.maximum(x, 0.0)
    if layer.kind == "maxpool":
        cache["a_in"] = x
        return float_maxpool(x, layer.window, layer.stride)
    if layer.kind == "bn":
        g, restore = _channels_first(x)
        cache["var"] = var = g.var(axis=-1, keepdims=True)
        cache["z"] = z = (g - g.mean(axis=-1, keepdims=True)) / np.sqrt(var + 2.0**-10)
        return restore(float_params[f"{i}.gamma"][:, None] * z + float_params[f"{i}.beta"][:, None])
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def _float_layer_backward(float_params, layer, i, cache: dict, delta, grads: dict):
    if layer.kind == "fc":
        grads[f"{i}.w"] = cache["a_in"].T @ delta
        grads[f"{i}.b"] = delta.sum(axis=0)
        return delta @ float_params[f"{i}.w"].T
    if layer.kind == "conv":
        a_in, w = cache["a_in"], float_params[f"{i}.w"]
        rows, (B, Ho, Wo) = _conv_rows(a_in, layer.kernel, layer.stride, layer.pad)
        d = delta.transpose(0, 2, 3, 1).reshape(len(rows), -1)  # (B*Ho*Wo, Cout)
        grads[f"{i}.w"] = (d.T @ rows).reshape(w.shape)
        grads[f"{i}.b"] = d.sum(axis=0)
        dwin = (d @ w.reshape(len(w), -1)).reshape(B, Ho, Wo, a_in.shape[1], -1)
        return _unpatches(dwin.transpose(0, 3, 1, 2, 4), a_in.shape, layer.kernel, layer.stride,
                          layer.pad)
    if layer.kind == "relu":
        return delta * cache["mask"]
    if layer.kind == "maxpool":
        a_in = cache["a_in"]
        wins = _patches(a_in, layer.window, layer.stride, 0)
        first = wins.argmax(axis=-1)[..., None]  # the earliest maximum takes the gradient
        routed = np.where(np.arange(wins.shape[-1]) == first, delta[..., None], 0.0)
        return _unpatches(routed, a_in.shape, layer.window, layer.stride, 0)
    if layer.kind == "bn":
        z, var = cache["z"], cache["var"]
        g, restore = _channels_first(delta)
        m = g.shape[-1]
        grads[f"{i}.gamma"] = sum_gz = (g * z).sum(axis=-1)
        grads[f"{i}.beta"] = sum_g = g.sum(axis=-1)
        t = m * g - sum_g[:, None] - z * sum_gz[:, None]
        inv = 1.0 / np.sqrt(var + 2.0**-10)
        return restore(float_params[f"{i}.gamma"][:, None] * inv * t / m)
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def softmax_xent_grad(logits: np.ndarray, onehot: np.ndarray) -> tuple[np.ndarray, float]:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    loss = -np.mean(np.log(np.clip(p[onehot.astype(bool)], 1e-12, None)))
    return p - onehot, loss


def float_train(net, float_params: dict, images: np.ndarray, labels: np.ndarray,
                iters: int, batch: int, lr: float, seed: int = 0, log=None) -> dict:
    """Plain float SGD with softmax cross-entropy (reference pretraining)."""
    rng = np.random.default_rng(seed)
    params = {k: v.copy() for k, v in float_params.items()}
    n = len(images)
    for it in range(iters):
        idx = rng.choice(n, size=batch, replace=False)
        xb = images[idx]
        onehot = np.eye(net.classes)[labels[idx]]
        caches: list = []
        logits = float_forward(net, params, xb, caches)
        delta, loss = softmax_xent_grad(logits, onehot)
        grads = float_backward(net, params, caches, delta)
        for k, g in grads.items():
            params[k] -= lr / batch * g
        if log and (it + 1) % log == 0:
            print(f"  float pretrain iter {it + 1}/{iters} loss {loss:.4f}")
    return params


def fx_train_loop(net, raw_params: dict, images_raw: np.ndarray, labels: np.ndarray,
                  iters: int, batch: int, lr_shift: int = 8, delta_shift: int = 2,
                  batch_seed: int = 2024, params: RingParams | None = None) -> dict:
    """Twin of nn.train_secure: identical batch schedule and roundings."""
    params = params or RingParams()
    raw_params = {k: v.copy() for k, v in raw_params.items()}
    rng = np.random.default_rng(batch_seed)
    n = len(images_raw)
    for _ in range(iters):
        idx = rng.choice(n, size=batch, replace=False)
        onehot = np.eye(net.classes)[labels[idx]]
        caches: list = []
        logits = fx_forward(net, raw_params, images_raw[idx], params, caches)
        delta = fx_loss_grad(logits, onehot, params, scale_shift=delta_shift)
        grads = fx_backward(net, raw_params, caches, delta, params)
        fx_sgd_step(raw_params, grads, lr_shift, params)
    return raw_params


def calibrate_float_params(net, float_params: dict, sample: np.ndarray,
                           limit: float = 10.0) -> dict:
    """Rescale fc/conv layers so pre-activations fit the fixed-point envelope.

    Positive per-layer scaling commutes with ReLU/maxpool and never changes
    the argmax, so predictions are untouched while |values| stay below the
    truncation-safe bound.
    """
    params = {k: v.copy() for k, v in float_params.items()}
    for i, layer in enumerate(net.layers):
        if layer.kind in ("fc", "conv"):
            sub = replace(net, layers=net.layers[: i + 1])
            out = float_forward(sub, params, np.asarray(sample, np.float64))
            peak = np.abs(out).max()
            if peak > limit:
                factor = limit / peak
                params[f"{i}.w"] = params[f"{i}.w"] * factor
                params[f"{i}.b"] = params[f"{i}.b"] * factor
    return params


def float_accuracy(net, float_params: dict, images: np.ndarray, labels: np.ndarray,
                   batch: int = 512) -> float:
    hits = 0
    for k in range(0, len(images), batch):
        logits = float_forward(net, float_params, images[k : k + batch])
        hits += int((logits.argmax(axis=1) == labels[k : k + batch]).sum())
    return hits / len(images)
