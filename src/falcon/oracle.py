"""Trusted plaintext references for every equivalence test.

Three layers:

* plain integer oracles for the comparison/wrap/argmax substrate,
* an exact fixed-point engine (`fx_*`) that reproduces the secure path's
  arithmetic bit for bit, raw values mod 2^ell with the same
  truncation rounding,
* a 64-bit float engine for accuracy comparisons.

Deliberately independent: nothing here imports the protocol suite, so a
divergence is a test failure rather than a shared bug.
"""

from __future__ import annotations

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


def fx_shift_nearest(raw, s: int, params: RingParams) -> np.ndarray:
    """Round-to-nearest rescaling used inside the numeric kernels."""
    if s <= 0:
        return reduce_mod(np.asarray(raw, UINT) << np.uint64(-s), params.L)
    half = np.uint64(1) << np.uint64(s - 1)
    return shift_signed(add_mod(raw, half, params.L), s, params)


def fx_matmul(a, b, params: RingParams) -> np.ndarray:
    """Twin of the secure matmul with its fixed-point rescale."""
    return fx_trunc(matmul_mod(a, b, params.L), params.fp, params)


def fx_relu(raw, params: RingParams) -> np.ndarray:
    return oracle_relu(raw, params)


def fx_drelu(raw, params: RingParams) -> np.ndarray:
    return oracle_drelu(raw, params)


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
    total = reduce_mod(np.asarray(x, UINT).sum(axis=-1, dtype=np.uint64), params.L)
    if m & (m - 1) == 0:
        return fx_rescale(total, int(np.log2(m)), params)
    inv_m = np.uint64(round((1 << params.fp) / m))
    return fx_rescale(mul_mod(inv_m, total, params.L), params.fp, params)


# ---------------------------------------------------------------------------
# float64 engine


def _oracle_im2col(a: np.ndarray, F: int, stride: int, pad: int, Hout: int, Wout: int) -> np.ndarray:
    B, C, H, W = a.shape
    if pad:
        a = np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((C * F * F, B * Hout * Wout), dtype=a.dtype)
    idx = 0
    for c in range(C):
        for i in range(F):
            for j in range(F):
                patch = a[:, c, i : i + stride * Hout : stride, j : j + stride * Wout : stride]
                cols[idx] = patch.reshape(B * Hout * Wout)
                idx += 1
    return cols


def _oracle_col2im(cols: np.ndarray, img_shape, F: int, stride: int, pad: int, mod: int) -> np.ndarray:
    B, C, H, W = img_shape
    Hout = (H - F + 2 * pad) // stride + 1
    Wout = (W - F + 2 * pad) // stride + 1
    out = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=np.uint64)
    idx = 0
    with np.errstate(over="ignore"):
        for c in range(C):
            for i in range(F):
                for j in range(F):
                    patch = cols[idx].reshape(B, Hout, Wout)
                    out[:, c, i : i + stride * Hout : stride, j : j + stride * Wout : stride] += patch
                    idx += 1
    out = out[:, :, pad : pad + H, pad : pad + W] if pad else out
    return reduce_mod(out, mod)


# ---------------------------------------------------------------------------
# fixed-point NN engine (bit-exact twin of falcon.nn)


def fx_forward(net, raw_params: dict, batch_raw: np.ndarray, params: RingParams,
               caches: list | None = None) -> np.ndarray:
    """Plaintext fixed-point forward; optionally records per-layer caches."""
    x = np.asarray(batch_raw, UINT)
    if len(net.input_shape) == 1 and x.ndim != 2:
        x = x.reshape(x.shape[0], -1)
    for i, layer in enumerate(net.layers):
        cache: dict = {}
        x = _fx_layer_forward(layer, raw_params, i, x, params, cache)
        if caches is not None:
            if len(caches) <= i:
                caches.append(cache)
            else:
                caches[i] = cache
    if x.ndim > 2:
        x = x.reshape(x.shape[0], -1)
    return x


def _fx_layer_forward(layer, raw_params, i, x, params: RingParams, cache: dict):
    L = params.L
    if layer.kind == "fc":
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        cache["a_in"] = x
        out = fx_matmul(x, raw_params[f"{i}.w"], params)
        return add_mod(out, raw_params[f"{i}.b"], L)
    if layer.kind == "conv":
        cache["a_in"] = x
        B, C, H, W = x.shape
        F, S, Pd = layer.kernel, layer.stride, layer.pad
        Ho = (H - F + 2 * Pd) // S + 1
        Wo = (W - F + 2 * Pd) // S + 1
        cols = _oracle_im2col(x, F, S, Pd, Ho, Wo)
        wmat = raw_params[f"{i}.w"].reshape(layer.out_ch, C * F * F)
        out = fx_matmul(wmat, cols, params)
        out = out.reshape(layer.out_ch, B, Ho, Wo).transpose(1, 0, 2, 3)
        return add_mod(out, raw_params[f"{i}.b"].reshape(1, -1, 1, 1), L)
    if layer.kind == "relu":
        bits = fx_drelu(x, params)
        cache["drelu"] = bits
        return np.where(bits == 1, x, np.uint64(0))
    if layer.kind == "maxpool":
        B, C, H, W = x.shape
        Ho = (H - layer.window) // layer.stride + 1
        Wo = (W - layer.window) // layer.stride + 1
        wins = _fx_pool_windows(x, layer.window, layer.stride, Ho, Wo)
        best, onehot = fx_maxpool_with_onehot(wins, params)
        cache["onehot"] = onehot
        cache["in_shape"] = (B, C, H, W)
        return best.reshape(B, C, Ho, Wo)
    if layer.kind == "bn":
        grouped, restore = _fx_channels_first(x)
        out, z, inv = fx_batch_norm(grouped, raw_params[f"{i}.gamma"],
                                    raw_params[f"{i}.beta"], params, want_cache=True)
        cache["z"], cache["inv"], cache["m"] = z, inv, grouped.shape[-1]
        return restore(out)
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def _fx_pool_windows(x, window, stride, Ho, Wo):
    B, C, H, W = x.shape
    out = np.empty((B, C, Ho, Wo, window * window), dtype=UINT)
    k = 0
    for i in range(window):
        for j in range(window):
            out[..., k] = x[:, :, i : i + stride * Ho : stride, j : j + stride * Wo : stride]
            k += 1
    return out


def _fx_channels_first(x):
    if x.ndim == 2:
        return x.T, lambda y: y.T
    B, C, H, W = x.shape
    grouped = x.transpose(1, 0, 2, 3).reshape(C, B * H * W)

    def restore(y):
        return y.reshape(C, B, H, W).transpose(1, 0, 2, 3)

    return grouped, restore


def fx_backward(net, raw_params: dict, caches: list, loss_grad_raw: np.ndarray,
                params: RingParams) -> dict:
    grads: dict = {}
    delta = np.asarray(loss_grad_raw, UINT)
    L = params.L
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        cache = caches[i]
        if layer.kind == "fc":
            if delta.ndim > 2:
                delta = delta.reshape(delta.shape[0], -1)
            a_in = cache["a_in"]
            grads[f"{i}.w"] = fx_matmul(a_in.T, delta, params)
            grads[f"{i}.b"] = reduce_mod(delta.sum(axis=0, dtype=np.uint64), L)
            delta = fx_matmul(delta, raw_params[f"{i}.w"].T, params)
        elif layer.kind == "conv":
            a_in = cache["a_in"]
            B, C, H, W = a_in.shape
            F, S, Pd = layer.kernel, layer.stride, layer.pad
            Ho = (H - F + 2 * Pd) // S + 1
            Wo = (W - F + 2 * Pd) // S + 1
            if delta.ndim == 2:
                delta = delta.reshape(B, layer.out_ch, Ho, Wo)
            dmat = delta.transpose(1, 0, 2, 3).reshape(layer.out_ch, -1)
            cols = _oracle_im2col(a_in, F, S, Pd, Ho, Wo)
            grads[f"{i}.w"] = fx_matmul(dmat, cols.T, params).reshape(layer.out_ch, C, F, F)
            grads[f"{i}.b"] = reduce_mod(dmat.sum(axis=-1, dtype=np.uint64), L)
            dcols = fx_matmul(raw_params[f"{i}.w"].reshape(layer.out_ch, -1).T, dmat, params)
            delta = _oracle_col2im(dcols, (B, C, H, W), F, S, Pd, L)
        elif layer.kind == "relu":
            bits = cache["drelu"]
            if bits.shape != delta.shape:
                delta = delta.reshape(bits.shape)
            delta = np.where(bits == 1, delta, np.uint64(0))
        elif layer.kind == "maxpool":
            onehot = cache["onehot"]
            B, C, H, W = cache["in_shape"]
            if delta.ndim == 2:
                delta = delta.reshape(onehot.shape[:-1])
            routed = mul_mod(onehot, delta[..., None], L)
            out = np.zeros((B, C, H, W), dtype=np.uint64)
            k = 0
            Ho, Wo = routed.shape[2], routed.shape[3]
            with np.errstate(over="ignore"):
                for ii in range(layer.window):
                    for jj in range(layer.window):
                        out[:, :, ii : ii + layer.stride * Ho : layer.stride,
                            jj : jj + layer.stride * Wo : layer.stride] += routed[..., k]
                        k += 1
            delta = reduce_mod(out, L)
        elif layer.kind == "bn":
            delta = _fx_bn_backward(layer, raw_params, cache, delta, grads, i, params)
    return grads


def _fx_bn_backward(layer, raw_params, cache, delta, grads, i, params: RingParams):
    fp = params.fp
    L = params.L
    z, inv, m = cache["z"], cache["inv"], cache["m"]
    grouped, restore = _fx_channels_first(delta)
    dy = grouped
    dyz = fx_trunc(mul_mod(dy, z, L), fp, params)
    sum_dy = reduce_mod(dy.sum(axis=-1, dtype=np.uint64), L)
    sum_dyz = reduce_mod(dyz.sum(axis=-1, dtype=np.uint64), L)
    grads[f"{i}.gamma"] = sum_dyz
    grads[f"{i}.beta"] = sum_dy
    # the means come before the products: dy - mean(dy) - z * mean(dy*z)
    mean_dy, mean_dyz = fx_trunc(np.stack([sum_dy, sum_dyz]), int(np.log2(m)), params)
    zs = fx_trunc(mul_mod(z, mean_dyz[..., None], L), fp, params)
    t = sub_mod(sub_mod(dy, mean_dy[..., None], L), zs, L)
    g_inv = fx_trunc(mul_mod(raw_params[f"{i}.gamma"], inv, L), fp, params)
    out = fx_trunc(mul_mod(g_inv[..., None], t, L), fp, params)
    return restore(out)


def fx_sgd_step(raw_params: dict, grads: dict, lr_shift: int, params: RingParams):
    for name, g in grads.items():
        step = fx_shift_nearest(g, lr_shift, params)
        raw_params[name] = sub_mod(raw_params[name], step, params.L)


def fx_loss_grad(logits_raw: np.ndarray, onehot: np.ndarray, params: RingParams,
                 scale_shift: int = 0) -> np.ndarray:
    """Twin of the secure ASM loss gradient."""
    fp = params.fp
    L = params.L
    B, classes = logits_raw.shape
    r = fx_relu(logits_raw, params)
    total = reduce_mod(r.sum(axis=-1, dtype=np.uint64), L)
    pos = fx_drelu(add_mod(total, reduce_mod(-1, L), L), params)
    one = np.uint64(1 << fp)
    denom = np.where(pos == 1, total, one)
    recip = fx_divide(np.full(B, one), denom, params, a_max_bits=fp + 1)
    probs = fx_trunc(mul_mod(r, recip[..., None], L), fp, params)
    uniform = np.uint64(round((1 << fp) / classes))
    phat = np.where(pos[..., None] == 1, probs, uniform)
    onehot_raw = encode_fixed(np.asarray(onehot, np.float64), params)
    delta = sub_mod(phat, onehot_raw, L)
    if scale_shift:
        delta = fx_shift_nearest(delta, scale_shift, params)
    return delta


# ---------------------------------------------------------------------------
# float64 engine


def float_forward(net, float_params: dict, batch: np.ndarray, caches: list | None = None) -> np.ndarray:
    """64-bit float reference forward pass over the same declarative spec."""
    x = np.asarray(batch, np.float64)
    if len(net.input_shape) == 1 and x.ndim != 2:
        x = x.reshape(x.shape[0], -1)
    for i, layer in enumerate(net.layers):
        cache: dict = {}
        if layer.kind == "fc":
            if x.ndim > 2:
                x = x.reshape(x.shape[0], -1)
            cache["a_in"] = x
            x = x @ float_params[f"{i}.w"] + float_params[f"{i}.b"]
        elif layer.kind == "conv":
            cache["a_in"] = x
            x = float_conv2d(x, float_params[f"{i}.w"], float_params[f"{i}.b"],
                             stride=layer.stride, padding=layer.pad)
        elif layer.kind == "relu":
            cache["mask"] = x > 0
            x = np.maximum(x, 0.0)
        elif layer.kind == "maxpool":
            cache["a_in"] = x
            x = float_maxpool(x, layer.window, layer.stride)
            cache["out"] = x
        elif layer.kind == "bn":
            g, restore = (x.T, lambda y: y.T) if x.ndim == 2 else _float_group(x)
            mu = g.mean(axis=-1, keepdims=True)
            var = g.var(axis=-1, keepdims=True)
            zed = (g - mu) / np.sqrt(var + 2.0**-10)
            cache["z"], cache["var"] = zed, var
            x = restore(float_params[f"{i}.gamma"][:, None] * zed + float_params[f"{i}.beta"][:, None])
        if caches is not None:
            if len(caches) <= i:
                caches.append(cache)
            else:
                caches[i] = cache
    if x.ndim > 2:
        x = x.reshape(x.shape[0], -1)
    return x


def _float_group(x):
    B, C, H, W = x.shape
    return x.transpose(1, 0, 2, 3).reshape(C, -1), (
        lambda y: y.reshape(C, B, H, W).transpose(1, 0, 2, 3)
    )


def float_conv2d(img, kern, bias, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Reference convolution: img (B,Cin,H,W), kern (Cout,Cin,F,F)."""
    img = np.asarray(img, np.float64)
    kern = np.asarray(kern, np.float64)
    B, Cin, H, W = img.shape
    Cout, _, F, _ = kern.shape
    Hout = (H - F + 2 * padding) // stride + 1
    Wout = (W - F + 2 * padding) // stride + 1
    if padding:
        img = np.pad(img, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((B, Cout, Hout, Wout))
    for i in range(Hout):
        for j in range(Wout):
            patch = img[:, :, i * stride : i * stride + F, j * stride : j * stride + F]
            out[:, :, i, j] = np.einsum("bcij,ocij->bo", patch, kern)
    if bias is not None:
        out += np.asarray(bias, np.float64).reshape(1, Cout, 1, 1)
    return out


def float_maxpool(img, window: int, stride: int) -> np.ndarray:
    B, C, H, W = img.shape
    Hout = (H - window) // stride + 1
    Wout = (W - window) // stride + 1
    out = np.zeros((B, C, Hout, Wout))
    for i in range(Hout):
        for j in range(Wout):
            patch = img[:, :, i * stride : i * stride + window, j * stride : j * stride + window]
            out[:, :, i, j] = patch.max(axis=(2, 3))
    return out


def float_backward(net, float_params: dict, caches: list, loss_grad: np.ndarray) -> dict:
    grads: dict = {}
    delta = np.asarray(loss_grad, np.float64)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        cache = caches[i]
        if layer.kind == "fc":
            if delta.ndim > 2:
                delta = delta.reshape(delta.shape[0], -1)
            a_in = cache["a_in"]
            grads[f"{i}.w"] = a_in.T @ delta
            grads[f"{i}.b"] = delta.sum(axis=0)
            delta = delta @ float_params[f"{i}.w"].T
        elif layer.kind == "conv":
            a_in = cache["a_in"]
            B, C, H, W = a_in.shape
            F, S, Pd = layer.kernel, layer.stride, layer.pad
            Ho = (H - F + 2 * Pd) // S + 1
            Wo = (W - F + 2 * Pd) // S + 1
            if delta.ndim == 2:
                delta = delta.reshape(B, layer.out_ch, Ho, Wo)
            dmat = delta.transpose(1, 0, 2, 3).reshape(layer.out_ch, -1)
            cols = _oracle_im2col(a_in, F, S, Pd, Ho, Wo)
            grads[f"{i}.w"] = (dmat @ cols.T).reshape(layer.out_ch, C, F, F)
            grads[f"{i}.b"] = dmat.sum(axis=-1)
            dcols = float_params[f"{i}.w"].reshape(layer.out_ch, -1).T @ dmat
            out = np.zeros((B, C, H + 2 * Pd, W + 2 * Pd))
            idx = 0
            for c in range(C):
                for ii in range(F):
                    for jj in range(F):
                        out[:, c, ii : ii + S * Ho : S, jj : jj + S * Wo : S] += dcols[idx].reshape(B, Ho, Wo)
                        idx += 1
            delta = out[:, :, Pd : Pd + H, Pd : Pd + W] if Pd else out
        elif layer.kind == "relu":
            if cache["mask"].shape != delta.shape:
                delta = delta.reshape(cache["mask"].shape)
            delta = delta * cache["mask"]
        elif layer.kind == "maxpool":
            a_in, out = cache["a_in"], cache["out"]
            B, C, H, W = a_in.shape
            Ho, Wo = out.shape[2], out.shape[3]
            if delta.ndim == 2:
                delta = delta.reshape(out.shape)
            dx = np.zeros_like(a_in)
            routed = np.zeros((B, C, Ho, Wo), bool)  # earliest-tie routing
            for ii in range(layer.window):
                for jj in range(layer.window):
                    patch = a_in[:, :, ii : ii + layer.stride * Ho : layer.stride,
                                 jj : jj + layer.stride * Wo : layer.stride]
                    hit = (patch == out) & ~routed
                    routed |= hit
                    dx[:, :, ii : ii + layer.stride * Ho : layer.stride,
                       jj : jj + layer.stride * Wo : layer.stride] += hit * delta
            delta = dx
        elif layer.kind == "bn":
            z, var = cache["z"], cache["var"]
            g, restore = (delta.T, lambda y: y.T) if delta.ndim == 2 else _float_group(delta)
            m = g.shape[-1]
            grads[f"{i}.gamma"] = (g * z).sum(axis=-1)
            grads[f"{i}.beta"] = g.sum(axis=-1)
            inv = 1.0 / np.sqrt(var + 2.0**-10)
            gamma = float_params[f"{i}.gamma"][:, None]
            t = m * g - g.sum(axis=-1, keepdims=True) - z * (g * z).sum(axis=-1, keepdims=True)
            delta = restore(gamma * inv * t / m)
    return grads


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
            sub = NetworkishSlice(net.layers[: i + 1], net.input_shape)
            out = float_forward(sub, params, np.asarray(sample, np.float64))
            peak = np.abs(out).max()
            if peak > limit:
                factor = limit / peak
                params[f"{i}.w"] = params[f"{i}.w"] * factor
                params[f"{i}.b"] = params[f"{i}.b"] * factor
    return params


class NetworkishSlice:
    """A network prefix, enough for float_forward."""

    def __init__(self, layers, input_shape):
        self.layers = layers
        self.input_shape = input_shape
        self.classes = 0
        self.name = "slice"


def float_accuracy(net, float_params: dict, images: np.ndarray, labels: np.ndarray,
                   batch: int = 512) -> float:
    hits = 0
    for k in range(0, len(images), batch):
        logits = float_forward(net, float_params, images[k : k + batch])
        hits += int((logits.argmax(axis=1) == labels[k : k + batch]).sum())
    return hits / len(images)
