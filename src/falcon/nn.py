"""Secure neural-network engine: forward, backward, SGD, loss gradient.

Layers evaluate batch-first: images as (B, C, H, W) shares, flat
activations as (B, D). The forward pass caches whatever the backward pass
reuses, mirroring the fused forward/backward optimization of the cost
model: ReLU derivative bits and maxpool keep bits, both over Z_L so that
each backward use is one multiplication, and batch-norm normalized
activations and inverse sigma. Learning rates are powers of two; an SGD
step is a subtraction after an arithmetic shift of the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import FormatError, load_tensors, save_tensors
from .netspec import LayerSpec, NetworkSpec, init_float_params, param_shapes, _propagate
from .numeric import divide, rescale
from .protocols import (
    _im2col,
    col2im,
    conv2d,
    drelu_lifted,
    matmul,
    maxpool_argmax,
    maxpool_route,
    mult,
    relu,
    select_shares,
    truncate,
)
from .numeric import batch_norm_forward
from .rings import UINT, RingError, RingParams, encode_fixed, reduce_mod, signed
from .rss import (
    RssShare,
    add_public,
    add_shares,
    broadcast_share,
    concat_shares,
    expand_last,
    public_share,
    share_secret,
    sub_shares,
    sum_share,
)
from .session import PartySession, open_share


class MissingCacheError(RuntimeError):
    """backward() requires the caches of the most recent forward()."""


@dataclass
class LayerState:
    params: dict = field(default_factory=dict)  # name -> RssShare
    cache: dict = field(default_factory=dict)   # forward intermediates


@dataclass
class NetState:
    net: NetworkSpec
    layers: list  # of LayerState


def transpose(x: RssShare) -> RssShare:
    return RssShare(x.lo.T, x.hi.T, x.mod)


def init_state(sess: PartySession, net: NetworkSpec, float_params: dict | None = None,
               seed: int = 0) -> NetState:
    """Share the (possibly imported) float parameters under fixed-point encoding."""
    if float_params is None:
        float_params = init_float_params(net, seed)
    raws = {k: encode_fixed(v, sess.params) for k, v in float_params.items()}
    return share_weights(sess, net, raws)


def share_weights(sess: PartySession, net: NetworkSpec, raws: dict) -> NetState:
    """Share raw ring weights {"<layer>.<param>": array} layer by layer, in
    parameter order, from the session's shared rng."""
    layers = []
    shape = tuple(net.input_shape)
    for i, layer in enumerate(net.layers):
        st = LayerState()
        for name in param_shapes(layer, shape):
            st.params[name] = share_secret(raws[f"{i}.{name}"], sess.params.L,
                                           sess.shared_rng)[sess.party.index - 1]
        layers.append(st)
        shape = _propagate(layer, shape, i)
    return NetState(net, layers)


# ---------------------------------------------------------------------------
# forward


def forward(sess: PartySession, state: NetState, batch: RssShare) -> RssShare:
    """Secure forward pass; returns logits (B, classes) and fills caches,
    each with the shape its layer's gradient arrives in."""
    x = batch
    if len(state.net.input_shape) == 1 and x.lo.ndim != 2:
        x = x.reshape(x.shape[0], -1)
    for layer, st in zip(state.net.layers, state.layers):
        st.cache = {}
        x = _layer_forward(sess, layer, st, x)
        st.cache["out_shape"] = x.shape
    if x.lo.ndim > 2:
        x = x.reshape(x.shape[0], -1)
    return x


def _layer_forward(sess: PartySession, layer: LayerSpec, st: LayerState, x: RssShare) -> RssShare:
    if layer.kind == "fc":
        if x.lo.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        st.cache["a_in"] = x
        out = matmul(sess, x, st.params["w"], truncate_after=True)
        return add_shares(out, broadcast_share(st.params["b"], out.shape))
    if layer.kind == "conv":
        st.cache["a_in"] = x
        return conv2d(sess, x, st.params["w"], st.params["b"],
                      stride=layer.stride, padding=layer.pad)
    if layer.kind == "relu":
        st.cache["drelu"] = bit = drelu_lifted(sess, x)
        return mult(sess, x, bit)
    if layer.kind == "maxpool":
        B, C, H, W = x.shape
        Ho = (H - layer.window) // layer.stride + 1
        Wo = (W - layer.window) // layer.stride + 1
        windows = _pool_windows(x, layer.window, layer.stride, Ho, Wo)
        mx, path = maxpool_argmax(sess, windows)
        st.cache["path"] = path
        st.cache["in_shape"] = (B, C, H, W)
        return mx.reshape(B, C, Ho, Wo)
    if layer.kind == "bn":
        grouped, restore = _channels_first(x)
        out, z, inv = batch_norm_forward(sess, grouped, st.params["gamma"], st.params["beta"])
        st.cache["z"] = z
        st.cache["inv"] = inv
        st.cache["m"] = grouped.shape[-1]
        return restore(out)
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def _pool_windows(x: RssShare, window: int, stride: int, Ho: int, Wo: int) -> RssShare:
    """(B, C, Ho, Wo, window*window) view of the pooling windows."""
    B, C = x.shape[:2]

    def gather(a):
        cols = _im2col(a, window, stride, 0, Ho, Wo)
        return cols.reshape(C, window * window, B, Ho, Wo).transpose(2, 0, 3, 4, 1)

    return RssShare(gather(x.lo), gather(x.hi), x.mod)


def _channels_first(x: RssShare):
    """Group activations per channel/feature: (C, B*spatial) plus a restorer."""
    B, C = x.shape[:2]
    moved = (C, B) + x.shape[2:]

    def group(a):
        return np.moveaxis(a, 1, 0).reshape(C, -1)

    def restore(y: RssShare) -> RssShare:
        return RssShare(np.moveaxis(y.lo.reshape(moved), 0, 1),
                        np.moveaxis(y.hi.reshape(moved), 0, 1), y.mod)

    return RssShare(group(x.lo), group(x.hi), x.mod), restore


# ---------------------------------------------------------------------------
# backward


def backward(sess: PartySession, state: NetState, loss_grad: RssShare) -> dict:
    """Chain rule through the cached forward pass; returns {layer.param: grad}."""
    grads: dict = {}
    delta = loss_grad
    for i in range(len(state.net.layers) - 1, -1, -1):
        st = state.layers[i]
        if "out_shape" not in st.cache:
            raise MissingCacheError("forward() must run before backward()")
        delta = delta.reshape(st.cache["out_shape"])
        delta = _layer_backward(sess, state.net.layers[i], st, delta, grads, i)
    return grads


def _layer_backward(sess: PartySession, layer: LayerSpec, st: LayerState, delta: RssShare,
                    grads: dict, idx: int) -> RssShare:
    """delta arrives in the layer's output shape; returns it for the input."""
    if layer.kind == "fc":
        grads[f"{idx}.w"] = matmul(sess, transpose(st.cache["a_in"]), delta, truncate_after=True)
        grads[f"{idx}.b"] = sum_share(delta, 0)
        return matmul(sess, delta, transpose(st.params["w"]), truncate_after=True)
    if layer.kind == "conv":
        a_in = st.cache["a_in"]
        B, C, H, W = a_in.shape
        _, Cout, Ho, Wo = delta.shape
        F, S, Pd = layer.kernel, layer.stride, layer.pad
        dmat, _ = _channels_first(delta)  # (Cout, B*Ho*Wo)
        cols = RssShare(_im2col(a_in.lo, F, S, Pd, Ho, Wo), _im2col(a_in.hi, F, S, Pd, Ho, Wo), a_in.mod)
        dw = matmul(sess, dmat, transpose(cols), truncate_after=True)
        grads[f"{idx}.w"] = dw.reshape(Cout, C, F, F)
        grads[f"{idx}.b"] = sum_share(dmat, -1)
        dcols = matmul(sess, transpose(st.params["w"].reshape(Cout, C * F * F)), dmat,
                       truncate_after=True)
        dx_lo = col2im(dcols.lo, (B, C, H, W), F, S, Pd, a_in.mod)
        dx_hi = col2im(dcols.hi, (B, C, H, W), F, S, Pd, a_in.mod)
        return RssShare(dx_lo, dx_hi, a_in.mod)
    if layer.kind == "relu":
        return mult(sess, delta, st.cache["drelu"])
    if layer.kind == "maxpool":
        B, C, H, W = st.cache["in_shape"]
        routed = maxpool_route(sess, st.cache["path"], delta)  # (B, C, Ho, Wo, F*F)

        def scatter(a):  # adjoint of _pool_windows
            cols = a.transpose(1, 4, 0, 2, 3).reshape(C * layer.window ** 2, -1)
            return col2im(cols, (B, C, H, W), layer.window, layer.stride, 0, delta.mod)

        return RssShare(scatter(routed.lo), scatter(routed.hi), delta.mod)
    if layer.kind == "bn":
        return _bn_backward(sess, st, delta, grads, idx)
    raise ValueError(f"unknown layer kind {layer.kind!r}")


def _bn_backward(sess: PartySession, st: LayerState, delta: RssShare, grads: dict,
                 idx: int) -> RssShare:
    """Standard batch-norm gradient from the cached z and 1/sigma.

    dx = gamma * inv * (dy - mean(dy) - z * mean(dy*z)); the means are taken
    before the products so every truncation input stays inside the envelope.
    """
    fp = sess.params.fp
    z, inv, m = st.cache["z"], st.cache["inv"], st.cache["m"]
    if m & (m - 1):
        raise ValueError("bn training requires a power-of-two group size")
    dy, restore = _channels_first(delta)  # (C, m)
    dyz = truncate(sess, mult(sess, dy, z), fp)
    sum_dy = sum_share(dy, -1)
    sum_dyz = sum_share(dyz, -1)
    grads[f"{idx}.gamma"] = sum_dyz
    grads[f"{idx}.beta"] = sum_dy
    C = sum_dy.shape[0]
    means = truncate(sess, concat_shares([sum_dy, sum_dyz]), int(np.log2(m)))
    mean_dy, mean_dyz = means[:C], means[C:]
    zs = truncate(sess, mult(sess, z, expand_last(mean_dyz, z.shape)), fp)
    t = sub_shares(sub_shares(dy, expand_last(mean_dy, dy.shape)), zs)
    g_inv = truncate(sess, mult(sess, st.params["gamma"], inv), fp)  # (C,)
    out = truncate(sess, mult(sess, expand_last(g_inv, t.shape), t), fp)
    return restore(out)


# ---------------------------------------------------------------------------
# SGD and the loss gradient


def sgd_step(sess: PartySession, state: NetState, grads: dict, lr_shift: int):
    """w <- w - grad / 2^{lr_shift} (power-of-two learning rate).

    The shift rounds to nearest: a floor here would bias every weight
    downward by half an ulp per step and destabilize long runs.
    """
    names = []
    parts = []
    for i, st in enumerate(state.layers):
        for name in st.params:
            g = grads.get(f"{i}.{name}")
            if g is None:
                continue
            names.append((i, name))
            parts.append(g)
    if not parts:
        return
    flat = concat_shares([g.reshape(-1) for g in parts])
    stepped = rescale(sess, flat, np.int64(lr_shift), nearest=True)
    offset = 0
    for (i, name), g in zip(names, parts):
        n = int(np.prod(g.shape, dtype=int))
        step = stepped[offset : offset + n].reshape(g.shape)
        offset += n
        state.layers[i].params[name] = sub_shares(state.layers[i].params[name], step)


def loss_grad_approx(sess: PartySession, logits: RssShare, onehot: np.ndarray,
                     scale_shift: int = 0) -> RssShare:
    """delta = (ASM(logits) - onehot) / 2^{scale_shift}.

    ASM(x)_i = relu(x_i)/sum_j relu(x_j); the all-nonpositive fallback
    (uniform 1/classes) is selected obliviously, so no sample-dependent
    branching happens in the clear. scale_shift carries the batch-mean
    factor of the loss (and any extra damping) at nearest rounding,
    keeping batch-summed backward products inside the safe envelope.
    """
    params = sess.params
    fp = params.fp
    B, classes = logits.shape
    r = relu(sess, logits)
    total = sum_share(r, -1)  # (B,)
    # one lifted positivity bit steers both selections
    pos = drelu_lifted(sess, add_public(sess.party, total, reduce_mod(-1, params.L)))
    one = public_share(sess.party, np.uint64(1 << fp), params.L, shape=(B,))
    denom = select_shares(sess, one, total, pos)
    recip = divide(sess, one, denom, a_max_bits=fp + 1)
    probs = truncate(sess, mult(sess, r, expand_last(recip, r.shape)), fp)
    uniform = public_share(sess.party, np.uint64(round((1 << fp) / classes)),
                           params.L, shape=r.shape)
    phat = select_shares(sess, uniform, probs, pos)
    onehot_raw = reduce_mod(-encode_fixed(np.asarray(onehot, np.float64), params).astype(np.int64),
                            params.L)
    delta = add_public(sess.party, phat, onehot_raw)
    if scale_shift:
        delta = rescale(sess, delta, np.int64(scale_shift), nearest=True)
    return delta


# ---------------------------------------------------------------------------
# training loop (the fx twin replays the same schedule bit for bit)


def train_secure(sess: PartySession, net: NetworkSpec, images_raw: np.ndarray,
                 labels: np.ndarray, iters: int, batch: int, lr_shift: int = 8,
                 delta_shift: int = 2, batch_seed: int = 2024, init_seed: int = 3,
                 log=None) -> NetState:
    """Secure SGD over a public-to-the-operator dataset (harness convention).

    Batch order, initialization and every rounding are deterministic, so
    the plaintext fixed-point twin trained with the same seeds must end
    with bit-identical weights.
    """
    state = init_state(sess, net, seed=init_seed)
    rng = np.random.default_rng(batch_seed)
    n = len(images_raw)
    for it in range(iters):
        idx = rng.choice(n, size=batch, replace=False)
        xb = share_secret(images_raw[idx], sess.params.L, sess.shared_rng)[sess.party.index - 1]
        onehot = np.eye(net.classes)[labels[idx]]
        logits = forward(sess, state, xb)
        delta = loss_grad_approx(sess, logits, onehot, scale_shift=delta_shift)
        grads = backward(sess, state, delta)
        sgd_step(sess, state, grads, lr_shift)
        if log and (it + 1) % log == 0 and sess.party.index == 1:
            print(f"  secure sgd iteration {it + 1}/{iters}")
    return state


def open_params(sess: PartySession, state: NetState) -> dict:
    return {
        f"{i}.{name}": open_share(sess, st.params[name])
        for i, st in enumerate(state.layers)
        for name in st.params
    }


def secure_predict(sess: PartySession, state: NetState, images_raw: np.ndarray) -> np.ndarray:
    """Argmax predictions over a public evaluation slice, 250 images a batch."""
    outs = []
    for k in range(0, len(images_raw), 250):
        xb = share_secret(images_raw[k : k + 250], sess.params.L,
                          sess.shared_rng)[sess.party.index - 1]
        logits = open_share(sess, forward(sess, state, xb))
        outs.append(signed(logits, sess.params).argmax(axis=1))
    return np.concatenate(outs)


# ---------------------------------------------------------------------------
# checkpoints: the tensor container with the ring as one more entry


CKPT_MAGIC = b"FALCKPT2"


def save_checkpoint(path: str, raw_params: dict, params: RingParams):
    # parameter names are "<layer>.<param>", so "ring" cannot collide
    tensors = {name: np.asarray(arr, UINT) for name, arr in raw_params.items()}
    tensors["ring"] = np.array([params.ell, params.p, params.fp], UINT)
    save_tensors(path, tensors, CKPT_MAGIC)


def load_checkpoint(path: str) -> tuple[dict, RingParams]:
    tensors = load_tensors(path, CKPT_MAGIC)
    ring = tensors.pop("ring", None)
    if ring is None or ring.shape != (3,):
        raise FormatError(f"{path}: no [ell, p, fp] ring entry")
    try:
        params = RingParams(ell=int(ring[0]), fp=int(ring[2]))
    except RingError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return tensors, params
