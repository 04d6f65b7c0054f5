"""Online protocol suite over replicated shares.

Multiplication with resharing, matrix/convolution variants, exact
truncation from preprocessed pairs, oblivious selection, private compare,
the three-operand wrap bit, ReLU/DReLU and maxpool with argmax. Each
protocol works elementwise over arbitrary array shapes and runs under
either threat model of the session.

Round structure is explicit: every Round object is one synchronization
step of the cost model, and independent messages share a Round wherever
the analytic round counts require it (e.g. the wrap protocol opens r in
the same step that reshares the flipped compare bits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rings import (
    UINT,
    add_mod,
    matmul_mod,
    mul_mod,
    reduce_mod,
    shift_signed,
    sub_mod,
    wrap2,
    wrap3_exact,
)
from .rss import (
    RssShare,
    add_public,
    add_shares,
    broadcast_share,
    concat_shares,
    expand_last,
    neg_share,
    public_share,
    scale_share,
    sub_shares,
)
from .session import PartySession, Round, open_begin, open_share, reshare_begin

reconstruct = open_share


# ---------------------------------------------------------------------------
# multiplication family


def _cross_terms(x: RssShare, y: RssShare) -> np.ndarray:
    # z_i = x_i y_i + x_{i+1} y_i + x_i y_{i+1}
    m = x.mod
    return add_mod(add_mod(mul_mod(x.lo, y.lo, m), mul_mod(x.hi, y.lo, m), m),
                   mul_mod(x.lo, y.hi, m), m)


def mult_begin(sess: PartySession, x: RssShare, y: RssShare, rnd: Round):
    if x.mod != y.mod:
        raise ValueError("modulus mismatch in mult")
    lo_x, lo_y = np.broadcast_arrays(x.lo, y.lo)
    hi_x, hi_y = np.broadcast_arrays(x.hi, y.hi)
    xb = RssShare(lo_x, hi_x, x.mod)
    yb = RssShare(lo_y, hi_y, y.mod)
    z = _cross_terms(xb, yb)
    return reshare_begin(sess, z, x.mod, rnd)


def mult(sess: PartySession, x: RssShare, y: RssShare) -> RssShare:
    """Share of x*y (no truncation); one round, one reshared element each."""
    rnd = Round(sess, "mult")
    fin = mult_begin(sess, x, y, rnd)
    return fin(rnd.run())


def matmul(sess: PartySession, x: RssShare, y: RssShare, truncate_after: bool = False) -> RssShare:
    """Share of the matrix product X @ Y; fixed-point rescale when asked."""
    if x.mod != y.mod:
        raise ValueError("modulus mismatch in matmul")
    if x.lo.ndim != 2 or y.lo.ndim != 2 or x.shape[1] != y.shape[0]:
        raise ValueError(f"matmul shape mismatch: {x.shape} @ {y.shape}")
    m = x.mod
    z = add_mod(add_mod(matmul_mod(x.lo, y.lo, m), matmul_mod(x.hi, y.lo, m), m),
                matmul_mod(x.lo, y.hi, m), m)
    rnd = Round(sess, "matmul")
    fin = reshare_begin(sess, z, m, rnd)
    out = fin(rnd.run())
    if truncate_after:
        out = truncate(sess, out, sess.params.fp)
    return out


def truncate(sess: PartySession, x: RssShare, d) -> RssShare:
    """Arithmetic shift of the shared value by d bits, exact via a trunc pair.

    Opens x - r and adds the preshifted r' locally; d may vary per element
    (public). Exact for |signed(x)| < 2^{ell-2}; outside that precondition
    the value is undefined (documented, not checked - the value is secret).
    """
    d = np.broadcast_to(np.asarray(d, np.int64), x.shape)
    n = int(np.prod(x.shape, dtype=int))
    pair = sess.prep.trunc_pairs(n, d.reshape(n) if d.ndim else d).reshape(x.shape)
    if not np.array_equal(np.broadcast_to(np.asarray(pair.d), x.shape), d):
        raise ValueError("trunc pair shift does not match the requested shift")
    y = open_share(sess, sub_shares(x, pair.r))
    shifted = shift_signed(y, d, sess.params)
    return add_public(sess.party, pair.r_shift, shifted)


def conv2d(sess: PartySession, img: RssShare, weights: RssShare, bias: RssShare,
           stride: int = 1, padding: int = 0) -> RssShare:
    """Convolution via im2col + matmul, rescaled to the fixed-point format.

    img is (B, Cin, H, W), weights (Cout, Cin, F, F), bias (Cout,).
    Output (B, Cout, Hout, Wout) with Hout = (H - F + 2P)/S + 1.
    """
    B, Cin, H, W = img.shape
    Cout, Cin2, F, _ = weights.shape
    if Cin != Cin2:
        raise ValueError("channel mismatch between image and kernel")
    # floor output size (partial final strides are dropped, the usual conv rule)
    Hout = (H - F + 2 * padding) // stride + 1
    Wout = (W - F + 2 * padding) // stride + 1
    if Hout <= 0 or Wout <= 0:
        raise ValueError("kernel larger than the padded input")

    cols_lo = _im2col(img.lo, F, stride, padding, Hout, Wout)
    cols_hi = _im2col(img.hi, F, stride, padding, Hout, Wout)
    cols = RssShare(cols_lo, cols_hi, img.mod)  # (Cin*F*F, B*Hout*Wout)
    wmat = weights.reshape(Cout, Cin * F * F)
    out = matmul(sess, wmat, cols, truncate_after=True)
    out = out.reshape(Cout, B, Hout, Wout)
    out = RssShare(out.lo.transpose(1, 0, 2, 3), out.hi.transpose(1, 0, 2, 3), img.mod)
    return add_shares(out, broadcast_share(bias.reshape(1, Cout, 1, 1), out.shape))


def _im2col(a: np.ndarray, F: int, stride: int, pad: int, Hout: int, Wout: int) -> np.ndarray:
    B, C, H, W = a.shape
    if pad:
        a = np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((C * F * F, B * Hout * Wout), dtype=UINT)
    idx = 0
    for c in range(C):
        for i in range(F):
            for j in range(F):
                patch = a[:, c, i : i + stride * Hout : stride, j : j + stride * Wout : stride]
                cols[idx] = patch.reshape(B * Hout * Wout)
                idx += 1
    return cols


def col2im(cols: np.ndarray, img_shape, F: int, stride: int, pad: int, mod: int) -> np.ndarray:
    """Adjoint of _im2col: scatter-add column gradients back to image layout."""
    B, C, H, W = img_shape
    Hout = (H - F + 2 * pad) // stride + 1
    Wout = (W - F + 2 * pad) // stride + 1
    out = np.zeros((B, C, H + 2 * pad, W + 2 * pad), dtype=UINT)
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
# bit plumbing


def xor_public(sess: PartySession, x: RssShare, b) -> RssShare:
    """Share of x XOR b for a public bit (array) b: y = x + b - 2bx, local."""
    b = reduce_mod(np.asarray(b), x.mod)
    scale = sub_mod(1, mul_mod(2, b, x.mod), x.mod)  # 1 - 2b
    lo = mul_mod(scale, x.lo, x.mod)
    hi = mul_mod(scale, x.hi, x.mod)
    return add_public(sess.party, RssShare(lo, hi, x.mod), b)


def one_minus_two_beta(sess: PartySession, beta: RssShare) -> RssShare:
    """Share of (-1)^beta = 1 - 2*beta (local)."""
    neg2 = sub_mod(0, 2, beta.mod)
    return add_public(sess.party, scale_share(neg2, beta), np.uint64(1))


def flip_by_bit(sess: PartySession, x: RssShare, beta: RssShare) -> RssShare:
    """Share of (-1)^beta * x; one multiplication round."""
    return mult(sess, one_minus_two_beta(sess, beta), x)


def select_shares(sess: PartySession, x: RssShare, y: RssShare, b: RssShare) -> RssShare:
    """z = x when b = 0, y when b = 1; consumes one random bit pair per bit.

    b's shape is a leading prefix of y's, so one bit may steer a whole
    trailing block. Opens e = b xor c, swaps the arithmetic bit c
    accordingly, then one multiplication: z = (y - x) * d + x. Two rounds.
    """
    if b.mod != 2:
        raise ValueError("selection bit must be shared over Z_2")
    if y.shape[: len(b.shape)] != b.shape:
        raise ValueError(f"selection bit shape {b.shape} is not a prefix of {y.shape}")
    n = int(np.prod(b.shape, dtype=int))
    pair = sess.prep.bit_pairs(n).reshape(b.shape)
    e = open_share(sess, add_shares(b, pair.c2))  # b xor c
    d = xor_public(sess, pair.cL, e)
    d = d.reshape(b.shape + (1,) * (len(y.shape) - len(b.shape)))
    dxy = mult(sess, sub_shares(y, x), broadcast_share(d, y.shape))
    return add_shares(dxy, x)


# ---------------------------------------------------------------------------
# private compare


def private_compare(sess: PartySession, xbits: RssShare, t, crand=None,
                    flipped=None, t_top=None, reveal_sink: list | None = None) -> RssShare:
    """Share over Z_2 of the bit (x >= t) for public t in [0, 2^ell].

    xbits holds the little-endian bits of x over Z_p, shape (n, ell). The
    c-vector is extended by a virtual bit position ell (so the wrap
    protocol may pass t = r + 1 up to 2^ell; t_top carries that bit when
    given) and by one factor (1 - beta) + sum(w) that covers equality
    under beta = 1. All factors stay below p, the masked product is
    revealed, and the blinding bit is removed with a local XOR.
    """
    params = sess.params
    ell = params.ell
    n, nb = xbits.shape
    if nb != ell:
        raise ValueError(f"expected {ell} shared bits, got {nb}")
    t = np.asarray(t, dtype=np.uint64).reshape(n)
    if t_top is None:
        if ell == 64:
            raise ValueError("ell = 64 requires an explicit t_top bit")
        t_top = ((t >> np.uint64(ell)) & np.uint64(1)).astype(UINT)
        if np.any(t >> np.uint64(ell) > 1):
            raise ValueError("public operand exceeds 2^ell")
    else:
        t_top = np.asarray(t_top, dtype=np.uint64).reshape(n)
    if crand is None:
        crand = sess.prep.compare_rands(n)

    if flipped is None:
        s = one_minus_two_beta(sess, crand.beta_p)
        v = mult(sess, expand_last(s, xbits.shape), xbits)
    else:
        v = flipped  # (-1)^beta * x[i], staged by the caller's round
    return _pc_core(sess, xbits, v, t, t_top, crand, reveal_sink)


def pc_flip_begin(sess: PartySession, xbits: RssShare, crand, rnd: Round):
    """Stage the (-1)^beta * x[i] multiplication into an existing round."""
    s = one_minus_two_beta(sess, crand.beta_p)
    return mult_begin(sess, expand_last(s, xbits.shape), xbits, rnd)


def _pc_core(sess: PartySession, xbits: RssShare, v: RssShare, t: np.ndarray,
             t_top: np.ndarray, crand, reveal_sink: list | None = None) -> RssShare:
    params = sess.params
    p, ell = params.p, params.ell
    n = xbits.shape[0]
    shifts = np.arange(ell, dtype=np.uint64)
    low = reduce_mod(t, params.L)
    tbits = np.concatenate(
        [((low[:, None] >> shifts) & np.uint64(1)).astype(UINT), t_top[:, None]], axis=1
    )  # (n, ell+1)

    s = one_minus_two_beta(sess, crand.beta_p).reshape(n, 1)
    # u[i] = v[i] - t[i] * s, with the virtual top bit using x[ell] = 0
    u_lo = sub_mod(v.lo, mul_mod(tbits[:, :ell], s.lo, p), p)
    u_hi = sub_mod(v.hi, mul_mod(tbits[:, :ell], s.hi, p), p)
    u_top = scale_share(sub_mod(0, tbits[:, ell], p), s.reshape(n))  # -t[ell] * s
    u = RssShare(np.concatenate([u_lo, u_top.lo[:, None]], axis=1),
                 np.concatenate([u_hi, u_top.hi[:, None]], axis=1), p)

    # w[i] = x[i] xor t[i]; top position has x[ell] = 0 so w[ell] = t[ell]
    w_scale = sub_mod(1, mul_mod(2, tbits[:, :ell], p), p)
    w_lo = mul_mod(w_scale, xbits.lo, p)
    w_hi = mul_mod(w_scale, xbits.hi, p)
    w = RssShare(np.concatenate([w_lo, np.zeros((n, 1), UINT)], axis=1),
                 np.concatenate([w_hi, np.zeros((n, 1), UINT)], axis=1), p)
    w = add_public(sess.party, w, tbits)

    # suffix sums sum_{k > i} w[k]
    suf_lo = _suffix_sum(w.lo, p)
    suf_hi = _suffix_sum(w.hi, p)
    c = RssShare(add_mod(u.lo, suf_lo, p), add_mod(u.hi, suf_hi, p), p)
    c = add_public(sess.party, c, np.uint64(1))

    # equality catcher: (1 - beta) + sum of all w
    total_lo = add_mod(suf_lo[:, 0], w.lo[:, 0], p)
    total_hi = add_mod(suf_hi[:, 0], w.hi[:, 0], p)
    extra = add_shares(RssShare(total_lo, total_hi, p),
                       add_public(sess.party, neg_share(crand.beta_p), np.uint64(1)))

    factors = concat_shares([c, extra.reshape(n, 1), crand.m.reshape(n, 1)], axis=1)
    prod = _tree_product(sess, factors)
    d = open_share(sess, prod)
    if reveal_sink is not None:
        reveal_sink.append(d)
    beta_prime = (d != 0).astype(UINT)
    return xor_public(sess, crand.beta2, beta_prime)


def _suffix_sum(a: np.ndarray, mod: int) -> np.ndarray:
    rev = np.flip(a, axis=1)
    cum = np.cumsum(rev.astype(np.uint64), axis=1, dtype=np.uint64)
    out = np.flip(cum, axis=1) - a  # strict suffix: exclude own position
    return reduce_mod(out, mod)


def _tree_product(sess: PartySession, factors: RssShare) -> RssShare:
    """Pairwise multiplication tree over the factor axis (last axis)."""
    cur = factors
    while cur.shape[-1] > 1:
        k = cur.shape[-1]
        half = k // 2
        a = cur[..., :half]
        b = cur[..., half : 2 * half]
        prod = mult(sess, a, b)
        if k % 2:
            prod = concat_shares([prod, cur[..., -1:]], axis=-1)
        cur = prod
    return cur.reshape(factors.shape[:-1])


# ---------------------------------------------------------------------------
# wrap / DReLU / ReLU


@dataclass
class WrapTranscript:
    """Per-run values exposed for the wrap-identity checks in tests."""

    beta_bits: RssShare  # XOR of the three component carries, Z_2
    delta: np.ndarray    # public
    eta: RssShare        # Z_2
    alpha: RssShare      # Z_2
    r_public: np.ndarray


def wrap3_protocol(sess: PartySession, a: RssShare, want_transcript: bool = False):
    """Share over Z_2 of wrap3(a1, a2, a3, L): the parity of the carry when
    the three components are summed as integers.

    Masks a with the preprocessed x, opens r = a + x (the flipped compare
    bits are reshared in the same round), evaluates the exact wrap of the
    opened components in the clear, and corrects with eta = (x >= r + 1).
    """
    params = sess.params
    L = params.L
    n = int(np.prod(a.shape, dtype=int))
    flat = a.reshape(n)
    wrand = sess.prep.wrap_rands(n)
    crand = sess.prep.compare_rands(n)

    r_sh = add_shares(flat, wrand.x)
    beta_lo = wrap2(flat.lo, wrand.x.lo, L)
    beta_hi = wrap2(flat.hi, wrand.x.hi, L)
    beta_bits = RssShare(beta_lo, beta_hi, 2)

    rnd = Round(sess, "wa-open-r")
    fin_open = open_begin(sess, r_sh, rnd)
    fin_flip = pc_flip_begin(sess, wrand.xbits, crand, rnd)
    results = rnd.run()
    r = fin_open(results)
    v = fin_flip(results)

    # exact wrap of the opened sharing, in the clear from own components
    third = sub_mod(sub_mod(r, r_sh.lo, L), r_sh.hi, L)
    delta_e = wrap3_exact(r_sh.lo, r_sh.hi, third, L)
    delta = (delta_e & np.uint64(1)).astype(UINT)

    # eta = (x >= r + 1); r + 1 can equal 2^ell, carried by the top bit
    with np.errstate(over="ignore"):
        t_low = reduce_mod(r.astype(UINT) + np.uint64(1), L)
    t_top = (r == np.uint64(L - 1)).astype(UINT)
    eta = private_compare(sess, wrand.xbits, t_low, crand, flipped=v, t_top=t_top)

    # theta = beta1 + beta2 + beta3 + delta - eta - alpha (mod 2)
    theta = add_shares(add_shares(beta_bits, eta), wrand.alpha)
    theta = xor_public(sess, theta, delta)
    theta = theta.reshape(a.shape)
    if want_transcript:
        return theta, WrapTranscript(beta_bits, delta, eta, wrand.alpha, r)
    return theta


# elementwise comparison batches above this size run in sequential chunks:
# the compare tree holds ~35 Z_p elements per instance in flight
COMPARE_CHUNK = 1 << 17


def drelu(sess: PartySession, a: RssShare) -> RssShare:
    """Share over Z_2 of the ReLU derivative: 1 iff signed(a) >= 0.

    Local MSBs of the components XOR the wrap of the doubled sharing XOR 1.
    """
    params = sess.params
    n = int(np.prod(a.shape, dtype=int))
    if n > COMPARE_CHUNK:
        flat = a.reshape(n)
        parts = [drelu(sess, flat[k : k + COMPARE_CHUNK]) for k in range(0, n, COMPARE_CHUNK)]
        return concat_shares(parts).reshape(a.shape)
    doubled = scale_share(np.uint64(2), a)
    theta = wrap3_protocol(sess, doubled)
    msb_lo = (a.lo >> np.uint64(params.ell - 1)) & np.uint64(1)
    msb_hi = (a.hi >> np.uint64(params.ell - 1)) & np.uint64(1)
    msbs = RssShare(msb_lo.astype(UINT), msb_hi.astype(UINT), 2)
    out = add_shares(msbs, theta)
    return xor_public(sess, out, np.uint64(1))


def relu(sess: PartySession, a: RssShare) -> RssShare:
    """Share of max(0, signed(a)): DReLU then an oblivious select against 0."""
    b = drelu(sess, a)
    zero = public_share(sess.party, np.uint64(0), a.mod, shape=a.shape)
    return select_shares(sess, zero, a, b)


# ---------------------------------------------------------------------------
# maxpool


def maxpool_argmax(sess: PartySession, a: RssShare) -> tuple[RssShare, RssShare]:
    """Running max and one-hot argmax over the last axis.

    Ties break toward the earlier index (DReLU(0) = 1 keeps the incumbent).
    Input (..., n); returns max (...,) and one-hot (..., n) of integer 0/1.
    The max and its one-hot travel as one stacked share (..., 1 + n), so
    each step is one DReLU and one selection.
    """
    n = a.shape[-1]
    eye = np.eye(n, dtype=UINT)

    def slot(i):  # (..., 1 + n): the value a_i, then the unit vector e_i
        unit = public_share(sess.party, eye[i], a.mod, shape=a.shape)
        return concat_shares([a[..., i : i + 1], unit], axis=-1)

    best = slot(0)
    for i in range(1, n):
        cand = slot(i)
        keep = drelu(sess, sub_shares(best[..., 0], cand[..., 0]))
        best = select_shares(sess, cand, best, keep)
    return best[..., 0], best[..., 1:]
