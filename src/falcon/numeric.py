"""Fixed-point numeric kernels: bounding power, division, Newton iterations.

Division normalizes the divisor to [0.5, 1) at a public per-element
precision learned from the bounding power, runs the quartic reciprocal
approximation w0(1+e0)(1+e1) at an internal working precision, and
rescales the product back to the session's fixed-point format. Inverse
square root and square root run four Newton steps from a power-of-two
initial guess. All internal rescalings round to nearest (add half, then
the exact floor truncation) so the error budget stays within the 1e-3
acceptance tolerances; the base truncation itself remains a floor shift.
"""

from __future__ import annotations

import numpy as np

from .rings import reduce_mod
from .rss import (
    RssShare,
    add_public,
    add_shares,
    concat_shares,
    expand_last,
    public_share,
    scale_share,
    sub_shares,
    sum_share,
)
from .session import PartySession
from .protocols import drelu, mult, truncate


class DomainError(ValueError):
    """Operand outside the kernel's domain (e.g. nonpositive divisor)."""


def working_precision(params) -> int:
    """Internal fraction bits: products of O(1) values must stay inside the
    truncation-safe envelope |v| < 2^{ell-2}."""
    return min(params.fp, (params.ell - 6) // 2)


# ---------------------------------------------------------------------------
# rescaling with public per-element shifts


def rescale(sess: PartySession, x: RssShare, s, nearest: bool = True) -> RssShare:
    """x / 2^s for a public (possibly per-element, possibly negative) shift.

    Every element is multiplied by 2^max(-s, 0) locally, and the elements
    with s > 0 are truncated (optionally round-to-nearest) in one call, in
    element order, and written back. When every shift is positive x is
    truncated as it stands; otherwise the truncation runs on a gathered copy
    before the scaled one is made, and a shift shared by all elements stays
    a scalar, so no more than one extra copy of x is alive during it.
    """
    s = np.asarray(s, np.int64)
    if (s > 0).all():
        return _trunc_vec(sess, x, s, nearest)
    pos = np.broadcast_to(s > 0, x.shape)
    shifts = np.broadcast_to(s, x.shape)[pos] if s.ndim else s
    part = _trunc_vec(sess, x[pos], shifts, nearest) if pos.any() else None
    out = scale_share(_pow2(np.maximum(-s, 0), x.mod), x)
    if part is not None:
        out.lo[pos], out.hi[pos] = part.lo, part.hi
    return out


def _pow2(e, mod: int) -> np.ndarray:
    return reduce_mod(np.uint64(1) << np.asarray(e, np.uint64), mod)


def _trunc_vec(sess: PartySession, x: RssShare, s: np.ndarray, nearest: bool) -> RssShare:
    if nearest:
        half = reduce_mod(np.uint64(1) << (np.asarray(s, np.uint64) - np.uint64(1)), x.mod)
        x = add_public(sess.party, x, half)
    return truncate(sess, x, s)


# ---------------------------------------------------------------------------
# bounding power


def bounding_power(sess: PartySession, x: RssShare) -> np.ndarray:
    """Public alpha with 2^alpha <= raw(x) < 2^{alpha+1}; DomainError unless
    raw(x) >= 1.

    One DReLU over the (n, ell - 1) block of probes x - 2^j, j = 0 .. ell - 2,
    whose bits open with the compare's d: bit j is (x >= 2^j). Bit 0 is the
    validation, and alpha is the number of set bits j >= 1. For x > 0 each
    opened row is the thermometer code of alpha, which the function returns
    anyway; inside the envelope |x| < 2^{ell-2} no probe wraps, so a
    nonpositive x opens all zeros.
    """
    params = sess.params
    L, ell = params.L, params.ell
    n = int(np.prod(x.shape, dtype=int))
    shape = (n, ell - 1)
    probes = sub_shares(expand_last(x.reshape(n), shape),
                        public_share(sess.party, _pow2(np.arange(ell - 1), L), L, shape=shape))
    bits = _open_drelu(sess, probes)
    if not np.all(bits[:, 0] == 1):
        raise DomainError("bounding power requires a strictly positive input")
    return bits[:, 1:].sum(axis=1, dtype=np.int64).reshape(x.shape)


def _open_drelu(sess: PartySession, x: RssShare) -> np.ndarray:
    """The public DReLU bit of x: masked by a zero sharing, it opens in the
    compare's last round."""
    return drelu(sess, x, public_share(sess.party, np.uint64(0), 2, shape=x.shape))


# ---------------------------------------------------------------------------
# division


def divide(sess: PartySession, a: RssShare, b: RssShare, a_max_bits: int | None = None) -> RssShare:
    """Fixed-point a / b for a secret positive divisor.

    The divisor is read at precision alpha+1 as x in [0.5, 1); the series
    w0 (1 + e0)(1 + e1) with w0 = 2.9142 - 2x approximates 1/x to ~6e-5
    relative before rounding noise. The final multiply is chunked by
    public powers of two so large operands stay inside the safe envelope;
    a_max_bits bounds log2 of |raw(a)| (default fp + 7, i.e. |a| < 128).
    """
    params = sess.params
    fp = params.fp
    w = working_precision(params)
    n = int(np.prod(b.shape, dtype=int))
    flat_a = a.reshape(n)
    flat_b = b.reshape(n)
    alpha = bounding_power(sess, flat_b)  # DomainError on b <= 0
    q = alpha + 1

    y = _reciprocal_series(sess, flat_b, q, w)  # ~ (1/x) at precision w

    if a_max_bits is None:
        a_max_bits = fp + 7
    h = min(10, params.ell - 2 - a_max_bits)
    if h <= 0:
        raise DomainError("a_max_bits leaves no headroom for the final product")
    s1 = w + q - fp
    out = _chunked_product_rescale(sess, flat_a, y, s1, h, w)
    return out.reshape(b.shape)


def _reciprocal_series(sess: PartySession, b: RssShare, q: np.ndarray, w: int) -> RssShare:
    """1/x at precision w for x = raw(b) read at precision q (x in [0.5, 1))."""
    params = sess.params
    x = rescale(sess, b, q - w)  # [2^{w-1}, 2^w)
    c29 = np.uint64(round(2.9142 * (1 << w)))
    one = np.uint64(1 << w)
    w0 = add_public(sess.party, scale_share(reduce_mod(-2, params.L), x), c29)
    e0 = sub_shares(public_share(sess.party, one, params.L, shape=x.shape),
                    rescale(sess, mult(sess, x, w0), w))
    e1 = rescale(sess, mult(sess, e0, e0), w)
    t1 = add_public(sess.party, e0, one)
    t2 = add_public(sess.party, e1, one)
    y = rescale(sess, mult(sess, w0, t1), w)
    return rescale(sess, mult(sess, y, t2), w)


def _chunked_product_rescale(sess: PartySession, a: RssShare, y: RssShare, s1: np.ndarray,
                             h: int, w: int) -> RssShare:
    """a * y / 2^{s1} with y split into h-bit chunks by public powers of two."""
    nchunks = max(1, -(-(w + 2) // h))
    # y >> k*h for k = 1..nchunks-1, all in one opening round
    stack = concat_shares([y] * (nchunks - 1)) if nchunks > 1 else None
    if stack is not None:
        shifts = np.concatenate([np.full(y.shape, k * h, np.int64) for k in range(1, nchunks)])
        trunc_all = rescale(sess, stack, shifts, nearest=False)
        tr = [trunc_all[k * y.shape[0] : (k + 1) * y.shape[0]] for k in range(nchunks - 1)]
    else:
        tr = []
    chunks = []
    prev = y
    for k in range(nchunks - 1):
        chunks.append(sub_shares(prev, scale_share(np.uint64(1 << h), tr[k])))
        prev = tr[k]
    chunks.append(prev)

    a_rep = concat_shares([a] * nchunks)
    prods = mult(sess, a_rep, concat_shares(chunks))
    shift_vec = np.concatenate([s1 - k * h for k in range(nchunks)])
    scaled = rescale(sess, prods, shift_vec)
    out = scaled[: a.shape[0]]
    for k in range(1, nchunks):
        out = add_shares(out, scaled[k * a.shape[0] : (k + 1) * a.shape[0]])
    return out


# ---------------------------------------------------------------------------
# inverse square root and square root


def inv_sqrt_newton(sess: PartySession, b: RssShare, alpha) -> RssShare:
    """1/sqrt(b) after four Newton steps x <- x(3 - c x^2)/2.

    b is normalized by an even power of two so c lands in [0.5, 2) and the
    initial guess 1 puts c*x0^2 in the guaranteed-convergent band.
    """
    params = sess.params
    fp = params.fp
    w = working_precision(params)
    n = int(np.prod(b.shape, dtype=int))
    flat = b.reshape(n)
    alpha_s = np.asarray(alpha).reshape(n) - fp
    e = alpha_s + (alpha_s & 1)  # even, alpha_s - e in {-1, 0}
    c = rescale(sess, flat, e + fp - w)  # [2^{w-1}, 2^{w+1})
    x = public_share(sess.party, np.uint64(1 << w), params.L, shape=(n,))
    three = np.uint64(3 << w)
    for _ in range(4):
        y = rescale(sess, mult(sess, x, x), w)
        y = rescale(sess, mult(sess, c, y), w)
        t = add_public(sess.party, scale_share(reduce_mod(-1, params.L), y), three)
        x = rescale(sess, mult(sess, x, t), w + 1)  # the /2 folds into the shift
    out = rescale(sess, x, w + e // 2 - fp)
    return out.reshape(b.shape)


def sqrt_newton(sess: PartySession, a: RssShare) -> RssShare:
    """sqrt(a) by four steps of x <- (x + a/x)/2 from a power-of-two guess."""
    params = sess.params
    fp = params.fp
    n = int(np.prod(a.shape, dtype=int))
    flat = a.reshape(n)
    alpha = np.asarray(bounding_power(sess, flat)).reshape(n)
    alpha_s = alpha - fp
    guess_exp = (alpha_s + (alpha_s & 1)) // 2 + fp  # fp + round-up(alpha_s / 2)
    x = public_share(sess.party, _pow2(guess_exp, params.L), params.L, shape=(n,))
    for _ in range(4):
        quot = divide(sess, flat, x, a_max_bits=int(alpha.max()) + 2)
        x = rescale(sess, add_shares(x, quot), np.int64(1))
    return x.reshape(a.shape)


# ---------------------------------------------------------------------------
# batch normalization (forward)


def batch_norm_forward(sess: PartySession, acts: RssShare, gamma: RssShare, beta: RssShare):
    """(out, z, inv): out = gamma z + beta over the last axis, with the
    normalised z = (a - mu) inv and inv = 1/sqrt(var + eps), which the
    backward pass reuses.

    acts is (..., m); gamma/beta broadcast over the leading axes. eps is
    the public constant 2^-10. Per-element squared deviations are
    truncated before summing so the accumulant stays in the safe envelope.
    """
    params = sess.params
    fp = params.fp
    m = acts.shape[-1]
    mu = _mean_last_axis(sess, acts, m)
    dev = sub_shares(acts, expand_last(mu, acts.shape))
    sq = rescale(sess, mult(sess, dev, dev), fp)
    var = _mean_last_axis(sess, sq, m)
    if fp < 10:
        raise DomainError("fp must be at least 10 for the BN epsilon 2^-10")
    # the squares are nonnegative and their truncation exact, so var >= 0 and
    # b >= 2^(fp - 10) >= 1 raw: the bounding power's validation passes
    b = add_public(sess.party, var, np.uint64(1 << (fp - 10)))
    alpha = bounding_power(sess, b)
    inv = inv_sqrt_newton(sess, b, alpha)
    z = rescale(sess, mult(sess, dev, expand_last(inv, acts.shape)), fp)
    g = rescale(sess, mult(sess, expand_last(gamma, z.shape), z), fp)
    return add_shares(g, expand_last(beta, z.shape)), z, inv


def _mean_last_axis(sess: PartySession, x: RssShare, m: int) -> RssShare:
    total = sum_share(x, -1)
    if m & (m - 1) == 0:
        return rescale(sess, total, int(np.log2(m)))
    inv_m = np.uint64(round((1 << sess.params.fp) / m))
    return rescale(sess, scale_share(inv_m, total), sess.params.fp)
