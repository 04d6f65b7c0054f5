"""Online protocol suite over replicated shares.

Multiplication with resharing, matrix/convolution variants, exact
truncation from preprocessed pairs, private compare (the bit x > t for a
preprocessed shared x and public t), the three-operand wrap bit,
DReLU/ReLU, oblivious selection, and maxpool as a comparison tree of
ceil(log2 n) levels whose keep bits stand for the argmax: inference takes
the max alone, and backward routes the gradient down the same bits
(`maxpool_route`). Each protocol works elementwise over arbitrary array
shapes and runs under either threat model of the session.

Private compare, the wrap protocol and DReLU each return one public
array: their bit xor a mask shared over Z_2, which the caller passes. A
DReLU bit that steers anything is lifted once, by `drelu_lifted`, to a
sharing over Z_L; every consumer (ReLU, its backward, a maxpool level,
the routing, the loss's fallback) is then one multiplication by it. A
caller that publishes the bit masks it by a zero sharing.

Round structure is explicit: every Round object is one synchronization
step of the cost model, and independent messages share a Round wherever
the analytic round counts require it: a DReLU opens its one masked bit (a
lift's e = b xor c, or a probe's b) in the step that opens the compare's
d. The compare runs on preprocessed material only: inside the wrap
protocol it answers eta = (x > r) for the opened r itself in log2(ell)
tree levels, and takes x's bits already flipped by its blinding, with the
products of its mask, from the same `WrapRand`, so the step that opens r
carries nothing else.
"""

from __future__ import annotations

import numpy as np

from .rings import (
    NARROW,
    UINT,
    add_mod,
    bit_decompose,
    dtype_for,
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
    scale_share,
    sub_shares,
)
from .session import PartySession, Round, open_begin, open_share, reshare_begin

# kept only because perfbench/test_perfbench.py names it; call open_share
reconstruct = open_share


# ---------------------------------------------------------------------------
# multiplication family


def _cross_terms(x: RssShare, y: RssShare) -> np.ndarray:
    # z_i = x_i (y_i + y_{i+1}) + x_{i+1} y_i, reduced once. Its integer value
    # stays below 3 (m - 1)^2: uint16 holds it for the odd p, and a power of
    # two wraps its own dtype (2 | 2^8, 2^ell | 2^64)
    m = x.mod
    acc = np.uint16 if m & (m - 1) else dtype_for(m)
    with np.errstate(over="ignore"):
        z = np.multiply(x.lo, np.add(y.lo, y.hi, dtype=acc), dtype=acc)
        z += np.multiply(x.hi, y.lo, dtype=acc)
    return reduce_mod(z, m)


def mult(sess: PartySession, x: RssShare, y: RssShare) -> RssShare:
    """Share of x*y (no truncation); one round, one reshared element each."""
    if x.mod != y.mod:
        raise ValueError("modulus mismatch in mult")
    rnd = Round(sess, "mult")
    fin = reshare_begin(sess, _cross_terms(x, y), x.mod, rnd)
    return fin(rnd.run())


def matmul(sess: PartySession, x: RssShare, y: RssShare, truncate_after: bool = False) -> RssShare:
    """Share of the matrix product X @ Y; fixed-point rescale when asked."""
    if x.mod != y.mod:
        raise ValueError("modulus mismatch in matmul")
    if x.lo.ndim != 2 or y.lo.ndim != 2 or x.shape[1] != y.shape[0]:
        raise ValueError(f"matmul shape mismatch: {x.shape} @ {y.shape}")
    # the cross terms as two products, (x_i + x_{i+1}) y_i + x_i y_{i+1}; the
    # sum is over x, the smaller operand of every layer's forward call
    m = x.mod
    z = add_mod(matmul_mod(add_mod(x.lo, x.hi, m), y.lo, m), matmul_mod(x.lo, y.hi, m), m)
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
    pair = sess.prep.trunc_pairs(n, d.reshape(n)).reshape(x.shape)
    if not np.array_equal(pair.d, d):
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


def select_shares(sess: PartySession, x: RssShare, y: RssShare, b: RssShare) -> RssShare:
    """z = x when b = 0, y when b = 1: z = x + (y - x) * b, one multiplication.

    b is a bit shared over x's ring, as `drelu_lifted` returns it; its shape
    is a leading prefix of y's, so one bit may steer a whole trailing block.
    One round, no preprocessing.
    """
    if b.mod != x.mod:
        raise ValueError("selection bit must be shared over the operands' ring")
    if y.shape[: len(b.shape)] != b.shape:
        raise ValueError(f"selection bit shape {b.shape} is not a prefix of {y.shape}")
    b = b.reshape(b.shape + (1,) * (len(y.shape) - len(b.shape)))
    return add_shares(mult(sess, sub_shares(y, x), b), x)


# ---------------------------------------------------------------------------
# private compare


def private_compare(sess: PartySession, xbits: RssShare, t, mask: RssShare, rand) -> np.ndarray:
    """The public bit (x > t) xor m, for public t in [0, 2^ell) and a mask m
    shared over Z_2 of shape (n,); a zero sharing opens the bit itself.

    xbits holds the little-endian bits of x over Z_p, shape (n, ell). Each
    instance compares x with t' = t + (1 - beta) and multiplies ell factors
    below p (see `_pc_factors`), the mask folded into the top one, in
    ceil(log2 ell) tree levels. The masked product d and the blinding bit
    xor m open in one round, and d unblinds the opened bit. At
    t = 2^ell - 1 the answer is 0.

    rand is the preprocessed `WrapRand` that xbits come from: it carries the
    blinding (beta2, beta_p and the nonzero m~ of the mask m = m~ (1 - 2 beta))
    and its products with x's bits (`compare_products`), so the compare
    multiplies nothing before its tree.
    """
    ell = sess.params.ell
    n, nb = xbits.shape
    if nb != ell:
        raise ValueError(f"expected {ell} shared bits, got {nb}")
    t = np.asarray(t, dtype=np.uint64).reshape(n)
    if ell < 64 and np.any(t >> np.uint64(ell)):
        raise ValueError("public operand is not below 2^ell")
    factors = _pc_factors(sess, xbits, t, rand.beta_p, rand.m, rand.vbits, rand.m_beta,
                          rand.m_xtop)
    top = t == np.uint64((1 << ell) - 1)
    del t  # the tree needs the factors alone
    return _pc_core(sess, factors, rand.beta2, top, mask)


def compare_products(sess: PartySession, xbits: RssShare, beta_p: RssShare,
                     m: RssShare) -> tuple[RssShare, RssShare, RssShare]:
    """The compare's products of its blinding, all in one multiplication:
    x's bits flipped by it, vbits = (1 - 2 beta) x[i] of shape (n, ell), then
    m~ beta and m~ x[ell - 1] of shape (n,)."""
    n, ell = xbits.shape
    col = m.reshape(n, 1)
    prods = mult(sess,
                 concat_shares([expand_last(one_minus_two_beta(sess, beta_p), xbits.shape),
                                col, col], axis=1),
                 concat_shares([xbits, beta_p.reshape(n, 1), xbits[:, ell - 1 :]], axis=1))
    return prods[:, :ell], prods[:, ell], prods[:, ell + 1]


def _pc_core(sess: PartySession, factors: RssShare, beta2: RssShare, top: np.ndarray,
             mask: RssShare) -> np.ndarray:
    """Multiply the factors down and open d with beta2 xor m, which is
    bit xor m up to the beta' = (d != 0) known after. Where t is the top of
    the ring, beta2 and beta' are taken as a public 0: the bit is 0 and the
    opening opens m alone."""
    prod = _tree_product(sess, factors)
    keep = (~top).astype(NARROW)
    rnd = Round(sess, "pc-open-d")
    fin_d = open_begin(sess, prod, rnd)
    fin_m = open_begin(sess, add_shares(scale_share(keep, beta2), mask), rnd)
    results = rnd.run()
    beta_prime = (fin_d(results) != 0).astype(NARROW) & keep
    return fin_m(results) ^ beta_prime


# rows per block of the private-compare factor arithmetic: its ~8 (rows,
# ell) int16 temporaries then stay ~1 MB whatever n is, and only the (n, ell)
# factors reach the multiplication tree (at n = 36864, 2048-row blocks peak
# lower than 4096-row ones at the same CPU time)
PC_BLOCK_ROWS = 2048


def _pc_factors(sess: PartySession, xbits: RssShare, t: np.ndarray, beta_p: RssShare,
                m: RssShare, v: RssShare, m_beta: RssShare, m_xtop: RssShare) -> RssShare:
    """The ell factors of each instance, (n, ell) over Z_p: c[0..ell-2] and
    m c[ell-1]. Local only, built in row blocks.

    x is compared with t' = t + (1 - beta), whose bits are
    t'[i] = t[i] xor (1 - beta) M[i] for the public M = t xor (t + 1), so
    every factor is linear in the shares of x[i], beta, v[i] = (1 - 2 beta)
    x[i], m~, m~ beta and m~ x[ell - 1]:
      c[i] = u[i] + 1 + sum_{k > i} w[k], with u[i] = (1 - 2 beta)(x[i] - t'[i])
      = v[i] - (1 - 2 beta) t[i] - M[i] (1 - 2 t[i]) (1 - beta), and
      w[k] = x[k] xor t'[k], where x[k] xor (1 - beta) = 1 - beta - v[k];
      the mask m = m~ (1 - 2 beta) times c[ell - 1] is
      m~ x[ell - 1] - t[ell - 1] m~ - M[ell - 1] (1 - 2 t[ell - 1]) (m~ - m~ beta)
      + m~ - 2 m~ beta.
    Under beta = 1 some c[i] is 0 iff x > t' = t; under beta = 0 iff
    x < t' = t + 1. Either way beta xor (d != 0) is (x > t). Each c[i] lies
    in [0, ell + 1], so p > ell + 1 keeps it nonzero unless it is 0. At
    t = 2^ell - 1 no c[i] is 0 under either beta (`_pc_core` fixes the
    answer there).
    Each component is summed in a signed accumulator and reduced once; the
    public terms enter through component 1, as `add_public` does.
    """
    params = sess.params
    p, ell = params.p, params.ell
    n = xbits.shape[0]
    # each factor's signed sum lies in (-2 ell p, (2 ell + 1) p); adding
    # `lift`, a multiple of p, puts it in [0, 2^16) (p <= 67, ell <= 64).
    # int16 arithmetic wraps mod 2^16, so the uint16 view is exact even
    # where a partial sum leaves int16's range
    lift = 2 * ell * p
    own = (sess.party.index == 1, sess.party.index == 3)  # lo / hi hold component 1
    out = (np.empty((n, ell), NARROW), np.empty((n, ell), NARROW))
    for k in range(0, n, PC_BLOCK_ROWS):
        rows = slice(k, k + PC_BLOCK_ROWS)
        tb = bit_decompose(t[rows], params).astype(np.int16)  # (b, ell)
        mf = bit_decompose(t[rows] ^ (t[rows] + np.uint64(1)), params).astype(np.int16)
        mf *= 1 - 2 * tb  # M (1 - 2t)
        on_x = 1 - 2 * tb - mf  # (1 - 2t)(1 - M): w's coefficient of x
        on_own = tb + mf  # w's public term; c's is 1 - on_own
        on_beta = on_own + tb  # c's coefficient of beta
        fold = (1 - tb[:, -1] - mf[:, -1], mf[:, -1] - 2)  # m~'s and m~ beta's in m c[ell-1]
        for j, comp in enumerate(("lo", "hi")):
            x, vj, beta, mj, mb, mx = (getattr(a, comp)[rows].astype(np.int16)
                                       for a in (xbits, v, beta_p, m, m_beta, m_xtop))
            beta = beta[:, None]
            f = on_beta * beta
            f += vj
            vj += beta
            vj *= mf
            w = np.multiply(on_x, x, out=x)
            w -= vj
            if own[j]:
                w += on_own
                f -= on_own
            f += lift + own[j]
            np.cumsum(w, axis=1, out=w)  # prefix sums: sum_{k > i} w[k] = w[:, -1] - w[:, i]
            f -= w  # whole rows: a column slice is several times slower
            f += w[:, -1:]
            f[:, -1] = mx + mj * fold[0] + mb * fold[1] + lift
            out[j][rows] = reduce_mod(f.view(np.uint16), p)
    return RssShare(out[0], out[1], p)


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


def wrap3_protocol(sess: PartySession, a: RssShare, mask: RssShare) -> np.ndarray:
    """The public theta xor m, where theta = wrap3(a1, a2, a3, L) is the
    parity of the carry when the three components are summed as integers
    and m is a mask shared over Z_2 in a's shape.

    Masks a with the preprocessed x, opens r = a + x, evaluates the exact
    wrap of the opened components in the clear, and corrects with
    eta = (x > r). The compare takes its blinding and x's flipped bits
    from the same `WrapRand`, so opening r is all the first round does;
    theta xor m opens in the compare's last round.
    """
    params = sess.params
    L = params.L
    shape = a.shape
    n = int(np.prod(shape, dtype=int))
    wrand = sess.prep.wrap_rands(n)

    flat = a.reshape(n)
    r_sh = add_shares(flat, wrand.x)
    beta_bits = RssShare(wrap2(flat.lo, wrand.x.lo, L), wrap2(flat.hi, wrand.x.hi, L), 2)
    del a, flat

    rnd = Round(sess, "wa-open-r")
    fin = open_begin(sess, r_sh, rnd)
    r = fin(rnd.run())
    del fin

    # exact wrap of the opened sharing, in the clear from own components
    third = sub_mod(sub_mod(r, r_sh.lo, L), r_sh.hi, L)
    delta = (wrap3_exact(r_sh.lo, r_sh.hi, third, L) & np.uint64(1)).astype(NARROW)
    del r_sh, third

    # theta = beta1 + beta2 + beta3 + delta - eta - alpha (mod 2); all but
    # eta is known now, so the mask reaches the compare as m xor known
    known = xor_public(sess, add_shares(beta_bits, wrand.alpha), delta)
    opened = private_compare(sess, wrand.xbits, r, add_shares(mask.reshape(n), known), wrand)
    return opened.reshape(shape)


# elementwise comparison batches above this size run in sequential chunks:
# online DReLU peaks at ~0.45 KB per element over the three parties in both
# threat models (tracemalloc at n = 2^17), so a full chunk holds ~20 MB per party
COMPARE_CHUNK = 1 << 17


def drelu(sess: PartySession, a: RssShare, mask: RssShare) -> np.ndarray:
    """The public b xor m, where b is the ReLU derivative (1 iff
    signed(a) >= 0) and m a mask shared over Z_2 in a's shape.

    b is the components' local MSBs xor the wrap of the doubled sharing
    xor 1; b xor m opens in the compare's last round, with d.
    `drelu_lifted` passes its bit pair's c and gets its e; a probe passes a
    zero sharing and gets b itself.
    """
    params = sess.params
    n = int(np.prod(a.shape, dtype=int))
    flat, flat_mask = a.reshape(n), mask.reshape(n)
    if n > COMPARE_CHUNK:
        opened = np.concatenate([drelu(sess, flat[k : k + COMPARE_CHUNK],
                                       flat_mask[k : k + COMPARE_CHUNK])
                                 for k in range(0, n, COMPARE_CHUNK)])
    else:
        top = np.uint64(params.ell - 1)
        msbs = RssShare((flat.lo >> top).astype(NARROW), (flat.hi >> top).astype(NARROW), 2)
        known = xor_public(sess, msbs, np.uint64(1))
        opened = wrap3_protocol(sess, scale_share(np.uint64(2), flat), add_shares(flat_mask, known))
    return opened.reshape(a.shape)


def drelu_lifted(sess: PartySession, a: RssShare) -> RssShare:
    """The DReLU bit of a shared over a's ring, ready to steer by one mult.

    Draws a bit pair (c over Z_2 and Z_L); the DReLU opens e = b xor c with
    its d, and b = c_L xor e is local: the rounds of `drelu` alone.
    """
    pair = sess.prep.bit_pairs(int(np.prod(a.shape, dtype=int))).reshape(a.shape)
    e = drelu(sess, a, pair.c2)
    return xor_public(sess, pair.cL, e)


def relu(sess: PartySession, a: RssShare) -> RssShare:
    """Share of max(0, signed(a)): a times its lifted DReLU bit."""
    return mult(sess, a, drelu_lifted(sess, a))


# ---------------------------------------------------------------------------
# maxpool


def maxpool_argmax(sess: PartySession, a: RssShare) -> tuple[RssShare, list[RssShare]]:
    """Max over the last axis by a tournament tree; the argmax stays as keep bits.

    Each level compares adjacent slots (0, 1), (2, 3), ... with one lifted
    DReLU over all pairs of the level and keeps the larger with one
    selection; an odd last slot is carried up. keep = DReLU(left - right)
    is 1 on a tie and the left slot always holds the earlier indices, so
    the kept slot is the earliest maximum. Input (..., n); returns the max
    (...,) and the keep bits of each level over Z_L, root last, for
    `maxpool_route`. ceil(log2 n) levels of one DReLU and one mult each.
    """
    cur, path = a, []
    while cur.shape[-1] > 1:
        k = cur.shape[-1]
        left, right = cur[..., 0 : k - 1 : 2], cur[..., 1:k:2]
        keep = drelu_lifted(sess, sub_shares(left, right))
        best = select_shares(sess, right, left, keep)
        if k % 2:
            best = concat_shares([best, cur[..., -1:]], axis=-1)
        path.append(keep)
        cur = best
    return cur[..., 0], path


def maxpool_route(sess: PartySession, path: list[RssShare], delta: RssShare) -> RssShare:
    """Adjoint of `maxpool_argmax`: delta (...,) lands on the argmax slot of
    (..., n) and 0 on every other, walking the keep bits from the root down.

    Per level the left slot takes d * keep and its rival the rest, d minus
    that: one round per level.
    """
    d = delta.reshape(delta.shape + (1,))
    for keep in reversed(path):
        half = keep.shape[-1]
        pairs = d[..., :half]
        left = mult(sess, pairs, keep)
        right = sub_shares(pairs, left)
        slots = concat_shares([left[..., None], right[..., None]], axis=-1)
        d = concat_shares([slots.reshape(pairs.shape[:-1] + (2 * half,)), d[..., half:]], axis=-1)
    return d
