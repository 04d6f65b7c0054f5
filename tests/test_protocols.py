"""Core online protocols: mult, truncation, matmul/conv, select, bit ops."""

import numpy as np
import pytest

from falcon.prep import DealerPrep, RecordingPrep
from falcon.rings import RingParams, decode_fixed, dtype_for, encode_fixed, reduce_mod
from falcon.rss import RssShare, public_share, share_secret
from falcon.session import ThreatModel, open_share, run_three_parties
from falcon import protocols as P


def run_shared(params, fn, threat=ThreatModel.SEMI_HONEST, seed=0):
    """Run fn(sess) at all parties with a dealer prep source attached."""

    def wrapped(sess):
        sess.prep = DealerPrep(sess.party, params, seed=seed)
        return fn(sess)

    return run_three_parties(wrapped, params, threat=threat, session_seed=seed)


def shared_input(sess, x, mod):
    # all parties derive the same sharing from the session rng (harness style)
    return share_secret(x, mod, sess.shared_rng)[sess.party.index - 1]


def zero_mask(sess, shape):
    """A public zero over Z_2: a compare, wrap or DReLU masked by it opens
    its bit itself."""
    return public_share(sess.party, np.uint64(0), 2, shape=shape)


def tap_openings(monkeypatch, tag):
    """Every value opened in a round tagged `tag`, read where it crosses the
    wire: {party index: [opened, ...]} in the order the round finishes them."""
    seen = {}
    open_begin = P.open_begin

    def tap(sess, x, rnd):
        fin = open_begin(sess, x, rnd)
        if rnd.tag != tag:
            return fin

        def finish(results):
            out = fin(results)
            seen.setdefault(sess.party.index, []).append(out)
            return out

        return finish

    monkeypatch.setattr(P, "open_begin", tap)
    return seen


PARAMS = RingParams(ell=32, fp=13)


@pytest.mark.parametrize("threat", [ThreatModel.SEMI_HONEST, ThreatModel.MALICIOUS])
def test_mult_basic(threat):
    def job(sess):
        x = shared_input(sess, np.uint64(3), 256)
        y = shared_input(sess, np.uint64(5), 256)
        z = P.mult(sess, x, y)
        return open_share(sess, z)

    params = RingParams(ell=8, fp=4)
    out = run_shared(params, job, threat=threat)
    assert all(o == 15 for o in out)


def test_mult_zero():
    def job(sess):
        x = shared_input(sess, np.uint64(0), 256)
        y = shared_input(sess, np.uint64(123), 256)
        return open_share(sess, P.mult(sess, x, y))

    assert run_shared(RingParams(ell=8, fp=4), job)[0] == 0


def test_mult_exhaustive_small_ring():
    # all pairs over the 8-bit ring in one vectorized run
    params = RingParams(ell=8, fp=4)
    xs, ys = np.meshgrid(np.arange(256, dtype=np.uint64), np.arange(256, dtype=np.uint64))
    xs, ys = xs.ravel(), ys.ravel()

    def job(sess):
        x = shared_input(sess, xs, 256)
        y = shared_input(sess, ys, 256)
        return open_share(sess, P.mult(sess, x, y))

    out = run_shared(params, job)[0]
    assert np.array_equal(out, (xs * ys) % 256)


def _cross_terms_reference(xl, xh, yl, yh, mod):
    # z_i = x_i y_i + x_{i+1} y_i + x_i y_{i+1} over Python ints
    xl, xh, yl, yh = (np.asarray(v).astype(object) for v in (xl, xh, yl, yh))
    return ((xl * yl + xh * yl + xl * yh) % mod).tolist()


@pytest.mark.parametrize("mod", [2, 37])
def test_cross_terms_exhaustive(mod):
    # every component quadruple (x_i, x_{i+1}, y_i, y_{i+1}); 37^4 ~ 1.9 M
    xl, xh, yl, yh = np.indices((mod,) * 4).reshape(4, -1).astype(dtype_for(mod))
    got = P._cross_terms(RssShare(xl, xh, mod), RssShare(yl, yh, mod))
    assert got.dtype == dtype_for(mod)
    assert got.tolist() == _cross_terms_reference(xl, xh, yl, yh, mod)


@pytest.mark.parametrize("mod", [67, 2**32, 2**64])
def test_cross_terms_sampled(mod):
    rng = np.random.default_rng(mod % 997)
    xl, xh, yl, yh = (rng.integers(0, mod, (400, 6), dtype=np.uint64) for _ in range(4))
    xl[0], xh[0], yl[0], yh[0] = mod - 1, mod - 1, mod - 1, mod - 1  # the widest sum
    got = P._cross_terms(RssShare(xl, xh, mod), RssShare(yl, yh, mod))
    assert got.dtype == dtype_for(mod)
    assert got.tolist() == _cross_terms_reference(xl, xh, yl, yh, mod)
    # one column of x steering a row of y, as the compare's flip mult does
    col = RssShare(xl[:, :1], xh[:, :1], mod)
    got = P._cross_terms(col, RssShare(yl, yh, mod))
    assert got.tolist() == _cross_terms_reference(xl[:, :1], xh[:, :1], yl, yh, mod)


def test_mult_rounds_and_bytes():
    def job(sess):
        x = shared_input(sess, np.arange(10, dtype=np.uint64), PARAMS.L)
        y = shared_input(sess, np.arange(10, dtype=np.uint64), PARAMS.L)
        before = (sess.meter.rounds, sess.meter.acct_bits)
        P.mult(sess, x, y)
        return sess.meter.rounds - before[0], sess.meter.acct_bits - before[1]

    rounds, bits = run_shared(PARAMS, job)[0]
    assert rounds == 1
    assert bits == 10 * 32  # one ring element per instance, semi-honest

    rounds_m, bits_m = run_shared(PARAMS, job, threat=ThreatModel.MALICIOUS)[0]
    assert rounds_m == 1
    assert bits_m == 10 * 32  # a reshare piece is sent once in both models


def test_truncate_examples():
    def job(sess):
        raw5 = encode_fixed(5.0, PARAMS)
        x = shared_input(sess, raw5, PARAMS.L)
        t = P.truncate(sess, x, PARAMS.fp)
        a = open_share(sess, t)

        prod = P.mult(sess, shared_input(sess, encode_fixed(2.5, PARAMS), PARAMS.L),
                      shared_input(sess, encode_fixed(2.0, PARAMS), PARAMS.L))
        b = open_share(sess, P.truncate(sess, prod, PARAMS.fp))
        return a, b

    a, b = run_shared(PARAMS, job)[0]
    assert a == 5  # raw integer 5
    assert decode_fixed(b, PARAMS) == 5.0


def test_truncate_matches_plain_shift_exactly():
    rng = np.random.default_rng(11)
    vals = rng.integers(-(2**29), 2**29, size=10_000).astype(np.int64)
    raws = reduce_mod(vals, PARAMS.L)

    def job(sess):
        x = shared_input(sess, raws, PARAMS.L)
        return open_share(sess, P.truncate(sess, x, PARAMS.fp))

    out = run_shared(PARAMS, job)[0]
    expect = reduce_mod(vals >> PARAMS.fp, PARAMS.L)
    assert np.array_equal(out, expect)


@pytest.mark.parametrize("threat", [ThreatModel.SEMI_HONEST, ThreatModel.MALICIOUS])
def test_matmul_identity_and_fixed_point(threat):
    rng = np.random.default_rng(5)
    a = rng.uniform(-3, 3, size=(4, 3))
    b = rng.uniform(-3, 3, size=(3, 2))

    def job(sess):
        eye = shared_input(sess, encode_fixed(np.eye(3), PARAMS), PARAMS.L)
        bs = shared_input(sess, encode_fixed(b, PARAMS), PARAMS.L)
        ident = open_share(sess, P.matmul(sess, eye, bs, truncate_after=True))

        xs = shared_input(sess, encode_fixed(a, PARAMS), PARAMS.L)
        prod = open_share(sess, P.matmul(sess, xs, bs, truncate_after=True))
        return ident, prod

    ident, prod = run_shared(PARAMS, job, threat=threat)[0]
    assert np.allclose(decode_fixed(ident, PARAMS), b, atol=2 ** -PARAMS.fp)
    # per-entry error bounded by (inner_dim + 1) ulp
    assert np.max(np.abs(decode_fixed(prod, PARAMS) - a @ b)) <= 4 * 2 ** -PARAMS.fp


def test_matmul_single_round():
    def job(sess):
        x = shared_input(sess, encode_fixed(np.eye(4), PARAMS), PARAMS.L)
        y = shared_input(sess, encode_fixed(np.eye(4), PARAMS), PARAMS.L)
        r0 = sess.meter.rounds
        P.matmul(sess, x, y, truncate_after=False)
        return sess.meter.rounds - r0

    assert run_shared(PARAMS, job)[0] == 1


def test_matmul_shape_mismatch():
    def job(sess):
        x = shared_input(sess, np.zeros((2, 3), np.uint64), PARAMS.L)
        y = shared_input(sess, np.zeros((2, 3), np.uint64), PARAMS.L)
        P.matmul(sess, x, y)

    with pytest.raises(ValueError):
        run_shared(PARAMS, job)


def test_xor_public_truth_table():
    def job(sess):
        outs = {}
        for x in (0, 1):
            for b in (0, 1):
                xs = shared_input(sess, np.uint64(x), 2)
                outs[(x, b)] = open_share(sess, P.xor_public(sess, xs, np.uint64(b)))
        return outs

    outs = run_shared(PARAMS, job)[0]
    for (x, b), got in outs.items():
        assert got == x ^ b


@pytest.mark.parametrize("mod", [37, 256])
def test_one_minus_two_beta(mod):
    # the sign share private compare multiplies by: (-1)^beta * x
    xs = np.arange(mod, dtype=np.uint64)

    def job(sess):
        out = {}
        for beta in (0, 1):
            x = shared_input(sess, xs, mod)
            b = shared_input(sess, np.full(mod, beta, np.uint64), mod)
            out[beta] = open_share(sess, P.mult(sess, P.one_minus_two_beta(sess, b), x))
        return out

    out = run_shared(RingParams(ell=8, fp=4), job)[0]
    assert np.array_equal(out[0], xs)
    assert np.array_equal(out[1], reduce_mod(-xs.astype(np.int64), mod))


def test_select_shares():
    # the bit is shared over Z_L, as drelu_lifted returns it: the selection
    # is one multiplication, with no opening and no bit pair
    rng = np.random.default_rng(9)
    n = 1000
    xs = rng.integers(0, PARAMS.L, n, dtype=np.uint64)
    ys = rng.integers(0, PARAMS.L, n, dtype=np.uint64)
    bs = rng.integers(0, 2, n, dtype=np.uint64)

    def select(xs, ys, bs):
        def job(sess):
            sess.prep = RecordingPrep(sess.prep)
            x = shared_input(sess, xs, PARAMS.L)
            y = shared_input(sess, ys, PARAMS.L)
            b = shared_input(sess, bs, PARAMS.L)
            r0 = sess.meter.rounds
            z = P.select_shares(sess, x, y, b)
            dr = sess.meter.rounds - r0
            return open_share(sess, z), dr, sum(map(len, sess.prep.records.values()))

        return run_shared(PARAMS, job)[0]

    out, rounds, drawn = select(xs, ys, bs)
    assert rounds == 1 and drawn == 0
    assert np.array_equal(out, np.where(bs == 1, ys, xs))

    # one bit per row steers all k values of that row
    xs, ys = xs.reshape(n // 4, 4), ys.reshape(n // 4, 4)
    bs = bs[: n // 4]
    out, rounds, drawn = select(xs, ys, bs)
    assert rounds == 1 and drawn == 0
    assert np.array_equal(out, np.where(bs[:, None] == 1, ys, xs))

    def z2_bit(sess):
        x = shared_input(sess, xs, PARAMS.L)
        P.select_shares(sess, x, x, shared_input(sess, bs, 2))

    with pytest.raises(ValueError, match="ring"):
        run_shared(PARAMS, z2_bit)


def test_select_shares_blinding():
    # the bit e = b xor c that a lift opens is uniform across trials for fixed b
    n = 2000
    bs = np.ones(n, np.uint64)

    def job(sess):
        b = shared_input(sess, bs, 2)
        pair = sess.prep.bit_pairs(n)
        from falcon.rss import add_shares
        from falcon.session import open_share

        e = open_share(sess, add_shares(b, pair.c2))
        return e

    e = run_shared(PARAMS, job)[0]
    frac = e.mean()
    assert 0.45 < frac < 0.55


def test_conv2d_delta_kernel():
    rng = np.random.default_rng(3)
    img = rng.uniform(0, 1, size=(1, 1, 6, 6))
    kern = np.zeros((1, 1, 3, 3))
    kern[0, 0, 1, 1] = 1.0  # delta: output = input interior

    def job(sess):
        a = shared_input(sess, encode_fixed(img, PARAMS), PARAMS.L)
        w = shared_input(sess, encode_fixed(kern, PARAMS), PARAMS.L)
        zero = shared_input(sess, np.zeros(1, np.uint64), PARAMS.L)
        out = P.conv2d(sess, a, w, zero, stride=1, padding=0)
        return open_share(sess, out)

    out = run_shared(PARAMS, job)[0]
    got = decode_fixed(out, PARAMS)
    assert np.allclose(got, img[:, :, 1:5, 1:5], atol=16 * 2 ** -PARAMS.fp)


def test_conv2d_matches_float_oracle():
    rng = np.random.default_rng(4)
    img = rng.uniform(-1, 1, size=(2, 2, 8, 8))
    kern = rng.uniform(-0.5, 0.5, size=(4, 2, 3, 3))
    bias = rng.uniform(-0.2, 0.2, size=4)

    def job(sess):
        a = shared_input(sess, encode_fixed(img, PARAMS), PARAMS.L)
        w = shared_input(sess, encode_fixed(kern, PARAMS), PARAMS.L)
        b = shared_input(sess, encode_fixed(bias, PARAMS), PARAMS.L)
        out = P.conv2d(sess, a, w, b, stride=1, padding=1)
        return open_share(sess, out)

    out = decode_fixed(run_shared(PARAMS, job)[0], PARAMS)
    from falcon.oracle import float_conv2d

    ref = float_conv2d(img, kern, bias, stride=1, padding=1)
    assert out.shape == ref.shape == (2, 4, 8, 8)
    assert np.max(np.abs(out - ref)) <= (2 * 3 * 3 + 2) * 2 ** -PARAMS.fp
