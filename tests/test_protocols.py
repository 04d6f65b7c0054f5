"""Core online protocols: mult, truncation, matmul/conv, select, bit ops."""

import numpy as np
import pytest

from falcon.prep import DealerPrep, RecordingPrep
from falcon.rings import RingParams, decode_fixed, encode_fixed, reduce_mod
from falcon.rss import share_secret
from falcon.session import ThreatModel, run_three_parties
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


PARAMS = RingParams(ell=32, p=37, fp=13)


@pytest.mark.parametrize("threat", [ThreatModel.SEMI_HONEST, ThreatModel.MALICIOUS])
def test_mult_basic(threat):
    def job(sess):
        x = shared_input(sess, np.uint64(3), 256)
        y = shared_input(sess, np.uint64(5), 256)
        z = P.mult(sess, x, y)
        return P.reconstruct(sess, z)

    params = RingParams(ell=8, p=37, fp=4)
    out = run_shared(params, job, threat=threat)
    assert all(o == 15 for o in out)


def test_mult_zero():
    def job(sess):
        x = shared_input(sess, np.uint64(0), 256)
        y = shared_input(sess, np.uint64(123), 256)
        return P.reconstruct(sess, P.mult(sess, x, y))

    assert run_shared(RingParams(ell=8, p=37, fp=4), job)[0] == 0


def test_mult_exhaustive_small_ring():
    # all pairs over the 8-bit ring in one vectorized run
    params = RingParams(ell=8, p=37, fp=4)
    xs, ys = np.meshgrid(np.arange(256, dtype=np.uint64), np.arange(256, dtype=np.uint64))
    xs, ys = xs.ravel(), ys.ravel()

    def job(sess):
        x = shared_input(sess, xs, 256)
        y = shared_input(sess, ys, 256)
        return P.reconstruct(sess, P.mult(sess, x, y))

    out = run_shared(params, job)[0]
    assert np.array_equal(out, (xs * ys) % 256)


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
    assert bits_m == 2 * 10 * 32  # exactly twice semi-honest


def test_truncate_examples():
    def job(sess):
        raw5 = encode_fixed(5.0, PARAMS)
        x = shared_input(sess, raw5, PARAMS.L)
        t = P.truncate(sess, x, PARAMS.fp)
        a = P.reconstruct(sess, t)

        prod = P.mult(sess, shared_input(sess, encode_fixed(2.5, PARAMS), PARAMS.L),
                      shared_input(sess, encode_fixed(2.0, PARAMS), PARAMS.L))
        b = P.reconstruct(sess, P.truncate(sess, prod, PARAMS.fp))
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
        return P.reconstruct(sess, P.truncate(sess, x, PARAMS.fp))

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
        ident = P.reconstruct(sess, P.matmul(sess, eye, bs, truncate_after=True))

        xs = shared_input(sess, encode_fixed(a, PARAMS), PARAMS.L)
        prod = P.reconstruct(sess, P.matmul(sess, xs, bs, truncate_after=True))
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
                outs[(x, b)] = P.reconstruct(sess, P.xor_public(sess, xs, np.uint64(b)))
        return outs

    outs = run_shared(PARAMS, job)[0]
    for (x, b), got in outs.items():
        assert got == x ^ b


def test_flip_by_bit():
    def job(sess):
        x = shared_input(sess, np.uint64(5), 37)
        b0 = shared_input(sess, np.uint64(0), 37)
        b1 = shared_input(sess, np.uint64(1), 37)
        keep = P.reconstruct(sess, P.flip_by_bit(sess, x, b0))
        flip = P.reconstruct(sess, P.flip_by_bit(sess, x, b1))
        return keep, flip

    keep, flip = run_shared(PARAMS, job)[0]
    assert keep == 5 and flip == 32  # -5 mod 37


def test_flip_by_bit_exhaustive_small():
    params = RingParams(ell=8, p=37, fp=4)
    xs = np.arange(256, dtype=np.uint64)

    def job(sess):
        out = {}
        for beta in (0, 1):
            x = shared_input(sess, xs, 256)
            b = shared_input(sess, np.full(256, beta, np.uint64), 256)
            out[beta] = P.reconstruct(sess, P.flip_by_bit(sess, x, b))
        return out

    out = run_shared(params, job)[0]
    assert np.array_equal(out[0], xs)
    assert np.array_equal(out[1], reduce_mod(-xs.astype(np.int64), 256))


def test_select_shares():
    rng = np.random.default_rng(9)
    n = 1000
    xs = rng.integers(0, PARAMS.L, n, dtype=np.uint64)
    ys = rng.integers(0, PARAMS.L, n, dtype=np.uint64)
    bs = rng.integers(0, 2, n, dtype=np.uint64)

    def job(sess):
        x = shared_input(sess, xs, PARAMS.L)
        y = shared_input(sess, ys, PARAMS.L)
        b = shared_input(sess, bs, 2)
        r0 = sess.meter.rounds
        z = P.select_shares(sess, x, y, b)
        dr = sess.meter.rounds - r0
        return P.reconstruct(sess, z), dr

    out, rounds = run_shared(PARAMS, job)[0]
    assert rounds == 2  # open + mult
    assert np.array_equal(out, np.where(bs == 1, ys, xs))

    # one bit per row steers all k values of that row, from one bit pair each
    xs, ys = xs.reshape(n // 4, 4), ys.reshape(n // 4, 4)
    bs = bs[: n // 4]

    def rows(sess):
        sess.prep = RecordingPrep(sess.prep)
        x = shared_input(sess, xs, PARAMS.L)
        y = shared_input(sess, ys, PARAMS.L)
        b = shared_input(sess, bs, 2)
        r0 = sess.meter.rounds
        z = P.select_shares(sess, x, y, b)
        dr = sess.meter.rounds - r0
        (pair,) = sess.prep.records["bitpair"]
        return P.reconstruct(sess, z), dr, pair.c2.shape

    out, rounds, pair_shape = run_shared(PARAMS, rows)[0]
    assert rounds == 2 and pair_shape == (n // 4,)
    assert np.array_equal(out, np.where(bs[:, None] == 1, ys, xs))


def test_select_shares_blinding():
    # the opened bit e = b xor c is uniform across trials for fixed b
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
        return P.reconstruct(sess, out)

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
        return P.reconstruct(sess, out)

    out = decode_fixed(run_shared(PARAMS, job)[0], PARAMS)
    from falcon.oracle import float_conv2d

    ref = float_conv2d(img, kern, bias, stride=1, padding=1)
    assert out.shape == ref.shape == (2, 4, 8, 8)
    assert np.max(np.abs(out - ref)) <= (2 * 3 * 3 + 2) * 2 ** -PARAMS.fp
