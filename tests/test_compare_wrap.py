"""Private compare and the three-operand wrap protocol vs plain oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from falcon import protocols as P
from falcon.oracle import oracle_compare
from falcon.rings import RingParams, add_mod, bit_decompose, sub_mod, wrap3
from falcon.rss import share_components, share_secret
from falcon.session import ThreatModel
from conftest import reconstruct_all

from test_protocols import run_shared, tap_openings, zero_mask


def chosen_compare_rand(sess, xs):
    """A dealt `WrapRand` whose compare material is for the chosen x: x's bits
    shared over Z_p and their products with the dealt blinding
    (`compare_products`, one multiplication round). Its x and alpha stay the
    dealt ones, which a compare does not read."""
    params = sess.params
    bits = bit_decompose(np.asarray(xs, np.uint64), params)
    xbits = share_secret(bits, params.p, sess.shared_rng)[sess.party.index - 1]
    rand = sess.prep.wrap_rands(len(bits))
    vbits, m_beta, m_xtop = P.compare_products(sess, xbits, rand.beta_p, rand.m)
    return replace(rand, xbits=xbits, vbits=vbits, m_beta=m_beta, m_xtop=m_xtop)


def compare_chosen(sess, xs, ts, mask):
    """private_compare of the chosen x against ts on `chosen_compare_rand`."""
    rand = chosen_compare_rand(sess, xs)
    return P.private_compare(sess, rand.xbits, ts, mask, rand)


def test_private_compare_examples():
    params = RingParams(ell=8, fp=4)

    def job(sess):
        x = np.array([5, 0, 3, 255], np.uint64)
        r = np.array([3, 0, 4, 254], np.uint64)
        rand = chosen_compare_rand(sess, x)
        zero = zero_mask(sess, 4)
        # t = 2^ell is not an ell-bit value: refused before any message
        r0 = sess.meter.rounds
        with pytest.raises(ValueError, match="below 2\\^ell"):
            P.private_compare(sess, rand.xbits, np.array([0, 0, 0, 256], np.uint64), zero, rand)
        rounds = sess.meter.rounds - r0
        return P.private_compare(sess, rand.xbits, r, zero, rand), rounds

    got, rounds = run_shared(params, job)[0]
    assert rounds == 0
    assert list(got) == [1, 0, 0, 1]  # 5 > 3, not 0 > 0, not 3 > 4, 255 > 254


@pytest.mark.parametrize("threat", [ThreatModel.SEMI_HONEST, ThreatModel.MALICIOUS])
def test_private_compare_exhaustive_8bit(threat):
    # all x in [0, 256) against 64 targets, fresh random beta/m/shares each
    params = RingParams(ell=8, fp=4)
    xs = np.tile(np.arange(256, dtype=np.uint64), 64)
    rng = np.random.default_rng(123)
    rs = np.repeat(
        np.concatenate([rng.integers(0, 256, 60, dtype=np.uint64), [0, 1, 254, 255]]), 256
    ).astype(np.uint64)

    def job(sess):
        return compare_chosen(sess, xs, rs, zero_mask(sess, len(xs)))

    got = run_shared(params, job, threat=threat)[0]
    assert np.array_equal(got, oracle_compare(xs, rs))


def test_private_compare_full_word_targets():
    # ell = 64: every uint64 target is in range, up to 2^64 - 1; p = 67, the
    # largest compare prime, spans the factors' widest int16 range
    top = 2**64 - 1
    xs = np.array([0, 1, 2**63, top - 1, top] * 3, np.uint64)
    ts = np.repeat(np.array([0, top - 1, top], np.uint64), 5)

    def job(sess):
        return compare_chosen(sess, xs, ts, zero_mask(sess, len(xs)))

    got = run_shared(RingParams(ell=64, fp=13), job)[0]
    # x > 0 but at 0, x > 2^64 - 2 only at the top, x > 2^64 - 1 never
    assert got.tolist() == [0, 1, 1, 1, 1] + [0, 0, 0, 0, 1] + [0] * 5


def test_private_compare_reveal_blinded(monkeypatch):
    # for fixed (x, r) the revealed product is 0 about half the time (the
    # blinding bit flips) and uniform-looking over Z_p^* otherwise; the
    # output is correct regardless. d is read where it crosses the wire:
    # the compare's "pc-open-d" round, which opens d over Z_p, then the bit
    from scipy import stats

    params = RingParams(ell=8, fp=4)
    n = 7400
    xs = np.full(n, 77, np.uint64)
    rs = np.full(n, 20, np.uint64)
    seen = tap_openings(monkeypatch, "pc-open-d")

    def job(sess):
        return compare_chosen(sess, xs, rs, zero_mask(sess, n))

    got = run_shared(params, job)[0]
    d, _ = seen[1]
    assert np.all(got == 1)  # 77 > 20 regardless of blinding
    zero_frac = float((d == 0).mean())
    assert 0.45 < zero_frac < 0.55
    nonzero = d[d != 0].astype(int)
    counts = np.bincount(nonzero, minlength=params.p)[1:]
    assert stats.chisquare(counts).pvalue > 1e-4


def test_private_compare_rounds():
    params = RingParams(ell=32, fp=13)

    def job(sess):
        rand = chosen_compare_rand(sess, np.arange(8, dtype=np.uint64))
        r0 = sess.meter.rounds
        P.private_compare(sess, rand.xbits, np.full(8, 5, np.uint64), zero_mask(sess, 8), rand)
        return sess.meter.rounds - r0

    rounds = run_shared(params, job)[0]
    # ceil(log2 ell) tree levels over the ell factors, the reveal; the
    # blinding's products come with the material
    assert rounds == 1 + math.ceil(math.log2(32)) == 6


@pytest.mark.parametrize("ell, p", [(11, 13), (29, 31), (35, 37)])
def test_compare_and_wrap_exact_at_p_just_above_ell_plus_one(ell, p):
    # every compare factor lies in [0, ell + 1]; where ell + 2 is prime it is
    # the derived p, the tightest prime that keeps the factors nonzero
    params = RingParams(ell=ell, fp=4)
    assert params.p == p == ell + 2
    L, n = params.L, 4000
    rng = np.random.default_rng(ell)
    edges = np.array([0, 1, L - 2, L - 1], np.uint64)
    xs = np.concatenate([rng.integers(0, L, n, dtype=np.uint64), np.repeat(edges, 4)])
    ts = np.concatenate([xs[:n // 2] + rng.integers(0, 2, n // 2, dtype=np.uint64),  # near-equal
                         rng.integers(0, L, n - n // 2, dtype=np.uint64), np.tile(edges, 4)])
    ts %= np.uint64(L)
    comps = _random_sharings(params, n, rng)

    def job(sess):
        gt = compare_chosen(sess, xs, ts, zero_mask(sess, len(xs)))
        theta = P.wrap3_protocol(sess, share_components(sess.party, tuple(comps), L),
                                 zero_mask(sess, n))
        return gt, theta

    gt, theta = run_shared(params, job)[0]
    assert np.array_equal(gt, oracle_compare(xs, ts))
    assert np.array_equal(theta, wrap3(*comps, L))


def _random_sharings(params, n, rng):
    comps = [rng.integers(0, params.L, n, dtype=np.uint64) for _ in range(3)]
    return comps


@pytest.mark.parametrize("ell", [16, 32])
def test_wrap3_matches_exact_wrap(ell):
    params = RingParams(ell=ell, fp=min(13, ell - 3))
    n = 10_000
    rng = np.random.default_rng(ell)
    comps = _random_sharings(params, n, rng)
    expect = wrap3(comps[0], comps[1], comps[2], params.L)

    def job(sess):
        a = share_components(sess.party, tuple(comps), params.L)
        return P.wrap3_protocol(sess, a, zero_mask(sess, n))

    got = run_shared(params, job)[0]
    assert np.array_equal(got, expect)


def test_wrap3_fixed_cases():
    params = RingParams(ell=8, fp=4)

    # zero components and one wrapping combo
    def job(sess):
        outs = []
        for comps in ((0, 0, 0), (200, 100, 0)):
            arr = tuple(np.uint64(c) for c in comps)
            a = share_components(sess.party, arr, params.L)
            outs.append(P.wrap3_protocol(sess, a, zero_mask(sess, ())))
        return outs

    outs = run_shared(params, job)[0]
    assert outs[0] == 0
    assert outs[1] == 1  # 300 in [256, 512)


@pytest.mark.parametrize("ell, p", [(8, 11), (32, 37), (64, 67)])
def test_wrap3_at_the_top_of_the_ring(monkeypatch, ell, p):
    # the opened r at the top of the ring, 2^ell - 1, where eta = (x > r) is
    # 0 for every x: read the dealer's wrap mask x in a first run, then
    # share a = 2^ell - 1 - x under the same seed, so r = a + x = 2^ell - 1
    # at every element; r is read where it crosses the wire
    params = RingParams(ell=ell, fp=min(13, ell - 3))
    assert params.p == p
    L, n = params.L, 512
    top = np.uint64(L - 1)
    x = reconstruct_all(run_shared(params, lambda sess: sess.prep.wrap_rands(n).x, seed=5))
    a = sub_mod(np.full(n, top), x, L)
    rng = np.random.default_rng(ell)
    c1, c2 = (rng.integers(0, L, n, dtype=np.uint64) for _ in range(2))
    comps = (c1, c2, sub_mod(sub_mod(a, c1, L), c2, L))

    seen = tap_openings(monkeypatch, "wa-open-r")

    def job(sess):
        return P.wrap3_protocol(sess, share_components(sess.party, comps, L), zero_mask(sess, n))

    theta = run_shared(params, job, seed=5)[0]
    assert np.all(seen[1][0] == top)
    assert np.array_equal(theta, wrap3(*comps, L))


@pytest.mark.parametrize("ell, p", [(8, 11), (32, 37), (64, 67)])
def test_masked_wrap3_at_the_top_of_the_ring(ell, p):
    # at r = 2^ell - 1 the compare's answer is a public 0, so a consumer's
    # masked opening must open theta xor m from the mask alone; half the
    # elements sit at the top, half at a random r
    params = RingParams(ell=ell, fp=min(13, ell - 3))
    assert params.p == p
    L, n = params.L, 512
    x = reconstruct_all(run_shared(params, lambda sess: sess.prep.wrap_rands(n).x, seed=5))
    rng = np.random.default_rng(ell + 1)
    r = np.where(np.arange(n) % 2 == 0, np.uint64(L - 1), rng.integers(0, L, n, dtype=np.uint64))
    a = sub_mod(r, x, L)
    c1, c2 = (rng.integers(0, L, n, dtype=np.uint64) for _ in range(2))
    comps = (c1, c2, sub_mod(sub_mod(a, c1, L), c2, L))
    masks = rng.integers(0, 2, n).astype(np.uint8)

    def job(sess):
        m = share_secret(masks, 2, sess.shared_rng)[sess.party.index - 1]
        return P.wrap3_protocol(sess, share_components(sess.party, comps, L), m)

    opened = run_shared(params, job, seed=5)[0]
    assert np.array_equal(opened, wrap3(*comps, L) ^ masks)


def wrap3_greek_terms(monkeypatch, params, comps, seed):
    """The opened theta of a zero-masked wrap of the components, and
    beta1 + beta2 + beta3 + delta + eta + alpha (mod 2) from terms computed
    apart from the protocol: the dealer's x (its components) and alpha from
    a first run under the same seed, r as it crosses the wire, and
    eta = (x > r) from the oracle."""
    L, n = params.L, len(comps[0])

    def draw(sess):
        w = sess.prep.wrap_rands(n)
        return w.x, w.alpha

    first = run_shared(params, draw, seed=seed)
    xs = [x.lo for x, _ in first]  # party i holds component i as lo
    alpha = reconstruct_all([al for _, al in first])
    seen = tap_openings(monkeypatch, "wa-open-r")

    def job(sess):
        return P.wrap3_protocol(sess, share_components(sess.party, tuple(comps), L),
                                zero_mask(sess, n))

    theta = run_shared(params, job, seed=seed)[0]
    (r,) = seen[1]
    x = reconstruct_all([x for x, _ in first])
    r_comps = [add_mod(c, xc, L) for c, xc in zip(comps, xs)]
    assert np.array_equal(r, add_mod(add_mod(r_comps[0], r_comps[1], L), r_comps[2], L))
    beta = sum((c.astype(object) + xc.astype(object) >= L).astype(np.uint8)
               for c, xc in zip(comps, xs))
    delta = wrap3(*r_comps, L)
    eta = oracle_compare(x, r)
    return theta, (beta + delta + eta + alpha) % 2


def test_wrap3_identity_on_transcripts(monkeypatch):
    # theta = beta1 + beta2 + beta3 + delta - eta - alpha (mod 2), per run
    params = RingParams(ell=16, fp=8)
    comps = _random_sharings(params, 500, np.random.default_rng(77))
    theta, rhs = wrap3_greek_terms(monkeypatch, params, comps, seed=0)
    assert np.array_equal(theta, rhs)
    # and theta is the true wrap of the inputs
    assert np.array_equal(theta, wrap3(comps[0], comps[1], comps[2], params.L))
