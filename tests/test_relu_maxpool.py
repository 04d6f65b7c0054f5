"""DReLU, ReLU and maxpool against plain oracles, plus the round meters."""

import threading
import tracemalloc

import numpy as np
import pytest

from falcon import protocols as P
from falcon.oracle import fx_maxpool_with_onehot, fx_trunc, oracle_drelu, oracle_relu
from falcon.prep import DealerPrep, DistributedPrep, RecordingPrep
from falcon.rings import RingParams, encode_fixed, reduce_mod
from falcon.rss import public_share
from falcon.session import ThreatModel, open_share, run_three_parties

from test_protocols import run_shared, shared_input, tap_openings, zero_mask

PARAMS = RingParams(ell=32, fp=13)


def maxpool_onehot(sess, a):
    """The max and the one-hot argmax, read by routing a 1 down the keep bits."""
    mx, path = P.maxpool_argmax(sess, a)
    ones = public_share(sess.party, np.uint64(1), a.mod, shape=mx.shape)
    return mx, P.maxpool_route(sess, path, ones)


def test_drelu_exhaustive_8bit():
    params = RingParams(ell=8, fp=4)
    xs = np.arange(256, dtype=np.uint64)

    def job(sess):
        a = shared_input(sess, xs, params.L)
        return P.drelu(sess, a, zero_mask(sess, a.shape))

    got = run_shared(params, job)[0]
    assert np.array_equal(got, oracle_drelu(xs, params))


def test_drelu_edges():
    def job(sess):
        vals = np.array([0, PARAMS.L - 1, PARAMS.L // 2, PARAMS.L // 2 - 1], np.uint64)
        a = shared_input(sess, vals, PARAMS.L)
        return P.drelu(sess, a, zero_mask(sess, a.shape))

    got = run_shared(PARAMS, job)[0]
    # 0 -> 1; -eps -> 0; exactly L/2 (MSB set) -> 0; L/2 - 1 -> 1
    assert list(got) == [1, 0, 0, 1]


@pytest.mark.parametrize("threat", [ThreatModel.SEMI_HONEST, ThreatModel.MALICIOUS])
def test_relu_random_32bit(threat):
    rng = np.random.default_rng(21)
    n = 100_000
    raws = rng.integers(0, PARAMS.L, n, dtype=np.uint64)

    def job(sess):
        a = shared_input(sess, raws, PARAMS.L)
        return open_share(sess, P.relu(sess, a))

    got = run_shared(PARAMS, job, threat=threat)[0]
    assert np.array_equal(got, oracle_relu(raws, PARAMS))


def test_relu_fixed_point_values():
    def job(sess):
        a = shared_input(sess, encode_fixed(np.array([-5.0, 3.25]), PARAMS), PARAMS.L)
        return open_share(sess, P.relu(sess, a))

    got = run_shared(PARAMS, job)[0]
    assert list(got) == [0, int(encode_fixed(3.25, PARAMS))]


def test_relu_round_meter_is_formula_exact():
    # 3 + log2(ell) rounds: the wrap open, the compare's log2(ell) tree
    # levels and its d open, in which the selection's e opens too, and the
    # selection
    def job(sess):
        a = shared_input(sess, np.arange(64, dtype=np.uint64), PARAMS.L)
        r0 = sess.meter.rounds
        P.relu(sess, a)
        return sess.meter.rounds - r0

    assert run_shared(PARAMS, job)[0] == 3 + 5

    params8 = RingParams(ell=8, fp=4)

    def job8(sess):
        a = shared_input(sess, np.arange(16, dtype=np.uint64), params8.L)
        r0 = sess.meter.rounds
        P.relu(sess, a)
        return sess.meter.rounds - r0

    assert run_shared(params8, job8)[0] == 3 + 3


def test_relu_staged_opening_is_blinded(monkeypatch):
    # the round that opens the compare's d also opens pre xor c, with
    # pre = b xor beta'; on a constant-sign input b is fixed, so both the
    # opened value and e = b xor c must look like fair coins, and the output
    # stays exact
    n = 7400
    xs = np.full(n, encode_fixed(1.5, PARAMS), np.uint64)
    seen = tap_openings(monkeypatch, "pc-open-d")

    def job(sess):
        return open_share(sess, P.relu(sess, shared_input(sess, xs, PARAMS.L)))

    got = run_shared(PARAMS, job)[0]
    assert np.array_equal(got, oracle_relu(xs, PARAMS))
    d, opened = seen[1]  # the compare's d over Z_p, then the masked bit over Z_2
    assert d.shape == opened.shape == (n,)
    e = opened ^ (d != 0)
    for bits in (opened, e):
        assert 0.45 < float(bits.mean()) < 0.55


def test_relu_bytes_within_budget():
    n = 1000

    def job(sess):
        a = shared_input(sess, np.arange(n, dtype=np.uint64), PARAMS.L)
        b0 = sess.meter.acct_bits
        P.relu(sess, a)
        return sess.meter.acct_bits - b0

    k = PARAMS.ell // 8
    sh_bits = run_shared(PARAMS, job)[0]
    assert sh_bits / 8 <= 1.25 * 3 * k * n
    mal_bits = run_shared(PARAMS, job, threat=ThreatModel.MALICIOUS)[0]
    assert mal_bits / 8 <= 1.25 * (4 * k * n + n / 4)
    # malicious sends each opened element once more: r over Z_L, then the
    # compare result d and the selection's e over Z_p and Z_2 at one bit each
    assert mal_bits == sh_bits + n * (PARAMS.ell + 2)


def test_maxpool_examples():
    def job(sess):
        a = shared_input(sess, encode_fixed(np.array([1.0, 5.0, 3.0]), PARAMS), PARAMS.L)
        mx, ind = maxpool_onehot(sess, a)
        one = shared_input(sess, encode_fixed(np.array([7.5]), PARAMS), PARAMS.L)
        mx1, ind1 = maxpool_onehot(sess, one)
        return (
            open_share(sess, mx),
            open_share(sess, ind),
            open_share(sess, mx1),
            open_share(sess, ind1),
        )

    mx, ind, mx1, ind1 = run_shared(PARAMS, job)[0]
    assert mx == encode_fixed(5.0, PARAMS)
    assert list(ind) == [0, 1, 0]
    assert mx1 == encode_fixed(7.5, PARAMS) and list(ind1) == [1]


def test_maxpool_random_vectors_earliest_tie():
    rng = np.random.default_rng(5)
    trials = []
    for _ in range(1000):
        n = rng.integers(2, 17)
        vals = rng.integers(-50, 50, n)
        if rng.random() < 0.3:
            vals[rng.integers(0, n)] = vals.max()  # force ties often
        trials.append(vals)

    def job(sess):
        outs = []
        # group trials by length so each batch runs vectorized
        for n in range(2, 17):
            batch = [t for t in trials if len(t) == n]
            if not batch:
                continue
            arr = np.stack(batch).astype(np.float64)
            a = shared_input(sess, encode_fixed(arr, sess.params), sess.params.L)
            mx, ind = maxpool_onehot(sess, a)
            outs.append((n, open_share(sess, mx), open_share(sess, ind)))
        return outs

    outs = run_shared(PARAMS, job)[0]
    for n, mx, ind in outs:
        batch = np.stack([t for t in trials if len(t) == n]).astype(np.float64)
        exp_idx = np.argmax(batch, axis=1)  # numpy argmax = earliest tie
        exp_max = encode_fixed(batch.max(axis=1), PARAMS)
        assert np.array_equal(mx, exp_max)
        assert np.array_equal(np.argmax(ind, axis=1), exp_idx)
        assert np.all(ind.sum(axis=1) == 1)


def test_maxpool_takes_one_level_per_doubling():
    # ceil(log2 n) levels of one lifted DReLU and one selection each; the
    # routing back down takes one multiplication by the cached Z_L keep
    # bits per level
    def job(sess):
        x = shared_input(sess, np.arange(4, dtype=np.uint64), PARAMS.L)
        r0 = sess.meter.rounds
        P.select_shares(sess, x, x, P.drelu_lifted(sess, x))
        level = sess.meter.rounds - r0
        got = {}
        for n in range(2, 17):
            a = shared_input(sess, np.arange(3 * n, dtype=np.uint64).reshape(3, n), PARAMS.L)
            r0 = sess.meter.rounds
            mx, path = P.maxpool_argmax(sess, a)
            r1 = sess.meter.rounds
            P.maxpool_route(sess, path, mx)
            got[n] = (r1 - r0, sess.meter.rounds - r1)
        return level, got

    level, got = run_shared(PARAMS, job)[0]
    assert level == 3 + 5
    assert got == {n: ((n - 1).bit_length() * level, (n - 1).bit_length())
                   for n in range(2, 17)}


def test_drelu_online_memory():
    # the private-compare factors, (n, ell), are built in row blocks, one
    # signed accumulator per component, and the wrap protocol's opened-r
    # state dies once the factors exist, so the online working set stays a
    # few hundred bytes per element and party (460-490 B over the three
    # parties on a 2-core host); the preprocessing material, flipped bits
    # and mask products included, is drawn before the measured window
    n = 36864  # one sequential maxpool step of network-c at batch 16
    raws = np.random.default_rng(9).integers(0, PARAMS.L, n, dtype=np.uint64)
    gate = threading.Barrier(3, timeout=60)
    peak = []

    class Drawn:
        def __init__(self, source):
            self.wrap = source.wrap_rands(n)

        def wrap_rands(self, count):
            return self.wrap

    def job(sess):
        sess.prep = Drawn(DealerPrep(sess.party, PARAMS, seed=9))
        a = shared_input(sess, raws, PARAMS.L)
        zero = zero_mask(sess, a.shape)
        gate.wait()
        if sess.party.index == 1:
            tracemalloc.start()
        gate.wait()
        bits = P.drelu(sess, a, zero)
        gate.wait()
        if sess.party.index == 1:
            peak.append(tracemalloc.get_traced_memory()[1])
        return bits

    try:
        got = run_three_parties(job, PARAMS, session_seed=9)[0]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, oracle_drelu(raws, PARAMS))
    per_elem = peak[0] / n
    assert per_elem < 600, f"drelu({n}) peaked at {per_elem:.0f} B per element over three parties"


def test_drelu_runs_a_long_batch_in_chunks(monkeypatch):
    # a batch above COMPARE_CHUNK runs as sequential chunks, each a whole
    # DReLU of 2 + log2(ell) rounds, and their openings join in order
    monkeypatch.setattr(P, "COMPARE_CHUNK", 100)
    rng = np.random.default_rng(250)
    raws = rng.integers(0, PARAMS.L, (10, 25), dtype=np.uint64)
    masks = rng.integers(0, 2, (10, 25)).astype(np.uint8)

    def job(sess):
        a = shared_input(sess, raws, PARAMS.L)
        m = shared_input(sess, masks, 2)
        r0 = sess.meter.rounds
        opened = P.drelu(sess, a, m)
        return opened, sess.meter.rounds - r0

    opened, rounds = run_shared(PARAMS, job)[0]
    assert np.array_equal(opened, oracle_drelu(raws, PARAMS) ^ masks)
    assert rounds == 3 * (2 + 5)


@pytest.mark.parametrize("ell", [63, 64])
def test_relu_truncate_maxpool_at_wide_rings(ell):
    # the sign extension of the signed view must hold up to the full word
    params = RingParams(ell=ell, fp=13)
    rng = np.random.default_rng(ell)
    half = 1 << (ell - 3)  # truncation is exact below 2^{ell-2}
    vals = rng.integers(-half, half, 64, dtype=np.int64)
    vals[:4] = [0, -1, half - 1, -half]
    raws = reduce_mod(vals, params.L)
    windows = raws.reshape(16, 4)

    def job(sess):
        a = shared_input(sess, raws, params.L)
        relu = open_share(sess, P.relu(sess, a))
        trunc = open_share(sess, P.truncate(sess, a, params.fp))
        mx, ind = maxpool_onehot(sess, shared_input(sess, windows, params.L))
        return relu, trunc, open_share(sess, mx), open_share(sess, ind)

    relu, trunc, mx, ind = run_shared(params, job)[0]
    assert np.array_equal(relu, oracle_relu(raws, params))
    assert np.array_equal(trunc, reduce_mod(vals >> params.fp, params.L))
    assert np.array_equal(trunc, fx_trunc(raws, params.fp, params))
    want_max, want_ind = fx_maxpool_with_onehot(windows, params)
    assert np.array_equal(mx, want_max) and np.array_equal(ind, want_ind)


@pytest.mark.parametrize("mode", ["dealer", "distributed"])
def test_small_ring_shares_stay_uint8(mode):
    # every Z_p/Z_2 share on the compare path is uint8 end to end; a stray
    # widening to uint64 anywhere would silently undo the narrow kernels.
    # The maxpool keep bits are lifted to Z_L and so are uint64
    raws = np.random.default_rng(31).integers(0, PARAMS.L, 16, dtype=np.uint64)

    def job(sess):
        sess.prep = RecordingPrep(DealerPrep(sess.party, PARAMS, seed=5) if mode == "dealer"
                                  else DistributedPrep(sess))
        a = shared_input(sess, raws, PARAMS.L)
        opened = P.drelu(sess, a, zero_mask(sess, a.shape))
        mx, path = P.maxpool_argmax(sess, a.reshape(4, 4))
        return opened, mx, path, sess.prep.records

    for opened, mx, path, records in run_three_parties(job, PARAMS, session_seed=5):
        assert opened.dtype == np.uint8
        assert np.array_equal(opened, oracle_drelu(raws, PARAMS))
        # the wrap material carries the compare's blinding, flipped bits and
        # mask products: there is no compare material of its own to draw
        assert set(records) == {"trunc", "wrap", "bitpair"}
        small = [s for w in records["wrap"]
                 for s in (w.xbits, w.alpha, w.beta2, w.beta_p, w.m, w.vbits,
                           w.m_beta, w.m_xtop)]
        small += [b.c2 for b in records["bitpair"]]
        assert len(small) == 8 * 3 + 2  # 3 drelus, 2 of them lifted
        for sh in small:
            assert sh.mod in (2, PARAMS.p)
            assert sh.lo.dtype == np.uint8 and sh.hi.dtype == np.uint8
        wide = [mx] + path + [w.x for w in records["wrap"]] + [b.cL for b in records["bitpair"]]
        assert len(wide) == 1 + 2 + 3 + 2
        for sh in wide:
            assert sh.mod == PARAMS.L and sh.lo.dtype == np.uint64
