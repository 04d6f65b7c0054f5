"""DReLU, ReLU and maxpool against plain oracles, plus the round meters."""

import numpy as np
import pytest

from falcon import protocols as P
from falcon.oracle import fx_maxpool_with_onehot, fx_trunc, oracle_drelu, oracle_relu
from falcon.rings import RingParams, encode_fixed, reduce_mod
from falcon.session import ThreatModel

from test_protocols import run_shared, shared_input

PARAMS = RingParams(ell=32, p=37, fp=13)


def test_drelu_exhaustive_8bit():
    params = RingParams(ell=8, p=37, fp=4)
    xs = np.arange(256, dtype=np.uint64)

    def job(sess):
        a = shared_input(sess, xs, params.L)
        return P.reconstruct(sess, P.drelu(sess, a))

    got = run_shared(params, job)[0]
    assert np.array_equal(got, oracle_drelu(xs, params))


def test_drelu_edges():
    def job(sess):
        vals = np.array([0, PARAMS.L - 1, PARAMS.L // 2, PARAMS.L // 2 - 1], np.uint64)
        a = shared_input(sess, vals, PARAMS.L)
        return P.reconstruct(sess, P.drelu(sess, a))

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
        return P.reconstruct(sess, P.relu(sess, a))

    got = run_shared(PARAMS, job, threat=threat)[0]
    assert np.array_equal(got, oracle_relu(raws, PARAMS))


def test_relu_fixed_point_values():
    def job(sess):
        a = shared_input(sess, encode_fixed(np.array([-5.0, 3.25]), PARAMS), PARAMS.L)
        return P.reconstruct(sess, P.relu(sess, a))

    got = run_shared(PARAMS, job)[0]
    assert list(got) == [0, int(encode_fixed(3.25, PARAMS))]


def test_relu_round_meter_is_formula_exact():
    # 5 + log2(ell) rounds: the wrap open shares a round with the flip mult
    def job(sess):
        a = shared_input(sess, np.arange(64, dtype=np.uint64), PARAMS.L)
        r0 = sess.meter.rounds
        P.relu(sess, a)
        return sess.meter.rounds - r0

    assert run_shared(PARAMS, job)[0] == 5 + 5

    params8 = RingParams(ell=8, p=37, fp=4)

    def job8(sess):
        a = shared_input(sess, np.arange(16, dtype=np.uint64), params8.L)
        r0 = sess.meter.rounds
        P.relu(sess, a)
        return sess.meter.rounds - r0

    assert run_shared(params8, job8)[0] == 5 + 3


def test_relu_bytes_within_budget():
    n = 1000

    def job(sess):
        a = shared_input(sess, np.arange(n, dtype=np.uint64), PARAMS.L)
        b0 = sess.meter.acct_bits
        P.relu(sess, a)
        return sess.meter.acct_bits - b0

    k = PARAMS.ell // 8
    sh_bits = run_shared(PARAMS, job)[0]
    assert sh_bits / 8 <= 1.25 * 4 * k * n
    mal_bits = run_shared(PARAMS, job, threat=ThreatModel.MALICIOUS)[0]
    assert mal_bits / 8 <= 1.25 * 8 * k * n
    assert mal_bits == 2 * sh_bits  # malicious doubles every element


def test_maxpool_examples():
    def job(sess):
        a = shared_input(sess, encode_fixed(np.array([1.0, 5.0, 3.0]), PARAMS), PARAMS.L)
        mx, ind = P.maxpool_argmax(sess, a)
        one = shared_input(sess, encode_fixed(np.array([7.5]), PARAMS), PARAMS.L)
        mx1, ind1 = P.maxpool_argmax(sess, one)
        return (
            P.reconstruct(sess, mx),
            P.reconstruct(sess, ind),
            P.reconstruct(sess, mx1),
            P.reconstruct(sess, ind1),
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
            mx, ind = P.maxpool_argmax(sess, a)
            outs.append((n, P.reconstruct(sess, mx), P.reconstruct(sess, ind)))
        return outs

    outs = run_shared(PARAMS, job)[0]
    for n, mx, ind in outs:
        batch = np.stack([t for t in trials if len(t) == n]).astype(np.float64)
        exp_idx = np.argmax(batch, axis=1)  # numpy argmax = earliest tie
        exp_max = encode_fixed(batch.max(axis=1), PARAMS)
        assert np.array_equal(mx, exp_max)
        assert np.array_equal(np.argmax(ind, axis=1), exp_idx)
        assert np.all(ind.sum(axis=1) == 1)


@pytest.mark.parametrize("ell", [63, 64])
def test_relu_truncate_maxpool_at_wide_rings(ell):
    # the sign extension of the signed view must hold up to the full word
    params = RingParams(ell=ell, p=67, fp=13)
    rng = np.random.default_rng(ell)
    half = 1 << (ell - 3)  # truncation is exact below 2^{ell-2}
    vals = rng.integers(-half, half, 64, dtype=np.int64)
    vals[:4] = [0, -1, half - 1, -half]
    raws = reduce_mod(vals, params.L)
    windows = raws.reshape(16, 4)

    def job(sess):
        a = shared_input(sess, raws, params.L)
        relu = P.reconstruct(sess, P.relu(sess, a))
        trunc = P.reconstruct(sess, P.truncate(sess, a, params.fp))
        mx, ind = P.maxpool_argmax(sess, shared_input(sess, windows, params.L))
        return relu, trunc, P.reconstruct(sess, mx), P.reconstruct(sess, ind)

    relu, trunc, mx, ind = run_shared(params, job)[0]
    assert np.array_equal(relu, oracle_relu(raws, params))
    assert np.array_equal(trunc, reduce_mod(vals >> params.fp, params.L))
    assert np.array_equal(trunc, fx_trunc(raws, params.fp, params))
    want_max, want_ind = fx_maxpool_with_onehot(windows, params)
    assert np.array_equal(mx, want_max) and np.array_equal(ind, want_ind)
