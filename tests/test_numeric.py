"""Bounding power, division, Newton kernels, batch norm: accuracy + fx twins."""

import threading
import tracemalloc
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from falcon import numeric as N
from falcon import oracle as O
from falcon import transport
from falcon.numeric import DomainError
from falcon.prep import DealerPrep, RecordingPrep
from falcon.rings import RingParams, decode_fixed, encode_fixed, reduce_mod, signed
from falcon.rss import PartyId, share_secret
from falcon.session import ThreatModel, open_share, run_three_parties

from conftest import reconstruct_all
from test_protocols import run_shared, shared_input

PARAMS = RingParams(ell=32, fp=13)
P16 = RingParams(ell=32, fp=16)


def test_bounding_power_examples():
    def job(sess):
        vals = np.array([1, 8, 40960], np.uint64)
        x = shared_input(sess, vals, PARAMS.L)
        return N.bounding_power(sess, x)

    alpha = run_shared(PARAMS, job)[0]
    assert list(alpha) == [0, 3, 15]


def test_bounding_power_random():
    rng = np.random.default_rng(1)
    vals = rng.integers(1, 2**30, 10_000, dtype=np.uint64)

    def job(sess):
        x = shared_input(sess, vals, PARAMS.L)
        return N.bounding_power(sess, x)

    alpha = run_shared(PARAMS, job)[0]
    v = vals.astype(np.float64)
    assert np.all(2.0**alpha <= v)
    assert np.all(v < 2.0 ** (alpha + 1))
    assert np.array_equal(alpha, O.fx_bounding_power(vals, PARAMS))


def _bounding_power_cost(vals):
    """(alpha or the DomainError, rounds, prep draws as (kind, n)) of one
    bounding_power."""

    def job(sess):
        sess.prep = RecordingPrep(sess.prep)
        x = shared_input(sess, vals, PARAMS.L)
        r0 = sess.meter.rounds
        try:
            out = N.bounding_power(sess, x)
        except DomainError as err:
            out = err
        draws = [(kind, getattr(item, fields(item)[0].name).shape[0])
                 for kind, items in sess.prep.records.items() for item in items]
        return out, sess.meter.rounds - r0, draws

    return run_shared(PARAMS, job)[0]


def test_bounding_power_is_one_drelu():
    # one DReLU over the (n, ell - 1) probe block: the wrap open, log2 ell
    # compare tree levels and the d open, in which the probe bits open
    n, ell = 5, PARAMS.ell
    alpha, rounds, draws = _bounding_power_cost(np.array([1, 2, 3, 1 << 20, (1 << 30) - 1],
                                                         np.uint64))
    assert list(alpha) == [0, 1, 1, 20, 29]
    assert rounds == 2 + int(np.log2(ell)) == 7
    assert draws == [("wrap", n * (ell - 1))]


def test_bounding_power_opens_the_thermometer_code_of_alpha(monkeypatch):
    # the only values the probe block opens are bits j = (x >= 2^j), j = 0 ..
    # ell - 2: for x > 0 each row is the thermometer code of the returned
    # alpha (bit j set iff j <= alpha), so nothing beyond alpha leaks
    rng = np.random.default_rng(4)
    vals = np.concatenate([[1, 2, 3, (1 << 30) - 1, 1 << 29],
                           rng.integers(1, 1 << 30, 200)]).astype(np.uint64)
    opened = []
    drelu = N.drelu

    def tap(sess, x, mask):
        bits = drelu(sess, x, mask)
        if sess.party.index == 1:
            opened.append(bits)
        return bits

    monkeypatch.setattr(N, "drelu", tap)
    alpha = run_shared(PARAMS, lambda s: N.bounding_power(s, shared_input(s, vals, PARAMS.L)))[0]
    assert np.array_equal(alpha, O.fx_bounding_power(vals, PARAMS))
    (bits,) = opened
    assert bits.shape == (len(vals), PARAMS.ell - 1)
    j = np.arange(PARAMS.ell - 1)
    assert np.array_equal(bits, (j[None, :] <= alpha[:, None]).astype(bits.dtype))


def test_bounding_power_rejects_nonpositive():
    # a nonpositive element fails the j = 0 probe, which rides in the same
    # DReLU: the call raises after that one DReLU and opens nothing more
    ell = PARAMS.ell
    for vals in ([0], [5, 0, 7], [5, PARAMS.L - 3, 7]):
        err, rounds, draws = _bounding_power_cost(np.array(vals, np.uint64))
        assert isinstance(err, DomainError)
        assert rounds == 2 + int(np.log2(ell))
        assert draws == [("wrap", len(vals) * (ell - 1))]


def _run_divide(params, a_vals, b_vals, threat=ThreatModel.SEMI_HONEST):
    """Returns (result, quantized a, quantized b): the error oracle divides
    the decoded operands, since input quantization is not protocol error."""
    a_raw = encode_fixed(a_vals, params)
    b_raw = encode_fixed(b_vals, params)

    def job(sess):
        a = shared_input(sess, a_raw, params.L)
        b = shared_input(sess, b_raw, params.L)
        return open_share(sess, N.divide(sess, a, b))

    out = decode_fixed(run_shared(params, job, threat=threat)[0], params)
    return out, decode_fixed(a_raw, params), decode_fixed(b_raw, params)


def test_divide_examples():
    got, _, _ = _run_divide(PARAMS, np.array([1.0, 6.0]), np.array([1.0, 3.0]))
    assert abs(got[0] - 1.0) <= 2.0**-11
    assert abs(got[1] - 2.0) <= 1e-3 * 2.0


@pytest.mark.parametrize("params", [PARAMS, P16], ids=["fp13", "fp16"])
def test_divide_random_operands(params):
    # b spans the full stated divisor range; a/b stays representable
    rng = np.random.default_rng(42)
    n = 1000
    b = np.exp(rng.uniform(np.log(0.01), np.log(100.0), n))
    t = np.exp(rng.uniform(np.log(0.75), np.log(4.0), n))
    a = np.minimum(b * t, 100.0)
    got, aq, bq = _run_divide(params, a, b)
    rel = np.abs(got - aq / bq) / (aq / bq)
    assert rel.max() <= 1e-3


def test_divide_matches_fx_twin_bit_for_bit():
    rng = np.random.default_rng(7)
    n = 300
    b = np.exp(rng.uniform(np.log(0.01), np.log(100.0), n))
    a = np.minimum(b * np.exp(rng.uniform(np.log(0.5), np.log(4.0), n)), 100.0)
    a_raw = encode_fixed(a, PARAMS)
    b_raw = encode_fixed(b, PARAMS)

    def job(sess):
        ash = shared_input(sess, a_raw, PARAMS.L)
        bsh = shared_input(sess, b_raw, PARAMS.L)
        return open_share(sess, N.divide(sess, ash, bsh))

    got = run_shared(PARAMS, job)[0]
    assert np.array_equal(got, O.fx_divide(a_raw, b_raw, PARAMS))


def test_divide_rejects_nonpositive_divisor():
    with pytest.raises(DomainError):
        _run_divide(PARAMS, np.array([1.0]), np.array([-2.0]))


def _run_invsqrt(params, b_vals):
    b_raw = encode_fixed(b_vals, params)

    def job(sess):
        b = shared_input(sess, b_raw, params.L)
        alpha = N.bounding_power(sess, b)
        return open_share(sess, N.inv_sqrt_newton(sess, b, alpha))

    return decode_fixed(run_shared(params, job)[0], params), decode_fixed(b_raw, params)


def test_inv_sqrt_examples():
    got, _ = _run_invsqrt(PARAMS, np.array([1.0, 4.0]))
    assert abs(got[0] - 1.0) <= 1e-3
    assert abs(got[1] - 0.5) <= 1e-3 * 0.5


def test_inv_sqrt_range_fp16():
    # the full stated range needs fp=16: at fp=13 outputs near 1/sqrt(2^10)
    # sit a half-ulp above 1e-3 relative (representation floor)
    rng = np.random.default_rng(3)
    b = np.exp(rng.uniform(np.log(2.0**-6), np.log(2.0**10), 500))
    got, bq = _run_invsqrt(P16, b)
    rel = np.abs(got - 1 / np.sqrt(bq)) / (1 / np.sqrt(bq))
    assert rel.max() <= 1e-3


def test_inv_sqrt_reduced_range_fp13():
    rng = np.random.default_rng(4)
    b = np.exp(rng.uniform(np.log(2.0**-6), np.log(2.0**4), 500))
    got, bq = _run_invsqrt(PARAMS, b)
    rel = np.abs(got - 1 / np.sqrt(bq)) / (1 / np.sqrt(bq))
    assert rel.max() <= 1e-3


def test_inv_sqrt_matches_fx_twin():
    rng = np.random.default_rng(8)
    b_raw = encode_fixed(np.exp(rng.uniform(np.log(0.1), np.log(900), 200)), PARAMS)

    def job(sess):
        b = shared_input(sess, b_raw, PARAMS.L)
        alpha = N.bounding_power(sess, b)
        return open_share(sess, N.inv_sqrt_newton(sess, b, alpha))

    got = run_shared(PARAMS, job)[0]
    assert np.array_equal(got, O.fx_inv_sqrt(b_raw, O.fx_bounding_power(b_raw, PARAMS), PARAMS))


@pytest.mark.parametrize("params", [PARAMS, P16], ids=["fp13", "fp16"])
def test_sqrt_examples_and_range(params):
    def job(sess):
        vals = np.array([4.0, 2.0, 1.0])
        a = shared_input(sess, encode_fixed(vals, params), params.L)
        return open_share(sess, N.sqrt_newton(sess, a))

    got = decode_fixed(run_shared(params, job)[0], params)
    assert np.allclose(got, [2.0, np.sqrt(2.0), 1.0], rtol=1e-3, atol=0)

    rng = np.random.default_rng(5)
    b = np.exp(rng.uniform(np.log(2.0**-6), np.log(2.0**10), 300))

    def job2(sess):
        a = shared_input(sess, encode_fixed(b, params), params.L)
        return open_share(sess, N.sqrt_newton(sess, a))

    raw2 = run_shared(params, job2)[0]
    assert np.array_equal(raw2, O.fx_sqrt(encode_fixed(b, params), params))
    got2 = decode_fixed(raw2, params)
    bq = decode_fixed(encode_fixed(b, params), params)
    rel = np.abs(got2 - np.sqrt(bq)) / np.sqrt(bq)
    assert rel.max() <= 1e-3


def test_batch_norm_constant_batch():
    # all-equal batch: variance 0, outputs ~0
    def job(sess):
        acts = shared_input(sess, encode_fixed(np.full((1, 4), 2.0), PARAMS), PARAMS.L)
        gamma = shared_input(sess, encode_fixed(np.array([1.0]), PARAMS), PARAMS.L)
        beta = shared_input(sess, encode_fixed(np.array([0.0]), PARAMS), PARAMS.L)
        return open_share(sess, N.batch_norm_forward(sess, acts, gamma, beta)[0])

    out = decode_fixed(run_shared(PARAMS, job)[0], PARAMS)
    assert np.all(np.abs(out) <= 1e-2)


def test_batch_norm_two_point_batch():
    def job(sess):
        acts = shared_input(sess, encode_fixed(np.array([[1.0, 3.0]]), PARAMS), PARAMS.L)
        gamma = shared_input(sess, encode_fixed(np.array([1.0]), PARAMS), PARAMS.L)
        beta = shared_input(sess, encode_fixed(np.array([0.0]), PARAMS), PARAMS.L)
        out1 = open_share(sess, N.batch_norm_forward(sess, acts, gamma, beta)[0])
        gamma2 = shared_input(sess, encode_fixed(np.array([2.0]), PARAMS), PARAMS.L)
        beta2 = shared_input(sess, encode_fixed(np.array([1.0]), PARAMS), PARAMS.L)
        out2 = open_share(sess, N.batch_norm_forward(sess, acts, gamma2, beta2)[0])
        return out1, out2

    out1, out2 = run_shared(PARAMS, job)[0]
    v1 = decode_fixed(out1, PARAMS)
    v2 = decode_fixed(out2, PARAMS)
    # sigma = 1 with eps correction: z ~ [-1, 1] within 2e-2
    assert np.allclose(v1, [[-1.0, 1.0]], atol=2e-2)
    assert np.allclose(v2, [[-1.0, 3.0]], atol=4e-2)


@pytest.mark.parametrize("m", [8, 32, 128])
def test_batch_norm_normalizes_random_batches(m):
    rng = np.random.default_rng(m)
    acts = rng.normal(0, 1.0, size=(4, m))

    def job(sess):
        a = shared_input(sess, encode_fixed(acts, PARAMS), PARAMS.L)
        gamma = shared_input(sess, encode_fixed(np.ones(4), PARAMS), PARAMS.L)
        beta = shared_input(sess, encode_fixed(np.zeros(4), PARAMS), PARAMS.L)
        return open_share(sess, N.batch_norm_forward(sess, a, gamma, beta)[0])

    z = decode_fixed(run_shared(PARAMS, job)[0], PARAMS)
    mu = acts.mean(axis=1, keepdims=True)
    var = ((acts - mu) ** 2).mean(axis=1)
    expect_var = var / (var + 2.0**-10)
    assert np.all(np.abs(z.mean(axis=1)) <= 1e-2)
    got_var = z.var(axis=1)
    assert np.all(np.abs(got_var - expect_var) <= 0.05 * expect_var)


def test_batch_norm_matches_fx_twin():
    rng = np.random.default_rng(77)
    acts = encode_fixed(rng.normal(0, 1, size=(3, 16)), PARAMS)
    gamma = encode_fixed(np.array([1.0, 0.5, 2.0]), PARAMS)
    beta = encode_fixed(np.array([0.0, 0.3, -0.4]), PARAMS)

    def job(sess):
        a = shared_input(sess, acts, PARAMS.L)
        g = shared_input(sess, gamma, PARAMS.L)
        b = shared_input(sess, beta, PARAMS.L)
        return open_share(sess, N.batch_norm_forward(sess, a, g, b)[0])

    got = run_shared(PARAMS, job)[0]
    assert np.array_equal(got, O.fx_batch_norm(acts, gamma, beta, PARAMS))


def test_rescale_with_every_shift_positive_copies_nothing(monkeypatch):
    # nn.sgd_step's one rescale over all 118,282 network-a weights: with one
    # positive shift, x is truncated as it stands, without a gathered copy,
    # a copy scaled by 2^0 and the scatter back. Input and truncation pairs
    # are dealt before tracing, so the peak is the rescale's own; one party
    # computes at a time (it hands a baton on while it waits for a message),
    # so the peak does not depend on how the threads interleave
    n, shift = 118_282, 8
    vals = np.random.default_rng(3).integers(-2**20, 2**20, n)
    shares = share_secret(reduce_mod(vals, PARAMS.L), PARAMS.L, np.random.default_rng(4))
    pairs = [DealerPrep(PartyId(i), PARAMS).trunc_pairs(n, shift) for i in (1, 2, 3)]
    baton, holding = threading.Lock(), threading.local()
    get = transport.Pipe.get

    def handing_on(pipe, timeout):
        if not getattr(holding, "on", False):
            return get(pipe, timeout)
        baton.release()
        try:
            return get(pipe, timeout)
        finally:
            baton.acquire()

    def job(sess):
        i = sess.party.index - 1
        sess.prep = SimpleNamespace(trunc_pairs=lambda n, d: pairs[i])
        with baton:
            holding.on = True
            try:
                return N.rescale(sess, shares[i], np.int64(shift), nearest=True)
            finally:
                holding.on = False

    monkeypatch.setattr(transport.Pipe, "get", handing_on)
    tracemalloc.start()
    try:
        out = run_three_parties(job, PARAMS, threat=ThreatModel.MALICIOUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(signed(reconstruct_all(out), PARAMS), (vals + (1 << shift - 1)) >> shift)
    assert peak < 16.5e6, f"rescale of {n} elements peaked at {peak / 1e6:.1f} MB over three parties"
