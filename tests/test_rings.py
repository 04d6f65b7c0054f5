"""Ring arithmetic, fixed-point encoding and the plain wrap functions."""

import numpy as np
import pytest

from falcon.rings import (
    RingError,
    RingParams,
    bit_decompose,
    decode_fixed,
    encode_fixed,
    reduce_mod,
    signed,
    wrap2,
    wrap3,
    wrap3_exact,
)


def test_params_defaults():
    p = RingParams()
    assert (p.ell, p.p, p.fp) == (32, 37, 13)
    assert p.L == 2**32


@pytest.mark.parametrize(
    "ell,p,fp",
    [(7, 37, 4), (65, 131, 13), (32, 33, 13), (32, 31, 13), (32, 37, 0), (32, 37, 30)],
)
def test_params_invalid(ell, p, fp):
    with pytest.raises(RingError):
        RingParams(ell=ell, p=p, fp=fp)


def test_encode_examples():
    p = RingParams(ell=32, fp=13)
    assert encode_fixed(2.5, p) == 20480
    assert encode_fixed(0.0, p) == 0
    assert encode_fixed(-2.5, p) == 2**32 - 20480


def test_encode_overflow():
    p = RingParams(ell=32, fp=13)
    with pytest.raises(OverflowError):
        encode_fixed(2.0 ** (32 - 1 - 13), p)


def test_encode_decode_roundtrip_exact():
    p = RingParams(ell=32, fp=13)
    rng = np.random.default_rng(7)
    # all multiples of 2^-fp in range survive the round trip exactly
    grid = (rng.integers(-(2**18) + 1, 2**18, size=2000)).astype(np.float64) / 2**13 * 2**13
    reals = grid / 2**13 * 2**13  # integer raws scaled back
    vals = rng.integers(-(2**30) + 1, 2**30, size=2000).astype(np.float64) / 2**13
    raw = encode_fixed(vals, p)
    assert np.allclose(decode_fixed(raw, p), vals, atol=0)


def test_wrap2_examples():
    assert wrap2(200, 100, 256) == 1
    assert wrap2(0, 0, 256) == 0
    assert wrap2(255, 1, 256) == 1  # sum exactly L


def test_wrap3_examples():
    assert wrap3_exact(100, 100, 100, 256) == 1
    assert wrap3_exact(0, 0, 0, 256) == 0
    assert wrap3_exact(255, 255, 255, 256) == 2
    assert wrap3(255, 255, 255, 256) == 0


def test_wrap3_is_exact_integer_relation():
    # a = a1 + a2 + a3 - wrap3_exact * L as plain integers
    rng = np.random.default_rng(3)
    L = 2**16
    a1, a2, a3 = (rng.integers(0, L, 5000, dtype=np.uint64) for _ in range(3))
    a = reduce_mod(a1 + a2 + a3, L)
    lhs = a1.astype(object) + a2.astype(object) + a3.astype(object) - wrap3_exact(a1, a2, a3, L).astype(object) * L
    assert np.all(lhs == a.astype(object))


def test_wrap2_exact_integer_relation():
    rng = np.random.default_rng(4)
    L = 2**32
    a1, a2 = (rng.integers(0, L, 5000, dtype=np.uint64) for _ in range(2))
    back = a1.astype(object) + a2.astype(object) - wrap2(a1, a2, L).astype(object) * L
    assert np.all(back >= 0) and np.all(back < L)


def test_bit_decompose():
    p = RingParams(ell=8, fp=4)
    assert list(bit_decompose(np.uint64(5), p)[:4]) == [1, 0, 1, 0]
    assert np.all(bit_decompose(np.uint64(0), p) == 0)
    assert np.all(bit_decompose(np.uint64(255), p) == 1)
    # recomposition
    rng = np.random.default_rng(5)
    x = rng.integers(0, 256, 100, dtype=np.uint64)
    bits = bit_decompose(x, p)
    back = (bits * (np.uint64(1) << np.arange(8, dtype=np.uint64))).sum(axis=-1)
    assert np.array_equal(back, x)


def test_signed_view():
    p = RingParams(ell=8, fp=4)
    assert signed(np.uint64(255), p) == -1
    assert signed(np.uint64(127), p) == 127
    assert signed(np.uint64(128), p) == -128
    # every width against Python-int references, edges included
    rng = np.random.default_rng(6)
    for ell in (8, 16, 32, 40, 62, 63, 64):
        p = RingParams(ell=ell, p=67, fp=4)
        top = (1 << ell) - 1
        raws = [0, 1, (1 << (ell - 1)) - 1, 1 << (ell - 1), top]
        raws += [int(v) & top for v in rng.integers(0, 2**64, 200, dtype=np.uint64)]
        want = [v - (1 << ell) if v >> (ell - 1) else v for v in raws]
        assert signed(np.array(raws, np.uint64), p).tolist() == want
