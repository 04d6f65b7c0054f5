"""Ring arithmetic, fixed-point encoding and the plain wrap functions."""

import json

import numpy as np
import pytest

from falcon import cli
from falcon.rings import (
    RingError,
    RingParams,
    add_mod,
    bit_decompose,
    decode_fixed,
    dtype_for,
    encode_fixed,
    matmul_mod,
    mul_mod,
    neg_mod,
    reduce_mod,
    signed,
    sub_mod,
    wrap2,
    wrap3,
    wrap3_exact,
)
from falcon.rss import deserialize_elems, elem_width


def test_params_defaults():
    p = RingParams()
    assert (p.ell, p.p, p.fp) == (32, 37, 13)
    assert p.L == 2**32


@pytest.mark.parametrize("ell,fp", [(7, 4), (65, 13), (32, 0), (32, 30)])
def test_params_invalid(ell, fp):
    with pytest.raises(RingError):
        RingParams(ell=ell, fp=fp)


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_compare_prime_follows_from_ell(capsys):
    # the smallest prime above ell + 1 keeps every compare factor, in
    # [0, ell + 1], nonzero unless it is 0; it never leaves a uint8
    for ell in range(8, 65):
        p = RingParams(ell=ell, fp=4).p
        assert _is_prime(p) and p > ell + 1, ell
        assert not any(_is_prime(q) for q in range(ell + 2, p)), ell
        assert p <= 67
        assert dtype_for(p) is np.uint8 and elem_width(p, ell) == 1
    assert RingParams(ell=32).p == 37
    assert RingParams(ell=64).p == 67
    # so a 64-bit ring needs no prime passed alongside it
    rc = cli.main(["bench", "--protocol", "relu", "--n", "8", "--ring-bits", "64", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ring_bits"] == 64 and report["round_ratio"] == 1.0


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


@pytest.mark.parametrize("ell", [8, 16, 32, 63, 64])
def test_wrap3_is_exact_integer_relation(ell):
    # a = a1 + a2 + a3 - wrap3_exact * L as plain integers
    rng = np.random.default_rng(3)
    L = 2**ell
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
        p = RingParams(ell=ell, fp=4)
        top = (1 << ell) - 1
        raws = [0, 1, (1 << (ell - 1)) - 1, 1 << (ell - 1), top]
        raws += [int(v) & top for v in rng.integers(0, 2**64, 200, dtype=np.uint64)]
        want = [v - (1 << ell) if v >> (ell - 1) else v for v in raws]
        assert signed(np.array(raws, np.uint64), p).tolist() == want


# Z_2 and every compare prime (11 at ell = 8 up to 67 at ell = 64) are
# stored as uint8, as is 127, the largest odd modulus a + b cannot wrap there
SMALL_MODULI = (2, 11, 37, 67, 127)
BINARY_OPS = ((add_mod, lambda x, y: x + y), (sub_mod, lambda x, y: x - y),
              (mul_mod, lambda x, y: x * y))


@pytest.mark.parametrize("mod", SMALL_MODULI)
def test_small_ring_helpers_exhaustive(mod):
    dt = dtype_for(mod)
    assert dt is np.uint8
    pairs = [(x, y) for x in range(mod) for y in range(mod)]
    a = np.array([x for x, _ in pairs])
    b = np.array([y for _, y in pairs])
    for fn, op in BINARY_OPS:
        want = [op(x, y) % mod for x, y in pairs]
        for ta in (np.uint8, np.uint64):
            for tb in (np.uint8, np.uint64):
                got = fn(a.astype(ta), b.astype(tb), mod)
                assert got.dtype == dt, (fn.__name__, ta, tb)
                assert got.tolist() == want, (fn.__name__, ta, tb)
    for ta in (np.uint8, np.uint64):
        got = neg_mod(np.arange(mod, dtype=ta), mod)
        assert got.dtype == dt
        assert got.tolist() == [-x % mod for x in range(mod)]


@pytest.mark.parametrize("mod", SMALL_MODULI)
def test_small_ring_helpers_python_int_operands(mod):
    dt = dtype_for(mod)
    row = np.arange(mod)
    for fn, op in BINARY_OPS:
        for x in range(mod):
            for arr in (row.astype(np.uint8), row.astype(np.uint64)):
                left, right = fn(x, arr, mod), fn(arr, x, mod)
                assert left.dtype == dt and right.dtype == dt
                assert left.tolist() == [op(x, y) % mod for y in range(mod)]
                assert right.tolist() == [op(y, x) % mod for y in range(mod)]
            both = np.asarray(fn(x, mod - 1, mod))
            assert both.dtype == dt and int(both) == op(x, mod - 1) % mod
    for x in range(mod):
        got = np.asarray(neg_mod(x, mod))
        assert got.dtype == dt and int(got) == -x % mod


@pytest.mark.parametrize("mod", SMALL_MODULI)
def test_reduce_and_deserialize_cover_every_input(mod):
    dt = dtype_for(mod)
    octets = list(range(256))
    for t in (np.uint8, np.uint16, np.uint64, np.int64):
        got = reduce_mod(np.array(octets, t), mod)
        assert got.dtype == dt and got.tolist() == [v % mod for v in octets]
    # a received element is range-checked, not reduced: the octets below mod
    # come back as they are, and any other one rejects its payload
    got = deserialize_elems(bytes(octets[:mod]), mod, 32, (mod,))
    assert got.dtype == dt and got.flags.writeable and got.tolist() == octets[:mod]
    for v in octets[mod:]:
        with pytest.raises(RingError):
            deserialize_elems(bytes(octets[:mod] + [v]), mod, 32, (mod + 1,))
    large = [1 << 16, (1 << 17) - 1, 1 << 17, (1 << 32) + 5, 1 << 63, (1 << 64) - 1]
    got = reduce_mod(np.array(large, np.uint64), mod)
    assert got.dtype == dt and got.tolist() == [v % mod for v in large]
    negative = [-1, -mod, -mod - 1, -300, -(1 << 40), -(1 << 63)]
    got = reduce_mod(np.array(negative, np.int64), mod)
    assert got.dtype == dt and got.tolist() == [v % mod for v in negative]
    for v in large + negative:
        got = np.asarray(reduce_mod(v, mod))
        assert got.dtype == dt and int(got) == v % mod


def _object_matmul(a, b, mod):
    # Python-int reference: no wraps, one reduction of the exact product
    return (a.astype(object) @ b.astype(object)) % mod


# (rows, inner, cols): inner 1, inner >= 2048, and trunc_pairs' shape
# (instances, bit positions) @ (bit positions, 1)
MATMUL_SHAPES = ((5, 1, 7), (3, 2048, 4), (2, 2500, 3), (9, 31, 1), (16, 25, 40))


@pytest.mark.parametrize("mod", [2**8, 2**16, 2**32, 2**63, 2**64, 37])
def test_matmul_mod_matches_python_ints(mod):
    rng = np.random.default_rng(mod % 1000)
    for m, k, n in MATMUL_SHAPES:
        a = rng.integers(0, mod, (m, k), dtype=np.uint64)
        b = rng.integers(0, mod, (k, n), dtype=np.uint64)
        a[0], b[:, 0] = mod - 1, mod - 1  # the largest residue meets itself
        got = matmul_mod(a, b, mod)
        assert got.dtype == dtype_for(mod) and got.shape == (m, n)
        assert got.astype(object).tolist() == _object_matmul(a, b, mod).tolist(), (m, k, n)
        # transposed (non-contiguous) operands read the same values
        at, bt = np.asfortranarray(a), np.asfortranarray(b)
        assert np.array_equal(matmul_mod(at, bt, mod), got)
        assert np.array_equal(matmul_mod(b.T, a.T, mod), got.T)
