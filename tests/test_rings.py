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
    shift_signed,
    signed,
    sub_mod,
    wrap2,
    wrap3,
    wrap3_exact,
)
from falcon.rss import deserialize_elems, elem_bits, serialize_elems, wire_nbytes


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
        assert dtype_for(p) is np.uint8
        # and a Z_p element packs in under a byte: ceil(log2 p) <= 7 bits
        assert elem_bits(p, ell) == (p - 1).bit_length() <= 7
        assert wire_nbytes(p, ell, 8) == elem_bits(p, ell)
    assert RingParams(ell=32).p == 37
    assert RingParams(ell=64).p == 67
    # so a 64-bit ring needs no prime passed alongside it
    rc = cli.main(["bench", "--protocol", "relu", "--n", "8", "--ring-bits", "64", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ring_bits"] == 64 and report["round_ratio"] == 1.0


def test_reduction_is_exact_for_every_compare_prime():
    # reduce_mod takes an odd p by x - p (x // p), its quotient wrapping in
    # the uint8 output; mul_mod reduces its uint16 products the same way.
    # Every narrow input, for every prime some ell derives
    primes = sorted({RingParams(ell=ell, fp=4).p for ell in range(8, 65)})
    assert primes[0] == 11 and primes[-1] == 67
    x = np.arange(1 << 16, dtype=np.uint16)
    # three reduction chunks, the last one short, in a 2-D array
    spread = np.concatenate([x, x[::-1], x[:6]]).reshape(2, -1)
    for p in primes:
        for xs in (x, x[:256].astype(np.uint8), spread):
            got = reduce_mod(xs, p)
            assert got.dtype == np.uint8 and got.shape == xs.shape
            assert np.array_equal(got, xs % np.uint16(p)), p
        a, b = (g.astype(np.uint8) for g in np.meshgrid(np.arange(p), np.arange(p)))
        assert np.array_equal(mul_mod(a, b, p), a.astype(np.int64) * b % p), p
    # and wide inputs of either sign: the edges, then random words
    rng = np.random.default_rng(26)
    words = {
        np.uint32: rng.integers(0, 1 << 32, 100_000, dtype=np.uint32),
        np.uint64: rng.integers(0, 1 << 64, 100_000, dtype=np.uint64),
        np.int64: rng.integers(-(1 << 63), (1 << 63) - 1, 100_000, dtype=np.int64, endpoint=True),
    }
    for p in primes:
        edges = {
            np.uint32: [0, p - 1, p, (1 << 32) - 1],
            np.uint64: [0, p - 1, p, (1 << 32) - 1, (1 << 64) - 1],
            np.int64: [0, p - 1, p, (1 << 32) - 1, -1, -p, (1 << 63) - 1, -(1 << 63)],
        }
        for t, rand in words.items():
            xs = np.concatenate([np.array(edges[t], t), rand])
            got = reduce_mod(xs, p)
            assert got.dtype == np.uint8 and got.tolist() == [v % p for v in xs.tolist()], (p, t)
            # into a strided slice of a given output, leaving the rest alone
            out = np.full(2 * xs.size, 255, np.uint8)
            assert np.shares_memory(reduce_mod(xs, p, out=out[::2]), out)
            assert np.array_equal(out[::2], got) and not np.any(out[1::2] != 255), (p, t)


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
    bits = bit_decompose(x, p)  # (ell, n) planes
    assert bits.shape == (8, 100) and bits.flags.c_contiguous
    back = (bits * (np.uint64(1) << np.arange(8, dtype=np.uint64))[:, None]).sum(axis=0)
    assert np.array_equal(back, x)
    # bit-major for any shape: plane i of an array holds bit i of each element
    x2 = x.reshape(4, 25)
    assert np.array_equal(bit_decompose(x2, p), bits.reshape(8, 4, 25))


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
    # a received element is range-checked, not reduced: the values below mod
    # come back as they are, and any other value of its slot rejects its payload
    below = np.arange(mod, dtype=np.uint8)
    got = deserialize_elems(serialize_elems(below, mod, 32), mod, 32, (mod,))
    assert got.dtype == dt and got.flags.writeable and got.tolist() == octets[:mod]
    for v in range(mod, 1 << elem_bits(mod, 32)):
        with pytest.raises(RingError):
            deserialize_elems(serialize_elems(np.append(below, v), mod, 32), mod, 32, (mod + 1,))
    large = [1 << 16, (1 << 17) - 1, 1 << 17, (1 << 32) + 5, 1 << 63, (1 << 64) - 1]
    got = reduce_mod(np.array(large, np.uint64), mod)
    assert got.dtype == dt and got.tolist() == [v % mod for v in large]
    negative = [-1, -mod, -mod - 1, -300, -(1 << 40), -(1 << 63)]
    got = reduce_mod(np.array(negative, np.int64), mod)
    assert got.dtype == dt and got.tolist() == [v % mod for v in negative]
    for v in large + negative:
        got = np.asarray(reduce_mod(v, mod))
        assert got.dtype == dt and int(got) == v % mod


# (modulus, ell, wire bits per element): every small modulus packs at
# ceil(log2 mod) bits; Z_L keeps its 1, 4 or 8-byte words
WIRE_RINGS = [(m, 32, (m - 1).bit_length()) for m in SMALL_MODULI] + [
    (2**8, 8, 8), (2**20, 20, 32), (2**32, 32, 32), (2**64, 64, 64)]
WIRE_SIZES = list(range(18)) + [63, 64, 65, 100_003]


def _reference_packing(vals: list, b: int) -> bytes:
    # the documented layout, bit by bit: zero-pad to 8g, cut into P rows;
    # column j of the output rows is a little-endian word holding row k's
    # element j at bits b*k to b*k + b - 1
    g = -(-len(vals) // 8)
    period = 8 // np.gcd(b, 8)
    cols = 8 * g // period
    padded = vals + [0] * (8 * g - len(vals))
    words = [sum(padded[k * cols + j] << (b * k) for k in range(period)) for j in range(cols)]
    return bytes((words[j] >> (8 * r)) & 255 for r in range(b * period // 8) for j in range(cols))


@pytest.mark.parametrize("mod, ell, bits", WIRE_RINGS, ids=lambda v: str(v))
def test_wire_codec_round_trips_at_the_packed_length(mod, ell, bits):
    rng = np.random.default_rng(mod % 1000 + ell)
    assert elem_bits(mod, ell) == bits
    for n in WIRE_SIZES:
        want_len = bits * -(-n // 8) if bits < 8 else n * bits // 8
        assert wire_nbytes(mod, ell, n) == want_len
        vals = rng.integers(0, mod, n, dtype=np.uint64)
        vals[: min(n, 2)] = [0, mod - 1][: min(n, 2)]
        x = vals.astype(dtype_for(mod))
        buf = serialize_elems(x, mod, ell)
        assert len(buf) == want_len, n
        if bits < 8 and n < 100:
            assert buf == _reference_packing([int(v) for v in vals], bits), n
        got = deserialize_elems(buf, mod, ell, (n,))
        assert got.dtype == dtype_for(mod) and got.flags.writeable
        assert np.array_equal(got, x), n
    # any shape, and any storage of reduced values, packs as its flat elements
    x = rng.integers(0, mod, (3, 5, 7), dtype=np.uint64)
    buf = serialize_elems(x[:, ::2], mod, ell)
    assert buf == serialize_elems(np.ascontiguousarray(x[:, ::2]).reshape(-1), mod, ell)
    assert np.array_equal(deserialize_elems(buf, mod, ell, (3, 3, 7)), x[:, ::2])


@pytest.mark.parametrize("mod", SMALL_MODULI)
def test_wire_codec_refuses_every_slot_value_past_the_modulus(mod):
    b = elem_bits(mod, 32)
    rng = np.random.default_rng(mod)
    for n in (1, 8, 13, 16, 17):
        x = rng.integers(0, mod, n).astype(np.uint8)
        for pos in {0, n // 2, n - 1}:
            for v in range(mod, 1 << b):
                bad = x.copy()
                bad[pos] = v
                with pytest.raises(RingError, match=f"element {v}, not below"):
                    deserialize_elems(serialize_elems(bad, mod, 32), mod, 32, (n,))


@pytest.mark.parametrize("mod", SMALL_MODULI)
def test_wire_codec_refuses_any_nonzero_padding_bit(mod):
    # over an all-zero payload, a data bit decodes to one element 2^i < mod,
    # and each of the (8g - n) * b padding bits rejects the payload
    b = elem_bits(mod, 32)
    for n in (1, 5, 13, 63, 65):
        buf = serialize_elems(np.zeros(n, np.uint8), mod, 32)
        refused = 0
        for bit in range(8 * len(buf)):
            flipped = bytearray(buf)
            flipped[bit // 8] ^= 1 << (bit % 8)
            try:
                got = deserialize_elems(bytes(flipped), mod, 32, (n,))
            except RingError as exc:
                assert "padding" in str(exc)
                refused += 1
            else:
                assert np.count_nonzero(got) == 1 and int(got.max()).bit_count() == 1
        assert refused == (-(-n // 8) * 8 - n) * b, n


@pytest.mark.parametrize("mod, ell, bits", WIRE_RINGS, ids=lambda v: str(v))
def test_wire_codec_refuses_a_byte_short_or_long(mod, ell, bits):
    for n in (0, 1, 8, 13, 64):
        buf = serialize_elems(np.zeros(n, dtype_for(mod)), mod, ell)
        for bad in (buf[:-1], buf + b"\x00"):
            if len(bad) != len(buf):
                with pytest.raises(RingError, match="payload bytes"):
                    deserialize_elems(bad, mod, ell, (n,))


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


@pytest.mark.parametrize("ell", [8, 16, 31, 32, 33, 64])
def test_ring_word_kernels_match_python_ints(ell):
    # Z_L lives in uint32 up to ell = 32 and in uint64 above; every kernel
    # works in that word and must agree with Python ints, at the residues
    # next to L - 1 and L / 2 where a wrap in the word would show
    params = RingParams(ell=ell, fp=4)
    L, top = params.L, params.L - 1
    dt = dtype_for(L)
    assert dt is (np.uint32 if ell <= 32 else np.uint64)
    rng = np.random.default_rng(ell)
    edges = [0, 1, 2, L // 2 - 1, L // 2, L // 2 + 1, L - 2, top]
    xs = edges * 3 + [int(v) & top for v in rng.integers(0, 2**64, 200, dtype=np.uint64)]
    ys = edges[::-1] + edges[1:] + edges[:1] + edges
    ys += [int(v) & top for v in rng.integers(0, 2**64, 200, dtype=np.uint64)]
    a, b = (reduce_mod(np.array(v, np.uint64), L) for v in (xs, ys))
    assert a.dtype == b.dtype == dt
    for fn, ref in BINARY_OPS:
        got = fn(a, b, L)
        assert got.dtype == dt and got.tolist() == [ref(x, y) % L for x, y in zip(xs, ys)], fn
    assert neg_mod(a, L).tolist() == [-x % L for x in xs]

    # a long inner dimension of residues near L - 1: every product and sum wraps
    k = 4096
    A = [[top - int(v) for v in rng.integers(0, 8, k)] for _ in range(2)]
    B = [[top - int(v) for v in rng.integers(0, 8, 3)] for _ in range(k)]
    got = matmul_mod(np.array(A, np.uint64), np.array(B, np.uint64), L)
    assert got.dtype == dt
    assert got.tolist() == [[sum(A[i][j] * B[j][c] for j in range(k)) % L for c in range(3)]
                            for i in range(2)]

    # two- and three-operand carries at a1 + a2 in {L - 1, L, 2 L - 2}
    a1 = [int(v) for v in rng.integers(1, L, 30, dtype=np.uint64)] + [1, top]
    pairs = [(v, top - v) for v in a1] + [(v, L - v) for v in a1] + [(top, top)] * 3
    p1, p2 = (np.array([p[i] for p in pairs], np.uint64) for i in range(2))
    assert wrap2(p1, p2, L).tolist() == [int(x + y >= L) for x, y in pairs]
    thirds = [(0, 1, top)[i % 3] for i in range(len(pairs))]
    assert wrap3(p1, p2, np.array(thirds, np.uint64), L).tolist() == [
        (x + y + z) // L % 2 for (x, y), z in zip(pairs, thirds)]

    bits = bit_decompose(a, params)
    assert bits.shape == (ell, len(xs))
    assert bits.tolist() == [[(x >> i) & 1 for x in xs] for i in range(ell)]

    sx = [x - L if x >> (ell - 1) else x for x in xs]
    assert signed(a, params).tolist() == sx
    for d in (0, 1, params.fp, ell - 1):
        got = shift_signed(a, d, params)
        assert got.dtype == dt and got.tolist() == [(s >> d) % L for s in sx], d
    per_elem = np.arange(len(xs)) % ell
    assert shift_signed(a, per_elem, params).tolist() == [
        (s >> int(d)) % L for s, d in zip(sx, per_elem)]
