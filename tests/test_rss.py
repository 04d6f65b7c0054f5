"""Replicated sharing: creation, linear homomorphism, PRF randomness."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from scipy import stats

from falcon.rings import RingError, add_mod, dtype_for
from falcon.rss import (
    PartyId,
    PrfState,
    PrfStream,
    RssShare,
    add_public,
    add_shares,
    public_share,
    scale_share,
    share_secret,
    unwindow_share,
    window_share,
    zero_randomness_2of3,
    zero_randomness_3of3,
)
from conftest import reconstruct_all


def _make_prfs(seed=0):
    seeds = PrfState.setup_seeds(seed)
    return [PrfState.from_seeds(seeds[i - 1], seeds[i - 2]) for i in (1, 2, 3)]


def test_party_id_cycles():
    p = PartyId(1)
    assert p.next.index == 2 and p.prev.index == 3
    assert PartyId(3).next.index == 1
    for i in (1, 2, 3):
        assert PartyId(i).next.next.next == PartyId(i)


def test_share_reconstruct():
    rng = np.random.default_rng(0)
    for x in (2, 0, 255):
        shares = share_secret(np.uint64(x), 256, rng)
        assert reconstruct_all(shares) == x


def test_share_components_uniformish():
    # a single party's pair of a fresh sharing of a fixed secret is uniform
    rng = np.random.default_rng(1)
    los = np.array([share_secret(np.uint64(7), 256, rng)[0].lo for _ in range(4000)])
    counts = np.bincount(los.astype(int), minlength=256)
    assert stats.chisquare(counts).pvalue > 1e-4


def test_linear_ops():
    rng = np.random.default_rng(2)
    mod = 2**32
    xs = share_secret(np.uint64(2), mod, rng)
    ys = share_secret(np.uint64(3), mod, rng)
    out = [add_shares(xs[i], ys[i]) for i in range(3)]
    assert reconstruct_all(out) == 5
    # a public constant
    const = [public_share(PartyId(i + 1), np.uint64(7), mod) for i in range(3)]
    assert reconstruct_all(const) == 7
    # negation of x = 2
    neg = [scale_share(mod - 1, xs[i]) for i in range(3)]
    assert reconstruct_all(neg) == mod - 2


def test_linear_homomorphism_exhaustive_small():
    # reconstruction commutes with arbitrary linear sequences
    # (exhaustive over the smallest supported ring, ell = 8)
    mod = 256
    rng = np.random.default_rng(3)
    for x in range(0, 256, 17):
        for y in range(0, 256, 23):
            xs = share_secret(np.uint64(x), mod, rng)
            ys = share_secret(np.uint64(y), mod, rng)
            out = [add_public(PartyId(i + 1),
                              add_shares(scale_share(3, xs[i]), scale_share(5, ys[i])), 11)
                   for i in range(3)]
            assert reconstruct_all(out) == (3 * x + 5 * y + 11) % 256


def test_modulus_mixing_rejected():
    rng = np.random.default_rng(4)
    xs = share_secret(np.uint64(1), 256, rng)
    ys = share_secret(np.uint64(1), 37, rng)
    with pytest.raises(RingError):
        add_shares(xs[0], ys[0])


WINDOW_CASES = [  # (F, stride, pad, H, W)
    (3, 1, 1, 8, 8),
    (3, 2, 2, 7, 9),
    (2, 2, 0, 6, 5),
    (3, 2, 0, 7, 7),
    (3, 3, 1, 4, 11),
    (5, 1, 0, 5, 6),
    (1, 1, 0, 3, 4),
]


@pytest.mark.parametrize("F, stride, pad, H, W", WINDOW_CASES)
@pytest.mark.parametrize("mod", [2**32, 37])
def test_window_share_is_the_strided_padded_windows(mod, F, stride, pad, H, W):
    rng = np.random.default_rng(F * 100 + H)
    x = RssShare(rng.integers(0, mod, (2, 3, H, W)), rng.integers(0, mod, (2, 3, H, W)), mod)
    win = window_share(x, F, stride, pad)
    Ho, Wo = (H + 2 * pad - F) // stride + 1, (W + 2 * pad - F) // stride + 1
    assert win.shape == (2, 3, Ho, Wo, F, F)
    for a, got in ((x.lo, win.lo), (x.hi, win.hi)):
        padded = np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        for i in range(Ho):
            for j in range(Wo):
                want = padded[:, :, i * stride : i * stride + F, j * stride : j * stride + F]
                assert np.array_equal(got[:, :, i, j], want)


@pytest.mark.parametrize("F, stride, pad, H, W", WINDOW_CASES)
@pytest.mark.parametrize("mod", [2**32, 37])
def test_unwindow_share_is_the_adjoint_of_window_share(mod, F, stride, pad, H, W):
    # <window(x), d> = <x, unwindow(d)> mod m, per share component
    rng = np.random.default_rng(F * 100 + W)
    shape = (2, 3, H, W)
    x = RssShare(rng.integers(0, mod, shape), rng.integers(0, mod, shape), mod)
    win = window_share(x, F, stride, pad)
    d = RssShare(rng.integers(0, mod, win.shape), rng.integers(0, mod, win.shape), mod)
    back = unwindow_share(d, shape, stride, pad)
    assert back.shape == shape and back.lo.dtype == dtype_for(mod)
    for xa, wa, da, ba in ((x.lo, win.lo, d.lo, back.lo), (x.hi, win.hi, d.hi, back.hi)):
        lhs = sum(int(v) for v in (wa.astype(object) * da.astype(object)).ravel()) % mod
        rhs = sum(int(v) for v in (xa.astype(object) * ba.astype(object)).ravel()) % mod
        assert lhs == rhs


def test_zero_randomness_3of3_sums_to_zero():
    prfs = _make_prfs()
    vals = [zero_randomness_3of3(p, 64, 2**32) for p in prfs]
    total = add_mod(add_mod(vals[0], vals[1], 2**32), vals[2], 2**32)
    assert np.all(total == 0)


def test_zero_randomness_3of3_deterministic():
    a = zero_randomness_3of3(_make_prfs()[0], 16, 2**32)
    b = zero_randomness_3of3(_make_prfs()[0], 16, 2**32)
    assert np.array_equal(a, b)


def test_zero_randomness_3of3_independent_draws():
    prf = _make_prfs()[0]
    draws = prf.with_next.draw_mod(10**4, 256)
    counts = np.bincount(draws.astype(int), minlength=256)
    assert stats.chisquare(counts).pvalue > 1e-4
    again = prf.with_next.draw_mod(10**4, 256)
    assert not np.array_equal(draws, again)


def test_zero_randomness_2of3_replicated_layout():
    # adjacent components agree across parties and the triple is a valid RSS
    prfs = _make_prfs()
    shares = [zero_randomness_2of3(p, 32, 2**32) for p in prfs]
    reconstruct_all(shares)  # asserts hi_i == lo_{i+1}


def _keystream(key, counter, nbytes):
    # one AES-CTR call over the whole draw: the reference for the pieces
    nonce = counter.to_bytes(8, "little") + b"\x00" * 8
    return Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor().update(b"\x00" * nbytes)


@pytest.mark.parametrize("mod", [11, 37, 67])
def test_draw_mod_small_moduli_read_four_stream_bytes_per_element(mod):
    # the storage dtype narrows with the odd modulus; the AES stream does
    # not, and a draw longer than one keystream piece reads the same stream
    key = bytes(range(16))
    for n in (1000, 200_000):
        got = PrfStream(key).draw_mod(n, mod)
        raw = np.frombuffer(_keystream(key, 0, 4 * n), "<u4").astype(np.uint64)
        assert got.dtype == dtype_for(mod)
        assert np.array_equal(got, raw % np.uint64(mod))


def test_draw_mod_z2_reads_one_stream_bit_per_element():
    # n bits from ceil(n / 8) keystream bytes, little-endian within a byte,
    # across piece boundaries and for n not a multiple of 8
    key = bytes(range(16))
    for n in (1, 13, 1000, 4_000_003):
        got = PrfStream(key).draw_mod(n, 2)
        octets = np.frombuffer(_keystream(key, 0, -(-n // 8)), np.uint8)
        assert got.dtype == np.uint8
        assert np.array_equal(got, np.unpackbits(octets, bitorder="little")[:n])


@pytest.mark.parametrize("ell", [8, 16, 17, 32])
def test_draw_mod_power_of_two_reads_four_stream_bytes_per_element(ell):
    key = bytes(range(16))
    for n in (1000, 200_000):
        got = PrfStream(key).draw_mod(n, 1 << ell)
        raw = np.frombuffer(_keystream(key, 0, 4 * n), "<u4").astype(np.uint64)
        assert got.dtype == dtype_for(1 << ell)
        assert np.array_equal(got, raw & np.uint64((1 << ell) - 1))


@pytest.mark.parametrize("mod", [2, 37, 1 << 16, 1 << 32, 1 << 40, 1 << 64])
def test_draw_mod_holders_agree_in_range(mod):
    # both holders of a key draw the same values, in range, and each draw
    # advances the counter once, so consecutive draws differ
    a, b = PrfStream(bytes(16)), PrfStream(bytes(16))
    draws = []
    for n in (1 << 16, 1 << 16, 5):
        x, y = a.draw_mod(n, mod), b.draw_mod(n, mod)
        assert x.dtype == dtype_for(mod) and np.array_equal(x, y)
        assert mod == 1 << 64 or int(x.max()) < mod
        draws.append(x)
    assert a.counter == b.counter == 3
    assert not np.array_equal(draws[0], draws[1])
    if mod == 2:  # balanced: 2^15 +- 5 sigma ones over 2^16 bits
        for x in draws[:2]:
            assert abs(int(x.sum()) - (1 << 15)) < 5 * 128


def test_draw_mod_z2_unpacks_within_the_piece_buffer():
    # a Z_2 draw holds its 1-byte-per-bit output, one keystream piece and an
    # unpacked temporary no larger than that piece: 4.0 + 0.25 + 0.25 MiB
    # here, where unpacking a whole piece at once made an 8x temporary
    # (6.1 MiB)
    prf = PrfStream(bytes(range(16)))
    prf.draw_mod(8, 2)  # the cipher's lazy set-up is not the draw's
    tracemalloc.start()
    try:
        got = prf.draw_mod(4_000_003, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _reference_draw(bytes(range(16)), 1, 2, 4_000_003))
    assert peak < 4.6 * 2**20, peak


def test_draw_u64_reads_the_one_call_keystream():
    key = bytes(range(16))
    prf = PrfStream(key)
    prf.draw_u64(5)
    got = prf.draw_u64(100_000)  # several keystream pieces, counter 1
    assert got.dtype == np.uint64
    assert np.array_equal(got, np.frombuffer(_keystream(key, 1, 800_000), "<u8"))


# (modulus, n) of a draw, "u64" for draw_u64: odd n, each over several
# keystream pieces of 2^18 bytes but the Z_2 draw, which spans two
_BUFFER_DRAWS = [(37, 200_001), ("u64", 100_003), (2, 4_000_003), (1 << 32, 70_001), (67, 65_537)]


def _reference_draw(key, counter, mod, n):
    if mod == "u64":
        return np.frombuffer(_keystream(key, counter, 8 * n), "<u8")
    if mod == 2:
        octets = np.frombuffer(_keystream(key, counter, -(-n // 8)), np.uint8)
        return np.unpackbits(octets, bitorder="little")[:n]
    words = np.frombuffer(_keystream(key, counter, 4 * n), "<u4").astype(np.uint64)
    return words & np.uint64(mod - 1) if mod & (mod - 1) == 0 else words % np.uint64(mod)


def _draw(prf, mod, n):
    return prf.draw_u64(n) if mod == "u64" else prf.draw_mod(n, mod)


def test_draws_of_streams_interleaved_or_in_threads_read_their_keystreams():
    # each draw encrypts its pieces into a buffer of its own: two streams
    # drawing in turn, and three streams drawing in three threads at once,
    # each read their one-call keystreams
    keys = [bytes([7 * i + 1]) * 16 for i in range(3)]
    a, b = PrfStream(keys[0]), PrfStream(keys[1])
    for counter, (mod, n) in enumerate(_BUFFER_DRAWS):
        x, y = _draw(a, mod, n), _draw(b, mod, n)
        assert np.array_equal(x, _reference_draw(keys[0], counter, mod, n)), mod
        assert np.array_equal(y, _reference_draw(keys[1], counter, mod, n)), mod

    got = [[] for _ in keys]
    start = threading.Barrier(len(keys), timeout=30)

    def run(i):
        prf = PrfStream(keys[i])
        start.wait()
        for mod, n in _BUFFER_DRAWS[i:] + _BUFFER_DRAWS[:i]:  # out of step
            got[i].append((prf.counter, mod, n, _draw(prf, mod, n)))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(keys))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, in the middle of draws
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for key, draws in zip(keys, got):
        assert len(draws) == len(_BUFFER_DRAWS)
        for counter, mod, n, x in draws:
            assert np.array_equal(x, _reference_draw(key, counter, mod, n)), mod
