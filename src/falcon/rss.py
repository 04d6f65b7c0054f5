"""2-out-of-3 replicated secret sharing and PRF-based correlated randomness.

A secret x in Z_m is split as x = x1 + x2 + x3 (mod m); party P_i holds
the pair (x_i, x_{i+1}) with periodic indices. This module is pure value
logic: share creation, local linear algebra and array plumbing (image
windows among it: `window_share` views the F x F windows of a (B, C, H, W)
share and `unwindow_share` scatter-adds them back), serialization and the
keyed PRF streams. Serialization packs each element at its ring's bit width
(Z_2 at 1 bit, Z_p at ceil(log2 p) bits, Z_L in 1, 4 or 8-byte words) and
refuses any payload that is not the one encoding of its elements. Anything
that talks to a peer lives in falcon.session.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .rings import (
    NARROW,
    UINT,
    RingError,
    add_mod,
    dtype_for,
    mul_mod,
    reduce_mod,
    sub_mod,
    sum_dtype,
)


@dataclass(frozen=True)
class PartyId:
    """Party index in {1, 2, 3} with periodic next/prev."""

    index: int

    def __post_init__(self):
        if self.index not in (1, 2, 3):
            raise ValueError(f"party index must be 1, 2 or 3, got {self.index}")

    @property
    def next(self) -> "PartyId":
        return PartyId(self.index % 3 + 1)

    @property
    def prev(self) -> "PartyId":
        return PartyId((self.index - 2) % 3 + 1)


@dataclass
class RssShare:
    """One party's replicated pair (lo = x_i, hi = x_{i+1}) modulo `mod`.

    lo/hi are arrays of identical shape in the modulus' storage dtype
    (`rings.dtype_for`: uint8 over Z_2 and Z_p, whose p <= 67 follows from
    ell; over Z_{2^ell} uint32 for ell <= 32 and uint64 above), cast here so
    no share holds another; elementwise protocols work on any shape, matrix
    protocols expect 2-D.
    """

    lo: np.ndarray
    hi: np.ndarray
    mod: int

    def __post_init__(self):
        dt = dtype_for(self.mod)
        self.lo = np.asarray(self.lo, dt)
        self.hi = np.asarray(self.hi, dt)
        if self.lo.shape != self.hi.shape:
            raise RingError("lo/hi shape mismatch")

    @property
    def shape(self):
        return self.lo.shape

    def reshape(self, *shape) -> "RssShare":
        return RssShare(self.lo.reshape(*shape), self.hi.reshape(*shape), self.mod)

    def __getitem__(self, idx) -> "RssShare":
        return RssShare(self.lo[idx], self.hi[idx], self.mod)

    def transpose(self, *axes) -> "RssShare":
        return RssShare(self.lo.transpose(*axes), self.hi.transpose(*axes), self.mod)


def _check_same_ring(*shares: RssShare):
    mods = {s.mod for s in shares}
    if len(mods) != 1:
        raise RingError(f"mixed moduli in operation: {sorted(mods)}")


def share_secret(x, mod: int, rng: np.random.Generator) -> tuple[RssShare, RssShare, RssShare]:
    """Dealer-side sharing: x1, x2 uniform, x3 = x - x1 - x2 (mod m)."""
    x = np.asarray(x)
    dt = dtype_for(mod)
    if x.dtype != dt or (mod < 1 << 64 and x.size and int(x.max()) >= mod):
        x = reduce_mod(x, mod)
    # narrow rings draw bounded uint16 (exact, uniform and the fastest of
    # numpy's bounded draws), so no wide temporaries of x's shape are made;
    # Z_L draws in its word, the same stream as a uint64 draw below 2^32
    draw = np.uint16 if dt == NARROW else dt
    x1 = rng.integers(0, mod, size=x.shape, dtype=draw).astype(dt, copy=False)
    x2 = rng.integers(0, mod, size=x.shape, dtype=draw).astype(dt, copy=False)
    x3 = sub_mod(sub_mod(x, x1, mod), x2, mod)
    return (
        RssShare(x1, x2, mod),
        RssShare(x2, x3, mod),
        RssShare(x3, x1, mod),
    )


def share_components(party: PartyId, comps: tuple, mod: int) -> RssShare:
    """Build P_i's share from the full component triple (x1, x2, x3)."""
    c = [reduce_mod(np.asarray(v), mod) for v in comps]
    i = party.index - 1
    return RssShare(c[i], c[(i + 1) % 3], mod)


# ---------------------------------------------------------------------------
# local linear algebra and array plumbing (zero communication)


def add_shares(x: RssShare, y: RssShare) -> RssShare:
    _check_same_ring(x, y)
    return RssShare(add_mod(x.lo, y.lo, x.mod), add_mod(x.hi, y.hi, x.mod), x.mod)


def sub_shares(x: RssShare, y: RssShare) -> RssShare:
    _check_same_ring(x, y)
    return RssShare(sub_mod(x.lo, y.lo, x.mod), sub_mod(x.hi, y.hi, x.mod), x.mod)


def scale_share(a, x: RssShare) -> RssShare:
    return RssShare(mul_mod(a, x.lo, x.mod), mul_mod(a, x.hi, x.mod), x.mod)


def add_public(party: PartyId, x: RssShare, c) -> RssShare:
    """x + public c, injected through component 1."""
    lo, hi = x.lo, x.hi
    if party.index == 1:
        lo = add_mod(lo, reduce_mod(np.asarray(c), x.mod), x.mod)
    elif party.index == 3:
        hi = add_mod(hi, reduce_mod(np.asarray(c), x.mod), x.mod)
    return RssShare(lo, hi, x.mod)


def public_share(party: PartyId, c, mod: int, shape=None) -> RssShare:
    """A sharing of the public value c (component 1 = c, others 0)."""
    c = reduce_mod(np.asarray(c), mod)
    if shape is not None:
        c = np.broadcast_to(c, shape).copy()
    zero = np.zeros_like(c)
    if party.index == 1:
        return RssShare(c, zero, mod)
    if party.index == 3:
        return RssShare(zero, c, mod)
    return RssShare(zero, zero.copy(), mod)


def broadcast_share(x: RssShare, shape) -> RssShare:
    """Read-only view of x broadcast to shape (numpy broadcasting rules)."""
    return RssShare(np.broadcast_to(x.lo, shape), np.broadcast_to(x.hi, shape), x.mod)


def expand_last(x: RssShare, shape) -> RssShare:
    """x with a new trailing axis, broadcast to shape == x.shape + (k,)."""
    return broadcast_share(x.reshape(x.shape + (1,)), shape)


def window_share(x: RssShare, F: int, stride: int, pad: int) -> RssShare:
    """Read-only (B, C, Ho, Wo, F, F) view of the F x F windows of a
    (B, C, H, W) share, taken every `stride` pixels over the image
    zero-padded by `pad` on each side. A partial final stride is dropped, so
    (Ho, Wo) is the floor output size of `netspec`."""

    def view(a):
        if pad:
            a = np.pad(a, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        return sliding_window_view(a, (F, F), axis=(2, 3))[:, :, ::stride, ::stride]

    return RssShare(view(x.lo), view(x.hi), x.mod)


def unwindow_share(d: RssShare, shape, stride: int, pad: int) -> RssShare:
    """Adjoint of `window_share`: scatter-add (B, C, Ho, Wo, F, F) windows
    back into a (B, C, H, W) share of `shape`, one strided add per offset."""
    B, C, H, W = shape
    Ho, Wo, F = d.shape[2], d.shape[3], d.shape[4]

    def scatter(a):
        out = np.zeros((B, C, H + 2 * pad, W + 2 * pad), sum_dtype(d.mod))
        span_h, span_w = stride * Ho, stride * Wo
        for i in range(F):
            for j in range(F):
                out[:, :, i : i + span_h : stride, j : j + span_w : stride] += a[..., i, j]
        return reduce_mod(out[:, :, pad : pad + H, pad : pad + W], d.mod)

    return RssShare(scatter(d.lo), scatter(d.hi), d.mod)


def sum_share(x: RssShare, axis: int) -> RssShare:
    return RssShare(
        reduce_mod(x.lo.sum(axis=axis, dtype=sum_dtype(x.mod)), x.mod),
        reduce_mod(x.hi.sum(axis=axis, dtype=sum_dtype(x.mod)), x.mod),
        x.mod,
    )


def concat_shares(shares: list[RssShare], axis: int = 0) -> RssShare:
    return RssShare(
        np.concatenate([s.lo for s in shares], axis=axis),
        np.concatenate([s.hi for s in shares], axis=axis),
        shares[0].mod,
    )


# ---------------------------------------------------------------------------
# serialization: component lo then hi, each element at its ring's bit width.
# Z_L elements are little-endian words of 1, 4 or 8 bytes. Z_p and Z_2
# elements pack at b = ceil(log2 mod) < 8 bits: the n elements, zero-padded
# to 8g, are cut into P = 8 / gcd(b, 8) equal rows, and the payload is
# bP / 8 rows of bytes whose column j, read as a little-endian word, holds
# element j of row k at bits b*k to b*k + b - 1. That is b*g bytes.


def elem_bits(mod: int, ell: int) -> int:
    """Wire width in bits of one element: ceil(log2 mod) for Z_2, Z_p and
    Z_L at ell = 8; otherwise 32 or 64, the Z_L word that holds ell bits."""
    if mod <= 256:
        return (mod - 1).bit_length()
    return 32 if ell <= 32 else 64


def wire_nbytes(mod: int, ell: int, n: int) -> int:
    """Payload bytes of n elements mod `mod`."""
    b = elem_bits(mod, ell)
    return b * -(-n // 8) if b < 8 else n * b // 8


def elem_acct_bits(mod: int, ell: int) -> int:
    """Cost-model width in bits: Z_L elements count ell, Z_p/Z_2 count 1."""
    return ell if mod == (1 << ell) else 1


@functools.cache
def _slots(b: int):
    """(element row k, byte row r, bit shift s) of each of the P element
    rows; an element with s + b > 8 spills its top bits into row r + 1."""
    period = 8 // math.gcd(b, 8)
    return period, tuple((k, *divmod(b * k, 8)) for k in range(period))


def serialize_elems(x: np.ndarray, mod: int, ell: int) -> bytes:
    b = elem_bits(mod, ell)
    if b >= 8:
        return np.ascontiguousarray(x, f"<u{b // 8}").tobytes()
    x = np.asarray(x)
    period, slots = _slots(b)
    padded = -(-x.size // 8) * 8
    if x.size == padded and x.dtype == np.uint8:
        rows = np.ascontiguousarray(x).reshape(period, -1)
    else:
        rows = np.zeros((period, padded // period), np.uint8)
        rows.reshape(-1)[: x.size] = x.reshape(-1)
    out = np.empty((b * period // 8, rows.shape[1]), np.uint8)
    # an element at shift 0, or one spilling into a row, holds that row's
    # lowest bits, so it writes the row and the elements above it OR in;
    # left shifts are uint8 products: numpy vectorizes those, not uint8 shifts
    for k, r, s in slots:
        if s == 0:
            out[r] = rows[k]
        else:
            out[r] |= rows[k] * (1 << s)
        if s + b > 8:
            np.right_shift(rows[k], 8 - s, out=out[r + 1])
    return out.tobytes()


def deserialize_elems(buf: bytes, mod: int, ell: int, shape) -> np.ndarray:
    """Read the wire width into the modulus' storage dtype (a fresh array).

    Every payload has one encoding: a sender reduces every element it
    serializes and pads with zero bits, so a buffer of the wrong length, an
    element >= mod or a nonzero padding bit is a malformed payload. Each
    raises RingError rather than being reduced.
    """
    b = elem_bits(mod, ell)
    n = int(np.prod(shape, dtype=int))
    if len(buf) != wire_nbytes(mod, ell, n):
        raise RingError(f"{len(buf)} payload bytes, not the {wire_nbytes(mod, ell, n)} "
                        f"of {n} elements mod {mod}")
    if b >= 8:
        flat = np.frombuffer(buf, f"<u{b // 8}")
    else:
        period, slots = _slots(b)
        rows = np.frombuffer(buf, np.uint8).reshape(b * period // 8, -1)
        elems = np.empty((period, rows.shape[1]), np.uint8)
        for k, r, s in slots:
            np.right_shift(rows[r], s, out=elems[k])
            if s + b > 8:
                elems[k] |= rows[r + 1] * (1 << (8 - s))
        elems &= (1 << b) - 1
        flat = elems.reshape(-1)
        if flat[n:].any():
            raise RingError(f"nonzero padding bits after {n} elements mod {mod}")
    if mod < 1 << b and n and int(flat.max()) >= mod:
        raise RingError(f"element {int(flat[np.argmax(flat >= mod)])}, not below the modulus {mod}")
    out = flat[:n].reshape(shape)
    return out if b < 8 else out.astype(dtype_for(mod))


# ---------------------------------------------------------------------------
# keyed PRF streams (AES-128 in counter mode)


# keystream bytes per AES call: a draw of any length then holds one piece of
# stream in its buffer, not several copies of the draw
_PIECE_BYTES = 1 << 18
_ZEROS = memoryview(bytes(_PIECE_BYTES))  # the plaintext of every piece


def _unpack_bits(piece: np.ndarray, out: np.ndarray):
    # one keystream bit per element, LSB first, unpacked an eighth of a
    # piece at a time: the unpacked temporary is then no larger than the
    # piece, where a whole piece would unpack into eight times its size
    step = _PIECE_BYTES // 8
    for k in range(0, piece.size, step):
        bits = out[8 * k : 8 * (k + step)]
        bits[...] = np.unpackbits(piece[k : k + step], count=bits.size, bitorder="little")


class PrfStream:
    """Deterministic stream under one 128-bit key; counter advances per draw."""

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError("PRF key must be 16 bytes")
        self.key = key
        self.counter = 0

    def _draw(self, n: int, dtype, bits: int, put) -> np.ndarray:
        # n elements of `bits` keystream bits each: every piece of the draw's
        # keystream is encrypted into one buffer of the draw, and
        # put(piece, out_slice) writes its elements (a whole number of words,
        # or octets of bits) straight into their slice of the output
        out = np.empty(n, dtype)
        nbytes = -(-n * bits // 8)
        # update_into wants a block less a byte beyond the piece
        buf = np.empty(min(nbytes, _PIECE_BYTES) + 15, np.uint8)
        # each logical draw owns a disjoint 2^64-block slice of the CTR space;
        # CTR is a stream, so the pieces concatenate to the one-call keystream
        nonce = self.counter.to_bytes(8, "little") + b"\x00" * 8
        enc = Cipher(algorithms.AES(self.key), modes.CTR(nonce)).encryptor()
        pos = 0
        for start in range(0, nbytes, _PIECE_BYTES):
            size = min(_PIECE_BYTES, nbytes - start)
            enc.update_into(_ZEROS[:size], buf)
            k = min(size * 8 // bits, n - pos)
            put(buf[:size], out[pos : pos + k])
            pos += k
        self.counter += 1
        return out

    def draw_u64(self, n: int) -> np.ndarray:
        return self._draw(n, UINT, 64, lambda piece, out: np.copyto(out, piece.view("<u8")))

    def draw_mod(self, n: int, mod: int) -> np.ndarray:
        # Z_2 takes one keystream bit per element and 2^ell (ell <= 32) one
        # masked 4-byte word, both exact; an odd p below 2^16 reduces a 4-byte
        # word, a bias of at most p / 2^32 (2^-26.8 at p = 37; masks only)
        dt = dtype_for(mod)
        if mod == 2:
            return self._draw(n, dt, 1, _unpack_bits)
        pow2 = mod & (mod - 1) == 0
        if pow2 and mod <= 1 << 32:
            m = np.uint32(mod - 1)
            return self._draw(n, dt, 32, lambda piece, out: np.bitwise_and(
                piece.view("<u4"), m, out=out))
        if mod < 1 << 16:
            return self._draw(n, dt, 32, lambda piece, out: reduce_mod(
                piece.view("<u4"), mod, out=out))
        return reduce_mod(self.draw_u64(n), mod)


@dataclass
class PrfState:
    """A party's two pairwise streams (with next and previous party).

    Both holders of a key derive identical streams; counters advance in the
    globally fixed protocol order, so they stay aligned without messages.
    """

    with_next: PrfStream
    with_prev: PrfStream

    @staticmethod
    def from_seeds(seed_with_next: bytes, seed_with_prev: bytes) -> "PrfState":
        return PrfState(PrfStream(seed_with_next), PrfStream(seed_with_prev))

    @staticmethod
    def setup_seeds(session_seed: int) -> list[bytes]:
        """The three pairwise seeds k_1, k_2, k_3 (k_i shared by P_i, P_{i+1})."""
        root = np.random.default_rng(session_seed)
        return [root.bytes(16) for _ in range(3)]


def zero_randomness_3of3(prf: PrfState, n: int, mod: int) -> np.ndarray:
    """alpha_i = F_{k_i}(cnt) - F_{k_{i-1}}(cnt); the three sum to 0 mod m."""
    a = prf.with_next.draw_mod(n, mod)
    b = prf.with_prev.draw_mod(n, mod)
    return sub_mod(a, b, mod)


def zero_randomness_2of3(prf: PrfState, n: int, mod: int) -> RssShare:
    """Fresh replicated sharing from the pairwise streams.

    Component j is F_{k_{j-1}}(cnt), known to exactly its two holders, so
    each party assembles (lo, hi) locally. The sharing reconstructs to a
    pseudorandom value (a replicated zero-sum triple cannot be derived
    non-interactively from pairwise keys; the 3-of-3 variant covers that).
    """
    lo = prf.with_prev.draw_mod(n, mod)
    hi = prf.with_next.draw_mod(n, mod)
    return RssShare(lo, hi, mod)
