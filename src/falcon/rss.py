"""2-out-of-3 replicated secret sharing and PRF-based correlated randomness.

A secret x in Z_m is split as x = x1 + x2 + x3 (mod m); party P_i holds
the pair (x_i, x_{i+1}) with periodic indices. This module is pure value
logic: share creation, local linear algebra, serialization and the keyed
PRF streams. Anything that talks to a peer lives in falcon.session.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .rings import UINT, RingError, add_mod, mul_mod, neg_mod, reduce_mod, sub_mod


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

    lo/hi are uint64 arrays of identical shape; elementwise protocols work
    on any shape, matrix protocols expect 2-D.
    """

    lo: np.ndarray
    hi: np.ndarray
    mod: int

    def __post_init__(self):
        self.lo = np.asarray(self.lo, UINT)
        self.hi = np.asarray(self.hi, UINT)
        if self.lo.shape != self.hi.shape:
            raise RingError("lo/hi shape mismatch")

    @property
    def shape(self):
        return self.lo.shape

    def reshape(self, *shape) -> "RssShare":
        return RssShare(self.lo.reshape(*shape), self.hi.reshape(*shape), self.mod)

    def __getitem__(self, idx) -> "RssShare":
        return RssShare(self.lo[idx], self.hi[idx], self.mod)


def _check_same_ring(*shares: RssShare):
    mods = {s.mod for s in shares}
    if len(mods) != 1:
        raise RingError(f"mixed moduli in operation: {sorted(mods)}")


def share_secret(x, mod: int, rng: np.random.Generator) -> tuple[RssShare, RssShare, RssShare]:
    """Dealer-side sharing: x1, x2 uniform, x3 = x - x1 - x2 (mod m)."""
    x = reduce_mod(np.asarray(x), mod)
    if mod == 1 << 64:
        x1 = rng.integers(0, 1 << 64, size=x.shape, dtype=np.uint64)
        x2 = rng.integers(0, 1 << 64, size=x.shape, dtype=np.uint64)
    else:
        x1 = rng.integers(0, mod, size=x.shape, dtype=np.uint64)
        x2 = rng.integers(0, mod, size=x.shape, dtype=np.uint64)
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


def neg_share(x: RssShare) -> RssShare:
    return RssShare(neg_mod(x.lo, x.mod), neg_mod(x.hi, x.mod), x.mod)


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


def sum_share(x: RssShare, axis: int) -> RssShare:
    return RssShare(
        reduce_mod(x.lo.sum(axis=axis, dtype=UINT), x.mod),
        reduce_mod(x.hi.sum(axis=axis, dtype=UINT), x.mod),
        x.mod,
    )


def concat_shares(shares: list[RssShare], axis: int = 0) -> RssShare:
    return RssShare(
        np.concatenate([s.lo for s in shares], axis=axis),
        np.concatenate([s.hi for s in shares], axis=axis),
        shares[0].mod,
    )


# ---------------------------------------------------------------------------
# serialization: little-endian fixed width, component lo then hi


def elem_width(mod: int, ell: int) -> int:
    """Wire width in bytes of one element: 1 for Z_p and Z_2; for Z_L the
    smallest of 1, 4 or 8 bytes that holds ell bits."""
    if mod < 256 or ell <= 8:
        return 1
    return 4 if ell <= 32 else 8


def elem_acct_bits(mod: int, ell: int) -> int:
    """Cost-model width in bits: Z_L elements count ell, Z_p/Z_2 count 1."""
    return ell if mod == (1 << ell) else 1


def serialize_elems(x: np.ndarray, mod: int, ell: int) -> bytes:
    x = np.ascontiguousarray(np.asarray(x, UINT).ravel())
    return x.astype(f"<u{elem_width(mod, ell)}").tobytes()


def deserialize_elems(buf: bytes, mod: int, ell: int, shape) -> np.ndarray:
    out = np.frombuffer(buf, dtype=f"<u{elem_width(mod, ell)}").astype(UINT)
    return reduce_mod(out.reshape(shape), mod)


# ---------------------------------------------------------------------------
# keyed PRF streams (AES-128 in counter mode)


def _aes_stream(key: bytes, counter: int, nbytes: int) -> bytes:
    # each logical draw owns a disjoint 2^64-block slice of the CTR space
    nonce = counter.to_bytes(8, "little") + b"\x00" * 8
    enc = Cipher(algorithms.AES(key), modes.CTR(nonce)).encryptor()
    return enc.update(b"\x00" * nbytes)


class PrfStream:
    """Deterministic uint64 stream under one 128-bit key; counter advances per draw."""

    def __init__(self, key: bytes):
        if len(key) != 16:
            raise ValueError("PRF key must be 16 bytes")
        self.key = key
        self.counter = 0

    def draw_u64(self, n: int) -> np.ndarray:
        buf = _aes_stream(self.key, self.counter, 8 * n)
        self.counter += 1
        return np.frombuffer(buf, dtype="<u8").astype(UINT)

    def draw_mod(self, n: int, mod: int) -> np.ndarray:
        # power-of-two moduli reduce exactly; odd p keeps a <= 2^-32 bias (masks only)
        if mod < (1 << 16):
            buf = _aes_stream(self.key, self.counter, 4 * n)
            self.counter += 1
            vals = np.frombuffer(buf, dtype="<u4")
            if mod & (mod - 1) == 0:
                return (vals & np.uint32(mod - 1)).astype(UINT)
            return (vals % np.uint32(mod)).astype(UINT)
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
    def setup_seeds(session_seed: int | None = None) -> list[bytes]:
        """The three pairwise seeds k_1, k_2, k_3 (k_i shared by P_i, P_{i+1})."""
        if session_seed is None:
            return [os.urandom(16) for _ in range(3)]
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
