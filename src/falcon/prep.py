"""Data-independent preprocessing: truncation pairs, wrap and bit material.

Two interchangeable generators produce the same artifact types:

* DealerPrep — a trusted local generator (test fixture). Every party runs
  it from a common seed and keeps its own components.
* DistributedPrep — the real three-party generation: private bits and the
  wrap value x from the pairwise PRF streams, then two gates over Mult:
  the arithmetic XOR x + y - 2xy, which injects a Z_2 bit into another
  ring, and the Z_2 AND of one binary adder that yields x's bits and its
  wrap bit: a carry-save stage, then a Sklansky parallel-prefix carry in
  ceil(log2(ell - 1)) rounds. Nonzero masks are Fermat-checked, and the
  compare's products of its blinding with x's bits are one Z_p Mult.

Any source's output can be recorded with RecordingPrep, persisted to a
per-party tensor container and replayed with FilePrep.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields

import numpy as np

from .data import FormatError, check_words, load_tensors, save_tensors
from .protocols import mult
from .rings import NARROW, UINT, RingParams, bit_decompose, dtype_for, matmul_mod, reduce_mod, wrap3
from .rss import (
    PartyId,
    RssShare,
    add_shares,
    broadcast_share,
    concat_shares,
    public_share,
    scale_share,
    share_secret,
    sub_shares,
    zero_randomness_2of3,
)
from .session import PartySession, open_share

PREP_MAGIC = b"FALPREP5"


# ---------------------------------------------------------------------------
# artifact types (one party's view, vectorized over n instances)


@dataclass
class TruncPair:
    """(r, r >> d): r is a signed multiple of 2^d so the online open-and-shift
    truncation is exactly floor(x / 2^d) for |x| < 2^{ell-2}.

    d holds the int64 shift of each element.
    """

    r: RssShare
    r_shift: RssShare
    d: np.ndarray

    def reshape(self, shape) -> "TruncPair":
        return TruncPair(self.r.reshape(shape), self.r_shift.reshape(shape), self.d.reshape(shape))


@dataclass
class WrapRand:
    """Random x with its Z_p bit sharing and alpha = wrap3 of its components,
    plus the blinding of the private compare on x's bits (a bit beta in both
    rings and the nonzero m~ of the compare's mask m~ (1 - 2 beta)) and its
    products with those bits (`prep.compare_products`), each a sharing
    of its own, so the online compare multiplies nothing before its tree.
    x's bits are bit-major planes, C-contiguous (ell, n): plane i holds bit i
    of every instance, the layout the compare's factors and tree work in."""

    x: RssShare        # (n,) over Z_L
    xbits: RssShare    # (ell, n) over Z_p, plane i = x[i]
    alpha: RssShare    # (n,) over Z_2
    beta2: RssShare    # (n,) over Z_2
    beta_p: RssShare   # (n,) over Z_p, the same bit
    m: RssShare        # (n,) over Z_p, nonzero: m~
    vbits: RssShare    # (ell, n) over Z_p, plane i = (1 - 2 beta) x[i]
    m_beta: RssShare   # (n,) over Z_p, m~ beta
    m_xtop: RssShare   # (n,) over Z_p, m~ x[ell - 1]


@dataclass
class BitPair:
    """The same random bit shared over Z_2 and Z_L."""

    c2: RssShare
    cL: RssShare

    def reshape(self, shape) -> "BitPair":
        return BitPair(self.c2.reshape(shape), self.cL.reshape(shape))


# the record kinds of a preprocessing file; each artifact's first field
# leads with the instance count n
_ARTIFACTS = {"trunc": TruncPair, "wrap": WrapRand, "bitpair": BitPair}


# ---------------------------------------------------------------------------
# dealer mode


class DealerPrep:
    """Trusted-dealer artifact source, deterministic under a common seed.

    Every party instantiates the same dealer and takes its own components;
    privacy is out of scope for this fixture (tests and local runs only).
    A call's material depends only on the seed, the ring, the call index,
    the kind and its arguments, so the parties request artifacts in
    lockstep. In-process parties share one dealing pass through a memo
    keyed by those: it only saves the other two from dealing it again, and
    an entry lives until all three have taken their shares.
    """

    _memo: dict = {}
    _lock = threading.Lock()

    def __init__(self, party: PartyId, params: RingParams, seed: int = 0):
        self.party = party
        self.params = params
        self.seed = seed
        self.calls = 0

    def trunc_pairs(self, n: int, d) -> TruncPair:
        p = self.params
        d_arr = np.broadcast_to(np.asarray(d, np.int64), (n,))

        def deal(rng):
            span = (np.int64(1) << (p.ell - 2 - d_arr)).astype(np.int64)
            u = rng.integers(-span, span, size=n).astype(np.int64)
            return (share_secret(reduce_mod(u << d_arr, p.L), p.L, rng),
                    share_secret(reduce_mod(u, p.L), p.L, rng))

        return TruncPair(*self._deal("trunc", (n, d_arr.tobytes()), deal), d_arr)

    def wrap_rands(self, n: int) -> WrapRand:
        p = self.params

        def deal(rng):
            x = rng.integers(0, p.L, n, dtype=dtype_for(p.L))
            xs = share_secret(x, p.L, rng)
            bits = bit_decompose(x, p)  # (ell, n) planes
            alpha = wrap3(*(s.lo for s in xs), p.L)
            # the compare's blinding bit beta and the nonzero m~ of its mask
            beta = rng.integers(0, 2, n).astype(NARROW)
            m = rng.integers(1, p.p, n).astype(NARROW)
            # the products are dealt as fresh sharings: scaling the bits'
            # shares by (1 or p - 1) would tell each party beta. Each is a
            # product of a bit and a value below p, so it fits a uint8
            v = bits * np.where(beta, p.p - 1, 1).astype(NARROW)
            return (xs, *(share_secret(val, mod, rng) for val, mod in (
                (bits, p.p), (alpha, 2), (beta, 2), (beta, p.p), (m, p.p), (v, p.p),
                (m * beta, p.p), (m * bits[-1], p.p))))

        return WrapRand(*self._deal("wrap", (n,), deal))

    # kept only because perfbench/tracing.py patches it by name; no caller
    compare_rands = wrap_rands

    def bit_pairs(self, n: int) -> BitPair:
        p = self.params

        def deal(rng):
            c = rng.integers(0, 2, n).astype(NARROW)
            return share_secret(c, 2, rng), share_secret(c, p.L, rng)

        return BitPair(*self._deal("bitpair", (n,), deal))

    def _deal(self, kind: str, args: tuple, deal) -> list[RssShare]:
        """This party's shares of the sharings that deal(rng) returns, each
        a triple of all parties' shares. The rng is seeded by the seed and
        the call index alone, and only the party that deals creates it:
        whichever in-process party arrives first, the rest take its
        sharings from the memo, and the third party's take drops the entry.
        A process that holds fewer parties is bounded by clearing the memo
        past 128 entries."""
        key = (self.seed, repr(self.params), self.calls, kind, args)
        with DealerPrep._lock:
            entry = DealerPrep._memo.get(key)
            if entry is None:
                if len(DealerPrep._memo) > 128:
                    DealerPrep._memo.clear()
                rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xDEA1, self.calls]))
                entry = DealerPrep._memo[key] = (deal(rng), set())
            dealt, takers = entry
            takers.add(self.party.index)
            if len(takers) == 3:
                del DealerPrep._memo[key]
        self.calls += 1
        return [shares[self.party.index - 1] for shares in dealt]


# ---------------------------------------------------------------------------
# distributed mode (Fig.-style three-party generation)


def sample_shared_bits(sess: PartySession, shape, mod: int = 2) -> RssShare:
    """Fresh random sharing from the pairwise streams (no communication)."""
    return zero_randomness_2of3(sess.prf, int(np.prod(shape, dtype=int)), mod).reshape(shape)


def lift_component_shares(sess: PartySession, bits: RssShare, mod: int) -> tuple[RssShare, RssShare, RssShare]:
    """Z_2 component bits re-read as three single-component sharings mod m.

    Component j of `bits` is known to P_j (as lo) and P_{j-1} (as hi), so
    each party can place its values into the matching slots locally.
    """
    i = sess.party.index
    zeros = np.zeros_like(bits.lo)
    s1 = RssShare(bits.lo if i == 1 else zeros, bits.hi if i == 3 else zeros, mod)
    s2 = RssShare(bits.lo if i == 2 else zeros, bits.hi if i == 1 else zeros, mod)
    s3 = RssShare(bits.lo if i == 3 else zeros, bits.hi if i == 2 else zeros, mod)
    return s1, s2, s3


def _xor(sess: PartySession, x: RssShare, y: RssShare) -> RssShare:
    """x ^ y = x + y - 2xy for shared bits over any ring; one Mult round."""
    return sub_shares(add_shares(x, y), scale_share(np.uint64(2), mult(sess, x, y)))


def bit_inject(sess: PartySession, b: RssShare, mod: int) -> RssShare:
    """Convert a Z_2-shared bit into a Z_m sharing of the same bit.

    b = (s1 ^ s2) ^ s3 over the lifted component bits, each XOR an
    arithmetic x + y - 2xy: two sequential Mult rounds of one product each.
    """
    s1, s2, s3 = lift_component_shares(sess, b, mod)
    return _xor(sess, _xor(sess, s1, s2), s3)


def _sklansky_levels(m: int):
    """The levels of a Sklansky prefix over m positions, h = 1, 2, 4, ...
    below m: the rows j in the upper half of a block of 2h rows, the top
    row t of that block's lower half for each, and how many of the j lie in
    the first block."""
    rows = np.arange(m)
    h = 1
    while h < m:
        upper = rows[rows & h != 0]
        yield upper, (upper & -h) - 1, int(np.count_nonzero(upper < 2 * h))
        h *= 2


def _adder_wrap_bit(sess: PartySession, x: RssShare) -> tuple[RssShare, RssShare]:
    """x's bits and its wrap bit from one Z_2 adder over x's component bits.

    Each party decomposes the two components it holds, so x1, x2 and x3 are
    Z_2-shared bit vectors without communication. A carry-save stage (one
    AND) turns x1 + x2 + x3 into S + 2C, then a Sklansky parallel-prefix
    carry adds S and 2C in ceil(log2(ell - 1)) AND levels. The adder runs
    on bit-major (ell, n) planes, so a level gathers and writes back whole
    rows, and its sum bits stay in that layout, the one `WrapRand.xbits`
    keeps. Returns the (ell,) + x.shape sum bits, which are the bits of x,
    and alpha = bit ell of the sum (wrap3 of the components), both over Z_2.
    """
    params = sess.params
    ell = params.ell
    comp = RssShare(*(bit_decompose(c, params).reshape(ell, -1) for c in (x.lo, x.hi)), 2)
    s1, s2, s3 = lift_component_shares(sess, comp, 2)

    # carry-save: S = a^b^c, C = majority(a,b,c) = ((a^c)(b^c)) ^ c
    S = add_shares(add_shares(s1, s2), s3)
    C = add_shares(mult(sess, add_shares(s1, s3), add_shares(s2, s3)), s3)

    # total = S + 2C: add A = S[1:] and B = C[:-1], positions 1..ell-1, with
    # generate g = AB (one round) and propagate p = A ^ B
    A, B = S[1:], C[:-1]
    g, p = mult(sess, A, B), add_shares(A, B)
    # the prefix turns the planes (G, P) into G[j] = G_{j:0}, the carry out
    # of position j. Per level, one Mult ANDs each upper-half row j with its
    # top row t: G[j] ^= P[j] G[t], and P[j] = P[j] P[t] outside the first
    # block, whose groups start at 0 and need no P again
    gp = RssShare(np.stack([g.lo, p.lo]), np.stack([g.hi, p.hi]), 2)
    for upper, top, first in _sklansky_levels(ell - 1):
        rows, tops = np.concatenate([upper, upper[first:]]), np.concatenate([top, top[first:]])
        plane = np.repeat([0, 1], [len(upper), len(upper) - first])
        prod = mult(sess, gp[1, rows], gp[plane, tops])
        for planes, out in ((gp.lo, prod.lo), (gp.hi, prod.hi)):
            planes[0, upper] ^= out[: len(upper)]
            planes[1, upper[first:]] = out[len(upper) :]
    # sum bit i + 1 is p[i] ^ G[i-1], the carry into position i; bit ell
    # is C[ell-1] ^ G[ell-2]
    G = gp[0]
    bits = concat_shares([S[:1], p[:1], add_shares(p[1:], G[:-1])])
    alpha = add_shares(C[ell - 1], G[ell - 2])
    return bits.reshape((ell,) + x.shape), alpha.reshape(x.shape)


def compare_products(sess: PartySession, xbits: RssShare, beta_p: RssShare,
                     m: RssShare) -> tuple[RssShare, RssShare, RssShare]:
    """The compare's products of its blinding, all in one multiplication:
    x's bits flipped by it, vbits = (1 - 2 beta) x[i] as (ell, n) planes
    like xbits, then m~ beta and m~ x[ell - 1] of shape (n,)."""
    ell, n = xbits.shape
    row = m.reshape(1, n)
    sign = sub_shares(public_share(sess.party, np.uint64(1), xbits.mod, shape=(1, n)),
                      scale_share(np.uint64(2), beta_p.reshape(1, n)))  # 1 - 2 beta, local
    prods = mult(sess,
                 concat_shares([broadcast_share(sign, xbits.shape), row, row]),
                 concat_shares([xbits, beta_p.reshape(1, n), xbits[ell - 1 :]]))
    return prods[:ell], prods[ell], prods[ell + 1]


class DistributedPrep:
    """Three-party preprocessing over the live session (slower; no dealer).

    `wrap_rands` also carries the compare's blinding: beta is sampled over
    Z_2 and injected into Z_p as one more plane of x's bits (no rounds of
    its own), and its products with x's bits, (1 - 2 beta) x[i], m~ beta and
    m~ x[ell - 1], are one Z_p Mult.
    """

    def __init__(self, sess: PartySession):
        self.sess = sess

    def trunc_pairs(self, n: int, d) -> TruncPair:
        sess = self.sess
        params = sess.params
        L = params.L
        d_arr = np.broadcast_to(np.asarray(d, np.int64), (n,))
        dt = dtype_for(L)
        r_lo, r_hi, u_lo, u_hi = (np.empty(n, dt) for _ in range(4))
        # one composition per distinct shift (the bit width differs):
        # u = sum_i b_i 2^i - 2^{nb-1}, uniform in [-2^{ell-2-d}, 2^{ell-2-d})
        for dv in np.unique(d_arr):
            idx = np.nonzero(d_arr == dv)[0]
            nb = params.ell - 1 - int(dv)
            bits = bit_inject(sess, sample_shared_bits(sess, (len(idx), nb)), L)
            weights = (dt(1) << np.arange(nb, dtype=dt))[:, None]
            u = RssShare(matmul_mod(bits.lo, weights, L)[:, 0], matmul_mod(bits.hi, weights, L)[:, 0], L)
            u = sub_shares(u, public_share(sess.party, np.uint64(1 << (nb - 1)), L, shape=(len(idx),)))
            r = scale_share(np.uint64(1 << int(dv)), u)
            r_lo[idx], r_hi[idx] = r.lo, r.hi
            u_lo[idx], u_hi[idx] = u.lo, u.hi
        return TruncPair(RssShare(r_lo, r_hi, L), RssShare(u_lo, u_hi, L), d_arr)

    def wrap_rands(self, n: int) -> WrapRand:
        sess = self.sess
        params = sess.params
        ell, p = params.ell, params.p
        x = sample_shared_bits(sess, (n,), mod=params.L)
        bits, alpha = _adder_wrap_bit(sess, x)
        # beta rides into Z_p as one more plane of the bits' injection
        beta2 = sample_shared_bits(sess, (1, n))
        lifted = bit_inject(sess, concat_shares([bits, beta2]), p)
        xbits, beta_p = lifted[:ell], lifted[ell]
        m = _nonzero_masks(sess, n)
        return WrapRand(x, xbits, alpha, beta2.reshape(n), beta_p, m,
                        *compare_products(sess, xbits, beta_p, m))

    # kept only because perfbench/tracing.py patches it by name; no caller
    compare_rands = wrap_rands

    def bit_pairs(self, n: int) -> BitPair:
        sess = self.sess
        c2 = sample_shared_bits(sess, (n,))
        cL = bit_inject(sess, c2, sess.params.L)
        return BitPair(c2, cL)


def _nonzero_masks(sess: PartySession, n: int) -> RssShare:
    """Sample masks in Z_p, open m^{p-1} (1 iff m != 0) and keep the good ones."""
    params = sess.params
    p = params.p
    got: list[RssShare] = []
    need = n
    while need > 0:
        batch = max(need + 4, int(need * 1.1))
        m = sample_shared_bits(sess, (batch,), mod=p)
        power = _pow_const(sess, m, p - 1)
        opened = open_share(sess, power)
        keep = opened == 1
        got.append(m[keep][:need])
        need -= int(keep.sum())
    return concat_shares(got)[:n]


def _pow_const(sess: PartySession, m: RssShare, e: int) -> RssShare:
    """m^e by square-and-multiply over Mult."""
    result = None
    base = m
    while e:
        if e & 1:
            result = base if result is None else mult(sess, result, base)
        e >>= 1
        if e:
            base = mult(sess, base, base)
    return result


# ---------------------------------------------------------------------------
# persistence: one tensor container per party, each artifact flattened over
# its dataclass fields ("trunc.<i>.r.lo", "trunc.<i>.d", ...). Each share part
# is written in its storage dtype (Z_L at ell <= 32 as 4-byte words) and the
# trunc shifts as bytes; the reader takes any unsigned width, so files that
# hold 8-byte Z_L parts and shifts load to the same records.


def save_prep_file(path: str, party: PartyId, params: RingParams, records: dict):
    """records: {"trunc": [TruncPair, ...], "wrap": [WrapRand, ...], "bitpair": [BitPair, ...]}"""
    tensors = {"session": np.array([party.index, params.ell, params.p], UINT)}
    for kind, items in records.items():
        for i, item in enumerate(items):
            for f in fields(item):
                key, value = f"{kind}.{i}.{f.name}", getattr(item, f.name)
                if isinstance(value, RssShare):
                    tensors[f"{key}.lo"], tensors[f"{key}.hi"] = value.lo, value.hi
                    tensors[f"{key}.mod"] = np.uint64(value.mod % (1 << 64))  # 0 marks 2^64
                else:  # the trunc shift, one per element, below ell <= 64
                    tensors[key] = np.asarray(value, np.int64).astype(NARROW)
    save_tensors(path, tensors, PREP_MAGIC)


def load_prep_file(path: str, party: PartyId, params: RingParams) -> dict:
    """The records dict of artifact lists, if the file was written for this
    party and ring."""
    tensors = load_tensors(path, PREP_MAGIC)

    def need(key: str) -> np.ndarray:
        if key not in tensors:
            raise FormatError(f"{path}: missing {key!r}")
        return tensors[key]

    header = need("session").tolist()
    if header != [party.index, params.ell, params.p]:
        raise FormatError(f"{path}: written for (party, ell, p) = {tuple(header)}, "
                          f"not {(party.index, params.ell, params.p)}")

    def field_value(key: str, n: int):
        if key in tensors:  # the trunc shift, one per instance
            d = tensors[key]
            if d.shape != (n,):
                raise FormatError(f"{path}: {key!r} has shape {d.shape}, not ({n},)")
            return d.astype(np.int64)
        lo, hi, mod = need(f"{key}.lo"), need(f"{key}.hi"), need(f"{key}.mod")
        want = (params.ell, n) if key.endswith((".xbits", ".vbits")) else (n,)
        if lo.shape != want or hi.shape != want:
            raise FormatError(f"{path}: {key!r} has shapes {lo.shape}/{hi.shape}, not {want}")
        mod = (int(mod) or 1 << 64) if mod.shape == () else None  # 0 marks 2^64
        if mod not in (2, params.p, params.L):
            raise FormatError(f"{path}: {key!r} has modulus {mod}, not 2, p or 2^ell")
        # shares are stored narrow (uint8) for Z_2 and Z_p, so a larger value
        # would be truncated, and one in [p, 256) breaks the kernels' invariant
        for part in (lo, hi):
            check_words(path, key, part, mod)
        return RssShare(lo, hi, mod)

    records = {}
    for kind, cls in _ARTIFACTS.items():
        count = len({name.split(".")[1] for name in tensors if name.startswith(kind + ".")})
        items = []
        for i in range(count):
            first = need(f"{kind}.{i}.{fields(cls)[0].name}.lo").shape
            n = first[0] if first else -1  # a 0-d first field matches no shape
            items.append(cls(*(field_value(f"{kind}.{i}.{f.name}", n) for f in fields(cls))))
        records[kind] = items
    return records


class RecordingPrep:
    """Wraps another source and records every artifact for later replay."""

    def __init__(self, inner):
        self.inner = inner
        self.records = {k: [] for k in _ARTIFACTS}

    def _record(self, kind: str, item):
        self.records[kind].append(item)
        return item

    def trunc_pairs(self, n: int, d) -> TruncPair:
        return self._record("trunc", self.inner.trunc_pairs(n, d))

    def wrap_rands(self, n: int) -> WrapRand:
        return self._record("wrap", self.inner.wrap_rands(n))

    def bit_pairs(self, n: int) -> BitPair:
        return self._record("bitpair", self.inner.bit_pairs(n))


class PrepMismatchError(RuntimeError):
    """A replayed preprocessing file does not hold what the run asks for:
    it runs out, or its next record has another size or shift."""


class FilePrep:
    """Replays recorded artifacts from a per-party file, in order."""

    def __init__(self, path: str, party: PartyId, params: RingParams):
        self.records = load_prep_file(path, party, params)
        self._cursors = {k: 0 for k in self.records}

    def _take(self, kind: str, n: int):
        idx = self._cursors[kind]
        if idx >= len(self.records[kind]):
            raise PrepMismatchError(f"preprocessing file exhausted for {kind!r}")
        self._cursors[kind] += 1
        item = self.records[kind][idx]
        if getattr(item, fields(item)[0].name).shape != (n,):
            raise PrepMismatchError("preprocessing file does not match the requested order")
        return item

    def trunc_pairs(self, n: int, d) -> TruncPair:
        item = self._take("trunc", n)
        if np.any(item.d != np.asarray(d, np.int64)):
            raise PrepMismatchError("preprocessing file does not match the requested order")
        return item

    def wrap_rands(self, n: int) -> WrapRand:
        return self._take("wrap", n)

    def bit_pairs(self, n: int) -> BitPair:
        return self._take("bitpair", n)
