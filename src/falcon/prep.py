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

from .data import FormatError, load_tensors, save_tensors
from .protocols import compare_products, mult
from .rings import NARROW, UINT, RingParams, bit_decompose, matmul_mod, reduce_mod, wrap3
from .rss import (
    PartyId,
    RssShare,
    add_shares,
    concat_shares,
    public_share,
    scale_share,
    share_components,
    share_secret,
    sub_shares,
    zero_randomness_2of3,
)
from .session import PartySession, open_share

PREP_MAGIC = b"FALPREP4"


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
    products with those bits (`protocols.compare_products`), each a sharing
    of its own, so the online compare multiplies nothing before its tree."""

    x: RssShare        # (n,) over Z_L
    xbits: RssShare    # (n, ell) over Z_p
    alpha: RssShare    # (n,) over Z_2
    beta2: RssShare    # (n,) over Z_2
    beta_p: RssShare   # (n,) over Z_p, the same bit
    m: RssShare        # (n,) over Z_p, nonzero: m~
    vbits: RssShare    # (n, ell) over Z_p, (1 - 2 beta) x[i]
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
    In-process parties share one generation pass through a memo keyed by
    (seed, params, call index): the threads request artifacts in lockstep.
    """

    _memo: dict = {}
    _lock = threading.Lock()

    def __init__(self, party: PartyId, params: RingParams, seed: int = 0):
        self.party = party
        self.params = params
        self.seed = seed
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDEA1]))
        self.calls = 0

    def _share_all(self, vals, mod):
        return share_secret(vals, mod, self.rng)

    def trunc_pairs(self, n: int, d) -> TruncPair:
        p = self.params
        d_arr = np.broadcast_to(np.asarray(d, np.int64), (n,))

        def gen():
            span = (np.int64(1) << (p.ell - 2 - d_arr)).astype(np.int64)
            u = self.rng.integers(-span, span, size=n).astype(np.int64)
            r = reduce_mod(u << d_arr, p.L)
            return (self._share_all(r, p.L), self._share_all(reduce_mod(u, p.L), p.L))

        r_all, u_all = self._consume("trunc", (n, d_arr.tobytes()), gen)
        i = self.party.index - 1
        return TruncPair(r_all[i], u_all[i], d_arr)

    def wrap_rands(self, n: int) -> WrapRand:
        p = self.params

        def gen():
            comps = [reduce_mod(self.rng.integers(0, 1 << 63, n, dtype=np.uint64), p.L)
                     for _ in range(3)]
            x = reduce_mod(comps[0] + comps[1] + comps[2], p.L)
            alpha = wrap3(comps[0], comps[1], comps[2], p.L)
            bits = bit_decompose(x, p)  # (n, ell)
            # the compare's blinding bit beta and the nonzero m~ of its mask
            beta = self.rng.integers(0, 2, n).astype(NARROW)
            m = self.rng.integers(1, p.p, n).astype(NARROW)
            # the products are dealt as fresh sharings: scaling the bits'
            # shares by (1 or p - 1) would tell each party beta. Each is a
            # product of a bit and a value below p, so it fits a uint8
            v = bits * np.where(beta, p.p - 1, 1).astype(NARROW)[:, None]
            return (comps, *(self._share_all(val, mod) for val, mod in (
                (bits, p.p), (alpha, 2), (beta, 2), (beta, p.p), (m, p.p), (v, p.p),
                (m * beta, p.p), (m * bits[:, -1], p.p))))

        comps, *shared = self._consume("wrap", (n,), gen)
        i = self.party.index - 1
        return WrapRand(share_components(self.party, tuple(comps), p.L), *(s[i] for s in shared))

    # kept only because perfbench/tracing.py patches it by name; no caller
    compare_rands = wrap_rands

    def bit_pairs(self, n: int) -> BitPair:
        p = self.params

        def gen():
            c = self.rng.integers(0, 2, n).astype(NARROW)
            return (self._share_all(c, 2), self._share_all(c, p.L))

        c2_all, cL_all = self._consume("bitpair", (n,), gen)
        i = self.party.index - 1
        return BitPair(c2_all[i], cL_all[i])

    def _consume(self, kind: str, args: tuple, gen):
        """Memoized generation: whichever in-process party arrives first
        produces the full triple, the rest reuse it. All parties re-seed
        their rng per call index so the stream stays aligned either way."""
        key = (self.seed, repr(self.params), self.calls, kind, args)
        self.calls += 1
        with DealerPrep._lock:
            hit = DealerPrep._memo.get(key)
            if hit is None:
                if len(DealerPrep._memo) > 128:
                    DealerPrep._memo.clear()
                hit = gen()
                DealerPrep._memo[key] = hit
        self.rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, 0xDEA1, self.calls])
        )
        return hit


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
    rows; the sum bits transpose to (n, ell) once, at the end. Returns the
    x.shape + (ell,) sum bits, which are the bits of x, and alpha = bit ell
    of the sum (wrap3 of the components), both over Z_2.
    """
    params = sess.params
    ell = params.ell
    comp = RssShare(*(np.ascontiguousarray(bit_decompose(c, params).reshape(-1, ell).T)
                      for c in (x.lo, x.hi)), 2)
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
    bits = RssShare(np.ascontiguousarray(bits.lo.T), np.ascontiguousarray(bits.hi.T), 2)
    return bits.reshape(x.shape + (ell,)), alpha.reshape(x.shape)


class DistributedPrep:
    """Three-party preprocessing over the live session (slower; no dealer).

    `wrap_rands` also carries the compare's blinding: beta is sampled over
    Z_2 and injected into Z_p as one more column of x's bits (no rounds of
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
        r_lo = np.empty(n, UINT)
        r_hi = np.empty(n, UINT)
        u_lo = np.empty(n, UINT)
        u_hi = np.empty(n, UINT)
        # one composition per distinct shift (the bit width differs):
        # u = sum_i b_i 2^i - 2^{nb-1}, uniform in [-2^{ell-2-d}, 2^{ell-2-d})
        for dv in np.unique(d_arr):
            idx = np.nonzero(d_arr == dv)[0]
            nb = params.ell - 1 - int(dv)
            bits = bit_inject(sess, sample_shared_bits(sess, (len(idx), nb)), L)
            weights = (np.uint64(1) << np.arange(nb, dtype=np.uint64))[:, None]
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
        # beta rides into Z_p as one more column of the bits' injection
        beta2 = sample_shared_bits(sess, (n, 1))
        lifted = bit_inject(sess, concat_shares([bits, beta2], axis=1), p)
        xbits, beta_p = lifted[:, :ell], lifted[:, ell]
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
# its dataclass fields ("trunc.<i>.r.lo", "trunc.<i>.d", ...)


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
                else:  # the trunc shift, one per element
                    tensors[key] = np.asarray(value, np.int64).astype(UINT)
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
        want = (n, params.ell) if key.endswith((".xbits", ".vbits")) else (n,)
        if lo.shape != want or hi.shape != want:
            raise FormatError(f"{path}: {key!r} has shapes {lo.shape}/{hi.shape}, not {want}")
        mod = (int(mod) or 1 << 64) if mod.shape == () else None  # 0 marks 2^64
        if mod not in (2, params.p, params.L):
            raise FormatError(f"{path}: {key!r} has modulus {mod}, not 2, p or 2^ell")
        # shares are stored narrow (uint8) for Z_2 and Z_p, so a larger value
        # would be truncated, and one in [p, 256) breaks the kernels' invariant
        for part in (lo, hi):
            if part.dtype.kind != "u":
                raise FormatError(f"{path}: {key!r} holds {part.dtype}, not unsigned integers")
            if mod < 1 << 64 and part.size and int(part.max()) >= mod:
                raise FormatError(f"{path}: {key!r} holds {int(part.max())}, not below {mod}")
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


class FilePrep:
    """Replays recorded artifacts from a per-party file, in order."""

    def __init__(self, path: str, party: PartyId, params: RingParams):
        self.records = load_prep_file(path, party, params)
        self._cursors = {k: 0 for k in self.records}

    def _take(self, kind: str, n: int):
        idx = self._cursors[kind]
        if idx >= len(self.records[kind]):
            raise RuntimeError(f"preprocessing file exhausted for {kind!r}")
        self._cursors[kind] += 1
        item = self.records[kind][idx]
        if getattr(item, fields(item)[0].name).shape != (n,):
            raise RuntimeError("preprocessing file does not match the requested order")
        return item

    def trunc_pairs(self, n: int, d) -> TruncPair:
        item = self._take("trunc", n)
        if np.any(item.d != np.asarray(d, np.int64)):
            raise RuntimeError("preprocessing file does not match the requested order")
        return item

    def wrap_rands(self, n: int) -> WrapRand:
        return self._take("wrap", n)
    def bit_pairs(self, n: int) -> BitPair:
        return self._take("bitpair", n)
