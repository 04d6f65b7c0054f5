"""Data-independent preprocessing: truncation pairs, compare/wrap/bit material.

Two interchangeable generators produce the same artifact types:

* DealerPrep — a trusted local generator (test fixture). Every party runs
  it from a common seed and keeps its own components.
* DistributedPrep — the real three-party generation: private bits from the
  pairwise PRF streams, bit injection and composition over Mult, the wrap
  bit from a binary adder circuit, and Fermat-checked nonzero masks.

Any source's output can be recorded with RecordingPrep, persisted to a
per-party tensor container and replayed with FilePrep.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import FormatError, load_tensors, save_tensors
from .rings import UINT, RingParams, bit_decompose, reduce_mod, wrap3
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

PREP_MAGIC = b"FALPREP2"


# ---------------------------------------------------------------------------
# artifact types (one party's view, vectorized over n instances)


@dataclass
class TruncPair:
    """(r, r >> d): r is a signed multiple of 2^d so the online open-and-shift
    truncation is exactly floor(x / 2^d) for |x| < 2^{ell-2}.

    d is an int, or an array for per-element shifts.
    """

    r: RssShare
    r_shift: RssShare
    d: object

    def reshape(self, shape) -> "TruncPair":
        d = self.d if np.ndim(self.d) == 0 else np.asarray(self.d).reshape(shape)
        return TruncPair(self.r.reshape(shape), self.r_shift.reshape(shape), d)


@dataclass
class CompareRand:
    """A blinding bit in both rings plus a nonzero multiplicative mask."""

    beta2: RssShare
    beta_p: RssShare
    m: RssShare

    def reshape(self, shape) -> "CompareRand":
        return CompareRand(self.beta2.reshape(shape), self.beta_p.reshape(shape), self.m.reshape(shape))


@dataclass
class WrapRand:
    """Random x with its Z_p bit sharing and alpha = wrap3 of its components."""

    x: RssShare        # (n,) over Z_L
    xbits: RssShare    # (n, ell) over Z_p
    alpha: RssShare    # (n,) over Z_2


@dataclass
class BitPair:
    """The same random bit shared over Z_2 and Z_L."""

    c2: RssShare
    cL: RssShare

    def reshape(self, shape) -> "BitPair":
        return BitPair(self.c2.reshape(shape), self.cL.reshape(shape))


# the record kinds of a preprocessing file; each artifact's first field
# leads with the instance count n
_ARTIFACTS = {"trunc": TruncPair, "compare": CompareRand, "wrap": WrapRand, "bitpair": BitPair}


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
    _lock = __import__("threading").Lock()

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
        return TruncPair(r_all[i], u_all[i], d if np.isscalar(d) or np.asarray(d).ndim == 0 else d_arr)

    def wrap_rands(self, n: int) -> WrapRand:
        p = self.params

        def gen():
            comps = [reduce_mod(self.rng.integers(0, 1 << 63, n, dtype=np.uint64), p.L)
                     for _ in range(3)]
            x = reduce_mod(comps[0] + comps[1] + comps[2], p.L)
            alpha = wrap3(comps[0], comps[1], comps[2], p.L)
            bits = bit_decompose(x, p)  # (n, ell)
            return (comps, self._share_all(bits, p.p), self._share_all(alpha, 2))

        comps, bits_all, alpha_all = self._consume("wrap", (n,), gen)
        i = self.party.index - 1
        return WrapRand(share_components(self.party, tuple(comps), p.L), bits_all[i], alpha_all[i])

    def compare_rands(self, n: int) -> CompareRand:
        p = self.params

        def gen():
            beta = self.rng.integers(0, 2, n).astype(UINT)
            m = self.rng.integers(1, p.p, n).astype(UINT)
            return (self._share_all(beta, 2), self._share_all(beta, p.p), self._share_all(m, p.p))

        b2_all, bp_all, m_all = self._consume("compare", (n,), gen)
        i = self.party.index - 1
        return CompareRand(b2_all[i], bp_all[i], m_all[i])

    def bit_pairs(self, n: int) -> BitPair:
        p = self.params

        def gen():
            c = self.rng.integers(0, 2, n).astype(UINT)
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
    n = int(np.prod(shape, dtype=int))
    sh = zero_randomness_2of3(sess.prf, n, mod)
    return sh.reshape(shape)


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


def bit_inject(sess: PartySession, b: RssShare, mod: int) -> RssShare:
    """Convert a Z_2-shared bit into a Z_m sharing of the same bit.

    b = s1 + s2 + s3 - 2(s1s2 + s2s3 + s3s1) + 4 s1s2s3 over the lifted
    component bits; two sequential Mult rounds (three pair products in
    parallel, then the triple product).
    """
    from .protocols import mult

    s1, s2, s3 = lift_component_shares(sess, b, mod)
    lin = add_shares(add_shares(s1, s2), s3)
    a = concat_shares([s1, s2, s3], axis=-1)
    c = concat_shares([s2, s3, s1], axis=-1)
    prods = mult(sess, a, c)  # s1s2, s2s3, s3s1 in one round
    parts = np.split(np.arange(prods.shape[-1]), 3)
    p12 = prods[..., parts[0]]
    p23 = prods[..., parts[1]]
    p31 = prods[..., parts[2]]
    pair_sum = add_shares(add_shares(p12, p23), p31)
    s3_flat = s3.reshape(p12.shape)
    triple = mult(sess, p12, s3_flat)
    out = sub_shares(lin.reshape(p12.shape), scale_share(np.uint64(2), pair_sum))
    out = add_shares(out, scale_share(np.uint64(4), triple))
    return out.reshape(b.shape)


def bit_compose(sess: PartySession, bits: RssShare, mod: int) -> RssShare:
    """Compose Z_2-shared bits (n, ell) into (n,) sharings of sum b_i 2^i.

    Per-bit injection then a public powers-of-two combination; two rounds
    for all bits in parallel.
    """
    n, nb = bits.shape
    injected = bit_inject(sess, bits, mod)  # (n, nb) over Z_m
    weights = (np.uint64(1) << np.arange(nb, dtype=np.uint64)) if mod != 2 else np.ones(nb, UINT)
    lo = reduce_mod((injected.lo * weights).sum(axis=-1, dtype=np.uint64), mod)
    hi = reduce_mod((injected.hi * weights).sum(axis=-1, dtype=np.uint64), mod)
    return RssShare(lo, hi, mod)


def _adder_wrap_bit(sess: PartySession, x: RssShare) -> RssShare:
    """alpha = bit ell of (x1 + x2 + x3) via a Z_2 adder over the component bits.

    Carry-save stage (one Mult round) then a ripple carry chain; all values
    remain Z_2 sharings built locally from each component's bits.
    """
    from .protocols import mult

    params = sess.params
    ell = params.ell
    bits_lo = bit_decompose(x.lo, params)  # (n, ell) public-to-me bits of my lo component
    bits_hi = bit_decompose(x.hi, params)
    comp = RssShare(bits_lo, bits_hi, 2)  # component j bits at position j
    s1, s2, s3 = lift_component_shares(sess, comp, 2)

    # carry-save: S = a^b^c, C = majority(a,b,c) = ab ^ bc ^ ca
    S = add_shares(add_shares(s1, s2), s3)
    a = concat_shares([s1, s2, s3], axis=-1)
    b = concat_shares([s2, s3, s1], axis=-1)
    prods = mult(sess, a, b)
    parts = np.split(np.arange(prods.shape[-1]), 3)
    C = add_shares(add_shares(prods[..., parts[0]], prods[..., parts[1]]), prods[..., parts[2]])

    # total = S + 2C; ripple the carry through positions 1..ell-1
    # (A = S, B = C shifted left one position; g batched in one round)
    A = S[..., 1:ell]
    B = C[..., 0 : ell - 1]
    g_all = mult(sess, A, B)
    p_all = add_shares(A, B)
    n = x.shape[0] if x.lo.ndim else 1
    carry = public_share(sess.party, np.uint64(0), 2, shape=(n,))
    for i in range(ell - 1):
        carry = add_shares(g_all[..., i], mult(sess, p_all[..., i], carry))
    # bit ell of the total: B_ell = C[ell-1] plus the carry into position ell
    return add_shares(C[..., ell - 1], carry)


class DistributedPrep:
    """Three-party preprocessing over the live session (slower; no dealer)."""

    def __init__(self, sess: PartySession):
        self.sess = sess

    def trunc_pairs(self, n: int, d) -> TruncPair:
        sess = self.sess
        params = sess.params
        d_arr = np.broadcast_to(np.asarray(d, np.int64), (n,))
        r_lo = np.empty(n, UINT)
        r_hi = np.empty(n, UINT)
        u_lo = np.empty(n, UINT)
        u_hi = np.empty(n, UINT)
        # one composition per distinct shift (the bit width differs)
        for dv in np.unique(d_arr):
            idx = np.nonzero(d_arr == dv)[0]
            nb = params.ell - 2 - int(dv)
            bits = sample_shared_bits(sess, (len(idx), nb))
            u = bit_compose(sess, bits, params.L)  # uniform in [0, 2^{ell-2-d})
            offset = np.uint64(1 << (params.ell - 3 - int(dv)))
            u = sub_shares(u, public_share(sess.party, offset, params.L, shape=(len(idx),)))
            r = scale_share(np.uint64(1 << int(dv)), u)
            r_lo[idx], r_hi[idx] = r.lo, r.hi
            u_lo[idx], u_hi[idx] = u.lo, u.hi
        d_out = d if np.ndim(d) == 0 else d_arr
        return TruncPair(RssShare(r_lo, r_hi, params.L), RssShare(u_lo, u_hi, params.L), d_out)

    def wrap_rands(self, n: int) -> WrapRand:
        sess = self.sess
        params = sess.params
        bits2 = sample_shared_bits(sess, (n, params.ell))
        xbits_p = bit_inject(sess, bits2, params.p)
        x = bit_compose(sess, bits2, params.L)
        alpha = _adder_wrap_bit(sess, x)
        return WrapRand(x, xbits_p, alpha)

    def compare_rands(self, n: int) -> CompareRand:
        sess = self.sess
        params = sess.params
        beta2 = sample_shared_bits(sess, (n,))
        beta_p = bit_inject(sess, beta2, params.p)
        m = _nonzero_masks(sess, n)
        return CompareRand(beta2, beta_p, m)

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
    from .protocols import mult

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
    """records: {"trunc": [TruncPair, ...], "compare": [...], "wrap": [...], "bitpair": [...]}"""
    tensors = {"session": np.array([party.index, params.ell, params.p], UINT)}
    for kind, items in records.items():
        for i, item in enumerate(items):
            for f in fields(item):
                key, value = f"{kind}.{i}.{f.name}", getattr(item, f.name)
                if isinstance(value, RssShare):
                    tensors[f"{key}.lo"], tensors[f"{key}.hi"] = value.lo, value.hi
                    tensors[f"{key}.mod"] = np.uint64(value.mod % (1 << 64))  # 0 marks 2^64
                else:  # the trunc shift: an int or a per-element array
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
        if key in tensors:  # the trunc shift: one int or one per instance
            d = tensors[key]
            if d.ndim and d.shape != (n,):
                raise FormatError(f"{path}: {key!r} has shape {d.shape}, not ({n},)")
            return d.astype(np.int64)
        lo, hi, mod = need(f"{key}.lo"), need(f"{key}.hi"), need(f"{key}.mod")
        want = (n, params.ell) if key.endswith(".xbits") else (n,)
        if lo.shape != want or hi.shape != want:
            raise FormatError(f"{path}: {key!r} has shapes {lo.shape}/{hi.shape}, not {want}")
        mod = (int(mod) or 1 << 64) if mod.shape == () else None  # 0 marks 2^64
        if mod not in (2, params.p, params.L):
            raise FormatError(f"{path}: {key!r} has modulus {mod}, not 2, p or 2^ell")
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

    def compare_rands(self, n: int) -> CompareRand:
        return self._record("compare", self.inner.compare_rands(n))

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
        want = np.broadcast_to(np.asarray(d, np.int64), (n,))
        have = np.broadcast_to(np.asarray(item.d, np.int64), item.r.shape)
        if not np.array_equal(have, want):
            raise RuntimeError("preprocessing file does not match the requested order")
        return item

    def wrap_rands(self, n: int) -> WrapRand:
        return self._take("wrap", n)

    def compare_rands(self, n: int) -> CompareRand:
        return self._take("compare", n)

    def bit_pairs(self, n: int) -> BitPair:
        return self._take("bitpair", n)
