"""Preprocessing artifacts: reconstruct-and-recompute oracles, both modes."""

from dataclasses import fields

import numpy as np
import pytest

from falcon import protocols as P
from falcon.data import FormatError, load_tensors, save_tensors
from falcon.prep import (
    PREP_MAGIC,
    DealerPrep,
    DistributedPrep,
    FilePrep,
    RecordingPrep,
    bit_compose,
    bit_inject,
    sample_shared_bits,
    save_prep_file,
)
from falcon.rings import RingParams, shift_signed, signed, wrap3
from falcon.rss import PartyId, RssShare
from falcon.session import run_three_parties
from conftest import reconstruct_all

from test_protocols import run_shared, shared_input

PARAMS = RingParams(ell=32, p=37, fp=13)
P8 = RingParams(ell=8, p=37, fp=4)


def _dealers(params, seed=0):
    return [DealerPrep(PartyId(i), params, seed=seed) for i in (1, 2, 3)]


def test_dealer_trunc_pairs_oracle():
    dealers = _dealers(PARAMS)
    pairs = [d.trunc_pairs(1000, PARAMS.fp) for d in dealers]
    r = reconstruct_all([p.r for p in pairs])
    rs = reconstruct_all([p.r_shift for p in pairs])
    # r' is the arithmetic shift of r, and r is a multiple of 2^d
    assert np.array_equal(rs, shift_signed(r, PARAMS.fp, PARAMS))
    assert np.all(signed(r, PARAMS) % (1 << PARAMS.fp) == 0)
    assert np.all(np.abs(signed(r, PARAMS)) <= 1 << (PARAMS.ell - 2))


def test_dealer_trunc_pair_fixed_values():
    # r encoding 5 * 2^fp truncates to 5; r = 0 truncates to 0 (direct check
    # of the pair relation on crafted values)
    dealers = _dealers(PARAMS, seed=1)
    pair = [d.trunc_pairs(4, PARAMS.fp) for d in dealers]
    r = reconstruct_all([p.r for p in pair])
    rs = reconstruct_all([p.r_shift for p in pair])
    assert np.array_equal(rs, shift_signed(r, PARAMS.fp, PARAMS))


def test_dealer_wrap_rands_alpha_matches_components():
    dealers = _dealers(PARAMS, seed=2)
    wr = [d.wrap_rands(1000) for d in dealers]
    # alpha equals wrap3 of the actual emitted components
    comps = (wr[0].x.lo, wr[1].x.lo, wr[2].x.lo)
    alpha = reconstruct_all([w.alpha for w in wr])
    assert np.array_equal(alpha, wrap3(*comps, PARAMS.L))
    # bit sharing matches the reconstructed x
    x = reconstruct_all([w.x for w in wr])
    bits = reconstruct_all([w.xbits for w in wr])
    weights = np.uint64(1) << np.arange(PARAMS.ell, dtype=np.uint64)
    assert np.array_equal((bits * weights).sum(axis=-1) % (1 << PARAMS.ell), x)


def test_dealer_compare_rands():
    dealers = _dealers(PARAMS, seed=3)
    cr = [d.compare_rands(1000) for d in dealers]
    b2 = reconstruct_all([c.beta2 for c in cr])
    bp = reconstruct_all([c.beta_p for c in cr])
    m = reconstruct_all([c.m for c in cr])
    assert np.array_equal(b2, bp)  # same bit in both rings
    assert np.all(m != 0)
    # Fermat: m^{p-1} = 1 for accepted masks
    assert np.all(pow_mod(m, PARAMS.p - 1, PARAMS.p) == 1)


def pow_mod(base, e, p):
    out = np.ones_like(base)
    b = base % p
    while e:
        if e & 1:
            out = out * b % p
        b = b * b % p
        e >>= 1
    return out


def test_dealer_bit_pairs():
    dealers = _dealers(PARAMS, seed=4)
    bp = [d.bit_pairs(1000) for d in dealers]
    c2 = reconstruct_all([b.c2 for b in bp])
    cL = reconstruct_all([b.cL for b in bp])
    assert np.array_equal(c2, cL)
    assert set(np.unique(c2)) <= {0, 1}


def test_bit_inject_exhaustive_components():
    # all 8 component combinations inject to b1 xor b2 xor b3
    def job(sess):
        outs = []
        for combo in range(8):
            bits_lo = np.array([(combo >> (sess.party.index - 1)) & 1], np.uint64)
            bits_hi = np.array([(combo >> (sess.party.index % 3)) & 1], np.uint64)
            from falcon.rss import RssShare

            b = RssShare(bits_lo, bits_hi, 2)
            outs.append(P.reconstruct(sess, bit_inject(sess, b, sess.params.L)))
        return outs

    outs = run_shared(PARAMS, job)[0]
    for combo in range(8):
        b1, b2, b3 = (combo >> 0) & 1, (combo >> 1) & 1, (combo >> 2) & 1
        assert outs[combo] == b1 ^ b2 ^ b3, f"combo {combo:03b}"


def test_bit_inject_matches_shared_random_bits():
    def job(sess):
        bits = sample_shared_bits(sess, (200,))
        injected = bit_inject(sess, bits, sess.params.L)
        return P.reconstruct(sess, bits), P.reconstruct(sess, injected)

    plain, lifted = run_shared(PARAMS, job)[0]
    assert np.array_equal(plain, lifted)


def test_bit_compose_oracle():
    def job(sess):
        bits = sample_shared_bits(sess, (100, 16))
        composed = bit_compose(sess, bits, sess.params.L)
        return P.reconstruct(sess, bits), P.reconstruct(sess, composed)

    bits, composed = run_shared(PARAMS, job)[0]
    weights = np.uint64(1) << np.arange(16, dtype=np.uint64)
    assert np.array_equal((bits * weights).sum(axis=-1), composed)


@pytest.mark.parametrize("kind", ["trunc", "wrap", "compare", "bitpair"])
def test_distributed_prep_oracles(kind):
    n = 50

    def job(sess):
        prep = DistributedPrep(sess)
        if kind == "trunc":
            pair = prep.trunc_pairs(n, sess.params.fp)
            return P.reconstruct(sess, pair.r), P.reconstruct(sess, pair.r_shift)
        if kind == "wrap":
            wr = prep.wrap_rands(n)
            return (
                P.reconstruct(sess, wr.x),
                P.reconstruct(sess, wr.xbits),
                P.reconstruct(sess, wr.alpha),
                wr.x.lo,  # own component for the wrap oracle
            )
        if kind == "compare":
            cr = prep.compare_rands(n)
            return (
                P.reconstruct(sess, cr.beta2),
                P.reconstruct(sess, cr.beta_p),
                P.reconstruct(sess, cr.m),
            )
        bp = prep.bit_pairs(n)
        return P.reconstruct(sess, bp.c2), P.reconstruct(sess, bp.cL)

    outs = run_three_parties(lambda s: job(s), PARAMS, session_seed=5)
    if kind == "trunc":
        r, rs = outs[0]
        assert np.array_equal(rs, shift_signed(r, PARAMS.fp, PARAMS))
        assert np.all(signed(r, PARAMS) % (1 << PARAMS.fp) == 0)
    elif kind == "wrap":
        x, bits, alpha, _ = outs[0]
        comps = (outs[0][3], outs[1][3], outs[2][3])
        weights = np.uint64(1) << np.arange(PARAMS.ell, dtype=np.uint64)
        assert np.array_equal((bits * weights).sum(axis=-1) % (1 << PARAMS.ell), x)
        assert np.array_equal(alpha, wrap3(*comps, PARAMS.L))
    elif kind == "compare":
        b2, bp_, m = outs[0]
        assert np.array_equal(b2, bp_)
        assert np.all(m != 0)
    else:
        c2, cL = outs[0]
        assert np.array_equal(c2, cL)


def test_dealer_and_distributed_interchangeable_online():
    # the same online computation yields identical plaintext results under
    # either preprocessing mode (same input sharing seeds)
    from falcon import numeric as N
    from falcon.rings import encode_fixed, decode_fixed

    vals = np.linspace(-3, 3, 32)
    a_vals = np.full(16, 6.0)
    b_vals = np.linspace(1.0, 4.0, 16)

    def job(mode):
        def run(sess):
            sess.prep = (DealerPrep(sess.party, PARAMS, seed=6) if mode == "dealer"
                         else DistributedPrep(sess))
            x = shared_input(sess, encode_fixed(vals, PARAMS), PARAMS.L)
            r = P.reconstruct(sess, P.relu(sess, x))
            a = shared_input(sess, encode_fixed(a_vals, PARAMS), PARAMS.L)
            b = shared_input(sess, encode_fixed(b_vals, PARAMS), PARAMS.L)
            q = P.reconstruct(sess, N.divide(sess, a, b))
            return r, q

        return run_three_parties(run, PARAMS, session_seed=7)[0]

    r1, q1 = job("dealer")
    r2, q2 = job("distributed")
    assert np.array_equal(r1, r2)
    assert np.array_equal(q1, q2)


def test_prep_file_roundtrip(tmp_path):
    path = tmp_path / "prep.bin"

    def record(sess):
        sess.prep = RecordingPrep(DealerPrep(sess.party, PARAMS, seed=8))
        x = shared_input(sess, np.arange(16, dtype=np.uint64), PARAMS.L)
        out = P.reconstruct(sess, P.relu(sess, x))
        save_prep_file(str(path) + f".p{sess.party.index}", sess.party, PARAMS, sess.prep.records)
        return out

    first = run_three_parties(record, PARAMS, session_seed=9)

    def replay(sess):
        sess.prep = FilePrep(str(path) + f".p{sess.party.index}", sess.party, PARAMS)
        x = shared_input(sess, np.arange(16, dtype=np.uint64), PARAMS.L)
        return P.reconstruct(sess, P.relu(sess, x))

    second = run_three_parties(replay, PARAMS, session_seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def replay_wrong_order(sess):
        sess.prep = FilePrep(str(path) + f".p{sess.party.index}", sess.party, PARAMS)
        x = shared_input(sess, np.arange(8, dtype=np.uint64), PARAMS.L)
        return P.reconstruct(sess, P.relu(sess, x))

    with pytest.raises(RuntimeError):
        run_three_parties(replay_wrong_order, PARAMS, session_seed=9)


def test_prep_file_checks_party_and_ring(tmp_path):
    # every field of every kind round-trips; P2 replaying P1's material (or
    # another ring's) must fail on load: in semi-honest mode ReLU would
    # otherwise go silently wrong
    path = str(tmp_path / "prep.p1")
    rec = RecordingPrep(DealerPrep(PartyId(1), PARAMS, seed=10))
    rec.trunc_pairs(4, PARAMS.fp)
    rec.trunc_pairs(3, np.array([2, 5, 13]))
    rec.compare_rands(4)
    rec.wrap_rands(4)
    rec.bit_pairs(4)
    save_prep_file(path, PartyId(1), PARAMS, rec.records)
    back = FilePrep(path, PartyId(1), PARAMS).records
    for kind, items in rec.records.items():
        assert len(back[kind]) == len(items)
        for item, got in zip(items, back[kind]):
            for f in fields(item):
                a, b = getattr(item, f.name), getattr(got, f.name)
                if isinstance(a, RssShare):
                    assert a.mod == b.mod
                    a, b = (a.lo, a.hi), (b.lo, b.hi)
                assert np.array_equal(a, b)
    for party, params in [(PartyId(2), PARAMS), (PartyId(1), RingParams(ell=32, p=41, fp=13)),
                          (PartyId(1), RingParams(ell=16, p=37, fp=8))]:
        with pytest.raises(FormatError):
            FilePrep(path, party, params)
    # a well-formed container whose entries do not fit their record
    entries = load_tensors(path, PREP_MAGIC)
    xbits = {k: entries[f"wrap.0.xbits.{k}"][:, :8] for k in ("lo", "hi")}  # (n, 8)
    for bad in [{"trunc.0.d": np.arange(5, dtype=np.uint64)},  # r has 4 elements
                {"bitpair.0.c2.mod": np.array([2, 2], np.uint64)},
                {"compare.0.m.hi": entries["compare.0.m.hi"][:3]},
                {"wrap.0.xbits.lo": xbits["lo"], "wrap.0.xbits.hi": xbits["hi"]},
                {"bitpair.0.c2.mod": np.uint64(5)}]:
        save_tensors(path, {**entries, **bad}, PREP_MAGIC)
        with pytest.raises(FormatError):
            FilePrep(path, PartyId(1), PARAMS)
