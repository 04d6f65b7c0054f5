"""Preprocessing artifacts: reconstruct-and-recompute oracles, both modes."""

import math
import os
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from falcon import protocols as P
from falcon.data import FormatError, load_tensors, save_tensors
from falcon.oracle import oracle_drelu
from falcon.prep import (
    PREP_MAGIC,
    DealerPrep,
    DistributedPrep,
    FilePrep,
    RecordingPrep,
    _adder_wrap_bit,
    bit_inject,
    compare_products,
    sample_shared_bits,
    save_prep_file,
)
from falcon.rings import (RingParams, add_mod, bit_decompose, dtype_for, reduce_mod,
                          shift_signed, signed, sub_mod, wrap3)
from falcon.rss import PartyId, RssShare, share_components
from falcon.session import ThreatModel, open_share, run_three_parties
from conftest import reconstruct_all

from test_protocols import run_shared, shared_input, zero_mask

PARAMS = RingParams(ell=32, fp=13)
P8 = RingParams(ell=8, fp=4)


def _dealers(params, seed=0):
    return [DealerPrep(PartyId(i), params, seed=seed) for i in (1, 2, 3)]


def _trunc_shifts(params):
    # 2,000 pairs at the fixed-point shift and 2,000 at the widest, ell - 2
    return np.repeat([params.fp, params.ell - 2], 2000)


def _check_trunc_pairs(r, r_shift, d, params):
    """r = u 2^d and r' = u with u uniform in [-2^{ell-2-d}, 2^{ell-2-d}).

    Both halves of that range must be reached: opening x - r masks x only
    as far as r spans.
    """
    for dv in np.unique(d):
        at = d == dv
        u = signed(r_shift[at], params)
        assert np.array_equal(signed(r[at], params), u << dv)
        span = 1 << (params.ell - 2 - int(dv))
        assert -span <= u.min() and u.max() < span
        assert u.min() < -(span // 2) and u.max() >= span // 2


def test_dealer_trunc_pairs_oracle():
    dealers = _dealers(PARAMS)
    pairs = [d.trunc_pairs(4000, _trunc_shifts(PARAMS)) for d in dealers]
    r = reconstruct_all([p.r for p in pairs])
    rs = reconstruct_all([p.r_shift for p in pairs])
    _check_trunc_pairs(r, rs, pairs[0].d, PARAMS)


def test_dealer_trunc_pair_fixed_values():
    # r encoding 5 * 2^fp truncates to 5; r = 0 truncates to 0 (direct check
    # of the pair relation on crafted values)
    dealers = _dealers(PARAMS, seed=1)
    pair = [d.trunc_pairs(4, PARAMS.fp) for d in dealers]
    r = reconstruct_all([p.r for p in pair])
    rs = reconstruct_all([p.r_shift for p in pair])
    assert np.array_equal(rs, shift_signed(r, PARAMS.fp, PARAMS))


@pytest.mark.parametrize("params", [PARAMS, RingParams(ell=64, fp=13)], ids=lambda p: p.ell)
def test_dealer_wrap_rands_alpha_matches_components(params):
    dealers = _dealers(params, seed=2)
    wr = [d.wrap_rands(1000) for d in dealers]
    # each component is uniform over the whole ring, its top half included
    comps = (wr[0].x.lo, wr[1].x.lo, wr[2].x.lo)
    assert all(c.dtype == dtype_for(params.L) and (c >= params.L // 2).any() for c in comps)
    # alpha equals wrap3 of the actual emitted components
    alpha = reconstruct_all([w.alpha for w in wr])
    assert np.array_equal(alpha, wrap3(*comps, params.L))
    # bit sharing matches the reconstructed x
    x = reconstruct_all([w.x for w in wr])
    bits = reconstruct_all([w.xbits for w in wr])  # (ell, n) planes
    weights = np.uint64(1) << np.arange(params.ell, dtype=np.uint64)
    assert np.array_equal((bits * weights[:, None]).sum(axis=0, dtype=np.uint64), x)


def test_dealer_bit_pairs():
    dealers = _dealers(PARAMS, seed=4)
    bp = [d.bit_pairs(1000) for d in dealers]
    c2 = reconstruct_all([b.c2 for b in bp])
    cL = reconstruct_all([b.cL for b in bp])
    assert np.array_equal(c2, cL)
    assert set(np.unique(c2)) <= {0, 1}


def _dealt(dealer) -> list:
    """Every share one dealer hands out over a fixed run of requests."""
    items = (dealer.trunc_pairs(100, np.repeat([PARAMS.fp, PARAMS.ell - 2], 50)),
             dealer.wrap_rands(100), dealer.bit_pairs(100), dealer.trunc_pairs(100, PARAMS.fp))
    return [getattr(a, f.name) for a in items for f in fields(a) if f.name != "d"]


def test_dealer_material_depends_only_on_the_call():
    # three dealers that share the memo, and three that each deal alone (the
    # memo cleared before each party, as the benchmark's clear_dealer_memo
    # can), hand out the same consistent sharings call by call
    DealerPrep._memo.clear()
    shared = [_dealt(d) for d in _dealers(PARAMS, seed=12)]
    alone = []
    for dealer in _dealers(PARAMS, seed=12):
        DealerPrep._memo.clear()
        alone.append(_dealt(dealer))
    for k in range(len(shared[0])):
        reconstruct_all([alone[i][k] for i in range(3)])
        for i in range(3):
            assert np.array_equal(alone[i][k].lo, shared[i][k].lo)
            assert np.array_equal(alone[i][k].hi, shared[i][k].hi)


def test_dealer_memo_drops_an_entry_once_all_three_parties_take_it():
    # three in-process dealers of one seed leave none of their material in
    # the memo: the third party's take of each call drops its entry
    seed = 4321

    def job(sess):
        x = shared_input(sess, np.arange(-50, 50).astype(np.uint64), PARAMS.L)
        return open_share(sess, P.relu(sess, P.truncate(sess, x, 2)))

    out = run_shared(PARAMS, job, seed=seed)
    assert np.array_equal(signed(out[0], PARAMS), np.maximum(np.arange(-50, 50) >> 2, 0))
    assert not [key for key in DealerPrep._memo if key[0] == seed]


def test_compare_products_exhaustive():
    # at ell = 8 (p = 11), every x, both beta and every nonzero m~: the
    # compare's flipped bits vbits = (1 - 2 beta) x[i], m~ beta and
    # m~ x[ell - 1], all in one multiplication round
    p = P8.p
    x, beta, m = (g.ravel() for g in np.meshgrid(np.arange(256), np.arange(2), np.arange(1, p),
                                                   indexing="ij"))
    bits = bit_decompose(x.astype(np.uint64), P8).astype(np.int64)  # (ell, n) planes

    def job(sess):
        r0 = sess.meter.rounds
        prods = compare_products(sess, *(shared_input(sess, v, p) for v in (bits, beta, m)))
        rounds = sess.meter.rounds - r0
        return [open_share(sess, s) for s in prods], rounds

    (vbits, m_beta, m_xtop), rounds = run_shared(P8, job)[0]
    assert rounds == 1
    assert np.array_equal(vbits, (1 - 2 * beta) * bits % p)
    assert np.array_equal(m_beta, m * beta % p)
    assert np.array_equal(m_xtop, m * bits[-1] % p)


def test_bit_inject_exhaustive_components():
    # all 8 component combinations inject to b1 xor b2 xor b3
    def job(sess):
        outs = []
        for combo in range(8):
            bits_lo = np.array([(combo >> (sess.party.index - 1)) & 1], np.uint64)
            bits_hi = np.array([(combo >> (sess.party.index % 3)) & 1], np.uint64)
            from falcon.rss import RssShare

            b = RssShare(bits_lo, bits_hi, 2)
            outs.append(open_share(sess, bit_inject(sess, b, sess.params.L)))
        return outs

    outs = run_shared(PARAMS, job)[0]
    for combo in range(8):
        b1, b2, b3 = (combo >> 0) & 1, (combo >> 1) & 1, (combo >> 2) & 1
        assert outs[combo] == b1 ^ b2 ^ b3, f"combo {combo:03b}"


def test_bit_inject_matches_shared_random_bits():
    def job(sess):
        bits = sample_shared_bits(sess, (200,))
        injected = bit_inject(sess, bits, sess.params.L)
        return open_share(sess, bits), open_share(sess, injected)

    plain, lifted = run_shared(PARAMS, job)[0]
    assert np.array_equal(plain, lifted)


P64 = RingParams(ell=64, fp=13)


def _distributed_cases():
    # the id names only what differs from distributed, semi-honest, ell = 32;
    # the compare also runs at ell = 8
    for kind in ("trunc", "wrap", "compare", "bitpair"):
        rings = ((RingParams(), ""), (P64, "-ell64")) + (((P8, "-ell8"),) if kind == "compare" else ())
        for source in ("", "-dealer"):
            for threat, tname in ((ThreatModel.SEMI_HONEST, ""), (ThreatModel.MALICIOUS, "-malicious")):
                for params, pname in rings:
                    yield pytest.param(kind, source == "-dealer", threat, params,
                                       id=kind + source + tname + pname)


def _compare_targets(x, params, shift=0):
    """Per element, by (index + shift) mod 5: 0, x - 1, x, x + 1 and 2^ell - 1."""
    L = params.L
    x = np.asarray(x, np.uint64)
    near = np.stack([np.zeros_like(x), sub_mod(x, 1, L), x, add_mod(x, 1, L),
                     np.full_like(x, L - 1)])
    return near[(np.arange(len(x)) + shift) % 5, np.arange(len(x))]


@pytest.mark.parametrize("kind,dealer,threat,params", _distributed_cases())
def test_distributed_prep_oracles(kind, dealer, threat, params):
    n = 50

    def job(sess):
        prep = DealerPrep(sess.party, sess.params, seed=5) if dealer else DistributedPrep(sess)
        if kind == "trunc":
            pair = prep.trunc_pairs(4000, _trunc_shifts(sess.params))
            return open_share(sess, pair.r), open_share(sess, pair.r_shift), pair.d
        if kind == "wrap":
            wr = prep.wrap_rands(n)
            return (
                open_share(sess, wr.x),
                open_share(sess, wr.xbits),
                open_share(sess, wr.alpha),
                wr.x.lo,  # own component for the wrap oracle
                tuple(open_share(sess, s) for s in (wr.beta2, wr.beta_p, wr.m, wr.vbits,
                                                    wr.m_beta, wr.m_xtop)),
                tuple((s.mod, s.lo.dtype, s.shape) for s in (wr.xbits, wr.alpha, wr.beta2,
                                                              wr.beta_p, wr.m, wr.vbits,
                                                              wr.m_beta, wr.m_xtop)),
                wr.x.mod,
                # the compare reads its planes without a transpose or a copy
                all(a.flags.c_contiguous for s in (wr.xbits, wr.vbits) for a in (s.lo, s.hi)),
            )
        if kind == "compare":
            # the compare as the wrap protocol runs it, on the material's x
            wr = prep.wrap_rands(n)
            x = open_share(sess, wr.x)
            ts = _compare_targets(x, sess.params)
            r0 = sess.meter.rounds
            gt = P.private_compare(sess, ts, zero_mask(sess, n), wr)
            return x, ts, gt, sess.meter.rounds - r0
        bp = prep.bit_pairs(n)
        return open_share(sess, bp.c2), open_share(sess, bp.cL)

    outs = run_three_parties(job, params, threat=threat, session_seed=5)
    if kind == "trunc":
        _check_trunc_pairs(*outs[0], params)
    elif kind == "wrap":
        x, bits, alpha, _, (b2, bp_, m, vbits, m_beta, m_xtop), rings, x_mod, planar = outs[0]
        p, bit_planes = params.p, (params.ell, n)
        assert x_mod == params.L and planar
        assert rings == tuple((mod, dtype_for(mod), shape) for mod, shape in (
            (p, bit_planes), (2, (n,)), (2, (n,)), (p, (n,)), (p, (n,)), (p, bit_planes),
            (p, (n,)), (p, (n,))))
        comps = (outs[0][3], outs[1][3], outs[2][3])
        weights = np.uint64(1) << np.arange(params.ell, dtype=np.uint64)
        # the uint64 sum wraps mod 2^64, a multiple of 2^ell
        composed = reduce_mod((bits * weights[:, None]).sum(axis=0, dtype=np.uint64), params.L)
        assert np.array_equal(composed, x)
        assert np.array_equal(alpha, wrap3(*comps, params.L))
        # the compare's blinding, and x's bits flipped by it
        assert np.array_equal(b2, bp_) and 0 < b2.sum() < n
        assert np.all(m != 0)
        flip = 1 - 2 * b2.astype(np.int64)
        assert np.array_equal(vbits, reduce_mod(flip * bits.astype(np.int64), p))
        # and the products that fold the mask m~ (1 - 2 beta) into the top factor
        wide = m.astype(np.uint64)
        assert np.array_equal(m_beta, reduce_mod(wide * b2, p))
        assert np.array_equal(m_xtop, reduce_mod(wide * bits[-1], p))
    elif kind == "compare":
        x, ts, gt, rounds = outs[0]
        assert np.array_equal(gt, (x > ts).astype(np.uint8))
        # ceil(log2 ell) tree levels and the open of d
        assert rounds == 1 + math.ceil(math.log2(params.ell))
    else:
        c2, cL = outs[0]
        assert np.array_equal(c2, cL)


@pytest.mark.parametrize("threat", [ThreatModel.SEMI_HONEST, ThreatModel.MALICIOUS],
                         ids=["semi", "malicious"])
@pytest.mark.parametrize("dealer", [True, False], ids=["dealer", "distributed"])
def test_compare_and_drelu_across_column_blocks(dealer, threat):
    # the compare's factors are built in column blocks of the (ell, n)
    # planes; at n = PC_BLOCK_ROWS + 3 the second block is partial. Both
    # blocks meet every target kind (two target shifts three apart give the
    # last block's three instances five consecutive kinds), so reading any
    # plane, t or blinding product through a wrong column slice pairs one
    # instance's bits with another's target
    n = P.PC_BLOCK_ROWS + 3
    L = PARAMS.L
    edges = np.array([0, 1, L - 1, L // 2 - 1, L // 2], np.uint64)
    raws = np.random.default_rng(17).integers(0, L, n, dtype=np.uint64)
    raws[: len(edges)], raws[-3:] = edges, edges[[0, 3, 4]]

    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=17) if dealer else DistributedPrep(sess)
        outs = []
        for shift in (0, 3):
            wr = sess.prep.wrap_rands(n)
            x = open_share(sess, wr.x)
            ts = _compare_targets(x, PARAMS, shift)
            outs.append((x, ts, P.private_compare(sess, ts, zero_mask(sess, n), wr)))
        a = shared_input(sess, raws, L)
        return outs, P.drelu(sess, a, zero_mask(sess, n))

    compares, bits = run_three_parties(job, PARAMS, threat=threat, session_seed=17)[0]
    for x, ts, gt in compares:
        assert np.array_equal(gt, (x > ts).astype(np.uint8))
    assert np.array_equal(bits, oracle_drelu(raws, PARAMS))


@pytest.mark.parametrize("dealer", [True, False], ids=["dealer", "distributed"])
def test_flipped_bits_are_a_fresh_sharing(dealer):
    # each party's components of vbits = (1 - 2 beta) x[i] must not be its
    # components of xbits times 1 or p - 1: that sign is beta. A fresh sharing
    # repeats an instance's ell components with probability about 2 p^-ell
    p = PARAMS.p

    def job(sess):
        prep = DealerPrep(sess.party, PARAMS, seed=5) if dealer else DistributedPrep(sess)
        wr = prep.wrap_rands(200)
        scaled = 0
        for comp in ("lo", "hi"):
            x, v = getattr(wr.xbits, comp), getattr(wr.vbits, comp)
            scaled += int(np.sum(np.all(v == x, axis=0) | np.all(v == (p - x) % p, axis=0)))
        return scaled

    assert run_three_parties(job, PARAMS, session_seed=5) == [0, 0, 0]


def prefix_levels(m):
    """ceil(log2 m): the AND levels of a Sklansky prefix over m positions."""
    return (m - 1).bit_length()


def prefix_ands(m):
    """ANDs of a Sklansky prefix over m positions with no carry in. At the
    level of half-width h, every row j with j & h set takes a generate
    product, and a propagate product unless it lies in the first block of
    2h rows, the min(2h, m) - h rows of [h, 2h)."""
    return sum(2 * sum(1 for j in range(m) if j & h) - (min(2 * h, m) - h)
               for h in (1 << k for k in range(prefix_levels(m))))


def test_prefix_ands_counts():
    # m = 7 takes 5 + 4 + 3 over its three levels, m = 31 (ell = 32)
    # 29 + 28 + 26 + 22 + 15 over five
    assert [prefix_ands(m) for m in (1, 2, 3, 7, 31)] == [0, 1, 2, 12, 120]


@pytest.mark.parametrize("params", [RingParams(ell=16, fp=6), RingParams(), P64],
                         ids=["ell16", "ell32", "ell64"])
def test_distributed_wrap_rands_rounds(params):
    # Rounds and cost-model bits per party of each artifact (Z_p and Z_2
    # count 1 bit). wrap_rands: one carry-save AND per bit, one round of the
    # adder's ell - 1 generate products, the ceil(log2(ell - 1)) levels of
    # its prefix carry, a Z_p injection of x's bits and beta (two rounds,
    # two products per injected bit, one per XOR), the nonzero masks and the
    # compare's products in one round: one flip product per bit, m~ beta and
    # m~ x[ell - 1]. The masks take the square-and-multiply of
    # m^(p-1) and one open, each over a batch of n + 4 (one batch is enough
    # here). trunc_pairs injects ell - 1 - fp bits per pair.
    n, ell, fp = 8, params.ell, params.fp
    e = params.p - 1
    masks = e.bit_length() - 1 + bin(e).count("1") - 1 + 1

    def job(sess):
        prep = DistributedPrep(sess)
        costs = []
        for make in (lambda: prep.wrap_rands(n), lambda: prep.bit_pairs(n),
                     lambda: prep.trunc_pairs(n, fp)):
            rounds, bits = sess.meter.rounds, sess.meter.acct_bits
            make()
            costs.append((sess.meter.rounds - rounds, sess.meter.acct_bits - bits))
        return costs

    wrap_rounds = 1 + 1 + prefix_levels(ell - 1) + 2 + masks + 1
    wrap_bits = (n * ell + n * (ell - 1) + n * prefix_ands(ell - 1) + 2 * n * (ell + 1)
                 + masks * (n + 4) + n * (ell + 2))
    assert wrap_rounds == {16: 15, 32: 17, 64: 19}[ell]
    want = [(wrap_rounds, wrap_bits), (2, 2 * n * ell), (2, 2 * n * (ell - 1 - fp) * ell)]
    assert run_three_parties(job, params, session_seed=6) == [want] * 3


def _adder_cases(ell, n, rng):
    """(max(n, 8), 3) component triples: the carry through all ell - 1
    positions (2^ell - 1, 1, 0), sums of exactly L and 2L, x = 0 and
    x = 2^ell - 1, then random triples up to n."""
    L, top = 1 << ell, (1 << ell) - 1
    edges = [(top, 1, 0), (0, top, 1), (L // 2, L // 2, 0), (top, top, 2), (0, 0, 0),
             (top, 0, 0), (top, top, 1), (top, top, top)]
    rand = rng.integers(0, top, (max(n - len(edges), 0), 3), dtype=np.uint64, endpoint=True)
    return np.concatenate([np.array(edges, np.uint64), rand])


@pytest.mark.parametrize("n", [1, 13])
@pytest.mark.parametrize("ell", [8, 16, 32, 64])
def test_adder_wrap_bit_on_chosen_components(ell, n):
    # the adder's sum bits are the bits of x = x1 + x2 + x3 and its alpha
    # the wrap of the components; at n = 1 each triple is its own call
    params = RingParams(ell=ell, fp=4)
    L = params.L
    triples = _adder_cases(ell, n, np.random.default_rng(ell))
    calls = [tuple(triples.T)] if n > 1 else [tuple(t[:, None]) for t in triples]

    def job(sess):
        outs = []
        for comps in calls:
            bits, alpha = _adder_wrap_bit(sess, share_components(sess.party, comps, L))
            outs.append((open_share(sess, bits), open_share(sess, alpha)))
        return outs

    for comps, (bits, alpha) in zip(calls, run_three_parties(job, params, session_seed=2)[0]):
        with np.errstate(over="ignore"):
            x = reduce_mod(comps[0] + comps[1] + comps[2], L)
        assert np.array_equal(bits, bit_decompose(x, params))
        assert np.array_equal(alpha, wrap3(*comps, L))


def _malicious_peak(job):
    """tracemalloc peak of one malicious memory-backend run, three parties."""
    tracemalloc.start()
    try:
        run_three_parties(job, PARAMS, threat=ThreatModel.MALICIOUS, session_seed=7)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_distributed_wrap_rands_memory():
    # one benchmark request's worth of wrap randomness (network-b, batch 16)
    # holds only a handful of (n, ell) uint8 bit planes at a time
    n = 15680
    peak = _malicious_peak(lambda sess: DistributedPrep(sess).wrap_rands(n))
    assert peak < 150e6, f"wrap_rands({n}) peaked at {peak / 1e6:.0f} MB over three parties"


def test_distributed_trunc_pairs_memory():
    # the same request's truncation pairs: (n, ell - 1 - fp) injected bits
    # over Z_L, one product per XOR
    n = 15680
    peak = _malicious_peak(lambda sess: DistributedPrep(sess).trunc_pairs(n, PARAMS.fp))
    assert peak < 130e6, f"trunc_pairs({n}) peaked at {peak / 1e6:.0f} MB over three parties"


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
            r = open_share(sess, P.relu(sess, x))
            a = shared_input(sess, encode_fixed(a_vals, PARAMS), PARAMS.L)
            b = shared_input(sess, encode_fixed(b_vals, PARAMS), PARAMS.L)
            q = open_share(sess, N.divide(sess, a, b))
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
        out = open_share(sess, P.relu(sess, x))
        save_prep_file(str(path) + f".p{sess.party.index}", sess.party, PARAMS, sess.prep.records)
        return out

    first = run_three_parties(record, PARAMS, session_seed=9)

    def replay(sess):
        sess.prep = FilePrep(str(path) + f".p{sess.party.index}", sess.party, PARAMS)
        x = shared_input(sess, np.arange(16, dtype=np.uint64), PARAMS.L)
        return open_share(sess, P.relu(sess, x))

    second = run_three_parties(replay, PARAMS, session_seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))

    def replay_wrong_order(sess):
        sess.prep = FilePrep(str(path) + f".p{sess.party.index}", sess.party, PARAMS)
        x = shared_input(sess, np.arange(8, dtype=np.uint64), PARAMS.L)
        return open_share(sess, P.relu(sess, x))

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
    for party, params in [(PartyId(2), PARAMS), (PartyId(1), RingParams(ell=16, fp=8))]:
        with pytest.raises(FormatError):
            FilePrep(path, party, params)
    # a well-formed container whose entries do not fit their record
    entries = load_tensors(path, PREP_MAGIC)
    narrow = {f"wrap.0.{f}.{k}": entries[f"wrap.0.{f}.{k}"][:8]  # (8, n)
              for f in ("xbits", "vbits") for k in ("lo", "hi")}
    # the (n, ell) bit records of FALPREP4, instance-major
    rowmajor = {k: np.ascontiguousarray(v.T) for k, v in entries.items()
                if k.endswith((".xbits.lo", ".xbits.hi", ".vbits.lo", ".vbits.hi"))}
    for bad in [{"session": np.array([1, 32, 41], np.uint64)},  # made under a foreign prime
                {"trunc.0.d": np.arange(5, dtype=np.uint64)},  # r has 4 elements
                {"trunc.0.d": np.uint64(PARAMS.fp)},  # one shift for the record
                {"bitpair.0.c2.mod": np.array([2, 2], np.uint64)},
                {"wrap.0.m.hi": entries["wrap.0.m.hi"][:3]},
                {k: v for k, v in narrow.items() if ".xbits." in k},
                {k: v for k, v in narrow.items() if ".vbits." in k},
                {"wrap.0.vbits.lo": entries["wrap.0.vbits.lo"][0]},
                rowmajor,
                {"bitpair.0.c2.mod": np.uint64(5)},
                # Z_p shares are uint8: p itself breaks the reduced-operand
                # invariant, 300 would be truncated to 44
                {"wrap.0.m.lo": np.full(4, PARAMS.p, np.uint8)},
                {"wrap.0.m.hi": np.full(4, 300, np.uint64)},
                {"trunc.0.r.lo": np.full(4, PARAMS.L, np.uint64)}]:
        save_tensors(path, {**entries, **bad}, PREP_MAGIC)
        with pytest.raises(FormatError):
            FilePrep(path, PartyId(1), PARAMS)
    # files of the previous formats are refused by their magic: FALPREP2's
    # wrap records lack the compare's blinding and flipped bits, FALPREP3's
    # lack m~ beta and m~ x[ell - 1] (its m was the mask itself), and
    # FALPREP4's hold xbits and vbits instance-major, (n, ell)
    for magic, dropped in [(b"FALPREP2", ("beta2", "beta_p", "m", "vbits", "m_beta", "m_xtop")),
                           (b"FALPREP3", ("m_beta", "m_xtop"))]:
        gone = tuple(f"wrap.0.{f}." for f in dropped)
        save_tensors(path, {k: v for k, v in entries.items() if not k.startswith(gone)}, magic)
        with pytest.raises(FormatError, match="not a FALPREP5 file"):
            FilePrep(path, PartyId(1), PARAMS)
        # and so is a current file that lacks the fields
        save_tensors(path, {k: v for k, v in entries.items() if not k.startswith(gone)},
                     PREP_MAGIC)
        with pytest.raises(FormatError, match="missing"):
            FilePrep(path, PartyId(1), PARAMS)
    save_tensors(path, {**entries, **rowmajor}, b"FALPREP4")
    with pytest.raises(FormatError, match="not a FALPREP5 file"):
        FilePrep(path, PartyId(1), PARAMS)
    assert PREP_MAGIC == b"FALPREP5"
    # a file written with uint64 Z_p/Z_2 entries loads as the same uint8 shares
    wide = {k: v.astype(np.uint64) for k, v in entries.items()}
    save_tensors(path, wide, PREP_MAGIC)
    back = FilePrep(path, PartyId(1), PARAMS).records
    assert back["wrap"][0].m.lo.dtype == np.uint8
    assert np.array_equal(back["wrap"][0].m.hi, rec.records["wrap"][0].m.hi)
    assert np.array_equal(back["wrap"][0].xbits.lo, rec.records["wrap"][0].xbits.lo)
    assert np.array_equal(back["wrap"][0].vbits.hi, rec.records["wrap"][0].vbits.hi)
    # and a replay hands the compare the C-contiguous (ell, n) planes
    for bits in (back["wrap"][0].xbits, back["wrap"][0].vbits):
        assert bits.shape == (PARAMS.ell, 4)
        assert bits.lo.flags.c_contiguous and bits.hi.flags.c_contiguous


def test_prep_file_stores_zl_parts_in_the_ring_word(tmp_path):
    # at ell = 32 every Z_L part is written as a 4-byte word and each trunc
    # shift as a byte: under half the size of the 8-byte layout files had
    # before. Both layouts replay to the same truncations
    n = 4096
    raws = np.random.default_rng(21).integers(0, 1 << 29, n, dtype=np.uint64)
    paths = {"word": str(tmp_path / "word"), "wide": str(tmp_path / "wide")}

    def truncated(sess):
        x = shared_input(sess, raws, PARAMS.L)
        return open_share(sess, P.truncate(sess, x, PARAMS.fp))

    def record(sess):
        sess.prep = RecordingPrep(DealerPrep(sess.party, PARAMS, seed=22))
        out = truncated(sess)
        save_prep_file(f"{paths['word']}.p{sess.party.index}", sess.party, PARAMS,
                       sess.prep.records)
        return out

    first = run_three_parties(record, PARAMS, session_seed=23)
    for i in (1, 2, 3):
        entries = load_tensors(f"{paths['word']}.p{i}", PREP_MAGIC)
        for key in ("r", "r_shift"):
            for part in ("lo", "hi"):
                assert entries[f"trunc.0.{key}.{part}"].dtype == np.dtype("<u4")
        assert entries["trunc.0.d"].dtype == np.uint8
        # the layout before: every Z_L part and shift in 8 bytes
        wide = {k: v.astype(np.uint64) if v.dtype == np.uint32 or k.endswith(".d") else v
                for k, v in entries.items()}
        save_tensors(f"{paths['wide']}.p{i}", wide, PREP_MAGIC)
        word, old = (os.path.getsize(f"{paths[k]}.p{i}") for k in ("word", "wide"))
        assert word < 0.5 * old, (word, old)

    for layout in ("word", "wide"):
        def replay(sess, layout=layout):
            sess.prep = FilePrep(f"{paths[layout]}.p{sess.party.index}", sess.party, PARAMS)
            pair = sess.prep.records["trunc"][0]
            assert pair.r.lo.dtype == pair.r_shift.hi.dtype == np.uint32
            return truncated(sess)

        again = run_three_parties(replay, PARAMS, session_seed=23)
        assert all(np.array_equal(a, b) for a, b in zip(first, again)), layout
