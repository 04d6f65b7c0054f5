"""Replicated sharing: creation, linear homomorphism, PRF randomness."""

import numpy as np
import pytest
from scipy import stats

from falcon.rings import RingError, add_mod
from falcon.rss import (
    PartyId,
    PrfState,
    add_public,
    add_shares,
    public_share,
    scale_share,
    share_secret,
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

