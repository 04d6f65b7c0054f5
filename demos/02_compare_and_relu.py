"""The comparison stack: private compare, the wrap bit, DReLU and ReLU.

Comparisons never reveal operands: private compare multiplies ell masked
per-bit differences into a single blinded product in log2(ell) tree
levels, the wrap protocol turns share-carry algebra into a sign bit, and
ReLU is one multiplication by that bit lifted to Z_L, whose lift opens in
the compare's last round. Round counts follow 3 + log2(ell) for ReLU.
"""

from dataclasses import replace

import numpy as np

from falcon import protocols as P
from falcon.prep import DealerPrep, compare_products
from falcon.rings import RingParams, bit_decompose, decode_fixed, encode_fixed
from falcon.rss import public_share, share_secret
from falcon.session import open_share, run_three_parties

params = RingParams(ell=32, fp=13)


def job(sess):
    sess.prep = DealerPrep(sess.party, params, seed=1)

    # private compare: shared bits of x against a public threshold; the
    # answer opens xor a mask shared over Z_2, here a public zero. It runs
    # on preprocessed wrap material (x's bits, a blinding bit and its
    # products with the bits); to compare chosen x, the dealt material takes
    # their bits and their products, formed here in one multiplication
    xs = np.array([3, 41, 100, 100], np.uint64)
    ts = np.array([10, 17, 100, 99], np.uint64)
    bits = share_secret(bit_decompose(xs, params), params.p,  # (ell, n) planes
                        sess.shared_rng)[sess.party.index - 1]
    rand = sess.prep.wrap_rands(len(xs))
    vbits, m_beta, m_xtop = compare_products(sess, bits, rand.beta_p, rand.m)
    rand = replace(rand, xbits=bits, vbits=vbits, m_beta=m_beta, m_xtop=m_xtop)
    zero = public_share(sess.party, np.uint64(0), 2, shape=xs.shape)
    gt = P.private_compare(sess, ts, zero, rand)

    # ReLU over a fixed-point vector, with the round meter
    vals = encode_fixed(np.array([-3.5, -0.25, 0.0, 0.25, 7.75]), params)
    a = share_secret(vals, params.L, sess.shared_rng)[sess.party.index - 1]
    r0 = sess.meter.rounds
    out = P.relu(sess, a)
    relu_rounds = sess.meter.rounds - r0
    return gt, open_share(sess, out), relu_rounds


if __name__ == "__main__":
    gt, relu_vals, rounds = run_three_parties(job, params, session_seed=7)[0]
    print("x > t for (3,10) (41,17) (100,100) (100,99):", gt.tolist())
    print("relu(-3.5, -0.25, 0, 0.25, 7.75) =", decode_fixed(relu_vals, params).tolist())
    print(f"relu used {rounds} rounds = 3 + log2({params.ell})")
