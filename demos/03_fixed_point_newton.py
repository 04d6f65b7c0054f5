"""Fixed-point numerics on shares: division, inverse sqrt, sqrt, batch norm.

Division learns only the public power-of-two bracket of the divisor (one
DReLU over all ell - 1 thresholds at once), reads it as a value in
[0.5, 1) and runs a quartic reciprocal approximation;
the square-root family iterates Newton steps from a power-of-two guess.
"""

import numpy as np

from falcon import numeric as N
from falcon.prep import DealerPrep
from falcon.rings import RingParams, decode_fixed, encode_fixed
from falcon.rss import share_secret
from falcon.session import open_share, run_three_parties

params = RingParams(ell=32, fp=13)


def job(sess):
    sess.prep = DealerPrep(sess.party, params, seed=2)

    def sh(v):
        return share_secret(encode_fixed(v, params), params.L,
                            sess.shared_rng)[sess.party.index - 1]

    a = sh(np.array([1.0, 6.0, 7.25, 0.5]))
    b = sh(np.array([1.0, 3.0, 0.29, 8.0]))
    quot = open_share(sess, N.divide(sess, a, b))

    c = sh(np.array([0.25, 1.0, 4.0, 170.0]))
    r0 = sess.meter.rounds
    alpha = N.bounding_power(sess, c)
    pow_rounds = sess.meter.rounds - r0
    inv_root = open_share(sess, N.inv_sqrt_newton(sess, c, alpha))
    root = open_share(sess, N.sqrt_newton(sess, c))

    acts = sh(np.random.default_rng(3).normal(0.0, 1.0, (1, 32)))
    ones = sh(np.ones(1))
    zeros = sh(np.zeros(1))
    z = open_share(sess, N.batch_norm_forward(sess, acts, ones, zeros)[0])
    return quot, alpha, pow_rounds, inv_root, root, z


if __name__ == "__main__":
    quot, alpha, pow_rounds, inv_root, root, z = run_three_parties(job, params, session_seed=13)[0]
    print("a / b        :", np.round(decode_fixed(quot, params), 5), "(expect 1, 2, 25, 0.0625)")
    print("bracket of c :", alpha.tolist(), f"(public; raw powers of two; one DReLU, {pow_rounds} "
          f"rounds = 2 + log2({params.ell}))")
    print("1 / sqrt(c)  :", np.round(decode_fixed(inv_root, params), 5))
    print("sqrt(c)      :", np.round(decode_fixed(root, params), 5))
    zval = decode_fixed(z, params)
    print(f"batch norm   : mean {zval.mean():+.5f}, variance {zval.var():.4f}")
