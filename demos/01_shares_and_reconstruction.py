"""Replicated secret sharing basics: split, compute locally, reconstruct.

Three parties each hold two of the three additive components of a secret.
Linear algebra happens without any communication; opening a value takes a
single round; in the malicious model every opening is cross-checked.
"""

import numpy as np

from falcon import protocols as P
from falcon.prep import DealerPrep
from falcon.rings import RingParams, decode_fixed, encode_fixed
from falcon.rss import add_shares, scale_share, share_secret
from falcon.session import ThreatModel, run_three_parties

params = RingParams(ell=32, fp=13)


def job(sess):
    sess.prep = DealerPrep(sess.party, params, seed=0)

    # the operator shares two fixed-point vectors
    x = share_secret(encode_fixed(np.array([1.5, -2.25, 3.0]), params),
                     params.L, sess.shared_rng)[sess.party.index - 1]
    y = share_secret(encode_fixed(np.array([0.5, 4.0, -1.0]), params),
                     params.L, sess.shared_rng)[sess.party.index - 1]

    # local-only linear algebra: 2x + y
    z = add_shares(scale_share(np.uint64(2), x), y)
    opened_linear = P.reconstruct(sess, z)

    # one multiplication costs one communication round
    r0 = sess.meter.rounds
    prod = P.truncate(sess, P.mult(sess, x, y), params.fp)
    opened_prod = P.reconstruct(sess, prod)
    return opened_linear, opened_prod, sess.meter.rounds - r0


if __name__ == "__main__":
    lin, prod, rounds = run_three_parties(job, params, session_seed=42)[0]
    print("2x + y      =", decode_fixed(lin, params), "(no communication)")
    print("x * y       =", decode_fixed(prod, params), f"({rounds} rounds: mult + truncate + open)")

    malicious = run_three_parties(job, params, threat=ThreatModel.MALICIOUS, session_seed=42)[0]
    print("malicious run reproduces the same values:", decode_fixed(malicious[1], params))
