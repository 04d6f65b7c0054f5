"""Exact online counts of one request of each benchmark shape.

One batch of 2 runs network-c inference (semi-honest), network-b inference
and one network-a SGD step (both malicious), each net with relu and maxpool
swapped as the benchmark runs it. Each DReLU that steers anything is lifted
to Z_L with its bit opened in the round that opens the compare's d, so every
relu, its backward and the loss's two fallback selections are one
multiplication each. Inference rounds do not depend on the batch, so 72 and
25 are also the benchmark's counts at batch 16. One rescale of the SGD step
has a data-dependent public shift: divide reads the loss's divisor at x in
[0.5, 1), which is a local left shift for both samples here and a
truncation round for some sample of the benchmark's batch of 32 (121
rounds).

Each shape pins party 1's rounds, messages, wire bytes and cost-model
bits; all three parties must agree on every count.
"""

import numpy as np
import pytest

from falcon import nn
from falcon.data import synth_digits
from falcon.nets import network_a, network_b, network_c
from falcon.netspec import init_float_params
from falcon.prep import DealerPrep
from falcon.rings import RingParams, encode_fixed
from falcon.rss import share_secret
from falcon.session import ThreatModel, open_share, run_three_parties

PARAMS = RingParams()
BATCH = 2


def online_counts(make_net, threat: ThreatModel, train: bool) -> tuple:
    net = make_net().swap_relu_maxpool()
    raws = {k: encode_fixed(v, PARAMS) for k, v in init_float_params(net, seed=3).items()}
    pixels, labels = synth_digits(BATCH, seed=3)
    images = encode_fixed(pixels.astype(np.float64) / 256.0, PARAMS)
    images = images.reshape((BATCH,) + tuple(net.input_shape))
    onehot = np.eye(net.classes)[labels]

    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=3)
        state = nn.share_weights(sess, net, raws)
        m = sess.meter
        c0 = (m.rounds, m.messages, m.wire_bytes, m.acct_bits)
        x = share_secret(images, PARAMS.L, sess.shared_rng)[sess.party.index - 1]
        logits = nn.forward(sess, state, x)
        if train:
            delta = nn.loss_grad_approx(sess, logits, onehot, scale_shift=2)
            nn.sgd_step(sess, state, nn.backward(sess, state, delta), 8)
        else:
            open_share(sess, logits)
        c1 = (m.rounds, m.messages, m.wire_bytes, m.acct_bits)
        return tuple(b - a for a, b in zip(c0, c1))

    counts = run_three_parties(job, PARAMS, threat=threat, session_seed=3)
    assert len(set(counts)) == 1
    return counts[0]


# (rounds, messages, wire bytes, cost-model bits)
@pytest.mark.parametrize("make_net, threat, train, want", [
    (network_c, ThreatModel.SEMI_HONEST, False, (72, 86, 1_739_080, 4_055_200)),
    (network_b, ThreatModel.MALICIOUS, False, (25, 39, 204_380, 569_120)),
    (network_a, ThreatModel.MALICIOUS, True, (120, 188, 2_445_732, 19_262_092)),
], ids=["infer-c", "infer-b-mal", "train-a-mal"])
def test_online_rounds_are_exact(make_net, threat, train, want):
    assert online_counts(make_net, threat, train) == want
