"""Exact online rounds of one request of each benchmark shape.

One batch of 2 runs network-c inference (semi-honest), network-b inference
and one network-a SGD step (both malicious), each net with relu and maxpool
swapped as the benchmark runs it. Each DReLU opens its consumer's bit in the
round that opens the compare's d. Inference rounds do not depend on the
batch, so 72 and 25 are also the benchmark's counts at batch 16. One
rescale of the SGD step has a data-dependent public shift: divide reads the
loss's divisor at x in [0.5, 1), which is a local left shift for both
samples here and a truncation round for some sample of the benchmark's
batch of 32 (123 rounds).
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


def online_rounds(make_net, threat: ThreatModel, train: bool) -> int:
    net = make_net().swap_relu_maxpool()
    raws = {k: encode_fixed(v, PARAMS) for k, v in init_float_params(net, seed=3).items()}
    pixels, labels = synth_digits(BATCH, seed=3)
    images = encode_fixed(pixels.astype(np.float64) / 256.0, PARAMS)
    images = images.reshape((BATCH,) + tuple(net.input_shape))
    onehot = np.eye(net.classes)[labels]

    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=3)
        state = nn.share_weights(sess, net, raws)
        r0 = sess.meter.rounds
        x = share_secret(images, PARAMS.L, sess.shared_rng)[sess.party.index - 1]
        logits = nn.forward(sess, state, x)
        if train:
            delta = nn.loss_grad_approx(sess, logits, onehot, scale_shift=2)
            nn.sgd_step(sess, state, nn.backward(sess, state, delta), 8)
        else:
            open_share(sess, logits)
        return sess.meter.rounds - r0

    rounds = run_three_parties(job, PARAMS, threat=threat, session_seed=3)
    assert len(set(rounds)) == 1
    return rounds[0]


@pytest.mark.parametrize("make_net, threat, train, want", [
    (network_c, ThreatModel.SEMI_HONEST, False, 72),
    (network_b, ThreatModel.MALICIOUS, False, 25),
    (network_a, ThreatModel.MALICIOUS, True, 122),
], ids=["infer-c", "infer-b-mal", "train-a-mal"])
def test_online_rounds_are_exact(make_net, threat, train, want):
    assert online_rounds(make_net, threat, train) == want
