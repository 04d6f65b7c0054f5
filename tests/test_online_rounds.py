"""Exact online counts of one request of each benchmark shape.

One batch of 2 runs network-c inference (semi-honest), network-b inference
and one network-a SGD step (both malicious), each net with relu and maxpool
swapped as the benchmark runs it. Each DReLU that steers anything is lifted
to Z_L with its bit opened in the round that opens the compare's d, so every
relu, its backward and the loss's two fallback selections are one
multiplication each. A DReLU takes 2 + log2(ell) rounds: the private
compare multiplies ell factors. The loss's divide finds its bounding power
with one DReLU over ell - 1 thresholds per divisor. Inference rounds do not
depend on the batch, so 65 and 23 are also the benchmark's counts at batch
16. One rescale of the SGD step has a data-dependent public shift: divide
reads the loss's divisor at x in [0.5, 1), which is a local left shift for
both samples here and a truncation round for some sample of the
benchmark's batch of 32 (76 rounds).

Each shape pins party 1's rounds, messages, wire bytes and cost-model
bits; all three parties must agree on every count. The private compare
inside each DReLU takes its blinded bits from preprocessing, so the round
that opens the wrap protocol's r carries nothing else. The network-b
request is also pinned under DistributedPrep: the counts of its
preprocessing calls (the benchmark's offline phase) and an online phase
equal to the dealer's.
"""

import numpy as np
import pytest

from falcon import nn
from falcon.data import synth_digits
from falcon.nets import network_a, network_b, network_c
from falcon.netspec import init_float_params
from falcon.prep import DealerPrep, DistributedPrep
from falcon.rings import RingParams, encode_fixed
from falcon.rss import share_secret
from falcon.session import ThreatModel, open_share, run_three_parties

PARAMS = RingParams()
BATCH = 2


class _Metered:
    """Forwards prep calls to `inner`, summing the meter's counts inside them."""

    def __init__(self, inner, meter):
        self.inner, self.meter = inner, meter
        self.counts = (0, 0, 0, 0)

    def __getattr__(self, kind):
        fn = getattr(self.inner, kind)

        def call(*args):
            before = _snapshot(self.meter)
            try:
                return fn(*args)
            finally:
                self.counts = tuple(c + b - a for c, a, b in
                                    zip(self.counts, before, _snapshot(self.meter)))

        return call


def _snapshot(m) -> tuple:
    return (m.rounds, m.messages, m.wire_bytes, m.acct_bits)


def request_counts(make_net, threat: ThreatModel, train: bool, distributed: bool = False) -> tuple:
    """(online, offline) counts of one request; offline is what the prep
    calls cost, all zero under the dealer."""
    net = make_net().swap_relu_maxpool()
    raws = {k: encode_fixed(v, PARAMS) for k, v in init_float_params(net, seed=3).items()}
    pixels, labels = synth_digits(BATCH, seed=3)
    images = encode_fixed(pixels.astype(np.float64) / 256.0, PARAMS)
    images = images.reshape((BATCH,) + tuple(net.input_shape))
    onehot = np.eye(net.classes)[labels]

    def job(sess):
        source = DistributedPrep(sess) if distributed else DealerPrep(sess.party, PARAMS, seed=3)
        sess.prep = _Metered(source, sess.meter)
        state = nn.share_weights(sess, net, raws)
        c0 = _snapshot(sess.meter)
        x = share_secret(images, PARAMS.L, sess.shared_rng)[sess.party.index - 1]
        logits = nn.forward(sess, state, x)
        if train:
            delta = nn.loss_grad_approx(sess, logits, onehot, scale_shift=2)
            nn.sgd_step(sess, state, nn.backward(sess, state, delta), 8)
        else:
            open_share(sess, logits)
        total = (b - a for a, b in zip(c0, _snapshot(sess.meter)))
        return tuple(t - o for t, o in zip(total, sess.prep.counts)), sess.prep.counts

    counts = run_three_parties(job, PARAMS, threat=threat, session_seed=3)
    assert len(set(counts)) == 1
    return counts[0]


# (rounds, messages, wire bytes, cost-model bits); each private-compare
# element reshares ell - 1 Z_p products in its tree (6 packed wire bits and
# 1 cost-model bit each at party 1), over 20,680 compare elements on
# infer-c, 2,160 on infer-b-mal and 596 on train-a-mal (the loss's two
# divisors each probe ell - 1 thresholds); a payload of n Z_p elements is
# 6 * ceil(n / 8) bytes and one of Z_2 bits ceil(n / 8)
@pytest.mark.parametrize("make_net, threat, train, want", [
    (network_c, ThreatModel.SEMI_HONEST, False, (65, 72, 831_465, 3_331_400)),
    (network_b, ThreatModel.MALICIOUS, False, (23, 35, 107_100, 493_520)),
    (network_a, ThreatModel.MALICIOUS, True, (75, 113, 2_421_108, 19_247_932)),
], ids=["infer-c", "infer-b-mal", "train-a-mal"])
def test_online_rounds_are_exact(make_net, threat, train, want):
    assert request_counts(make_net, threat, train) == (want, (0, 0, 0, 0))


def test_distributed_offline_counts_are_exact():
    # the network-b request of the benchmark's distributed workload: its
    # DistributedPrep material costs these counts, and the online phase
    # costs what it costs under the dealer. Each of its two wrap_rands calls
    # (2,160 elements in all) takes 2 + ceil(log2 31) = 7 adder rounds, and
    # each element 120 prefix ANDs (test_prep.prefix_ands)
    online, offline = request_counts(network_b, ThreatModel.MALICIOUS, False, distributed=True)
    assert online == (23, 35, 107_100, 493_520)
    assert offline == (44, 46, 557_866, 3_279_888)
