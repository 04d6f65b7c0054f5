"""Private inference end to end: pretrain in float, classify under sharing.

A small fully-connected digit classifier is trained in the clear, its
weights quantized and shared, and a batch of test images classified
without any party seeing images, weights or logits. The plaintext float
engine scores the same inputs for the agreement report.
"""

import numpy as np

from falcon import nn
from falcon import oracle as O
from falcon.data import synth_digits
from falcon.nets import network_a
from falcon.prep import DealerPrep
from falcon.rings import RingParams, decode_fixed, encode_fixed
from falcon.rss import share_secret
from falcon.session import open_share, run_three_parties

params = RingParams(ell=32, fp=13)
COUNT = 50

if __name__ == "__main__":
    img, lab = synth_digits(3000, seed=7)
    x = img.astype(np.float64).reshape(-1, 784) / 256.0
    net = network_a()

    print("pretraining the float reference model ...")
    from falcon.netspec import init_float_params

    fparams = O.float_train(net, init_float_params(net, seed=1), x[:2500], lab[:2500],
                            iters=300, batch=32, lr=0.3, seed=2)
    fparams = O.calibrate_float_params(net, fparams, x[2500:2700])
    print(f"float accuracy: {O.float_accuracy(net, fparams, x[2500:], lab[2500:]):.3f}")

    test = encode_fixed(x[2500 : 2500 + COUNT], params)

    def job(sess):
        sess.prep = DealerPrep(sess.party, params, seed=4)
        state = nn.init_state(sess, net, fparams)
        xb = share_secret(test, params.L, sess.shared_rng)[sess.party.index - 1]
        return open_share(sess, nn.forward(sess, state, xb))

    logits = decode_fixed(run_three_parties(job, params, session_seed=21)[0], params)
    ref = O.float_forward(net, fparams, x[2500 : 2500 + COUNT])
    agree = (logits.argmax(1) == ref.argmax(1)).sum()
    rel = np.linalg.norm(logits - ref, axis=1) / np.linalg.norm(ref, axis=1)
    acc = (logits.argmax(1) == lab[2500 : 2500 + COUNT]).mean()
    print(f"secure vs float agreement: {agree}/{COUNT}")
    print(f"mean relative logit error: {rel.mean():.4%}")
    print(f"secure accuracy on the slice: {acc:.2f}")
