"""The benchmark's workloads: what each request computes, from which inputs,
and how its output is checked against the plaintext fixed-point twin.

Inputs derive only from the workload seed: a synthetic digit pool, He-init
weights, and per-request batches. A request is one secure inference of a
batch (ending when the logits are opened) or one secure SGD iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from falcon import nn, oracle, rss, session
from falcon.data import synth_digits
from falcon.nets import BUILTIN
from falcon.netspec import init_float_params
from falcon.rings import RingParams, encode_fixed
from falcon.session import ThreatModel

PARAMS = RingParams()
POOL = 1024          # synthetic images per run; batches are drawn from it
LR_SHIFT = 8         # nn.train_secure defaults
DELTA_SHIFT = 2


@dataclass(frozen=True)
class Workload:
    name: str
    net: str
    batch: int
    threat: ThreatModel
    backend: str      # "memory" or "tcp"
    prep: str         # "dealer" or "distributed"
    train: bool


# Why each workload was chosen is recorded next to its name in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("infer-c", "network-c", 16, ThreatModel.SEMI_HONEST, "memory", "dealer", False),
    Workload("train-a-mal", "network-a", 32, ThreatModel.MALICIOUS, "memory", "dealer", True),
    Workload("infer-b-tcp-dist", "network-b", 16, ThreatModel.MALICIOUS, "tcp", "distributed",
             False),
)}


class Inputs:
    """Everything a run feeds the system, made from the workload seed."""

    def __init__(self, wl: Workload, seed: int):
        self.wl = wl
        self.seed = seed % (1 << 32)
        self.net = BUILTIN[wl.net]().swap_relu_maxpool()
        pixels, labels = synth_digits(POOL, seed=self.seed)
        raw = encode_fixed(pixels.astype(np.float64) / 256.0, PARAMS)
        self.images = raw.reshape((POOL,) + tuple(self.net.input_shape))
        self.labels = labels.astype(np.int64)
        self.float_params = init_float_params(self.net, self.seed)
        self.raw_params = {k: encode_fixed(v, PARAMS) for k, v in self.float_params.items()}
        self.batch_seed = self.seed + 2024

    def inference_batch(self, request: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, request])
        return self.images[rng.choice(POOL, size=self.wl.batch, replace=False)]


class TrainSchedule:
    """Batch order of one model's SGD run; the twin replays it from batch_seed."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.rng = np.random.default_rng(inputs.batch_seed)
        self.iterations = 0

    def next_batch(self):
        inp = self.inputs
        idx = self.rng.choice(POOL, size=inp.wl.batch, replace=False)
        self.iterations += 1
        return inp.images[idx], np.eye(inp.net.classes)[inp.labels[idx]]


# ---------------------------------------------------------------------------
# party side


def run_request(sess, wl: Workload, state: nn.NetState, payload):
    """One request at one party; returns the opened logits for inference."""
    images = payload[0] if wl.train else payload
    x = rss.share_secret(images, PARAMS.L, sess.shared_rng)[sess.party.index - 1]
    logits = nn.forward(sess, state, x)
    if not wl.train:
        return session.open_share(sess, logits)
    delta = nn.loss_grad_approx(sess, logits, payload[1], scale_shift=DELTA_SHIFT)
    grads = nn.backward(sess, state, delta)
    nn.sgd_step(sess, state, grads, LR_SHIFT)
    return None


# ---------------------------------------------------------------------------
# output gate: bit-identical to the plaintext fixed-point twin


def logits_match(inputs: Inputs, images: np.ndarray, logits: np.ndarray) -> bool:
    want = oracle.fx_forward(inputs.net, inputs.raw_params, images, PARAMS)
    return logits is not None and np.array_equal(want, logits)


def weights_match(inputs: Inputs, iterations: int, weights: dict) -> bool:
    wl = inputs.wl
    twin = oracle.fx_train_loop(inputs.net, inputs.raw_params, inputs.images, inputs.labels,
                                iters=iterations, batch=wl.batch, lr_shift=LR_SHIFT,
                                delta_shift=DELTA_SHIFT, batch_seed=inputs.batch_seed,
                                params=PARAMS)
    return twin.keys() == weights.keys() and all(
        np.array_equal(twin[k], weights[k]) for k in twin
    )
