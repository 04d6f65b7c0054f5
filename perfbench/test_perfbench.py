"""Tests of the benchmark's own machinery (tracer, replay, output gate, cluster).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import runtime  # noqa: E402
from falcon import oracle  # noqa: E402
from falcon.prep import TruncPair  # noqa: E402
from falcon.rss import RssShare  # noqa: E402
from falcon.session import ThreatModel  # noqa: E402
from runtime import Cluster, ReplayPrep, RequestFailed  # noqa: E402
from tracing import RequestSpans, Tracer, root_sums  # noqa: E402
from workloads import PARAMS, WORKLOADS, Inputs, logits_match, weights_match  # noqa: E402

TINY_TRAIN = replace(WORKLOADS["train-a-mal"], name="tiny-train", batch=4)
TINY_INFER = replace(WORKLOADS["infer-b-tcp-dist"], name="tiny-infer", net="network-a",
                     batch=2, threat=ThreatModel.SEMI_HONEST, backend="memory")


def _falcon_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "falcon" or name.startswith("falcon.")]


def test_tracer_patches_every_binding():
    from falcon import cli, nn, numeric, prep, protocols, rings, rss, session  # noqa: F401

    before = {id(v): v for m in _falcon_modules() for v in vars(m).values() if callable(v)}
    tracer = Tracer()
    tracer.install()
    try:
        originals = [orig for _, _, orig in tracer._patched]
        assert originals
        # names imported by value into other modules follow the wrapper
        assert nn.matmul is protocols.matmul and nn.matmul.__wrapped__ is not None
        assert numeric.mult is protocols.mult
        assert numeric.truncate is protocols.truncate
        assert nn.open_share is session.open_share is protocols.reconstruct
        assert rss.add_mod is rings.add_mod and session.add_mod is rings.add_mod
        assert prep.share_secret is rss.share_secret
        # no falcon module keeps a binding to any wrapped original
        for mod in _falcon_modules():
            for key, val in vars(mod).items():
                assert not any(val is o for o in originals), f"{mod.__name__}.{key} unpatched"
        for owner, attr, orig in tracer._patched:
            assert getattr(owner, attr).__wrapped__ is orig
    finally:
        tracer.uninstall()
    after = {id(v): v for m in _falcon_modules() for v in vars(m).values() if callable(v)}
    assert before.keys() == after.keys()


@pytest.mark.parametrize("wl", [TINY_TRAIN, TINY_INFER], ids=lambda w: w.name)
def test_root_spans_sum_to_meter(wl):
    inputs = Inputs(wl, seed=5)
    tracer = Tracer()
    cluster = Cluster(inputs, tracer)
    try:
        warm = cluster.payload(1)
        cluster.call("learn", 1, warm)
        tracer.install()
        payload = cluster.payload(2)
        off = cluster.call("offline", 2, payload)
        on = cluster.call("online", 2, payload)
        weights = cluster.call("open_params")[0] if wl.train else None
    finally:
        cluster.close()
        tracer.uninstall()
    assert not cluster._thread.is_alive()
    for party in (1, 2, 3):
        rs = RequestSpans([s for s in tracer.spans if s.request == 2 and s.party == party])
        meter = {k: off[party - 1][k] + on[party - 1][k] for k in ("rounds", "messages", "wire_bytes")}
        assert meter["rounds"] > 0
        assert root_sums(rs) == meter
        names = {s.name for s in rs.spans}
        assert {"nn.fc.fwd", "protocols.matmul", "transport.send", "rings.zl_arith"} <= names
    if wl.train:
        assert weights_match(inputs, cluster.schedule.iterations, weights)
    else:
        assert "prep.bit_inject" in names
        assert logits_match(inputs, payload, on[0]["output"])


def test_gate_rejects_one_flipped_bit():
    inputs = Inputs(TINY_INFER, seed=5)
    images = inputs.inference_batch(1)
    logits = oracle.fx_forward(inputs.net, inputs.raw_params, images, PARAMS)
    assert logits_match(inputs, images, logits)
    bad = logits.copy()
    bad[1, 3] ^= np.uint64(1)
    assert not logits_match(inputs, images, bad)

    train = Inputs(TINY_TRAIN, seed=5)
    twin = oracle.fx_train_loop(train.net, train.raw_params, train.images, train.labels,
                                iters=2, batch=TINY_TRAIN.batch, batch_seed=train.batch_seed,
                                params=PARAMS)
    assert weights_match(train, 2, twin)
    twin["2.w"][0, 0] ^= np.uint64(1 << 7)
    assert not weights_match(train, 2, twin)


def test_replay_checks_every_take():
    share = RssShare(np.zeros(4), np.zeros(4), PARAMS.L)
    records = {"trunc": [TruncPair(share, share, 13)] * 4, "compare": [], "wrap": [], "bitpair": []}
    replay = ReplayPrep(records)
    replay.trunc_pairs(4, 13)
    with pytest.raises(RuntimeError):
        replay.trunc_pairs(4, 12)
    with pytest.raises(RuntimeError):
        replay.trunc_pairs(5, 13)
    assert not replay.exhausted()


def test_port_clash_fails_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(runtime, "TRANSPORT_TIMEOUT", 2.0)
    taken = socket.socket()
    taken.bind(("127.0.0.1", 0))
    taken.listen(4)
    port = taken.getsockname()[1]
    real = runtime.free_loopback_addresses

    def clashing():
        addresses = real()
        addresses[3] = ("127.0.0.1", port)
        return addresses

    monkeypatch.setattr(runtime, "free_loopback_addresses", clashing)
    t0 = time.monotonic()
    try:
        with pytest.raises(RequestFailed):
            Cluster(Inputs(replace(TINY_INFER, backend="tcp"), seed=5))
    finally:
        taken.close()
    assert time.monotonic() - t0 < 30


def test_silent_peer_fails_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(runtime, "TRANSPORT_TIMEOUT", 2.0)
    real_learn = runtime._PartyState.learn
    release = threading.Event()

    def learn(self, request, payload):
        if self.sess.party.index == 3:
            release.wait(30.0)  # never sends; peers must give up on their own
            raise RuntimeError("silent peer released")
        return real_learn(self, request, payload)

    monkeypatch.setattr(runtime._PartyState, "learn", learn)
    cluster = Cluster(Inputs(TINY_INFER, seed=5))
    t0 = time.monotonic()
    with pytest.raises(RequestFailed, match="TransportTimeout"):
        cluster.call("learn", 1, cluster.payload(1))
    assert time.monotonic() - t0 < 10
    release.set()
    cluster.close()
    assert not cluster._thread.is_alive()
