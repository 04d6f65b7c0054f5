"""Malicious-with-abort behavior: tampering detection, desync, handshake."""

import threading

import numpy as np
import pytest

from falcon import protocols as P
from falcon.prep import DealerPrep
from falcon.rings import RingParams, add_mod, encode_fixed
from falcon.rss import deserialize_elems, elem_width
from falcon.session import AbortError, ThreatModel, run_three_parties
from falcon.transport import FaultInjector

from test_protocols import shared_input

PARAMS = RingParams(ell=32, p=37, fp=13)


def _job_mult_chain(sess):
    sess.prep = DealerPrep(sess.party, PARAMS, seed=3)
    x = shared_input(sess, np.arange(1, 9, dtype=np.uint64), PARAMS.L)
    y = shared_input(sess, np.arange(11, 19, dtype=np.uint64), PARAMS.L)
    z = P.mult(sess, x, y)
    z = P.mult(sess, z, y)
    return P.reconstruct(sess, z)


def _count_messages(threat):
    counts = {}

    def job(sess):
        out = _job_mult_chain(sess)
        counts[sess.party.index] = sess.meter.messages
        return out

    run_three_parties(job, PARAMS, threat=threat, session_seed=3)
    return sum(counts.values())


def test_malicious_reconstruct_detects_flip():
    total = _count_messages(ThreatModel.MALICIOUS)
    hits = 0
    for msg_idx in range(total):
        fault = FaultInjector(msg_idx)
        try:
            run_three_parties(
                _job_mult_chain, PARAMS, threat=ThreatModel.MALICIOUS,
                session_seed=3, fault=fault,
            )
            triggered = False
        except AbortError:
            triggered = True
        if fault.fired:
            hits += 1
            assert triggered, f"tampered message {msg_idx} escaped detection"
    assert hits > 0


def test_malicious_products_stay_hidden_from_each_party():
    """No party's lo + hi + any Z_L payload it received in a mult or matmul
    round adds up to the product: a reshare piece reaches one party only."""
    rng = np.random.default_rng(4)
    xs, ys = (rng.integers(0, PARAMS.L, 16, dtype=np.uint64) for _ in range(2))
    xm, ym = (rng.integers(0, PARAMS.L, (4, 4), dtype=np.uint64) for _ in range(2))

    def job(sess):
        received = []
        recv = sess.links.recv

        def tap(frm, timeout):
            msg = recv(frm, timeout)
            received.append(msg.payload)
            return msg

        sess.links.recv = tap
        views = []
        for op, a, b in ((P.mult, xs, ys), (P.matmul, xm, ym)):
            x, y = shared_input(sess, a, PARAMS.L), shared_input(sess, b, PARAMS.L)
            del received[:]
            z = op(sess, x, y)
            views.append((z, list(received), P.reconstruct(sess, z)))
        return views

    for views in run_three_parties(job, PARAMS, threat=ThreatModel.MALICIOUS, session_seed=4):
        for z, payloads, product in views:
            assert payloads
            own = add_mod(z.lo, z.hi, PARAMS.L)
            for payload in payloads:
                if len(payload) != z.lo.size * elem_width(PARAMS.L, PARAMS.ell):
                    continue
                piece = deserialize_elems(payload, PARAMS.L, PARAMS.ell, z.shape)
                assert not np.array_equal(add_mod(own, piece, PARAMS.L), product)


class _VictimFault(FaultInjector):
    """Also records which party thread received the tampered payload."""

    victim_thread = None

    def apply(self, payload: bytes) -> bytes:
        out = super().apply(payload)
        if out is not payload:
            self.victim_thread = threading.get_ident()
        return out


def test_party_that_received_tampered_message_aborts():
    """Whichever message is tampered, its receiver stops at the next opening
    instead of opening a value built on it."""
    parties = {}

    def job(sess):
        parties[threading.get_ident()] = sess.party.index
        try:
            return _job_mult_chain(sess)
        except AbortError:
            return None

    for msg_idx in range(_count_messages(ThreatModel.MALICIOUS)):
        fault = _VictimFault(msg_idx)
        out = run_three_parties(job, PARAMS, threat=ThreatModel.MALICIOUS,
                                session_seed=3, fault=fault)
        victim = parties[fault.victim_thread]
        assert out[victim - 1] is None, f"P{victim} opened a value after message {msg_idx} was tampered"


def test_semi_honest_flip_gives_wrong_value_no_abort():
    clean = run_three_parties(_job_mult_chain, PARAMS, session_seed=3)
    fault = FaultInjector(2)
    dirty = run_three_parties(_job_mult_chain, PARAMS, session_seed=3, fault=fault)
    assert fault.fired
    assert not all(np.array_equal(c, d) for c, d in zip(clean, dirty))


def test_malicious_relu_flip_aborts():
    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=5)
        a = shared_input(sess, encode_fixed(np.linspace(-2, 2, 16), PARAMS), PARAMS.L)
        return P.reconstruct(sess, P.relu(sess, a))

    baseline = run_three_parties(job, PARAMS, threat=ThreatModel.MALICIOUS, session_seed=5)
    assert all(np.array_equal(baseline[0], b) for b in baseline)
    for msg_idx in (0, 5, 11, 23):
        fault = FaultInjector(msg_idx)
        with pytest.raises(AbortError):
            run_three_parties(job, PARAMS, threat=ThreatModel.MALICIOUS,
                              session_seed=5, fault=fault)
        assert fault.fired


def test_handshake_rejects_config_mismatch():
    from falcon.session import ConfigMismatchError

    def job(sess):
        blob = b"ring=32" if sess.party.index != 2 else b"ring=64"
        sess.handshake(blob)

    with pytest.raises(ConfigMismatchError):
        run_three_parties(job, PARAMS, session_seed=1)


def test_handshake_accepts_matching_config():
    def job(sess):
        sess.handshake(b"ring=32,fp=13,threat=malicious")
        return True

    assert all(run_three_parties(job, PARAMS, session_seed=1))
