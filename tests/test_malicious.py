"""Malicious-with-abort behavior: tampering detection, desync, handshake."""

import re
import threading

import numpy as np
import pytest

from falcon import protocols as P
from falcon.prep import DealerPrep
from falcon.rings import RingParams, add_mod, encode_fixed
from falcon.rss import deserialize_elems, share_secret, wire_nbytes
from falcon.session import AbortError, ThreatModel, run_three_parties
from falcon.transport import ChannelClosed, DesyncError, FaultInjector, Message

from test_protocols import shared_input

PARAMS = RingParams(ell=32, fp=13)


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
                if len(payload) != wire_nbytes(PARAMS.L, PARAMS.ell, z.lo.size):
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


class _WriteModulus:
    """Overwrites the first element of the first delivered payload with p."""

    def __init__(self):
        self.fired = False
        self._lock = threading.Lock()

    def apply(self, payload: bytes) -> bytes:
        with self._lock:
            if self.fired:
                return payload
            self.fired = True
        return bytes([PARAMS.p]) + payload[1:]


@pytest.mark.parametrize("threat, error", [(ThreatModel.SEMI_HONEST, DesyncError),
                                           (ThreatModel.MALICIOUS, AbortError)],
                         ids=["semi-honest", "malicious"])
def test_out_of_range_element_is_refused_naming_round_and_sender(threat, error):
    # every sender reduces what it serializes, so a Z_p element equal to p is
    # a malformed payload; reducing it to 0 would hide the fault
    vals = np.arange(16, dtype=np.uint64) % PARAMS.p

    def job(sess):
        x, y = (share_secret(vals, PARAMS.p, sess.shared_rng)[sess.party.index - 1]
                for _ in range(2))
        return P.reconstruct(sess, P.mult(sess, x, y))

    fault = _WriteModulus()
    with pytest.raises(error, match=r"round 1 \(mult\): P(\d) sent P(\d) element 37,") as info:
        run_three_parties(job, PARAMS, threat=threat, session_seed=3, fault=fault)
    assert fault.fired
    sender, receiver = map(int, re.search(r"P(\d) sent P(\d)", str(info.value)).groups())
    assert sender == receiver % 3 + 1  # a reshare piece comes from the next party


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


def test_tampered_compare_round_aborts_its_receiver():
    """A relu opens the compare's d and the selection's e in one round, one
    message per opening on each link. Tampering any of the twelve makes its
    receiver abort in that round, so it opens neither e nor an output."""
    lg = int(np.log2(PARAMS.ell))
    vals = encode_fixed(np.linspace(-2, 2, 16), PARAMS)

    def make_job(target):
        # target = (receiver, sender, k): flip the first payload byte of the
        # k-th message the receiver gets from that sender in the merged round
        def job(sess):
            sess.prep = DealerPrep(sess.party, PARAMS, seed=5)
            a = shared_input(sess, vals, PARAMS.L)
            merged = sess.round_no + lg + 2  # wrap's r-open, lg tree levels, d
            seen = {}
            recv = sess.links.recv

            def tap(frm, timeout):
                msg = recv(frm, timeout)
                if msg.round_tag == merged:
                    seen[frm] = k = seen.get(frm, -1) + 1
                    if target == (sess.party.index, frm, k):
                        payload = bytes([msg.payload[0] ^ 1]) + msg.payload[1:]
                        msg = Message(msg.session_id, msg.round_tag, msg.sender, msg.receiver, payload)
                return msg

            sess.links.recv = tap
            try:
                return "output", P.reconstruct(sess, P.relu(sess, a)), seen
            except AbortError:
                sess.links.close()  # the peers stop at their next receive
                return "abort", sess.round_no == merged, seen
            except ChannelClosed:
                return "closed", None, seen

        return job

    clean = run_three_parties(make_job(None), PARAMS, threat=ThreatModel.MALICIOUS, session_seed=5)
    for index, (kind, _, seen) in enumerate(clean, start=1):
        assert kind == "output"
        assert seen == {q: 1 for q in (1, 2, 3) if q != index}  # d's and e's message per peer
    for receiver in (1, 2, 3):
        for sender in (q for q in (1, 2, 3) if q != receiver):
            for k in (0, 1):
                out = run_three_parties(make_job((receiver, sender, k)), PARAMS,
                                        threat=ThreatModel.MALICIOUS, session_seed=5)
                kind, in_round, _ = out[receiver - 1]
                assert kind == "abort" and in_round, \
                    f"P{receiver} did not abort in the merged round after message {k} from P{sender}"
                assert all(o[0] != "output" for o in out)


def test_handshake_rejects_config_mismatch():
    from falcon.session import ConfigMismatchError

    def job(sess):
        blob = b"ring=32" if sess.party.index != 2 else b"ring=64"
        sess.handshake(blob)

    with pytest.raises(ConfigMismatchError):
        run_three_parties(job, PARAMS, session_seed=1)


def test_handshake_binds_the_wire_format(monkeypatch):
    """A peer that encodes payloads differently fails at set-up, not mid-run."""
    from falcon import session
    from falcon.session import ConfigMismatchError

    own = session.WIRE_FORMAT
    p2_sent = threading.Event()

    def job(sess):
        if sess.party.index == 2:
            # P2 digests its config under another format; the others only
            # start once P2 has sent, under the real one
            send = sess.links.send

            def send_then_restore(msg):
                send(msg)
                monkeypatch.setattr(session, "WIRE_FORMAT", own)
                p2_sent.set()

            sess.links.send = send_then_restore
            monkeypatch.setattr(session, "WIRE_FORMAT", b"bytes-0")
        else:
            assert p2_sent.wait(10)
        sess.handshake(b"ring=32,fp=13,threat=semi")

    with pytest.raises(ConfigMismatchError):
        run_three_parties(job, PARAMS, session_seed=1)
    assert session.WIRE_FORMAT == own


def test_handshake_accepts_matching_config():
    def job(sess):
        sess.handshake(b"ring=32,fp=13,threat=malicious")
        return True

    assert all(run_three_parties(job, PARAMS, session_seed=1))
