"""Malicious-with-abort behavior: tampering detection, desync, handshake."""

import functools
import re
import threading

import numpy as np
import pytest

from falcon import protocols as P
from falcon.prep import DealerPrep
from falcon.rings import RingParams, add_mod, encode_fixed
from falcon.rss import deserialize_elems, share_secret, wire_nbytes
from falcon.session import (DIGEST_BYTES, OPEN_HASH_BYTES, AbortError, ThreatModel, open_share,
                            run_three_parties)
from falcon.transport import ChannelClosed, DesyncError, Message

from tamper import Deviation, RecvTamper
from test_protocols import shared_input
from test_transport import _free_port

PARAMS = RingParams(ell=32, fp=13)


def _job_mult_chain(sess):
    sess.prep = DealerPrep(sess.party, PARAMS, seed=3)
    x = shared_input(sess, np.arange(1, 9, dtype=np.uint64), PARAMS.L)
    y = shared_input(sess, np.arange(11, 19, dtype=np.uint64), PARAMS.L)
    z = P.mult(sess, x, y)
    z = P.mult(sess, z, y)
    return open_share(sess, z)


def _count_messages(threat):
    counts = {}

    def job(sess):
        out = _job_mult_chain(sess)
        counts[sess.party.index] = sess.meter.messages
        return out

    run_three_parties(job, PARAMS, threat=threat, session_seed=3)
    return sum(counts.values())


def _flip_sweep(indices, backend: str = "memory"):
    hits = 0
    for msg_idx in indices:
        tamper = RecvTamper(msg_idx)
        addresses = {i: ("127.0.0.1", _free_port()) for i in (1, 2, 3)} if backend == "tcp" else None
        try:
            run_three_parties(
                tamper.wrap(_job_mult_chain), PARAMS, threat=ThreatModel.MALICIOUS,
                session_seed=3, backend=backend, addresses=addresses,
            )
            triggered = False
        except AbortError:
            triggered = True
        if tamper.fired:
            hits += 1
            assert triggered, f"tampered message {msg_idx} escaped detection"
    return hits


def test_malicious_reconstruct_detects_flip():
    assert _flip_sweep(range(_count_messages(ThreatModel.MALICIOUS))) > 0


def test_malicious_reconstruct_detects_flip_over_tcp():
    # the tamper wraps the session's links, so it reaches TcpLinks as well
    assert _flip_sweep((0, 3, 6, 9), backend="tcp") == 4


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
            views.append((z, list(received), open_share(sess, z)))
        return views

    for views in run_three_parties(job, PARAMS, threat=ThreatModel.MALICIOUS, session_seed=4):
        for z, payloads, product in views:
            own = add_mod(z.lo, z.hi, PARAMS.L)
            checked = 0
            for payload in payloads:
                # a piece is the round's Z_L payload before its link digest
                body = payload[:-DIGEST_BYTES]
                if len(body) != wire_nbytes(PARAMS.L, PARAMS.ell, z.lo.size):
                    continue
                piece = deserialize_elems(body, PARAMS.L, PARAMS.ell, z.shape)
                assert not np.array_equal(add_mod(own, piece, PARAMS.L), product)
                checked += 1
            assert checked, "no reshare piece of the round was checked"


def _mult_chain_outcome(sess):
    try:
        return "output", _job_mult_chain(sess)
    except AbortError:
        sess.links.close()  # the peers stop at their next receive
        return "abort", None
    except ChannelClosed:
        sess.links.close()  # a peer that waits on this party stops too
        return "closed", None


def _tampered_mult_chains(deliveries, backend: str = "memory"):
    """Whichever delivery is tampered, its receiver aborts, and no party
    opens a value other than the clean run's."""
    clean = run_three_parties(_job_mult_chain, PARAMS, threat=ThreatModel.MALICIOUS,
                              session_seed=3)
    for msg_idx in deliveries:
        tamper = RecvTamper(msg_idx)
        addresses = {i: ("127.0.0.1", _free_port()) for i in (1, 2, 3)} if backend == "tcp" else None
        out = run_three_parties(tamper.wrap(_mult_chain_outcome), PARAMS,
                                threat=ThreatModel.MALICIOUS, session_seed=3, backend=backend,
                                addresses=addresses, timeout=10.0)
        assert tamper.fired
        assert out[tamper.victim - 1][0] == "abort", \
            f"P{tamper.victim} did not abort after message {msg_idx} was tampered: {out}"
        for index, (kind, value) in enumerate(out, start=1):
            assert kind != "output" or np.array_equal(value, clean[index - 1]), \
                f"P{index} opened a wrong value after message {msg_idx} was tampered"


def test_party_that_received_tampered_message_aborts():
    """The receiver of a tampered message stops at the next message on that
    link, before the bad piece is multiplied into a consistent sharing of a
    wrong value that an opening would release."""
    _tampered_mult_chains(range(_count_messages(ThreatModel.MALICIOUS)))


def test_party_that_received_tampered_message_aborts_over_tcp():
    _tampered_mult_chains((0, 3, 6, 9), backend="tcp")


def test_semi_honest_flip_gives_wrong_value_no_abort():
    clean = run_three_parties(_job_mult_chain, PARAMS, session_seed=3)
    tamper = RecvTamper(2)
    dirty = run_three_parties(tamper.wrap(_job_mult_chain), PARAMS, session_seed=3)
    assert tamper.fired
    assert not all(np.array_equal(c, d) for c, d in zip(clean, dirty))


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
        return open_share(sess, P.mult(sess, x, y))

    # the first element of the first delivered payload becomes p
    tamper = RecvTamper(0, edit=lambda payload: bytes([PARAMS.p]) + payload[1:])
    with pytest.raises(error, match=r"round 1 \(mult\): P(\d) sent P(\d) element 37,") as info:
        run_three_parties(tamper.wrap(job), PARAMS, threat=threat, session_seed=3)
    assert tamper.fired
    sender, receiver = map(int, re.search(r"P(\d) sent P(\d)", str(info.value)).groups())
    assert sender == receiver % 3 + 1  # a reshare piece comes from the next party


def test_malicious_relu_flip_aborts():
    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=5)
        a = shared_input(sess, encode_fixed(np.linspace(-2, 2, 16), PARAMS), PARAMS.L)
        return open_share(sess, P.relu(sess, a))

    baseline = run_three_parties(job, PARAMS, threat=ThreatModel.MALICIOUS, session_seed=5)
    assert all(np.array_equal(baseline[0], b) for b in baseline)
    for msg_idx in (0, 5, 11, 23):
        tamper = RecvTamper(msg_idx)
        with pytest.raises(AbortError):
            run_three_parties(tamper.wrap(job), PARAMS, threat=ThreatModel.MALICIOUS,
                              session_seed=5)
        assert tamper.fired


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
                return "output", open_share(sess, P.relu(sess, a)), seen
            except AbortError:
                sess.links.close()  # the peers stop at their next receive
                return "abort", sess.round_no == merged, seen
            except ChannelClosed:
                sess.links.close()  # a peer that waits on this party stops too
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


def _job_relu_relu_truncate(sess):
    sess.prep = DealerPrep(sess.party, PARAMS, seed=6)
    a = shared_input(sess, encode_fixed(np.linspace(-2, 2, 16), PARAMS), PARAMS.L)
    return open_share(sess, P.truncate(sess, P.relu(sess, P.relu(sess, a)), 3))


def _job_outcome(sess):
    try:
        return "output", _job_relu_relu_truncate(sess)
    except AbortError:
        sess.links.close()  # the peers stop at their next receive
        return "abort", None
    except ChannelClosed:
        # a peer that still waits on this party must stop too, not time out
        sess.links.close()
        return "closed", None


@functools.cache
def _clean_relu_relu_truncate():
    out = run_three_parties(_job_relu_relu_truncate, PARAMS, threat=ThreatModel.MALICIOUS,
                            session_seed=6)
    assert all(np.array_equal(out[0], o) for o in out)
    return out[0]


def _deviating_run(monkeypatch, corrupt: int, tag: str, kind: str) -> list:
    """The ends of a run in which `corrupt` deviates; no party outputs a
    value other than the clean run's."""
    clean = _clean_relu_relu_truncate()
    deviation = Deviation(corrupt, tag, kind)
    deviation.install(monkeypatch)
    out = run_three_parties(_job_outcome, PARAMS, threat=ThreatModel.MALICIOUS,
                            session_seed=6, timeout=10.0)
    assert deviation.fired
    for index, (kind_of_end, value) in enumerate(out, start=1):
        assert kind_of_end != "output" or np.array_equal(value, clean), f"P{index} output a wrong value"
    return out


@pytest.mark.parametrize("corrupt", [1, 2, 3])
@pytest.mark.parametrize("tag", ["wa-open-r", "pc-open-d", "open"])
@pytest.mark.parametrize("kind", ["add", "stale"])
def test_deviating_party_is_caught_by_its_next_peer(monkeypatch, kind, tag, corrupt):
    """A party that keeps the wire format but sends its next peer a wrong
    component of an opening ("add": off by one; "stale": the one it sent in
    the previous opening of that tag and shape) makes that peer abort."""
    out = _deviating_run(monkeypatch, corrupt, tag, kind)
    assert out[corrupt % 3][0] == "abort", f"P{corrupt % 3 + 1} did not abort: {out}"


@pytest.mark.parametrize("corrupt", [1, 2, 3])
@pytest.mark.parametrize("tag", ["wa-open-r", "pc-open-d", "open"])
def test_deviating_hash_is_caught_by_its_previous_peer(monkeypatch, tag, corrupt):
    """A party that sends its previous peer the hash of a wrong hi makes that
    peer abort: the full copy comes from the component's honest holder."""
    out = _deviating_run(monkeypatch, corrupt, tag, "hash")
    prev = (corrupt - 2) % 3 + 1
    assert out[prev - 1][0] == "abort", f"P{prev} did not abort: {out}"


def _flip_hash_byte(payload: bytes) -> bytes:
    return payload[:5] + bytes([payload[5] ^ 0x01]) + payload[6:]


@pytest.mark.parametrize("backend", ["memory", "tcp"])
def test_flipped_open_hash_aborts_its_receiver(backend):
    # an opening's hash is the one payload of OPEN_HASH_BYTES + DIGEST_BYTES
    # in this job: its Z_L payloads are 32 bytes plus a digest
    tamper = RecvTamper(0, edit=_flip_hash_byte,
                        when=lambda msg: len(msg.payload) == OPEN_HASH_BYTES + DIGEST_BYTES)
    addresses = {i: ("127.0.0.1", _free_port()) for i in (1, 2, 3)} if backend == "tcp" else None
    with pytest.raises(AbortError, match="reconstruction mismatch"):
        run_three_parties(tamper.wrap(_job_mult_chain), PARAMS, threat=ThreatModel.MALICIOUS,
                          session_seed=3, backend=backend, addresses=addresses)
    assert tamper.fired


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
