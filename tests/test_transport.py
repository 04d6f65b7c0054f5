"""Framing, metering, desync, timeouts, and memory/TCP backend transparency."""

import ctypes
import hashlib
import os
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from falcon import protocols as P
from falcon.prep import DealerPrep
from falcon.rings import RingParams
from falcon.session import (DIGEST_BYTES, AbortError, Round, ThreatModel, open_share,
                            run_three_parties)
from falcon.transport import (
    HEADER,
    HEADER_BYTES,
    DesyncError,
    Message,
    MemoryHub,
    TcpLinks,
    TransportTimeout,
)
from falcon.rss import serialize_elems, share_secret

PARAMS = RingParams(ell=32, fp=13)


def _trailer(threat) -> bytes:
    """What a hand-built first frame on a link ends with: nothing, or in the
    malicious model the sender's link digest of an empty history."""
    if threat is ThreatModel.MALICIOUS:
        return hashlib.blake2b(digest_size=DIGEST_BYTES).digest()
    return b""


def test_message_roundtrip():
    msg = Message(7, 3, 1, 2, b"hello")
    blob = msg.encode()
    assert len(blob) == HEADER_BYTES + 5
    back = Message.decode(blob[:HEADER_BYTES], blob[HEADER_BYTES:])
    assert back == msg


def test_send_to_self_rejected():
    hub = MemoryHub()
    links = hub.links(1)
    with pytest.raises(ValueError):
        links.send(Message(0, 0, 1, 1, b"x"))


def test_meter_counts_header_and_payload():
    def job(sess):
        before = sess.meter.wire_bytes
        rnd = Round(sess, "t")
        rnd.send_raw(sess.party.next.index, b"1234")
        rnd.expect_raw(sess.party.prev.index, 4)
        rnd.run()
        return sess.meter.wire_bytes - before, sess.meter.rounds

    out = run_three_parties(job, PARAMS, session_seed=0)
    assert all(o[0] == HEADER_BYTES + 4 for o in out)
    assert all(o[1] == 1 for o in out)


def test_meter_many_sends():
    n = 1000

    def job(sess):
        before = sess.meter.wire_bytes
        for _ in range(10):
            rnd = Round(sess, "t")
            for _ in range(100):
                rnd.send_raw(sess.party.next.index, b"abcdef")
            for _ in range(100):
                rnd.expect_raw(sess.party.prev.index, 6)
            rnd.run()
        return sess.meter.wire_bytes - before

    out = run_three_parties(job, PARAMS, session_seed=0)
    assert out[0] == n * (HEADER_BYTES + 6)


def test_round_tag_mismatch_raises_desync():
    def job(sess):
        if sess.party.index == 1:
            Round(sess, "skipped")  # advances the local round counter only
        rnd = Round(sess, "t")
        rnd.send_raw(sess.party.next.index, b"x")
        rnd.send_raw(sess.party.prev.index, b"x")
        rnd.expect_raw(sess.party.prev.index, 1)
        rnd.expect_raw(sess.party.next.index, 1)
        rnd.run()

    with pytest.raises(DesyncError):
        run_three_parties(job, PARAMS, session_seed=0)


@pytest.mark.parametrize("threat,error", [(ThreatModel.SEMI_HONEST, DesyncError),
                                          (ThreatModel.MALICIOUS, AbortError)])
@pytest.mark.parametrize("frame", ["short_payload", "wrong_session"])
def test_malformed_frame_is_rejected(threat, error, frame):
    # P2 expects four Z_L elements from P1; P1 sends a bad frame instead
    trailer = _trailer(threat)

    def job(sess):
        rnd = Round(sess, "t")
        if sess.party.index == 1:
            body = serialize_elems(np.arange(4), PARAMS.L, PARAMS.ell)
            if frame == "short_payload":
                sess.links.send(Message(sess.session_id, rnd.no, 1, 2, body[:3] + trailer))
            else:
                sess.links.send(Message(sess.session_id + 1, rnd.no, 1, 2, body + trailer))
        if sess.party.index == 2:
            rnd.expect_elems(1, PARAMS.L, (4,))
        rnd.run()

    refused = (f"bytes {3 + len(trailer)} (expected {16 + len(trailer)})"
               if frame == "short_payload" else "session 1 (expected 0)")
    with pytest.raises(error, match=r"round 1 \(t\): the frame from P1 to P2 has "
                       + re.escape(refused) + "$"):
        run_three_parties(job, PARAMS, threat=threat, session_seed=0)


@pytest.mark.parametrize("threat,error", [(ThreatModel.SEMI_HONEST, DesyncError),
                                          (ThreatModel.MALICIOUS, AbortError)])
@pytest.mark.parametrize("fault", ["digit_past_p", "padding_bit"])
def test_packed_frame_of_the_right_length_is_refused(threat, error, fault):
    # P3 expects 13 Z_p elements from P2, packed into 12 bytes; P2 sends a
    # frame of that length holding the digit p + 3, or a set padding bit
    # (the last byte's top bit is the last slot's, past the 13th element)
    vals = np.arange(13, dtype=np.uint8)

    def job(sess):
        rnd = Round(sess, "t")
        if sess.party.index == 2:
            if fault == "digit_past_p":
                vals[6] = PARAMS.p + 3
            body = bytearray(serialize_elems(vals, PARAMS.p, PARAMS.ell))
            if fault == "padding_bit":
                body[-1] |= 0x80
            sess.links.send(Message(sess.session_id, rnd.no, 2, 3, bytes(body) + _trailer(threat)))
        if sess.party.index == 3:
            rnd.expect_elems(2, PARAMS.p, (13,))
        rnd.run()

    detail = f"element {PARAMS.p + 3}," if fault == "digit_past_p" else "nonzero padding bits"
    with pytest.raises(error, match=r"round 1 \(t\): P2 sent P3 " + re.escape(detail)):
        run_three_parties(job, PARAMS, threat=threat, session_seed=0)


@pytest.mark.parametrize("threat,error", [(ThreatModel.SEMI_HONEST, DesyncError),
                                          (ThreatModel.MALICIOUS, AbortError)])
def test_flipped_header_byte_is_refused_over_tcp(monkeypatch, threat, error):
    # P1 flips one header byte of every frame it sends, each byte in turn;
    # the receiving session checks every header field, so each flip ends the
    # run. The length field is not flipped: a larger length waits for bytes
    # that never come
    encode = Message.encode

    def job(sess):
        x = share_secret(np.arange(4, dtype=np.uint64), PARAMS.L,
                         sess.shared_rng)[sess.party.index - 1]
        return open_share(sess, x)

    for pos in range(HEADER.size):
        def flipped(msg, pos=pos):
            blob = encode(msg)
            if msg.sender != 1:
                return blob
            return blob[:pos] + bytes([blob[pos] ^ 0x01]) + blob[pos + 1:]

        monkeypatch.setattr(Message, "encode", flipped)
        addresses = {i: ("127.0.0.1", _free_port()) for i in (1, 2, 3)}
        with pytest.raises(error, match=r"the frame from P1 to P\d has "):
            run_three_parties(job, PARAMS, threat=threat, session_seed=0, backend="tcp",
                              addresses=addresses, timeout=10.0)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


@pytest.mark.parametrize("hello", [b"", b"\x07", b"\x03"], ids=["empty", "out_of_range", "not_lower"])
def test_tcp_bad_hello_raises_desync(hello):
    # P2 listens for P1 only; a dialer that closes at once or names
    # another party must fail the set-up instead of becoming a peer
    addresses = {2: ("127.0.0.1", _free_port()), 3: ("127.0.0.1", _free_port())}
    errors = []

    def listen():
        try:
            TcpLinks(2, addresses, timeout=5.0).close()
        except Exception as exc:  # noqa: BLE001 - inspected below
            errors.append(exc)

    t = threading.Thread(target=listen, daemon=True)
    t.start()
    for _ in range(100):
        try:
            sock = socket.create_connection(addresses[2], timeout=1.0)
            break
        except OSError:
            t.join(0.05)
    sock.sendall(hello)
    sock.close()
    t.join(10.0)
    assert not t.is_alive()
    assert len(errors) == 1 and isinstance(errors[0], DesyncError), errors


def test_tcp_silent_dialer_raises_desync():
    # a dialer that connects but never says hello fails the set-up within
    # the transport timeout instead of blocking the listener forever
    addresses = {2: ("127.0.0.1", _free_port()), 3: ("127.0.0.1", _free_port())}
    errors = []

    def listen():
        try:
            TcpLinks(2, addresses, timeout=1.0).close()
        except Exception as exc:  # noqa: BLE001 - inspected below
            errors.append(exc)

    t = threading.Thread(target=listen, daemon=True)
    t.start()
    for _ in range(100):
        try:
            sock = socket.create_connection(addresses[2], timeout=1.0)
            break
        except OSError:
            t.join(0.05)
    try:
        t.join(5.0)
        assert not t.is_alive()
    finally:
        sock.close()
    assert len(errors) == 1 and isinstance(errors[0], DesyncError), errors


def test_tcp_idle_session_survives():
    # a peer idle for longer than the timeout between rounds is not a
    # closed peer: only a receive that waits too long times out
    def job(sess):
        first = open_share(sess, share_secret(np.arange(4, dtype=np.uint64), PARAMS.L,
                                                 sess.shared_rng)[sess.party.index - 1])
        time.sleep(2.0)
        second = open_share(sess, share_secret(np.arange(4, dtype=np.uint64), PARAMS.L,
                                                  sess.shared_rng)[sess.party.index - 1])
        return first, second

    addresses = {i: ("127.0.0.1", _free_port()) for i in (1, 2, 3)}
    out = run_three_parties(job, PARAMS, session_seed=0, backend="tcp", addresses=addresses,
                            timeout=1.0)
    assert all(np.array_equal(a, np.arange(4)) and np.array_equal(b, np.arange(4)) for a, b in out)


def test_tcp_run_closes_its_links():
    # each party holds two sockets and two reader threads; a finished run
    # leaves none of them behind, and a second close is harmless
    before = set(threading.enumerate())

    def job(sess):
        open_share(sess, share_secret(np.arange(4, dtype=np.uint64), PARAMS.L,
                                         sess.shared_rng)[sess.party.index - 1])
        return sess.links

    for seed in range(3):
        addresses = {i: ("127.0.0.1", _free_port()) for i in (1, 2, 3)}
        links = run_three_parties(job, PARAMS, session_seed=seed, backend="tcp", addresses=addresses)
        assert all(sock.fileno() == -1 for lk in links for sock in lk.socks.values())
        for lk in links:
            lk.close()
    deadline = time.monotonic() + 5.0
    while set(threading.enumerate()) - before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not set(threading.enumerate()) - before


@pytest.mark.parametrize("threat", [ThreatModel.SEMI_HONEST, ThreatModel.MALICIOUS])
@pytest.mark.parametrize("backend", ["memory", "tcp"])
def test_run_raises_the_error_that_stopped_it(backend, threat):
    # P2 fails after one opening while P1 and P3 wait on it in the next: P2
    # closes its links, its peers stop on closed channels (a receive from P2,
    # or a send to it), and the run reports P2's error rather than theirs
    def job(sess):
        x = share_secret(np.arange(4, dtype=np.uint64), PARAMS.L,
                         sess.shared_rng)[sess.party.index - 1]
        open_share(sess, x)
        if sess.party.index == 2:
            raise ValueError("P2 stops")
        open_share(sess, x)

    for seed in range(5):
        addresses = {i: ("127.0.0.1", _free_port()) for i in (1, 2, 3)} if backend == "tcp" else None
        start = time.monotonic()
        with pytest.raises(ValueError, match="P2 stops"):
            run_three_parties(job, PARAMS, threat=threat, session_seed=seed, backend=backend,
                              addresses=addresses, timeout=20.0)
        assert time.monotonic() - start < 2.0


def test_recv_timeout():
    def job(sess):
        if sess.party.index == 2:
            sess.timeout = 0.3
            rnd = Round(sess, "t")
            rnd.expect_raw(1, 1)
            rnd.run()

    with pytest.raises(TransportTimeout):
        run_three_parties(job, PARAMS, session_seed=0, timeout=0.3)


def _relu_transcript(backend, threat, addresses=None):
    """Run a small ReLU and capture every payload received at party 1."""
    captured = {}

    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=5)
        recorded = []
        orig_recv = sess.links.recv

        def tap(frm, timeout):
            msg = orig_recv(frm, timeout)
            recorded.append((msg.sender, msg.round_tag, msg.payload))
            return msg

        sess.links.recv = tap
        x = share_secret(np.arange(32, dtype=np.uint64), PARAMS.L, sess.shared_rng)[
            sess.party.index - 1
        ]
        out = open_share(sess, P.relu(sess, x))
        captured[sess.party.index] = recorded
        return out

    res = run_three_parties(job, PARAMS, threat=threat, session_seed=9, backend=backend,
                            addresses=addresses)
    return res, captured


@pytest.mark.parametrize("threat", [ThreatModel.SEMI_HONEST, ThreatModel.MALICIOUS])
def test_tcp_backend_matches_memory_transcripts(threat):
    mem_out, mem_tr = _relu_transcript("memory", threat)
    addresses = {1: ("127.0.0.1", 29751), 2: ("127.0.0.1", 29752), 3: ("127.0.0.1", 29753)}
    tcp_out, tcp_tr = _relu_transcript("tcp", threat, addresses)
    assert all(np.array_equal(a, b) for a, b in zip(mem_out, tcp_out))
    for party in (1, 2, 3):
        assert mem_tr[party] == tcp_tr[party]


_GLIBC = sys.platform == "linux" and hasattr(ctypes.CDLL(None), "malloc_info")
# a fresh process runs three parties, then glibc's malloc_info lists its arenas
_ARENAS_SCRIPT = """
import ctypes, sys
import numpy as np
from falcon.rings import RingParams
from falcon.session import run_three_parties
run_three_parties(lambda sess: np.ones(10000).sum(), RingParams())
libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
fp = ctypes.c_void_p(libc.fopen(sys.argv[1].encode(), b"w"))
libc.malloc_info(0, fp)
libc.fclose(fp)
"""


@pytest.mark.skipif(not _GLIBC, reason="malloc arenas are glibc's")
def test_party_threads_share_one_malloc_arena(tmp_path):
    # a thread arena keeps what is freed into its top resident through
    # malloc_trim, so the parties allocate from the main arena only
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "malloc_info.xml"
    subprocess.run([sys.executable, "-c", _ARENAS_SCRIPT, str(out)], env=env, check=True,
                   timeout=60)
    assert out.read_text().count("<heap nr=") == 1
