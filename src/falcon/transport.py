"""Peer-to-peer messaging among the three parties with round/byte metering.

Wire format: 16-byte header (session 8, round 4, sender 1, receiver 1,
reserved 2) + 4-byte little-endian payload length + payload. Payloads are
opaque here; the session packs ring elements into them at their bit width
(rss.serialize_elems). The in-process and TCP backends deliver
byte-identical payload streams for the same seeds.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass

HEADER = struct.Struct("<QIBBH")  # session, round_tag, sender, receiver, reserved
LEN = struct.Struct("<I")
HEADER_BYTES = HEADER.size + LEN.size  # 20


class ChannelClosed(ConnectionError):
    pass


class DesyncError(RuntimeError):
    """Round tags diverged between peers."""


class TransportTimeout(TimeoutError):
    pass


@dataclass
class Message:
    session_id: int
    round_tag: int
    sender: int
    receiver: int
    payload: bytes

    def encode(self) -> bytes:
        return (
            HEADER.pack(self.session_id, self.round_tag, self.sender, self.receiver, 0)
            + LEN.pack(len(self.payload))
            + self.payload
        )

    @staticmethod
    def decode(header: bytes, payload: bytes) -> "Message":
        session_id, round_tag, sender, receiver, _ = HEADER.unpack(header[: HEADER.size])
        return Message(session_id, round_tag, sender, receiver, payload)


@dataclass
class CostMeter:
    """Per-party communication accounting.

    wire_bytes counts actual bytes on the wire (header + packed payload).
    acct_bytes counts ring elements in the analytic cost-model units
    (Z_L elements at ell bits, Z_p/Z_2 elements at one bit); integrity
    metadata such as link digests is excluded from it.
    """

    rounds: int = 0
    wire_bytes: int = 0
    acct_bits: int = 0
    messages: int = 0

    @property
    def acct_bytes(self) -> float:
        return self.acct_bits / 8

    def on_send(self, wire: int, acct_bits: int):
        self.wire_bytes += wire
        self.acct_bits += acct_bits
        self.messages += 1

    def on_round(self):
        self.rounds += 1

    def snapshot(self) -> dict:
        return {
            "rounds": self.rounds,
            "wire_bytes": self.wire_bytes,
            "acct_bytes": self.acct_bytes,
            "messages": self.messages,
        }


class FaultInjector:
    """Flips the first payload byte of one message (by global delivery index).

    Test fixture for the malicious-abort criteria: tampering is applied at
    the receiving edge, as an in-transit corruption would be.
    """

    def __init__(self, message_index: int):
        self.message_index = message_index
        self._count = 0
        self._lock = threading.Lock()
        self.fired = False

    def apply(self, payload: bytes) -> bytes:
        with self._lock:
            idx = self._count
            self._count += 1
        if idx != self.message_index or not payload:
            return payload
        self.fired = True
        b = bytearray(payload)
        b[0] ^= 0x01
        return bytes(b)


class Pipe:
    """One directed in-memory byte channel."""

    def __init__(self):
        self.q: queue.Queue = queue.Queue()
        self.closed = threading.Event()

    def put(self, msg: Message):
        if self.closed.is_set():
            raise ChannelClosed("channel closed")
        self.q.put(msg)

    def get(self, timeout: float) -> Message:
        try:
            msg = self.q.get(timeout=timeout)
        except queue.Empty:
            if self.closed.is_set():
                raise ChannelClosed("peer gone") from None
            raise TransportTimeout(f"no message within {timeout}s") from None
        if msg is None:
            raise ChannelClosed("peer gone")
        return msg

    def close(self):
        self.closed.set()
        self.q.put(None)


class MemoryHub:
    """All six directed pipes of a 3-party session, plus the fault hook."""

    def __init__(self, fault: FaultInjector | None = None):
        self.pipes = {(s, r): Pipe() for s in (1, 2, 3) for r in (1, 2, 3) if s != r}
        self.fault = fault

    def links(self, party: int) -> "PartyLinks":
        return MemoryLinks(self, party)

    def close_all(self):
        for p in self.pipes.values():
            p.close()


class PartyLinks:
    """A party's channels to its two peers (backend interface)."""

    party: int

    def send(self, msg: Message):
        raise NotImplementedError

    def recv(self, frm: int, timeout: float) -> Message:
        raise NotImplementedError

    def close(self):
        pass


class MemoryLinks(PartyLinks):
    def __init__(self, hub: MemoryHub, party: int):
        self.hub = hub
        self.party = party

    def send(self, msg: Message):
        if msg.receiver == self.party:
            raise ValueError("cannot send to self")
        self.hub.pipes[(self.party, msg.receiver)].put(msg)

    def recv(self, frm: int, timeout: float) -> Message:
        msg = self.hub.pipes[(frm, self.party)].get(timeout)
        if self.hub.fault is not None:
            msg = Message(
                msg.session_id, msg.round_tag, msg.sender, msg.receiver,
                self.hub.fault.apply(msg.payload),
            )
        return msg

    def close(self):
        for (s, r), pipe in self.hub.pipes.items():
            if s == self.party or r == self.party:
                pipe.close()


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    got = 0
    while got < n:
        part = sock.recv(n - got)
        if not part:
            raise ChannelClosed("socket closed")
        chunks.append(part)
        got += len(part)
    return b"".join(chunks)


class TcpLinks(PartyLinks):
    """TCP backend: one connection per peer, reader threads feed local queues.

    Connection rule: a party listens for peers with a lower index and dials
    peers with a higher one.
    """

    def __init__(self, party: int, addresses: dict[int, tuple[str, int]], timeout: float = 30.0):
        self.party = party
        self.timeout = timeout
        self.socks: dict[int, socket.socket] = {}
        self.queues: dict[int, Pipe] = {p: Pipe() for p in (1, 2, 3) if p != party}
        self._connect(addresses)
        self._readers = []
        for peer, sock in self.socks.items():
            t = threading.Thread(target=self._reader, args=(peer, sock), daemon=True)
            t.start()
            self._readers.append(t)

    def _connect(self, addresses):
        lower = [p for p in (1, 2, 3) if p < self.party]
        higher = [p for p in (1, 2, 3) if p > self.party]
        if lower:
            host, port = addresses[self.party]
            srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            srv.bind((host, port))
            srv.listen(2)
            srv.settimeout(self.timeout)
            pending = set(lower)
            try:
                while pending:
                    conn, _ = srv.accept()
                    conn.settimeout(self.timeout)  # a silent dialer must not block set-up
                    try:
                        hello = conn.recv(1)
                    except TimeoutError:
                        hello = b""
                    if not hello or hello[0] not in pending:
                        for sock in (conn, *self.socks.values()):
                            sock.close()
                        raise DesyncError(f"P{self.party} got hello {hello!r} within {self.timeout}s, "
                                          f"expected one of {sorted(pending)}")
                    conn.settimeout(None)  # receive timeouts come from Pipe.get
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    self.socks[hello[0]] = conn
                    pending.discard(hello[0])
            finally:
                srv.close()
        for peer in higher:
            host, port = addresses[peer]
            deadline = time.monotonic() + self.timeout
            while True:
                try:
                    sock = socket.create_connection((host, port), timeout=self.timeout)
                    break
                except OSError as exc:
                    if time.monotonic() > deadline:
                        raise ConnectionError(f"P{self.party} could not reach P{peer} at {host}:{port} "
                                              f"within {self.timeout}s ({exc})") from exc
                    time.sleep(0.05)  # peer's listener may not be up yet
            sock.settimeout(None)  # an idle peer is not a closed one
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(bytes([self.party]))
            self.socks[peer] = sock

    def _reader(self, peer: int, sock: socket.socket):
        try:
            while True:
                header = _recv_exact(sock, HEADER_BYTES)
                (length,) = LEN.unpack(header[HEADER.size :])
                payload = _recv_exact(sock, length)
                self.queues[peer].put(Message.decode(header, payload))
        except (ChannelClosed, OSError):
            self.queues[peer].close()

    def send(self, msg: Message):
        self.socks[msg.receiver].sendall(msg.encode())

    def recv(self, frm: int, timeout: float) -> Message:
        return self.queues[frm].get(timeout)

    def close(self):
        for sock in self.socks.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for q in self.queues.values():
            q.close()
