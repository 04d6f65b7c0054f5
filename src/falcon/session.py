"""Per-party protocol runtime: rounds, openings, resharing, abort checks.

A PartySession binds one party's identity to its channels, PRF streams,
threat model and cost meters. Protocol code is written SPMD-style: the
same function runs at each party and synchronizes through Round objects,
each of which is exactly one communication round of the cost model.

A payload is its ring elements as rss.serialize_elems packs them (Z_2 and
Z_p at ceil(log2 mod) bits each, Z_L in 1, 4 or 8-byte words), or an
opening's hash (below). The receiver refuses a frame with a wrong header
field or length, an element out of range or a nonzero padding bit, naming
the round and the sender; the handshake binds the format (WIRE_FORMAT),
so peers that frame or encode differently fail at set-up.

Malicious mode: every payload ends with the sender's running digest of
what it had sent that peer before, which the receiver checks against its
own digest of what it had received, so a message tampered with in transit
aborts its receiver at the next message on that link. Every opening
delivers each missing component in full from one of its two holders and
as a 16-byte hash from the other, and the receiver hashes the copy and
compares. So a tampered message, or a wrong component or hash in an
opening, aborts before a value built on it is opened; a party that
deviates in a reshare is not yet caught (see README.md's security model).
"""

from __future__ import annotations

import ctypes
import hashlib
import sys
import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .rings import RingError, RingParams, add_mod, dtype_for
from .rss import (
    PartyId,
    PrfState,
    RssShare,
    deserialize_elems,
    elem_acct_bits,
    serialize_elems,
    wire_nbytes,
    zero_randomness_3of3,
)
from .transport import (
    HEADER_BYTES,
    ChannelClosed,
    CostMeter,
    DesyncError,
    MemoryHub,
    Message,
    PartyLinks,
    TcpLinks,
)

DIGEST_BYTES = 8
# an opening's check hash: the corrupt party knows the honest component, so a
# forged hash must resist a chosen second preimage, which 8 bytes would not
OPEN_HASH_BYTES = 16
# the frame (18-byte header, malicious link-digest trailer) and the element
# encoding of rss.serialize_elems (Z_p and Z_2 packed at their bit width); the
# handshake binds it, so peers on different formats fail at set-up
WIRE_FORMAT = b"packed-2"
FRAME_FIELDS = ("session", "round", "sender", "receiver", "bytes")

# all threads share glibc's main malloc arena (mallopt M_ARENA_MAX = -8, set before any
# allocates): malloc_trim keeps a thread arena's free top resident, so arenas per thread
# left 98-126 MB resident after a trim, varying by process, where one arena leaves 65 MB
if sys.platform == "linux" and hasattr(ctypes.CDLL(None), "mallopt"):
    ctypes.CDLL(None).mallopt(-8, 1)


class ThreatModel(Enum):
    SEMI_HONEST = "semi"
    MALICIOUS = "malicious"


class AbortError(RuntimeError):
    """Malicious-with-abort: an inconsistency was detected; no output released."""


class ConfigMismatchError(RuntimeError):
    pass


@dataclass
class PartySession:
    party: PartyId
    params: RingParams
    threat: ThreatModel
    links: PartyLinks
    prf: PrfState
    session_id: int = 0
    timeout: float = 30.0
    meter: CostMeter = field(default_factory=CostMeter)
    prep: object = None
    shared_rng: np.random.Generator = None
    round_no: int = 0
    # malicious only: running hashes of the payloads sent to / received from each peer
    sent: dict = None
    received: dict = None

    def __post_init__(self):
        if self.malicious:
            peers = (self.party.next.index, self.party.prev.index)
            self.sent = {q: hashlib.blake2b(digest_size=DIGEST_BYTES) for q in peers}
            self.received = {q: hashlib.blake2b(digest_size=DIGEST_BYTES) for q in peers}
        if self.shared_rng is None:
            self.shared_rng = np.random.default_rng(self.session_id)

    @property
    def malicious(self) -> bool:
        return self.threat is ThreatModel.MALICIOUS

    # -- handshake ---------------------------------------------------------

    def handshake(self, config_blob: bytes):
        """All parties must present identical session configuration and wire format."""
        digest = hashlib.blake2b(config_blob, digest_size=16, person=WIRE_FORMAT).digest()
        rnd = Round(self, "handshake")
        rnd.send_raw(self.party.next.index, digest)
        rnd.send_raw(self.party.prev.index, digest)
        a = rnd.expect_raw(self.party.next.index, 16)
        b = rnd.expect_raw(self.party.prev.index, 16)
        res = rnd.run()
        if res[a] != digest or res[b] != digest:
            raise ConfigMismatchError("peers disagree on session configuration")


class Round:
    """One synchronization step: a batch of sends, then the matching receives.

    Malicious: send_raw ends each payload with the link digest, and run
    checks it before reading the payload. Links are FIFO and every party
    sends and expects in the same order, so both ends digest one stream.
    """

    def __init__(self, sess: PartySession, tag: str = ""):
        self.sess = sess
        self.tag = tag
        sess.round_no += 1
        self.no = sess.round_no
        self._expects: list = []
        self._done = False

    def send_raw(self, to: int, payload: bytes, acct_bits: int = 0):
        sess = self.sess
        if sess.malicious:
            trailer = sess.sent[to].digest()
            sess.sent[to].update(payload)
            payload += trailer
        sess.links.send(Message(sess.session_id, self.no, sess.party.index, to, payload))
        sess.meter.on_send(HEADER_BYTES + len(payload), acct_bits)

    def send_elems(self, to: int, arr: np.ndarray, mod: int):
        ell = self.sess.params.ell
        bits = elem_acct_bits(mod, ell) * int(np.asarray(arr).size)
        self.send_raw(to, serialize_elems(arr, mod, ell), acct_bits=bits)

    def send_hash(self, to: int, arr: np.ndarray, mod: int):
        """Send open_hash(arr): integrity metadata, not ring elements."""
        self.send_raw(to, open_hash(arr, mod))

    def expect_raw(self, frm: int, nbytes: int) -> int:
        self._expects.append((frm, nbytes, None, None))
        return len(self._expects) - 1

    def expect_elems(self, frm: int, mod: int, shape) -> int:
        size = int(np.prod(shape, dtype=int))
        self._expects.append((frm, wire_nbytes(mod, self.sess.params.ell, size), mod, shape))
        return len(self._expects) - 1

    def run(self) -> list:
        assert not self._done
        self._done = True
        sess = self.sess
        me = sess.party.index
        trailer = DIGEST_BYTES if sess.malicious else 0
        out = [None] * len(self._expects)
        for i, (frm, nbytes, mod, shape) in enumerate(self._expects):
            msg = sess.links.recv(frm, sess.timeout)
            got = (msg.session_id, msg.round_tag, msg.sender, msg.receiver, len(msg.payload))
            want = (sess.session_id, self.no, frm, me, nbytes + trailer)
            if got != want:
                bad = [f"{k} {g} (expected {w})" for k, g, w in zip(FRAME_FIELDS, got, want) if g != w]
                self._malformed(f"the frame from P{frm} to P{me} has {', '.join(bad)}")
            body = msg.payload
            if trailer:
                body, tail = body[:nbytes], body[nbytes:]
                if tail != sess.received[frm].digest():
                    raise AbortError(f"link digest mismatch: round {self.no} ({self.tag}): P{me} "
                                     f"did not receive what P{frm} sent it")
                sess.received[frm].update(body)
            try:
                out[i] = body if mod is None else deserialize_elems(body, mod, sess.params.ell, shape)
            except RingError as exc:
                self._malformed(f"P{frm} sent P{me} {exc}")
        sess.meter.on_round()
        return out

    def _malformed(self, detail: str):
        detail = f"round {self.no} ({self.tag}): {detail}"
        if self.sess.malicious:
            raise AbortError(f"desync: {detail}")
        raise DesyncError(f"malformed frame: {detail}")


# ---------------------------------------------------------------------------
# openings (reconstruction to all parties)


def open_hash(arr: np.ndarray, mod: int) -> bytes:
    """A component's hash over its little-endian words in mod's storage dtype,
    so a share and the same values decoded from the wire hash alike."""
    words = np.ascontiguousarray(arr, np.dtype(dtype_for(mod)).newbyteorder("<"))
    return hashlib.blake2b(words, digest_size=OPEN_HASH_BYTES).digest()


def open_begin(sess: PartySession, x: RssShare, rnd: Round):
    """Stage the opening of x into rnd; returns a finisher for the payloads.

    Each party sends its lo to the next party, which misses it. Malicious:
    each party also sends its previous peer open_hash of its hi, the
    component that peer misses, and a copy whose hash differs aborts: the
    party that would open a wrong value is the one that stops.
    """
    nxt, prv = sess.party.next.index, sess.party.prev.index
    rnd.send_elems(nxt, x.lo, x.mod)
    ia = rnd.expect_elems(prv, x.mod, x.shape)
    if sess.malicious:
        rnd.send_hash(prv, x.hi, x.mod)
        ib = rnd.expect_raw(nxt, OPEN_HASH_BYTES)

    def finish(results):
        missing = results[ia]
        if sess.malicious and open_hash(missing, x.mod) != results[ib]:
            raise AbortError(f"reconstruction mismatch: P{prv}'s component does not "
                             f"match P{nxt}'s hash of it")
        return add_mod(add_mod(x.lo, x.hi, x.mod), missing, x.mod)

    return finish


def open_share(sess: PartySession, x: RssShare) -> np.ndarray:
    rnd = Round(sess, "open")
    fin = open_begin(sess, x, rnd)
    return fin(rnd.run())


# ---------------------------------------------------------------------------
# resharing (3-of-3 additive piece -> fresh replicated sharing)


def reshare_begin(sess: PartySession, z_local: np.ndarray, mod: int, rnd: Round):
    """Blind own additive piece with fresh zero randomness and redistribute.

    c_i = z_i + alpha_i travels to P_{i-1} alone, who stores it as its hi
    component.
    """
    z_local = np.asarray(z_local)
    alpha = zero_randomness_3of3(sess.prf, z_local.size, mod).reshape(z_local.shape)
    c = add_mod(z_local, alpha, mod)
    rnd.send_elems(sess.party.prev.index, c, mod)
    ih = rnd.expect_elems(sess.party.next.index, mod, z_local.shape)

    def finish(results):
        return RssShare(c, results[ih], mod)

    return finish


# ---------------------------------------------------------------------------
# session set-up and the three-party simulation harness


def make_session(party: int, links: PartyLinks, params: RingParams, threat: ThreatModel,
                 session_seed: int, timeout: float) -> PartySession:
    """Party `party`'s session; its two pairwise PRF keys derive from session_seed."""
    seeds = PrfState.setup_seeds(session_seed)
    return PartySession(
        party=PartyId(party),
        params=params,
        threat=threat,
        links=links,
        prf=PrfState.from_seeds(seeds[party - 1], seeds[party - 2]),
        session_id=session_seed,
        timeout=timeout,
    )


def run_three_parties(
    fn,
    params: RingParams,
    threat: ThreatModel = ThreatModel.SEMI_HONEST,
    session_seed: int = 0,
    backend: str = "memory",
    addresses: dict | None = None,
    timeout: float = 30.0,
):
    """Run fn(session) at all three parties; returns [r1, r2, r3].

    The memory backend threads all parties in-process; pairwise PRF seeds
    and the shared data rng derive deterministically from session_seed.
    A party that raises closes its own links, so its peers' receives from it
    end with ChannelClosed and they stop in turn. The other parties' links
    are closed once all three threads have joined, so a TCP run leaves no
    socket or reader thread behind. The run raises the error that caused the
    stop (see _stop_rank); ties go to the lower party.
    """
    if backend == "memory":
        link_factory = MemoryHub().links
    elif backend == "tcp":
        def link_factory(i: int) -> PartyLinks:
            # constructed inside each party thread: listeners and dialers
            # must come up concurrently
            return TcpLinks(i, addresses, timeout)
    else:
        raise ValueError(f"unknown backend {backend!r}")

    results: list = [None, None, None]
    errors: list = [None, None, None]
    opened: list = [None, None, None]

    def runner(idx: int):
        try:
            opened[idx] = link_factory(idx + 1)
            results[idx] = fn(make_session(idx + 1, opened[idx], params, threat, session_seed,
                                           timeout))
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            errors[idx] = exc
            if opened[idx] is not None:
                opened[idx].close()

    threads = [threading.Thread(target=runner, args=(i,), daemon=True) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for links, exc in zip(opened, errors):
        if links is not None and exc is None:
            links.close()

    raised = [i for i in range(3) if errors[i] is not None]
    if raised:
        raise errors[min(raised, key=lambda i: (_stop_rank(errors[i]), i))]
    return results


def _stop_rank(exc: BaseException) -> int:
    """How directly a party's error explains a stopped run, lowest first: an
    abort, a desync, a configuration mismatch, any other error, and last a
    closed channel."""
    if isinstance(exc, ChannelClosed):  # a knock-on of a peer's stop
        return 4
    kinds = (AbortError, DesyncError, ConfigMismatchError)
    return next((r for r, kind in enumerate(kinds) if isinstance(exc, kind)), 3)
