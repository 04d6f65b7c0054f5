"""Per-party protocol runtime: rounds, openings, resharing, abort checks.

A PartySession binds one party's identity to its channels, PRF streams,
threat model and cost meters. Protocol code is written SPMD-style: the
same function runs at each party and synchronizes through Round objects,
each of which is exactly one communication round of the cost model.

Malicious mode: every opening delivers each missing component twice (once
per peer) and the receiver compares; every resharing is mirrored to the
third party and the two receivers keep rolling transcript digests that are
cross-checked on the next opening. A message tampered with in transit
therefore aborts before a value is released; a party that deviates is not
yet caught (see the security model in README.md).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .rings import RingParams, add_mod
from .rss import (
    PartyId,
    PrfState,
    RssShare,
    deserialize_elems,
    elem_acct_bits,
    elem_width,
    serialize_elems,
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
)

DIGEST_BYTES = 8


class ThreatModel(Enum):
    SEMI_HONEST = "semi"
    MALICIOUS = "malicious"


class AbortError(RuntimeError):
    """Malicious-with-abort: an inconsistency was detected; no output released."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ConfigMismatchError(RuntimeError):
    pass


def _hash_chain(old: bytes, payload: bytes) -> bytes:
    return hashlib.blake2b(old + payload, digest_size=DIGEST_BYTES).digest()


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
    # rolling digest of replicated traffic received from each peer
    transcript: dict = None

    def __post_init__(self):
        if self.transcript is None:
            self.transcript = {p: b"\x00" * DIGEST_BYTES for p in (1, 2, 3) if p != self.party.index}
        if self.shared_rng is None:
            self.shared_rng = np.random.default_rng(self.session_id)

    @property
    def malicious(self) -> bool:
        return self.threat is ThreatModel.MALICIOUS

    # -- handshake ---------------------------------------------------------

    def handshake(self, config_blob: bytes):
        """All parties must present identical session configuration."""
        digest = hashlib.blake2b(config_blob, digest_size=16).digest()
        rnd = Round(self, "handshake")
        rnd.send_raw(self.party.next.index, digest)
        rnd.send_raw(self.party.prev.index, digest)
        a = rnd.expect_raw(self.party.next.index, 16)
        b = rnd.expect_raw(self.party.prev.index, 16)
        res = rnd.run()
        if res[a] != digest or res[b] != digest:
            raise ConfigMismatchError("peers disagree on session configuration")


class Round:
    """One synchronization step: a batch of sends, then the matching receives."""

    def __init__(self, sess: PartySession, tag: str = ""):
        self.sess = sess
        self.tag = tag
        sess.round_no += 1
        self.no = sess.round_no
        # digest state as of round start: what peers reference in this round
        self.digests_at_start = dict(sess.transcript)
        self._expects: list = []
        self._done = False

    def send_raw(self, to: int, payload: bytes, acct_bits: int = 0):
        msg = Message(self.sess.session_id, self.no, self.sess.party.index, to, payload)
        self.sess.links.send(msg)
        self.sess.meter.on_send(HEADER_BYTES + len(payload), acct_bits)

    def send_elems(self, to: int, arr: np.ndarray, mod: int, extra: bytes = b""):
        ell = self.sess.params.ell
        payload = serialize_elems(arr, mod, ell) + extra
        bits = elem_acct_bits(mod, ell) * int(np.asarray(arr).size)
        self.send_raw(to, payload, acct_bits=bits)

    def expect_raw(self, frm: int, nbytes: int) -> int:
        self._expects.append((frm, nbytes, 0, None, None, False))
        return len(self._expects) - 1

    def expect_elems(self, frm: int, mod: int, shape, extra_len: int = 0, replicated: bool = False) -> int:
        size = int(np.prod(shape, dtype=int))
        nbytes = size * elem_width(mod, self.sess.params.ell) + extra_len
        self._expects.append((frm, nbytes, extra_len, mod, shape, replicated))
        return len(self._expects) - 1

    def run(self) -> list:
        assert not self._done
        self._done = True
        sess = self.sess
        out = [None] * len(self._expects)
        for i, (frm, nbytes, extra_len, mod, shape, replicated) in enumerate(self._expects):
            msg = sess.links.recv(frm, sess.timeout)
            got = (msg.session_id, msg.round_tag, msg.sender, msg.receiver, len(msg.payload))
            want = (sess.session_id, self.no, frm, sess.party.index, nbytes)
            if got != want:
                detail = ("expected (session, round, sender, receiver, bytes) = "
                          f"{want}, got {got}")
                if sess.malicious:
                    raise AbortError(f"desync: {detail}")
                raise DesyncError(f"malformed frame: {detail}")
            if replicated:
                sess.transcript[frm] = _hash_chain(sess.transcript[frm], msg.payload)
            if mod is None:
                out[i] = msg.payload
            else:
                split = nbytes - extra_len
                arr = deserialize_elems(msg.payload[:split], mod, sess.params.ell, shape)
                out[i] = (arr, msg.payload[split:])
        sess.meter.on_round()
        return out


# ---------------------------------------------------------------------------
# openings (reconstruction to all parties)


def open_begin(sess: PartySession, x: RssShare, rnd: Round):
    """Stage the opening of x into rnd; returns a finisher for the payloads.

    Semi-honest: each party sends one component to the next party.
    Malicious: both peers supply the missing component plus their transcript
    digest of the third party; mismatch of either aborts.
    """
    nxt, prv = sess.party.next.index, sess.party.prev.index
    if not sess.malicious:
        rnd.send_elems(nxt, x.lo, x.mod)
        ia = rnd.expect_elems(prv, x.mod, x.shape)

        def finish(results):
            missing, _ = results[ia]
            return add_mod(add_mod(x.lo, x.hi, x.mod), missing, x.mod)

        return finish

    third_for_next = 6 - sess.party.index - nxt
    third_for_prev = 6 - sess.party.index - prv
    rnd.send_elems(nxt, x.lo, x.mod, extra=rnd.digests_at_start[third_for_next])
    rnd.send_elems(prv, x.hi, x.mod, extra=rnd.digests_at_start[third_for_prev])
    ia = rnd.expect_elems(prv, x.mod, x.shape, extra_len=DIGEST_BYTES)
    ib = rnd.expect_elems(nxt, x.mod, x.shape, extra_len=DIGEST_BYTES)

    def finish(results):
        va, da = results[ia]
        vb, db = results[ib]
        if not np.array_equal(va, vb):
            raise AbortError("reconstruction mismatch: peers sent different components")
        if da != rnd.digests_at_start[nxt]:
            raise AbortError(f"transcript digest mismatch for P{nxt}")
        if db != rnd.digests_at_start[prv]:
            raise AbortError(f"transcript digest mismatch for P{prv}")
        return add_mod(add_mod(x.lo, x.hi, x.mod), va, x.mod)

    return finish


def open_share(sess: PartySession, x: RssShare) -> np.ndarray:
    rnd = Round(sess, "open")
    fin = open_begin(sess, x, rnd)
    return fin(rnd.run())


# ---------------------------------------------------------------------------
# resharing (3-of-3 additive piece -> fresh replicated sharing)


def reshare_begin(sess: PartySession, z_local: np.ndarray, mod: int, rnd: Round):
    """Blind own additive piece with fresh zero randomness and redistribute.

    c_i = z_i + alpha_i travels to P_{i-1} (who stores it as its hi
    component); in malicious mode an identical mirror goes to P_{i+1},
    whose transcript digest later exposes any divergence.
    """
    z_local = np.asarray(z_local)
    alpha = zero_randomness_3of3(sess.prf, z_local.size, mod).reshape(z_local.shape)
    c = add_mod(z_local, alpha, mod)
    rnd.send_elems(sess.party.prev.index, c, mod)
    if sess.malicious:
        rnd.send_elems(sess.party.next.index, c, mod)
    ih = rnd.expect_elems(sess.party.next.index, mod, z_local.shape, replicated=True)
    if sess.malicious:
        # mirror of the component P_prev computed, for transcript only
        rnd.expect_elems(sess.party.prev.index, mod, z_local.shape, replicated=True)

    def finish(results):
        hi, _ = results[ih]
        return RssShare(c, hi, mod)

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
    fault=None,
    timeout: float = 30.0,
):
    """Run fn(session) at all three parties; returns [r1, r2, r3].

    The memory backend threads all parties in-process; pairwise PRF seeds
    and the shared data rng derive deterministically from session_seed.
    """
    if backend == "memory":
        hub = MemoryHub(fault=fault)
        link_factory = hub.links
    elif backend == "tcp":
        from .transport import TcpLinks

        hub = None

        def link_factory(i: int) -> PartyLinks:
            # constructed inside each party thread: listeners and dialers
            # must come up concurrently
            return TcpLinks(i, addresses, timeout)
    else:
        raise ValueError(f"unknown backend {backend!r}")

    results: list = [None, None, None]
    errors: list = [None, None, None]
    sessions: list = [None, None, None]

    def runner(idx: int):
        try:
            sessions[idx] = make_session(idx + 1, link_factory(idx + 1), params, threat,
                                         session_seed, timeout)
            results[idx] = fn(sessions[idx])
        except BaseException as exc:  # noqa: BLE001 - propagated to caller
            errors[idx] = exc
            if hub is not None:
                hub.close_all()
            else:
                for s in sessions:
                    if s is not None:
                        s.links.close()

    threads = [threading.Thread(target=runner, args=(i,), daemon=True) for i in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for kind in (AbortError, DesyncError, ConfigMismatchError):
        for e in errors:
            if isinstance(e, kind):
                raise e
    for e in errors:
        if e is not None and not isinstance(e, ChannelClosed):
            raise e
    for e in errors:
        if e is not None:
            raise e
    return results
