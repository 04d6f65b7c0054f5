"""Test-side corruption of a three-party run; falcon itself has no fault hook.

RecvTamper edits one delivery in transit: it wraps each party's
`sess.links.recv` (the PartyLinks method every delivery passes through)
inside the job, so it works over the memory and the TCP backend alike.
Deviation makes one party deviate in what it sends: it patches
`session.Round.send_elems` (a component sent in full) or
`session.Round.send_hash` (an opening's hash of a component) for that party
only, so the change lands before the party's link digest covers the payload
and the link digests agree.
"""

from __future__ import annotations

import threading

import numpy as np

from falcon import session
from falcon.rings import add_mod
from falcon.transport import Message


def flip_first_byte(payload: bytes) -> bytes:
    return bytes([payload[0] ^ 0x01]) + payload[1:]


class RecvTamper:
    """Edits the payload of delivery k of a run, counting the receives of all
    three parties for which `when(msg)` holds on one counter. `fired` tells
    whether delivery k had a payload to edit, `victim` which party received
    it."""

    def __init__(self, k: int, edit=flip_first_byte, when=lambda msg: True):
        self.k = k
        self.edit = edit
        self.when = when
        self.fired = False
        self.victim = None
        self._count = 0
        self._lock = threading.Lock()

    def wrap(self, job):
        """job, with its session's receives passing through the tamper."""

        def tampered(sess):
            recv = sess.links.recv

            def tap(frm: int, timeout: float) -> Message:
                msg = recv(frm, timeout)
                if not self.when(msg):
                    return msg
                with self._lock:
                    idx = self._count
                    self._count += 1
                if idx != self.k or not msg.payload:
                    return msg
                self.fired, self.victim = True, sess.party.index
                return Message(msg.session_id, msg.round_tag, msg.sender, msg.receiver,
                               self.edit(msg.payload))

            sess.links.recv = tap
            return job(sess)

        return tampered


class Deviation:
    """Party `corrupt` changes what it sends in rounds tagged `tag`:

    - "add": in the first such round, adds 1 to each component it sends its
      next peer;
    - "stale": in the second such round, resends its next peer the component
      of the first round with the same modulus and shape;
    - "hash": in the first such round, sends its previous peer the hash of
      each component plus 1 (an opening's hi) in place of the component's.

    install(monkeypatch) patches `Round.send_elems` ("add", "stale") or
    `Round.send_hash` ("hash") for the test's lifetime.
    """

    def __init__(self, corrupt: int, tag: str, kind: str):
        assert kind in ("add", "stale", "hash")
        self.corrupt, self.tag, self.kind = corrupt, tag, kind
        self.fired = False
        self._rounds: list = []  # the corrupt party's round numbers with the tag
        self._first: dict = {}   # (mod, shape) -> what the first round sent

    def install(self, monkeypatch):
        method = "send_hash" if self.kind == "hash" else "send_elems"
        send = getattr(session.Round, method)

        def deviating(rnd, to: int, arr, mod: int):
            sess = rnd.sess
            peer = sess.party.prev if self.kind == "hash" else sess.party.next
            if (sess.party.index, rnd.tag, to) == (self.corrupt, self.tag, peer.index):
                arr = self._deviate(rnd.no, np.asarray(arr), mod)
            return send(rnd, to, arr, mod)

        monkeypatch.setattr(session.Round, method, deviating)

    def _deviate(self, round_no: int, arr: np.ndarray, mod: int) -> np.ndarray:
        if round_no not in self._rounds:
            self._rounds.append(round_no)
        nth = self._rounds.index(round_no)
        key = (mod, arr.shape)
        if self.kind in ("add", "hash") and nth == 0:
            self.fired = True
            return add_mod(arr, 1, mod)
        if self.kind == "stale" and nth == 0:
            self._first.setdefault(key, arr.copy())
        elif self.kind == "stale" and nth == 1 and key in self._first:
            self.fired = True
            return self._first[key]
        return arr
