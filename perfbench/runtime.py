"""A persistent three-party deployment driven by one closed-loop client.

`Cluster` starts the three party threads once (sessions, links, handshake,
model sharing) through `falcon.session.run_three_parties`, then serves
commands from the client thread, one at a time:

* ``learn``   — a live request whose preprocessing calls are noted (warm-up);
* ``offline`` — generate one request's preprocessing material through
  `prep.RecordingPrep`, timing only the time spent inside its calls;
* ``online``  — run the request on an in-memory replay of that material;
* ``open_params`` — open the trained weights for the output gate.

A party that raises fails the command: run_three_parties closes the links,
the peers fail with it, and the client gets `RequestFailed`.
"""

from __future__ import annotations

import json
import queue
import socket
import threading
import time
from contextlib import nullcontext

import numpy as np

from falcon import nn
from falcon.prep import DealerPrep, DistributedPrep, FilePrep, RecordingPrep
from falcon.session import run_three_parties

from workloads import PARAMS, Inputs, TrainSchedule, run_request

TRANSPORT_TIMEOUT = 20.0   # a silent peer fails the request instead of hanging
COMMAND_TIMEOUT = 60.0


class RequestFailed(RuntimeError):
    pass


class ReplayPrep(FilePrep):
    """Replays recorded material from memory, with FilePrep's shape and
    shift check on every take."""

    def __init__(self, records: dict):
        self.records = records
        self._cursors = {k: 0 for k in records}

    def exhausted(self) -> bool:
        return all(self._cursors[k] == len(v) for k, v in self.records.items())


class _Observed:
    """Forwards prep calls to `inner`, noting (kind, args) of each and
    summing the time and rounds spent inside them."""

    def __init__(self, inner, meter):
        self.inner = inner
        self.meter = meter
        self.calls = []
        self.seconds = 0.0
        self.rounds = 0

    def __getattr__(self, kind):
        fn = getattr(self.inner, kind)

        def call(*args):
            self.calls.append((kind, args))
            r0 = self.meter.rounds
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.seconds += time.perf_counter() - t0
                self.rounds += self.meter.rounds - r0

        return call


def dealer_seed(seed: int, request: int) -> int:
    """A dealer seed per request, so DealerPrep's process-wide memo (keyed by
    seed and call index) never hands one request's material to another."""
    return int(np.random.SeedSequence([seed, request, 0xD1]).generate_state(1)[0])


def free_loopback_addresses() -> dict:
    addresses = {}
    for party in (1, 2, 3):
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
            s.bind(("127.0.0.1", 0))
            addresses[party] = ("127.0.0.1", s.getsockname()[1])
    return addresses


def _meter(sess) -> tuple:
    m = sess.meter
    return (m.rounds, m.messages, m.wire_bytes, m.acct_bits)


def _delta(before: tuple, after: tuple) -> dict:
    keys = ("rounds", "messages", "wire_bytes", "acct_bits")
    return {k: a - b for k, a, b in zip(keys, after, before)}


def clear_dealer_memo():
    """Drop DealerPrep's cached all-party material once every party has taken
    its share, so consumed material does not count in peak memory."""
    with DealerPrep._lock:
        DealerPrep._memo.clear()


class Cluster:
    def __init__(self, inputs: Inputs, tracer=None):
        self.inputs = inputs
        self.wl = inputs.wl
        self.tracer = tracer          # spans are recorded while tracer.active
        self.schedule = TrainSchedule(inputs) if self.wl.train else None
        self._inbox = [queue.Queue() for _ in range(3)]
        self._outbox: queue.Queue = queue.Queue()
        self.error = None
        self.closed = False
        addresses = free_loopback_addresses() if self.wl.backend == "tcp" else None
        self._thread = threading.Thread(target=self._serve, args=(addresses,), daemon=True)
        self._thread.start()
        self._collect()  # every party has shaken hands and shared the model

    # -- client side ------------------------------------------------------------

    def call(self, op: str, request: int = -1, payload=None) -> list:
        if self.closed:
            raise RequestFailed("cluster is closed after an earlier failure")
        for box in self._inbox:
            box.put((op, request, payload))
        return self._collect()

    def _collect(self) -> list:
        """Gather one answer per party. The first error, a dead server thread
        or the deadline fails the command at once, without waiting for the
        other parties."""
        out: list = [None, None, None]
        got = 0
        deadline = time.monotonic() + COMMAND_TIMEOUT
        while got < 3:
            try:
                party, ok, value = self._outbox.get(timeout=0.2)
            except queue.Empty:
                if self._thread.is_alive() and time.monotonic() < deadline:
                    continue
                ok, value = False, self.error or TimeoutError("parties did not answer")
            if not ok:
                self._stop()
                raise RequestFailed(f"{type(value).__name__}: {value}")
            out[party - 1] = value
            got += 1
        return out

    def payload(self, request: int):
        if self.wl.train:
            return self.schedule.next_batch()
        return self.inputs.inference_batch(request)

    def _stop(self):
        if not self.closed:
            self.closed = True
            for box in self._inbox:
                box.put(None)

    def close(self):
        self._stop()
        self._thread.join(timeout=COMMAND_TIMEOUT)

    # -- party side ---------------------------------------------------------------

    def _serve(self, addresses):
        wl = self.wl
        try:
            run_three_parties(self._party, PARAMS, threat=wl.threat,
                              session_seed=self.inputs.seed, backend=wl.backend,
                              addresses=addresses, timeout=TRANSPORT_TIMEOUT)
        except BaseException as exc:  # noqa: BLE001 - reported through _collect
            self.error = exc

    def _party(self, sess):
        idx = sess.party.index
        inbox = self._inbox[idx - 1]
        try:
            blob = json.dumps([self.wl.name, PARAMS.ell, PARAMS.p, PARAMS.fp, self.inputs.seed])
            sess.handshake(blob.encode() + self.inputs.net.config_hash())
            state = nn.init_state(sess, self.inputs.net, self.inputs.float_params)
        except BaseException as exc:
            self._outbox.put((idx, False, exc))
            raise
        self._outbox.put((idx, True, None))
        party = _PartyState(self, sess, state)
        try:
            while True:
                cmd = inbox.get()
                if cmd is None:
                    return None
                op, request, payload = cmd
                try:
                    result = getattr(party, op)(request, payload)
                except BaseException as exc:
                    self._outbox.put((idx, False, exc))
                    raise
                self._outbox.put((idx, True, result))
        finally:
            sess.links.close()


class _PartyState:
    """One party's request handlers and the material it holds between them."""

    def __init__(self, cluster: Cluster, sess, state: nn.NetState):
        self.cluster = cluster
        self.wl = cluster.wl
        self.sess = sess
        self.state = state
        self.calls = None     # prep calls noted by the warm-up request
        self.replay = None

    def _source(self, request: int):
        if self.wl.prep == "dealer":
            return DealerPrep(self.sess.party, PARAMS, seed=dealer_seed(self.cluster.inputs.seed, request))
        return DistributedPrep(self.sess)

    def _trace(self, request: int, phase: str):
        tracer = self.cluster.tracer
        if tracer is None or not tracer.active:
            return nullcontext()
        return tracer.context(self.sess, request, phase)

    def learn(self, request, payload):
        log = _Observed(self._source(request), self.sess.meter)
        self.sess.prep = log
        out = run_request(self.sess, self.wl, self.state, payload)
        self.calls = log.calls
        self.sess.prep = None
        return out

    def offline(self, request, payload):
        rec = RecordingPrep(self._source(request))
        timed = _Observed(rec, self.sess.meter)
        before = _meter(self.sess)
        with self._trace(request, "offline"):
            if self.wl.train:
                # divide's public bounding power picks the truncation shifts,
                # so an SGD step's material is known only by running the step:
                # record it on a throwaway copy of the model
                scratch = nn.NetState(self.state.net, [nn.LayerState(dict(st.params), {})
                                                       for st in self.state.layers])
                self.sess.prep = timed
                run_request(self.sess, self.wl, scratch, payload)
                self.sess.prep = None
            else:
                for kind, args in self.calls:
                    getattr(timed, kind)(*args)
        self.replay = ReplayPrep(rec.records)
        return {"offline_s": timed.seconds, "offline_rounds": timed.rounds,
                **_delta(before, _meter(self.sess))}

    def online(self, request, payload):
        self.sess.prep = self.replay
        before = _meter(self.sess)
        with self._trace(request, "online"):
            t0 = time.perf_counter()
            out = run_request(self.sess, self.wl, self.state, payload)
            seconds = time.perf_counter() - t0
        if not self.replay.exhausted():
            raise RuntimeError("the request left recorded preprocessing material unused")
        self.sess.prep = self.replay = None
        return {"online_s": seconds, "output": out, **_delta(before, _meter(self.sess))}

    def open_params(self, request, payload):
        return nn.open_params(self.sess, self.state)
