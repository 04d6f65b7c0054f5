"""Span tracer for the benchmark: wraps falcon functions from outside.

Nothing inside `src/falcon` changes. `Tracer.install()` replaces each
target function by a wrapper in *every* falcon module that binds it (nn,
numeric, prep, rss and session import protocol and ring functions by
name), and each target method on its class. A wrapper records a span only
in a thread that has an open request context (`Tracer.context`), so the
plaintext oracle and set-up code run untraced even while installed.

A span carries name, start, end, parent, request id, party and phase, the
change in the party's CostMeter across the call (rounds, messages, wire
bytes, cost-model bits) and the time its child spans cover. Spans stay in
memory until `Tracer.dump`.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

_RING_FNS = ("add_mod", "sub_mod", "mul_mod", "neg_mod", "matmul_mod")
PROTOCOLS = ("matmul", "truncate", "mult", "select_shares", "drelu", "wrap3_protocol",
             "private_compare", "maxpool_argmax")
PREP_METHODS = ("trunc_pairs", "wrap_rands", "compare_rands", "bit_pairs")
PREP_FNS = ("bit_inject", "_adder_wrap_bit", "_nonzero_masks", "_pow_const")
NN_LAYERS = ("fc", "conv", "relu", "maxpool")


class Span:
    __slots__ = ("id", "name", "parent", "request", "party", "phase", "start", "end",
                 "rounds", "messages", "wire_bytes", "acct_bits", "child_s", "attrs")

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _modulus_kind(modulus, L: int) -> str:
    if modulus == 2:
        return "z2"
    if modulus == L:
        return "zl"
    return "zp"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._patched: list[tuple] = []
        self.active = False

    # -- request context (entered by each party thread) ----------------------

    @contextmanager
    def context(self, sess, request: int, phase: str):
        loc = self._local
        loc.sess, loc.request, loc.phase, loc.stack = sess, request, phase, []
        try:
            yield
        finally:
            loc.stack = None

    # -- patching -------------------------------------------------------------

    def install(self):
        from falcon import nn, numeric, prep, protocols, rings, rss, session, transport

        for name in PROTOCOLS:
            self._patch_function(protocols, name, lambda a, k, n=name: f"protocols.{n}",
                                 _table10_attrs(name))
        self._patch_function(nn, "_layer_forward", lambda a, k: f"nn.{a[1].kind}.fwd")
        self._patch_function(nn, "_layer_backward", lambda a, k: f"nn.{a[1].kind}.bwd")
        for name in ("loss_grad_approx", "sgd_step"):
            self._patch_function(nn, name, lambda a, k, n=name: f"nn.{n}")
        for name in ("divide", "rescale"):
            self._patch_function(numeric, name, lambda a, k, n=name: f"numeric.{n}")
        self._patch_function(session, "open_share", lambda a, k: "session.open_share")
        for name in ("serialize_elems", "deserialize_elems", "share_secret"):
            self._patch_function(rss, name, lambda a, k, n=name: f"rss.{n}")
        for name in ("draw_u64", "draw_mod"):
            self._patch_method(rss.PrfStream, name, lambda a, k: "rss.prf_draw")
        for name in _RING_FNS:
            pos = 1 if name == "neg_mod" else 2
            self._patch_function(
                rings, name,
                lambda a, k, pos=pos: "rings." + _modulus_kind(
                    a[pos] if len(a) > pos else k["modulus"], self._local.sess.params.L
                ) + "_arith",
            )
        for cls in (transport.MemoryLinks, transport.TcpLinks):
            self._patch_method(cls, "recv", lambda a, k: "transport.recv")
            self._patch_method(cls, "send", lambda a, k: "transport.send", _send_attrs)
        for cls in (prep.DealerPrep, prep.DistributedPrep):
            for name in PREP_METHODS:
                self._patch_method(cls, name, lambda a, k, n=name: f"prep.{n}")
        for name in PREP_FNS:
            self._patch_function(prep, name, lambda a, k, n=name: f"prep.{n}",
                                 _mask_attrs if name in ("_nonzero_masks", "_pow_const") else None)
        self.active = True

    def uninstall(self):
        self.active = False
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch_function(self, module, attr: str, namer, attrs=None):
        """Rebind module.attr, and every other falcon module-level binding of
        the same function object, to one tracing wrapper."""
        orig = getattr(module, attr)
        wrapper = self._wrap(orig, namer, attrs)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "falcon" and not modname.startswith("falcon."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patched.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, namer, attrs=None):
        orig = cls.__dict__[attr]
        self._patched.append((cls, attr, orig))
        setattr(cls, attr, self._wrap(orig, namer, attrs))

    def _wrap(self, fn, namer, attrs):
        loc = self._local
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            stack = getattr(loc, "stack", None)
            if stack is None:
                return fn(*args, **kwargs)
            meter = loc.sess.meter
            span = Span()
            span.id = next(ids)
            span.name = namer(args, kwargs)
            span.parent = stack[-1].id if stack else None
            span.request, span.party, span.phase = loc.request, loc.sess.party.index, loc.phase
            span.child_s = 0.0
            span.attrs = None
            r0, m0, w0, a0 = meter.rounds, meter.messages, meter.wire_bytes, meter.acct_bits
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start
                span.rounds = meter.rounds - r0
                span.messages = meter.messages - m0
                span.wire_bytes = meter.wire_bytes - w0
                span.acct_bits = meter.acct_bits - a0
                spans.append(span)
            if attrs is not None:
                span.attrs = attrs(loc.sess, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- output ---------------------------------------------------------------

    def dump(self, path: str, extra: dict):
        with open(path, "w") as f:
            json.dump({**extra, "spans": [s.to_json() for s in self.spans]}, f)


# ---------------------------------------------------------------------------
# span attributes


def _send_attrs(sess, args, kwargs, result):
    from falcon.transport import HEADER_BYTES

    msg = args[1] if len(args) > 1 else kwargs["msg"]
    return {"bytes": HEADER_BYTES + len(msg.payload)}


def _mask_attrs(sess, args, kwargs, result):
    # _nonzero_masks(sess, n): kept n; _pow_const(sess, m, e): tried m.size
    if len(args) > 2:
        return {"tried": int(np.prod(args[1].shape, dtype=int))}
    return {"kept": int(args[1])}


_TABLE10_NAME = {"mult": "mult", "matmul": "matmul", "private_compare": "pc",
                 "wrap3_protocol": "wa", "drelu": "drelu", "maxpool_argmax": "maxpool"}


def _table10_attrs(protocol: str):
    """Arguments for cli.table10's prediction of one protocol call."""
    if protocol not in _TABLE10_NAME:
        return None
    from falcon.cli import table10

    key = _TABLE10_NAME[protocol]

    def attrs(sess, args, kwargs, result):
        kw = {}
        if protocol == "mult":
            if result.mod != sess.params.L:
                return None  # table10's mult is over Z_L; Z_p/Z_2 ones sit under pc and bit_inject
            n = int(result.lo.size)
        elif protocol == "matmul":
            (x, y), (_, z) = args[1].shape, args[2].shape
            kw["dims"] = (x, y, z)
            n = x * z
        elif protocol == "private_compare":
            n = int(args[1].shape[0])
        elif protocol == "maxpool_argmax":
            shape = args[1].shape
            n = int(np.prod(shape[:-1], dtype=int))
            kw["pool"] = int(shape[-1])
        else:
            n = int(np.prod(args[1].shape, dtype=int))
        pred = table10(key, sess.params, n, sess.threat.value, **kw)
        return {"pred_rounds": pred["rounds"], "pred_bytes": pred["bytes"]}

    return attrs


# ---------------------------------------------------------------------------
# per-layer metrics of one request at one party


class RequestSpans:
    """The spans of one request at one party, with the usual aggregations.

    `s` and `rounds` sum only the outermost span of a name, so a protocol
    that calls itself (chunked drelu) is not counted twice; `calls` counts
    every span; self time is duration minus the time child spans cover.
    """

    def __init__(self, spans: list[Span]):
        self.spans = spans
        by_id = {s.id: s for s in spans}
        self.outermost = []
        for s in spans:
            p = by_id.get(s.parent)
            while p is not None and p.name != s.name:
                p = by_id.get(p.parent)
            if p is None:
                self.outermost.append(s)

    def tops(self, name: str, phase: str) -> list[Span]:
        return [s for s in self.outermost if s.name == name and s.phase == phase]

    def every(self, name: str, phase: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.phase == phase]

    def seconds(self, name: str, phase: str = "online") -> float:
        return sum(s.duration for s in self.tops(name, phase))

    def rounds(self, name: str, phase: str = "online") -> int:
        return sum(s.rounds for s in self.tops(name, phase))

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]


def layer_metrics(rs: RequestSpans, online_messages: int) -> dict:
    """Every `<module>.<fn>.<stat>` metric of one request (one party)."""
    out: dict = {}
    for kind in NN_LAYERS:
        out[f"nn.{kind}.fwd_s"] = rs.seconds(f"nn.{kind}.fwd")
        out[f"nn.{kind}.bwd_s"] = rs.seconds(f"nn.{kind}.bwd")
        out[f"nn.{kind}.fwd_rounds"] = rs.rounds(f"nn.{kind}.fwd")
    for name in ("loss_grad_approx", "sgd_step"):
        out[f"nn.{name}.s"] = rs.seconds(f"nn.{name}")
    for name in PROTOCOLS:
        full = f"protocols.{name}"
        every = rs.every(full, "online")
        out[f"{full}.calls"] = len(every)
        out[f"{full}.s"] = rs.seconds(full)
        out[f"{full}.self_s"] = sum(s.duration - s.child_s for s in every)
        out[f"{full}.rounds"] = rs.rounds(full)
        out[f"{full}.wire_bytes"] = sum(s.wire_bytes for s in rs.tops(full, "online"))
    for name in ("divide", "rescale"):
        out[f"numeric.{name}.s"] = rs.seconds(f"numeric.{name}")
        out[f"numeric.{name}.rounds"] = rs.rounds(f"numeric.{name}")
    out["session.open_share.calls"] = len(rs.every("session.open_share", "online"))
    out["session.open_share.s"] = rs.seconds("session.open_share")
    out["session.messages"] = online_messages
    out["transport.recv_wait_s"] = rs.seconds("transport.recv")
    out["transport.send_s"] = rs.seconds("transport.send")
    out["transport.wire_bytes"] = sum(s.attrs["bytes"] for s in rs.every("transport.send", "online"))
    for name in ("serialize_elems", "deserialize_elems", "prf_draw", "share_secret"):
        out[f"rss.{name}.s"] = rs.seconds(f"rss.{name}")
    out["rings.zp_arith.calls"] = len(rs.every("rings.zp_arith", "online"))
    for ring in ("zp", "z2", "zl"):
        out[f"rings.{ring}_arith.s"] = rs.seconds(f"rings.{ring}_arith")
    for name in PREP_METHODS + ("bit_inject", "_adder_wrap_bit", "_nonzero_masks"):
        out[f"prep.{name}.s"] = rs.seconds(f"prep.{name}", "offline")
        out[f"prep.{name}.rounds"] = rs.rounds(f"prep.{name}", "offline")
    kept = sum(s.attrs["kept"] for s in rs.every("prep._nonzero_masks", "offline"))
    tried = sum(s.attrs["tried"] for s in rs.every("prep._pow_const", "offline"))
    out["prep._nonzero_masks.kept_ratio"] = kept / tried if tried else None
    return out


def table10_report(rs: RequestSpans) -> dict:
    """Measured rounds and cost-model bytes of each protocol's online calls
    next to cli.table10's prediction for the same arguments. A report, not
    a gate. matmul is measured without its truncation child, which
    table10's matmul entry does not include."""
    report = {}
    for name, key in _TABLE10_NAME.items():
        tops = [s for s in rs.tops(f"protocols.{name}", "online") if s.attrs is not None]
        if not tops:
            continue
        rounds = sum(s.rounds for s in tops)
        acct = sum(s.acct_bits for s in tops) / 8
        if name == "matmul":
            for t in tops:
                for c in rs.spans:
                    if c.parent == t.id and c.name == "protocols.truncate":
                        rounds -= c.rounds
                        acct -= c.acct_bits / 8
        pred_rounds = sum(s.attrs["pred_rounds"] for s in tops)
        pred_bytes = sum(s.attrs["pred_bytes"] for s in tops)
        report[key] = {
            "calls": len(tops),
            "rounds": rounds, "pred_rounds": pred_rounds, "rounds_ratio": rounds / pred_rounds,
            "acct_bytes": acct, "pred_bytes": pred_bytes, "bytes_ratio": acct / pred_bytes,
        }
    return report


def root_sums(rs: RequestSpans) -> dict:
    """Rounds, messages and wire bytes summed over the request's root spans;
    equal to the meter's totals for the request when every message is sent
    inside a traced call."""
    roots = rs.roots()
    return {
        "rounds": sum(s.rounds for s in roots),
        "messages": sum(s.messages for s in roots),
        "wire_bytes": sum(s.wire_bytes for s in roots),
    }
