"""Operator entry point: bench, infer, train, ingest-mnist, synth-data.

Without --party, a command runs the three parties in-process. With
--party i, this process is party i over TCP: each party runs the same
command with its own index and the same peer-address file (--config).
--timeout bounds every receive in both deployments. All parties verify a
session handshake (threat model, ring, fixed-point bits, network hash)
before any data is shared.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import nn
from . import numeric as num
from . import oracle as O
from . import protocols as P
from .data import (FormatError, check_words, ingest_mnist, load_npz, load_tensors, read_file,
                   write_file, write_synth_idx)
from .nets import BUILTIN
from .netspec import NetworkSpec, init_float_params
from .prep import (DealerPrep, DistributedPrep, FilePrep, PrepMismatchError, RecordingPrep,
                   save_prep_file)
from .rings import RingError, RingParams, decode_fixed, encode_fixed
from .rss import public_share, share_secret
from .session import (AbortError, ConfigMismatchError, PartySession, ThreatModel, make_session,
                      open_share, run_three_parties)
from .transport import DesyncError, TcpLinks

# published end-to-end reference timings (seconds, single inference; not
# measured here - hardware and network bound)
REFERENCE_TIMINGS = {
    "network-a": {"lan-semi": 0.011, "lan-malicious": 0.021, "wan-semi": 0.99, "wan-malicious": 2.33},
    "network-b": {"lan-semi": 0.009, "lan-malicious": 0.022, "wan-semi": 0.76, "wan-malicious": 1.7},
    "network-c": {"lan-semi": 0.042, "lan-malicious": 0.089, "wan-semi": 3.0, "wan-malicious": 7.8},
    "lenet": {"lan-semi": 0.047, "lan-malicious": 0.12, "wan-semi": 3.06, "wan-malicious": 7.87},
}


class SliceError(ValueError):
    """The image flags select too few images of the tensor store."""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "party", None) is not None and args.config is None:
        parser.error("--party needs --config")
    if getattr(args, "config", None) is not None and args.party is None:
        parser.error("--config needs --party")
    if args.command == "train":
        for flag, shift in (("--lr-shift", args.lr_shift), ("--delta-shift", args.delta_shift)):
            if shift > args.ring_bits - 2:  # a truncation pair shifts by at most ell - 2
                parser.error(f"{flag} {shift} is above --ring-bits - 2 = {args.ring_bits - 2}")
    try:
        return args.func(args)
    except (FormatError, RingError, PrepMismatchError, SliceError, num.DomainError) as exc:
        # a bad file or flag, a file of another run, a fixed-point format a protocol refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a refused or silent peer, a receive timeout, a busy port
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (AbortError, DesyncError, ConfigMismatchError) as exc:  # a detected inconsistency, a bad frame, a config mismatch
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def at_least(low: int):
    """An argparse type: an integer no less than low."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
        return value
    return integer


def seconds(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"expected a finite number of seconds > 0, got {text}")
    return value


def matmul_dims(text: str) -> tuple:  # argparse reports a ValueError as an invalid value
    dims = tuple(int(v) for v in text.split(","))
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError(text)
    return dims


def prep_mode(text: str) -> str:
    if text in ("dealer", "distributed") or (text.startswith("file:") and len(text) > 5):
        return text
    raise argparse.ArgumentTypeError(f"expected dealer, distributed or file:<path>, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="falcon")
    sub = parser.add_subparsers(dest="command", required=True)

    def ring(p):
        p.add_argument("--ring-bits", type=int, default=32)
        p.add_argument("--fp-bits", type=int, default=13)

    def common(p):  # the session commands: bench, infer, train
        p.add_argument("--party", type=int, choices=(1, 2, 3), default=None,
                       help="run as this party over TCP (needs --config); default: all three in-process")
        p.add_argument("--config", default=None, help="peer address file (json) of a --party run")
        p.add_argument("--threat", choices=[t.value for t in ThreatModel], default="semi")
        ring(p)
        p.add_argument("--prep", type=prep_mode, default="dealer", help="dealer | distributed | file:<path>")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--timeout", type=seconds, default=30.0, help="transport timeout (seconds)")
        p.add_argument("--json", action="store_true", dest="as_json")

    b = sub.add_parser("bench", help="measure a protocol against its analytic cost")
    common(b)
    b.add_argument("--protocol", default="relu",
                   choices=["mult", "matmul", "pc", "wa", "drelu", "relu", "maxpool", "pow", "div", "bn"])
    b.add_argument("--n", type=at_least(1), default=1000)
    b.add_argument("--dims", type=matmul_dims, default=(4, 4, 4), help="matmul dims x,y,z")
    b.add_argument("--pool", type=at_least(2), default=4, help="maxpool window elements")
    b.add_argument("--groups", type=at_least(1), default=1, help="bn normalization groups")
    b.add_argument("--reference", action="store_true", help="print published end-to-end timings")
    b.set_defaults(func=cmd_bench)

    i = sub.add_parser("infer", help="secure inference with float-oracle agreement report")
    common(i)
    i.add_argument("--net", required=True)
    i.add_argument("--weights", required=True, help="ring checkpoint or float .npz")
    i.add_argument("--data", required=True, help="tensor store from ingest-mnist")
    i.add_argument("--count", type=at_least(1), default=100)
    i.add_argument("--offset", type=at_least(0), default=0)
    i.set_defaults(func=cmd_infer)

    t = sub.add_parser("train", help="secure SGD training")
    common(t)
    t.add_argument("--net", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--iters", type=at_least(0), default=200)
    t.add_argument("--batch", type=at_least(1), default=32)
    t.add_argument("--lr-shift", type=int, default=8)
    t.add_argument("--delta-shift", type=int, default=2)
    t.add_argument("--init-seed", type=int, default=3)
    t.add_argument("--train-count", type=at_least(0), default=8000)
    t.add_argument("--eval-count", type=at_least(0), default=1000)
    t.add_argument("--out", default=None, help="ring checkpoint output path")
    t.add_argument("--check-oracle", action="store_true",
                   help="verify final weights equal the plaintext fixed-point twin")
    t.set_defaults(func=cmd_train)

    m = sub.add_parser("ingest-mnist", help="parse IDX images/labels into the tensor store")
    ring(m)
    m.add_argument("--json", action="store_true", dest="as_json")
    m.add_argument("--images", required=True)
    m.add_argument("--labels", required=True)
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_ingest)

    s = sub.add_parser("synth-data", help="generate the offline digit dataset as IDX files")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true", dest="as_json")
    s.add_argument("--out-dir", required=True)
    s.add_argument("--train-n", type=at_least(0), default=10000)
    s.add_argument("--test-n", type=at_least(0), default=2000)
    s.set_defaults(func=cmd_synth)

    return parser


# ---------------------------------------------------------------------------
# session plumbing


def ring_params(args) -> RingParams:
    return RingParams(ell=args.ring_bits, fp=args.fp_bits)


def make_prep(args, sess: PartySession):
    if args.prep == "dealer":
        return DealerPrep(sess.party, sess.params, seed=args.seed)
    if args.prep == "distributed":
        return DistributedPrep(sess)
    path = prep_path(args, sess)  # file:<path>
    if os.path.exists(path):
        return FilePrep(path, sess.party, sess.params)
    return RecordingPrep(DealerPrep(sess.party, sess.params, seed=args.seed))  # saved by run_cmd


def prep_path(args, sess: PartySession) -> str:
    """This party's file of a `--prep file:<path>` run."""
    return f"{args.prep[5:]}.p{sess.party.index}"


def load_peers(path: str) -> dict:
    """Party index -> (host, port) from a peers file: {"1": ["host", port], ...}."""
    blob = read_file(path, "peers file")
    try:
        peers = json.loads(blob)
        peers = {i: (str(peers[str(i)][0]), int(peers[str(i)][1])) for i in (1, 2, 3)}
        if not all(0 < port < 1 << 16 for _, port in peers.values()):
            raise ValueError("a port is not in 1..65535")
        return peers
    except (KeyError, IndexError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
        raise FormatError(f"peers file {path} is not JSON with a [host, port] for each of parties "
                          f"1, 2 and 3: {type(exc).__name__}: {exc}") from exc


def run_cmd(args, fn, config_extra: bytes = b""):
    """Run fn(sess) at all three parties in-process, or as party --party over
    TCP; returns party 1's result in-process, this party's over TCP."""
    params = ring_params(args)
    threat = ThreatModel(args.threat)

    def wrapped(sess: PartySession):
        sess.prep = make_prep(args, sess)
        blob = json.dumps(
            [args.threat, params.ell, params.p, params.fp, args.seed]
        ).encode() + config_extra
        sess.handshake(blob)
        out = fn(sess)
        if isinstance(sess.prep, RecordingPrep):
            save_prep_file(prep_path(args, sess), sess.party, params, sess.prep.records)
        return out

    if args.party is None:
        return run_three_parties(wrapped, params, threat=threat, session_seed=args.seed,
                                 timeout=args.timeout)[0]
    links = TcpLinks(args.party, load_peers(args.config), timeout=args.timeout)
    sess = make_session(args.party, links, params, threat, args.seed, args.timeout)
    try:
        return wrapped(sess)
    finally:
        links.close()


def emit(args, report: dict, text_lines: list):
    if args.as_json:
        print(json.dumps(report, indent=2, default=float))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# bench


def table10(protocol: str, params: RingParams, n: int, threat: str, dims=(4, 4, 4),
            pool: int = 4, groups: int = 1) -> dict:
    """Analytic round/byte formulas (bytes in cost-model units).

    Each entry is (rounds, bytes). Both threat models send the same ring
    elements; malicious mode adds only integrity metadata (link digests, an
    opening's hash), so `threat` does not change the result. Rescales
    whose shift depends on the data count as taken.
    """
    k = params.ell // 8
    ell = params.ell
    lg = (ell - 1).bit_length()  # ceil(log2 ell): the compare's tree levels
    x, y, z = dims
    wh = pool
    r = groups
    # a DReLU: the r open, the tree's lg levels over ell factors (ell - 1 Z_p
    # products, 1 bit each) and the d open; a masked bit opens with d
    drelu_rounds = 2 + lg
    # the bounding power is one DReLU over ell - 1 probes per element, whose
    # bits open with d: bytes per element
    pow_bytes = (ell - 1) * (2 * k + 1 / 8)
    # divide's final product splits y into c = ceil((w + 2) / h) chunks of h
    # bits; divide refuses h <= 0, so clamping it only keeps this entry defined
    w = num.working_precision(params)
    h = max(1, min(10, ell - 9 - params.fp))
    c = -(-(w + 2) // h)
    table = {
        "mult": (1, k * n),
        "matmul": (1, k * x * z),
        # the tree and the d open with the masked bit (the blinding's
        # products come from preprocessing)
        "pc": (1 + lg, k * n + n / 8),
        # the r open (the products come from preprocessing), then pc's
        # tree levels and open
        "wa": (drelu_rounds, 2 * k * n + n / 8),
        "drelu": (drelu_rounds, 2 * k * n + n / 8),
        # the DReLU opens the lift's e with d; then one mult by the lifted bit
        "relu": (1 + drelu_rounds, 3 * k * n + n / 8),
        # n windows: ceil(log2 wh) tree levels of lifted DReLU + select, wh - 1 of each
        "maxpool": ((wh - 1).bit_length() * (1 + drelu_rounds), (wh - 1) * (3 * k * n + n / 8)),
        "pow": (drelu_rounds, pow_bytes * n),
        # the bounding power (it validates b > 0), the reciprocal series (a
        # rescale, then four mults each rescaled) and the chunked product
        "div": (drelu_rounds + 11 + (c > 1), pow_bytes * n + (3 * c + 8) * k * n),
        # r groups of n: mean, squared deviations, variance, pow, 1/sqrt
        # (a rescale, four Newton steps of three mults each rescaled, a
        # rescale), then the normalised and the gamma-scaled products
        "bn": (34 + drelu_rounds, 6 * k * r * n + 28 * k * r + pow_bytes * r),
    }
    rounds, nbytes = table[protocol]
    return {"rounds": rounds, "bytes": nbytes}


def bench_call(sess: PartySession, args):
    """Draw the inputs of `args.protocol` from the shared rng; returns the
    call that cmd_bench measures."""
    params = sess.params
    rng = sess.shared_rng
    n = args.n

    def sh(vals, mod=params.L):
        return share_secret(vals, mod, rng)[sess.party.index - 1]

    def ring_elems():
        return rng.integers(0, params.L, n, dtype=np.uint64)

    def zero():  # a public mask: a comparison opens its bit in the compare's last round
        return public_share(sess.party, np.uint64(0), 2, shape=(n,))

    match args.protocol:
        case "mult":
            a, b = sh(ring_elems()), sh(ring_elems())
            return lambda: P.mult(sess, a, b)
        case "matmul":
            x, y, z = args.dims
            a = sh(encode_fixed(rng.uniform(-1, 1, (x, y)), params))
            b = sh(encode_fixed(rng.uniform(-1, 1, (y, z)), params))
            return lambda: P.matmul(sess, a, b, truncate_after=False)
        case "pc":  # as DReLU runs it: on preprocessed bits, drawn before the call
            rand = sess.prep.wrap_rands(n)
            targets = ring_elems()
            return lambda: P.private_compare(sess, targets, zero(), rand)
        case "wa":
            a = sh(ring_elems())
            return lambda: P.wrap3_protocol(sess, a, zero())
        case "drelu":
            a = sh(ring_elems())
            return lambda: P.drelu(sess, a, zero())
        case "relu":
            a = sh(ring_elems())
            return lambda: P.relu(sess, a)
        case "maxpool":
            a = sh(encode_fixed(rng.uniform(-8, 8, (n, args.pool)), params))
            return lambda: P.maxpool_argmax(sess, a)
        case "pow":
            a = sh(rng.integers(1, 1 << (params.ell - 2), n, dtype=np.uint64))
            return lambda: num.bounding_power(sess, a)
        case "div":
            b = np.exp(rng.uniform(np.log(0.5), np.log(50.0), n))
            a = b * rng.uniform(0.5, 2.0, n)
            sa, sb = sh(encode_fixed(a, params)), sh(encode_fixed(b, params))
            return lambda: num.divide(sess, sa, sb)
        case "bn":
            acts = rng.normal(0, 1, (args.groups, n))
            inputs = [sh(encode_fixed(v, params))
                      for v in (acts, np.ones(args.groups), np.zeros(args.groups))]
            return lambda: num.batch_norm_forward(sess, *inputs)
    raise ValueError(args.protocol)


def cmd_bench(args) -> int:
    params = ring_params(args)

    def job(sess: PartySession):
        call = bench_call(sess, args)
        r0, b0, w0 = sess.meter.rounds, sess.meter.acct_bits, sess.meter.wire_bytes
        t0 = time.perf_counter()
        call()
        return {
            "rounds": sess.meter.rounds - r0,
            "acct_bytes": (sess.meter.acct_bits - b0) / 8,
            "wire_bytes": sess.meter.wire_bytes - w0,
            "seconds": time.perf_counter() - t0,
        }

    measured = run_cmd(args, job)
    predicted = table10(args.protocol, params, args.n, args.threat, args.dims, args.pool, args.groups)
    report = {
        "protocol": args.protocol,
        "n": args.n,
        "threat": args.threat,
        "ring_bits": params.ell,
        "measured": measured,
        "predicted": predicted,
        "round_ratio": measured["rounds"] / predicted["rounds"],
        "byte_ratio": measured["acct_bytes"] / predicted["bytes"],
    }
    lines = [
        f"protocol {args.protocol}  n={args.n}  threat={args.threat}  ell={params.ell}",
        f"  measured : rounds {measured['rounds']:.0f}  bytes/party {measured['acct_bytes']:.1f} "
        f"(wire {measured['wire_bytes']:.0f})  wall {measured['seconds'] * 1e3:.2f} ms",
        f"  predicted: rounds {predicted['rounds']}  bytes/party {predicted['bytes']}",
        f"  ratio    : rounds {report['round_ratio']:.3f}  bytes {report['byte_ratio']:.3f}",
    ]
    if args.reference:
        lines.append("published end-to-end inference timings (seconds, reference only):")
        for net, vals in REFERENCE_TIMINGS.items():
            lines.append(f"  {net:10s} " + "  ".join(f"{k}={v}" for k, v in vals.items()))
        report["reference_timings"] = REFERENCE_TIMINGS
    emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# infer


def load_net(spec: str) -> NetworkSpec:
    """A built-in net by name, or a network file whose layer shapes chain up to its classes."""
    if spec in BUILTIN:
        return BUILTIN[spec]().swap_relu_maxpool()
    blob = read_file(spec, "network file")
    try:
        net = NetworkSpec.from_json(blob)
        net.activation_shapes()
    except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad JSON
        raise FormatError(f"network file {spec}: {type(exc).__name__}: {exc}") from exc
    return net.swap_relu_maxpool()


def load_weights(path: str, params: RingParams, net: NetworkSpec) -> tuple[dict, dict]:
    """Returns (raw ring weights, float weights for the reference oracle) of
    every `<layer>.<param>` of the net, once each is present in its shape and,
    for a float `.npz`, real numbers inside the fixed-point range."""
    npz = path.endswith(".npz")
    if npz:
        weights = load_npz(path)
    else:
        weights, ck_params = nn.load_checkpoint(path)
        if (ck_params.ell, ck_params.fp) != (params.ell, params.fp):
            raise FormatError(f"{path}: ring parameters do not match the session")
    raws, floats = {}, {}
    for key, want in net.param_layout():
        if key not in weights:
            raise FormatError(f"{path}: missing {key!r}")
        value = weights[key]
        if value.shape != want:
            raise FormatError(f"{path}: {key!r} has shape {value.shape}, not {want}")
        if not npz:
            raws[key], floats[key] = value, decode_fixed(value, params)
            continue
        if value.dtype.kind not in "biuf":
            raise FormatError(f"{path}: {key!r} holds {value.dtype}, not real numbers")
        try:
            raws[key], floats[key] = encode_fixed(value, params), value
        except OverflowError as exc:
            raise FormatError(f"{path}: {key!r}: {exc}") from None
    return raws, floats


def load_images(path: str, net: NetworkSpec, params: RingParams) -> tuple[np.ndarray, np.ndarray]:
    """(images shaped as the net's input, int64 labels) of a tensor store
    that holds one label per image and ring words that fit the net."""
    store = load_tensors(path)
    if "images" not in store or "labels" not in store:
        raise FormatError(f"{path}: needs both 'images' and 'labels'")
    images, labels = store["images"], store["labels"]
    if images.ndim == 0 or labels.shape != images.shape[:1]:
        raise FormatError(f"{path}: not one label per image: {labels.shape} labels, {images.shape} images")
    if math.prod(images.shape[1:]) != math.prod(net.input_shape):
        raise FormatError(f"{path}: images of shape {images.shape[1:]} do not fit {net.input_shape}")
    check_words(path, "images", images, params.L)
    return images.reshape((len(images),) + tuple(net.input_shape)), labels.astype(np.int64)


def cmd_infer(args) -> int:
    params = ring_params(args)
    net = load_net(args.net)
    raws, floats = load_weights(args.weights, params, net)
    images, labels = load_images(args.data, net, params)
    if args.offset >= len(images):
        raise SliceError(f"--offset {args.offset} --count {args.count} selects none of the "
                         f"{len(images)} images of {args.data}")
    images, labels = (a[args.offset : args.offset + args.count] for a in (images, labels))
    float_images = decode_fixed(images, params)

    def job(sess: PartySession):
        state = nn.share_weights(sess, net, raws)
        t0 = time.perf_counter()
        xb = share_secret(images, params.L, sess.shared_rng)[sess.party.index - 1]
        logits = open_share(sess, nn.forward(sess, state, xb))
        wall = time.perf_counter() - t0
        return logits, wall, dict(sess.meter.snapshot())

    logits_raw, wall, meter = run_cmd(args, job, config_extra=net.config_hash())
    secure_logits = decode_fixed(logits_raw, params)
    ref_logits = O.float_forward(net, floats, float_images)
    sec_pred = secure_logits.argmax(axis=1)
    ref_pred = ref_logits.argmax(axis=1)
    agree = int((sec_pred == ref_pred).sum())
    rel = np.linalg.norm(secure_logits - ref_logits, axis=1) / np.maximum(
        np.linalg.norm(ref_logits, axis=1), 1e-9
    )
    acc = float((sec_pred == labels).mean()) if labels.size else float("nan")
    report = {
        "net": net.name,
        "count": len(images),
        "threat": args.threat,
        "agreement": agree,
        "mean_relative_error": float(rel.mean()),
        "secure_accuracy": acc,
        "oracle_accuracy": float((ref_pred == labels).mean()),
        "seconds": wall,
        "meter": meter,
    }
    lines = [
        f"net {net.name}  images {len(images)}  threat {args.threat}",
        f"  secure vs float-oracle agreement: {agree}/{len(images)}",
        f"  mean relative logit error: {rel.mean():.4%}",
        f"  secure accuracy {acc:.3f}  oracle accuracy {report['oracle_accuracy']:.3f}",
        f"  wall {wall:.2f}s  rounds {meter['rounds']}  bytes/party {meter['acct_bytes']:.0f}",
    ]
    emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    params = ring_params(args)
    net = load_net(args.net)
    images, labels = load_images(args.data, net, params)
    n_train = max(0, min(args.train_count, len(images) - args.eval_count))
    if n_train < args.batch:
        raise SliceError(f"--train-count {args.train_count} --eval-count {args.eval_count} leave "
                         f"{n_train} of the {len(images)} images of {args.data} to train on, "
                         f"fewer than --batch {args.batch}")
    train_x, train_y = images[:n_train], labels[:n_train]
    eval_x, eval_y = images[n_train : n_train + args.eval_count], labels[n_train : n_train + args.eval_count]
    if args.out:
        write_file(args.out, "checkpoint", [])  # an unwritable path fails before training

    def job(sess: PartySession):
        t0 = time.perf_counter()
        state = nn.train_secure(
            sess, net, train_x, train_y, iters=args.iters, batch=args.batch,
            lr_shift=args.lr_shift, delta_shift=args.delta_shift,
            batch_seed=args.seed + 2024, init_seed=args.init_seed,
            log=None if args.as_json else max(1, args.iters // 10),
        )
        preds = nn.secure_predict(sess, state, eval_x) if len(eval_x) else np.array([])
        return nn.open_params(sess, state), preds, time.perf_counter() - t0

    final_raws, preds, wall = run_cmd(args, job, config_extra=net.config_hash())
    acc = float((preds == eval_y).mean()) if len(eval_x) else float("nan")
    report = {
        "net": net.name,
        "iters": args.iters,
        "batch": args.batch,
        "lr_shift": args.lr_shift,
        "delta_shift": args.delta_shift,
        "eval_accuracy": acc,
        "seconds": wall,
    }
    lines = [
        f"trained {net.name} for {args.iters} iterations (batch {args.batch}) in {wall:.1f}s",
        f"  held-out accuracy on {len(eval_x)} images: {acc:.3f}",
    ]
    if args.check_oracle:
        raw0 = {k: encode_fixed(v, params)
                for k, v in init_float_params(net, args.init_seed).items()}
        twin = O.fx_train_loop(net, raw0, train_x, train_y, iters=args.iters,
                               batch=args.batch, lr_shift=args.lr_shift,
                               delta_shift=args.delta_shift,
                               batch_seed=args.seed + 2024, params=params)
        same = all(np.array_equal(final_raws[k], twin[k]) for k in twin)
        report["oracle_bit_identical"] = bool(same)
        lines.append(f"  plaintext fixed-point twin bit-identical: {same}")
    if args.out:
        nn.save_checkpoint(args.out, final_raws, params)
        lines.append(f"  checkpoint written to {args.out}")
        report["checkpoint"] = args.out
    emit(args, report, lines)
    return 0


# ---------------------------------------------------------------------------
# data commands


def cmd_ingest(args) -> int:
    shape = ingest_mnist(args.images, args.labels, args.out, ring_params(args))["images"].shape
    report = {"images": shape[0], "shape": list(shape), "out": args.out}
    emit(args, report, [f"ingested {shape[0]} images -> {args.out} (shape {shape})"])
    return 0


def cmd_synth(args) -> int:
    paths = write_synth_idx(args.out_dir, args.train_n, args.test_n, seed=args.seed + 7)
    emit(args, {"paths": paths}, [f"wrote synthetic IDX corpus under {args.out_dir}"]
         + [f"  {k}: {v}" for k, v in paths.items()])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
