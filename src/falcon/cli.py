"""Operator entry point: bench, infer, train, ingest-mnist, synth-data.

Every command runs the three parties in-process by default (memory
backend); with --backend tcp each party process runs the same command with
its own --party index and a peer-address config file. All parties verify a
session handshake (threat model, ring, fixed-point bits, network hash)
before any data is shared.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import nn
from . import numeric as num
from . import oracle as O
from . import protocols as P
from .data import FormatError, ingest_mnist, load_tensors, write_synth_idx
from .nets import BUILTIN
from .netspec import NetworkSpec, init_float_params
from .prep import DealerPrep, DistributedPrep, FilePrep, RecordingPrep, save_prep_file
from .rings import RingError, RingParams, bit_decompose, decode_fixed, encode_fixed
from .rss import public_share, share_secret
from .session import PartySession, ThreatModel, make_session, run_three_parties
from .transport import TcpLinks

# published end-to-end reference timings (seconds, single inference; not
# measured here - hardware and network bound)
REFERENCE_TIMINGS = {
    "network-a": {"lan-semi": 0.011, "lan-malicious": 0.021, "wan-semi": 0.99, "wan-malicious": 2.33},
    "network-b": {"lan-semi": 0.009, "lan-malicious": 0.022, "wan-semi": 0.76, "wan-malicious": 1.7},
    "network-c": {"lan-semi": 0.042, "lan-malicious": 0.089, "wan-semi": 3.0, "wan-malicious": 7.8},
    "lenet": {"lan-semi": 0.047, "lan-malicious": 0.12, "wan-semi": 3.06, "wan-malicious": 7.87},
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, RingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="falcon")
    sub = parser.add_subparsers(dest="command", required=True)

    def ring(p):
        p.add_argument("--ring-bits", type=int, default=32)
        p.add_argument("--fp-bits", type=int, default=13)

    def common(p):  # the session commands: bench, infer, train
        p.add_argument("--party", type=int, default=0, help="party index for tcp runs (1-3); 0 = all in-process")
        p.add_argument("--config", default=None, help="peer address config (json) for tcp runs")
        p.add_argument("--threat", choices=["semi", "malicious"], default="semi")
        ring(p)
        p.add_argument("--prep", default="dealer", help="dealer | distributed | file:<path>")
        p.add_argument("--backend", choices=["memory", "tcp"], default="memory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--timeout", type=float, default=30.0, help="transport timeout (seconds)")
        p.add_argument("--json", action="store_true", dest="as_json")

    b = sub.add_parser("bench", help="measure a protocol against its analytic cost")
    common(b)
    b.add_argument("--protocol", default="relu",
                   choices=["mult", "matmul", "pc", "wa", "drelu", "relu", "maxpool", "pow", "div", "bn"])
    b.add_argument("--n", type=int, default=1000)
    b.add_argument("--dims", default="4,4,4", help="matmul dims x,y,z")
    b.add_argument("--pool", type=int, default=4, help="maxpool window elements")
    b.add_argument("--groups", type=int, default=1, help="bn normalization groups")
    b.add_argument("--reference", action="store_true", help="print published end-to-end timings")
    b.set_defaults(func=cmd_bench)

    i = sub.add_parser("infer", help="secure inference with float-oracle agreement report")
    common(i)
    i.add_argument("--net", required=True)
    i.add_argument("--weights", required=True, help="ring checkpoint or float .npz")
    i.add_argument("--data", required=True, help="tensor store from ingest-mnist")
    i.add_argument("--count", type=int, default=100)
    i.add_argument("--offset", type=int, default=0)
    i.set_defaults(func=cmd_infer)

    t = sub.add_parser("train", help="secure SGD training")
    common(t)
    t.add_argument("--net", required=True)
    t.add_argument("--data", required=True)
    t.add_argument("--iters", type=int, default=200)
    t.add_argument("--batch", type=int, default=32)
    t.add_argument("--lr-shift", type=int, default=8)
    t.add_argument("--delta-shift", type=int, default=2)
    t.add_argument("--init-seed", type=int, default=3)
    t.add_argument("--train-count", type=int, default=8000)
    t.add_argument("--eval-count", type=int, default=1000)
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
    s.add_argument("--train-n", type=int, default=10000)
    s.add_argument("--test-n", type=int, default=2000)
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
    if args.prep.startswith("file:"):
        path = prep_path(args, sess)
        if os.path.exists(path):
            return FilePrep(path, sess.party, sess.params)
        return RecordingPrep(DealerPrep(sess.party, sess.params, seed=args.seed))  # saved by run_cmd
    raise ValueError(f"unknown prep mode {args.prep!r}")


def prep_path(args, sess: PartySession) -> str:
    """This party's file of a `--prep file:<path>` run."""
    return f"{args.prep[5:]}.p{sess.party.index}"


def run_cmd(args, fn, config_extra: bytes = b""):
    """Run fn(sess) under the requested backend/threat/prep; returns P1's result."""
    params = ring_params(args)
    threat = ThreatModel.SEMI_HONEST if args.threat == "semi" else ThreatModel.MALICIOUS

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

    if args.backend == "memory":
        results = run_three_parties(wrapped, params, threat=threat, session_seed=args.seed)
        return results[0]
    # tcp: this process is one party; peers run the same command
    if args.party not in (1, 2, 3):
        raise SystemExit("--backend tcp requires --party 1|2|3")
    with open(args.config) as f:
        addresses = {int(k): tuple(v) for k, v in json.load(f).items()}
    for idx in addresses:
        env_port = os.environ.get(f"FALCON_PORT_{idx}")
        if env_port:
            addresses[idx] = (addresses[idx][0], int(env_port))
    links = TcpLinks(args.party, addresses, timeout=args.timeout)
    sess = make_session(args.party, links, params, threat, args.seed, args.timeout)
    try:
        return wrapped(sess)
    finally:
        sess.links.close()


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

    Each entry is (rounds, semi-honest bytes, bytes of the openings). The
    malicious model sends every opened element once more, so its bytes are
    the semi-honest bytes plus those of the openings. Rescales whose shift
    depends on the data count as taken.
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
    # bits open with d: bytes per element (semi-honest, of the openings)
    pow_sh, pow_open = (ell - 1) * (2 * k + 1 / 8), (ell - 1) * (k + 1 / 4)
    # divide's final product splits y into c = ceil((w + 2) / h) chunks of h
    # bits; divide refuses h <= 0, so clamping it only keeps this entry defined
    w = num.working_precision(params)
    h = max(1, min(10, ell - 9 - params.fp))
    c = -(-(w + 2) // h)
    table = {
        "mult": (1, k * n, 0),
        "matmul": (1, k * x * z, 0),
        # the mult forming the blinding's products (ell + 2 Z_p products),
        # the tree, the d open with the masked bit
        "pc": (drelu_rounds, 2 * k * n + 3 * n / 8, n / 4),
        # the r open (the products come from preprocessing), then pc's
        # tree levels and open
        "wa": (drelu_rounds, 2 * k * n + n / 8, k * n + n / 4),
        "drelu": (drelu_rounds, 2 * k * n + n / 8, k * n + n / 4),
        # the DReLU opens the lift's e with d; then one mult by the lifted bit
        "relu": (1 + drelu_rounds, 3 * k * n + n / 8, k * n + n / 4),
        # n windows: ceil(log2 wh) tree levels of lifted DReLU + select, wh - 1 of each
        "maxpool": ((wh - 1).bit_length() * (1 + drelu_rounds), (wh - 1) * (3 * k * n + n / 8),
                    (wh - 1) * (k * n + n / 4)),
        "pow": (drelu_rounds, pow_sh * n, pow_open * n),
        # the bounding power (it validates b > 0), the reciprocal series (a
        # rescale, then four mults each rescaled) and the chunked product
        "div": (drelu_rounds + 11 + (c > 1), pow_sh * n + (3 * c + 8) * k * n,
                pow_open * n + (2 * c + 4) * k * n),
        # r groups of n: mean, squared deviations, variance, pow, 1/sqrt
        # (a rescale, four Newton steps of three mults each rescaled, a
        # rescale), then the normalised and the gamma-scaled products
        "bn": (34 + drelu_rounds, 6 * k * r * n + 28 * k * r + pow_sh * r,
               3 * k * r * n + 16 * k * r + pow_open * r),
    }
    rounds, bytes_sh, opened = table[protocol]
    return {"rounds": rounds, "bytes": bytes_sh + opened if threat == "malicious" else bytes_sh}


def _bench_inputs(sess: PartySession, protocol: str, args):
    params = sess.params
    rng = sess.shared_rng
    n = args.n

    def sh(vals, mod):
        return share_secret(vals, mod, rng)[sess.party.index - 1]

    if protocol in ("mult",):
        return (sh(rng.integers(0, params.L, n, dtype=np.uint64), params.L),
                sh(rng.integers(0, params.L, n, dtype=np.uint64), params.L))
    if protocol == "matmul":
        x, y, z = (int(v) for v in args.dims.split(","))
        return (sh(encode_fixed(rng.uniform(-1, 1, (x, y)), params), params.L),
                sh(encode_fixed(rng.uniform(-1, 1, (y, z)), params), params.L))
    if protocol == "pc":
        vals = rng.integers(0, params.L, n, dtype=np.uint64)
        bits = sh(bit_decompose(vals, params), params.p)
        targets = rng.integers(0, params.L, n, dtype=np.uint64)
        return (bits, targets)
    if protocol in ("wa", "drelu", "relu"):
        return (sh(rng.integers(0, params.L, n, dtype=np.uint64), params.L),)
    if protocol == "maxpool":
        return (sh(encode_fixed(rng.uniform(-8, 8, (n, args.pool)), params), params.L),)
    if protocol == "pow":
        return (sh(rng.integers(1, 1 << (params.ell - 2), n, dtype=np.uint64), params.L),)
    if protocol == "div":
        b = np.exp(rng.uniform(np.log(0.5), np.log(50.0), n))
        a = b * rng.uniform(0.5, 2.0, n)
        return (sh(encode_fixed(a, params), params.L), sh(encode_fixed(b, params), params.L))
    if protocol == "bn":
        acts = rng.normal(0, 1, (args.groups, n))
        return (
            sh(encode_fixed(acts, params), params.L),
            sh(encode_fixed(np.ones(args.groups), params), params.L),
            sh(encode_fixed(np.zeros(args.groups), params), params.L),
        )
    raise ValueError(protocol)


def _bench_call(sess: PartySession, protocol: str, inputs):
    if protocol == "mult":
        return P.mult(sess, *inputs)
    if protocol == "matmul":
        return P.matmul(sess, *inputs, truncate_after=False)
    if protocol in ("pc", "wa", "drelu"):
        # a public zero mask: each opens its bit in the compare's last round
        zero = public_share(sess.party, np.uint64(0), 2, shape=inputs[0].shape[:1])
        if protocol == "pc":
            return P.private_compare(sess, inputs[0], inputs[1], zero)
        if protocol == "wa":
            return P.wrap3_protocol(sess, inputs[0], zero)
        return P.drelu(sess, inputs[0], zero)
    if protocol == "relu":
        return P.relu(sess, inputs[0])
    if protocol == "maxpool":
        return P.maxpool_argmax(sess, inputs[0])
    if protocol == "pow":
        return num.bounding_power(sess, inputs[0])
    if protocol == "div":
        return num.divide(sess, inputs[0], inputs[1])
    if protocol == "bn":
        return num.batch_norm_forward(sess, *inputs)
    raise ValueError(protocol)


def cmd_bench(args) -> int:
    params = ring_params(args)

    def job(sess: PartySession):
        inputs = _bench_inputs(sess, args.protocol, args)
        r0, b0, w0 = sess.meter.rounds, sess.meter.acct_bits, sess.meter.wire_bytes
        t0 = time.perf_counter()
        _bench_call(sess, args.protocol, inputs)
        return {
            "rounds": sess.meter.rounds - r0,
            "acct_bytes": (sess.meter.acct_bits - b0) / 8,
            "wire_bytes": sess.meter.wire_bytes - w0,
            "seconds": time.perf_counter() - t0,
        }

    measured = run_cmd(args, job)
    dims = tuple(int(v) for v in args.dims.split(","))
    predicted = table10(args.protocol, params, args.n, args.threat, dims, args.pool, args.groups)
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
    if spec in BUILTIN:
        return BUILTIN[spec]().swap_relu_maxpool()
    with open(spec) as f:
        return NetworkSpec.from_json(f.read()).swap_relu_maxpool()


def load_weights(path: str, params: RingParams) -> tuple[dict, dict]:
    """Returns (raw ring weights, float weights for the reference oracle)."""
    if path.endswith(".npz"):
        floats = {k: v for k, v in np.load(path).items()}
        return {k: encode_fixed(v, params) for k, v in floats.items()}, floats
    raws, ck_params = nn.load_checkpoint(path)
    if (ck_params.ell, ck_params.fp) != (params.ell, params.fp):
        raise FormatError("checkpoint ring parameters do not match the session")
    return raws, {k: decode_fixed(v, params) for k, v in raws.items()}


def _as_net_input(net: NetworkSpec, images: np.ndarray) -> np.ndarray:
    """Images shaped as the net's input: flat rows, or (C, H, W) each."""
    return images.reshape((len(images),) + tuple(net.input_shape))


def cmd_infer(args) -> int:
    params = ring_params(args)
    net = load_net(args.net)
    raws, floats = load_weights(args.weights, params)
    store = load_tensors(args.data)
    lo = args.offset
    hi = lo + args.count
    images = store["images"][lo:hi]
    labels = store["labels"][lo:hi].astype(np.int64)
    images = _as_net_input(net, images)
    float_images = decode_fixed(images, params)

    def job(sess: PartySession):
        state = nn.share_weights(sess, net, raws)
        t0 = time.perf_counter()
        xb = share_secret(images, params.L, sess.shared_rng)[sess.party.index - 1]
        logits = P.reconstruct(sess, nn.forward(sess, state, xb))
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
    store = load_tensors(args.data)
    images = store["images"]
    labels = store["labels"].astype(np.int64)
    images = _as_net_input(net, images)
    n_train = min(args.train_count, len(images) - args.eval_count)
    train_x, train_y = images[:n_train], labels[:n_train]
    eval_x, eval_y = images[n_train : n_train + args.eval_count], labels[n_train : n_train + args.eval_count]

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
    params = ring_params(args)
    tensors = ingest_mnist(args.images, args.labels, args.out, params)
    report = {
        "images": int(tensors["images"].shape[0]),
        "shape": list(tensors["images"].shape),
        "out": args.out,
    }
    emit(args, report, [f"ingested {report['images']} images -> {args.out} "
                        f"(shape {tuple(tensors['images'].shape)})"])
    return 0


def cmd_synth(args) -> int:
    paths = write_synth_idx(args.out_dir, args.train_n, args.test_n, seed=args.seed + 7)
    emit(args, {"paths": paths}, [f"wrote synthetic IDX corpus under {args.out_dir}"]
         + [f"  {k}: {v}" for k, v in paths.items()])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
