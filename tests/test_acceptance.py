"""Acceptance criteria: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
The end-to-end criteria use the deterministic synthetic digit corpus (the
build environment has no network access for the real one); formats,
pipelines and tolerances are identical.
"""

import math
import time

import numpy as np
import pytest

from falcon import nn
from falcon import numeric as N
from falcon import oracle as O
from falcon import protocols as P
from falcon.data import synth_digits
from falcon.nets import network_a, network_b, network_c
from falcon.netspec import init_float_params
from falcon.prep import DealerPrep
from falcon.rings import RingParams, decode_fixed, encode_fixed, wrap3
from falcon.rss import share_secret
from falcon.session import AbortError, ThreatModel, open_share, run_three_parties
from falcon.transport import FaultInjector

from test_compare_wrap import chosen_compare_rand, compare_chosen, wrap3_greek_terms
from test_protocols import run_shared, shared_input, zero_mask
from test_relu_maxpool import maxpool_onehot

PARAMS = RingParams(ell=32, fp=13)
P16 = RingParams(ell=32, fp=16)


def verdict(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(f"\n{line}")
    assert ok, line


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def digits():
    img, lab = synth_digits(10_000, seed=7)
    flat = encode_fixed(img.astype(np.float64) / 256.0, PARAMS).reshape(-1, 784)
    conv = flat.reshape(-1, 1, 28, 28)
    return {"flat": flat, "conv": conv, "labels": lab.astype(np.int64),
            "float_flat": img.astype(np.float64).reshape(-1, 784) / 256.0,
            "float_conv": img.astype(np.float64).reshape(-1, 1, 28, 28) / 256.0}


@pytest.fixture(scope="module")
def pretrained(digits):
    """Float-pretrained A/B/C weights, calibrated to the fixed-point envelope."""
    out = {}
    for maker, key, iters, lr in ((network_a, "flat", 300, 0.3),
                                  (network_b, "conv", 250, 0.3),
                                  (network_c, "conv", 250, 0.3)):
        net = maker().swap_relu_maxpool()
        x = digits[f"float_{key}"]
        params = O.float_train(net, init_float_params(net, seed=1),
                               x[:5000], digits["labels"][:5000], iters, 32, lr, seed=2)
        params = O.calibrate_float_params(net, params, x[5000:5400], limit=10.0)
        out[net.name] = (net, params, key)
    return out


# ---------------------------------------------------------------------------
# 1. comparison oracle equivalence


def test_criterion_1_private_compare_exhaustive():
    params = RingParams(ell=8, fp=4)
    t0 = time.time()
    rng = np.random.default_rng(11)
    r_vals = np.concatenate([rng.integers(0, 256, 60, dtype=np.uint64),
                             [0, 1, 254, 255]]).astype(np.uint64)
    xs = np.tile(np.arange(256, dtype=np.uint64), len(r_vals))
    rs = np.repeat(r_vals, 256)

    def job(sess):
        return compare_chosen(sess, xs, rs, zero_mask(sess, len(xs)))

    got = run_shared(params, job, seed=1)[0]
    expect = (xs > rs).astype(np.uint64)
    failures = int((got != expect).sum())
    wall = time.time() - t0
    verdict(1, failures == 0 and wall <= 120,
            f"private compare equals (x > r) on all 256 x times {len(r_vals)} r "
            f"at ell=8 ({failures} failures, {wall:.1f}s)")


# ---------------------------------------------------------------------------
# 2. wrap correctness + transcript identity


def test_criterion_2_wrap(monkeypatch):
    failures = 0
    identity_fail = 0
    for ell in (16, 32):
        params = RingParams(ell=ell, fp=min(13, ell - 3))
        rng = np.random.default_rng(ell)
        comps = [rng.integers(0, params.L, 10_000, dtype=np.uint64) for _ in range(3)]
        expect = wrap3(comps[0], comps[1], comps[2], params.L)
        # theta = beta1+beta2+beta3+delta-eta-alpha (mod 2), every transcript
        got, rhs = wrap3_greek_terms(monkeypatch, params, comps, seed=2)
        failures += int((got != expect).sum())
        identity_fail += int((got != rhs).sum())
    verdict(2, failures == 0 and identity_fail == 0,
            f"wrap3 equals exact wrap mod 2 on 2x10^4 sharings at ell=16/32 "
            f"({failures} mismatches) and the greek identity holds on every "
            f"transcript ({identity_fail} violations)")


# ---------------------------------------------------------------------------
# 3. ReLU / DReLU


def test_criterion_3_relu_drelu():
    # exhaustive at ell = 8
    p8 = RingParams(ell=8, fp=4)
    xs8 = np.arange(256, dtype=np.uint64)

    def job8(sess):
        a = shared_input(sess, xs8, p8.L)
        return P.drelu(sess, a, zero_mask(sess, a.shape)), open_share(sess, P.relu(sess, a))

    d8, r8 = run_shared(p8, job8, seed=3)[0]
    ok8 = np.array_equal(d8, O.oracle_drelu(xs8, p8)) and np.array_equal(r8, O.oracle_relu(xs8, p8))

    # 10^5 random at ell = 32 with meters
    rng = np.random.default_rng(33)
    xs = rng.integers(0, PARAMS.L, 100_000, dtype=np.uint64)
    meters = {}

    def job32(threat):
        def run(sess):
            a = shared_input(sess, xs, PARAMS.L)
            r0, b0 = sess.meter.rounds, sess.meter.acct_bits
            out = open_share(sess, P.relu(sess, a))
            meters[threat] = (sess.meter.rounds - r0 - 1, sess.meter.acct_bits - b0)
            return out

        return run

    got = run_shared(PARAMS, job32("semi"), seed=3)[0]
    ok32 = np.array_equal(got, O.oracle_relu(xs, PARAMS))
    got_m = run_shared(PARAMS, job32("malicious"), threat=ThreatModel.MALICIOUS, seed=3)[0]
    ok32m = np.array_equal(got_m, O.oracle_relu(xs, PARAMS))

    # meter: subtract the final reconstruction round/bytes (it is not part
    # of the protocol) - rounds recorded already exclude it above
    from falcon.cli import table10

    k, n = PARAMS.ell // 8, 100_000
    rounds_semi = meters["semi"][0]
    bytes_semi = meters["semi"][1] / 8 - k * n  # minus the output opening
    bytes_mal = meters["malicious"][1] / 8 - 2 * k * n  # sent by both peers
    bound_semi = 1.25 * table10("relu", PARAMS, n, "semi")["bytes"]
    bound_mal = 1.25 * table10("relu", PARAMS, n, "malicious")["bytes"]
    rounds_ok = rounds_semi == 3 + int(math.log2(PARAMS.ell))
    bytes_ok = bytes_semi <= bound_semi and bytes_mal <= bound_mal
    verdict(3, ok8 and ok32 and ok32m and rounds_ok and bytes_ok,
            f"exhaustive ell=8 and 10^5 random ell=32 exact (semi+malicious); "
            f"relu rounds {rounds_semi} == 8; bytes {bytes_semi:.0f} <= {bound_semi:.0f} "
            f"semi, {bytes_mal:.0f} <= {bound_mal:.0f} malicious")


# ---------------------------------------------------------------------------
# 4. maxpool


def test_criterion_4_maxpool():
    rng = np.random.default_rng(44)
    failures = 0
    trials = 0
    batches = []
    for n in range(2, 17):
        count = 67 if n > 2 else 62  # 1000 vectors total across lengths
        vals = rng.integers(-40, 40, (count, n))
        dup = rng.random((count, n)) < 0.2
        vals = np.where(dup, vals.max(axis=1, keepdims=True), vals)  # force ties
        batches.append(vals.astype(np.float64))

    def job(sess):
        outs = []
        for vals in batches:
            a = shared_input(sess, encode_fixed(vals, sess.params), sess.params.L)
            mx, ind = maxpool_onehot(sess, a)
            outs.append((open_share(sess, mx), open_share(sess, ind)))
        return outs

    outs = run_shared(PARAMS, job, seed=4)[0]
    for vals, (mx, ind) in zip(batches, outs):
        expect_max = encode_fixed(vals.max(axis=1), PARAMS)
        expect_idx = np.argmax(vals, axis=1)  # earliest tie
        trials += len(vals)
        failures += int((mx != expect_max).sum())
        failures += int((np.argmax(ind, axis=1) != expect_idx).sum())
        failures += int((ind.sum(axis=1) != 1).sum())
    verdict(4, failures == 0,
            f"maxpool+argmax equals earliest-tie oracle on {trials} random vectors "
            f"of lengths 2..16 ({failures} mismatches)")


# ---------------------------------------------------------------------------
# 5. numeric kernels


def test_criterion_5_numerics():
    rng = np.random.default_rng(55)
    # divide at the default precision over the stated divisor range
    b = np.exp(rng.uniform(np.log(0.01), np.log(100.0), 1000))
    a = np.minimum(b * np.exp(rng.uniform(np.log(0.75), np.log(4.0), 1000)), 100.0)
    a_raw, b_raw = encode_fixed(a, PARAMS), encode_fixed(b, PARAMS)

    def job_div(sess):
        ash = shared_input(sess, a_raw, PARAMS.L)
        bsh = shared_input(sess, b_raw, PARAMS.L)
        return open_share(sess, N.divide(sess, ash, bsh))

    got = decode_fixed(run_shared(PARAMS, job_div, seed=5)[0], PARAMS)
    aq, bq = decode_fixed(a_raw, PARAMS), decode_fixed(b_raw, PARAMS)
    div_rel = float(np.max(np.abs(got - aq / bq) / (aq / bq)))

    # inverse square root over the full stated range (fp=16: at fp=13 the
    # output granularity near 1/sqrt(2^10) exceeds the tolerance)
    bv = np.exp(rng.uniform(np.log(2.0**-6), np.log(2.0**10), 1000))
    bv_raw = encode_fixed(bv, P16)

    def job_inv(sess):
        bsh = shared_input(sess, bv_raw, P16.L)
        alpha = N.bounding_power(sess, bsh)
        return open_share(sess, N.inv_sqrt_newton(sess, bsh, alpha))

    inv = decode_fixed(run_shared(P16, job_inv, seed=5)[0], P16)
    bq16 = decode_fixed(bv_raw, P16)
    inv_rel = float(np.max(np.abs(inv - 1 / np.sqrt(bq16)) * np.sqrt(bq16)))

    # square root over the same range (default precision suffices)
    sv_raw = encode_fixed(bv, PARAMS)

    def job_sqrt(sess):
        ash = shared_input(sess, sv_raw, PARAMS.L)
        return open_share(sess, N.sqrt_newton(sess, ash))

    sq = decode_fixed(run_shared(PARAMS, job_sqrt, seed=5)[0], PARAMS)
    sq_q = decode_fixed(sv_raw, PARAMS)
    sqrt_rel = float(np.max(np.abs(sq - np.sqrt(sq_q)) / np.sqrt(sq_q)))

    # bounding power on 10^4 samples
    vals = rng.integers(1, 1 << 30, 10_000, dtype=np.uint64)

    def job_pow(sess):
        xsh = shared_input(sess, vals, PARAMS.L)
        return N.bounding_power(sess, xsh)

    alpha = run_shared(PARAMS, job_pow, seed=5)[0]
    v = vals.astype(np.float64)
    pow_ok = bool(np.all((2.0**alpha <= v) & (v < 2.0 ** (alpha + 1))))

    ok = div_rel <= 1e-3 and inv_rel <= 1e-3 and sqrt_rel <= 1e-3 and pow_ok
    verdict(5, ok,
            f"divide max rel {div_rel:.2e} <= 1e-3 (10^3 operands, divisors in [0.01, 100]); "
            f"inv-sqrt {inv_rel:.2e} and sqrt {sqrt_rel:.2e} <= 1e-3 after 4 iterations "
            f"over [2^-6, 2^10]; bounding power exact on 10^4 samples: {pow_ok}")


# ---------------------------------------------------------------------------
# 6. batch norm


def test_criterion_6_batch_norm():
    worst_mean = 0.0
    worst_var_err = 0.0
    for m in (8, 32, 128):
        rng = np.random.default_rng(m)
        acts = rng.normal(0, 1.0, size=(6, m))

        def job(sess):
            a = shared_input(sess, encode_fixed(acts, PARAMS), PARAMS.L)
            g = shared_input(sess, encode_fixed(np.ones(6), PARAMS), PARAMS.L)
            bta = shared_input(sess, encode_fixed(np.zeros(6), PARAMS), PARAMS.L)
            return open_share(sess, N.batch_norm_forward(sess, a, g, bta)[0])

        z = decode_fixed(run_shared(PARAMS, job, seed=6)[0], PARAMS)
        mu = acts.mean(axis=1, keepdims=True)
        var = ((acts - mu) ** 2).mean(axis=1)
        expect_var = var / (var + 2.0**-10)
        worst_mean = max(worst_mean, float(np.abs(z.mean(axis=1)).max()))
        worst_var_err = max(worst_var_err,
                            float(np.max(np.abs(z.var(axis=1) - expect_var) / expect_var)))
    verdict(6, worst_mean <= 1e-2 and worst_var_err <= 0.05,
            f"normalized batches (m=8/32/128): |mean| max {worst_mean:.1e} <= 1e-2, "
            f"variance within {worst_var_err:.1%} of sigma^2/(sigma^2+eps) (<= 5%)")


# ---------------------------------------------------------------------------
# 7. malicious abort under fault injection


def test_criterion_7_malicious_abort(pretrained, digits):
    net, fparams, key = pretrained["network-b"]
    raws = {k: encode_fixed(v, PARAMS) for k, v in fparams.items()}
    batch = digits[key][6000:6002]

    def forward_job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=7)
        state = nn.share_weights(sess, net, raws)
        xb = share_secret(batch, PARAMS.L, sess.shared_rng)[sess.party.index - 1]
        return open_share(sess, nn.forward(sess, state, xb))

    # count the message sites of one clean malicious forward pass
    counts = {}

    def counting(sess):
        out = forward_job(sess)
        counts[sess.party.index] = sess.meter.messages
        return out

    clean = run_three_parties(counting, PARAMS, threat=ThreatModel.MALICIOUS, session_seed=7)
    total_sites = sum(counts.values())

    rng = np.random.default_rng(77)
    sites = rng.choice(total_sites, size=100, replace=False)
    aborted = 0
    leaked = 0
    for site in sites:
        fault = FaultInjector(int(site))
        try:
            results = run_three_parties(
                forward_job, PARAMS, threat=ThreatModel.MALICIOUS,
                session_seed=7, fault=fault,
            )
            leaked += 1  # run completed despite tampering
        except AbortError:
            aborted += 1
        assert fault.fired, f"site {site} out of range"
    verdict(7, aborted == 100 and leaked == 0,
            f"single-byte tampering at 100 sampled reconstruction/reshare sites of a "
            f"{net.name} forward pass ({total_sites} sites total): {aborted}/100 aborted, "
            f"{leaked} outputs released")


# ---------------------------------------------------------------------------
# 8. end-to-end inference


def test_criterion_8_inference(pretrained, digits):
    t0 = time.time()
    summary = []
    all_ok = True
    for name in ("network-a", "network-b", "network-c"):
        net, fparams, key = pretrained[name]
        raws = {k: encode_fixed(v, PARAMS) for k, v in fparams.items()}
        images = digits[key][6000:6100]
        float_images = digits[f"float_{key}"][6000:6100]

        def job(sess):
            state = nn.share_weights(sess, net, raws)
            xb = share_secret(images, PARAMS.L, sess.shared_rng)[sess.party.index - 1]
            return open_share(sess, nn.forward(sess, state, xb))

        def with_dealer(sess):
            sess.prep = DealerPrep(sess.party, PARAMS, seed=8)
            return job(sess)

        logits = decode_fixed(run_three_parties(with_dealer, PARAMS, session_seed=8)[0], PARAMS)
        ref = O.float_forward(net, fparams, float_images)
        agree = int((logits.argmax(1) == ref.argmax(1)).sum())
        rel = float((np.linalg.norm(logits - ref, axis=1)
                     / np.linalg.norm(ref, axis=1)).mean())
        summary.append(f"{name}: {agree}/100 agree, rel err {rel:.3%}")
        all_ok &= agree >= 99 and rel <= 0.01
    wall = time.time() - t0
    verdict(8, all_ok and wall <= 600,
            "; ".join(summary) + f" (float-oracle comparison, {wall:.0f}s)")


# ---------------------------------------------------------------------------
# 9. desk-scale training


def test_criterion_9_training(digits):
    t0 = time.time()
    net = network_a()
    train_x = digits["flat"][:8000]
    train_y = digits["labels"][:8000]
    eval_x = digits["flat"][8000:9000]
    eval_y = digits["labels"][8000:9000]

    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=9)
        state = nn.train_secure(sess, net, train_x, train_y, iters=200, batch=32,
                                lr_shift=8, delta_shift=2, batch_seed=2024, init_seed=3)
        preds = nn.secure_predict(sess, state, eval_x)
        return nn.open_params(sess, state), preds

    final_raws, preds = run_three_parties(job, PARAMS, session_seed=9)[0]
    acc = float((preds == eval_y).mean())

    raw0 = {k: encode_fixed(v, PARAMS) for k, v in init_float_params(net, 3).items()}
    twin = O.fx_train_loop(net, raw0, train_x, train_y, iters=200, batch=32,
                           lr_shift=8, delta_shift=2, batch_seed=2024, params=PARAMS)
    identical = all(np.array_equal(final_raws[k], twin[k]) for k in twin)
    wall = time.time() - t0
    verdict(9, acc >= 0.85 and identical,
            f"200 secure SGD iterations (batch 32, 8k subset): held-out accuracy "
            f"{acc:.1%} >= 85%; final weights bit-identical to the plaintext "
            f"fixed-point twin: {identical} ({wall:.0f}s)")


# ---------------------------------------------------------------------------
# 10. cost model


def test_criterion_10_cost_model():
    from falcon.cli import table10

    lines = []
    all_ok = True

    def measure(protocol, n, threat, make_inputs, call):
        def job(sess):
            inputs = make_inputs(sess)
            r0, b0 = sess.meter.rounds, sess.meter.acct_bits
            call(sess, inputs)
            return sess.meter.rounds - r0, (sess.meter.acct_bits - b0) / 8

        threat_model = ThreatModel.MALICIOUS if threat == "malicious" else ThreatModel.SEMI_HONEST
        return run_shared(PARAMS, job, threat=threat_model, seed=10)[0]

    rng = np.random.default_rng(10)
    n = 64
    # pre-generated inputs: the party threads must share identical values
    mat_a = encode_fixed(rng.uniform(-1, 1, (4, 4)), PARAMS)
    mat_b = encode_fixed(rng.uniform(-1, 1, (4, 4)), PARAMS)
    pc_vals = rng.integers(0, PARAMS.L, n, dtype=np.uint64)
    pc_targets = rng.integers(0, PARAMS.L, n, dtype=np.uint64)
    vec_vals = rng.integers(0, PARAMS.L, n, dtype=np.uint64)
    pos_vals = rng.integers(1, 1 << 29, n, dtype=np.uint64)
    div_b = np.exp(rng.uniform(np.log(0.5), np.log(50.0), n))
    bn_acts = encode_fixed(rng.normal(0, 1, (2, n)), PARAMS)
    windows = {wh: encode_fixed(rng.uniform(-8, 8, (n, wh)), PARAMS) for wh in (4, 9)}

    def mk_matmul(sess):
        return (shared_input(sess, mat_a, PARAMS.L), shared_input(sess, mat_b, PARAMS.L))

    def mk_bits(sess):
        return (chosen_compare_rand(sess, pc_vals),)

    def mk_vec(sess):
        return (shared_input(sess, vec_vals, PARAMS.L),)

    def mk_pos(sess):
        return (shared_input(sess, pos_vals, PARAMS.L),)

    def mk_div(sess):
        return (shared_input(sess, encode_fixed(div_b * 1.5, PARAMS), PARAMS.L),
                shared_input(sess, encode_fixed(div_b, PARAMS), PARAMS.L))

    def mk_windows(wh):
        return lambda sess: (shared_input(sess, windows[wh], PARAMS.L),)

    def mk_bn(sess):
        return (shared_input(sess, bn_acts, PARAMS.L),
                shared_input(sess, encode_fixed(np.ones(2), PARAMS), PARAMS.L),
                shared_input(sess, encode_fixed(np.zeros(2), PARAMS), PARAMS.L))

    cases = [
        ("matmul", mk_matmul, lambda s, i: P.matmul(s, *i, truncate_after=False), dict(dims=(4, 4, 4))),
        ("pc", mk_bits,
         lambda s, i: P.private_compare(s, i[0].xbits, pc_targets, zero_mask(s, n), i[0]), {}),
        ("wa", mk_vec, lambda s, i: P.wrap3_protocol(s, i[0], zero_mask(s, n)), {}),
        ("drelu", mk_vec, lambda s, i: P.drelu(s, i[0], zero_mask(s, n)), {}),
        ("relu", mk_vec, lambda s, i: P.relu(s, i[0]), {}),
        ("maxpool", mk_windows(4), lambda s, i: P.maxpool_argmax(s, i[0]), dict(pool=4)),
        ("maxpool", mk_windows(9), lambda s, i: P.maxpool_argmax(s, i[0]), dict(pool=9)),
        ("pow", mk_pos, lambda s, i: N.bounding_power(s, i[0]), {}),
        ("div", mk_div, lambda s, i: N.divide(s, *i), {}),
        ("bn", mk_bn, lambda s, i: N.batch_norm_forward(s, *i), dict(groups=2)),
    ]
    mult_family_ratios = {}
    for proto, mk, call, extra in cases:
        row = {}
        for threat in ("semi", "malicious"):
            rounds, bts = measure(proto, n, threat, mk, call)
            pred = table10(proto, PARAMS, n, threat, dims=extra.get("dims", (4, 4, 4)),
                           pool=extra.get("pool", 4), groups=extra.get("groups", 1))
            r_ratio = rounds / pred["rounds"]
            b_ratio = bts / pred["bytes"]
            # rounds are exact, but bn's rescales take a round only where
            # their data-dependent shift is positive, so bn keeps the band
            rounds_ok = 0.8 <= r_ratio <= 1.25 if proto == "bn" else rounds == pred["rounds"]
            ok = rounds_ok and 0.8 <= b_ratio <= 1.25
            all_ok &= ok
            row[threat] = bts
            lines.append(f"{proto}{extra.get('pool', '')}[{threat}]: rounds {rounds}/{pred['rounds']} "
                         f"({r_ratio:.2f}x), bytes {bts:.0f}/{pred['bytes']} ({b_ratio:.2f}x)")
        mult_family_ratios[proto] = row["malicious"] / row["semi"]
    # a reshare is sent once in both models; only openings are sent twice
    ratio = mult_family_ratios["matmul"]
    exact1 = ratio == 1.0
    all_ok &= exact1
    print()
    for line in lines:
        print("  " + line)
    verdict(10, all_ok,
            f"rounds equal to the analytic formulas for MatMul/PC/WA/DReLU/ReLU/Maxpool/Pow/Div "
            f"and within 0.8x-1.25x for BN, bytes within 0.8x-1.25x for all; "
            f"malicious/semi-honest byte ratio for the "
            f"mult family = {ratio} (exactly 1.0: {exact1})")


# ---------------------------------------------------------------------------
# 11. published wall clocks are reference-only


def test_criterion_11_reference_timings(capsys):
    from falcon import cli

    rc = cli.main(["bench", "--protocol", "mult", "--n", "8", "--reference"])
    out = capsys.readouterr().out
    ok = rc == 0 and "reference only" in out and "network-a" in out and "0.011" in out
    with capsys.disabled():
        verdict(11, ok,
                "published end-to-end timings are printed as reference only, "
                "not asserted against measurements")
