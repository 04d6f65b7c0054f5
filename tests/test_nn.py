"""Secure NN engine vs the fixed-point twin (bit-exact) and the float mirror."""

import numpy as np
import pytest

from falcon import nn
from falcon import oracle as O
from falcon.netspec import LayerSpec, NetworkSpec, init_float_params
from falcon.nets import BUILTIN, network_c
from falcon.prep import DealerPrep, RecordingPrep
from falcon.rings import RingParams, decode_fixed, dtype_for, encode_fixed
from falcon.session import ThreatModel, open_share

from test_protocols import run_shared, shared_input

PARAMS = RingParams(ell=32, fp=13)


def tiny_conv_net():
    return NetworkSpec(
        name="tiny",
        input_shape=(1, 8, 8),
        classes=4,
        layers=[
            LayerSpec("conv", in_ch=1, out_ch=2, kernel=3, stride=1, pad=1),
            LayerSpec("relu"),
            LayerSpec("maxpool", window=2, stride=2),
            LayerSpec("fc", in_dim=32, out_dim=4),
        ],
    )


def tiny_fc_net():
    return NetworkSpec(
        name="tiny-fc",
        input_shape=(6,),
        classes=3,
        layers=[
            LayerSpec("fc", in_dim=6, out_dim=5),
            LayerSpec("relu"),
            LayerSpec("fc", in_dim=5, out_dim=3),
        ],
    )


def bn_net():
    return NetworkSpec(
        name="tiny-bn",
        input_shape=(6,),
        classes=3,
        layers=[
            LayerSpec("fc", in_dim=6, out_dim=4),
            LayerSpec("bn"),
            LayerSpec("relu"),
            LayerSpec("fc", in_dim=4, out_dim=3),
        ],
    )


def conv_bn_net():
    return NetworkSpec(
        name="tiny-conv-bn",
        input_shape=(1, 4, 4),
        classes=3,
        layers=[
            LayerSpec("conv", in_ch=1, out_ch=2, kernel=3, stride=1, pad=1),
            LayerSpec("bn"),
            LayerSpec("relu"),
            LayerSpec("maxpool", window=2, stride=2),
            LayerSpec("fc", in_dim=8, out_dim=3),
        ],
    )


def conv_bn_fc_net():
    # bn feeds fc directly, so fc's flat delta must regain bn's image shape
    return NetworkSpec(
        name="tiny-conv-bn-fc",
        input_shape=(1, 4, 4),
        classes=3,
        layers=[
            LayerSpec("conv", in_ch=1, out_ch=2, kernel=3, stride=1, pad=1),
            LayerSpec("bn"),
            LayerSpec("fc", in_dim=32, out_dim=3),
        ],
    )


def pool3_net():
    # odd fan-in and overlapping windows, as in alexnet-cifar10's first pool
    return NetworkSpec(
        name="tiny-pool3",
        input_shape=(1, 7, 7),
        classes=3,
        layers=[
            LayerSpec("conv", in_ch=1, out_ch=2, kernel=3, stride=1, pad=1),
            LayerSpec("relu"),
            LayerSpec("maxpool", window=3, stride=2),
            LayerSpec("fc", in_dim=18, out_dim=3),
        ],
    )


def strided_net():
    # a non-square input, a strided and padded conv (7x9 -> 5x6) and a
    # stride-1 pool whose windows overlap (5x6 -> 4x5)
    return NetworkSpec(
        name="tiny-strided",
        input_shape=(2, 7, 9),
        classes=3,
        layers=[
            LayerSpec("conv", in_ch=2, out_ch=2, kernel=3, stride=2, pad=2),
            LayerSpec("relu"),
            LayerSpec("maxpool", window=2, stride=1),
            LayerSpec("fc", in_dim=40, out_dim=3),
        ],
    )


def test_builtin_shapes_propagate():
    for name, ctor in BUILTIN.items():
        net = ctor()
        shapes = net.activation_shapes()
        assert len(shapes) == len(net.layers)
    # the published output-dims rule: (w - F + 2P)/S + 1
    net = network_c()
    shapes = net.activation_shapes()
    assert shapes[0] == (16, 24, 24)
    assert shapes[2] == (16, 12, 12)
    assert shapes[5] == (16, 4, 4)


def test_netspec_roundtrip_and_swap():
    net = network_c()
    again = NetworkSpec.from_json(net.to_json())
    assert again == net
    swapped = net.swap_relu_maxpool()
    kinds = [l.kind for l in swapped.layers]
    assert kinds[1] == "maxpool" and kinds[2] == "relu"
    # equivalent function: max(relu(x)) == relu(max(x))
    fp = init_float_params(net, seed=1)
    x = np.random.default_rng(0).uniform(0, 1, (4, 1, 28, 28))
    a = O.float_forward(net, fp, x)
    b = O.float_forward(swapped, fp, x)
    assert np.allclose(a, b)


def _secure_forward(net, float_params, batch_raw, seed=0, params=PARAMS):
    def job(sess):
        sess.prep = DealerPrep(sess.party, params, seed=seed)
        state = nn.init_state(sess, net, float_params)
        x = shared_input(sess, batch_raw, params.L)
        logits = nn.forward(sess, state, x)
        return open_share(sess, logits)

    return run_shared(params, job, seed=seed)[0]


def test_identity_fc_passthrough():
    net = NetworkSpec("id", (4,), 4, [LayerSpec("fc", in_dim=4, out_dim=4)])
    fparams = {"0.w": np.eye(4), "0.b": np.zeros(4)}
    batch = encode_fixed(np.array([[0.5, -1.0, 2.0, 0.0]]), PARAMS)
    out = _secure_forward(net, fparams, batch)
    assert np.array_equal(out, batch)


def test_zero_input_zero_bias_gives_zero_logits():
    net = tiny_fc_net()
    fparams = init_float_params(net, seed=2)
    fparams["0.b"] = np.zeros_like(fparams["0.b"])
    fparams["1.b"] = np.zeros_like(fparams.get("1.b", np.zeros(0))) if "1.b" in fparams else None
    fparams = {k: v for k, v in fparams.items() if v is not None}
    fparams["2.b"] = np.zeros(3)
    batch = encode_fixed(np.zeros((2, 6)), PARAMS)
    out = _secure_forward(net, fparams, batch)
    assert np.all(out == 0)


# every net at the default ring; fc, conv and pool3 also at a 24-bit ring
# (uint32 words with 8 spare bits) and a 64-bit one (uint64 words)
_FORWARD_CELLS = [
    *(pytest.param(m, PARAMS, id=m.__name__) for m in (tiny_fc_net, tiny_conv_net, bn_net,
                                                        conv_bn_net, conv_bn_fc_net, pool3_net,
                                                        strided_net)),
    *(pytest.param(m, params, id=f"{m.__name__}-ell{params.ell}")
      for params in (RingParams(ell=24, fp=8), RingParams(ell=64, fp=13))
      for m in (tiny_fc_net, tiny_conv_net, pool3_net)),
]


@pytest.mark.parametrize("maker,params", _FORWARD_CELLS)
def test_secure_forward_bit_exact_vs_fx(maker, params):
    net = maker()
    fparams = init_float_params(net, seed=3)
    rng = np.random.default_rng(4)
    if len(net.input_shape) == 1:
        batch = rng.uniform(-1, 1, (8,) + net.input_shape)
    else:
        batch = rng.uniform(0, 1, (8,) + net.input_shape)
    braw = encode_fixed(batch, params)
    secure = _secure_forward(net, fparams, braw, params=params)
    assert secure.dtype == dtype_for(params.L)
    raw_params = {k: encode_fixed(v, params) for k, v in fparams.items()}
    fx = O.fx_forward(net, raw_params, braw, params)
    assert np.array_equal(secure, fx)


def test_secure_forward_close_to_float():
    net = tiny_conv_net()
    fparams = init_float_params(net, seed=5)
    rng = np.random.default_rng(6)
    batch = rng.uniform(0, 1, (4,) + net.input_shape)
    braw = encode_fixed(batch, PARAMS)
    secure = decode_fixed(_secure_forward(net, fparams, braw), PARAMS)
    ref = O.float_forward(net, fparams, batch)
    denom = np.maximum(np.abs(ref), 0.05)
    assert np.max(np.abs(secure - ref) / denom) < 0.01


def _secure_train_step(net, fparams, batch_raw, onehot, lr_shift, seed=0):
    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=seed)
        state = nn.init_state(sess, net, fparams)
        x = shared_input(sess, batch_raw, PARAMS.L)
        logits = nn.forward(sess, state, x)
        delta = nn.loss_grad_approx(sess, logits, onehot)
        grads = nn.backward(sess, state, delta)
        nn.sgd_step(sess, state, grads, lr_shift)
        opened_params = {
            f"{i}.{name}": open_share(sess, st.params[name])
            for i, st in enumerate(state.layers)
            for name in st.params
        }
        opened_grads = {k: open_share(sess, g) for k, g in grads.items()}
        return opened_params, opened_grads

    return run_shared(PARAMS, job, seed=seed)[0]


@pytest.mark.parametrize("maker", [tiny_fc_net, tiny_conv_net, bn_net, conv_bn_net,
                                   conv_bn_fc_net, pool3_net, strided_net])
def test_training_step_bit_exact_vs_fx(maker):
    net = maker()
    fparams = init_float_params(net, seed=7)
    rng = np.random.default_rng(8)
    if len(net.input_shape) == 1:
        batch = rng.uniform(-1, 1, (8,) + net.input_shape)
    else:
        batch = rng.uniform(0, 1, (8,) + net.input_shape)
    braw = encode_fixed(batch, PARAMS)
    labels = rng.integers(0, net.classes, 8)
    onehot = np.eye(net.classes)[labels]

    got_params, got_grads = _secure_train_step(net, fparams, braw, onehot, lr_shift=6)

    raw_params = {k: encode_fixed(v, PARAMS) for k, v in fparams.items()}
    caches: list = []
    logits = O.fx_forward(net, raw_params, braw, PARAMS, caches)
    delta = O.fx_loss_grad(logits, onehot, PARAMS)
    fx_grads = O.fx_backward(net, raw_params, caches, delta, PARAMS)
    O.fx_sgd_step(raw_params, fx_grads, 6, PARAMS)

    for k in fx_grads:
        assert np.array_equal(got_grads[k], fx_grads[k]), f"gradient mismatch at {k}"
    for k in raw_params:
        assert np.array_equal(got_params[k], raw_params[k]), f"weight mismatch at {k}"


def test_linear_layer_gradient_is_outer_product():
    # single linear layer, loss grad = onehot -> dW = a^T onehot
    net = NetworkSpec("lin", (3,), 2, [LayerSpec("fc", in_dim=3, out_dim=2)])
    fparams = {"0.w": np.zeros((3, 2)), "0.b": np.zeros(2)}
    a = np.array([[0.5, -1.0, 2.0]])
    delta = np.array([[0.0, 1.0]])

    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=1)
        state = nn.init_state(sess, net, fparams)
        x = shared_input(sess, encode_fixed(a, PARAMS), PARAMS.L)
        nn.forward(sess, state, x)
        d = shared_input(sess, encode_fixed(delta, PARAMS), PARAMS.L)
        grads = nn.backward(sess, state, d)
        return open_share(sess, grads["0.w"])

    dw = decode_fixed(run_shared(PARAMS, job)[0], PARAMS)
    assert np.allclose(dw, a.T @ delta, atol=2**-12)


def test_relu_layer_blocks_gradient_when_negative():
    net = NetworkSpec(
        "r", (2,), 2, [LayerSpec("fc", in_dim=2, out_dim=2), LayerSpec("relu")]
    )
    fparams = {"0.w": np.eye(2), "0.b": np.array([-5.0, -5.0])}

    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=2)
        state = nn.init_state(sess, net, fparams)
        x = shared_input(sess, encode_fixed(np.array([[1.0, 2.0]]), PARAMS), PARAMS.L)
        nn.forward(sess, state, x)
        d = shared_input(sess, encode_fixed(np.array([[1.0, 1.0]]), PARAMS), PARAMS.L)
        grads = nn.backward(sess, state, d)
        return open_share(sess, grads["0.w"])

    dw = run_shared(PARAMS, job)[0]
    assert np.all(dw == 0)


def test_relu_layer_backward_is_one_multiplication():
    # the forward caches the DReLU bit over Z_L, so the backward multiplies
    # the delta by it: one round, and no bit pair is drawn
    net = NetworkSpec("r", (4,), 4, [LayerSpec("relu")])
    xs = np.array([[-1.5, 0.0, 2.25, -0.5]])
    ds = np.array([[1.0, 2.0, 3.0, 4.0]])

    def job(sess):
        sess.prep = RecordingPrep(sess.prep)
        state = nn.init_state(sess, net)
        nn.forward(sess, state, shared_input(sess, encode_fixed(xs, PARAMS), PARAMS.L))
        d = shared_input(sess, encode_fixed(ds, PARAMS), PARAMS.L)
        pairs, r0 = len(sess.prep.records["bitpair"]), sess.meter.rounds
        dx = nn._layer_backward(sess, net.layers[0], state.layers[0], d, {}, 0)
        rounds, pairs = sess.meter.rounds - r0, len(sess.prep.records["bitpair"]) - pairs
        return open_share(sess, dx), rounds, pairs

    dx, rounds, pairs = run_shared(PARAMS, job)[0]
    assert rounds == 1 and pairs == 0
    assert np.array_equal(dx, encode_fixed(np.where(xs >= 0, ds, 0.0), PARAMS))


def _batch_for(net, rng, n=4):
    if len(net.input_shape) == 1:
        return encode_fixed(rng.uniform(-1, 1, (n,) + net.input_shape), PARAMS)
    return encode_fixed(rng.uniform(0, 1, (n,) + net.input_shape), PARAMS)


def _delta_for(net, idx, rng, n=4):
    shape = net.activation_shapes()[idx]
    return encode_fixed(rng.uniform(-0.5, 0.5, (n,) + tuple(shape)), PARAMS)


def _cost(sess, before):
    return sess.meter.rounds - before[0], sess.meter.acct_bits - before[1]


def test_one_fc_backward_takes_two_rounds_and_opens_only_the_weight_gradient():
    # the lowest layer with parameters computes no input gradient: its one
    # product is reshared and its truncation opens |W| elements, nothing more
    net = NetworkSpec("lin", (6,), 3, [LayerSpec("fc", in_dim=6, out_dim=3)])
    fparams = init_float_params(net, seed=14)
    rng = np.random.default_rng(15)
    braw, draw = _batch_for(net, rng), _delta_for(net, 0, rng)

    def job(sess):
        state = nn.init_state(sess, net, fparams)
        nn.forward(sess, state, shared_input(sess, braw, PARAMS.L))
        d = shared_input(sess, draw, PARAMS.L)
        before = sess.meter.rounds, sess.meter.acct_bits
        grads = nn.backward(sess, state, d)
        cost = _cost(sess, before)
        return cost, {k: open_share(sess, g) for k, g in grads.items()}

    (rounds, bits), grads = run_shared(PARAMS, job)[0]
    assert rounds == 2
    assert bits == 2 * 6 * 3 * PARAMS.ell
    raw_params = {k: encode_fixed(v, PARAMS) for k, v in fparams.items()}
    caches: list = []
    O.fx_forward(net, raw_params, braw, PARAMS, caches)
    want = O.fx_backward(net, raw_params, caches, draw, PARAMS)
    assert grads.keys() == want.keys()
    for k in want:
        assert np.array_equal(grads[k], want[k]), k


def test_conv_first_backward_costs_layer_0_its_weight_gradient_alone(monkeypatch):
    net = tiny_conv_net()
    fparams = init_float_params(net, seed=16)
    rng = np.random.default_rng(17)
    braw, draw = _batch_for(net, rng), _delta_for(net, len(net.layers) - 1, rng)
    layer_backward = nn._layer_backward
    costs = {}

    def metered(sess, layer, st, delta, grads, idx, **kw):
        before = sess.meter.rounds, sess.meter.acct_bits
        dx = layer_backward(sess, layer, st, delta, grads, idx, **kw)
        if sess.party.index == 1:
            costs[idx] = _cost(sess, before) + (dx is None,)
        return dx

    monkeypatch.setattr(nn, "_layer_backward", metered)

    def job(sess):
        state = nn.init_state(sess, net, fparams)
        nn.forward(sess, state, shared_input(sess, braw, PARAMS.L))
        grads = nn.backward(sess, state, shared_input(sess, draw, PARAMS.L))
        return {k: open_share(sess, g) for k, g in grads.items()}

    grads = run_shared(PARAMS, job)[0]
    # one reshare and one truncation of dW (2 x 1 x 3 x 3), no dcols or unwindow
    assert costs[0] == (2, 2 * 18 * PARAMS.ell, True)
    assert [costs[i][0] for i in (3, 2, 1)] == [2, 2, 1]  # fc, a 2-level maxpool, relu
    raw_params = {k: encode_fixed(v, PARAMS) for k, v in fparams.items()}
    caches: list = []
    O.fx_forward(net, raw_params, braw, PARAMS, caches)
    want = O.fx_backward(net, raw_params, caches, draw, PARAMS)
    for k in want:
        assert np.array_equal(grads[k], want[k]), k


def _layer_backward_vs_fx(net, idx, need_dx, seed):
    """One layer's backward after a forward pass: party 1's (rounds,
    cost-model bits) and its opened grads and dx, next to the oracle's."""
    fparams = init_float_params(net, seed=seed)
    rng = np.random.default_rng(seed + 1)
    braw, draw = _batch_for(net, rng), _delta_for(net, idx, rng)
    layer = net.layers[idx]

    def job(sess):
        state = nn.init_state(sess, net, fparams)
        nn.forward(sess, state, shared_input(sess, braw, PARAMS.L))
        d = shared_input(sess, draw, PARAMS.L)
        grads: dict = {}
        before = sess.meter.rounds, sess.meter.acct_bits
        dx = nn._layer_backward(sess, layer, state.layers[idx], d, grads, idx, need_dx=need_dx)
        cost = _cost(sess, before)
        return (cost, {k: open_share(sess, g) for k, g in grads.items()},
                None if dx is None else open_share(sess, dx))

    cost, grads, dx = run_shared(PARAMS, job)[0]
    raw_params = {k: encode_fixed(v, PARAMS) for k, v in fparams.items()}
    caches: list = []
    O.fx_forward(net, raw_params, braw, PARAMS, caches)
    fx_grads: dict = {}
    fx_dx = O._fx_layer_backward(raw_params, PARAMS, layer, idx, caches[idx], draw, fx_grads)
    assert grads.keys() == fx_grads.keys()
    for k in fx_grads:
        assert np.array_equal(grads[k], fx_grads[k]), k
    if need_dx:
        assert np.array_equal(dx, fx_dx)
    else:
        assert dx is None
    return cost


def test_hidden_fc_backward_takes_two_rounds():
    # dW = a^T delta and dx = delta W^T share one reshare round and one
    # truncation round, which opens both
    rounds, bits = _layer_backward_vs_fx(tiny_fc_net(), 2, True, seed=18)
    assert rounds == 2
    assert bits == 2 * (5 * 3 + 4 * 5) * PARAMS.ell


@pytest.mark.parametrize("maker,idx,need_dx,rounds", [
    # dW and dcols share a product round and a truncation round
    (conv_bn_net, 0, True, 2),
    (conv_bn_net, 0, False, 2),
    # dy z with gamma inv (2), the means (1), z mean(dy z) (2) and the
    # product with gamma inv (2): 7, where they took 9 one by one; the
    # gradients of gamma and beta alone take the first 2
    (bn_net, 1, True, 7),
    (bn_net, 1, False, 2),
    (conv_bn_fc_net, 1, True, 7),
], ids=["conv", "conv-no-dx", "bn", "bn-no-dx", "conv-bn"])
def test_conv_and_bn_backward_rounds(maker, idx, need_dx, rounds):
    assert _layer_backward_vs_fx(maker(), idx, need_dx, seed=19)[0] == rounds


@pytest.mark.parametrize("threat", [ThreatModel.SEMI_HONEST, ThreatModel.MALICIOUS],
                         ids=["semi", "malicious"])
@pytest.mark.parametrize("scale_shift", [0, 2])
def test_loss_fallback_boundary_matches_fx(threat, scale_shift):
    # a row of nonpositive logits (total 0: the uniform fallback), a row
    # whose only positive logit is 1 raw (total 1: no fallback) and an
    # ordinary row; the fallback is linear in the positivity bit, so it
    # must agree with the oracle's selection at the boundary
    logits = encode_fixed(np.array([[-1.0, -2.0, 0.0], [0.0, 0.0, -0.25], [0.7, -0.2, 1.3]]),
                          PARAMS)
    logits[1, 0] = 1
    onehot = np.eye(3)[[0, 1, 2]]

    def job(sess):
        x = shared_input(sess, logits, PARAMS.L)
        return open_share(sess, nn.loss_grad_approx(sess, x, onehot, scale_shift=scale_shift))

    got = run_shared(PARAMS, job, threat=threat)[0]
    want = O.fx_loss_grad(logits, onehot, PARAMS, scale_shift=scale_shift)
    assert np.array_equal(got, want)
    uniform = round((1 << PARAMS.fp) / 3)
    if scale_shift == 0:  # row 0 is uniform minus its onehot, row 1 puts ~1.0 on class 0
        assert np.array_equal(decode_fixed(got[0], PARAMS) + [1, 0, 0],
                              decode_fixed(np.full(3, uniform, np.uint64), PARAMS))
        assert np.allclose(decode_fixed(got[1], PARAMS), [1.0, -1.0, 0.0], atol=2.0**-12)


def test_backward_without_forward_raises():
    net = tiny_fc_net()
    fparams = init_float_params(net, seed=9)

    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=2)
        state = nn.init_state(sess, net, fparams)
        d = shared_input(sess, encode_fixed(np.zeros((1, 3)), PARAMS), PARAMS.L)
        nn.backward(sess, state, d)

    with pytest.raises(nn.MissingCacheError):
        run_shared(PARAMS, job)


def test_gradients_match_finite_differences():
    # fixed-point secure grads vs float central differences on a small net
    net = tiny_fc_net()
    fparams = init_float_params(net, seed=11)
    rng = np.random.default_rng(12)
    batch = rng.uniform(-1, 1, (4, 6))
    labels = rng.integers(0, 3, 4)
    onehot = np.eye(3)[labels]
    braw = encode_fixed(batch, PARAMS)

    _, got_grads = _secure_train_step(net, fparams, braw, onehot, lr_shift=6, seed=13)

    # float loss with the same ASM surrogate: L = sum((p - y) . logits)? No:
    # check the gradient of the surrogate loss via its own structure: compare
    # against float backward with the float ASM delta.
    caches: list = []
    logits = O.float_forward(net, fparams, batch, caches)
    r = np.maximum(logits, 0)
    tot = r.sum(axis=1, keepdims=True)
    p = np.where(tot >= 2**-13, r / np.maximum(tot, 1e-9), 1.0 / 3)
    delta_f = p - onehot
    ref = O.float_backward(net, fparams, caches, delta_f)

    for k, g in ref.items():
        got = decode_fixed(got_grads[k], PARAMS)
        mask = np.abs(g) > 1e-3
        if mask.any():
            rel = np.abs(got - g)[mask] / np.abs(g)[mask]
            assert rel.max() < 1e-2, f"{k}: rel err {rel.max()}"


@pytest.mark.parametrize("maker", [tiny_fc_net, strided_net, pool3_net, bn_net, conv_bn_fc_net])
def test_float_finite_difference_self_check(maker):
    # the float backward itself agrees with central differences (oracle
    # sanity) for every parameter of fc, conv, maxpool and bn layers
    net = maker()
    fparams = init_float_params(net, seed=21)
    rng = np.random.default_rng(22)
    batch = rng.uniform(-1, 1, (3,) + net.input_shape)
    labels = rng.integers(0, 3, 3)
    onehot = np.eye(3)[labels]

    def loss(params):
        logits = O.float_forward(net, params, batch)
        d, l = O.softmax_xent_grad(logits, onehot)
        return l

    caches: list = []
    logits = O.float_forward(net, fparams, batch, caches)
    delta, _ = O.softmax_xent_grad(logits, onehot)
    grads = O.float_backward(net, fparams, caches, {0: delta}[0] / len(batch))

    eps = 1e-5
    assert grads.keys() == fparams.keys()
    for k in fparams:
        flat = fparams[k].ravel()
        for idx in rng.choice(flat.size, min(5, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss(fparams)
            flat[idx] = orig - eps
            dn = loss(fparams)
            flat[idx] = orig
            fd = (up - dn) / (2 * eps)
            assert abs(grads[k].ravel()[idx] - fd) < 1e-4, f"{k}[{idx}]"


def test_sgd_zero_grad_keeps_weights_and_lr_semantics():
    net = NetworkSpec("lin", (2,), 2, [LayerSpec("fc", in_dim=2, out_dim=2)])
    fparams = {"0.w": np.array([[1.0, 2.0], [3.0, 4.0]]), "0.b": np.zeros(2)}

    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=4)
        state = nn.init_state(sess, net, fparams)
        zero_g = {"0.w": shared_input(sess, np.zeros((2, 2), np.uint64), PARAMS.L)}
        nn.sgd_step(sess, state, zero_g, lr_shift=5)
        w_after_zero = open_share(sess, state.layers[0].params["w"])
        # grad = 2^{lr_shift} * encode(1) on one entry decreases it by 1.0
        g = np.zeros((2, 2))
        g[0, 0] = 2.0**5
        gsh = {"0.w": shared_input(sess, encode_fixed(g, PARAMS), PARAMS.L)}
        nn.sgd_step(sess, state, gsh, lr_shift=5)
        w_after = open_share(sess, state.layers[0].params["w"])
        return w_after_zero, w_after

    w0, w1 = run_shared(PARAMS, job)[0]
    assert np.array_equal(w0, encode_fixed(fparams["0.w"], PARAMS))
    expect = fparams["0.w"].copy()
    expect[0, 0] -= 1.0
    assert np.array_equal(w1, encode_fixed(expect, PARAMS))


def test_sgd_descends_on_quadratic_surrogate():
    # 10 steps on a 1-d quadratic: loss = (w - 2)^2 via its gradient 2(w-2)
    net = NetworkSpec("q", (1,), 1, [LayerSpec("fc", in_dim=1, out_dim=1)])
    fparams = {"0.w": np.array([[0.0]]), "0.b": np.zeros(1)}

    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=6)
        state = nn.init_state(sess, net, fparams)
        losses = []
        for _ in range(10):
            w = decode_fixed(open_share(sess, state.layers[0].params["w"]), PARAMS)[0, 0]
            losses.append((w - 2.0) ** 2)
            grad = encode_fixed(np.array([[2 * (w - 2.0)]]), PARAMS)
            gsh = {"0.w": shared_input(sess, grad, PARAMS.L)}
            nn.sgd_step(sess, state, gsh, lr_shift=2)
        return losses

    losses = run_shared(PARAMS, job)[0]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0] / 10


def test_loss_grad_examples():
    def job(sess):
        sess.prep = DealerPrep(sess.party, PARAMS, seed=8)
        # single hot positive logit -> ASM == onehot -> delta ~ 0
        l1 = shared_input(sess, encode_fixed(np.array([[3.0, 0.0, 0.0]]), PARAMS), PARAMS.L)
        d1 = open_share(sess, nn.loss_grad_approx(sess, l1, np.eye(3)[[0]]))
        # equal positive logits, 2 classes, label 1 -> [0.5, -0.5]
        l2 = shared_input(sess, encode_fixed(np.array([[1.0, 1.0]]), PARAMS), PARAMS.L)
        d2 = open_share(sess, nn.loss_grad_approx(sess, l2, np.eye(2)[[1]]))
        # all-negative logits -> uniform fallback
        l3 = shared_input(sess, encode_fixed(np.array([[-1.0, -2.0]]), PARAMS), PARAMS.L)
        d3 = open_share(sess, nn.loss_grad_approx(sess, l3, np.eye(2)[[0]]))
        return d1, d2, d3

    d1, d2, d3 = run_shared(PARAMS, job)[0]
    assert np.max(np.abs(decode_fixed(d1, PARAMS) - [1 - 1, 0, 0])) <= 1e-2
    assert np.allclose(decode_fixed(d2, PARAMS), [[0.5, -0.5]], atol=1e-2)
    assert np.allclose(decode_fixed(d3, PARAMS), [[0.5 - 1.0, 0.5]], atol=1e-2)
