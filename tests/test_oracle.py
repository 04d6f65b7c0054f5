"""The plaintext reference implementations themselves."""

import numpy as np

from falcon import oracle as O
from falcon.netspec import LayerSpec, NetworkSpec, init_float_params
from falcon.rings import RingParams, encode_fixed

PARAMS = RingParams(ell=32, fp=13)
P8 = RingParams(ell=8, fp=4)


def test_oracle_compare():
    assert O.oracle_compare(5, 3) == 1
    assert O.oracle_compare(0, 0) == 0  # strict: x > r
    assert O.oracle_compare(9, 8) == 1
    # full 64-bit words compare unsigned
    assert O.oracle_compare(2**63, 0) == 1
    assert O.oracle_compare(2**64 - 1, 2**64 - 2) == 1
    assert O.oracle_compare(2, 9) == 0


def test_oracle_wrap3():
    assert O.oracle_wrap3(255, 255, 255, 256) == 0  # exact wrap 2, parity 0
    assert O.oracle_wrap3(100, 100, 100, 256) == 1
    assert O.oracle_wrap3(0, 0, 0, 256) == 0


def test_oracle_drelu():
    assert O.oracle_drelu(np.uint64(0), P8) == 1
    assert O.oracle_drelu(np.uint64(127), P8) == 1
    assert O.oracle_drelu(np.uint64(128), P8) == 0
    assert O.oracle_drelu(np.uint64(255), P8) == 0


def test_oracle_argmax_earliest_tie():
    assert O.oracle_argmax([3, 3, 1]) == (3, 0)
    assert O.oracle_argmax([1, 5, 5]) == (5, 1)


def test_fx_identity_fc_passthrough():
    net = NetworkSpec("id", (3,), 3, [LayerSpec("fc", in_dim=3, out_dim=3)])
    raw = {"0.w": encode_fixed(np.eye(3), PARAMS), "0.b": encode_fixed(np.zeros(3), PARAMS)}
    x = encode_fixed(np.array([[0.25, -0.5, 1.0]]), PARAMS)
    assert np.array_equal(O.fx_forward(net, raw, x, PARAMS), x)


def test_fx_zero_weights_broadcast_bias():
    net = NetworkSpec("b", (3,), 2, [LayerSpec("fc", in_dim=3, out_dim=2)])
    raw = {"0.w": encode_fixed(np.zeros((3, 2)), PARAMS),
           "0.b": encode_fixed(np.array([1.5, -0.5]), PARAMS)}
    x = encode_fixed(np.random.default_rng(0).uniform(-1, 1, (5, 3)), PARAMS)
    out = O.fx_forward(net, raw, x, PARAMS)
    assert np.array_equal(out, np.broadcast_to(raw["0.b"], (5, 2)))


def test_fx_trunc_is_floor_shift():
    vals = np.array([-11, 11, -8, 8, 0], np.int64)
    raw = encode_fixed(vals / 2.0**PARAMS.fp * 2.0**PARAMS.fp, PARAMS)  # raw = vals
    from falcon.rings import reduce_mod

    raw = reduce_mod(vals, PARAMS.L)
    got = O.fx_trunc(raw, 1, PARAMS)
    assert np.array_equal(got, reduce_mod(vals >> 1, PARAMS.L))  # floor: -11>>1 = -6


def test_float_engine_matches_numpy_reference():
    net = NetworkSpec(
        "conv", (1, 6, 6), 8,
        [LayerSpec("conv", in_ch=1, out_ch=2, kernel=3, stride=1, pad=0),
         LayerSpec("relu"),
         LayerSpec("maxpool", window=2, stride=2),
         LayerSpec("fc", in_dim=8, out_dim=8)],
    )
    fp = init_float_params(net, seed=0)
    x = np.random.default_rng(1).uniform(0, 1, (3, 1, 6, 6))
    out = O.float_forward(net, fp, x)
    assert out.shape == (3, 8)
    # independent direct computation
    ref = np.zeros((3, 2, 4, 4))
    for b in range(3):
        for o in range(2):
            for i in range(4):
                for j in range(4):
                    ref[b, o, i, j] = (x[b, 0, i : i + 3, j : j + 3] * fp["0.w"][o, 0]).sum() + fp["0.b"][o]
    ref = np.maximum(ref, 0)
    pooled = np.zeros((3, 2, 2, 2))
    for i in range(2):
        for j in range(2):
            pooled[:, :, i, j] = ref[:, :, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max(axis=(2, 3))
    expect = pooled.reshape(3, 8) @ fp["3.w"] + fp["3.b"]
    assert np.allclose(out, expect)
