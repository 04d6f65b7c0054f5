"""Dataset formats, checkpoints, and the command-line surface."""

import json
import os

import numpy as np
import pytest

from falcon import cli, nn
from falcon.data import (
    FormatError,
    ingest_mnist,
    load_tensors,
    read_idx_images,
    synth_digits,
    write_idx_labels,
    write_synth_idx,
)
from falcon.rings import RingParams, decode_fixed, encode_fixed

PARAMS = RingParams(ell=32, p=37, fp=13)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("idx")
    paths = write_synth_idx(str(d), n_train=400, n_test=80, seed=5)
    return d, paths


def test_idx_roundtrip(corpus):
    _, paths = corpus
    imgs = read_idx_images(paths["train_images"])
    assert imgs.shape == (400, 28, 28)
    assert imgs.dtype == np.uint8


def test_idx_bad_magic(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(b"\x00\x00\x08\x04" + b"\x00" * 12)
    with pytest.raises(FormatError):
        read_idx_images(str(p))


def test_idx_truncated(corpus, tmp_path):
    _, paths = corpus
    blob = open(paths["train_images"], "rb").read()
    p = tmp_path / "trunc"
    p.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        read_idx_images(str(p))


def test_ingest_scaling(corpus, tmp_path):
    _, paths = corpus
    out = tmp_path / "store.bin"
    tensors = ingest_mnist(paths["train_images"], paths["train_labels"], str(out), PARAMS)
    # pixel p maps to encode(p/256); 255 -> 255/256, strictly below one
    imgs = read_idx_images(paths["train_images"])
    expect = encode_fixed(imgs.astype(np.float64) / 256.0, PARAMS)
    assert np.array_equal(tensors["images"], expect)
    loaded = load_tensors(str(out))
    assert np.array_equal(loaded["images"], expect)
    assert np.array_equal(loaded["labels"], tensors["labels"])
    assert decode_fixed(tensors["images"], PARAMS).max() < 1.0


def test_ingest_mismatched_counts(corpus, tmp_path):
    _, paths = corpus
    write_idx_labels(str(tmp_path / "short"), np.zeros(7, np.uint8))
    with pytest.raises(FormatError):
        ingest_mnist(paths["train_images"], str(tmp_path / "short"), str(tmp_path / "o"), PARAMS)


def test_synth_deterministic():
    a_img, a_lab = synth_digits(50, seed=3)
    b_img, b_lab = synth_digits(50, seed=3)
    assert np.array_equal(a_img, b_img) and np.array_equal(a_lab, b_lab)
    c_img, _ = synth_digits(50, seed=4)
    assert not np.array_equal(a_img, c_img)


def test_checkpoint_roundtrip(tmp_path):
    raws = {"0.w": encode_fixed(np.random.default_rng(0).uniform(-1, 1, (4, 3)), PARAMS),
            "0.b": encode_fixed(np.zeros(3), PARAMS)}
    path = tmp_path / "w.ckpt"
    nn.save_checkpoint(str(path), raws, PARAMS)
    back, params = nn.load_checkpoint(str(path))
    assert params == PARAMS
    assert all(np.array_equal(back[k], raws[k]) for k in raws)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "junk"
    p.write_bytes(b"NOTACKPT" + b"\x00" * 16)
    with pytest.raises(nn.FormatError):
        nn.load_checkpoint(str(p))


@pytest.fixture(scope="module")
def mini_setup(tmp_path_factory, corpus):
    d = tmp_path_factory.mktemp("cli")
    _, paths = corpus
    store = d / "train.bin"
    ingest_mnist(paths["train_images"], paths["train_labels"], str(store), PARAMS)
    from falcon.netspec import LayerSpec, NetworkSpec

    net = NetworkSpec("mini", (784,), 10, [
        LayerSpec("fc", in_dim=784, out_dim=24),
        LayerSpec("relu"),
        LayerSpec("fc", in_dim=24, out_dim=10),
    ])
    net_path = d / "mini.json"
    net_path.write_text(net.to_json())
    return d, str(store), str(net_path)


def test_cli_train_infer_roundtrip(mini_setup, capsys):
    d, store, net_path = mini_setup
    ckpt = str(d / "mini.ckpt")
    rc = cli.main([
        "train", "--net", net_path, "--data", store, "--iters", "4", "--batch", "8",
        "--train-count", "300", "--eval-count", "50", "--out", ckpt,
        "--check-oracle", "--json",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle_bit_identical"] is True
    assert os.path.exists(ckpt)

    rc = cli.main([
        "infer", "--net", net_path, "--weights", ckpt, "--data", store,
        "--count", "10", "--offset", "300", "--json",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 10
    assert report["agreement"] >= 9  # decoded-weight float oracle tracks closely


def test_cli_train_deterministic_checkpoints(mini_setup):
    d, store, net_path = mini_setup
    c1, c2 = str(d / "a.ckpt"), str(d / "b.ckpt")
    for out in (c1, c2):
        rc = cli.main([
            "train", "--net", net_path, "--data", store, "--iters", "3", "--batch", "8",
            "--train-count", "200", "--eval-count", "0", "--out", out, "--seed", "5",
        ])
        assert rc == 0
    assert open(c1, "rb").read() == open(c2, "rb").read()


def test_cli_bench_json(mini_setup, capsys):
    rc = cli.main(["bench", "--protocol", "matmul", "--dims", "4,4,4", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["measured"]["rounds"] == 1
    assert report["predicted"]["rounds"] == 1


def test_cli_bench_reference_table(capsys):
    rc = cli.main(["bench", "--protocol", "mult", "--n", "4", "--reference"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "reference only" in out and "network-a" in out and "0.011" in out


def test_cli_corrupted_checkpoint(mini_setup, capsys):
    d, store, net_path = mini_setup
    bad = d / "bad.ckpt"
    bad.write_bytes(b"garbage!")
    rc = cli.main(["infer", "--net", net_path, "--weights", str(bad), "--data", store])
    assert rc == 2


@pytest.mark.parametrize("cut", [10, 20, -5])
def test_cli_truncated_checkpoint(mini_setup, capsys, cut):
    d, store, net_path = mini_setup
    from falcon.netspec import NetworkSpec, init_float_params

    net = NetworkSpec.from_json(open(net_path).read())
    raws = {k: encode_fixed(v, PARAMS) for k, v in init_float_params(net, seed=1).items()}
    full = d / "full.ckpt"
    nn.save_checkpoint(str(full), raws, PARAMS)
    blob = full.read_bytes()
    bad = d / f"cut{cut}.ckpt"
    bad.write_bytes(blob[:cut])
    with pytest.raises(nn.FormatError):
        nn.load_checkpoint(str(bad))
    rc = cli.main(["infer", "--net", net_path, "--weights", str(bad), "--data", store])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_file_prep_mode(mini_setup, capsys):
    d, store, net_path = mini_setup
    prep_base = str(d / "prep.bin")
    args = ["infer", "--net", net_path, "--weights", str(d / "mini.ckpt"), "--data", store,
            "--count", "4", "--prep", f"file:{prep_base}", "--json"]
    rc = cli.main(args)
    assert rc == 0
    capsys.readouterr()
    assert os.path.exists(prep_base + ".p1")  # generated on first run
    rc = cli.main(args)  # replay
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 4


def test_cli_float_npz_weights_import(mini_setup, capsys):
    # float checkpoints quantize on load; inference runs against them directly
    d, store, net_path = mini_setup
    from falcon.netspec import NetworkSpec, init_float_params

    net = NetworkSpec.from_json(open(net_path).read())
    fparams = init_float_params(net, seed=5)
    npz = d / "weights.npz"
    np.savez(npz, **fparams)
    rc = cli.main(["infer", "--net", net_path, "--weights", str(npz), "--data", store,
                   "--count", "6", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 6 and report["agreement"] >= 5


def test_cli_malicious_infer_doubles_bytes(mini_setup, capsys):
    d, store, net_path = mini_setup
    base = ["infer", "--net", net_path, "--weights", str(d / "mini.ckpt"), "--data", store,
            "--count", "4", "--json"]
    assert cli.main(base) == 0
    semi = json.loads(capsys.readouterr().out)
    assert cli.main(base + ["--threat", "malicious"]) == 0
    mal = json.loads(capsys.readouterr().out)
    assert np.isclose(mal["meter"]["acct_bytes"] / semi["meter"]["acct_bytes"], 2.0)
    assert mal["agreement"] == semi["agreement"]
