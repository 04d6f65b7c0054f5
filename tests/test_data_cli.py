"""Dataset formats, checkpoints, and the command-line surface."""

import json
import os
import struct

import numpy as np
import pytest

from falcon import cli, nn, session
from falcon import protocols as P
from falcon.data import (
    FormatError,
    ingest_mnist,
    load_tensors,
    read_idx_images,
    save_tensors,
    synth_digits,
    write_idx_labels,
    write_synth_idx,
)
from falcon.prep import DealerPrep, RecordingPrep, load_prep_file, save_prep_file
from falcon.rings import UINT, RingParams, decode_fixed, encode_fixed
from falcon.rss import PartyId, elem_acct_bits

PARAMS = RingParams(ell=32, fp=13)


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


def test_cli_synth_then_ingest(tmp_path, capsys):
    rc = cli.main(["synth-data", "--out-dir", str(tmp_path), "--train-n", "40", "--test-n", "8",
                   "--seed", "2", "--json"])
    assert rc == 0
    paths = json.loads(capsys.readouterr().out)["paths"]
    store = str(tmp_path / "train.bin")
    rc = cli.main(["ingest-mnist", "--images", paths["train_images"], "--labels", paths["train_labels"],
                   "--out", store, "--ring-bits", "32", "--fp-bits", "16", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["images"] == 40
    imgs = read_idx_images(paths["train_images"])
    params = RingParams(ell=32, fp=16)
    assert np.array_equal(load_tensors(store)["images"], encode_fixed(imgs / 256.0, params))
    # the data commands take no three-party session flags
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth-data", "--out-dir", str(tmp_path), "--train-n", "4", "--test-n", "2",
                  "--threat", "malicious"])
    assert exc.value.code == 2


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


def _store_file(path):
    save_tensors(path, {"images": np.arange(12, dtype=np.uint64).reshape(3, 4),
                        "labels": np.arange(3, dtype=np.uint8)})
    return lambda: load_tensors(path)


def _checkpoint_file(path):
    nn.save_checkpoint(path, {"0.w": encode_fixed(np.ones((4, 3)), PARAMS),
                              "0.b": encode_fixed(np.zeros(3), PARAMS)}, PARAMS)
    return lambda: nn.load_checkpoint(path)


def _prep_file(path):
    rec = RecordingPrep(DealerPrep(PartyId(1), PARAMS, seed=1))
    rec.trunc_pairs(4, PARAMS.fp)
    rec.bit_pairs(4)
    save_prep_file(path, PartyId(1), PARAMS, rec.records)
    return lambda: load_prep_file(path, PartyId(1), PARAMS)


def _unknown_dtype(blob):
    (nlen,) = struct.unpack_from("<H", blob, 12)  # the first name's length
    return blob[: 14 + nlen] + b"x" + blob[15 + nlen :]


_DAMAGE = {
    "magic": lambda blob: b"NOTMAGIC" + blob[8:],
    "cut10": lambda blob: blob[:10],
    "cut20": lambda blob: blob[:20],
    "cut-5": lambda blob: blob[:-5],
    "dtype": _unknown_dtype,
}


@pytest.mark.parametrize("damage", _DAMAGE)
@pytest.mark.parametrize("write", [_store_file, _checkpoint_file, _prep_file],
                         ids=["store", "checkpoint", "prep"])
def test_malformed_file_raises_format_error(tmp_path, write, damage):
    path = str(tmp_path / "file")
    load = write(path)
    load()
    blob = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(_DAMAGE[damage](blob))
    with pytest.raises(FormatError):
        load()


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


def test_cli_bench_maxpool_json(capsys):
    # 3x3 windows: four tree levels of DReLU and select, 3 + log2(ell) rounds
    # each, as table10 predicts
    rc = cli.main(["bench", "--protocol", "maxpool", "--n", "8", "--pool", "9", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["measured"]["rounds"] == report["predicted"]["rounds"] == 32


def test_cli_bench_relu_json(capsys):
    # the DReLU and its selection's opening share the compare's last round
    rc = cli.main(["bench", "--protocol", "relu", "--n", "8", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["measured"]["rounds"] == report["predicted"]["rounds"] == 8


@pytest.mark.parametrize("flags", [["--ring-bits", "7"], ["--ring-bits", "65"], ["--fp-bits", "40"]])
def test_cli_ring_flags_out_of_range_report_error(capsys, flags):
    rc = cli.main(["bench", "--protocol", "mult", "--n", "4"] + flags)
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


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


@pytest.mark.parametrize("bad", ["truncated-data", "ring-ell7"])
def test_cli_bad_input_file_reports_error(mini_setup, capsys, bad):
    d, store, net_path = mini_setup
    from falcon.netspec import NetworkSpec, init_float_params

    net = NetworkSpec.from_json(open(net_path).read())
    ckpt = str(d / f"{bad}.ckpt")
    data = str(d / f"{bad}.bin")
    if bad == "truncated-data":
        nn.save_checkpoint(ckpt, {k: encode_fixed(v, PARAMS)
                                  for k, v in init_float_params(net, seed=1).items()}, PARAMS)
        blob = open(store, "rb").read()
        with open(data, "wb") as f:
            f.write(blob[: len(blob) // 2])
    else:
        save_tensors(ckpt, {"ring": np.array([7, 37, 4], UINT)}, nn.CKPT_MAGIC)
        with pytest.raises(FormatError):
            nn.load_checkpoint(ckpt)
        data = store
    rc = cli.main(["infer", "--net", net_path, "--weights", ckpt, "--data", data, "--count", "4"])
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


@pytest.mark.parametrize("bad", ["huge", "nan", "missing", "shape", "checkpoint-shape"])
def test_cli_weights_that_do_not_fit_the_net(mini_setup, capsys, monkeypatch, bad):
    # a value beyond the fixed-point range or not a number, a missing
    # parameter and one of the wrong shape are refused with status 2,
    # naming the file and the key, before any party starts
    d, store, net_path = mini_setup
    from falcon.netspec import NetworkSpec, init_float_params

    net = NetworkSpec.from_json(open(net_path).read())
    fparams = init_float_params(net, seed=5)
    key = "0.b" if bad == "missing" else "0.w"
    if bad in ("huge", "nan"):
        fparams[key][0, 0] = 1e6 if bad == "huge" else np.nan
    elif bad == "missing":
        del fparams[key]
    else:
        fparams[key] = np.zeros((10, 128))
    path = str(d / f"{bad}.npz")
    if bad == "checkpoint-shape":
        path = str(d / f"{bad}.ckpt")
        nn.save_checkpoint(path, {k: encode_fixed(v, PARAMS) for k, v in fparams.items()}, PARAMS)
    else:
        np.savez(path, **fparams)

    def no_party(*args, **kwargs):
        raise AssertionError("a party started")

    monkeypatch.setattr(cli, "run_three_parties", no_party)
    rc = cli.main(["infer", "--net", net_path, "--weights", path, "--data", store, "--count", "4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err and repr(key) in err


def test_cli_malicious_infer_adds_the_openings(mini_setup, capsys, monkeypatch):
    """Malicious sends each opened element a second time and nothing else twice."""
    d, store, net_path = mini_setup
    base = ["infer", "--net", net_path, "--weights", str(d / "mini.ckpt"), "--data", store,
            "--count", "4", "--json"]
    opened_bits = []  # party 1's openings in the semi-honest run
    open_begin = session.open_begin

    def tap(sess, x, rnd):
        if sess.party.index == 1:
            opened_bits.append(elem_acct_bits(x.mod, sess.params.ell) * x.lo.size)
        return open_begin(sess, x, rnd)

    with monkeypatch.context() as m:
        m.setattr(session, "open_begin", tap)
        m.setattr(P, "open_begin", tap)
        assert cli.main(base) == 0
    semi = json.loads(capsys.readouterr().out)
    assert cli.main(base + ["--threat", "malicious"]) == 0
    mal = json.loads(capsys.readouterr().out)
    assert opened_bits
    surplus = mal["meter"]["acct_bytes"] - semi["meter"]["acct_bytes"]
    assert surplus == sum(opened_bits) / 8
    assert mal["agreement"] == semi["agreement"]
