"""Every file the command line reads, unreadable or malformed, and every
file it writes, unwritable: each case exits with status 2 and an `error:`
line that names the file, before any protocol output and without a
traceback."""

import json
import shutil

import numpy as np
import pytest

from falcon import cli, nn
from falcon.data import ingest_mnist, save_tensors, write_synth_idx
from falcon.netspec import LayerSpec, NetworkSpec, init_float_params
from falcon.rings import UINT, RingParams, encode_fixed

PARAMS = RingParams(ell=32, fp=13)
NET = NetworkSpec("tiny", (784,), 10, [LayerSpec("fc", in_dim=784, out_dim=10)])


@pytest.fixture(scope="module")
def good(tmp_path_factory) -> dict:
    """One well-formed file of each kind the command line reads."""
    d = tmp_path_factory.mktemp("good")
    idx = write_synth_idx(str(d), n_train=6, n_test=1, seed=11)
    ingest_mnist(idx["train_images"], idx["train_labels"], str(d / "data.bin"), PARAMS)
    (d / "net.json").write_text(NET.to_json())
    floats = init_float_params(NET, seed=2)
    nn.save_checkpoint(str(d / "w.ckpt"), {k: encode_fixed(v, PARAMS) for k, v in floats.items()},
                       PARAMS)
    np.savez(d / "w.npz", **floats)
    (d / "peers.json").write_text(json.dumps({str(i): ["127.0.0.1", 1] for i in (1, 2, 3)}))
    assert cli.main(BENCH + ["--prep", f"file:{d / 'prep'}"]) == 0
    files = {"net": d / "net.json", "ckpt": d / "w.ckpt", "npz": d / "w.npz", "data": d / "data.bin",
             "prep": d / "prep.p1", "peers": d / "peers.json",
             "images": idx["train_images"], "labels": idx["train_labels"]}
    return {k: str(v) for k, v in files.items()}


BENCH = ["bench", "--protocol", "mult", "--n", "4"]


def _infer(f: dict) -> list:
    return ["infer", "--net", f["net"], "--weights", f["ckpt"], "--data", f["data"], "--count", "2"]


def _ingest(f: dict) -> list:
    return ["ingest-mnist", "--images", f["images"], "--labels", f["labels"], "--out", f["out"]]


# the file under test -> the command that reads it, given every file's path
COMMANDS = {
    "net": _infer,
    "ckpt": _infer,
    "npz": lambda f: _infer({**f, "ckpt": f["npz"]}),
    "data": _infer,
    "prep": lambda f: BENCH + ["--prep", "file:" + f["prep"].removesuffix(".p1")],
    "peers": lambda f: BENCH + ["--party", "1", "--config", f["peers"]],
    "images": _ingest,
    "labels": _ingest,
}

DAMAGE = {
    "missing": lambda path, blob: None,
    "directory": lambda path, blob: path.mkdir(),
    "empty": lambda path, blob: path.write_bytes(b""),
    "truncated": lambda path, blob: path.write_bytes(blob[: len(blob) // 2]),
    "garbage": lambda path, blob: path.write_bytes(b"garbage"),
}

# a missing preprocessing file is not an error: the run records one
CASES = [(kind, damage) for kind in COMMANDS for damage in DAMAGE
         if (kind, damage) != ("prep", "missing")]


def _refused(capsys, argv: list, path: str):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and path in err and "Traceback" not in err, err
    assert not out


@pytest.mark.parametrize("kind, damage", CASES, ids=[f"{k}-{d}" for k, d in CASES])
def test_unreadable_or_malformed_input_file_exits_2(good, tmp_path, capsys, kind, damage):
    files = {**good, "out": str(tmp_path / "out.bin")}
    if kind == "prep":  # the other parties' files stay whole
        for i in (2, 3):
            shutil.copy(good["prep"].replace(".p1", f".p{i}"), tmp_path)
    src = good[kind]
    bad = tmp_path / src.rsplit("/", 1)[-1]
    with open(src, "rb") as f:
        DAMAGE[damage](bad, f.read())
    files[kind] = str(bad)
    _refused(capsys, COMMANDS[kind](files), str(bad))


STORES = {
    "no-images": lambda images, labels: {"labels": labels},
    "no-labels": lambda images, labels: {"images": images},
    "a-label-short": lambda images, labels: {"images": images, "labels": labels[:-1]},
    "labels-2d": lambda images, labels: {"images": images, "labels": labels.reshape(-1, 1)},
    "images-too-small": lambda images, labels: {"images": images[:, :27, :27], "labels": labels},
    "float-images": lambda images, labels: {"images": images.astype(np.float64), "labels": labels},
    "images-beyond-the-ring": lambda images, labels: {"images": images.astype(np.uint64) + (1 << 32),
                                                      "labels": labels},
}


@pytest.mark.parametrize("command", ["infer", "train"])
@pytest.mark.parametrize("store", STORES)
def test_store_that_does_not_fit_the_net_exits_2(good, tmp_path, capsys, store, command):
    rng = np.random.default_rng(5)
    images = encode_fixed(rng.uniform(0, 1, (6, 28, 28)), PARAMS)
    labels = rng.integers(0, 10, 6).astype(np.uint8)
    path = str(tmp_path / "store.bin")
    save_tensors(path, STORES[store](images, labels))
    argv = _infer({**good, "data": path}) if command == "infer" else [
        "train", "--net", good["net"], "--data", path, "--iters", "1", "--batch", "2",
        "--train-count", "4", "--eval-count", "1"]
    _refused(capsys, argv, path)


@pytest.mark.parametrize("weights", ["float64", "beyond-the-ring"])
def test_ring_checkpoint_must_hold_ring_words(good, tmp_path, capsys, weights):
    # the oracle decodes the same entries, so inference on them would agree
    # with it: only the loader can tell that they are not ring words
    floats = init_float_params(NET, seed=2)
    params = (floats if weights == "float64" else
              {k: encode_fixed(v, PARAMS).astype(np.uint64) + (1 << 32) for k, v in floats.items()})
    path = str(tmp_path / "w.ckpt")
    save_tensors(path, {**params, "ring": np.array([PARAMS.ell, PARAMS.p, PARAMS.fp], UINT)},
                 nn.CKPT_MAGIC)
    _refused(capsys, _infer({**good, "ckpt": path}), path)


# a path under a directory that does not exist, and one under a regular file
OUTPUTS = {
    "ingest-mnist": lambda f, d: _ingest({**f, "out": str(d / "no-such-dir" / "x.bin")}),
    "train": lambda f, d: ["train", "--net", f["net"], "--data", f["data"], "--iters", "1",
                           "--batch", "2", "--train-count", "4", "--eval-count", "1",
                           "--out", str(d / "no-such-dir" / "x.ckpt")],
    "synth-data": lambda f, d: ["synth-data", "--train-n", "2", "--test-n", "1",
                                "--out-dir", f["net"] + "/idx"],
}


@pytest.mark.parametrize("command", OUTPUTS)
def test_unwritable_output_file_exits_2(good, tmp_path, capsys, command):
    # train opens its checkpoint before the session starts, so a bad path
    # costs no secure training run
    argv = OUTPUTS[command](good, tmp_path)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: cannot write ") and argv[-1] in err and "Traceback" not in err, err
    assert "secure sgd iteration" not in out, out
