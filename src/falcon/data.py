"""Dataset handling: IDX parsing, the binary tensor store, synthetic digits.

The build environment has no network access, so a deterministic synthetic
28x28 digit dataset stands in for MNIST: glyph rendering with seeded
affine jitter, stroke thickening and pixel noise, written to genuine IDX
files (magic 0x803/0x801) so the ingestion path exercises the real format.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .rings import RingParams, encode_fixed

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
STORE_MAGIC = b"FALTENS1"


class FormatError(ValueError):
    """A file's content does not parse as the format its reader expects."""


# ---------------------------------------------------------------------------
# IDX files


def read_idx_images(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(16)
        if len(head) != 16:
            raise FormatError("truncated IDX image header")
        magic, n, rows, cols = struct.unpack(">IIII", head)
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"bad IDX image magic 0x{magic:08x}")
        body = f.read(n * rows * cols)
        if len(body) != n * rows * cols:
            raise FormatError("truncated IDX image body")
        return np.frombuffer(body, dtype=np.uint8).reshape(n, rows, cols)


def read_idx_labels(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        head = f.read(8)
        if len(head) != 8:
            raise FormatError("truncated IDX label header")
        magic, n = struct.unpack(">II", head)
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"bad IDX label magic 0x{magic:08x}")
        body = f.read(n)
        if len(body) != n:
            raise FormatError("truncated IDX label body")
        return np.frombuffer(body, dtype=np.uint8)


def write_idx_images(path: str, images: np.ndarray):
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(np.asarray(images, np.uint8).tobytes())


def write_idx_labels(path: str, labels: np.ndarray):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        f.write(np.asarray(labels, np.uint8).tobytes())


# ---------------------------------------------------------------------------
# the tensor container: every named-array file of the package (the dataset
# store, ring checkpoints, preprocessing files) is this layout with its own
# magic: magic, count (u32), then per array its name (u16 length + utf-8),
# dtype code (1 byte), ndim (u8), shape (u32 each) and little-endian bytes.

_DTYPES = {b"u": np.dtype("<u8"), b"b": np.dtype("u1"), b"f": np.dtype("<f8")}
_CODES = {dt.name: code for code, dt in _DTYPES.items()}


def save_tensors(path: str, tensors: dict, magic: bytes = STORE_MAGIC):
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            arr = np.asarray(tensors[name])
            code = _CODES.get(arr.dtype.name)
            if code is None:
                raise FormatError(f"unsupported tensor dtype {arr.dtype}")
            nb = name.encode()
            f.write(struct.pack(f"<H{len(nb)}sc B{arr.ndim}I", len(nb), nb, code, arr.ndim, *arr.shape))
            f.write(arr.astype(_DTYPES[code], copy=False).tobytes())


def load_tensors(path: str, magic: bytes = STORE_MAGIC) -> dict:
    """Read a container written with the same magic; any other content
    raises FormatError. Arrays are read-only views of the file's bytes."""
    with open(path, "rb") as f:
        blob = memoryview(f.read())
    if blob[: len(magic)] != magic:
        raise FormatError(f"{path}: not a {magic.decode()} file")
    pos = len(magic)

    def take(n: int) -> memoryview:
        nonlocal pos
        if n > len(blob) - pos:
            raise FormatError(f"{path}: truncated at byte {pos}, wanted {n} more")
        pos += n
        return blob[pos - n : pos]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    out = {}
    (count,) = unpack("<I")
    for _ in range(count):
        (nlen,) = unpack("<H")
        try:
            name = bytes(take(nlen)).decode()
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name at byte {pos - nlen} is not utf-8") from None
        dt = _DTYPES.get(bytes(take(1)))
        if dt is None:
            raise FormatError(f"{path}: unknown dtype code for tensor {name!r}")
        (nd,) = unpack("<B")
        shape = unpack(f"<{nd}I")
        out[name] = np.frombuffer(take(math.prod(shape) * dt.itemsize), dt).reshape(shape)
    if pos != len(blob):
        raise FormatError(f"{path}: {len(blob) - pos} trailing bytes")
    return out


def ingest_mnist(image_path: str, label_path: str, out_path: str, params: RingParams) -> dict:
    """Parse IDX files, scale pixels to [0, 1) fixed point, persist and return."""
    images = read_idx_images(image_path)
    labels = read_idx_labels(label_path)
    if len(images) != len(labels):
        raise FormatError("image/label counts differ")
    raw = encode_fixed(images.astype(np.float64) / 256.0, params)
    tensors = {"images": raw, "labels": labels, "pixels": images}
    save_tensors(out_path, tensors)
    return tensors


# ---------------------------------------------------------------------------
# synthetic digit dataset

# 7x5 dot-matrix digits, row-major
_FONT = {
    0: ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],
    1: ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    2: ["01110", "10001", "00001", "00110", "01000", "10000", "11111"],
    3: ["11111", "00010", "00100", "00110", "00001", "10001", "01110"],
    4: ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    5: ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    6: ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    7: ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    8: ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    9: ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
}


def _glyph(digit: int) -> np.ndarray:
    return np.array([[int(c) for c in row] for row in _FONT[digit]], dtype=np.float64)


def synth_digits(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """n jittered digit images (uint8, 28x28) with labels, deterministic.

    Difficulty is calibrated so a small MLP behaves roughly as it does on
    the real handwritten-digit corpus (high accuracy within a fraction of
    an epoch, logits staying inside the fp=13 safe envelope).
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, n).astype(np.uint8)
    images = np.zeros((n, 28, 28), dtype=np.float64)
    for i, d in enumerate(labels):
        g = _glyph(int(d))
        scale = rng.choice((3, 4))
        img = np.kron(g, np.ones((scale, scale)))
        if rng.random() < 0.3:  # thicken strokes
            img = np.maximum(img, np.roll(img, 1, axis=rng.integers(0, 2)))
        shear = rng.uniform(-0.08, 0.08)
        h, w = img.shape
        sheared = np.zeros((h, w + 4))
        for r in range(h):
            off = int(round(shear * (r - h / 2))) + 2
            sheared[r, off : off + w] = img[r]
        img = sheared
        h, w = img.shape
        base_t, base_l = (28 - h) // 2, (28 - w) // 2
        top = int(np.clip(base_t + rng.integers(-3, 4), 0, 28 - h))
        left = int(np.clip(base_l + rng.integers(-3, 4), 0, 28 - w))
        canvas = np.zeros((28, 28))
        canvas[top : top + h, left : left + w] = img
        canvas *= rng.uniform(0.9, 1.0)
        canvas += rng.normal(0, 0.015, (28, 28))
        images[i] = np.clip(canvas, 0.0, 0.999)
    return (images * 256).astype(np.uint8), labels


def write_synth_idx(dirpath: str, n_train: int = 10_000, n_test: int = 2_000, seed: int = 7):
    """Materialize the synthetic corpus as IDX files; returns the four paths."""
    import os

    os.makedirs(dirpath, exist_ok=True)
    tr_img, tr_lab = synth_digits(n_train, seed=seed)
    te_img, te_lab = synth_digits(n_test, seed=seed + 1)
    paths = {
        "train_images": os.path.join(dirpath, "train-images-idx3-ubyte"),
        "train_labels": os.path.join(dirpath, "train-labels-idx1-ubyte"),
        "test_images": os.path.join(dirpath, "t10k-images-idx3-ubyte"),
        "test_labels": os.path.join(dirpath, "t10k-labels-idx1-ubyte"),
    }
    write_idx_images(paths["train_images"], tr_img)
    write_idx_labels(paths["train_labels"], tr_lab)
    write_idx_images(paths["test_images"], te_img)
    write_idx_labels(paths["test_labels"], te_lab)
    return paths
