"""Every file the package reads or writes (IDX, the tensor container, float
.npz archives) and synthetic digits. `read_file` opens each input file and
`write_file` each output file, so one that cannot be read, written or
parsed raises FormatError naming it.

The build environment has no network access, so a deterministic synthetic
28x28 digit dataset stands in for MNIST: glyph rendering with seeded
affine jitter, stroke thickening and pixel noise, written to genuine IDX
files (magic 0x803/0x801) so the ingestion path exercises the real format.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
import zipfile
import zlib

import numpy as np

from .rings import RingParams, encode_fixed

STORE_MAGIC = b"FALTENS1"


class FormatError(ValueError):
    """A file cannot be read or written, or does not parse as its format."""


@contextlib.contextmanager
def _os_errors(verb: str, what: str, path: str):
    """Turn an OSError into a FormatError that names the file."""
    try:
        yield
    except OSError as exc:
        raise FormatError(f"cannot {verb} {what} {path}: {exc.strerror or exc}") from None


def read_file(path: str, what: str) -> bytes:
    """The bytes of the `what` file at path, or FormatError naming it if it cannot be read."""
    with _os_errors("read", what, path), open(path, "rb") as f:
        return f.read()


def write_file(path: str, what: str, data):
    """Write data (an iterable of bytes-like chunks) as the `what` file at
    path, or raise FormatError naming it if it cannot be written."""
    with _os_errors("write", what, path), open(path, "wb") as f:
        f.writelines(data)


def check_words(path: str, key: str, arr: np.ndarray, modulus: int):
    """Refuse an entry that is not unsigned integers below modulus (<= 2^64)."""
    if arr.dtype.kind != "u":
        raise FormatError(f"{path}: {key!r} holds {arr.dtype}, not unsigned integers")
    if modulus < 1 << 64 and arr.size and int(arr.max()) >= modulus:
        raise FormatError(f"{path}: {key!r} holds {int(arr.max())}, not below {modulus}")


# ---------------------------------------------------------------------------
# IDX files: a big-endian magic 0x800 + ndim (unsigned bytes), the ndim
# dimensions (u32 each), then the bytes


def read_idx(path: str, ndim: int) -> np.ndarray:
    blob = read_file(path, "IDX file")
    head = 4 * (1 + ndim)
    if len(blob) < head:
        raise FormatError(f"{path}: truncated IDX header")
    magic, *shape = struct.unpack_from(f">{1 + ndim}I", blob)
    if magic != 0x800 + ndim:
        raise FormatError(f"{path}: bad IDX magic 0x{magic:08x}, not 0x{0x800 + ndim:08x}")
    if len(blob) - head != math.prod(shape):
        raise FormatError(f"{path}: IDX body of {len(blob) - head} bytes, not {math.prod(shape)}")
    return np.frombuffer(blob, np.uint8, offset=head).reshape(shape)


def write_idx(path: str, array: np.ndarray):
    array = np.ascontiguousarray(array, np.uint8)
    head = struct.pack(f">{1 + array.ndim}I", 0x800 + array.ndim, *array.shape)
    write_file(path, "IDX file", (head, array))


# ---------------------------------------------------------------------------
# numpy archives: float weights


def load_npz(path: str) -> dict:
    """The arrays of a numpy .npz archive, read without unpickling."""
    blob = read_file(path, "npz file")
    try:
        archive = np.load(io.BytesIO(blob), allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an archive")
        return dict(archive)
    except (ValueError, EOFError, RuntimeError, zipfile.BadZipFile, zlib.error) as exc:  # a damaged archive
        raise FormatError(f"{path}: not an .npz archive: {type(exc).__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# the tensor container: every named-array file of the package (the dataset
# store, ring checkpoints, preprocessing files) is this layout with its own
# magic: magic, count (u32), then per array its name (u16 length + utf-8),
# dtype code (1 byte), ndim (u8), shape (u32 each) and little-endian bytes.

_DTYPES = {b"u": np.dtype("<u8"), b"w": np.dtype("<u4"), b"b": np.dtype("u1"),
           b"f": np.dtype("<f8")}
_CODES = {dt.name: code for code, dt in _DTYPES.items()}


def save_tensors(path: str, tensors: dict, magic: bytes = STORE_MAGIC):
    chunks = [magic, struct.pack("<I", len(tensors))]
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        code = _CODES.get(arr.dtype.name)
        if code is None:
            raise FormatError(f"unsupported tensor dtype {arr.dtype}")
        nb = name.encode()
        chunks.append(struct.pack(f"<H{len(nb)}sc B{arr.ndim}I", len(nb), nb, code, arr.ndim, *arr.shape))
        chunks.append(np.ascontiguousarray(arr, _DTYPES[code]))
    write_file(path, f"{magic.decode()} file", chunks)


def load_tensors(path: str, magic: bytes = STORE_MAGIC) -> dict:
    """Read a container written with the same magic; any other content
    raises FormatError. Arrays are read-only views of the file's bytes."""
    blob = memoryview(read_file(path, f"{magic.decode()} file"))
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
    images, labels = read_idx(image_path, 3), read_idx(label_path, 1)
    if len(images) != len(labels):
        raise FormatError(f"{image_path} holds {len(images)} images, {label_path} {len(labels)} labels")
    tensors = {"images": encode_fixed(images / 256.0, params), "labels": labels, "pixels": images}
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
    with _os_errors("write", "IDX directory", dirpath):
        os.makedirs(dirpath, exist_ok=True)
    paths = {}
    for split, prefix, n, s in (("train", "train", n_train, seed), ("test", "t10k", n_test, seed + 1)):
        for kind, array in zip(("images", "labels"), synth_digits(n, seed=s)):
            key = f"{split}_{kind}"  # the file as MNIST names it, e.g. t10k-labels-idx1-ubyte
            paths[key] = os.path.join(dirpath, f"{prefix}-{kind}-idx{array.ndim}-ubyte")
            write_idx(paths[key], array)
    return paths
