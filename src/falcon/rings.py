"""Modular arithmetic over the three rings Z_{2^ell}, Z_p and Z_2.

Everything downstream (shares, protocols, oracles) works on raw ring
values reduced with the helpers here and stored in one numpy dtype per
modulus (`dtype_for`): uint8 for Z_2 and Z_p, and for Z_{2^ell} a word,
uint32 for ell <= 32 and uint64 above. Z_{2^ell} arithmetic wraps in that word, which is exact because 2^ell
divides the word's range, so no kernel widens a share. The compare prime
p is not a setting: it is the smallest prime above ell + 1 (37 at
ell = 32, 67 at ell = 64), so Z_p is always one byte.
Fixed-point reals live in Z_{2^ell} in two's complement with `fp`
fractional bits. Powers of two reduce by a mask, and an odd modulus by one
kernel for every input dtype, x - m (x // m) (`reduce_mod`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count

import numpy as np

UINT = np.uint64
NARROW = np.uint8


class RingError(ValueError):
    """Modulus mismatch or out-of-ring value."""


@dataclass(frozen=True)
class RingParams:
    """Ring configuration: main ring width and fixed-point bits."""

    ell: int = 32
    fp: int = 13

    def __post_init__(self):
        if not 8 <= self.ell <= 64:
            raise RingError(f"ell must be in [8, 64], got {self.ell}")
        if not 0 < self.fp < self.ell - 2:
            raise RingError(f"fp must be in (0, ell-2), got {self.fp}")

    @property
    def L(self) -> int:
        return 1 << self.ell

    @cached_property
    def p(self) -> int:
        """The compare prime: the smallest prime above ell + 1, so every
        private-compare factor, in [0, ell + 1], lies strictly below it. One
        exists below 2 ell + 2 (Bertrand), so p <= 67 for ell <= 64."""
        return next(q for q in count(self.ell + 2) if all(q % d for d in range(2, q)))


# ---------------------------------------------------------------------------
# storage dtypes, reduction / signed views


def dtype_for(modulus: int) -> type:
    """Storage dtype of values mod `modulus`: uint8 when the sum of two
    reduced values cannot wrap it (Z_2 and every compare prime, p <= 67),
    else the word of Z_{2^ell}: uint32 up to 2^32, uint64 above. The word
    width follows from the modulus alone."""
    if 2 * (modulus - 1) < 256:
        return NARROW
    return np.uint32 if modulus <= 1 << 32 else UINT


def sum_dtype(modulus: int) -> type:
    """Accumulator of sums and products of values reduced mod `modulus`: a
    power of two wraps its own storage dtype exactly (the modulus divides
    the dtype's range); an odd one sums in uint64, exact while the sum stays
    below 2^64."""
    return dtype_for(modulus) if modulus & (modulus - 1) == 0 else UINT


def reduce_mod(x, modulus: int, out=None) -> np.ndarray:
    """Reduce an int array into [0, modulus) as dtype_for(modulus), into
    `out` when given (an array of that dtype and x's shape).

    modulus may be 2^ell, p or 2. A power of two takes any integer dtype
    and sign. An odd modulus must be stored in one byte (m <= 127, which
    holds for every compare prime); x may then be any integer dtype and sign.
    It takes r = x - m (x // m): numpy divides by a scalar with a
    multiply-shift, where its `%` divides each element. The quotient goes
    straight into the uint8 output, which wraps it: r < m < 2^8, so
    x - m (q mod 2^8) is still r mod 2^8, and no temporary of x's width is
    made. A python-int m takes x's dtype, and // floors, so signed x works.
    """
    x = np.asarray(x)
    dt = dtype_for(modulus)
    if modulus & (modulus - 1) == 0:  # power of two: mask the two's-complement bits
        # one cast: integer casts wrap, and the modulus divides dt's range
        return np.bitwise_and(x.astype(dt, copy=False), dt(modulus - 1), out=out)
    assert dt is NARROW, f"odd modulus {modulus} is wider than one byte"
    out = np.floor_divide(x, modulus, out=np.empty(x.shape, dt) if out is None else out,
                          casting="unsafe")
    out *= modulus
    return np.subtract(x, out, out=out, casting="unsafe")


# The mod-m helpers assume their array operands are already reduced (every
# share component and every deserialized/public value is); operands of
# another dtype (python ints, uint64 bits into Z_p, ...) are reduced first.
# One branchless kernel serves both storage dtypes: a + b never wraps the
# dtype, so min(s, s - m) corrects a sum (s - m wraps above s when s < m),
# a wrapped difference is corrected by min(d, d + m), and powers of two mask.


def _reduced(a, modulus: int) -> np.ndarray:
    a = np.asarray(a)
    return a if a.dtype == dtype_for(modulus) else reduce_mod(a, modulus)


def add_mod(a, b, modulus: int) -> np.ndarray:
    dt = dtype_for(modulus)
    with np.errstate(over="ignore"):
        s = _reduced(a, modulus) + _reduced(b, modulus)
        if modulus & (modulus - 1) == 0:
            return s & dt(modulus - 1)
        return np.minimum(s, s - dt(modulus))


def sub_mod(a, b, modulus: int) -> np.ndarray:
    dt = dtype_for(modulus)
    with np.errstate(over="ignore"):
        d = _reduced(a, modulus) - _reduced(b, modulus)  # wraps when a < b
        if modulus & (modulus - 1) == 0:
            return d & dt(modulus - 1)
        return np.minimum(d, d + dt(modulus))


def mul_mod(a, b, modulus: int) -> np.ndarray:
    dt = dtype_for(modulus)
    with np.errstate(over="ignore"):
        a, b = _reduced(a, modulus), _reduced(b, modulus)
        if modulus & (modulus - 1) == 0:
            return (a * b) & dt(modulus - 1)
        # odd: the product is below m^2 < 2^16, a uint16 that reduce_mod
        # divides straight into the uint8 result
        return reduce_mod(a.astype(np.uint16) * b, modulus)


def neg_mod(a, modulus: int) -> np.ndarray:
    dt = dtype_for(modulus)
    with np.errstate(over="ignore"):
        d = -_reduced(a, modulus)  # wraps unless a = 0
        if modulus & (modulus - 1) == 0:
            return d & dt(modulus - 1)
        return np.minimum(d, d + dt(modulus))


def matmul_mod(a, b, modulus: int) -> np.ndarray:
    """Product of 2-D raw matrices, accumulated in wrapping `sum_dtype`.

    Exact for every 2^ell, whose word (uint32 up to 2^32, else uint64) it
    divides, so the wraps fold away; and for odd p in uint64 while
    k * (p - 1)^2 < 2^64, with k the inner dimension and both operands
    reduced. einsum's sum-of-products loop is several times faster than
    numpy's integer `@` (a plain triple loop), and about twice as fast on
    uint32 as on uint64; it releases the GIL and calls no BLAS.
    """
    acc = sum_dtype(modulus)
    with np.errstate(over="ignore"):
        return reduce_mod(np.einsum("ij,jk->ik", np.asarray(a, acc), np.asarray(b, acc)), modulus)


def signed(x, params: RingParams) -> np.ndarray:
    """Two's-complement view of Z_L raws: values in [-L/2, L/2) as the
    signed integer of Z_L's word (int32 for ell <= 32, else int64)."""
    dt = np.dtype(dtype_for(params.L))
    pad = 8 * dt.itemsize - params.ell  # sign-extend bit ell-1 through the word
    word = np.asarray(np.asarray(x).astype(dt, copy=False) << pad)
    return word.view(f"i{dt.itemsize}") >> pad


def shift_signed(x, d, params: RingParams) -> np.ndarray:
    """Arithmetic right-shift by d (scalar or per-element) of the signed view."""
    s = signed(x, params)
    return reduce_mod(s >> np.asarray(d, s.dtype), params.L)


# ---------------------------------------------------------------------------
# fixed-point encoding


def encode_fixed(real, params: RingParams) -> np.ndarray:
    """round(real * 2^fp) in two's complement over Z_L.

    Raises OverflowError when |real| reaches 2^{ell-1-fp} or is not a number.
    """
    real = np.asarray(real, dtype=np.float64)
    limit = float(1 << (params.ell - 1 - params.fp))
    if not np.all(np.abs(real) < limit):
        raise OverflowError(f"|real| must be < 2^{params.ell - 1 - params.fp}")
    raw = np.rint(real * float(1 << params.fp)).astype(np.int64)
    return reduce_mod(raw, params.L)


def decode_fixed(raw, params: RingParams) -> np.ndarray:
    """Inverse of encode_fixed (float64)."""
    return signed(raw, params).astype(np.float64) / float(1 << params.fp)


# ---------------------------------------------------------------------------
# wrap functions (plain, non-secure; also used as oracles)


def wrap2(a1, a2, L: int) -> np.ndarray:
    """1 iff a1 + a2 >= L as integers (the two-operand carry), a Z_2 bit,
    for a1, a2 in [0, L). Summed in L's word: where L is the word's whole
    range the carry is the sum's overflow, else the sum cannot overflow."""
    dt = np.dtype(dtype_for(L))
    a1 = np.asarray(a1, dt)
    a2 = np.asarray(a2, dt)
    if L == 1 << 8 * dt.itemsize:
        with np.errstate(over="ignore"):
            return (a1 + a2 < a1).astype(NARROW)
    return ((a1 + a2) >= L).astype(NARROW)


def wrap3_exact(a1, a2, a3, L: int) -> np.ndarray:
    """Number of times a1 + a2 + a3 overflows L (0, 1 or 2): the carry of
    a1 + a2, plus the carry of adding a3 to that sum mod L."""
    return wrap2(a1, a2, L) + wrap2(add_mod(a1, a2, L), a3, L)


def wrap3(a1, a2, a3, L: int) -> np.ndarray:
    """Parity of wrap3_exact as a Z_2 bit; the 'wrap' used throughout the protocols."""
    return wrap3_exact(a1, a2, a3, L) & 1


def bit_decompose(x, params: RingParams) -> np.ndarray:
    """LSB-first bits of Z_L raws as uint8, bit-major: C-contiguous planes
    of shape (ell,) + x.shape, plane i holding every element's bit i."""
    dt = np.dtype(dtype_for(params.L))
    x = np.asarray(x, dt)
    octets = np.ascontiguousarray(x, dt.newbyteorder("<")).view(np.uint8)
    octets = octets.reshape(x.shape + (dt.itemsize,))
    # unpack along the contiguous last axis, then copy the planes out: unpacking
    # along a strided first axis made three-thread private compares ~6 % slower
    bits = np.unpackbits(octets, axis=-1, count=params.ell, bitorder="little")
    return np.ascontiguousarray(np.moveaxis(bits, -1, 0))
