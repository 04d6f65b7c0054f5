"""Modular arithmetic over the three rings Z_{2^ell}, Z_p and Z_2.

Everything downstream (shares, protocols, oracles) works on raw ring
values reduced with the helpers here and stored in one numpy dtype per
modulus (`dtype_for`): uint8 for Z_2 and Z_p, uint64 for Z_{2^ell}.
The compare prime p is not a setting: it is the smallest prime above
ell + 1 (37 at ell = 32, 67 at ell = 64), so Z_p is always one byte.
Fixed-point reals live in Z_{2^ell} in two's complement with `fp`
fractional bits.
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
    else uint64 (Z_{2^ell})."""
    return NARROW if 2 * (modulus - 1) < 256 else UINT


_REM_LUT_SPAN = 1 << 17
_REM_LUTS: dict = {}


def _rem_lut(modulus: int) -> np.ndarray:
    lut = _REM_LUTS.get(modulus)
    if lut is None:
        lut = (np.arange(_REM_LUT_SPAN, dtype=UINT) % np.uint64(modulus)).astype(dtype_for(modulus))
        _REM_LUTS[modulus] = lut
    return lut


def reduce_mod(x, modulus: int) -> np.ndarray:
    """Reduce an int array into [0, modulus) as dtype_for(modulus).

    modulus may be 2^ell, p or 2; any integer dtype, sign or size is accepted.
    """
    x = np.asarray(x)
    dt = dtype_for(modulus)
    if modulus & (modulus - 1) == 0:  # power of two: mask the two's-complement bits
        if x.dtype != dt:
            x = x.astype(UINT, copy=False).astype(dt, copy=False)
        return x & dt(modulus - 1)
    if x.dtype.kind == "u":
        # wide division is slow; small values take a table lookup
        if x.dtype.itemsize <= 2 or (x.size and int(x.max()) < _REM_LUT_SPAN):
            return _rem_lut(modulus)[x]
        return (x % np.uint64(modulus)).astype(dt, copy=False)
    # signed input: python-level mod keeps the result nonnegative
    return (x.astype(np.int64) % modulus).astype(dt)


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
        # odd: the product is below m^2 < 2^16, a cache-hot table lookup
        return _rem_lut(modulus)[a.astype(np.uint16) * b]


def neg_mod(a, modulus: int) -> np.ndarray:
    dt = dtype_for(modulus)
    with np.errstate(over="ignore"):
        d = -_reduced(a, modulus)  # wraps unless a = 0
        if modulus & (modulus - 1) == 0:
            return d & dt(modulus - 1)
        return np.minimum(d, d + dt(modulus))


def matmul_mod(a, b, modulus: int) -> np.ndarray:
    """Product of 2-D raw matrices, accumulated in wrapping uint64.

    Exact for every 2^ell (2^ell divides 2^64, so the wraps fold away) and
    for odd p while k * (p - 1)^2 < 2^64, with k the inner dimension and
    both operands reduced. einsum's sum-of-products loop is several times
    faster than numpy's uint64 `@` (a plain triple loop), releases the GIL
    and calls no BLAS.
    """
    with np.errstate(over="ignore"):
        return reduce_mod(np.einsum("ij,jk->ik", np.asarray(a, UINT), np.asarray(b, UINT)), modulus)


def signed(x, params: RingParams) -> np.ndarray:
    """Two's-complement view of Z_L raws: values in [-L/2, L/2) as int64."""
    pad = np.uint64(64 - params.ell)  # sign-extend bit ell-1 through bit 63
    return np.asarray(np.asarray(x, UINT) << pad).view(np.int64) >> np.int64(pad)


def shift_signed(x, d, params: RingParams) -> np.ndarray:
    """Arithmetic right-shift by d (scalar or per-element) of the signed view."""
    return reduce_mod(signed(x, params) >> np.asarray(d, np.int64), params.L)


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
    """1 iff a1 + a2 >= L as integers (the two-operand carry), a Z_2 bit."""
    a1 = np.asarray(a1, UINT)
    a2 = np.asarray(a2, UINT)
    if L == 1 << 64:
        with np.errstate(over="ignore"):
            return (a1 + a2 < a1).astype(NARROW)
    return ((a1 + a2) >= np.uint64(L)).astype(NARROW)


def wrap3_exact(a1, a2, a3, L: int) -> np.ndarray:
    """Number of times a1 + a2 + a3 overflows L (0, 1 or 2): the carry of
    a1 + a2, plus the carry of adding a3 to that sum mod L."""
    return wrap2(a1, a2, L) + wrap2(add_mod(a1, a2, L), a3, L)


def wrap3(a1, a2, a3, L: int) -> np.ndarray:
    """Parity of wrap3_exact as a Z_2 bit; the 'wrap' used throughout the protocols."""
    return (wrap3_exact(a1, a2, a3, L) & np.uint64(1)).astype(NARROW)


def bit_decompose(x, params: RingParams) -> np.ndarray:
    """LSB-first bits of Z_L raws as uint8; output shape x.shape + (ell,)."""
    x = np.asarray(x, UINT)
    octets = np.ascontiguousarray(x, "<u8").view(np.uint8).reshape(x.shape + (8,))
    return np.unpackbits(octets, axis=-1, count=params.ell, bitorder="little")
