"""Modular arithmetic over the three rings Z_{2^ell}, Z_p and Z_2.

Everything downstream (shares, protocols, oracles) works on raw ring
values stored as numpy uint64 arrays, reduced with the helpers here.
Fixed-point reals live in Z_{2^ell} in two's complement with `fp`
fractional bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UINT = np.uint64


class RingError(ValueError):
    """Modulus mismatch or out-of-ring value."""


@dataclass(frozen=True)
class RingParams:
    """Ring configuration: main ring width, compare prime, fixed-point bits."""

    ell: int = 32
    p: int = 37
    fp: int = 13

    def __post_init__(self):
        if not 8 <= self.ell <= 64:
            raise RingError(f"ell must be in [8, 64], got {self.ell}")
        # p > ell + 2 keeps every private-compare factor strictly below p.
        if self.p <= self.ell + 2:
            raise RingError(f"p must exceed ell + 2 = {self.ell + 2}, got {self.p}")
        if not _is_prime(self.p):
            raise RingError(f"p must be prime, got {self.p}")
        if not 0 < self.fp < self.ell - 2:
            raise RingError(f"fp must be in (0, ell-2), got {self.fp}")

    @property
    def L(self) -> int:
        return 1 << self.ell


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# reduction / signed views


_REM_LUT_SPAN = 1 << 17
_REM_LUTS: dict = {}


def _rem_lut(modulus: int) -> np.ndarray:
    lut = _REM_LUTS.get(modulus)
    if lut is None:
        lut = (np.arange(_REM_LUT_SPAN, dtype=np.uint64) % np.uint64(modulus)).astype(UINT)
        _REM_LUTS[modulus] = lut
    return lut


def reduce_mod(x, modulus: int) -> np.ndarray:
    """Reduce int array into [0, modulus) as uint64. modulus may be 2^ell, p or 2."""
    x = np.asarray(x)
    if modulus & (modulus - 1) == 0:  # power of two
        if modulus == 1 << 64:
            return x.astype(UINT)
        with np.errstate(over="ignore"):
            return x.astype(UINT) & np.uint64(modulus - 1)
    if x.dtype == UINT:
        # uint64 division is slow; small intermediates take a table lookup
        if modulus < 256 and x.size and int(x.max()) < _REM_LUT_SPAN:
            return _rem_lut(modulus)[x]
        return x % np.uint64(modulus)
    # signed input: python-level mod keeps the result nonnegative
    return (x.astype(np.int64) % modulus).astype(UINT)


# The mod-m helpers assume their array operands are already reduced (every
# share component and every deserialized/public value is); for odd moduli
# this allows branchless correction instead of slow uint64 division.


def add_mod(a, b, modulus: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        if modulus & (modulus - 1) == 0:
            return reduce_mod(np.asarray(a, UINT) + np.asarray(b, UINT), modulus)
        s = np.asarray(a, UINT) + np.asarray(b, UINT)  # < 2m, no wrap
        m = np.uint64(modulus)
        return np.where(s >= m, s - m, s)


def sub_mod(a, b, modulus: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        if modulus & (modulus - 1) == 0:
            return reduce_mod(np.asarray(a, UINT) - np.asarray(b, UINT), modulus)
        m = np.uint64(modulus)
        s = np.asarray(a, UINT) + (m - np.asarray(b, UINT))  # in [0, 2m)
        return np.where(s >= m, s - m, s)


def mul_mod(a, b, modulus: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        if modulus & (modulus - 1) == 0:
            return reduce_mod(np.asarray(a, UINT) * np.asarray(b, UINT), modulus)
        prod = np.asarray(a, UINT) * np.asarray(b, UINT)  # < m^2, cache-hot LUT
        if modulus < 256:
            return _rem_lut(modulus)[prod]
        return prod % np.uint64(modulus)


def neg_mod(a, modulus: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        if modulus & (modulus - 1) == 0:
            return reduce_mod(np.uint64(0) - np.asarray(a, UINT), modulus)
        m = np.uint64(modulus)
        s = m - np.asarray(a, UINT)
        return np.where(s >= m, s - m, s)


def matmul_mod(a, b, modulus: int) -> np.ndarray:
    """Matrix product of uint64 raws; exact because 2^ell | 2^64 (wraps fold)."""
    if modulus & (modulus - 1) != 0:
        # Z_p: products fit in uint64 for p < 2^16 and inner dims < 2^32
        with np.errstate(over="ignore"):
            return (np.asarray(a, UINT) @ np.asarray(b, UINT)) % np.uint64(modulus)
    with np.errstate(over="ignore"):
        return reduce_mod(np.asarray(a, UINT) @ np.asarray(b, UINT), modulus)


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

    Raises OverflowError when |real| reaches 2^{ell-1-fp}.
    """
    real = np.asarray(real, dtype=np.float64)
    limit = float(1 << (params.ell - 1 - params.fp))
    if np.any(np.abs(real) >= limit):
        raise OverflowError(f"|real| must be < 2^{params.ell - 1 - params.fp}")
    raw = np.rint(real * float(1 << params.fp)).astype(np.int64)
    return reduce_mod(raw, params.L)


def decode_fixed(raw, params: RingParams) -> np.ndarray:
    """Inverse of encode_fixed (float64)."""
    return signed(raw, params).astype(np.float64) / float(1 << params.fp)


# ---------------------------------------------------------------------------
# wrap functions (plain, non-secure; also used as oracles)


def wrap2(a1, a2, L: int) -> np.ndarray:
    """1 iff a1 + a2 >= L as integers (the two-operand carry)."""
    a1 = np.asarray(a1, UINT)
    a2 = np.asarray(a2, UINT)
    if L == 1 << 64:
        with np.errstate(over="ignore"):
            return (a1 + a2 < a1).astype(UINT)
    return ((a1 + a2) >= np.uint64(L)).astype(UINT)


def wrap3_exact(a1, a2, a3, L: int) -> np.ndarray:
    """Number of times a1 + a2 + a3 overflows L (0, 1 or 2)."""
    a1 = np.asarray(a1, UINT)
    a2 = np.asarray(a2, UINT)
    a3 = np.asarray(a3, UINT)
    if L > 1 << 62:
        # 3 * (L - 1) would overflow uint64: count the two carries explicitly
        if L == 1 << 64:
            with np.errstate(over="ignore"):
                s12 = a1 + a2
                c1 = (s12 < a1).astype(UINT)
                s = s12 + a3
                c2 = (s < s12).astype(UINT)
            return c1 + c2
        s = a1.astype(object) + a2.astype(object) + a3.astype(object)
        return np.asarray(s // L, dtype=UINT)
    s = a1 + a2 + a3
    return (s // np.uint64(L)).astype(UINT)


def wrap3(a1, a2, a3, L: int) -> np.ndarray:
    """Parity of wrap3_exact; the 'wrap' used throughout the protocols."""
    return wrap3_exact(a1, a2, a3, L) & np.uint64(1)


def bit_decompose(x, params: RingParams) -> np.ndarray:
    """LSB-first bits of Z_L raws; output shape x.shape + (ell,)."""
    x = np.asarray(x, UINT)
    shifts = np.arange(params.ell, dtype=UINT)
    return ((x[..., None] >> shifts) & np.uint64(1)).astype(UINT)
