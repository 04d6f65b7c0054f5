"""Shared test helpers: reconstruction across in-process parties."""

import numpy as np
import pytest

from falcon.rings import RingParams, add_mod


def reconstruct_all(shares) -> np.ndarray:
    """Sum the three parties' lo components (test-side, no protocol)."""
    s1, s2, s3 = shares
    assert s1.mod == s2.mod == s3.mod
    # consistency of the replicated layout
    assert np.array_equal(s1.hi, s2.lo)
    assert np.array_equal(s2.hi, s3.lo)
    assert np.array_equal(s3.hi, s1.lo)
    return add_mod(add_mod(s1.lo, s2.lo, s1.mod), s3.lo, s1.mod)


@pytest.fixture
def params32() -> RingParams:
    return RingParams(ell=32, fp=13)


@pytest.fixture
def params8() -> RingParams:
    return RingParams(ell=8, fp=4)
