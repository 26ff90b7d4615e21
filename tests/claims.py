"""Which equality a test claims between two computations.

OpenBLAS rounds a row of a matrix product differently depending on how
many rows it is multiplied with, and on the kernel it picks for the host
(``OPENBLAS_CORETYPE``).  So a test claims one of two things:

- ``BITWISE``: only where the same arrays meet the same kernel at the same
  shapes, such as fixed-seed reruns, checkpoint round trips, or two paths
  that hand the BLAS the same products;
- ``CLOSE``: within 1e-10 of the larger of 1 and the largest magnitude
  wanted, everywhere else, in particular wherever the two sides reach the
  BLAS with different shapes.  The tier-1 suite must pass under any
  kernel, and only these two claims do.
"""

import numpy as np

BITWISE = "bitwise"
CLOSE = "within 1e-10"


def assert_agree(got, want, claim, what=""):
    """``got`` equals ``want`` as ``claim`` (``BITWISE`` or ``CLOSE``) says."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, f"{what}: shapes {got.shape} and {want.shape}"
    if claim == BITWISE:
        assert got.tobytes() == want.tobytes(), what
    elif claim == CLOSE:
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-10 * scale, what
    else:
        raise ValueError(f"unknown claim {claim!r}")


def shapes_claim(same_shapes):
    """``BITWISE`` where both sides hand the BLAS the same shapes, else ``CLOSE``."""
    return BITWISE if same_shapes else CLOSE
