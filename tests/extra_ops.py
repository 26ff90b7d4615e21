"""Tape ops that only the tests use: a scalar loss over a whole tensor for
gradient checks, and a transpose for the reference compositions."""

import numpy as np

from discrel import tensor as T
from discrel.errors import ShapeError


def sum_all(t: T.Tensor) -> T.Tensor:
    out = T.Tensor(np.array([t.data.sum()]))
    if T._tracked(t):
        def bwd(g):
            T._accum(t, np.full_like(t.data, g.ravel()[0]))
        T._record(out, (t,), bwd)
    return out


def transpose(t: T.Tensor) -> T.Tensor:
    if t.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {t.shape}")
    out = T.Tensor(t.data.T.copy())
    if T._tracked(t):
        def bwd(g):
            T._accum(t, g.T)
        T._record(out, (t,), bwd)
    return out
