"""Tape ops that only the tests use: a scalar loss over a whole tensor for
gradient checks, and a transpose, a reshape and a row slice for the
reference compositions."""

from typing import Sequence

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


def reshape(t: T.Tensor, shape: Sequence[int]) -> T.Tensor:
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != t.size:
        raise ShapeError(f"reshape: cannot view {t.shape} as {shape}")
    out = T.Tensor(t.data.reshape(shape))
    if T._tracked(t):
        def bwd(g):
            T._accum(t, g.reshape(t.shape))
        T._record(out, (t,), bwd)
    return out


def slice_rows(t: T.Tensor, lo: int, hi: int) -> T.Tensor:
    """Rows [lo, hi) of a 2-D tensor; gradients add into one full-size buffer."""
    if t.data.ndim != 2:
        raise ShapeError(f"slice_rows needs a 2-D tensor, got {t.shape}")
    if not (0 <= lo < hi <= t.shape[0]):
        raise ShapeError(f"slice_rows: [{lo}, {hi}) outside {t.shape[0]} rows")
    out = T.Tensor(t.data[lo:hi])
    if T._tracked(t):
        def bwd(g):
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad[lo:hi] += g
        T._record(out, (t,), bwd)
    return out
