"""Dense float64 tensors with tape-based reverse-mode autodiff.

Everything downstream (embeddings, encoder blocks, attention, classifier
heads) is built from the operations in this module.  Design points:

- 64-bit floats throughout, so finite-difference gradient checks are sharp.
- A thread-local gradient tape records every differentiable operation whose
  inputs participate in the graph; ``backward`` replays it once, in exact
  reverse execution order, dropping each node as soon as it has been
  replayed.  Distinct model instances may therefore run in parallel threads
  without sharing autodiff state.
- A node keeps only what its backward reads, so composite layers that
  would otherwise keep every intermediate (the gated conv block, the
  bi-attention) are single ops.
- No broadcasting in binary elementwise ops; bias addition is its own op.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    LabelError,
    MissingGradientError,
    ParseError,
    ShapeError,
    WindowError,
)

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "backward",
    "constant",
    "add",
    "sub",
    "mul",
    "add_bias",
    "scalar_mul",
    "sigmoid",
    "tanh",
    "relu",
    "matmul",
    "concat",
    "gather_rows",
    "slice_cols",
    "softmax_rows",
    "conv1d",
    "gated_conv",
    "bi_attention",
    "attention_weights",
    "bigru_scan",
    "topk_pool",
    "cross_entropy",
    "dropout",
    "adagrad_step",
    "save_checkpoint",
    "load_checkpoint",
    "load_parameters",
]


class Tensor:
    """A dense n-dimensional float64 value, optionally tracked for gradients.

    The value in ``data`` is immutable by convention after creation; only the
    ``grad`` slot is written during a backward pass.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.ravel()[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={list(self.shape)}{flag})"


class Parameter(Tensor):
    """A trainable tensor carrying its AdaGrad squared-gradient accumulator."""

    __slots__ = ("accumulator", "name")

    def __init__(self, data, name: str = ""):
        # C order, so that ``adagrad_step`` can update it in flat blocks
        super().__init__(np.require(data, np.float64, "C"), requires_grad=True)
        self.accumulator = np.zeros_like(self.data)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name or '<anon>'}, shape={list(self.shape)})"


# --------------------------------------------------------------------------
# Gradient tape


class _Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor | tuple[Tensor, ...], inputs: tuple[Tensor, ...],
                 backward_fn: Callable):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


_STATE = threading.local()


def _state():
    if not hasattr(_STATE, "tape"):
        _STATE.tape = []
        _STATE.enabled = True
    return _STATE


def active_tape() -> list[_Node]:
    """This thread's recorded operations, in execution order."""
    return _state().tape


class no_grad:
    """Context manager disabling tape recording (inference mode)."""

    def __enter__(self):
        st = _state()
        self._prev = st.enabled
        st.enabled = False
        return self

    def __exit__(self, *exc):
        _state().enabled = self._prev
        return False


def _tracked(*inputs: Tensor) -> bool:
    st = _state()
    return st.enabled and any(t.requires_grad for t in inputs)


def _record(output: Tensor | tuple[Tensor, ...], inputs: tuple[Tensor, ...],
            backward_fn: Callable) -> None:
    """Append one node; an operation with several outputs passes them as a
    tuple, and its ``backward_fn`` receives their gradients as a list, None
    for an output that got none.  A ``backward_fn`` owns the gradient
    arrays it receives and may overwrite them: ``backward`` drops the
    outputs' references before the call, and ``_accum`` copies every
    gradient it stores, so no other holder sees the change.

    Whatever ``backward_fn`` refers to lives as long as the node, which
    ``backward`` drops once it has replayed it: an op should let it refer
    only to the arrays its gradient formulas read."""
    for t in output if isinstance(output, tuple) else (output,):
        t.requires_grad = True
    _state().tape.append(_Node(output, inputs, backward_fn))


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor reachable from ``loss``.

    Consumes the active tape: each recorded operation is popped off it in
    reverse execution order and replayed, and is then dropped, together
    with the arrays its backward kept, so the forward pass's activations
    drain while the parameter gradients fill.  The tape is empty afterwards
    even when a backward step raises.  Leaves are the tensors no recorded
    operation produced (parameters and tracked inputs).  An operation's
    output gradient is complete once its node is reached, and is handed to
    the node's ``backward_fn``, which takes ownership of it and may use it
    as scratch space.
    """
    tape = active_tape()
    try:
        if loss.data.size != 1:
            raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones_like(loss.data)
        while tape:
            _replay(tape.pop())
    finally:
        tape.clear()


def _replay(node: _Node) -> None:
    """Pass one node's output gradients on to its inputs; a node whose
    outputs got none is skipped.  Nothing here outlives the call."""
    out = node.output
    if isinstance(out, tuple):
        grads = [t.grad for t in out]
        if all(g is None for g in grads):
            return
        for t in out:
            t.grad = None
        node.backward_fn(grads)
        return
    g = out.grad
    if g is None:
        return
    out.grad = None
    node.backward_fn(g)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


# --------------------------------------------------------------------------
# Elementwise and affine ops


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} must match exactly")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    out = Tensor(a.data + b.data)
    if _tracked(a, b):
        def bwd(g):
            _accum(a, g)
            _accum(b, g)
        _record(out, (a, b), bwd)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    out = Tensor(a.data - b.data)
    if _tracked(a, b):
        def bwd(g):
            _accum(a, g)
            if b.requires_grad:
                _accum(b, -g)
        _record(out, (a, b), bwd)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    out = Tensor(a.data * b.data)
    if _tracked(a, b):
        def bwd(g):
            if a.requires_grad:
                _accum(a, g * b.data)
            if b.requires_grad:
                _accum(b, g * a.data)
        _record(out, (a, b), bwd)
    return out


def add_bias(m: Tensor, b: Tensor) -> Tensor:
    """Add a vector ``b`` to every row of ``m`` (the one sanctioned broadcast)."""
    if b.data.ndim != 1 or m.shape[-1] != b.shape[0]:
        raise ShapeError(f"add_bias: bias {b.shape} does not fit rows of {m.shape}")
    out = Tensor(m.data + b.data)
    if _tracked(m, b):
        def bwd(g):
            _accum(m, g)
            if b.requires_grad:
                _accum(b, g.reshape(-1, b.shape[0]).sum(axis=0))
        _record(out, (m, b), bwd)
    return out


def scalar_mul(s: Tensor, t: Tensor) -> Tensor:
    """Multiply ``t`` by a single-element tensor ``s`` (e.g. a trained scale)."""
    if s.data.size != 1:
        raise ShapeError(f"scalar_mul: scale must have one element, got shape {s.shape}")
    sval = s.data.ravel()[0]
    out = Tensor(t.data * sval)
    if _tracked(s, t):
        def bwd(g):
            if t.requires_grad:
                _accum(t, g * sval)
            if s.requires_grad:
                _accum(s, np.full_like(s.data, (g * t.data).sum()))
        _record(out, (s, t), bwd)
    return out


def _sigmoid(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sigmoid(a) = tanh(a/2)/2 + 1/2: a single overflow-free tanh, in one
    buffer (``out`` when given, which may be ``a``); exactly 0, 1/2 and 1
    at -800, 0 and 800."""
    y = np.multiply(a, 0.5, out=out)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


def sigmoid(t: Tensor) -> Tensor:
    y = _sigmoid(t.data)
    out = Tensor(y)
    if _tracked(t):
        def bwd(g):
            _accum(t, g * y * (1.0 - y))
        _record(out, (t,), bwd)
    return out


def tanh(t: Tensor) -> Tensor:
    y = np.tanh(t.data)
    out = Tensor(y)
    if _tracked(t):
        def bwd(g):
            _accum(t, g * (1.0 - y * y))
        _record(out, (t,), bwd)
    return out


def relu(t: Tensor) -> Tensor:
    y = np.maximum(t.data, 0.0)
    out = Tensor(y)
    if _tracked(t):
        mask = t.data > 0
        def bwd(g):
            _accum(t, g * mask)
        _record(out, (t,), bwd)
    return out


# --------------------------------------------------------------------------
# Matrix ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree, {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)
    if _tracked(a, b):
        def bwd(g):
            if a.requires_grad:
                _accum(a, g @ b.data.T)
            if b.requires_grad:
                _accum(b, a.data.T @ g)
        _record(out, (a, b), bwd)
    return out


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat: need at least one tensor")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    if _tracked(*parts):
        sizes = [p.shape[axis] for p in parts]
        offsets = np.cumsum([0] + sizes)
        def bwd(g):
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accum(p, g[tuple(sl)])
        _record(out, tuple(parts), bwd)
    return out


def gather_rows(table: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor; gradients scatter-add back into the table."""
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows needs a 2-D table, got {table.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: indices must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise LabelError(f"gather_rows: index out of range for table with {table.shape[0]} rows")
    out = Tensor(table.data[idx])
    if _tracked(table):
        def bwd(g):
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g)
        _record(out, (table,), bwd)
    return out


def slice_cols(t: Tensor, lo: int, hi: int) -> Tensor:
    """Columns [lo, hi) of a 2-D tensor; gradients add into one full-size buffer."""
    if t.data.ndim != 2:
        raise ShapeError(f"slice_cols needs a 2-D tensor, got {t.shape}")
    if not (0 <= lo < hi <= t.shape[1]):
        raise ShapeError(f"slice_cols: [{lo}, {hi}) outside width {t.shape[1]}")
    out = Tensor(t.data[:, lo:hi].copy())
    if _tracked(t):
        def bwd(g):
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad[:, lo:hi] += g
        _record(out, (t,), bwd)
    return out


def _softmax_rows(a: np.ndarray, weights: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> np.ndarray:
    """Row-wise softmax of a 2-D array, max-subtracted for stability.  With
    ``weights`` = (columns, log counts), each of those columns first gains
    its log count, so that a column of count c weighs as c equal columns."""
    e = a - a.max(axis=1, keepdims=True)
    if weights is not None:
        columns, log_counts = weights
        e[:, columns] += log_counts
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _softmax_rows_backward(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the softmax input for softmax ``y`` and output gradient
    ``g``, computed in ``g``'s own buffer."""
    g -= (g * y).sum(axis=1, keepdims=True)
    g *= y
    return g


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction for stability."""
    if m.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-D tensor, got {m.shape}")
    y = _softmax_rows(m.data)
    out = Tensor(y)
    if _tracked(m):
        def bwd(g):
            _accum(m, _softmax_rows_backward(g, y))
        _record(out, (m,), bwd)
    return out


def _checked_counts(counts, rows: int, op: str) -> np.ndarray:
    """``counts`` as a length-``rows`` integer array of counts of at least 1."""
    counts = np.asarray(counts)
    if counts.shape != (rows,) or counts.dtype.kind not in "iu" or counts.min() < 1:
        raise ShapeError(f"{op}: need {rows} integer counts of at least 1, got {counts}")
    return counts


def _log_weights(counts, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """``_softmax_rows``'s weights for ``rows`` counts: the rows of count
    above 1 (none for all ones, so that no log is added) and their log
    counts."""
    counts = _checked_counts(counts, rows, "bi_attention")
    heavy = np.flatnonzero(counts > 1)
    return heavy, np.log(counts[heavy])


def _check_attention(v1: np.ndarray, v2: np.ndarray, w: np.ndarray, b: np.ndarray) -> None:
    if (v1.ndim != 2 or v2.ndim != 2 or v2.shape[1] != v1.shape[1]
            or w.shape != (v1.shape[1],) * 2 or b.shape != (v1.shape[1],)):
        raise ShapeError(f"bi_attention: arguments {v1.shape} and {v2.shape} must be "
                         f"(N1, d) and (N2, d) for weights (d, d) and (d,), got {w.shape} "
                         f"and {b.shape}")


def _attention_weights(v1: np.ndarray, v2: np.ndarray, w: np.ndarray, b: np.ndarray,
                       weights1, weights2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    affine = v1 @ w
    affine += b
    # v2^T as a contiguous copy, as the scores have always been computed:
    # a transposed view takes another BLAS path and moves the last bits.
    scores = affine @ v2.T.copy()
    return (affine, _softmax_rows(scores, weights2),
            _softmax_rows(scores.T.copy(), weights1))


def attention_weights(v1: np.ndarray, v2: np.ndarray, w: np.ndarray, b: np.ndarray,
                      counts1, counts2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(v1 w + b, softmax_rows(M + log c2), softmax_rows(M^T + log c1)) for
    (N1, d) and (N2, d) row sets, ``w`` (d, d) and ``b`` (d,), where
    M = (v1 w + b) v2^T holds the (N1, N2) bilinear scores of v1's rows
    against v2's.  ``counts1`` and ``counts2`` say how many equal rows each
    row of v1 and v2 stands for: log c2[j] is added to column j of every
    row of M before its softmax, and log c1[i] to column i of M^T, so that
    a softmax row equals that over the repeated rows with each row's copies
    summed.  Plain arrays: this is the arithmetic of
    ``bi_attention`` and of exported attention maps."""
    _check_attention(v1, v2, w, b)
    return _attention_weights(v1, v2, w, b, _log_weights(counts1, v1.shape[0]),
                              _log_weights(counts2, v2.shape[0]))


def bi_attention(v1: Tensor, v2: Tensor, w: Tensor, b: Tensor, batch: int,
                 counts1, counts2) -> tuple[Tensor, Tensor]:
    """Each instance's two row sets re-expressed over each other, one tape
    node for the batch.

    ``v1`` is (B*N1, d) and ``v2`` (B*N2, d): ``batch`` = B instances of N1
    and of N2 rows, stacked instance-major, with ``counts1`` (N1,) and
    ``counts2`` (N2,) the same for every instance.  For one instance, with
    p2, p1 the row softmaxes of its scores M and of M^T weighed by the
    counts (see ``attention_weights``), its output rows are (p1 v1, p2 v2):
    one mixture of its v1 rows per v2 row (N2 rows), then one of its v2
    rows per v1 row (N1 rows).  Over distinct rows and their counts, the op
    gives what it gives over the rows repeated, and passes back the
    repeated rows' gradients summed over each row's copies.  Instances
    never mix, and each runs the 2-D products it would run alone, so its
    outputs do not depend on the batch.  The node keeps each instance's
    affine map v1 w + b and two softmax matrices; its backward is written
    out by hand, and either output may go without a gradient.
    """
    _check_attention(v1.data, v2.data, w.data, b.data)
    n1 = _sequence_length(v1, batch, "bi_attention")
    n2 = _sequence_length(v2, batch, "bi_attention")
    tracked = _tracked(v1, v2, w, b)
    blocks = [(slice(i * n1, (i + 1) * n1), slice(i * n2, (i + 1) * n2))
              for i in range(batch)]
    out1, out2 = np.empty_like(v2.data), np.empty_like(v1.data)
    kept = []
    weights1, weights2 = _log_weights(counts1, n1), _log_weights(counts2, n2)
    for s1, s2 in blocks:
        # one instance at a time, so that inference drops its matrices at once
        affine, p2, p1 = _attention_weights(v1.data[s1], v2.data[s2], w.data, b.data,
                                            weights1, weights2)
        out1[s2] = p1 @ v1.data[s1]
        out2[s1] = p2 @ v2.data[s2]
        if tracked:
            kept.append((affine, p2, p1))
    outs = (Tensor(out1), Tensor(out2))
    if not tracked:
        return outs

    def bwd(grads):
        g1, g2 = grads
        for t in (v1, v2):
            if t.requires_grad and t.grad is None:
                t.grad = np.zeros_like(t.data)
        for (s1, s2), (affine, p2, p1) in zip(blocks, kept):
            x1, x2 = v1.data[s1], v2.data[s2]
            d_scores = None
            if g1 is not None:
                d_scores = _softmax_rows_backward(g1[s2] @ x1.T, p1).T
            if g2 is not None:
                d_p2 = _softmax_rows_backward(g2[s1] @ x2.T, p2)
                d_scores = d_p2 if d_scores is None else d_scores + d_p2
            d_affine = d_scores @ x2
            if w.requires_grad:
                _accum(w, x1.T @ d_affine)
            if b.requires_grad:
                _accum(b, d_affine.sum(axis=0))
            # an instance's two terms are summed before they join the
            # buffer, as when the op took one instance: rows stay bitwise
            if v1.requires_grad:
                d_x1 = d_affine @ w.data.T
                if g1 is not None:
                    d_x1 += p1.T @ g1[s2]
                v1.grad[s1] += d_x1
            if v2.requires_grad:
                d_x2 = d_scores.T @ affine
                if g2 is not None:
                    d_x2 += p2.T @ g2[s1]
                v2.grad[s2] += d_x2
    _record(outs, (v1, v2, w, b), bwd)
    return outs


def _sequence_length(x: Tensor, batch: int, op: str) -> int:
    """Rows per sequence of a (batch*N, d) stack; N must be at least one."""
    rows = x.shape[0]
    if batch < 1 or rows < batch or rows % batch:
        raise ShapeError(f"{op}: {rows} rows do not split into {batch} non-empty sequences")
    return rows // batch


# The one convolution: ``batch`` sequences stacked by rows lie end to end
# with ``pad`` zero rows before, between and after them, ``stride`` = n + pad
# rows apart, and k shifted matmuls run one valid convolution over all of
# them.  Output row b*stride + i is position i of sequence b; the windows in
# between straddle two sequences and are dropped.


def _sequences(xp: np.ndarray, batch: int, pad: int) -> np.ndarray:
    """The (B, n, d) view of the sequences in a ``_padded`` layout."""
    n = (xp.shape[0] - pad) // batch - pad
    return xp[pad:].reshape(batch, n + pad, xp.shape[1])[:, :n]


def _padded(x: np.ndarray, batch: int, pad: int, grow: tuple[int, int]) -> np.ndarray:
    """The sequences of ``x`` end to end, with ``pad`` zero rows before,
    between and after them; with ``grow`` = (row, copies), each sequence
    has ``copies`` more copies of its row ``row`` right after that row."""
    row, copies = grow
    if not pad and not copies:
        return x
    n, d = x.shape[0] // batch, x.shape[1]
    xp = np.zeros((batch * (n + copies + pad) + pad, d))
    seqs, grown = x.reshape(batch, n, d), _sequences(xp, batch, pad)
    split = row + 1 if copies else n
    grown[:, :split] = seqs[:, :split]
    grown[:, split:split + copies] = seqs[:, split - 1:split]
    grown[:, split + copies:] = seqs[:, split:]
    return xp


def _folded(dxp: np.ndarray, batch: int, pad: int, grow: tuple[int, int]) -> np.ndarray:
    """Gradients of the rows of a ``_padded`` layout as gradients of the
    (B*n, d) rows it was built from: a grown row takes its copies'."""
    row, copies = grow
    if not pad and not copies:
        return dxp
    grown = _sequences(dxp, batch, pad)
    split = row + 1 if copies else grown.shape[1]
    dx = np.concatenate([grown[:, :split], grown[:, split + copies:]], axis=1)
    if copies:
        dx[:, row] += grown[:, split:split + copies].sum(axis=1)
    return dx.reshape(-1, dxp.shape[1])


def _conv_windows(rows: int, k: int, batch: int, pad: int) -> tuple[int, np.ndarray | None]:
    """(span, kept rows) of the convolution over a ``_padded`` layout of
    ``rows`` rows; no row is dropped for a single sequence."""
    stride = (rows - pad) // batch
    span = rows - k + 1
    if batch == 1:
        return span, None
    return span, (np.arange(batch)[:, None] * stride + np.arange(stride + pad - k + 1)).ravel()


def _conv(xp: np.ndarray, kernel: np.ndarray, batch: int, pad: int) -> np.ndarray:
    """(B*(n + 2*pad - k + 1), d_out) for the ``_padded`` layout ``xp`` of B
    sequences of n rows and a (k, d_in, d_out) kernel."""
    span, keep = _conv_windows(xp.shape[0], kernel.shape[0], batch, pad)
    y = xp[:span] @ kernel[0]
    for j in range(1, kernel.shape[0]):
        y += xp[j:j + span] @ kernel[j]
    return y if keep is None else y[keep]


def _conv_backward(x: Tensor, kernel: Tensor, g: np.ndarray, batch: int, pad: int,
                   grow: tuple[int, int] = (0, 0)) -> None:
    """Adds the gradients of ``_conv`` over ``_padded(x, batch, pad, grow)``
    for output gradient ``g`` into those of ``kernel`` and ``x`` that
    require one.  The padded copy of ``x`` is built again here rather than
    kept from the forward pass."""
    k, d_in, d_out = kernel.shape
    rows = batch * (x.shape[0] // batch + grow[1] + pad) + pad
    span, keep = _conv_windows(rows, k, batch, pad)
    if keep is not None:
        g_all = np.zeros((span, d_out))
        g_all[keep] = g
        g = g_all
    if kernel.requires_grad:
        xp = _padded(x.data, batch, pad, grow)
        if kernel.grad is None:
            # each slice written in place; a shared kernel's second use adds
            kernel.grad = np.empty_like(kernel.data)
            for j in range(k):
                np.matmul(xp[j:j + span].T, g, out=kernel.grad[j])
        else:
            for j in range(k):
                kernel.grad[j] += xp[j:j + span].T @ g
        del xp
    if not x.requires_grad:
        return
    dxp = np.zeros((rows, d_in))
    for j in range(k):
        dxp[j:j + span] += g @ kernel.data[j].T
    _accum(x, _folded(dxp, batch, pad, grow))


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor, batch: int = 1) -> Tensor:
    """Valid 1-D convolution along the row axis, plus ``bias``.

    ``x`` is (B*N, d_in): ``batch`` = B sequences of N rows each, stacked
    instance-major; ``kernel`` is (k, d_in, d_out) and ``bias`` (d_out,).
    No window reaches across two sequences, and the output stacks the B
    results of N - k + 1 rows the same way.
    """
    if x.data.ndim != 2 or kernel.data.ndim != 3:
        raise ShapeError(f"conv1d: x must be 2-D and kernel 3-D, got {x.shape}, {kernel.shape}")
    k, d_in, d_out = kernel.shape
    if x.shape[1] != d_in:
        raise ShapeError(f"conv1d: input width {x.shape[1]} != kernel d_in {d_in}")
    n = _sequence_length(x, batch, "conv1d")
    if n < k:
        raise WindowError(f"conv1d: kernel size {k} exceeds sequence length {n}")
    if bias.shape != (d_out,):
        raise ShapeError(f"conv1d: bias {bias.shape} does not match d_out {d_out}")
    y = _conv(x.data, kernel.data, batch, 0)
    y += bias.data
    out = Tensor(y)

    if _tracked(x, kernel, bias):
        def bwd(g):
            _conv_backward(x, kernel, g, batch, 0)
            if bias.requires_grad:
                _accum(bias, g.sum(axis=0))
        _record(out, (x, kernel, bias), bwd)
    return out


def gated_conv(x: Tensor, kernel: Tensor, bias: Tensor, batch: int = 1,
               residual: bool = True, grow: tuple[int, int] = (0, 0)) -> Tensor:
    """The gated convolution block, x + a * sigmoid(b), as one tape node.

    [a | b] is the same-padded convolution of ``x`` plus ``bias``: ``x`` is
    (B*N, w), ``batch`` = B sequences of N rows stacked instance-major,
    ``kernel`` is (k, w, 2w) with k odd and ``bias`` is (2w,).  Each
    sequence is zero-padded by h = (k - 1)/2 rows at both ends on its own
    (the sequences share the h zero rows between them), so the output has
    the shape of ``x``; without ``residual`` it is the gated linear unit
    a * sigmoid(b) alone.  With ``grow`` = (row, copies), the block runs
    over each sequence with ``copies`` more copies of its row ``row``
    right after that row, convolution and residual alike, giving N + copies
    rows per sequence; the copies' gradients are summed onto that row.
    The node keeps one (B*(N + copies), 2w) buffer holding [a | sigmoid(b)]
    besides its output; the backward pass builds the padded copy of ``x``
    again.
    """
    if x.data.ndim != 2 or kernel.data.ndim != 3:
        raise ShapeError(f"gated_conv: x must be 2-D and kernel 3-D, got {x.shape}, "
                         f"{kernel.shape}")
    k, w, d_out = kernel.shape
    if x.shape[1] != w or d_out != 2 * w:
        raise ShapeError(f"gated_conv: kernel {kernel.shape} does not map input width "
                         f"{x.shape[1]} to twice itself")
    if k % 2 == 0:
        raise ShapeError(f"gated_conv: same-padding requires an odd kernel size, got {k}")
    if bias.shape != (d_out,):
        raise ShapeError(f"gated_conv: bias {bias.shape} does not match d_out {d_out}")
    n = _sequence_length(x, batch, "gated_conv")
    row, copies = grow
    if copies < 0 or copies and not 0 <= row < n:
        raise ShapeError(f"gated_conv: cannot grow {n} rows by {copies} copies of row {row}")
    pad = (k - 1) // 2
    xp = _padded(x.data, batch, pad, grow)
    buf = _conv(xp, kernel.data, batch, pad)
    buf += bias.data
    a, s = buf[:, :w], buf[:, w:]
    _sigmoid(s, out=s)
    y = a * s
    if residual:
        grown = y.reshape(batch, -1, w)
        grown += _sequences(xp, batch, pad)
    out = Tensor(y)

    if _tracked(x, kernel, bias):
        def bwd(g):
            if residual:
                _accum(x, _folded(g, batch, 0, grow))
            # the GLU's gradient as the composed block computed it, added
            # into zeros in this order, so every gradient stays bitwise equal
            d_buf = np.zeros_like(buf)
            d_buf[:, :w] += g * s
            d_buf[:, w:] += g * a * s * (1.0 - s)
            _conv_backward(x, kernel, d_buf, batch, pad, grow)
            if bias.requires_grad:
                _accum(bias, d_buf.sum(axis=0))
        _record(out, (x, kernel, bias), bwd)
    return out


# Streams of a scan step together only while their recurrent weights (3h^2
# floats each) fit this many bytes: the four streams of a two-input layer
# up to h = 104, pairs up to h = 147, one at a time from h = 148.  One such
# layer at N = 100 on one BLAS thread, each group size against one stream
# at a time (forward, forward+backward; B = 1, then B = 16):
#   h = 100  four 1.24 1.39, 1.03 0.99   pairs 0.96 1.22, 1.03 1.01
#   h = 128  four 1.10 1.13, 0.99 0.97   pairs 1.07 1.09, 1.05 0.99
#   h = 140  four 0.99 1.03, 1.02 0.94   pairs 1.05 1.06, 1.06 0.98
#   h = 150  four 0.87 0.91, 0.99 0.99   pairs 1.02 1.04, 1.04 0.99
#   h = 160  four 0.88 0.89, 0.98 0.97   pairs 0.99 1.01, 1.01 1.00
#   h = 200  four 0.74 0.82, 0.97 0.95   pairs 0.85 0.89, 0.97 0.97
#   h = 300  four 0.81 0.88, 1.01 0.96   pairs 0.76 0.85, 1.01 0.97
# At every point the size this budget picks is within 5% of the fastest.
SCAN_GROUP_BYTES = 1 << 20


def _scan_order(a: np.ndarray, batch: int, n: int, reverse: bool) -> np.ndarray:
    """(B*N, w) rows of B sequences as an (N*B, w) copy in scan order:
    step-major, each sequence read from its last row when ``reverse``."""
    steps = a.reshape(batch, n, -1).transpose(1, 0, 2)
    return (steps[::-1] if reverse else steps).reshape(n * batch, -1)


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """(G, ...) stack of G equal-shape arrays; a view of a lone one."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _backward_order(batch: int, n: int, lengths: Sequence[int]) -> np.ndarray:
    """Row indices of B sequences of N rows, in a backward stream's scan
    order: step-major, sequence b read from row lengths[b] - 1 down to 0,
    then its rows past lengths[b] in order."""
    steps = np.arange(n)[:, None]
    real = np.asarray(lengths)[None, :]
    rows = np.where(steps < real, real - 1 - steps, steps)
    return (rows + n * np.arange(batch)).ravel()


def bigru_scan(inputs: Sequence[Tensor],
               weights: Sequence[tuple[Sequence[Tensor], Sequence[Tensor]]],
               batch: int = 1, lengths: Sequence[int] | None = None) -> tuple[Tensor, ...]:
    """Bidirectional gated recurrences over several inputs, one tape node.

    Each input is (B*N, d): ``batch`` = B sequences of N rows, stacked
    instance-major, all inputs with the same B and N.  ``weights`` holds one
    (forward, backward) pair per input, each direction's (w_gates, u_gates,
    u_cand, b_gates); the same ``Parameter``s may serve several inputs.
    Each direction scans every sequence from a zero state, the forward one
    from its first row and the backward one from its last; per step, with h
    the previous state,

        r = sigmoid(x_t W_r + h U_r + b_r)        (reset gate)
        z = sigmoid(x_t W_z + h U_z + b_z)        (update gate)
        c = tanh(x_t W_n + (r * h) U_n + b_n)     (candidate)
        h = z * h + (1 - z) * c

    ``w_gates`` is (d, 3h) with column blocks [reset | update | candidate],
    ``u_gates`` is (h, 2h) as [U_r | U_z], ``u_cand`` is U_n (h, h) and
    ``b_gates`` is (3h,).  Output i is (B*N, 2h), aligned to the rows of
    input i: forward states in columns [0, h), backward states in [h, 2h).

    ``lengths``, B ints in [1, N], makes sequence b its first ``lengths[b]``
    rows (r_b): its backward streams start from row r_b - 1, and its output
    rows at or past r_b are zero.  The rows past r_b are scanned too, after
    the real ones in both directions, so no real row reads them.  It is for
    untracked calls only: a tracked call with ``lengths`` raises ShapeError.

    The S = 2 * len(inputs) recurrences (every input's forward stream, then
    every input's backward stream) never feed each other, so they advance
    together: each step multiplies the (S, B, h) states of all of them by
    their stacked U matrices in one batched matmul.  Everything is laid out
    stream-major and step-major, (S, N, B, .), so one step of all streams is
    one strided view.  One (S, N, B, 3h) buffer is the only per-step store:
    it is filled with the input projections before the loop (a backward
    stream's in its scan order, so it too is read first step to last), each
    step overwrites its projections with that step's [r | z | c], and the
    backpropagation through time overwrites those with their gradients,
    from which the weight and input gradients are each one matmul per
    stream.  States go straight into the outputs, in input order.  The
    derivative factors of the gates are computed a few steps at a time, in
    arrays that with their temporaries hold no more than one stream's
    projection.  The backward pass consumes the output gradients it is
    given: once a step has read its slot, the slot holds r * h for the U_n
    gradient.

    Streams step together in groups of as many as their recurrent weights
    fit in ``SCAN_GROUP_BYTES`` (its comment has the timings), so a wide
    layer scans its streams in pairs or one at a time; any grouping gives
    bitwise the same results.
    """
    n_in = len(inputs)
    if n_in == 0 or len(weights) != n_in:
        raise ShapeError(f"bigru_scan: {n_in} inputs need as many weight pairs, "
                         f"got {len(weights)}")
    if any(x.data.ndim != 2 for x in inputs):
        raise ShapeError(f"bigru_scan needs 2-D inputs, got {[x.shape for x in inputs]}")
    rows = inputs[0].shape[0]
    if any(x.shape[0] != rows for x in inputs):
        raise ShapeError(f"bigru_scan: inputs of {[x.shape[0] for x in inputs]} rows "
                         f"must all have the same number")
    n = _sequence_length(inputs[0], batch, "bigru_scan")
    dh = weights[0][0][2].shape[0]
    # Stream s is input s % n_in, scanned backwards when s >= n_in.
    streams = [(i, reverse) for reverse in (False, True) for i in range(n_in)]
    params = [weights[i][reverse] for i, reverse in streams]
    for (i, _), (w_gates, u_gates, u_cand, b_gates) in zip(streams, params):
        if (w_gates.shape != (inputs[i].shape[1], 3 * dh) or u_gates.shape != (dh, 2 * dh)
                or u_cand.shape != (dh, dh) or b_gates.shape != (3 * dh,)):
            raise ShapeError(f"bigru_scan: weights {w_gates.shape}, {u_gates.shape}, "
                             f"{u_cand.shape}, {b_gates.shape} do not fit input width "
                             f"{inputs[i].shape[1]} and hidden width {dh}")
    n_streams = 2 * n_in
    flat = [t for pair in weights for direction in pair for t in direction]
    tracked = _tracked(*inputs, *flat)
    if lengths is not None:
        lengths = [int(r) for r in lengths]
        if len(lengths) != batch or not all(1 <= r <= n for r in lengths):
            raise ShapeError(f"bigru_scan: need {batch} lengths in [1, {n}], got {lengths}")
        if tracked:
            raise ShapeError("bigru_scan: lengths are for untracked calls only")
        order = _backward_order(batch, n, lengths)

    buf = np.empty((n_streams, n, batch, 3 * dh))
    for s, ((i, reverse), (w_gates, _, _, b_gates)) in enumerate(zip(streams, params)):
        proj = buf[s].reshape(n * batch, 3 * dh)
        x = (inputs[i].data[order] if reverse and lengths is not None
             else _scan_order(inputs[i].data, batch, n, reverse))
        np.matmul(x, w_gates.data, out=proj)
        proj += b_gates.data
    # Each group of streams: its stream range, then the ranges of the
    # inputs it scans forwards and backwards.
    size = max(1, SCAN_GROUP_BYTES // (3 * dh * dh * 8))
    groups = [(lo, hi, min(lo, n_in), min(hi, n_in), max(lo, n_in) - n_in,
               max(hi, n_in) - n_in)
              for lo, hi in ((lo, min(lo + size, n_streams))
                             for lo in range(0, n_streams, size))]

    def stacked_u(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The group's U_r|U_z and U_n, stacked; rebuilt where needed, not kept."""
        return (_stacked([p[1].data for p in params[lo:hi]]),
                _stacked([p[2].data for p in params[lo:hi]]))

    states = np.empty((n_in, batch, n, 2 * dh))
    for lo, hi, f_lo, f_hi, b_lo, b_hi in groups:
        ug, un = stacked_u(lo, hi)
        split = f_hi - f_lo
        h = np.zeros((hi - lo, batch, dh))
        for t in range(n):
            step = buf[lo:hi, t]
            rz = h @ ug
            rz += step[..., :2 * dh]
            _sigmoid(rz, out=rz)
            c = (rz[..., :dh] * h) @ un
            c += step[..., 2 * dh:]
            np.tanh(c, out=c)
            if tracked:
                step[..., :2 * dh] = rz
                step[..., 2 * dh:] = c
            z = rz[..., dh:]
            h = z * h + (1.0 - z) * c
            if split:
                states[f_lo:f_hi, :, t, :dh] = h[:split]
            if b_hi > b_lo:
                states[b_lo:b_hi, :, n - 1 - t, dh:] = h[split:]
    # Step t of a backward stream wrote row N - 1 - t; for a shorter
    # sequence that step was its row r_b - 1 - t.
    for b, r in enumerate(lengths or ()):
        if r < n:
            states[:, b, :r, dh:] = states[:, b, n - r:, dh:]
            states[:, b, r:] = 0.0
    outs = tuple(Tensor(states[i].reshape(batch * n, 2 * dh)) for i in range(n_in))
    if not tracked:
        return outs

    def bwd(grads):
        grads = [(np.zeros((batch * n, 2 * dh)) if g is None else g).reshape(batch, n, 2 * dh)
                 for g in grads]
        # Each stream's (output gradient, reversed?, first column).
        slots = [(grads[i], reverse, dh if reverse else 0) for i, reverse in streams]
        for lo, hi, *ranges in groups:
            ug, un = stacked_u(lo, hi)
            _group_bptt(buf[lo:hi], states, slots[lo:hi], ranges,
                        ug.transpose(0, 2, 1), un.transpose(0, 2, 1))

        # Inputs last to first, each one's backward stream first: the order
        # in which separate per-input scans would add into shared weights.
        for s in sorted(range(n_streams), key=lambda s: (-streams[s][0], -s)):
            i, reverse = streams[s]
            x = inputs[i]
            w_gates, u_gates, u_cand, b_gates = params[s]
            d_proj = buf[s].reshape(n * batch, 3 * dh)
            if w_gates.requires_grad:
                _accum(w_gates, _scan_order(x.data, batch, n, reverse).T @ d_proj)
            if x.requires_grad:
                if x.grad is None:
                    x.grad = np.zeros_like(x.data)
                # Splitting the row axis is a view in any layout, so this
                # adds into the gradient itself, in scan order.
                steps = x.grad.reshape(batch, n, -1).transpose(1, 0, 2)
                steps = steps[::-1] if reverse else steps
                steps += (d_proj @ w_gates.data.T).reshape(n, batch, -1)
            if b_gates.requires_grad:
                _accum(b_gates, d_proj.sum(axis=0))
            g, _, col = slots[s]
            if u_gates.requires_grad:
                prev = np.zeros((n, batch, dh))
                held = states[i, :, :, col:col + dh].transpose(1, 0, 2)
                prev[1:] = (held[::-1] if reverse else held)[:-1]
                _accum(u_gates, prev.reshape(n * batch, dh).T @ d_proj[:, :2 * dh])
            if u_cand.requires_grad:
                _accum(u_cand, _scan_order(g[:, :, col:col + dh], batch, n, reverse).T
                       @ d_proj[:, 2 * dh:])
    _record(outs, (*inputs, *flat), bwd)
    return outs


def _group_bptt(buf: np.ndarray, states: np.ndarray, slots, ranges: Sequence[int],
                ugt: np.ndarray, unt: np.ndarray) -> None:
    """Backpropagation through time for one group of ``bigru_scan``'s streams.

    ``buf`` is the group's (G, N, B, 3h) part of the buffer, holding each
    step's [r | z | c]; they are overwritten with the gradients of the
    pre-activations.  ``slots`` are the streams' (output gradient, reversed?,
    first column), ``ranges`` the (first, end) inputs the group scans
    forwards, then backwards, and ``ugt`` and ``unt`` the stacked,
    transposed U matrices.
    """
    size, n, batch, width = buf.shape
    dh = width // 3
    f_lo, f_hi, b_lo, b_hi = ranges
    split = f_hi - f_lo
    # Steps per chunk, so that its five (G, K, B, h) arrays of derivative
    # factors, and the temporaries that compute them, hold no more than one
    # stream's (N, B, 3h) projection.
    chunk = max(1, 3 * n // (10 * size))
    d_h = np.zeros((size, batch, dh))
    for t1 in range(n, 0, -chunk):
        t0 = max(0, t1 - chunk)
        # The state entering each step of the chunk, zero before step 0.
        first = 1 if t0 == 0 else 0
        prev = np.zeros((size, t1 - t0, batch, dh))
        prev[:split, first:] = (
            states[f_lo:f_hi, :, t0 - 1 + first:t1 - 1, :dh].transpose(0, 2, 1, 3))
        prev[split:, first:] = (
            states[b_lo:b_hi, :, n - t1 + 1:n - t0 - first + 1, dh:][:, :, ::-1]
            .transpose(0, 2, 1, 3))
        gates = buf[:, t0:t1]
        r, z, c = gates[..., :dh], gates[..., dh:2 * dh], gates[..., 2 * dh:]
        to_cand = (1.0 - z) * (1.0 - c * c)
        to_update = (prev - c) * z * (1.0 - z)
        rh = prev * r
        to_reset = rh * (1.0 - r)
        del prev
        for t in range(t1 - 1, t0 - 1, -1):
            j = t - t0
            for k, (g, reverse, col) in enumerate(slots):
                d_h[k] += g[:, n - 1 - t if reverse else t, col:col + dh]
            step = buf[:, t]
            r, z, c = step[..., :dh], step[..., dh:2 * dh], step[..., 2 * dh:]
            carry = d_h * z
            d_c = np.multiply(d_h, to_cand[:, j], out=c)
            d_rh = d_c @ unt
            carry += d_rh * r
            np.multiply(d_rh, to_reset[:, j], out=r)
            np.multiply(d_h, to_update[:, j], out=z)
            d_h = carry
            d_h += step[..., :2 * dh] @ ugt
        # The chunk's output-gradient slots are read; they keep r * h now.
        for k, (g, reverse, col) in enumerate(slots):
            if reverse:
                g[:, n - t1:n - t0, col:col + dh] = rh[k, ::-1].transpose(1, 0, 2)
            else:
                g[:, t0:t1, col:col + dh] = rh[k].transpose(1, 0, 2)


# How near a column's largest value another must be, relative to the larger
# of 1 and that value's magnitude, to tie with it in ``topk_pool``.  Rows
# that are equal in exact arithmetic (an instance's pad rows, or its
# repeated tokens, while the encoder blocks are still the identity) leave a
# matrix product a few ulps apart, by their place in it, its shape and the
# BLAS kernel.  Breaking their tie by position keeps the pick, and so the
# gradient, the same for any batch and on any host.
_POOL_TIE = 1e-12


def topk_pool(x: Tensor, k: int, batch: int, valid, counts=None) -> Tensor:
    """Per block and column, the k largest of the block's first ``valid[b]``
    rows, largest first, feature-major.

    ``x`` is (B*n, d): ``batch`` = B blocks of n rows, stacked block-major.
    The output is (B, k*d), row b from block b: the k values of feature 0,
    then feature 1, ...  Rows past a block's valid count are ignored,
    whatever they hold.  ``counts`` (n,), all ones if None, weighs row i
    of every block as counts[i] equal rows in its place, so it may be
    chosen up to min(counts[i], k) times.  Values within ``_POOL_TIE`` of
    a column's largest (relative to the larger of 1 and its magnitude) tie
    with it, and ties break by position (earlier row first; a row's copies
    all come before the next row), so a pass may take a value up to that
    margin below the largest.  Each of the k passes takes every column's
    earliest row within the margin of its largest and masks the rows it
    has chosen as often as they count with -inf before the next, so the
    valid rows must be finite.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"topk_pool needs a 2-D tensor, got {x.shape}")
    n = _sequence_length(x, batch, "topk_pool")
    d = x.shape[1]
    valid = np.asarray(valid, dtype=np.intp)
    if valid.shape != (batch,):
        raise ShapeError(f"topk_pool: need {batch} valid counts, got shape {valid.shape}")
    counts = _checked_counts(np.ones(n, np.intp) if counts is None else counts, n,
                             "topk_pool")
    if valid.min() < 1 or valid.max() > n:
        raise WindowError(f"topk_pool: valid counts outside 1 <= valid <= {n}")
    picks = np.cumsum(counts)[valid - 1]
    if k < 1 or picks.min() < k:
        raise WindowError(f"topk_pool: k={k} outside 1 <= k <= {picks.min()} valid rows")
    # (B, n, d), each pass reducing over a block's rows; rows past a valid
    # count are -inf
    work = x.data.reshape(batch, n, d).copy()
    if valid.min() < n:
        np.copyto(work, -np.inf, where=np.arange(n)[:, None] >= valid[:, None, None])
    at = np.arange(batch)[:, None]
    cols = np.arange(d)
    order = np.empty((batch, d, k), dtype=np.intp)
    for i in range(k):
        top = work.max(axis=1, keepdims=True)
        top -= _POOL_TIE * np.maximum(np.abs(top), 1.0)
        pick = order[..., i] = (work >= top).argmax(axis=1)
        if i + 1 == k:
            break
        # a row leaves once it has been chosen as often as it counts
        spent = (order[..., :i + 1] == pick[..., None]).sum(axis=2) == counts[pick]
        block, col = np.nonzero(spent)
        work[block, pick[spent], col] = -np.inf
    rows = order + n * at[:, :, None]
    out = Tensor(x.data[rows, cols[:, None]].reshape(batch, d * k))
    if _tracked(x):
        def bwd(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            g = g.reshape(batch, d, k)
            # a row chosen twice takes both gradients: one scatter per pass
            for i in range(k):
                x.grad[rows[..., i], cols] += g[..., i]
        _record(out, (x,), bwd)
    return out


def cross_entropy(logits: Tensor, gold) -> Tensor:
    """Mean over the batch of -log softmax(logits)[gold], log-sum-exp stabilized."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy needs 2-D logits, got {logits.shape}")
    b, c = logits.shape
    idx = np.asarray(gold, dtype=np.int64)
    if idx.shape != (b,):
        raise ShapeError(f"cross_entropy: need {b} gold indices, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= c):
        raise LabelError(f"cross_entropy: gold index out of range [0, {c})")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    logp = shifted[np.arange(b), idx] - logsumexp
    out = Tensor(np.array([-logp.mean()]))
    if _tracked(logits):
        probs = np.exp(shifted - logsumexp[:, None])
        def bwd(g):
            d = probs.copy()
            d[np.arange(b), idx] -= 1.0
            _accum(logits, d * (g.ravel()[0] / b))
        _record(out, (logits,), bwd)
    return out


def dropout(t: Tensor, rate: float, rng: np.random.Generator | None,
            lengths: Sequence[int] | None = None) -> Tensor:
    """Inverted-scaling dropout; identity (and no RNG draw) without an ``rng``.

    The mask is one uniform draw of ``t``'s shape.  Given ``lengths``, the
    real lengths of the B sequences stacked in ``t``'s rows, every row at or
    past ``lengths[b]`` of sequence b reads the mask of its row
    ``lengths[b]``: the pad rows of a sequence share one mask row.
    """
    if not (0.0 <= rate < 1.0):
        raise ShapeError(f"dropout: rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return t
    keep = 1.0 - rate
    mask = rng.random(t.shape) >= rate
    if lengths is not None:
        n = _sequence_length(t, len(lengths), "dropout")
        source = np.minimum(np.arange(n), np.asarray(lengths)[:, None])
        mask = mask[(source + n * np.arange(len(lengths))[:, None]).ravel()]
    out = Tensor(t.data * (mask / keep))
    if _tracked(t):
        def bwd(g):
            _accum(t, g * (mask / keep))
        _record(out, (t,), bwd)
    return out


# --------------------------------------------------------------------------
# Optimizer


# Elements per block of ``adagrad_step``: its two scratch vectors of this
# length (128 KiB each) stay in cache between the block's passes, where
# whole-array passes over train-conv's 7.3M weights stream every temporary
# through memory.
ADAGRAD_BLOCK = 16384


def adagrad_step(params: Iterable[Parameter], lr: float = 0.001, eps: float = 1e-8) -> None:
    """One AdaGrad update: acc += g^2; theta -= lr * g / (sqrt(acc) + eps).

    Gradients must have been populated by a backward pass; they are cleared
    after the step.  Each parameter is updated ``ADAGRAD_BLOCK`` elements at
    a time, in two scratch vectors made for the call, with the same
    operations in the same order as whole-array arithmetic, so the results
    are bitwise those.
    """
    params = list(params)
    for p in params:
        if p.grad is None:
            raise MissingGradientError(f"parameter {p.name or '<anon>'} has no gradient; run backward first")
    size = min(ADAGRAD_BLOCK, max((p.size for p in params), default=0))
    square, step = np.empty(size), np.empty(size)
    for p in params:
        g, acc, theta = p.grad.reshape(-1), p.accumulator.reshape(-1), p.data.reshape(-1)
        for lo in range(0, g.size, ADAGRAD_BLOCK):
            hi = min(lo + ADAGRAD_BLOCK, g.size)
            gb, sq, st = g[lo:hi], square[:hi - lo], step[:hi - lo]
            np.multiply(gb, gb, out=sq)
            acc[lo:hi] += sq
            np.sqrt(acc[lo:hi], out=sq)
            sq += eps
            np.multiply(lr, gb, out=st)
            st /= sq
            theta[lo:hi] -= st
        p.grad = None


# --------------------------------------------------------------------------
# Checkpoint file format
#
# Versioned header in ASCII, then raw little-endian float64 payload:
#   line 1:       "tckpt 1 <n>"
#   lines 2..n+1: "<name> <dim0> <dim1> ..."   (scalar entries list no dims)
#   payload:      the n arrays' data, C-order, in header order.

_MAGIC = "tckpt"
_VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    for name in arrays:
        if " " in name or "\n" in name:
            raise ValueError(f"checkpoint names cannot contain whitespace: {name!r}")
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC} {_VERSION} {len(arrays)}\n".encode("ascii"))
        for name, arr in arrays.items():
            dims = " ".join(str(d) for d in np.asarray(arr).shape)
            fh.write(f"{name} {dims}".rstrip().encode("ascii") + b"\n")
        for arr in arrays.values():
            data = np.ascontiguousarray(arr, dtype="<f8")
            fh.write(data.tobytes())


def _header_int(path, field: str, what: str) -> int:
    try:
        value = int(field)
    except ValueError:
        raise ParseError(f"{path}: {what} {field!r} is not an integer") from None
    if value < 0:
        raise ParseError(f"{path}: {what} {value} is negative")
    return value


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if len(header) != 3 or header[0] != _MAGIC:
            raise ParseError(f"{path}: not a checkpoint file")
        if _header_int(path, header[1], "version") != _VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {header[1]}")
        count = _header_int(path, header[2], "array count")
        entries = {}
        for i in range(count):
            fields = fh.readline().decode("ascii", errors="replace").split()
            if not fields:
                raise ParseError(f"{path}: truncated header at entry {i + 1}")
            name = fields[0]
            if name in entries:
                raise ParseError(f"{path}: array {name} is listed twice")
            entries[name] = tuple(_header_int(path, d, f"dimension of {name}")
                                  for d in fields[1:])
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        out = {}
        for name, shape in entries.items():
            nbytes = 8 * math.prod(shape)  # Python ints: no wrap-around
            if nbytes > left:
                raise ParseError(f"{path}: truncated payload for {name}")
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise ParseError(f"{path}: truncated payload for {name}")
            left -= nbytes
            arr = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
            if not np.isfinite(arr).all():
                raise ParseError(f"{path}: array {name} holds non-finite values")
            out[name] = arr
        if fh.read(1):
            raise ParseError(f"{path}: trailing bytes after the last array")
        return out


def load_parameters(params: Iterable[Parameter], arrays: dict[str, np.ndarray],
                    source: str) -> None:
    """Copy each parameter's value from the array of the same name;
    ``source`` names where ``arrays`` came from in errors."""
    for p in params:
        if p.name not in arrays:
            raise ParseError(f"{source} is missing array {p.name!r}")
        if arrays[p.name].shape != p.shape:
            raise ShapeError(f"{source} array {p.name!r} has shape "
                             f"{arrays[p.name].shape}, expected {p.shape}")
        p.data[...] = arrays[p.name]
