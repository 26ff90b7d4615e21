"""Dense float64 tensors with tape-based reverse-mode autodiff.

Everything downstream (embeddings, encoder blocks, attention, classifier
heads) is built from the operations in this module.  Design points:

- 64-bit floats throughout, so finite-difference gradient checks are sharp.
- A thread-local gradient tape records every differentiable operation whose
  inputs participate in the graph; ``backward`` replays it once, in exact
  reverse execution order, then discards it.  Distinct model instances may
  therefore run in parallel threads without sharing autodiff state.
- No broadcasting in binary elementwise ops; bias addition is its own op.
"""

from __future__ import annotations

import struct
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
    "glu",
    "tanh",
    "relu",
    "matmul",
    "transpose",
    "reshape",
    "concat",
    "gather_rows",
    "slice_cols",
    "slice_rows",
    "softmax_rows",
    "conv1d",
    "gru_sequence",
    "topk_pool",
    "cross_entropy",
    "sum_all",
    "dropout",
    "adagrad_step",
    "save_checkpoint",
    "load_checkpoint",
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
        super().__init__(data, requires_grad=True)
        self.accumulator = np.zeros_like(self.data)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name or '<anon>'}, shape={list(self.shape)})"


# --------------------------------------------------------------------------
# Gradient tape


class _Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of executed differentiable operations."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes: list[_Node] = []

    def clear(self) -> None:
        self.nodes.clear()

    def __len__(self) -> int:
        return len(self.nodes)


_STATE = threading.local()


def _state():
    if not hasattr(_STATE, "tape"):
        _STATE.tape = Tape()
        _STATE.enabled = True
    return _STATE


def active_tape() -> Tape:
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


def _record(output: Tensor, inputs: tuple[Tensor, ...], backward_fn: Callable) -> None:
    output.requires_grad = True
    _state().tape.nodes.append(_Node(output, inputs, backward_fn))


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor reachable from ``loss``.

    Consumes the active tape: the recorded operations are replayed once in
    reverse execution order and then discarded.  Leaves are the tensors no
    recorded operation produced (parameters and tracked inputs).  An
    operation's output gradient is complete once its node is reached, and
    is dropped right after it has been passed on, so the pass never holds
    the gradients of all activations at once.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape = active_tape()
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        g = node.output.grad
        if g is None:
            continue
        node.backward_fn(g)
        node.output.grad = None
    tape.clear()


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


def _sigmoid(a: np.ndarray) -> np.ndarray:
    """sigmoid(a) = tanh(a/2)/2 + 1/2: a single overflow-free tanh, in one
    buffer; exactly 0, 1/2 and 1 at -800, 0 and 800."""
    y = np.multiply(a, 0.5)
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


def glu(x: Tensor) -> Tensor:
    """Gated linear unit of a (N, 2w) tensor: x[:, :w] * sigmoid(x[:, w:]).

    One tape node; its backward adds both halves into one (N, 2w) gradient.
    """
    if x.data.ndim != 2 or x.shape[1] % 2:
        raise ShapeError(f"glu needs a 2-D tensor of even width, got {x.shape}")
    w = x.shape[1] // 2
    a = x.data[:, :w]
    s = _sigmoid(x.data[:, w:])
    out = Tensor(a * s)
    if _tracked(x):
        def bwd(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            x.grad[:, :w] += g * s
            x.grad[:, w:] += g * a * s * (1.0 - s)
        _record(out, (x,), bwd)
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


def transpose(t: Tensor) -> Tensor:
    if t.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {t.shape}")
    out = Tensor(t.data.T.copy())
    if _tracked(t):
        def bwd(g):
            _accum(t, g.T)
        _record(out, (t,), bwd)
    return out


def reshape(t: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    if int(np.prod(shape, dtype=np.int64)) != t.size:
        raise ShapeError(f"reshape: cannot view {t.shape} as {shape}")
    out = Tensor(t.data.reshape(shape))
    if _tracked(t):
        def bwd(g):
            _accum(t, g.reshape(t.shape))
        _record(out, (t,), bwd)
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


def slice_rows(t: Tensor, lo: int, hi: int) -> Tensor:
    """Rows [lo, hi) of a 2-D tensor; gradients add into one full-size buffer."""
    if t.data.ndim != 2:
        raise ShapeError(f"slice_rows needs a 2-D tensor, got {t.shape}")
    if not (0 <= lo < hi <= t.shape[0]):
        raise ShapeError(f"slice_rows: [{lo}, {hi}) outside {t.shape[0]} rows")
    out = Tensor(t.data[lo:hi])
    if _tracked(t):
        def bwd(g):
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad[lo:hi] += g
        _record(out, (t,), bwd)
    return out


def softmax_rows(m: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction for stability."""
    if m.data.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-D tensor, got {m.shape}")
    shifted = m.data - m.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)
    if _tracked(m):
        def bwd(g):
            inner = (g * y).sum(axis=1, keepdims=True)
            _accum(m, (g - inner) * y)
        _record(out, (m,), bwd)
    return out


def _sequence_length(x: Tensor, batch: int, op: str) -> int:
    """Rows per sequence of a (batch*N, d) stack; N must be at least one."""
    rows = x.shape[0]
    if batch < 1 or rows < batch or rows % batch:
        raise ShapeError(f"{op}: {rows} rows do not split into {batch} non-empty sequences")
    return rows // batch


def conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None, pad: str | int = "same",
           batch: int = 1) -> Tensor:
    """1-D convolution along the row axis.

    ``x`` is (B*N, d_in): ``batch`` = B sequences of N rows each, stacked
    instance-major; ``kernel`` is (k, d_in, d_out).  Each sequence is padded
    on its own, so no window reaches across two of them, and the output
    stacks the B results the same way.  ``pad`` is "same" (symmetric zero
    padding, odd k required, length preserved), "valid" (no padding), or an
    explicit symmetric pad count.
    """
    if x.data.ndim != 2 or kernel.data.ndim != 3:
        raise ShapeError(f"conv1d: x must be 2-D and kernel 3-D, got {x.shape}, {kernel.shape}")
    k, d_in, d_out = kernel.shape
    if x.shape[1] != d_in:
        raise ShapeError(f"conv1d: input width {x.shape[1]} != kernel d_in {d_in}")
    n = _sequence_length(x, batch, "conv1d")
    if pad == "same":
        if k % 2 == 0:
            raise ShapeError(f"conv1d: same-padding requires an odd kernel size, got {k}")
        p = (k - 1) // 2
    elif pad == "valid":
        p = 0
    else:
        p = int(pad)
        if p < 0:
            raise ShapeError(f"conv1d: pad must be non-negative, got {p}")
    out_len = n + 2 * p - k + 1
    if out_len < 1:
        raise WindowError(f"conv1d: kernel size {k} exceeds padded length {n + 2 * p}")
    if bias is not None and bias.shape != (d_out,):
        raise ShapeError(f"conv1d: bias {bias.shape} does not match d_out {d_out}")

    # The padded sequences lie end to end, ``stride`` rows apart, and one
    # valid convolution runs over all of them.  Output row b*stride + i is
    # position i of sequence b; the windows in between straddle two
    # sequences and are dropped.
    stride = n + 2 * p
    if p:
        xp = np.zeros((batch, stride, d_in))
        xp[:, p:p + n] = x.data.reshape(batch, n, d_in)
        xp = xp.reshape(batch * stride, d_in)
    else:
        xp = x.data
    span = batch * stride - k + 1
    keep = None if batch == 1 else (np.arange(batch)[:, None] * stride + np.arange(out_len)).ravel()
    y = xp[:span] @ kernel.data[0]
    for j in range(1, k):
        y += xp[j:j + span] @ kernel.data[j]
    if keep is not None:
        y = y[keep]
    if bias is not None:
        y += bias.data
    out = Tensor(y)

    tracked_inputs = (x, kernel) if bias is None else (x, kernel, bias)
    if _tracked(*tracked_inputs):
        def bwd(g):
            g_all = g
            if keep is not None:
                g_all = np.zeros((span, d_out))
                g_all[keep] = g
            if kernel.requires_grad:
                if kernel.grad is None:
                    kernel.grad = np.zeros_like(kernel.data)
                for j in range(k):
                    kernel.grad[j] += xp[j:j + span].T @ g_all
            if x.requires_grad:
                dxp = np.zeros_like(xp)
                for j in range(k):
                    dxp[j:j + span] += g_all @ kernel.data[j].T
                if p:
                    dxp = dxp.reshape(batch, stride, d_in)[:, p:p + n].reshape(batch * n, d_in)
                _accum(x, dxp)
            if bias is not None and bias.requires_grad:
                _accum(bias, g.sum(axis=0))
        _record(out, tracked_inputs, bwd)
    return out


def gru_sequence(x: Tensor, w_gates: Tensor, u_gates: Tensor, u_cand: Tensor,
                 b_gates: Tensor, batch: int = 1, reverse: bool = False) -> Tensor:
    """Gated recurrence over ``batch`` sequences at once, as one tape node.

    ``x`` is (B*N, d): B sequences of N rows, stacked instance-major.  Each
    sequence starts from a zero state; per step, with h the previous state,

        r = sigmoid(x_t W_r + h U_r + b_r)        (reset gate)
        z = sigmoid(x_t W_z + h U_z + b_z)        (update gate)
        c = tanh(x_t W_n + (r * h) U_n + b_n)     (candidate)
        h = z * h + (1 - z) * c

    where ``w_gates`` is (d, 3h) with column blocks [reset | update |
    candidate], ``u_gates`` is (h, 2h) as [U_r | U_z], ``u_cand`` is U_n
    (h, h) and ``b_gates`` is (3h,).  The input projections of all steps
    are one matmul before the time loop, and each step multiplies the (B, h)
    states of all sequences together.  ``reverse`` scans every sequence from
    its last row to its first.  The output is (B*N, h), aligned to the input
    rows.  The backward pass is hand-written backpropagation through time;
    the weight gradients are summed over all steps in one matmul each.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"gru_sequence needs a 2-D input, got {x.shape}")
    n = _sequence_length(x, batch, "gru_sequence")
    dh = u_cand.shape[0]
    d_in = x.shape[1]
    if (w_gates.shape != (d_in, 3 * dh) or u_gates.shape != (dh, 2 * dh)
            or u_cand.shape != (dh, dh) or b_gates.shape != (3 * dh,)):
        raise ShapeError(f"gru_sequence: weights {w_gates.shape}, {u_gates.shape}, "
                         f"{u_cand.shape}, {b_gates.shape} do not fit input width "
                         f"{d_in} and hidden width {dh}")
    proj = (x.data @ w_gates.data + b_gates.data).reshape(batch, n, 3 * dh)
    ug, un = u_gates.data, u_cand.data
    steps = range(n - 1, -1, -1) if reverse else range(n)
    gates = np.empty((batch, n, 2 * dh))  # [r | z]
    cand = np.empty((batch, n, dh))
    states = np.empty((batch, n, dh))
    h = np.zeros((batch, dh))
    for t in steps:
        rz = _sigmoid(proj[:, t, :2 * dh] + h @ ug)
        c = np.tanh(proj[:, t, 2 * dh:] + (rz[:, :dh] * h) @ un)
        z = rz[:, dh:]
        h = z * h + (1.0 - z) * c
        gates[:, t] = rz
        cand[:, t] = c
        states[:, t] = h
    out = Tensor(states.reshape(batch * n, dh))

    inputs = (x, w_gates, u_gates, u_cand, b_gates)
    if _tracked(*inputs):
        def bwd(g):
            g = g.reshape(batch, n, dh)
            r, z = gates[:, :, :dh], gates[:, :, dh:]
            # The state entering each step, in scan order.
            prev = np.zeros_like(states)
            if reverse:
                prev[:, :-1] = states[:, 1:]
            else:
                prev[:, 1:] = states[:, :-1]
            # Per-step factors that do not depend on the incoming gradient.
            to_cand = (1.0 - z) * (1.0 - cand * cand)
            to_update = (prev - cand) * z * (1.0 - z)
            to_reset = prev * r * (1.0 - r)
            d_proj = np.empty((batch, n, 3 * dh))
            ug_t, un_t = ug.T, un.T
            d_h = np.zeros((batch, dh))
            for t in reversed(steps):
                d_h = d_h + g[:, t]
                d_c = d_h * to_cand[:, t]
                d_rh = d_c @ un_t
                d_rz = d_proj[:, t, :2 * dh]
                d_rz[:, :dh] = d_rh * to_reset[:, t]
                d_rz[:, dh:] = d_h * to_update[:, t]
                d_proj[:, t, 2 * dh:] = d_c
                d_h = d_h * z[:, t] + d_rh * r[:, t] + d_rz @ ug_t
            d_proj = d_proj.reshape(batch * n, 3 * dh)
            if x.requires_grad:
                _accum(x, d_proj @ w_gates.data.T)
            if w_gates.requires_grad:
                _accum(w_gates, x.data.T @ d_proj)
            if b_gates.requires_grad:
                _accum(b_gates, d_proj.sum(axis=0))
            if u_gates.requires_grad:
                _accum(u_gates, prev.reshape(batch * n, dh).T @ d_proj[:, :2 * dh])
            if u_cand.requires_grad:
                _accum(u_cand, (r * prev).reshape(batch * n, dh).T @ d_proj[:, 2 * dh:])
        _record(out, inputs, bwd)
    return out


def topk_pool(x: Tensor, k: int) -> Tensor:
    """Per column, the k largest values in descending order, feature-major.

    Output layout: the k values of feature 0, then feature 1, ...  Ties break
    by position (earlier row first).  Each of the k passes takes every
    column's argmax and masks the chosen rows with -inf before the next, so
    the inputs must be finite.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"topk_pool needs a 2-D tensor, got {x.shape}")
    n, d = x.shape
    if k < 1 or k > n:
        raise WindowError(f"topk_pool: k={k} outside [1, {n}]")
    cols = np.arange(d)
    order = np.empty((k, d), dtype=np.intp)
    rest = x.data if k == 1 else x.data.copy()
    for i in range(k):
        order[i] = rest.argmax(axis=0)
        if i + 1 < k:
            rest[order[i], cols] = -np.inf
    out = Tensor(x.data[order, cols].T.ravel())
    if _tracked(x):
        def bwd(g):
            if x.grad is None:
                x.grad = np.zeros_like(x.data)
            # each column's k rows are distinct, so no index repeats
            x.grad[order, cols] += g.reshape(d, k).T
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


def sum_all(t: Tensor) -> Tensor:
    out = Tensor(np.array([t.data.sum()]))
    if _tracked(t):
        def bwd(g):
            _accum(t, np.full_like(t.data, g.ravel()[0]))
        _record(out, (t,), bwd)
    return out


def dropout(t: Tensor, rate: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted-scaling dropout; identity (and no RNG draw) when not training."""
    if not (0.0 <= rate < 1.0):
        raise ShapeError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return t
    keep = 1.0 - rate
    mask = (rng.random(t.shape) >= rate) / keep
    out = Tensor(t.data * mask)
    if _tracked(t):
        def bwd(g):
            _accum(t, g * mask)
        _record(out, (t,), bwd)
    return out


# --------------------------------------------------------------------------
# Optimizer


def adagrad_step(params: Iterable[Parameter], lr: float = 0.001, eps: float = 1e-8) -> None:
    """One AdaGrad update: acc += g^2; theta -= lr * g / (sqrt(acc) + eps).

    Gradients must have been populated by a backward pass; they are cleared
    after the step.
    """
    params = list(params)
    for p in params:
        if p.grad is None:
            raise MissingGradientError(f"parameter {p.name or '<anon>'} has no gradient; run backward first")
    for p in params:
        g = p.grad
        p.accumulator += g * g
        p.data -= lr * g / (np.sqrt(p.accumulator) + eps)
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
        entries = []
        for i in range(count):
            fields = fh.readline().decode("ascii", errors="replace").split()
            if not fields:
                raise ParseError(f"{path}: truncated header at entry {i + 1}")
            entries.append((fields[0], tuple(_header_int(path, d, f"dimension of {fields[0]}")
                                             for d in fields[1:])))
        out = {}
        for name, shape in entries:
            n = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw = fh.read(8 * n)
            if len(raw) != 8 * n:
                raise ParseError(f"{path}: truncated payload for {name}")
            out[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
        if fh.read(1):
            raise ParseError(f"{path}: trailing bytes after the last array")
        return out
