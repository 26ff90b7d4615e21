"""Gated recurrent sequence processing.

One cell direction maps B stacked sequences, (B*N, d_in), to their
(B*N, d_hidden) hidden states, each sequence starting from a zero state:

    r_t = sigmoid(x_t W_r + h_{t-1} U_r + b_r)        (reset gate)
    z_t = sigmoid(x_t W_z + h_{t-1} U_z + b_z)        (update gate)
    c_t = tanh(x_t W_n + (r_t * h_{t-1}) U_n + b_n)   (candidate)
    h_t = z_t * h_{t-1} + (1 - z_t) * c_t

The reset gate is applied to the previous state *before* the recurrent
projection, and the update gate weighs the previous state (so z_t == 1 copies
it forward unchanged).  Input projections for all three gates are batched
into one (d_in, 3*d_hidden) matrix; column blocks are ordered [reset |
update | candidate].  The whole scan, forward and backward, is the single
tape operation ``tensor.gru_sequence``.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .init import uniform_param, zeros_param
from .tensor import Parameter, Tensor


class GRUCell:
    """A single direction of gated recurrence."""

    def __init__(self, d_in: int, d_hidden: int, rng: np.random.Generator, name: str = "gru"):
        self.d_in = d_in
        self.d_hidden = d_hidden
        self.w_gates = uniform_param(rng, (d_in, 3 * d_hidden), f"{name}.w_gates")
        self.u_gates = uniform_param(rng, (d_hidden, 2 * d_hidden), f"{name}.u_gates")
        self.u_cand = uniform_param(rng, (d_hidden, d_hidden), f"{name}.u_cand")
        self.b_gates = zeros_param((3 * d_hidden,), f"{name}.b_gates")

    def parameters(self) -> list[Parameter]:
        return [self.w_gates, self.u_gates, self.u_cand, self.b_gates]

    def forward(self, x: Tensor, batch: int = 1, reverse: bool = False) -> Tensor:
        """Hidden states of ``batch`` stacked sequences; ``reverse`` scans
        each from its last row to its first."""
        return T.gru_sequence(x, self.w_gates, self.u_gates, self.u_cand,
                              self.b_gates, batch, reverse)


class BiGRU:
    """Forward and backward cells over the same input, states concatenated.

    Output is (B*N, 2*d_hidden): columns [0, d_hidden) from the forward pass,
    [d_hidden, 2*d_hidden) from the backward pass, both aligned to input
    positions.
    """

    def __init__(self, d_in: int, d_hidden: int, rng: np.random.Generator, name: str = "bigru"):
        self.d_hidden = d_hidden
        self.fwd = GRUCell(d_in, d_hidden, rng, name=f"{name}.fwd")
        self.bwd = GRUCell(d_in, d_hidden, rng, name=f"{name}.bwd")

    def parameters(self) -> list[Parameter]:
        return self.fwd.parameters() + self.bwd.parameters()

    def forward(self, x: Tensor, batch: int = 1) -> Tensor:
        f = self.fwd.forward(x, batch)
        b = self.bwd.forward(x, batch, reverse=True)
        return T.concat([f, b], axis=1)
