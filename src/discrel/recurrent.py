"""The bidirectional gated recurrent layer, the model's one recurrence unit.

``BiGRU`` owns both directions' weights and runs them as the single tape
operation ``tensor.bigru_sequence``, whose docstring gives the gate
equations: the reset gate acts on the previous state *before* the recurrent
projection, and the update gate weighs the previous state (so z == 1 copies
it forward unchanged).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .init import uniform_param, zeros_param
from .tensor import Parameter, Tensor


class BiGRU:
    """Forward and backward directions over the same input, states concatenated.

    Output is (B*N, 2*d_hidden): columns [0, d_hidden) from the forward pass,
    [d_hidden, 2*d_hidden) from the backward pass, both aligned to input
    positions.  ``fwd`` and ``bwd`` each hold one direction's (w_gates,
    u_gates, u_cand, b_gates).
    """

    def __init__(self, d_in: int, d_hidden: int, rng: np.random.Generator, name: str = "bigru"):
        self.fwd, self.bwd = [
            (uniform_param(rng, (d_in, 3 * d_hidden), f"{name}.{direction}.w_gates"),
             uniform_param(rng, (d_hidden, 2 * d_hidden), f"{name}.{direction}.u_gates"),
             uniform_param(rng, (d_hidden, d_hidden), f"{name}.{direction}.u_cand"),
             zeros_param((3 * d_hidden,), f"{name}.{direction}.b_gates"))
            for direction in ("fwd", "bwd")]

    def parameters(self) -> list[Parameter]:
        return [*self.fwd, *self.bwd]

    def forward(self, x: Tensor, batch: int = 1) -> Tensor:
        return T.bigru_sequence(x, self.fwd, self.bwd, batch)
