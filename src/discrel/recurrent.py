"""The bidirectional gated recurrent layer, the model's one recurrence unit.

``BiGRU`` owns both directions' weights.  ``BiGRU.forward`` runs one layer
per input, each with its own ``BiGRU`` (or the same one several times), as
the single tape operation ``tensor.bigru_scan``: the two arguments of a pair
advance through a recurrent stack together, and all four recurrences of a
layer (each argument, each direction) are stepped in one scan.  (So an
encoder draws its dropout masks layer by layer, argument 1 before argument
2, see ``sentence_level``.)  The op's docstring gives the gate equations:
the reset gate acts on the previous state *before* the recurrent
projection, and the update gate weighs the previous state (so z == 1 copies
it forward unchanged).
"""

from __future__ import annotations

from typing import Sequence

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

    @staticmethod
    def forward(layers: Sequence[BiGRU], inputs: Sequence[Tensor], batch: int = 1,
                lengths: Sequence[int] | None = None) -> tuple[Tensor, ...]:
        """``layers[i]`` over ``inputs[i]`` (B*N rows each), all in one scan;
        ``lengths`` as ``tensor.bigru_scan`` takes them."""
        return T.bigru_scan(inputs, [(layer.fwd, layer.bwd) for layer in layers], batch,
                            lengths)
