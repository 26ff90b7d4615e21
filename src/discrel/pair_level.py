"""Interaction between the two arguments of a pair, layer by layer.

For each encoder depth j, an affine map (shared across all depths) is applied
to the first argument's rows, a bilinear score matrix against the second
argument's rows is built, and each argument is re-expressed as an
attention-weighted mixture of the other:

    M  = affine(v1) v2^T
    w2 = rowsoftmax(M)   v2     (one mixture of v2 rows per v1 position)
    w1 = rowsoftmax(M^T) v1     (one mixture of v1 rows per v2 position)

Every function here takes a batch: B instances' layer outputs stacked by
rows, (B*N, width), as the encoders produce them; the two arguments' N may
differ.  Each layer's attention over the batch is one tape node,
``tensor.bi_attention``, which runs each instance's 2-D products on its own
rows and keeps its affine map and two softmax matrices for the hand-written
backward.  The two mixtures are 2-max
pooled per instance and feature (one ``tensor.topk_pool`` each) and
concatenated, giving a fixed-size slice per instance and layer; the pair
representation strings the layer slices together, shallowest first, so
every depth contributes directly: one (B, pair_dim) row per instance.

Padding positions take part in attention and pooling, each distinct row
once, weighted by the number of positions it stands for (its count; see the
``model`` module): a row of count c weighs as c equal rows in the softmax
and may be pooled up to c times.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .init import uniform_param, zeros_param
from .tensor import Parameter, Tensor


class BiAttention:
    """The shared affine map used by every layer's attention."""

    def __init__(self, width: int, rng: np.random.Generator, name: str = "bi_attention"):
        self.width = width
        self.ffn_w = uniform_param(rng, (width, width), f"{name}.ffn_w")
        self.ffn_b = zeros_param((width,), f"{name}.ffn_b")

    def parameters(self) -> list[Parameter]:
        return [self.ffn_w, self.ffn_b]


def bi_attend(v1: Tensor, v2: Tensor, attention: BiAttention, batch: int,
              counts1, counts2) -> tuple[Tensor, Tensor]:
    """Cross-attended versions of both arguments of every instance, as one
    tape node: one mixture of each instance's v1 rows per v2 row, then one
    of its v2 rows per v1 row.  ``counts1`` and ``counts2`` are the rows'
    counts, as ``tensor.bi_attention`` takes them."""
    return T.bi_attention(v1, v2, attention.ffn_w, attention.ffn_b, batch, counts1, counts2)


def pool_layer(w1: Tensor, w2: Tensor, batch: int, counts1, counts2) -> Tensor:
    """(B, 4 * width) per-layer slices: each instance's 2-max pools of both
    mixtures, first argument first, each row weighed by its count."""
    return T.concat([T.topk_pool(w1, 2, batch, [w1.shape[0] // batch] * batch, counts1),
                     T.topk_pool(w2, 2, batch, [w2.shape[0] // batch] * batch, counts2)],
                    axis=1)


def build_pair_representation(layers1, layers2, attention: BiAttention | None,
                              batch: int, counts1, counts2) -> Tensor:
    """(B, 4 * len(layers) * width) pair vectors, one row per instance,
    layer-major, for layer outputs of ``batch`` instances stacked by rows.
    ``counts1[l]`` and ``counts2[l]`` say how many equal rows each row of
    an argument's layer l stands for, the same in every instance.

    Without ``attention`` the encoder outputs are pooled directly.
    """
    layers1 = list(layers1)
    layers2 = list(layers2)
    if len(layers1) != len(layers2):
        raise ConfigError(f"pair representation: {len(layers1)} vs {len(layers2)} layer outputs")
    if not layers1:
        raise ConfigError("pair representation: no layer outputs")
    slices = []
    for v1, v2, c1, c2 in zip(layers1, layers2, counts1, counts2, strict=True):
        if attention is None:
            slices.append(pool_layer(v1, v2, batch, c1, c2))
        else:
            # each mixture has a row per row of the other argument
            w1, w2 = bi_attend(v1, v2, attention, batch, c1, c2)
            slices.append(pool_layer(w1, w2, batch, c2, c1))
    if len(slices) == 1:
        return slices[0]
    return T.concat(slices, axis=1)


def attention_map(v1: Tensor, v2: Tensor, attention: BiAttention,
                  counts1, counts2) -> np.ndarray:
    """Softmaxed score matrix (first argument attending over the second),
    for inspection and export: the one ``bi_attend`` mixes the second
    argument's rows with, computed off the gradient tape.  Each row and
    column is repeated as often as it counts, and a column's weight is
    shared evenly among its copies: the map over the repeated rows."""
    _, p2, _ = T.attention_weights(v1.data, v2.data, attention.ffn_w.data,
                                   attention.ffn_b.data, counts1, counts2)
    return np.repeat(np.repeat(p2 / counts2, counts2, axis=1), counts1, axis=0)
