"""The gated conv block and the bi-attention composed from small tape ops.

These are the compositions that ``tensor.gated_conv`` and
``tensor.bi_attention`` each replace with one tape node, kept as the
references those ops are tested against.  The conv block is a valid
``conv1d`` over explicitly zero-padded sequences, which does the same
arithmetic as a same-padded convolution, then the gated linear unit
written as ``slice_cols * sigmoid`` and the residual ``add``; the fused op
must reproduce it bitwise, outputs and gradients.  The attention is the
bilinear scores, the two row softmaxes and the two mixing matmuls.
"""

import numpy as np

from discrel import tensor as T
from extra_ops import transpose


def same_padded(x, batch, pad):
    """Each of the ``batch`` sequences of ``x`` between ``pad`` zero rows,
    stacked in order."""
    if pad == 0:
        return x
    n = x.shape[0] // batch
    zeros = T.constant(np.zeros((pad, x.shape[1])))
    parts = []
    for b in range(batch):
        parts += [zeros, T.slice_rows(x, b * n, (b + 1) * n), zeros]
    return T.concat(parts, axis=0)


def composed_gated_conv(x, kernel, bias, batch=1, residual=True):
    """x + a * sigmoid(b) for [a | b] the same-padded convolution of x."""
    k, w, _ = kernel.shape
    conv = T.conv1d(same_padded(x, batch, (k - 1) // 2), kernel, bias, batch=batch)
    gated = T.slice_cols(conv, 0, w) * T.sigmoid(T.slice_cols(conv, w, 2 * w))
    return x + gated if residual else gated


def composed_bi_attend(v1, v2, w, b):
    """(softmax_rows(M^T) v1, softmax_rows(M) v2) for M = (v1 w + b) v2^T."""
    scores = T.add_bias(v1 @ w, b) @ transpose(v2)
    w2 = T.softmax_rows(scores) @ v2
    w1 = T.softmax_rows(transpose(scores)) @ v1
    return w1, w2
