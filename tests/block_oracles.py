"""The gated conv block, the bi-attention and the pair level composed from
small tape ops.

These are the compositions that ``tensor.gated_conv`` and
``tensor.bi_attention`` each replace with one tape node, and the
per-instance pair level that ``pair_level.build_pair_representation``
replaces with one attention node and one pool per argument and layer, kept
as the references those are tested against, and the row gather that
expands layer rows weighed by counts back to the rows they stand for.  The
conv block is one valid ``conv1d`` over the sequences laid end to end
between explicit zero rows, the layout the fused op multiplies, then the
gated linear unit
written as ``slice_cols * sigmoid`` and the residual ``add``; the fused op
must reproduce it bitwise, outputs and gradients.  The attention is the
bilinear scores, the two row softmaxes and the two mixing matmuls.
"""

import numpy as np

from discrel import tensor as T
from extra_ops import slice_rows, transpose


def same_padded(x, batch, pad):
    """The ``batch`` sequences of ``x`` end to end, with ``pad`` zero rows
    before, between and after them, as one sequence."""
    if pad == 0:
        return x
    n = x.shape[0] // batch
    zeros = T.constant(np.zeros((pad, x.shape[1])))
    parts = [zeros]
    for b in range(batch):
        parts += [slice_rows(x, b * n, (b + 1) * n), zeros]
    return T.concat(parts, axis=0)


def composed_gated_conv(x, kernel, bias, batch=1, residual=True):
    """x + a * sigmoid(b) for [a | b] the same-padded convolution of x: one
    valid convolution over the sequences laid end to end, keeping the
    windows of each (those between two sequences straddle both)."""
    k, w, _ = kernel.shape
    pad, n = (k - 1) // 2, x.shape[0] // batch
    conv = T.conv1d(same_padded(x, batch, pad), kernel, bias)
    conv = T.concat([slice_rows(conv, b * (n + pad), b * (n + pad) + n) for b in range(batch)],
                    axis=0)
    gated = T.slice_cols(conv, 0, w) * T.sigmoid(T.slice_cols(conv, w, 2 * w))
    return x + gated if residual else gated


def composed_bi_attend(v1, v2, w, b):
    """(softmax_rows(M^T) v1, softmax_rows(M) v2) for M = (v1 w + b) v2^T."""
    scores = T.add_bias(v1 @ w, b) @ transpose(v2)
    w2 = T.softmax_rows(scores) @ v2
    w1 = T.softmax_rows(transpose(scores)) @ v1
    return w1, w2


def per_instance_pair_rows(layers1, layers2, attention, batch):
    """(B, pair_dim) pair vectors built one instance at a time: each
    instance's rows sliced out of every layer, attended (when ``attention``
    is given) and 2-max pooled on their own, its layer slices joined into
    one row, and the B rows stacked."""
    n = layers1[0].shape[0] // batch
    rows = []
    for i in range(batch):
        pieces = []
        for v1, v2 in zip(layers1, layers2):
            v1, v2 = slice_rows(v1, i * n, (i + 1) * n), slice_rows(v2, i * n, (i + 1) * n)
            if attention is not None:
                v1, v2 = T.bi_attention(v1, v2, attention.ffn_w, attention.ffn_b, 1,
                                        *each_once(1, v1, v2))
            pieces += [T.topk_pool(v1, 2, 1, [n]), T.topk_pool(v2, 2, 1, [n])]
        rows.append(T.concat(pieces, axis=1))
    return T.concat(rows, axis=0)


def each_once(batch, *args):
    """All-ones counts for each of ``args`` (``batch`` instances stacked by
    rows): every row stands for itself alone."""
    return [np.ones(a.shape[0] // batch, dtype=np.intp) for a in args]


def full_length(layers, counts, batch):
    """Each of ``layers`` (``batch`` instances of len(counts[l]) rows for
    layer l) with row i of every instance of layer l repeated counts[l][i]
    times, through one row gather each: the full-length rows that the
    counted rows stand for."""
    out = []
    for v, c in zip(layers, counts, strict=True):
        rows = len(c)
        index = (np.arange(batch)[:, None] * rows + np.repeat(np.arange(rows), c)).ravel()
        out.append(T.gather_rows(v, index))
    return out


def shortened(model, pairs):
    """Whether ``model`` embeds either argument of ``pairs`` at fewer rows
    than ``max_tokens``: then its stacks and pair level run at fewer rows
    than the full-length pass does."""
    return any(model._schedule(list(args))[0] < model.max_tokens for args in zip(*pairs))
