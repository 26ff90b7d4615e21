"""The per-step GRU composed from small tape operations.

This is the recurrence written out one gate and one time step at a time
(about fifteen tape nodes per step), exactly as the equations in
``discrel.recurrent`` read.  It is slow, but every step is plainly the
textbook update, so it is the reference that every stream of the fused
``tensor.bigru_scan`` must reproduce on outputs and on gradients.
"""

import numpy as np

from discrel import tensor as T


def reverse_rows(x):
    n = x.shape[0]
    return T.gather_rows(x, list(range(n - 1, -1, -1)))


def composed_direction(x, w_gates, u_gates, u_cand, b_gates):
    """Hidden states of one (N, d_in) sequence scanned first row to last."""
    n = x.shape[0]
    dh = u_cand.shape[0]
    proj = T.add_bias(x @ w_gates, b_gates)  # (N, 3h), all steps at once
    h = T.constant(np.zeros((1, dh)))
    ones = T.constant(np.ones((1, dh)))
    states = []
    for t in range(n):
        row = T.gather_rows(proj, [t])
        xr = T.slice_cols(row, 0, dh)
        xz = T.slice_cols(row, dh, 2 * dh)
        xn = T.slice_cols(row, 2 * dh, 3 * dh)
        hu = h @ u_gates
        r = T.sigmoid(xr + T.slice_cols(hu, 0, dh))
        z = T.sigmoid(xz + T.slice_cols(hu, dh, 2 * dh))
        cand = T.tanh(xn + (r * h) @ u_cand)
        h = z * h + (ones - z) * cand
        states.append(h)
    return T.concat(states, axis=0)


def composed_gru(x, w_gates, u_gates, u_cand, b_gates, batch=1, reverse=False):
    """One stream of ``tensor.bigru_scan``, one sequence at a time;
    ``reverse`` scans each sequence from its last row to its first."""
    n = x.shape[0] // batch
    outputs = []
    for b in range(batch):
        seq = T.gather_rows(x, list(range(b * n, (b + 1) * n)))
        if reverse:
            outputs.append(reverse_rows(composed_direction(
                reverse_rows(seq), w_gates, u_gates, u_cand, b_gates)))
        else:
            outputs.append(composed_direction(seq, w_gates, u_gates, u_cand, b_gates))
    return outputs[0] if batch == 1 else T.concat(outputs, axis=0)
