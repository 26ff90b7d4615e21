import tracemalloc

import numpy as np
import pytest

from discrel import tensor as T
from discrel.errors import ShapeError
from discrel.recurrent import BiGRU
from extra_ops import sum_all
from gradcheck import assert_grads_match
from claims import CLOSE, assert_agree
from gru_oracle import composed_gru

GRADIENT_NAMES = ["x"] + [f"{direction}.{name}" for direction in ("fwd", "bwd")
                          for name in ("w_gates", "u_gates", "u_cand", "b_gates")]


def run(layer, x, batch=1):
    """One layer over one input."""
    (out,) = BiGRU.forward([layer], [x], batch)
    return out


def scan(x, forward, backward, batch=1):
    """``tensor.bigru_scan`` over one input."""
    (out,) = T.bigru_scan([x], [(forward, backward)], batch)
    return out


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def ref_gru(x, weights):
    """Plain-numpy replay of one direction's gate equations, one step at a
    time, first row to last."""
    w, u, un, b = (p.numpy() for p in weights)
    dh = un.shape[0]
    wr, wz, wn = w[:, :dh], w[:, dh:2 * dh], w[:, 2 * dh:]
    ur, uz = u[:, :dh], u[:, dh:]
    br, bz, bn = b[:dh], b[dh:2 * dh], b[2 * dh:]
    h = np.zeros(dh)
    states = []
    for xt in x:
        r = _sigmoid(xt @ wr + h @ ur + br)
        z = _sigmoid(xt @ wz + h @ uz + bz)
        c = np.tanh(xt @ wn + (r * h) @ un + bn)
        h = z * h + (1.0 - z) * c
        states.append(h.copy())
    return np.array(states)


class TestGRUCell:
    """The gate equations, checked in each direction of a BiGRU layer."""

    def test_matches_stepwise_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d_in = int(rng.integers(1, 5))
            dh = int(rng.integers(1, 6))
            n = int(rng.integers(1, 8))
            layer = BiGRU(d_in, dh, rng)
            x = rng.normal(size=(n, d_in))
            got = run(layer, T.constant(x)).numpy()
            assert got.shape == (n, 2 * dh)
            assert np.allclose(got[:, :dh], ref_gru(x, layer.fwd), atol=1e-12)
            assert np.allclose(got[:, dh:], ref_gru(x[::-1], layer.bwd)[::-1], atol=1e-12)
            T.active_tape().clear()

    def test_first_state_ignores_recurrent_weights(self):
        # With a zero initial state a direction's first output depends only
        # on the input projection of the candidate gate: row 0 for the
        # forward direction, the last row for the backward one.
        rng = np.random.default_rng(1)
        layer = BiGRU(3, 4, rng)
        x = rng.normal(size=(2, 3))
        out = run(layer, T.constant(x)).numpy()
        for weights, row, cols in ((layer.fwd, 0, slice(0, 4)), (layer.bwd, 1, slice(4, 8))):
            w = weights[0].numpy()
            b = weights[3].numpy()
            z = _sigmoid(x[row] @ w[:, 4:8] + b[4:8])
            c = np.tanh(x[row] @ w[:, 8:] + b[8:])
            assert np.allclose(out[row, cols], (1.0 - z) * c, atol=1e-12)
        T.active_tape().clear()

    def test_causality_of_forward_direction(self):
        rng = np.random.default_rng(2)
        layer = BiGRU(3, 5, rng)
        x = rng.normal(size=(7, 3))
        with T.no_grad():
            base = run(layer, T.constant(x)).numpy()[:, :5]
            bumped = x.copy()
            bumped[4:] += 10.0
            after = run(layer, T.constant(bumped)).numpy()[:, :5]
        assert np.array_equal(base[:4], after[:4])
        assert not np.allclose(base[4:], after[4:])

    def test_causality_of_backward_direction(self):
        rng = np.random.default_rng(16)
        layer = BiGRU(3, 5, rng)
        x = rng.normal(size=(7, 3))
        with T.no_grad():
            base = run(layer, T.constant(x)).numpy()[:, 5:]
            bumped = x.copy()
            bumped[:3] += 10.0
            after = run(layer, T.constant(bumped)).numpy()[:, 5:]
        assert np.array_equal(base[3:], after[3:])
        assert not np.allclose(base[:3], after[:3])

    def test_saturated_update_gate_freezes_state(self):
        rng = np.random.default_rng(3)
        layer = BiGRU(2, 3, rng)
        for weights in (layer.fwd, layer.bwd):
            weights[3].data[3:6] = 50.0  # update gate pinned at ~1: keep old state
        x = rng.normal(size=(6, 2))
        with T.no_grad():
            out = run(layer, T.constant(x)).numpy()
        assert np.all(np.abs(out) < 1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        layer = BiGRU(3, 4, rng)
        x = T.Tensor(rng.normal(size=(2 * 5, 3)), requires_grad=True)
        probe = T.constant(rng.normal(size=(2 * 5, 8)))

        def loss():
            return sum_all(run(layer, x, 2) * probe)

        assert_grads_match(loss, [x] + layer.parameters(), tol=1e-6)

    def test_rejects_empty_sequence(self):
        layer = BiGRU(3, 4, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            run(layer, T.constant(np.zeros((0, 3))))


class TestBiGRU:
    def test_halves_are_independent_directions(self):
        # Changing one direction's weights leaves the other half unchanged.
        rng = np.random.default_rng(5)
        layer = BiGRU(3, 4, rng)
        x = T.constant(rng.normal(size=(6, 3)))
        with T.no_grad():
            base = run(layer, x).numpy()
            layer.bwd[1].data[...] *= -1.0
            new_bwd = run(layer, x).numpy()
            layer.fwd[0].data[...] *= -1.0
            new_both = run(layer, x).numpy()
        assert base.shape == (6, 8)
        assert np.array_equal(new_bwd[:, :4], base[:, :4])
        assert not np.allclose(new_bwd[:, 4:], base[:, 4:])
        assert np.array_equal(new_both[:, 4:], new_bwd[:, 4:])
        assert not np.allclose(new_both[:, :4], new_bwd[:, :4])

    def test_reversing_input_swaps_directions(self):
        # Running the reversed sequence through a layer whose directions
        # are swapped reproduces the original output, reversed in time and
        # with its column halves exchanged.
        rng = np.random.default_rng(6)
        layer = BiGRU(3, 4, rng)
        swapped = BiGRU(3, 4, rng)
        for dst, src in zip(swapped.fwd, layer.bwd):
            dst.data[...] = src.data
        for dst, src in zip(swapped.bwd, layer.fwd):
            dst.data[...] = src.data
        x = rng.normal(size=(5, 3))
        with T.no_grad():
            base = run(layer, T.constant(x)).numpy()
            rev = run(swapped, T.constant(x[::-1].copy())).numpy()
        want = np.concatenate([base[::-1, 4:], base[::-1, :4]], axis=1)
        assert np.allclose(rev, want, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        layer = BiGRU(2, 3, rng)
        x = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def loss():
            return sum_all(run(layer, x))

        assert_grads_match(loss, [x] + layer.parameters(), tol=1e-6)

    def test_batched_layer_matches_each_instance_alone(self):
        rng = np.random.default_rng(9)
        layer = BiGRU(3, 4, rng)
        xs = [rng.normal(size=(5, 3)) for _ in range(3)]
        with T.no_grad():
            batched = run(layer, T.constant(np.vstack(xs)), 3).numpy()
            alone = np.vstack([run(layer, T.constant(x)).numpy() for x in xs])
        assert np.max(np.abs(batched - alone)) <= 1e-12

    def test_parameter_names_and_order(self):
        layer = BiGRU(3, 4, np.random.default_rng(10), name="enc")
        assert [p.name for p in layer.parameters()] == [
            f"enc.{direction}.{name}" for direction in ("fwd", "bwd")
            for name in ("w_gates", "u_gates", "u_cand", "b_gates")]

    def test_forward_records_one_tape_node(self):
        rng = np.random.default_rng(17)
        layer = BiGRU(3, 4, rng)
        T.active_tape().clear()
        run(layer, T.constant(rng.normal(size=(2 * 6, 3))), 2)
        assert len(T.active_tape()) == 1
        T.active_tape().clear()


def random_weights(rng, d_in, dh):
    """One direction's GRU weights with a non-zero bias, so every gradient
    path is live."""
    return [T.Parameter(rng.uniform(-0.6, 0.6, (d_in, 3 * dh)), "w_gates"),
            T.Parameter(rng.uniform(-0.6, 0.6, (dh, 2 * dh)), "u_gates"),
            T.Parameter(rng.uniform(-0.6, 0.6, (dh, dh)), "u_cand"),
            T.Parameter(rng.uniform(-0.6, 0.6, 3 * dh), "b_gates")]


def composed_bigru(x, forward, backward, batch):
    """The oracle: the per-step forward scan beside the per-step reverse scan."""
    return T.concat([composed_gru(x, *forward, batch=batch),
                     composed_gru(x, *backward, batch=batch, reverse=True)], axis=1)


def output_and_gradients(bigru, x, forward, backward, probe, batch, x_reused):
    out = bigru(x, forward, backward, batch) * probe
    if x_reused:
        # x also feeds a second consumer, so its gradient arrives from two
        # places and the op must add to what is already there.
        out = T.concat([out, x * x], axis=1)
    T.backward(sum_all(out))
    tensors = [x] + forward + backward
    grads = [t.grad.copy() for t in tensors]
    for t in tensors:
        t.grad = None
    return out.numpy().copy(), grads


class TestFusedSequence:
    """``tensor.bigru_scan`` over one input against the per-step composed oracle."""

    @pytest.mark.parametrize("x_reused", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n", [1, 6])
    def test_matches_composed_oracle(self, x_reused, batch, n):
        rng = np.random.default_rng(100 + 10 * batch + n)
        x = T.Tensor(rng.normal(size=(batch * n, 3)), requires_grad=True)
        forward = random_weights(rng, 3, 4)
        backward = random_weights(rng, 3, 4)
        probe = T.constant(rng.normal(size=(batch * n, 8)))
        fused, fused_grads = output_and_gradients(scan, x, forward, backward,
                                                  probe, batch, x_reused)
        ref, ref_grads = output_and_gradients(composed_bigru, x, forward, backward,
                                              probe, batch, x_reused)
        assert np.max(np.abs(fused - ref)) <= 1e-10
        for name, got, want in zip(GRADIENT_NAMES, fused_grads, ref_grads):
            assert np.max(np.abs(got - want)) <= 1e-10, name

    @pytest.mark.parametrize("backward_half", [False, True])
    def test_gradients_match_finite_differences(self, backward_half):
        # The loss reads one direction's half only, so each BPTT is checked
        # on its own; the other direction's weights get no gradient.
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.normal(size=(2 * 4, 3)), requires_grad=True)
        forward = random_weights(rng, 3, 2)
        backward = random_weights(rng, 3, 2)
        probe = rng.normal(size=(2 * 4, 4))
        probe[:, slice(0, 2) if backward_half else slice(2, 4)] = 0.0
        probe = T.constant(probe)
        read, unread = (backward, forward) if backward_half else (forward, backward)

        def loss():
            return sum_all(scan(x, forward, backward, batch=2) * probe)

        assert_grads_match(loss, [x] + read, tol=1e-6)
        T.backward(loss())
        for weight in unread:
            assert not weight.grad.any()
            weight.grad = None

    def test_reverse_scans_each_sequence_backwards(self):
        rng = np.random.default_rng(12)
        weights = random_weights(rng, 3, 4)
        x = rng.normal(size=(2, 5, 3))
        with T.no_grad():
            out = scan(T.constant(x.reshape(10, 3)), weights, weights,
                                   batch=2).numpy().reshape(2, 5, 8)
            flipped = scan(T.constant(x[:, ::-1].reshape(10, 3)), weights,
                                       weights, batch=2).numpy().reshape(2, 5, 8)
        assert np.max(np.abs(out[:, :, 4:] - flipped[:, ::-1, :4])) <= 1e-12

    def test_records_one_tape_node_per_call(self):
        rng = np.random.default_rng(13)
        forward = random_weights(rng, 3, 4)
        backward = random_weights(rng, 3, 4)
        T.active_tape().clear()
        scan(T.constant(rng.normal(size=(3 * 50, 3))), forward, backward, batch=3)
        assert len(T.active_tape()) == 1
        T.active_tape().clear()

    def test_rejects_rows_that_do_not_split_into_the_batch(self):
        weights = random_weights(np.random.default_rng(14), 3, 4)
        with pytest.raises(ShapeError):
            scan(T.constant(np.zeros((5, 3))), weights, weights, batch=2)
        with pytest.raises(ShapeError):
            scan(T.constant(np.zeros((1, 3))), weights, weights, batch=2)

    def test_rejects_weights_of_the_wrong_width(self):
        rng = np.random.default_rng(15)
        weights = random_weights(rng, 3, 4)
        with pytest.raises(ShapeError):
            scan(T.constant(np.zeros((4, 2))), weights, weights)
        with pytest.raises(ShapeError):
            scan(T.constant(np.zeros((4, 3))), weights, random_weights(rng, 3, 5))


def layer_weights(rng, shared):
    """(forward, backward) weights of two inputs: distinct, or the same
    ``Parameter``s twice as shared stacks give."""
    first = (random_weights(rng, 3, 4), random_weights(rng, 3, 4))
    return [first, first if shared else (random_weights(rng, 3, 4), random_weights(rng, 3, 4))]


def distinct(tensors):
    seen = {}
    for t in tensors:
        seen.setdefault(id(t), t)
    return list(seen.values())


def joint_output_and_gradients(outputs_of, xs, weights, probes):
    outs = outputs_of(xs, weights)
    T.backward(sum_all(T.concat([o * p for o, p in zip(outs, probes)], axis=1)))
    tensors = distinct(xs + [t for pair in weights for d in pair for t in d])
    grads = [t.grad.copy() for t in tensors]
    for t in tensors:
        t.grad = None
    return [o.numpy().copy() for o in outs], grads


class TestJointScan:
    """``tensor.bigru_scan`` over both arguments of a layer at once."""

    # N = 40 takes the backward pass's gate factors three steps at a time.
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n", [1, 6, 40])
    def test_matches_composed_oracle(self, shared, batch, n):
        rng = np.random.default_rng(200 + 10 * batch + n + shared)
        xs = [T.Tensor(rng.normal(size=(batch * n, 3)), requires_grad=True) for _ in range(2)]
        weights = layer_weights(rng, shared)
        probes = [T.constant(rng.normal(size=(batch * n, 8))) for _ in range(2)]
        fused, fused_grads = joint_output_and_gradients(
            lambda xs, ws: T.bigru_scan(xs, ws, batch), xs, weights, probes)
        ref, ref_grads = joint_output_and_gradients(
            lambda xs, ws: [composed_bigru(x, *w, batch) for x, w in zip(xs, ws)],
            xs, weights, probes)
        for got, want in zip(fused, ref):
            assert np.max(np.abs(got - want)) <= 1e-10
        assert len(fused_grads) == (2 + 8 if shared else 2 + 16)
        for got, want in zip(fused_grads, ref_grads):
            assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize("group_bytes", [0, 3 * 3 * 4 * 4 * 8])
    def test_fewer_streams_per_group_give_bitwise_equal_results(self, monkeypatch,
                                                                  group_bytes):
        # One stream per group, and groups of three, which put one input's
        # forward and backward streams in different groups.
        rng = np.random.default_rng(20)
        xs = [T.Tensor(rng.normal(size=(3 * 7, 3)), requires_grad=True) for _ in range(2)]
        weights = layer_weights(rng, shared=False)
        probes = [T.constant(rng.normal(size=(3 * 7, 8))) for _ in range(2)]

        def scanned():
            return joint_output_and_gradients(lambda xs, ws: T.bigru_scan(xs, ws, 3),
                                              xs, weights, probes)

        together, together_grads = scanned()
        monkeypatch.setattr(T, "SCAN_GROUP_BYTES", group_bytes)
        apart, apart_grads = scanned()
        for got, want in zip(apart + apart_grads, together + together_grads):
            assert got.tobytes() == want.tobytes()

    def test_records_one_tape_node_for_both_inputs(self):
        rng = np.random.default_rng(21)
        T.active_tape().clear()
        T.bigru_scan([T.constant(rng.normal(size=(2 * 5, 3))) for _ in range(2)],
                     layer_weights(rng, shared=False), batch=2)
        assert len(T.active_tape()) == 1
        T.active_tape().clear()

    def test_an_output_the_loss_never_reads_contributes_nothing(self):
        # Only the second output feeds the loss: the first input and the
        # weights only it uses get zero gradients.
        rng = np.random.default_rng(22)
        xs = [T.Tensor(rng.normal(size=(4, 3)), requires_grad=True) for _ in range(2)]
        weights = layer_weights(rng, shared=False)
        _, second = T.bigru_scan(xs, weights)
        T.backward(sum_all(second))
        assert not xs[0].grad.any()
        assert all(not w.grad.any() for d in weights[0] for w in d)
        assert xs[1].grad.any()

    def test_rejects_inputs_of_different_lengths_or_unpaired_weights(self):
        rng = np.random.default_rng(23)
        weights = layer_weights(rng, shared=False)
        with pytest.raises(ShapeError):
            T.bigru_scan([T.constant(np.zeros((4, 3))), T.constant(np.zeros((6, 3)))],
                         weights, batch=2)
        with pytest.raises(ShapeError):
            T.bigru_scan([T.constant(np.zeros((4, 3)))], weights)
        with pytest.raises(ShapeError):
            T.bigru_scan([], [])

    def test_peak_memory_is_the_buffer_the_output_and_one_projection(self):
        # Forward and backward of one layer over both arguments at the
        # recurrent benchmark's training shapes.  What the op keeps is one
        # (S, N, B, 3h) buffer and the outputs; anything it allocates on top
        # must fit in one stream's (N, B, 3h) projection.  The inputs,
        # weights, their gradient slots and the output gradients exist
        # before the measurement starts.  With numpy 2.4.6 the peak is
        # 11.97 MB against this bound of 12.16 MB; the margin depends on
        # numpy's temporaries, so after a numpy upgrade compare the peak at
        # the previous commit before blaming the op.
        batch, n, h = 16, 100, 50
        rng = np.random.default_rng(24)
        xs = [T.Tensor(rng.normal(size=(batch * n, h)), requires_grad=True) for _ in range(2)]
        weights = [(random_weights(rng, h, h), random_weights(rng, h, h)) for _ in range(2)]
        out_grads = [rng.normal(size=(batch * n, 2 * h)) for _ in range(2)]
        for t in xs + [w for pair in weights for d in pair for w in d]:
            t.grad = np.zeros_like(t.data)
        T.active_tape().clear()
        tracemalloc.start()
        try:
            T.bigru_scan(xs, weights, batch)
            (node,) = T.active_tape()
            node.backward_fn(out_grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            T.active_tape().clear()
        buffer = 4 * n * batch * 3 * h * 8
        outputs = 2 * batch * n * 2 * h * 8
        projection = n * batch * 3 * h * 8
        assert peak <= buffer + outputs + projection


class TestScanLengths:
    """``tensor.bigru_scan`` over sequences of their own lengths, untracked."""

    # Lengths below N, one of them 1, and one whose real rows overlap the
    # rows its backward states were written to (5 of 7).
    LENGTHS = [7, 3, 1, 5]

    @pytest.mark.parametrize("group_bytes", [None, 0])
    @pytest.mark.parametrize("n_in", [1, 2])
    def test_a_ragged_batch_equals_each_sequence_scanned_alone(self, monkeypatch, n_in,
                                                               group_bytes):
        if group_bytes is not None:
            monkeypatch.setattr(T, "SCAN_GROUP_BYTES", group_bytes)
        rng = np.random.default_rng(30 + n_in)
        batch, n = len(self.LENGTHS), max(self.LENGTHS)
        xs = [rng.normal(size=(batch, n, 3)) for _ in range(n_in)]
        weights = layer_weights(rng, shared=False)[:n_in]
        with T.no_grad():
            outs = T.bigru_scan([T.constant(x.reshape(batch * n, 3)) for x in xs], weights,
                                batch, self.LENGTHS)
            for x, w, out in zip(xs, weights, outs):
                got = out.numpy().reshape(batch, n, 8)
                for b, r in enumerate(self.LENGTHS):
                    (alone,) = T.bigru_scan([T.constant(x[b, :r])], [w])
                    assert_agree(got[b, :r], alone.numpy(), CLOSE, f"sequence {b}")
                    assert not got[b, r:].any()

    def test_every_length_n_gives_bitwise_the_scan_without_lengths(self):
        rng = np.random.default_rng(33)
        xs = [T.constant(rng.normal(size=(3 * 6, 3))) for _ in range(2)]
        weights = layer_weights(rng, shared=True)
        with T.no_grad():
            plain = T.bigru_scan(xs, weights, 3)
            full = T.bigru_scan(xs, weights, 3, [6, 6, 6])
        for got, want in zip(full, plain):
            assert got.numpy().tobytes() == want.numpy().tobytes()

    def test_rejects_bad_lengths_and_tracked_calls(self):
        rng = np.random.default_rng(34)
        weights = layer_weights(rng, shared=False)[:1]
        x = T.constant(rng.normal(size=(2 * 4, 3)))
        with T.no_grad():
            for lengths in ([4], [4, 4, 4], [0, 4], [2, 5]):
                with pytest.raises(ShapeError):
                    T.bigru_scan([x], weights, 2, lengths)
        with pytest.raises(ShapeError, match="untracked"):
            T.bigru_scan([x], weights, 2, [4, 2])
