import numpy as np
import pytest

from discrel import tensor as T
from discrel.errors import ShapeError
from discrel.recurrent import BiGRU, GRUCell
from gradcheck import assert_grads_match
from gru_oracle import composed_gru

GRADIENT_NAMES = ["x", "w_gates", "u_gates", "u_cand", "b_gates"]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def ref_gru(x, cell):
    """Plain-numpy replay of the gate equations, one step at a time."""
    dh = cell.d_hidden
    w = cell.w_gates.numpy()
    u = cell.u_gates.numpy()
    un = cell.u_cand.numpy()
    b = cell.b_gates.numpy()
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
    def test_matches_stepwise_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d_in = int(rng.integers(1, 5))
            dh = int(rng.integers(1, 6))
            n = int(rng.integers(1, 8))
            cell = GRUCell(d_in, dh, rng)
            x = rng.normal(size=(n, d_in))
            got = cell.forward(T.constant(x)).numpy()
            want = ref_gru(x, cell)
            assert got.shape == (n, dh)
            assert np.allclose(got, want, atol=1e-12)
            T.active_tape().clear()

    def test_first_state_ignores_recurrent_weights(self):
        # With a zero initial state the first output depends only on the
        # input projection of the candidate gate.
        rng = np.random.default_rng(1)
        cell = GRUCell(3, 4, rng)
        x = rng.normal(size=(1, 3))
        out = cell.forward(T.constant(x)).numpy()[0]
        w = cell.w_gates.numpy()
        b = cell.b_gates.numpy()
        z = _sigmoid(x[0] @ w[:, 4:8] + b[4:8])
        c = np.tanh(x[0] @ w[:, 8:] + b[8:])
        assert np.allclose(out, (1.0 - z) * c, atol=1e-12)
        T.active_tape().clear()

    def test_causality_of_forward_direction(self):
        rng = np.random.default_rng(2)
        cell = GRUCell(3, 5, rng)
        x = rng.normal(size=(7, 3))
        with T.no_grad():
            base = cell.forward(T.constant(x)).numpy()
            bumped = x.copy()
            bumped[4:] += 10.0
            after = cell.forward(T.constant(bumped)).numpy()
        assert np.array_equal(base[:4], after[:4])
        assert not np.allclose(base[4:], after[4:])

    def test_saturated_update_gate_freezes_state(self):
        rng = np.random.default_rng(3)
        cell = GRUCell(2, 3, rng)
        cell.b_gates.data[3:6] = 50.0  # update gate pinned at ~1: keep old state
        x = rng.normal(size=(6, 2))
        with T.no_grad():
            out = cell.forward(T.constant(x)).numpy()
        assert np.all(np.abs(out) < 1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        cell = GRUCell(3, 4, rng)
        x = T.Tensor(rng.normal(size=(5, 3)), requires_grad=True)

        def loss():
            return T.sum_all(cell.forward(x))

        assert_grads_match(loss, [x] + cell.parameters(), tol=1e-6)

    def test_rejects_empty_sequence(self):
        cell = GRUCell(3, 4, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            cell.forward(T.constant(np.zeros((0, 3))))


class TestBiGRU:
    def test_halves_are_independent_directions(self):
        rng = np.random.default_rng(5)
        layer = BiGRU(3, 4, rng)
        x = rng.normal(size=(6, 3))
        with T.no_grad():
            out = layer.forward(T.constant(x)).numpy()
            f = layer.fwd.forward(T.constant(x)).numpy()
            b = layer.bwd.forward(T.constant(x[::-1].copy())).numpy()[::-1]
        assert out.shape == (6, 8)
        assert np.array_equal(out[:, :4], f)
        assert np.array_equal(out[:, 4:], b)

    def test_reversing_input_swaps_directions(self):
        # Running the reversed sequence through a layer whose direction cells
        # are swapped reproduces the original output, reversed in time and
        # with its column halves exchanged.
        rng = np.random.default_rng(6)
        layer = BiGRU(3, 4, rng)
        swapped = BiGRU(3, 4, rng)
        for dst, src in zip(swapped.fwd.parameters(), layer.bwd.parameters()):
            dst.data[...] = src.data
        for dst, src in zip(swapped.bwd.parameters(), layer.fwd.parameters()):
            dst.data[...] = src.data
        x = rng.normal(size=(5, 3))
        with T.no_grad():
            base = layer.forward(T.constant(x)).numpy()
            rev = swapped.forward(T.constant(x[::-1].copy())).numpy()
        want = np.concatenate([base[::-1, 4:], base[::-1, :4]], axis=1)
        assert np.allclose(rev, want, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(7)
        layer = BiGRU(2, 3, rng)
        x = T.Tensor(rng.normal(size=(4, 2)), requires_grad=True)

        def loss():
            return T.sum_all(layer.forward(x))

        assert_grads_match(loss, [x] + layer.parameters(), tol=1e-6)

    def test_batched_layer_matches_each_instance_alone(self):
        rng = np.random.default_rng(9)
        layer = BiGRU(3, 4, rng)
        xs = [rng.normal(size=(5, 3)) for _ in range(3)]
        with T.no_grad():
            batched = layer.forward(T.constant(np.vstack(xs)), 3).numpy()
            alone = np.vstack([layer.forward(T.constant(x)).numpy() for x in xs])
        assert np.max(np.abs(batched - alone)) <= 1e-12


def random_weights(rng, d_in, dh):
    """GRU weights with a non-zero bias, so every gradient path is live."""
    return [T.Parameter(rng.uniform(-0.6, 0.6, (d_in, 3 * dh)), "w_gates"),
            T.Parameter(rng.uniform(-0.6, 0.6, (dh, 2 * dh)), "u_gates"),
            T.Parameter(rng.uniform(-0.6, 0.6, (dh, dh)), "u_cand"),
            T.Parameter(rng.uniform(-0.6, 0.6, 3 * dh), "b_gates")]


def output_and_gradients(gru, x, weights, probe, batch, reverse):
    out = gru(x, *weights, batch=batch, reverse=reverse)
    T.backward(T.sum_all(out * probe))
    tensors = [x] + weights
    grads = [t.grad.copy() for t in tensors]
    for t in tensors:
        t.grad = None
    return out.numpy().copy(), grads


class TestFusedSequence:
    """``tensor.gru_sequence`` against the per-step composed oracle."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("n", [1, 6])
    def test_matches_composed_oracle(self, reverse, batch, n):
        rng = np.random.default_rng(100 + 10 * batch + n)
        x = T.Tensor(rng.normal(size=(batch * n, 3)), requires_grad=True)
        weights = random_weights(rng, 3, 4)
        probe = T.constant(rng.normal(size=(batch * n, 4)))
        fused, fused_grads = output_and_gradients(T.gru_sequence, x, weights, probe,
                                                  batch, reverse)
        ref, ref_grads = output_and_gradients(composed_gru, x, weights, probe,
                                              batch, reverse)
        assert np.max(np.abs(fused - ref)) <= 1e-10
        for name, got, want in zip(GRADIENT_NAMES, fused_grads, ref_grads):
            assert np.max(np.abs(got - want)) <= 1e-10, name

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_finite_differences(self, reverse):
        rng = np.random.default_rng(11)
        x = T.Tensor(rng.normal(size=(2 * 4, 3)), requires_grad=True)
        weights = random_weights(rng, 3, 2)
        probe = T.constant(rng.normal(size=(2 * 4, 2)))

        def loss():
            return T.sum_all(T.gru_sequence(x, *weights, batch=2, reverse=reverse) * probe)

        assert_grads_match(loss, [x] + weights, tol=1e-6)

    def test_reverse_scans_each_sequence_backwards(self):
        rng = np.random.default_rng(12)
        weights = random_weights(rng, 3, 4)
        x = rng.normal(size=(2, 5, 3))
        with T.no_grad():
            rev = T.gru_sequence(T.constant(x.reshape(10, 3)), *weights,
                                 batch=2, reverse=True).numpy()
            fwd = T.gru_sequence(T.constant(x[:, ::-1].reshape(10, 3)), *weights,
                                 batch=2).numpy()
        assert np.max(np.abs(rev.reshape(2, 5, 4) - fwd.reshape(2, 5, 4)[:, ::-1])) <= 1e-12

    def test_records_one_tape_node_per_call(self):
        rng = np.random.default_rng(13)
        weights = random_weights(rng, 3, 4)
        T.active_tape().clear()
        T.gru_sequence(T.constant(rng.normal(size=(3 * 50, 3))), *weights, batch=3)
        assert len(T.active_tape()) == 1
        T.active_tape().clear()

    def test_rejects_rows_that_do_not_split_into_the_batch(self):
        weights = random_weights(np.random.default_rng(14), 3, 4)
        with pytest.raises(ShapeError):
            T.gru_sequence(T.constant(np.zeros((5, 3))), *weights, batch=2)
        with pytest.raises(ShapeError):
            T.gru_sequence(T.constant(np.zeros((1, 3))), *weights, batch=2)

    def test_rejects_weights_of_the_wrong_width(self):
        weights = random_weights(np.random.default_rng(15), 3, 4)
        with pytest.raises(ShapeError):
            T.gru_sequence(T.constant(np.zeros((4, 2))), *weights)
