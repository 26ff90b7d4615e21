"""Tests for the autodiff core: op semantics, gradients, optimizer, checkpoints."""

import numpy as np
import pytest

from discrel import tensor as T
from discrel.errors import (
    LabelError,
    MissingGradientError,
    ParseError,
    ShapeError,
    WindowError,
)

from gradcheck import assert_grads_match


class TestMatmul:
    def test_identity(self):
        a = T.constant([[1.0, 0.0], [0.0, 1.0]])
        b = T.constant([[3.0], [4.0]])
        assert np.array_equal(T.matmul(a, b).data, [[3.0], [4.0]])

    def test_small_product(self):
        out = T.matmul(T.constant([[1.0, 2.0]]), T.constant([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_shape_mismatch_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(T.constant(np.zeros((2, 3))), T.constant(np.zeros((2, 2))))

    def test_grad_of_sum_is_ones_times_bt(self):
        rng = np.random.default_rng(0)
        a = T.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = T.constant(rng.uniform(-1, 1, (4, 2)))
        T.backward(T.sum_all(T.matmul(a, b)))
        expected = np.ones((3, 2)) @ b.data.T
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        a = T.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = T.Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        assert_grads_match(lambda: T.sum_all(T.tanh(T.matmul(a, b))), [a, b])


class TestConv1d:
    def test_pointwise_scaling(self):
        x = T.constant([[1.0], [2.0], [3.0]])
        kernel = T.constant(np.array([[[2.0]]]))  # k=1, d_in=1, d_out=1
        out = T.conv1d(x, kernel)
        assert np.array_equal(out.data, [[2.0], [4.0], [6.0]])

    def test_window_sums_with_zero_edges(self):
        x = T.constant([[1.0], [1.0], [1.0]])
        kernel = T.constant(np.ones((3, 1, 1)))
        out = T.conv1d(x, kernel, pad="same")
        assert np.array_equal(out.data, [[2.0], [3.0], [2.0]])

    def test_length_preserved(self):
        x = T.constant(np.random.default_rng(2).uniform(-1, 1, (7, 4)))
        kernel = T.constant(np.zeros((5, 4, 6)))
        assert T.conv1d(x, kernel).shape == (7, 6)

    def test_even_kernel_rejected_for_same(self):
        with pytest.raises(ShapeError, match="odd"):
            T.conv1d(T.constant(np.zeros((4, 2))), T.constant(np.zeros((2, 2, 3))))

    def test_valid_mode_window_error(self):
        with pytest.raises(WindowError):
            T.conv1d(T.constant(np.zeros((2, 1))), T.constant(np.zeros((3, 1, 1))), pad="valid")

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.uniform(-1, 1, (7, 4)), requires_grad=True)
        kernel = T.Tensor(rng.uniform(-1, 1, (3, 4, 5)), requires_grad=True)
        bias = T.Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        assert_grads_match(
            lambda: T.sum_all(T.tanh(T.conv1d(x, kernel, bias))), [x, kernel, bias]
        )

    def test_grad_valid_mode(self):
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)
        kernel = T.Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
        assert_grads_match(
            lambda: T.sum_all(T.sigmoid(T.conv1d(x, kernel, pad="valid"))), [x, kernel]
        )


class TestBatchedConv1d:
    """Stacked sequences are convolved as if each were alone."""

    @pytest.mark.parametrize("pad", ["same", "valid", 1])
    def test_each_sequence_is_padded_on_its_own(self, pad):
        rng = np.random.default_rng(30)
        xs = [rng.uniform(-1, 1, (6, 3)) for _ in range(3)]
        kernel = T.constant(rng.uniform(-1, 1, (3, 3, 4)))
        bias = T.constant(rng.uniform(-1, 1, 4))
        batched = T.conv1d(T.constant(np.vstack(xs)), kernel, bias, pad=pad, batch=3).numpy()
        alone = np.vstack([T.conv1d(T.constant(x), kernel, bias, pad=pad).numpy() for x in xs])
        assert batched.shape == alone.shape
        assert np.max(np.abs(batched - alone)) <= 1e-12

    @pytest.mark.parametrize("pad", ["same", "valid"])
    def test_grad_vs_finite_differences(self, pad):
        rng = np.random.default_rng(31)
        x = T.Tensor(rng.uniform(-1, 1, (3 * 5, 4)), requires_grad=True)
        kernel = T.Tensor(rng.uniform(-1, 1, (3, 4, 2)), requires_grad=True)
        bias = T.Tensor(rng.uniform(-1, 1, 2), requires_grad=True)
        assert_grads_match(
            lambda: T.sum_all(T.tanh(T.conv1d(x, kernel, bias, pad=pad, batch=3))),
            [x, kernel, bias])

    def test_rows_must_split_into_the_batch(self):
        with pytest.raises(ShapeError, match="batch|sequences"):
            T.conv1d(T.constant(np.zeros((7, 2))), T.constant(np.zeros((3, 2, 2))), batch=2)


class TestSoftmaxRows:
    def test_uniform(self):
        out = T.softmax_rows(T.constant([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_shift_invariance_no_overflow(self):
        out = T.softmax_rows(T.constant([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_closed_form(self):
        out = T.softmax_rows(T.constant([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], rtol=1e-12)

    def test_rows_sum_to_one_and_constant_shift(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(-5, 5, (6, 9))
        out = T.softmax_rows(T.constant(m))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        shifted = T.softmax_rows(T.constant(m + 3.7))
        np.testing.assert_allclose(out.data, shifted.data, atol=1e-12)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        m = T.Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
        w = T.constant(rng.uniform(-1, 1, (4, 5)))
        assert_grads_match(lambda: T.sum_all(T.mul(T.softmax_rows(m), w)), [m])


class TestTopkPool:
    def test_ordering(self):
        out = T.topk_pool(T.constant([[1.0], [3.0], [2.0]]), 2)
        assert np.array_equal(out.data, [3.0, 2.0])

    def test_feature_major_layout(self):
        out = T.topk_pool(T.constant([[1.0, 9.0], [4.0, 8.0], [2.0, 7.0]]), 2)
        assert np.array_equal(out.data, [4.0, 2.0, 9.0, 8.0])

    def test_k_equals_n_is_column_sort(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (5, 3))
        out = T.topk_pool(T.constant(x), 5)
        expected = np.sort(x, axis=0)[::-1].T.ravel()
        np.testing.assert_allclose(out.data, expected)

    def test_k_too_large(self):
        with pytest.raises(WindowError):
            T.topk_pool(T.constant(np.zeros((2, 2))), 3)

    def test_tie_break_is_stable_by_position(self):
        x = T.Tensor([[5.0], [5.0], [1.0]], requires_grad=True)
        out = T.topk_pool(x, 1)
        T.backward(T.sum_all(out))
        # the earlier of the tied rows gets the gradient
        assert np.array_equal(x.grad, [[1.0], [0.0], [0.0]])

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(8)
        x = T.Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)
        w = T.constant(rng.uniform(-1, 1, 8))
        assert_grads_match(lambda: T.sum_all(T.mul(T.topk_pool(x, 2), w)), [x])


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(T.constant([0.0])).data[0] == 0.5

    def test_relu(self):
        out = T.relu(T.constant([-2.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 3.0])

    def test_sigmoid_extreme_no_overflow(self):
        out = T.sigmoid(T.constant([-800.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(T.constant([1.0]), T.constant([1.0, 2.0]))

    def test_tanh_grad_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        x = T.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
        assert_grads_match(lambda: T.sum_all(T.tanh(x)), [x], tol=1e-6)

    def test_binary_op_grads(self):
        rng = np.random.default_rng(10)
        a = T.Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        b = T.Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        assert_grads_match(lambda: T.sum_all(T.mul(T.add(a, b), T.sub(a, b))), [a, b])

    def test_scalar_mul_grad(self):
        rng = np.random.default_rng(11)
        s = T.Tensor([0.7], requires_grad=True)
        x = T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        assert_grads_match(lambda: T.sum_all(T.tanh(T.scalar_mul(s, x))), [s, x])

    def test_add_bias_grad(self):
        rng = np.random.default_rng(12)
        m = T.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        b = T.Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        assert_grads_match(lambda: T.sum_all(T.sigmoid(T.add_bias(m, b))), [m, b])


class TestGatherSliceConcat:
    def test_gather_rows_grad_accumulates(self):
        table = T.Parameter(np.arange(6, dtype=float).reshape(3, 2))
        out = T.gather_rows(table, [1, 1, 0])
        T.backward(T.sum_all(out))
        assert np.array_equal(table.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])

    def test_gather_out_of_range(self):
        with pytest.raises(LabelError):
            T.gather_rows(T.constant(np.zeros((2, 2))), [2])

    def test_slice_cols_grad(self):
        rng = np.random.default_rng(13)
        x = T.Tensor(rng.uniform(-1, 1, (3, 6)), requires_grad=True)
        assert_grads_match(lambda: T.sum_all(T.tanh(T.slice_cols(x, 2, 5))), [x])

    def test_slice_rows_takes_a_contiguous_block(self):
        x = T.constant(np.arange(12.0).reshape(6, 2))
        assert np.array_equal(T.slice_rows(x, 2, 4).numpy(), [[4.0, 5.0], [6.0, 7.0]])
        with pytest.raises(ShapeError):
            T.slice_rows(x, 4, 7)
        with pytest.raises(ShapeError):
            T.slice_rows(x, 3, 3)

    def test_slice_rows_grad(self):
        rng = np.random.default_rng(16)
        x = T.Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)

        def loss():
            # overlapping blocks: both add into the one gradient of x
            return T.sum_all(T.tanh(T.slice_rows(x, 1, 4))) + T.sum_all(
                T.sigmoid(T.slice_rows(x, 3, 6)))

        assert_grads_match(loss, [x])

    def test_concat_grad_both_axes(self):
        rng = np.random.default_rng(14)
        a = T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        b = T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        assert_grads_match(lambda: T.sum_all(T.tanh(T.concat([a, b], axis=1))), [a, b])
        assert_grads_match(lambda: T.sum_all(T.sigmoid(T.concat([a, b], axis=0))), [a, b])

    def test_reshape_transpose_grad(self):
        rng = np.random.default_rng(15)
        x = T.Tensor(rng.uniform(-1, 1, (2, 6)), requires_grad=True)
        assert_grads_match(
            lambda: T.sum_all(T.tanh(T.transpose(T.reshape(x, (3, 4))))), [x]
        )


class TestCrossEntropy:
    def test_uniform_two_class(self):
        out = T.cross_entropy(T.constant([[0.0, 0.0]]), [0])
        np.testing.assert_allclose(out.data, [np.log(2.0)], rtol=1e-12)

    def test_confident_correct(self):
        out = T.cross_entropy(T.constant([[10.0, -10.0]]), [0])
        assert out.data[0] < 1e-4

    def test_out_of_range_label(self):
        with pytest.raises(LabelError):
            T.cross_entropy(T.constant(np.zeros((1, 3))), [3])

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(16)
        logits = rng.uniform(-2, 2, (4, 5))
        gold = rng.integers(0, 5, 4)
        out = T.cross_entropy(T.constant(logits), gold)
        total = 0.0
        for row, g in zip(logits, gold):
            p = np.exp(row) / np.exp(row).sum()
            total -= np.log(p[g])
        np.testing.assert_allclose(out.data[0], total / 4, rtol=1e-12)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(17)
        logits = T.Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
        gold = rng.integers(0, 5, 4)
        assert_grads_match(lambda: T.cross_entropy(logits, gold), [logits])


class TestBackward:
    def test_sum_gives_ones(self):
        x = T.Tensor(np.zeros((2, 3)), requires_grad=True)
        T.backward(T.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic(self):
        x = T.Tensor([1.0, -2.0, 0.5], requires_grad=True)
        T.backward(T.sum_all(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            T.backward(T.Tensor(np.zeros(3), requires_grad=True))
        T.active_tape().clear()

    def test_non_participating_tensor_keeps_no_grad(self):
        x = T.Tensor([1.0], requires_grad=True)
        y = T.Tensor([2.0], requires_grad=True)
        T.backward(T.sum_all(T.mul(x, x)))
        assert y.grad is None

    def test_reused_tensor_accumulates(self):
        x = T.Tensor([3.0], requires_grad=True)
        y = T.add(T.mul(x, x), x)  # d/dx = 2x + 1
        T.backward(T.sum_all(y))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_tape_consumed_after_backward(self):
        x = T.Tensor([1.0], requires_grad=True)
        T.backward(T.sum_all(T.tanh(x)))
        assert len(T.active_tape()) == 0

    def test_intermediate_gradients_are_dropped_once_passed_on(self):
        x = T.Tensor([0.5, -1.0], requires_grad=True)
        hidden = T.tanh(x)
        T.backward(T.sum_all(T.mul(hidden, hidden)))
        assert hidden.grad is None
        np.testing.assert_allclose(x.grad, 2 * np.tanh(x.data) * (1 - np.tanh(x.data) ** 2))

    def test_no_grad_records_nothing(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = T.tanh(x)
        assert not y.requires_grad
        assert len(T.active_tape()) == 0


class TestAdagrad:
    def test_zero_gradient_leaves_parameters(self):
        p = T.Parameter([1.0, 2.0])
        p.grad = np.zeros(2)
        T.adagrad_step([p], lr=0.1)
        assert np.array_equal(p.data, [1.0, 2.0])

    def test_first_step_hand_value(self):
        p = T.Parameter([1.0])
        p.grad = np.array([2.0])
        T.adagrad_step([p], lr=0.001, eps=0.0)
        np.testing.assert_allclose(p.data, [1.0 - 0.001])

    def test_second_step_shrinks_by_sqrt2(self):
        p = T.Parameter([0.0])
        p.grad = np.array([1.0])
        T.adagrad_step([p], lr=1.0, eps=0.0)
        first = -p.data[0]
        p.grad = np.array([1.0])
        T.adagrad_step([p], lr=1.0, eps=0.0)
        second = -p.data[0] - first
        np.testing.assert_allclose(second / first, 1.0 / np.sqrt(2.0), rtol=1e-12)

    def test_step_without_backward_raises(self):
        with pytest.raises(MissingGradientError):
            T.adagrad_step([T.Parameter([1.0])])

    def test_accumulator_monotone(self):
        rng = np.random.default_rng(18)
        p = T.Parameter(rng.uniform(-1, 1, 4))
        prev = p.accumulator.copy()
        for _ in range(5):
            p.grad = rng.uniform(-1, 1, 4)
            T.adagrad_step([p])
            assert np.all(p.accumulator >= prev)
            prev = p.accumulator.copy()

    def test_gradients_cleared_after_step(self):
        p = T.Parameter([1.0])
        p.grad = np.array([1.0])
        T.adagrad_step([p])
        assert p.grad is None


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        arrays = {
            "head.weight": rng.uniform(-1, 1, (3, 4)),
            "head.bias": rng.uniform(-1, 1, 4),
            "scale": np.array(0.5),
        }
        path = tmp_path / "model.tckpt"
        T.save_checkpoint(path, arrays)
        loaded = T.load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert loaded[name].shape == np.asarray(arrays[name]).shape
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_identical_bytes_on_rewrite(self, tmp_path):
        arrays = {"w": np.arange(6, dtype=float).reshape(2, 3)}
        a, b = tmp_path / "a.tckpt", tmp_path / "b.tckpt"
        T.save_checkpoint(a, arrays)
        T.save_checkpoint(b, arrays)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.tckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ParseError):
            T.load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.tckpt"
        T.save_checkpoint(path, {"w": np.ones(8)})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ParseError, match="truncated"):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        b"tckpt x 1\nw 2\n",        # version
        b"tckpt 1 one\nw 2\n",      # array count
        b"tckpt 1 1\nw 2 q\n",      # dimension
        b"tckpt 1 1\nw -2\n",       # negative dimension
    ])
    def test_malformed_header_numbers_are_parse_errors(self, tmp_path, header):
        path = tmp_path / "bad.tckpt"
        path.write_bytes(header + np.zeros(2, dtype="<f8").tobytes())
        with pytest.raises(ParseError):
            T.load_checkpoint(path)

    def test_trailing_bytes_are_rejected(self, tmp_path):
        path = tmp_path / "long.tckpt"
        T.save_checkpoint(path, {"w": np.ones(3)})
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ParseError, match="trailing"):
            T.load_checkpoint(path)
