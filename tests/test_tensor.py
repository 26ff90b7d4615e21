"""Tests for the autodiff core: op semantics, gradients, optimizer, checkpoints."""

import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from discrel import tensor as T
from discrel.cli import _FAILURES
from discrel.errors import (
    LabelError,
    MissingGradientError,
    ParseError,
    ShapeError,
    WindowError,
)

from block_oracles import composed_gated_conv, each_once, full_length
from byte_mutations import mutations
from claims import BITWISE, CLOSE, assert_agree
from extra_ops import reshape, slice_rows, sum_all, transpose
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
        T.backward(sum_all(T.matmul(a, b)))
        expected = np.ones((3, 2)) @ b.data.T
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        a = T.Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = T.Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        assert_grads_match(lambda: sum_all(T.tanh(T.matmul(a, b))), [a, b])


class TestConv1d:
    """``conv1d`` is the valid convolution; the same-padded one is the
    gated conv block's, ``gated_conv``."""

    def test_pointwise_scaling(self):
        x = T.constant([[1.0], [2.0], [3.0]])
        kernel = T.constant(np.array([[[2.0]]]))  # k=1, d_in=1, d_out=1
        out = T.conv1d(x, kernel, T.constant([0.0]))
        assert np.array_equal(out.data, [[2.0], [4.0], [6.0]])

    def test_window_sums_with_zero_edges(self):
        # an all-ones value half and a gate saturated at exactly 1 leave
        # the plain same-padded window sums
        x = T.constant([[1.0], [1.0], [1.0]])
        kernel = T.constant(np.stack([np.array([[1.0, 0.0]])] * 3))
        out = T.gated_conv(x, kernel, T.constant([0.0, 800.0]), residual=False)
        assert np.array_equal(out.data, [[2.0], [3.0], [2.0]])

    def test_length_preserved(self):
        x = T.constant(np.random.default_rng(2).uniform(-1, 1, (7, 4)))
        kernel = T.constant(np.zeros((5, 4, 8)))
        assert T.gated_conv(x, kernel, T.constant(np.zeros(8))).shape == (7, 4)

    def test_even_kernel_rejected_for_same(self):
        with pytest.raises(ShapeError, match="odd"):
            T.gated_conv(T.constant(np.zeros((4, 2))), T.constant(np.zeros((2, 2, 4))),
                         T.constant(np.zeros(4)))

    def test_valid_mode_window_error(self):
        with pytest.raises(WindowError):
            T.conv1d(T.constant(np.zeros((2, 1))), T.constant(np.zeros((3, 1, 1))),
                     T.constant(np.zeros(1)))

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        x = T.Tensor(rng.uniform(-1, 1, (7, 4)), requires_grad=True)
        kernel = T.Tensor(rng.uniform(-1, 1, (3, 4, 5)), requires_grad=True)
        bias = T.Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        assert_grads_match(
            lambda: sum_all(T.tanh(T.conv1d(x, kernel, bias))), [x, kernel, bias]
        )

    def test_grad_valid_mode(self):
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)
        kernel = T.Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
        bias = T.constant(rng.uniform(-1, 1, 4))  # a frozen bias gets no gradient
        assert_grads_match(
            lambda: sum_all(T.sigmoid(T.conv1d(x, kernel, bias))), [x, kernel]
        )


def convolve(pad, x, kernel, bias, batch=1):
    """The same-padded convolution (the gated conv block) or the valid one."""
    if pad == "same":
        return T.gated_conv(x, kernel, bias, batch)
    return T.conv1d(x, kernel, bias, batch)


class TestBatchedConv1d:
    """Stacked sequences are convolved as if each were alone."""

    @pytest.mark.parametrize("pad", ["same", "valid"])
    def test_each_sequence_is_padded_on_its_own(self, pad):
        rng = np.random.default_rng(30)
        xs = [rng.uniform(-1, 1, (6, 3)) for _ in range(3)]
        kernel = T.constant(rng.uniform(-1, 1, (3, 3, 6)))
        bias = T.constant(rng.uniform(-1, 1, 6))
        batched = convolve(pad, T.constant(np.vstack(xs)), kernel, bias, batch=3).numpy()
        alone = np.vstack([convolve(pad, T.constant(x), kernel, bias).numpy() for x in xs])
        assert batched.shape == alone.shape
        assert np.max(np.abs(batched - alone)) <= 1e-12

    @pytest.mark.parametrize("pad", ["same", "valid"])
    def test_grad_vs_finite_differences(self, pad):
        rng = np.random.default_rng(31)
        x = T.Tensor(rng.uniform(-1, 1, (3 * 5, 4)), requires_grad=True)
        kernel = T.Tensor(rng.uniform(-1, 1, (3, 4, 8)), requires_grad=True)
        bias = T.Tensor(rng.uniform(-1, 1, 8), requires_grad=True)
        assert_grads_match(
            lambda: sum_all(T.tanh(convolve(pad, x, kernel, bias, batch=3))),
            [x, kernel, bias])

    def test_rows_must_split_into_the_batch(self):
        with pytest.raises(ShapeError, match="batch|sequences"):
            T.conv1d(T.constant(np.zeros((7, 2))), T.constant(np.zeros((3, 2, 2))),
                     T.constant(np.zeros(2)), batch=2)


class TestGatedConv:
    """The conv block op against its composition of ``conv1d``, the gated
    linear unit and the residual ``add``: every output and gradient bitwise
    equal."""

    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("n", [1, 5, 40])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_the_composition_bitwise(self, batch, n, k, residual):
        rng = np.random.default_rng(batch * 1000 + n * 10 + k)
        w = 4
        data = rng.normal(size=(batch * n, w))
        kernel_data = rng.normal(size=(k, w, 2 * w))
        bias_data = rng.normal(size=2 * w)
        g, h = rng.normal(size=(batch * n, w)), rng.normal(size=(batch * n, w))

        def run(block):
            x = T.Tensor(data.copy(), requires_grad=True)
            kernel, bias = T.Parameter(kernel_data.copy()), T.Parameter(bias_data.copy())
            out = block(x, kernel, bias, batch, residual)
            # x is read again after the block, so its gradient has a value
            # before the block's backward adds to it
            T.backward(sum_all(T.mul(out, T.constant(g))) + sum_all(T.mul(x, T.constant(h))))
            return out.numpy(), x.grad, kernel.grad, bias.grad

        for got, want in zip(run(T.gated_conv), run(composed_gated_conv)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("residual", [True, False])
    @pytest.mark.parametrize("k,n,row,copies", [(3, 5, 2, 2), (5, 6, 0, 4), (5, 6, 5, 1),
                                                (5, 6, 9, 0), (1, 4, 3, 0)])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_grown_rows_equal_the_repeated_rows(self, batch, k, n, row, copies, residual):
        # Over its grown rows the op runs the products it runs over the
        # rows repeated by a gather, so outputs and the weights' gradients
        # are bitwise equal; the copies' gradients are summed in another
        # order than the gather's scatter, so the input's agree to rounding.
        rng = np.random.default_rng(batch * 100 + k * 10 + copies)
        w = 3
        data = rng.normal(size=(batch * n, w))
        kernel_data, bias_data = rng.normal(size=(k, w, 2 * w)), rng.normal(size=2 * w)
        g = rng.normal(size=(batch * (n + copies), w))
        counts = np.ones(n, dtype=np.intp)
        if copies:
            counts[row] += copies

        def run(grown):
            x = T.Tensor(data.copy(), requires_grad=True)
            kernel, bias = T.Parameter(kernel_data.copy()), T.Parameter(bias_data.copy())
            if grown:
                out = T.gated_conv(x, kernel, bias, batch, residual, (row, copies))
            else:
                out = T.gated_conv(full_length([x], [counts], batch)[0], kernel, bias, batch,
                                   residual)
            T.backward(sum_all(T.mul(out, T.constant(g))))
            return out.numpy(), kernel.grad, bias.grad, x.grad

        *got, got_x = run(True)
        *want, want_x = run(False)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert_agree(got_x, want_x, CLOSE)

    @pytest.mark.parametrize("grow", [(0, -1), (4, 1), (-1, 2)])
    def test_grow_is_checked(self, grow):
        with pytest.raises(ShapeError, match="grow"):
            T.gated_conv(T.constant(np.zeros((8, 2))), T.constant(np.zeros((3, 2, 4))),
                         T.constant(np.zeros(4)), 2, True, grow)

    def test_records_one_tape_node(self):
        x = T.Tensor(np.zeros((2 * 3, 2)), requires_grad=True)
        T.gated_conv(x, T.Parameter(np.zeros((3, 2, 4))), T.Parameter(np.zeros(4)), batch=2)
        assert len(T.active_tape()) == 1
        T.active_tape().clear()

    @pytest.mark.parametrize("x_shape,kernel_shape,bias_shape,batch", [
        ((4, 2), (3, 2, 3), (3,), 1),    # output not twice the input width
        ((4, 3), (3, 2, 4), (4,), 1),    # input width
        ((4, 2), (3, 2, 4), (3,), 1),    # bias width
        ((7, 2), (3, 2, 4), (4,), 2),    # rows do not split into the batch
        ((4, 2), (2, 4), (4,), 1),       # kernel not 3-D
    ])
    def test_shapes_are_checked(self, x_shape, kernel_shape, bias_shape, batch):
        with pytest.raises(ShapeError):
            T.gated_conv(T.constant(np.zeros(x_shape)), T.constant(np.zeros(kernel_shape)),
                         T.constant(np.zeros(bias_shape)), batch)


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
        assert_grads_match(lambda: sum_all(T.mul(T.softmax_rows(m), w)), [m])


class TestTopkPool:
    def test_ordering(self):
        out = T.topk_pool(T.constant([[1.0], [3.0], [2.0]]), 2, 1, [3])
        assert np.array_equal(out.data, [[3.0, 2.0]])

    def test_feature_major_layout(self):
        out = T.topk_pool(T.constant([[1.0, 9.0], [4.0, 8.0], [2.0, 7.0]]), 2, 1, [3])
        assert np.array_equal(out.data, [[4.0, 2.0, 9.0, 8.0]])

    def test_k_equals_n_is_column_sort(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (5, 3))
        out = T.topk_pool(T.constant(x), 5, 1, [5])
        expected = np.sort(x, axis=0)[::-1].T.ravel()
        np.testing.assert_allclose(out.data, [expected])

    def test_k_too_large(self):
        with pytest.raises(WindowError):
            T.topk_pool(T.constant(np.zeros((2, 2))), 3, 1, [2])

    def test_tie_break_is_stable_by_position(self):
        x = T.Tensor([[5.0], [5.0], [1.0]], requires_grad=True)
        out = T.topk_pool(x, 1, 1, [3])
        T.backward(sum_all(out))
        # the earlier of the tied rows gets the gradient
        assert np.array_equal(x.grad, [[1.0], [0.0], [0.0]])

    def test_values_rounded_apart_tie_by_position(self):
        # an ulp apart is a tie: the earlier row is taken first
        above = np.nextafter(5.0, 6.0)
        x = T.Tensor([[5.0], [above], [1.0]], requires_grad=True)
        out = T.topk_pool(x, 2, 1, [3])
        T.backward(sum_all(T.mul(out, T.constant([[1.0, 2.0]]))))
        assert out.data.tolist() == [[5.0, above]]
        assert x.grad.tolist() == [[1.0], [2.0], [0.0]]
        # the margin is relative to the larger of 1 and the largest value
        for rows, pick in [([5.0, 5.0 + 1e-9, 1.0], 1), ([-1e-13, 0.0], 0),
                           ([0.0, 1e-11], 1), ([3e6, 3e6 + 1e-7], 0)]:
            out = T.topk_pool(T.constant(np.array(rows)[:, None]), 1, 1, [len(rows)])
            assert out.data.tolist() == [[rows[pick]]], rows

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(8)
        x = T.Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)
        w = T.constant(rng.uniform(-1, 1, (1, 8)))
        assert_grads_match(lambda: sum_all(T.mul(T.topk_pool(x, 2, 1, [6]), w)), [x])

    @pytest.mark.parametrize("k", [1, 2, "n"])
    def test_matches_a_stable_sort_with_planted_ties(self, k):
        rng = np.random.default_rng(40)
        for trial in range(20):
            n, d = int(rng.integers(2, 9)), int(rng.integers(1, 6))
            kk = n if k == "n" else k
            # few distinct values, so most columns hold ties
            data = rng.integers(-2, 3, (n, d)).astype(float)
            data[rng.integers(n)] = data[rng.integers(n)]  # a repeated row
            order = np.argsort(-data, axis=0, kind="stable")[:kk]
            x = T.Tensor(data, requires_grad=True)
            out = T.topk_pool(x, kk, 1, [n])
            assert np.array_equal(out.numpy(),
                                  [np.take_along_axis(data, order, axis=0).T.ravel()])
            w = rng.normal(size=(1, kk * d))
            T.backward(sum_all(T.mul(out, T.constant(w))))
            expected = np.zeros((n, d))
            np.put_along_axis(expected, order, w.reshape(d, kk).T, axis=0)
            assert np.array_equal(x.grad, expected), f"trial {trial}"


class TestTopkPoolOverBlocks:
    def test_masks_rows_past_each_valid_count(self):
        x = T.constant([[1.0, 5.0], [2.0, 0.0], [9.0, 9.0],
                        [3.0, 1.0], [0.0, 4.0], [7.0, 8.0]])
        out = T.topk_pool(x, 1, 2, [2, 1])
        assert np.array_equal(out.numpy(), [[2.0, 5.0], [3.0, 1.0]])
        out = T.topk_pool(x, 2, 2, [2, 2])
        assert np.array_equal(out.numpy(), [[2.0, 1.0, 5.0, 0.0], [3.0, 0.0, 4.0, 1.0]])

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_per_block_pools_with_planted_ties(self, k):
        rng = np.random.default_rng(41)
        for trial in range(30):
            b, n, d = int(rng.integers(1, 5)), int(rng.integers(k, 7)), int(rng.integers(1, 5))
            # few distinct values, so most columns hold ties
            data = rng.integers(-2, 3, (b * n, d)).astype(float)
            valid = rng.integers(k, n + 1, b)
            w = rng.normal(size=(b, k * d))
            x = T.Tensor(data, requires_grad=True)
            out = T.topk_pool(x, k, b, valid)
            T.backward(sum_all(T.mul(out, T.constant(w))))
            expected = np.zeros_like(data)
            for i in range(b):
                block = T.Tensor(data[i * n:i * n + valid[i]], requires_grad=True)
                top = T.topk_pool(block, k, 1, [valid[i]])
                assert np.array_equal(out.numpy()[i], top.numpy()[0]), f"trial {trial}"
                T.backward(sum_all(T.mul(top, T.constant(w[i:i + 1]))))
                expected[i * n:i * n + valid[i]] = block.grad
            assert np.array_equal(x.grad, expected), f"trial {trial}"

    def test_tie_goes_to_the_earlier_row(self):
        x = T.Tensor([[1.0], [5.0], [5.0], [4.0], [4.0], [6.0]], requires_grad=True)
        T.backward(sum_all(T.topk_pool(x, 1, 2, [3, 2])))
        assert np.array_equal(x.grad.ravel(), [0.0, 1.0, 0.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("k, valid", [(1, [0, 2]), (1, [2, 4]), (1, [3, -1]),
                                          (2, [1, 3]), (0, [2, 2])])
    def test_valid_count_outside_the_block(self, k, valid):
        with pytest.raises(WindowError):
            T.topk_pool(T.constant(np.zeros((6, 2))), k, 2, valid)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.topk_pool(T.constant(np.zeros((6, 2))), 1, 2, [1, 1, 1])
        with pytest.raises(ShapeError):
            T.topk_pool(T.constant(np.zeros((5, 2))), 1, 2, [1, 1])
        with pytest.raises(ShapeError):
            T.topk_pool(T.constant(np.zeros(6)), 1, 2, [1, 1])

    def test_grad_vs_finite_differences(self):
        rng = np.random.default_rng(42)
        x = T.Tensor(rng.uniform(-1, 1, (12, 3)), requires_grad=True)
        w = T.constant(rng.uniform(-1, 1, (3, 6)))
        assert_grads_match(lambda: sum_all(T.mul(T.topk_pool(x, 2, 3, [4, 2, 3]), w)), [x])


class TestCountedRows:
    """An op over distinct rows and their counts against the same op over
    the rows repeated as often as they count: outputs equal the repeated
    rows' outputs, and gradients their gradients summed over each row's
    copies (what ``gather_rows`` passes back)."""

    def test_a_row_picked_twice_takes_both_gradients(self):
        x = T.Tensor([[1.0], [5.0], [2.0]], requires_grad=True)
        out = T.topk_pool(x, 2, 1, [3], [1, 2, 1])
        assert np.array_equal(out.numpy(), [[5.0, 5.0]])
        T.backward(sum_all(T.mul(out, T.constant([[3.0, 0.5]]))))
        assert np.array_equal(x.grad, [[0.0], [3.5], [0.0]])

    def test_copies_come_before_the_next_row(self):
        # the tie at 5 goes to row 1's two copies before row 2
        x = T.Tensor([[1.0], [5.0], [5.0]], requires_grad=True)
        T.backward(sum_all(T.topk_pool(x, 2, 1, [3], [1, 2, 1])))
        assert np.array_equal(x.grad, [[0.0], [2.0], [0.0]])

    def test_counts_are_checked(self):
        x = T.constant(np.zeros((6, 2)))
        with pytest.raises(ShapeError):
            T.topk_pool(x, 1, 2, [3, 3], [1, 1])
        with pytest.raises(ShapeError):
            T.topk_pool(x, 1, 2, [3, 3], [1, 0, 2])
        with pytest.raises(ShapeError):
            T.topk_pool(x, 1, 2, [3, 3], [1.0, 1.5, 2.0])
        with pytest.raises(WindowError):  # fewer than k rows counted
            T.topk_pool(x, 4, 2, [2, 3], [1, 2, 1])
        assert T.topk_pool(x, 3, 2, [2, 3], [1, 2, 1]).shape == (2, 6)

    def test_topk_pool_equals_the_repeated_rows_with_planted_ties(self):
        # pooling only selects values, so both ways agree bitwise
        rng = np.random.default_rng(43)
        for trial in range(60):
            b, n, d = (int(v) for v in rng.integers(1, 5, 3))
            counts = rng.integers(1, 4, n)
            capacity = np.cumsum(counts)
            k = int(rng.integers(1, min(4, capacity[-1]) + 1))
            valid = rng.integers(np.searchsorted(capacity, k) + 1, n + 1, b)
            # few distinct values, so most columns hold ties
            data = rng.integers(-2, 3, (b * n, d)).astype(float)
            w = T.constant(rng.normal(size=(b, k * d)))
            x = T.Tensor(data, requires_grad=True)
            out = T.topk_pool(x, k, b, valid, counts)
            T.backward(sum_all(T.mul(out, w)))
            got = x.grad
            x.grad = None
            want = T.topk_pool(full_length([x], [counts], b)[0], k, b, capacity[valid - 1])
            T.backward(sum_all(T.mul(want, w)))
            assert_agree(out.numpy(), want.numpy(), BITWISE, f"trial {trial}")
            assert_agree(got, x.grad, BITWISE, f"trial {trial}")

    @pytest.mark.parametrize("graded", ["both", "first", "second"])
    def test_bi_attention_equals_the_repeated_rows(self, graded):
        rng = np.random.default_rng(44)
        for trial in range(20):
            b, n1, n2, d = (int(v) for v in rng.integers(1, 5, 4))
            counts1, counts2 = rng.integers(1, 5, n1), rng.integers(1, 5, n2)
            data = [rng.normal(size=(b * n1, d)), rng.normal(size=(b * n2, d)),
                    rng.normal(size=(d, d)), rng.normal(size=d)]
            g1 = T.constant(rng.normal(size=(b * counts2.sum(), d)))
            g2 = T.constant(rng.normal(size=(b * counts1.sum(), d)))

            def run(attend):
                v1, v2 = T.Tensor(data[0], requires_grad=True), T.Tensor(data[1], requires_grad=True)
                w, bias = T.Parameter(data[2].copy()), T.Parameter(data[3].copy())
                o1, o2 = attend(v1, v2, w, bias)
                terms = []
                if graded != "second":
                    terms.append(sum_all(T.mul(o1, g1)))
                if graded != "first":
                    terms.append(sum_all(T.mul(o2, g2)))
                T.backward(terms[0] if len(terms) == 1 else terms[0] + terms[1])
                return [o1.numpy(), o2.numpy(), v1.grad, v2.grad, w.grad, bias.grad]

            def counted(v1, v2, w, bias):
                # each output row stands for its copies among the repeated rows
                o1, o2 = T.bi_attention(v1, v2, w, bias, b, counts1, counts2)
                return full_length([o1], [counts2], b) + full_length([o2], [counts1], b)

            def repeated_rows(v1, v2, w, bias):
                full1, full2 = full_length([v1], [counts1], b) + full_length([v2], [counts2], b)
                return T.bi_attention(full1, full2, w, bias, b, *each_once(b, full1, full2))

            for got, want in zip(run(counted), run(repeated_rows)):
                assert_agree(got, want, CLOSE, f"trial {trial}")


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(T.constant([0.0])).data[0] == 0.5

    def test_relu(self):
        out = T.relu(T.constant([-2.0, 3.0]))
        assert np.array_equal(out.data, [0.0, 3.0])

    def test_sigmoid_extreme_no_overflow(self):
        out = T.sigmoid(T.constant([-800.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_sigmoid_is_exact_at_the_extremes_and_zero(self):
        assert np.array_equal(T.sigmoid(T.constant([-800.0, 0.0, 800.0])).numpy(),
                              [0.0, 0.5, 1.0])

    def test_sigmoid_matches_the_sign_split_exp_form(self):
        x = np.linspace(-50.0, 50.0, 20001)
        pos = np.clip(x, 0, None)
        neg = np.clip(x, None, 0)
        split = np.where(x >= 0, 1.0 / (1.0 + np.exp(-pos)), np.exp(neg) / (1.0 + np.exp(neg)))
        assert np.max(np.abs(T.sigmoid(T.constant(x)).numpy() - split)) <= 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.add(T.constant([1.0]), T.constant([1.0, 2.0]))

    def test_tanh_grad_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        x = T.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
        assert_grads_match(lambda: sum_all(T.tanh(x)), [x], tol=1e-6)

    def test_binary_op_grads(self):
        rng = np.random.default_rng(10)
        a = T.Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        b = T.Tensor(rng.uniform(-1, 1, 5), requires_grad=True)
        assert_grads_match(lambda: sum_all(T.mul(T.add(a, b), T.sub(a, b))), [a, b])

    def test_scalar_mul_grad(self):
        rng = np.random.default_rng(11)
        s = T.Tensor([0.7], requires_grad=True)
        x = T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        assert_grads_match(lambda: sum_all(T.tanh(T.scalar_mul(s, x))), [s, x])

    def test_add_bias_grad(self):
        rng = np.random.default_rng(12)
        m = T.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        b = T.Tensor(rng.uniform(-1, 1, 3), requires_grad=True)
        assert_grads_match(lambda: sum_all(T.sigmoid(T.add_bias(m, b))), [m, b])


class TestUnreadGradients:
    """An untracked input gets no gradient, and the tracked ones are unchanged."""

    @pytest.mark.parametrize("pad,batch", [("same", 1), ("same", 2), ("valid", 2)])
    def test_conv1d_with_an_untracked_input(self, pad, batch):
        # "same" is the gated conv block, whose input is untracked when it
        # is the first block over frozen word vectors
        rng = np.random.default_rng(43)
        data = rng.normal(size=(2 * 6, 4))
        kernel_data = rng.normal(size=(3, 4, 8))
        bias_data = rng.normal(size=8)
        g = rng.normal(size=(2 * 6, 4) if pad == "same" else (2 * 4, 8))

        def run(x):
            kernel = T.Parameter(kernel_data.copy())
            bias = T.Parameter(bias_data.copy())
            out = convolve(pad, x, kernel, bias, batch)
            T.backward(sum_all(T.mul(out, T.constant(g))))
            return kernel.grad, bias.grad

        frozen = T.constant(data)
        kernel_grad, bias_grad = run(frozen)
        assert frozen.grad is None
        tracked = T.Tensor(data, requires_grad=True)
        kernel_ref, bias_ref = run(tracked)
        assert tracked.grad is not None
        assert np.array_equal(kernel_grad, kernel_ref)
        assert np.array_equal(bias_grad, bias_ref)

    def test_matmul_with_an_untracked_operand(self):
        rng = np.random.default_rng(44)
        a_data, b_data = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        frozen = T.constant(a_data)
        b = T.Parameter(b_data)
        T.backward(sum_all(T.tanh(frozen @ b)))
        assert frozen.grad is None
        tracked, b_ref = T.Tensor(a_data, requires_grad=True), T.Parameter(b_data)
        T.backward(sum_all(T.tanh(tracked @ b_ref)))
        assert np.array_equal(b.grad, b_ref.grad)


class TestGatherSliceConcat:
    def test_gather_rows_grad_accumulates(self):
        table = T.Parameter(np.arange(6, dtype=float).reshape(3, 2))
        out = T.gather_rows(table, [1, 1, 0])
        T.backward(sum_all(out))
        assert np.array_equal(table.grad, [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])

    def test_gather_out_of_range(self):
        with pytest.raises(LabelError):
            T.gather_rows(T.constant(np.zeros((2, 2))), [2])

    def test_slice_cols_grad(self):
        rng = np.random.default_rng(13)
        x = T.Tensor(rng.uniform(-1, 1, (3, 6)), requires_grad=True)
        assert_grads_match(lambda: sum_all(T.tanh(T.slice_cols(x, 2, 5))), [x])

    def test_slice_rows_takes_a_contiguous_block(self):
        x = T.constant(np.arange(12.0).reshape(6, 2))
        assert np.array_equal(slice_rows(x, 2, 4).numpy(), [[4.0, 5.0], [6.0, 7.0]])
        with pytest.raises(ShapeError):
            slice_rows(x, 4, 7)
        with pytest.raises(ShapeError):
            slice_rows(x, 3, 3)

    def test_slice_rows_grad(self):
        rng = np.random.default_rng(16)
        x = T.Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)

        def loss():
            # overlapping blocks: both add into the one gradient of x
            return sum_all(T.tanh(slice_rows(x, 1, 4))) + sum_all(
                T.sigmoid(slice_rows(x, 3, 6)))

        assert_grads_match(loss, [x])

    def test_concat_grad_both_axes(self):
        rng = np.random.default_rng(14)
        a = T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        b = T.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
        assert_grads_match(lambda: sum_all(T.tanh(T.concat([a, b], axis=1))), [a, b])
        assert_grads_match(lambda: sum_all(T.sigmoid(T.concat([a, b], axis=0))), [a, b])

    def test_reshape_transpose_grad(self):
        rng = np.random.default_rng(15)
        x = T.Tensor(rng.uniform(-1, 1, (2, 6)), requires_grad=True)
        assert_grads_match(
            lambda: sum_all(T.tanh(transpose(reshape(x, (3, 4))))), [x]
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
        T.backward(sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic(self):
        x = T.Tensor([1.0, -2.0, 0.5], requires_grad=True)
        T.backward(sum_all(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            T.backward(T.Tensor(np.zeros(3), requires_grad=True))
        T.active_tape().clear()

    def test_non_participating_tensor_keeps_no_grad(self):
        x = T.Tensor([1.0], requires_grad=True)
        y = T.Tensor([2.0], requires_grad=True)
        T.backward(sum_all(T.mul(x, x)))
        assert y.grad is None

    def test_reused_tensor_accumulates(self):
        x = T.Tensor([3.0], requires_grad=True)
        y = T.add(T.mul(x, x), x)  # d/dx = 2x + 1
        T.backward(sum_all(y))
        np.testing.assert_allclose(x.grad, [7.0])

    def test_tape_consumed_after_backward(self):
        x = T.Tensor([1.0], requires_grad=True)
        T.backward(sum_all(T.tanh(x)))
        assert len(T.active_tape()) == 0

    def test_intermediate_gradients_are_dropped_once_passed_on(self):
        x = T.Tensor([0.5, -1.0], requires_grad=True)
        hidden = T.tanh(x)
        T.backward(sum_all(T.mul(hidden, hidden)))
        assert hidden.grad is None
        np.testing.assert_allclose(x.grad, 2 * np.tanh(x.data) * (1 - np.tanh(x.data) ** 2))

    def test_a_raising_backward_leaves_the_tape_empty(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        failing = T.Tensor(np.tanh(x.data))

        def fail(g):
            raise RuntimeError("backward step failed")

        T._record(failing, (T.tanh(x),), fail)
        with pytest.raises(RuntimeError, match="step failed"):
            T.backward(sum_all(failing))
        assert len(T.active_tape()) == 0
        T.backward(sum_all(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_a_node_is_freed_once_replayed(self):
        # The tanh node keeps its output for its backward.  Once backward
        # has replayed that node, nothing holds the array any more, before
        # the earlier node's backward runs.
        x = T.Tensor([0.5, -1.0], requires_grad=True)
        first = T.Tensor(2.0 * x.data)
        freed = []

        def first_bwd(g):
            freed.append(kept() is None)
            T._accum(x, 2.0 * g)

        T._record(first, (x,), first_bwd)
        hidden = T.tanh(first)
        kept = weakref.ref(hidden.data)
        loss = sum_all(hidden)
        del first, hidden
        T.backward(loss)
        assert freed == [True]
        np.testing.assert_allclose(x.grad, 2.0 * (1.0 - np.tanh(2.0 * x.data) ** 2))

    def test_no_grad_records_nothing(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = T.tanh(x)
        assert not y.requires_grad
        assert len(T.active_tape()) == 0


class TestDropout:
    def test_without_an_rng_the_input_passes_through(self):
        x = T.constant(np.arange(6.0).reshape(2, 3))
        assert T.dropout(x, 0.5, None) is x
        with pytest.raises(ShapeError):
            T.dropout(x, 1.0, None)

    def test_input_and_gradient_are_scaled_by_the_drawn_mask(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        g = rng.normal(size=(4, 5))
        out = T.dropout(x, 0.4, np.random.default_rng(6))
        T.backward(sum_all(T.mul(out, T.constant(g))))
        scale = (np.random.default_rng(6).random((4, 5)) >= 0.4) / (1.0 - 0.4)
        assert out.numpy().tobytes() == (x.data * scale).tobytes()
        assert x.grad.tobytes() == (g * scale).tobytes()

    def test_given_lengths_each_sequences_pad_rows_share_one_mask_row(self):
        # three sequences of 4 rows, of real lengths 1, 6 (cut to its 4
        # rows: no pad) and 2
        rng = np.random.default_rng(5)
        x = T.Tensor(rng.normal(size=(12, 5)), requires_grad=True)
        g = rng.normal(size=(12, 5))
        out = T.dropout(x, 0.4, np.random.default_rng(6), [1, 6, 2])
        T.backward(sum_all(T.mul(out, T.constant(g))))
        replay = np.random.default_rng(6)
        drawn = (replay.random((12, 5)) >= 0.4) / (1.0 - 0.4)
        # real rows read their own mask row, and pad rows that of the
        # sequence's first pad row
        scale = drawn[[0, 1, 1, 1, 4, 5, 6, 7, 8, 9, 10, 10]]
        assert out.numpy().tobytes() == (x.data * scale).tobytes()
        assert x.grad.tobytes() == (g * scale).tobytes()
        # the draw takes exactly t.size uniforms from the stream
        assert replay.random() == np.random.default_rng(6).random(61)[-1]

    def test_rate_zero_draws_nothing(self):
        rng = np.random.default_rng(4)
        x = T.constant(np.ones((2, 2)))
        assert T.dropout(x, 0.0, rng) is x
        assert rng.random() == np.random.default_rng(4).random()


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

    @pytest.mark.parametrize("block", [T.ADAGRAD_BLOCK, 7, 1])
    def test_blocks_give_bitwise_the_whole_array_update(self, monkeypatch, block):
        # shapes that fill no block, several blocks and a ragged last one;
        # a scalar; a transposed (not C-ordered) weight and gradient
        monkeypatch.setattr(T, "ADAGRAD_BLOCK", block)
        rng = np.random.default_rng(20)
        shapes = [(3,), (4, 5), (2, 3, 7), ()]
        params = [T.Parameter(rng.normal(size=shape)) for shape in shapes]
        params.append(T.Parameter(rng.normal(size=(6, 4)).T))
        want = [(p.data.copy(), p.accumulator.copy()) for p in params]
        for _ in range(3):
            grads = [rng.normal(size=p.shape) for p in params]
            grads[-1] = rng.normal(size=params[-1].shape[::-1]).T
            for p, g, (data, acc) in zip(params, grads, want):
                p.grad = g
                acc += g * g
                data -= 0.05 * g / (np.sqrt(acc) + 1e-8)
            T.adagrad_step(params, lr=0.05)
            for p, (data, acc) in zip(params, want):
                assert p.data.tobytes() == data.tobytes()
                assert p.accumulator.tobytes() == acc.tobytes()


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

    @pytest.mark.parametrize("header", [
        b"tckpt 1 1\nw 99999999999 99999999999\n",   # too many elements to exist
        b"tckpt 1 1\nw 4294967296 4294967296 4294967296\n",  # wraps int64
        b"tckpt 1 2\nw 1\nw 1\n",                     # repeated name
    ])
    def test_impossible_headers_name_the_array(self, tmp_path, header):
        path = tmp_path / "bad.tckpt"
        path.write_bytes(header + np.zeros(2, dtype="<f8").tobytes())
        with pytest.raises(ParseError, match=r"\bw\b"):
            T.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_name_the_array(self, tmp_path, value):
        path = tmp_path / "nan.tckpt"
        T.save_checkpoint(path, {"ok": np.ones(2), "w": np.array([1.0, value, 2.0])})
        with pytest.raises(ParseError, match="array w "):
            T.load_checkpoint(path)


# header fields: plain counts plus values that overflow, wrap int64 or are
# not ASCII digits at all
_FIELDS = st.one_of(st.integers(-1, 4).map(str),
                    st.sampled_from(["x", "4294967296", "99999999999", "1_0", "\u0663"]))


@st.composite
def checkpoint_bytes(draw):
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    lines = [f"tckpt {draw(st.sampled_from(['1', '1', '2', 'x']))} {draw(_FIELDS)}"]
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(["w", "b", "w", "\u00e9"]))
        lines.append(" ".join([name] + draw(st.lists(_FIELDS, max_size=3))))
    payload = np.array(draw(st.lists(st.floats(), max_size=8)), dtype="<f8").tobytes()
    return ("\n".join(lines) + "\n").encode("utf-8") + payload + draw(st.binary(max_size=9))


@given(checkpoint_bytes())
def test_any_bytes_load_or_raise_a_reported_failure(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.tckpt"
    path.write_bytes(data)
    try:
        arrays = T.load_checkpoint(path)
    except _FAILURES:
        return
    assert all(np.isfinite(a).all() for a in arrays.values())


@given(st.data())
def test_any_mutation_of_a_checkpoint_loads_or_raises_a_reported_failure(tmp_path_factory,
                                                                        data):
    path = tmp_path_factory.getbasetemp() / "mutated.tckpt"
    rng = np.random.default_rng(3)
    T.save_checkpoint(path, {"w": rng.normal(size=(2, 3)), "b": rng.normal(size=3),
                             "s": np.array(0.5)})
    path.write_bytes(data.draw(mutations(path.read_bytes())))
    try:
        arrays = T.load_checkpoint(path)
    except _FAILURES:
        return
    assert all(np.isfinite(a).all() for a in arrays.values())
