import numpy as np
import pytest

from discrel import tensor as T
from discrel.errors import ConfigError, ShapeError, WindowError
from discrel.pair_level import (
    BiAttention,
    attention_map,
    bi_attend,
    build_pair_representation,
    pool_layer,
)
from block_oracles import composed_bi_attend, each_once, full_length, per_instance_pair_rows
from claims import BITWISE, CLOSE, assert_agree
from extra_ops import sum_all
from gradcheck import assert_grads_match


def softmax_rows_np(m):
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def oracle_attend(v1, v2, w, b):
    """Dense numpy restatement of the attention arithmetic."""
    m = (v1 @ w + b) @ v2.T
    w2 = softmax_rows_np(m) @ v2
    w1 = softmax_rows_np(m.T) @ v1
    return w1, w2


def make_attention(width, seed=0, identity=False):
    att = BiAttention(width, np.random.default_rng(seed))
    if identity:
        att.ffn_w.data[...] = np.eye(width)
        att.ffn_b.data[...] = 0.0
    return att


class TestBiAttend:
    def test_single_position_passes_through(self):
        rng = np.random.default_rng(0)
        att = make_attention(3, seed=1)
        v1 = T.constant(rng.normal(size=(1, 3)))
        v2 = T.constant(rng.normal(size=(1, 3)))
        with T.no_grad():
            w1, w2 = bi_attend(v1, v2, att, 1, *each_once(1, v1, v2))
        assert np.array_equal(w1.numpy(), v1.numpy())
        assert np.array_equal(w2.numpy(), v2.numpy())

    def test_constant_rows_are_a_fixed_point(self):
        rng = np.random.default_rng(1)
        att = make_attention(4, seed=2)
        c = rng.normal(size=4)
        v1 = T.constant(rng.normal(size=(5, 4)))
        v2 = T.constant(np.tile(c, (5, 1)))
        with T.no_grad():
            _, w2 = bi_attend(v1, v2, att, 1, *each_once(1, v1, v2))
        assert np.allclose(w2.numpy(), np.tile(c, (5, 1)), atol=1e-12)

    def test_matches_dense_oracle_identity_ffn(self):
        rng = np.random.default_rng(2)
        att = make_attention(3, identity=True)
        v1 = rng.normal(size=(4, 3))
        v2 = rng.normal(size=(4, 3))
        with T.no_grad():
            w1, w2 = bi_attend(T.constant(v1), T.constant(v2), att, 1, *each_once(1, v1, v2))
        want1, want2 = oracle_attend(v1, v2, np.eye(3), np.zeros(3))
        assert np.allclose(w1.numpy(), want1, atol=1e-12)
        assert np.allclose(w2.numpy(), want2, atol=1e-12)

    def test_matches_dense_oracle_general_ffn(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            d = int(rng.integers(2, 5))
            att = make_attention(d, seed=100 + trial)
            att.ffn_b.data[...] = rng.normal(size=d)
            v1 = rng.normal(size=(n, d))
            v2 = rng.normal(size=(n, d))
            with T.no_grad():
                w1, w2 = bi_attend(T.constant(v1), T.constant(v2), att, 1,
                                   *each_once(1, v1, v2))
            want1, want2 = oracle_attend(v1, v2, att.ffn_w.numpy(), att.ffn_b.numpy())
            assert np.allclose(w1.numpy(), want1, atol=1e-12)
            assert np.allclose(w2.numpy(), want2, atol=1e-12)

    def test_attention_rows_on_simplex(self):
        rng = np.random.default_rng(4)
        att = make_attention(3, seed=5)
        for _ in range(10):
            v1 = rng.normal(scale=3.0, size=(6, 3))
            v2 = rng.normal(scale=3.0, size=(6, 3))
            probs = attention_map(T.constant(v1), T.constant(v2), att, *each_once(1, v1, v2))
            assert np.all(probs >= 0.0)
            assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_the_exported_map_is_the_row_softmax_the_op_mixes_with(self, n):
        # With v2 the identity, the op's second output p2 v2 is its row
        # softmax p2 itself, bitwise: every product is by 1 or 0.
        rng = np.random.default_rng(n)
        att = make_attention(n, seed=n + 1)
        v1 = T.constant(rng.normal(scale=2.0, size=(n, n)))
        v2 = T.constant(np.eye(n))
        _, mixed = T.bi_attention(v1, v2, att.ffn_w, att.ffn_b, 1, *each_once(1, v1, v2))
        exported = attention_map(v1, v2, att, *each_once(1, v1, v2))
        assert exported.tobytes() == mixed.numpy().tobytes()
        assert np.max(np.abs(exported - softmax_rows_np(
            (v1.numpy() @ att.ffn_w.numpy() + att.ffn_b.numpy()) @ v2.numpy().T))) < 1e-12

    @pytest.mark.parametrize("graded", ["both", "first", "second"])
    def test_matches_the_composition(self, graded):
        # Outputs are bitwise those of the composed ops; gradients agree to
        # rounding, with one output left without a gradient in two cases.
        rng = np.random.default_rng(7)
        n, d = 9, 4
        data1, data2 = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        w_data, b_data = rng.normal(size=(d, d)), rng.normal(size=d)
        g1, g2 = rng.normal(size=(n, d)), rng.normal(size=(n, d))

        def run(attend):
            v1 = T.Tensor(data1.copy(), requires_grad=True)
            v2 = T.Tensor(data2.copy(), requires_grad=True)
            w, b = T.Parameter(w_data.copy()), T.Parameter(b_data.copy())
            w1, w2 = attend(v1, v2, w, b)
            terms = []
            if graded != "second":
                terms.append(sum_all(T.mul(w1, T.constant(g1))))
            if graded != "first":
                terms.append(sum_all(T.mul(w2, T.constant(g2))))
            T.backward(terms[0] if len(terms) == 1 else terms[0] + terms[1])
            return (w1.numpy(), w2.numpy()), (v1.grad, v2.grad, w.grad, b.grad)

        outs, grads = run(lambda *args: T.bi_attention(*args, 1, *each_once(1, *args[:2])))
        want_outs, want_grads = run(composed_bi_attend)
        for got, want in zip(outs, want_outs):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(grads, want_grads):
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_records_one_tape_node(self):
        att = make_attention(3)
        v1 = T.Tensor(np.zeros((4, 3)), requires_grad=True)
        bi_attend(v1, T.constant(np.ones((4, 3))), att, 1, *each_once(1, v1, v1))
        assert len(T.active_tape()) == 1
        T.active_tape().clear()

    def test_length_mismatch_rejected(self):
        att = make_attention(3)
        ones = np.ones(4, dtype=int)
        with pytest.raises(ShapeError):
            bi_attend(T.constant(np.zeros((4, 2))), T.constant(np.zeros((4, 2))), att, 1,
                      ones, ones)
        with pytest.raises(ShapeError):
            bi_attend(T.constant(np.zeros((4, 3))), T.constant(np.zeros((4, 2))), att, 1,
                      ones, ones)
        with pytest.raises(ShapeError):
            bi_attend(T.constant(np.zeros((7, 3))), T.constant(np.zeros((7, 3))), att, 2,
                      ones[:3], ones[:3])
        with pytest.raises(ShapeError):
            bi_attend(T.constant(np.zeros((4, 3))), T.constant(np.zeros((5, 3))), att, 2,
                      ones[:2], ones[:2])
        with pytest.raises(ShapeError):  # a count per row, each at least 1
            bi_attend(T.constant(np.zeros((4, 3))), T.constant(np.zeros((4, 3))), att, 1,
                      [1, 1, 1], [1, 1, 1, 1])
        with pytest.raises(ShapeError):
            bi_attend(T.constant(np.zeros((4, 3))), T.constant(np.zeros((4, 3))), att, 1,
                      [1, 0, 1, 1], [1, 1, 1, 1])
        # unequal row counts are two arguments of different lengths: each
        # mixture has a row per row of the other argument
        with T.no_grad():
            w1, w2 = bi_attend(T.constant(np.zeros((4, 3))), T.constant(np.zeros((10, 3))),
                               att, 2, ones[:2], np.ones(5, dtype=int))
        assert (w1.shape, w2.shape) == ((10, 3), (4, 3))


class TestPoolLayer:
    def test_slice_length_is_four_widths(self):
        rng = np.random.default_rng(0)
        w1, w2 = T.constant(rng.normal(size=(6, 5))), T.constant(rng.normal(size=(6, 5)))
        out = pool_layer(w1, w2, 1, *each_once(1, w1, w2))
        assert out.shape == (1, 20)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(1)
        w1 = rng.normal(size=(7, 4))
        w2 = rng.normal(size=(7, 4))
        with T.no_grad():
            got = pool_layer(T.constant(w1), T.constant(w2), 1, *each_once(1, w1, w2)).numpy()[0]
        want = []
        for arr in (w1, w2):
            for col in arr.T:
                want.extend(np.sort(col)[::-1][:2])
        assert np.allclose(got, np.array(want), atol=1e-15)

    def test_constant_rows_pool_to_repeats(self):
        rng = np.random.default_rng(2)
        c = rng.normal(size=3)
        w1 = np.tile(c, (5, 1))
        with T.no_grad():
            w2 = rng.normal(size=(5, 3))
            got = pool_layer(T.constant(w1), T.constant(w2), 1, *each_once(1, w1, w2)).numpy()[0]
        assert np.array_equal(got[:6], np.repeat(c, 2))

    def test_single_position_rejected(self):
        with pytest.raises(WindowError):
            pool_layer(T.constant(np.zeros((1, 3))), T.constant(np.zeros((1, 3))), 1,
                       [1], [1])


class TestPairRepresentation:
    def layers(self, rng, l, n=5, d=3):
        a = [T.constant(rng.normal(size=(n, d))) for _ in range(l)]
        b = [T.constant(rng.normal(size=(n, d))) for _ in range(l)]
        return a, b

    def test_length_is_layers_times_four_widths(self):
        rng = np.random.default_rng(0)
        att = make_attention(3, seed=1)
        a, b = self.layers(rng, 4)
        with T.no_grad():
            o = build_pair_representation(a, b, att, 1, each_once(1, *a), each_once(1, *b))
        assert o.shape == (1, 4 * 4 * 3)

    def test_single_layer_equals_its_slice(self):
        rng = np.random.default_rng(1)
        att = make_attention(3, seed=2)
        a, b = self.layers(rng, 1)
        with T.no_grad():
            counts = each_once(1, a[0], b[0])
            o = build_pair_representation(a, b, att, 1, *([c] for c in counts)).numpy()
            w1, w2 = bi_attend(a[0], b[0], att, 1, *counts)
            direct = pool_layer(w1, w2, 1, *counts).numpy()
        assert np.array_equal(o, direct)

    def test_layer_slices_are_independent(self):
        rng = np.random.default_rng(2)
        att = make_attention(3, seed=3)
        att.ffn_b.data[...] = 0.0
        a, b = self.layers(rng, 3)
        with T.no_grad():
            base = build_pair_representation(a, b, att, 1, each_once(1, *a),
                                             each_once(1, *b)).numpy()[0]
            a2 = list(a)
            b2 = list(b)
            a2[1] = T.constant(np.zeros((5, 3)))
            b2[1] = T.constant(np.zeros((5, 3)))
            edited = build_pair_representation(a2, b2, att, 1, each_once(1, *a),
                                               each_once(1, *b)).numpy()[0]
        step = 4 * 3
        assert np.array_equal(base[:step], edited[:step])
        assert np.array_equal(base[2 * step:], edited[2 * step:])
        # Uniform attention over zero rows mixes zeros: the slice vanishes.
        assert np.array_equal(edited[step:2 * step], np.zeros(step))
        assert not np.array_equal(base[step:2 * step], np.zeros(step))

    def test_joint_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        att = make_attention(4, seed=4)
        att.ffn_b.data[...] = rng.normal(size=4)
        for _ in range(5):
            a, b = self.layers(rng, 2, n=6, d=4)
            perm = rng.permutation(6)
            pa = [T.constant(x.numpy()[perm]) for x in a]
            pb = [T.constant(x.numpy()[perm]) for x in b]
            with T.no_grad():
                counts = each_once(1, *a), each_once(1, *b)
                base = build_pair_representation(a, b, att, 1, *counts).numpy()
                permuted = build_pair_representation(pa, pb, att, 1, *counts).numpy()
            assert np.max(np.abs(base - permuted)) <= 1e-12

    def test_layer_count_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        att = make_attention(3)
        a, b = self.layers(rng, 2)
        counts = each_once(1, *a), each_once(1, *b)
        with pytest.raises(ConfigError):
            build_pair_representation(a, b[:1], att, 1, *counts)
        with pytest.raises(ConfigError):
            build_pair_representation([], [], att, 1, *counts)

    def test_gradients_through_attention_and_pool(self):
        rng = np.random.default_rng(5)
        att = make_attention(3, seed=6)
        v1 = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v2 = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def loss():
            o = build_pair_representation([v1], [v2], att, 1, each_once(1, v1), each_once(1, v2))
            return sum_all(o * o)

        assert_grads_match(loss, [v1, v2] + att.parameters(), tol=1e-4)

    def test_shared_parameters_receive_all_layers_gradient(self):
        rng = np.random.default_rng(6)
        att = make_attention(3, seed=7)
        a, b = self.layers(rng, 3)

        def loss(layers):
            return sum_all(build_pair_representation(*layers, att, 1, each_once(1, *layers[0]),
                                                     each_once(1, *layers[1])))

        loss((a[:1], b[:1]))  # warm the tape then discard
        T.active_tape().clear()

        l1 = loss((a[:1], b[:1]))
        T.backward(l1)
        g1 = att.ffn_w.grad.copy()
        att.ffn_w.grad = None
        att.ffn_b.grad = None

        l3 = loss((a, b))
        T.backward(l3)
        g3 = att.ffn_w.grad.copy()
        att.ffn_w.grad = None
        att.ffn_b.grad = None
        # The single shared map accumulates contributions from every layer;
        # with extra layers the gradient must change.
        assert not np.allclose(g1, g3)


class TestOverTheBatch:
    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("attend", [True, False])
    def test_equals_the_per_instance_composition(self, batch, attend):
        # Outputs and the layers' gradients are bitwise the oracle's; the
        # shared attention weights sum over (layer, instance) rather than
        # (instance, layer), so agree to rounding.
        rng = np.random.default_rng(batch)
        att = make_attention(4, seed=9) if attend else None
        if attend:
            att.ffn_b.data[...] = rng.normal(size=4)
        data = [[rng.normal(size=(batch * 5, 4)) for _ in range(3)] for _ in range(2)]
        weights = T.constant(rng.normal(size=(batch, 3 * 4 * 4)))

        def run(pair_rows):
            layers = [[T.Tensor(x.copy(), requires_grad=True) for x in side] for side in data]
            out = pair_rows(layers[0], layers[1], att, batch)
            T.backward(sum_all(T.mul(out, weights)))
            shared = [] if att is None else att.parameters()
            grads = [p.grad for p in shared]
            for p in shared:
                p.grad = None
            return out.numpy(), [v.grad for side in layers for v in side], grads

        counts = each_once(batch, *data[0]), each_once(batch, *data[1])
        got, got_layers, got_shared = run(
            lambda *args: build_pair_representation(*args, *counts))
        want, want_layers, want_shared = run(per_instance_pair_rows)
        assert got.shape == (batch, 3 * 4 * 4)
        assert got.tobytes() == want.tobytes()
        for g, w in zip(got_layers, want_layers):
            assert g.tobytes() == w.tobytes()
        for g, w in zip(got_shared, want_shared):
            assert np.max(np.abs(g - w)) <= 1e-10

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("attend", [True, False])
    def test_counted_rows_equal_the_repeated_rows(self, batch, attend):
        # Two layers per argument, each with its own rows and counts, one
        # row of each standing for several: 8 full-length rows for the
        # first argument and 10 for the second.  Unattended, pooling
        # selects the same values, bitwise, even among ties (integer rows
        # plant them).  Attended, the softmaxes run over fewer rows and
        # agree within 1e-10; the rows are drawn untied there, since equal
        # mixtures of different rows would tie up to rounding, and rounding
        # would pick the row pooled.
        rng = np.random.default_rng(batch)
        att = make_attention(3, seed=9) if attend else None
        counts = ([np.array([1, 1, 5, 1]), np.array([1, 1, 1, 3, 1, 1])],
                  [np.array([2, 1, 1, 1, 4, 1]), np.array([1, 1, 7, 1])])
        data = [[rng.normal(size=(batch * len(c), 3)) if attend else
                 rng.integers(-2, 3, (batch * len(c), 3)).astype(float) for c in side]
                for side in counts]
        weights = T.constant(rng.normal(size=(batch, 2 * 4 * 3)))

        def run(repeat):
            layers = [[T.Tensor(x.copy(), requires_grad=True) for x in side] for side in data]
            if repeat:
                full = [full_length(side, c, batch) for side, c in zip(layers, counts)]
                out = build_pair_representation(*full, att, batch, each_once(batch, *full[0]),
                                                each_once(batch, *full[1]))
            else:
                out = build_pair_representation(*layers, att, batch, *counts)
            T.backward(sum_all(T.mul(out, weights)))
            shared = [] if att is None else att.parameters()
            grads = [p.grad for p in shared]
            for p in shared:
                p.grad = None
            return [out.numpy()] + [v.grad for side in layers for v in side] + grads

        for got, want in zip(run(False), run(True)):
            assert_agree(got, want, CLOSE if attend else BITWISE)

    @pytest.mark.parametrize("attend", [True, False])
    def test_records_as_many_tape_nodes_for_any_batch(self, attend):
        # one attention node and one pool per argument and layer, whatever B
        rng = np.random.default_rng(0)
        att = make_attention(3) if attend else None
        counts = []
        for batch in (2, 5):
            layers = [[T.Tensor(rng.normal(size=(batch * 4, 3)), requires_grad=True)
                       for _ in range(3)] for _ in range(2)]
            build_pair_representation(*layers, att, batch, each_once(batch, *layers[0]),
                                      each_once(batch, *layers[1]))
            counts.append(len(T.active_tape()))
            T.active_tape().clear()
        assert counts[0] == counts[1]
