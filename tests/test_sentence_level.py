import numpy as np
import pytest

from discrel import tensor as T
from discrel.errors import ConfigError, ShapeError
from discrel.recurrent import BiGRU
from discrel.sentence_level import ConvBlock, EncoderStack, RecurrentBlock, argument_stacks
from extra_ops import sum_all
from gradcheck import assert_grads_match


def run_stack(stack, x, **kwargs):
    """One stack's layer outputs over one input."""
    (layers,) = EncoderStack.forward([stack], [x], **kwargs)
    return layers


def zero_weights(stack):
    for p in stack.parameters():
        p.data[...] = 0.0


class TestConvBlock:
    def test_gating_closed_form_kernel_one(self):
        # With kernel size 1 the convolution is a plain affine map, so the
        # block output can be written down directly.
        rng = np.random.default_rng(0)
        block = ConvBlock(3, 1, rng, residual=False)
        x = rng.normal(size=(5, 3))
        with T.no_grad():
            (got,) = ConvBlock.forward([block], [T.constant(x)])
            got = got.numpy()
        pre = x @ block.kernel.numpy()[0] + block.bias.numpy()
        want = pre[:, :3] / (1.0 + np.exp(-pre[:, 3:]))
        assert np.allclose(got, want, atol=1e-12)

    def test_residual_adds_input(self):
        rng = np.random.default_rng(1)
        plain = ConvBlock(4, 3, rng, residual=False)
        res = ConvBlock(4, 3, np.random.default_rng(1), residual=True)
        x = np.random.default_rng(2).normal(size=(6, 4))
        with T.no_grad():
            a = ConvBlock.forward([plain], [T.constant(x)])[0].numpy()
            b = ConvBlock.forward([res], [T.constant(x)])[0].numpy()
        assert np.allclose(b, a + x, atol=1e-12)

    def test_interior_translation_equivariance(self):
        # Zero padding only disturbs positions whose window touches an edge;
        # shifting a compactly supported signal shifts the interior response.
        rng = np.random.default_rng(3)
        block = ConvBlock(3, 3, rng, residual=False)
        sig = rng.normal(size=(5, 3))
        x = np.zeros((12, 3))
        x[2:7] = sig
        shifted = np.zeros((12, 3))
        shifted[3:8] = sig
        with T.no_grad():
            y0, y1 = (y.numpy() for y in ConvBlock.forward(
                [block, block], [T.constant(x), T.constant(shifted)]))
        assert np.allclose(y1[2:10], y0[1:9], atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            ConvBlock(4, 2, np.random.default_rng(0))


class TestRecurrentBlock:
    def test_projection_halves_recurrent_width(self):
        rng = np.random.default_rng(4)
        block = RecurrentBlock(3, rng, residual=False)
        x = rng.normal(size=(6, 3))
        with T.no_grad():
            (got,) = RecurrentBlock.forward([block], [T.constant(x)])
            (h,) = BiGRU.forward([block.bigru], [T.constant(x)])
            got, h = got.numpy(), h.numpy()
        want = h @ block.proj_w.numpy() + block.proj_b.numpy()
        assert h.shape == (6, 6)
        assert got.shape == (6, 3)
        assert np.allclose(got, want, atol=1e-12)

    def test_residual_adds_input(self):
        rng = np.random.default_rng(5)
        block = RecurrentBlock(3, rng, residual=True)
        x = np.random.default_rng(6).normal(size=(4, 3))
        with T.no_grad():
            out = RecurrentBlock.forward([block], [T.constant(x)])[0].numpy()
            block.residual = False
            body = RecurrentBlock.forward([block], [T.constant(x)])[0].numpy()
        assert np.allclose(out, body + x, atol=1e-12)


class TestEncoderStack:
    @pytest.mark.parametrize("block_type", ["conv", "recurrent"])
    def test_layer_outputs_shape_and_count(self, block_type):
        rng = np.random.default_rng(7)
        stack = EncoderStack(5, 4, rng, block_type=block_type, kernel_size=3)
        x = rng.normal(size=(9, 5))
        with T.no_grad():
            outs = run_stack(stack, T.constant(x))
        assert len(outs) == 4
        assert all(o.shape == (9, 5) for o in outs)

    @pytest.mark.parametrize("block_type", ["conv", "recurrent"])
    def test_zero_weights_residual_stack_is_identity(self, block_type):
        # Bit-exact: a zeroed gate or zeroed projection contributes exactly 0,
        # leaving only the residual path, at any depth.
        rng = np.random.default_rng(8)
        stack = EncoderStack(6, 5, rng, block_type=block_type, kernel_size=5)
        zero_weights(stack)
        x = np.random.default_rng(9).normal(size=(8, 6))
        with T.no_grad():
            outs = run_stack(stack, T.constant(x))
        for out in outs:
            assert np.array_equal(out.numpy(), x)

    def test_layers_chain(self):
        rng = np.random.default_rng(10)
        stack = EncoderStack(4, 3, rng, block_type="conv", kernel_size=3)
        x = rng.normal(size=(7, 4))
        with T.no_grad():
            outs = run_stack(stack, T.constant(x))
            h = T.constant(x)
            for block, out in zip(stack.blocks, outs):
                (h,) = ConvBlock.forward([block], [h])
                assert np.array_equal(h.numpy(), out.numpy())

    def test_dropout_applies_before_every_block(self):
        # Zeroed residual blocks pass their (dropped) input straight through,
        # so the per-layer outputs expose each dropout application.
        rng = np.random.default_rng(11)
        stack = EncoderStack(4, 2, rng, block_type="conv", kernel_size=3)
        zero_weights(stack)
        x = np.random.default_rng(12).normal(size=(6, 4))
        outs = run_stack(stack, T.constant(x), dropout_rate=0.5,
                             rng=np.random.default_rng(99))
        replay = np.random.default_rng(99)
        d1 = T.dropout(T.constant(x), 0.5, replay)
        d2 = T.dropout(d1, 0.5, replay)
        assert np.array_equal(outs[0].numpy(), d1.numpy())
        assert np.array_equal(outs[1].numpy(), d2.numpy())
        T.active_tape().clear()

    @pytest.mark.parametrize("block_type", ["conv", "recurrent"])
    def test_two_stacks_draw_masks_in_the_order_their_blocks_run(self, block_type):
        # Zeroed residual blocks pass their dropped input through, so each
        # (stack, layer) output exposes its mask: the stacks advance one
        # layer of both at a time.
        rng = np.random.default_rng(17)
        stacks = [EncoderStack(4, 2, rng, block_type=block_type, kernel_size=3)
                  for _ in range(2)]
        for stack in stacks:
            zero_weights(stack)
        xs = [T.constant(rng.normal(size=(6, 4))) for _ in range(2)]
        outs = EncoderStack.forward(stacks, xs, dropout_rate=0.5,
                                    rng=np.random.default_rng(99))
        replay = np.random.default_rng(99)
        h = list(xs)
        for stack, layer in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            h[stack] = T.dropout(h[stack], 0.5, replay)
            assert np.array_equal(outs[stack][layer].numpy(), h[stack].numpy())

    def test_eval_mode_is_deterministic_and_dropout_free(self):
        rng = np.random.default_rng(13)
        stack = EncoderStack(4, 2, rng, block_type="recurrent")
        x = rng.normal(size=(5, 4))
        with T.no_grad():
            a = run_stack(stack, T.constant(x), dropout_rate=0.4)
            b = run_stack(stack, T.constant(x), dropout_rate=0.4)
            clean = run_stack(stack, T.constant(x))
        assert np.array_equal(a[-1].numpy(), b[-1].numpy())
        assert np.array_equal(a[-1].numpy(), clean[-1].numpy())

    @pytest.mark.parametrize("block_type", ["conv", "recurrent"])
    def test_gradients_through_stack(self, block_type):
        rng = np.random.default_rng(14)
        stack = EncoderStack(4, 2, rng, block_type=block_type, kernel_size=3)
        x = T.Tensor(rng.normal(size=(5, 4)), requires_grad=True)

        def loss():
            outs = run_stack(stack, x)
            return sum_all(T.concat(outs, axis=0))

        assert_grads_match(loss, [x] + stack.parameters(),
                           entries_per_array=6, seed=0, tol=1e-6)

    def test_bad_configuration_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            EncoderStack(4, 0, rng)
        with pytest.raises(ConfigError):
            EncoderStack(4, 2, rng, block_type="transformer")
        stack = EncoderStack(4, 1, rng)
        with pytest.raises(ShapeError):
            run_stack(stack, T.constant(np.zeros((3, 5))))


class TestArgumentStacks:
    def test_separate_by_default(self):
        rng = np.random.default_rng(15)
        s1, s2 = argument_stacks(4, 2, rng, kernel_size=3)
        assert s1 is not s2
        p1 = {id(p) for p in s1.parameters()}
        p2 = {id(p) for p in s2.parameters()}
        assert not p1 & p2
        assert not np.array_equal(s1.blocks[0].kernel.numpy(), s2.blocks[0].kernel.numpy())

    def test_shared_mode_returns_same_stack(self):
        rng = np.random.default_rng(16)
        s1, s2 = argument_stacks(4, 2, rng, kernel_size=3, shared=True)
        assert s1 is s2
