"""Stacked sentence encoders over a batch of one argument's token matrices.

Two interchangeable block designs, both width-preserving so they can be
stacked and wrapped in residual connections:

- convolutional: a same-padded convolution doubles the width, a gated linear
  unit halves it back (first half of the channels gated by the sigmoid of the
  second half);
- recurrent: a bidirectional gated recurrent layer doubles the width (one
  hidden state per direction), an affine projection halves it back.

Every block and stack takes B equal-length token matrices stacked by rows,
(B*N, width), and the batch count B; convolution windows and recurrent
scans stay inside each instance's rows.  A stack applies its blocks in
sequence and reports every intermediate layer, since downstream pairing
consumes all depths, not only the last.  Input dropout is applied in front
of every block; a pass without an rng draws no masks (inference), and
neither does a pass at rate 0.  With all weights zero, a residual block is
exactly the identity; stacks for the two arguments of a pair are built
either with their own weights or shared.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .init import uniform_param, zeros_param
from .recurrent import BiGRU
from .tensor import Parameter, Tensor


class ConvBlock:
    def __init__(self, width: int, kernel_size: int, rng: np.random.Generator,
                 residual: bool = True, name: str = "conv_block"):
        if kernel_size % 2 == 0 or kernel_size < 1:
            raise ShapeError(f"ConvBlock: kernel size must be odd and positive, got {kernel_size}")
        self.width = width
        self.residual = residual
        self.kernel = uniform_param(rng, (kernel_size, width, 2 * width), f"{name}.kernel")
        self.bias = zeros_param((2 * width,), f"{name}.bias")

    def parameters(self) -> list[Parameter]:
        return [self.kernel, self.bias]

    def forward(self, x: Tensor, batch: int = 1) -> Tensor:
        gated = T.glu(T.conv1d(x, self.kernel, self.bias, pad="same", batch=batch))
        return x + gated if self.residual else gated


class RecurrentBlock:
    def __init__(self, width: int, rng: np.random.Generator,
                 residual: bool = True, name: str = "rec_block"):
        self.width = width
        self.residual = residual
        self.bigru = BiGRU(width, width, rng, name=f"{name}.bigru")
        self.proj_w = uniform_param(rng, (2 * width, width), f"{name}.proj_w")
        self.proj_b = zeros_param((width,), f"{name}.proj_b")

    def parameters(self) -> list[Parameter]:
        return self.bigru.parameters() + [self.proj_w, self.proj_b]

    def forward(self, x: Tensor, batch: int = 1) -> Tensor:
        y = T.add_bias(self.bigru.forward(x, batch) @ self.proj_w, self.proj_b)
        return x + y if self.residual else y


BLOCK_TYPES = ("conv", "recurrent")


class EncoderStack:
    """A fixed-depth pile of width-preserving blocks with per-layer outputs."""

    def __init__(self, width: int, depth: int, rng: np.random.Generator,
                 block_type: str = "conv", kernel_size: int = 5,
                 residual: bool = True, name: str = "encoder"):
        if depth < 1:
            raise ConfigError(f"EncoderStack: depth must be at least 1, got {depth}")
        if block_type not in BLOCK_TYPES:
            raise ConfigError(f"EncoderStack: unknown block type {block_type!r}")
        self.width = width
        self.depth = depth
        self.block_type = block_type
        self.blocks = []
        for i in range(depth):
            block_name = f"{name}.layer{i}"
            if block_type == "conv":
                self.blocks.append(ConvBlock(width, kernel_size, rng, residual, block_name))
            else:
                self.blocks.append(RecurrentBlock(width, rng, residual, block_name))

    def parameters(self) -> list[Parameter]:
        return [p for block in self.blocks for p in block.parameters()]

    def forward(self, x: Tensor, batch: int = 1, *, dropout_rate: float = 0.0,
                rng: np.random.Generator | None = None) -> list[Tensor]:
        """All layer outputs, shallowest first; each is (B*N, width) for the
        ``batch`` = B instances stacked in ``x``.  Dropout masks are drawn
        from ``rng`` only when one is given."""
        if x.shape[1] != self.width:
            raise ShapeError(f"EncoderStack: input width {x.shape[1]} != {self.width}")
        outputs = []
        h = x
        for block in self.blocks:
            h = block.forward(T.dropout(h, dropout_rate, rng), batch)
            outputs.append(h)
        return outputs


def argument_stacks(width: int, depth: int, rng: np.random.Generator,
                    block_type: str = "conv", kernel_size: int = 5,
                    residual: bool = True, shared: bool = False,
                    name: str = "encoder") -> tuple[EncoderStack, EncoderStack]:
    """Encoder stacks for the two arguments of a pair.

    By default each argument gets its own weights; ``shared`` returns the
    same stack twice (the tying used for the sharing ablation).
    """
    first = EncoderStack(width, depth, rng, block_type, kernel_size, residual, f"{name}.arg1")
    if shared:
        return first, first
    second = EncoderStack(width, depth, rng, block_type, kernel_size, residual, f"{name}.arg2")
    return first, second
