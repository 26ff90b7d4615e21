"""Stacked sentence encoders over a batch of one argument's token matrices.

Two interchangeable block designs, both width-preserving so they can be
stacked and wrapped in residual connections:

- convolutional: a same-padded convolution doubles the width, a gated linear
  unit halves it back (first half of the channels gated by the sigmoid of the
  second half); the whole block, residual included, is one tape node,
  ``tensor.gated_conv``, which keeps for its backward one buffer holding the
  first half of the channels and the sigmoid of the second;
- recurrent: a bidirectional gated recurrent layer doubles the width (one
  hidden state per direction), an affine projection halves it back.

Every block and stack takes B equal-length token matrices stacked by rows,
(B*N, width), and the batch count B; convolution windows and recurrent
scans stay inside each instance's rows.  A stack applies its blocks in
sequence and reports every intermediate layer, since downstream pairing
consumes all depths, not only the last.  ``EncoderStack.forward`` runs
several stacks (a pair's two argument stacks) over their own inputs.  The
stacks advance together, one layer of all of them at a time, and a block
type's ``forward`` takes that layer's blocks and inputs, so the recurrent
layers of every stack at a depth are one scan.  Input dropout is applied
in front of every block, its masks drawn in the order the blocks run
(layer by layer, stack order within a layer); a pass without an rng draws
no masks (inference), and neither does a pass at rate 0.  Given the
instances' real lengths, a stack's masks tie each instance's pad rows to
one mask row (``tensor.dropout``'s ``lengths``), and each conv layer may
grow its input's rows by copies of one row (``tensor.gated_conv``'s
``grow``): the model uses both to run each layer of a padded conv stack at
its own distinct rows (see ``model``).  With all weights zero, a residual
block is exactly the identity; stacks for the two arguments of a pair are
built either with their own weights or shared.
"""

from __future__ import annotations

from typing import Sequence

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

    @staticmethod
    def forward(blocks: Sequence[ConvBlock], inputs: Sequence[Tensor], batch: int = 1,
                grows: Sequence[tuple[int, int]] | None = None) -> list[Tensor]:
        """``blocks[i]`` over ``inputs[i]`` grown by ``grows[i]`` (see
        ``tensor.gated_conv``; no growth without ``grows``), one after the
        other, each one tape node."""
        return [T.gated_conv(x, block.kernel, block.bias, batch, block.residual, grow)
                for block, x, grow in zip(blocks, inputs, grows or [(0, 0)] * len(blocks),
                                          strict=True)]


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

    @staticmethod
    def forward(blocks: Sequence[RecurrentBlock], inputs: Sequence[Tensor], batch: int = 1,
                grows: Sequence[tuple[int, int]] = ()) -> list[Tensor]:
        """``blocks[i]`` over ``inputs[i]``; the recurrences of all of them
        are one scan.  A recurrent block grows no rows: every copy in
        ``grows`` must be 0."""
        if any(copies for _, copies in grows):
            raise ShapeError(f"RecurrentBlock: cannot grow rows, got {list(grows)}")
        states = BiGRU.forward([block.bigru for block in blocks], inputs, batch)
        out = []
        for block, x, h in zip(blocks, inputs, states):
            y = T.add_bias(h @ block.proj_w, block.proj_b)
            out.append(x + y if block.residual else y)
        return out


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

    @staticmethod
    def forward(stacks: Sequence[EncoderStack], inputs: Sequence[Tensor], batch: int = 1, *,
                dropout_rate: float = 0.0,
                rng: np.random.Generator | None = None,
                lengths: Sequence[Sequence[int]] | None = None,
                grows: Sequence[Sequence[tuple[int, int]]] | None = None
                ) -> list[list[Tensor]]:
        """Per stack, all layer outputs of ``stacks[i]`` over ``inputs[i]``,
        shallowest first, for the ``batch`` = B instances stacked in each
        input.  The stacks share a block type and depth and advance one
        layer of all of them at a time, so that each depth's recurrences
        are one scan.  Dropout masks are drawn from ``rng`` only when one is
        given, in that order: layer by layer, stack order within a layer.
        ``lengths[i]``, when given, holds the instances' real lengths in
        ``inputs[i]``, and every mask of ``stacks[i]`` ties each instance's
        pad rows to one mask row (see ``tensor.dropout``).  ``grows[i][l]``
        is the (row, copies) that layer l's conv grows each instance's rows
        by (see ``tensor.gated_conv``); without ``grows``, every layer keeps
        the rows of its input."""
        for stack, x in zip(stacks, inputs, strict=True):
            if x.shape[1] != stack.width:
                raise ShapeError(f"EncoderStack: input width {x.shape[1]} != {stack.width}")
        lengths = lengths or [None] * len(stacks)
        grows = grows or [[(0, 0)] * stacks[0].depth] * len(stacks)
        outputs = [[] for _ in stacks]
        hs = list(inputs)
        for layer, blocks in enumerate(zip(*(stack.blocks for stack in stacks), strict=True)):
            hs = type(blocks[0]).forward(
                blocks, [T.dropout(h, dropout_rate, rng, real)
                         for h, real in zip(hs, lengths, strict=True)],
                batch, [grow[layer] for grow in grows])
            for layers, h in zip(outputs, hs):
                layers.append(h)
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
