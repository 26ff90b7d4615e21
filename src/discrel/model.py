"""The assembled pair classifier.

The forward pass is batch-first.  Every argument is padded to a fixed
length and embedded token by token; a batch's B first arguments are stacked
into one (B*N, dim) matrix and run through their encoder stack in one pass,
and likewise the second arguments.  Each instance's rows are then
cross-attended layer by layer and 2-max pooled into its pair representation,
and two heads score all B pair vectors at once — one over relation classes
and one over implicit connectives.  The connective head exists purely as a
training-time auxiliary signal; prediction reads the relation head alone.

Dropout acts on the embeddings, each encoder block's input and the pair
vector, at rates fixed when the model is built; the forward methods draw
masks from an optional ``rng``, and a pass without an rng draws no masks.

Padding is computed once per distinct row, never trimmed.  Every ``<pad>``
row embeds to the same vector (a zero word vector, the pad subword
features, and zero contextual input to the row-wise mixer).  So in a
same-padded conv stack of depth L and kernel k, with h = (k-1)/2 and R the
longest real length among the instances fed to it, layer l holds one
repeated row over [R + l*h, N - l*h) of every instance.  When a pass draws
no embedding or encoder masks (inference, or training with both the
embedding and encoder rates at 0), the block type is conv and
N' = R + 2*L*h + 1 < N, each argument is embedded and encoded at N' rows,
and each layer output is expanded back to N rows by one row gather: row j
reads row j up to R + L*h, the repeated row R + L*h up to N - L*h, and row
j - (N - N') after that.  Each row it reads sees the same windows as its
full-length counterpart, so the outputs equal the full-length pass bitwise;
the gather's backward sums the repeated row's gradients, which agree with
the full-length pass up to rounding.  Recurrent blocks always run at N
rows: their state changes along the pad run.

Ablation toggles mirror the build-up used in experiments:

- ``bi_attention``   off: pool the encoder outputs directly, no attention
- ``res_block``      off: encoder blocks without their internal skip path
- ``res_pair``       off: only the deepest layer feeds the pair vector
- ``shared_stacks``  on: one set of encoder weights serves both arguments
- word/subword/contextual parts are chosen by what the token embedder holds
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .data import pad_truncate
from .errors import ConfigError
from .init import uniform_param, zeros_param
from .pair_level import BiAttention, attention_map, build_pair_representation
from .sentence_level import argument_stacks
from .tensor import Parameter, Tensor
from .word_level import TokenEmbedder, ToyContextualEmbedder

CONTEXTUAL_STATE_PREFIX = "toy."


class ClassifierHead:
    """Affine map to class scores; optionally one hidden layer first."""

    def __init__(self, d_in: int, n_out: int, rng: np.random.Generator,
                 hidden: int = 0, name: str = "head"):
        if n_out < 2:
            raise ConfigError(f"{name}: need at least 2 classes, got {n_out}")
        self.hidden = hidden
        if hidden > 0:
            self.w1 = uniform_param(rng, (d_in, hidden), f"{name}.w1")
            self.b1 = zeros_param((hidden,), f"{name}.b1")
            self.w2 = uniform_param(rng, (hidden, n_out), f"{name}.w2")
            self.b2 = zeros_param((n_out,), f"{name}.b2")
        else:
            self.w = uniform_param(rng, (d_in, n_out), f"{name}.w")
            self.b = zeros_param((n_out,), f"{name}.b")

    def parameters(self) -> list[Parameter]:
        if self.hidden > 0:
            return [self.w1, self.b1, self.w2, self.b2]
        return [self.w, self.b]

    def forward(self, x: Tensor) -> Tensor:
        if self.hidden > 0:
            h = T.relu(T.add_bias(x @ self.w1, self.b1))
            return T.add_bias(h @ self.w2, self.b2)
        return T.add_bias(x @ self.w, self.b)


class RelationModel:
    def __init__(self, embedder: TokenEmbedder, n_relations: int, connectives,
                 rng: np.random.Generator, depth: int = 4, block_type: str = "conv",
                 kernel_size: int = 5, bi_attention: bool = True,
                 res_block: bool = True, res_pair: bool = True,
                 shared_stacks: bool = False,
                 classifier_hidden: int = 0, max_tokens: int = 100,
                 embedding_dropout: float = 0.0, encoder_dropout: float = 0.0,
                 classifier_dropout: float = 0.0):
        connectives = list(connectives)
        if len(connectives) < 2:
            raise ConfigError("need at least 2 connectives for the auxiliary head")
        for what, rate in (("embedding", embedding_dropout), ("encoder", encoder_dropout),
                           ("classifier", classifier_dropout)):
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{what}_dropout must be in [0, 1), got {rate}")
        self.embedder = embedder
        self.depth = depth
        # how far past the last real row a conv stack's outputs keep changing
        self.pad_reach = depth * (kernel_size - 1) // 2 if block_type == "conv" else None
        self.res_pair = res_pair
        self.max_tokens = max_tokens
        self.embedding_dropout = embedding_dropout
        self.encoder_dropout = encoder_dropout
        self.classifier_dropout = classifier_dropout
        self.connectives = connectives
        self.connective_index = {c: i for i, c in enumerate(connectives)}

        width = embedder.dim
        self.stack1, self.stack2 = argument_stacks(
            width, depth, rng, block_type=block_type, kernel_size=kernel_size,
            residual=res_block, shared=shared_stacks)
        self.attention = BiAttention(width, rng) if bi_attention else None
        n_layers_pooled = depth if res_pair else 1
        self.pair_dim = 4 * n_layers_pooled * width
        self.relation_head = ClassifierHead(self.pair_dim, n_relations, rng,
                                            hidden=classifier_hidden, name="rel_head")
        self.connective_head = ClassifierHead(self.pair_dim, len(connectives), rng,
                                              hidden=classifier_hidden, name="conn_head")

    # -- parameters and state ------------------------------------------------

    def parameters(self) -> list[Parameter]:
        """Trainable parameters only; frozen components never appear here."""
        groups = [self.embedder.parameters(), self.stack1.parameters()]
        if self.stack2 is not self.stack1:
            groups.append(self.stack2.parameters())
        if self.attention is not None:
            groups.append(self.attention.parameters())
        groups.append(self.relation_head.parameters())
        groups.append(self.connective_head.parameters())
        seen = set()
        out = []
        for group in groups:
            for p in group:
                if id(p) not in seen:
                    seen.add(id(p))
                    out.append(p)
        return out

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Everything a checkpoint must hold to reproduce inference.

        Includes the frozen contextual embedder's weights (it has no other
        persistent home); the word-vector table is named by path in the run's
        ``config.ini`` instead of being copied around.
        """
        out = {p.name: p.data.copy() for p in self.parameters()}
        if isinstance(self.embedder.contextual, ToyContextualEmbedder):
            out.update(self.embedder.contextual.state_arrays())
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        T.load_parameters(self.parameters(), arrays, "checkpoint")
        if isinstance(self.embedder.contextual, ToyContextualEmbedder):
            self.embedder.contextual.load_state_arrays(
                {k: v for k, v in arrays.items() if k.startswith(CONTEXTUAL_STATE_PREFIX)})

    # -- forward -------------------------------------------------------------

    def _rows_per_instance(self, real: int, rng) -> int:
        """Rows each instance runs through the encoders: ``max_tokens``, or
        the shortened N' when ``real`` (the longest real length) allows it."""
        if self.pad_reach is None or (
                rng is not None and (self.embedding_dropout or self.encoder_dropout)):
            return self.max_tokens
        return min(self.max_tokens, real + 2 * self.pad_reach + 1)

    def _embed(self, arguments, rows: int, rng) -> Tensor:
        """One argument of every instance, padded to ``rows`` and stacked."""
        embedded = [self.embedder.embed_sentence(pad_truncate(tokens, rows),
                                                 min(len(tokens), self.max_tokens))
                    for tokens in arguments]
        stacked = embedded[0] if len(embedded) == 1 else T.concat(embedded, axis=0)
        return T.dropout(stacked, self.embedding_dropout, rng)

    def _expand(self, layers: list[Tensor], real: int, rows: int,
                batch: int) -> list[Tensor]:
        """Layer outputs of ``rows`` rows per instance back to ``max_tokens``."""
        n = self.max_tokens
        if rows == n:
            return layers
        edge = real + self.pad_reach
        j = np.arange(n)
        source = np.where(j <= edge, j,
                          np.where(j < n - self.pad_reach, edge, j - (n - rows)))
        index = (np.arange(batch)[:, None] * rows + source).ravel()
        return [T.gather_rows(v, index) for v in layers]

    def _layers(self, pairs, rng: np.random.Generator | None = None
                ) -> tuple[list[Tensor], list[Tensor]]:
        """The encoder layers that feed the pair vector (all of them, or the
        deepest when ``res_pair`` is off) for both arguments, each (B*N, width)."""
        batch = len(pairs)
        args1 = [arg1 for arg1, _ in pairs]
        args2 = [arg2 for _, arg2 in pairs]
        real1 = max(min(len(tokens), self.max_tokens) for tokens in args1)
        real2 = max(min(len(tokens), self.max_tokens) for tokens in args2)
        rows1 = self._rows_per_instance(real1, rng)
        rows2 = self._rows_per_instance(real2, rng)
        e1 = self._embed(args1, rows1, rng)
        e2 = self._embed(args2, rows2, rng)
        layers1 = self.stack1.forward(e1, batch, dropout_rate=self.encoder_dropout, rng=rng)
        layers2 = self.stack2.forward(e2, batch, dropout_rate=self.encoder_dropout, rng=rng)
        if not self.res_pair:
            layers1, layers2 = layers1[-1:], layers2[-1:]
        return (self._expand(layers1, real1, rows1, batch),
                self._expand(layers2, real2, rows2, batch))

    def _pair_rows(self, pairs, rng: np.random.Generator | None = None) -> Tensor:
        """(B, pair_dim) pair vectors for a list of (arg1 tokens, arg2 tokens)."""
        layers1, layers2 = self._layers(pairs, rng)
        n = self.max_tokens
        rows = []
        for i in range(len(pairs)):
            v1 = [T.slice_rows(v, i * n, (i + 1) * n) for v in layers1]
            v2 = [T.slice_rows(v, i * n, (i + 1) * n) for v in layers2]
            pair = build_pair_representation(v1, v2, self.attention)
            rows.append(T.reshape(pair, (1, self.pair_dim)))
        return rows[0] if len(rows) == 1 else T.concat(rows, axis=0)

    def batch_scores(self, pairs, rng: np.random.Generator | None = None
                     ) -> tuple[Tensor, Tensor]:
        """(relation logits, connective logits), each a (B, C) matrix with one
        row per (arg1 tokens, arg2 tokens) pair."""
        rows = T.dropout(self._pair_rows(pairs, rng), self.classifier_dropout, rng)
        return self.relation_head.forward(rows), self.connective_head.forward(rows)

    def scores(self, arg1_tokens, arg2_tokens) -> tuple[Tensor, Tensor]:
        """(relation logits, connective logits) of one instance without
        dropout, each a (1, C) row."""
        return self.batch_scores([(arg1_tokens, arg2_tokens)])

    def pair_representation(self, arg1_tokens, arg2_tokens) -> Tensor:
        """The flat pair vector of one instance without dropout, length
        ``pair_dim``."""
        return T.reshape(self._pair_rows([(arg1_tokens, arg2_tokens)]), (self.pair_dim,))

    def attention_maps(self, arg1_tokens, arg2_tokens) -> list[np.ndarray]:
        """Per layer, the softmaxed score matrix of argument 1 over argument 2."""
        if self.attention is None:
            raise ConfigError("model was built without bi-attention")
        with T.no_grad():
            layers1, layers2 = self._layers([(arg1_tokens, arg2_tokens)])
            return [attention_map(v1, v2, self.attention)
                    for v1, v2 in zip(layers1, layers2)]
