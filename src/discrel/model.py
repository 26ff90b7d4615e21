"""The assembled pair classifier.

The forward pass is batch-first.  A batch's B first arguments are padded to
a common length N and embedded in one call into one (B*N, dim) matrix, and
likewise the second arguments.  The two argument stacks advance together,
one layer of both at a time, so each recurrent layer is one scan of all four
recurrences (both arguments, both directions).  The pair level takes the
batch too: per layer, one bi-attention op cross-attends each instance's two
arguments (never rows of two instances) and one 2-max pool per argument
reduces every instance's rows, giving the (B, pair_dim) pair vectors.  Two
heads score all B of them at once — one over relation classes and one over
implicit connectives.  The connective head exists purely as a training-time
auxiliary signal; prediction reads the relation head alone.

On a training step's tape, each conv block, each layer's attention and the
recurrences of each recurrent layer are one node apiece for the whole
batch, keeping only what their backward reads, and ``tensor.backward``
frees every node once it has passed it: the forward activations, not the
weights, set a step's memory.

Dropout acts on the embeddings, each encoder block's input and the pair
vector, at rates fixed when the model is built; the forward methods draw
masks from an optional ``rng``, and a pass without an rng draws no masks.
Masks are drawn in the order the pass runs: the first arguments'
embeddings, the second arguments', the encoder inputs (layer by layer,
argument 1 before argument 2 within a layer), then the pair vectors.  Each
embedding and encoder mask is one draw at the rows its input has, and row
j of instance b reads mask row min(j, r_b) of that instance, r_b its real
length (``tensor.dropout``'s ``lengths``).  Real tokens read their own mask
rows, and all pad rows of an instance share the mask row of its first pad
row (one mask tied across positions, as in Gal & Ghahramani,
arXiv:1512.05287); a batch without padding reads every mask row once.

Padding is computed once per distinct row, never trimmed.  Every ``<pad>``
row embeds to the same vector (a zero word vector, the pad subword
features, and zero contextual input to the row-wise mixer), and all pad
rows of an instance share their dropout masks.  So with R the longest real
length among the instances fed to a stack, the embedding holds one
repeated row over [R, N), and a same-padded conv layer l of kernel k,
h = (k-1)/2, holds one over [R + l*h, N - l*h), in training as in
inference.  A conv stack therefore embeds R + 1 rows, and each layer grows
its input by 2h rows, up to N: it inserts 2h copies of the pad run's row
R + (l-1)*h right after it (``tensor.gated_conv``'s ``grow``), which is
the input its windows read in full-length coordinates with the run
shortened, and its output holds rows up to R + l*h, then the l*h tail
rows.  Row R + l*h stands for layer l's whole pad run, so the pair level
takes each layer at its own rows with one count vector per argument and
layer: 1 for each row, and N - rows + 1 for that one, at the same index in
every instance.  Bi-attention weighs a row's softmax score by its count
and 2-max pooling may choose it up to its count times, which gives what
the full-length pass gives up to rounding.  Recurrent blocks always run
at N rows, with all-ones counts: their state changes along the pad run.

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
from .errors import ConfigError
from .init import uniform_param, zeros_param
from .pair_level import BiAttention, attention_map, build_pair_representation
from .sentence_level import EncoderStack, argument_stacks
from .tensor import Parameter, Tensor
from .word_level import TokenEmbedder


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
        self.block_type = block_type
        self.kernel_size = kernel_size
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
        return [p for group in groups for p in group]

    def state_arrays(self) -> dict[str, np.ndarray]:
        """A copy of every trainable weight, by name.  The frozen parts are
        not here: the word vectors are named by path in a run's
        ``config.ini``, and ``pipeline.write_run`` saves the language model."""
        return {p.name: p.data.copy() for p in self.parameters()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        T.load_parameters(self.parameters(), arrays, "checkpoint")

    # -- forward -------------------------------------------------------------

    def _schedule(self, arguments):
        """The rows one argument of every instance runs at: (rows, grows,
        counts).  It is embedded at ``rows`` rows, and per encoder layer,
        ``grows`` holds the (row, copies) it grows each instance by and
        ``counts`` how many full-length rows each of its output rows stands
        for.  A conv stack with h = (k-1)/2 embeds R + 1 rows, R the longest
        real length, and layer l inserts 2h copies of its input's row
        R + (l-1)*h, up to ``max_tokens`` rows; its row R + l*h then stands
        for the pad run [R + l*h, N - l*h).  A recurrent stack runs all N
        rows."""
        n, h = self.max_tokens, (self.kernel_size - 1) // 2
        real = max(min(len(tokens), n) for tokens in arguments)
        rows = embedded = min(n, real + 1) if self.block_type == "conv" else n
        grows, counts = [], []
        for layer in range(1, self.depth + 1):
            copies = min(2 * h, n - rows)
            grows.append((real + (layer - 1) * h, copies))
            rows += copies
            counts.append(np.ones(rows, dtype=np.intp))
            if rows < n:
                counts[-1][real + layer * h] += n - rows
        return embedded, grows, counts

    def _layers(self, pairs, rng: np.random.Generator | None = None):
        """The encoder layers that feed the pair vector (all of them, or the
        deepest when ``res_pair`` is off) for both arguments, each
        (B*rows, width), and each argument's counts, one vector per layer
        (see ``_schedule``): (layers1, layers2, counts1, counts2)."""
        batch = len(pairs)
        args1 = [arg1 for arg1, _ in pairs]
        args2 = [arg2 for _, arg2 in pairs]
        lengths1 = [len(tokens) for tokens in args1]
        lengths2 = [len(tokens) for tokens in args2]
        rows1, grows1, counts1 = self._schedule(args1)
        rows2, grows2, counts2 = self._schedule(args2)
        e1 = T.dropout(self.embedder.embed(args1, rows1), self.embedding_dropout, rng, lengths1)
        e2 = T.dropout(self.embedder.embed(args2, rows2), self.embedding_dropout, rng, lengths2)
        layers1, layers2 = EncoderStack.forward(
            (self.stack1, self.stack2), (e1, e2), batch, dropout_rate=self.encoder_dropout,
            rng=rng, lengths=(lengths1, lengths2), grows=(grows1, grows2))
        pooled = slice(0 if self.res_pair else -1, None)
        return layers1[pooled], layers2[pooled], counts1[pooled], counts2[pooled]

    def _pair_rows(self, pairs, rng: np.random.Generator | None = None) -> Tensor:
        """(B, pair_dim) pair vectors for a list of (arg1 tokens, arg2 tokens)."""
        layers1, layers2, counts1, counts2 = self._layers(pairs, rng)
        return build_pair_representation(layers1, layers2, self.attention, len(pairs),
                                         counts1, counts2)

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

    def attention_maps(self, arg1_tokens, arg2_tokens) -> list[np.ndarray]:
        """Per layer, the (N, N) softmaxed score matrix of argument 1 over
        argument 2, N = ``max_tokens``."""
        if self.attention is None:
            raise ConfigError("model was built without bi-attention")
        with T.no_grad():
            layers1, layers2, counts1, counts2 = self._layers([(arg1_tokens, arg2_tokens)])
            return [attention_map(v1, v2, self.attention, c1, c2)
                    for v1, v2, c1, c2 in zip(layers1, layers2, counts1, counts2)]
