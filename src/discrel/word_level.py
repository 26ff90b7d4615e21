"""Token embeddings assembled from three information sources.

Each token's representation is the concatenation, always in this order, of

1. a frozen pre-trained word vector (out-of-vocabulary and padding tokens
   map to the zero vector, leaving the other two parts to carry the signal);
2. a trained subword feature: the token's byte-pair pieces are embedded,
   run through parallel convolutions of different widths with tanh and
   max-over-positions pooling, and the concatenated pools pass through a
   highway layer;
3. a reduced contextual feature: a frozen two-layer contextual embedder
   yields two aligned vectors per token, which are blended with trained
   softmax weights and a scale, then projected down.

The contextual embedder behind (3) is a small character-level bidirectional
language model, a stand-in for a large pretrained one: trained once, frozen,
then run over the real tokens of a whole batch of arguments at once.
``TokenEmbedder.embed`` embeds one argument of every instance in a batch in
one call, with one call of the language model.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from . import tensor as T
from .bpe import MergeTable, apply_bpe
from .data import PAD_TOKEN, pad_truncate
from .errors import ConfigError, DataError, ParseError, ShapeError, utf8_text
from .init import uniform_param, zeros_param
from .recurrent import BiGRU
from .tensor import Parameter, Tensor


# ---------------------------------------------------------------------------
# Frozen word vectors


# loadtxt converts each field in C with Python's float grammar, minus
# underscores and non-ASCII digits; it skips empty lines
_LOADTXT = {"dtype": np.float64, "delimiter": " ", "comments": None, "ndmin": 2}
_NON_NUMERIC = "non-numeric vector component"


def load_word_vectors(path, sha256: str | None = None) -> tuple[dict[str, int], np.ndarray, str]:
    """Parse a text vector file: an optional "count dim" header, then one
    "word v1 ... vD" line per word; returns (vocabulary, matrix, the file's
    SHA-256).

    The file is read once.  With ``sha256`` given, its bytes must have that
    digest, checked before anything is parsed: a changed file is a
    ConfigError even when it is malformed too.

    - A first line of exactly two fields is the header, two decimal
      integers: ``count`` is the number of lines after it, and ``dim`` the
      number of components on line 2.
    - Every other line is a word, then its components, each after one
      space, as many on every line.  A component is what ``float`` reads,
      in ASCII and without underscores, and must be finite; numpy's reader
      also lets the controls U+001C to U+001F pad it, which ``float`` does
      not.  Lines end in LF, CRLF or CR.
    - A repeated word keeps its first row; its later rows are still checked.

    Any fault raises ParseError naming the file and the first faulty line.
    """
    # Binary lines rather than one buffer the size of the file: freeing such
    # a buffer makes glibc serve later allocations up to its size from the
    # heap, which made peak memory vary from run to run.
    with open(path, "rb") as fh:
        data = list(fh)
    digest = hashlib.sha256()
    for raw in data:
        digest.update(raw)
    if sha256 is not None and digest.hexdigest() != sha256:
        raise ConfigError(f"{path} has changed since its SHA-256 was recorded (checksum mismatch)")
    words: list[str] = []
    with utf8_text(path):
        header = _header(path, data)
        try:
            matrix = np.loadtxt((numbers for _, numbers in _vector_lines(path, data, header, words)),
                                **_LOADTXT)
            if header not in (None, matrix.shape) or not np.isfinite(matrix).all():
                raise ValueError
        except ValueError:  # a fault somewhere: find the first, one line at a time
            _raise_first_fault(path, data, header)
            raise
    first_row: dict[str, int] = {}
    for i, word in enumerate(words):
        first_row.setdefault(word, i)
    if len(first_row) < len(words):
        matrix = matrix[list(first_row.values())]
    return {word: i for i, word in enumerate(first_row)}, matrix, digest.hexdigest()


def _lines(data: list[bytes]):
    """The text lines of a file read as binary lines, split as a
    universal-newline reader splits them."""
    for raw in data:
        line = raw.decode("utf-8")
        if "\r" not in line:
            yield line
            continue
        *ended, last = line.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        yield from (text + "\n" for text in ended)
        if last:
            yield last


def _header(path, data: list[bytes]) -> tuple[int, int] | None:
    """(count, dim) from a first line of two fields, else None."""
    line = next(_lines(data), "")
    fields = line.rstrip("\n").split(" ")
    if len(fields) != 2:
        return None
    if not all(field.isascii() and field.isdigit() for field in fields):
        raise ParseError(f"{path}:1: expected a 'count dim' header, got {line!r}")
    return int(fields[0]), int(fields[1])


def _vector_lines(path, data: list[bytes], header, words: list[str]):
    """(line number, numeric part) of each line after the header, in file
    order, appending each line's word to ``words``.  Raises ParseError at a
    line without a space, at a line 2 that does not fit the header's dim, and
    at a line with nothing after its word, which loadtxt would skip."""
    for lineno, line in enumerate(_lines(data), start=1):
        if lineno == 1 and header is not None:
            continue
        split = line.find(" ")
        if split < 0:
            raise ParseError(f"{path}:{lineno}: expected 'word v1 ...', got {line!r}")
        numbers = line[split + 1:]
        if lineno == 2 and header is not None and numbers.count(" ") + 1 != header[1]:
            raise ParseError(f"{path}:1: header gives dim {header[1]}, "
                             f"but line 2 has {numbers.count(' ') + 1} components")
        if numbers in ("", "\n"):
            raise ParseError(f"{path}:{lineno}: {_NON_NUMERIC}")
        words.append(line[:split])
        yield lineno, numbers
    if not words:
        raise ParseError(f"{path}: no vectors found")


def _raise_first_fault(path, data: list[bytes], header) -> None:
    """Raise ParseError at the first faulty line, reading each line alone;
    called once the file is known to hold a fault."""
    if header is not None:
        follow = sum(1 for _ in _lines(data)) - 1
        if header[0] != follow:
            raise ParseError(f"{path}:1: header gives count {header[0]}, "
                             f"but {follow} lines follow it")
    width = None
    for lineno, numbers in _vector_lines(path, data, header, []):
        n = numbers.count(" ") + 1
        try:
            row = np.loadtxt([numbers], **_LOADTXT)[0]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: {_NON_NUMERIC}") from None
        if width is None:
            width = n
        if n != width:
            raise ParseError(f"{path}:{lineno}: vector has {n} components, expected {width}")
        if not np.isfinite(row).all():
            raise ParseError(f"{path}:{lineno}: non-finite vector component")


def save_word_vectors(path, vocab: dict[str, int], matrix: np.ndarray) -> None:
    """Write the text format ``load_word_vectors`` reads, "count dim" header first."""
    order = sorted(vocab, key=vocab.get)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(order)} {matrix.shape[1]}\n")
        for word in order:
            comps = " ".join(repr(float(v)) for v in matrix[vocab[word]])
            fh.write(f"{word} {comps}\n")


class WordEmbeddingTable:
    """Pre-trained word vectors, fixed for the whole life of the model."""

    def __init__(self, vocab: dict[str, int], matrix: np.ndarray, sha256: str | None = None):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or len(vocab) != matrix.shape[0]:
            raise ShapeError(f"word table: {len(vocab)} words vs matrix {matrix.shape}")
        self.vocab = dict(vocab)
        self.matrix = matrix
        self.dim = matrix.shape[1]
        self.sha256 = sha256

    @classmethod
    def load(cls, path, sha256: str | None = None) -> "WordEmbeddingTable":
        """The table in ``path``, which must have digest ``sha256`` if given;
        the table's ``sha256`` is the file's."""
        vocab, matrix, digest = load_word_vectors(path, sha256)
        return cls(vocab, matrix, digest)

    def embed(self, tokens) -> np.ndarray:
        """(len(tokens), dim) rows in one gather; an out-of-vocabulary token
        and ``<pad>``, even when the file holds a vector for it, get zeros."""
        index = np.array([-1 if tok == PAD_TOKEN else self.vocab.get(tok, -1) for tok in tokens],
                         dtype=np.int64)
        out = np.zeros((len(index), self.dim))
        known = index >= 0
        out[known] = self.matrix[index[known]]
        return out


# ---------------------------------------------------------------------------
# Shared per-token convolution


def _distinct(tokens) -> tuple[list[str], list[int]]:
    """The distinct tokens in first-appearance order, and each token's slot."""
    slots: dict[str, int] = {}
    positions = [slots.setdefault(tok, len(slots)) for tok in tokens]
    return list(slots), positions


def _conv_max_pool(table: Parameter, rows, pad_index: int, convs) -> list[Tensor]:
    """Max over positions of tanh(valid convolution) of each index row.

    Each row of ``table`` indices is first padded with ``pad_index`` up to
    the widest kernel, and those pads count as positions.  All rows then
    share one gather and, per (kernel, bias) of ``convs``, one batched
    convolution over a common width; windows that reach into that shared
    padding are masked out of the max.  Returns one (len(rows), d_out)
    tensor per kernel.
    """
    convs = list(convs)
    reach = max(kernel.shape[0] for kernel, _ in convs)
    lengths = np.array([max(len(row), reach) for row in rows])
    idx = np.full((len(rows), lengths.max()), pad_index, dtype=np.int64)
    for i, row in enumerate(rows):
        idx[i, :len(row)] = row
    emb = T.gather_rows(table, idx.ravel())
    return [T.topk_pool(T.tanh(T.conv1d(emb, kernel, bias, batch=len(rows))),
                        1, len(rows), lengths - kernel.shape[0] + 1)
            for kernel, bias in convs]


# ---------------------------------------------------------------------------
# Subword feature


class SubwordEncoder:
    """Piece embeddings -> parallel convolutions -> max pool -> highway."""

    PAD_INDEX = 0
    UNK_INDEX = 1

    def __init__(self, pieces, rng: np.random.Generator, emb_dim: int = 50,
                 kernel_sizes=(2, 3), channels: int = 50, name: str = "subword"):
        self.index = {piece: i + 2 for i, piece in enumerate(dict.fromkeys(pieces))}
        self.emb_dim = emb_dim
        self.kernel_sizes = tuple(kernel_sizes)
        self.channels = channels
        self.out_dim = channels * len(self.kernel_sizes)
        self.table = Parameter(rng.uniform(-0.1, 0.1, (len(self.index) + 2, emb_dim)),
                               name=f"{name}.table")
        self.kernels = []
        self.conv_biases = []
        for k in self.kernel_sizes:
            self.kernels.append(uniform_param(rng, (k, emb_dim, channels), f"{name}.conv{k}.kernel"))
            self.conv_biases.append(zeros_param((channels,), f"{name}.conv{k}.bias"))
        d = self.out_dim
        self.gate_w = uniform_param(rng, (d, d), f"{name}.gate_w")
        self.gate_b = zeros_param((d,), f"{name}.gate_b")
        self.carry_w = uniform_param(rng, (d, d), f"{name}.carry_w")
        self.carry_b = zeros_param((d,), f"{name}.carry_b")

    def parameters(self) -> list[Parameter]:
        return ([self.table] + self.kernels + self.conv_biases
                + [self.gate_w, self.gate_b, self.carry_w, self.carry_b])

    def indices(self, pieces) -> list[int]:
        if not pieces:
            raise DataError("SubwordEncoder: empty piece sequence")
        return [self.index.get(p, self.UNK_INDEX) for p in pieces]

    def encode_indices(self, rows) -> Tensor:
        """(len(rows), out_dim) features, one per row of piece indices, in one
        batched pass (rows are padded as needed)."""
        if not rows or any(len(row) == 0 for row in rows):
            raise DataError("SubwordEncoder: empty piece sequence")
        u = T.concat(_conv_max_pool(self.table, rows, self.PAD_INDEX,
                                    zip(self.kernels, self.conv_biases)), axis=1)
        gate = T.sigmoid(T.add_bias(u @ self.gate_w, self.gate_b))
        transformed = T.relu(T.add_bias(u @ self.carry_w, self.carry_b))
        ones = T.constant(np.ones((len(rows), self.out_dim)))
        return gate * transformed + (ones - gate) * u


# ---------------------------------------------------------------------------
# Contextual feature


class ContextualMixer:
    """Trained softmax blend of the two layers, scaled and projected down."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, name: str = "mixer"):
        self.d_in = d_in
        self.d_out = d_out
        self.layer_logits = Parameter(np.zeros((1, 2)), name=f"{name}.layer_logits")
        self.scale = Parameter(np.ones((1,)), name=f"{name}.scale")
        self.proj_w = uniform_param(rng, (d_in, d_out), f"{name}.proj_w")
        self.proj_b = zeros_param((d_out,), f"{name}.proj_b")

    def parameters(self) -> list[Parameter]:
        return [self.layer_logits, self.scale, self.proj_w, self.proj_b]

    def forward(self, h0: Tensor, h1: Tensor) -> Tensor:
        if h0.shape != h1.shape or h0.shape[1] != self.d_in:
            raise ShapeError(
                f"ContextualMixer: layer shapes {h0.shape}, {h1.shape} do not fit width {self.d_in}")
        s = T.softmax_rows(self.layer_logits)
        mixed = (T.scalar_mul(T.slice_cols(s, 0, 1), h0)
                 + T.scalar_mul(T.slice_cols(s, 1, 2), h1))
        return T.add_bias(T.scalar_mul(self.scale, mixed) @ self.proj_w, self.proj_b)


class ToyContextualEmbedder:
    """Small character-level bidirectional language model used as a stand-in.

    Words are encoded by a character convolution with max pooling (each
    distinct word of a batch of sentences once, in one batch); two stacked
    bidirectional recurrent layers, each one scan over all the sentences at
    their own lengths, produce the per-token outputs (lower layer, upper
    layer).  The model is trained to predict each position's next word with
    its forward state and previous word with its backward state, one
    sentence at a time, then frozen.
    """

    CHAR_PAD = 0
    CHAR_UNK = 1
    EDGE_CLASS = 0  # LM target for sequence boundaries and unseen words

    def __init__(self, words, chars, rng: np.random.Generator,
                 dim: int = 64, char_dim: int = 16):
        if dim % 2:
            raise ConfigError(f"contextual dim must be even (two directions), got {dim}")
        self.words = list(dict.fromkeys(words))
        self.chars = list(dict.fromkeys(chars))
        self.dim = dim  # width of each per-token layer output
        self.char_dim = char_dim
        self.word_ids = {w: i + 1 for i, w in enumerate(self.words)}
        self.char_ids = {c: i + 2 for i, c in enumerate(self.chars)}
        self.frozen = False

        half = dim // 2
        n_classes = len(self.words) + 1
        self.char_table = Parameter(rng.uniform(-0.1, 0.1, (len(self.chars) + 2, char_dim)),
                                    name="toy.char_table")
        self.char_kernel = uniform_param(rng, (3, char_dim, dim), "toy.char_kernel")
        self.char_bias = zeros_param((dim,), "toy.char_bias")
        self.rnn1 = BiGRU(dim, half, rng, name="toy.rnn1")
        self.rnn2 = BiGRU(dim, half, rng, name="toy.rnn2")
        self.head_next_w = uniform_param(rng, (half, n_classes), "toy.head_next_w")
        self.head_next_b = zeros_param((n_classes,), "toy.head_next_b")
        self.head_prev_w = uniform_param(rng, (half, n_classes), "toy.head_prev_w")
        self.head_prev_b = zeros_param((n_classes,), "toy.head_prev_b")

    @classmethod
    def from_corpus(cls, sentences, rng: np.random.Generator,
                    dim: int = 64, char_dim: int = 16) -> "ToyContextualEmbedder":
        sentences = [list(s) for s in sentences]
        words = sorted({w for s in sentences for w in s})
        chars = sorted({c for w in words for c in w})
        if len(words) < 2 or not any(len(s) >= 2 for s in sentences):
            raise DataError("toy embedder: corpus too small to build a vocabulary")
        return cls(words, chars, rng, dim=dim, char_dim=char_dim)

    def parameters(self) -> list[Parameter]:
        return ([self.char_table, self.char_kernel, self.char_bias]
                + self.rnn1.parameters() + self.rnn2.parameters()
                + [self.head_next_w, self.head_next_b, self.head_prev_w, self.head_prev_b])

    def _layers(self, sentences) -> tuple[Tensor, Tensor]:
        """(lower, upper), each (B*N, dim) for B sentences of at most N
        tokens, stacked sentence-major; a sentence's rows past its length
        are zero."""
        if not sentences or not all(sentences):
            raise DataError("toy embedder: empty token sequence")
        lengths = [len(tokens) for tokens in sentences]
        n = max(lengths)
        words, slots = _distinct([tok for tokens in sentences for tok in tokens])
        rows = [[self.char_ids.get(c, self.CHAR_UNK) for c in w] for w in words]
        (vectors,) = _conv_max_pool(self.char_table, rows, self.CHAR_PAD,
                                    [(self.char_kernel, self.char_bias)])
        # A sentence's rows past its length repeat its first word; the scan
        # never lets them reach its real rows.
        positions = []
        start = 0
        for r in lengths:
            positions += slots[start:start + r] + [slots[start]] * (n - r)
            start += r
        # Equal lengths scan without them, as the tracked one-sentence
        # batches of ``train_lm`` must.
        ragged = lengths if min(lengths) < n else None
        (lower,) = BiGRU.forward([self.rnn1], [T.gather_rows(vectors, positions)],
                                 len(sentences), ragged)
        (upper,) = BiGRU.forward([self.rnn2], [lower], len(sentences), ragged)
        return lower, upper

    def embed(self, sentences) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) arrays, each (B*N, dim) for B sentences of at most
        N tokens: sentence b's token j is row b*N + j, and its rows past its
        length are zero.  One character convolution and one scan per layer
        serve the whole batch, without a tape; nothing is kept between
        calls."""
        with T.no_grad():
            lower, upper = self._layers([list(tokens) for tokens in sentences])
        return lower.numpy(), upper.numpy()

    def freeze(self) -> None:
        self.frozen = True

    def train_lm(self, sentences, epochs: int = 5, lr: float = 0.1,
                 seed: int = 0) -> list[float]:
        """Fit the language model; returns per-epoch training perplexity."""
        if self.frozen:
            raise ConfigError("toy embedder is frozen; training is closed")
        sentences = [list(s) for s in sentences if len(s) >= 1]
        if not sentences:
            raise DataError("toy embedder: nothing to train on")
        half = self.dim // 2
        rng = np.random.default_rng(seed)
        perplexities = []
        for _ in range(epochs):
            order = rng.permutation(len(sentences))
            total_nll = 0.0
            total_tokens = 0
            for si in order:
                sent = sentences[si]
                n = len(sent)
                _, upper = self._layers([sent])
                fwd = T.slice_cols(upper, 0, half)
                bwd = T.slice_cols(upper, half, self.dim)
                next_ids = [self.word_ids.get(w, self.EDGE_CLASS) for w in sent[1:]] + [self.EDGE_CLASS]
                prev_ids = [self.EDGE_CLASS] + [self.word_ids.get(w, self.EDGE_CLASS) for w in sent[:-1]]
                loss = (T.cross_entropy(T.add_bias(fwd @ self.head_next_w, self.head_next_b), next_ids)
                        + T.cross_entropy(T.add_bias(bwd @ self.head_prev_w, self.head_prev_b), prev_ids))
                T.backward(loss)
                T.adagrad_step(self.parameters(), lr=lr)
                total_nll += loss.item() / 2.0 * n
                total_tokens += n
            perplexities.append(math.exp(total_nll / total_tokens))
        return perplexities

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {p.name: p.data.copy() for p in self.parameters()}


def check_toy_settings(dim: int, char_dim: int, epochs: int, lr: float,
                       names: tuple[str, str, str, str]) -> None:
    """Raise ``ConfigError`` unless a toy embedder can be built and trained
    with these settings; ``names`` are the caller's names for the four."""
    dim_name, char_dim_name, epochs_name, lr_name = names
    if dim < 2 or dim % 2:
        raise ConfigError(f"{dim_name}: must be even and at least 2, got {dim}")
    if char_dim < 1:
        raise ConfigError(f"{char_dim_name}: must be positive, got {char_dim}")
    if epochs < 0:
        raise ConfigError(f"{epochs_name}: must be non-negative, got {epochs}")
    if lr <= 0:
        raise ConfigError(f"{lr_name}: must be positive, got {lr}")


def build_toy_embedder(sentences, dim: int = 64, char_dim: int = 16,
                       epochs: int = 5, lr: float = 0.1,
                       seed: int = 0) -> tuple[ToyContextualEmbedder, list[float]]:
    """Train a toy contextual embedder on the corpus and freeze it."""
    rng = np.random.default_rng(seed)
    embedder = ToyContextualEmbedder.from_corpus(sentences, rng, dim=dim, char_dim=char_dim)
    history = embedder.train_lm(sentences, epochs=epochs, lr=lr, seed=seed)
    embedder.freeze()
    return embedder, history


# ---------------------------------------------------------------------------
# Full token embedding


class TokenEmbedder:
    """Concatenates the enabled parts, [word | subword | contextual]."""

    def __init__(self, word_table: WordEmbeddingTable | None = None,
                 subword: SubwordEncoder | None = None,
                 merges: MergeTable | None = None,
                 mixer: ContextualMixer | None = None,
                 contextual: ToyContextualEmbedder | None = None):
        if word_table is None and subword is None and mixer is None:
            raise ConfigError("TokenEmbedder: no parts enabled")
        if (subword is None) != (merges is None):
            raise ConfigError("TokenEmbedder: subword encoder and merge table go together")
        if (mixer is None) != (contextual is None):
            raise ConfigError("TokenEmbedder: mixer and contextual embedder go together")
        if mixer is not None and contextual.dim != mixer.d_in:
            raise ShapeError(f"TokenEmbedder: embedder width {contextual.dim} != mixer input {mixer.d_in}")
        self.word_table = word_table
        self.subword = subword
        self.merges = merges
        self.mixer = mixer
        self.contextual = contextual
        # token -> subword piece indices; fixed by the merge table and the
        # piece index, so each token is segmented once per embedder.
        self._piece_indices: dict[str, list[int]] = {}
        self.dim = ((word_table.dim if word_table else 0)
                    + (subword.out_dim if subword else 0)
                    + (mixer.d_out if mixer else 0))

    def parameters(self) -> list[Parameter]:
        out = []
        if self.subword is not None:
            out.extend(self.subword.parameters())
        if self.mixer is not None:
            out.extend(self.mixer.parameters())
        return out

    def _token_piece_indices(self, tok: str) -> list[int]:
        idxs = self._piece_indices.get(tok)
        if idxs is None:
            if tok == PAD_TOKEN:
                idxs = [SubwordEncoder.PAD_INDEX] * max(self.subword.kernel_sizes)
            else:
                idxs = self.subword.indices(apply_bpe(tok, self.merges))
            self._piece_indices[tok] = idxs
        return idxs

    def embed(self, arguments, rows: int) -> Tensor:
        """(B*rows, dim) embedding of B arguments, each cut or padded with
        ``<pad>`` to ``rows`` tokens, stacked in order.

        The batch shares one word-vector gather, one subword batch over its
        distinct tokens, one contextual embedder call over the arguments' real
        tokens and one mixer pass; padding rows are zero mixer input.
        """
        arguments = [list(argument) for argument in arguments]
        if not arguments or not all(arguments):
            raise DataError("TokenEmbedder.embed: every argument needs a token")
        tokens = [tok for argument in arguments for tok in pad_truncate(argument, rows)]
        parts = []
        if self.word_table is not None:
            parts.append(T.constant(self.word_table.embed(tokens)))
        if self.subword is not None:
            distinct, positions = _distinct(tokens)
            features = self.subword.encode_indices(
                [self._token_piece_indices(tok) for tok in distinct])
            parts.append(T.gather_rows(features, positions))
        if self.mixer is not None:
            layers = [np.zeros((len(arguments), rows, self.mixer.d_in)) for _ in range(2)]
            for out, real in zip(layers, self.contextual.embed([a[:rows] for a in arguments])):
                out[:, :len(real) // len(arguments)] = real.reshape(len(arguments), -1,
                                                                    self.mixer.d_in)
            parts.append(self.mixer.forward(*(T.constant(out.reshape(len(tokens), -1))
                                              for out in layers)))
        if len(parts) == 1:
            return parts[0]
        return T.concat(parts, axis=1)
