import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrel import tensor as T
from discrel import word_level
from discrel.bpe import MergeTable, apply_bpe, learn_bpe
from discrel.errors import (
    ConfigError,
    DataError,
    ParseError,
    ShapeError,
)
from discrel.recurrent import BiGRU
from discrel.word_level import (
    ContextualMixer,
    SubwordEncoder,
    TokenEmbedder,
    ToyContextualEmbedder,
    WordEmbeddingTable,
    build_toy_embedder,
    load_word_vectors,
    save_word_vectors,
)
from claims import BITWISE, CLOSE, assert_agree, shapes_claim
import embed_oracle
from extra_ops import sum_all
import vectors_oracle
from gradcheck import assert_grads_match


class TestWordEmbeddingTable:
    def make(self, rng, words, dim=4):
        vocab = {w: i for i, w in enumerate(words)}
        return WordEmbeddingTable(vocab, rng.normal(size=(len(words), dim)))

    def test_lookup_returns_stored_row(self):
        rng = np.random.default_rng(0)
        table = self.make(rng, ["cat", "dog"])
        assert np.array_equal(table.embed(["dog"])[0], table.matrix[1])

    def test_oov_and_pad_are_zero(self):
        rng = np.random.default_rng(1)
        table = self.make(rng, ["cat", "<pad>"])
        # Padding wins even over a stored row of the same spelling.
        assert np.array_equal(table.embed(["zebra", "<pad>"]), np.zeros((2, 4)))

    def test_embed_stacks_rows(self):
        rng = np.random.default_rng(2)
        table = self.make(rng, ["a", "b"])
        out = table.embed(["b", "a", "b", "zzz"])
        assert out.shape == (4, 4)
        assert np.array_equal(out[0], table.matrix[1])
        assert np.array_equal(out[1], table.matrix[0])
        assert np.array_equal(out[2], table.matrix[1])
        assert np.array_equal(out[3], np.zeros(4))
        assert table.embed([]).shape == (0, 4)

    def test_file_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        vocab = {"alpha": 0, "beta": 1, "gamma": 2}
        matrix = rng.normal(size=(3, 5))
        path = tmp_path / "vectors.txt"
        save_word_vectors(path, vocab, matrix)
        got_vocab, got, _ = load_word_vectors(path)
        assert got_vocab == vocab
        assert np.array_equal(got, matrix)

    def test_header_is_optional(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1.0 2.0 3.0\nb 4.0 5.0 6.0\n", encoding="utf-8")
        table = WordEmbeddingTable.load(path)
        assert table.dim == 3
        assert np.array_equal(table.embed(["b"]), [[4.0, 5.0, 6.0]])

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1.0 2.0\nb 4.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_word_vectors(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1.0 oops\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_word_vectors(path)

    @pytest.mark.parametrize("text", ["a 1.0 2.0\nb 1e400 0.0\n", "a 1.0 nan\n",
                                      "a 1.0 2.0\na -inf 2.0\n"],
                             ids=["overflow", "nan", "repeated_word"])
    def test_non_finite_component_rejected(self, tmp_path, text):
        path = tmp_path / "vectors.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="non-finite"):
            load_word_vectors(path)


def write_vectors(tmp_path, text: str):
    path = tmp_path / "vectors.txt"
    path.write_bytes(text.encode("utf-8"))
    return path


class TestVectorFileFaults:
    """Each fault is a ParseError naming the file and the faulty line."""

    @pytest.mark.parametrize("text,where,message", [
        ("a 1 2\n\nb 3 4\n", 2, "expected 'word v1 ...', got '\\n'"),
        ("a 1 2\nb\nc 3 4\n", 2, "expected 'word v1 ...', got 'b\\n'"),
        ("a 1 2\nb 3 4\nc 5 6\nd 7\n", 4, "vector has 1 components, expected 2"),
        ("a 1 2\nb 3 4\nc 5 6 7\n", 3, "vector has 3 components, expected 2"),
        ("a 1 2\nb 3 4\nc 5 oops\nd 7 8\n", 3, "non-numeric vector component"),
        ("a 1 2\nb 3 \n", 2, "non-numeric vector component"),
        ("a 1 2\nb \nc 3 4\n", 2, "non-numeric vector component"),
        ("a 1 2\nb 3 4\na nan 0\n", 3, "non-finite vector component"),
        ("a 1 2\nb 3 4\nb 1e400 0\n", 3, "non-finite vector component"),
        ("a 1 2\nb 1_0 4\n", 2, "non-numeric vector component"),
        ("a 1 2\nb \u0661 4\n", 2, "non-numeric vector component"),
    ], ids=["blank_line", "lone_word", "short_row", "long_row", "non_numeric",
            "trailing_space", "nothing_after_word", "nan_in_duplicate",
            "overflow_in_duplicate", "underscore", "arabic_indic_digit"])
    def test_fault_names_its_line(self, tmp_path, text, where, message):
        path = write_vectors(tmp_path, text)
        with pytest.raises(ParseError) as info:
            load_word_vectors(path)
        assert str(info.value) == f"{path}:{where}: {message}"

    def test_the_first_faulty_line_is_reported(self, tmp_path):
        # line 2 holds a non-finite first occurrence, line 4 is ragged
        path = write_vectors(tmp_path, "a 1 2\nb inf 2\nc 3 4\nd 5\n")
        with pytest.raises(ParseError, match=r"vectors\.txt:2: non-finite"):
            load_word_vectors(path)

    @pytest.mark.parametrize("text,message", [
        ("3 2\na 1 2\nb 3 4\n", "header gives count 3, but 2 lines follow it"),
        ("1 2\na 1 2\nb 3 4\n", "header gives count 1, but 2 lines follow it"),
        ("2 3\na 1 2\nb 3 4\n", "header gives dim 3, but line 2 has 2 components"),
        ("two 2\na 1 2\n", "expected a 'count dim' header, got 'two 2\\n'"),
        ("a 0.5\nb 0.25\n", "expected a 'count dim' header, got 'a 0.5\\n'"),
    ], ids=["truncated", "count_too_small", "dim", "not_integers", "headerless_width_one"])
    def test_header_must_match_the_rows(self, tmp_path, text, message):
        path = write_vectors(tmp_path, text)
        with pytest.raises(ParseError) as info:
            load_word_vectors(path)
        assert str(info.value) == f"{path}:1: {message}"

    def test_a_file_cut_at_a_line_boundary_is_refused(self, tmp_path):
        rng = np.random.default_rng(4)
        path = tmp_path / "vectors.txt"
        save_word_vectors(path, {f"w{i}": i for i in range(5)}, rng.normal(size=(5, 3)))
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-1]))
        with pytest.raises(ParseError, match=r"vectors\.txt:1: header gives count 5, but 4"):
            load_word_vectors(path)

    @pytest.mark.parametrize("text", ["", "2 3\n", "0 3\n"], ids=["empty", "header_only", "count_zero"])
    def test_no_vectors(self, tmp_path, text):
        path = write_vectors(tmp_path, text)
        match = r"vectors\.txt:1: header" if text == "2 3\n" else r"vectors\.txt: no vectors found"
        with pytest.raises(ParseError, match=match):
            load_word_vectors(path)

    def test_crlf_and_cr_line_ends_load_like_lf(self, tmp_path):
        text = "3 2\na 1.5 -2\nb 3e-3 4\na 0 0\n"
        vocab, matrix, _ = load_word_vectors(write_vectors(tmp_path, text))
        assert vocab == {"a": 0, "b": 1}
        for end in ("\r\n", "\r"):
            got_vocab, got, _ = load_word_vectors(write_vectors(tmp_path, text.replace("\n", end)))
            assert got_vocab == vocab
            assert got.tobytes() == matrix.tobytes()

    def test_repeated_word_keeps_its_first_row(self, tmp_path):
        vocab, matrix, _ = load_word_vectors(write_vectors(tmp_path, "a 1 2\nb 3 4\na 5 6\nc 7 8\n"))
        assert vocab == {"a": 0, "b": 1, "c": 2}
        assert matrix.tolist() == [[1, 2], [3, 4], [7, 8]]

    def test_digest_is_of_the_bytes_read(self, tmp_path):
        path = write_vectors(tmp_path, "a 1 2\r\n")
        assert load_word_vectors(path)[2] == hashlib.sha256(b"a 1 2\r\n").hexdigest()

    def test_changed_file_is_refused_before_it_is_parsed(self, tmp_path):
        path = write_vectors(tmp_path, "a 1 2\nb oops\n")
        with pytest.raises(ConfigError, match="checksum mismatch"):
            load_word_vectors(path, sha256="0" * 64)
        with pytest.raises(ParseError):
            load_word_vectors(path, sha256=hashlib.sha256(path.read_bytes()).hexdigest())


_WORDS = st.sampled_from(["a", "b", "cc", "\u00e9t\u00e9", ""])
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: "%.6g" % v),
    st.floats(allow_nan=False, allow_infinity=False).map(repr))
_SPECIAL = st.sampled_from(["nan", "-inf", "inf", "1e400", "-1e400", "NaN", "1e-400", "-0"])
_JUNK = st.sampled_from(["oops", "", "1.0.0", "--1", "0x1", "1e"])
_LINE_KINDS = ["row"] * 20 + ["blank", "lone", "bare", "ragged", "junk", "special"]


@st.composite
def vector_files(draw) -> bytes:
    """Text vector files, most of them valid, the rest with one or more of
    the faults the loader must find."""
    dim = draw(st.sampled_from([1, 2, 2, 3, 4]))
    lines = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(_LINE_KINDS))
        word = draw(_WORDS)
        comps = [draw(_NUMBERS) for _ in range(dim)]
        where = draw(st.integers(0, dim - 1))
        if kind == "ragged":
            comps = comps[:-1] if draw(st.booleans()) else comps + comps[:1]
        elif kind in ("junk", "special"):
            comps[where] = draw(_JUNK if kind == "junk" else _SPECIAL)
        lines.append({"blank": "", "lone": word, "bare": word + " "}.get(
            kind, " ".join([word] + comps)))
    header = draw(st.sampled_from(["none"] * 3 + ["good"] * 3 + ["count", "dim", "words"]))
    count, width = len(lines), dim
    if header == "count":
        count += draw(st.sampled_from([-1, 1]))
    elif header == "dim":
        width += 1
    if header != "none":
        lines.insert(0, "x y" if header == "words" else f"{count} {width}")
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if lines and not draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


@settings(max_examples=300)
@given(data=vector_files())
def test_loader_agrees_with_the_per_line_oracle(tmp_path_factory, data):
    """The same (vocabulary, matrix) bit for bit, or the ParseError the
    oracle gives for the first faulty line."""
    path = tmp_path_factory.mktemp("vectors") / "vectors.txt"
    expected = vectors_oracle.first_fault(path, data)
    path.write_bytes(data)
    if expected is None:
        want_vocab, want = vectors_oracle.load_word_vectors(path)
        vocab, matrix, _ = load_word_vectors(path)
        assert list(vocab.items()) == list(want_vocab.items())
        assert matrix.dtype == want.dtype and matrix.shape == want.shape
        assert matrix.tobytes() == want.tobytes()
    else:
        with pytest.raises(ParseError) as info:
            load_word_vectors(path)
        assert str(info.value) == expected


def numpy_subword_forward(enc, idxs):
    """Independent replay of the subword feature in plain numpy."""
    need = max(enc.kernel_sizes)
    idxs = list(idxs) + [enc.PAD_INDEX] * max(0, need - len(idxs))
    emb = enc.table.numpy()[idxs]
    pools = []
    for k, kernel, bias in zip(enc.kernel_sizes, enc.kernels, enc.conv_biases):
        n_win = len(idxs) - k + 1
        windows = []
        for start in range(n_win):
            acc = bias.numpy().copy()
            for j in range(k):
                acc = acc + emb[start + j] @ kernel.numpy()[j]
            windows.append(np.tanh(acc))
        pools.append(np.max(np.array(windows), axis=0))
    u = np.concatenate(pools)
    with np.errstate(over="ignore"):
        gate = 1.0 / (1.0 + np.exp(-(u @ enc.gate_w.numpy() + enc.gate_b.numpy())))
    transformed = np.maximum(u @ enc.carry_w.numpy() + enc.carry_b.numpy(), 0.0)
    return gate * transformed + (1.0 - gate) * u, u


class TestSubwordEncoder:
    def make(self, seed=0, pieces=("ab", "cd", "e")):
        rng = np.random.default_rng(seed)
        return SubwordEncoder(pieces, rng, emb_dim=3, kernel_sizes=(2, 3), channels=2)

    @staticmethod
    def encode(enc, pieces):
        """The features of one piece sequence, as the token embedder asks."""
        return enc.encode_indices([enc.indices(pieces)])

    def test_output_shape_and_oracle(self):
        enc = self.make()
        with T.no_grad():
            got = self.encode(enc, ["ab", "e", "cd", "ab"]).numpy()
        want, _ = numpy_subword_forward(enc, enc.indices(["ab", "e", "cd", "ab"]))
        assert got.shape == (1, 4)
        assert np.allclose(got[0], want, atol=1e-12)

    def test_short_sequences_padded_to_kernel_reach(self):
        enc = self.make()
        with T.no_grad():
            got = self.encode(enc, ["e"]).numpy()
        want, _ = numpy_subword_forward(enc, [enc.index["e"], 0, 0])
        assert np.allclose(got[0], want, atol=1e-12)

    def test_gate_off_passes_pools_through(self):
        enc = self.make(seed=1)
        enc.gate_w.data[...] = 0.0
        enc.gate_b.data[...] = -1e3
        with T.no_grad():
            got = self.encode(enc, ["ab", "cd", "e"]).numpy()[0]
        _, u = numpy_subword_forward(enc, enc.indices(["ab", "cd", "e"]))
        assert np.max(np.abs(got - u)) < 1e-6

    def test_gate_on_with_zero_transform_gives_zero(self):
        enc = self.make(seed=2)
        enc.gate_b.data[...] = 1e3
        enc.carry_w.data[...] = 0.0
        enc.carry_b.data[...] = 0.0
        with T.no_grad():
            got = self.encode(enc, ["ab", "cd", "e"]).numpy()
        assert np.max(np.abs(got)) < 1e-6

    def test_repeated_piece_pool_equals_single_window(self):
        # Every convolution window over a constant sequence sees the same
        # content, so the max pool must equal that one window's response.
        enc = self.make(seed=3)
        idx = enc.index["cd"]
        emb = enc.table.numpy()[idx]
        with T.no_grad():
            out = enc.encode_indices([[idx] * 4]).numpy()[0]
        pools = []
        for k, kernel, bias in zip(enc.kernel_sizes, enc.kernels, enc.conv_biases):
            acc = bias.numpy().copy()
            for j in range(k):
                acc = acc + emb @ kernel.numpy()[j]
            pools.append(np.tanh(acc))
        u = np.concatenate(pools)
        gate = 1.0 / (1.0 + np.exp(-(u @ enc.gate_w.numpy() + enc.gate_b.numpy())))
        transformed = np.maximum(u @ enc.carry_w.numpy() + enc.carry_b.numpy(), 0.0)
        assert np.allclose(out, gate * transformed + (1.0 - gate) * u, atol=1e-12)

    def test_leading_pads_beyond_kernel_reach_are_inert(self):
        enc = self.make(seed=4)
        idxs = enc.indices(["ab", "e"])
        kmax = max(enc.kernel_sizes)
        with T.no_grad():
            base = enc.encode_indices([[enc.PAD_INDEX] * kmax + idxs]).numpy()
            more = enc.encode_indices([[enc.PAD_INDEX] * (kmax + 2) + idxs]).numpy()
        assert np.array_equal(base, more)

    def test_unknown_piece_maps_to_unk_row(self):
        enc = self.make()
        assert enc.indices(["ab", "??"]) == [enc.index["ab"], SubwordEncoder.UNK_INDEX]

    def test_empty_sequence_rejected(self):
        enc = self.make()
        with pytest.raises(DataError):
            enc.indices([])
        with pytest.raises(DataError):
            enc.encode_indices([])
        with pytest.raises(DataError):
            enc.encode_indices([[]])

    # mixed lengths: one-piece rows, rows shorter than the widest kernel, an
    # unknown piece, and rows long enough to leave most rows padded
    MIXED = (["ab"], ["e", "cd", "ab", "e", "cd", "e"], ["cd", "e"], ["e"],
             ["ab", "ab", "cd"], ["??"], ["cd", "ab", "e", "e"])

    def test_batched_rows_equal_single_rows_and_the_oracle(self):
        enc = self.make(seed=6)
        rows = [enc.indices(pieces) for pieces in self.MIXED]
        with T.no_grad():
            batched = enc.encode_indices(rows).numpy()
            assert batched.shape == (len(rows), enc.out_dim)
            for i, row in enumerate(rows):
                single = enc.encode_indices([row]).numpy()[0]
                want, _ = numpy_subword_forward(enc, row)
                assert np.max(np.abs(batched[i] - single)) < 1e-12
                assert np.max(np.abs(batched[i] - want)) < 1e-12

    def test_batched_gradients_equal_summed_single_row_gradients(self):
        enc = self.make(seed=7)
        rows = [enc.indices(pieces) for pieces in self.MIXED]
        w = np.random.default_rng(8).normal(size=(len(rows), enc.out_dim))
        T.backward(sum_all(T.mul(enc.encode_indices(rows), T.constant(w))))
        batched = [p.grad for p in enc.parameters()]
        for p in enc.parameters():
            p.grad = None
        for row, w_row in zip(rows, w):
            T.backward(sum_all(T.mul(enc.encode_indices([row]), T.constant(w_row[None]))))
        for p, got in zip(enc.parameters(), batched):
            assert np.max(np.abs(got - p.grad)) < 1e-12, p.name

    def test_any_empty_row_rejected(self):
        enc = self.make()
        with pytest.raises(DataError):
            enc.encode_indices([[2, 3], []])

    def test_gradients(self):
        enc = self.make(seed=5)
        idxs = enc.indices(["ab", "cd", "e", "ab"])

        def loss():
            return sum_all(enc.encode_indices([idxs]))

        assert_grads_match(loss, enc.parameters(), entries_per_array=6, tol=1e-6)


class TestContextualMixer:
    def test_zero_logits_average_layers(self):
        rng = np.random.default_rng(0)
        mixer = ContextualMixer(3, 3, rng)
        mixer.proj_w.data[...] = np.eye(3)
        mixer.proj_b.data[...] = 0.0
        h0 = rng.normal(size=(4, 3))
        h1 = rng.normal(size=(4, 3))
        with T.no_grad():
            out = mixer.forward(T.constant(h0), T.constant(h1)).numpy()
        assert np.allclose(out, (h0 + h1) / 2.0, atol=1e-12)

    def test_zero_scale_leaves_only_bias(self):
        rng = np.random.default_rng(1)
        mixer = ContextualMixer(3, 2, rng)
        mixer.scale.data[...] = 0.0
        mixer.proj_b.data[...] = [1.5, -2.5]
        with T.no_grad():
            out = mixer.forward(T.constant(rng.normal(size=(5, 3))),
                                T.constant(rng.normal(size=(5, 3)))).numpy()
        assert np.array_equal(out, np.tile([1.5, -2.5], (5, 1)))

    @staticmethod
    def blend(mixer):
        """The layer weights ``forward`` applies: an identity projection of
        one row that is all lower layer against one that is all upper."""
        mixer.proj_w.data[...] = np.eye(2)
        with T.no_grad():
            return mixer.forward(T.constant([[1.0, 0.0]]), T.constant([[0.0, 1.0]])).numpy()[0]

    def test_logit_gap_gives_three_to_one_blend(self):
        mixer = ContextualMixer(2, 2, np.random.default_rng(2))
        mixer.layer_logits.data[...] = [[np.log(3.0), 0.0]]
        assert np.allclose(self.blend(mixer), [0.75, 0.25], atol=1e-12)

    def test_weights_stay_on_simplex(self):
        rng = np.random.default_rng(3)
        mixer = ContextualMixer(2, 2, rng)
        for _ in range(20):
            mixer.layer_logits.data[...] = rng.normal(scale=5.0, size=(1, 2))
            w = self.blend(mixer)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_width_mismatch_rejected(self):
        mixer = ContextualMixer(3, 2, np.random.default_rng(4))
        with pytest.raises(ShapeError):
            mixer.forward(T.constant(np.zeros((2, 4))), T.constant(np.zeros((2, 4))))
        with pytest.raises(ShapeError):
            mixer.forward(T.constant(np.zeros((2, 3))), T.constant(np.zeros((3, 3))))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        mixer = ContextualMixer(3, 2, rng)
        h0 = T.constant(rng.normal(size=(4, 3)))
        h1 = T.constant(rng.normal(size=(4, 3)))

        def loss():
            return sum_all(mixer.forward(h0, h1))

        assert_grads_match(loss, mixer.parameters(), tol=1e-6)


def toy_corpus(n_sentences=125, length=8, seed=0):
    """Sentences with a strong bigram structure a small model can learn."""
    words = ["sun", "moon", "tide", "wind", "rain", "leaf",
             "stone", "bird", "fish", "cloud", "river", "hill"]
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(n_sentences):
        i = int(rng.integers(len(words)))
        sent = [words[i]]
        for _ in range(length - 1):
            if rng.random() < 0.9:
                i = (i + 1) % len(words)
            else:
                i = int(rng.integers(len(words)))
            sent.append(words[i])
        sentences.append(sent)
    return sentences


class TestToyContextualEmbedder:
    def test_output_alignment_and_width(self):
        rng = np.random.default_rng(0)
        emb = ToyContextualEmbedder.from_corpus([["a", "b", "c"], ["b", "c"]], rng, dim=8, char_dim=4)
        lower, upper = emb.embed([["c", "a", "b", "a"]])
        assert lower.shape == (4, 8)
        assert upper.shape == (4, 8)
        assert emb.dim == 8

    def test_inference_is_deterministic(self):
        rng = np.random.default_rng(1)
        emb = ToyContextualEmbedder.from_corpus([["a", "b"], ["b", "a"]], rng, dim=6, char_dim=4)
        a = emb.embed([["a", "b", "a"]])
        b = emb.embed([["a", "b", "a"]])
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_unseen_words_still_embed(self):
        rng = np.random.default_rng(2)
        emb = ToyContextualEmbedder.from_corpus([["ab", "cd"], ["cd", "ab"]], rng, dim=6, char_dim=4)
        lower, _ = emb.embed([["zz", "qq"]])
        assert lower.shape == (2, 6)

    def test_perplexity_decreases_during_training(self):
        corpus = toy_corpus()
        assert sum(len(s) for s in corpus) == 1000
        _, history = build_toy_embedder(corpus, dim=16, char_dim=8, epochs=3, lr=0.1, seed=0)
        assert len(history) == 3
        assert history[-1] < history[0]

    def test_freeze_locks_training(self):
        rng = np.random.default_rng(3)
        emb = ToyContextualEmbedder.from_corpus([["a", "b"], ["b", "a"]], rng, dim=6, char_dim=4)
        emb.freeze()
        with pytest.raises(ConfigError):
            emb.train_lm([["a", "b"]], epochs=1)
        first = emb.embed([["a", "b"]])
        again = emb.embed([["a", "b"]])
        assert first[0] is not again[0]  # computed afresh, nothing kept
        assert first[0].tobytes() == again[0].tobytes()
        assert first[1].tobytes() == again[1].tobytes()

    def test_sentences_that_join_alike_embed_apart(self):
        # "a b" + "c" and "a" + "b c" join to the same string; a frozen
        # embedder must still give each its own vectors
        words = [["a b", "c", "a", "b c"], ["c", "a"]]
        first = ToyContextualEmbedder.from_corpus(words, np.random.default_rng(7), dim=6, char_dim=4)
        second = ToyContextualEmbedder.from_corpus(words, np.random.default_rng(7), dim=6, char_dim=4)
        first.freeze()
        second.freeze()
        first.embed([["a b", "c"]])
        got = first.embed([["a", "b c"]])
        want = second.embed([["a", "b c"]])
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert not np.array_equal(got[0], first.embed([["a b", "c"]])[0])

    def test_serving_distinct_sentences_keeps_no_memory(self):
        # a frozen embedder at the served width embeds 500 distinct 20-token
        # sentences; what it keeps must not grow with them (a per-sentence
        # store keeps about 20 KB each)
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(50)]
        emb = ToyContextualEmbedder.from_corpus([words], rng, dim=64, char_dim=16)
        emb.freeze()
        sentences = [[words[j] for j in rng.integers(0, len(words), 20)] for _ in range(500)]
        assert len({tuple(s) for s in sentences}) == 500
        emb.embed([sentences[0]])  # first-call allocations are not growth
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for tokens in sentences:
                emb.embed([tokens])
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1_000_000, f"traced memory grew by {grown} bytes"

    def test_one_sentence_is_one_unbatched_scan_per_layer(self):
        # the single-sentence call as it was before batches: the sentence's
        # distinct words through the character convolution, then one scan
        # per layer over one sequence, without lengths
        emb = ToyContextualEmbedder.from_corpus(toy_corpus(20), np.random.default_rng(9),
                                                dim=8, char_dim=4)
        tokens = ["sun", "moon", "sun", "zz", "moonlight"]
        words = list(dict.fromkeys(tokens))
        with T.no_grad():
            (vectors,) = word_level._conv_max_pool(
                emb.char_table, [[emb.char_ids.get(c, emb.CHAR_UNK) for c in w] for w in words],
                emb.CHAR_PAD, [(emb.char_kernel, emb.char_bias)])
            (lower,) = BiGRU.forward([emb.rnn1], [T.gather_rows(vectors, [words.index(t)
                                                                          for t in tokens])])
            (upper,) = BiGRU.forward([emb.rnn2], [lower])
        for got, want in zip(emb.embed([tokens]), (lower, upper)):
            assert_agree(got, want.numpy(), BITWISE)

    def test_a_ragged_batch_equals_each_sentence_alone(self):
        rng = np.random.default_rng(10)
        emb = ToyContextualEmbedder.from_corpus(toy_corpus(20), rng, dim=8, char_dim=4)
        for p in emb.parameters():  # off the zero biases
            p.data += rng.normal(scale=0.3, size=p.shape)
        sentences = [["sun", "moon", "sun"], ["tide"], ["wind", "rain", "leaf", "stone", "zz"],
                     ["moon", "sun"]]
        batched = emb.embed(sentences)
        for b, tokens in enumerate(sentences):
            for got, want in zip(batched, emb.embed([tokens])):
                rows = got.reshape(len(sentences), 5, emb.dim)[b]
                assert_agree(rows[:len(tokens)], want, CLOSE, f"sentence {b}")
                assert not rows[len(tokens):].any()

    def test_tiny_corpus_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DataError):
            ToyContextualEmbedder.from_corpus([["solo"]], rng)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            ToyContextualEmbedder(["a", "b"], ["a", "b"], np.random.default_rng(0), dim=7)

    def test_batched_character_conv_equals_a_per_word_reference(self):
        rng = np.random.default_rng(6)
        emb = ToyContextualEmbedder.from_corpus([["sun", "a", "moonlight"], ["a", "sun"]],
                                                rng, dim=6, char_dim=4)
        assert np.any(emb.char_table.numpy()[emb.CHAR_PAD] != 0.0)  # pads are real rows
        # repeats, one- and two-character words (padded to the kernel), an
        # unknown character, and one long word that leaves the rest padded
        tokens = ["sun", "a", "moonlight", "a", "zq", "sun", "x"]

        def per_word(tokens):
            vectors = []
            for word in tokens:
                idxs = [emb.char_ids.get(c, emb.CHAR_UNK) for c in word]
                idxs += [emb.CHAR_PAD] * max(0, 3 - len(idxs))
                conv = T.tanh(T.conv1d(T.gather_rows(emb.char_table, idxs),
                                       emb.char_kernel, emb.char_bias))
                vectors.append(T.topk_pool(conv, 1, 1, [conv.shape[0]]))
            (lower,) = BiGRU.forward([emb.rnn1], [T.concat(vectors, axis=0)])
            (upper,) = BiGRU.forward([emb.rnn2], [lower])
            return lower, upper

        w = rng.normal(size=(2, len(tokens), emb.dim))
        results = []
        for layers in (lambda tokens: emb._layers([tokens]), per_word):
            lower, upper = layers(tokens)
            T.backward(sum_all(T.mul(lower, T.constant(w[0])))
                       + sum_all(T.mul(upper, T.constant(w[1]))))
            grads = []
            for p in emb.parameters():
                grads.append(p.grad)
                p.grad = None
            results.append((lower.numpy(), upper.numpy(), grads))
        (lo, up, grads), (ref_lo, ref_up, ref_grads) = results
        assert np.max(np.abs(lo - ref_lo)) < 1e-12
        assert np.max(np.abs(up - ref_up)) < 1e-12
        for p, got, want in zip(emb.parameters(), grads, ref_grads):
            assert (got is None) == (want is None), p.name
            if got is not None:
                assert np.max(np.abs(got - want)) < 1e-12, p.name


class FixedContextualEmbedder:
    """Deterministic per-token vectors for tests, derived from a seed; it
    has what ``TokenEmbedder`` reads of a contextual embedder."""

    def __init__(self, dim):
        self.dim = dim

    def embed(self, sentences):
        def vec(tok, layer):
            rng = np.random.default_rng(abs(hash((tok, layer))) % (2 ** 32))
            return rng.normal(size=self.dim)
        n = max(len(tokens) for tokens in sentences)
        layers = np.zeros((2, len(sentences), n, self.dim))
        for b, tokens in enumerate(sentences):
            for j, tok in enumerate(tokens):
                layers[:, b, j] = vec(tok, 0), vec(tok, 1)
        return tuple(layer.reshape(len(sentences) * n, self.dim) for layer in layers)


def full_embedder(seed=0, dim_w=4, ctx_dim=6, ctx_out=4, toy=False):
    """Word + subword + contextual; the contextual part is a fixed table, or
    an untrained toy language model with ``toy``."""
    rng = np.random.default_rng(seed)
    vocab = {"aa": 0, "bb": 1, "cc": 2}
    table = WordEmbeddingTable(vocab, rng.normal(size=(3, dim_w)))
    merges = learn_bpe({"aa": 3, "bb": 3, "cc": 3}, 4)
    enc = SubwordEncoder(["aa", "bb", "cc", "a", "b", "c"], rng,
                         emb_dim=3, kernel_sizes=(2, 3), channels=2)
    mixer = ContextualMixer(ctx_dim, ctx_out, rng)
    if toy:
        ctx = ToyContextualEmbedder.from_corpus([["aa", "bb", "cc"], ["cc", "aa"]], rng,
                                                dim=ctx_dim, char_dim=3)
        ctx.freeze()
    else:
        ctx = FixedContextualEmbedder(ctx_dim)
    return TokenEmbedder(table, enc, merges, mixer, ctx)


class TestTokenEmbedder:
    def test_layout_slices_recompute_from_parts(self):
        emb = full_embedder()
        tokens = ["aa", "bb", "zz"]
        with T.no_grad():
            out = emb.embed([tokens], 3).numpy()
            sub = T.concat([emb.subword.encode_indices([emb.subword.indices(pieces)])
                            for pieces in (["aa"], ["bb"], ["z", "z"])], axis=0).numpy()
            lower, upper = emb.contextual.embed([tokens])
            ctx = emb.mixer.forward(T.constant(lower), T.constant(upper)).numpy()
        assert out.shape == (3, 12)
        assert_agree(out[:, 0:4], emb.word_table.embed(tokens), BITWISE)
        # one encode over the three tokens, against three one-token encodes
        assert_agree(out[:, 4:8], sub, CLOSE)
        assert_agree(out[:, 8:12], ctx, BITWISE)

    def test_all_zero_parts_give_zero_rows(self):
        emb = full_embedder(seed=1)
        for p in emb.subword.parameters():
            p.data[...] = 0.0
        emb.mixer.scale.data[...] = 0.0
        emb.mixer.proj_b.data[...] = 0.0
        with T.no_grad():
            out = emb.embed([["zz"]], 1).numpy()  # out-of-vocabulary word
        assert np.array_equal(out, np.zeros((1, 12)))

    def test_padding_rows_get_bias_only_context(self):
        emb = full_embedder(seed=2)
        with T.no_grad():
            out = emb.embed([["aa", "bb"]], 4).numpy()
        assert np.array_equal(out[2, 0:4], np.zeros(4))  # pad word vector
        assert np.array_equal(out[2, 8:12], emb.mixer.proj_b.numpy())
        assert np.array_equal(out[3, 8:12], emb.mixer.proj_b.numpy())

    def test_pad_in_the_vector_vocabulary_still_embeds_to_zeros(self):
        rng = np.random.default_rng(9)
        table = WordEmbeddingTable({"<pad>": 0, "x": 1}, rng.normal(size=(2, 4)))
        emb = TokenEmbedder(word_table=table)
        with T.no_grad():
            out = emb.embed([["x", "<pad>"], ["<pad>"]], 3).numpy()
        assert np.array_equal(out[0], table.matrix[1])
        assert np.array_equal(np.delete(out, 0, axis=0), np.zeros((5, 4)))

    def test_repeated_tokens_share_one_subword_encoding(self):
        emb = full_embedder(seed=3)
        with T.no_grad():
            out = emb.embed([["aa", "bb", "aa"], ["bb", "aa"]], 3).numpy()
        assert np.array_equal(out[0, 4:8], out[2, 4:8])
        assert np.array_equal(out[0, 4:8], out[4, 4:8])
        assert np.array_equal(out[1, 4:8], out[3, 4:8])

    def test_each_token_is_segmented_once_across_sentences(self, monkeypatch):
        sentences = [["aa", "bb", "zz"], ["bb", "cc", "aa"], ["zz", "<pad>", "cc"]]
        with T.no_grad():
            unmemoised = [full_embedder(seed=5).embed([s], 3).numpy() for s in sentences]
        calls = []

        def counting_apply_bpe(word, table):
            calls.append(word)
            return apply_bpe(word, table)

        monkeypatch.setattr(word_level, "apply_bpe", counting_apply_bpe)
        emb = full_embedder(seed=5)
        with T.no_grad():
            memoised = [emb.embed([s], 3).numpy() for s in sentences]
        assert sorted(calls) == ["aa", "bb", "cc", "zz"]
        for got, want in zip(memoised, unmemoised):
            assert np.array_equal(got, want)

    def test_one_call_is_one_subword_batch_over_its_distinct_tokens(self, monkeypatch):
        emb = full_embedder(seed=6)
        batches = []
        encode = emb.subword.encode_indices

        def recording_encode(rows):
            batches.append(rows)
            return encode(rows)

        monkeypatch.setattr(emb.subword, "encode_indices", recording_encode)
        with T.no_grad():
            emb.embed([["aa", "bb", "aa"], ["zz", "bb"], ["cc", "aa", "bb", "zz", "cc"]], 4)
        # aa, bb, <pad>, zz, cc: each once, in first-appearance order
        assert batches == [[emb._token_piece_indices(tok)
                            for tok in ["aa", "bb", "<pad>", "zz", "cc"]]]

    def test_one_call_is_one_language_model_call_over_the_cut_arguments(self, monkeypatch):
        emb = full_embedder(seed=8, toy=True)
        calls = []
        embed = emb.contextual.embed

        def recording_embed(sentences):
            calls.append([list(tokens) for tokens in sentences])
            return embed(sentences)

        monkeypatch.setattr(emb.contextual, "embed", recording_embed)
        with T.no_grad():
            emb.embed([["aa", "bb", "aa"], ["zz"], ["cc", "aa", "bb", "zz", "cc"]], 4)
        assert calls == [[["aa", "bb", "aa"], ["zz"], ["cc", "aa", "bb", "zz"]]]

    def test_gradients_with_repeated_tokens(self):
        emb = full_embedder(seed=4)

        def loss():
            return sum_all(emb.embed([["aa", "aa", "bb"], ["bb", "zz"]], 3))

        assert_grads_match(loss, emb.parameters(), entries_per_array=5, tol=1e-6)

    def test_word_only_configuration(self):
        rng = np.random.default_rng(5)
        table = WordEmbeddingTable({"x": 0}, rng.normal(size=(1, 4)))
        emb = TokenEmbedder(word_table=table)
        assert emb.dim == 4
        assert emb.parameters() == []
        with T.no_grad():
            out = emb.embed([["x", "y"]], 2).numpy()
        assert np.array_equal(out[0], table.matrix[0])

    def test_invalid_configurations_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ConfigError):
            TokenEmbedder()
        enc = SubwordEncoder(["a"], rng, emb_dim=2, kernel_sizes=(2,), channels=2)
        with pytest.raises(ConfigError):
            TokenEmbedder(subword=enc)  # merge table missing
        mixer = ContextualMixer(4, 2, rng)
        with pytest.raises(ConfigError):
            TokenEmbedder(mixer=mixer)  # embedder missing
        with pytest.raises(ShapeError):
            TokenEmbedder(mixer=mixer, contextual=FixedContextualEmbedder(5))

    def test_empty_batches_arguments_and_rows_rejected(self):
        emb = full_embedder(seed=7)
        with pytest.raises(DataError):
            emb.embed([], 3)
        with pytest.raises(DataError):
            emb.embed([["aa"], []], 3)
        with pytest.raises(ConfigError):
            emb.embed([["aa"]], 0)


def embedder_config(config):
    """A token embedder with the parts ``config`` names, off its zero init."""
    if config == "word":
        emb = TokenEmbedder(word_table=full_embedder(seed=11).word_table)
    elif config == "subword":
        full = full_embedder(seed=11)
        emb = TokenEmbedder(subword=full.subword, merges=full.merges)
    else:
        emb = full_embedder(seed=11, toy=config == "full-toy")
    noise = np.random.default_rng(12)
    for p in emb.parameters():
        p.data += noise.normal(scale=0.3, size=p.shape)
    return emb


# repeated tokens, a literal <pad>, unknown words, and arguments longer than
# ``rows`` (7 and 6 tokens at rows 3 and 5)
EQ_ARGUMENTS = [["aa", "bb", "aa", "zz"], ["cc", "<pad>", "aa", "bb", "cc", "aa", "bb"],
                ["zz"], ["bb", "bb", "qq", "aa", "cc", "zz"]]


def embed_both_ways(emb, arguments, rows):
    """(output, parameter gradients) of ``embed`` and of the per-sentence
    oracle, each under the same random linear loss."""
    w = np.random.default_rng(13).normal(size=(len(arguments) * rows, emb.dim))
    results = []
    for embed in (emb.embed, lambda args, n: embed_oracle.per_sentence_embed(emb, args, n)):
        out = embed(arguments, rows)
        T.backward(sum_all(T.mul(out, T.constant(w))))
        grads = []
        for p in emb.parameters():
            grads.append(p.grad)
            p.grad = None
        results.append((out.numpy(), grads))
    return results


def assert_grads_close(emb, grads, want_grads):
    for p, g, ref in zip(emb.parameters(), grads, want_grads):
        assert (g is None) == (ref is None), p.name
        if g is not None:
            assert np.max(np.abs(g - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), p.name


class TestEmbedEqualsThePerSentencePath:
    @pytest.mark.parametrize("config", ["word", "subword", "full", "full-toy"])
    @pytest.mark.parametrize("rows", [3, 5, 9])
    @pytest.mark.parametrize("count", [1, 4])
    def test_outputs_and_gradients_match(self, config, rows, count):
        # Over several sentences, the batch encodes their distinct tokens in
        # one product and the oracle sentence by sentence: different row
        # counts, so outputs agree within 1e-10.  A word-only embedding is a
        # plain gather, and one sentence is the same product either way.
        emb = embedder_config(config)
        (got, grads), (want, want_grads) = embed_both_ways(emb, EQ_ARGUMENTS[:count], rows)
        assert got.shape == (count * rows, emb.dim)
        assert_agree(got, want, shapes_claim(config == "word" or count == 1))
        assert_grads_close(emb, grads, want_grads)

    @pytest.mark.parametrize("config", ["subword", "full-toy"])
    def test_one_row_sentences_agree_to_rounding(self, config):
        # with one distinct token per sentence, the per-sentence path
        # multiplies one-row matrices, which numpy hands to a matrix-vector
        # product; its rounding may differ from the batch's matrix product
        emb = embedder_config(config)
        (got, grads), (want, want_grads) = embed_both_ways(emb, EQ_ARGUMENTS, 1)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        assert_grads_close(emb, grads, want_grads)
