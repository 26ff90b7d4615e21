import numpy as np
import pytest

from discrel import tensor as T
from discrel import word_level
from discrel.bpe import MergeTable, apply_bpe, learn_bpe
from discrel.errors import (
    ConfigError,
    DataError,
    InstanceKeyError,
    ParseError,
    ShapeError,
)
from discrel.word_level import (
    ContextualEmbedder,
    ContextualMixer,
    PrecomputedContextualEmbedder,
    SubwordEncoder,
    TokenEmbedder,
    ToyContextualEmbedder,
    WordEmbeddingTable,
    build_toy_embedder,
    load_word_vectors,
    save_contextual_vectors,
    save_word_vectors,
)
from gradcheck import assert_grads_match


class TestWordEmbeddingTable:
    def make(self, rng, words, dim=4):
        vocab = {w: i for i, w in enumerate(words)}
        return WordEmbeddingTable(vocab, rng.normal(size=(len(words), dim)))

    def test_lookup_returns_stored_row(self):
        rng = np.random.default_rng(0)
        table = self.make(rng, ["cat", "dog"])
        assert np.array_equal(table.lookup("dog"), table.matrix[1])

    def test_oov_and_pad_are_zero(self):
        rng = np.random.default_rng(1)
        table = self.make(rng, ["cat", "<pad>"])
        assert np.array_equal(table.lookup("zebra"), np.zeros(4))
        # Padding wins even over a stored row of the same spelling.
        assert np.array_equal(table.lookup("<pad>"), np.zeros(4))

    def test_embed_stacks_rows(self):
        rng = np.random.default_rng(2)
        table = self.make(rng, ["a", "b"])
        out = table.embed(["b", "a", "b", "zzz"])
        assert out.shape == (4, 4)
        assert np.array_equal(out[0], table.matrix[1])
        assert np.array_equal(out[3], np.zeros(4))

    def test_file_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        vocab = {"alpha": 0, "beta": 1, "gamma": 2}
        matrix = rng.normal(size=(3, 5))
        path = tmp_path / "vectors.txt"
        save_word_vectors(path, vocab, matrix)
        got_vocab, got = load_word_vectors(path)
        assert got_vocab == vocab
        assert np.array_equal(got, matrix)

    def test_header_is_optional(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1.0 2.0 3.0\nb 4.0 5.0 6.0\n", encoding="utf-8")
        table = WordEmbeddingTable.load(path)
        assert table.dim == 3
        assert np.array_equal(table.lookup("b"), [4.0, 5.0, 6.0])

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

    def test_output_shape_and_oracle(self):
        enc = self.make()
        with T.no_grad():
            got = enc.encode(["ab", "e", "cd", "ab"]).numpy()
        want, _ = numpy_subword_forward(enc, enc.indices(["ab", "e", "cd", "ab"]))
        assert got.shape == (1, 4)
        assert np.allclose(got[0], want, atol=1e-12)

    def test_short_sequences_padded_to_kernel_reach(self):
        enc = self.make()
        with T.no_grad():
            got = enc.encode(["e"]).numpy()
        want, _ = numpy_subword_forward(enc, [enc.index["e"], 0, 0])
        assert np.allclose(got[0], want, atol=1e-12)

    def test_gate_off_passes_pools_through(self):
        enc = self.make(seed=1)
        enc.gate_w.data[...] = 0.0
        enc.gate_b.data[...] = -1e3
        with T.no_grad():
            got = enc.encode(["ab", "cd", "e"]).numpy()[0]
        _, u = numpy_subword_forward(enc, enc.indices(["ab", "cd", "e"]))
        assert np.max(np.abs(got - u)) < 1e-6

    def test_gate_on_with_zero_transform_gives_zero(self):
        enc = self.make(seed=2)
        enc.gate_b.data[...] = 1e3
        enc.carry_w.data[...] = 0.0
        enc.carry_b.data[...] = 0.0
        with T.no_grad():
            got = enc.encode(["ab", "cd", "e"]).numpy()
        assert np.max(np.abs(got)) < 1e-6

    def test_repeated_piece_pool_equals_single_window(self):
        # Every convolution window over a constant sequence sees the same
        # content, so the max pool must equal that one window's response.
        enc = self.make(seed=3)
        idx = enc.index["cd"]
        emb = enc.table.numpy()[idx]
        with T.no_grad():
            out = enc.encode_indices([idx] * 4).numpy()[0]
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
            base = enc.encode_indices([enc.PAD_INDEX] * kmax + idxs).numpy()
            more = enc.encode_indices([enc.PAD_INDEX] * (kmax + 2) + idxs).numpy()
        assert np.array_equal(base, more)

    def test_unknown_piece_maps_to_unk_row(self):
        enc = self.make()
        assert enc.indices(["ab", "??"]) == [enc.index["ab"], SubwordEncoder.UNK_INDEX]

    def test_empty_sequence_rejected(self):
        enc = self.make()
        with pytest.raises(DataError):
            enc.encode([])
        with pytest.raises(DataError):
            enc.encode_indices([])

    def test_gradients(self):
        enc = self.make(seed=5)
        idxs = enc.indices(["ab", "cd", "e", "ab"])

        def loss():
            return T.sum_all(enc.encode_indices(idxs))

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

    def test_logit_gap_gives_three_to_one_blend(self):
        mixer = ContextualMixer(2, 2, np.random.default_rng(2))
        mixer.layer_logits.data[...] = [[np.log(3.0), 0.0]]
        assert np.allclose(mixer.weights(), [0.75, 0.25], atol=1e-12)

    def test_weights_stay_on_simplex(self):
        rng = np.random.default_rng(3)
        mixer = ContextualMixer(2, 2, rng)
        for _ in range(20):
            mixer.layer_logits.data[...] = rng.normal(scale=5.0, size=(1, 2))
            w = mixer.weights()
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
            return T.sum_all(mixer.forward(h0, h1))

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
        lower, upper = emb.embed(["c", "a", "b", "a"])
        assert lower.shape == (4, 8)
        assert upper.shape == (4, 8)
        assert emb.dim == 8

    def test_inference_is_deterministic(self):
        rng = np.random.default_rng(1)
        emb = ToyContextualEmbedder.from_corpus([["a", "b"], ["b", "a"]], rng, dim=6, char_dim=4)
        a = emb.embed(["a", "b", "a"])
        b = emb.embed(["a", "b", "a"])
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_unseen_words_still_embed(self):
        rng = np.random.default_rng(2)
        emb = ToyContextualEmbedder.from_corpus([["ab", "cd"], ["cd", "ab"]], rng, dim=6, char_dim=4)
        lower, _ = emb.embed(["zz", "qq"])
        assert lower.shape == (2, 6)

    def test_perplexity_decreases_during_training(self):
        corpus = toy_corpus()
        assert sum(len(s) for s in corpus) == 1000
        _, history = build_toy_embedder(corpus, dim=16, char_dim=8, epochs=3, lr=0.1, seed=0)
        assert len(history) == 3
        assert history[-1] < history[0]

    def test_freeze_locks_training_and_caches(self):
        rng = np.random.default_rng(3)
        emb = ToyContextualEmbedder.from_corpus([["a", "b"], ["b", "a"]], rng, dim=6, char_dim=4)
        emb.freeze()
        with pytest.raises(ConfigError):
            emb.train_lm([["a", "b"]], epochs=1)
        first = emb.embed(["a", "b"])
        again = emb.embed(["a", "b"])
        assert first[0] is again[0]  # served from the cache

    def test_state_round_trip(self):
        rng = np.random.default_rng(4)
        emb = ToyContextualEmbedder.from_corpus([["a", "b"], ["b", "a"]], rng, dim=6, char_dim=4)
        state = emb.state_arrays()
        other = ToyContextualEmbedder(emb.words, emb.chars, np.random.default_rng(99), dim=6, char_dim=4)
        other.load_state_arrays(state)
        a = emb.embed(["a", "b", "a"])
        b = other.embed(["a", "b", "a"])
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_tiny_corpus_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DataError):
            ToyContextualEmbedder.from_corpus([["solo"]], rng)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            ToyContextualEmbedder(["a", "b"], ["a", "b"], np.random.default_rng(0), dim=7)


class TestPrecomputedEmbedder:
    def entries(self, rng, dim=3):
        out = []
        for tokens in (["the", "cat"], ["a", "b", "c"], ["one"]):
            out.append((tokens, rng.normal(size=(len(tokens), dim)),
                        rng.normal(size=(len(tokens), dim))))
        return out

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = self.entries(rng)
        path = tmp_path / "ctx.txt"
        save_contextual_vectors(path, entries, dim=3)
        emb = PrecomputedContextualEmbedder.load(path)
        assert emb.dim == 3
        for tokens, lower, upper in entries:
            got_lower, got_upper = emb.embed(tokens)
            assert np.array_equal(got_lower, lower)
            assert np.array_equal(got_upper, upper)

    def test_missing_instance_named_in_error(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "ctx.txt"
        save_contextual_vectors(path, self.entries(rng), dim=3)
        emb = PrecomputedContextualEmbedder.load(path)
        with pytest.raises(InstanceKeyError, match="the dog"):
            emb.embed(["the", "dog"])

    def test_token_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ctx.txt"
        rows = "\n".join("0.0 0.0" for _ in range(6))
        path.write_text(f"ctxvec 1 2\n@ 3 a b\n{rows}\n", encoding="utf-8")
        emb = PrecomputedContextualEmbedder.load(path)
        with pytest.raises(InstanceKeyError, match="stored 3"):
            emb.embed(["a", "b"])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("vectors go here\n", encoding="utf-8")
        with pytest.raises(ParseError):
            PrecomputedContextualEmbedder.load(path)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text("ctxvec 1 2\n@ 2 a b\n0.0 0.0\n", encoding="utf-8")
        with pytest.raises(ParseError):
            PrecomputedContextualEmbedder.load(path)

    def test_shape_validation_on_save(self, tmp_path):
        with pytest.raises(ShapeError):
            save_contextual_vectors(tmp_path / "ctx.txt",
                                    [(["a", "b"], np.zeros((2, 3)), np.zeros((1, 3)))], dim=3)


class FixedContextualEmbedder(ContextualEmbedder):
    """Deterministic per-token vectors for tests, derived from a seed."""

    def __init__(self, dim):
        self._dim = dim

    @property
    def dim(self):
        return self._dim

    def embed(self, tokens):
        def vec(tok, layer):
            rng = np.random.default_rng(abs(hash((tok, layer))) % (2 ** 32))
            return rng.normal(size=self._dim)
        lower = np.array([vec(t, 0) for t in tokens])
        upper = np.array([vec(t, 1) for t in tokens])
        return lower, upper


def full_embedder(seed=0, dim_w=4, ctx_dim=6, ctx_out=4):
    rng = np.random.default_rng(seed)
    vocab = {"aa": 0, "bb": 1, "cc": 2}
    table = WordEmbeddingTable(vocab, rng.normal(size=(3, dim_w)))
    merges = learn_bpe({"aa": 3, "bb": 3, "cc": 3}, 4)
    enc = SubwordEncoder(["aa", "bb", "cc", "a", "b", "c"], rng,
                         emb_dim=3, kernel_sizes=(2, 3), channels=2)
    mixer = ContextualMixer(ctx_dim, ctx_out, rng)
    ctx = FixedContextualEmbedder(ctx_dim)
    return TokenEmbedder(table, enc, merges, mixer, ctx)


class TestTokenEmbedder:
    def test_layout_slices_recompute_from_parts(self):
        emb = full_embedder()
        tokens = ["aa", "bb", "zz"]
        with T.no_grad():
            out = emb.embed_sentence(tokens).numpy()
            sub = T.concat([emb.subword.encode(["aa"]), emb.subword.encode(["bb"]),
                            emb.subword.encode(["z", "z"])], axis=0).numpy()
            lower, upper = emb.contextual.embed(tokens)
            ctx = emb.mixer.forward(T.constant(lower), T.constant(upper)).numpy()
        assert out.shape == (3, 12)
        assert np.array_equal(out[:, 0:4], emb.word_table.embed(tokens))
        assert np.array_equal(out[:, 4:8], sub)
        assert np.array_equal(out[:, 8:12], ctx)

    def test_all_zero_parts_give_zero_rows(self):
        emb = full_embedder(seed=1)
        for p in emb.subword.parameters():
            p.data[...] = 0.0
        emb.mixer.scale.data[...] = 0.0
        emb.mixer.proj_b.data[...] = 0.0
        with T.no_grad():
            out = emb.embed_sentence(["zz"]).numpy()  # out-of-vocabulary word
        assert np.array_equal(out, np.zeros((1, 12)))

    def test_padding_rows_get_bias_only_context(self):
        emb = full_embedder(seed=2)
        tokens = ["aa", "bb", "<pad>", "<pad>"]
        with T.no_grad():
            out = emb.embed_sentence(tokens, n_real=2).numpy()
        assert np.array_equal(out[2, 0:4], np.zeros(4))  # pad word vector
        assert np.array_equal(out[2, 8:12], emb.mixer.proj_b.numpy())
        assert np.array_equal(out[3, 8:12], emb.mixer.proj_b.numpy())

    def test_repeated_tokens_share_one_subword_encoding(self):
        emb = full_embedder(seed=3)
        with T.no_grad():
            out = emb.embed_sentence(["aa", "bb", "aa"]).numpy()
        assert np.array_equal(out[0, 4:8], out[2, 4:8])

    def test_each_token_is_segmented_once_across_sentences(self, monkeypatch):
        sentences = [["aa", "bb", "zz"], ["bb", "cc", "aa"], ["zz", "<pad>", "cc"]]
        with T.no_grad():
            unmemoised = [full_embedder(seed=5).embed_sentence(s).numpy() for s in sentences]
        calls = []

        def counting_apply_bpe(word, table):
            calls.append(word)
            return apply_bpe(word, table)

        monkeypatch.setattr(word_level, "apply_bpe", counting_apply_bpe)
        emb = full_embedder(seed=5)
        with T.no_grad():
            memoised = [emb.embed_sentence(s).numpy() for s in sentences]
        assert sorted(calls) == ["aa", "bb", "cc", "zz"]
        for got, want in zip(memoised, unmemoised):
            assert np.array_equal(got, want)

    def test_gradients_with_repeated_tokens(self):
        emb = full_embedder(seed=4)
        tokens = ["aa", "aa", "bb"]

        def loss():
            return T.sum_all(emb.embed_sentence(tokens))

        assert_grads_match(loss, emb.parameters(), entries_per_array=5, tol=1e-6)

    def test_word_only_configuration(self):
        rng = np.random.default_rng(5)
        table = WordEmbeddingTable({"x": 0}, rng.normal(size=(1, 4)))
        emb = TokenEmbedder(word_table=table)
        assert emb.dim == 4
        assert emb.parameters() == []
        with T.no_grad():
            out = emb.embed_sentence(["x", "y"]).numpy()
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

    def test_n_real_bounds_checked(self):
        emb = full_embedder(seed=7)
        with pytest.raises(ShapeError):
            emb.embed_sentence(["aa", "bb"], n_real=3)
        with pytest.raises(DataError):
            emb.embed_sentence([])
