import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrel.bpe import (
    MergeTable,
    apply_bpe,
    learn_bpe,
    load_merge_table,
    load_word_frequencies,
    save_merge_table,
    subword_vocabulary,
    word_frequencies,
)
from discrel.cli import _FAILURES
from discrel.errors import DataError, ParseError


# ---------------------------------------------------------------------------
# Reference learner: recomputes every pair statistic from scratch at each
# step.  Same counting convention, deliberately different code shape (run
# grouping instead of an index-jumping scan, no incremental bookkeeping).
# ---------------------------------------------------------------------------

def _oracle_counts(words):
    counts = {}
    for symbols, weight in words:
        runs = [(sym, len(list(grp))) for sym, grp in itertools.groupby(symbols)]
        for sym, length in runs:
            if length >= 2:
                pair = (sym, sym)
                counts[pair] = counts.get(pair, 0) + (length // 2) * weight
        for (s1, _), (s2, _) in zip(runs, runs[1:]):
            pair = (s1, s2)
            counts[pair] = counts.get(pair, 0) + weight
    return counts


def _oracle_merge(symbols, pair):
    merged = []
    pos = 0
    while pos < len(symbols):
        if tuple(symbols[pos:pos + 2]) == pair:
            merged.append(pair[0] + pair[1])
            pos += 2
        else:
            merged.append(symbols[pos])
            pos += 1
    return merged


def oracle_learn(corpus, num_merges):
    words = [(list(w), c) for w, c in corpus.items()]
    merges = []
    for _ in range(num_merges):
        counts = _oracle_counts(words)
        if not counts:
            break
        best = max(counts.values())
        if best < 2:
            break
        pair = min(p for p, c in counts.items() if c == best)
        merges.append(pair)
        words = [(_oracle_merge(s, pair), c) for s, c in words]
    return merges


def replay_bpe(word, merges):
    """Segmentation by replaying every merge in table order."""
    symbols = list(word)
    for pair in merges:
        if len(symbols) == 1:
            break
        symbols = _oracle_merge(symbols, pair)
    return symbols


def random_corpus(rng, alphabet="abc", max_words=20, max_len=5):
    n_words = rng.randint(1, max_words)
    corpus = {}
    for _ in range(n_words):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))
        corpus[word] = corpus.get(word, 0) + rng.randint(1, 5)
    return corpus


class TestLearn:
    def test_repeated_pair_merges_once(self):
        table = learn_bpe({"abab": 1}, 10)
        assert table.merges == [("a", "b")]
        assert apply_bpe("abab", table) == ["ab", "ab"]

    def test_threshold_stops_learning(self):
        table = learn_bpe({"ab": 1}, 10)
        assert table.merges == []

    def test_tie_breaks_lexicographically(self):
        table = learn_bpe({"cd": 3, "ab": 3}, 1)
        assert table.merges == [("a", "b")]

    def test_same_symbol_run_counts_floor_half(self):
        # "aaaa" holds two disjoint (a, a) occurrences; after merging, the
        # two "aa" symbols pair only once, which is below the threshold.
        table = learn_bpe({"aaaa": 1}, 10)
        assert table.merges == [("a", "a")]
        assert apply_bpe("aaaa", table) == ["aa", "aa"]
        assert apply_bpe("aaaaa", table) == ["aa", "aa", "a"]

    def test_merge_count_is_capped(self):
        corpus = {"abcd": 4}
        assert len(learn_bpe(corpus, 2)) == 2
        assert len(learn_bpe(corpus, 0)) == 0

    def test_matches_from_scratch_learner(self):
        rng = random.Random(2024)
        for trial in range(200):
            corpus = random_corpus(rng)
            num_merges = rng.randint(0, 10)
            got = learn_bpe(corpus, num_merges).merges
            want = oracle_learn(corpus, num_merges)
            assert got == want, f"trial {trial}: {got} != {want} on {corpus}"

    def test_prefix_monotonicity(self):
        rng = random.Random(7)
        for _ in range(50):
            corpus = random_corpus(rng)
            short = learn_bpe(corpus, 3).merges
            long = learn_bpe(corpus, 9).merges
            assert long[: len(short)] == short

    def test_rejects_empty_corpus(self):
        with pytest.raises(DataError):
            learn_bpe({}, 5)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(DataError):
            learn_bpe({"ab": 0}, 5)


_WORDS = st.text(alphabet="abcx", min_size=1, max_size=12)


@st.composite
def merge_tables(draw):
    """Merges of characters, of other merges' outputs and of symbols no
    merge produces, in any order and with repeats."""
    symbols = ["a", "b", "c", "cab"]
    merges = []
    for _ in range(draw(st.integers(0, 10))):
        pair = (draw(st.sampled_from(symbols)), draw(st.sampled_from(symbols)))
        merges.append(pair)
        symbols.append(pair[0] + pair[1])
    if merges:
        merges += draw(st.lists(st.sampled_from(merges), max_size=4))
    return draw(st.permutations(merges))


class TestApply:
    def test_empty_table_yields_characters(self):
        assert apply_bpe("xyz", MergeTable()) == ["x", "y", "z"]

    def test_unknown_characters_stay_singletons(self):
        table = learn_bpe({"abab": 2}, 5)
        assert apply_bpe("aqb", table) == ["a", "q", "b"]

    def test_segmentation_is_lossless(self):
        rng = random.Random(11)
        for _ in range(100):
            corpus = random_corpus(rng)
            table = learn_bpe(corpus, rng.randint(0, 8))
            word = "".join(rng.choice("abcq") for _ in range(rng.randint(1, 12)))
            pieces = apply_bpe(word, table)
            assert "".join(pieces) == word
            assert all(pieces)

    def test_matches_oracle_replay(self):
        rng = random.Random(13)
        for _ in range(100):
            corpus = random_corpus(rng)
            table = learn_bpe(corpus, rng.randint(1, 8))
            word = "".join(rng.choice("abc") for _ in range(rng.randint(1, 10)))
            assert apply_bpe(word, table) == replay_bpe(word, table.merges)

    def test_rejects_empty_word(self):
        with pytest.raises(DataError):
            apply_bpe("", MergeTable())

    @settings(max_examples=300)
    @given(_WORDS, merge_tables())
    def test_equals_the_replay_on_arbitrary_tables(self, word, merges):
        assert apply_bpe(word, MergeTable(merges)) == replay_bpe(word, merges)

    @given(_WORDS, st.dictionaries(st.text(alphabet="abc", min_size=1, max_size=6),
                                   st.integers(1, 5), min_size=1, max_size=8),
           st.randoms(use_true_random=False))
    def test_equals_the_replay_on_shuffled_learned_tables(self, word, corpus, shuffler):
        merges = learn_bpe(corpus, 10).merges
        merges = merges + merges[: len(merges) // 2]
        shuffler.shuffle(merges)
        assert apply_bpe(word, MergeTable(merges)) == replay_bpe(word, merges)


class TestTableIO:
    def test_round_trip(self, tmp_path):
        table = learn_bpe({"banana": 3, "bandana": 2}, 6)
        path = tmp_path / "merges.txt"
        save_merge_table(path, table)
        assert load_merge_table(path).merges == table.merges

    def test_order_is_preserved(self, tmp_path):
        path = tmp_path / "merges.txt"
        path.write_text("b a\na b\n", encoding="utf-8")
        assert load_merge_table(path).merges == [("b", "a"), ("a", "b")]

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "merges.txt"
        path.write_text("a b c\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_merge_table(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "merges.txt"
        path.write_text("a b\n\nb c\n", encoding="utf-8")
        assert load_merge_table(path).merges == [("a", "b"), ("b", "c")]


@given(st.text(max_size=80))
def test_any_merge_file_loads_or_raises_a_reported_failure(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_merges.txt"
    path.write_text(text, encoding="utf-8")
    try:
        table = load_merge_table(path)
    except _FAILURES:
        return
    assert "".join(apply_bpe("abcab", table)) == "abcab"


class TestFrequencies:
    def test_word_frequencies_accumulate(self):
        freqs = word_frequencies([["to", "be"], ["or", "not", "to", "be"]])
        assert freqs == {"to": 2, "be": 2, "or": 1, "not": 1}

    def test_frequency_file_round_trip(self, tmp_path):
        path = tmp_path / "freqs.txt"
        path.write_text("apple 4\nbanana 2\napple 1\n", encoding="utf-8")
        assert load_word_frequencies(path) == {"apple": 5, "banana": 2}

    def test_frequency_file_bad_count(self, tmp_path):
        path = tmp_path / "freqs.txt"
        path.write_text("apple four\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_word_frequencies(path)

    def test_vocabulary_lists_chars_then_merges(self):
        table = learn_bpe({"abab": 2}, 3)
        vocab = subword_vocabulary(["abab", "ba"], table)
        assert vocab[: 2] == ["a", "b"]
        assert "ab" in vocab
