import json
import re

import numpy as np
import pytest
from hypothesis import example, given

from byte_mutations import mutations
from discrel.bpe import load_merge_table, load_word_frequencies
from discrel.cli import _FAILURES
from discrel.config import parse_config
from discrel.data import (
    ELEVEN_WAY_SENSES,
    PDTB_JI,
    PDTB_LIN,
    EvalInstance,
    InstanceRecord,
    LabelSpace,
    SplitConfig,
    accuracy_multigold,
    f1_binary,
    load_corpus,
    macro_f1_4way,
    make_splits,
    pad_truncate,
    save_corpus,
    synthetic_corpus,
    synthetic_word_vectors,
)
from discrel.errors import ConfigError, DataError, LabelError, ParseError
from discrel.pipeline import MANIFEST_NAME, load_contextual_model
from discrel.training import load_trace
from discrel.word_level import load_word_vectors


def make_record(senses, section=2, connective="because"):
    return InstanceRecord(arg1=["a", "b"], arg2=["c"], senses=list(senses),
                          connective=connective, section=section)


class TestInstanceRecord:
    def test_validation(self):
        with pytest.raises(DataError):
            InstanceRecord(arg1=[], arg2=["x"], senses=["Expansion.List"])
        with pytest.raises(DataError):
            InstanceRecord(arg1=["x"], arg2=["y"], senses=[])
        with pytest.raises(DataError):
            InstanceRecord(arg1=["x"], arg2=["y"], senses=["Expansion.List"], section=25)
        with pytest.raises(DataError):
            InstanceRecord(arg1=["x"], arg2=["y"], senses=["Expansion.List"], connective=3)
        with pytest.raises(DataError, match="section"):
            InstanceRecord(arg1=["x"], arg2=["y"], senses=["Expansion.List"], section=True)

    def test_empty_token_rejected(self):
        with pytest.raises(DataError, match="arg2 token '' is empty or holds whitespace"):
            InstanceRecord(arg1=["x"], arg2=["y", ""], senses=["Expansion.List"])

    @pytest.mark.parametrize("token", ["a b", " a", "b\t", "\n", "a\u00a0b", "\u3000"])
    def test_token_with_whitespace_rejected(self, token):
        # the merge table and the vector file separate fields with spaces
        with pytest.raises(DataError, match=re.escape(f"arg1 token {token!r} is empty")):
            InstanceRecord(arg1=["x", token], arg2=["y"], senses=["Expansion.List"])

    def test_connective_may_be_absent(self):
        rec = make_record(["Expansion.List"], connective=None)
        assert rec.connective is None


class TestCorpusIO:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_corpus(path) == []

    def test_two_senses_survive_loading(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, [make_record(["Expansion.List", "Contingency.Cause"])])
        (rec,) = load_corpus(path)
        assert rec.senses == ["Expansion.List", "Contingency.Cause"]

    def test_round_trip(self, tmp_path):
        records = synthetic_corpus(10, ELEVEN_WAY_SENSES, seed=3, multi_sense_rate=0.5)
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, records)
        assert load_corpus(path) == records

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, [make_record(["Expansion.List"])])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(ParseError, match=":2"):
            load_corpus(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"arg1": ["a"], "arg2": ["b"], "senses": ["Expansion.List"], '
                        '"section": 2, "exra": 1}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="exra"):
            load_corpus(path)

    def test_boolean_section_is_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"arg1": ["a"], "arg2": ["b"], "senses": ["Expansion.List"], '
                        '"section": true}\n', encoding="utf-8")
        with pytest.raises(ParseError, match=r":1: section must be an integer"):
            load_corpus(path)

    @pytest.mark.parametrize("token", ["", "a b"])
    def test_bad_token_reports_line(self, tmp_path, token):
        path = tmp_path / "corpus.jsonl"
        save_corpus(path, [make_record(["Expansion.List"])])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"arg1": ["a", token], "arg2": ["b"],
                                 "senses": ["Expansion.List"]}) + "\n")
        with pytest.raises(ParseError, match=re.escape(
                f"{path}:2: arg1 token {token!r} is empty or holds whitespace")):
            load_corpus(path)

    def test_invalid_record_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"arg1": ["a"], "arg2": ["b"], "senses": [], "section": 2}\n',
                        encoding="utf-8")
        with pytest.raises(ParseError, match=":1"):
            load_corpus(path)


class TestSplitConfig:
    def test_preset_definitions(self):
        assert PDTB_LIN.train_sections == frozenset(range(2, 22))
        assert PDTB_LIN.dev_sections == frozenset({22})
        assert PDTB_LIN.test_sections == frozenset({23})
        assert PDTB_JI.train_sections == frozenset(range(2, 21))
        assert PDTB_JI.dev_sections == frozenset({0, 1})
        assert PDTB_JI.test_sections == frozenset({21, 22})

    def test_presets_are_disjoint(self):
        for cfg in (PDTB_LIN, PDTB_JI):
            assert not cfg.train_sections & cfg.dev_sections
            assert not cfg.train_sections & cfg.test_sections
            assert not cfg.dev_sections & cfg.test_sections

    def test_overlap_rejected(self):
        with pytest.raises(ConfigError):
            SplitConfig("bad", frozenset({1, 2}), frozenset({2}), frozenset({3}))


class TestLabelSpace:
    def test_eleven_way_is_total_on_retained(self):
        space = LabelSpace.eleven_way()
        assert space.n_classes == 11
        got = [space.label_of(s) for s in ELEVEN_WAY_SENSES]
        assert got == list(range(11))

    def test_rare_types_dropped_not_errors(self):
        space = LabelSpace.eleven_way()
        assert space.label_of("Contingency.Condition") is None
        assert space.label_of("Expansion.Exception") is None
        assert space.label_of("EntRel") is None

    def test_garbage_sense_raises(self):
        for space in (LabelSpace.eleven_way(), LabelSpace.four_way(), LabelSpace.binary("Temporal")):
            with pytest.raises(LabelError):
                space.label_of("Banana.Split")

    def test_four_way_maps_top_level(self):
        space = LabelSpace.four_way()
        assert space.label_of("Comparison.Contrast") == 0
        assert space.label_of("Contingency.Pragmatic cause") == 1
        assert space.label_of("Expansion.Exception") == 2  # no rare-type removal here
        assert space.label_of("Temporal.Synchrony") == 3
        assert space.label_of("EntRel") is None

    def test_binary_one_vs_others(self):
        space = LabelSpace.binary("Expansion")
        assert space.n_classes == 2
        assert space.label_of("Expansion.List") == 1
        assert space.label_of("Temporal.Synchrony") == 0
        with pytest.raises(LabelError):
            LabelSpace.binary("Expansion.List")

    def test_labels_of_deduplicates(self):
        space = LabelSpace.four_way()
        labels = space.labels_of(["Expansion.List", "Expansion.Conjunction", "Temporal.Synchrony"])
        assert labels == [2, 3]


class TestMakeSplits:
    def test_multi_sense_training_duplication(self):
        space = LabelSpace.eleven_way()
        records = [
            make_record(["Expansion.List", "Contingency.Cause"], section=2),
            make_record(["Temporal.Synchrony"], section=3),
            make_record(["Expansion.Exception"], section=4),  # nothing retained
        ]
        splits = make_splits(records, PDTB_LIN, space)
        assert len(splits.train) == 3
        expected = sum(len(space.labels_of(r.senses)) for r in records)
        assert len(splits.train) == expected
        assert [t.label for t in splits.train[:2]] == [space.label_of("Expansion.List"),
                                                       space.label_of("Contingency.Cause")]

    def test_eval_keeps_full_gold_set(self):
        space = LabelSpace.eleven_way()
        records = [make_record(["Expansion.List", "Contingency.Cause"], section=23)]
        splits = make_splits(records, PDTB_LIN, space)
        (inst,) = splits.test
        assert isinstance(inst, EvalInstance)
        assert inst.gold == frozenset({space.label_of("Expansion.List"),
                                       space.label_of("Contingency.Cause")})

    def test_section_routing_and_exclusion(self):
        space = LabelSpace.four_way()
        records = [make_record(["Expansion.List"], section=s) for s in (2, 21, 22, 23, 24, 0)]
        lin = make_splits(records, PDTB_LIN, space)
        assert (len(lin.train), len(lin.dev), len(lin.test)) == (2, 1, 1)  # 24 and 0 dropped
        ji = make_splits(records, PDTB_JI, space)
        assert (len(ji.train), len(ji.dev), len(ji.test)) == (1, 1, 2)

    def test_unknown_sense_raises(self):
        with pytest.raises(LabelError):
            make_splits([make_record(["Nonsense.Type"])], PDTB_LIN, LabelSpace.four_way())


class TestPadTruncate:
    def test_short_input_padded(self):
        out = pad_truncate(["a", "b", "c"])
        assert len(out) == 100
        assert out[:3] == ["a", "b", "c"]
        assert out[3:] == ["<pad>"] * 97

    def test_long_input_truncated(self):
        out = pad_truncate([f"t{i}" for i in range(150)])
        assert out == [f"t{i}" for i in range(100)]

    def test_exact_length_unchanged(self):
        tokens = [f"t{i}" for i in range(100)]
        assert pad_truncate(tokens) == tokens

    def test_idempotent(self):
        tokens = ["x"] * 7
        once = pad_truncate(tokens, n=20)
        assert pad_truncate(once, n=20) == once

    def test_bad_length_rejected(self):
        with pytest.raises(ConfigError):
            pad_truncate(["a"], n=0)


# ---------------------------------------------------------------------------
# Metric oracles: confusion-matrix recomputation through the identity
# F1 = 2*TP / (2*TP + FP + FN), structurally unlike the package's
# precision/recall route.


def confusion(predictions, gold, k):
    c = np.zeros((k, k), dtype=int)
    for p, g in zip(predictions, gold):
        c[g, p] += 1
    return c


def oracle_f1(predictions, gold, cls, k):
    c = confusion(predictions, gold, k)
    tp = c[cls, cls]
    fp = c[:, cls].sum() - tp
    fn = c[cls, :].sum() - tp
    denom = 2 * tp + fp + fn
    return 100.0 * (2.0 * tp / denom if denom else 0.0)


class TestAccuracy:
    def test_multigold_match_counts(self):
        gold = [frozenset({0, 1}), frozenset({2}), frozenset({1}), frozenset({3})]
        assert accuracy_multigold([1, 2, 0, 3], gold) == 0.75

    def test_single_gold_miss(self):
        assert accuracy_multigold([1], [frozenset({0})]) == 0.0

    def test_count_mismatch_rejected(self):
        with pytest.raises(DataError):
            accuracy_multigold([1, 2], [frozenset({1})])
        with pytest.raises(DataError):
            accuracy_multigold([], [])


class TestF1Binary:
    def test_perfect(self):
        assert f1_binary([1, 0, 1], [1, 0, 1]) == 100.0

    def test_no_positive_predictions(self):
        assert f1_binary([0, 0, 0], [1, 1, 0]) == 0.0

    def test_closed_form_case(self):
        # TP=2, FP=1, FN=1: precision and recall are both 2/3.
        preds = [1, 1, 1, 0, 0]
        gold = [1, 1, 0, 1, 0]
        assert abs(f1_binary(preds, gold) - 200.0 / 3.0) < 1e-12

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            preds = rng.integers(0, 2, size=n).tolist()
            gold = rng.integers(0, 2, size=n).tolist()
            assert abs(f1_binary(preds, gold) - oracle_f1(preds, gold, 1, 2)) < 1e-12


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1_4way([0, 1, 2, 3], [0, 1, 2, 3]) == 100.0

    def test_absent_class_costs_its_quarter(self):
        # Classes 1 and 2 predicted perfectly; class 3 never predicted, its
        # gold instance mispredicted as 0.  Class 3 contributes exactly 0.
        preds = [0, 1, 2, 0]
        gold = [0, 1, 2, 3]
        got = macro_f1_4way(preds, gold)
        want = sum(oracle_f1(preds, gold, c, 4) for c in range(4)) / 4.0
        assert abs(got - want) < 1e-12
        assert oracle_f1(preds, gold, 3, 4) == 0.0
        # Class 0: tp=1, fp=1, fn=0 -> F1 = 2/3; classes 1,2 perfect.
        assert abs(got - (200.0 / 3.0 + 100.0 + 100.0 + 0.0) / 4.0) < 1e-12

    def test_crafted_confusion_hand_value(self):
        # Per-class F1: 100 (two clean hits), 0 (both gold-1 missed),
        # 66.67 (tp=2, fp=1, fn=1), 50 (tp=1, fp=2, fn=0).
        gold = [0, 2, 2, 2, 1, 1, 3, 0]
        preds = [0, 2, 2, 3, 2, 3, 3, 0]
        got = macro_f1_4way(preds, gold)
        assert abs(got - (100.0 + 0.0 + 200.0 / 3.0 + 50.0) / 4.0) < 1e-12
        assert round(got, 2) == 54.17

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            preds = rng.integers(0, 4, size=n).tolist()
            gold = rng.integers(0, 4, size=n).tolist()
            want = sum(oracle_f1(preds, gold, c, 4) for c in range(4)) / 4.0
            assert abs(macro_f1_4way(preds, gold) - want) < 1e-12


class TestSyntheticCorpus:
    def test_deterministic_and_sized(self):
        a = synthetic_corpus(12, ["Expansion.List", "Contingency.Cause"], seed=5)
        b = synthetic_corpus(12, ["Expansion.List", "Contingency.Cause"], seed=5)
        assert a == b
        assert len(a) == 12

    def test_classes_cycle_with_planted_cues(self):
        records = synthetic_corpus(6, ["Expansion.List", "Contingency.Cause"], seed=1)
        for i, rec in enumerate(records):
            c = i % 2
            assert rec.senses[0] == ["Expansion.List", "Contingency.Cause"][c]
            assert f"cue{c}a" in rec.arg1
            assert f"cue{c}b" in rec.arg2
            assert rec.connective == f"conn{c}"

    def test_sections_cover_all_split_parts(self):
        records = synthetic_corpus(50, ["Expansion.List"], seed=2)
        splits = make_splits(records, PDTB_LIN, LabelSpace.four_way())
        assert splits.train and splits.dev and splits.test

    def test_multi_sense_rate(self):
        records = synthetic_corpus(40, ELEVEN_WAY_SENSES, seed=3, multi_sense_rate=1.0)
        assert all(len(r.senses) == 2 for r in records)
        assert all(r.senses[0] != r.senses[1] for r in records)

    def test_word_vectors_cover_vocabulary(self):
        records = synthetic_corpus(8, ["Expansion.List"], seed=4)
        vocab, matrix = synthetic_word_vectors(records, dim=6, seed=4)
        words = {t for r in records for t in r.arg1 + r.arg2}
        assert set(vocab) == words
        assert matrix.shape == (len(words), 6)


# ---------------------------------------------------------------------------
# Every text loader reports a non-UTF-8 byte as a ParseError naming the file


_VALID_RECORD = b'{"arg1": ["a"], "arg2": ["b"], "senses": ["Expansion.List"]}\n'


def load_lm_manifest(path):
    """Load the pretrained language model whose manifest is ``path``."""
    return load_contextual_model(path.parent)


@pytest.mark.parametrize("load,name,data", [
    pytest.param(load_merge_table, "input.txt", b"a b\n\xff c\n", id="merges"),
    pytest.param(load_word_frequencies, "input.txt", b"a 3\n\xff 2\n", id="frequencies"),
    pytest.param(load_word_vectors, "input.txt", b"a 0.5 1.0\n\xff 0.5 1.0\n",
                 id="word_vectors"),
    pytest.param(load_corpus, "input.txt", _VALID_RECORD + b'{"arg1": ["\xff"]}\n',
                 id="corpus"),
    pytest.param(load_lm_manifest, MANIFEST_NAME,
                 b'{"format": "discrel-lm 1", "contextual": {"words": ["\xff"]}}\n',
                 id="contextual"),
    pytest.param(load_trace, "input.txt", b"epoch,train_loss,dev_accuracy\n1,0.5,\xff\n",
                 id="trace"),
    pytest.param(parse_config, "input.txt", b"[model]\nlayers = \xff\n", id="config"),
])
def test_text_loaders_report_non_utf8_bytes(tmp_path, load, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(ParseError, match=re.escape(f"{name}: not UTF-8 text")):
        load(path)


# JSON that Python's reader refuses without a JSONDecodeError: nesting past
# the interpreter's recursion limit (RecursionError), and an integer of more
# digits than int() converts (ValueError, 4,300 by default).
_DEEP_JSON = b"[" * 100_000 + b"\n"
_LONG_INTEGER = (b'{"arg1": ["a"], "arg2": ["b"], "senses": ["Expansion.List"], "section": '
                 + b"7" * 5000 + b"}\n")


@pytest.mark.parametrize("load,name,before,needle", [
    pytest.param(load_corpus, "input.txt", _VALID_RECORD, "input.txt:2: invalid JSON",
                 id="corpus"),
    pytest.param(load_lm_manifest, MANIFEST_NAME, b"",
                 f"{MANIFEST_NAME}: not a JSON manifest", id="manifest"),
])
@pytest.mark.parametrize("line", [_DEEP_JSON, _LONG_INTEGER], ids=["nested", "long-integer"])
def test_json_readers_report_deep_nesting_and_long_integers(tmp_path, load, name, before,
                                                            needle, line):
    path = tmp_path / name
    path.write_bytes(before + line)
    with pytest.raises(ParseError, match=re.escape(needle)):
        load(path)


# Two records, one with two senses and a connective, as save_corpus writes them.
_CORPUS = b"".join(json.dumps(rec.to_dict()).encode() + b"\n" for rec in synthetic_corpus(
    2, ELEVEN_WAY_SENSES, seed=4, arg_len=3, multi_sense_rate=1.0))


# The two inputs above, which random edits rarely reach, are pinned.
@example(corpus=_VALID_RECORD + _DEEP_JSON)
@example(corpus=_VALID_RECORD + _LONG_INTEGER)
@given(corpus=mutations(_CORPUS))
def test_any_mutation_of_a_corpus_loads_or_raises_a_reported_failure(tmp_path_factory, corpus):
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    path.write_bytes(corpus)
    try:
        records = load_corpus(path)
    except _FAILURES:
        return
    assert all(isinstance(rec, InstanceRecord) for rec in records)
