"""Run assembly, persistence, restore fidelity, reports, and heatmap export."""

import configparser
import copy
import hashlib
import inspect
import json
import os
import shutil
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from discrel import tensor as T
from discrel.bpe import learn_bpe, save_merge_table, word_frequencies
from discrel.cli import _FAILURES
from discrel.config import RunConfig, parse_config, save_config, to_train_config
from discrel.data import load_corpus, save_corpus, synthetic_corpus, synthetic_word_vectors
from discrel.errors import ConfigError, DataError, InstanceKeyError, ParseError, ShapeError
from discrel.model import RelationModel
from discrel.pipeline import (
    build_model,
    corpus_sentences,
    evaluate_model,
    export_attention,
    load_contextual_model,
    prepare_training,
    quantize_attention_row,
    resolve_output_dir,
    restore_run,
    run_training,
    task_label_space,
    write_matrix_csv,
    write_contextual_model,
    write_pgm,
    write_run,
)
from discrel.training import TrainConfig, predict
from discrel.word_level import (
    WordEmbeddingTable,
    build_toy_embedder,
    save_word_vectors,
)
from byte_mutations import mutations
from claims import CLOSE, assert_agree

SENSES = ["Expansion.Conjunction", "Temporal.Asynchronous"]


def small_config(tmp_path, n_records=50, **overrides) -> RunConfig:
    """A fully materialized tiny word-only run rooted in ``tmp_path``."""
    corpus = tmp_path / "corpus.jsonl"
    vectors = tmp_path / "vectors.txt"
    records = synthetic_corpus(n_records, SENSES, seed=0, filler_words=8, arg_len=5)
    save_corpus(corpus, records)
    vocab, matrix = synthetic_word_vectors(records, dim=8, seed=0)
    save_word_vectors(vectors, vocab, matrix)
    base = RunConfig(
        task="eleven-way", split="lin", block_type="conv", layers=2,
        kernel_size=3, max_tokens=6, learning_rate=0.1, batch_size=8,
        embedding_dropout=0.0, encoder_dropout=0.0, classifier_dropout=0.0,
        epochs=10, patience=10, seed=0, corpus=str(corpus),
        word_vectors=str(vectors), output_dir=str(tmp_path / "run"))
    return replace(base, **overrides)


# ---------------------------------------------------------------------------
# Small helpers


def test_task_label_spaces():
    assert task_label_space("eleven-way").n_classes == 11
    assert task_label_space("four-way").n_classes == 4
    binary = task_label_space("binary:Expansion")
    assert binary.classes == ["others", "Expansion"]
    with pytest.raises(ConfigError):
        task_label_space("three-way")


def test_corpus_sentences_deduplicates_in_order():
    records = synthetic_corpus(6, SENSES, seed=1, filler_words=4, arg_len=4)
    sentences = corpus_sentences(records + records)
    keys = [" ".join(s) for s in sentences]
    assert keys == list(dict.fromkeys(keys))
    assert keys[0] == " ".join(records[0].arg1)


def test_corpus_sentences_keeps_token_sequences_that_join_alike():
    # token lists are compared as lists: joined with spaces these two match
    record = SimpleNamespace(arg1=["a b", "c"], arg2=["a", "b c"])
    assert corpus_sentences([record]) == [["a b", "c"], ["a", "b c"]]


def test_resolve_output_dir_prefers_the_config(monkeypatch):
    monkeypatch.setenv("DISCREL_OUTPUT_ROOT", "/tmp/elsewhere")
    assert str(resolve_output_dir(RunConfig(output_dir="here"))) == "here"
    assert str(resolve_output_dir(RunConfig())) == "/tmp/elsewhere"
    monkeypatch.delenv("DISCREL_OUTPUT_ROOT")
    with pytest.raises(ConfigError, match="paths.output_dir"):
        resolve_output_dir(RunConfig())


def test_file_sha256_tracks_content(tmp_path):
    """The word table's digest, which manifests pin, is the SHA-256 of the
    file's bytes."""
    path = tmp_path / "vectors.txt"
    path.write_bytes(b"alpha 1.0 2.0\n")
    first = WordEmbeddingTable.load(path).sha256
    assert first == hashlib.sha256(b"alpha 1.0 2.0\n").hexdigest()
    path.write_bytes(b"alphb 1.0 2.0\n")
    assert first != WordEmbeddingTable.load(path).sha256


def test_every_training_option_reaches_the_loop_or_the_model():
    # each value differs from its TrainConfig, RunConfig and RelationModel default
    config = replace(RunConfig(), learning_rate=0.02, batch_size=5, epochs=3,
                     patience=1, seed=9, embedding_dropout=0.15,
                     encoder_dropout=0.25, classifier_dropout=0.35)
    loop = to_train_config(config)
    for field in fields(TrainConfig):
        assert getattr(loop, field.name) == getattr(config, field.name), field.name
        assert getattr(loop, field.name) != field.default, field.name
    table = WordEmbeddingTable({"a": 0}, np.ones((1, 4)))
    model = build_model(config, 2, ["x", "y"], table, None, None, None)
    model_defaults = inspect.signature(RelationModel).parameters
    for rate in ("embedding_dropout", "encoder_dropout", "classifier_dropout"):
        assert getattr(model, rate) == getattr(config, rate), rate
        assert getattr(model, rate) not in (getattr(RunConfig(), rate),
                                            model_defaults[rate].default), rate


# ---------------------------------------------------------------------------
# Train -> persist -> restore


def test_training_run_persists_and_restores_predictions(tmp_path):
    config = small_config(tmp_path)
    setup = prepare_training(config)
    result = run_training(setup)
    run_dir = write_run(tmp_path / "run", setup, result)
    for name in ("config.ini", "manifest.json", "model.ckpt", "trace.csv"):
        assert (run_dir / name).is_file()

    restored = restore_run(run_dir)
    assert restored.config == config
    assert restored.labels.classes == setup.labels.classes
    records = load_corpus(config.corpus)
    for rec in records[:6]:
        before = predict(setup.model, rec.arg1, rec.arg2)
        after = predict(restored.model, rec.arg1, rec.arg2)
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1])


def test_rewriting_a_run_replaces_each_file_with_a_new_one(tmp_path):
    config = small_config(tmp_path, epochs=1)
    setup = prepare_training(config)
    result = run_training(setup)
    run_dir = write_run(tmp_path / "run", setup, result)
    names = ("config.ini", "manifest.json", "model.ckpt", "trace.csv")
    (tmp_path / "old").mkdir()
    for name in names:
        os.link(run_dir / name, tmp_path / "old" / name)
    old_bytes = {name: (run_dir / name).read_bytes() for name in names}

    write_run(run_dir, setup, result)
    for name in names:
        assert not os.path.samefile(run_dir / name, tmp_path / "old" / name)
        assert (run_dir / name).read_bytes() == old_bytes[name]
    rec = load_corpus(config.corpus)[0]
    assert np.array_equal(predict(restore_run(run_dir).model, rec.arg1, rec.arg2)[1],
                          predict(setup.model, rec.arg1, rec.arg2)[1])


@pytest.mark.parametrize("written", ["all", "half"])
def test_a_save_cut_short_over_a_finished_run_leaves_no_restorable_run(
        tmp_path, monkeypatch, written):
    config = small_config(tmp_path, epochs=1)
    setup = prepare_training(config)
    result = run_training(setup)
    run_dir = write_run(tmp_path / "run", setup, result)
    for p in setup.model.parameters():  # new weights of the same shapes
        p.data += 0.5
    save_checkpoint = T.save_checkpoint

    def interrupted(path, arrays):
        save_checkpoint(path, arrays)
        if written == "half":
            data = path.read_bytes()
            path.write_bytes(data[:len(data) // 2])
        raise OSError("interrupted")

    monkeypatch.setattr(T, "save_checkpoint", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        write_run(run_dir, setup, replace(result, state=setup.model.state_arrays()))
    assert not (run_dir / "manifest.json").exists()
    with pytest.raises(ConfigError, match="manifest"):
        restore_run(run_dir)


def test_restore_rejects_a_changed_word_vector_file(tmp_path):
    config = small_config(tmp_path, epochs=1)
    setup = prepare_training(config)
    run_dir = write_run(tmp_path / "run", setup, run_training(setup))
    records = load_corpus(config.corpus)
    vocab, matrix = synthetic_word_vectors(records, dim=8, seed=99)
    save_word_vectors(config.word_vectors, vocab, matrix)
    with pytest.raises(ConfigError, match="checksum"):
        restore_run(run_dir)


def test_restore_checks_the_checksum_before_parsing(tmp_path):
    config = small_config(tmp_path, epochs=1)
    setup = prepare_training(config)
    run_dir = write_run(tmp_path / "run", setup, run_training(setup))
    with open(config.word_vectors, "a", encoding="utf-8") as fh:
        fh.write("broken\n")
    with pytest.raises(ConfigError, match="checksum mismatch"):
        restore_run(run_dir)


def test_restore_requires_a_manifest(tmp_path):
    with pytest.raises(ConfigError, match="manifest"):
        restore_run(tmp_path)


def test_restore_rejects_unknown_manifest_formats(tmp_path):
    (tmp_path / "manifest.json").write_text('{"format": "discrel-run 99"}')
    with pytest.raises(ParseError, match="99"):
        restore_run(tmp_path)


def test_restore_names_each_missing_manifest_entry(tmp_path):
    config = small_config(tmp_path, epochs=1)
    setup = prepare_training(config)
    run_dir = write_run(tmp_path / "run", setup, run_training(setup))
    path = run_dir / "manifest.json"
    intact = json.loads(path.read_text(encoding="utf-8"))
    # subword pieces and the toy-embedder vocabulary are read only when used
    for key, parts in [("connectives", {}), ("subword_pieces", {"use_subword": True}),
                       ("word_vectors", {}), ("contextual", {"use_contextual": True})]:
        save_config(run_dir / "config.ini", replace(config, **parts))
        manifest = copy.deepcopy(intact)
        del manifest[key]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ParseError, match=f"entry '{key}'"):
            restore_run(run_dir)


@pytest.mark.parametrize("where, key, value", [
    ((), "connectives", 5),
    ((), "connectives", ["and", 3]),
    ((), "subword_pieces", {"a": 1}),
    (("word_vectors",), "sha256", None),
    (("contextual",), "words", "ab"),
    (("contextual",), "chars", [["a"]]),
], ids=["where0-connectives-5", "where1-connectives-value1", "where3-subword_pieces-value3",
        "where5-sha256-None", "where6-words-ab", "where7-chars-value7"])
def test_restore_names_each_mistyped_manifest_entry(tmp_path, where, key, value):
    config = small_config(tmp_path, epochs=1)
    setup = prepare_training(config)
    run_dir = write_run(tmp_path / "run", setup, run_training(setup))
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["contextual"] = {"words": ["a", "b"], "chars": ["a", "b"]}
    # subword pieces and the toy-embedder vocabulary are read only when used
    save_config(run_dir / "config.ini", replace(config, use_subword=key == "subword_pieces",
                                                use_contextual=where == ("contextual",)))
    target = manifest
    for part in where:
        target = target[part]
    target[key] = value
    path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ParseError, match=f"entry {where[0] + '.' if where else ''}'{key}' must be"):
        restore_run(run_dir)


def test_restore_reads_the_configuration_from_config_ini(tmp_path):
    config = small_config(tmp_path, epochs=1)
    setup = prepare_training(config)
    run_dir = write_run(tmp_path / "run", setup, run_training(setup))
    (run_dir / "config.ini").unlink()
    with pytest.raises(ConfigError, match="config file not found"):
        restore_run(run_dir)


@pytest.mark.parametrize("source", ["fresh", "pretrained"])
def test_a_run_written_in_the_older_layout_restores(tmp_path, source):
    """Run directories once also carried the configuration, the label space,
    the input paths and the embedder widths in the manifest; the reader
    ignores those entries and rebuilds the same model, without the
    pretrained language model's directory."""
    merges = tmp_path / "merges.txt"
    lm_dir = tmp_path / "lm"
    config = small_config(tmp_path, task="binary:Expansion", epochs=2, use_subword=True,
                          merge_table=str(merges), use_contextual=True, contextual_dim=4,
                          contextual_char_dim=2, contextual_epochs=1,
                          contextual_out_dim=3, subword_vector_dim=4, subword_channels=3,
                          contextual_model=str(lm_dir) if source == "pretrained" else "")
    records = load_corpus(config.corpus)
    save_merge_table(merges, learn_bpe(word_frequencies(
        [rec.arg1 for rec in records] + [rec.arg2 for rec in records]), 10))
    toy, _ = build_toy_embedder(corpus_sentences(records), dim=4, char_dim=2, epochs=0)
    write_contextual_model(lm_dir, toy)
    setup = prepare_training(config)
    run_dir = write_run(tmp_path / "run", setup, run_training(setup))
    shutil.rmtree(lm_dir)

    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(run_dir / "config.ini", encoding="utf-8")
    manifest["config"] = {section: {key: getattr(config, "task" if key == "kind" else key)
                                    for key in parser[section]}
                          for section in parser.sections()}
    manifest["task"] = {"mode": setup.labels.mode, "classes": setup.labels.classes,
                        "target": setup.labels.target}
    manifest["word_vectors"]["path"] = config.word_vectors
    manifest["contextual"].update(source=source, dim=4, char_dim=2)
    path.write_text(json.dumps(manifest), encoding="utf-8")

    restored = restore_run(run_dir)
    assert restored.labels.classes == ["others", "Expansion"]
    for rec in records[:6]:
        before = predict(setup.model, rec.arg1, rec.arg2)
        after = predict(restored.model, rec.arg1, rec.arg2)
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1])


# ---------------------------------------------------------------------------
# A pretrained contextual language model


def test_a_pretrained_run_equals_a_fresh_run_with_the_same_language_model(tmp_path):
    """A run whose language model is loaded from a copy of a fresh run's
    writes the same checkpoint, trace and manifest, dropout on, and both
    restore, without the copy, to the same predictions."""
    config = small_config(tmp_path, epochs=3, use_contextual=True, contextual_dim=4,
                          contextual_char_dim=2, contextual_epochs=1, contextual_out_dim=3,
                          embedding_dropout=0.4, encoder_dropout=0.4, classifier_dropout=0.3)
    fresh = prepare_training(config)
    fresh_dir = write_run(tmp_path / "fresh", fresh, run_training(fresh))
    lm_dir = write_contextual_model(tmp_path / "lm", fresh.model.embedder.contextual)
    pretrained = prepare_training(replace(config, contextual_model=str(lm_dir)))
    pretrained_dir = write_run(tmp_path / "pretrained", pretrained, run_training(pretrained))
    for name in ("model.ckpt", "trace.csv", "manifest.json"):
        assert (fresh_dir / name).read_bytes() == (pretrained_dir / name).read_bytes(), name

    shutil.rmtree(lm_dir)
    restored = [restore_run(fresh_dir).model, restore_run(pretrained_dir).model]
    # the last pair holds sentences, and words, that no language model saw
    pairs = [(rec.arg1, rec.arg2) for rec in load_corpus(config.corpus)[:8]]
    pairs.append((["novel", "words", "here"], ["and", "unseen"]))
    for arg1, arg2 in pairs:
        (label, probs), (again, again_probs) = (predict(m, arg1, arg2) for m in restored)
        assert label == again
        assert probs.tobytes() == again_probs.tobytes()


def test_a_language_model_round_trips_bitwise(tmp_path):
    toy, _ = build_toy_embedder([["ab", "c"], ["c", "ab", "d"]], dim=4, char_dim=2,
                                epochs=1)
    loaded = load_contextual_model(write_contextual_model(tmp_path / "lm", toy))
    assert (loaded.words, loaded.chars) == (toy.words, toy.chars)
    assert loaded.frozen
    for name, array in toy.state_arrays().items():
        assert loaded.state_arrays()[name].tobytes() == array.tobytes(), name
    sentences = [["ab", "c"], ["zz", "ab", "q"]]
    for got, want in zip(loaded.embed(sentences), toy.embed(sentences)):
        assert got.tobytes() == want.tobytes()


def test_a_language_model_of_another_format_is_refused(tmp_path):
    config = small_config(tmp_path, epochs=1)
    setup = prepare_training(config)
    run_dir = write_run(tmp_path / "run", setup, run_training(setup))
    with pytest.raises(ParseError, match="unsupported manifest format 'discrel-run 1'"):
        load_contextual_model(run_dir)


@pytest.fixture(scope="module")
def lm_files(tmp_path_factory):
    """The file names and bytes of a small pretrained language model."""
    toy, _ = build_toy_embedder([["ab", "c"], ["c", "ab", "d"]], dim=2, char_dim=1,
                                epochs=0)
    lm_dir = write_contextual_model(tmp_path_factory.mktemp("lm"), toy)
    return {path.name: path.read_bytes() for path in lm_dir.iterdir()}


@given(st.data())
def test_any_mutation_of_a_language_model_loads_or_raises_a_reported_failure(
        tmp_path_factory, lm_files, data):
    lm_dir = tmp_path_factory.getbasetemp() / "mutated_lm"
    lm_dir.mkdir(exist_ok=True)
    mutated = data.draw(st.sampled_from(sorted(lm_files)))
    for name, raw in lm_files.items():
        (lm_dir / name).write_bytes(data.draw(mutations(raw)) if name == mutated else raw)
    try:
        contextual = load_contextual_model(lm_dir)
    except _FAILURES:
        return
    lower, upper = contextual.embed([["ab", "unseen"]])
    assert lower.shape == upper.shape == (2, contextual.dim)


@pytest.mark.parametrize("fault, error, needle", [
    (lambda a: a.pop("toy.char_table"), ParseError, "is missing array 'toy.char_table'"),
    (lambda a: a.update({"toy.head_prev_b": np.zeros((6, 2))}), ShapeError,
     "array 'toy.head_prev_b' has shape (6, 2)"),
    (lambda a: a.pop("toy.char_kernel"), ParseError, "is missing array 'toy.char_kernel'"),
    (lambda a: a.update({"toy.char_kernel": a["toy.char_kernel"][0]}), ShapeError,
     "array 'toy.char_kernel' has shape (1, 2)"),
    (lambda a: a.update({"toy.char_kernel": a["toy.char_kernel"][:, :, :1]}), ShapeError,
     "array 'toy.char_kernel' has shape (3, 1, 1)"),
], ids=["no-table", "bad-head", "no-kernel", "2-d-kernel", "odd-dim"])
def test_a_malformed_language_model_is_refused_naming_its_checkpoint(
        tmp_path, lm_files, fault, error, needle):
    for name, raw in lm_files.items():
        (tmp_path / name).write_bytes(raw)
    checkpoint = tmp_path / "model.ckpt"
    arrays = T.load_checkpoint(checkpoint)
    fault(arrays)
    T.save_checkpoint(checkpoint, arrays)
    with pytest.raises(error) as raised:
        load_contextual_model(tmp_path)
    assert isinstance(raised.value, _FAILURES)
    assert str(raised.value).startswith(f"{checkpoint} ")
    assert needle in str(raised.value)


def test_state_arrays_hold_no_language_model_and_model_ckpt_does(tmp_path):
    config = small_config(tmp_path, epochs=2, use_contextual=True, contextual_dim=4,
                          contextual_char_dim=2, contextual_epochs=1, contextual_out_dim=3)
    setup = prepare_training(config)
    result = run_training(setup)
    trainable = [p.name for p in setup.model.parameters()]
    assert list(setup.model.state_arrays()) == trainable
    assert list(result.state) == trainable  # the best-dev snapshot
    lm = setup.model.embedder.contextual.state_arrays()
    saved = T.load_checkpoint(write_run(tmp_path / "run", setup, result) / "model.ckpt")
    assert list(saved) == trainable + list(lm)
    for name, array in lm.items():
        assert saved[name].tobytes() == array.tobytes(), name


# ---------------------------------------------------------------------------
# Runs written before model.contextual_source was retired

OLD_RUNS = Path(__file__).parent / "fixtures" / "runs_235ff3d"


@pytest.mark.parametrize("route", ["fresh", "pretrained"])
def test_a_run_of_either_retired_source_restores_to_the_same_predictions(monkeypatch, route):
    """The runs in ``fixtures/runs_235ff3d`` (see its README) name their
    inputs relative to that folder.  ``expected.json`` was written on one
    host's BLAS kernel, and by a pair level that attended over every row:
    labels are exact, probability rows within 1e-10."""
    monkeypatch.chdir(OLD_RUNS)
    expected = json.loads(Path("expected.json").read_text(encoding="utf-8"))[route]
    model = restore_run(route).model
    pairs = [(rec.arg1, rec.arg2) for rec in load_corpus("corpus.jsonl")[:8]]
    pairs.append((["novel", "words", "here"], ["and", "unseen"]))
    assert len(pairs) == len(expected)
    for (arg1, arg2), want in zip(pairs, expected):
        label, probs = predict(model, arg1, arg2)
        assert label == want["label"]
        assert_agree(probs, np.array(want["probs"]), CLOSE)


def test_a_config_of_the_retired_fresh_source_trains_its_own_language_model(
        tmp_path, monkeypatch):
    """``fresh`` ignored paths.contextual_model, and still does: the fresh
    run's config with the language model in ``lm/`` named trains, byte for
    byte, the run of the same config without it, and drops the retired line."""
    monkeypatch.chdir(OLD_RUNS)
    text = Path("fresh/config.ini").read_text(encoding="utf-8")
    assert "contextual_source = fresh\n" in text
    assert "contextual_model = \n" in text
    runs = []
    for name, model_path in (("without", ""), ("with", "lm")):
        path = tmp_path / f"{name}.ini"
        path.write_text(text.replace("contextual_model = \n",
                                     f"contextual_model = {model_path}\n"), encoding="utf-8")
        setup = prepare_training(parse_config(path))
        assert setup.config.contextual_model == ""
        runs.append(write_run(tmp_path / name, setup, run_training(setup)))
    loaded = load_contextual_model("lm").state_arrays()
    trained = setup.model.embedder.contextual.state_arrays()
    assert any(loaded[name].tobytes() != trained[name].tobytes() for name in loaded)

    for name in ("model.ckpt", "trace.csv", "manifest.json", "config.ini"):
        assert (runs[1] / name).read_bytes() == (runs[0] / name).read_bytes(), name
    assert (runs[1] / "config.ini").read_text(encoding="utf-8") == text.replace(
        "contextual_source = fresh\n", "")


def test_restore_rejects_a_truncated_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text('{"format": "discrel-run 1", "con')
    with pytest.raises(ParseError, match="JSON"):
        restore_run(tmp_path)


def test_prepare_training_names_missing_paths(tmp_path):
    config = small_config(tmp_path, word_vectors=str(tmp_path / "absent.txt"))
    with pytest.raises(ConfigError, match=r"paths\.word_vectors"):
        prepare_training(config)
    config = small_config(tmp_path, use_subword=True)
    with pytest.raises(ConfigError, match=r"paths\.merge_table"):
        prepare_training(config)


def test_empty_split_is_reported(tmp_path):
    corpus = tmp_path / "tiny.jsonl"
    save_corpus(corpus, synthetic_corpus(3, SENSES, seed=0, sections=(5,)))
    config = small_config(tmp_path, corpus=str(corpus))
    with pytest.raises(DataError, match="dev"):
        prepare_training(config)


# ---------------------------------------------------------------------------
# Evaluation reports


def test_eleven_way_report_has_accuracy_only(tmp_path):
    config = small_config(tmp_path, epochs=1)
    setup = prepare_training(config)
    report = evaluate_model(setup.model, setup.labels, setup.splits.dev)
    assert list(report) == ["n", "accuracy"]
    assert 0.0 <= report["accuracy"] <= 1.0


def test_four_way_report_adds_macro_f1(tmp_path):
    classes = ["Comparison.Contrast", "Contingency.Cause",
               "Expansion.Conjunction", "Temporal.Asynchronous"]
    corpus = tmp_path / "four.jsonl"
    save_corpus(corpus, synthetic_corpus(40, classes, seed=0, filler_words=8, arg_len=5))
    vectors = tmp_path / "four-vectors.txt"
    vocab, matrix = synthetic_word_vectors(load_corpus(corpus), dim=8, seed=0)
    save_word_vectors(vectors, vocab, matrix)
    config = small_config(tmp_path, task="four-way", corpus=str(corpus),
                          word_vectors=str(vectors), epochs=1)
    setup = prepare_training(config)
    report = evaluate_model(setup.model, setup.labels, setup.splits.dev)
    assert list(report) == ["n", "accuracy", "macro_f1"]
    assert 0.0 <= report["macro_f1"] <= 100.0


def test_binary_report_adds_f1(tmp_path):
    config = small_config(tmp_path, task="binary:Expansion", epochs=1)
    setup = prepare_training(config)
    report = evaluate_model(setup.model, setup.labels, setup.splits.dev)
    assert list(report) == ["n", "accuracy", "f1"]


def test_evaluation_needs_instances(tmp_path):
    config = small_config(tmp_path, epochs=1)
    setup = prepare_training(config)
    with pytest.raises(DataError):
        evaluate_model(setup.model, setup.labels, [])


# ---------------------------------------------------------------------------
# Heatmap quantization


def test_quantized_rows_sum_to_full_intensity_and_stay_within_one_level():
    rng = np.random.default_rng(0)
    for width in [2, 3, 5, 17, 40, 120]:
        for _ in range(20):
            logits = rng.normal(scale=3.0, size=width)
            row = np.exp(logits - logits.max())
            row /= row.sum()
            pixels = quantize_attention_row(row)
            assert pixels.sum() == 255
            assert (pixels >= 0).all()
            assert np.abs(pixels / 255.0 - row).max() < 1.0 / 255.0


def test_quantization_keeps_uniform_rows_constant():
    pixels = quantize_attention_row(np.full(5, 0.2))
    assert (pixels == 51).all()


def test_quantization_keeps_point_masses_saturated():
    pixels = quantize_attention_row(np.array([0.0, 1.0, 0.0]))
    assert pixels.tolist() == [0, 255, 0]


def test_pgm_layout(tmp_path):
    matrix = np.array([[0.25, 0.75], [1.0, 0.0]])
    path = tmp_path / "map.pgm"
    write_pgm(path, matrix)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    grid = [[int(v) for v in line.split()] for line in lines[3:]]
    assert grid == [[64, 191], [255, 0]]


def test_matrix_csv_is_exact(tmp_path):
    matrix = np.random.default_rng(1).random((3, 4))
    path = tmp_path / "map.csv"
    write_matrix_csv(path, matrix)
    back = np.array([[float(v) for v in line.split(",")]
                     for line in path.read_text().splitlines()])
    assert np.array_equal(back, matrix)


# ---------------------------------------------------------------------------
# Attention export


def trained_run(tmp_path, layers=2, **overrides):
    config = small_config(tmp_path, layers=layers, max_tokens=5, epochs=2, **overrides)
    setup = prepare_training(config)
    result = run_training(setup)
    return restore_run(write_run(tmp_path / "run", setup, result)), config


def test_export_writes_heatmap_matrix_and_tokens_per_layer(tmp_path):
    run, config = trained_run(tmp_path)
    records = load_corpus(config.corpus)
    out = tmp_path / "maps"
    files = export_attention(run, records, [0, 3], out)
    assert len(files) == 2 * (1 + 2 * 2)
    for instance_id in (0, 3):
        pgms = sorted(out.glob(f"inst{instance_id}_layer*.pgm"))
        assert len(pgms) == 2
        assert (out / f"inst{instance_id}_tokens.json").is_file()
        for pgm in pgms:
            lines = pgm.read_text().splitlines()
            matrix = np.array([[float(v) for v in line.split(",")] for line in
                               pgm.with_suffix(".csv").read_text().splitlines()])
            assert lines[1] == "5 5"
            for row_line, row in zip(lines[3:], matrix):
                pixels = np.array([int(v) for v in row_line.split()])
                assert pixels.sum() == 255
                assert np.abs(pixels / 255.0 - row).max() < 1.0 / 255.0


def test_export_numbers_the_one_pooled_layer_by_its_depth(tmp_path):
    # with res_pair off only the deepest layer feeds the pair vector
    run, config = trained_run(tmp_path, layers=3, res_pair=False)
    records = load_corpus(config.corpus)
    out = tmp_path / "maps"
    export_attention(run, records, [0], out)
    assert sorted(p.name for p in out.glob("*.pgm")) == ["inst0_layer3.pgm"]
    assert sorted(p.name for p in out.glob("*.csv")) == ["inst0_layer3.csv"]


def test_export_rejects_unknown_instances(tmp_path):
    run, config = trained_run(tmp_path)
    records = load_corpus(config.corpus)
    with pytest.raises(InstanceKeyError, match="999"):
        export_attention(run, records, [999], tmp_path / "maps")


def test_zeroed_attention_exports_constant_images(tmp_path):
    run, config = trained_run(tmp_path)
    run.model.attention.ffn_w.data[...] = 0.0
    run.model.attention.ffn_b.data[...] = 0.0
    records = load_corpus(config.corpus)
    out = tmp_path / "uniform"
    export_attention(run, records, [0], out)
    for pgm in out.glob("*.pgm"):
        pixel_lines = pgm.read_text().splitlines()[3:]
        values = {v for line in pixel_lines for v in line.split()}
        assert values == {"51"}
