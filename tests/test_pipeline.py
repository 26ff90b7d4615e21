"""Run assembly, persistence, restore fidelity, reports, and heatmap export."""

import configparser
import copy
import hashlib
import inspect
import json
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from discrel import tensor as T
from discrel.bpe import learn_bpe, save_merge_table, word_frequencies
from discrel.config import RunConfig, save_config, to_train_config
from discrel.data import load_corpus, save_corpus, synthetic_corpus, synthetic_word_vectors
from discrel.errors import ConfigError, DataError, InstanceKeyError, ParseError
from discrel.model import RelationModel
from discrel.pipeline import (
    build_model,
    corpus_sentences,
    evaluate_model,
    export_attention,
    prepare_training,
    quantize_attention_row,
    resolve_output_dir,
    restore_run,
    run_training,
    task_label_space,
    write_matrix_csv,
    write_pgm,
    write_run,
)
from discrel.training import TrainConfig, predict
from discrel.word_level import (
    WordEmbeddingTable,
    build_toy_embedder,
    save_contextual_vectors,
    save_word_vectors,
)

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


@pytest.mark.parametrize("source", ["fresh", "vectors"])
def test_a_run_written_in_the_older_layout_restores(tmp_path, source):
    """Run directories once also carried the configuration, the label space,
    the input paths and the embedder widths in the manifest; the reader
    ignores those entries and rebuilds the same model."""
    merges = tmp_path / "merges.txt"
    contextual_vectors = tmp_path / "ctx.txt"
    config = small_config(tmp_path, task="binary:Expansion", epochs=2, use_subword=True,
                          merge_table=str(merges), use_contextual=True,
                          contextual_source=source, contextual_dim=4,
                          contextual_char_dim=2, contextual_epochs=1,
                          contextual_out_dim=3, subword_vector_dim=4, subword_channels=3,
                          contextual_vectors=str(contextual_vectors))
    records = load_corpus(config.corpus)
    save_merge_table(merges, learn_bpe(word_frequencies(
        [rec.arg1 for rec in records] + [rec.arg2 for rec in records]), 10))
    sentences = corpus_sentences(records)
    toy, _ = build_toy_embedder(sentences, dim=4, char_dim=2, epochs=0)
    save_contextual_vectors(contextual_vectors,
                            [(s,) + toy.embed(s) for s in sentences], dim=4)
    setup = prepare_training(config)
    run_dir = write_run(tmp_path / "run", setup, run_training(setup))

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
    if source == "fresh":
        manifest["contextual"].update(source="fresh", dim=4, char_dim=2)
    else:
        manifest["contextual"] = {"source": "vectors", "path": str(contextual_vectors),
                                  "dim": 4}
    path.write_text(json.dumps(manifest), encoding="utf-8")

    restored = restore_run(run_dir)
    assert restored.labels.classes == ["others", "Expansion"]
    for rec in records[:6]:
        before = predict(setup.model, rec.arg1, rec.arg2)
        after = predict(restored.model, rec.arg1, rec.arg2)
        assert before[0] == after[0]
        assert np.array_equal(before[1], after[1])


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


def trained_run(tmp_path, **overrides):
    config = small_config(tmp_path, layers=2, max_tokens=5, epochs=2, **overrides)
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
