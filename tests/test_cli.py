"""Command-level behaviour: exit codes, output protocol, and artifacts."""

import csv
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from discrel import tensor as T
from discrel.bpe import learn_bpe, load_merge_table, word_frequencies
from discrel.cli import main
from discrel.config import RunConfig, save_config
from discrel.data import load_corpus, save_corpus, synthetic_corpus, synthetic_word_vectors
from discrel.word_level import save_word_vectors


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ok_fields(out: str) -> dict:
    last = out.strip().splitlines()[-1]
    assert last.startswith("ok "), f"expected an ok line, got {last!r}"
    return dict(part.split("=", 1) for part in last[3:].split())


def read_report(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    """A generated corpus + vector table and one finished training run."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.jsonl"
    vectors = root / "vectors.txt"
    assert main(["gen-synthetic", str(corpus), "--records", "50",
                 "--fillers", "8", "--arg-len", "5",
                 "--word-vectors", str(vectors), "--dim", "8"]) == 0
    config = RunConfig(layers=1, kernel_size=3, max_tokens=6,
                       learning_rate=0.1, batch_size=8, embedding_dropout=0.0,
                       encoder_dropout=0.0, classifier_dropout=0.0, epochs=12,
                       patience=12, seed=0, corpus=str(corpus),
                       word_vectors=str(vectors), output_dir=str(root / "run"))
    save_config(root / "run.ini", config)
    assert main(["train", str(root / "run.ini")]) == 0
    return root


def spawn_config(workspace, tmp_path, **overrides):
    """The workspace config re-rooted to a fresh output directory."""
    config = RunConfig(layers=1, kernel_size=3, max_tokens=6,
                       learning_rate=0.1, batch_size=8, embedding_dropout=0.0,
                       encoder_dropout=0.0, classifier_dropout=0.0, epochs=12,
                       patience=12, seed=0,
                       corpus=str(workspace / "corpus.jsonl"),
                       word_vectors=str(workspace / "vectors.txt"),
                       output_dir=str(tmp_path / "run"))
    path = tmp_path / "run.ini"
    save_config(path, replace(config, **overrides))
    return path


# ---------------------------------------------------------------------------
# gen-synthetic / learn-bpe / prep-contextual


def test_gen_synthetic_reports_and_writes(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    vectors = tmp_path / "v.txt"
    code, out, err = run_cli(capsys, "gen-synthetic", corpus, "--records", 10,
                             "--word-vectors", vectors)
    assert code == 0 and err == ""
    fields = ok_fields(out)
    assert fields["records"] == "10"
    assert fields["word_vectors"] == str(vectors)
    assert len(load_corpus(corpus)) == 10
    assert vectors.read_text().splitlines()


def test_gen_synthetic_rejects_an_empty_filler_vocabulary(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    code, out, err = run_cli(capsys, "gen-synthetic", corpus, "--records", 10,
                             "--fillers", 0)
    assert code == 1
    assert err.startswith("error ConfigError: ")
    assert "filler" in err
    assert not corpus.exists()


@pytest.mark.parametrize("flags", [["--arg-len", 0], ["--arg-len", -2],
                                   ["--word-vectors", "v.txt", "--dim", 0],
                                   ["--records", -3]])
def test_gen_synthetic_rejects_sizes_that_make_a_bad_file(tmp_path, capsys, flags):
    corpus = tmp_path / "c.jsonl"
    flags = [tmp_path / f if f == "v.txt" else f for f in flags]
    code, out, err = run_cli(capsys, "gen-synthetic", corpus, "--records", 10, *flags)
    assert code == 1
    assert err.startswith("error ConfigError: ")
    assert f"got {flags[-1]}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("max_tokens", [0, -1])
def test_prep_contextual_rejects_a_non_positive_token_limit(workspace, tmp_path, capsys,
                                                           max_tokens):
    out_path = tmp_path / "ctx.txt"
    code, out, err = run_cli(capsys, "prep-contextual", workspace / "corpus.jsonl",
                             out_path, "--max-tokens", max_tokens)
    assert code == 1
    assert err.startswith("error ConfigError: --max-tokens")
    assert not out_path.exists()


@pytest.mark.parametrize("flags", [["--width", 0], ["--width", 5], ["--char-width", 0],
                                   ["--epochs", -1], ["--lr", 0]])
def test_prep_contextual_rejects_bad_model_arguments_before_reading(tmp_path, capsys, flags):
    # The corpus does not exist: the arguments are checked first.
    out_path = tmp_path / "ctx.txt"
    code, out, err = run_cli(capsys, "prep-contextual", tmp_path / "missing.jsonl",
                             out_path, *flags)
    assert code == 1
    assert err.startswith(f"error ConfigError: {flags[0]}: ")
    assert f"got {flags[1]}" in err
    assert list(tmp_path.iterdir()) == []


def test_learn_bpe_rejects_a_negative_merge_count(workspace, tmp_path, capsys):
    out_path = tmp_path / "merges.txt"
    code, out, err = run_cli(capsys, "learn-bpe", workspace / "corpus.jsonl", out_path,
                             "--merges", -1)
    assert code == 1
    assert err.startswith("error ConfigError: --merges: ")
    assert list(tmp_path.iterdir()) == []


def test_learn_bpe_is_deterministic(workspace, tmp_path, capsys):
    corpus = workspace / "corpus.jsonl"
    first, second = tmp_path / "m1.txt", tmp_path / "m2.txt"
    code, out1, _ = run_cli(capsys, "learn-bpe", corpus, first, "--merges", 10)
    assert code == 0
    code, out2, _ = run_cli(capsys, "learn-bpe", corpus, second, "--merges", 10)
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    assert ok_fields(out1) == {**ok_fields(out2), "out": str(first)}
    assert int(ok_fields(out1)["merges"]) <= 10


def test_learn_bpe_zero_merges_writes_an_empty_table(workspace, tmp_path, capsys):
    out_path = tmp_path / "m.txt"
    code, out, _ = run_cli(capsys, "learn-bpe", workspace / "corpus.jsonl",
                           out_path, "--merges", 0)
    assert code == 0
    assert ok_fields(out)["merges"] == "0"
    assert out_path.read_text() == ""


def test_learn_bpe_frequency_file_matches_corpus_route(workspace, tmp_path, capsys):
    records = load_corpus(workspace / "corpus.jsonl")
    freqs = word_frequencies([r.arg1 for r in records] + [r.arg2 for r in records])
    freq_file = tmp_path / "freqs.txt"
    freq_file.write_text("".join(f"{w} {n}\n" for w, n in freqs.items()))
    from_freq, from_corpus = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli(capsys, "learn-bpe", freq_file, from_freq,
                   "--merges", 8, "--freq")[0] == 0
    assert run_cli(capsys, "learn-bpe", workspace / "corpus.jsonl", from_corpus,
                   "--merges", 8)[0] == 0
    assert from_freq.read_bytes() == from_corpus.read_bytes()
    assert load_merge_table(from_freq).merges == learn_bpe(freqs, 8).merges


def test_prep_contextual_writes_vectors(workspace, tmp_path, capsys):
    out_path = tmp_path / "ctx.txt"
    code, out, _ = run_cli(capsys, "prep-contextual", workspace / "corpus.jsonl",
                           out_path, "--width", 8, "--char-width", 4,
                           "--epochs", 1, "--max-tokens", 6)
    assert code == 0
    fields = ok_fields(out)
    assert fields["dim"] == "8"
    assert int(fields["instances"]) > 0
    assert "perplexity" in out
    assert out_path.is_file()


# ---------------------------------------------------------------------------
# train / eval


def test_train_writes_a_complete_run(workspace):
    run_dir = workspace / "run"
    for name in ("config.ini", "manifest.json", "model.ckpt", "trace.csv"):
        assert (run_dir / name).is_file()


def test_train_reports_progress_and_summary(workspace, tmp_path, capsys):
    config = spawn_config(workspace, tmp_path, epochs=3)
    code, out, err = run_cli(capsys, "train", config)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("epoch 1 train_loss ")
    fields = ok_fields(out)
    assert fields["epochs_run"] == "3"
    assert fields["run_dir"] == str(tmp_path / "run")


def test_eval_reaches_perfect_accuracy_on_the_planted_cues(workspace, capsys):
    for part in ("dev", "test"):
        code, out, err = run_cli(capsys, "eval", workspace / "run", "--part", part)
        assert code == 0 and err == ""
        assert ok_fields(out)["accuracy"] == "1.0"
        assert f"part {part}" in out


def test_eval_is_deterministic(workspace, capsys):
    first = run_cli(capsys, "eval", workspace / "run")
    second = run_cli(capsys, "eval", workspace / "run")
    assert first == second


def test_eval_rejects_an_empty_part(workspace, tmp_path, capsys):
    lonely = tmp_path / "lonely.jsonl"
    save_corpus(lonely, synthetic_corpus(
        6, ["Expansion.Conjunction", "Temporal.Asynchronous"], sections=(5, 22)))
    code, out, err = run_cli(capsys, "eval", workspace / "run",
                             "--corpus", lonely, "--part", "test")
    assert code == 1
    assert "error DataError" in err and "test" in err


def test_train_names_a_missing_vector_file(workspace, tmp_path, capsys):
    config = spawn_config(workspace, tmp_path,
                          word_vectors=str(tmp_path / "absent.txt"))
    code, out, err = run_cli(capsys, "train", config)
    assert code == 1
    assert "error ConfigError" in err and "paths.word_vectors" in err


def test_train_rejects_unknown_config_keys(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nkernel = 5\n")
    code, out, err = run_cli(capsys, "train", bad)
    assert code == 1
    assert "model.kernel" in err


@pytest.mark.parametrize("text,needle", [
    ("layers = 3\n", "no section headers"),
    ("[model]\nlayers = 3\nlayers = 4\n", "option 'layers' in section 'model' already exists"),
])
def test_train_reports_config_syntax_errors(tmp_path, capsys, text, needle):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "train", bad)
    assert code == 1
    assert err.startswith(f"error ConfigError: {bad}: ") and needle in err
    assert "Traceback" not in err


def test_train_reports_a_missing_config_file(tmp_path, capsys):
    code, out, err = run_cli(capsys, "train", tmp_path / "nowhere.ini")
    assert code == 1
    assert "error ConfigError" in err


def test_train_reports_a_non_utf8_corpus(workspace, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((workspace / "corpus.jsonl").read_bytes() + b"\xff\n")
    config = spawn_config(workspace, tmp_path, corpus=str(corpus), epochs=1)
    code, out, err = run_cli(capsys, "train", config)
    assert code == 1
    assert err.startswith(f"error ParseError: {corpus}: not UTF-8 text")
    assert "Traceback" not in err


def test_train_reports_a_malformed_word_vector_file(workspace, tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    lines = (workspace / "vectors.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = lines[3].split(" ", 1)[0] + "\n"
    vectors.write_text("".join(lines), encoding="utf-8")
    config = spawn_config(workspace, tmp_path, word_vectors=str(vectors), epochs=1)
    code, out, err = run_cli(capsys, "train", config)
    assert code == 1
    assert err.startswith(f"error ParseError: {vectors}:4: expected 'word v1 ...'")
    assert "Traceback" not in err


def test_eval_refuses_a_changed_vector_file_before_parsing_it(workspace, tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    shutil.copy(workspace / "vectors.txt", vectors)
    config = spawn_config(workspace, tmp_path, word_vectors=str(vectors), epochs=1)
    assert run_cli(capsys, "train", config)[0] == 0
    vectors.write_text("a 1.0 oops\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", tmp_path / "run")
    assert code == 1
    assert err.startswith(f"error ConfigError: paths.word_vectors: {vectors} ")
    assert "checksum mismatch" in err
    assert "Traceback" not in err


def test_eval_refuses_a_run_whose_retraining_save_was_cut_short(
        workspace, tmp_path, capsys, monkeypatch):
    config = spawn_config(workspace, tmp_path, epochs=1)
    assert run_cli(capsys, "train", config)[0] == 0
    save_checkpoint = T.save_checkpoint

    def interrupted(path, arrays):
        save_checkpoint(path, arrays)
        raise OSError("interrupted")

    monkeypatch.setattr(T, "save_checkpoint", interrupted)
    code, _, err = run_cli(capsys, "train", spawn_config(workspace, tmp_path, epochs=2))
    assert code == 1 and err.startswith("error OSError: interrupted")
    code, out, err = run_cli(capsys, "eval", tmp_path / "run")
    assert code == 1
    assert err.startswith("error ConfigError: ") and "manifest.json" in err
    assert "Traceback" not in err


def test_output_root_env_fallback(workspace, tmp_path, capsys, monkeypatch):
    config = spawn_config(workspace, tmp_path, output_dir="", epochs=1)
    monkeypatch.setenv("DISCREL_OUTPUT_ROOT", str(tmp_path / "from-env"))
    code, out, _ = run_cli(capsys, "train", config)
    assert code == 0
    assert ok_fields(out)["run_dir"] == str(tmp_path / "from-env")
    assert (tmp_path / "from-env" / "model.ckpt").is_file()


def test_eval_detects_word_vector_drift(workspace, tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    vectors = tmp_path / "v.txt"
    records = synthetic_corpus(12, ["Expansion.Conjunction", "Temporal.Asynchronous"],
                               seed=0, filler_words=6, arg_len=4,
                               sections=(2, 22, 23))
    save_corpus(corpus, records)
    vocab, matrix = synthetic_word_vectors(records, dim=6, seed=0)
    save_word_vectors(vectors, vocab, matrix)
    config = spawn_config(workspace, tmp_path, corpus=str(corpus),
                          word_vectors=str(vectors), epochs=1)
    assert run_cli(capsys, "train", config)[0] == 0
    vocab, matrix = synthetic_word_vectors(records, dim=6, seed=9)
    save_word_vectors(vectors, vocab, matrix)
    code, out, err = run_cli(capsys, "eval", tmp_path / "run")
    assert code == 1
    assert "checksum" in err


def _bad_first_dimension(data: bytes) -> bytes:
    header, first_entry, rest = data.split(b"\n", 2)
    return b"\n".join([header, first_entry + b" q", rest])


@pytest.mark.parametrize("corrupt", [
    lambda data: b"tckpt x" + data[data.index(b" ", 6):],  # version
    _bad_first_dimension,
    lambda data: data + b"\0\0\0",  # trailing bytes
])
def test_eval_reports_a_corrupt_checkpoint(workspace, tmp_path, capsys, corrupt):
    run_dir = tmp_path / "run"
    shutil.copytree(workspace / "run", run_dir)
    checkpoint = run_dir / "model.ckpt"
    checkpoint.write_bytes(corrupt(checkpoint.read_bytes()))
    code, out, err = run_cli(capsys, "eval", run_dir)
    assert code == 1
    assert err.startswith("error ParseError: ")
    assert "Traceback" not in err


def _without_connectives(text: str) -> str:
    manifest = json.loads(text)
    del manifest["connectives"]
    return json.dumps(manifest)


def _integer_connectives(text: str) -> str:
    manifest = json.loads(text)
    manifest["connectives"] = 5
    return json.dumps(manifest)


@pytest.mark.parametrize("corrupt", [lambda text: text[:100], _without_connectives,
                                     _integer_connectives],
                         ids=["truncated", "no_connectives", "integer_connectives"])
def test_eval_reports_a_corrupt_manifest(workspace, tmp_path, capsys, corrupt):
    run_dir = tmp_path / "run"
    shutil.copytree(workspace / "run", run_dir)
    manifest = run_dir / "manifest.json"
    manifest.write_text(corrupt(manifest.read_text(encoding="utf-8")), encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", run_dir)
    assert code == 1
    assert err.startswith("error ParseError: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("config_text", [
    None,  # no config.ini at all
    "layers = 4\n",  # no section header
    "[model]\nlayers = four\n",
])
def test_eval_reports_a_missing_or_corrupt_config(workspace, tmp_path, capsys, config_text):
    run_dir = tmp_path / "run"
    shutil.copytree(workspace / "run", run_dir)
    config = run_dir / "config.ini"
    if config_text is None:
        config.unlink()
    else:
        config.write_text(config_text, encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", run_dir)
    assert code == 1
    assert err.startswith("error ConfigError: ")
    assert str(config) in err
    assert "Traceback" not in err


def test_eval_scores_by_the_task_in_the_config(workspace, tmp_path, capsys):
    run_dir = tmp_path / "run"
    shutil.copytree(workspace / "run", run_dir)
    manifest_path = run_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    # a label-space entry of the kind older runs carried is not read
    manifest["task"] = {"mode": "binary", "classes": ["others", "Temporal"],
                        "target": "Temporal"}
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    code, out, err = run_cli(capsys, "eval", run_dir)
    assert code == 0 and err == ""
    assert run_cli(capsys, "eval", workspace / "run")[1] == out


# ---------------------------------------------------------------------------
# ablate


def test_ablate_residual_grid_trains_four_rows(workspace, tmp_path, capsys):
    config = spawn_config(workspace, tmp_path, epochs=2)
    report = tmp_path / "grid.csv"
    code, out, err = run_cli(capsys, "ablate", config, "--out", report,
                             "--preset", "res-grid")
    assert code == 0 and err == ""
    assert ok_fields(out)["rows"] == "4"
    assert out.count("row ") == 4
    header, rows = read_report(report)
    assert header[:3] == ["label", "block_type", "layers"]
    assert [row[0] for row in rows] == [
        "res_block=off,res_pair=off", "res_block=off,res_pair=on",
        "res_block=on,res_pair=off", "res_block=on,res_pair=on"]
    column = header.index("best_dev_accuracy")
    assert all(row[column] != "" for row in rows)


def test_ablate_layer_sweep_dry_run_lists_both_block_types(workspace, tmp_path, capsys):
    config = spawn_config(workspace, tmp_path)
    report = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "ablate", config, "--out", report,
                           "--preset", "layer-sweep", "--dry-run")
    assert code == 0
    assert ok_fields(out)["rows"] == "14"
    assert "row " not in out
    header, rows = read_report(report)
    assert len(rows) == 14
    assert [row[1] for row in rows] == ["conv"] * 7 + ["recurrent"] * 7
    assert [int(row[2]) for row in rows] == list(range(1, 8)) * 2
    assert all(row[-4:] == ["", "", "", ""] for row in rows)


def test_ablate_vary_trains_a_two_row_axis(workspace, tmp_path, capsys):
    config = spawn_config(workspace, tmp_path, epochs=2)
    report = tmp_path / "axis.csv"
    code, out, _ = run_cli(capsys, "ablate", config, "--out", report,
                           "--vary", "model.bi_attention=true,false")
    assert code == 0
    assert ok_fields(out)["rows"] == "2"
    _, rows = read_report(report)
    assert [row[0] for row in rows] == \
        ["model.bi_attention=true", "model.bi_attention=false"]
    assert [row[3] for row in rows] == ["True", "False"]


def test_ablate_without_a_grid_trains_the_base_config(workspace, tmp_path, capsys):
    config = spawn_config(workspace, tmp_path, epochs=1)
    report = tmp_path / "base.csv"
    code, out, _ = run_cli(capsys, "ablate", config, "--out", report)
    assert code == 0
    assert ok_fields(out)["rows"] == "1"
    assert read_report(report)[1][0][0] == "base"


def test_ablate_rejects_preset_and_vary_together(workspace, tmp_path, capsys):
    config = spawn_config(workspace, tmp_path)
    code, out, err = run_cli(capsys, "ablate", config, "--out", tmp_path / "x.csv",
                             "--preset", "ladder", "--vary", "model.layers=1,2")
    assert code == 1
    assert "not both" in err


def test_ablate_rejects_unknown_vary_keys(workspace, tmp_path, capsys):
    config = spawn_config(workspace, tmp_path)
    code, out, err = run_cli(capsys, "ablate", config, "--out", tmp_path / "x.csv",
                             "--vary", "model.res_blok=true")
    assert code == 1
    assert "res_blok" in err


# ---------------------------------------------------------------------------
# export-attention


def test_export_attention_writes_the_expected_inventory(workspace, tmp_path, capsys):
    out_dir = tmp_path / "maps"
    code, out, err = run_cli(capsys, "export-attention", workspace / "run",
                             "--instances", "0,3", "--out", out_dir)
    assert code == 0 and err == ""
    fields = ok_fields(out)
    assert fields["instances"] == "2"
    assert fields["layers_per_instance"] == "1"
    assert fields["files"] == "6"
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["inst0_layer1.csv", "inst0_layer1.pgm", "inst0_tokens.json",
                     "inst3_layer1.csv", "inst3_layer1.pgm", "inst3_tokens.json"]


def test_exported_pixels_track_the_exported_matrix(workspace, tmp_path, capsys):
    out_dir = tmp_path / "maps"
    assert run_cli(capsys, "export-attention", workspace / "run",
                   "--instances", "1", "--out", out_dir)[0] == 0
    matrix = np.array([[float(v) for v in line.split(",")] for line in
                       (out_dir / "inst1_layer1.csv").read_text().splitlines()])
    pgm_lines = (out_dir / "inst1_layer1.pgm").read_text().splitlines()
    assert pgm_lines[:3] == ["P2", "6 6", "255"]
    for text, row in zip(pgm_lines[3:], matrix):
        pixels = np.array([int(v) for v in text.split()])
        assert pixels.sum() == 255
        assert np.abs(pixels / 255.0 - row).max() < 1.0 / 255.0


def test_export_attention_rejects_unknown_instances(workspace, tmp_path, capsys):
    code, out, err = run_cli(capsys, "export-attention", workspace / "run",
                             "--instances", "999", "--out", tmp_path / "maps")
    assert code == 1
    assert "error InstanceKeyError" in err and "999" in err


def test_export_attention_rejects_malformed_ids(workspace, tmp_path, capsys):
    code, out, err = run_cli(capsys, "export-attention", workspace / "run",
                             "--instances", "1,two", "--out", tmp_path / "maps")
    assert code == 1
    assert "--instances" in err


# ---------------------------------------------------------------------------
# contextual embedding routes end-to-end


def test_precomputed_contextual_route_trains_and_evaluates(workspace, tmp_path, capsys):
    ctx = tmp_path / "ctx.txt"
    assert run_cli(capsys, "prep-contextual", workspace / "corpus.jsonl", ctx,
                   "--width", 8, "--char-width", 4, "--epochs", 1,
                   "--max-tokens", 6)[0] == 0
    config = spawn_config(workspace, tmp_path, use_contextual=True,
                          contextual_source="vectors", contextual_vectors=str(ctx),
                          contextual_out_dim=8, epochs=2)
    assert run_cli(capsys, "train", config)[0] == 0
    code, out, err = run_cli(capsys, "eval", tmp_path / "run", "--part", "dev")
    assert code == 0 and err == ""
    assert "accuracy" in ok_fields(out)


def test_fresh_contextual_route_survives_a_restore(workspace, tmp_path, capsys):
    config = spawn_config(workspace, tmp_path, use_contextual=True,
                          contextual_source="fresh", contextual_dim=8,
                          contextual_char_dim=4, contextual_epochs=1,
                          contextual_out_dim=8, epochs=2)
    assert run_cli(capsys, "train", config)[0] == 0
    first = run_cli(capsys, "eval", tmp_path / "run", "--part", "dev")
    second = run_cli(capsys, "eval", tmp_path / "run", "--part", "dev")
    assert first[0] == 0
    assert first == second
