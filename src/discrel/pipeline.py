"""Glue between configuration files and the library: build, train, persist,
restore, evaluate, export.

A finished training run is a directory holding four files:

- ``config.ini``    the resolved configuration the run used
- ``manifest.json`` everything needed to rebuild the model around the weights
                    (label space, connective vocabulary, subword pieces,
                    contextual-embedder vocabulary, word-vector checksum)
- ``model.ckpt``    trainable weights plus the frozen contextual embedder
- ``trace.csv``     per-epoch training loss and dev accuracy

The word-vector table is deliberately not copied into the checkpoint; the
manifest pins its path and SHA-256 so a drifted file fails loudly instead of
silently changing predictions.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .bpe import load_merge_table, subword_vocabulary
from .config import (
    OUTPUT_ROOT_ENV,
    RunConfig,
    config_from_dict,
    config_to_dict,
    save_config,
    to_train_config,
)
from .data import (
    InstanceRecord,
    LabelSpace,
    SPLITS,
    Splits,
    accuracy_multigold,
    f1_binary,
    load_corpus,
    macro_f1_4way,
    make_splits,
    pad_truncate,
)
from .errors import ConfigError, DataError, InstanceKeyError, ParseError
from .model import RelationModel
from .training import (
    TrainResult,
    connective_vocabulary,
    predict_labels,
    resolve_gold,
    save_trace,
    train,
)
from .word_level import (
    ContextualMixer,
    PrecomputedContextualEmbedder,
    SubwordEncoder,
    TokenEmbedder,
    ToyContextualEmbedder,
    WordEmbeddingTable,
    build_toy_embedder,
)

MANIFEST_NAME = "manifest.json"
CHECKPOINT_NAME = "model.ckpt"
TRACE_NAME = "trace.csv"
CONFIG_NAME = "config.ini"
_MANIFEST_FORMAT = "discrel-run 1"


def task_label_space(task: str) -> LabelSpace:
    if task == "eleven-way":
        return LabelSpace.eleven_way()
    if task == "four-way":
        return LabelSpace.four_way()
    if task.startswith("binary:"):
        return LabelSpace.binary(task.split(":", 1)[1])
    raise ConfigError(f"task.kind: unknown task {task!r}")


def resolve_output_dir(config: RunConfig) -> Path:
    if config.output_dir:
        return Path(config.output_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return Path(root)
    raise ConfigError(f"paths.output_dir: set it in the config or export {OUTPUT_ROOT_ENV}")


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _require_file(path: str, key: str, reason: str) -> str:
    if not path:
        raise ConfigError(f"paths.{key}: required {reason}")
    if not Path(path).is_file():
        raise ConfigError(f"paths.{key}: no file at {path!r}")
    return path


def corpus_sentences(records) -> list[list[str]]:
    """Each distinct argument token sequence, in first-appearance order."""
    seen: dict[str, list[str]] = {}
    for rec in records:
        for arg in (rec.arg1, rec.arg2):
            seen.setdefault(" ".join(arg), arg)
    return list(seen.values())


# ---------------------------------------------------------------------------
# Training-time assembly


@dataclass
class TrainingSetup:
    config: RunConfig
    labels: LabelSpace
    splits: Splits
    model: RelationModel
    pieces: list | None
    contextual_info: dict | None
    word_vector_sha: str | None


def build_model(config: RunConfig, n_classes: int, connectives, word_table,
                pieces, merges, contextual) -> RelationModel:
    """The run's model around its loaded parts; every trained weight is drawn
    from one generator seeded by ``config.seed``."""
    rng = np.random.default_rng(config.seed)
    subword = None
    if pieces is not None:
        subword = SubwordEncoder(pieces, rng, emb_dim=config.subword_vector_dim,
                                 kernel_sizes=config.subword_kernel_sizes,
                                 channels=config.subword_channels)
    mixer = None
    if contextual is not None:
        mixer = ContextualMixer(contextual.dim, config.contextual_out_dim, rng)
    embedder = TokenEmbedder(word_table=word_table, subword=subword, merges=merges,
                             mixer=mixer, contextual=contextual)
    return RelationModel(
        embedder, n_classes, connectives, rng,
        depth=config.layers, block_type=config.block_type,
        kernel_size=config.kernel_size, bi_attention=config.bi_attention,
        res_block=config.res_block, res_pair=config.res_pair,
        shared_stacks=config.shared_stacks,
        classifier_hidden=config.classifier_hidden, max_tokens=config.max_tokens,
        embedding_dropout=config.embedding_dropout,
        encoder_dropout=config.encoder_dropout,
        classifier_dropout=config.classifier_dropout)


def prepare_training(config: RunConfig) -> TrainingSetup:
    """Load data, derive vocabularies, and build the model for one run."""
    labels = task_label_space(config.task)
    corpus_path = _require_file(config.corpus, "corpus", "to train")
    records = load_corpus(corpus_path)
    splits = make_splits(records, SPLITS[config.split], labels)
    if not splits.train or not splits.dev:
        raise DataError(f"corpus {corpus_path}: split {config.split!r} left "
                        f"{len(splits.train)} train / {len(splits.dev)} dev instances")

    word_table = None
    word_sha = None
    if config.use_word:
        path = _require_file(config.word_vectors, "word_vectors",
                             "when model.use_word is true")
        word_table = WordEmbeddingTable.load(path)
        word_sha = file_sha256(path)

    pieces = None
    merges = None
    if config.use_subword:
        path = _require_file(config.merge_table, "merge_table",
                             "when model.use_subword is true")
        merges = load_merge_table(path)
        train_words = {tok for inst in splits.train
                       for tok in inst.record.arg1 + inst.record.arg2}
        pieces = subword_vocabulary(sorted(train_words), merges)

    contextual = None
    contextual_info = None
    if config.use_contextual:
        if config.contextual_source == "vectors":
            path = _require_file(config.contextual_vectors, "contextual_vectors",
                                 "when model.contextual_source is 'vectors'")
            contextual = PrecomputedContextualEmbedder.load(path)
            contextual_info = {"source": "vectors", "path": path, "dim": contextual.dim}
        else:
            sentences = corpus_sentences(inst.record for inst in splits.train)
            contextual, _ = build_toy_embedder(
                sentences, dim=config.contextual_dim,
                char_dim=config.contextual_char_dim,
                epochs=config.contextual_epochs, lr=config.contextual_lr,
                seed=config.seed)
            contextual_info = {"source": "fresh", "dim": contextual.dim,
                               "char_dim": config.contextual_char_dim,
                               "words": contextual.words, "chars": contextual.chars}

    model = build_model(config, labels.n_classes, connective_vocabulary(splits.train),
                        word_table, pieces, merges, contextual)
    return TrainingSetup(config, labels, splits, model, pieces,
                         contextual_info, word_sha)


def run_training(setup: TrainingSetup) -> TrainResult:
    return train(setup.model, setup.splits.train, setup.splits.dev,
                 to_train_config(setup.config))


def _fresh(run_dir: Path, name: str) -> Path:
    """``run_dir / name`` with any earlier copy removed, so the file is
    written as a new one.  Truncating an existing file in place instead makes
    ext4 (auto_da_alloc) start writing all of it to disk on close, which
    made a repeated ``write_run`` several times slower and as variable as
    the disk."""
    path = run_dir / name
    path.unlink(missing_ok=True)
    return path


def write_run(run_dir, setup: TrainingSetup, result: TrainResult) -> Path:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    # The manifest is what ``restore_run`` keys on: it goes first and comes
    # back last, so a save cut short leaves no run that restores.
    manifest_path = _fresh(run_dir, MANIFEST_NAME)
    save_config(_fresh(run_dir, CONFIG_NAME), setup.config)
    T.save_checkpoint(_fresh(run_dir, CHECKPOINT_NAME), result.state)
    save_trace(_fresh(run_dir, TRACE_NAME), result.trace)
    manifest = {
        "format": _MANIFEST_FORMAT,
        "config": config_to_dict(setup.config),
        "task": {"mode": setup.labels.mode, "classes": setup.labels.classes,
                 "target": setup.labels.target},
        "connectives": setup.model.connectives,
        "subword_pieces": setup.pieces,
        "contextual": setup.contextual_info,
        "word_vectors": ({"path": setup.config.word_vectors,
                          "sha256": setup.word_vector_sha}
                         if setup.word_vector_sha else None),
        "counts": {"train": len(setup.splits.train), "dev": len(setup.splits.dev),
                   "test": len(setup.splits.test)},
        "best_epoch": result.best_epoch,
        "best_dev_accuracy": result.best_dev_accuracy,
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return run_dir


# ---------------------------------------------------------------------------
# Restoring a finished run


@dataclass
class RestoredRun:
    config: RunConfig
    labels: LabelSpace
    model: RelationModel
    manifest: dict


def _read_manifest(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: not a JSON manifest ({exc})") from None
    if not isinstance(manifest, dict) or manifest.get("format") != _MANIFEST_FORMAT:
        found = manifest.get("format") if isinstance(manifest, dict) else manifest
        raise ParseError(f"{path}: unsupported manifest format {found!r}")
    return manifest


# (test, description) of each typed manifest entry
_STRINGS = (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
            "a list of strings")
_STRING = (lambda v: isinstance(v, str), "a string")
_POSITIVE_INT = (lambda v: isinstance(v, int) and not isinstance(v, bool) and v > 0,
                 "a positive integer")


def restore_run(run_dir) -> RestoredRun:
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ConfigError(f"{run_dir}: no {MANIFEST_NAME}; not a finished run directory")
    manifest = _read_manifest(manifest_path)

    def entry(mapping, key: str, within: str = "", kind=None):
        if not isinstance(mapping, dict) or key not in mapping:
            raise ParseError(f"{manifest_path}: missing manifest entry {within}{key!r}")
        value = mapping[key]
        if kind is not None and not kind[0](value):
            raise ParseError(f"{manifest_path}: manifest entry {within}{key!r} must be "
                             f"{kind[1]}, got {value!r:.40}")
        return value

    config = config_from_dict(entry(manifest, "config"))
    task = entry(manifest, "task")
    labels = LabelSpace(entry(task, "mode", "task."), entry(task, "classes", "task.", _STRINGS),
                        task.get("target"))
    connectives = entry(manifest, "connectives", kind=_STRINGS)
    pieces = entry(manifest, "subword_pieces", kind=_STRINGS if config.use_subword else None)
    if not config.use_subword:
        pieces = None

    word_table = None
    if config.use_word:
        vectors = entry(manifest, "word_vectors")
        path = _require_file(entry(vectors, "path", "word_vectors.", _STRING), "word_vectors",
                             "to restore the run")
        if file_sha256(path) != entry(vectors, "sha256", "word_vectors.", _STRING):
            raise ConfigError(f"paths.word_vectors: {path} has changed since "
                              "training (checksum mismatch)")
        word_table = WordEmbeddingTable.load(path)

    merges = None
    if config.use_subword:
        path = _require_file(config.merge_table, "merge_table", "to restore the run")
        merges = load_merge_table(path)

    contextual = None
    if config.use_contextual:
        info = entry(manifest, "contextual")
        if entry(info, "source", "contextual.") == "vectors":
            contextual = PrecomputedContextualEmbedder.load(
                _require_file(entry(info, "path", "contextual.", _STRING), "contextual_vectors",
                              "to restore the run"))
        else:
            contextual = ToyContextualEmbedder(
                entry(info, "words", "contextual.", _STRINGS),
                entry(info, "chars", "contextual.", _STRINGS),
                np.random.default_rng(0), dim=entry(info, "dim", "contextual.", _POSITIVE_INT),
                char_dim=entry(info, "char_dim", "contextual.", _POSITIVE_INT))
            contextual.freeze()

    model = build_model(config, labels.n_classes, connectives,
                        word_table, pieces, merges, contextual)
    model.load_state_arrays(T.load_checkpoint(run_dir / CHECKPOINT_NAME))
    return RestoredRun(config, labels, model, manifest)


# ---------------------------------------------------------------------------
# Evaluation reports


def evaluate_model(model: RelationModel, labels: LabelSpace, instances) -> dict:
    """Metric report for one evaluation set; keys in printing order."""
    if not instances:
        raise DataError("evaluation set is empty")
    predictions = predict_labels(model, instances)
    gold_sets = [inst.gold for inst in instances]
    report: dict[str, object] = {"n": len(instances)}
    report["accuracy"] = accuracy_multigold(predictions, gold_sets)
    if labels.mode in ("four_way", "binary"):
        resolved = [resolve_gold(p, gold) for p, gold in zip(predictions, gold_sets)]
        if labels.mode == "four_way":
            report["macro_f1"] = macro_f1_4way(predictions, resolved)
        else:
            report["f1"] = f1_binary(predictions, resolved)
    return report


# ---------------------------------------------------------------------------
# Attention heatmap export


def quantize_attention_row(row: np.ndarray) -> np.ndarray:
    """Integer gray levels summing to exactly 255, each within one level of
    255*value, so renormalizing the pixels recovers the row within 1/255."""
    scaled = row * 255.0
    floors = np.floor(scaled).astype(np.int64)
    remainder = 255 - int(floors.sum())
    if remainder > 0:
        fractions = scaled - floors
        top_up = np.argsort(-fractions, kind="stable")[:remainder]
        floors[top_up] += 1
    return floors


def write_pgm(path, matrix: np.ndarray) -> None:
    """Plain-text portable graymap of a row-stochastic matrix."""
    rows, cols = matrix.shape
    lines = [f"P2\n{cols} {rows}\n255\n"]
    for row in matrix:
        lines.append(" ".join(str(v) for v in quantize_attention_row(row)) + "\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def export_attention(run: RestoredRun, records: list[InstanceRecord],
                     instance_ids, out_dir) -> list[Path]:
    """Per instance and encoder layer: a PGM heatmap, the exact matrix as
    CSV, and one JSON file with both (padded) token sequences."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for instance_id in instance_ids:
        if not 0 <= instance_id < len(records):
            raise InstanceKeyError(f"instance {instance_id} not in corpus "
                                   f"({len(records)} records)")
        rec = records[instance_id]
        maps = run.model.attention_maps(rec.arg1, rec.arg2)
        tokens = {"arg1": pad_truncate(rec.arg1, run.model.max_tokens),
                  "arg2": pad_truncate(rec.arg2, run.model.max_tokens)}
        meta = out_dir / f"inst{instance_id}_tokens.json"
        with open(meta, "w", encoding="utf-8") as fh:
            json.dump(tokens, fh, indent=2)
            fh.write("\n")
        written.append(meta)
        for layer, matrix in enumerate(maps, start=1):
            pgm = out_dir / f"inst{instance_id}_layer{layer}.pgm"
            csv_path = out_dir / f"inst{instance_id}_layer{layer}.csv"
            write_pgm(pgm, matrix)
            write_matrix_csv(csv_path, matrix)
            written.extend([pgm, csv_path])
    return written
