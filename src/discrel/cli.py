"""Command-line entry points tying the pipeline together.

Subcommands: ``learn-bpe``, ``prep-contextual``, ``gen-synthetic``, ``train``,
``eval``, ``ablate``, ``export-attention``.  Every command exits 0 on success
with a final machine-readable line ``ok key=value ...``; expected failures
(bad config, missing files, malformed data) print ``error <Type>: <message>``
to stderr and exit 1.  The output root can be set once via the
``DISCREL_OUTPUT_ROOT`` environment variable instead of per config file.
"""

from __future__ import annotations

import argparse
import csv
import sys

from .bpe import learn_bpe, load_word_frequencies, save_merge_table, subword_vocabulary, word_frequencies
from .config import PRESETS, layer_sweep_rows, parse_config, validate, vary_rows
from .data import SPLITS, load_corpus, make_splits, save_corpus, synthetic_corpus, synthetic_word_vectors
from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    InstanceKeyError,
    LabelError,
    MissingGradientError,
    ParseError,
    ShapeError,
    WindowError,
)
from .pipeline import (
    corpus_sentences,
    evaluate_model,
    export_attention,
    prepare_training,
    resolve_output_dir,
    restore_run,
    run_training,
    write_run,
)
from .word_level import build_toy_embedder, save_contextual_vectors, save_word_vectors

_FAILURES = (ConfigError, DataError, ParseError, LabelError, ShapeError,
             WindowError, DivergenceError, InstanceKeyError,
             MissingGradientError, OSError)


def _ok(**fields) -> int:
    print("ok " + " ".join(f"{key}={value}" for key, value in fields.items()))
    return 0


def _parse_ids(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"--instances: expected comma-separated integers, got {raw!r}") from None


# ---------------------------------------------------------------------------
# Commands


def cmd_learn_bpe(args) -> int:
    if args.freq:
        frequencies = load_word_frequencies(args.corpus)
    else:
        records = load_corpus(args.corpus)
        frequencies = word_frequencies([rec.arg1 for rec in records]
                                       + [rec.arg2 for rec in records])
    table = learn_bpe(frequencies, args.merges)
    save_merge_table(args.out, table)
    pieces = subword_vocabulary(sorted(frequencies), table)
    return _ok(words=len(frequencies), merges=len(table),
               pieces=len(pieces), out=args.out)


def cmd_prep_contextual(args) -> int:
    if args.max_tokens < 1:
        raise ConfigError(f"--max-tokens: must be at least 1, got {args.max_tokens}")
    records = load_corpus(args.corpus)
    sentences = corpus_sentences(records)
    embedder, history = build_toy_embedder(
        sentences, dim=args.width, char_dim=args.char_width,
        epochs=args.epochs, lr=args.lr, seed=args.seed)
    truncated: dict[str, list[str]] = {}
    for sentence in sentences:
        cut = sentence[:args.max_tokens]
        truncated.setdefault(" ".join(cut), cut)
    entries = [(tokens,) + embedder.embed(tokens) for tokens in truncated.values()]
    save_contextual_vectors(args.out, entries, dim=args.width)
    if history:
        print("perplexity " + " ".join(f"{p:.4f}" for p in history))
    return _ok(sentences=len(sentences), instances=len(entries),
               dim=args.width, out=args.out)


def cmd_gen_synthetic(args) -> int:
    class_names = [c for c in args.classes.split(",") if c.strip()]
    records = synthetic_corpus(args.records, class_names, seed=args.seed,
                               filler_words=args.fillers, arg_len=args.arg_len,
                               multi_sense_rate=args.multi_sense)
    vectors = None
    if args.word_vectors:
        vectors = synthetic_word_vectors(records, dim=args.dim, seed=args.seed)
    save_corpus(args.out, records)
    vectors_note = "-"
    if vectors is not None:
        save_word_vectors(args.word_vectors, *vectors)
        vectors_note = args.word_vectors
    return _ok(records=len(records), classes=len(class_names),
               out=args.out, word_vectors=vectors_note)


def cmd_train(args) -> int:
    config = parse_config(args.config)
    run_dir = resolve_output_dir(config)
    setup = prepare_training(config)
    result = run_training(setup)
    write_run(run_dir, setup, result)
    for row in result.trace:
        print(f"epoch {row.epoch} train_loss {row.train_loss!r} "
              f"dev_accuracy {row.dev_accuracy!r}")
    return _ok(run_dir=run_dir, epochs_run=len(result.trace),
               best_epoch=result.best_epoch,
               best_dev_accuracy=repr(result.best_dev_accuracy))


def cmd_eval(args) -> int:
    run = restore_run(args.run_dir)
    corpus_path = args.corpus or run.config.corpus
    records = load_corpus(corpus_path)
    splits = make_splits(records, SPLITS[run.config.split], run.labels)
    instances = splits.test if args.part == "test" else splits.dev
    if not instances:
        raise DataError(f"corpus {corpus_path}: no {args.part} instances under "
                        f"split {run.config.split!r}")
    report = evaluate_model(run.model, run.labels, instances)
    print(f"task {run.config.task}")
    print(f"split {run.config.split} part {args.part}")
    for key, value in report.items():
        print(f"{key} {value!r}")
    return _ok(part=args.part, **{k: repr(v) for k, v in report.items()})


def cmd_ablate(args) -> int:
    base = parse_config(args.config)
    if args.preset and args.vary:
        raise ConfigError("choose either --preset or --vary, not both")
    if args.preset:
        if args.preset == "layer-sweep":
            rows = layer_sweep_rows(base, max_layers=args.max_layers)
        else:
            rows = PRESETS[args.preset](base)
    else:
        rows = vary_rows(base, args.vary or [])

    header = ["label", "block_type", "layers", "bi_attention", "res_block",
              "res_pair", "use_word", "use_subword", "use_contextual",
              "best_epoch", "best_dev_accuracy", "test_accuracy", "test_f1"]
    report_rows = []
    for label, config in rows:
        validate(config)
        row = [label, config.block_type, config.layers, config.bi_attention,
               config.res_block, config.res_pair, config.use_word,
               config.use_subword, config.use_contextual]
        if args.dry_run:
            row += ["", "", "", ""]
        else:
            setup = prepare_training(config)
            result = run_training(setup)
            test_accuracy = ""
            test_f1 = ""
            if setup.splits.test:
                test_report = evaluate_model(setup.model, setup.labels,
                                             setup.splits.test)
                test_accuracy = repr(test_report["accuracy"])
                extra = test_report.get("macro_f1", test_report.get("f1"))
                test_f1 = repr(extra) if extra is not None else ""
            row += [result.best_epoch, repr(result.best_dev_accuracy),
                    test_accuracy, test_f1]
            print(f"row {label} best_dev_accuracy={result.best_dev_accuracy!r}")
        report_rows.append(row)

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(report_rows)
    return _ok(rows=len(report_rows), report=args.out)


def cmd_export_attention(args) -> int:
    run = restore_run(args.run_dir)
    records = load_corpus(args.corpus or run.config.corpus)
    instance_ids = _parse_ids(args.instances)
    if not instance_ids:
        raise ConfigError("--instances: no instance ids given")
    files = export_attention(run, records, instance_ids, args.out)
    layers = run.config.layers if run.config.res_pair else 1
    return _ok(instances=len(instance_ids), layers_per_instance=layers,
               files=len(files), out=args.out)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discrel",
        description="Discourse relation classification over argument pairs: "
                    "train, evaluate, ablate, and inspect attention.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn-bpe", help="learn a subword merge table from a corpus")
    p.add_argument("corpus", help="instance corpus (JSONL), or a 'word count' file with --freq")
    p.add_argument("out", help="merge-table file to write")
    p.add_argument("--merges", type=int, default=1000,
                   help="maximum merge operations to learn (default 1000)")
    p.add_argument("--freq", action="store_true",
                   help="treat the input as 'word count' lines instead of JSONL")
    p.set_defaults(handler=cmd_learn_bpe)

    p = sub.add_parser("prep-contextual",
                       help="train the stand-in contextual embedder and export per-instance vectors")
    p.add_argument("corpus", help="instance corpus (JSONL)")
    p.add_argument("out", help="contextual-vector file to write")
    p.add_argument("--width", type=int, default=64, help="layer width (even, default 64)")
    p.add_argument("--char-width", type=int, default=16, help="character embedding width")
    p.add_argument("--epochs", type=int, default=5, help="language-model epochs")
    p.add_argument("--lr", type=float, default=0.1, help="language-model learning rate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tokens", type=int, default=100,
                   help="store vectors for each argument truncated to this length")
    p.set_defaults(handler=cmd_prep_contextual)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic cue-word corpus")
    p.add_argument("out", help="JSONL corpus file to write")
    p.add_argument("--records", type=int, default=64)
    p.add_argument("--classes", default="Expansion.Conjunction,Temporal.Asynchronous",
                   help="comma-separated sense strings, one planted cue pair per class")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fillers", type=int, default=30, help="filler vocabulary size")
    p.add_argument("--arg-len", type=int, default=7, help="tokens per argument")
    p.add_argument("--multi-sense", type=float, default=0.0,
                   help="fraction of records given a second sense")
    p.add_argument("--word-vectors", default="",
                   help="also write a synthetic word-vector file here")
    p.add_argument("--dim", type=int, default=12, help="synthetic word-vector width")
    p.set_defaults(handler=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("config", help="run configuration (INI)")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a finished run directory")
    p.add_argument("run_dir", help="directory written by 'train'")
    p.add_argument("--part", choices=["test", "dev"], default="test")
    p.add_argument("--corpus", default="", help="override the corpus path from the run config")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("ablate", help="train a grid of configurations and report a CSV")
    p.add_argument("config", help="base run configuration (INI)")
    p.add_argument("--out", required=True, help="CSV report path")
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="a standard grid: the accumulation ladder, the residual "
                        "grid, or the depth/block sweep")
    p.add_argument("--vary", action="append", metavar="SECTION.KEY=V1,V2",
                   help="explicit grid axis; repeat for a product")
    p.add_argument("--max-layers", type=int, default=7,
                   help="depth bound for --preset layer-sweep")
    p.add_argument("--dry-run", action="store_true",
                   help="emit the configuration rows without training")
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("export-attention",
                       help="write per-layer attention heatmaps for chosen instances")
    p.add_argument("run_dir", help="directory written by 'train'")
    p.add_argument("--instances", required=True,
                   help="comma-separated 0-based record indices into the corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--corpus", default="", help="override the corpus path from the run config")
    p.set_defaults(handler=cmd_export_attention)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _FAILURES as exc:
        print(f"error {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
