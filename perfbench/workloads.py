"""The benchmark's workloads, timed only through discrel's public entry points.

One caller, closed loop: each call starts after the previous one returns.
Users train with ``parse_config`` -> ``prepare_training`` -> ``train`` ->
``write_run`` and serve with ``restore_run`` -> ``evaluate_model`` /
``predict``; nothing else is timed.  Every output is checked, and every
exception or wrong output counts as a failed operation.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

from inputs import MAX_TOKENS, make_inputs, write_config
from tracer import Tracer

from discrel import (bpe, config, data, model, pair_level, pipeline, recurrent,
                     sentence_level, tensor, training, word_level)

MODULES: dict[str, ModuleType] = {
    m.__name__.rsplit(".", 1)[1]: m
    for m in (bpe, config, data, model, pair_level, pipeline, recurrent,
              sentence_level, tensor, training, word_level)}

COUNTS = {"train": 16, "dev": 8, "test": 32}
BATCH_SIZE = 16
SETUP_REPEATS = 3
SAVE_SECONDS = 1.0
SAVE_MIN_REPEATS = 5
OVERHEAD_INSTANCES = 8
EVAL_CHUNK = 8
ROW_TOLERANCE = 1e-9  # on probability sums and on restored rows
PREP_TIMEOUT_S = 150
PREP_TRAIN_CALLS = 4


@dataclass(frozen=True)
class Workload:
    """One model configuration; why each was chosen is in BENCHMARK.json."""

    name: str
    block_type: str
    vector_dim: int
    use_subword: bool = False
    use_contextual: bool = False
    serves_restored_run: bool = False  # eval_workload instead of train_workload


WORKLOADS = {w.name: w for w in [
    Workload("train-conv", "conv", 300),
    Workload("train-rnn", "recurrent", 50),
    Workload("eval-full", "conv", 50, use_subword=True, use_contextual=True,
             serves_restored_run=True),
]}

# Spans, one at each layer boundary the benchmark can see from outside.
TRACE_TARGETS = [
    "config.parse_config",
    "pipeline.prepare_training", "pipeline.restore_run", "pipeline.write_run",
    "pipeline.evaluate_model",
    "data.load_corpus", "data.make_splits",
    "bpe.load_merge_table", "bpe.apply_bpe",
    "word_level.WordEmbeddingTable.load", "word_level.WordEmbeddingTable.embed",
    "word_level.TokenEmbedder.embed_sentence",
    "word_level.SubwordEncoder.encode_indices",
    "word_level.ToyContextualEmbedder.embed", "word_level.ContextualMixer.forward",
    "sentence_level.EncoderStack.forward", "sentence_level.ConvBlock.forward",
    "sentence_level.RecurrentBlock.forward",
    "recurrent.BiGRU.forward", "recurrent.GRUCell.forward",
    "pair_level.build_pair_representation", "pair_level.bi_attend",
    "pair_level.pool_layer",
    "model.RelationModel.scores", "model.ClassifierHead.forward",
    "training.train", "training.joint_loss", "training.evaluate_accuracy",
    "training.predict",
    "tensor.backward", "tensor.adagrad_step", "tensor.save_checkpoint",
    "tensor.load_checkpoint",
]

_FORWARD_SPANS = [
    "model.RelationModel.scores", "model.ClassifierHead.forward",
    "word_level.TokenEmbedder.embed_sentence", "word_level.WordEmbeddingTable.embed",
    "sentence_level.EncoderStack.forward", "sentence_level.ConvBlock.forward",
    "sentence_level.RecurrentBlock.forward",
    "recurrent.BiGRU.forward", "recurrent.GRUCell.forward",
    "pair_level.build_pair_representation", "pair_level.bi_attend",
    "pair_level.pool_layer",
]

# The (phase, span) pairs reported as metrics: those an optimisation is most
# likely to move.  Every pair is still printed and written to the trace file.
# Entries are (phase, span, report call counts too); self time is always reported.
LAYER_SPANS = (
    [("setup", s, False) for s in [
        "config.parse_config", "pipeline.prepare_training", "pipeline.restore_run",
        "data.load_corpus", "data.make_splits", "word_level.WordEmbeddingTable.load",
        "bpe.load_merge_table", "tensor.load_checkpoint"]]
    + [("train", s, True) for s in [
        "training.train", "training.joint_loss", "training.evaluate_accuracy",
        "training.predict"] + _FORWARD_SPANS + ["tensor.backward", "tensor.adagrad_step"]]
    + [("save", s, False) for s in ["pipeline.write_run", "tensor.save_checkpoint"]]
    + [("predict", s, True) for s in [
        "pipeline.evaluate_model", "training.predict",
        "word_level.SubwordEncoder.encode_indices", "bpe.apply_bpe",
        "word_level.ToyContextualEmbedder.embed", "word_level.ContextualMixer.forward"]
       + _FORWARD_SPANS]
)

TAPE_NODES = "train.tensor.tape_nodes"
SUBWORD_PER_TOKEN = "predict.word_level.subword_encodes_per_token"
CONTEXTUAL_HIT_FRAC = "predict.word_level.contextual_cache_hit_frac"
TRACE_OVERHEAD = "trace_overhead_frac"

END_TO_END_UNITS = {
    "train_inst_per_s": "1/s",
    "predict_inst_per_s": "1/s",
    "predict_ms.mean": "ms",
    "predict_ms.p90": "ms",
    "setup_s": "s",
    "save_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for phase, span, with_calls in LAYER_SPANS:
        units[f"{phase}.{span}.self_ms"] = "ms"
        if with_calls:
            units[f"{phase}.{span}.calls"] = "count"
    units[TAPE_NODES] = "count"
    units[SUBWORD_PER_TOKEN] = "count"
    units[CONTEXTUAL_HIT_FRAC] = "fraction"
    units[TRACE_OVERHEAD] = "fraction"
    return units


# ---------------------------------------------------------------------------
# Bookkeeping


class Ledger:
    """Operations attempted and the ones that raised or gave a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.last = -1
        self.failed_ops: set[int] = set()
        self.messages: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def call(self, fn: Callable, *args):
        """(result, seconds) of one public call; the result is None if it raised."""
        op = self.attempted
        self.attempted += 1
        self.last = op
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted, reported, and the run goes on
            self.fail(f"{fn.__name__}: {type(exc).__name__}: {exc}", op)
            result = None
        return result, time.perf_counter() - start

    def merge(self, attempted: int, failed: int, messages: list[str]) -> None:
        """Add the counts of a ledger kept in another process."""
        self.failed_ops.update(range(self.attempted, self.attempted + failed))
        self.attempted += attempted
        self.messages.extend(messages)

    def fail(self, message: str, op: int) -> None:
        self.failed_ops.add(op)
        self.messages.append(message)

    def check(self, ok: bool, message: str, op: int | None = None) -> bool:
        """Mark the operation (by default the latest) failed unless ``ok``."""
        if not ok:
            self.fail(message, self.last if op is None else op)
        return ok


@dataclass
class Run:
    """What one benchmark run collects across its phases."""

    tracer: Tracer | None = None
    ledger: Ledger = field(default_factory=Ledger)
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    # (instances, seconds) per call; a rate is their total over total time
    work: dict[str, list[tuple[int, float]]] = field(default_factory=lambda: defaultdict(list))
    instances: Counter = field(default_factory=Counter)

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name


def _count_tape(tracer: Tracer, args, kwargs) -> None:
    tracer.counts[f"{tracer.phase}.tensor.tape_nodes"] += len(tensor.active_tape())


def _count_tokens(tracer: Tracer, args, kwargs) -> None:
    tokens = args[1] if len(args) > 1 else kwargs["tokens"]
    tracer.counts[f"{tracer.phase}.tokens_embedded"] += len(tokens)


PROBES = {"tensor.backward": _count_tape,
          "word_level.TokenEmbedder.embed_sentence": _count_tokens}


def install_tracer(tracer: Tracer) -> None:
    tracer.install(MODULES, TRACE_TARGETS, PROBES)


# ---------------------------------------------------------------------------
# Inputs


def write_run_inputs(w: Workload, workdir: Path, seed: int) -> Path:
    """Corpus, vectors, merges (subword runs) and config; returns the config."""
    paths = make_inputs(workdir, seed, w.vector_dim, COUNTS)
    if w.use_subword:
        records = data.load_corpus(paths["corpus"])
        freqs = bpe.word_frequencies([r.arg1 for r in records] + [r.arg2 for r in records])
        paths["merge_table"] = workdir / "merges.txt"
        bpe.save_merge_table(paths["merge_table"], bpe.learn_bpe(freqs, 200))
    sections = {
        "task": {"kind": "four-way", "split": "lin"},
        "model": {"block_type": w.block_type, "layers": 4, "kernel_size": 5,
                  "bi_attention": True, "res_block": True, "res_pair": True,
                  "use_word": True, "use_subword": w.use_subword,
                  "use_contextual": w.use_contextual, "max_tokens": MAX_TOKENS,
                  "contextual_epochs": 1},
        # dropout stays at its defaults, which are on
        "train": {"batch_size": BATCH_SIZE, "epochs": 1, "seed": seed},
        "paths": {**{key: p.resolve() for key, p in paths.items()},
                  "output_dir": (workdir / "run").resolve()},
    }
    write_config(workdir / "run.ini", sections)
    return workdir / "run.ini"


# ---------------------------------------------------------------------------
# Phases


def setup_training(config_path: Path, run: Run, repeats: int):
    """``parse_config`` + ``prepare_training``, repeated; returns the last setup."""
    run.phase("setup")
    setup = None
    for _ in range(repeats):
        setup = None  # let the previous model go before building the next
        cfg, t_parse = run.ledger.call(config.parse_config, config_path)
        if cfg is None:
            continue
        setup, t_prepare = run.ledger.call(pipeline.prepare_training, cfg)
        if setup is not None:
            run.samples["setup_s"].append(t_parse + t_prepare)
            run.instances["setup"] += 1
    return setup


def train_for(setup, seconds: float, min_calls: int, run: Run):
    """One-epoch ``train`` calls until ``seconds`` pass; returns the last result."""
    run.phase("train")
    train_config = config.to_train_config(setup.config)
    n = len(setup.splits.train)
    result = None
    start = time.perf_counter()
    calls = 0
    while calls < min_calls or time.perf_counter() - start < seconds:
        calls += 1
        out, secs = run.ledger.call(training.train, setup.model, setup.splits.train,
                                    setup.splits.dev, train_config)
        if out is None:
            continue
        result = out
        losses = [row.train_loss for row in out.trace]
        run.ledger.check(all(math.isfinite(v) for v in losses),
                         f"train: non-finite epoch loss in {losses}")
        run.work["train"].append((len(out.trace) * n, secs))
        run.instances["train"] += len(out.trace) * n
    return result


def save(setup, result, run_dir: Path, run: Run) -> None:
    """``write_run`` into the same directory for ``SAVE_SECONDS``; a median over
    many writes keeps one slow flush from setting the result."""
    run.phase("save")
    start = time.perf_counter()
    calls = 0
    while calls < SAVE_MIN_REPEATS or time.perf_counter() - start < SAVE_SECONDS:
        calls += 1
        out, secs = run.ledger.call(pipeline.write_run, run_dir, setup, result)
        if out is not None and run.ledger.check(Path(out).is_dir(),
                                                f"write_run: {out} is not a directory"):
            run.samples["save_s"].append(secs)
            run.instances["save"] += 1


def check_row(run: Run, label, probs, n_classes: int) -> bool:
    probs = np.asarray(probs)
    ok = (probs.shape == (n_classes,) and bool(np.all(np.isfinite(probs)))
          and bool(np.all(probs >= 0.0))
          and abs(float(probs.sum()) - 1.0) <= ROW_TOLERANCE
          and label == int(np.argmax(probs)))
    return run.ledger.check(ok, f"predict: bad row label={label} probs={probs.tolist()}")


def evaluate(model_, labels, chunk, run: Run) -> tuple[dict | None, int]:
    """``evaluate_model`` on one chunk; returns its report and operation id."""
    run.phase("predict")
    report, secs = run.ledger.call(pipeline.evaluate_model, model_, labels, chunk)
    if report is not None:
        run.work["predict"].append((len(chunk), secs))
        run.instances["predict"] += len(chunk)
    return report, run.ledger.last


def predict_each(model_, labels, instances, run: Run) -> list:
    """One ``predict`` per instance, each timed and checked; None where it raised."""
    run.phase("predict")
    out = []
    for inst in instances:
        got, secs = run.ledger.call(training.predict, model_, inst.record.arg1,
                                    inst.record.arg2)
        run.instances["predict"] += 1
        if got is not None and check_row(run, got[0], got[1], labels.n_classes):
            run.samples["predict_ms"].append(secs * 1e3)
        out.append(got)
    return out


def check_accuracy(report, op: int, chunk, predictions, run: Run) -> None:
    """The accuracy ``evaluate_model`` reports equals the one ``predict`` gives."""
    if report is None or any(p is None for p in predictions):
        return
    hits = sum(1 for (label, _), inst in zip(predictions, chunk) if label in inst.gold)
    run.ledger.check(report["accuracy"] == hits / len(chunk),
                     f"evaluate_model: accuracy {report['accuracy']} but "
                     f"predict gives {hits / len(chunk)}", op=op)


def check_expected(predictions, expected, run: Run) -> None:
    """Restored predictions equal the ones recorded before the run was written."""
    for got, want in zip(predictions, expected):
        if got is None or want is None:
            continue
        same = got[0] == want[0] and np.allclose(got[1], want[1], rtol=0.0,
                                                 atol=ROW_TOLERANCE)
        run.ledger.check(same, f"restored prediction {got[0]} {got[1].tolist()} "
                               f"!= prepared {want}")


def serve(test, seconds: float, fresh_models: Callable, run: Run,
          expected: list | None = None) -> None:
    """Alternate ``evaluate_model`` on a chunk of the test split with one
    ``predict`` per instance of the same chunk, until ``seconds`` pass and
    every instance was served at least once.

    Interleaving spreads both metrics' samples over the whole window, so a
    burst of load on the machine moves neither median much.
    ``fresh_models()`` gives the (evaluate model, predict model, labels) for
    each pass over the split.
    """
    chunks = [test[i:i + EVAL_CHUNK] for i in range(0, len(test), EVAL_CHUNK)]
    start = time.perf_counter()
    done = 0
    models = None
    while done < len(chunks) or time.perf_counter() - start < seconds:
        k = done % len(chunks)
        if k == 0:
            models = None  # release the last pass's models before restoring more
            models = fresh_models()
        eval_model, predict_model, labels = models
        report, op = evaluate(eval_model, labels, chunks[k], run)
        predictions = predict_each(predict_model, labels, chunks[k], run)
        del eval_model, predict_model
        check_accuracy(report, op, chunks[k], predictions, run)
        if expected is not None:
            check_expected(predictions, expected[k * EVAL_CHUNK:], run)
        done += 1


# ---------------------------------------------------------------------------
# Workloads


def train_workload(w: Workload, workdir: Path, seed: int, seconds: float,
                   run: Run) -> Callable:
    """Set up, train for ``seconds``, save, then serve the held-out split for
    ``seconds``.  Returns the reference operation for tracing overhead."""
    config_path = write_run_inputs(w, workdir, seed)
    setup = setup_training(config_path, run, SETUP_REPEATS)
    if setup is None:
        raise RuntimeError("no training set-up succeeded")
    result = train_for(setup, seconds, 1, run)
    if result is None:
        raise RuntimeError("no training call succeeded")
    save(setup, result, workdir / "run", run)
    test = setup.splits.test
    serve(test, seconds, lambda: (setup.model, setup.model, setup.labels), run)
    subset = test[:OVERHEAD_INSTANCES]
    return lambda: pipeline.evaluate_model(setup.model, setup.labels, subset)



def prepare_eval_run(w: Workload, workdir: Path, seed: int) -> dict:
    """Train and write the run eval-full restores, recording its predictions.

    Runs in its own process, so the timed process starts with cold caches
    and its peak memory is its own.  Training and saving are timed here, as
    the full embedding stack's training cost.
    """
    run = Run()
    config_path = write_run_inputs(w, workdir, seed)
    setup = setup_training(config_path, run, 1)
    if setup is None:
        raise RuntimeError("no training set-up succeeded")
    result = train_for(setup, 0.0, PREP_TRAIN_CALLS, run)
    if result is None:
        raise RuntimeError("no training call succeeded")
    save(setup, result, workdir / "run", run)
    predictions = predict_each(setup.model, setup.labels, setup.splits.test, run)
    # the first epoch fills the contextual cache, which later epochs reuse
    return {"train": run.work["train"][1:],
            "save_s": run.samples["save_s"],
            "attempted": run.ledger.attempted, "failed": run.ledger.failed,
            "messages": run.ledger.messages,
            "predictions": [None if p is None else [p[0], p[1].tolist()]
                            for p in predictions]}


def eval_workload(w: Workload, workdir: Path, seed: int, seconds: float,
                  run: Run) -> Callable:
    """Serve the held-out split from restored runs for ``seconds``.

    Each pass over the split restores two runs, one for ``evaluate_model``
    and one for single ``predict`` calls, so both start on empty caches.
    """
    prep = run_preparation(w, workdir, seed)
    run.work["train"].extend(prep["train"])
    run.samples["save_s"].extend(prep["save_s"])
    run.ledger.merge(prep["attempted"], prep["failed"], prep["messages"])
    run_dir = workdir / "run"

    def restore():
        run.phase("setup")
        restored, secs = run.ledger.call(pipeline.restore_run, run_dir)
        if restored is None:
            raise RuntimeError("restore_run failed")
        run.samples["setup_s"].append(secs)
        run.instances["setup"] += 1
        return restored

    first = restore()
    run.phase("none")
    records = data.load_corpus(first.config.corpus)
    test = data.make_splits(records, data.SPLITS[first.config.split], first.labels).test
    expected = prep["predictions"]
    run.ledger.check(len(expected) == len(test),
                     f"prep recorded {len(expected)} predictions for {len(test)} instances")
    first = None

    def fresh_models():
        a, b = restore(), restore()
        return a.model, b.model, a.labels

    serve(test, seconds, fresh_models, run, expected)
    subset = test[:OVERHEAD_INSTANCES]

    def reference():
        fresh = pipeline.restore_run(run_dir)
        return pipeline.evaluate_model(fresh.model, fresh.labels, subset)
    return reference


def run_preparation(w: Workload, workdir: Path, seed: int) -> dict:
    here = Path(__file__).resolve().parent
    out = workdir / "prep.json"
    proc = subprocess.run(
        [sys.executable, str(here / "prepare.py"), w.name, str(seed), str(workdir), str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=PREP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"preparation failed ({proc.returncode}): {proc.stderr.strip()}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Metrics


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def rate(work: list[tuple[int, float]]) -> float:
    """Instances over seconds, in total.  This host's speed switches between
    two levels for seconds at a time; a ratio of totals moves with the share
    of time spent at each, where a median of per-call rates jumps between them."""
    return sum(n for n, _ in work) / sum(secs for _, secs in work)


def end_to_end_metrics(run: Run, peak_rss_mb: float) -> dict[str, float]:
    """The bounded metrics.  Typical latency is the mean, not the median:
    single predicts run at one of the host's two speeds, and where the share
    at each is near half (train-rnn) the median jumps between them."""
    s = run.samples
    for key in ("setup_s", "save_s"):
        if not s[key]:
            raise RuntimeError(f"no successful sample for {key}")
    for key in ("train", "predict"):
        if not run.work[key]:
            raise RuntimeError(f"no successful {key} call")
    if len(s["predict_ms"]) < 2:
        raise RuntimeError("too few successful predict calls")
    return {
        "train_inst_per_s": rate(run.work["train"]),
        "predict_inst_per_s": rate(run.work["predict"]),
        "predict_ms.mean": statistics.fmean(s["predict_ms"]),
        "predict_ms.p90": percentile(s["predict_ms"], 90),
        "setup_s": statistics.median(s["setup_s"]),
        "save_s": statistics.median(s["save_s"]),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(tracer: Tracer, instances: Counter,
                      overhead_frac: float) -> dict[str, float]:
    totals = tracer.totals()
    out = {}
    for phase, span, with_calls in LAYER_SPANS:
        ns, calls = totals.get((phase, span), (0, 0))
        per = instances[phase] or 1
        out[f"{phase}.{span}.self_ms"] = ns / 1e6 / per
        if with_calls:
            out[f"{phase}.{span}.calls"] = calls / per
    out[TAPE_NODES] = tracer.counts[TAPE_NODES] / (instances["train"] or 1)
    tokens = tracer.counts["predict.tokens_embedded"]
    encodes = totals.get(("predict", "word_level.SubwordEncoder.encode_indices"), (0, 0))[1]
    out[SUBWORD_PER_TOKEN] = encodes / tokens if tokens else 0.0
    embeds = [s.id for s in tracer.spans if s.phase == "predict"
              and s.name == "word_level.ToyContextualEmbedder.embed"]
    computed = tracer.has_descendant("word_level.ToyContextualEmbedder.embed",
                                     "recurrent.BiGRU.forward")
    misses = sum(1 for i in embeds if i in computed)
    out[CONTEXTUAL_HIT_FRAC] = (len(embeds) - misses) / len(embeds) if embeds else 0.0
    out[TRACE_OVERHEAD] = overhead_frac
    return out
