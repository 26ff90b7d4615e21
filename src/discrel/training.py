"""Joint training loop, prediction, and evaluation.

During training every minibatch is scored by both heads in one batched
forward pass and the two cross-entropies are added; the connective head is
an auxiliary signal that sharpens the shared pair representation but plays
no part in evaluation or prediction.  Optimization is AdaGrad over the
model's trainable parameters (frozen components never receive updates).
Model selection is classic early stopping: the epoch with the best dev
accuracy wins, and its weights are restored when the loop ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import accuracy_multigold
from .errors import ConfigError, DataError, DivergenceError, ParseError, utf8_text
from .model import RelationModel
from .tensor import Tensor


@dataclass
class TrainConfig:
    """The loop's own settings; dropout rates belong to the model."""

    learning_rate: float = 0.001
    batch_size: int = 64
    epochs: int = 100
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.patience < 0:
            raise ConfigError(f"patience must be non-negative, got {self.patience}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_accuracy: float


@dataclass
class TrainResult:
    trace: list[EpochStats]
    best_epoch: int
    best_dev_accuracy: float
    state: dict = field(repr=False)


def connective_vocabulary(instances) -> list[str]:
    """Sorted distinct connectives of the training set (the auxiliary label space)."""
    seen = set()
    for i, inst in enumerate(instances):
        conn = inst.record.connective
        if conn is None:
            raise DataError(f"training instance {i} has no connective annotation")
        seen.add(conn)
    return sorted(seen)


def joint_loss(relation_logits: Tensor, connective_logits: Tensor, gold_relations,
               gold_connectives) -> Tensor:
    """Relation cross-entropy plus connective cross-entropy."""
    return (T.cross_entropy(relation_logits, gold_relations)
            + T.cross_entropy(connective_logits, gold_connectives))


# Instances scored together by one batched forward pass during evaluation.
PREDICT_CHUNK = 16


def predict(model: RelationModel, arg1_tokens, arg2_tokens) -> tuple[int, np.ndarray]:
    """Relation argmax and its probability row; dropout off, nothing recorded."""
    with T.no_grad():
        rel_logits, _ = model.scores(arg1_tokens, arg2_tokens)
        probs = T.softmax_rows(rel_logits).numpy()[0]
    return int(np.argmax(probs)), probs


def predict_labels(model: RelationModel, instances) -> list[int]:
    """Relation argmax per instance, ``PREDICT_CHUNK`` instances per forward pass."""
    instances = list(instances)
    labels = []
    with T.no_grad():
        for start in range(0, len(instances), PREDICT_CHUNK):
            chunk = instances[start:start + PREDICT_CHUNK]
            rel_logits, _ = model.batch_scores(
                [(inst.record.arg1, inst.record.arg2) for inst in chunk])
            probs = T.softmax_rows(rel_logits).numpy()
            labels.extend(int(label) for label in np.argmax(probs, axis=1))
    return labels


def evaluate_accuracy(model: RelationModel, instances) -> float:
    """Multi-gold accuracy: a prediction matching any gold label counts."""
    return accuracy_multigold(predict_labels(model, instances),
                              [inst.gold for inst in instances])


def resolve_gold(prediction: int, gold: frozenset) -> int:
    """Collapse a multi-gold set to one label for confusion-based metrics.

    A prediction inside the set counts as correct against itself; otherwise
    the smallest gold label stands in, deterministically.
    """
    return prediction if prediction in gold else min(gold)


def train(model: RelationModel, train_instances, dev_instances,
          config: TrainConfig) -> TrainResult:
    """Run the joint loop; leaves the best-dev weights installed on the model."""
    train_instances = list(train_instances)
    dev_instances = list(dev_instances)
    if not train_instances or not dev_instances:
        raise DataError("training needs non-empty train and dev sets")

    examples = []
    for i, inst in enumerate(train_instances):
        conn = inst.record.connective
        if conn not in model.connective_index:
            raise DataError(f"training instance {i}: connective {conn!r} is outside "
                            "the model's connective vocabulary")
        examples.append((inst.record.arg1, inst.record.arg2,
                         inst.label, model.connective_index[conn]))

    rng = np.random.default_rng(config.seed)
    T.active_tape().clear()
    trace: list[EpochStats] = []
    best_dev = -1.0
    best_epoch = 0
    best_state: dict | None = None
    stale = 0
    step = 0
    n = len(examples)

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        total_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = [examples[i] for i in order[start:start + config.batch_size]]
            rel_logits, conn_logits = model.batch_scores(
                [(arg1, arg2) for arg1, arg2, _, _ in batch], rng)
            loss = joint_loss(rel_logits, conn_logits, [ex[2] for ex in batch],
                              [ex[3] for ex in batch])
            value = loss.item()
            step += 1
            if not math.isfinite(value):
                T.active_tape().clear()
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, step {step}")
            T.backward(loss)
            T.adagrad_step(model.parameters(), lr=config.learning_rate)
            total_loss += value * len(batch)
        dev_accuracy = evaluate_accuracy(model, dev_instances)
        trace.append(EpochStats(epoch, total_loss / n, dev_accuracy))
        if dev_accuracy > best_dev:
            best_dev = dev_accuracy
            best_epoch = epoch
            best_state = model.state_arrays()
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break

    model.load_state_arrays(best_state)
    return TrainResult(trace, best_epoch, best_dev, best_state)


_TRACE_HEADER = "epoch,train_loss,dev_accuracy"


def save_trace(path, trace: list[EpochStats]) -> None:
    """Write the per-epoch log as CSV with round-trip-exact floats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_TRACE_HEADER + "\n")
        for row in trace:
            fh.write(f"{row.epoch},{row.train_loss!r},{row.dev_accuracy!r}\n")


def load_trace(path) -> list[EpochStats]:
    """The rows ``save_trace`` wrote; a malformed row is a ParseError naming
    its line."""
    with utf8_text(path), open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _TRACE_HEADER:
        raise DataError(f"{path}: not a training trace")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:  # a wrong field count fails the unpacking
            epoch, loss, acc = line.split(",")
            out.append(EpochStats(int(epoch), float(loss), float(acc)))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: expected '{_TRACE_HEADER}' numbers, "
                             f"got {line!r}") from None
    return out
