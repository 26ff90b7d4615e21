"""Corpus records, section splits, label spaces, padding, and metrics.

The corpus format is line-delimited JSON, one object per line:

    {"arg1": ["token", ...], "arg2": ["token", ...],
     "senses": ["Contingency.Cause", ...], "connective": "because",
     "section": 12}

``connective`` may be null or omitted (it is unknown at test time for
genuinely implicit data).  ``senses`` carries every annotated sense; the
split logic turns multi-sense records into multiple training instances and
into multi-gold evaluation targets.  The license-encumbered source treebank
cannot ship here, so a tiny generator for structured synthetic corpora in
the same shape is included for experiments and tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, LabelError, ParseError, utf8_text

PAD_TOKEN = "<pad>"

TOP_LEVEL_CLASSES = ["Comparison", "Contingency", "Expansion", "Temporal"]

# Annotation labels that mark non-relational or alternatively-lexicalised
# entries; they carry no implicit sense class and are dropped everywhere.
NON_RELATION_LABELS = {"EntRel", "AltLex", "NoRel"}

# Second-level senses kept for the eleven-way task (the frequent ones; the
# five rare types are excluded).  Overridable, since this list is a protocol
# choice rather than a property of the data.
ELEVEN_WAY_SENSES = [
    "Comparison.Concession",
    "Comparison.Contrast",
    "Contingency.Cause",
    "Contingency.Pragmatic cause",
    "Expansion.Alternative",
    "Expansion.Conjunction",
    "Expansion.Instantiation",
    "Expansion.List",
    "Expansion.Restatement",
    "Temporal.Asynchronous",
    "Temporal.Synchrony",
]


@dataclass
class InstanceRecord:
    arg1: list[str]
    arg2: list[str]
    senses: list[str]
    connective: str | None = None
    section: int = 0

    def __post_init__(self):
        for name, arg in (("arg1", self.arg1), ("arg2", self.arg2)):
            if not isinstance(arg, list) or not arg or not all(isinstance(t, str) for t in arg):
                raise DataError(f"{name} must be a non-empty list of tokens")
        if (not isinstance(self.senses, list) or not self.senses
                or not all(isinstance(s, str) for s in self.senses)):
            raise DataError("senses must be a non-empty list of strings")
        if self.connective is not None and not isinstance(self.connective, str):
            raise DataError("connective must be a string or null")
        if (not isinstance(self.section, int) or isinstance(self.section, bool)
                or not 0 <= self.section <= 24):
            raise DataError(f"section must be an integer in [0, 24], got {self.section!r}")

    def to_dict(self) -> dict:
        return {"arg1": self.arg1, "arg2": self.arg2, "senses": self.senses,
                "connective": self.connective, "section": self.section}


_RECORD_KEYS = {"arg1", "arg2", "senses", "connective", "section"}


def load_corpus(path) -> list[InstanceRecord]:
    records = []
    with utf8_text(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise ParseError(f"{path}:{lineno}: record must be an object")
            unknown = set(obj) - _RECORD_KEYS
            if unknown:
                raise ParseError(f"{path}:{lineno}: unknown fields {sorted(unknown)}")
            try:
                records.append(InstanceRecord(
                    arg1=obj.get("arg1"), arg2=obj.get("arg2"),
                    senses=obj.get("senses"), connective=obj.get("connective"),
                    section=obj.get("section", 0)))
            except DataError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    return records


def save_corpus(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class SplitConfig:
    name: str
    train_sections: frozenset
    dev_sections: frozenset
    test_sections: frozenset

    def __post_init__(self):
        pairs = [(self.train_sections, self.dev_sections),
                 (self.train_sections, self.test_sections),
                 (self.dev_sections, self.test_sections)]
        if any(a & b for a, b in pairs):
            raise ConfigError(f"split {self.name}: section sets overlap")


PDTB_LIN = SplitConfig("PDTB-Lin", frozenset(range(2, 22)), frozenset({22}), frozenset({23}))
PDTB_JI = SplitConfig("PDTB-Ji", frozenset(range(2, 21)), frozenset({0, 1}), frozenset({21, 22}))

SPLITS = {"lin": PDTB_LIN, "ji": PDTB_JI}


# ---------------------------------------------------------------------------
# Label spaces


class LabelSpace:
    """Maps sense strings to class indices for one task formulation.

    ``label_of`` returns None for senses that are legitimate annotations but
    fall outside the task (rare second-level types in eleven-way mode;
    non-relation labels everywhere); genuinely unknown strings raise.
    """

    def __init__(self, mode: str, classes: list[str], target: str | None = None):
        self.mode = mode
        self.classes = list(classes)
        self.target = target
        self._index = {c: i for i, c in enumerate(self.classes)}

    @classmethod
    def eleven_way(cls) -> "LabelSpace":
        return cls("eleven_way", ELEVEN_WAY_SENSES)

    @classmethod
    def four_way(cls) -> "LabelSpace":
        return cls("four_way", TOP_LEVEL_CLASSES)

    @classmethod
    def binary(cls, target: str) -> "LabelSpace":
        if target not in TOP_LEVEL_CLASSES:
            raise LabelError(f"binary target must be one of {TOP_LEVEL_CLASSES}, got {target!r}")
        return cls("binary", ["others", target], target=target)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def _validate(self, sense: str) -> str:
        top = sense.split(".", 1)[0]
        if top not in TOP_LEVEL_CLASSES and sense not in NON_RELATION_LABELS:
            raise LabelError(f"unknown sense string {sense!r}")
        return top

    def label_of(self, sense: str) -> int | None:
        top = self._validate(sense)
        if sense in NON_RELATION_LABELS:
            return None
        if self.mode == "eleven_way":
            return self._index.get(sense)
        if self.mode == "four_way":
            return self._index[top]
        return 1 if top == self.target else 0

    def labels_of(self, senses) -> list[int]:
        """Distinct task labels of a sense list, first occurrence order."""
        out = []
        for sense in senses:
            label = self.label_of(sense)
            if label is not None and label not in out:
                out.append(label)
        return out


# ---------------------------------------------------------------------------
# Split materialization


@dataclass
class TrainInstance:
    record: InstanceRecord
    label: int


@dataclass
class EvalInstance:
    record: InstanceRecord
    gold: frozenset


@dataclass
class Splits:
    train: list = field(default_factory=list)
    dev: list = field(default_factory=list)
    test: list = field(default_factory=list)


def make_splits(records, split: SplitConfig, labels: LabelSpace) -> Splits:
    """Assign records to sets by section and expand labels per task rules.

    Multi-sense training records become one instance per distinct retained
    label; evaluation records keep their whole gold label set.  Records with
    no retained label are dropped.
    """
    out = Splits()
    for rec in records:
        kept = labels.labels_of(rec.senses)
        if not kept:
            continue
        if rec.section in split.train_sections:
            for label in kept:
                out.train.append(TrainInstance(rec, label))
        elif rec.section in split.dev_sections:
            out.dev.append(EvalInstance(rec, frozenset(kept)))
        elif rec.section in split.test_sections:
            out.test.append(EvalInstance(rec, frozenset(kept)))
    return out


def pad_truncate(tokens, n: int = 100, pad: str = PAD_TOKEN) -> list[str]:
    """First ``n`` tokens, tail-filled with the padding token to length ``n``."""
    if n < 1:
        raise ConfigError(f"pad_truncate: length must be positive, got {n}")
    tokens = list(tokens)[:n]
    return tokens + [pad] * (n - len(tokens))


# ---------------------------------------------------------------------------
# Metrics


def accuracy_multigold(predictions, gold_sets) -> float:
    """Fraction of predictions contained in their instance's gold label set."""
    predictions = list(predictions)
    gold_sets = list(gold_sets)
    if len(predictions) != len(gold_sets):
        raise DataError(f"accuracy: {len(predictions)} predictions for {len(gold_sets)} instances")
    if not predictions:
        raise DataError("accuracy: empty evaluation set")
    hits = sum(1 for p, gold in zip(predictions, gold_sets) if p in gold)
    return hits / len(predictions)


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f1_binary(predictions, gold) -> float:
    """F1 of the positive class (label 1), in percent."""
    predictions = list(predictions)
    gold = list(gold)
    if len(predictions) != len(gold):
        raise DataError(f"f1: {len(predictions)} predictions for {len(gold)} labels")
    tp = sum(1 for p, g in zip(predictions, gold) if p == 1 and g == 1)
    fp = sum(1 for p, g in zip(predictions, gold) if p == 1 and g == 0)
    fn = sum(1 for p, g in zip(predictions, gold) if p == 0 and g == 1)
    return 100.0 * _f1(tp, fp, fn)


def macro_f1_4way(predictions, gold, n_classes: int = 4) -> float:
    """Unweighted mean of one-vs-rest F1 over all classes, in percent.

    Every class contributes its quarter share even when absent from both
    predictions and gold (contributing 0).
    """
    predictions = list(predictions)
    gold = list(gold)
    if len(predictions) != len(gold):
        raise DataError(f"macro f1: {len(predictions)} predictions for {len(gold)} labels")
    total = 0.0
    for c in range(n_classes):
        tp = sum(1 for p, g in zip(predictions, gold) if p == c and g == c)
        fp = sum(1 for p, g in zip(predictions, gold) if p == c and g != c)
        fn = sum(1 for p, g in zip(predictions, gold) if p != c and g == c)
        total += _f1(tp, fp, fn)
    return 100.0 * total / n_classes


# ---------------------------------------------------------------------------
# Synthetic corpora
#
# Each class plants one cue word in each argument and has its own
# connective, over a shared filler vocabulary, so a working model can
# separate the classes while a broken one cannot.


def synthetic_corpus(n_records: int, class_names, seed: int = 0,
                     filler_words: int = 30, arg_len: int = 7,
                     multi_sense_rate: float = 0.0,
                     sections=tuple(range(25))) -> list[InstanceRecord]:
    class_names = list(class_names)
    if not class_names:
        raise ConfigError("synthetic corpus: need at least one class")
    if filler_words < 1:
        raise ConfigError(f"synthetic corpus: need at least one filler word, got {filler_words}")
    if arg_len < 1:
        raise ConfigError(f"synthetic corpus: arguments need at least one token, got {arg_len}")
    rng = np.random.default_rng(seed)
    fillers = [f"w{i}" for i in range(filler_words)]
    records = []
    for i in range(n_records):
        c = i % len(class_names)
        senses = [class_names[c]]
        if multi_sense_rate and rng.random() < multi_sense_rate and len(class_names) > 1:
            extra = (c + 1 + int(rng.integers(len(class_names) - 1))) % len(class_names)
            senses.append(class_names[extra])

        def argument(slot):
            tokens = [fillers[int(rng.integers(filler_words))] for _ in range(arg_len - 1)]
            tokens.insert(int(rng.integers(len(tokens) + 1)), f"cue{c}{slot}")
            return tokens

        records.append(InstanceRecord(
            arg1=argument("a"), arg2=argument("b"), senses=senses,
            connective=f"conn{c}", section=sections[i % len(sections)]))
    return records


def synthetic_word_vectors(records, dim: int = 12, seed: int = 0) -> tuple[dict[str, int], np.ndarray]:
    """A random (but seeded) vector table covering the corpus vocabulary."""
    if dim < 1:
        raise ConfigError(f"synthetic word vectors: width must be positive, got {dim}")
    words = sorted({t for rec in records for t in rec.arg1 + rec.arg2})
    rng = np.random.default_rng(seed)
    vocab = {w: i for i, w in enumerate(words)}
    return vocab, rng.normal(scale=0.5, size=(len(words), dim))
