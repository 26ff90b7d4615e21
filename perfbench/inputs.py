"""Seeded benchmark inputs, written as the files a user would hand to discrel.

Each workload gets a planted-cue corpus in the PDTB section layout of the
``lin`` split, a word-vector text file covering a realistic vocabulary, and
an INI run configuration.  Everything is derived from one seed; the same
seed writes byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# PDTB's implicit-relation vocabulary is about 10.7k word types; a table of
# that size makes set-up time measure the word-vector parse, not noise.
VOCAB_SIZE = 10_700
ARG_TOKENS = 20
MAX_TOKENS = 100
SENSES = ["Comparison.Contrast", "Contingency.Cause",
          "Expansion.Conjunction", "Temporal.Asynchronous"]
CONNECTIVES = ["however", "because", "and", "then"]
# lin split: sections 2-21 train, 22 dev, 23 test
SECTION = {"train": 2, "dev": 22, "test": 23}

_ONSETS = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl",
           "pr", "sh", "st", "th", "tr"]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
_CODAS = ["", "", "", "n", "r", "s", "t", "l", "nd", "st", "ng"]
_SUFFIXES = ["", "", "", "s", "ed", "ing", "er", "ly", "tion"]


def vocabulary(rng: np.random.Generator, size: int = VOCAB_SIZE) -> list[str]:
    """Distinct pronounceable words, so byte-pair merges find real structure."""
    words: dict[str, None] = {}
    while len(words) < size:
        syllables = int(rng.integers(1, 4))
        word = "".join(_ONSETS[rng.integers(len(_ONSETS))]
                       + _NUCLEI[rng.integers(len(_NUCLEI))]
                       + _CODAS[rng.integers(len(_CODAS))]
                       for _ in range(syllables))
        words.setdefault(word + _SUFFIXES[rng.integers(len(_SUFFIXES))])
    return list(words)


def cue_word(label: int, slot: str) -> str:
    return f"cue{label}{slot}"


def corpus_records(rng: np.random.Generator, words: list[str],
                   counts: dict[str, int]) -> list[dict]:
    """Records whose arguments hold one class cue among Zipf-drawn fillers."""
    weights = 1.0 / (np.arange(len(words)) + 10.0)
    weights /= weights.sum()
    records = []
    for part, n in counts.items():
        for i in range(n):
            label = i % len(SENSES)
            args = []
            for slot in ("a", "b"):
                fillers = rng.choice(len(words), size=ARG_TOKENS - 1, p=weights)
                tokens = [words[j] for j in fillers]
                tokens.insert(int(rng.integers(ARG_TOKENS)), cue_word(label, slot))
                args.append(tokens)
            records.append({"arg1": args[0], "arg2": args[1],
                            "senses": [SENSES[label]],
                            "connective": CONNECTIVES[label],
                            "section": SECTION[part]})
    return records


def write_corpus(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_word_vectors(path: Path, words: list[str], dim: int,
                       rng: np.random.Generator) -> None:
    """Text vectors with six significant digits, as published tables use."""
    matrix = rng.normal(scale=0.5, size=(len(words), dim))
    row_format = " ".join(["%.6g"] * dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {dim}\n")
        for word, row in zip(words, matrix):
            fh.write(word + " " + row_format % tuple(row) + "\n")


def write_config(path: Path, sections: dict[str, dict[str, object]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for section, entries in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in entries.items():
                if isinstance(value, bool):
                    value = "true" if value else "false"
                fh.write(f"{key} = {value}\n")
            fh.write("\n")


def make_inputs(workdir: Path, seed: int, vector_dim: int,
                counts: dict[str, int]) -> dict[str, Path]:
    """Write the corpus and word vectors for one seed; returns their paths."""
    rng = np.random.default_rng(seed)
    words = vocabulary(rng)
    records = corpus_records(rng, words, counts)
    cues = [cue_word(label, slot) for label in range(len(SENSES)) for slot in "ab"]
    paths = {"corpus": workdir / "corpus.jsonl",
             "word_vectors": workdir / "vectors.txt"}
    write_corpus(paths["corpus"], records)
    write_word_vectors(paths["word_vectors"], words + cues, vector_dim, rng)
    return paths
