"""Byte-pair-encoding subword segmentation.

Merges are learned over a word-frequency corpus by repeatedly fusing the
adjacent symbol pair with the highest weighted frequency.  Pair occurrences
are counted non-overlapping, greedy left-to-right, which is exactly the
number of fusions a merge pass would perform (a run of m equal symbols
contributes floor(m/2), not m-1).  Ties break on the lexicographically
smallest (left, right) pair so learning is deterministic, and learning stops
early once the best pair occurs fewer than 2 times.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError, ParseError, utf8_text

MIN_PAIR_COUNT = 2


@dataclass
class MergeTable:
    """An ordered list of learned merges; order of application is significant."""

    merges: list[tuple[str, str]] = field(default_factory=list)
    # pair -> the ascending ranks at which it appears in ``merges``
    ranks: dict[tuple[str, str], list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.ranks = {}
        for rank, pair in enumerate(self.merges):
            self.ranks.setdefault(pair, []).append(rank)

    def __len__(self) -> int:
        return len(self.merges)


def _word_pair_counts(symbols: list[str]) -> Counter:
    """Non-overlapping adjacent-pair counts for one symbol sequence."""
    counts: Counter = Counter()
    i = 0
    n = len(symbols)
    while i < n - 1:
        if symbols[i] == symbols[i + 1]:
            j = i
            while j < n and symbols[j] == symbols[i]:
                j += 1
            counts[(symbols[i], symbols[i])] += (j - i) // 2
            i = j - 1  # the run tail may still pair with the next symbol
        else:
            counts[(symbols[i], symbols[i + 1])] += 1
            i += 1
    return counts


def _merge_symbols(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    """One greedy left-to-right merge pass for ``pair``."""
    left, right = pair
    out = []
    i = 0
    n = len(symbols)
    while i < n:
        if i < n - 1 and symbols[i] == left and symbols[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def learn_bpe(corpus: dict[str, int], num_merges: int) -> MergeTable:
    """Learn up to ``num_merges`` merges from a word -> count mapping.

    Pair statistics are kept incrementally: after each merge only the words
    containing the merged pair are recounted.
    """
    if not corpus:
        raise DataError("learn_bpe: corpus is empty")
    for word, count in corpus.items():
        if count <= 0:
            raise DataError(f"learn_bpe: count for {word!r} must be positive, got {count}")

    words = [(list(word), count) for word, count in corpus.items()]
    stats: Counter = Counter()
    index: dict[tuple[str, str], set[int]] = {}
    for wi, (symbols, count) in enumerate(words):
        for pair, n in _word_pair_counts(symbols).items():
            stats[pair] += n * count
            index.setdefault(pair, set()).add(wi)

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        if not stats:
            break
        best_count = max(stats.values())
        if best_count < MIN_PAIR_COUNT:
            break
        best = min(pair for pair, c in stats.items() if c == best_count)
        merges.append(best)

        for wi in sorted(index.get(best, ())):
            symbols, count = words[wi]
            before = _word_pair_counts(symbols)
            merged = _merge_symbols(symbols, best)
            after = _word_pair_counts(merged)
            words[wi] = (merged, count)
            for pair in before.keys() | after.keys():
                delta = (after.get(pair, 0) - before.get(pair, 0)) * count
                if delta:
                    stats[pair] += delta
                if stats.get(pair) == 0:
                    del stats[pair]
                if after.get(pair, 0) > 0:
                    index.setdefault(pair, set()).add(wi)
                elif pair in index:
                    index[pair].discard(wi)
    return MergeTable(merges)


def apply_bpe(word: str, table: MergeTable) -> list[str]:
    """Segment ``word`` as replaying the table's merges in order would.

    A merge whose pair is not adjacent in the current symbols is a no-op, so
    each step jumps to the lowest-ranked merge after the last one applied
    whose pair does occur, and applies it.  That holds for any table,
    including ones with repeated or out-of-order merges.  Unknown characters
    simply remain singleton subwords; the concatenation of the output always
    reproduces the word.
    """
    if not word:
        raise DataError("apply_bpe: word is empty")
    symbols = list(word)
    ranks = table.ranks
    last = -1
    while len(symbols) > 1:
        best = None
        for pair in zip(symbols, symbols[1:]):
            pair_ranks = ranks.get(pair)
            if pair_ranks is None:
                continue
            i = bisect_right(pair_ranks, last)
            if i < len(pair_ranks) and (best is None or pair_ranks[i] < best):
                best = pair_ranks[i]
        if best is None:
            break
        symbols = _merge_symbols(symbols, table.merges[best])
        last = best
    return symbols


def save_merge_table(path, table: MergeTable) -> None:
    """One merge per line, "left right", UTF-8, order significant."""
    with open(path, "w", encoding="utf-8") as fh:
        for left, right in table.merges:
            fh.write(f"{left} {right}\n")


def load_merge_table(path) -> MergeTable:
    merges = []
    with utf8_text(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(" ")
            if len(fields) != 2 or not fields[0] or not fields[1]:
                raise ParseError(f"{path}:{lineno}: expected 'left right', got {line!r}")
            merges.append((fields[0], fields[1]))
    return MergeTable(merges)


def load_word_frequencies(path) -> dict[str, int]:
    """Read a "word count" per-line frequency file."""
    freqs: dict[str, int] = {}
    with utf8_text(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'word count', got {line!r}")
            try:
                count = int(fields[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: count {fields[1]!r} is not an integer") from None
            freqs[fields[0]] = freqs.get(fields[0], 0) + count
    return freqs


def word_frequencies(token_sequences) -> dict[str, int]:
    """Count word frequencies over an iterable of token sequences."""
    freqs: Counter = Counter()
    for tokens in token_sequences:
        freqs.update(tokens)
    return dict(freqs)


def subword_vocabulary(corpus_words, table: MergeTable) -> list[str]:
    """Deterministic subword inventory: corpus characters plus merge outputs."""
    chars = sorted({c for word in corpus_words for c in word})
    return chars + [left + right for left, right in table.merges]
