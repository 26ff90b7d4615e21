"""The word-vector text parser written one line and one component at a time.

This is the loader ``discrel.word_level.load_word_vectors`` replaced: each
line is split on spaces and each component read with ``float``.  It is
slow, but every step is plainly the format's rule, so it is the reference
for the streamed loader's vocabulary, matrix and error messages.  It skips
a first line of two fields without reading it, so ``first_fault`` adds the
header rule, and reports faults in file order.
"""

import re

import numpy as np

from discrel.errors import ParseError, utf8_text


def load_word_vectors(path) -> tuple[dict[str, int], np.ndarray]:
    """Parse a text vector file: one "word v1 v2 ..." per line.

    A first line of exactly two fields is treated as a "count dim" header
    and skipped.
    """
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    linenos: list[int] = []
    dim = None
    with utf8_text(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(" ")
            if lineno == 1 and len(fields) == 2:
                continue
            if len(fields) < 2:
                raise ParseError(f"{path}:{lineno}: expected 'word v1 ...', got {line!r}")
            word = fields[0]
            try:
                vec = np.array([float(v) for v in fields[1:]], dtype=np.float64)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric vector component") from None
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ParseError(f"{path}:{lineno}: vector has {vec.size} components, expected {dim}")
            if word not in vocab:
                vocab[word] = len(rows)
                rows.append(vec)
                linenos.append(lineno)
            elif not np.isfinite(vec).all():
                raise ParseError(f"{path}:{lineno}: non-finite vector component")
    if not rows:
        raise ParseError(f"{path}: no vectors found")
    matrix = np.vstack(rows)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ParseError(f"{path}:{linenos[int(finite.argmin())]}: non-finite vector component")
    return vocab, matrix


def first_fault(path, data: bytes) -> str | None:
    """The ParseError message the streamed loader gives for ``data`` stored
    at ``path``, or None if the file is valid; leaves ``data`` at ``path``.

    A first line of two fields is a header of two decimal integers: the
    number of lines after it, and the number of components on line 2 (if
    line 2 has any).  After it, the first faulty line is the last line of
    the shortest prefix of the file that ``load_word_vectors`` refuses.
    """
    raw = data.splitlines(keepends=True)
    lines = [line.decode("utf-8").rstrip("\r\n") for line in raw]
    read = [line + "\n" if end.endswith((b"\n", b"\r")) else line
            for line, end in zip(lines, raw)]
    header = bool(lines) and lines[0].count(" ") == 1
    if header:
        count, dim = lines[0].split(" ")
        if not (re.fullmatch("[0-9]+", count) and re.fullmatch("[0-9]+", dim)):
            return f"{path}:1: expected a 'count dim' header, got {read[0]!r}"
        if int(count) != len(lines) - 1:
            return f"{path}:1: header gives count {count}, but {len(lines) - 1} lines follow it"
        if len(lines) > 1 and " " in lines[1] and lines[1].count(" ") != int(dim):
            return (f"{path}:1: header gives dim {dim}, "
                    f"but line 2 has {lines[1].count(' ')} components")
    for end in range(min(1 + header, len(raw)), len(raw) + 1):
        path.write_bytes(b"".join(raw[:end]))
        try:
            load_word_vectors(path)
        except ParseError as exc:
            return str(exc)
    return None
