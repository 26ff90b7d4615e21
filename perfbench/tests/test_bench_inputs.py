"""Seeded inputs: the same seed writes the same bytes."""

import json

import inputs


def write(tmp_path, seed):
    counts = {"train": 4, "dev": 2, "test": 2}
    paths = inputs.make_inputs(tmp_path, seed, 4, counts)
    return {key: p.read_bytes() for key, p in paths.items()}


def test_a_seed_regenerates_byte_identical_inputs(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    first = write(tmp_path / "a", 5)
    assert write(tmp_path / "b", 5) == first
    other = write(tmp_path / "c", 6)
    assert other["corpus"] != first["corpus"]
    assert other["word_vectors"] != first["word_vectors"]


def test_corpus_shape_and_vocabulary(tmp_path):
    counts = {"train": 8, "dev": 4, "test": 4}
    paths = inputs.make_inputs(tmp_path, 1, 4, counts)
    records = [json.loads(line) for line in paths["corpus"].read_text().splitlines()]
    assert len(records) == 16
    assert [r["section"] for r in records] == [2] * 8 + [22] * 4 + [23] * 4
    for r in records:
        assert len(r["arg1"]) == len(r["arg2"]) == inputs.ARG_TOKENS
    lines = paths["word_vectors"].read_text().splitlines()
    assert lines[0] == f"{inputs.VOCAB_SIZE + 8} 4"
    words = {line.split(" ", 1)[0] for line in lines[1:]}
    assert len(words) == inputs.VOCAB_SIZE + 8
    assert all(tok in words for r in records for tok in r["arg1"] + r["arg2"])
