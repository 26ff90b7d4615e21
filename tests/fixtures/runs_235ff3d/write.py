"""Write the run directories in this folder, one per contextual route.

Run it from this folder with a checkout's ``src`` on the path:

    PYTHONPATH=<checkout>/src python write.py

It writes a tiny corpus and 4-d word vectors, a 2-d language model in
``lm/`` (``discrel prep-contextual``), a run that trains its own language
model in ``fresh/`` and one that loads ``lm/`` in ``pretrained/``
(``discrel train``; 1 conv layer, dropout on), and ``expected.json``: each
restored run's ``predict`` label and probability row for the first eight
records and one pair of unseen words.
"""

import json
import tempfile
from pathlib import Path

from discrel.cli import main
from discrel.data import load_corpus
from discrel.pipeline import restore_run
from discrel.training import predict

CONFIG = """\
[task]
kind = eleven-way
split = lin

[model]
layers = 1
kernel_size = 3
max_tokens = 6
use_contextual = true
contextual_source = {route}
contextual_dim = 2
contextual_char_dim = 1
contextual_out_dim = 2
contextual_epochs = 1

[train]
learning_rate = 0.1
batch_size = 8
epochs = 2

[paths]
corpus = corpus.jsonl
word_vectors = vectors.txt
contextual_model = {lm}
output_dir = {route}
"""

ROUTES = {"fresh": "", "pretrained": "lm"}


def pairs():
    out = [(rec.arg1, rec.arg2) for rec in load_corpus("corpus.jsonl")[:8]]
    out.append((["novel", "words", "here"], ["and", "unseen"]))
    return out


def write() -> None:
    assert main(["gen-synthetic", "corpus.jsonl", "--records", "50", "--fillers", "6",
                 "--arg-len", "4", "--word-vectors", "vectors.txt", "--dim", "4"]) == 0
    assert main(["prep-contextual", "corpus.jsonl", "lm", "--width", "2",
                 "--char-width", "1", "--epochs", "1", "--seed", "7"]) == 0
    expected = {}
    for route, lm in ROUTES.items():
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.ini"
            config.write_text(CONFIG.format(route=route, lm=lm), encoding="utf-8")
            assert main(["train", str(config)]) == 0
        model = restore_run(route).model
        expected[route] = [{"label": label, "probs": probs.tolist()}
                           for label, probs in (predict(model, a1, a2) for a1, a2 in pairs())]
    with open("expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    write()
