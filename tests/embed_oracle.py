"""The per-sentence token embedding that ``TokenEmbedder.embed`` replaces.

Each argument is embedded on its own, cut or padded with ``<pad>`` to
``rows`` tokens: its word vectors looked up one token at a time, one
subword batch over its own distinct tokens, and one mixer pass over the
contextual embedder's output for its real tokens alone (a call of one
sentence), zero-filled on the padding rows.  The parts are concatenated by column, then the arguments by
row.  ``embed`` must reproduce it bitwise, and its gradients up to rounding.
"""

import numpy as np

from discrel import tensor as T
from discrel.data import PAD_TOKEN, pad_truncate


def _word_rows(table, tokens):
    rows = []
    for tok in tokens:
        index = table.vocab.get(tok)
        rows.append(np.zeros(table.dim) if tok == PAD_TOKEN or index is None
                    else table.matrix[index])
    return np.array(rows)


def embed_sentence(embedder, tokens, n_real):
    """(len(tokens), dim) embedding of one token row whose first ``n_real``
    tokens are real."""
    parts = []
    if embedder.word_table is not None:
        parts.append(T.constant(_word_rows(embedder.word_table, tokens)))
    if embedder.subword is not None:
        slots = {}
        positions = [slots.setdefault(tok, len(slots)) for tok in tokens]
        features = embedder.subword.encode_indices(
            [embedder._token_piece_indices(tok) for tok in slots])
        parts.append(T.gather_rows(features, positions))
    if embedder.mixer is not None:
        lower, upper = embedder.contextual.embed([tokens[:n_real]])
        fill = np.zeros((len(tokens) - n_real, embedder.mixer.d_in))
        parts.append(embedder.mixer.forward(T.constant(np.vstack([lower, fill])),
                                            T.constant(np.vstack([upper, fill]))))
    return parts[0] if len(parts) == 1 else T.concat(parts, axis=1)


def per_sentence_embed(embedder, arguments, rows):
    """The arguments embedded one at a time at ``rows`` rows, then stacked."""
    embedded = [embed_sentence(embedder, pad_truncate(tokens, rows), min(len(tokens), rows))
                for tokens in arguments]
    return embedded[0] if len(embedded) == 1 else T.concat(embedded, axis=0)
