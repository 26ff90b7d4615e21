"""Padded conv passes compute each padding row once.

The model embeds every argument at R + 1 rows instead of ``max_tokens``,
and each conv layer grows them by 2h, in inference and in training; the
pair level weighs the one row of each layer that stands for its pad run by
its count.  These tests pin the preconditions (every pad row embeds to the
same vector, and all pad rows of an instance share one dropout mask row),
the equivalence with the full-length pass under the same mask rule
(logits, attention maps and gradients), and that the short path is the one
actually taken.  Where the short path runs, the two passes multiply
different row counts, so they agree within 1e-10; where it does not, they
agree bitwise.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from discrel import tensor as T
from discrel.bpe import learn_bpe, subword_vocabulary, word_frequencies
from discrel.model import RelationModel
from discrel.pair_level import attention_map
from discrel.sentence_level import EncoderStack
from discrel.training import joint_loss, predict, predict_labels
from discrel.word_level import (
    ContextualMixer,
    SubwordEncoder,
    TokenEmbedder,
    WordEmbeddingTable,
    build_toy_embedder,
)
from block_oracles import each_once, per_instance_pair_rows, shortened
from claims import assert_agree, shapes_claim

WORDS = [f"tok{i}" for i in range(24)]
CONNECTIVES = ["and", "because", "but"]


def word_table(dim=6):
    rng = np.random.default_rng(0)
    return WordEmbeddingTable({w: i for i, w in enumerate(WORDS)},
                              rng.normal(size=(len(WORDS), dim)))


def subword_parts():
    merges = learn_bpe(word_frequencies([WORDS]), 8)
    encoder = SubwordEncoder(subword_vocabulary(WORDS, merges), np.random.default_rng(1),
                             emb_dim=3, kernel_sizes=(2, 3), channels=2)
    return encoder, merges


def toy_embedder():
    sentences = [WORDS[i:i + 6] for i in range(0, 20, 3)]
    toy, _ = build_toy_embedder(sentences, dim=8, char_dim=4, epochs=1, seed=3)
    return toy


def full_embedder():
    subword, merges = subword_parts()
    return TokenEmbedder(word_table=word_table(), subword=subword, merges=merges,
                         mixer=ContextualMixer(8, 4, np.random.default_rng(2)),
                         contextual=toy_embedder())


def sentences(rng, lengths):
    return [[WORDS[int(i)] for i in rng.integers(0, len(WORDS), n)] for n in lengths]


# ---------------------------------------------------------------------------
# Precondition: one pad row, wherever it sits


@pytest.mark.parametrize("part", ["word", "subword", "toy"])
def test_every_pad_row_embeds_identically(part):
    rows = sentences(np.random.default_rng(5), [3, 7, 1])
    if part == "word":
        embedder = TokenEmbedder(word_table=word_table())
    elif part == "subword":
        subword, merges = subword_parts()
        embedder = TokenEmbedder(subword=subword, merges=merges)
    else:
        embedder = TokenEmbedder(mixer=ContextualMixer(8, 4, np.random.default_rng(6)),
                                 contextual=toy_embedder())
    with T.no_grad():
        full = embedder.embed(rows, 40).numpy().reshape(len(rows), 40, -1)
        short = embedder.embed(rows, 12).numpy().reshape(len(rows), 12, -1)
    pad_row = full[0, -1]
    for tokens, long_rows, short_rows in zip(rows, full, short):
        # padded to fewer rows, the embedding is a bitwise prefix of the full one
        assert short_rows.tobytes() == long_rows[:12].tobytes()
        for row in long_rows[len(tokens):]:
            assert row.tobytes() == pad_row.tobytes()


# ---------------------------------------------------------------------------
# Equivalence with the full-length pass


def mask_rows(model, arguments):
    """Per dropout slot of one argument's stack (the embedding, then each
    encoder layer's input), the rows per instance that the model's pass
    holds there: a conv stack embeds min(N, R + 1) rows and each layer adds
    k - 1 more, up to N; a recurrent stack holds N."""
    n = model.max_tokens
    if model.block_type != "conv":
        return [n] * (model.depth + 1)
    rows = min(n, max(len(tokens) for tokens in arguments) + 1)
    slots = [rows]
    for _ in range(model.depth):
        slots.append(rows)
        rows = min(n, rows + model.kernel_size - 1)
    return slots


def pad_shared_dropout(t, rate, rng, rows, arguments):
    """Dropout under the pad-shared mask rule, at full length: one draw of
    ``rows`` rows per instance, and full-length row j of instance b reads
    mask row min(j, r_b) of that instance, r_b its real length."""
    if rng is None or rate == 0.0:
        return t
    n = t.shape[0] // len(arguments)
    drawn = (rng.random((len(arguments) * rows, t.shape[1])) >= rate) / (1.0 - rate)
    source = [b * rows + min(j, len(tokens), n) for b, tokens in enumerate(arguments)
              for j in range(n)]
    return T.mul(t, T.constant(drawn[source]))


def full_length_scores(model, pairs, rng=None, shared_pad_masks=True):
    """The unshortened oracle: both stacks run at ``max_tokens`` rows, with
    embedding and encoder dropout under the pad-shared mask rule, each mask
    drawn at the rows the model's pass holds in its slot, or with one plain
    mask per row when ``shared_pad_masks`` is off."""
    n = model.max_tokens
    arguments = ([arg1 for arg1, _ in pairs], [arg2 for _, arg2 in pairs])
    slots = [mask_rows(model, args) for args in arguments]

    def drop(t, rate, stack, slot):
        if not shared_pad_masks:
            return T.dropout(t, rate, rng)
        return pad_shared_dropout(t, rate, rng, slots[stack][slot], arguments[stack])

    hs = [drop(model.embedder.embed(args, n), model.embedding_dropout, i, 0)
          for i, args in enumerate(arguments)]
    layers1, layers2 = [], []
    for layer, blocks in enumerate(zip(model.stack1.blocks, model.stack2.blocks)):
        hs = type(blocks[0]).forward(
            blocks, [drop(h, model.encoder_dropout, i, layer + 1) for i, h in enumerate(hs)],
            len(pairs))
        layers1.append(hs[0])
        layers2.append(hs[1])
    if not model.res_pair:
        layers1, layers2 = layers1[-1:], layers2[-1:]
    rows = per_instance_pair_rows(layers1, layers2, model.attention, len(pairs))
    pooled = T.dropout(rows, model.classifier_dropout, rng)
    return (model.relation_head.forward(pooled), model.connective_head.forward(pooled),
            layers1, layers2)


def eq_model(kernel_size=5, depth=4, max_tokens=40, **kwargs):
    rng = np.random.default_rng(7)
    model = RelationModel(full_embedder(), 3, CONNECTIVES, rng, depth=depth,
                          kernel_size=kernel_size, max_tokens=max_tokens, **kwargs)
    noise = np.random.default_rng(8)
    for p in model.parameters():  # move every block off its zero-initialised identity
        p.data += noise.normal(scale=0.1, size=p.shape)
    return model


def eq_pairs(longest, batch=4, seed=9):
    """``batch`` pairs of mixed lengths; the longest of each argument is ``longest``."""
    rng = np.random.default_rng(seed)
    lengths1 = [longest] + [int(n) for n in rng.integers(1, longest + 1, batch - 1)]
    lengths2 = [max(1, longest // 2)] * (batch - 1) + [longest]
    return list(zip(sentences(rng, lengths1), sentences(rng, lengths2)))


@pytest.fixture
def stack_rows(monkeypatch):
    """Per stack run by ``EncoderStack.forward``, in call order, the rows of
    its input and of each of its layers' outputs."""
    seen = []
    original = EncoderStack.forward

    def spy(stacks, inputs, batch=1, **kwargs):
        outputs = original(stacks, inputs, batch, **kwargs)
        seen.extend([x.shape[0]] + [h.shape[0] for h in layers]
                    for x, layers in zip(inputs, outputs))
        return outputs

    monkeypatch.setattr(EncoderStack, "forward", spy)
    return seen


def grads(params):
    out = [p.grad.copy() for p in params]
    for p in params:
        p.grad = None
    return out


# (kernel size, depth, longest argument, model options)
CASES = [
    (5, 4, 12, {}),
    (5, 4, 1, {}),                      # R = 1
    (5, 4, 40, {}),                     # R = max_tokens: no shortening
    (5, 4, 55, {}),                     # R > max_tokens: truncation
    (3, 1, 12, {}),                     # L = 1
    (1, 2, 12, {}),                     # k = 1
    (3, 2, 5, {"res_pair": False, "shared_stacks": True}),
    (3, 2, 5, {"bi_attention": False, "res_block": False}),
]


def full_length_claim(model, pairs):
    """Bitwise when neither argument's stack is shortened, else within 1e-10."""
    return shapes_claim(not shortened(model, pairs))


@pytest.mark.parametrize("kernel_size,depth,longest,options", CASES)
def test_eval_logits_equal_the_full_length_pass(kernel_size, depth, longest, options,
                                                stack_rows):
    model = eq_model(kernel_size, depth, **options)
    pairs = eq_pairs(longest)
    with T.no_grad():
        rel, conn = model.batch_scores(pairs)
        want_rel, want_conn, _, _ = full_length_scores(model, pairs)
    claim = full_length_claim(model, pairs)
    assert_agree(rel.numpy(), want_rel.numpy(), claim)
    assert_agree(conn.numpy(), want_conn.numpy(), claim)
    # R + 1 rows embedded, then 2h more per layer, up to max_tokens
    rows = [min(40, min(longest, 40) + 1 + layer * (kernel_size - 1))
            for layer in range(depth + 1)]
    assert stack_rows[:2] == [[len(pairs) * r for r in rows]] * 2


def loss(rel, conn):
    return T.cross_entropy(rel, [0, 1, 2, 0]) + T.cross_entropy(conn, [2, 1, 0, 1])


def train_and_oracle(model, pairs, **oracle_options):
    """Logits and gradients of one training pass, and of the oracle's, from
    the same seed."""
    params = model.parameters()
    rel, conn = model.batch_scores(pairs, np.random.default_rng(3))
    T.backward(loss(rel, conn))
    got = grads(params)
    want_rel, want_conn, _, _ = full_length_scores(model, pairs, np.random.default_rng(3),
                                                   **oracle_options)
    T.backward(loss(want_rel, want_conn))
    want = grads(params)
    claim = full_length_claim(model, pairs)
    assert_agree(rel.numpy(), want_rel.numpy(), claim)
    assert_agree(conn.numpy(), want_conn.numpy(), claim)
    return params, got, want


def assert_close_gradients(params, got, want):
    for p, g, w in zip(params, got, want):
        assert np.max(np.abs(g - w)) <= 1e-10 * max(1.0, np.max(np.abs(w))), p.name


@pytest.mark.parametrize("kernel_size,depth,longest,options", CASES)
def test_dropout_free_training_matches_the_full_length_pass(kernel_size, depth, longest,
                                                            options):
    # classifier dropout acts on the pooled pair vectors only
    model = eq_model(kernel_size, depth, classifier_dropout=0.3, **options)
    assert_close_gradients(*train_and_oracle(model, eq_pairs(longest)))


DROPOUT = {"embedding_dropout": 0.4, "encoder_dropout": 0.3, "classifier_dropout": 0.2}


@pytest.mark.parametrize("kernel_size,depth,longest,options",
                         CASES + [(3, 2, 12, {"block_type": "recurrent"})])
def test_training_with_dropout_matches_the_full_length_pass(kernel_size, depth, longest,
                                                            options):
    # the full embedder's pad row is not zero, so its pad-row masks show
    model = eq_model(kernel_size, depth, **DROPOUT, **options)
    assert_close_gradients(*train_and_oracle(model, eq_pairs(longest)))


# (kernel size, depth, longest argument, model options, rows embedded and
# out of each layer for both arguments)
SCHEDULE_EDGES = {
    "growth-cut-by-max-tokens": (5, 4, 30, {}, [31, 35, 39, 40, 40]),
    "kernel-1": (1, 3, 12, {}, [13, 13, 13, 13]),
    "res-pair-off": (3, 3, 12, {"res_pair": False}, [13, 15, 17, 19]),
    "shared-stacks": (3, 3, 12, {"shared_stacks": True}, [13, 15, 17, 19]),
    "truncated": (5, 2, 55, {}, [40, 40, 40]),
}


@pytest.mark.parametrize("kernel_size,depth,longest,options,rows", SCHEDULE_EDGES.values(),
                         ids=SCHEDULE_EDGES.keys())
def test_schedule_edges_match_the_full_length_pass(kernel_size, depth, longest, options, rows,
                                                   stack_rows):
    model = eq_model(kernel_size, depth, **DROPOUT, **options)
    pairs = eq_pairs(longest)
    assert_close_gradients(*train_and_oracle(model, pairs))
    assert stack_rows[:2] == [[len(pairs) * r for r in rows]] * 2
    # the first pair holds the longest first argument, so its rows are the batch's
    arg1, arg2 = pairs[0]
    maps = model.attention_maps(arg1, arg2)
    with T.no_grad():
        _, _, layers1, layers2 = full_length_scores(model, [(arg1, arg2)])
    assert len(maps) == (depth if options.get("res_pair", True) else 1)
    claim = full_length_claim(model, [(arg1, arg2)])
    for got, v1, v2 in zip(maps, layers1, layers2, strict=True):
        assert got.shape == (40, 40)
        assert_agree(got, attention_map(v1, v2, model.attention, *each_once(1, v1, v2)), claim)


@pytest.mark.parametrize("block_type", ["conv", "recurrent"])
def test_real_rows_keep_a_plain_draw_and_pad_rows_share_one(block_type, stack_rows,
                                                           monkeypatch):
    model = eq_model(kernel_size=3, depth=2, block_type=block_type, embedding_dropout=0.4)
    width, n = model.embedder.dim, model.max_tokens
    monkeypatch.setattr(model.embedder, "embed", lambda arguments, rows: T.constant(
        np.ones((len(arguments) * rows, width))))
    inputs = []
    original = T.dropout

    def spy(t, *args):
        out = original(t, *args)
        inputs.append(out.numpy())
        return out

    monkeypatch.setattr(T, "dropout", spy)
    pairs = eq_pairs(12)
    model.batch_scores(pairs, np.random.default_rng(3))
    T.active_tape().clear()
    replay = np.random.default_rng(3)
    for argument, masked, (rows, *_) in zip(zip(*pairs), inputs, stack_rows):
        # one draw at the rows the pass holds, not at max_tokens
        plain = (replay.random((rows, width)) >= 0.4) / 0.6
        rows //= len(pairs)
        assert rows == (n if block_type == "recurrent" else 12 + 1)
        for b, tokens in enumerate(argument):
            got = masked[b * rows:(b + 1) * rows]
            real = len(tokens)
            assert got[:real].tobytes() == plain[b * rows:b * rows + real].tobytes()
            assert (got[real:] == plain[b * rows + real]).all()


def test_a_batch_without_padding_trains_as_under_one_mask_per_row():
    model = eq_model(**DROPOUT)
    rng = np.random.default_rng(9)
    pairs = list(zip(sentences(rng, [40, 47, 55, 41]), sentences(rng, [44, 40, 60, 40])))
    params, got, want = train_and_oracle(model, pairs, shared_pad_masks=False)
    for p, g, w in zip(params, got, want):
        if p in model.attention.parameters():
            # summed over (layer, instance), where the oracle sums over
            # (instance, layer): equal up to rounding only
            assert_close_gradients([p], [g], [w])
        else:
            assert g.tobytes() == w.tobytes(), p.name


@pytest.mark.parametrize("longest", [1, 12, 55])
def test_attention_maps_equal_the_full_length_pass(longest):
    model = eq_model(kernel_size=3, depth=3)
    arg1, arg2 = eq_pairs(longest, batch=1)[0]
    maps = model.attention_maps(arg1, arg2)
    with T.no_grad():
        _, _, layers1, layers2 = full_length_scores(model, [(arg1, arg2)])
    assert len(maps) == 3
    claim = full_length_claim(model, [(arg1, arg2)])
    for got, v1, v2 in zip(maps, layers1, layers2):
        assert got.shape == (40, 40)
        assert_agree(got, attention_map(v1, v2, model.attention, *each_once(1, v1, v2)), claim)


# ---------------------------------------------------------------------------
# The short path is the one taken


def guard_model(**kwargs):
    rng = np.random.default_rng(11)
    return RelationModel(TokenEmbedder(word_table=word_table()), 3, CONNECTIVES, rng,
                         depth=4, kernel_size=5, max_tokens=100, **kwargs)


def twenty_token_pairs(batch=5):
    rng = np.random.default_rng(12)
    return list(zip(sentences(rng, [20] * batch), sentences(rng, [20, 3, 17, 20, 9][:batch])))


# R + 1 = 21 rows embedded, then 2h = 4 more per layer: 37 at the deepest
# of L = 4 layers, not 100
SCHEDULE = [21, 25, 29, 33, 37]


def test_predict_labels_runs_the_stacks_at_the_shortened_length(stack_rows):
    pairs = twenty_token_pairs()
    instances = [SimpleNamespace(record=SimpleNamespace(arg1=a1, arg2=a2)) for a1, a2 in pairs]
    model = guard_model(embedding_dropout=0.4, encoder_dropout=0.4)
    predict_labels(model, instances)
    assert stack_rows == [[5 * r for r in SCHEDULE]] * 2


def test_single_predicts_attention_maps_and_dropout_free_training_are_shortened(stack_rows):
    pairs = twenty_token_pairs()
    model = guard_model()
    predict(model, *pairs[0])
    model.attention_maps(*pairs[0])
    model.batch_scores(pairs, np.random.default_rng(0))
    T.active_tape().clear()
    assert stack_rows == [SCHEDULE] * 4 + [[5 * r for r in SCHEDULE]] * 2


@pytest.mark.parametrize("rates", [(0.4, 0.0), (0.0, 0.4)])
def test_training_with_dropout_runs_the_stacks_at_the_shortened_length(rates, stack_rows):
    model = guard_model(embedding_dropout=rates[0], encoder_dropout=rates[1])
    model.batch_scores(twenty_token_pairs(), np.random.default_rng(0))
    T.active_tape().clear()
    assert stack_rows == [[5 * r for r in SCHEDULE]] * 2


def test_a_shortened_training_step_records_39_tape_nodes_and_no_gather():
    # The benchmark's train-conv step: 16 instances, depth 4, k = 5, every
    # dropout on.  Per layer and argument: a gated conv, and after the
    # first layer a dropout; per layer: an attention node, two pools and a
    # concat; then the layer concat, the pair dropout, the two heads (a
    # matmul and a bias each) and the loss (two cross-entropies and a sum).
    model = guard_model(embedding_dropout=0.4, encoder_dropout=0.4, classifier_dropout=0.3)
    rng = np.random.default_rng(13)
    pairs = list(zip(sentences(rng, [20] * 16), sentences(rng, rng.integers(1, 21, 16))))
    rel, conn = model.batch_scores(pairs, np.random.default_rng(0))
    joint_loss(rel, conn, [0] * 16, [1] * 16)
    ops = [node.backward_fn.__qualname__.split(".")[0] for node in T.active_tape()]
    T.active_tape().clear()
    assert len(ops) == 39
    assert "gather_rows" not in ops
    assert ops.count("bi_attention") == 4 and ops.count("topk_pool") == 8


def test_recurrent_blocks_run_the_full_length(stack_rows):
    model = guard_model(block_type="recurrent")
    predict_labels(model, [SimpleNamespace(record=SimpleNamespace(arg1=a1, arg2=a2))
                           for a1, a2 in twenty_token_pairs()])
    assert stack_rows == [[5 * 100] * 5] * 2
