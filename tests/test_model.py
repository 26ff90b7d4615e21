"""Assembled-model behavior: shapes, toggles, frozen parts, state round-trips."""

import numpy as np
import pytest

from discrel import tensor as T
from discrel.errors import ConfigError, ParseError, ShapeError
from discrel.model import ClassifierHead, RelationModel
from discrel.pair_level import pool_layer
from discrel.sentence_level import EncoderStack
from discrel.training import joint_loss, predict
from discrel.word_level import (
    ContextualMixer,
    TokenEmbedder,
    WordEmbeddingTable,
    build_toy_embedder,
)
from block_oracles import each_once, full_length, per_instance_pair_rows, shortened
from claims import assert_agree, shapes_claim
from extra_ops import sum_all
from gradcheck import assert_grads_match

WORDS = [f"w{i}" for i in range(10)] + ["cue0a", "cue0b", "cue1a", "cue1b"]
CONNECTIVES = ["and", "because", "but"]


def word_embedder(dim=6, seed=0):
    rng = np.random.default_rng(seed)
    vocab = {w: i for i, w in enumerate(WORDS)}
    return TokenEmbedder(word_table=WordEmbeddingTable(vocab, rng.normal(size=(len(WORDS), dim))))


def tiny_model(dim=6, depth=2, seed=0, max_tokens=8, embedder=None, **kwargs):
    rng = np.random.default_rng(seed + 1)
    if embedder is None:
        embedder = word_embedder(dim=dim, seed=seed)
    return RelationModel(embedder, n_relations=3, connectives=CONNECTIVES,
                         rng=rng, depth=depth, kernel_size=3,
                         max_tokens=max_tokens, **kwargs)


ARG1 = ["w1", "w2", "cue0a", "w3"]
ARG2 = ["w4", "cue0b", "w5"]


# ---------------------------------------------------------------------------
# Classifier heads


def test_plain_head_is_one_affine_map():
    rng = np.random.default_rng(0)
    head = ClassifierHead(5, 3, rng)
    x = np.arange(5.0).reshape(1, 5)
    got = head.forward(T.constant(x)).numpy()
    want = x @ head.w.data + head.b.data
    assert np.array_equal(got, want)
    assert len(head.parameters()) == 2


def test_hidden_head_applies_relu_between_affines():
    rng = np.random.default_rng(1)
    head = ClassifierHead(5, 3, rng, hidden=4)
    x = np.random.default_rng(2).normal(size=(1, 5))
    got = head.forward(T.constant(x)).numpy()
    want = np.maximum(x @ head.w1.data + head.b1.data, 0.0) @ head.w2.data + head.b2.data
    assert np.allclose(got, want, atol=1e-15)
    assert len(head.parameters()) == 4


def test_head_rejects_degenerate_class_count():
    with pytest.raises(ConfigError):
        ClassifierHead(5, 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Shapes and toggles


def test_pair_dim_counts_all_layers_when_pair_residual_on():
    model = tiny_model(dim=6, depth=3)
    assert model.pair_dim == 4 * 3 * 6


def test_pair_dim_is_last_layer_only_when_pair_residual_off():
    model = tiny_model(dim=6, depth=3, res_pair=False)
    assert model.pair_dim == 4 * 6


@pytest.mark.parametrize("block_type", ["conv", "recurrent"])
def test_scores_shapes_for_both_block_types(block_type):
    model = tiny_model(block_type=block_type)
    rel, conn = model.scores(ARG1, ARG2)
    assert rel.shape == (1, 3)
    assert conn.shape == (1, len(CONNECTIVES))
    assert np.isfinite(rel.numpy()).all()
    assert np.isfinite(conn.numpy()).all()


def test_rejects_tiny_connective_vocabulary():
    with pytest.raises(ConfigError):
        RelationModel(word_embedder(), 3, ["only"], np.random.default_rng(0))


def test_baseline_without_attention_pools_encoder_outputs_directly():
    model = tiny_model(bi_attention=False, res_pair=False, res_block=False)
    got = model._pair_rows([(ARG1, ARG2)]).numpy()[0]

    e1 = model.embedder.embed([ARG1], model.max_tokens)
    e2 = model.embedder.embed([ARG2], model.max_tokens)
    layers1, layers2 = EncoderStack.forward([model.stack1, model.stack2], [e1, e2])
    v1, v2 = layers1[-1], layers2[-1]
    want = pool_layer(v1, v2, 1, *each_once(1, v1, v2)).numpy()[0]
    # the model runs the stacks at fewer rows than max_tokens: within 1e-10
    assert_agree(got, want, shapes_claim(not shortened(model, [(ARG1, ARG2)])))


def test_all_layers_pooled_without_attention_when_pair_residual_on():
    model = tiny_model(depth=2, bi_attention=False, res_pair=True)
    got = model._pair_rows([(ARG1, ARG2)])
    assert got.shape == (1, 4 * 2 * 6)


def test_truncation_drops_tokens_beyond_the_window():
    model = tiny_model(max_tokens=4)
    long1 = ARG1 + ["w6", "w7", "w8"]
    rel_long, _ = model.scores(long1, ARG2)
    rel_cut, _ = model.scores(long1[:4], ARG2)
    assert np.array_equal(rel_long.numpy(), rel_cut.numpy())


# ---------------------------------------------------------------------------
# Parameter inventory


def test_trainable_parameters_exclude_the_word_table():
    model = tiny_model()
    table = model.embedder.word_table.matrix
    for p in model.parameters():
        assert p.data is not table
    prefixes = {p.name.split(".")[0] for p in model.parameters()}
    assert prefixes == {"encoder", "bi_attention", "rel_head", "conn_head"}


def test_trainable_parameters_exclude_the_contextual_embedder():
    sentences = [["w1", "w2", "w3"], ["w2", "w4", "w1"], ["w3", "w1"]]
    toy, _ = build_toy_embedder(sentences, dim=8, char_dim=4, epochs=1, seed=3)
    mixer = ContextualMixer(8, 4, np.random.default_rng(4))
    embedder = TokenEmbedder(word_table=word_embedder().word_table,
                             mixer=mixer, contextual=toy)
    model = tiny_model(embedder=embedder)
    names = {p.name for p in model.parameters()}
    assert any(n.startswith("mixer.") for n in names)
    assert not any(n.startswith("toy.") for n in names)
    assert set(model.state_arrays()) == names


def test_shared_stacks_are_one_object_and_deduplicated():
    shared = tiny_model(shared_stacks=True)
    split = tiny_model(shared_stacks=False)
    assert shared.stack1 is shared.stack2
    assert split.stack1 is not split.stack2
    n_stack = len(split.stack1.parameters())
    assert len(split.parameters()) - len(shared.parameters()) == n_stack
    ids = [id(p) for p in shared.parameters()]
    assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------------
# State round-trips


def test_state_roundtrip_reproduces_scores_bitwise():
    donor = tiny_model(seed=0)
    rng = np.random.default_rng(9)
    for p in donor.parameters():
        p.data += rng.normal(scale=0.05, size=p.shape)
    # the word table is not checkpoint state; a reload reads the same vector file
    target = tiny_model(seed=77, embedder=word_embedder(dim=6, seed=0))
    target.load_state_arrays(donor.state_arrays())
    got = target.scores(ARG1, ARG2)[0].numpy()
    want = donor.scores(ARG1, ARG2)[0].numpy()
    assert np.array_equal(got, want)


def test_loading_rejects_missing_arrays():
    model = tiny_model()
    state = model.state_arrays()
    name = model.parameters()[0].name
    del state[name]
    with pytest.raises(ParseError, match=name.replace(".", r"\.")):
        model.load_state_arrays(state)


def test_loading_rejects_wrong_shapes():
    model = tiny_model()
    state = model.state_arrays()
    name = model.parameters()[0].name
    state[name] = np.zeros((2, 2))
    with pytest.raises(ShapeError):
        model.load_state_arrays(state)


# ---------------------------------------------------------------------------
# Attention maps


def test_attention_maps_one_per_pooled_layer():
    model = tiny_model(depth=3)
    maps = model.attention_maps(ARG1, ARG2)
    assert len(maps) == 3
    for m in maps:
        assert m.shape == (model.max_tokens, model.max_tokens)
        assert np.allclose(m.sum(axis=1), 1.0, atol=1e-12)


def test_attention_maps_follow_the_pair_residual_toggle():
    model = tiny_model(depth=3, res_pair=False)
    assert len(model.attention_maps(ARG1, ARG2)) == 1


def test_attention_maps_need_attention_enabled():
    model = tiny_model(bi_attention=False)
    with pytest.raises(ConfigError):
        model.attention_maps(ARG1, ARG2)


# ---------------------------------------------------------------------------
# Dropout wiring


def test_inference_is_deterministic_and_ignores_dropout_rates():
    model = tiny_model(embedding_dropout=0.4, encoder_dropout=0.4,
                       classifier_dropout=0.3)
    a = model.scores(ARG1, ARG2)[0].numpy()
    b = model.scores(ARG1, ARG2)[0].numpy()
    assert np.array_equal(a, b)
    assert np.array_equal(a, tiny_model().scores(ARG1, ARG2)[0].numpy())


def test_training_mode_applies_dropout():
    model = tiny_model(embedding_dropout=0.4, encoder_dropout=0.4,
                       classifier_dropout=0.3)
    clean = model.scores(ARG1, ARG2)[0].numpy()
    noisy = model.batch_scores([(ARG1, ARG2)], np.random.default_rng(5))[0].numpy()
    assert not np.array_equal(clean, noisy)
    T.active_tape().clear()


@pytest.mark.parametrize("rate", ["embedding_dropout", "encoder_dropout",
                                  "classifier_dropout"])
@pytest.mark.parametrize("value", [-0.1, 1.0, 1.5])
def test_dropout_rates_outside_the_unit_interval_are_rejected_at_build(rate, value):
    with pytest.raises(ConfigError, match=f"{rate} must be in \\[0, 1\\), got {value}"):
        tiny_model(**{rate: value})


# ---------------------------------------------------------------------------
# Gradients


# With shared stacks one scan runs both arguments through the same recurrent
# weights, which gather the gradients of all four streams.
@pytest.mark.parametrize("block_type,shared", [("conv", False), ("recurrent", False),
                                               ("recurrent", True)],
                         ids=["conv", "recurrent", "recurrent-shared"])
def test_end_to_end_gradients(block_type, shared):
    model = tiny_model(dim=4, depth=1, max_tokens=4, block_type=block_type,
                       shared_stacks=shared)

    def loss():
        rel, conn = model.scores(["w1", "cue0a", "w2"], ["cue0b", "w3"])
        return T.cross_entropy(rel, [1]) + T.cross_entropy(conn, [0])

    assert_grads_match(loss, model.parameters(), entries_per_array=2, tol=1e-4)


# ---------------------------------------------------------------------------
# Batched forward


PAIRS = [(ARG1, ARG2), (["w6", "cue1a"], ["w7", "w8", "cue1b", "w9"]),
         (["cue0a"] * 5, ["w1"]), (["w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9", "w0"],
                                   ["cue1b", "w2"])]


@pytest.mark.parametrize("block_type", ["conv", "recurrent"])
@pytest.mark.parametrize("bi_attention", [True, False])
def test_batched_rows_equal_single_pair_scores(block_type, bi_attention):
    model = tiny_model(block_type=block_type, bi_attention=bi_attention)
    with T.no_grad():
        rel, conn = model.batch_scores(PAIRS)
        for i, (arg1, arg2) in enumerate(PAIRS):
            one_rel, one_conn = model.scores(arg1, arg2)
            assert np.max(np.abs(rel.numpy()[i] - one_rel.numpy()[0])) <= 1e-10
            assert np.max(np.abs(conn.numpy()[i] - one_conn.numpy()[0])) <= 1e-10


@pytest.mark.parametrize("pairs", ["fixed", 1, 2, 3])
@pytest.mark.parametrize("init", ["zero", "noisy"])
@pytest.mark.parametrize("block_type", ["conv", "recurrent"])
def test_batched_gradients_equal_the_sum_of_single_pair_gradients(block_type, init, pairs):
    # "zero" is the point every training run starts from: the encoder blocks
    # are the identity there, so rows at different positions are equal in
    # exact arithmetic (every pad row, repeated tokens), and which of them
    # the 2-max pool picks decides where the gradient goes.  A single pair's
    # conv stack may run at fewer rows than the batch's, so those rows leave
    # the products a few ulps apart in another order, differently under
    # each BLAS kernel; the pool's tie margin picks the earliest either way.
    # "noisy" moves the weights off the identity, where no rows tie.
    model = tiny_model(block_type=block_type)
    params = model.parameters()
    if init == "noisy":
        noise = np.random.default_rng(5)
        for p in params:
            p.data += noise.normal(scale=0.1, size=p.shape)
    pairs = PAIRS if pairs == "fixed" else ragged_pairs(8, pairs)

    def grads_of(loss):
        T.backward(loss)
        out = [p.grad.copy() for p in params]
        for p in params:
            p.grad = None
        return out

    rel, conn = model.batch_scores(pairs)
    batched = grads_of(sum_all(rel) + sum_all(conn))
    summed = [np.zeros(p.shape) for p in params]
    for arg1, arg2 in pairs:
        rel, conn = model.scores(arg1, arg2)
        for acc, g in zip(summed, grads_of(sum_all(rel) + sum_all(conn))):
            acc += g
    for p, got, want in zip(params, batched, summed):
        assert np.max(np.abs(got - want)) <= 1e-10, p.name


def assert_only_the_changed_row_moves(model, replace):
    """Scores of PAIRS against those with instance k replaced by
    ``replace(arg1, arg2)``, for each k: every other row agrees, bitwise
    where both batches run the stacks at the same rows, else within 1e-10
    (the products run at other row counts)."""
    with T.no_grad():
        rel, conn = model.batch_scores(PAIRS)
        for k in range(len(PAIRS)):
            changed = list(PAIRS)
            changed[k] = replace(*PAIRS[k])
            rel_k, conn_k = model.batch_scores(changed)
            claim = shapes_claim(all(
                model._schedule(list(old))[0] == model._schedule(list(new))[0]
                for old, new in zip(zip(*PAIRS), zip(*changed))))
            others = [i for i in range(len(PAIRS)) if i != k]
            assert_agree(rel_k.numpy()[others], rel.numpy()[others], claim)
            assert_agree(conn_k.numpy()[others], conn.numpy()[others], claim)
            assert not np.array_equal(rel_k.numpy()[k], rel.numpy()[k])


@pytest.mark.parametrize("block_type", ["conv", "recurrent"])
def test_changing_one_instance_leaves_every_other_row_unchanged(block_type):
    # Catches padding, convolution windows or recurrent state leaking
    # across the instance boundaries of the stacked batch.  Tokens of the
    # same lengths leave both arguments' longest real length, and so every
    # shape, alone: bitwise.
    model = tiny_model(block_type=block_type, depth=2)
    assert_only_the_changed_row_moves(
        model, lambda arg1, arg2: (["cue1b"] * len(arg1), ["w0"] * len(arg2)))


@pytest.mark.parametrize("block_type", ["conv", "recurrent"])
def test_changing_the_longest_length_leaves_every_other_row_within_rounding(block_type):
    # Five second-argument tokens move that argument's longest real length
    # from 4 to 5 (and replacing the 9-token instance moves the first's), so
    # a conv stack runs at other row counts: within 1e-10.  Recurrent
    # stacks run all rows either way: bitwise.
    model = tiny_model(block_type=block_type, depth=2)
    assert_only_the_changed_row_moves(
        model, lambda arg1, arg2: (["cue1b", "w0", "w0"], ["cue0a", "w5", "w4", "w3", "w2"]))


# ---------------------------------------------------------------------------
# The pair level over the batch against one instance at a time


def ragged_pairs(batch, seed):
    rng = np.random.default_rng(seed)

    def sentence():  # 1 to 12 tokens, so some are cut to max_tokens = 10
        return [WORDS[int(i)] for i in rng.integers(0, len(WORDS), int(rng.integers(1, 13)))]

    return [(sentence(), sentence()) for _ in range(batch)]


def oracle_scores(model, pairs, rng=None):
    """``RelationModel.batch_scores`` with the pair level run per instance,
    over the layer rows expanded to the full length."""
    layers1, layers2, counts1, counts2 = model._layers(pairs, rng)
    rows = per_instance_pair_rows(full_length(layers1, counts1, len(pairs)),
                                  full_length(layers2, counts2, len(pairs)),
                                  model.attention, len(pairs))
    rows = T.dropout(rows, model.classifier_dropout, rng)
    return model.relation_head.forward(rows), model.connective_head.forward(rows)


def oracle_claim(model, pairs):
    """The oracle pools the same layer rows, and attends over all N rows
    where the model attends over a shortened stack's fewer rows: bitwise
    unless it attends at a different length."""
    return shapes_claim(model.attention is None or not shortened(model, pairs))


@pytest.mark.parametrize("batch", [1, 3, 16])
@pytest.mark.parametrize("res_pair", [True, False])
@pytest.mark.parametrize("bi_attention", [True, False])
@pytest.mark.parametrize("block_type", ["conv", "recurrent"])
def test_the_pair_level_over_the_batch_equals_the_per_instance_oracle(
        batch, res_pair, bi_attention, block_type):
    model = tiny_model(depth=3, max_tokens=10, block_type=block_type, bi_attention=bi_attention,
                       res_pair=res_pair, embedding_dropout=0.2, encoder_dropout=0.2,
                       classifier_dropout=0.2)
    noise = np.random.default_rng(batch)
    for p in model.parameters():  # move every block off its zero-initialised identity
        p.data += noise.normal(scale=0.1, size=p.shape)
    pairs = ragged_pairs(batch, seed=batch)
    params = model.parameters()
    gold = noise.integers(0, 3, batch)

    def train_pass(scores):
        rel, conn = scores(model, pairs, np.random.default_rng(4))
        T.backward(joint_loss(rel, conn, gold, gold))
        grads = [p.grad for p in params]
        for p in params:
            p.grad = None
        return rel.numpy(), conn.numpy(), grads

    rel, conn, grads = train_pass(RelationModel.batch_scores)
    want_rel, want_conn, want_grads = train_pass(oracle_scores)
    claim = oracle_claim(model, pairs)
    assert_agree(rel, want_rel, claim)
    assert_agree(conn, want_conn, claim)
    for p, got, want in zip(params, grads, want_grads):
        assert np.max(np.abs(got - want)) <= 1e-10, p.name

    # inference: the batched rows that predict_labels reads, and predict's
    with T.no_grad():
        rel, conn = model.batch_scores(pairs)
        want_rel, want_conn = oracle_scores(model, pairs)
        assert_agree(rel.numpy(), want_rel.numpy(), claim)
        assert_agree(conn.numpy(), want_conn.numpy(), claim)
        for pair in pairs:
            want = T.softmax_rows(oracle_scores(model, [pair])[0]).numpy()[0]
            assert_agree(predict(model, *pair)[1], want, oracle_claim(model, [pair]))
