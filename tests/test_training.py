"""Joint loss, optimization loop, early stopping, and reproducibility."""

import math
import tracemalloc

import numpy as np
import pytest

from discrel import tensor as T
from discrel.data import (
    EvalInstance,
    InstanceRecord,
    LabelSpace,
    TrainInstance,
    synthetic_corpus,
    synthetic_word_vectors,
)
from discrel.errors import ConfigError, DataError, DivergenceError, ParseError
from discrel.model import RelationModel
from discrel.training import (
    EpochStats,
    TrainConfig,
    connective_vocabulary,
    evaluate_accuracy,
    joint_loss,
    load_trace,
    predict,
    resolve_gold,
    save_trace,
    train,
)
from discrel.word_level import TokenEmbedder, WordEmbeddingTable
from gradcheck import assert_grads_match

SENSES = ["Expansion.Conjunction", "Temporal.Asynchronous"]


def toy_task(n=16, seed=0):
    """A linearly separable two-class corpus with per-class cue words."""
    records = synthetic_corpus(n, SENSES, seed=seed, filler_words=8, arg_len=5)
    labels = LabelSpace("eleven_way", SENSES)
    train_set = [TrainInstance(r, labels.labels_of(r.senses)[0]) for r in records]
    dev_set = [EvalInstance(r, frozenset(labels.labels_of(r.senses))) for r in records]
    return records, train_set, dev_set


def toy_model(records, dim=8, depth=1, seed=0, max_tokens=6, **kwargs):
    vocab, matrix = synthetic_word_vectors(records, dim=dim, seed=seed)
    embedder = TokenEmbedder(word_table=WordEmbeddingTable(vocab, matrix))
    connectives = sorted({r.connective for r in records})
    return RelationModel(embedder, n_relations=2, connectives=connectives,
                         rng=np.random.default_rng(seed + 1), depth=depth,
                         kernel_size=3, max_tokens=max_tokens, **kwargs)


# ---------------------------------------------------------------------------
# Configuration


def test_config_defaults():
    config = TrainConfig()
    assert config.learning_rate == 0.001
    assert config.batch_size == 64
    assert config.epochs == 100
    assert config.patience == 10
    assert config.seed == 0


@pytest.mark.parametrize("bad", [
    {"learning_rate": 0.0},
    {"learning_rate": -1.0},
    {"batch_size": 0},
    {"epochs": 0},
    {"patience": -1},
])
def test_config_rejects_out_of_range_values(bad):
    with pytest.raises(ConfigError):
        TrainConfig(**bad)


# ---------------------------------------------------------------------------
# Joint loss


def test_uniform_logits_give_log_class_counts():
    rel = T.constant(np.zeros((1, 2)))
    conn = T.constant(np.zeros((1, 4)))
    loss = joint_loss(rel, conn, [0], [0])
    assert abs(loss.item() - (math.log(2) + math.log(4))) < 1e-12


def test_loss_decomposes_exactly_into_head_terms():
    rng = np.random.default_rng(3)
    rel = T.constant(rng.normal(size=(4, 2)))
    conn = T.constant(rng.normal(size=(4, 5)))
    rel_term = T.cross_entropy(rel, [0, 1, 0, 1]).item()
    conn_term = T.cross_entropy(conn, [2, 0, 4, 1]).item()
    total = joint_loss(rel, conn, [0, 1, 0, 1], [2, 0, 4, 1]).item()
    assert total == rel_term + conn_term


def test_training_loss_requires_connective_supervision():
    rel = T.constant(np.zeros((1, 2)))
    # there is no relation-only form: the connective terms are required
    with pytest.raises(TypeError):
        joint_loss(rel, None, [0])


def test_joint_gradient_is_the_sum_of_per_head_gradients():
    records, _, _ = toy_task(4)
    model = toy_model(records, dim=4)
    params = model.parameters()
    arg1, arg2 = records[0].arg1, records[0].arg2

    def grads_of(loss_builder):
        T.backward(loss_builder())
        out = [np.zeros(p.shape) if p.grad is None else p.grad.copy()
               for p in params]
        for p in params:
            p.grad = None
        return out

    rel_grads = grads_of(lambda: T.cross_entropy(model.scores(arg1, arg2)[0], [1]))
    conn_grads = grads_of(lambda: T.cross_entropy(model.scores(arg1, arg2)[1], [0]))

    def joint():
        rel, conn = model.scores(arg1, arg2)
        return joint_loss(rel, conn, [1], [0])

    for got, a, b in zip(grads_of(joint), rel_grads, conn_grads):
        assert np.allclose(got, a + b, atol=1e-12)


def test_joint_gradients_match_finite_differences():
    records, _, _ = toy_task(4)
    model = toy_model(records, dim=4)
    arg1, arg2 = records[0].arg1, records[0].arg2

    def loss():
        rel, conn = model.scores(arg1, arg2)
        return joint_loss(rel, conn, [1], [0])

    assert_grads_match(loss, model.parameters(), entries_per_array=2, tol=1e-4)


# ---------------------------------------------------------------------------
# Connective vocabulary


def test_connective_vocabulary_is_sorted_and_distinct():
    records, train_set, _ = toy_task(6)
    assert connective_vocabulary(train_set) == ["conn0", "conn1"]


def test_connective_vocabulary_demands_annotations():
    record = InstanceRecord(arg1=["a"], arg2=["b"], senses=[SENSES[0]])
    with pytest.raises(DataError, match="instance 0"):
        connective_vocabulary([TrainInstance(record, 0)])


# ---------------------------------------------------------------------------
# The loop


def quick_config(**kwargs):
    base = dict(learning_rate=0.1, batch_size=8, epochs=25, patience=25, seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


def test_loop_overfits_a_separable_toy_task():
    records, train_set, dev_set = toy_task(16)
    model = toy_model(records)
    result = train(model, train_set, dev_set, quick_config())
    assert result.best_dev_accuracy == 1.0
    assert evaluate_accuracy(model, dev_set) == 1.0
    assert result.trace[-1].train_loss < result.trace[0].train_loss


def test_best_dev_weights_are_restored_at_the_end():
    records, train_set, dev_set = toy_task(8)
    model = toy_model(records)
    result = train(model, train_set, dev_set, quick_config(epochs=5, patience=5))
    state = model.state_arrays()
    for name, arr in result.state.items():
        assert np.array_equal(state[name], arr)
    best = max(row.dev_accuracy for row in result.trace)
    assert result.best_dev_accuracy == best
    assert result.best_epoch == next(r.epoch for r in result.trace
                                     if r.dev_accuracy == best)


def test_zero_patience_stops_after_first_flat_epoch():
    records, train_set, dev_set = toy_task(8)
    model = toy_model(records)
    config = quick_config(learning_rate=1e-12, epochs=50, patience=0)
    result = train(model, train_set, dev_set, config)
    assert [row.epoch for row in result.trace] == [1, 2]


def test_non_finite_loss_aborts_with_the_step_named():
    records, train_set, dev_set = toy_task(8)
    model = toy_model(records)
    model.relation_head.w.data[0, 0] = np.nan
    with pytest.raises(DivergenceError, match="epoch 1, step 1"):
        train(model, train_set, dev_set, quick_config())
    assert len(T.active_tape()) == 0


def test_unknown_connective_is_rejected_before_training():
    records, train_set, dev_set = toy_task(8)
    model = toy_model(records)
    stranger = InstanceRecord(arg1=["a"], arg2=["b"], senses=[SENSES[0]],
                              connective="although")
    with pytest.raises(DataError, match="although"):
        train(model, train_set + [TrainInstance(stranger, 0)], dev_set, quick_config())


def test_missing_connective_is_rejected_before_any_step(monkeypatch):
    records, train_set, dev_set = toy_task(8)
    model = toy_model(records)
    before = model.state_arrays()
    steps = []
    monkeypatch.setattr(T, "backward", lambda loss: steps.append(loss))
    unannotated = InstanceRecord(arg1=["a"], arg2=["b"], senses=[SENSES[0]])
    with pytest.raises(DataError, match="training instance 8"):
        train(model, train_set + [TrainInstance(unannotated, 0)], dev_set, quick_config())
    assert steps == []
    for name, array in model.state_arrays().items():
        assert np.array_equal(array, before[name]), name


def test_frozen_word_table_survives_training_untouched():
    records, train_set, dev_set = toy_task(8)
    model = toy_model(records)
    before = model.embedder.word_table.matrix.copy()
    train(model, train_set, dev_set, quick_config(epochs=3))
    assert np.array_equal(model.embedder.word_table.matrix, before)


def test_same_seed_reproduces_trace_and_weights_bitwise(tmp_path):
    def run(path):
        records, train_set, dev_set = toy_task(8)
        model = toy_model(records, embedding_dropout=0.2, encoder_dropout=0.2,
                          classifier_dropout=0.1)
        result = train(model, train_set, dev_set, quick_config(epochs=4))
        T.save_checkpoint(path, result.state)
        return result

    first = run(tmp_path / "a.ckpt")
    second = run(tmp_path / "b.ckpt")
    assert first.trace == second.trace
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


@pytest.mark.parametrize("block_type", ["conv", "recurrent"])
def test_padded_training_with_dropout_reproduces_bitwise(block_type):
    # 5-token arguments padded to 20 rows: a conv stack trains at 6, 8 and 10 rows
    def run():
        records, train_set, dev_set = toy_task(8)
        model = toy_model(records, depth=2, max_tokens=20, block_type=block_type,
                          embedding_dropout=0.2, encoder_dropout=0.2,
                          classifier_dropout=0.1)
        return train(model, train_set, dev_set, quick_config(epochs=3))

    first, second = run(), run()
    assert first.trace == second.trace
    for name, weights in first.state.items():
        assert weights.tobytes() == second.state[name].tobytes(), name


def test_empty_sets_are_rejected():
    records, train_set, dev_set = toy_task(4)
    model = toy_model(records)
    with pytest.raises(DataError):
        train(model, [], dev_set, quick_config())
    with pytest.raises(DataError):
        train(model, train_set, [], quick_config())


# ---------------------------------------------------------------------------
# Prediction


def test_predict_returns_argmax_and_a_probability_row():
    records, _, _ = toy_task(4)
    model = toy_model(records)
    label, probs = predict(model, records[0].arg1, records[0].arg2)
    assert label == int(np.argmax(probs))
    assert abs(probs.sum() - 1.0) < 1e-12
    again = predict(model, records[0].arg1, records[0].arg2)
    assert again[0] == label
    assert np.array_equal(again[1], probs)
    assert len(T.active_tape()) == 0


def test_gold_resolution_prefers_the_prediction_then_the_smallest():
    assert resolve_gold(2, frozenset({1, 2})) == 2
    assert resolve_gold(0, frozenset({3, 1})) == 1


# ---------------------------------------------------------------------------
# Trace files


def test_trace_roundtrip(tmp_path):
    rows = [EpochStats(1, 0.6931471805599453, 0.5), EpochStats(2, 0.25, 1.0)]
    path = tmp_path / "trace.csv"
    save_trace(path, rows)
    assert load_trace(path) == rows


def test_trace_loader_rejects_other_files(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError):
        load_trace(path)


def test_trace_loader_names_a_row_with_the_wrong_field_count(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("epoch,train_loss,dev_accuracy\n1,0.5,0.25\n2,0.5\n")
    with pytest.raises(ParseError, match=r"trace\.csv:3: .* got '2,0\.5'"):
        load_trace(path)


def test_trace_loader_names_a_row_with_a_non_numeric_field(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("epoch,train_loss,dev_accuracy\n1,half,0.25\n")
    with pytest.raises(ParseError, match=r"trace\.csv:2: .* got '1,half,0\.25'"):
        load_trace(path)


# ---------------------------------------------------------------------------
# Tape growth


def tape_nodes_per_instance(monkeypatch, max_tokens, batch_size=4):
    """Tape nodes one recurrent training step records, per instance."""
    records, train_set, dev_set = toy_task(batch_size)
    vocab, matrix = synthetic_word_vectors(records, dim=4, seed=0)
    model = RelationModel(TokenEmbedder(word_table=WordEmbeddingTable(vocab, matrix)),
                          n_relations=2, connectives=sorted({r.connective for r in records}),
                          rng=np.random.default_rng(1), depth=4, block_type="recurrent",
                          max_tokens=max_tokens, embedding_dropout=0.4,
                          encoder_dropout=0.4, classifier_dropout=0.3)
    counts = []
    real_backward = T.backward

    def counting_backward(loss):
        counts.append(len(T.active_tape()))
        real_backward(loss)

    monkeypatch.setattr(T, "backward", counting_backward)
    train(model, train_set, dev_set[:1], quick_config(batch_size=batch_size, epochs=1))
    assert len(counts) == 1
    return counts[0] / batch_size


def test_recurrent_training_step_tape_grows_with_depth_not_length(monkeypatch):
    # The fused recurrence records one node per bidirectional layer; a
    # per-time-step tape would record thousands per instance at 100 tokens.
    # The step of 4 instances, depth 4, every dropout on, records 59:
    # per layer, one scan of both arguments and per argument the
    # projection (a matmul and a bias) and the residual add, and after
    # the first layer a dropout per argument (the frozen embedding's
    # dropout is not recorded); per layer, an attention node, two pools
    # and a concat; then the layer concat, the pair dropout, the two
    # heads (a matmul and a bias each) and the loss (two cross-entropies
    # and a sum).
    long = tape_nodes_per_instance(monkeypatch, max_tokens=100)
    assert long * 4 == 59
    assert tape_nodes_per_instance(monkeypatch, max_tokens=10) == long


def test_peak_memory_of_a_conv_training_step_is_what_the_nodes_keep():
    # One training step (forward, backward, AdaGrad) of a word-only conv
    # model with bi-attention and every dropout on.  With act = B*N*d
    # floats, one activation of one argument, the tape keeps:
    #   per argument and layer, the block's input after encoder dropout,
    #   its [a | sigmoid(b)] buffer and its output, 4 act, plus a bool
    #   dropout mask (act/8 bytes) for every layer after the first;
    #   per layer and instance, the bi-attention's affine map and two
    #   outputs (3 N*d floats) and its two (N, N) softmax matrices.
    # On top of that come the parameter gradients and the temporaries of
    # one conv block's backward, bounded by 6 act (the gradient of its
    # buffer, that gradient spread over the padded rows, the padded input
    # and its gradient).  The bound counts every activation at N = 50
    # rows, but the stacks embed R + 1 = 26 rows and run their two layers
    # at 28 and 30 (all pad rows of an instance share one dropout mask
    # row), and so does the pair level.  With numpy 2.4.6 the step peaks
    # at 1.90 MB against this bound of 4.07 MB (1.97 MB with every layer
    # at 30 rows, 2.90 MB with the pair level's layers gathered back to
    # 50 rows); it peaked at 3.15 MB when training ran all 50 rows, and at
    # 6.46 MB with a tape that kept every intermediate of the composed
    # conv block and attention and held all nodes until backward ended.
    d, depth, n, batch = 64, 2, 50, 4
    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(50)]
    table = WordEmbeddingTable({w: i for i, w in enumerate(words)}, rng.normal(size=(50, d)))
    model = RelationModel(TokenEmbedder(word_table=table), 4, ["a", "b", "c"], rng,
                          depth=depth, kernel_size=3, max_tokens=n, embedding_dropout=0.4,
                          encoder_dropout=0.4, classifier_dropout=0.3)
    pairs = [([words[j] for j in rng.integers(0, 50, n // 2)],
              [words[j] for j in rng.integers(0, 50, n // 2)]) for _ in range(batch)]

    def step():
        rel, conn = model.batch_scores(pairs, rng)
        T.backward(joint_loss(rel, conn, [0] * batch, [1] * batch))
        T.adagrad_step(model.parameters())

    step()  # the accumulators and lazily built state exist before measuring
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        T.active_tape().clear()
    act = batch * n * d * 8
    kept = (2 * (4 * depth * act + (depth - 1) * act // 8)
            + depth * (3 * act + 2 * batch * n * n * 8))
    gradients = sum(p.data.nbytes for p in model.parameters())
    assert peak <= kept + gradients + 6 * act
