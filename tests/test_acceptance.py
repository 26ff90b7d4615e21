"""Release gate: the end-to-end properties this package guarantees.

Every test here pins one non-negotiable behaviour with explicit tolerances
and, where relevant, wall-clock budgets: gradient fidelity for each operation
and for the assembled model, exact residual identities, subword merge
learning checked against a brute-force oracle, the full-scale geometry of the
pair representation, attention normalization and order invariance, a
planted-cue overfit run, the ablation presets, metric implementations checked
against confusion-matrix recomputation, bitwise determinism, and the
immutability of frozen embedding components.
"""

import hashlib
import math
import time
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from block_oracles import each_once
from extra_ops import reshape, sum_all, transpose
from gradcheck import assert_grads_match

from discrel import tensor as T
from discrel.bpe import learn_bpe, save_merge_table, subword_vocabulary, word_frequencies
from discrel.cli import main
from discrel.config import RunConfig, ladder_rows, parse_config, save_config
from discrel.data import (
    EvalInstance,
    LabelSpace,
    TrainInstance,
    accuracy_multigold,
    f1_binary,
    load_corpus,
    macro_f1_4way,
    save_corpus,
    synthetic_corpus,
    synthetic_word_vectors,
)
from discrel.model import RelationModel
from discrel.pair_level import BiAttention, attention_map, build_pair_representation
from discrel.pipeline import prepare_training, run_training, write_run
from discrel.sentence_level import ConvBlock, EncoderStack, RecurrentBlock
from discrel.training import (
    TrainConfig,
    connective_vocabulary,
    evaluate_accuracy,
    joint_loss,
    train,
)
from discrel.word_level import (
    ContextualMixer,
    SubwordEncoder,
    TokenEmbedder,
    ToyContextualEmbedder,
    WordEmbeddingTable,
    save_word_vectors,
)

SENSES = ["Expansion.Conjunction", "Temporal.Asynchronous"]


# ---------------------------------------------------------------------------
# 1. Gradient fidelity: every differentiable operation, then the assembled
#    model with both encoder block types at depths one and two, all against
#    central finite differences with relative error at most 1e-4.  The two
#    halves each keep under sixty seconds so the whole check stays inside a
#    two-minute budget.


def operation_cases():
    """name -> (loss builder, tensors to check), one per differentiable op."""
    rng = np.random.default_rng(3)

    def var(*shape):
        return T.Tensor(rng.normal(size=shape), requires_grad=True)

    def const(*shape):
        return T.constant(rng.normal(size=shape))

    cases = {}

    def case(name, f, *tensors):
        cases[name] = (f, list(tensors))

    a, b, w = var(3, 4), var(3, 4), const(3, 4)
    case("add", lambda: sum_all(T.mul(T.add(a, b), w)), a, b)
    case("sub", lambda: sum_all(T.mul(T.sub(a, b), w)), a, b)
    case("mul", lambda: sum_all(T.mul(T.mul(a, b), w)), a, b)
    case("sigmoid", lambda: sum_all(T.mul(T.sigmoid(a), w)), a)
    case("tanh", lambda: sum_all(T.mul(T.tanh(a), w)), a)
    case("relu", lambda: sum_all(T.mul(T.relu(a), w)), a)
    case("sum_all", lambda: sum_all(T.mul(a, w)), a)

    bias = var(4)
    case("add_bias", lambda: sum_all(T.mul(T.add_bias(a, bias), w)), a, bias)
    s = var(1)
    case("scalar_mul", lambda: sum_all(T.mul(T.scalar_mul(s, a), w)), s, a)

    m1, m2 = var(3, 5), var(5, 2)
    case("matmul", lambda: sum_all(T.tanh(T.matmul(m1, m2))), m1, m2)
    wt = const(4, 3)
    case("transpose", lambda: sum_all(T.mul(transpose(a), wt)), a)
    w26 = const(2, 6)
    case("reshape", lambda: sum_all(T.mul(reshape(a, (2, 6)), w26)), a)

    c1, c2, wc = var(2, 4), var(3, 4), const(5, 4)
    case("concat_rows", lambda: sum_all(T.mul(T.concat([c1, c2], axis=0), wc)), c1, c2)
    d1, d2, wd = var(3, 2), var(3, 3), const(3, 5)
    case("concat_cols", lambda: sum_all(T.mul(T.concat([d1, d2], axis=1), wd)), d1, d2)

    table, wg = var(4, 3), const(5, 3)
    case("gather_rows",
         lambda: sum_all(T.mul(T.gather_rows(table, [0, 2, 2, 1, 3]), wg)), table)
    ws = const(3, 2)
    case("slice_cols", lambda: sum_all(T.mul(T.slice_cols(a, 1, 3), ws)), a)
    sm, wsm = var(3, 6), const(3, 6)
    case("softmax_rows", lambda: sum_all(T.mul(T.softmax_rows(sm), wsm)), sm)

    x = var(7, 3)
    kern2, bias2, wv = var(3, 3, 2), var(2), const(5, 2)
    case("conv1d_valid", lambda: sum_all(T.mul(T.conv1d(x, kern2, bias2), wv)), x, kern2, bias2)

    xp, wp = var(6, 4), const(1, 8)
    case("topk_pool", lambda: sum_all(T.mul(T.topk_pool(xp, 2, 1, [6]), wp)), xp)

    logits = var(4, 5)
    case("cross_entropy", lambda: T.cross_entropy(logits, [0, 3, 2, 4]), logits)

    xd, wdrop = var(5, 4), const(5, 4)
    case("dropout",
         lambda: sum_all(T.mul(
             T.dropout(xd, 0.4, np.random.default_rng(11)), wdrop)), xd)

    xm, wm = var(8, 3), const(2, 3)
    case("topk_pool over blocks of valid rows",
         lambda: sum_all(T.mul(T.topk_pool(xm, 1, 2, [3, 4]), wm)), xm)

    xr, wr = var(2 * 3, 2), const(2 * 3, 4)
    forward = [var(2, 6), var(2, 4), var(2, 2), var(6)]
    backward = [var(2, 6), var(2, 4), var(2, 2), var(6)]
    case("bigru_scan",
         lambda: sum_all(T.mul(T.bigru_scan([xr], [(forward, backward)], batch=2)[0], wr)),
         xr, *forward, *backward)

    # Two inputs: the second reuses the first's forward weights, as shared
    # stacks do, and has backward weights of its own.
    x1, x2, w1, w2 = var(2 * 3, 2), var(2 * 3, 2), const(2 * 3, 4), const(2 * 3, 4)
    backward2 = [var(2, 6), var(2, 4), var(2, 2), var(6)]

    def two_inputs():
        out1, out2 = T.bigru_scan([x1, x2], [(forward, backward), (forward, backward2)],
                                  batch=2)
        return sum_all(T.mul(out1, w1)) + sum_all(T.mul(out2, w2))

    case("bigru_scan over two inputs", two_inputs, x1, x2, *forward, *backward, *backward2)

    xb, kb, bb, wb = var(2 * 4, 3), var(3, 3, 6), var(6), const(2 * 4, 3)
    case("gated_conv",
         lambda: sum_all(T.mul(T.gated_conv(xb, kb, bb, batch=2), wb)), xb, kb, bb)
    case("gated_conv without the residual",
         lambda: sum_all(T.mul(T.gated_conv(xb, kb, bb, batch=2, residual=False), wb)),
         xb, kb, bb)

    u1, u2, fw, fb = var(5, 3), var(5, 3), var(3, 3), var(3)
    wu1, wu2 = const(5, 3), const(5, 3)

    def attended():
        o1, o2 = T.bi_attention(u1, u2, fw, fb, 1, *each_once(1, u1, u2))
        return sum_all(T.mul(o1, wu1)) + sum_all(T.mul(o2, wu2))

    case("bi_attention", attended, u1, u2, fw, fb)

    z1, z2, wz1, wz2 = var(2 * 4, 3), var(2 * 4, 3), const(2 * 4, 3), const(2 * 4, 3)

    def attended_over_two_instances():
        o1, o2 = T.bi_attention(z1, z2, fw, fb, 2, *each_once(2, z1, z2))
        return sum_all(T.mul(o1, wz1)) + sum_all(T.mul(o2, wz2))

    case("bi_attention over two instances", attended_over_two_instances, z1, z2, fw, fb)

    # arguments of 3 and 5 rows per instance, some rows standing for several
    y1, y2, wy1, wy2 = var(2 * 3, 3), var(2 * 5, 3), const(2 * 5, 3), const(2 * 3, 3)

    def attended_over_counted_rows():
        o1, o2 = T.bi_attention(y1, y2, fw, fb, 2, [1, 4, 1], [2, 1, 1, 3, 1])
        return sum_all(T.mul(o1, wy1)) + sum_all(T.mul(o2, wy2))

    case("bi_attention over counted rows of unequal lengths", attended_over_counted_rows,
         y1, y2, fw, fb)

    # row 1 of each block counts twice and leads every column: both picks
    xc, wxc = var(2 * 4, 3), const(2, 6)
    xc.data[[1, 5]] += 6.0
    case("topk_pool picking a counted row twice",
         lambda: sum_all(T.mul(T.topk_pool(xc, 2, 2, [4, 4], [1, 2, 1, 1]), wxc)), xc)

    # row 1 of each 3-row instance grown by two copies: 5 rows out
    xw, kw, bw, ww = var(2 * 3, 3), var(3, 3, 6), var(6), const(2 * 5, 3)
    case("gated_conv growing a row",
         lambda: sum_all(T.mul(T.gated_conv(xw, kw, bw, 2, True, (1, 2)), ww)), xw, kw, bw)

    return cases


def test_every_differentiable_operation_matches_finite_differences():
    start = time.perf_counter()
    for name, (f, tensors) in operation_cases().items():
        try:
            assert_grads_match(f, tensors, tol=1e-4)
        except AssertionError as exc:
            raise AssertionError(f"{name}: {exc}") from None
    assert time.perf_counter() - start < 60.0


def test_assembled_model_gradients_match_finite_differences():
    words = [f"w{i}" for i in range(12)]
    samples = [(words[0:5], words[5:10], 3, 0), (words[2:8], words[4:11], 7, 2)]
    start = time.perf_counter()
    for block_type, depth in product(("conv", "recurrent"), (1, 2)):
        rng = np.random.default_rng(9)
        table = WordEmbeddingTable({w: i for i, w in enumerate(words)},
                                   rng.normal(size=(12, 12)))
        model = RelationModel(TokenEmbedder(word_table=table), 11,
                              ["and", "because", "but"], rng, depth=depth,
                              block_type=block_type, kernel_size=3, max_tokens=6)

        def f():
            rel_rows, conn_rows = [], []
            for arg1, arg2, _, _ in samples:
                rel, conn = model.scores(arg1, arg2)
                rel_rows.append(rel)
                conn_rows.append(conn)
            return joint_loss(T.concat(rel_rows, axis=0), T.concat(conn_rows, axis=0),
                              [s[2] for s in samples], [s[3] for s in samples])

        try:
            assert_grads_match(f, model.parameters(), entries_per_array=3, tol=1e-4)
        except AssertionError as exc:
            raise AssertionError(f"{block_type} depth {depth}: {exc}") from None
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 2. Residual identities: zero-initialized blocks pass their input through
#    bit-exactly, alone and stacked five deep.


@pytest.mark.parametrize("block_type", ["conv", "recurrent"])
def test_zero_initialized_blocks_are_bitwise_identities(block_type):
    rng = np.random.default_rng(0)
    x = T.constant(rng.normal(size=(7, 6)))
    if block_type == "conv":
        block = ConvBlock(6, 3, rng, residual=True)
    else:
        block = RecurrentBlock(6, rng, residual=True)
    for p in block.parameters():
        p.data[...] = 0.0
    with T.no_grad():
        (out,) = type(block).forward([block], [x])
    assert out.numpy().tobytes() == x.numpy().tobytes()


@pytest.mark.parametrize("block_type", ["conv", "recurrent"])
def test_zero_initialized_stack_of_five_stays_an_identity(block_type):
    rng = np.random.default_rng(1)
    x = T.constant(rng.normal(size=(9, 5)))
    stack = EncoderStack(5, 5, rng, block_type=block_type, kernel_size=3,
                         residual=True)
    for p in stack.parameters():
        p.data[...] = 0.0
    with T.no_grad():
        (outputs,) = EncoderStack.forward([stack], [x])
    assert len(outputs) == 5
    for out in outputs:
        assert out.numpy().tobytes() == x.numpy().tobytes()


# ---------------------------------------------------------------------------
# 3. Subword merge learning equals a brute-force oracle that recounts every
#    pair from scratch each round, on two hundred random corpora — covering
#    tie-breaks, overlapping runs, and the early stop on unrepeated pairs.


def _greedy_pair_count(symbols, pair) -> int:
    count = i = 0
    while i < len(symbols) - 1:
        if (symbols[i], symbols[i + 1]) == pair:
            count += 1
            i += 2
        else:
            i += 1
    return count


def _merge_pass(symbols, pair):
    out, i = [], 0
    while i < len(symbols):
        if i < len(symbols) - 1 and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def _oracle_merges(corpus, budget):
    words = [(list(word), count) for word, count in corpus.items()]
    merges = []
    for _ in range(budget):
        totals: Counter = Counter()
        for symbols, count in words:
            for pair in {(symbols[i], symbols[i + 1])
                         for i in range(len(symbols) - 1)}:
                totals[pair] += _greedy_pair_count(symbols, pair) * count
        if not totals or max(totals.values()) < 2:
            break
        top = max(totals.values())
        best = min(pair for pair, n in totals.items() if n == top)
        merges.append(best)
        words = [(_merge_pass(symbols, best), count) for symbols, count in words]
    return merges


def test_merge_learning_matches_the_brute_force_oracle_on_200_corpora():
    rng = np.random.default_rng(0)
    for trial in range(200):
        alphabet = "abcde"[: int(rng.integers(1, 6))]
        corpus: dict[str, int] = {}
        for _ in range(int(rng.integers(1, 21))):
            word = "".join(alphabet[int(rng.integers(len(alphabet)))]
                           for _ in range(int(rng.integers(1, 9))))
            corpus[word] = corpus.get(word, 0) + int(rng.integers(1, 9))
        budget = int(rng.integers(0, 26))
        got = learn_bpe(corpus, budget).merges
        expected = _oracle_merges(corpus, budget)
        assert got == expected, f"trial {trial}: {got} != {expected}"


# ---------------------------------------------------------------------------
# 4. Full-scale geometry: 300-wide word vectors, a 100-wide subword feature,
#    and a 300-wide contextual blend concatenate to 700 per token; four
#    layers of paired pooling over 100-token arguments give a 11200-long
#    pair vector that both classifier heads accept.


def test_full_scale_pair_representation_has_the_contracted_length():
    rng = np.random.default_rng(0)
    words = [f"tok{i}" for i in range(30)]
    table = WordEmbeddingTable({w: i for i, w in enumerate(words)},
                               rng.normal(size=(30, 300)))
    merges = learn_bpe(word_frequencies([words]), 8)
    subword = SubwordEncoder(subword_vocabulary(words, merges), rng,
                             emb_dim=50, kernel_sizes=(2, 3), channels=50)
    toy = ToyContextualEmbedder(words, sorted({c for w in words for c in w}),
                                rng, dim=16, char_dim=8)
    toy.freeze()
    embedder = TokenEmbedder(word_table=table, subword=subword, merges=merges,
                             mixer=ContextualMixer(16, 300, rng), contextual=toy)
    assert embedder.dim == 300 + 100 + 300

    model = RelationModel(embedder, 11, ["and", "because", "but", "so"], rng,
                          depth=4, block_type="conv", kernel_size=5,
                          max_tokens=100)
    arg1, arg2 = words[:9], words[9:21]
    with T.no_grad():
        pair = model._pair_rows([(arg1, arg2)])
    assert pair.shape == (1, 11200)
    assert 11200 == 4 * 4 * 700
    with T.no_grad():
        relation_logits, connective_logits = model.scores(arg1, arg2)
    assert relation_logits.shape == (1, 11)
    assert connective_logits.shape == (1, 4)


# ---------------------------------------------------------------------------
# 5. Attention invariants: every soft alignment row is a distribution, and
#    reordering the tokens of both arguments cannot change the pooled pair
#    features.


def test_attention_rows_normalize_and_pooling_ignores_token_order():
    rng = np.random.default_rng(4)
    attention = BiAttention(7, rng)
    v1 = T.constant(rng.normal(size=(9, 7)))
    v2 = T.constant(rng.normal(size=(9, 7)))
    u1 = T.constant(rng.normal(size=(9, 7)))
    u2 = T.constant(rng.normal(size=(9, 7)))

    counts = each_once(1, v1, v2)
    _, forward_rows, backward_rows = T.attention_weights(
        v1.numpy(), v2.numpy(), attention.ffn_w.numpy(), attention.ffn_b.numpy(), *counts)
    for rows in (forward_rows, backward_rows):
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12
    exported = attention_map(v1, v2, attention, *counts)
    assert np.abs(exported.sum(axis=1) - 1.0).max() <= 1e-12

    with T.no_grad():
        base = build_pair_representation([v1, u1], [v2, u2], attention, 1,
                                         each_once(1, v1, u1), each_once(1, v2, u2)).numpy().copy()
    p1, p2 = rng.permutation(9), rng.permutation(9)
    shuffled1 = [T.constant(v1.numpy()[p1]), T.constant(u1.numpy()[p1])]
    shuffled2 = [T.constant(v2.numpy()[p2]), T.constant(u2.numpy()[p2])]
    with T.no_grad():
        permuted = build_pair_representation(shuffled1, shuffled2, attention, 1,
                                             each_once(1, v1, u1), each_once(1, v2, u2)).numpy()
    assert np.abs(permuted - base).max() <= 1e-12


# ---------------------------------------------------------------------------
# 6. Overfit run: 64 planted-cue pairs reach 100% training accuracy within a
#    200-epoch budget and at least 95% on an independently drawn dev set,
#    with the joint loss strictly decreasing over the first ten epochs, all
#    inside five minutes.


def test_planted_cue_corpus_is_memorized_and_generalized():
    start = time.perf_counter()
    labels = LabelSpace.eleven_way()
    train_records = synthetic_corpus(64, SENSES, seed=0, filler_words=10, arg_len=6)
    dev_records = synthetic_corpus(64, SENSES, seed=1, filler_words=10, arg_len=6)
    vocab, matrix = synthetic_word_vectors(train_records + dev_records, dim=12, seed=0)
    table = WordEmbeddingTable(vocab, matrix)

    train_instances = [TrainInstance(r, labels.labels_of(r.senses)[0])
                       for r in train_records]
    train_as_eval = [EvalInstance(r, frozenset(labels.labels_of(r.senses)))
                     for r in train_records]
    dev_instances = [EvalInstance(r, frozenset(labels.labels_of(r.senses)))
                     for r in dev_records]

    model = RelationModel(TokenEmbedder(word_table=table), labels.n_classes,
                          connective_vocabulary(train_instances),
                          np.random.default_rng(1), depth=2, block_type="conv",
                          kernel_size=3, max_tokens=8)
    config = TrainConfig(learning_rate=0.03, batch_size=16, epochs=200, patience=30,
                         seed=0)
    result = train(model, train_instances, train_as_eval, config)

    losses = [row.train_loss for row in result.trace]
    assert len(losses) >= 10
    assert all(losses[i] > losses[i + 1] for i in range(9)), losses[:10]
    assert result.best_epoch <= 200
    assert evaluate_accuracy(model, train_as_eval) == 1.0
    assert evaluate_accuracy(model, dev_instances) >= 0.95
    assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# 7. Ablation machinery: the accumulation ladder produces its five rows end
#    to end on a synthetic corpus, the residual grid its four, and enabling
#    modules never changes the classifier output shapes.


def _ablation_base_config(tmp_path) -> RunConfig:
    corpus = tmp_path / "corpus.jsonl"
    vectors = tmp_path / "vectors.txt"
    merge_table = tmp_path / "merges.txt"
    records = synthetic_corpus(64, SENSES, seed=0, filler_words=8, arg_len=5)
    save_corpus(corpus, records)
    vocab, matrix = synthetic_word_vectors(records, dim=8, seed=0)
    save_word_vectors(vectors, vocab, matrix)
    save_merge_table(merge_table, learn_bpe(
        word_frequencies([r.arg1 for r in records] + [r.arg2 for r in records]), 12))
    return RunConfig(
        layers=2, kernel_size=3, max_tokens=6,
        subword_vector_dim=8, subword_channels=4, subword_kernel_sizes=(2, 3),
        contextual_dim=8, contextual_char_dim=4, contextual_out_dim=8,
        contextual_epochs=1, learning_rate=0.1, batch_size=8,
        embedding_dropout=0.0, encoder_dropout=0.0, classifier_dropout=0.0,
        epochs=1, patience=1, seed=0, corpus=str(corpus),
        word_vectors=str(vectors), merge_table=str(merge_table),
        output_dir=str(tmp_path / "run"))


def test_accumulation_ladder_and_residual_grid_run_end_to_end(tmp_path):
    config_path = tmp_path / "base.ini"
    save_config(config_path, _ablation_base_config(tmp_path))

    ladder_csv = tmp_path / "ladder.csv"
    assert main(["ablate", str(config_path), "--out", str(ladder_csv),
                 "--preset", "ladder"]) == 0
    ladder_lines = ladder_csv.read_text().splitlines()
    assert len(ladder_lines) == 6
    assert [line.split(",")[0] for line in ladder_lines[1:]] == \
        ["baseline", "+bi-attention", "+residual", "+subword", "+contextual"]
    column = ladder_lines[0].split(",").index("best_dev_accuracy")
    assert all(line.split(",")[column] != "" for line in ladder_lines[1:])

    grid_csv = tmp_path / "grid.csv"
    assert main(["ablate", str(config_path), "--out", str(grid_csv),
                 "--preset", "res-grid"]) == 0
    assert len(grid_csv.read_text().splitlines()) == 5


def test_enabling_modules_never_changes_classifier_output_shapes(tmp_path):
    base = _ablation_base_config(tmp_path)
    sample = load_corpus(base.corpus)[0]
    shapes = set()
    for label, config in ladder_rows(base):
        setup = prepare_training(config)
        with T.no_grad():
            relation_logits, connective_logits = setup.model.scores(
                sample.arg1, sample.arg2)
        shapes.add((relation_logits.shape, connective_logits.shape))
    assert len(shapes) == 1


# ---------------------------------------------------------------------------
# 8. Metric oracles: the three evaluation metrics equal a from-scratch
#    confusion-matrix recomputation on a thousand random prediction sets.


def _f1_from_counts(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def test_metrics_equal_confusion_matrix_recomputation_on_1000_sets():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n = int(rng.integers(1, 40))

        predictions = rng.integers(0, 11, size=n).tolist()
        gold_sets = [frozenset(rng.choice(11, size=int(rng.integers(1, 4)),
                                          replace=False).tolist())
                     for _ in range(n)]
        hits = sum(1 for p, gold in zip(predictions, gold_sets) if p in gold)
        assert accuracy_multigold(predictions, gold_sets) == hits / n

        binary_pred = rng.integers(0, 2, size=n).tolist()
        binary_gold = rng.integers(0, 2, size=n).tolist()
        confusion = [[0, 0], [0, 0]]
        for p, g in zip(binary_pred, binary_gold):
            confusion[p][g] += 1
        assert f1_binary(binary_pred, binary_gold) == \
            100.0 * _f1_from_counts(confusion[1][1], confusion[1][0], confusion[0][1])

        four_pred = rng.integers(0, 4, size=n).tolist()
        four_gold = rng.integers(0, 4, size=n).tolist()
        matrix = np.zeros((4, 4), dtype=int)
        for p, g in zip(four_pred, four_gold):
            matrix[p, g] += 1
        total = 0.0
        for c in range(4):
            tp = int(matrix[c, c])
            fp = int(matrix[c].sum()) - tp
            fn = int(matrix[:, c].sum()) - tp
            total += _f1_from_counts(tp, fp, fn)
        assert macro_f1_4way(four_pred, four_gold) == 100.0 * total / 4


# ---------------------------------------------------------------------------
# 9. Determinism: a fixed seed reproduces checkpoint bytes and the epoch
#    trace across two independent runs, dropout included.


def test_fixed_seed_reproduces_checkpoint_bytes_and_trace(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    vectors = tmp_path / "vectors.txt"
    records = synthetic_corpus(32, SENSES, seed=0, filler_words=8, arg_len=5)
    save_corpus(corpus, records)
    vocab, matrix = synthetic_word_vectors(records, dim=8, seed=0)
    save_word_vectors(vectors, vocab, matrix)
    base = RunConfig(layers=1, kernel_size=3, max_tokens=6, learning_rate=0.05,
                     batch_size=8, embedding_dropout=0.2, encoder_dropout=0.2,
                     classifier_dropout=0.1, epochs=3, patience=3, seed=5,
                     corpus=str(corpus), word_vectors=str(vectors))
    run_dirs = []
    for sub in ("first", "second"):
        config = replace(base, output_dir=str(tmp_path / sub))
        setup = prepare_training(config)
        result = run_training(setup)
        run_dirs.append(write_run(tmp_path / sub, setup, result))
    first, second = run_dirs
    assert (first / "model.ckpt").read_bytes() == (second / "model.ckpt").read_bytes()
    assert (first / "trace.csv").read_bytes() == (second / "trace.csv").read_bytes()


# ---------------------------------------------------------------------------
# 10. Frozen components: the word-vector table and the frozen contextual
#     embedder hash identically before and after a training run of at least
#     fifty optimizer steps.


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def test_frozen_embedding_components_survive_fifty_training_steps(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    vectors = tmp_path / "vectors.txt"
    records = synthetic_corpus(64, SENSES, seed=0, filler_words=8, arg_len=5)
    save_corpus(corpus, records)
    vocab, matrix = synthetic_word_vectors(records, dim=8, seed=0)
    save_word_vectors(vectors, vocab, matrix)
    config = RunConfig(layers=1, kernel_size=3, max_tokens=6,
                       use_contextual=True, contextual_dim=8,
                       contextual_char_dim=4, contextual_out_dim=8,
                       contextual_epochs=1, learning_rate=0.05, batch_size=8,
                       embedding_dropout=0.0, encoder_dropout=0.0,
                       classifier_dropout=0.0, epochs=8, patience=8, seed=0,
                       corpus=str(corpus), word_vectors=str(vectors),
                       output_dir=str(tmp_path / "run"))
    setup = prepare_training(config)

    word_before = _digest(setup.model.embedder.word_table.matrix)
    toy_before = {name: _digest(array)
                  for name, array in setup.model.embedder.contextual.state_arrays().items()}
    assert toy_before, "the contextual embedder must contribute frozen state"

    result = run_training(setup)
    steps = len(result.trace) * math.ceil(len(setup.splits.train) / config.batch_size)
    assert steps >= 50

    assert _digest(setup.model.embedder.word_table.matrix) == word_before
    toy_after = {name: _digest(array)
                 for name, array in setup.model.embedder.contextual.state_arrays().items()}
    assert toy_after == toy_before
    saved = T.load_checkpoint(write_run(tmp_path / "run", setup, result) / "model.ckpt")
    assert {name: _digest(saved[name]) for name in toy_before} == toy_before
