"""Config file parsing, validation messages, and the preset grids."""

import re
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from discrel.config import (
    CONTEXTUAL_SOURCES,
    RunConfig,
    apply_baseline,
    ladder_rows,
    layer_sweep_rows,
    parse_config,
    residual_grid_rows,
    save_config,
    to_train_config,
    validate,
    vary_rows,
)
from discrel.data import SPLITS, TOP_LEVEL_CLASSES
from discrel.errors import ConfigError
from discrel.sentence_level import BLOCK_TYPES


def test_defaults_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    save_config(path, RunConfig())
    assert parse_config(path) == RunConfig()


def test_modified_values_round_trip(tmp_path):
    config = replace(RunConfig(), task="binary:Temporal", split="ji",
                     block_type="recurrent", layers=5, shared_stacks=True,
                     res_pair=False, use_subword=True,
                     subword_kernel_sizes=(2, 3, 4), learning_rate=0.05,
                     embedding_dropout=0.25, seed=17,
                     corpus="data/train.jsonl", merge_table="data/merges.txt")
    path = tmp_path / "run.ini"
    save_config(path, config)
    assert parse_config(path) == config


def test_partial_file_keeps_defaults(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[model]\nlayers = 2\n")
    config = parse_config(path)
    assert config.layers == 2
    assert config.kernel_size == RunConfig().kernel_size


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "absent.ini")


def test_unknown_section_is_named(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[extras]\nfoo = 1\n")
    with pytest.raises(ConfigError, match=r"\[extras\]"):
        parse_config(path)


def test_unknown_key_is_named(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[model]\nkernel = 5\n")
    with pytest.raises(ConfigError, match="model.kernel"):
        parse_config(path)


def test_bad_int_names_the_key(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[model]\nlayers = four\n")
    with pytest.raises(ConfigError, match="model.layers"):
        parse_config(path)


@pytest.mark.parametrize("text", ["[model]\nlayers = four\n", "[model]\nlayers = 0\n"])
def test_value_errors_name_the_file(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: model.layers: "):
        parse_config(path)


def test_bad_bool_names_the_key(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[model]\nres_block = yes\n")
    with pytest.raises(ConfigError, match="model.res_block"):
        parse_config(path)


@pytest.mark.parametrize("changes,needle", [
    ({"task": "twelve-way"}, "task.kind"),
    ({"task": "binary:Banana"}, "task.kind"),
    ({"split": "chen"}, "task.split"),
    ({"block_type": "transformer"}, "model.block_type"),
    ({"layers": 0}, "model.layers"),
    ({"kernel_size": 4}, "model.kernel_size"),
    ({"max_tokens": 1}, "model.max_tokens"),
    ({"classifier_hidden": -1}, "model.classifier_hidden"),
    ({"use_word": False}, "model.use_word"),
    ({"use_subword": True, "subword_vector_dim": 0}, "model.subword_vector_dim"),
    ({"use_subword": True, "subword_kernel_sizes": ()}, "model.subword_kernel_sizes"),
    ({"use_contextual": True, "contextual_source": "remote"}, "model.contextual_source"),
    ({"use_contextual": True, "contextual_dim": 7}, "model.contextual_dim"),
    ({"use_contextual": True, "contextual_lr": 0.0}, "model.contextual_lr"),
    ({"learning_rate": 0.0}, "train.learning_rate"),
    ({"batch_size": 0}, "train.batch_size"),
    ({"classifier_dropout": 1.0}, "train.classifier_dropout"),
    ({"patience": -2}, "train.patience"),
    ({"embedding_dropout": 1.0}, "train.embedding_dropout"),
    ({"encoder_dropout": -0.1}, "train.encoder_dropout"),
    ({"classifier_dropout": 1.5}, "train.classifier_dropout"),
])
def test_validation_names_the_offending_key(changes, needle):
    config = replace(RunConfig(), **changes)
    with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
        validate(config)


def test_even_kernel_is_fine_for_recurrent_blocks():
    validate(replace(RunConfig(), block_type="recurrent", kernel_size=4))


def test_binary_task_accepts_top_level_classes():
    validate(replace(RunConfig(), task="binary:Comparison"))


def test_train_config_extraction():
    config = replace(RunConfig(), learning_rate=0.01, batch_size=16,
                     epochs=7, patience=2, seed=5)
    tc = to_train_config(config)
    assert (tc.learning_rate, tc.batch_size, tc.epochs, tc.patience, tc.seed) \
        == (0.01, 16, 7, 2, 5)


# One INI line's worth of text: the characters INI syntax gives a meaning to
# (comments, interpolation, assignment, section headers) and non-ASCII text;
# no line breaks and no surrounding whitespace, which a value cannot carry.
_LINE = st.lists(st.sampled_from([";", "#", "%", "=", "[x]", ":", "é", "語", " "])
                 | st.characters(codec="utf-8", exclude_characters="\r\n"),
                 max_size=12).map(lambda parts: "".join(parts).strip())
_COUNT = st.integers(1, 2**40)
_RATE = st.floats(0.0, 1.0, exclude_max=True)
_STEP = st.floats(0.0, 1e6, exclude_min=True)


@st.composite
def run_configs(draw):
    """Any valid RunConfig; each field drawn from its own kind."""
    parts = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(any))
    return RunConfig(
        task=draw(st.sampled_from(["eleven-way", "four-way"]
                                  + [f"binary:{c}" for c in TOP_LEVEL_CLASSES])),
        split=draw(st.sampled_from(sorted(SPLITS))),
        block_type=draw(st.sampled_from(BLOCK_TYPES)),
        layers=draw(_COUNT), kernel_size=2 * draw(_COUNT) + 1,
        shared_stacks=draw(st.booleans()), bi_attention=draw(st.booleans()),
        res_block=draw(st.booleans()), res_pair=draw(st.booleans()),
        use_word=parts[0], use_subword=parts[1], use_contextual=parts[2],
        max_tokens=draw(st.integers(2, 2**40)), classifier_hidden=draw(st.integers(0, 2**40)),
        subword_vector_dim=draw(_COUNT), subword_channels=draw(_COUNT),
        subword_kernel_sizes=tuple(draw(st.lists(_COUNT, min_size=1, max_size=4))),
        contextual_source=draw(st.sampled_from(CONTEXTUAL_SOURCES)),
        contextual_dim=2 * draw(_COUNT), contextual_char_dim=draw(_COUNT),
        contextual_out_dim=draw(_COUNT), contextual_epochs=draw(st.integers(0, 2**40)),
        contextual_lr=draw(_STEP), learning_rate=draw(_STEP), batch_size=draw(_COUNT),
        embedding_dropout=draw(_RATE), encoder_dropout=draw(_RATE),
        classifier_dropout=draw(_RATE), epochs=draw(_COUNT),
        patience=draw(st.integers(0, 2**40)), seed=draw(st.integers(0, 2**32 - 1)),
        corpus=draw(_LINE), word_vectors=draw(_LINE), merge_table=draw(_LINE),
        contextual_vectors=draw(_LINE), output_dir=draw(_LINE))


@given(run_configs())
def test_any_valid_config_survives_the_ini_round_trip(tmp_path_factory, config):
    validate(config)
    path = tmp_path_factory.getbasetemp() / "round_trip.ini"
    save_config(path, config)
    assert parse_config(path) == config


_STRING_FIELDS = [f.name for f in fields(RunConfig) if f.type == "str"]


@pytest.mark.parametrize("value", ["a\nb", "a\n;b", "a\n#b", "a\n b", "a\rb", "a\r\nb",
                                   "a\n", " a", "a\t", "\u2028a"])
def test_strings_an_ini_value_cannot_carry_are_rejected(value):
    for field in _STRING_FIELDS:
        with pytest.raises(ConfigError, match="must be one line"):
            validate(replace(RunConfig(), **{field: value}))


# ---------------------------------------------------------------------------
# Presets


def test_baseline_preset_resets_the_ablatable_modules():
    noisy = replace(RunConfig(), block_type="recurrent", layers=6, res_block=True,
                    res_pair=True, bi_attention=True, use_subword=True,
                    use_contextual=True)
    base = apply_baseline(noisy)
    assert (base.block_type, base.layers) == ("conv", 4)
    assert not (base.res_block or base.res_pair or base.bi_attention)
    assert base.use_word and not base.use_subword and not base.use_contextual
    assert base.seed == noisy.seed  # everything else untouched


def test_ladder_accumulates_one_module_per_row():
    rows = ladder_rows(RunConfig())
    assert [label for label, _ in rows] == [
        "baseline", "+bi-attention", "+residual", "+subword", "+contextual"]
    flags = [(c.bi_attention, c.res_block, c.res_pair, c.use_subword, c.use_contextual)
             for _, c in rows]
    assert flags == [
        (False, False, False, False, False),
        (True, False, False, False, False),
        (True, True, True, False, False),
        (True, True, True, True, False),
        (True, True, True, True, True),
    ]
    for _, config in rows:
        validate(config)


def test_residual_grid_covers_all_four_combinations():
    rows = residual_grid_rows(RunConfig())
    assert len(rows) == 4
    combos = {(c.res_block, c.res_pair) for _, c in rows}
    assert combos == {(False, False), (False, True), (True, False), (True, True)}


def test_layer_sweep_crosses_depth_with_block_type():
    rows = layer_sweep_rows(RunConfig())
    assert len(rows) == 14
    assert ("conv,layers=1", "recurrent,layers=7") == (rows[0][0], rows[-1][0])
    seen = {(c.block_type, c.layers) for _, c in rows}
    assert len(seen) == 14
    assert layer_sweep_rows(RunConfig(), max_layers=2)[-1][1].layers == 2
    with pytest.raises(ConfigError):
        layer_sweep_rows(RunConfig(), max_layers=0)


# ---------------------------------------------------------------------------
# Explicit variation grids


def test_empty_variation_list_yields_the_base_config():
    rows = vary_rows(RunConfig(), [])
    assert rows == [("base", RunConfig())]


def test_single_axis_varies_in_order():
    rows = vary_rows(RunConfig(), ["model.layers=1,3,5"])
    assert [c.layers for _, c in rows] == [1, 3, 5]
    assert rows[0][0] == "model.layers=1"


def test_two_axes_form_an_ordered_product():
    rows = vary_rows(RunConfig(), ["model.res_block=true,false",
                                   "train.seed=1,2"])
    labels = [label for label, _ in rows]
    assert labels == [
        "model.res_block=true;train.seed=1",
        "model.res_block=true;train.seed=2",
        "model.res_block=false;train.seed=1",
        "model.res_block=false;train.seed=2",
    ]


def test_variation_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="model.des_block"):
        vary_rows(RunConfig(), ["model.des_block=true"])


@pytest.mark.parametrize("spec", ["model.layers", "layers=3", "model.layers="])
def test_variation_rejects_malformed_specs(spec):
    with pytest.raises(ConfigError):
        vary_rows(RunConfig(), [spec])
