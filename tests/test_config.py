"""Config file parsing, validation messages, and the preset grids."""

from dataclasses import replace

import pytest

from discrel.config import (
    RunConfig,
    apply_baseline,
    config_from_dict,
    config_to_dict,
    ladder_rows,
    layer_sweep_rows,
    parse_config,
    residual_grid_rows,
    save_config,
    to_train_config,
    validate,
    vary_rows,
)
from discrel.errors import ConfigError


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


def test_dict_round_trip():
    config = replace(RunConfig(), use_subword=True, subword_kernel_sizes=(3, 5),
                     merge_table="m.txt", layers=2)
    assert config_from_dict(config_to_dict(config)) == config


def test_dict_rejects_unknown_keys():
    data = config_to_dict(RunConfig())
    data["model"]["mystery"] = 1
    with pytest.raises(ConfigError, match="model.mystery"):
        config_from_dict(data)


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
