"""Run configuration: a flat sectioned key-value file, diff-friendly for sweeps.

The file has four sections — [task], [model], [train], [paths] — and every
key has a default, so a minimal config only states what it changes.  Parsing
and serialization share one schema table; validation errors always name the
offending ``section.key``.  Preset builders reproduce the standard experiment
grids: the accumulation ladder, the residual grid, and the depth/block sweep.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import configparser

from .data import SPLITS, TOP_LEVEL_CLASSES
from .errors import ConfigError, utf8_text
from .sentence_level import BLOCK_TYPES
from .training import TrainConfig

CONTEXTUAL_SOURCES = ("fresh", "vectors")
OUTPUT_ROOT_ENV = "DISCREL_OUTPUT_ROOT"


@dataclass
class RunConfig:
    # [task]
    task: str = "eleven-way"
    split: str = "lin"
    # [model]
    block_type: str = "conv"
    layers: int = 4
    kernel_size: int = 5
    shared_stacks: bool = False
    bi_attention: bool = True
    res_block: bool = True
    res_pair: bool = True
    use_word: bool = True
    use_subword: bool = False
    use_contextual: bool = False
    max_tokens: int = 100
    classifier_hidden: int = 0
    subword_vector_dim: int = 50
    subword_channels: int = 50
    subword_kernel_sizes: tuple = (2, 3)
    contextual_source: str = "fresh"
    contextual_dim: int = 64
    contextual_char_dim: int = 16
    contextual_out_dim: int = 64
    contextual_epochs: int = 5
    contextual_lr: float = 0.1
    # [train]
    learning_rate: float = 0.001
    batch_size: int = 64
    embedding_dropout: float = 0.4
    encoder_dropout: float = 0.4
    classifier_dropout: float = 0.3
    epochs: int = 100
    patience: int = 10
    seed: int = 0
    # [paths]
    corpus: str = ""
    word_vectors: str = ""
    merge_table: str = ""
    contextual_vectors: str = ""
    output_dir: str = ""


# (section, key, attribute, kind); the single source of truth for file layout
_SCHEMA = [
    ("task", "kind", "task", "str"),
    ("task", "split", "split", "str"),
    ("model", "block_type", "block_type", "str"),
    ("model", "layers", "layers", "int"),
    ("model", "kernel_size", "kernel_size", "int"),
    ("model", "shared_stacks", "shared_stacks", "bool"),
    ("model", "bi_attention", "bi_attention", "bool"),
    ("model", "res_block", "res_block", "bool"),
    ("model", "res_pair", "res_pair", "bool"),
    ("model", "use_word", "use_word", "bool"),
    ("model", "use_subword", "use_subword", "bool"),
    ("model", "use_contextual", "use_contextual", "bool"),
    ("model", "max_tokens", "max_tokens", "int"),
    ("model", "classifier_hidden", "classifier_hidden", "int"),
    ("model", "subword_vector_dim", "subword_vector_dim", "int"),
    ("model", "subword_channels", "subword_channels", "int"),
    ("model", "subword_kernel_sizes", "subword_kernel_sizes", "ints"),
    ("model", "contextual_source", "contextual_source", "str"),
    ("model", "contextual_dim", "contextual_dim", "int"),
    ("model", "contextual_char_dim", "contextual_char_dim", "int"),
    ("model", "contextual_out_dim", "contextual_out_dim", "int"),
    ("model", "contextual_epochs", "contextual_epochs", "int"),
    ("model", "contextual_lr", "contextual_lr", "float"),
    ("train", "learning_rate", "learning_rate", "float"),
    ("train", "batch_size", "batch_size", "int"),
    ("train", "embedding_dropout", "embedding_dropout", "float"),
    ("train", "encoder_dropout", "encoder_dropout", "float"),
    ("train", "classifier_dropout", "classifier_dropout", "float"),
    ("train", "epochs", "epochs", "int"),
    ("train", "patience", "patience", "int"),
    ("train", "seed", "seed", "int"),
    ("paths", "corpus", "corpus", "str"),
    ("paths", "word_vectors", "word_vectors", "str"),
    ("paths", "merge_table", "merge_table", "str"),
    ("paths", "contextual_vectors", "contextual_vectors", "str"),
    ("paths", "output_dir", "output_dir", "str"),
]

_BY_LOCATION = {(section, key): (attr, kind) for section, key, attr, kind in _SCHEMA}
_KEY_OF_ATTR = {attr: f"{section}.{key}" for section, key, attr, _ in _SCHEMA}


def _parse_value(location: str, raw: str, kind: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw not in ("true", "false"):
                raise ValueError
            return raw == "true"
        if kind == "ints":
            return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{location}: cannot read {raw!r} as {kind}") from None
    return raw


def _format_value(value, kind: str) -> str:
    if kind == "bool":
        return "true" if value else "false"
    if kind == "ints":
        return ",".join(str(v) for v in value)
    if kind == "float":
        return repr(value)
    return str(value)


def parse_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with utf8_text(path):
            read = parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    config = RunConfig()
    for section in parser.sections():
        if section not in {s for s, _, _, _ in _SCHEMA}:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            found = _BY_LOCATION.get((section, key))
            if found is None:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            attr, kind = found
            setattr(config, attr, _parse_value(f"{path}: {section}.{key}", raw, kind))
    try:
        validate(config)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config


def save_config(path, config: RunConfig) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    for section, key, attr, kind in _SCHEMA:
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, _format_value(getattr(config, attr), kind))
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def validate(config: RunConfig) -> None:
    """Check every value range and that each string fits on one INI line;
    whether paths exist is checked by the commands that use them."""
    for section, key, attr, kind in _SCHEMA:
        value = getattr(config, attr)
        # an INI value is one line, read back stripped
        if kind == "str" and (value != value.strip() or "\n" in value or "\r" in value):
            raise ConfigError(f"{section}.{key}: must be one line without surrounding "
                              f"whitespace, got {value!r}")
    task = config.task
    if task not in ("eleven-way", "four-way"):
        if not task.startswith("binary:") or task.split(":", 1)[1] not in TOP_LEVEL_CLASSES:
            raise ConfigError(
                f"task.kind: expected eleven-way, four-way, or binary:<one of "
                f"{'/'.join(TOP_LEVEL_CLASSES)}>, got {task!r}")
    if config.split not in SPLITS:
        raise ConfigError(f"task.split: unknown split {config.split!r} "
                          f"(choose one of {sorted(SPLITS)})")
    if config.block_type not in BLOCK_TYPES:
        raise ConfigError(f"model.block_type: expected one of {BLOCK_TYPES}, "
                          f"got {config.block_type!r}")
    if config.layers < 1:
        raise ConfigError(f"model.layers: must be at least 1, got {config.layers}")
    if config.block_type == "conv" and (config.kernel_size < 1 or config.kernel_size % 2 == 0):
        raise ConfigError(f"model.kernel_size: convolution width must be odd and "
                          f"positive, got {config.kernel_size}")
    if config.max_tokens < 2:
        raise ConfigError(f"model.max_tokens: need at least 2 positions for "
                          f"2-max pooling, got {config.max_tokens}")
    if config.classifier_hidden < 0:
        raise ConfigError(f"model.classifier_hidden: must be non-negative, "
                          f"got {config.classifier_hidden}")
    if not (config.use_word or config.use_subword or config.use_contextual):
        raise ConfigError("model.use_word: at least one of use_word, use_subword, "
                          "use_contextual must be true")
    if config.use_subword:
        if config.subword_vector_dim < 1:
            raise ConfigError(f"model.subword_vector_dim: must be positive, "
                              f"got {config.subword_vector_dim}")
        if config.subword_channels < 1:
            raise ConfigError(f"model.subword_channels: must be positive, "
                              f"got {config.subword_channels}")
        if not config.subword_kernel_sizes or any(k < 1 for k in config.subword_kernel_sizes):
            raise ConfigError(f"model.subword_kernel_sizes: need positive widths, "
                              f"got {config.subword_kernel_sizes}")
    if config.use_contextual:
        if config.contextual_source not in CONTEXTUAL_SOURCES:
            raise ConfigError(f"model.contextual_source: expected one of "
                              f"{CONTEXTUAL_SOURCES}, got {config.contextual_source!r}")
        if config.contextual_source == "fresh":
            if config.contextual_dim < 2 or config.contextual_dim % 2:
                raise ConfigError(f"model.contextual_dim: must be even and at least 2, "
                                  f"got {config.contextual_dim}")
            if config.contextual_char_dim < 1:
                raise ConfigError(f"model.contextual_char_dim: must be positive, "
                                  f"got {config.contextual_char_dim}")
            if config.contextual_epochs < 0:
                raise ConfigError(f"model.contextual_epochs: must be non-negative, "
                                  f"got {config.contextual_epochs}")
            if config.contextual_lr <= 0:
                raise ConfigError(f"model.contextual_lr: must be positive, "
                                  f"got {config.contextual_lr}")
        if config.contextual_out_dim < 1:
            raise ConfigError(f"model.contextual_out_dim: must be positive, "
                              f"got {config.contextual_out_dim}")
    try:
        to_train_config(config)
    except ConfigError as exc:
        raise ConfigError(f"train.{exc}") from None
    for attr in ("embedding_dropout", "encoder_dropout", "classifier_dropout"):
        rate = getattr(config, attr)
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"train.{attr} must be in [0, 1), got {rate}")


def to_train_config(config: RunConfig) -> TrainConfig:
    return TrainConfig(
        learning_rate=config.learning_rate,
        batch_size=config.batch_size,
        epochs=config.epochs,
        patience=config.patience,
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# Presets and grids


def apply_baseline(config: RunConfig) -> RunConfig:
    """The anchor configuration every ablation builds from: a 4-layer
    convolutional stack without residual paths, word vectors only, last
    layer 2-max pooled with no attention."""
    return replace(config, block_type="conv", layers=4, res_block=False,
                   res_pair=False, bi_attention=False, use_word=True,
                   use_subword=False, use_contextual=False)


def ladder_rows(base: RunConfig) -> list[tuple[str, RunConfig]]:
    """The accumulation ladder: each row switches one more module on."""
    rows = [("baseline", apply_baseline(base))]
    rows.append(("+bi-attention", replace(rows[-1][1], bi_attention=True)))
    rows.append(("+residual", replace(rows[-1][1], res_block=True, res_pair=True)))
    rows.append(("+subword", replace(rows[-1][1], use_subword=True)))
    rows.append(("+contextual", replace(rows[-1][1], use_contextual=True)))
    return rows


def residual_grid_rows(base: RunConfig) -> list[tuple[str, RunConfig]]:
    """All four on/off combinations of the two residual pathways."""
    rows = []
    for in_block, layerwise in itertools.product([False, True], repeat=2):
        label = (f"res_block={'on' if in_block else 'off'},"
                 f"res_pair={'on' if layerwise else 'off'}")
        rows.append((label, replace(base, res_block=in_block, res_pair=layerwise)))
    return rows


def layer_sweep_rows(base: RunConfig, max_layers: int = 7) -> list[tuple[str, RunConfig]]:
    """Depth 1..max_layers crossed with both block types."""
    if max_layers < 1:
        raise ConfigError(f"layer sweep: max_layers must be at least 1, got {max_layers}")
    rows = []
    for block_type in BLOCK_TYPES:
        for depth in range(1, max_layers + 1):
            rows.append((f"{block_type},layers={depth}",
                         replace(base, block_type=block_type, layers=depth)))
    return rows


PRESETS = {
    "ladder": ladder_rows,
    "res-grid": residual_grid_rows,
    "layer-sweep": layer_sweep_rows,
}


def vary_rows(base: RunConfig, variations: list[str]) -> list[tuple[str, RunConfig]]:
    """Cartesian product of ``section.key=v1,v2,...`` variation specs."""
    axes = []
    for spec in variations:
        if "=" not in spec:
            raise ConfigError(f"variation {spec!r}: expected section.key=value,value,...")
        location, _, raw_values = spec.partition("=")
        location = location.strip()
        if "." not in location:
            raise ConfigError(f"variation {location!r}: expected section.key")
        section, key = location.split(".", 1)
        found = _BY_LOCATION.get((section, key))
        if found is None:
            raise ConfigError(f"variation references unknown key {location}")
        attr, kind = found
        values = [_parse_value(location, part, kind)
                  for part in raw_values.split(",") if part.strip() != ""]
        if not values:
            raise ConfigError(f"variation {location}: no values given")
        axes.append((location, attr, kind, values))
    if not axes:
        return [("base", base)]
    rows = []
    for combo in itertools.product(*[values for _, _, _, values in axes]):
        config = base
        parts = []
        for (location, attr, kind, _), value in zip(axes, combo):
            config = replace(config, **{attr: value})
            parts.append(f"{location}={_format_value(value, kind)}")
        rows.append((";".join(parts), config))
    return rows
