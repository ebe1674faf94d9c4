"""Experiment configuration: JSON-friendly parsing with field-naming
validation errors, so a bad config dies loudly before any compute."""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

MODEL_FAMILIES = ("ensemble", "dual_branch")

# keys only one family's model or training step reads; the other rejects them
_FAMILY_KEYS = {"ensemble": ("branch_max", "branch_add_epochs", "diversity_tap"),
                "dual_branch": ("lambda", "pool_op")}

# JSON documents use "lambda"; the attribute needs a non-keyword name
_KEY_TO_ATTR = {"lambda": "lambda_balance"}
_ATTR_TO_KEY = {v: k for k, v in _KEY_TO_ATTR.items()}

# the largest class count, branch count and image side that a config, a
# dataset file or a checkpoint may hold, so what `train` writes `eval` reads
SIZE_LIMIT = 4096


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


# JSON types each declared field type takes; bool is an int subclass in
# Python, so it is rejected by name wherever it is not the declared type
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "bool": ((bool,), "true or false"), "str": ((str,), "a string")}


def check_field_types(cls, values: dict) -> None:
    """Raise ConfigError for a value whose JSON type is not its dataclass
    field's declared type, or for a number field that is not finite; null
    is taken only where the default is None."""
    for f in fields(cls):
        if f.name not in values:
            continue
        value = values[f.name]
        if value is None and f.default is None:
            continue
        base = f.type.split(" | ")[0]  # "str | None" -> "str"
        accepted, words = _JSON_TYPES[base]
        key = _ATTR_TO_KEY.get(f.name, f.name)
        if not isinstance(value, accepted) or (isinstance(value, bool) and base != "bool"):
            raise ConfigError(key, f"must be {words}, got {value!r}")
        # JSON's Infinity and NaN, and integers past float range, all fail this
        if base == "float" and not abs(value) <= sys.float_info.max:
            raise ConfigError(key, f"must be finite, got {value!r}")


@dataclass
class ExperimentConfig:
    model_family: str
    class_count: int = 8
    branch_max: int = 3
    branch_add_epochs: int = 2
    attention_enabled: bool = True
    diversity_spatial: bool = True
    diversity_channel: bool = True
    diversity_weight: float = 1.0
    gamma: float | None = None  # None means auto (1 / pooled length)
    lambda_balance: float = 0.6
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    dataset_path: str | None = None
    output_dir: str = "out"
    diversity_tap: str = "last"  # ensemble: "last" or "all" attended layers
    pool_op: str = "mean"  # dual: "mean" or "max" pooling of the patch paths
    normalize_features: bool = False  # unit-norm pooled rows before similarity

    def __post_init__(self):
        if self.model_family not in MODEL_FAMILIES:
            raise ConfigError("model_family",
                              f"must be one of {list(MODEL_FAMILIES)}, got {self.model_family!r}")
        if not 2 <= self.class_count <= SIZE_LIMIT:
            raise ConfigError("class_count",
                              f"must be in [2, {SIZE_LIMIT}], got {self.class_count}")
        if not 1 <= self.branch_max <= SIZE_LIMIT:
            raise ConfigError("branch_max", f"must be in [1, {SIZE_LIMIT}], got {self.branch_max}")
        if self.branch_add_epochs < 1:
            raise ConfigError("branch_add_epochs",
                              f"must be >= 1, got {self.branch_add_epochs}")
        if not self.diversity_weight >= 0:
            raise ConfigError("diversity_weight",
                              f"must be non-negative, got {self.diversity_weight}")
        if self.gamma is not None and not self.gamma > 0:
            raise ConfigError("gamma", f"must be positive or \"auto\", got {self.gamma}")
        if not 0.0 <= self.lambda_balance <= 1.0:
            raise ConfigError("lambda", f"must be in [0, 1], got {self.lambda_balance}")
        if self.epochs < 1:
            raise ConfigError("epochs", f"must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError("batch_size", f"must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate",
                              f"must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum", f"must be in [0, 1), got {self.momentum}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed", f"must be an unsigned 64-bit integer, got {self.seed}")
        if self.diversity_tap not in ("last", "all"):
            raise ConfigError("diversity_tap",
                              f"must be 'last' or 'all', got {self.diversity_tap!r}")
        if self.pool_op not in ("mean", "max"):
            raise ConfigError("pool_op", f"must be 'mean' or 'max', got {self.pool_op!r}")
        if (self.model_family == "ensemble" and not self.attention_enabled
                and (self.diversity_spatial or self.diversity_channel)):
            raise ConfigError("attention_enabled",
                              "ensemble diversity taps attention maps; enable attention "
                              "or turn both diversity switches off")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Parse a JSON document; rejects unknown fields and combinations
        that contradict the model family."""
        known_keys = {_ATTR_TO_KEY.get(f.name, f.name) for f in fields(cls)}
        unknown = set(doc) - known_keys
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown field")
        if "model_family" not in doc:
            raise ConfigError("model_family", "required")
        family = doc["model_family"]
        for owner, keys in _FAMILY_KEYS.items():
            for key in keys:
                if key in doc and family in MODEL_FAMILIES and family != owner:
                    raise ConfigError(key, f"only meaningful for model_family {owner}")
        kwargs = {_KEY_TO_ATTR.get(key, key): value for key, value in doc.items()}
        if kwargs.get("gamma") == "auto":
            kwargs["gamma"] = None
        check_field_types(cls, kwargs)
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """Echo of the config, defaults filled in; omits keys the model
        family rejects so the echo always re-parses."""
        out = {}
        for f in fields(type(self)):
            key = _ATTR_TO_KEY.get(f.name, f.name)
            if any(key in keys for owner, keys in _FAMILY_KEYS.items()
                   if owner != self.model_family):
                continue
            value = getattr(self, f.name)
            if f.name == "gamma" and value is None:
                value = "auto"
            out[key] = value
        return out
