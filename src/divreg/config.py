"""Config documents of `train`/`ablate` and `gen-data`: one parse from JSON
and one check of the values each dataclass field declares, so a bad config
dies loudly, naming the field, before any compute."""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields

MODEL_FAMILIES = ("ensemble", "dual_branch")

# keys only one family's model or training step reads; the other rejects them
_FAMILY_KEYS = {"ensemble": ("branch_max", "branch_add_epochs", "diversity_tap"),
                "dual_branch": ("lambda", "pool_op")}

# JSON documents use "lambda"; the attribute needs a non-keyword name
_ATTR_TO_KEY = {"lambda_balance": "lambda"}

# the largest class count, branch count and image side that a config, a
# dataset file or a checkpoint may hold, so what `train` writes `eval` reads
SIZE_LIMIT = 4096

# the most images (class_count x samples_per_class) a generator config may
# ask for; `generate` holds them as float64, about 512 MiB at the cap
SAMPLE_LIMIT = 65536


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


def in_range(default, lo, hi=math.inf, *, lo_open=False, hi_open=False):
    """A config field whose values lie between ``lo`` and ``hi``; an open end
    excludes its bound. Both comparisons fail for NaN."""
    def admits(value):
        return (lo < value if lo_open else lo <= value) and \
            (value < hi if hi_open else value <= hi)
    if hi == math.inf:
        words = f"{'>' if lo_open else '>='} {lo}"
    else:
        words = f"in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"
    return field(default=default, metadata={"admits": admits, "words": words})


def one_of(choices, default=MISSING):
    """A config field whose value is one of ``choices``."""
    return field(default=default, metadata={"admits": lambda value: value in choices,
                                            "words": f"one of {list(choices)}"})


def check_allowed(config) -> None:
    """Raise ConfigError for the first field, in declaration order, whose
    value lies outside what the field declares (`in_range`, `one_of`);
    None passes where it is the default."""
    for f in fields(config):
        value = getattr(config, f.name)
        if "admits" in f.metadata and not (value is None and f.default is None) \
                and not f.metadata["admits"](value):
            raise ConfigError(_ATTR_TO_KEY.get(f.name, f.name),
                              f"must be {f.metadata['words']}, got {value!r}")


# JSON types each declared field type takes; bool is an int subclass in
# Python, so it is rejected by name wherever it is not the declared type
_JSON_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
               "bool": ((bool,), "true or false"), "str": ((str,), "a string")}


def parse_fields(cls, doc: dict, forbidden: dict | None = None) -> dict:
    """Constructor arguments of config dataclass ``cls`` from the JSON
    document ``doc``. Raises ConfigError naming, in this order: a key that
    is no field's (the first such key sorted), a missing field that has no
    default, a key of ``forbidden`` (with its message), then, in field
    order, a value whose JSON type is not the field's declared type or a
    number that is not finite. null is taken only where the default is
    None. Allowed values are left to `check_allowed`."""
    by_key = {_ATTR_TO_KEY.get(f.name, f.name): f for f in fields(cls)}
    unknown = sorted(set(doc) - set(by_key))
    if unknown:
        raise ConfigError(unknown[0], "unknown field")
    for key, f in by_key.items():
        if f.default is MISSING and key not in doc:
            raise ConfigError(key, "required")
    for key, message in (forbidden or {}).items():
        if key in doc:
            raise ConfigError(key, message)
    kwargs = {}
    for key, f in by_key.items():
        if key not in doc:
            continue
        value = kwargs[f.name] = doc[key]
        if value is None and f.default is None:
            continue
        base = f.type.split(" | ")[0]  # "str | None" -> "str"
        accepted, words = _JSON_TYPES[base]
        if not isinstance(value, accepted) or (isinstance(value, bool) and base != "bool"):
            raise ConfigError(key, f"must be {words}, got {value!r}")
        # JSON's Infinity and NaN, and integers past float range, all fail this
        if base == "float" and not abs(value) <= sys.float_info.max:
            raise ConfigError(key, f"must be finite, got {value!r}")
    return kwargs


@dataclass
class ExperimentConfig:
    model_family: str = one_of(MODEL_FAMILIES)
    class_count: int = in_range(8, 2, SIZE_LIMIT)
    branch_max: int = in_range(3, 1, SIZE_LIMIT)
    branch_add_epochs: int = in_range(2, 1)
    attention_enabled: bool = True
    diversity_spatial: bool = True
    diversity_channel: bool = True
    diversity_weight: float = in_range(1.0, 0)
    gamma: float | None = in_range(None, 0, lo_open=True)  # None means auto (1 / pooled length)
    lambda_balance: float = in_range(0.6, 0, 1)
    epochs: int = in_range(10, 1)
    batch_size: int = in_range(32, 1)
    learning_rate: float = in_range(0.01, 0, lo_open=True)
    momentum: float = in_range(0.9, 0, 1, hi_open=True)
    seed: int = in_range(0, 0, 2 ** 64, hi_open=True)
    dataset_path: str | None = None
    output_dir: str = "out"
    diversity_tap: str = one_of(("last", "all"), "last")  # ensemble: attended layers tapped
    pool_op: str = one_of(("mean", "max"), "mean")  # dual: pooling of the patch paths
    normalize_features: bool = False  # unit-norm pooled rows before similarity

    def __post_init__(self):
        check_allowed(self)
        if (self.model_family == "ensemble" and not self.attention_enabled
                and (self.diversity_spatial or self.diversity_channel)):
            raise ConfigError("attention_enabled",
                              "ensemble diversity taps attention maps; enable attention "
                              "or turn both diversity switches off")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Parse a JSON document (`parse_fields`); also rejects keys of the
        other model family, and reads gamma "auto" as None."""
        family = doc.get("model_family")
        forbidden = {key: f"only meaningful for model_family {owner}"
                     for owner, keys in _FAMILY_KEYS.items()
                     if family in MODEL_FAMILIES and family != owner for key in keys}
        if doc.get("gamma") == "auto":
            doc = dict(doc, gamma=None)
        return cls(**parse_fields(cls, doc, forbidden))

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
