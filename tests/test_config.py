"""Experiment configuration parsing and validation."""

import math
from dataclasses import fields

import pytest

from divreg.config import SAMPLE_LIMIT, SIZE_LIMIT, ConfigError, ExperimentConfig
from divreg.data import GeneratorConfig


def test_minimal_dict_fills_defaults():
    cfg = ExperimentConfig.from_dict({"model_family": "ensemble"})
    assert cfg.class_count == 8
    assert cfg.branch_max == 3
    assert cfg.branch_add_epochs == 2
    assert cfg.diversity_weight == 1.0
    assert cfg.gamma is None
    assert cfg.lambda_balance == 0.6
    assert cfg.diversity_tap == "last"
    assert cfg.pool_op == "mean"
    assert cfg.normalize_features is False


def test_model_family_required_and_checked():
    with pytest.raises(ConfigError, match="model_family"):
        ExperimentConfig.from_dict({})
    with pytest.raises(ConfigError, match="model_family"):
        ExperimentConfig.from_dict({"model_family": "transformer"})


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="learning_rte"):
        ExperimentConfig.from_dict({"model_family": "ensemble", "learning_rte": 0.1})


def test_lambda_key_maps_to_attribute():
    cfg = ExperimentConfig.from_dict({"model_family": "dual_branch", "lambda": 0.25})
    assert cfg.lambda_balance == 0.25
    assert cfg.to_dict()["lambda"] == 0.25
    assert "lambda_balance" not in cfg.to_dict()


def test_family_consistency():
    with pytest.raises(ConfigError, match="lambda"):
        ExperimentConfig.from_dict({"model_family": "ensemble", "lambda": 0.5})
    with pytest.raises(ConfigError, match="branch_max"):
        ExperimentConfig.from_dict({"model_family": "dual_branch", "branch_max": 4})
    with pytest.raises(ConfigError, match="branch_add_epochs"):
        ExperimentConfig.from_dict({"model_family": "dual_branch", "branch_add_epochs": 1})
    # each family's step reads only its own diversity switch
    with pytest.raises(ConfigError, match="'pool_op': only meaningful for model_family dual"):
        ExperimentConfig.from_dict({"model_family": "ensemble", "pool_op": "max"})
    with pytest.raises(ConfigError, match="'diversity_tap': only meaningful for model_family ens"):
        ExperimentConfig.from_dict({"model_family": "dual_branch", "diversity_tap": "all"})
    # an unknown family is named before any key of a family
    with pytest.raises(ConfigError, match="model_family"):
        ExperimentConfig.from_dict({"model_family": "transformer", "lambda": 0.5})


def test_gamma_auto_and_numbers():
    assert ExperimentConfig.from_dict({"model_family": "ensemble",
                                       "gamma": "auto"}).gamma is None
    assert ExperimentConfig.from_dict({"model_family": "ensemble",
                                       "gamma": None}).gamma is None
    assert ExperimentConfig.from_dict({"model_family": "ensemble",
                                       "gamma": 0.5}).gamma == 0.5
    with pytest.raises(ConfigError, match="gamma"):
        ExperimentConfig.from_dict({"model_family": "ensemble", "gamma": "big"})
    with pytest.raises(ConfigError, match="gamma"):
        ExperimentConfig.from_dict({"model_family": "ensemble", "gamma": True})
    with pytest.raises(ConfigError, match="gamma"):
        ExperimentConfig.from_dict({"model_family": "ensemble", "gamma": 0.0})


def test_ensemble_diversity_needs_attention():
    with pytest.raises(ConfigError, match="attention"):
        ExperimentConfig.from_dict({"model_family": "ensemble",
                                    "attention_enabled": False})
    # fine once diversity is off, and never constrained for the dual model
    ExperimentConfig.from_dict({"model_family": "ensemble", "attention_enabled": False,
                                "diversity_spatial": False, "diversity_channel": False})
    ExperimentConfig.from_dict({"model_family": "dual_branch",
                                "attention_enabled": False})


@pytest.mark.parametrize("field,value", [
    ("class_count", 1),
    ("diversity_weight", -0.5),
    ("epochs", 0),
    ("batch_size", 0),
    ("learning_rate", 0.0),
    ("momentum", 1.0),
    ("seed", -1),
    ("diversity_tap", "first"),
    ("pool_op", "sum"),
])
def test_range_validation(field, value):
    family = "dual_branch" if field == "pool_op" else "ensemble"
    with pytest.raises(ConfigError, match=f"'{field}': must"):
        ExperimentConfig.from_dict({"model_family": family, field: value})


@pytest.mark.parametrize("field", ["class_count", "branch_max"])
def test_counts_capped_at_the_size_limit(field):
    cfg = ExperimentConfig.from_dict({"model_family": "ensemble", field: SIZE_LIMIT})
    assert getattr(cfg, field) == SIZE_LIMIT
    with pytest.raises(ConfigError, match=f"'{field}': must be in .*, got {SIZE_LIMIT + 1}"):
        ExperimentConfig.from_dict({"model_family": "ensemble", field: SIZE_LIMIT + 1})


# every number field of both configs, as (config class, JSON key)
_FLOAT_FIELDS = [(cls, {"lambda_balance": "lambda"}.get(f.name, f.name))
                 for cls in (ExperimentConfig, GeneratorConfig)
                 for f in fields(cls) if f.type.startswith("float")]


def test_float_fields_listed():
    assert [key for _, key in _FLOAT_FIELDS] == [
        "diversity_weight", "gamma", "lambda", "learning_rate", "momentum",
        "noise_sigma", "occlusion_prob"]


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), 10 ** 400])
@pytest.mark.parametrize("cls,key", _FLOAT_FIELDS)
def test_non_finite_numbers_rejected(cls, key, value):
    doc = {"model_family": "dual_branch"} if cls is ExperimentConfig else {}
    with pytest.raises(ConfigError, match=f"'{key}': must be finite, got"):
        cls.from_dict(dict(doc, **{key: value}))


def test_ensemble_only_ranges():
    with pytest.raises(ConfigError, match="branch_max"):
        ExperimentConfig.from_dict({"model_family": "ensemble", "branch_max": 0})
    with pytest.raises(ConfigError, match="branch_add_epochs"):
        ExperimentConfig.from_dict({"model_family": "ensemble", "branch_add_epochs": 0})
    with pytest.raises(ConfigError, match="lambda"):
        ExperimentConfig.from_dict({"model_family": "dual_branch", "lambda": -0.1})


def test_to_dict_roundtrips_through_from_dict():
    cfg = ExperimentConfig.from_dict({
        "model_family": "ensemble", "class_count": 4, "epochs": 3,
        "gamma": "auto", "diversity_weight": 0.5, "dataset_path": "data",
    })
    echoed = cfg.to_dict()
    assert echoed["gamma"] == "auto"
    assert "lambda" not in echoed and "pool_op" not in echoed  # echo re-parses cleanly
    again = ExperimentConfig.from_dict(echoed)
    for name in ("model_family", "class_count", "epochs", "gamma",
                 "diversity_weight", "dataset_path", "output_dir"):
        assert getattr(again, name) == getattr(cfg, name)


def test_dual_to_dict_roundtrips():
    cfg = ExperimentConfig.from_dict({"model_family": "dual_branch", "lambda": 0.3})
    echoed = cfg.to_dict()
    assert not {"branch_max", "branch_add_epochs", "diversity_tap"} & set(echoed)
    assert ExperimentConfig.from_dict(echoed).lambda_balance == 0.3


def test_config_error_carries_field():
    err = ConfigError("epochs", "must be >= 1, got 0")
    assert err.field == "epochs"
    assert "config field 'epochs'" in str(err)
    assert isinstance(err, ValueError)


def test_declared_types_accept_json_equivalents():
    # a float field takes an integer as it is; null only where the default is None
    cfg = ExperimentConfig.from_dict({"model_family": "ensemble", "learning_rate": 1,
                                      "diversity_weight": 0, "gamma": 2,
                                      "dataset_path": None})
    assert cfg.learning_rate == 1 and type(cfg.learning_rate) is int
    assert cfg.diversity_weight == 0 and cfg.gamma == 2 and cfg.dataset_path is None
    gen = GeneratorConfig.from_dict({"noise_sigma": 0, "occlusion_prob": 1})
    assert gen.noise_sigma == 0 and gen.occlusion_prob == 1


# every field of both configs that declares its allowed values, as (config
# class, JSON key, the values at its bounds, which it takes, and the values
# one step past them, which it rejects)
_BOUNDS = [
    (ExperimentConfig, "model_family", ["ensemble", "dual_branch"], ["transformer", ""]),
    (ExperimentConfig, "class_count", [2, SIZE_LIMIT], [1, SIZE_LIMIT + 1]),
    (ExperimentConfig, "branch_max", [1, SIZE_LIMIT], [0, SIZE_LIMIT + 1]),
    (ExperimentConfig, "branch_add_epochs", [1], [0]),
    (ExperimentConfig, "diversity_weight", [0], [-5e-324]),
    (ExperimentConfig, "gamma", [5e-324], [0, -5e-324]),
    (ExperimentConfig, "lambda", [0, 1], [-5e-324, math.nextafter(1, 2)]),
    (ExperimentConfig, "epochs", [1], [0]),
    (ExperimentConfig, "batch_size", [1], [0]),
    (ExperimentConfig, "learning_rate", [5e-324], [0, -5e-324]),
    (ExperimentConfig, "momentum", [0, math.nextafter(1, 0)], [-5e-324, 1]),
    (ExperimentConfig, "seed", [0, 2 ** 64 - 1], [-1, 2 ** 64]),
    (ExperimentConfig, "diversity_tap", ["last", "all"], ["first"]),
    (ExperimentConfig, "pool_op", ["mean", "max"], ["sum"]),
    (GeneratorConfig, "class_count", [2, SIZE_LIMIT], [1, SIZE_LIMIT + 1]),
    (GeneratorConfig, "samples_per_class", [1], [0]),
    (GeneratorConfig, "noise_sigma", [0], [-5e-324]),
    (GeneratorConfig, "occlusion_prob", [0, 1], [-5e-324, math.nextafter(1, 2)]),
    (GeneratorConfig, "occlusion_size", [0, 31], [-1, 32]),
    (GeneratorConfig, "seed", [0, 2 ** 64 - 1], [-1, 2 ** 64]),
]


def _doc(cls, key, value):
    # one sample per class, so the largest class count stays under SAMPLE_LIMIT
    if cls is GeneratorConfig:
        return {"samples_per_class": 1, key: value}
    if key == "model_family":
        return {key: value}
    return {"model_family": "dual_branch" if key in ("lambda", "pool_op") else "ensemble",
            key: value}


def test_bounds_cover_every_declared_field():
    declared = [(cls, {"lambda_balance": "lambda"}.get(f.name, f.name))
                for cls in (ExperimentConfig, GeneratorConfig)
                for f in fields(cls) if "admits" in f.metadata]
    assert declared == [(cls, key) for cls, key, _, _ in _BOUNDS]


@pytest.mark.parametrize("cls,key,accepted,rejected", _BOUNDS,
                         ids=[f"{cls.__name__}-{key}" for cls, key, _, _ in _BOUNDS])
def test_each_bound_taken_and_one_step_past_it_rejected(cls, key, accepted, rejected):
    attr = {"lambda": "lambda_balance"}.get(key, key)
    for value in accepted:
        assert getattr(cls.from_dict(_doc(cls, key, value)), attr) == value
    for value in rejected:
        with pytest.raises(ConfigError, match=f"'{key}': must be .*, got ") as e:
            cls.from_dict(_doc(cls, key, value))
        assert e.value.field == key
    # NaN passes no JSON type check of an int field, but built directly it
    # must still fail the field's own check
    args = {attr if k == key else k: v for k, v in _doc(cls, key, float("nan")).items()}
    with pytest.raises(ConfigError) as e:
        cls(**args)
    assert e.value.field == key


@pytest.mark.parametrize("class_count", [2, 3, 8, SIZE_LIMIT])
def test_generator_sample_count_capped(class_count):
    # configs only: no images are generated at the cap
    most = SAMPLE_LIMIT // class_count
    cfg = GeneratorConfig.from_dict({"class_count": class_count, "samples_per_class": most})
    assert cfg.class_count * cfg.samples_per_class <= SAMPLE_LIMIT
    with pytest.raises(ConfigError, match=f"'samples_per_class': must be <= {most} ") as e:
        GeneratorConfig.from_dict({"class_count": class_count, "samples_per_class": most + 1})
    assert e.value.field == "samples_per_class"


@pytest.mark.parametrize("doc,key", [
    # the parse names errors in one order: unknown key, missing
    # model_family, the other family's key, JSON type, allowed values
    ({"epochs": "x", "learning_rte": 0.1}, "learning_rte"),
    ({"epochs": "x", "lambda": 0.5}, "model_family"),
    ({"model_family": "ensemble", "epochs": "x", "lambda": 0.5}, "lambda"),
    ({"model_family": "ensemble", "epochs": 0, "momentum": "x"}, "momentum"),
    ({"model_family": "ensemble", "momentum": 2, "epochs": 0}, "epochs"),
    ({"model_family": "dual_branch", "pool_op": "sum", "lambda": 2}, "lambda"),
])
def test_first_error_named_in_parse_order(doc, key):
    with pytest.raises(ConfigError) as e:
        ExperimentConfig.from_dict(doc)
    assert e.value.field == key


@pytest.mark.parametrize("cls,args,later", [
    (ExperimentConfig, {"model_family": "ensemble", "epochs": 2.5, "class_count": 3.0,
                        "batch_size": True}, {"epochs": 2.5}),
    (GeneratorConfig, {"class_count": 3.0, "samples_per_class": 2.5, "seed": True},
     {"samples_per_class": 2.5}),
])
def test_built_directly_the_json_types_are_checked(cls, args, later):
    # the constructor runs the type check from_dict relies on: the first
    # field in declaration order is named, and a type error in a later
    # field comes before a range error in an earlier one
    with pytest.raises(ConfigError, match="'class_count': must be an integer, got 3.0") as e:
        cls(**args)
    assert e.value.field == "class_count"
    with pytest.raises(ConfigError) as e:
        cls(**{k: v for k, v in args.items() if k == "model_family"}, class_count=1, **later)
    assert e.value.field == next(iter(later))
