"""Experiment configuration parsing and validation."""

from dataclasses import fields

import pytest

from divreg.config import SIZE_LIMIT, ConfigError, ExperimentConfig
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
