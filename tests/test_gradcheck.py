"""Verification-suite plumbing: results, reports, coverage of exactly the
ops training records, and each op's check failing once its backward is
broken."""

import ast
from pathlib import Path

import numpy as np
import pytest

import divreg
from divreg import gradcheck
from divreg.autodiff import Tensor, backward
from divreg.config import ExperimentConfig
from divreg.gradcheck import (_CHECKS, CheckResult, report_json, report_text, run_suite)
from divreg.models import build_dual_branch, build_ensemble
from divreg.training import _dual_step, _ensemble_step
from tape_oracle import scale_backward


def test_suite_names_are_unique_and_cover_core_ops():
    names = [name for name, *_ in _CHECKS]
    assert len(names) == len(set(names))
    for expected in ("add", "mul", "neg", "relu", "sigmoid", "mean", "reshape",
                     "concat", "slice", "conv2d", "linear", "reduce_max", "broadcast_mul", "softmax_cross_entropy",
                     "global_avg_pool", "attention", "spatial_pool",
                     "channel_pool", "unit_normalize", "similarity", "det",
                     "diversity_grad", "esr_loss", "manet_loss", "esr_loss_switches",
                     "manet_loss_switches"):
        assert expected in names


def test_report_text_format():
    results = [CheckResult("demo", 1e-7, 1e-5, True)]
    text = report_text(results)
    assert "PASS demo" in text
    assert "all checks passed" in text
    text_fail = report_text([CheckResult("demo", 1.0, 1e-5, False)])
    assert "FAIL demo" in text_fail
    assert "demo" in text_fail.splitlines()[-1]


def test_report_json_shape():
    doc = report_json([CheckResult("demo", 1e-7, 1e-5, True)])
    assert doc["all_passed"] is True
    assert doc["checks"][0]["name"] == "demo"
    assert doc["checks"][0]["max_rel_err"] == 1e-7
    assert doc["checks"][0]["passed"] is True


def test_check_seeds_are_frozen_and_distinct():
    # a check's inputs depend on its seed only, never on its list position
    seeds = {name: seed for name, seed, *_ in _CHECKS}
    assert len(set(seeds.values())) == len(seeds)
    assert (seeds["add"], seeds["relu"], seeds["similarity"], seeds["manet_loss"]) == \
        (0, 4, 22, 28)


def _source_op_kinds():
    """The op kind of every `Tensor.from_op(...)` call in src/."""
    kinds = set()
    for path in Path(divreg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "from_op"):
                kinds.add(ast.literal_eval(node.args[-1]))
    return kinds


def _training_op_kinds(monkeypatch):
    """Op kinds one ensemble step and one dual step record, forward and
    backward, with every switch that adds ops turned on."""
    recorded = set()
    from_op = Tensor.from_op.__func__

    def recording_from_op(cls, data, parents, back, op):
        recorded.add(op)
        return from_op(cls, data, parents, back, op)

    monkeypatch.setattr(Tensor, "from_op", classmethod(recording_from_op))
    x = np.random.default_rng(3).uniform(0.0, 1.0, (4, 1, 8, 8))
    labels = np.array([0, 1, 2, 1])
    ensemble = build_ensemble(class_count=3, branch_max=3, attention_enabled=True, seed=1,
                              input_size=8, initial_branches=3)
    cfg = ExperimentConfig.from_dict({"model_family": "ensemble", "class_count": 3,
                                      "diversity_tap": "all", "normalize_features": True})
    backward(_ensemble_step(ensemble, x, labels, cfg)[0])
    dual = build_dual_branch(class_count=3, attention_enabled=True, seed=1, input_size=8)
    cfg = ExperimentConfig.from_dict({"model_family": "dual_branch", "class_count": 3,
                                      "pool_op": "max", "normalize_features": True})
    backward(_dual_step(dual, x, labels, cfg)[0])
    return recorded


def test_checks_cover_exactly_the_tape_ops(monkeypatch):
    kinds = _source_op_kinds()
    check_names = {name for name, *_ in _CHECKS}
    assert sorted(kinds - check_names) == []
    # `neg` is kept for writing a negated loss (acceptance criterion 5)
    assert kinds == _training_op_kinds(monkeypatch) | {"neg"}


@pytest.mark.parametrize("kind", sorted(_source_op_kinds()))
def test_scaled_backward_fails_its_own_check(kind, monkeypatch):
    # a 1% error in one op's backward, wherever that op is recorded
    monkeypatch.setattr(gradcheck, "_CHECKS", [c for c in _CHECKS if c[0] == kind])
    scale_backward(monkeypatch, kind)
    [result] = run_suite()
    assert result.name == kind and not result.passed
