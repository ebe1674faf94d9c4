"""The benchmark under perfbench/ drives divreg through its public
functions and the two private training steps; these tests fail in tier-1
when a change to src/ breaks what the benchmark calls or checks."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from divreg.config import ExperimentConfig
from divreg.models import build_dual_branch
from divreg.training import _dual_step

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_uninstall_restores_every_binding(monkeypatch):
    tracer = _load("tracer", monkeypatch).Tracer()
    tracer.install()  # a renamed or deleted binding raises KeyError here
    patched = list(tracer._undo)
    tracer.uninstall()

    names = {attr for _, attr, _ in patched}
    assert {"similarity_matrix_t", "det_t", "lu_det", "predict_dataset",
            "from_op"} <= names
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_passes_its_checks(tmp_path, trace):
    # a copy of the checkout, so the run's inputs and trace stay out of the tree
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=ignore)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] > 0


def test_numpy_scores_match_dual_step(monkeypatch):
    # the tiny workload trains only the ensemble
    checks = _load("checks", monkeypatch)
    model = build_dual_branch(3, seed=2, input_size=16)
    xb = np.random.default_rng(4).uniform(size=(5, 1, 16, 16))
    cfg = ExperimentConfig("dual_branch")
    _, breakdown = _dual_step(model, xb, np.array([0, 1, 2, 0, 1]), cfg)
    ours = checks.numpy_scores(model, xb, cfg)
    assert set(ours) == {"d_sp", "d_ch", "d_branch"}
    name, ok, detail = checks.diversity_scores(ours, breakdown, [])
    assert ok, detail
