"""The benchmark tracer patches divreg's public functions by name; every
name it patches must exist, and uninstalling must restore each binding."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_install_uninstall_restores_every_binding(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)

    tracer = tracer_module.Tracer()
    tracer.install()  # a renamed or deleted binding raises KeyError here
    patched = list(tracer._undo)
    tracer.uninstall()

    names = {attr for _, attr, _ in patched}
    assert {"similarity_matrix_t", "det_t", "lu_det", "predict_dataset",
            "from_op"} <= names
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
