"""The benchmark's tracer (``perfbench/tracer.py``) wraps program functions
by module and name; a renamed or removed one would only fail at benchmark
time. These tests load the tracer by path and check its hooks."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    for module, attr, name, _ in _tracer().targets():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_install_then_uninstall_restores_each_original():
    tracer = _tracer()
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in tracer.targets()]
    t = tracer.Tracer()
    t.install(run_id=0)
    try:
        for module, attr, fn in originals:
            assert getattr(module, attr) is not fn, f"{module.__name__}.{attr} not wrapped"
        from xpop import models

        models.auc(np.array([0, 1]), np.array([0.2, 0.8]))
        assert [s["name"] for s in t.spans] == ["models.auc"]
    finally:
        t.uninstall()
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn, f"{module.__name__}.{attr} not restored"
