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


def test_prepare_matrices_calls_each_wrapped_preprocess_hook():
    from xpop import harness
    from xpop.synth import SynthSpec

    cfg = harness.BenchmarkConfig(
        seed=3, max_prefix=4, models=(harness.ModelSpec("lr", "logreg"),),
        synth=SynthSpec(n_cases=30, seed=3),
    )
    t = _tracer().Tracer()
    t.install(run_id=0)
    try:
        matrices = harness.prepare_matrices(cfg)
    finally:
        t.uninstall()
    names = [s["name"] for s in t.spans]
    for name, calls in [("temporal_split", 1), ("fit_vocabulary", 1),
                        ("extract_prefixes", 2), ("aggregate_encode", 2)]:
        assert names.count(f"preprocess.{name}") == calls, name
    encoded = [s for s in t.spans if s["name"] == "preprocess.aggregate_encode"]
    assert [(s["rows"], s["cols"]) for s in encoded] == [
        (m.n_rows, m.n_columns) for m in matrices
    ]


def test_parse_span_counts_the_events_of_the_file(tmp_path):
    from xpop import harness
    from xpop.eventlog import format_schema_config, serialize_csv
    from xpop.synth import SynthSpec, generate_log

    log = generate_log(SynthSpec(n_cases=12, seed=4))
    text = serialize_csv(log)
    (tmp_path / "log.csv").write_text(text, encoding="utf-8")
    (tmp_path / "schema.cfg").write_text(format_schema_config(log.schema), encoding="utf-8")
    t = _tracer().Tracer()
    t.install(run_id=0)
    try:
        harness.read_log(tmp_path / "log.csv", tmp_path / "schema.cfg")
    finally:
        t.uninstall()
    [span] = [s for s in t.spans if s["name"] == "eventlog.parse_csv"]
    assert span["events"] == len(text.splitlines()) - 1 > 12
