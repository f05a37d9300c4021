"""Golden outputs: the exact ``report.csv`` bytes of two fixed configs and
the exact ``export_model`` text of the three tree models on a small one.

A change that alters these bytes on purpose regenerates the files in a
change of its own and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest

from conftest import bridge_config
from xpop.harness import (
    BenchmarkConfig,
    ModelSpec,
    prepare_matrices,
    render_report,
    run_benchmark,
    train_model,
)
from xpop.models import export_model
from xpop.seeds import derive_seed
from xpop.synth import SynthSpec

GOLDEN = Path(__file__).resolve().parent / "golden"


def criterion_10_config(tmp_path) -> BenchmarkConfig:
    """The criterion-10 config: 1k synth cases, k=4, the four built-in models."""
    return BenchmarkConfig(
        seed=11,
        max_prefix=4,
        models=(
            ModelSpec("lr", "logreg"),
            ModelSpec("tree", "tree"),
            ModelSpec("rf", "forest", {"n_trees": 20}),
            ModelSpec("llm", "llm"),
        ),
        synth=SynthSpec(n_cases=1000, label_noise=0.05, seed=11),
        log_id="synthetic",
    )


CONFIGS = {"criterion_10.csv": criterion_10_config, "bridge.csv": bridge_config}

# 200 noisy synth cases (536 train rows x 34 columns); the llm gets one
# constant leaf and three fitted ones.
EXPORT_CONFIG = BenchmarkConfig(
    seed=3,
    max_prefix=4,
    models=(
        ModelSpec("tree", "tree"),
        ModelSpec("forest", "forest", {"n_trees": 3}),
        ModelSpec("llm", "llm", {"max_depth": 2}),
    ),
    synth=SynthSpec(n_cases=200, label_noise=0.05, seed=3),
)
EXPORTS = {f"export_{spec.name}.txt": idx for idx, spec in enumerate(EXPORT_CONFIG.models)}


def _report_bytes(name: str, tmp_path) -> bytes:
    return render_report(run_benchmark(CONFIGS[name](tmp_path)), "csv").encode("utf-8")


def test_criterion_10_report_matches_golden(tmp_path):
    assert _report_bytes("criterion_10.csv", tmp_path) == (GOLDEN / "criterion_10.csv").read_bytes()


def test_bridge_report_matches_golden(tmp_path):
    assert _report_bytes("bridge.csv", tmp_path) == (GOLDEN / "bridge.csv").read_bytes()


def _export_bytes() -> dict[str, bytes]:
    train_m, _ = prepare_matrices(EXPORT_CONFIG)
    return {
        name: export_model(train_model(
            EXPORT_CONFIG.models[idx], train_m, derive_seed(EXPORT_CONFIG.seed, idx)
        )).encode("utf-8")
        for name, idx in EXPORTS.items()
    }


@pytest.fixture(scope="module")
def exports() -> dict[str, bytes]:
    return _export_bytes()


@pytest.mark.parametrize("name", EXPORTS)
def test_export_matches_golden(name, exports):
    assert exports[name] == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(_report_bytes(name, Path(tmp)))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
    for name, text in _export_bytes().items():
        (GOLDEN / name).write_bytes(text)
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
