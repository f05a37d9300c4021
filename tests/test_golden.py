"""Golden reports: the exact ``report.csv`` bytes of two fixed configs.

A change that alters these numbers on purpose regenerates the files in a
change of its own and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from conftest import bridge_config
from xpop.harness import BenchmarkConfig, ModelSpec, render_report, run_benchmark
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


def _report_bytes(name: str, tmp_path) -> bytes:
    return render_report(run_benchmark(CONFIGS[name](tmp_path)), "csv").encode("utf-8")


def test_criterion_10_report_matches_golden(tmp_path):
    assert _report_bytes("criterion_10.csv", tmp_path) == (GOLDEN / "criterion_10.csv").read_bytes()


def test_bridge_report_matches_golden(tmp_path):
    assert _report_bytes("bridge.csv", tmp_path) == (GOLDEN / "bridge.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / name).write_bytes(_report_bytes(name, Path(tmp)))
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
