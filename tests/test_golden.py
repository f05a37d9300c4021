"""Golden outputs: the exact ``report.csv`` bytes of three fixed configs and
the exact ``export_model`` text of the three tree models on a small one.

A change that alters these bytes on purpose regenerates the files in a
change of its own and says why:

    PYTHONPATH=src python tests/test_golden.py

``golden/csv_input/`` is an input, not an output: a 200-case log and its
schema, written once by ``serialize_csv`` and ``format_schema_config`` from
``SynthSpec(n_cases=200, seed=3)``, so that the CSV-path report does not
move with the synth stream. The script does not rewrite it.
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
    load_config,
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


def csv_path_config(tmp_path) -> BenchmarkConfig:
    """The CSV path: a config file that reads ``csv_input/`` and relabels it
    by ``label_a``/``label_b``. Both models stay under the 0.75 mean AUC, so
    the report pins the ``avg AUC below 75`` exclusion."""
    path = tmp_path / "bench.cfg"
    inputs = GOLDEN / "csv_input"
    path.write_text(
        f"[data]\nseed = 3\nmax_prefix = 4\nlog_id = csv\n"
        f"log = {inputs / 'log.csv'}\nschema = {inputs / 'schema.cfg'}\n"
        f"label_a = A\nlabel_b = B\n\n[model lr]\nkind = logreg\n\n[model tree]\nkind = tree\n",
        encoding="utf-8",
    )
    return load_config(path)


CONFIGS = {
    "criterion_10.csv": criterion_10_config,
    "bridge.csv": bridge_config,
    "csv_path.csv": csv_path_config,
}

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


def test_csv_path_report_matches_golden(tmp_path):
    assert _report_bytes("csv_path.csv", tmp_path) == (GOLDEN / "csv_path.csv").read_bytes()


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
