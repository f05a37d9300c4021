from __future__ import annotations

import dataclasses
import shlex
import sys

import numpy as np
import pytest
from hypothesis import settings

from xpop.eventlog import AttributeSchema
from xpop.harness import BenchmarkConfig, ModelSpec, prepare_matrices
from xpop.models import export_model, train_logreg
from xpop.preprocess import ColumnMeta, EncodedMatrix
from xpop.synth import CaseThreshold, SynthSpec

# Property tests run without hypothesis's per-example deadline: on a shared
# host an example's wall time says nothing about its correctness.
settings.register_profile("xpop", deadline=None)
settings.load_profile("xpop")
# A deeper run of the tests marked oracle, which CI selects with
# `-m oracle --hypothesis-profile xpop-oracle`: the synth stream oracles,
# because the decoder in `synth` mirrors numpy's `integers` and `random`, so
# it is checked against whichever numpy is installed; the bridge copy-text
# oracle; the tree oracles that the packed node table rests on
# (presorted CART against the per-node argsort, apply against a row's
# descent, the table against its trees walked alone); and PI and FC of a
# tree or forest, which skip the columns it never splits on, against the
# same model scored on every copy.
settings.register_profile("xpop-oracle", settings.get_profile("xpop"), max_examples=500)


def oracle_examples(tier1: int) -> int:
    """An oracle's example count: ``tier1``, unless the loaded profile runs
    more examples than "xpop" (as xpop-oracle does), whose count it takes."""
    loaded = settings.default.max_examples
    return loaded if loaded > settings.get_profile("xpop").max_examples else tier1


def make_matrix(X, labels, types=None, names=None) -> EncodedMatrix:
    """Build an EncodedMatrix straight from arrays, for unit tests."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    p = X.shape[1]
    if types is None:
        types = ["event"] * p
    if names is None:
        names = [f"x{i}" for i in range(p)]
    columns = tuple(
        ColumnMeta(name, attr_type, name, "passthrough")
        for name, attr_type in zip(names, types)
    )
    return EncodedMatrix(columns, X, labels)


# An exported logistic regression (``export_model`` text, argv[1]) scored out
# of process over the bridge. With argv[2], each launch appends one line there.
BRIDGE_SCRIPT = """\
import csv
import io
import math
import sys

if len(sys.argv) > 2:
    with open(sys.argv[2], "a", encoding="utf-8") as fh:
        fh.write("launch\\n")
params = {}
intercept = 0.0
with open(sys.argv[1], encoding="utf-8") as fh:
    for line in fh.read().splitlines()[1:]:
        parts = line.split("\\t")
        if parts[0] == "intercept":
            intercept = float(parts[1])
        else:
            params[parts[0]] = (float(parts[1]), float(parts[2]), float(parts[3]))

rows = csv.reader(io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8", newline=""))
names = [h.rsplit(":", 1)[0] for h in next(rows)]  # a cell's type follows its last ':'
for row in rows:
    z = intercept
    for name, cell in zip(names, row):
        mean, std, coef = params[name]
        z += (float(cell) - mean) / std * coef
    print(1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z)))
"""


class StubPredictor:
    """Deterministic predictor over raw rows, used as a metric test double."""

    def __init__(self, fn, columns):
        self._fn = fn
        self.columns = tuple(columns)

    def predict(self, m):
        return np.asarray([self._fn(row) for row in m.rows], dtype=np.float64)


@pytest.fixture
def basic_schema() -> AttributeSchema:
    return AttributeSchema(
        {
            "case": "case_id",
            "act": "activity",
            "time": "timestamp",
            "outcome": "label",
            "channel": "static_categorical",
            "amount": "static_numeric",
            "resource": "dynamic_categorical",
            "cost": "dynamic_numeric",
        }
    )


def bridge_config(tmp_path, launch_log=None) -> BenchmarkConfig:
    """A small bench config with an exported logreg scored over the bridge
    (``ext``, with a weights file) next to the same logreg in process (``lr``)."""
    cfg = BenchmarkConfig(
        seed=5, max_prefix=4, models=(ModelSpec("lr", "logreg"),),
        synth=SynthSpec(n_cases=200, rule=CaseThreshold("s_num1", 0.5), seed=5),
        log_id="bridge",
    )
    train_m, _ = prepare_matrices(cfg)
    model = train_logreg(train_m)
    exported = tmp_path / "logreg.txt"
    exported.write_text(export_model(model), encoding="utf-8")
    script = tmp_path / "scorer.py"
    script.write_text(BRIDGE_SCRIPT, encoding="utf-8")
    weights = tmp_path / "weights.csv"
    weights.write_text("".join(
        f"{name},{abs(float(c))!r}\n" for name, c in zip(model.columns, model.logreg.coef)
    ), encoding="utf-8")
    argv = [sys.executable, str(script), str(exported)]
    if launch_log is not None:
        argv.append(str(launch_log))
    ext = ModelSpec("ext", "external", command=shlex.join(argv), weights_path=str(weights))
    return dataclasses.replace(cfg, models=(ext, *cfg.models))
