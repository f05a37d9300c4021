"""The benchmark's workloads. Each set-up writes its inputs and an ``xpop
bench`` config into a fresh directory, all derived from the seed.

- paper_1k: the criterion-10 config (1000 synth cases, 4 models) without
  label noise; model training dominates, encoding and PI+FC are small.
  With 5% noise the average AUC falls below 0.75 on about one seed in
  twelve, and ``xpop bench`` then rightly excludes every model from the
  XAI metrics, which the output checks count as failed cells.
- long_csv: a 600-case log with traces of 10-40 events and a wide schema,
  written to CSV and read back at k=32; prefix encoding dominates.
- bridge: a 300-case synth log scored by an exported logreg through the
  external subprocess bridge; process launches dominate.
"""

from __future__ import annotations

import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

from xpop import harness, synth
from xpop.eventlog import format_schema_config, serialize_csv
from xpop.models import export_model

SCORER = Path(__file__).resolve().parent / "scorer.py"


@dataclass(frozen=True)
class Workload:
    config: Path
    models: tuple[str, ...]
    equal_auc: tuple[tuple[str, str], ...] = ()


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def paper_1k(seed: int, workdir: Path) -> Workload:
    config = _write(workdir / "bench.cfg", f"""\
[data]
seed = {seed}
max_prefix = 4
synth_cases = 1000
synth_rule = control_presence(A)
synth_noise = 0.0
log_id = synthetic

[model lr]
kind = logreg

[model tree]
kind = tree

[model rf]
kind = forest
n_trees = 20

[model llm]
kind = llm
""")
    return Workload(config, ("lr", "tree", "rf", "llm"))


def long_csv(seed: int, workdir: Path) -> Workload:
    spec = synth.SynthSpec(
        n_cases=600, alphabet_size=26, min_trace_length=10, max_trace_length=40,
        n_static_categorical=3, n_static_numeric=2,
        n_dynamic_categorical=4, n_dynamic_numeric=4,
        rule=synth.CaseThreshold("s_num1", 0.5), seed=seed,
    )
    log = _write(workdir / "log.csv", serialize_csv(synth.generate_log(spec)))
    schema = _write(workdir / "schema.cfg", format_schema_config(synth.synth_schema(spec)))
    config = _write(workdir / "bench.cfg", f"""\
[data]
seed = {seed}
max_prefix = 32
log = {log}
schema = {schema}
log_id = long

[model tree]
kind = tree
""")
    return Workload(config, ("tree",))


def bridge(seed: int, workdir: Path) -> Workload:
    data = f"""\
[data]
seed = {seed}
max_prefix = 4
synth_cases = 300
synth_rule = case_threshold(s_num1, 0.5)
log_id = bridge
"""
    lr = "\n[model lr]\nkind = logreg\n"
    # Export the logreg that the in-process `lr` cell will train, so the
    # external scorer must reproduce its scores and AUC exactly.
    train_m, _ = harness.prepare_matrices(
        harness.load_config(_write(workdir / "lr.cfg", data + lr))
    )
    model = harness.train_logreg(train_m, {})
    exported = _write(workdir / "logreg.txt", export_model(model))
    weights = _write(workdir / "weights.csv", "".join(
        f"{name},{abs(float(c))!r}\n" for name, c in zip(model.columns, model.logreg.coef)
    ))
    command = " ".join(shlex.quote(str(p)) for p in (sys.executable, SCORER, exported))
    config = _write(workdir / "bench.cfg", data + f"""
[model ext]
kind = external
command = {command}
weights = {weights}
""" + lr)
    return Workload(config, ("ext", "lr"), equal_auc=(("ext", "lr"),))


WORKLOADS = {"paper_1k": paper_1k, "long_csv": long_csv, "bridge": bridge}
