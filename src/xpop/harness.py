"""End-to-end benchmark orchestration and report rendering.

A benchmark run splits a log temporally, encodes train and test prefixes,
trains every configured model, and computes AUC plus the explainability
metrics per model. Logs whose mean AUC over the models falls below 0.50
are excluded entirely from the XAI metrics; below 0.75 only AUC is kept.
Seeds are derived hierarchically (master -> model -> metric), so adding a
model does not perturb the randomness of other cells.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from xpop.eventlog import EventLog, label_eventually_followed_by, parse_csv, parse_schema_config
from xpop.explain import coefficient_weights, impurity_weights, load_external_weights, permutation_importance
from xpop.metrics import MetricsReport, TypedMetric, functional_complexity, irc, lod_at_k, parsimony
from xpop.models import (
    TrainedModel,
    auc,
    external_model,
    train_forest,
    train_llm,
    train_logreg,
    train_tree,
)
from xpop.preprocess import (
    CASE,
    CONTROL,
    EVENT,
    EncodedMatrix,
    aggregate_encode,
    extract_prefixes,
    fit_vocabulary,
    temporal_split,
)
from xpop.seeds import derive_seed
from xpop.synth import (
    CaseThreshold,
    ControlFollows,
    ControlPresence,
    EventMeanThreshold,
    Rule,
    SynthSpec,
    generate_log,
)

AUC_FLOOR = 0.50
XAI_FLOOR = 0.75

REPORT_HEADER = (
    "log,model,auc,C_control,C_case,C_event,"
    "FC_control,FC_case,FC_event,IRC,LOD@10,excluded_reason"
)

MODEL_KINDS = ("logreg", "tree", "forest", "llm", "external")


@dataclass(frozen=True)
class ModelSpec:
    name: str
    kind: str
    hyper: dict = field(default_factory=dict)
    command: Optional[str] = None
    weights_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "external" and not self.command:
            raise ValueError("external model needs a command")


@dataclass(frozen=True)
class BenchmarkConfig:
    seed: int
    max_prefix: int
    models: tuple[ModelSpec, ...]
    log_path: Optional[str] = None
    schema_path: Optional[str] = None
    synth: Optional[SynthSpec] = None
    label_rule: Optional[tuple[str, str]] = None
    train_ratio: float = 0.8
    pi_repeats: int = 1
    out_dir: Optional[str] = None
    log_id: str = "log"

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("at least one model is required")
        if self.synth is None and (self.log_path is None or self.schema_path is None):
            raise ValueError("either a synth spec or log + schema paths are required")


def parse_rule(text: str) -> Rule:
    m = re.fullmatch(r"(\w+)\(([^)]*)\)", text.strip())
    if not m:
        raise ValueError(f"cannot parse rule {text!r}")
    name, raw_args = m.groups()
    args = [a.strip() for a in raw_args.split(",")] if raw_args.strip() else []
    if name == "control_presence" and len(args) == 1:
        return ControlPresence(args[0])
    if name == "control_follows" and len(args) == 2:
        return ControlFollows(args[0], args[1])
    if name == "case_threshold" and len(args) == 2:
        return CaseThreshold(args[0], float(args[1]))
    if name == "event_mean_threshold" and len(args) == 2:
        return EventMeanThreshold(args[0], float(args[1]))
    raise ValueError(f"cannot parse rule {text!r}")


def _synth_from_section(section, seed: int) -> SynthSpec:
    return SynthSpec(
        n_cases=section.getint("synth_cases", 100),
        alphabet_size=section.getint("synth_alphabet", 5),
        min_trace_length=section.getint("synth_min_length", 2),
        max_trace_length=section.getint("synth_max_length", 6),
        n_static_categorical=section.getint("synth_static_categorical", 1),
        n_static_numeric=section.getint("synth_static_numeric", 1),
        n_dynamic_categorical=section.getint("synth_dynamic_categorical", 1),
        n_dynamic_numeric=section.getint("synth_dynamic_numeric", 1),
        rule=parse_rule(section.get("synth_rule", "control_presence(A)")),
        label_noise=section.getfloat("synth_noise", 0.0),
        seed=section.getint("synth_seed", seed),
    )


_HYPER_KEYS = {
    "l2", "max_iter", "tol", "max_depth", "min_samples_leaf",
    "n_trees", "max_features_fraction",
}


def load_config(path: str | Path) -> BenchmarkConfig:
    """Read a plain-text ``key = value`` config with one section per model."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    if "data" not in parser:
        raise ValueError("config needs a [data] section")
    data = parser["data"]
    if "seed" not in data:
        raise ValueError("config needs an explicit seed (no wall-clock seeding)")
    seed = data.getint("seed")

    synth = None
    if "synth_rule" in data or "synth_cases" in data:
        synth = _synth_from_section(data, seed)
    label_rule = None
    if "label_a" in data or "label_b" in data:
        label_rule = (data.get("label_a"), data.get("label_b"))

    models = []
    for section_name in parser.sections():
        if not section_name.startswith("model"):
            continue
        section = parser[section_name]
        name = section_name.split(None, 1)[1] if " " in section_name else section_name
        hyper = {
            k: float(section.get(k)) for k in _HYPER_KEYS if k in section
        }
        models.append(
            ModelSpec(
                name=name,
                kind=section.get("kind", "logreg"),
                hyper=hyper,
                command=section.get("command", fallback=None),
                weights_path=section.get("weights", fallback=None),
            )
        )

    return BenchmarkConfig(
        seed=seed,
        max_prefix=data.getint("max_prefix", 5),
        models=tuple(models),
        log_path=data.get("log", fallback=None),
        schema_path=data.get("schema", fallback=None),
        synth=synth,
        label_rule=label_rule,
        train_ratio=data.getfloat("train_ratio", 0.8),
        pi_repeats=data.getint("pi_repeats", 1),
        out_dir=data.get("out", fallback=None),
        log_id=data.get("log_id", "log"),
    )


def load_log(cfg: BenchmarkConfig) -> EventLog:
    if cfg.synth is not None:
        return generate_log(cfg.synth)
    schema = parse_schema_config(Path(cfg.schema_path).read_text(encoding="utf-8"))
    with open(cfg.log_path, "rb") as fh:
        log = parse_csv(fh, schema)
    if cfg.label_rule is not None:
        log = label_eventually_followed_by(log, *cfg.label_rule)
    return log


def prepare_matrices(cfg: BenchmarkConfig) -> tuple[EncodedMatrix, EncodedMatrix]:
    log = load_log(cfg)
    train_log, test_log = temporal_split(log, cfg.train_ratio)
    vocab = fit_vocabulary(train_log)
    schema = log.schema
    train_m = aggregate_encode(extract_prefixes(train_log, cfg.max_prefix), schema, vocab)
    test_m = aggregate_encode(extract_prefixes(test_log, cfg.max_prefix), schema, vocab)
    return train_m, test_m


def train_model(spec: ModelSpec, train_m: EncodedMatrix, seed: int) -> TrainedModel:
    if spec.kind == "logreg":
        return train_logreg(train_m, spec.hyper)
    if spec.kind == "tree":
        return train_tree(train_m, spec.hyper)
    if spec.kind == "forest":
        return train_forest(train_m, spec.hyper, seed=seed)
    if spec.kind == "llm":
        return train_llm(train_m, spec.hyper)
    if spec.kind == "external":
        return external_model(spec.command, train_m.column_names)
    raise ValueError(f"unknown model kind {spec.kind!r}")


def model_weights(spec: ModelSpec, model: TrainedModel):
    if spec.kind in ("logreg", "llm"):
        return coefficient_weights(model)
    if spec.kind in ("tree", "forest"):
        return impurity_weights(model)
    if spec.weights_path:
        return load_external_weights(spec.weights_path, model.columns)
    raise ValueError(f"model {spec.name!r} has no weight source (set 'weights')")


def _fc_metric(
    model: TrainedModel, test_m: EncodedMatrix, seed: int, scores: np.ndarray
) -> TypedMetric:
    values = {}
    for attr_type in (CONTROL, CASE, EVENT):
        if test_m.columns_of_type(attr_type):
            values[attr_type] = functional_complexity(
                model, test_m, attr_type, seed, base_scores=scores
            )
        else:
            values[attr_type] = math.nan
    present = [v for v in values.values() if not math.isnan(v)]
    total = float(np.mean(present)) if present else math.nan
    return TypedMetric(values[CONTROL], values[CASE], values[EVENT], total)


def run_benchmark(cfg: BenchmarkConfig) -> list[MetricsReport]:
    train_m, test_m = prepare_matrices(cfg)

    # Each model scores the test matrix once; AUC, PI and FC share the scores.
    cells: list[tuple[ModelSpec, Optional[TrainedModel], Optional[np.ndarray],
                      Optional[float], str]] = []
    for idx, spec in enumerate(cfg.models):
        model_seed = derive_seed(cfg.seed, idx)
        try:
            model = train_model(spec, train_m, model_seed)
            scores = model.predict(test_m)
            cells.append((spec, model, scores, auc(test_m.labels, scores), ""))
        except Exception as exc:  # per-cell fault isolation
            cells.append((spec, None, None, None, f"error: {exc}"))

    aucs = [a for _, _, _, a, _ in cells if a is not None]
    mean_auc = float(np.mean(aucs)) if aucs else math.nan

    reports = []
    for idx, (spec, model, scores, model_auc, error) in enumerate(cells):
        model_seed = derive_seed(cfg.seed, idx)
        base = MetricsReport(
            log_id=cfg.log_id, model_id=spec.name, auc=model_auc, seed=model_seed
        )
        if error:
            reports.append(
                MetricsReport(cfg.log_id, spec.name, None, excluded_reason=error,
                              seed=model_seed)
            )
            continue
        if math.isnan(mean_auc) or mean_auc < AUC_FLOOR:
            reports.append(
                MetricsReport(cfg.log_id, spec.name, model_auc,
                              excluded_reason="avg AUC below 50", seed=model_seed)
            )
            continue
        if mean_auc < XAI_FLOOR:
            reports.append(
                MetricsReport(cfg.log_id, spec.name, model_auc,
                              excluded_reason="avg AUC below 75", seed=model_seed)
            )
            continue
        try:
            w_pi = permutation_importance(
                model, test_m, test_m.labels, seed=derive_seed(model_seed, 1),
                repeats=cfg.pi_repeats, base_scores=scores,
            )
            w_e = model_weights(spec, model)
            pars = parsimony(w_e, test_m.columns)
            fc = _fc_metric(model, test_m, derive_seed(model_seed, 2), scores)
            try:
                rank_corr = irc(w_pi, w_e)
            except ValueError:
                rank_corr = None  # degenerate ranking: reported as undefined
            lod = lod_at_k(w_pi, w_e, test_m.columns, k=10)
            reports.append(
                MetricsReport(cfg.log_id, spec.name, model_auc, parsimony=pars,
                              fc=fc, irc=rank_corr, lod_at_10=lod, seed=model_seed)
            )
        except Exception as exc:
            reports.append(
                MetricsReport(cfg.log_id, spec.name, model_auc,
                              excluded_reason=f"error: {exc}", seed=model_seed)
            )
    return reports


def _fmt(value, spec: str = ".6f") -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return format(value, spec)


def _report_row(r: MetricsReport) -> list[str]:
    pars = r.parsimony
    fc = r.fc
    return [
        r.log_id,
        r.model_id,
        _fmt(r.auc),
        _fmt(int(pars.control), "d") if pars else "",
        _fmt(int(pars.case), "d") if pars else "",
        _fmt(int(pars.event), "d") if pars else "",
        _fmt(fc.control) if fc else "",
        _fmt(fc.case) if fc else "",
        _fmt(fc.event) if fc else "",
        _fmt(r.irc),
        _fmt(r.lod_at_10),
        r.excluded_reason,
    ]


def format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned text table with a dashed rule under the header."""
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_report(reports: Sequence[MetricsReport], fmt: str = "table") -> str:
    """Render reports as RFC 4180 CSV (LF line ends) or an aligned text table."""
    header = REPORT_HEADER.split(",")
    rows = [_report_row(r) for r in reports]
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return out.getvalue()
    if fmt == "table":
        return format_table(header, rows)
    raise ValueError(f"unknown report format {fmt!r}")
