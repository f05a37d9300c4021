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
import math
import numbers
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from xpop.eventlog import (
    EventLog,
    csv_column,
    csv_lines,
    decoded_text,
    label_eventually_followed_by,
    parse_csv,
    parse_schema_config,
)
from xpop.explain import (
    coefficient_weights,
    impurity_weights,
    load_external_weights,
    permutation_importance,
    pi_copies,
)
from xpop.metrics import MetricsReport, fc_copies, functional_complexity, irc, lod_at_k, parsimony
from xpop.models import (
    HYPER,
    Launch,
    TrainedModel,
    auc,
    external_model,
    score_copies,
    train_forest,
    train_llm,
    train_logreg,
    train_tree,
    with_defaults,
)
from xpop.preprocess import (
    TYPES,
    EncodedMatrix,
    aggregate_encode,
    extract_prefixes,
    fit_vocabulary,
    temporal_split,
)
from xpop.seeds import derive_seed
from xpop.synth import SynthSpec, generate_log, parse_rule

AUC_FLOOR = 0.50
XAI_FLOOR = 0.75


def _external_weights(spec: ModelSpec, model: TrainedModel):
    if not spec.weights_path:
        raise ValueError(f"model {spec.name!r} has no weight source (set 'weights')")
    return load_external_weights(spec.weights_path, model.columns)


# kind -> (train(spec, train matrix, seed), weights(spec, model)). The entries
# look the trainers and weight sources up by name when called, so a name
# rebound in this module (a tracer's wrapper) is the one that runs.
MODELS = {
    "logreg": (
        lambda spec, m, seed: train_logreg(m, spec.hyper),
        lambda spec, model: coefficient_weights(model),
    ),
    "tree": (
        lambda spec, m, seed: train_tree(m, spec.hyper),
        lambda spec, model: impurity_weights(model),
    ),
    "forest": (
        lambda spec, m, seed: train_forest(m, spec.hyper, seed=seed),
        lambda spec, model: impurity_weights(model),
    ),
    "llm": (
        lambda spec, m, seed: train_llm(m, spec.hyper),
        lambda spec, model: coefficient_weights(model),
    ),
    "external": (
        lambda spec, m, seed: external_model(spec.command, m.column_names),
        _external_weights,
    ),
}


def _integer(value) -> bool:
    """An integer of any type, numpy's included, but not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


_COUNT = ("a whole number >= 0", int, lambda v: _integer(v) and v >= 0)
_POSITIVE = ("a whole number >= 1", int, lambda v: _integer(v) and v >= 1)
# [data] key -> (rule, parse, check, the SynthSpec field a synth_* key sets),
# checked when a config is read; a key without a SynthSpec field is a
# BenchmarkConfig field, checked again when the config is built. A synth_* key
# left out keeps the field's default (synth_seed: the [data] seed).
_DATA_RULES = {
    "seed": ("an integer", int, _integer, None),
    "max_prefix": (*_POSITIVE, None),
    "train_ratio": ("in (0, 1)", float, lambda v: 0 < v < 1, None),
    "pi_repeats": (*_POSITIVE, None),
    "synth_cases": (*_POSITIVE, "n_cases"),
    "synth_alphabet": ("a whole number in 1..26", int, lambda v: 1 <= v <= 26, "alphabet_size"),
    "synth_min_length": (*_POSITIVE, "min_trace_length"),
    "synth_max_length": (*_POSITIVE, "max_trace_length"),
    "synth_static_categorical": (*_COUNT, "n_static_categorical"),
    "synth_static_numeric": (*_COUNT, "n_static_numeric"),
    "synth_dynamic_categorical": (*_COUNT, "n_dynamic_categorical"),
    "synth_dynamic_numeric": (*_COUNT, "n_dynamic_numeric"),
    "synth_rule": ("a rule such as control_presence(A), control_follows(A, B), "
                   "case_threshold(s_num1, 0.5) or event_mean_threshold(d_num1, 0.5)",
                   parse_rule, lambda v: True, "rule"),
    "synth_noise": ("in [0, 0.5)", float, lambda v: 0 <= v < 0.5, "label_noise"),
    "synth_seed": ("an integer", int, lambda v: True, "seed"),
}


# the [data] keys of a CSV log; none of them goes with a synth_* key
_CSV_KEYS = ("log", "schema", "label_a", "label_b")
# the keys a [data] and a [model ...] section may hold; any other is an error
_DATA_KEYS = {*_CSV_KEYS, "out", "log_id", *_DATA_RULES}
_MODEL_KEYS = {"kind", "command", "weights", *HYPER}


@dataclass(frozen=True)
class ModelSpec:
    name: str
    kind: str
    hyper: dict = field(default_factory=dict)
    command: Optional[str] = None
    weights_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in MODELS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "external" and not self.command:
            raise ValueError("external model needs a command")
        try:
            with_defaults(self.hyper)
        except ValueError as exc:
            raise ValueError(f"model {self.name!r}: {exc}") from None


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
        for key, (rule, _, check, synth_field) in _DATA_RULES.items():
            if synth_field is None and not check(getattr(self, key)):
                raise ValueError(f"{key} must be {rule}, got {getattr(self, key)}")
        if not self.models:
            raise ValueError("at least one model is required")
        names = [spec.name for spec in self.models]
        repeated = next((name for name in names if names.count(name) > 1), None)
        if repeated is not None:
            raise ValueError(f"two models are named {repeated!r}")
        csv_field = next((f for f in ("log_path", "schema_path", "label_rule")
                          if getattr(self, f) is not None), None)
        if self.synth is not None and csv_field is not None:
            raise ValueError(f"synth cannot be combined with {csv_field}")
        if self.synth is None and (self.log_path is None or self.schema_path is None):
            raise ValueError("either a synth spec or log + schema paths are required")


def _config_error(exc: configparser.Error) -> str:
    """A config parser error as one line, ``line <n>: <reason>`` where the
    parser knows the line."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: expected a [section] header"
    if isinstance(exc, configparser.ParsingError):
        return f"line {exc.errors[0][0]}: expected 'key = value' or a [section] header"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: duplicate key {exc.option!r} in [{exc.section}]"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: duplicate section [{exc.section}]"
    return " ".join(str(exc).split())


def load_config(path: str | Path) -> BenchmarkConfig:
    """Read a plain-text ``key = value`` config with one section per model.
    Values are read verbatim (no ``%`` interpolation). A parser error
    becomes a one-line ValueError."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(decoded_text(Path(path).read_bytes()).splitlines())
        return _read_config(parser)
    except configparser.Error as exc:
        raise ValueError(_config_error(exc)) from None


def _number(model: str, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"model {model!r}: {key} must be a number, got {text!r}") from None


def _data_value(data: configparser.SectionProxy, key: str, default=None):
    rule, parse, check, _ = _DATA_RULES[key]
    if key not in data:
        return default
    text = data[key]
    try:
        value = parse(text)
    except ValueError:
        value = None
    if value is None or not check(value):
        raise ValueError(f"[data] {key} must be {rule}, got {text}")
    return value


def _model_name(section_name: str) -> Optional[str]:
    """The name a ``[model <name>]`` section gives its model (a bare
    ``[model]``: ``model``); None for a section whose first word is not ``model``."""
    words = section_name.split(None, 1)
    return words[-1] if words and words[0] == "model" else None


def _read_config(parser: configparser.ConfigParser) -> BenchmarkConfig:
    if "data" not in parser:
        raise ValueError("config needs a [data] section")
    if parser.defaults():
        raise ValueError("unknown section [DEFAULT]")
    for section_name in parser.sections():
        if section_name == "data":
            known = _DATA_KEYS
        elif _model_name(section_name) is not None:
            known = _MODEL_KEYS
        else:
            raise ValueError(f"unknown section [{section_name}]")
        unknown = next((k for k in parser[section_name] if k not in known), None)
        if unknown is not None:
            raise ValueError(f"[{section_name}] unknown key {unknown!r}")
    data = parser["data"]
    if "seed" not in data:
        raise ValueError("config needs an explicit seed (no wall-clock seeding)")
    seed = _data_value(data, "seed")
    synth_key = next((k for k in data if k.startswith("synth_")), None)
    csv_key = next((k for k in data if k in _CSV_KEYS), None)
    if synth_key is not None and csv_key is not None:
        raise ValueError(f"[data] {synth_key} cannot be combined with {csv_key}")

    synth = None
    if "synth_rule" in data or "synth_cases" in data:
        fields = {_DATA_RULES[k][3]: _data_value(data, k)
                  for k in data if k.startswith("synth_")}
        shortest = fields.get("min_trace_length", SynthSpec.min_trace_length)
        longest = fields.get("max_trace_length", SynthSpec.max_trace_length)
        if shortest > longest:
            raise ValueError(f"[data] synth_min_length ({shortest}) must be <= "
                             f"synth_max_length ({longest})")
        synth = SynthSpec(**{"seed": seed, **fields})
    label_rule = None
    if "label_a" in data or "label_b" in data:
        if "label_a" not in data or "label_b" not in data:
            raise ValueError("[data] label_a and label_b must both be set")
        label_rule = (data["label_a"], data["label_b"])

    models = []
    for section_name in parser.sections():
        name = _model_name(section_name)
        if name is None:
            continue
        section = parser[section_name]
        hyper = {k: _number(name, k, section[k]) for k in HYPER if k in section}
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
        max_prefix=_data_value(data, "max_prefix", 5),
        models=tuple(models),
        log_path=data.get("log", fallback=None),
        schema_path=data.get("schema", fallback=None),
        synth=synth,
        label_rule=label_rule,
        train_ratio=_data_value(data, "train_ratio", 0.8),
        pi_repeats=_data_value(data, "pi_repeats", 1),
        out_dir=data.get("out", fallback=None),
        log_id=data.get("log_id", "log"),
    )


@contextmanager
def reading(path):
    """Name ``path`` on a ValueError (a decode or parse error) raised in the
    block and not yet naming a file, as ``filename`` like an OSError's;
    ``cli.main`` reports an error that names a file as one line."""
    try:
        yield
    except ValueError as exc:
        if getattr(exc, "filename", None) is None:
            exc.filename = str(path)
        raise


def read_log(log_path, schema_path) -> EventLog:
    """The CSV log at ``log_path``, described by the schema config at ``schema_path``."""
    with reading(schema_path):
        schema = parse_schema_config(decoded_text(Path(schema_path).read_bytes()))
    with reading(log_path), open(log_path, "rb") as fh:
        return parse_csv(fh, schema)


def load_log(cfg: BenchmarkConfig) -> EventLog:
    if cfg.synth is not None:
        return generate_log(cfg.synth)
    log = read_log(cfg.log_path, cfg.schema_path)
    if cfg.label_rule is not None:
        log = label_eventually_followed_by(log, *cfg.label_rule)
    return log


def prepare_matrices(cfg: BenchmarkConfig) -> tuple[EncodedMatrix, EncodedMatrix]:
    log = load_log(cfg)
    train_log, test_log = temporal_split(log, cfg.train_ratio)
    vocab = fit_vocabulary(train_log)
    train_m = aggregate_encode(extract_prefixes(train_log, cfg.max_prefix), vocab)
    test_m = aggregate_encode(extract_prefixes(test_log, cfg.max_prefix), vocab)
    return train_m, test_m


def train_model(spec: ModelSpec, train_m: EncodedMatrix, seed: int) -> TrainedModel:
    return MODELS[spec.kind][0](spec, train_m, seed)


def _xai_seeds(model_seed: int) -> tuple[int, int]:
    """A cell's PI seed and FC seed."""
    return derive_seed(model_seed, 1), derive_seed(model_seed, 2)


def _copies(cfg: BenchmarkConfig, model: TrainedModel, test_m: EncodedMatrix, model_seed: int):
    """A cell's PI copies, then its FC copies, in one stream: one launch for an external model."""
    pi_seed, fc_seed = _xai_seeds(model_seed)
    return chain(pi_copies(model, test_m, pi_seed, cfg.pi_repeats),
                 fc_copies(model, test_m, fc_seed))


def score_models(cfg: BenchmarkConfig, train_m: EncodedMatrix, test_m: EncodedMatrix,
                 launches: Optional[dict[str, Launch | Exception]] = None) -> Iterator[tuple]:
    """Each model's cell in config order, ``(spec, seed, model, test scores,
    test AUC, error)``: the model is trained with its seed and scores ``test_m``
    once. A failed step leaves ``error: <reason>`` and None in the middle three.

    With ``launches``, an external cell may first start its copies launch
    (its PI copies, then its FC copies) and file it there under its model's
    name, then run its test launch. It does so only when no copies launch
    it started before still runs, so a test launch never waits for one;
    a cell that fails stops its copies launch. A copies launch that fails
    to start is filed as its exception, and the cell keeps its AUC."""
    previous = None  # the last copies launch started here
    for idx, spec in enumerate(cfg.models):
        seed = derive_seed(cfg.seed, idx)
        launch = None
        try:
            model = train_model(spec, train_m, seed)
            if (launches is not None and model.kind == "external"
                    and not (previous is not None and previous.running())):
                try:
                    launch = Launch(model.command, test_m, _copies(cfg, model, test_m, seed))
                except Exception as exc:  # an XAI fault, reported when the copies are read
                    launches[spec.name] = exc
                else:
                    launches[spec.name] = previous = launch
            scores = model.predict(test_m)
            cell = (spec, seed, model, scores, auc(test_m.labels, scores), "")
        except Exception as exc:  # per-cell fault isolation
            if launch is not None:
                launch.stop()
            cell = (spec, seed, None, None, None, f"error: {exc}")
        yield cell


def run_benchmark(cfg: BenchmarkConfig) -> list[MetricsReport]:
    """Each model's ``MetricsReport``, in config order.

    An external model is scored in two launches of its command, at most
    two running at once. Its copies launch starts just before its test
    launch (``score_models``), unless an earlier cell's copies launch still
    runs: then it starts only once the cell computes its XAI metrics. An
    early copies launch runs on while the test scores are read and later
    cells are scored. Its scores are read only if the log's mean AUC lets
    the cell compute its XAI metrics; otherwise, or when the cell fails, it
    is stopped unread. No launch outlives the call."""
    train_m, test_m = prepare_matrices(cfg)
    launches: dict[str, Launch | Exception] = {}  # model name -> its early copies launch
    try:
        # Each model scores the test matrix once; AUC, PI and FC share the scores.
        cells = list(score_models(cfg, train_m, test_m, launches))
        aucs = [a for _, _, _, _, a, _ in cells if a is not None]
        mean_auc = float(np.mean(aucs)) if aucs else math.nan

        if math.isnan(mean_auc) or mean_auc < AUC_FLOOR:
            low_auc = "avg AUC below 50"
        elif mean_auc < XAI_FLOOR:
            low_auc = "avg AUC below 75"
        else:
            low_auc = ""

        reports = []
        for spec, model_seed, model, scores, model_auc, error in cells:
            reason = error or low_auc
            if not reason:
                pi_seed, fc_seed = _xai_seeds(model_seed)
                try:
                    launch = launches.get(spec.name)
                    if launch is None:
                        copies = _copies(cfg, model, test_m, model_seed)
                        stream = score_copies(model, test_m, copies)
                    elif isinstance(launch, Launch):
                        stream = iter(launch.copy_scores())
                    else:
                        raise launch
                    w_pi = permutation_importance(
                        model, test_m, seed=pi_seed,
                        repeats=cfg.pi_repeats, base_scores=scores, scores=stream,
                    )
                    w_e = MODELS[spec.kind][1](spec, model)
                    pars = parsimony(w_e, test_m.columns)
                    fc = functional_complexity(
                        model, test_m, fc_seed, base_scores=scores, scores=stream
                    )
                    try:
                        rank_corr = irc(w_pi, w_e)
                    except ValueError:
                        rank_corr = None  # degenerate ranking: reported as undefined
                    lod = lod_at_k(w_pi, w_e, test_m.columns, k=10)
                    reports.append(
                        MetricsReport(cfg.log_id, spec.name, model_auc, parsimony=pars,
                                      fc=fc, irc=rank_corr, lod_at_10=lod)
                    )
                    continue
                except Exception as exc:
                    reason = f"error: {exc}"
            reports.append(
                MetricsReport(cfg.log_id, spec.name, model_auc, excluded_reason=reason)
            )
        return reports
    finally:
        for launch in launches.values():
            if isinstance(launch, Launch):
                launch.stop()


def _fmt(value, spec: str = ".6f") -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    return format(value, spec)


# report column -> its cell of a MetricsReport, in the report's order
_COLUMNS = {
    "log": lambda r: r.log_id,
    "model": lambda r: r.model_id,
    "auc": lambda r: _fmt(r.auc),
    **{f"C_{t}": lambda r, t=t: _fmt(r.parsimony and int(getattr(r.parsimony, t)), "d")
       for t in TYPES},
    **{f"FC_{t}": lambda r, t=t: _fmt(r.fc and getattr(r.fc, t)) for t in TYPES},
    "IRC": lambda r: _fmt(r.irc),
    "LOD@10": lambda r: _fmt(r.lod_at_10),
    "excluded_reason": lambda r: r.excluded_reason,
}
REPORT_HEADER = ",".join(_COLUMNS)


def format_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned text table with a dashed rule under the header; a line
    break inside a cell is shown as the two characters ``\\n``."""
    header, *rows = [[re.sub(r"\r\n|\r|\n", r"\\n", c) for c in row] for row in (header, *rows)]
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
    header = list(_COLUMNS)
    rows = [[cell(r) for cell in _COLUMNS.values()] for r in reports]
    if fmt == "csv":
        return csv_lines([csv_column(list(column)) for column in zip(header, *rows)], len(rows) + 1)
    if fmt == "table":
        return format_table(header, rows)
    raise ValueError(f"unknown report format {fmt!r}")
