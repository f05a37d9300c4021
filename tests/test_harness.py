from __future__ import annotations

import csv
import dataclasses
import io
import re
import shlex
import string
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_matrix
from xpop import harness, models
from xpop.eventlog import csv_records, format_schema_config, serialize_csv
from xpop.explain import WeightVector
from xpop.harness import (
    MODELS,
    REPORT_HEADER,
    BenchmarkConfig,
    ModelSpec,
    load_config,
    parse_rule,
    prepare_matrices,
    read_log,
    render_report,
    run_benchmark,
    train_model,
)
from xpop.metrics import MetricsReport, TypedMetric
from xpop.models import auc, export_model
from xpop.synth import (
    RULES,
    CaseThreshold,
    ControlFollows,
    ControlPresence,
    EventMeanThreshold,
    SynthSpec,
    generate_log,
)


def _cfg(models, synth=None, **kw):
    synth = synth or SynthSpec(n_cases=120, label_noise=0.05, seed=3)
    return BenchmarkConfig(seed=kw.pop("seed", 7), max_prefix=kw.pop("max_prefix", 4),
                           models=tuple(models), synth=synth, **kw)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_every_model_kind_end_to_end(tmp_path, kind):
    rng = np.random.default_rng(11)
    X = rng.random((60, 3))
    labels = ((X[:, 0] + 0.3 * rng.random(60)) > 0.65).astype(np.int64)
    m = make_matrix(X, labels)
    scorer = tmp_path / "scorer.py"
    scorer.write_text(
        "import sys\nfor line in sys.stdin.read().splitlines()[1:]:\n"
        "    print(min(1.0, max(0.0, float(line.split(',')[0]))))\n",
        encoding="utf-8",
    )
    weights = tmp_path / "weights.csv"
    weights.write_text("x0,2.0\nx1,-0.5\nx2,0\n", encoding="utf-8")
    spec = ModelSpec("m", kind, hyper={"n_trees": 3.0}, weights_path=str(weights),
                     command=shlex.join([sys.executable, str(scorer)]))

    model = train_model(spec, m, seed=5)
    scores = model.predict(m)
    w = MODELS[kind][1](spec, model)
    text = export_model(model)

    assert model.kind == kind and model.columns == m.column_names
    assert scores.shape == (60,) and np.all((scores >= 0.0) & (scores <= 1.0))
    if kind == "external":
        assert np.array_equal(scores, np.clip(X[:, 0], 0.0, 1.0))
        assert w.weights.tolist() == [2.0, 0.5, 0.0]
    else:
        assert 0.5 < auc(m.labels, model.predict(m)) <= 1.0
    assert isinstance(w, WeightVector) and w.columns == m.column_names
    assert np.all(w.weights >= 0.0) and w.weights.sum() > 0.0
    assert text.startswith(f"kind\t{kind}\n")


def test_model_table_looks_functions_up_when_called(monkeypatch):
    # A tracer rebinds these names in the harness module; every cell must
    # reach the rebound function, not one captured when the table was built.
    expected = {
        "logreg": ("train_logreg", "coefficient_weights"),
        "tree": ("train_tree", "impurity_weights"),
        "forest": ("train_forest", "impurity_weights"),
        "llm": ("train_llm", "coefficient_weights"),
        "external": ("external_model", "load_external_weights"),
    }
    for names in expected.values():
        for name in names:
            monkeypatch.setattr(harness, name, lambda *a, name=name, **k: name)
    m = make_matrix(np.zeros((2, 1)), [0, 1])
    for kind, (train_name, weights_name) in expected.items():
        spec = ModelSpec("m", kind, command="scorer", weights_path="w.csv")
        assert train_model(spec, m, 0) == train_name
        assert MODELS[kind][1](spec, SimpleNamespace(columns=m.column_names)) == weights_name


# --- config parsing -----------------------------------------------------------------


def test_parse_rule_variants():
    assert parse_rule("control_presence(A)") == ControlPresence("A")
    assert parse_rule("control_follows(A, B)") == ControlFollows("A", "B")
    assert parse_rule("case_threshold(s_num1, 0.5)") == CaseThreshold("s_num1", 0.5)
    assert parse_rule("event_mean_threshold(d_num1, 0.25)") == EventMeanThreshold(
        "d_num1", 0.25
    )
    for bad in ("", "presence", "control_presence(A, B)", "unknown(x)"):
        with pytest.raises(ValueError, match="cannot parse rule"):
            parse_rule(bad)


_NAMES = st.from_regex(r"[a-z_][a-z0-9_]*", fullmatch=True)
# rule field -> the values a config may write for it
_RULE_ARGS = {
    "activity": st.sampled_from(string.ascii_uppercase),
    "first": st.sampled_from(string.ascii_uppercase),
    "second": st.sampled_from(string.ascii_uppercase),
    "attribute": _NAMES,
    "threshold": st.floats(allow_nan=False, allow_infinity=False),
}


@given(st.data())
def test_parse_rule_reads_every_form_back(data):
    name = data.draw(st.sampled_from(sorted(RULES)))
    form = RULES[name]
    args = [data.draw(_RULE_ARGS[f.name]) for f in dataclasses.fields(form)]
    texts = [arg if isinstance(arg, str) else repr(arg) for arg in args]
    assert parse_rule(f"{name}({', '.join(texts)})") == form(*args)
    unknown = data.draw(_NAMES.filter(lambda n: n not in RULES))
    for bad in (f"{name}({', '.join(texts[:-1])})", f"{name}({', '.join(texts + ['A'])})",
                f"{unknown}({', '.join(texts)})"):
        with pytest.raises(ValueError, match="cannot parse rule"):
            parse_rule(bad)


def test_load_config(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(
        """\
[data]
seed = 17
max_prefix = 3
synth_cases = 50
synth_rule = control_presence(B)
synth_noise = 0.1
train_ratio = 0.7
pi_repeats = 2
log_id = demo

[model lr]
kind = logreg
l2 = 0.5

[model rf]
kind = forest
n_trees = 10
""",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.seed == 17
    assert cfg.max_prefix == 3
    assert cfg.train_ratio == 0.7
    assert cfg.pi_repeats == 2
    assert cfg.log_id == "demo"
    assert cfg.synth.n_cases == 50
    assert cfg.synth.rule == ControlPresence("B")
    assert cfg.synth.label_noise == 0.1
    assert cfg.synth.seed == 17  # falls back to the master seed
    assert [m.name for m in cfg.models] == ["lr", "rf"]
    assert cfg.models[0].hyper == {"l2": 0.5}
    assert cfg.models[1].kind == "forest"
    assert cfg.models[1].hyper == {"n_trees": 10.0}


def test_load_config_requires_explicit_seed(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[data]\nsynth_cases = 10\n[model m]\nkind = logreg\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match="explicit seed"):
        load_config(path)


def test_config_and_schema_files_drop_a_byte_order_mark(tmp_path):
    log = generate_log(SynthSpec(n_cases=10, seed=2))
    (tmp_path / "log.csv").write_text(serialize_csv(log), encoding="utf-8")
    config = "[data]\nseed = 4\nsynth_cases = 10\n[model m]\nkind = logreg\n"
    schema = format_schema_config(log.schema)
    for prefix in ("", "\ufeff"):
        (tmp_path / "bench.cfg").write_text(prefix + config, encoding="utf-8")
        assert load_config(tmp_path / "bench.cfg").synth == SynthSpec(n_cases=10, seed=4)
        (tmp_path / "schema.cfg").write_text(prefix + schema, encoding="utf-8")
        assert read_log(tmp_path / "log.csv", tmp_path / "schema.cfg") == log


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.cfg")


def test_model_spec_validation():
    assert set(MODELS) == {"logreg", "tree", "forest", "llm", "external"}
    for kind in MODELS:
        assert ModelSpec("m", kind, command="scorer").kind == kind
    for kind in ("svm", "Logreg", "", "model"):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelSpec("m", kind, command="scorer")
    with pytest.raises(ValueError, match="needs a command"):
        ModelSpec("m", "external")
    with pytest.raises(ValueError, match="at least one model"):
        BenchmarkConfig(seed=0, max_prefix=3, models=(), synth=SynthSpec())
    with pytest.raises(ValueError, match="synth spec or log"):
        BenchmarkConfig(seed=0, max_prefix=3, models=(ModelSpec("m", "logreg"),))


def test_benchmark_config_refuses_a_repeated_model_name():
    with pytest.raises(ValueError, match="^two models are named 'lr'$"):
        _cfg([ModelSpec("lr", "logreg"), ModelSpec("rf", "forest"), ModelSpec("lr", "tree")])


@pytest.mark.parametrize("key, value", [
    ("log_path", "log.csv"), ("schema_path", "schema.cfg"), ("label_rule", ("A", "B"))])
def test_benchmark_config_refuses_a_synth_spec_with_a_csv_log_field(key, value):
    with pytest.raises(ValueError, match=f"^synth cannot be combined with {key}$"):
        _cfg([ModelSpec("lr", "logreg")], **{key: value})


@pytest.mark.parametrize("key,value,message", [
    ("pi_repeats", 0, "pi_repeats must be a whole number >= 1, got 0"),
    ("max_prefix", 2.5, "max_prefix must be a whole number >= 1, got 2.5"),
    ("max_prefix", 0, "max_prefix must be a whole number >= 1, got 0"),
    ("seed", 2.5, "seed must be an integer, got 2.5"),
    ("train_ratio", 1.5, "train_ratio must be in (0, 1), got 1.5"),
    ("train_ratio", 0.0, "train_ratio must be in (0, 1), got 0.0"),
    # a bool is an Integral, but not a size or a seed
    ("seed", True, "seed must be an integer, got True"),
    ("max_prefix", True, "max_prefix must be a whole number >= 1, got True"),
    ("pi_repeats", True, "pi_repeats must be a whole number >= 1, got True"),
])
def test_benchmark_config_checks_its_fields(key, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _cfg([ModelSpec("lr", "logreg")], **{key: value})


@pytest.mark.parametrize("key", list(models.HYPER))
@pytest.mark.parametrize("value", [True, "20"], ids=["bool", "str"])
def test_model_spec_rejects_a_hyperparameter_that_is_not_a_real_number(key, value):
    # a bool is a Real (1 or 0) and a string is no number: both are refused
    # with the rule, not accepted or left to a bare TypeError
    message = f"model 'rf': {key} must be {models.HYPER[key][1]}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ModelSpec("rf", "forest", {key: value})


def test_model_spec_rejects_an_unknown_hyperparameter():
    # a misspelt key would otherwise be ignored and its default used
    with pytest.raises(ValueError, match="^model 'rf': unknown hyperparameter 'ntrees'$"):
        ModelSpec("rf", "forest", {"ntrees": 5})


def test_model_spec_takes_numpy_and_python_numbers():
    hyper = {"n_trees": np.int64(3), "l2": np.float64(0.5), "max_depth": 4,
             "max_features_fraction": 0.5}
    assert ModelSpec("rf", "forest", hyper).hyper == hyper


def test_benchmark_config_takes_numpy_ints_and_a_seed_override():
    cfg = _cfg([ModelSpec("lr", "logreg")], seed=np.int64(7), max_prefix=np.int32(3),
               pi_repeats=np.int64(2))
    assert dataclasses.replace(cfg, seed=11).seed == 11  # the cli --seed override
    assert run_benchmark(cfg) == run_benchmark(_cfg([ModelSpec("lr", "logreg")], seed=7,
                                                    max_prefix=3, pi_repeats=2))
    with pytest.raises(ValueError, match="^seed must be an integer, got 2.5$"):
        dataclasses.replace(cfg, seed=2.5)


# --- benchmark runs --------------------------------------------------------------------


def test_run_benchmark_full_metrics_row():
    cfg = _cfg([ModelSpec("lr", "logreg"), ModelSpec("rf", "forest", {"n_trees": 15})],
               synth=SynthSpec(n_cases=200, rule=ControlPresence("A"),
                               label_noise=0.0, seed=5))
    reports = run_benchmark(cfg)
    assert [r.model_id for r in reports] == ["lr", "rf"]
    for r in reports:
        assert r.excluded_reason == ""
        assert r.auc is not None and r.auc > 0.75
        assert r.parsimony is not None and r.parsimony.total >= 1
        assert r.fc is not None and 0.0 <= r.fc.control <= 1.0
        assert r.lod_at_10 is not None and r.lod_at_10 >= 0.0


def test_run_benchmark_is_reproducible():
    cfg = _cfg([ModelSpec("lr", "logreg"), ModelSpec("rf", "forest", {"n_trees": 10})])
    a = run_benchmark(cfg)
    b = run_benchmark(cfg)
    assert render_report(a, "csv") == render_report(b, "csv")


def test_adding_a_model_does_not_perturb_earlier_cells():
    base = _cfg([ModelSpec("lr", "logreg"), ModelSpec("rf", "forest", {"n_trees": 10})])
    more = _cfg([ModelSpec("lr", "logreg"), ModelSpec("rf", "forest", {"n_trees": 10}),
                 ModelSpec("tree", "tree")])
    a = run_benchmark(base)
    b = run_benchmark(more)
    assert render_report(a, "csv").splitlines()[1:3] == \
        render_report(b, "csv").splitlines()[1:3]


def test_failing_model_is_isolated(tmp_path):
    # external command that always fails must not poison the other cells
    bad = ModelSpec("broken", "external", command=f"{sys.executable} -c 'import sys; sys.exit(1)'")
    cfg = _cfg([ModelSpec("lr", "logreg"), bad],
               synth=SynthSpec(n_cases=150, label_noise=0.0, seed=5))
    reports = run_benchmark(cfg)
    by_name = {r.model_id: r for r in reports}
    assert by_name["broken"].excluded_reason.startswith("error:")
    assert by_name["broken"].auc is None
    assert by_name["lr"].excluded_reason == ""
    assert by_name["lr"].auc is not None


def test_exclusion_below_xai_floor(tmp_path):
    # a constant external scorer has AUC 0.5 exactly: mean AUC with a good
    # model lands between 0.50 and 0.75 -> XAI metrics are dropped
    const = ModelSpec(
        "const", "external",
        command=(
            f'{sys.executable} -c "import sys; '
            "lines = sys.stdin.read().splitlines(); "
            "[print(0.5) for _ in lines[1:]]\""
        ),
    )
    cfg = _cfg([ModelSpec("lr", "logreg"), const],
               synth=SynthSpec(n_cases=150, label_noise=0.0, seed=5))
    reports = run_benchmark(cfg)
    assert all(r.excluded_reason == "avg AUC below 75" for r in reports)
    assert all(r.auc is not None for r in reports)
    assert all(r.parsimony is None and r.fc is None for r in reports)


def test_exclusion_below_auc_floor():
    # inverted scorer: probabilities anti-correlated with the label
    inv = ModelSpec(
        "inv", "external",
        command=(
            f'{sys.executable} -c "import sys; '
            "lines = sys.stdin.read().splitlines(); "
            "cols = lines[0].split(','); "
            "i = [k for k, c in enumerate(cols) if c.startswith('activity=A')][0]; "
            "[print(1.0 if float(l.split(',')[i]) == 0 else 0.0) for l in lines[1:]]\""
        ),
    )
    cfg = _cfg([inv], synth=SynthSpec(n_cases=150, rule=ControlPresence("A"),
                                      label_noise=0.0, seed=5))
    reports = run_benchmark(cfg)
    assert reports[0].excluded_reason == "avg AUC below 50"
    assert reports[0].auc is not None and reports[0].auc < 0.5


def test_prepare_matrices_share_column_signature():
    cfg = _cfg([ModelSpec("lr", "logreg")])
    train_m, test_m = prepare_matrices(cfg)
    assert train_m.column_names == test_m.column_names
    assert train_m.n_rows > 0 and test_m.n_rows > 0


# --- rendering ----------------------------------------------------------------------------


def _sample_reports():
    return [
        MetricsReport(
            "log", "lr", 0.912345678,
            parsimony=TypedMetric(3, 2, 10, 15),
            fc=TypedMetric(0.25, 0.0, 0.125, 0.125),
            irc=0.5, lod_at_10=1.4142135,
        ),
        MetricsReport("log", "bad", None, excluded_reason="error: boom"),
    ]


def test_render_csv_header_and_values():
    text = render_report(_sample_reports(), "csv")
    lines = text.splitlines()
    assert lines[0] == REPORT_HEADER
    cells = lines[1].split(",")
    assert cells[:2] == ["log", "lr"]
    assert cells[2] == "0.912346"
    assert cells[3:6] == ["3", "2", "10"]
    assert cells[6:9] == ["0.250000", "0.000000", "0.125000"]
    assert cells[9] == "0.500000"
    assert cells[10] == "1.414214"
    assert cells[11] == ""
    bad = lines[2].split(",")
    assert bad[2] == ""  # no AUC
    assert bad[11] == "error: boom"


def test_every_report_row_has_a_cell_per_column():
    reports = _sample_reports() + run_benchmark(_cfg([ModelSpec("lr", "logreg")]))
    rows = list(csv.reader(io.StringIO(render_report(reports, "csv"))))
    assert rows[0] == REPORT_HEADER.split(",")
    assert len(rows) == len(reports) + 1
    assert all(len(row) == len(rows[0]) == 12 for row in rows)


_report_texts = st.text(st.sampled_from('a ,"\n\ré'), max_size=4)


@given(st.lists(st.tuples(_report_texts, _report_texts, _report_texts), max_size=4))
def test_report_csv_reads_back_cell_for_cell(cells):
    reports = [MetricsReport(log, model, None, excluded_reason=reason)
               for log, model, reason in cells]
    rows = [REPORT_HEADER.split(","), *([log, model, *[""] * 9, reason]
                                        for log, model, reason in cells)]
    assert list(csv_records(render_report(reports, "csv"))) == list(enumerate(rows, 1))


def test_render_table_is_aligned():
    text = render_report(_sample_reports(), "table")
    lines = text.splitlines()
    assert lines[0].startswith("log  ")
    assert set(lines[1]) <= {"-", " "}
    assert "error: boom" in lines[3]
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(_sample_reports(), "json")


def test_render_empty_report_keeps_header():
    text = render_report([], "csv")
    assert text == REPORT_HEADER + "\n"
    table = render_report([], "table")
    assert table.splitlines()[0].split("  ")[0] == "log"
