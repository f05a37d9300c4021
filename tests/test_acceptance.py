"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with the measured values."""

from __future__ import annotations

import functools
import itertools
import math
import re
import sys
import time

import numpy as np
import pytest

from conftest import BRIDGE_SCRIPT, StubPredictor, make_matrix
from xpop import harness
from xpop.eventlog import parse_csv
from xpop.explain import WeightVector, coefficient_weights, permutation_importance
from xpop.guidelines import MODEL_LABELS, QUESTION_ORDER, QUESTION_TEXT, Questionnaire, interactive_guide, recommend
from xpop.harness import (
    BenchmarkConfig,
    ModelSpec,
    parse_rule,
    prepare_matrices,
    render_report,
    run_benchmark,
    train_model,
)
from xpop.metrics import functional_complexity, irc, lod_at_k, parsimony, spearman, top_k_type_counts
from xpop.models import auc, export_model, external_predict, train_forest, train_logreg
from xpop.preprocess import aggregate_encode, extract_prefixes, fit_vocabulary, temporal_split
from xpop.seeds import derive_seed
from xpop.synth import RULES, CaseThreshold, ControlPresence, SynthSpec, generate_log


def _report(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _fastest_of_5(call):
    """``call()``'s result and its fastest wall time of 5 calls: one slow
    call on a shared host says nothing about the code's speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return result, min(times)


# --- criterion 1: LOD@10 worked example ------------------------------------------


def test_criterion_01_lod_worked_example():
    types = ["control"] * 2 + ["case"] * 2 + ["event"] * 8
    meta = make_matrix(np.zeros((1, 12)), [0], types=types).columns
    a = WeightVector(
        np.array([10, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0.5]),
        tuple(f"x{i}" for i in range(12)),
    )
    b = WeightVector(
        np.array([10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0.5, 0.2]),
        tuple(f"x{i}" for i in range(12)),
    )
    assert top_k_type_counts(a, meta, 10) == (1, 2, 7)
    assert top_k_type_counts(b, meta, 10) == (2, 2, 6)
    lod_at_k(a, b, meta, 10)  # warm-up outside the timed region
    value, elapsed = _fastest_of_5(lambda: lod_at_k(a, b, meta, 10))
    ok = abs(value - 1.4142) <= 1e-6 + 4e-5 and elapsed < 1e-3
    # 1.4142 is the 4-decimal rounding of sqrt(2); check the exact value too
    ok = ok and abs(value - math.sqrt(2.0)) <= 1e-9
    _report(
        "criterion 1 (LOD@10 example)", ok,
        f"counts (1,2,7) vs (2,2,6) -> {value:.6f}, {elapsed * 1e6:.0f} us",
    )


# --- criterion 2: Spearman oracle -------------------------------------------------


def _spearman_bruteforce(a, b):
    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        out = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            for t in range(i, j + 1):
                out[order[t]] = (i + j) / 2 + 1
            i = j + 1
        return out

    ra, rb = ranks(list(a)), ranks(list(b))
    ma, mb = sum(ra) / len(ra), sum(rb) / len(rb)
    num = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    den = math.sqrt(sum((x - ma) ** 2 for x in ra) * sum((y - mb) ** 2 for y in rb))
    return num / den


def test_criterion_02_spearman_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 1000:
        n = int(rng.integers(3, 13))
        if rng.random() < 0.5:  # with ties
            a = rng.integers(0, 4, size=n).astype(float)
            b = rng.integers(0, 4, size=n).astype(float)
        else:  # without ties
            a = rng.permutation(n).astype(float)
            b = rng.permutation(n).astype(float)
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        worst = max(worst, abs(spearman(a, b) - _spearman_bruteforce(a, b)))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(
        "criterion 2 (Spearman oracle)", ok,
        f"1000 pairs, max abs error {worst:.2e}, {elapsed:.2f} s",
    )


# --- criterion 3: AUC oracle --------------------------------------------------------


def _auc_bruteforce(labels, scores):
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


def test_criterion_03_auc_oracle():
    rng = np.random.default_rng(77)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 501))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 10, size=n) / 9.0  # coarse grid forces ties
        worst = max(
            worst, abs(auc(labels, scores) - _auc_bruteforce(labels.tolist(), scores.tolist()))
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(
        "criterion 3 (AUC oracle)", ok,
        f"200 instances, max abs error {worst:.2e}, {elapsed:.2f} s",
    )


# --- criterion 4: permutation importance null + signal --------------------------------


def test_criterion_04_pi_null_and_signal():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 60
    X = np.column_stack(
        [
            rng.integers(0, 4, size=n) / 3.0,
            rng.integers(0, 3, size=n).astype(float),
            rng.uniform(size=n),
        ]
    )
    y = (X[:, 0] > 0.5).astype(int)
    m = make_matrix(X, y)
    # lookup predictor over column 0 only, keyed by the exact float values
    table = dict(zip(np.unique(X[:, 0]), (0.1, 0.2, 0.8, 0.9)))
    predictor = StubPredictor(lambda row: table[row[0]], m.column_names)

    repeats = 1000
    wv = permutation_importance(predictor, m, seed=7, repeats=repeats)
    nulls_zero = wv.weights[1] == 0.0 and wv.weights[2] == 0.0

    # exhaustively enumerated expectation and variance of the column-0 effect
    distinct = np.unique(X[:, 0])
    scores = np.array([table[v] for v in X[:, 0]])
    base_sq = (y - scores) ** 2
    exp_row = np.empty(n)
    var_row = np.empty(n)
    for j in range(n):
        alts = [table[v] for v in distinct if v != X[j, 0]]
        deltas = [(y[j] - s) ** 2 - base_sq[j] for s in alts]
        exp_row[j] = np.mean(deltas)
        var_row[j] = np.var(deltas)
    expected = float(np.mean(exp_row))
    sigma = math.sqrt(float(var_row.sum()) / n**2 / repeats)

    deviation = abs(wv.weights[0] - expected)
    elapsed = time.perf_counter() - start
    ok = nulls_zero and deviation <= 3 * sigma and elapsed < 30.0
    _report(
        "criterion 4 (PI null + signal)", ok,
        f"nulls exactly 0: {nulls_zero}; signal deviation {deviation:.2e} "
        f"vs 3 sigma {3 * sigma:.2e}; {elapsed:.1f} s",
    )


# --- criterion 5: FC ground-truth detection ---------------------------------------------


def _fc_ground_truth(spec, max_prefix, forest_seed):
    log = generate_log(spec)
    train_log, test_log = temporal_split(log, 0.8)
    vocab = fit_vocabulary(train_log)
    train_m = aggregate_encode(extract_prefixes(train_log, max_prefix), vocab)
    test_m = aggregate_encode(extract_prefixes(test_log, max_prefix), vocab)
    model = train_forest(train_m, {"n_trees": 20}, seed=forest_seed)
    score = auc(test_m.labels, model.predict(test_m))
    fc = functional_complexity(model, test_m, seed=101)
    return score, fc.control, fc.case


def test_criterion_05_fc_ground_truth():
    start = time.perf_counter()
    # control-rule log: the signal lives entirely in the activity columns
    control_spec = SynthSpec(
        n_cases=1000, alphabet_size=3, min_trace_length=1, max_trace_length=1,
        rule=ControlPresence("A"), label_noise=0.05, seed=19,
    )
    auc_c, fcc_c, fca_c = _fc_ground_truth(control_spec, max_prefix=1, forest_seed=20)

    # case-rule log: the signal lives entirely in a static numeric attribute
    case_spec = SynthSpec(
        n_cases=1000, alphabet_size=4, min_trace_length=2, max_trace_length=3,
        rule=CaseThreshold("s_num1", 0.5), label_noise=0.05, seed=0,
    )
    auc_s, fcc_s, fca_s = _fc_ground_truth(case_spec, max_prefix=3, forest_seed=1)
    elapsed = time.perf_counter() - start

    ok = (
        auc_c >= 0.95 and fcc_c >= 0.30 and fca_c <= 0.05
        and auc_s >= 0.95 and fca_s >= 0.30 and fcc_s <= 0.05
        and elapsed < 60.0
    )
    _report(
        "criterion 5 (FC ground truth)", ok,
        f"control log: AUC {auc_c:.4f}, FC_control {fcc_c:.4f}, FC_case {fca_c:.4f}; "
        f"case log: AUC {auc_s:.4f}, FC_case {fca_s:.4f}, FC_control {fcc_s:.4f}; "
        f"{elapsed:.1f} s",
    )


# The four example rules of the synth_rule key, one per rule form.
EXAMPLE_RULES = [parse_rule(text) for text in
                 re.findall(r"\w+\([^)]*\)", harness._DATA_RULES["synth_rule"][0])]


def test_example_rules_cover_every_form():
    assert [type(rule) for rule in EXAMPLE_RULES] == list(RULES.values())


@functools.lru_cache(maxsize=None)
def _planted_matrices(rule):
    return prepare_matrices(BenchmarkConfig(
        seed=3, max_prefix=4, models=(ModelSpec("lr", "logreg"),),
        synth=SynthSpec(n_cases=1000, rule=rule, label_noise=0.05, seed=3),
    ))


@pytest.mark.parametrize("kind", ["logreg", "tree"])
@pytest.mark.parametrize("rule", EXAMPLE_RULES, ids=lambda rule: type(rule).__name__)
def test_criterion_05_planted_type_leads_fc_and_pi(rule, kind):
    # Read straight from the metrics, not through the 0.75 AUC rule: a
    # control_follows log reaches AUC 0.6-0.7 only.
    train_m, test_m = _planted_matrices(rule)
    model_seed = derive_seed(3, 0)  # the seeds run_benchmark gives its first model
    model = train_model(ModelSpec(kind, kind), train_m, model_seed)
    scores = model.predict(test_m)
    fc = functional_complexity(model, test_m, derive_seed(model_seed, 2), base_scores=scores)
    fc_type = max(("control", "case", "event"), key=lambda t: getattr(fc, t))
    w_pi = permutation_importance(model, test_m, derive_seed(model_seed, 1),
                                  base_scores=scores)
    top = test_m.columns[int(np.argmax(w_pi.weights))]
    pi_type = top.attribute_type
    _report(
        f"criterion 5 ({type(rule).__name__}, {kind})",
        fc_type == pi_type == rule.dominant_type,
        f"AUC {auc(test_m.labels, scores):.4f}, FC control/case/event "
        f"{fc.control:.4f}/{fc.case:.4f}/{fc.event:.4f}, top PI column "
        f"{top.name} ({pi_type}), planted {rule.dominant_type}",
    )


# --- criterion 6: parsimony identities ------------------------------------------------


def test_criterion_06_parsimony_identities():
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        p = int(rng.integers(1, 30))
        types = rng.choice(["control", "case", "event"], size=p).tolist()
        values = rng.choice([0.0, 1e-10, 1e-8, -0.4, 2.5, -1e-9], size=p)
        meta = make_matrix(np.zeros((1, p)), [0], types=types).columns
        wv = WeightVector(values.copy(), tuple(f"x{i}" for i in range(p)))
        c = parsimony(wv, meta)
        brute = {"control": 0, "case": 0, "event": 0}
        for v, t in zip(values, types):
            if abs(v) > 1e-9:
                brute[t] += 1
        ok = ok and c.total == c.control + c.case + c.event
        ok = ok and (c.control, c.case, c.event) == (
            brute["control"], brute["case"], brute["event"]
        )
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(
        "criterion 6 (parsimony identities)", ok,
        f"500 vectors, totals exact and counts match brute force, {elapsed:.2f} s",
    )


# --- criterion 7: IRC invariances --------------------------------------------------------


def test_criterion_07_irc_invariances():
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    worst_sym = 0.0
    worst_mono = 0.0
    for _ in range(200):
        p = int(rng.integers(3, 20))
        names = tuple(f"x{i}" for i in range(p))
        a = rng.uniform(0.01, 5.0, size=p)
        b = rng.uniform(0.01, 5.0, size=p)
        wa = WeightVector(a.copy(), names)
        wb = WeightVector(b.copy(), names)
        worst_sym = max(worst_sym, abs(irc(wa, wb) - irc(wb, wa)))
        # strictly increasing transforms preserve ranks
        f = rng.choice([np.exp, np.sqrt, lambda v: 3 * v + 1, np.cbrt])
        wfa = WeightVector(np.asarray(f(a), dtype=np.float64), names)
        worst_mono = max(worst_mono, abs(irc(wa, wfa) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_sym <= 1e-12 and worst_mono <= 1e-12 and elapsed < 1.0
    _report(
        "criterion 7 (IRC invariances)", ok,
        f"200 vectors: symmetry error {worst_sym:.2e}, "
        f"monotone-transform error {worst_mono:.2e}, {elapsed:.2f} s",
    )


# --- criterion 8: guideline tree -----------------------------------------------------------


def _golden_guideline(answers: dict) -> str:
    """Independent transcription of the guideline decision path."""
    if answers["explainability_over_performance"]:
        return "GLRM"
    if answers["parsimony_very_important"]:
        return "CNN" if answers["irc_unimportant"] else "LSTM"
    if answers["faithfulness_important"]:
        return "XGB"
    if answers["parsimony_unimportant"]:
        return "RF"
    if answers["lod_low_required"]:
        return "XGB"
    if answers["data_heterogeneous"]:
        return "LLM"
    return "LR"


def test_criterion_08_guideline_tree():
    start = time.perf_counter()
    reachable = set()
    ok = True
    for bits in itertools.product([False, True], repeat=len(QUESTION_ORDER)):
        answers = dict(zip(QUESTION_ORDER, bits))
        rec = recommend(Questionnaire(**answers))
        ok = ok and rec.model == _golden_guideline(answers)
        reachable.add(rec.model)

        by_text = {QUESTION_TEXT[f]: v for f, v in answers.items()}

        def read(prompt):
            for text, value in by_text.items():
                if text in prompt:
                    return "y" if value else "n"
            raise AssertionError(prompt)

        interactive = interactive_guide(read=read, write=lambda *_: None)
        ok = ok and interactive == rec
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and reachable == set(MODEL_LABELS) and elapsed < 1.0
    _report(
        "criterion 8 (guideline tree)", ok,
        f"128 vectors match the golden path, all {len(MODEL_LABELS)} labels "
        f"reachable, interactive == batch, {elapsed:.2f} s",
    )


# --- criterion 9: encoding golden test -------------------------------------------------------


_GOLDEN_CSV = """\
case,act,time,outcome,channel,amount,resource,cost
c1,A,2024-01-01 10:00:00,deviant,x,7.0,r1,10.0
c1,A,2024-01-01 10:00:10,deviant,x,7.0,r2,20.0
c1,B,2024-01-01 10:00:30,deviant,x,7.0,r1,30.0
c2,B,2024-01-01 09:00:00,ok,y,3.0,r1,5.0
c2,A,2024-01-01 09:01:40,ok,y,3.0,r3,7.0
"""

_S50 = math.sqrt(50.0)        # sample std of (0, 10)
_S233 = math.sqrt(700.0 / 3)  # sample std of (0, 10, 30)
_S5000 = math.sqrt(5000.0)    # sample std of (0, 100)

# columns: act=A, act=B | channel=x, channel=y, amount |
# timesincelastevent_{min,max,mean,sum,std}, timesincecasestart_{...},
# timesincemidnight_{...}, cost_{...}, resource=r1, resource=r2, resource=r3
_GOLDEN_ROWS = [
    # c1 prefix 1
    [1, 0, 1, 0, 7.0,
     0, 0, 0, 0, 0,
     0, 0, 0, 0, 0,
     36000, 36000, 36000, 36000, 0,
     10, 10, 10, 10, 0,
     1, 0, 0],
    # c1 prefix 2
    [2, 0, 1, 0, 7.0,
     0, 10, 5, 10, _S50,
     0, 10, 5, 10, _S50,
     36000, 36010, 36005, 72010, _S50,
     10, 20, 15, 30, _S50,
     1, 1, 0],
    # c1 prefix 3: cost (10, 20, 30) -> sample std exactly 10
    [2, 1, 1, 0, 7.0,
     0, 20, 10, 30, 10.0,
     0, 30, 40 / 3, 40, _S233,
     36000, 36030, 108040 / 3, 108040, _S233,
     10, 30, 20, 60, 10.0,
     2, 1, 0],
    # c2 prefix 1: single event -> every std is 0
    [0, 1, 0, 1, 3.0,
     0, 0, 0, 0, 0,
     0, 0, 0, 0, 0,
     32400, 32400, 32400, 32400, 0,
     5, 5, 5, 5, 0,
     1, 0, 0],
    # c2 prefix 2
    [1, 1, 0, 1, 3.0,
     0, 100, 50, 100, _S5000,
     0, 100, 50, 100, _S5000,
     32400, 32500, 32450, 64900, _S5000,
     5, 7, 6, 12, math.sqrt(2.0),
     1, 0, 1],
]


def test_criterion_09_encoding_golden(basic_schema):
    log = parse_csv(_GOLDEN_CSV, basic_schema)
    vocab = fit_vocabulary(log)
    prefixes = extract_prefixes(log, 3)
    aggregate_encode(prefixes, vocab)  # warm-up outside timing
    matrix, elapsed = _fastest_of_5(lambda: aggregate_encode(prefixes, vocab))

    expected = np.array(_GOLDEN_ROWS, dtype=np.float64)
    names_ok = matrix.column_names == (
        "act=A", "act=B", "channel=x", "channel=y", "amount",
        "timesincelastevent_min", "timesincelastevent_max",
        "timesincelastevent_mean", "timesincelastevent_sum",
        "timesincelastevent_std",
        "timesincecasestart_min", "timesincecasestart_max",
        "timesincecasestart_mean", "timesincecasestart_sum",
        "timesincecasestart_std",
        "timesincemidnight_min", "timesincemidnight_max",
        "timesincemidnight_mean", "timesincemidnight_sum",
        "timesincemidnight_std",
        "cost_min", "cost_max", "cost_mean", "cost_sum", "cost_std",
        "resource=r1", "resource=r2", "resource=r3",
    )
    max_err = float(np.max(np.abs(np.asarray(matrix.rows) - expected)))
    labels_ok = matrix.labels.tolist() == [1, 1, 1, 0, 0]
    ok = names_ok and labels_ok and max_err <= 1e-9 and elapsed < 1e-3
    _report(
        "criterion 9 (encoding golden)", ok,
        f"5x28 matrix matches hand derivation, max abs error {max_err:.2e}, "
        f"{elapsed * 1e6:.0f} us",
    )


# --- criterion 10: end-to-end determinism ------------------------------------------------------


def test_criterion_10_bench_determinism_and_runtime():
    cfg = BenchmarkConfig(
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
    start = time.perf_counter()
    first = render_report(run_benchmark(cfg), "csv")
    second = render_report(run_benchmark(cfg), "csv")
    elapsed = time.perf_counter() - start
    identical = first.encode("utf-8") == second.encode("utf-8")
    ok = identical and elapsed < 120.0
    _report(
        "criterion 10 (bench determinism)", ok,
        f"two 1000-case runs with 4 models byte-identical: {identical}, "
        f"{elapsed:.1f} s total",
    )


# --- criterion 11: bridge round-trip ---------------------------------------------------------


def test_criterion_11_bridge_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(200, 6))
    y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int)
    m = make_matrix(X, y)
    model = train_logreg(m)

    export_path = tmp_path / "logreg.txt"
    export_path.write_text(export_model(model), encoding="utf-8")
    script_path = tmp_path / "scorer.py"
    script_path.write_text(BRIDGE_SCRIPT, encoding="utf-8")

    external = external_predict(
        f"{sys.executable} {script_path} {export_path}", m
    )
    internal = model.predict(m)
    max_err = float(np.max(np.abs(external - internal)))
    ok = max_err <= 1e-9
    _report(
        "criterion 11 (bridge round-trip)", ok,
        f"200 rows, external reimplementation max abs error {max_err:.2e}",
    )
