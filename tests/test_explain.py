from __future__ import annotations

import dataclasses
import math
import pathlib
import shlex
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import StubPredictor, bridge_config, make_matrix
from xpop.explain import (
    WeightVector,
    coefficient_weights,
    impurity_weights,
    load_external_weights,
    permutation_importance,
    permute_column,
)
from xpop import harness
from xpop.harness import ModelSpec, prepare_matrices, run_benchmark
from xpop.metrics import functional_complexity
from xpop.models import (
    external_model,
    external_predict,
    score_copies,
    train_forest,
    train_llm,
    train_logreg,
    train_tree,
)
from xpop.preprocess import EncodedMatrix
from xpop.seeds import derive_seed

# --- excluded-value permutation ----------------------------------------------


def test_permute_column_never_keeps_the_current_value():
    rng = np.random.default_rng(0)
    distinct = np.array([1.0, 2.0, 5.0, 9.0])
    values = distinct[rng.integers(0, 4, size=500)]
    permuted = permute_column(values, distinct, rng)
    assert not np.any(permuted == values)
    assert set(permuted) <= set(distinct)


def test_permute_column_is_uniform_over_alternatives():
    rng = np.random.default_rng(1)
    values = np.zeros(30000)
    permuted = permute_column(values, np.array([0.0, 1.0, 2.0, 3.0]), rng)
    counts = np.array([(permuted == v).sum() for v in (1.0, 2.0, 3.0)])
    assert counts.sum() == 30000
    # each alternative near 1/3; generous 5-sigma band
    assert np.all(np.abs(counts - 10000) < 5 * np.sqrt(10000 * 2 / 3))


def test_permute_column_single_distinct_unchanged():
    rng = np.random.default_rng(2)
    values = np.full(10, 7.0)
    out = permute_column(values, np.array([7.0]), rng)
    assert np.array_equal(out, values)
    assert out is not values


# --- permutation importance -----------------------------------------------------


def _lookup_case():
    """Column 0 drives the score; columns 1 and 2 are decoys."""
    rng = np.random.default_rng(3)
    X = np.column_stack(
        [
            rng.integers(0, 3, size=40) / 2.0,   # values {0, 0.5, 1}
            rng.integers(0, 4, size=40) / 3.0,
            rng.integers(0, 2, size=40).astype(float),
        ]
    )
    y = (X[:, 0] > 0.4).astype(int)
    m = make_matrix(X, y)
    predictor = StubPredictor(lambda row: float(row[0]), m.column_names)
    return m, predictor, y


def test_pi_decoy_columns_are_exactly_zero():
    m, predictor, y = _lookup_case()
    wv = permutation_importance(predictor, m, y, seed=10)
    assert wv.weights[1] == 0.0
    assert wv.weights[2] == 0.0
    assert wv.weights[0] > 0.0


def test_pi_signal_column_matches_enumerated_expectation():
    m, predictor, y = _lookup_case()
    X = np.asarray(m.rows)
    distinct = np.unique(X[:, 0])
    base_sq = (y - X[:, 0]) ** 2
    # exact per-row expectation of the squared error after an excluded draw
    exp_sq = np.array(
        [
            np.mean([(y[j] - alt) ** 2 for alt in distinct if alt != X[j, 0]])
            for j in range(len(y))
        ]
    )
    expected = float(np.mean(exp_sq) - np.mean(base_sq))
    per_row_var = np.array(
        [
            np.var([(y[j] - alt) ** 2 for alt in distinct if alt != X[j, 0]])
            for j in range(len(y))
        ]
    )
    repeats = 800
    sigma = float(np.sqrt(per_row_var.sum() / len(y) ** 2 / repeats))
    wv = permutation_importance(predictor, m, y, seed=99, repeats=repeats)
    assert abs(wv.weights[0] - expected) < 4 * sigma


def test_pi_deterministic_for_fixed_seed_and_column_seed_independence():
    m, predictor, y = _lookup_case()
    a = permutation_importance(predictor, m, y, seed=5, repeats=3)
    b = permutation_importance(predictor, m, y, seed=5, repeats=3)
    assert np.array_equal(a.weights, b.weights)
    c = permutation_importance(predictor, m, y, seed=6, repeats=3)
    assert not np.array_equal(a.weights, c.weights)


def test_pi_single_distinct_column_gets_zero():
    X = np.column_stack([np.ones(20), np.arange(20.0)])
    y = (X[:, 1] > 10).astype(int)
    m = make_matrix(X, y)
    predictor = StubPredictor(lambda row: float(row[1] > 10), m.column_names)
    wv = permutation_importance(predictor, m, y, seed=0)
    assert wv.weights[0] == 0.0
    assert wv.weights[1] > 0.0


def test_pi_input_matrix_is_not_mutated():
    m, predictor, y = _lookup_case()
    before = np.asarray(m.rows).copy()
    permutation_importance(predictor, m, y, seed=1, repeats=2)
    assert np.array_equal(np.asarray(m.rows), before)


def test_pi_rejects_bad_arguments():
    m, predictor, y = _lookup_case()
    with pytest.raises(ValueError, match="repeats"):
        permutation_importance(predictor, m, y, seed=0, repeats=0)
    with pytest.raises(ValueError, match="single class"):
        permutation_importance(predictor, m, np.zeros(m.n_rows), seed=0)
    stranger = StubPredictor(lambda row: 0.5, ("other",))
    with pytest.raises(ValueError, match="signature"):
        permutation_importance(stranger, m, y, seed=0)


# --- perturbation engine ----------------------------------------------------------


def _tie_heavy_matrix(n, p, seed):
    """Small-integer columns (many ties), labels driven by the first two."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, p)) / 3.0
    y = (X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=n) > 0.8).astype(int)
    return make_matrix(X, y)


SMALL = _tie_heavy_matrix(60, 6, seed=21)
WIDE = _tie_heavy_matrix(400, 90, seed=22)


def _stub(m):
    w = np.linspace(-1.0, 1.0, m.n_columns)
    return StubPredictor(lambda row: 1.0 / (1.0 + math.exp(-float(row @ w))), m.column_names)


def _forest(m):
    return train_forest(m, {"n_trees": 5, "max_depth": 4}, seed=3)


def _pi_reference(predictor, m, y, seed, repeats):
    """Permutation importance as a per-column loop, one predict per copy."""
    y = np.asarray(y, dtype=np.float64)
    base = float(np.mean((y - predictor.predict(m)) ** 2))
    weights = np.zeros(m.n_columns)
    for i in range(m.n_columns):
        distinct = np.unique(m.rows[:, i])
        if len(distinct) < 2:
            continue
        rng = np.random.default_rng(seed + i)
        total = 0.0
        for _ in range(repeats):
            rows = m.rows.copy()
            rows[:, i] = permute_column(m.rows[:, i], distinct, rng)
            permuted = predictor.predict(dataclasses.replace(m, rows=rows))
            total += float(np.mean((y - permuted) ** 2)) - base
        weights[i] = total / repeats
    return weights


@pytest.mark.parametrize("m", [SMALL, WIDE], ids=["small", "wide"])
@pytest.mark.parametrize("make", [_stub, _forest], ids=["stub", "forest"])
def test_batched_pi_equals_per_column_loop(m, make):
    predictor = make(m)
    rows, labels = m.rows.copy(), m.labels.copy()
    expected = _pi_reference(predictor, m, m.labels, seed=17, repeats=3)
    wv = permutation_importance(predictor, m, m.labels, seed=17, repeats=3)
    assert wv.weights.tobytes() == expected.tobytes()
    shared = permutation_importance(
        predictor, m, m.labels, seed=17, repeats=3, base_scores=predictor.predict(m)
    )
    assert shared.weights.tobytes() == expected.tobytes()
    assert np.array_equal(m.rows, rows) and np.array_equal(m.labels, labels)


class CountingPredictor:
    """Scores row sums modulo 1 and records the row count of every call."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        self.calls = []

    def predict(self, m):
        self.calls.append(m.n_rows)
        return m.rows.sum(axis=1) % 1.0


def _copy(m, copy):
    """``m`` with the columns of ``copy`` replaced, built on its own."""
    rows = m.rows.copy()
    for column, values in copy.items():
        rows[:, column] = values
    return EncodedMatrix(m.columns, rows, m.labels)


@pytest.mark.parametrize("m", [SMALL, WIDE], ids=["small", "wide"])
def test_engine_makes_one_predict_per_copy(m):
    for n_copies in (0, 1, 2, 13):
        predictor = CountingPredictor(m.column_names)
        copies = [{0: np.full(m.n_rows, c / 7.0)} for c in range(n_copies)]
        scores = list(score_copies(predictor, m, iter(copies)))
        assert predictor.calls == [m.n_rows] * n_copies
        assert len(scores) == n_copies
        for copy, got in zip(copies, scores):
            assert got.tobytes() == predictor.predict(_copy(m, copy)).tobytes()


def test_pi_with_base_scores_calls_once_per_chunk():
    # a chunk is one copy: with base_scores given, PI predicts each of its
    # copies once, on n_rows rows, and never the unperturbed matrix
    for m in (SMALL, WIDE):
        predictor = CountingPredictor(m.column_names)
        permutation_importance(
            predictor, m, m.labels, seed=0, repeats=3, base_scores=np.full(m.n_rows, 0.5)
        )
        varying = sum(len(np.unique(m.rows[:, i])) >= 2 for i in range(m.n_columns))
        assert predictor.calls == [m.n_rows] * (varying * 3)


class ShortPredictor(CountingPredictor):
    def predict(self, m):
        return np.zeros(3)


def test_engine_rejects_wrong_score_count_and_bad_base():
    m = SMALL
    with pytest.raises(ValueError, match="scores for"):
        list(score_copies(ShortPredictor(m.column_names), m, [{}]))
    with pytest.raises(ValueError, match="base_scores"):
        permutation_importance(_stub(m), m, m.labels, seed=0, base_scores=np.zeros(2))


class ShortBasePredictor(CountingPredictor):
    """One score for the matrix it was made with; one per row for any copy."""

    def __init__(self, m):
        super().__init__(m.column_names)
        self.base = m

    def predict(self, m):
        return np.zeros(1) if m is self.base else super().predict(m)


def test_pi_and_fc_check_the_base_scores_they_predict():
    # the unperturbed scores pass the check every copy's scores pass, rather
    # than being broadcast over the rows
    X = _tie_heavy_matrix(20, 3, seed=23)
    m = make_matrix(X.rows, X.labels, types=["control", "case", "event"])
    message = r"^predictor returned \(1,\) scores for 20 rows$"
    with pytest.raises(ValueError, match=message):
        permutation_importance(ShortBasePredictor(m), m, m.labels, seed=0)
    with pytest.raises(ValueError, match=message):
        functional_complexity(ShortBasePredictor(m), m, seed=0)


def test_bridge_cell_launches_two_processes(tmp_path):
    launches = tmp_path / "launches.txt"
    cfg = bridge_config(tmp_path, launch_log=launches)
    cfg = dataclasses.replace(cfg, models=cfg.models[:1], pi_repeats=2)
    (report,) = run_benchmark(cfg)
    assert report.excluded_reason == "" and report.fc is not None
    # one launch for the test scores (AUC; PI and FC reuse them), one for
    # every PI copy and every FC copy
    assert len(launches.read_text(encoding="utf-8").splitlines()) == 2


# Runs the command after argv[3], saving each launch's stdin as
# <argv[1]>/<launch number>.csv. Launch number argv[2] misbehaves instead:
# with argv[3] "exit" it exits 1, with "short" it prints one line.
RECORDING_WRAPPER = """\
import pathlib
import subprocess
import sys

out, bad, how = pathlib.Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
n = len(list(out.glob("*.csv"))) + 1
data = sys.stdin.buffer.read()
(out / f"{n}.csv").write_bytes(data)
if n == bad and how == "exit":
    sys.stderr.write("refused launch 2\\n")
    sys.exit(1)
if n == bad and how == "short":
    print(0.5)
    sys.exit(0)
proc = subprocess.run(sys.argv[4:], input=data, capture_output=True)
sys.stdout.buffer.write(proc.stdout)
sys.stderr.buffer.write(proc.stderr)
sys.exit(proc.returncode)
"""


def _recorded_bridge(tmp_path, bad=0, how="exit", pi_repeats=2):
    """The bridge config's ``ext`` cell alone, its command wrapped so that
    each launch's stdin is saved under ``tmp_path/stdin``."""
    cfg = bridge_config(tmp_path)
    ext = cfg.models[0]
    script = tmp_path / "wrapper.py"
    script.write_text(RECORDING_WRAPPER, encoding="utf-8")
    saved = tmp_path / "stdin"
    saved.mkdir()
    command = shlex.join([sys.executable, str(script), str(saved), str(bad), how])
    ext = dataclasses.replace(ext, command=f"{command} {ext.command}")
    return dataclasses.replace(cfg, models=(ext,), pi_repeats=pi_repeats), saved


def test_bridge_cell_second_launch_sends_pi_rows_then_one_fc_copy_per_type(tmp_path):
    cfg, saved = _recorded_bridge(tmp_path)
    (report,) = run_benchmark(cfg)
    assert report.excluded_reason == ""
    assert sorted(p.name for p in saved.iterdir()) == ["1.csv", "2.csv"]
    _, m = prepare_matrices(cfg)
    assert (saved / "1.csv").read_bytes() == m.export_csv(include_label=False).encode("utf-8")
    model_seed = derive_seed(cfg.seed, 0)
    pi_seed, fc_seed = derive_seed(model_seed, 1), derive_seed(model_seed, 2)
    blocks = []
    for i in range(m.n_columns):  # PI: (column, repeat) order
        distinct = np.unique(m.rows[:, i])
        if len(distinct) < 2:
            continue
        rng = np.random.default_rng(pi_seed + i)
        for _ in range(cfg.pi_repeats):
            rows = m.rows.copy()
            rows[:, i] = permute_column(m.rows[:, i], distinct, rng)
            blocks.append(rows)
    for ordinal, attribute_type in enumerate(("control", "case", "event")):  # FC
        columns = m.columns_of_type(attribute_type)
        assert columns  # the bridge log has every type
        rng = np.random.default_rng(fc_seed + ordinal)
        rows = m.rows.copy()
        for i in columns:
            rows[:, i] = permute_column(m.rows[:, i], np.unique(m.rows[:, i]), rng)
        blocks.append(rows)
    stacked = EncodedMatrix(m.columns, np.vstack(blocks), np.tile(m.labels, len(blocks)))
    assert (saved / "2.csv").read_bytes() == stacked.export_csv(include_label=False).encode()


def test_joint_stream_gives_the_weights_and_fc_of_separate_calls(tmp_path, monkeypatch):
    # every cell of the bridge config (external and in process), and a forest
    cfg = bridge_config(tmp_path)
    cfg = dataclasses.replace(cfg, pi_repeats=2, models=(
        *cfg.models, ModelSpec("rf", "forest", {"n_trees": 5})))
    calls = {}
    for name in ("permutation_importance", "functional_complexity"):
        def recorded(*args, _name=name, _fn=getattr(harness, name), **kwargs):
            result = _fn(*args, **kwargs)
            calls.setdefault(_name, []).append((args, kwargs, result))
            return result

        monkeypatch.setattr(harness, name, recorded)
    reports = run_benchmark(cfg)
    assert [r.excluded_reason for r in reports] == ["", "", ""]
    for args, kwargs, w_pi in calls["permutation_importance"]:
        assert "scores" in kwargs
        del kwargs["scores"]
        alone = permutation_importance(*args, **kwargs)
        assert w_pi.weights.tobytes() == alone.weights.tobytes()
        assert w_pi.columns == alone.columns
    for args, kwargs, fc in calls["functional_complexity"]:
        assert "scores" in kwargs
        del kwargs["scores"]
        alone = functional_complexity(*args, **kwargs)
        assert np.array([*dataclasses.astuple(fc)]).tobytes() == \
            np.array([*dataclasses.astuple(alone)]).tobytes()
    assert len(calls["permutation_importance"]) == len(calls["functional_complexity"]) == 3


def test_bridge_cell_failing_second_launch_keeps_the_auc(tmp_path):
    cfg, saved = _recorded_bridge(tmp_path, bad=2, how="exit")
    # the in-process twin of the exported logreg has the same AUC
    cfg = dataclasses.replace(cfg, models=(*cfg.models, ModelSpec("lr", "logreg")))
    report, twin = run_benchmark(cfg)
    assert report.auc is not None and report.auc == twin.auc
    assert report.excluded_reason == "error: external command exited with 1: refused launch 2"
    assert report.fc is None and report.irc is None
    assert len(list(saved.iterdir())) == 2


def test_bridge_cell_line_count_error_names_the_joint_row_count(tmp_path):
    cfg, _ = _recorded_bridge(tmp_path, bad=2, how="short")
    (report,) = run_benchmark(cfg)
    _, m = prepare_matrices(cfg)
    varying = sum(len(np.unique(m.rows[:, i])) >= 2 for i in range(m.n_columns))
    copies = varying * cfg.pi_repeats + 3  # PI copies, then one FC copy per type
    assert report.auc is not None
    assert report.excluded_reason == (
        f"error: line count mismatch: expected {copies * m.n_rows}, got 1")


# Writes its stdin to argv[1] and scores each row by its first cell modulo 1.
COPYING_SCORER = """\
import sys

data = sys.stdin.buffer.read()
with open(sys.argv[1], "wb") as fh:
    fh.write(data)
for line in data.decode("utf-8").splitlines()[1:]:
    print(repr(float(line.split(",")[0]) % 1.0))
"""


def test_bridge_stacked_launch_sends_header_then_each_copy_in_draw_order(tmp_path):
    m = _tie_heavy_matrix(60, 40, seed=23)
    script = tmp_path / "copy.py"
    script.write_text(COPYING_SCORER, encoding="utf-8")
    received = tmp_path / "stdin.csv"
    model = external_model(shlex.join([sys.executable, str(script), str(received)]),
                           m.column_names)
    permutation_importance(model, m, m.labels, seed=5, repeats=2,
                           base_scores=np.full(m.n_rows, 0.5))
    blocks = []
    for i in range(m.n_columns):
        distinct = np.unique(m.rows[:, i])
        if len(distinct) < 2:
            continue
        rng = np.random.default_rng(5 + i)
        for _ in range(2):
            rows = m.rows.copy()
            rows[:, i] = permute_column(m.rows[:, i], distinct, rng)
            blocks.append(rows)
    stacked = EncodedMatrix(m.columns, np.vstack(blocks), np.tile(m.labels, len(blocks)))
    assert received.read_bytes() == stacked.export_csv(include_label=False).encode("utf-8")


STREAM = _tie_heavy_matrix(12, 4, seed=24)


@settings(max_examples=10)
@given(st.lists(st.dictionaries(st.integers(0, 3), st.integers(1, 11), max_size=4), max_size=5))
def test_perturbed_scores_equal_each_copy_scored_alone(shifts):
    # each copy rolls some columns of STREAM by the drawn shifts
    m = STREAM
    copies = [{c: np.roll(m.rows[:, c], k) for c, k in copy.items()} for copy in shifts]
    alone = [_copy(m, copy) for copy in copies]
    stub = CountingPredictor(m.column_names)
    scores = list(score_copies(stub, m, iter(copies)))
    assert stub.calls == [m.n_rows] * len(copies)
    assert [s.tobytes() for s in scores] == [stub.predict(c).tobytes() for c in alone]
    with tempfile.TemporaryDirectory() as tmp:
        script, received = pathlib.Path(tmp, "copy.py"), pathlib.Path(tmp, "stdin.csv")
        script.write_text(COPYING_SCORER, encoding="utf-8")
        command = shlex.join([sys.executable, str(script), str(received)])
        scores = list(score_copies(external_model(command, m.column_names), m, iter(copies)))
        if not copies:
            assert scores == [] and not received.exists()  # nothing was launched
            return
        sent = m.csv_header(include_label=False) + "".join(
            c.csv_rows(include_label=False) for c in alone)
        assert received.read_text(encoding="utf-8") == sent
        assert [s.tobytes() for s in scores] == [external_predict(command, c).tobytes()
                                                 for c in alone]


# --- intrinsic weights -----------------------------------------------------------


def _signal_matrix(seed=0, n=200):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] > 0).astype(int)
    return make_matrix(X, y), y


def test_logreg_coefficient_weights():
    m, _ = _signal_matrix()
    model = train_logreg(m)
    wv = coefficient_weights(model)
    assert np.array_equal(wv.weights, np.abs(model.logreg.coef))
    assert np.all(wv.weights >= 0)
    assert wv.weights[0] == wv.weights.max()


def test_llm_weights_are_support_weighted_leaf_means():
    X = np.array([[0.0, v / 10.0] for v in range(10)] + [[1.0, v / 10.0] for v in range(10)])
    y = np.array([0] * 10 + [0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    m = make_matrix(X, y)
    model = train_llm(m, {"max_depth": 1, "min_samples_leaf": 5})
    wv = coefficient_weights(model)
    # one constant leaf (all zeros) and one fitted leaf of 10 rows out of 20
    fitted = [lm for lm in model.leaf_models if not hasattr(lm, "prob")]
    assert len(fitted) == 1
    assert np.allclose(wv.weights, 10 * np.abs(fitted[0].coef) / 20)


def test_coefficient_weights_undefined_for_trees():
    m, _ = _signal_matrix()
    with pytest.raises(ValueError, match="undefined"):
        coefficient_weights(train_tree(m))


def test_tree_impurity_weights_hand_check():
    # depth-1 stump: importance of the split column equals its full gain
    X = np.column_stack([np.array([0.0] * 4 + [1.0] * 4), np.zeros(8)])
    y = np.array([0, 0, 0, 1, 1, 1, 1, 1])
    m = make_matrix(X, y)
    model = train_tree(m, {"max_depth": 1, "min_samples_leaf": 1})
    wv = impurity_weights(model)
    parent = 1 - (5 / 8) ** 2 - (3 / 8) ** 2
    left = 1 - (1 / 4) ** 2 - (3 / 4) ** 2
    right = 0.0
    gain = parent - 0.5 * left - 0.5 * right
    assert wv.weights[0] == pytest.approx(gain)
    assert wv.weights[1] == 0.0


def test_forest_impurity_weights_average_and_rank():
    m, _ = _signal_matrix(seed=5, n=300)
    model = train_forest(m, {"n_trees": 15}, seed=2)
    wv = impurity_weights(model)
    assert np.all(wv.weights >= 0)
    assert wv.weights[0] == wv.weights.max()
    single = [impurity_weights(train_tree(m)).weights]  # type check only
    assert len(single) == 1
    with pytest.raises(ValueError, match="undefined"):
        impurity_weights(train_logreg(m))


def test_forest_impurity_weights_are_one_running_sum_in_preorder():
    # oracle: descend each tree from its root, adding every split's weighted
    # Gini decrease to one running total per column, tree after tree; the
    # report's bytes depend on this summation order
    m, _ = _signal_matrix(seed=5, n=300)
    model = train_forest(m, {"n_trees": 15}, seed=2)
    total = np.zeros(m.n_columns)

    def visit(tree, i):
        if tree.column[i] < 0:
            return
        left, right = tree.left[i], tree.right[i]
        child = tree.n[left] / tree.n[i] * tree.gini[left] + tree.n[right] / tree.n[i] * tree.gini[right]
        total[tree.column[i]] += tree.n[i] / tree.n[0] * (tree.gini[i] - child)
        visit(tree, left)
        visit(tree, right)

    for tree in model.trees:
        visit(tree, 0)
    assert np.array_equal(impurity_weights(model).weights, total / len(model.trees))


# --- external weights --------------------------------------------------------------


def test_load_external_weights(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("a,0.5\nb,-2.0\n", encoding="utf-8")
    # absolute values; absent column gets 0 with a warning
    with pytest.warns(UserWarning, match="missing"):
        wv = load_external_weights(str(path), ("a", "b", "c"))
    assert wv.weights.tolist() == [0.5, 2.0, 0.0]


def test_load_external_weights_errors(tmp_path):
    bad_col = tmp_path / "bad1.csv"
    bad_col.write_text("nope,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown column 'nope'"):
        load_external_weights(str(bad_col), ("a",))
    bad_val = tmp_path / "bad2.csv"
    bad_val.write_text("a,much\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-numeric"):
        load_external_weights(str(bad_val), ("a",))
    bad_shape = tmp_path / "bad3.csv"
    bad_shape.write_text("a,1.0,extra\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 'attribute,weight'"):
        load_external_weights(str(bad_shape), ("a",))
    repeated = tmp_path / "bad4.csv"
    repeated.write_text("a,1\nb,2\na,5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad4\.csv:3: duplicate column 'a'$"):
        load_external_weights(str(repeated), ("a", "b"))


# --- weight vector invariants --------------------------------------------------------


def test_weight_vector_validation():
    with pytest.raises(ValueError, match="length"):
        WeightVector(np.zeros(2), ("a",))
    with pytest.raises(ValueError, match="finite"):
        WeightVector(np.array([np.nan]), ("a",))
    wv = WeightVector(np.array([1.0]), ("a",))
    with pytest.raises(ValueError):
        wv.weights[0] = 2.0
