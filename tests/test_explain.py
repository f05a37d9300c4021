from __future__ import annotations

import dataclasses
import math
import shlex
import sys

import numpy as np
import pytest

from conftest import StubPredictor, bridge_config, make_matrix
from xpop.explain import (
    CHUNK_CELLS,
    WeightVector,
    coefficient_weights,
    impurity_weights,
    load_external_weights,
    permutation_importance,
    permute_column,
    perturbed_scores,
)
from xpop.harness import prepare_matrices, run_benchmark
from xpop.models import external_model, train_forest, train_llm, train_logreg, train_tree
from xpop.preprocess import EncodedMatrix

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


# --- batched perturbation engine --------------------------------------------------


def _per_chunk(m):
    return max(1, CHUNK_CELLS // (m.n_rows * m.n_columns))


def _tie_heavy_matrix(n, p, seed):
    """Small-integer columns (many ties), labels driven by the first two."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, p)) / 3.0
    y = (X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=n) > 0.8).astype(int)
    return make_matrix(X, y)


SMALL = _tie_heavy_matrix(60, 6, seed=21)  # many copies per chunk
WIDE = _tie_heavy_matrix(400, 90, seed=22)  # one copy is over the budget
assert _per_chunk(SMALL) > 10 and WIDE.n_rows * WIDE.n_columns > CHUNK_CELLS


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


@pytest.mark.parametrize("m", [SMALL, WIDE], ids=["small", "wide"])
def test_engine_makes_one_call_per_chunk_within_budget(m):
    per_chunk = _per_chunk(m)
    for n_copies in (1, per_chunk, per_chunk + 1, 2 * per_chunk + 3):
        predictor = CountingPredictor(m.column_names)
        copies = ({0: np.full(m.n_rows, c / 7.0)} for c in range(n_copies))
        scores = list(perturbed_scores(predictor, m, copies))
        assert len(predictor.calls) == math.ceil(n_copies / per_chunk)
        for rows in predictor.calls:
            assert rows * m.n_columns <= CHUNK_CELLS or rows == m.n_rows
        assert len(scores) == n_copies
        for c, got in enumerate(scores):
            rows = m.rows.copy()
            rows[:, 0] = c / 7.0
            assert got.tobytes() == (rows.sum(axis=1) % 1.0).tobytes()


def test_pi_with_base_scores_calls_once_per_chunk():
    m = SMALL
    predictor = CountingPredictor(m.column_names)
    permutation_importance(
        predictor, m, m.labels, seed=0, repeats=3, base_scores=np.full(m.n_rows, 0.5)
    )
    assert len(predictor.calls) == math.ceil(m.n_columns * 3 / _per_chunk(m))


class ShortPredictor(CountingPredictor):
    def predict(self, m):
        return np.zeros(3)


def test_engine_rejects_wrong_score_count_and_bad_base():
    m = SMALL
    with pytest.raises(ValueError, match="scores for"):
        list(perturbed_scores(ShortPredictor(m.column_names), m, [{}]))
    with pytest.raises(ValueError, match="base_scores"):
        permutation_importance(_stub(m), m, m.labels, seed=0, base_scores=np.zeros(2))


def test_bridge_cell_launches_one_process_per_stage(tmp_path):
    launches = tmp_path / "launches.txt"
    cfg = bridge_config(tmp_path, launch_log=launches)
    cfg = dataclasses.replace(cfg, models=cfg.models[:1], pi_repeats=2)
    _, test_m = prepare_matrices(cfg)
    varying = sum(len(np.unique(test_m.rows[:, i])) >= 2 for i in range(test_m.n_columns))
    assert varying * 2 > _per_chunk(test_m)  # PI's copies fill more than one chunk
    (report,) = run_benchmark(cfg)
    assert report.excluded_reason == "" and report.fc is not None
    # one launch each for AUC (whose scores PI and FC reuse), all PI chunks and all FC types
    assert len(launches.read_text(encoding="utf-8").splitlines()) == 3


# Writes its stdin to argv[1] and scores every row 0.5.
COPYING_SCORER = """\
import sys

data = sys.stdin.buffer.read()
with open(sys.argv[1], "wb") as fh:
    fh.write(data)
sys.stdout.write("0.5\\n" * (len(data.splitlines()) - 1))
"""


def test_bridge_stacked_launch_sends_header_then_each_copy_in_draw_order(tmp_path):
    m = _tie_heavy_matrix(60, 40, seed=23)
    assert m.n_columns * 2 > _per_chunk(m)  # the copies span several chunks
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
    stacked = EncodedMatrix(m.columns, np.vstack(blocks), np.tile(m.labels, len(blocks)),
                            m.provenance * len(blocks))
    assert received.read_bytes() == stacked.export_csv(include_label=False).encode("utf-8")


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


# --- weight vector invariants --------------------------------------------------------


def test_weight_vector_validation():
    with pytest.raises(ValueError, match="length"):
        WeightVector(np.zeros(2), ("a",), "test")
    with pytest.raises(ValueError, match="finite"):
        WeightVector(np.array([np.nan]), ("a",), "test")
    wv = WeightVector(np.array([1.0]), ("a",), "test")
    with pytest.raises(ValueError):
        wv.weights[0] = 2.0
