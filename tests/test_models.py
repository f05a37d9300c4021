from __future__ import annotations

import os
import re
import sys
import time
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_matrix
from xpop import models
from xpop.models import (
    HYPER,
    BridgeError,
    ConstantLeaf,
    LogRegParams,
    TrainedModel,
    Tree,
    auc,
    export_model,
    external_model,
    external_predict,
    score_copies,
    train_forest,
    train_llm,
    train_logreg,
    train_tree,
)

# --- AUC ----------------------------------------------------------------------


def _auc_pairs(labels, scores):
    """Independent oracle: count concordant pairs, ties at half weight."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auc_known_values():
    assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0
    assert auc([0, 1], [0.5, 0.5]) == 0.5
    assert auc([0, 1, 0, 1], [0.2, 0.2, 0.8, 0.8]) == 0.5


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse grid forces ties
        scores = rng.integers(0, 5, size=n) / 4.0
        assert auc(labels, scores) == pytest.approx(
            _auc_pairs(labels.tolist(), scores.tolist()), abs=1e-12
        )


def test_auc_single_class_is_error():
    with pytest.raises(ValueError, match="single class"):
        auc([1, 1, 1], [0.1, 0.2, 0.3])


# --- logistic regression ------------------------------------------------------


def test_logreg_separable_reaches_auc_one():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    m = make_matrix(X, y)
    model = train_logreg(m)
    assert auc(m.labels, model.predict(m)) == pytest.approx(1.0)
    coef = model.logreg.coef
    assert coef[0] > 0 and abs(coef[0]) > abs(coef[2])


def test_logreg_is_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 4))
    y = rng.integers(0, 2, size=80)
    y[0], y[1] = 0, 1
    a = train_logreg(make_matrix(X, y))
    b = train_logreg(make_matrix(X, y))
    assert np.array_equal(a.logreg.coef, b.logreg.coef)
    assert a.logreg.intercept == b.logreg.intercept


def test_logreg_regularization_shrinks_weights():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(150, 3))
    y = (X[:, 0] > 0).astype(int)
    loose = train_logreg(make_matrix(X, y), {"l2": 0.001})
    tight = train_logreg(make_matrix(X, y), {"l2": 10.0})
    assert np.linalg.norm(tight.logreg.coef) < np.linalg.norm(loose.logreg.coef)


def test_logreg_constant_column_is_harmless():
    X = np.column_stack([np.ones(40), np.linspace(-1, 1, 40)])
    y = (X[:, 1] > 0).astype(int)
    m = make_matrix(X, y)
    model = train_logreg(m)
    assert auc(m.labels, model.predict(m)) == pytest.approx(1.0)
    assert np.isfinite(model.logreg.coef).all()
    assert model.logreg.coef[0] == 0.0  # exact: weight rankings see a tie, not noise


def test_logreg_single_class_is_error():
    X = np.ones((10, 2))
    with pytest.raises(ValueError, match="single class"):
        train_logreg(make_matrix(X, np.ones(10, dtype=int)))


TOL = HYPER["tol"][0]


def _objective(params: LogRegParams, X, y, l2):
    """The penalized mean log loss and its gradient at ``params``, from the
    definition, in the fit's scaled space; the intercept's entry is last."""
    Xs = params.scaler.transform(X)
    z = Xs @ params.coef + params.intercept
    loss = np.mean(np.logaddexp(0.0, -(2 * y - 1) * z)) + 0.5 * l2 * params.coef @ params.coef
    err = 0.5 * (1.0 + np.tanh(0.5 * z)) - y  # sigmoid(z) - y
    return loss, np.append(Xs.T @ err / len(y) + l2 * params.coef, err.mean())


def _gradient_descent(params: LogRegParams, X, y, l2, max_iter=2000, tol=1e-7):
    """``params`` moved to the point the earlier solver of this package
    returned: gradient descent from zero at learning rate 0.1, halved while
    a step would raise the loss, stopped when the loss falls by under
    ``tol``."""
    start = replace(params, coef=np.zeros_like(params.coef), intercept=0.0)
    Xs, n = params.scaler.transform(X), len(y)

    def loss(w, b):
        return _objective(replace(start, coef=w, intercept=b), X, y, l2)[0]

    w, b, lr = start.coef, 0.0, 0.1
    current = loss(w, b)
    for _ in range(max_iter):
        err = 0.5 * (1.0 + np.tanh(0.5 * (Xs @ w + b))) - y
        grad_w, grad_b = Xs.T @ err / n + l2 * w, err.mean()
        while True:
            w2, b2 = w - lr * grad_w, b - lr * grad_b
            new = loss(w2, b2)
            if new <= current or lr < 1e-12:
                break
            lr *= 0.5
        delta, w, b, current = current - new, w2, b2, new
        if abs(delta) < tol:
            break
    return replace(start, coef=w, intercept=b)


@st.composite
def logreg_problems(draw, l2s=(0.0, 0.01, 1.0)):
    """(X, y, l2): a few rows and columns of small floats, labels either
    free or a linear rule of X (separable), and both classes present."""
    n, p = draw(st.integers(4, 30)), draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.float64, (n, p), elements=st.floats(-10, 10)))
    if draw(st.booleans()):
        w = draw(hnp.arrays(np.float64, p, elements=st.floats(-1, 1)))
        score = X @ w
        y = (score > np.median(score)).astype(np.float64)
    else:
        y = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    assume(0.0 < y.sum() < n)
    return X, y, draw(st.sampled_from(l2s))


@given(logreg_problems())
def test_logreg_gradient_at_the_returned_point_is_below_tol(problem):
    X, y, l2 = problem
    params = train_logreg(make_matrix(X, y), {"l2": l2}).logreg
    _, grad = _objective(params, X, y, l2)
    assert params.converged and 0 <= params.n_iter <= HYPER["max_iter"][0]
    assert np.abs(grad).max() < TOL


@settings(max_examples=50)
@given(logreg_problems())
def test_logreg_loss_is_never_above_gradient_descent(problem):
    X, y, l2 = problem
    params = train_logreg(make_matrix(X, y), {"l2": l2}).logreg
    baseline = _gradient_descent(params, X, y, l2)
    # slack: the rounding of a mean of at most 30 log losses
    assert _objective(params, X, y, l2)[0] <= _objective(baseline, X, y, l2)[0] + 1e-12


@given(logreg_problems(l2s=(0.01, 1.0)))
def test_logreg_reaches_the_unique_optimum(problem):
    # With l2 > 0 the optimum is unique. Rows as given, permuted and each
    # duplicated, and a 100x tighter tol, all land on it; gradient descent
    # stops where its path and stopping rule take it.
    X, y, l2 = problem
    perm = np.random.default_rng(0).permutation(len(y))
    fits = [
        train_logreg(make_matrix(Xv, yv), {"l2": l2, "tol": tol}).logreg
        for Xv, yv, tol in [
            (X, y, 1e-11),
            (X[perm], y[perm], 1e-11),
            (np.repeat(X, 2, axis=0), np.repeat(y, 2), 1e-11),
            (X, y, 1e-13),
        ]
    ]
    for fit in fits[1:]:
        assert np.abs(fit.coef - fits[0].coef).max() <= 1e-8
        assert abs(fit.intercept - fits[0].intercept) <= 1e-8


# --- decision tree ------------------------------------------------------------


def _xor_matrix():
    X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    X = np.repeat(X, 5, axis=0)
    y = (X[:, 0] != X[:, 1]).astype(int)
    return make_matrix(X, y)


def test_tree_solves_xor_at_depth_two():
    m = _xor_matrix()
    model = train_tree(m, {"max_depth": 2, "min_samples_leaf": 1})
    scores = model.predict(m)
    assert auc(m.labels, scores) == pytest.approx(1.0)
    assert set(np.round(scores, 6)) == {0.0, 1.0}


def test_tree_threshold_is_midpoint():
    X = np.array([[1.0], [2.0], [2.0], [5.0]])
    y = np.array([0, 0, 1, 1])
    model = train_tree(make_matrix(X, y), {"max_depth": 1, "min_samples_leaf": 1})
    assert model.tree.threshold[0] in (1.5, 3.5)


def test_tree_tie_break_prefers_lowest_column_then_threshold():
    # both columns separate perfectly; column 0 must win
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0, 0, 1, 1])
    model = train_tree(make_matrix(X, y), {"max_depth": 1, "min_samples_leaf": 1})
    assert model.tree.column[0] == 0
    # two exactly equal-gain thresholds inside one column: lower one wins
    X2 = np.array([[0.0], [1.0], [2.0]])
    y2 = np.array([0, 1, 0])
    m2 = train_tree(make_matrix(X2, y2), {"max_depth": 1, "min_samples_leaf": 1})
    assert m2.tree.threshold[0] == 0.5


def test_tree_respects_depth_and_leaf_size():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 4))
    y = rng.integers(0, 2, size=120)
    y[:2] = [0, 1]
    model = train_tree(make_matrix(X, y), {"max_depth": 3, "min_samples_leaf": 10})
    assert model.tree.depth.max() <= 3
    assert (model.tree.n[model.tree.leaves] >= 10).all()


def test_tree_single_class_gives_constant_leaf():
    X = np.arange(10.0).reshape(-1, 1)
    model = train_tree(make_matrix(X, np.zeros(10, dtype=int)))
    assert model.tree.leaves.tolist() == [0]
    assert model.predict(make_matrix(X, np.zeros(10, dtype=int))).tolist() == [0.0] * 10


def test_tree_leaf_probabilities_are_class_fractions():
    X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0], [1.0], [1.0]])
    y = np.array([0, 0, 1, 1, 1, 1, 0])
    model = train_tree(make_matrix(X, y), {"max_depth": 1, "min_samples_leaf": 1})
    scores = model.predict(make_matrix(X, y))
    assert scores[0] == pytest.approx(1 / 3)
    assert scores[-1] == pytest.approx(3 / 4)


# --- random forest --------------------------------------------------------------


def test_forest_seeded_and_deterministic():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(100, 5))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    m = make_matrix(X, y)
    hyper = {"n_trees": 10}
    a = train_forest(m, hyper, seed=42)
    b = train_forest(m, hyper, seed=42)
    c = train_forest(m, hyper, seed=43)
    assert np.array_equal(a.predict(m), b.predict(m))
    assert not np.array_equal(a.predict(m), c.predict(m))


def test_forest_is_mean_of_trees():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] > 0).astype(int)
    m = make_matrix(X, y)
    model = train_forest(m, {"n_trees": 7}, seed=1)
    assert len(model.trees) == 7
    stacked = np.stack([t.prob[t.apply(m.rows)] for t in model.trees])
    assert np.allclose(model.predict(m), stacked.mean(axis=0))


def test_forest_signal_recovery():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 4))
    y = (X[:, 2] > 0).astype(int)
    m = make_matrix(X, y)
    model = train_forest(m, {"n_trees": 25}, seed=0)
    assert auc(m.labels, model.predict(m)) > 0.95


@pytest.mark.parametrize("train", [train_logreg, train_tree, train_forest, train_llm])
@pytest.mark.parametrize("hyper,message", [
    ({"ntrees": 3}, "unknown hyperparameter 'ntrees'"),
    ({"n_trees": 0}, "n_trees must be a whole number >= 1, got 0"),
    ({"l2": True}, "l2 must be finite and >= 0, got True"),
])
def test_trainers_check_their_hyperparameters(train, hyper, message):
    # a trainer called from the library checks what a ModelSpec checks: a
    # misspelt key is not left to its default, nor an empty forest grown
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    m = make_matrix(X, (X[:, 0] > 0).astype(int))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        train(m, hyper)


# --- logit leaf model -----------------------------------------------------------


def test_llm_forces_root_split_and_fits_leaves():
    # replicated XOR grid: every split has exactly zero gain, so the forced
    # root lands on column 0 / threshold 0.5 by tie-break, and each leaf is
    # then linearly separable on column 1
    m = _xor_matrix()
    model = train_llm(m, {"max_depth": 1, "min_samples_leaf": 5})
    assert model.tree.column[0] == 0 and model.tree.threshold[0] == 0.5
    assert len(model.leaf_models) == 2
    assert auc(m.labels, model.predict(m)) == pytest.approx(1.0)
    # plain logreg cannot express the interaction
    assert auc(m.labels, train_logreg(m).predict(m)) < 0.8


def test_llm_leaves_are_newton_optima_of_their_rows():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(400, 4))
    y = (rng.random(400) < 1.0 / (1.0 + np.exp(-2.0 * X[:, 0] * X[:, 1]))).astype(int)
    model = train_llm(make_matrix(X, y), {"max_depth": 2})
    reached = model.tree.apply(X)
    fitted = [(leaf, lm) for leaf, lm in zip(model.tree.leaves, model.leaf_models)
              if not isinstance(lm, ConstantLeaf)]
    assert len(fitted) >= 2
    for leaf, leaf_model in fitted:
        rows = reached == leaf
        _, grad = _objective(leaf_model, X[rows], y[rows], HYPER["l2"][0])
        assert leaf_model.converged and np.abs(grad).max() < TOL
        alone = train_logreg(make_matrix(X[rows], y[rows])).logreg
        assert np.array_equal(alone.coef, leaf_model.coef)
        assert alone.intercept == leaf_model.intercept


def test_llm_pure_leaf_becomes_constant():
    X = np.array([[0.0, v] for v in range(10)] + [[1.0, v] for v in range(10)])
    y = np.array([0] * 10 + [1] * 10)
    m = make_matrix(X, y)
    model = train_llm(m, {"max_depth": 1, "min_samples_leaf": 5})
    assert all(isinstance(lm, ConstantLeaf) for lm in model.leaf_models)
    assert [lm.prob for lm in model.leaf_models] == [0.0, 1.0]


def test_llm_no_legal_forced_split_is_error():
    X = np.ones((20, 2))  # constant matrix: no split possible
    y = np.array([0, 1] * 10)
    with pytest.raises(ValueError, match="no legal forced split"):
        train_llm(make_matrix(X, y), {"min_samples_leaf": 5})
    # too few rows for any split under min_samples_leaf
    X2 = np.arange(6.0).reshape(-1, 1)
    y2 = np.array([0, 1, 0, 1, 0, 1])
    with pytest.raises(ValueError, match="no legal forced split"):
        train_llm(make_matrix(X2, y2), {"min_samples_leaf": 5})


# --- flat tree layout -------------------------------------------------------------


def _descend(tree, row) -> int:
    """Oracle: walk one row from the root; ``x <= threshold`` goes left."""
    i = 0
    while tree.column[i] >= 0:
        i = tree.left[i] if row[tree.column[i]] <= tree.threshold[i] else tree.right[i]
    return int(i)


def _preorder(tree, i=0) -> list[int]:
    """Oracle: node indices in a recursive left-first preorder from the root."""
    if tree.column[i] < 0:
        return [i]
    return [i, *_preorder(tree, tree.left[i]), *_preorder(tree, tree.right[i])]


@st.composite
def _tied_problem(draw):
    """A small matrix of few distinct values (many ties), labels and hyper."""
    n = draw(st.integers(4, 40))
    p = draw(st.integers(1, 3))
    X = draw(hnp.arrays(np.float64, (n, p), elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    hyper = {
        "max_depth": draw(st.integers(1, 4)),
        "min_samples_leaf": draw(st.integers(1, 3)),
        "n_trees": 2,
    }
    return X, y, hyper, draw(st.booleans())


@settings(max_examples=80)
@given(_tied_problem())
def test_tree_apply_matches_descent_and_layout_invariants(problem):
    X, y, hyper, forest = problem
    m = make_matrix(X, y)
    trees = train_forest(m, hyper, seed=1).trees if forest else (train_tree(m, hyper).tree,)
    for tree in trees:
        splits = np.flatnonzero(tree.column >= 0)
        left, right = tree.left[splits], tree.right[splits]
        assert np.array_equal(left, splits + 1)
        assert np.array_equal(tree.left[tree.leaves], tree.leaves)
        assert np.array_equal(tree.right[tree.leaves], tree.leaves)
        assert np.array_equal(tree.n[left] + tree.n[right], tree.n[splits])
        assert np.array_equal(tree.depth[left], tree.depth[splits] + 1)
        assert np.array_equal(tree.depth[right], tree.depth[splits] + 1)
        visited = _preorder(tree)
        assert visited == list(range(len(tree.n)))
        assert tree.leaves.tolist() == [i for i in visited if tree.column[i] < 0]  # left to right
        # training values plus rows that sit exactly on each split threshold
        on_threshold = np.repeat(tree.threshold[splits], X.shape[1]).reshape(-1, X.shape[1])
        queries = np.vstack([X, on_threshold, X + 0.5])
        assert tree.apply(queries).tolist() == [_descend(tree, row) for row in queries]
        if not forest:  # a single tree is grown on X itself: its rows reach the leaves' n
            reached = np.bincount(tree.apply(X), minlength=len(tree.n))
            assert np.array_equal(reached[tree.leaves], tree.n[tree.leaves])


# --- presorted CART against the per-node argsort oracle -------------------------


def _reference_best_split(X, y, candidate_columns, min_samples_leaf):
    """Oracle: the split search CART made before rows were presorted, one
    stable argsort per candidate column per node. Best (gain, column,
    threshold); ties by lowest column, then threshold."""
    n = len(y)
    total_pos = float(y.sum())
    parent = _reference_gini(total_pos, n)
    best = None
    for col in candidate_columns:
        v = X[:, col]
        order = np.argsort(v, kind="mergesort")
        vs = v[order]
        cum_pos = np.cumsum(y[order])
        boundary = np.nonzero(vs[1:] > vs[:-1])[0]
        if boundary.size == 0:
            continue
        n_left = boundary + 1
        n_right = n - n_left
        valid = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
        if not valid.any():
            continue
        n_left = n_left[valid]
        n_right = n_right[valid]
        b = boundary[valid]
        pos_left = cum_pos[b]
        pos_right = total_pos - pos_left
        pl = pos_left / n_left
        pr = pos_right / n_right
        gini_left = 1.0 - pl * pl - (1.0 - pl) * (1.0 - pl)
        gini_right = 1.0 - pr * pr - (1.0 - pr) * (1.0 - pr)
        gains = parent - (n_left / n) * gini_left - (n_right / n) * gini_right
        k = int(np.argmax(gains))
        gain = float(gains[k])
        lower, upper = float(vs[b[k]]), float(vs[b[k] + 1])
        mid = (lower + upper) / 2.0
        threshold = mid if lower <= mid < upper else lower
        if best is None or gain > best[0]:
            best = (gain, col, threshold)
    return best


def _reference_gini(n_pos, n):
    if n == 0:
        return 0.0
    p = n_pos / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _reference_grow_tree(X, y, max_depth, min_samples_leaf, rng=None, mtry=None,
                         force_root=False) -> Tree:
    """Oracle: CART grown recursively on copies of each node's rows."""
    nodes = []

    def grow(X, y, depth, forced=False):
        n = len(y)
        n_pos = float(y.sum())
        node = [depth, -1, np.nan, len(nodes), n, _reference_gini(n_pos, n), n_pos / n]
        nodes.append(node)
        pure = n_pos == 0 or n_pos == n
        if depth >= max_depth or n < 2 * min_samples_leaf or (pure and not forced):
            return
        p = X.shape[1]
        if rng is not None and mtry is not None and mtry < p:
            cols = np.sort(rng.choice(p, size=mtry, replace=False))
        else:
            cols = range(p)
        split = _reference_best_split(X, y, list(cols), min_samples_leaf)
        if split is None:
            if forced:
                raise ValueError("no legal forced split")
            return
        _, column, threshold = split
        node[1:3] = column, threshold
        mask = X[:, column] <= threshold
        grow(X[mask], y[mask], depth + 1)
        node[3] = len(nodes)
        grow(X[~mask], y[~mask], depth + 1)

    grow(X, y, 0, force_root)
    depth, column, threshold, right, n, gini, prob = map(np.array, zip(*nodes))
    left = np.arange(len(nodes)) + (column >= 0)
    return Tree(depth, column, threshold, left, right, n, gini, prob)


def _reference_export(kind, m, hyper, seed):
    """Oracle: ``export_model`` text (or the ValueError) of a model trained
    by the reference CART; forest trees grow on a copy of their bootstrap
    rows, and the llm's leaves are fitted by ``train_llm`` itself."""
    X, y = m.rows, m.labels.astype(np.float64)
    h = models.with_defaults(hyper)
    depth, min_leaf = int(h["max_depth"]), int(h["min_samples_leaf"])
    try:
        if kind == "tree":
            return export_model(TrainedModel(
                "tree", m.column_names, tree=_reference_grow_tree(X, y, depth, min_leaf)))
        if kind == "forest":
            n, p = X.shape
            mtry = max(1, int(np.ceil(float(h["max_features_fraction"]) * p)))
            trees = []
            for t in range(int(h["n_trees"])):
                rng = np.random.default_rng(seed + t)
                idx = rng.integers(0, n, size=n)
                trees.append(_reference_grow_tree(X[idx], y[idx], depth, min_leaf, rng, mtry))
            return export_model(TrainedModel("forest", m.column_names, trees=tuple(trees)))

        def grow(X, y, max_depth, min_samples_leaf, force_root):
            return _reference_grow_tree(X, y, max_depth, min_samples_leaf, force_root=force_root)

        with patch.object(models, "_grow_tree", grow):
            return export_model(train_llm(m, hyper))
    except ValueError as error:
        return f"ValueError: {error}"


def _export(kind, m, hyper, seed):
    """``export_model`` text (or the ValueError) of the package's own fit."""
    try:
        if kind == "forest":
            return export_model(train_forest(m, hyper, seed=seed))
        return export_model({"tree": train_tree, "llm": train_llm}[kind](m, hyper))
    except ValueError as error:
        return f"ValueError: {error}"


@st.composite
def _mixed_problem(draw):
    """Columns of three kinds side by side (few distinct values, continuous,
    constant), labels, and hyper whose ``min_samples_leaf`` may leave a node,
    or the whole matrix, without a legal split."""
    n = draw(st.integers(2, 120))
    kinds = draw(st.lists(st.sampled_from(["tied", "continuous", "constant"]),
                          min_size=1, max_size=6))
    columns = []
    for kind in kinds:
        if kind == "tied":
            elements = st.sampled_from([0.0, 1.0, 2.0, 3.0])
        elif kind == "continuous":
            elements = st.floats(-1e3, 1e3)
        else:
            elements = st.just(draw(st.floats(-10, 10)))
        columns.append(draw(hnp.arrays(np.float64, n, elements=elements)))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    hyper = {
        "max_depth": draw(st.integers(1, 5)),
        "min_samples_leaf": draw(st.integers(1, n // 2 + 2)),
        "n_trees": draw(st.integers(1, 3)),
        "max_features_fraction": draw(st.sampled_from([0.2, 0.5, 1.0])),
    }
    return np.column_stack(columns), y, hyper


@settings(max_examples=150)
@given(
    st.one_of(_tied_problem().map(lambda problem: problem[:3]), _mixed_problem()),
    st.sampled_from([1, 5, 64, models.SEARCH_BLOCK]),  # sorted values per search block
    st.integers(0, 5),
)
def test_presorted_cart_exports_equal_the_per_node_argsort_oracle(problem, block, seed):
    X, y, hyper = problem
    m = make_matrix(X, y)
    with patch.object(models, "SEARCH_BLOCK", block):
        for kind in ("tree", "forest", "llm"):
            assert _export(kind, m, hyper, seed) == _reference_export(kind, m, hyper, seed)


def test_split_between_adjacent_floats_sends_rows_by_x_le_threshold():
    # the midpoint of two adjacent floats rounds to the upper one here, so
    # the lower one is the threshold: the rows go as the chosen gain assumed
    a, b = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    assert (a + b) / 2.0 == b
    m = make_matrix([[a], [b], [2.0]], [0, 1, 1])
    hyper = {"max_depth": 1, "min_samples_leaf": 1}
    tree = train_tree(m, hyper).tree
    assert tree.threshold[0] == a and tree.n.tolist() == [3, 1, 2]
    assert _export("tree", m, hyper, 0) == _reference_export("tree", m, hyper, 0)
    deeper = {"max_depth": 2, "min_samples_leaf": 1}
    assert train_tree(m, deeper).tree.n.tolist() == [3, 1, 2]  # both sides pure
    assert _export("tree", m, deeper, 0) == _reference_export("tree", m, deeper, 0)


@pytest.mark.parametrize("x", [[1e308, 1.5e308, 1.7e308], [-1.7e308, -1.5e308, -1e308]])
def test_split_between_huge_values_keeps_a_finite_threshold(x):
    # the midpoint of the first two values overflows to +-inf
    m = make_matrix([[v] for v in x], [0, 1, 1])
    hyper = {"max_depth": 2, "min_samples_leaf": 1}
    tree = train_tree(m, hyper).tree
    assert tree.threshold[0] == x[0] and tree.n.tolist()[:2] == [3, 1]
    assert _export("tree", m, hyper, 0) == _reference_export("tree", m, hyper, 0)


def test_presorted_cart_equals_the_oracle_across_default_search_blocks():
    # 20000 rows: the default block holds one column, so the root's search
    # spans one block per column
    rng = np.random.default_rng(17)
    n = 20000
    assert models.SEARCH_BLOCK < 2 * n
    X = np.column_stack([rng.integers(0, 10, n), rng.normal(size=n), np.full(n, 2.0)])
    y = (rng.random(n) < 0.2 + 0.05 * X[:, 0]).astype(int)
    m = make_matrix(X, y)
    hyper = {"max_depth": 4, "min_samples_leaf": 20, "n_trees": 2,
             "max_features_fraction": 0.5}
    for kind in ("tree", "forest", "llm"):
        assert _export(kind, m, hyper, 3) == _reference_export(kind, m, hyper, 3)


@pytest.mark.parametrize("trainer", [train_tree, train_forest, train_llm])
def test_zero_row_matrix_scores_to_empty(trainer):
    model = trainer(_xor_matrix())
    empty = make_matrix(np.empty((0, 2)), np.empty(0, dtype=int))
    assert model.predict(empty).shape == (0,)


@pytest.mark.parametrize("trainer", [train_logreg, train_tree, train_forest, train_llm])
def test_training_on_zero_rows_is_a_value_error(trainer):
    empty = make_matrix(np.empty((0, 2)), np.empty(0, dtype=int))
    with pytest.raises(ValueError):
        trainer(empty)


# --- predictor contract ----------------------------------------------------------


@pytest.mark.parametrize("trainer", [train_logreg, train_tree, train_forest, train_llm])
def test_scores_stay_in_unit_interval(trainer):
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 4))
    y = (X[:, 0] > 0.2).astype(int)
    m = make_matrix(X, y)
    model = trainer(m)
    scores = model.predict(m)
    assert scores.shape == (100,)
    assert np.all(scores >= 0.0) and np.all(scores <= 1.0)


def test_column_signature_mismatch_is_error():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 2))
    y = (X[:, 0] > 0).astype(int)
    model = train_logreg(make_matrix(X, y, names=["a", "b"]))
    wrong = make_matrix(X, y, names=["a", "c"])
    with pytest.raises(ValueError, match="signature"):
        model.predict(wrong)


# --- subprocess bridge -----------------------------------------------------------


def _bridge_matrix(n=10, p=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = rng.integers(0, 2, size=n)
    return make_matrix(X, y)


def _script(tmp_path, body):
    path = tmp_path / "scorer.py"
    path.write_text(body, encoding="utf-8")
    return f"{sys.executable} {path}"


CONSTANT_SCORER = """\
import sys
lines = sys.stdin.read().splitlines()
for _ in lines[1:]:
    print(0.5)
"""


def test_bridge_happy_path(tmp_path):
    m = _bridge_matrix()
    scores = external_predict(_script(tmp_path, CONSTANT_SCORER), m)
    assert scores.tolist() == [0.5] * m.n_rows
    wrapped = external_model(_script(tmp_path, CONSTANT_SCORER), m.column_names)
    assert wrapped.predict(m).tolist() == [0.5] * m.n_rows


def test_bridge_receives_header_without_label(tmp_path):
    body = """\
import sys
lines = sys.stdin.read().splitlines()
header = lines[0].split(",")
assert all(":" in h for h in header), header
assert not any(h.startswith("label") for h in header), header
for _ in lines[1:]:
    print(0.0)
"""
    m = _bridge_matrix()
    scores = external_predict(_script(tmp_path, body), m)
    assert scores.tolist() == [0.0] * m.n_rows


def test_bridge_line_count_mismatch(tmp_path):
    body = "print(0.5)\n"
    with pytest.raises(BridgeError, match="line count mismatch"):
        external_predict(_script(tmp_path, body), _bridge_matrix())


def test_bridge_out_of_range_probability(tmp_path):
    body = """\
import sys
for _ in sys.stdin.read().splitlines()[1:]:
    print(1.5)
"""
    with pytest.raises(BridgeError, match=r"outside \[0, 1\]"):
        external_predict(_script(tmp_path, body), _bridge_matrix())


def test_bridge_non_decimal_output(tmp_path):
    body = """\
import sys
for _ in sys.stdin.read().splitlines()[1:]:
    print("nope")
"""
    with pytest.raises(BridgeError, match="not a decimal"):
        external_predict(_script(tmp_path, body), _bridge_matrix())


def test_bridge_nonzero_exit(tmp_path):
    body = "import sys; sys.exit(3)\n"
    with pytest.raises(BridgeError, match="exited with 3"):
        external_predict(_script(tmp_path, body), _bridge_matrix())


def test_bridge_timeout_kills_the_child(tmp_path):
    body = "import time\ntime.sleep(60)\n"
    start = time.perf_counter()
    with pytest.raises(BridgeError, match=r"^external command timed out after 0\.5s$"):
        external_predict(_script(tmp_path, body), _bridge_matrix(), timeout=0.5)
    assert time.perf_counter() - start < 30.0
    with pytest.raises(ChildProcessError):  # killed and reaped: no child is left
        os.waitpid(-1, os.WNOHANG)


def test_bridge_joint_launch_counts_the_rows_of_every_copy(tmp_path):
    m = _bridge_matrix()
    copies = [{0: np.zeros(m.n_rows)}, {}, {1: np.ones(m.n_rows), 2: np.ones(m.n_rows)}]
    with pytest.raises(BridgeError, match="^line count mismatch: expected 30, got 1$"):
        external_predict(_script(tmp_path, "print(0.5)\n"), m, copies)


def test_bridge_launches_nothing_for_no_rows(tmp_path):
    failing = _script(tmp_path, "import sys; sys.exit(3)\n")
    m = _bridge_matrix()
    assert external_predict(failing, m, []).shape == (0,)
    assert external_predict(failing, _bridge_matrix(n=0)).shape == (0,)


class _Counting:
    """Scores row sums and records the row count of every predict call."""

    def __init__(self):
        self.calls = []

    def predict(self, m):
        self.calls.append(m.n_rows)
        return m.rows.sum(axis=1)


def test_score_copies_predicts_each_copy_once_in_process():
    m = _bridge_matrix()
    copies = [{0: np.zeros(m.n_rows)}, {}, {1: np.arange(m.n_rows), 2: 3.0}]
    predictor = _Counting()
    scores = list(score_copies(predictor, m, iter(copies)))
    assert predictor.calls == [m.n_rows] * len(copies)
    for copy, got in zip(copies, scores):
        rows = m.rows.copy()
        for column, values in copy.items():
            rows[:, column] = values
        assert got.tobytes() == rows.sum(axis=1).tobytes()
    assert list(score_copies(predictor, m, iter([]))) == []
    assert predictor.calls == [m.n_rows] * len(copies)


def test_score_copies_draws_one_copy_at_a_time_in_process():
    m = _bridge_matrix()
    drawn = []

    def copies():
        for k in range(3):
            drawn.append(k)
            yield {0: np.full(m.n_rows, float(k))}

    scores = score_copies(_Counting(), m, copies())
    next(scores)
    assert drawn == [0]  # the next copy is not drawn before its score is asked for


def test_score_copies_scores_every_copy_in_one_launch_and_none_for_no_copies(tmp_path):
    launches = tmp_path / "launches.txt"
    body = f"""\
import sys
with open({str(launches)!r}, "a", encoding="utf-8") as fh:
    fh.write("launch\\n")
for line in sys.stdin.read().splitlines()[1:]:
    print(repr(abs(float(line.split(",")[0])) % 1.0))
"""
    model = external_model(_script(tmp_path, body), _bridge_matrix().column_names)
    m = _bridge_matrix()
    copies = [{0: np.full(m.n_rows, 0.25)}, {}, {0: np.full(m.n_rows, 1.5)}]
    scores = list(score_copies(model, m, iter(copies)))
    assert launches.read_text(encoding="utf-8") == "launch\n"
    assert [s.tolist() for s in scores] == [
        [0.25] * m.n_rows, (np.abs(m.rows[:, 0]) % 1.0).tolist(), [0.5] * m.n_rows]
    assert list(score_copies(model, m, iter([]))) == []
    assert [s.shape for s in score_copies(model, _bridge_matrix(n=0), iter([{}, {}]))] == [(0,)] * 2
    assert launches.read_text(encoding="utf-8") == "launch\n"  # nothing more was launched


def test_bridge_values_round_trip_exactly(tmp_path):
    # echo back a value derived from the first column: repr() cells must
    # reproduce float64 values exactly
    body = """\
import sys
lines = sys.stdin.read().splitlines()
for line in lines[1:]:
    x = float(line.split(",")[0])
    print(repr(abs(x) / (1.0 + abs(x))))
"""
    m = _bridge_matrix(n=50)
    got = external_predict(_script(tmp_path, body), m)
    x = np.asarray(m.rows)[:, 0]
    assert np.array_equal(got, np.abs(x) / (1.0 + np.abs(x)))


# --- export ----------------------------------------------------------------------


def test_export_logreg_contains_all_columns():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(int)
    model = train_logreg(make_matrix(X, y, names=["alpha", "beta", "gamma"]))
    text = export_model(model)
    assert text.startswith("kind\tlogreg\n")
    assert "intercept\t" in text
    for name in ("alpha", "beta", "gamma"):
        assert f"\n{name}\t" in text


def test_export_tree_and_llm_are_parseable_shapes():
    m = _xor_matrix()
    tree_text = export_model(train_tree(m, {"max_depth": 2, "min_samples_leaf": 1}))
    assert tree_text.startswith("kind\ttree\n")
    assert tree_text.count("split column=") >= 1
    llm = train_llm(
        make_matrix(
            np.column_stack([np.arange(20.0), np.arange(20.0) % 3]),
            np.array([0, 1] * 10),
        ),
        {"max_depth": 1, "min_samples_leaf": 5},
    )
    llm_text = export_model(llm)
    assert llm_text.startswith("kind\tllm\n")
    assert "leaf_model\t0" in llm_text and "leaf_model\t1" in llm_text
