"""Task models: logistic regression, CART, random forest, logit leaf model,
an AUC evaluator, and a subprocess bridge to external scorers.

Every trained model satisfies the predictor contract: scores in [0, 1],
one per row, deterministic for a fixed model state.
"""

from __future__ import annotations

import math
import numbers
import os
import select
import shlex
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from xpop.preprocess import EncodedMatrix, copy_csv_rows

_WHOLE = ("a whole number >= 1", lambda v: float(v).is_integer() and v >= 1)
# hyperparameter -> (default, rule, check). Each trainer checks every key its
# caller gives against the rule, lays them over the defaults and reads the
# keys of its kind; a ModelSpec checks its keys when it is built.
HYPER = {
    "l2": (0.01, "finite and >= 0", lambda v: math.isfinite(v) and v >= 0),
    "tol": (1e-7, "finite and > 0", lambda v: math.isfinite(v) and v > 0),
    "max_iter": (2000, *_WHOLE),
    "max_depth": (6, *_WHOLE),
    "min_samples_leaf": (5, *_WHOLE),
    "n_trees": (100, *_WHOLE),
    "max_features_fraction": (0.5, "in (0, 1]", lambda v: 0 < v <= 1),
}


def with_defaults(hyper: Mapping[str, float] | None) -> dict:
    """Every default of ``HYPER``, overridden by ``hyper``. Each key of
    ``hyper`` must be in ``HYPER``, and its value a real number, not a bool,
    that keeps the key's rule; else a ValueError names the key."""
    hyper = dict(hyper or {})
    for key, value in hyper.items():
        if key not in HYPER:
            raise ValueError(f"unknown hyperparameter {key!r}")
        _, rule, check = HYPER[key]
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and check(value)):
            raise ValueError(f"{key} must be {rule}, got {value!r}")
    return {key: default for key, (default, _, _) in HYPER.items()} | hyper


class BridgeError(RuntimeError):
    """The external scoring command violated the bridge protocol."""


@dataclass(frozen=True)
class Scaler:
    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)  # zero-variance columns pass through
        return cls(mean, std)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.std


@dataclass(frozen=True)
class LogRegParams:
    coef: np.ndarray
    intercept: float
    scaler: Scaler
    n_iter: int = 0  # Newton steps taken; not exported
    converged: bool = True  # gradient below tol at the returned point; not exported

    def score(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.scaler.transform(X) @ self.coef + self.intercept)


@dataclass(frozen=True)
class Tree:
    """Fitted CART trees in one table: one array per field, one entry per
    node, each tree in preorder (left subtree first) after the one before;
    a tree's root is its node at depth 0. So a split's left child is the
    next node, leaves in array order run left to right, and array order is
    export order. At a leaf, ``column`` is -1, ``threshold`` is NaN, and
    ``left`` and ``right`` point back at the leaf."""

    depth: np.ndarray
    column: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n: np.ndarray
    gini: np.ndarray
    prob: np.ndarray

    @property
    def roots(self) -> np.ndarray:  # one per tree, in tree order
        return np.flatnonzero(self.depth == 0)

    @property
    def leaves(self) -> np.ndarray:
        """Leaf node indices, left to right, tree after tree."""
        return np.flatnonzero(self.column < 0)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """The (trees x rows) leaves the rows of ``X`` (C-contiguous) reach;
        ``x <= threshold`` goes left. All pairs step together as deep as the
        deepest tree goes; a pair that reached its leaf steps back onto it."""
        at_row = np.arange(len(X)) * X.shape[1]  # flat offset of each row in X
        column = np.maximum(self.column, 0)  # any valid column: a leaf's test is moot
        children = np.stack([self.right, self.left], axis=1).ravel()  # 2 * node + go_left
        node = np.repeat(self.roots[:, None], len(X), axis=1)
        for _ in range(self.depth.max()):
            go_left = X.take(at_row + column.take(node)) <= self.threshold.take(node)
            node = children.take(2 * node + go_left)
        return node

    def split_gains(self) -> tuple[np.ndarray, np.ndarray]:
        """(column, Gini decrease weighted by the node's share of its root's
        rows) of each split, in table order."""
        s = np.flatnonzero(self.column >= 0)
        left, right, n = self.left[s], self.right[s], self.n[s]
        root_n = self.n[self.roots][np.cumsum(self.depth == 0)[s] - 1]
        child_gini = self.n[left] / n * self.gini[left] + self.n[right] / n * self.gini[right]
        return self.column[s], n / root_n * (self.gini[s] - child_gini)


@dataclass(frozen=True)
class TrainedModel:
    kind: str
    columns: tuple[str, ...]
    logreg: Optional[LogRegParams] = None
    tree: Optional[Tree] = None  # tree, forest and llm: every tree of the model
    leaf_models: tuple = ()  # llm: one ConstantLeaf or LogRegParams per leaf, in leaf order
    command: Optional[str] = None

    def predict(self, m: EncodedMatrix) -> np.ndarray:
        return predict_proba(self, m)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_loss(z: np.ndarray, sign: np.ndarray, w: np.ndarray, l2: float) -> float:
    """Mean log loss of the scores ``z`` against labels ``sign`` in {-1, 1},
    plus the L2 penalty on ``w``; log(1 + exp(-s*z)) computed stably via
    logaddexp."""
    return float(np.mean(np.logaddexp(0.0, -sign * z))) + 0.5 * l2 * float(w @ w)


def _check_two_classes(y: np.ndarray) -> None:
    if len(np.unique(y)) < 2:
        raise ValueError("labels contain a single class")


ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking line search
STEPS = 0.5 ** np.arange(41)  # step lengths tried, from the full Newton step down
RIDGE = 1e-10  # of the Hessian's trace, added to its diagonal: condition number <= 1e10
LOSS_RTOL = 1e-12  # a loss change below this fraction of the loss is rounding


def _fit_logreg_arrays(
    X: np.ndarray, y: np.ndarray, l2: float, max_iter: int, tol: float
) -> LogRegParams:
    scaler = Scaler.fit(X)
    n, p = X.shape
    A = np.empty((n, p + 1))  # [Xs, 1]: the last weight is the intercept
    np.divide(np.subtract(X, scaler.mean, out=A[:, :p]), scaler.std, out=A[:, :p])
    A[:, p] = 1.0
    penalty = np.full(p + 1, l2)
    penalty[p] = 0.0  # the intercept is unpenalized
    sign = 2.0 * y - 1.0
    theta = np.zeros(p + 1)
    z = np.zeros(n)
    loss = _log_loss(z, sign, theta[:p], l2)
    n_iter = 0
    while True:
        prob = _sigmoid(z)
        grad = A.T @ (prob - y) / n + penalty * theta
        converged = bool(np.max(np.abs(grad)) < tol)
        if converged or n_iter == max_iter:
            break
        hess = (A * (prob * (1.0 - prob))[:, None]).T @ A / n + np.diag(penalty)
        # The ridge keeps a (near) singular Hessian solvable: at l2 = 0 with a
        # constant or repeated column, or no more rows than weights. It bends
        # the step of a well-conditioned Hessian only slightly and moves no
        # optimum, since the stopping test reads the exact gradient.
        hess[np.diag_indices(p + 1)] += RIDGE * np.trace(hess)
        direction = np.linalg.solve(hess, -grad)
        slope = float(grad @ direction)
        for t in STEPS:  # Armijo backtracking from the full Newton step
            trial = theta + t * direction
            trial_z = A @ trial
            trial_loss = _log_loss(trial_z, sign, trial[:p], l2)
            # A predicted decrease the loss cannot resolve is taken on trust.
            if trial_loss <= loss + ARMIJO * t * slope or 0.0 < -slope <= LOSS_RTOL * loss:
                break
        else:
            break  # no decrease left in floating point
        theta, z, loss = trial, trial_z, trial_loss
        n_iter += 1
    return LogRegParams(theta[:p].copy(), float(theta[p]), scaler, n_iter, converged)


def train_logreg(m: EncodedMatrix, hyper: Mapping[str, float] | None = None) -> TrainedModel:
    """L2-regularized logistic regression, solved exactly by damped Newton.

    Features are z-scored on the training matrix (zero-std columns scaled
    by 1); the intercept is unpenalized. Each iteration (IRLS) solves the
    Newton system on ``[Xs, 1]``, with a ridge of 1e-10 of the Hessian's
    trace so that a singular one (``l2 = 0``) stays solvable, and backtracks
    from the full step until the Armijo condition holds. The fit stops when
    the gradient's infinity-norm is below ``tol``; ``max_iter`` only caps
    the iterations. ``n_iter`` and ``converged`` on the fitted
    ``LogRegParams`` say how it ended; ``export_model`` does not print them.
    """
    h = with_defaults(hyper)
    y = m.labels.astype(np.float64)
    if m.n_rows < 2:
        raise ValueError("need at least 2 rows")
    _check_two_classes(m.labels)
    params = _fit_logreg_arrays(m.rows, y, float(h["l2"]), int(h["max_iter"]), float(h["tol"]))
    return TrainedModel("logreg", m.column_names, logreg=params)


def _gini(n_pos: float | np.ndarray, n: float | np.ndarray) -> float | np.ndarray:
    """Gini impurity of ``n`` rows of which ``n_pos`` are positive;
    elementwise on arrays."""
    p = n_pos / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


SEARCH_BLOCK = 1 << 15  # sorted values one block of a split search holds


def _presort(X: np.ndarray) -> np.ndarray:
    """The row ids of ``X`` in ascending order of each column, one row per
    column; int32, so ``X`` has fewer than 2**31 rows. Tied rows come in any
    order: no split depends on it."""
    order = np.empty(X.shape[::-1], dtype=np.int32)
    for j in range(X.shape[1]):
        order[j] = np.argsort(X[:, j])
    return order


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    columns: np.ndarray,
    n_pos: float,
    gini: float,
    min_samples_leaf: int,
) -> Optional[tuple[float, int, float]]:
    """Best (gain, column, threshold) of a node whose rows, sorted by column
    ``j``, are ``order[j]``; ``n_pos`` of them are positive (``y``: int8
    labels in {0, 1}) and ``gini`` is their impurity. Ties go to the lowest
    column, then the lowest threshold.

    ``columns`` (ascending) are searched in blocks of at most
    ``SEARCH_BLOCK`` sorted values, and gains are taken only at value
    boundaries that leave ``min_samples_leaf`` rows on each side."""
    n = order.shape[1]
    first = max(min_samples_leaf, 1) - 1  # boundary i splits sorted rows [..i] | [i+1..]
    stop = min(n - min_samples_leaf, n - 1)
    best: Optional[tuple[float, int, float]] = None
    if first >= stop:
        return best
    width = max(1, SEARCH_BLOCK // n)
    index = np.int32 if X.size < 2**31 else np.intp  # holds every flat index of X
    stride, offsets = index(X.shape[1]), columns.astype(index)
    for start in range(0, len(columns), width):
        block = columns[start:start + width]
        rows = order.take(block, axis=0)
        values = X.take(rows * stride + offsets[start:start + width, None])
        at = np.flatnonzero(values[:, first + 1:stop + 1] > values[:, first:stop])
        if at.size == 0:
            continue
        r, i = np.divmod(at, stop - first)
        i += first
        # exact integer counts: the gains' float64 bits are those of float counts
        pos_left = np.cumsum(y.take(rows), axis=1, dtype=np.int32)[r, i]
        n_left = i + 1
        n_right = n - n_left
        gains = (gini - n_left / n * _gini(pos_left, n_left)
                 - n_right / n * _gini(n_pos - pos_left, n_right))
        k = int(np.argmax(gains))  # first max: lowest column, then threshold
        if best is None or gains[k] > best[0]:
            lower, upper = float(values[r[k], i[k]]), float(values[r[k], i[k] + 1])
            mid = (lower + upper) / 2.0  # Python floats: an overflow is inf, not a warning
            # x <= threshold must send lower left and upper right; the midpoint
            # of adjacent floats can round up to upper, or overflow
            best = (float(gains[k]), int(block[r[k]]), mid if lower <= mid < upper else lower)
    return best


def _grow_tree(
    nodes: list[list],
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_samples_leaf: int,
    order: Optional[np.ndarray] = None,
    counts: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
    mtry: Optional[int] = None,
    force_root: bool = False,
) -> list[list]:
    """CART on the rows of ``X`` (C-contiguous) and the labels ``y``, grown
    in preorder onto ``nodes`` (returned), one row per node as ``_table`` reads.

    Rows are sorted by each column once: here, or by the caller, who passes
    ``_presort(X)`` as ``order`` (int32 row ids, so fewer than 2**31 rows).
    A node that will search holds its row ids sorted by every column; its
    children's are stable compresses of them, made only for a child that
    will search itself. With ``counts``, the tree grows on a bootstrap
    sample given as each row's multiplicity: row ``i`` repeats
    ``counts[i]`` times in every column's order. A split's gain depends only
    on which rows lie below each boundary, not on the order of tied values,
    so the trees equal those grown on a copy of the sample. With ``rng`` and
    ``mtry < p``, each searching node draws its candidate columns, in
    preorder."""
    n_rows, p = X.shape
    if order is None:
        order = _presort(X)
    if counts is None:
        n, n_pos = n_rows, float(y.sum())
    else:
        n, n_pos = int(counts.sum()), float(counts @ y)
        order = np.repeat(order.ravel(), counts.take(order).ravel()).reshape(p, n)
    if n == 0:
        raise ValueError("cannot grow a tree on 0 rows")
    sample = rng is not None and mtry is not None and mtry < p
    all_columns = np.arange(p)
    labels = y.astype(np.int8)  # gathered and counted narrow by the split search
    go_left = np.zeros(n_rows, dtype=bool)

    def searches(n: int, n_pos: float, depth: int, forced: bool = False) -> bool:
        # A node splits whenever it is impure (or forced) and a legal split exists.
        return depth < max_depth and n >= 2 * min_samples_leaf and (forced or 0 < n_pos < n)

    # (sorted row ids or None for a leaf, n, n_pos, depth, parent of a right child)
    stack = [(order if searches(n, n_pos, 0, force_root) else None, n, n_pos, 0, None)]
    del order  # the stack holds a node's sorted rows alone, so they are freed once it splits
    while stack:
        order, n, n_pos, depth, parent = stack.pop()
        if parent is not None:
            parent[3] = len(nodes)
        node = [depth, -1, np.nan, len(nodes), n, _gini(n_pos, n), n_pos / n]
        nodes.append(node)
        if order is None:
            continue
        cols = np.sort(rng.choice(p, size=mtry, replace=False)) if sample else all_columns
        split = _best_split(X, labels, order, cols, n_pos, node[5], min_samples_leaf)
        if split is None:
            if force_root and depth == 0:
                raise ValueError("no legal forced split")
            continue
        _, column, threshold = split
        node[1:3] = column, threshold
        ranked = order[column]
        n_left = int(np.searchsorted(X[:, column].take(ranked), threshold, side="right"))
        left_rows = ranked[:n_left]
        pos_left = float(y.take(left_rows).sum())
        n_right, pos_right = n - n_left, n_pos - pos_left
        left = searches(n_left, pos_left, depth + 1)
        right = searches(n_right, pos_right, depth + 1)
        left_order = right_order = None
        if left or right:  # compress each column's sorted rows to each side, stably
            go_left[left_rows] = True
            mask = go_left.take(order).ravel()
            go_left[left_rows] = False
            if left:
                left_order = order.ravel().compress(mask).reshape(p, n_left)
            if right:
                right_order = order.ravel().compress(~mask).reshape(p, n_right)
        stack.append((right_order, n_right, pos_right, depth + 1, node))
        stack.append((left_order, n_left, pos_left, depth + 1, None))
    return nodes


def _table(nodes: list[list]) -> Tree:
    """The ``Tree`` of the node rows ``_grow_tree`` appended."""
    depth, column, threshold, right, n, gini, prob = map(np.array, zip(*nodes))
    left = np.arange(len(nodes)) + (column >= 0)
    return Tree(depth, column, threshold, left, right, n, gini, prob)


def train_tree(m: EncodedMatrix, hyper: Mapping[str, float] | None = None) -> TrainedModel:
    """CART with Gini impurity; single-class input yields a depth-0 leaf."""
    h = with_defaults(hyper)
    X = np.ascontiguousarray(m.rows, dtype=np.float64)
    y = m.labels.astype(np.float64)
    nodes = _grow_tree([], X, y, int(h["max_depth"]), int(h["min_samples_leaf"]))
    return TrainedModel("tree", m.column_names, tree=_table(nodes))


def train_forest(m: EncodedMatrix, hyper: Mapping[str, float] | None = None,
                 seed: int = 0) -> TrainedModel:
    """Bagged CART forest with per-split column subsampling, fully seeded.

    The training matrix is sorted once for all trees; each tree's bootstrap
    sample reaches ``_grow_tree`` as row multiplicities, into one node list."""
    h = with_defaults(hyper)
    X = np.ascontiguousarray(m.rows, dtype=np.float64)
    y = m.labels.astype(np.float64)
    n, p = X.shape
    mtry = max(1, int(np.ceil(float(h["max_features_fraction"]) * p)))
    order = _presort(X)
    nodes = []
    for t in range(int(h["n_trees"])):
        rng = np.random.default_rng(seed + t)
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        _grow_tree(nodes, X, y, int(h["max_depth"]), int(h["min_samples_leaf"]),
                   order=order, counts=counts, rng=rng, mtry=mtry)
    return TrainedModel("forest", m.column_names, tree=_table(nodes))


@dataclass(frozen=True)
class ConstantLeaf:
    prob: float

    def score(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), self.prob)


def train_llm(m: EncodedMatrix, hyper: Mapping[str, float] | None = None) -> TrainedModel:
    """Logit leaf model: CART segmentation with a forced root split and an
    independent logistic regression per leaf (single-class leaves become
    constant 0/1 predictors)."""
    h = with_defaults(hyper)
    X = np.ascontiguousarray(m.rows, dtype=np.float64)
    y = m.labels.astype(np.float64)
    _check_two_classes(m.labels)
    min_leaf = int(h["min_samples_leaf"])
    if len(y) < 2 * min_leaf:
        raise ValueError("no legal forced split: too few rows")
    tree = _table(_grow_tree([], X, y, int(h["max_depth"]), min_leaf, force_root=True))
    reached = tree.apply(X)[0]
    leaf_models = []
    for leaf in tree.leaves:
        rows = reached == leaf
        y_leaf = y[rows]
        if y_leaf.min() == y_leaf.max():
            leaf_models.append(ConstantLeaf(float(y_leaf[0])))
        else:
            leaf_models.append(_fit_logreg_arrays(
                X[rows], y_leaf, float(h["l2"]), int(h["max_iter"]), float(h["tol"])
            ))
    return TrainedModel("llm", m.column_names, tree=tree, leaf_models=tuple(leaf_models))


def external_model(command: str, columns: Sequence[str]) -> TrainedModel:
    """Wrap an external scoring command as a predictor."""
    return TrainedModel("external", tuple(columns), command=command)


def predict_proba(model: TrainedModel, m: EncodedMatrix) -> np.ndarray:
    if model.columns != m.column_names:
        raise ValueError("column signature mismatch between model and matrix")
    X = np.ascontiguousarray(m.rows, dtype=np.float64)
    if model.kind == "logreg":
        return model.logreg.score(X)
    if model.kind in ("tree", "forest"):
        return model.tree.prob[model.tree.apply(X)].mean(axis=0)
    if model.kind == "llm":
        reached = model.tree.apply(X)[0]
        out = np.empty(len(X), dtype=np.float64)
        for leaf, leaf_model in zip(model.tree.leaves, model.leaf_models):
            rows = reached == leaf
            out[rows] = leaf_model.score(X[rows])
        return out
    if model.kind == "external":
        return external_predict(model.command, m)
    raise ValueError(f"unknown model kind {model.kind!r}")


def read_columns(predictor) -> Optional[frozenset[int]]:
    """The indices of the columns whose values can move ``predictor``'s
    scores: for a ``tree`` or ``forest``, the columns its trees split on,
    since a row's leaves depend on nothing else. None, meaning every column,
    for any other predictor: ``logreg``, ``llm`` (its leaf regressions read
    every column), ``external``, or any object with ``predict``."""
    if isinstance(predictor, TrainedModel) and predictor.kind in ("tree", "forest"):
        return frozenset(predictor.tree.column[predictor.tree.column >= 0].tolist())
    return None


def checked_predict(predictor, m: EncodedMatrix) -> np.ndarray:
    """``predictor``'s scores of ``m`` as float64, refused unless there is
    one per row."""
    scores = np.asarray(predictor.predict(m), dtype=np.float64)
    if scores.shape != (m.n_rows,):
        raise ValueError(f"predictor returned {scores.shape} scores for {m.n_rows} rows")
    return scores


def score_copies(
    predictor, m: EncodedMatrix, copies: Iterable[Mapping[int, np.ndarray]]
) -> Iterator[np.ndarray]:
    """Scores of copies of ``m``, drawn one at a time from ``copies``, one
    array per copy, in order. A copy maps column indices to replacement
    values; its other columns keep ``m``'s values. An external model scores
    all copies in one ``Launch``, split back by ``m``'s row count; any other
    predictor (a ``TrainedModel`` or any object with ``predict``) gets one
    ``checked_predict`` per copy, built as its own ``EncodedMatrix`` that
    shares ``m``'s labels. Neither holds a copy past
    its scoring or writing."""
    if isinstance(predictor, TrainedModel) and predictor.kind == "external":
        launch = Launch(predictor.command, m, copies)
        try:
            scores = launch.copy_scores()
        finally:
            launch.stop()
        yield from scores
    else:

        def scored(copy: Mapping[int, np.ndarray]) -> np.ndarray:
            rows = np.array(m.rows, dtype=np.float64)
            for column, values in copy.items():
                rows[:, column] = values
            return checked_predict(predictor, EncodedMatrix(m.columns, rows, m.labels))

        yield from map(scored, copies)


def external_predict(
    command: str,
    m: EncodedMatrix,
    copies: Optional[Iterable[Mapping[int, np.ndarray]]] = None,
    timeout: float = 300.0,
) -> np.ndarray:
    """Score rows through an external command over the stdin/stdout bridge,
    in one launch that ``timeout`` seconds from its start bound: a
    ``Launch``, waited for and stopped.

    stdin: a regular file holding CSV without the label column, ``m``'s
    header and then, one copy under another, the rows of each of ``copies``
    (column maps as in ``score_copies``) or, without copies, of ``m``;
    stdout: one probability in [0, 1] per row sent, each line ended by LF
    (a CR before it is dropped); exit code 0 required. ``m``'s cells are
    formatted once, and each copy's rows are written as it is drawn, with
    only its own columns formatted anew. Nothing is launched when no row is
    to be sent. A bench cell launches twice (``harness.run_benchmark``):
    its copies launch, a ``Launch`` most often started just before the
    other, sends its permutation-importance copies in (column, repeat)
    order followed by one functional-complexity copy per attribute type
    (control, case, event); its test launch, this function without copies,
    sends the test rows.
    """
    launch = Launch(command, m, copies, timeout)
    try:
        return launch.scores()
    finally:
        launch.stop()


class Launch:
    """A started launch of an external command over the bridge (the
    protocol of ``external_predict``), which runs while its caller goes on.

    Its stdin, stdout and stderr are temporary files, so the command never
    waits for a reader. It runs in a session of its own, and ``timeout``
    seconds from its start bound it. ``scores`` waits for it, checks its
    output and returns one score per row sent, the rows of ``n_copies``
    copies, and ``copy_scores`` the same split by copy; ``stop`` kills its
    process group, so also any process the command started, waits for it
    and closes its files, and may be called again. Call ``scores`` before
    ``stop``. Nothing is launched when no row is to be sent."""

    def __init__(
        self,
        command: str,
        m: EncodedMatrix,
        copies: Optional[Iterable[Mapping[int, np.ndarray]]] = None,
        timeout: float = 300.0,
    ) -> None:
        self.timeout = timeout
        self.n_copies = 0
        self.copy_rows = m.n_rows
        self.proc: Optional[subprocess.Popen] = None
        self.output: list = []  # the stdout and stderr files
        cells = m.csv_cells()
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as stdin:
            stdin.write(m.csv_header())
            for copy in [{}] if copies is None else copies:
                stdin.write(copy_csv_rows(cells, copy, m.n_rows))
                self.n_copies += 1
                del copy  # freed before the next one is drawn
            if self.n_copies * m.n_rows == 0:
                return
            stdin.seek(0)  # flushes, and the child reads from the start
            self.output = [tempfile.TemporaryFile(), tempfile.TemporaryFile()]
            try:
                self.proc = subprocess.Popen(
                    shlex.split(command), stdin=stdin, stdout=self.output[0],
                    stderr=self.output[1], start_new_session=True)
            except BaseException:
                self.stop()
                raise
        self.deadline = time.monotonic() + timeout

    def running(self) -> bool:
        """Whether the command was started and has not exited yet."""
        return self.proc is not None and self.proc.poll() is None

    def scores(self) -> np.ndarray:
        """One score per row sent, once the process has exited 0 within its
        deadline; else a ``BridgeError`` says what went wrong."""
        if self.proc is None:
            return np.empty(0, dtype=np.float64)
        if not _exits_within(self.proc, max(0.0, self.deadline - time.monotonic())):
            self.stop()
            raise BridgeError(f"external command timed out after {self.timeout}s")
        stdout, stderr = self.output
        if self.proc.returncode != 0:
            stderr.seek(0)
            raise BridgeError(
                f"external command exited with {self.proc.returncode}: "
                f"{stderr.read().decode('utf-8', 'replace').strip()}"
            )
        stdout.seek(0)
        return _parse_scores(stdout.read(), self.n_copies * self.copy_rows)

    def copy_scores(self) -> np.ndarray:
        """``scores``, one row of scores per copy sent."""
        return self.scores().reshape(self.n_copies, self.copy_rows)

    def stop(self) -> None:
        """Kill the process group if any of it still runs, wait for the
        command and close its files."""
        if self.proc is not None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the command and all it started have exited
            self.proc.wait()
        for file in self.output:
            file.close()


def _exits_within(proc: subprocess.Popen, timeout: float) -> bool:
    """Whether ``proc`` exits within ``timeout`` seconds; it is reaped if so.
    On Linux the wait wakes as the process exits (a pidfd); elsewhere
    ``Popen.wait`` polls with sleeps that grow to 50 ms, which can add tens
    of milliseconds to a short launch."""
    if proc.returncode is not None:
        return True  # reaped: its pid may belong to another process now
    try:
        pidfd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            return False
        return True
    try:
        if not select.select([pidfd], [], [], timeout)[0]:
            return False
    finally:
        os.close(pidfd)
    proc.wait()
    return True


def _parse_scores(stdout: bytes, n_rows: int) -> np.ndarray:
    """The ``n_rows`` probabilities of a bridge command's stdout: lines
    ended by LF only, the last LF optional, each a decimal in [0, 1]
    between optional whitespace."""
    lines = stdout.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # the last line's LF
    if len(lines) != n_rows:
        raise BridgeError(f"line count mismatch: expected {n_rows}, got {len(lines)}")
    scores = np.empty(n_rows, dtype=np.float64)
    for i, raw in enumerate(lines):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise BridgeError(f"line {i + 1}: not UTF-8: {raw!r}") from None
        try:
            value = float(line.strip())
        except ValueError:
            raise BridgeError(f"line {i + 1}: not a decimal: {line!r}") from None
        if not 0.0 <= value <= 1.0:
            raise BridgeError(f"line {i + 1}: probability {value} outside [0, 1]")
        scores[i] = value
    return scores


def auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for tied scores."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise ValueError("labels and scores must have equal length")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("labels contain a single class")
    ranks = average_ranks(s)
    u = float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; each run of equal values gets the mean of its ranks."""
    n = len(values)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], n] - 1  # last sorted position of each run
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def _format_tree(tree: Tree, columns: Sequence[str], forest=False, leaf_ids=False) -> list[str]:
    """One line per node in array order, indented by depth; ``leaf_ids``
    numbers the leaves left to right, ``forest`` heads each tree (indented)."""
    lines = []
    leaf_id, tree_id = np.cumsum([tree.column < 0, tree.depth == 0], axis=1) - 1
    for i in range(len(tree.n)):
        if forest and tree.depth[i] == 0:
            lines.append(f"tree\t{tree_id[i]}")
        pad = "  " * (forest + int(tree.depth[i]))
        stats = f"n={tree.n[i]} gini={float(tree.gini[i])!r}"
        if tree.column[i] >= 0:
            lines.append(f"{pad}split column={columns[tree.column[i]]} "
                         f"threshold={float(tree.threshold[i])!r} {stats}")
        else:
            suffix = f" leaf_id={leaf_id[i]}" if leaf_ids else ""
            lines.append(f"{pad}leaf {stats} prob={float(tree.prob[i])!r}{suffix}")
    return lines


def _format_logreg(params: LogRegParams, columns: Sequence[str]) -> list[str]:
    lines = [f"intercept\t{float(params.intercept)!r}"]
    for name, mean, std, coef in zip(
        columns, params.scaler.mean, params.scaler.std, params.coef
    ):
        lines.append(f"{name}\t{float(mean)!r}\t{float(std)!r}\t{float(coef)!r}")
    return lines


def export_model(model: TrainedModel) -> str:
    """Plain-text parameter dump (coefficients per column, indented tree)."""
    lines = [f"kind\t{model.kind}"]
    if model.kind == "logreg":
        lines.extend(_format_logreg(model.logreg, model.columns))
    elif model.kind in ("tree", "forest"):
        lines.extend(_format_tree(model.tree, model.columns, forest=model.kind == "forest"))
    elif model.kind == "llm":
        lines.extend(_format_tree(model.tree, model.columns, leaf_ids=True))
        for leaf_id, leaf_model in enumerate(model.leaf_models):
            lines.append(f"leaf_model\t{leaf_id}")
            if isinstance(leaf_model, ConstantLeaf):
                lines.append(f"constant\t{leaf_model.prob!r}")
            else:
                lines.extend(_format_logreg(leaf_model, model.columns))
    elif model.kind == "external":
        lines.append(f"command\t{model.command}")
    return "\n".join(lines) + "\n"
