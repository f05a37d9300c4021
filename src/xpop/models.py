"""Task models: logistic regression, CART, random forest, logit leaf model,
an AUC evaluator, and a subprocess bridge to external scorers.

Every trained model satisfies the predictor contract: scores in [0, 1],
one per row, deterministic for a fixed model state.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from xpop.preprocess import EncodedMatrix

DEFAULT_LOGREG = {"l2": 0.01, "max_iter": 2000, "tol": 1e-7}
DEFAULT_TREE = {"max_depth": 6, "min_samples_leaf": 5}
DEFAULT_FOREST = {
    "n_trees": 100,
    "max_depth": 6,
    "min_samples_leaf": 5,
    "max_features_fraction": 0.5,
}


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
    """A fitted CART tree: one array per field, one entry per node in
    preorder, left subtree first. So a split's left child is the next node,
    leaves in array order run left to right, and array order is export
    order. At a leaf, ``column`` is -1, ``threshold`` is NaN, and ``left``
    and ``right`` point back at the leaf."""

    depth: np.ndarray
    column: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    n: np.ndarray
    gini: np.ndarray
    prob: np.ndarray

    @property
    def leaves(self) -> np.ndarray:
        """Leaf node indices, left to right."""
        return np.flatnonzero(self.column < 0)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """The leaf each row of ``X`` reaches; ``x <= threshold`` goes left.
        All rows step together as deep as the tree goes; a row that reached
        its leaf steps back onto it."""
        rows = np.arange(len(X))
        column = np.maximum(self.column, 0)  # any valid column: a leaf's test is moot
        node = np.zeros(len(X), dtype=np.intp)
        for _ in range(self.depth.max()):
            go_left = X[rows, column[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return node

    def split_gains(self) -> tuple[np.ndarray, np.ndarray]:
        """(column, Gini decrease weighted by the node's share of the root's
        rows) of each split, in preorder."""
        s = np.flatnonzero(self.column >= 0)
        left, right, n = self.left[s], self.right[s], self.n[s]
        child_gini = self.n[left] / n * self.gini[left] + self.n[right] / n * self.gini[right]
        return self.column[s], n / self.n[0] * (self.gini[s] - child_gini)


@dataclass(frozen=True)
class TrainedModel:
    kind: str
    columns: tuple[str, ...]
    logreg: Optional[LogRegParams] = None
    tree: Optional[Tree] = None
    trees: tuple[Tree, ...] = ()
    leaf_models: tuple = ()  # llm: one ConstantLeaf or LogRegParams per leaf, in leaf order
    command: Optional[str] = None
    training_auc: Optional[float] = None

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
    h = {**DEFAULT_LOGREG, **(hyper or {})}
    y = m.labels.astype(np.float64)
    if m.n_rows < 2:
        raise ValueError("need at least 2 rows")
    _check_two_classes(m.labels)
    params = _fit_logreg_arrays(m.rows, y, float(h["l2"]), int(h["max_iter"]), float(h["tol"]))
    return _with_training_auc(TrainedModel("logreg", m.column_names, logreg=params), m)


def _with_training_auc(model: TrainedModel, m: EncodedMatrix) -> TrainedModel:
    """``model`` with its AUC on its training matrix ``m``; a single-class
    ``m`` leaves ``training_auc`` unset."""
    if len(np.unique(m.labels)) < 2:
        return model
    return replace(model, training_auc=auc(m.labels, predict_proba(model, m)))


def _gini(n_pos: float, n: float) -> float:
    if n == 0:
        return 0.0
    p = n_pos / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _best_split(
    X: np.ndarray,
    y: np.ndarray,
    candidate_columns: Sequence[int],
    min_samples_leaf: int,
) -> Optional[tuple[float, int, float]]:
    """Best (gain, column, threshold); ties by lowest column then threshold."""
    n = len(y)
    total_pos = float(y.sum())
    parent = _gini(total_pos, n)
    best: Optional[tuple[float, int, float]] = None
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
        k = int(np.argmax(gains))  # first max: lowest threshold on ties
        gain = float(gains[k])
        threshold = float((vs[b[k]] + vs[b[k] + 1]) / 2.0)
        if best is None or gain > best[0]:
            best = (gain, col, threshold)
    return best


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_samples_leaf: int,
    rng: Optional[np.random.Generator] = None,
    mtry: Optional[int] = None,
    force_root: bool = False,
) -> Tree:
    # one [depth, column, threshold, right, n, gini, prob] per node, preorder
    nodes: list[list] = []

    def grow(X: np.ndarray, y: np.ndarray, depth: int, forced: bool = False) -> None:
        n = len(y)
        n_pos = float(y.sum())
        node = [depth, -1, np.nan, len(nodes), n, _gini(n_pos, n), n_pos / n]
        nodes.append(node)
        pure = n_pos == 0 or n_pos == n
        # Split whenever the node is impure and a legal split exists; equal-gain
        # candidates break ties by lowest column index, then lowest threshold.
        if depth >= max_depth or n < 2 * min_samples_leaf or (pure and not forced):
            return
        p = X.shape[1]
        if rng is not None and mtry is not None and mtry < p:
            cols = np.sort(rng.choice(p, size=mtry, replace=False))
        else:
            cols = range(p)
        split = _best_split(X, y, list(cols), min_samples_leaf)
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

    if len(y) == 0:
        raise ValueError("cannot grow a tree on 0 rows")
    grow(X, y, 0, force_root)
    depth, column, threshold, right, n, gini, prob = map(np.array, zip(*nodes))
    left = np.arange(len(nodes)) + (column >= 0)
    return Tree(depth, column, threshold, left, right, n, gini, prob)


def train_tree(m: EncodedMatrix, hyper: Mapping[str, float] | None = None) -> TrainedModel:
    """CART with Gini impurity; single-class input yields a depth-0 leaf."""
    h = {**DEFAULT_TREE, **(hyper or {})}
    X = np.asarray(m.rows, dtype=np.float64)
    y = m.labels.astype(np.float64)
    tree = _grow_tree(X, y, int(h["max_depth"]), int(h["min_samples_leaf"]))
    return _with_training_auc(TrainedModel("tree", m.column_names, tree=tree), m)


def train_forest(m: EncodedMatrix, hyper: Mapping[str, float] | None = None,
                 seed: int = 0) -> TrainedModel:
    """Bagged CART forest with per-split column subsampling, fully seeded."""
    h = {**DEFAULT_FOREST, **(hyper or {})}
    X = np.asarray(m.rows, dtype=np.float64)
    y = m.labels.astype(np.float64)
    n, p = X.shape
    mtry = max(1, int(np.ceil(float(h["max_features_fraction"]) * p)))
    trees = []
    for t in range(int(h["n_trees"])):
        rng = np.random.default_rng(seed + t)
        idx = rng.integers(0, n, size=n)
        trees.append(
            _grow_tree(
                X[idx], y[idx], int(h["max_depth"]), int(h["min_samples_leaf"]),
                rng=rng, mtry=mtry,
            )
        )
    return _with_training_auc(TrainedModel("forest", m.column_names, trees=tuple(trees)), m)


@dataclass(frozen=True)
class ConstantLeaf:
    prob: float

    def score(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), self.prob)


def train_llm(m: EncodedMatrix, hyper: Mapping[str, float] | None = None) -> TrainedModel:
    """Logit leaf model: CART segmentation with a forced root split and an
    independent logistic regression per leaf (single-class leaves become
    constant 0/1 predictors)."""
    h = {**DEFAULT_TREE, **DEFAULT_LOGREG, **(hyper or {})}
    X = np.asarray(m.rows, dtype=np.float64)
    y = m.labels.astype(np.float64)
    _check_two_classes(m.labels)
    min_leaf = int(h["min_samples_leaf"])
    if len(y) < 2 * min_leaf:
        raise ValueError("no legal forced split: too few rows")
    tree = _grow_tree(X, y, int(h["max_depth"]), min_leaf, force_root=True)
    reached = tree.apply(X)
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
    model = TrainedModel("llm", m.column_names, tree=tree, leaf_models=tuple(leaf_models))
    return _with_training_auc(model, m)


def external_model(command: str, columns: Sequence[str]) -> TrainedModel:
    """Wrap an external scoring command as a predictor."""
    return TrainedModel("external", tuple(columns), command=command)


def predict_proba(model: TrainedModel, m: EncodedMatrix) -> np.ndarray:
    if model.columns != m.column_names:
        raise ValueError("column signature mismatch between model and matrix")
    X = np.asarray(m.rows, dtype=np.float64)
    if model.kind == "logreg":
        return model.logreg.score(X)
    if model.kind == "tree":
        return model.tree.prob[model.tree.apply(X)]
    if model.kind == "forest":
        return np.stack([t.prob[t.apply(X)] for t in model.trees]).mean(axis=0)
    if model.kind == "llm":
        reached = model.tree.apply(X)
        out = np.empty(len(X), dtype=np.float64)
        for leaf, leaf_model in zip(model.tree.leaves, model.leaf_models):
            rows = reached == leaf
            out[rows] = leaf_model.score(X[rows])
        return out
    if model.kind == "external":
        return external_predict(model.command, m)
    raise ValueError(f"unknown model kind {model.kind!r}")


def predict_chunks(
    predictor, m: EncodedMatrix, chunks: Iterable[EncodedMatrix]
) -> Iterator[np.ndarray]:
    """Scores of matrices with ``m``'s columns, drawn one at a time from
    ``chunks``. An external model scores them all in one launch and yields
    one array for all their rows; any other predictor (a ``TrainedModel`` or
    any object with ``predict``) yields one ``predict`` per chunk."""
    if isinstance(predictor, TrainedModel) and predictor.kind == "external":
        if predictor.columns != m.column_names:
            raise ValueError("column signature mismatch between model and matrix")
        yield external_predict(predictor.command, m, chunks)
    else:
        for chunk in chunks:
            yield predictor.predict(chunk)


def external_predict(
    command: str,
    m: EncodedMatrix,
    chunks: Optional[Iterable[EncodedMatrix]] = None,
    timeout: float = 300.0,
) -> np.ndarray:
    """Score rows through an external command over the stdin/stdout bridge,
    in one launch that ``timeout`` seconds bound.

    stdin: a regular file holding CSV without the label column, ``m``'s
    header and then the rows of each of ``chunks`` (matrices with ``m``'s
    columns, written as they are drawn) or, without chunks, of ``m``;
    stdout: one probability in [0, 1] per row sent, LF-terminated; exit
    code 0 required. Nothing is launched when no row is to be sent.
    """
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as stdin:
        stdin.write(m.csv_header(include_label=False))
        n_rows = 0
        for chunk in [m] if chunks is None else chunks:
            stdin.write(chunk.csv_rows(include_label=False))
            n_rows += chunk.n_rows
        if n_rows == 0:
            return np.empty(0, dtype=np.float64)
        stdin.seek(0)  # flushes, and the child reads from the start
        try:
            proc = subprocess.run(
                shlex.split(command), stdin=stdin, capture_output=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise BridgeError(f"external command timed out after {timeout}s") from None
    if proc.returncode != 0:
        raise BridgeError(
            f"external command exited with {proc.returncode}: "
            f"{proc.stderr.decode('utf-8', 'replace').strip()}"
        )
    lines = proc.stdout.decode("utf-8").splitlines()
    if len(lines) != n_rows:
        raise BridgeError(f"line count mismatch: expected {n_rows}, got {len(lines)}")
    scores = np.empty(n_rows, dtype=np.float64)
    for i, line in enumerate(lines):
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


def _format_tree(tree: Tree, columns: Sequence[str], indent: int, leaf_ids=False) -> list[str]:
    """One line per node in array order, indented by depth; ``leaf_ids``
    numbers the leaves left to right."""
    lines = []
    leaf_id = np.cumsum(tree.column < 0) - 1
    for i in range(len(tree.n)):
        pad = "  " * (indent + int(tree.depth[i]))
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
    elif model.kind == "tree":
        lines.extend(_format_tree(model.tree, model.columns, 0))
    elif model.kind == "forest":
        for t, tree in enumerate(model.trees):
            lines.append(f"tree\t{t}")
            lines.extend(_format_tree(tree, model.columns, 1))
    elif model.kind == "llm":
        lines.extend(_format_tree(model.tree, model.columns, 0, leaf_ids=True))
        for leaf_id, leaf_model in enumerate(model.leaf_models):
            lines.append(f"leaf_model\t{leaf_id}")
            if isinstance(leaf_model, ConstantLeaf):
                lines.append(f"constant\t{leaf_model.prob!r}")
            else:
                lines.extend(_format_logreg(leaf_model, model.columns))
    elif model.kind == "external":
        lines.append(f"command\t{model.command}")
    return "\n".join(lines) + "\n"
