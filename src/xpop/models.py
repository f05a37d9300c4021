"""Task models: logistic regression, CART, random forest, logit leaf model,
an AUC evaluator, and a subprocess bridge to external scorers.

Every trained model satisfies the predictor contract: scores in [0, 1],
one per row, deterministic for a fixed model state.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

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


@dataclass
class TreeNode:
    n: int
    gini: float
    prob: float
    column: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    leaf_id: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.column is None


@dataclass(frozen=True)
class TrainedModel:
    kind: str
    columns: tuple[str, ...]
    scaler: Scaler
    logreg: Optional[LogRegParams] = None
    tree: Optional[TreeNode] = None
    trees: tuple[TreeNode, ...] = ()
    leaf_models: Mapping[int, object] = field(default_factory=dict)
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


def _log_loss(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, l2: float) -> float:
    z = X @ w + b
    # log(1 + exp(-z*s)) computed stably via logaddexp
    s = np.where(y == 1, 1.0, -1.0)
    loss = float(np.mean(np.logaddexp(0.0, -s * z)))
    return loss + 0.5 * l2 * float(w @ w)


def _check_two_classes(y: np.ndarray) -> None:
    if len(np.unique(y)) < 2:
        raise ValueError("labels contain a single class")


def _fit_logreg_arrays(
    X: np.ndarray, y: np.ndarray, l2: float, max_iter: int, tol: float
) -> LogRegParams:
    scaler = Scaler.fit(X)
    Xs = scaler.transform(X)
    n, p = Xs.shape
    w = np.zeros(p)
    b = 0.0
    lr = 0.1
    loss = _log_loss(Xs, y, w, b, l2)
    for _ in range(max_iter):
        prob = _sigmoid(Xs @ w + b)
        err = prob - y
        grad_w = Xs.T @ err / n + l2 * w
        grad_b = float(err.mean())
        while True:
            w2 = w - lr * grad_w
            b2 = b - lr * grad_b
            new_loss = _log_loss(Xs, y, w2, b2, l2)
            if new_loss <= loss or lr < 1e-12:
                break
            lr *= 0.5
        delta = loss - new_loss
        w, b, loss = w2, b2, new_loss
        if abs(delta) < tol:
            break
    return LogRegParams(w, b, scaler)


def train_logreg(m: EncodedMatrix, hyper: Mapping[str, float] | None = None) -> TrainedModel:
    """L2-regularized logistic regression by full-batch gradient descent.

    Features are z-scored on the training matrix (zero-std columns scaled
    by 1); the intercept is unpenalized. Learning rate 0.1 with halving
    whenever a step would increase the loss.
    """
    h = {**DEFAULT_LOGREG, **(hyper or {})}
    y = m.labels.astype(np.float64)
    if m.n_rows < 2:
        raise ValueError("need at least 2 rows")
    _check_two_classes(m.labels)
    params = _fit_logreg_arrays(m.rows, y, float(h["l2"]), int(h["max_iter"]), float(h["tol"]))
    model = TrainedModel(
        "logreg", m.column_names, params.scaler, logreg=params
    )
    scores = predict_proba(model, m)
    return TrainedModel(
        "logreg", m.column_names, params.scaler, logreg=params,
        training_auc=auc(m.labels, scores),
    )


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
    depth: int,
    max_depth: int,
    min_samples_leaf: int,
    rng: Optional[np.random.Generator] = None,
    mtry: Optional[int] = None,
    force_root: bool = False,
) -> TreeNode:
    n = len(y)
    n_pos = float(y.sum())
    node = TreeNode(n=n, gini=_gini(n_pos, n), prob=n_pos / n)
    pure = n_pos == 0 or n_pos == n
    # Split whenever the node is impure and a legal split exists; equal-gain
    # candidates break ties by lowest column index, then lowest threshold.
    if depth >= max_depth or n < 2 * min_samples_leaf or (pure and not force_root):
        return node
    p = X.shape[1]
    if rng is not None and mtry is not None and mtry < p:
        cols = np.sort(rng.choice(p, size=mtry, replace=False))
    else:
        cols = range(p)
    split = _best_split(X, y, list(cols), min_samples_leaf)
    if split is None:
        if force_root:
            raise ValueError("no legal forced split")
        return node
    _, col, threshold = split
    mask = X[:, col] <= threshold
    node.column = col
    node.threshold = threshold
    node.left = _grow_tree(
        X[mask], y[mask], depth + 1, max_depth, min_samples_leaf, rng, mtry
    )
    node.right = _grow_tree(
        X[~mask], y[~mask], depth + 1, max_depth, min_samples_leaf, rng, mtry
    )
    return node


def _tree_scores(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X), dtype=np.float64)
    stack = [(node, np.arange(len(X)))]
    while stack:
        current, idx = stack.pop()
        if idx.size == 0:
            continue
        if current.is_leaf:
            out[idx] = current.prob
            continue
        mask = X[idx, current.column] <= current.threshold
        stack.append((current.left, idx[mask]))
        stack.append((current.right, idx[~mask]))
    return out


def _tree_leaf_ids(node: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X), dtype=np.int64)
    stack = [(node, np.arange(len(X)))]
    while stack:
        current, idx = stack.pop()
        if idx.size == 0:
            continue
        if current.is_leaf:
            out[idx] = current.leaf_id
            continue
        mask = X[idx, current.column] <= current.threshold
        stack.append((current.left, idx[mask]))
        stack.append((current.right, idx[~mask]))
    return out


def iter_leaves(node: TreeNode):
    if node.is_leaf:
        yield node
    else:
        yield from iter_leaves(node.left)
        yield from iter_leaves(node.right)


def train_tree(m: EncodedMatrix, hyper: Mapping[str, float] | None = None) -> TrainedModel:
    """CART with Gini impurity; single-class input yields a depth-0 leaf."""
    h = {**DEFAULT_TREE, **(hyper or {})}
    X = np.asarray(m.rows, dtype=np.float64)
    y = m.labels.astype(np.float64)
    root = _grow_tree(X, y, 0, int(h["max_depth"]), int(h["min_samples_leaf"]))
    model = TrainedModel("tree", m.column_names, Scaler.fit(X), tree=root)
    train_auc = None
    if len(np.unique(m.labels)) == 2:
        train_auc = auc(m.labels, predict_proba(model, m))
    return TrainedModel(
        "tree", m.column_names, model.scaler, tree=root, training_auc=train_auc
    )


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
                X[idx], y[idx], 0, int(h["max_depth"]), int(h["min_samples_leaf"]),
                rng=rng, mtry=mtry,
            )
        )
    model = TrainedModel("forest", m.column_names, Scaler.fit(X), trees=tuple(trees))
    train_auc = None
    if len(np.unique(m.labels)) == 2:
        train_auc = auc(m.labels, predict_proba(model, m))
    return TrainedModel(
        "forest", m.column_names, model.scaler, trees=tuple(trees), training_auc=train_auc
    )


@dataclass(frozen=True)
class ConstantLeaf:
    prob: float


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
    root = _grow_tree(X, y, 0, int(h["max_depth"]), min_leaf, force_root=True)
    for i, leaf in enumerate(iter_leaves(root)):
        leaf.leaf_id = i
    leaf_ids = _tree_leaf_ids(root, X)
    leaf_models: dict[int, object] = {}
    for leaf in iter_leaves(root):
        rows = leaf_ids == leaf.leaf_id
        y_leaf = y[rows]
        if y_leaf.min() == y_leaf.max():
            leaf_models[leaf.leaf_id] = ConstantLeaf(float(y_leaf[0]))
        else:
            leaf_models[leaf.leaf_id] = _fit_logreg_arrays(
                X[rows], y_leaf, float(h["l2"]), int(h["max_iter"]), float(h["tol"])
            )
    model = TrainedModel(
        "llm", m.column_names, Scaler.fit(X), tree=root, leaf_models=leaf_models
    )
    return TrainedModel(
        "llm", m.column_names, model.scaler, tree=root, leaf_models=leaf_models,
        training_auc=auc(m.labels, predict_proba(model, m)),
    )


def external_model(command: str, columns: Sequence[str]) -> TrainedModel:
    """Wrap an external scoring command as a predictor."""
    dummy = Scaler(np.zeros(len(columns)), np.ones(len(columns)))
    return TrainedModel("external", tuple(columns), dummy, command=command)


def predict_proba(model: TrainedModel, m: EncodedMatrix) -> np.ndarray:
    if model.columns != m.column_names:
        raise ValueError("column signature mismatch between model and matrix")
    X = np.asarray(m.rows, dtype=np.float64)
    if model.kind == "logreg":
        params = model.logreg
        return _sigmoid(params.scaler.transform(X) @ params.coef + params.intercept)
    if model.kind == "tree":
        return _tree_scores(model.tree, X)
    if model.kind == "forest":
        if m.n_rows == 0:
            return np.zeros(0)
        scores = np.stack([_tree_scores(t, X) for t in model.trees])
        return scores.mean(axis=0)
    if model.kind == "llm":
        out = np.empty(len(X), dtype=np.float64)
        leaf_ids = _tree_leaf_ids(model.tree, X)
        for leaf_id, leaf_model in model.leaf_models.items():
            rows = leaf_ids == leaf_id
            if not rows.any():
                continue
            if isinstance(leaf_model, ConstantLeaf):
                out[rows] = leaf_model.prob
            else:
                out[rows] = _sigmoid(
                    leaf_model.scaler.transform(X[rows]) @ leaf_model.coef
                    + leaf_model.intercept
                )
        return out
    if model.kind == "external":
        return external_predict(model.command, m)
    raise ValueError(f"unknown model kind {model.kind!r}")


def external_predict(command: str, m: EncodedMatrix, timeout: float = 300.0) -> np.ndarray:
    """Score rows through an external command over the stdin/stdout bridge.

    stdin: matrix CSV without the label column; stdout: one probability in
    [0, 1] per row, LF-terminated; exit code 0 required.
    """
    payload = m.export_csv(include_label=False).encode("utf-8")
    try:
        proc = subprocess.run(
            shlex.split(command),
            input=payload,
            capture_output=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BridgeError(f"external command timed out after {timeout}s") from None
    if proc.returncode != 0:
        raise BridgeError(
            f"external command exited with {proc.returncode}: "
            f"{proc.stderr.decode('utf-8', 'replace').strip()}"
        )
    lines = proc.stdout.decode("utf-8").splitlines()
    if len(lines) != m.n_rows:
        raise BridgeError(f"line count mismatch: expected {m.n_rows}, got {len(lines)}")
    scores = np.empty(m.n_rows, dtype=np.float64)
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


def _format_tree(node: TreeNode, columns: Sequence[str], indent: int) -> list[str]:
    pad = "  " * indent
    if node.is_leaf:
        suffix = f" leaf_id={node.leaf_id}" if node.leaf_id is not None else ""
        return [
            f"{pad}leaf n={node.n} gini={float(node.gini)!r} "
            f"prob={float(node.prob)!r}{suffix}"
        ]
    lines = [
        f"{pad}split column={columns[node.column]} "
        f"threshold={float(node.threshold)!r} n={node.n} gini={float(node.gini)!r}"
    ]
    lines.extend(_format_tree(node.left, columns, indent + 1))
    lines.extend(_format_tree(node.right, columns, indent + 1))
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
        lines.extend(_format_tree(model.tree, model.columns, 0))
        for leaf_id in sorted(model.leaf_models):
            leaf_model = model.leaf_models[leaf_id]
            lines.append(f"leaf_model\t{leaf_id}")
            if isinstance(leaf_model, ConstantLeaf):
                lines.append(f"constant\t{leaf_model.prob!r}")
            else:
                lines.extend(_format_logreg(leaf_model, model.columns))
    elif model.kind == "external":
        lines.append(f"command\t{model.command}")
    return "\n".join(lines) + "\n"
