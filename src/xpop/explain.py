"""Attribute weight sources: permutation importance, intrinsic model
weights, and external weight files.

All downstream metrics consume weight magnitudes, so signed coefficients
are collapsed to absolute values at the source.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from xpop.models import ConstantLeaf, TrainedModel, predict_chunks
from xpop.preprocess import EncodedMatrix


@dataclass(frozen=True)
class WeightVector:
    weights: np.ndarray
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.columns):
            raise ValueError("weight length must equal the column signature length")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        self.weights.setflags(write=False)


def permute_column(
    values: np.ndarray, distinct: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Replace each value by a uniform draw from the other distinct values.

    Columns with a single distinct value are returned unchanged.
    """
    k = len(distinct)
    if k < 2:
        return values.copy()
    positions = np.searchsorted(distinct, values)
    draws = rng.integers(0, k - 1, size=len(values))
    draws = np.where(draws >= positions, draws + 1, draws)  # skip the current value
    return distinct[draws]


def _mse(labels: np.ndarray, scores: np.ndarray) -> float:
    return float(np.mean((labels - scores) ** 2))


# Float64 cells per stacked chunk of copies. Stacking saves one predict call
# per copy; the bound caps the memory a chunk adds, which an external model
# holds again as CSV text while it writes the chunk to its command's stdin.
CHUNK_CELLS = 1 << 15


def perturbed_scores(
    predictor, m: EncodedMatrix, copies: Iterable[Mapping[int, np.ndarray]]
) -> Iterator[np.ndarray]:
    """Scores of perturbed copies of ``m``, one array per copy, in order.

    Each copy maps column indices to replacement values; the other columns
    keep ``m``'s values. Copies are drawn lazily and stacked into a buffer
    of at most ``CHUNK_CELLS`` cells (a copy larger than that goes alone),
    and each full buffer is passed on as an ``EncodedMatrix`` with tiled
    labels to ``models.predict_chunks``: one ``predictor.predict`` call per
    chunk, or for an external model one launch for all chunks. The predictor must score each row independently
    of the others in the call; if it returns a view of its input rows, a
    yielded array changes when the next chunk is drawn.
    """
    n, p = m.rows.shape
    per_chunk = max(1, CHUNK_CELLS // max(1, n * p))
    buffer = np.empty((per_chunk * n, p), dtype=np.float64)
    unscored = 0  # copies passed on whose scores have not come back

    def stacked(k: int) -> EncodedMatrix:
        nonlocal unscored
        unscored += k
        return EncodedMatrix(m.columns, buffer[: k * n], np.tile(m.labels, k))

    def chunks() -> Iterator[EncodedMatrix]:
        k = 0
        for copy in copies:
            block = buffer[k * n : (k + 1) * n]
            block[:] = m.rows
            for column, values in copy.items():
                block[:, column] = values
            k += 1
            if k == per_chunk:
                yield stacked(k)
                k = 0
        if k:
            yield stacked(k)

    for out in predict_chunks(predictor, m, chunks()):
        out = np.asarray(out, dtype=np.float64)
        k, unscored = unscored, 0
        if out.shape != (k * n,):
            raise ValueError(f"predictor returned {out.shape} scores for {k * n} rows")
        for c in range(k):
            yield out[c * n : (c + 1) * n]


def _base_scores(predictor, m: EncodedMatrix, base_scores) -> np.ndarray:
    """The unperturbed scores: ``base_scores`` when given, else one predict."""
    if base_scores is None:
        return np.asarray(predictor.predict(m), dtype=np.float64)
    base = np.asarray(base_scores, dtype=np.float64)
    if base.shape != (m.n_rows,):
        raise ValueError("base_scores must hold one score per matrix row")
    return base


def permutation_importance(
    predictor,
    m: EncodedMatrix,
    labels: np.ndarray,
    seed: int,
    repeats: int = 1,
    base_scores: Optional[np.ndarray] = None,
) -> WeightVector:
    """Per-column change in MSE after an excluded-value permutation.

    The draw for each row excludes the row's current value; the effect is
    averaged over `repeats` independent permutations. Per-column seeds are
    derived as seed + column index, so columns can run in parallel.
    ``base_scores``, when given, are the predictor's scores of ``m``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    y = np.asarray(labels, dtype=np.float64)
    if len(np.unique(y)) < 2:
        raise ValueError("labels contain a single class")
    if getattr(predictor, "columns", m.column_names) != m.column_names:
        raise ValueError("column signature mismatch between predictor and matrix")
    base = _mse(y, _base_scores(predictor, m, base_scores))
    distinct = [np.unique(m.rows[:, i]) for i in range(m.n_columns)]
    active = [i for i in range(m.n_columns) if len(distinct[i]) >= 2]

    def copies():
        for i in active:
            rng = np.random.default_rng(seed + i)
            for _ in range(repeats):
                yield {i: permute_column(m.rows[:, i], distinct[i], rng)}

    scores = perturbed_scores(predictor, m, copies())
    weights = np.zeros(m.n_columns)
    for i in active:
        total = 0.0
        for _ in range(repeats):
            total += _mse(y, next(scores)) - base
        weights[i] = total / repeats
    return WeightVector(weights, m.column_names)


def coefficient_weights(model: TrainedModel) -> WeightVector:
    """Absolute coefficients (scaled space); the logit leaf model reports a
    support-weighted mean over leaves, constant leaves contributing zero."""
    if model.kind == "logreg":
        return WeightVector(np.abs(model.logreg.coef), model.columns)
    if model.kind == "llm":
        total = np.zeros(len(model.columns))
        leaf_n = model.tree.n[model.tree.leaves]
        for n, leaf_model in zip(leaf_n, model.leaf_models):
            if not isinstance(leaf_model, ConstantLeaf):
                total += n * np.abs(leaf_model.coef)
        return WeightVector(total / leaf_n.sum(), model.columns)
    raise ValueError(f"coefficient weights undefined for model kind {model.kind!r}")


def impurity_weights(model: TrainedModel) -> WeightVector:
    """Total Gini impurity decrease per column, node-fraction weighted;
    forests average over member trees."""
    trees = {"tree": (model.tree,), "forest": model.trees}.get(model.kind)
    if trees is None:
        raise ValueError(f"impurity weights undefined for model kind {model.kind!r}")
    out = np.zeros(len(model.columns))
    for tree in trees:  # one running sum in preorder, tree after tree
        np.add.at(out, *tree.split_gains())
    return WeightVector(out / len(trees), model.columns)


def load_external_weights(path: str, signature: Sequence[str]) -> WeightVector:
    """Align an ``attribute,weight`` CSV to a column signature.

    Signature columns absent from the file get weight 0 (with a warning);
    file columns absent from the signature are an error.
    """
    signature = tuple(signature)
    index = {name: i for i, name in enumerate(signature)}
    weights = np.zeros(len(signature))
    seen = set()
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'attribute,weight'")
            name, raw = row[0], row[1]
            if name not in index:
                raise ValueError(f"{path}:{lineno}: unknown column {name!r}")
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric weight {raw!r}") from None
            if not np.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite weight for {name!r}")
            weights[index[name]] = abs(value)
            seen.add(name)
    absent = [name for name in signature if name not in seen]
    if absent:
        warnings.warn(
            f"{len(absent)} signature columns missing from {path}; weights set to 0",
            stacklevel=2,
        )
    return WeightVector(weights, signature)
