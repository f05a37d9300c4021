"""Attribute weight sources: permutation importance, intrinsic model
weights, and external weight files.

All downstream metrics consume weight magnitudes, so signed coefficients
are collapsed to absolute values at the source.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from xpop.eventlog import ParseError, csv_records
from xpop.models import (
    ConstantLeaf, TrainedModel, _check_two_classes, checked_predict, read_columns, score_copies,
)
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


def _base_scores(predictor, m: EncodedMatrix, base_scores) -> np.ndarray:
    """The unperturbed scores: ``base_scores`` when given, else one
    ``checked_predict``. A predictor that names its columns must name ``m``'s."""
    if getattr(predictor, "columns", m.column_names) != m.column_names:
        raise ValueError("column signature mismatch between predictor and matrix")
    if base_scores is None:
        return checked_predict(predictor, m)
    base = np.asarray(base_scores, dtype=np.float64)
    if base.shape != (m.n_rows,):
        raise ValueError("base_scores must hold one score per matrix row")
    return base


def _scored(predictor, m: EncodedMatrix) -> list[tuple[int, np.ndarray]]:
    """(index, distinct values) of each column of ``m`` with two or more
    distinct values that ``predictor`` reads (``read_columns``)."""
    read = read_columns(predictor)
    columns = range(m.n_columns) if read is None else sorted(read)
    return [(i, m.distinct[i]) for i in columns if len(m.distinct[i]) >= 2]


def pi_copies(
    predictor, m: EncodedMatrix, seed: int, repeats: int = 1
) -> Iterator[dict[int, np.ndarray]]:
    """The copies ``permutation_importance`` scores, in (column, repeat)
    order: ``repeats`` excluded-value permutations of each column of ``m``
    that holds two or more distinct values and that ``predictor`` reads,
    drawn from seed + column index. A column it does not read has no copy,
    and no other column's draws move."""
    for i, distinct in _scored(predictor, m):
        rng = np.random.default_rng(seed + i)
        for _ in range(repeats):
            yield {i: permute_column(m.rows[:, i], distinct, rng)}


def permutation_importance(
    predictor,
    m: EncodedMatrix,
    seed: int,
    repeats: int = 1,
    base_scores: Optional[np.ndarray] = None,
    scores: Optional[Iterator[np.ndarray]] = None,
) -> WeightVector:
    """Per-column change in MSE against ``m.labels`` after an excluded-value permutation.

    The draw for each row excludes the row's current value; the effect is
    averaged over `repeats` independent permutations. Per-column seeds are
    derived as seed + column index, so columns can run in parallel.
    Exactly the copies of ``pi_copies(predictor, m, seed, repeats)`` are
    drawn and scored. A column with one distinct value, or one the
    predictor does not read (``read_columns``), gets weight 0.0 without a
    copy: the copy would score the same bits as ``m``.
    ``base_scores``, when given, are the predictor's scores of ``m``.
    ``scores``, when given, is a started ``score_copies`` stream whose
    next arrays score those copies; exactly those are drawn from it, and
    later copies in it are left to its next reader.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    y = m.labels.astype(np.float64)
    _check_two_classes(y)
    base = _mse(y, _base_scores(predictor, m, base_scores))
    if scores is None:
        scores = score_copies(predictor, m, pi_copies(predictor, m, seed, repeats))
    weights = np.zeros(m.n_columns)
    for i, _ in _scored(predictor, m):
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
    if model.kind not in ("tree", "forest"):
        raise ValueError(f"impurity weights undefined for model kind {model.kind!r}")
    out = np.zeros(len(model.columns))
    np.add.at(out, *model.tree.split_gains())  # one running sum in preorder, tree after tree
    return WeightVector(out / len(model.tree.roots), model.columns)


def load_external_weights(path: str, signature: Sequence[str]) -> WeightVector:
    """Align an ``attribute,weight`` CSV to a column signature.

    Signature columns absent from the file get weight 0 (with a warning);
    file columns absent from the signature, or named twice, are an error.
    The file is read by ``csv_records``, as a log is.
    """
    signature = tuple(signature)
    index = {name: i for i, name in enumerate(signature)}
    weights = np.zeros(len(signature))
    seen = set()
    try:
        for lineno, row in csv_records(Path(path).read_bytes()):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'attribute,weight'")
            name, raw = row[0], row[1]
            if name not in index:
                raise ValueError(f"{path}:{lineno}: unknown column {name!r}")
            if name in seen:
                raise ValueError(f"{path}:{lineno}: duplicate column {name!r}")
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric weight {raw!r}") from None
            if not np.isfinite(value):
                raise ValueError(f"{path}:{lineno}: non-finite weight for {name!r}")
            weights[index[name]] = abs(value)
            seen.add(name)
    except ParseError as exc:  # an invalid byte or a refused record, named with its row
        raise ValueError(f"{path}: {exc}") from None
    absent = [name for name in signature if name not in seen]
    if absent:
        warnings.warn(
            f"{len(absent)} signature columns missing from {path}; weights set to 0",
            stacklevel=2,
        )
    return WeightVector(weights, signature)
