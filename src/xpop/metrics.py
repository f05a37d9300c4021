"""Explainability metrics over attribute types.

Parsimony counts the non-negligible weights per attribute type; functional
complexity measures how many binarized predictions flip when a whole
attribute type is permuted; IRC rank-correlates the explainability weights
with permutation importance; LOD@10 compares the attribute-type mix of the
two top-10 sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from xpop.explain import WeightVector, _base_scores, perturbed_scores, permute_column
from xpop.models import average_ranks
from xpop.preprocess import CASE, CONTROL, EVENT, ColumnMeta, EncodedMatrix

BINARIZE_THRESHOLD = 0.5
PARSIMONY_EPS = 1e-9

_TYPE_ORDINAL = {CONTROL: 0, CASE: 1, EVENT: 2}


@dataclass(frozen=True)
class TypedMetric:
    control: float
    case: float
    event: float
    total: float


@dataclass(frozen=True)
class MetricsReport:
    log_id: str
    model_id: str
    auc: Optional[float]
    parsimony: Optional[TypedMetric] = None
    fc: Optional[TypedMetric] = None
    irc: Optional[float] = None
    lod_at_10: Optional[float] = None
    seed: Optional[int] = None
    excluded_reason: str = ""


def parsimony(
    w: WeightVector, columns: Sequence[ColumnMeta], eps: float = PARSIMONY_EPS
) -> TypedMetric:
    """Count of columns per attribute type with weight magnitude above eps."""
    if len(w.weights) != len(columns):
        raise ValueError("weight vector and column metadata length mismatch")
    counts = {CONTROL: 0, CASE: 0, EVENT: 0}
    for value, col in zip(w.weights, columns):
        if abs(value) > eps:
            counts[col.attribute_type] += 1
    total = counts[CONTROL] + counts[CASE] + counts[EVENT]
    return TypedMetric(counts[CONTROL], counts[CASE], counts[EVENT], total)


def functional_complexity(
    predictor,
    m: EncodedMatrix,
    seed: int,
    base_scores: Optional[np.ndarray] = None,
) -> TypedMetric:
    """Per attribute type, the fraction of binarized predictions that change
    after simultaneously permuting every column of that type (drawn from
    seed + the type's ordinal). A type without columns reads NaN; the total
    is the mean over the types present. The copies of all types are scored
    in one ``perturbed_scores`` call. ``base_scores``, when given, are the
    predictor's scores of ``m``."""
    if getattr(predictor, "columns", m.column_names) != m.column_names:
        raise ValueError("column signature mismatch between predictor and matrix")
    present = [t for t in _TYPE_ORDINAL if m.columns_of_type(t)]

    def copies():
        for attribute_type in present:
            rng = np.random.default_rng(seed + _TYPE_ORDINAL[attribute_type])
            yield {i: permute_column(m.rows[:, i], np.unique(m.rows[:, i]), rng)
                   for i in m.columns_of_type(attribute_type)}

    original = _base_scores(predictor, m, base_scores) >= BINARIZE_THRESHOLD
    values = dict.fromkeys(_TYPE_ORDINAL, math.nan)
    for attribute_type, permuted in zip(present, perturbed_scores(predictor, m, copies())):
        values[attribute_type] = float((original != (permuted >= BINARIZE_THRESHOLD)).mean())
    total = float(np.mean([values[t] for t in present])) if present else math.nan
    return TypedMetric(values[CONTROL], values[CASE], values[EVENT], total)


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman's rank correlation with average ranks for ties."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("degenerate ranking")
    rx = average_ranks(x)
    ry = average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    return float((rx @ ry) / math.sqrt((rx @ rx) * (ry @ ry)))


def irc(w_pi: WeightVector, w_e: WeightVector) -> float:
    """Rank correlation between permutation importance and the
    explainability-model weights (magnitudes, no per-type split)."""
    if w_pi.columns != w_e.columns:
        raise ValueError("weight vectors have different column signatures")
    return spearman(np.abs(w_pi.weights), np.abs(w_e.weights))


def top_k_type_counts(
    w: WeightVector, columns: Sequence[ColumnMeta], k: int
) -> tuple[int, int, int]:
    """Attribute-type counts among the k largest weight magnitudes
    (ties broken by lower column index)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(w.weights) != len(columns):
        raise ValueError("weight vector and column metadata length mismatch")
    magnitudes = np.abs(w.weights)
    order = sorted(range(len(magnitudes)), key=lambda i: (-magnitudes[i], i))
    counts = {CONTROL: 0, CASE: 0, EVENT: 0}
    for i in order[: min(k, len(order))]:
        counts[columns[i].attribute_type] += 1
    return counts[CONTROL], counts[CASE], counts[EVENT]


def lod_at_k(
    w_pi: WeightVector,
    w_e: WeightVector,
    columns: Sequence[ColumnMeta],
    k: int = 10,
) -> float:
    """Euclidean distance between the top-k attribute-type count vectors."""
    if w_pi.columns != w_e.columns:
        raise ValueError("weight vectors have different column signatures")
    a = np.array(top_k_type_counts(w_pi, columns, k), dtype=np.float64)
    b = np.array(top_k_type_counts(w_e, columns, k), dtype=np.float64)
    return float(np.linalg.norm(a - b))
