"""Explainability metrics over attribute types.

Parsimony counts the non-negligible weights per attribute type; functional
complexity measures how many binarized predictions flip when a whole
attribute type is permuted; IRC rank-correlates the explainability weights
with permutation importance; LOD@10 compares the attribute-type mix of the
two top-10 sets.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from xpop.explain import WeightVector, _base_scores, permute_column
from xpop.models import average_ranks, score_copies
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
    excluded_reason: str = ""


def _type_counts(columns: Sequence[ColumnMeta], selected: np.ndarray) -> tuple[int, int, int]:
    """(control, case, event) counts among the selected column indices."""
    counts = Counter(columns[i].attribute_type for i in selected.tolist())
    return counts[CONTROL], counts[CASE], counts[EVENT]


def parsimony(
    w: WeightVector, columns: Sequence[ColumnMeta], eps: float = PARSIMONY_EPS
) -> TypedMetric:
    """Count of columns per attribute type with weight magnitude above eps."""
    if len(w.weights) != len(columns):
        raise ValueError("weight vector and column metadata length mismatch")
    counts = _type_counts(columns, np.flatnonzero(np.abs(w.weights) > eps))
    return TypedMetric(*counts, sum(counts))


def _present(m: EncodedMatrix) -> list[str]:
    """The attribute types that own a column of ``m``, in ``_TYPE_ORDINAL`` order."""
    return [t for t in _TYPE_ORDINAL if m.columns_of_type(t)]


def fc_copies(m: EncodedMatrix, seed: int) -> Iterator[dict[int, np.ndarray]]:
    """The copies ``functional_complexity`` scores: one per attribute type
    present, in ``_TYPE_ORDINAL`` order, with every column of the type given
    an excluded-value permutation drawn from seed + the type's ordinal."""
    for attribute_type in _present(m):
        rng = np.random.default_rng(seed + _TYPE_ORDINAL[attribute_type])
        yield {i: permute_column(m.rows[:, i], np.unique(m.rows[:, i]), rng)
               for i in m.columns_of_type(attribute_type)}


def functional_complexity(
    predictor,
    m: EncodedMatrix,
    seed: int,
    base_scores: Optional[np.ndarray] = None,
    scores: Optional[Iterator[np.ndarray]] = None,
) -> TypedMetric:
    """Per attribute type, the fraction of binarized predictions that change
    after simultaneously permuting every column of that type (``fc_copies``).
    A type without columns reads NaN; the total is the mean over the types
    present. The copies of all types are scored in one ``score_copies``
    stream: ``scores`` when given, a started stream whose next arrays score
    ``fc_copies(m, seed)`` (exactly those are drawn from it), else one of
    its own. ``base_scores``, when given, are the predictor's scores of ``m``."""
    present = _present(m)
    original = _base_scores(predictor, m, base_scores) >= BINARIZE_THRESHOLD
    if scores is None:
        scores = score_copies(predictor, m, fc_copies(m, seed))
    values = dict.fromkeys(_TYPE_ORDINAL, math.nan)
    for attribute_type in present:
        permuted = next(scores) >= BINARIZE_THRESHOLD
        values[attribute_type] = float((original != permuted).mean())
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
    return _type_counts(columns, np.argsort(-np.abs(w.weights), kind="stable")[:k])


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
