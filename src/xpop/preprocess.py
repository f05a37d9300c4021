"""Temporal splitting, prefix extraction, and the aggregation encoding.

The encoding turns each variable-length prefix into a fixed-length numeric
row. Columns are tagged with the attribute type they derive from:

* control — activity frequency columns,
* case    — one-hot / passthrough columns from static attributes,
* event   — summary statistics of dynamic numerics and timestamp features,
            plus dynamic categorical frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from xpop.eventlog import AttributeSchema, EventLog, csv_column, csv_lines

CONTROL = "control"
CASE = "case"
EVENT = "event"
# the attribute types in report order; FC seeds type t with seed + TYPES.index(t)
TYPES = (CONTROL, CASE, EVENT)

TIMESTAMP_FEATURES = ("timesincelastevent", "timesincecasestart", "timesincemidnight")
STATS = ("min", "max", "mean", "sum", "std")


@dataclass(frozen=True)
class Vocabulary:
    """Unique categorical values in first-occurrence order, fitted on train."""

    activities: tuple[str, ...]
    categorical: Mapping[str, tuple[str, ...]]


@dataclass(frozen=True)
class ColumnMeta:
    name: str
    attribute_type: str
    source: str
    derivation: str


@dataclass(frozen=True)
class EncodedMatrix:
    columns: tuple[ColumnMeta, ...]
    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.rows.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    @property
    def n_columns(self) -> int:
        return int(self.rows.shape[1])

    def columns_of_type(self, attribute_type: str) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.attribute_type == attribute_type]

    @cached_property
    def distinct(self) -> tuple[np.ndarray, ...]:
        """Each column's sorted distinct values, computed once; read-only like ``rows``."""
        distinct = tuple(np.unique(column) for column in self.rows.T)
        for values in distinct:
            values.setflags(write=False)
        return distinct

    def export_csv(self) -> str:
        """``csv_header`` and ``label``, then each row's ``csv_cells`` and label."""
        header = self.csv_header()[:-1]
        labels = [str(int(label)) for label in self.labels.tolist()]
        return (f"{header}{',' if header else ''}label\n"
                + csv_lines([*self.csv_cells(), labels], self.n_rows))

    def csv_header(self) -> str:
        """The bridge's header line: one ``name:type`` cell per column, each
        an RFC 4180 field (``csv_column``)."""
        return ",".join(csv_column([f"{c.name}:{c.attribute_type}" for c in self.columns])) + "\n"

    def csv_cells(self) -> list[list[str]]:
        """Each column's cells as shortest-form decimals (``_decimals``)."""
        return [_decimals(column) for column in self.rows.T]


def _decimals(values) -> list[str]:
    """Each value as a float64's shortest round-trip decimal (``repr``): the
    cell format of ``EncodedMatrix.export_csv``."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def copy_csv_rows(cells: Sequence[list[str]], copy: Mapping[int, np.ndarray], n_rows: int) -> str:
    """The row lines the bridge sends for a copy of a matrix, from the
    matrix's ``csv_cells`` and the copy's ``{column index: values}`` map
    (values broadcast to ``n_rows``): only the copy's own columns are
    formatted anew."""
    columns = list(cells)
    for column, values in copy.items():
        columns[column] = _decimals(np.broadcast_to(values, n_rows))
    return csv_lines(columns, n_rows)


def temporal_split(log: EventLog, train_ratio: float) -> tuple[EventLog, EventLog]:
    """Split cases on first-event time; cut train events overlapping test.
    Both logs share the columns of ``log``."""
    if not 0.0 < train_ratio < 1.0:
        raise ValueError("train_ratio must be in (0, 1)")
    for trace in log.traces:
        if trace.label is None:
            raise ValueError(f"case {trace.case_id!r} is unlabelled")
    times = log.timestamps
    ordered = sorted(log.traces, key=lambda t: times[t.events[0]])
    n_train = math.ceil(train_ratio * len(ordered))
    train_traces = ordered[:n_train]
    test_traces = ordered[n_train:]
    if not train_traces or not test_traces:
        raise ValueError("temporal split left one side empty")

    cutoff = min(times[t.events[0]] for t in test_traces)
    # a trace's events are in time order, so those before the cutoff are a prefix
    kept = [(t, np.count_nonzero(times[t.events] < cutoff)) for t in train_traces]
    cut = tuple(replace(t, events=t.events[:n]) for t, n in kept if n)
    if not cut:
        raise ValueError("temporal split left one side empty")
    return replace(log, traces=cut), replace(log, traces=tuple(test_traces))


def extract_prefixes(log: EventLog, max_prefix: int) -> EventLog:
    """The log with each trace cut to its first ``max_prefix`` events: its
    prefixes of length 1..min(|trace|, max_prefix), gap 1, are encoded."""
    if max_prefix < 1:
        raise ValueError("max_prefix must be >= 1")
    return replace(log, traces=tuple(replace(t, events=t.events[:max_prefix]) for t in log.traces))


def fit_vocabulary(train: EventLog) -> Vocabulary:
    """The categorical values of the log's own traces and events, in
    first-occurrence order."""
    schema = train.schema
    at = np.fromiter(chain.from_iterable(t.events for t in train.traces), np.intp)
    categorical = {
        c: tuple(dict.fromkeys(str(t.statics[c]) for t in train.traces))
        for c in schema.static_categorical
    }
    for c in schema.dynamic_categorical:
        categorical[c] = tuple(dict.fromkeys(map(str, train.dynamics[c][at].tolist())))
    return Vocabulary(tuple(dict.fromkeys(train.activities[at].tolist())), categorical)


def _columns(schema: AttributeSchema, vocab: Vocabulary) -> tuple[ColumnMeta, ...]:
    act_col = schema.activity_column
    cols = [
        ColumnMeta(f"{act_col}={v}", CONTROL, act_col, "frequency") for v in vocab.activities
    ]
    for attr in schema.static_categorical:
        cols.extend(
            ColumnMeta(f"{attr}={v}", CASE, attr, "onehot") for v in vocab.categorical[attr]
        )
    for attr in schema.static_numeric:
        cols.append(ColumnMeta(attr, CASE, attr, "passthrough"))
    for feature in TIMESTAMP_FEATURES:
        cols.extend(
            ColumnMeta(f"{feature}_{stat}", EVENT, feature, stat) for stat in STATS
        )
    for attr in schema.dynamic_numeric:
        cols.extend(ColumnMeta(f"{attr}_{stat}", EVENT, attr, stat) for stat in STATS)
    for attr in schema.dynamic_categorical:
        cols.extend(
            ColumnMeta(f"{attr}={v}", EVENT, attr, "frequency") for v in vocab.categorical[attr]
        )
    seen: set[str] = set()
    for c in cols:
        if c.name in seen:
            raise ValueError(f"encoded column {c.name!r} appears twice; rename {c.source!r}")
        seen.add(c.name)
    return tuple(cols)


def aggregate_encode(log: EventLog, vocab: Vocabulary) -> EncodedMatrix:
    """Aggregation encoding of every prefix of every trace of ``log`` (cut
    by ``extract_prefixes``) under its own schema, against a fitted vocabulary.

    Unseen categorical values contribute to no column; std is the sample
    standard deviation (0 for single-event prefixes). Rows are ordered by
    (case_id, prefix length). The timestamp features are int64 microsecond
    differences divided by 1e6, the correctly rounded quotient that
    ``timedelta.total_seconds()`` gives for gaps under 2**53 us (285 years).

    Row r holds the prefix that ends at the r-th encoded event, so each
    event marks the columns of its activity and categorical values in its
    own row, and its timestamp features and dynamic numerics go to
    ``values[case, series, position]``. Then one loop over prefix length k
    takes the cases with at least k events, adds row k-1's frequencies to
    row k's, and reduces ``values[cases, :, :k]`` along its last axis, which
    sums each series pairwise as a 1-D array of its k values is: a running
    sum or Welford update would round differently.
    """
    schema = log.schema
    columns = _columns(schema, vocab)
    name_index = {c.name: i for i, c in enumerate(columns)}

    def marks_of(attr: str, values, vocabulary) -> list[int]:
        """Each value's column among the attribute's own columns (-1: unseen)."""
        index = {str(v): name_index[f"{attr}={v}"] for v in vocabulary}
        return [index.get(str(v), -1) for v in values]

    # stat_cols[s, f]: the column of statistic s of series f
    series = TIMESTAMP_FEATURES + schema.dynamic_numeric
    stat_cols = np.array([[name_index[f"{f}_{stat}"] for f in series] for stat in STATS])
    counted = np.array([i for i, c in enumerate(columns) if c.derivation == "frequency"],
                       dtype=np.intp)

    traces = [t for t in sorted(log.traces, key=lambda t: t.case_id) if t.events]
    unlabelled = next((t for t in traces if t.label is None), None)
    if unlabelled is not None:
        raise ValueError(f"case {unlabelled.case_id!r} is unlabelled")
    lengths = np.array([len(t) for t in traces], dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    case_of_row = np.repeat(np.arange(len(traces)), lengths)
    position = np.arange(len(case_of_row)) - starts[case_of_row]  # k - 1
    rows = np.zeros((len(case_of_row), len(columns)), dtype=np.float64)
    labels = np.repeat(np.array([t.label for t in traces], dtype=np.int64), lengths)

    # events[r]: the position of row r's event in the log's columns
    events = np.array([t.events.start for t in traces], dtype=np.intp)[case_of_row] + position
    us = log.timestamps[events].view(np.int64)
    last = np.diff(us, prepend=us[:1]) / 1e6
    last[starts] = 0.0  # a case's first event follows none
    since_start = (us - us[starts[case_of_row]]) / 1e6
    day = us % 86_400_000_000
    midnight = day // 1_000_000 + day % 1_000_000 / 1e6  # whole seconds + fraction

    # marks[a, r]: the column of row r's value of categorical attribute a
    # (-1: unseen). A static value marks every row of its case; the loop
    # below adds up the activity and dynamic marks along each case.
    marks = [marks_of(schema.activity_column, log.activities[events].tolist(), vocab.activities)]
    marks += [marks_of(a, log.dynamics[a][events].tolist(), vocab.categorical[a])
              for a in schema.dynamic_categorical]
    marks += [np.array(marks_of(a, [t.statics[a] for t in traces], vocab.categorical[a]),
                       dtype=np.intp)[case_of_row] for a in schema.static_categorical]
    marks = np.array(marks, dtype=np.intp)
    known = marks >= 0
    rows[np.nonzero(known)[1], marks[known]] = 1.0
    for attr in schema.static_numeric:
        rows[:, name_index[attr]] = np.repeat([float(t.statics[attr]) for t in traces], lengths)

    # values[case, series, position]: the series the statistics reduce
    values = np.zeros((len(traces), len(series), int(lengths.max(initial=0))))
    dynamic = (log.dynamics[a][events] for a in schema.dynamic_numeric)
    values[case_of_row, :, position] = np.array([last, since_start, midnight, *dynamic]).T

    for k in range(1, values.shape[2] + 1):
        cases = np.flatnonzero(lengths >= k)
        at = starts[cases, None] + (k - 1)
        if k > 1:
            rows[at, counted] += rows[at - 1, counted]
        head = values[cases, :, :k]
        stats = [head.min(-1), head.max(-1), head.mean(-1), head.sum(-1)]
        if k > 1:
            stats.append(head.std(-1, ddof=1))
        rows[at, stat_cols[: len(stats)].ravel()] = np.concatenate(stats, axis=1)

    return EncodedMatrix(columns, rows, labels)
