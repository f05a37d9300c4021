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
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from xpop.eventlog import AttributeSchema, Event, EventLog, Trace

CONTROL = "control"
CASE = "case"
EVENT = "event"

TIMESTAMP_FEATURES = ("timesincelastevent", "timesincecasestart", "timesincemidnight")
STATS = ("min", "max", "mean", "sum", "std")


@dataclass(frozen=True)
class Prefix:
    case_id: str
    events: tuple[Event, ...]
    length: int
    label: int | None


@dataclass(frozen=True)
class PrefixLog:
    prefixes: tuple[Prefix, ...]
    schema: AttributeSchema

    def __len__(self) -> int:
        return len(self.prefixes)


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
    provenance: tuple[tuple[str, int], ...]

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

    def type_counts(self) -> dict[str, int]:
        counts = {CONTROL: 0, CASE: 0, EVENT: 0}
        for c in self.columns:
            counts[c.attribute_type] += 1
        return counts

    def columns_of_type(self, attribute_type: str) -> list[int]:
        return [i for i, c in enumerate(self.columns) if c.attribute_type == attribute_type]

    def export_csv(self, include_label: bool = True) -> str:
        """Bridge wire format: ``name:type`` header, shortest-form decimals."""
        header = [f"{c.name}:{c.attribute_type}" for c in self.columns]
        if include_label:
            header.append("label")
        lines = [",".join(header)]
        labels = self.labels.tolist()
        for j, row in enumerate(self.rows.tolist()):
            cells = ",".join(map(repr, row))
            lines.append(f"{cells},{int(labels[j])}" if include_label else cells)
        return "\n".join(lines) + "\n"


def temporal_split(log: EventLog, train_ratio: float) -> tuple[EventLog, EventLog]:
    """Split cases on first-event time; cut train events overlapping test."""
    if not 0.0 < train_ratio < 1.0:
        raise ValueError("train_ratio must be in (0, 1)")
    for trace in log.traces:
        if trace.label is None:
            raise ValueError(f"case {trace.case_id!r} is unlabelled")
    ordered = sorted(log.traces, key=lambda t: t.events[0].timestamp)
    n_train = math.ceil(train_ratio * len(ordered))
    train_traces = list(ordered[:n_train])
    test_traces = list(ordered[n_train:])
    if not train_traces or not test_traces:
        raise ValueError("temporal split left one side empty")

    cutoff = min(t.events[0].timestamp for t in test_traces)
    cut = []
    for trace in train_traces:
        kept = tuple(e for e in trace.events if e.timestamp < cutoff)
        if kept:
            cut.append(Trace(trace.case_id, kept, trace.label))
    if not cut:
        raise ValueError("temporal split left one side empty")
    return EventLog(tuple(cut), log.schema), EventLog(tuple(test_traces), log.schema)


def extract_prefixes(log: EventLog, max_prefix: int) -> PrefixLog:
    """Emit every prefix of length 1..min(|trace|, max_prefix), gap 1."""
    if max_prefix < 1:
        raise ValueError("max_prefix must be >= 1")
    prefixes = []
    for trace in log.traces:
        for k in range(1, min(len(trace), max_prefix) + 1):
            prefixes.append(Prefix(trace.case_id, trace.events[:k], k, trace.label))
    return PrefixLog(tuple(prefixes), log.schema)


def fit_vocabulary(train: EventLog) -> Vocabulary:
    schema = train.schema
    activities: dict[str, None] = {}
    categorical: dict[str, dict[str, None]] = {
        c: {} for c in schema.static_categorical + schema.dynamic_categorical
    }
    for trace in train.traces:
        for event in trace.events:
            activities.setdefault(event.activity, None)
            for col in schema.static_categorical:
                categorical[col].setdefault(str(event.statics[col]), None)
            for col in schema.dynamic_categorical:
                categorical[col].setdefault(str(event.dynamics[col]), None)
    return Vocabulary(
        tuple(activities),
        {c: tuple(values) for c, values in categorical.items()},
    )


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
    return tuple(cols)


def _summary(values: np.ndarray) -> tuple[float, float, float, float, float]:
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return (
        float(values.min()),
        float(values.max()),
        float(values.mean()),
        float(values.sum()),
        std,
    )


def aggregate_encode(
    prefixes: PrefixLog, schema: AttributeSchema, vocab: Vocabulary
) -> EncodedMatrix:
    """Aggregation encoding of a prefix log against a fitted vocabulary.

    Unseen categorical values contribute to no column; std is the sample
    standard deviation (0 for single-event prefixes). Rows are ordered by
    (case_id, prefix length).
    """
    columns = _columns(schema, vocab)
    name_index = {c.name: i for i, c in enumerate(columns)}
    act_col = schema.activity_column

    ordered = sorted(prefixes.prefixes, key=lambda p: (p.case_id, p.length))
    rows = np.zeros((len(ordered), len(columns)), dtype=np.float64)
    labels = np.zeros(len(ordered), dtype=np.int64)
    provenance = []

    for j, prefix in enumerate(ordered):
        events = prefix.events
        row = rows[j]
        for event in events:
            key = f"{act_col}={event.activity}"
            if key in name_index:
                row[name_index[key]] += 1.0
        first = events[0]
        for attr in schema.static_categorical:
            key = f"{attr}={first.statics[attr]}"
            if key in name_index:
                row[name_index[key]] = 1.0
        for attr in schema.static_numeric:
            row[name_index[attr]] = float(first.statics[attr])

        times = [e.timestamp for e in events]
        since_last = np.array(
            [0.0] + [(times[i] - times[i - 1]).total_seconds() for i in range(1, len(times))]
        )
        since_start = np.array([(t - times[0]).total_seconds() for t in times])
        since_midnight = np.array(
            [t.hour * 3600 + t.minute * 60 + t.second + t.microsecond / 1e6 for t in times]
        )
        derived = dict(
            zip(TIMESTAMP_FEATURES, (since_last, since_start, since_midnight))
        )
        for feature, values in derived.items():
            for stat, value in zip(STATS, _summary(values)):
                row[name_index[f"{feature}_{stat}"]] = value
        for attr in schema.dynamic_numeric:
            values = np.array([float(e.dynamics[attr]) for e in events])
            for stat, value in zip(STATS, _summary(values)):
                row[name_index[f"{attr}_{stat}"]] = value
        for attr in schema.dynamic_categorical:
            for event in events:
                key = f"{attr}={event.dynamics[attr]}"
                if key in name_index:
                    row[name_index[key]] += 1.0

        if prefix.label is None:
            raise ValueError(f"prefix of case {prefix.case_id!r} is unlabelled")
        labels[j] = int(prefix.label)
        provenance.append((prefix.case_id, prefix.length))

    return EncodedMatrix(columns, rows, labels, tuple(provenance))
