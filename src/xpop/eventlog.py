"""Event log data model: CSV parsing, validation, labelling.

An event log is a collection of traces, one per case; every event carries
the activity, a timestamp, static (per-case) attributes and dynamic
(per-event) attributes. The accepted interchange format is RFC 4180 CSV
with a header row, UTF-8, comma delimiter.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from datetime import datetime
from typing import IO, Mapping, Union

MISSING = "__missing__"

ROLE_CASE_ID = "case_id"
ROLE_ACTIVITY = "activity"
ROLE_TIMESTAMP = "timestamp"
ROLE_LABEL = "label"
ROLE_STATIC_CAT = "static_categorical"
ROLE_STATIC_NUM = "static_numeric"
ROLE_DYNAMIC_CAT = "dynamic_categorical"
ROLE_DYNAMIC_NUM = "dynamic_numeric"

_ROLES = {
    ROLE_CASE_ID,
    ROLE_ACTIVITY,
    ROLE_TIMESTAMP,
    ROLE_LABEL,
    ROLE_STATIC_CAT,
    ROLE_STATIC_NUM,
    ROLE_DYNAMIC_CAT,
    ROLE_DYNAMIC_NUM,
}

_UNIQUE_ROLES = (ROLE_CASE_ID, ROLE_ACTIVITY, ROLE_TIMESTAMP)


class SchemaError(ValueError):
    """Schema declaration is invalid or does not match the file."""


class ParseError(ValueError):
    """The CSV content violates the schema or the log invariants."""


@dataclass(frozen=True)
class AttributeSchema:
    """Maps every CSV column to a role and fixes the timestamp format."""

    column_roles: Mapping[str, str]
    timestamp_format: str = "%Y-%m-%d %H:%M:%S"
    positive_label: str = "deviant"

    def __post_init__(self) -> None:
        for col, role in self.column_roles.items():
            if role not in _ROLES:
                raise SchemaError(f"unknown role {role!r} for column {col!r}")
        for role in _UNIQUE_ROLES:
            n = sum(1 for r in self.column_roles.values() if r == role)
            if n != 1:
                raise SchemaError(f"schema needs exactly one {role} column, found {n}")
        n_label = sum(1 for r in self.column_roles.values() if r == ROLE_LABEL)
        if n_label > 1:
            raise SchemaError(f"schema allows at most one label column, found {n_label}")

    def _column(self, role: str) -> str:
        for col, r in self.column_roles.items():
            if r == role:
                return col
        raise SchemaError(f"no column with role {role}")

    @property
    def case_id_column(self) -> str:
        return self._column(ROLE_CASE_ID)

    @property
    def activity_column(self) -> str:
        return self._column(ROLE_ACTIVITY)

    @property
    def timestamp_column(self) -> str:
        return self._column(ROLE_TIMESTAMP)

    @property
    def label_column(self) -> str | None:
        for col, r in self.column_roles.items():
            if r == ROLE_LABEL:
                return col
        return None

    def columns_with_role(self, role: str) -> tuple[str, ...]:
        return tuple(c for c, r in self.column_roles.items() if r == role)

    @property
    def static_categorical(self) -> tuple[str, ...]:
        return self.columns_with_role(ROLE_STATIC_CAT)

    @property
    def static_numeric(self) -> tuple[str, ...]:
        return self.columns_with_role(ROLE_STATIC_NUM)

    @property
    def dynamic_categorical(self) -> tuple[str, ...]:
        return self.columns_with_role(ROLE_DYNAMIC_CAT)

    @property
    def dynamic_numeric(self) -> tuple[str, ...]:
        return self.columns_with_role(ROLE_DYNAMIC_NUM)


@dataclass(frozen=True)
class Event:
    case_id: str
    activity: str
    timestamp: datetime
    statics: Mapping[str, object]
    dynamics: Mapping[str, object]


@dataclass(frozen=True)
class Trace:
    """Events of one case, ascending by timestamp (ties keep input order)."""

    case_id: str
    events: tuple[Event, ...]
    label: int | None = None

    def __len__(self) -> int:
        return len(self.events)

    @property
    def activities(self) -> tuple[str, ...]:
        return tuple(e.activity for e in self.events)


@dataclass(frozen=True)
class EventLog:
    traces: tuple[Trace, ...]
    schema: AttributeSchema

    def __post_init__(self) -> None:
        ids = [t.case_id for t in self.traces]
        if len(ids) != len(set(ids)):
            raise ParseError("case ids are not unique across traces")

    def __len__(self) -> int:
        return len(self.traces)


def parse_schema_config(text: str) -> AttributeSchema:
    """Read the plain-text schema config (one ``column = role`` line each)."""
    roles: dict[str, str] = {}
    ts_format = "%Y-%m-%d %H:%M:%S"
    positive = "deviant"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"schema config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "timestamp_format":
            ts_format = value
        elif key == "positive_label":
            positive = value
        else:
            if key in roles:
                raise SchemaError(f"schema config line {lineno}: duplicate column {key!r}")
            roles[key] = value
    return AttributeSchema(roles, timestamp_format=ts_format, positive_label=positive)


def format_schema_config(schema: AttributeSchema) -> str:
    lines = [f"{col} = {role}" for col, role in schema.column_roles.items()]
    lines.append(f"timestamp_format = {schema.timestamp_format}")
    lines.append(f"positive_label = {schema.positive_label}")
    return "\n".join(lines) + "\n"


def _as_text_stream(stream: Union[str, bytes, IO]) -> IO[str]:
    if isinstance(stream, str):
        return io.StringIO(stream)
    if isinstance(stream, bytes):
        return io.TextIOWrapper(io.BytesIO(stream), encoding="utf-8", newline="")
    data = stream.read()
    if isinstance(data, bytes):
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    return io.StringIO(data)


def _parse_numeric(value: str, column: str, row_number: int) -> float:
    if value == "":
        raise ParseError(f"row {row_number}: empty numeric cell in column {column!r}")
    try:
        return float(value)
    except ValueError:
        raise ParseError(
            f"row {row_number}: non-numeric value {value!r} in column {column!r}"
        ) from None


def parse_csv(stream: Union[str, bytes, IO], schema: AttributeSchema) -> EventLog:
    """Parse a CSV stream into an EventLog validated against the schema.

    Events are grouped by case id and stably sorted by timestamp within
    each trace. The label column, when present, must be constant per case.
    """
    text = _as_text_stream(stream)
    reader = csv.reader(text)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file: missing header row") from None

    declared = set(schema.column_roles)
    present = set(header)
    if len(header) != len(present):
        dupes = sorted({c for c in header if header.count(c) > 1})
        raise ParseError(f"duplicate columns in header: {', '.join(dupes)}")
    missing = declared - present
    if missing:
        raise ParseError(f"columns declared in schema but absent: {', '.join(sorted(missing))}")
    extra = present - declared
    if extra:
        raise ParseError(f"columns not assigned a role: {', '.join(sorted(extra))}")

    idx = {c: header.index(c) for c in header}
    case_col = schema.case_id_column
    act_col = schema.activity_column
    ts_col = schema.timestamp_column
    label_col = schema.label_column

    cases: dict[str, list[Event]] = {}
    labels: dict[str, str] = {}
    for row_number, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError(f"row {row_number}: expected {len(header)} cells, got {len(row)}")
        case_id = row[idx[case_col]]
        raw_ts = row[idx[ts_col]]
        try:
            ts = datetime.strptime(raw_ts, schema.timestamp_format)
        except ValueError:
            raise ParseError(f"row {row_number}: unparseable timestamp {raw_ts!r}") from None

        statics: dict[str, object] = {}
        for col in schema.static_categorical:
            value = row[idx[col]]
            statics[col] = value if value != "" else MISSING
        for col in schema.static_numeric:
            statics[col] = _parse_numeric(row[idx[col]], col, row_number)
        dynamics: dict[str, object] = {}
        for col in schema.dynamic_categorical:
            value = row[idx[col]]
            dynamics[col] = value if value != "" else MISSING
        for col in schema.dynamic_numeric:
            dynamics[col] = _parse_numeric(row[idx[col]], col, row_number)

        if label_col is not None:
            raw_label = row[idx[label_col]]
            if case_id in labels and labels[case_id] != raw_label:
                raise ParseError(
                    f"row {row_number}: label inconsistent within case {case_id!r}"
                )
            labels[case_id] = raw_label

        event = Event(case_id, row[idx[act_col]], ts, statics, dynamics)
        cases.setdefault(case_id, []).append(event)

    traces = []
    for case_id, events in cases.items():
        events = sorted(events, key=lambda e: e.timestamp)  # stable: ties keep input order
        first = events[0].statics
        for e in events[1:]:
            for col, value in e.statics.items():
                if value != first[col]:
                    raise ParseError(
                        f"static attribute {col!r} varies in case {case_id!r}"
                    )
        label = None
        if label_col is not None:
            label = 1 if labels[case_id] == schema.positive_label else 0
        traces.append(Trace(case_id, tuple(events), label))
    return EventLog(tuple(traces), schema)


def serialize_csv(log: EventLog) -> str:
    """Write the log back to CSV in schema column order (round-trippable)."""
    schema = log.schema
    header = list(schema.column_roles)
    negative = "regular" if schema.positive_label != "regular" else "non_deviant"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for trace in log.traces:
        for event in trace.events:
            row = []
            for col in header:
                role = schema.column_roles[col]
                if role == ROLE_CASE_ID:
                    row.append(event.case_id)
                elif role == ROLE_ACTIVITY:
                    row.append(event.activity)
                elif role == ROLE_TIMESTAMP:
                    row.append(event.timestamp.strftime(schema.timestamp_format))
                elif role == ROLE_LABEL:
                    if trace.label is None:
                        raise ParseError(f"case {trace.case_id!r} has no label to serialize")
                    row.append(schema.positive_label if trace.label == 1 else negative)
                elif role in (ROLE_STATIC_CAT, ROLE_DYNAMIC_CAT):
                    source = event.statics if role == ROLE_STATIC_CAT else event.dynamics
                    row.append(str(source[col]))
                else:
                    source = event.statics if role == ROLE_STATIC_NUM else event.dynamics
                    row.append(repr(float(source[col])))
            writer.writerow(row)
    return out.getvalue()


def label_eventually_followed_by(log: EventLog, a: str, b: str) -> EventLog:
    """Label traces by the eventually-followed-by rule.

    A trace is regular (0) iff every occurrence of activity ``a`` is
    followed, later in the same trace, by an occurrence of ``b``;
    otherwise it is deviant (1). Returns a new log; the input is unchanged.
    """
    if a == b:
        raise ValueError("rule activities must differ")
    traces = []
    for trace in log.traces:
        acts = trace.activities
        deviant = 0
        for i, act in enumerate(acts):
            if act == a and b not in acts[i + 1 :]:
                deviant = 1
                break
        traces.append(replace(trace, label=deviant))
    return EventLog(tuple(traces), log.schema)
