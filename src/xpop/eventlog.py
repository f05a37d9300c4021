"""Event log data model: CSV parsing, validation, labelling.

An event log stores its events by column: activity, timestamp and one
column per dynamic (per-event) attribute. Each case is a trace that holds
its case id and static (per-case) attributes once and names the range of
positions its events take in the columns. Every CSV file xpop reads or
writes is RFC 4180 with a header row, UTF-8, comma delimiter: read by
``csv_records``, quoted by ``csv_column`` and joined by ``csv_lines``.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import cached_property
from itertools import chain, count, pairwise, repeat
from typing import IO, Iterator, Mapping, Sequence, Union

import numpy as np

MISSING = "__missing__"
DEFAULT_TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"
# The default format's fixed-width text in ASCII digits. numpy reads year
# 0000, which strptime rejects, so that year is left to strptime.
_DEFAULT_SHAPE = re.compile(r"(?!0000)[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}")

# the column roles; a schema has exactly one column of each of the first three
_ROLES = ("case_id", "activity", "timestamp", "label", "static_categorical",
          "static_numeric", "dynamic_categorical", "dynamic_numeric")


class SchemaError(ValueError):
    """Schema declaration is invalid or does not match the file."""


class ParseError(ValueError):
    """The CSV content violates the schema or the log invariants."""


@dataclass(frozen=True)
class AttributeSchema:
    """Maps every CSV column to a role and fixes the timestamp format."""

    column_roles: Mapping[str, str]
    timestamp_format: str = DEFAULT_TIMESTAMP_FORMAT
    positive_label: str = "deviant"

    def __post_init__(self) -> None:
        for col, role in self.column_roles.items():
            if role not in _ROLES:
                raise SchemaError(f"unknown role {role!r} for column {col!r}")
        for role in _ROLES[:3]:
            n = len(self._by_role[role])
            if n != 1:
                raise SchemaError(f"schema needs exactly one {role} column, found {n}")
        n_label = len(self._by_role["label"])
        if n_label > 1:
            raise SchemaError(f"schema allows at most one label column, found {n_label}")

    @cached_property
    def _by_role(self) -> dict[str, tuple[str, ...]]:
        """role -> its columns in schema order, derived once per schema."""
        return {r: tuple(c for c, role in self.column_roles.items() if role == r) for r in _ROLES}

    @property
    def case_id_column(self) -> str:
        return self._by_role["case_id"][0]

    @property
    def activity_column(self) -> str:
        return self._by_role["activity"][0]

    @property
    def timestamp_column(self) -> str:
        return self._by_role["timestamp"][0]

    @property
    def label_column(self) -> str | None:
        return next(iter(self._by_role["label"]), None)

    @property
    def static_categorical(self) -> tuple[str, ...]:
        return self._by_role["static_categorical"]

    @property
    def static_numeric(self) -> tuple[str, ...]:
        return self._by_role["static_numeric"]

    @property
    def dynamic_categorical(self) -> tuple[str, ...]:
        return self._by_role["dynamic_categorical"]

    @property
    def dynamic_numeric(self) -> tuple[str, ...]:
        return self._by_role["dynamic_numeric"]


@dataclass(frozen=True)
class Trace:
    """One case: its static attributes and the positions of its events in
    the log's event columns, ascending by timestamp (ties keep input order)."""

    case_id: str
    statics: Mapping[str, object]
    events: range
    label: int | None = None

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True, eq=False)
class EventLog:
    """Traces over event columns: event i has activity ``activities[i]``,
    timestamp ``timestamps[i]`` (datetime64[us]) and ``dynamics[attr][i]``
    (text for a categorical, float64 for a numeric), each a numpy array
    (sequences given are converted). A log cut from another (a split,
    prefixes) shares its columns."""

    traces: tuple[Trace, ...]
    schema: AttributeSchema
    activities: np.ndarray
    timestamps: np.ndarray
    dynamics: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        ids = [t.case_id for t in self.traces]
        if len(ids) != len(set(ids)):
            raise ParseError("case ids are not unique across traces")
        numeric = self.schema.dynamic_numeric
        object.__setattr__(self, "activities", np.asarray(self.activities, dtype=object))
        object.__setattr__(self, "timestamps", np.asarray(self.timestamps, dtype="datetime64[us]"))
        object.__setattr__(self, "dynamics", {
            c: np.asarray(v, dtype=np.float64 if c in numeric else object)
            for c, v in self.dynamics.items()
        })

    def __len__(self) -> int:
        return len(self.traces)

    def __eq__(self, other) -> bool:
        """Equal logs hold the same cases with the same events, wherever
        those sit in their columns."""
        def content(log):
            return log.schema, [(t.case_id, t.statics, t.label, log.timestamps[t.events].tolist(),
                                 log.activities[t.events].tolist(),
                                 {c: v[t.events].tolist() for c, v in log.dynamics.items()})
                                for t in log.traces]
        return isinstance(other, EventLog) and content(self) == content(other)


def parse_schema_config(text: str) -> AttributeSchema:
    """Read the plain-text schema config (one ``column = role`` line each)."""
    roles: dict[str, str] = {}
    ts_format = DEFAULT_TIMESTAMP_FORMAT
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


def csv_records(data: str | bytes) -> Iterator[tuple[int, list[str]]]:
    """Each CSV record of ``data`` with its row number, from 1, without a
    leading byte-order mark; a CR, an LF or a CRLF ends a record. Bytes are
    checked by one UTF-8 decode. An invalid byte, or a record the csv module
    refuses (a field over its size limit), is a ParseError naming its row,
    raised after the records before that row, so an earlier bad row is met first."""
    if isinstance(data, bytes):
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the text before the byte plus a stand-in, so that its row counts
            # even when the byte starts one: every record but the last, whose row is kept
            last = 1
            for record, (last, _) in pairwise(csv_records(data[:exc.start].decode("utf-8") + "?")):
                yield record
            raise ParseError(f"row {last}: invalid UTF-8 byte 0x{data[exc.start]:02x}") from None
        # read by chunks: a whole-text StringIO holds 4 bytes per character
        lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    else:
        lines = io.StringIO(data.removeprefix("\ufeff"), newline="")
    rows = count(1)  # zip draws the row number before the record it pairs
    try:
        yield from zip(rows, csv.reader(lines))
    except csv.Error as exc:
        raise ParseError(f"row {next(rows) - 1}: {exc}") from None


def csv_column(cells: list[str]) -> list[str]:
    """``cells`` as RFC 4180 fields: a cell that holds a comma, a double
    quote, a CR or an LF in double quotes, its own doubled; any other as it
    is. A column with no such cell is returned as it is."""
    if not _needs_quotes("".join(cells)):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _needs_quotes(c) else c for c in cells]


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\r" in text or "\n" in text


def csv_lines(columns: Sequence[Sequence[str]], n_rows: int) -> str:
    """``n_rows`` LF-terminated CSV lines from fields given column by
    column (each quoted as ``csv_column`` quotes it, where it needs it)."""
    if not columns:
        return "\n" * n_rows
    return "".join([line + "\n" for line in map(",".join, zip(*columns))])


def decoded_text(data: bytes) -> str:
    """``data`` decoded as UTF-8, without a leading byte-order mark. An
    invalid byte is a ParseError that names its line."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "?").splitlines())
        raise ParseError(f"line {line}: invalid UTF-8 byte 0x{data[exc.start]:02x}") from None


def _parse_numeric(value: str, column: str, row_number: int) -> float:
    if value == "":
        raise ParseError(f"row {row_number}: empty numeric cell in column {column!r}")
    try:
        number = float(value)
    except ValueError:
        raise ParseError(
            f"row {row_number}: non-numeric value {value!r} in column {column!r}"
        ) from None
    if not math.isfinite(number):
        raise ParseError(f"row {row_number}: non-finite value {value!r} in column {column!r}")
    return number


def _attributes(row, categorical, numeric, row_number: int) -> dict[str, object]:
    """A row's cells at the (column, index) pairs: categorical text
    (MISSING when empty), then numeric floats."""
    values: dict[str, object] = {c: row[i] or MISSING for c, i in categorical}
    for c, i in numeric:
        values[c] = _parse_numeric(row[i], c, row_number)
    return values


def _strptime(raw: str, fmt: str, row_number: int) -> datetime:
    """The timestamp ``raw`` names; one with a UTC offset becomes UTC."""
    try:
        t = datetime.strptime(raw, fmt)
    except ValueError:
        raise ParseError(f"row {row_number}: unparseable timestamp {raw!r}") from None
    return t if t.tzinfo is None else t.astimezone(timezone.utc).replace(tzinfo=None)


def _check_stamps(stamps: Sequence[str], fmt: str) -> None:
    """Raise the error of the first row whose timestamp strptime rejects."""
    for row_number, raw in enumerate(stamps, start=2):
        _strptime(raw, fmt, row_number)


def parse_csv(stream: Union[str, bytes, IO], schema: AttributeSchema) -> EventLog:
    """Parse a CSV stream into an EventLog validated against the schema.

    Events are grouped by case id and stably sorted by timestamp within
    each trace. The label and the static attributes, when present, must be
    constant per case; each row is checked as it is read. A case keeps the
    statics of its earliest event (ties: the first row), which matters only
    for values that compare equal but differ, like -0.0 and 0.0.

    Under the default timestamp format, a timestamp of the exact ASCII shape
    ``NNNN-NN-NN NN:NN:NN`` (year 0000 aside) is kept as text while the rows
    are read and the whole column is converted by one numpy call; any other
    timestamp goes through ``strptime``. Both accept the same strings, and
    an error still names the first row whose timestamp ``strptime`` rejects.
    """
    reader = csv_records(stream if isinstance(stream, (str, bytes)) else stream.read())
    try:
        _, header = next(reader)
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
    case_i = idx[schema.case_id_column]
    act_i = idx[schema.activity_column]
    ts_i = idx[schema.timestamp_column]
    label_col = schema.label_column
    label_i = None if label_col is None else idx[label_col]
    static_cat, static_num, dynamic_cat, dynamic_num = (
        [(c, idx[c]) for c in columns]
        for columns in (schema.static_categorical, schema.static_numeric,
                        schema.dynamic_categorical, schema.dynamic_numeric)
    )

    fmt = schema.timestamp_format
    bulk = fmt == DEFAULT_TIMESTAMP_FORMAT
    # the event columns in row order; a timestamp is fixed-width text under
    # the default format (the column is converted after the loop), else a datetime
    stamps, activities, case_of_row = [], [], []
    dynamics: dict[str, list] = {c: [] for c, _ in dynamic_cat + dynamic_num}
    # case id -> (its number, earliest timestamp, that row's statics, raw label)
    first: dict[str, tuple[int, object, dict[str, object], str | None]] = {}
    try:
        for row_number, row in reader:
            if len(row) != len(header):
                raise ParseError(
                    f"row {row_number}: expected {len(header)} cells, got {len(row)}"
                )
            case_id = row[case_i]
            raw_ts = row[ts_i]
            if bulk and _DEFAULT_SHAPE.fullmatch(raw_ts):
                ts = raw_ts  # fixed-width: sorts as the time it names
            else:
                ts = _strptime(raw_ts, fmt, row_number)
                if bulk:
                    ts = ts.isoformat(" ")
            stamps.append(ts)
            statics = _attributes(row, static_cat, static_num, row_number)
            for c, value in _attributes(row, dynamic_cat, dynamic_num, row_number).items():
                dynamics[c].append(value)
            activities.append(row[act_i])
            raw_label = None if label_i is None else row[label_i]

            # a case's first row sets its entry, which every row is checked against
            number, earliest, kept, label = first.setdefault(
                case_id, (len(first), ts, statics, raw_label))
            if raw_label != label:
                raise ParseError(f"row {row_number}: label inconsistent within case {case_id!r}")
            if statics != kept:
                col = next(c for c in kept if statics[c] != kept[c])
                raise ParseError(
                    f"row {row_number}: static attribute {col!r} varies in case {case_id!r}"
                )
            if ts < earliest:
                first[case_id] = (number, ts, statics, label)
            case_of_row.append(number)
        times = np.array(stamps, dtype="datetime64[us]")
    except ValueError:
        if bulk:  # an earlier row's timestamp, not yet checked, fails first
            _check_stamps(stamps, fmt)
        raise
    # by case, then by time; lexsort is stable, so ties keep input order
    order = np.lexsort((times.view(np.int64), np.array(case_of_row, dtype=np.intp)))
    ends = np.cumsum(np.bincount(case_of_row, minlength=len(first))).tolist()
    traces = []
    for (case_id, (_, _, statics, raw_label)), start, end in zip(first.items(), [0, *ends], ends):
        label = None if raw_label is None else int(raw_label == schema.positive_label)
        traces.append(Trace(case_id, statics, range(start, end), label))
    rows = EventLog((), schema, activities, times, dynamics)  # the columns in row order
    return EventLog(tuple(traces), schema, rows.activities[order], times[order],
                    {c: v[order] for c, v in rows.dynamics.items()})


def serialize_csv(log: EventLog) -> str:
    """Write the log back to CSV in schema column order (round-trippable).
    Each column's text is built once, then all rows are written."""
    schema = log.schema
    negative = "regular" if schema.positive_label != "regular" else "non_deviant"
    numeric = set(schema.static_numeric + schema.dynamic_numeric)
    traces = log.traces
    if schema.label_column is not None:
        unlabelled = next((t for t in traces if t.label is None), None)
        if unlabelled is not None:
            raise ParseError(f"case {unlabelled.case_id!r} has no label to serialize")
    lengths = [len(t) for t in traces]
    events = np.fromiter(chain.from_iterable(t.events for t in traces), dtype=np.intp,
                         count=sum(lengths))

    def per_case(cells):  # a case's cell, once for each of its events
        return list(chain.from_iterable(map(repeat, cells, lengths)))

    fmt = schema.timestamp_format
    times = log.timestamps[events].tolist()  # naive datetimes in UTC
    if "%z" in fmt.lower():  # an offset directive writes +0000 (%z) or UTC (%Z)
        times = [t.replace(tzinfo=timezone.utc) for t in times]
    columns = {
        schema.case_id_column: per_case(t.case_id for t in traces),
        schema.activity_column: log.activities[events].tolist(),
        schema.timestamp_column: [t.strftime(fmt) for t in times],
    }
    if schema.label_column is not None:
        columns[schema.label_column] = per_case(
            schema.positive_label if t.label == 1 else negative for t in traces)
    for c in schema.static_categorical + schema.static_numeric:
        columns[c] = per_case(repr(float(t.statics[c])) if c in numeric else str(t.statics[c])
                              for t in traces)
    for c, values in log.dynamics.items():
        columns[c] = list(map(repr if c in numeric else str, values[events].tolist()))

    return csv_lines([csv_column([c, *columns[c]]) for c in schema.column_roles], len(events) + 1)


def eventually_followed_label(activities: Sequence[str], a: str, b: str) -> int:
    """1 (deviant) if some occurrence of ``a`` in ``activities`` is not
    followed, later in the sequence, by ``b``; otherwise 0 (regular)."""
    for act in reversed(activities):
        if act == a:
            return 1
        if act == b:
            return 0
    return 0


def label_eventually_followed_by(log: EventLog, a: str, b: str) -> EventLog:
    """Label traces by the eventually-followed-by rule
    (``eventually_followed_label``). Returns a new log; the input is
    unchanged."""
    if a == b:
        raise ValueError("rule activities must differ")
    traces = [
        replace(t, label=eventually_followed_label(log.activities[t.events], a, b))
        for t in log.traces
    ]
    return replace(log, traces=tuple(traces))
