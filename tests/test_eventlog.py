from __future__ import annotations

import csv
import dataclasses
import io
import random
import re
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from xpop.eventlog import (
    DEFAULT_TIMESTAMP_FORMAT,
    MISSING,
    AttributeSchema,
    EventLog,
    ParseError,
    SchemaError,
    Trace,
    label_eventually_followed_by,
    parse_csv,
    parse_schema_config,
    format_schema_config,
    serialize_csv,
)
from xpop.synth import SynthSpec, generate_log

HEADER = "case,act,time,outcome,channel,amount,resource,cost"


def _csv(*rows: str) -> str:
    return HEADER + "\n" + "\n".join(rows) + "\n"


def _activities(log, trace):
    return tuple(log.activities[trace.events].tolist())


def test_parse_single_case(basic_schema):
    text = _csv(
        "c1,A,2024-01-01 10:00:00,deviant,web,5.0,r1,1.0",
        "c1,B,2024-01-01 10:05:00,deviant,web,5.0,r2,2.0",
        "c1,C,2024-01-01 10:10:00,deviant,web,5.0,r1,3.0",
    )
    log = parse_csv(text, basic_schema)
    assert len(log) == 1
    trace = log.traces[0]
    assert _activities(log, trace) == ("A", "B", "C")
    assert trace.label == 1
    assert trace.statics == {"channel": "web", "amount": 5.0}
    second = trace.events[1]
    assert {c: v[second] for c, v in log.dynamics.items()} == {"resource": "r2", "cost": 2.0}
    assert log.dynamics["cost"].dtype == np.float64 and log.dynamics["resource"].dtype == object


def test_static_attribute_varies_is_error(basic_schema):
    text = _csv(
        "c1,A,2024-01-01 10:00:00,ok,web,5.0,r1,1.0",
        "c1,B,2024-01-01 10:05:00,ok,web,5.0,r2,2.0",
        "c1,C,2024-01-01 10:10:00,ok,phone,5.0,r1,3.0",
    )
    with pytest.raises(ParseError, match="^row 4: static attribute 'channel' varies in case 'c1'$"):
        parse_csv(text, basic_schema)


def test_interleaved_out_of_order_cases(basic_schema):
    # golden: rows interleaved and out of order; traces come back time-sorted
    text = _csv(
        "c2,X,2024-01-01 11:30:00,ok,web,1.0,r1,1.0",
        "c1,B,2024-01-01 10:20:00,ok,web,1.0,r1,1.0",
        "c2,Y,2024-01-01 11:10:00,ok,web,1.0,r1,1.0",
        "c1,A,2024-01-01 10:00:00,ok,web,1.0,r1,1.0",
        "c2,Z,2024-01-01 11:20:00,ok,web,1.0,r1,1.0",
        "c1,C,2024-01-01 10:10:00,ok,web,1.0,r1,1.0",
    )
    log = parse_csv(text, basic_schema)
    by_id = {t.case_id: t for t in log.traces}
    assert _activities(log, by_id["c1"]) == ("A", "C", "B")
    assert _activities(log, by_id["c2"]) == ("Y", "Z", "X")


def test_timestamp_ties_keep_input_order(basic_schema):
    text = _csv(
        "c1,A,2024-01-01 10:00:00,ok,web,1.0,r1,1.0",
        "c1,B,2024-01-01 10:00:00,ok,web,1.0,r1,1.0",
        "c1,C,2024-01-01 10:00:00,ok,web,1.0,r1,1.0",
    )
    log = parse_csv(text, basic_schema)
    assert _activities(log, log.traces[0]) == ("A", "B", "C")


def test_bad_timestamp_reports_row_number(basic_schema):
    text = _csv(
        "c1,A,2024-01-01 10:00:00,ok,web,1.0,r1,1.0",
        "c1,B,not-a-time,ok,web,1.0,r1,1.0",
    )
    with pytest.raises(ParseError, match="row 3"):
        parse_csv(text, basic_schema)


_TIME_SCHEMA = AttributeSchema({"case": "case_id", "act": "activity", "time": "timestamp"})


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# kind -> edit of the padded text "YYYY-MM-DD HH:MM:SS". numpy reads year
# 0000, a T separator, a trailing Z and a date alone; strptime reads a year
# in non-ASCII digits (but not a month) and one-digit fields; both reject
# impossible dates
_TIMESTAMP_EDITS = {
    "padded": lambda s: s,
    "year 0000": lambda s: "0000" + s[4:],
    "one-digit fields": lambda s: "{}-{}-{} {}:{}:{}".format(*map(int, re.split("[- :]", s))),
    "non-ASCII year": lambda s: s[:4].translate(_ARABIC_INDIC) + s[4:],
    "non-ASCII digits": lambda s: s.translate(_ARABIC_INDIC),
    "T separator": lambda s: s.replace(" ", "T"),
    "trailing Z": lambda s: s + "Z",
    "date only": lambda s: s[:10],
    "Feb 29, common year": lambda s: "2023-02-29" + s[10:],
    "hour 24": lambda s: s[:11] + "24" + s[13:],
    "second 60": lambda s: s[:17] + "60",
    "month 13": lambda s: s[:5] + "13" + s[7:],
}


@st.composite
def _timestamp(draw, kinds):
    """A default-format timestamp edited as one of ``kinds``."""
    t = draw(st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)))
    return _TIMESTAMP_EDITS[draw(st.sampled_from(kinds))](t.replace(microsecond=0).isoformat(" "))


@st.composite
def _stamp_lists(draw):
    """1-7 timestamps strptime reads, and up to two of any kind among them."""
    stamps = draw(st.lists(_timestamp(("padded", "one-digit fields", "non-ASCII year")),
                           min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 2))):
        stamps.insert(draw(st.integers(0, len(stamps))),
                      draw(_timestamp(sorted(_TIMESTAMP_EDITS))))
    return stamps


def _strptime(text):
    try:
        return datetime.strptime(text, DEFAULT_TIMESTAMP_FORMAT)
    except ValueError:
        return None


@given(_stamp_lists(), st.booleans())
@example(["0000-01-01 00:00:00"], False)
@example(["\u0662\u0660\u0662\u0664-01-01 00:00:00", "2024-1-1 1:00:00"], False)
@example(["2024-01-01 00:00:00", "2024-01-01T00:00:00"], False)
@example(["2024-01-01 00:00:00Z"], False)
@example(["2024-01-01"], False)
@example(["2024-01-02 00:00:00", "2023-02-29 00:00:00", "2024-01-01 24:00:00"], True)
def test_default_timestamps_parse_as_strptime_does(stamps, short_last_row):
    rows = [f"c{i % 3},A,{text}" for i, text in enumerate(stamps)]
    if short_last_row:
        rows.append("c0,A")
    text = "case,act,time\n" + "\n".join(rows) + "\n"
    parsed = [_strptime(s) for s in stamps]
    bad = next((i for i, t in enumerate(parsed) if t is None), None)
    if bad is not None:
        message = f"row {bad + 2}: unparseable timestamp {stamps[bad]!r}"
    elif short_last_row:
        message = f"row {len(rows) + 1}: expected 3 cells, got 2"
    else:
        log = parse_csv(text, _TIME_SCHEMA)
        for trace in log.traces:
            expected = sorted(parsed[int(trace.case_id[1:])::3])
            assert log.timestamps[trace.events].tolist() == expected
        assert log.timestamps.dtype == np.dtype("datetime64[us]")
        return
    with pytest.raises(ParseError) as info:
        parse_csv(text, _TIME_SCHEMA)
    assert str(info.value) == message


def test_custom_timestamp_format_goes_through_strptime():
    schema = AttributeSchema(dict(_TIME_SCHEMA.column_roles), timestamp_format="%d/%m/%Y %H:%M")
    log = parse_csv("case,act,time\nc1,A,02/01/2024 10:30\n", schema)
    assert log.timestamps.tolist() == [datetime(2024, 1, 2, 10, 30)]
    with pytest.raises(ParseError, match="^row 2: unparseable timestamp '2024-01-02 10:30:00'$"):
        parse_csv("case,act,time\nc1,A,2024-01-02 10:30:00\n", schema)


def test_timestamps_keep_microseconds_and_offsets_become_utc():
    schema = AttributeSchema(dict(_TIME_SCHEMA.column_roles),
                             timestamp_format="%Y-%m-%d %H:%M:%S.%f%z")
    text = ("case,act,time\n"
            "c1,A,2024-01-01 10:00:00.000001+0200\n"
            "c1,B,2024-01-01 08:59:59.999999+0000\n")
    log = parse_csv(text, schema)
    # 10:00 at +02:00 is 08:00 UTC, so A comes first
    assert _activities(log, log.traces[0]) == ("A", "B")
    assert log.timestamps.tolist() == [datetime(2024, 1, 1, 8, 0, 0, 1),
                                       datetime(2024, 1, 1, 8, 59, 59, 999999)]
    assert serialize_csv(log) == ("case,act,time\n"
                                  "c1,A,2024-01-01 08:00:00.000001+0000\n"
                                  "c1,B,2024-01-01 08:59:59.999999+0000\n")
    assert parse_csv(serialize_csv(log), schema) == log


def test_equal_logs_may_lay_their_events_out_differently(basic_schema):
    rows = ["c1,A,2024-01-01 10:00:00,ok,web,1.0,r1,1.0",
            "c2,B,2024-01-01 11:00:00,ok,web,1.0,r2,2.0",
            "c2,C,2024-01-01 11:05:00,ok,web,1.0,r1,3.0"]
    log = parse_csv(_csv(*rows), basic_schema)
    alone = parse_csv(_csv(*rows[1:]), basic_schema)
    c2 = dataclasses.replace(log, traces=log.traces[1:])
    assert c2.traces[0].events == range(1, 3) and alone.traces[0].events == range(0, 2)
    assert c2 == alone
    assert dataclasses.replace(log, traces=log.traces[:1]) != alone
    changed = parse_csv(_csv(*rows[1:]).replace(",3.0", ",4.0"), basic_schema)
    assert c2 != changed


def test_inconsistent_label_is_error(basic_schema):
    text = _csv(
        "c1,A,2024-01-01 10:00:00,ok,web,1.0,r1,1.0",
        "c1,B,2024-01-01 10:05:00,deviant,web,1.0,r1,1.0",
    )
    with pytest.raises(ParseError, match="label inconsistent"):
        parse_csv(text, basic_schema)


def test_missing_and_extra_columns(basic_schema):
    with pytest.raises(ParseError, match="absent"):
        parse_csv("case,act,time\nc1,A,2024-01-01 10:00:00\n", basic_schema)
    extra = HEADER + ",mystery\nc1,A,2024-01-01 10:00:00,ok,web,1.0,r1,1.0,zz\n"
    with pytest.raises(ParseError, match="mystery"):
        parse_csv(extra, basic_schema)


def test_schema_role_columns_are_derived_once(basic_schema):
    assert basic_schema.static_categorical is basic_schema.static_categorical
    assert basic_schema.static_numeric is basic_schema.static_numeric
    assert basic_schema.dynamic_categorical is basic_schema.dynamic_categorical
    assert basic_schema.dynamic_numeric is basic_schema.dynamic_numeric
    assert (basic_schema.case_id_column, basic_schema.activity_column,
            basic_schema.timestamp_column, basic_schema.label_column) == (
        "case", "act", "time", "outcome")
    assert (basic_schema.static_categorical, basic_schema.static_numeric) == (
        ("channel",), ("amount",))
    unlabelled = AttributeSchema({"c": "case_id", "a": "activity", "t": "timestamp"})
    assert unlabelled.label_column is None and unlabelled.static_numeric == ()


def test_schema_validation():
    with pytest.raises(SchemaError, match="exactly one case_id"):
        AttributeSchema({"a": "activity", "t": "timestamp"})
    with pytest.raises(SchemaError, match="at most one label"):
        AttributeSchema(
            {"c": "case_id", "a": "activity", "t": "timestamp", "l1": "label", "l2": "label"}
        )
    with pytest.raises(SchemaError, match="unknown role"):
        AttributeSchema({"c": "case_id", "a": "activity", "t": "timestamp", "x": "wat"})


def test_missing_values(basic_schema):
    text = _csv("c1,A,2024-01-01 10:00:00,ok,,1.0,r1,1.0")
    log = parse_csv(text, basic_schema)
    assert log.traces[0].statics["channel"] == MISSING
    bad = _csv("c1,A,2024-01-01 10:00:00,ok,web,,r1,1.0")
    with pytest.raises(ParseError, match="empty numeric"):
        parse_csv(bad, basic_schema)



@pytest.mark.parametrize("column", ["amount", "cost"])  # a static and a dynamic numeric
@pytest.mark.parametrize("cell", ["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "infinity"])
def test_non_finite_numeric_cell_is_rejected(basic_schema, column, cell):
    good = "c1,A,2024-01-01 10:00:00,ok,web,1.0,r1,1.0"
    cells = dict(zip(HEADER.split(","), good.split(",")))
    cells[column] = cell
    bad = ",".join(cells.values()).replace("10:00", "11:00")
    reason = f"row 3: non-finite value {cell!r} in column {column!r}"
    with pytest.raises(ParseError, match=f"^{re.escape(reason)}$"):
        parse_csv(_csv(good, bad), basic_schema)

def test_bytes_stream_accepted(basic_schema):
    text = _csv("c1,A,2024-01-01 10:00:00,ok,web,1.0,r1,1.0")
    log = parse_csv(text.encode("utf-8"), basic_schema)
    assert len(log) == 1


def test_leading_bom_is_dropped_from_text_as_from_bytes(basic_schema):
    text = _csv("c1,A,2024-01-01 10:00:00,ok,web,1.0,r1,1.0")
    assert parse_csv("\ufeff" + text, basic_schema) == parse_csv(text, basic_schema)
    assert parse_csv(io.StringIO("\ufeff" + text), basic_schema) == parse_csv(text, basic_schema)


def test_invalid_utf8_byte_is_reported_by_row_past_the_first_chunk(basic_schema):
    # a quoted cell spans two lines, so rows and lines differ; the bad byte
    # lies far past the decoder's first chunk, in a multi-byte sequence cut short
    rows = [f"c{i},A,2024-01-01 10:00:00,ok,web,1.0,r1,{i}.0" for i in range(1000)]
    rows[0] = 'c0,A,2024-01-01 10:00:00,ok,"w\neb",1.0,r1,0.0'
    data = _csv(*rows).encode("utf-8")
    at = data.index(b"c900,") + 1
    with pytest.raises(ParseError, match=r"^row 902: invalid UTF-8 byte 0xe2$"):
        parse_csv(data[:at] + b"\xe2\x82" + data[at:], basic_schema)
    with pytest.raises(ParseError, match=r"^row 902: invalid UTF-8 byte 0xff$"):
        parse_csv(io.BytesIO(b"\xef\xbb\xbf" + data[:at - 1] + b"\xff" + data[at:]), basic_schema)
    assert len(parse_csv(b"\xef\xbb\xbf" + data, basic_schema)) == 1000


@pytest.mark.parametrize("good, bad, reason", [
    ("", "", "row {byte}: invalid UTF-8 byte 0xff"),
    ("2024-01-01 10:00:00", "soon", "row {bad}: unparseable timestamp 'soon'"),  # the bulk re-check
    ("web,1.0", "web,x", "row {bad}: non-numeric value 'x' in column 'amount'"),
], ids=["byte_only", "earlier_timestamp", "earlier_cell"])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "row_spans_lines"])
@pytest.mark.parametrize("pad", [0, 900], ids=["first_chunk", "past_the_first_chunk"])
def test_invalid_utf8_byte_does_not_hide_an_earlier_bad_row(basic_schema, good, bad, reason,
                                                            quoted, pad):
    rows = [f"c{i},A,2024-01-01 10:00:00,ok,web,1.0,r1,{i}.0" for i in range(pad + 8)]
    rows[pad + 1] = rows[pad + 1].replace(good, bad, 1)
    # the byte's line up to it is read, whole or as a quoted cell's first line
    cell = '"w\ne\udcffb"' if quoted else "w\udcffb"
    rows[pad + 5] = f"c{pad + 5},A,2024-01-01 10:00:00,ok,{cell},1.0,r1,5.0"
    data = _csv(*rows).encode("utf-8", "surrogateescape")
    reason = reason.format(bad=pad + 3, byte=pad + 7)
    with pytest.raises(ParseError, match=f"^{re.escape(reason)}$"):
        parse_csv(data, basic_schema)


def test_schema_config_round_trip(basic_schema):
    text = format_schema_config(basic_schema)
    again = parse_schema_config(text)
    assert again == basic_schema


def test_serialize_parse_round_trip():
    spec = SynthSpec(n_cases=20, label_noise=0.1, seed=11)
    log = generate_log(spec)
    text = serialize_csv(log)
    again = parse_csv(text, log.schema)
    assert again == log
    # and a second round trip is byte-identical
    assert serialize_csv(again) == text


def _reference_serialize_csv(log):
    """Oracle: the writer as it was before columns were built whole, one
    dict merge and one ``writerow`` per event. Each row is written with a
    CRLF terminator, so ``csv.writer`` quotes a cell holding a CR as well as
    one holding an LF, and that row's CRLF is then swapped for an LF."""
    schema = log.schema
    negative = "regular" if schema.positive_label != "regular" else "non_deviant"
    numeric = set(schema.static_numeric + schema.dynamic_numeric)

    out = io.StringIO()

    def writerow(cells):
        row = io.StringIO()
        csv.writer(row, lineterminator="\r\n").writerow(cells)
        out.write(row.getvalue().removesuffix("\r\n") + "\n")

    writerow(schema.column_roles)
    fmt = schema.timestamp_format
    times = log.timestamps.tolist()  # naive datetimes in UTC
    if "%z" in fmt.lower():  # an offset directive writes +0000 (%z) or UTC (%Z)
        times = [t.replace(tzinfo=timezone.utc) for t in times]
    activities = log.activities.tolist()
    text = {c: list(map(repr if c in numeric else str, values.tolist()))
            for c, values in log.dynamics.items()}
    for trace in log.traces:
        case = {c: repr(float(v)) if c in numeric else str(v) for c, v in trace.statics.items()}
        case[schema.case_id_column] = trace.case_id
        if schema.label_column is not None:
            if trace.label is None:
                raise ParseError(f"case {trace.case_id!r} has no label to serialize")
            case[schema.label_column] = schema.positive_label if trace.label == 1 else negative
        for i in trace.events:
            row = case | {c: column[i] for c, column in text.items()}
            row[schema.activity_column] = activities[i]
            row[schema.timestamp_column] = times[i].strftime(fmt)
            writerow(row[c] for c in schema.column_roles)
    return out.getvalue()


@st.composite
def _logs_to_write(draw, labelled=False):
    """Synth logs cut as a split or prefixes cut them (some traces, in any
    order, each a prefix of its events), with text that needs quoting, with
    or without a label column, one trace perhaps unlabelled, and a timestamp
    format with or without an offset. A ``labelled`` log keeps only what
    CSV carries: a label column and a label on every case, an event in
    every trace, no empty text (it reads back as MISSING) and timestamps to
    the second."""
    base = generate_log(SynthSpec(n_cases=draw(st.integers(0, 8)), label_noise=0.25,
                                  seed=draw(st.integers(0, 99))))
    roles = dict(base.schema.column_roles)
    if not labelled and draw(st.booleans()):
        del roles["label"]
    formats = [DEFAULT_TIMESTAMP_FORMAT, "%Y-%m-%dT%H:%M:%S%z", "%d.%m.%Y %H:%M %Z"]
    schema = AttributeSchema(roles, draw(st.sampled_from(formats[:2] if labelled else formats)),
                             draw(st.sampled_from(["deviant", "regular"])))
    texts = st.text(st.sampled_from('a ,"\n\r\'é'), min_size=int(labelled), max_size=3)
    renamed = st.sampled_from("ABCDE") | st.sampled_from(("c0", "c1"))
    rename = draw(st.dictionaries(renamed, texts))
    traces = draw(st.permutations(base.traces))[: draw(st.integers(0, len(base)))]
    unlabelled = -1 if labelled else draw(st.integers(-1, len(traces) - 1))
    traces = tuple(
        Trace(t.case_id, {c: rename.get(v, v) for c, v in t.statics.items()},
              t.events[: draw(st.integers(int(labelled), len(t)))],
              None if i == unlabelled else t.label)
        for i, t in enumerate(traces))
    dynamics = {c: [rename.get(v, v) for v in values.tolist()]
                for c, values in base.dynamics.items()}
    return EventLog(traces, schema, [rename.get(a, a) for a in base.activities.tolist()],
                    base.timestamps, dynamics)


@given(_logs_to_write())
def test_serialize_csv_writes_what_the_row_writer_wrote(log):
    try:
        expected = _reference_serialize_csv(log)
    except ParseError as exc:
        with pytest.raises(ParseError, match=f"^{re.escape(str(exc))}$"):
            serialize_csv(log)
    else:
        assert serialize_csv(log) == expected


@given(_logs_to_write(labelled=True))
def test_serialize_then_parse_gives_the_log_back(log):
    assert parse_csv(serialize_csv(log), log.schema) == log


_LINE_SCHEMA = AttributeSchema({"case": "case_id", "act": "activity", "time": "timestamp",
                                "outcome": "label", "resource": "dynamic_categorical"})


@st.composite
def _texts_with_line_ends(draw):
    """Log text whose records end in an LF, a CR or a CRLF, with cells that
    hold commas, quotes and line breaks, quoted or not."""
    cell = st.text(st.sampled_from('a ,"\r\né'), max_size=3)
    quoted = st.builds(lambda c: '"' + c.replace('"', '""') + '"', cell)
    rows = [f"c{draw(st.integers(0, 2))},A,2024-01-01 10:00:0{i % 10},ok,"
            + draw(cell | quoted) for i in range(draw(st.integers(0, 6)))]
    ends = st.sampled_from(["\n", "\r", "\r\n"])
    return "".join(row + draw(ends) for row in ["case,act,time,outcome,resource", *rows])


@given(_texts_with_line_ends())
def test_parse_csv_reads_a_text_as_its_utf8_bytes(text):
    def outcome(data):
        try:
            return parse_csv(data, _LINE_SCHEMA)
        except ParseError as exc:
            return str(exc)

    assert outcome(text) == outcome(text.encode("utf-8"))


@pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_a_cr_or_a_crlf_ends_a_record_as_an_lf_does(basic_schema, end):
    text = _csv(*(f"c{i},A,2024-01-01 10:00:00,ok,web,1.0,r1,{i}.0" for i in range(3)))
    log = parse_csv(text, basic_schema)
    assert parse_csv(text.replace("\n", end), basic_schema) == log
    assert parse_csv(text.replace("\n", end).encode("utf-8"), basic_schema) == log


def test_oversized_field_names_its_row_before_a_later_invalid_byte(basic_schema):
    # the csv module refuses a field over 131072 characters; row 3 holds one
    rows = [f"c{i},A,2024-01-01 10:00:00,ok,web,1.0,r1,{i}.0" for i in range(8)]
    rows[1] = rows[1].replace("web", "w" * 131073)
    rows[5] = rows[5].replace("web", "w\udcffb")  # an invalid byte in row 7
    data = _csv(*rows).encode("utf-8", "surrogateescape")
    for log in (data, data.replace(b"\xff", b"").decode("utf-8")):
        with pytest.raises(ParseError, match=r"^row 3: field larger than field limit \(131072\)$"):
            parse_csv(log, basic_schema)


def _trace_with(activities, basic_schema):
    rows = [
        f"c1,{a},2024-01-01 10:{i:02d}:00,ok,web,1.0,r1,1.0"
        for i, a in enumerate(activities)
    ]
    return parse_csv(_csv(*rows), basic_schema)


@pytest.mark.parametrize(
    "activities,expected",
    [
        (["a", "x", "b"], 0),
        (["a", "x"], 1),
        (["a", "b", "a"], 1),
        (["x", "y"], 0),  # a absent is legal and regular
        (["b", "b"], 0),
    ],
)
def test_label_eventually_followed_by(activities, expected, basic_schema):
    log = _trace_with(activities, basic_schema)
    labelled = label_eventually_followed_by(log, "a", "b")
    assert labelled.traces[0].label == expected
    # input unchanged
    assert log.traces[0].label == 0  # parsed label column said "ok"


def test_labeler_matches_index_pair_oracle(basic_schema):
    rnd = random.Random(5)
    for _ in range(100):
        acts = [rnd.choice("abxy") for _ in range(rnd.randint(1, 8))]
        log = _trace_with(acts, basic_schema)
        got = label_eventually_followed_by(log, "a", "b").traces[0].label
        violated = any(
            acts[i] == "a" and not any(acts[j] == "b" for j in range(i + 1, len(acts)))
            for i in range(len(acts))
        )
        assert got == (1 if violated else 0)


def test_labeler_idempotent(basic_schema):
    log = _trace_with(["a", "b", "a", "x"], basic_schema)
    once = label_eventually_followed_by(log, "a", "b")
    twice = label_eventually_followed_by(once, "a", "b")
    assert [t.label for t in once.traces] == [t.label for t in twice.traces]


def test_rule_activities_must_differ(basic_schema):
    log = _trace_with(["a"], basic_schema)
    with pytest.raises(ValueError):
        label_eventually_followed_by(log, "a", "a")
