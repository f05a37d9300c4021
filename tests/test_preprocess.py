from __future__ import annotations

import dataclasses
import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_matrix
from xpop.eventlog import AttributeSchema, EventLog, Trace, parse_csv
from xpop.preprocess import (
    CASE,
    CONTROL,
    EVENT,
    STATS,
    aggregate_encode,
    copy_csv_rows,
    extract_prefixes,
    fit_vocabulary,
    temporal_split,
)
from xpop.synth import SynthSpec, generate_log

HEADER = "case,act,time,outcome,channel,amount,resource,cost"


def _parse(rows, schema):
    return parse_csv(HEADER + "\n" + "\n".join(rows) + "\n", schema)


# --- temporal split ---------------------------------------------------------


def _brute_split(log, ratio):
    """Independent reference: sort by first timestamp, ceil, cut, drop empty."""
    times = log.timestamps.tolist()
    ordered = sorted(log.traces, key=lambda t: times[t.events[0]])
    n_train = math.ceil(ratio * len(ordered))
    test = ordered[n_train:]
    cutoff = min(times[t.events[0]] for t in test)
    train = []
    for t in ordered[:n_train]:
        kept = [i for i in t.events if times[i] < cutoff]
        if kept:
            train.append((t.case_id, len(kept)))
    return train, [(t.case_id, len(t.events)) for t in test]


def test_temporal_split_matches_brute_force():
    for seed in range(5):
        log = generate_log(SynthSpec(n_cases=40, label_noise=0.1, seed=seed))
        for ratio in (0.5, 0.8):
            train, test = temporal_split(log, ratio)
            ref_train, ref_test = _brute_split(log, ratio)
            assert [(t.case_id, len(t.events)) for t in train.traces] == ref_train
            assert [(t.case_id, len(t.events)) for t in test.traces] == ref_test


def test_temporal_split_no_case_on_both_sides_and_no_leak():
    log = generate_log(SynthSpec(n_cases=50, label_noise=0.0, seed=3))
    train, test = temporal_split(log, 0.8)
    assert not {t.case_id for t in train.traces} & {t.case_id for t in test.traces}
    cutoff = min(test.timestamps[t.events[0]] for t in test.traces)
    assert all(train.timestamps[i] < cutoff for t in train.traces for i in t.events)


def test_temporal_split_truncates_overlapping_train_case(basic_schema):
    rows = [
        "c1,A,2024-01-01 08:00:00,ok,web,1.0,r1,1.0",
        "c1,B,2024-01-01 12:00:00,ok,web,1.0,r1,1.0",  # after test start: cut
        "c2,A,2024-01-01 09:00:00,ok,web,1.0,r1,1.0",
        "c3,A,2024-01-01 10:00:00,ok,web,1.0,r1,1.0",
        "c4,A,2024-01-01 11:00:00,ok,web,1.0,r1,1.0",
    ]
    log = _parse(rows, basic_schema)
    train, test = temporal_split(log, 0.75)
    by_id = {t.case_id: t for t in train.traces}
    assert len(by_id["c1"].events) == 1
    assert {t.case_id for t in test.traces} == {"c4"}


def test_temporal_split_bad_ratio(basic_schema):
    log = _parse(["c1,A,2024-01-01 08:00:00,ok,web,1.0,r1,1.0"], basic_schema)
    for ratio in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            temporal_split(log, ratio)


# --- prefixes ----------------------------------------------------------------


def test_prefix_counts(basic_schema):
    # trace lengths 1, 2, 3, 4, 5 with max_prefix 3 -> 1+2+3+3+3 = 12 prefixes
    rows = []
    for c, n in enumerate((1, 2, 3, 4, 5)):
        for i in range(n):
            rows.append(f"c{c},A,2024-01-01 10:{i:02d}:00,ok,web,1.0,r1,1.0")
    log = _parse(rows, basic_schema)
    prefixes = extract_prefixes(log, 3)
    assert len(prefixes) == 5
    assert [len(t) for t in prefixes.traces] == [1, 2, 3, 3, 3]
    matrix = aggregate_encode(prefixes, fit_vocabulary(log))
    assert matrix.n_rows == 12
    lengths = matrix.rows[:, matrix.columns_of_type(CONTROL)].sum(axis=1)  # one A per event
    assert lengths.tolist() == [1, 1, 2, 1, 2, 3, 1, 2, 3, 1, 2, 3]


def test_prefix_events_are_true_prefixes(basic_schema):
    rows = [
        f"c1,{a},2024-01-01 10:0{i}:00,ok,web,1.0,r1,1.0"
        for i, a in enumerate("ABC")
    ]
    log = _parse(rows, basic_schema)
    matrix = aggregate_encode(extract_prefixes(log, 10), fit_vocabulary(log))
    acts = matrix.rows[:, [matrix.column_names.index(f"act={a}") for a in "ABC"]]
    assert acts.tolist() == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]
    assert matrix.rows[:, matrix.columns_of_type(CONTROL)].sum(axis=1).tolist() == [1, 2, 3]
    assert all(label == matrix.labels[0] for label in matrix.labels)


def test_extract_prefixes_rejects_bad_max(basic_schema):
    log = _parse(["c1,A,2024-01-01 10:00:00,ok,web,1.0,r1,1.0"], basic_schema)
    with pytest.raises(ValueError):
        extract_prefixes(log, 0)


# --- vocabulary --------------------------------------------------------------


def test_vocabulary_first_occurrence_order(basic_schema):
    rows = [
        "c1,B,2024-01-01 10:00:00,ok,web,1.0,r2,1.0",
        "c1,A,2024-01-01 10:01:00,ok,web,1.0,r1,1.0",
        "c2,A,2024-01-01 11:00:00,ok,phone,1.0,r2,1.0",
        "c2,C,2024-01-01 11:01:00,ok,phone,1.0,r3,1.0",
    ]
    vocab = fit_vocabulary(_parse(rows, basic_schema))
    assert vocab.activities == ("B", "A", "C")
    assert vocab.categorical["channel"] == ("web", "phone")
    assert vocab.categorical["resource"] == ("r2", "r1", "r3")


def test_vocabulary_sees_only_the_logs_own_events(basic_schema):
    # the train log shares the parent's columns, which also hold the test
    # case's events and the train events cut at the split
    rows = [
        "c1,A,2024-01-01 08:00:00,ok,web,1.0,r1,1.0",
        "c1,Z,2024-01-01 12:00:00,ok,web,1.0,r8,1.0",  # after the test start: cut
        "c2,B,2024-01-01 09:00:00,ok,web,1.0,r2,1.0",
        "c3,Y,2024-01-01 11:00:00,ok,fax,1.0,r9,1.0",  # the test case
    ]
    log = _parse(rows, basic_schema)
    train, test = temporal_split(log, 0.6)
    assert [t.case_id for t in test.traces] == ["c3"]
    assert train.activities is log.activities and test.activities is log.activities
    vocab = fit_vocabulary(train)
    assert vocab.activities == ("A", "B")
    assert vocab.categorical == {"channel": ("web",), "resource": ("r1", "r2")}
    prefixes = extract_prefixes(train, 1)
    assert prefixes.activities is log.activities
    assert fit_vocabulary(prefixes).activities == ("A", "B")


# --- encoding ----------------------------------------------------------------


@pytest.fixture
def golden(basic_schema):
    rows = [
        "c1,A,2024-01-01 10:00:00,deviant,x,7.0,r1,10.0",
        "c1,A,2024-01-01 10:00:10,deviant,x,7.0,r2,20.0",
        "c1,B,2024-01-01 10:00:30,deviant,x,7.0,r1,30.0",
        "c2,B,2024-01-01 09:00:00,ok,y,3.0,r1,5.0",
        "c2,A,2024-01-01 09:01:40,ok,y,3.0,r3,7.0",
    ]
    log = _parse(rows, basic_schema)
    vocab = fit_vocabulary(log)
    return aggregate_encode(extract_prefixes(log, 3), vocab)


def test_golden_matrix_shape_and_layout(golden):
    # 3 prefixes from c1 + 2 from c2
    assert golden.n_rows == 5
    # 2 activities + (2 channel one-hot + 1 amount) + (3 ts features * 5 stats
    # + 1 dynamic numeric * 5 stats + 3 resource levels) = 2 + 3 + 23 = 28
    assert golden.n_columns == 28
    # rows in (case, prefix length) order: a row's activity count is its k
    assert golden.rows[:, golden.columns_of_type(CONTROL)].sum(axis=1).tolist() == [1, 2, 3, 1, 2]
    # control columns first, then case, then event
    types = [c.attribute_type for c in golden.columns]
    assert types == [CONTROL] * 2 + [CASE] * 3 + [EVENT] * 23


def _col(matrix, name):
    return matrix.rows[:, matrix.column_names.index(name)]


def test_golden_control_and_case_columns(golden):
    assert _col(golden, "act=A").tolist() == [1, 2, 2, 0, 1]
    assert _col(golden, "act=B").tolist() == [0, 0, 1, 1, 1]
    assert _col(golden, "channel=x").tolist() == [1, 1, 1, 0, 0]
    assert _col(golden, "channel=y").tolist() == [0, 0, 0, 1, 1]
    assert _col(golden, "amount").tolist() == [7.0, 7.0, 7.0, 3.0, 3.0]


def test_golden_dynamic_numeric_stats(golden):
    # c1 full prefix: cost = (10, 20, 30)
    row = 2
    assert _col(golden, "cost_min")[row] == 10.0
    assert _col(golden, "cost_max")[row] == 30.0
    assert _col(golden, "cost_mean")[row] == 20.0
    assert _col(golden, "cost_sum")[row] == 60.0
    assert _col(golden, "cost_std")[row] == pytest.approx(10.0, abs=1e-12)
    # single-event prefix: std is 0, min == max == mean == sum
    assert _col(golden, "cost_std")[0] == 0.0
    assert _col(golden, "cost_min")[0] == _col(golden, "cost_sum")[0] == 10.0


def test_golden_timestamp_features(golden):
    # c1 length-3 prefix: gaps 0, 10, 20 seconds
    row = 2
    assert _col(golden, "timesincelastevent_max")[row] == 20.0
    assert _col(golden, "timesincelastevent_sum")[row] == 30.0
    assert _col(golden, "timesincelastevent_mean")[row] == pytest.approx(10.0)
    assert _col(golden, "timesincelastevent_std")[row] == pytest.approx(
        np.std([0.0, 10.0, 20.0], ddof=1)
    )
    # since case start: 0, 10, 30
    assert _col(golden, "timesincecasestart_max")[row] == 30.0
    assert _col(golden, "timesincecasestart_std")[row] == pytest.approx(
        np.std([0.0, 10.0, 30.0], ddof=1)
    )
    # since midnight: c1 starts 10:00:00 = 36000 s; c2 starts 09:00:00 = 32400 s
    assert _col(golden, "timesincemidnight_min")[2] == 36000.0
    assert _col(golden, "timesincemidnight_min")[3] == 32400.0
    assert _col(golden, "timesincemidnight_max")[4] == 32500.0


def test_golden_event_categorical_frequencies(golden):
    assert _col(golden, "resource=r1").tolist() == [1, 1, 2, 1, 1]
    assert _col(golden, "resource=r2").tolist() == [0, 1, 1, 0, 0]
    assert _col(golden, "resource=r3").tolist() == [0, 0, 0, 0, 1]


def test_golden_labels(golden):
    assert golden.labels.tolist() == [1, 1, 1, 0, 0]


def test_unseen_categories_contribute_nothing(basic_schema):
    train = _parse(["c1,A,2024-01-01 10:00:00,ok,web,1.0,r1,1.0"], basic_schema)
    vocab = fit_vocabulary(train)
    fresh = _parse(["c9,Z,2024-01-01 12:00:00,ok,fax,2.0,r9,4.0"], basic_schema)
    matrix = aggregate_encode(extract_prefixes(fresh, 1), vocab)
    assert _col(matrix, "act=A")[0] == 0.0
    assert _col(matrix, "channel=web")[0] == 0.0
    assert _col(matrix, "resource=r1")[0] == 0.0
    # numerics still pass through
    assert _col(matrix, "amount")[0] == 2.0


def test_unseen_value_cannot_land_in_another_attributes_column():
    # attribute "a" with value "b=c" and attribute "a=b" with value "c" would
    # both be named "a=b=c"; only the second owns that column
    schema = AttributeSchema({
        "case": "case_id", "act": "activity", "time": "timestamp", "outcome": "label",
        "s": "static_categorical", "s=t": "static_categorical",
        "a": "dynamic_categorical", "a=b": "dynamic_categorical",
    })

    def log(s, s_t, a, a_b):
        return EventLog((Trace("c1", {"s": s, "s=t": s_t}, range(1), 0),), schema,
                        ["A"], [datetime(2024, 1, 1)], {"a": [a], "a=b": [a_b]})

    vocab = fit_vocabulary(log("u", "v", "x", "c"))
    matrix = aggregate_encode(extract_prefixes(log("t=v", "w", "b=c", "y"), 1), vocab)
    assert set(matrix.column_names) >= {"s=u", "s=t=v", "a=x", "a=b=c"}
    assert matrix.rows[0, matrix.columns_of_type(CASE)].tolist() == [0.0, 0.0]
    for name in ("a=x", "a=b=c"):
        assert _col(matrix, name)[0] == 0.0


def test_duplicate_encoded_column_names_are_rejected():
    # Preprocessed benchmark logs carry derived timestamp features as numeric
    # columns; encoding one would shadow the encoder's own feature.
    schema = AttributeSchema({
        "case": "case_id", "act": "activity", "time": "timestamp", "outcome": "label",
        "timesincecasestart": "dynamic_numeric",
    })
    log = parse_csv("case,act,time,outcome,timesincecasestart\n"
                    "c1,A,2024-01-01 10:00:00,ok,0\n", schema)
    with pytest.raises(ValueError, match="'timesincecasestart_min' appears twice"):
        aggregate_encode(extract_prefixes(log, 1), fit_vocabulary(log))


def test_control_frequencies_monotone_in_prefix_length():
    log = generate_log(SynthSpec(n_cases=30, label_noise=0.0, seed=7))
    vocab = fit_vocabulary(log)
    matrix = aggregate_encode(extract_prefixes(log, 6), vocab)
    control = matrix.columns_of_type(CONTROL)
    # rows in (case id, prefix length) order; every activity is in the vocabulary
    lengths = [min(len(t), 6) for t in sorted(log.traces, key=lambda t: t.case_id)]
    k = np.concatenate([np.arange(1, n + 1) for n in lengths])
    assert matrix.rows[:, control].sum(axis=1).tolist() == k.tolist()
    for a in np.flatnonzero(k[1:] > 1):  # row a + 1 extends row a's prefix
        assert np.all(matrix.rows[a + 1, control] >= matrix.rows[a, control])


def test_encoding_is_deterministic():
    log = generate_log(SynthSpec(n_cases=25, label_noise=0.2, seed=9))
    vocab = fit_vocabulary(log)
    a = aggregate_encode(extract_prefixes(log, 4), vocab)
    b = aggregate_encode(extract_prefixes(log, 4), vocab)
    assert np.array_equal(a.rows, b.rows)
    assert a.columns == b.columns


_ORACLE_SCHEMA = AttributeSchema({
    "case": "case_id", "act": "activity", "time": "timestamp", "outcome": "label",
    "channel": "static_categorical", "amount": "static_numeric",
    "resource": "dynamic_categorical", "cost": "dynamic_numeric", "load": "dynamic_numeric",
})

_numbers = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([-0.0, 0.0, 0.1, -3.0, 1e16]),
)


@st.composite
def _oracle_log(draw):
    """1-12 traces of 1-40 events with tied timestamps (gap 0), -0.0
    numerics and categorical values outside the vocabulary fitted on the
    first trace; cases run out of events at many different lengths. The
    traces lie in the columns in another order than the log lists them,
    with events of no trace between them."""
    n_traces = draw(st.integers(1, 12))
    ids = draw(st.permutations(range(n_traces)))
    activities, times, dynamics = [], [], {"resource": [], "cost": [], "load": []}

    def add(activity, t):
        activities.append(activity)
        times.append(t)
        dynamics["resource"].append(draw(st.sampled_from(["r1", "r2", "r3"])))
        dynamics["cost"].append(draw(_numbers))
        dynamics["load"].append(draw(_numbers))
    traces = []
    for i in ids:
        for _ in range(draw(st.integers(0, 2))):
            add("Z", datetime(2024, 1, 1))  # an event of no trace
        statics = {"channel": draw(st.sampled_from(["web", "fax"])), "amount": draw(_numbers)}
        t = datetime(2024, 1, 1, 23, 0, 0)
        first = len(activities)
        for _ in range(draw(st.integers(1, 40))):
            t += timedelta(seconds=draw(st.sampled_from([0, 0, 0.25, 1, 61, 3600, 5000.123456])))
            add(draw(st.sampled_from("ABCD")), t)
        traces.append(Trace(f"c{i}", statics, range(first, len(activities)),
                            draw(st.integers(0, 1))))
    order = draw(st.permutations(range(n_traces)))
    return EventLog(tuple(traces[j] for j in order), _ORACLE_SCHEMA, activities, times, dynamics)


def _reference_encode(log, max_prefix, names, vocab):
    """Every prefix rebuilt from its events, statistics by 1-D reductions
    and timestamp features by datetime arithmetic. A value counts only in
    its own attribute's column, if the vocabulary has it."""
    schema = log.schema
    index = {name: i for i, name in enumerate(names)}
    known = {a: {str(v) for v in values} for a, values in vocab.categorical.items()}
    known[schema.activity_column] = {str(v) for v in vocab.activities}

    def column(attr, value):
        return index[f"{attr}={value}"] if str(value) in known[attr] else None
    rows, labels = [], []
    for trace in sorted(log.traces, key=lambda t: t.case_id):
        for k in range(1, min(len(trace), max_prefix) + 1):
            events = trace.events[:k]
            row = np.zeros(len(names))
            for i in events:
                cols = [column(schema.activity_column, log.activities[i])]
                cols += [column(a, log.dynamics[a][i]) for a in schema.dynamic_categorical]
                for col in cols:
                    if col is not None:
                        row[col] += 1.0
            for a in schema.static_categorical:
                col = column(a, trace.statics[a])
                if col is not None:
                    row[col] = 1.0
            for a in schema.static_numeric:
                row[index[a]] = float(trace.statics[a])
            times = [log.timestamps[i].item() for i in events]
            assert all(type(t) is datetime for t in times)
            series = {
                "timesincelastevent":
                    [0.0] + [(times[i] - times[i - 1]).total_seconds() for i in range(1, k)],
                "timesincecasestart": [(t - times[0]).total_seconds() for t in times],
                "timesincemidnight":
                    [t.hour * 3600 + t.minute * 60 + t.second + t.microsecond / 1e6 for t in times],
            }
            series.update({a: [float(log.dynamics[a][i]) for i in events]
                           for a in schema.dynamic_numeric})
            for name, values in series.items():
                v = np.array(values)
                std = v.std(ddof=1) if k > 1 else 0.0
                for stat, value in zip(STATS, (v.min(), v.max(), v.mean(), v.sum(), std)):
                    row[index[f"{name}_{stat}"]] = value
            rows.append(row)
            labels.append(trace.label)
    return np.array(rows), labels


@settings(max_examples=60)
@given(_oracle_log(), st.integers(1, 64))
def test_aggregate_encode_equals_per_prefix_reference_bitwise(log, max_prefix):
    vocab = fit_vocabulary(dataclasses.replace(log, traces=log.traces[:1]))
    matrix = aggregate_encode(extract_prefixes(log, max_prefix), vocab)
    rows, labels = _reference_encode(log, max_prefix, matrix.column_names, vocab)
    assert matrix.rows.tobytes() == rows.tobytes()
    assert matrix.labels.tolist() == labels


@pytest.mark.parametrize("times, sign", [(("10:05", "10:00"), 0.0), (("10:00", "10:00"), -0.0)])
def test_case_keeps_the_statics_of_its_earliest_event(basic_schema, times, sign):
    # -0.0 == 0.0 passes the per-row static check; the case keeps the value
    # of its earliest event (a tie keeps the first row), as a stable sort does
    log = _parse([f"c1,A,2024-01-01 {times[0]}:00,ok,web,-0.0,r1,1.0",
                  f"c1,B,2024-01-01 {times[1]}:00,ok,web,0.0,r1,1.0"], basic_schema)
    m = aggregate_encode(extract_prefixes(log, 2), fit_vocabulary(log))
    amount = m.rows[:, m.column_names.index("amount")]
    assert np.signbit(amount).tolist() == [np.signbit(sign)] * 2


def test_unlabelled_trace_is_rejected_naming_the_case(basic_schema):
    log = EventLog((Trace("c7", {"channel": "web", "amount": 1.0}, range(1), None),),
                   basic_schema, ["A"], [datetime(2024, 1, 1)],
                   {"resource": ["r1"], "cost": [1.0]})
    with pytest.raises(ValueError, match="'c7'"):
        aggregate_encode(extract_prefixes(log, 2), fit_vocabulary(log))


def test_matrix_is_read_only(golden):
    with pytest.raises(ValueError):
        golden.rows[0, 0] = 99.0
    with pytest.raises(ValueError):
        golden.labels[0] = 1


def test_distinct_values_are_each_columns_cached_and_read_only(golden):
    distinct = golden.distinct
    assert golden.distinct is distinct
    assert [d.tolist() for d in distinct] == [np.unique(c).tolist() for c in golden.rows.T]
    with pytest.raises(ValueError):
        distinct[0][0] = 99.0


def test_export_csv_round_trips_values(golden):
    text = golden.export_csv()
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "act=A:control"
    assert header[-1] == "label"
    assert len(lines) == 1 + golden.n_rows
    first = [float(v) for v in lines[1].split(",")[:-1]]
    assert first == golden.rows[0].tolist()


def _per_cell_export(m, include_label):
    """The bridge wire format formatted one cell at a time."""
    header = [f"{c.name}:{c.attribute_type}" for c in m.columns]
    if include_label:
        header.append("label")
    lines = [",".join(header)]
    for j in range(m.n_rows):
        cells = [repr(float(v)) for v in m.rows[j]]
        if include_label:
            cells.append(str(int(m.labels[j])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.0, 3.0, -7.0, 2.0**53]),
    st.integers(-(2**60), 2**60).map(float),
)


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                  elements=_cells))
def test_export_csv_equals_per_cell_formatting(rows):
    labels = np.arange(rows.shape[0]) % 2
    m = make_matrix(rows, labels)
    assert m.export_csv() == _per_cell_export(m, include_label=True)


@st.composite
def _matrix_and_copy(draw):
    """A matrix's rows and a ``{column index: values}`` map over its columns."""
    rows = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                           elements=_cells))
    n, p = rows.shape
    columns = draw(st.lists(st.integers(0, p - 1), unique=True, max_size=p))
    return rows, {c: draw(hnp.arrays(np.float64, n, elements=_cells)) for c in columns}


_EDGES = np.array([[-0.0, 5e-324, 1e16, 1e-7],
                   [3.0, -2.2250738585072014e-308, 2.0**53, -1e-7]])


@pytest.mark.oracle
@given(_matrix_and_copy())
@example((_EDGES, {}))
@example((_EDGES, {1: np.array([-0.0, 1e16]), 3: np.array([4.0, 5e-324])}))
@example((_EDGES, {c: _EDGES[::-1, (c + 1) % 4] for c in range(4)}))  # rewrites every column
@example((np.zeros((2, 3)), {0: np.array([1e-7, -0.0]), 1: np.array([1e16, 7.0]),
                             2: np.array([2.5e-320, -3.0])}))
def test_copy_csv_rows_equals_csv_rows_of_the_built_copy(matrix_and_copy):
    # the bridge's stdin text for a copy, written from the matrix's cell
    # strings with only the copy's columns formatted, against the copy built
    # as a matrix and formatted whole, and cell by cell
    rows, copy = matrix_and_copy
    m = make_matrix(rows, np.arange(rows.shape[0]) % 2)
    built_rows = rows.copy()
    for column, values in copy.items():
        built_rows[:, column] = values
    built = make_matrix(built_rows, m.labels)
    sent = m.csv_header() + copy_csv_rows(m.csv_cells(), copy, m.n_rows)
    assert sent == built.csv_header() + copy_csv_rows(built.csv_cells(), {}, m.n_rows)
    assert sent == _per_cell_export(built, include_label=False)
