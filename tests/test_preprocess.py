from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_matrix
from xpop.eventlog import parse_csv
from xpop.preprocess import (
    CASE,
    CONTROL,
    EVENT,
    aggregate_encode,
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
    ordered = sorted(log.traces, key=lambda t: t.events[0].timestamp)
    n_train = math.ceil(ratio * len(ordered))
    test = ordered[n_train:]
    cutoff = min(t.events[0].timestamp for t in test)
    train = []
    for t in ordered[:n_train]:
        kept = [e for e in t.events if e.timestamp < cutoff]
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
    cutoff = min(t.events[0].timestamp for t in test.traces)
    assert all(e.timestamp < cutoff for t in train.traces for e in t.events)


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
    assert len(prefixes) == 12
    lengths = sorted(p.length for p in prefixes.prefixes)
    assert lengths == [1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3]


def test_prefix_events_are_true_prefixes(basic_schema):
    rows = [
        f"c1,{a},2024-01-01 10:0{i}:00,ok,web,1.0,r1,1.0"
        for i, a in enumerate("ABC")
    ]
    prefixes = extract_prefixes(_parse(rows, basic_schema), 10)
    acts = [tuple(e.activity for e in p.events) for p in prefixes.prefixes]
    assert acts == [("A",), ("A", "B"), ("A", "B", "C")]
    assert all(p.label == prefixes.prefixes[0].label for p in prefixes.prefixes)


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
    return aggregate_encode(extract_prefixes(log, 3), basic_schema, vocab)


def test_golden_matrix_shape_and_layout(golden):
    # 3 prefixes from c1 + 2 from c2
    assert golden.n_rows == 5
    # 2 activities + (2 channel one-hot + 1 amount) + (3 ts features * 5 stats
    # + 1 dynamic numeric * 5 stats + 3 resource levels) = 2 + 3 + 23 = 28
    assert golden.n_columns == 28
    assert golden.type_counts() == {CONTROL: 2, CASE: 3, EVENT: 23}
    assert golden.provenance == (("c1", 1), ("c1", 2), ("c1", 3), ("c2", 1), ("c2", 2))
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
    matrix = aggregate_encode(extract_prefixes(fresh, 1), basic_schema, vocab)
    assert _col(matrix, "act=A")[0] == 0.0
    assert _col(matrix, "channel=web")[0] == 0.0
    assert _col(matrix, "resource=r1")[0] == 0.0
    # numerics still pass through
    assert _col(matrix, "amount")[0] == 2.0


def test_control_frequencies_monotone_in_prefix_length():
    log = generate_log(SynthSpec(n_cases=30, label_noise=0.0, seed=7))
    vocab = fit_vocabulary(log)
    matrix = aggregate_encode(extract_prefixes(log, 6), log.schema, vocab)
    control = matrix.columns_of_type(CONTROL)
    by_case: dict[str, list[int]] = {}
    for j, (case_id, _k) in enumerate(matrix.provenance):
        by_case.setdefault(case_id, []).append(j)
    for rows in by_case.values():
        for a, b in zip(rows, rows[1:]):
            assert np.all(matrix.rows[b, control] >= matrix.rows[a, control])
            assert matrix.rows[b, control].sum() == matrix.rows[a, control].sum() + 1


def test_encoding_is_deterministic():
    log = generate_log(SynthSpec(n_cases=25, label_noise=0.2, seed=9))
    vocab = fit_vocabulary(log)
    a = aggregate_encode(extract_prefixes(log, 4), log.schema, vocab)
    b = aggregate_encode(extract_prefixes(log, 4), log.schema, vocab)
    assert np.array_equal(a.rows, b.rows)
    assert a.columns == b.columns


def test_matrix_is_read_only(golden):
    with pytest.raises(ValueError):
        golden.rows[0, 0] = 99.0
    with pytest.raises(ValueError):
        golden.labels[0] = 1


def test_export_csv_round_trips_values(golden):
    text = golden.export_csv(include_label=True)
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


@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=_cells),
    st.booleans(),
)
def test_export_csv_equals_per_cell_formatting(rows, include_label):
    labels = np.arange(rows.shape[0]) % 2
    m = make_matrix(rows, labels)
    assert m.export_csv(include_label) == _per_cell_export(m, include_label)
