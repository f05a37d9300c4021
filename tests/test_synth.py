from __future__ import annotations

import dataclasses
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xpop.eventlog import AttributeSchema, EventLog, Trace, parse_csv, serialize_csv
from xpop.seeds import derive_seed
from xpop.synth import (
    _BASE_TIME,
    _CAT_LEVELS,
    CaseThreshold,
    ControlFollows,
    ControlPresence,
    EventMeanThreshold,
    SynthSpec,
    generate_log,
    synth_schema,
)


def _trace(activities, statics=None, dynamics_list=None):
    """A one-trace log of ``activities`` (numeric dynamics, one dict per
    event), and its trace."""
    dynamics = {}
    for event in dynamics_list or ():
        for attr, value in event.items():
            dynamics.setdefault(attr, []).append(value)
    schema = AttributeSchema({"case": "case_id", "activity": "activity", "time": "timestamp",
                              **dict.fromkeys(dynamics, "dynamic_numeric")})
    trace = Trace("c", statics or {}, range(len(activities)), None)
    times = [datetime(2024, 1, 1, 8, 0, i) for i in range(len(activities))]
    return EventLog((trace,), schema, activities, times, dynamics), trace


# --- rules -----------------------------------------------------------------------


def test_control_presence_rule():
    rule = ControlPresence("A")
    assert rule.label(*_trace(["B", "A", "C"])) == 1
    assert rule.label(*_trace(["B", "C"])) == 0


def test_control_follows_rule():
    rule = ControlFollows("A", "B")
    assert rule.label(*_trace(["A", "C", "B"])) == 0
    assert rule.label(*_trace(["A", "C"])) == 1
    assert rule.label(*_trace(["B", "A"])) == 1
    assert rule.label(*_trace(["C", "C"])) == 0


def test_case_threshold_rule():
    rule = CaseThreshold("s_num1", 0.5)
    assert rule.label(*_trace(["A"], statics={"s_num1": 0.7})) == 1
    assert rule.label(*_trace(["A"], statics={"s_num1": 0.5})) == 0


def test_event_mean_threshold_rule():
    rule = EventMeanThreshold("d_num1", 0.5)
    dyn = [{"d_num1": 0.2}, {"d_num1": 0.9}, {"d_num1": 0.7}]
    assert rule.label(*_trace(["A", "B", "C"], dynamics_list=dyn)) == 1
    dyn = [{"d_num1": 0.2}, {"d_num1": 0.3}]
    assert rule.label(*_trace(["A", "B"], dynamics_list=dyn)) == 0


def test_rule_dominant_types():
    assert ControlPresence("A").dominant_type == "control"
    assert ControlFollows("A", "B").dominant_type == "control"
    assert CaseThreshold("s_num1", 0.5).dominant_type == "case"
    assert EventMeanThreshold("d_num1", 0.5).dominant_type == "event"


# --- spec validation ---------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="label_noise"):
        SynthSpec(label_noise=0.5)
    with pytest.raises(ValueError, match="trace length"):
        SynthSpec(min_trace_length=4, max_trace_length=2)
    with pytest.raises(ValueError, match="not in alphabet"):
        SynthSpec(alphabet_size=3, rule=ControlPresence("Z"))
    assert SynthSpec(alphabet_size=3).alphabet() == ("A", "B", "C")
    for size in (0, -1, 27):
        with pytest.raises(ValueError, match=f"^alphabet_size must be a whole number in 1..26, "
                                             f"got {size}$"):
            SynthSpec(alphabet_size=size)
    for name in ("n_cases", "n_static_categorical", "n_static_numeric",
                 "n_dynamic_categorical", "n_dynamic_numeric"):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number >= 0, got -2$"):
            SynthSpec(**{name: -2})
    # a size must be a whole number, numpy's included
    for name, must in [("n_cases", ">= 0"), ("alphabet_size", "in 1..26"),
                       ("min_trace_length", ">= 1"), ("max_trace_length", ">= 1"),
                       ("n_static_categorical", ">= 0"), ("n_dynamic_numeric", ">= 0")]:
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number {must}, got 3\.5$"):
            SynthSpec(**{name: 3.5})
    assert SynthSpec(n_cases=np.int64(3), alphabet_size=np.int32(2)).alphabet() == ("A", "B")
    assert len(generate_log(SynthSpec(n_cases=0))) == 0
    # a threshold rule needs a numeric attribute of its kind that the spec generates
    for rule, counts, message in [
        (CaseThreshold("s_num9", 0.5), {}, "'s_num9' is not a static_numeric attribute of the "
                                           "spec (it has: s_num1)"),
        (CaseThreshold("s_cat1", 0.5), {"n_static_numeric": 2},
         "'s_cat1' is not a static_numeric attribute of the spec (it has: s_num1, s_num2)"),
        (CaseThreshold("s_num1", 0.5), {"n_static_numeric": 0},
         "'s_num1' is not a static_numeric attribute of the spec (it has: none)"),
        (EventMeanThreshold("d_cat1", 0.5), {}, "'d_cat1' is not a dynamic_numeric attribute "
                                                "of the spec (it has: d_num1)"),
        (EventMeanThreshold("s_num1", 0.5), {}, "'s_num1' is not a dynamic_numeric attribute "
                                                "of the spec (it has: d_num1)"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            SynthSpec(rule=rule, **counts)
        assert str(excinfo.value) == f"rule attribute {message}"
    # a degenerate rule: a threshold that labels every case alike, a follows rule on one activity
    for rule, message in [
        (CaseThreshold("s_num1", float("nan")), "rule threshold must be finite, got nan"),
        (EventMeanThreshold("d_num1", float("inf")), "rule threshold must be finite, got inf"),
        (CaseThreshold("s_num1", float("-inf")), "rule threshold must be finite, got -inf"),
        (ControlFollows("A", "A"), "rule activities must differ"),
    ]:
        with pytest.raises(ValueError) as excinfo:
            SynthSpec(rule=rule)
        assert str(excinfo.value) == message


# --- generation ----------------------------------------------------------------------


def test_spec_seed_must_be_an_integer():
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 2\.5$"):
        SynthSpec(seed=2.5)
    spec = SynthSpec(n_cases=3, seed=np.int64(4))
    assert generate_log(spec) == generate_log(SynthSpec(n_cases=3, seed=4))


def test_generated_log_matches_spec_dimensions():
    spec = SynthSpec(n_cases=30, alphabet_size=4, min_trace_length=2,
                     max_trace_length=5, seed=1)
    log = generate_log(spec)
    assert len(log) == 30
    assert {t.case_id for t in log.traces} == {f"case_{c:05d}" for c in range(30)}
    assert set(log.dynamics) == {"d_cat1", "d_num1"}
    for trace in log.traces:
        assert 2 <= len(trace) <= 5
        assert set(log.activities[trace.events]) <= set(spec.alphabet())
        assert set(trace.statics) == {"s_cat1", "s_num1"}
        assert 0.0 <= trace.statics["s_num1"] <= 1.0
        assert trace.statics["s_cat1"] in ("c0", "c1", "c2", "c3")


def test_generation_is_deterministic_and_seed_sensitive():
    spec = SynthSpec(n_cases=15, seed=21)
    assert generate_log(spec) == generate_log(spec)
    other = SynthSpec(n_cases=15, seed=22)
    assert generate_log(spec) != generate_log(other)


def test_case_seed_isolation():
    # a case's content does not depend on how many cases precede it
    big = generate_log(SynthSpec(n_cases=10, seed=33))
    small = generate_log(SynthSpec(n_cases=3, seed=33))
    assert small == dataclasses.replace(big, traces=big.traces[:3])


def test_timestamps_are_ordered_whole_seconds_and_round_trip():
    spec = SynthSpec(n_cases=12, seed=2)
    log = generate_log(spec)
    for trace in log.traces:
        times = log.timestamps[trace.events].tolist()
        assert times == sorted(times)
        assert all(t.microsecond == 0 for t in times)
        for a, b in zip(times, times[1:]):
            assert 1 <= (b - a).total_seconds() <= 300
    # case starts are about an hour apart, so the temporal split is stable
    starts = [log.timestamps[t.events[0]] for t in log.traces]
    assert starts == sorted(starts)
    # CSV round trip preserves everything
    assert parse_csv(serialize_csv(log), log.schema) == log


def test_labels_match_rule_without_noise():
    spec = SynthSpec(n_cases=50, rule=ControlPresence("A"), label_noise=0.0, seed=4)
    log = generate_log(spec)
    for trace in log.traces:
        assert trace.label == spec.rule.label(log, trace)


def test_label_noise_flips_roughly_the_stated_fraction():
    spec = SynthSpec(n_cases=2000, label_noise=0.2, seed=8)
    log = generate_log(spec)
    flips = sum(
        t.label != spec.rule.label(log, t) for t in log.traces
    )
    # binomial(2000, 0.2): 5 sigma ~ 89
    assert abs(flips - 400) < 90


def test_noise_changes_only_labels():
    clean = generate_log(SynthSpec(n_cases=40, label_noise=0.0, seed=6))
    noisy = generate_log(SynthSpec(n_cases=40, label_noise=0.3, seed=6))
    relabelled = [dataclasses.replace(b, label=a.label) for a, b in zip(clean.traces, noisy.traces)]
    assert dataclasses.replace(noisy, traces=tuple(relabelled)) == clean


def test_schema_covers_requested_attribute_counts():
    spec = SynthSpec(n_static_categorical=2, n_static_numeric=0,
                     n_dynamic_categorical=0, n_dynamic_numeric=3)
    schema = synth_schema(spec)
    assert schema.static_categorical == ("s_cat1", "s_cat2")
    assert schema.static_numeric == ()
    assert schema.dynamic_numeric == ("d_num1", "d_num2", "d_num3")
    log = generate_log(SynthSpec(n_cases=5, n_static_categorical=2,
                                 n_static_numeric=0, n_dynamic_categorical=0,
                                 n_dynamic_numeric=3, seed=0))
    assert set(log.traces[0].statics) == {"s_cat1", "s_cat2"}
    assert set(log.dynamics) == {"d_num1", "d_num2", "d_num3"}


def test_case_threshold_base_rate_is_near_analytic():
    # P(label = 1) = P(U > 0.3) = 0.7
    spec = SynthSpec(n_cases=2000, rule=CaseThreshold("s_num1", 0.3), seed=13)
    log = generate_log(spec)
    rate = np.mean([t.label for t in log.traces])
    assert abs(rate - 0.7) < 0.05


# --- generation against the rng.choice / datetime oracle ---------------------------


def _reference_generate_log(spec: SynthSpec) -> EventLog:
    """Oracle: the generator as it was written before levels were drawn by
    index and timestamps built from integer seconds, with one
    ``rng.choice`` per level and one ``datetime + timedelta`` per event."""
    schema = synth_schema(spec)
    alphabet = np.array(spec.alphabet())
    activities, times, traces, flipped = [], [], [], []
    dynamics = {c: [] for c in schema.dynamic_categorical + schema.dynamic_numeric}
    for c in range(spec.n_cases):
        rng = np.random.default_rng(derive_seed(spec.seed, c))
        length = int(rng.integers(spec.min_trace_length, spec.max_trace_length + 1))
        t = _BASE_TIME + timedelta(seconds=c * 3600 + int(rng.integers(0, 600)))
        statics = {col: str(rng.choice(_CAT_LEVELS)) for col in schema.static_categorical}
        statics |= {col: float(rng.uniform(0.0, 1.0)) for col in schema.static_numeric}

        first = len(activities)
        for _ in range(length):
            for col in schema.dynamic_categorical:
                dynamics[col].append(str(rng.choice(_CAT_LEVELS)))
            for col in schema.dynamic_numeric:
                dynamics[col].append(float(rng.uniform(0.0, 1.0)))
            activities.append(str(rng.choice(alphabet)))
            times.append(t)
            t = t + timedelta(seconds=int(rng.integers(1, 301)))
        traces.append(Trace(f"case_{c:05d}", statics, range(first, len(activities))))
        flipped.append(spec.label_noise > 0.0 and rng.uniform(0.0, 1.0) < spec.label_noise)

    log = EventLog(tuple(traces), schema, activities, times, dynamics)
    labels = [spec.rule.label(log, t) ^ flip for t, flip in zip(traces, flipped)]
    return dataclasses.replace(
        log, traces=tuple(dataclasses.replace(t, label=y) for t, y in zip(traces, labels)))


@st.composite
def synth_specs(draw) -> SynthSpec:
    """Valid specs: up to 30 cases, traces of 1-8 events, 0-3 attributes of
    each kind, and any of the four rule forms the spec has attributes for."""
    alphabet_size = draw(st.integers(1, 26))
    shortest = draw(st.integers(1, 8))
    counts = {f"n_{kind}": draw(st.integers(0, 3)) for kind in
              ("static_categorical", "static_numeric", "dynamic_categorical", "dynamic_numeric")}
    letters = st.sampled_from(SynthSpec(alphabet_size=alphabet_size).alphabet())
    threshold = st.floats(0.0, 1.0)
    rules = [st.builds(ControlPresence, letters)]
    if alphabet_size > 1:  # a follows rule names two different activities
        pairs = st.lists(letters, min_size=2, max_size=2, unique=True)
        rules.append(pairs.map(lambda pair: ControlFollows(*pair)))
    if counts["n_static_numeric"]:
        names = [f"s_num{i + 1}" for i in range(counts["n_static_numeric"])]
        rules.append(st.builds(CaseThreshold, st.sampled_from(names), threshold))
    if counts["n_dynamic_numeric"]:
        names = [f"d_num{i + 1}" for i in range(counts["n_dynamic_numeric"])]
        rules.append(st.builds(EventMeanThreshold, st.sampled_from(names), threshold))
    return SynthSpec(
        n_cases=draw(st.integers(0, 30)),
        alphabet_size=alphabet_size,
        min_trace_length=shortest,
        max_trace_length=draw(st.integers(shortest, 8)),
        rule=draw(st.one_of(rules)),
        label_noise=draw(st.sampled_from([0.0, 0.25])),
        seed=draw(st.integers(-(2**63), 2**64 - 1)),
        **counts,
    )


@given(synth_specs())
def test_generate_log_draws_the_reference_stream(spec):
    log, expected = generate_log(spec), _reference_generate_log(spec)
    # line lists, so that a failing example reports its first differing row
    assert serialize_csv(log).splitlines() == serialize_csv(expected).splitlines()
    assert [t.label for t in log.traces] == [t.label for t in expected.traces]
    assert log.timestamps.dtype == expected.timestamps.dtype == np.dtype("datetime64[us]")
    assert np.array_equal(log.timestamps, expected.timestamps)
    for trace in log.traces:
        assert all(type(v) in (str, float) for v in trace.statics.values())
