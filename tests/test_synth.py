from __future__ import annotations

import dataclasses
from datetime import datetime

import numpy as np
import pytest

from xpop.eventlog import AttributeSchema, EventLog, Trace, parse_csv, serialize_csv
from xpop.synth import (
    CaseThreshold,
    ControlFollows,
    ControlPresence,
    EventMeanThreshold,
    SynthSpec,
    evaluate_rule,
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
    assert evaluate_rule(rule, *_trace(["B", "A", "C"])) == 1
    assert evaluate_rule(rule, *_trace(["B", "C"])) == 0


def test_control_follows_rule():
    rule = ControlFollows("A", "B")
    assert evaluate_rule(rule, *_trace(["A", "C", "B"])) == 0
    assert evaluate_rule(rule, *_trace(["A", "C"])) == 1
    assert evaluate_rule(rule, *_trace(["B", "A"])) == 1
    assert evaluate_rule(rule, *_trace(["C", "C"])) == 0


def test_case_threshold_rule():
    rule = CaseThreshold("s_num1", 0.5)
    assert evaluate_rule(rule, *_trace(["A"], statics={"s_num1": 0.7})) == 1
    assert evaluate_rule(rule, *_trace(["A"], statics={"s_num1": 0.5})) == 0


def test_event_mean_threshold_rule():
    rule = EventMeanThreshold("d_num1", 0.5)
    dyn = [{"d_num1": 0.2}, {"d_num1": 0.9}, {"d_num1": 0.7}]
    assert evaluate_rule(rule, *_trace(["A", "B", "C"], dynamics_list=dyn)) == 1
    dyn = [{"d_num1": 0.2}, {"d_num1": 0.3}]
    assert evaluate_rule(rule, *_trace(["A", "B"], dynamics_list=dyn)) == 0


def test_rule_dominant_types():
    assert ControlPresence("A").dominant_type() == "control"
    assert ControlFollows("A", "B").dominant_type() == "control"
    assert CaseThreshold("s_num1", 0.5).dominant_type() == "case"
    assert EventMeanThreshold("d_num1", 0.5).dominant_type() == "event"


# --- spec validation ---------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="label_noise"):
        SynthSpec(label_noise=0.5)
    with pytest.raises(ValueError, match="trace length"):
        SynthSpec(min_trace_length=4, max_trace_length=2)
    with pytest.raises(ValueError, match="not in alphabet"):
        SynthSpec(alphabet_size=3, rule=ControlPresence("Z"))
    assert SynthSpec(alphabet_size=3).alphabet() == ("A", "B", "C")


# --- generation ----------------------------------------------------------------------


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
        assert trace.label == evaluate_rule(spec.rule, log, trace)


def test_label_noise_flips_roughly_the_stated_fraction():
    spec = SynthSpec(n_cases=2000, label_noise=0.2, seed=8)
    log = generate_log(spec)
    flips = sum(
        t.label != evaluate_rule(spec.rule, log, t) for t in log.traces
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
