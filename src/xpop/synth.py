"""Seeded synthetic event logs with planted outcome rules.

Rules declare which attribute type carries the label signal, so the
functional-complexity metrics can be validated against a known ground
truth. Numeric attributes are uniform on [0, 1], which keeps analytic base
rates computable.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from typing import Union

import numpy as np

from xpop.eventlog import AttributeSchema, EventLog, Trace, eventually_followed_label
from xpop.seeds import derive_seed

_BASE_TIME = datetime(2024, 1, 1, 8, 0, 0)
_CAT_LEVELS = ("c0", "c1", "c2", "c3")


@dataclass(frozen=True)
class ControlPresence:
    activity: str

    def dominant_type(self) -> str:
        return "control"


@dataclass(frozen=True)
class ControlFollows:
    first: str
    second: str

    def dominant_type(self) -> str:
        return "control"


@dataclass(frozen=True)
class CaseThreshold:
    attribute: str
    threshold: float

    def dominant_type(self) -> str:
        return "case"


@dataclass(frozen=True)
class EventMeanThreshold:
    attribute: str
    threshold: float

    def dominant_type(self) -> str:
        return "event"


Rule = Union[ControlPresence, ControlFollows, CaseThreshold, EventMeanThreshold]


@dataclass(frozen=True)
class SynthSpec:
    n_cases: int = 100
    alphabet_size: int = 5
    min_trace_length: int = 2
    max_trace_length: int = 6
    n_static_categorical: int = 1
    n_static_numeric: int = 1
    n_dynamic_categorical: int = 1
    n_dynamic_numeric: int = 1
    rule: Rule = field(default_factory=lambda: ControlPresence("A"))
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError("label_noise must be in [0, 0.5)")
        if self.min_trace_length < 1 or self.max_trace_length < self.min_trace_length:
            raise ValueError("invalid trace length range")
        alphabet = self.alphabet()
        for activity in _rule_activities(self.rule):
            if activity not in alphabet:
                raise ValueError(f"rule activity {activity!r} not in alphabet")

    def alphabet(self) -> tuple[str, ...]:
        letters = string.ascii_uppercase
        if self.alphabet_size > len(letters):
            raise ValueError("alphabet_size too large")
        return tuple(letters[: self.alphabet_size])


def _rule_activities(rule: Rule) -> tuple[str, ...]:
    if isinstance(rule, ControlPresence):
        return (rule.activity,)
    if isinstance(rule, ControlFollows):
        return (rule.first, rule.second)
    return ()


def evaluate_rule(rule: Rule, log: EventLog, trace: Trace) -> int:
    """Ground-truth label of a trace of ``log`` under the planted rule (1 = deviant)."""
    activities = log.activities[trace.events].tolist()
    if isinstance(rule, ControlPresence):
        return 1 if rule.activity in activities else 0
    if isinstance(rule, ControlFollows):
        return eventually_followed_label(activities, rule.first, rule.second)
    if isinstance(rule, CaseThreshold):
        return 1 if float(trace.statics[rule.attribute]) > rule.threshold else 0
    if isinstance(rule, EventMeanThreshold):
        mean = float(np.mean(log.dynamics[rule.attribute][trace.events]))
        return 1 if mean > rule.threshold else 0
    raise TypeError(f"unknown rule {rule!r}")


def synth_schema(spec: SynthSpec) -> AttributeSchema:
    roles: dict[str, str] = {
        "case": "case_id",
        "activity": "activity",
        "time": "timestamp",
        "label": "label",
    }
    for i in range(spec.n_static_categorical):
        roles[f"s_cat{i + 1}"] = "static_categorical"
    for i in range(spec.n_static_numeric):
        roles[f"s_num{i + 1}"] = "static_numeric"
    for i in range(spec.n_dynamic_categorical):
        roles[f"d_cat{i + 1}"] = "dynamic_categorical"
    for i in range(spec.n_dynamic_numeric):
        roles[f"d_num{i + 1}"] = "dynamic_numeric"
    return AttributeSchema(roles)


def generate_log(spec: SynthSpec) -> EventLog:
    """Generate a labelled log, fully determined by the configured seed."""
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
    labels = [evaluate_rule(spec.rule, log, t) ^ flip for t, flip in zip(traces, flipped)]
    return replace(log, traces=tuple(replace(t, label=y) for t, y in zip(traces, labels)))
