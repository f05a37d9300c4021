"""Seeded synthetic event logs with planted outcome rules.

Rules declare which attribute type carries the label signal, so the
functional-complexity metrics can be validated against a known ground
truth. Numeric attributes are uniform on [0, 1], which keeps analytic base
rates computable.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field, replace
from datetime import datetime
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
        if not 1 <= self.alphabet_size <= len(string.ascii_uppercase):
            raise ValueError(f"alphabet_size must be a whole number in 1..26, "
                             f"got {self.alphabet_size}")
        for name in ("n_cases", "n_static_categorical", "n_static_numeric",
                     "n_dynamic_categorical", "n_dynamic_numeric"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be a whole number >= 0, got {getattr(self, name)}")
        alphabet = self.alphabet()
        for activity in _rule_activities(self.rule):
            if activity not in alphabet:
                raise ValueError(f"rule activity {activity!r} not in alphabet")
        if isinstance(self.rule, (CaseThreshold, EventMeanThreshold)):
            role = "static_numeric" if isinstance(self.rule, CaseThreshold) else "dynamic_numeric"
            numerics = getattr(synth_schema(self), role)
            if self.rule.attribute not in numerics:
                raise ValueError(f"rule attribute {self.rule.attribute!r} is not a {role} "
                                 f"attribute of the spec (it has: {', '.join(numerics) or 'none'})")

    def alphabet(self) -> tuple[str, ...]:
        return tuple(string.ascii_uppercase[: self.alphabet_size])


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
    """Generate a labelled log, fully determined by the configured seed.

    Case ``c`` draws from its own ``default_rng(derive_seed(seed, c))``, in
    this order: the trace length; the start offset; the static categoricals,
    then the static numerics; per event its dynamic categoricals, its dynamic
    numerics, the activity, then the gap to the next event; last, only when
    ``label_noise > 0``, the noise flip. A level is ``levels[rng.integers(n)]``
    (the draw ``rng.choice(levels)`` makes) and a numeric ``rng.random()``.
    This order is the stream contract that the golden files pin: a change to
    it moves their bytes."""
    schema = synth_schema(spec)
    alphabet, n_levels = spec.alphabet(), len(_CAT_LEVELS)
    activities, seconds, traces, flipped = [], [], [], []
    dynamics = {c: [] for c in schema.dynamic_categorical + schema.dynamic_numeric}
    for c in range(spec.n_cases):
        rng = np.random.default_rng(derive_seed(spec.seed, c))
        length = int(rng.integers(spec.min_trace_length, spec.max_trace_length + 1))
        t = c * 3600 + int(rng.integers(0, 600))  # seconds after _BASE_TIME
        statics = {col: _CAT_LEVELS[rng.integers(n_levels)] for col in schema.static_categorical}
        statics |= {col: rng.random() for col in schema.static_numeric}

        first = len(activities)
        for _ in range(length):
            for col in schema.dynamic_categorical:
                dynamics[col].append(_CAT_LEVELS[rng.integers(n_levels)])
            for col in schema.dynamic_numeric:
                dynamics[col].append(rng.random())
            activities.append(alphabet[rng.integers(len(alphabet))])
            seconds.append(t)
            t += int(rng.integers(1, 301))
        traces.append(Trace(f"case_{c:05d}", statics, range(first, len(activities))))
        flipped.append(spec.label_noise > 0.0 and rng.random() < spec.label_noise)

    times = np.datetime64(_BASE_TIME, "us") + np.array(seconds, dtype="timedelta64[s]")
    log = EventLog(tuple(traces), schema, activities, times, dynamics)
    labels = [evaluate_rule(spec.rule, log, t) ^ flip for t, flip in zip(traces, flipped)]
    return replace(log, traces=tuple(replace(t, label=y) for t, y in zip(traces, labels)))
