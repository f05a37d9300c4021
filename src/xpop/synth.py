"""Seeded synthetic event logs with planted outcome rules.

Rules declare which attribute type carries the label signal, so the
functional-complexity metrics can be validated against a known ground
truth. Numeric attributes are uniform on [0, 1], which keeps analytic base
rates computable.
"""

from __future__ import annotations

import math
import numbers
import re
import string
from dataclasses import dataclass, field, fields, replace
from datetime import datetime
from typing import ClassVar, get_type_hints

import numpy as np

from xpop.eventlog import AttributeSchema, EventLog, Trace, eventually_followed_label
from xpop.seeds import derive_seed

_BASE_TIME = datetime(2024, 1, 1, 8, 0, 0)
_CAT_LEVELS = ("c0", "c1", "c2", "c3")


class Rule:
    """A planted outcome rule: a frozen dataclass whose fields are its config
    arguments in order, listed in ``RULES``. ``dominant_type`` is the attribute
    type that carries the label signal; ``label(log, trace)`` is 1 if deviant."""

    dominant_type: ClassVar[str]


@dataclass(frozen=True)
class ControlPresence(Rule):
    activity: str
    dominant_type = "control"

    def label(self, log: EventLog, trace: Trace) -> int:
        return 1 if self.activity in log.activities[trace.events].tolist() else 0


@dataclass(frozen=True)
class ControlFollows(Rule):
    first: str
    second: str
    dominant_type = "control"

    def label(self, log: EventLog, trace: Trace) -> int:
        return eventually_followed_label(log.activities[trace.events].tolist(),
                                         self.first, self.second)


@dataclass(frozen=True)
class CaseThreshold(Rule):
    attribute: str
    threshold: float
    dominant_type = "case"

    def label(self, log: EventLog, trace: Trace) -> int:
        return 1 if float(trace.statics[self.attribute]) > self.threshold else 0


@dataclass(frozen=True)
class EventMeanThreshold(Rule):
    attribute: str
    threshold: float
    dominant_type = "event"

    def label(self, log: EventLog, trace: Trace) -> int:
        mean = float(np.mean(log.dynamics[self.attribute][trace.events]))
        return 1 if mean > self.threshold else 0


# config name -> rule form: the one list of the forms
RULES = {
    "control_presence": ControlPresence,
    "control_follows": ControlFollows,
    "case_threshold": CaseThreshold,
    "event_mean_threshold": EventMeanThreshold,
}


def parse_rule(text: str) -> Rule:
    """The rule a config writes as ``<form>(<arg>, ...)``, such as
    ``case_threshold(s_num1, 0.5)``: the form is looked up in ``RULES`` and
    each argument is read as its field's declared type."""
    m = re.fullmatch(r"(\w+)\(([^)]*)\)", text.strip())
    form = RULES.get(m.group(1)) if m else None
    args = [a.strip() for a in m.group(2).split(",")] if m and m.group(2).strip() else []
    if form is None or len(args) != len(fields(form)):
        raise ValueError(f"cannot parse rule {text!r}")
    types = get_type_hints(form)
    return form(*(types[f.name](arg) for f, arg in zip(fields(form), args)))


_COUNT = ("a whole number >= 0", lambda v: v >= 0)
_LENGTH = ("a whole number >= 1", lambda v: True)  # below 1 is an invalid length range
# size field of a SynthSpec -> (rule, check), checked when the spec is built
_SIZES = {
    "n_cases": _COUNT,
    "alphabet_size": ("a whole number in 1..26", lambda v: 1 <= v <= len(string.ascii_uppercase)),
    "min_trace_length": _LENGTH,
    "max_trace_length": _LENGTH,
    "n_static_categorical": _COUNT,
    "n_static_numeric": _COUNT,
    "n_dynamic_categorical": _COUNT,
    "n_dynamic_numeric": _COUNT,
}


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
        for name, (must, check) in _SIZES.items():
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and check(value)):
                raise ValueError(f"{name} must be {must}, got {value}")
        if self.min_trace_length < 1 or self.max_trace_length < self.min_trace_length:
            raise ValueError("invalid trace length range")
        rule = self.rule
        if rule.dominant_type == "control":
            activities = [getattr(rule, f.name) for f in fields(rule)]
            for activity in activities:
                if activity not in self.alphabet():
                    raise ValueError(f"rule activity {activity!r} not in alphabet")
            if len(set(activities)) < len(activities):
                raise ValueError("rule activities must differ")
        else:
            role = "static_numeric" if rule.dominant_type == "case" else "dynamic_numeric"
            numerics = getattr(synth_schema(self), role)
            if rule.attribute not in numerics:
                raise ValueError(f"rule attribute {rule.attribute!r} is not a {role} "
                                 f"attribute of the spec (it has: {', '.join(numerics) or 'none'})")
            if not math.isfinite(rule.threshold):
                raise ValueError(f"rule threshold must be finite, got {rule.threshold}")

    def alphabet(self) -> tuple[str, ...]:
        return tuple(string.ascii_uppercase[: self.alphabet_size])


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
    labels = [spec.rule.label(log, t) ^ flip for t, flip in zip(traces, flipped)]
    return replace(log, traces=tuple(replace(t, label=y) for t, y in zip(traces, labels)))
