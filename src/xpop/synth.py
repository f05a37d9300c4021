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
from xpop.preprocess import CASE, CONTROL, EVENT
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
    dominant_type = CONTROL

    def label(self, log: EventLog, trace: Trace) -> int:
        return 1 if self.activity in log.activities[trace.events].tolist() else 0


@dataclass(frozen=True)
class ControlFollows(Rule):
    first: str
    second: str
    dominant_type = CONTROL

    def label(self, log: EventLog, trace: Trace) -> int:
        return eventually_followed_label(log.activities[trace.events].tolist(),
                                         self.first, self.second)


@dataclass(frozen=True)
class CaseThreshold(Rule):
    attribute: str
    threshold: float
    dominant_type = CASE

    def label(self, log: EventLog, trace: Trace) -> int:
        return 1 if float(trace.statics[self.attribute]) > self.threshold else 0


@dataclass(frozen=True)
class EventMeanThreshold(Rule):
    attribute: str
    threshold: float
    dominant_type = EVENT

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
# integer field of a SynthSpec -> (rule, check), checked when the spec is built
_SIZES = {
    "seed": ("an integer", lambda v: True),
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
            if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                    and check(value)):
                raise ValueError(f"{name} must be {must}, got {value}")
        if self.min_trace_length < 1 or self.max_trace_length < self.min_trace_length:
            raise ValueError("invalid trace length range")
        rule = self.rule
        if rule.dominant_type == CONTROL:
            activities = [getattr(rule, f.name) for f in fields(rule)]
            for activity in activities:
                if activity not in self.alphabet():
                    raise ValueError(f"rule activity {activity!r} not in alphabet")
            if len(set(activities)) < len(activities):
                raise ValueError("rule activities must differ")
        else:
            role = "static_numeric" if rule.dominant_type == CASE else "dynamic_numeric"
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


# Raw words decoded per block of cases: bounds the decoder's memory
# whatever the number of cases.
_BLOCK_WORDS = 1 << 16
_HALF = np.uint64(0xFFFFFFFF)


def _stream(spec: SynthSpec, schema: AttributeSchema) -> tuple[list, list]:
    """The stream contract: a case's draws, then each of its events' draws,
    in order. ``(low, n)`` stands for ``rng.integers(low, low + n)`` and
    ``None`` for ``rng.random()``."""
    level = (0, len(_CAT_LEVELS))
    case = [(spec.min_trace_length, spec.max_trace_length - spec.min_trace_length + 1), (0, 600),
            *[level] * len(schema.static_categorical), *[None] * len(schema.static_numeric)]
    event = [*[level] * len(schema.dynamic_categorical), *[None] * len(schema.dynamic_numeric),
             (0, spec.alphabet_size), (1, 300)]
    return case, event


def _draw(rng: np.random.Generator, draws: list) -> list:
    """``draws`` made by numpy's own scalar calls."""
    return [rng.random() if d is None else rng.integers(d[0], d[0] + d[1]) for d in draws]


def _layout(draws: list) -> tuple[np.ndarray, ...]:
    """Where each draw reads a case's raw PCG64 words, by numpy's rules:
    ``random()`` reads a fresh word ``w`` as ``(w >> 11) * 2**-53``;
    ``integers(low, low + n)`` with n > 1 reads 32 bits ``x``, the low half
    of a fresh word or else the high half that the previous such draw left
    spare (``random()`` leaves it alone), as ``low + (x * n >> 32)``
    (Lemire 2019; every n here is at most 2**32); with n == 1 it reads
    nothing. Returns, per draw, the word, the shift that brings its bits
    down (11 for a double), ``low``, ``n`` (1 for a double) and the number
    of words used once it is drawn."""
    rows, fresh, spare = [], 0, None
    for d in draws:
        if d is None:
            row, fresh = (fresh, 11, 0, 1), fresh + 1
        elif d[1] == 1:
            row = (0, 0, *d)
        elif spare is not None:
            row, spare = (spare, 32, *d), None
        else:
            row, spare, fresh = (fresh, 0, *d), fresh, fresh + 1
        rows.append((*row, fresh))
    word, shift, low, n, used = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return word, shift.astype(np.uint64), low.astype(np.float64), n.astype(np.uint64), used


def _redraws(product: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Where numpy rejects a bounded draw whose 32 bits times ``n`` are
    ``product``, and draws again (Lemire's threshold)."""
    return (product & _HALF) < (2**32 - n) % n


def _decode(words: np.ndarray, word, shift, low, n) -> tuple[np.ndarray, np.ndarray]:
    """The draws laid out at ``word``/``shift`` (see ``_layout``) read from
    each row of raw words, as float64, and where a draw was rejected."""
    raw = words[:, word] >> shift
    product = (raw & _HALF) * n
    value = np.where(shift == 11, raw * 2.0**-53, low + (product >> 32))
    return value, _redraws(product, n)


def _raw_words(seeds: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` raw words of ``default_rng(seed)``'s bit generator,
    one row per uint64 seed: numpy's own ``PCG64(seed)``, then one
    ``random_raw``."""
    words = np.empty((len(seeds), k), dtype=np.uint64)
    for row, seed in zip(words, seeds.tolist()):  # a Python int keeps a seed >= 2**63 whole
        row[:] = np.random.PCG64(seed).random_raw(k)
    return words


def generate_log(spec: SynthSpec) -> EventLog:
    """Generate a labelled log, fully determined by the configured seed.

    Case ``c`` draws from its own ``default_rng(derive_seed(seed, c))``, in
    this order: the trace length; the start offset; the static categoricals,
    then the static numerics; per event its dynamic categoricals, its dynamic
    numerics, the activity, then the gap to the next event; last, only when
    ``label_noise > 0``, the noise flip. A level is ``levels[rng.integers(n)]``
    (the draw ``rng.choice(levels)`` makes) and a numeric ``rng.random()``.
    This order is the stream contract that the golden files pin: a change to
    it moves their bytes.

    The draws are not made one numpy call at a time. Each case's words come
    from numpy's own ``PCG64(seed)`` in one ``random_raw``. The draws are
    decoded from those words for a block of cases at once, by the rules
    that numpy's ``integers`` and ``random`` follow (``_layout``). A case in
    which numpy would reject a bounded draw and draw again is made by
    numpy's own calls instead. The tests pin the decoded stream against
    live numpy."""
    schema = synth_schema(spec)
    case_draws, event_draws = _stream(spec, schema)
    n_case, n_event, longest = len(case_draws), len(event_draws), spec.max_trace_length
    word, shift, low, n, used = _layout(case_draws + event_draws * longest)
    case_at = word[:n_case], shift[:n_case], low[:n_case], n[:n_case]
    event_at = [a[n_case:].reshape(longest, n_event) for a in (word, shift, low, n)]
    ends = used[n_case - 1 :: n_event]  # words used once e events are drawn
    k = int(ends[-1]) + 1  # the longest trace's words and a noise word
    per_block = max(1, _BLOCK_WORDS // k)
    seeds = derive_seed(spec.seed, np.arange(spec.n_cases, dtype=np.uint64))
    cases, events, elapsed, flips = [], [], [], []
    for first in range(0, max(spec.n_cases, 1), per_block):  # an empty log has one empty block
        block = seeds[first : first + per_block]
        words = _raw_words(block, k)
        case, case_redraws = _decode(words, *case_at)
        event, event_redraws = _decode(words, *event_at)
        length = case[:, 0].astype(np.intp)
        live = np.arange(longest) < length[:, None]
        # the noise flip reads the word after the last event; no noise never flips
        flip = (words[np.arange(len(block)), ends[length]] >> 11) * 2.0**-53 < spec.label_noise
        for b in np.flatnonzero(case_redraws.any(1) | (event_redraws.any(2) & live).any(1)):
            rng = np.random.default_rng(int(block[b]))
            case[b] = _draw(rng, case_draws)
            length[b] = case[b, 0]
            event[b, : length[b]] = [_draw(rng, event_draws) for _ in range(length[b])]
            live[b] = np.arange(longest) < length[b]
            flip[b] = rng.random() < spec.label_noise
        gap = event[:, :, -1]
        elapsed.append((np.cumsum(gap, axis=1) - gap)[live])  # seconds since the case's start
        cases.append(case)
        events.append(event[live])
        flips.append(flip)

    case, event = np.concatenate(cases), np.concatenate(events)
    length = case[:, 0].astype(np.intp)
    start = np.arange(spec.n_cases) * 3600 + case[:, 1]
    seconds = np.repeat(start, length) + np.concatenate(elapsed)
    times = np.datetime64(_BASE_TIME, "us") + seconds.astype(np.int64).astype("timedelta64[s]")
    levels, alphabet = np.array(_CAT_LEVELS, dtype=object), np.array(spec.alphabet(), dtype=object)
    n_scat = len(schema.static_categorical)
    statics = np.empty((spec.n_cases, n_case - 2), dtype=object)
    statics[:, :n_scat] = levels[case[:, 2 : 2 + n_scat].astype(np.intp)]
    statics[:, n_scat:] = case[:, 2 + n_scat :]
    n_dcat, n_dnum = len(schema.dynamic_categorical), len(schema.dynamic_numeric)
    dynamics = dict(zip(schema.dynamic_categorical, levels[event[:, :n_dcat].T.astype(np.intp)]))
    dynamics |= dict(zip(schema.dynamic_numeric, event[:, n_dcat : n_dcat + n_dnum].T.copy()))
    names = schema.static_categorical + schema.static_numeric
    bounds = np.concatenate(([0], np.cumsum(length))).tolist()
    traces = [Trace(f"case_{c:05d}", dict(zip(names, values)), range(bounds[c], bounds[c + 1]))
              for c, values in enumerate(statics.tolist())]
    log = EventLog(tuple(traces), schema, alphabet[event[:, -2].astype(np.intp)], times, dynamics)
    flipped = np.concatenate(flips).tolist()
    labels = [spec.rule.label(log, t) ^ f for t, f in zip(traces, flipped)]
    return replace(log, traces=tuple(Trace(t.case_id, t.statics, t.events, y)
                                     for t, y in zip(traces, labels)))
