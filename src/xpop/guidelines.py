"""X-MOP model-selection guidelines as a deterministic decision tree.

The questionnaire walks user priorities (explainability, parsimony,
faithfulness, disagreement, data heterogeneity) to one of seven model
labels. Three labels name a built-in learner (their ``builtin_kind`` in
``LABELS``); the others are advisory and can be attached through the
external-model bridge.
"""

from __future__ import annotations

from dataclasses import dataclass, make_dataclass
from typing import Callable, Mapping, NamedTuple

# question -> its text, in the order the guide asks: the one list of the questions
QUESTION_TEXT = {
    "explainability_over_performance": (
        "Is explainability a lot more important than predictive performance?"
    ),
    "parsimony_very_important": "Is parsimony very important?",
    "irc_unimportant": "Is the IRC metric unimportant?",
    "faithfulness_important": "Is faithfulness important?",
    "parsimony_unimportant": "Is parsimony unimportant?",
    "lod_low_required": "Is a low LOD value required?",
    "data_heterogeneous": "Is the data heterogeneous?",
}
QUESTION_ORDER = tuple(QUESTION_TEXT)

DISCLAIMER = (
    "These recommendations are indicative model-selection guidance, "
    "not strict rules; validate against your own event log."
)

PROFILE_METRICS = ("parsimony", "fc", "irc", "lod", "auc")


class Label(NamedTuple):
    builtin_kind: str | None  # a harness model kind, or None: attach it through the bridge
    profile: tuple[str, ...]  # the tendency flag per metric of PROFILE_METRICS
    rationale: str


_GOOD, _POOR, _NEUTRAL = "tends-good", "tends-poor", "neutral"
# label -> its entry, in the guide's order: the one list of the labels
LABELS = {
    "GLRM": Label(None, (_GOOD, _GOOD, _GOOD, _GOOD, _POOR),
                  "Explainability outweighs predictive performance: a generalized "
                  "linear rule model tends to be parsimonious and faithful at a "
                  "modest accuracy cost."),
    "CNN": Label(None, (_GOOD, _POOR, _POOR, _NEUTRAL, _POOR),
                 "Parsimony matters most and ranking faithfulness (IRC) does not: "
                 "a convolutional network avoids the wide aggregation encoding, "
                 "and is preferred over an LSTM when IRC is unimportant."),
    "LSTM": Label(None, (_GOOD, _POOR, _NEUTRAL, _NEUTRAL, _POOR),
                  "Parsimony matters most: a sequential deep model works on the "
                  "raw event sequence and keeps the attribute space small."),
    "XGB": Label(None, (_NEUTRAL, _GOOD, _GOOD, _GOOD, _GOOD),
                 "Faithfulness is a priority: gradient boosting pairs strong "
                 "accuracy with comparatively faithful post-hoc weights. Note: a "
                 "generalized linear rule model is even more faithful on average "
                 "but less accurate."),
    "RF": Label("forest", (_POOR, _NEUTRAL, _POOR, _POOR, _GOOD),
                "Parsimony is unimportant: a random forest uses essentially all "
                "attributes while keeping accuracy high."),
    "LLM": Label("llm", (_NEUTRAL, _GOOD, _NEUTRAL, _POOR, _GOOD),
                 "Heterogeneous data: the logit leaf model segments the cases "
                 "with a tree and fits a dedicated logistic model per segment."),
    "LR": Label("logreg", (_GOOD, _GOOD, _POOR, _POOR, _GOOD),
                "No special requirement fired: plain logistic regression is "
                "accurate and simple on homogeneous data."),
}
MODEL_LABELS = tuple(LABELS)

# XGB is reachable from two branches; this variant drops the GLRM note.
_RATIONALE_XGB_LOD = (
    "A low level of disagreement (LOD) is required: gradient boosting tends "
    "to keep the top-attribute type mix consistent with permutation "
    "importance."
)

Questionnaire = make_dataclass(
    "Questionnaire", [(q, bool, False) for q in QUESTION_TEXT], frozen=True,
    namespace={"__module__": __name__},
)


@dataclass(frozen=True)
class Recommendation:
    model: str
    rationale: str
    metric_profile: Mapping[str, str]

    @property
    def builtin_kind(self) -> str | None:
        return LABELS[self.model].builtin_kind


def _walk(answer: Callable[[str], bool]) -> tuple[str, str]:
    """Shared decision path; `answer` is called only on reached questions."""
    if answer("explainability_over_performance"):
        label = "GLRM"
    elif answer("parsimony_very_important"):
        label = "CNN" if answer("irc_unimportant") else "LSTM"
    elif answer("faithfulness_important"):
        label = "XGB"
    elif answer("parsimony_unimportant"):
        label = "RF"
    elif answer("lod_low_required"):
        return "XGB", _RATIONALE_XGB_LOD
    elif answer("data_heterogeneous"):
        label = "LLM"
    else:
        label = "LR"
    return label, LABELS[label].rationale


def _build(label: str, rationale: str) -> Recommendation:
    entry = LABELS[label]
    if entry.builtin_kind is None:
        rationale += " (Not built in: attach it through the external-model bridge.)"
    return Recommendation(label, rationale, dict(zip(PROFILE_METRICS, entry.profile)))


def recommend(q: Questionnaire) -> Recommendation:
    label, rationale = _walk(lambda field: getattr(q, field))
    return _build(label, rationale)


def interactive_guide(read=None, write=print) -> Recommendation:
    """Ask only the questions on the active path, in order; invalid input
    re-prompts. Prints the recommendation with its rationale."""
    if read is None:
        read = input

    def ask(field: str) -> bool:
        prompt = f"{QUESTION_TEXT[field]} [y/n] "
        while True:
            raw = read(prompt)
            value = raw.strip().lower()
            if value in ("y", "yes"):
                return True
            if value in ("n", "no"):
                return False
            write("Please answer 'y' or 'n'.")

    label, rationale = _walk(ask)
    rec = _build(label, rationale)
    write(f"Recommended model: {rec.model}")
    write(rec.rationale)
    for metric, flag in rec.metric_profile.items():
        write(f"  {metric}: {flag}")
    write(DISCLAIMER)
    return rec
