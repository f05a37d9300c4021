"""X-MOP model-selection guidelines as a deterministic decision tree.

The questionnaire walks user priorities (explainability, parsimony,
faithfulness, disagreement, data heterogeneity) to one of seven model
labels. Only four labels correspond to built-in learners; the others are
advisory and can be attached through the external-model bridge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

MODEL_LABELS = ("GLRM", "CNN", "LSTM", "XGB", "RF", "LLM", "LR")

QUESTION_ORDER = (
    "explainability_over_performance",
    "parsimony_very_important",
    "irc_unimportant",
    "faithfulness_important",
    "parsimony_unimportant",
    "lod_low_required",
    "data_heterogeneous",
)

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

DISCLAIMER = (
    "These recommendations are indicative model-selection guidance, "
    "not strict rules; validate against your own event log."
)

_IMPLEMENTED = {"LR": "logreg", "LLM": "llm", "RF": "forest"}

# tendency flags per label: parsimony / fc / irc / lod / auc
_PROFILES: Mapping[str, Mapping[str, str]] = {
    "GLRM": {"parsimony": "tends-good", "fc": "tends-good", "irc": "tends-good",
             "lod": "tends-good", "auc": "tends-poor"},
    "CNN": {"parsimony": "tends-good", "fc": "tends-poor", "irc": "tends-poor",
            "lod": "neutral", "auc": "tends-poor"},
    "LSTM": {"parsimony": "tends-good", "fc": "tends-poor", "irc": "neutral",
             "lod": "neutral", "auc": "tends-poor"},
    "XGB": {"parsimony": "neutral", "fc": "tends-good", "irc": "tends-good",
            "lod": "tends-good", "auc": "tends-good"},
    "RF": {"parsimony": "tends-poor", "fc": "neutral", "irc": "tends-poor",
           "lod": "tends-poor", "auc": "tends-good"},
    "LLM": {"parsimony": "neutral", "fc": "tends-good", "irc": "neutral",
            "lod": "tends-poor", "auc": "tends-good"},
    "LR": {"parsimony": "tends-good", "fc": "tends-good", "irc": "tends-poor",
           "lod": "tends-poor", "auc": "tends-good"},
}

_RATIONALE = {
    "GLRM": "Explainability outweighs predictive performance: a generalized "
            "linear rule model tends to be parsimonious and faithful at a "
            "modest accuracy cost.",
    "CNN": "Parsimony matters most and ranking faithfulness (IRC) does not: "
           "a convolutional network avoids the wide aggregation encoding, "
           "and is preferred over an LSTM when IRC is unimportant.",
    "LSTM": "Parsimony matters most: a sequential deep model works on the "
            "raw event sequence and keeps the attribute space small.",
    "XGB": "Faithfulness is a priority: gradient boosting pairs strong "
           "accuracy with comparatively faithful post-hoc weights. Note: a "
           "generalized linear rule model is even more faithful on average "
           "but less accurate.",
    "RF": "Parsimony is unimportant: a random forest uses essentially all "
          "attributes while keeping accuracy high.",
    "LLM": "Heterogeneous data: the logit leaf model segments the cases "
           "with a tree and fits a dedicated logistic model per segment.",
    "LR": "No special requirement fired: plain logistic regression is "
          "accurate and simple on homogeneous data.",
}

# XGB is reachable from two branches; this variant drops the GLRM note.
_RATIONALE_XGB_LOD = (
    "A low level of disagreement (LOD) is required: gradient boosting tends "
    "to keep the top-attribute type mix consistent with permutation "
    "importance."
)


@dataclass(frozen=True)
class Questionnaire:
    explainability_over_performance: bool = False
    parsimony_very_important: bool = False
    irc_unimportant: bool = False
    faithfulness_important: bool = False
    parsimony_unimportant: bool = False
    lod_low_required: bool = False
    data_heterogeneous: bool = False


@dataclass(frozen=True)
class Recommendation:
    model: str
    rationale: str
    metric_profile: Mapping[str, str]

    @property
    def builtin_kind(self) -> str | None:
        return _IMPLEMENTED.get(self.model)


def _walk(answer: Callable[[str], bool]) -> tuple[str, str]:
    """Shared decision path; `answer` is called only on reached questions."""
    if answer("explainability_over_performance"):
        return "GLRM", _RATIONALE["GLRM"]
    if answer("parsimony_very_important"):
        if answer("irc_unimportant"):
            return "CNN", _RATIONALE["CNN"]
        return "LSTM", _RATIONALE["LSTM"]
    if answer("faithfulness_important"):
        return "XGB", _RATIONALE["XGB"]
    if answer("parsimony_unimportant"):
        return "RF", _RATIONALE["RF"]
    if answer("lod_low_required"):
        return "XGB", _RATIONALE_XGB_LOD
    if answer("data_heterogeneous"):
        return "LLM", _RATIONALE["LLM"]
    return "LR", _RATIONALE["LR"]


def _build(label: str, rationale: str) -> Recommendation:
    if label not in _IMPLEMENTED:
        rationale += " (Not built in: attach it through the external-model bridge.)"
    return Recommendation(label, rationale, dict(_PROFILES[label]))


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
