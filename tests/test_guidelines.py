from __future__ import annotations

import itertools

import pytest

from xpop.guidelines import (
    DISCLAIMER,
    MODEL_LABELS,
    QUESTION_ORDER,
    QUESTION_TEXT,
    Questionnaire,
    interactive_guide,
    recommend,
)


def _q(**answers) -> Questionnaire:
    return Questionnaire(**answers)


# --- decision path ---------------------------------------------------------------


@pytest.mark.parametrize(
    "answers,label",
    [
        ({"explainability_over_performance": True}, "GLRM"),
        ({"parsimony_very_important": True, "irc_unimportant": True}, "CNN"),
        ({"parsimony_very_important": True}, "LSTM"),
        ({"faithfulness_important": True}, "XGB"),
        ({"parsimony_unimportant": True}, "RF"),
        ({"lod_low_required": True}, "XGB"),
        ({"data_heterogeneous": True}, "LLM"),
        ({}, "LR"),
    ],
)
def test_each_branch(answers, label):
    assert recommend(_q(**answers)).model == label


def test_question_precedence():
    # earlier questions dominate later ones
    rec = recommend(
        _q(explainability_over_performance=True, parsimony_unimportant=True,
           data_heterogeneous=True)
    )
    assert rec.model == "GLRM"
    rec = recommend(_q(faithfulness_important=True, parsimony_unimportant=True))
    assert rec.model == "XGB"
    rec = recommend(_q(parsimony_unimportant=True, lod_low_required=True))
    assert rec.model == "RF"


def test_all_128_answer_vectors_give_valid_labels():
    seen = set()
    for bits in itertools.product([False, True], repeat=len(QUESTION_ORDER)):
        q = _q(**dict(zip(QUESTION_ORDER, bits)))
        rec = recommend(q)
        assert rec.model in MODEL_LABELS
        assert rec.rationale
        assert set(rec.metric_profile) == {"parsimony", "fc", "irc", "lod", "auc"}
        seen.add(rec.model)
    assert seen == set(MODEL_LABELS)


def test_implemented_flags_and_builtin_kinds():
    assert recommend(_q()).builtin_kind == "logreg"
    assert recommend(_q(data_heterogeneous=True)).builtin_kind == "llm"
    assert recommend(_q(parsimony_unimportant=True)).builtin_kind == "forest"
    glrm = recommend(_q(explainability_over_performance=True))
    assert glrm.builtin_kind is None
    assert "bridge" in glrm.rationale


def test_two_xgb_branches_have_distinct_rationales():
    faithful = recommend(_q(faithfulness_important=True))
    lod = recommend(_q(lod_low_required=True))
    assert faithful.model == lod.model == "XGB"
    assert faithful.rationale != lod.rationale


# --- interactive mode ---------------------------------------------------------------


class _Console:
    def __init__(self, answers):
        self._answers = list(answers)
        self.prompts = []
        self.out = []

    def read(self, prompt):
        self.prompts.append(prompt)
        return self._answers.pop(0)

    def write(self, text):
        self.out.append(str(text))


def test_interactive_matches_batch_on_every_path():
    # answer by question text, since only reached questions are asked
    for bits in itertools.product([False, True], repeat=len(QUESTION_ORDER)):
        answers = dict(zip(QUESTION_ORDER, bits))
        by_text = {QUESTION_TEXT[f]: b for f, b in answers.items()}

        def read(prompt):
            for text, value in by_text.items():
                if text in prompt:
                    return "y" if value else "n"
            raise AssertionError(f"unexpected prompt: {prompt}")

        rec = interactive_guide(read=read, write=lambda *_: None)
        assert rec == recommend(_q(**answers))


def test_interactive_asks_only_reached_questions():
    console = _Console(["y"])
    interactive_guide(read=console.read, write=console.write)
    assert len(console.prompts) == 1
    assert QUESTION_TEXT["explainability_over_performance"] in console.prompts[0]


def test_interactive_reprompts_on_invalid_and_accepts_variants():
    console = _Console(["maybe", "", "YES", "No"])
    rec = interactive_guide(read=console.read, write=console.write)
    # YES -> explainability branch after two re-prompts... first question
    # consumed 'maybe' and '' invalid, then 'YES' -> GLRM
    assert rec.model == "GLRM"
    assert any("'y' or 'n'" in line for line in console.out)


def test_interactive_prints_profile_and_disclaimer():
    console = _Console(["n", "n", "n", "n", "n", "n"])
    rec = interactive_guide(read=console.read, write=console.write)
    assert rec.model == "LR"
    assert any("Recommended model: LR" in line for line in console.out)
    assert any("parsimony:" in line for line in console.out)
    assert DISCLAIMER in console.out
