from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import StubPredictor, make_matrix
from xpop.explain import WeightVector, permute_column
from xpop.models import average_ranks, train_forest
from xpop.metrics import (
    functional_complexity,
    irc,
    lod_at_k,
    parsimony,
    spearman,
    top_k_type_counts,
)

TYPES = ["control", "control", "case", "case", "event", "event"]


def _wv(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    if names is None:
        names = tuple(f"x{i}" for i in range(len(values)))
    return WeightVector(values, tuple(names))


def _meta(types):
    return make_matrix(np.zeros((1, len(types))), [0], types=types).columns


# --- parsimony -----------------------------------------------------------------


def test_parsimony_counts_by_type():
    w = _wv([0.2, 0.0, -0.3, 1e-12, 0.0, 5.0])
    p = parsimony(w, _meta(TYPES))
    assert (p.control, p.case, p.event) == (1, 1, 1)
    assert p.total == 3


def test_parsimony_total_is_exact_sum_and_eps_respected():
    rng = np.random.default_rng(0)
    for _ in range(50):
        types = rng.choice(["control", "case", "event"], size=12).tolist()
        values = rng.choice([0.0, 1e-10, 1e-8, -0.5, 2.0], size=12)
        p = parsimony(_wv(values), _meta(types))
        assert p.total == p.control + p.case + p.event
        assert p.total == int(np.sum(np.abs(values) > 1e-9))
    # custom eps
    p = parsimony(_wv([0.05, 0.2, 0.0]), _meta(["control"] * 3), eps=0.1)
    assert p.total == 1


def test_parsimony_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        parsimony(_wv([1.0]), _meta(TYPES))


# --- spearman / IRC --------------------------------------------------------------


def _spearman_oracle(a, b):
    """Independent reference: explicit average ranks + Pearson on ranks."""

    def ranks(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        out = [0.0] * len(v)
        i = 0
        while i < len(v):
            j = i
            while j + 1 < len(v) and v[order[j + 1]] == v[order[i]]:
                j += 1
            for t in range(i, j + 1):
                out[order[t]] = (i + j) / 2 + 1
            i = j + 1
        return out

    ra, rb = ranks(a), ranks(b)
    ma = sum(ra) / len(ra)
    mb = sum(rb) / len(rb)
    num = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    den = math.sqrt(
        sum((x - ma) ** 2 for x in ra) * sum((y - mb) ** 2 for y in rb)
    )
    return num / den


def test_spearman_known_values():
    assert spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
    # classic tied example
    assert spearman([1, 2, 2, 4], [1, 2, 2, 4]) == pytest.approx(1.0)


def test_spearman_matches_oracle_on_random_vectors():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(3, 12))
        a = rng.integers(0, 5, size=n).astype(float)
        b = rng.integers(0, 5, size=n).astype(float)
        if np.all(a == a[0]) or np.all(b == b[0]):
            continue
        assert spearman(a, b) == pytest.approx(_spearman_oracle(a, b), abs=1e-12)


def test_spearman_degenerate_and_shape_errors():
    with pytest.raises(ValueError, match="degenerate ranking"):
        spearman([1, 1, 1], [1, 2, 3])
    with pytest.raises(ValueError, match="degenerate ranking"):
        spearman([1, 2, 3], [4, 4, 4])
    with pytest.raises(ValueError):
        spearman([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        spearman([1], [1])


def test_irc_uses_magnitudes_and_checks_signature():
    a = _wv([1.0, -2.0, 3.0])
    b = _wv([-1.0, 2.0, -3.0])
    assert irc(a, b) == pytest.approx(1.0)
    other = _wv([1.0, 2.0], names=("p", "q"))
    with pytest.raises(ValueError, match="signature"):
        irc(a, other)


def test_irc_invariant_to_positive_scaling():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=8)
        b = rng.normal(size=8)
        base = irc(_wv(a), _wv(b))
        assert irc(_wv(a * 7.5), _wv(b)) == pytest.approx(base, abs=1e-12)
        assert irc(_wv(a), _wv(b * 0.001)) == pytest.approx(base, abs=1e-12)


# --- LOD@k ------------------------------------------------------------------------


def test_lod_paper_style_counts():
    # top-10 mixes (1, 2, 7) vs (2, 2, 6): distance sqrt(2)
    types = ["control"] * 2 + ["case"] * 2 + ["event"] * 8
    meta = _meta(types)
    a = _wv([10, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0.5])
    b = _wv([10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0.5, 0.2])
    assert top_k_type_counts(a, meta, 10) == (1, 2, 7)
    assert top_k_type_counts(b, meta, 10) == (2, 2, 6)
    assert lod_at_k(a, b, meta, 10) == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_top_k_tie_breaks_by_lower_index():
    meta = _meta(["control", "event", "case"])
    counts = top_k_type_counts(_wv([1.0, 1.0, 1.0]), meta, 2)
    # columns 0 (control) and 1 (event) win on index; counts are
    # (control, case, event)
    assert counts == (1, 0, 1)


def test_lod_identical_weights_is_zero():
    meta = _meta(TYPES)
    w = _wv([3, 1, 4, 1, 5, 9])
    assert lod_at_k(w, w, meta, 10) == 0.0


def test_lod_k_larger_than_p_uses_all_columns():
    meta = _meta(["control", "case"])
    counts = top_k_type_counts(_wv([1.0, 2.0]), meta, 10)
    assert counts == (1, 1, 0)


def test_lod_input_validation():
    meta = _meta(TYPES)
    with pytest.raises(ValueError, match="k must be"):
        top_k_type_counts(_wv([1.0] * 6), meta, 0)
    with pytest.raises(ValueError, match="signature"):
        lod_at_k(_wv([1.0] * 6), _wv([1.0] * 2, names=("a", "b")), meta)


# --- functional complexity ----------------------------------------------------------


def _fc_case():
    """Two-valued columns make the excluded draw deterministic: the permuted
    value is always the other one, so flips can be predicted exactly."""
    X = np.array(
        [
            [0.0, 0.0],
            [0.0, 1.0],
            [1.0, 0.0],
            [1.0, 1.0],
        ]
    )
    y = X[:, 0].astype(int)
    return make_matrix(X, y, types=["control", "case"])


def test_fc_lookup_table_exact():
    m = _fc_case()
    # prediction depends only on the control column: permuting it flips
    # every binarized prediction; permuting the case column flips none
    predictor = StubPredictor(lambda row: float(row[0]), m.column_names)
    fc = functional_complexity(predictor, m, seed=0)
    assert fc.control == 1.0
    assert fc.case == 0.0


def test_fc_partial_dependence():
    # score = 0.4·x0 + 0.4·x1: binarized value is the AND of both columns,
    # so flipping x0 changes the output only on rows where x1 == 1
    m = _fc_case()
    predictor = StubPredictor(lambda row: 0.4 * row[0] + 0.4 * row[1], m.column_names)
    assert functional_complexity(predictor, m, seed=3).control == 0.5


def test_fc_seeded_per_type_and_deterministic():
    rng = np.random.default_rng(4)
    X = rng.integers(0, 3, size=(60, 4)).astype(float)
    y = (X[:, 0] > 0).astype(int)
    m = make_matrix(X, y, types=["control", "control", "event", "event"])
    predictor = StubPredictor(
        lambda row: min(1.0, 0.3 * row[0] + 0.2 * row[2]), m.column_names
    )
    a = functional_complexity(predictor, m, seed=11).control
    b = functional_complexity(predictor, m, seed=11).control
    assert a == b
    c = functional_complexity(predictor, m, seed=12).control
    # different seed gives a different permutation (value may or may not
    # coincide, but the draw stream must differ -> check via event type too)
    d = functional_complexity(predictor, m, seed=11).event
    assert 0.0 <= c <= 1.0 and 0.0 <= d <= 1.0


def test_fc_missing_type_reads_nan():
    m = _fc_case()  # control + case only
    predictor = StubPredictor(lambda row: float(row[0]), m.column_names)
    fc = functional_complexity(predictor, m, seed=0)
    assert (fc.control, fc.case) == (1.0, 0.0)
    assert math.isnan(fc.event)
    assert fc.total == 0.5  # mean over the two present types
    other = StubPredictor(lambda row: 0.0, ("x0", "other"))
    with pytest.raises(ValueError, match="column signature mismatch"):
        functional_complexity(other, m, seed=0)


def test_fc_does_not_mutate_matrix():
    m = _fc_case()
    before = np.asarray(m.rows).copy()
    predictor = StubPredictor(lambda row: float(row[0]), m.column_names)
    functional_complexity(predictor, m, seed=0)
    assert np.array_equal(np.asarray(m.rows), before)


def _fc_reference(predictor, m, attribute_type, seed):
    """Functional complexity with its own predict calls on an unbatched copy."""
    ordinal = {"control": 0, "case": 1, "event": 2}[attribute_type]
    rng = np.random.default_rng(seed + ordinal)
    rows = m.rows.copy()
    for i in m.columns_of_type(attribute_type):
        rows[:, i] = permute_column(m.rows[:, i], np.unique(m.rows[:, i]), rng)
    original = predictor.predict(m)
    permuted = predictor.predict(dataclasses.replace(m, rows=rows))
    return float(((original >= 0.5) != (permuted >= 0.5)).mean())


def _typed_matrix(n, p, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, p)) / 3.0
    y = (X[:, 0] + 0.5 * X[:, -1] + 0.3 * rng.normal(size=n) > 0.8).astype(int)
    types = [("control", "case", "event")[i % 3] for i in range(p)]
    return make_matrix(X, y, types=types)


@pytest.mark.parametrize("shape", [(60, 6), (400, 90)], ids=["small", "wide"])
def test_fc_equals_unbatched_reference(shape):
    m = _typed_matrix(*shape, seed=shape[1])
    w = np.linspace(-1.0, 1.0, m.n_columns)
    stub = StubPredictor(lambda row: 1.0 / (1.0 + math.exp(-float(row @ w))), m.column_names)
    forest = train_forest(m, {"n_trees": 5, "max_depth": 4}, seed=3)
    rows = m.rows.copy()
    for predictor in (stub, forest):
        base = predictor.predict(m)
        fc = functional_complexity(predictor, m, seed=29)
        shared = functional_complexity(predictor, m, seed=29, base_scores=base)
        expected = [_fc_reference(predictor, m, t, seed=29) for t in ("control", "case", "event")]
        assert [fc.control, fc.case, fc.event] == expected
        assert fc.total == float(np.mean(expected))
        assert fc == shared
    assert np.array_equal(m.rows, rows)


# --- average ranks --------------------------------------------------------------


_tied_values = st.lists(
    st.one_of(
        st.integers(-3, 3).map(float),
        st.sampled_from([-0.0, 0.5, 5e-324]),
        st.floats(allow_nan=False, width=64),
    ),
    max_size=40,
)


@given(_tied_values)
def test_average_ranks_match_counting_definition(values):
    v = np.array(values, dtype=np.float64)
    expected = [
        float((v < x).sum()) + (float((v == x).sum()) + 1.0) / 2.0 for x in v
    ]
    assert average_ranks(v).tolist() == expected
