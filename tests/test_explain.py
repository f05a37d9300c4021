from __future__ import annotations

import csv
import dataclasses
import errno
import io
import math
import os
import pathlib
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timedelta
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import StubPredictor, bridge_config, make_matrix, oracle_examples
from xpop.eventlog import AttributeSchema, EventLog, Trace
from xpop.explain import (
    WeightVector,
    coefficient_weights,
    impurity_weights,
    load_external_weights,
    permutation_importance,
    permute_column,
    pi_copies,
)
from xpop import harness, models
from xpop.harness import BenchmarkConfig, ModelSpec, prepare_matrices, run_benchmark
from xpop.metrics import fc_copies, functional_complexity
from xpop.models import (
    export_model,
    external_model,
    external_predict,
    read_columns,
    score_copies,
    train_forest,
    train_llm,
    train_logreg,
    train_tree,
)
from xpop.preprocess import (
    TYPES, EncodedMatrix, aggregate_encode, extract_prefixes, fit_vocabulary,
)
from xpop.seeds import derive_seed
from xpop.synth import CaseThreshold, SynthSpec

# --- excluded-value permutation ----------------------------------------------


def test_permute_column_never_keeps_the_current_value():
    rng = np.random.default_rng(0)
    distinct = np.array([1.0, 2.0, 5.0, 9.0])
    values = distinct[rng.integers(0, 4, size=500)]
    permuted = permute_column(values, distinct, rng)
    assert not np.any(permuted == values)
    assert set(permuted) <= set(distinct)


def test_permute_column_is_uniform_over_alternatives():
    rng = np.random.default_rng(1)
    values = np.zeros(30000)
    permuted = permute_column(values, np.array([0.0, 1.0, 2.0, 3.0]), rng)
    counts = np.array([(permuted == v).sum() for v in (1.0, 2.0, 3.0)])
    assert counts.sum() == 30000
    # each alternative near 1/3; generous 5-sigma band
    assert np.all(np.abs(counts - 10000) < 5 * np.sqrt(10000 * 2 / 3))


def test_permute_column_single_distinct_unchanged():
    rng = np.random.default_rng(2)
    values = np.full(10, 7.0)
    out = permute_column(values, np.array([7.0]), rng)
    assert np.array_equal(out, values)
    assert out is not values


# --- permutation importance -----------------------------------------------------


def _lookup_case():
    """Column 0 drives the score; columns 1 and 2 are decoys."""
    rng = np.random.default_rng(3)
    X = np.column_stack(
        [
            rng.integers(0, 3, size=40) / 2.0,   # values {0, 0.5, 1}
            rng.integers(0, 4, size=40) / 3.0,
            rng.integers(0, 2, size=40).astype(float),
        ]
    )
    y = (X[:, 0] > 0.4).astype(int)
    m = make_matrix(X, y)
    predictor = StubPredictor(lambda row: float(row[0]), m.column_names)
    return m, predictor, y


def test_pi_decoy_columns_are_exactly_zero():
    m, predictor, y = _lookup_case()
    wv = permutation_importance(predictor, m, seed=10)
    assert wv.weights[1] == 0.0
    assert wv.weights[2] == 0.0
    assert wv.weights[0] > 0.0


def test_pi_signal_column_matches_enumerated_expectation():
    m, predictor, y = _lookup_case()
    X = np.asarray(m.rows)
    distinct = np.unique(X[:, 0])
    base_sq = (y - X[:, 0]) ** 2
    # exact per-row expectation of the squared error after an excluded draw
    exp_sq = np.array(
        [
            np.mean([(y[j] - alt) ** 2 for alt in distinct if alt != X[j, 0]])
            for j in range(len(y))
        ]
    )
    expected = float(np.mean(exp_sq) - np.mean(base_sq))
    per_row_var = np.array(
        [
            np.var([(y[j] - alt) ** 2 for alt in distinct if alt != X[j, 0]])
            for j in range(len(y))
        ]
    )
    repeats = 800
    sigma = float(np.sqrt(per_row_var.sum() / len(y) ** 2 / repeats))
    wv = permutation_importance(predictor, m, seed=99, repeats=repeats)
    assert abs(wv.weights[0] - expected) < 4 * sigma


def test_pi_deterministic_for_fixed_seed_and_column_seed_independence():
    m, predictor, y = _lookup_case()
    a = permutation_importance(predictor, m, seed=5, repeats=3)
    b = permutation_importance(predictor, m, seed=5, repeats=3)
    assert np.array_equal(a.weights, b.weights)
    c = permutation_importance(predictor, m, seed=6, repeats=3)
    assert not np.array_equal(a.weights, c.weights)


def test_pi_single_distinct_column_gets_zero():
    X = np.column_stack([np.ones(20), np.arange(20.0)])
    y = (X[:, 1] > 10).astype(int)
    m = make_matrix(X, y)
    predictor = StubPredictor(lambda row: float(row[1] > 10), m.column_names)
    wv = permutation_importance(predictor, m, seed=0)
    assert wv.weights[0] == 0.0
    assert wv.weights[1] > 0.0


def test_pi_input_matrix_is_not_mutated():
    m, predictor, y = _lookup_case()
    before = np.asarray(m.rows).copy()
    permutation_importance(predictor, m, seed=1, repeats=2)
    assert np.array_equal(np.asarray(m.rows), before)


def test_pi_rejects_bad_arguments():
    m, predictor, y = _lookup_case()
    with pytest.raises(ValueError, match="repeats"):
        permutation_importance(predictor, m, seed=0, repeats=0)
    with pytest.raises(ValueError, match="single class"):
        permutation_importance(predictor, make_matrix(m.rows, np.zeros(m.n_rows)), seed=0)
    stranger = StubPredictor(lambda row: 0.5, ("other",))
    with pytest.raises(ValueError, match="signature"):
        permutation_importance(stranger, m, seed=0)


# --- perturbation engine ----------------------------------------------------------


def _tie_heavy_matrix(n, p, seed):
    """Small-integer columns (many ties), labels driven by the first two."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, p)) / 3.0
    y = (X[:, 0] + 0.5 * X[:, 1] + 0.3 * rng.normal(size=n) > 0.8).astype(int)
    return make_matrix(X, y)


SMALL = _tie_heavy_matrix(60, 6, seed=21)
WIDE = _tie_heavy_matrix(400, 90, seed=22)


def _stub(m):
    w = np.linspace(-1.0, 1.0, m.n_columns)
    return StubPredictor(lambda row: 1.0 / (1.0 + math.exp(-float(row @ w))), m.column_names)


def test_pi_and_fc_take_each_column_domain_from_the_matrix(monkeypatch):
    # np.unique runs over each column once per matrix, in EncodedMatrix.distinct
    m = make_matrix(SMALL.rows.copy(), SMALL.labels.copy())
    over_rows = []

    def counted(values, *args, _unique=np.unique, **kwargs):
        if np.shares_memory(values, m.rows):
            over_rows.append(values)
        return _unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    permutation_importance(_stub(m), m, seed=1, repeats=2)
    functional_complexity(_stub(m), m, seed=2)
    assert len(over_rows) == m.n_columns


def _forest(m):
    return train_forest(m, {"n_trees": 5, "max_depth": 4}, seed=3)


def _pi_reference(predictor, m, y, seed, repeats):
    """Permutation importance as a per-column loop, one predict per copy."""
    y = np.asarray(y, dtype=np.float64)
    base = float(np.mean((y - predictor.predict(m)) ** 2))
    weights = np.zeros(m.n_columns)
    for i in range(m.n_columns):
        distinct = np.unique(m.rows[:, i])
        if len(distinct) < 2:
            continue
        rng = np.random.default_rng(seed + i)
        total = 0.0
        for _ in range(repeats):
            rows = m.rows.copy()
            rows[:, i] = permute_column(m.rows[:, i], distinct, rng)
            permuted = predictor.predict(dataclasses.replace(m, rows=rows))
            total += float(np.mean((y - permuted) ** 2)) - base
        weights[i] = total / repeats
    return weights


@pytest.mark.parametrize("m", [SMALL, WIDE], ids=["small", "wide"])
@pytest.mark.parametrize("make", [_stub, _forest], ids=["stub", "forest"])
def test_batched_pi_equals_per_column_loop(m, make):
    predictor = make(m)
    rows, labels = m.rows.copy(), m.labels.copy()
    expected = _pi_reference(predictor, m, m.labels, seed=17, repeats=3)
    wv = permutation_importance(predictor, m, seed=17, repeats=3)
    assert wv.weights.tobytes() == expected.tobytes()
    shared = permutation_importance(
        predictor, m, seed=17, repeats=3, base_scores=predictor.predict(m)
    )
    assert shared.weights.tobytes() == expected.tobytes()
    assert np.array_equal(m.rows, rows) and np.array_equal(m.labels, labels)


class CountingPredictor:
    """Scores row sums modulo 1 and records the row count of every call."""

    def __init__(self, columns):
        self.columns = tuple(columns)
        self.calls = []

    def predict(self, m):
        self.calls.append(m.n_rows)
        return m.rows.sum(axis=1) % 1.0


def _copy(m, copy):
    """``m`` with the columns of ``copy`` replaced, built on its own."""
    rows = m.rows.copy()
    for column, values in copy.items():
        rows[:, column] = values
    return EncodedMatrix(m.columns, rows, m.labels)


@pytest.mark.parametrize("m", [SMALL, WIDE], ids=["small", "wide"])
def test_engine_makes_one_predict_per_copy(m):
    for n_copies in (0, 1, 2, 13):
        predictor = CountingPredictor(m.column_names)
        copies = [{0: np.full(m.n_rows, c / 7.0)} for c in range(n_copies)]
        scores = list(score_copies(predictor, m, iter(copies)))
        assert predictor.calls == [m.n_rows] * n_copies
        assert len(scores) == n_copies
        for copy, got in zip(copies, scores):
            assert got.tobytes() == predictor.predict(_copy(m, copy)).tobytes()


def test_pi_with_base_scores_calls_once_per_chunk():
    # a chunk is one copy: with base_scores given, PI predicts each of its
    # copies once, on n_rows rows, and never the unperturbed matrix
    for m in (SMALL, WIDE):
        predictor = CountingPredictor(m.column_names)
        permutation_importance(
            predictor, m, seed=0, repeats=3, base_scores=np.full(m.n_rows, 0.5)
        )
        varying = sum(len(np.unique(m.rows[:, i])) >= 2 for i in range(m.n_columns))
        assert predictor.calls == [m.n_rows] * (varying * 3)


class ShortPredictor(CountingPredictor):
    def predict(self, m):
        return np.zeros(3)


def test_engine_rejects_wrong_score_count_and_bad_base():
    m = SMALL
    with pytest.raises(ValueError, match="scores for"):
        list(score_copies(ShortPredictor(m.column_names), m, [{}]))
    with pytest.raises(ValueError, match="base_scores"):
        permutation_importance(_stub(m), m, seed=0, base_scores=np.zeros(2))


class ShortBasePredictor(CountingPredictor):
    """One score for the matrix it was made with; one per row for any copy."""

    def __init__(self, m):
        super().__init__(m.column_names)
        self.base = m

    def predict(self, m):
        return np.zeros(1) if m is self.base else super().predict(m)


def test_pi_and_fc_check_the_base_scores_they_predict():
    # the unperturbed scores pass the check every copy's scores pass, rather
    # than being broadcast over the rows
    X = _tie_heavy_matrix(20, 3, seed=23)
    m = make_matrix(X.rows, X.labels, types=["control", "case", "event"])
    message = r"^predictor returned \(1,\) scores for 20 rows$"
    with pytest.raises(ValueError, match=message):
        permutation_importance(ShortBasePredictor(m), m, seed=0)
    with pytest.raises(ValueError, match=message):
        functional_complexity(ShortBasePredictor(m), m, seed=0)


def test_bridge_cell_launches_two_processes(tmp_path):
    launches = tmp_path / "launches.txt"
    cfg = bridge_config(tmp_path, launch_log=launches)
    cfg = dataclasses.replace(cfg, models=cfg.models[:1], pi_repeats=2)
    (report,) = run_benchmark(cfg)
    assert report.excluded_reason == "" and report.fc is not None
    # one launch for the test scores (AUC; PI and FC reuse them), one for
    # every PI copy and every FC copy
    assert len(launches.read_text(encoding="utf-8").splitlines()) == 2


# Runs the command in argv[5:], saving each launch's stdin as
# <argv[1]>/<role>.csv, where the role is 1 for the test launch, which sends
# argv[2] rows, and 2 for the copies launch, which sends more. The launch of
# role argv[3] misbehaves instead: with argv[4] "exit" it exits 1, with
# "short" it prints one line. Launches may overlap, so the role is read from
# the rows sent, not from the launches seen so far.
RECORDING_WRAPPER = """\
import pathlib
import subprocess
import sys

out, test_rows = pathlib.Path(sys.argv[1]), int(sys.argv[2])
bad, how = int(sys.argv[3]), sys.argv[4]
data = sys.stdin.buffer.read()
n = 1 if data.count(b"\\n") - 1 == test_rows else 2
(out / f"{n}.csv").write_bytes(data)
if n == bad and how == "exit":
    sys.stderr.write("refused launch 2\\n")
    sys.exit(1)
if n == bad and how == "short":
    print(0.5)
    sys.exit(0)
proc = subprocess.run(sys.argv[5:], input=data, capture_output=True)
sys.stdout.buffer.write(proc.stdout)
sys.stderr.buffer.write(proc.stderr)
sys.exit(proc.returncode)
"""


def _unlabelled_csv(m: EncodedMatrix) -> list[str]:
    """The lines of ``m.export_csv()`` without the label column: the bridge's
    header, then the rows it sends for ``m``."""
    return [line.rsplit(",", 1)[0] + "\n" for line in m.export_csv().splitlines()]


def _recorded_bridge(tmp_path, bad=0, how="exit", pi_repeats=2):
    """The bridge config's ``ext`` cell alone, its command wrapped so that
    each launch's stdin is saved under ``tmp_path/stdin``."""
    cfg = bridge_config(tmp_path)
    ext = cfg.models[0]
    script = tmp_path / "wrapper.py"
    script.write_text(RECORDING_WRAPPER, encoding="utf-8")
    saved = tmp_path / "stdin"
    saved.mkdir()
    _, test_m = prepare_matrices(cfg)
    command = shlex.join(
        [sys.executable, str(script), str(saved), str(test_m.n_rows), str(bad), how])
    ext = dataclasses.replace(ext, command=f"{command} {ext.command}")
    return dataclasses.replace(cfg, models=(ext,), pi_repeats=pi_repeats), saved


def test_bridge_cell_second_launch_sends_pi_rows_then_one_fc_copy_per_type(tmp_path):
    cfg, saved = _recorded_bridge(tmp_path)
    (report,) = run_benchmark(cfg)
    assert report.excluded_reason == ""
    assert sorted(p.name for p in saved.iterdir()) == ["1.csv", "2.csv"]
    _, m = prepare_matrices(cfg)
    assert (saved / "1.csv").read_bytes() == "".join(_unlabelled_csv(m)).encode("utf-8")
    model_seed = derive_seed(cfg.seed, 0)
    pi_seed, fc_seed = derive_seed(model_seed, 1), derive_seed(model_seed, 2)
    blocks = []
    for i in range(m.n_columns):  # PI: (column, repeat) order
        distinct = np.unique(m.rows[:, i])
        if len(distinct) < 2:
            continue
        rng = np.random.default_rng(pi_seed + i)
        for _ in range(cfg.pi_repeats):
            rows = m.rows.copy()
            rows[:, i] = permute_column(m.rows[:, i], distinct, rng)
            blocks.append(rows)
    for ordinal, attribute_type in enumerate(("control", "case", "event")):  # FC
        columns = m.columns_of_type(attribute_type)
        assert columns  # the bridge log has every type
        rng = np.random.default_rng(fc_seed + ordinal)
        rows = m.rows.copy()
        for i in columns:
            rows[:, i] = permute_column(m.rows[:, i], np.unique(m.rows[:, i]), rng)
        blocks.append(rows)
    stacked = EncodedMatrix(m.columns, np.vstack(blocks), np.tile(m.labels, len(blocks)))
    assert (saved / "2.csv").read_bytes() == "".join(_unlabelled_csv(stacked)).encode()


def test_joint_stream_gives_the_weights_and_fc_of_separate_calls(tmp_path, monkeypatch):
    # every cell of the bridge config (external and in process), and a forest
    cfg = bridge_config(tmp_path)
    cfg = dataclasses.replace(cfg, pi_repeats=2, models=(
        *cfg.models, ModelSpec("rf", "forest", {"n_trees": 5})))
    calls = {}
    for name in ("permutation_importance", "functional_complexity"):
        def recorded(*args, _name=name, _fn=getattr(harness, name), **kwargs):
            result = _fn(*args, **kwargs)
            calls.setdefault(_name, []).append((args, kwargs, result))
            return result

        monkeypatch.setattr(harness, name, recorded)
    reports = run_benchmark(cfg)
    assert [r.excluded_reason for r in reports] == ["", "", ""]
    for args, kwargs, w_pi in calls["permutation_importance"]:
        assert "scores" in kwargs
        del kwargs["scores"]
        alone = permutation_importance(*args, **kwargs)
        assert w_pi.weights.tobytes() == alone.weights.tobytes()
        assert w_pi.columns == alone.columns
    for args, kwargs, fc in calls["functional_complexity"]:
        assert "scores" in kwargs
        del kwargs["scores"]
        alone = functional_complexity(*args, **kwargs)
        assert np.array([*dataclasses.astuple(fc)]).tobytes() == \
            np.array([*dataclasses.astuple(alone)]).tobytes()
    assert len(calls["permutation_importance"]) == len(calls["functional_complexity"]) == 3


def test_bridge_cell_failing_second_launch_keeps_the_auc(tmp_path):
    cfg, saved = _recorded_bridge(tmp_path, bad=2, how="exit")
    # the in-process twin of the exported logreg has the same AUC
    cfg = dataclasses.replace(cfg, models=(*cfg.models, ModelSpec("lr", "logreg")))
    report, twin = run_benchmark(cfg)
    assert report.auc is not None and report.auc == twin.auc
    assert report.excluded_reason == "error: external command exited with 1: refused launch 2"
    assert report.fc is None and report.irc is None
    assert len(list(saved.iterdir())) == 2


def test_bridge_cell_line_count_error_names_the_joint_row_count(tmp_path):
    cfg, _ = _recorded_bridge(tmp_path, bad=2, how="short")
    (report,) = run_benchmark(cfg)
    _, m = prepare_matrices(cfg)
    varying = sum(len(np.unique(m.rows[:, i])) >= 2 for i in range(m.n_columns))
    copies = varying * cfg.pi_repeats + 3  # PI copies, then one FC copy per type
    assert report.auc is not None
    assert report.excluded_reason == (
        f"error: line count mismatch: expected {copies * m.n_rows}, got 1")


# Runs the command in argv[5:] on its stdin, noting "<role> start <time>" and
# "<role> end <time>" lines in argv[1] around it, where the role is "test"
# for a launch that sends argv[2] rows and "copies" for one that sends more.
# A copies launch first sleeps argv[3] seconds, a test launch argv[4].
TIMED_WRAPPER = """\
import subprocess
import sys
import time

log, test_rows = sys.argv[1], int(sys.argv[2])
data = sys.stdin.buffer.read()
role = "test" if data.count(b"\\n") - 1 == test_rows else "copies"
pause = float(sys.argv[3] if role == "copies" else sys.argv[4])


def note(event):
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"{role} {event} {time.time()!r}\\n")


note("start")
time.sleep(pause)
proc = subprocess.run(sys.argv[5:], input=data, capture_output=True)
sys.stdout.buffer.write(proc.stdout)
note("end")
sys.exit(proc.returncode)
"""

# Scores every row 0.5: at once for a launch that sends argv[1] rows (a test
# launch), after sleeping argv[2] seconds for one that sends more (copies).
SLEEPY_CONSTANT_SCORER = """\
import sys
import time

rows = sys.stdin.buffer.read().count(b"\\n") - 1
if rows > int(sys.argv[1]):
    time.sleep(float(sys.argv[2]))
sys.stdout.write("0.5\\n" * rows)
"""


def _timed_bridge(tmp_path, names=("ext",), pauses=(0.3, 0.3)):
    """The bridge config with its ``ext`` cell under each of ``names``, then
    ``lr``, every launch run through ``TIMED_WRAPPER`` with the copies and
    test ``pauses``; and its log."""
    cfg = bridge_config(tmp_path)
    ext, lr = cfg.models
    script = tmp_path / "timed.py"
    script.write_text(TIMED_WRAPPER, encoding="utf-8")
    log = tmp_path / "launches.log"
    _, test_m = prepare_matrices(cfg)
    wrapper = shlex.join([sys.executable, str(script), str(log), str(test_m.n_rows),
                          *map(str, pauses)])
    cells = [dataclasses.replace(ext, name=name, command=f"{wrapper} {ext.command}")
             for name in names]
    return dataclasses.replace(cfg, models=(*cells, lr)), log


def _notes(log) -> list[tuple[str, str, float]]:
    """(role, event, time) of each line a ``TIMED_WRAPPER`` launch noted."""
    lines = log.read_text(encoding="utf-8").splitlines()
    return [(role, event, float(at)) for role, event, at in map(str.split, lines)]


@pytest.fixture
def started(monkeypatch):
    """The processes the bridge starts, in start order, and how many of
    them had not exited just after each start."""
    procs, alive = [], []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)
            alive.append(sum(proc.poll() is None for proc in procs))

    monkeypatch.setattr(models.subprocess, "Popen", Recorded)
    return procs, alive


def test_bridge_cell_starts_its_copies_launch_before_its_test_launch_ends(tmp_path):
    cfg, log = _timed_bridge(tmp_path)
    report, _ = run_benchmark(cfg)
    assert report.excluded_reason == ""
    at = {(role, event): t for role, event, t in _notes(log)}
    assert len(at) == 4
    assert at["copies", "start"] < at["test", "end"]


def test_two_bridge_cells_run_at_most_two_launches_at_once(tmp_path, started):
    procs, alive = started
    # the first copies launch outlasts both test launches, so the second
    # cell's copies launch starts only when its copies are read
    cfg, log = _timed_bridge(tmp_path, names=("ext", "ext2"), pauses=(0.6, 0.1))
    assert [r.excluded_reason for r in run_benchmark(cfg)] == ["", "", ""]
    assert len(procs) == 4 and max(alive) == 2
    notes = sorted((t, role, event) for role, event, t in _notes(log))
    copies = [event for _, role, event in notes if role == "copies"]
    assert copies == ["start", "end", "start", "end"]
    # the second test launch did not wait for the first copies launch
    second_test_start = [t for t, role, event in notes if (role, event) == ("test", "start")][1]
    first_copies_end = next(t for t, role, event in notes if (role, event) == ("copies", "end"))
    assert second_test_start < first_copies_end


def _sleepy_bridge(tmp_path, names=("ext",)):
    """The bridge config's ``ext`` cell under each of ``names`` alone, scored
    0.5 for every row (so the log reads "avg AUC below 75"), each copies
    launch sleeping 20 s."""
    cfg = bridge_config(tmp_path)
    script = tmp_path / "sleepy.py"
    script.write_text(SLEEPY_CONSTANT_SCORER, encoding="utf-8")
    _, test_m = prepare_matrices(cfg)
    command = shlex.join([sys.executable, str(script), str(test_m.n_rows), "20"])
    cells = [dataclasses.replace(cfg.models[0], name=name, command=command) for name in names]
    return dataclasses.replace(cfg, models=tuple(cells))


def test_excluded_log_stops_the_copies_launch_unread(tmp_path, started):
    procs, _ = started
    cfg = _sleepy_bridge(tmp_path)
    start = time.perf_counter()
    (report,) = run_benchmark(cfg)
    assert time.perf_counter() - start < 10.0
    assert report.excluded_reason == "avg AUC below 75" and report.auc == 0.5
    copies, test = procs
    assert test.returncode == 0 and copies.returncode == -signal.SIGKILL
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(copies.pid, 0)


def test_excluded_log_with_two_bridge_cells_never_waits_for_a_copies_launch(
        tmp_path, started):
    procs, _ = started
    cfg = _sleepy_bridge(tmp_path, names=("ext", "ext2"))
    start = time.perf_counter()
    reports = run_benchmark(cfg)
    assert time.perf_counter() - start < 10.0
    assert [r.excluded_reason for r in reports] == ["avg AUC below 75"] * 2
    # the second cell's copies launch is not started while the first one runs
    copies, test, test2 = procs
    assert [test.returncode, test2.returncode] == [0, 0]
    assert copies.returncode == -signal.SIGKILL


def test_bridge_cell_keeps_its_auc_when_its_copies_cannot_be_written(tmp_path, monkeypatch):
    cfg = bridge_config(tmp_path)

    def full_disk(cells, copy, n_rows, _rows=models.copy_csv_rows):
        if copy:  # a copy's rows, not the test rows
            raise OSError(errno.ENOSPC, "No space left on device")
        return _rows(cells, copy, n_rows)

    monkeypatch.setattr(models, "copy_csv_rows", full_disk)
    report, twin = run_benchmark(cfg)
    # the in-process twin of the exported logreg has the same AUC
    assert report.auc is not None and report.auc == twin.auc
    assert report.excluded_reason == "error: [Errno 28] No space left on device"
    assert twin.excluded_reason == ""


class Interrupt(BaseException):
    """Neither an ``Exception`` nor a cell's fault: it ends the run."""


def test_interrupted_run_leaves_no_launch_running(tmp_path, started, monkeypatch):
    procs, _ = started
    cfg = _sleepy_bridge(tmp_path)

    def interrupted(labels, scores):
        raise Interrupt

    monkeypatch.setattr(harness, "auc", interrupted)  # after the test launch, before the copies
    start = time.perf_counter()
    with pytest.raises(Interrupt):
        run_benchmark(cfg)
    assert time.perf_counter() - start < 10.0
    assert len(procs) == 2 and all(proc.returncode is not None for proc in procs)
    with pytest.raises(ChildProcessError):  # no child is left
        os.waitpid(-1, os.WNOHANG)


# Writes its stdin to argv[1] and scores each row by its first cell modulo 1.
COPYING_SCORER = """\
import sys

data = sys.stdin.buffer.read()
with open(sys.argv[1], "wb") as fh:
    fh.write(data)
for line in data.decode("utf-8").splitlines()[1:]:
    print(repr(float(line.split(",")[0]) % 1.0))
"""


def test_bridge_stacked_launch_sends_header_then_each_copy_in_draw_order(tmp_path):
    m = _tie_heavy_matrix(60, 40, seed=23)
    script = tmp_path / "copy.py"
    script.write_text(COPYING_SCORER, encoding="utf-8")
    received = tmp_path / "stdin.csv"
    model = external_model(shlex.join([sys.executable, str(script), str(received)]),
                           m.column_names)
    permutation_importance(model, m, seed=5, repeats=2,
                           base_scores=np.full(m.n_rows, 0.5))
    blocks = []
    for i in range(m.n_columns):
        distinct = np.unique(m.rows[:, i])
        if len(distinct) < 2:
            continue
        rng = np.random.default_rng(5 + i)
        for _ in range(2):
            rows = m.rows.copy()
            rows[:, i] = permute_column(m.rows[:, i], distinct, rng)
            blocks.append(rows)
    stacked = EncodedMatrix(m.columns, np.vstack(blocks), np.tile(m.labels, len(blocks)))
    assert received.read_bytes() == "".join(_unlabelled_csv(stacked)).encode("utf-8")


STREAM = _tie_heavy_matrix(12, 4, seed=24)


@settings(max_examples=10)
@given(st.lists(st.dictionaries(st.integers(0, 3), st.integers(1, 11), max_size=4), max_size=5))
def test_perturbed_scores_equal_each_copy_scored_alone(shifts):
    # each copy rolls some columns of STREAM by the drawn shifts
    m = STREAM
    copies = [{c: np.roll(m.rows[:, c], k) for c, k in copy.items()} for copy in shifts]
    alone = [_copy(m, copy) for copy in copies]
    stub = CountingPredictor(m.column_names)
    scores = list(score_copies(stub, m, iter(copies)))
    assert stub.calls == [m.n_rows] * len(copies)
    assert [s.tobytes() for s in scores] == [stub.predict(c).tobytes() for c in alone]
    with tempfile.TemporaryDirectory() as tmp:
        script, received = pathlib.Path(tmp, "copy.py"), pathlib.Path(tmp, "stdin.csv")
        script.write_text(COPYING_SCORER, encoding="utf-8")
        command = shlex.join([sys.executable, str(script), str(received)])
        scores = list(score_copies(external_model(command, m.column_names), m, iter(copies)))
        if not copies:
            assert scores == [] and not received.exists()  # nothing was launched
            return
        sent = m.csv_header() + "".join(
            line for c in alone for line in _unlabelled_csv(c)[1:])
        assert received.read_text(encoding="utf-8") == sent
        assert [s.tobytes() for s in scores] == [external_predict(command, c).tobytes()
                                                 for c in alone]


# Copies its stdin to argv[1] and scores each CSV record after the header 0.5.
CSV_COPYING_SCORER = """\
import csv
import io
import sys

data = sys.stdin.buffer.read()
with open(sys.argv[1], "wb") as fh:
    fh.write(data)
for row in list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))[1:]:
    print(0.5)
"""

_awkward_names = st.lists(st.text(st.sampled_from('a,"\n\r:'), min_size=1, max_size=4),
                          min_size=1, max_size=4, unique=True)


@settings(max_examples=20)
@given(_awkward_names, _awkward_names)
def test_matrix_csv_parses_back_whatever_its_column_names_hold(activities, values):
    # activity and categorical values with commas, quotes, line breaks and
    # colons: the header cells are quoted, and a cell's type follows its last ':'
    schema = AttributeSchema({"case": "case_id", "act": "activity", "time": "timestamp",
                              "outcome": "label", "d": "dynamic_categorical"})
    n = 2 * len(activities)  # two events a case
    traces = tuple(Trace(f"c{i}", {}, range(2 * i, 2 * i + 2), i % 2) for i in range(n // 2))
    log = EventLog(traces, schema, activities * 2,
                   [datetime(2024, 1, 1) + timedelta(hours=i) for i in range(n)],
                   {"d": [values[i % len(values)] for i in range(n)]})
    m = aggregate_encode(extract_prefixes(log, 2), fit_vocabulary(log))
    named = [(c.name, c.attribute_type) for c in m.columns]

    header, *rows = csv.reader(io.StringIO(m.export_csv(), newline=""))
    assert [tuple(cell.rsplit(":", 1)) for cell in header[:-1]] == named
    assert header[-1] == "label" and len(rows) == m.n_rows
    assert {len(row) for row in rows} == {m.n_columns + 1}

    with tempfile.TemporaryDirectory() as tmp:
        script, received = pathlib.Path(tmp, "copy.py"), pathlib.Path(tmp, "stdin.csv")
        script.write_text(CSV_COPYING_SCORER, encoding="utf-8")
        external_predict(shlex.join([sys.executable, str(script), str(received)]), m)
        header, *rows = csv.reader(io.StringIO(received.read_bytes().decode("utf-8"), newline=""))
    assert [tuple(cell.rsplit(":", 1)) for cell in header] == named
    assert len(rows) == m.n_rows and {len(row) for row in rows} == {m.n_columns}


# --- only the columns a tree or forest reads are drawn ---------------------------


class Opaque:
    """A model behind ``predict`` and ``columns`` alone, so ``read_columns``
    gives None and every copy of every column is drawn and scored."""

    def __init__(self, model):
        self.columns = model.columns
        self.predict = model.predict


def _split_columns(model) -> frozenset[int]:
    """Oracle: the columns the ``split`` lines of the model's export name."""
    names = re.findall(r"split column=(\S+) ", export_model(model))
    return frozenset(model.columns.index(name) for name in names)


def test_read_columns_are_the_split_columns_of_tree_kinds_and_none_otherwise():
    m = SMALL
    for model in (train_tree(m, {"max_depth": 2}), train_tree(m), _forest(m)):
        read = read_columns(model)
        assert read == _split_columns(model) and read
    assert read_columns(train_tree(m, {"max_depth": 2})) < set(range(m.n_columns))
    leaf = train_tree(make_matrix(m.rows, np.zeros(m.n_rows)))  # one class: a depth-0 leaf
    assert read_columns(leaf) == frozenset()
    for predictor in (train_logreg(m), train_llm(m), external_model("scorer", m.column_names),
                      _stub(m), Opaque(train_tree(m))):
        assert read_columns(predictor) is None


def _bits(metric) -> bytes:
    return np.array(dataclasses.astuple(metric)).tobytes()


@st.composite
def _unread_problem(draw):
    """A tied matrix of random attribute types whose last column repeats its
    first (a tree, which splits on the lowest of tied columns, never reads
    it), labels of both classes, and a tree or forest trained on it."""
    n = draw(st.integers(8, 30))
    p = draw(st.integers(2, 5))
    X = draw(hnp.arrays(np.float64, (n, p), elements=st.sampled_from([0.0, 1.0, 2.0, 3.0])))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    y[:2] = 0, 1
    types = draw(st.lists(st.sampled_from(TYPES), min_size=p + 1, max_size=p + 1))
    m = make_matrix(np.column_stack([X, X[:, 0]]), y, types=types)
    hyper = {"max_depth": draw(st.sampled_from([1, 2, 3, 6])),
             "min_samples_leaf": draw(st.integers(1, 3)),
             "n_trees": draw(st.integers(1, 4))}
    if draw(st.booleans()):
        return m, train_forest(m, hyper, seed=draw(st.integers(0, 5)))
    return m, train_tree(m, hyper)


@pytest.mark.oracle
@settings(max_examples=oracle_examples(30))
@given(_unread_problem(), st.integers(0, 100), st.sampled_from([1, 2]))
def test_unread_columns_skipped_give_the_bits_of_every_copy_scored(problem, seed, repeats):
    m, model = problem
    opaque = Opaque(model)
    read = read_columns(model)
    if model.kind == "tree" and len(m.distinct[0]) >= 2:
        assert m.n_columns - 1 not in read
    drawn = len(list(pi_copies(model, m, seed, repeats)))
    varying = [i for i in range(m.n_columns) if len(m.distinct[i]) >= 2]
    assert drawn == repeats * len(read.intersection(varying))
    assert len(list(pi_copies(opaque, m, seed, repeats))) == repeats * len(varying)
    pi = permutation_importance(model, m, seed, repeats)
    assert pi.weights.tobytes() == permutation_importance(opaque, m, seed, repeats).weights.tobytes()
    assert _bits(functional_complexity(model, m, seed)) == \
        _bits(functional_complexity(opaque, m, seed))
    joint = []
    for predictor in (model, opaque):  # PI's copies, then FC's, as run_benchmark streams them
        stream = score_copies(predictor, m, chain(
            pi_copies(predictor, m, seed, repeats), fc_copies(predictor, m, seed + 1)))
        base = predictor.predict(m)
        w_pi = permutation_importance(predictor, m, seed, repeats, base_scores=base, scores=stream)
        fc = functional_complexity(predictor, m, seed + 1, base_scores=base, scores=stream)
        assert next(stream, None) is None
        joint.append((w_pi.weights.tobytes(), _bits(fc)))
    assert joint[0] == joint[1]


@pytest.mark.parametrize("kind, hyper", [("tree", {"max_depth": 3}),
                                         ("forest", {"n_trees": 3, "max_depth": 2})])
def test_tree_kind_cell_predicts_once_per_read_copy(kind, hyper, monkeypatch):
    cfg = BenchmarkConfig(
        seed=5, max_prefix=4, models=(ModelSpec("dt", kind, hyper),), pi_repeats=2,
        synth=SynthSpec(n_cases=200, rule=CaseThreshold("s_num1", 0.5), seed=5))
    calls = []

    def counted(model, m, _predict=models.predict_proba):
        calls.append(model)
        return _predict(model, m)

    monkeypatch.setattr(models, "predict_proba", counted)
    (report,) = run_benchmark(cfg)
    assert report.excluded_reason == ""
    _, m = prepare_matrices(cfg)
    read = read_columns(calls[0])
    varying = [i for i in range(m.n_columns) if len(m.distinct[i]) >= 2]
    typed = [t for t in TYPES if read.intersection(m.columns_of_type(t))]
    assert len(calls) == 1 + len(read.intersection(varying)) * cfg.pi_repeats + len(typed)
    assert len(calls) < 1 + len(varying) * cfg.pi_repeats + len(TYPES)  # some were skipped


def test_pi_and_fc_unique_no_column_outside_what_they_permute(monkeypatch):
    # column j holds 10 * (j + 1) plus 0, 1 or 2, so a uniqued array names its
    # column; the labels follow column 1 alone, which a stump then reads
    rng = np.random.default_rng(3)
    X = rng.integers(0, 3, size=(80, 6)) + 10.0 * np.arange(1, 7)
    types = ["control", "control", "case", "case", "event", "event"]
    m = make_matrix(X, (X[:, 1] >= 21).astype(int), types=types)
    model = train_tree(m, {"max_depth": 1})
    assert read_columns(model) == {1}
    uniqued = []

    def recorded(values, *args, _unique=np.unique, **kwargs):
        if values.min() >= 10.0:  # not the labels
            uniqued.append(int(values.min() // 10) - 1)
        return _unique(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", recorded)
    permutation_importance(model, m, seed=0, repeats=2)
    assert uniqued == [1]  # PI permutes the read column alone
    functional_complexity(model, m, seed=0)
    assert uniqued == [1, 0]  # FC permutes every column of the read column's type


# --- intrinsic weights -----------------------------------------------------------


def _signal_matrix(seed=0, n=200):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] > 0).astype(int)
    return make_matrix(X, y), y


def test_logreg_coefficient_weights():
    m, _ = _signal_matrix()
    model = train_logreg(m)
    wv = coefficient_weights(model)
    assert np.array_equal(wv.weights, np.abs(model.logreg.coef))
    assert np.all(wv.weights >= 0)
    assert wv.weights[0] == wv.weights.max()


def test_llm_weights_are_support_weighted_leaf_means():
    X = np.array([[0.0, v / 10.0] for v in range(10)] + [[1.0, v / 10.0] for v in range(10)])
    y = np.array([0] * 10 + [0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    m = make_matrix(X, y)
    model = train_llm(m, {"max_depth": 1, "min_samples_leaf": 5})
    wv = coefficient_weights(model)
    # one constant leaf (all zeros) and one fitted leaf of 10 rows out of 20
    fitted = [lm for lm in model.leaf_models if not hasattr(lm, "prob")]
    assert len(fitted) == 1
    assert np.allclose(wv.weights, 10 * np.abs(fitted[0].coef) / 20)


def test_coefficient_weights_undefined_for_trees():
    m, _ = _signal_matrix()
    with pytest.raises(ValueError, match="undefined"):
        coefficient_weights(train_tree(m))


def test_tree_impurity_weights_hand_check():
    # depth-1 stump: importance of the split column equals its full gain
    X = np.column_stack([np.array([0.0] * 4 + [1.0] * 4), np.zeros(8)])
    y = np.array([0, 0, 0, 1, 1, 1, 1, 1])
    m = make_matrix(X, y)
    model = train_tree(m, {"max_depth": 1, "min_samples_leaf": 1})
    wv = impurity_weights(model)
    parent = 1 - (5 / 8) ** 2 - (3 / 8) ** 2
    left = 1 - (1 / 4) ** 2 - (3 / 4) ** 2
    right = 0.0
    gain = parent - 0.5 * left - 0.5 * right
    assert wv.weights[0] == pytest.approx(gain)
    assert wv.weights[1] == 0.0


def test_forest_impurity_weights_average_and_rank():
    m, _ = _signal_matrix(seed=5, n=300)
    model = train_forest(m, {"n_trees": 15}, seed=2)
    wv = impurity_weights(model)
    assert np.all(wv.weights >= 0)
    assert wv.weights[0] == wv.weights.max()
    single = [impurity_weights(train_tree(m)).weights]  # type check only
    assert len(single) == 1
    with pytest.raises(ValueError, match="undefined"):
        impurity_weights(train_logreg(m))


def test_forest_impurity_weights_are_one_running_sum_in_preorder():
    # oracle: descend each tree of the table from its root, adding every
    # split's weighted Gini decrease to one running total per column, tree
    # after tree; the report's bytes depend on this summation order
    m, _ = _signal_matrix(seed=5, n=300)
    model = train_forest(m, {"n_trees": 15}, seed=2)
    tree = model.tree
    total = np.zeros(m.n_columns)

    def visit(root, i):
        if tree.column[i] < 0:
            return
        left, right = tree.left[i], tree.right[i]
        child = tree.n[left] / tree.n[i] * tree.gini[left] + tree.n[right] / tree.n[i] * tree.gini[right]
        total[tree.column[i]] += tree.n[i] / tree.n[root] * (tree.gini[i] - child)
        visit(root, left)
        visit(root, right)

    for root in tree.roots:
        visit(root, root)
    assert len(tree.roots) == 15
    assert np.array_equal(impurity_weights(model).weights, total / len(tree.roots))


# --- external weights --------------------------------------------------------------


def test_load_external_weights(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("a,0.5\nb,-2.0\n", encoding="utf-8")
    # absolute values; absent column gets 0 with a warning
    with pytest.warns(UserWarning, match="missing"):
        wv = load_external_weights(str(path), ("a", "b", "c"))
    assert wv.weights.tolist() == [0.5, 2.0, 0.0]


def test_load_external_weights_errors(tmp_path):
    bad_col = tmp_path / "bad1.csv"
    bad_col.write_text("nope,1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown column 'nope'"):
        load_external_weights(str(bad_col), ("a",))
    bad_val = tmp_path / "bad2.csv"
    bad_val.write_text("a,much\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-numeric"):
        load_external_weights(str(bad_val), ("a",))
    bad_shape = tmp_path / "bad3.csv"
    bad_shape.write_text("a,1.0,extra\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 'attribute,weight'"):
        load_external_weights(str(bad_shape), ("a",))
    repeated = tmp_path / "bad4.csv"
    repeated.write_text("a,1\nb,2\na,5\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"bad4\.csv:3: duplicate column 'a'$"):
        load_external_weights(str(repeated), ("a", "b"))


def test_load_external_weights_reads_through_the_log_decoder(tmp_path):
    # a byte-order mark is dropped; an invalid byte is named with its row,
    # after the rows before it are checked
    path = tmp_path / "w.csv"
    path.write_bytes(b"\xef\xbb\xbfa,0.5\nb,-2.0\n")
    assert load_external_weights(str(path), ("a", "b")).weights.tolist() == [0.5, 2.0]
    path.write_bytes(b'a,0.5\n"b\n",1\nb,2\xff\n')
    with pytest.raises(ValueError, match=r"^.*w\.csv: row 3: invalid UTF-8 byte 0xff$"):
        load_external_weights(str(path), ("a", "b\n", "b"))
    with pytest.raises(ValueError, match=r"w\.csv:1: unknown column 'a'$"):
        load_external_weights(str(path), ("b",))
    # a record the csv module refuses, a field over its size limit, is named by its row
    path.write_text("a,0.5\nb,1\n" + "c" * 131073 + ",2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"^.*w\.csv: row 3: field larger than field limit "
                                         r"\(131072\)$"):
        load_external_weights(str(path), ("a", "b"))


# --- weight vector invariants --------------------------------------------------------


def test_weight_vector_validation():
    with pytest.raises(ValueError, match="length"):
        WeightVector(np.zeros(2), ("a",))
    with pytest.raises(ValueError, match="finite"):
        WeightVector(np.array([np.nan]), ("a",))
    wv = WeightVector(np.array([1.0]), ("a",))
    with pytest.raises(ValueError):
        wv.weights[0] = 2.0
