from __future__ import annotations

import csv
import shlex
import sys
from pathlib import Path

import pytest

from xpop.cli import main
from xpop.seeds import derive_seed, splitmix64

CONFIG = """\
[data]
seed = 9
max_prefix = 3
synth_cases = 80
synth_rule = control_presence(A)
synth_noise = 0.05

[model lr]
kind = logreg

[model rf]
kind = forest
n_trees = 10
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG, encoding="utf-8")
    return str(path)


def test_seed_derivation_properties():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2) != derive_seed(1, 3)
    assert derive_seed(1, 2) != derive_seed(2, 2)
    # path sensitivity: (a, b) differs from (b, a)
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)
    assert 0 <= splitmix64(12345) < 2**64


def test_cli_synth_and_encode(tmp_path, config_path, capsys):
    out = tmp_path / "synth"
    assert main(["synth", "--config", config_path, "--out", str(out)]) == 0
    assert (out / "log.csv").exists() and (out / "schema.cfg").exists()

    encoded = tmp_path / "matrix.csv"
    rc = main([
        "encode", "--log", str(out / "log.csv"), "--schema", str(out / "schema.cfg"),
        "--max-prefix", "3", "--out", str(encoded),
    ])
    assert rc == 0
    header = encoded.read_text(encoding="utf-8").splitlines()[0]
    assert header.endswith(",label")
    assert "activity=A:control" in header


def test_cli_bench_writes_report_and_table(tmp_path, config_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--config", config_path, "--out", str(out)]) == 0
    report = (out / "report.csv").read_text(encoding="utf-8")
    assert report.startswith("log,model,auc,")
    assert len(report.strip().splitlines()) == 3  # header + 2 models
    table = capsys.readouterr().out
    assert "lr" in table and "rf" in table

    # report subcommand re-renders the CSV
    assert main(["report", "--input", str(out / "report.csv")]) == 0
    rendered = capsys.readouterr().out
    assert rendered.splitlines()[0].startswith("log")


FAILING_SCORER = """\
import sys
sys.stderr.write('bad "input", row 3\\nsecond line\\n')
sys.exit(1)
"""


def test_cli_report_quotes_bridge_error_text(tmp_path, capsys):
    script = tmp_path / "fail.py"
    script.write_text(FAILING_SCORER, encoding="utf-8")
    config = tmp_path / "bench.cfg"
    command = shlex.join([sys.executable, str(script)])
    config.write_text(CONFIG + f"\n[model ext]\nkind = external\ncommand = {command}\n",
                      encoding="utf-8")
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [12] * 4
    assert rows[3][:2] == ["log", "ext"]
    assert rows[3][11] == 'error: external command exited with 1: bad "input", row 3\nsecond line'
    capsys.readouterr()
    assert main(["report", "--input", str(out / "report.csv")]) == 0
    assert 'bad "input", row 3' in capsys.readouterr().out


def test_cli_bench_is_deterministic(tmp_path, config_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["bench", "--config", config_path, "--out", str(out1)])
    main(["bench", "--config", config_path, "--out", str(out2)])
    capsys.readouterr()
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


def test_cli_seed_override_changes_output(tmp_path, config_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["bench", "--config", config_path, "--out", str(out1)])
    main(["bench", "--config", config_path, "--out", str(out2), "--seed", "10"])
    capsys.readouterr()
    assert (out1 / "report.csv").read_bytes() != (out2 / "report.csv").read_bytes()


def test_cli_train_and_evaluate(tmp_path, config_path, capsys):
    out = tmp_path / "models"
    assert main(["train", "--config", config_path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "training AUC" in stdout
    assert (out / "lr.model.txt").read_text(encoding="utf-8").startswith("kind\tlogreg")
    assert (out / "rf.model.txt").exists()

    assert main(["evaluate", "--config", config_path]) == 0
    stdout = capsys.readouterr().out
    assert stdout.count("test AUC") == 2


def test_cli_guide_batch(capsys):
    assert main(["guide", "--answers", "n,n,n,n,n,n,n"]) == 0
    out = capsys.readouterr().out
    assert "Recommended model: LR" in out
    assert main(["guide", "--answers", "y,n,n,n,n,n,n"]) == 0
    out = capsys.readouterr().out
    assert "Recommended model: GLRM" in out


def test_cli_guide_rejects_malformed_answers(capsys):
    assert main(["guide", "--answers", "y,n"]) == 2
    assert main(["guide", "--answers", "y,n,n,n,n,n,maybe"]) == 2


def test_cli_guide_interactive(monkeypatch, capsys):
    answers = iter(["n", "n", "n", "n", "n", "n"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    assert main(["guide"]) == 0
    out = capsys.readouterr().out
    assert "Recommended model: LR" in out
