from __future__ import annotations

import argparse
import csv
import shlex
import sys
from pathlib import Path

import pytest

from conftest import bridge_config
from xpop import cli
from xpop.cli import build_parser, main
from xpop.harness import load_config, prepare_matrices, train_model
from xpop.models import auc
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


RULE = ("a rule such as control_presence(A), control_follows(A, B), "
        "case_threshold(s_num1, 0.5) or event_mean_threshold(d_num1, 0.5)")


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG, encoding="utf-8")
    return str(path)


CONFIG_COMMANDS = ("synth", "train", "evaluate", "metrics", "bench")


def test_parser_knows_every_subcommand():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {*CONFIG_COMMANDS, "encode", "report", "guide"}


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_config_subcommands_take_config_seed_and_out(command):
    args = build_parser().parse_args([command, "--config", "b.cfg", "--seed", "3", "--out", "o"])
    assert (args.command, args.config, args.seed, args.out) == (command, "b.cfg", 3, "o")
    run = "bench" if command == "metrics" else command
    assert args.func is getattr(cli, f"cmd_{run}")
    with pytest.raises(SystemExit):
        build_parser().parse_args([command])  # --config is required


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
    table = capsys.readouterr().out
    assert 'bad "input", row 3\\nsecond line' in table
    assert len(table.splitlines()) == (len(rows) - 1) + 2  # rows, header, rule


@pytest.mark.parametrize(
    "text, row",
    [("", 1), ("a,b,c\n1\n", 2), ("a,b\n1,2\n\n3,4,5\n", 4)],
    ids=["empty", "short_row", "long_row_after_blank_line"],
)
def test_cli_report_rejects_malformed_csv(tmp_path, capsys, text, row):
    path = tmp_path / "report.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["report", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}: row {row}: ")
    assert len(captured.err.splitlines()) == 1


def _assert_file_error(capsys, argv, path, reason):
    """``argv`` exits 2 with one stderr line ``<path>: ...<reason>...``."""
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}: ") and reason in captured.err
    assert len(captured.err.splitlines()) == 1


def test_cli_report_missing_input(tmp_path, capsys):
    path = tmp_path / "missing.csv"
    _assert_file_error(capsys, ["report", "--input", str(path)], path, "No such file")


def test_cli_report_input_not_utf8(tmp_path, capsys):
    path = tmp_path / "report.csv"
    path.write_bytes(b"a,b\n\xff,1\n")
    _assert_file_error(capsys, ["report", "--input", str(path)], path,
                       "row 2: invalid UTF-8 byte 0xff")


def test_cli_report_drops_a_leading_bom(tmp_path, capsys):
    path = tmp_path / "report.csv"
    tables = []
    for data in (b"a,b\n1,2\n", b"\xef\xbb\xbfa,b\n1,2\n"):
        path.write_bytes(data)
        assert main(["report", "--input", str(path)]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1] and tables[0].startswith("a")


def test_cli_bench_missing_config(tmp_path, capsys):
    path = tmp_path / "nope.cfg"
    _assert_file_error(capsys, ["bench", "--config", str(path)], path, "No such file")


@pytest.mark.parametrize(
    "text, reason",
    [("[data\nseed = 1\n", "line 1: expected a [section] header"),
     ("[data]\nseed = 1\nseed = 2\n", "line 3: duplicate key 'seed' in [data]")],
    ids=["missing_section_header", "duplicate_key"],
)
def test_cli_bench_config_syntax_error_names_file_and_line(tmp_path, capsys, text, reason):
    path = tmp_path / "bench.cfg"
    path.write_text(text, encoding="utf-8")
    _assert_file_error(capsys, ["bench", "--config", str(path)], path, reason)


def test_cli_bench_config_keeps_percent_signs_verbatim(tmp_path, capsys):
    config = tmp_path / "bench.cfg"
    config.write_text(CONFIG + "\n[model ext]\nkind = external\ncommand = printf %s%%\n",
                      encoding="utf-8")
    assert load_config(config).models[-1].command == "printf %s%%"
    out = tmp_path / "bench"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
    report = (out / "report.csv").read_text(encoding="utf-8")
    assert "error: line count mismatch" in report.splitlines()[-1]


@pytest.mark.parametrize(
    "kind, key, value, rule",
    [("logreg", "l2", "-1", "finite and >= 0"),
     ("logreg", "l2", "nan", "finite and >= 0"),
     ("llm", "tol", "0", "finite and > 0"),
     ("logreg", "tol", "inf", "finite and > 0"),
     ("logreg", "max_iter", "2.5", "a whole number >= 1"),
     ("tree", "max_depth", "0", "a whole number >= 1"),
     ("llm", "min_samples_leaf", "-3", "a whole number >= 1"),
     ("forest", "n_trees", "1.5", "a whole number >= 1"),
     ("forest", "max_features_fraction", "nan", "in (0, 1]"),
     ("forest", "max_features_fraction", "0", "in (0, 1]"),
     ("forest", "max_features_fraction", "-2", "in (0, 1]"),
     ("forest", "max_features_fraction", "5", "in (0, 1]")],
)
def test_cli_bench_rejects_bad_hyperparameters(tmp_path, capsys, kind, key, value, rule):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG + f"\n[model bad]\nkind = {kind}\n{key} = {value}\n",
                    encoding="utf-8")
    _assert_file_error(capsys, ["bench", "--config", str(path)], path,
                       f"model 'bad': {key} must be {rule}, got {float(value)!r}")


def test_cli_bench_non_numeric_hyperparameter_names_model_and_key(tmp_path, capsys):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG.replace("kind = logreg\n", "kind = logreg\nl2 = abc\n"),
                    encoding="utf-8")
    _assert_file_error(capsys, ["bench", "--config", str(path)], path,
                       "model 'lr': l2 must be a number, got 'abc'")


@pytest.mark.parametrize(
    "key, value, rule",
    [("train_ratio", "1.5", "in (0, 1)"),
     ("train_ratio", "nan", "in (0, 1)"),
     ("max_prefix", "0", "a whole number >= 1"),
     ("max_prefix", "abc", "a whole number >= 1"),
     ("pi_repeats", "0", "a whole number >= 1"),
     ("pi_repeats", "-1", "a whole number >= 1"),
     ("seed", "abc", "an integer"),
     ("synth_cases", "0", "a whole number >= 1"),
     ("synth_cases", "-3", "a whole number >= 1"),
     ("synth_cases", "abc", "a whole number >= 1"),
     ("synth_alphabet", "-1", "a whole number in 1..26"),
     ("synth_max_length", "2.5", "a whole number >= 1"),
     ("synth_dynamic_numeric", "-1", "a whole number >= 0"),
     ("synth_noise", "0.5", "in [0, 0.5)"),
     ("synth_seed", "x", "an integer"),
     ("synth_rule", "case_threshold(s_num1, x)", RULE),
     ("synth_rule", "presence(A)", RULE)],
)
def test_cli_bench_rejects_bad_data_values(tmp_path, capsys, key, value, rule):
    lines = [line for line in CONFIG.splitlines() if not line.startswith(f"{key} =")]
    lines.insert(1, f"{key} = {value}")
    path = tmp_path / "bench.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_file_error(capsys, ["bench", "--config", str(path), "--out", str(tmp_path / "out")],
                       path, f"[data] {key} must be {rule}, got {value}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "rule, reason",
    [("case_threshold(s_num9, 0.5)",
      "rule attribute 's_num9' is not a static_numeric attribute of the spec (it has: s_num1)"),
     ("event_mean_threshold(d_cat1, 0.5)",
      "rule attribute 'd_cat1' is not a dynamic_numeric attribute of the spec (it has: d_num1)"),
     ("case_threshold(s_num1, nan)", "rule threshold must be finite, got nan"),
     ("event_mean_threshold(d_num1, inf)", "rule threshold must be finite, got inf"),
     ("control_follows(A, A)", "rule activities must differ")],
)
def test_cli_bench_rejects_a_rule_attribute_the_log_lacks(tmp_path, capsys, rule, reason):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG.replace("control_presence(A)", rule), encoding="utf-8")
    _assert_file_error(capsys, ["bench", "--config", str(path), "--out", str(tmp_path / "out")],
                       path, reason)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["metrics", "evaluate"])
@pytest.mark.parametrize(
    "old, new, reason",
    [("synth_noise = 0.05\n", "synth_nosie = 0.3\n", "[data] unknown key 'synth_nosie'"),
     ("kind = logreg\n", "kind = logreg\nmax_iters = 1\n", "[model lr] unknown key 'max_iters'"),
     ("[model rf]", "[modle rf]", "unknown section [modle rf]"),
     ("[data]", "[DEFAULT]\nkind = tree\n\n[data]", "unknown section [DEFAULT]"),
     # a model section's first word is exactly "model"
     ("[model rf]", "[models rf]", "unknown section [models rf]"),
     ("[model rf]", "[modelling]", "unknown section [modelling]")],
    ids=["data_key", "model_key", "section", "default_section", "models_section",
         "modelling_section"],
)
def test_cli_config_rejects_unknown_key_or_section(tmp_path, capsys, command, old, new, reason):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG.replace(old, new), encoding="utf-8")
    _assert_file_error(capsys, [command, "--config", str(path)], path, reason)


@pytest.mark.parametrize("command", ["bench", "train"])
def test_cli_config_rejects_two_sections_naming_one_model(tmp_path, capsys, command):
    # [model lr] and [model  lr] are two sections; both would write lr.model.txt
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG.replace("[model rf]\nkind = forest", "[model  lr]\nkind = tree"),
                    encoding="utf-8")
    _assert_file_error(capsys, [command, "--config", str(path), "--out", str(tmp_path / "out")],
                       path, "two models are named 'lr'")
    assert not (tmp_path / "out").exists()


def test_cli_config_takes_a_bare_model_section(tmp_path, capsys):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG.split("[model lr]")[0] + "[model]\nkind = tree\n", encoding="utf-8")
    assert main(["evaluate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.startswith("model: test AUC ")


@pytest.mark.parametrize("command", ["bench", "evaluate"])
@pytest.mark.parametrize(
    "data, reason",
    [("log = missing.csv\n", "[data] synth_cases cannot be combined with log"),
     ("schema = schema.cfg\n", "[data] synth_cases cannot be combined with schema"),
     ("label_a = A\nlabel_b = B\n", "[data] synth_cases cannot be combined with label_a")],
    ids=["log", "schema", "label_rule"],
)
def test_cli_config_rejects_a_synth_log_with_csv_keys(tmp_path, capsys, command, data, reason):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG.replace("[data]\n", "[data]\n" + data), encoding="utf-8")
    _assert_file_error(capsys, [command, "--config", str(path)], path, reason)


@pytest.mark.parametrize("command", ["bench", "evaluate"])
def test_cli_config_rejects_a_csv_log_with_synth_keys(tmp_path, capsys, command):
    path = _csv_config(tmp_path, ["c1,A,2024-01-01 10:00:00,1", "c2,B,2024-01-01 11:00:00,0"],
                       data="synth_noise = 0.3\n")
    _assert_file_error(capsys, [command, "--config", str(path)], path,
                       "[data] synth_noise cannot be combined with log")


def _csv_config(tmp_path, rows, data="", label=True):
    """A bench config over a CSV log of ``case,act,time[,outcome]`` rows."""
    roles = "case = case_id\nact = activity\ntime = timestamp\n"
    header = "case,act,time"
    if label:
        roles += "outcome = label\n"
        header += ",outcome"
    (tmp_path / "schema.cfg").write_text(roles, encoding="utf-8")
    (tmp_path / "log.csv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    path = tmp_path / "bench.cfg"
    path.write_text(f"[data]\nseed = 1\nlog = {tmp_path / 'log.csv'}\n"
                    f"schema = {tmp_path / 'schema.cfg'}\n{data}\n[model lr]\nkind = logreg\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["bench", "train", "evaluate"])
def test_cli_log_too_small_to_split_names_config(tmp_path, capsys, command):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG.replace("synth_cases = 80", "synth_cases = 2"), encoding="utf-8")
    _assert_file_error(capsys, [command, "--config", str(path)], path,
                       "temporal split left one side empty")


def test_cli_train_one_class_train_split_names_config(tmp_path, capsys):
    path = tmp_path / "bench.cfg"
    text = CONFIG.replace("seed = 9", "seed = 1").replace("synth_cases = 80", "synth_cases = 40")
    path.write_text(text.replace("control_presence(A)", "case_threshold(s_num1, 1.0)"),
                    encoding="utf-8")  # both classes in the log, one in its train split
    _assert_file_error(capsys, ["train", "--config", str(path), "--out", str(tmp_path / "m")],
                       path, "labels contain a single class")


@pytest.mark.parametrize(
    "data, reason",
    [("synth_min_length = 5\nsynth_max_length = 3\n",
      "[data] synth_min_length (5) must be <= synth_max_length (3)"),
     ("synth_min_length = 7\n", "[data] synth_min_length (7) must be <= synth_max_length (6)")],
    ids=["both_set", "max_by_default"],
)
def test_cli_bench_rejects_synth_length_range(tmp_path, capsys, data, reason):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG.replace("[data]\n", "[data]\n" + data), encoding="utf-8")
    _assert_file_error(capsys, ["bench", "--config", str(path)], path, reason)


def test_cli_encode_unlabelled_log_names_log_and_case(tmp_path, capsys):
    _csv_config(tmp_path, ["c1,A,2024-01-01 10:00:00", "c2,B,2024-01-01 11:00:00"], label=False)
    log = tmp_path / "log.csv"
    argv = ["encode", "--log", str(log), "--schema", str(tmp_path / "schema.cfg"),
            "--max-prefix", "3"]
    _assert_file_error(capsys, argv, log, "case 'c1' is unlabelled")


def test_cli_one_case_log_names_config(tmp_path, capsys):
    path = _csv_config(tmp_path, ["c1,A,2024-01-01 10:00:00,ok", "c1,B,2024-01-01 11:00:00,ok"])
    _assert_file_error(capsys, ["bench", "--config", str(path)], path,
                       "temporal split left one side empty")


def test_cli_unlabelled_log_names_config_and_case(tmp_path, capsys):
    path = _csv_config(tmp_path, ["c1,A,2024-01-01 10:00:00", "c2,B,2024-01-01 11:00:00"],
                       label=False)
    _assert_file_error(capsys, ["bench", "--config", str(path)], path,
                       "case 'c1' is unlabelled")


def test_cli_label_rule_with_equal_activities_names_config(tmp_path, capsys):
    path = _csv_config(tmp_path, ["c1,A,2024-01-01 10:00:00", "c2,B,2024-01-01 11:00:00"],
                       data="label_a = A\nlabel_b = A\n", label=False)
    _assert_file_error(capsys, ["bench", "--config", str(path)], path,
                       "rule activities must differ")


@pytest.mark.parametrize("data", ["label_a = A\n", "label_b = B\n"])
def test_cli_label_rule_needs_both_activities(tmp_path, capsys, data):
    path = _csv_config(tmp_path, ["c1,A,2024-01-01 10:00:00", "c2,B,2024-01-01 11:00:00"],
                       data=data, label=False)
    _assert_file_error(capsys, ["bench", "--config", str(path)], path,
                       "[data] label_a and label_b must both be set")


def test_cli_bench_bad_log_row_names_the_log_not_the_config(tmp_path, capsys):
    path = _csv_config(tmp_path, ["c1,A,2024-01-01 10:00:00,ok", "c2,B,soon,ok"])
    _assert_file_error(capsys, ["bench", "--config", str(path)], tmp_path / "log.csv",
                       "row 3: unparseable timestamp 'soon'")



def test_cli_bench_non_finite_log_cell_names_log_row_and_column(tmp_path, config_path, capsys):
    out = tmp_path / "synth"
    main(["synth", "--config", config_path, "--out", str(out)])
    log = out / "log.csv"
    header, first, *rest = log.read_text(encoding="utf-8").splitlines()
    cells = first.split(",")
    cells[header.split(",").index("d_num1")] = "nan"
    log.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")
    path = tmp_path / "bench.cfg"
    path.write_text(f"[data]\nseed = 1\nlog = {log}\nschema = {out / 'schema.cfg'}\n"
                    "\n[model lr]\nkind = logreg\n", encoding="utf-8")
    _assert_file_error(capsys, ["bench", "--config", str(path)], log,
                       "row 2: non-finite value 'nan' in column 'd_num1'")

def test_cli_encode_bad_timestamp_names_log_and_row(tmp_path, config_path, capsys):
    out = tmp_path / "synth"
    main(["synth", "--config", config_path, "--out", str(out)])
    log = out / "log.csv"
    header, first, *rest = log.read_text(encoding="utf-8").splitlines()
    cells = first.split(",")
    cells[header.split(",").index("time")] = "notatime"
    log.write_text("\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8")
    argv = ["encode", "--log", str(log), "--schema", str(out / "schema.cfg"), "--max-prefix", "3"]
    _assert_file_error(capsys, argv, log, "row 2: unparseable timestamp 'notatime'")


def test_cli_encode_log_with_a_byte_order_mark_encodes_as_without(tmp_path, config_path, capsys):
    out = tmp_path / "synth"
    main(["synth", "--config", config_path, "--out", str(out)])
    log = out / "log.csv"
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + log.read_bytes())
    matrices = []
    for path in (log, bom):
        encoded = tmp_path / f"{path.stem}_matrix.csv"
        assert main(["encode", "--log", str(path), "--schema", str(out / "schema.cfg"),
                     "--max-prefix", "3", "--out", str(encoded)]) == 0
        matrices.append(encoded.read_bytes())
    assert matrices[0] == matrices[1]


@pytest.mark.parametrize("row", [1, 6], ids=["header", "data_row"])
def test_cli_encode_invalid_utf8_names_log_row_and_byte(tmp_path, config_path, capsys, row):
    out = tmp_path / "synth"
    main(["synth", "--config", config_path, "--out", str(out)])
    lines = (out / "log.csv").read_bytes().split(b"\n")
    lines[row - 1] += b"\xff"
    log = tmp_path / "bad.csv"
    log.write_bytes(b"\n".join(lines))
    argv = ["encode", "--log", str(log), "--schema", str(out / "schema.cfg"), "--max-prefix", "3"]
    _assert_file_error(capsys, argv, log, f"row {row}: invalid UTF-8 byte 0xff")


@pytest.mark.parametrize("command", ["encode", "bench", "report"])
def test_cli_field_over_the_csv_limit_names_its_file_and_row(tmp_path, config_path, capsys,
                                                             command):
    out = tmp_path / "synth"
    main(["synth", "--config", config_path, "--out", str(out)])
    path = out / "log.csv"
    if command == "report":
        path = tmp_path / "report.csv"
        path.write_text("a,b\n1,2\n3,4\n", encoding="utf-8")
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = "x" * 131073 + lines[2]  # the csv module's field size limit is 131072
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "bench.cfg"
    config.write_text(f"[data]\nseed = 1\nlog = {path}\nschema = {out / 'schema.cfg'}\n"
                      "\n[model lr]\nkind = logreg\n", encoding="utf-8")
    argv = {"encode": ["encode", "--log", str(path), "--schema", str(out / "schema.cfg"),
                       "--max-prefix", "3"],
            "bench": ["bench", "--config", str(config)],
            "report": ["report", "--input", str(path)]}[command]
    _assert_file_error(capsys, argv, path, "row 3: field larger than field limit (131072)")


@pytest.mark.parametrize("bom, line", [(b"", 1), (b"", 4), (b"\xef\xbb\xbf", 1)],
                         ids=["line_1", "line_4", "after_a_bom"])
@pytest.mark.parametrize("name", ["bench.cfg", "schema.cfg"])
def test_cli_config_and_schema_name_the_line_of_an_invalid_byte(tmp_path, capsys, name, bom,
                                                                line):
    config = _csv_config(tmp_path, ["c1,A,2024-01-01 10:00:00,ok"])
    path = tmp_path / name
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(bom + b"\n".join(lines))
    _assert_file_error(capsys, ["bench", "--config", str(config)], path,
                       f"{path}: line {line}: invalid UTF-8 byte 0xff")


def test_cli_metrics_prints_the_bench_table_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "from_config"
    config = tmp_path / "bench.cfg"
    config.write_text(CONFIG.replace("[data]\n", f"[data]\nout = {out}\n"), encoding="utf-8")
    assert main(["metrics", "--config", str(config)]) == 0
    metrics_out = capsys.readouterr().out
    assert not out.exists()
    assert main(["bench", "--config", str(config)]) == 0
    bench_out = capsys.readouterr().out
    assert bench_out == f"wrote {out / 'report.csv'}\n" + metrics_out
    assert metrics_out.startswith("log  ") and len(metrics_out.splitlines()) == 4


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


def test_cli_evaluate_prints_the_bench_auc_or_error_of_each_model(tmp_path, capsys):
    fails = shlex.join([sys.executable, "-c", "import sys; sys.exit(1)"])
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG.replace("[model rf]", f"[model bad]\nkind = external\n"
                                                 f"command = {fails}\n\n[model rf]"),
                    encoding="utf-8")
    assert main(["bench", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["model"] for row in rows] == ["lr", "bad", "rf"]
    assert rows[1]["excluded_reason"].startswith("error: external command exited with 1")

    assert main(["evaluate", "--config", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{row['model']}: {row['excluded_reason']}" if row["excluded_reason"].startswith("error")
        else f"{row['model']}: test AUC {row['auc']}" for row in rows
    ]


def test_cli_train_prints_training_auc_without_launching_external(tmp_path, capsys):
    launches = tmp_path / "launches.txt"
    ext = bridge_config(tmp_path, launch_log=launches).models[0]
    path = tmp_path / "bench.cfg"
    path.write_text(f"""\
[data]
seed = 5
max_prefix = 4
synth_cases = 200
synth_rule = case_threshold(s_num1, 0.5)

[model ext]
kind = external
command = {ext.command}
weights = {ext.weights_path}
""" + "".join(f"\n[model {kind}]\nkind = {kind}\n" for kind in ("logreg", "tree", "forest", "llm")),
                    encoding="utf-8")
    out = tmp_path / "models"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not launches.exists()

    cfg = load_config(path)
    train_m, _ = prepare_matrices(cfg)
    expected = ["n/a"]
    for idx, spec in enumerate(cfg.models[1:], start=1):
        model = train_model(spec, train_m, derive_seed(cfg.seed, idx))
        expected.append(f"{auc(train_m.labels, model.predict(train_m)):.6f}")
    assert lines == [f"{spec.name}: training AUC {shown}; exported to {out / spec.name}.model.txt"
                     for spec, shown in zip(cfg.models, expected)]

    assert main(["evaluate", "--config", str(path)]) == 0  # the launch log does record launches
    assert launches.read_text(encoding="utf-8") == "launch\n"


def test_cli_train_one_class_train_split_shows_na(tmp_path, capsys):
    path = tmp_path / "bench.cfg"
    text = CONFIG.replace("seed = 9", "seed = 1").replace("synth_cases = 80", "synth_cases = 40")
    text = text.replace("control_presence(A)", "case_threshold(s_num1, 1.0)")
    path.write_text(text.split("[model lr]")[0] + "[model tree]\nkind = tree\n", encoding="utf-8")
    out = tmp_path / "m"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"tree: training AUC n/a; exported to {out}/tree.model.txt\n"


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
