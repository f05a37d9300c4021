"""Command-line interface.

Subcommands: encode, train, evaluate, metrics, guide, synth, bench, report.
Stochastic commands require an explicit seed (from the config or --seed).
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from xpop.eventlog import format_schema_config, serialize_csv
from xpop.guidelines import QUESTION_ORDER, Questionnaire, interactive_guide, recommend
from xpop.harness import (
    BenchmarkConfig,
    format_table,
    load_config,
    prepare_matrices,
    read_log,
    reading,
    render_report,
    run_benchmark,
    train_model,
)
from xpop.models import auc, export_model
from xpop.preprocess import aggregate_encode, extract_prefixes, fit_vocabulary
from xpop.seeds import derive_seed
from xpop.synth import generate_log, synth_schema


def _load_cfg(args) -> BenchmarkConfig:
    with reading(args.config):
        cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=str(args.out))
    return cfg


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    if cfg.synth is None:
        print("config has no synth spec ([data] synth_rule / synth_cases)", file=sys.stderr)
        return 2
    log = generate_log(cfg.synth)
    out = Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "log.csv").write_text(serialize_csv(log), encoding="utf-8")
    (out / "schema.cfg").write_text(
        format_schema_config(synth_schema(cfg.synth)), encoding="utf-8"
    )
    print(f"wrote {out / 'log.csv'} and {out / 'schema.cfg'}")
    return 0


def cmd_encode(args) -> int:
    schema, log = read_log(args.log, args.schema)
    with reading(args.log):  # e.g. an unlabelled case
        vocab = fit_vocabulary(log)
        matrix = aggregate_encode(extract_prefixes(log, args.max_prefix), schema, vocab)
    text = matrix.export_csv(include_label=True)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out} ({matrix.n_rows} rows x {matrix.n_columns} columns)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    with reading(args.config):  # e.g. a train split of one class
        train_m, _ = prepare_matrices(cfg)
        out = Path(cfg.out_dir or ".")
        out.mkdir(parents=True, exist_ok=True)
        for idx, spec in enumerate(cfg.models):
            model = train_model(spec, train_m, derive_seed(cfg.seed, idx))
            # an external command is not launched here
            if model.kind == "external" or len(np.unique(train_m.labels)) < 2:
                shown = "n/a"
            else:
                shown = f"{auc(train_m.labels, model.predict(train_m)):.6f}"
            path = out / f"{spec.name}.model.txt"
            path.write_text(export_model(model), encoding="utf-8")
            print(f"{spec.name}: training AUC {shown}; exported to {path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    with reading(args.config):
        train_m, test_m = prepare_matrices(cfg)
    for idx, spec in enumerate(cfg.models):
        try:
            model = train_model(spec, train_m, derive_seed(cfg.seed, idx))
            score = auc(test_m.labels, model.predict(test_m))
            print(f"{spec.name}: test AUC {score:.6f}")
        except Exception as exc:
            print(f"{spec.name}: error: {exc}")
    return 0


def cmd_bench(args) -> int:
    """``bench`` and ``metrics``: run the benchmark and print its table.
    Only ``bench`` writes ``report.csv``, into the output directory."""
    cfg = _load_cfg(args)
    with reading(args.config):  # a log that cannot be split or encoded
        reports = run_benchmark(cfg)
    if args.command == "bench" and cfg.out_dir:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(render_report(reports, "csv"), encoding="utf-8")
        print(f"wrote {out / 'report.csv'}")
    sys.stdout.write(render_report(reports, "table"))
    return 0


def cmd_report(args) -> int:
    with reading(args.input), open(args.input, encoding="utf-8", newline="") as fh:
        records = [(n, row) for n, row in enumerate(csv.reader(fh), start=1) if row]
        if not records:
            raise ValueError("row 1: no header")
        (_, header), *records = records
        for n, row in records:
            if len(row) != len(header):
                raise ValueError(f"row {n}: {len(row)} fields, header has {len(header)}")
    sys.stdout.write(format_table(header, [row for _, row in records]))
    return 0


def cmd_guide(args) -> int:
    if args.answers:
        raw = [a.strip().lower() for a in args.answers.split(",")]
        if len(raw) != len(QUESTION_ORDER) or any(a not in ("y", "n") for a in raw):
            print(
                f"--answers needs {len(QUESTION_ORDER)} comma-separated y/n values",
                file=sys.stderr,
            )
            return 2
        q = Questionnaire(**{f: a == "y" for f, a in zip(QUESTION_ORDER, raw)})
        rec = recommend(q)
        print(f"Recommended model: {rec.model}")
        print(rec.rationale)
        return 0
    interactive_guide()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xpop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the subcommands that read a benchmark config: (name, function, help)
    for name, func, help_text in (
        ("synth", cmd_synth, "generate a synthetic log + schema pair"),
        ("train", cmd_train, "train configured models; dump parameters"),
        ("evaluate", cmd_evaluate, "train and report test AUC per model"),
        ("metrics", cmd_bench, "full metric run, rendered as a table"),
        ("bench", cmd_bench, "full benchmark; writes report.csv"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="benchmark config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(func=func)

    p = sub.add_parser("encode", help="encode a log into the matrix CSV")
    p.add_argument("--log", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--max-prefix", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("report", help="render a report.csv as a table")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("guide", help="X-MOP model selection guide")
    p.add_argument(
        "--answers", default=None,
        help="batch mode: comma-separated y/n for all questions in order",
    )
    p.set_defaults(func=cmd_guide)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. An error that names a file (a missing or unreadable
    file, or a decode or parse error raised in ``reading``) prints one line
    ``<file>: <reason>`` to stderr and exits 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        if getattr(exc, "filename", None) is None:
            raise
        reason = exc.strerror if isinstance(exc, OSError) else exc
        print(f"{exc.filename}: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
