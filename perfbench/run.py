"""Closed-loop benchmark of ``xpop bench``.

One caller in one process runs one pipeline after another: each timed unit
is an in-process ``xpop.cli.main(["bench", "--config", CFG, "--out", DIR])``
call, from config file to a written ``report.csv``, with stdout captured.
The workload's inputs are generated from ``--seed`` during set-up; the
program only sees the generated files. BLAS is pinned to one thread.

    python3 perfbench/run.py --workload paper_1k --seed 11 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones; README.md says what each metric and output check is.
The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``, where attempted and failed count (model x repetition) cells.
"""

import os
import sys

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"  # before numpy is imported, here and in children
# numpy asks the kernel to back large arrays with huge pages; whether it gets
# them depends on the host's free memory, and a huge page counts 2 MiB
# resident however little of it is touched. Without the madvise, resident
# memory does not depend on the host.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import platform
import random
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INSTANCES = 4
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, xpop.cli; "
    "print(time.perf_counter() - t)"
)
FINITE_FIELDS = ("auc", "FC_control", "FC_case", "FC_event", "IRC", "LOD@10")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def check_report(text, workload):
    """Map each configured model to its problems ("" when the row passes)."""
    problems = {name: [] for name in workload.models}
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return {name: "empty report" for name in problems}
    header, body = rows[0], rows[1:]
    if not {"model", "excluded_reason", *FINITE_FIELDS} <= set(header):
        return {name: f"unexpected header {header}" for name in problems}
    found = {}
    for row in body:
        if len(row) != len(header):
            name = row[1] if len(row) > 1 else ""
            problems.setdefault(name, []).append(f"{len(row)} fields under a {len(header)}-field header")
            continue
        rec = dict(zip(header, row))
        if rec["model"] in found or rec["model"] not in problems:
            problems.setdefault(rec["model"], []).append("unexpected row")
            continue
        found[rec["model"]] = rec
    for name in workload.models:
        rec = found.get(name)
        if rec is None:
            problems[name].append("no row")
            continue
        if rec["excluded_reason"]:
            problems[name].append(rec["excluded_reason"])
        for field in FINITE_FIELDS:
            try:
                ok = math.isfinite(float(rec[field]))
            except ValueError:
                ok = False
            if not ok:
                problems[name].append(f"{field}={rec[field]!r} not finite")
    for a, b in workload.equal_auc:
        if a in found and b in found and found[a]["auc"] != found[b]["auc"]:
            problems[a].append(f"auc {found[a]['auc']} != {b} auc {found[b]['auc']}")
    if set(problems) != set(workload.models):  # rows for unknown models
        return {name: "report rows do not match the models" for name in workload.models}
    return {name: "; ".join(p) for name, p in problems.items()}


class Run:
    """One workload's closed loop: set-up, timed calls, checks.

    The workload is set up as INSTANCES inputs, each from its own seed drawn
    from ``--seed``; calls cycle through them, so a run's figures average
    over inputs instead of resting on one draw of the data."""

    def __init__(self, args, scratch):
        import workloads
        from xpop import cli

        self.cli = cli
        self.args = args
        self.scratch = scratch
        self.tracer = tracer.Tracer() if args.trace else None
        self.setup_fn = workloads.WORKLOADS[args.workload]
        rng = random.Random(args.seed)
        self.seeds = [rng.randrange(2**31) for _ in range(INSTANCES)]
        self.workloads = []
        self.samples = {False: defaultdict(list), True: defaultdict(list)}  # instance -> s
        self.cells = []  # (rep, model, problem)
        self.first_rows = {}  # (instance, model) -> row
        self.digests = defaultdict(list)  # instance -> sha256 of each report.csv
        self.pipeline_runs = defaultdict(list)  # instance -> traced run ids
        self.setup_runs = []

    def child(self, *argv):
        """Run a fresh interpreter on the program's sources; return its stdout."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run([sys.executable, *argv], env=env, cwd=self.scratch,
                              capture_output=True, text=True, check=True, timeout=120).stdout

    def import_time(self):
        """Seconds a fresh interpreter takes to import numpy and xpop.cli."""
        return float(self.child("-c", IMPORT_PROBE))

    def peak_rss_mb(self):
        """Peak resident MB of one ``xpop bench`` process on the first
        instance: a fresh process, so the figure carries no heap history of
        the calls before it. Its report is checked like any other."""
        out = self.scratch / "out-rss"
        error = ""
        try:
            self.child("-m", "xpop.cli", "bench", "--config", str(self.workloads[0].config),
                       "--out", str(out))
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            error = f"xpop bench process failed: {exc}"
        self.check("rss", 0, out, error)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def setup(self):
        """Set up each instance after a fresh interpreter's import; return the
        median over instances of import plus set-up seconds."""
        times = []
        for i, seed in enumerate(self.seeds):
            import_s = self.import_time()
            workdir = self.scratch / f"setup{i}"
            workdir.mkdir()
            if self.tracer:
                self.tracer.install(f"setup{i}")
                self.setup_runs.append(f"setup{i}")
            t0 = time.perf_counter()
            try:
                self.workloads.append(self.setup_fn(seed, workdir))
            finally:
                times.append(import_s + time.perf_counter() - t0)
                if self.tracer:
                    self.tracer.uninstall()
        return statistics.median(times)

    def call(self, rep, timed, traced):
        instance = rep % INSTANCES
        workload = self.workloads[instance]
        out = self.scratch / f"out{rep}"
        run_id = f"call{rep}"
        if traced:
            self.tracer.install(run_id)
        error = ""
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(["bench", "--config", str(workload.config), "--out", str(out)])
            elapsed = time.perf_counter() - t0
            if rc != 0:
                error = f"xpop bench exited {rc}"
        except Exception as exc:  # the loop keeps running; the cells fail
            elapsed = time.perf_counter() - t0
            error = f"xpop bench raised {exc!r}"
        finally:
            if traced:
                self.tracer.uninstall()
                self.pipeline_runs[instance].append(run_id)
        if timed:
            self.samples[traced][instance].append(elapsed)
        self.check(rep, instance, out, error)

    def check(self, rep, instance, out, error):
        """Check the report a call wrote to ``out``, then remove it."""
        workload = self.workloads[instance]
        text = ""
        if not error:
            try:
                raw = (out / "report.csv").read_bytes()
                text = raw.decode("utf-8")
                self.digests[instance].append(hashlib.sha256(raw).hexdigest())
            except (OSError, UnicodeDecodeError) as exc:
                error = f"report.csv unreadable: {exc}"
        shutil.rmtree(out, ignore_errors=True)
        problems = check_report(text, workload)
        rows = {r[1]: r for r in csv.reader(io.StringIO(text)) if len(r) > 1}
        for name in workload.models:
            problem = error or problems[name]
            first = self.first_rows.setdefault((instance, name), rows.get(name))
            if not problem and rows.get(name) != first:
                problem = "row differs from the first repetition"
            self.cells.append((rep, name, problem))

    def loop(self):
        """Run calls for ``--seconds``, cycling through the instances: a
        warm-up call whose time is discarded, then timed calls (alternately
        untraced and traced with ``--trace 1``). A call is started only if
        one more call is expected to end in time."""
        # warm-up, then each instance untraced (and traced, when tracing)
        min_calls = 1 + INSTANCES * (2 if self.tracer else 1)
        start = time.perf_counter()
        rep = 0
        while True:
            timed = [s for group in self.samples.values() for v in group.values() for s in v]
            elapsed = time.perf_counter() - start
            if rep >= min_calls and elapsed + statistics.median(timed) > self.args.seconds:
                break
            gc.collect()
            self.call(rep, timed=rep > 0, traced=bool(self.tracer) and rep % 2 == 0 and rep > 0)
            rep += 1

    def median(self, traced):
        """Median seconds of the timed calls, pooled over the instances."""
        return statistics.median(s for v in self.samples[traced].values() for s in v)

    def traced_runs(self):
        return [r for ids in self.pipeline_runs.values() for r in ids]


def environment(seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
    }


def per_layer_metrics(run, specs):
    """The per-layer metrics, then per instance the exact counts of each
    traced call, then the spans grouped by run."""
    runs = tracer.per_run(run.tracer.spans)
    traced = run.traced_runs()
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name == "trace.overhead_frac":
            value = run.median(traced=True) / run.median(traced=False) - 1.0
        else:
            layer, quantity = name.rsplit(".", 1)
            value = tracer.layer_value(runs, traced, run.setup_runs, layer, quantity)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    counts = {i: [tracer.counts(runs, r) for r in ids] for i, ids in sorted(run.pipeline_runs.items())}
    return metrics, counts, runs


def print_self_times(run, runs, counts):
    traced = run.traced_runs()
    layers = {name for r in traced for name in runs[r]}
    self_s = {l: tracer.layer_value(runs, traced, (), l, "self_s") for l in layers}
    print(f"{'layer':40s} {'self_s':>9s} {'calls':>6s}   (median over {len(traced)} traced calls)")
    for layer in sorted(layers, key=self_s.get, reverse=True):
        print(f"{layer:40s} {self_s[layer]:9.4f} {counts[layer]['calls']:6d}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "xpop").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no xpop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401
    import xpop.cli  # noqa: F401

    (HERE / "tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "tmp"))
    os.environ["TMPDIR"] = str(scratch)
    try:
        run = Run(args, scratch)
        setup_s = run.setup()
        rss_mb = None if args.trace else run.peak_rss_mb()
        run.loop()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [c for c in run.cells if c[2]]
    digests_repeat = all(len(set(d)) == 1 for d in run.digests.values())
    samples = {
        kind: dict(sorted(run.samples[traced].items()))
        for kind, traced in (("untraced", False), ("traced", True))
    }
    record = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "instance_seeds": run.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples_s": samples,
        "report_sha256": dict(sorted(run.digests.items())),
        "cells_attempted": len(run.cells),
        "cells_failed": [list(c) for c in failed],
        "cells_failed_frac": len(failed) / len(run.cells),
    }
    correct = not failed and digests_repeat
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    if args.trace:
        metrics, counts, runs = per_layer_metrics(run, spec["per_layer"])
        counts_repeat = all(c == per_call[0] for per_call in counts.values() for c in per_call)
        correct = correct and counts_repeat
        record.update(counts={i: c[0] for i, c in counts.items()}, counts_repeat=counts_repeat)
        run.tracer.write_jsonl(results / f"{args.workload}-seed{args.seed}.spans.jsonl")
        print_self_times(run, runs, counts[0][0])
        if not counts_repeat:
            print("counts differ between repetitions", file=sys.stderr)
    else:
        values = {
            "run_s": run.median(traced=False),
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    record["metrics"] = metrics
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for rep, name, problem in failed:
        print(f"cell failed: repetition {rep} model {name}: {problem}", file=sys.stderr)
    if not digests_repeat:
        print("report.csv digests differ between repetitions", file=sys.stderr)
    n_calls = {kind: sum(map(len, v.values())) for kind, v in samples.items()}
    print(f"workload {args.workload} seed {args.seed}: {INSTANCES} instances, "
          f"{n_calls['untraced']} untraced, {n_calls['traced']} traced calls")
    print(f"cells_failed_frac = {len(failed) / len(run.cells):.4f} ({len(failed)} of {len(run.cells)} cells)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.cells),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
