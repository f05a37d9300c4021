"""In-memory span tracer that wraps xpop's public entry points.

The benchmark installs the tracer around a pipeline call by rebinding
names in the modules that call them (``xpop.cli``, ``xpop.harness``,
``xpop.models`` and, for set-up, ``xpop.synth``), so no file of the
program changes. Every wrapped call records one span: name, start, end,
the id of the enclosing span and the run id shared by one pipeline call.
Spans stay in memory until ``write_jsonl`` is called at the end of a run.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


def _rows(args, result):
    return {"rows": args[1].n_rows}


def _matrix_shape(args, result):
    return {"rows": result.n_rows, "cols": result.n_columns}


def _events(args, result):
    return {"events": sum(len(t.events) for t in result.traces)}


def targets():
    """(module, attribute, span name, counter) for every wrapped entry point."""
    from xpop import cli, harness, models, synth

    return [
        (cli, "cmd_bench", "cli.bench", None),
        (cli, "load_config", "harness.load_config", None),
        (cli, "run_benchmark", "harness.run_benchmark", None),
        (cli, "render_report", "harness.render_report", None),
        (synth, "generate_log", "synth.generate_log", None),
        (harness, "generate_log", "synth.generate_log", None),
        (harness, "parse_csv", "eventlog.parse_csv", _events),
        (harness, "temporal_split", "preprocess.temporal_split", None),
        (harness, "fit_vocabulary", "preprocess.fit_vocabulary", None),
        (harness, "extract_prefixes", "preprocess.extract_prefixes", None),
        (harness, "aggregate_encode", "preprocess.aggregate_encode", _matrix_shape),
        (harness, "train_logreg", "models.train_logreg", None),
        (harness, "train_tree", "models.train_tree", None),
        (harness, "train_forest", "models.train_forest", None),
        (harness, "train_llm", "models.train_llm", None),
        (harness, "auc", "models.auc", None),
        (harness, "permutation_importance", "explain.permutation_importance", None),
        (harness, "coefficient_weights", "explain.weights", None),
        (harness, "impurity_weights", "explain.weights", None),
        (harness, "load_external_weights", "explain.weights", None),
        (harness, "functional_complexity", "metrics.functional_complexity", None),
        (harness, "parsimony", "metrics.rank", None),
        (harness, "irc", "metrics.rank", None),
        (harness, "lod_at_k", "metrics.rank", None),
        (models, "predict_proba", "models.predict_proba", _rows),
        (models, "external_predict", "models.external_predict", _rows),
        (models, "auc", "models.auc", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.update(counter(args, result))
            return result

        return traced

    def install(self, run_id) -> None:
        self.run_id = run_id
        for module, attr, name, counter in targets():
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_run(spans) -> dict:
    """run id -> layer name -> {"s", "self_s", "calls", <counts>}.

    ``s`` sums the outermost spans of a name (a span nested in one of the
    same name is not counted twice); ``self_s`` is each span's duration
    minus its direct children's, which nest without overlap in one thread.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    runs: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for s in spans:
        layer = runs[s["run"]][s["name"]]
        dur = s["end"] - s["start"]
        layer["calls"] += 1
        layer["self_s"] += dur - child_time[s["id"]]
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != s["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            layer["s"] += dur
        for key in ("rows", "events"):
            if key in s:
                layer[key] += s[key]
        if "cols" in s:
            layer["cols"] = max(layer["cols"], s["cols"])
    return runs


def layer_value(runs, pipeline_runs, setup_runs, layer, quantity) -> float:
    """Median of one layer quantity over the pipeline calls that reached the
    layer; a layer only set-up reaches (input generation) falls back to the
    set-up runs; a layer no run reaches reads 0."""
    for group in (pipeline_runs, setup_runs):
        values = []
        for run in group:
            entry = runs.get(run, {}).get(layer)
            if not entry:
                continue
            if quantity == "rows_per_s":
                values.append(entry["rows"] / entry["s"])
            elif quantity == "events_per_s":
                values.append(entry["events"] / entry["s"])
            else:
                values.append(entry[quantity])
        if values:
            return float(statistics.median(values))
    return 0.0


def counts(runs, run) -> dict:
    """Exact per-layer counts of one run, for the repeat check."""
    return {
        layer: {k: int(v) for k, v in entry.items() if k in ("calls", "rows", "cols", "events")}
        for layer, entry in sorted(runs.get(run, {}).items())
    }
