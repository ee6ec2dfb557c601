"""Outside-in tracer for the t4c package.

The tracer wraps the public functions of each t4c module from outside:
every module namespace that holds a reference to a traced function gets a
timing wrapper in its place, ``Tensor.backward`` is wrapped on the class,
and every tensor an autodiff op returns gets its backward closure wrapped
too. Nothing in the package itself changes.

Spans (name, start, end, parent, arguments) are kept in memory and turned
into the per-layer table and a Chrome trace-event file when the run ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Modules whose public functions are traced, in the order the layers sit.
MODULES = (
    "autodiff", "model", "seggraph", "training", "evaluation",
    "checkpoint", "clustering", "data", "baselines",
)
# Private or unexported functions that are layer boundaries nonetheless.
EXTRA_FUNCTIONS = {"training": ("load_store",)}

# Autodiff ops whose forward and backward are timed separately.
OPS = (
    "matmul", "add", "mul", "relu", "concat", "embedding_lookup", "reshape",
    "getitem", "weighted_cross_entropy", "mse", "mean_neighbor_aggregate",
)
CLI_STAGES = ("synth", "fit-clusters", "train", "predict", "eval-core", "eval-eta", "baseline")

# Layer functions reported with calls and self seconds.
TIMED = (
    "model.forward", "model.compute_loss", "model.predict_probabilities",
    "model.make_label_arrays", "model.init_params",
    "seggraph.build_line_graph", "seggraph.fit_normalization", "seggraph.assemble_features",
    "training.train_one", "training.ensemble_predict", "training.load_store",
    "evaluation.core_metric", "evaluation.eta_metric", "evaluation.eta_from_speeds",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
    "data.generate_synthetic_city", "data.load_dataset",
    "clustering.fit_clusters", "clustering.build_prior_matrices",
    "clustering.save_cluster_model", "clustering.load_cluster_model",
    "baselines.node_gnn_baseline",
    "autodiff.aggregation_matrix", "autodiff.Tensor.backward", "autodiff.adam_step",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units: dict[str, str] = {}
    for op in OPS:
        units[f"autodiff.{op}.calls"] = "count"
        units[f"autodiff.{op}.fwd_s"] = "s"
        units[f"autodiff.{op}.bwd_s"] = "s"
    units["autodiff.mean_neighbor_aggregate.flops"] = "flops_computed"
    units["autodiff.aggregation_matrix.bytes"] = "bytes_computed"
    units["autodiff.aggregation_matrix.nnz"] = "count"
    units["autodiff.aggregation_matrix.per_forward"] = "count"
    units["autodiff.aggregation_matrix.per_graph"] = "count"
    units["autodiff.ops_per_step"] = "count"
    for op in OPS:
        units[f"autodiff.ops_per_step.{op}"] = "count"
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    units["seggraph.assemble_features.calls_per_record"] = "count"
    units["training.validation_s"] = "s"
    units["evaluation.core_metric.scored"] = "count"
    units["checkpoint.save_checkpoint.bytes"] = "bytes"
    units["clustering.assign_cluster.calls"] = "count"
    for stage in CLI_STAGES:
        units[f"cli.{stage}.s"] = "s"
        units[f"cli.{stage}.self_s"] = "s"
    units["cli.predict.bytes_written"] = "bytes"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """Records nested spans around the wrapped t4c functions.

    Single-threaded by design: the benchmark drives the pipeline from one
    thread, so one span stack is enough.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self.spans: list[tuple[int, int | None, str, float, float, dict | None]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []
        self._graphs: dict[int, tuple[object, str]] = {}

    # -- recording ----------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, args) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, time.perf_counter(), args))

    @contextlib.contextmanager
    def span(self, name: str, args: dict | None = None):
        """A span around code the benchmark itself runs (a CLI stage)."""
        if not self.active:
            yield args
            return
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield args
        finally:
            self._close(sid, parent, name, t0, args)

    @contextlib.contextmanager
    def suspended(self):
        """Run the benchmark's own bookkeeping without recording it."""
        was_active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was_active

    def _wrap(self, fn, name: str, annotate=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            t0 = time.perf_counter()
            extra = None
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    extra = annotate(result, args, kwargs)
                return result
            finally:
                tracer._close(sid, parent, name, t0, extra)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every loaded t4c module."""
        import t4c.autodiff as ad

        replacements: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules[f"t4c.{short}"]
            names = list(getattr(module, "__all__", ())) + list(EXTRA_FUNCTIONS.get(short, ()))
            for attr in names:
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                replacements[id(fn)] = self._wrap(fn, f"{short}.{attr}", self._annotator(short, attr))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "t4c" or module_name.startswith("t4c.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        backward = ad.Tensor.backward
        self._restore.append((ad.Tensor, "backward", backward))
        ad.Tensor.backward = self._wrap(backward, "autodiff.Tensor.backward")
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _annotator(self, module: str, fn: str):
        if module == "autodiff" and fn in OPS:
            return self._op_annotator(fn)
        if (module, fn) == ("autodiff", "aggregation_matrix"):
            return lambda result, args, kwargs: self._graph_args(args[0] if args else kwargs["neighbors"])
        if (module, fn) == ("checkpoint", "save_checkpoint"):
            return lambda result, args, kwargs: {"bytes": os.path.getsize(result)}
        if (module, fn) == ("evaluation", "core_metric"):
            return lambda result, args, kwargs: {"scored": result.n_scored}
        return None

    def _op_annotator(self, op: str):
        bwd_name = f"autodiff.{op}.bwd"

        def annotate(result, args, kwargs):
            out = result[0] if isinstance(result, tuple) else result
            if getattr(out, "_backward", None) is not None:
                out._backward = self._wrap(out._backward, bwd_name)
            if op == "mean_neighbor_aggregate":
                return {"n": int(out.data.shape[0]), "h": int(out.data.shape[1])}
            return None

        return annotate

    def _graph_args(self, neighbors) -> dict:
        # Keep the object so its id is not reused while the run lasts.
        cached = self._graphs.get(id(neighbors))
        if cached is None or cached[0] is not neighbors:
            digest = hashlib.sha256(repr(tuple(tuple(row) for row in neighbors)).encode()).hexdigest()
            cached = (neighbors, digest)
            self._graphs[id(neighbors)] = cached
        return {
            "n": len(neighbors),
            "nnz": sum(len(row) for row in neighbors),
            "graph": cached[1][:16],
        }

    # -- output -------------------------------------------------------------

    def write_chrome_trace(self, path, other: dict) -> None:
        """Complete ("X") events, one per span, loadable by about:tracing and Perfetto."""
        base = min((s[3] for s in self.spans), default=0.0)
        pid = os.getpid()
        events = []
        for sid, parent, name, t0, t1, args in sorted(self.spans, key=lambda s: (s[3], s[0])):
            event_args = {"run": self.run_id, "id": sid, "parent": parent}
            if args:
                event_args.update(args)
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((t0 - base) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": pid,
                "tid": 1,
                "args": event_args,
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Fold the spans into the per-layer table (without the overhead rows)."""
        # A span whose call raised has no arguments.
        spans = sorted(((*s[:5], s[5] or {}) for s in self.spans), key=lambda s: (s[3], s[0]))
        by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _name, t0, t1, _args in spans:
            if parent is not None:
                child_time[parent] += t1 - t0

        def ancestors(span):
            parent = span[1]
            while parent is not None:
                span = by_id[parent]
                yield span[2]
                parent = span[1]

        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for sid, _parent, name, t0, t1, _args in spans:
            calls[name] += 1
            total_s[name] += t1 - t0
            self_s[name] += (t1 - t0) - child_time[sid]

        out: dict[str, float] = {}
        for op in OPS:
            out[f"autodiff.{op}.calls"] = calls[f"autodiff.{op}"]
            out[f"autodiff.{op}.fwd_s"] = self_s[f"autodiff.{op}"]
            out[f"autodiff.{op}.bwd_s"] = self_s[f"autodiff.{op}.bwd"]
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = self_s[name]
        out["clustering.assign_cluster.calls"] = calls["clustering.assign_cluster"]
        out["evaluation.core_metric.scored"] = sum(
            s[5].get("scored", 0) for s in spans if s[2] == "evaluation.core_metric"
        )
        out["checkpoint.save_checkpoint.bytes"] = sum(
            s[5].get("bytes", 0) for s in spans if s[2] == "checkpoint.save_checkpoint"
        )
        for stage in CLI_STAGES:
            out[f"cli.{stage}.s"] = total_s[f"cli.{stage}"]
            out[f"cli.{stage}.self_s"] = self_s[f"cli.{stage}"]
        predict_stages = [s for s in spans if s[2] == "cli.predict"]
        out["cli.predict.bytes_written"] = sum(s[5].get("bytes_written", 0) for s in predict_stages)

        # The dense operator of the largest graph: computed, not measured.
        builds = [s for s in spans if s[2] == "autodiff.aggregation_matrix" and s[5]]
        largest = max(builds, key=lambda s: s[5]["n"], default=None)
        n = largest[5]["n"] if largest else 0
        aggregates = [s[5] for s in spans if s[2] == "autodiff.mean_neighbor_aggregate" and s[5].get("n") == n]
        out["autodiff.aggregation_matrix.bytes"] = 8 * n * n
        out["autodiff.aggregation_matrix.nnz"] = largest[5]["nnz"] if largest else 0
        out["autodiff.mean_neighbor_aggregate.flops"] = 2 * n * n * aggregates[0]["h"] if aggregates else 0
        forwards = calls["model.forward"]
        in_forward = sum(1 for s in builds if "model.forward" in ancestors(s))
        out["autodiff.aggregation_matrix.per_forward"] = in_forward / forwards if forwards else 0.0
        graphs = {s[5]["graph"] for s in builds}
        out["autodiff.aggregation_matrix.per_graph"] = len(builds) / len(graphs) if graphs else 0.0

        # Records predicted by the predict stage against the features it built.
        records = sum(s[5].get("records", 0) for s in predict_stages)
        assembled = sum(
            1 for s in spans
            if s[2] == "seggraph.assemble_features" and "cli.predict" in ancestors(s)
        )
        out["seggraph.assemble_features.calls_per_record"] = assembled / records if records else 0.0

        # Inside train_one: a forward followed by a backward is a training
        # step; a forward with no backward after it is validation.
        op_names = {f"autodiff.{op}": op for op in OPS}
        window: Counter = Counter()
        per_step: Counter = Counter()
        steps = 0
        validation = 0.0
        pending = None
        for span in spans:
            name = span[2]
            if name not in op_names and name not in (
                "model.forward", "autodiff.Tensor.backward",
                "model.predict_probabilities", "evaluation.core_metric",
            ):
                continue
            if "training.train_one" not in ancestors(span):
                continue
            if name == "model.forward":
                if pending is not None:
                    validation += pending
                pending = span[4] - span[3]
                window.clear()
            elif name == "autodiff.Tensor.backward":
                pending = None
                steps += 1
                per_step.update(window)
                window.clear()
            elif name in op_names:
                window[op_names[name]] += 1
            else:
                validation += span[4] - span[3]
        if pending is not None:
            validation += pending
        out["training.validation_s"] = validation
        out["autodiff.ops_per_step"] = sum(per_step.values()) / steps if steps else 0.0
        for op in OPS:
            out[f"autodiff.ops_per_step.{op}"] = per_step[op] / steps if steps else 0.0
        out["trace.spans"] = len(spans)
        return out
