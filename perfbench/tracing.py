"""Spans around the program's public functions, recorded from outside the program.

A :class:`Tracer` replaces each listed function with a wrapper that records a
span (name, start, end, parent span, thread, run id) and a few counters taken
at the same boundary. A function is rebound in every ``synvec`` module that
imports it by name, so calls between modules are seen too; two methods are
patched on their classes. Spans stay in memory until :meth:`Tracer.dump`.

Counters are computed after a span's end time is taken, so they add to the
parent's time, not to the span's own.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

SYNVEC_MODULES = (
    "synvec",
    "synvec.tensor_store",
    "synvec.vector_ops",
    "synvec.report",
    "synvec.sweep_harness",
    "synvec.toy_experiment",
    "synvec.cli",
)


def _nbytes(tmap) -> int:
    return int(tmap.data_nbytes)


def _train_counters(args, kwargs, result):
    init, data, config = (_arg(args, kwargs, i, n)
                          for i, n in enumerate(("init", "data", "config")))
    key = hashlib.sha1()
    for arr in (init.weights, init.bias, data.features, data.labels):
        key.update(arr.tobytes())
    key.update(repr(config).encode())
    return {"sgd_steps": config.epochs * math.ceil(len(data) / config.batch_size),
            "key": key.hexdigest()}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


# (module, attribute, span name, counters(args, kwargs, result) or None)
TARGETS = (
    ("synvec.tensor_store", "read_checkpoint", "tensor_store.read", None),
    ("synvec.tensor_store", "write_checkpoint", "tensor_store.write",
     lambda a, k, r: {"bytes": _nbytes(a[0])}),
    ("synvec.tensor_store", "TensorMap.non_finite_tensors", "tensor_store.nonfinite_scan",
     lambda a, k, r: {"bytes": _nbytes(a[0])}),
    ("synvec.tensor_store", "fingerprint", "tensor_store.fingerprint",
     lambda a, k, r: {"content": bool(k.get("include_content", False))}),
    ("synvec.vector_ops", "compute_task_vector", "vector_ops.compute_task_vector",
     lambda a, k, r: {"bytes": 3 * _nbytes(a[0])}),
    ("synvec.vector_ops", "apply_task_vector", "vector_ops.apply_task_vector",
     lambda a, k, r: {"bytes": 0 if _arg(a, k, 2, "lam") == 0 else 3 * _nbytes(a[0])}),
    ("synvec.vector_ops", "ensemble_average", "vector_ops.ensemble_average", None),
    ("synvec.vector_ops", "cosine_similarity", "vector_ops.cosine_similarity", None),
    ("synvec.vector_ops", "norm_stats", "vector_ops.norm_stats", None),
    ("synvec.vector_ops", "TaskVector.__post_init__", "vector_ops.taskvector_validate", None),
    ("synvec.report", "build_similarity_report", "report.build_similarity_report", None),
    ("synvec.sweep_harness", "invoke_evaluator", "sweep_harness.invoke_evaluator", None),
    ("synvec.sweep_harness", "run_lambda_sweep", "sweep_harness.run_lambda_sweep",
     lambda a, k, r: {"failures": len(r.failures), "points": len(r.records) + len(r.failures)}),
    ("synvec.sweep_harness", "run_domain_ablation", "sweep_harness.run_domain_ablation",
     lambda a, k, r: {"failures": len(r.failures),
                      "points": sum(len(p.per_seed) for p in r.points) + len(r.failures)}),
    ("synvec.toy_experiment", "train", "toy_experiment.train", _train_counters),
    ("synvec.toy_experiment", "generate_toy_data", "toy_experiment.generate_toy_data", None),
    ("synvec.toy_experiment", "evaluate_error", "toy_experiment.evaluate_error", None),
)


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            thread = threading.get_ident()
            with tracer._lock:
                stack = tracer._stacks.setdefault(thread, [])
                # A span opened in a worker thread belongs to whatever the
                # main thread is waiting in (the sweep's thread pool).
                outer = stack or tracer._stacks.get(tracer._main) or [None]
                parent = outer[-1]
                span_id = next(tracer._ids)
                stack.append(span_id)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": span_id, "parent": parent, "name": name, "start": start,
                        "end": end, "thread": thread, "run": tracer.run_id, "ok": ok}
                if ok and counters is not None:
                    span.update(counters(args, kwargs, result))
                with tracer._lock:
                    tracer.spans.append(span)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in SYNVEC_MODULES]
        for module_name, attr, name, counters in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(getattr(cls, method), name, counters))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def summarize(spans: list[dict], workers: int) -> tuple[dict, dict]:
    """Per-layer metrics, as name -> (value, unit), and calls per span name,
    from one workload's spans.

    A span's self time is its duration minus that of its children in the
    same thread; children in the sweep's worker threads overlap their parent
    rather than nest in it.
    """
    named: dict[str, list[dict]] = defaultdict(list)
    children: dict[tuple, list[dict]] = defaultdict(list)
    by_id = {(s["run"], s["id"]): s for s in spans}
    for span in spans:
        named[span["name"]].append(span)
        children[(span["run"], span["parent"])].append(span)

    def self_time(span: dict) -> float:
        nested = children[(span["run"], span["id"])]
        return _duration(span) - sum(_duration(c) for c in nested if c["thread"] == span["thread"])

    def ancestor(span: dict, names: tuple[str, ...]) -> dict | None:
        parent = by_id.get((span["run"], span["parent"]))
        while parent is not None and parent["name"] not in names:
            parent = by_id.get((parent["run"], parent["parent"]))
        return parent

    def total(name: str, measure=_duration) -> float:
        return sum(measure(s) for s in named[name])

    def counter(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in named[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    write_s = total("tensor_store.write", self_time)
    write_bytes = counter("tensor_store.write", "bytes")
    kernels = ("vector_ops.compute_task_vector", "vector_ops.apply_task_vector")
    kernel_s = sum(total(name, self_time) for name in kernels)
    kernel_bytes = sum(counter(name, "bytes") for name in kernels)

    sweep_runs = ("sweep_harness.run_lambda_sweep", "sweep_harness.run_domain_ablation")
    point_work = ("vector_ops.apply_task_vector", "tensor_store.write")
    materialize_s = sum(_duration(s) for name in point_work for s in named[name]
                        if ancestor(s, sweep_runs) is not None)
    sweep_busy = sum(_duration(s) for name in point_work + ("sweep_harness.invoke_evaluator",)
                     for s in named[name] if ancestor(s, sweep_runs[:1]) is not None)
    sweep_wall = total(sweep_runs[0])

    train = named["toy_experiment.train"]
    ablation_train = [s for s in train if s["run"].startswith("toy_ablation.")]
    run_train = [s for s in train if s["run"] == "toy_run"]
    train_s = total("toy_experiment.train")
    sgd_steps = counter("toy_experiment.train", "sgd_steps")

    def distinct(calls: list[dict]) -> float:
        return ratio(len({s.get("key") for s in calls}), len(calls))

    metrics = {
        "tensor_store.read_s": (total("tensor_store.read"), "s"),
        "tensor_store.read_calls": (len(named["tensor_store.read"]), "count"),
        "tensor_store.write_s": (write_s, "s"),
        "tensor_store.write_bytes": (write_bytes, "bytes"),
        "tensor_store.write_gbps": (ratio(write_bytes, write_s) / 1e9, "GB/s"),
        "tensor_store.nonfinite_scan_s": (total("tensor_store.nonfinite_scan"), "s"),
        "tensor_store.nonfinite_scan_bytes": (counter("tensor_store.nonfinite_scan", "bytes"),
                                              "count"),
        "tensor_store.fingerprint_s": (sum(_duration(s) for s in named["tensor_store.fingerprint"]
                                           if s.get("content")), "s"),
        "vector_ops.compute_task_vector_s": (total(kernels[0], self_time), "s"),
        "vector_ops.apply_task_vector_s": (total(kernels[1], self_time), "s"),
        "vector_ops.elementwise_gbps": (ratio(kernel_bytes, kernel_s) / 1e9, "GB/s"),
        "vector_ops.ensemble_average_s": (total("vector_ops.ensemble_average", self_time), "s"),
        "vector_ops.cosine_similarity_s": (total("vector_ops.cosine_similarity"), "s"),
        "vector_ops.cosine_calls": (len(named["vector_ops.cosine_similarity"]), "count"),
        "vector_ops.norm_stats_s": (total("vector_ops.norm_stats"), "s"),
        "vector_ops.taskvector_validate_s": (total("vector_ops.taskvector_validate"), "s"),
        "vector_ops.taskvector_validations": (len(named["vector_ops.taskvector_validate"]),
                                              "count"),
        "report.self_s": (total("report.build_similarity_report", self_time), "s"),
        "sweep_harness.evaluator_s": (total("sweep_harness.invoke_evaluator"), "s"),
        "sweep_harness.evaluator_calls": (len(named["sweep_harness.invoke_evaluator"]), "count"),
        "sweep_harness.materialize_s": (materialize_s, "s"),
        "sweep_harness.worker_utilization": (ratio(sweep_busy, workers * sweep_wall), "ratio"),
        "sweep_harness.failed_points": (sum(counter(name, "failures") for name in sweep_runs),
                                        "count"),
        "toy_experiment.train_s": (train_s, "s"),
        "toy_experiment.train_calls": (len(train), "count"),
        "toy_experiment.sgd_steps": (sgd_steps, "count"),
        "toy_experiment.sgd_step_us": (ratio(train_s, sgd_steps) * 1e6, "us"),
        "toy_experiment.distinct_train_ratio": (distinct(ablation_train), "ratio"),
        "toy_experiment.toy_run_distinct_train_ratio": (distinct(run_train), "ratio"),
        "toy_experiment.generate_data_s": (total("toy_experiment.generate_toy_data"), "s"),
        "toy_experiment.evaluate_error_s": (total("toy_experiment.evaluate_error"), "s"),
    }
    calls = {name: len(group) for name, group in named.items()}
    calls["tensor_store.fingerprint+content"] = sum(
        1 for s in named["tensor_store.fingerprint"] if s.get("content"))
    return metrics, calls
