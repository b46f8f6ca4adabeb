"""Span recorder, layer wrappers and the per-layer rollup of a traced run.

The traced run wraps each layer's public entry points from outside the
program: :func:`install` patches every name listed in :data:`LAYERS`
where its callers look it up, before ``repro.__main__.main`` runs.
Engine workers are forked, so they inherit the wrappers.  Spans are
buffered in memory per process and written out once, when the process
(or a forked worker) ends, as NDJSON records::

    {"run": RUN, "pid": PID, "id": "PID:N", "name": NAME,
     "start": T0, "end": T1, "parent": "PID:M" | null}

Times come from ``time.monotonic``, which is one system-wide clock on
Linux, so spans of different processes can be compared.  A span's
``parent`` may live in another process: a worker's first spans point at
the span that forked it.

:func:`rollup` turns the records into totals, self times and counts.  A
self time is a span's duration minus the part of it covered by child
spans *of the same process*; a child in another process ran
concurrently and did not use this process's time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Environment variables the benchmark sets for a traced child process.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
RUN_ID_ENV = "PERFBENCH_RUN_ID"
LAUNCHED_AT_ENV = "PERFBENCH_LAUNCHED_AT"


class Recorder:
    """In-memory span and counter buffer of one process."""

    def __init__(self, out_dir: Optional[str], run_id: str, role: str) -> None:
        self.out_dir = out_dir
        self.run_id = run_id
        self.role = role
        self.pid = os.getpid()
        self.records: List[Dict[str, Any]] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: span open in the parent process when this one was forked.
        self._inherited: Optional[str] = None
        #: LAYERS entries this version of the program does not have.
        self.missing: List[str] = []

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Tuple[str, str, Optional[str], float]:
        stack = self._stack()
        parent = stack[-1] if stack else self._inherited
        span_id = f"{self.pid}:{next(self._ids)}"
        stack.append(span_id)
        return span_id, name, parent, time.monotonic()

    def end(self, token: Tuple[str, str, Optional[str], float]) -> None:
        end = time.monotonic()
        span_id, name, parent, start = token
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        self.add_span(name, start, end, parent, span_id)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[str] = None,
        span_id: Optional[str] = None,
    ) -> None:
        self.records.append(
            {
                "run": self.run_id,
                "pid": self.pid,
                "id": span_id or f"{self.pid}:{next(self._ids)}",
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
            }
        )

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += int(n)

    def after_fork_in_child(self) -> None:
        stack = self._stack()
        self._inherited = stack[-1] if stack else self._inherited
        self._local = threading.local()
        self.pid = os.getpid()
        self.role = "worker"
        self.records = []
        self.counts = defaultdict(int)
        self._ids = itertools.count(1)

    def flush(self) -> None:
        """Write the buffer to ``<out_dir>/spans-<pid>.ndjson`` once."""
        if self.out_dir is None or (not self.records and not self.counts):
            return
        path = Path(self.out_dir) / f"spans-{self.pid}-{time.monotonic_ns()}.ndjson"
        lines = [
            json.dumps(
                {"kind": "process", "run": self.run_id, "pid": self.pid,
                 "role": self.role, "missing": self.missing}
            )
        ]
        lines += [json.dumps({"kind": "span", **r}) for r in self.records]
        lines.append(
            json.dumps(
                {"kind": "counts", "run": self.run_id, "pid": self.pid,
                 "role": self.role, "counts": dict(self.counts)}
            )
        )
        path.write_text("\n".join(lines) + "\n")
        self.records = []
        self.counts = defaultdict(int)


# -- counter hooks: what each wrapper counts from its call --------------------


def _count_verify(rec: Recorder, args, kwargs, result) -> None:
    rec.count("store.hits" if result else "store.misses")


def _count_run(rec: Recorder, args, kwargs, result) -> None:
    rec.count("sim.instructions", getattr(result, "instructions", 0))


def _count_dispatch(rec: Recorder, args, kwargs, result) -> None:
    rec.count("pipeline.chunks")
    rec.count("pipeline.events", len(args[1]))


def _count_interleave(rec: Recorder, args, kwargs, result) -> None:
    rec.count("profiling.interleave_events", len(args[1]))


def _count_replay(rec: Recorder, args, kwargs, result) -> None:
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    rec.count("predictors.replay_events", len(trace))


def _count_graph(rec: Recorder, args, kwargs, result) -> None:
    rec.count("analysis.graph_nodes", result.node_count)
    rec.count("analysis.graph_edges", result.edge_count)


def _count_job(rec: Recorder, args, kwargs, result) -> None:
    job = args[1]
    rec.count("engine.jobs")
    rec.count("engine.jobs_failed", job.error is not None)
    rec.count("engine.jobs_retried", max(0, job.attempts - 1))


#: (module, attribute path, span name or None for count-only, count hook).
#: Span names are the ``repro`` module names of the layers.
LAYERS: Tuple[Tuple[str, str, Optional[str], Optional[Callable]], ...] = (
    ("repro.workloads.build", "build_workload", "workloads.build", None),
    ("repro.isa.program", "Program.to_image", "isa.encode", None),
    ("repro.eval.engine", "artifact_digest", "engine.digest", None),
    ("repro.eval.engine", "compute_job_digest", "engine.digest", None),
    ("repro.eval.engine", "prefetch_artifacts", "engine.prefetch", None),
    ("repro.eval.engine", "EngineStats.record", None, _count_job),
    ("repro.eval.engine", "WorkerHandle.__init__", "engine.spawn", None),
    ("repro.eval.engine", "ArtifactStore.verify", "store.verify", _count_verify),
    ("repro.eval.engine", "ArtifactStore.load", "store.load", None),
    ("repro.eval.engine", "ArtifactStore.put", "store.put", None),
    ("repro.eval.engine", "ArtifactStore.wait_for_writer", "store.claim_wait", None),
    ("repro.workloads.build", "run_workload", "sim.run", _count_run),
    ("repro.sim.compile", "compile_program", "sim.codegen", None),
    ("repro.pipeline.bus", "BranchEventBus._dispatch", "pipeline.dispatch", _count_dispatch),
    ("repro.pipeline.bus", "BranchEventBus.replay", "predictors.replay", _count_replay),
    ("repro.pipeline.consumers", "InterleaveConsumer.on_chunk", "profiling.interleave", _count_interleave),
    ("repro.pipeline.consumers", "TraceBuilder.on_chunk", "trace.builder", None),
    ("repro.analysis.conflict_graph", "build_conflict_graph", "analysis.graph_build", _count_graph),
    ("repro.analysis.metrics", "working_set_metrics", "analysis.working_sets", None),
    ("repro.allocation.coloring", "color_graph", "allocation.color", None),
    ("repro.allocation.sizing", "required_bht_size", "allocation.sizing", None),
    ("repro.allocation.allocator", "BranchAllocator.allocate", "allocation.allocate", None),
    ("repro.allocation.classified", "ClassifiedBranchAllocator.allocate", "allocation.allocate", None),
    ("repro.eval.report", "render_table", "report.render", None),
)


def _wrap(rec: Recorder, fn: Callable, name: Optional[str], hook: Optional[Callable]) -> Callable:
    is_classmethod = isinstance(fn, classmethod)
    inner = fn.__func__ if is_classmethod else fn

    def wrapper(*args, **kwargs):
        token = rec.begin(name) if name else None
        try:
            result = inner(*args, **kwargs)
        finally:
            if token is not None:
                rec.end(token)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    wrapper.__wrapped__ = inner  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(inner, "__name__", "wrapper")
    return classmethod(wrapper) if is_classmethod else wrapper


def _patch(rec: Recorder, module_name: str, path: str, name: Optional[str],
           hook: Optional[Callable]) -> None:
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, attr, _wrap(rec, cls.__dict__[attr], name, hook))
        return
    original = getattr(module, path)
    wrapped = _wrap(rec, original, name, hook)
    # Callers that did ``from module import name`` hold their own
    # reference: patch it in every loaded module that has it.
    for other in list(sys.modules.values()):
        if getattr(other, path, None) is original:
            setattr(other, path, wrapped)


def install(rec: Recorder) -> None:
    """Patch every :data:`LAYERS` entry where its callers look it up.

    An entry the program no longer has is skipped and listed in the
    process record, so its layer reads 0 instead of breaking the run.
    """
    for module_name, path, name, hook in LAYERS:
        try:
            _patch(rec, module_name, path, name, hook)
        except (ImportError, AttributeError, KeyError):
            rec.missing.append(f"{module_name}.{path}")
    engine = importlib.import_module("repro.eval.engine")
    worker_entry = engine._worker_entry

    def traced_worker_entry(*args, **kwargs):
        token = rec.begin("engine.worker")
        try:
            return worker_entry(*args, **kwargs)
        finally:
            rec.end(token)
            rec.flush()  # multiprocessing ends a child with os._exit

    engine._worker_entry = traced_worker_entry
    os.register_at_fork(after_in_child=rec.after_fork_in_child)


# -- rollup ------------------------------------------------------------------


def read_records(trace_dir: Path) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for path in sorted(Path(trace_dir).rglob("spans-*.ndjson")):
        for line in path.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def rollup(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-name totals, self times and counts of one traced run.

    Returns a dict with:

    * ``total[name]`` — summed duration of the spans of *name*, counting
      only the outermost one where spans of one name nest;
    * ``self[name]`` — summed self time of every span of *name*;
    * ``calls[name]`` — number of outermost spans of *name*;
    * ``counts[name]`` — counters summed over processes;
    * ``by_role`` — the same three span tables per process role
      (``cli``, ``serve``, ``worker``);
    * ``child_calls[(parent name, child name)]`` — spans of one name
      whose parent is a span of the other;
    * ``missing`` — entry points no process could wrap.
    """
    spans = [r for r in records if r.get("kind", "span") == "span"]
    counts: Dict[str, int] = defaultdict(int)
    roles: Dict[int, str] = {}
    missing: set = set()
    for r in records:
        if r.get("kind") == "counts":
            for key, value in r["counts"].items():
                counts[key] += value
        if r.get("kind") in ("process", "counts"):
            roles[r["pid"]] = r["role"]
        missing.update(r.get("missing", ()))
    by_id = {s["id"]: s for s in spans}
    children: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def nested_in_same_name(s: Dict[str, Any]) -> bool:
        parent = by_id.get(s["parent"]) if s["parent"] else None
        while parent is not None:
            if parent["name"] == s["name"]:
                return True
            parent = by_id.get(parent["parent"]) if parent["parent"] else None
        return False

    def tables() -> Dict[str, Dict[str, float]]:
        return {"total": defaultdict(float), "self": defaultdict(float),
                "calls": defaultdict(int)}

    out = tables()
    by_role: Dict[str, Dict[str, Dict[str, float]]] = defaultdict(tables)
    child_calls: Dict[Tuple[str, str], int] = defaultdict(int)
    for s in spans:
        duration = s["end"] - s["start"]
        own = [
            (c["start"], c["end"])
            for c in children.get(s["id"], ())
            if c["pid"] == s["pid"]
        ]
        self_time = duration - _covered(own, s["start"], s["end"])
        role = roles.get(s["pid"], "worker")
        for table in (out, by_role[role]):
            table["self"][s["name"]] += self_time
            if not nested_in_same_name(s):
                table["total"][s["name"]] += duration
                table["calls"][s["name"]] += 1
        parent = by_id.get(s["parent"]) if s["parent"] else None
        if parent is not None:
            child_calls[(parent["name"], s["name"])] += 1
    out["counts"] = counts
    out["by_role"] = by_role
    out["child_calls"] = child_calls
    out["missing"] = sorted(missing)
    return out
