"""Spans around the calls into each layer, and the per-layer split.

Spans are held in memory — name, start, duration, span id and parent id
— and written to one JSON file when the run ends.  A layer's *self
time* is the duration of its spans minus the part of each interval that
its child spans cover; self times of different layers never overlap, so
their sum over the run's wall time is the trace coverage.

Layers are reached by wrapping their public functions and methods.  A
function is wrapped under every name a ``repro`` module holds it by,
because a caller that did ``from x import f`` at import time looks ``f``
up in its own module, not in ``x`` (``repro.fuzz.harness`` binds
``ddmin_lines`` that way).  :meth:`Instrumentation.restore` undoes every
patch.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Spans the benchmark records around its own phases.  They frame the
#: layers but are not a layer, so coverage and self times skip them.
PHASE_PREFIX = "phase."


class SpanRecorder:
    """Thread-aware in-memory span store."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> List[Tuple[str, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether this thread is currently inside a span called ``name``."""
        return any(n == name for _sid, n in self._stack())

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] += n

    @contextmanager
    def span(self, name: str) -> Iterator[str]:
        """Time the block as a span; yields its id."""
        stack = self._stack()
        with self._lock:
            span_id = f"b{next(self._ids)}"
        parent = stack[-1][0] if stack else None
        start = time.time()
        began = time.perf_counter()
        stack.append((span_id, name))
        try:
            yield span_id
        finally:
            stack.pop()
            self.add({"span_id": span_id, "parent_id": parent, "name": name,
                      "start": start, "dur": time.perf_counter() - began,
                      "thread": threading.current_thread().name})

    def add(self, span: Dict[str, Any]) -> None:
        with self._lock:
            self.spans.append(span)

    def add_replica_trace(self, doc: Dict[str, Any], parent_id: str) -> int:
        """Join one ``GET /v1/trace/<id>`` document under a client span.

        The replica's root span becomes a child of ``parent_id``; its
        other spans keep their own parents.  Returns the spans added.
        """
        spans = doc.get("spans", [])
        for s in spans:
            self.add({"span_id": "r" + s["span_id"],
                      "parent_id": ("r" + s["parent_id"]
                                    if s.get("parent_id") else parent_id),
                      "name": "replica." + s["name"],
                      "start": float(s["start_s"]),
                      "dur": float(s["elapsed_s"]),
                      "thread": f"pid{s.get('process', '?')}",
                      "attrs": {"trace_id": s["trace_id"],
                                **s.get("attrs", {})}})
        return len(spans)

    # -- analysis ------------------------------------------------------------
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """``{span name: {"self_s", "calls"}}`` over every recorded span."""
        children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s["parent_id"] is not None:
                children[s["parent_id"]].append(
                    (s["start"], s["start"] + s["dur"]))
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0})
        for s in self.spans:
            lo, hi = s["start"], s["start"] + s["dur"]
            covered = covered_length(
                [(max(a, lo), min(b, hi)) for a, b in children[s["span_id"]]])
            row = out[s["name"]]
            row["self_s"] += max(0.0, s["dur"] - covered)
            row["calls"] += 1
        return dict(out)

    def coverage(self, wall_start: float, wall_end: float) -> float:
        """Share of ``[wall_start, wall_end]`` inside some layer span."""
        intervals = [(max(s["start"], wall_start),
                      min(s["start"] + s["dur"], wall_end))
                     for s in self.spans
                     if not s["name"].startswith(PHASE_PREFIX)]
        wall = wall_end - wall_start
        return covered_length(intervals) / wall if wall > 0 else 0.0

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        doc = {"trace_id": self.trace_id, "counters": dict(self.counters),
               "spans": sorted(self.spans, key=lambda s: s["start"])}
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, default=str)


def covered_length(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class Instrumentation:
    """Wraps layer entry points in spans; :meth:`restore` undoes it."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def _wrap(self, original: Callable, span_name: Optional[str],
              before: Optional[Callable[..., Any]] = None) -> Callable:
        recorder = self.recorder

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            if span_name is None:
                return original(*args, **kwargs)
            with recorder.span(span_name):
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", span_name)
        return wrapper

    def function(self, module: str, attr: str, span_name: Optional[str],
                 before: Optional[Callable[..., Any]] = None) -> None:
        """Wrap ``module.attr`` under every name a repro module binds it
        (``span_name=None``: run ``before`` only, record no span)."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrap(original, span_name, before)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def method(self, owner: Any, attr: str, span_name: str,
               before: Optional[Callable[..., Any]] = None) -> None:
        """Wrap a method on a class (or one instance)."""
        original = getattr(owner, attr)
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        self._undo.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, self._wrap(original, span_name, before))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


_ABSENT = object()

#: Modules whose import binds a layer function by name; imported before
#: wrapping so every binding exists when the scan runs.
_BINDING_MODULES = (
    "repro.frontend", "repro.passes", "repro.ir", "repro.graphs",
    "repro.embeddings.ir2vec", "repro.pipeline", "repro.models.features",
    "repro.verify.itac", "repro.verify.must", "repro.verify.parcoach",
    "repro.verify.mpi_checker", "repro.verify.static.analyzer",
    "repro.core.localize", "repro.fuzz.harness", "repro.fuzz.oracles",
    "repro.repair.gate", "repro.repair.runner",
)


def install_layers(instr: Instrumentation) -> None:
    """Wrap every layer the per-layer table names."""
    for name in _BINDING_MODULES:
        importlib.import_module(name)
    rec = instr.recorder

    def count(counter: str, n: Callable[..., int] = lambda a, k: 1):
        def before(args, kwargs):
            rec.count(counter, n(args, kwargs))
            return args, kwargs
        return before

    def tree_fit(args, kwargs):
        if rec.inside("ml.ga_select"):
            rec.count("ml.ga_fitness_evals")
        return args, kwargs

    def ddmin(args, kwargs):
        # ddmin_lines(source, predicate, ...): count predicate calls.
        source, predicate, *rest = args

        def counted(candidate: str) -> bool:
            rec.count("fuzz.reduce_tests")
            return predicate(candidate)

        return (source, counted, *rest), kwargs

    from repro.embeddings.ir2vec import IR2VecEncoder
    from repro.fuzz.oracles import OracleBench
    from repro.ml.decision_tree import DecisionTreeClassifier
    from repro.ml.genetic import GeneticFeatureSelector
    from repro.models.gnn_model import GNNModel
    from repro.mpi.simulator import MPISimulator

    instr.function("repro.frontend.compiler", "compile_c", "frontend.compile")
    instr.function("repro.passes.pipeline", "run_pipeline", "passes.run")
    instr.function("repro.ir.verifier", "verify_module", "ir.verify")
    instr.function("repro.graphs.programl", "build_program_graph",
                   "graphs.build")
    instr.function("repro.embeddings.ir2vec", "default_encoder",
                   "embeddings.seed_table")
    # A seed-table *build* is the one TransE training run inside it.
    instr.function("repro.embeddings.transe", "train_seed_embeddings", None,
                   count("embeddings.seed_table_calls"))
    instr.method(IR2VecEncoder, "encode_batch", "embeddings.encode",
                 count("embeddings.encode_modules",
                       lambda a, k: len(a[1] if len(a) > 1
                                        else k["modules"])))
    instr.method(DecisionTreeClassifier, "fit", "ml.tree_fit", tree_fit)
    instr.method(DecisionTreeClassifier, "predict", "ml.tree_predict")
    instr.method(GeneticFeatureSelector, "select", "ml.ga_select")
    instr.method(GNNModel, "fit", "models.gnn_fit")
    instr.method(GNNModel, "predict", "models.gnn_predict")
    instr.method(MPISimulator, "run", "mpi.simulate")
    instr.method(OracleBench, "verdicts", "verify.oracles")
    instr.function("repro.verify.static.analyzer", "analyze_module",
                   "verify.static")
    instr.function("repro.fuzz.harness", "check_source", "fuzz.check_source")
    instr.function("repro.fuzz.reduce", "ddmin_lines", "fuzz.reduce", ddmin)
    instr.function("repro.repair.gate", "run_gate", "repair.gate")
    instr.function("repro.repair.gate", "deterministic_compile",
                   "repair.determinism")

