"""The benchmark's workloads: inputs from the seed, timed phases, checks.

``ir2vec-detect`` and ``gnn-recheck`` train the paper's two detectors on
an MBI split, serve the artifact from a freshly spawned replica and
check held-out MBI plus all of CorrBench through ``POST /v1/check``.
``ir2vec-detect`` also runs the fuzz-repair phases in process: a seeded
differential fuzz campaign, then repair of generated mutants.  README.md
says why each was chosen.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from http.client import HTTPException
from typing import Any, Dict, Iterator, List, Optional, Tuple

from perfbench.replica import Replica, metric_series, post_check
from perfbench.stats import (
    ELASTICITY,
    calibration_kernel,
    percentile,
    speed_factor,
)
from perfbench.tracing import (
    PHASE_PREFIX,
    Instrumentation,
    SpanRecorder,
    install_layers,
)

# -- workload sizes ----------------------------------------------------------
#: Stratified draw of the default MBI suite the detectors train on.  The
#: training set does not depend on the seed, so every run fits the same
#: model and accuracy varies only with the seeded check set.
TRAIN_SIZE = 300
#: Stratified draw of a seeded MBI suite checked as held-out samples
#: (programs whose source is also in the training set are dropped).
HELD_OUT_SIZE = 300
#: GA feature selection for the decision tree (population, generations).
GA_SHAPE = (40, 3)
#: GNN training epochs.  One keeps a fit at ~3 s so that train_s can
#: be the fastest of five; more epochs only scale the epoch loop.
GNN_EPOCHS = 1
#: Seed of the IR2vec seed-embedding table (the featurizer's default).
EMBEDDING_SEED = 42
#: Closed-loop clients; equals ``nproc`` of the reference host.
CLIENTS = 2
#: The check phase's latency and throughput are medians over this many
#: consecutive segments of at least MIN_SEGMENT answers (enough for a
#: p95 with 10 samples beyond it).
CHECK_SEGMENTS = 8
MIN_SEGMENT = 200
#: Generated programs per fuzz campaign, and programs turned into
#: repair tasks (mutants plus correct controls).
FUZZ_BUDGET = 150
REPAIR_BUDGET = 60
#: Kernel runs per calibration point.
CALIBRATION_RUNS = 8
#: A calibration point this recent still counts as "before" the next
#: scaled phase, so back-to-back phases share one.
FRESH_S = 2.0


@dataclass(frozen=True)
class CheckItem:
    name: str
    source: str
    label: str          # ground truth
    suite: str          # "mbi" or "corr"


@dataclass
class Outcome:
    """What one workload run produced."""

    metrics: Dict[str, Tuple[float, str]]
    layers: Dict[str, float]
    attempted: int
    failed: int
    failures: List[str]
    detail: Dict[str, Any]


_warm = False


def calibration_point() -> List[float]:
    """``CALIBRATION_RUNS`` calibration-kernel times, after one unmeasured
    run in a process's first call (its first run pays for lazy numpy
    set-up and fresh pages)."""
    global _warm
    if not _warm:
        calibration_kernel()
        _warm = True
    return [calibration_kernel() for _ in range(CALIBRATION_RUNS)]


class RunContext:
    """Clock, phase timer, calibration points and (when tracing) the span
    recorder of a run."""

    def __init__(self, root: str, workdir: str, seed: int, seconds: float,
                 t0: float, t0_wall: float,
                 recorder: Optional[SpanRecorder] = None,
                 repeats: bool = True):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.t0 = t0
        self.t0_wall = t0_wall
        self.recorder = recorder
        #: Repeat the set-ups and fits that the end-to-end figures take
        #: medians or minima over; off, each runs once.
        self.repeats = repeats and recorder is None
        self.instr = Instrumentation(recorder) if recorder else None
        self.phases: Dict[str, float] = {}
        #: Every repeat of the figures that are scaled, as measured.
        self.raw: Dict[str, List[float]] = {}
        #: (perf_counter() when taken, kernel times of the point).
        self.readings: List[Tuple[float, List[float]]] = []

    @property
    def tracing(self) -> bool:
        return self.recorder is not None

    def calibrate(self) -> None:
        """Take a calibration point now."""
        with self.span("bench.calibrate"):
            runs = calibration_point()
        self.readings.append((time.perf_counter(), runs))

    def point_before(self) -> None:
        """A calibration point before a scaled figure, unless the last
        one is fresh."""
        if not self.readings or \
                time.perf_counter() - self.readings[-1][0] >= FRESH_S:
            self.calibrate()

    @contextmanager
    def phase(self, name: str, scaled: bool = False) -> Iterator[None]:
        """Time a phase; ``scaled`` also records it between calibration
        points, to be scaled to the reference speed."""
        if scaled:
            self.point_before()
        start = time.perf_counter()
        with self.span(PHASE_PREFIX + name):
            yield
        self.phases[name] = time.perf_counter() - start
        if scaled:
            self.raw.setdefault(name, []).append(self.phases[name])
            self.calibrate()

    def speed_factor(self) -> float:
        """Measured seconds to reference seconds, over the whole run."""
        return speed_factor([v for _t, runs in self.readings for v in runs])

    def scale(self, name: str, measured: float) -> float:
        """``measured`` seconds of figure ``name`` at the reference speed."""
        return measured * self.speed_factor() ** ELASTICITY[name]

    def scaled(self, name: str) -> List[float]:
        """Every repeat of ``name`` at the reference speed."""
        return [self.scale(name, raw) for raw in self.raw[name]]

    def span(self, name: str):
        """A span around a call into a layer; no-op without tracing."""
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name)

    def setup_done(self) -> None:
        """``setup_s``: process start until inputs and state exist."""
        self.phases["setup"] = time.perf_counter() - self.t0
        self.raw["setup"] = [self.phases["setup"]]
        if self.recorder is not None:
            self.recorder.add({
                "span_id": "setup", "parent_id": None,
                "name": PHASE_PREFIX + "setup", "start": self.t0_wall,
                "dur": self.phases["setup"], "thread": "MainThread"})

    def wall(self) -> float:
        return time.perf_counter() - self.t0

    def end_timed(self) -> float:
        """End of the measured phases: unwrap the layers, so the output
        checks that follow add no spans, and return the wall time."""
        if self.instr is not None:
            self.instr.restore()
        return self.wall()


def digest(parts: Iterator[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Workloads and their set-up
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetectSpec:
    method: str
    #: Passes over the check set per group.  The check phase sends whole
    #: groups: the first with the samples' own names, every later one with
    #: ``name#group``, so each group's first pass misses the replica's
    #: compile memo and its later passes re-send identical (name, source)
    #: pairs.  The first group is mandatory; more follow while the phase
    #: is shorter than ``--seconds``.
    passes: int
    #: Cold fits per untraced run; train_s is the fastest.  The extra
    #: fits run after the checks on renamed copies of the training set,
    #: so no memo serves them.
    train_repeats: int
    #: Set-up readings per untraced run; setup_s is their median.  One
    #: is the run's own set-up; more come from fresh probe processes
    #: (see run.py).  One where a set-up builds the seed table.
    setup_repeats: int
    #: Run the fuzz campaign and the repair tasks after training.  They
    #: encode with IR2vec, so only the workload that builds the seed
    #: table anyway can run them.
    fuzz_repair: bool


#: Repeat counts: scaling to the reference speed cancels the host's
#: slow drift, and the medians (or for fits, the minimum) of repeats
#: its bursts of a second or two.  ir2vec-detect's set-up builds the
#: seed table (8-20 s), too dear to repeat.
DETECT = {
    "ir2vec-detect": DetectSpec("ir2vec", passes=1, train_repeats=3,
                                setup_repeats=1, fuzz_repair=True),
    "gnn-recheck": DetectSpec("gnn", passes=2, train_repeats=5,
                              setup_repeats=4, fuzz_repair=False),
}

WORKLOADS = tuple(DETECT)


@dataclass
class Inputs:
    """Everything a workload generates from its seed."""

    train: Any                          # repro.datasets.Dataset
    checks: List[CheckItem]
    fuzz_config: Any = None             # repro.fuzz.harness.FuzzConfig
    fuzz_programs: List[Any] = field(default_factory=list)
    repair_tasks: List[Any] = field(default_factory=list)

    def digest(self) -> str:
        return digest(itertools.chain(
            (s.name + s.source + s.label for s in self.train.samples),
            (c.name + c.source + c.label + c.suite for c in self.checks),
            (p.name + p.source + p.expected for p in self.fuzz_programs),
            (t.name + t.source + str(t.hint) for t in self.repair_tasks)))


def inputs(workload: str, seed: int) -> Inputs:
    """The inputs of ``workload`` at ``seed``.

    The training set is a fixed stratified MBI draw; the held-out MBI
    draw (minus sources also in the training set), CorrBench, the fuzz
    programs and the repair tasks come from the seed.
    """
    from repro.datasets import load_corrbench, load_mbi

    train = load_mbi(subsample=TRAIN_SIZE)
    seen = {s.source for s in train.samples}
    held_out = [s for s in load_mbi(seed=seed,
                                    subsample=HELD_OUT_SIZE).samples
                if s.source not in seen]
    checks = ([CheckItem(s.name, s.source, s.label, "mbi")
               for s in held_out]
              + [CheckItem(s.name, s.source, s.label, "corr")
                 for s in load_corrbench(seed=seed).samples])
    out = Inputs(train, checks)
    if DETECT[workload].fuzz_repair:
        from repro.fuzz.grammar import generate_programs
        from repro.fuzz.harness import FuzzConfig
        from repro.repair.runner import generated_tasks

        out.fuzz_config = FuzzConfig(seed=seed, budget=FUZZ_BUDGET)
        out.fuzz_programs = generate_programs(out.fuzz_config.grammar(),
                                              FUZZ_BUDGET)
        # Another stream than the campaign's, so repair sees new programs.
        out.repair_tasks = generated_tasks(seed + 1_000_003, REPAIR_BUDGET,
                                           include_correct=True)
    return out


def setup(workload: str, seed: int,
          ctx: Optional["RunContext"] = None) -> Inputs:
    """The set-up of one run, which ``setup_s`` times: import the
    program, generate the inputs and build the per-process state (the
    IR2vec seed table where the workload encodes).  The workload runs
    and run.py's set-up probes both call this, so they cannot drift.
    With a tracing ``ctx`` the layers are wrapped right after import.
    """
    span = ctx.span if ctx is not None else (lambda name: nullcontext())
    with span("repro.import"):
        import repro.datasets  # noqa: F401
        import repro.engine  # noqa: F401
        import repro.pipeline  # noqa: F401
    if ctx is not None and ctx.instr is not None:
        install_layers(ctx.instr)
    with span("datasets.generate"):
        out = inputs(workload, seed)
    if DETECT[workload].method == "ir2vec":
        from repro.embeddings import ir2vec

        ir2vec.default_encoder(EMBEDDING_SEED)
    if ctx is not None:
        ctx.setup_done()
    return out


# ---------------------------------------------------------------------------
# Detect workloads
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    index: int          # into the check set
    rnd: int            # pass number, 0-based
    name: str
    status: int
    label: Optional[str]
    latency_s: float
    done: float         # perf_counter() when the answer arrived
    trace_id: str = ""
    span_id: str = ""


def _pipeline(spec: DetectSpec, engine):
    from repro.ml.genetic import GAConfig
    from repro.pipeline import DetectionPipeline

    if spec.method == "ir2vec":
        pop, gens = GA_SHAPE
        return DetectionPipeline.from_method(
            "ir2vec", embedding_seed=EMBEDDING_SEED,
            ga_config=GAConfig(population_size=pop, generations=gens),
            engine=engine)
    return DetectionPipeline.from_method("gnn", epochs=GNN_EPOCHS,
                                         engine=engine)


class _Feed:
    """Thread-safe stream of ``(index, pass, name, source)`` to send."""

    def __init__(self, items: Iterator[Tuple[int, int, str, str]]):
        self._lock = threading.Lock()
        self._items = items

    def next(self) -> Optional[Tuple[int, int, str, str]]:
        with self._lock:
            return next(self._items, None)


def _pass(checks: List[CheckItem], rnd: int, group: int, first: int = 0,
          ) -> Iterator[Tuple[int, int, str, str]]:
    """Pass ``rnd`` over the check set from sample ``first``, with the
    names of ``group`` (see ``DetectSpec.passes``)."""
    for i in range(first, len(checks)):
        name = checks[i].name
        yield i, rnd, f"{name}#{group}" if group else name, checks[i].source


def _client(ctx: RunContext, replica: Replica, feed: _Feed,
            out: List[CheckRecord]) -> None:
    conn = replica.connect()
    try:
        while True:
            item = feed.next()
            if item is None:
                return
            index, rnd, name, source = item
            with ctx.span("serve.check") as span_id:
                start = time.perf_counter()
                try:
                    status, label, trace_id = post_check(conn, name, source)
                except (OSError, HTTPException, ValueError, KeyError):
                    conn.close()
                    conn = replica.connect()
                    status, label, trace_id = 0, None, ""
                done = time.perf_counter()
            out.append(CheckRecord(index, rnd, name, status, label,
                                   done - start, done, trace_id,
                                   span_id or ""))
    finally:
        conn.close()


def _run_clients(ctx: RunContext, replica: Replica, feed: _Feed,
                 ) -> List[CheckRecord]:
    out: List[CheckRecord] = []
    threads = [threading.Thread(target=_client, name=f"client{i}",
                                args=(ctx, replica, feed, out))
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return out


def run_detect(ctx: RunContext, workload: str) -> Outcome:
    spec = DETECT[workload]
    inp = setup(workload, ctx.seed, ctx)
    checks = inp.checks

    from repro.datasets.labels import CORRECT
    from repro.engine import EngineConfig, ExecutionEngine

    engine = ExecutionEngine(EngineConfig(workers=0))
    if ctx.instr is not None:
        ctx.instr.method(engine, "featurize_sources", "engine.featurize")
    pipe = _pipeline(spec, engine)
    with ctx.phase("train", scaled=True):
        pipe.fit(inp.train, labels="type")
    artifact = os.path.join(ctx.workdir, "model.rpd")
    with ctx.span("pipeline.save"):
        pipe.save(artifact)
    fuzz = _fuzz_repair_phases(ctx, inp) if spec.fuzz_repair else None

    records: List[CheckRecord] = []
    scrapes: List[Dict[str, Any]] = []
    replica_spans = 0
    replica: Optional[Replica] = None
    try:
        replica = _first_answer(ctx, artifact, checks[0], records)
        n_ready = len(records)

        if ctx.tracing:
            scrapes.append(replica.get_json("/metrics"))
        # check_cpu_ms: the replica's CPU time over whole groups of passes
        # (like work: each group's first pass misses the compile memo, the
        # rest hit it), scaled like a phase.
        ctx.point_before()
        check_start = time.perf_counter()
        deadline = check_start + ctx.seconds
        cpu_start = replica.cpu_s()
        with ctx.phase("check"):
            for rnd in range(spec.passes):
                records += _run_clients(ctx, replica, _Feed(_pass(
                    checks, rnd, 0, first=1 if rnd == 0 else 0)))
                if ctx.tracing:
                    scrapes.append(replica.get_json("/metrics"))
            # Further groups fill --seconds for the latency figures.
            group = 1
            while time.perf_counter() < deadline:
                records += _run_clients(ctx, replica, _Feed(
                    itertools.chain.from_iterable(
                        _pass(checks, group * spec.passes + p, group)
                        for p in range(spec.passes))))
                group += 1
        ctx.raw["check_cpu"] = [replica.cpu_s() - cpu_start]
        ctx.calibrate()
        # The timed work ends here; fetching the replica's traces is the
        # benchmark's own bookkeeping.
        wall_end = ctx.end_timed()
        n_checked = len(records)
        replica_spans += _join_traces(ctx, replica, records)
    finally:
        if replica is not None:
            replica.stop()
    if ctx.repeats:
        for k in range(1, spec.train_repeats):
            _cold_fit(ctx, spec, inp.train, k)

    # -- output checks (outside the timed phases) ---------------------------
    expected = [r.label for r in pipe.predict_batch(
        [(c.name, c.source) for c in checks])]
    # One more point, so the run's speed factor also samples its end.
    ctx.calibrate()
    failures: List[str] = []
    failed = 0
    first_pass: Dict[int, Optional[str]] = {}
    for r in records:
        if r.rnd == 0:
            first_pass[r.index] = r.label
    for r in records:
        problem = None
        if r.status != 200:
            problem = f"HTTP {r.status}"
        elif r.label != expected[r.index]:
            problem = (f"replica said {r.label!r}, in-process "
                       f"predict_batch said {expected[r.index]!r}")
        elif r.rnd > 0 and r.label != first_pass.get(r.index):
            problem = (f"pass {r.rnd + 1} said {r.label!r}, pass 1 said "
                       f"{first_pass.get(r.index)!r}")
        if problem:
            failed += 1
            if len(failures) < 20:
                failures.append(f"{r.name}: {problem}")
    missing = len(checks) - len(first_pass)
    if missing:
        failed += missing
        failures.append(f"{missing} check-set samples never answered")
    attempted = len(records)

    mbi_ok = [first_pass.get(i) == c.label
              for i, c in enumerate(checks) if c.suite == "mbi"]
    corr_ok = [(first_pass.get(i) == CORRECT) == (c.label == CORRECT)
               for i, c in enumerate(checks) if c.suite == "corr"]
    answered = [r for r in records[n_ready:n_checked] if r.status == 200]
    p50, p95, rate, n = _check_stats(answered, check_start)
    n_check_phase = n_checked - n_ready
    latency = {"check_p50_ms": p50, "check_p95_ms": p95,
               "check_samples_per_s": rate, "latency_samples": n}
    layers: Dict[str, float] = {
        "engine.tasks": engine.counters["tasks"],
        "engine.chunks": engine.counters["chunks"],
        "serve.replica_peak_rss_mb": replica.peak_rss_mb,
        "wall_end_s": wall_end,
    }
    factor = ctx.speed_factor()
    check_cpu_s = ctx.scaled("check_cpu")[0] / n_check_phase
    serve_ready_s = ctx.scaled("serve_ready")[0]
    layers["serve_ready_s"] = serve_ready_s
    # Time of a fixed amount of work, for the tracing overhead: the first
    # fit, the fuzz-repair phases and the replica's CPU time for one group
    # of passes, all scaled.  Set-up and serve_ready are left out: on
    # ir2vec-detect each is one seed-table build whose noise would swamp
    # the overhead.
    fixed_work_s = (ctx.scaled("train")[0]
                    + check_cpu_s * len(checks) * spec.passes)
    detail: Dict[str, Any] = {
        "input_digest": inp.digest(),
        "raw_s": ctx.raw, "speed_factor": factor, "calibrations_s": [
            round(statistics.median(runs), 5) for _t, runs in ctx.readings],
        "serve_ready_s": serve_ready_s,
        "checks": len(records), "check_set": len(checks),
        "check": latency, "passes": max(r.rnd for r in records) + 1,
        "mbi_held_out": len(mbi_ok), "corr": len(corr_ok),
        "train_samples": len(inp.train),
    }
    if fuzz is not None:
        f_attempted, f_failed, f_failures, f_detail = _fuzz_repair_checks(
            ctx, fuzz, inp)
        attempted += f_attempted
        failed += f_failed
        failures += f_failures
        layers["repair.accept_ratio"] = f_detail.pop("accept_ratio")
        detail["fuzz_repair"] = f_detail
        fixed_work_s += ctx.scaled("fuzz")[0] + ctx.scaled("repair")[0]
    detail["fixed_work_s"] = fixed_work_s
    if ctx.tracing:
        layers.update(_serve_layers(scrapes, spec))
        layers["trace.replica_spans"] = replica_spans
    metrics = {
        "setup_s": (ctx.scaled("setup")[0], "s"),
        "train_s": (min(ctx.scaled("train")), "s"),
        "check_cpu_ms": (1000.0 * check_cpu_s, "ms"),
        "mbi_type_accuracy": (sum(mbi_ok) / len(mbi_ok), "ratio"),
        "corr_binary_accuracy": (sum(corr_ok) / len(corr_ok), "ratio"),
        "ok_rate": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return Outcome(metrics, layers, attempted, failed, failures, detail)


def _first_answer(ctx: RunContext, artifact: str, first: CheckItem,
                  records: List[CheckRecord]) -> Replica:
    """Spawn the replica and send it one check alone: the
    ``serve_ready`` phase.  Returns the replica, still running."""
    replica = Replica(artifact, os.path.join(ctx.root, "src"),
                      os.path.join(ctx.workdir, "replica.log"),
                      trace=ctx.tracing)
    try:
        with ctx.phase("serve_ready", scaled=True):
            with ctx.span("serve.spawn"):
                replica.start()
                replica.wait_listening()
            _client(ctx, replica, _Feed(_pass([first], 0, 0)), records)
    except BaseException:
        replica.stop()
        raise
    return replica


def _check_stats(answered: List[CheckRecord], start: float,
                 ) -> Tuple[float, float, float, int]:
    """(p50 ms, p95 ms, checks/s, n) of the answered checks.

    The check phase is cut into up to ``CHECK_SEGMENTS`` consecutive
    runs of answers, each large enough for its own p95; every figure is
    the median over the segments, so a few seconds of host interference
    move one segment and not the result.
    """
    answered = sorted(answered, key=lambda r: r.done)
    n = len(answered)
    k = max(1, min(CHECK_SEGMENTS, n // MIN_SEGMENT))
    p50s, p95s, rates = [], [], []
    for i in range(k):
        seg = answered[i * n // k:(i + 1) * n // k]
        latencies = [r.latency_s * 1000.0 for r in seg]
        p50s.append(percentile(latencies, 50)[0])
        p95s.append(percentile(latencies, 95)[0])
        rates.append(len(seg) / (seg[-1].done - start))
        start = seg[-1].done
    return (statistics.median(p50s), statistics.median(p95s),
            statistics.median(rates), n)


def _cold_fit(ctx: RunContext, spec: DetectSpec, train, k: int) -> None:
    """One more ``train`` phase, on a copy of ``train`` whose dataset and
    sample names carry ``#k``: same sources, so the same features and
    model, but no compile or feature memo entry matches it."""
    from dataclasses import replace

    from repro.datasets import Dataset
    from repro.engine import EngineConfig, ExecutionEngine

    copy = Dataset(f"{train.name}#{k}",
                   [replace(s, name=f"{s.name}#{k}") for s in train.samples])
    pipe = _pipeline(spec, ExecutionEngine(EngineConfig(workers=0)))
    with ctx.phase("train", scaled=True):
        pipe.fit(copy, labels="type")


def _join_traces(ctx: RunContext, replica: Replica,
                 records: List[CheckRecord]) -> int:
    """Attach each not yet joined request's replica trace to its client
    span; returns the replica spans added."""
    added = 0
    if not ctx.tracing:
        return added
    for r in records:
        if r.trace_id and r.span_id:
            added += ctx.recorder.add_replica_trace(
                replica.get_json(f"/v1/trace/{r.trace_id}"), r.span_id)
            r.span_id = ""
    return added


def _serve_layers(scrapes: List[Dict[str, Any]], spec: DetectSpec,
                  ) -> Dict[str, float]:
    final = scrapes[-1]
    batch = metric_series(final, "repro_serve_batch_seconds")
    sizes = metric_series(final, "repro_serve_batch_size")
    out = {
        "serve.queue_wait_ms_p50": 1000.0 * metric_series(
            final, "repro_serve_queue_wait_seconds")["p50"],
        "serve.batch_exec_ms_p50": 1000.0 * batch["p50"],
        "serve.mean_batch_size": (sizes["sum"] / sizes["count"]
                                  if sizes["count"] else 0.0),
        "serve.rejected": metric_series(
            final, "repro_serve_rejected_samples_total").get("value", 0.0),
        "serve.repeat_exec_ratio": 0.0,
    }
    if spec.passes > 1:
        # Exec seconds per sample in pass 2+ over pass 1, from /metrics
        # deltas: scrapes are [after first check, after pass 1, after 2+].
        per_sample = []
        for before, after in zip(scrapes, scrapes[1:]):
            b0 = metric_series(before, "repro_serve_batch_seconds")["sum"]
            b1 = metric_series(after, "repro_serve_batch_seconds")["sum"]
            s0 = metric_series(before, "repro_serve_batch_size")["sum"]
            s1 = metric_series(after, "repro_serve_batch_size")["sum"]
            per_sample.append((b1 - b0) / (s1 - s0) if s1 > s0 else 0.0)
        if per_sample[0] > 0:
            out["serve.repeat_exec_ratio"] = per_sample[-1] / per_sample[0]
    return out


# ---------------------------------------------------------------------------
# Fuzz + repair phases
# ---------------------------------------------------------------------------

def _fuzz_repair_phases(ctx: RunContext, inp: Inputs):
    """The seeded fuzz campaign, then the repair tasks, each a timed
    phase on a serial engine of its own: (campaign doc, repair entries)."""
    from repro.engine import EngineConfig, ExecutionEngine
    from repro.fuzz.harness import run_campaign
    from repro.repair.runner import RepairConfig, repair_tasks

    engine = ExecutionEngine(EngineConfig(workers=0))
    with ctx.phase("fuzz", scaled=True):
        doc = run_campaign(inp.fuzz_config, engine=engine)
    with ctx.phase("repair", scaled=True):
        entries = repair_tasks(inp.repair_tasks, RepairConfig(),
                               engine=engine)
    return doc, entries


def _fuzz_repair_checks(ctx: RunContext, result, inp: Inputs):
    """(attempted, failed, failures, detail) of the fuzz-repair phases.

    Failures: hard failures, replay mismatches, generator rejects and
    trusted-oracle disagreements of the campaign, and any patch proposed
    for a correct control.
    """
    from repro.fuzz.harness import campaign_failed
    from repro.repair.runner import RepairConfig, build_report

    doc, entries = result
    report = build_report(entries, RepairConfig(), seed=ctx.seed,
                          budget=len(inp.repair_tasks))
    counts = doc["counts"]
    failures: List[str] = []
    if campaign_failed(doc):
        failures.append("campaign_failed: hard failures, replay mismatches "
                        "or generator rejects")
    bad_fuzz = (counts["hard_failures"] + counts["replay_mismatches"]
                + counts["generator_rejects"] + counts["disagreements"]
                + counts["static_disagreements"])
    for f in doc["findings"]:
        if f["status"] != "rejected" and len(failures) < 20:
            failures.append(f"{f['name']}: {f['status']} {f['kind']} "
                            f"({f['oracle']})")
    false_patches = [e["name"] for e in entries
                     if e["operator_hint"] is None and e["patch"]]
    for name in false_patches[:10]:
        failures.append(f"{name}: patch proposed for a correct control")
    gate_calls = sum(1 + e["attempts"] for e in entries)
    detail = {
        "fuzz_programs_per_s": counts["programs"] / ctx.scaled("fuzz")[0],
        "repair_cases_per_s": len(entries) / ctx.scaled("repair")[0],
        "repair_rate": report["repair_rate"] or 0.0,
        "accept_ratio": (report["counts"]["repaired"] / gate_calls
                         if gate_calls else 0.0),
        "programs": counts["programs"], "repair_tasks": len(entries),
        "ground_truth": report["counts"]["with_ground_truth"],
        "fuzz_counts": counts,
    }
    return (counts["programs"] + len(entries),
            bad_fuzz + len(false_patches), failures, detail)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: (metric, unit, source): ``span:X`` is the self time of spans named X,
#: ``calls:X`` their number, ``counter:X`` a count the wrappers keep and
#: ``value`` a number the run measured itself.
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("repro.import_s", "s", "span:repro.import"),
    ("datasets.generate_s", "s", "span:datasets.generate"),
    ("embeddings.seed_table_s", "s", "span:embeddings.seed_table"),
    ("embeddings.seed_table_calls", "count",
     "counter:embeddings.seed_table_calls"),
    ("frontend.compile_s", "s", "span:frontend.compile"),
    ("frontend.compile_calls", "count", "calls:frontend.compile"),
    ("passes.run_s", "s", "span:passes.run"),
    ("ir.verify_s", "s", "span:ir.verify"),
    ("graphs.build_s", "s", "span:graphs.build"),
    ("graphs.build_calls", "count", "calls:graphs.build"),
    ("embeddings.encode_s", "s", "span:embeddings.encode"),
    ("embeddings.encode_modules", "count",
     "counter:embeddings.encode_modules"),
    ("engine.featurize_s", "s", "span:engine.featurize"),
    ("engine.tasks", "count", "value"),
    ("engine.chunks", "count", "value"),
    ("pipeline.save_s", "s", "span:pipeline.save"),
    ("ml.tree_fit_s", "s", "span:ml.tree_fit"),
    ("ml.tree_fit_calls", "count", "calls:ml.tree_fit"),
    ("ml.tree_predict_s", "s", "span:ml.tree_predict"),
    ("ml.ga_select_s", "s", "span:ml.ga_select"),
    ("ml.ga_fitness_evals", "count", "counter:ml.ga_fitness_evals"),
    ("models.gnn_fit_s", "s", "span:models.gnn_fit"),
    ("models.gnn_predict_s", "s", "span:models.gnn_predict"),
    ("mpi.simulate_s", "s", "span:mpi.simulate"),
    ("mpi.simulate_calls", "count", "calls:mpi.simulate"),
    ("verify.oracles_s", "s", "span:verify.oracles"),
    ("verify.static_s", "s", "span:verify.static"),
    ("fuzz.check_source_s", "s", "span:fuzz.check_source"),
    ("fuzz.reduce_s", "s", "span:fuzz.reduce"),
    ("fuzz.reduce_tests", "count", "counter:fuzz.reduce_tests"),
    ("repair.gate_s", "s", "span:repair.gate"),
    ("repair.gate_calls", "count", "calls:repair.gate"),
    ("repair.determinism_s", "s", "span:repair.determinism"),
    ("repair.accept_ratio", "ratio", "value"),
    # Figures of the untraced run: the fuzz-repair phases' throughputs
    # (at the reference speed) and repair rate, and the check phase's
    # client-side latencies and throughput (wall time, unscaled: each
    # request also waits out the replica's batching window).
    ("fuzz_programs_per_s", "1/s", "value"),
    ("repair_cases_per_s", "1/s", "value"),
    ("repair_rate", "ratio", "value"),
    ("check_p50_ms", "ms", "value"),
    ("check_p95_ms", "ms", "value"),
    ("check_samples_per_s", "1/s", "value"),
    ("check.latency_samples", "count", "value"),
    # A fresh replica's time to first answer (scaled): on ir2vec-detect
    # one seed-table build, too dear to repeat within a run and too
    # noisy, alone, for a bound.
    ("serve_ready_s", "s", "value"),
    ("serve.spawn_s", "s", "span:serve.spawn"),
    ("serve.client_check_s", "s", "span:serve.check"),
    ("serve.queue_wait_ms_p50", "ms", "value"),
    ("serve.batch_exec_ms_p50", "ms", "value"),
    ("serve.mean_batch_size", "count", "value"),
    ("serve.rejected", "count", "value"),
    ("serve.repeat_exec_ratio", "ratio", "value"),
    ("serve.replica_peak_rss_mb", "MB", "value"),
    ("trace.replica_spans", "count", "value"),
    ("trace.coverage", "ratio", "value"),
    # Median calibration point of the traced run, to compare hosts.
    ("host.calibration_s", "s", "value"),
    ("obs.trace_overhead_pct", "%", "value"),
]


def layer_metrics(recorder: SpanRecorder, values: Dict[str, float],
                  ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric; layers a workload never reaches read 0."""
    selfs = recorder.self_times()
    out: Dict[str, Tuple[float, str]] = {}
    for name, unit, source in LAYER_METRICS:
        kind, _, key = source.partition(":")
        if kind == "span":
            value = selfs.get(key, {}).get("self_s", 0.0)
        elif kind == "calls":
            value = float(selfs.get(key, {}).get("calls", 0))
        elif kind == "counter":
            value = float(recorder.counters.get(key, 0))
        else:
            value = float(values.get(name, 0.0))
        out[name] = (value, unit)
    return out

