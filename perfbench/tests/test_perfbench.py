"""Tests of the benchmark itself: seeded inputs, percentiles, scaling to
the reference speed, self times, the traced run's zero-call predictions
and BENCHMARK.json's metric list.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import stats, workloads  # noqa: E402
from perfbench.stats import percentile  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Instrumentation,
    SpanRecorder,
    covered_length,
    install_layers,
)

_DIGESTS = """
import json, sys
sys.path[:0] = [{root!r}, {src!r}]
from perfbench.workloads import WORKLOADS, inputs
print(json.dumps({{w: [inputs(w, 5).digest(), inputs(w, 6).digest()]
                  for w in WORKLOADS}}))
"""


def _digests_in_fresh_process():
    code = _DIGESTS.format(root=ROOT, src=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         stdout=subprocess.PIPE, text=True, timeout=120)
    return json.loads(out.stdout)


def test_seed_determines_inputs():
    first = _digests_in_fresh_process()
    second = _digests_in_fresh_process()
    assert first == second                      # same seed, same inputs
    for workload, (seed5, seed6) in first.items():
        assert seed5 != seed6, workload         # another seed, new inputs


def test_percentile_reports_count_and_refuses_thin_tails():
    values = list(range(1, 201))
    assert percentile(values, 95) == (190, 200)
    assert percentile(values, 50) == (100, 200)
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(values[:199], 95)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_scaled_phases_use_the_whole_runs_calibration(monkeypatch, tmp_path):
    import time

    ref = stats.REFERENCE_CALIBRATION_S
    points = iter([[2 * ref], [4 * ref], [ref]])
    monkeypatch.setattr(workloads, "calibration_point", lambda: next(points))
    ctx = workloads.RunContext(ROOT, str(tmp_path), 1, 1.0,
                               time.perf_counter(), time.time())
    with ctx.phase("train", scaled=True):    # points 2x and 4x slower
        pass
    # The point after "train" is fresh, so "setup" starts from it.
    with ctx.phase("setup", scaled=True):    # points 4x slower and 1x
        pass
    assert [v for _t, v in ctx.readings] == [[2 * ref], [4 * ref], [ref]]
    # The run's kernel times average 7/3 times the reference; each figure
    # follows that by its own elasticity.
    assert ctx.speed_factor() == pytest.approx(3 / 7)
    for name in ("train", "setup"):
        assert ctx.scaled(name) == [pytest.approx(
            ctx.raw[name][0] * (3 / 7) ** stats.ELASTICITY[name])]
    assert stats.trimmed_mean([1, 2, 3, 4, 100]) == 3


def test_self_time_subtracts_covered_child_time():
    rec = SpanRecorder("t")
    span = {"thread": "MainThread"}
    rec.add({**span, "span_id": "a", "parent_id": None, "name": "outer",
             "start": 0.0, "dur": 10.0})
    # Two overlapping children cover [1, 5]; one runs past the parent.
    rec.add({**span, "span_id": "b", "parent_id": "a", "name": "inner",
             "start": 1.0, "dur": 3.0})
    rec.add({**span, "span_id": "c", "parent_id": "a", "name": "inner",
             "start": 2.0, "dur": 3.0})
    rec.add({**span, "span_id": "d", "parent_id": "a", "name": "late",
             "start": 9.0, "dur": 4.0})
    selfs = rec.self_times()
    assert selfs["outer"] == {"self_s": 5.0, "calls": 1}
    assert selfs["inner"]["calls"] == 2
    assert covered_length([(0, 1), (0.5, 2), (3, 4)]) == 3.0
    assert rec.coverage(0.0, 20.0) == pytest.approx(13.0 / 20.0)


def test_wrapping_reaches_import_time_bindings_and_restores():
    import repro.fuzz.harness as harness
    import repro.fuzz.reduce as reduce

    original = reduce.ddmin_lines
    instr = Instrumentation(SpanRecorder("t"))
    install_layers(instr)
    try:
        assert harness.ddmin_lines is reduce.ddmin_lines
        assert harness.ddmin_lines is not original
        harness.ddmin_lines("a\nb\n", lambda src: "a" in src)
        assert instr.recorder.counters["fuzz.reduce_tests"] > 0
    finally:
        instr.restore()
    assert harness.ddmin_lines is original is reduce.ddmin_lines


def test_benchmark_json_matches_the_metrics_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _src in workloads.LAYER_METRICS]
    names = {m["name"] for m in spec["end_to_end"]}
    assert "setup_s" in names
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- the traced run's zero-call predictions ----------------------------------

#: (workload, layers the per-layer table predicts stay at 0 calls).
ZERO_CALLS = {
    "ir2vec-detect": ("models.gnn_fit", "models.gnn_predict"),
    "gnn-recheck": ("embeddings.seed_table", "ml.tree_fit",
                    "ml.tree_predict", "ml.ga_select", "mpi.simulate",
                    "fuzz.check_source", "repair.gate"),
}
#: Layers idle during ir2vec-detect's fuzz-repair phases.
FUZZ_REPAIR_IDLE = ("ml.tree_fit", "ml.tree_predict", "ml.ga_select",
                    "models.gnn_fit", "models.gnn_predict", "serve.check",
                    "serve.spawn")


@pytest.fixture
def small_workloads(monkeypatch):
    """Every workload at a few samples, so a traced run takes seconds
    (plus the seed-table builds the ir2vec replica cannot skip)."""
    import repro.datasets

    corrbench = repro.datasets.load_corrbench
    monkeypatch.setattr(repro.datasets, "load_corrbench",
                        lambda seed: corrbench(seed=seed, subsample=12))
    monkeypatch.setattr(workloads, "TRAIN_SIZE", 40)
    monkeypatch.setattr(workloads, "HELD_OUT_SIZE", 24)
    monkeypatch.setattr(workloads, "GA_SHAPE", (6, 1))
    monkeypatch.setattr(workloads, "GNN_EPOCHS", 1)
    monkeypatch.setattr(workloads, "FUZZ_BUDGET", 8)
    monkeypatch.setattr(workloads, "REPAIR_BUDGET", 8)


def _calls(spans, window=None):
    """Calls per span name, of the spans that start inside ``window``."""
    calls = {}
    for s in spans:
        if window is None or window[0] <= s["start"] <= window[1]:
            calls[s["name"]] = calls.get(s["name"], 0) + 1
    return calls


@pytest.mark.parametrize("workload", sorted(ZERO_CALLS))
def test_traced_run_holds_zero_call_predictions(workload, small_workloads,
                                                tmp_path):
    import time

    rec = SpanRecorder("t")
    # 4 s of checks: enough samples beyond the p95 of the small check set.
    ctx = workloads.RunContext(ROOT, str(tmp_path), 3, 4.0,
                               time.perf_counter(), time.time(), rec)
    try:
        outcome = workloads.run_detect(ctx, workload)
    finally:
        ctx.instr.restore()
    assert outcome.failed == 0, outcome.failures
    calls = _calls(rec.spans)
    for layer in ZERO_CALLS[workload]:
        assert calls.get(layer, 0) == 0, (workload, layer)
    assert calls["serve.check"] == outcome.detail["checks"]
    assert outcome.layers["trace.replica_spans"] > 0
    if workload == "ir2vec-detect":
        assert rec.counters["fuzz.reduce_tests"] > 0
        assert calls["mpi.simulate"] > 0 and calls["repair.gate"] > 0
        for phase in ("phase.fuzz", "phase.repair"):
            (span,) = [s for s in rec.spans if s["name"] == phase]
            in_phase = _calls(rec.spans,
                              (span["start"], span["start"] + span["dur"]))
            for layer in FUZZ_REPAIR_IDLE:
                assert in_phase.get(layer, 0) == 0, (phase, layer)
