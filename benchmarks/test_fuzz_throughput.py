"""Throughput smoke benchmark for the differential fuzz harness.

Times one seeded campaign over the full per-program differential check
(compile O0 + O2, graph, embedding, simulation, all five oracles) and
emits ``BENCH_fuzz.json``.  The timed region includes loading the
pinned IR2vec seed table (tens of milliseconds), so the number is
campaign throughput as a fresh process sees it — the figure that decides
how much scenario coverage a CI minute buys.

Hardware-independent assertions only (campaign cleanliness and
determinism); wall-clock expectations are gated behind
``REPRO_BENCH_STRICT=1`` like the other benchmark suites.
"""

import json
import os
import time

from repro.fuzz import FuzzConfig, run_campaign

from benchmarks.conftest import emit

_BUDGET = 48
_OUT = "BENCH_fuzz.json"


def test_fuzz_campaign_throughput():
    config = FuzzConfig(seed=7, budget=_BUDGET, include_known_bugs=False)

    t0 = time.time()
    doc = run_campaign(config)
    elapsed = time.time() - t0

    assert doc["counts"]["programs"] == _BUDGET
    assert doc["counts"]["hard_failures"] == 0
    assert doc["counts"]["generator_rejects"] == 0

    # Determinism is the harness's core contract: a second identical
    # campaign costs the same work and yields the same document.
    assert run_campaign(config) == doc

    results = {
        "budget": _BUDGET,
        "seed": config.seed,
        "seconds": round(elapsed, 3),
        "programs_per_s": round(_BUDGET / elapsed, 2),
        "counts": doc["counts"],
        "strict": os.environ.get("REPRO_BENCH_STRICT") == "1",
    }
    with open(_OUT, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
    emit("Fuzz campaign throughput",
         f"{_BUDGET} programs in {elapsed:.2f}s "
         f"({results['programs_per_s']}/s) -> {_OUT}")

    if os.environ.get("REPRO_BENCH_STRICT") == "1":
        # Generous: the smoke campaign must beat one program a second.
        assert results["programs_per_s"] > 1.0
