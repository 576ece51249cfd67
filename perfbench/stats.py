"""Percentiles, the host record and the calibration kernel that scales
timings to the reference speed."""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import sys
import time
from typing import Dict, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; fewer would make the tail a handful of outliers.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``values`` and the sample count.

    Raises ``ValueError`` when fewer than ``MIN_BEYOND`` samples lie
    beyond the percentile's rank, so a p95 over 50 samples is refused
    rather than reported as a number that two runs cannot agree on.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {beyond} beyond it; "
            f"need at least {MIN_BEYOND}")
    return ordered[rank - 1], n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


#: ``calibration_kernel()`` on the reference host (2-core Xeon share)
#: when the benchmark was defined; timings are scaled to this speed
#: (see ``speed_factor``).
REFERENCE_CALIBRATION_S = 0.055

#: How strongly each scaled figure follows the calibration kernel: a
#: figure is multiplied by ``speed_factor ** ELASTICITY[name]``.  On the
#: reference host, when the kernel ran f times faster, the fits and the
#: fuzz-repair phases (interpreter-bound, like the kernel) ran about
#: f**0.8 times faster, and the set-ups, the replica's time to first
#: answer and its CPU time per check (seed-table builds, imports,
#: sockets, memory-bound numpy) about f**0.4 times faster: the slope of
#: log(figure) on log(factor) over 65 runs per workload.  Scaling such a
#: figure by the whole factor would add the kernel's own swings to it.
ELASTICITY = {
    "train": 0.8, "fuzz": 0.8, "repair": 0.8,
    "setup": 0.4, "serve_ready": 0.4, "check_cpu": 0.4,
}


def calibration_kernel() -> float:
    """CPU seconds of a fixed mix of interpreter and numpy work.

    The same kernel on every run, and none of it is program code, so a
    change to the program never moves it.  Its parts follow the
    program's own mix: integer arithmetic, dict- and list-heavy
    bookkeeping as in a compiler's symbol tables, and small dense
    matrix products as in the classifiers.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((128, 128))
    # CPU time, with the collector off: time-sharing with other
    # processes, and collections whose cost depends on what the calling
    # process holds, would otherwise read as host speed.
    gc_was_on = gc.isenabled()
    gc.disable()
    start = time.process_time()
    acc = 0
    for i in range(250_000):
        acc += i * i % 7
    table: Dict[str, list] = {}
    for i in range(50_000):
        key = f"v{i % 997}"
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [key, 0, []]
        entry[1] += 1
        entry[2].append(i)
    order = sorted(table, key=lambda k: (-table[k][1], k))
    for _ in range(30):
        a = np.tanh(a @ a.T / 128.0)
    elapsed = time.process_time() - start
    if gc_was_on:
        gc.enable()
    if not np.isfinite(a).all() or acc <= 0 or len(order) != 997:
        raise RuntimeError("calibration kernel produced a bad result")
    return elapsed


def trimmed_mean(values: Sequence[float], cut: float = 0.2) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share."""
    ordered = sorted(values)
    k = int(len(ordered) * cut)
    return statistics.mean(ordered[k:len(ordered) - k])


def speed_factor(kernel_s: Sequence[float]) -> float:
    """The reference kernel time over this run's: what a run's measured
    seconds are multiplied by, raised to the figure's ``ELASTICITY``, to
    read as seconds at the reference speed.

    ``kernel_s`` are the calibration-kernel times of the run.  The
    shared reference host runs the same code up to twice as slowly for
    minutes at a time when its neighbours are busy, and CPU time slows
    with it (the slowdown is per instruction, not stolen time); scaling
    by the kernel's slowdown cancels that drift between runs, while a
    change to the program moves the timing and not the kernel.  A
    single kernel run moves by ±30% with bursts of the host, so the
    trimmed mean of all of them stands for the run.
    """
    return REFERENCE_CALIBRATION_S / trimmed_mean(kernel_s)


def host_record(nproc: int) -> Dict[str, object]:
    """CPU model, core counts (``nproc``: CPUs the run was given, before
    it pinned itself to one), interpreter and numpy versions, and the
    median calibration-kernel time of three runs."""
    import numpy as np

    try:
        pinned = sorted(os.sched_getaffinity(0))
    except AttributeError:
        pinned = []
    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "pinned_cpus": pinned,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "calibration_s": statistics.median(
            calibration_kernel() for _ in range(3)),
    }
