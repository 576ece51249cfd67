"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload ir2vec-detect --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` first runs the same workload untraced in a child process,
each figure once (for the tracing overhead and the per-layer figures
taken untraced), then runs it traced, also once, and prints the
per-layer metrics; the spans go to ``.perfbench/trace-<workload>-<seed>.json``.
Run from the root of a checkout: the program is imported from ``src/``.
Exit status 0 means every output check passed.
"""

import time

_T0 = time.perf_counter()          # process start, for setup_s
_T0_WALL = time.time()

import os  # noqa: E402

# One BLAS thread here and in every child (replicas, probes): a second
# BLAS thread competes with the replica and the client threads for the
# reference host's 2 cores, and its speed-up varies with host load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Every process of a run (this one and the probes, children and replicas
# that inherit it) shares one CPU: the reference host's CPUs change speed
# apart from each other as their neighbours load them, and the
# calibration kernel measures the speed of the CPU it runs on.
# The CPUs the run was given, before pinning, for the host record.
if hasattr(os, "sched_setaffinity"):
    _NPROC = len(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
else:
    _NPROC = os.cpu_count() or 1

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402
from perfbench.stats import host_record  # noqa: E402
from perfbench.tracing import SpanRecorder  # noqa: E402

CHILD_TIMEOUT_S = 170


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0,
                   help="minimum length of the detect workloads' check "
                        "phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    # Each figure once (no set-up probes or extra fits):
    # the untraced reference of a traced run needs only its fixed work.
    p.add_argument("--single", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _detail(stdout: str):
    """The detail line a run prints before its result line."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    return json.loads(lines[-2])["detail"]


def _child(args, *extra):
    """Stdout of this command run again in a fresh process.  A child that
    fails its output checks still prints its result (and this run will
    fail the same checks), so only a missing result is an error."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise RuntimeError(f"{' '.join(extra)} child exited "
                           f"{done.returncode} without a result")
    return done.stdout


def _setup_probe(args) -> int:
    """Set up only, as a fresh process would, and print setup_s."""
    ctx = workloads.RunContext(ROOT, "", args.seed, args.seconds, _T0,
                               _T0_WALL)
    workloads.setup(args.workload, args.seed, ctx)
    print(json.dumps({"setup_s": ctx.raw["setup"][0]}))
    return 0


def _probe_setups(args, n: int):
    """setup_s of ``n`` fresh probe processes, one after another."""
    return [json.loads(_child(args, "--setup-probe").strip()
                       .splitlines()[-1])["setup_s"] for _ in range(n)]


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return _setup_probe(args)

    # Where set-up is repeated, every reading comes from a fresh probe
    # process, half before the run and half after it, so a slow stretch
    # of the host moves only some of them.
    repeats = workloads.DETECT[args.workload].setup_repeats
    single = args.trace or args.single
    probes = repeats if repeats > 1 and not single else 0
    setups = _probe_setups(args, probes // 2)
    t0, t0_wall = _T0, _T0_WALL
    untraced = None
    if args.trace:
        untraced = _detail(_child(args, "--trace", "0", "--single"))
    if args.trace or setups:
        t0, t0_wall = time.perf_counter(), time.time()

    recorder = SpanRecorder(os.urandom(8).hex()) if args.trace else None
    workdir = os.path.join(ROOT, ".perfbench",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # A run that makes each figure once also sends one group of check
    # passes: an ir2vec-detect traced run, with its untraced child, builds
    # the seed table four times, and one group keeps it near 110 s.
    seconds = 0.0 if single else args.seconds
    ctx = workloads.RunContext(ROOT, workdir, args.seed, seconds, t0,
                               t0_wall, recorder, repeats=not single)
    try:
        outcome = workloads.run_detect(ctx, args.workload)
    finally:
        if ctx.instr is not None:
            ctx.instr.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    if probes:
        setups += _probe_setups(args, probes - len(setups))
    else:
        setups = ctx.raw["setup"]
    outcome.metrics["setup_s"] = (ctx.scale("setup",
                                            statistics.median(setups)), "s")

    wall_end = outcome.layers.pop("wall_end_s", ctx.wall())
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "phases_s": ctx.phases, "setups_s": setups, "wall_s": wall_end,
        "failures": outcome.failures, **outcome.detail,
        "host": host_record(_NPROC),
    }
    if args.trace:
        values = dict(outcome.layers)
        values["trace.coverage"] = recorder.coverage(t0_wall,
                                                     t0_wall + wall_end)
        fuzz = untraced.get("fuzz_repair", {})
        for name in ("fuzz_programs_per_s", "repair_cases_per_s",
                     "repair_rate"):
            values[name] = fuzz.get(name, 0.0)
        check = untraced["check"]
        for name in ("check_p50_ms", "check_p95_ms", "check_samples_per_s"):
            values[name] = check[name]
        values["check.latency_samples"] = check["latency_samples"]
        values["serve_ready_s"] = untraced["serve_ready_s"]
        values["host.calibration_s"] = statistics.median(
            outcome.detail["calibrations_s"])
        values["obs.trace_overhead_pct"] = 100.0 * (
            outcome.detail["fixed_work_s"] / untraced["fixed_work_s"] - 1.0)
        metrics = workloads.layer_metrics(recorder, values)
        trace_path = os.path.join(
            ROOT, ".perfbench", f"trace-{args.workload}-{args.seed}.json")
        recorder.dump(trace_path, {"detail": detail})
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
        detail["untraced_wall_s"] = untraced["wall_s"]
    else:
        metrics = outcome.metrics
    correct = outcome.failed == 0
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
