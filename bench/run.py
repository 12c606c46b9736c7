"""tvcm benchmark: one workload per invocation, result as a JSON last line.

Run from the repository root:

    python3 bench/run.py --workload sim-gaussian --seed 1 --seconds 30 --trace 0

The benchmark imports tvcm from ``src/`` of the checkout it lives in and
drives it only through its public API (the library for the two fitting
workloads, ``tvcm.cli.main`` for ``score-cli``). With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced operations on the same inputs and reports the
per-layer metrics from the traced ones, plus the tracing overhead. See
bench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads: the benchmark measures one
# single-threaded process, whatever the machine's core count.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402  (this directory is first on sys.path)
from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Hard stop for the timed loop, whatever --seconds and the minimum
# operation count ask for, so that a run always ends within 180 s.
LOOP_CAP_S = 120.0


def import_tvcm():
    """tvcm from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "tvcm", "__init__.py")):
        raise SystemExit(f"bench: no tvcm sources under {SRC}")
    sys.path.insert(0, SRC)
    import tvcm

    if os.path.dirname(os.path.dirname(os.path.abspath(tvcm.__file__))) != SRC:
        raise SystemExit(f"bench: imported tvcm from {tvcm.__file__}, not {SRC}")
    # Import the submodules the hooks patch by attribute.
    import tvcm.cli  # noqa: F401

    return tvcm


def quantile_top(values: list[float]) -> tuple[float, int] | None:
    """Highest percentile with at least ten samples above it, as
    (value, percentile); None when fewer than 20 samples exist."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    rank = n - 10  # ten samples lie strictly beyond this one
    return ordered[rank - 1], int(100 * rank / n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    tvcm = import_tvcm()

    fallbacks = spans.FallbackCounter()
    tvcm_logger = logging.getLogger("tvcm")
    tvcm_logger.addHandler(fallbacks)
    tvcm_logger.propagate = False

    out_dir = os.path.join(ROOT, ".bench_out")
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return run(args, tvcm, WORKLOADS[args.workload], fallbacks, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, tvcm, cls, fallbacks, out_dir, work) -> int:
    wl = cls(tvcm, work, args.seed)
    setup_s: list[float] = []

    def set_up() -> None:
        t0 = time.perf_counter()
        wl.setup()
        setup_s.append(time.perf_counter() - t0)

    # One set-up before the loop, the rest spread evenly over it: repeats
    # run back to back all land in the same speed spell of the host.
    set_up()

    tracer = spans.Tracer() if args.trace else None
    hooks = spans.Hooks(tvcm, tracer) if args.trace else None
    root_sid = tracer.intern("bench.op") if args.trace else None

    def timed(k: int, traced: bool):
        # Garbage left by the previous operation is collected here, not
        # inside whichever operation happens to trip the collector.
        gc.collect()
        if traced:
            hooks.install()
            before = fallbacks.count
        t0 = time.perf_counter()
        try:
            if traced:
                idx = tracer.open(root_sid)
                try:
                    res = wl.op(k)
                finally:
                    tracer.close(idx)
            else:
                res = wl.op(k)
        finally:
            dt = time.perf_counter() - t0
            if traced:
                hooks.remove()
                traced_fallbacks[0] += fallbacks.count - before
        return res, dt

    traced_fallbacks = [0]
    results, walls, traced_walls, pairs = [], [], [], []
    failures: list[str] = []
    attempted = failed = 0
    measured = 0.0
    loop_start = time.perf_counter()
    k = 0
    while (measured < args.seconds or k < wl.pool) and (
        time.perf_counter() - loop_start < LOOP_CAP_S
    ):
        attempted += 1
        try:
            if args.trace:
                # Traced and untraced runs of the same input, in
                # alternating order, give the tracing overhead.
                order = (False, True) if k % 2 == 0 else (True, False)
                got = {traced: timed(k, traced) for traced in order}
                res, dt = got[False]
                res_t, dt_t = got[True]
                measured += dt + dt_t
                traced_walls.append(dt_t)
                pairs.append(dt_t / dt)
                fails = wl.check(k, res) + wl.check(k, res_t)
            else:
                res, dt = timed(k, False)
                measured += dt
                fails = wl.check(k, res)
        except Exception:  # an operation that raises is a failed operation
            fails = [f"op {k} raised:\n{traceback.format_exc()}"]
            res = None
        if fails:
            failed += 1
            failures += fails
        elif res is not None:
            results.append(res)
            walls.append(dt)
        k += 1
        if len(setup_s) < wl.setup_repeats and (
            measured >= len(setup_s) * args.seconds / wl.setup_repeats
        ):
            set_up()
    while len(setup_s) < wl.setup_repeats:
        set_up()

    # Run-level checks count as one attempted item each.
    run_checks = [
        [f"only {k} of {wl.pool} inputs ran before the loop cap"] if k < wl.pool else [],
        [f"{fallbacks.other} unexpected tvcm log records"] if fallbacks.other else [],
        wl.run_checks() if len(results) == attempted else [],
    ]

    info = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": attempted,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "setup_s": setup_s,
        "op_wall_s": walls,
        "op_input": [r.key for r in results],
        **(wl.info() if results else {}),
    }
    metrics: dict[str, tuple[float, str]] = {}
    if results and not args.trace:
        info["wall_s_samples"] = len(walls)
        top = quantile_top(walls)
        if top is not None:
            info[f"wall_s_p{top[1]}"] = top[0]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            # Medians of per-operation rates: every operation does nearly
            # the same work, and a median, unlike total work over total
            # time, is not dragged by the host's slow spells.
            "trees_per_s": (
                statistics.median(r.trees / r.model_s for r in results), "1/s"
            ),
            "rows_per_s": (
                statistics.median(r.rows / dt for r, dt in zip(results, walls)), "1/s"
            ),
            "test_loss": (wl.test_loss(), "deviance"),
        }
    elif results:
        traced_wall = sum(traced_walls)
        overhead = 100.0 * (statistics.median(pairs) - 1.0)
        metrics, layer_self = spans.layer_metrics(
            tracer, len(traced_walls), traced_fallbacks[0], traced_wall, overhead
        )
        gap = abs(sum(layer_self.values()) - traced_wall) / traced_wall
        info["self_time_gap_pct"] = 100.0 * gap
        run_checks.append(
            [f"layer self times miss the traced wall time by {100 * gap:.2f}%"]
            if gap > SELF_TIME_TOLERANCE else []
        )
        path = os.path.join(out_dir, f"trace-{wl.name}-seed{args.seed}.json")
        tracer.dump(path, {"info": info})
        info["trace_file"] = os.path.relpath(path, ROOT)
    for fails in run_checks:
        attempted += 1
        failed += bool(fails)
        failures += fails
    for msg in failures:
        print(f"bench: FAILED {msg}", file=sys.stderr)

    print(json.dumps({"info": info}))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and bool(results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


# Span self times, summed over every layer and the benchmark's own root
# span, must account for the traced operations' wall time within this
# share; a larger gap means spans overlapped or went missing.
SELF_TIME_TOLERANCE = 0.01


if __name__ == "__main__":
    sys.exit(main())
