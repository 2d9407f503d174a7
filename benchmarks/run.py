"""Benchmark of the sqdecomp pipeline: one workload per invocation.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload fit-dumbbell --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.
The run times the import in fresh interpreters and sets up the workload's
inputs, nine times each (set-up time is the sum of the two medians), then
repeats the workload's commands for about ``--seconds`` seconds and reports
medians over the repetitions.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repetitions and prints the per-layer metrics
derived from the traced ones, plus the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller record (environment, input properties,
every repetition and any check failures) is written to
``benchmarks/out/<workload>-seed<seed>-trace<t>.json``, and traced runs also
write their spans next to it as JSON lines.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 9
MIN_REPETITIONS = 2
# Times the import of the package and its dependencies in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, scipy.special, sqdecomp; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import numpy, scipy and sqdecomp from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "sqdecomp", "__init__.py")):
        raise ImportError(f"no sqdecomp package under {SRC}")
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401
    import sqdecomp

    if os.path.dirname(os.path.dirname(os.path.abspath(sqdecomp.__file__))) != SRC:
        raise ImportError(f"sqdecomp imported from {sqdecomp.__file__}, not {SRC}")


def git_rev(root: str):
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def openblas_threads():
    """Thread count of the OpenBLAS loaded by numpy, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev(ROOT),
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
    }


def import_times() -> list[float]:
    """Import time of numpy, scipy and sqdecomp in SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, trace: bool):
    """Repeat the workload for about ``seconds``; trace every other repetition.

    After MIN_REPETITIONS (one of each kind when tracing), a repetition
    starts only if, at the median repetition time so far, it would end less
    than half a repetition past the budget; runs so last ``seconds`` on
    average.
    """
    import layers
    from tracing import Tracer

    records, walls, traced = [], [], []
    begin = time.perf_counter()
    while True:
        workload.reset()
        is_traced = trace and len(records) % 2 == 1
        if is_traced:
            tracer = Tracer(trace_id=len(records))
            fit_calls: list = []
            layers.install(tracer, fit_calls)
            try:
                root = tracer.open("bench.rep")
                raw = workload.run()
                tracer.close(root)
            finally:
                tracer.restore()
            traced.append((tracer.spans, fit_calls))
        else:
            t0 = time.perf_counter()
            raw = workload.run()
            walls.append(time.perf_counter() - t0)
        records.append(workload.capture(raw))
        elapsed = time.perf_counter() - begin
        per_rep = statistics.median(
            walls + [spans[0].duration for spans, _ in traced]
        )
        if len(records) >= MIN_REPETITIONS and elapsed + per_rep / 2 > seconds:
            return records, walls, traced


def traced_metrics(traced, untraced_wall: float):
    """Per-layer metrics: medians over the traced repetitions."""
    import layers
    from tracing import self_times

    per_rep = []
    shares = []
    for spans, fit_calls in traced:
        covered = sum(self_times(spans))
        if abs(covered - spans[0].duration) > 1e-6:
            raise RuntimeError(
                f"self times sum to {covered} s, root span lasted {spans[0].duration} s"
            )
        rep_shares = layers.grad_active_shares(fit_calls)
        shares.append(rep_shares)
        per_rep.append(layers.layer_metrics(spans, rep_shares.get("all", (0.0, 0.0))[1]))
    out = {
        name: {"value": statistics.median(rep[name][0] for rep in per_rep), "unit": unit}
        for name, (_, unit) in per_rep[0].items()
    }
    traced_wall = statistics.median(spans[0].duration for spans, _ in traced)
    out["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    out["trace.overhead_s"] = {"value": traced_wall - untraced_wall, "unit": "s"}
    return out, shares[0]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    imports = import_times()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        records, walls, traced = measure(workload, args.seconds, bool(args.trace))
        rss = peak_rss_mb()
        workload.check(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(rec["problems"]) for rec in records)
    problems = [
        f"repetition {i} {cmd}: {msg}"
        for i, rec in enumerate(records)
        for cmd, msgs in rec["problems"].items()
        for msg in msgs
    ]
    failed = sum(1 for rec in records for msgs in rec["problems"].values() if msgs)
    wall = statistics.median(walls)
    properties = workload.properties(records)
    if args.trace:
        metrics, shares = traced_metrics(traced, wall)
        initial, final = shares.pop("all", (0.0, 0.0))
        properties["grad_active_share_initial"] = initial
        properties["grad_active_share_final"] = final
        properties["grad_active_share_by_node"] = {
            node: {"initial": i, "final": f} for node, (i, f) in sorted(shares.items())
        }
    else:
        try:
            iou, iou_min = workload.quality(records)
        except (KeyError, TypeError, ValueError):
            iou = iou_min = None
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(imports) + statistics.median(setup_times),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "iou": {"value": iou, "unit": "ratio"},
            "iou_min": {"value": iou_min, "unit": "ratio"},
            "pass_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "environment": environment(args.seed),
            "properties": properties,
            "output_digest": workload.digest(records),
            "import_probe_s": imports,
            "setup_times_s": setup_times,
            "untraced_walls_s": walls,
            "traced_walls_s": [spans[0].duration for spans, _ in traced],
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
        }, fh, indent=2)
        fh.write("\n")
    if traced:
        with open(stem + "-spans.jsonl", "w", encoding="utf-8") as fh:
            for spans, _ in traced:
                for i, span in enumerate(spans):
                    fh.write(json.dumps(span.to_json(i)) + "\n")
    for line in problems:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
