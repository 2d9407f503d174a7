"""Run the benchmark over several seeds and summarize run-to-run spread.

Usage, from the repository root:

    python3 benchmarks/spread.py --out benchmarks/results/baseline.json
    python3 benchmarks/spread.py --compare benchmarks/results/baseline.json

Every workload in BENCHMARK.json runs once for each of the seeds 1-10. For
each end-to-end metric it reports the ten values, their median and
quartiles (``statistics.quantiles(values, n=4)``), and the spread: the
distance between the quartiles as a share of the median. A spread must stay
within the metric's bound in BENCHMARK.json; ``steady`` marks spreads below
a third of it. With ``--compare``, every median must also be no worse than
the earlier summary's by more than the bound. One traced run of seed 1 per
workload adds the per-layer metrics and the measured input properties, and
its outputs must be identical to those of the untraced run of seed 1, a
separate process. Runs are sequential, one process at a time; the exit code
is 1 if any run failed, any two runs of a seed disagreed or any bound was
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (last-line result, full record written by run.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)


def summarize(values: list[float], spec: dict) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": spec["bound"],
        "spread_within_bound": spread <= spec["bound"],
        "steady": spread < spec["bound"] / 3,
    }


def worse_by(old: float, new: float, better: str) -> float:
    """Share by which ``new`` is worse than ``old`` (negative when better)."""
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", help="write the summary JSON here")
    p.add_argument("--compare", help="earlier summary JSON to compare medians with")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)

    summary = {"run_seconds": bench["run_seconds"], "seeds": SEEDS, "workloads": {}}
    ok = True
    for name in (w["name"] for w in bench["workloads"]):
        results, digests = [], []
        for seed in SEEDS:
            result, record = run_once(name, seed, bench["run_seconds"], 0)
            ok &= result["correct"]
            results.append(result)
            digests.append(record["output_digest"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), file=sys.stderr)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for spec in bench["end_to_end"]:
            stats = summarize([r["metrics"][spec["name"]]["value"] for r in results], spec)
            if earlier is not None:
                old = earlier["workloads"][name]["end_to_end"][spec["name"]]["median"]
                stats["worse_than_earlier_by"] = worse_by(old, stats["median"], spec["better"])
                stats["median_within_bound"] = stats["worse_than_earlier_by"] <= spec["bound"]
                ok &= stats["median_within_bound"]
            ok &= stats["spread_within_bound"]
            entry["end_to_end"][spec["name"]] = stats
            print(f"{name} {spec['name']}: median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f} (bound {spec['bound']}, "
                  f"{'steady' if stats['steady'] else 'not steady'})", file=sys.stderr)
        result, record = run_once(name, SEEDS[0], bench["run_seconds"], 1)
        entry["outputs_identical_across_runs"] = record["output_digest"] == digests[0]
        ok &= result["correct"] and entry["outputs_identical_across_runs"]
        entry["traced"] = {
            "seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
            "properties": record["properties"],
            "environment": record["environment"],
        }
        summary["workloads"][name] = entry

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    print(json.dumps({"ok": bool(ok)}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
