"""Steadiness check: run every workload N times, interleaved, and summarise.

    python3 perfbench/steady.py --runs 10 [--seconds S] [--workloads a,b] [--out FILE]

Run ``i`` of every workload uses seed ``--first-seed + i``; workloads
alternate so slow drift of the machine spreads over all of them.  For
each metric it prints the median, quartiles (``statistics.quantiles``,
n=4), min/max, the quartile spread as a share of the median, and the gap
between the medians of the first and second half of the runs.  The
bounds in ``BENCHMARK.json`` were chosen from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    result["seed"] = seed
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    half = len(values) // 2
    gap = statistics.median(values[half:]) - statistics.median(values[:half])
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / q2 if q2 else float("nan"),
        "half_gap": gap / q2 if q2 else float("nan"),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None, help="write every run's result as JSON")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    names = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {name: [] for name in names}
    for i in range(args.runs):
        for name in names:
            result = run_once(name, args.first_seed + i, args.seconds)
            results[name].append(result)
            print(f"run {i + 1}/{args.runs} {name}: {result['wall_s']:.1f}s wall, "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
    summary = {}
    for name, runs in results.items():
        print(f"\n== {name} ({len(runs)} runs, median wall "
              f"{statistics.median(r['wall_s'] for r in runs):.1f}s, failed shares "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})})")
        print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14}"
              f" {'spread':>7} {'halfgap':>8} {'bound':>6}")
        summary[name] = {}
        for metric in runs[0]["metrics"]:
            stats = summarise([r["metrics"][metric]["value"] for r in runs])
            summary[name][metric] = stats
            bound = bounds.get(metric)
            print(f"{metric:32} {stats['median']:14.6g} {stats['q1']:14.6g} {stats['q3']:14.6g}"
                  f" {stats['min']:14.6g} {stats['max']:14.6g} {stats['spread']:7.3f}"
                  f" {stats['half_gap']:+8.3f} {bound if bound is not None else '':>6}")
    if args.out is not None:
        args.out.write_text(json.dumps({"runs": results, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
