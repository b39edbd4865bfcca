"""Run one workload several times, each with another seed, and print each metric's spread.

    python3 perfbench/repeat.py --workload desk_maf1 --runs 10
    python3 perfbench/repeat.py --workload many_dtlz2 --runs 5 --first-seed 11 --overhead

Each run is a separate ``run.py`` process, started one after another. For
every metric the median and the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) are printed, with the
quartile distance as a share of the median next to the metric's bound from
``BENCHMARK.json``. ``--overhead`` also makes a traced run per seed and
prints the tracing overhead: the median of ``trace.wall_s`` minus the
median of ``wall_s``. The last line is the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)

    results = []
    for seed in seeds:
        result = run_once(args.workload, seed, seconds, 0)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if k in bounds),
              flush=True)

    summary = {"workload": args.workload, "seconds": seconds, "seeds": list(seeds),
               "correct": all(r["correct"] for r in results),
               "failed_share": [r["failed"] / r["attempted"] for r in results],
               "metrics": {}}
    for name, entry in results[0]["metrics"].items():
        stats = spread([r["metrics"][name]["value"] for r in results])
        stats["unit"] = entry["unit"]
        summary["metrics"][name] = stats
        bound = bounds.get(name)
        print(f"{name:40s} median {stats['median']:14.6g} q1 {stats['q1']:14.6g} "
              f"q3 {stats['q3']:14.6g} {entry['unit']:6s} spread {stats['spread']:.4f}"
              + (f"  bound {bound} ({stats['spread'] / bound:.2f} of it)" if bound else ""))

    if args.overhead:
        traced = [run_once(args.workload, seed, seconds, 1) for seed in seeds]
        traced_wall = statistics.median(r["metrics"]["trace.wall_s"]["value"] for r in traced)
        untraced_wall = summary["metrics"]["wall_s"]["median"]
        summary["trace_overhead_s"] = traced_wall - untraced_wall
        print(f"tracing overhead: traced round {traced_wall:.4f} s - untraced round "
              f"{untraced_wall:.4f} s = {traced_wall - untraced_wall:.4f} s "
              f"({(traced_wall - untraced_wall) / untraced_wall:.2%})")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
