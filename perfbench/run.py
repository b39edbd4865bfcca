"""Run one benchmark workload and print its metrics; the last stdout line is JSON.

    python3 perfbench/run.py --workload desk_maf1 --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` next to this directory.
After set-up the run repeats one round of the workload until the rounds
have taken ``--seconds`` in total, checks every round's outputs apart from
the timing, and reports, with ``--trace 0``, the end-to-end metrics:

- ``wall_s``: median wall time of one round;
- ``cpu_s``: median CPU time of one round, this process plus its children;
- ``setup_s``: the median time of importing refadapt, in this process
  and in four fresh interpreters started one after another once the rounds
  are over, plus the median of five set-up passes (validating the
  configuration, sampling the true front, building the initial lattice);
- ``peak_rss_mb``: peak resident memory of this process plus its children,
  read before the import probes start.

A round that raises counts its work items as failed, adds no time, and
makes ``correct`` false.

With ``--trace 1`` the rounds run with spans around the calls into every
refadapt module and the per-layer metrics are reported instead; the spans
are written to ``.perfbench_out/``.
"""

import os

# One BLAS/OpenMP thread: set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("desk_maf1", "many_dtlz2", "scenario_study")
SETUP_PASSES = 5
IMPORT_PROBES = 4
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import refadapt; print(time.perf_counter() - t0)")


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0          # ru_maxrss is in KiB on Linux


def end_to_end_metrics(walls, cpus, setup_s: float, peak_rss_mb: float) -> dict[str, tuple]:
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def import_program() -> float:
    """Import refadapt from this checkout and return the time it took."""
    if not (SRC / "refadapt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'refadapt'}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import refadapt  # noqa: F401
    return time.perf_counter() - t0


def probe_import() -> float:
    """Time ``import refadapt`` in a fresh interpreter; it inherits the thread settings."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="total time of the timed rounds; at least one round runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()

    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        passes = [workload.setup() for _ in range(SETUP_PASSES)]
        setup = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
        workload.warm_up()

        round_fn = workload.round
        tracer = None
        if args.trace:
            cost = tracing.span_cost()
            tracer = tracing.Tracer()
            tracing.install(tracer)
            round_fn = tracer.wrap(tracing.ROOT, round_fn)

        walls, cpus = [], []
        attempted = failed = 0
        elapsed = 0.0
        correct = True
        while elapsed < args.seconds:
            attempted += workload.items_per_round
            w0, c0 = time.perf_counter(), cpu_seconds()
            try:
                output = round_fn()
            except Exception:
                traceback.print_exc()
                failed += workload.items_per_round
                correct = False
                elapsed += time.perf_counter() - w0
                continue
            walls.append(time.perf_counter() - w0)
            cpus.append(cpu_seconds() - c0)
            elapsed += walls[-1]
            try:
                workload.check(output)
            except Exception:
                traceback.print_exc()
                correct = False
            workload.discard(output)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if not walls:
        sys.exit(f"perfbench: all {attempted} items of {args.workload} failed")

    peak_rss_mb = peak_rss_mib()
    import_s = statistics.median([import_s] + [probe_import() for _ in range(IMPORT_PROBES)])
    setup["import"] = import_s
    setup_s = import_s + statistics.median(sum(p.values()) for p in passes)

    if tracer is None:
        metrics = end_to_end_metrics(walls, cpus, setup_s, peak_rss_mb)
    else:
        metrics = tracing.per_layer_metrics(tracer, len(walls), setup, cost)
        tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.json")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(f"rounds {len(walls)}, items attempted {attempted}, failed {failed}, "
          f"checks {'passed' if correct else 'FAILED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
