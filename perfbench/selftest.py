"""Show that every correctness check passes on real outputs and rejects corrupted ones.

    python3 perfbench/selftest.py

Runs small versions of the three workloads (a few seconds in total), checks
their outputs, then corrupts one thing at a time and requires the matching
check to raise ``CheckFailed``. It also requires the metric names the
benchmark prints to be exactly those listed in ``BENCHMARK.json``. Exits 1
if any expectation fails.
"""

import copy
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run as bench_run

bench_run.import_program()

import numpy as np  # noqa: E402
from refadapt import runner  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

failures = 0


def report(ok: bool, what: str) -> None:
    global failures
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {what}")


def passes(what: str, fn) -> None:
    try:
        fn()
    except checks.CheckFailed as exc:
        report(False, f"{what} (raised: {exc})")
    else:
        report(True, what)


def rejects(what: str, fn) -> None:
    try:
        fn()
    except checks.CheckFailed:
        report(True, f"rejects {what}")
    else:
        report(False, f"does not reject {what}")


def bumped(a, index, factor):
    a = np.array(a, dtype=float, copy=True)
    a[index] *= factor
    return a


def run_checks(problem: str, m: int, n: int, max_evals: int, scratch: Path) -> None:
    cfg = runner.RunConfig(problem=problem, m=m, n=n, max_evals=max_evals, igd_samples=500,
                           seeds=(3,), out_dir=str(scratch / problem))
    spec = cfg.validate()
    pf = spec.sample_true_pf(cfg.igd_samples)
    record = runner.experiment(cfg).records[0]
    d = spec.d
    X, F, ia = record.final_solutions, record.final_objectives, record.final_ia_objectives
    csv = scratch / problem / "seed_3" / "final_population.csv"

    def whole(rec):
        return lambda: checks.check_run(problem, m, n, d, pf, rec)

    passes(f"{problem}: front samples on the front", lambda: checks.check_on_front(problem, m, pf))
    passes(f"{problem}: all run checks", whole(record))
    passes(f"{problem}: written population", lambda: checks.check_objectives_csv(csv, F))
    rejects(f"{problem}: a front sample off the front",
            lambda: checks.check_on_front(problem, m, bumped(pf, 0, 1.001)))
    rejects(f"{problem}: an objective 1e-9 off the formula",
            lambda: checks.check_reevaluation(problem, m, X, F + np.eye(n, m) * 1e-9))
    rejects(f"{problem}: a population row below the front",
            lambda: checks.check_front_bound(problem, m, np.vstack([F, pf[0] * 0.999]), "population"))
    rejects(f"{problem}: a dominated archive member",
            lambda: checks.check_mutually_nondominated(np.vstack([ia, ia[0] + 0.01]), "archive"))
    rejects(f"{problem}: a population one row short",
            whole(replace(record, final_solutions=X[1:], final_objectives=F[1:])))
    rejects(f"{problem}: a reported final IGD 1e-9 off",
            whole(replace(record, final_igd=record.final_igd * (1 + 1e-9))))
    rejects(f"{problem}: a first IGD sample 1e-9 off",
            whole(replace(record, igd_values=bumped(record.igd_values, 0, 1 + 1e-9))))
    F0 = checks.FORMULAS[problem](checks.initial_population(3, n, d), m)
    initial = checks.brute_force_igd(pf, F0)
    rejects(f"{problem}: a final population no better than the initial one",
            lambda: checks.check_igd(pf, F0, initial, initial))
    csv.write_text(csv.read_text(encoding="utf-8").replace("0", "1", 1), encoding="utf-8")
    rejects(f"{problem}: a written population differing from the result",
            lambda: checks.check_objectives_csv(csv, F))


def study_checks(scratch: Path) -> None:
    study = workloads.ScenarioStudy(1, scratch)
    study.POPULATIONS = (24,)
    study.items_per_round = 24 * 2
    study.setup()
    output = study.round()
    reports, states = output
    reset = reports[0][2]
    passes("scenario study: all study checks", lambda: study.check(output))

    broken = copy.deepcopy(reset)
    next(iter(broken.matrices.values()))[0, 1] = 99.0
    rejects("scenario study: a reset-mode similarity below 100%",
            lambda: checks.check_study(broken, False, "reset"))
    broken = copy.deepcopy(reset)
    broken.non_converged = 1
    rejects("scenario study: a study with a non-converged run",
            lambda: checks.check_study(broken, False, "reset"))
    rejects("scenario study: a missing scenario run", lambda: study.check((reports, states[:-1])))
    state = states[0]
    points = state.scenario.points()
    rejects("scenario study: a non-converged scenario",
            lambda: checks.check_scenario_state(points, state.directions, state.n, state.theta,
                                                False, "state"))
    rejects("scenario study: an active count outside the band",
            lambda: checks.check_scenario_state(points, state.directions[::3], state.n,
                                                state.theta, True, "state"))


def metric_names() -> None:
    bench = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    printed = list(bench_run.end_to_end_metrics([1.0], [1.0], 1.0, 1.0))
    report(printed == [m["name"] for m in bench["end_to_end"]],
           "end-to-end metrics match BENCHMARK.json")
    printed = list(tracing.per_layer_metrics(tracing.Tracer(), 1, {
        "import": 1.0, "sample_true_pf": 1.0, "initialize": 1.0}, 1e-6))
    report(sorted(printed) == sorted(m["name"] for m in bench["per_layer"]),
           "per-layer metrics match BENCHMARK.json")
    report([w["name"] for w in bench["workloads"]] == list(bench_run.WORKLOAD_NAMES)
           == list(workloads.WORKLOADS), "workloads match BENCHMARK.json")


def main() -> int:
    bench_run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=bench_run.OUT) as tmp:
        scratch = Path(tmp)
        run_checks("maf1", 3, 20, 2_000, scratch)
        run_checks("dtlz2", 5, 35, 15_000, scratch)
        study_checks(scratch)
    metric_names()
    print(f"{failures} expectation(s) failed" if failures else "every check passes and rejects")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
