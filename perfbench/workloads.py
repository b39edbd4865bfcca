"""The benchmark's workloads: inputs made from a seed, one round of work, its checks.

A round is a fixed set of work items. A run repeats the same round, so
per-round counts are exact and per-round times are comparable between
commits. Work items are one seeded ``run()`` (``desk_maf1``,
``many_dtlz2``) or one scenario order of the permutation study
(``scenario_study``).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from refadapt import runner, simulate
from refadapt.adaptation import AdaptationParams
from refadapt.reference import ReferenceArchive

import checks


def derive_seeds(seed: int, stream: int, count: int) -> tuple[int, ...]:
    """``count`` run seeds for one workload, fixed by the benchmark seed."""
    return tuple(int(s) for s in np.random.SeedSequence([seed, stream]).generate_state(count))


class RunWorkload:
    """Seeded runs of the full algorithm on one benchmark problem."""

    items_per_round: int

    def __init__(self, config: runner.RunConfig, scratch: Path):
        self.config = config
        self.scratch = scratch
        self.spec = None
        self.pf = None

    def setup(self) -> dict[str, float]:
        cfg = self.config
        t0 = time.perf_counter()
        self.spec = cfg.validate()
        t1 = time.perf_counter()
        self.pf = self.spec.sample_true_pf(cfg.igd_samples)
        t2 = time.perf_counter()
        ReferenceArchive.initialize(cfg.m, cfg.n)
        t3 = time.perf_counter()
        return {"validate": t1 - t0, "sample_true_pf": t2 - t1, "initialize": t3 - t2}

    def warm_up(self) -> None:
        runner.run(replace(self.config, max_evals=3 * self.config.n), 0, self.pf)

    def check_record(self, record) -> None:
        cfg = self.config
        checks.check_run(cfg.problem, cfg.m, cfg.n, self.spec.d, self.pf, record)

    def discard(self, output) -> None:
        pass


class DeskMaf1(RunWorkload):
    """A two-seed experiment on MaF1 at the acceptance suite's scale, with output files."""

    name = "desk_maf1"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(runner.RunConfig(problem="maf1", m=3, d=12, n=92, max_evals=20_000,
                                          seeds=derive_seeds(seed, 0, 2)), scratch)
        self.items_per_round = len(self.config.seeds)

    def round(self):
        out = Path(tempfile.mkdtemp(prefix="desk_maf1-", dir=self.scratch))
        return out, runner.experiment(replace(self.config, out_dir=str(out)))

    def check(self, output) -> None:
        out, result = output
        checks.check_on_front("maf1", self.config.m, self.pf)
        checks.require([r.seed for r in result.records] == list(self.config.seeds),
                       "experiment returned the wrong seeds")
        for record in result.records:
            self.check_record(record)
            checks.check_objectives_csv(out / f"seed_{record.seed}" / "final_population.csv",
                                        record.final_objectives)

    def discard(self, output) -> None:
        shutil.rmtree(output[0])


class ManyDtlz2(RunWorkload):
    """One long run of five-objective DTLZ2, writing no files."""

    name = "many_dtlz2"
    items_per_round = 1

    def __init__(self, seed: int, scratch: Path):
        super().__init__(runner.RunConfig(problem="dtlz2", m=5, n=126, max_evals=30_000), scratch)
        self.seed = derive_seeds(seed, 1, 1)[0]

    def round(self):
        return runner.run(self.config, self.seed, self.pf)

    def check(self, record) -> None:
        checks.check_on_front("dtlz2", self.config.m, self.pf)
        self.check_record(record)


def _scaled(scenario: simulate.Scenario, factor: float) -> simulate.Scenario:
    """The same front scaled radially; point count and directions are unchanged."""
    segments = []
    for seg in scenario.segments:
        if isinstance(seg, simulate.ArcSegment):
            segments.append(replace(seg, center=(seg.center[0] * factor, seg.center[1] * factor),
                                    radius=seg.radius * factor))
        else:
            segments.append(simulate.LineSegment(start=(seg.start[0] * factor, seg.start[1] * factor),
                                                 end=(seg.end[0] * factor, seg.end[1] * factor)))
    return simulate.Scenario(scenario.name, tuple(segments), scenario.density / factor)


@dataclass
class ScenarioState:
    """What one ``run_scenario`` call left behind, kept for the checks."""

    scenario: simulate.Scenario
    n: int
    theta: float
    converged: bool
    directions: np.ndarray


class ScenarioStudy:
    """The 24-order permutation study, reset and carry-over, at four population sizes."""

    name = "scenario_study"
    POPULATIONS = (48, 96, 192, 384)
    THETA = 0.2

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scenarios = None
        self.params = None
        self.states: list[ScenarioState] = []
        orders = 24  # 4 scenarios -> 4! orders per study
        self.items_per_round = orders * 2 * len(self.POPULATIONS)
        self._capture_states()

    def _capture_states(self) -> None:
        # Keep each scenario's converged state for the checks: carry-over mode
        # mutates the archive afterwards, so it is copied at return.
        inner = simulate.run_scenario

        def run_scenario(scenario, archive, params, *args, **kwargs):
            report = inner(scenario, archive, params, *args, **kwargs)
            self.states.append(ScenarioState(scenario, params.n, params.theta, report.converged,
                                             archive.participating()[0]))
            return report

        simulate.run_scenario = run_scenario

    def setup(self) -> dict[str, float]:
        t0 = time.perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
        base = simulate.default_scenarios()
        order = rng.permutation(len(base))
        factors = rng.uniform(0.5, 2.0, len(base))
        self.scenarios = [_scaled(base[i], f) for i, f in zip(order, factors)]
        self.params = [AdaptationParams(n, self.THETA) for n in self.POPULATIONS]
        t1 = time.perf_counter()
        ReferenceArchive.initialize(2, max(self.POPULATIONS))
        t2 = time.perf_counter()
        return {"validate": t1 - t0, "sample_true_pf": 0.0, "initialize": t2 - t1}

    def warm_up(self) -> None:
        params = AdaptationParams(24, self.THETA)
        simulate.run_scenario(self.scenarios[0], ReferenceArchive.initialize(2, 24), params)
        self.states.clear()

    def round(self):
        self.states.clear()
        reports = [
            (params, carry, simulate.permutation_similarity(self.scenarios, params, carry_over=carry))
            for params in self.params
            for carry in (False, True)
        ]
        return reports, list(self.states)

    def check(self, output) -> None:
        reports, states = output
        for params, carry, report in reports:
            checks.check_study(report, carry, f"N={params.n} {'carry' if carry else 'reset'}")
        expected = len(self.scenarios) * self.items_per_round
        checks.require(len(states) == expected,
                       f"saw {len(states)} scenario runs, expected {expected}")
        points = {id(s): s.points() for s in self.scenarios}
        for state in states:
            checks.check_scenario_state(points[id(state.scenario)], state.directions, state.n,
                                        state.theta, state.converged,
                                        f"{state.scenario.name} at N={state.n}")

    def discard(self, output) -> None:
        self.states.clear()


WORKLOADS = {w.name: w for w in (DeskMaf1, ManyDtlz2, ScenarioStudy)}
