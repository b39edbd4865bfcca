"""Experiment orchestration: the main evolutionary cycle and multi-seed runs.

One run evolves a population against a problem for a fixed evaluation
budget: variation produces offspring, one cascade-clustering pass over
(population + offspring + individual archive) selects the next population
and refreshes the archive, and an adaptation attempt is due once the
active reference vectors have stayed the same for ``w`` generations in a
row. Experiments repeat runs over seeds and aggregate IGD trajectories
with confidence bounds.

Everything is deterministic given the seed: one root seed spawns
substreams for initialization, mating, crossover and mutation, and all
CSV/JSON outputs are byte-stable.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

import numpy as np

from .adaptation import AdaptationEvent, AdaptationParams, adapt
from .core import update_ideal
from .metrics import Trajectory, confidence_trajectory, igd, stability
from .problems import ProblemSpec, make_problem
from .reference import ReferenceArchive
from .selection import cascade_cluster
from .variation import VariationParams, make_offspring

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs, mirroring the CLI flags."""

    problem: str
    m: int
    n: int
    max_evals: int
    d: int | None = None
    w: int = 20
    theta: float = AdaptationParams.theta
    variation: VariationParams = field(default_factory=VariationParams)
    seeds: tuple[int, ...] = (1,)
    igd_samples: int = 10_000
    sample_points: int = 101
    out_dir: str | None = None
    use_ia: bool = True                  # --no-ia disables the individual archive
    adapt_refs: bool = True              # --fixed-z freezes the base reference set

    def validate(self) -> ProblemSpec:
        try:
            spec = make_problem(self.problem, self.m, self.d)
        except (KeyError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.n < self.m:
            raise ConfigError("population size must be at least the objective count")
        if self.max_evals < 2 * self.n:
            raise ConfigError(
                "evaluation budget must cover initialization plus one generation "
                f"(need at least {2 * self.n}, got {self.max_evals})"
            )
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        if self.igd_samples < 1:
            raise ConfigError("IGD sample count must be positive")
        if self.sample_points < 2:
            # the schedule's two ends are the initial and the final population
            raise ConfigError("need at least two IGD sample points")
        if self.w < 1:
            raise ConfigError("stability window must be at least one generation")
        try:
            self.adaptation_params()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return spec

    def adaptation_params(self) -> AdaptationParams:
        return AdaptationParams(self.n, self.theta)


def maintain(solutions: np.ndarray, objectives: np.ndarray,
             centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The individual archive after a selection pass: the pool rows of its centers.

    The pass that produced the centers already saw the previous archive
    members in its pool, so wholesale replacement keeps exactly the
    survivors: at most one member per participating reference vector,
    mutually nondominated by construction.
    """
    return solutions[centers], objectives[centers]


@dataclass
class RunRecord:
    """Telemetry of one seeded run."""

    seed: int
    sample_times: np.ndarray           # (T,) evaluation counts
    igd_values: np.ndarray             # (T,)
    generations: np.ndarray            # (G,) evaluation counts at each generation's end
    events: list[AdaptationEvent]
    final_solutions: np.ndarray
    final_objectives: np.ndarray
    final_ia_objectives: np.ndarray
    final_igd: float


def run(config: RunConfig, seed: int, pf_samples: np.ndarray | None = None) -> RunRecord:
    """Execute one seeded run of the full algorithm (or an ablation)."""
    spec = config.validate()
    if pf_samples is None:
        pf_samples = spec.sample_true_pf(config.igd_samples)
    params = config.adaptation_params()
    t0 = time.perf_counter()

    init_rng, mating_rng, crossover_rng, mutation_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)
    )
    n, max_evals = config.n, config.max_evals
    X = init_rng.uniform(spec.lower, spec.upper, (n, spec.d))
    F = spec.evaluate(X)
    ideal = update_ideal(F)

    ref_archive = ReferenceArchive.initialize(config.m, n)
    directions = ref_archive.participating()[0]
    ia_X, ia_F = np.empty((0, spec.d)), np.empty((0, config.m))

    # IGD is sampled at sample_points evaluation counts spread over the
    # budget. Generation g (0 = the initial population) ends at ends[g] =
    # min((g + 1) n, max_evals) evaluations and scores the samples due by
    # then; the samples at the budget score the final population instead.
    # The populations of the due generations are kept and scored together
    # after the loop.
    times = np.linspace(n, max_evals, config.sample_points)
    ends = np.minimum(np.arange(1, -(-max_evals // n) + 1) * n, max_evals)
    final = len(ends)
    scorer = np.where(times >= max_evals - 1e-9, final, np.searchsorted(ends, times - 1e-9))
    due = np.unique(scorer)

    scored = [F]                # generation 0 is always due: times[0] = n < max_evals
    events: list[AdaptationEvent] = []
    stable = 0                  # generations in a row with the same active set
    last_active = None

    for generation, n_off in enumerate(np.diff(ends).tolist(), 1):
        off_X = make_offspring(
            X, n_off, config.variation, spec.lower, spec.upper,
            mating_rng, crossover_rng, mutation_rng,
        )
        off_F = spec.evaluate(off_X)
        ideal = update_ideal(off_F, ideal)

        pool_X = np.vstack([X, off_X, ia_X])
        pool_F = np.vstack([F, off_F, ia_F])
        result = cascade_cluster(pool_F, directions, n, ideal)
        X, F = pool_X[result.selected], pool_F[result.selected]
        if config.use_ia:
            ia_X, ia_F = maintain(pool_X, pool_F, result.centers)

        stable = stable + 1 if np.array_equal(result.active, last_active) else 1
        last_active = result.active
        if stable >= config.w and config.adapt_refs:
            directions, event = adapt(ref_archive, result.active, params, generation)
            events.append(event)
            stable = 0

        if generation in due:
            scored.append(F)

    # final population from the archive and the population together
    pool_X = np.vstack([ia_X, X])
    pool_F = np.vstack([ia_F, F])
    result = cascade_cluster(pool_F, directions, n, ideal)
    X, F = pool_X[result.selected], pool_F[result.selected]
    scored.append(F)
    igd_values = igd(pf_samples, np.stack(scored))[np.searchsorted(due, scorer)]

    wall = time.perf_counter() - t0
    log.info("seed %d finished in %.2fs (%d generations)", seed, wall, len(ends) - 1)
    return RunRecord(
        seed=seed,
        sample_times=np.rint(times).astype(int),
        igd_values=igd_values,
        generations=ends[1:],
        events=events,
        final_solutions=X,
        final_objectives=F,
        final_ia_objectives=ia_F,
        final_igd=float(igd_values[-1]),
    )


@dataclass
class ExperimentResult:
    config: RunConfig
    records: list[RunRecord]
    trajectory: Trajectory
    summary: dict


def write_csv(path, header, rows) -> None:
    """Write a header line, then one line per row of ``str`` cells.

    Rows hold ``.tolist()`` values: ``str`` of a Python float is its
    shortest round-trip ``repr``.
    """
    lines = [",".join(header), *(",".join(map(str, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _plain(obj):
    """The ``default=`` hook of :func:`render_json`."""
    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def render_json(obj, indent: int | None = None) -> str:
    """JSON text with sorted keys; dataclasses and numpy values become plain."""
    return json.dumps(obj, indent=indent, sort_keys=True, default=_plain)


def _write_outputs(out_dir: Path, result: ExperimentResult) -> None:
    traj = result.trajectory
    write_csv(out_dir / "trajectory.csv", ("eval_count", "mean", "lower", "upper"),
              zip(*(a.tolist() for a in (traj.sample_times, traj.mean, traj.lower, traj.upper))))
    (out_dir / "summary.json").write_text(render_json(result.summary, indent=2), encoding="utf-8")
    for record in result.records:
        seed_dir = out_dir / f"seed_{record.seed}"
        seed_dir.mkdir(exist_ok=True)
        header = [f"f{i + 1}" for i in range(record.final_objectives.shape[1])]
        write_csv(seed_dir / "final_population.csv", header, record.final_objectives.tolist())
        write_csv(seed_dir / "individual_archive.csv", header, record.final_ia_objectives.tolist())
        write_csv(seed_dir / "igd.csv", ("eval_count", "igd"),
                  zip(record.sample_times.tolist(), record.igd_values.tolist()))
        (seed_dir / "events.jsonl").write_text(
            "".join(render_json(event) + "\n" for event in record.events), encoding="utf-8")


def experiment(config: RunConfig) -> ExperimentResult:
    """Run every seed, aggregate the IGD trajectory, and write outputs.

    A failing seed aborts the experiment; partial outputs are flagged in
    summary.json so downstream tooling never mistakes them for results.
    """
    spec = config.validate()
    out_dir = None if config.out_dir is None else Path(config.out_dir)
    if out_dir is not None:
        # before the first seed: a path that cannot be a directory fails now
        out_dir.mkdir(parents=True, exist_ok=True)
    pf_samples = spec.sample_true_pf(config.igd_samples)
    records: list[RunRecord] = []
    for seed in config.seeds:
        try:
            records.append(run(config, seed, pf_samples))
        except Exception as exc:
            if out_dir is not None:
                aborted = {"status": "aborted", "problem": config.problem, "failed_seed": seed,
                           "completed_seeds": [r.seed for r in records], "error": str(exc)}
                (out_dir / "summary.json").write_text(render_json(aborted, indent=2),
                                                      encoding="utf-8")
            raise RuntimeError(f"seed {seed} failed: {exc}") from exc

    igd_matrix = np.vstack([r.igd_values for r in records])
    trajectory = confidence_trajectory(records[0].sample_times, igd_matrix)
    finals = np.array([r.final_igd for r in records])
    event_counts = {
        str(r.seed): {kind: sum(e.kind == kind for e in r.events)
                      for kind in ("shrink", "expand", "none")}
        for r in records
    }
    summary = {
        "status": "ok",
        "problem": config.problem,
        "m": config.m,
        "d": spec.d,
        "n": config.n,
        "max_evals": config.max_evals,
        "w": config.w,
        "theta": config.theta,
        "use_ia": config.use_ia,
        "adapt_refs": config.adapt_refs,
        "seeds": list(config.seeds),
        "final_igd": {
            "per_seed": {str(r.seed): float(r.final_igd) for r in records},
            "median": float(np.median(finals)),
            "best": float(finals.min()),
            "worst": float(finals.max()),
        },
        "stability_v": stability(trajectory),
        "adaptation_events": event_counts,
    }
    result = ExperimentResult(config=config, records=records, trajectory=trajectory, summary=summary)
    if out_dir is not None:
        _write_outputs(out_dir, result)
    return result
