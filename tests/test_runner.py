import json

import numpy as np
import pytest

import refadapt.runner as runner_mod
from refadapt.metrics import igd
from refadapt.runner import ConfigError, RunConfig, experiment, run

SMALL = dict(m=3, n=20, max_evals=1500, w=10, igd_samples=400, sample_points=11)


class TestValidation:
    def test_budget_below_one_generation(self):
        cfg = RunConfig(problem="dtlz2", m=3, n=100, max_evals=150)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            RunConfig(problem="zzz", m=3, n=20, max_evals=2000).validate()

    def test_population_below_objectives(self):
        with pytest.raises(ConfigError):
            RunConfig(problem="dtlz2", m=5, n=3, max_evals=2000).validate()

    def test_empty_seeds(self):
        with pytest.raises(ConfigError):
            RunConfig(problem="dtlz2", m=3, n=20, max_evals=2000, seeds=()).validate()

    def test_bad_theta_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            RunConfig(problem="dtlz2", m=3, n=20, max_evals=2000, theta=1.5).validate()

    def test_bad_window_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            RunConfig(problem="dtlz2", m=3, n=20, max_evals=2000, w=0).validate()


class TestRun:
    def test_deterministic_given_seed(self):
        cfg = RunConfig(problem="dtlz2", **SMALL)
        a = run(cfg, 7)
        b = run(cfg, 7)
        assert np.array_equal(a.final_objectives, b.final_objectives)
        assert np.array_equal(a.final_solutions, b.final_solutions)
        assert np.array_equal(a.igd_values, b.igd_values)
        assert [e.to_dict() for e in a.events] == [e.to_dict() for e in b.events]

    def test_generation_accounting(self):
        cfg = RunConfig(problem="dtlz2", **SMALL)
        rec = run(cfg, 1)
        counts = [g.eval_count for g in rec.generations]
        assert counts[0] == 2 * cfg.n
        # one population of offspring per generation until the final,
        # possibly partial, generation
        deltas = np.diff([cfg.n] + counts)
        assert np.all(deltas[:-1] == cfg.n)
        assert 0 < deltas[-1] <= cfg.n
        assert counts[-1] == cfg.max_evals

    def test_final_population_size_and_sampling(self):
        cfg = RunConfig(problem="maf1", **SMALL)
        rec = run(cfg, 3)
        assert rec.final_objectives.shape == (cfg.n, cfg.m)
        assert len(rec.igd_values) == cfg.sample_points
        assert rec.sample_times[0] == cfg.n
        assert rec.sample_times[-1] == cfg.max_evals
        assert rec.final_igd == rec.igd_values[-1]

    def test_partial_front_triggers_shrink(self):
        cfg = RunConfig(problem="maf1", m=3, n=40, max_evals=8000, w=10,
                        igd_samples=500, sample_points=11)
        rec = run(cfg, 1)
        assert any(e.kind == "shrink" for e in rec.events)

    def test_full_front_never_adapts_after_stabilizing(self):
        cfg = RunConfig(problem="dtlz2", m=3, n=40, max_evals=8000, w=10,
                        igd_samples=500, sample_points=11)
        rec = run(cfg, 1)
        assert all(e.kind == "none" for e in rec.events)

    def test_fixed_z_matches_full_run_when_nothing_fires(self):
        base = RunConfig(problem="dtlz2", m=3, n=40, max_evals=8000, w=10,
                         igd_samples=500, sample_points=11)
        fixed = RunConfig(**{**base.__dict__, "adapt_refs": False})
        a, b = run(base, 5), run(fixed, 5)
        assert np.array_equal(a.final_objectives, b.final_objectives)
        assert np.array_equal(a.igd_values, b.igd_values)

    def test_no_ia_changes_pool_but_stays_deterministic(self):
        base = RunConfig(problem="maf1", **SMALL)
        noia = RunConfig(**{**base.__dict__, "use_ia": False})
        rec = run(noia, 2)
        again = run(noia, 2)
        assert np.array_equal(rec.final_objectives, again.final_objectives)
        assert len(rec.final_ia_objectives) == 0

    def test_five_objectives_end_to_end(self):
        cfg = RunConfig(problem="dtlz2", m=5, n=70, max_evals=700,
                        igd_samples=300, sample_points=5)
        rec = run(cfg, 1)
        assert rec.final_objectives.shape == (70, 5)
        assert np.isfinite(rec.final_igd)

    def test_large_decision_space_override(self):
        # distance-variable count scales independently of the objectives
        cfg = RunConfig(problem="maf1", m=3, d=60, n=20, max_evals=600,
                        igd_samples=200, sample_points=5)
        rec = run(cfg, 1)
        assert rec.final_solutions.shape == (20, 60)

    def test_sampling_denser_than_generations(self):
        # more sample points than generations: schedule entries repeat the
        # generation's value and the trajectory still has exactly T rows
        cfg = RunConfig(problem="dtlz2", m=3, n=20, max_evals=80,
                        igd_samples=200, sample_points=37)
        rec = run(cfg, 1)
        assert len(rec.igd_values) == 37
        # one value per recording moment: init, three generations, final
        assert len(np.unique(rec.igd_values)) <= 5


class TestExperiment:
    def test_single_seed_has_zero_stability(self, tmp_path):
        cfg = RunConfig(problem="dtlz2", seeds=(1,), out_dir=str(tmp_path / "o"), **SMALL)
        result = experiment(cfg)
        assert result.summary["stability_v"] == 0.0
        assert np.array_equal(result.trajectory.lower, result.trajectory.upper)

    def test_summary_and_files(self, tmp_path):
        out = tmp_path / "exp"
        cfg = RunConfig(problem="maf1", seeds=(1, 2, 3), out_dir=str(out), **SMALL)
        result = experiment(cfg)
        s = result.summary
        assert s["status"] == "ok"
        per_seed = list(s["final_igd"]["per_seed"].values())
        assert s["final_igd"]["median"] == pytest.approx(float(np.median(per_seed)))
        assert s["final_igd"]["best"] == min(per_seed)
        assert s["final_igd"]["worst"] == max(per_seed)
        assert (out / "trajectory.csv").exists()
        assert (out / "summary.json").exists()
        for seed in (1, 2, 3):
            seed_dir = out / f"seed_{seed}"
            for name in ("final_population.csv", "individual_archive.csv",
                         "igd.csv", "events.jsonl"):
                assert (seed_dir / name).exists()
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "eval_count,mean,lower,upper"
        reread = json.loads((out / "summary.json").read_text())
        assert reread == s

    def test_trajectory_matches_recorded_igd(self):
        cfg = RunConfig(problem="dtlz2", seeds=(4,), **SMALL)
        result = experiment(cfg)
        rec = result.records[0]
        spec = cfg.resolve_problem()
        pf = spec.sample_true_pf(cfg.igd_samples)
        assert rec.igd_values[-1] == pytest.approx(igd(pf, rec.final_objectives), rel=1e-12)

    def test_failed_seed_flags_partial_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "abort"
        cfg = RunConfig(problem="dtlz2", seeds=(1, 2), out_dir=str(out), **SMALL)
        real_run = runner_mod.run

        def flaky(config, seed, pf_samples=None):
            if seed == 2:
                raise RuntimeError("synthetic failure")
            return real_run(config, seed, pf_samples)

        monkeypatch.setattr(runner_mod, "run", flaky)
        with pytest.raises(RuntimeError):
            experiment(cfg)
        flagged = json.loads((out / "summary.json").read_text())
        assert flagged["status"] == "aborted"
        assert flagged["failed_seed"] == 2
        assert flagged["completed_seeds"] == [1]
