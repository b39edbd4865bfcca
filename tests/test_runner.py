import hashlib
import json

import numpy as np
import pytest

import refadapt.runner as runner_mod
from refadapt.metrics import igd
from refadapt.runner import ConfigError, RunConfig, experiment, run

from oracles import igd_schedule_oracle, stability_attempts_oracle

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

    @pytest.mark.parametrize("seeds", [(1, 1), (2, 1, 2), (-1,), (3, -2)],
                             ids=["twice", "repeat", "negative", "one_negative"])
    def test_duplicate_or_negative_seeds(self, seeds):
        with pytest.raises(ConfigError):
            RunConfig(problem="dtlz2", m=3, n=20, max_evals=2000, seeds=seeds).validate()

    def test_bad_theta_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            RunConfig(problem="dtlz2", m=3, n=20, max_evals=2000, theta=1.5).validate()

    def test_bad_window_surfaces_as_config_error(self):
        for w in (0, -1):
            with pytest.raises(ConfigError):
                RunConfig(problem="dtlz2", m=3, n=20, max_evals=2000, w=w).validate()

    def test_single_sample_point_rejected(self):
        # the schedule's two ends are the initial and the final population
        with pytest.raises(ConfigError):
            RunConfig(problem="dtlz2", m=3, n=20, max_evals=1500, sample_points=1).validate()


class TestRun:
    def test_deterministic_given_seed(self):
        cfg = RunConfig(problem="dtlz2", **SMALL)
        a = run(cfg, 7)
        b = run(cfg, 7)
        assert np.array_equal(a.final_objectives, b.final_objectives)
        assert np.array_equal(a.final_solutions, b.final_solutions)
        assert np.array_equal(a.igd_values, b.igd_values)
        assert a.events == b.events

    def test_generation_accounting(self):
        cfg = RunConfig(problem="dtlz2", **SMALL)
        rec = run(cfg, 1)
        counts = rec.generations
        assert counts.dtype.kind == "i" and counts[0] == 2 * cfg.n
        # one population of offspring per generation until the final,
        # possibly partial, generation
        deltas = np.diff(np.r_[cfg.n, counts])
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


def _watch_run(monkeypatch, config, seed):
    """Run once, recording every generation's (participating size, active
    indices) and the generations of the adaptation attempts."""
    history, attempts = [], []
    real_cluster, real_adapt = runner_mod.cascade_cluster, runner_mod.adapt

    def cluster(objs, directions, n_select, ideal):
        result = real_cluster(objs, directions, n_select, ideal)
        history.append((len(directions), result.active.tolist()))
        return result

    def adapt(archive, active, params, generation=0):
        attempts.append(generation)
        return real_adapt(archive, active, params, generation)

    monkeypatch.setattr(runner_mod, "cascade_cluster", cluster)
    monkeypatch.setattr(runner_mod, "adapt", adapt)
    rec = run(config, seed)
    return rec, history[:-1], attempts      # the last pass picks the final population


class TestStabilityWindow:
    def test_window_of_one_attempts_every_generation(self, monkeypatch):
        cfg = RunConfig(problem="maf1", **{**SMALL, "w": 1})
        rec, history, attempts = _watch_run(monkeypatch, cfg, 1)
        assert len(rec.generations) == len(history)
        assert attempts == list(range(1, len(history) + 1))
        assert [e.generation for e in rec.events] == attempts

    @pytest.mark.parametrize("w", [2, 3, 5])
    def test_attempts_at_least_w_apart(self, monkeypatch, w):
        cfg = RunConfig(problem="maf1", **{**SMALL, "w": w})
        _, _, attempts = _watch_run(monkeypatch, cfg, 2)
        assert attempts and attempts[0] >= w
        assert np.all(np.diff(attempts) >= w)

    @pytest.mark.parametrize("problem,w,use_ia,adapt_refs", [
        ("maf1", 2, True, True),
        ("maf1", 3, False, True),
        ("dtlz2", 2, True, True),
        ("maf1", 2, True, False),
    ])
    def test_attempts_match_activity_ring_oracle(self, monkeypatch, problem, w, use_ia, adapt_refs):
        cfg = RunConfig(problem=problem, m=3, n=20, max_evals=3000, w=w, igd_samples=100,
                        sample_points=5, use_ia=use_ia, adapt_refs=adapt_refs)
        rec, history, attempts = _watch_run(monkeypatch, cfg, 4)
        assert attempts == stability_attempts_oracle(history, w, adapt_refs)
        assert [e.generation for e in rec.events] == attempts


class TestIgdSchedule:
    @pytest.mark.parametrize("n,max_evals", [(20, 40), (20, 45), (20, 101), (20, 130), (7, 200)])
    @pytest.mark.parametrize("sample_points", [2, 3, 7, 50])
    def test_matches_cursor_oracle(self, monkeypatch, n, max_evals, sample_points):
        # budgets off the population grid, and sample counts both above and
        # below the generation count; the scored populations arrive as one
        # stack after the loop, and each one's value is its stack position
        calls = []

        def indexing_igd(samples, populations):
            calls.append(populations.shape)
            return np.arange(len(populations), dtype=float)

        monkeypatch.setattr(runner_mod, "igd", indexing_igd)
        cfg = RunConfig(problem="dtlz2", m=3, n=n, max_evals=max_evals, igd_samples=50,
                        sample_points=sample_points)
        rec = run(cfg, 1)
        assert len(calls) == 1 and calls[0][1:] == (n, 3)
        assert rec.igd_values.tolist() == igd_schedule_oracle(n, max_evals, sample_points)
        assert rec.final_igd == calls[0][0] - 1


# sha256 of (final_population.csv, individual_archive.csv, events.jsonl)
# per seed, recorded for MaF1 with M=3, N=40, 8000 evaluations and w=10,
# and for DTLZ2 with M=5, N=35, 6000 evaluations and w=10 ("dtlz2_m5");
# the runs shrink, expand (M=5) and log "none" events without reaching any
# guard. IGD files are left out: IGD can differ in the last ulp across
# machines.
PINNED = {
    "full": {
        1: ("f6def6c8b12c692385172b2031a0b070d2c336b912c3933e0347136eb1a51edd",
            "28223e3d59ecec375a97aedeeff3c9ab6fee9c1f942146eb4f3f5e6be6217b32",
            "cd5392dade67a30cc9d43a346cd928936e8f9a11f2e581f64f59ae48bf642027"),
        2: ("a74f06788159c878a59f69b667be4db1b0f9e7a1ea4d5e164561495247a7796c",
            "2293ab78f7493b9fa6d849da80511c850de603e0f9c711af143ad6d2e7427e71",
            "4bc190bb03ff7cc9523107938913661f8656e79a0a489b87567b0bbd0def5bea"),
    },
    "no_ia": {
        1: ("ad10ae7ab8db604c8b278c1bc8997527218efcc8c1e9b643e419dac58d5f7325",
            "75006944bc4f7831dfa33f692457fc7d97abd16170b6e9655c03dded544274d6",
            "053acd6745cd1118b6d4ca48bca46d8d4dbdd28ecb8b741668fde621f7ae5c56"),
        2: ("08241e14516e59b631936463aa46bc10d8252a9efa46e3e6cf8b1d041817a31b",
            "75006944bc4f7831dfa33f692457fc7d97abd16170b6e9655c03dded544274d6",
            "602c84a5c3a6f10ba2cac670a9e53a224ee1625dc66860678764f62150ff0a23"),
    },
    "fixed_z": {
        1: ("efb5b49ee6de032bf06226dc7228d185d2d71bafa3dc2f39dd5af4ce6eab6969",
            "53f38edac4575ae18bc5919b0450fd4ad4ccb76c87cd2b5f292badad14e8a350",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        2: ("1b52463275be793f9c34a9279ada55d77d73ca64368a0a8e94039b78173590dc",
            "a61ce295f2b1b81d21417b85590491b70aea5807b2d55b4460646d864a56b7f6",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "dtlz2_m5": {
        1: ("849a158d0c8e0e20883f9d9947feac79f7875a0d305cc207d0c7be8191c8442b",
            "990525d36f3d1babfd66d580fc5cdc847f06181f5b9e3468f507ed1a44785182",
            "f185e2950ad8d048551268003592ff390992465087e3e3d29fd63368517603c6"),
        2: ("e37f82f80e2ac6810c1fb3e5e2c5e94d8eb7ee35e9b66b2df72c95126555b794",
            "a1e41206adceba7964ee45ac476ed0f00bfea0b6d683d5c2ca7b356370620e34",
            "fc998a2586730845573fa0efc7072f70b629122f2bd41cca119495d569a0b7f7"),
    },
}


@pytest.mark.parametrize("variant", sorted(PINNED))
def test_outputs_pinned(tmp_path, variant):
    if variant == "dtlz2_m5":
        problem = dict(problem="dtlz2", m=5, n=35, max_evals=6000)
    else:
        problem = dict(problem="maf1", m=3, n=40, max_evals=8000)
    cfg = RunConfig(**problem, w=10, seeds=(1, 2), out_dir=str(tmp_path),
                    use_ia=variant != "no_ia", adapt_refs=variant != "fixed_z")
    experiment(cfg)
    for seed, digests in PINNED[variant].items():
        files = ("final_population.csv", "individual_archive.csv", "events.jsonl")
        got = tuple(hashlib.sha256((tmp_path / f"seed_{seed}" / name).read_bytes()).hexdigest()
                    for name in files)
        assert got == digests, f"seed {seed}"


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
        # byte for byte: int counts, shortest round-trip floats, no final newline in JSON
        traj = result.trajectory
        assert (out / "trajectory.csv").read_bytes() == (
            "eval_count,mean,lower,upper\n" + "".join(
                f"{int(t)},{float(m)!r},{float(lo)!r},{float(up)!r}\n"
                for t, m, lo, up in zip(traj.sample_times, traj.mean, traj.lower, traj.upper))
        ).encode()
        for rec in result.records:
            assert (out / f"seed_{rec.seed}" / "igd.csv").read_bytes() == (
                "eval_count,igd\n" + "".join(
                    f"{int(t)},{float(v)!r}\n" for t, v in zip(rec.sample_times, rec.igd_values))
            ).encode()
        assert (out / "summary.json").read_bytes() == json.dumps(s, indent=2, sort_keys=True).encode()

    def test_trajectory_matches_recorded_igd(self):
        cfg = RunConfig(problem="dtlz2", seeds=(4,), **SMALL)
        result = experiment(cfg)
        rec = result.records[0]
        spec = cfg.validate()
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
        assert (out / "summary.json").read_bytes() == json.dumps(
            {"status": "aborted", "problem": "dtlz2", "failed_seed": 2,
             "completed_seeds": [1], "error": "synthetic failure"},
            indent=2, sort_keys=True).encode()
