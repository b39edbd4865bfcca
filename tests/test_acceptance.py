"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Artifacts (similarity matrices, experiment outputs) land in one
``acceptance`` directory under pytest's session temporary directory, so
the checkout is never written; ``--basetemp DIR`` keeps them in
``DIR/acceptance``.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from refadapt.adaptation import AdaptationParams
from refadapt.cli import _similarity_table
from refadapt.metrics import igd
from refadapt.reference import ReferenceArchive, lattice_size, simplex_lattice
from refadapt.runner import RunConfig, experiment, write_csv
from refadapt.selection import cascade_cluster
from refadapt.simulate import (
    default_scenarios,
    partial_arc_scenario,
    permutation_similarity,
    quarter_circle_scenario,
    run_scenario,
)

from oracles import cascade_cluster_oracle, igd_oracle, random_instance

REPO = Path(__file__).resolve().parents[1]
DESK_SCALE = dict(m=3, d=12, n=92, max_evals=20_000, seeds=tuple(range(1, 11)))


def verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


@pytest.fixture(scope="session")
def artifacts(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("acceptance", numbered=False)


def _experiment(artifacts: Path, problem: str, tag: str, **overrides) -> dict:
    out = artifacts / f"{problem}_{tag}"
    cfg = RunConfig(problem=problem, out_dir=str(out), **DESK_SCALE, **overrides)
    return experiment(cfg).summary


def test_criterion_01_lattice_exactness():
    t0 = time.perf_counter()
    ok = True
    for m in range(2, 7):
        for h in range(1, 9):
            pts = simplex_lattice(m, h)
            ok &= len(pts) == math.comb(h + m - 1, m - 1)
            rows = {tuple(r) for r in pts.tolist()}
            ok &= len(rows) == len(pts)
        # layer set-difference sizes follow the binomial differences
        arch = ReferenceArchive(m, 2)
        ok &= len(arch.new_layer()) == lattice_size(m, 4) - lattice_size(m, 2)
        arch.add_layer(np.zeros(len(arch.enabled), dtype=bool))
        ok &= len(arch.new_layer()) == lattice_size(m, 8) - lattice_size(m, 4)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    verdict(1, "lattice sizes and layer differences are exact", ok,
            f"runtime {elapsed:.3f}s")


def test_criterion_02_selection_oracle_equivalence():
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(200):
        m = int(rng.integers(2, 4))
        pool, Z, n_select, ideal = random_instance(rng, m, pool_max=30, z_max=12)
        res = cascade_cluster(pool, Z, n_select, ideal)
        sel, act, cen = cascade_cluster_oracle(pool, Z, n_select, ideal)
        if (res.selected.tolist() != sel or res.active.tolist() != act
                or res.centers.tolist() != cen):
            mismatches += 1
    verdict(2, "cascade clustering equals the step-by-step oracle",
            mismatches == 0, f"{mismatches} mismatches in 200 instances")


def test_criterion_03_sequential_equivalence():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(100):
        m = int(rng.integers(2, 4))
        pool, Z, n_select, ideal = random_instance(rng, m, pool_max=24, z_max=10)
        combined = cascade_cluster(pool, Z, n_select, ideal)
        _, _, centers_first = cascade_cluster_oracle(pool, Z, len(pool), ideal)
        population_then, _, _ = cascade_cluster_oracle(pool, Z, n_select, ideal)
        if (combined.centers.tolist() != centers_first
                or combined.selected.tolist() != population_then):
            mismatches += 1
    verdict(3, "one combined pass equals archive-then-population passes",
            mismatches == 0, f"{mismatches} mismatches in 100 instances")


def test_criterion_04_adaptation_band_convergence():
    params24 = AdaptationParams(n=24, theta=0.2)
    archive = ReferenceArchive.initialize(2, 24)
    shrunk = run_scenario(partial_arc_scenario(), archive, params24)
    ok = shrunk.converged and 20 <= shrunk.n_active <= 28
    ok &= any(e.kind == "shrink" for e in shrunk.events)
    widened = run_scenario(quarter_circle_scenario(), archive, params24)
    ok &= widened.converged and 20 <= widened.n_active <= 28
    ok &= any(e.kind == "expand" for e in widened.events)

    detail = [f"shrink->{shrunk.n_active}", f"expand->{widened.n_active}"]
    for scenario in default_scenarios():
        inacc = {}
        for n in (24, 96):
            report = run_scenario(
                scenario, ReferenceArchive.initialize(2, n),
                AdaptationParams(n=n, theta=0.2))
            ok &= report.converged
            inacc[n] = report.inaccuracy
        ok &= inacc[24] <= 0.25
        ok &= inacc[96] <= inacc[24]
        detail.append(f"{scenario.name}: {inacc[24]:.3f}@24 {inacc[96]:.3f}@96")
    verdict(4, "shrink/expand converge into the tolerance band", ok,
            "; ".join(detail))


def test_criterion_05_order_insensitivity(artifacts):
    t0 = time.perf_counter()
    params = AdaptationParams(n=24, theta=0.2)
    scenarios = default_scenarios()

    reset = permutation_similarity(scenarios, params, carry_over=False)
    write_csv(artifacts / "similarity_reset.csv", *_similarity_table(reset))
    ok = all(np.all(mat == 100.0) for mat in reset.matrices.values())

    carry = permutation_similarity(scenarios, params, carry_over=True)
    write_csv(artifacts / "similarity_carry.csv", *_similarity_table(carry))
    ok &= carry.mean_similarity >= 95.0

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    verdict(5, "24 scenario orders give identical enabled sets", ok,
            f"reset {reset.mean_similarity:.2f}%, carry {carry.mean_similarity:.2f}%, "
            f"runtime {elapsed:.1f}s, matrices in {artifacts}")


def test_criterion_06_igd_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        S = rng.uniform(0, 2, (int(rng.integers(2, 60)), int(rng.integers(2, 5))))
        P = rng.uniform(0, 2, (int(rng.integers(2, 40)), S.shape[1]))
        lib = igd(S, P)
        ora = igd_oracle(S.tolist(), P.tolist())
        worst = max(worst, abs(lib - ora) / ora)
    verdict(6, "igd equals the double-loop oracle", worst <= 1e-12,
            f"worst relative difference {worst:.2e}")


@pytest.fixture(scope="module")
def ablation_summaries(artifacts):
    t0 = time.perf_counter()
    summaries = {
        problem: {
            "full": _experiment(artifacts, problem, "full"),
            "fixed": _experiment(artifacts, problem, "fixed", adapt_refs=False),
            "noia": _experiment(artifacts, problem, "noia", use_ia=False),
        }
        for problem in ("maf1", "maf6")
    }
    summaries["_elapsed"] = time.perf_counter() - t0
    return summaries


def test_criterion_07_directional_ablation(ablation_summaries):
    elapsed = ablation_summaries["_elapsed"]
    ok = elapsed < 600.0
    detail = [f"runtime {elapsed:.0f}s"]
    beats_noia = 0
    for problem in ("maf1", "maf6"):
        med = {
            variant: ablation_summaries[problem][variant]["final_igd"]["median"]
            for variant in ("full", "fixed", "noia")
        }
        ok &= med["full"] <= med["fixed"]
        beats_noia += med["full"] <= med["noia"]
        detail.append(
            f"{problem}: full {med['full']:.4f} fixed {med['fixed']:.4f} "
            f"noia {med['noia']:.4f}"
        )
    ok &= beats_noia >= 1
    verdict(7, "adaptive medians beat fixed references, archive helps", ok,
            "; ".join(detail))


def test_criterion_08_full_fos_non_regression(artifacts):
    adaptive = _experiment(artifacts, "dtlz2", "full")["final_igd"]["median"]
    fixed = _experiment(artifacts, "dtlz2", "fixed", adapt_refs=False)["final_igd"]["median"]
    gap = abs(adaptive - fixed)
    ok = gap <= 0.10 * min(adaptive, fixed)
    verdict(8, "adaptation does not hurt a fully covering front", ok,
            f"adaptive {adaptive:.4f} vs fixed {fixed:.4f}")


def test_criterion_09_selection_complexity_scaling():
    rng = np.random.default_rng(3)

    def median_wall(n):
        h = 1
        while lattice_size(3, h) < n:
            h += 1
        Z = simplex_lattice(3, h) / float(h)
        samples = []
        for _ in range(20):
            pool = rng.uniform(0.1, 2.0, (2 * n, 3))
            ideal = pool.min(axis=0)
            t0 = time.perf_counter()
            cascade_cluster(pool, Z, n, ideal)
            samples.append(time.perf_counter() - t0)
        return float(np.median(samples))

    base = median_wall(240)
    doubled = median_wall(480)
    factor = doubled / base
    verdict(9, "selection cost grows at most quadratically", factor <= 5.0,
            f"240->480 factor {factor:.2f} (medians {base * 1e3:.1f}ms / {doubled * 1e3:.1f}ms)")


def test_criterion_10_stability_metric():
    from refadapt.metrics import Trajectory, stability

    flat = np.full(101, 0.5)
    zero_width = stability(Trajectory(np.arange(101), flat, flat.copy(), flat.copy()))
    lower = np.full(101, 0.2)
    unit_width = stability(Trajectory(np.arange(101), lower * np.e, lower, lower * np.e))
    cfg = RunConfig(problem="dtlz2", m=3, n=20, max_evals=1500, seeds=(1,),
                    igd_samples=300, sample_points=11)
    single = experiment(cfg).summary["stability_v"]
    ok = zero_width == 0.0 and abs(unit_width - 101.0) < 1e-9 and single == 0.0
    verdict(10, "stability criterion matches its closed forms", ok,
            f"zero-width {zero_width}, unit {unit_width:.12g}, single-seed {single}")


def test_criterion_11_byte_identical_reruns(tmp_path):
    args = [
        "run", "--problem", "dtlz2", "--m", "3", "--n", "20", "--evals", "1500",
        "--seeds", "1,2", "--igd-samples", "300", "--sample-points", "11",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "refadapt.cli", *args, "--out", str(out)],
            capture_output=True, text=True, env=env, cwd=REPO,
        )
        assert proc.returncode == 0, proc.stderr
        dirs.append(out)
    files_a = sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dirs[1]) for p in dirs[1].rglob("*") if p.is_file())
    ok = files_a == files_b and len(files_a) > 0
    differing = []
    for rel in files_a:
        if (dirs[0] / rel).read_bytes() != (dirs[1] / rel).read_bytes():
            differing.append(str(rel))
    ok &= not differing
    verdict(11, "identical config and seed reproduce outputs byte for byte", ok,
            f"{len(files_a)} files compared" + (f"; differing: {differing}" if differing else ""))
