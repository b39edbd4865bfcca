import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from refadapt.cli import build_parser, main, parse_seeds

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios" / "fractal_default.json"


def cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "refadapt.cli", *args],
        capture_output=True, text=True, cwd=cwd or REPO, env=env,
    )


class TestParsing:
    def test_seed_forms(self):
        assert parse_seeds("7") == (7,)
        assert parse_seeds("1,5,9") == (1, 5, 9)
        assert parse_seeds("1..4") == (1, 2, 3, 4)

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["lattice", "--m", "3", "--h", "2"])
        assert args.m == 3


class TestExitCodes:
    def test_lattice_ok(self):
        proc = cli("lattice", "--m", "3", "--h", "1")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["M"] == 3
        assert data["layers"][0]["H"] == 1
        assert len(data["layers"][0]["coords"]) == 3

    def test_unknown_problem_is_config_error(self):
        assert main(["run", "--problem", "nope", "--m", "3", "--n", "20",
                     "--evals", "1500"]) == 1

    def test_missing_required_flag_is_config_error(self):
        assert main(["run", "--problem", "dtlz2"]) == 1

    def test_bad_flag_is_config_error(self):
        proc = cli("run", "--bogus")
        assert proc.returncode == 1

    def test_budget_error(self):
        assert main(["run", "--problem", "dtlz2", "--m", "3", "--n", "100",
                     "--evals", "100"]) == 1

    def test_single_sample_point_is_config_error(self):
        assert main(["run", "--problem", "dtlz2", "--m", "3", "--n", "20",
                     "--evals", "1500", "--sample-points", "1"]) == 1


class TestRunCommand:
    def test_end_to_end_with_outputs(self, tmp_path):
        out = tmp_path / "res"
        code = main([
            "run", "--problem", "dtlz2", "--m", "3", "--n", "20",
            "--evals", "1500", "--seeds", "1,2", "--igd-samples", "300",
            "--sample-points", "11", "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert summary["seeds"] == [1, 2]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({
            "problem": "dtlz2", "m": 3, "n": 20, "evals": 1500,
            "seeds": "1", "igd_samples": 300, "sample_points": 11,
        }))
        out = tmp_path / "res"
        code = main(["run", "--config", str(cfg_file), "--problem", "maf1",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["problem"] == "maf1"     # flag wins over file

    def test_oversized_shrink_is_skipped_not_fatal(self):
        # w=1 attempts a shrink every generation: without the association
        # guard the layer at H=256 asks for a 24.4 GiB angle matrix
        assert main(["run", "--problem", "maf1", "--m", "3", "--n", "40",
                     "--evals", "8000", "--w", "1", "--seeds", "3"]) == 0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({"problem": "dtlz2", "bogus": 1}))
        assert main(["run", "--config", str(cfg_file)]) == 1


class TestSimulateCommand:
    def test_report_to_stdout(self):
        proc = cli("simulate", "--scenarios", str(SCENARIOS), "--n", "24",
                   "--theta", "0.2")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert len(report["scenarios"]) == 4
        assert all(entry["converged"] for entry in report["scenarios"])

    def test_permutation_outputs(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--scenarios", str(SCENARIOS), "--n", "24",
                     "--theta", "0.2", "--permutations", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["permutation_study"]["mean_similarity"] == 100.0
        assert (out / "similarity_matrix.csv").exists()
