import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from refadapt.cli import _RUN_OPTIONS, _build_config, build_parser, main, parse_seeds
from refadapt.runner import RunConfig
from refadapt.variation import VariationParams

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

    @pytest.mark.parametrize("flag", ["--eta-c", "--eta-m"])
    def test_nan_distribution_index_is_config_error(self, flag):
        assert main(["run", "--problem", "dtlz2", "--m", "3", "--n", "20",
                     "--evals", "200", flag, "nan"]) == 1

    @pytest.mark.parametrize("seeds", ["1,1", "-1"])
    def test_duplicate_or_negative_seeds_are_config_errors(self, tmp_path, seeds):
        out = tmp_path / "res"
        assert main(["run", "--problem", "dtlz2", "--m", "3", "--n", "20",
                     "--evals", "200", f"--seeds={seeds}", "--out", str(out)]) == 1
        assert not out.exists()              # rejected before any seed runs

    @pytest.mark.parametrize("content", [
        {"seeds": 5},
        {"m": [3]},
        {"theta": {"x": 1}},
        [1, 2],
        "dtlz2",
        {"no_ia": "false"},
        {"fixed_z": "no"},
        {"m": 3.7},
        {"n": 20.9},
        {"w": True},
        {"theta": "0.3"},
        {"seeds": [1.5]},
    ], ids=["int_seeds", "list_m", "dict_theta", "list_file", "string_file",
            "string_no_ia", "string_fixed_z", "float_m", "float_n", "bool_w",
            "string_theta", "float_seed"])
    def test_wrong_typed_config_file_is_config_error(self, tmp_path, content):
        opts = {"problem": "dtlz2", "m": 3, "n": 20, "evals": 200}
        if isinstance(content, dict):
            content = {**opts, **content}
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(content))
        assert main(["run", "--config", str(cfg_file)]) == 1


def _config_from(argv):
    return _build_config(build_parser().parse_args(["run", *argv]))


REQUIRED_FLAGS = ["--problem", "dtlz2", "--m", "3", "--n", "20", "--evals", "200"]


class TestRunOptions:
    def test_absent_options_take_library_defaults(self):
        assert _config_from(REQUIRED_FLAGS) == RunConfig(problem="dtlz2", m=3, n=20, max_evals=200)

    def test_config_file_matches_flags(self, tmp_path):
        values = {
            "problem": "maf1", "m": 4, "d": 9, "n": 30, "evals": 900, "w": 7,
            "theta": 0.3, "seeds": "2..4", "out": "res", "igd_samples": 50,
            "sample_points": 5, "eta_c": 15.0, "eta_m": 10.0, "p_c": 0.9,
            "p_m": 0.25, "no_ia": True, "fixed_z": True,
        }
        assert set(values) == set(_RUN_OPTIONS)
        flags = []
        for key, value in values.items():
            flag = "--" + key.replace("_", "-")
            flags += [flag] if value is True else [flag, str(value)]
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps(values))
        from_flags = _config_from(flags)
        assert _config_from(["--config", str(cfg_file)]) == from_flags
        assert from_flags == RunConfig(
            problem="maf1", m=4, d=9, n=30, max_evals=900, w=7, theta=0.3,
            seeds=(2, 3, 4), out_dir="res", igd_samples=50, sample_points=5,
            variation=VariationParams(eta_c=15.0, eta_m=10.0, p_c=0.9, p_m=0.25),
            use_ia=False, adapt_refs=False,
        )

    def test_config_file_nulls_take_defaults(self, tmp_path):
        cfg_file = tmp_path / "config.json"
        cfg_file.write_text(json.dumps({
            "problem": "dtlz2", "m": 3, "n": 20, "evals": 200,
            "d": None, "p_m": None, "out": None, "seeds": [1, 2], "eta_c": 20,
        }))
        assert _config_from(["--config", str(cfg_file)]) == RunConfig(
            problem="dtlz2", m=3, n=20, max_evals=200, seeds=(1, 2))


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


# sha256 of report.json and similarity_matrix.csv (None where not written)
# from `refadapt simulate --scenarios scenarios/fractal_default.json`
SIMULATE_FORMS = {
    "plain": (),
    "permutations": ("--permutations",),
    "carry_over": ("--permutations", "--carry-over"),
}
SIMULATE_PINNED = {
    ("plain", 24): ("88e6241adde055bb676574fe06bd98345701c0b74fb3a9fd3ee7b90dc408a23c", None),
    ("plain", 96): ("d4cef85dcfe91533354573b3559b7f86a0471bbf1ce4fa64d3a50b278f7037ad", None),
    ("plain", 384): ("babcdecb34098a9632bab679edf83d4d1f4a1550a707c27605a21ac4e9e677d5", None),
    ("permutations", 24): ("9c0d8367d223cb349a847c5f36bc75d5e24ddf3fb97e8e630c9bd6a83dedd29d",
                           "d833f978ca8db916f0a1ed58072e642123f7dd5a85114c4fcf7628301d54848e"),
    ("permutations", 96): ("7f7f547c3f52a1ab846d02d536940c1347b35501b6962d4a3f7f99902ea12445",
                           "d833f978ca8db916f0a1ed58072e642123f7dd5a85114c4fcf7628301d54848e"),
    ("permutations", 384): ("bbac499530ce81b006fed6da7b87261e7c51884b6ef5ec824b20def8d71a8719",
                            "d833f978ca8db916f0a1ed58072e642123f7dd5a85114c4fcf7628301d54848e"),
    ("carry_over", 24): ("eb5432456da90e008795b8302e24360280d04a6f0d7b5c15ae6e1b705c959de7",
                         "d833f978ca8db916f0a1ed58072e642123f7dd5a85114c4fcf7628301d54848e"),
    ("carry_over", 96): ("586bfa6b5801ad22cb411aa1c9cb15983a4210d63bed75e5957b6f2707536f7b",
                         "d833f978ca8db916f0a1ed58072e642123f7dd5a85114c4fcf7628301d54848e"),
    ("carry_over", 384): ("5e8b82adbe413ea4702401ecca2b1c43549571066bb4fd4434f35e3823740b0e",
                          "0f7a17a164899d968751dc14a8738f21ddbc79c2d76f7de49bae564e2a98c043"),
}


@pytest.mark.parametrize("form, n", SIMULATE_PINNED)
def test_simulate_outputs_pinned(tmp_path, form, n):
    assert main(["simulate", "--scenarios", str(SCENARIOS), "--n", str(n),
                 *SIMULATE_FORMS[form], "--out", str(tmp_path)]) == 0
    got = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        for path in (tmp_path / "report.json", tmp_path / "similarity_matrix.csv")
    )
    assert got == SIMULATE_PINNED[form, n]
