import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from refadapt.adaptation import AdaptationParams
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

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command", [["run", "--config"],
                                         ["simulate", "--n", "24", "--scenarios"]],
                             ids=["run_config", "simulate_scenarios"])
    def test_unreadable_input_file_is_config_error(self, tmp_path, kind, command):
        path = tmp_path / "input.json"
        if kind == "directory":
            path.mkdir()
        assert main([*command, str(path)]) == 1

    def test_out_naming_a_file_is_runtime_failure(self, tmp_path):
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["simulate", "--scenarios", str(SCENARIOS), "--n", "24",
                     "--out", str(out)]) == 2

    def test_run_out_naming_a_file_fails_before_any_seed(self, tmp_path, monkeypatch):
        out = tmp_path / "taken"
        out.write_text("")
        calls = []
        monkeypatch.setattr("refadapt.runner.run", lambda *args: calls.append(args))
        assert main(["run", "--problem", "dtlz2", "--m", "3", "--n", "20", "--evals", "200",
                     "--seeds", "1,2", "--out", str(out)]) == 2
        assert calls == []

    def test_carry_over_without_permutations_is_config_error(self):
        assert main(["simulate", "--scenarios", str(SCENARIOS), "--n", "24",
                     "--carry-over"]) == 1

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


    @pytest.mark.parametrize("arc, density", [
        ({"center": [float("nan"), 0.0], "radius": 1.0, "a0": 0.2, "a1": 1.2}, 400.0),
        ({"center": [0.0, 0.0], "radius": 1.0, "a0": 0.2, "a1": 1.2}, float("inf")),
        ({"center": [0.0, 0.0], "radius": float("inf"), "a0": 0.2, "a1": 1.2}, 400.0),
        ({"center": [0.0, 0.0], "radius": 1.0, "a0": 0.2, "a1": 1.2}, 1e12),
        ({"center": [0.0, 0.0], "radius": 1.0, "a0": 0.2, "a1": 1.2}, 0.0),
        ({"center": [0.0, 0.0], "radius": 1.0, "a0": 0.2, "a1": 1.2}, -5.0),
    ], ids=["nan_center", "inf_density", "inf_radius", "huge_density", "zero_density",
            "negative_density"])
    def test_non_finite_scenario_is_config_error(self, tmp_path, arc, density):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps({"name": "bad", "density": density,
                                    "segments": [{"arc": arc}]}))
        assert main(["simulate", "--scenarios", str(path), "--n", "24"]) == 1

    @pytest.mark.parametrize("content, message", [
        ([{"name": "ok", "density": 400.0, "segments": [{"from": [0.1, 1.0], "to": [1.0, 0.1]}]},
          [1, 2]], "scenario entry 1 is not a JSON object"),
        (5, "a scenario file holds a JSON object or a list of them"),
        ({"name": "bad", "density": 400.0, "segments": []}, "scenario 'bad' has no segments"),
        ({"name": "bad", "density": 400.0,
          "segments": [{"from": [1, 0, 1], "to": [0, 1, 1]}]},
         "scenario 'bad' has a point that is not two numbers"),
        ({"name": "bad", "density": 400.0,
          "segments": [{"arc": {"center": ["0", 0], "radius": 1.0, "a0": 0.2, "a1": 1.2}}]},
         "scenario 'bad' has a point that is not two numbers"),
        ({"name": "bad", "density": 400.0, "segments": [5]},
         "scenario 'bad' has a segment 0 that is not a JSON object"),
        ({"name": "bad", "density": 400.0, "segments": [{"arc": [0, 0]}]},
         "scenario 'bad' has a segment 0 that is not a JSON object"),
        ({"name": "bad", "density": 400.0, "segments": {"from": [0.1, 1.0], "to": [1.0, 0.1]}},
         "scenario 'bad' has segments that are not a JSON list"),
        ({"name": "bad", "density": 400.0,
          "segments": [{"arc": {"center": [0, 0], "radius": "1", "a0": 0.2, "a1": 1.2}}]},
         "scenario 'bad' has a non-numeric radius: '1'"),
        ({"name": "bad", "density": 400.0,
          "segments": [{"arc": {"center": [0, 0], "radius": 1.0, "a0": "0.2", "a1": 1.2}}]},
         "scenario 'bad' has a non-numeric a0: '0.2'"),
        ({"name": "bad", "density": 400.0,
          "segments": [{"arc": {"center": [0, 0], "radius": 1.0, "a0": 0.2, "a1": True}}]},
         "scenario 'bad' has a non-numeric a1: True"),
        ({"name": "bad", "density": "400",
          "segments": [{"from": [0.1, 1.0], "to": [1.0, 0.1]}]},
         "scenario 'bad' has a non-numeric density: '400'"),
        ({"name": ["x"], "density": 400.0,
          "segments": [{"from": [0.1, 1.0], "to": [1.0, 0.1]}]},
         "scenario name is not a string: ['x']"),
    ], ids=["entry_not_object", "number_file", "no_segments", "three_coordinates",
            "string_coordinate", "segment_not_object", "arc_not_object", "segments_not_list",
            "string_radius", "string_a0", "bool_a1", "string_density", "list_name"])
    def test_malformed_scenario_is_config_error(self, tmp_path, caplog, content, message):
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(content))
        assert main(["simulate", "--scenarios", str(path), "--n", "24"]) == 1
        assert message in caplog.text

    def test_lattice_stdout_pinned(self):
        # sha256 of `refadapt lattice --m 3 --h 4`
        proc = cli("lattice", "--m", "3", "--h", "4")
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
            "ac904a00b2744594a86b84207922ce9b0929357ab38ce38a4c1bc47f4ac50525")

    @pytest.mark.parametrize("m, h, message", [
        (1, 3, "at least two objectives"),
        (3, 0, "density must be positive"),
        (12, 40, "above the 5000000 limit"),
    ])
    def test_invalid_lattice_is_config_error(self, caplog, m, h, message):
        assert main(["lattice", "--m", str(m), "--h", str(h)]) == 1
        assert message in caplog.text


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

    def test_theta_defaults_to_library_default(self):
        args = build_parser().parse_args(["simulate", "--scenarios", "s.json", "--n", "24"])
        assert args.theta == AdaptationParams.theta

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
                           "a7a5db555d492b4156b8809de175ae741bf8465ccfe72f4663938fe99c4236cb"),
    ("permutations", 96): ("7f7f547c3f52a1ab846d02d536940c1347b35501b6962d4a3f7f99902ea12445",
                           "a7a5db555d492b4156b8809de175ae741bf8465ccfe72f4663938fe99c4236cb"),
    ("permutations", 384): ("bbac499530ce81b006fed6da7b87261e7c51884b6ef5ec824b20def8d71a8719",
                            "a7a5db555d492b4156b8809de175ae741bf8465ccfe72f4663938fe99c4236cb"),
    ("carry_over", 24): ("eb5432456da90e008795b8302e24360280d04a6f0d7b5c15ae6e1b705c959de7",
                         "a7a5db555d492b4156b8809de175ae741bf8465ccfe72f4663938fe99c4236cb"),
    ("carry_over", 96): ("586bfa6b5801ad22cb411aa1c9cb15983a4210d63bed75e5957b6f2707536f7b",
                         "a7a5db555d492b4156b8809de175ae741bf8465ccfe72f4663938fe99c4236cb"),
    ("carry_over", 384): ("5e8b82adbe413ea4702401ecca2b1c43549571066bb4fd4434f35e3823740b0e",
                          "bc6fba1037066d1220660a359659003a86fec4301656db84e849d918652f5a01"),
}


@pytest.mark.parametrize("form, n", SIMULATE_PINNED)
def test_simulate_outputs_pinned(tmp_path, capsys, form, n):
    args = ["simulate", "--scenarios", str(SCENARIOS), "--n", str(n), *SIMULATE_FORMS[form]]
    assert main([*args, "--out", str(tmp_path)]) == 0
    got = tuple(
        hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        for path in (tmp_path / "report.json", tmp_path / "similarity_matrix.csv")
    )
    assert got == SIMULATE_PINNED[form, n]
    # without --out the same report, final newline included, goes to stdout
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == (tmp_path / "report.json").read_bytes()
