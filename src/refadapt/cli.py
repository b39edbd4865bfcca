"""Command-line interface: run experiments, drive the simulation harness,
and dump reference lattices.

Exit codes: 0 on success, 1 for configuration errors, 2 for runtime
failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .adaptation import AdaptationParams
from .reference import ReferenceArchive
from .runner import ConfigError, RunConfig, experiment, render_json, write_csv
from .simulate import PermutationReport, load_scenarios, permutation_similarity, run_scenario
from .variation import VariationParams

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; config errors are 1 here
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def parse_seeds(text: str) -> tuple[int, ...]:
    """Accept '7', '1,5,9' or a range like '1..20'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", maxsplit=1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(part) for part in text.split(",") if part)


# Each `run` option once: its config-file key (the flag is `--` plus the key
# with dashes), the JSON types the file may give it (the first also parses
# the flag) and its help. Defaults live in RunConfig and VariationParams:
# an option given neither in the file nor as a flag is not passed on.
_NULL = type(None)
_RUN_OPTIONS = {
    "problem": ((str,), "benchmark name, e.g. dtlz2 or maf1"),
    "m": ((int,), "objective count"),
    "d": ((int, _NULL), "decision-variable count (problem default if omitted)"),
    "n": ((int,), "population size"),
    "evals": ((int,), "evaluation budget"),
    "w": ((int,), f"stability window (default {RunConfig.w})"),
    "theta": ((float, int), f"adaptation tolerance ratio (default {AdaptationParams.theta})"),
    "seeds": ((str, list), "seed list: '7', '1,5,9' or '1..20'"),
    "out": ((str, _NULL), "output directory"),
    "igd_samples": ((int,), None),
    "sample_points": ((int,), None),
    "eta_c": ((float, int), None),
    "eta_m": ((float, int), None),
    "p_c": ((float, int), None),
    "p_m": ((float, int, _NULL), None),
    "no_ia": ((bool,), "ablation: adapt from population activity, no individual archive"),
    "fixed_z": ((bool,), "ablation: keep the base reference set, no adaptation"),
}
_JSON_NAMES = {str: "a string", int: "an integer", float: "a float", bool: "true or false",
               list: "a list of integers", _NULL: "null"}


def _file_value(key: str, value):
    """A config-file value of the type the table gives its key, else ConfigError."""
    types = _RUN_OPTIONS[key][0]
    # exact types: JSON true is no integer, and 3.7 no objective count
    if type(value) not in types or (type(value) is list and any(type(s) is not int for s in value)):
        expected = " or ".join(_JSON_NAMES[t] for t in types)
        raise ConfigError(f"config key {key!r} takes {expected}, got {json.dumps(value)}")
    return float(value) if type(value) is int and float in types else value


def _build_config(args) -> RunConfig:
    """RunConfig from the config file, overridden by explicit flags."""
    opts = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_opts = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_opts, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_opts) - set(_RUN_OPTIONS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        opts = {key: _file_value(key, value) for key, value in file_opts.items()}
    opts.update((key, getattr(args, key)) for key in _RUN_OPTIONS if hasattr(args, key))
    for required in ("problem", "m", "n", "evals"):
        if required not in opts:
            raise ConfigError(f"missing required option --{required}")
    opts["variation"] = VariationParams(
        **{key: opts.pop(key) for key in ("eta_c", "eta_m", "p_c", "p_m") if key in opts})
    opts["max_evals"] = opts.pop("evals")
    if "out" in opts:
        opts["out_dir"] = opts.pop("out")
    if "no_ia" in opts:
        opts["use_ia"] = not opts.pop("no_ia")
    if "fixed_z" in opts:
        opts["adapt_refs"] = not opts.pop("fixed_z")
    if "seeds" in opts:
        seeds = opts["seeds"]
        opts["seeds"] = parse_seeds(seeds) if isinstance(seeds, str) else tuple(seeds)
    return RunConfig(**opts)


def _cmd_run(args) -> int:
    config = _build_config(args)
    result = experiment(config)
    summary = result.summary
    print(f"problem={summary['problem']} m={summary['m']} n={summary['n']} "
          f"evals={summary['max_evals']} seeds={len(summary['seeds'])}")
    print(f"final IGD median={summary['final_igd']['median']:.6g} "
          f"best={summary['final_igd']['best']:.6g} "
          f"worst={summary['final_igd']['worst']:.6g} "
          f"stability_v={summary['stability_v']:.6g}")
    if config.out_dir:
        print(f"outputs written to {config.out_dir}")
    return 0


def _similarity_table(perm: PermutationReport):
    """Header and rows of similarity_matrix.csv: every ordered pair of orders per scenario."""
    header = ("scenario", "perm_i", "perm_j", "similarity_pct")
    return header, ((name, i, j, pct) for name in perm.scenario_names
                    for i, row in enumerate(perm.matrices[name].tolist())
                    for j, pct in enumerate(row))


def _cmd_simulate(args) -> int:
    if args.carry_over and not args.permutations:
        raise ConfigError("--carry-over applies only to --permutations")
    try:
        scenarios = load_scenarios(args.scenarios)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file: {exc}") from exc
    params = AdaptationParams(args.n, args.theta)
    report: dict = {"n": args.n, "theta": params.theta, "scenarios": [
        run_scenario(scenario, ReferenceArchive.initialize(2, args.n), params)
        for scenario in scenarios]}
    perm = None
    if args.permutations:
        if len(scenarios) < 2:
            raise ConfigError("permutation study needs at least two scenarios")
        perm = permutation_similarity(scenarios, params, carry_over=args.carry_over)
        report["permutation_study"] = perm
    text = render_json(report, indent=2) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if perm is not None:
        write_csv(out / "similarity_matrix.csv", *_similarity_table(perm))
    (out / "report.json").write_text(text, encoding="utf-8")
    print(f"report written to {out}")
    return 0


def _cmd_lattice(args) -> int:
    print(render_json(ReferenceArchive(args.m, args.h).to_json_dict(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="refadapt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # an absent flag leaves no attribute, so the config file or the default holds
    p_run = sub.add_parser("run", help="run a multi-seed benchmark experiment",
                           argument_default=argparse.SUPPRESS)
    p_run.add_argument("--config", default=None,
                       help="JSON file mirroring the flags; flags override")
    for key, (types, help_text) in _RUN_OPTIONS.items():
        flag = "--" + key.replace("_", "-")
        if types[0] is bool:
            p_run.add_argument(flag, action="store_true", help=help_text)
        else:
            p_run.add_argument(flag, type=types[0], help=help_text)
    p_run.set_defaults(func=_cmd_run)

    p_sim = sub.add_parser("simulate", help="drive the adaptation engine on scenario files")
    p_sim.add_argument("--scenarios", required=True, help="scenario JSON file")
    p_sim.add_argument("--n", type=int, required=True, help="target active count")
    p_sim.add_argument("--theta", type=float, default=AdaptationParams.theta,
                       help=_RUN_OPTIONS["theta"][1])
    p_sim.add_argument("--permutations", action="store_true",
                       help="run the order-insensitivity study over all scenario orders")
    p_sim.add_argument("--carry-over", dest="carry_over", action="store_true",
                       help="permutations share one archive instead of resetting")
    p_sim.add_argument("--out", help="write report.json (and similarity CSV) here")
    p_sim.set_defaults(func=_cmd_simulate)

    p_lat = sub.add_parser("lattice", help="dump a simplex lattice as JSON")
    p_lat.add_argument("--m", type=int, required=True)
    p_lat.add_argument("--h", type=int, required=True)
    p_lat.set_defaults(func=_cmd_lattice)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, json.JSONDecodeError, KeyError, ValueError) as exc:
        log.error("configuration error: %s", exc)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        log.error("runtime failure: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
