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

import numpy as np

from .adaptation import AdaptationParams
from .reference import ReferenceArchive, ReferenceLayer, simplex_lattice
from .runner import ConfigError, RunConfig, experiment
from .simulate import load_scenarios, permutation_similarity, run_scenario
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


_RUN_DEFAULTS = {
    "problem": None,
    "m": None,
    "d": None,
    "n": None,
    "evals": None,
    "w": 20,
    "theta": 0.2,
    "seeds": "1",
    "out": None,
    "igd_samples": 10_000,
    "sample_points": 101,
    "eta_c": 20.0,
    "eta_m": 20.0,
    "p_c": 1.0,
    "p_m": None,
    "no_ia": False,
    "fixed_z": False,
}


def _merge_run_options(args) -> dict:
    """Defaults < config file < explicit flags."""
    merged = dict(_RUN_DEFAULTS)
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_opts = json.load(fh)
        if not isinstance(file_opts, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_opts) - set(_RUN_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        merged.update(file_opts)
    for key in _RUN_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            merged[key] = value
    return merged


def _build_config(opts: dict) -> RunConfig:
    for required in ("problem", "m", "n", "evals"):
        if opts[required] is None:
            raise ConfigError(f"missing required option --{required.replace('_', '-')}")
    seeds = opts["seeds"]
    try:
        seeds = parse_seeds(seeds) if isinstance(seeds, str) else tuple(int(s) for s in seeds)
        config = RunConfig(
            problem=str(opts["problem"]),
            m=int(opts["m"]),
            d=None if opts["d"] is None else int(opts["d"]),
            n=int(opts["n"]),
            max_evals=int(opts["evals"]),
            w=int(opts["w"]),
            theta=float(opts["theta"]),
            variation=VariationParams(
                eta_c=float(opts["eta_c"]),
                eta_m=float(opts["eta_m"]),
                p_c=float(opts["p_c"]),
                p_m=None if opts["p_m"] is None else float(opts["p_m"]),
            ),
            seeds=seeds,
            igd_samples=int(opts["igd_samples"]),
            sample_points=int(opts["sample_points"]),
            out_dir=opts["out"],
            use_ia=not bool(opts["no_ia"]),
            adapt_refs=not bool(opts["fixed_z"]),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad option value: {exc}") from exc
    if not seeds:
        raise ConfigError("empty seed list")
    return config


def _cmd_run(args) -> int:
    config = _build_config(_merge_run_options(args))
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


def _cmd_simulate(args) -> int:
    scenarios = load_scenarios(args.scenarios)
    params = AdaptationParams(n=args.n, theta=args.theta)
    report: dict = {"n": args.n, "theta": args.theta, "scenarios": []}
    for scenario in scenarios:
        archive = ReferenceArchive.initialize(2, args.n)
        outcome = run_scenario(scenario, archive, params)
        report["scenarios"].append(outcome.to_dict())
    if args.permutations:
        if len(scenarios) < 2:
            raise ConfigError("permutation study needs at least two scenarios")
        perm = permutation_similarity(scenarios, params, carry_over=args.carry_over)
        report["permutation_study"] = perm.to_dict()
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            perm.write_matrix_csv(out / "similarity_matrix.csv")
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(text + "\n", encoding="utf-8")
        print(f"report written to {out}")
    else:
        print(text)
    return 0


def _cmd_lattice(args) -> int:
    coords = simplex_lattice(args.m, args.h)
    layer = ReferenceLayer(args.h, coords, np.ones(len(coords), dtype=bool))
    print(json.dumps(ReferenceArchive(args.m, [layer]).to_json_dict(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="refadapt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a multi-seed benchmark experiment")
    p_run.add_argument("--config", help="JSON file mirroring the flags; flags override")
    p_run.add_argument("--problem", help="benchmark name, e.g. dtlz2 or maf1")
    p_run.add_argument("--m", type=int, help="objective count")
    p_run.add_argument("--d", type=int, help="decision-variable count (problem default if omitted)")
    p_run.add_argument("--n", type=int, help="population size")
    p_run.add_argument("--evals", type=int, help="evaluation budget")
    p_run.add_argument("--w", type=int, help="stability window (default 20)")
    p_run.add_argument("--theta", type=float, help="adaptation tolerance ratio (default 0.2)")
    p_run.add_argument("--seeds", help="seed list: '7', '1,5,9' or '1..20'")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--igd-samples", dest="igd_samples", type=int)
    p_run.add_argument("--sample-points", dest="sample_points", type=int)
    p_run.add_argument("--eta-c", dest="eta_c", type=float)
    p_run.add_argument("--eta-m", dest="eta_m", type=float)
    p_run.add_argument("--p-c", dest="p_c", type=float)
    p_run.add_argument("--p-m", dest="p_m", type=float)
    p_run.add_argument("--no-ia", dest="no_ia", action="store_true",
                       help="ablation: adapt from population activity, no individual archive")
    p_run.add_argument("--fixed-z", dest="fixed_z", action="store_true",
                       help="ablation: keep the base reference set, no adaptation")
    p_run.set_defaults(func=_cmd_run)

    p_sim = sub.add_parser("simulate", help="drive the adaptation engine on scenario files")
    p_sim.add_argument("--scenarios", required=True, help="scenario JSON file")
    p_sim.add_argument("--n", type=int, required=True, help="target active count")
    p_sim.add_argument("--theta", type=float, default=0.2)
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
    except (ConfigError, FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        log.error("configuration error: %s", exc)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        log.error("runtime failure: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
