"""Command-line interface.

Subcommands: converge, trajectory, steady, tune-phase, sweep-theta2,
robustness, ladder, validate. Options can also come from a JSON config file
(--config) mirroring ExperimentConfig; explicit flags override file values.
Exit codes: 0 success, 2 configuration error, 3 numerical-validity error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import SCENARIOS, ExperimentConfig, parse_nbars
from .errors import ConfigError, NumericalValidityError
from . import experiments, output


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nbar", type=int, help="target photon number (default 3)")
    p.add_argument("--theta2", type=float, help="middle pulse area in rad (default per scenario)")
    p.add_argument("--eta", type=float, help="Lyapunov mixing weight in (0,1), default 0.5")
    p.add_argument("--dim", type=int, help="field truncation (default 9*(nbar+1))")
    p.add_argument("--steps", type=int, help="number of atomic cycles")
    p.add_argument("--kappa", type=float, help="environment coupling in 1/s")
    p.add_argument("--nth", type=float, help="thermal occupancy of the environment")
    p.add_argument("--ts", type=float, help="cycle period in s (default 60e-6)")
    p.add_argument("--pat", type=float, help="atom presence probability in [0,1]")
    p.add_argument("--phi", type=float, help="middle-segment phase in rad (default: tuned)")
    p.add_argument("--theta1-err", type=float, dest="theta1_err", help="relative pulse-area error")
    p.add_argument("--channel", choices=["analytic", "numeric"], help="channel construction route")
    p.add_argument("--scheme", choices=["symmetric", "walther"], help="reservoir scheme")
    p.add_argument("--init", type=str, help="initial state: vacuum | fock:K | uniform:LO:HI | diag:P0,P1,...")
    p.add_argument("--nbars", type=str, help="comma-separated target levels for sweeps (default 1..8)")
    p.add_argument("--sample-atoms", action="store_true", default=None, dest="sample_atoms",
                   help="sample atom presence per cycle instead of the expected map")
    p.add_argument("--seed", type=int, help="seed for --sample-atoms")
    p.add_argument("--out", type=str, help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], dest="fmt", help="output format (default csv)")
    p.add_argument("--config", type=str, dest="config_file", help="JSON file of config values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fockstab", description=__doc__)
    sub = parser.add_subparsers(dest="scenario", required=True)
    descriptions = {
        "converge": "disturbance-free stabilization run from the initial state",
        "trajectory": "time evolution of all populations with the thermal environment",
        "steady": "stationary-fidelity table per target level (five-column sweep)",
        "tune-phase": "scan the middle-segment phase for maximal fidelity",
        "sweep-theta2": "scan theta2 for maximal stationary fidelity",
        "robustness": "pulse-area and phase error studies",
        "ladder": "long run checking population settles on the dark levels",
        "validate": "run the fast invariant self-checks",
    }
    for name in SCENARIOS:
        p = sub.add_parser(name, help=descriptions[name])
        _add_common(p)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.config_file:
        base = ExperimentConfig.from_json_file(args.config_file)
        base = replace(base, scenario=args.scenario)
    else:
        base = ExperimentConfig(scenario=args.scenario)
    overrides = {}
    for name in ExperimentConfig.__dataclass_fields__:
        if name == "scenario":
            continue
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if "nbars" in overrides:
        overrides["nbars"] = parse_nbars(overrides["nbars"])
    return replace(base, **overrides).resolved()


def _print_summary(summary: dict) -> None:
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")


def run(cfg: ExperimentConfig) -> int:
    if cfg.scenario == "validate":
        checks = experiments.run_validation(cfg)
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        return 0 if all(ok for _, ok, _ in checks) else 3

    if cfg.scenario in ("converge", "trajectory", "ladder"):
        runner = {
            "converge": experiments.run_convergence,
            "trajectory": experiments.run_trajectory,
            "ladder": experiments.ladder_check,
        }[cfg.scenario]
        record = runner(cfg)
        output.emit_record(cfg, record)
        if cfg.out is not None:
            _print_summary(record.summary)
        return 0

    if cfg.scenario == "steady":
        rows = experiments.run_steady_sweep(cfg)
        output.emit_rows(cfg, rows)
        return 0

    if cfg.scenario == "tune-phase":
        phi_opt, fid, table = experiments.tune_phase(cfg)
        summary = {"phi_opt": phi_opt, "fidelity": fid, "ill_conditioned": experiments.ill_conditioned(table)}
        output.emit_rows(cfg, table, summary=summary)
        print(f"phi_opt: {phi_opt:.6f} rad  fidelity: {fid:.6f}", file=sys.stderr)
        return 0

    if cfg.scenario == "sweep-theta2":
        theta2_opt, table = experiments.optimize_theta2(cfg)
        summary = {"theta2_opt": theta2_opt, "ill_conditioned": experiments.ill_conditioned(table)}
        output.emit_rows(cfg, table, summary=summary)
        print(f"theta2_opt: {theta2_opt:.6f} rad", file=sys.stderr)
        return 0

    if cfg.scenario == "robustness":
        rows = experiments.run_robustness(cfg)
        output.emit_rows(cfg, rows)
        return 0

    raise ConfigError(f"unhandled scenario {cfg.scenario!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalValidityError as exc:
        print(f"numerical-validity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
