"""Command-line interface.

Subcommands: converge, trajectory, steady, tune-phase, sweep-theta2,
robustness, ladder, validate. Each offers only the options its scenario reads
(config.SCENARIOS). Options can also come from a JSON config file (--config)
mirroring ExperimentConfig; explicit flags override file values, and a file
value the scenario does not read must equal its default. validate prints
the rows of `fockstab.validation`, which only that subcommand imports.
Exit codes: 0 success, 2 configuration error (an unwritable --out among
them), 3 numerical-validity error or a failed validate row. Importing this
module sets OPENBLAS_NUM_THREADS=1 unless OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS is set; outputs do not depend on it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

# numpy's OpenBLAS starts a worker pool when numpy loads, and a worker
# busy-waits for about 60 ms although no BLAS or LAPACK call of fockstab
# hands it work (README, "BLAS threads"); so before the import below loads
# numpy, the CLI asks for one thread unless the user chose a count.
if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .config import CHANNELS, FORMATS, SCENARIOS, SCHEMES, ExperimentConfig, parse_nbars, resolve_reads
from .errors import ConfigError, NumericalValidityError
from . import experiments, output


# argparse settings of each ExperimentConfig field's option, --<field> with dashes
_OPTIONS = {
    "nbar": {"type": int, "help": "target photon number (default 3)"},
    "theta2": {"type": float, "help": "middle pulse area in rad (default per scenario)"},
    "eta": {"type": float, "help": "Lyapunov mixing weight in (0,1), default 0.5"},
    "dim": {"type": int, "help": "field truncation (default 9*(nbar+1))"},
    "steps": {"type": int, "help": "number of atomic cycles"},
    "kappa": {"type": float, "help": "environment coupling in 1/s"},
    "nth": {"type": float, "help": "thermal occupancy of the environment"},
    "ts": {"type": float, "help": "cycle period in s (default 60e-6)"},
    "pat": {"type": float, "help": "atom presence probability in (0,1]"},
    "phi": {"type": float, "help": "middle-segment phase in rad (default: tuned)"},
    "theta1_err": {"type": float, "help": "relative pulse-area error"},
    "channel": {"choices": CHANNELS, "help": "channel construction route"},
    "scheme": {"choices": SCHEMES, "help": "reservoir scheme"},
    "init": {"type": str, "help": "initial state: vacuum | fock:K | uniform:LO:HI | diag:P0,P1,..."},
    "nbars": {"type": str, "help": "comma-separated target levels for sweeps (default 1..8)"},
    "sample_atoms": {"action": "store_true", "default": None,
                     "help": "sample atom presence per cycle instead of the expected map"},
    "seed": {"type": int, "help": "seed for --sample-atoms"},
}


def build_parser(scenario: str | None = None) -> argparse.ArgumentParser:
    """One subcommand per scenario, offering only the options it reads.

    Given a scenario, only its subcommand gets its options. The others are
    still registered, so the top-level usage, help and choices stay those of
    the full parser.
    """
    parser = argparse.ArgumentParser(prog="fockstab", description=__doc__)
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, (help_line, reads) in SCENARIOS.items():
        p = sub.add_parser(name, help=help_line)
        if scenario not in (None, name):
            continue
        for field, kwargs in _OPTIONS.items():
            if field in reads:
                p.add_argument("--" + field.replace("_", "-"), dest=field, **kwargs)
        if reads:
            p.add_argument("--out", type=str, help="output path (default: stdout)")
            p.add_argument("--format", choices=FORMATS, dest="fmt", help="output format (default csv)")
            p.add_argument("--config", type=str, dest="config_file", help="JSON file of config values")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    path = getattr(args, "config_file", None)
    # the subcommand is the scenario, so a config file may leave it out
    base = ExperimentConfig.from_json_file(path, args.scenario) if path else ExperimentConfig(scenario=args.scenario)
    # the given options, the subcommand's scenario among them
    given = {f: getattr(args, f, None) for f in ExperimentConfig.__dataclass_fields__}
    overrides = {f: v for f, v in given.items() if v is not None}
    if "nbars" in overrides:
        overrides["nbars"] = parse_nbars(overrides["nbars"])
    cfg = resolve_reads(replace(base, **overrides))
    if cfg.out is not None:
        # before the run, which an unwritable path would otherwise waste
        output.check_out(cfg.out)
    return cfg


def _print_summary(summary: dict) -> None:
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")


def run(cfg: ExperimentConfig) -> int:
    if cfg.scenario == "validate":
        # imported here, so no other subcommand loads the checks
        from . import validation

        checks = validation.rows()
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        return 0 if all(ok for _, ok, _ in checks) else 3

    if cfg.scenario in ("converge", "trajectory", "ladder"):
        record = experiments.run_record(cfg)
        output.emit_record(cfg, record)
        if cfg.out is not None:
            _print_summary(record.summary)
        return 0

    if cfg.scenario == "steady":
        rows = experiments.run_steady_sweep(cfg)
        output.emit_rows(cfg, rows, summary={"ill_conditioned": experiments.ill_conditioned(rows)})
        return 0

    if cfg.scenario == "tune-phase":
        phi_opt, fid, table = experiments.tune_phase(cfg)
        answer = {"phi_opt": phi_opt, "fidelity": fid}
        summary = {**answer, "ill_conditioned": experiments.ill_conditioned(table)}
        output.emit_rows(cfg, table, summary=summary, answer=answer)
        print(f"phi_opt: {phi_opt:.6f} rad  fidelity: {fid:.6f}", file=sys.stderr)
        return 0

    if cfg.scenario == "sweep-theta2":
        theta2_opt, table = experiments.optimize_theta2(cfg)
        answer = {"theta2_opt": theta2_opt}
        summary = {**answer, "ill_conditioned": experiments.ill_conditioned(table)}
        output.emit_rows(cfg, table, summary=summary, answer=answer)
        print(f"theta2_opt: {theta2_opt:.6f} rad", file=sys.stderr)
        return 0

    if cfg.scenario == "robustness":
        rows = experiments.run_robustness(cfg)
        output.emit_rows(cfg, rows)
        return 0

    raise ConfigError(f"unhandled scenario {cfg.scenario!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # the first argument names the subcommand whenever it is a scenario
        args = build_parser(argv[0] if argv and argv[0] in SCENARIOS else None).parse_args(argv)
    except SystemExit as exc:
        # argparse exits after --help (0) and for a refused option (2)
        return exc.code
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
