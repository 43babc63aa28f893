"""Correctness checks on the files a workload's CLI calls wrote.

Each check returns a list of problems; an empty list means the output passed.
The oracles are independent routes through fockstab: the dense operator
replay (``kraus.apply_map`` + ``thermal.decoherence_step``), the reduced
population chain (``thermal.steady_state``) and full-map fixed-point
iteration (``experiments.steady_fidelity``).
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from fockstab import experiments
from fockstab.config import ExperimentConfig
from fockstab.kraus import analytic_kraus, apply_map
from fockstab.thermal import decoherence_step, reduced_from_channel, steady_state

ROW_SUM_TOL = 1e-9
CSV_RESOLUTION = 1e-11   # one unit in the 12th significant digit of a value near 1
TRACE_GAIN_MARGIN = 2.0  # over the first-order trace gain per cycle
ORACLE_ROWS = 200
ORACLE_TOL = 1e-9
STEADY_TOL = 1e-6
TUNE_GRID_POINTS = 64
ROBUSTNESS_ROWS = 10


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
        header = line.rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def check_trajectory(path: str, cfg: ExperimentConfig) -> list[str]:
    """Shape, row sums, monotone trace and a dense-oracle replay of the first rows."""
    try:
        header, data = _read_csv(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable CSV: {exc}"]
    dim = cfg.dim
    problems = []
    want = ["step", "time_s", "fidelity", "v", "trace"] + [f"p{n}" for n in range(dim)]
    if header != want:
        problems.append(f"header has {len(header)} columns, expected {len(want)}")
    if data.shape != (cfg.steps + 1, 5 + dim):
        return problems + [f"data shape {data.shape}, expected {(cfg.steps + 1, 5 + dim)}"]
    trace, pops = data[:, 4], data[:, 5:]
    dev = float(np.abs(pops.sum(axis=1) - trace).max())
    if not dev <= ROW_SUM_TOL:
        problems.append(f"populations differ from trace by {dev:.3e}")
    k = experiments.build_channel(cfg, experiments.reservoir_params(cfg, phi=cfg.phi))
    tp = experiments.thermal_params(cfg)
    # the exact trace never increases (population only leaves through the
    # top level). The channel the program built gains up to p_at times its
    # completeness defect per cycle on a diagonal state, plus one rounding;
    # allow twice that above the running minimum, plus the CSV's resolution
    rise = trace - np.minimum.accumulate(trace)
    per_cycle = TRACE_GAIN_MARGIN * (tp.p_at * k.completeness_defect + np.finfo(np.float64).eps)
    allowed = np.arange(len(trace)) * per_cycle + CSV_RESOLUTION
    worst_rise = int(np.argmax(rise - allowed))
    if rise[worst_rise] > allowed[worst_rise]:
        problems.append(f"trace rises by {rise[worst_rise]:.3e} by step {worst_rise}, more than the "
                        f"allowance {allowed[worst_rise]:.3e} from the channel's completeness defect "
                        f"{k.completeness_defect:.3e}")

    rho = experiments.initial_state(cfg)
    worst = 0.0
    for row in range(min(ORACLE_ROWS, len(data))):
        if row:
            rho = decoherence_step((1.0 - tp.p_at) * rho + tp.p_at * apply_map(k, rho), tp)
        ref = np.diag(rho).real / np.trace(rho).real
        worst = max(worst, float(np.abs(pops[row] / trace[row] - ref).max()))
    if not worst <= ORACLE_TOL:
        problems.append(f"normalized diagonal differs from the dense replay by {worst:.3e}")
    return problems


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_robustness(path: str, cfg: ExperimentConfig) -> list[str]:
    """Fidelities in [0, 1]; the phase-offset-0 row against the reduced chain."""
    try:
        rows = _load_json(path)["records"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable JSON: {exc}"]
    problems = []
    if len(rows) != ROBUSTNESS_ROWS:
        problems.append(f"{len(rows)} rows, expected {ROBUSTNESS_ROWS}")
    for i, row in enumerate(rows):
        for key in ("fid_0p1s", "fid_0p25s", "fid_steady"):
            if key in row and not 0.0 <= row[key] <= 1.0:
                problems.append(f"row {i} {key} = {row[key]!r} outside [0, 1]")
    base = [r for r in rows if r.get("case") == "phase_offset" and r.get("phi_offset") == 0.0]
    if len(base) != 1:
        return problems + [f"{len(base)} phase_offset 0.0 rows, expected 1"]
    acfg = replace(cfg, channel="analytic")
    tp = experiments.thermal_params(cfg)
    k = analytic_kraus(experiments.reservoir_params(acfg, phi=0.0), cfg.dim)
    ref = float(steady_state(reduced_from_channel(k, tp), tp.p_at)[cfg.nbar])
    dev = abs(base[0]["fid_steady"] - ref)
    if not dev <= STEADY_TOL:
        problems.append(f"phase_offset 0.0 fidelity differs from the reduced chain by {dev:.3e}")
    return problems


def check_tune_phase(path: str, cfg: ExperimentConfig, cross_oracle: bool) -> list[str]:
    """Summary fidelity is the best of the grid; optionally, it matches the
    full-map fixed point of the numeric channel at phi_opt."""
    try:
        doc = _load_json(path)
        fids = [r["fidelity"] for r in doc["records"]]
        phi_opt, fid = doc["summary"]["phi_opt"], doc["summary"]["fidelity"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable JSON: {exc}"]
    problems = []
    if len(fids) != TUNE_GRID_POINTS:
        problems.append(f"{len(fids)} grid rows, expected {TUNE_GRID_POINTS}")
    if fids and not fid >= max(fids):
        problems.append(f"summary fidelity {fid!r} below the grid maximum {max(fids)!r}")
    if cross_oracle:
        full, _, _ = experiments.steady_fidelity(cfg, experiments.reservoir_params(cfg, phi=phi_opt))
        dev = abs(full - fid)
        if not dev <= STEADY_TOL:
            problems.append(f"nbar {cfg.nbar}: summary fidelity differs from the full-map "
                            f"fixed point at phi_opt by {dev:.3e}")
    return problems
