"""Scenario runners: convergence, trajectories, steady-state tables, tuning,
robustness and the invariant-ladder check.

Every runner consumes a resolved ExperimentConfig and returns either a
RunRecord (per-step time series) or a list of table rows (one dict per sweep
point, sorted by the sweep key so output bytes never depend on evaluation
order). Runs read one cycle of a channel and the configured environment as
its step matrix M, which `cycle_matrix` alone builds (on
`kernels.step_matrix`), so K atoms are the power M^K. The dense operator
route is `oracle`; no runner calls it, and the test suite and
`fockstab.validation` pin the two against each other.

Every time series is one `run_record`: the converge, trajectory and ladder
scenarios differ only in their config defaults. Its rows are the powers M^k
applied to the initial populations (`kernels.record_rows`); only
`--sample-atoms` runs, whose map changes from atom to atom, step the cycle
one atom at a time. Tables that read a few rows of a long horizon read only
those, from `np.linalg.matrix_power`: the Walther baselines of the steady
and robustness tables (`_target_fidelities` on replaced configs) and the
tuning objective's no-environment settle (`_settled`), the target
population after TUNE_SETTLE_STEPS atoms. The atom-by-atom loop
`kernels.evolve` is the oracle of both routes. Phase tuning builds, steps
and solves its grid in stacks of at most SOLVE_ENTRIES // dim^2 phases, the
even-numbered ones on the calling thread and the odd-numbered ones on a
helper thread started for that call (`_settled`).

Every stationary quantity is one solve for the Perron vector of a cycle
matrix (`thermal.stationary`): `cycle_matrix` for a channel, so the
answer is the fixed point of exactly the map `kernels.evolve` iterates, and
`ReducedDynamics.step_matrix` for the trapping-rate model. Each solve reports
its spectral gap. Renormalized iteration (`steady_fidelity`,
`kernels.evolve_to_fixed_point`) and `oracle.steady_state` are independent
oracles for tests, `fockstab validate` and the benchmark's checks; no
runner reaches them.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import kernels
from .config import DECAY_SECONDS, WALTHER_SECONDS, ExperimentConfig, default_theta2, parse_init
from .dynamics import ReservoirParams, composite_propagator, ladder_top, make_params, trapping_theta1, window_top
from .errors import ConfigError, NumericalValidityError
from .fock import diagonal_density, fock_density, uniform_density
from .kraus import KrausSet, analytic_kraus, bands, extract_kraus, walther_kraus
from .lyapunov import build_weights, validate_theta2
from .thermal import ThermalParams, build_reduced, stationary, steady_population_correction

PHI_GRID_POINTS = 64
# matrix entries per stack of `_settled`, bounding its channel builds, step
# matrices and stationary solves alike: the whole 64-phase grid at dims 18
# and 27, 40 phases at dim 36, 25 at dim 45 and 8 at dim 81. numpy releases
# the GIL in a linalg call on a stack only when stack size x dim exceeds
# 500, which every such stack does, so `_settled` can overlap two of them
# on two threads (see README)
SOLVE_ENTRIES = 8 * 81 * 81
THETA2_GRID_POINTS = 64
STATIONARITY_TOL = 1e-10
STATIONARITY_CAP = 1_000_000
TUNE_SETTLE_STEPS = 1200
# spectral gaps below this (where `oracle.steady_state` refuses) are
# counted as ill-conditioned in the run summaries
ILL_CONDITIONED_GAP = 1e-7


@dataclass
class RunRecord:
    """Per-step time series plus a scalar summary of one run.

    fidelity, v and trace have length steps+1 (index 0 is the initial state);
    diag has shape (steps+1, dim). trace is the raw state trace, so population
    lost through the truncated top level shows up as a deficit; the summary
    carries the accumulated leak.
    """

    fidelity: np.ndarray
    v: np.ndarray
    trace: np.ndarray
    diag: np.ndarray
    summary: dict[str, Any] = field(default_factory=dict)


def reservoir_params(cfg: ExperimentConfig, phi: float = 0.0, theta1_err: float | None = None) -> ReservoirParams:
    err = cfg.theta1_err if theta1_err is None else theta1_err
    return make_params(
        cfg.nbar,
        theta2=cfg.theta2,
        theta1=(1.0 + err) * trapping_theta1(cfg.nbar),
        Ts=cfg.ts,
        phi=phi,
    )


def thermal_params(cfg: ExperimentConfig) -> ThermalParams:
    tp = ThermalParams(kappa=cfg.kappa, n_th=cfg.nth, Ts=cfg.ts, p_at=cfg.pat)
    tp.check_step_validity(cfg.dim)
    return tp


def cycle_matrix(cfg: ExperimentConfig, k: KrausSet | Sequence[KrausSet]) -> np.ndarray:
    """`kernels.step_matrix` of one cycle of channel k and the configured
    environment; given a sequence of channels, their (s, dim, dim) stack."""
    tp = thermal_params(cfg)
    g, e, m = bands(k) if isinstance(k, KrausSet) else (np.stack(band) for band in zip(*map(bands, k)))
    return kernels.step_matrix(g, e, m, tp.gamma_minus, tp.gamma_plus, tp.p_at)


def build_channel(
    cfg: ExperimentConfig,
    params: ReservoirParams,
    phis: Sequence[float] | None = None,
) -> KrausSet | list[KrausSet]:
    """The channel selected by (scheme, channel) for the given parameters.

    The walther scheme is the resonant two-level baseline with pulse area
    theta_r = 2 * theta1; its numeric variant is the three-segment cycle of
    the full three-level model at theta2 = 0 and phi = 0, a single segment.

    Given phases phis, a list of channels, one per phase in place of
    params.phi: the numeric symmetric channels come from one stacked
    propagator, the others are built one by one.
    """
    if phis is not None and not (cfg.scheme == "symmetric" and cfg.channel == "numeric"):
        return [build_channel(cfg, replace(params, phi=phi)) for phi in phis]
    if cfg.scheme == "walther" and cfg.channel == "analytic":
        return walther_kraus(params.nbar, 2.0 * params.theta1, cfg.dim)
    if cfg.scheme == "walther":
        params = replace(params, theta2=0.0, phi=0.0)
    if cfg.channel == "numeric":
        return extract_kraus(composite_propagator(params, cfg.dim, phis))
    return analytic_kraus(params, cfg.dim)


def initial_state(cfg: ExperimentConfig) -> np.ndarray:
    kind, values = parse_init(cfg.init)
    if kind == "vacuum":
        return fock_density(0, cfg.dim)
    if kind == "fock":
        return fock_density(values[0], cfg.dim)
    if kind == "uniform":
        return uniform_density(*values, cfg.dim)
    return diagonal_density(np.array(values), cfg.dim)


def _v_series(cfg: ExperimentConfig, diag: np.ndarray) -> np.ndarray:
    """Lyapunov values along a run; NaN when theta2 gives no valid certificate
    or dim does not hold its window 0..4*nbar+3."""
    if cfg.dim <= window_top(cfg.nbar) or not validate_theta2(cfg.theta2, cfg.nbar):
        return np.full(diag.shape[0], np.nan)
    w = build_weights(cfg.nbar, cfg.theta2, cfg.eta, dim=cfg.dim)
    return diag @ w.f


def _record(cfg: ExperimentConfig, diag: np.ndarray, trace: np.ndarray, summary: dict[str, Any]) -> RunRecord:
    return RunRecord(
        fidelity=diag[:, cfg.nbar].copy(),
        v=_v_series(cfg, diag),
        trace=trace,
        diag=diag,
        summary=summary,
    )


def resolve_phi(cfg: ExperimentConfig) -> tuple[float, dict[str, Any]]:
    """The middle-segment phase to run with: explicit, tuned, or nominal 0."""
    if cfg.phi is not None:
        return cfg.phi, {"phi_used": cfg.phi, "phi_tuned": False}
    if cfg.channel == "numeric" and cfg.scheme == "symmetric" and cfg.theta2 > 0.0:
        phi_opt, fid, _ = tune_phase(cfg)
        return phi_opt, {"phi_used": phi_opt, "phi_tuned": True, "phi_tune_fidelity": fid}
    return 0.0, {"phi_used": 0.0, "phi_tuned": False}


def stationary_fidelity(cfg: ExperimentConfig, params: ReservoirParams) -> tuple[float, float]:
    """Stationary target fidelity of the configured channel with the
    environment, and the spectral gap of its cycle matrix."""
    populations, gap = stationary(cycle_matrix(cfg, build_channel(cfg, params)))
    return float(populations[cfg.nbar]), gap


def ill_conditioned(rows: list[dict[str, Any]]) -> int:
    """How many table rows carry a spectral gap below ILL_CONDITIONED_GAP."""
    return sum(1 for r in rows if r.get("spectral_gap", math.inf) < ILL_CONDITIONED_GAP)


def _settled(cfg: ExperimentConfig, phis: Sequence[float]) -> list[dict[str, float]]:
    """Long-run target fidelity of the configured channel at each phase of phis.

    Without an environment this is the fidelity after a fixed settle of
    TUNE_SETTLE_STEPS atoms from the target, the diagonal entry of that power
    of the step matrix. With one, it is the stationary fidelity, reported
    together with its spectral gap. The phases run as stacks of at most
    SOLVE_ENTRIES // dim^2, each one `build_channel`, one `cycle_matrix` and
    then one `stationary` call or one stacked `np.linalg.matrix_power`. With
    more than one stack, a helper thread solves stacks 1, 3, 5, ... while
    the caller solves stacks 0, 2, 4, ...; numpy releases the GIL in the
    stacked LAPACK calls, so the two overlap. The caller joins the
    helper and reads the stacks in phase order: one whose build or solve
    raised `ValueError` is replayed one phase at a time, and any other error,
    met on either thread, is raised when its stack comes. So every number,
    and the first error raised, is that of a phase-by-phase run.
    """
    params = reservoir_params(cfg)
    tp = thermal_params(cfg)
    settle = tp.gamma_minus == 0.0 and tp.gamma_plus == 0.0
    # the settle sends an atom through every cycle
    cycle_cfg = replace(cfg, pat=1.0) if settle else cfg

    def solved(stack: Sequence[float]) -> list[dict[str, float]]:
        matrices = cycle_matrix(cycle_cfg, build_channel(cfg, params, phis=stack))
        if settle:
            fids = np.linalg.matrix_power(matrices, TUNE_SETTLE_STEPS)[:, cfg.nbar, cfg.nbar]
            return [{"fidelity": float(fid)} for fid in fids]
        populations, gaps = stationary(matrices)
        return [{"fidelity": float(r[cfg.nbar]), "spectral_gap": float(gap)} for r, gap in zip(populations, gaps)]

    chunk = max(1, SOLVE_ENTRIES // cfg.dim**2)
    stacks = [phis[start:start + chunk] for start in range(0, len(phis), chunk)]
    outcomes: list[Any] = [None] * len(stacks)

    def run(first: int) -> None:
        # every other stack from first; each writes only its own outcomes
        for i in range(first, len(stacks), 2):
            try:
                outcomes[i] = solved(stacks[i])
            except Exception as exc:  # whatever it is, the caller raises it in phase order
                outcomes[i] = exc

    helper = threading.Thread(target=run, args=(1,), name="fockstab-phase-stacks") if len(stacks) > 1 else None
    if helper is not None:
        helper.start()
    try:
        run(0)
    finally:
        if helper is not None:
            helper.join()
    rows = []
    for stack, outcome in zip(stacks, outcomes):
        # np.linalg.LinAlgError is a ValueError
        if isinstance(outcome, ValueError) and len(stack) > 1:
            # one phase at a time, so the error raised is the first one a
            # phase-by-phase run meets, a solve of an earlier phase included
            rows += [row for phi in stack for row in _settled(cfg, [phi])]
        elif isinstance(outcome, Exception):
            raise outcome
        else:
            rows += outcome
    return rows


def tune_phase(cfg: ExperimentConfig) -> tuple[float, float, list[dict[str, Any]]]:
    """Grid-plus-golden-section search of the middle-segment phase.

    Maximizes the long-run target fidelity (stationary fidelity when an
    environment is configured) over phi in [0, 2pi) at resolution 2pi/64,
    then refines around the best grid point to 1e-3 rad. Ties break to the
    smallest phi; a landscape flat to 1e-6 returns phi = 0. Each grid row
    holds phi and the fidelity, plus the spectral gap of the stationary
    solve when there is an environment. The whole grid is one `_settled`
    call, the golden section one phase at a time. theta2 = 0 is refused:
    that pulse has no middle segment whose phase could act.
    """
    if cfg.theta2 == 0.0:
        raise ConfigError("phase tuning needs a middle segment; theta2 = 0 has none")
    grid = [2.0 * math.pi * i / PHI_GRID_POINTS for i in range(PHI_GRID_POINTS)]
    table = [{"phi": p, **row} for p, row in zip(grid, _settled(cfg, grid))]
    fids = [r["fidelity"] for r in table]
    if max(fids) - min(fids) < 1e-6:
        fid0 = fids[0]
        return 0.0, fid0, table
    best = int(np.argmax(fids))
    step = 2.0 * math.pi / PHI_GRID_POINTS
    lo, hi = grid[best] - step, grid[best] + step
    phi_opt, fid_opt = _golden_max(lambda p: _settled(cfg, [p])[0]["fidelity"], lo, hi, xatol=1e-3)
    if fids[best] >= fid_opt:
        phi_opt, fid_opt = grid[best], fids[best]
    return phi_opt % (2.0 * math.pi), fid_opt, table


def _golden_max(fn, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Deterministic golden-section maximization on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > xatol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (c, fc) if fc >= fd else (d, fd)


def run_record(cfg: ExperimentConfig) -> RunRecord:
    """Populations after each atom of the configured channel, from the initial
    state: the powers of its step matrix, or the sampled atom-by-atom run.

    converge, trajectory and ladder are this one run; they differ only in the
    defaults `ExperimentConfig.resolved` fills in, and every flag takes effect
    in each. The summary carries the final and peak target fidelity, the
    truncation leak, and the final populations on and off the dark levels
    (nbar, and 9*nbar+8 when it fits dim).
    """
    t0 = time.perf_counter()
    rho0 = initial_state(cfg)
    phi, phi_info = resolve_phi(cfg)
    k = build_channel(cfg, reservoir_params(cfg, phi=phi))
    if cfg.sample_atoms:
        diag, trace = _sampled_evolution(*bands(k), rho0, thermal_params(cfg), cfg.steps, cfg.seed)
    else:
        diag = kernels.record_rows(cycle_matrix(cfg, k), np.diag(rho0).real, cfg.steps)
        trace = diag.sum(axis=1)
    final = diag[-1]
    dark = [cfg.nbar]
    if ladder_top(cfg.nbar) < cfg.dim:
        dark.append(ladder_top(cfg.nbar))
    summary = {
        "final_fidelity": float(final[cfg.nbar]),
        "max_fidelity": float(diag[:, cfg.nbar].max()),
        "completeness_defect": k.completeness_defect,
        "leak": float(1.0 - trace[-1]),
        "dark_levels": dark,
        "population_outside_dark_levels": float(final.sum() - sum(final[n] for n in dark)),
        "population_target": float(final[cfg.nbar]),
        "population_upper_dark": float(final[dark[-1]]) if len(dark) > 1 else 0.0,
        "wall_time_s": time.perf_counter() - t0,
        **phi_info,
    }
    return _record(cfg, diag, trace, summary)


# the scenario names the acceptance suite calls; all three are run_record
run_convergence = run_trajectory = ladder_check = run_record


def _target_fidelities(cfg: ExperimentConfig, ks: Sequence[int]) -> list[float]:
    """Target fidelity of the configured channel (phase cfg.phi, not tuned)
    after each of the atom counts ks from the initial state, for tables that
    read only those rows: (M^k d0)[nbar], with M^k from `np.linalg.matrix_power`."""
    step = cycle_matrix(cfg, build_channel(cfg, reservoir_params(cfg, phi=cfg.phi)))
    d0 = np.diag(initial_state(cfg)).real
    return [float((np.linalg.matrix_power(step, k) @ d0)[cfg.nbar]) for k in ks]


def _sampled_evolution(g, e, m, rho0, tp: ThermalParams, steps: int, seed: int | None):
    """Bernoulli atom presence per cycle (visual mode, excluded from acceptance).

    Each cycle is the populations-only cycle with p_at = 1 when an atom is
    drawn and p_at = 0 when none is, so it reproduces bit for bit the
    diagonal and trace of the full-matrix route through `oracle.channel_step`
    and `oracle.thermal_step`.
    """
    rng = np.random.default_rng(seed)
    with_atom = kernels._population_cycle(g, e, m, tp.gamma_minus, tp.gamma_plus, 1.0)
    without = kernels._population_cycle(g, e, m, tp.gamma_minus, tp.gamma_plus, 0.0)
    d = np.diag(np.asarray(rho0, dtype=np.complex128)).copy()
    diag = np.empty((steps + 1, len(d)))
    trace = np.empty(steps + 1)
    diag[0], trace[0] = d.real, d.sum().real
    for k_step in range(1, steps + 1):
        d = (with_atom if rng.random() < tp.p_at else without)(d)
        diag[k_step], trace[k_step] = d.real, d.sum().real
    return diag, trace


# an oracle, kept here because it builds its channel with `build_channel`
def steady_fidelity(cfg: ExperimentConfig, params: ReservoirParams) -> tuple[float, int, np.ndarray]:
    """Full-map stationary fidelity via renormalized fixed-point iteration.

    An oracle for `stationary_fidelity`, run by tests and the benchmark's
    checks; no runner calls it.
    """
    k = build_channel(cfg, params)
    g, e, m = bands(k)
    tp = thermal_params(cfg)
    rho, steps, delta = kernels.evolve_to_fixed_point(
        g, e, m, fock_density(cfg.nbar, cfg.dim),
        tp.gamma_minus, tp.gamma_plus, tp.p_at,
        tol=STATIONARITY_TOL, max_steps=STATIONARITY_CAP,
    )
    if delta >= STATIONARITY_TOL:
        raise NumericalValidityError(
            f"fixed-point iteration did not reach {STATIONARITY_TOL:.0e} within "
            f"{STATIONARITY_CAP} steps (last change {delta:.3e})"
        )
    return float(rho[cfg.nbar, cfg.nbar].real), steps, np.diag(rho).real.copy()


def run_steady_sweep(cfg: ExperimentConfig) -> list[dict[str, Any]]:
    """Stationary fidelities per target level: simulated channel, perturbative
    estimate, trapping-rate model, baseline after 4 s, and +/-2% pulse-area
    errors. spectral_gap is the gap of the simulated channel's solve."""
    rows = []
    for nbar in sorted(cfg.nbars):
        # cfg.theta2 and cfg.dim were resolved for cfg.nbar; they only transfer
        # to the sweep entry of that same level, every other entry gets its own
        # defaults
        theta2 = cfg.theta2 if nbar == cfg.nbar else default_theta2("steady", nbar)
        dim = cfg.dim if nbar == cfg.nbar else None
        sub = replace(cfg, nbar=nbar, theta2=theta2, dim=dim, init=None).resolved()
        phi, phi_info = resolve_phi(sub)
        params = reservoir_params(sub, phi=phi)
        tp = thermal_params(sub)

        fid_sim, gap = stationary_fidelity(sub, params)
        x1 = steady_population_correction(params, tp)
        fid_reduced = float(stationary(build_reduced(params, tp, sub.dim).step_matrix())[0][nbar])

        walther = replace(sub, scheme="walther", channel="analytic", theta1_err=0.0, phi=0.0, init="vacuum")
        (fid_walther,) = _target_fidelities(walther, [int(WALTHER_SECONDS / sub.ts)])

        errs = {}
        for err in (-0.02, 0.02):
            errs[err], _ = stationary_fidelity(sub, reservoir_params(sub, phi=phi, theta1_err=err))

        rows.append(
            {
                "nbar": nbar,
                "theta2": theta2,
                "fid_steady": fid_sim,
                "fid_perturbative": 1.0 + x1,
                "fid_reduced": fid_reduced,
                "fid_walther_4s": fid_walther,
                "fid_theta1_minus2pct": errs[-0.02],
                "fid_theta1_plus2pct": errs[0.02],
                "x1": x1,
                "spectral_gap": gap,
                "phi_used": phi_info["phi_used"],
            }
        )
    return rows


def optimize_theta2(cfg: ExperimentConfig) -> tuple[float, list[dict[str, Any]]]:
    """Sweep theta2*sqrt(nbar) over (0, pi): perturbative surrogate plus the
    trapping-rate model's stationary fidelity (and its spectral gap) as
    verifier; returns the verified argmax."""
    tp = thermal_params(cfg)
    rows = []
    for i in range(1, THETA2_GRID_POINTS + 1):
        x = math.pi * i / (THETA2_GRID_POINTS + 1)
        theta2 = x / math.sqrt(cfg.nbar)
        if not validate_theta2(theta2, cfg.nbar):
            continue
        sub = replace(cfg, theta2=theta2)
        params = reservoir_params(sub)
        surrogate = 1.0 + steady_population_correction(params, tp)
        populations, gap = stationary(build_reduced(params, tp, cfg.dim).step_matrix())
        rows.append(
            {"theta2": theta2, "theta2_sqrt_nbar": x, "fid_surrogate": surrogate,
             "fid_verified": float(populations[cfg.nbar]), "spectral_gap": gap}
        )
    best = max(rows, key=lambda r: r["fid_verified"])
    return best["theta2"], rows


def run_robustness(cfg: ExperimentConfig) -> list[dict[str, Any]]:
    """Pulse-area and phase error studies.

    Baseline rows: +/-2% pulse-area error, no environment, fidelity decay read
    at 0.1 s and 0.25 s for both the configured atom presence and certain
    presence. Symmetric rows: stationary fidelity under +/-2% theta1 error
    with the thermal environment. Phase rows: stationary fidelity when the
    middle-segment phase is offset by +/-pi/8.
    """
    rows: list[dict[str, Any]] = []
    k_01, k_025 = (int(seconds / cfg.ts) for seconds in DECAY_SECONDS)
    for err in (-0.02, 0.02):
        for pat in sorted({cfg.pat, 1.0}):
            walther = replace(cfg, scheme="walther", channel="analytic", theta1_err=err, phi=0.0, kappa=0.0,
                              nth=0.0, pat=pat, init=f"fock:{cfg.nbar}")
            fid_01, fid_025 = _target_fidelities(walther, [k_01, k_025])
            rows.append(
                {
                    "case": "walther_theta_err",
                    "theta1_err": err,
                    "p_at": pat,
                    "fid_0p1s": fid_01,
                    "fid_0p25s": fid_025,
                }
            )

    phi, _ = resolve_phi(cfg)
    base_fid = None
    for err in (0.0, -0.02, 0.02):
        fid, _ = stationary_fidelity(cfg, reservoir_params(cfg, phi=phi, theta1_err=err))
        if err == 0.0:
            base_fid = fid
        rows.append(
            {"case": "symmetric_theta1_err", "theta1_err": err, "p_at": cfg.pat, "fid_steady": fid,
             "fid_change": fid - base_fid}
        )

    acfg = replace(cfg, channel="analytic")
    base = None
    for off in (0.0, -math.pi / 8.0, math.pi / 8.0):
        fid, _ = stationary_fidelity(acfg, reservoir_params(acfg, phi=off))
        if off == 0.0:
            base = fid
        rows.append(
            {"case": "phase_offset", "phi_offset": off, "p_at": cfg.pat, "fid_steady": fid,
             "fid_change": fid - base}
        )
    return rows
