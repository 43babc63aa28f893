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
and robustness tables (`_walther_fidelities`) and the tuning objective's
no-environment settle (`_settle_rows`), the target
population after TUNE_SETTLE_STEPS atoms. The atom-by-atom loop
`kernels.evolve` is the oracle of both routes.

Points that differ only in phi and theta1 (`tune_phase`'s 64-phase grid,
`steady`'s three theta1 errors, each of `robustness`'s two stationary row
sets) are one `_settled` call: stacks of at most SOLVE_ENTRIES // dim^2
points, each built as one stacked `KrausSet`, stepped and solved by the
solve the caller picks (the settle, `_stationary_rows` or `_ranking_rows`),
the odd-numbered stacks on a helper thread started for that call. A
stack is refused as a unit: the first failing stack in point order
raises, and no stack is replayed point by point. `tune_phase`'s golden
section builds one channel per phase and ranks it by the tuning's solve
on its step matrix as a stack of one.

Every stationary quantity the program writes is a `thermal.stationary`
solve for the Perron vector of a cycle matrix, with its spectral gap:
`cycle_matrix` for a channel, the fixed point of exactly the map
`kernels.evolve` iterates, and `ReducedDynamics.step_matrix` for the
trapping-rate model. Renormalized iteration (`steady_fidelity`,
`kernels.evolve_to_fixed_point`) and `oracle.steady_state` are oracles for
tests, `fockstab validate` and the benchmark's checks; no runner reaches
them.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Any

import numpy as np

from . import kernels
from .config import DECAY_SECONDS, WALTHER_SECONDS, ExperimentConfig, default_theta2, parse_init, uncertified
from .dynamics import ReservoirParams, check_points, composite_propagator, ladder_top, make_params, trapping_theta1
from .errors import ConfigError, NumericalValidityError
from .fock import diagonal_density, fock_density, uniform_density
from .kraus import KrausSet, analytic_kraus, bands, extract_kraus, walther_kraus
from .lyapunov import build_weights, validate_theta2
from .thermal import (
    ThermalParams,
    build_reduced,
    shifted_stationary,
    stationary,
    steady_population_correction,
)

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
# a tuning landscape whose fidelities span less than this answers phi = 0
TUNE_FLAT = 1e-6
# the golden section refines the best grid phase to this width (rad)
GOLDEN_XATOL = 1e-3
# an unwritten tuning grid re-solves with `stationary` every phase whose
# `shifted_stationary` fidelity lies within this of the grid's maximum (and
# of its minimum, where the flatness test is in doubt). Accepted vectors
# lay within 2.4e-11 of `stationary`'s (1-norm) over the random physics
# tried, and no grid tried had a second phase this close to its maximum
TUNE_RANK_MARGIN = 1e-6


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


def cycle_matrix(cfg: ExperimentConfig, k: KrausSet) -> np.ndarray:
    """`kernels.step_matrix` of one cycle of channel k and the configured
    environment; for a stack of s channels, their (s, dim, dim) stack."""
    tp = thermal_params(cfg)
    return kernels.step_matrix(*bands(k), tp.gamma_minus, tp.gamma_plus, tp.p_at)


def build_channel(
    cfg: ExperimentConfig,
    params: ReservoirParams,
    points: Sequence[ReservoirParams] | None = None,
) -> KrausSet:
    """The channel of the configured pulse at the given parameters.

    The numeric channel is the three-segment cycle of the full three-level
    model, whatever the scheme: the walther pulse reaches it with theta2 = 0
    (`ExperimentConfig.resolved`), a single resonant segment. The analytic
    channel is the closed form of the scheme: `walther_kraus` of the
    resonant two-level baseline with pulse area theta_r = 2 * theta1, or
    `analytic_kraus`.

    Given points (see `dynamics.check_points`), the stack of their channels,
    row i equal to the call at point i: the numeric channels come from one
    stacked `composite_propagator`, the analytic ones are built one by one
    and stacked once.
    """
    if cfg.channel == "numeric":
        return extract_kraus(composite_propagator(params, cfg.dim, points))
    if points is not None:
        check_points(params, points)
        channels = [build_channel(cfg, point) for point in points]
        return KrausSet(*(np.stack(band) for band in zip(*map(bands, channels))),
                        np.array([k.completeness_defect for k in channels]))
    if cfg.scheme == "walther":
        return walther_kraus(params.nbar, 2.0 * params.theta1, cfg.dim)
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
    """Lyapunov values along a run; NaN where `config.uncertified` names a
    setting that leaves it without a certificate."""
    if uncertified(cfg):
        return np.full(diag.shape[0], np.nan)
    return diag @ build_weights(cfg.nbar, cfg.theta2, cfg.eta, dim=cfg.dim).f


def resolve_phi(cfg: ExperimentConfig) -> tuple[float, dict[str, Any]]:
    """The middle-segment phase to run with: explicit, tuned (numeric channel, theta2 > 0), or nominal 0.

    No output writes the tuning grid of a run that resolves its phase, so
    it is `tune_phase`'s unwritten route."""
    if cfg.phi is not None:
        return cfg.phi, {"phi_used": cfg.phi, "phi_tuned": False}
    if cfg.channel == "numeric" and cfg.theta2 > 0.0:
        tuning = tune_phase(cfg, written=False)
        return tuning.phi_opt, {"phi_used": tuning.phi_opt, "phi_tuned": True, "phi_tune_fidelity": tuning.fidelity}
    return 0.0, {"phi_used": 0.0, "phi_tuned": False}


def ill_conditioned(rows: list[dict[str, Any]]) -> int:
    """How many table rows carry a spectral gap below ILL_CONDITIONED_GAP."""
    return sum(1 for r in rows if r.get("spectral_gap", math.inf) < ILL_CONDITIONED_GAP)


def _settled(cfg: ExperimentConfig, points: Sequence[ReservoirParams],
             solve: Callable[[np.ndarray, int], list[dict[str, float]]]) -> list[dict[str, float]]:
    """solve's rows for the cycle matrices of the configured channel at each
    of points, parameters that differ from one another only in phi and
    theta1.

    The caller picks the solve of an (s, n, n) stack: `_stationary_rows`,
    the fidelity and spectral gap the tables write; `_ranking_rows`, for
    rows that only rank; or `_settle_rows`, the no-environment settle. The
    points run as stacks of at most SOLVE_ENTRIES // dim^2, each one
    `build_channel` of one stacked `KrausSet`, one `cycle_matrix` and one
    solve. With more than one stack, a helper thread solves stacks 1, 3,
    5, ... while the caller solves stacks 0, 2, 4, ...; numpy releases the
    GIL in the stacked LAPACK calls, so the two overlap. The caller joins
    the helper, then raises the error of the first stack in point order
    that raised, on either thread, or else joins the rows: a stack is
    refused as a unit, by its first failing check (`check_points` against
    points[0], the build, the gap floor, sign, residual) at the first point
    that fails it. Every number is that of a point-by-point run.
    """
    def solved(stack: Sequence[ReservoirParams]) -> list[dict[str, float]]:
        return solve(cycle_matrix(cfg, build_channel(cfg, points[0], stack)), cfg.nbar)

    chunk = max(1, SOLVE_ENTRIES // cfg.dim**2)
    stacks = [points[start:start + chunk] for start in range(0, len(points), chunk)]
    outcomes: list[Any] = [None] * len(stacks)

    def run(first: int) -> None:
        # every other stack from first; each writes only its own outcomes
        for i in range(first, len(stacks), 2):
            try:
                outcomes[i] = solved(stacks[i])
            except Exception as exc:  # whatever it is, the caller raises it in point order
                outcomes[i] = exc

    helper = threading.Thread(target=run, args=(1,), name="fockstab-point-stacks") if len(stacks) > 1 else None
    if helper is not None:
        helper.start()
    try:
        run(0)
    finally:
        if helper is not None:
            helper.join()
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return [row for outcome in outcomes for row in outcome]


def _no_environment(cfg: ExperimentConfig) -> bool:
    """Whether the configured environment neither loses nor gains photons,
    so the tuning objective is the settle rather than a stationary solve."""
    tp = thermal_params(cfg)
    return tp.gamma_minus == 0.0 and tp.gamma_plus == 0.0


def _settle_rows(matrices: np.ndarray, nbar: int) -> list[dict[str, float]]:
    """Target fidelity at nbar of each matrix of an (s, n, n) stack after
    TUNE_SETTLE_STEPS atoms from the target, by one stacked `matrix_power`."""
    fids = np.linalg.matrix_power(matrices, TUNE_SETTLE_STEPS)[:, nbar, nbar]
    return [{"fidelity": float(fid)} for fid in fids]


def _stationary_rows(matrices: np.ndarray, nbar: int) -> list[dict[str, float]]:
    """`stationary`'s target fidelity at nbar and spectral gap for each matrix
    of an (s, n, n) stack."""
    populations, gaps = stationary(matrices)
    return [{"fidelity": float(r[nbar]), "spectral_gap": float(gap)} for r, gap in zip(populations, gaps)]


def _ranking_rows(matrices: np.ndarray, nbar: int) -> list[dict[str, float]]:
    """Target fidelity at nbar of each matrix of an (s, n, n) stack, for
    ranking phases only: `shifted_stationary`'s, with no `eigvals`, where it
    accepts the vector, and a `_stationary_rows` row, gap included, for each
    matrix it refuses, so what a refused matrix raises is raised as by
    `stationary`."""
    populations, accepted = shifted_stationary(matrices)
    rows: list[dict[str, float]] = [{"fidelity": float(r[nbar])} for r in populations]
    refused = np.flatnonzero(~accepted)
    if refused.size:
        for i, row in zip(refused, _stationary_rows(matrices[refused], nbar)):
            rows[i] = row
    return rows


class PhaseTuning(tuple):
    """A tuning's answer: the tuple (phi_opt, fidelity, table) of the tuned
    phase, its long-run target fidelity and the grid rows, which holds one
    field beyond its items, as `os.stat_result` does: answer_gap, the
    spectral gap of the `stationary` solve at the golden section's answer
    (inf where no such solve was made)."""

    phi_opt = property(itemgetter(0))
    fidelity = property(itemgetter(1))
    table = property(itemgetter(2))
    answer_gap: float

    def __new__(cls, phi_opt: float, fidelity: float, table: list[dict[str, Any]], answer_gap: float = math.inf):
        tuning = super().__new__(cls, (phi_opt, fidelity, table))
        tuning.answer_gap = answer_gap
        return tuning


def tune_phase(cfg: ExperimentConfig, written: bool = True) -> PhaseTuning:
    """Grid-plus-golden-section search of the middle-segment phase.

    Maximizes the long-run target fidelity (stationary fidelity when an
    environment is configured) over phi in [0, 2pi) at resolution 2pi/64,
    then refines around the best grid point to GOLDEN_XATOL. Ties break to the
    smallest phi; a landscape flat to TUNE_FLAT returns phi = 0. Each grid row
    holds phi and the fidelity, plus the spectral gap of the stationary
    solve when there is an environment. theta2 = 0 is refused: that pulse
    has no middle segment whose phase could act.

    The whole grid is one `_settled` call. With an environment, its solves
    take one of two routes, by whether the caller writes the grid rows.
    Written, the rows and gaps are `stationary`'s. Unwritten, they are
    `shifted_stationary`'s, and only the phases whose bits the steps below
    read are solved again by `stationary`, in one more `_settled` call: the
    phases within TUNE_RANK_MARGIN of the maximum, among which is the
    argmax; and, where the fidelities span less than TUNE_FLAT plus twice
    that margin, the phases within it of the minimum, which the flatness
    test reads, and phase 0, which a flat landscape answers. So
    phi_opt and its fidelity have the bits of the written route, and the
    unwritten rows are what the ranking read, not a table.

    The golden section's 13 phases build one channel each, with no point
    stack, and are ranked by the tuning's solve on the step matrix as a
    stack of one: the settle without an environment, else `_ranking_rows`,
    as an unwritten grid is, in either route. The step matrices of the two
    bracketing phases are kept. With an environment the fidelity returned
    is one `stationary` solve of the chosen one, so answer and comparison
    with the best grid row have the bits of a golden section ranked by
    `stationary` alone, and that solve's gap is the answer_gap.
    """
    if cfg.theta2 == 0.0:
        raise ConfigError("phase tuning needs a middle segment; theta2 = 0 has none")
    grid = [2.0 * math.pi * i / PHI_GRID_POINTS for i in range(PHI_GRID_POINTS)]
    settle = _no_environment(cfg)
    if settle:
        # the settle sends an atom through every cycle
        cfg = replace(cfg, pat=1.0)
    params = reservoir_params(cfg)
    points = [replace(params, phi=phi) for phi in grid]
    rank = _settle_rows if settle else _ranking_rows
    rows = _settled(cfg, points, _stationary_rows if written and not settle else rank)
    fids = [row["fidelity"] for row in rows]
    if not (written or settle):
        top, bottom = max(fids), min(fids)
        doubt = top - bottom < TUNE_FLAT + 2.0 * TUNE_RANK_MARGIN
        deciding = [i for i, (fid, row) in enumerate(zip(fids, rows)) if "spectral_gap" not in row and (
            fid >= top - TUNE_RANK_MARGIN or (doubt and (i == 0 or fid <= bottom + TUNE_RANK_MARGIN)))]
        for i, row in zip(deciding, _settled(cfg, [points[i] for i in deciding], _stationary_rows)):
            rows[i], fids[i] = row, row["fidelity"]
    table = [{"phi": p, **row} for p, row in zip(grid, rows)]
    if max(fids) - min(fids) < TUNE_FLAT:
        return PhaseTuning(0.0, fids[0], table)
    best = int(np.argmax(fids))
    step = 2.0 * math.pi / PHI_GRID_POINTS

    def ranked(phi: float) -> tuple[float, np.ndarray]:
        matrix = cycle_matrix(cfg, build_channel(cfg, replace(params, phi=phi)))
        (row,) = rank(matrix[None], cfg.nbar)
        return row["fidelity"], matrix

    phi_opt, (fid_opt, chosen) = _golden_max(ranked, grid[best] - step, grid[best] + step)
    answer_gap = math.inf
    if not settle:
        populations, answer_gap = stationary(chosen)
        fid_opt = float(populations[cfg.nbar])
    if fids[best] >= fid_opt:
        phi_opt, fid_opt = grid[best], fids[best]
    return PhaseTuning(phi_opt % (2.0 * math.pi), fid_opt, table, answer_gap)


def _golden_max(fn, lo: float, hi: float) -> tuple[float, tuple[float, Any]]:
    """Deterministic golden-section maximization on [lo, hi] to GOLDEN_XATOL of
    fn, which returns (score, payload): the better bracketing point and fn's
    value there, by score. Only the two bracketing values are kept."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > GOLDEN_XATOL:
        if fc[0] >= fd[0]:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (c, fc) if fc[0] >= fd[0] else (d, fd)


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
    return RunRecord(diag[:, cfg.nbar].copy(), _v_series(cfg, diag), trace, diag, summary)


# the scenario names the acceptance suite calls; all three are run_record
run_convergence = run_trajectory = ladder_check = run_record


def _walther_fidelities(cfg: ExperimentConfig, ks: Sequence[int], **changes: Any) -> list[float]:
    """Target fidelity of the resonant trapping baseline of Weidinger et al.
    (PRL 82, 3795, 1999) after each of the atom counts ks, for tables that
    read only those rows: (M^k d0)[nbar], with M^k from `np.linalg.matrix_power`.

    The baseline is the analytic Walther channel, theta2 = phi = 0, at cfg
    with the fields of changes replaced (its theta1 error, its initial state
    and the environment it sees)."""
    walther = replace(cfg, scheme="walther", channel="analytic", theta2=0.0, phi=0.0, **changes)
    step = cycle_matrix(walther, build_channel(walther, reservoir_params(walther)))
    d0 = np.diag(initial_state(walther)).real
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

    An oracle for the fidelity of `_stationary_rows`, run by tests and the
    benchmark's checks; no runner calls it.
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

        # at the configured theta1 error, then at -/+2%
        sim, minus, plus = _settled(sub, [reservoir_params(sub, phi=phi, theta1_err=err)
                                          for err in (sub.theta1_err, -0.02, 0.02)], _stationary_rows)
        x1 = steady_population_correction(params, tp)
        fid_reduced = float(stationary(build_reduced(params, tp, sub.dim).step_matrix())[0][nbar])
        (fid_walther,) = _walther_fidelities(sub, [int(WALTHER_SECONDS / sub.ts)], theta1_err=0.0, init="vacuum")
        rows.append(
            {
                "nbar": nbar,
                "theta2": theta2,
                "fid_steady": sim["fidelity"],
                "fid_perturbative": 1.0 + x1,
                "fid_reduced": fid_reduced,
                "fid_walther_4s": fid_walther,
                "fid_theta1_minus2pct": minus["fidelity"],
                "fid_theta1_plus2pct": plus["fidelity"],
                "x1": x1,
                "spectral_gap": sim["spectral_gap"],
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
    middle-segment phase is offset by +/-pi/8, at the configured theta1
    error. theta2 = 0 is refused: that pulse has no middle segment whose
    phase could act.
    """
    if cfg.theta2 == 0.0:
        raise ConfigError("the phase_offset rows need a middle segment; theta2 = 0 has none")
    rows: list[dict[str, Any]] = []
    k_01, k_025 = (int(seconds / cfg.ts) for seconds in DECAY_SECONDS)
    for err in (-0.02, 0.02):
        for pat in sorted({cfg.pat, 1.0}):
            fid_01, fid_025 = _walther_fidelities(cfg, [k_01, k_025], theta1_err=err, init=f"fock:{cfg.nbar}",
                                                  kappa=0.0, nth=0.0, pat=pat)
            rows.append({"case": "walther_theta_err", "theta1_err": err, "p_at": pat, "fid_0p1s": fid_01,
                         "fid_0p25s": fid_025})

    def stationary_rows(cfg: ExperimentConfig, case: str, column: str, values: Sequence[float],
                        points: list[ReservoirParams]) -> list[dict[str, Any]]:
        # one `_settled` call for the row set; fid_change is against the first value
        fids = [row["fidelity"] for row in _settled(cfg, points, _stationary_rows)]
        return [{"case": case, column: value, "p_at": cfg.pat, "fid_steady": fid, "fid_change": fid - fids[0]}
                for value, fid in zip(values, fids)]

    phi, _ = resolve_phi(cfg)
    errs = (0.0, -0.02, 0.02)
    rows += stationary_rows(cfg, "symmetric_theta1_err", "theta1_err", errs,
                            [reservoir_params(cfg, phi=phi, theta1_err=err) for err in errs])
    acfg = replace(cfg, channel="analytic")
    offsets = (0.0, -math.pi / 8.0, math.pi / 8.0)
    return rows + stationary_rows(acfg, "phase_offset", "phi_offset", offsets,
                                  [reservoir_params(acfg, phi=off) for off in offsets])
