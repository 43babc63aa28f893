"""The rows of `fockstab validate`: the core identities, re-checked on the
running numpy.

`rows` returns one (name, ok, detail) row per check, eighteen in all.
The first fourteen pin the production route of almost every module to the
dense operator route of `oracle`, or to the atom-by-atom loops
`kernels.evolve` and `kernels.evolve_to_fixed_point`, at seeded random
points. `power_rows` pins the answer-only rows, `np.linalg.matrix_power`
rows, to the recorded ones of `kernels.record_rows`, `stationary_stack` a
stacked stationary solve to its per-matrix solves, `shifted_stationary` the
solve that ranks tuning phases to `stationary`, and the last,
`record_format`, pins the run-CSV formatter to `'%.12g' % x`. This module
is the one production caller of `oracle`, and it imports `experiments` and
`kernels` itself, so `oracle` stays a leaf.
The CLI imports it only for `validate`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np

from . import experiments, kernels, oracle, output
from .config import ExperimentConfig
from .dynamics import composite_propagator, default_dim, make_params, trapping_theta1, window_top
from .fock import fock_density, random_density
from .kraus import KrausSet, analytic_kraus, bands, extract_kraus, ladder_defects
from .lyapunov import build_weights
from .thermal import build_reduced, cavity_thermal, reduced_from_channel, shifted_stationary, stationary


def rows() -> list[tuple[str, bool, str]]:
    """Every `validate` row as (name, ok, detail), in the order it prints them."""
    rng = np.random.default_rng(7)
    checks: list[tuple[str, bool, str]] = []

    dim = 12
    a = oracle.annihilation(dim)
    fvals = rng.standard_normal(dim + 1) + 1j * rng.standard_normal(dim + 1)
    f_n = oracle.number_function(lambda n: fvals[n], dim)
    f_np1 = oracle.number_function(lambda n: fvals[n + 1], dim)
    dev = float(np.abs(a @ f_n - f_np1 @ a).max())
    checks.append(("shift_identity", dev < 1e-12, f"max dev {dev:.2e}"))

    nbar = 2
    params = make_params(nbar, theta2=float(rng.uniform(0.3, 2.0)), phi=float(rng.uniform(0, 2 * math.pi)))
    k = analytic_kraus(params, default_dim(nbar))
    checks.append(
        ("analytic_completeness", k.completeness_defect < 1e-12, f"defect {k.completeness_defect:.2e}")
    )

    kn = extract_kraus(composite_propagator(make_params(nbar, theta2=1.0 / math.sqrt(nbar)), default_dim(nbar)))
    checks.append(
        ("numeric_completeness", kn.completeness_defect < 1e-10, f"defect {kn.completeness_defect:.2e}")
    )

    p0 = make_params(nbar, theta2=1.0 / math.sqrt(nbar))
    k0 = analytic_kraus(p0, default_dim(nbar))
    rho_t = fock_density(nbar, k0.dim)
    fp_dev = float(np.abs(oracle.apply_map(k0, rho_t) - rho_t).max())
    checks.append(("analytic_fixed_point", fp_dev < 1e-12, f"max dev {fp_dev:.2e}"))

    w = build_weights(nbar, p0.theta2, 0.5, dim=k0.dim)
    worst = 0.0
    for _ in range(20):
        rho = random_density(k0.dim, rng, 0, window_top(nbar))
        dv, pred = oracle.lyapunov_decrement(k0, w, rho)
        worst = max(worst, abs(dv - pred))
    checks.append(("lyapunov_identity", worst < 1e-9, f"max |dv - pred| {worst:.2e}"))

    rho = random_density(k0.dim, rng)
    g, e, m = bands(k0)
    kdev = float(np.abs(oracle.channel_step(g, e, m, rho) - oracle.dense_channel(k0, rho)).max())
    checks.append(("banded_channel_kernel", kdev < 1e-13, f"max dev {kdev:.2e}"))

    tp = cavity_thermal()
    tdev = float(
        np.abs(
            oracle.thermal_step(rho, tp.gamma_minus, tp.gamma_plus)
            - oracle.dense_thermal(rho, tp.gamma_minus, tp.gamma_plus)
        ).max()
    )
    checks.append(("thermal_kernel", tdev < 1e-13, f"max dev {tdev:.2e}"))

    p1 = make_params(1, theta2=0.75 * math.pi)
    d1 = 18
    rho_ss, _, _ = kernels.evolve_to_fixed_point(
        *bands(analytic_kraus(p1, d1)), fock_density(1, d1), tp.gamma_minus, tp.gamma_plus, tp.p_at
    )
    r = oracle.steady_state(build_reduced(p1, tp, d1), tp.p_at)
    sdev = float(np.abs(np.diag(rho_ss).real - r).max())
    checks.append(("reduced_vs_full_steady", sdev < 1e-6, f"max dev {sdev:.2e}"))

    # the populations-only kernels drop the coherences of a coherent start;
    # the dense route carries them, and they must not feed the populations
    rho = random_density(k0.dim, rng)
    _, diag, trace = kernels.evolve(g, e, m, rho, tp.gamma_minus, tp.gamma_plus, tp.p_at, 50)
    for _ in range(50):
        rho = oracle.reservoir_step(rho, k0, tp)
    pdev = float(np.abs(diag[-1] / trace[-1] - np.diag(rho).real).max())
    checks.append(("population_engine", pdev < 1e-12, f"max dev {pdev:.2e}"))

    nb = int(rng.integers(1, 9))
    pb = make_params(
        nb,
        theta2=float(rng.uniform(0.05, 3.0)) / math.sqrt(nb),
        theta1=trapping_theta1(nb) * (1.0 + float(rng.uniform(-0.03, 0.03))),
        phi=float(rng.uniform(0, 2 * math.pi)),
    )
    db = default_dim(nb)
    ub = composite_propagator(pb, db)
    dense_u = ub.dense()
    bdev = float(np.abs(dense_u - oracle.dense_composite(pb, db)).max())
    checks.append(("block_propagator", bdev < 1e-13, f"nbar {nb}, max dev {bdev:.2e}"))

    unitarity, completeness = ladder_defects(ub)
    ldev = max(
        abs(unitarity - oracle.unitarity_defect(dense_u)),
        abs(completeness - KrausSet.from_operators(*oracle.dense_kraus_operators(dense_u)).completeness_defect),
    )
    checks.append(("ladder_extraction", ldev < 1e-14, f"nbar {nb}, max dev {ldev:.2e}"))

    # the production stationary solve against both oracles: the reduced chain
    # read off the channel, and renormalized iteration of the engine
    ns = int(rng.integers(1, 5))
    ps = make_params(
        ns,
        theta2=float(rng.uniform(0.6, 0.9)) * math.pi / math.sqrt(ns),
        phi=float(rng.uniform(-0.3, 0.3)),
    )
    ds = default_dim(ns)
    ks = analytic_kraus(ps, ds)
    gs, es, ms = bands(ks)
    r_perron, gap = stationary(kernels.step_matrix(gs, es, ms, tp.gamma_minus, tp.gamma_plus, tp.p_at))
    r_chain = oracle.steady_state(reduced_from_channel(ks, tp), tp.p_at)
    rho_it, _, _ = kernels.evolve_to_fixed_point(
        gs, es, ms, fock_density(ns, ds), tp.gamma_minus, tp.gamma_plus, tp.p_at, tol=1e-12
    )
    edev = max(float(np.abs(r_perron - r_chain).max()), float(np.abs(r_perron - np.diag(rho_it).real).max()))
    checks.append(("stationary_solver", edev < 1e-8, f"nbar {ns}, gap {gap:.2e}, max dev {edev:.2e}"))

    # the production record route (powers of the step matrix) against the
    # atom-by-atom loop of the engine's cycle
    nr = int(rng.integers(1, 9))
    rcfg = ExperimentConfig(
        scenario="trajectory",
        nbar=nr,
        theta2=float(rng.uniform(0.05, 3.0)) / math.sqrt(nr),
        phi=float(rng.uniform(0, 2 * math.pi)),
        theta1_err=float(rng.uniform(-0.03, 0.03)),
        init=f"fock:{int(rng.integers(0, window_top(nr) + 1))}",
        steps=1000,
    ).resolved()
    record = experiments.run_record(rcfg)
    gr, er, mr = bands(experiments.build_channel(rcfg, experiments.reservoir_params(rcfg, phi=rcfg.phi)))
    tr = experiments.thermal_params(rcfg)
    _, diag, trace = kernels.evolve(
        gr, er, mr, experiments.initial_state(rcfg), tr.gamma_minus, tr.gamma_plus, tr.p_at, rcfg.steps
    )
    rdev = max(float(np.abs(record.diag - diag).max()), float(np.abs(record.trace - trace).max()))
    checks.append(("population_powers", rdev < 1e-11, f"nbar {nr}, {rcfg.steps} steps, max dev {rdev:.2e}"))

    # the comb-built step matrix against the cycle of the identity, bit for
    # bit and in layout: it rests on numpy applying the same per-element
    # arithmetic to both batch shapes, which a numpy build may not
    nc = int(rng.integers(1, 9))
    pc = make_params(
        nc, theta2=float(rng.uniform(0.05, 3.0)) / math.sqrt(nc), phi=float(rng.uniform(0, 2 * math.pi))
    )
    gc, ec, mc = bands(analytic_kraus(pc, default_dim(nc)))
    rates = (tp.gamma_minus, tp.gamma_plus, tp.p_at)
    combed = kernels.step_matrix(gc, ec, mc, *rates)
    unit = kernels._population_cycle(gc, ec, mc, *rates)(np.eye(len(ec), dtype=np.complex128)).real.T
    same = np.array_equal(combed, unit) and combed.strides == unit.strides
    cdev = float(np.abs(combed - unit).max())
    checks.append(("step_matrix", same, f"nbar {nc}, max dev {cdev:.2e}, strides {combed.strides}"))

    # the answer-only rows (`matrix_power`) against the power stack of the
    # recorded runs, at the cavity, from a random start, for ks that take
    # numpy's short cuts and its binary loop
    atoms = [0, 1, 2, 3, *sorted(rng.integers(4, 2000, size=3).tolist())]
    d0 = rng.dirichlet(np.ones(len(ec)))
    answer = np.array([np.linalg.matrix_power(combed, k) @ d0 for k in atoms])
    wdev = float(np.abs(answer - kernels.record_rows(combed, d0, atoms[-1])[atoms]).max())
    checks.append(("power_rows", wdev < 1e-11, f"nbar {nc}, k up to {atoms[-1]}, max dev {wdev:.2e}"))

    # the stacked stationary solve of the tuning grid against one solve per
    # matrix, bit for bit: it rests on numpy's stacked eigvals, inv, matmul
    # and row sums rounding each item as their per-matrix calls do
    nt = int(rng.integers(1, 9))
    pt = make_params(nt, theta2=0.75 * math.pi / math.sqrt(nt) * float(rng.uniform(0.98, 1.02)))
    phis = rng.uniform(0, 2 * math.pi, 4).tolist()
    channels = extract_kraus(composite_propagator(pt, default_dim(nt), [replace(pt, phi=phi) for phi in phis]))
    stack = kernels.step_matrix(*bands(channels), *rates)
    populations, gaps = stationary(stack)
    singles = [stationary(item) for item in stack]
    same = all(np.array_equal(r, r1) and gap == gap1 for r, gap, (r1, gap1) in zip(populations, gaps, singles))
    checks.append(("stationary_stack", same, f"nbar {nt}, {len(phis)} phases, smallest gap {gaps.min():.2e}"))

    # the ranking solve against the eigvals route on a cavity step matrix
    # near the nominal phase, where the golden sections rank: accepted, and
    # within rounding, or eps / gap where the chain mixes slowly
    nq = int(rng.integers(1, 9))
    pq = make_params(
        nq,
        theta2=0.75 * math.pi / math.sqrt(nq),
        theta1=trapping_theta1(nq) * (1.0 + float(rng.uniform(-0.03, 0.03))),
        phi=float(rng.uniform(-0.3, 0.3)),
    )
    step = kernels.step_matrix(*bands(extract_kraus(composite_propagator(pq, default_dim(nq)))), *rates)
    (v,), (accepted,) = shifted_stationary(step[None])
    r_eig, gap = stationary(step)
    gdev = float(np.abs(v - r_eig).sum())
    ok = bool(accepted) and gdev <= max(1e-12, np.finfo(np.float64).eps / gap)
    checks.append(("shifted_stationary", ok, f"nbar {nq}, accepted {accepted}, gap {gap:.2e}, 1-norm dev {gdev:.2e}"))

    checks.append(record_format_check())
    return checks


def record_format_check() -> tuple[str, bool, str]:
    """`output.format_rows` against `'%.12g' % x`, line by line.

    The fast path is exact only where this numpy's product, rint and float
    to integer conversion round as IEEE arithmetic requires, so the row
    checks it on the running build: random-bit floats, floats of the fast
    path's range, floats near a tie at the twelfth digit, on both sides
    of the margin that sends a cell to the fallback, and the same two kinds
    in [1, 10), where the point follows the first digit.
    """
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, size=10_000, dtype=np.uint64).view(np.float64)
    ranged = rng.uniform(-10.0, 10.0, 10_000) * 10.0 ** rng.integers(-100, 100, 10_000)
    # twelve digits, then a fraction of the last digit within 0.01 of a half
    ties = [float(f"{m}.{f:06d}e{k}") for m, f, k in zip(rng.integers(10**11, 10**12, 6_000).tolist(),
                                                       rng.integers(490_000, 510_001, 6_000).tolist(),
                                                       rng.integers(-110, 100, 6_000).tolist())]
    # [1, 10), where the point follows the first digit: fractions, and near
    # ties at the twelfth digit, in both signs
    signs = rng.choice([-1.0, 1.0], 5_200)
    units = rng.uniform(1.0, 10.0, 2_600)
    unit_ties = [float(f"{m}.{f:06d}e-11") for m, f in zip(rng.integers(10**11, 10**12, 2_600).tolist(),
                                                          rng.integers(490_000, 510_001, 2_600).tolist())]
    table = np.concatenate([bits, ranged, ties, signs * np.concatenate([units, unit_ties])]).reshape(-1, 13)
    steps = np.arange(1, len(table) + 1)
    want = ["%d," % k + ",".join(["%.12g"] * table.shape[1]) % tuple(row) + "\n"
            for k, row in zip(steps.tolist(), table.tolist())]
    got = "".join(output.format_rows([steps, table])).splitlines(keepends=True)
    differ = sum(line != expected for line, expected in itertools.zip_longest(got, want))
    return "record_format", differ == 0, f"{table.size} cells, {differ} lines differ"
