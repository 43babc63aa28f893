import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fockstab import kernels
from fockstab.dynamics import composite_propagator, default_dim, make_params, trapping_theta1
from fockstab.errors import (
    AmbiguousSteadyStateError,
    ConfigError,
    PerturbationInvalidError,
    StepValidityError,
)
from fockstab.fock import fock_density, random_density
from fockstab.kraus import analytic_kraus, bands, extract_kraus, transition_rates, walther_kraus
from fockstab.oracle import apply_map, decoherence_step, dense_thermal, reservoir_step, steady_state
from fockstab.thermal import (
    STATIONARY_GAP_TOL,
    ThermalParams,
    build_reduced,
    cavity_thermal,
    reduced_from_channel,
    shifted_stationary,
    stationary,
    steady_population_correction,
)


def test_thermal_rates_cavity_defaults():
    tp = cavity_thermal()
    assert tp.gamma_minus == pytest.approx(6.3e-4, rel=1e-12)
    assert tp.gamma_plus == pytest.approx(3.0e-5, rel=1e-12)
    assert tp.gamma_plus <= tp.gamma_minus
    assert tp.p_at == 0.3


def test_thermal_params_validation():
    with pytest.raises(ConfigError):
        ThermalParams(kappa=-1.0, n_th=0.0, Ts=1e-5)
    with pytest.raises(ConfigError):
        ThermalParams(kappa=1.0, n_th=0.0, Ts=1e-5, p_at=1.5)
    with pytest.raises(StepValidityError):
        ThermalParams(kappa=1e5, n_th=0.0, Ts=1e-3).check_step_validity(30)


def test_decoherence_vacuum_dark_for_pure_decay():
    tp = ThermalParams(kappa=5.0, n_th=0.0, Ts=60e-6)
    rho = fock_density(0, 10)
    assert np.abs(decoherence_step(rho, tp) - rho).max() < 1e-15


def test_decoherence_single_photon_decay():
    tp = ThermalParams(kappa=5.0, n_th=0.0, Ts=60e-6)
    gm = tp.gamma_minus
    out = decoherence_step(fock_density(1, 10), tp)
    assert out[1, 1].real == pytest.approx(1 - gm, abs=1e-14)
    assert out[0, 0].real == pytest.approx(gm, abs=1e-14)


def test_decoherence_matches_dense_operator_route():
    tp = cavity_thermal()
    dim = 20
    rng = np.random.default_rng(2)
    rho = random_density(dim, rng)
    ref = dense_thermal(rho, tp.gamma_minus, tp.gamma_plus)
    ref /= np.trace(ref).real
    assert np.abs(decoherence_step(rho, tp) - ref).max() < 1e-14


def test_decoherence_trace_leak_bounded_by_top_population():
    tp = cavity_thermal()
    dim = 12
    rho = fock_density(dim - 1, dim)
    leak = 1.0 - np.trace(dense_thermal(rho, tp.gamma_minus, tp.gamma_plus)).real
    assert leak == pytest.approx(tp.gamma_plus * dim, abs=1e-12)


def test_decoherence_step_validity_guard():
    tp = ThermalParams(kappa=3e3, n_th=0.0, Ts=1e-3)
    with pytest.raises(StepValidityError):
        decoherence_step(fock_density(0, 16), tp)


def test_reservoir_step_limits():
    nbar = 2
    dim = 27
    k = analytic_kraus(make_params(nbar, theta2=0.9), dim)
    rng = np.random.default_rng(6)
    rho = random_density(dim, rng)
    full = ThermalParams(kappa=10.0, n_th=0.05, Ts=60e-6, p_at=1.0)
    assert np.abs(reservoir_step(rho, k, full) - decoherence_step(apply_map(k, rho), full)).max() < 1e-12
    # with no atom no pulse acts, so an environment without atoms is refused
    with pytest.raises(ConfigError, match=r"p_at must lie in \(0, 1\]"):
        ThermalParams(kappa=10.0, n_th=0.05, Ts=60e-6, p_at=0.0)
    # fixed point without an environment, any presence probability
    hold = ThermalParams(kappa=0.0, n_th=0.0, Ts=60e-6, p_at=0.3)
    target = fock_density(nbar, dim)
    assert np.abs(reservoir_step(target, k, hold) - target).max() < 1e-12


def test_reduced_matrices_structure():
    nbar = 3
    tp = cavity_thermal()
    rd = build_reduced(make_params(nbar, theta2=1.1), tp, 36)
    a = rd.a_matrix()
    b = rd.b_matrix()
    assert np.abs(a.sum(axis=0) - 1.0).max() < 1e-12  # e vanishes at the top level
    col_b = b.sum(axis=0)
    assert np.abs(col_b[:-1] - 1.0).max() < 1e-12
    assert col_b[-1] == pytest.approx(1.0 - tp.gamma_plus * 36, abs=1e-14)
    assert rd.truncation_defect == pytest.approx(tp.gamma_plus * 36, abs=1e-15)
    assert b[2, 3] == pytest.approx(3 * tp.gamma_minus)  # decay inflow from level 3
    assert b[3, 2] == pytest.approx(3 * tp.gamma_plus)  # thermal inflow into level 3
    assert (a >= -1e-12).all() and (b >= -1e-12).all()


def test_reduced_diagonal_matches_full_channel():
    nbar = 2
    dim = 27
    p = make_params(nbar, theta2=1.3)
    tp = cavity_thermal()
    k = analytic_kraus(p, dim)
    rd = build_reduced(p, tp, dim)
    rng = np.random.default_rng(12)
    r = rng.random(dim)
    r /= r.sum()
    rho = np.diag(r).astype(complex)
    # reservoir part alone
    assert np.abs(rd.a_matrix() @ r - np.diag(apply_map(k, rho)).real).max() < 1e-10
    # full cycle against the raw dense operator route (no renormalization)
    mix = (1 - tp.p_at) * rho + tp.p_at * apply_map(k, rho)
    raw = dense_thermal(mix, tp.gamma_minus, tp.gamma_plus)
    assert np.abs(rd.step_matrix() @ r - np.diag(raw).real).max() < 1e-12


def test_reduced_from_channel_matches_trapping_rates():
    nbar = 3
    p = make_params(nbar, theta2=1.2)
    tp = cavity_thermal()
    dim = 36
    via_rates = build_reduced(p, tp, dim)
    via_channel = reduced_from_channel(analytic_kraus(p, dim), tp)
    assert np.abs(via_rates.a_matrix() - via_channel.a_matrix()).max() < 1e-12


def written_out_cycle(d, e, gm, gp, p_at):
    """A, B and B((1 - p_at) I + p_at A), entry by entry from the reservoir
    rates d, e and the environment rates gm, gp."""
    dim = len(d)
    a = np.zeros((dim, dim))
    b = np.zeros((dim, dim))
    for n in range(dim):
        down, up = gm * float(n), gp * (float(n) + 1.0)
        a[n, n] = 1.0 - d[n] - e[n]
        b[n, n] = 1.0 - down - up
        if n > 0:
            a[n - 1, n], b[n - 1, n] = d[n], down
        if n + 1 < dim:
            a[n + 1, n], b[n + 1, n] = e[n], up
    return a, b, b @ ((1.0 - p_at) * np.eye(dim) + p_at * a)


@pytest.mark.parametrize("seed", range(4))
def test_reduced_matrices_are_the_written_out_chain_bit_for_bit(seed):
    # both builders hold only their rates; every matrix entry is formed from
    # them with the arithmetic written out above
    rng = np.random.default_rng(seed)
    nbar = int(rng.integers(1, 7))
    p = make_params(nbar, theta2=float(rng.uniform(0.3, 2.8)) / math.sqrt(nbar))
    dim = default_dim(nbar) - int(rng.integers(0, 4 * nbar))
    tp = ThermalParams(kappa=float(rng.uniform(0.0, 20.0)), n_th=float(rng.uniform(0.0, 0.2)), Ts=60e-6,
                       p_at=float(rng.uniform(0.1, 1.0)))
    rates = np.array([transition_rates(nbar, p.theta2, n) for n in range(dim)])
    cases = [(build_reduced(p, tp, dim), rates[:, 0], rates[:, 1])]
    for k in (analytic_kraus(p, dim), walther_kraus(nbar, 2.0 * p.theta1, dim)):
        g, _, m = bands(k)
        cases.append((reduced_from_channel(k, tp), np.abs(m) ** 2, np.abs(g) ** 2))
    for rd, d, e in cases:
        a, b, step = written_out_cycle(d, e, tp.gamma_minus, tp.gamma_plus, tp.p_at)
        assert rd.dim == dim and rd.truncation_defect == tp.gamma_plus * dim
        assert np.array_equal(rd.a_matrix(), a)
        assert np.array_equal(rd.b_matrix(), b)
        assert np.array_equal(rd.step_matrix(), step)


def test_steady_state_without_environment_is_target():
    nbar = 2
    dim = 27
    rd = build_reduced(make_params(nbar, theta2=1.3), ThermalParams(0.0, 0.0, 60e-6), dim)
    with pytest.raises(AmbiguousSteadyStateError):
        # the second dark level makes the unit eigenvalue degenerate on this dim
        steady_state(rd, 1.0)
    with pytest.raises(AmbiguousSteadyStateError):
        stationary(rd.step_matrix())
    with pytest.raises(AmbiguousSteadyStateError):
        # the channel's own cycle matrix has the same two closed classes
        stationary(kernels.step_matrix(*bands(analytic_kraus(make_params(nbar, theta2=1.3), dim)), 0.0, 0.0, 1.0))
    # restricted below the second dark level the target is the unique fixed point
    rd_win = build_reduced(make_params(nbar, theta2=1.3), ThermalParams(0.0, 0.0, 60e-6), 16)
    r = steady_state(rd_win, 1.0)
    assert r[nbar] == pytest.approx(1.0, abs=1e-9)
    r, gap = stationary(rd_win.step_matrix())
    assert r[nbar] == pytest.approx(1.0, abs=1e-12) and gap > 1e-3


def test_steady_state_properties():
    nbar = 3
    tp = cavity_thermal()
    rd = build_reduced(make_params(nbar, theta2=0.75 * math.pi / math.sqrt(nbar)), tp, 36)
    r = steady_state(rd, tp.p_at)
    assert r.sum() == pytest.approx(1.0, abs=1e-12)
    assert r.min() > -1e-10
    assert r[nbar] > 0.5
    perron, gap = stationary(rd.step_matrix())
    assert perron.sum() == pytest.approx(1.0, abs=1e-14)
    assert 0.0 < gap < 1.0
    assert np.abs(perron - r).max() < 1e-9


def eig_route(m):
    """The solve `stationary` replaced: lam1 and the gap from `np.linalg.eig`,
    whose Perron vector is polished by two inverse steps at the same shift."""
    lam, vecs = np.linalg.eig(m)
    top = int(np.argmax(lam.real))
    lam1 = float(lam[top].real)
    gap = lam1 - float(np.abs(np.delete(lam, top)).max())
    shifted = (lam1 + max(1e-3 * gap, 1e-13)) * np.eye(len(lam)) - m
    r = np.abs((vecs[:, top] / vecs[:, top].sum()).real)
    for _ in range(2):
        r = np.linalg.solve(shifted, r)
        r /= r.sum()
    return r, gap


def test_stationary_matches_the_eig_route_over_random_physics():
    # the numeric channel of the paper's cavity widened on every axis: the
    # gap is the one of eig's spectrum, the vector that of eig plus inverse
    # steps, and one engine cycle of it, renormalized, leaves it in place
    rng = np.random.default_rng(31)
    for draw in range(16):
        nbar = int(rng.integers(1, 9))
        dim = default_dim(nbar)
        params = make_params(
            nbar,
            theta2=float(rng.uniform(0.5, 1.0)) * math.pi / math.sqrt(nbar),
            theta1=(1.0 + float(rng.uniform(-0.03, 0.03))) * trapping_theta1(nbar),
            phi=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        tp = ThermalParams(
            kappa=float(rng.uniform(5.0, 20.0)),
            n_th=float(rng.uniform(0.0, 0.1)),
            Ts=60e-6,
            p_at=float(rng.uniform(0.1, 1.0)),
        )
        g, e, m = bands(extract_kraus(composite_propagator(params, dim)))
        cavity = (tp.gamma_minus, tp.gamma_plus, tp.p_at)
        step = kernels.step_matrix(g, e, m, *cavity)
        r, gap = stationary(step)
        r_eig, gap_eig = eig_route(step)
        assert gap == gap_eig, draw
        assert np.abs(r - r_eig).max() <= 1e-12, draw
        _, diag, trace = kernels.evolve(g, e, m, np.diag(r), *cavity, 1)
        assert np.abs(diag[1] / trace[1] - r).max() <= 1e-13, draw


def perron_two_level(m):
    """Perron vector of a 2x2 matrix from its stored entries, in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        p, b, a, q = (Decimal(float(x)) for x in m.ravel())
        lam1 = (p + q) / 2 + (((p - q) / 2) ** 2 + a * b).sqrt()
        total = b + lam1 - p
        return np.array([float(b / total), float((lam1 - p) / total)])


def test_stationary_near_the_gap_floor():
    # a two-level chain whose gap a + b lies within 10x of the floor: the
    # shift sits at the floor, each inverse step still shrinks the error by
    # at least half, and the vector meets the residual bound and is the
    # Perron vector of the stored entries; ten times weaker coupling raises
    a, b = 1e-13, 2e-13
    m = np.array([[1.0 - a, b], [a, 1.0 - b]])
    r, gap = stationary(m)
    assert STATIONARY_GAP_TOL < gap < 10 * STATIONARY_GAP_TOL
    assert np.abs(r - perron_two_level(m)).max() <= 1e-13
    with pytest.raises(AmbiguousSteadyStateError, match="not separated"):
        stationary(np.array([[1.0 - a / 10, b / 10], [a / 10, 1.0 - b / 10]]))


TUNE_AT_SMALL_GAP = ["tune-phase", "--nbar", "2", "--kappa", "10", "--nth", "0.05", "--pat", "1", "--theta1-err", "0.02"]


def test_stationary_residual_is_measured_against_the_rayleigh_quotient(tmp_path):
    # grid phase 35 * 2pi/64 of this tuning has gap 9.2e-10, and eigvals puts
    # lam1 5.4e-13 above the Perron root: against lam1 the correct vector's
    # residual exceeded the bound and the run exited 3
    from fockstab import experiments as ex
    from fockstab.cli import build_parser, config_from_args, main

    assert main([*TUNE_AT_SMALL_GAP, "--out", str(tmp_path / "t.csv")]) == 0
    cfg = config_from_args(build_parser().parse_args(TUNE_AT_SMALL_GAP))
    tp = ex.thermal_params(cfg)
    k = ex.build_channel(cfg, ex.reservoir_params(cfg, phi=2.0 * math.pi * 35 / 64))
    step = kernels.step_matrix(*bands(k), tp.gamma_minus, tp.gamma_plus, tp.p_at)
    r, gap = stationary(step)
    assert gap < 1e-9
    mr = step @ r
    assert np.abs(mr - (mr.sum() / r.sum()) * r).sum() <= 1e-15


def test_stationary_refuses_a_vector_one_inverse_step_leaves_unconverged(monkeypatch, capsys):
    from fockstab import thermal
    from fockstab.cli import main

    monkeypatch.setattr(thermal, "STATIONARY_MAX_STEPS", 1)
    assert main(TUNE_AT_SMALL_GAP) == 3
    assert "eigenvector residual" in capsys.readouterr().err


def random_cavity_step(rng, phi_low, phi_high):
    """Step matrix of a numeric channel at nbar 1-8 with a +/-3 % theta1
    error, a phase drawn in [phi_low, phi_high) and a cavity drawn on every
    axis (1/kappa 33-1000 ms, n_th 0-0.2, p_at 0.1-1)."""
    nbar = int(rng.integers(1, 9))
    params = make_params(
        nbar,
        theta2=0.75 * math.pi / math.sqrt(nbar),
        theta1=(1.0 + float(rng.uniform(-0.03, 0.03))) * trapping_theta1(nbar),
        phi=float(rng.uniform(phi_low, phi_high)),
    )
    tp = ThermalParams(kappa=float(rng.uniform(1.0, 30.0)), n_th=float(rng.uniform(0.0, 0.2)), Ts=60e-6,
                       p_at=float(rng.uniform(0.1, 1.0)))
    g, e, m = bands(extract_kraus(composite_propagator(params, default_dim(nbar))))
    return kernels.step_matrix(g, e, m, tp.gamma_minus, tp.gamma_plus, tp.p_at)


def test_shifted_stationary_is_stationarys_vector_over_random_physics():
    # over the whole phase circle: every vector accepted is stationary's to
    # 1e-12, or to eps / gap where the Perron vector's condition lifts the
    # rounding of both solves above that (draw 27, gap 9.5e-10: they differ
    # by 2.1e-11, and lie 1.5e-11 and 5.2e-12 from a 50-digit Perron
    # vector); a chain stationary refuses is refused here too
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(71)
    accepted = 0
    for draw in range(48):
        step = random_cavity_step(rng, 0.0, 2.0 * math.pi)
        (v,), (ok,) = shifted_stationary(step[None])
        try:
            r, gap = stationary(step)
        except AmbiguousSteadyStateError:
            assert not ok, draw
            continue
        if ok:
            accepted += 1
            assert np.abs(v - r).sum() <= max(1e-12, eps / gap), draw
    assert accepted >= 40


@pytest.mark.parametrize("contraction, accepted", [(0.45, True), (0.55, False)])
def test_shifted_stationary_accepts_only_steps_that_halve_the_error(contraction, accepted):
    # a two-level chain of eigenvalues 0.9 < 0.91 beside 18 leaky levels: the
    # shift lands b = 0.01 * c / (1 - c) above the Perron root, so each step
    # shrinks the error by c; both settle within the step cap, and only the
    # chain whose last step more than halved the one before leaves a tail
    # below the step tolerance
    m = np.diag(np.full(20, 0.5))
    m[:2, :2] = [[0.9, 0.01 * contraction / (1.0 - contraction)], [0.0, 0.91]]
    (v,), (ok,) = shifted_stationary(m[None])
    assert ok == accepted
    assert np.abs(v - stationary(m)[0]).sum() <= 1e-13


def nbar8_gap_floor_steps(phases):
    """Step matrices of grid phases of the nbar-8 cavity tuning at a 2 %
    theta1 error whose phases 46 and 47 fall below the gap floor."""
    from fockstab import experiments as ex
    from fockstab.config import ExperimentConfig

    cfg = ExperimentConfig("tune-phase", nbar=8, theta2=0.8330405509046935, kappa=10.0, nth=0.05, pat=0.3,
                           theta1_err=0.02).resolved()
    points = [ex.reservoir_params(cfg, phi=2.0 * math.pi * p / ex.PHI_GRID_POINTS) for p in phases]
    return ex.cycle_matrix(cfg, ex.build_channel(cfg, ex.reservoir_params(cfg), points))


def test_shifted_stationary_refuses_without_a_warning():
    # two closed classes, copies of one chain, which the shifted inverse
    # amplifies alike, so each start keeps its own mixture of the two and
    # settles there; the two grid phases below the gap floor, which stall;
    # a negative entry, whose vector goes negative. stationary raises on
    # each; here they are refused, with no warning. The grid's phase 0 in
    # the same stack is accepted
    two_classes = np.zeros((4, 4))
    two_classes[:2, :2] = two_classes[2:, 2:] = [[0.9, 0.2], [0.1, 0.8]]
    floor = nbar8_gap_floor_steps([0, 46, 47])
    negative = random_cavity_step(np.random.default_rng(59), -0.3, 0.3)
    assert shifted_stationary(negative[None])[1].all()
    negative[7, 6] = -negative[7, 6]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stack, want in ((two_classes[None], [False]), (floor, [True, False, False]), (negative[None], [False])):
            _, accepted = shifted_stationary(stack)
            assert accepted.tolist() == want
            for m, ok in zip(stack, want):
                if not ok:
                    with pytest.raises(AmbiguousSteadyStateError):
                        stationary(m)


def test_steady_fidelity_degrades_with_coupling():
    nbar = 3
    fids = []
    for kappa in (1.0, 5.0, 10.0, 20.0):
        tp = ThermalParams(kappa=kappa, n_th=0.05, Ts=60e-6, p_at=0.3)
        rd = build_reduced(make_params(nbar, theta2=0.75 * math.pi / math.sqrt(nbar)), tp, 36)
        fids.append(steady_state(rd, tp.p_at)[nbar])
    assert all(a > b for a, b in zip(fids, fids[1:]))


def test_correction_linear_in_kappa():
    nbar = 3
    p = make_params(nbar, theta2=0.75 * math.pi / math.sqrt(nbar))
    x_at = {}
    for kappa in (1e-3, 1e-2):
        tp = ThermalParams(kappa=kappa, n_th=0.05, Ts=60e-6)
        x_at[kappa] = steady_population_correction(p, tp)
    assert x_at[1e-2] == pytest.approx(10 * x_at[1e-3], rel=1e-9)
    assert x_at[1e-2] < 0


def test_correction_invalid_when_middle_pulse_off():
    p = make_params(3, theta2=1e-12)
    with pytest.raises(PerturbationInvalidError, match="d_4"):
        steady_population_correction(p, cavity_thermal())


def test_reduced_routes_refuse_a_p_at_other_than_the_environments():
    # the reduced map and the correction read p_at from tp; a p_at passed
    # beside it may only restate it
    p = make_params(3, theta2=1.2)
    tp = cavity_thermal()
    rd = build_reduced(p, tp, 36)
    assert steady_population_correction(p, tp) == steady_population_correction(p, tp, p_at=0.3)
    assert steady_population_correction(p, tp) != steady_population_correction(p, cavity_thermal(1.0))
    with pytest.raises(ValueError, match="differs from the environment's p_at 0.3"):
        steady_state(rd, 1.0)
    with pytest.raises(ValueError, match="differs from the environment's p_at 0.3"):
        steady_population_correction(p, tp, p_at=1.0)


@pytest.mark.parametrize("nbar", range(1, 9))
def test_correction_against_reduced_eigenvector(nbar):
    theta2 = 0.75 * math.pi / math.sqrt(nbar)
    p = make_params(nbar, theta2=theta2)
    tp = cavity_thermal()
    r = steady_state(build_reduced(p, tp, 9 * (nbar + 1)), tp.p_at)
    x1 = steady_population_correction(p, tp, p_at=tp.p_at)
    assert x1 < 0
    assert abs(1 + x1 - r[nbar]) <= 5 * x1 * x1


def test_rates_example_b3():
    tp = cavity_thermal()
    rd = build_reduced(make_params(3, theta2=1.0), tp, 36)
    assert rd.b_matrix()[2, 3] == pytest.approx(3 * tp.gamma_minus)
