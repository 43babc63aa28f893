import math

import numpy as np
import pytest

from fockstab import kernels
from fockstab.dynamics import make_params
from fockstab.errors import (
    AmbiguousSteadyStateError,
    ConfigError,
    PerturbationInvalidError,
    StepValidityError,
)
from fockstab.fock import fock_density, random_density
from fockstab.kraus import analytic_kraus, bands
from fockstab.oracle import apply_map, decoherence_step, dense_thermal, reservoir_step, steady_state
from fockstab.thermal import (
    ThermalParams,
    build_reduced,
    cavity_thermal,
    reduced_from_channel,
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
    none = ThermalParams(kappa=10.0, n_th=0.05, Ts=60e-6, p_at=0.0)
    assert np.abs(reservoir_step(rho, k, full) - decoherence_step(apply_map(k, rho), full)).max() < 1e-12
    assert np.abs(reservoir_step(rho, k, none) - decoherence_step(rho, none)).max() < 1e-12
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
    assert np.abs(rd.step_matrix(tp.p_at) @ r - np.diag(raw).real).max() < 1e-12


def test_reduced_from_channel_matches_trapping_rates():
    nbar = 3
    p = make_params(nbar, theta2=1.2)
    tp = cavity_thermal()
    dim = 36
    via_rates = build_reduced(p, tp, dim)
    via_channel = reduced_from_channel(analytic_kraus(p, dim), tp)
    assert np.abs(via_rates.a_matrix() - via_channel.a_matrix()).max() < 1e-12


def test_steady_state_without_environment_is_target():
    nbar = 2
    dim = 27
    rd = build_reduced(make_params(nbar, theta2=1.3), ThermalParams(0.0, 0.0, 60e-6), dim)
    with pytest.raises(AmbiguousSteadyStateError):
        # the second dark level makes the unit eigenvalue degenerate on this dim
        steady_state(rd, 1.0)
    with pytest.raises(AmbiguousSteadyStateError):
        stationary(rd.step_matrix(1.0))
    with pytest.raises(AmbiguousSteadyStateError):
        # the channel's own cycle matrix has the same two closed classes
        stationary(kernels.step_matrix(*bands(analytic_kraus(make_params(nbar, theta2=1.3), dim)), 0.0, 0.0, 1.0))
    # restricted below the second dark level the target is the unique fixed point
    rd_win = build_reduced(make_params(nbar, theta2=1.3), ThermalParams(0.0, 0.0, 60e-6), 16)
    r = steady_state(rd_win, 1.0)
    assert r[nbar] == pytest.approx(1.0, abs=1e-9)
    r, gap = stationary(rd_win.step_matrix(1.0))
    assert r[nbar] == pytest.approx(1.0, abs=1e-12) and gap > 1e-3


def test_steady_state_properties():
    nbar = 3
    tp = cavity_thermal()
    rd = build_reduced(make_params(nbar, theta2=0.75 * math.pi / math.sqrt(nbar)), tp, 36)
    r = steady_state(rd, tp.p_at)
    assert r.sum() == pytest.approx(1.0, abs=1e-12)
    assert r.min() > -1e-10
    assert r[nbar] > 0.5
    perron, gap = stationary(rd.step_matrix(tp.p_at))
    assert perron.sum() == pytest.approx(1.0, abs=1e-14)
    assert 0.0 < gap < 1.0
    assert np.abs(perron - r).max() < 1e-9


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
    assert rd.b_down[3] == pytest.approx(3 * tp.gamma_minus)
