import math

import numpy as np
import pytest

from fockstab.dynamics import ladder_top, make_params
from fockstab.errors import ConfigError
from fockstab.fock import fock_density, random_density, uniform_density
from fockstab.kraus import analytic_kraus
from fockstab.lyapunov import build_weights, validate_theta2, window_top
from fockstab.oracle import apply_map, evaluate_v, lyapunov_decrement


def test_validate_theta2_exact_hits():
    assert not validate_theta2(math.pi, 1)  # k=1, n=1
    assert not validate_theta2(math.pi / math.sqrt(3), 1)  # n=3, k=1
    assert not validate_theta2(0.0, 2)


def test_validate_theta2_exhaustive_scan_oracle():
    # brute-force resonance scan agrees with the fast check
    for nbar in range(1, 9):
        theta2 = 1 / math.sqrt(nbar)
        top = 4 * nbar + 3
        hit = any(
            abs(theta2 - k * math.pi / math.sqrt(n)) < 1e-6
            for n in range(1, top + 1)
            for k in range(1, 40)
        )
        assert not hit
        assert validate_theta2(theta2, nbar, tol=1e-6)


def test_build_weights_rejects_resonance_naming_pair():
    with pytest.raises(ConfigError, match=r"\(3, 1\)"):
        build_weights(1, math.pi / math.sqrt(3), 0.5, dim=18)


@pytest.mark.parametrize("theta2", [0.0, -0.4])
def test_build_weights_rejects_nonpositive_theta2(theta2):
    # no resonance to name: the certificate needs a middle pulse at all
    with pytest.raises(ConfigError, match="positive"):
        build_weights(2, theta2)


def test_weight_anchors():
    for nbar, theta2 in ((1, 1.0), (3, 0.9), (8, 2.9 / math.sqrt(8))):
        w = build_weights(nbar, theta2, 0.5, dim=9 * (nbar + 1))
        assert w.f[nbar] == 0.0
        assert w.f[nbar + 1] == 1.0
        assert w.f[nbar - 1] == 1.0


def test_weight_single_step_recurrence_value():
    # one upward step above the anchor, evaluated independently
    w = build_weights(1, 1.0, 0.5, dim=18)
    beta2 = 1.0 * math.sqrt(2) / 2
    expected = 1.0 + 0.5 * math.sin(beta2 / 2) ** 2 * (1.0 - 0.0)
    assert expected == pytest.approx(1.0599, abs=2e-4)
    assert w.f[3] == pytest.approx(expected, abs=1e-12)


def test_weight_monotonicity_and_plateau():
    nbar = 3
    w = build_weights(nbar, 0.9, 0.5, dim=36)
    top = window_top(nbar)
    assert np.all(w.down_inc[:nbar] > 0)
    assert np.all(w.up_inc[nbar + 1 : top + 1] > 0)
    assert np.all(w.f[top:] == w.f[top])


@pytest.mark.parametrize("nbar", range(1, 9))
def test_decrement_rates_strictly_negative(nbar):
    theta2 = 1 / math.sqrt(nbar)
    w = build_weights(nbar, theta2, 0.5, dim=9 * (nbar + 1))
    top = window_top(nbar)
    for n in range(top + 1):
        if n == nbar:
            assert w.q[n] == 0.0
        else:
            assert w.q[n] < 0.0
    assert np.all(w.q[top + 1 :] == 0.0)


def test_evaluate_v_basics():
    nbar = 2
    w = build_weights(nbar, 1.1, 0.5, dim=27)
    assert evaluate_v(fock_density(nbar, 27), w) == 0.0
    assert evaluate_v(fock_density(nbar + 1, 27), w) == 1.0
    top = window_top(nbar)
    uni = uniform_density(0, top, 27)
    assert evaluate_v(uni, w) == pytest.approx(w.f[: top + 1].mean())


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
def test_decrement_identity_random_states(eta):
    nbar = 3
    theta2 = 0.75 * math.pi / math.sqrt(nbar)
    dim = 9 * (nbar + 1)
    p = make_params(nbar, theta2=theta2)
    k = analytic_kraus(p, dim)
    w = build_weights(nbar, theta2, eta, dim=dim)
    rng = np.random.default_rng(17)
    for _ in range(40):
        rho = random_density(dim, rng, 0, window_top(nbar))
        dv, pred = lyapunov_decrement(k, w, rho)
        assert dv == pytest.approx(pred, abs=1e-9)
        assert dv < 0.0


def test_decrement_identity_holds_for_any_state():
    # V and q act on the diagonal only, so the identity is not restricted
    # to window-supported states
    nbar = 2
    theta2 = 1.3
    dim = 27
    k = analytic_kraus(make_params(nbar, theta2=theta2), dim)
    w = build_weights(nbar, theta2, 0.5, dim=dim)
    rng = np.random.default_rng(3)
    rho = random_density(dim, rng)
    dv = evaluate_v(apply_map(k, rho), w) - evaluate_v(rho, w)
    assert dv == pytest.approx(float(w.q @ np.diag(rho).real), abs=1e-9)


def test_decrement_zero_at_target():
    nbar = 2
    theta2 = 1.3
    k = analytic_kraus(make_params(nbar, theta2=theta2), 27)
    w = build_weights(nbar, theta2, 0.5, dim=27)
    dv, pred = lyapunov_decrement(k, w, fock_density(nbar, 27))
    assert abs(dv) < 1e-12 and abs(pred) < 1e-12


def test_decrement_single_level_equals_rate():
    nbar = 2
    theta2 = 1.3
    k = analytic_kraus(make_params(nbar, theta2=theta2), 27)
    w = build_weights(nbar, theta2, 0.5, dim=27)
    dv, pred = lyapunov_decrement(k, w, fock_density(nbar + 1, 27))
    assert pred == pytest.approx(w.q[nbar + 1], abs=1e-15)
    assert dv == pytest.approx(w.q[nbar + 1], abs=1e-10)
    assert dv < 0


def test_decrement_requires_window_support():
    nbar = 1
    k = analytic_kraus(make_params(nbar, theta2=1.0), 18)
    w = build_weights(nbar, 1.0, 0.5, dim=18)
    with pytest.raises(ConfigError, match="support"):
        lyapunov_decrement(k, w, fock_density(10, 18))


def test_extended_plateau_nonstrict_certificate():
    # extending the weights to the second dark level gives decrement <= 0 there
    nbar = 1
    theta2 = 1.0
    dim = 18
    k = analytic_kraus(make_params(nbar, theta2=theta2), dim)
    w = build_weights(nbar, theta2, 0.5, dim=dim, plateau=ladder_top(nbar))
    assert np.all(w.q[: w.plateau + 1] <= 0.0)
    # zero up to the rounding of cos(3*pi/2)
    assert abs(w.q[ladder_top(nbar)]) < 1e-30
    rng = np.random.default_rng(23)
    for _ in range(20):
        rho = random_density(dim, rng, 0, ladder_top(nbar))
        dv, pred = lyapunov_decrement(k, w, rho)
        assert dv == pytest.approx(pred, abs=1e-9)
        assert dv <= 1e-12


def test_build_weights_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        build_weights(0, 1.0, 0.5, dim=18)
    with pytest.raises(ConfigError):
        build_weights(2, 1.0, 1.5, dim=27)
    with pytest.raises(ConfigError):
        build_weights(2, 1.0, 0.5, dim=8)  # dim below the plateau
