import math
from dataclasses import replace

import numpy as np
import pytest

from fockstab.dynamics import (
    LadderPropagator,
    composite_propagator,
    ladder_members,
    ladder_top,
    make_params,
    trapping_theta1,
)
from fockstab.errors import ConfigError
from fockstab.fock import fock_density, random_density
from fockstab.kraus import (
    KrausSet,
    analytic_kraus,
    bands,
    extract_kraus,
    ladder_defects,
    transition_rates,
    walther_kraus,
)
from fockstab.lyapunov import window_top
from fockstab.oracle import (
    annihilation,
    apply_map,
    creation,
    dense_kraus_operators,
    kraus_deviation,
    number_function,
    support_in,
    unitarity_defect,
)


def completeness_level(alpha, beta, phi):
    """Direct scalar evaluation of <n| sum M^dag M |n> from the closed forms."""
    c, s = math.cos(alpha / 2) ** 2, math.sin(alpha / 2) ** 2
    big = math.cos(beta)
    g2 = (1 + 2 * math.cos(phi) * big + big * big) * c * s
    e2 = c * c * big * big - 2 * math.cos(phi) * c * s * big + s * s
    m2 = math.sin(beta) ** 2 * c
    return g2 + e2 + m2


@pytest.mark.parametrize("seed", range(6))
def test_completeness_identity_scalar(seed):
    # the three diagonal magnitudes sum to one for every level and any angles
    rng = np.random.default_rng(seed)
    alpha, beta, phi = rng.uniform(0, 4 * math.pi, 3)
    assert completeness_level(alpha, beta, phi) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_analytic_completeness_any_phase(seed):
    rng = np.random.default_rng(100 + seed)
    nbar = int(rng.integers(1, 6))
    p = make_params(nbar, theta2=float(rng.uniform(0.1, 2.5)), phi=float(rng.uniform(0, 2 * math.pi)))
    k = analytic_kraus(p, 9 * (nbar + 1))
    assert k.completeness_defect < 1e-12


def test_analytic_target_action_at_trapping_area():
    nbar = 3
    p = make_params(nbar, theta2=1.0)
    k = analytic_kraus(p, 36)
    target = np.zeros(36)
    target[nbar] = 1.0
    assert np.abs(k.m_g @ target).max() < 1e-15
    assert np.abs(k.m_m @ target).max() < 1e-15
    assert k.m_e @ target @ target == pytest.approx(-1.0)


def test_analytic_diagonal_rates_match_closed_form():
    nbar, theta2 = 3, 1.2
    p = make_params(nbar, theta2=theta2)
    k = analytic_kraus(p, 36)
    for n in range(20):
        alpha = math.pi * math.sqrt((n + 1) / (nbar + 1))
        beta = theta2 * math.sqrt(n) / 2
        e_n = math.sin(alpha) ** 2 * math.cos(beta / 2) ** 4
        d_n = math.sin(beta) ** 2 * math.cos(alpha / 2) ** 2
        got_e = (k.m_g.conj().T @ k.m_g)[n, n].real
        got_d = (k.m_m.conj().T @ k.m_m)[n, n].real
        assert got_e == pytest.approx(e_n, abs=1e-12)
        assert got_d == pytest.approx(d_n, abs=1e-12)
        dd, ee = transition_rates(p.nbar, p.theta2, n)
        assert (dd, ee) == (pytest.approx(d_n, abs=1e-14), pytest.approx(e_n, abs=1e-14))


def test_transition_rates_vanish_at_dark_levels():
    p = make_params(3, theta2=0.9)
    for level in (3, 15):
        d, e = transition_rates(p.nbar, p.theta2, level)
        if level == 3:
            assert d == pytest.approx(0.0, abs=1e-30)
        assert e == pytest.approx(0.0, abs=1e-25)


def test_rates_sum_with_survival_probability():
    # d_n + e_n + |M_e(n)|^2 = 1 at phi = 0
    p = make_params(2, theta2=1.4)
    k = analytic_kraus(p, 27)
    for n in range(20):
        d, e = transition_rates(p.nbar, p.theta2, n)
        surv = abs(k.m_e[n, n]) ** 2
        assert d + e + surv == pytest.approx(1.0, abs=1e-12)


def identity_propagator(d):
    return LadderPropagator(np.tile(np.eye(3, dtype=complex), (d, 1, 1)), 1.0 + 0j, 1.0 + 0j)


def test_extract_identity_propagator():
    d = 8
    k = extract_kraus(identity_propagator(d))
    assert np.abs(k.m_e - np.eye(d)).max() == 0.0
    assert np.abs(k.m_g).max() == 0.0
    assert np.abs(k.m_m).max() == 0.0


@pytest.mark.parametrize("nbar", [1, 2, 3])
def test_extract_completeness_numeric(nbar):
    p = make_params(nbar, theta2=1 / math.sqrt(nbar))
    k = extract_kraus(composite_propagator(p, 9 * (nbar + 1)))
    assert k.completeness_defect < 1e-10


def test_extract_rejects_nonunitary():
    bad = replace(identity_propagator(3), phase_g0=0.9 + 0j)
    with pytest.raises(ValueError, match="unitarity"):
        extract_kraus(bad)


def random_draw(rng):
    """A cycle propagator at random physics."""
    nbar = int(rng.integers(1, 9))
    dim = int(rng.integers(nbar + 2, 9 * (nbar + 1) + 10))
    p = make_params(
        nbar,
        theta2=float(rng.uniform(0.05, 3.0)) / math.sqrt(nbar),
        theta1=trapping_theta1(nbar) * (1.0 + float(rng.uniform(-0.03, 0.03))),
        phi=float(rng.uniform(0, 2 * math.pi)),
        delta_ratio=float(rng.choice([30.0, 100.0, 1000.0])),
    )
    return composite_propagator(p, dim)


def test_ladder_extraction_matches_dense_route_over_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        u = random_draw(rng)
        dense_u = u.dense()
        k = extract_kraus(u)
        for op, want in zip((k.m_g, k.m_e, k.m_m), dense_kraus_operators(dense_u)):
            assert np.array_equal(op, want)
        dense = KrausSet.from_operators(*dense_kraus_operators(dense_u))
        assert abs(k.completeness_defect - dense.completeness_defect) <= 1e-15
        unitarity, completeness = ladder_defects(u)
        assert completeness == k.completeness_defect
        assert abs(unitarity - unitarity_defect(dense_u)) <= 1e-15

        # scale one in-block entry of weight >= 0.1, so that a relative
        # change of 1e-8 moves its block's Gram by well over unitary_tol
        _, exists = ladder_members(u.dim)
        entries = np.argwhere(exists & (np.abs(u.blocks) >= 0.1))
        j = tuple(entries[rng.integers(len(entries))])
        blocks = u.blocks.copy()
        blocks[j] *= 1.0 + 1e-8
        with pytest.raises(ValueError, match="unitarity"):
            extract_kraus(replace(u, blocks=blocks))
        blocks = u.blocks.copy()
        blocks[j] *= 1.0 + 1e-13
        extract_kraus(replace(u, blocks=blocks))


def test_extraction_ignores_placeholder_rows_and_columns():
    # |g,dim> and |m,-1> lie outside the truncation: whatever their block
    # rows and columns hold must not reach the operators or the defects
    rng = np.random.default_rng(77)
    for _ in range(40):
        u = random_draw(rng)
        _, exists = ladder_members(u.dim)
        blocks = u.blocks.copy()
        noise = rng.standard_normal(blocks.shape) + 1j * rng.standard_normal(blocks.shape)
        blocks[~exists] = noise[~exists]
        noisy = replace(u, blocks=blocks)
        k, kn = extract_kraus(u), extract_kraus(noisy)
        for band, band_noisy in zip(bands(k), bands(kn)):
            assert np.array_equal(band, band_noisy)
        assert ladder_defects(noisy) == ladder_defects(u)
        assert np.array_equal(noisy.dense(), u.dense())


@pytest.mark.parametrize("phases", [1, 2, 17])
def test_stacked_build_equals_single_builds_over_random_physics(phases):
    # one propagator per phase from one stacked build: its blocks, singleton
    # phases, bands and both defects are those of building each phase alone
    rng = np.random.default_rng(1400 + phases)
    for nbar in range(1, 9):
        dim = 9 * (nbar + 1)
        p = make_params(
            nbar,
            theta2=float(rng.uniform(0.05, 3.0)) / math.sqrt(nbar),
            theta1=trapping_theta1(nbar) * (1.0 + float(rng.uniform(-0.03, 0.03))),
        )
        phis = [float(phi) for phi in rng.uniform(0, 2 * math.pi, phases)]
        stack = composite_propagator(p, dim, phis)
        assert stack.blocks.shape == (phases, dim, 3, 3) and stack.dim == dim
        unitarity, completeness = ladder_defects(stack)
        channels = extract_kraus(stack)
        assert len(channels) == phases
        for i, phi in enumerate(phis):
            single = composite_propagator(replace(p, phi=phi), dim)
            assert np.array_equal(stack.blocks[i], single.blocks)
            assert stack.phase_g0[i] == single.phase_g0 and stack.phase_m_top[i] == single.phase_m_top
            assert ladder_defects(single) == (unitarity[i], completeness[i])
            k = extract_kraus(single)
            for got, want in zip(bands(channels[i]), bands(k)):
                assert np.array_equal(got, want)
            assert channels[i].completeness_defect == k.completeness_defect


def test_stacked_extraction_raises_the_first_failing_phase(monkeypatch):
    # under a tolerance that some phases exceed, the stack refuses with the
    # error of the first of them, as building phase by phase does
    from fockstab import kraus

    p = make_params(3, theta2=0.75 * math.pi / math.sqrt(3))
    phis = [2.0 * math.pi * i / 17 for i in range(17)]
    defects = [float(ladder_defects(composite_propagator(replace(p, phi=phi), 36))[0]) for phi in phis]
    # the last phase whose defect exceeds every one before it
    k = max(i for i in range(1, 17) if defects[i] > max(defects[:i]))
    monkeypatch.setattr(kraus, "UNITARY_TOL", max(defects[:k]))
    with pytest.raises(ValueError) as single:
        extract_kraus(composite_propagator(replace(p, phi=phis[k]), 36))
    with pytest.raises(ValueError) as stacked:
        extract_kraus(composite_propagator(p, 36, phis))
    assert str(stacked.value) == str(single.value) == (
        f"propagator unitarity defect {defects[k]:.3e} exceeds {max(defects[:k]):.1e}"
    )


def analytic_operators(p, dim):
    """The closed-form cycle channel as dense operators adag f_g(N), f_e(N), -a f_m(N)."""
    eip = np.exp(1j * p.phi)

    def alpha(n):
        return p.theta1 * math.sqrt(n + 1.0)

    def beta(n):
        return 0.5 * p.theta2 * math.sqrt(n)

    def f_g(n):
        return (eip + math.cos(beta(n))) * math.sin(alpha(n)) / (2.0 * math.sqrt(n + 1.0))

    def f_e(n):
        return math.cos(0.5 * alpha(n)) ** 2 * math.cos(beta(n)) - eip * math.sin(0.5 * alpha(n)) ** 2

    def f_m(n):
        frac = 0.5 * p.theta2 if n == 0 else math.sin(beta(n)) / math.sqrt(n)
        return frac * math.cos(0.5 * alpha(n))

    a = annihilation(dim)
    return creation(dim) @ number_function(f_g, dim), number_function(f_e, dim), -(a @ number_function(f_m, dim))


def walther_operators(theta_r, dim):
    """The resonant baseline as dense operators f_g(N) adag, f_e(N), 0."""

    def f_g(n):
        return 0.5 * theta_r if n == 0 else math.sin(0.5 * theta_r * math.sqrt(n)) / math.sqrt(n)

    def f_e(n):
        return math.cos(0.5 * theta_r * math.sqrt(n + 1.0))

    zero = np.zeros((dim, dim), dtype=np.complex128)
    return number_function(f_g, dim) @ creation(dim), number_function(f_e, dim), zero


def test_closed_form_bands_match_operator_formulas_over_random_draws():
    rng = np.random.default_rng(606)
    for draw in range(60):
        nbar = int(rng.integers(1, 9))
        dim = int(rng.integers(nbar + 2, 9 * (nbar + 1) + 10))
        theta1 = trapping_theta1(nbar) * (1.0 + float(rng.uniform(-0.03, 0.03)))
        theta2 = 0.0 if draw % 10 == 0 else float(rng.uniform(0.05, 3.0)) / math.sqrt(nbar)
        phi = float(rng.uniform(0, 2 * math.pi))
        p = make_params(nbar, theta2=theta2, theta1=theta1, phi=phi if theta2 else 0.0)
        for k, ops in (
            (analytic_kraus(p, dim), analytic_operators(p, dim)),
            (walther_kraus(nbar, 2.0 * theta1, dim), walther_operators(2.0 * theta1, dim)),
        ):
            ref = KrausSet.from_operators(*ops)
            for band, want in zip(bands(k), bands(ref)):
                assert np.array_equal(band, want)
            assert abs(k.completeness_defect - ref.completeness_defect) <= 1e-15


@pytest.mark.parametrize(
    "scheme, channel", [("symmetric", "numeric"), ("symmetric", "analytic"), ("walther", "numeric"), ("walther", "analytic")]
)
def test_production_run_builds_no_dense_operator(scheme, channel, monkeypatch):
    from fockstab import experiments as ex
    from fockstab.config import ExperimentConfig

    built = []
    build = ex.build_channel
    monkeypatch.setattr(ex, "build_channel", lambda *a, **kw: built.append(build(*a, **kw)) or built[-1])
    # the Walther pulse has no middle segment for a phase to act in
    phase = {"phi": 0.4} if scheme == "symmetric" else {}
    cfg = ExperimentConfig(scenario="converge", nbar=2, scheme=scheme, channel=channel, steps=20, **phase).resolved()
    ex.run_convergence(cfg)
    (k,) = built
    assert not {"m_g", "m_e", "m_m"} & set(vars(k))
    for band in bands(k):
        assert not band.flags.writeable
        with pytest.raises(ValueError):
            band[0] = 1.0
    # the dense operators are built on demand and then cached, read-only too
    assert k.m_e is k.m_e and not k.m_e.flags.writeable
    assert np.array_equal(np.diag(k.m_e), k.e)


def test_numeric_converges_to_analytic_with_detuning():
    nbar = 2
    devs = []
    for ratio in (100.0, 1000.0):
        p = make_params(nbar, theta2=1 / math.sqrt(nbar), delta_ratio=ratio)
        kn = extract_kraus(composite_propagator(p, 27))
        ka = analytic_kraus(p, 27)
        devs.append(kraus_deviation(kn, ka))
    assert devs[1] < devs[0]
    assert devs[1] < 0.05


def test_walther_entries_and_completeness():
    nbar = 3
    theta_r = 2 * math.pi / math.sqrt(nbar + 1)
    k = walther_kraus(nbar, theta_r, 36)
    # trapping: no raising out of the target level
    assert abs(k.m_g[nbar + 1, nbar]) < 1e-15
    for n in range(35):
        g2 = abs(k.m_g[n + 1, n]) ** 2
        e2 = abs(k.m_e[n, n]) ** 2
        assert g2 + e2 == pytest.approx(1.0, abs=1e-12)
    # dim = 9*(nbar+1) also closes the top row at the nominal area
    assert k.completeness_defect < 1e-12


def test_channels_compare_by_identity_and_hash():
    a, b = walther_kraus(1, 3.0, 6), walther_kraus(1, 3.0, 6)
    assert np.array_equal(a.g, b.g) and np.array_equal(a.e, b.e) and np.array_equal(a.m, b.m)
    assert a != b and not (a == b)
    assert a == a
    assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_walther_drives_population_upward():
    # started above the target, everything accumulates at the next dark level
    nbar = 1
    dim = 9 * (nbar + 1)
    k = walther_kraus(nbar, 2 * math.pi / math.sqrt(nbar + 1), dim)
    rho = fock_density(nbar + 1, dim)
    for _ in range(4000):
        rho = apply_map(k, rho)
    assert rho[4 * nbar + 3, 4 * nbar + 3].real > 0.999


def test_apply_map_fixed_point_and_trace():
    nbar = 2
    p = make_params(nbar, theta2=0.9)
    k = analytic_kraus(p, 27)
    rho = fock_density(nbar, 27)
    assert np.abs(apply_map(k, rho) - rho).max() < 1e-12
    rng = np.random.default_rng(4)
    mixed = random_density(27, rng)
    assert np.trace(apply_map(k, mixed)).real == pytest.approx(1.0, abs=1e-10)


def test_apply_map_vacuum_single_step():
    # the vacuum moves up with probability sin^2(alpha_0) at phi = 0
    nbar = 3
    p = make_params(nbar, theta2=1.1)
    k = analytic_kraus(p, 36)
    out = apply_map(k, fock_density(0, 36))
    expected = math.sin(math.pi / math.sqrt(nbar + 1)) ** 2
    assert out[1, 1].real == pytest.approx(expected, abs=1e-12)


def test_apply_map_dim_mismatch():
    k = analytic_kraus(make_params(1, theta2=0.5), 18)
    with pytest.raises(ConfigError):
        apply_map(k, fock_density(0, 12))


def test_apply_map_refuses_large_defect():
    d = 10
    half = np.eye(d, dtype=complex) * math.sqrt(0.5)
    k = KrausSet.from_operators(np.zeros((d, d), dtype=complex), half, np.zeros((d, d), dtype=complex))
    with pytest.raises(ValueError, match="completeness"):
        apply_map(k, fock_density(0, d))


def test_window_invariance():
    nbar = 2
    dim = 9 * (nbar + 1) + 4  # keep rows above the second dark level in view
    p = make_params(nbar, theta2=0.8)
    k = analytic_kraus(p, dim)
    for top in (window_top(nbar), ladder_top(nbar)):
        for op in (k.m_g, k.m_e, k.m_m):
            assert np.abs(op[top + 1 :, : top + 1]).max() < 1e-12


def test_channel_linearity_and_hermiticity():
    nbar = 2
    p = make_params(nbar, theta2=1.3)
    k = analytic_kraus(p, 27)
    rng = np.random.default_rng(8)
    r1, r2 = random_density(27, rng), random_density(27, rng)
    a = 0.3
    lhs = apply_map(k, a * r1 + (1 - a) * r2)
    rhs = a * apply_map(k, r1) + (1 - a) * apply_map(k, r2)
    assert np.abs(lhs - rhs).max() < 1e-12
    out = apply_map(k, r1)
    assert np.abs(out - out.conj().T).max() < 1e-12


def test_diagonal_closure():
    nbar = 2
    p = make_params(nbar, theta2=1.3, phi=0.7)
    k = analytic_kraus(p, 27)
    rho = np.diag(np.linspace(1, 27, 27)).astype(complex)
    rho /= np.trace(rho)
    out = apply_map(k, rho)
    assert np.abs(out - np.diag(np.diag(out))).max() < 1e-12


def test_bands_roundtrip_and_off_band_guard():
    nbar = 2
    k = analytic_kraus(make_params(nbar, theta2=1.1, phi=0.4), 27)
    g, e, m = bands(k)
    assert np.abs(np.diag(g[:-1], -1) - k.m_g).max() == 0.0
    assert np.abs(np.diag(e) - k.m_e).max() == 0.0
    assert np.abs(np.diag(m[1:], 1) - k.m_m).max() == 0.0
    with pytest.raises(ValueError, match="off-band"):
        KrausSet.from_operators(k.m_g, k.m_e + 1e-6 * np.eye(27, k=3), k.m_m)


def test_extracted_channel_is_banded():
    p = make_params(2, theta2=0.9)
    u = composite_propagator(p, 27)
    # from_operators raises if the dense route's channel has off-band weight
    dense = KrausSet.from_operators(*dense_kraus_operators(u.dense()))
    for band, want in zip(bands(extract_kraus(u)), bands(dense)):
        assert np.array_equal(band, want)


def test_numeric_channel_keeps_state_in_window():
    nbar = 2
    dim = 9 * (nbar + 1)
    p = make_params(nbar, theta2=1 / math.sqrt(nbar))
    k = extract_kraus(composite_propagator(p, dim))
    rho = fock_density(0, dim)
    for _ in range(200):
        rho = apply_map(k, rho)
    assert support_in(rho, 0, window_top(nbar), 1e-4)


def test_walther_numeric_single_segment_channel():
    # the single-resonance propagator reproduces the closed-form baseline
    # up to the detuning-ratio model error
    nbar = 2
    dim = 27
    p = make_params(nbar, theta2=0.0, delta_ratio=1000.0)
    kn = extract_kraus(composite_propagator(p, dim))
    ka = walther_kraus(nbar, 2 * p.theta1, dim)
    assert kraus_deviation(kn, ka) < 0.05
