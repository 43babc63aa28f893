import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from fockstab.dynamics import (
    E,
    G,
    M,
    composite_propagator,
    control_schedule,
    ladder_hamiltonians,
    make_params,
    phase_delta_m,
    trapping_theta1,
)
from fockstab.errors import ConfigError
from fockstab.kraus import KrausSet, bands, extract_kraus
from fockstab.oracle import (
    build_hjc,
    dense_composite,
    dense_kraus_operators,
    ladder_blocks,
    phase_adjusted,
    propagate,
    unitarity_defect,
)

OMEGA = 2 * math.pi * 50e3


def test_trapping_theta1_value():
    assert trapping_theta1(3) == pytest.approx(math.pi / 2)


def test_params_derived_quantities():
    p = make_params(3, theta2=1.0)
    assert p.delta_bar == pytest.approx(100 * OMEGA)
    assert p.t_s == pytest.approx(1.0 / OMEGA)
    assert p.interaction_time == pytest.approx((2 * trapping_theta1(3) + 1.0) / OMEGA)


def test_params_validation():
    with pytest.raises(ConfigError):
        make_params(0, theta2=1.0)
    with pytest.raises(ConfigError):
        make_params(3, theta2=1.0, theta1=-0.1)
    with pytest.raises(ConfigError):
        make_params(3, theta2=1.0, Ts=1e-9)  # interaction longer than the period
    with pytest.warns(UserWarning, match="delta_bar"):
        make_params(3, theta2=1.0, delta_ratio=5.0)


def test_schedule_segments_and_durations():
    # outer segments of 2*pi/(omega*sqrt(nbar+1))/2 each around the middle pulse
    p = make_params(3, theta2=1.0)
    durations, u_values = zip(*control_schedule(p))
    assert durations[0] == pytest.approx(math.pi / (OMEGA * 2))  # theta1/omega, nbar=3
    assert durations[0] == durations[2]
    assert durations[1] == pytest.approx(1.0 / OMEGA)
    assert u_values == (-p.delta_g, p.delta_m, -p.delta_g)
    assert sum(durations) == pytest.approx(p.interaction_time, rel=1e-15)
    assert durations[0] + durations[2] == pytest.approx(2 * math.pi / (OMEGA * math.sqrt(4)))


def test_schedule_degenerates_without_middle_pulse():
    p = make_params(3, theta2=0.0)
    (segment,) = control_schedule(p)
    assert segment == (pytest.approx(2 * math.pi / (OMEGA * math.sqrt(4))), -p.delta_g)


@pytest.mark.parametrize("phi", [0.0, 0.5])
def test_a_middle_pulse_rounding_to_zero_is_the_schedule_refusal(phi):
    # theta2 > 0 has a middle segment, so no phi is refused for its absence
    p = make_params(2, theta2=1e-320, phi=phi)
    for build in (composite_propagator, dense_composite):
        with pytest.raises(ConfigError, match="^schedule segments must have positive durations$"):
            build(p, 12)


def test_hamiltonian_hermitian_and_elements():
    p = make_params(2, theta2=0.8)
    d = 12
    h = build_hjc(0.0, p, d)
    assert np.abs(h - h.conj().T).max() == 0.0
    for n in range(d - 1):
        assert h[G * d + n + 1, E * d + n] == pytest.approx(1j * p.omega * math.sqrt(n + 1) / 2)
        assert h[E * d + n + 1, M * d + n] == pytest.approx(1j * p.omega * math.sqrt(n + 1) / 2)


def test_hamiltonian_resonant_diagonal_vanishes():
    p = make_params(2, theta2=0.8)
    d = 10
    h = build_hjc(-p.delta_g, p, d)
    assert np.abs(np.diag(h)[G * d : (G + 1) * d]).max() == 0.0


def test_hamiltonian_block_selection_rule():
    p = make_params(2, theta2=0.8)
    d = 10
    h = build_hjc(0.3 * p.delta_m, p, d)
    for n in range(d):
        for m_ in range(d):
            if m_ != n - 1:
                assert h[G * d + n, E * d + m_] == 0.0


def test_ladder_blocks_partition_all_indices():
    d = 7
    blocks = ladder_blocks(d)
    flat = np.concatenate(blocks)
    assert len(flat) == 3 * d
    assert len(np.unique(flat)) == 3 * d
    sizes = sorted(len(b) for b in blocks)
    assert sizes == [1, 1, 2, 2] + [3] * (d - 2)


def test_propagate_zero_time_is_identity():
    p = make_params(1, theta2=0.5)
    h = build_hjc(-p.delta_g, p, 8)
    u = propagate(h, 0.0)
    assert np.abs(u - np.eye(24)).max() < 1e-15


@pytest.mark.parametrize("u_val_frac,t_frac", [(0.0, 1.0), (-1.0, 0.37), (0.64, 2.13)])
def test_propagate_unitary_and_matches_expm(u_val_frac, t_frac):
    p = make_params(2, theta2=0.8)
    d = 9
    h = build_hjc(u_val_frac * p.delta_m, p, d)
    t = t_frac * p.theta1 / p.omega
    u = propagate(h, t)
    assert unitarity_defect(u) < 1e-12
    ref = scipy.linalg.expm(-1j * h * t)
    assert np.abs(u - ref).max() < 1e-9


def test_propagate_rejects_nonhermitian():
    h = np.zeros((6, 6), dtype=complex)
    h[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        propagate(h, 1.0)


def test_propagate_preserves_block_structure():
    p = make_params(2, theta2=0.8)
    d = 10
    u = propagate(build_hjc(-p.delta_g, p, d), 0.7 * p.theta1 / p.omega)
    for n in range(d):
        for m_ in range(d):
            if m_ != n:
                assert abs(u[G * d + n + 1, E * d + m_]) < 1e-15 if n + 1 < d else True


def test_composite_unitarity():
    p = make_params(3, theta2=1 / math.sqrt(3))
    u = composite_propagator(p, 36).dense()
    assert unitarity_defect(u) < 1e-10


def test_composite_single_segment_when_theta2_zero():
    p = make_params(2, theta2=0.0)
    d = 18
    u = composite_propagator(p, d).dense()
    ref = propagate(build_hjc(-p.delta_g, p, d), 2 * p.theta1 / p.omega)
    assert np.abs(u - ref).max() < 1e-12


def test_composite_target_element_near_unimodular():
    # after phase tuning the target-level survival amplitude is 1 + O(omega/delta)
    p = make_params(3, theta2=1 / math.sqrt(3))
    d = 36
    u = composite_propagator(p, d).dense()
    amp = abs(u[E * d + 3, E * d + 3])
    assert abs(amp - 1.0) < 5 * p.omega / p.delta_bar


def test_phase_adjustment_realizes_target_phase():
    for phi in (0.0, 0.4, 3.9):
        p = make_params(2, theta2=0.9, phi=phi)
        eff = phase_adjusted(p)
        realized = (eff.delta_bar * eff.t_s) % (2 * math.pi)
        assert realized == pytest.approx(phi % (2 * math.pi), abs=1e-9)
        # the shift stays small relative to the detuning
        assert abs(eff.delta_m - p.delta_m) <= math.pi / p.t_s + 1e-6


def test_phase_with_zero_theta2_requires_zero_phi():
    p = make_params(2, theta2=0.0, phi=0.7)
    with pytest.raises(ConfigError):
        phase_adjusted(p)


def test_truncation_independence_of_interior_blocks():
    p = make_params(2, theta2=0.9)
    d = 14
    u_small = composite_propagator(p, d).dense()
    u_big = composite_propagator(p, 2 * d).dense()
    for x in (G, E, M):
        for n in range(d // 2 - 1):
            for n2 in range(d // 2 - 1):
                a = u_small[x * d + n, E * d + n2]
                b = u_big[x * 2 * d + n, E * 2 * d + n2]
                assert abs(a - b) < 1e-12


def test_segment_propagator_commutes_with_block_projectors():
    # population never crosses between distinct ladder blocks
    p = make_params(2, theta2=0.8)
    d = 9
    u = propagate(build_hjc(p.delta_m, p, d), p.t_s)
    blocks = ladder_blocks(d)
    for i, idx_a in enumerate(blocks):
        for j, idx_b in enumerate(blocks):
            if i == j:
                continue
            assert np.abs(u[np.ix_(idx_a, idx_b)]).max() < 1e-12


def test_ladder_hamiltonians_restrict_build_hjc():
    p = make_params(2, theta2=0.8)
    d = 10
    for u_val in (-p.delta_g, p.delta_m, 0.3 * p.delta_m):
        h = build_hjc(u_val, p, d)
        hb = ladder_hamiltonians(u_val, p, d)
        assert hb.shape == (d, 3, 3)
        for n, idx in enumerate(ladder_blocks(d)[1:-1]):
            # edge blocks drop the placeholder member: |m,-1> at n = 0, |g,dim> at n = dim-1
            keep = [k for k in range(3) if not (n == 0 and k == M) and not (n == d - 1 and k == G)]
            assert np.array_equal(hb[n][np.ix_(keep, keep)], h[np.ix_(idx, idx)])
        assert hb[0, E, M] == 0.0 and hb[0, M, E] == 0.0
        assert hb[d - 1, G, E] == 0.0 and hb[d - 1, E, G] == 0.0


def test_block_composite_matches_dense_route_over_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        nbar = int(rng.integers(1, 9))
        d = int(rng.integers(nbar + 2, 9 * (nbar + 1) + 10))
        theta1 = trapping_theta1(nbar) * (1.0 + rng.uniform(-0.03, 0.03))
        if rng.random() < 0.15:
            theta2, phi = 0.0, 0.0
        else:
            theta2 = rng.uniform(0.05, 3.0) / math.sqrt(nbar)
            phi = rng.uniform(0.0, 2 * math.pi)
        delta_ratio = float(rng.choice([30.0, 100.0, 1000.0]))
        p = make_params(nbar, theta2, theta1=theta1, delta_ratio=delta_ratio, phi=phi)
        lad = composite_propagator(p, d)
        ref = dense_composite(p, d)
        u = lad.dense()
        assert np.abs(u - ref).max() <= 1e-14
        assert unitarity_defect(u) <= 1e-13
        on_block = np.zeros(u.shape, dtype=bool)
        for idx in ladder_blocks(d):
            on_block[np.ix_(idx, idx)] = True
        assert np.all(u[~on_block] == 0.0)
        ref_kraus = KrausSet.from_operators(*dense_kraus_operators(ref))  # the dense route's channel
        for got, want in zip(bands(extract_kraus(lad)), bands(ref_kraus)):
            assert np.abs(got - want).max() <= 1e-14


def test_composite_rejects_too_small_field_dim():
    p = make_params(4, theta2=0.5)
    with pytest.raises(ConfigError, match="too small"):
        composite_propagator(p, 5)


def every_segment_composite(params, field_dim, points=None):
    """The segment loop of `composite_propagator` with one eigendecomposition
    per segment, the third included: (blocks, phase_g0, phase_m_top)."""
    if points is None:
        delta_m = phase_delta_m(params, params.phi)
        schedule = control_schedule(params, delta_m)
    else:
        delta_m = np.array([phase_delta_m(p, p.phi) for p in points])
        per_point = list(map(control_schedule, points, delta_m))
        schedule = [tuple(map(np.array, zip(*segment))) for segment in zip(*per_point)]
    blocks = None
    angle_g = angle_m = np.zeros(np.shape(delta_m))
    for duration, u_val in schedule:
        w, v = np.linalg.eigh(ladder_hamiltonians(u_val, params, field_dim, delta_m))
        seg = (v * np.exp((-1j * w.T * duration).T)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        blocks = seg if blocks is None else seg @ blocks
        angle_g = angle_g + (params.delta_g + u_val) * duration
        angle_m = angle_m - (delta_m - u_val) * duration
    return blocks, np.exp(1j * angle_g), np.exp(1j * angle_m)


def same_bits(a, b):
    """Equal shapes and bit patterns, so the sign of a zero counts too."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def test_shared_outer_segment_is_bit_identical_to_diagonalizing_all_three():
    # seeded physics, single builds and stacks, theta2 = 0 among them: the
    # blocks and both singleton phases of the build that reuses the first
    # segment for the third equal the loop that diagonalizes every segment
    rng = np.random.default_rng(4041)
    for draw in range(60):
        nbar = int(rng.integers(1, 9))
        d = int(rng.integers(nbar + 2, 9 * (nbar + 1) + 10))
        theta1 = trapping_theta1(nbar) * (1.0 + rng.uniform(-0.03, 0.03))
        single = draw % 4 == 0
        theta2 = 0.0 if single else rng.uniform(0.05, 3.0) / math.sqrt(nbar)
        phis = None
        if draw % 2 == 1:
            phis = list(rng.uniform(0.0, 2 * math.pi, int(rng.integers(1, 17))))
        p = make_params(nbar, theta2, theta1=theta1, phi=0.0 if single else rng.uniform(0.0, 2 * math.pi))
        points = None if phis is None else [replace(p, phi=phi) for phi in phis]
        lad = composite_propagator(p, d, points)
        ref = every_segment_composite(p, d, points)
        assert same_bits(lad.blocks, ref[0]), draw
        assert same_bits(lad.phase_g0, ref[1]), draw
        assert same_bits(lad.phase_m_top, ref[2]), draw
    p = make_params(2, 0.0)
    lad, ref = composite_propagator(p, 18, [p, p]), every_segment_composite(p, 18, [p, p])
    assert all(same_bits(a, b) for a, b in zip((lad.blocks, lad.phase_g0, lad.phase_m_top), ref))


@pytest.mark.parametrize("theta2, calls", [(0.8, 2), (0.0, 1)])
@pytest.mark.parametrize("stack", [None, [(0.1, 1.0), (2.0, 0.98), (4.5, 1.02)]], ids=["single", "stacked"])
def test_one_eigendecomposition_per_distinct_segment(theta2, calls, stack, monkeypatch):
    # a stack of (phase, theta1 factor) points still shares one outer segment
    seen = []
    eigh = np.linalg.eigh

    def counted(h):
        seen.append(h.shape)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    p = make_params(3, theta2)
    points = None if stack is None else [
        replace(p, phi=0.0 if theta2 == 0.0 else phi, theta1=p.theta1 * factor) for phi, factor in stack]
    composite_propagator(p, 36, points)
    assert len(seen) == calls
