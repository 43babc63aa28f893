"""The populations-only iteration kernels must reproduce, bit for bit, the
diagonal of the full-matrix cycle built from the one-step kernels, and the
one-step kernels must agree with the dense operator route to rounding."""

import math

import numpy as np
import pytest

from fockstab import experiments, kernels
from fockstab.config import ExperimentConfig
from fockstab.dynamics import make_params, trapping_theta1
from fockstab.errors import AmbiguousSteadyStateError
from fockstab.fock import fock_density, random_density
from fockstab.kraus import KrausSet, analytic_kraus, bands
from fockstab.oracle import (
    channel_step,
    dense_channel,
    dense_thermal,
    reservoir_step,
    steady_state,
    thermal_step,
)
from fockstab.thermal import ThermalParams, cavity_thermal, reduced_from_channel, stationary


@pytest.fixture(scope="module")
def channel():
    k = analytic_kraus(make_params(2, theta2=1.3, phi=0.5), 27)
    return k, bands(k)


def random_bands(dim, rng):
    """Arbitrary complex one-band vectors, scaled so the map is non-expansive
    and absolute tolerances stay meaningful."""
    g, e, m = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(3))
    g[-1] = 0.0
    m[0] = 0.0
    for band in (g, e, m):
        band /= 2.0 * np.abs(band).max()
    return g, e, m


def full_matrix_cycle(g, e, m, rho, gm, gp, p_at):
    """One cycle on the whole density matrix, composed from the one-step kernels."""
    mixed = channel_step(g, e, m, rho)
    if p_at != 1.0:
        mixed = (1.0 - p_at) * rho + p_at * mixed
    if gm != 0.0 or gp != 0.0:
        mixed = thermal_step(mixed, gm, gp)
    return mixed


def full_matrix_evolve(g, e, m, rho0, gm, gp, p_at, n_steps):
    rho = rho0.astype(np.complex128, copy=True)
    diag = [np.diag(rho).real]
    for _ in range(n_steps):
        rho = full_matrix_cycle(g, e, m, rho, gm, gp, p_at)
        diag.append(np.diag(rho).real)
    diag = np.array(diag)
    return rho, diag, np.array([row.sum() for row in diag])


def full_matrix_fixed_point(g, e, m, rho0, gm, gp, p_at, tol, max_steps):
    """Renormalized full-matrix iteration; convergence is judged on the
    populations, as in `kernels.evolve_to_fixed_point`. From a state without
    coherences they stay exactly zero, so this is also the full-matrix change."""
    rho = rho0.astype(np.complex128, copy=True)
    rho /= np.trace(rho).real
    delta = math.inf
    for k in range(1, max_steps + 1):
        nxt = full_matrix_cycle(g, e, m, rho, gm, gp, p_at)
        nxt /= np.trace(nxt).real
        delta = float(np.abs(np.diag(nxt - rho)).max())
        rho = nxt
        if delta < tol:
            return rho, k, delta
    return rho, max_steps, delta


def test_backend_reported():
    assert kernels.active_backend() == "numpy"


def test_channel_step_against_dense(channel):
    k, (g, e, m) = channel
    rng = np.random.default_rng(0)
    for _ in range(5):
        rho = random_density(27, rng)
        ref = dense_channel(k, rho)
        assert np.abs(channel_step(g, e, m, rho) - ref).max() < 1e-13


def test_thermal_step_against_dense():
    tp = cavity_thermal()
    rng = np.random.default_rng(1)
    rho = random_density(20, rng)
    ref = dense_thermal(rho, tp.gamma_minus, tp.gamma_plus)
    assert np.abs(thermal_step(rho, tp.gamma_minus, tp.gamma_plus) - ref).max() < 1e-14


def test_evolve_matches_full_matrix_cycle(channel):
    k, (g, e, m) = channel
    rng = np.random.default_rng(2)
    rho0 = random_density(27, rng)
    tp = cavity_thermal()
    out_a, diag_a, tr_a = kernels.evolve(g, e, m, rho0, tp.gamma_minus, tp.gamma_plus, 0.3, 50)
    out_b, diag_b, tr_b = full_matrix_evolve(g, e, m, rho0, tp.gamma_minus, tp.gamma_plus, 0.3, 50)
    assert np.array_equal(diag_a, diag_b)
    assert np.array_equal(tr_a, tr_b)
    # the returned state carries the populations only
    assert np.array_equal(out_a, np.diag(np.diag(out_b)))
    assert diag_a.shape == (51, 27)
    assert tr_a[0] == pytest.approx(1.0, abs=1e-12)


def test_evolve_matches_stepwise_dense(channel):
    k, (g, e, m) = channel
    rng = np.random.default_rng(3)
    rho = random_density(27, rng)
    tp = ThermalParams(kappa=10.0, n_th=0.05, Ts=60e-6, p_at=0.4)
    _, diag, trace = kernels.evolve(g, e, m, rho, tp.gamma_minus, tp.gamma_plus, 0.4, 7)
    ref = rho.copy()
    for _ in range(7):
        ref = dense_thermal(0.6 * ref + 0.4 * dense_channel(k, ref), tp.gamma_minus, tp.gamma_plus)
    assert np.abs(np.diag(ref).real - diag[-1]).max() < 1e-13
    assert trace[-1] == pytest.approx(np.trace(ref).real, abs=1e-13)


def test_fixed_point_matches_full_matrix_cycle(channel):
    _, (g, e, m) = channel
    tp = cavity_thermal()
    rho0 = fock_density(2, 27)
    out_a, steps_a, delta_a = kernels.evolve_to_fixed_point(
        g, e, m, rho0, tp.gamma_minus, tp.gamma_plus, 0.3, tol=1e-10, max_steps=50_000
    )
    out_b, steps_b, delta_b = full_matrix_fixed_point(
        g, e, m, rho0, tp.gamma_minus, tp.gamma_plus, 0.3, 1e-10, 50_000
    )
    assert delta_a < 1e-10
    assert (steps_a, delta_a) == (steps_b, delta_b)
    assert np.array_equal(out_a, out_b)
    assert np.trace(out_a).real == pytest.approx(1.0, abs=1e-12)


def test_fixed_point_is_stationary(channel):
    k, (g, e, m) = channel
    tp = cavity_thermal()
    out, _, _ = kernels.evolve_to_fixed_point(
        g, e, m, fock_density(2, 27), tp.gamma_minus, tp.gamma_plus, 0.3
    )
    step = dense_thermal(0.7 * out + 0.3 * dense_channel(k, out), tp.gamma_minus, tp.gamma_plus)
    step /= np.trace(step).real
    assert np.abs(step - out).max() < 1e-9


def test_pure_channel_iteration_reaches_target(channel):
    _, (g, e, m) = channel
    _, diag, trace = kernels.evolve(g, e, m, fock_density(0, 27), 0.0, 0.0, 1.0, 3000)
    assert diag[-1, 2] > 1 - 1e-9
    assert np.abs(trace - 1.0).max() < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kernels_agree_on_arbitrary_band_vectors(seed):
    # the kernels implement a generic one-band linear map; completeness of the
    # bands is not assumed anywhere in them
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(4, 30))
    g, e, m = random_bands(dim, rng)
    rho = random_density(dim, rng)
    gm, gp, pat = 1e-3, 1e-4, float(rng.uniform(0.1, 1.0))
    out_j, diag_j, tr_j = kernels.evolve(g, e, m, rho, gm, gp, pat, 20)
    _, diag_n, tr_n = full_matrix_evolve(g, e, m, rho, gm, gp, pat, 20)
    assert np.array_equal(diag_j, diag_n)
    assert np.array_equal(tr_j, tr_n)
    # dense oracle for the same map
    k = KrausSet(g, e, m, 0.0)
    ref = rho.copy()
    for _ in range(20):
        ref = dense_thermal((1 - pat) * ref + pat * dense_channel(k, ref), gm, gp)
    # the coherences of rho do not feed the populations
    assert np.abs(out_j - np.diag(np.diag(ref))).max() < 1e-11
    assert np.abs(diag_j[-1] - np.diag(ref).real).max() < 1e-11
    assert abs(tr_j[-1] - np.trace(ref).real) < 1e-11


def test_population_engine_is_bit_identical_to_full_matrix_cycle():
    # random complex bands, coherent and Fock starts, and the three kinds of
    # cycle: bare channel, the cavity environment at p_at = 0.3, random rates
    rng = np.random.default_rng(11)
    cavity = cavity_thermal()
    for draw in range(60):
        dim = int(rng.integers(4, 61))
        g, e, m = random_bands(dim, rng)
        if rng.random() < 0.5:
            rho = random_density(dim, rng)
        else:
            rho = fock_density(int(rng.integers(dim)), dim)
        gm, gp, pat = [
            (0.0, 0.0, 1.0),
            (cavity.gamma_minus, cavity.gamma_plus, 0.3),
            (rng.uniform(0.0, 1e-3), rng.uniform(0.0, 1e-4), rng.uniform(0.05, 1.0)),
        ][draw % 3]
        n_steps = int(rng.integers(1, 200))
        _, diag, trace = kernels.evolve(g, e, m, rho, gm, gp, pat, n_steps)
        _, diag_ref, trace_ref = full_matrix_evolve(g, e, m, rho, gm, gp, pat, n_steps)
        assert np.array_equal(diag, diag_ref), draw
        assert np.array_equal(trace, trace_ref), draw
        out, steps, delta = kernels.evolve_to_fixed_point(g, e, m, rho, gm, gp, pat, tol=1e-10, max_steps=2000)
        out_ref, steps_ref, delta_ref = full_matrix_fixed_point(g, e, m, rho, gm, gp, pat, 1e-10, 2000)
        assert (steps, delta) == (steps_ref, delta_ref), draw
        assert np.array_equal(np.diag(out), np.diag(out_ref)), draw


def full_matrix_sampled(g, e, m, rho0, gm, gp, p_at, n_steps, seed):
    """Sampled atom presence on the whole density matrix: the channel when an
    atom is drawn, then the environment step in every cycle."""
    rng = np.random.default_rng(seed)
    rho = rho0.astype(np.complex128, copy=True)
    diag, trace = [np.diag(rho).real], [np.trace(rho).real]
    for _ in range(n_steps):
        if rng.random() < p_at:
            rho = channel_step(g, e, m, rho)
        rho = thermal_step(rho, gm, gp)
        diag.append(np.diag(rho).real)
        trace.append(np.trace(rho).real)
    return np.array(diag), np.array(trace)


def test_sampled_evolution_is_bit_identical_to_full_matrix_route(channel):
    # the physical channel and random bands; no environment, the cavity and
    # random rates; coherent and Fock starts
    _, physical = channel
    rng = np.random.default_rng(12)
    cavity = cavity_thermal()
    for draw in range(12):
        dim = 27 if draw % 2 == 0 else int(rng.integers(4, 61))
        g, e, m = physical if draw % 2 == 0 else random_bands(dim, rng)
        rho = random_density(dim, rng) if rng.random() < 0.5 else fock_density(int(rng.integers(dim)), dim)
        kappa, n_th, p_at = [
            (0.0, 0.0, float(rng.uniform(0.05, 1.0))),
            (cavity.kappa, cavity.n_th, 0.3),
            (float(rng.uniform(0.0, 10.0)), float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.05, 1.0))),
        ][draw % 3]
        tp = ThermalParams(kappa=kappa, n_th=n_th, Ts=60e-6, p_at=p_at)
        n_steps, seed = int(rng.integers(1, 400)), int(rng.integers(2**31))
        diag, trace = experiments._sampled_evolution(g, e, m, rho, tp, n_steps, seed)
        diag_ref, trace_ref = full_matrix_sampled(
            g, e, m, rho, tp.gamma_minus, tp.gamma_plus, p_at, n_steps, seed
        )
        assert diag.tobytes() == diag_ref.tobytes(), draw
        assert trace.tobytes() == trace_ref.tobytes(), draw


def test_fixed_point_matches_reduced_steady_state_over_random_physics():
    # the cavity of the paper (kappa = 10/s, n_th = 0.05) widened on every
    # axis, theta2 around the optimum 3pi/(4 sqrt(nbar)), any phase. Every
    # draw is answered by the Perron solve of the engine's step matrix, and
    # one engine cycle of the answer, renormalized, leaves it in place. It is
    # pinned to the reduced chain wherever `steady_state` answers, and to
    # renormalized iteration at tol 1e-12 wherever that converges: the
    # stopping rule bounds the iteration's error only by about tol / gap, and
    # broken trapping (theta1 error) leaves gaps down to 2e-7 per cycle
    rng = np.random.default_rng(12)
    refused = converged = 0
    for draw in range(20):
        nbar = int(rng.integers(1, 7))
        dim = 9 * (nbar + 1)
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
        k = analytic_kraus(params, dim)
        g, e, m = bands(k)
        cavity = (tp.gamma_minus, tp.gamma_plus, tp.p_at)
        r, gap = stationary(kernels.step_matrix(g, e, m, *cavity))
        assert gap > 0.0 and r.min() > -1e-10, draw
        _, diag, trace = kernels.evolve(g, e, m, np.diag(r), *cavity, 1)
        assert np.abs(diag[1] / trace[1] - r).max() <= 1e-13, draw
        try:
            ref = steady_state(reduced_from_channel(k, tp), tp.p_at)
        except AmbiguousSteadyStateError:
            refused += 1
        else:
            assert np.abs(r - ref).max() < 1e-6, draw
        out, _, delta = kernels.evolve_to_fixed_point(g, e, m, fock_density(nbar, dim), *cavity, tol=1e-12)
        if delta < 1e-12:
            converged += 1
            assert np.abs(np.diag(out).real - r).max() <= 2e-12 / gap, draw
    # the draws steady_state refuses are answered too; one of them (nbar 6,
    # gap 2.4e-7) also exhausts the iteration's step cap
    assert (refused, converged) == (4, 19)


def test_step_matrix_is_the_cycle_applied_to_unit_vectors(channel):
    # physical and random bands, dims 3-6 (no more levels than one comb
    # spacing) among them; bare channel, the cavity at p_at = 0.3 and random
    # rates: column n is exactly the engine's cycle of level n, zeros with
    # their sign, and M has the strided layout of the identity-batched cycle
    # that `record_rows` and `matrix_power` round by
    _, physical = channel
    rng = np.random.default_rng(13)
    cavity = cavity_thermal()
    for draw in range(24):
        if draw % 2 == 0:
            dim, (g, e, m) = 27, physical
        else:
            dim = draw // 2 + 3 if draw < 8 else int(rng.integers(4, 61))
            g, e, m = random_bands(dim, rng)
        rates = [
            (0.0, 0.0, 1.0),
            (cavity.gamma_minus, cavity.gamma_plus, 0.3),
            (rng.uniform(0.0, 1e-3), rng.uniform(0.0, 1e-4), rng.uniform(0.05, 1.0)),
        ][draw % 3]
        cycle = kernels._population_cycle(g, e, m, *rates)
        ref = np.column_stack([cycle(unit).real for unit in np.eye(dim, dtype=np.complex128)])
        batched = cycle(np.eye(dim, dtype=np.complex128)).real.T
        got = kernels.step_matrix(g, e, m, *rates)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64)), draw
        assert got.strides == batched.strides and got.base.dtype == np.complex128, draw


def test_step_matrix_cycles_one_batch_of_five_combs(channel, monkeypatch):
    # the cycle runs once per matrix, on a (5, dim) batch and never on the
    # (dim, dim) identity
    shapes = []
    build = kernels._population_cycle

    def spied(*args):
        cycle = build(*args)

        def counted(d):
            shapes.append(d.shape)
            return cycle(d)

        return counted

    monkeypatch.setattr(kernels, "_population_cycle", spied)
    _, (g, e, m) = channel
    cavity = cavity_thermal()
    kernels.step_matrix(g, e, m, cavity.gamma_minus, cavity.gamma_plus, 0.3)
    kernels.step_matrix(*random_bands(3, np.random.default_rng(2)), 0.0, 0.0, 1.0)
    assert shapes == [(5, len(e)), (5, 3)]


@pytest.fixture(scope="module")
def cavity_stacks():
    """Seeded numeric channels at the cavity (kappa 10, n_th 0.05, p_at 0.3),
    three per level nbar 1-8: theta2 within 2 % of 3pi/(4 sqrt(nbar)) and
    random phases. One (rates, stacked bands) pair per level."""
    rng = np.random.default_rng(43)
    stacks = []
    for nbar in range(1, 9):
        theta2 = 0.75 * math.pi / math.sqrt(nbar) * float(rng.uniform(0.98, 1.02))
        cfg = ExperimentConfig(scenario="tune-phase", nbar=nbar, theta2=theta2, kappa=10.0, nth=0.05,
                               pat=0.3).resolved()
        phis = rng.uniform(0.0, 2.0 * math.pi, 3).tolist()
        channels = experiments.build_channel(cfg, experiments.reservoir_params(cfg), phis=phis)
        tp = experiments.thermal_params(cfg)
        stacks.append(((tp.gamma_minus, tp.gamma_plus, tp.p_at), [np.stack(b) for b in zip(*map(bands, channels))]))
    return stacks


def test_a_step_matrix_stack_holds_the_single_calls_in_values_and_strides(cavity_stacks):
    # 24 channels; the layout is pinned as well because it sets the
    # rounding of `matrix_power` and `record_rows`
    for rates, (g, e, m) in cavity_stacks:
        stack = kernels.step_matrix(g, e, m, *rates)
        dim = e.shape[-1]
        assert stack.shape == (3, dim, dim)
        for item, row in zip(stack, zip(g, e, m)):
            single = kernels.step_matrix(*row, *rates)
            assert np.array_equal(item.view(np.int64), single.view(np.int64))
            assert item.strides == single.strides


def test_a_stationary_stack_equals_the_per_matrix_solves(cavity_stacks):
    for rates, (g, e, m) in cavity_stacks:
        for stack in (kernels.step_matrix(g, e, m, *rates), kernels.step_matrix(g[1:], e[1:], m[1:], *rates)):
            populations, gaps = stationary(stack)
            assert populations.shape == stack.shape[:2] and gaps.shape == stack.shape[:1]
            for item, r, gap in zip(stack, populations, gaps):
                r1, gap1 = stationary(item)
                assert np.array_equal(r, r1) and gap == gap1 and type(gap1) is float


@pytest.mark.parametrize("scheme", ["symmetric", "walther"])
@pytest.mark.parametrize("environment", [False, True])
def test_record_rows_match_the_evolve_loop_over_random_physics(scheme, environment):
    # the power stack against the loop it replaces, at every chunk edge of
    # the stack: seeded nbar 1-8, theta2, phi, theta1 error and p_at on the
    # numeric channel, complete to rounding as the dense replay needs; the
    # first rows, normalized, against that replay. The Walther pulse has no
    # middle segment, so its theta2 and phi are drawn and left unset
    rng = np.random.default_rng(14 + 2 * (scheme == "walther") + environment)
    chunk = kernels.RECORD_CHUNK
    for n_steps in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 3):
        nbar = int(rng.integers(1, 9))
        middle = {"theta2": float(rng.uniform(0.05, 3.0)) / math.sqrt(nbar),
                  "phi": float(rng.uniform(0.0, 2.0 * math.pi))}
        cfg = ExperimentConfig(
            scenario="trajectory",
            nbar=nbar,
            **(middle if scheme == "symmetric" else {}),
            theta1_err=float(rng.uniform(-0.03, 0.03)),
            pat=float(rng.uniform(0.05, 1.0)),
            kappa=float(rng.uniform(5.0, 20.0)) if environment else 0.0,
            nth=float(rng.uniform(0.0, 0.1)) if environment else 0.0,
            scheme=scheme,
            steps=max(n_steps, 1),
        ).resolved()
        k = experiments.build_channel(cfg, experiments.reservoir_params(cfg, phi=experiments.resolve_phi(cfg)[0]))
        g, e, m = bands(k)
        tp = experiments.thermal_params(cfg)
        cavity = (tp.gamma_minus, tp.gamma_plus, tp.p_at)
        rho = random_density(cfg.dim, rng)
        rows = kernels.record_rows(kernels.step_matrix(g, e, m, *cavity), np.diag(rho).real, n_steps)
        _, diag, trace = kernels.evolve(g, e, m, rho, *cavity, n_steps)
        assert rows.shape == diag.shape == (n_steps + 1, cfg.dim), n_steps
        assert np.abs(rows - diag).max() <= 1e-11, n_steps
        assert np.abs(rows.sum(axis=1) - trace).max() <= 1e-11, n_steps
        worst = 0.0
        for row in rows[:50]:
            worst = max(worst, float(np.abs(row / row.sum() - np.diag(rho).real).max()))
            rho = reservoir_step(rho, k, tp)
        assert worst <= 1e-12, n_steps


def random_step_matrix(scheme, environment, rng):
    """The step matrix of a seeded numeric channel at dim 4-81, and its config;
    the theta2 and phi drawn for a Walther pulse are left unset."""
    nbar = int(rng.integers(1, 9))
    middle = {"theta2": float(rng.uniform(0.05, 3.0)) / math.sqrt(nbar),
              "phi": float(rng.uniform(0.0, 2.0 * math.pi))}
    cfg = ExperimentConfig(
        scenario="trajectory",
        nbar=nbar,
        **(middle if scheme == "symmetric" else {}),
        theta1_err=float(rng.uniform(-0.03, 0.03)),
        pat=float(rng.uniform(0.05, 1.0)),
        kappa=float(rng.uniform(5.0, 20.0)) if environment else 0.0,
        nth=float(rng.uniform(0.0, 0.1)) if environment else 0.0,
        scheme=scheme,
        dim=int(rng.integers(max(4, nbar + 2), 82)),
    ).resolved()
    params = experiments.reservoir_params(cfg, phi=experiments.resolve_phi(cfg)[0])
    g, e, m = bands(experiments.build_channel(cfg, params))
    tp = experiments.thermal_params(cfg)
    return kernels.step_matrix(g, e, m, tp.gamma_minus, tp.gamma_plus, tp.p_at), (g, e, m, tp), cfg


@pytest.mark.parametrize("scheme", ["symmetric", "walther"])
@pytest.mark.parametrize("environment", [False, True])
def test_power_rows_match_record_rows_and_the_evolve_loop_over_random_physics(scheme, environment):
    # the answer-only rows `matrix_power(M, k) @ d0` of the strided M, over
    # seeded physics at dim 4-81, from random populations, at sorted ks with
    # a repeat: each row against the same row of the power stack and of the
    # atom-by-atom loop, within the loop's own bound for `record_rows`
    rng = np.random.default_rng(40 + 2 * (scheme == "walther") + environment)
    for _ in range(4):
        step, (g, e, m, tp), cfg = random_step_matrix(scheme, environment, rng)
        ks = sorted([0, 1, 2, 3, *rng.integers(4, 700, size=4).tolist()])
        ks.insert(5, ks[5])
        rho = random_density(cfg.dim, rng)
        d0 = np.diag(rho).real
        got = np.array([np.linalg.matrix_power(step, k) @ d0 for k in ks])
        _, diag, _ = kernels.evolve(g, e, m, rho, tp.gamma_minus, tp.gamma_plus, tp.p_at, ks[-1])
        assert got.shape == (len(ks), cfg.dim)
        assert np.array_equal(got[0], d0)
        assert np.abs(got - kernels.record_rows(step, d0, ks[-1])[ks]).max() <= 1e-11
        assert np.abs(got - diag[ks]).max() <= 1e-11
