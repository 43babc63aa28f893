import math

import numpy as np
import pytest

from fockstab.errors import ConfigError, DegenerateStateError
from fockstab.fock import diagonal_density, fock_density, random_density, uniform_density
from fockstab.oracle import annihilation, creation, number_function, number_op, sanitize, support_in


def test_annihilation_entries_dim2():
    a = annihilation(2)
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 1] = 1.0
    assert np.array_equal(a, expected)


def test_annihilation_entries_dim4():
    a = annihilation(4)
    assert a[0, 1] == 1.0
    assert a[1, 2] == pytest.approx(math.sqrt(2), abs=0)
    assert a[2, 3] == pytest.approx(math.sqrt(3), abs=0)
    assert np.count_nonzero(a) == 3


def test_number_identity():
    # exact up to the one rounding of sqrt(n)^2
    for dim in (2, 5, 17):
        a = annihilation(dim)
        assert np.abs(a.conj().T @ a - number_op(dim)).max() < 1e-13


def test_commutator_is_identity_below_truncation():
    dim = 9
    a = annihilation(dim)
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.abs(comm[: dim - 1, : dim - 1] - np.eye(dim - 1)).max() < 1e-13
    # the truncation artifact lives in the last diagonal entry only
    assert comm[dim - 1, dim - 1] == pytest.approx(-(dim - 1), abs=1e-12)


def test_annihilation_rejects_small_dim():
    with pytest.raises(ConfigError):
        annihilation(1)


def test_number_function_identity_and_n():
    assert np.array_equal(number_function(lambda n: 1.0, 6), np.eye(6))
    assert np.array_equal(number_function(lambda n: n, 6), number_op(6))


def test_number_function_supplied_limit():
    theta2 = 1.0

    def f(n):
        if n == 0:
            return 0.5  # limit of sin(theta2*sqrt(n)/2)/sqrt(n)
        return math.sin(theta2 * math.sqrt(n) / 2) / math.sqrt(n)

    op = number_function(f, 5)
    assert op[0, 0] == 0.5
    assert op[1, 1] == pytest.approx(math.sin(0.5))


def test_number_function_rejects_nonfinite():
    with pytest.raises(ValueError, match="n=3"):
        number_function(lambda n: math.inf if n == 3 else 0.0, 6)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shift_identity_random_function(seed):
    # a f(N) = f(N+I) a, entrywise exact
    rng = np.random.default_rng(seed)
    dim = 20
    vals = rng.standard_normal(dim + 1) + 1j * rng.standard_normal(dim + 1)
    a = annihilation(dim)
    f_n = number_function(lambda n: vals[n], dim)
    f_shift = number_function(lambda n: vals[n + 1], dim)
    assert np.array_equal(a @ f_n, f_shift @ a)
    # adjoint version: f(N) adag = adag f(N+I)
    assert np.array_equal(f_n @ creation(dim), creation(dim) @ f_shift)


def test_sanitize_exact_state_unchanged():
    rho = uniform_density(0, 5, 6)
    assert np.abs(sanitize(rho) - rho).max() < 1e-15


def test_sanitize_rescales_trace():
    rho = fock_density(1, 4) * 0.999
    out = sanitize(rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-15)
    assert np.abs(out - fock_density(1, 4)).max() < 1e-12


def test_sanitize_removes_antihermitian_part():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    anti = 0.5 * (g - g.conj().T)
    rho = uniform_density(0, 5, 6) + 1e-8 * anti
    out = sanitize(rho)
    assert np.abs(out - out.conj().T).max() < 1e-15


def test_sanitize_idempotent():
    rng = np.random.default_rng(11)
    rho = random_density(7, rng) + 1e-8 * (rng.standard_normal((7, 7)) * 1j)
    once = sanitize(rho)
    twice = sanitize(once)
    assert np.abs(twice - once).max() < 1e-14


def test_sanitize_degenerate_trace():
    with pytest.raises(DegenerateStateError):
        sanitize(np.zeros((4, 4), dtype=complex))


def test_support_in_window():
    nbar = 2
    top = 4 * nbar + 3
    dim = 9 * (nbar + 1)
    assert support_in(fock_density(nbar, dim), 0, top, 1e-12)
    assert not support_in(fock_density(top + 1, dim), 0, top, 1e-12)
    assert support_in(uniform_density(0, top, dim), 0, top, 1e-12)


def test_support_in_catches_outside_coherence():
    dim = 10
    rho = fock_density(1, dim).astype(complex)
    rho[1, 7] = 1e-6
    rho[7, 1] = 1e-6
    assert not support_in(rho, 0, 5, 1e-8)


def test_diagonal_density_normalizes():
    rho = diagonal_density(np.array([1.0, 3.0]), 5)
    assert rho[0, 0] == pytest.approx(0.25)
    assert rho[1, 1] == pytest.approx(0.75)
