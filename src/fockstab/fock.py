"""Truncated Fock-space primitives.

Operators are plain complex numpy arrays over the number basis |0>, ..., |dim-1>.
Density matrices are Hermitian, positive-semidefinite, unit-trace arrays of the
same shape; `check_density` enforces those invariants and `sanitize` repairs the
small drift that accumulates under repeated floating-point channel application.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateStateError

HERM_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
# a trace below this signals truncation leakage, not drift
TRACE_FLOOR = 1e-6


def annihilation(dim: int) -> np.ndarray:
    """Photon annihilation operator a, with a|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ConfigError(f"operator dimension must be >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=np.complex128)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def creation(dim: int) -> np.ndarray:
    """Photon creation operator, the adjoint of `annihilation`."""
    return annihilation(dim).conj().T


def number_op(dim: int) -> np.ndarray:
    """Photon number operator diag(0, 1, ..., dim-1)."""
    return number_function(lambda n: n, dim)


def number_function(f: Callable[[int], complex], dim: int) -> np.ndarray:
    """Diagonal operator f(N) = diag(f(0), ..., f(dim-1)).

    f must be finite on 0..dim-1; functions with a removable singularity
    (e.g. sin(theta*sqrt(n)/2)/sqrt(n) at n = 0) must be supplied with the
    limit value baked in by the caller.
    """
    if dim < 2:
        raise ConfigError(f"operator dimension must be >= 2, got {dim}")
    vals = np.empty(dim, dtype=np.complex128)
    for n in range(dim):
        v = complex(f(n))
        if not (np.isfinite(v.real) and np.isfinite(v.imag)):
            raise ValueError(f"diagonal function is not finite at n={n}: {v!r}")
        vals[n] = v
    return np.diag(vals)


def fock_density(n: int, dim: int) -> np.ndarray:
    """Pure number-state density matrix |n><n|."""
    if not 0 <= n < dim:
        raise ConfigError(f"Fock index {n} out of range for dim {dim}")
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[n, n] = 1.0
    return rho


def uniform_density(lo: int, hi: int, dim: int) -> np.ndarray:
    """Maximally mixed state over number levels lo..hi (inclusive)."""
    _check_window(lo, hi, dim)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[lo : hi + 1, lo : hi + 1] = np.eye(hi + 1 - lo) / (hi + 1 - lo)
    return rho


def diagonal_density(populations: np.ndarray, dim: int) -> np.ndarray:
    """Diagonal density matrix from a population vector (renormalized)."""
    p = np.asarray(populations, dtype=np.float64)
    if p.ndim != 1 or len(p) > dim:
        raise ConfigError(f"population vector of length {len(p)} does not fit dim {dim}")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ConfigError("populations must be finite and nonnegative")
    s = p.sum()
    if s <= 0:
        raise ConfigError("populations must not all vanish")
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[: len(p), : len(p)] = np.diag(p / s)
    return rho


def random_density(dim: int, rng: np.random.Generator, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Random mixed state supported on levels lo..hi, embedded in dim levels."""
    if hi is None:
        hi = dim - 1
    _check_window(lo, hi, dim)
    w = hi + 1 - lo
    g = rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))
    block = g @ g.conj().T
    block /= np.trace(block).real
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[lo : hi + 1, lo : hi + 1] = block
    return rho


def check_density(rho: np.ndarray) -> None:
    """Raise if rho violates the density-matrix invariants.

    Hermitian within HERM_TOL (entrywise), trace within TRACE_TOL of 1,
    smallest eigenvalue >= -PSD_TOL. Eigenvalues in [-PSD_TOL, 0) are
    tolerated rather than clipped so that genuine bugs stay visible.
    """
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ConfigError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > HERM_TOL:
        raise ValueError(f"density matrix not Hermitian: defect {herm:.3e} > {HERM_TOL:.1e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr:.12g} differs from 1 beyond {TRACE_TOL:.1e}")
    lam = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if lam.min() < -PSD_TOL:
        raise ValueError(f"density matrix not PSD: min eigenvalue {lam.min():.3e}")


def fidelity(rho: np.ndarray, n: int) -> float:
    """Population <n|rho|n> on number level n."""
    if not 0 <= n < rho.shape[0]:
        raise IndexError(f"level {n} out of range for dim {rho.shape[0]}")
    v = rho[n, n]
    if abs(v.imag) >= 1e-10:
        raise ValueError(f"diagonal entry ({n},{n}) has imaginary part {v.imag:.3e}")
    return float(v.real)


class SanitizeResult(NamedTuple):
    rho: np.ndarray
    herm_correction: float
    trace_correction: float


def sanitize(rho: np.ndarray) -> SanitizeResult:
    """Hermitize and renormalize a slightly drifted density matrix.

    Returns the repaired matrix together with the magnitude of the removed
    anti-Hermitian part and of the trace rescaling. A trace below TRACE_FLOOR
    signals truncation leakage and raises instead of rescaling garbage.
    """
    herm = 0.5 * (rho + rho.conj().T)
    herm_corr = float(np.abs(rho - herm).max())
    tr = np.trace(herm).real
    if tr < TRACE_FLOOR:
        raise DegenerateStateError(f"state trace {tr:.3e} below floor {TRACE_FLOOR:.1e}")
    return SanitizeResult(herm / tr, herm_corr, abs(tr - 1.0))


def support_in(rho: np.ndarray, lo: int, hi: int, tol: float) -> bool:
    """True iff all population and coherence of rho lies in levels lo..hi.

    Checks that the total diagonal weight outside the window is below tol and
    that every row/column with an outside index has off-diagonal entries below
    tol in magnitude.
    """
    dim = rho.shape[0]
    _check_window(lo, hi, dim)
    outside = np.ones(dim, dtype=bool)
    outside[lo : hi + 1] = False
    if not outside.any():
        return True
    pop_out = float(np.abs(np.diag(rho)[outside]).sum())
    if pop_out >= tol:
        return False
    off = rho - np.diag(np.diag(rho))
    rows = float(np.abs(off[outside, :]).max()) if outside.any() else 0.0
    cols = float(np.abs(off[:, outside]).max())
    return max(rows, cols) < tol


def _check_window(lo: int, hi: int, dim: int) -> None:
    if lo < 0 or hi < lo or hi >= dim:
        raise ConfigError(f"window [{lo}, {hi}] invalid for dim {dim}")
