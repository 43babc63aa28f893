"""Truncated Fock-space states.

Density matrices are Hermitian, positive-semidefinite, unit-trace complex
numpy arrays over the number basis |0>, ..., |dim-1>. The dense field
operators and the repair of drifted states belong to the reference route
(`oracle`).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


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


# drawn only by tests and `validate`; it stays with the other state builders
# because the acceptance suite imports it from this module
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


def _check_window(lo: int, hi: int, dim: int) -> None:
    if lo < 0 or hi < lo or hi >= dim:
        raise ConfigError(f"window [{lo}, {hi}] invalid for dim {dim}")
