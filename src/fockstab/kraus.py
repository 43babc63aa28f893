"""Kraus channels induced on the field by one atom-field interaction.

A channel is the triple (M_g, M_e, M_m) acting on the field alone: applying
the joint propagator to |u_at> (x) |psi> and reading off the atomic components
gives U |psi>|u_at> = M_g|psi>|g> + M_e|psi>|e> + M_m|psi>|m>. The analytic
channel for the three-segment cycle and the resonant two-level baseline are
both one-band operators: M_g raises by one level, M_e is diagonal, M_m lowers
by one level. `bands` exposes that structure for the fast iteration kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import G, M, LadderPropagator, ReservoirParams, ladder_members
from .errors import ConfigError
from .fock import annihilation, creation, number_function, sanitize

ATOM_G = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
ATOM_E = np.array([0.0, 1.0, 0.0], dtype=np.complex128)
ATOM_M = np.array([0.0, 0.0, 1.0], dtype=np.complex128)

COMPLETENESS_APPLY_TOL = 1e-6


@dataclass(frozen=True)
class KrausSet:
    """Channel operators with their completeness defect ||sum M^dag M - I||max.

    The defect is recorded at construction rather than asserted, so that
    deliberately truncated or perturbed channels can still be built and
    studied; `apply_map` refuses defects above COMPLETENESS_APPLY_TOL.
    """

    m_g: np.ndarray
    m_e: np.ndarray
    m_m: np.ndarray
    completeness_defect: float

    @property
    def dim(self) -> int:
        return self.m_e.shape[0]

    @staticmethod
    def from_operators(m_g: np.ndarray, m_e: np.ndarray, m_m: np.ndarray) -> "KrausSet":
        if not (m_g.shape == m_e.shape == m_m.shape) or m_g.shape[0] != m_g.shape[1]:
            raise ConfigError("Kraus operators must be square matrices of one shared dim")
        total = m_g.conj().T @ m_g + m_e.conj().T @ m_e + m_m.conj().T @ m_m
        defect = float(np.abs(total - np.eye(m_g.shape[0])).max())
        return KrausSet(m_g, m_e, m_m, defect)


def ladder_defects(u: LadderPropagator, atom: np.ndarray = ATOM_E) -> tuple[float, float]:
    """Unitarity and completeness defects of a joint propagator, read off its ladder blocks.

    Returns (max|U^dag U - I|, max|sum_x M_x^dag M_x - I|) for the channel
    `extract_kraus` reads with this atom state, without a dense product:
    U^dag U is the stack of 3x3 Grams G_n = B_n^dag B_n plus the singletons'
    |phase|^2, and sum_x M_x^dag M_x = A^dag (U^dag U) A with A = atom (x) I
    is the atom-weighted sum of those Grams.
    """
    d = u.dim
    atom = np.asarray(atom, dtype=np.complex128)
    levels, exists = ladder_members(d)
    # placeholder rows and columns become identity, so their Gram entries are exact
    blocks = np.where(exists, u.blocks, np.eye(3))
    gram = blocks.conj().swapaxes(1, 2) @ blocks
    phase2 = np.abs(np.array([u.phase_g0, u.phase_m_top])) ** 2
    unitarity = max(float(np.abs(gram - np.eye(3)).max()), float(np.abs(phase2 - 1.0).max()))
    # one level of padding on each side takes the placeholders' out-of-range levels
    weight = atom.conj()[:, None] * atom[None, :]
    padded = levels + 1
    total = np.zeros((d + 2, d + 2), dtype=np.complex128)
    np.add.at(total, (padded[:, :, None], padded[:, None, :]), weight * gram)
    total[1, 1] += weight[G, G] * phase2[0]
    total[d, d] += weight[M, M] * phase2[1]
    completeness = float(np.abs(total[1:-1, 1:-1] - np.eye(d)).max())
    return unitarity, completeness


def extract_kraus(u: LadderPropagator, atom: np.ndarray = ATOM_E, unitary_tol: float = 1e-10) -> KrausSet:
    """Read the field channel off a joint propagator and an initial atom state.

    M_x[n', n] = <x, n'| U |atom, n> for x in (g, e, m): block entry (x, y)
    of block n, weighted by atom[y], lands on levels (n+1-x, n+1-y), and the
    singletons on M_g[0, 0] and M_m[dim-1, dim-1]. Both defects come from
    `ladder_defects`; the dense formula on `u.dense()` and
    `KrausSet.from_operators` are their oracle.
    """
    atom = np.asarray(atom, dtype=np.complex128)
    if atom.shape != (3,) or abs(np.linalg.norm(atom) - 1.0) > 1e-12:
        raise ConfigError("atom state must be a unit-norm 3-vector")
    defect, completeness = ladder_defects(u, atom)
    if defect > unitary_tol:
        raise ValueError(f"propagator unitarity defect {defect:.3e} exceeds {unitary_tol:.1e}")
    d = u.dim
    # padded levels as in `ladder_defects`; atom first and added onto zeros,
    # so each entry rounds, and signs its zeros, as the dense sum over y of
    # atom[y] * U[x, y] does
    padded = ladder_members(d)[0] + 1
    ops = np.zeros((3, d + 2, d + 2), dtype=np.complex128)
    ops[np.arange(3)[:, None], padded[:, :, None], padded[:, None, :]] += atom * u.blocks
    ops[[G, M], [1, d], [1, d]] += atom[[G, M]] * np.array([u.phase_g0, u.phase_m_top])
    return KrausSet(*ops[:, 1:-1, 1:-1].copy(), completeness)


def _alpha(theta1: float, n: np.ndarray | float) -> np.ndarray | float:
    """Outer-segment rotation angle theta1*sqrt(n+1) for level n."""
    return theta1 * np.sqrt(np.asarray(n, dtype=np.float64) + 1.0)


def _beta(theta2: float, n: np.ndarray | float) -> np.ndarray | float:
    """Middle-segment half-angle theta2*sqrt(n)/2 for level n."""
    return 0.5 * theta2 * np.sqrt(np.asarray(n, dtype=np.float64))


def analytic_kraus(params: ReservoirParams, dim: int) -> KrausSet:
    """Channel of the three-segment cycle in the large-detuning limit.

    With alpha_n = theta1*sqrt(n+1), beta_n = theta2*sqrt(n)/2 and phi the
    middle-segment phase:

        M_g = adag (e^{i phi} + cos beta_N) sin(theta1 sqrt(N+I)) / (2 sqrt(N+I))
        M_e = cos^2(theta1 sqrt(N+I)/2) cos beta_N - e^{i phi} sin^2(theta1 sqrt(N+I)/2)
        M_m = -a (sin beta_N / sqrt(N)) cos(theta1 sqrt(N+I)/2)

    The physically irrelevant overall phase of M_m (it cancels in the channel)
    is set to 1. theta1 is not restricted to the trapping value, so detuned
    robustness studies are expressible.
    """
    if dim < params.nbar + 2:
        raise ConfigError(f"dim {dim} too small for nbar {params.nbar}")
    th1, th2, phi = params.theta1, params.theta2, params.phi
    eip = np.exp(1j * phi)

    def g_diag(n: int) -> complex:
        return (eip + math.cos(_beta(th2, n))) * math.sin(_alpha(th1, n)) / (2.0 * math.sqrt(n + 1.0))

    def e_diag(n: int) -> complex:
        half = 0.5 * _alpha(th1, n)
        return math.cos(half) ** 2 * math.cos(_beta(th2, n)) - eip * math.sin(half) ** 2

    def m_diag(n: int) -> complex:
        # sin(beta_n)/sqrt(n) has the removable limit theta2/2 at n = 0.
        frac = 0.5 * th2 if n == 0 else math.sin(_beta(th2, n)) / math.sqrt(n)
        return -frac * math.cos(0.5 * _alpha(th1, n))

    m_g = creation(dim) @ number_function(g_diag, dim)
    m_e = number_function(e_diag, dim)
    m_m = annihilation(dim) @ number_function(m_diag, dim)
    return KrausSet.from_operators(m_g, m_e, m_m)


def walther_kraus(nbar: int, theta_r: float, dim: int) -> KrausSet:
    """Resonant two-level trapping baseline with pulse area theta_r.

    M_g = (sin(theta_r sqrt(N)/2)/sqrt(N)) adag, M_e = cos(theta_r sqrt(N+I)/2),
    M_m = 0. The nominal area 2*pi/sqrt(nbar+1) freezes the target level but
    leaves everything above it drifting upward.
    """
    if dim < nbar + 2:
        raise ConfigError(f"dim {dim} too small for nbar {nbar}")

    def g_diag(n: int) -> complex:
        # sin(theta_r sqrt(n)/2)/sqrt(n) -> theta_r/2 at n = 0.
        if n == 0:
            return 0.5 * theta_r
        return math.sin(0.5 * theta_r * math.sqrt(n)) / math.sqrt(n)

    def e_diag(n: int) -> complex:
        return math.cos(0.5 * theta_r * math.sqrt(n + 1.0))

    m_g = number_function(g_diag, dim) @ creation(dim)
    m_e = number_function(e_diag, dim)
    m_m = np.zeros((dim, dim), dtype=np.complex128)
    return KrausSet.from_operators(m_g, m_e, m_m)


def apply_map(k: KrausSet, rho: np.ndarray) -> np.ndarray:
    """One channel application rho -> sum_x M_x rho M_x^dag, sanitized."""
    if rho.shape != (k.dim, k.dim):
        raise ConfigError(f"state shape {rho.shape} does not match channel dim {k.dim}")
    if k.completeness_defect >= COMPLETENESS_APPLY_TOL:
        raise ValueError(
            f"channel completeness defect {k.completeness_defect:.3e} too large to apply"
        )
    out = (
        k.m_g @ rho @ k.m_g.conj().T
        + k.m_e @ rho @ k.m_e.conj().T
        + k.m_m @ rho @ k.m_m.conj().T
    )
    return sanitize(out).rho


def transition_rates(params: ReservoirParams, n: int) -> tuple[float, float]:
    """Per-cycle population flow rates (d_n down, e_n up) at the trapping area.

    d_n = sin^2(beta_n) cos^2(alpha_n / 2), e_n = sin^2(alpha_n) cos^4(beta_n / 2)
    with alpha_n = pi sqrt((n+1)/(nbar+1)) fixed by the trapping condition, so
    these are functions of (nbar, theta2) only.
    """
    if n < 0:
        raise ConfigError(f"level must be nonnegative, got {n}")
    alpha = math.pi * math.sqrt((n + 1.0) / (params.nbar + 1.0))
    beta = float(_beta(params.theta2, n))
    d_n = math.sin(beta) ** 2 * math.cos(0.5 * alpha) ** 2
    e_n = math.sin(alpha) ** 2 * math.cos(0.5 * beta) ** 4
    return d_n, e_n


def bands(k: KrausSet, off_band_tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-band representation (g, e, m) of a ladder channel.

    g[n] = <n+1|M_g|n> (g[dim-1] = 0 is the truncated top row), e[n] = <n|M_e|n>,
    m[n] = <n-1|M_m|n> (m[0] = 0). Raises if any operator has weight off its
    band, which would make the banded iteration kernels silently wrong.
    """
    d = k.dim
    g = np.zeros(d, dtype=np.complex128)
    e = np.diag(k.m_e).copy()
    m = np.zeros(d, dtype=np.complex128)
    g[: d - 1] = k.m_g[np.arange(1, d), np.arange(d - 1)]
    m[1:] = k.m_m[np.arange(d - 1), np.arange(1, d)]
    for name, op, band in (
        ("M_g", k.m_g, np.diag(g[: d - 1], -1)),
        ("M_e", k.m_e, np.diag(e)),
        ("M_m", k.m_m, np.diag(m[1:], 1)),
    ):
        stray = float(np.abs(op - band).max())
        if stray > off_band_tol:
            raise ValueError(f"{name} has off-band weight {stray:.3e} > {off_band_tol:.1e}")
    return g, e, m


def align_phase(op: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate op by the global phase that matches reference at the largest entry.

    Kraus decompositions are fixed only up to such phases; comparisons between
    extracted and analytic operators are made after this alignment.
    """
    idx = np.unravel_index(np.abs(reference).argmax(), reference.shape)
    r, o = reference[idx], op[idx]
    if abs(o) < 1e-300 or abs(r) < 1e-300:
        return op
    return op * (r / abs(r)) * (abs(o) / o)


def kraus_deviation(extracted: KrausSet, reference: KrausSet, exclude_top: int = 1) -> float:
    """Max-norm distance between channels after per-operator phase alignment.

    The last exclude_top columns are left out: the top truncated level has no
    raising partner, so there the exact boundary block and the closed form
    differ by design at any detuning, independently of the model error this
    distance is meant to measure.
    """
    dev = 0.0
    stop = extracted.dim - exclude_top
    for a, b in ((extracted.m_g, reference.m_g), (extracted.m_e, reference.m_e), (extracted.m_m, reference.m_m)):
        aligned = align_phase(a[:, :stop], b[:, :stop])
        dev = max(dev, float(np.abs(aligned - b[:, :stop]).max()))
    return dev
