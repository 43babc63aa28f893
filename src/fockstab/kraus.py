"""Kraus channels induced on the field by one atom-field interaction.

A channel is the triple (M_g, M_e, M_m) acting on the field alone: applying
the joint propagator to |e> (x) |psi> (the atom enters excited) and reading
off the atomic components gives U |psi>|e> = M_g|psi>|g> + M_e|psi>|e> +
M_m|psi>|m>. Every channel built here (the numeric cycle channel, its
large-detuning closed form and the resonant two-level baseline) is one-band:
M_g raises by one level, M_e is diagonal, M_m lowers by one level. A
`KrausSet` stores only those bands, from the builders to the iteration
kernels; the dense operators are built on demand for the reference route
(`oracle.apply_map`, `oracle.kraus_deviation` and the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dynamics import UNITARY_TOL, E, G, M, LadderPropagator, ReservoirParams, ladder_members
from .errors import ConfigError
# re-exported: the acceptance suite and the benchmark's checks import them from here
from .oracle import apply_map, kraus_deviation  # noqa: F401

OFF_BAND_TOL = 1e-12


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A one-band channel: its bands and its completeness defect ||sum M^dag M - I||max.

    g[n] = <n+1|M_g|n> (g[dim-1] = 0, the raised top level is truncated),
    e[n] = <n|M_e|n> and m[n] = <n-1|M_m|n> (m[0] = 0), stored as read-only
    copies. m_g, m_e and m_m are the dense operators, built on first access.
    The defect is recorded at construction rather than asserted, so that
    deliberately truncated or perturbed channels can still be built and
    studied; `oracle.apply_map` refuses defects above its COMPLETENESS_APPLY_TOL.
    Equality and hashing are by identity: array fields have no truth value.
    """

    g: np.ndarray
    e: np.ndarray
    m: np.ndarray
    completeness_defect: float

    def __post_init__(self) -> None:
        for name in ("g", "e", "m"):
            object.__setattr__(self, name, _read_only(np.array(getattr(self, name), dtype=np.complex128)))

    @property
    def dim(self) -> int:
        return self.e.shape[0]

    @cached_property
    def m_g(self) -> np.ndarray:
        return _read_only(np.diag(self.g[:-1], -1))

    @cached_property
    def m_e(self) -> np.ndarray:
        return _read_only(np.diag(self.e))

    @cached_property
    def m_m(self) -> np.ndarray:
        return _read_only(np.diag(self.m[1:], 1))

    @staticmethod
    def from_operators(m_g: np.ndarray, m_e: np.ndarray, m_m: np.ndarray) -> "KrausSet":
        """The channel of three dense operators, with the dense sum M^dag M as its defect.

        Raises if any operator has weight off its band above OFF_BAND_TOL,
        which the bands would silently drop.
        """
        if not (m_g.shape == m_e.shape == m_m.shape) or m_g.shape[0] != m_g.shape[1]:
            raise ConfigError("Kraus operators must be square matrices of one shared dim")
        g, m = np.append(np.diagonal(m_g, -1), 0.0), np.insert(np.diagonal(m_m, 1), 0, 0.0)
        k = KrausSet(g, np.diagonal(m_e), m, 0.0)
        for name, op, band in (("M_g", m_g, k.m_g), ("M_e", m_e, k.m_e), ("M_m", m_m, k.m_m)):
            stray = float(np.abs(op - band).max())
            if stray > OFF_BAND_TOL:
                raise ValueError(f"{name} has off-band weight {stray:.3e} > {OFF_BAND_TOL:.1e}")
        total = m_g.conj().T @ m_g + m_e.conj().T @ m_e + m_m.conj().T @ m_m
        defect = float(np.abs(total - np.eye(m_g.shape[0])).max())
        return replace(k, completeness_defect=defect)


def _with_band_defect(g: np.ndarray, e: np.ndarray, m: np.ndarray) -> KrausSet:
    """A channel from its bands, with the defect of the diagonal sum M^dag M."""
    total = (g.conj() * g + e.conj() * e) + m.conj() * m
    return KrausSet(g, e, m, float(np.abs(total - 1.0).max()))


def ladder_defects(u: LadderPropagator) -> tuple[np.ndarray, np.ndarray]:
    """Unitarity and completeness defects of a joint propagator, read off its ladder blocks.

    Returns (max|U^dag U - I|, max|sum_x M_x^dag M_x - I|) for the channel
    `extract_kraus` reads, without a dense product: U^dag U is the stack of
    3x3 Grams G_n = B_n^dag B_n plus the singletons' |phase|^2, and
    sum_x M_x^dag M_x is diagonal with entry n the Gram entry G_n[E, E] of
    the E column. A stack of propagators gives one pair of defects per phase.
    """
    _, exists = ladder_members(u.dim)
    # placeholder rows and columns become identity, so their Gram entries are exact
    blocks = np.where(exists, u.blocks, np.eye(3))
    gram = blocks.conj().swapaxes(-1, -2) @ blocks
    phase2 = np.abs(np.array([u.phase_g0, u.phase_m_top])) ** 2
    unitarity = np.maximum(np.abs(gram - np.eye(3)).max(axis=(-3, -2, -1)), np.abs(phase2 - 1.0).max(axis=0))
    return unitarity, np.abs(gram[..., E, E] - 1.0).max(axis=-1)


def extract_kraus(u: LadderPropagator) -> KrausSet | list[KrausSet]:
    """Read the field channel of an atom entering in |e> off a joint propagator.

    M_x[n', n] = <x, n'| U |e, n> is the E column of the ladder blocks:
    g[n] = B_n[G, E], e[n] = B_n[E, E] and m[n] = B_n[M, E], with g[dim-1]
    and m[0] zero because |g,dim> and |m,-1> are placeholders outside the
    truncation. Both defects come from `ladder_defects`; the dense formula on
    `u.dense()` and `KrausSet.from_operators` are their oracle. A stack of
    propagators gives a list with one channel per phase; the phases are
    checked in order, so the first one that fails raises.
    """
    defect, completeness = ladder_defects(u)
    column = u.blocks[..., E].copy()
    column[..., -1, G] = 0.0
    column[..., 0, M] = 0.0
    if column.ndim == 2:
        return _checked_channel(defect, column, completeness)
    return [_checked_channel(*phase) for phase in zip(defect, column, completeness)]


def _checked_channel(defect: float, column: np.ndarray, completeness: float) -> KrausSet:
    if defect > UNITARY_TOL:
        raise ValueError(f"propagator unitarity defect {defect:.3e} exceeds {UNITARY_TOL:.1e}")
    return KrausSet(*column.T, float(completeness))


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
    th1, th2 = params.theta1, params.theta2
    eip = np.exp(1j * params.phi)
    # bands of adag f_g(N), f_e(N), -a f_m(N): g[n] = sqrt(n+1) f_g(n), m[n] = sqrt(n) f_m(n),
    # left unsimplified so that they round as the operator products do
    g, e, m = np.zeros((3, dim), dtype=np.complex128)
    for n in range(dim):
        alpha, beta = _alpha(th1, n), _beta(th2, n)
        half = 0.5 * alpha
        e[n] = math.cos(half) ** 2 * math.cos(beta) - eip * math.sin(half) ** 2
        if n + 1 < dim:
            g[n] = math.sqrt(n + 1.0) * ((eip + math.cos(beta)) * math.sin(alpha) / (2.0 * math.sqrt(n + 1.0)))
        if n > 0:
            m[n] = math.sqrt(n) * (-(math.sin(beta) / math.sqrt(n)) * math.cos(half))
    return _with_band_defect(g, e, m)


def walther_kraus(nbar: int, theta_r: float, dim: int) -> KrausSet:
    """Resonant two-level trapping baseline with pulse area theta_r.

    M_g = (sin(theta_r sqrt(N)/2)/sqrt(N)) adag, M_e = cos(theta_r sqrt(N+I)/2),
    M_m = 0. The nominal area 2*pi/sqrt(nbar+1) freezes the target level but
    leaves everything above it drifting upward.
    """
    if dim < nbar + 2:
        raise ConfigError(f"dim {dim} too small for nbar {nbar}")
    # the band of f(N) adag: g[n] = f(n+1) sqrt(n+1), left unsimplified as in `analytic_kraus`
    g = np.zeros(dim, dtype=np.complex128)
    for n in range(1, dim):
        g[n - 1] = math.sin(0.5 * theta_r * math.sqrt(n)) / math.sqrt(n) * math.sqrt(n)
    e = np.array([math.cos(0.5 * theta_r * math.sqrt(n + 1.0)) for n in range(dim)], dtype=np.complex128)
    return _with_band_defect(g, e, np.zeros(dim, dtype=np.complex128))


def trapping_angles(nbar: int, theta2: float, n: int) -> tuple[float, float]:
    """(alpha_n, beta_n) of level n at the trapping area theta1 = pi/sqrt(nbar+1):
    alpha_n = pi sqrt((n+1)/(nbar+1)) and beta_n = theta2 sqrt(n)/2."""
    return math.pi * math.sqrt((n + 1.0) / (nbar + 1.0)), 0.5 * theta2 * math.sqrt(n)


def transition_rates(nbar: int, theta2: float, n: int) -> tuple[float, float]:
    """Per-cycle population flow rates (d_n down, e_n up) of level n at the trapping area.

    d_n = sin^2(beta_n) cos^2(alpha_n / 2), e_n = sin^2(alpha_n) cos^4(beta_n / 2)
    with the angles of `trapping_angles`: alpha_n is fixed by the trapping
    condition, so these are functions of (nbar, theta2) only.
    """
    if n < 0:
        raise ConfigError(f"level must be nonnegative, got {n}")
    alpha, beta = trapping_angles(nbar, theta2, n)
    d_n = math.sin(beta) ** 2 * math.cos(0.5 * alpha) ** 2
    e_n = math.sin(alpha) ** 2 * math.cos(0.5 * beta) ** 4
    return d_n, e_n


def bands(k: KrausSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored bands (g, e, m) of a channel, with the conventions of `KrausSet`."""
    return k.g, k.e, k.m
