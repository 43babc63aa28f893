"""Thermal environment model and reduced diagonal dynamics.

One reservoir-plus-environment cycle maps rho to

    D[(1 - p_at) rho + p_at Phi(rho)]

where Phi is the atomic channel, p_at the probability that an atom was
actually present, and D the first-order photon loss/gain step

    D[s] = s - (G-/2)(N s + s N - 2 a s adag) - (G+/2)((N+I) s + s (N+I) - 2 adag s a)

with G- = kappa (1 + n_th) Ts and G+ = kappa n_th Ts. D couples each matrix
diagonal of rho only to itself, so the populations r = diag(rho) follow
r' = B A_eff r with tridiagonal column-stochastic A (reservoir) and B
(environment). B mirrors the dense step (`oracle.dense_thermal`) exactly:
level n gains G+ * n from level n-1 and G- * (n+1) from level n+1; the gain
G+ * dim out of the top level has nowhere to go and is dropped, so the last
column of B undercounts by exactly that amount (the recorded truncation
defect).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import ReservoirParams
from .errors import AmbiguousSteadyStateError, ConfigError, PerturbationInvalidError, StepValidityError
from .kraus import KrausSet, bands, transition_rates
# re-exported: the acceptance suite and the benchmark import them from here
from .oracle import decoherence_step, steady_state  # noqa: F401

STEP_LIMIT = 0.5
STATIONARY_GAP_TOL = 1e-13
STATIONARY_RESIDUAL_ULPS = 64
STATIONARY_SHIFT = 1e-3


@dataclass(frozen=True)
class ThermalParams:
    """Environment coupling kappa (1/s), thermal occupancy n_th, period Ts (s),
    and atom presence probability p_at."""

    kappa: float
    n_th: float
    Ts: float
    p_at: float = 1.0

    def __post_init__(self) -> None:
        if self.kappa < 0 or self.n_th < 0 or self.Ts <= 0:
            raise ConfigError("kappa and n_th must be >= 0 and Ts > 0")
        if not 0.0 <= self.p_at <= 1.0:
            raise ConfigError(f"p_at must lie in [0, 1], got {self.p_at}")

    @property
    def gamma_minus(self) -> float:
        """Per-cycle photon loss rate G- = kappa (1 + n_th) Ts."""
        return self.kappa * (1.0 + self.n_th) * self.Ts

    @property
    def gamma_plus(self) -> float:
        """Per-cycle thermal excitation rate G+ = kappa n_th Ts."""
        return self.kappa * self.n_th * self.Ts

    def check_step_validity(self, dim: int) -> None:
        if self.gamma_minus * dim >= STEP_LIMIT:
            raise StepValidityError(
                f"gamma_minus * dim = {self.gamma_minus * dim:.3g} >= {STEP_LIMIT}; "
                "the first-order environment step is invalid here "
                "(increase 1/kappa or reduce dim)"
            )


def cavity_thermal(p_at: float = 0.3) -> ThermalParams:
    """Realistic cryogenic defaults: 1/kappa = 0.1 s, n_th = 0.05, Ts = 60 us."""
    return ThermalParams(kappa=10.0, n_th=0.05, Ts=60e-6, p_at=p_at)


@dataclass(frozen=True)
class ReducedDynamics:
    """Tridiagonal population dynamics r' = B A r, stored as diagonals.

    a_down[n] = d_n and a_up[n] = e_n are the reservoir flows out of level n
    (downward/upward); a_main = 1 - d - e. b_down[n] = gamma_minus * n and
    b_up[n] = gamma_plus * (n + 1) are the environment flows out of level n;
    b_main = 1 - b_down - b_up. The b_up flow out of the last level is the
    truncated defect: column dim-1 of B sums to 1 - gamma_plus * dim.
    """

    a_main: np.ndarray
    a_down: np.ndarray
    a_up: np.ndarray
    b_main: np.ndarray
    b_down: np.ndarray
    b_up: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.a_main)

    @property
    def truncation_defect(self) -> float:
        return float(self.b_up[-1])

    def a_matrix(self) -> np.ndarray:
        return _tridiag(self.a_main, self.a_down, self.a_up)

    def b_matrix(self) -> np.ndarray:
        return _tridiag(self.b_main, self.b_down, self.b_up)

    def step_matrix(self, p_at: float) -> np.ndarray:
        """B ((1 - p_at) I + p_at A): the cycle matrix whose `stationary`
        vector is the trapping-rate model's long-run populations."""
        dim = self.dim
        return self.b_matrix() @ ((1.0 - p_at) * np.eye(dim) + p_at * self.a_matrix())


def _tridiag(main: np.ndarray, down: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Column n carries main[n] on the diagonal, down[n] above it (flow to n-1)
    and up[n] below it (flow to n+1, dropped for the last column)."""
    m = np.diag(main).astype(np.float64)
    dim = len(main)
    m[np.arange(dim - 1), np.arange(1, dim)] = down[1:]
    m[np.arange(1, dim), np.arange(dim - 1)] = up[: dim - 1]
    return m


def reduced_from_rates(d: np.ndarray, e: np.ndarray, tp: ThermalParams) -> ReducedDynamics:
    dim = len(d)
    n = np.arange(dim, dtype=np.float64)
    b_down = tp.gamma_minus * n
    b_up = tp.gamma_plus * (n + 1.0)
    rd = ReducedDynamics(
        a_main=1.0 - d - e,
        a_down=np.asarray(d, dtype=np.float64),
        a_up=np.asarray(e, dtype=np.float64),
        b_main=1.0 - b_down - b_up,
        b_down=b_down,
        b_up=b_up,
    )
    for name, arr in (("A", rd.a_main), ("B", rd.b_main)):
        if arr.min() < -1e-12:
            warnings.warn(f"{name} has a negative main diagonal entry ({arr.min():.3g})", stacklevel=3)
    return rd


def build_reduced(params: ReservoirParams, tp: ThermalParams, dim: int) -> ReducedDynamics:
    """Reduced dynamics with the trapping-area reservoir rates of `transition_rates`."""
    if dim < 4 * params.nbar + 4:
        raise ConfigError(f"dim {dim} must cover the invariant window 0..{4 * params.nbar + 3}")
    tp.check_step_validity(dim)
    d = np.empty(dim)
    e = np.empty(dim)
    for n in range(dim):
        d[n], e[n] = transition_rates(params, n)
    return reduced_from_rates(d, e, tp)


# an oracle for `kernels.step_matrix`, kept here because it is built on
# `reduced_from_rates`, which the leaf `oracle` cannot import
def reduced_from_channel(k: KrausSet, tp: ThermalParams) -> ReducedDynamics:
    """Reduced dynamics read off an arbitrary one-band channel.

    Exact for any ladder channel (including detuned pulse areas where the
    trapping-condition rates do not apply): d_n = |<n-1|M_m|n>|^2 and
    e_n = |<n+1|M_g|n>|^2.
    """
    tp.check_step_validity(k.dim)
    g, _, m = bands(k)
    return reduced_from_rates(np.abs(m) ** 2, np.abs(g) ** 2, tp)


def stationary(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Stationary populations of the cycle matrix m, with its spectral gap.

    The long-run populations of r' = m r are the Perron vector of m: the
    eigenvector of the eigenvalue lam1 with the largest real part, normalized
    to sum 1. m may be substochastic (population leaks through the truncated
    top level), so lam1 can sit just below 1 and the vector is the
    quasi-stationary one that renormalized iteration converges to. The gap
    lam1 - max|lam_other| sets how fast that iteration forgets its start; it
    is returned so callers can flag slowly mixing chains.

    Raises AmbiguousSteadyStateError when the gap is at rounding level (two
    closed classes, as in a channel without environment), when an entry is
    clearly negative, or when the residual |m v - lam1 v|_1 exceeds rounding.
    """
    lam, vecs = np.linalg.eig(m)
    top = int(np.argmax(lam.real))
    lam1 = float(lam[top].real)
    gap = lam1 - float(np.abs(np.delete(lam, top)).max())
    if gap < STATIONARY_GAP_TOL:
        raise AmbiguousSteadyStateError(
            f"leading eigenvalue {lam1:.15f} is not separated: spectral gap {gap:.3e}"
        )
    # two steps of inverse iteration from the eigensolver's vector, shifted
    # just above the Perron root, where (sigma I - m)^-1 is entrywise
    # positive: they remove the solver's absolute error (measured up to 3.5e-8
    # on slowly mixing chains, in entries that should be tiny and positive).
    # The offset stays well inside the gap and far above the rounding of lam1.
    sigma = lam1 + max(STATIONARY_SHIFT * gap, STATIONARY_GAP_TOL)
    shifted = sigma * np.eye(len(lam)) - m
    r = np.abs((vecs[:, top] / vecs[:, top].sum()).real)
    for _ in range(2):
        r = np.linalg.solve(shifted, r)
        r /= r.sum()
    # the comparisons are written to fail on NaN as well
    if not r.min() >= -1e-10:
        raise AmbiguousSteadyStateError(f"stationary vector has negative entry {r.min():.3e}")
    residual = float(np.abs(m @ r - lam1 * r).sum())
    bound = STATIONARY_RESIDUAL_ULPS * len(r) * np.finfo(np.float64).eps * float(np.abs(m).sum(axis=0).max())
    if not residual <= bound:
        raise AmbiguousSteadyStateError(f"eigenvector residual {residual:.3e} exceeds rounding ({bound:.3e})")
    return r, gap


def steady_population_correction(
    params: ReservoirParams,
    tp: ThermalParams,
    p_at: float = 1.0,
) -> float:
    """First-order thermal correction x1 <= 0 to the target-level population.

    Treating the environment as a perturbation of the reservoir chain gives a
    closed form built from the rate ladders around the target level:

        -x1 = (b/e_{nbar-1}) sum_{m=1..nbar} prod_{l=2..m} d_{nbar-l+1}/e_{nbar-l}
            + (c/d_{nbar+1}) sum_{m>0}     prod_{l=2..m} e_{nbar+l-1}/d_{nbar+l}

    with b = gamma_minus * nbar and c = gamma_plus * (nbar + 1), the exact
    environment flows out of the target level (c must match the dense step,
    where thermal excitation out of level n runs at gamma_plus * (n + 1); the
    smaller index loses a full order of accuracy). Reservoir rates are scaled
    by p_at (the per-cycle channel is applied with that probability).
    1 + x1 estimates the stationary fidelity with an error of order x1^2. The
    upper sum is capped at the invariant window edge 4*nbar+3, where the
    upward rate vanishes at the trapping area.
    """
    nbar = params.nbar
    m_cap = 3 * nbar + 3
    if not 0 < p_at <= 1.0:
        raise ConfigError(f"p_at must lie in (0, 1], got {p_at}")
    top = nbar + m_cap
    d = np.empty(top + 2)
    e = np.empty(top + 2)
    for n in range(top + 2):
        dn, en = transition_rates(params, n)
        d[n], e[n] = p_at * dn, p_at * en
    if e[nbar - 1] <= 1e-12:
        raise PerturbationInvalidError(
            f"upward rate e_{nbar - 1} = {e[nbar - 1]:.3e} vanishes; recurrence invalid"
        )
    if d[nbar + 1] <= 1e-12:
        raise PerturbationInvalidError(
            f"downward rate d_{nbar + 1} = {d[nbar + 1]:.3e} vanishes; recurrence invalid"
        )
    below = 0.0
    prod = 1.0
    for m in range(1, nbar + 1):
        if m >= 2:
            prod *= d[nbar - m + 1] / e[nbar - m]  # l = m factor: d_{nbar-l+1}/e_{nbar-l}
        below += prod
    above = 0.0
    prod = 1.0
    for m in range(1, m_cap + 1):
        if m >= 2:
            prod *= e[nbar + m - 1] / d[nbar + m]
        above += prod
    b = tp.gamma_minus * nbar
    c = tp.gamma_plus * (nbar + 1)
    return -(b / e[nbar - 1] * below + c / d[nbar + 1] * above)
