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
`ReducedDynamics` holds the reservoir rates d, e and the environment, and
forms A and B from them; `build_reduced` takes the rates of the trapping
ladder, `reduced_from_channel` reads them off a channel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import CAVITY_KAPPA, CAVITY_NTH, CAVITY_PAT, CAVITY_TS
from .dynamics import ReservoirParams, window_top
from .errors import AmbiguousSteadyStateError, ConfigError, PerturbationInvalidError, StepValidityError
from .kraus import KrausSet, bands, transition_rates
# re-exported: the acceptance suite and the benchmark import them from here
from .oracle import decoherence_step, steady_state  # noqa: F401

STEP_LIMIT = 0.5
STATIONARY_GAP_TOL = 1e-13
STATIONARY_ULPS = 64
STATIONARY_MAX_STEPS = 64
STATIONARY_SHIFT = 1e-3


@dataclass(frozen=True)
class ThermalParams:
    """Environment coupling kappa (1/s), thermal occupancy n_th, period Ts (s),
    and atom presence probability p_at in (0, 1]: with no atom, no pulse acts."""

    kappa: float
    n_th: float
    Ts: float
    p_at: float = 1.0

    def __post_init__(self) -> None:
        if self.kappa < 0 or self.n_th < 0 or self.Ts <= 0:
            raise ConfigError("kappa and n_th must be >= 0 and Ts > 0")
        if not 0.0 < self.p_at <= 1.0:
            raise ConfigError(f"p_at must lie in (0, 1], got {self.p_at}")

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


def cavity_thermal(p_at: float = CAVITY_PAT) -> ThermalParams:
    """The cavity the thermal scenarios default to: 1/kappa = 0.1 s, n_th = 0.05, Ts = 60 us."""
    return ThermalParams(kappa=CAVITY_KAPPA, n_th=CAVITY_NTH, Ts=CAVITY_TS, p_at=p_at)


@dataclass(frozen=True)
class ReducedDynamics:
    """Tridiagonal population dynamics r' = B A r of reservoir rates d, e and environment tp.

    d[n] and e[n] are the reservoir flows out of level n (downward/upward);
    A keeps 1 - d - e on its diagonal. The environment flows out of level n
    are gamma_minus * n downward and gamma_plus * (n + 1) upward; B keeps
    1 - down - up. The upward flow out of the last level is the truncation
    defect: column dim-1 of B sums to 1 - gamma_plus * dim.
    """

    d: np.ndarray
    e: np.ndarray
    tp: ThermalParams

    @property
    def dim(self) -> int:
        return len(self.d)

    @property
    def truncation_defect(self) -> float:
        return self.tp.gamma_plus * self.dim

    def a_matrix(self) -> np.ndarray:
        return _tridiag(1.0 - self.d - self.e, self.d, self.e)

    def b_matrix(self) -> np.ndarray:
        n = np.arange(self.dim, dtype=np.float64)
        down = self.tp.gamma_minus * n
        up = self.tp.gamma_plus * (n + 1.0)
        return _tridiag(1.0 - down - up, down, up)

    def step_matrix(self) -> np.ndarray:
        """B ((1 - p_at) I + p_at A) at tp.p_at: the cycle matrix whose
        `stationary` vector is the trapping-rate model's long-run populations."""
        p_at = self.tp.p_at
        return self.b_matrix() @ ((1.0 - p_at) * np.eye(self.dim) + p_at * self.a_matrix())


def _tridiag(main: np.ndarray, down: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Column n carries main[n] on the diagonal, down[n] above it (flow to n-1)
    and up[n] below it (flow to n+1, dropped for the last column)."""
    m = np.diag(main).astype(np.float64)
    dim = len(main)
    m[np.arange(dim - 1), np.arange(1, dim)] = down[1:]
    m[np.arange(1, dim), np.arange(dim - 1)] = up[: dim - 1]
    return m


def _trapping_rates(params: ReservoirParams, levels: int) -> np.ndarray:
    """The `transition_rates` of levels 0..levels-1: rows d and e."""
    return np.array([transition_rates(params.nbar, params.theta2, n) for n in range(levels)]).T


def build_reduced(params: ReservoirParams, tp: ThermalParams, dim: int) -> ReducedDynamics:
    """Reduced dynamics with the trapping-area reservoir rates of `transition_rates`."""
    if dim <= window_top(params.nbar):
        raise ConfigError(f"dim {dim} must cover the invariant window 0..{window_top(params.nbar)}")
    tp.check_step_validity(dim)
    return ReducedDynamics(*_trapping_rates(params, dim), tp)


# an oracle for `kernels.step_matrix`, kept here because it builds a
# `ReducedDynamics`, which the leaf `oracle` cannot import
def reduced_from_channel(k: KrausSet, tp: ThermalParams) -> ReducedDynamics:
    """Reduced dynamics read off an arbitrary one-band channel.

    Exact for any ladder channel (including detuned pulse areas where the
    trapping-condition rates do not apply): d_n = |<n-1|M_m|n>|^2 and
    e_n = |<n+1|M_g|n>|^2. Warns when a level's rates sum above 1, which
    leaves A a negative diagonal entry.
    """
    tp.check_step_validity(k.dim)
    g, _, m = bands(k)
    rd = ReducedDynamics(np.abs(m) ** 2, np.abs(g) ** 2, tp)
    stay = (1.0 - rd.d - rd.e).min()
    if stay < -1e-12:
        warnings.warn(f"A has a negative main diagonal entry ({stay:.3g})", stacklevel=2)
    return rd


def stationary(m: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
    """Stationary populations of the cycle matrix m, with its spectral gap.

    The long-run populations of r' = m r are the Perron vector of m: the
    eigenvector of the eigenvalue lam1 with the largest real part, normalized
    to sum 1. m may be substochastic (population leaks through the truncated
    top level), so lam1 can sit just below 1 and the vector is the
    quasi-stationary one that renormalized iteration converges to. The gap
    lam1 - max|lam_other| sets how fast that iteration forgets its start; it
    is returned so callers can flag slowly mixing chains.

    The spectrum alone (`np.linalg.eigvals`) gives lam1 and the gap; the
    vector comes from inverse iteration shifted just above lam1, started from
    the uniform vector, with no eigenvectors computed.

    An (s, n, n) stack of matrices gives populations (s, n) and gaps (s,)
    from one `eigvals`, one `inv` and one inverse iteration in which every
    item steps until the last has settled, each keeping the vector of its own
    settling step; a (n, n) matrix runs the same code as a stack of one.
    Each item's numbers are bit for bit those of its own call.

    Raises AmbiguousSteadyStateError when the gap is at rounding level (two
    closed classes, as in a channel without environment), when an entry is
    clearly negative, or when the residual |m v - rho v|_1 exceeds rounding,
    where rho = sum(m v) / sum(v) is the Rayleigh quotient of v. In a stack
    the first failing item raises, with the message of its own call; an item
    below the gap floor stays out of `inv`.
    """
    ms = m[None] if m.ndim == 2 else m
    items, n = ms.shape[0], ms.shape[-1]
    lam = np.linalg.eigvals(ms)
    every = np.arange(items)
    top = np.argmax(lam.real, axis=-1)
    lam1 = lam.real[every, top]
    others = np.abs(lam)
    others[every, top] = -np.inf
    gaps = lam1 - others.max(axis=-1)
    live = np.flatnonzero(~(gaps < STATIONARY_GAP_TOL))
    # inverse iteration at sigma just above the Perron root, where
    # (sigma I - m)^-1 is entrywise positive, so a positive start stays
    # positive. The offset delta = sigma - lam1 stays well inside the gap and
    # far above the rounding of lam1. Every other eigenvalue lies at least
    # delta + gap from sigma, so each step shrinks the error by
    # delta / (delta + gap): about 1e-3 in general, and at least a half even
    # at the gap floor, where delta is the floor; 64 halvings take any start
    # below double rounding, hence the step cap. The inverse is formed once,
    # as numpy keeps no reusable LU factorization.
    r = np.full((items, n), 1.0 / n)
    if live.size:
        sigma = lam1[live] + np.maximum(STATIONARY_SHIFT * gaps[live], STATIONARY_GAP_TOL)
        # sigma I - m in one buffer, as 0 - m with sigma added on the
        # diagonal: the same numbers as sigma * I - m
        solve = np.subtract(0.0, ms if live.size == items else ms[live])
        solve[:, np.arange(n), np.arange(n)] += sigma[:, None]
        solve = np.linalg.inv(solve)
        step_tol = STATIONARY_ULPS * np.finfo(np.float64).eps
        # every live item takes each step; one that settles keeps the vector
        # of the step that settled it
        vectors, going = r[live], np.ones(live.size, dtype=bool)
        for _ in range(STATIONARY_MAX_STEPS):
            nxt = (solve @ vectors[..., None])[..., 0]
            nxt /= nxt.sum(axis=-1, keepdims=True)
            settled = np.abs(nxt - vectors).max(axis=-1) <= step_tol
            vectors[going] = nxt[going]
            going &= ~settled
            if not going.any():
                break
        r[live] = vectors
    # against the Rayleigh quotient of r rather than lam1, whose rounding in
    # `eigvals` can exceed the bound when the gap is small; the items below
    # the gap floor keep the uniform start, which is never read
    mr = (ms @ r[..., None])[..., 0]
    rayleigh = mr.sum(axis=-1, keepdims=True) / r.sum(axis=-1, keepdims=True)
    residuals = np.abs(mr - rayleigh * r).sum(axis=-1)
    bounds = STATIONARY_ULPS * n * np.finfo(np.float64).eps * np.abs(ms).sum(axis=-2).max(axis=-1)
    # in phase order, as one call per item would raise; the comparisons are
    # written to fail on NaN as well
    for i in range(items):
        if gaps[i] < STATIONARY_GAP_TOL:
            raise AmbiguousSteadyStateError(
                f"leading eigenvalue {lam1[i]:.15f} is not separated: spectral gap {gaps[i]:.3e}"
            )
        if not r[i].min() >= -1e-10:
            raise AmbiguousSteadyStateError(f"stationary vector has negative entry {r[i].min():.3e}")
        if not residuals[i] <= bounds[i]:
            raise AmbiguousSteadyStateError(
                f"eigenvector residual {residuals[i]:.3e} exceeds rounding ({bounds[i]:.3e})"
            )
    if m.ndim == 2:
        return r[0], float(gaps[0])
    return r, gaps


def steady_population_correction(
    params: ReservoirParams,
    tp: ThermalParams,
    p_at: float | None = None,
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
    by p_at (the per-cycle channel is applied with that probability), which
    is tp.p_at; p_at may only restate it.
    1 + x1 estimates the stationary fidelity with an error of order x1^2. The
    upper sum is capped at the invariant window edge 4*nbar+3, where the
    upward rate vanishes at the trapping area.
    """
    nbar = params.nbar
    m_cap = window_top(nbar) - nbar
    if p_at not in (None, tp.p_at):
        raise ValueError(f"p_at {p_at} differs from the environment's p_at {tp.p_at}")
    p_at = tp.p_at
    d, e = _trapping_rates(params, window_top(nbar) + 2)
    d, e = p_at * d, p_at * e
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
