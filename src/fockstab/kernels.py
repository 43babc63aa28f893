"""Hot iteration kernels: the population cycle of a banded channel and
environment step.

All channels here are one-band ladder channels (see `kraus.bands`): M_g
raises the photon number by one, M_e is diagonal and M_m lowers it by one.
The environment step maps each matrix diagonal to itself as well. A cycle
therefore sends the population diagonal diag(rho) to a new diagonal through
a closed tridiagonal birth-death chain, and the coherences never feed it.
Every recorded output (fidelity, V, trace, populations, stationary fidelity)
is a function of that diagonal, so the two iteration kernels `evolve` and
`evolve_to_fixed_point` carry only the complex diagonal vector and cost O(dim)
per cycle. They apply, entry by entry, exactly the arithmetic that the
full-matrix cycle `oracle.thermal_step((1-p) rho + p oracle.channel_step(rho))`
applies on its diagonal, so their results are bit-identical to iterating
that composition and reading the diagonal. `step_matrix` writes the same
cycle as a real (dim, dim) matrix; its Perron vector (`thermal.stationary`)
is every stationary population the program reports, and
`evolve_to_fixed_point` stays as the independent iteration oracle for it.

Index conventions (dim = D, 0-based levels):
    g[n] = <n+1|M_g|n>, g[D-1] = 0 (truncated top row)
    e[n] = <n|M_e|n>
    m[n] = <n-1|M_m|n>, m[0] = 0
    environment: out[i,j] = rho[i,j] (1 - gm(i+j)/2 - gp(i+j+2)/2)
                 + gm sqrt((i+1)(j+1)) rho[i+1,j+1] + gp sqrt(ij) rho[i-1,j-1]
"""

from __future__ import annotations

import math

import numpy as np


# kept for the benchmark's machine facts, which read it from this module
def active_backend() -> str:
    """The array library the kernels run on; always "numpy"."""
    return "numpy"


def _population_cycle(g, e, m, gm, gp, p_at):
    """The diagonal of one full-matrix cycle, as a function d -> d'.

    Bands are conjugated and the environment coefficients are formed once
    here; each entry then sees the same operations, in the same order, as the
    diagonal entry of `oracle.thermal_step((1-p) rho + p oracle.channel_step(rho))`.
    The levels run along the last axis, so a (batch, dim) stack of diagonals
    advances row by row with the same arithmetic.
    """
    g = np.asarray(g, dtype=np.complex128)
    e = np.asarray(e, dtype=np.complex128)
    m = np.asarray(m, dtype=np.complex128)
    g_lo, gc_lo = g[:-1], g[:-1].conj()
    m_hi, mc_hi = m[1:], m[1:].conj()
    ec = e.conj()
    mixing = p_at != 1.0
    keep = 1.0 - p_at
    environment = gm != 0.0 or gp != 0.0
    if environment:
        n = np.arange(len(e), dtype=np.float64)
        factor = 1.0 - 0.5 * gm * (n + n) - 0.5 * gp * (n + n + 2.0)
        root = np.sqrt(n + 1.0)
        rr = root[:-1] * root[:-1]
        down = gm * rr
        up = gp * rr

    def cycle(d: np.ndarray) -> np.ndarray:
        out = (e * d) * ec
        out[..., 1:] += (g_lo * d[..., :-1]) * gc_lo
        out[..., :-1] += (m_hi * d[..., 1:]) * mc_hi
        if mixing:
            out = keep * d + p_at * out
        if environment:
            nxt = out * factor
            nxt[..., :-1] += down * out[..., 1:]
            nxt[..., 1:] += up * out[..., :-1]
            out = nxt
        return out

    return cycle


def step_matrix(
    g: np.ndarray,
    e: np.ndarray,
    m: np.ndarray,
    gm: float,
    gp: float,
    p_at: float,
) -> np.ndarray:
    """The real (dim, dim) matrix M of one population cycle, d' = M d.

    Column n is the cycle applied to the unit population on level n, computed
    by one batched call of the engine's own cycle on the identity, so M is
    exactly the map that `evolve` iterates.
    """
    cycle = _population_cycle(g, e, m, float(gm), float(gp), float(p_at))
    return cycle(np.eye(len(e), dtype=np.complex128)).real.T


def evolve(
    g: np.ndarray,
    e: np.ndarray,
    m: np.ndarray,
    rho0: np.ndarray,
    gm: float,
    gp: float,
    p_at: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iterate n_steps cycles, recording the population diagonal and raw trace.

    Returns (final state, diag of shape (n_steps+1, dim), trace). Only the
    diagonal of rho0 is propagated: the final state is diagonal, because for
    these one-band channels the coherences never feed the populations. No
    per-step renormalization: a decaying trace exposes exactly the
    population lost through the truncated top level.
    """
    n_steps = int(n_steps)
    cycle = _population_cycle(g, e, m, float(gm), float(gp), float(p_at))
    d = np.diag(np.asarray(rho0, dtype=np.complex128)).copy()
    diag = np.empty((n_steps + 1, len(d)), dtype=np.float64)
    diag[0] = d.real
    for k in range(1, n_steps + 1):
        d = cycle(d)
        diag[k] = d.real
    # one row-wise reduction after the loop; each row sums exactly as diag[k].sum()
    return np.diag(d), diag, diag.sum(axis=1)


# an oracle, kept beside `evolve` because it iterates the same
# `_population_cycle`, which the leaf `oracle` cannot import
def evolve_to_fixed_point(
    g: np.ndarray,
    e: np.ndarray,
    m: np.ndarray,
    rho0: np.ndarray,
    gm: float,
    gp: float,
    p_at: float,
    tol: float = 1e-10,
    max_steps: int = 1_000_000,
) -> tuple[np.ndarray, int, float]:
    """Iterate with per-step trace renormalization until the max-norm change
    of the populations falls below tol; returns (state, steps, last change).

    As in `evolve`, only the diagonal of rho0 is carried and the returned
    state is diagonal. The stopping rule bounds the distance to the fixed
    point only by about tol / spectral gap, so this is an oracle for tests
    and `fockstab validate`; runs solve `step_matrix` with
    `thermal.stationary` instead.
    """
    cycle = _population_cycle(g, e, m, float(gm), float(gp), float(p_at))
    d = np.diag(np.asarray(rho0, dtype=np.complex128)).copy()
    d /= d.sum().real
    delta = math.inf
    for k in range(1, int(max_steps) + 1):
        nxt = cycle(d)
        nxt /= nxt.sum().real
        delta = float(np.abs(nxt - d).max())
        d = nxt
        if delta < tol:
            return np.diag(d), k, delta
    return np.diag(d), int(max_steps), delta
