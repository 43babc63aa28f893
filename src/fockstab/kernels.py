"""Population kernels of a banded channel and environment step.

All channels here are one-band ladder channels (see `kraus.bands`): M_g
raises the photon number by one, M_e is diagonal and M_m lowers it by one.
The environment step maps each matrix diagonal to itself as well. A cycle
therefore sends the population diagonal diag(rho) to a new diagonal, and the
coherences never feed it. On the diagonal the channel step A and the
environment step B are each a tridiagonal birth-death step, so the cycle
B((1-p)I + pA) is pentadiagonal: it moves population at most two levels.
Every recorded output (fidelity, V, trace, populations, stationary fidelity)
is a function of that diagonal.

`_population_cycle` applies, entry by entry, exactly the arithmetic that the
full-matrix cycle `oracle.thermal_step((1-p) rho + p oracle.channel_step(rho))`
applies on its diagonal, at O(dim) per cycle. `step_matrix` writes that cycle
as a real (dim, dim) matrix M, read off one cycle of five combs of levels
(bands stacked on a leading axis give a stack of them, one per channel),
and the runs read powers of it: K atoms are M^K. `record_rows` returns
every row M^k d0 of a recorded run from a stack of the first powers, one
matrix product per chunk of rows. The answer-only tables (decay rows,
Walther baselines, the tuning settle) read a handful of rows of horizons
up to 66,666 atoms straight from `np.linalg.matrix_power`. The Perron vector
of M (`thermal.stationary`) is every stationary population the program
reports.
The loops over the cycle are oracles for tests and `fockstab validate`:
`evolve` iterates it atom by atom, bit-identical to reading the diagonal of
the full-matrix cycle, and `evolve_to_fixed_point` iterates it with
renormalization until it settles. Only the sampled `--sample-atoms` runs,
whose map changes from atom to atom, still step the cycle one atom at a
time.

Index conventions (dim = D, 0-based levels):
    g[n] = <n+1|M_g|n>, g[D-1] = 0 (truncated top row)
    e[n] = <n|M_e|n>
    m[n] = <n-1|M_m|n>, m[0] = 0
    environment: out[i,j] = rho[i,j] (1 - gm(i+j)/2 - gp(i+j+2)/2)
                 + gm sqrt((i+1)(j+1)) rho[i+1,j+1] + gp sqrt(ij) rho[i-1,j-1]
"""

from __future__ import annotations

import functools
import math

import numpy as np

# rows per power-stack product in `record_rows`
RECORD_CHUNK = 64
# how far one cycle moves population, and the comb spacing of `step_matrix`
# that keeps the levels of one comb out of each other's reach
REACH = 2
COMB = 2 * REACH + 1

# kept for the benchmark's machine facts, which read it from this module
def active_backend() -> str:
    """The array library the kernels run on; always "numpy"."""
    return "numpy"


def _population_cycle(g, e, m, gm, gp, p_at):
    """The diagonal of one full-matrix cycle, as a function d -> d'.

    Bands are conjugated and the environment coefficients are formed once
    here; each entry then sees the same operations, in the same order, as the
    diagonal entry of `oracle.thermal_step((1-p) rho + p oracle.channel_step(rho))`.
    The levels run along the last axis, of the bands as of the diagonals, so
    a (batch, dim) stack of diagonals advances row by row with the same
    arithmetic, and bands with leading axes give one cycle per channel,
    broadcast against the diagonals.
    """
    g = np.asarray(g, dtype=np.complex128)
    e = np.asarray(e, dtype=np.complex128)
    m = np.asarray(m, dtype=np.complex128)
    g_lo, gc_lo = g[..., :-1], g[..., :-1].conj()
    m_hi, mc_hi = m[..., 1:], m[..., 1:].conj()
    ec = e.conj()
    mixing = p_at != 1.0
    keep = 1.0 - p_at
    environment = gm != 0.0 or gp != 0.0
    if environment:
        n = np.arange(e.shape[-1], dtype=np.float64)
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


@functools.lru_cache(maxsize=16)
def _combs(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (COMB, dim) unit combs of `step_matrix` and where their cycles land.

    Comb j holds a unit population on every level n = j (mod COMB). Entry i
    of its cycle is M[i, n] for the one such n within reach, |i - n| <= REACH,
    when that n lies in 0..dim-1. For every such (n, i), dst is the flat
    index of [n, i] in a (dim, dim) buffer and src that of [n % COMB, i] in
    the (COMB, dim) cycle. All three are read-only and cached per dim.
    """
    levels = np.arange(dim)
    combs = (levels % COMB == np.arange(COMB)[:, None]).astype(np.complex128)
    n = np.repeat(levels, COMB)
    i = (levels[:, None] + np.arange(-REACH, REACH + 1)).ravel()
    inside = (i >= 0) & (i < dim)
    n, i = n[inside], i[inside]
    dst, src = n * dim + i, n % COMB * dim + i
    for a in (combs, dst, src):
        a.setflags(write=False)
    return combs, dst, src


def step_matrix(
    g: np.ndarray,
    e: np.ndarray,
    m: np.ndarray,
    gm: float,
    gp: float,
    p_at: float,
) -> np.ndarray:
    """The real (dim, dim) matrix M of one population cycle, d' = M d.

    Column n is the engine's own cycle applied to the unit population on
    level n, so M is exactly the map that `evolve` iterates. The channel and
    environment steps are each tridiagonal, so the cycle B((1-p)I + pA) is
    pentadiagonal: level n reaches only levels n-2..n+2. One batched call of
    the cycle on the COMB = 5 combs of `_combs` therefore gives every column,
    each entry through the same arithmetic as the cycle of its unit vector
    alone, at O(dim) instead of O(dim^2). The entries are scattered into a
    zeroed complex buffer laid out as the cycle of the identity would be,
    and M is its real part transposed: the same strided layout as
    `cycle(np.eye(dim)).real.T`, because a C-contiguous M changes the
    rounding of the products in `record_rows` and `np.linalg.matrix_power`.

    Bands of shape (s, dim), one row per channel, give an (s, dim, dim)
    stack from the same one cycle call, on an (s, COMB, dim) batch; each
    item equals the single call on its row in values and in strides.
    """
    g, e, m = (np.asarray(band, dtype=np.complex128)[..., None, :] for band in (g, e, m))
    lead, dim = e.shape[:-2], e.shape[-1]
    combs, dst, src = _combs(dim)
    cycle = _population_cycle(g, e, m, float(gm), float(gp), float(p_at))
    buf = np.zeros((*lead, dim, dim), dtype=np.complex128)
    buf.reshape(*lead, -1)[..., dst] = cycle(combs).reshape(*lead, -1)[..., src]
    return buf.real.swapaxes(-1, -2)


def record_rows(m: np.ndarray, d0: np.ndarray, n_steps: int) -> np.ndarray:
    """Every population row M^k d0, k = 0..n_steps, as an (n_steps+1, dim) array.

    The powers M^1..M^L (L = RECORD_CHUNK, clipped to n_steps) are stacked
    once by repeated products; each further chunk of L rows is then one
    (L*dim, dim) product with the last row of the chunk before. The rows
    differ from the atom-by-atom loop `evolve` by rounding only, and were
    measured closer than the loop to a longdouble iteration of M. The raw
    trace of a row is its sum.
    """
    dim = len(d0)
    rows = np.empty((n_steps + 1, dim))
    rows[0] = d0
    if n_steps == 0:
        return rows
    chunk = min(RECORD_CHUNK, n_steps)
    powers = np.empty((chunk, dim, dim))
    powers[0] = m
    for j in range(1, chunk):
        np.matmul(m, powers[j - 1], out=powers[j])
    stack = powers.reshape(chunk * dim, dim)
    for start in range(0, n_steps, chunk):
        count = min(chunk, n_steps - start)
        rows[start + 1:start + 1 + count] = (stack[:count * dim] @ rows[start]).reshape(count, dim)
    return rows


# the loop oracle of `record_rows`, kept here because it iterates
# `_population_cycle`, which the leaf `oracle` cannot import
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


# an oracle, kept beside `evolve` for the same reason
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
