"""The dense reference route that tests and `fockstab validate` pin the
production path (ladder blocks -> bands -> step matrix -> `thermal.stationary`
or `kernels.record_rows`) to; no production run calls it.

A leaf module: it imports only `errors`, `fock` and `dynamics`, and takes
channels, thermal parameters, reduced dynamics and Lyapunov weights by their
attributes. `kraus`, `thermal` and `lyapunov` re-export the names that the
acceptance suite and the benchmark import from them.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from .dynamics import E, G, M, ReservoirParams, control_schedule, phase_adjusted
from .errors import AmbiguousSteadyStateError, ConfigError, DegenerateStateError
from .fock import _check_window

# a trace below this signals truncation leakage, not drift
TRACE_FLOOR = 1e-6
COMPLETENESS_APPLY_TOL = 1e-6
# top columns left out of kraus_deviation
DEVIATION_SKIPPED_TOP = 1
# the steady_state oracle's simple-root and power-iteration thresholds
ORACLE_GAP_TOL = 1e-10
ORACLE_POWER_TOL = 1e-12
SUPPORT_TOL = 1e-9


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


def sanitize(rho: np.ndarray) -> np.ndarray:
    """Hermitize and renormalize a slightly drifted density matrix.

    A trace below TRACE_FLOOR signals truncation leakage and raises instead
    of rescaling garbage.
    """
    herm = 0.5 * (rho + rho.conj().T)
    tr = np.trace(herm).real
    if tr < TRACE_FLOOR:
        raise DegenerateStateError(f"state trace {tr:.3e} below floor {TRACE_FLOOR:.1e}")
    return herm / tr


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


def build_hjc(u: float, params: ReservoirParams, field_dim: int) -> np.ndarray:
    """Joint Hamiltonian for control value u on 3*field_dim levels.

    H = (delta_m - u)|m><m| - (delta_g + u)|g><g|
        + i(omega/2) (adag (|g><e| + |e><m|) - a (|e><g| + |m><e|)).
    """
    if field_dim < params.nbar + 2:
        raise ConfigError(f"field_dim {field_dim} too small for nbar {params.nbar}")
    d = field_dim
    a = annihilation(d)
    adag = a.conj().T
    h = np.zeros((3 * d, 3 * d), dtype=np.complex128)
    h[G * d : (G + 1) * d, G * d : (G + 1) * d] = -(params.delta_g + u) * np.eye(d)
    h[M * d : (M + 1) * d, M * d : (M + 1) * d] = (params.delta_m - u) * np.eye(d)
    coup = 0.5j * params.omega * adag
    h[G * d : (G + 1) * d, E * d : (E + 1) * d] = coup
    h[E * d : (E + 1) * d, M * d : (M + 1) * d] = coup
    h[E * d : (E + 1) * d, G * d : (G + 1) * d] = coup.conj().T
    h[M * d : (M + 1) * d, E * d : (E + 1) * d] = coup.conj().T
    return h


def ladder_blocks(field_dim: int) -> list[np.ndarray]:
    """Joint-index groups left invariant by the interaction.

    Block n collects the existing members of (|g,n+1>, |e,n>, |m,n-1>); the
    edges contribute the singletons |g,0> and |m,dim-1> and two pairs.
    """
    d = field_dim
    blocks: list[list[int]] = [[G * d + 0]]
    for n in range(d):
        idx = []
        if n + 1 <= d - 1:
            idx.append(G * d + n + 1)
        idx.append(E * d + n)
        if n - 1 >= 0:
            idx.append(M * d + n - 1)
        blocks.append(idx)
    blocks.append([M * d + d - 1])
    return [np.array(b, dtype=np.intp) for b in blocks]


def propagate(h: np.ndarray, t: float) -> np.ndarray:
    """Exact propagator exp(-i h t) of a ladder-block Hamiltonian.

    Each invariant block (at most 3x3) is exponentiated through its Hermitian
    eigendecomposition, so the result is unitary on the truncated joint space
    to machine precision. Raises if h is not Hermitian or couples levels
    outside the ladder blocks.
    """
    if t < 0:
        raise ConfigError(f"propagation time must be nonnegative, got {t}")
    scale = max(1.0, float(np.abs(h).max()))
    defect = float(np.abs(h - h.conj().T).max())
    if defect > 1e-12 * scale:
        raise ValueError(f"Hamiltonian not Hermitian: relative defect {defect / scale:.3e}")
    if h.shape[0] % 3 != 0:
        raise ConfigError(f"joint dimension {h.shape[0]} is not a multiple of 3")
    d = h.shape[0] // 3
    blocks = ladder_blocks(d)
    mask = np.zeros(h.shape, dtype=bool)
    for idx in blocks:
        mask[np.ix_(idx, idx)] = True
    stray = float(np.abs(h[~mask]).max()) if (~mask).any() else 0.0
    if stray > 1e-9 * scale:
        raise ValueError(f"Hamiltonian couples levels across ladder blocks (max {stray:.3e})")
    u = np.zeros_like(h)
    for idx in blocks:
        hb = h[np.ix_(idx, idx)]
        w, v = np.linalg.eigh(hb)
        u[np.ix_(idx, idx)] = (v * np.exp(-1j * w * t)) @ v.conj().T
    return u


def dense_composite(params: ReservoirParams, dim: int) -> np.ndarray:
    """Cycle propagator through the dense route: one full joint propagator
    per segment, multiplied latest-first."""
    eff = phase_adjusted(params)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        schedule = control_schedule(eff)
    u = np.eye(3 * dim, dtype=np.complex128)
    for duration, u_val in schedule.segments:
        u = propagate(build_hjc(u_val, eff, dim), duration) @ u
    return u


def dense_kraus_operators(u: np.ndarray) -> list[np.ndarray]:
    """M_g, M_e, M_m of an atom entering in |e>: the blocks U[x, E] of a joint (3*dim, 3*dim) matrix."""
    d = u.shape[0] // 3
    return [u[x * d : (x + 1) * d, E * d : (E + 1) * d] for x in (G, E, M)]


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U^dag U - I."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def dense_channel(k, rho: np.ndarray) -> np.ndarray:
    """The channel sum_x M_x rho M_x^dag of k's dense operators (no sanitization)."""
    return k.m_g @ rho @ k.m_g.conj().T + k.m_e @ rho @ k.m_e.conj().T + k.m_m @ rho @ k.m_m.conj().T


def apply_map(k, rho: np.ndarray) -> np.ndarray:
    """One channel application rho -> sum_x M_x rho M_x^dag, sanitized."""
    if rho.shape != (k.dim, k.dim):
        raise ConfigError(f"state shape {rho.shape} does not match channel dim {k.dim}")
    if k.completeness_defect >= COMPLETENESS_APPLY_TOL:
        raise ValueError(
            f"channel completeness defect {k.completeness_defect:.3e} too large to apply"
        )
    return sanitize(dense_channel(k, rho))


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


def kraus_deviation(extracted, reference) -> float:
    """Max-norm distance between channels after per-operator phase alignment.

    The last DEVIATION_SKIPPED_TOP columns are left out: the top truncated
    level has no raising partner, so there the exact boundary block and the
    closed form differ by design at any detuning, independently of the model
    error this distance is meant to measure.
    """
    dev = 0.0
    stop = extracted.dim - DEVIATION_SKIPPED_TOP
    for a, b in ((extracted.m_g, reference.m_g), (extracted.m_e, reference.m_e), (extracted.m_m, reference.m_m)):
        aligned = align_phase(a[:, :stop], b[:, :stop])
        dev = max(dev, float(np.abs(aligned - b[:, :stop]).max()))
    return dev


def channel_step(g: np.ndarray, e: np.ndarray, m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """rho -> M_g rho M_g^dag + M_e rho M_e^dag + M_m rho M_m^dag (banded)."""
    rho = np.asarray(rho, dtype=np.complex128)
    out = (e[:, None] * rho) * e.conj()[None, :]
    out[1:, 1:] += (g[:-1, None] * rho[:-1, :-1]) * g.conj()[None, :-1]
    out[:-1, :-1] += (m[1:, None] * rho[1:, 1:]) * m.conj()[None, 1:]
    return out


def dense_thermal(rho: np.ndarray, gm: float, gp: float) -> np.ndarray:
    """The environment step D through its operator formula (no sanitization):

    D[s] = s - (gm/2)(N s + s N - 2 a s adag) - (gp/2)((N+I) s + s (N+I) - 2 adag s a).
    """
    dim = rho.shape[0]
    a = annihilation(dim)
    adag = a.conj().T
    n_op = number_op(dim)
    out = rho - 0.5 * gm * (n_op @ rho + rho @ n_op - 2.0 * a @ rho @ adag)
    return out - 0.5 * gp * ((n_op + np.eye(dim)) @ rho + rho @ (n_op + np.eye(dim)) - 2.0 * adag @ rho @ a)


def thermal_step(rho: np.ndarray, gm: float, gp: float) -> np.ndarray:
    """First-order photon loss/gain step D, entry by entry (no sanitization):

    out[i,j] = rho[i,j] (1 - gm(i+j)/2 - gp(i+j+2)/2)
               + gm sqrt((i+1)(j+1)) rho[i+1,j+1] + gp sqrt(ij) rho[i-1,j-1]
    """
    rho = np.asarray(rho, dtype=np.complex128)
    dim = rho.shape[0]
    n = np.arange(dim, dtype=np.float64)
    out = rho * (1.0 - 0.5 * gm * (n[:, None] + n[None, :]) - 0.5 * gp * (n[:, None] + n[None, :] + 2.0))
    root = np.sqrt(n + 1.0)
    out[:-1, :-1] += gm * np.outer(root[:-1], root[:-1]) * rho[1:, 1:]
    out[1:, 1:] += gp * np.outer(root[:-1], root[:-1]) * rho[:-1, :-1]
    return out


def decoherence_step(rho: np.ndarray, tp) -> np.ndarray:
    """Apply the first-order environment step D to a state, then sanitize.

    The trace changes only through the dropped top-level excitation,
    by at most gamma_plus * dim * rho[dim-1, dim-1].
    """
    tp.check_step_validity(rho.shape[0])
    return sanitize(thermal_step(rho, tp.gamma_minus, tp.gamma_plus))


def reservoir_step(rho: np.ndarray, k, tp) -> np.ndarray:
    """One full cycle: atomic channel with presence probability, then environment."""
    mixed = (1.0 - tp.p_at) * rho + tp.p_at * apply_map(k, rho)
    return decoherence_step(mixed, tp)


def steady_state(rd, p_at: float) -> np.ndarray:
    """Stationary population vector of the reduced cycle map `rd.step_matrix(p_at)`.

    Solves (B A_eff - I) r = 0 with the normalization row appended (a
    deterministic least-squares problem), verifies the unit eigenvalue is
    simple, and cross-checks the solution as a fixed point of normalized
    power iteration to below ORACLE_POWER_TOL. It refuses any gap below 1e-7.
    Production runs use `thermal.stationary`; this independent route is kept
    for the tests, `fockstab validate` and the benchmark's checks.
    """
    m = rd.step_matrix(p_at)
    dim = m.shape[0]
    lam = np.linalg.eigvals(m)
    dist = np.sort(np.abs(lam - 1.0))
    gap = float(dist[1]) if len(dist) > 1 else 1.0
    if gap < ORACLE_GAP_TOL:
        raise AmbiguousSteadyStateError(
            f"unit eigenvalue is not simple: nearest distances {dist[0]:.3e}, {dist[1]:.3e}"
        )
    if gap < 1e-7:
        # the direct solve loses ~1/gap digits and the cross-check cannot
        # certify the result within any reasonable iteration budget
        raise AmbiguousSteadyStateError(
            f"spectral gap {gap:.3e} too small to certify a stationary vector"
        )
    system = np.vstack([m - np.eye(dim), np.ones((1, dim))])
    rhs = np.zeros(dim + 1)
    rhs[-1] = 1.0
    r, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    if r.min() < -1e-10:
        raise AmbiguousSteadyStateError(f"stationary vector has negative entry {r.min():.3e}")
    r = r / r.sum()
    v = r.copy()
    # starting from an accurate direct solve, the iteration certifies within a
    # few steps; a persistent residual means the solve cannot be trusted
    for _ in range(1000):
        nxt = m @ v
        nxt /= nxt.sum()
        delta = float(np.abs(nxt - v).max())
        v = nxt
        if delta < ORACLE_POWER_TOL:
            break
    else:
        raise AmbiguousSteadyStateError(f"power iteration stalled at residual {delta:.3e}")
    if float(np.abs(v - r).max()) > 1e-8:
        raise AmbiguousSteadyStateError("linear-solve and power-iteration fixed points disagree")
    return r


def evaluate_v(rho: np.ndarray, w) -> float:
    """V(rho) = sum_n f(n) rho[n, n] for Lyapunov weights w."""
    if rho.shape[0] != w.dim:
        raise ConfigError(f"state dim {rho.shape[0]} does not match weights dim {w.dim}")
    diag = np.diag(rho)
    if np.abs(diag.imag).max() > 1e-10:
        raise ValueError("state diagonal has non-negligible imaginary part")
    return float(w.f @ diag.real)


def lyapunov_decrement(k, w, rho: np.ndarray) -> tuple[float, float]:
    """Measured and predicted per-cycle change of V.

    Returns (V(Phi(rho)) - V(rho), sum_n q(n) rho[n, n]); the two agree to
    rounding for the analytic channel at the trapping area with phi = 0, and
    are strictly negative unless rho is the target state. rho must be
    supported in the window 0..plateau.
    """
    if not support_in(rho, 0, w.plateau, SUPPORT_TOL):
        raise ConfigError(f"state has support outside levels 0..{w.plateau}")
    delta_v = evaluate_v(apply_map(k, rho), w) - evaluate_v(rho, w)
    predicted = float(w.q @ np.diag(rho).real)
    return delta_v, predicted
