"""Strict Lyapunov certificate for the analytic channel at the trapping area.

The weights f(n) are built outward from f(nbar) = 0, f(nbar +/- 1) = 1 by a
two-sided recurrence chosen so that the per-cycle decrement of
V(rho) = trace(f_N rho) is exactly trace(q_N rho) with q strictly negative on
the invariant window except at the target level. Both V and q act only on the
diagonal of rho, so the identity holds for every state, not just trajectories.
Its check through the dense channel, `oracle.lyapunov_decrement`, belongs to
the reference route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import window_top
from .errors import ConfigError
from .kraus import transition_rates, trapping_angles
# re-exported: the acceptance suite imports it from here
from .oracle import lyapunov_decrement  # noqa: F401

DEFAULT_ETA = 0.5
THETA2_TOL = 1e-9


def validate_theta2(theta2: float, nbar: int, tol: float = THETA2_TOL) -> bool:
    """True iff theta2 > 0 avoids every resonance k*pi/sqrt(n), n = 1..4*nbar+3.

    At a resonance some transition rate vanishes and the weight recurrence
    loses strict monotonicity.
    """
    return theta2 > 0 and _offending_resonance(theta2, nbar, tol) is None


def _offending_resonance(theta2: float, nbar: int, tol: float) -> tuple[int, int] | None:
    """The first (n, k) with k*pi/sqrt(n) within tol of theta2, n = 1..4*nbar+3, or None."""
    top = window_top(nbar)
    kmax = math.ceil(theta2 * math.sqrt(top) / math.pi) + 1
    for n in range(1, top + 1):
        for k in range(1, kmax + 1):
            if abs(theta2 - k * math.pi / math.sqrt(n)) < tol:
                return n, k
    return None


@dataclass(frozen=True)
class LyapunovWeights:
    """Weight sequence f and per-level decrement rates q on dim levels.

    up_inc[n] = f(n) - f(n-1) for nbar < n <= plateau and
    down_inc[n] = f(n) - f(n+1) for 0 <= n < nbar are carried through the
    recurrences as running products: far from the target they shrink below the
    resolution of the stored f, but q built from them keeps its strict sign.
    """

    nbar: int
    eta: float
    theta2: float
    f: np.ndarray
    q: np.ndarray
    plateau: int
    up_inc: np.ndarray
    down_inc: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.f)


def build_weights(
    nbar: int,
    theta2: float,
    eta: float = DEFAULT_ETA,
    dim: int | None = None,
    plateau: int | None = None,
) -> LyapunovWeights:
    """Construct the weights f and decrement rates q.

    Downward for 0 < n < nbar:  f(n-1) = f(n) + eta sin^2(a_n/2) cos^2(b_n/2) (f(n) - f(n+1))
    Upward for nbar < n < top:  f(n+1) = f(n) + eta sin^2(b_n/2) (f(n) - f(n-1))

    with a_n = pi sqrt((n+1)/(nbar+1)), b_n = theta2 sqrt(n)/2, and f constant
    above `plateau` (default 4*nbar+3). Passing plateau = 9*nbar+8 gives the
    extended non-strict certificate valid up to the second dark level.
    """
    if nbar < 1:
        raise ConfigError(f"nbar must be >= 1, got {nbar}")
    if not 0 < eta < 1:
        raise ConfigError(f"eta must lie in (0, 1), got {eta}")
    if plateau is None:
        plateau = window_top(nbar)
    if plateau <= nbar:
        raise ConfigError(f"plateau {plateau} must exceed nbar {nbar}")
    if dim is None:
        dim = plateau + 1
    if dim <= plateau:
        raise ConfigError(f"dim {dim} must exceed the plateau level {plateau}")
    if theta2 <= 0:
        raise ConfigError(f"theta2 must be positive for a certificate, got {theta2}")
    resonance = _offending_resonance(theta2, nbar, THETA2_TOL)
    if resonance is not None:
        raise ConfigError(
            f"theta2 = {theta2:.12g} is within {THETA2_TOL:.1e} of the resonance "
            f"k*pi/sqrt(n) with (n, k) = {resonance}"
        )

    f = np.zeros(dim, dtype=np.float64)
    down_inc = np.zeros(dim, dtype=np.float64)  # down_inc[n] = f(n) - f(n+1), n < nbar
    up_inc = np.zeros(dim, dtype=np.float64)  # up_inc[n] = f(n) - f(n-1), n > nbar
    f[nbar - 1] = 1.0
    down_inc[nbar - 1] = 1.0
    f[nbar + 1] = 1.0
    up_inc[nbar + 1] = 1.0
    for n in range(nbar - 1, 0, -1):
        alpha, beta = trapping_angles(nbar, theta2, n)
        gain = eta * math.sin(0.5 * alpha) ** 2 * math.cos(0.5 * beta) ** 2
        down_inc[n - 1] = gain * down_inc[n]
        f[n - 1] = f[n] + down_inc[n - 1]
    for n in range(nbar + 1, plateau):
        _, beta = trapping_angles(nbar, theta2, n)
        up_inc[n + 1] = eta * math.sin(0.5 * beta) ** 2 * up_inc[n]
        f[n + 1] = f[n] + up_inc[n + 1]
    f[plateau + 1 :] = f[plateau]

    q = np.zeros(dim, dtype=np.float64)
    for n in range(0, nbar):
        _, beta = trapping_angles(nbar, theta2, n)
        _, e_n = transition_rates(nbar, theta2, n)
        q[n] = e_n * (eta * math.sin(0.5 * beta) ** 2 - 1.0) * down_inc[n]
    for n in range(nbar + 1, plateau + 1):
        alpha, beta = trapping_angles(nbar, theta2, n)
        d_n, _ = transition_rates(nbar, theta2, n)
        q[n] = d_n * (eta * math.sin(0.5 * alpha) ** 2 * math.cos(0.5 * beta) ** 2 - 1.0) * up_inc[n]

    w = LyapunovWeights(
        nbar=nbar, eta=eta, theta2=theta2, f=f, q=q, plateau=plateau,
        up_inc=up_inc, down_inc=down_inc,
    )
    _check_shape(w)
    return w


def _check_shape(w: LyapunovWeights) -> None:
    """Monotonicity and sign structure implied by a valid theta2."""
    nbar = w.nbar
    if not np.all(w.down_inc[:nbar] > 0):
        raise ConfigError("weights are not strictly decreasing below the target level")
    if not np.all(w.up_inc[nbar + 1 : w.plateau + 1] > 0):
        raise ConfigError("weights are not strictly increasing above the target level")
    q = w.q
    strict = [n for n in range(w.plateau + 1) if n != nbar and not q[n] < 0]
    if w.plateau == window_top(nbar) and strict:
        raise ConfigError(f"decrement rate not strictly negative at levels {strict}")
