"""Three-level Jaynes-Cummings dynamics under a piecewise-constant Stark control.

Joint operators act on atom (x) field with atom levels ordered (g, e, m) and
joint index x*dim + n, so a (3*dim, 3*dim) matrix splits into nine dim x dim
field blocks. The interaction couples only |g,n+1>, |e,n>, |m,n-1|, so every
joint Hamiltonian built here is block-diagonal over those triples (pairs or
singletons at the truncation edges). `composite_propagator` works on the
stacked (dim, 3, 3) triples directly, one Hermitian eigendecomposition per
distinct pulse segment (the two outer segments share one), and returns them
as a `LadderPropagator`; given several points (apart in phase and theta1)
it stacks their triples too, one (points, dim, 3, 3) stack per segment. The
dense route (`oracle.build_hjc`, `oracle.propagate`, compared through
`LadderPropagator.dense`) is the reference that tests and `fockstab
validate` pin it to.

The control u shifts the middle atomic level: u = -delta_g makes the (g, e)
transition resonant, u = +delta_m makes (e, m) resonant. One reservoir cycle
is resonant-(g,e) for theta1, resonant-(e,m) for theta2, resonant-(g,e) for
theta1 again (pulse areas in radians).
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

G, E, M = 0, 1, 2

UNITARY_TOL = 1e-10


def trapping_theta1(nbar: int) -> float:
    """Pulse area theta1 = pi/sqrt(nbar+1) that freezes the target level."""
    return math.pi / math.sqrt(nbar + 1)


# the trapping area fixes every level the scheme relies on: the target nbar,
# the top of the window the convergence theorem covers, and the second dark
# level (a trapping state of the resonant two-level scheme)
def window_top(nbar: int) -> int:
    """Last level of the invariant window, 4*nbar + 3."""
    return 4 * nbar + 3


def ladder_top(nbar: int) -> int:
    """Second dark level 9*nbar + 8 (the next rung of the invariant ladder)."""
    return 9 * nbar + 8


def default_dim(nbar: int) -> int:
    """Default field truncation, one level past the second dark level."""
    return ladder_top(nbar) + 1


@dataclass(frozen=True)
class ReservoirParams:
    """Control and interaction parameters for one reservoir cycle.

    omega is the vacuum coupling rate (rad/s); delta_g and delta_m are the
    bare detunings of the two atomic transitions from the field mode (rad/s);
    theta1 and theta2 are the pulse areas of the outer and middle segments;
    phi is the target value of the phase delta_bar * t_s accumulated during
    the middle segment (realized by shifting delta_m, see `phase_delta_m`);
    Ts is the atom repetition period (s).
    """

    nbar: int
    omega: float
    delta_g: float
    delta_m: float
    theta1: float
    theta2: float
    phi: float = 0.0
    Ts: float = 60e-6

    def __post_init__(self) -> None:
        if self.nbar < 1:
            raise ConfigError(f"nbar must be >= 1, got {self.nbar}")
        if self.omega <= 0:
            raise ConfigError(f"omega must be positive, got {self.omega}")
        if self.theta1 <= 0:
            raise ConfigError(f"theta1 must be positive, got {self.theta1}")
        if self.theta2 < 0:
            raise ConfigError(f"theta2 must be nonnegative, got {self.theta2}")
        if self.interaction_time > self.Ts:
            raise ConfigError(
                f"interaction time {self.interaction_time:.3e} s exceeds period {self.Ts:.3e} s"
            )
        if self.delta_bar < 20 * self.omega:
            warnings.warn(
                f"detuning ratio delta_bar/omega = {self.delta_bar / self.omega:.1f} < 20; "
                "the separate-resonance picture degrades",
                stacklevel=2,
            )

    @property
    def delta_bar(self) -> float:
        return abs(self.delta_g + self.delta_m)

    @property
    def t_s(self) -> float:
        """Duration of the middle (e, m)-resonant segment."""
        return self.theta2 / self.omega

    @property
    def interaction_time(self) -> float:
        """Total duration T = 2*theta1/omega + theta2/omega of one cycle."""
        return (2.0 * self.theta1 + self.theta2) / self.omega


def make_params(
    nbar: int,
    theta2: float,
    theta1: float | None = None,
    omega: float = 2 * math.pi * 50e3,
    delta_ratio: float = 100.0,
    Ts: float = 60e-6,
    phi: float = 0.0,
) -> ReservoirParams:
    """ReservoirParams with the realistic cavity defaults.

    omega/2pi = 50 kHz, delta_bar = delta_ratio * omega split evenly between
    the two transitions, Ts = 60 us. theta1 defaults to the trapping value.
    """
    if theta1 is None:
        theta1 = trapping_theta1(nbar)
    half = 0.5 * delta_ratio * omega
    return ReservoirParams(
        nbar=nbar, omega=omega, delta_g=half, delta_m=half,
        theta1=theta1, theta2=theta2, phi=phi, Ts=Ts,
    )


def phase_delta_m(params: ReservoirParams, phi: float) -> float:
    """delta_m shifted so the middle segment accumulates exactly the phase phi.

    The shift delta satisfies (delta_bar + delta) * t_s = phi (mod 2pi) with
    the smallest magnitude, mirroring the experimental knob of slightly
    retuning the field mode frequency. With theta2 = 0 there is no middle
    segment and phi must be 0; a middle segment that rounds to 0 s is refused
    by `control_schedule`, as for any phi.
    """
    if params.theta2 == 0.0:
        if phi != 0.0:
            raise ConfigError("phi is not realizable with theta2 = 0 (no middle segment)")
        return params.delta_m
    t_s = control_schedule(params)[1][0]
    mismatch = (phi - params.delta_bar * t_s + math.pi) % (2 * math.pi) - math.pi
    return params.delta_m + mismatch / t_s


def control_schedule(params: ReservoirParams, delta_m: float | None = None) -> tuple[tuple[float, float], ...]:
    """The three-segment Stark control as (duration, u) segments in time order:
    u = (-delta_g, +delta_m, -delta_g).

    Outer segments last (T - t_s)/2 = theta1/omega each, the middle one t_s.
    delta_m defaults to params.delta_m. theta2 = 0 degenerates to the single
    resonant segment of the plain trapping scheme.
    """
    outer = params.theta1 / params.omega
    if params.theta2 == 0.0:
        segments = ((2.0 * outer, -params.delta_g),)
    else:
        middle = params.delta_m if delta_m is None else delta_m
        segments = ((outer, -params.delta_g), (params.t_s, middle), (outer, -params.delta_g))
    if any(d <= 0 for d, _ in segments):
        raise ConfigError("schedule segments must have positive durations")
    return segments


def ladder_hamiltonians(
    u: float | np.ndarray,
    params: ReservoirParams,
    field_dim: int,
    delta_m: float | np.ndarray | None = None,
) -> np.ndarray:
    """The ladder-block restrictions of `oracle.build_hjc`, shape (..., field_dim, 3, 3).

    Block n is the Hamiltonian on (|g,n+1>, |e,n>, |m,n-1>) in that order.
    The members outside the truncation, |m,-1> (its coupling sqrt(0) is
    exactly 0) and |g,dim> (its coupling is set to 0), stay in the stack as
    decoupled placeholders at their bare energies. The singletons |g,0> and
    |m,dim-1> are not included. delta_m defaults to params.delta_m; when u
    or delta_m is an array with one value per stacked point, the stack gains
    that leading axis.
    """
    if field_dim < params.nbar + 2:
        raise ConfigError(f"field_dim {field_dim} too small for nbar {params.nbar}")
    d = field_dim
    root = np.sqrt(np.arange(d + 1, dtype=np.float64))
    up = 0.5j * params.omega * root[1:]  # <g,n+1| H |e,n>
    up[-1] = 0.0
    down = 0.5j * params.omega * root[:-1]  # <e,n| H |m,n-1>
    # delta_m - u carries the point axis of either; the bare energies get a
    # trailing level axis to broadcast over the levels
    bare_m = np.asarray((params.delta_m if delta_m is None else delta_m) - u)
    h = np.zeros(bare_m.shape + (d, 3, 3), dtype=np.complex128)
    h[..., G, G] = np.asarray(-(params.delta_g + u))[..., None]
    h[..., M, M] = bare_m[..., None]
    h[..., G, E] = up
    h[..., E, G] = up.conj()
    h[..., E, M] = down
    h[..., M, E] = down.conj()
    return h


@functools.lru_cache(maxsize=16)
def ladder_members(field_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Field levels of the ladder-block members and which block entries exist.

    levels[n] = (n+1, n, n-1) are the levels of (|g,n+1>, |e,n>, |m,n-1>).
    exists[n, i, j] is False where member i or j is a placeholder outside
    the truncation: |g,dim> (levels[dim-1, G] = dim) or |m,-1> (levels[0, M] = -1).
    Both are read-only and cached per field_dim.
    """
    d = field_dim
    levels = np.arange(d)[:, None] + 1 - np.arange(3)
    member = (levels >= 0) & (levels < d)
    exists = member[:, :, None] & member[:, None, :]
    levels.setflags(write=False)
    exists.setflags(write=False)
    return levels, exists


@dataclass(frozen=True)
class LadderPropagator:
    """A ladder-preserving joint propagator, held as its blocks.

    blocks[n] (shape (dim, 3, 3)) acts on (|g,n+1>, |e,n>, |m,n-1>) in that
    order; phase_g0 and phase_m_top are the singletons |g,0> and |m,dim-1>.
    Rows and columns of the placeholder members (see `ladder_members`) carry
    no meaning and are never read. Every other joint entry is zero, so the
    operator cannot hold weight off the ladder. `dense()` gives the
    (3*dim, 3*dim) matrix to compare with the dense route of `oracle`.

    A stack of propagators, one per point, has blocks of shape
    (points, dim, 3, 3) and singleton phases of shape (points,); `dense()`
    takes a single propagator.
    """

    blocks: np.ndarray
    phase_g0: complex | np.ndarray
    phase_m_top: complex | np.ndarray

    @property
    def dim(self) -> int:
        return self.blocks.shape[-3]

    def dense(self) -> np.ndarray:
        """The joint (3*dim, 3*dim) matrix, zero off the ladder blocks and singletons."""
        d = self.dim
        levels, exists = ladder_members(d)
        joint = levels + d * np.arange(3)
        rows = np.broadcast_to(joint[:, :, None], exists.shape)
        cols = np.broadcast_to(joint[:, None, :], exists.shape)
        u = np.zeros((3 * d, 3 * d), dtype=np.complex128)
        u[rows[exists], cols[exists]] = self.blocks[exists]
        u[G * d, G * d] = self.phase_g0
        u[M * d + d - 1, M * d + d - 1] = self.phase_m_top
        return u


def check_points(params: ReservoirParams, points: Sequence[ReservoirParams]) -> None:
    """Refuse stack points that differ from params in more than phi and theta1."""
    if any(vars(p) | {"phi": params.phi, "theta1": params.theta1} != vars(params) for p in points):
        raise ConfigError("stacked points may differ from params only in phi and theta1")


def composite_propagator(
    params: ReservoirParams,
    field_dim: int,
    points: Sequence[ReservoirParams] | None = None,
) -> LadderPropagator:
    """Propagator of the full three-segment cycle, in time order.

    delta_m is first adjusted so the accumulated middle-segment phase equals
    params.phi. Each distinct (duration, control) segment diagonalizes the
    stacked ladder blocks at once, so the third segment reuses the first's
    propagator: two `eigh` calls per cycle, one for the single segment of
    theta2 = 0. The block propagators are multiplied latest-first, and each
    singleton phase is the exponential of its accumulated bare-energy phase,
    both in time order.

    Given points (see `check_points`), the result is a stack with one
    propagator per point, each equal bit for bit to its own call: delta_m,
    the durations and the controls become arrays over the points, and each
    segment is one `eigh` call over all points and levels.
    """
    if points is None:
        delta_m = phase_delta_m(params, params.phi)
        schedule = control_schedule(params, delta_m)
    else:
        check_points(params, points)
        delta_m = np.array([phase_delta_m(p, p.phi) for p in points])
        per_point = list(map(control_schedule, points, delta_m))
        # per segment, its durations and its controls as arrays over the points
        schedule = [tuple(map(np.array, zip(*segment))) for segment in zip(*per_point)]
    blocks = None
    angle_g = angle_m = np.zeros(np.shape(delta_m))
    segs = {}
    for duration, u_val in schedule:
        # the two outer segments share (duration, control), so one
        # eigendecomposition serves both
        key = (np.asarray(duration).tobytes(), np.asarray(u_val).tobytes())
        if key not in segs:
            w, v = np.linalg.eigh(ladder_hamiltonians(u_val, params, field_dim, delta_m))
            # transposed, the points' axis is last, where each point's duration broadcasts
            segs[key] = (v * np.exp((-1j * w.T * duration).T)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        seg = segs[key]
        blocks = seg if blocks is None else seg @ blocks
        angle_g = angle_g + (params.delta_g + u_val) * duration
        angle_m = angle_m - (delta_m - u_val) * duration
    return LadderPropagator(blocks, np.exp(1j * angle_g), np.exp(1j * angle_m))
