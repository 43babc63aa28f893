"""Stabilization of cavity Fock states by a stream of three-level atoms.

Subpackages cover the truncated Fock-space primitives (`fock`), the exact
piecewise-constant three-level dynamics (`dynamics`), the induced Kraus
channels (`kraus`), the discrete-time Lyapunov certificate (`lyapunov`), the
thermal environment and its reduced diagonal dynamics (`thermal`), the fast
iteration kernels (`kernels`) and the experiment runners plus CLI
(`config`/`experiments`/`output`/`cli`).
"""

__version__ = "0.1.0"

from .dynamics import LadderPropagator, ReservoirParams, composite_propagator, make_params, trapping_theta1
from .fock import annihilation, creation, fidelity, fock_density, number_function, sanitize
from .kraus import KrausSet, analytic_kraus, apply_map, extract_kraus, walther_kraus
from .lyapunov import LyapunovWeights, build_weights, evaluate_v, lyapunov_decrement, validate_theta2
from .thermal import ReducedDynamics, ThermalParams, build_reduced, decoherence_step, reservoir_step, steady_population_correction, steady_state

__all__ = [
    "__version__",
    "LadderPropagator",
    "ReservoirParams",
    "composite_propagator",
    "make_params",
    "trapping_theta1",
    "annihilation",
    "creation",
    "fidelity",
    "fock_density",
    "number_function",
    "sanitize",
    "KrausSet",
    "analytic_kraus",
    "apply_map",
    "extract_kraus",
    "walther_kraus",
    "LyapunovWeights",
    "build_weights",
    "evaluate_v",
    "lyapunov_decrement",
    "validate_theta2",
    "ReducedDynamics",
    "ThermalParams",
    "build_reduced",
    "decoherence_step",
    "reservoir_step",
    "steady_population_correction",
    "steady_state",
]
