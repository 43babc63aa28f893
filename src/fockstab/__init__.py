"""Stabilization of cavity Fock states by a stream of three-level atoms.

Subpackages cover the truncated Fock-space states (`fock`), the exact
piecewise-constant three-level dynamics (`dynamics`), the induced Kraus
channels (`kraus`), the discrete-time Lyapunov certificate (`lyapunov`), the
thermal environment and its reduced diagonal dynamics (`thermal`), the population
kernels (`kernels`) and the experiment runners plus CLI
(`config`/`experiments`/`output`/`cli`). The dense operator route that tests
and `fockstab validate` pin all of these to is one leaf module, `oracle`.
"""

__version__ = "0.1.0"

from .dynamics import LadderPropagator, ReservoirParams, composite_propagator, make_params, trapping_theta1
from .fock import fock_density
from .kraus import KrausSet, analytic_kraus, extract_kraus, walther_kraus
from .lyapunov import LyapunovWeights, build_weights, validate_theta2
from .thermal import ReducedDynamics, ThermalParams, build_reduced, steady_population_correction

__all__ = [
    "__version__",
    "LadderPropagator",
    "ReservoirParams",
    "composite_propagator",
    "make_params",
    "trapping_theta1",
    "fock_density",
    "KrausSet",
    "analytic_kraus",
    "extract_kraus",
    "walther_kraus",
    "LyapunovWeights",
    "build_weights",
    "validate_theta2",
    "ReducedDynamics",
    "ThermalParams",
    "build_reduced",
    "steady_population_correction",
]
