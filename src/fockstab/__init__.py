"""Stabilization of cavity Fock states by a stream of three-level atoms.

Subpackages cover the truncated Fock-space states (`fock`), the exact
piecewise-constant three-level dynamics (`dynamics`), the induced Kraus
channels (`kraus`), the discrete-time Lyapunov certificate (`lyapunov`), the
thermal environment and its reduced diagonal dynamics (`thermal`), the population
kernels (`kernels`) and the experiment runners plus CLI
(`config`/`experiments`/`output`/`cli`). The dense operator route that tests
and `fockstab validate` pin all of these to is one leaf module, `oracle`.
Its one production caller is `validation`, the rows of `fockstab validate`.
"""

__version__ = "0.1.0"
