"""Span tracing around calls into fockstab's layers, and the per-layer metrics.

The tracer replaces a function at every name it is reachable under in the
loaded fockstab modules (``experiments`` imports ``composite_propagator``,
``steady_state`` and others by name, so patching the defining module alone
would miss those calls). Each call records a span (id, name, start, end,
parent, error) in memory; ``uninstall`` puts the original objects back. The
program itself is not modified: all spans come from the benchmark's wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

# bytes of state one density-matrix cycle must touch at least: one read and
# one write of the dim x dim complex128 state (computed, not measured)
STATE_PASSES_PER_CYCLE = 2
COMPLEX_BYTES = 16


def _evolve_extra(args, kwargs, result) -> dict[str, int]:
    steps = kwargs["n_steps"] if "n_steps" in kwargs else args[7]
    return {"dim": len(args[3]), "cycles": int(steps)}


def _fixed_point_extra(args, kwargs, result) -> dict[str, int]:
    return {"dim": len(args[3]), "cycles": int(result[1])}


# "<module>.<function>" -> extra fields read from (args, kwargs, result)
TARGETS: dict[str, Callable | None] = {
    "cli.main": None,
    "dynamics.composite_propagator": None,
    "kraus.extract_kraus": None,
    "kraus.analytic_kraus": None,
    "kraus.walther_kraus": None,
    "kraus.bands": None,
    "kernels.evolve": _evolve_extra,
    "kernels.evolve_to_fixed_point": _fixed_point_extra,
    "thermal.steady_state": None,
    "thermal.reduced_from_channel": None,
    "thermal.build_reduced": None,
    "thermal.steady_population_correction": None,
    "experiments.tune_phase": None,
    "experiments.build_channel": None,
    "experiments.steady_fidelity": None,
    "output.record_table": None,
    "output.write_csv": None,
    "output.write_json": None,
    "lyapunov.build_weights": None,
}


class Tracer:
    """Records nested call spans; ``clock`` returns integer nanoseconds."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, extra: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None, "error": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if extra is not None:
                span.update(extra(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap each target at every attribute of a loaded fockstab module bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "fockstab" or n.startswith("fockstab."))]
        for qualname, extra in TARGETS.items():
            mod_name, _, attr = qualname.rpartition(".")
            original = getattr(sys.modules[f"fockstab.{mod_name}"], attr)
            wrapper = self.wrap(qualname, original, extra)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, key, original = self._patched.pop()
            setattr(mod, key, original)


def self_times(spans: list[dict[str, Any]]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children of one parent never overlap and
    their durations add up to the part of the parent they cover.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _has_ancestor(spans, span, name: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == name:
            return True
        parent = spans[parent]["parent"]
    return False


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when there is nothing to divide by."""
    return num / den if den else 0.0


def layer_metrics(spans: list[dict[str, Any]], output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass, named <module>.<function>.<stat>."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    cycles: dict[str, int] = defaultdict(int)
    levels: dict[str, int] = defaultdict(int)   # sum of cycles * dim
    cells: dict[str, int] = defaultdict(int)    # sum of cycles * dim^2
    for span, ns in zip(spans, own):
        name = span["name"]
        calls[name] += 1
        self_ns[name] += ns
        errors[name] += span["error"] is not None
        if "cycles" in span:
            cycles[name] += span["cycles"]
            levels[name] += span["cycles"] * span["dim"]
            cells[name] += span["cycles"] * span["dim"] ** 2

    tune_evals = sum(1 for s in spans if s["name"] == "experiments.build_channel"
                     and _has_ancestor(spans, s, "experiments.tune_phase"))
    tune_failures = sum(1 for s in spans if s["name"] == "thermal.steady_state"
                        and s["error"] is not None
                        and _has_ancestor(spans, s, "experiments.tune_phase"))

    def sec(name: str) -> float:
        return self_ns[name] / 1e9

    m: dict[str, float] = {
        "dynamics.composite_propagator.calls": calls["dynamics.composite_propagator"],
        "dynamics.composite_propagator.self_s": sec("dynamics.composite_propagator"),
        "dynamics.composite_propagator.ms_per_call": _ratio(
            self_ns["dynamics.composite_propagator"] / 1e6, calls["dynamics.composite_propagator"]),
        "kraus.extract_kraus.calls": calls["kraus.extract_kraus"],
        "kraus.extract_kraus.self_s": sec("kraus.extract_kraus"),
        "kraus.analytic_kraus.self_s": sec("kraus.analytic_kraus"),
        "kraus.walther_kraus.self_s": sec("kraus.walther_kraus"),
        "kraus.bands.self_s": sec("kraus.bands"),
    }
    for name, count in (("kernels.evolve", "cycles"), ("kernels.evolve_to_fixed_point", "steps")):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = sec(name)
        m[f"{name}.{count}"] = cycles[name]
        m[f"{name}.ns_per_cycle_level"] = _ratio(self_ns[name], levels[name])
        m[f"{name}.bytes_per_cycle_computed"] = _ratio(
            STATE_PASSES_PER_CYCLE * COMPLEX_BYTES * cells[name], cycles[name])
    m.update({
        "thermal.steady_state.calls": calls["thermal.steady_state"],
        "thermal.steady_state.self_s": sec("thermal.steady_state"),
        "thermal.steady_state.errors": errors["thermal.steady_state"],
        "thermal.reduced_from_channel.self_s": sec("thermal.reduced_from_channel"),
        "thermal.build_reduced.self_s": sec("thermal.build_reduced"),
        "thermal.steady_population_correction.self_s": sec("thermal.steady_population_correction"),
        "experiments.tune_phase.calls": calls["experiments.tune_phase"],
        "experiments.tune_phase.self_s": sec("experiments.tune_phase"),
        "experiments.tune_phase.useful_ratio": _ratio(tune_evals - tune_failures, tune_evals),
        "experiments.build_channel.calls": calls["experiments.build_channel"],
        "experiments.steady_fidelity.calls": calls["experiments.steady_fidelity"],
        "output.record_table.self_s": sec("output.record_table"),
        "output.write_csv.self_s": sec("output.write_csv"),
        "output.write_json.self_s": sec("output.write_json"),
        "output.bytes": output_bytes,
        "output.ns_per_byte": _ratio(
            sum(self_ns[n] for n in ("output.record_table", "output.write_csv", "output.write_json")),
            output_bytes),
        "lyapunov.build_weights.self_s": sec("lyapunov.build_weights"),
        "cli.self_s": sec("cli.main"),
    })
    return m
