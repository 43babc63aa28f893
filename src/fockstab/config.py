"""Experiment configuration shared by the CLI and the scenario runners.

Unset fields resolve to scenario-dependent defaults: the convergence and
ladder scenarios run disturbance-free with theta2 = 1/sqrt(nbar), while the
trajectory, steady-state and robustness scenarios use the realistic cavity
environment (1/kappa = 0.1 s, n_th = 0.05, Ts = 60 us, atom presence 0.3)
and the empirically optimal theta2 * sqrt(nbar) = 3*pi/4.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass, replace
from typing import Any

from .dynamics import default_dim, window_top
from .errors import ConfigError

# help line and the ExperimentConfig fields each scenario reads (out and fmt
# aside): the trapping-rate sweep reads only the cavity, phase tuning also the
# channel, and the record runs everything but the sweep levels. Only a record
# run chooses its scheme: the tables study the symmetric pulse, the steady and
# robustness tables beside their own Walther columns
_CAVITY = frozenset({"nbar", "dim", "kappa", "nth", "ts", "pat"})
_CHANNEL = _CAVITY | {"theta2", "theta1_err", "channel"}
_RECORD = _CHANNEL | {"scheme", "phi", "eta", "steps", "init", "sample_atoms", "seed"}

SCENARIOS = {
    "converge": ("disturbance-free stabilization run from the initial state", _RECORD),
    "trajectory": ("time evolution of all populations with the thermal environment", _RECORD),
    "steady": ("stationary-fidelity table per target level (five-column sweep)", _CHANNEL | {"phi", "nbars"}),
    "tune-phase": ("scan the middle-segment phase for maximal fidelity", _CHANNEL),
    "sweep-theta2": ("scan theta2 for maximal stationary fidelity", _CAVITY),
    "robustness": ("pulse-area and phase error studies", _CHANNEL | {"phi"}),
    "ladder": ("long run checking population settles on the dark levels", _RECORD),
    "validate": ("run the fast invariant self-checks", frozenset()),
}

_THERMAL_SCENARIOS = {"trajectory", "steady", "sweep-theta2", "robustness"}

# the values of the choice fields; the CLI offers the same ones
CHANNELS = ("analytic", "numeric")
SCHEMES = ("symmetric", "walther")
FORMATS = ("csv", "json")

CAVITY_KAPPA = 10.0
CAVITY_NTH = 0.05
CAVITY_TS = 60e-6
CAVITY_PAT = 0.3
TRAJECTORY_SECONDS = 4.0
# the steady table reads its Walther baseline after this span, the
# robustness table its decay rows after these (columns fid_walther_4s,
# fid_0p1s and fid_0p25s)
WALTHER_SECONDS = 4.0
DECAY_SECONDS = (0.1, 0.25)


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    nbar: int = 3
    theta2: float | None = None
    eta: float = 0.5
    dim: int | None = None
    steps: int | None = None
    kappa: float | None = None
    nth: float | None = None
    ts: float = CAVITY_TS
    pat: float | None = None
    phi: float | None = None  # None -> tune on the numeric path, 0 on the analytic one
    theta1_err: float = 0.0
    channel: str | None = None
    scheme: str = "symmetric"
    init: str | None = None
    nbars: tuple[int, ...] | None = None
    sample_atoms: bool = False
    seed: int | None = None
    out: str | None = None
    fmt: str = "csv"

    def resolved(self) -> "ExperimentConfig":
        """Fill scenario defaults and validate the result."""
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {list(SCENARIOS)}")
        if self.nbar < 1:
            raise ConfigError(f"nbar must be >= 1, got {self.nbar}")
        # before the defaults are derived from them, and before `resolve_reads`
        # compares fields, where NaN would differ from itself
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.ts <= 0:
            # `default_steps` divides by it
            raise ConfigError(f"ts must be > 0, got {self.ts}")
        horizon = fixed_horizon(self.scenario, self.steps)
        if horizon is not None and self.ts > horizon:
            # a longer period fits no atom into that span
            raise ConfigError(
                f"ts must be <= {horizon} s, the shortest span scenario {self.scenario!r} reads, got {self.ts}"
            )
        thermal = self.scenario in _THERMAL_SCENARIOS
        cfg = replace(
            self,
            theta2=self.theta2 if self.theta2 is not None else default_theta2(self.scenario, self.nbar),
            dim=self.dim if self.dim is not None else default_dim(self.nbar),
            steps=self.steps if self.steps is not None else default_steps(self.scenario, self.ts),
            kappa=self.kappa if self.kappa is not None else (CAVITY_KAPPA if thermal else 0.0),
            nth=self.nth if self.nth is not None else (CAVITY_NTH if thermal else 0.0),
            pat=self.pat if self.pat is not None else (CAVITY_PAT if thermal else 1.0),
            channel=self.channel
            if self.channel is not None
            else ("analytic" if self.scenario == "ladder" else "numeric"),
            init=self.init if self.init is not None else default_init(self.scenario, self.nbar),
            nbars=self.nbars if self.nbars is not None else tuple(range(1, 9)),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.seed is not None and not self.sample_atoms:
            raise ConfigError("seed applies only with sample_atoms")
        if self.steps is not None and self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.channel is not None and self.channel not in CHANNELS:
            raise ConfigError(f"channel must be one of {CHANNELS}, got {self.channel!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.fmt not in FORMATS:
            raise ConfigError(f"format must be one of {FORMATS}, got {self.fmt!r}")
        if self.nbars is not None and len(self.nbars) == 0:
            raise ConfigError("nbars grid must not be empty")
        if self.nbars is not None and min(self.nbars) < 1:
            raise ConfigError(f"nbars levels must be >= 1, got {min(self.nbars)}")
        if self.nbars is not None and len(set(self.nbars)) < len(self.nbars):
            raise ConfigError(f"nbars levels must be distinct, got {','.join(map(str, self.nbars))}")
        if self.dim is not None and self.init is not None:
            kind, values = parse_init(self.init)
            top = len(values) - 1 if kind == "diag" else max(values, default=0)
            if top >= self.dim:
                raise ConfigError(f"initial state level {top} does not fit dim {self.dim}")

    def to_dict(self) -> dict[str, Any]:
        d = asdict(self)
        d["nbars"] = list(self.nbars) if self.nbars is not None else None
        return d

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ExperimentConfig":
        """The config of a JSON-style dict, refusing unknown keys, a missing
        scenario and values of the wrong type (an int passes as a float)."""
        hints = typing.get_type_hints(ExperimentConfig)
        unknown = set(data) - set(hints)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "scenario" not in data:
            raise ConfigError("config has no scenario")
        data = dict(data)
        for name, value in data.items():
            if name == "nbars" and value is not None:
                data[name] = parse_nbars(value)
            elif not _has_type(value, hints[name]):
                expected = getattr(hints[name], "__name__", hints[name])
                raise ConfigError(f"config field {name!r} must be {expected}, got {value!r}")
        return ExperimentConfig(**data)

    @staticmethod
    def from_json_file(path: str, scenario: str) -> "ExperimentConfig":
        """The config of a JSON file, whose scenario defaults to the given one."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return ExperimentConfig.from_dict({"scenario": scenario, **data})


def _has_type(value: Any, hint: Any) -> bool:
    """Whether value fits the type hint of a scalar config field; bools are no
    numbers here, and an int is a float."""
    allowed = typing.get_args(hint) or (hint,)
    if isinstance(value, bool) or value is None:
        return type(value) in allowed
    return isinstance(value, allowed) or (isinstance(value, int) and float in allowed)


def resolve_reads(cfg: ExperimentConfig) -> ExperimentConfig:
    """Resolve cfg, refusing every field its scenario does not read unless it
    resolves to its default: such a value would be echoed with the output yet
    change none of it."""
    full = cfg.resolved()
    inert = {}  # read fields that another setting leaves without effect, with that setting
    if cfg.scenario == "steady" and full.nbar not in full.nbars:
        inert.update(dict.fromkeys(("nbar", "theta2", "dim"), "nbar not in nbars"))  # no sweep level
    if full.scheme == "walther" and "phi" in SCENARIOS[cfg.scenario][1]:
        inert["phi"] = "scheme = walther"  # the baseline pulse has no middle segment
    if full.kappa == 0.0:
        inert["nth"] = "kappa = 0"  # it scales only the rates of the absent environment
        if cfg.scenario == "tune-phase":
            # the settle then counts every atom, at p_at = 1
            inert.update(dict.fromkeys(("pat", "ts"), "kappa = 0"))
    reads = (SCENARIOS[cfg.scenario][1] | {"out", "fmt"}) - inert.keys()
    bare = ExperimentConfig(cfg.scenario, **{f: getattr(cfg, f) for f in reads}).resolved()
    unread = [f for f in ExperimentConfig.__dataclass_fields__ if getattr(full, f) != getattr(bare, f)]
    if unread:
        groups = {}
        for f in unread:
            groups.setdefault(inert.get(f), []).append(f)
        named = "; ".join(", ".join(fs) + (f" with {cause}" if cause else "") for cause, fs in groups.items())
        raise ConfigError(f"scenario {cfg.scenario!r} does not read {named}; leave them unset")
    return full


def default_theta2(scenario: str, nbar: int) -> float:
    if scenario in ("converge", "ladder"):
        return 1.0 / math.sqrt(nbar)
    return 0.75 * math.pi / math.sqrt(nbar)


def fixed_horizon(scenario: str, steps: int | None) -> float | None:
    """The shortest fixed span (s) a scenario reads a run at, if it has one:
    the default trajectory, the steady table's Walther baseline and the
    robustness table's first decay row."""
    if scenario == "trajectory" and steps is None:
        return TRAJECTORY_SECONDS
    return {"steady": WALTHER_SECONDS, "robustness": DECAY_SECONDS[0]}.get(scenario)


def default_steps(scenario: str, ts: float) -> int:
    if scenario in ("trajectory",):
        return int(TRAJECTORY_SECONDS / ts)
    if scenario == "ladder":
        return 20_000
    return 2000


def default_init(scenario: str, nbar: int) -> str:
    if scenario == "ladder":
        return f"fock:{window_top(nbar)}"
    return "vacuum"


def parse_init(init: str) -> tuple[str, tuple]:
    """Kind and values of an initial-state descriptor.

    vacuum -> ("vacuum", ()), fock:K -> ("fock", (K,)),
    uniform:LO:HI -> ("uniform", (LO, HI)), diag:P0,P1,... -> ("diag", (P0, P1, ...)).
    Raises ConfigError for an unknown kind or malformed values.
    """
    kind, _, rest = init.partition(":")
    try:
        if kind == "vacuum":
            return kind, ()
        if kind == "fock":
            return kind, (int(rest),)
        if kind == "uniform":
            lo, _, hi = rest.partition(":")
            return kind, (int(lo), int(hi))
        if kind == "diag":
            return kind, tuple(float(x) for x in rest.split(","))
    except ValueError as exc:
        raise ConfigError(f"malformed initial state descriptor {init!r}: {exc}") from exc
    raise ConfigError(f"unknown initial state descriptor {init!r}")


def parse_nbars(values: Any) -> tuple[int, ...]:
    """Sweep levels from a comma-separated string or a sequence of integers (2.0 passes, 2.7 is refused)."""
    if isinstance(values, str):
        values = values.split(",")
    try:
        levels = tuple(int(n) for n in values)
        if not all(isinstance(v, str) or n == v for n, v in zip(levels, values)):
            raise ValueError("fractional level")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"nbars must be a list of integers, got {values!r}") from exc
    return levels
