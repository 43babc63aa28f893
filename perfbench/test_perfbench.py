"""Tests of the benchmark's own code: span arithmetic, wrapper restoration,
and that each output check rejects a corrupted file.

Run with: python -m pytest perfbench
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fockstab.cli import build_parser, config_from_args, main  # noqa: E402

from perfbench import checks, workloads  # noqa: E402
from perfbench.spans import TARGETS, Tracer, layer_metrics, self_times  # noqa: E402


def run_cli(argv):
    assert main(argv) == 0
    return config_from_args(build_parser().parse_args(argv))


def ticking_clock():
    ticks = iter(range(10**6))
    return lambda: next(ticks)


def test_self_times_of_synthetic_nested_spans():
    spans = [
        {"id": 0, "name": "a", "start": 0, "end": 100, "parent": None},
        {"id": 1, "name": "b", "start": 10, "end": 40, "parent": 0},
        {"id": 2, "name": "c", "start": 15, "end": 25, "parent": 1},
        {"id": 3, "name": "d", "start": 50, "end": 70, "parent": 0},
    ]
    assert self_times(spans) == [50, 20, 10, 20]


def test_tracer_records_nesting_errors_and_self_time():
    tracer = Tracer(clock=ticking_clock())

    def inner(fail=False):
        if fail:
            raise ValueError("boom")
        return 1

    traced_inner = tracer.wrap("inner", inner)

    def outer():
        traced_inner()
        with pytest.raises(ValueError):
            traced_inner(fail=True)
        return traced_inner()

    assert tracer.wrap("outer", outer)() == 1
    names = [(s["name"], s["parent"], s["error"]) for s in tracer.spans]
    assert names == [("outer", None, None), ("inner", 0, None), ("inner", 0, "ValueError"), ("inner", 0, None)]
    # ticks: outer 0..7, inners 1..2, 3..4, 5..6
    assert self_times(tracer.spans) == [4, 1, 1, 1]


def test_layer_metrics_cover_exactly_the_declared_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    computed = set(layer_metrics([], 0)) | {"trace.wall_s", "trace.overhead_s"}
    assert computed == declared


def test_layer_metrics_counts_tuning_failures_and_kernel_cycles():
    spans = [
        {"id": 0, "name": "experiments.tune_phase", "start": 0, "end": 100, "parent": None, "error": None},
        {"id": 1, "name": "experiments.build_channel", "start": 1, "end": 2, "parent": 0, "error": None},
        {"id": 2, "name": "thermal.steady_state", "start": 3, "end": 4, "parent": 0, "error": "AmbiguousSteadyStateError"},
        {"id": 3, "name": "experiments.build_channel", "start": 5, "end": 6, "parent": 0, "error": None},
        {"id": 4, "name": "thermal.steady_state", "start": 7, "end": 8, "parent": 0, "error": None},
        {"id": 5, "name": "kernels.evolve", "start": 200, "end": 200 + 4000, "parent": None, "error": None,
         "dim": 10, "cycles": 40},
    ]
    m = layer_metrics(spans, 1000)
    assert m["experiments.tune_phase.useful_ratio"] == 0.5
    assert m["thermal.steady_state.errors"] == 1
    assert m["kernels.evolve.cycles"] == 40
    assert m["kernels.evolve.ns_per_cycle_level"] == 10.0
    assert m["kernels.evolve.bytes_per_cycle_computed"] == 2 * 16 * 100


def _fockstab_bindings():
    return {(name, key): value for name, mod in list(sys.modules.items())
            if name == "fockstab" or name.startswith("fockstab.") for key, value in vars(mod).items()}


def test_tracer_wraps_every_alias_and_restores_the_originals():
    from fockstab import dynamics, experiments
    from fockstab.config import ExperimentConfig

    before = _fockstab_bindings()
    original = dynamics.composite_propagator
    tracer = Tracer()
    tracer.install()
    try:
        assert experiments.composite_propagator is dynamics.composite_propagator
        assert experiments.composite_propagator.__wrapped__ is original
        cfg = ExperimentConfig(scenario="trajectory", nbar=1, phi=0.2).resolved()
        experiments.build_channel(cfg, experiments.reservoir_params(cfg, phi=0.2))
    finally:
        tracer.uninstall()
    after = _fockstab_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    chain = [(s["name"], s["parent"]) for s in tracer.spans]
    assert chain == [("experiments.build_channel", None), ("dynamics.composite_propagator", 0),
                     ("kraus.extract_kraus", 0)]
    assert set(TARGETS) >= {name for name, _ in chain}


def test_times_are_scaled_to_the_reference_host_speed():
    from perfbench import run

    slow = {"wall_s": 3.0, "host_s": 2 * run.REFERENCE_HOST_S}
    assert run.at_reference_speed(slow, "wall_s") == pytest.approx(1.5)
    assert run.at_reference_speed({"wall_s": 3.0, "host_s": run.REFERENCE_HOST_S}, "wall_s") == 3.0
    assert run.host_time() > 0.0


def test_plan_is_a_function_of_the_seed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in [w["name"] for w in spec["workloads"]]:
        assert workloads.plan(name, 7) == workloads.plan(name, 7)
        assert workloads.plan(name, 7) != workloads.plan(name, 8)
    inputs, calls = workloads.plan("phase_scan", 3)
    assert abs(inputs["x"] - workloads.THETA2_CENTER) <= workloads.THETA2_HALF_WIDTH
    assert sum(c.check_args["cross_oracle"] for c in calls) == 1


def _alter_digit(text, row, column):
    """Change one significant digit of one CSV field."""
    lines = text.split("\n")
    data_start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    fields = lines[data_start + row].split(",")
    value = fields[column]
    pos = next(i for i, ch in enumerate(value) if ch in "123456789") + 2
    fields[column] = value[:pos] + str((int(value[pos]) + 1) % 10) + value[pos + 1:]
    lines[data_start + row] = ",".join(fields)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def trajectory_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("trajectory") / "t.csv"
    cfg = run_cli(["trajectory", "--nbar", "1", "--phi", "0.4", "--init", "fock:2", "--steps", "300",
                   "--out", str(out)])
    return out, cfg


def test_trajectory_check_accepts_output_and_rejects_one_altered_digit(trajectory_output, tmp_path):
    out, cfg = trajectory_output
    assert checks.check_trajectory(str(out), cfg) == []
    bad = tmp_path / "bad.csv"
    bad.write_text(_alter_digit(out.read_text(), row=20, column=5 + 1))
    problems = checks.check_trajectory(str(bad), cfg)
    assert any("differ from trace" in p for p in problems)
    assert any("dense replay" in p for p in problems)


def test_trajectory_check_rejects_a_rising_trace_and_a_short_file(trajectory_output, tmp_path):
    out, cfg = trajectory_output
    lines = out.read_text().split("\n")
    head = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    fields = lines[head + 250].split(",")
    scale = 1.0 + 1e-8   # keeps every row sum consistent, lifts the trace
    lines[head + 250] = ",".join(fields[:4] + [repr(float(f) * scale) for f in fields[4:]])
    bad = tmp_path / "rising.csv"
    bad.write_text("\n".join(lines))
    assert any("trace rises" in p for p in checks.check_trajectory(str(bad), cfg))
    short = tmp_path / "short.csv"
    short.write_text("\n".join(lines[:-10]) + "\n")
    assert any("data shape" in p for p in checks.check_trajectory(str(short), cfg))


@pytest.fixture(scope="module")
def robustness_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("robustness") / "r.json"
    cfg = run_cli(["robustness", "--nbar", "1", "--phi", "0.3", "--format", "json", "--out", str(out)])
    return out, cfg


def test_robustness_check_rejects_a_wrong_or_impossible_fidelity(robustness_output, tmp_path):
    out, cfg = robustness_output
    assert checks.check_robustness(str(out), cfg) == []
    doc = json.loads(out.read_text())
    row = next(r for r in doc["records"] if r["case"] == "phase_offset" and r["phi_offset"] == 0.0)
    row["fid_steady"] += 1e-4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert any("reduced chain" in p for p in checks.check_robustness(str(bad), cfg))
    doc["records"][0]["fid_0p1s"] = 1.5
    bad.write_text(json.dumps(doc))
    assert any("outside [0, 1]" in p for p in checks.check_robustness(str(bad), cfg))


@pytest.fixture(scope="module")
def tune_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("tune") / "p.json"
    cfg = run_cli(["tune-phase", "--nbar", "1", "--theta2", repr(0.75 * math.pi), *workloads.CAVITY,
                   "--format", "json", "--out", str(out)])
    return out, cfg


def test_tune_phase_check_rejects_a_wrong_phi_opt_and_a_better_grid_point(tune_output, tmp_path):
    out, cfg = tune_output
    assert checks.check_tune_phase(str(out), cfg, cross_oracle=True) == []
    doc = json.loads(out.read_text())
    doc["summary"]["phi_opt"] += 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert checks.check_tune_phase(str(bad), cfg, cross_oracle=False) == []
    assert any("full-map fixed point" in p for p in checks.check_tune_phase(str(bad), cfg, cross_oracle=True))
    doc = json.loads(out.read_text())
    doc["records"][3]["fidelity"] = doc["summary"]["fidelity"] + 1e-6
    bad.write_text(json.dumps(doc))
    assert any("below the grid maximum" in p for p in checks.check_tune_phase(str(bad), cfg, cross_oracle=False))
