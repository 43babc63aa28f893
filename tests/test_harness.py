import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from fockstab import experiments as ex
from fockstab import output
from fockstab.cli import build_parser, config_from_args, main
from fockstab.config import ExperimentConfig
from fockstab.errors import ConfigError


def resolved(**kw):
    return ExperimentConfig(**kw).resolved()


def test_config_scenario_defaults():
    cfg = resolved(scenario="converge", nbar=2)
    assert cfg.dim == 27
    assert cfg.kappa == 0.0 and cfg.pat == 1.0
    assert cfg.theta2 == pytest.approx(1 / math.sqrt(2))
    traj = resolved(scenario="trajectory", nbar=2)
    assert traj.kappa == 10.0 and traj.nth == 0.05 and traj.pat == 0.3
    assert traj.steps == int(4.0 / 60e-6)
    assert traj.theta2 == pytest.approx(0.75 * math.pi / math.sqrt(2))


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        resolved(scenario="nope")
    with pytest.raises(ConfigError):
        resolved(scenario="converge", nbar=0)
    with pytest.raises(ConfigError):
        resolved(scenario="converge", steps=0)
    with pytest.raises(ConfigError):
        resolved(scenario="converge", init="fock:99")  # outside dim
    with pytest.raises(ConfigError):
        resolved(scenario="converge", fmt="yaml")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"scenario": "converge", "bogus": 1})


def test_config_file_roundtrip(tmp_path):
    cfg = resolved(scenario="ladder", nbar=2, steps=123)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    again = ExperimentConfig.from_json_file(str(path), "ladder")
    assert again == cfg


def test_initial_state_descriptors():
    cfg = resolved(scenario="converge", nbar=1, init="uniform:0:3")
    rho = ex.initial_state(cfg)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert rho[3, 3].real == pytest.approx(0.25)
    cfg = resolved(scenario="converge", nbar=1, init="diag:1,1,2")
    rho = ex.initial_state(cfg)
    assert rho[2, 2].real == pytest.approx(0.5)
    with pytest.raises(ConfigError):
        ex.initial_state(resolved(scenario="converge", init="blob"))


def test_run_convergence_record_shapes():
    cfg = resolved(scenario="converge", nbar=1, steps=200, phi=0.0)
    rec = ex.run_convergence(cfg)
    assert rec.fidelity.shape == (201,)
    assert rec.v.shape == (201,)
    assert rec.trace.shape == (201,)
    assert rec.diag.shape == (201, cfg.dim)
    assert np.abs(rec.trace - 1.0).max() < 1e-6
    assert rec.summary["completeness_defect"] < 1e-10


def test_run_convergence_analytic_channel_v_monotone():
    cfg = resolved(scenario="converge", nbar=2, steps=400, channel="analytic", phi=0.0)
    rec = ex.run_convergence(cfg)
    assert rec.fidelity[-1] > 0.999
    assert np.all(np.diff(rec.v) <= 1e-12)


def test_run_convergence_v_monotone_with_partial_presence():
    # convex mixing with the identity keeps the certificate decreasing
    cfg = resolved(scenario="converge", nbar=2, steps=400, channel="analytic", phi=0.0, pat=0.5)
    rec = ex.run_convergence(cfg)
    assert np.all(np.diff(rec.v) <= 1e-12)


def test_trajectory_sampled_mode_deterministic():
    cfg = resolved(scenario="trajectory", nbar=1, steps=40, sample_atoms=True, seed=7, phi=0.0)
    a = ex.run_trajectory(cfg)
    b = ex.run_trajectory(cfg)
    assert np.array_equal(a.diag, b.diag)


def test_tune_phase_improves_over_untuned():
    cfg = resolved(scenario="tune-phase", nbar=2)
    phi_opt, fid_opt, table = ex.tune_phase(cfg)
    fid_zero = next(r["fidelity"] for r in table if r["phi"] == 0.0)
    assert fid_opt >= fid_zero
    assert 0.0 <= phi_opt < 2 * math.pi
    assert len(table) == 64


def test_tune_phase_stable_under_dim_doubling():
    base = resolved(scenario="tune-phase", nbar=2)
    phi_a, _, _ = ex.tune_phase(base)
    phi_b, _, _ = ex.tune_phase(resolved(scenario="tune-phase", nbar=2, dim=2 * base.dim))
    diff = abs((phi_a - phi_b + math.pi) % (2 * math.pi) - math.pi)
    assert diff < 0.05


def test_steady_sweep_row_contents():
    rows = ex.run_steady_sweep(resolved(scenario="steady", nbars=(2,)))
    (row,) = rows
    assert "stationarity_steps" not in row and 0.0 < row["spectral_gap"] < 1.0
    assert row["fid_steady"] > row["fid_walther_4s"]
    assert abs(row["fid_steady"] - row["fid_reduced"]) < 0.02
    assert abs(row["fid_perturbative"] - row["fid_reduced"]) <= 5 * row["x1"] ** 2
    for err_col in ("fid_theta1_minus2pct", "fid_theta1_plus2pct"):
        assert abs(row[err_col] - row["fid_steady"]) < 0.15


def test_steady_sweep_ordering_multiple_levels():
    rows = ex.run_steady_sweep(resolved(scenario="steady", nbars=(2, 3)))
    assert [r["nbar"] for r in rows] == [2, 3]
    for row in rows:
        assert row["fid_steady"] > row["fid_walther_4s"]
        # each sweep entry runs at its own default pulse area
        assert row["theta2"] == pytest.approx(0.75 * math.pi / math.sqrt(row["nbar"]))


def test_optimize_theta2_prefers_optimum_over_default():
    cfg = resolved(scenario="sweep-theta2", nbar=3)
    theta2_opt, rows = ex.optimize_theta2(cfg)
    scored = [r for r in rows if not math.isnan(r["fid_verified"])]
    best = max(scored, key=lambda r: r["fid_verified"])
    assert best["theta2"] == theta2_opt
    # surrogate argmax close to the verified one on the grid
    sur = max(scored, key=lambda r: r["fid_surrogate"])
    assert abs(scored.index(best) - scored.index(sur)) <= 2
    # the verified optimum dominates the arbitrary 1/sqrt(nbar) choice
    from fockstab.oracle import steady_state
    from fockstab.thermal import build_reduced

    tp = ex.thermal_params(cfg)
    ref = steady_state(
        build_reduced(ex.reservoir_params(resolved(scenario="steady", nbar=3, theta2=1 / math.sqrt(3))), tp, cfg.dim),
        cfg.pat,
    )[3]
    assert best["fid_verified"] >= ref


def test_robustness_phase_offset_small_effect():
    rows = ex.run_robustness(resolved(scenario="robustness", nbar=3, channel="analytic", phi=0.0))
    offs = [r for r in rows if r["case"] == "phase_offset" and r["phi_offset"] != 0.0]
    assert len(offs) == 2
    for r in offs:
        assert abs(r["fid_change"]) < 0.02


def test_robustness_walther_decay_rows_match_a_dense_replay_and_the_closed_form():
    # the +/-2 % analytic Walther channel leaks at the top level, so
    # oracle.apply_map refuses it; the decay rows run at kappa = 0, so a dense
    # replay of rho -> (1 - p) rho + p K(rho) needs no environment. With
    # M_m = 0 nothing flows back into nbar, and the atom leaves it with
    # probability sin^2(pi err): fid_k = (1 - p_at sin^2(pi err))^k
    from fockstab import oracle
    from fockstab.config import DECAY_SECONDS
    from fockstab.dynamics import trapping_theta1
    from fockstab.fock import fock_density
    from fockstab.kraus import walther_kraus

    nbar = 1
    cfg = resolved(scenario="robustness", nbar=nbar, channel="analytic", phi=0.0)
    rows = [r for r in ex.run_robustness(cfg) if r["case"] == "walther_theta_err"]
    assert len(rows) == 4
    ks = [int(seconds / cfg.ts) for seconds in DECAY_SECONDS]
    for r in rows:
        err, pat = r["theta1_err"], r["p_at"]
        got = [r["fid_0p1s"], r["fid_0p25s"]]
        assert got == pytest.approx([(1.0 - pat * math.sin(math.pi * err) ** 2) ** k for k in ks], rel=0, abs=1e-13)
        k = walther_kraus(nbar, 2.0 * (1.0 + err) * trapping_theta1(nbar), cfg.dim)
        rho, replay = fock_density(nbar, cfg.dim), []
        for atom in range(1, ks[-1] + 1):
            rho = (1.0 - pat) * rho + pat * oracle.dense_channel(k, rho)
            if atom in ks:
                replay.append(rho[nbar, nbar].real)
        assert got == pytest.approx(replay, rel=0, abs=1e-13)


def test_ladder_trace_conserved():
    rec = ex.ladder_check(resolved(scenario="ladder", nbar=1, steps=2000))
    assert abs(rec.trace[-1] - 1.0) < 1e-9


def test_csv_deterministic_and_parseable(tmp_path):
    cfg = resolved(scenario="converge", nbar=1, steps=30, phi=0.2)
    rec = ex.run_convergence(cfg)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        output.emit_record(cfg, rec, stream=buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    lines = bufs[0].splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "# version: 0.1.0"
    header = lines[2].split(",")
    assert header[:5] == ["step", "time_s", "fidelity", "v", "trace"]
    assert len(lines) == 3 + 31
    echoed = json.loads(lines[0][len("# config: ") :])
    assert echoed["nbar"] == 1 and "out" not in echoed


def test_json_payload_structure():
    cfg = resolved(scenario="converge", nbar=1, steps=10, phi=0.0, fmt="json")
    rec = ex.run_convergence(cfg)
    buf = io.StringIO()
    output.emit_record(cfg, rec, stream=buf)
    payload = json.loads(buf.getvalue())
    assert set(payload) == {"config", "records", "summary"}
    assert len(payload["records"][0]["fidelity"]) == 11
    assert "wall_time_s" in payload["summary"]


JSON_RUNS = {
    "converge": ["converge", "--nbar", "1", "--steps", "5", "--phi", "0"],
    "trajectory": ["trajectory", "--nbar", "1", "--steps", "5", "--phi", "0"],
    "ladder": ["ladder", "--nbar", "1", "--steps", "5"],
    "sampled": ["converge", "--nbar", "1", "--steps", "5", "--phi", "0", "--sample-atoms", "--seed", "1"],
    "steady": ["steady", "--nbars", "1"],
    "tune-phase": ["tune-phase", "--nbar", "1"],
    "tune-phase-cavity": ["tune-phase", "--nbar", "1", "--kappa", "10", "--nth", "0.05", "--pat", "0.3"],
    "sweep-theta2": ["sweep-theta2", "--nbar", "1"],
    "robustness": ["robustness", "--nbar", "1"],
}


@pytest.mark.parametrize("argv", JSON_RUNS.values(), ids=JSON_RUNS)
def test_json_payload_holds_only_json_types(argv, tmp_path, monkeypatch):
    # every record and summary value is a plain JSON type (numpy floats are
    # floats), so the payload is written without a `default` hook
    dumped = []
    dump = json.dump
    monkeypatch.setattr(json, "dump", lambda obj, fp, **kw: dumped.append((obj, kw)) or dump(obj, fp, **kw))
    out = tmp_path / "out.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    ((payload, kw),) = dumped
    assert "default" not in kw
    assert out.read_text() == json.dumps(payload, sort_keys=True, indent=1) + "\n"


def test_cli_end_to_end(tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["converge", "--nbar", "1", "--steps", "40", "--phi", "0.1", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("# config: ")
    assert len(text.splitlines()) == 3 + 41


def test_cli_flag_overrides_config_file(tmp_path):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"scenario": "converge", "nbar": 2, "steps": 25, "phi": 0.0}))
    out = tmp_path / "o.csv"
    rc = main(["converge", "--config", str(cfg_file), "--steps", "12", "--out", str(out)])
    assert rc == 0
    echoed = json.loads(out.read_text().splitlines()[0][len("# config: ") :])
    assert echoed["steps"] == 12 and echoed["nbar"] == 2


def test_cli_exit_codes():
    assert main(["converge", "--nbar", "0"]) == 2
    assert main(["trajectory", "--kappa", "1e6", "--steps", "5"]) == 3
    assert main(["converge", "--config", "/nonexistent/path.json"]) == 2
    # without an environment the robustness chains keep two closed classes,
    # so their stationary fidelity is refused rather than made up
    assert main(["robustness", "--kappa", "0"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--init", "fock:abc"],
        ["converge", "--init", "diag:"],
        ["converge", "--init", "uniform:3"],
        ["converge", "--init", "blob"],
        ["converge", "--phi", "0", "--init", "diag:1,nan"],
        ["steady", "--nbars", "1,x"],
        ["steady", "--nbars", "0"],
        ["steady", "--nbars", "2,-1"],
        ["steady", "--nbars", "2,2"],
    ],
)
def test_cli_malformed_input_exits_with_config_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_malformed_config_values_raise_config_error():
    # a fractional level is refused, not truncated to another level
    for nbars in ([1, "x"], [2.7], [float("inf")]):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": "steady", "nbars": nbars})
    with pytest.raises(ConfigError):
        resolved(scenario="converge", init="fock:")
    # a level below 1 has no trapping angle
    with pytest.raises(ConfigError, match="nbars levels must be >= 1"):
        resolved(scenario="steady", nbars=(0,))
    for nbars, want in (([3, 1], (3, 1)), ([2.0], (2,)), ([2], (2,)), ("1,2", (1, 2))):
        got = ExperimentConfig.from_dict({"scenario": "steady", "nbars": nbars}).nbars
        assert got == want and all(type(n) is int for n in got)


@pytest.mark.parametrize("scenario", ["converge", "trajectory", "ladder"])
def test_initial_state_checked_before_phase_tuning(scenario, monkeypatch):
    def untouchable(cfg):
        raise AssertionError("phase tuning ran before the initial state was checked")

    monkeypatch.setattr(ex, "tune_phase", untouchable)
    cfg = resolved(scenario=scenario, nbar=2, init="diag:1,-1", channel="numeric")
    assert cfg.phi is None
    with pytest.raises(ConfigError):
        ex.run_record(cfg)


RECORD_SUMMARY_KEYS = {
    "final_fidelity", "max_fidelity", "completeness_defect", "leak", "dark_levels",
    "population_outside_dark_levels", "population_target", "population_upper_dark",
    "wall_time_s", "phi_used", "phi_tuned",
}


@pytest.mark.parametrize(
    "flags",
    [
        # without an environment nth is not read, so it stays unset
        ["--phi", "0.2", "--sample-atoms", "--seed", "7", "--pat", "0.5", "--kappa", "0"],
        ["--phi", "0.3", "--pat", "0.5", "--kappa", "10", "--nth", "0.05"],
    ],
    ids=["sampled", "environment"],
)
def test_record_scenarios_honour_every_flag(flags):
    # every scenario-dependent default that is read is given, so the three
    # record scenarios must write the same rows; only the config echo may differ
    common = ["--nbar", "2", "--theta2", "1.2", "--steps", "300", "--init", "fock:5", "--channel", "analytic"]
    texts = {}
    for scenario in ("converge", "trajectory", "ladder"):
        cfg = config_from_args(build_parser().parse_args([scenario, *common, *flags]))
        rec = ex.run_record(cfg)
        assert RECORD_SUMMARY_KEYS <= set(rec.summary)
        buf = io.StringIO()
        output.emit_record(cfg, rec, stream=buf)
        head, _, rows = buf.getvalue().partition("\n")
        assert head.startswith("# config: ")
        texts[scenario] = rows
    assert texts["converge"] == texts["trajectory"] == texts["ladder"]


def test_records_below_the_certificate_window_carry_nan_v():
    # dim 12 < 4*nbar+3 = 15: no Lyapunov weights exist, so V is NaN rather
    # than an error, and robustness (whose decay rows are records) still runs
    rows = ex.run_robustness(resolved(scenario="robustness", nbar=3, dim=12, channel="analytic", phi=0.0))
    assert [r["case"] for r in rows].count("walther_theta_err") == 4
    rec = ex.run_record(resolved(scenario="converge", nbar=3, dim=12, steps=10, phi=0.0))
    assert np.isnan(rec.v).all() and np.isfinite(rec.fidelity).all()

def test_emit_builds_only_the_written_payload(monkeypatch):
    cfg = resolved(scenario="converge", nbar=1, steps=5, phi=0.0)
    rec = ex.run_convergence(cfg)

    def unused(*args):
        raise AssertionError("built the payload of the other format")

    monkeypatch.setattr(output, "record_as_json", unused)
    output.emit_record(cfg, rec, stream=io.StringIO())
    monkeypatch.undo()
    monkeypatch.setattr(output, "record_table", unused)
    monkeypatch.setattr(output, "sweep_table", unused)
    as_json = replace(cfg, fmt="json")
    output.emit_record(as_json, rec, stream=io.StringIO())
    output.emit_rows(as_json, [{"phi": 0.0, "fidelity": 1.0}], stream=io.StringIO())


VALIDATE_ROWS = [
    "shift_identity", "analytic_completeness", "numeric_completeness", "analytic_fixed_point",
    "lyapunov_identity", "banded_channel_kernel", "thermal_kernel", "reduced_vs_full_steady",
    "population_engine", "block_propagator", "ladder_extraction", "stationary_solver", "population_powers",
    "step_matrix", "power_rows", "stationary_stack", "shifted_stationary", "record_format",
]


def test_cli_validate_subcommand(capsys):
    rc = main(["validate"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "FAIL" not in captured.out
    lines = captured.out.splitlines()
    assert [line.partition(":")[0] for line in lines] == [f"PASS {name}" for name in VALIDATE_ROWS]


def test_importing_the_cli_does_not_load_the_validate_rows(src_env):
    # only the validate subcommand imports `validation`
    code = "import sys, fockstab.cli; print('fockstab.validation' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_timed_runs_import_neither_numpy_ma_nor_scipy(tmp_path, src_env):
    # np.unique and np.union1d import numpy.ma on first use, 10-30 ms in a
    # fresh process, and scipy is a test dependency only; a tuning that
    # ranks its grid without eigvals and a steady table load neither
    out = str(tmp_path / "out.csv")
    argvs = [["robustness", "--out", out], ["steady", "--nbars", "3", "--out", out],
             ["tune-phase", "--nbar", "2", *CAVITY_ARGV, "--out", out]]
    code = ("import json, sys; from fockstab.cli import main; "
            f"codes = [main(argv) for argv in {argvs!r}]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy' "
            "or m == 'numpy.ma' or m.startswith('numpy.ma.'))]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0], []]


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def numpy_blas_is_openblas():
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(name).lower()


def without_blas_threads(env):
    """env with no BLAS thread count set."""
    return {k: v for k, v in env.items() if k not in BLAS_THREAD_VARIABLES}


@pytest.mark.skipif(not sys.platform.startswith("linux") or not numpy_blas_is_openblas(),
                    reason="counts OpenBLAS's worker threads in /proc/self/task")
@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}],
                         ids=["unset", "openblas-2", "omp-2"])
def test_importing_the_cli_starts_no_blas_worker_unless_asked(preset, src_env):
    # OpenBLAS starts its pool when numpy loads; the CLI asks for one thread
    # first, and a count the user chose is kept
    code = ("import json, os, fockstab.cli; print(json.dumps([len(os.listdir('/proc/self/task')), "
            "os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS')]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**without_blas_threads(src_env), **preset}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    tasks, openblas, omp = json.loads(proc.stdout)
    if preset:
        # OpenBLAS runs at most one thread per usable core
        assert tasks == min(2, len(os.sched_getaffinity(0)))
        assert (openblas, omp) == (preset.get("OPENBLAS_NUM_THREADS"), preset.get("OMP_NUM_THREADS"))
    else:
        assert (tasks, openblas, omp) == (1, "1", None)


@pytest.mark.parametrize("argv", [
    ["converge", "--nbar", "3", "--steps", "300"],
    ["tune-phase", "--nbar", "8", "--kappa", "10", "--nth", "0.05", "--pat", "0.3"],
], ids=["converge", "tune-phase"])
def test_outputs_do_not_depend_on_the_blas_thread_count(argv, tmp_path, src_env):
    outputs = []
    for preset in ({"OPENBLAS_NUM_THREADS": "2"}, {}):
        # the same relative --out, so the echoed configs match too
        cwd = tmp_path / f"threads{len(outputs)}"
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-m", "fockstab.cli", *argv, "--out", "out.csv"], cwd=cwd,
                              capture_output=True, text=True, env={**without_blas_threads(src_env), **preset},
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((cwd / "out.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_entrypoint_subprocess(tmp_path, src_env):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "fockstab.cli", "ladder", "--nbar", "1", "--steps", "500", "--out", str(out)],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_tune_phase_flat_landscape_analytic_no_environment():
    # the idealized channel holds the target exactly for every phase, so the
    # landscape is flat and the tie breaks to phi = 0
    cfg = resolved(scenario="tune-phase", nbar=2, channel="analytic")
    phi_opt, fid, table = ex.tune_phase(cfg)
    assert phi_opt == 0.0
    assert fid == pytest.approx(1.0, abs=1e-9)


def test_tune_phase_analytic_with_environment_prefers_zero():
    cfg = resolved(scenario="tune-phase", nbar=2, channel="analytic", kappa=10.0, nth=0.05, pat=0.3)
    phi_opt, _, table = ex.tune_phase(cfg)
    wrapped = abs((phi_opt + math.pi) % (2 * math.pi) - math.pi)
    assert wrapped < 0.11  # within one grid cell of the nominal phase
    fid0 = next(r["fidelity"] for r in table if r["phi"] == 0.0)
    assert all(r["fidelity"] <= fid0 + 1e-12 for r in table)


def test_converge_fidelity_stable_under_dim_doubling():
    base = resolved(scenario="converge", nbar=2, steps=800, phi=0.0)
    doubled = resolved(scenario="converge", nbar=2, steps=800, phi=0.0, dim=2 * base.dim)
    fa = ex.run_convergence(base).summary["final_fidelity"]
    fb = ex.run_convergence(doubled).summary["final_fidelity"]
    assert abs(fa - fb) < 1e-3


def test_ladder_default_start_converges_to_target():
    # the window's top level is still inside the window
    rec = ex.ladder_check(resolved(scenario="ladder", nbar=1, steps=4000))
    assert rec.summary["population_target"] > 1 - 1e-6


def test_trajectory_leak_accounting_baseline_scheme():
    # the baseline scheme piles population at the truncation boundary; the
    # trace deficit must match the accumulated top-level thermal leak, which
    # acts on the post-channel mix: Gamma+ * dim * p_top(mix) per step
    from fockstab.kraus import bands

    cfg = resolved(scenario="trajectory", nbar=3, scheme="walther", channel="analytic", steps=20_000)
    rec = ex.run_trajectory(cfg)
    tp = ex.thermal_params(cfg)
    g, e, m = bands(ex.build_channel(cfg, ex.reservoir_params(cfg)))
    top = cfg.dim - 1
    pre_top = rec.diag[:-1, top]
    pre_below = rec.diag[:-1, top - 1]
    mix_top = (1 - tp.p_at) * pre_top + tp.p_at * (
        abs(e[top]) ** 2 * pre_top + abs(g[top - 1]) ** 2 * pre_below
    )
    accounted = float(tp.gamma_plus * cfg.dim * mix_top.sum())
    deficit = float(1.0 - rec.trace[-1])
    assert deficit > 1e-3  # the pile is already draining trace here
    assert abs(deficit - accounted) < 1e-6


def test_trajectory_symmetric_scheme_conserves_trace():
    cfg = resolved(scenario="trajectory", nbar=3, steps=20_000, channel="analytic", phi=0.0)
    rec = ex.run_trajectory(cfg)
    assert abs(rec.trace[-1] - 1.0) < 1e-4


def test_csv_floats_use_twelve_significant_digits():
    from fockstab.output import _fmt

    assert _fmt(1 / 3) == "0.333333333333"
    assert _fmt(1234567.0) == "1234567"
    assert _fmt(6e-05) == "6e-05"
    assert _fmt(0.998860489858543) == "0.998860489859"
    assert _fmt(7) == "7"
    assert _fmt("phase_offset") == "phase_offset"


def test_steady_fidelity_stable_under_dim_doubling():
    from fockstab.oracle import steady_state
    from fockstab.thermal import build_reduced

    nbar = 3
    cfg = resolved(scenario="steady", nbar=nbar)
    tp = ex.thermal_params(cfg)
    p = ex.reservoir_params(cfg)
    fids = [steady_state(build_reduced(p, tp, d), cfg.pat)[nbar] for d in (cfg.dim, 2 * cfg.dim)]
    assert abs(fids[0] - fids[1]) < 1e-3


def test_control_schedule_rejects_nonpositive_durations():
    # theta2 > 0 whose t_s = theta2/omega rounds to 0 would be a zero-length middle segment
    from fockstab.dynamics import control_schedule, make_params

    p = make_params(2, theta2=1e-320)
    assert p.theta2 > 0.0 and p.t_s == 0.0
    with pytest.raises(ConfigError, match="positive durations"):
        control_schedule(p)


def test_steady_sweep_honours_dim_for_the_configured_level(tmp_path):
    from fockstab.thermal import build_reduced, stationary

    out = tmp_path / "steady.json"
    argv = ["steady", "--nbar", "2", "--nbars", "2", "--dim", "40", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    row = json.loads(out.read_text())["records"][0]
    cfg = resolved(scenario="steady", nbar=2, dim=40)
    params = ex.reservoir_params(cfg, phi=row["phi_used"])
    tp = ex.thermal_params(cfg)
    assert row["fid_reduced"] == float(stationary(build_reduced(params, tp, 40).step_matrix())[0][2])
    # the default truncation (27 levels) gives a different value, so the flag was not ignored
    assert row["fid_reduced"] != float(stationary(build_reduced(params, tp, 27).step_matrix())[0][2])


def test_production_runs_reach_no_oracle(tmp_path, monkeypatch):
    # production is ladder blocks -> bands -> step matrix -> {stationary,
    # record_rows}. Every function of the dense reference route raises, under
    # every name a loaded module binds it to, and so do the oracles that stay
    # in production modules; validate shows that the patch bites
    import inspect
    import sys

    from fockstab import kernels, oracle, thermal

    def unreachable(*args, **kwargs):
        raise AssertionError("a production run reached an oracle")

    banned = [f for _, f in inspect.getmembers(oracle, inspect.isfunction) if f.__module__ == oracle.__name__]
    banned += [ex.steady_fidelity, kernels.evolve, kernels.evolve_to_fixed_point, thermal.reduced_from_channel]
    ids = {id(f) for f in banned}
    for name, module in list(sys.modules.items()):
        if name == "fockstab" or name.startswith("fockstab."):
            for key, value in list(vars(module).items()):
                if id(value) in ids:
                    monkeypatch.setattr(module, key, unreachable)
    record = ["--nbar", "1", "--steps", "50"]
    cavity = ["--kappa", "10", "--nth", "0.05", "--pat", "0.3"]
    for argv in (
        ["converge", *record],
        ["trajectory", *record],
        ["trajectory", *record, "--sample-atoms", "--seed", "1"],
        ["ladder", *record],
        ["tune-phase", "--nbar", "2", *cavity],
        ["steady", "--nbars", "2"],
        ["robustness"],
        ["sweep-theta2"],
    ):
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0, argv
    with pytest.raises(AssertionError, match="reached an oracle"):
        main(["validate"])


def test_no_run_computes_eigenvectors_of_a_cycle_matrix(tmp_path, monkeypatch):
    # the stationary solve reads the spectrum with eigvals and gets the
    # Perron vector by inverse iteration; the production runs of
    # test_production_runs_reach_no_oracle and validate never need eig
    def unreachable(*args, **kwargs):
        raise AssertionError("a run called np.linalg.eig")

    monkeypatch.setattr(np.linalg, "eig", unreachable)
    record = ["--nbar", "1", "--steps", "50"]
    cavity = ["--kappa", "10", "--nth", "0.05", "--pat", "0.3"]
    for argv in (
        ["converge", *record],
        ["trajectory", *record],
        ["trajectory", *record, "--sample-atoms", "--seed", "1"],
        ["ladder", *record],
        ["tune-phase", "--nbar", "2", *cavity],
        ["steady", "--nbars", "2"],
        ["robustness"],
        ["sweep-theta2"],
    ):
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0, argv
    assert main(["validate"]) == 0


def test_answer_only_tables_record_no_rows(monkeypatch):
    # the decay rows, the 4-s baselines and the no-environment tuning settle
    # read a few rows of a long horizon through `np.linalg.matrix_power`; the
    # row-recording engine is not reached, under any name a loaded module
    # binds it to. The converge run shows that the patch bites
    from fockstab import kernels

    def unreachable(*args, **kwargs):
        raise AssertionError("an answer-only table recorded rows")

    for name, module in list(sys.modules.items()):
        if name == "fockstab" or name.startswith("fockstab."):
            for key, value in list(vars(module).items()):
                if value is kernels.record_rows:
                    monkeypatch.setattr(module, key, unreachable)
    power = np.linalg.matrix_power
    exponents = []

    def spy(a, n):
        exponents.append((np.shape(a)[:-2], n))
        return power(a, n)

    monkeypatch.setattr(np.linalg, "matrix_power", spy)
    decay = [r for r in ex.run_robustness(resolved(scenario="robustness", nbar=2)) if r["case"] == "walther_theta_err"]
    assert len(decay) == 4
    # the 0.1-s and 0.25-s rows at p_at 0.3 and 1, for each pulse-area error
    assert exponents == [((), 1666), ((), 4166)] * 4
    exponents.clear()
    (row,) = ex.run_steady_sweep(resolved(scenario="steady", nbars=[2]))
    assert 0.0 < row["fid_walther_4s"] < 1.0
    assert exponents == [((), 66666)]
    exponents.clear()
    phi_opt, fid, table = ex.tune_phase(resolved(scenario="tune-phase", nbar=2, kappa=0.0))
    assert len(table) == 64 and "spectral_gap" not in table[0]
    # the grid as one stack, then the golden section one phase at a time
    assert exponents[0] == ((64,), ex.TUNE_SETTLE_STEPS)
    assert len(exponents) > 1 and set(exponents[1:]) == {((1,), ex.TUNE_SETTLE_STEPS)}
    with pytest.raises(AssertionError, match="recorded rows"):
        ex.run_record(resolved(scenario="converge", nbar=1, steps=5, phi=0.0))


def test_tune_grid_has_no_swallowed_phases(tmp_path):
    # the nbar-1 grid at x = 3pi/4 in the cavity: 44 of its 64 phases were
    # once refused and written as fidelity 0.0, though every gap is >= 1e-5
    out = tmp_path / "tune.json"
    argv = ["tune-phase", "--nbar", "1", "--theta2", repr(0.75 * math.pi),
            "--kappa", "10", "--nth", "0.05", "--pat", "0.3", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads(out.read_text())
    rows = doc["records"]
    assert len(rows) == 64
    assert all(0.0 < r["fidelity"] < 1.0 for r in rows)
    assert min(r["spectral_gap"] for r in rows) > 1e-5
    assert doc["summary"]["ill_conditioned"] == 0


def test_steady_json_summary_counts_ill_conditioned_rows(tmp_path):
    # its rows carry spectral_gap, yet its summary was once empty
    out = tmp_path / "steady.json"
    assert main(["steady", "--nbars", "1,2", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    gaps = [r["spectral_gap"] for r in doc["records"]]
    assert doc["summary"] == {"ill_conditioned": sum(g < ex.ILL_CONDITIONED_GAP for g in gaps)}


@pytest.mark.parametrize("nbar, ill", [(3, 0), (8, 10)])
def test_sweep_theta2_answers_every_grid_point(nbar, ill, tmp_path):
    # small theta2 leaves little transport: such points were once written as
    # NaN; now each has a fidelity, and the slowly mixing ones are counted
    out = tmp_path / "sweep.json"
    assert main(["sweep-theta2", "--nbar", str(nbar), "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    fids = [r["fid_verified"] for r in doc["records"]]
    assert all(-1e-10 < f < 1.0 for f in fids)
    gaps = [r["spectral_gap"] for r in doc["records"]]
    assert doc["summary"]["ill_conditioned"] == sum(g < ex.ILL_CONDITIONED_GAP for g in gaps) == ill
    assert doc["summary"]["theta2_opt"] == doc["records"][int(np.argmax(fids))]["theta2"]


def phase_by_phase(cfg, phis):
    """The tuning objective built and solved one phase at a time."""
    from fockstab import kernels
    from fockstab.kraus import bands
    from fockstab.thermal import stationary

    rows = []
    tp = ex.thermal_params(cfg)
    for phi in phis:
        g, e, m = bands(ex.build_channel(cfg, ex.reservoir_params(cfg, phi=phi)))
        if cfg.kappa == 0.0:
            step = kernels.step_matrix(g, e, m, 0.0, 0.0, 1.0)
            rows.append({"fidelity": float(np.linalg.matrix_power(step, ex.TUNE_SETTLE_STEPS)[cfg.nbar, cfg.nbar])})
        else:
            populations, gap = stationary(kernels.step_matrix(g, e, m, tp.gamma_minus, tp.gamma_plus, tp.p_at))
            rows.append({"fidelity": float(populations[cfg.nbar]), "spectral_gap": gap})
    return rows


CAVITY_CFG = {"kappa": 10.0, "nth": 0.05, "pat": 0.3}
CAVITY_ARGV = ["--kappa", "10", "--nth", "0.05", "--pat", "0.3"]


@pytest.mark.parametrize("phases", [1, 2, 17])
@pytest.mark.parametrize("kw", [
    {"nbar": 1, **CAVITY_CFG},
    {"nbar": 4, "theta1_err": -0.03, **CAVITY_CFG},
    {"nbar": 8, "theta1_err": 0.03, "theta2": 0.5, **CAVITY_CFG},
    {"nbar": 2},
    {"nbar": 2, "channel": "analytic", **CAVITY_CFG},
], ids=["nbar1", "nbar4-err", "nbar8-err-theta2", "no-environment", "analytic"])
def test_stacked_tuning_objective_equals_the_phase_by_phase_loop(kw, phases):
    cfg = resolved(scenario="tune-phase", **kw)
    phis = [2.0 * math.pi * i / phases + 0.1 for i in range(phases)]
    assert ex._settled(cfg, phis) == phase_by_phase(cfg, phis)


def test_a_failing_phase_raises_the_error_the_phase_by_phase_loop_meets_first(monkeypatch):
    # phase k fails its build under a tightened unitarity tolerance; with
    # and without an earlier phase j failing its stationary solve, the stack
    # raises what the loop raises first
    from fockstab import kraus, thermal
    from fockstab.errors import AmbiguousSteadyStateError

    cfg = resolved(scenario="tune-phase", nbar=3, **CAVITY_CFG)
    phis = [2.0 * math.pi * i / 17 for i in range(17)]
    defects = [float(kraus.ladder_defects(ex.composite_propagator(ex.reservoir_params(cfg, phi=phi), cfg.dim))[0])
               for phi in phis]
    k = max(i for i in range(2, 17) if defects[i] > max(defects[:i]))
    monkeypatch.setattr(kraus, "UNITARY_TOL", max(defects[:k]))

    def first_error(run):
        with pytest.raises(Exception) as info:
            run(cfg, phis)
        return type(info.value), str(info.value)

    assert first_error(ex._settled) == first_error(phase_by_phase) == (
        ValueError, f"propagator unitarity defect {defects[k]:.3e} exceeds {max(defects[:k]):.1e}")

    solve = thermal.stationary
    refused = ex.cycle_matrix(cfg, ex.build_channel(cfg, ex.reservoir_params(cfg, phi=phis[1])))

    def failing(m):
        # the solve of phase j = 1 fails in either route, found by its matrix
        # since stacks on two threads call in no fixed order
        if any(np.array_equal(step, refused) for step in m.reshape(-1, *refused.shape)):
            raise AmbiguousSteadyStateError("solve of phase 1 refused")
        return solve(m)

    monkeypatch.setattr(ex, "stationary", failing)
    monkeypatch.setattr(thermal, "stationary", failing)
    for run in (ex._settled, phase_by_phase):
        assert first_error(run) == (AmbiguousSteadyStateError, "solve of phase 1 refused")


def test_a_stack_below_the_gap_floor_raises_the_message_of_its_first_failing_phase():
    # grid phases 46 and 47 of this nbar-8 tuning both fall below the gap
    # floor; the stack raises what the phase-by-phase loop meets first
    from fockstab.errors import AmbiguousSteadyStateError
    from fockstab.thermal import stationary

    cfg = resolved(scenario="tune-phase", nbar=8, theta2=0.8330405509046935, theta1_err=0.02, **CAVITY_CFG)
    grid = [2.0 * math.pi * i / ex.PHI_GRID_POINTS for i in range(ex.PHI_GRID_POINTS)]
    for phis, gap in ((grid[45:48], "6.517e-14"), (grid[46:48], "6.517e-14"), ([grid[47], grid[46]], "5.584e-14")):
        with pytest.raises(AmbiguousSteadyStateError, match=f"spectral gap {gap}$") as stacked:
            ex._settled(cfg, phis)
        with pytest.raises(AmbiguousSteadyStateError) as looped:
            phase_by_phase(cfg, phis)
        assert str(stacked.value) == str(looped.value)
        channels = ex.build_channel(cfg, ex.reservoir_params(cfg), phis=phis)
        with pytest.raises(AmbiguousSteadyStateError, match=f"spectral gap {gap}$"):
            stationary(ex.cycle_matrix(cfg, channels))


def test_stack_items_that_settle_at_different_steps_keep_their_own_vectors():
    # six grid phases of the same tuning, gaps 1.5e-13 to 2.3e-3: the inverse
    # iteration settles them after 6 to 35 steps, and each item keeps the
    # vector of its own settling step while the others go on
    from fockstab.thermal import stationary

    cfg = resolved(scenario="tune-phase", nbar=8, theta2=0.8330405509046935, theta1_err=0.02, **CAVITY_CFG)
    grid = [2.0 * math.pi * i / ex.PHI_GRID_POINTS for i in range(ex.PHI_GRID_POINTS)]
    phis = [grid[i] for i in (0, 44, 45, 10, 48, 30)]
    stack = ex.cycle_matrix(cfg, ex.build_channel(cfg, ex.reservoir_params(cfg), phis=phis))
    populations, gaps = stationary(stack)
    assert gaps.min() < 2e-13 and gaps.max() > 2e-3
    for item, r, gap in zip(stack, populations, gaps):
        r1, gap1 = stationary(item)
        assert np.array_equal(r.view(np.int64), r1.view(np.int64)) and gap == gap1


def test_a_lapack_error_re_solves_the_stack_one_phase_at_a_time(monkeypatch):
    solve = ex.stationary
    sizes = []

    def refuses_stacks(m):
        sizes.append(len(m))
        if len(m) > 1:
            raise np.linalg.LinAlgError("stacked solve refused")
        return solve(m)

    cfg = resolved(scenario="tune-phase", nbar=2, **CAVITY_CFG)
    phis = [0.1, 1.1, 2.1]
    want = ex._settled(cfg, phis)
    monkeypatch.setattr(ex, "stationary", refuses_stacks)
    assert ex._settled(cfg, phis) == want
    assert sizes == [3, 1, 1, 1]


def test_tune_phase_builds_the_grid_in_stacks(tmp_path, monkeypatch, capsys):
    # the 64 grid phases run as stacks of SOLVE_ENTRIES // dim^2 phases, all
    # 64 at nbar 2 (dim 27) and 8 at nbar 8 (dim 81), for the channel builds
    # and for the stationary solves alike; phase by phase would make 64
    # calls of each. The golden section's 13 phases (2 + 11 steps of
    # (sqrt(5) - 1)/2 narrow 2 * 2pi/64 to 1e-3) build one channel each,
    # without a phase stack, and `shifted_stationary` answers all of them
    # here; the chosen phase's kept step matrix is then solved once. The
    # stacks of one grid have one size, so the order in which the two
    # threads call does not show. The nbar-2 golden-section result is
    # checked on stderr, as the phase-by-phase run printed it, and in the
    # CSV's metadata lines
    sizes, solved = [], []
    build, solve = ex.composite_propagator, ex.stationary

    def counted(params, field_dim, phis=None):
        sizes.append(None if phis is None else len(phis))
        return build(params, field_dim, phis)

    def counted_solve(m):
        solved.append(len(m) if m.ndim == 3 else None)
        return solve(m)

    monkeypatch.setattr(ex, "composite_propagator", counted)
    monkeypatch.setattr(ex, "stationary", counted_solve)
    for nbar, grid in ((2, [64]), (8, [8] * 8)):
        sizes.clear()
        solved.clear()
        argv = ["tune-phase", "--nbar", str(nbar), "--kappa", "10", "--nth", "0.05", "--pat", "0.3",
                "--out", str(tmp_path / f"t{nbar}.csv")]
        assert main(argv) == 0
        assert sizes == grid + [None] * 13
        assert solved == grid + [None]
    assert "phi_opt: 5.905913 rad  fidelity: 0.970298" in capsys.readouterr().err
    lines = (tmp_path / "t2.csv").read_text().splitlines()
    assert lines[2:4] == ["# phi_opt: 5.90591284661", "# fidelity: 0.970297828117"]


def stationary_golden_section(cfg):
    """`tune_phase`'s answer with every golden-section phase ranked by its own
    `_settled` call: the answer that ranking by `shifted_stationary` must
    reproduce bit for bit."""
    grid = [2.0 * math.pi * i / ex.PHI_GRID_POINTS for i in range(ex.PHI_GRID_POINTS)]
    fids = [row["fidelity"] for row in ex._settled(cfg, grid)]
    if max(fids) - min(fids) < 1e-6:
        return 0.0, fids[0]
    best = int(np.argmax(fids))
    step = 2.0 * math.pi / ex.PHI_GRID_POINTS
    phi_opt, fid_opt = ex._golden_max(lambda p: ex._settled(cfg, [p])[0]["fidelity"],
                                      grid[best] - step, grid[best] + step, xatol=1e-3)
    if fids[best] >= fid_opt:
        phi_opt, fid_opt = grid[best], fids[best]
    return phi_opt % (2.0 * math.pi), fid_opt


def tuning_answer(tune, cfg):
    """(phi_opt, fidelity) of tune(cfg), or the type and message it raises."""
    try:
        return tune(cfg)[:2]
    except Exception as exc:  # compared, not hidden: both routes must raise alike
        return type(exc), str(exc)


# the seed-11 `phase_scan` and `robustness` tunings of perfbench
SEED11_TUNINGS = [
    ["tune-phase", "--nbar", "1", "--theta2", "2.3546984497438026", *CAVITY_ARGV],
    ["tune-phase", "--nbar", "4", "--theta2", "1.1773492248719013", *CAVITY_ARGV],
    ["tune-phase", "--nbar", "8", "--theta2", "0.8325116207316468", *CAVITY_ARGV],
    ["robustness", "--nbar", "3", "--theta2", "1.359485783819979"],
]
# a tuning whose answer is its best grid row, which the golden section does
# not beat
GRID_ANSWER_TUNING = ["tune-phase", "--nbar", "2", "--theta2", "0.03", *CAVITY_ARGV]
# metastable golden phases (gaps 3e-9 to 9e-9), where a vector that passes
# the residual test can still rank the phases otherwise than `stationary`
METASTABLE_TUNINGS = [
    ["tune-phase", "--nbar", "4", "--kappa", "14.880631263823672", "--nth", "0.0977929396441481",
     "--pat", "0.6183900454357718", "--theta1-err", "0.02886410310293879"],
    ["tune-phase", "--nbar", "4", "--kappa", "20.32037155156217", "--nth", "0.0715499854180885",
     "--pat", "0.931594409902618", "--theta1-err", "0.02596251673178046"],
]


def answer_check_tunings():
    """Random cavities on every axis, nbar 1-6 and a +/-3 % theta1 error,
    then the benchmark's seed-11 tunings, two metastable ones and one that
    answers a grid row."""
    rng = np.random.default_rng(67)
    configs = [
        resolved(scenario="tune-phase", nbar=int(rng.integers(1, 7)), kappa=float(rng.uniform(1.0, 30.0)),
                 nth=float(rng.uniform(0.0, 0.2)), pat=float(rng.uniform(0.1, 1.0)),
                 theta1_err=float(rng.uniform(-0.03, 0.03)))
        for _ in range(32)
    ]
    return configs + [config_from_args(build_parser().parse_args(argv))
                      for argv in SEED11_TUNINGS + METASTABLE_TUNINGS + [GRID_ANSWER_TUNING]]


def test_the_golden_section_answer_is_that_of_stationary_ranking():
    # phi_opt and the fidelity are bit for bit those of the golden section
    # that ranks every phase by `stationary`, and a draw whose tuning raises
    # raises the same error either way
    for i, cfg in enumerate(answer_check_tunings()):
        assert tuning_answer(ex.tune_phase, cfg) == tuning_answer(stationary_golden_section, cfg), i


def test_unwritten_grid_answer_is_that_of_stationary_ranking():
    # the same tunings as a run that resolves its phase: the grid ranked by
    # `shifted_stationary` with the deciding phases solved again still gives
    # the answer of `stationary` alone, bit for bit, or raises alike
    def resolved_phase(cfg):
        phi, info = ex.resolve_phi(cfg)
        return phi, info["phi_tune_fidelity"]

    for i, cfg in enumerate(answer_check_tunings()):
        assert tuning_answer(resolved_phase, cfg) == tuning_answer(stationary_golden_section, cfg), i


def test_a_flat_unwritten_grid_answers_stationarys_phase_0(monkeypatch):
    # with every landscape read as flat, the answer is phase 0's fidelity,
    # which the unwritten grid solves again with `stationary`
    monkeypatch.setattr(ex, "TUNE_FLAT", 2.0)
    cfg = resolved(scenario="robustness")
    phi, info = ex.resolve_phi(cfg)
    assert (phi, info["phi_tune_fidelity"]) == (0.0, ex._settled(cfg, [0.0])[0]["fidelity"])


def test_an_unwritten_grid_calls_eigvals_only_for_the_phases_that_decide(monkeypatch):
    # the default robustness tuning (dim 36): `shifted_stationary` answers
    # its two grid stacks and the golden section's 13 phases, each a stack
    # of one, and `stationary` solves again only the grid's argmax, in one
    # call, then the golden section's answer
    cfg = resolved(scenario="robustness")
    eigvals, shifted = np.linalg.eigvals, ex.shifted_stationary
    shapes, stacks = [], []

    def spy(a):
        shapes.append(a.shape)
        return eigvals(a)

    def recorded(m):
        stacks.append(len(m))
        return shifted(m)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    monkeypatch.setattr(ex, "shifted_stationary", recorded)
    ex.resolve_phi(cfg)
    assert sorted(stacks[:2]) == [24, 40] and stacks[2:] == [1] * 13
    assert shapes == [(1, cfg.dim, cfg.dim)] * 2


def test_a_metastable_answer_counts_as_ill_conditioned(tmp_path):
    # the golden section's answer, off the grid, comes from a chain with gap
    # 7.4e-9: it is counted with the grid rows below ILL_CONDITIONED_GAP
    out = tmp_path / "tune.json"
    assert main([*METASTABLE_TUNINGS[0], "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    tuning = ex.tune_phase(config_from_args(build_parser().parse_args(METASTABLE_TUNINGS[0])))
    assert 1e-9 < tuning.answer_gap < ex.ILL_CONDITIONED_GAP
    assert doc["summary"]["phi_opt"] == tuning.phi_opt not in [r["phi"] for r in doc["records"]]
    ill = sum(r["spectral_gap"] < ex.ILL_CONDITIONED_GAP for r in doc["records"])
    assert doc["summary"]["ill_conditioned"] == ill + 1


def test_a_tuning_whose_golden_phases_all_fall_back_keeps_its_answer(monkeypatch):
    # no golden phase of the draws tried is refused by `shifted_stationary`,
    # so it is made to refuse every stack of one: `stationary` then solves
    # each of the 13 golden phases as a stack of one, and the chosen phase's
    # kept step matrix once more, and the answer keeps its bits
    argv = ["tune-phase", "--nbar", "2", "--kappa", "10", "--nth", "0.05", "--pat", "0.3", "--theta1-err", "-0.02"]
    cfg = config_from_args(build_parser().parse_args(argv))
    want = stationary_golden_section(cfg)
    shifted, solve = ex.shifted_stationary, ex.stationary
    singles = []

    def refusing(ms):
        populations, accepted = shifted(ms)
        return populations, accepted & (len(ms) > 1)

    def counted(m):
        if m.ndim == 2 or len(m) == 1:
            singles.append(m.shape)
        return solve(m)

    monkeypatch.setattr(ex, "shifted_stationary", refusing)
    monkeypatch.setattr(ex, "stationary", counted)
    assert ex.tune_phase(cfg)[:2] == want
    assert singles == [(1, cfg.dim, cfg.dim)] * 13 + [(cfg.dim, cfg.dim)]


def test_golden_phases_that_shifted_answers_call_no_eigvals(monkeypatch):
    # the nbar-8 cavity tuning: one eigvals per grid stack and one for the
    # chosen phase, none for the 13 golden phases that shifted_stationary
    # answers. shifted_stationary sees those 13 as stacks of one, never a
    # written grid stack, and nothing of a tuning without an environment
    cfg = nbar8_cavity()
    shapes, seen, answered = [], [], []
    eigvals, shifted = np.linalg.eigvals, ex.shifted_stationary

    def spy(a):
        shapes.append(a.shape)
        return eigvals(a)

    def recorded(ms):
        seen.append(ms.shape)
        populations, accepted = shifted(ms)
        answered.extend(accepted)
        return populations, accepted

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    monkeypatch.setattr(ex, "shifted_stationary", recorded)
    ex.tune_phase(cfg)
    assert shapes == [(8, cfg.dim, cfg.dim)] * 8 + [(1, cfg.dim, cfg.dim)]
    assert seen == [(1, cfg.dim, cfg.dim)] * 13 and len(answered) == 13 and all(answered)
    seen.clear()
    ex.tune_phase(resolved(scenario="tune-phase", nbar=2))
    assert seen == []


def test_a_solve_in_one_stack_fails_before_the_build_of_the_next(monkeypatch):
    # 41 phases at dim 36 run as stacks of 40 and 1, the second on the
    # helper thread: phase 1 fails its solve in the first stack and phase
    # 40, alone in the second, fails its build; the solve failure is raised,
    # as the phase-by-phase loop meets it first, whichever thread fails first
    from fockstab import thermal
    from fockstab.errors import AmbiguousSteadyStateError

    cfg = resolved(scenario="tune-phase", nbar=3, **CAVITY_CFG)
    chunk = ex.SOLVE_ENTRIES // cfg.dim**2
    assert chunk == 40
    phases = [2.0 * math.pi * i / (chunk + 1) for i in range(chunk + 1)]
    refused = ex.cycle_matrix(cfg, ex.build_channel(cfg, ex.reservoir_params(cfg, phi=phases[1])))
    build, solve = ex.composite_propagator, thermal.stationary

    def failing_build(params, field_dim, phis=None):
        if phases[chunk] in ([params.phi] if phis is None else phis):
            raise ValueError(f"build of phase {chunk} refused")
        return build(params, field_dim, phis)

    def failing_solve(m):
        if any(np.array_equal(step, refused) for step in m.reshape(-1, *refused.shape)):
            raise AmbiguousSteadyStateError("solve of phase 1 refused")
        return solve(m)

    monkeypatch.setattr(ex, "composite_propagator", failing_build)
    monkeypatch.setattr(ex, "stationary", failing_solve)
    monkeypatch.setattr(thermal, "stationary", failing_solve)
    for run in (ex._settled, phase_by_phase):
        with pytest.raises(AmbiguousSteadyStateError, match="solve of phase 1 refused"):
            run(cfg, phases)


GRID = [2.0 * math.pi * i / ex.PHI_GRID_POINTS for i in range(ex.PHI_GRID_POINTS)]
# seconds any wait of a threaded test may take before it fails
WAIT_S = 30.0


def nbar8_cavity():
    """The nbar-8 cavity tuning: dim 81, so its grid runs as 8 stacks of 8."""
    cfg = resolved(scenario="tune-phase", nbar=8, **CAVITY_CFG)
    assert ex.SOLVE_ENTRIES // cfg.dim**2 == 8
    return cfg


def refusing_solve(cfg, phases, before_raise=lambda phase: None):
    """`thermal.stationary` refusing every stack that holds the step matrix of
    a grid phase in phases, with the message of the first such phase in the
    stack. before_raise(phase) runs just before the refusal."""
    from fockstab import thermal
    from fockstab.errors import AmbiguousSteadyStateError

    solve = thermal.stationary
    steps = {p: ex.cycle_matrix(cfg, ex.build_channel(cfg, ex.reservoir_params(cfg, phi=GRID[p]))) for p in phases}

    def failing(m):
        for step in m.reshape(-1, cfg.dim, cfg.dim):
            for p, refused in steps.items():
                if np.array_equal(step, refused):
                    before_raise(p)
                    raise AmbiguousSteadyStateError(f"solve of phase {p} refused")
        return solve(m)

    return failing


def test_the_threaded_grid_equals_the_phase_by_phase_loop(monkeypatch):
    # the odd stacks run on the helper thread, and every row is still that
    # of the loop, bit for bit
    cfg = nbar8_cavity()
    threads, solve = set(), ex.stationary

    def recorded(m):
        threads.add(threading.get_ident())
        return solve(m)

    monkeypatch.setattr(ex, "stationary", recorded)
    before = threading.active_count()
    assert ex._settled(cfg, GRID) == phase_by_phase(cfg, GRID)
    assert len(threads) == 2
    assert threading.active_count() == before


def test_each_stationary_stack_is_one_eigvals_and_one_inv_call(monkeypatch):
    # numpy releases the GIL in a linalg call only when stack size x dim
    # exceeds 500; a loop over single matrices would hold it and quietly
    # lose the overlap of the two tuning threads
    cfg = nbar8_cavity()
    calls = {"eigvals": [], "inv": []}
    for name, shapes in calls.items():
        def spy(a, original=getattr(np.linalg, name), shapes=shapes):
            shapes.append(a.shape)
            return original(a)

        monkeypatch.setattr(np.linalg, name, spy)
    ex._settled(cfg, GRID)
    assert calls["eigvals"] == calls["inv"] == [(8, cfg.dim, cfg.dim)] * 8


def test_a_failure_only_in_a_helper_stack_raises_its_error(monkeypatch):
    # phase 9 sits in stack 1, which the helper thread solves
    from fockstab.errors import AmbiguousSteadyStateError

    cfg = nbar8_cavity()
    failed_on = []
    monkeypatch.setattr(ex, "stationary",
                        refusing_solve(cfg, [9], lambda p: failed_on.append(threading.current_thread())))
    before = threading.active_count()
    with pytest.raises(AmbiguousSteadyStateError, match="^solve of phase 9 refused$"):
        ex._settled(cfg, GRID)
    assert threading.active_count() == before
    assert failed_on and failed_on[0] is not threading.main_thread()


@pytest.mark.parametrize("earlier, later", [(12, 17), (20, 25)], ids=["helper-then-caller", "caller-then-helper"])
def test_failures_on_both_threads_raise_that_of_the_earlier_phase(monkeypatch, earlier, later):
    # each failing phase lies in a stack of its own thread; the earlier
    # phase is held back until the later one has failed, so the error met
    # first in time is the wrong one to raise
    from fockstab.errors import AmbiguousSteadyStateError

    cfg = nbar8_cavity()
    assert earlier // 8 % 2 != later // 8 % 2
    later_failed = threading.Event()

    def before_raise(phase):
        if phase == later:
            later_failed.set()
        else:
            assert later_failed.wait(timeout=WAIT_S)

    monkeypatch.setattr(ex, "stationary", refusing_solve(cfg, [earlier, later], before_raise))
    before = threading.active_count()
    with pytest.raises(AmbiguousSteadyStateError, match=f"^solve of phase {earlier} refused$"):
        ex._settled(cfg, GRID)
    assert later_failed.is_set()
    assert threading.active_count() == before


def test_any_error_on_the_helper_thread_reaches_the_caller(monkeypatch):
    class Refused(Exception):
        pass

    cfg = nbar8_cavity()
    solve = ex.stationary

    def helper_fails(m):
        if threading.current_thread() is not threading.main_thread():
            raise Refused("the helper refused")
        return solve(m)

    monkeypatch.setattr(ex, "stationary", helper_fails)
    before = threading.active_count()
    with pytest.raises(Refused, match="the helper refused"):
        ex._settled(cfg, GRID)
    assert threading.active_count() == before


def test_the_helper_is_joined_before_an_error_of_the_caller_propagates(monkeypatch):
    # an error that is no Exception ends the caller's share at once; it
    # reaches the test only after the helper has solved its four stacks
    class Interrupted(BaseException):
        pass

    cfg = nbar8_cavity()
    solve, helper_stacks, helper_busy = ex.stationary, [], threading.Event()

    def caller_interrupted(m):
        if threading.current_thread() is threading.main_thread():
            assert helper_busy.wait(timeout=WAIT_S)
            raise Interrupted
        helper_busy.set()
        result = solve(m)
        helper_stacks.append(len(m))
        return result

    monkeypatch.setattr(ex, "stationary", caller_interrupted)
    before = threading.active_count()
    with pytest.raises(Interrupted):
        ex._settled(cfg, GRID)
    assert helper_stacks == [8] * 4
    assert threading.active_count() == before


def test_the_gap_floor_tuning_still_exits_3(tmp_path, capsys):
    # grid phases 46 and 47 fall below the gap floor; they sit in stack 5,
    # which the helper thread solves
    argv = ["tune-phase", "--nbar", "8", "--theta2", "0.8330405509046935", "--kappa", "10", "--nth", "0.05",
            "--pat", "0.3", "--theta1-err", "0.02", "--out", str(tmp_path / "tune.csv")]
    before = threading.active_count()
    assert main(argv) == 3
    assert "spectral gap 6.517e-14" in capsys.readouterr().err
    assert threading.active_count() == before


def test_concurrent_tunings_under_a_short_switch_interval_keep_every_row():
    # three callers at once, each with its own helper thread, so six threads
    # share two cores and switch every microsecond; every caller still gets
    # the rows of the phase-by-phase loop
    cfg = resolved(scenario="tune-phase", nbar=4, **CAVITY_CFG)
    assert -(-ex.PHI_GRID_POINTS // (ex.SOLVE_ENTRIES // cfg.dim**2)) == 3
    want = phase_by_phase(cfg, GRID)
    got = [None] * 3

    def tune(i):
        got[i] = ex._settled(cfg, GRID)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=tune, args=(i,)) for i in range(3)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=WAIT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == [want] * 3
