import io
import json
import math
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from fockstab import experiments as ex
from fockstab import kernels, output, validation
from fockstab.cli import build_parser, config_from_args, main
from fockstab.config import ExperimentConfig
from fockstab.kraus import bands
from fockstab.output import _fmt

DATA = Path(__file__).parent / "data"
SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, 1e-5, 1e-4, 1e16, 1e17, 0.1, 1 / 3, 123456789012.5, 999999999999.5]


def cli_config(argv):
    return config_from_args(build_parser().parse_args(argv))


def emitted(cfg, emit, *payload):
    buf = io.StringIO()
    emit(cfg, *payload, stream=buf)
    return buf.getvalue()


def boxed_lines(ts, record):
    """The per-value route: every cell boxed into a Python scalar and passed to _fmt."""
    lines = []
    for k in range(record.diag.shape[0]):
        row = [k, k * ts, float(record.fidelity[k]), float(record.v[k]), float(record.trace[k])]
        lines.append(",".join(_fmt(v) for v in row + [float(x) for x in record.diag[k]]) + "\n")
    return lines


def random_bit_floats(rng, shape):
    return rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)


RECORD_GOLDENS = [
    ("trajectory_nbar2_dim12_steps200_phi0.3.csv",
     ["trajectory", "--nbar", "2", "--dim", "12", "--steps", "200", "--phi", "0.3"]),
    ("converge_nbar2_dim12_steps150_phi0.3.csv",
     ["converge", "--nbar", "2", "--dim", "12", "--steps", "150", "--phi", "0.3"]),
    ("ladder_nbar1_dim18_steps150_phi0.csv",
     ["ladder", "--nbar", "1", "--dim", "18", "--steps", "150", "--phi", "0"]),
    # the numeric Walther pulse, the three-segment cycle at theta2 = 0 and phi = 0;
    # it has no Lyapunov certificate, so its v column is NaN
    ("converge_walther_nbar2_dim12_steps150.csv",
     ["converge", "--nbar", "2", "--dim", "12", "--steps", "150", "--scheme", "walther"]),
]
# the tuning grid, built in stacks of phases, as the phase-by-phase build wrote it
TUNE_GOLDEN = ("tune_phase_nbar2_kappa10_nth0.05_pat0.3.csv",
               ["tune-phase", "--nbar", "2", "--kappa", "10", "--nth", "0.05", "--pat", "0.3"])
# the tables the trapping-rate chain feeds: the steady table's fid_reduced
# column and the theta2 sweep, answer line included; and a steady table
# whose stacked theta1-error solves start at the configured error, not 0,
# as the level-by-level solves wrote it
TABLE_GOLDENS = [("steady_nbars1-2.csv", ["steady", "--nbars", "1,2"]),
                 ("sweep_theta2_nbar2.csv", ["sweep-theta2", "--nbar", "2"]),
                 ("steady_nbar2_theta1err0.01.csv", ["steady", "--nbars", "2", "--nbar", "2", "--theta1-err", "0.01"])]
# the answer-only powers, as the binary-power kernel that numpy's
# `matrix_power` replaced wrote them: the no-environment tuning, whose
# 1,200-atom settle sets its grid rows and answer lines, and the robustness
# decay rows beside its tuned stationary rows; and the analytic robustness
# table, untuned, where p_at = 1 leaves one decay row per theta1 error
POWER_GOLDENS = [("tune_phase_nbar2.csv", ["tune-phase", "--nbar", "2"]),
                 ("robustness_nbar2.csv", ["robustness", "--nbar", "2"]),
                 ("robustness_nbar1_analytic_pat1.csv",
                  ["robustness", "--nbar", "1", "--channel", "analytic", "--pat", "1"])]
GOLDEN_RUNS = pytest.mark.parametrize("name, argv", [*RECORD_GOLDENS, TUNE_GOLDEN, *TABLE_GOLDENS, *POWER_GOLDENS],
                                      ids=["trajectory", "converge", "ladder", "converge-walther", "tune-phase",
                                           "steady", "sweep-theta2", "steady-theta1-err", "tune-phase-settle",
                                           "robustness",
                                           "robustness-analytic"])
RECORD_GOLDEN_RUNS = pytest.mark.parametrize("name, argv", RECORD_GOLDENS,
                                             ids=["trajectory", "converge", "ladder", "converge-walther"])


@GOLDEN_RUNS
def test_record_csv_matches_golden_file(name, argv, tmp_path):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


@RECORD_GOLDEN_RUNS
def test_golden_file_is_the_evolve_loop_to_twelve_digits(name, argv):
    # the runs read powers of the step matrix; every golden cell is still
    # the atom-by-atom loop of `kernels.evolve` to one unit in its twelfth
    # significant digit, and exactly 0 where the loop is
    cfg = cli_config(argv)
    g, e, m = bands(ex.build_channel(cfg, ex.reservoir_params(cfg, phi=ex.resolve_phi(cfg)[0])))
    tp = ex.thermal_params(cfg)
    _, diag, trace = kernels.evolve(g, e, m, ex.initial_state(cfg), tp.gamma_minus, tp.gamma_plus, tp.p_at,
                                    cfg.steps)
    steps = np.arange(cfg.steps + 1)
    loop = np.column_stack([steps, steps * cfg.ts, diag[:, cfg.nbar], ex._v_series(cfg, diag), trace, diag])
    lines = [line for line in (DATA / name).read_text().splitlines() if not line.startswith("#")][1:]
    golden = np.array([[float(cell) for cell in line.split(",")] for line in lines])
    assert golden.shape == loop.shape
    # the Walther pulse has no Lyapunov certificate: there the v column is
    # NaN, in the file as in the loop, and every other cell is finite
    walther = cfg.scheme == "walther"
    assert (np.isnan(golden) == np.isnan(loop)).all()
    assert np.isfinite(np.delete(loop, 3, axis=1) if walther else loop).all()
    assert not walther or np.isnan(loop[:, 3]).all()
    golden, loop = np.nan_to_num(golden), np.nan_to_num(loop)
    with np.errstate(divide="ignore"):
        unit = np.where(loop == 0.0, 0.0, 10.0 ** (np.floor(np.log10(np.abs(loop))) - 11))
    assert (np.abs(golden - loop) <= unit).all()


def test_record_rows_match_per_value_formatting_on_special_and_random_floats():
    rng = np.random.default_rng(2024)
    n, dim = 400, 9
    cols = [random_bit_floats(rng, n) for _ in range(3)] + [random_bit_floats(rng, (n, dim))]
    for col in cols[:3]:
        col[: len(SPECIALS)] = SPECIALS
    cols[3][: len(SPECIALS), 0] = SPECIALS
    record = ex.RunRecord(fidelity=cols[0], v=cols[1], trace=cols[2], diag=cols[3])
    cfg = ExperimentConfig(scenario="trajectory", nbar=2, steps=n - 1).resolved()
    header, lines = output.record_table(cfg, record)
    assert header == ["step", "time_s", "fidelity", "v", "trace"] + [f"p{k}" for k in range(dim)]
    assert joined_lines(lines) == boxed_lines(cfg.ts, record)


def test_twelve_digit_template_equals_fmt_on_random_bit_patterns():
    values = np.concatenate([SPECIALS, random_bit_floats(np.random.default_rng(7), 200_000)]).tolist()
    assert ["%.12g" % v for v in values] == [_fmt(v) for v in values]


def joined_lines(chunks):
    """The lines of the joined text of a table's chunks."""
    return "".join(chunks).splitlines(keepends=True)


def template_lines(start, table):
    """The run-row template: "%d," for the step, then "%.12g" per cell."""
    line = "%d," + ",".join(["%.12g"] * table.shape[1]) + "\n"
    return [line % (k, *row) for k, row in enumerate(table.tolist(), start)]


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def formatter_cases():
    """Every kind of cell the formatter must print as %.12g, signs included."""
    rng = np.random.default_rng(11)
    # exact ties at the twelfth digit, by value and at random scales
    mantissas = rng.integers(10**11, 10**12, 3_000).tolist()
    scales = rng.integers(-320, 297, 3_000).tolist()
    ties = [123456789012.5, 999999999999.5, 100000000000.5, 0.1234567890125, 9.999999999995e-5,
            *(float(f"{m}.5e{k}") for m, k in zip(mantissas, scales))]
    # near ties on both sides of the fast path's margin of 1e-3 of a unit
    near = [float(f"{m}.{500_000 + d:06d}e{k}") for m, k in zip(mantissas, scales)
            for d in (-2_000, -1_100, -900, 900, 1_100, 2_000)]
    powers = [float(f"1e{k}") for k in range(-320, 309)]
    switches = [1e-5, 1e-4, 9.999999999995e-5, 9.9999999999949e-5, 1e11, 1e12, 999999999999.4,
                999999999999.6, 99999999999.5]
    integers = rng.integers(1, 10**12, 5_000).astype(np.float64)
    fractions = integers + rng.random(5_000)
    # [1, 10), where the point follows the first digit: random fractions,
    # near ties at the twelfth digit, 1 and the carry from 9.99... to 10
    unit_rng = np.random.default_rng(12)
    units = 1.0 + 9.0 * unit_rng.random(5_000)
    unit_near = [float(f"{m}.{500_000 + d:06d}e-11") for m in unit_rng.integers(10**11, 10**12, 1_000).tolist()
                 for d in (-2_000, -1_100, -900, 0, 900, 1_100, 2_000)]
    unit_edges = [1.0, 9.99999999999949, 9.9999999999995, 10.0]
    specials = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
                1.7976931348623157e308]
    cases = np.concatenate([with_neighbours(ties), near, with_neighbours(powers), with_neighbours(switches),
                            integers, fractions, units, unit_near, with_neighbours(unit_edges), specials])
    return np.concatenate([cases, -cases, random_bit_floats(rng, 100_000)])


def test_format_rows_equals_the_template_on_every_kind_of_float():
    cases = formatter_cases()
    table = np.resize(cases, (-(-cases.size // 9), 9))
    lines = joined_lines(output.format_rows([np.arange(10**6, 10**6 + len(table)), table]))
    assert lines == template_lines(10**6, table)


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_format_rows_stays_exact_when_the_exponent_guess_is_one_off(shift, monkeypatch):
    # log10 only guesses the exponent; a guess one off either way must give
    # the same text (through the carry, the guard or the fallback), never a
    # wrong digit or an out-of-range lookup
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    table = formatter_cases()[:60_000].reshape(-1, 6)
    assert joined_lines(output.format_rows([np.arange(len(table)), table])) == template_lines(0, table)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("cols", [1, 6, 40])
def test_format_rows_splits_blocks_at_any_row_count(cols, extra):
    # a block holds BLOCK_CELLS // (cols + 1) rows; one row and one row
    # either side of a block's length, with the step column counted
    block = output.BLOCK_CELLS // (cols + 1)
    cases = formatter_cases()
    for rows in (1, block + extra):
        table = cases[: rows * cols].reshape(rows, cols)
        chunks = list(output.format_rows([np.arange(7, 7 + rows), table]))
        # one chunk of whole lines per block
        assert len(chunks) == -(-rows // block) and all(c.endswith("\n") for c in chunks)
        assert joined_lines(chunks) == template_lines(7, table)


def test_format_rows_takes_two_dimensional_and_integer_columns():
    rng = np.random.default_rng(3)
    steps = np.arange(5, 30)
    diag = rng.random((25, 4))
    ints = rng.integers(-10**11, 10**11, 25)
    lines = joined_lines(output.format_rows([steps, ints, diag]))
    assert lines == template_lines(5, np.column_stack([ints, diag]))


def near_a_tie(value):
    """Whether |value|'s twelfth significant digit is within 0.0015 of a
    rounding tie, where the fast path's 1e-3 margin sends it to the fallback."""
    exact = abs(Decimal(value))
    return abs(exact.scaleb(11 - exact.adjusted()) % 1 - Decimal("0.5")) < Decimal("0.0015")


@pytest.mark.parametrize("scenario", ["converge", "ladder"])
def test_default_record_tables_take_the_fallback_only_near_a_tie(scenario, monkeypatch):
    # values in [1, 10) with a fraction, such as the ladder's time cells from
    # 1 s on, print on the fast path; only cells near a rounding tie reach
    # '%.12g'
    cfg = cli_config([scenario])
    record = ex.run_record(cfg)
    slow = []
    fallback = output._fallback

    def counted(values):
        slow.extend(values)
        return fallback(values)

    monkeypatch.setattr(output, "_fallback", counted)
    header, chunks = output.record_table(cfg, record)
    assert sum(chunk.count("\n") for chunk in chunks) == cfg.steps + 1
    assert [v for v in slow if not (math.isfinite(v) and near_a_tie(v))] == []
    # about 2e-3 of all cells lie that close to a tie
    assert len(slow) < 3e-3 * (cfg.steps + 1) * len(header)


def test_record_format_validation_row_catches_a_wrong_digit(monkeypatch):
    name, ok, detail = validation.record_format_check()
    assert (name, ok) == ("record_format", True) and detail.endswith(" 0 lines differ")
    fast = output.format_rows
    monkeypatch.setattr(output, "format_rows", lambda columns: (c.replace("7", "8") for c in fast(columns)))
    name, ok, detail = validation.record_format_check()
    assert not ok and detail.endswith(" lines differ") and not detail.endswith(" 0 lines differ")


def test_importing_the_cli_does_not_build_the_format_tables(src_env):
    # runs that write no record CSV never pay for the tables
    code = ("import fockstab.cli; from fockstab import output; import numpy as np; "
            "print(output._tables.cache_info().currsize); "
            "list(output.format_rows([np.arange(2), np.ones((2, 2))])); "
            "print(output._tables.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def test_sweep_table_formats_each_type_exactly():
    # table cells hold str, int and float
    rows = [
        {"x": 0.1, "n": 3, "note": "phase_offset", "nan": math.nan, "inf": math.inf, "ninf": -math.inf,
         "zero": -0.0},
        {"x": 1e-07, "n": -4, "note": "a b", "nan": 2.0, "inf": 1e300, "ninf": -1e-300, "zero": 0.0},
    ]
    cfg = ExperimentConfig(scenario="sweep-theta2", nbar=2).resolved()
    lines = emitted(cfg, output.emit_rows, rows).splitlines(keepends=True)
    assert lines[0].startswith("# config: ") and lines[1].startswith("# version: ")
    assert lines[2:] == [
        "x,n,note,nan,inf,ninf,zero\n",
        "0.1,3,phase_offset,nan,inf,-inf,-0\n",
        "1e-07,-4,a b,2,1e+300,-1e-300,0\n",
    ]


@pytest.mark.parametrize("cavity", [[], ["--kappa", "10", "--nth", "0.05", "--pat", "0.3"]],
                         ids=["no-environment", "cavity"])
def test_tune_phase_csv_carries_its_answer_after_the_version_line(cavity, tmp_path):
    # the CSV holds the JSON summary's phi_opt and fidelity as %.12g cells,
    # then the grid rows the JSON records hold
    argv = ["tune-phase", "--nbar", "1", *cavity]
    assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 0
    assert main([*argv, "--format", "json", "--out", str(tmp_path / "t.json")]) == 0
    doc = json.loads((tmp_path / "t.json").read_text())
    lines = (tmp_path / "t.csv").read_text().splitlines(keepends=True)
    assert lines[1].startswith("# version: ")
    summary = doc["summary"]
    assert lines[2:4] == [f"# phi_opt: {summary['phi_opt']:.12g}\n", f"# fidelity: {summary['fidelity']:.12g}\n"]
    # the JSON sorts each record's keys; the table leads with phi
    header, rows = output.sweep_table([{"phi": r["phi"], **r} for r in doc["records"]])
    assert len(rows) == 64
    assert lines[4:] == [",".join(header) + "\n", *rows]


def test_sweep_theta2_csv_carries_its_answer_after_the_version_line(tmp_path):
    # the CSV holds the JSON summary's theta2_opt as a %.12g cell, then the
    # grid rows the JSON records hold
    argv = ["sweep-theta2", "--nbar", "2"]
    assert main([*argv, "--out", str(tmp_path / "s.csv")]) == 0
    assert main([*argv, "--format", "json", "--out", str(tmp_path / "s.json")]) == 0
    doc = json.loads((tmp_path / "s.json").read_text())
    lines = (tmp_path / "s.csv").read_text().splitlines(keepends=True)
    assert lines[1].startswith("# version: ")
    theta2_opt = doc["summary"]["theta2_opt"]
    assert theta2_opt == max(doc["records"], key=lambda r: r["fid_verified"])["theta2"]
    assert lines[2] == f"# theta2_opt: {theta2_opt:.12g}\n"
    # the JSON sorts each record's keys; the table keeps the runner's order
    keys = ["theta2", "theta2_sqrt_nbar", "fid_surrogate", "fid_verified", "spectral_gap"]
    header, rows = output.sweep_table([{k: r[k] for k in keys} for r in doc["records"]])
    assert lines[3:] == [",".join(header) + "\n", *rows]


def test_ragged_sweep_rows_get_the_union_header_and_empty_cells():
    # the robustness table mixes decay rows and stationary rows
    rows = [
        {"case": "walther_theta_err", "theta1_err": -0.02, "p_at": 0.3, "fid_0p1s": 0.5},
        {"case": "symmetric_theta1_err", "theta1_err": 0.0, "p_at": 0.3, "fid_steady": 0.9, "fid_change": 0.0},
        {"case": "phase_offset", "phi_offset": 0.25, "p_at": 0.3, "fid_steady": 0.8, "fid_change": -0.1},
    ]
    header, lines = output.sweep_table(rows)
    assert header == ["case", "theta1_err", "p_at", "fid_0p1s", "fid_steady", "fid_change", "phi_offset"]
    assert lines == [
        "walther_theta_err,-0.02,0.3,0.5,,,\n",
        "symmetric_theta1_err,0,0.3,,0.9,0,\n",
        "phase_offset,,0.3,,0.8,-0.1,0.25\n",
    ]
    assert output.sweep_table([]) == ([], [])
