"""Each subcommand offers exactly the settings its scenario reads.

An option that a scenario never reads would be echoed in the output's config
yet change none of its rows. These tests pin the parser to config.SCENARIOS,
refuse every unread option, flag value and config-file value, and check the
other way round that every offered option changes the data rows.
"""

import json
import math
import re
from pathlib import Path

import pytest

from fockstab import experiments
from fockstab.cli import build_parser, main
from fockstab.config import SCENARIOS, ExperimentConfig
from fockstab.errors import ConfigError

RECORD_SCENARIOS = ("converge", "trajectory", "ladder")
IO_OPTIONS = {"--out", "--format", "--config"}
ALL_OPTIONS = (
    "--nbar --theta2 --eta --dim --steps --kappa --nth --ts --pat --phi --theta1-err --channel --scheme "
    "--init --nbars --sample-atoms --seed --out --format --config"
).split()

# the options each scenario ignores, from its runner; 55 pairs in all
DROPPED = {
    **{s: ("--nbars",) for s in RECORD_SCENARIOS},
    "steady": ("--scheme", "--eta", "--steps", "--init", "--sample-atoms", "--seed"),
    "tune-phase": ("--scheme", "--phi", "--eta", "--steps", "--init", "--nbars", "--sample-atoms", "--seed"),
    "sweep-theta2": ("--theta2", "--phi", "--theta1-err", "--channel", "--scheme", "--eta", "--steps", "--init",
                     "--nbars", "--sample-atoms", "--seed"),
    "robustness": ("--scheme", "--eta", "--steps", "--init", "--nbars", "--sample-atoms", "--seed"),
    "validate": tuple(ALL_OPTIONS),
}

# a value each option accepts
VALUE = {
    "--nbar": "2", "--theta2": "1.0", "--eta": "0.3", "--dim": "30", "--steps": "5", "--kappa": "1",
    "--nth": "0.1", "--ts": "1e-4", "--pat": "0.5", "--phi": "0.4", "--theta1-err": "0.01",
    "--channel": "analytic", "--scheme": "walther", "--init": "fock:2", "--nbars": "1,2", "--seed": "3",
    "--out": "out.csv", "--format": "json", "--config": "c.json",
}


def flag(field):
    return "--" + field.replace("_", "-")


def offered(scenario):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "scenario")
    actions = sub.choices[scenario]._actions
    return {opt for a in actions for opt in a.option_strings if opt != "-h" and opt != "--help"}


def test_dropped_pairs_are_the_complement_of_the_read_sets():
    assert sum(map(len, DROPPED.values())) == 55
    for scenario, (_, reads) in SCENARIOS.items():
        kept = set(ALL_OPTIONS) - set(DROPPED[scenario])
        assert kept == ({flag(f) for f in reads} | IO_OPTIONS if reads else set()), scenario
    assert sum(len(offered(s)) for s in SCENARIOS) == 105


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_each_subcommand_offers_its_read_set(scenario):
    reads = SCENARIOS[scenario][1]
    assert offered(scenario) == ({flag(f) for f in reads} | IO_OPTIONS if reads else set())
    assert reads <= set(ExperimentConfig.__dataclass_fields__) - {"scenario", "out", "fmt"}


@pytest.mark.parametrize("scenario, option", [(s, o) for s, opts in DROPPED.items() for o in opts])
def test_an_unread_option_exits_2(scenario, option, capsys):
    argv = [scenario, option] + ([] if option == "--sample-atoms" else [VALUE[option]])
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_ignored_robustness_settings_are_refused():
    argv = ["robustness", "--nbar", "2", "--steps", "5", "--init", "fock:2", "--sample-atoms", "--seed", "3"]
    assert main(argv) == 2


def test_main_returns_the_exit_code_of_argparse(capsys):
    # in-process callers get a code, not SystemExit, for options argparse handles
    assert main(["validate", "--nbar", "2"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["converge", "--help"]) == 0
    assert "--sample-atoms" in capsys.readouterr().out


PARSE_FAILURES = [
    *([s, "--help"] for s in SCENARIOS),
    *([s, "--bogus", "1"] for s in SCENARIOS),
    *([s, "--format", "xml"] for s, (_, reads) in SCENARIOS.items() if reads),
    ["converge", "--channel", "bogus"],
    ["bogus"], ["bogus", "--nbar", "2"], ["--help"], [],
]


@pytest.mark.parametrize("argv", PARSE_FAILURES, ids=" ".join)
def test_main_parses_as_the_full_parser_does(argv, capsys):
    # main gives only the named subcommand its options; what it prints and
    # returns for help and refusals is what the parser of every option gives
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert main(argv) == full.value.code
    assert capsys.readouterr() == want


def test_config_file_scenario_defaults_to_the_subcommand(tmp_path):
    cfg_file, out = tmp_path / "c.json", tmp_path / "out.csv"
    cfg_file.write_text(json.dumps({"nbar": 1, "steps": 5, "phi": 0.0}))
    assert main(["converge", "--config", str(cfg_file), "--out", str(out)]) == 0
    echoed = json.loads(out.read_text().splitlines()[0][len("# config: "):])
    assert echoed["scenario"] == "converge" and echoed["steps"] == 5
    with pytest.raises(ConfigError, match="scenario"):
        ExperimentConfig.from_dict({"nbar": 1})


@pytest.mark.parametrize("field, value", [("nbar", "2"), ("nbar", 2.5), ("nbar", True), ("kappa", "1"),
                                          ("eta", None), ("sample_atoms", 1), ("init", 3)])
def test_config_file_field_of_the_wrong_type_exits_2(field, value, tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"scenario": "converge", field: value}))
    assert main(["converge", "--config", str(cfg_file)]) == 2
    assert f"config field {field!r}" in capsys.readouterr().err
    # an int is a valid float
    assert ExperimentConfig.from_dict({"scenario": "converge", "kappa": 1}).kappa == 1


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("scenario, field", [("trajectory", "kappa"), ("trajectory", "phi"), ("converge", "theta2"),
                                             ("steady", "pat"), ("sweep-theta2", "ts")])
def test_a_non_finite_setting_exits_2(scenario, field, value, tmp_path, capsys):
    # NaN once passed as an unread setting (it differs from itself) and inf
    # reached the solvers; as a flag and in a config file both are refused
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({field: value}))
    for argv in ([f"{flag(field)}={value!r}"], ["--config", str(cfg_file)]):
        assert main([scenario, *argv]) == 2
        assert f"{field} must be finite, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, shown", [
    (["trajectory", "--ts", "0", "--phi", "0"], "0.0"),
    (["converge", "--ts", "-1"], "-1.0"),
    (["converge", "--config", "ts0.json"], "0"),
])
def test_a_non_positive_period_exits_2(argv, shown, tmp_path, monkeypatch, capsys):
    # the trajectory default steps divide by ts: zero once ended in a
    # ZeroDivisionError traceback, and a negative ts was refused only later
    # as an interaction time exceeding the period
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ts0.json").write_text(json.dumps({"ts": 0}))
    assert main([*argv, "--out", "out.csv"]) == 2
    assert f"ts must be > 0, got {shown}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv, horizon, shown", [
    (["trajectory", "--ts", "10", "--phi", "0"], "4.0", "10.0"),
    (["steady", "--nbars", "1", "--ts", "5", "--kappa", "0.001", "--phi", "0"], "4.0", "5.0"),
    (["robustness", "--ts", "0.15", "--kappa", "0.01", "--phi", "0"], "0.1", "0.15"),
    (["robustness", "--ts", "0.3", "--kappa", "0.01", "--phi", "0"], "0.1", "0.3"),
], ids=["trajectory", "steady", "robustness", "robustness-both-columns"])
def test_a_period_longer_than_a_fixed_horizon_exits_2(argv, horizon, shown, tmp_path, capsys):
    # such a period fits no atom into the span: the default trajectory was
    # refused for steps it derived itself, the steady table wrote the vacuum
    # start as its 4-s baseline and robustness the Fock start as its 0.1-s decay
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"ts must be <= {horizon} s" in err and f"got {shown}" in err
    assert not out.exists()


def test_a_period_up_to_the_horizon_is_accepted(tmp_path):
    # explicit steps give the trajectory no fixed horizon; at ts = 0.1 the
    # 0.1-s decay row is one atom
    assert ExperimentConfig(scenario="trajectory", ts=10.0, steps=3, phi=0.0).resolved().steps == 3
    out = tmp_path / "r.json"
    assert main(["robustness", "--nbar", "1", "--ts", "0.1", "--kappa", "0.01", "--phi", "0", "--format", "json",
                 "--out", str(out)]) == 0
    decay = [r for r in json.loads(out.read_text())["records"] if r["case"] == "walther_theta_err"]
    assert decay and all(r["fid_0p1s"] < 1.0 for r in decay)


def test_seed_without_sample_atoms_is_refused(capsys):
    assert main(["converge", "--seed", "99"]) == 2
    assert "sample_atoms" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="sample_atoms"):
        ExperimentConfig(scenario="trajectory", seed=3).resolved()


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["--nbars", "1", "--theta2", "1.0", "--dim", "30"], "theta2, dim"),
        (["--nbars", "1", "--theta2", "1.0"], "theta2"),
        (["--nbars", "1,2", "--dim", "30"], "dim"),
        (["--nbars", "1", "--nbar", "5"], "nbar, theta2, dim"),
    ],
)
def test_steady_refuses_settings_that_reach_no_sweep_level(argv, unread, capsys):
    # theta2 and dim transfer only to the sweep level equal to nbar
    assert main(["steady", *argv]) == 2
    assert f"does not read {unread} with nbar not in nbars;" in capsys.readouterr().err


@pytest.mark.parametrize("argv, field, value", [
    (["converge", "--nbar", "1", "--phi", "0.2", "--steps", "50"], "nth", 0.3),
    (["ladder", "--nbar", "1", "--steps", "50"], "nth", 0.3),
    (["robustness", "--kappa", "0"], "nth", 0.3),
    (["tune-phase", "--nbar", "1"], "pat", 0.3),
    (["tune-phase", "--nbar", "1"], "ts", 1e-4),
], ids=["converge-nth", "ladder-nth", "robustness-nth", "tune-phase-pat", "tune-phase-ts"])
def test_a_setting_of_an_absent_environment_exits_2(argv, field, value, tmp_path, capsys):
    # with kappa = 0, n_th scales rates that are all zero, and the tuning
    # settle counts every atom (p_at = 1) with no period in it; these values
    # once passed unread, converge, ladder and tune-phase writing the same
    # data rows as without them
    cfg_file, out = tmp_path / "c.json", tmp_path / "out.csv"
    cfg_file.write_text(json.dumps({field: value}))
    for given in ([flag(field), repr(value)], ["--config", str(cfg_file)]):
        assert main([*argv, *given, "--out", str(out)]) == 2
        assert f"does not read {field} with kappa = 0;" in capsys.readouterr().err
        assert not out.exists()
    # with an environment the same setting is read
    assert main([*argv, flag(field), repr(value), "--kappa", "1", "--out", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    ["converge", "--nbar", "1", "--steps", "50", "--channel", "analytic"],
    ["ladder", "--nbar", "1", "--steps", "50", "--channel", "numeric"],
], ids=["converge", "ladder"])
def test_a_phase_with_the_walther_scheme_exits_2(argv, tmp_path, capsys):
    # the baseline pulse has no middle segment; phi once passed unread, and
    # converge echoed it as phi_used with the same data rows at every phi
    cfg_file, out = tmp_path / "c.json", tmp_path / "out.csv"
    cfg_file.write_text(json.dumps({"phi": 1.0}))
    for given in (["--phi", "1"], ["--config", str(cfg_file)]):
        assert main([*argv, "--scheme", "walther", *given, "--out", str(out)]) == 2
        assert "does not read phi with scheme = walther;" in capsys.readouterr().err
        assert not out.exists()
    # without a phase the baseline runs
    assert main([*argv, "--scheme", "walther", "--out", str(out)]) == 0


@pytest.mark.parametrize("scenario", ["robustness", "steady", "tune-phase"])
def test_a_table_refuses_a_scheme(scenario, tmp_path, capsys):
    # the tables study the symmetric pulse, steady and robustness beside their
    # own Walther columns. Under walther, robustness once labelled Walther rows
    # symmetric_theta1_err and wrote three identical phase_offset rows, steady
    # mixed two pulses in one row, and tune-phase wrote 64 identical grid rows
    out = tmp_path / "out.csv"
    assert main([scenario, "--scheme", "walther", "--out", str(out)]) == 2
    assert "unrecognized arguments: --scheme walther" in capsys.readouterr().err
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"scheme": "walther"}))
    assert main([scenario, "--config", str(cfg_file), "--out", str(out)]) == 2
    assert "does not read scheme" in capsys.readouterr().err
    assert not out.exists()


def test_tune_phase_refuses_a_pulse_without_middle_segment(tmp_path, capsys):
    # it once evaluated phi = 0 alone and wrote a table without a header
    out = tmp_path / "out.csv"
    assert main(["tune-phase", "--theta2", "0", "--out", str(out)]) == 2
    assert "phase tuning needs a middle segment" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="theta2 = 0 has none"):
        experiments.tune_phase(ExperimentConfig("tune-phase", nbar=2, theta2=0.0).resolved())


@pytest.mark.parametrize("scenario", [s for s, (_, reads) in SCENARIOS.items() if "pat" in reads])
def test_no_atom_exits_2(scenario, tmp_path, capsys):
    # with no atom every pulse setting is inert; robustness once wrote six
    # identical stationary rows. tune-phase reads pat only with an environment
    out = tmp_path / "out.csv"
    cavity = ["--kappa", "1"] if scenario == "tune-phase" else []
    assert main([scenario, "--pat", "0", *cavity, "--out", str(out)]) == 2
    assert "p_at must lie in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_value_the_scenario_does_not_read_is_refused(tmp_path, capsys):
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps({"scenario": "robustness", "nbar": 2, "steps": 5, "eta": 0.5}))
    assert main(["robustness", "--config", str(cfg_file)]) == 2
    # eta equals its default, so only steps is named, and no other setting is its cause
    assert "does not read steps; leave them unset" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["converge"],
    ["tune-phase"],
    ["converge", "--phi", "0.5", "--steps", "5"],
    ["steady", "--nbars", "2", "--phi", "0.5"],
], ids=["converge", "tune-phase", "converge-phi", "steady-phi"])
def test_a_middle_pulse_too_short_to_last_exits_2(argv, tmp_path, capsys):
    # theta2 = 1e-320 is positive, but t_s = theta2/omega rounds to 0 s; an
    # explicit phi has a middle segment to act in all the same
    out = tmp_path / "out.csv"
    assert main([*argv, "--nbar", "2", "--theta2", "1e-320", "--out", str(out)]) == 2
    assert "schedule segments must have positive durations" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["converge", "--nbar", "1", "--steps", "5", "--phi", "0"],
    ["converge", "--nbar", "1", "--steps", "5", "--phi", "0", "--format", "json"],
    ["sweep-theta2", "--nbar", "1"],
])
@pytest.mark.parametrize("where, cause", [("missing/x.csv", "No such file or directory"), (".", "Is a directory")])
def test_an_unwritable_out_exits_2(argv, where, cause, tmp_path, capsys, monkeypatch):
    # refused before the run: no runner is called
    def no_run(*args, **kwargs):
        raise AssertionError("a runner ran before the --out refusal")

    for runner in ("run_record", "run_steady_sweep", "tune_phase", "optimize_theta2", "run_robustness"):
        monkeypatch.setattr(experiments, runner, no_run)
    out = tmp_path / where
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write --out {out}: {cause}\n"
    assert captured.out == ""


def test_echoed_config_runs_again_with_identical_records(tmp_path):
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    assert main(["robustness", "--nbar", "1", "--phi", "0.3", "--ts", "1e-3", "--format", "json",
                 "--out", str(first)]) == 0
    echo = json.loads(first.read_text())["config"]
    assert echo["steps"] == 2000 and echo["init"] == "vacuum" and echo["seed"] is None
    cfg_file = tmp_path / "echo.json"
    cfg_file.write_text(json.dumps({**echo, "out": str(again)}))
    assert main(["robustness", "--config", str(cfg_file)]) == 0
    assert json.loads(again.read_text())["records"] == json.loads(first.read_text())["records"]
    cfg_file.write_text(json.dumps({**echo, "steps": 5}))
    assert main(["robustness", "--config", str(cfg_file)]) == 2


# Short runs of each scenario: phi given where it is read (no tuning), the
# analytic channel where the channel is read (numeric is the alternative),
# and an environment and atom presence below 1 for the options that act only
# through them. The record runs start above the target, where the Lyapunov
# weights depend on eta.
RECORD_BASE = ["--nbar", "1", "--dim", "12", "--steps", "20", "--phi", "0.3", "--channel", "analytic",
               "--kappa", "10", "--pat", "0.5", "--init", "fock:5"]
CAVITY = ["--kappa", "1", "--nth", "0.05", "--pat", "0.3", "--ts", "1e-3"]
BASE = {
    **{s: RECORD_BASE for s in RECORD_SCENARIOS},
    # the 4 s baseline is 4000 cycles at this ts; theta2 reaches level nbar only
    "steady": ["--nbars", "1,2", "--nbar", "1", "--theta2", "2.0", "--phi", "0.3", "--channel", "analytic",
               *CAVITY],
    "tune-phase": ["--nbar", "1", "--dim", "9", "--channel", "analytic", *CAVITY],
    "sweep-theta2": ["--nbar", "1", "--dim", "12", *CAVITY],
    "robustness": ["--nbar", "1", "--phi", "0.3", "--channel", "analytic", *CAVITY],
}
# an alternative value per read field; the seed, read only when sampling
# atoms, is checked on its own
ALTERNATIVE = {
    "nbar": ["--nbar", "2"], "theta2": ["--theta2", "1.2"], "eta": ["--eta", "0.3"], "dim": ["--dim", "14"],
    "steps": ["--steps", "21"], "kappa": ["--kappa", "2"], "nth": ["--nth", "0.2"], "ts": ["--ts", "2e-3"],
    "pat": ["--pat", "0.7"], "phi": ["--phi", "0.9"], "theta1_err": ["--theta1-err", "0.01"],
    "channel": ["--channel", "numeric"], "scheme": ["--scheme", "walther"], "init": ["--init", "fock:2"],
    "nbars": ["--nbars", "1"], "sample_atoms": ["--sample-atoms"],
}


def without(argv, option):
    """argv without option and its value."""
    i = argv.index(option)
    return argv[:i] + argv[i + 2:]


def data_rows(tmp_path, argv):
    out = tmp_path / "out.txt"
    assert main([*argv, "--out", str(out)]) == 0, argv
    return out.read_text().partition("\n")[2]


@pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s != "validate"])
def test_every_offered_option_changes_the_data_rows(scenario, tmp_path):
    base = [scenario, *BASE[scenario]]
    reads = SCENARIOS[scenario][1]
    if "seed" in reads:
        sampled = data_rows(tmp_path, [*base, "--sample-atoms", "--seed", "1"])
        assert data_rows(tmp_path, [*base, "--sample-atoms", "--seed", "2"]) != sampled
    base_rows = data_rows(tmp_path, base)
    ignored = []
    for field in sorted(reads - {"seed"}):
        before, before_rows = base, base_rows
        if field == "scheme" and "phi" in reads:
            # the walther scheme does not read phi, so neither run sets it
            before = without(base, "--phi")
            before_rows = data_rows(tmp_path, before)
        if data_rows(tmp_path, [*before, *ALTERNATIVE[field]]) == before_rows:
            ignored.append(field)
    assert ignored == []


def test_readme_options_table_lists_the_read_sets():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("Options per scenario", 1)[1].split("\n\n", 2)[1]
    listed = {}
    for row in section.splitlines()[2:]:
        names, options = row.strip("|").split("|")
        fields = frozenset(o.replace("-", "_") for o in re.findall(r"`--([\w-]+)`", options))
        for name in re.findall(r"`([\w-]+)`", names):
            listed[name] = fields
    assert listed == {name: reads for name, (_, reads) in SCENARIOS.items()}
