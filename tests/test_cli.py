import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dimwitness
from dimwitness.cli import cli, main
from dimwitness.errors import (CapacityError, ConfigError, IngestionError,
                               IntegrityError)
from dimwitness.modes import generic_mode_set
from dimwitness.oracle import brute_force_sv_witness, brute_force_witness
from dimwitness.measurement import simulate_counts, write_counts_json
from dimwitness.states import (correlated_pure, load_state, max_witness_state,
                               perturb_state, save_state)
from dimwitness.witness import robustness_study
from helpers import EXAMPLE_MODES

EXAMPLE_AMPS = "0.5,0.07,0.01,0.01"


@pytest.fixture
def runner():
    return CliRunner()


def run(runner, args):
    return runner.invoke(cli, args, catch_exceptions=False)


def exit_code(argv):
    """Run the real entry point and report its exit code."""
    try:
        main(argv)
    except SystemExit as exc:
        return exc.code
    return 0


def simulate_example(runner, tmp_path, name="counts.csv", extra=()):
    modes = tmp_path / "modes.json"
    EXAMPLE_MODES.save(modes)
    out = tmp_path / name
    res = run(runner, ["simulate", "--mode-file", str(modes),
                       "--amplitudes", EXAMPLE_AMPS, "--flux", "1e6",
                       "--seed", "7", "--output", str(out), *extra])
    assert res.exit_code == 0, res.output
    return out, modes


def test_error_exit_code_contract():
    assert ConfigError("x").exit_code == 2
    assert IngestionError("x").exit_code == 3
    assert CapacityError("x").exit_code == 4
    assert IntegrityError("x").exit_code == 5


def test_simulate_dry_run(runner):
    res = run(runner, ["simulate", "--amplitudes", EXAMPLE_AMPS, "--dry-run"])
    assert res.exit_code == 0
    assert "D=4 modes, 6 subspaces, 72 measurements" in res.output


def test_simulate_writes_csv(runner, tmp_path):
    out, _ = simulate_example(runner, tmp_path)
    lines = out.read_text().splitlines()
    assert lines[0] == "na,la,nb,lb,basis,outcome,count"
    assert len(lines) == 1 + 72


def test_simulate_byte_identical_for_same_seed(runner, tmp_path):
    a, _ = simulate_example(runner, tmp_path, "a.csv")
    b, _ = simulate_example(runner, tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_simulate_json_format(runner, tmp_path):
    out, _ = simulate_example(runner, tmp_path, "counts.json")
    payload = json.loads(out.read_text())
    assert payload["flux"] == 1e6
    assert len(payload["counts"]) == 72


def test_simulate_missing_state_is_config_error(tmp_path):
    assert exit_code(["simulate", "--l-max", "1", "--n-max", "1",
                      "--output", str(tmp_path / "x.csv")]) == 2


def test_simulate_missing_seed_is_config_error(tmp_path):
    assert exit_code(["simulate", "--amplitudes", EXAMPLE_AMPS,
                      "--output", str(tmp_path / "x.csv")]) == 2


def test_simulate_missing_mode_set_is_config_error(capsys):
    assert exit_code(["simulate", "--profile", "maximal", "--dry-run"]) == 2
    assert "no mode set given" in capsys.readouterr().err


def test_simulate_missing_output_is_config_error(capsys):
    assert exit_code(["simulate", "--amplitudes", EXAMPLE_AMPS, "--seed", "1"]) == 2
    assert "--output is required" in capsys.readouterr().err


def test_certify_round_trip(runner, tmp_path):
    counts, modes = simulate_example(runner, tmp_path)
    report = tmp_path / "report.json"
    res = run(runner, ["certify", "--input", str(counts),
                       "--mode-file", str(modes), "--flux", "1e6",
                       "--resamples", "30", "--seed", "3",
                       "--output", str(report)])
    assert res.exit_code == 0, res.output
    payload = json.loads(report.read_text())
    assert payload["D"] == 4
    assert abs(payload["W"] - 9.8292) < 0.05
    assert payload["certified_d"] == 2
    assert payload["sigma"] > 0
    assert payload["n_resamples"] == 30
    assert payload["subset_trajectory"] == [[4, 2], [3, 3], [2, 2]]


def test_certify_expectation_subset(runner, tmp_path):
    counts, modes = simulate_example(runner, tmp_path,
                                     extra=["--expectation"])
    report = tmp_path / "sub.json"
    res = run(runner, ["certify", "--input", str(counts),
                       "--mode-file", str(modes), "--flux", "1e6",
                       "--subset", "1,2,3", "--output", str(report)])
    assert res.exit_code == 0, res.output
    payload = json.loads(report.read_text())
    assert payload["D"] == 3
    assert abs(payload["W"] - 6.12) < 0.005
    assert payload["certified_d"] == 3


@pytest.mark.parametrize("name", ["counts.json", "counts.csv"])
def test_saturating_state_certifies_its_own_dimension(runner, tmp_path, name):
    # max_witness_state(4, 2) has Schmidt number 2 and W = bound(4, 2) = 10;
    # the rounding of W must not certify d = 3
    save_state(max_witness_state(4, 2), tmp_path / "state.json")
    counts = tmp_path / name
    res = run(runner, ["simulate", "--state-file", str(tmp_path / "state.json"),
                       "--expectation", "--output", str(counts)])
    assert res.exit_code == 0, res.output
    res = run(runner, ["certify", "--input", str(counts),
                       "--output", str(tmp_path / "report.json")])
    assert res.exit_code == 0, res.output
    assert res.output == "W = 10 (D = 4), certified d = 2\n"


def test_certify_subset_with_resamples_is_config_error(runner, tmp_path):
    counts, modes = simulate_example(runner, tmp_path)
    assert exit_code(["certify", "--input", str(counts),
                      "--mode-file", str(modes), "--flux", "1e6",
                      "--subset", "1,2", "--resamples", "10", "--seed", "1",
                      "--output", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("resamples", ["1", "-4"])
def test_certify_bad_resamples_is_config_error(runner, tmp_path, resamples):
    counts, modes = simulate_example(runner, tmp_path)
    out = tmp_path / "x.json"
    assert exit_code(["certify", "--input", str(counts),
                      "--mode-file", str(modes), "--flux", "1e6",
                      f"--resamples={resamples}", "--seed", "1",
                      "--output", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("subset", ["0,9", "1,1,2", "-1,2", "a,b", "1,,2"])
def test_certify_bad_subset_is_config_error(runner, tmp_path, subset):
    counts, modes = simulate_example(runner, tmp_path)
    assert exit_code(["certify", "--input", str(counts),
                      "--mode-file", str(modes), "--flux", "1e6",
                      f"--subset={subset}",
                      "--output", str(tmp_path / "x.json")]) == 2


def test_certify_byte_identical_reports(runner, tmp_path):
    counts, modes = simulate_example(runner, tmp_path)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        res = run(runner, ["certify", "--input", str(counts),
                           "--mode-file", str(modes), "--flux", "1e6",
                           "--resamples", "20", "--seed", "5",
                           "--output", str(out)])
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_certify_truncated_csv_is_ingestion_error(runner, tmp_path):
    counts, modes = simulate_example(runner, tmp_path)
    lines = counts.read_text().splitlines()
    counts.write_text("\n".join(lines[:-5]) + "\n")
    assert exit_code(["certify", "--input", str(counts),
                      "--mode-file", str(modes), "--flux", "1e6",
                      "--output", str(tmp_path / "x.json")]) == 3


def test_optimize_trajectory(runner, tmp_path):
    counts, modes = simulate_example(runner, tmp_path)
    out = tmp_path / "opt.json"
    res = run(runner, ["optimize", "--input", str(counts),
                       "--mode-file", str(modes), "--flux", "1e6",
                       "--output", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["trajectory"] == [[4, 2], [3, 3], [2, 2]]
    assert payload["best_certified_d"] == 3
    assert sorted(payload["best_subset"]) == [1, 2, 3]


def test_optimize_csv_output(runner, tmp_path):
    counts, modes = simulate_example(runner, tmp_path)
    out = tmp_path / "opt.csv"
    res = run(runner, ["optimize", "--input", str(counts),
                       "--mode-file", str(modes), "--flux", "1e6",
                       "--output", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "subset_size,certified_d,W"
    assert len(lines) == 4


def test_robustness_command(runner, tmp_path):
    out = tmp_path / "rob.json"
    res = run(runner, ["robustness", "--amplitudes", EXAMPLE_AMPS,
                       "--kind", "state", "--trials", "20",
                       "--strength-max", "0.2", "--seed", "1",
                       "--output", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["kind"] == "state"
    assert len(payload["trials"]) == 20
    assert payload["fraction_non_increasing"] >= 0.9


def test_robustness_deterministic_files(runner, tmp_path):
    blobs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        res = run(runner, ["robustness", "--amplitudes", EXAMPLE_AMPS,
                           "--kind", "both", "--trials", "10",
                           "--strength-max", "0.1", "--seed", "2",
                           "--output", str(out)])
        assert res.exit_code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_robustness_capacity_error(tmp_path):
    amps = ",".join(["1"] * 9)
    assert exit_code(["robustness", "--amplitudes", amps, "--kind", "state",
                      "--trials", "2", "--strength-max", "0.1", "--seed", "0",
                      "--output", str(tmp_path / "x.json")]) == 4


@pytest.mark.parametrize("kind", ["state", "projector", "both"])
def test_robustness_takes_a_perturbed_state_file(runner, tmp_path, kind):
    path, out = tmp_path / "state.json", tmp_path / "rob.json"
    save_state(perturb_state(correlated_pure([0.5, 0.07, 0.01, 0.01], EXAMPLE_MODES),
                             0.1, np.random.default_rng(3)), path)
    res = run(runner, ["robustness", "--state-file", str(path), "--kind", kind,
                       "--trials", "20", "--strength-max", "0.2", "--seed", "1",
                       "--output", str(out)])
    assert res.exit_code == 0, res.output
    want = robustness_study(load_state(path), kind, 20, 0.2, 1)
    assert json.loads(out.read_text()) == {
        "kind": kind, "baseline": want.baseline,
        "fraction_non_increasing": want.fraction_non_increasing,
        "trials": [[s, w] for s, w in want.trials]}


@pytest.mark.parametrize("kind", ["state", "projector", "both"])
@pytest.mark.parametrize("strength_max", ["nan", "inf", "-0.5"])
def test_robustness_bad_strength_max_is_config_error(tmp_path, kind, strength_max):
    out = tmp_path / "x.json"
    assert exit_code(["robustness", "--amplitudes", EXAMPLE_AMPS, "--kind", kind,
                      "--trials", "3", f"--strength-max={strength_max}",
                      "--seed", "0", "--output", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind", ["projector", "both"])
def test_robustness_overflowing_frames_are_config_error(tmp_path, kind, capsys):
    out = tmp_path / "x.json"
    assert exit_code(["robustness", "--amplitudes", "1,1,1", "--kind", kind,
                      "--trials", "3", "--strength-max", "1e200",
                      "--seed", "1", "--output", str(out)]) == 2
    assert not out.exists()
    assert "projection frames overflow" in capsys.readouterr().err


def test_verify_command(runner):
    # the lines verify printed when it scored the signed sum of g; it scores
    # the summed visibilities now, equal to it on its non-negative states
    res = run(runner, ["verify", "--d-max", "4"])
    assert res.exit_code == 0, res.output
    assert "all checks passed" in res.output
    assert "FAIL" not in res.output
    assert res.output.splitlines() == [
        "PASS  bound(186, 99) == 35433",
        "PASS  certified_dimension(35529, 186) == 100",
        "PASS  saturating state (D=2, d=1) reaches 1",
        "PASS  saturating state (D=2, d=2) reaches 3",
        "PASS  saturating state (D=3, d=1) reaches 3",
        "PASS  saturating state (D=3, d=2) reaches 6",
        "PASS  saturating state (D=3, d=3) reaches 9",
        "PASS  saturating state (D=4, d=1) reaches 6",
        "PASS  saturating state (D=4, d=2) reaches 10",
        "PASS  saturating state (D=4, d=3) reaches 14",
        "PASS  saturating state (D=4, d=4) reaches 18",
        "PASS  table path matches brute force on random pure states",
        "PASS  Schmidt rank of the maximally entangled state",
        "all checks passed",
    ]


def test_verify_exits_1_when_a_check_fails(monkeypatch, capsys):
    monkeypatch.setattr("dimwitness.oracle.schmidt_rank", lambda rho: 3)
    assert exit_code(["verify", "--d-max", "2"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL  Schmidt rank of the maximally entangled state" in out
    assert "all checks passed" not in out
    assert err == "error: 1 verification check(s) failed\n"


def test_report_command(runner, tmp_path):
    counts, modes = simulate_example(runner, tmp_path)
    report = tmp_path / "report.json"
    run(runner, ["certify", "--input", str(counts), "--mode-file", str(modes),
                 "--flux", "1e6", "--output", str(report)])
    pm = tmp_path / "per_mode.csv"
    tj = tmp_path / "trajectory.csv"
    res = run(runner, ["report", "--input", str(report),
                       "--per-mode-csv", str(pm), "--trajectory-csv", str(tj)])
    assert res.exit_code == 0, res.output
    assert pm.read_text().splitlines()[0] == "mode_index,mean_summed_visibility"
    assert len(pm.read_text().splitlines()) == 5
    assert tj.read_text().splitlines()[1:] == ["4,2", "3,3", "2,2"]


def test_report_bad_input_is_ingestion_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert exit_code(["report", "--input", str(bad),
                      "--per-mode-csv", str(tmp_path / "pm.csv")]) == 3


@pytest.mark.parametrize("report", [
    [],                                                    # not an object
    {"per_mode": [1.0, "x"], "subset_trajectory": None},   # non-numeric value
    {"per_mode": [1.0], "subset_trajectory": [[4, 2], [1]]},  # short row
    {"per_mode": "12", "subset_trajectory": [["a", "b"]]},  # wrote rows 1.0, 2.0, a,b
    {"per_mode": "12", "subset_trajectory": None},         # a string, not a list
    {"per_mode": [True], "subset_trajectory": None},       # a bool, not a number
    {"per_mode": [1.0], "subset_trajectory": [["a", "b"]]},  # not integers
    {"per_mode": [1.0], "subset_trajectory": [[4, 2.0]]},  # a float step
    {"per_mode": [1.0], "subset_trajectory": [{"4": 2, "3": 3}]},  # not a list
    {"per_mode": [1.0], "subset_trajectory": None},  # per_mode CSV was written
    {"per_mode": [float("nan"), float("inf")], "subset_trajectory": [[2, 1]]},
    {"per_mode": [10 ** 400], "subset_trajectory": [[2, 1]]},  # no float
], ids=["list", "per_mode", "trajectory", "both-strings", "per_mode-string",
        "per_mode-bool", "trajectory-strings", "trajectory-float",
        "trajectory-object-step", "no-trajectory", "per_mode-not-finite",
        "per_mode-huge-int"])
def test_malformed_report_is_ingestion_error(tmp_path, capsys, report):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    pm, tj = tmp_path / "pm.csv", tmp_path / "tj.csv"
    assert exit_code(["report", "--input", str(bad), "--per-mode-csv", str(pm),
                      "--trajectory-csv", str(tj)]) == 3
    assert not pm.exists() and not tj.exists()
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "optimize"])
@pytest.mark.parametrize("flag", ["--flux", "--mode-file"])
def test_json_dataset_rejects_csv_flags(runner, tmp_path, command, flag):
    counts, modes = simulate_example(runner, tmp_path, "counts.json")
    value = {"--flux": "5", "--mode-file": str(modes)}[flag]
    argv = [command, "--input", str(counts), "--output", str(tmp_path / "out.json")]
    assert exit_code(argv) == 0
    assert exit_code([*argv, flag, value]) == 2


def test_json_dataset_ignores_config_flux(runner, tmp_path):
    counts, _ = simulate_example(runner, tmp_path, "counts.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"flux": 5.0}))
    assert exit_code(["--config", str(cfg), "certify", "--input", str(counts),
                      "--output", str(tmp_path / "out.json")]) == 0


def test_config_file_defaults(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"amplitudes": EXAMPLE_AMPS, "flux": 1e5,
                               "seed": 9}))
    out = tmp_path / "counts.csv"
    res = run(runner, ["--config", str(cfg), "simulate",
                       "--output", str(out)])
    assert res.exit_code == 0, res.output
    assert out.exists()


def test_config_file_that_holds_no_object_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert exit_code(["--config", str(cfg), "verify", "--d-max", "2"]) == 2
    assert capsys.readouterr().err == "error: config file must hold a JSON object\n"


def test_config_file_rejects_unknown_keys(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sed": 7, "resample": 5}))
    assert exit_code(["--config", str(cfg), "simulate", "--amplitudes",
                      EXAMPLE_AMPS, "--dry-run"]) == 2
    # keys of other subcommands apply where they exist and are accepted
    cfg.write_text(json.dumps({"resamples": 5, "kind": "state", "seed": 7}))
    assert exit_code(["--config", str(cfg), "simulate", "--amplitudes",
                      EXAMPLE_AMPS, "--dry-run"]) == 0
    for key in ("fmt", "out_format"):  # the deleted format options
        cfg.write_text(json.dumps({key: "json"}))
        assert exit_code(["--config", str(cfg), "simulate", "--amplitudes",
                          EXAMPLE_AMPS, "--dry-run"]) == 2


@pytest.mark.parametrize("cfg, key", [
    ({"resamples": 2.7, "seed": 1}, "resamples"),  # was run with 2 resamples
    ({"seed": 7.9}, "seed"),                        # was seed 7
    ({"seed": True}, "seed"),                       # was seed 1
    ({"trials": True}, "trials"),
    ({"expectation": 1}, "expectation"),            # was a click traceback
    ({"flux": "1e6"}, "flux"),
    ({"amplitudes": [0.5, 0.07]}, "amplitudes"),
    ({"output": 3}, "output"),
    ({"flux": 10**400}, "flux"),                    # was an OverflowError traceback
    ({"lambda_l": -10**400}, "lambda_l"),
    ({"seed": 2**64}, "seed"),                      # int64 holds no such integer
])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, cfg, key):
    counts, _ = simulate_example(CliRunner(), tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert exit_code(["--config", str(path), "certify", "--input", str(counts),
                      "--output", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key {key!r} takes ")
    assert "Traceback" not in err


def test_config_values_of_the_option_types_are_taken(tmp_path):
    counts, _ = simulate_example(CliRunner(), tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"flux": 1000000, "resamples": 20, "seed": 3,
                                "subset": None, "expectation": False,
                                "kind": "state", "lambda_l": 2}))
    out = tmp_path / "r.json"
    assert exit_code(["--config", str(path), "certify", "--input", str(counts),
                      "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_resamples"] == 20
    assert payload["notes"] == ["sigma: closed form on 6 of 6 pairs, "
                                "20 resamples on 0"]


def test_unknown_option_exits_2(runner, tmp_path):
    assert exit_code(["certify", "--no-such-flag"]) == 2
    # the file name decides the format; there is no flag for it
    counts, modes = simulate_example(runner, tmp_path)
    out = str(tmp_path / "out.json")
    args = {"simulate": ["--amplitudes", EXAMPLE_AMPS, "--seed", "1", "--output", out],
            "certify": ["--input", str(counts), "--mode-file", str(modes), "--output", out],
            "optimize": ["--input", str(counts), "--mode-file", str(modes), "--output", out]}
    for command, argv in args.items():
        assert exit_code([command, *argv]) == 0
        assert exit_code([command, *argv, "--format", "json"]) == 2
    assert exit_code(["optimize", *args["optimize"], "--out-format", "csv"]) == 2


def test_optimize_csv_w_matches_json(runner, tmp_path):
    counts, modes = simulate_example(runner, tmp_path)
    paths = {fmt: tmp_path / f"opt.{fmt}" for fmt in ("json", "csv")}
    for out in paths.values():
        res = run(runner, ["optimize", "--input", str(counts),
                           "--mode-file", str(modes), "--flux", "1e6",
                           "--output", str(out)])
        assert res.exit_code == 0, res.output
    rows = paths["csv"].read_text().splitlines()[1:]
    assert [float(r.split(",")[2]) for r in rows] == \
        json.loads(paths["json"].read_text())["witness"]


RATE_ROWS = ["0,0,25", "1,-1,0.49", "2,-2,0.01", "3,-3,0.01"]


def write_rates(tmp_path, rows):
    modes = tmp_path / "modes.json"
    EXAMPLE_MODES.save(modes)
    rates = tmp_path / "rates.csv"
    rates.write_text("n,l,rate\n" + "".join(f"{r}\n" for r in rows))
    return ["simulate", "--mode-file", str(modes), "--rate-file", str(rates),
            "--seed", "1", "--output", str(tmp_path / "x.csv")]


def test_rate_file_accepted(tmp_path):
    assert exit_code(write_rates(tmp_path, RATE_ROWS)) == 0


@pytest.mark.parametrize("rows", [
    ["0,0,25", "1,-1,nan", "2,-2,0.01", "3,-3,0.01"],
    ["0,0,25", "1,-1,inf", "2,-2,0.01", "3,-3,0.01"],
    RATE_ROWS + ["0,0,4"],                      # a mode listed twice
    ["0,0,25", "1,-1,-1", "2,-2,0.01", "3,-3,0.01"],
    ["0,0,0", "1,-1,0", "2,-2,0", "3,-3,0"],     # was exit 2
], ids=["nan", "inf", "duplicate", "negative", "all-zero"])
def test_bad_rate_file_is_ingestion_error(tmp_path, rows):
    assert exit_code(write_rates(tmp_path, rows)) == 3


def test_rate_table_missing_a_mode_names_the_file(tmp_path, capsys):
    # amplitudes_from_rates raises IngestionError itself, inside the file's guard
    assert exit_code(write_rates(tmp_path, RATE_ROWS[:2] + RATE_ROWS[3:])) == 3
    assert capsys.readouterr().err == (f"error: malformed rate table "
                                       f"{tmp_path / 'rates.csv'}: rate table is "
                                       f"missing mode (n=2, l=-2)\n")


@pytest.mark.parametrize("name", ["counts.csv", "x"])  # 'x' is in the message too
def test_repeated_count_row_names_the_file(runner, tmp_path, monkeypatch, capsys, name):
    counts, _ = simulate_example(runner, tmp_path)
    rows = counts.read_text().splitlines(keepends=True)
    (tmp_path / name).write_text("".join([*rows, rows[1]]))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert exit_code(["certify", "--input", name, "--output", "out.json"]) == 3
    assert capsys.readouterr().err == (f"error: malformed dataset file {name}: "
                                       f"duplicate count at (0, 1, 'x', 'pp')\n")


@pytest.mark.parametrize("command", ["simulate", "robustness"])
@pytest.mark.parametrize("state", [
    ["--amplitudes", "0.5,x"],
    ["--amplitudes", "0.5,,0.1"],
    ["--amplitudes", "nan,0.1"],
    ["--amplitudes", "inf,1"],
    ["--profile", "exponential", "--l-max", "1", "--lambda-l", "nan"],
    ["--profile", "exponential", "--l-max", "1", "--lambda-n", "nan"],
    ["--amplitudes", "1e200,1e200"],
], ids=["letter", "empty", "nan", "inf", "lambda-l-nan", "lambda-n-nan",
        "norm-overflow"])
def test_bad_state_input_is_config_error(tmp_path, command, state):
    trials = ["--trials", "2"] if command == "robustness" else []
    assert exit_code([command, *state, *trials, "--seed", "1",
                      "--output", str(tmp_path / "x.out")]) == 2


def test_amplitude_norm_overflow_is_config_error_with_expectation(tmp_path, capsys):
    # the squared norm 2e400 is inf in float64; it made c NaN, and expectation
    # counts then ended in "dataset is missing count" (exit 3)
    out = tmp_path / "c.csv"
    assert exit_code(["simulate", "--amplitudes", "1e200,1e200", "--expectation",
                      "--output", str(out)]) == 2
    assert capsys.readouterr().err == ("error: the squared norm of the amplitudes "
                                       "overflows float64\n")
    assert not out.exists()


def test_tiny_amplitudes_give_the_state_of_unit_ones(tmp_path):
    # |a|^2 = 2e-320 is subnormal: simulate exited 1 (3 with --expectation),
    # robustness 1, and 1e-200 was refused as identically zero
    outs = [tmp_path / "tiny.csv", tmp_path / "unit.csv"]
    for amps, out in zip(["1e-160,1e-160", "1,1"], outs):
        assert exit_code(["simulate", "--amplitudes", amps, "--seed", "1",
                          "--output", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert exit_code(["simulate", "--amplitudes", "1e-160,1e-160", "--expectation",
                      "--output", str(tmp_path / "e.csv")]) == 0
    assert exit_code(["robustness", "--amplitudes", "1e-160,1e-160", "--trials", "5",
                      "--seed", "1", "--output", str(tmp_path / "r.json")]) == 0
    assert exit_code(["simulate", "--amplitudes", "1e-200,1e-200", "--dry-run"]) == 0


def state_sources(tmp_path):
    """Flags of each state source, and of the mode file, on example files."""
    modes, state, rates = (tmp_path / n for n in ("modes.json", "state.json", "rates.csv"))
    EXAMPLE_MODES.save(modes)
    save_state(correlated_pure([0.5, 0.07, 0.01, 0.01], EXAMPLE_MODES), state)
    rates.write_text("n,l,rate\n" + "".join(f"{r}\n" for r in RATE_ROWS))
    return {"state": ["--state-file", str(state)], "amps": ["--amplitudes", EXAMPLE_AMPS],
            "rates": ["--rate-file", str(rates)], "maximal": ["--profile", "maximal"],
            "exponential": ["--profile", "exponential"],
            "modes": ["--mode-file", str(modes)]}


@pytest.mark.parametrize("command", ["simulate", "robustness"])
@pytest.mark.parametrize("flags, text", [
    (("state", "amps"), "--state-file and --amplitudes each give a state"),
    (("amps", "maximal", "modes"), "--amplitudes and --profile each give a state"),
    (("rates", "exponential", "modes"), "--rate-file and --profile each give a state"),
    (("state", "rates"), "--state-file and --rate-file each give a state"),
    (("state", "modes"), "--mode-file cannot be used with --state-file"),
    (("state", "--l-max", "1"), "--l-max cannot be used with --state-file"),
    (("state", "--n-max", "0"), "--n-max cannot be used with --state-file"),
    (("amps", "--lambda-l", "2"), "--lambda-l cannot be used without --profile exponential"),
    (("maximal", "modes", "--lambda-n", "2"), "--lambda-n cannot be used without"),
    (("rates", "modes", "--lambda-l", "2", "--lambda-n", "2"),
     "--lambda-l and --lambda-n cannot be used without"),
])
def test_conflicting_state_flags_are_config_error(tmp_path, capsys, command, flags, text):
    # each of these used to take the first source and drop the rest silently
    sources = state_sources(tmp_path)
    argv = [arg for f in flags for arg in sources.get(f, [f])]
    out = tmp_path / "out"
    extra = ["--trials", "2"] if command == "robustness" else []
    assert exit_code([command, *argv, *extra, "--seed", "1", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {text}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "robustness"])
def test_state_flags_that_go_together_are_accepted(tmp_path, command):
    sources = state_sources(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_l": 3.0, "mode_file": sources["modes"][1]}))
    extra = ["--trials", "2"] if command == "robustness" else []
    for argv in (sources["modes"] + sources["exponential"] + ["--lambda-l", "8",
                                                               "--lambda-n", "4"],
                 sources["amps"] + sources["modes"],
                 sources["rates"] + sources["modes"],
                 sources["maximal"] + ["--l-max", "1", "--n-max", "0"],
                 sources["state"]):
        assert exit_code([command, *argv, *extra, "--seed", "1",
                          "--output", str(tmp_path / "out")]) == 0, argv
    # a config file's defaults are not flags of the command line
    for argv in (sources["state"], sources["amps"]):
        assert exit_code(["--config", str(cfg), command, *argv, *extra, "--seed", "1",
                          "--output", str(tmp_path / "out")]) == 0, argv


def test_command_line_state_source_replaces_the_config_one(tmp_path, runner):
    # the config's 3-mode state file used to win silently, printing D=3
    state, cfg = tmp_path / "s.json", tmp_path / "cfg.json"
    save_state(correlated_pure([1.0, 0.5, 0.2], generic_mode_set(3)), state)
    cfg.write_text(json.dumps({"state_file": str(state)}))
    res = run(runner, ["--config", str(cfg), "simulate",
                       "--amplitudes", "1,1,1,1,1", "--dry-run"])
    assert res.exit_code == 0
    assert "D=5 modes" in res.output
    res = run(runner, ["--config", str(cfg), "simulate", "--dry-run"])
    assert res.exit_code == 0
    assert "D=3 modes" in res.output
    # two sources on the command line are still refused
    assert exit_code(["--config", str(cfg), "simulate", "--amplitudes", "1,1",
                      "--profile", "maximal", "--dry-run"]) == 2


@pytest.mark.parametrize("flux", ["nan", "inf", "0", "-1"])
def test_simulate_bad_flux_is_config_error(tmp_path, flux):
    assert exit_code(["simulate", "--amplitudes", EXAMPLE_AMPS,
                      "--flux", flux, "--seed", "1",
                      "--output", str(tmp_path / "x.csv")]) == 2


def test_simulate_flux_too_large_to_sample_is_config_error(tmp_path, capsys):
    argv = ["simulate", "--l-max", "1", "--n-max", "0", "--profile", "maximal",
            "--flux", "1e300", "--seed", "1", "--output", str(tmp_path / "c.csv")]
    assert exit_code(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: flux 1e+300 gives a Poisson mean of 3.33333e+299")
    assert not (tmp_path / "c.csv").exists()
    assert exit_code([*argv, "--expectation"]) == 0


def test_resampling_counts_too_large_is_capacity_error(tmp_path, capsys):
    # equal counts in every outcome put the pair far from closed form
    rows = [f"0,0,0,1,{b},{o},100000000000000000000" for b in "xyz"
            for o in ("pp", "pm", "mp", "mm")]
    counts = tmp_path / "counts.csv"
    counts.write_text("\n".join(["na,la,nb,lb,basis,outcome,count", *rows, ""]))
    argv = ["certify", "--input", str(counts), "--seed", "1",
            "--output", str(tmp_path / "report.json")]
    assert exit_code([*argv, "--resamples", "20"]) == 4
    assert capsys.readouterr().err.startswith(
        "error: count 1e+20 of a resampled pair is above 9.22337e+18")
    assert exit_code(argv) == 0


def test_count_file_missing_a_row_is_ingestion_error(runner, tmp_path, capsys):
    counts, _ = simulate_example(runner, tmp_path)
    rows = counts.read_text().splitlines(keepends=True)
    counts.write_text("".join(r for r in rows if not r.startswith("1,-1,2,-2,y,mp,")))
    capsys.readouterr()
    out = tmp_path / "out.json"
    for command in ("certify", "optimize"):
        assert exit_code([command, "--input", str(counts), "--output", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: malformed dataset file {counts}: dataset is missing count for "
            f"pair (n=1,l=-1)/(n=2,l=-2), basis y, outcome mp\n")
        assert not out.exists()


def test_certify_notes_flux_fallback(runner, tmp_path):
    counts, modes = simulate_example(runner, tmp_path)
    z_total = sum(int(r.split(",")[6]) for r in counts.read_text().splitlines()[1:]
                  if r.split(",")[4] == "z")
    notes = {}
    for name, extra in (("bare", []), ("flux", ["--flux", "1e6"])):
        out = tmp_path / f"{name}.json"
        res = run(runner, ["certify", "--input", str(counts),
                           "--mode-file", str(modes), *extra, "--output", str(out)])
        assert res.exit_code == 0, res.output
        notes[name] = json.loads(out.read_text())["notes"]
    assert notes == {"bare": [f"flux taken as total z-basis counts ({z_total})"],
                     "flux": []}


@pytest.mark.parametrize("command", ["certify", "optimize"])
def test_csv_with_zero_z_counts_and_no_flux_is_ingestion_error(runner, tmp_path,
                                                               command):
    counts, modes = simulate_example(runner, tmp_path)
    lines = counts.read_text().splitlines()
    rows = [r.split(",") for r in lines[1:]]
    counts.write_text("\r\n".join([lines[0], *(",".join(r[:6] + ["0"]) if r[4] == "z"
                                                else ",".join(r) for r in rows), ""]))
    out = tmp_path / "out.json"
    argv = [command, "--input", str(counts), "--mode-file", str(modes),
            "--output", str(out)]
    assert exit_code(argv) == 3
    assert not out.exists()
    # a given flux is used as it is
    assert exit_code([*argv, "--flux", "1e6"]) == 0


def test_robustness_state_trials_score_summed_visibilities(runner, tmp_path):
    # on a signed state the summed visibilities and the signed sum of g differ
    state = correlated_pure([1.0, -1.0, 0.5], generic_mode_set(3))
    assert brute_force_sv_witness(state) - brute_force_witness(state) > 1.0
    out = tmp_path / "rob.json"
    res = run(runner, ["robustness", "--amplitudes", "1,-1,0.5", "--kind", "state",
                       "--trials", "12", "--strength-max", "0.3", "--seed", "6",
                       "--output", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["baseline"] == brute_force_sv_witness(state)
    for i, (s, W) in enumerate(payload["trials"]):
        rng = np.random.default_rng(np.random.SeedSequence((6, 3, i)))
        assert W == brute_force_sv_witness(perturb_state(state, s, rng))


@pytest.mark.parametrize("command", ["simulate", "certify", "robustness", "verify"])
def test_negative_seed_is_usage_error(runner, tmp_path, command):
    counts, _ = simulate_example(runner, tmp_path)
    out = tmp_path / "out.json"
    args = {"simulate": ["--amplitudes", EXAMPLE_AMPS, "--output", str(out)],
            "certify": ["--input", str(counts), "--resamples", "20", "--output", str(out)],
            "robustness": ["--amplitudes", EXAMPLE_AMPS, "--trials", "2",
                           "--output", str(out)],
            "verify": []}[command]
    assert exit_code([command, *args, "--seed", "-1"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["certify", "optimize"])
@pytest.mark.parametrize("name, text", [
    ("empty.csv", "na,la,nb,lb,basis,outcome,count\r\n"),
    ("one.json", json.dumps({"modes": [{"n": 0, "l": 0}], "flux": 1.0, "counts": []})),
], ids=["header_only_csv", "one_mode_json"])
def test_too_few_modes_is_config_error(tmp_path, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert exit_code([command, "--input", str(path),
                      "--output", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["certify", "optimize"])
@pytest.mark.parametrize("flux", ["nan", "-3", "0"])
def test_csv_bad_flux_is_config_error(runner, tmp_path, command, flux):
    counts, modes = simulate_example(runner, tmp_path)
    assert exit_code([command, "--input", str(counts), "--mode-file", str(modes),
                      "--flux", flux, "--output", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("value", [1.9, "1", True])
def test_json_counts_with_non_integer_mode_is_ingestion_error(runner, tmp_path, value):
    counts, _ = simulate_example(runner, tmp_path, name="counts.json")
    payload = json.loads(counts.read_text())
    assert payload["counts"][0]["nb"] == 1  # int(value) is the same mode
    payload["counts"][0]["nb"] = value
    counts.write_text(json.dumps(payload))
    assert exit_code(["certify", "--input", str(counts),
                      "--output", str(tmp_path / "out.json")]) == 3


@pytest.mark.parametrize("command", ["certify", "optimize"])
# "flux": true used to certify with flux 1.0 and "flux": "1e6" was read as 1e6
@pytest.mark.parametrize("flux", ["NaN", "-3.0", "-1", "0", "true", '"1e6"'])
def test_json_bad_file_flux_is_ingestion_error(runner, tmp_path, command, flux):
    counts, _ = simulate_example(runner, tmp_path, name="counts.json")
    payload = json.loads(counts.read_text())
    counts.write_text(json.dumps(payload).replace(f'"flux": {payload["flux"]}',
                                                  f'"flux": {flux}'))
    assert json.loads(counts.read_text())["flux"] != payload["flux"]
    assert exit_code([command, "--input", str(counts),
                      "--output", str(tmp_path / "out.json")]) == 3
    assert not (tmp_path / "out.json").exists()


def test_json_expectation_must_be_a_boolean(runner, tmp_path):
    # "expectation": "false" used to be read as true
    counts, _ = simulate_example(runner, tmp_path, name="counts.json")
    payload = json.loads(counts.read_text())
    payload["expectation"] = "false"
    counts.write_text(json.dumps(payload))
    assert exit_code(["certify", "--input", str(counts),
                      "--output", str(tmp_path / "out.json")]) == 3
    assert not (tmp_path / "out.json").exists()


def _json_input(runner, tmp_path, kind):
    """A valid JSON input file of one kind and a command line that reads it."""
    modes = tmp_path / "modes.json"
    EXAMPLE_MODES.save(modes)
    out = str(tmp_path / "out.json")
    if kind == "state-file":
        path = tmp_path / "state.json"
        save_state(correlated_pure([0.5, 0.07, 0.01, 0.01], EXAMPLE_MODES), path)
        argv = ["simulate", "--state-file", str(path), "--seed", "1", "--output", out]
    elif kind == "count-file":
        path, _ = simulate_example(runner, tmp_path, name="counts.json")
        argv = ["certify", "--input", str(path), "--output", out]
    elif kind == "mode-file-simulate":
        path = modes
        argv = ["simulate", "--mode-file", str(path), "--amplitudes", EXAMPLE_AMPS,
                "--seed", "1", "--output", out]
    else:  # mode-file-certify
        counts, path = simulate_example(runner, tmp_path)
        argv = ["certify", "--input", str(counts), "--mode-file", str(path),
                "--output", out]
    return path, argv


@pytest.mark.parametrize("case, code", [("truncated", 3), ("missing-key", 3),
                                        ("non-integer", 3), ("negative-n", 3),
                                        ("duplicate-mode", 3)])
@pytest.mark.parametrize("kind", ["mode-file-simulate", "mode-file-certify",
                                  "count-file", "state-file"])
def test_malformed_json_input_exit_code(runner, tmp_path, kind, case, code):
    path, argv = _json_input(runner, tmp_path, kind)
    assert exit_code(argv) == 0
    payload = json.loads(path.read_text())
    modes = payload if kind.startswith("mode-file") else payload["modes"]
    if case == "truncated":
        path.write_text(path.read_text()[:40])
    else:
        if case == "missing-key":
            del modes[1]["l"]
        elif case == "non-integer":
            modes[1]["n"] = 1.9
        elif case == "negative-n":
            modes[1]["n"] = -1
        else:
            modes[1] = modes[0]
        path.write_text(json.dumps(payload))
    (tmp_path / "out.json").unlink(missing_ok=True)
    assert exit_code(argv) == code
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("representation, matrix", [
    ("correlated", [[0.5, 0.3], [0.0, 0.5]]),
    ("correlated", [[1.0, 0.0], [0.0, -0.5]]),
    ("correlated", [[0.8, 0.0], [0.0, 0.7]]),
    ("general", np.eye(4) / 8),
    ("correlated", np.eye(3) / 3),
    ("general", np.eye(2) / 2),
    ("mixed", np.eye(2) / 2),
], ids=["not-hermitian", "negative-eigenvalue", "trace-above-1", "general-trace-not-1",
        "correlated-shape", "general-shape", "unknown-representation"])
def test_state_file_of_no_two_mode_state_exits_3(tmp_path, capsys, representation,
                                                 matrix):
    # each but the last exited 2, as for a bad option, though the file is at fault
    path = tmp_path / "state.json"
    path.write_text(json.dumps({
        "modes": generic_mode_set(2).to_json(), "representation": representation,
        "matrix": [[[v, 0.0] for v in row] for row in np.asarray(matrix).tolist()]}))
    out = tmp_path / "counts.csv"
    assert exit_code(["simulate", "--state-file", str(path), "--seed", "1",
                      "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: malformed state file {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("n", 10 ** 400), ("l", -2 ** 63 - 1)],
                         ids=["n-10**400", "l--2**63-1"])
@pytest.mark.parametrize("kind", ["mode-file-simulate", "state-file"])
def test_mode_number_outside_int64_exits_3(runner, tmp_path, capsys, kind, key, value):
    # simulate took such a mode and then failed in the count writer with an
    # OverflowError traceback (exit 1)
    path, argv = _json_input(runner, tmp_path, kind)
    payload = json.loads(path.read_text())
    (payload if kind == "mode-file-simulate" else payload["modes"])[1][key] = value
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert exit_code(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed ") and "int64" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("where, value", [(0, True), (1, False), (1, 10 ** 400)],
                         ids=["re-true", "im-false", "im-10**400"])
def test_state_file_entry_that_is_no_float_exits_3(tmp_path, capsys, where, value):
    # true and false were read as 1 and 0, so simulate exited 0; an integer
    # too large for a float ended in an OverflowError traceback with exit 1
    path = tmp_path / "state.json"
    save_state(correlated_pure([1, 0], generic_mode_set(2)), path)
    payload = json.loads(path.read_text())
    assert payload["matrix"][0][0] == [1.0, 0.0]
    payload["matrix"][0][0][where] = value
    path.write_text(json.dumps(payload))
    out = tmp_path / "counts.csv"
    assert exit_code(["simulate", "--state-file", str(path), "--seed", "1",
                      "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith(f"error: malformed state file {path}: ")
    assert not out.exists()


def test_file_name_decides_the_count_format(runner, tmp_path):
    # simulate used to write CSV into x.json unless --format json was given
    counts, _ = simulate_example(runner, tmp_path, "x.json")
    want = tmp_path / "want.json"
    state = correlated_pure([float(a) for a in EXAMPLE_AMPS.split(",")], EXAMPLE_MODES)
    write_counts_json(simulate_counts(state, 1e6, seed=7), want)
    assert counts.read_bytes() == want.read_bytes()
    for command in ("certify", "optimize"):
        assert exit_code([command, "--input", str(counts),
                          "--output", str(tmp_path / f"{command}.json")]) == 0


def test_csv_named_json_count_file_gives_a_short_error(runner, tmp_path, capsys):
    counts, _ = simulate_example(runner, tmp_path, "counts.json")
    misnamed = tmp_path / "counts.csv"
    misnamed.write_bytes(counts.read_bytes())
    assert misnamed.stat().st_size > 5000
    assert exit_code(["certify", "--input", str(misnamed),
                      "--output", str(tmp_path / "out.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed dataset file {misnamed}: bad CSV header ")
    assert "expected 'na,la,nb,lb,basis,outcome,count'" in err
    assert len(err.replace(str(misnamed), "")) < 400   # the path's length aside


@pytest.mark.parametrize("command", ["simulate", "certify", "optimize",
                                     "robustness", "report"])
def test_unwritable_output_exits_2(runner, tmp_path, capsys, command):
    counts, modes = simulate_example(runner, tmp_path)
    report = tmp_path / "report.json"
    assert exit_code(["certify", "--input", str(counts), "--mode-file", str(modes),
                      "--output", str(report)]) == 0
    out = str(tmp_path / "no-such-dir" / "out.json")
    argv = {"simulate": ["--amplitudes", EXAMPLE_AMPS, "--seed", "1", "--output", out],
            "certify": ["--input", str(counts), "--output", out],
            "optimize": ["--input", str(counts), "--output", out],
            "robustness": ["--amplitudes", EXAMPLE_AMPS, "--trials", "2", "--seed", "1",
                           "--output", out],
            "report": ["--input", str(report), "--per-mode-csv", out]}[command]
    capsys.readouterr()
    assert exit_code([command, *argv]) == 2  # no traceback escapes main
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no-such-dir" in err
    assert "Traceback" not in err


# each way in for an input file, with the exit code of a bad one: every input
# file exits 3, a --config file 2
INPUT_FILES = pytest.mark.parametrize("flag, code", [
    ("--config", 2), ("certify-csv", 3), ("certify-json", 3), ("optimize-csv", 3),
    ("optimize-json", 3), ("--mode-file", 3), ("--state-file", 3),
    ("--rate-file", 3), ("report", 3)])


def _input_file(tmp_path, flag):
    """The path of an input file for `flag` and a command line that reads it."""
    name = "bad.csv" if flag.endswith("csv") or flag == "--rate-file" else "bad.json"
    bad = tmp_path / name
    out = str(tmp_path / "out.json")
    command, _, _ = flag.partition("-")
    argv = {"--config": ["--config", str(bad), "verify"],
            "--mode-file": ["simulate", "--mode-file", str(bad), "--amplitudes",
                            EXAMPLE_AMPS, "--dry-run"],
            "--state-file": ["simulate", "--state-file", str(bad), "--dry-run"],
            "--rate-file": ["simulate", "--rate-file", str(bad), "--l-max", "1",
                            "--dry-run"],
            "report": ["report", "--input", str(bad), "--per-mode-csv", out],
            }.get(flag, [command, "--input", str(bad), "--output", out])
    return bad, argv


@INPUT_FILES
def test_input_file_that_is_not_utf8_gives_an_error_line(tmp_path, capsys, flag, code):
    # a config file or the first line of a count CSV used to end in a
    # UnicodeDecodeError traceback with exit 1
    bad, argv = _input_file(tmp_path, flag)
    bad.write_bytes(b"\xff\xfe\xe9 not UTF-8\n")
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@INPUT_FILES
def test_directory_given_as_input_file_gives_an_error_line(tmp_path, capsys, flag,
                                                          code):
    # --mode-file, --state-file and a count file exited 2, as for a bad option
    bad, argv = _input_file(tmp_path, flag)
    bad.mkdir()
    assert exit_code(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flag", ["--input", "--rate-file"])
def test_over_long_csv_field_gives_an_error_line(tmp_path, capsys, flag):
    # the csv module refuses a field over 128 KiB with csv.Error, which used
    # to end in a traceback with exit 1
    bad = tmp_path / "long.csv"
    bad.write_text("n,l,rate\n" * (flag == "--rate-file") + "a" * 200_000 + "\n")
    argv = (["certify", "--input", str(bad), "--output", str(tmp_path / "o.json")]
            if flag == "--input" else
            ["simulate", "--rate-file", str(bad), "--l-max", "1", "--dry-run"])
    assert exit_code(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "field larger than field limit" in err
    assert "Traceback" not in err and len(err) < 400


# What a fresh interpreter compiles and runs of the package to import the
# command line and run one command: scipy never, witness and oracle not for
# simulate, states and oracle not for certify or optimize.
_LOADED = {"errors", "cli"}
_COUNTS_LOADED = _LOADED | {"modes", "measurement"}


@pytest.mark.parametrize("command, loaded", [
    (None, _LOADED),
    ("simulate", _COUNTS_LOADED | {"states"}),
    ("certify", _COUNTS_LOADED | {"witness"}),
    ("optimize", _COUNTS_LOADED | {"witness"}),
    ("report", _LOADED),
], ids=["import", "simulate", "certify", "optimize", "report"])
def test_each_command_loads_only_its_modules(runner, tmp_path, command, loaded):
    counts, _ = simulate_example(runner, tmp_path)
    report = tmp_path / "report.json"
    run(runner, ["certify", "--input", str(counts), "--output", str(report)])
    argv = [] if command is None else [command, *{
        "simulate": ["--amplitudes", EXAMPLE_AMPS, "--seed", "1", "--output", "c.csv"],
        "certify": ["--input", str(counts), "--output", "r.json"],
        "optimize": ["--input", str(counts), "--output", "t.json"],
        "report": ["--input", str(report), "--per-mode-csv", "p.csv"]}[command]]
    code = ("import sys, dimwitness.cli\n"
            "if sys.argv[1:]:\n    dimwitness.cli.main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('dimwitness', 'scipy')))")
    src = Path(dimwitness.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert ast.literal_eval(out.stdout.splitlines()[-1]) == sorted(
        ["dimwitness", *(f"dimwitness.{m}" for m in loaded)])


def test_cli_names_are_those_its_commands_import():
    # `cli.<name>` looks up each package name a command imports when it runs
    module = importlib.import_module("dimwitness.cli")
    imported = {alias.name: node.module
                for function in ast.walk(ast.parse(Path(module.__file__).read_text()))
                if isinstance(function, ast.FunctionDef)
                for node in ast.walk(function)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert imported == module._CALLED
    for name, home in imported.items():
        assert getattr(module, name) is getattr(
            importlib.import_module(f"dimwitness.{home}"), name)
    with pytest.raises(AttributeError):
        module.perturb_state
