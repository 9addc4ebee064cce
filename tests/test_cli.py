import json

import pytest
from click.testing import CliRunner

from dimwitness.cli import cli, main
from dimwitness.errors import (CapacityError, ConfigError, IngestionError,
                               IntegrityError)
from dimwitness.modes import ModeIndex, ModeSet

EXAMPLE_MODES = ModeSet((ModeIndex(0, 0), ModeIndex(1, -1),
                         ModeIndex(2, -2), ModeIndex(3, -3)))
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
    out, _ = simulate_example(runner, tmp_path, "counts.json",
                              extra=["--format", "json"])
    payload = json.loads(out.read_text())
    assert payload["flux"] == 1e6
    assert len(payload["counts"]) == 72


def test_simulate_missing_state_is_config_error(tmp_path):
    assert exit_code(["simulate", "--l-max", "1", "--n-max", "1",
                      "--output", str(tmp_path / "x.csv")]) == 2


def test_simulate_missing_seed_is_config_error(tmp_path):
    assert exit_code(["simulate", "--amplitudes", EXAMPLE_AMPS,
                      "--output", str(tmp_path / "x.csv")]) == 2


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


def test_certify_subset_with_resamples_is_config_error(runner, tmp_path):
    counts, modes = simulate_example(runner, tmp_path)
    assert exit_code(["certify", "--input", str(counts),
                      "--mode-file", str(modes), "--flux", "1e6",
                      "--subset", "1,2", "--resamples", "10", "--seed", "1",
                      "--output", str(tmp_path / "x.json")]) == 2


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
                       "--output", str(out), "--out-format", "csv"])
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


def test_verify_command(runner):
    res = run(runner, ["verify", "--d-max", "4"])
    assert res.exit_code == 0, res.output
    assert "all checks passed" in res.output
    assert "FAIL" not in res.output


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
], ids=["list", "per_mode", "trajectory"])
def test_malformed_report_is_ingestion_error(tmp_path, report):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report))
    pm, tj = tmp_path / "pm.csv", tmp_path / "tj.csv"
    assert exit_code(["report", "--input", str(bad), "--per-mode-csv", str(pm),
                      "--trajectory-csv", str(tj)]) == 3
    assert not pm.exists() and not tj.exists()


@pytest.mark.parametrize("command", ["certify", "optimize"])
@pytest.mark.parametrize("flag", ["--flux", "--mode-file"])
def test_json_dataset_rejects_csv_flags(runner, tmp_path, command, flag):
    counts, modes = simulate_example(runner, tmp_path, "counts.json",
                                     extra=["--format", "json"])
    value = {"--flux": "5", "--mode-file": str(modes)}[flag]
    argv = [command, "--input", str(counts), "--output", str(tmp_path / "out.json")]
    assert exit_code(argv) == 0
    assert exit_code([*argv, flag, value]) == 2


def test_json_dataset_ignores_config_flux(runner, tmp_path):
    counts, _ = simulate_example(runner, tmp_path, "counts.json",
                                 extra=["--format", "json"])
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


def test_unknown_option_exits_2():
    assert exit_code(["certify", "--no-such-flag"]) == 2


def test_optimize_csv_w_matches_json(runner, tmp_path):
    counts, modes = simulate_example(runner, tmp_path)
    paths = {fmt: tmp_path / f"opt.{fmt}" for fmt in ("json", "csv")}
    for fmt, out in paths.items():
        res = run(runner, ["optimize", "--input", str(counts),
                           "--mode-file", str(modes), "--flux", "1e6",
                           "--output", str(out), "--out-format", fmt])
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
], ids=["nan", "inf", "duplicate"])
def test_bad_rate_file_is_ingestion_error(tmp_path, rows):
    assert exit_code(write_rates(tmp_path, rows)) == 3


@pytest.mark.parametrize("flux", ["nan", "inf", "0", "-1"])
def test_simulate_bad_flux_is_config_error(tmp_path, flux):
    assert exit_code(["simulate", "--amplitudes", EXAMPLE_AMPS,
                      "--flux", flux, "--seed", "1",
                      "--output", str(tmp_path / "x.csv")]) == 2


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
