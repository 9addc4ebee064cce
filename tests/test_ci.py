import dataclasses
import hashlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import dimwitness
from dimwitness import measurement
from dimwitness.cli import cli, main
from dimwitness.modes import ModeSet, enumerate_modes

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_the_roadmap_tier1_command():
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    assert workflow[True] == {"push": None, "pull_request": None}  # YAML 1.1 "on"
    job = workflow["jobs"]["tests"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert runs[-2:] == [tier1, "python -m pytest -q perfbench"]


def test_workflow_job_has_a_timeout():
    # a hung CLI subprocess must not hold a runner for GitHub's 6 h default
    job = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text()
                         )["jobs"]["tests"]
    assert 0 < job["timeout-minutes"] <= 30


def test_workflow_installs_the_pyproject_test_extra():
    # the dependency list lives in pyproject.toml only
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
    install = next(step["run"] for step in workflow["jobs"]["tests"]["steps"]
                   if step.get("name") == "Install dependencies")
    assert install == 'python -m pip install -e ".[test]"'
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^\[project\.optional-dependencies\]\ntest = \[", pyproject, re.M)


# A D = 6 pipeline through the installed script: CSV count files read with a
# declared mode set (--mode-file) and without one, a report read back, and a
# JSON count file written and read back.
D6_PIPELINE = [
    "python -c \"from dimwitness.modes import enumerate_modes; "
    "enumerate_modes(1, 1).save('/tmp/m6.json')\"",
    "dimwitness simulate --mode-file /tmp/m6.json --profile exponential --seed 7 "
    "--output /tmp/c6.csv",
    "dimwitness certify --input /tmp/c6.csv --mode-file /tmp/m6.json --resamples 20 "
    "--seed 7 --output /tmp/r6.json",
    "dimwitness certify --input /tmp/c6.csv --resamples 20 --seed 7 --output /tmp/r6u.json",
    "dimwitness optimize --input /tmp/c6.csv --mode-file /tmp/m6.json --output /tmp/o6.json",
    "dimwitness report --input /tmp/r6.json --trajectory-csv /tmp/t6.csv",
    "dimwitness simulate --mode-file /tmp/m6.json --profile exponential --seed 7 "
    "--output /tmp/c6.json",
    "dimwitness certify --input /tmp/c6.json --resamples 20 --seed 7 "
    "--output /tmp/r6j.json",
    "dimwitness optimize --input /tmp/c6.json --output /tmp/o6j.json",
]

# A refused input through the installed script: the D = 6 CSV counts less
# their last row exit 3, checked so that the step's `bash -e` does not stop
# at the nonzero status.
D6_REFUSED = [
    "sed '$d' /tmp/c6.csv > /tmp/c6cut.csv",
    "code=0; dimwitness certify --input /tmp/c6cut.csv --mode-file /tmp/m6.json "
    "--output /tmp/r6cut.json || code=$?; test \"$code\" -eq 3",
]


def test_workflow_runs_the_installed_console_script():
    # the tests call cli.main directly, so only this step sees a broken entry
    # point of the installed package; reading back the robustness file covers
    # that entry point's exit path
    steps = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text()
                           )["jobs"]["tests"]["steps"]
    names = [step.get("name") for step in steps]
    script = names.index("Installed console script")
    assert names.index("Install dependencies") < script
    assert steps[script]["run"].splitlines() == [
        "dimwitness --version",
        "dimwitness verify --d-max 3",
        "dimwitness robustness --amplitudes 0.5,0.07,0.01,0.01 --kind both "
        "--trials 1000 --strength-max 0.2 --seed 7 --output /tmp/r.json",
        "python -c \"import json, sys; "
        "sys.exit(len(json.load(open('/tmp/r.json'))['trials']) != 1000)\"",
        *D6_PIPELINE, *D6_REFUSED]
    assert re.search(r'^\[project\.scripts\]\ndimwitness = "dimwitness\.cli:main"$',
                     (ROOT / "pyproject.toml").read_text(), re.M)


def _run_in_process(line):
    """Run a workflow command line in this process, its /tmp/ files in the
    working directory: a `python -c` line by exec, a dimwitness line through
    cli.main."""
    argv = shlex.split(line.replace("/tmp/", ""))
    if argv[0] == "python":
        exec(argv[2], {})
    else:
        main(argv[1:])


def test_workflow_d6_pipeline_runs(tmp_path, monkeypatch):
    # the workflow's D = 6 commands, run in this process, exit 0 and write
    # their files
    monkeypatch.chdir(tmp_path)
    for line in D6_PIPELINE:
        try:
            _run_in_process(line)
        except SystemExit as exc:
            raise AssertionError(f"{line} exited {exc.code}") from exc
    assert {p.name for p in tmp_path.iterdir()} == {
        "m6.json", "c6.csv", "r6.json", "r6u.json", "o6.json", "t6.csv",
        "c6.json", "r6j.json", "o6j.json"}


def test_workflow_refused_input_exits_3(tmp_path, monkeypatch):
    # the workflow's refused-input lines, run in this process: the counts
    # less their last row exit 3 and leave no report
    monkeypatch.chdir(tmp_path)
    for line in D6_PIPELINE[:2]:  # the mode file and the counts
        _run_in_process(line)
    sed, status = D6_REFUSED
    assert shlex.split(sed.replace("/tmp/", "")) == ["sed", "$d", "c6.csv", ">", "c6cut.csv"]
    lines = (tmp_path / "c6.csv").read_bytes().splitlines(keepends=True)
    (tmp_path / "c6cut.csv").write_bytes(b"".join(lines[:-1]))
    with pytest.raises(SystemExit) as exc:
        _run_in_process(status.split("; ")[1].split(" || ")[0])
    assert exc.value.code == 3
    assert not (tmp_path / "r6cut.json").exists()


def test_xfails_are_strict_by_default(pytestconfig):
    # an expected failure that starts to pass fails the run, also when its
    # mark does not say strict=True
    assert pytestconfig.getini("xfail_strict") is True


def test_perfbench_traced_names_resolve():
    # the traced benchmark run looks up each TRACED function by name, so a
    # package name it still traces must not be deleted before perfbench drops it
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench/spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    missing = [f"{layer}.{fn}" for layer, fns in spans.TRACED.items() for fn in fns
               if not callable(getattr(importlib.import_module(f"dimwitness.{layer}"),
                                       fn, None))]
    assert missing == []


def test_bench_files_name_only_declared_workloads_and_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        runs = json.loads(path.read_text())["workloads"]
        assert runs and set(runs) <= workloads, path.name
        for workload, by_metric in runs.items():
            assert by_metric and set(by_metric) <= metrics, (path.name, workload)
            for metric, sides in by_metric.items():
                assert set(sides) == {"parent", "change"}, (path.name, workload, metric)
                assert len(sides["parent"]) == len(sides["change"]) > 0, \
                    (path.name, workload, metric)


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    # every command the README shows runs as written, so the docs cannot name
    # a deleted flag; the flags --output and --*-csv name files it must write
    section = (ROOT / "README.md").read_text().split("\n## Command line\n")[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines
                if line.strip() and not line.lstrip().startswith("#")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "dimwitness"
        try:
            main(argv[1:])
        except SystemExit as exc:
            raise AssertionError(f"{shlex.join(argv)} exited {exc.code}") from exc
        outputs = [value for flag, value in zip(argv, argv[1:])
                   if flag == "--output" or flag.endswith("-csv")]
        assert all((tmp_path / name).is_file() for name in outputs), argv


# every option string of the group and of each subcommand; a rename or a
# dropped option breaks the command lines of users, scripts and the benchmark
_STATE_OPTIONS = {"--l-max", "--n-max", "--mode-file", "--state-file", "--profile",
                  "--amplitudes", "--rate-file", "--lambda-l", "--lambda-n"}
CLI_OPTIONS = {
    None: {"--config", "--version"},
    "simulate": _STATE_OPTIONS | {"--flux", "--expectation", "--seed",
                                  "--share-populations", "--dry-run", "--output"},
    "certify": {"--input", "--mode-file", "--flux", "--resamples", "--seed",
                "--subset", "--output"},
    "optimize": {"--input", "--mode-file", "--flux", "--output"},
    "robustness": _STATE_OPTIONS | {"--kind", "--trials", "--strength-max", "--seed",
                                    "--output"},
    "verify": {"--d-max", "--seed"},
    "report": {"--input", "--per-mode-csv", "--trajectory-csv"},
}


def test_cli_keeps_its_option_surface():
    assert set(cli.commands) == set(CLI_OPTIONS) - {None}
    for name, want in CLI_OPTIONS.items():
        command = cli if name is None else cli.commands[name]
        assert {opt for param in command.params for opt in param.opts} == want, name
        res = CliRunner().invoke(cli, [name, "--help"] if name else ["--help"])
        assert res.exit_code == 0 and res.output.startswith("Usage:"), name


def _readme_names():
    """Dotted names in the README's inline code (`...`, not the fenced blocks),
    file names left out."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    for span in re.findall(r"`([^`]+)`", text):
        for name in re.findall(r"(?<![\w./-])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            if name.rsplit(".", 1)[1] not in {"py", "json", "csv", "md"}:
                yield name


def _resolves(obj, parts) -> bool:
    """Whether the attribute path `parts` exists below obj; a dataclass field
    counts, and ends the path, since its value's type is not known."""
    for part in parts:
        if dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            return True
        if inspect.ismodule(obj) and not hasattr(obj, part):
            try:
                importlib.import_module(f"{obj.__name__}.{part}")
            except ImportError:
                return False
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_names_exist():
    # a README that names a deleted function, constant or field fails here;
    # names rooted in a package module or a package class are checked
    import dimwitness
    roots = {"dimwitness": dimwitness}
    for info in pkgutil.iter_modules(dimwitness.__path__):
        module = importlib.import_module(f"dimwitness.{info.name}")
        roots[info.name] = module
        roots.update((name, cls) for name, cls in inspect.getmembers(module, inspect.isclass)
                     if cls.__module__ == module.__name__)
    checked = [name for name in _readme_names() if name.split(".")[0] in roots]
    assert {"witness._TIE_ULPS", "states.SMALL_D_CAP", "CoincidenceDataset.tensor",
            "VisibilityTable.V"} <= set(checked)
    missing = [name for name in checked
               if not _resolves(roots[name.split(".")[0]], name.split(".")[1:])]
    assert missing == []


def _simulate_paper_counts(tmp_path, monkeypatch, output, *simulate_flags, run=main):
    """Run the paper_D186 simulate command line at D = 30 in `tmp_path`, through
    `run` (by default cli.main in this process)."""
    grid = enumerate_modes(11, 13)
    chosen = sorted(grid.modes, key=lambda m: (2 * m.n + abs(m.l), m.n, m.l))
    ModeSet(tuple(chosen[:30])).save(tmp_path / "modes.json")
    monkeypatch.chdir(tmp_path)
    run(["simulate", "--mode-file", "modes.json", "--flux", "1e6", "--profile",
         "exponential", "--lambda-l", "8", "--lambda-n", "4", *simulate_flags,
         "--output", output])


def _paper_pipeline_digests(tmp_path, monkeypatch, *simulate_flags, run=main):
    """sha256 of the files of the paper_D186 command lines at D = 30."""
    _simulate_paper_counts(tmp_path, monkeypatch, "counts.csv", *simulate_flags, run=run)
    common = ["--mode-file", "modes.json", "--flux", "1e6"]
    run(["certify", "--input", "counts.csv", *common, "--resamples", "200",
         "--seed", "7", "--output", "report.json"])
    run(["optimize", "--input", "counts.csv", *common, "--output", "trajectory.json"])
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("counts.csv", "report.json", "trajectory.json")}


_PAPER_PIPELINE_PINS = {
    "counts.csv": "13bdcf5fde144a35abdde88d8b2c175ee04bf3820b52db257dccca5174d59ad5",
    "report.json": "123216b571c204c68127e4703d8c66c6475dd4618a0877abd12649e8834b6baf",
    "trajectory.json": "004a0135358e4bf588a78d7a026d354e4aecb63e106305e7e91ae31edbf9e867",
}


def test_paper_pipeline_keeps_its_bytes(tmp_path, monkeypatch):
    # the counts and report digests were taken before the count reader and
    # the greedy search were vectorized, so a speed-up that moves a byte of a
    # seeded output fails here; the trajectory digest was taken when the
    # greedy began to sum the W of its later steps as one reverse cumulative
    # sum, which moved the last digits of those W and nothing else
    assert _paper_pipeline_digests(tmp_path, monkeypatch, "--seed", "7") == \
        _PAPER_PIPELINE_PINS


# a fresh interpreter imports the package from the source tree these tests run
_SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(dimwitness.__file__).resolve().parents[1])}


def test_paper_pipeline_keeps_its_bytes_in_fresh_processes(tmp_path, monkeypatch):
    # each command as its own `python -m dimwitness.cli` process, so its outputs
    # pass through the exit path that main() sets up: the shutdown collection
    # is skipped, and no byte of a file or of stdout may depend on it
    stdout = []

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "dimwitness.cli", *argv],
                              capture_output=True, text=True, env=_SRC_ENV, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        stdout.append(proc.stdout)

    digests = _paper_pipeline_digests(tmp_path, monkeypatch, "--seed", "7", run=run)
    assert digests == _PAPER_PIPELINE_PINS
    assert stdout == ["wrote 5220 counts for D=30 to counts.csv\n",
                      "W = 1293.51 (D = 30), certified d = 30\n",
                      "best subset size 30, certified d = 30\n"]


def test_main_leaves_one_exit_hook(tmp_path):
    # a hook registered before main() runs after main()'s, so it sees the freeze
    code = ("import atexit, gc\n"
            "from dimwitness.cli import main\n"
            "atexit.register(lambda: print('frozen at exit', gc.get_freeze_count() > 0))\n"
            "before = atexit._ncallbacks()\n"
            "for _ in range(3):\n    main(['verify', '--d-max', '2'])\n"
            "print('exit hooks added', atexit._ncallbacks() - before)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=_SRC_ENV, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-3:] == [
        "all checks passed", "exit hooks added 1", "frozen at exit True"]


def test_expectation_pipeline_keeps_its_bytes(tmp_path, monkeypatch):
    # the same command lines on exact expected counts, so the CSV writer's
    # fractional counts are pinned as well as its whole ones; the counts
    # digest was taken before the CSV writer used one row template per pair,
    # the trajectory digest as in the test above, and the report digest when
    # the closed-form variance became (1 - V^2) / N of basis_correlations,
    # which moved sigma from 0.017916827686016063 to ...067 and nothing else
    assert _paper_pipeline_digests(tmp_path, monkeypatch, "--expectation") == {
        "counts.csv": "f9d66e017f856d8acb65a4bd86bffd835d4578fabbe3797730877a260bce0cbe",
        "report.json": "57851da6d1c213b87ab1be1cdaba38286f93569b1c7a6b30e764fff0ad134a24",
        "trajectory.json": "56aca7b9189a5a6f825be650c8c62a899c8dd5686a1a9c90876d301975cd2a1a",
    }


# Taken when the "counts" of a JSON count file became the nested count tensor
# (one object per count before: e05d1ac8…e823 seeded, 72e38448…a4a9
# expectation), and checked then against json.dumps of the whole payload.
_JSON_PINS = [
    (("--seed", "7"), "8571f2973be52d8aecb5f669d2421e154c57839afd8ee3478cf547761aa9301c"),
    (("--expectation",), "b7d8d4f307b641dfa92315591f3e055a0c54107c37e61429132af68e74c896a7"),
]


@pytest.mark.parametrize("flags, digest", _JSON_PINS)
def test_json_count_files_keep_their_bytes(tmp_path, monkeypatch, flags, digest):
    _simulate_paper_counts(tmp_path, monkeypatch, "counts.json", *flags)
    assert hashlib.sha256((tmp_path / "counts.json").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("pinned", ["seeded", "expectation", "json seeded",
                                    "json expectation"])
def test_byte_pins_hold_across_block_and_chunk_boundaries(tmp_path, monkeypatch, pinned):
    # at the default sizes the D = 30 files (435 pairs, 5,220 rows) fit in
    # one block and one chunk; these sizes split them into 5 probability
    # blocks, 7 write blocks and 6 read chunks, four of the five chunk
    # boundaries inside a pair's 12 rows
    for name, size in {"_PROB_PAIRS": 100, "_WRITE_PAIRS": 64, "_READ_ROWS": 1000}.items():
        monkeypatch.setattr(measurement, name, size)
    if pinned == "seeded":
        test_paper_pipeline_keeps_its_bytes(tmp_path, monkeypatch)
    elif pinned == "expectation":
        test_expectation_pipeline_keeps_its_bytes(tmp_path, monkeypatch)
    else:
        flags, digest = _JSON_PINS[pinned == "json expectation"]
        test_json_count_files_keep_their_bytes(tmp_path, monkeypatch, flags, digest)
