import dataclasses
import hashlib
import importlib.util
import inspect
import json
import pkgutil
import re
import shlex
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

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


def test_workflow_installs_the_pyproject_test_extra():
    # the dependency list lives in pyproject.toml only
    workflow = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text())
    install = next(step["run"] for step in workflow["jobs"]["tests"]["steps"]
                   if step.get("name") == "Install dependencies")
    assert install == 'python -m pip install -e ".[test]"'
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^\[project\.optional-dependencies\]\ntest = \[", pyproject, re.M)


def test_workflow_runs_the_installed_console_script():
    # the tests call cli.main directly, so only this step sees a broken entry
    # point of the installed package
    steps = yaml.safe_load((ROOT / ".github/workflows/tests.yml").read_text()
                           )["jobs"]["tests"]["steps"]
    names = [step.get("name") for step in steps]
    script = names.index("Installed console script")
    assert names.index("Install dependencies") < script
    assert steps[script]["run"].splitlines() == ["dimwitness --version",
                                                 "dimwitness verify --d-max 3"]
    assert re.search(r'^\[project\.scripts\]\ndimwitness = "dimwitness\.cli:main"$',
                     (ROOT / "pyproject.toml").read_text(), re.M)


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


def _simulate_paper_counts(tmp_path, monkeypatch, output, *simulate_flags):
    """Run the paper_D186 simulate command line at D = 30 in `tmp_path`."""
    grid = enumerate_modes(11, 13)
    chosen = sorted(grid.modes, key=lambda m: (2 * m.n + abs(m.l), m.n, m.l))
    ModeSet(tuple(chosen[:30])).save(tmp_path / "modes.json")
    monkeypatch.chdir(tmp_path)
    main(["simulate", "--mode-file", "modes.json", "--flux", "1e6", "--profile",
          "exponential", "--lambda-l", "8", "--lambda-n", "4", *simulate_flags,
          "--output", output])


def _paper_pipeline_digests(tmp_path, monkeypatch, *simulate_flags):
    """sha256 of the files of the paper_D186 command lines at D = 30."""
    _simulate_paper_counts(tmp_path, monkeypatch, "counts.csv", *simulate_flags)
    common = ["--mode-file", "modes.json", "--flux", "1e6"]
    main(["certify", "--input", "counts.csv", *common, "--resamples", "200",
          "--seed", "7", "--output", "report.json"])
    main(["optimize", "--input", "counts.csv", *common, "--output", "trajectory.json"])
    return {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("counts.csv", "report.json", "trajectory.json")}


def test_paper_pipeline_keeps_its_bytes(tmp_path, monkeypatch):
    # the counts and report digests were taken before the count reader and
    # the greedy search were vectorized, so a speed-up that moves a byte of a
    # seeded output fails here; the trajectory digest was taken when the
    # greedy began to sum the W of its later steps as one reverse cumulative
    # sum, which moved the last digits of those W and nothing else
    assert _paper_pipeline_digests(tmp_path, monkeypatch, "--seed", "7") == {
        "counts.csv": "13bdcf5fde144a35abdde88d8b2c175ee04bf3820b52db257dccca5174d59ad5",
        "report.json": "123216b571c204c68127e4703d8c66c6475dd4618a0877abd12649e8834b6baf",
        "trajectory.json": "004a0135358e4bf588a78d7a026d354e4aecb63e106305e7e91ae31edbf9e867",
    }


def test_expectation_pipeline_keeps_its_bytes(tmp_path, monkeypatch):
    # the same command lines on exact expected counts, so the CSV writer's
    # fractional counts are pinned as well as its whole ones; the counts and
    # report digests were taken before the CSV writer used one row template
    # per pair, the trajectory digest as in the test above
    assert _paper_pipeline_digests(tmp_path, monkeypatch, "--expectation") == {
        "counts.csv": "f9d66e017f856d8acb65a4bd86bffd835d4578fabbe3797730877a260bce0cbe",
        "report.json": "0c419e15fc7af214d811298490c843d03eecc27f20943dc00c600a8cb909cd95",
        "trajectory.json": "56aca7b9189a5a6f825be650c8c62a899c8dd5686a1a9c90876d301975cd2a1a",
    }


_JSON_PINS = [
    (("--seed", "7"), "e05d1ac862e00750d81bc5b7fa4a1d8d4d08ce46ed93d43ef79951083898e823"),
    (("--expectation",), "72e3844871da2db4f8214a92174607438c31dc34e43d912d8799e547b6f7a4a9"),
]


@pytest.mark.parametrize("flags, digest", _JSON_PINS)
def test_json_count_files_keep_their_bytes(tmp_path, monkeypatch, flags, digest):
    # the digests were taken before the JSON writer filled one template of
    # a pair's count objects instead of calling json.dumps on every count
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
