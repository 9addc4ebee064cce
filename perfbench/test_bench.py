"""Tests of the benchmark itself, on its smoke sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


def bench(root, *args):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.5",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert "determinism" in proc.stdout


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(tmp_path, "--workload", "scan_D8", "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_patches_every_binding_and_restores():
    import dimwitness.cli
    import dimwitness.witness
    from spans import Tracer

    orig = dimwitness.witness.greedy_subset
    tracer = Tracer()
    with tracer.installed():
        assert dimwitness.cli.greedy_subset is not orig
        assert dimwitness.cli.greedy_subset is dimwitness.witness.greedy_subset
    assert dimwitness.cli.greedy_subset is orig
    assert dimwitness.witness.greedy_subset is orig


def test_self_time_excludes_children():
    from spans import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    s = tracer.summary()
    outer = tracer.spans[0]
    assert s["inner"]["calls"] == 2
    assert s["outer"]["self_s"] == pytest.approx(
        outer[5] - outer[4] - s["inner"]["total_s"], abs=1e-12)


def test_output_checks_reject_a_wrong_certificate():
    from workloads import _certificate_problems

    W, D = 9.9, 4                   # bound(4, 1) = 6 < W <= bound(4, 2) = 10
    assert _certificate_problems(W, 0.1, 2, 2, D, W) == []
    assert _certificate_problems(W, 0.1, 3, 3, D, W) != []        # wrong d
    assert _certificate_problems(20.0, 0.1, 4, 4, D, 20.0) != []  # above the cap
    assert _certificate_problems(W, 0.1, 2, 2, D, W + 1.0) != []  # 10 sigma off
    assert _certificate_problems(W, 0.1, 2, 1, D, W) != []        # optimize lost d


def test_refclock_times_in_process_parts_and_children():
    from refclock import RefClock

    clock = RefClock()
    value, seconds = clock.time(lambda: 7)
    assert value == 7 and seconds > 0
    assert len(clock.speeds) == 2                 # one bracket on each side
    proc, seconds = clock.run([sys.executable, "-c", "import time; time.sleep(0.35)"],
                              None, 30)
    assert proc.returncode == 0 and seconds > 0
    assert len(clock.speeds) >= 2 + 2 + 2         # before, probes, after


def test_refclock_gives_up_on_a_child_past_its_timeout():
    from refclock import RefClock

    with pytest.raises(subprocess.TimeoutExpired):
        RefClock().run([sys.executable, "-c", "import time; time.sleep(30)"], None, 0.5)
