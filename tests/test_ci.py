import re
from pathlib import Path

import yaml

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
