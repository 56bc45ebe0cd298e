"""The CI workflow runs the tier-1 command, exactly as written, on every
Python that pyproject.toml admits, after the stdlib-only benchmark
self-test.  Both files are read as text, so no YAML or TOML parser is
needed on any interpreter of the range."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

# the tier-1 command of ROADMAP.md, character for character
TIER1 = ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q "
         "--continue-on-collection-errors")
# the newest minor version CI covers
NEWEST = 13


def _workflow_lines() -> list[str]:
    """The workflow's lines with comments and blank lines dropped."""
    out = []
    for line in WORKFLOW.read_text().splitlines():
        line = re.sub(r"(^|\s+)#.*$", "", line)
        if line.strip():
            out.append(line)
    return out


def _runs() -> list[str]:
    """Every step's run command, in order; none may be a block scalar,
    whose lines a text check could not see as one command."""
    runs = [m[1].strip() for m in (re.match(r"\s*(?:-\s+)?run:(.*)$", line)
                                   for line in _workflow_lines()) if m]
    assert all(r and r[0] not in "|>" for r in runs), runs
    return runs


def test_one_job_over_every_supported_python():
    floor = re.search(r'^requires-python\s*=\s*">=3\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(), re.M)
    assert floor, "pyproject.toml has no requires-python floor"
    want = [f"3.{m}" for m in range(int(floor[1]), NEWEST + 1)]
    lines = _workflow_lines()
    jobs = [line for line in lines[lines.index("jobs:") + 1:]
            if re.fullmatch(r"  [\w-]+:", line)]
    assert len(jobs) == 1, jobs
    pins = [line.split(":", 1)[1].strip() for line in lines
            if line.strip().startswith("python-version:")]
    matrix = [p for p in pins if p.startswith("[")]
    assert len(matrix) == 1, pins
    assert [v.strip().strip("\"'") for v in matrix[0][1:-1].split(",")] == want
    # every other pin is the matrix's own value
    assert set(pins) - set(matrix) == {"${{ matrix.python-version }}"}, pins
    assert any(line.strip() == "fail-fast: false" for line in lines)
    # no version, step or failure is excused
    for key in ("exclude:", "include:", "if:", "continue-on-error:"):
        assert not any(line.strip().lstrip("- ").startswith(key)
                       for line in lines), key


def test_only_pytest_step_is_the_tier1_command():
    calls = [r for r in _runs()
             if re.search(r"\bpytest\b", re.sub(r"pip install[^;&|]*", "", r))]
    assert calls == [TIER1]


def test_selftest_runs_before_any_install():
    runs = _runs()
    selftest = runs.index("python perfbench/selftest.py")
    assert selftest < min(i for i, r in enumerate(runs) if "pip install" in r)


def test_readme_gives_the_tier1_command():
    assert TIER1 in (ROOT / "README.md").read_text().splitlines()
