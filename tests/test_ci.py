"""The CI workflow runs the tier-1 command, exactly as written, on every
Python that pyproject.toml admits, after the stdlib-only benchmark
self-test and an install of exactly the ``dev`` extra.  Both files are read
as text, so no YAML or TOML parser is needed on any interpreter of the
range.  The scripts README documents run here, so the same matrix covers
them."""

import ast
import importlib
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_install_names_exactly_the_dev_extra():
    """The workflow's one ``pip install`` names the packages of
    pyproject.toml's ``dev`` extra, no more and no fewer, so the two lists
    cannot drift apart."""
    dev = re.search(r"^dev\s*=\s*\[([^]]*)\]",
                    (ROOT / "pyproject.toml").read_text(), re.M)
    assert dev, "pyproject.toml has no dev extra"
    want = sorted(x.strip().strip("\"'") for x in dev[1].split(",")
                  if x.strip())
    installs = [r for r in _runs() if "pip install" in r]
    assert len(installs) == 1, installs
    assert sorted(installs[0].split("pip install", 1)[1].split()) == want


def test_readme_gives_the_tier1_command():
    assert TIER1 in (ROOT / "README.md").read_text().splitlines()


# one small run of every script of scripts/; character_ring.py also times
# this tree against itself, the path an A/B run against another checkout takes
SCRIPT_RUNS = [
    ["elliptic_alternation.py", "--n-max", "2"],
    ["growth_scenarios.py"],
    ["tower_grid.py", "--n-max", "2"],
    ["logmatrix_split.py", "--passes", "1"],
    ["character_ring.py", "--repeats", "1"],
    ["character_ring.py", "--repeats", "1", "--against", str(ROOT)],
]


def test_every_script_runs_and_is_documented():
    """No script of scripts/ escapes ``test_script_runs``, and README's
    "Scripts" section names each one."""
    scripts = {path.name for path in (ROOT / "scripts").glob("*.py")}
    assert scripts == {argv[0] for argv in SCRIPT_RUNS}
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Scripts\n", 1)[1].split("\n## ", 1)[0]
    assert [s for s in sorted(scripts) if f"`scripts/{s}`" not in section] == []


@pytest.mark.parametrize("argv", SCRIPT_RUNS, ids=lambda argv: " ".join(
    [argv[0]] + [a for a in argv if a == "--against"]))
def test_script_runs(tmp_path, argv):
    """Each script of scripts/ runs to exit 0 on small arguments: the names
    it imports from iwkit, or rebinds on it, still exist."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]], capture_output=True, text=True,
                          cwd=tmp_path, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_boundaries_resolve():
    """Every (module, attribute) that perfbench/spans.py rebinds in a traced
    run names a callable of the current source, so a renamed boundary or a
    dropped re-export fails here and not only under ``--trace 1``.  The
    file is run from its source and its tracer is never installed."""
    spans = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))
    missing = []
    for _, sites in spans["BOUNDARIES"]:
        for module_name, attr in sites:
            target = importlib.import_module(module_name)
            for name in attr.split("."):
                target = getattr(target, name, None)
            if not callable(target):
                missing.append(f"{module_name}.{attr}")
    assert not missing


def test_unused_imports_are_tracer_boundaries():
    """Every import in src/iwkit marked ``# noqa: F401`` is kept only for
    perfbench/spans.py to rebind, so each (module, name) pair is one of its
    BOUNDARIES sites: such imports cannot grow unnoticed, and they stay
    listed where a tracer by code object can delete them."""
    spans = runpy.run_path(str(ROOT / "perfbench" / "spans.py"))
    sites = {site for _, group in spans["BOUNDARIES"] for site in group}
    unlisted = []
    for path in sorted((ROOT / "src" / "iwkit").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if "# noqa: F401" in lines[alias.lineno - 1]:
                        site = (f"iwkit.{path.stem}", alias.asname or alias.name)
                        if site not in sites:
                            unlisted.append(site)
    assert not unlisted
