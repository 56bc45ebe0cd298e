"""Self-test of the benchmark's generator and oracle.

    python3 perfbench/selftest.py

Checks, for every workload, that

1. the same seed writes byte-identical input files and the same answers,
   and another seed writes different files;
2. one job of each class, run through ``iwkit.cli.main``, passes its oracle;
3. the oracle rejects that report once it is corrupted: a wrong exit code,
   and one changed number in the report body.

It then prints, without failing, whether ``wprep`` still reports digits of
the distinguished part that its input does not determine, on a job whose
lambda exceeds the bound the workload keeps to (see README.md).  Exits 1
when a check fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _digest_dir(path: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(path.iterdir())}


def _run(argv: list[str]) -> tuple[int, str]:
    from iwkit import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _strip_paths(jobs: list[dict]) -> str:
    return json.dumps([{k: v for k, v in job.items() if k != "argv"} for job in jobs],
                      sort_keys=True)


def _corrupt(workload: str, text: str) -> str:
    """The report with one number in its body changed."""
    body = json.loads(text)
    if workload in ("tower", "growth"):
        row = body["rows"][-1]
        key = "length" if workload == "tower" else "s_n"
        row[key] += 1
    elif workload == "wprep":
        cs = body["report"]["distinguished"]
        cs[0] = str(int(cs[0]) + 1)
    else:
        cs = body["rows"][-1]["coeffs"]
        cs[0] = str(int(cs[0]) + 1)
    return json.dumps(body)


def main() -> int:
    failures = []
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-selftest-", dir=ROOT))
    try:
        for name in workloads.WORKLOADS:
            a = workloads.build(name, 7, scratch / f"{name}-a")
            b = workloads.build(name, 7, scratch / f"{name}-b")
            c = workloads.build(name, 8, scratch / f"{name}-c")
            same = (_digest_dir(scratch / f"{name}-a") == _digest_dir(scratch / f"{name}-b")
                    and _strip_paths(a) == _strip_paths(b))
            differ = _digest_dir(scratch / f"{name}-a") != _digest_dir(scratch / f"{name}-c")
            print(f"{name}: same seed identical {same}, other seed differs {differ}")
            if not (same and differ):
                failures.append(f"{name}: generator is not seed-deterministic")

            seen = set()
            for job in a:
                if job["cls"] in seen:
                    continue
                seen.add(job["cls"])
                rc, text = _run(job["argv"])
                why = reference.check(job, rc, text)
                wrong_exit = reference.check(job, rc + 1, text)
                wrong_body = reference.check(job, rc, _corrupt(name, text))
                ok = why is None and wrong_exit is not None and wrong_body is not None
                print(f"  {job['cls']:<36} oracle {'ok' if why is None else why}; "
                      f"corrupted report caught: {wrong_body is not None}")
                if not ok:
                    failures.append(f"{job['cls']}: oracle check failed")

        # wprep past the exactness bound: f = P U with lambda large for D
        rng = random.Random(0)
        p, N, D, lam = 3, 24, 35, 8
        f, P, _ = workloads._factored(rng, p, N, lam, 0, unit_deg=20)
        path = scratch / "wprep_beyond.json"
        path.write_text(json.dumps(workloads._series(p, N, f)))
        rc, text = _run(workloads.ARGV_HEAD + ["--precision", str(N), "--n-max", "3",
                                               "--degree-cap", str(D), "wprep", str(path)])
        got = [int(x) for x in json.loads(text)["report"]["distinguished"]]
        agree = min(reference.valuation((x - y) % p ** N, p, N) for x, y in zip(got, P))
        print(f"wprep p={p} N={N} D={D} lambda={lam}: distinguished part agrees with "
              f"the exact P to {agree} of {N} digits (reported at {N})")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in failures:
        print(f"FAILED {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
