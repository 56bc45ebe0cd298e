#!/usr/bin/env python3
"""Split the in-process time of a benchmark ``logmatrix`` pass by stage.

    PYTHONPATH=src python scripts/logmatrix_split.py --seed 613 --passes 5

Writes the seed's ``logmatrix`` job list with ``perfbench/workloads.py``
(into a temporary directory), runs every job through ``iwkit.cli.main`` in
this process, ``--passes`` times, and reports per pass, as the median and
the minimum over the passes of each stage, in milliseconds:

* ``jobs``: the whole pass, ``cli.main`` included;
* ``build``: every ``WedgeTower._push`` (the powers and the character
  row), and inside it ``unpack`` (the ``_unpack`` calls of ``logmatrix``),
  ``compound`` (``_compound``), ``w_steps`` (``_w_step``), ``e_steps``
  (``_e_step``, with the Phi_k^e it packs) and ``other``, the rest of the
  push.

The script loads only this tree, so a stage function or ``_push`` that is
renamed fails the run.  The one ``_unpack`` of the character's dot
product runs outside the push but counts under ``unpack``.  The wrappers
cost one ``perf_counter`` pair per call, a few calls per build.  The
perfbench tracer has no span inside the push, so this split is taken here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from iwkit import cli, logmatrix  # noqa: E402

STAGES = ["unpack", "compound", "w_steps", "e_steps"]
NAMES = {"unpack": "_unpack", "compound": "_compound",
         "w_steps": "_w_step", "e_steps": "_e_step"}


def _timed(fn, totals: dict, key: str):
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[key] += time.perf_counter() - t
    return wrapper


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=613)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args()

    totals = dict.fromkeys(["build"] + STAGES, 0.0)
    for stage, name in NAMES.items():
        setattr(logmatrix, name,
                _timed(getattr(logmatrix, name), totals, stage))
    logmatrix.WedgeTower._push = _timed(logmatrix.WedgeTower._push, totals,
                                        "build")

    per_pass = []
    with tempfile.TemporaryDirectory() as tmp:
        jobs = workloads.build("logmatrix", args.seed, Path(tmp))
        for _ in range(args.passes):
            for key in totals:
                totals[key] = 0.0
            started = time.perf_counter()
            for job in jobs:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(job["argv"])
                if code != job["expect"]["exit"]:
                    raise SystemExit(f"{job['cls']} exited {code}")
            row = {"jobs": time.perf_counter() - started, **totals}
            row["other"] = row["build"] - sum(totals[s] for s in STAGES)
            per_pass.append(row)

    out = {"seed": args.seed, "passes": args.passes,
           "jobs_per_pass": len(jobs)}
    for name, stat in (("median_ms", statistics.median), ("min_ms", min)):
        ms = {key: round(1000 * stat(r[key] for r in per_pass), 2)
              for key in per_pass[0]}
        ms["build_share_of_jobs"] = round(ms["build"] / ms["jobs"], 3)
        out[name] = ms
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
