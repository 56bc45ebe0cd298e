"""iwkit CLI benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload {tower,growth,wprep,logmatrix}
                             --seed N --seconds S --trace {0,1} [--roadmap]

Run from anywhere; the program is imported from ``src/`` beside this
directory.  The seed generates every input file (workloads.py); a fresh
child process (worker.py) runs the jobs through ``iwkit.cli.main`` with
``--no-timestamp --format json`` until S seconds have passed, and every
output is then checked against an answer computed without iwkit
(reference.py).

Job and set-up times are reported rescaled by a host-speed probe timed
beside them (calibrate.py); the raw wall times are printed beside them.
``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` also runs one
traced pass of the same jobs in a second child and reports the per-layer
metrics (spans.py).  ``--roadmap`` swaps the job list for the full-size
ROADMAP rows (minutes per pass).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import calibrate
import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
CHILD_GRACE_S = 150


def _child_env() -> dict[str, str]:
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_seconds(script: str, env: dict[str, str]) -> float:
    """Interpreter start to the moment ``script`` prints, in a fresh process."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout) - start


def _setup_seconds(env: dict[str, str]) -> list[tuple[float, float]]:
    """(wall, scaled) seconds from interpreter start to the end of ``import
    iwkit.cli``, per fresh process, each scaled by the start-up probe run
    just before it; the first pair (which may write bytecode caches) is
    discarded."""
    script = "import time, iwkit.cli; print(repr(time.monotonic()))"
    times = []
    for _ in range(SETUP_REPEATS + 1):
        probe = _start_seconds(calibrate.START_SCRIPT, env)
        wall = _start_seconds(script, env)
        times.append((wall, calibrate.scale(wall, probe, calibrate.REFERENCE_START_S)))
    return times[1:]


def _worker(argv_file: Path, result: Path, seconds: float, env: dict[str, str],
            spans_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(argv_file), str(result),
           str(seconds)]
    if spans_file:
        cmd += ["--trace", str(spans_file)]
    subprocess.run(cmd, env=env, cwd=ROOT, timeout=seconds + CHILD_GRACE_S,
                   check=True)
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _check(jobs: list[dict], run: dict) -> tuple[int, list[str]]:
    """Failed job runs of a worker result, and one reason per distinct
    failing output."""
    verdict: dict[str, str | None] = {}
    failed, reasons = 0, []
    for job, _, _, rc, digest, _ in run["records"]:
        key = f"{job}:{digest}"
        if key not in verdict:
            text, err = run["outputs"][key]
            verdict[key] = reference.check(jobs[job], rc, text)
            if verdict[key]:
                reasons.append(f"job {job} {jobs[job]['cls']}: {verdict[key]}"
                               f"{' | ' + err.strip()[-300:] if err.strip() else ''}")
        failed += verdict[key] is not None
    return failed, reasons


def _job_times(run: dict, scaled: bool = True) -> list[float]:
    """Each job's median run over the passes, rescaled by its host probe
    unless ``scaled`` is false.  The host's speed flickers both ways within
    seconds, so a job's fastest run depends on whether a fast moment
    happened to meet it; its median run does not."""
    times: dict[int, list[float]] = {}
    for job, _, elapsed, _, _, probe in run["records"]:
        value = calibrate.scale(elapsed, probe) if scaled else elapsed
        times.setdefault(job, []).append(value)
    return [statistics.median(times[job]) for job in sorted(times)]


def _throughput(run: dict) -> float:
    """Mean jobs per second over every run of a worker, in scaled seconds."""
    return len(run["records"]) / sum(calibrate.scale(r[2], r[5])
                                     for r in run["records"])


def _quantile(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    pos = q / 100 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _tail(xs: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of a fixed ladder of percentiles
    with at least ten samples beyond it.  The samples are one per job of the
    pass, so the percentile is fixed by the workload's job list."""
    for permille in (999, 990, 950, 900, 750):
        if len(xs) * (1000 - permille) >= 10 * 1000:
            return permille / 10, _quantile(xs, permille / 10)
    return 50.0, _quantile(xs, 50.0)


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args, jobs: list[dict], env: dict[str, str],
                 probes: list[float]) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "threads": {var: env[var] for var in THREAD_VARS},
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "roadmap": args.roadmap,
        "pN_bits": {job["cls"]: job["bits"] for job in jobs},
        "probe_ms": {"reference": calibrate.REFERENCE_S * 1e3,
                     "quartiles": [round(q * 1e3, 4) for q in
                                   statistics.quantiles(probes, n=4)]},
    }


def _print_classes(jobs: list[dict], records: list) -> None:
    per_class: dict[str, list[float]] = {}
    for job, _, elapsed, _, _, _ in records:
        per_class.setdefault(jobs[job]["cls"], []).append(elapsed)
    for cls, times in sorted(per_class.items()):
        print(f"class {cls:<34} runs {len(times):4d}  median "
              f"{statistics.median(times):.4f} s  total {sum(times):.3f} s (wall)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--roadmap", action="store_true",
                    help="run the full-size ROADMAP rows instead")
    args = ap.parse_args()
    if not (SRC / "iwkit" / "cli.py").is_file():
        print(f"error: no iwkit sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = workloads.build(args.workload, args.seed, work / "in",
                               roadmap=args.roadmap)
        argv_file = work / "argv.json"
        argv_file.write_text(json.dumps([job["argv"] for job in jobs]))
        env = _child_env()
        setup = _setup_seconds(env)
        plain = _worker(argv_file, work / "result.json", args.seconds, env)
        traced = None
        if args.trace:
            traced = _worker(argv_file, work / "traced.json", args.seconds, env,
                             work / "spans.json")
            with open(work / "spans.json", encoding="utf-8") as fh:
                trace = json.load(fh)
    except (OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    failed, reasons = _check(jobs, plain)
    attempted = len(plain["records"])
    per_job = _job_times(plain)
    wall_job = _job_times(plain, scaled=False)
    q, tail = _tail(per_job)
    end_to_end = {
        "jobs_per_s": (len(per_job) / sum(per_job), "1/s"),
        "job_s.p50": (statistics.median(per_job), "s"),
        "job_s.tail": (tail, "s"),
        "peak_rss_mb": (plain["maxrss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(t for _, t in setup), "s"),
    }
    wall = {
        "jobs_per_s": len(wall_job) / sum(wall_job),
        "job_s.p50": statistics.median(wall_job),
        "job_s.tail": _tail(wall_job)[1],
        "setup_s": statistics.median(w for w, _ in setup),
    }
    probes = [r[5] for r in plain["records"]]

    print("env " + json.dumps(_environment(args, jobs, env, probes), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
          f"{plain['passes']} passes, {attempted} job runs, one closed-loop client")
    _print_classes(jobs, plain["records"])
    median_of = f"{len(per_job)} jobs, each the median of {plain['passes']} runs"
    samples = {
        "jobs_per_s": median_of,
        "job_s.p50": median_of,
        "job_s.tail": f"p{q:g} of {median_of}; {len(per_job) * (1 - q / 100):.1f} beyond",
        "setup_s": f"median of {len(setup)} processes",
    }
    for name, (value, unit) in end_to_end.items():
        if name in wall:
            print(f"metric {name} {value:.5g} {unit} scaled, {wall[name]:.5g} "
                  f"{unit} wall ({samples[name]})")
        else:
            print(f"metric {name} {value:.2f} {unit} (worker ru_maxrss)")
    print(f"metric failed_frac {failed / attempted:.4f} ({failed} of {attempted} job runs)")

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()}
    if traced is not None:
        t_failed, t_reasons = _check(jobs, traced)
        failed += t_failed
        reasons += t_reasons
        attempted += len(traced["records"])
        layer = spans.summarize(trace["spans"], trace["errors"])
        layer["trace.overhead"] = _throughput(traced) / _throughput(plain)
        units = dict(spans.metric_names())
        metrics = {name: {"value": layer[name], "unit": units[name]}
                   for name in units}
        for name in units:
            print(f"layer {name} {layer[name]:.6g} {units[name]}")
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
