"""Child process of the benchmark: one client running jobs in a closed loop.

    python3 perfbench/worker.py ARGV_JSON RESULT_JSON SECONDS [--trace SPANS_JSON]

ARGV_JSON holds one iwkit command line per job, nothing else.  The worker
runs the whole list in order through ``iwkit.cli.main(argv)``, each job
starting when the previous one returns, and repeats the list until SECONDS
have passed; it always stops at the end of a pass, so every pass runs the
same jobs.  With ``--trace`` it runs exactly one pass with layer spans
recorded (see spans.py).

RESULT_JSON receives, per job run, (job, pass, seconds, exit code, output
digest, host probe), the text of each distinct output, the number of passes
and the process's peak RSS.  The host probe is the mean of the calibrate.py
probes timed just before and just after the job, outside its timed region.
Outputs are checked by the parent, outside the timed region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback

import calibrate


def main(argv: list[str]) -> int:
    argv_path, result_path, seconds = argv[0], argv[1], float(argv[2])
    spans_path = argv[4] if len(argv) > 4 and argv[3] == "--trace" else None
    with open(argv_path, encoding="utf-8") as fh:
        jobs = json.load(fh)

    from iwkit import cli

    run = cli.main
    tracer = None
    if spans_path:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("job", cli.main)

    records, outputs = [], {}
    passes = 0
    started = time.perf_counter()
    before = calibrate.probe()
    while True:
        for job, job_argv in enumerate(jobs):
            if tracer:
                tracer.begin_job(job)
            out, err = io.StringIO(), io.StringIO()
            # start every job with the collector state of a fresh CLI
            # process: the loop's own records never get rescanned
            gc.collect()
            gc.freeze()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = run(job_argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                # an uncaught exception is what the CLI would exit 1 with
                rc = 1
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - t0
            after = calibrate.probe()
            text = out.getvalue()
            digest = hashlib.sha256(text.encode()).hexdigest()
            outputs.setdefault(f"{job}:{digest}", [text, err.getvalue()])
            records.append([job, passes, elapsed, rc, digest, (before + after) / 2])
            before = after
        passes += 1
        if tracer or time.perf_counter() - started >= seconds:
            break

    if tracer:
        tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "passes": passes,
            "records": records,
            "outputs": outputs,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
