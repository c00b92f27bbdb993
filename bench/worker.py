"""One workload run in a fresh process: import, generate inputs, run the jobs.

Started by ``run.py``; not meant to be run by hand.  The process starts
cold, so qmlkit's lazy caches (``qft_gate``, ``inverse_qft_gate``,
``_word_stack``, ``_index_groups``) are built inside the job that first needs
them, as they are for a CLI user.  Jobs run as a closed loop: one client, one
job at a time, no worker threads.  Each job's check runs after its timer
stops.  The result is written as JSON to ``--result``.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
SRC = CHECKOUT / "src"


def _import_qmlkit():
    sys.path.insert(1, str(SRC))
    import qmlkit
    import qmlkit.cli  # noqa: F401  (loads every module the CLI reaches, for the tracer)

    if not Path(qmlkit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"qmlkit was imported from {qmlkit.__file__}, not from {SRC}")
    return qmlkit


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before the parent started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the set-up and report only its time")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    qmlkit = _import_qmlkit()
    import workloads

    jobs = workloads.build(args.workload, args.seed, args.workdir, small=args.small)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(qmlkit)
    setup_s = time.time() - args.spawned_at
    if args.setup_only:
        result = {"setup_s": setup_s}
    else:
        result = {"setup_s": setup_s, **_run_jobs(jobs, tracer, workloads.CheckFailed)}
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["missing"] = tracer.missing
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _run_jobs(jobs, tracer, check_failed) -> dict:
    latencies = []
    failures = []
    for index, job in enumerate(jobs):
        prepared = job.prepare() if job.prepare else None
        if tracer is not None:
            tracer.job_id = index
        outcome = error = None
        start = time.perf_counter()
        try:
            outcome = job.run(prepared)
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.job_id = -1
        if error is None:
            try:
                job.check(prepared, outcome)
            except check_failed as exc:
                error = f"check failed: {exc}"
            except Exception as exc:  # an unreadable report also fails the job
                error = f"check raised {type(exc).__name__}: {exc}"
        latencies.append([job.name, elapsed * 1000.0])
        if error is not None:
            failures.append([job.name, error])
            print(f"job {index} {job.name}: {error}", file=sys.stderr)
        del prepared, outcome
    return {
        "latencies_ms": latencies,
        "failures": failures,
        # First job start to last job end, less the untimed input
        # preparation and checks between jobs.
        "wall_s": sum(ms for _, ms in latencies) / 1000.0,
    }


if __name__ == "__main__":
    sys.exit(main())
