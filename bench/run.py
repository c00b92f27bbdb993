"""qmlkit benchmark: one seeded workload run, printed as one JSON line.

    python3 bench/run.py --workload amplify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` runs the workload's fixed job
list in two cold passes, each a fresh process, and reports the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` runs one plain and one traced
pass and reports the per-layer metrics.  The job lists are sized so the two
passes measure about ``--seconds`` together on a 2-core machine; the value
is not used otherwise.  The last line of standard output is ``{"correct",
"attempted", "failed", "metrics"}``; the line before it holds the run's
context (versions, BLAS threads, job-tail percentile, ``src/`` line count).
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
WORKLOADS = ("amplify", "cluster", "dense", "statevec")
PASSES = 2             # cold passes over the job list, each in a fresh process
SETUP_SAMPLES = 3      # set-ups timed: one per pass, the rest in set-up-only processes
TAIL_BEYOND = 10       # job_tail_ms is the highest order statistic with 10 jobs above it
DEADLINE_S = 170.0     # every process of one run ends within this


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny sizes, for the benchmark's own self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _fail("--seconds must be at least 1")
    if not (CHECKOUT / "src" / "qmlkit" / "__init__.py").is_file():
        return _fail(f"no qmlkit sources under {CHECKOUT / 'src'}; run from a full checkout")
    spec_path = CHECKOUT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    deadline = time.monotonic() + DEADLINE_S
    scratch = CHECKOUT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        if args.trace:
            plain = _worker(args, workdir / "plain", deadline)
            out = CHECKOUT / ".bench_out"
            out.mkdir(exist_ok=True)
            spans = out / f"spans-{args.workload}-seed{args.seed}.json"
            traced = _worker(args, workdir / "traced", deadline, trace=True, spans=spans)
            runs = [plain, traced]
            metrics = _layer_metrics(spec, plain, traced)
        else:
            setups = [
                _worker(args, workdir / f"setup-{i}", deadline, setup_only=True)["setup_s"]
                for i in range(SETUP_SAMPLES - PASSES)
            ]
            runs = [_worker(args, workdir / f"pass-{i}", deadline) for i in range(PASSES)]
            metrics = _end_to_end_metrics(spec, runs, setups + [run["setup_s"] for run in runs])
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        return _fail(f"worker failed: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(scratch)

    attempted = sum(len(r["latencies_ms"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    context = _context(args, runs[0])
    if args.trace:
        context["missing_traced_names"] = traced["missing"]
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _remove_if_empty(directory: Path) -> None:
    try:
        directory.rmdir()  # fails, as intended, while another run still uses it
    except OSError:
        pass


def _worker(args, workdir: Path, deadline: float, setup_only=False, trace=False, spans=None):
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workdir", str(workdir), "--result", str(result),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command += ["--trace", "--spans", str(spans)]
    if args.small:
        command.append("--small")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("QMLKIT_SEED", None)
    timeout = max(1.0, deadline - time.monotonic())
    command += ["--spawned-at", repr(time.time())]
    subprocess.run(command, check=True, timeout=timeout, env=env, cwd=CHECKOUT,
                   stdout=subprocess.DEVNULL)
    return json.loads(result.read_text(encoding="utf-8"))


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic that still has
    ``TAIL_BEYOND`` jobs above it."""
    ordered = sorted(latencies)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _end_to_end_metrics(spec: dict, runs: list[dict], setups: list[float]) -> dict:
    """Each job's latency is its median over the cold passes (with two
    passes, their mean), which damps a burst of machine noise that hits one
    pass; the latency metrics are taken over those per-job values."""
    per_pass = [[ms for _, ms in run["latencies_ms"]] for run in runs]
    latencies = [statistics.median(samples) for samples in zip(*per_pass)]
    tail, _ = _tail(latencies)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(latencies) / 1000.0,
        "job_p50_ms": statistics.median(latencies),
        "job_tail_ms": tail,
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def _layer_metrics(spec: dict, plain: dict, traced: dict) -> dict:
    values = dict(traced["layers"])
    values["error_rate"] = len(traced["failures"]) / len(traced["latencies_ms"])
    values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    # A traced name that no longer exists in the program reads as zero.
    return {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in spec["per_layer"]
    }


def _context(args, run: dict) -> dict:
    import numpy as np

    latencies = [ms for _, ms in run["latencies_ms"]]
    _, percentile = _tail(latencies)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(latencies),
        "job_tail_percentile": round(percentile, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "nproc": os.cpu_count(),
        "src_loc": _src_loc(),
        "commit": _commit(),
    }


def _blas(np) -> dict:
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                threads = int(getattr(handle, symbol)())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _src_loc() -> int:
    total = 0
    for path in sorted((CHECKOUT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as handle:
            total += sum(1 for _ in handle)
    return total


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
