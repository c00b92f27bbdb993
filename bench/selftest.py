"""Smoke test of the benchmark itself, at small sizes.

    python3 bench/selftest.py

Checks, for every workload: all end-to-end metrics of BENCHMARK.json are
reported and no job fails; each layer's ``.calls`` metric is non-zero on the
workload assigned to it below; and the deterministic counts repeat exactly
across two traced runs.  It also checks that the benchmark refuses to run,
with no result line, from a directory that holds only ``BENCHMARK.json`` and
the benchmark's own files.  Exits 1 on the first failed check.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent
WORKLOADS = ("amplify", "cluster", "dense", "statevec")

# Layer -> (.calls metrics, workloads on which each must be non-zero).  The
# same table is in README.md.
LAYER_CALLS = {
    "cli": (["cli.ingest_csv.calls"], ["cluster"]),
    "state": (["state.StateVector.calls"], ["statevec", "cluster"]),
    "gates": (["gates.apply.calls"], ["statevec", "cluster"]),
    "gates/dense": (["gates.GateMatrix.calls", "gates.Circuit.matrix.calls"], ["dense"]),
    "grover": (["grover.grover_search.calls"], ["amplify"]),
    "minimizer": (["minimizer.minimize.calls"], ["amplify", "cluster"]),
    "qsvm": (["qsvm.solve.calls"], ["amplify"]),
    "subroutines": (
        ["subroutines.dist_calc.calls", "subroutines.swap_test.calls",
         "subroutines.median_calc.calls"],
        ["cluster"],
    ),
    "clustering": (["clustering.kmeans.calls", "clustering.kmedians.calls"], ["cluster"]),
    "fourier": (
        ["fourier.qft_gate.calls", "fourier.classical_dft.calls",
         "fourier.control_distribution.calls"],
        ["dense"],
    ),
    "density": (["density.partial_trace.calls"], ["dense"]),
    "qpca": (["qpca.build_model.calls"], ["dense"]),
    "qnn": (
        ["qnn.cost.calls", "qnn.finite_difference_gradient.calls",
         "qnn.unitary_from_pauli_coefficients.calls"],
        ["dense"],
    ),
    "rng": (["rng.draws"], list(WORKLOADS)),
}

# Counts that depend only on the seed, never on timing.
DETERMINISTIC = (
    "grover.rounds", "minimizer.main_iterations", "minimizer.oracle_calls",
    "gates.apply.amps", "state.StateVector.amps", "qsvm.grid_points",
    "clustering.lloyd_iterations", "rng.draws",
)


def _run(workload: str, trace: int, cwd: Path = CHECKOUT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def _result(workload: str, trace: int) -> dict:
    code, stdout = _run(workload, trace)
    _require(code == 0, f"{workload} trace={trace}: exit code {code}")
    result = json.loads(stdout.strip().splitlines()[-1])
    _require(set(result) == {"correct", "attempted", "failed", "metrics"},
             f"{workload}: result keys {sorted(result)}")
    _require(result["failed"] == 0 and result["correct"],
             f"{workload} trace={trace}: {result['failed']} of {result['attempted']} jobs failed")
    return result["metrics"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for names, _ in LAYER_CALLS.values():
        _require(set(names) <= per_layer, f"{names} missing from BENCHMARK.json per_layer")
    _require(set(DETERMINISTIC) <= per_layer, "deterministic counts missing from per_layer")

    for workload in WORKLOADS:
        metrics = _result(workload, 0)
        _require(set(metrics) == end_to_end, f"{workload}: end-to-end metrics {sorted(metrics)}")
        first, second = _result(workload, 1), _result(workload, 1)
        _require(set(first) == per_layer, f"{workload}: per-layer metrics differ from the spec")
        _require(first["error_rate"]["value"] == 0, f"{workload}: error_rate is not 0")
        for layer, (names, workloads) in LAYER_CALLS.items():
            if workload in workloads:
                for name in names:
                    _require(first[name]["value"] > 0, f"{workload}: {name} is 0 ({layer})")
        counts = [n for n in per_layer if n.endswith(".calls")] + list(DETERMINISTIC)
        for name in counts:
            _require(first[name]["value"] == second[name]["value"],
                     f"{workload}: {name} differs across traced runs "
                     f"({first[name]['value']} vs {second[name]['value']})")
        print(f"ok {workload}")

    scratch = CHECKOUT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(CHECKOUT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = _run("amplify", 0, cwd=bare)
        _require(code != 0 and not stdout.strip(),
                 f"a bare benchmark directory gave exit code {code} and output {stdout!r}")
    finally:
        shutil.rmtree(bare)
        run._remove_if_empty(scratch)
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
