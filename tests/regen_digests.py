"""Seeded golden digests of small ``qmlkit`` jobs.

``tests/data/seeded_digests.json`` holds, for a fixed list of small seeded
``cli.run`` jobs covering all 14 subcommands, the SHA-256 of each report's
``results`` plus ``warnings``.  ``test_digests.py`` recomputes them, so any
drift in a seeded result fails the suite.  The file is stamped with the
``__version__`` it was made with and the environment that made it: numpy
version, BLAS build, machine and C library.  Last bits can differ between
environments, so the test compares only on the environment named there.

A digest may change only together with a version bump.  To regenerate after
one, run from the repository root:

    PYTHONPATH=src python tests/regen_digests.py

The script refuses to overwrite a changed digest while the file's version
equals ``__version__``, and refuses to run when ``__version__`` and
``pyproject.toml`` disagree.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

import qmlkit
from qmlkit import cli

DIGEST_FILE = Path(__file__).resolve().parent / "data" / "seeded_digests.json"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def pyproject_version() -> str:
    """The ``version`` of the ``[project]`` table (3.10 has no tomllib)."""
    text = PYPROJECT.read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    return re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE).group(1)


def fingerprint() -> dict[str, str]:
    """What decides the last bits of a seeded result besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # numpy < 1.26 has no dict mode
        blas_build = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_build,
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
    }


def _write(folder: Path, name: str, lines) -> str:
    path = folder / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _rows(matrix) -> list[str]:
    return [",".join(repr(float(v)) for v in row) for row in matrix]


def write_inputs(folder: Path) -> dict[str, str]:
    """Seeded input files, built by elementary numpy operations only."""
    gen = np.random.default_rng(20260418)
    blobs = np.vstack([gen.normal(size=(6, 2)) * 0.3, gen.normal(size=(6, 2)) * 0.3 + 4.0])
    features = gen.normal(size=(14, 5)) * (1.0, 3.0, 0.5, 2.0, 1.0)
    state = gen.normal(size=(8, 2))
    other = gen.normal(size=(4, 2))
    margin = gen.normal(size=(6, 2))
    labels = np.where(margin[:, 0] + margin[:, 1] > 0, 1.0, -1.0)
    objective = gen.normal(size=16)
    circuit = {
        "n_qubits": 2,
        "steps": [
            {"gate": "H", "targets": [0]},
            {"gate": "R", "phase": 1.0, "targets": [0]},
            {"gate": "H", "targets": [0]},
            {"gate": "R", "phase": 0.7, "targets": [1]},
        ],
    }
    phases = np.exp(2j * np.pi * np.array([0.0, 0.3, 0.61, 0.85]))
    diagonal = [
        [[float(phases[i].real), float(phases[i].imag)] if i == j else [0.0, 0.0]
         for j in range(4)]
        for i in range(4)
    ]
    return {
        "blobs": _write(folder, "blobs.csv", _rows(blobs)),
        "features": _write(folder, "features.csv", _rows(features)),
        "state3": _write(folder, "state3.csv", _rows(state)),
        "state2a": _write(folder, "state2a.csv", _rows(other)),
        "state2b": _write(folder, "state2b.csv", _rows(gen.normal(size=(4, 2)))),
        "vec_a": _write(folder, "vec_a.csv", _rows(gen.normal(size=(1, 5)))),
        "vec_b": _write(folder, "vec_b.csv", _rows(gen.normal(size=(1, 5)))),
        "points": _write(folder, "points.csv", _rows(gen.normal(size=(5, 3)))),
        "signal": _write(folder, "signal.csv", [
            repr(math.sin(2 * math.pi * 3 * j / 32) + 0.2 * float(noise))
            for j, noise in enumerate(gen.normal(size=32))
        ]),
        "labeled": _write(folder, "labeled.csv", _rows(np.column_stack([margin, labels]))),
        "objective": _write(folder, "objective.csv", [
            f"{index:04b},{float(value)!r}" for index, value in enumerate(objective)
        ]),
        "diagonal": _write(folder, "diagonal.json", [json.dumps({"matrix": diagonal})]),
        "basis2": _write(folder, "basis2.csv", ["0.0", "0.0", "1.0", "0.0"]),
        "circuit": _write(folder, "circuit.json", [json.dumps(circuit)]),
        # |-> on qubit 0 times |1> on qubit 1: an eigenvector of the circuit.
        "minus_one": _write(folder, "minus_one.csv", ["0.0", "1.0", "0.0", "-1.0"]),
        "nn": _write(folder, "nn.csv", ["0,0,1", "1,0,-1", "0,1,-1", "1,1,1"]),
        # Fewer rows than features: QPCA's eigensystem from the Gram side.
        "wide": _write(folder, "wide.csv", _rows(gen.normal(size=(6, 12)))),
    }


def jobs(f: dict[str, str], folder: Path) -> dict[str, list[str]]:
    """Job name -> ``cli.run`` argv, each with its own seed, reading the
    input files ``f`` from ``write_inputs``."""
    return {
        "grover-6": ["grover", "--bits", "6", "--marked", "5,40", "--seed", "3"],
        "grover-10": ["grover", "--bits", "10", "--marked", "7", "--seed", "4"],
        "minimize-demo3": ["minimize", "--objective", "builtin:demo3", "--seed", "5"],
        "minimize-table": ["minimize", "--objective", f["objective"], "--seed", "6"],
        "qft-3": ["qft", "--qubits", "3", "--amps", f["state3"], "--normalize", "--seed", "7"],
        "dft": ["dft", "--signal", f["signal"], "--top", "3", "--zero-bins", "1,31"],
        "phase-est-dense": ["phase-est", "--unitary", f["diagonal"], "--eigvec", f["basis2"],
                            "--controls", "5", "--seed", "8"],
        "phase-est-circuit": ["phase-est", "--unitary", f["circuit"], "--eigvec",
                              f["minus_one"], "--controls", "4", "--normalize",
                              "--seed", "9"],
        "swaptest": ["swaptest", "--a", f["state2a"], "--b", f["state2b"], "--shots", "300",
                     "--seed", "10"],
        "dist-exact": ["dist", "--a", f["vec_a"], "--b", f["vec_b"], "--seed", "11"],
        "dist-shots": ["dist", "--a", f["vec_a"], "--b", f["vec_b"], "--mode", "shots",
                       "--shots", "500", "--seed", "12"],
        "median-exact": ["median", "--points", f["points"], "--seed", "13"],
        "median-shots": ["median", "--points", f["points"], "--mode", "shots",
                         "--shots", "2", "--seed", "14"],
        "kmeans-exact": ["kmeans", "--data", f["blobs"], "--k", "2", "--seed", "15"],
        "kmeans-shots": ["kmeans", "--data", f["blobs"], "--k", "2", "--mode", "shots",
                         "--shots", "128", "--max-iterations", "3", "--grover-argmin",
                         "--seed", "16"],
        "kmedians-exact": ["kmedians", "--data", f["blobs"], "--k", "2", "--seed", "17"],
        "kmedians-shots": ["kmedians", "--data", f["blobs"], "--k", "3", "--mode", "shots",
                           "--shots", "64", "--max-iterations", "2", "--seed", "18"],
        "qsvm-linear": ["qsvm", "--data", f["labeled"], "--bits", "2", "--seed", "19"],
        "qsvm-gaussian": ["qsvm", "--data", f["labeled"], "--kernel", "gaussian",
                          "--gamma", "0.5", "--bits", "2", "--seed", "20"],
        "qpca-exact": ["qpca", "--data", f["features"], "--components", "3",
                       "--samples", "4096", "--seed", "21"],
        "qpca-controls-3": ["qpca", "--data", f["features"], "--components", "2",
                            "--samples", "700", "--controls", "3", "--seed", "22"],
        "qpca-controls-11": ["qpca", "--data", f["features"], "--components", "1",
                             "--samples", "300", "--controls", "11", "--standardize",
                             "--seed", "23"],
        "qpca-swaptest": ["qpca", "--data", f["blobs"], "--components", "2",
                          "--mode", "swaptest", "--samples", "500", "--shots", "64",
                          "--seed", "24"],
        "qpca-wide": ["qpca", "--data", f["wide"], "--components", "2",
                      "--samples", "500", "--seed", "27"],
        "qnn-overlap": ["qnn", "--data", f["nn"], "--k-bits", "1", "--m-bits", "1",
                        "--epochs", "3", "--params-out", str(folder / "overlap.csv"),
                        "--seed", "25"],
        "qnn-pauli": ["qnn", "--data", f["nn"], "--k-bits", "1", "--m-bits", "1",
                      "--cost", "pauli", "--epochs", "2",
                      "--params-out", str(folder / "pauli.csv"), "--seed", "26"],
        "paper-check": ["paper-check"],
    }


def digest(report: dict) -> str:
    """SHA-256 of the report's ``results`` and ``warnings``, with the QNN
    parameter file reduced to its basename."""
    results = dict(report["results"])
    if "params_file" in results:
        results["params_file"] = os.path.basename(results["params_file"])
    text = json.dumps(
        {"results": results, "warnings": report["warnings"]}, sort_keys=True, allow_nan=False
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compute_digests() -> dict[str, str]:
    """Every job's digest, run in a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as scratch:
        folder = Path(scratch)
        out = str(folder / "report.json")
        digests = {}
        for name, argv in jobs(write_inputs(folder), folder).items():
            code, report = cli.run(argv + ["--output", out])
            if code != 0:
                raise RuntimeError(f"job {name} exited {code}: {argv}")
            digests[name] = digest(report)
    return digests


def main() -> int:
    if qmlkit.__version__ != pyproject_version():
        print(
            f"__version__ {qmlkit.__version__} differs from pyproject.toml's "
            f"{pyproject_version()}: bump both together",
            file=sys.stderr,
        )
        return 1
    digests = compute_digests()
    if DIGEST_FILE.exists():
        old = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
        changed = sorted(
            name for name, value in old["digests"].items() if digests.get(name) != value
        )
        if changed and old["version"] == qmlkit.__version__:
            print(
                f"digests changed for {', '.join(changed)} at unchanged version "
                f"{qmlkit.__version__}: bump the version or find the cause",
                file=sys.stderr,
            )
            return 1
    document = {"version": qmlkit.__version__, "environment": fingerprint(), "digests": digests}
    DIGEST_FILE.parent.mkdir(parents=True, exist_ok=True)
    DIGEST_FILE.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
