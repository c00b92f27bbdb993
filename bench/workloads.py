"""Seeded inputs, job lists and correctness checks of the four workloads.

``build(workload, seed, workdir)`` writes every input file a workload needs
into ``workdir`` and returns its fixed job list.  The same seed gives the
same files and the same list.  The seed picks the data (marked indices,
objective values, blobs, signals, unitaries, circuits) but never the sizes
or the job order, so every seed runs the same amount of work.  Each job
carries a check that runs after its timer stops; a failed check fails the
job.

Floats are written with ``repr(float(v))``: qmlkit's CSV reader rejects the
repr of a numpy scalar such as ``np.float64(0.5)``.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from qmlkit import cli, density, gates, state
from qmlkit.rng import RngStream

WORKLOADS = ("amplify", "cluster", "dense", "statevec")

# Copies of the CLI's builtin objective tables, so the checker does not read
# its expected values out of the program it checks.
BUILTIN_TABLES = {
    "demo3": [1.0, 2.0, 3.0, 3.0, 0.0, 3.0, 3.0, 3.0],
    "popcount4": [float(bin(x).count("1")) for x in range(16)],
}

EXACT_TOL = 1e-9
SIGMAS = 8.0          # shot estimates must land within 8 standard deviations


class CheckFailed(Exception):
    """A job's output disagrees with its independent reference."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    """One closed-loop job.  ``prepare`` runs untimed before ``run``; its
    value is passed to ``run`` and then, with the outcome, to ``check``."""

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    prepare: Callable[[], Any] | None = None


class _JobList:
    def __init__(self, workload: str, seed: int, workdir: str, small: bool):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.dir = workdir
        self.small = small
        self.jobs: list[Job] = []

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def job_seed(self) -> int:
        return int(self.rng.integers(2**31))

    def write_rows(self, name: str, rows) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        return path

    def write_complex(self, name: str, amps) -> str:
        return self.write_rows(name, ((z.real, z.imag) for z in np.asarray(amps)))

    def write_text(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def cli(self, name: str, argv: list[str], check: Callable[[dict], None]) -> None:
        """A ``qmlkit.cli.run`` job whose report goes to a file that the
        checker reads back after the timer stops."""
        report = self.path(f"report-{len(self.jobs):03d}.json")
        full = [*argv, "--seed", str(self.job_seed()), "--output", report]

        def run(_):
            return cli.run(full)[0]

        def verify(_, code):
            _expect(code == 0, f"exit code {code}")
            with open(report, encoding="utf-8") as handle:
                check(json.load(handle)["results"])

        self.jobs.append(Job(name, run, verify))

    def interleaved(self) -> list[Job]:
        """The jobs in one fixed shuffled order, the same for every seed.
        Spreading each family over the whole run keeps a burst of machine
        noise from slowing all jobs of one family at once, and a fixed order
        keeps the peak RSS independent of the seed."""
        order = np.random.default_rng(0).permutation(len(self.jobs))
        return [self.jobs[i] for i in order]


def _close(got, want, tol: float, what: str) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    _expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    _expect(err <= tol, f"{what}: max error {err:.3e} > {tol:.1e}")


def _pairs(matrix) -> list:
    """A complex matrix as the nested ``[re, im]`` rows of qmlkit's JSON."""
    matrix = np.asarray(matrix, dtype=complex)
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def _unitary_fft(x: np.ndarray) -> np.ndarray:
    """y_k = N^-1/2 sum_j x_j exp(+2 pi i jk / N), qmlkit's convention."""
    return np.fft.ifft(x) * math.sqrt(x.size)


def _shot_tolerance(p: float, shots: int) -> float:
    return SIGMAS * math.sqrt(max(p * (1.0 - p), 0.25 / shots) / shots)


# -- amplify -------------------------------------------------------------------

def _check_grover(bits: int, k: int, iterations: int | None):
    def check(results):
        dim = 2**bits
        rounds = results["iterations"]
        if iterations is None:
            _expect(
                rounds == math.floor(math.pi / 4.0 * math.sqrt(dim / k)),
                f"default round count {rounds}",
            )
        else:
            _expect(rounds == iterations, f"ran {rounds} rounds, asked {iterations}")
        theta = math.asin(math.sqrt(k / dim))
        want = math.sin((2 * rounds + 1) * theta) ** 2
        got = results["success_probability"]
        _expect(abs(got - want) <= EXACT_TOL, f"success probability {got!r} != {want!r}")
        _expect(0 <= results["measured"] < dim, "measured index out of range")

    return check


def _check_minimize(table: np.ndarray):
    def check(results):
        index = int(results["argmin_bits"], 2)
        _expect(
            float(table[index]) == results["min_value"],
            f"table[{index}] = {table[index]!r} but min_value = {results['min_value']!r}",
        )

    return check


def _check_qsvm(vectors, labels, kernel: str, gamma: float, bits: int, alpha_max: float):
    def check(results):
        alphas = np.array(results["alphas"])
        steps = alphas / (alpha_max / (2**bits - 1))
        _expect(
            np.all(np.abs(steps - np.round(steps)) <= 1e-9)
            and np.all((np.round(steps) >= 0) & (np.round(steps) < 2**bits)),
            f"alphas {alphas} are not on the grid",
        )
        if kernel == "linear":
            k = vectors @ vectors.T
        else:
            diff = vectors[:, None, :] - vectors[None, :, :]
            k = np.exp(-gamma * np.sum(diff**2, axis=2))
        q = np.outer(labels, labels) * k
        dual = 0.5 * alphas @ q @ alphas - alphas.sum()
        _expect(
            abs(dual - results["dual_value"]) <= 1e-9 * max(1.0, abs(dual)),
            f"dual_value {results['dual_value']!r} != {dual!r}",
        )

    return check


def _amplify(b: _JobList) -> list[Job]:
    # Ten 16-bit searches with k = 8 fill the middle of the latency
    # distribution and six 17-bit searches with k = 1 sit around
    # job_tail_ms, so both order statistics fall inside a family of equal
    # cost.
    runs = [(bits, k) for bits in range(4, 7) for k in (1, 3)] if b.small else (
        [(bits, k) for bits in range(12, 19) for k in (1, 3, 16, 256)
         if (bits, k) != (17, 1) and not (bits < 15 and k == 256)]
        + [(16, 8)] * 10 + [(17, 1)] * 6)
    for bits, k in runs:
        marked = np.sort(b.rng.choice(2**bits, size=k, replace=False))
        b.cli(
            f"grover-{bits}b-k{k}",
            ["grover", "--bits", str(bits), "--marked", ",".join(map(str, marked))],
            _check_grover(bits, k, None),
        )
    bits, k = (5, 2) if b.small else (14, 3)
    default = math.floor(math.pi / 4.0 * math.sqrt(2**bits / k))
    iterations = int(b.rng.integers(1, default + 1))
    marked = np.sort(b.rng.choice(2**bits, size=k, replace=False))
    b.cli(
        f"grover-{bits}b-k{k}-r{iterations}",
        ["grover", "--bits", str(bits), "--marked", ",".join(map(str, marked)),
         "--iterations", str(iterations)],
        _check_grover(bits, k, iterations),
    )
    bits = 8 if b.small else 20
    marked = int(b.rng.integers(2**bits))
    b.cli(f"grover-{bits}b-k1", ["grover", "--bits", str(bits), "--marked", str(marked)],
          _check_grover(bits, 1, None))

    table_bits = (4, 5) if b.small else (10, 11, 12, 14)
    for i, bits in enumerate(table_bits):
        table = b.rng.normal(size=2**bits)
        path = b.write_text(
            f"objective-{i}.csv",
            "".join(f"{x:0{bits}b},{float(v)!r}\n" for x, v in enumerate(table)),
        )
        b.cli(f"minimize-{bits}b", ["minimize", "--objective", path], _check_minimize(table))
    for name, values in BUILTIN_TABLES.items():
        b.cli(f"minimize-{name}", ["minimize", "--objective", f"builtin:{name}"],
              _check_minimize(np.array(values)))

    qsvm_bits = 2 if b.small else 3
    for i, (kernel, gamma) in enumerate((("linear", None), ("gaussian", 0.5))):
        labels = b.rng.permutation([1.0, 1.0, -1.0, -1.0])
        vectors = b.rng.normal(scale=0.6, size=(4, 2)) + labels[:, None]
        path = b.write_rows(f"labeled-{i}.csv", np.column_stack([vectors, labels]))
        argv = ["qsvm", "--data", path, "--kernel", kernel, "--bits", str(qsvm_bits)]
        if gamma is not None:
            argv += ["--gamma", repr(gamma)]
        b.cli(f"qsvm-{kernel}", argv,
              _check_qsvm(vectors, labels, kernel, gamma, qsvm_bits, 4.0))
    return b.interleaved()


# -- cluster -------------------------------------------------------------------

def _blobs(b: _JobList, m: int, d: int, k: int) -> np.ndarray:
    centers = b.rng.normal(scale=6.0, size=(k, d))
    members = np.arange(m) % k
    return centers[members] + b.rng.normal(size=(m, d))


def _check_kmeans(data: np.ndarray, k: int, nearest: bool):
    def check(results):
        centroids = np.array(results["centroids"])
        assignments = np.array(results["assignments"])
        _expect(centroids.shape == (k, data.shape[1]), f"centroid shape {centroids.shape}")
        _expect(
            assignments.shape == (data.shape[0],)
            and np.all((assignments >= 0) & (assignments < k)),
            "assignments out of range",
        )
        if nearest and results["converged"]:
            dists = np.sum((data[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
            chosen = dists[np.arange(len(data)), assignments]
            _expect(
                np.all(chosen <= dists.min(axis=1) * (1 + 1e-9) + 1e-12),
                "a row is not assigned to its nearest centroid",
            )

    return check


def _check_kmedians(data: np.ndarray, k: int):
    def check(results):
        _check_kmeans(data, k, nearest=False)(results)
        for centroid in results["centroids"]:
            _expect(
                np.any(np.all(np.abs(data - np.array(centroid)) <= 1e-12, axis=1)),
                "a k-medians centroid is not a data row",
            )

    return check


def _check_median(points: np.ndarray):
    def check(results):
        index = results["index"]
        _expect(0 <= index < len(points), f"median index {index} out of range")
        _close(results["point"], points[index], 0.0, "median point")

    return check


def _check_dist(a: np.ndarray, b: np.ndarray, mode: str, shots: int):
    def check(results):
        z = float(a @ a + b @ b)
        want = float(np.sum((a - b) ** 2))
        _expect(abs(results["z"] - z) <= EXACT_TOL * z, f"z {results['z']!r} != {z!r}")
        if mode == "exact":
            tol = EXACT_TOL * z
        else:
            # dist_sq = 2 z (2 p0 - 1) with p0 estimated from the shots.
            tol = 4.0 * z * _shot_tolerance(0.5 + want / (4.0 * z), shots)
        got = results["dist_sq"]
        _expect(abs(got - want) <= tol, f"dist_sq {got!r} != {want!r} (tol {tol:.2e})")

    return check


def _check_swaptest(a: np.ndarray, b: np.ndarray, shots: int):
    def check(results):
        a_unit = a / np.linalg.norm(a)
        b_unit = b / np.linalg.norm(b)
        want = 0.5 + abs(np.vdot(a_unit, b_unit)) ** 2 / 2.0
        _expect(
            abs(results["exact_p0"] - want) <= EXACT_TOL,
            f"exact_p0 {results['exact_p0']!r} != {want!r}",
        )
        tol = _shot_tolerance(want, shots)
        _expect(abs(results["p0_hat"] - want) <= tol, f"p0_hat {results['p0_hat']!r} off")

    return check


def _cluster(b: _JobList) -> list[Job]:
    shots = 4096
    s = b.small
    # Lloyd loops stop after two iterations: the iteration count at which
    # they converge depends on the seeded start, and a fixed count keeps the
    # work per seed the same.
    runs = (
        # (label, subcommand, m, d, k, extra flags, copies)
        ("kmeans-exact", "kmeans", 24 if s else 120, 8, 3, ["--mode", "exact"], 1 if s else 16),
        ("kmeans-shots", "kmeans", 12 if s else 60, 8, 3, ["--mode", "shots"], 1 if s else 6),
        ("kmeans-grover", "kmeans", 12 if s else 120, 8, 3, ["--grover-argmin"], 1 if s else 2),
        ("kmedians", "kmedians", 8 if s else 24, 4, 2, [], 1 if s else 6),
    )
    for label, command, m, d, k, flags, copies in runs:
        for _ in range(copies):
            data = _blobs(b, m, d, k)
            path = b.write_rows(f"blobs-{len(b.jobs)}.csv", data)
            check = (_check_kmedians(data, k) if command == "kmedians"
                     else _check_kmeans(data, k, nearest=label == "kmeans-exact"))
            b.cli(f"{label}-m{m}",
                  [command, "--data", path, "--k", str(k), "--max-iterations", "2", *flags],
                  check)
    for size in ((6,) if s else (16, 17, 18, 19, 20) * 2 + (17, 19)):
        points = b.rng.normal(size=(size, 4))
        path = b.write_rows(f"points-{len(b.jobs)}.csv", points)
        b.cli(f"median-{size}", ["median", "--points", path], _check_median(points))
    for d in (3, 8, 64):
        for mode in ("exact", "shots"):
            for _ in range(1 if s else 6):
                a, c = b.rng.normal(size=(2, d))
                pa = b.write_rows(f"dist-a-{len(b.jobs)}.csv", [a])
                pc = b.write_rows(f"dist-b-{len(b.jobs)}.csv", [c])
                b.cli(f"dist-d{d}-{mode}",
                      ["dist", "--a", pa, "--b", pc, "--mode", mode, "--shots", str(shots)],
                      _check_dist(a, c, mode, shots))
    for qubits in ((2, 3) if s else (2, 3, 4, 5) * 5 + (3, 4)):
        a, c = b.rng.normal(size=(2, 2**qubits)) + 1j * b.rng.normal(size=(2, 2**qubits))
        pa = b.write_complex(f"swap-a-{len(b.jobs)}.csv", a)
        pc = b.write_complex(f"swap-b-{len(b.jobs)}.csv", c)
        b.cli(f"swaptest-{qubits}q",
              ["swaptest", "--a", pa, "--b", pc, "--shots", str(shots)],
              _check_swaptest(a, c, shots))
    return b.interleaved()


# -- dense ---------------------------------------------------------------------

def _check_qft(amps: np.ndarray):
    def check(results):
        got = np.array(results["amplitudes"]) @ np.array([1.0, 1j])
        _close(got, _unitary_fft(amps), 1e-8, "qft amplitudes")

    return check


def _check_dft(signal: np.ndarray):
    def check(results):
        want = np.abs(_unitary_fft(signal))
        _close(results["magnitudes"], want, 1e-7 * max(1.0, float(want.max())), "dft magnitudes")

    return check


def _rounding_success(delta: float, controls: int) -> float:
    dim = 2**controls
    if delta == 0.0:
        return 1.0
    numerator = abs(1 - np.exp(2j * math.pi * dim * delta)) ** 2
    return float(numerator / abs(1 - np.exp(2j * math.pi * delta)) ** 2 / dim**2)


def _check_phase_est(theta: float, controls: int):
    def check(results):
        dim = 2**controls
        nearest = round(theta * dim) % dim
        delta = theta - nearest / dim
        if delta > 0.5 / dim:
            delta -= 1.0
        _expect(abs(results["delta"] - delta) <= 1e-9, f"delta {results['delta']!r} != {delta!r}")
        want = _rounding_success(delta, controls)
        got = results["success_probability"]
        _expect(abs(got - want) <= 1e-8, f"success probability {got!r} != {want!r}")

    return check


def _matrix_unitary(b: _JobList, qubits: int):
    """A random unitary V diag(e^{2 pi i theta}) V^dagger with a known
    eigenvector V[:, 0] and eigenphase theta_0."""
    dim = 2**qubits
    v, r = np.linalg.qr(b.rng.normal(size=(dim, dim)) + 1j * b.rng.normal(size=(dim, dim)))
    v = v * (np.diag(r) / np.abs(np.diag(r)))
    thetas = b.rng.uniform(0.0, 1.0, size=dim)
    u = (v * np.exp(2j * math.pi * thetas)) @ v.conj().T
    return json.dumps({"matrix": _pairs(u)}), v[:, 0], float(thetas[0])


def _circuit_unitary(b: _JobList, qubits: int):
    """H^n D H^n as a circuit document, D built from R, controlled-R and Z
    gates.  Its eigenvectors are the Hadamard images of basis states."""
    x = int(b.rng.integers(2**qubits))
    bit = [(x >> (qubits - 1 - q)) & 1 for q in range(qubits)]
    steps = [{"gate": "H", "targets": [q]} for q in range(qubits)]
    phase = 0.0
    for q in range(qubits):
        phi = float(b.rng.uniform(0.0, 2.0 * math.pi))
        steps.append({"gate": "R", "phase": phi, "targets": [q]})
        phase += phi * bit[q]
    for q in range(qubits - 1):
        phi = float(b.rng.uniform(0.0, 2.0 * math.pi))
        cr = np.diag([1.0, 1.0, 1.0, np.exp(1j * phi)])
        steps.append({"gate": _pairs(cr), "targets": [q, q + 1]})
        phase += phi * bit[q] * bit[q + 1]
    for q in range(0, qubits, 2):
        steps.append({"gate": "Z", "targets": [q]})
        phase += math.pi * bit[q]
    steps += [{"gate": "H", "targets": [q]} for q in range(qubits)]
    y = np.arange(2**qubits)
    parity = np.array([bin(v).count("1") for v in (y & x)]) % 2
    eigvec = (1.0 - 2.0 * parity) / math.sqrt(2**qubits)
    theta = (phase / (2.0 * math.pi)) % 1.0
    return json.dumps({"n_qubits": qubits, "steps": steps}), eigvec.astype(complex), theta


def _padded_unit_rows(data: np.ndarray) -> np.ndarray:
    rows = data - data.mean(axis=0)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    dim = 2 ** max(1, math.ceil(math.log2(rows.shape[1])))
    return np.pad(rows, ((0, 0), (0, dim - rows.shape[1])))


def _check_qpca(data: np.ndarray, samples: int):
    def check(results):
        rows = _padded_unit_rows(data)
        want = np.sort(np.linalg.eigvalsh(rows.T @ rows / len(rows)))[::-1]
        _close(results["eigenvalues"], want, 1e-9, "qpca eigenvalues")
        counted = sum(results["sampled_counts"])
        _expect(counted == samples, f"sample counts sum to {counted}, not {samples}")

    return check


def _check_qnn(params_path: str, qubits: int, epochs: int):
    def check(results):
        trace = results["trace"]
        _expect(1 <= len(trace) <= epochs + 1, f"trace has {len(trace)} entries")
        _expect(all(math.isfinite(c) for c in trace), "non-finite cost in the trace")
        with open(params_path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        _expect(len(lines) == 4**qubits, f"{len(lines)} parameters, expected {4**qubits}")

    return check


def _reduced_reference(amps: np.ndarray, keep: list[int]) -> np.ndarray:
    n = int(math.log2(amps.size))
    traced = [q for q in range(n) if q not in keep]
    grid = np.transpose(amps.reshape([2] * n), keep + traced).reshape(2 ** len(keep), -1)
    return grid @ grid.conj().T


def _partial_trace_job(b: _JobList, qubits: int, keep: list[int]) -> None:
    amps = b.rng.normal(size=2**qubits) + 1j * b.rng.normal(size=2**qubits)
    amps /= np.linalg.norm(amps)

    def run(_):
        psi = state.StateVector(qubits, amps)
        return density.partial_trace(density.pure_density(psi), keep)

    def check(_, reduced):
        _close(reduced.matrix, _reduced_reference(amps, keep), 1e-12, "partial trace")

    b.jobs.append(Job(f"partial_trace-{qubits}q-keep{len(keep)}", run, check))


def _dense(b: _JobList) -> list[Job]:
    s = b.small
    for qubits in ((3, 4) if s else (8, 9, 10, 11)):
        for _ in range(2):
            amps = b.rng.normal(size=2**qubits) + 1j * b.rng.normal(size=2**qubits)
            amps /= np.linalg.norm(amps)
            path = b.write_complex(f"amps-{len(b.jobs)}.csv", amps)
            b.cli(f"qft-{qubits}q", ["qft", "--qubits", str(qubits), "--amps", path],
                  _check_qft(amps))
    for samples in ((64,) if s else (1024, 4096)):
        signal = b.rng.normal(size=samples)
        path = b.write_rows(f"signal-{len(b.jobs)}.csv", signal[:, None])
        b.cli(f"dft-{samples}", ["dft", "--signal", path], _check_dft(signal))
    # Eighteen 6-qubit jobs fill the middle of the latency distribution, so
    # job_p50_ms falls inside one family of equal cost; three 8-qubit
    # circuits sit among the jobs of similar cost around job_tail_ms.
    phase_est = ((2, "matrix", 1), (2, "circuit", 1), (3, "matrix", 1), (3, "circuit", 1))
    if not s:
        phase_est = (
            (4, "matrix", 2), (4, "circuit", 1), (5, "matrix", 1), (5, "circuit", 2),
            (6, "matrix", 9), (6, "circuit", 9), (7, "matrix", 1), (7, "circuit", 1),
            (8, "matrix", 1), (8, "circuit", 3),
        )
    makers = {"matrix": _matrix_unitary, "circuit": _circuit_unitary}
    controls = 3 if s else 4
    for qubits, kind, copies in phase_est:
        for _ in range(copies):
            doc, eigvec, theta = makers[kind](b, qubits)
            upath = b.write_text(f"unitary-{len(b.jobs)}.json", doc)
            vpath = b.write_complex(f"eigvec-{len(b.jobs)}.csv", eigvec)
            b.cli(f"phase-est-{qubits}q-{kind}",
                  ["phase-est", "--unitary", upath, "--eigvec", vpath,
                   "--controls", str(controls)],
                  _check_phase_est(theta, controls))
    samples = 256 if s else 1024
    for features in ((4,) if s else (16, 64)):
        for mode in ("exact", "swaptest"):
            rows = 20 if s else 200
            data = b.rng.normal(size=(rows, features)) @ b.rng.normal(size=(features, features))
            path = b.write_rows(f"pca-{len(b.jobs)}.csv", data)
            b.cli(f"qpca-{features}d-{mode}",
                  ["qpca", "--data", path, "--components", "1", "--mode", mode,
                   "--samples", str(samples), "--shots", "512", "--controls", "6"],
                  _check_qpca(data, samples))
    qnn_runs = ((1, 1, 2, "overlap"),) if s else (
        (1, 1, 8, "overlap"), (1, 2, 1, "overlap"), (1, 2, 1, "pauli"))
    for k, m, epochs, cost in qnn_runs:
        labels = b.rng.permutation([-1.0, -1.0, 1.0, 1.0])
        rows = [(x1, x2, y) for (x1, x2), y in zip(((0, 0), (0, 1), (1, 0), (1, 1)), labels)]
        path = b.write_rows(f"qnn-{len(b.jobs)}.csv", rows)
        params = b.path(f"qnn-params-{len(b.jobs)}.csv")
        b.cli(f"qnn-k{k}m{m}-{cost}",
              ["qnn", "--data", path, "--k-bits", str(k), "--m-bits", str(m),
               "--epochs", str(epochs), "--cost", cost, "--params-out", params],
              _check_qnn(params, 2 * k + m, epochs))
    b.cli("paper-check", ["paper-check"], lambda results: _expect(
        results["passed"], f"{results['failures']} known-value checks failed"))
    qubits = 6 if s else 10
    for kept in (qubits - 1, qubits // 2):
        keep = sorted(b.rng.choice(qubits, size=kept, replace=False).tolist())
        _partial_trace_job(b, qubits, keep)
    return b.interleaved()


# -- statevec ------------------------------------------------------------------

def _random_circuit(b: _JobList, qubits: int, layers: int) -> str:
    """Layers of H, X, R, controlled-R, SWAP and a random two-qubit unitary."""
    steps = []
    for _ in range(layers):
        picks = b.rng.permutation(qubits)
        steps.append({"gate": "H", "targets": [int(picks[0])]})
        steps.append({"gate": "H", "targets": [int(picks[1])]})
        steps.append({"gate": "X", "targets": [int(picks[2])]})
        steps.append({"gate": "R", "phase": float(b.rng.uniform(0, 2 * math.pi)),
                      "targets": [int(picks[3])]})
        cr = np.diag([1.0, 1.0, 1.0, np.exp(1j * b.rng.uniform(0, 2 * math.pi))])
        pairs = b.rng.permutation(qubits)[:6]
        for gate, (q0, q1) in ((cr, pairs[0:2]), ("SWAP", pairs[2:4]), (None, pairs[4:6])):
            if gate is None:
                g = b.rng.normal(size=(4, 4)) + 1j * b.rng.normal(size=(4, 4))
                gate, r = np.linalg.qr(g)
                gate = gate * (np.diag(r) / np.abs(np.diag(r)))
            spec = gate if isinstance(gate, str) else _pairs(gate)
            steps.append({"gate": spec, "targets": [int(q0), int(q1)]})
    return json.dumps({"n_qubits": qubits, "steps": steps})


def _reference_run(doc: dict, amps: np.ndarray) -> np.ndarray:
    """Independent einsum-style simulation of a circuit document."""
    n = doc["n_qubits"]
    fixed = {"H": np.array([[1, 1], [1, -1]]) / math.sqrt(2), "X": np.array([[0, 1], [1, 0]]),
             "SWAP": np.eye(4)[[0, 2, 1, 3]]}
    psi = amps.reshape([2] * n)
    for step in doc["steps"]:
        spec, targets = step["gate"], step["targets"]
        if spec == "R":
            gate = np.diag([1.0, np.exp(1j * step["phase"])])
        elif isinstance(spec, str):
            gate = fixed[spec]
        else:
            gate = np.array(spec) @ np.array([1.0, 1j])
        k = len(targets)
        tensor = gate.reshape([2] * (2 * k))
        psi = np.tensordot(tensor, psi, axes=(list(range(k, 2 * k)), targets))
        psi = np.moveaxis(psi, list(range(k)), targets)
    return psi.reshape(-1)


def _statevec_job(b: _JobList, qubits: int, layers: int) -> None:
    text = _random_circuit(b, qubits, layers)
    path = b.write_text(f"circuit-{len(b.jobs)}.json", text)
    amp_seed = b.job_seed()
    draw_seed = b.job_seed()
    measured = sorted(b.rng.choice(qubits, size=3, replace=False).tolist())

    def prepare():
        gen = np.random.default_rng(amp_seed)
        amps = gen.random(2**qubits) - 0.5 + 1j * (gen.random(2**qubits) - 0.5)
        return amps / np.linalg.norm(amps)

    def run(amps):
        with open(path, encoding="utf-8") as handle:
            circuit = gates.Circuit.from_json(handle.read())
        rng = RngStream(draw_seed)
        out = gates.run_circuit(circuit, state.StateVector(qubits, amps))
        bits, collapsed = state.measure_subset(out, measured, rng)
        full = state.measure_all(out, rng)
        again = gates.Circuit.from_json(circuit.to_json())
        return circuit, out, bits, collapsed, full, again

    def check(amps, outcome):
        circuit, out, bits, collapsed, full, again = outcome
        norm = float(np.vdot(out.amps, out.amps).real)
        _expect(abs(norm - 1.0) <= EXACT_TOL, f"norm drifted to {norm!r}")
        if qubits <= 16:
            _close(out.amps, _reference_run(json.loads(text), amps), 1e-10, "final state")
        grid = collapsed.amps.reshape([2] * qubits)
        for q, bit in zip(measured, bits):
            _expect(not np.any(np.take(grid, 1 - int(bit), axis=q)), "collapse kept a wrong branch")
        _expect(
            abs(full.probability - abs(out.amps[full.basis_index]) ** 2) <= EXACT_TOL,
            "measure_all probability does not match the state",
        )
        _expect(len(again.steps) == len(circuit.steps), "round trip changed the step count")
        for (g0, t0), (g1, t1) in zip(circuit.steps, again.steps):
            _expect(tuple(t0) == tuple(t1), "round trip changed targets")
            _close(g1.matrix, g0.matrix, 1e-12, "round-trip gate")

    b.jobs.append(Job(f"statevec-{qubits}q", run, check, prepare))


def _statevec(b: _JobList) -> list[Job]:
    sizes = ((8, 3, 4), (10, 2, 2), (12, 1, 1)) if b.small else (
        # (qubits, layers, jobs)
        (16, 5, 26), (20, 2, 4), (22, 1, 2))
    for qubits, layers, count in sizes:
        for _ in range(count):
            _statevec_job(b, qubits, layers)
    return b.interleaved()


_MAKERS = {"amplify": _amplify, "cluster": _cluster, "dense": _dense, "statevec": _statevec}


def build(workload: str, seed: int, workdir: str, small: bool = False) -> list[Job]:
    """Write the workload's inputs under ``workdir`` and return its jobs."""
    return _MAKERS[workload](_JobList(workload, seed, workdir, small))
