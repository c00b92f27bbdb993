"""Command-line front end: one subcommand per algorithm.

Every run emits a report with four top-level keys: ``config`` (argument echo,
seed included), ``results`` (the payload), ``warnings``, and ``timings_ms``.
For a fixed seed and fixed inputs the report is byte-identical across runs
except for ``timings_ms``.  Reports go to stdout as JSON by default; ``--format
csv`` flattens the results into plot-ready rows instead.

``run`` may be called any number of times in one process.  The argument
parser is built on the first call and reused by every later one, because
building it (14 subcommands, about 130 arguments) costs a few milliseconds,
as much as a small job.  In-process callers gain: a benchmark loop, the test
suite, library code that calls ``run`` many times.  A one-shot ``qmlkit``
shell command builds the parser once, as it always did.  Parsing never
changes the parser: each call's values, the ``$QMLKIT_SEED`` fallback
included, live on that call's own namespace.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import checks as checks_mod
from . import clustering, fourier, gates, grover, minimizer, qnn, qpca, qsvm, state, subroutines
from .errors import ConfigError, DomainError
from .rng import RngStream

SEED_ENV_VAR = "QMLKIT_SEED"
# ``qft`` reads and reports every amplitude as text, about 450 bytes each at
# the peak: 152 MiB RSS / 2.3 s at 18 qubits, 264 MiB / 5.9 s at 19.
QFT_REPORT_CAP = 18

BUILTIN_OBJECTIVES = {
    # 3-bit landscape with a unique minimum at 100 and a narrow valley.
    "demo3": [1.0, 2.0, 3.0, 3.0, 0.0, 3.0, 3.0, 3.0],
    # Number of set bits over 4-bit inputs.
    "popcount4": [float(bin(x).count("1")) for x in range(16)],
}


def _read_lines(path: str) -> list[str]:
    """The input file's lines, with their line endings untranslated."""
    if not os.path.exists(path):
        raise DomainError(f"input file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            return list(handle)
    except UnicodeDecodeError:
        raise DomainError(f"{path}: not UTF-8 text") from None


def ingest_csv(path: str, schema: str):
    """Parse and validate an input CSV (no header, comma separated, UTF-8).

    Schemas: ``vectors`` (rows of floats), ``labeled`` (floats with a +-1
    label in the last column), ``labeled-integers`` (``labeled`` whose
    features are integers), ``objective`` (rows of ``bitstring,value``
    covering every n-bit input exactly once).  Malformed rows are rejected
    with their 1-based line number.
    """
    lines = [line.strip() for line in _read_lines(path)]
    rows = [(i + 1, line) for i, line in enumerate(lines) if line]
    if not rows:
        raise DomainError(f"{path}: no data rows")

    if schema == "objective":
        return _ingest_objective(path, rows)

    parsed = []
    width = None
    for lineno, line in rows:
        cells = [c.strip() for c in line.split(",")]
        try:
            values = [float(c) for c in cells]
        except ValueError:
            raise DomainError(f"{path}:{lineno}: non-numeric cell") from None
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"{path}:{lineno}: NaN or infinite value")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise DomainError(
                f"{path}:{lineno}: expected {width} columns, found {len(values)}"
            )
        parsed.append(values)
    matrix = np.array(parsed)

    if schema == "vectors":
        return matrix
    if schema in ("labeled", "labeled-integers"):
        if matrix.shape[1] < 2:
            raise DomainError(f"{path}: labeled data needs features plus a label column")
        features, labels = matrix[:, :-1], matrix[:, -1]
        bad = np.flatnonzero(~np.isin(labels, (-1.0, 1.0)))
        if bad.size:
            raise DomainError(f"{path}:{rows[bad[0]][0]}: label {labels[bad[0]]} is not -1 or 1")
        if schema == "labeled-integers":
            bad = np.flatnonzero(np.any(features != np.floor(features), axis=1))
            if bad.size:
                raise DomainError(
                    f"{path}:{rows[bad[0]][0]}: features {features[bad[0]].tolist()} "
                    "are not integers"
                )
        return features, labels
    raise DomainError(f"unknown ingestion schema {schema!r}")


def _ingest_objective(path: str, rows):
    seen: dict[str, int] = {}
    entries = []
    n_bits = None
    for lineno, line in rows:
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise DomainError(f"{path}:{lineno}: expected 'bitstring,value'")
        bits, raw_value = cells
        if not bits or bits.strip("01"):
            raise DomainError(f"{path}:{lineno}: invalid bitstring {bits!r}")
        if bits in seen:
            raise DomainError(
                f"{path}:{lineno}: duplicate bitstring {bits!r} (first on line {seen[bits]})"
            )
        seen[bits] = lineno
        if n_bits is None:
            n_bits = len(bits)
        elif len(bits) != n_bits:
            raise DomainError(f"{path}:{lineno}: bitstring width differs from {n_bits}")
        try:
            value = float(raw_value)
        except ValueError:
            raise DomainError(f"{path}:{lineno}: non-numeric value") from None
        if not math.isfinite(value):
            raise DomainError(f"{path}:{lineno}: NaN or infinite value")
        entries.append((int(bits, 2), value))
    if len(entries) != 2**n_bits:
        raise DomainError(
            f"{path}: objective covers {len(entries)} of {2**n_bits} inputs"
        )
    table = np.empty(2**n_bits)
    for index, value in entries:
        table[index] = value
    return table


def _read_amplitudes(path: str) -> np.ndarray:
    matrix = ingest_csv(path, "vectors")
    if matrix.shape[1] == 1:
        return matrix[:, 0].astype(complex)
    if matrix.shape[1] == 2:
        return matrix[:, 0] + 1j * matrix[:, 1]
    raise DomainError(f"{path}: amplitude rows must have 1 (re) or 2 (re,im) columns")


def _read_unitary(path: str) -> gates.GateMatrix:
    """Unitary from JSON: either {"matrix": [[[re,im],...]]} (or the bare
    nested rows) or a serialized circuit document with "steps".  A
    malformed document is an error that names the file and the bad field."""
    text = "".join(_read_lines(path))
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DomainError(f"{path}: not valid JSON ({exc})") from None
    try:
        if isinstance(doc, dict) and "steps" in doc:
            matrix = gates.Circuit._from_doc(doc).matrix()
            return gates.GateMatrix._trusted(matrix.shape[0], matrix)
        if isinstance(doc, dict) and "matrix" not in doc:
            raise DomainError("missing key 'matrix' (or 'steps' for a circuit document)")
        matrix = gates.matrix_from_json(doc["matrix"] if isinstance(doc, dict) else doc)
        return gates.GateMatrix(matrix.shape[0], matrix)
    except DomainError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _complex_pairs(amps: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in amps]


# --- subcommand handlers -------------------------------------------------

def _cmd_grover(args, rng, warnings):
    try:
        marked = sorted({int(tok) for tok in args.marked.split(",")})
    except ValueError:
        raise DomainError(f"--marked must be comma-separated integers, got {args.marked!r}") from None
    for index in marked:
        if not 0 <= index < 2**args.bits:
            raise DomainError(f"marked index {index} out of range for {args.bits} bits")
    marked_set = frozenset(marked)
    marked_array = np.array(marked)
    oracle = grover.SignOracle(
        args.bits,
        lambda x: x in marked_set,
        marked_count_hint=len(marked_set),
        predicate_vectorized=lambda xs: np.isin(xs, marked_array),
    )
    result = grover.grover_search(oracle, rng, iterations=args.iterations)
    results = {
        "measured": result.measured_index,
        "iterations": result.iterations_used,
        "success_probability": result.success_probability,
    }
    if args.bits <= 12:
        results["amplitudes"] = _complex_pairs(result.final_state.amps)
    return results


def _cmd_minimize(args, rng, warnings):
    if args.objective.startswith("builtin:"):
        name = args.objective.split(":", 1)[1]
        if name not in BUILTIN_OBJECTIVES:
            raise DomainError(
                f"unknown builtin objective {name!r}; have {sorted(BUILTIN_OBJECTIVES)}"
            )
        table = np.array(BUILTIN_OBJECTIVES[name])
    else:
        table = ingest_csv(args.objective, "objective")
    objective = minimizer.ObjectiveFn.from_table(table)
    if args.bits is not None and args.bits != objective.n_bits:
        raise DomainError(
            f"--bits {args.bits} does not match the {objective.n_bits}-bit objective"
        )
    result = minimizer.minimize(objective, rng, max_main_iterations=args.budget)
    return {
        "argmin_bits": result.argmin_bits,
        "min_value": result.min_value,
        "main_iterations": result.main_iterations,
        "oracle_calls": result.oracle_calls,
        "trace": [[threshold, candidate] for threshold, candidate in result.trace],
    }


def _cmd_qft(args, rng, warnings):
    if state._check_n_qubits(args.qubits) > QFT_REPORT_CAP:
        raise ConfigError(
            f"qft on {args.qubits} qubits needs about {450 * 2**args.qubits / 2**20:,.0f} MiB "
            f"to read and report its amplitudes; the report cap is {QFT_REPORT_CAP} qubits"
        )
    amps = _read_amplitudes(args.amps)
    if len(amps) != 2**args.qubits:
        raise DomainError(f"{len(amps)} amplitudes do not fill {args.qubits} qubits")
    psi = state.normalize(amps) if args.normalize else state.StateVector(args.qubits, amps)
    out = fourier.qft(psi)
    return {
        "amplitudes": _complex_pairs(out.amps),
        "probabilities": [float(p) for p in out.probabilities()],
    }


def _cmd_dft(args, rng, warnings):
    signal = ingest_csv(args.signal, "vectors")
    if signal.shape[1] != 1:
        raise DomainError(f"{args.signal}: signal must be a single column")
    if args.top < 0:
        raise DomainError(f"--top must be >= 0, got {args.top}")
    spectrum = fourier.classical_dft(signal[:, 0])
    magnitudes = np.abs(spectrum)
    order = np.argsort(magnitudes)[::-1][: args.top]
    results = {
        "magnitudes": [float(m) for m in magnitudes],
        "top_bins": sorted(int(b) for b in order),
    }
    if args.zero_bins:
        # Denoising demo: discard the listed bins and invert the transform.
        kept = spectrum.copy()
        for token in args.zero_bins.split(","):
            try:
                bin_index = int(token)
            except ValueError:
                raise DomainError(f"--zero-bins entry {token!r} is not an integer") from None
            if not 0 <= bin_index < len(kept):
                raise DomainError(f"bin {bin_index} out of range for {len(kept)} samples")
            kept[bin_index] = 0.0
        restored = np.fft.fft(kept, norm="ortho")
        results["denoised"] = [float(v) for v in restored.real]
    return results


def _cmd_phase_est(args, rng, warnings):
    unitary = _read_unitary(args.unitary)
    amps = _read_amplitudes(args.eigvec)
    eigvec = state.normalize(amps) if args.normalize else state.StateVector(
        int(math.log2(len(amps))), amps
    )
    estimate = fourier.phase_estimate(unitary, eigvec, args.controls, rng)
    return {
        "n_control": estimate.n_control,
        "measured_register": estimate.measured_register,
        "theta_estimate": estimate.theta_estimate,
        "success_probability": estimate.success_probability,
        "delta": estimate.delta,
    }


def _cmd_swaptest(args, rng, warnings):
    a = state.normalize(_read_amplitudes(args.a))
    b = state.normalize(_read_amplitudes(args.b))
    estimate = subroutines.swap_test(a, b, shots=args.shots, rng=rng)
    return {
        "p0_hat": estimate.p0_hat,
        "overlap_sq_hat": estimate.overlap_sq_hat,
        "exact_p0": estimate.exact_p0,
        "shots": estimate.shots,
    }


def _cmd_dist(args, rng, warnings):
    a = ingest_csv(args.a, "vectors")
    b = ingest_csv(args.b, "vectors")
    if a.shape[0] != 1 or b.shape[0] != 1:
        raise DomainError("dist expects single-row vector files")
    estimate = subroutines.dist_calc(
        a[0], b[0], shots=args.shots, rng=rng, mode=args.mode
    )
    return {
        "z": estimate.z,
        "dist_sq": estimate.dist_sq,
        "inner_prod": estimate.inner_prod,
        "mode": args.mode,
    }


def _cmd_median(args, rng, warnings):
    points = ingest_csv(args.points, "vectors")
    index, point = subroutines.median_calc(
        list(points), shots=args.shots, rng=rng, mode=args.mode
    )
    return {"index": index, "point": [float(v) for v in point]}


def _cmd_cluster(args, rng, warnings):
    data = clustering.Dataset(ingest_csv(args.data, "vectors"))
    cfg = clustering.ClusterConfig(
        k=args.k,
        max_iterations=args.max_iterations,
        eta=args.eta,
        distance_mode=args.mode,
        shots=args.shots,
        use_grover_argmin=args.grover_argmin,
    )
    # Looked up per call, not bound at import, so a wrapper installed on
    # ``clustering.kmeans`` / ``clustering.kmedians`` (bench/tracer.py) is used.
    model = getattr(clustering, args.command)(data, cfg, rng)
    warnings.extend(model.warnings)
    return {
        "k": model.k,
        "centroids": [[float(v) for v in row] for row in model.centroids],
        "assignments": [int(a) for a in model.assignments],
        "iterations": model.iterations,
        "converged": model.converged,
        "trace": model.trace,
    }


def _cmd_qsvm(args, rng, warnings):
    vectors, labels = ingest_csv(args.data, "labeled")
    data = qsvm.LabeledDataset(vectors, labels)
    spec = qsvm.KernelSpec(args.kernel, gamma=args.gamma)
    grid = qsvm.AlphaGrid(
        bits_per_alpha=args.bits, alpha_max=args.alpha_max, penalty_coeff=args.penalty
    )
    solution = qsvm.solve(data, spec, grid, rng)
    correct = sum(
        qsvm.predict(solution, data, spec, x) == y
        for x, y in zip(data.vectors, data.labels)
    )
    return {
        "alphas": [float(a) for a in solution.alphas],
        "theta": None if solution.theta is None else [float(t) for t in solution.theta],
        "b": solution.b,
        "dual_value": solution.dual_value,
        "support_indices": solution.support_indices,
        "training_accuracy": correct / data.m,
    }


def _cmd_qpca(args, rng, warnings):
    matrix = ingest_csv(args.data, "vectors")
    prepared = qpca.preprocess(matrix, standardize=args.standardize)
    model = qpca.build_model(prepared, n_control=args.controls)
    samples = qpca.eigen_sample(model, args.samples, rng)
    score_rng = rng.child() if args.mode == "swaptest" else None
    scores = qpca.extract_scores(
        model, prepared, args.components, mode=args.mode, shots=args.shots, rng=score_rng
    )
    per_component = [0] * len(model.eigenvalues)
    for sample in samples:
        per_component[sample.component_index] += sample.counts
    return {
        "eigenvalues": [float(v) for v in model.eigenvalues],
        "sampled_counts": per_component,
        "samples": [
            {
                "component": s.component_index,
                "lambda": s.lambda_measured,
                "counts": s.counts,
            }
            for s in samples
        ],
        "scores": [[float(v) for v in row] for row in scores.scores],
    }


def _cmd_qnn(args, rng, warnings):
    vectors, labels = ingest_csv(args.data, "labeled-integers")
    enc = qnn.QnnEncoding(k=args.k_bits, m=args.m_bits)
    if vectors.shape[1] != 2:
        raise DomainError("qnn expects exactly two integer features per row")
    dataset = [
        (int(row[0]), int(row[1]), 0 if label < 0 else 1)
        for row, label in zip(vectors, labels)
    ]
    cfg = qnn.QnnTrainConfig(eta=args.eta, epochs=args.epochs, cost_kind=args.cost)
    params, trace = qnn.train(enc, dataset, cfg, rng)
    with open(args.params_out, "w", encoding="utf-8") as handle:
        for alpha in params.alphas:
            handle.write(f"{float(alpha)!r}\n")
    return {
        "final_cost": trace[-1],
        "trace": [float(c) for c in trace],
        "params_file": args.params_out,
    }


def _cmd_paper_check(args, rng, warnings):
    results = checks_mod.run_all()
    return {
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "total": len(results),
        "failures": sum(not r.passed for r in results),
        "passed": all(r.passed for r in results),
    }


_HANDLERS = {
    "grover": _cmd_grover,
    "minimize": _cmd_minimize,
    "qft": _cmd_qft,
    "dft": _cmd_dft,
    "phase-est": _cmd_phase_est,
    "swaptest": _cmd_swaptest,
    "dist": _cmd_dist,
    "median": _cmd_median,
    "kmeans": _cmd_cluster,
    "kmedians": _cmd_cluster,
    "qsvm": _cmd_qsvm,
    "qpca": _cmd_qpca,
    "qnn": _cmd_qnn,
    "paper-check": _cmd_paper_check,
}


def _seed(text: str) -> int:
    """An ``RngStream`` seed: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmlkit",
        description="State-vector quantum algorithm simulator and QML toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=None,
                       help=f"RNG seed (falls back to ${SEED_ENV_VAR}, then 0)")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("grover", help="search marked indices with amplitude amplification")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--marked", required=True, help="comma-separated marked indices")
    p.add_argument("--iterations", type=int, default=None)
    common(p)

    p = sub.add_parser("minimize", help="quantum minimum finding over an objective table")
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--objective", required=True,
                   help="CSV of bitstring,value rows or builtin:<name>")
    p.add_argument("--budget", type=int, default=None, help="main-loop iteration budget")
    common(p)

    p = sub.add_parser("qft", help="apply the quantum Fourier transform to amplitudes")
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--amps", required=True, help="CSV of amplitudes (re or re,im rows)")
    p.add_argument("--normalize", action="store_true",
                   help="rescale the input instead of rejecting unnormalized amplitudes")
    common(p)

    p = sub.add_parser("dft", help="classical transform of a sampled signal")
    p.add_argument("--signal", required=True, help="single-column CSV of samples")
    p.add_argument("--top", type=int, default=4, help="how many top bins to report")
    p.add_argument("--zero-bins", default=None,
                   help="comma-separated bins to discard before inverting (denoise demo)")
    common(p)

    p = sub.add_parser("phase-est", help="estimate the eigenphase of a unitary")
    p.add_argument("--unitary", required=True, help="JSON matrix of [re,im] entries")
    p.add_argument("--eigvec", required=True, help="CSV of eigenvector amplitudes")
    p.add_argument("--controls", type=int, required=True)
    p.add_argument("--normalize", action="store_true")
    common(p)

    p = sub.add_parser("swaptest", help="overlap of two states from control measurements")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--shots", type=int, default=subroutines.DEFAULT_SHOTS)
    common(p)

    p = sub.add_parser("dist", help="Euclidean distance via state encoding")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--shots", type=int, default=subroutines.DEFAULT_SHOTS)
    p.add_argument("--mode", choices=("exact", "shots"), default="exact")
    common(p)

    p = sub.add_parser("median", help="set median by summed distances")
    p.add_argument("--points", required=True)
    p.add_argument("--shots", type=int, default=subroutines.DEFAULT_SHOTS)
    p.add_argument("--mode", choices=("exact", "shots"), default="exact")
    common(p)

    for name, help_text in (
        ("kmeans", "k-means with quantum distance estimation"),
        ("kmedians", "k-medians with quantum median selection"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--mode", choices=("exact", "shots"), default="exact")
        p.add_argument("--shots", type=int, default=subroutines.DEFAULT_SHOTS)
        p.add_argument("--grover-argmin", action="store_true")
        p.add_argument("--eta", type=float, default=1e-4)
        p.add_argument("--max-iterations", type=int, default=100)
        common(p)

    p = sub.add_parser("qsvm", help="SVM dual solved by quantum minimization")
    p.add_argument("--data", required=True, help="CSV of features with a +-1 label last")
    p.add_argument("--kernel", choices=("linear", "gaussian"), default="linear")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--bits", type=int, default=3, help="bits per Lagrange multiplier")
    p.add_argument("--alpha-max", type=float, default=4.0)
    p.add_argument("--penalty", type=float, default=None,
                   help="balance-constraint penalty coefficient")
    common(p)

    p = sub.add_parser("qpca", help="principal components by eigen-sampling")
    p.add_argument("--data", required=True)
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--mode", choices=("exact", "swaptest"), default="exact")
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--controls", type=int, default=qpca.DEFAULT_CONTROLS)
    p.add_argument("--shots", type=int, default=subroutines.DEFAULT_SHOTS)
    common(p)

    p = sub.add_parser("qnn", help="train the unitary feed-forward network")
    p.add_argument("--data", required=True,
                   help="CSV rows: feature1,feature2,label with labels in {-1,1}")
    p.add_argument("--k-bits", type=int, required=True)
    p.add_argument("--m-bits", type=int, required=True)
    p.add_argument("--cost", choices=("overlap", "pauli"), default="overlap")
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--params-out", default="qnn_params.csv")
    common(p)

    p = sub.add_parser("paper-check", help="replay every built-in known-value check")
    common(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that ``run`` reuses, built on first use, not at import.
    It is shared, so nothing may change it; ``build_parser`` gives a fresh
    one to a caller that wants to."""
    return build_parser()


def _csv_flatten(results: dict) -> str:
    """Uniform plot-ready rows: scalars as key,value; arrays indexed per cell."""
    lines = []

    def emit(prefix: str, value):
        if isinstance(value, dict):
            for key in sorted(value):
                emit(f"{prefix}.{key}" if prefix else str(key), value[key])
        elif isinstance(value, (list, tuple)):
            for i, item in enumerate(value):
                emit(f"{prefix},{i}", item)
        else:
            lines.append(f"{prefix},{value}")

    emit("", results)
    return "\n".join(line.lstrip(".") for line in lines) + "\n"


def run(argv) -> tuple[int, dict | None]:
    """Execute one command; returns (exit code, report).

    Every call parses ``argv`` with the same process-wide parser (see the
    module docstring); no state carries over from one call to the next.
    """
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.seed is None:
            try:
                args.seed = _seed(os.environ.get(SEED_ENV_VAR, "0"))
            except argparse.ArgumentTypeError as exc:
                parser.error(f"${SEED_ENV_VAR}: {exc}")
    except SystemExit as exc:
        return (int(exc.code) if exc.code else 0), None

    rng = RngStream(args.seed)
    warnings: list[str] = []
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("output", "verbose") and value is not None
    }
    started = time.perf_counter()
    try:
        results = _HANDLERS[args.command](args, rng, warnings)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    executed = time.perf_counter()
    # Serialization cost is dominated by the results payload; probe it so the
    # per-stage numbers can ride inside the emitted document.
    payload_text = json.dumps(results, sort_keys=True, allow_nan=False)
    serialized = time.perf_counter()

    report = {
        "config": config,
        "results": results,
        "warnings": warnings,
        "timings_ms": {
            "execute": (executed - started) * 1000.0,
            "serialize": (serialized - executed) * 1000.0,
            "total": (serialized - started) * 1000.0,
        },
    }
    if args.format == "csv":
        text = _csv_flatten(results)
    else:
        text = (
            '{"config": %s, "results": %s, "timings_ms": %s, "warnings": %s}\n'
            % (
                json.dumps(config, sort_keys=True, allow_nan=False),
                payload_text,
                json.dumps(report["timings_ms"], sort_keys=True),
                json.dumps(warnings, allow_nan=False),
            )
        )
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1, None
    else:
        sys.stdout.write(text)
    if args.verbose:
        print(f"done in {report['timings_ms']['total']:.1f} ms", file=sys.stderr)
    if args.command == "paper-check" and not results["passed"]:
        return 1, report
    return 0, report


def main(argv=None) -> int:
    code, _ = run(sys.argv[1:] if argv is None else argv)
    return code


if __name__ == "__main__":
    sys.exit(main())
