"""Command-line front end: one subcommand per algorithm.

Every run emits a report with four top-level keys: ``config`` (argument echo,
seed included), ``results`` (the payload), ``warnings``, and ``timings_ms``.
For a fixed seed and fixed inputs the report is byte-identical across runs
except for ``timings_ms``.  Reports go to stdout as JSON by default; ``--format
csv`` flattens the results into plot-ready rows instead, and
``timings_ms.serialize`` times whichever of the two serializers ran.

Each handler returns its library record (``MinimizeResult``,
``PhaseEstimate``, ...), the record's fields plus what it lacks, or a plain
dict.  One converter, ``_to_report``, writes what a handler returns as the
``results`` dict: a record as its fields by name, a complex array as
``[re, im]`` pairs, any other array as a list; lists are written as given.

The published contract is two schemas in ``qmlkit/schemas/``: a report
validates against ``report.json``, the envelope shared by every subcommand,
and its ``results`` validate against ``<config.command>.json``.  An error
about data read from a file starts with that file's path, both paths for
``swaptest``, ``dist`` and ``phase-est`` (``_naming``); a CSV fault also
gives its line, and a flag error names the flag.

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
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import time
from array import array

import numpy as np

from . import checks as checks_mod
from . import clustering, fourier, gates, grover, minimizer, qnn, qpca, qsvm, state, subroutines
from .errors import ConfigError, DomainError
from .rng import RngStream

SEED_ENV_VAR = "QMLKIT_SEED"
# ``qft`` reads and reports every amplitude as text, about 450 bytes each at
# the peak: 153 MiB RSS / 2.4-2.6 s at 18 qubits, 268 MiB / 4.3-4.8 s at 19.
QFT_REPORT_CAP = 18

BUILTIN_OBJECTIVES = {
    # 3-bit landscape with a unique minimum at 100 and a narrow valley.
    "demo3": [1.0, 2.0, 3.0, 3.0, 0.0, 3.0, 3.0, 3.0],
    # Number of set bits over 4-bit inputs.
    "popcount4": [float(bin(x).count("1")) for x in range(16)],
}


# One record of an objective file as numpy reads it.  A bitstring longer
# than the field is cut to MAX_QUBITS + 1 characters, a width no table takes.
_OBJECTIVE_ROW = np.dtype([("bits", f"S{state.MAX_QUBITS + 1}"), ("value", float)])


@contextlib.contextmanager
def _open_text(path: str):
    """The input file as UTF-8 text, line endings untranslated.  A missing
    file, or bytes that are not UTF-8 anywhere in what the caller reads, is a
    DomainError naming the file."""
    if not os.path.exists(path):
        raise DomainError(f"input file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError:
        raise DomainError(f"{path}: not UTF-8 text") from None


@contextlib.contextmanager
def _naming(*paths: str):
    """Put the input ``paths`` in front of any DomainError raised inside.  The
    readers' own faults, which name the file already, are raised outside."""
    try:
        yield
    except DomainError as exc:
        raise type(exc)(f"{', '.join(paths)}: {exc}") from None


def _data_lines(handle):
    """The lines that are not whitespace only.  A NUL is a ValueError: numpy
    drops a bitstring cell's trailing NULs, which make it invalid."""
    for line in handle:
        if "\0" in line:
            raise ValueError("NUL in input")
        if not line.isspace():
            yield line


def _load(path: str, schema: str, strip: bool = False):
    """What ``ingest_csv`` returns, read by numpy's C reader, or None if the
    reader or a schema check refuses the file.  Whitespace-only lines are
    skipped.  The file is read as ASCII; ``strip`` strips every cell and
    reads UTF-8, since it follows a line-by-line pass that found no fault,
    so any non-ASCII character left is whitespace at the end of a line."""
    objective = schema == "objective"
    try:
        with open(path, encoding="utf-8" if strip else "ascii") as handle:
            lines = _data_lines(handle)
            if strip:
                lines = (",".join(map(str.strip, line.split(","))) for line in lines)
            first = next(lines, None)
            if first is None:
                return None
            rows = np.loadtxt(
                itertools.chain([first], lines), delimiter=",", comments=None,
                dtype=_OBJECTIVE_ROW if objective else float, ndmin=1 if objective else 2,
            )
    except (OSError, ValueError):  # UnicodeDecodeError is a ValueError
        return None
    if objective:
        return _objective_table(rows)
    if not np.isfinite(rows).all():
        return None
    if schema == "vectors":
        return rows
    features, labels = rows[:, :-1], rows[:, -1]
    if schema in ("labeled", "labeled-integers") and rows.shape[1] > 1 and (
        np.isin(labels, (-1.0, 1.0)).all()
        and (schema == "labeled" or (features == np.floor(features)).all())
    ):
        return features, labels
    return None


def _objective_table(rows: np.ndarray) -> np.ndarray | None:
    """The table of ``_OBJECTIVE_ROW`` records that cover every n-bit input
    once with finite values, or None."""
    n_bits = len(rows["bits"][0])
    chars = rows.view(np.uint8).reshape(len(rows), -1)
    if not 1 <= n_bits <= state.MAX_QUBITS or len(rows) != 2**n_bits or chars[:, n_bits].any():
        return None
    keys = np.zeros(len(rows), np.int64)
    for column in chars[:, :n_bits].T:
        digit = column - ord("0")  # a NUL or a shorter bitstring wraps past 1
        if (digit > 1).any():
            return None
        keys = keys << 1 | digit
    table, seen = np.empty(2**n_bits), np.zeros(2**n_bits, bool)
    table[keys] = rows["value"]
    seen[keys] = True
    return table if seen.all() and np.isfinite(table).all() else None


def _raise_first_fault(path: str, schema: str) -> None:
    """Raise the file's first fault, with the line and message a line-by-line
    reader gives it, or return if it has none.  The file is read line by line
    to its end and no row is held; an objective keeps each row's input and
    line number (16 bytes a row) for its duplicate check, which comes before
    a row's value checks.  The faults checked file-wide come first: text
    that is not UTF-8, no data row, then a row with an underscore or a
    non-ASCII character (``float`` reads "1_0" as 10, and non-ASCII digits,
    which no cell may hold)."""
    objective, labeled = schema == "objective", schema in ("labeled", "labeled-integers")
    n_rows, width, bad_cell, bad, bad_label, bad_features = 0, None, None, None, None, None
    keys, linenos = [], array("q")

    def check(lineno, row):
        nonlocal width, keys, bad_label, bad_features
        cells = [cell.strip() for cell in row.split(",")]
        if objective:
            if len(cells) != 2:
                return "expected 'bitstring,value'"
            bits = cells.pop(0)
            if not bits or bits.strip("01"):
                return f"invalid bitstring {bits!r}"
            if width is None:  # past 62 bits an input overflows int64
                width, keys = len(bits), array("q") if len(bits) <= 62 else []
            if len(bits) != width:
                return f"bitstring width differs from {width}"
            keys.append(int(bits, 2))
            linenos.append(lineno)
        try:
            values = list(map(float, cells))
        except ValueError:
            return "non-numeric value" if objective else "non-numeric cell"
        if not all(map(math.isfinite, values)):
            return "NaN or infinite value"
        width = width or len(values)
        if len(values) != width and not objective:
            return f"expected {width} columns, found {len(values)}"
        if labeled:
            label, features = np.float64(values[-1]), values[:-1]
            if bad_label is None and label not in (-1.0, 1.0):
                bad_label = f"{lineno}: label {label} is not -1 or 1"
            if bad_features is None and not all(map(float.is_integer, features)):
                bad_features = f"{lineno}: features {features} are not integers"
        return None

    with _open_text(path) as handle:
        for lineno, row in enumerate(map(str.strip, handle), 1):
            if not row:
                continue
            n_rows += 1
            if bad_cell is None and ("_" in row or not row.isascii()):
                bad_cell = lineno
            elif bad_cell is None and bad is None and (message := check(lineno, row)):
                bad = f"{lineno}: {message}"
    if not n_rows:
        raise DomainError(f"{path}: no data rows")
    if bad_cell is not None:
        raise DomainError(f"{path}:{bad_cell}: non-numeric cell")
    if objective:
        keys = np.array(keys, dtype=object if isinstance(keys, list) else np.int64)
        if (repeat := _first_repeat(keys)) is not None:
            first, again = np.asarray(linenos)[list(repeat)]
            bits = format(keys[repeat[1]], f"0{width}b")
            raise DomainError(
                f"{path}:{again}: duplicate bitstring {bits!r} (first on line {first})"
            )
    if bad is not None:
        raise DomainError(f"{path}:{bad}")
    if objective and len(keys) != 2**width:
        raise DomainError(f"{path}: objective covers {len(keys)} of {2**width} inputs")
    if objective and width > state.MAX_QUBITS:
        raise DomainError(f"{path}: objective bit width {width} out of range")
    if labeled and width < 2:
        raise DomainError(f"{path}: labeled data needs features plus a label column")
    if labeled and bad_label is not None:
        raise DomainError(f"{path}:{bad_label}")
    if schema == "labeled-integers" and bad_features is not None:
        raise DomainError(f"{path}:{bad_features}")
    if schema not in ("objective", "vectors", "labeled", "labeled-integers"):
        raise DomainError(f"unknown ingestion schema {schema!r}")


def _first_repeat(keys: np.ndarray) -> tuple[int, int] | None:
    """``(i, j)``: the first position j whose key an earlier position holds,
    and the first position i that holds it; None if the keys are distinct."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    later = order[1:][ordered[1:] == ordered[:-1]]
    if not later.size:
        return None
    j = int(later.min())
    return int(order[np.searchsorted(ordered, keys[j])]), j


def ingest_csv(path: str, schema: str):
    """Parse and validate an input CSV (no header, comma separated, UTF-8).

    Schemas: ``vectors`` (rows of floats), ``labeled`` (floats with a +-1
    label in the last column), ``labeled-integers`` (``labeled`` whose
    features are integers), ``objective`` (rows of ``bitstring,value``
    covering every n-bit input exactly once).  Cells are ASCII, with no
    underscore.  Malformed rows are rejected with their 1-based line number:
    the first bad line, with the message a line-by-line reader gives it.

    One ``np.loadtxt`` call reads the file's non-blank lines as ASCII, and
    its result is returned once every schema check passes.  Memory follows
    the output: the returned arrays, or for an objective 33 bytes per row of
    records beside the table, never the file's text.  A file that numpy or a
    check refuses is read once more, line by line, and its first fault is
    raised; that pass holds no rows.  A file with no fault whose cells are
    padded (`` 0101 ,1.0``, which numpy keeps as a bitstring) or whose lines
    end in non-ASCII whitespace is read by numpy again with each cell
    stripped.
    """
    result = _load(path, schema)
    if result is None:
        _raise_first_fault(path, schema)
        result = _load(path, schema, strip=True)
    return result


def _read_state(path: str, n_qubits: int | None = None, normalize: bool = False):
    """The state in an amplitude CSV of ``re`` or ``re,im`` rows.  With
    ``n_qubits`` the rows must fill that register; ``normalize`` rescales
    instead of rejecting an unnormalized vector, and without ``n_qubits``
    needs a power-of-two row count.  Every error names the file."""
    matrix = ingest_csv(path, "vectors")
    with _naming(path):
        if matrix.shape[1] > 2:
            raise DomainError("amplitude rows must have 1 (re) or 2 (re,im) columns")
        amps = matrix[:, 0]
        if matrix.shape[1] == 2:
            # The bits of re + 1j * im, signed zeros included (its real part
            # is re + (0 with im's sign), its imaginary part im + 0.0),
            # without that expression's two temporaries.
            amps = np.empty(len(matrix), complex)
            amps.real = matrix[:, 1]
            amps.real *= 0.0
            amps.real += matrix[:, 0]
            amps.imag = matrix[:, 1]
            amps.imag += 0.0
        del matrix  # an re,im state no longer needs it while it normalizes
        if n_qubits is not None and len(amps) != 2**n_qubits:
            raise DomainError(f"{len(amps)} amplitudes do not fill a {n_qubits}-qubit register")
        if normalize:
            return state.normalize(amps, n_qubits)
        return state.StateVector(n_qubits, amps)


def _read_unitary(path: str) -> gates.GateMatrix | gates.Circuit:
    """Unitary from JSON: either {"matrix": [[[re,im],...]]} (or the bare
    nested rows) as a gate or a circuit document with "steps" as a circuit.
    A malformed document is an error that names the file and the bad field."""
    with _open_text(path) as handle:
        text = handle.read()
    with _naming(path):
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DomainError(f"not valid JSON ({exc})") from None
        if isinstance(doc, dict) and "steps" in doc:
            return gates.Circuit._from_doc(doc)
        if isinstance(doc, dict) and "matrix" not in doc:
            raise DomainError("missing key 'matrix' (or 'steps' for a circuit document)")
        matrix = gates.matrix_from_json(doc["matrix"] if isinstance(doc, dict) else doc)
        if matrix.shape[0] < 2:
            raise DomainError("a 1x1 matrix acts on no qubit; a gate needs at least 2x2")
        return gates.GateMatrix(matrix.shape[0], matrix)


def _to_report(value):
    """``value`` as the report writes it: a dataclass record as a dict of its
    fields by name, a dict with each value converted, a complex array as
    ``[re, im]`` pairs, any other array as ``tolist()``.  Anything else,
    lists included, is kept as it is: a list is never walked, so a handler
    hands over its lists ready to write."""
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        return {key: _to_report(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            value = np.stack((value.real, value.imag), axis=-1)
        return value.tolist()
    return value


# --- subcommand handlers -------------------------------------------------

def _cmd_grover(args, rng, warnings):
    try:
        marked = sorted({int(tok) for tok in args.marked.split(",")})
    except ValueError:
        raise DomainError(f"--marked must be comma-separated integers, got {args.marked!r}") from None
    for index in marked:  # by bit length: SignOracle refuses widths whose 2**bits is huge
        if index < 0 or index.bit_length() > args.bits:
            raise DomainError(f"marked index {index} out of range for {args.bits} bits")
    marked_set = frozenset(marked)
    oracle = grover.SignOracle(
        args.bits,
        lambda x: x in marked_set,
        marked_count_hint=len(marked_set),
        marked=np.array(marked, dtype=np.intp),
    )
    result = grover.grover_search(oracle, rng, iterations=args.iterations)
    results = {
        "measured": result.measured_index,
        "iterations": result.iterations_used,
        "success_probability": result.success_probability,
    }
    if args.bits <= 12:
        results["amplitudes"] = result.final_state.amps
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
    return vars(result) | {
        "trace": [[threshold, candidate] for threshold, candidate in result.trace]
    }


def _cmd_qft(args, rng, warnings):
    if state._check_n_qubits(args.qubits) > QFT_REPORT_CAP:
        raise ConfigError(
            f"qft on {args.qubits} qubits needs about {450 * 2**args.qubits / 2**20:,.0f} MiB "
            f"to read and report its amplitudes; the report cap is {QFT_REPORT_CAP} qubits"
        )
    out = fourier.qft(_read_state(args.amps, args.qubits, args.normalize))
    return {"amplitudes": out.amps, "probabilities": out.probabilities()}


def _cmd_dft(args, rng, warnings):
    signal = ingest_csv(args.signal, "vectors")
    if args.top < 0:
        raise DomainError(f"--top must be >= 0, got {args.top}")
    try:
        zero_bins = [int(token) for token in args.zero_bins.split(",")] if args.zero_bins else []
    except ValueError:
        raise DomainError(f"--zero-bins must list integers, got {args.zero_bins!r}") from None
    with _naming(args.signal):
        if signal.shape[1] != 1:
            raise DomainError("signal must be a single column")
        spectrum = fourier.classical_dft(signal[:, 0])
        magnitudes = np.abs(spectrum)
        order = np.argsort(magnitudes)[::-1][: args.top]
        results = {"magnitudes": magnitudes, "top_bins": sorted(int(b) for b in order)}
        if args.zero_bins:
            # Denoising demo: discard the listed bins and invert the transform.
            kept = spectrum.copy()
            for bin_index in zero_bins:
                if not 0 <= bin_index < len(kept):
                    raise DomainError(f"bin {bin_index} out of range for {len(kept)} samples")
                kept[bin_index] = 0.0
            results["denoised"] = np.fft.fft(kept, norm="ortho").real
    return results


def _cmd_phase_est(args, rng, warnings):
    unitary = _read_unitary(args.unitary)
    # The register cap comes before reading the 2^n-row eigenvector file.
    state._check_n_qubits(unitary.n_qubits + max(args.controls, 0))
    eigvec = _read_state(args.eigvec, unitary.n_qubits, args.normalize)
    with _naming(args.unitary, args.eigvec):
        return fourier.phase_estimate(unitary, eigvec, args.controls, rng)


def _cmd_swaptest(args, rng, warnings):
    a = _read_state(args.a, normalize=True)
    b = _read_state(args.b, normalize=True)
    with _naming(args.a, args.b):
        return subroutines.swap_test(a, b, shots=args.shots, rng=rng)


def _cmd_dist(args, rng, warnings):
    a = ingest_csv(args.a, "vectors")
    b = ingest_csv(args.b, "vectors")
    for path, rows in ((args.a, a), (args.b, b)):
        with _naming(path):
            if rows.shape[0] != 1:
                raise DomainError(f"dist expects one vector row, found {rows.shape[0]}")
    with _naming(args.a, args.b):
        estimate = subroutines.dist_calc(a[0], b[0], shots=args.shots, rng=rng, mode=args.mode)
    return vars(estimate) | {"mode": args.mode}


def _cmd_median(args, rng, warnings):
    points = ingest_csv(args.points, "vectors")
    with _naming(args.points):
        index, point = subroutines.median_calc(
            list(points), shots=args.shots, rng=rng, mode=args.mode
        )
    return {"index": index, "point": point}


def _cmd_cluster(args, rng, warnings):
    matrix = ingest_csv(args.data, "vectors")
    cfg = clustering.ClusterConfig(
        k=args.k, max_iterations=args.max_iterations, distance_mode=args.mode, shots=args.shots,
        use_grover_argmin=args.grover_argmin,
        **({"eta": args.eta} if args.command == "kmeans" else {}),  # kmedians has no --eta
    )
    with _naming(args.data):
        data = clustering.Dataset(matrix)
        # Looked up per call, not bound at import, so a wrapper installed on
        # ``clustering.kmeans`` / ``clustering.kmedians`` (bench/tracer.py) is used.
        results = dict(vars(getattr(clustering, args.command)(data, cfg, rng)))
    warnings.extend(results.pop("warnings"))
    return results


def _cmd_qsvm(args, rng, warnings):
    vectors, labels = ingest_csv(args.data, "labeled")
    spec = qsvm.KernelSpec(args.kernel, gamma=args.gamma)
    grid = qsvm.AlphaGrid(
        bits_per_alpha=args.bits, alpha_max=args.alpha_max, penalty_coeff=args.penalty
    )
    with _naming(args.data):
        data = qsvm.LabeledDataset(vectors, labels)
        solution = qsvm.solve(data, spec, grid, rng)
        correct = sum(
            qsvm.predict(solution, data, spec, x) == y
            for x, y in zip(data.vectors, data.labels.tolist())
        )
    return vars(solution) | {"training_accuracy": correct / data.m}


def _cmd_qpca(args, rng, warnings):
    matrix = ingest_csv(args.data, "vectors")
    with _naming(args.data):
        prepared = qpca.preprocess(matrix, standardize=args.standardize)
        del matrix  # the padded rows are the only copy of the data from here on
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
        "eigenvalues": model.eigenvalues,
        "sampled_counts": per_component,
        "samples": [
            {
                "component": s.component_index,
                "lambda": s.lambda_measured,
                "counts": s.counts,
            }
            for s in samples
        ],
        "scores": scores.scores,
    }


def _cmd_qnn(args, rng, warnings):
    vectors, labels = ingest_csv(args.data, "labeled-integers")
    enc = qnn.QnnEncoding(k=args.k_bits, m=args.m_bits)
    cfg = qnn.QnnTrainConfig(eta=args.eta, epochs=args.epochs, cost_kind=args.cost)
    with _naming(args.data):
        if vectors.shape[1] != 2:
            raise DomainError(
                f"qnn expects exactly two integer features per row, found {vectors.shape[1]}"
            )
        dataset = [
            (int(row[0]), int(row[1]), 0 if label < 0 else 1)
            for row, label in zip(vectors, labels)
        ]
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
        "checks": [vars(r) for r in results],
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
        if name == "kmeans":  # k-medians stops when no centroid changes
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
        results = _to_report(_HANDLERS[args.command](args, rng, warnings))
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    executed = time.perf_counter()
    # Serialization cost is dominated by the results payload; time the
    # serializer that runs so the per-stage numbers can ride in the report.
    if args.format == "csv":
        payload_text = _csv_flatten(results)
    else:
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
    text = payload_text
    if args.format == "json":
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
