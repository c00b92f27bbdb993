"""Outside tracer: span and count recording around qmlkit's public calls.

The tracer patches the program from outside; it changes no file under
``src/``.  Each wrapped function gets a span (name, start, end, parent span,
job id) per call.  Spans stay in memory until the run ends.  A function is
rebound in every qmlkit module that holds it, so ``from .gates import apply``
in ``subroutines`` is traced as well as ``gates.apply``.  Constructors are
traced through their dataclass ``__post_init__``, methods through their class
attribute.  A wrapped name that no longer exists is reported as missing.

Counts the tables in README.md list (amplitudes touched, Grover rounds,
minimizer iterations, RNG draws, ...) are taken from arguments and results at
the same boundaries.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) pairs: a function, a class (traced through
# ``__post_init__``) or ``Class.method``.
TRACED = (
    ("cli", "run"),
    ("cli", "ingest_csv"),
    ("state", "StateVector"),
    ("state", "measure_subset"),
    ("state", "measure_all"),
    ("gates", "apply"),
    ("gates", "GateMatrix"),
    ("gates", "run_circuit"),
    ("gates", "Circuit.matrix"),
    ("grover", "grover_search"),
    ("grover", "SignOracle.signs"),
    ("minimizer", "minimize"),
    ("minimizer", "argmin_via_search"),
    ("qsvm", "solve"),
    ("subroutines", "dist_calc"),
    ("subroutines", "swap_test"),
    ("subroutines", "median_calc"),
    ("clustering", "kmeans"),
    ("clustering", "kmedians"),
    ("fourier", "qft_gate"),
    ("fourier", "classical_dft"),
    ("fourier", "control_distribution"),
    ("fourier", "phase_estimate"),
    ("density", "partial_trace"),
    ("density", "DensityMatrix"),
    ("qpca", "build_model"),
    ("qpca", "eigen_sample"),
    ("qpca", "extract_scores"),
    ("qnn", "cost"),
    ("qnn", "finite_difference_gradient"),
    ("qnn", "unitary_from_pauli_coefficients"),
)

# RngStream methods whose calls are counted (no span) as ``rng.draws``.
RNG_DRAWS = ("choice", "uniform", "randint")

COUNTERS = (
    "state.StateVector.amps",
    "gates.apply.amps",
    "grover.rounds",
    "grover.success_probability_sum",
    "minimizer.main_iterations",
    "minimizer.oracle_calls",
    "minimizer.accepted",
    "minimizer.searches",
    "minimizer.hits",
    "qsvm.grid_points",
    "clustering.lloyd_iterations",
    "cli.serialize_ms",
    "rng.draws",
)


def _arg(args, kwargs, position, name):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _accepted_steps(result) -> int:
    """Improvements the Duerr-Hoyer loop accepted, read off its trace of
    (threshold before the step, candidate) pairs."""
    thresholds = [threshold for threshold, _ in result.trace]
    accepted = sum(b < a for a, b in zip(thresholds, thresholds[1:]))
    if thresholds and result.min_value < thresholds[-1]:
        accepted += 1
    return accepted


class Tracer:
    """Holds the spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.job_id = -1
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if (name == package.__name__ or name.startswith(package.__name__ + "."))
            and m is not None
        ]
        for module_name, attr in TRACED:
            home = sys.modules.get(f"{package.__name__}.{module_name}")
            label = f"{module_name}.{attr}"
            owner_name, _, method = attr.partition(".")
            target = getattr(home, owner_name, None) if home else None
            if target is None:
                self.missing.append(label)
                continue
            hook = _HOOKS.get(label)
            if method:
                original = target.__dict__.get(method)
                if original is None:
                    self.missing.append(label)
                    continue
                setattr(target, method, self._wrap(label, original, hook))
            elif isinstance(target, type):
                original = target.__dict__.get("__post_init__")
                if original is None:
                    self.missing.append(label)
                    continue
                setattr(target, "__post_init__", self._wrap(label, original, hook))
            else:
                wrapper = self._wrap(label, target, hook)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is target:
                            setattr(module, name, wrapper)
        rng_class = getattr(package, "RngStream", None)
        for method in RNG_DRAWS:
            original = rng_class.__dict__.get(method) if rng_class else None
            if original is None:
                self.missing.append(f"rng.RngStream.{method}")
                continue
            setattr(rng_class, method, self._count_draws(original))

    def _wrap(self, label, original, hook):
        name_id = len(self.names)
        self.names.append(label)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.job_id)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def _count_draws(self, original):
        counters = self.counters

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counters["rng.draws"] += 1
            return original(*args, **kwargs)

        return counted

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """``<label>.calls`` and ``<label>.self_ms`` for every traced name,
        plus the derived counts and ratios."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            calls[name_id] += 1
            self_ns[name_id] += end - start - child_ns[index]
        metrics: dict[str, float] = {}
        for name_id, label in enumerate(self.names):
            metrics[f"{label}.calls"] = calls[name_id]
            metrics[f"{label}.self_ms"] = self_ns[name_id] / 1e6
        c = self.counters
        metrics.update(
            {
                "state.StateVector.amps": c["state.StateVector.amps"],
                "gates.apply.amps": c["gates.apply.amps"],
                "grover.rounds": c["grover.rounds"],
                "grover.success_probability_mean": _ratio(
                    c["grover.success_probability_sum"],
                    metrics.get("grover.grover_search.calls", 0),
                ),
                "minimizer.main_iterations": c["minimizer.main_iterations"],
                "minimizer.oracle_calls": c["minimizer.oracle_calls"],
                "minimizer.improve_ratio": _ratio(
                    c["minimizer.accepted"], c["minimizer.main_iterations"]
                ),
                "minimizer.hit_ratio": _ratio(c["minimizer.hits"], c["minimizer.searches"]),
                "qsvm.grid_points": c["qsvm.grid_points"],
                "clustering.lloyd_iterations": c["clustering.lloyd_iterations"],
                "cli.serialize_ms": c["cli.serialize_ms"],
                "rng.draws": c["rng.draws"],
            }
        )
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "job"],
                    "names": self.names,
                    "missing": self.missing,
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


# -- count hooks: (counters, args, kwargs, result) ---------------------------

def _state_vector(c, args, kwargs, result):
    c["state.StateVector.amps"] += 2 ** args[0].n_qubits


def _apply(c, args, kwargs, result):
    c["gates.apply.amps"] += result.dim


def _grover_search(c, args, kwargs, result):
    c["grover.rounds"] += result.iterations_used
    c["grover.success_probability_sum"] += result.success_probability


def _minimize(c, args, kwargs, result):
    c["minimizer.main_iterations"] += result.main_iterations
    c["minimizer.oracle_calls"] += result.oracle_calls
    c["minimizer.accepted"] += _accepted_steps(result)
    table = getattr(_arg(args, kwargs, 0, "f"), "table", None)
    if table is not None:
        c["minimizer.searches"] += 1
        c["minimizer.hits"] += int(result.min_value == float(table.min()))


def _solve(c, args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    grid = _arg(args, kwargs, 2, "grid")
    c["qsvm.grid_points"] += 2 ** (data.m * grid.bits_per_alpha)


def _lloyd(c, args, kwargs, result):
    c["clustering.lloyd_iterations"] += result.iterations


def _cli_run(c, args, kwargs, result):
    report = result[1]
    if report is not None:
        c["cli.serialize_ms"] += report["timings_ms"]["serialize"]


_HOOKS = {
    "state.StateVector": _state_vector,
    "gates.apply": _apply,
    "grover.grover_search": _grover_search,
    "minimizer.minimize": _minimize,
    "qsvm.solve": _solve,
    "clustering.kmeans": _lloyd,
    "clustering.kmedians": _lloyd,
    "cli.run": _cli_run,
}
