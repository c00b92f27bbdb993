"""Discrete Fourier transform, its quantum gate and circuit, and phase
estimation.

Conventions: the transform uses the +i exponent and symmetric 1/sqrt(N)
normalization, ``y_k = (1/sqrt(N)) sum_j x_j exp(2 pi i k j / N)``, which is
``np.fft.ifft(x, norm="ortho")``; its inverse is ``np.fft.fft`` with the same
norm.  Sample vectors and whole registers (up to ``MAX_QUBITS``) are
transformed by ``np.fft`` in O(N log N) with no matrix.  Phase estimation
runs U (a gate or a circuit) on its eigenvector to read its eigenangle, at
present twice per estimate (``control_distribution`` reads it, then
``phase_estimate`` reads it again for theta); the control register is then
one FFT in closed form, shared with QPCA.  The dense gate
(``dagger()`` is its inverse; at most ``DENSE_MATRIX_CAP`` qubits) and the
circuit decomposition remain for circuits and known-value checks; the
circuit (qubit-reversal SWAPs, then the Hadamard / controlled-phase ladder
from the least significant qubit up) equals the gate matrix exactly.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gates import Circuit, GateMatrix, controlled, run_circuit, standard_gate
from .rng import RngStream
from .state import StateVector, _check_dense_cap, _check_n_qubits

def classical_dft(x) -> np.ndarray:
    """The transform of a plain sample vector of any length, by FFT in
    O(N log N); the tests keep the O(N^2) direct sum as the reference."""
    samples = np.asarray(x, dtype=complex)
    if samples.size == 0:
        raise DomainError("empty sample vector")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
        out = np.fft.ifft(samples, norm="ortho")
    if not np.isfinite(out).all():
        raise DomainError(
            "the transform overflows the float range" if np.isfinite(samples).all()
            else "cannot transform NaN or infinite samples"
        )
    return out


def qft(psi: StateVector) -> StateVector:
    """``qft_gate(n)`` applied to every qubit of ``psi``, computed by FFT
    with no matrix, so it takes any register up to ``MAX_QUBITS``."""
    return StateVector(psi.n_qubits, classical_dft(psi.amps))


def qft_gate(n_qubits: int) -> GateMatrix:
    """The transform as a dense unitary: F_jk = omega^(jk) / sqrt(N) with
    omega = e^(2 pi i / N) and N = 2^n_qubits.

    Entries are read from a table of the N roots at index (j k) mod N, so
    each is one correctly rounded root instead of a power whose error grows
    with j k.  Refused above ``DENSE_MATRIX_CAP`` qubits up front.
    """
    _check_dense_cap(n_qubits, "transform matrix")
    dim = 2 ** _check_n_qubits(n_qubits)
    j = np.arange(dim)
    roots = np.exp(2j * np.pi * j / dim) / np.sqrt(dim)
    matrix = roots[np.outer(j, j) & (dim - 1)]
    return GateMatrix._trusted(dim, matrix, name=f"QFT{n_qubits}")


def qft_circuit(n_qubits: int) -> Circuit:
    """Decomposition into SWAPs, Hadamards, and controlled phase shifts.

    Qubit order is reversed up front; the ladder then processes qubits from
    least to most significant, each preceded by the controlled phase shifts
    pi/2^(k-j) that link it to every less significant qubit.
    """
    steps: list[tuple[GateMatrix, tuple[int, ...]]] = []
    swap = standard_gate("SWAP")
    for i in range(n_qubits // 2):
        steps.append((swap, (i, n_qubits - 1 - i)))
    for j in range(n_qubits - 1, -1, -1):
        for k in range(n_qubits - 1, j, -1):
            phase_gate = controlled(standard_gate("R", phase=math.pi / 2 ** (k - j)))
            steps.append((phase_gate, (k, j)))
        steps.append((standard_gate("H"), (j,)))
    return Circuit(n_qubits, steps)


@dataclass(frozen=True)
class PhaseEstimate:
    n_control: int
    measured_register: int
    theta_estimate: float
    success_probability: float
    delta: float


def register_distribution(phase: float, n_control: int) -> np.ndarray:
    """Measurement distribution of an ``n_control``-qubit phase-estimation
    register run on an eigenvector whose eigenvalue is e^(i phase).

    The controlled powers leave the register in sum_a e^(i a phase) |a> /
    sqrt(N), N = 2^n_control, so the inverse transform is one length-N FFT
    (Cleve, Ekert, Macchiavello & Mosca, arXiv:quant-ph/9708016).
    """
    dim = 2**n_control
    amps = np.exp(1j * phase * np.arange(dim)) / math.sqrt(dim)
    return np.abs(np.fft.fft(amps, norm="ortho")) ** 2


def _eigenangle(u: GateMatrix | Circuit, eigenvector: StateVector) -> float:
    """arg <v|U|v> from one run of ``u`` on ``eigenvector``; rejects non-eigenvectors."""
    if isinstance(u, GateMatrix):
        if u.dim != eigenvector.dim:
            raise DomainError(
                f"gate of dim {u.dim} cannot act on a {eigenvector.n_qubits}-qubit eigenvector"
            )
        u = Circuit(u.n_qubits, [(u, tuple(range(u.n_qubits)))])
    v = eigenvector.amps
    image = run_circuit(u, eigenvector).amps
    lam = complex(np.vdot(v, image))
    residual = float(np.linalg.norm(image - lam * v))
    if residual > 1e-6:
        raise DomainError(
            f"state is not an eigenvector of the unitary (residual {residual:.2e})"
        )
    return cmath.phase(lam)


def control_distribution(
    u: GateMatrix | Circuit, eigenvector: StateVector, n_control: int
) -> np.ndarray:
    """Phase estimation's control register distribution for ``u`` (a gate
    or a circuit) on ``eigenvector``: ``register_distribution`` at arg <v|U|v>,
    with the joint register held to ``MAX_QUBITS``.  The tests keep the
    controlled-gate circuit as the reference."""
    if n_control < 1:
        raise DomainError("need at least one control qubit")
    _check_n_qubits(n_control + eigenvector.n_qubits)
    return register_distribution(_eigenangle(u, eigenvector), n_control)


def phase_estimate(
    u: GateMatrix | Circuit, eigenvector: StateVector, n_control: int, rng: RngStream
) -> PhaseEstimate:
    """Estimate the eigenphase of ``u`` on ``eigenvector`` with ``n_control``
    bits of precision.

    The measured register ``a`` gives the estimate a/2^n.  The reported
    success probability is the analytic weight of the register value nearest
    to the true phase; ``delta`` is the rounding error theta - a*/2^n of
    that nearest value.
    """
    probs = control_distribution(u, eigenvector, n_control)
    theta = (_eigenangle(u, eigenvector) / (2 * math.pi)) % 1.0
    dim = 2**n_control
    measured = rng.choice(probs / probs.sum())
    nearest = int(round(theta * dim)) % dim
    delta = theta - nearest / dim
    if delta > 0.5 / dim:
        delta -= 1.0
    return PhaseEstimate(
        n_control=n_control,
        measured_register=measured,
        theta_estimate=measured / dim,
        success_probability=float(probs[nearest]),
        delta=delta,
    )


def rounding_success_probability(delta: float, n_control: int) -> float:
    """Closed-form probability of measuring the nearest register value when
    the true phase misses it by ``delta``; equals 1 in the delta -> 0 limit.
    """
    dim = 2**n_control
    if abs(dim * delta) > 0.5 + 1e-12:
        raise DomainError(f"|2^n * delta| = {abs(dim * delta)} exceeds 1/2")
    if delta == 0.0:
        return 1.0
    numerator = abs(1 - cmath.exp(2j * math.pi * dim * delta)) ** 2
    denominator = abs(1 - cmath.exp(2j * math.pi * delta)) ** 2
    return numerator / denominator / dim**2
