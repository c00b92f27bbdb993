"""Feed-forward network built from one trainable unitary.

Features and the label ride in one register: two k-bit feature groups and an
m-bit label group initialized to zero.  The network is U = exp(iH) where H
is a real-weighted sum over all tensor words of Pauli matrices; the weights
are the only trainable parameters.  H is built by contracting the weight
tensor with the single-qubit Pauli matrices one qubit at a time, the same
way for every register size.  The label prediction is the reduced density of
the label qubits after applying U (one ``partial_trace``), scored either by
fidelity against the target basis state or by matching the Pauli
expectations of each label qubit, read from its own one-qubit reduction, and
trained by finite-difference gradient descent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityMatrix, partial_trace, pure_density
from .errors import DomainError
from .rng import RngStream
from .state import StateVector, basis_state

QUBIT_CAP = 6                 # 4^6 parameters is the trainability ceiling

_PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class QnnEncoding:
    """Register layout: k bits per feature (two features) plus m label bits."""

    k: int
    m: int

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise DomainError("feature and label widths must be >= 1")
        if self.n_total > QUBIT_CAP:
            raise DomainError(
                f"{self.n_total} qubits exceed the {QUBIT_CAP}-qubit trainability cap"
            )

    @property
    def n_total(self) -> int:
        return 2 * self.k + self.m

    @property
    def label_qubits(self) -> list[int]:
        return list(range(2 * self.k, self.n_total))


@dataclass(frozen=True)
class QnnParameters:
    """One real coefficient per Pauli word (k_1, ..., k_n) in {0,1,2,3}^n,
    indexed by the base-4 integer with k_1 as the most significant digit."""

    alphas: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alphas, dtype=float)
        if not np.all(np.isfinite(a)):
            raise DomainError("parameters must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "alphas", a)


@dataclass
class QnnTrainConfig:
    eta: float = 0.1
    epochs: int = 500
    fd_step: float = 1e-4
    cost_kind: str = "overlap"       # overlap | pauli
    f_weights: np.ndarray | None = None

    def __post_init__(self):
        if self.eta <= 0 or self.fd_step <= 0:
            raise DomainError("eta and fd_step must be > 0")
        if self.epochs < 0:
            raise DomainError(f"epoch count must be >= 0, got {self.epochs}")
        if self.cost_kind not in ("overlap", "pauli"):
            raise DomainError(f"unknown cost kind {self.cost_kind!r}")
        if self.f_weights is not None and np.any(np.asarray(self.f_weights) < 0):
            raise DomainError("pauli cost weights must be nonnegative")


def _pauli_sum(alphas: np.ndarray, n: int) -> np.ndarray:
    """sum_w alpha_w P_w on n qubits, contracting one base-4 digit per qubit.

    Digits are consumed from the least significant (last qubit) up, so each
    step puts the new qubit's row and column bits above the ones built so far.
    """
    acc = alphas.reshape(4**n, 1, 1)
    for _ in range(n):
        words, rows, cols = acc.shape
        acc = np.einsum("wkab,kce->wcaeb", acc.reshape(words // 4, 4, rows, cols), _PAULI)
        acc = acc.reshape(words // 4, 2 * rows, 2 * cols)
    return acc[0]


def pauli_word(word_index: int, n: int) -> np.ndarray:
    """The tensor product selected by the base-4 digits of ``word_index``."""
    if not 0 <= word_index < 4**n:
        raise DomainError(f"word index {word_index} out of range for {n} qubits")
    one_hot = np.zeros(4**n)
    one_hot[word_index] = 1.0
    return _pauli_sum(one_hot, n)


def unitary_from_pauli_coefficients(alphas: np.ndarray, n: int) -> np.ndarray:
    """U = exp(i sum_w alpha_w P_w) on n qubits, by eigendecomposition of the
    Hermitian generator."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.shape != (4**n,):
        raise DomainError(f"expected {4**n} coefficients for {n} qubits, got {alphas.shape}")
    values, vectors = np.linalg.eigh(_pauli_sum(alphas, n))
    return (vectors * np.exp(1j * values)) @ vectors.conj().T


def build_unitary(params: QnnParameters, enc: QnnEncoding) -> np.ndarray:
    return unitary_from_pauli_coefficients(params.alphas, enc.n_total)


def encode_example(x1: int, x2: int, enc: QnnEncoding):
    """Basis state |bits(x1), bits(x2), 0...0> of the full register."""
    if not 0 <= x1 < 2**enc.k or not 0 <= x2 < 2**enc.k:
        raise DomainError(f"features ({x1}, {x2}) overflow {enc.k} bits")
    index = (x1 << (enc.k + enc.m)) | (x2 << enc.m)
    return basis_state(enc.n_total, index)


def forward(params: QnnParameters, enc: QnnEncoding, x1: int, x2: int) -> DensityMatrix:
    """Reduced label density after the network unitary."""
    return _forward_from_unitary(build_unitary(params, enc), enc, x1, x2)


def _forward_from_unitary(
    unitary: np.ndarray, enc: QnnEncoding, x1: int, x2: int
) -> DensityMatrix:
    state = encode_example(x1, x2, enc)
    out = StateVector(enc.n_total, unitary @ state.amps)
    return partial_trace(pure_density(out), enc.label_qubits)


def _label_expectations(rho_y: DensityMatrix, m: int) -> np.ndarray:
    """<sigma_i> per label qubit: rows are qubits, columns the 3 Pauli axes."""
    out = np.empty((m, 3))
    for q in range(m):
        single = partial_trace(rho_y, [q]).matrix
        out[q] = np.einsum("ab,iba->i", single, _PAULI[1:]).real
    return out


def _target_expectations(label: int, m: int) -> np.ndarray:
    out = np.zeros((m, 3))
    for q in range(m):
        bit = (label >> (m - 1 - q)) & 1
        out[q, 2] = 1.0 - 2.0 * bit       # <sigma_3> on a basis qubit
    return out


def cost(
    params: QnnParameters, enc: QnnEncoding, dataset, cfg: QnnTrainConfig
) -> float:
    """Training cost over (x1, x2, y) triples.

    The overlap kind is the negative summed fidelity <y|rho_y|y> of the
    reduced label state against the target basis state, so a perfect
    classifier scores -M.  The pauli kind sums weighted squared differences
    of per-label-qubit Pauli expectations between model and target.
    """
    unitary = build_unitary(params, enc)
    return _cost_from_unitary(unitary, enc, dataset, cfg)


def _cost_from_unitary(unitary, enc: QnnEncoding, dataset, cfg: QnnTrainConfig) -> float:
    total = 0.0
    for j, (x1, x2, y) in enumerate(dataset):
        if not 0 <= y < 2**enc.m:
            raise DomainError(f"label {y} overflows {enc.m} bits")
        rho_y = _forward_from_unitary(unitary, enc, x1, x2)
        if cfg.cost_kind == "overlap":
            total -= float(rho_y.matrix[y, y].real)
        else:
            model = _label_expectations(rho_y, enc.m)
            target = _target_expectations(y, enc.m)
            weights = np.ones(3) if cfg.f_weights is None else np.asarray(cfg.f_weights)[j]
            total += float(np.sum(weights * (model - target) ** 2))
    return total


def finite_difference_gradient(
    params: QnnParameters,
    enc: QnnEncoding,
    dataset,
    cfg: QnnTrainConfig,
    stencil: int = 2,
) -> np.ndarray:
    """Gradient of the cost by central differences.

    ``stencil`` 2 is the workhorse two-point rule; 5 is the richer
    five-point rule used to cross-check it.
    """
    if stencil not in (2, 5):
        raise DomainError("stencil must be 2 or 5")
    h = cfg.fd_step
    alphas = params.alphas
    grad = np.empty_like(alphas)

    def at(shift: np.ndarray) -> float:
        return cost(QnnParameters(alphas + shift), enc, dataset, cfg)

    for w in range(alphas.size):
        e = np.zeros_like(alphas)
        e[w] = 1.0
        if stencil == 2:
            grad[w] = (at(h * e) - at(-h * e)) / (2 * h)
        else:
            grad[w] = (
                -at(2 * h * e) + 8 * at(h * e) - 8 * at(-h * e) + at(-2 * h * e)
            ) / (12 * h)
    return grad


def train(
    enc: QnnEncoding,
    dataset,
    cfg: QnnTrainConfig,
    rng: RngStream,
    initial: QnnParameters | None = None,
) -> tuple[QnnParameters, list[float]]:
    """Full-batch gradient descent from a near-identity start (or ``initial``).

    Returns the trained parameters and the per-epoch cost trace (initial
    cost first).  If the cost rises for 25 consecutive epochs the learning
    rate is halved once; a second streak stops training early.
    """
    if not dataset:
        raise DomainError("empty training set")
    n = enc.n_total
    if initial is None:
        alphas = rng.gen.uniform(-0.01, 0.01, 4**n)
        alphas[0] = 0.0           # identity word only shifts the global phase
        params = QnnParameters(alphas)
    else:
        params = initial
    eta = cfg.eta
    trace = [cost(params, enc, dataset, cfg)]
    rising = 0
    halved = False
    for epoch in range(cfg.epochs):
        grad = finite_difference_gradient(params, enc, dataset, cfg)
        params = QnnParameters(params.alphas - eta * grad)
        value = cost(params, enc, dataset, cfg)
        if not np.isfinite(value):
            raise DomainError(f"training diverged to a non-finite cost at epoch {epoch}")
        trace.append(value)
        if value > trace[-2]:
            rising += 1
            if rising >= 25:
                if halved:
                    break
                eta /= 2
                halved = True
                rising = 0
        else:
            rising = 0
    return params, trace
