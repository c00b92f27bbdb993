"""Feed-forward network built from one trainable unitary.

Features and the label ride in one register: two k-bit feature groups and an
m-bit label group initialized to zero.  The network is U = exp(iH) where H
is a real-weighted sum over all tensor words of Pauli matrices, built by
contracting the weights (the only trainable parameters) with the Pauli
matrices one qubit at a time.  A basis input |x> goes to column x of U, so
the label prediction, the reduced density of the label qubits, is one einsum
over the feature axis of U's input columns, for all examples at once (the
tests keep the per-example state, density and partial trace as the
reference).  It is scored by fidelity against the target basis state or by
each label qubit's Pauli expectations, and trained by finite differences.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityMatrix
from .errors import DomainError
from .rng import RngStream
from .state import basis_state

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
        if not 0 < self.eta < np.inf:
            raise DomainError(f"eta must be finite and > 0, got {self.eta}")
        if not 0 < self.fd_step < np.inf:
            raise DomainError(f"fd_step must be finite and > 0, got {self.fd_step}")
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


def _input_index(x1, x2, enc: QnnEncoding) -> np.ndarray:
    """Register indices of |bits(x1), bits(x2), 0...0>, elementwise."""
    x1, x2 = np.atleast_1d(x1), np.atleast_1d(x2)
    over = np.flatnonzero((x1 >> enc.k != 0) | (x2 >> enc.k != 0))   # outside [0, 2^k)
    if over.size:
        raise DomainError(f"features ({x1[over[0]]}, {x2[over[0]]}) overflow {enc.k} bits")
    return (x1 << (enc.k + enc.m)) | (x2 << enc.m)


def encode_example(x1: int, x2: int, enc: QnnEncoding):
    """Basis state |bits(x1), bits(x2), 0...0> of the full register."""
    return basis_state(enc.n_total, int(_input_index(x1, x2, enc)[0]))


def _label_densities(unitary: np.ndarray, enc: QnnEncoding, inputs: np.ndarray) -> np.ndarray:
    """Reduced label densities of U|x> per input x, shape (M, 2^m, 2^m): U|x>
    is column x of U, and one einsum traces out its feature bits."""
    columns = unitary.T[inputs].reshape(len(inputs), -1, 2**enc.m)
    return np.einsum("jfa,jfb->jab", columns, columns.conj())


def forward(params: QnnParameters, enc: QnnEncoding, x1: int, x2: int) -> DensityMatrix:
    """Reduced label density after the network unitary."""
    rho = _label_densities(build_unitary(params, enc), enc, _input_index(x1, x2, enc))
    return DensityMatrix._trusted(2**enc.m, rho[0])


def _label_expectations(rho: np.ndarray, m: int) -> np.ndarray:
    """<sigma_i> of each label qubit q of each density in an (M, 2^m, 2^m)
    stack, shape (M, m, 3); the einsum traces out the qubits before q (l)
    and after it (r)."""
    out = np.empty((rho.shape[0], m, 3))
    for q in range(m):
        grid = rho.reshape(-1, 2**q, 2, 2 ** (m - 1 - q), 2**q, 2, 2 ** (m - 1 - q))
        out[:, q] = np.einsum("jlarlbr,iba->ji", grid, _PAULI[1:]).real
    return out


def cost(
    params: QnnParameters, enc: QnnEncoding, dataset, cfg: QnnTrainConfig
) -> float:
    """Training cost over (x1, x2, y) triples.

    The overlap kind is the negative summed fidelity <y|rho_y|y> of the
    reduced label state against the target basis state, so a perfect
    classifier scores -M.  The pauli kind sums weighted squared differences
    of per-label-qubit Pauli expectations between model and target; row j
    of ``cfg.f_weights`` weights example j, broadcast over its (m, 3).
    """
    x1, x2, labels = np.asarray(dataset, dtype=int).reshape(-1, 3).T
    examples = np.arange(labels.size)
    over = np.flatnonzero(labels >> enc.m != 0)
    if over.size:
        raise DomainError(f"label {labels[over[0]]} overflows {enc.m} bits")
    rho = _label_densities(build_unitary(params, enc), enc, _input_index(x1, x2, enc))
    if cfg.cost_kind == "overlap":
        return -float(np.sum(rho[examples, labels, labels].real))
    diff = _label_expectations(rho, enc.m)
    # Targets are basis qubits: <sigma_3> is 1 - 2 bit, the other two are 0.
    diff[:, :, 2] -= 1.0 - 2.0 * ((labels[:, None] >> np.arange(enc.m - 1, -1, -1)) & 1)
    weights = np.ones(labels.size) if cfg.f_weights is None else np.asarray(cfg.f_weights)[examples]
    # Example axes last, so each example's weights align with its (m, 3).
    return float(np.sum(np.moveaxis(weights, 0, -1) * np.moveaxis(diff**2, 0, -1)))


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
