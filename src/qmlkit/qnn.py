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
each label qubit's Pauli expectations, and trained by finite differences
whose shifted parameter rows are scored in stacks, one batched ``eigh`` each.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityMatrix
from .errors import ConfigError, DomainError
from .rng import RngStream

QUBIT_CAP = 6                 # 4^6 parameters is the trainability ceiling
_STACK_ENTRIES = 2**16        # entries of the largest array in a chunk of gradient rows

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
        n = self.n_total
        if n > QUBIT_CAP:
            words = f"{4**n:,}" if n <= 32 else f"4^{n}"  # no huge integer past 32
            rows = f"{2 * 4**n:,}" if n <= 32 else f"2 x 4^{n}"
            raise ConfigError(
                f"{n} qubits exceed the {QUBIT_CAP}-qubit trainability cap: the network has "
                f"{words} parameters, and one gradient scores {rows} shifted parameter rows"
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
        weights = np.asarray(0.0 if self.f_weights is None else self.f_weights)
        if not np.all((weights >= 0) & (weights < np.inf)):
            raise DomainError("pauli cost weights must be finite and nonnegative")


def _pauli_sum(alphas: np.ndarray, n: int) -> np.ndarray:
    """sum_w alpha_w P_w on n qubits for each row of ``alphas`` (..., 4^n).

    One base-4 digit per qubit is consumed, from the least significant (last
    qubit) up: each step puts the new qubit's row and column bits above the
    ones built so far, as the blocks [[I + Z, X - iY], [X + iY, I - Z]].  The
    rows lie end to end on the word axis; no group of four words spans two.
    """
    acc = alphas.reshape(-1, 1, 1)
    for _ in range(n):
        words, rows, cols = acc.shape
        i, x, y, z = np.moveaxis(acc.reshape(words // 4, 4, rows, cols), 1, 0)
        acc = np.empty((words // 4, 2, rows, 2, cols), dtype=complex)
        acc[:, 0, :, 0], acc[:, 0, :, 1] = i + z, x - 1j * y
        acc[:, 1, :, 0], acc[:, 1, :, 1] = x + 1j * y, i - z
        acc = acc.reshape(words // 4, 2 * rows, 2 * cols)
    return acc.reshape(*alphas.shape[:-1], 2**n, 2**n)


def unitary_from_pauli_coefficients(alphas: np.ndarray, n: int) -> np.ndarray:
    """U = exp(i sum_w alpha_w P_w) on n qubits, or one per row of an (S, 4^n)
    stack, by one (batched) eigendecomposition of the Hermitian generator."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim not in (1, 2) or alphas.shape[-1] != 4**n:
        raise DomainError(f"expected {4**n} coefficients for {n} qubits, got {alphas.shape}")
    values, vectors = np.linalg.eigh(_pauli_sum(alphas, n))
    return (vectors * np.exp(1j * values)[..., None, :]) @ np.swapaxes(vectors.conj(), -1, -2)


def build_unitary(params: QnnParameters, enc: QnnEncoding) -> np.ndarray:
    return unitary_from_pauli_coefficients(params.alphas, enc.n_total)


def _input_index(x1, x2, enc: QnnEncoding) -> np.ndarray:
    """Register indices of |bits(x1), bits(x2), 0...0>, elementwise."""
    x1, x2 = np.atleast_1d(x1), np.atleast_1d(x2)
    over = np.flatnonzero((x1 >> enc.k != 0) | (x2 >> enc.k != 0))   # outside [0, 2^k)
    if over.size:
        raise DomainError(f"features ({x1[over[0]]}, {x2[over[0]]}) overflow {enc.k} bits")
    return (x1 << (enc.k + enc.m)) | (x2 << enc.m)


def _label_densities(unitary: np.ndarray, enc: QnnEncoding, inputs: np.ndarray) -> np.ndarray:
    """Reduced label densities of U|x> per input x, shape (..., M, 2^m, 2^m)
    for a (..., 2^n, 2^n) stack of U: U|x> is column x of U, and one einsum
    traces out its feature bits."""
    columns = np.swapaxes(unitary, -1, -2)[..., inputs, :].reshape(-1, 4**enc.k, 2**enc.m)
    rho = np.einsum("jfa,jfb->jab", columns, columns.conj())
    return rho.reshape(*unitary.shape[:-2], len(inputs), 2**enc.m, 2**enc.m)


def forward(params: QnnParameters, enc: QnnEncoding, x1: int, x2: int) -> DensityMatrix:
    """Reduced label density after the network unitary."""
    rho = _label_densities(build_unitary(params, enc), enc, _input_index(x1, x2, enc))
    return DensityMatrix._trusted(2**enc.m, rho[0])


def _label_expectations(rho: np.ndarray, m: int) -> np.ndarray:
    """<sigma_i> of each label qubit q of each density in a (..., 2^m, 2^m)
    stack, shape (..., m, 3); the einsum traces out the qubits before q (l)
    and after it (r)."""
    grids = [rho.reshape(-1, 2**q, 2, 2 ** (m - 1 - q), 2**q, 2, 2 ** (m - 1 - q)) for q in range(m)]
    out = np.stack([np.einsum("jlarlbr,iba->ji", grid, _PAULI[1:]).real for grid in grids], axis=1)
    return out.reshape(*rho.shape[:-2], m, 3)


def _costs(alphas: np.ndarray, enc: QnnEncoding, dataset, cfg: QnnTrainConfig) -> np.ndarray:
    """``cost`` of each row of an (S, 4^n) stack of parameters: the dataset is
    parsed and checked, and the weights built, once for the whole stack."""
    x1, x2, labels = np.asarray(dataset, dtype=int).reshape(-1, 3).T
    over = np.flatnonzero(labels >> enc.m != 0)
    if over.size:
        raise DomainError(f"label {labels[over[0]]} overflows {enc.m} bits")
    inputs = _input_index(x1, x2, enc)
    if cfg.cost_kind == "pauli":     # row j weights example j; its axes broadcast to (m, 3)
        weights = np.ones(labels.size) if cfg.f_weights is None else np.asarray(cfg.f_weights)
        rest = weights.shape[1:]
        if weights.shape[:1] != labels.shape or len(rest) > 2 or any(
                size not in (1, full) for size, full in zip(rest[::-1], (3, enc.m))):
            raise DomainError(f"pauli cost weights of shape {weights.shape} do not fit "
                              f"{labels.size} examples: expected ({labels.size}, ...) "
                              f"with the other axes broadcasting to ({enc.m}, 3)")
        weights = weights.reshape(labels.size, *(1,) * (2 - len(rest)), *rest)
    rho = _label_densities(unitary_from_pauli_coefficients(alphas, enc.n_total), enc, inputs)
    if cfg.cost_kind == "overlap":
        return -np.sum(rho[:, np.arange(labels.size), labels, labels].real, axis=1)
    diff = _label_expectations(rho, enc.m)
    # Targets are basis qubits: <sigma_3> is 1 - 2 bit, the other two are 0.
    diff[..., 2] -= 1.0 - 2.0 * ((labels[:, None] >> np.arange(enc.m - 1, -1, -1)) & 1)
    return np.sum((weights * diff**2).reshape(len(diff), -1), axis=1)


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
    return float(_costs(params.alphas[None], enc, dataset, cfg)[0])


def finite_difference_gradient(
    params: QnnParameters,
    enc: QnnEncoding,
    dataset,
    cfg: QnnTrainConfig,
    stencil: int = 2,
) -> np.ndarray:
    """Gradient of the cost by central differences.

    ``stencil`` 2 is the workhorse two-point rule; 5 is the richer
    five-point rule used to cross-check it.  The shifted rows alphas + o h e_w
    (o = +-1, and +-2 for the 5-point rule) go through ``_costs`` in chunks,
    one batched ``eigh`` each.  A chunk holds as many rows as keep its
    largest stacked array within ``_STACK_ENTRIES`` entries, and at least
    one.  Each shifted cost keeps the bits of a ``cost`` call on its row.
    """
    if stencil not in (2, 5):
        raise DomainError("stencil must be 2 or 5")
    h = cfg.fd_step
    alphas = params.alphas
    shifts = np.array([1.0, -1.0] if stencil == 2 else [2.0, 1.0, -1.0, -2.0]) * h
    costs = np.empty(alphas.size * shifts.size)
    # Entries per row: 4^n in H and U, M 2^n in the input columns and M 4^m
    # in the label densities of the M examples.
    per_row = max(alphas.size, len(dataset) * max(2**enc.n_total, 4**enc.m))
    rows = max(1, _STACK_ENTRIES // per_row)
    for start in range(0, costs.size, rows):
        index = np.arange(start, min(start + rows, costs.size))
        one_hot = index[:, None] // shifts.size == np.arange(alphas.size)
        stack = alphas + shifts[index % shifts.size, None] * one_hot
        costs[index] = _costs(stack, enc, dataset, cfg)
    c = costs.reshape(alphas.size, shifts.size).T
    if stencil == 2:
        return (c[0] - c[1]) / (2 * h)
    return (-c[0] + 8 * c[1] - 8 * c[2] + c[3]) / (12 * h)


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
