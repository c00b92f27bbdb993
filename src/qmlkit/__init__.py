"""State-vector quantum simulation and quantum machine learning toolkit."""

from .errors import ConfigError, DomainError
from .rng import RngStream
from .state import (
    MeasurementOutcome,
    Observable,
    StateVector,
    basis_state,
    expectation,
    from_bits,
    inner_product,
    is_product_two_subsystems,
    measure_all,
    measure_subset,
    normalize,
    tensor,
    variance,
)

__version__ = "0.5.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "MeasurementOutcome",
    "Observable",
    "RngStream",
    "StateVector",
    "basis_state",
    "expectation",
    "from_bits",
    "inner_product",
    "is_product_two_subsystems",
    "measure_all",
    "measure_subset",
    "normalize",
    "tensor",
    "variance",
]
