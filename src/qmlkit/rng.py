"""Seeded, splittable random streams.

Every stochastic routine in the toolkit takes an explicit ``RngStream`` so
that runs are reproducible from a single 64-bit seed.  The stream is backed
by the counter-based Philox generator, which supports cheap derivation of
statistically independent child streams: batches of measurement shots can be
sampled in parallel, one child stream per batch, without any coordination.
"""
from __future__ import annotations

import numpy as np


class RngStream:
    """A seeded random stream with splittable independent substreams."""

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = _seq if _seq is not None else np.random.SeedSequence(self.seed)
        self.gen = np.random.Generator(np.random.Philox(self._seq))

    def split(self, n: int) -> list["RngStream"]:
        """Derive ``n`` independent child streams; the parent stays usable."""
        return [RngStream(self.seed, _seq=child) for child in self._seq.spawn(n)]

    def child(self) -> "RngStream":
        return self.split(1)[0]

    def uniform(self) -> float:
        return float(self.gen.random())

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self.gen.integers(n))

    def choice(self, probabilities: np.ndarray) -> int:
        """Sample an index from an explicit probability vector (inverse CDF)."""
        p = np.asarray(probabilities, dtype=float)
        total = p.sum()
        # np.isclose's test (atol 1e-9 plus its default rtol 1e-5), without
        # its array machinery; NaN fails the comparison.
        if not abs(total - 1.0) <= 1e-9 + 1e-5:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        # Clip tiny negative rounding residue into one fresh buffer and
        # accumulate it in place.
        cdf = np.clip(p, 0.0, None)
        np.cumsum(cdf, out=cdf)
        index = int(np.searchsorted(cdf, self.gen.random() * cdf[-1], side="right"))
        return min(index, len(p) - 1)
