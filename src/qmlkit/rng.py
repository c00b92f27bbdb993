"""Seeded, splittable random streams.

Every stochastic routine in the toolkit takes an explicit ``RngStream`` so
that runs are reproducible from a single 64-bit seed.  The stream is backed
by the counter-based Philox generator, which supports cheap derivation of
statistically independent child streams: batches of measurement shots can be
sampled in parallel, one child stream per batch, without any coordination.
"""
from __future__ import annotations

import numpy as np

_CHUNK = 2**16   # indices per pass of the inverse-CDF sampler (512 KiB of floats)


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
        """Sample an index from an explicit probability vector (inverse CDF).

        Tiny negative rounding residue is clipped to zero, one chunk at a
        time, so no full-length copy is made.
        """
        p = np.asarray(probabilities, dtype=float)

        def probs_of(lo: int, hi: int) -> np.ndarray:
            return np.clip(p[lo:hi], 0.0, None)

        return inverse_cdf(probs_of, len(p), self.gen.random)[0]


def inverse_cdf(probs_of, size: int, draw) -> tuple[int, float]:
    """Index in ``[0, size)`` drawn by inverse CDF, and its probability.

    ``probs_of(lo, hi)`` returns a fresh float array of the probabilities of
    indices ``lo`` to ``hi``.  It is called once per chunk of ``_CHUNK``
    indices to accumulate the CDF, so no full-length array is held.  The
    last chunk's probabilities and CDF are kept; a draw that lands in an
    earlier chunk calls it once more for that chunk.  The running sum carries
    across chunks, so every CDF value is bitwise that of one ``np.cumsum``
    over the whole vector.  A total off 1 by more than ``np.isclose``'s
    default tolerance is a ``ValueError``, raised before the single
    ``draw()``; a draw at or past the total takes the last index.
    """
    starts = range(0, size, _CHUNK)
    ends = np.empty(len(starts))
    total = 0.0
    for k, lo in enumerate(starts):
        probs = probs_of(lo, min(lo + _CHUNK, size))
        cdf = _accumulate(probs.copy() if lo == starts[-1] else probs, total)
        total = ends[k] = cdf[-1]
    # NaN fails the comparison.
    if not abs(total - 1.0) <= 1e-9 + 1e-5:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    target = draw() * total
    k = min(int(np.searchsorted(ends, target, side="right")), len(ends) - 1)
    if k < len(ends) - 1:
        probs = probs_of(starts[k], starts[k + 1])
        cdf = _accumulate(probs.copy(), ends[k - 1] if k else 0.0)
    offset = min(int(np.searchsorted(cdf, target, side="right")), len(cdf) - 1)
    return starts[k] + offset, float(probs[offset])


def _accumulate(chunk: np.ndarray, carry: float) -> np.ndarray:
    """``chunk``'s running sum after ``carry``, accumulated in place."""
    if carry:
        chunk[0] += carry
    return np.cumsum(chunk, out=chunk)
