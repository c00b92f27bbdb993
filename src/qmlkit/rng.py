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


def cdf_table(probs_of, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass of the inverse-CDF sampler over ``[0, size)``: the running
    total at the end of each chunk of ``_CHUNK`` indices, and the last
    chunk's probabilities and CDF.

    ``probs_of(lo, hi)`` returns a fresh float array of the probabilities of
    indices ``lo`` to ``hi``; it is called once per chunk, so no full-length
    array is held.  The running sum carries across chunks, so every total is
    bitwise that of one ``np.cumsum`` over the whole vector.  A total off 1
    by more than ``np.isclose``'s default tolerance is a ``ValueError``.
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
    return ends, probs, cdf


def inverse_cdf(probs_of, size: int, draw, table=None) -> tuple[int, float]:
    """Index in ``[0, size)`` drawn by inverse CDF, and its probability.

    Without ``table`` it first makes the :func:`cdf_table` pass, which
    checks the total before the single ``draw()``.  With ``table``, such a
    pass kept from an earlier call over the same probabilities (its last
    chunk's probabilities and CDF may be ``None``), the draw is taken at
    once, so a later draw costs one chunk, not a pass.  A draw that lands in
    a chunk whose CDF is not at hand calls ``probs_of`` once more for that
    chunk and re-accumulates it from the previous chunk's total, to the same
    bits; a draw at or past the total takes the last index.
    """
    ends, probs, cdf = cdf_table(probs_of, size) if table is None else table
    target = draw() * ends[-1]
    last = len(ends) - 1
    k = min(int(np.searchsorted(ends, target, side="right")), last) if last else 0
    if k < last or cdf is None:
        lo = k * _CHUNK
        probs = probs_of(lo, min(lo + _CHUNK, size))
        cdf = _accumulate(probs.copy(), ends[k - 1] if k else 0.0)
    offset = min(int(np.searchsorted(cdf, target, side="right")), len(cdf) - 1)
    return k * _CHUNK + offset, float(probs[offset])


def _accumulate(chunk: np.ndarray, carry: float) -> np.ndarray:
    """``chunk``'s running sum after ``carry``, accumulated in place."""
    if carry:
        chunk[0] += carry
    return np.cumsum(chunk, out=chunk)
