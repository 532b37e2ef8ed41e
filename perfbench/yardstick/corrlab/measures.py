"""Correlation measures of ±1 sequences.

The order-r correlation measure is the maximum absolute windowed sum of
r-fold shifted symbol products, over all strictly increasing shift tuples
(0 = u_1 < u_2 < ... < u_r < n) and all windows. It is computed here through
the equivalent form: enumerate the positive offsets (u_2, ..., u_r), build
the product sequence b_j = a_j a_{j+u_2} ... a_{j+u_r}, and take the range
(max prefix sum minus min prefix sum) of the walk with steps b_j.

Logarithms are natural throughout; the tail bounds this library checks pair
log with exp, which fixes the base.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError
from .seqcore import BinarySequence, SeedSpec

DEFAULT_WORK_BUDGET = 10 ** 9  # elementary steps: tuples * sequence length


@dataclass(frozen=True)
class ShiftTuple:
    """Strictly increasing positive offsets (u_2, ..., u_r); u_1 = 0 is implicit."""

    offsets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(int(u) for u in self.offsets))
        if not self.offsets:
            raise ValueError("a shift tuple needs at least one positive offset")
        if self.offsets[0] < 1 or any(a >= b for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError(f"offsets must be strictly increasing and >= 1: {self.offsets}")

    @property
    def order(self) -> int:
        return len(self.offsets) + 1

    @property
    def max_offset(self) -> int:
        return self.offsets[-1]

    def validate_for(self, n: int) -> None:
        if self.max_offset >= n:
            raise ValueError(
                f"offset {self.max_offset} does not fit a length-{n} sequence")


@dataclass(frozen=True)
class CorrelationResult:
    """A correlation value plus the witness that reproduces it.

    The witness window (m1, m2) satisfies |sum_{j=m1}^{m2} b_j| = value over
    the product sequence of the witness tuple, so every result is auditable.
    """

    value: int
    witness_tuple: ShiftTuple
    witness_window: tuple[int, int]
    exact: bool

    @property
    def order(self) -> int:
        return self.witness_tuple.order

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "order": self.order,
            "witness_tuple": list(self.witness_tuple.offsets),
            "witness_window": list(self.witness_window),
            "exact": self.exact,
        }


@dataclass(frozen=True)
class Normalization:
    """The scaling sqrt(2 n log C(n, r-1)) under which random-sequence measures converge."""

    n: int
    r: int
    value: float


# ---------------------------------------------------------------------------
# shift-tuple enumeration (colexicographic) and unranking


def colex_offsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All strictly increasing k-tuples from {1, ..., n-1} in colex order."""
    if k < 1 or k > n - 1:
        return
    u = list(range(1, k + 1))
    top = n - 1
    while True:
        yield tuple(u)
        i = 0
        while i < k - 1 and u[i] + 1 == u[i + 1]:
            i += 1
        if i == k - 1 and u[i] == top:
            return
        u[i] += 1
        for j in range(i):
            u[j] = j + 1


def colex_rank(offsets: Sequence[int]) -> int:
    """Rank of a tuple within colex_offsets order (0-based)."""
    return sum(math.comb(u - 1, i + 1) for i, u in enumerate(offsets))


def colex_unrank(rank: int, k: int) -> tuple[int, ...]:
    """Inverse of colex_rank: the k offsets with the given colex rank."""
    out = [0] * k
    for i in range(k, 0, -1):
        # largest c with comb(c, i) <= rank, by binary search
        lo, hi = i - 1, i
        while math.comb(hi, i) <= rank:
            hi *= 2
        while lo < hi - 1:
            mid = (lo + hi) // 2
            if math.comb(mid, i) <= rank:
                lo = mid
            else:
                hi = mid
        rank -= math.comb(lo, i)
        out[i - 1] = lo + 1
    return tuple(out)


# ---------------------------------------------------------------------------
# elementary operations


def product_sequence(a: BinarySequence, t: ShiftTuple) -> BinarySequence:
    """b_j = a_j a_{j+u_2} ... a_{j+u_r} for j = 1..n-u_r, as XOR of shifted payloads."""
    t.validate_for(a.length)
    acc = a.bits
    for u in t.offsets:
        acc ^= a.bits >> u
    length = a.length - t.max_offset
    return BinarySequence(length, acc & ((1 << length) - 1))


def correlation_sum(a: BinarySequence, t: ShiftTuple) -> int:
    """Full-length sum of the product sequence (popcount of the XOR payload)."""
    prod = product_sequence(a, t)
    return prod.length - 2 * prod.bits.bit_count()


def range_of_walk(steps: BinarySequence) -> int:
    """Max over all windows of |window sum| = (max - min) of the prefix-sum path."""
    prefix = np.cumsum(steps.to_array(), dtype=np.int64)
    hi = max(int(prefix.max()), 0)
    lo = min(int(prefix.min()), 0)
    return hi - lo


# ---------------------------------------------------------------------------
# exact and sampled measures


def _cumsum_dtype(n: int):
    return np.int16 if n < 32000 else np.int32


def _range_for_offsets(arr: np.ndarray, offsets: Sequence[int]) -> int:
    n = arr.shape[0]
    length = n - offsets[-1]
    prod = arr[:length].copy()
    for u in offsets:
        prod *= arr[u:u + length]
    prefix = np.cumsum(prod, dtype=np.int32)
    return max(int(prefix.max()), 0) - min(int(prefix.min()), 0)


def _window_for_offsets(arr: np.ndarray, offsets: Sequence[int]) -> tuple[int, int]:
    """Earliest window (m1, m2) whose sum realizes the prefix range."""
    n = arr.shape[0]
    length = n - offsets[-1]
    prod = arr[:length].copy()
    for u in offsets:
        prod *= arr[u:u + length]
    prefix = np.zeros(length + 1, dtype=np.int32)
    np.cumsum(prod, dtype=np.int32, out=prefix[1:])
    a = int(prefix.argmax())
    b = int(prefix.argmin())
    return min(a, b) + 1, max(a, b)


def _check_order(n: int, r: int) -> None:
    if r < 2 or r > n:
        raise ValueError(f"order must satisfy 2 <= r <= n, got r={r}, n={n}")


def correlation_measure_exact(a: BinarySequence, r: int,
                              work_budget: int = DEFAULT_WORK_BUDGET) -> CorrelationResult:
    """Exact order-r correlation measure with a replayable witness.

    Enumerates all C(n-1, r-1) shift tuples in colex order; the witness is the
    first maximizer, with the earliest window realizing the prefix range.
    """
    n = a.length
    _check_order(n, r)
    tuples = math.comb(n - 1, r - 1)
    if tuples * n > work_budget:
        raise ResourceLimitError(
            f"exact enumeration needs ~{tuples * n:.2e} steps (> budget {work_budget:.0e}); "
            "use correlation_measure_sampled for a lower bound")
    arr = a.to_array()
    best = -1
    best_offsets = None
    for offsets in colex_offsets(n, r - 1):
        val = _range_for_offsets(arr, offsets)
        if val > best:
            best = val
            best_offsets = offsets
    window = _window_for_offsets(arr, best_offsets)
    return CorrelationResult(best, ShiftTuple(best_offsets), window, exact=True)


def correlation_measure_sampled(a: BinarySequence, r: int, tuple_budget: int,
                                seed: SeedSpec) -> CorrelationResult:
    """Max over a random set of shift tuples: a reproducible lower bound on C_r.

    Tuples are drawn without replacement while the budget is at most half the
    tuple space (by rank unranking), with replacement above that, and the whole
    space is used when the budget covers it.
    """
    n = a.length
    _check_order(n, r)
    if tuple_budget < 1:
        raise ValueError(f"tuple_budget must be >= 1, got {tuple_budget}")
    k = r - 1
    total = math.comb(n - 1, k)
    if tuple_budget >= total:
        chosen: Iterable[tuple[int, ...]] = colex_offsets(n, k)
    else:
        rng = seed.py_random()
        if tuple_budget <= total // 2:
            seen: dict[int, None] = {}  # insertion-ordered distinct ranks
            while len(seen) < tuple_budget:
                seen.setdefault(rng.randrange(total))
            ranks = list(seen)
        else:
            ranks = [rng.randrange(total) for _ in range(tuple_budget)]
        chosen = (colex_unrank(q, k) for q in ranks)

    arr = a.to_array()
    best = -1
    best_offsets = None
    for offsets in chosen:
        val = _range_for_offsets(arr, offsets)
        if val > best:
            best = val
            best_offsets = offsets
    window = _window_for_offsets(arr, best_offsets)
    return CorrelationResult(best, ShiftTuple(best_offsets), window, exact=False)


def replay_witness(a: BinarySequence, result: CorrelationResult) -> int:
    """Re-evaluate a witness on the bit path: |sum_{j=m1}^{m2} b_j|."""
    prod = product_sequence(a, result.witness_tuple)
    m1, m2 = result.witness_window
    if not 1 <= m1 <= m2 <= prod.length:
        raise ValueError(f"window {result.witness_window} does not fit length {prod.length}")
    width = m2 - m1 + 1
    chunk = (prod.bits >> (m1 - 1)) & ((1 << width) - 1)
    return abs(width - 2 * chunk.bit_count())


def normalization(n: int, r: int) -> Normalization:
    """sqrt(2 n log C(n, r-1)), natural log."""
    if r < 2 or n <= r:
        raise ValueError(f"normalization needs n > r >= 2, got n={n}, r={r}")
    from .bounds import log_binomial
    return Normalization(n, r, math.sqrt(2.0 * n * log_binomial(n, r - 1)))


def normalized_ratio(a: BinarySequence, r: int,
                     work_budget: int = DEFAULT_WORK_BUDGET) -> float:
    """Exact measure divided by its convergence normalization."""
    result = correlation_measure_exact(a, r, work_budget=work_budget)
    return result.value / normalization(a.length, r).value


# ---------------------------------------------------------------------------
# batch kernels (value-only, vectorized across sequences)


def _as_matrix(seqs) -> np.ndarray:
    if isinstance(seqs, np.ndarray):
        mat = seqs.astype(np.int8, copy=False)
    else:
        mat = np.stack([s.to_array() for s in seqs])
    if mat.ndim != 2:
        raise ValueError("expected a 2-d matrix of ±1 rows")
    return mat


def _batch_ranges_chunk(mat: np.ndarray, offset_chunk: list[tuple[int, ...]],
                        dtype) -> np.ndarray:
    rows, n = mat.shape
    prod = np.empty((rows, n - 1), dtype=np.int8)
    cum = np.empty((rows, n - 1), dtype=dtype)
    best = np.zeros(rows, dtype=np.int32)
    for offsets in offset_chunk:
        length = n - offsets[-1]
        p = prod[:, :length]
        c = cum[:, :length]
        np.multiply(mat[:, :length], mat[:, offsets[0]:offsets[0] + length], out=p)
        for u in offsets[1:]:
            np.multiply(p, mat[:, u:u + length], out=p)
        np.cumsum(p, axis=1, dtype=dtype, out=c)
        hi = c.max(axis=1).astype(np.int32)
        lo = c.min(axis=1).astype(np.int32)
        np.maximum(hi, 0, out=hi)
        np.minimum(lo, 0, out=lo)
        hi -= lo
        np.maximum(best, hi, out=best)
    return best


def exact_values_batch(seqs, r: int, workers: int = 1) -> np.ndarray:
    """Exact C_r value for every row of a ±1 matrix (or list of sequences).

    The tuple enumeration may be partitioned across worker threads; the
    maximum is reduced associatively, so results are independent of workers.
    """
    mat = _as_matrix(seqs)
    n = mat.shape[1]
    _check_order(n, r)
    if math.comb(n - 1, r - 1) > 10 ** 8:
        raise ResourceLimitError(
            f"batch kernel would enumerate {math.comb(n - 1, r - 1):.2e} tuples; "
            "use correlation_measure_sampled per sequence instead")
    dtype = _cumsum_dtype(n)
    offsets = list(colex_offsets(n, r - 1))
    if workers <= 1 or len(offsets) < 2 * workers:
        return _batch_ranges_chunk(mat, offsets, dtype)
    chunk_size = -(-len(offsets) // (workers * 8))
    chunks = [offsets[i:i + chunk_size] for i in range(0, len(offsets), chunk_size)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda ch: _batch_ranges_chunk(mat, ch, dtype), chunks))
    best = parts[0]
    for part in parts[1:]:
        np.maximum(best, part, out=best)
    return best


def range_values_batch(mat: np.ndarray, chunk_rows: int = 4096) -> np.ndarray:
    """Walk range for every row of a ±1 step matrix."""
    mat = _as_matrix(mat)
    rows, n = mat.shape
    dtype = _cumsum_dtype(n)
    out = np.empty(rows, dtype=np.int32)
    for start in range(0, rows, chunk_rows):
        block = mat[start:start + chunk_rows]
        cum = np.cumsum(block, axis=1, dtype=dtype)
        hi = cum.max(axis=1).astype(np.int32)
        lo = cum.min(axis=1).astype(np.int32)
        np.maximum(hi, 0, out=hi)
        np.minimum(lo, 0, out=lo)
        out[start:start + block.shape[0]] = hi - lo
    return out
