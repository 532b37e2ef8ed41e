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

import functools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError
from .seqcore import BinarySequence, SeedSpec, _packed, _pm1, _symbols

DEFAULT_WORK_BUDGET = 10 ** 9  # elementary steps: tuples * sequence length
_BLOCK_WORDS = 1 << 15  # words per tuple block: _best_tuple (fastest of 2^13..2^16), _scan_words
_COLUMN_CELLS = 1 << 17  # tuples x rows per _scan_columns block, where 8 tuples or more fit
_BOUND_WORDS = 9  # product words from which _scan_words reads a pair only past its bound
EXACT_LOG_DIGIT_CAP = 5000  # decimal digits above which binomial logs use log-gamma, not big ints


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
# binomials and colexicographic unranking of shift tuples


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); rejects negatives and k > n instead of returning 0."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"binomial needs 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k)


def log_binomial(n: int, k: int) -> float:
    """Natural log of C(n, k), relative error <= 1e-12: from the exact big-int
    binomial while it stays under the digit cap, from log-gamma beyond."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"binomial needs 0 <= k <= n, got n={n}, k={k}")
    if k == 0 or k == n:
        return 0.0
    approx = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    if approx <= EXACT_LOG_DIGIT_CAP * math.log(10):
        return math.log(math.comb(n, k))
    return approx


def _unrank(ranks: Sequence[int], k: int, n: int) -> np.ndarray:
    """Offsets of colex ranks (a range or a list), as a (len(ranks), k) int64 array.

    For i = k..1, offset i is i + t for the largest t in 0..n-1-k with
    C(i-1+t, i) <= rank, found by `searchsorted` over that column of
    binomials, and C(i-1+t, i) then leaves the rank. The column for i = k is
    k - 1 running sums of 0..n-1-k (the column for i = 1), and each next one
    the differences of the last. All entries are below the tuple count
    C(n-1, k), so the arithmetic is exact in int64 while that count is below
    2^63 (also at r = n, where middle binomials pass 2^63), and on Python
    ints in object arrays beyond."""
    dtype = np.int64 if math.comb(n - 1, k) < 1 << 63 else object
    rank = (np.arange(ranks.start, ranks.stop, dtype=dtype) if isinstance(ranks, range)
            else np.array(ranks, dtype=dtype))
    column = np.arange(n - k, dtype=dtype)  # C(t, 1)
    for _ in range(k - 1):
        column = column.cumsum()
    out = np.empty((len(rank), k), dtype=np.int64)
    for i in range(k, 0, -1):
        t = np.searchsorted(column, rank, side="right") - 1
        rank = rank - column[t]
        out[:, i - 1] = i + t
        column = np.diff(column, prepend=0)
    return out


def _rank_blocks(ranks: Sequence[int], k: int, n: int, size: int) -> Iterator[np.ndarray]:
    """`_unrank` of consecutive `size`-rank slices of `ranks` (a range or a list), in order
    (at k = 0, rank 0 is the empty tuple). A block peaks at 64 + 16 k bytes a rank, and 32
    more per offset above 256 (tracemalloc; 11 MB at k = 18 and `_BLOCK_WORDS` ranks)."""
    for start in range(0, len(ranks), size):
        yield _unrank(ranks[start:start + size], k, n)


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
    return int(_packed_ranges(steps._bytes()[None, :], steps.length)[0])


# ---------------------------------------------------------------------------
# exact and sampled measures


def _best_tuple(row: np.ndarray, n: int, ranks: Sequence[int],
                k: int) -> tuple[int, tuple[int, ...]]:
    """Largest walk range over a stream of colex ranks, with its first maximizer,
    for the length-n sequence of packed bytes `row`.

    Each block of tuples (`_rank_blocks`) has products that are the XOR of r shifted words
    of the one sequence (`_pack_phases`), held as (words, tuples) so that the running sums
    (`_running_sum`), max and min run down axis 0. Word w of a product keeps its first
    clip(L - 16 w, 0, 16) bits by `_KEEP`, L = n - u_r its length, and the range is read
    from `_word_tables` as in `_word_ranges`: word 0's top and bottom include the empty
    prefix, so max >= 0 >= min. The first maximizer in stream order wins: argmax inside a
    block, strict > across blocks."""
    width = -(-n // 16)
    # in bit-offset order: entry t is the row's 16 bits from bit t, so word w of shift u is u + 16 w
    flat = _pack_phases(row[None, :], n, 2 * width)[:, 0].T.ravel()
    step_sum, _, _, top_less_sum, bottom_less_sum = _word_tables()
    best, best_offsets = -1, None
    for offsets in _rank_blocks(ranks, k, n, max(1, _BLOCK_WORDS // width)):
        lengths = n - offsets[:, -1]
        lanes = 16 * np.arange(-(-int(lengths.max()) // 16))[:, None]
        prod = flat[lanes]  # u_1 = 0
        for u in offsets.T:
            prod = prod ^ flat.take(lanes + u)
        keep = _KEEP[np.clip(lengths - lanes, 0, 16)]
        hi_words, lo_words = prod | ~keep, prod & keep
        hi = _running_sum(step_sum.take(hi_words).astype(np.int32)) + top_less_sum.take(hi_words)
        lo = _running_sum(step_sum.take(lo_words).astype(np.int32)) + bottom_less_sum.take(lo_words)
        ranges = hi.max(axis=0) - lo.min(axis=0)
        i = int(ranges.argmax())
        if ranges[i] > best:
            best, best_offsets = int(ranges[i]), tuple(offsets[i].tolist())
    return best, best_offsets


def _result(a: BinarySequence, ranks: Sequence[int], k: int, exact: bool) -> CorrelationResult:
    """Best tuple of the colex ranks, with the earliest window that realizes its prefix range."""
    best, offsets = _best_tuple(a._bytes(), a.length, ranks, k)
    witness = ShiftTuple(offsets)
    prefix = np.cumsum(np.concatenate([[0], product_sequence(a, witness).to_array()]))  # from 0
    hi, lo = int(prefix.argmax()), int(prefix.argmin())
    return CorrelationResult(best, witness, (min(hi, lo) + 1, max(hi, lo)), exact)


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
            f"exact enumeration needs ~{tuples * n:.2e} steps (> budget {work_budget:,}); "
            "use correlation_measure_sampled for a lower bound")
    return _result(a, range(tuples), r - 1, exact=True)


def correlation_measure_sampled(a: BinarySequence, r: int, tuple_budget: int, seed: SeedSpec,
                                work_budget: int = DEFAULT_WORK_BUDGET) -> CorrelationResult:
    """Max over a random set of shift tuples: a reproducible lower bound on C_r.

    Tuples are drawn without replacement while the budget is at most half the
    tuple space (by rank unranking), with replacement above that, and the whole
    space is used when the budget covers it. The tuples taken times n must stay
    within `work_budget`, as on the exact path.
    """
    n = a.length
    _check_order(n, r)
    if tuple_budget < 1:
        raise ValueError(f"tuple_budget must be >= 1, got {tuple_budget}")
    k = r - 1
    total = math.comb(n - 1, k)
    steps = min(tuple_budget, total) * n
    if steps > work_budget:
        raise ResourceLimitError(f"sampling needs ~{steps:.2e} steps (> budget "
                                 f"{work_budget:,}); lower the tuple budget")
    ranks: Sequence[int] = range(total)
    if tuple_budget < total:
        ranks = _draw_ranks(seed.py_random(), total, tuple_budget, tuple_budget <= total // 2)
    return _result(a, ranks, k, exact=False)


def _draw_ranks(rng: random.Random, total: int, budget: int, distinct: bool) -> list[int]:
    """The first `budget` values (the first `budget` distinct ones if `distinct`) of
    repeated rng.randrange(total), for total >= 2, from bulk getrandbits calls.

    randrange draws getrandbits(b), b = total.bit_length(), until the value is below
    total. getrandbits(b) takes m = ceil(b/32) 32-bit Mersenne Twister words, the
    first in the low bits, and shifts the last one right by 32 m - b;
    getrandbits(32 m) returns the same m words unshifted. The words are uint64 while
    b <= 64 and Python ints in object arrays beyond. Extra words are drawn when
    short; the generator is not used again, so the surplus is harmless."""
    b = total.bit_length()
    per = -(-b // 32)  # words per getrandbits(b)
    dtype = np.uint64 if b <= 64 else object
    shifts = np.array([32 * i for i in range(per)], dtype=dtype)
    ranks = np.empty(0, dtype=dtype)
    while len(ranks) < budget:
        # draws expected for the ranks still missing (each is kept w.p. total / 2^b), plus a margin
        count = ((budget - len(ranks)) << b) // total * 17 // 16 + 64
        words = np.frombuffer(rng.getrandbits(32 * per * count).to_bytes(4 * per * count, "little"),
                              dtype="<u4").astype(dtype).reshape(count, per)
        words[:, -1] >>= 32 * per - b
        draws = (words << shifts).sum(axis=1)
        ranks = np.concatenate([ranks, draws[draws < total]])
        if distinct:
            ranks = ranks[np.sort(np.unique(ranks, return_index=True)[1])]
    return ranks[:budget].tolist()


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
    return Normalization(n, r, math.sqrt(2.0 * n * log_binomial(n, r - 1)))


def normalized_ratio(a: BinarySequence, r: int) -> float:
    """Exact measure divided by its convergence normalization."""
    result = correlation_measure_exact(a, r)
    return result.value / normalization(a.length, r).value


# ---------------------------------------------------------------------------
# batch kernels (value-only, vectorized across sequences)


def _as_matrix(seqs) -> np.ndarray:
    mat = _pm1(seqs) if isinstance(seqs, np.ndarray) else np.stack([s.to_array() for s in seqs])
    if mat.ndim != 2:
        raise ValueError("expected a 2-d matrix of ±1 rows")
    if not mat.shape[1]:
        raise ValueError("matrix rows need at least one entry of -1 or +1")
    return mat


@functools.cache
def _word_tables() -> tuple[np.ndarray, ...]:
    """Walk tables for every 16-bit word, built from its two bytes.

    Bit j of a word set means step j is -1, else +1. Tables: the step sum s,
    the highest and lowest prefix sums (the empty prefix included), and those
    two less s. Read-only, built on first use (five int16 tables, 640 KB)."""
    walk = np.cumsum(_symbols(np.arange(256, dtype=np.uint8)[:, None], 8), axis=1, dtype=np.int16)
    s8, hi8, lo8 = walk[:, -1], np.maximum(walk.max(axis=1), 0), np.minimum(walk.min(axis=1), 0)
    word = np.arange(1 << 16)
    low, high = word & 255, word >> 8
    s = s8[low] + s8[high]
    hi = np.maximum(hi8[low], s8[low] + hi8[high])
    lo = np.minimum(lo8[low], s8[low] + lo8[high])
    tables = np.stack([s, hi, lo, hi - s, lo - s])
    tables.flags.writeable = False
    return tuple(tables)


# Entry b keeps a word's first b bits. The word readers take `word | ~keep` of a product's
# partial last word for the walk's maximum (it only falls past the steps) and `word & keep`
# for its minimum (it only rises); keeping no bit, top[0xFFFF] = bottom[0] = 0 moves neither.
_KEEP = ((1 << np.arange(17)) - 1).astype(np.uint16)


def _pack_phases(rows: np.ndarray, n: int, words: int) -> np.ndarray:
    """Each packed byte row as `words` 16-bit words once per phase p < 16 (`packed[p]`
    starts at bit p): (16, rows, words). Word i of phase p is the low half of
    (w_i | w_{i+1} << 16) >> p, w the row's first ceil(n/8) bytes, zero-padded, as words.
    Bits from n on stay: a product of length n - u_r reads only bits below n."""
    nbytes = -(-n // 8)
    buf = np.zeros((rows.shape[0], 2 * words + 2), dtype=np.uint8)
    buf[:, :nbytes] = rows[:, :nbytes]
    w = buf.view("<u2").astype(np.uint32)
    pairs = w[:, :-1] | w[:, 1:] << 16
    packed = np.empty((16, *pairs.shape), dtype=np.uint16)
    for p in range(16):
        packed[p] = pairs >> p
    return packed


def _word_ranges(prod: np.ndarray, length: int | np.ndarray) -> np.ndarray:
    """Walk range of each row of packed words whose first `length` bits are the steps, as int32.

    `length` may be one int per row if all share length // 16 and hold a word past
    it. A walk's maximum is max_k(T_{k-1} + hi_k) = max_k(T_k + hi_k - s_k) with T
    the word-level prefix sum, and its minimum likewise: the (sum, max prefix,
    min prefix) scan monoid (Blelloch 1990). Of the word after the whole ones
    only the first length % 16 bits are steps, kept by `_KEEP`. The prefix sums
    are int32: they cannot wrap, and on long rows numpy's int32 running sum
    measured faster than its int16 one."""
    step_sum, top, bottom, top_less_sum, bottom_less_sum = _word_tables()
    full = int(length.min()) // 16 if isinstance(length, np.ndarray) else length // 16
    head = prod[:, :full]
    walk = step_sum.take(head).cumsum(axis=1, dtype=np.int32)
    hi = (walk + top_less_sum.take(head)).max(axis=1, initial=0)
    lo = (walk + bottom_less_sum.take(head)).min(axis=1, initial=0)
    if prod.shape[1] > full:
        last, keep = prod[:, full], _KEEP[length - 16 * full]
        end = walk[:, -1] if full else 0
        np.maximum(hi, top.take(last | ~keep) + end, out=hi)
        np.minimum(lo, bottom.take(last & keep) + end, out=lo)
    hi -= lo
    return hi


def _packed_ranges(rows: np.ndarray, length: int) -> np.ndarray:
    """Walk range of each row of -1 bits packed little-endian into bytes, as int32.

    Read as 16-bit words, the rows are phase 0 of `_pack_phases`, so `_word_ranges`
    takes them as they are: a view when the byte width is even, and a copy with
    one zero byte appended when it is odd."""
    if rows.shape[1] % 2:
        rows = np.pad(rows, ((0, 0), (0, 1)))
    return _word_ranges(rows.view("<u2"), length)


def _running_sum(x: np.ndarray) -> np.ndarray:
    """`x` with its running sum down axis 0, in place, by doubling (Hillis & Steele 1986): the
    pass at d = 1, 2, 4, ... adds row i - d to row i, whole rows at once (where numpy's cumsum
    walks a short axis 0 one element at a time), so row i then sums rows i - 2d + 1..i."""
    d = 1
    while d < len(x):
        x[d:] = x[d:] + x[:-d]  # from the old rows: the sum is made before it is stored
        d *= 2
    return x


def _range_bound(prod: np.ndarray) -> np.ndarray:
    """Upper bound on the walk range of each row of 16-bit words padded with 0x5555 words to
    whole 32-bit groups. Group g holding c_g set bits, the walk ends group g at
    T_g = 32 (g + 1) - 2 (c_0 + ... + c_g); j steps into the group it is within j of
    T_{g-1} and 32 - j of T_g, so within 16 of m_g = (T_{g-1} + T_g) / 2 = T_g + c_g - 16,
    and its range is at most max m - min m + 32. A product's walk is a prefix of its padded
    one, whose range is no smaller, so neither the bits past its length nor the pad need a
    mask. The sums run down the (groups, pairs) transpose, in int16 below 1024 groups: walk
    -T_g / 2 and mid -m_g stay within 32 groups, and T moves at most 32 a group, so
    m_g - m_g' <= 32 (g - g') and the bound is at most 32 groups < 2^15."""
    groups = prod.shape[1] // 2
    walk = np.zeros((groups + 1, prod.shape[0]), dtype=np.int16 if groups < 1024 else np.int32)
    walk[1:] = (np.bitwise_count(prod.view(np.uint32)).view(np.int8) - 16).T  # c_g - 16
    _running_sum(walk)
    mid = walk[1:] + walk[:-1]  # -m_g
    return mid.max(axis=0) - mid.min(axis=0) + 32


def _scan_words(rows: np.ndarray, n: int, r: int) -> np.ndarray:
    """C_r of the first n bits of every packed byte row, as int32, on 16-bit words.

    A product sequence is the XOR of r shifted rows of -1 bits, and on the phases of
    `_pack_phases` the shift by u is the word-aligned slice `phases[u & 15][:, u >> 4:]`.
    Tuples that share their upper offsets (u_3, ..., u_r from `_rank_blocks`; the empty
    tuple at r = 2) and their product's whole-word count differ only in u_2 < u_3 (< n at
    r = 2), and u_2 = 16 q + p for p0 <= p < p1 is the one slice `phases[p0:p1, :, q:]`.
    So each block of u_2 values (at most `_BLOCK_WORDS` words) XORs the upper offsets'
    product with a slice per 16 of them, and one `_word_ranges` call reads it, at r = 2
    with a length per row. Products read a word past their whole ones: the phases hold a
    spare word. Exhaustive certificates call `_scan_columns` on their ±1 columns instead.

    `best` holds each row's C_r so far (a block's rows run u_2 major, row minor). A product
    of `_BOUND_WORDS` words or more, padded to whole 32-bit groups, is read only where
    `_range_bound` exceeds its row's best, which a skipped pair cannot raise; shorter ones
    are read whole, since the bound costs them more than it saves. Time with the bound from
    w words over the whole read, by rows x n : r (2-core VM, min of 7; products at n <= 64
    hold under 5 words, so those columns are noise; at 4096 x 128 r = 2, w = 5 costs 1.13):

        w    4096x16:3 4096x64:2 40x256:2 4096x256:2 200x512:2 200x512:3 40x2048:2 500x4096:2
        0    5.16      1.43      0.83     0.66       0.45      0.23      0.35      0.23
        5    0.98      1.03      0.86     0.71       0.48      0.28      0.35      0.22
        9    0.96      1.02      0.93     0.86       0.56      0.44      0.36      0.23
        13   0.94      1.08      0.99     0.99       0.62      0.58      0.36      0.24
        17   0.94      1.08      0.96     0.94       0.69      0.71      0.37      0.24"""
    _check_order(n, r)
    if (tuples := math.comb(n - 1, r - 1)) > 10 ** 8:
        raise ResourceLimitError(f"batch kernel would enumerate {tuples:.2e} tuples; use "
                                 "correlation_measure_sampled per sequence instead")
    phases, count = _pack_phases(rows, n, n // 16 + 1), rows.shape[0]
    best = np.zeros(count, dtype=np.int32)
    blocks = _rank_blocks(range(math.comb(n - 1, r - 2)), r - 2, n, _BLOCK_WORDS) if count else ()
    for upper in (t for block in blocks for t in block.tolist()):  # no rows: no blocks to size
        u2, stop = 1, upper[0] if upper else n
        while u2 < stop:  # a run of u_2 whose products have one whole-word count
            words = (n - (upper or (u2,))[-1]) // 16 + 1  # (n - u_r) // 16 and the spare
            run = min(stop, n + 17 - 16 * words)  # at r = 2, where (n - u_2) // 16 changes
            base = phases[0, :, :words]
            for u in upper:
                base = base ^ phases[u & 15, :, u >> 4:(u >> 4) + words]
            bounded = words >= _BOUND_WORDS
            width = words + (words & 1 if bounded else 0)  # whole 32-bit groups
            block = max(1, _BLOCK_WORDS // (count * words))
            for first in range(u2, run, block):
                last = min(first + block, run)
                prod = np.empty((last - first, count, width), dtype=np.uint16)
                prod[:, :, words:] = 0x5555
                for q in range(first >> 4, ((last - 1) >> 4) + 1):
                    p0, p1 = max(first - 16 * q, 0), min(last - 16 * q, 16)
                    np.bitwise_xor(phases[p0:p1, :, q:q + words], base,
                                   out=prod[16 * q + p0 - first:16 * q + p1 - first, :, :words])
                steps = (np.repeat(n - np.arange(first, last), count) if last - first > 1
                         and not upper else n - (upper or (first,))[-1])  # n - u_r per row
                prod = prod.reshape(-1, width)
                if not bounded:
                    ranges = _word_ranges(prod, steps)
                    np.maximum(best, ranges.reshape(-1, count).max(axis=0), out=best)
                    continue
                read = np.flatnonzero(_range_bound(prod).reshape(-1, count) > best)
                if read.size:
                    ranges = _word_ranges(prod[read], steps[read] if np.ndim(steps) else steps)
                    np.maximum.at(best, read % count, ranges)
            u2 = run
    return best


def _column_block(rows: int) -> int:
    """Tuples per block of `_scan_columns` on `rows` columns (the rule is in its docstring)."""
    size = _COLUMN_CELLS // rows
    return size if size >= 8 else 1


def _scan_columns(cols: np.ndarray, r: int) -> np.ndarray:
    """C_r of every column of an (n, rows) ±1 int8 matrix, as int32.

    The tuples of `_rank_blocks` are walked in blocks of T consecutive ones, with (T, rows)
    walk, high, low and step buffers. At position j, factor i of every tuple still walking
    is row j + u_i of `cols`, gathered, and the step is their product with row j. Colex
    order keeps u_r nondecreasing, so the tuples still walking at j (u_r < n - j) are a
    prefix of the block: nothing is padded or masked. A prefix of one tuple reads its rows
    as views. Every buffer is int8: a walk of at most 127 steps (n <= 128) stays within
    ±127, and the one caller, the exhaustive certificates, stops at n = 24
    (`EXHAUSTIVE_LIMIT`).

    At small n the one-tuple walk is bound by numpy's per-call cost, and a block spreads
    each call over T tuples; gathers cost more than views, so tall inputs walk one tuple at
    a time. T is `_COLUMN_CELLS` // rows (2^17 cells), or 1 where that is below 8. Time of
    `bounds._exhaustive_worst` over T = 1 (2-core VM, min of 7; * marks the rule's T):

        n, orders (rows)         T = 2    4     8     16    32    64    128   256
        10, [2,4,6] (256)            1.11 0.64  0.40  0.29  0.23  0.20  0.20  0.21
        12, [2,4,6,8] (1024)         1.06 0.52  0.33  0.23  0.19  0.15  0.15* 0.15
        14, [2,4,6,8] (4096)         1.05 0.65  0.47  0.36  0.33* 0.32  0.36  0.47
        15, [2,4,6] (8192)           1.23 0.79  0.61  0.54* 0.52  0.61  0.74  1.01
        16, [2,4,6,8] (16384)        1.28 1.00  0.83* 0.81  0.89  1.08  1.44  1.72
        17, [2,4] (32768)            1.25 1.00  1.12  1.31  1.63  1.99  2.25  3.02
        18, [2] (65536)              1.13 1.18  1.52  1.86  2.22  2.93  4.13  6.11

    At n = 10 the rule's T is 512, which holds each order in one block, as 128 and 256 do;
    from 32,768 rows on it is 1."""
    n, rows = cols.shape
    size = _column_block(rows)
    state = np.zeros((4, size, rows), dtype=np.int8)  # walk, high, low, step: a slot per tuple
    best = np.zeros((size, rows), dtype=np.int8)  # per slot
    for ranks in _rank_blocks(range(math.comb(n - 1, r - 1)), r - 1, n, _BLOCK_WORDS):
        columns = ranks.T.copy()  # row i - 2: u_i of every tuple
        lengths = (n - columns[-1]).tolist()  # nonincreasing: colex order keeps u_r nondecreasing
        for start in range(0, len(lengths), size):
            block, done = min(size, len(lengths) - start), 0
            for t in range(block, 0, -1):  # the first t tuples walk on until tuple t - 1 ends
                stop = lengths[start + t - 1]
                if stop == done:
                    continue
                # factor i is row j + u_i: gathered for t tuples, a view for one
                picks = ([u[start:start + t] for u in columns] if t > 1
                         else columns[:, start].tolist())
                walk, hi, lo, step = state[:, :t] if t > 1 else state[:, 0]
                for j in range(done, stop):
                    shifted = cols[j:]
                    np.multiply(cols[j], shifted[picks[0]], out=step)
                    for pick in picks[1:]:
                        step *= shifted[pick]
                    walk += step
                    np.maximum(hi, walk, out=hi)
                    np.minimum(lo, walk, out=lo)
                done = stop
            hi, lo = state[1, :block], state[2, :block]
            hi -= lo
            np.maximum(best[:block], hi, out=best[:block])
            state[:3] = 0  # the next block walks from 0
    return best.max(axis=0).astype(np.int32)


def exact_values_batch(seqs, r: int, workers: int = 1) -> np.ndarray:
    """Exact C_r value for every row of a ±1 matrix (or list of sequences), as int32,
    read by `_scan_words` from the rows packed into bytes.

    `workers` is accepted for interface stability; the tuples are enumerated
    serially, and the result is the same for every value.
    """
    mat = _as_matrix(seqs)
    return _scan_words(_packed(mat), mat.shape[1], r)


def range_values_batch(mat: np.ndarray) -> np.ndarray:
    """Walk range for every row of a ±1 step matrix, as int32: its -1 bits packed into
    bytes and read by `_packed_ranges`, which also reads the Monte Carlo tail's
    sampled rows (`experiments.check_range_tail`) without any ±1 matrix, and
    one sequence's own payload bytes (`range_of_walk`)."""
    mat = _as_matrix(mat)
    return _packed_ranges(_packed(mat), mat.shape[1])
