"""Combinatorial kernels and scalar-product lower-bound certificates.

The two minimum-value statements checked here say that even-order correlation
cannot be small: C_{2r}(A) > sqrt(floor(n/(2r+1))/2) for every sequence, and
max{C_2, ..., C_{2s}} > sqrt(s n)/9 for s <= n/3. Both reduce to the classical
lower bound on the maximum nontrivial scalar product over a family of
equal-norm vectors, applied to vectors of shifted symbol products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .seqcore import BinarySequence, all_sequences_matrix
from . import measures

# Explicit floor used by the max-of-even-orders certificate; the per-order
# constants tend to 1/sqrt(6e) ~ 0.2476, exposed for reporting only.
MAX_THEOREM_FLOOR = 1.0 / 9.0
MAX_THEOREM_LIMIT_CONSTANT = 1.0 / math.sqrt(6.0 * math.e)

# Above this many decimal digits, binomial logs switch from exact big-int
# evaluation to log-gamma.
EXACT_LOG_DIGIT_CAP = 5000


def binomial(n: int, k: int) -> int:
    """Exact C(n, k); rejects negatives and k > n instead of returning 0."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"binomial needs 0 <= k <= n, got n={n}, k={k}")
    return math.comb(n, k)


def log_binomial(n: int, k: int) -> float:
    """Natural log of C(n, k), relative error <= 1e-12.

    Exact big-int binomials are used while the value stays under the digit
    cap; beyond that the log-gamma form takes over.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"binomial needs 0 <= k <= n, got n={n}, k={k}")
    if k == 0 or k == n:
        return 0.0
    approx = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    if approx <= EXACT_LOG_DIGIT_CAP * math.log(10):
        return math.log(math.comb(n, k))
    return approx


def double_factorial_odd(k: int) -> int:
    """(2k-1)!! = (2k-1)(2k-3)...3*1, the number of perfect pairings of 2k objects."""
    if k < 1:
        raise ValueError(f"double_factorial_odd needs k >= 1, got {k}")
    out = 1
    for odd in range(2 * k - 1, 1, -2):
        out *= odd
    return out


class WelchBound(NamedTuple):
    value: float
    vacuous: bool


def welch_bound(ell: int, m: int, k: int) -> WelchBound:
    """[ell^{2k}/(m-1) * (m/C(ell+k-1, k) - 1)]^{1/2k}.

    When m <= C(ell+k-1, k) the inner factor is nonpositive and the bound says
    nothing; that case is reported as value 0 with the vacuous flag set.
    """
    if ell < 1 or m < 2 or k < 1:
        raise ValueError(f"welch_bound needs ell >= 1, m >= 2, k >= 1, got {(ell, m, k)}")
    denom_binom = math.comb(ell + k - 1, k)
    num = ell ** (2 * k) * (m - denom_binom)
    if num <= 0:
        return WelchBound(0.0, True)
    den = (m - 1) * denom_binom
    return WelchBound(math.exp((math.log(num) - math.log(den)) / (2 * k)), False)


@dataclass(eq=False)
class VectorFamily:
    """m >= 2 vectors of length ell with ±1 entries (rows of `matrix`)."""

    ell: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.int8)
        if self.matrix.ndim != 2:
            raise ValueError("vector family needs a 2-d matrix")
        m, width = self.matrix.shape
        if width != self.ell or self.ell < 1:
            raise ValueError(f"vectors have length {width}, declared ell={self.ell}")
        if m < 2:
            raise ValueError(f"a vector family needs m >= 2 vectors, got {m}")
        if not np.all(np.abs(self.matrix) == 1):
            raise ValueError("vector entries must be ±1")

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def packed_rows(self) -> list[int]:
        """Each row as a bit int (bit set where the entry is -1)."""
        neg = (self.matrix == -1).astype(np.uint8)
        return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
                for row in neg]


def max_offdiag_scalar(fam: VectorFamily) -> int:
    """max_{i != i'} |<v_i, v_i'>| over the family, via XOR/popcount."""
    rows = fam.packed_rows()
    ell = fam.ell
    best = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            best = max(best, abs(ell - 2 * (rows[i] ^ rows[j]).bit_count()))
    return best


@dataclass
class BoundReport:
    """Outcome of one certificate: required bound vs the value actually achieved."""

    bound_value: float
    achieved_value: float
    satisfied: bool
    construction: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "bound_value": self.bound_value,
            "achieved_value": self.achieved_value,
            "satisfied": self.satisfied,
            "construction": dict(self.construction),
        }


# ---------------------------------------------------------------------------
# even-order lower bound C_{2r} > sqrt(floor(n/(2r+1))/2)


def theoremC_construction(a: BinarySequence, r: int) -> VectorFamily:
    """Vectors v_{i,j} = prod of r consecutive shifted symbols over disjoint blocks.

    Uses ell = floor(n/(2r+1)) and m = floor((n-ell+1)/r) blocks
    S_i = {(i-1)r, ..., ir-1}; pairwise scalar products of the v_i are
    order-2r correlation sums of the sequence.
    """
    n = a.length
    if r < 1:
        raise ValueError(f"subset size r must be >= 1, got {r}")
    ell = n // (2 * r + 1)
    if ell < 1:
        raise ValueError(f"construction is empty for n={n} < 2r+1={2 * r + 1}")
    m = (n - ell + 1) // r
    arr = a.to_array()
    mat = np.empty((m, ell), dtype=np.int8)
    for i in range(m):
        base = i * r
        v = arr[base:base + ell].copy()
        for x in range(base + 1, base + r):
            v *= arr[x:x + ell]
        mat[i] = v
    return VectorFamily(ell, mat)


def _even_bound(n: int, r: int) -> float:
    return math.sqrt(0.5 * (n // (2 * r + 1)))


def certify_theoremC(a: BinarySequence, r: int,
                     work_budget: int = measures.DEFAULT_WORK_BUDGET) -> BoundReport:
    """Check C_{2r}(a) > sqrt(floor(n/(2r+1))/2) (strict; must hold for every input)."""
    n = a.length
    if r < 1 or 2 * r > n:
        raise ValueError(f"need 1 <= r <= n/2, got r={r}, n={n}")
    bound = _even_bound(n, r)
    achieved = measures.correlation_measure_exact(a, 2 * r, work_budget=work_budget).value
    ell = n // (2 * r + 1)
    return BoundReport(
        bound_value=bound,
        achieved_value=float(achieved),
        satisfied=achieved > bound,
        construction={"kind": "even_order", "n": n, "r": r, "ell": ell,
                      "m": (n - ell + 1) // r if ell >= 1 else 0,
                      "blocks": "consecutive"},
    )


def certify_theoremC_all(n: int, r: int, workers: int = 1) -> BoundReport:
    """Exhaustive worst case of the even-order bound over all 2^n sequences."""
    if r < 1 or 2 * r > n:
        raise ValueError(f"need 1 <= r <= n/2, got r={r}, n={n}")
    values = measures.exact_values_batch(all_sequences_matrix(n), 2 * r, workers=workers)
    worst = int(values.min())
    bound = _even_bound(n, r)
    return BoundReport(
        bound_value=bound,
        achieved_value=float(worst),
        satisfied=worst > bound,
        construction={"kind": "even_order_exhaustive", "n": n, "r": r,
                      "sequences": 1 << n},
    )


# ---------------------------------------------------------------------------
# max of even orders: max{C_2, ..., C_{2s}} > sqrt(s n)/9


def _max_bound(n: int, s: int) -> float:
    return math.sqrt(s * n) * MAX_THEOREM_FLOOR


def _check_max_args(n: int, s: int) -> None:
    if n < 3 or s < 1 or 3 * s > n:
        raise ValueError(f"need n >= 3 and 1 <= s <= n/3, got n={n}, s={s}")


def certify_theorem_max(a: BinarySequence, s: int,
                        work_budget: int = measures.DEFAULT_WORK_BUDGET) -> BoundReport:
    """Check max{C_2(a), C_4(a), ..., C_{2s}(a)} > sqrt(s n)/9."""
    n = a.length
    _check_max_args(n, s)
    achieved = max(
        measures.correlation_measure_exact(a, 2 * k, work_budget=work_budget).value
        for k in range(1, s + 1))
    bound = _max_bound(n, s)
    return BoundReport(
        bound_value=bound,
        achieved_value=float(achieved),
        satisfied=achieved > bound,
        construction={"kind": "max_even_orders", "n": n, "s": s,
                      "orders": [2 * k for k in range(1, s + 1)]},
    )


def certify_theorem_max_all(n: int, s_values: Sequence[int] | None = None,
                            workers: int = 1) -> list[BoundReport]:
    """Exhaustive worst case of the max-of-even-orders bound, one report per s.

    Orders are scanned once: the per-sequence running maximum over
    C_2, ..., C_{2s} is reused as s grows.
    """
    if s_values is None:
        s_values = range(1, n // 3 + 1)
    s_values = sorted(set(int(s) for s in s_values))
    for s in s_values:
        _check_max_args(n, s)
    mat = all_sequences_matrix(n)
    reports = []
    running = None
    done = 0
    for s in s_values:
        for k in range(done + 1, s + 1):
            vals = measures.exact_values_batch(mat, 2 * k, workers=workers)
            running = vals if running is None else np.maximum(running, vals)
        done = s
        worst = int(running.min())
        bound = _max_bound(n, s)
        reports.append(BoundReport(
            bound_value=bound,
            achieved_value=float(worst),
            satisfied=worst > bound,
            construction={"kind": "max_even_orders_exhaustive", "n": n, "s": s,
                          "sequences": 1 << n},
        ))
    return reports


def f_ratio(n: int, s: int):
    """C(n-ell+1, s) / C(ell+s-1, s) with ell = floor(n/3); stays > 2 on its domain.

    Exact rational while the binomials are below the digit cap, float beyond.
    """
    if n < 3 or s < 1 or s > n // 3:
        raise ValueError(f"need n >= 3 and 1 <= s <= floor(n/3), got n={n}, s={s}")
    ell = n // 3
    log10_top = (math.lgamma(n - ell + 2) - math.lgamma(s + 1)
                 - math.lgamma(n - ell + 2 - s)) / math.log(10)
    if log10_top <= EXACT_LOG_DIGIT_CAP:
        return Fraction(math.comb(n - ell + 1, s), math.comb(ell + s - 1, s))
    return math.exp(log_binomial(n - ell + 1, s) - log_binomial(ell + s - 1, s))
