"""Combinatorial kernels and scalar-product lower-bound certificates.

The two minimum-value statements checked here say that even-order correlation
cannot be small: C_{2r}(A) > sqrt(floor(n/(2r+1))/2) for every sequence, and
max{C_2, ..., C_{2s}} > sqrt(s n)/9 for s <= n/3. Both reduce to the classical
lower bound on the maximum nontrivial scalar product over a family of
equal-norm vectors, applied to vectors of shifted symbol products.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .seqcore import BinarySequence, SeedSpec, _orbit_representatives, _pm1
from . import measures
from .measures import EXACT_LOG_DIGIT_CAP, log_binomial
from .measures import binomial  # noqa: F401  (it stays a bounds name)

# Explicit floor used by the max-of-even-orders certificate; the per-order
# constants tend to 1/sqrt(6e) ~ 0.2476, exposed for reporting only.
MAX_THEOREM_FLOOR = 1.0 / 9.0
MAX_THEOREM_LIMIT_CONSTANT = 1.0 / math.sqrt(6.0 * math.e)


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
        raw = np.asarray(self.matrix)
        if raw.ndim != 2:
            raise ValueError("vector family needs a 2-d matrix")
        m, width = raw.shape
        if width != self.ell or self.ell < 1:
            raise ValueError(f"vectors have length {width}, declared ell={self.ell}")
        if m < 2:
            raise ValueError(f"a vector family needs m >= 2 vectors, got {m}")
        mat = _pm1(raw)
        self.matrix = mat.copy() if mat is raw else mat  # a copy of its own, as from a cast

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


def max_offdiag_scalar(fam: VectorFamily) -> int:
    """max_{i != i'} |<v_i, v_i'>| over the family, one Gram-matrix row at a time."""
    vecs = fam.matrix.astype(np.int32)
    return max(int(np.abs(vecs[i + 1:] @ vecs[i]).max()) for i in range(fam.m - 1))


@dataclass
class BoundReport:
    """Outcome of one certificate: required bound vs the value actually achieved."""

    bound_value: float
    achieved_value: float
    satisfied: bool
    construction: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _report(bound: float, achieved: int, **construction) -> BoundReport:
    """A minimum-value certificate; every bound here is strict."""
    return BoundReport(bound_value=bound, achieved_value=float(achieved),
                       satisfied=achieved > bound, construction=construction)


def certify_welch_families(ell: int, m: int, k: int, families: int,
                           master_seed: int) -> list[BoundReport]:
    """Welch's bound against random ±1 families of m vectors of length ell, family
    i drawn from SeedSpec(master_seed, i); it holds vacuously when m <= C(ell+k-1, k)."""
    if families < 1:
        raise ValueError(f"families must be >= 1, got {families}")
    wb = welch_bound(ell, m, k)
    reports = []
    for i in range(families):
        bits = SeedSpec(master_seed, i).generator().integers(0, 2, size=(m, ell))
        achieved = max_offdiag_scalar(VectorFamily(ell, 1 - 2 * bits.astype(np.int8)))
        reports.append(BoundReport(
            bound_value=wb.value, achieved_value=float(achieved),
            satisfied=wb.vacuous or achieved >= wb.value,
            construction={"kind": "welch_random_family", "ell": ell, "m": m, "k": k,
                          "family_index": i, "vacuous": wb.vacuous}))
    return reports


def _exhaustive_worst(n: int, orders: Sequence[int]) -> list[int]:
    """Min over all 2^n sequences of max(C_r for r in orders[:i+1]), for each i.

    Callers pass even orders only (2r, and 2, 4, ..., 2s). Negation a -> -a
    fixes every C_r. Alternation a_j -> (-1)^j a_j multiplies each product
    step by (-1)^(r j + u_2 + ... + u_r), a constant sign for even r, so it
    fixes even-order C_r. Negation flips (a_1, a_2) together and alternation
    flips a_1 alone, so every orbit meets a_1 = a_2 = +1: those 2^(n-2)
    sequences give the same minima as all 2^n. The representatives are ±1
    columns already, so each order goes straight to the column scan.
    """
    cols = _orbit_representatives(n)
    running = None
    worst = []
    for r in orders:
        values = measures._scan_columns(cols, r)
        running = values if running is None else np.maximum(running, values, out=running)
        worst.append(int(running.min()))
    return worst


# ---------------------------------------------------------------------------
# even-order lower bound C_{2r} > sqrt(floor(n/(2r+1))/2)


def _blocks(n: int, r: int) -> tuple[int, int]:
    """Vector length ell = floor(n/(2r+1)) and block count m = floor((n-ell+1)/r)."""
    ell = n // (2 * r + 1)
    return ell, (n - ell + 1) // r if ell >= 1 else 0


def _check_even_args(n: int, r: int) -> None:
    if r < 1 or 2 * r > n:
        raise ValueError(f"need 1 <= r <= n/2, got r={r}, n={n}")


def theoremC_construction(a: BinarySequence, r: int) -> VectorFamily:
    """Vectors v_{i,j} = prod of r consecutive shifted symbols over disjoint blocks.

    Blocks S_i = {(i-1)r, ..., ir-1} for i = 1..m, with (ell, m) from `_blocks`;
    pairwise scalar products of the v_i are order-2r correlation sums.
    """
    if r < 1:
        raise ValueError(f"subset size r must be >= 1, got {r}")
    ell, m = _blocks(a.length, r)
    if ell < 1:
        raise ValueError(f"construction is empty for n={a.length} < 2r+1={2 * r + 1}")
    windows = sliding_window_view(a.to_array(), ell)[:m * r]  # row x is a_x .. a_{x+ell-1}
    return VectorFamily(ell, windows.reshape(m, r, ell).prod(axis=1, dtype=np.int8))


def _even_bound(n: int, r: int) -> float:
    return math.sqrt(0.5 * _blocks(n, r)[0])


def certify_theoremC(a: BinarySequence, r: int) -> BoundReport:
    """Check C_{2r}(a) > sqrt(floor(n/(2r+1))/2) (strict; must hold for every input)."""
    n = a.length
    _check_even_args(n, r)
    achieved = measures.correlation_measure_exact(a, 2 * r).value
    ell, m = _blocks(n, r)
    return _report(_even_bound(n, r), achieved, kind="even_order", n=n, r=r, ell=ell,
                   m=m, blocks="consecutive")


def certify_theoremC_all(n: int, r: int, workers: int = 1) -> BoundReport:
    """Exhaustive worst case of the even-order bound over all 2^n sequences."""
    _check_even_args(n, r)
    [worst] = _exhaustive_worst(n, [2 * r])
    return _report(_even_bound(n, r), worst, kind="even_order_exhaustive", n=n, r=r,
                   sequences=1 << n)


# ---------------------------------------------------------------------------
# max of even orders: max{C_2, ..., C_{2s}} > sqrt(s n)/9


def _max_bound(n: int, s: int) -> float:
    return math.sqrt(s * n) * MAX_THEOREM_FLOOR


def _check_max_args(n: int, s: int) -> None:
    if n < 3 or s < 1 or 3 * s > n:
        raise ValueError(f"need n >= 3 and 1 <= s <= n/3, got n={n}, s={s}")


def certify_theorem_max(a: BinarySequence, s: int) -> BoundReport:
    """Check max{C_2(a), C_4(a), ..., C_{2s}(a)} > sqrt(s n)/9."""
    n = a.length
    _check_max_args(n, s)
    achieved = max(measures.correlation_measure_exact(a, 2 * k).value for k in range(1, s + 1))
    return _report(_max_bound(n, s), achieved, kind="max_even_orders", n=n, s=s,
                   orders=[2 * k for k in range(1, s + 1)])


def certify_theorem_max_all(n: int, s_values: Sequence[int] | None = None,
                            workers: int = 1) -> list[BoundReport]:
    """Exhaustive worst case of the max-of-even-orders bound, one report per s.

    Orders C_2, ..., C_{2 max(s)} are scanned once, with a running
    per-sequence maximum, so every s reads off its own prefix.
    """
    if s_values is None:
        s_values = range(1, n // 3 + 1)
    s_values = sorted(set(int(s) for s in s_values))
    for s in s_values:
        _check_max_args(n, s)
    if not s_values:
        return []
    worst = _exhaustive_worst(n, [2 * k for k in range(1, s_values[-1] + 1)])
    return [_report(_max_bound(n, s), worst[s - 1], kind="max_even_orders_exhaustive",
                    n=n, s=s, sequences=1 << n) for s in s_values]


def f_ratio(n: int, s: int):
    """C(n-ell+1, s) / C(ell+s-1, s) with ell = floor(n/3); stays > 2 on its domain.

    Exact rational while the binomials are below the digit cap, float beyond.
    """
    _check_max_args(n, s)
    ell = n // 3
    log10_top = (math.lgamma(n - ell + 2) - math.lgamma(s + 1)
                 - math.lgamma(n - ell + 2 - s)) / math.log(10)
    if log10_top <= EXACT_LOG_DIGIT_CAP:
        return Fraction(math.comb(n - ell + 1, s), math.comb(ell + s - 1, s))
    return math.exp(log_binomial(n - ell + 1, s) - log_binomial(ell + s - 1, s))
