"""Brute-force reference implementations and exhaustive combinatorial verifiers.

Everything in this module is deliberately literal: correlation measures by the
unrewritten triple maximum, walk ranges by the double loop, expectations and
tail probabilities by full enumeration with exact rationals. These are the
ground truth the fast kernels and the Monte Carlo harness are tested against.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .bounds import double_factorial_odd
from .errors import ResourceLimitError
from .measures import ShiftTuple, _check_order
from .seqcore import BinarySequence, all_sequences_matrix

NAIVE_MAX_N = 20
NAIVE_MAX_R = 5
ENUM_BUDGET = 10 ** 7


def naive_correlation_measure(a: BinarySequence, r: int) -> int:
    """Literal definition: max over 0 <= u_1 < ... < u_r < n and window ends m
    of |sum_{j=1}^m a_{j+u_1} ... a_{j+u_r}|."""
    n = a.length
    _check_order(n, r)
    if n > NAIVE_MAX_N or r > NAIVE_MAX_R:
        raise ResourceLimitError(
            f"naive oracle is limited to n <= {NAIVE_MAX_N}, r <= {NAIVE_MAX_R}")
    sym = a.symbols()
    best = 0
    for offs in combinations(range(n), r):
        u_last = offs[-1]
        partial = 0
        for j in range(n - u_last):
            term = 1
            for u in offs:
                term *= sym[j + u]
            partial += term
            if abs(partial) > best:
                best = abs(partial)
    return best


def naive_range(steps: BinarySequence) -> int:
    """Walk range by the quadratic double maximum over window endpoints."""
    sym = steps.symbols()
    prefix = [0]
    for s in sym:
        prefix.append(prefix[-1] + s)
    best = 0
    for m1 in range(len(sym)):
        for m2 in range(m1 + 1, len(sym) + 1):
            best = max(best, abs(prefix[m2] - prefix[m1]))
    return best


def naive_values_all(n: int, r: int) -> np.ndarray:
    """Literal-definition measures for every length-n sequence at once.

    Same unrewritten formula as naive_correlation_measure (all r offsets
    explicit, partial sums anchored at j=1), vectorized across the sequence
    axis only.
    """
    _check_order(n, r)
    mat = all_sequences_matrix(n)
    best = np.zeros(mat.shape[0], dtype=np.int32)
    for offs in combinations(range(n), r):
        length = n - offs[-1]
        prod = mat[:, offs[0]:offs[0] + length].copy()
        for u in offs[1:]:
            prod *= mat[:, u:u + length]
        partial = np.cumsum(prod, axis=1, dtype=np.int32)
        np.maximum(best, np.abs(partial).max(axis=1), out=best)
    return best


# ---------------------------------------------------------------------------
# even tuples


@dataclass(frozen=True)
class EvenTuple:
    """A tuple of even length 2m together with its evenness degree d <= m."""

    entries: tuple[int, ...]
    evenness_degree: int

    @classmethod
    def of(cls, entries) -> "EvenTuple":
        entries = tuple(entries)
        return cls(entries, evenness_degree(entries))

    @property
    def is_even(self) -> bool:
        return self.evenness_degree == len(self.entries) // 2


def evenness_degree(entries) -> int:
    """Largest d such that some permutation pairs 2d entries into d equal pairs.

    Closed form: sum over values of floor(multiplicity/2), capped at half the
    length (validated against literal pairing search in the tests).
    """
    entries = tuple(entries)
    if len(entries) % 2 != 0:
        raise ValueError(f"evenness degree needs an even-length tuple, got {len(entries)}")
    m = len(entries) // 2
    pairs = sum(c // 2 for c in Counter(entries).values())
    return min(m, pairs)


def evenness_degree_search(entries) -> int:
    """Literal maximal pairing by backtracking; only for short tuples."""
    entries = tuple(entries)
    if len(entries) % 2 != 0:
        raise ValueError(f"evenness degree needs an even-length tuple, got {len(entries)}")
    if len(entries) > 12:
        raise ResourceLimitError("pairing search is limited to tuples of length <= 12")

    def max_pairs(items):
        if not items:
            return 0
        first, rest = items[0], items[1:]
        best = max_pairs(rest)
        for idx, other in enumerate(rest):
            if other == first:
                # all equal partners are interchangeable; one branch suffices
                best = max(best, 1 + max_pairs(rest[:idx] + rest[idx + 1:]))
                break
        return best

    return min(len(entries) // 2, max_pairs(list(entries)))


def _is_even_tuple(entries) -> bool:
    return all(c % 2 == 0 for c in Counter(entries).values())


def count_even_tuples(m: int, q: int) -> int:
    """Number of even tuples in {1,...,m}^{2q}, by full enumeration."""
    if m < 1 or q < 1:
        raise ValueError(f"need m >= 1 and q >= 1, got m={m}, q={q}")
    if m ** (2 * q) > ENUM_BUDGET:
        raise ResourceLimitError(f"enumerating {m}^{2 * q} tuples exceeds budget {ENUM_BUDGET}")
    return sum(1 for t in product(range(1, m + 1), repeat=2 * q) if _is_even_tuple(t))


def count_constrained_even(n: int, q: int, t: int, u: ShiftTuple, v: ShiftTuple) -> int:
    """Count even tuples (x_i, x_i+u2, y_i, y_i+v2)_{i=1..2q} in {1,...,n}^{8q}
    whose (x_i) part has evenness degree < q - t. Restricted to order 2 tuples.
    """
    if u.order != 2 or v.order != 2:
        raise ValueError("the constrained-count oracle handles order-2 tuples only")
    if u == v:
        raise ValueError("the shift tuples must be distinct")
    if not 0 <= t < q:
        raise ValueError(f"need 0 <= t < q, got t={t}, q={q}")
    u2, v2 = u.offsets[0], v.offsets[0]
    if u2 >= n or v2 >= n:
        raise ValueError(f"offsets must be < n={n}, got u={u2}, v={v2}")
    if n ** (4 * q) > ENUM_BUDGET:
        raise ResourceLimitError(
            f"enumerating {n}^{4 * q} assignments exceeds budget {ENUM_BUDGET}")

    # entries x_i + u2 and y_i + v2 must stay inside {1, ..., n}
    x_choices = []
    for xs in product(range(1, n - u2 + 1), repeat=2 * q):
        if evenness_degree(xs) < q - t:
            entries = xs + tuple(x + u2 for x in xs)
            x_choices.append(entries)
    count = 0
    for ys in product(range(1, n - v2 + 1), repeat=2 * q):
        y_entries = ys + tuple(y + v2 for y in ys)
        for x_entries in x_choices:
            if _is_even_tuple(x_entries + y_entries):
                count += 1
    return count


def constrained_even_bound(n: int, q: int, t: int) -> float:
    """(8q-1)!! * n^{2q-(t+1)/3}, the ceiling the order-2 constrained count must respect:
    (4rq-1)!! at r = 2, the only order `count_constrained_even` handles."""
    return double_factorial_odd(4 * q) * n ** (2 * q - (t + 1) / 3)


# ---------------------------------------------------------------------------
# exact moments, expectations, tails


@dataclass(frozen=True)
class MomentCheck:
    """E[(S_u S_v)^{2p}] versus its pairing-count ceiling."""

    n: int
    r: int
    p: int
    h: int
    u: ShiftTuple
    v: ShiftTuple
    exact_moment: Fraction
    bound: float
    satisfied: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n, "r": self.r, "p": self.p, "h": self.h,
            "u": list(self.u.offsets), "v": list(self.v.offsets),
            "exact_moment": str(self.exact_moment),
            "exact_moment_float": float(self.exact_moment),
            "bound": self.bound, "satisfied": self.satisfied,
        }


def _correlation_sums_all(n: int, tup: ShiftTuple) -> np.ndarray:
    """S_tup for every length-n sequence, by direct summation of slice products."""
    mat = all_sequences_matrix(n)
    length = n - tup.max_offset
    prod = mat[:, :length].copy()
    for u in tup.offsets:
        prod *= mat[:, u:u + length]
    return prod.sum(axis=1, dtype=np.int64)


def exact_moment(n: int, u: ShiftTuple, v: ShiftTuple, p: int, h: int) -> MomentCheck:
    """Exact E[(S_u S_v)^{2p}] over all 2^n sequences, against the moment ceiling."""
    if u.order != v.order:
        raise ValueError("u and v must have the same order")
    if u == v:
        raise ValueError("the shift tuples must be distinct")
    if not 0 <= h < p:
        raise ValueError(f"need 0 <= h < p, got h={h}, p={p}")
    if p > 3:
        raise ValueError(f"moment oracle is limited to p <= 3, got {p}")
    if n > 16:
        raise ResourceLimitError(f"moment oracle enumerates 2^n sequences, needs n <= 16, got {n}")
    u.validate_for(n)
    v.validate_for(n)
    r = u.order
    s_u = _correlation_sums_all(n, u)
    s_v = _correlation_sums_all(n, v)
    powers = (s_u * s_v) ** (2 * p)  # |S| <= n = 16, so entries stay well inside int64
    total = sum(int(x) for x in powers)
    moment = Fraction(total, 1 << n)
    dfact = double_factorial_odd(p) if p >= 1 else 1
    bound = (n ** (2 * p)) * (dfact ** 2) * (
        1.0
        + (4 * r * p) ** (4 * r * h) / n ** (1.0 / 3.0)
        + (4 * r * p) ** (2 * r * p) / n ** ((h + 1) / 3.0)
    )
    return MomentCheck(n=n, r=r, p=p, h=h, u=u, v=v, exact_moment=moment,
                       bound=bound, satisfied=moment <= bound)


def exact_expected_measure(n: int, r: int) -> Fraction:
    """E[C_r(A_n)] exactly, averaging the literal measure over all 2^n sequences."""
    if n > 16 or r > 4:
        raise ResourceLimitError(
            f"exact expectation is limited to n <= 16 and r <= 4, got n={n}, r={r}")
    values = naive_values_all(n, r)
    return Fraction(int(values.sum(dtype=np.int64)), 1 << n)


def exact_tail(n: int, u: ShiftTuple, lam: float) -> Fraction:
    """Pr[|S_u(A_n)| >= lam] exactly.

    The shifted products behave as independent fair ±1 steps, so the tail is a
    binomial tail over the n - u_r product terms.
    """
    if n > 20:
        raise ResourceLimitError(f"tail oracle is limited to n <= 20, got {n}")
    u.validate_for(n)
    if not 0 <= lam < math.inf:
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    length = n - u.max_offset
    hits = sum(math.comb(length, k) for k in range(length + 1)
               if abs(2 * k - length) >= lam)
    return Fraction(hits, 1 << length)
