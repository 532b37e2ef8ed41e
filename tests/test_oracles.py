import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from corrlab import ResourceLimitError
from corrlab import measures as ms
from corrlab import oracles as orc
from corrlab import seqcore as sc

B = sc.BinarySequence.from_symbols


class TestNaiveMeasure:
    def test_examples(self):
        assert orc.naive_correlation_measure(sc.alternating(7), 3) == 1
        assert orc.naive_correlation_measure(sc.all_ones(5), 2) == 4
        assert orc.naive_correlation_measure(B([1, 1, 1, -1]), 2) == 2

    def test_scale_guard(self):
        with pytest.raises(ResourceLimitError):
            orc.naive_correlation_measure(sc.all_ones(21), 2)
        with pytest.raises(ValueError):
            orc.naive_correlation_measure(sc.all_ones(8), 1)

    def test_vectorized_matches_scalar(self):
        for n in range(2, 9):
            for r in range(2, min(4, n) + 1):
                values = orc.naive_values_all(n, r)
                for i, seq in enumerate(sc.enumerate_all(n)):
                    assert values[i] == orc.naive_correlation_measure(seq, r)


class TestEvenness:
    def test_examples(self):
        assert orc.evenness_degree((1, 3, 1, 4, 3, 4)) == 3
        assert orc.evenness_degree((2, 1, 1, 2, 1, 3)) == 2
        assert orc.evenness_degree((5, 5)) == 1

    def test_even_tuple_wrapper(self):
        t = orc.EvenTuple.of((1, 3, 1, 4, 3, 4))
        assert t.is_even and t.evenness_degree == 3
        assert not orc.EvenTuple.of((2, 1, 1, 2, 1, 3)).is_even

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            orc.evenness_degree((1, 2, 3))

    @pytest.mark.parametrize("length", [2, 4, 6])
    def test_closed_form_equals_search(self, length):
        for entries in product((1, 2, 3), repeat=length):
            assert orc.evenness_degree(entries) == orc.evenness_degree_search(entries)


class TestCountEvenTuples:
    def test_examples(self):
        assert orc.count_even_tuples(1, 1) == 1
        assert orc.count_even_tuples(3, 1) == 3
        assert orc.count_even_tuples(3, 2) == 21  # <= 3 * 9

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            orc.count_even_tuples(10, 4)

    def test_counting_bound_small(self):
        from corrlab.bounds import double_factorial_odd
        for m in range(1, 5):
            for q in range(1, 3):
                count = orc.count_even_tuples(m, q)
                assert count <= double_factorial_odd(q) * m ** q


class TestConstrainedEven:
    def test_distinct_tuples_required(self):
        with pytest.raises(ValueError):
            orc.count_constrained_even(4, 1, 0, ms.ShiftTuple((1,)), ms.ShiftTuple((1,)))

    def test_r2_only(self):
        with pytest.raises(ValueError):
            orc.count_constrained_even(6, 1, 0, ms.ShiftTuple((1, 2)),
                                       ms.ShiftTuple((1, 3)))

    def test_t_domain(self):
        with pytest.raises(ValueError):
            orc.count_constrained_even(4, 1, 1, ms.ShiftTuple((1,)), ms.ShiftTuple((2,)))

    def test_small_counts_within_bound(self):
        for n in (4, 5):
            for q in (1, 2):
                for t in range(q):
                    for u2, v2 in product(range(1, n), repeat=2):
                        if u2 == v2:
                            continue
                        count = orc.count_constrained_even(
                            n, q, t, ms.ShiftTuple((u2,)), ms.ShiftTuple((v2,)))
                        assert count <= orc.constrained_even_bound(n, q, t)


class TestExactMoment:
    def test_domain_guards(self):
        u, v = ms.ShiftTuple((1,)), ms.ShiftTuple((2,))
        with pytest.raises(ValueError):
            orc.exact_moment(8, u, v, 1, 1)  # h must be < p
        with pytest.raises(ValueError):
            orc.exact_moment(8, u, u, 1, 0)
        with pytest.raises(ResourceLimitError):
            orc.exact_moment(18, u, v, 1, 0)

    def test_small_cases_satisfied(self):
        u = ms.ShiftTuple((1,))
        for v_off, p, h in [((2,), 1, 0), ((3,), 2, 1), ((2,), 2, 0)]:
            check = orc.exact_moment(10, u, ms.ShiftTuple(v_off), p, h)
            assert check.satisfied
            assert check.r == 2

    def test_moment_is_pairing_count(self):
        # expectation of the product expansion counts exactly the even
        # assignments; cross-check by direct enumeration at n = 6, p = 1
        n, u2, v2 = 6, 1, 3
        check = orc.exact_moment(n, ms.ShiftTuple((u2,)), ms.ShiftTuple((v2,)), 1, 0)
        assert check.exact_moment.denominator == 1
        direct = 0
        for xs in product(range(1, n - u2 + 1), repeat=2):
            for ys in product(range(1, n - v2 + 1), repeat=2):
                entries = (xs + tuple(x + u2 for x in xs)
                           + ys + tuple(y + v2 for y in ys))
                if orc._is_even_tuple(entries):
                    direct += 1
        assert check.exact_moment == direct


class TestExactExpectedMeasure:
    def test_forced_value_at_n_equals_r(self):
        for r in (2, 3, 4):
            assert orc.exact_expected_measure(r, r) == 1

    def test_pinned_small_case(self):
        assert orc.exact_expected_measure(4, 2) == Fraction(9, 4)

    def test_scale_guard(self):
        with pytest.raises(ResourceLimitError):
            orc.exact_expected_measure(17, 2)


class TestExactTail:
    def test_edges(self):
        u = ms.ShiftTuple((2,))
        assert orc.exact_tail(12, u, 0) == 1
        assert orc.exact_tail(12, u, 11) == 0  # beyond n - u_r = 10 steps

    def test_rejects_non_finite_lam(self):
        for lam in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lam"):
                orc.exact_tail(12, ms.ShiftTuple((2,)), lam)

    def test_pinned_binomial_value(self):
        got = orc.exact_tail(12, ms.ShiftTuple((2,)), 4)
        assert got == Fraction(352, 1024) == Fraction(11, 32)

    def test_monotone_in_lambda(self):
        u = ms.ShiftTuple((3,))
        tails = [orc.exact_tail(15, u, lam) for lam in range(0, 14)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_matches_sequence_enumeration(self):
        # the product steps act independently, so the binomial reduction must
        # equal a literal scan over all sequences
        for n, u2, lam in [(8, 2, 3), (9, 1, 2), (10, 4, 4)]:
            u = ms.ShiftTuple((u2,))
            hits = sum(
                1 for seq in sc.enumerate_all(n)
                if abs(ms.correlation_sum(seq, u)) >= lam)
            assert orc.exact_tail(n, u, lam) == Fraction(hits, 1 << n)

    def test_matches_enumeration_for_every_tuple(self):
        for n in range(2, 13):
            for k in range(1, min(3, n - 1) + 1):
                for offsets in orc.colex_offsets(n, k):
                    u = ms.ShiftTuple(offsets)
                    sums = np.abs(orc._correlation_sums_all(n, u))
                    for lam in (0, 1, 2.5, n / 2, n):
                        want = Fraction(int((sums >= lam).sum()), 1 << n)
                        assert orc.exact_tail(n, u, lam) == want, (n, offsets, lam)

    def test_hoeffding_consistency(self):
        for n in (10, 14, 18):
            for u2 in (1, 3):
                u = ms.ShiftTuple((u2,))
                steps = n - u2
                for lam in np.linspace(0.5, steps, 8):
                    tail = orc.exact_tail(n, u, float(lam))
                    assert tail <= 2 * math.exp(-lam ** 2 / (2 * steps)) + 1e-15

    def test_scale_guard(self):
        with pytest.raises(ResourceLimitError):
            orc.exact_tail(21, ms.ShiftTuple((1,)), 2)


class TestNaiveRange:
    def test_matches_fast_range(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            n = int(rng.integers(1, 128))
            seq = sc.random_sequence(n, sc.SeedSpec(int(rng.integers(0, 2 ** 32)), 0))
            assert orc.naive_range(seq) == ms.range_of_walk(seq)
