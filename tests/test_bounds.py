import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from corrlab import ResourceLimitError
from corrlab import bounds as bd
from corrlab import measures as ms
from corrlab import seqcore as sc

B = sc.BinarySequence.from_symbols


class TestBinomial:
    def test_values(self):
        assert bd.binomial(10, 3) == 120
        assert bd.binomial(7, 0) == 1
        assert bd.binomial(7, 7) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            bd.binomial(3, 5)
        with pytest.raises(ValueError):
            bd.binomial(-1, 0)
        with pytest.raises(ValueError):
            bd.binomial(4, -2)

    def test_sandwich_bound(self):
        # (n/k)^k <= C(n,k) <= (e n/k)^k for 1 <= k <= n <= 60
        for n in range(1, 61):
            for k in range(1, n + 1):
                c = bd.binomial(n, k)
                assert Fraction(n, k) ** k <= c
                assert c <= (math.e * n / k) ** k * (1 + 1e-12)

    def test_log_binomial_precision(self):
        cases = [(10, 3), (60, 30), (500, 7), (4096, 2048), (10 ** 6, 3), (10 ** 7, 12)]
        for n, k in cases:
            want = math.log(math.comb(n, k))
            assert bd.log_binomial(n, k) == pytest.approx(want, rel=1e-12)
        assert bd.log_binomial(9, 0) == 0.0

    def test_log_binomial_huge_falls_back(self):
        # far past the digit cap; log-gamma keeps it finite and sane
        val = bd.log_binomial(10 ** 6, 500000)
        assert 0 < val < 10 ** 6


class TestDoubleFactorial:
    def test_values(self):
        assert bd.double_factorial_odd(1) == 1
        assert bd.double_factorial_odd(3) == 15
        assert bd.double_factorial_odd(5) == 945

    def test_pairing_identity(self):
        for k in range(1, 16):
            assert bd.double_factorial_odd(k) * math.factorial(k) * 2 ** k \
                == math.factorial(2 * k)

    def test_domain(self):
        with pytest.raises(ValueError):
            bd.double_factorial_odd(0)


class TestWelchBound:
    def test_basic_value(self):
        wb = bd.welch_bound(4, 8, 1)
        assert not wb.vacuous
        assert wb.value == pytest.approx(math.sqrt(16 / 7), rel=1e-12)

    def test_vacuous_at_equality(self):
        ell, k = 5, 2
        m = math.comb(ell + k - 1, k)
        assert bd.welch_bound(ell, m, k) == bd.WelchBound(0.0, True)
        assert bd.welch_bound(2, 2, 3).vacuous  # m below the binomial

    def test_even_order_chain(self):
        # with m = 2*ell and k = 1 the squared bound exceeds ell/2
        for ell in (2, 4, 10, 64):
            wb = bd.welch_bound(ell, 2 * ell, 1)
            assert wb.value ** 2 > ell / 2

    def test_domain(self):
        with pytest.raises(ValueError):
            bd.welch_bound(0, 4, 1)
        with pytest.raises(ValueError):
            bd.welch_bound(4, 1, 1)
        with pytest.raises(ValueError):
            bd.welch_bound(4, 4, 0)


class TestVectorFamily:
    def test_identical_vectors(self):
        fam = bd.VectorFamily(5, np.ones((2, 5), dtype=np.int8))
        assert bd.max_offdiag_scalar(fam) == 5

    def test_orthogonal_vectors(self):
        fam = bd.VectorFamily(4, np.array([[1, 1, 1, 1], [1, -1, 1, -1]], dtype=np.int8))
        assert bd.max_offdiag_scalar(fam) == 0

    def test_matches_gram_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 20))
            ell = int(rng.integers(1, 24))
            mat = 1 - 2 * rng.integers(0, 2, size=(m, ell)).astype(np.int8)
            gram = mat.astype(np.int32) @ mat.astype(np.int32).T
            np.fill_diagonal(gram, 0)
            assert bd.max_offdiag_scalar(bd.VectorFamily(ell, mat)) \
                == int(np.abs(gram).max())

    def test_validation(self):
        with pytest.raises(ValueError):
            bd.VectorFamily(3, np.ones((1, 3), dtype=np.int8))
        with pytest.raises(ValueError):
            bd.VectorFamily(3, np.zeros((2, 3), dtype=np.int8))
        with pytest.raises(ValueError):
            bd.VectorFamily(4, np.ones((2, 3), dtype=np.int8))

    @pytest.mark.parametrize("mat", [
        np.array([[257, 1], [1, 1]]), np.array([[-255, 1], [1, 1]]),
        np.array([[1.5, 1], [1, 1]]), np.array([[255, 1], [1, 1]], dtype=np.uint8)])
    def test_rejects_values_that_wrap_to_pm1(self, mat):
        # each of these becomes ±1 under an int8 cast
        with pytest.raises(ValueError, match="±1"):
            bd.VectorFamily(2, mat)

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(11)
        families = [np.array([[1, -1, 1], [-1, 1, -1]], dtype=np.int8)]  # v and -v
        for m in (2, 3, 17, 80):
            ell = int(rng.integers(1, 40))
            mat = 1 - 2 * rng.integers(0, 2, size=(m, ell)).astype(np.int8)
            families.append(mat)
            families.append(np.vstack([mat, -mat[:1]]))  # holds v and -v
        for mat in families:
            rows = [[int(x) for x in row] for row in mat]
            want = max(abs(sum(x * y for x, y in zip(rows[i], rows[j])))
                       for i in range(len(rows)) for j in range(len(rows)) if i != j)
            assert bd.max_offdiag_scalar(bd.VectorFamily(mat.shape[1], mat)) == want

    def test_welch_dominance_random(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(60):
            ell = int(rng.integers(1, 33))
            m = int(rng.integers(2, 65))
            mat = 1 - 2 * rng.integers(0, 2, size=(m, ell)).astype(np.int8)
            achieved = bd.max_offdiag_scalar(bd.VectorFamily(ell, mat))
            for k in (1, 2, 3):
                wb = bd.welch_bound(ell, m, k)
                if not wb.vacuous:
                    checked += 1
                    assert achieved >= wb.value - 1e-9
        assert checked > 50


class TestEvenOrderCertificate:
    def test_construction_shape(self):
        seq = B([1, -1, 1, 1, -1, -1, 1])
        fam = bd.theoremC_construction(seq, 1)
        assert fam.ell == 2 and fam.m == 6
        arr = seq.to_array()
        for i in range(6):
            assert np.array_equal(fam.matrix[i], arr[i:i + 2])

    def test_construction_constant(self):
        fam = bd.theoremC_construction(sc.all_ones(15), 2)
        assert fam.ell == 3 and fam.m == 6
        assert bd.max_offdiag_scalar(fam) == 3

    def test_construction_matches_block_products(self):
        rng = np.random.default_rng(13)
        for n in range(1, 41):
            seq = sc.random_sequence(n, sc.SeedSpec(int(rng.integers(0, 2 ** 32)), 0))
            a = seq.symbols()
            for r in (1, 2, 3):
                ell = n // (2 * r + 1)
                if ell < 1:
                    continue
                m = (n - ell + 1) // r
                want = [[math.prod(a[x + j] for x in range(i * r, i * r + r))
                         for j in range(ell)] for i in range(m)]
                fam = bd.theoremC_construction(seq, r)
                assert (fam.ell, fam.m) == (ell, m)
                assert fam.matrix.tolist() == want

    def test_construction_empty(self):
        with pytest.raises(ValueError):
            bd.theoremC_construction(sc.all_ones(4), 2)

    def test_scalar_products_bound_measure(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(15, 22))
            seq = sc.random_sequence(n, sc.SeedSpec(int(rng.integers(0, 2 ** 32)), 0))
            fam = bd.theoremC_construction(seq, 2)
            c4 = ms.correlation_measure_exact(seq, 4).value
            assert c4 >= bd.max_offdiag_scalar(fam)

    def test_certify_single(self):
        rep = bd.certify_theoremC(sc.alternating(14), 1)
        assert rep.bound_value == pytest.approx(math.sqrt(2))
        assert rep.satisfied

    def test_certify_trivial_below_construction(self):
        rep = bd.certify_theoremC(sc.all_ones(4), 2)  # n < 2r+1: bound is 0
        assert rep.bound_value == 0.0
        assert rep.satisfied

    def test_certify_domain(self):
        with pytest.raises(ValueError):
            bd.certify_theoremC(sc.all_ones(5), 3)  # 2r > n

    def test_exhaustive_small(self):
        rep = bd.certify_theoremC_all(10, 1)
        assert rep.satisfied
        assert rep.achieved_value >= 2  # integer measure above sqrt(floor(10/3)/2)

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_exhaustive_is_min_of_single_certificates(self, n):
        seqs = list(sc.enumerate_all(n))
        for r in (1, 2):
            want = min(bd.certify_theoremC(seq, r).achieved_value for seq in seqs)
            assert bd.certify_theoremC_all(n, r).achieved_value == want


class TestExhaustiveOrbits:
    def test_representatives_are_every_fourth_sequence(self):
        for n in range(2, 17):  # n = 16: runs of 2^13 columns
            cols = sc._orbit_representatives(n)
            assert cols.dtype == np.int8 and cols.flags.c_contiguous
            assert np.array_equal(cols.T, sc.all_sequences_matrix(n)[::4])

    @pytest.mark.parametrize("n", range(2, 15))
    def test_worst_equals_full_enumeration(self, n):
        orders = list(range(2, n + 1, 2))
        mat = sc.all_sequences_matrix(n)
        running = np.zeros(mat.shape[0], dtype=np.int32)
        want = []
        for r in orders:
            np.maximum(running, ms.exact_values_batch(mat, r), out=running)
            want.append(int(running.min()))
        assert bd._exhaustive_worst(n, orders) == want

    def test_pinned_values(self):
        assert bd._exhaustive_worst(16, [2, 4, 6, 8, 10]) == [4, 7, 7, 8, 8]
        rep = bd.certify_theoremC_all(20, 2)
        assert rep.achieved_value == 8
        assert rep.construction["sequences"] == 1 << 20

    @pytest.mark.parametrize("certify", [lambda: bd.certify_theoremC_all(25, 1),
                                         lambda: bd.certify_theorem_max_all(25, [1])],
                             ids=["theoremC", "max"])
    def test_limit_is_checked_before_allocating(self, certify):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="exceeds the limit n <= 24"):
                certify()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestMaxCertificate:
    def test_lower_bound_trivial(self):
        rep = bd.certify_theorem_max(sc.alternating(9), 1)
        assert rep.bound_value == pytest.approx(1 / 3)
        assert rep.satisfied

    def test_alternating_even_orders(self):
        rep = bd.certify_theorem_max(sc.alternating(12), 2)
        assert rep.bound_value == pytest.approx(math.sqrt(24) / 9)
        assert rep.achieved_value >= 2
        assert rep.satisfied

    def test_domain(self):
        with pytest.raises(ValueError):
            bd.certify_theorem_max(sc.all_ones(8), 3)  # 3s > n

    def test_exhaustive_reuses_orders(self):
        reports = bd.certify_theorem_max_all(9)
        assert [r.construction["s"] for r in reports] == [1, 2, 3]
        assert all(r.satisfied for r in reports)

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_exhaustive_is_min_of_single_certificates(self, n):
        seqs = list(sc.enumerate_all(n))
        reports = bd.certify_theorem_max_all(n)
        assert [rep.construction["s"] for rep in reports] == list(range(1, n // 3 + 1))
        for rep in reports:
            s = rep.construction["s"]
            want = min(bd.certify_theorem_max(seq, s).achieved_value for seq in seqs)
            assert rep.achieved_value == want

    def test_exhaustive_s_values_are_a_set(self):
        assert bd.certify_theorem_max_all(9, [3, 1, 3]) == bd.certify_theorem_max_all(9, [1, 3])
        assert bd.certify_theorem_max_all(9, []) == []

    def test_limit_constant_documented(self):
        assert bd.MAX_THEOREM_FLOOR == pytest.approx(1 / 9)
        assert bd.MAX_THEOREM_LIMIT_CONSTANT == pytest.approx(0.2476, abs=1e-4)


class TestFRatio:
    def test_examples(self):
        assert bd.f_ratio(9, 3) == Fraction(35, 10)
        for n in range(3, 40):
            ell = n // 3
            assert bd.f_ratio(n, 1) == Fraction(n - ell + 1, ell)

    def test_exceeds_two_on_domain(self):
        for n in range(3, 61):
            for s in range(1, n // 3 + 1):
                assert bd.f_ratio(n, s) > 2

    def test_unimodal(self):
        for n in range(6, 61):
            ell = n // 3
            turn = (n - 2 * ell + 2) / 2
            vals = [bd.f_ratio(n, s) for s in range(1, ell + 1)]
            for s in range(1, ell):
                if s + 1 <= turn:
                    assert vals[s] >= vals[s - 1]
                if s >= turn:
                    assert vals[s] <= vals[s - 1]

    def test_domain(self):
        with pytest.raises(ValueError):
            bd.f_ratio(9, 4)
        with pytest.raises(ValueError):
            bd.f_ratio(2, 1)


class TestBoundReport:
    def test_serializable(self):
        rep = bd.certify_theoremC(sc.alternating(10), 1)
        payload = rep.to_dict()
        assert set(payload) == {"bound_value", "achieved_value", "satisfied",
                                "construction"}
        import json
        assert json.loads(json.dumps(payload)) == payload

    def test_equality_is_not_enough(self):
        # the minimum-value bounds are strict
        assert not bd._report(2.0, 2, kind="x").satisfied
        assert bd._report(2.0, 3, kind="x").satisfied
