import math
import random
from unittest import mock

import numpy as np
import pytest

from corrlab import ResourceLimitError
from corrlab import experiments as xp
from corrlab import measures as ms
from corrlab import oracles as orc
from corrlab import seqcore as sc

B = sc.BinarySequence.from_symbols


def random_seq(rng, n):
    return sc.random_sequence(n, sc.SeedSpec(int(rng.integers(0, 2 ** 63)), 0))


class TestShiftTuple:
    def test_order(self):
        t = ms.ShiftTuple((1, 4, 9))
        assert t.order == 4
        assert t.max_offset == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            ms.ShiftTuple(())
        with pytest.raises(ValueError):
            ms.ShiftTuple((0,))
        with pytest.raises(ValueError):
            ms.ShiftTuple((2, 2))
        with pytest.raises(ValueError):
            ms.ShiftTuple((3, 1))
        with pytest.raises(ValueError):
            ms.ShiftTuple((5,)).validate_for(5)


class TestColexEnumeration:
    def test_first_tuples(self):
        got = list(orc.colex_offsets(5, 2))
        assert got == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]

    # (5, 4): k = n - 1; (5, 5): k > n - 1, empty; (2001, 2000): deeper than the recursion limit
    @pytest.mark.parametrize("n,k", [(8, 1), (8, 2), (8, 3), (10, 4), (5, 4), (5, 5),
                                     (2001, 2000)])
    def test_complete_and_colex_sorted(self, n, k):
        got = list(orc.colex_offsets(n, k))
        assert len(got) == math.comb(n - 1, k)
        assert len(set(got)) == len(got)
        assert got == sorted(got, key=lambda t: tuple(reversed(t)))

    def test_rank_unrank_round_trip(self):
        for k in (1, 2, 3):
            for rank, offs in enumerate(orc.colex_offsets(9, k)):
                assert orc.colex_rank(offs) == rank
                assert orc.colex_unrank(rank, k) == offs

    def test_unrank_large(self):
        rank = math.comb(10 ** 6, 4) // 3
        offs = orc.colex_unrank(rank, 4)
        assert orc.colex_rank(offs) == rank

    @staticmethod
    def check_vector_unrank(ranks, k, n):
        got = ms._unrank(ranks, k, n)
        assert got.dtype == np.int64 and got.shape == (len(ranks), k)
        rows = [tuple(row) for row in got.tolist()]
        assert rows == [orc.colex_unrank(q, k) for q in ranks]
        assert [orc.colex_rank(row) for row in rows] == list(ranks)

    def test_vector_unrank_full_spaces(self):
        for n in range(2, 13):
            for k in range(n):  # k = 0: the empty tuple; k = 1: offset 1 + rank, no search
                total = math.comb(n - 1, k)
                self.check_vector_unrank(range(total), k, n)
                assert [tuple(row) for row in ms._unrank(list(range(total)), k, n).tolist()] \
                    == (list(orc.colex_offsets(n, k)) if k else [()])

    @pytest.mark.parametrize("size", [1, 3, 16])
    def test_rank_blocks_enumerate_colex_order(self, size):
        """Every kernel's tuples come from `_rank_blocks`; blocks of 1, 3 and 16 ranks split
        the order at every point."""
        for n in range(2, 15):
            for k in range(n + 1):  # k = n: no tuple
                want = list(orc.colex_offsets(n, k)) if k else [()]
                blocks = ms._rank_blocks(range(math.comb(n - 1, k)), k, n, size)
                assert [tuple(t) for block in blocks for t in block.tolist()] == want, (n, k)

    def test_vector_unrank_random_ranks(self):
        rng = random.Random(5)
        total = math.comb(255, 5)
        self.check_vector_unrank([rng.randrange(total) for _ in range(500)], 5, 256)

    # C(66, 33) is just below 2^63 (int64 ranks), C(2999, 9) and C(255, 12) above it (Python
    # ints), C(2^20, 1) a long single column
    @pytest.mark.parametrize("n,k", [(67, 33), (3000, 9), (256, 12), (1 << 20, 1)])
    def test_vector_unrank_near_and_past_int64(self, n, k):
        total = math.comb(n - 1, k)
        rng = random.Random(n)
        ranks = [0, 1, total // 2, total - 1] + [rng.randrange(total) for _ in range(50)]
        self.check_vector_unrank(ranks, k, n)
        self.check_vector_unrank(range(total - 3, total), k, n)

    def test_vector_unrank_r_equals_n(self):
        # one tuple, though the middle binomials C(99, 49) pass 2^63
        self.check_vector_unrank(range(1), 99, 100)
        assert ms._unrank([0], 99, 100).tolist() == [list(range(1, 100))]


class TestProductSequence:
    def test_adjacent_pairs(self):
        assert ms.product_sequence(B([1, 1, -1, -1]), ms.ShiftTuple((1,))).symbols() \
            == (1, -1, 1)

    def test_all_ones(self):
        assert ms.product_sequence(sc.all_ones(6), ms.ShiftTuple((2, 3))).symbols() \
            == (1, 1, 1)

    def test_alternating_triple(self):
        assert ms.product_sequence(sc.alternating(5), ms.ShiftTuple((1, 2))).symbols() \
            == (-1, 1, -1)

    def test_offset_too_large(self):
        with pytest.raises(ValueError):
            ms.product_sequence(sc.all_ones(4), ms.ShiftTuple((4,)))

    def test_matches_direct_product(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            seq = random_seq(rng, n)
            k = int(rng.integers(1, min(4, n - 1) + 1))
            offs = tuple(sorted(rng.choice(np.arange(1, n), size=k, replace=False)))
            t = ms.ShiftTuple(offs)
            arr = seq.to_array()
            length = n - t.max_offset
            direct = arr[:length].copy()
            for u in offs:
                direct = direct * arr[u:u + length]
            assert np.array_equal(ms.product_sequence(seq, t).to_array(), direct)


class TestCorrelationSum:
    def test_examples(self):
        assert ms.correlation_sum(sc.all_ones(7), ms.ShiftTuple((3,))) == 4
        assert ms.correlation_sum(sc.alternating(6), ms.ShiftTuple((1,))) == -5
        assert ms.correlation_sum(B([1, 1, -1, -1]), ms.ShiftTuple((2,))) == -2

    def test_parity_and_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(3, 60))
            seq = random_seq(rng, n)
            u = int(rng.integers(1, n))
            s = ms.correlation_sum(seq, ms.ShiftTuple((u,)))
            assert abs(s) <= n - u
            assert (s - (n - u)) % 2 == 0


class TestRangeOfWalk:
    def test_examples(self):
        assert ms.range_of_walk(sc.all_ones(3)) == 3
        assert ms.range_of_walk(sc.alternating(4)) == 1
        assert ms.range_of_walk(B([1, 1, -1, -1, -1, 1])) == 3

    def test_equals_naive_double_maximum(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(1, 513))
            seq = random_seq(rng, n)
            assert ms.range_of_walk(seq) == orc.naive_range(seq)


class TestCorrelationMeasureExact:
    def test_alternating_odd_order(self):
        assert ms.correlation_measure_exact(sc.alternating(9), 3).value == 1

    def test_constant_sequence(self):
        assert ms.correlation_measure_exact(sc.all_ones(6), 2).value == 5

    def test_witness_example(self):
        res = ms.correlation_measure_exact(B([1, 1, 1, -1]), 2)
        assert res.value == 2
        assert res.witness_tuple.offsets == (1,)
        # earliest window realizing the prefix range; replays to the value
        assert ms.replay_witness(B([1, 1, 1, -1]), res) == 2

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ms.correlation_measure_exact(sc.all_ones(5), 1)
        with pytest.raises(ValueError):
            ms.correlation_measure_exact(sc.all_ones(5), 6)

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            ms.correlation_measure_exact(sc.all_ones(64), 6, work_budget=10 ** 6)

    def test_witness_replay_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(4, 24))
            r = int(rng.integers(2, min(5, n) + 1))
            seq = random_seq(rng, n)
            res = ms.correlation_measure_exact(seq, r)
            assert ms.replay_witness(seq, res) == res.value
            assert res.exact
            m1, m2 = res.witness_window
            assert 1 <= m1 <= m2 <= n - res.witness_tuple.max_offset

    def test_value_bounds(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(4, 20))
            r = int(rng.integers(2, min(5, n) + 1))
            val = ms.correlation_measure_exact(random_seq(rng, n), r).value
            assert 1 <= val <= n - r + 1

    def test_witness_is_first_colex_maximizer(self):
        rng = np.random.default_rng(41)
        seqs = [random_seq(rng, int(rng.integers(5, 14))) for _ in range(30)]
        # n=128 has 8,001 tuples in two blocks, n=256 has 32,385 in sixteen
        seqs += [sc.random_sequence(128, sc.SeedSpec(s, 0)) for s in (0, 21)]
        seqs.append(sc.random_sequence(256, sc.SeedSpec(3, 0)))
        maximizers = []
        for seq in seqs:
            res = ms.correlation_measure_exact(seq, 3)
            ranges = [ms.range_of_walk(ms.product_sequence(seq, ms.ShiftTuple(offs)))
                      for offs in orc.colex_offsets(seq.length, 2)]
            assert res.value == max(ranges)
            maximizers.append([q for q, v in enumerate(ranges) if v == res.value])
            assert orc.colex_rank(res.witness_tuple.offsets) == maximizers[-1][0]
        # seed 3 at n=256 reaches its maximum in more than one block (16 words a row)
        block = ms._BLOCK_WORDS // 16
        assert len({q // block for q in maximizers[-1]}) > 1


class TestSymmetries:
    @pytest.mark.parametrize("r", [2, 3])
    def test_negation_and_reversal_exhaustive(self, r):
        for n in range(max(r, 2), 11):
            mat = sc.all_sequences_matrix(n)
            values = ms.exact_values_batch(mat, r)
            neg = ms.exact_values_batch(-mat, r)
            rev = ms.exact_values_batch(mat[:, ::-1], r)
            assert np.array_equal(values, neg)
            assert np.array_equal(values, rev)

    def test_negation_reversal_exhaustive_n12(self):
        mat = sc.all_sequences_matrix(12)
        for r in (2, 3):
            values = ms.exact_values_batch(mat, r)
            assert np.array_equal(values, ms.exact_values_batch(-mat, r))
            assert np.array_equal(values, ms.exact_values_batch(mat[:, ::-1], r))

    def test_alternation_fixes_even_orders(self):
        for n in range(2, 11):
            mat = sc.all_sequences_matrix(n)
            alternated = mat * (-1) ** np.arange(1, n + 1, dtype=np.int8)  # a_j -> (-1)^j a_j
            for r in range(2, n + 1, 2):
                assert np.array_equal(ms.exact_values_batch(mat, r),
                                      ms.exact_values_batch(alternated, r))

    def test_alternation_changes_odd_orders(self):
        mat = sc.all_sequences_matrix(6)
        alternated = mat * (-1) ** np.arange(1, 7, dtype=np.int8)
        assert not np.array_equal(ms.exact_values_batch(mat, 3),
                                  ms.exact_values_batch(alternated, 3))

    def test_monotone_extension_chains(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(8, 20))
            seq = random_seq(rng, n)
            r = int(rng.integers(2, 5))
            prev = None
            for m in range(r, n + 1):
                val = ms.correlation_measure_exact(seq.prefix(m), r).value
                if prev is not None:
                    assert val >= prev
                prev = val


class TestCorrelationMeasureSampled:
    def test_exhausted_budget_equals_exact(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(6, 16))
            seq = random_seq(rng, n)
            exact = ms.correlation_measure_exact(seq, 3).value
            sampled = ms.correlation_measure_sampled(seq, 3, math.comb(n - 1, 2),
                                                     sc.SeedSpec(1, 0))
            assert sampled.value == exact
            assert sampled.exact is False

    def test_single_tuple_budget(self):
        res = ms.correlation_measure_sampled(sc.all_ones(10), 3, 1, sc.SeedSpec(0, 0))
        assert 1 <= res.value <= 8

    def test_lower_bound_and_determinism(self):
        seq = sc.random_sequence(24, sc.SeedSpec(5, 0))
        exact = ms.correlation_measure_exact(seq, 4).value
        a = ms.correlation_measure_sampled(seq, 4, 1000, sc.SeedSpec(1, 0))
        b = ms.correlation_measure_sampled(seq, 4, 1000, sc.SeedSpec(1, 0))
        assert a == b
        assert a.value <= exact
        assert ms.replay_witness(seq, a) == a.value

    def test_with_replacement_regime(self):
        # budget above half the tuple space switches to replacement draws
        seq = sc.random_sequence(12, sc.SeedSpec(8, 0))
        total = math.comb(11, 1)
        res = ms.correlation_measure_sampled(seq, 2, total - 1, sc.SeedSpec(2, 0))
        assert res.value <= ms.correlation_measure_exact(seq, 2).value

    def test_large_space_lower_bound(self):
        seq = sc.random_sequence(64, sc.SeedSpec(9, 0))
        res = ms.correlation_measure_sampled(seq, 6, 100, sc.SeedSpec(3, 0))
        assert 1 <= res.value <= 64 - 6 + 1

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ms.correlation_measure_sampled(sc.all_ones(8), 2, 0, sc.SeedSpec(0, 0))

    def test_work_limit(self):
        seq = sc.random_sequence(256, sc.SeedSpec(4, 0))
        # budget * n at the limit passes, one more fails
        ms.correlation_measure_sampled(seq, 6, 10, sc.SeedSpec(0, 0), work_budget=10 * 256)
        with pytest.raises(ResourceLimitError, match="steps"):
            ms.correlation_measure_sampled(seq, 6, 11, sc.SeedSpec(0, 0), work_budget=10 * 256)
        # refused before the first draw: 10^7 tuples x 256 steps > DEFAULT_WORK_BUDGET
        with pytest.raises(ResourceLimitError, match="steps"):
            ms.correlation_measure_sampled(seq, 6, 10 ** 7, sc.SeedSpec(0, 0))
        # the limit counts the tuples taken: a budget above the tuple space is fine
        res = ms.correlation_measure_sampled(sc.all_ones(8), 3, 10 ** 12, sc.SeedSpec(0, 0))
        assert res.value == 6


def randrange_ranks(rng, total, budget, distinct):
    """The reference draw loop: one randrange per rank, first occurrences when distinct."""
    if distinct:
        seen = {}
        while len(seen) < budget:
            seen.setdefault(rng.randrange(total))
        return list(seen)
    return [rng.randrange(total) for _ in range(budget)]


class TestRankDraws:
    # bit lengths 3, 20, 32, 33 (2^32 itself), 34 (n = 256, r = 6), 64, then past 2^64:
    # 65 (2^64 itself and one more), 96, 97 and 133 (10^40); 15 (C(30, 4), where 20,000
    # ranks are drawn with replacement) and 1,094 (C(1099, 549), past 2^1024)
    @pytest.mark.parametrize("total", [5, 2 ** 20 - 1, 2 ** 32 - 1, 2 ** 32, math.comb(255, 5),
                                       2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 2 ** 96 - 1,
                                       2 ** 96 + 1, 10 ** 40, math.comb(30, 4),
                                       pytest.param(math.comb(1099, 549), id="C(1099,549)")])
    def test_bulk_draw_equals_randrange_loop(self, total):
        for seed in range(4):
            for budget in (1, 2, 3, 1000, 20000):
                for distinct in (True, False):
                    if distinct and budget > total // 2:
                        continue
                    want = randrange_ranks(random.Random(seed), total, budget, distinct)
                    assert ms._draw_ranks(random.Random(seed), total, budget, distinct) == want

    def test_many_repeats_draw_more(self):
        # half the space without replacement: most first rounds come up short
        want = randrange_ranks(random.Random(3), 4000, 2000, True)
        assert ms._draw_ranks(random.Random(3), 4000, 2000, True) == want

    @pytest.mark.parametrize("n, r, budget", [(24, 4, 700), (24, 4, 1000), (256, 6, 3000),
                                              (71, 36, 5)])  # the last space is past 2^64
    def test_sampled_measure_uses_the_loop_ranks(self, n, r, budget):
        seq = sc.random_sequence(n, sc.SeedSpec(5, 0))
        total = math.comb(n - 1, r - 1)
        ranks = randrange_ranks(sc.SeedSpec(1, 0).py_random(), total, budget, budget <= total // 2)
        assert ms.correlation_measure_sampled(seq, r, budget, sc.SeedSpec(1, 0)) == \
            ms._result(seq, ranks, r - 1, exact=False)

    def test_sampled_measure_past_float_range(self):
        # C(1099, 549) is past 2^1024, so no rank of this space converts to a float
        seq, r, seed = sc.random_sequence(1100, sc.SeedSpec(5, 0)), 550, sc.SeedSpec(1, 0)
        total = math.comb(1099, r - 1)
        ranks = randrange_ranks(seed.py_random(), total, 3, True)
        tuples = [orc.colex_unrank(q, r - 1) for q in ranks]
        ranges = [ms.range_of_walk(ms.product_sequence(seq, ms.ShiftTuple(t))) for t in tuples]
        got = ms.correlation_measure_sampled(seq, r, 3, seed)
        assert (got.value, got.witness_tuple.offsets) == \
            (max(ranges), tuples[ranges.index(max(ranges))])


class TestNormalization:
    def test_values(self):
        assert ms.normalization(16, 2).value == pytest.approx(math.sqrt(32 * math.log(16)), rel=1e-12)
        assert ms.normalization(3, 2).value == pytest.approx(2.567425506, rel=1e-8)
        assert ms.normalization(10, 3).value == pytest.approx(math.sqrt(20 * math.log(45)), rel=1e-12)

    def test_square_identity(self):
        for n, r in [(10, 2), (100, 3), (5000, 4), (12, 5)]:
            norm = ms.normalization(n, r)
            assert norm.value ** 2 == pytest.approx(2 * n * math.log(math.comb(n, r - 1)),
                                                    rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            ms.normalization(3, 3)
        with pytest.raises(ValueError):
            ms.normalization(10, 1)


class TestNormalizedRatio:
    def test_alternating(self):
        got = ms.normalized_ratio(sc.alternating(100), 3)
        assert got == pytest.approx(1 / math.sqrt(200 * math.log(math.comb(100, 2))), rel=1e-12)

    def test_all_ones(self):
        got = ms.normalized_ratio(sc.all_ones(100), 2)
        assert got == pytest.approx(99 / math.sqrt(200 * math.log(100)), rel=1e-12)

    def test_equals_oracle_ratio(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            n = int(rng.integers(5, 21))
            seq = random_seq(rng, n)
            want = orc.naive_correlation_measure(seq, 2) / ms.normalization(n, 2).value
            assert ms.normalized_ratio(seq, 2) == pytest.approx(want, rel=1e-12)


class TestBatchKernels:
    def test_matches_exact_random(self):
        rng = np.random.default_rng(59)
        for r in (2, 3, 4):
            seqs = [random_seq(rng, 18) for _ in range(40)]
            batch = ms.exact_values_batch(seqs, r)
            for seq, val in zip(seqs, batch):
                assert ms.correlation_measure_exact(seq, r).value == val

    def test_tuple_guard_runs_before_packing(self):
        # C(1999, 3) ~ 1.3e9 tuples, past the batch kernel's 1e8: refused before any phase
        # word is built
        def refuse(*_):
            raise AssertionError("_pack_phases ran before the tuple guard")
        with mock.patch.object(ms, "_pack_phases", refuse):
            with pytest.raises(ResourceLimitError, match="1.33e\\+09 tuples"):
                ms.exact_values_batch(np.ones((1, 2000), dtype=np.int8), 4)

    @pytest.mark.parametrize("r", [2, 3])
    def test_no_rows_no_values(self, r):
        got = ms.exact_values_batch(np.ones((0, 40), dtype=np.int8), r)
        assert got.dtype == np.int32 and got.shape == (0,)

    def test_worker_independence(self):
        rng = np.random.default_rng(61)
        mat = np.stack([random_seq(rng, 64).to_array() for _ in range(16)])
        base = ms.exact_values_batch(mat, 3, workers=1)
        for workers in (2, 5, 8):
            assert np.array_equal(base, ms.exact_values_batch(mat, 3, workers=workers))

    @pytest.mark.parametrize("bad", [
        np.array([[0, 1, 1, 0, 1]] * 3),
        np.full((2, 6), 3),
        np.array([[1.0, -1.0, 0.5, 1.0]]),
        np.array([[1, 257, 1, -1]]),
        np.empty((3, 0), dtype=np.int8),
    ])
    def test_rejects_entries_other_than_pm1(self, bad):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            ms.exact_values_batch(bad, 2)
        with pytest.raises(ValueError, match="-1 or \\+1"):
            ms.range_values_batch(bad)

    def test_range_batch(self):
        # every width 1..48: each residue mod 16, rows shorter than a word, whole words
        rng = np.random.default_rng(67)
        for n in range(1, 49):
            seqs = [sc.all_ones(n), *(random_seq(rng, n) for _ in range(6))]
            got = ms.range_values_batch(np.stack([s.to_array() for s in seqs]))
            assert got.dtype == np.int32
            assert [orc.naive_range(s) for s in seqs] == list(got)

    @pytest.mark.parametrize("n", [4097, 1000, 64])  # 513, 125 and 8 bytes: odd and even widths
    def test_block_reads_equal_the_whole_matrix_read(self, n):
        """`_packed_ranges` over blocks of 1 row wider than a block, and of 3 rows (the last
        of 1), equals one `_word_ranges` read of the whole matrix and the prefix-sum oracle,
        and so does the tail report's frequency; zero rows read as no ranges."""
        rows, words = sc._random_bits(n, 9, range(10)), -(-n // 16)
        whole = ms._word_ranges(np.pad(rows, ((0, 0), (0, rows.shape[1] % 2))).view("<u2"), n)
        walks = np.cumsum(sc._symbols(rows, n), axis=1, dtype=np.int32)
        oracle = np.maximum(walks.max(axis=1), 0) - np.minimum(walks.min(axis=1), 0)
        assert whole.tolist() == oracle.tolist()
        real, sizes = ms._word_ranges, []

        def read(prod, length):
            sizes.append(len(prod))
            return real(prod, length)

        for block_words, want in ((words - 1, [1] * 10), (3 * words, [3, 3, 3, 1])):
            sizes.clear()
            with mock.patch.object(ms, "_BLOCK_WORDS", block_words), \
                    mock.patch.object(ms, "_word_ranges", read):
                got, empty = ms._packed_ranges(rows, n), ms._packed_ranges(rows[:0], n)
            assert sizes == want
            assert got.dtype == np.int32 and got.tolist() == whole.tolist()
            assert empty.dtype == np.int32 and empty.shape == (0,)
        lam = 2.1 * math.sqrt(n)
        cfg = xp.ExperimentConfig(n_grid=(n,), samples=10, master_seed=9, lambda_grid=(lam,),
                                  delta=0.0)
        with mock.patch.object(ms, "_BLOCK_WORDS", 3 * words):
            rep = xp.check_range_tail(cfg)
        assert rep.rows[0].value == float((whole > lam).mean()) > 0

    # byte widths 513, 512, 125, 19 and 18 (odd and even; 257, 256, 63, 10 and 9 words, odd
    # and even), and 16 and 8 (rows under `_BOUND_WORDS` words, read whole)
    @pytest.mark.parametrize("n", [4097, 4096, 1000, 152, 144, 128, 64])
    def test_floor_reads_max_of_range_and_floor(self, n):
        """`_packed_ranges(rows, n, f)` is max(range, f) at floors 0, 1, the median range, n
        and n + 1, in one block and in blocks of 3 rows."""
        rows, words = sc._random_bits(n, 11, range(40)), -(-n // 16)
        plain = ms._packed_ranges(rows, n)
        for floor in (0, 1, int(np.median(plain)), n, n + 1):
            for block_words in (ms._BLOCK_WORDS, 3 * words):
                with mock.patch.object(ms, "_BLOCK_WORDS", block_words):
                    got = ms._packed_ranges(rows, n, floor)
                assert got.dtype == np.int32
                assert got.tolist() == np.maximum(plain, floor).tolist()

    @pytest.mark.parametrize("floor", [511, 512])
    def test_floor_at_an_all_clear_row(self, floor):
        # an all-clear row at n = 32 k walks +1 all the way, and its bound is its range, n
        n, rng = 512, np.random.default_rng(83)
        rows = np.stack([np.zeros(n // 8), rng.integers(0, 256, n // 8)]).astype(np.uint8)
        assert ms._range_bound(rows.view("<u2"))[0] == n
        assert ms._packed_ranges(rows, n, floor).tolist() == \
            np.maximum(ms._packed_ranges(rows, n), floor).tolist() == [n, floor]

    def test_floor_reads_few_rows_of_the_bench_tail(self):
        # 500 rows of the bench's tail shape: at its lowest threshold, 2.1 sqrt(n) (1 + 1),
        # the popcount bound sends fewer than one row in a hundred to `_word_ranges`
        n = 4096
        rows = sc._random_bits(n, 0, range(500))
        floor = math.floor(2.1 * math.sqrt(n) * 2)
        with mock.patch.object(ms, "_word_ranges", wraps=ms._word_ranges) as read:
            got = ms._packed_ranges(rows, n, floor)
        assert sum(call.args[0].shape[0] for call in read.call_args_list) < 5
        assert got.tolist() == np.maximum(ms._packed_ranges(rows, n), floor).tolist()

    def test_matches_naive_values_all(self):
        for n in range(2, 11):
            mat = sc.all_sequences_matrix(n)
            for r in range(2, min(4, n) + 1):
                assert np.array_equal(ms.exact_values_batch(mat, r), orc.naive_values_all(n, r))

    def test_int8_column_walk_at_127(self):
        # the column scan holds its walk in int8, which must fit every exhaustive length
        assert sc.EXHAUSTIVE_LIMIT < 128
        n = 127
        mat = np.stack([np.ones(n, dtype=np.int8), -np.ones(n, dtype=np.int8),
                        1 - 2 * np.random.default_rng(71).integers(0, 2, n).astype(np.int8)])
        by_columns = ms._scan_columns(np.ascontiguousarray(mat.T), 2)
        assert by_columns.dtype == np.int32
        assert np.array_equal(by_columns, ms._scan_words(sc._packed(mat), n, 2))
        assert by_columns[:2].tolist() == [n - 1, n - 1]

    def test_layouts_match_naive_values_all(self):
        # every order, odd ones and r = n (one tuple, products of length 1) included
        for n in range(2, 11):
            mat = sc.all_sequences_matrix(n)
            rows, cols = sc._packed(mat), np.ascontiguousarray(mat.T)
            for r in range(2, n + 1):
                want = orc.naive_values_all(n, r)
                by_words, by_columns = ms._scan_words(rows, n, r), ms._scan_columns(cols, r)
                assert by_words.dtype == by_columns.dtype == np.int32
                assert np.array_equal(by_words, want)
                assert np.array_equal(by_columns, want)

    def test_long_walk_uses_wide_prefix_sums(self):
        # 40,000 steps of +1 end at 40,000, which an int16 prefix sum would wrap
        assert ms.range_of_walk(sc.all_ones(40000)) == 40000
        assert list(ms.range_values_batch(np.ones((2, 40000), dtype=np.int8))) == [40000] * 2
        assert list(ms.exact_values_batch(np.ones((1, 40000), dtype=np.int8), 2)) == [39999]

    @pytest.mark.parametrize("groups", [1023, 1024, 1100])
    def test_range_bound_at_the_int16_edge(self, groups):
        # `_range_bound` sums in int16 below 1024 groups; all-set and all-clear rows reach
        # its largest value, 32 groups (their walks' ranges), which int16 holds only below 1024
        rng = np.random.default_rng(79)
        prod = np.stack([np.full(2 * groups, 0xFFFF), np.zeros(2 * groups),
                         np.repeat([0, 0xFFFF], groups),
                         rng.integers(0, 1 << 16, 2 * groups)]).astype(np.uint16)
        counts = np.bitwise_count(prod.view(np.uint32)).astype(np.int64) - 16
        walk = np.pad(counts.cumsum(axis=1), ((0, 0), (1, 0)))
        mid = walk[:, 1:] + walk[:, :-1]
        want = mid.max(axis=1) - mid.min(axis=1) + 32
        assert want[:2].tolist() == [32 * groups] * 2
        assert ms._range_bound(prod).tolist() == want.tolist()

    @pytest.mark.parametrize("words", [2047, 2048])
    def test_masked_ranges_at_the_int16_edge(self, words):
        # `_masked_ranges` sums in int16 below 2048 words; all-set and all-clear columns walk
        # 16 x words steps one way, which int16 holds only below 2048 words
        rng = np.random.default_rng(89)
        prod = np.stack([np.full(words, 0xFFFF), np.zeros(words),
                         rng.integers(0, 1 << 16, words)], axis=1).astype(np.uint16)
        got = ms._masked_ranges(prod, 16 * words)
        assert got.dtype == np.int32
        assert got.tolist() == [16 * words] * 2 + ms._word_ranges(prod[:, 2:].T, 16 * words).tolist()
        short = ms._masked_ranges(prod, np.array([16 * words - 7, 16 * words - 16, 1]))
        assert short.tolist() == [16 * words - 7, 16 * words - 16, 1]

    def test_bound_skips_most_pairs_of_the_bench_trend_cell(self):
        # 40 random rows of n = 2048 at r = 2, the shape of the benchmark's trend call: of
        # the pairs whose products hold `_BOUND_WORDS` words or more (u_2 <= 2048 - 16
        # (_BOUND_WORDS - 1)), the popcount bound sends fewer than one in a hundred to the
        # bounded reader `_read_pairs` and none to `_word_ranges`; after each row's
        # highest-bound pair (the first read), some rows have no pair left to read
        rows = np.random.default_rng(73).integers(0, 256, size=(40, 256), dtype=np.uint8)
        with mock.patch.object(ms, "_read_pairs", wraps=ms._read_pairs) as read, \
                mock.patch.object(ms, "_word_ranges", wraps=ms._word_ranges) as plain:
            got = ms._scan_words(rows, 2048, 2)
        assert all(call.args[0].shape[1] < ms._BOUND_WORDS for call in plain.call_args_list)
        lead, rest = (call.args[1] for call in read.call_args_list)
        assert 0 < len(lead) + len(rest) < 0.01 * 40 * (2048 - 16 * (ms._BOUND_WORDS - 1))
        assert set(range(40)) - set((rest % 40).tolist())
        with mock.patch.object(ms, "_BOUND_WORDS", 2048):  # more words than any product holds
            assert np.array_equal(got, ms._scan_words(rows, 2048, 2))

    def test_sampled_never_exceeds_exact_batch(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            seq = random_seq(rng, 24)
            exact = ms.correlation_measure_exact(seq, 4).value
            sampled = ms.correlation_measure_sampled(
                seq, 4, 10 ** 3, sc.SeedSpec(int(rng.integers(0, 2 ** 32)), 0))
            assert sampled.value <= exact
