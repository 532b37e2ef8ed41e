"""Property tests tying the fast kernels to the literal oracles.

Inputs are bounded (n <= 14, r <= 4; the two batch layouts are compared up
to n = 80, r = 5 and 1,000 tuples, and the blocked word scan also at n = 1000
and 4097, r = 2, against the single-sequence word reduction, which goes up to
n = 80, r = 5 and 40 tuples, the walk ranges up to n = 80, the phase words
up to n = 70 plus 1000 and 4097, and packed rows with arbitrary bits past
n up to n = 20, r = 4; the popcount bound on every product is tied to the
unfiltered read at n = 2..80, r = 2..5, and at n = 1000 and 4097, r = 2, with
1..4 rows, 0..2 spare bytes and random bits past n, to the column scan up to
n = 80 and to the oracle up to n = 20) and the search is derandomized, so the
module runs in well under a minute and every run draws the same examples.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlab import measures as ms
from corrlab import oracles as orc
from corrlab import seqcore as sc

PROPERTY = settings(max_examples=300, derandomize=True, deadline=None)


@st.composite
def sequences(draw, min_n=1, max_n=14):
    n = draw(st.integers(min_n, max_n))
    return sc.BinarySequence(n, draw(st.integers(0, (1 << n) - 1)))


@st.composite
def sequence_and_order(draw):
    seq = draw(sequences(min_n=2))
    return seq, draw(st.integers(2, min(4, seq.length)))


@PROPERTY
@given(sequence_and_order())
def test_exact_equals_naive_and_replays(case):
    seq, r = case
    res = ms.correlation_measure_exact(seq, r)
    assert res.value == orc.naive_correlation_measure(seq, r)
    assert ms.replay_witness(seq, res) == res.value


@PROPERTY
@given(st.integers(2, 14).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(2, min(4, n)),
    st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))))
def test_batch_rows_equal_naive(case):
    n, r, payloads = case
    seqs = [sc.BinarySequence(n, bits) for bits in payloads]
    values = ms.exact_values_batch(np.stack([s.to_array() for s in seqs]), r)
    assert list(values) == [orc.naive_correlation_measure(s, r) for s in seqs]


@st.composite
def tall_or_wide_matrix(draw):
    """A ±1 matrix with 1..300 rows and n = 2..80: products shorter than a 16-bit
    word, a whole number of words and several words."""
    n = draw(st.integers(2, 80))
    top = max(r for r in range(2, min(5, n) + 1) if math.comb(n - 1, r - 1) <= 1000)
    rows = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return (1 - 2 * rng.integers(0, 2, size=(rows, n))).astype(np.int8), draw(st.integers(2, top))


@PROPERTY
@given(tall_or_wide_matrix())
def test_layouts_agree(case):
    mat, r = case
    by_words = ms._scan_words(sc._packed(mat), mat.shape[1], r)
    assert by_words.dtype == np.int32
    assert np.array_equal(by_words, ms._scan_columns(np.ascontiguousarray(mat.T), r))
    assert np.array_equal(by_words, ms.exact_values_batch(mat, r))


@st.composite
def blocked_scan_case(draw, lengths=(*range(2, 81), 1000, 4097), long_rows=40):
    """±1 rows for the blocked word scan: n from `lengths` (2..80, and 1000 or 4097 at
    r = 2), r = 2..5 with at most 1,000 tuples, 1..40 rows (1..`long_rows` past n = 80),
    at times an all +1 or an all -1 row among them, and a block cap: 16 words splits
    blocks inside a 16-shift phase group, 64 words at whole-word boundaries, 2^15 words
    at the cap."""
    n = draw(st.sampled_from(lengths))
    top = max(r for r in range(2, min(5, n) + 1) if r == 2 or math.comb(n - 1, r - 1) <= 1000)
    count = draw(st.integers(1, 40 if n <= 80 else long_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mat = (1 - 2 * rng.integers(0, 2, size=(count, n))).astype(np.int8)
    for value in (1, -1):
        row = draw(st.integers(0, 2 * count))
        if row < count:
            mat[row] = value
    return mat, draw(st.integers(2, top)), draw(st.sampled_from([16, 64, 1 << 15]))


@PROPERTY
@given(blocked_scan_case())
def test_blocked_word_scan_equals_columns_and_naive(case):
    """Every block of u_2 shifts gives the column scan's values (`_best_tuple`'s past
    n = 80), a constant row gives n - r + 1, and two rows match the oracle for n <= 20."""
    mat, r, block_words = case
    n = mat.shape[1]
    rows = sc._packed(mat)
    with mock.patch.object(ms, "_BLOCK_WORDS", block_words):
        got = ms._scan_words(rows, n, r)
    if n <= 80:
        want = ms._scan_columns(np.ascontiguousarray(mat.T), r).tolist()
    else:
        want = [ms._best_tuple(row, n, range(n - 1), 1)[0] for row in rows]
    assert got.tolist() == want
    constant = (mat == mat[:, :1]).all(axis=1)
    assert (got[constant] == n - r + 1).all()
    if n <= 20:
        for row, value in zip(mat[:2], got):
            assert value == orc.naive_correlation_measure(sc.BinarySequence.from_array(row), r)


@st.composite
def bound_scan_case(draw):
    """`blocked_scan_case` with n = 1000 or 4097 (1..4 rows) drawn about one time in six,
    packed into bytes with 0..2 spare bytes and random bits from n on. Past n = 80 a row's
    best pair is seldom among the first block's, so most pairs meet the bound."""
    mat, r, block_words = draw(blocked_scan_case((*range(2, 81), *(1000, 4097) * 8), 4))
    n = mat.shape[1]
    rows = np.pad(sc._packed(mat), ((0, 0), (0, draw(st.integers(0, 2)))))
    past = np.packbits(np.arange(8 * rows.shape[1]) >= n, bitorder="little")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows |= rng.integers(0, 256, size=rows.shape, dtype=np.uint8) & past
    return rows, mat, r, block_words


@PROPERTY
@given(bound_scan_case())
def test_bound_scan_equals_plain_scan_columns_and_naive(case):
    """With the popcount bound on every product, `_scan_words` gives the values of its
    unfiltered read, of the column scan for n <= 80 and of the oracle for n <= 20."""
    rows, mat, r, block_words = case
    n = mat.shape[1]
    with mock.patch.object(ms, "_BLOCK_WORDS", block_words):
        with mock.patch.object(ms, "_BOUND_WORDS", 0):
            got = ms._scan_words(rows, n, r)
        with mock.patch.object(ms, "_BOUND_WORDS", n):  # more words than any product holds
            plain = ms._scan_words(rows, n, r)
    assert got.dtype == np.int32
    assert got.tolist() == plain.tolist()
    if n <= 80:
        assert got.tolist() == ms._scan_columns(np.ascontiguousarray(mat.T), r).tolist()
    constant = (mat == mat[:, :1]).all(axis=1)
    assert (got[constant] == n - r + 1).all()
    if n <= 20:
        for row, value in zip(mat[:2], got):
            assert value == orc.naive_correlation_measure(sc.BinarySequence.from_array(row), r)


@PROPERTY
@given(st.one_of(st.integers(1, 70), st.sampled_from([1000, 4097])),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))
def test_phase_words_are_shifted_packed_rows(n, seed, fold):
    """Phase p of `_pack_phases` is the row's bits from p on, packed and zero-padded."""
    rng = np.random.default_rng(seed)
    rows = sc._packed((1 - 2 * rng.integers(0, 2, size=(3, n))).astype(np.int8))  # zero past n
    words = fold * -(-n // 16)
    phases = ms._pack_phases(rows, n, words)
    assert phases.shape == (16, 3, words) and phases.dtype == np.uint16
    symbols = sc._symbols(rows, n)
    for p in range(16):
        want = np.zeros((3, 2 * words), dtype=np.uint8)
        packed = np.packbits(symbols[:, p:] < 0, axis=1, bitorder="little")
        want[:, :packed.shape[1]] = packed
        assert np.array_equal(phases[p], want.view("<u2")), p


@st.composite
def packed_rows_and_order(draw):
    """Byte rows of n = 2..20 bits plus 0..2 spare bytes, with arbitrary bits from
    n on, and up to max(2048 (r - 1), 16 n) + 8 of them (tall batches at small
    n), whose first n bits take at most six distinct values, so the oracle runs
    six times."""
    n = draw(st.integers(2, 20))
    r = draw(st.integers(2, min(4, n)))
    payloads = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    edge = max(2048 * (r - 1), 16 * n)
    count = draw(st.one_of(st.integers(1, edge + 8), st.sampled_from([edge - 1, edge])))
    width = -(-n // 8) + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pick = rng.integers(0, len(payloads), size=count)
    low, keep = (np.frombuffer(b"".join(bits.to_bytes(width, "little") for bits in values),
                               dtype=np.uint8).reshape(-1, width)
                 for values in (payloads, [(1 << n) - 1]))
    rows = low[pick] | (rng.integers(0, 256, size=(count, width), dtype=np.uint8) & ~keep)
    return rows, n, r, [sc.BinarySequence(n, payloads[i]) for i in pick]


@PROPERTY
@given(packed_rows_and_order())
def test_word_scan_reads_the_first_n_bits(case):
    rows, n, r, seqs = case
    naive = {s.bits: orc.naive_correlation_measure(s, r) for s in set(seqs)}
    got = ms._scan_words(rows, n, r)
    assert got.dtype == np.int32
    assert got.tolist() == [naive[s.bits] for s in seqs]


@st.composite
def sequence_and_ranks(draw):
    """A sequence of n = 2..80 (products shorter than a word, whole words and
    several words), colex ranks in stream order with repeats, and a block size."""
    seq = draw(sequences(min_n=2, max_n=80))
    k = draw(st.integers(1, min(4, seq.length - 1)))
    total = math.comb(seq.length - 1, k)
    ranks = draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=40))
    return seq, k, ranks, draw(st.sampled_from([16, 64, 1 << 15]))


@PROPERTY
@given(sequence_and_ranks())
def test_best_tuple_is_first_maximizer(case):
    seq, k, ranks, block_words = case
    tuples = [orc.colex_unrank(q, k) for q in ranks]
    ranges = [ms.range_of_walk(ms.product_sequence(seq, ms.ShiftTuple(t))) for t in tuples]
    with mock.patch.object(ms, "_BLOCK_WORDS", block_words):  # 16 words: blocks of 3 to 16 rows
        got = ms._best_tuple(seq._bytes(), seq.length, ranks, k)
    assert got == (max(ranges), tuples[ranges.index(max(ranges))])


@PROPERTY
@given(st.lists(sequences(max_n=80), min_size=1, max_size=6))
def test_ranges_equal_naive(seqs):
    want = [orc.naive_range(s) for s in seqs]
    assert [ms.range_of_walk(s) for s in seqs] == want
    for s, w in zip(seqs, want):
        assert ms.range_values_batch(s.to_array()[None, :])[0] == w


@PROPERTY
@given(sequence_and_order(), st.integers(1, 40), st.integers(0, 2 ** 32))
def test_sampled_replays_and_never_exceeds_exact(case, budget, seed):
    seq, r = case
    sampled = ms.correlation_measure_sampled(seq, r, budget, sc.SeedSpec(seed, 0))
    assert ms.replay_witness(seq, sampled) == sampled.value
    assert sampled.value <= ms.correlation_measure_exact(seq, r).value
