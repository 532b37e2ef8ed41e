"""Property tests tying the fast kernels to the literal oracles.

Inputs are bounded (n <= 14, r <= 4; the two batch layouts are compared up
to n = 80, r = 5 and 1,000 tuples, and the blocked word scan also at n = 1000
and 4097, r = 2, against the single-sequence word reduction, which goes up to
n = 80, r = 5 and 40 tuples, the walk ranges up to n = 80, the phase words
up to n = 70 plus 1000 and 4097, and packed rows with arbitrary bits past
n up to n = 20, r = 4; the popcount bound on every product is tied to the
unfiltered read at n = 2..80, r = 2..5, and at n = 1000 and 4097, r = 2, with
1..4 rows, 0..2 spare bytes and random bits past n, to the column scan up to
n = 80 and to the oracle up to n = 20; blocks of the column walk are tied to the
one-tuple walk at n = 2..16, r = 2..8 with up to 2,000 tuples, the doubling running
sum to cumsum on 0..70 rows, the sampled witness to the first maximizer in stream
order at n = 3..24, r = 2..4 with up to 300 tuples, and the unranked rows to the colex
oracle at n = 2..70, just past 2^63 and, in two examples, past 2^1024) and the search is
derandomized, so the module runs in well under a minute and every run draws the
same examples. Reports of valid rows round-trip through both report formats.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrlab import experiments as xp
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
def blocked_scan_case(draw, lengths=(*range(2, 81), 1000, 4097), long_rows=40, tuples=1000):
    """±1 rows for the blocked word scan: n from `lengths` (2..80, and 1000 or 4097 at
    r = 2), r = 2..5 with at most `tuples` tuples, 1..40 rows (1..`long_rows` past n = 80),
    at times an all +1 or an all -1 row among them, and a block cap: 16 words splits
    blocks inside a 16-shift phase group, 64 words at whole-word boundaries, 2^15 words
    at the cap."""
    n = draw(st.sampled_from(lengths))
    top = max(r for r in range(2, min(5, n) + 1) if r == 2 or math.comb(n - 1, r - 1) <= tuples)
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
    """`blocked_scan_case` with n = 2..100 (r = 3 up to n = 100, so upper offsets pass 16
    and the bounded reads take the upper product as head and n - u_r as length) and n =
    1000 or 4097 (1..4 rows past n = 80) drawn about one time in seven, packed into bytes
    with 0..2 spare bytes and random bits from n on. Past n = 80 a row's best pair is seldom
    among the first block's, so most pairs meet the bound, and the read of a row's highest
    bound often rules out all its other pairs. One row in about three cases repeats a
    pattern of 1..4 symbols, so that products of one whole-word count tie at the row's
    highest bound. Caps of blocks (`_BLOCK_WORDS`): about a third are 8 x rows x (n // 16 +
    2) words, so that at r = 2 bound blocks after the first hold 32 u_2 or more, across two
    or more whole-word counts; a third are 3 x (n // 16 + 2) words, so that both read rounds
    cut gathered blocks of about three pairs of mixed widths; the drawn caps hold fewer (16
    and 64 words: one u_2 past n = 80). One case in about eight keeps no row."""
    mat, r, block_words = draw(blocked_scan_case((*range(2, 101), *(1000, 4097) * 8), 4, 5000))
    n = mat.shape[1]
    block_words = draw(st.sampled_from([block_words, 8 * len(mat) * (n // 16 + 2),
                                        3 * (n // 16 + 2)]))
    row = draw(st.integers(0, 3 * len(mat)))
    if row < len(mat):
        mat[row] = np.resize(draw(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4)), n)
    mat = mat[:0] if draw(st.integers(0, 7)) == 5 else mat
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
    assert got.dtype == np.int32 and got.shape == (len(mat),)
    assert got.tolist() == plain.tolist()
    if n <= 80 and len(mat):
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


@PROPERTY
@given(st.integers(0, 70), st.integers(1, 5), st.sampled_from([np.int16, np.int32]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_running_sum_is_cumsum(rows, cols, dtype, transposed, seed):
    """`_running_sum` is numpy's cumsum down axis 0, in place, in int16 and int32, on
    contiguous arrays and on transposed views."""
    x = np.random.default_rng(seed).integers(-400, 401, size=(rows, cols)).astype(dtype)
    want = np.cumsum(x, axis=0, dtype=dtype)  # |sum| <= 28,000 fits int16
    if transposed:
        x = np.ascontiguousarray(x.T).T
    got = ms._running_sum(x)
    assert got is x and got.dtype == dtype
    assert np.array_equal(got, want)


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


@st.composite
def sampled_case(draw):
    """A seeded random sequence of n = 3..24 (where many tuples tie at the maximum) or
    25..100 (products of 2 to 7 words, so that a chunk's width order moves most ranks), an
    order r = 2..4, a tuple budget from 1 to twice the space, at most 300 tuples (drawn
    without replacement up to half the space, with repeats above it, the whole space as a
    range at or past it), the draw's seed and a block size (16 words: chunks of 16 ranks
    and blocks of 16 // ceil(n / 16) tuples, so ties fall across blocks, width groups and
    chunks)."""
    n = draw(st.one_of(st.integers(3, 24), st.integers(25, 100)))
    seed = draw(st.integers(0, 2 ** 32))
    r = draw(st.integers(2, min(4, n)))
    total = math.comb(n - 1, r - 1)
    budget = draw(st.integers(1, 2 * total if total <= 150 else 300))
    return (sc.random_sequence(n, sc.SeedSpec(seed, 1)), r, budget, seed,
            draw(st.sampled_from([16, 64, 1 << 15])))


@PROPERTY
@given(sampled_case())
def test_sampled_witness_is_first_in_stream(case):
    """The sampled measure's value and witness are the first maximizer of its drawn ranks
    in stream order, read one tuple at a time, also where blocks, width groups or chunks
    tie."""
    seq, r, budget, seed, block_words = case
    total = math.comb(seq.length - 1, r - 1)
    ranks = (range(total) if budget >= total else
             ms._draw_ranks(sc.SeedSpec(seed, 0).py_random(), total, budget, budget <= total // 2))
    tuples = [orc.colex_unrank(q, r - 1) for q in ranks]
    ranges = [ms.range_of_walk(ms.product_sequence(seq, ms.ShiftTuple(t))) for t in tuples]
    with mock.patch.object(ms, "_BLOCK_WORDS", block_words):
        got = ms.correlation_measure_sampled(seq, r, budget, sc.SeedSpec(seed, 0))
    assert (got.value, got.witness_tuple.offsets) == (max(ranges), tuples[ranges.index(max(ranges))])


@st.composite
def unrank_case(draw):
    """A tuple space C(n - 1, k), n = 2..70 with k = 0, 1, n - 1 or any (or a space just
    past 2^63, whose top 1, 2 or 3 columns hold Python ints), 1..60 ranks in it and a range
    of 1..60 ranks. The ranks mix 0 and total - 1, uniform ranks, multiples of 2^j and one
    less (bucket starts and ends at every bucket width), ranks below 64 (the lowest, widest
    buckets), ranks of tuples whose offsets below a drawn one are 1, 2, ... (the rank left
    at that column is one of its entries) and one less, and repeats, in any order."""
    n, k = draw(st.one_of(
        st.integers(2, 70).flatmap(lambda n: st.tuples(
            st.just(n), st.one_of(st.sampled_from([0, 1, n - 1]), st.integers(0, n - 1)))),
        st.sampled_from([(68, 33), (69, 34), (70, 33)])))
    total = math.comb(n - 1, k)
    uniform, j = st.integers(0, total - 1), st.integers(0, total.bit_length())
    start = st.builds(lambda q, j: q >> j << j, uniform, j)

    def lowered(q, i):  # the rank of q's tuple with offsets 1..i below its (i + 1)-th
        offsets = orc.colex_unrank(q, k)
        return orc.colex_rank(tuple(range(1, i + 1)) + offsets[i:])

    ranks = draw(st.lists(st.one_of(
        uniform, st.sampled_from([0, total - 1]), start, start.map(lambda q: max(q - 1, 0)),
        st.integers(0, min(total - 1, 63)),
        st.builds(lowered, uniform, st.integers(0, k)).flatmap(
            lambda q: st.sampled_from([q, max(q - 1, 0)]))), min_size=1, max_size=60))
    ranks = draw(st.permutations(ranks + ranks[:draw(st.integers(0, len(ranks)))]))
    first = draw(uniform)
    return n, k, ranks, range(first, min(total, first + draw(st.integers(1, 60))))


@PROPERTY
@given(unrank_case())
@example((1100, 549, [0, 1, math.comb(1099, 549) - 1, 1 << 1000, (1 << 1000) - 1, 1], range(0)))
@example((1031, 515, [math.comb(1030, 515) - 1, 3 << 1000, 7], range(math.comb(1030, 515) - 2,
                                                                   math.comb(1030, 515))))
def test_unrank_equals_colex_unrank_oracle(case):
    """Each row of `_unrank` is the oracle's tuple of its rank, for lists (the bucket
    table) and ranges (the search), also past 2^63 and past 2^1024 (C(1099, 549) and
    C(1030, 515), whose ranks narrow to int64 at columns 8 and 9), and a range and the
    same ranks as a list give the same rows."""
    n, k, ranks, run = case
    for q in (ranks, run, list(run)):
        got = ms._unrank(q, k, n)
        assert got.dtype == np.int64 and got.shape == (len(q), k)
        assert [tuple(row) for row in got.tolist()] == [orc.colex_unrank(x, k) for x in q]
    assert np.array_equal(ms._unrank(run, k, n), ms._unrank(list(run), k, n))


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


@st.composite
def column_walk_case(draw):
    """±1 columns for the blocked column walk: n = 2..16, r = 2..8 with at most 2,000
    tuples, 1..40 columns (at times an all +1 or all -1 one), a tuple block of 1, 2 or 3
    tuples or of the whole order, and rank blocks of 5 or 7 tuples (which end inside tuple
    blocks) or of `_BLOCK_WORDS`."""
    n = draw(st.integers(2, 16))
    r = draw(st.sampled_from([r for r in range(2, min(8, n) + 1)
                              if math.comb(n - 1, r - 1) <= 2000]))
    count = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cols = (1 - 2 * rng.integers(0, 2, size=(n, count))).astype(np.int8)
    for value in (1, -1):
        col = draw(st.integers(0, 2 * count))
        if col < count:
            cols[:, col] = value
    block = draw(st.sampled_from([1, 2, 3, math.comb(n - 1, r - 1)]))
    return cols, r, block, draw(st.sampled_from([5, 7, ms._BLOCK_WORDS]))


@PROPERTY
@given(column_walk_case())
def test_blocked_column_walk_equals_one_tuple_walk(case):
    """Blocks of tuples, cut anywhere and at rank-block edges, give the one-tuple walk's
    values; a constant column gives n - r + 1, and two columns match the oracle at n <= 10
    (and r <= 5, its limit)."""
    cols, r, block, block_words = case
    n = cols.shape[0]
    with mock.patch.object(ms, "_column_block", lambda rows: 1):
        want = ms._scan_columns(cols, r)
    with mock.patch.object(ms, "_column_block", lambda rows: block):
        with mock.patch.object(ms, "_BLOCK_WORDS", block_words):
            got = ms._scan_columns(cols, r)
    assert got.dtype == np.int32
    assert got.tolist() == want.tolist()
    constant = (cols == cols[:1]).all(axis=0)
    assert (got[constant] == n - r + 1).all()
    if n <= 10 and r <= 5:
        for col, value in zip(cols.T[:2], got):
            assert value == orc.naive_correlation_measure(sc.BinarySequence.from_array(col), r)


# Report text: commas, quotes and characters that str.splitlines breaks on (which a CSV
# report refuses), and no NUL (the csv reader of Python 3.10 refuses it)
LINE_TEXT = st.text(st.sampled_from(',"# ') | st.characters().filter(
    lambda c: c != "\0"), max_size=12)
NUMBERS = st.integers(-2 ** 53, 2 ** 53) | st.floats(-2.0 ** 53, 2.0 ** 53)
REPORTS = st.builds(
    xp.ExperimentReport, LINE_TEXT,
    st.dictionaries(LINE_TEXT, st.integers() | LINE_TEXT, max_size=3),
    st.lists(st.builds(xp.StatRow, *[st.integers(-2 ** 53, 2 ** 53)] * 4, LINE_TEXT, NUMBERS,
                       st.none() | NUMBERS, st.sampled_from(["info", "pass", "fail"])),
             max_size=4),
    st.lists(LINE_TEXT, max_size=3))


@PROPERTY
@given(REPORTS)
@example(xp.ExperimentReport("x", {}, [xp.StatRow(1, 2, 1, 0, "a\nb", 0.5)]))  # read back "ab"
@example(xp.ExperimentReport("x", {}, [], ["a\u2028b"]))
def test_reports_round_trip_in_both_formats(rep):
    """Ints and finite floats up to 2^53 in magnitude, None bounds and every verdict
    parse back equal, and the parsed report emits the same text; a CSV report refuses
    text holding a line break, which its reader could not read back."""
    texts = [rep.experiment, *rep.notes, *(row.statistic for row in rep.rows)]
    for fmt in xp.FORMATS:
        if fmt == "csv" and any(len(f"a{text}a".splitlines()) > 1 for text in texts):
            with pytest.raises(ValueError, match="line break"):
                xp.emit_report(rep, fmt)
            continue
        text = xp.emit_report(rep, fmt)
        assert xp.parse_report(text, fmt) == rep
        assert xp.emit_report(xp.parse_report(text, fmt), fmt) == text
