import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrlab import ParseError, ResourceLimitError
from corrlab import bounds as bd
from corrlab import measures as ms
from corrlab import seqcore as sc


class TestBinarySequence:
    def test_from_symbols_round_trip(self):
        seq = sc.BinarySequence.from_symbols([1, -1, -1, 1, 1])
        assert seq.symbols() == (1, -1, -1, 1, 1)
        assert len(seq) == 5

    def test_from_symbols_long(self):
        # an odd length past 10^5 from a generator, and a bad symbol near the end
        n = 100_001
        arr = 1 - 2 * np.random.default_rng(5).integers(0, 2, size=n)
        seq = sc.BinarySequence.from_symbols(int(s) for s in arr)
        assert seq == sc.BinarySequence.from_array(arr)
        assert np.array_equal(seq.to_array(), arr)
        symbols = [*arr.tolist()[:-2], 2, 1]
        with pytest.raises(ValueError, match=f"symbol at position {n - 1} is 2, expected"):
            sc.BinarySequence.from_symbols(symbols)
        with pytest.raises(ValueError, match="length must be >= 1"):
            sc.BinarySequence.from_symbols(iter(()))

    def test_from_array_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            arr = 1 - 2 * rng.integers(0, 2, size=int(rng.integers(1, 200)))
            seq = sc.BinarySequence.from_array(arr)
            assert np.array_equal(seq.to_array(), arr)

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError):
            sc.BinarySequence.from_symbols([1, 0, -1])
        with pytest.raises(ValueError):
            sc.BinarySequence(0, 0)
        with pytest.raises(ValueError):
            sc.BinarySequence(2, 4)  # payload outside 2 bits

    def test_negate_reverse_prefix(self):
        seq = sc.BinarySequence.from_symbols([1, 1, -1, 1])
        assert seq.negate().symbols() == (-1, -1, 1, -1)
        assert seq.reverse().symbols() == (1, -1, 1, 1)
        assert seq.prefix(2).symbols() == (1, 1)
        with pytest.raises(ValueError):
            seq.prefix(5)


class TestCodec:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 70), st.data())
    def test_symbols_invert_packed(self, rows, n, data):
        mat = data.draw(arrays(np.int8, (rows, n), elements=st.sampled_from([-1, 1])))
        assert np.array_equal(sc._symbols(sc._packed(mat), n), mat)
        packed = data.draw(arrays(np.uint8, (rows, -(-n // 8))))
        symbols = sc._symbols(packed, n)
        assert symbols.dtype == np.int8 and symbols.shape == (rows, n)
        cleared = packed.copy()
        if n % 8:
            cleared[:, -1] &= (1 << n % 8) - 1  # the bits at n and above
        assert np.array_equal(sc._packed(symbols), cleared)

    @pytest.mark.parametrize("entry", [
        np.array(257), np.array(-255), np.array(1.5), np.array(255, dtype=np.uint8),
        np.array(0), np.array(np.nan)], ids=["257", "-255", "1.5", "uint8-255", "0", "nan"])
    @pytest.mark.parametrize("caller", [
        sc.BinarySequence.from_array,
        lambda row: ms.range_values_batch(row[None, :]),
        lambda row: bd.VectorFamily(2, np.stack([row, np.ones_like(row)]))],
        ids=["from_array", "range_values_batch", "VectorFamily"])
    def test_every_pm1_check_rejects(self, caller, entry):
        row = np.stack([entry, np.ones_like(entry)])  # [entry, 1], in the entry's dtype
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NaN must not warn in the int8 cast
            with pytest.raises(ValueError, match="±1, each -1 or \\+1"):
                caller(row)


class TestGenerators:
    def test_alternating(self):
        assert sc.alternating(4).symbols() == (1, -1, 1, -1)
        assert sc.alternating(5).symbols() == (1, -1, 1, -1, 1)
        assert sc.alternating(1).symbols() == (1,)

    def test_all_ones(self):
        assert sc.all_ones(3).symbols() == (1, 1, 1)

    def test_length_guard(self):
        for fn in (sc.alternating, sc.all_ones):
            with pytest.raises(ValueError):
                fn(0)
        with pytest.raises(ValueError):
            sc.random_sequence(0, sc.SeedSpec(0, 0))


class TestRandomSequence:
    def test_golden_determinism(self):
        # frozen reference output; must be identical on every run and platform
        seq = sc.random_sequence(8, sc.SeedSpec(0, 0))
        assert seq.symbols() == (1, -1, -1, 1, -1, 1, -1, -1)

    def test_reproducible_payload(self):
        a = sc.random_sequence(4096, sc.SeedSpec(123, 45))
        b = sc.random_sequence(4096, sc.SeedSpec(123, 45))
        assert a == b

    def test_stream_agreement_fraction(self):
        # independent streams agree on about half the positions (3 sigma band)
        a = sc.random_sequence(10 ** 6, sc.SeedSpec(0, 0)).to_array()
        b = sc.random_sequence(10 ** 6, sc.SeedSpec(0, 1)).to_array()
        agreement = float((a == b).mean())
        assert 0.495 <= agreement <= 0.505

    def test_frequency(self):
        arr = sc.random_sequence(10 ** 5, sc.SeedSpec(0, 0)).to_array()
        assert abs(float(arr.mean())) <= 0.02

    def test_seed_spec_validation(self):
        with pytest.raises(ValueError):
            sc.SeedSpec(-1, 0)
        with pytest.raises(ValueError):
            sc.SeedSpec(0, -1)
        with pytest.raises(ValueError):
            sc.SeedSpec(1 << 64, 0)


def numpy_draws(n, master, stream):
    """The reference: numpy's own bounded uint8 draws from the SeedSpec generator."""
    return sc.SeedSpec(master, stream).generator().integers(0, 2, size=n, dtype=np.uint8)


def unpacked(row, n):
    bits = np.unpackbits(row, bitorder="little")
    assert not bits[n:].any()  # zero past bit n
    return bits[:n]


class TestPackedSampler:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 70), st.integers(1, 300),
           st.integers(1, 3))
    @example(0, 0, 1, 1)
    @example(2 ** 64 - 1, 2 ** 32, 7, 2)
    @example(0, 2 ** 64 + 5, 13, 1)
    @example(2 ** 64 - 1, 2 ** 64 - 2, 9, 3)  # one row below 2^64, two at and past it
    @example(7, 2 ** 32 - 1, 100, 3)
    def test_rows_are_numpy_generator_draws(self, master, stream, n, count):
        packed = sc._random_bits(n, master, range(stream, stream + count))
        assert packed.shape == (count, (n + 7) // 8) and packed.dtype == np.uint8
        for i, row in enumerate(packed):
            assert np.array_equal(unpacked(row, n), numpy_draws(n, master, stream + i))
        seq = sc.random_sequence(n, sc.SeedSpec(master, stream))
        assert np.array_equal(seq.to_array(), 1 - 2 * numpy_draws(n, master, stream).astype(int))

    def test_rows_across_row_blocks(self):
        n, count = 4097, 1100  # not a multiple of the rows one raw block holds
        assert count % (sc._RAW_BLOCK_BYTES // (8 * 513)) != 0
        packed = sc._random_bits(n, 2024, range(5, 5 + count))
        draws = [numpy_draws(n, 2024, 5 + i) for i in range(count)]
        assert np.array_equal(packed, np.packbits(draws, axis=1, bitorder="little"))  # zero past n

    @pytest.mark.parametrize("master", [0, 7, 2 ** 64 - 1])
    def test_keys_are_seed_sequence_states(self, master):
        streams = [range(6000), range(2 ** 32 - 3, 2 ** 32 + 3), range(2 ** 64 - 3, 2 ** 64 + 3)]
        for rng in streams:
            keys = sc._philox_keys(master, rng)
            want = [np.random.SeedSequence(master, spawn_key=(s,)).generate_state(2, np.uint64)
                    for s in rng]
            assert keys.dtype == np.uint64 and np.array_equal(keys, np.array(want))


class TestEnumeration:
    def test_order_n2(self):
        seqs = [s.symbols() for s in sc.enumerate_all(2)]
        assert seqs == [(1, 1), (-1, 1), (1, -1), (-1, -1)]

    def test_cardinality_n12(self):
        assert sum(1 for _ in sc.enumerate_all(12)) == 4096

    @pytest.mark.parametrize("n", range(1, 13))
    def test_no_duplicates(self, n):
        seen = {s.bits for s in sc.enumerate_all(n)}
        assert len(seen) == 1 << n

    def test_limit_guard(self):
        with pytest.raises(ResourceLimitError):
            next(sc.enumerate_all(25))
        with pytest.raises(ResourceLimitError):
            sc.all_sequences_matrix(25)

    def test_matrix_matches_stream(self):
        for n in (1, 7, 8, 9, 16, 17):  # on and across the byte boundaries of a row's bits
            mat = sc.all_sequences_matrix(n)
            assert mat.dtype == np.int8
            assert np.array_equal(mat, np.stack([s.to_array() for s in sc.enumerate_all(n)]))


class TestTextIO:
    def test_plus_minus(self):
        assert sc.read_sequence("+-+-").symbols() == (1, -1, 1, -1)

    def test_zero_one(self):
        assert sc.read_sequence("0110").symbols() == (1, -1, -1, 1)

    def test_write_alphabet(self):
        seq = sc.BinarySequence.from_symbols([1, -1, -1, 1])
        assert sc.write_sequence(seq) == "+--+"

    def test_bad_position_reported(self):
        with pytest.raises(ParseError) as err:
            sc.read_sequence("+x-")
        assert err.value.position == 2

    def test_mixed_alphabets_rejected(self):
        with pytest.raises(ParseError) as err:
            sc.read_sequence("+-01")
        assert err.value.position == 3

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            sc.read_sequence("")

    def test_round_trip_random(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            n = int(rng.integers(1, 10 ** 4))
            seq = sc.random_sequence(n, sc.SeedSpec(int(rng.integers(0, 2 ** 63)), 0))
            assert sc.read_sequence(sc.write_sequence(seq)) == seq

    def test_round_trip_long(self):
        # an odd length past 10^5, ending in +1 symbols (zero high bits), both alphabets
        n = 131071
        seq = sc.BinarySequence(n, sc.random_sequence(n - 3, sc.SeedSpec(23, 0)).bits)
        text = sc.write_sequence(seq)
        assert len(text) == n and text.endswith("+++")
        assert np.array_equal(np.frombuffer(text.encode(), dtype=np.uint8) == ord("-"),
                              seq.to_array() < 0)
        assert sc.read_sequence(text) == seq
        assert sc.read_sequence(text.translate(str.maketrans("+-", "01"))) == seq
        with pytest.raises(ParseError, match=f"invalid symbol '0' at position {n + 1}") as err:
            sc.read_sequence(text + "0")
        assert err.value.position == n + 1

    def test_file_lines(self):
        text = "+-+\n\n0110\n"
        seqs = sc.read_sequence_lines(text)
        assert [s.symbols() for s in seqs] == [(1, -1, 1), (1, -1, -1, 1)]
        assert sc.write_sequence_lines(seqs) == "+-+\n+--+\n"

    def test_file_lines_error_location(self):
        with pytest.raises(ParseError) as err:
            sc.read_sequence_lines("+-+\n+?+\n")
        assert err.value.line == 2
        assert err.value.position == 2
