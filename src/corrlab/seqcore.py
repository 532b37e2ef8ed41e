"""Binary ±1 sequences: bit-packed representation, seeded generation, enumeration, text I/O.

A sequence (a_1, ..., a_n) over {-1, +1} is stored as a Python integer whose
bit j encodes a_{j+1} = (-1)^bit. Symbol products are then XOR and window sums
popcounts (the bit path of `product_sequence`, `correlation_sum` and
`replay_witness`). Array rows hold the -1 bits packed little-endian into bytes,
and three helpers here are the one home of that format: `_pm1` checks entries are
±1 and gives them as int8, `_packed` packs ±1 rows into bytes, and `_symbols`
unpacks byte rows into ±1 int8. Random rows come from one packed sampler,
`_random_bits`, which reproduces numpy's seeded Philox draws bit for bit; the
Monte Carlo cells and the tail of `experiments` read its rows as they are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .errors import ParseError, ResourceLimitError

EXHAUSTIVE_LIMIT = 24  # 2^24 sequences is the largest full enumeration we allow


def _pm1(arr) -> np.ndarray:
    """`arr` as int8 (no copy when it already is), after checking every entry is ±1."""
    arr = np.asarray(arr)
    with np.errstate(invalid="ignore"):  # a NaN casts to anything, but fails the range test
        mat = arr.astype(np.int8, copy=False)
    # within [-1, 1] before the cast (which wraps 255 to -1) and nonzero after it
    if mat.size and not (arr.min() >= -1 and arr.max() <= 1 and mat.all()):
        raise ValueError("entries must be ±1, each -1 or +1")
    return mat


def _packed(mat: np.ndarray) -> np.ndarray:
    """The -1 bits of each ±1 row, packed little-endian into bytes, zero past the row."""
    return np.packbits(mat < 0, axis=-1, bitorder="little")


def _symbols(packed: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each byte row as ±1 int8 (a set bit is -1): `_packed` inverted."""
    out = np.unpackbits(packed, axis=-1, count=n, bitorder="little").view(np.int8)
    out *= -2
    out += 1
    return out


@dataclass(frozen=True)
class BinarySequence:
    """Immutable ±1 sequence of length >= 1, payload bit-packed into an int."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"sequence length must be >= 1, got {self.length}")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError("bit payload does not fit the declared length")

    @classmethod
    def from_symbols(cls, symbols: Iterable[int]) -> "BinarySequence":
        row = bytearray()  # the symbols as int8 bytes, packed once at the end
        for j, s in enumerate(symbols):
            if s != -1 and s != 1:
                raise ValueError(f"symbol at position {j + 1} is {s!r}, expected -1 or +1")
            row.append(0xFF if s == -1 else 1)
        packed = _packed(np.frombuffer(row, dtype=np.int8))
        return cls(len(row), int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BinarySequence":
        arr = np.asarray(arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("expected a nonempty 1-d array of ±1 symbols")
        return cls(arr.size, int.from_bytes(_packed(_pm1(arr)).tobytes(), "little"))

    def __len__(self) -> int:
        return self.length

    def _bytes(self) -> np.ndarray:
        """The payload as ceil(n/8) little-endian bytes, the row format of `_packed`."""
        return np.frombuffer(self.bits.to_bytes(-(-self.length // 8), "little"), dtype=np.uint8)

    @cached_property
    def _array(self) -> np.ndarray:
        out = _symbols(self._bytes(), self.length)
        out.flags.writeable = False
        return out

    def to_array(self) -> np.ndarray:
        """Read-only int8 view of the symbols."""
        return self._array

    def symbols(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self._array)

    def prefix(self, m: int) -> "BinarySequence":
        if not 1 <= m <= self.length:
            raise ValueError(f"prefix length {m} out of range 1..{self.length}")
        return BinarySequence(m, self.bits & ((1 << m) - 1))

    def negate(self) -> "BinarySequence":
        return BinarySequence(self.length, self.bits ^ ((1 << self.length) - 1))

    def reverse(self) -> "BinarySequence":
        rev = int(format(self.bits, f"0{self.length}b")[::-1], 2)
        return BinarySequence(self.length, rev)


@dataclass(frozen=True)
class SeedSpec:
    """Key for a deterministic, splittable random stream.

    (master_seed, stream_index) maps to a counter-based generator as a pure
    function; distinct stream indices give statistically independent streams,
    so sampling can be parallelized without changing any result.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed < (1 << 64):
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if self.stream_index < 0:
            raise ValueError("stream_index must be nonnegative")

    def _seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.master_seed,
                                      spawn_key=(self.stream_index,))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self._seed_sequence()))

    def py_random(self) -> random.Random:
        """Stdlib generator for exact sampling over arbitrarily large integer ranges."""
        state = self._seed_sequence().generate_state(4, dtype=np.uint64)
        return random.Random(int.from_bytes(state.astype(">u8").tobytes(), "big"))  # word 0 high


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy: hashmix
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_RAW_BLOCK_BYTES = 1 << 21  # bytes per row block of Philox output before packing


def _hasher(const: int, mult: int):
    """numpy's SeedSequence word hash over an int or a uint32 array: each call
    XORs in the running constant, advances it by `mult` and multiplies by it."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    x = (_MIX_L * x - _MIX_R * y) & _M32
    return x ^ x >> 16


def _philox_keys(master_seed: int, streams: range) -> np.ndarray:
    """Row i is SeedSequence(master_seed, spawn_key=(streams[i],)).generate_state(2, np.uint64),
    the Philox key numpy derives from SeedSpec(master_seed, streams[i]), as (len(streams), 2) uint64.

    numpy's entropy is the master's 32-bit words padded to the pool of four, then the
    stream's words. The pool mixing of the master words runs once on ints; each
    stream word is hashed into every pool word (the constant advances four times
    per word) as uint32 arrays over all streams, and rows whose index has no word
    at that place keep their pool. Follows `mix_entropy` and `generate_state` of
    numpy/random/bit_generator.pyx."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (master_seed & _M32, master_seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    top = streams[-1] if streams else 0
    index = np.arange(streams.start, streams.stop, streams.step,
                      dtype=np.uint64 if top >> 64 == 0 else object)
    pool = [np.full(len(index), word, dtype=np.uint32) for word in pool]
    for p in range(max(1, -(-top.bit_length() // 32))):
        word = (index >> 32 * p & _M32).astype(np.uint32)
        mixed = [_mix(pool[dst], hashmix(word)) for dst in range(4)]
        present = (index >> 32 * p > 0).astype(bool) if p else True
        pool = [np.where(present, new, old) for new, old in zip(mixed, pool)]
    hashmix = _hasher(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (hashmix(word).astype(np.uint64) for word in pool)
    return np.stack([lo0 | hi0 << 32, lo1 | hi1 << 32], axis=1)


def _random_bits(n: int, master_seed: int, streams: range) -> np.ndarray:
    """The -1 bits of random_sequence(n, SeedSpec(master_seed, s)) for each s in
    `streams`, one row each, packed little-endian: (len(streams), ceil(n/8)) uint8,
    zero past bit n. The output is allocated first, so a row count too large to
    hold fails before any key is hashed.

    This is numpy's `Generator(Philox(seed_seq)).integers(0, 2, size=n, dtype=np.uint8)`
    without a Generator per row. Philox is counter-based, so one bit generator
    serves every row: its state is reset to the row's key (`_philox_keys`), a zero
    counter and an empty buffer, and `random_raw` gives the row's ceil(n/8) words.
    The bounded uint8 draw with range 2 reads those words as little-endian bytes
    and takes the top bit of byte i as draw i (Lemire's multiply, byte * 2 >> 8,
    never rejects). Output is buffered in row blocks of about 2 MB."""
    nbytes = -(-n // 8)
    out = np.empty((len(streams), nbytes), dtype=np.uint8)
    keys = _philox_keys(master_seed, streams).tolist()
    philox = np.random.Philox()
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    step = max(1, _RAW_BLOCK_BYTES // (8 * nbytes))
    raw = np.empty((min(step, len(streams)), nbytes), dtype="<u8")
    for b0 in range(0, len(streams), step):
        block = raw[:len(streams) - b0]
        for row, key in zip(block, keys[b0:b0 + step]):
            state["state"]["key"] = key
            philox.state = state
            row[:] = philox.random_raw(nbytes)
        out[b0:b0 + len(block)] = np.packbits(block.view(np.uint8) >> 7, axis=1,
                                              bitorder="little")
    if n % 8:
        out[:, -1] &= (1 << n % 8) - 1
    return out


def random_sequence(n: int, seed: SeedSpec) -> BinarySequence:
    """Uniform random sequence: each symbol independent ±1 with probability 1/2."""
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    packed = _random_bits(n, seed.master_seed, range(seed.stream_index, seed.stream_index + 1))
    return BinarySequence(n, int.from_bytes(packed.tobytes(), "little"))


def alternating(n: int) -> BinarySequence:
    """(1, -1, 1, -1, ...), the minimizer for odd-order correlation."""
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    # 0xAA has exactly the odd bit positions set, i.e. -1 at even 1-based positions
    pattern = int.from_bytes(b"\xaa" * ((n + 7) // 8), "little")
    return BinarySequence(n, pattern & ((1 << n) - 1))


def all_ones(n: int) -> BinarySequence:
    return BinarySequence(n, 0)  # which rejects n < 1


def _check_exhaustive(n: int) -> None:
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    if n > EXHAUSTIVE_LIMIT:
        raise ResourceLimitError(
            f"full enumeration of 2^{n} sequences exceeds the limit n <= {EXHAUSTIVE_LIMIT}")


def enumerate_all(n: int) -> Iterator[BinarySequence]:
    """All 2^n sequences, in the integer order of their bit encodings."""
    _check_exhaustive(n)
    return (BinarySequence(n, bits) for bits in range(1 << n))


def all_sequences_matrix(n: int) -> np.ndarray:
    """(2^n, n) int8 matrix of every sequence, rows in enumeration order."""
    _check_exhaustive(n)
    counters = np.arange(1 << n, dtype="<u4").view(np.uint8).reshape(-1, 4)  # bytes of i, low first
    return _symbols(counters, n)


def _orbit_representatives(n: int) -> np.ndarray:
    """(n, 2^(n-2)) int8 array whose columns are the sequences with a_1 = a_2 = +1,
    in enumeration order: `all_sequences_matrix(n)[::4].T`, built without it.

    Rows 0 and 1 are +1, and row j + 2 is -1 where bit j of the column index is set.
    """
    _check_exhaustive(n)
    counter = np.arange(1 << (n - 2), dtype=np.uint32)
    cols = np.ones((n, counter.size), dtype=np.int8)
    for j in range(n - 2):
        cols[j + 2] -= 2 * ((counter >> j) & 1).astype(np.int8)
    return cols


_ALPHABETS = {"+": "+-", "-": "+-", "0": "01", "1": "01"}  # the +1 symbol, then the -1 symbol


def read_sequence(text: str) -> BinarySequence:
    """Parse one sequence from '+'/'-' or '0'/'1' text (alphabets cannot be mixed).

    The text, reversed and with -1 as digit 1, is the payload in binary."""
    if not text:
        raise ParseError("empty sequence text", position=1)
    alphabet = _ALPHABETS.get(text[0])
    if alphabet is None:
        raise ParseError(f"invalid symbol {text[0]!r} at position 1", position=1)
    rest = text.lstrip(alphabet)
    if rest:
        j = len(text) - len(rest)
        raise ParseError(f"invalid symbol {rest[0]!r} at position {j + 1}", position=j + 1)
    return BinarySequence(len(text), int(text[::-1].translate(str.maketrans(alphabet, "01")), 2))


def write_sequence(seq: BinarySequence) -> str:
    """Render in the '+'/'-' alphabet ('+' is +1): `read_sequence` inverted."""
    return format(seq.bits, f"0{seq.length}b")[::-1].translate(str.maketrans("01", "+-"))


def read_sequence_lines(text: str) -> list[BinarySequence]:
    """Parse the one-sequence-per-line file format; blank lines are skipped."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(read_sequence(line))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}", position=exc.position,
                             line=lineno) from None
    return out


def write_sequence_lines(seqs: Iterable[BinarySequence]) -> str:
    return "".join(write_sequence(s) + "\n" for s in seqs)
