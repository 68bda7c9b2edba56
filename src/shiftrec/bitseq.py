"""Finite bit words and deterministic infinite bit sources.

Words are packed into a single integer; bit 0 is the leftmost bit.  All
sources are pure functions of their defining data, so any experiment can be
replayed bit-for-bit from its seed or input file.
"""

from __future__ import annotations

import os
from typing import Iterable, NamedTuple, Sequence

from .errors import InsufficientDataError


class Word(NamedTuple):
    """Packed bit string: ``value`` holds the bits, leftmost bit first."""

    value: int
    length: int

    @classmethod
    def from_string(cls, text: str) -> "Word":
        return words_from_strings([text.strip()])[0]

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "Word":
        value = 0
        length = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit out of range: {b!r}")
            value = (value << 1) | b
            length += 1
        return cls(value, length)

    def bit(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"bit {i} out of range for length {self.length}")
        return (self.value >> (self.length - 1 - i)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> (self.length - 1 - i)) & 1 for i in range(self.length))

    def take(self, n: int) -> "Word":
        """First ``n`` bits."""
        if not 0 <= n <= self.length:
            raise ValueError(f"cannot take {n} bits from a word of length {self.length}")
        return Word(self.value >> (self.length - n), n)

    def drop(self, n: int) -> "Word":
        """Remove the first ``n`` bits."""
        return shift(self, n)

    def is_prefix_of(self, other: "Word") -> bool:
        return (
            other.length >= self.length
            and (other.value >> (other.length - self.length)) == self.value
        )

    def to_string(self) -> str:
        return word_strings([self])[0]

    def __str__(self) -> str:
        return self.to_string()


EMPTY_WORD = Word(0, 0)


def joined_bits(texts: Sequence[str]) -> str:
    """The bit strings joined, after one check that every character is 0 or 1.

    The check comes before any parsing because ``int(text, 2)`` also
    accepts signs, spaces, underscores, a ``0b`` prefix and non-ASCII digits.
    """
    try:
        joined = "".join(texts)
    except TypeError:
        raise ValueError("words must be bit strings") from None
    if joined.strip("01"):
        bad = next(t for t in texts if t.strip("01"))
        raise ValueError(f"not a bit string: {bad!r}")
    return joined


def words_from_strings(texts: Sequence[str]) -> list[Word]:
    """The words spelled by bit strings."""
    joined_bits(texts)
    return [Word(int(t, 2), len(t)) if t else EMPTY_WORD for t in texts]


def word_strings(words: Iterable[Word]) -> list[str]:
    """Bit strings of words; inverse of :func:`words_from_strings`."""
    return [format(v, f"0{n}b") if n else "" for v, n in words]


def shift(word: Word, n: int) -> Word:
    """Drop the first ``n`` bits of ``word`` (the tail map, iterated)."""
    if not 0 <= n <= word.length:
        raise ValueError(f"cannot drop {n} bits from a word of length {word.length}")
    rest = word.length - n
    return Word(word.value & ((1 << rest) - 1), rest)


# --- deterministic bit sources ------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """splitmix64 finalizer (Steele/Lea/Flood constants), pure 64-bit integer ops."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_lanes(z: int, lanes: int) -> int:
    """:func:`_mix64` of every lane of ``z`` at once, ``lanes`` masking 64-bit
    lanes at least 128 bits apart: a lane times a 64-bit constant stays
    below the next lane, and what a right shift brings down from the next
    lane lands above the lane's 64 bits, where the mask clears it before
    any product."""
    z &= lanes
    z = ((z ^ (z >> 30)) & lanes) * _MIX1 & lanes
    z = ((z ^ (z >> 27)) & lanes) * _MIX2 & lanes
    return z ^ (z >> 31) & lanes


def pseudorandom_prefixes(seeds: Sequence[int], blocks: int) -> int:
    """The first ``64 * blocks`` bits of each seed's :class:`PseudorandomSource`
    joined in one int, stream bit ``i`` of ``seeds[s]`` at bit
    ``64 * blocks * s + i``; ``blocks >= 2``.  Each block is mixed for every
    seed at once (see :func:`_mix64_lanes`)."""
    if blocks < 2:
        raise ValueError("seeds are mixed in lanes of at least two blocks")
    size = 8 * blocks
    ones = int.from_bytes(b"\x01".ljust(size, b"\x00") * len(seeds), "little")
    lanes = _MASK64 * ones
    packed = int.from_bytes(
        b"".join((int(seed) & _MASK64).to_bytes(size, "little") for seed in seeds), "little"
    )
    joined = 0
    for j in range(blocks):
        joined |= _mix64_lanes(packed + ((j + 1) * _GAMMA & _MASK64) * ones, lanes) << 64 * j
    return joined


def _check_window(start: int, length: int) -> None:
    if start < 0:
        raise IndexError("negative bit index")
    if length < 0:
        raise ValueError(f"negative window length {length}")


class SequenceSource:
    """Deterministic bit sequence with positional access.

    Subclasses implement :meth:`bit`; the same index always yields the same
    bit.  ``prefix(m)`` agrees with pointwise access by construction.
    """

    #: the number of bits held, or None for an unbounded source
    length: int | None = None

    def bit(self, index: int) -> int:
        raise NotImplementedError

    def window_value(self, start: int, length: int) -> int:
        """The packed value of bits ``start .. start+length``."""
        _check_window(start, length)
        value = 0
        for i in range(start, start + length):
            value = (value << 1) | self.bit(i)
        return value

    def window_lsb(self, start: int, length: int) -> int:
        """Bits ``start .. start+length`` with stream bit ``start + i`` at bit
        ``i``: :meth:`window_value` read backwards."""
        value = self.window_value(start, length)
        return int(format(value, f"0{length}b")[::-1], 2) if length else 0

    def window(self, start: int, length: int) -> Word:
        """Bits ``start .. start+length`` as a word."""
        return Word(self.window_value(start, length), length)

    def prefix(self, length: int) -> Word:
        """The first ``length`` bits."""
        return self.window(0, length)


class PseudorandomSource(SequenceSource):
    """Counter-mode splitmix64 bit stream.

    Block ``j`` is ``mix64(seed + (j+1) * GAMMA)`` with
    ``GAMMA = 0x9E3779B97F4A7C15``; bit ``i`` is bit ``i mod 64`` (from the
    least significant end) of block ``i // 64``.  The generator is spelled
    out here so that a seed reproduces the same sequence on any platform.

    ``window_value`` reads a cache of the blocks, each stored bit-reversed so
    that stream bit ``i`` is bit ``63 - (i & 63)`` of entry ``i >> 6`` and
    a window is a shift and a mask of the joined entries.  The cache grows
    on demand to the last block read; ``bit`` and ``window_lsb``, which
    wants the blocks as they are, compute theirs afresh.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._reversed: list[int] = []

    def _block(self, j: int) -> int:
        return _mix64((self.seed + (j + 1) * _GAMMA) & _MASK64)

    def _grow(self, last: int) -> None:
        """Extend the cache through block ``last``."""
        cache = self._reversed
        for j in range(len(cache), last + 1):
            cache.append(int(format(self._block(j), "064b")[::-1], 2))

    def bit(self, index: int) -> int:
        if index < 0:
            raise IndexError("negative bit index")
        return (self._block(index >> 6) >> (index & 63)) & 1

    def window_value(self, start: int, length: int) -> int:
        _check_window(start, length)
        if not length:
            return 0
        end = start + length
        last = (end - 1) >> 6
        cache = self._reversed
        if last >= len(cache):
            self._grow(last)
        if start >> 6 == last:
            value = cache[last]
        else:
            value = 0
            for block in cache[start >> 6 : last + 1]:
                value = (value << 64) | block
        # the joined entries end at bit (last + 1) * 64 of the stream
        return (value >> (-end & 63)) & ((1 << length) - 1)

    def window_lsb(self, start: int, length: int) -> int:
        """As :meth:`SequenceSource.window_lsb`: the blocks, uncached and
        unreversed, joined least significant first."""
        _check_window(start, length)
        if not length:
            return 0
        blocks = range(start >> 6, ((start + length - 1) >> 6) + 1)
        joined = b"".join(self._block(j).to_bytes(8, "little") for j in blocks)
        return int.from_bytes(joined, "little") >> (start & 63) & ((1 << length) - 1)

    def window(self, start: int, length: int) -> Word:
        # defined here too: perfbench traces PseudorandomSource.window by name
        return Word(self.window_value(start, length), length)

    def __repr__(self) -> str:
        return f"PseudorandomSource(seed={self.seed})"


class EventuallyPeriodicSource(SequenceSource):
    """A finite head followed by a repeating nonempty cycle."""

    def __init__(self, head: Word, cycle: Word):
        if cycle.length == 0:
            raise ValueError("cycle must be nonempty")
        self.head = head
        self.cycle = cycle

    @classmethod
    def from_strings(cls, head: str, cycle: str) -> "EventuallyPeriodicSource":
        return cls(Word.from_string(head), Word.from_string(cycle))

    def bit(self, index: int) -> int:
        if index < 0:
            raise IndexError("negative bit index")
        if index < self.head.length:
            return self.head.bit(index)
        return self.cycle.bit((index - self.head.length) % self.cycle.length)


class _PackedSource(SequenceSource):
    """The bits of a packed word, then :meth:`_past_end`'s fill bit."""

    word: Word

    def _past_end(self, index: int) -> int:
        """The bit at every ``index`` past the word, the first one read; or raises."""
        raise NotImplementedError

    def bit(self, index: int) -> int:
        return self.window_value(index, 1)

    def window_value(self, start: int, length: int) -> int:
        """One shift and mask of the packed word, whatever the window's offset."""
        _check_window(start, length)
        if not length:
            return 0
        value, n = self.word
        end = start + length
        if end <= n:
            return value >> (n - end) & ((1 << length) - 1)
        inside = max(n - start, 0)
        fill = self._past_end(start + inside)
        head = value & ((1 << inside) - 1)
        return head << (length - inside) | fill * ((1 << (length - inside)) - 1)


class ExplicitPrefixSource(_PackedSource):
    """A fixed prefix, then a constant default bit."""

    def __init__(self, word: Word, default_bit: int = 0):
        if default_bit not in (0, 1):
            raise ValueError("default bit must be 0 or 1")
        self.word = word
        self.default_bit = default_bit

    def _past_end(self, index: int) -> int:
        return self.default_bit


_ASCII_BIT_BYTES = frozenset(b"01 \t\r\n\x0b\x0c")


class FileSource(_PackedSource):
    """Bits read from a file, ASCII ``0``/``1`` or raw binary.

    The format is picked from the first 64 bytes: if they all are ``0``,
    ``1`` or whitespace the file is parsed as ASCII (whitespace ignored),
    otherwise as raw bytes, most significant bit first.  Reading past the
    end raises :class:`InsufficientDataError`.
    """

    def __init__(self, path: str | os.PathLike):
        with open(path, "rb") as fh:
            data = fh.read()
        self.path = os.fspath(path)
        self.word = self._decode(data)

    @classmethod
    def from_bytes(cls, data: bytes) -> "FileSource":
        src = cls.__new__(cls)
        src.path = "<bytes>"
        src.word = cls._decode(data)
        return src

    @staticmethod
    def _decode(data: bytes) -> Word:
        head = data[:64]
        if all(b in _ASCII_BIT_BYTES for b in head):
            chars = bytes(b for b in data if b in b"01")
            rest = bytes(b for b in data if b not in _ASCII_BIT_BYTES)
            if rest:
                raise ValueError(f"unexpected bytes in ASCII bit file: {rest[:8]!r}")
            return Word.from_string(chars.decode("ascii"))
        return Word(int.from_bytes(data, "big"), 8 * len(data))

    @property
    def length(self) -> int:
        return self.word.length

    def _past_end(self, index: int) -> int:
        raise InsufficientDataError(
            f"source {self.path} holds {self.word.length} bits, index {index} requested"
        )

