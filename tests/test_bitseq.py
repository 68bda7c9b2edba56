import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from shiftrec.bitseq import (
    EMPTY_WORD,
    EventuallyPeriodicSource,
    ExplicitPrefixSource,
    FileSource,
    PseudorandomSource,
    SequenceSource,
    Word,
    pseudorandom_prefixes,
    shift,
    word_strings,
    words_from_strings,
)
from shiftrec.errors import InsufficientDataError
from shiftrec.measure import ClopenSet
from shiftrec.recurrence import least_witness

words_strategy = st.integers(0, 20).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda v: Word(v, n))
)


def test_word_roundtrip():
    w = Word.from_string("0110")
    assert w.length == 4
    assert str(w) == "0110"
    assert w.bits() == (0, 1, 1, 0)
    assert Word.from_bits([0, 1, 1, 0]) == w
    assert str(EMPTY_WORD) == ""


def test_word_rejects_garbage():
    with pytest.raises(ValueError):
        Word.from_string("012")
    with pytest.raises(ValueError):
        Word.from_bits([2])


@pytest.mark.parametrize("text", ["1_0", " 1", "0b1", "2", "\u0661", "-1", "+1", "1 "])
def test_batch_parser_rejects_what_int_accepts(text):
    # int(text, 2) accepts each of these (u0661 is ARABIC-INDIC DIGIT ONE)
    with pytest.raises(ValueError):
        words_from_strings(["01", text])


def test_batch_parser_rejects_non_strings():
    with pytest.raises(ValueError):
        words_from_strings(["01", 1])


@given(st.lists(words_strategy, max_size=20))
def test_batch_parser_roundtrip(ws):
    texts = word_strings(ws)
    assert texts == [w.to_string() for w in ws]
    assert words_from_strings(texts) == ws


def test_shift_examples():
    assert shift(Word.from_string("0110"), 1) == Word.from_string("110")
    w = Word.from_string("010011")
    assert shift(w, 0) == w
    with pytest.raises(ValueError):
        shift(w, 7)


def test_shift_matches_pointwise_access():
    # index-arithmetic oracle: dropped word reads the original at offset +4
    w = Word.from_string("1010101")
    out = shift(w, 4)
    assert out == Word.from_string("101")
    assert all(out.bit(i) == w.bit(i + 4) for i in range(out.length))


@given(words_strategy, st.integers(0, 20), st.integers(0, 20))
def test_shift_composes(w, a, b):
    if a + b <= w.length:
        assert shift(shift(w, a), b) == shift(w, a + b)


def test_prefix_relation():
    assert Word.from_string("01").is_prefix_of(Word.from_string("0110"))
    assert not Word.from_string("11").is_prefix_of(Word.from_string("0110"))
    assert EMPTY_WORD.is_prefix_of(Word.from_string("0"))


def test_periodic_source_prefix():
    zeros = EventuallyPeriodicSource.from_strings("", "0")
    assert zeros.prefix(3) == Word.from_string("000")
    mixed = EventuallyPeriodicSource.from_strings("1", "10")
    assert str(mixed.prefix(6)) == "110101"


def test_explicit_prefix_source():
    src = ExplicitPrefixSource(Word.from_string("101"), 0)
    assert str(src.prefix(5)) == "10100"


def test_pseudorandom_determinism():
    a = PseudorandomSource(1234)
    b = PseudorandomSource(1234)
    assert a.prefix(8) == b.prefix(8)
    assert a.prefix(200) == b.prefix(200)
    assert PseudorandomSource(1).prefix(64) != PseudorandomSource(2).prefix(64)


def test_pseudorandom_window_agrees_with_bits():
    src = PseudorandomSource(99)
    w = src.window(37, 131)
    assert all(w.bit(i) == src.bit(37 + i) for i in range(131))


PSEUDORANDOM_WINDOWS = [
    (0, 0), (100, 0),  # length 0
    (5, 1), (0, 13), (70, 40), (127, 1),  # inside one block
    (0, 64), (64, 64), (192, 64), (128, 1), (63, 1), (64, 1),  # on block edges
    (63, 2), (60, 64), (1, 64), (32, 64), (63, 66),  # 64 bits or so over two blocks
    (0, 200), (10, 200), (64, 192), (63, 200),  # 200 bits over 3 or 4 blocks
]


@pytest.mark.parametrize("start,length", PSEUDORANDOM_WINDOWS)
def test_pseudorandom_window_matches_bitwise_reference(start, length):
    # SequenceSource.window_value reads the stream bit by bit through ``bit``,
    # which mixes its block afresh instead of reading the cache
    src = PseudorandomSource(0x5EED)
    reference = SequenceSource.window_value(src, start, length)
    assert src.window(start, length) == Word(reference, length)


def test_pseudorandom_window_after_a_far_read():
    # the first read fills the cache out to block 9, the later ones read inside it
    src = PseudorandomSource(2024)
    reads = [(600, 40), (3, 1), (0, 64), (250, 200), (640, 1), (700, 64)]
    for start, length in reads:
        assert src.window_value(start, length) == SequenceSource.window_value(src, start, length)


def _bit_by_bit(src, start, length):
    value = 0
    for i in range(start, start + length):
        value = value << 1 | src.bit(i)
    return value


FILE_BITS = 8 * 40
INT_PATH_SOURCES = {
    "pseudorandom": PseudorandomSource(0x5EED),
    "periodic": EventuallyPeriodicSource.from_strings("10110", "0111001"),
    "explicit": ExplicitPrefixSource(Word.from_string("1101" * 30), 1),
    "file": FileSource.from_bytes(bytes(range(7, 7 + FILE_BITS // 8))),
}


@pytest.mark.parametrize("name", INT_PATH_SOURCES)
@given(start=st.integers(0, FILE_BITS + 10), length=st.integers(0, 140))
@example(start=0, length=0)
@example(start=200, length=0)
@example(start=63, length=2)
@example(start=60, length=64)
@example(start=1, length=128)
@example(start=128, length=64)
def test_window_value_is_window_is_bit_by_bit(name, start, length):
    """window_value == window().value == reading ``bit`` one index at a time,
    and window_lsb is the same bits least significant first, also across
    64-bit block boundaries and for empty windows; a file source raises
    past its end on all four paths."""
    src = INT_PATH_SOURCES[name]
    if name == "file" and length and start + length > FILE_BITS:
        reads = (src.window_value, src.window, src.window_lsb, lambda s, n: _bit_by_bit(src, s, n))
        for read in reads:
            with pytest.raises(InsufficientDataError):
                read(start, length)
        return
    value = src.window_value(start, length)
    assert src.window(start, length) == Word(value, length)
    assert value == _bit_by_bit(src, start, length)
    assert src.window_lsb(start, length) == sum(src.bit(start + i) << i for i in range(length))


@pytest.mark.parametrize(
    "src", [PseudorandomSource(1), ExplicitPrefixSource(Word.from_string("101"), 0)]
)
def test_window_rejects_negative_start_and_length(src):
    with pytest.raises(IndexError):
        src.window(-3, 4)
    with pytest.raises(ValueError):
        src.window(0, -1)
    assert src.window(0, 0) == Word(0, 0)
    with pytest.raises(IndexError):
        src.window_lsb(-3, 4)
    with pytest.raises(ValueError):
        src.window_lsb(0, -1)
    assert src.window_lsb(0, 0) == 0


def test_pseudorandom_prefixes_are_the_joined_first_blocks():
    """Mixing every seed's blocks at once in lanes gives each seed's own
    stream, for seeds past 64 bits and negative ones (both taken mod 2^64),
    and the lane width is at least two blocks."""
    rng = random.Random(64)
    seeds = [rng.getrandbits(63) for _ in range(20)] + [0, 2**64 - 1, 2**64 + 5, -1, -(2**70)]
    for blocks in (2, 3, 4):
        width = 64 * blocks
        joined = pseudorandom_prefixes(seeds, blocks)
        for s, seed in enumerate(seeds):
            own = PseudorandomSource(seed).window_lsb(0, width)
            assert joined >> width * s & ((1 << width) - 1) == own, (blocks, seed)
        assert joined >> width * len(seeds) == 0
    assert pseudorandom_prefixes([], 2) == 0
    with pytest.raises(ValueError):
        pseudorandom_prefixes(seeds, 1)


@given(st.integers(0, 2**32), st.integers(0, 64), st.integers(0, 64))
def test_prefix_monotone(seed, m, extra):
    src = PseudorandomSource(seed)
    assert src.prefix(m).is_prefix_of(src.prefix(m + extra))


def test_file_source_ascii(tmp_path):
    path = tmp_path / "bits.txt"
    path.write_text("0110 1\n01")
    src = FileSource(path)
    assert str(src.prefix(7)) == "0110101"
    with pytest.raises(InsufficientDataError):
        src.bit(7)


def test_file_source_binary():
    src = FileSource.from_bytes(bytes([0b10100000, 0xFF]))
    assert str(src.prefix(8)) == "10100000"
    assert src.bit(8) == 1
    assert src.length == 16


def test_file_source_rejects_mixed_ascii():
    # ASCII-looking head, garbage later: refuse rather than guess
    with pytest.raises(ValueError):
        FileSource.from_bytes(b"01" * 40 + b"x")
    # garbage in the head means binary
    assert FileSource.from_bytes(b"x").length == 8


def test_constant_source():
    """A periodic source with no head and a one-bit cycle is constant."""
    assert str(EventuallyPeriodicSource(EMPTY_WORD, Word(1, 1)).prefix(4)) == "1111"


class _FileBitByBit(SequenceSource):
    """A file's bytes read one bit at a time through the base class, raising
    as a file source does at the first index past the end."""

    def __init__(self, data: bytes):
        self.data, self.length = data, 8 * len(data)

    def bit(self, index: int) -> int:
        if index >= self.length:
            raise InsufficientDataError(
                f"source <bytes> holds {self.length} bits, index {index} requested"
            )
        return self.data[index >> 3] >> (7 - (index & 7)) & 1


def test_packed_sources_read_windows_near_and_across_the_end():
    """A file and an explicit prefix read a window as one shift and mask of
    their packed word, at any offset: near the end of a megabit file the
    bits are those read one at a time, across the end the prefix pads with
    its default bit, and the file raises at the same index with the same
    message, so a witness search stops at the same candidate."""
    data = random.Random(19).randbytes(125_000)
    n = 8 * len(data)
    file, slow = FileSource.from_bytes(data), _FileBitByBit(data)
    prefix = ExplicitPrefixSource(file.word, 1)
    for start, length in ((n - 10_000, 10_000), (n - 77, 13), (n - 1, 1), (0, 130), (n, 0)):
        want = slow.window_value(start, length)
        assert file.window_value(start, length) == want == prefix.window_value(start, length)
        assert file.window_lsb(start, length) == slow.window_lsb(start, length)
    for start, length in ((n - 5, 12), (n, 3), (n + 40, 1)):
        inside = max(n - start, 0)
        head = slow.window_value(start, inside) if inside else 0
        assert prefix.window_value(start, length) == (head + 1 << length - inside) - 1
        with pytest.raises(InsufficientDataError) as got:
            file.window_value(start, length)
        with pytest.raises(InsufficientDataError) as want:
            slow.window_value(start, length)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"index {max(start, n)} requested")
    # no window of the first 8,000 bits is all ones, so the search reads on
    # until the first candidate whose window crosses the end
    short = data[:1000]
    target = ClopenSet.from_strings(["1" * 40])
    for source in (FileSource.from_bytes(short), _FileBitByBit(short)):
        with pytest.raises(InsufficientDataError) as raised:
            least_witness(source, target, 1, 8000)
        assert str(raised.value) == "source <bytes> holds 8000 bits, index 8000 requested"
