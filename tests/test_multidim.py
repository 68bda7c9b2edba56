"""Grid samples, face shifts, and the grid certificates.

The shell order is the one bijection between grids and words.  The oracles
here work on flat row-major bit strings with manual index arithmetic, or
read the grid cell by cell, independent of the shell order they check.
"""

import random
from itertools import product

import pytest

from shiftrec import multidim
from shiftrec.bitseq import _GAMMA, Word
from shiftrec.dyadic import D_ONE, D_ZERO, Dyadic
from shiftrec.errors import BudgetExceededError, InsufficientDataError
from shiftrec.measure import (
    ClopenSet,
    CubeSet,
    StagedCoEnumeration,
    is_prefix_free,
    prefix_reduce,
)
from shiftrec.multidim import (
    ArraySample,
    ExplicitGridSource,
    GridMLConstruction,
    GridSource,
    SeededGridSource,
    _shell_position,
    all_samples,
    array_measure_open,
    arrays_prefix_free,
    face_shift,
    grid_find_witness,
    grid_kurtz_stage_set,
    shell_words,
)
from shiftrec.schnorr import schnorr_error_set, schnorr_schedule


def sample2(text, size):
    return ArraySample.from_bit_string(2, size, text)


def cubes(*shell_words):
    """The fully fixed cubes of shell words."""
    return CubeSet.from_words(shell_words).cubes


ONE_CELL = ArraySample(2, 1, (1,))
ZERO_CELL = ArraySample(2, 1, (0,))


def test_sample_validation():
    with pytest.raises(ValueError):
        ArraySample(2, 2, (0, 1, 1))
    with pytest.raises(ValueError):
        ArraySample(2, 1, (2,))
    empty = ArraySample(2, 0, ())
    assert empty.cell_count == 0
    assert empty.cylinder_measure() == D_ONE


def test_sample_indexing_row_major():
    s = sample2("0110", 2)
    assert s.get((0, 0)) == 0
    assert s.get((0, 1)) == 1
    assert s.get((1, 0)) == 1
    assert s.get((1, 1)) == 0


def test_crop_examples():
    s = sample2("011010001", 3)
    assert s.crop(1, 0) == s
    assert s.crop(1, 3) == ArraySample(2, 0, ())
    # direction 2, one face: tau(u1, u2) = s(u1, u2 + 1), trimmed to 2x2
    t = s.crop(2, 1)
    assert t.size == 2
    assert all(
        t.get((a, b)) == s.get((a, b + 1)) for a in range(2) for b in range(2)
    )
    with pytest.raises(ValueError):
        s.crop(1, 4)
    with pytest.raises(ValueError):
        s.crop(3, 1)


def test_crop_composes_randomized():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.choice((2, 3))
        n = rng.randint(2, 8 if k == 2 else 4)
        bits = tuple(rng.randint(0, 1) for _ in range(n**k))
        s = ArraySample(k, n, bits)
        i = rng.randint(1, k)
        a = rng.randint(0, n)
        b = rng.randint(0, n - a)
        assert s.crop(i, a).crop(i, b) == s.crop(i, a + b)


def test_face_shift_examples():
    grid = SeededGridSource(5, 2)
    assert face_shift(grid, 1, 0).sample(3) == grid.sample(3)
    shifted = face_shift(grid, 1, 2)
    assert all(
        shifted.bit((a, b)) == grid.bit((a + 2, b))
        for a, b in product(range(4), repeat=2)
    )
    constant = ExplicitGridSource(ArraySample(2, 0, ()), 1)
    assert face_shift(constant, 2, 5).sample(2) == constant.sample(2)


def test_face_shift_composes():
    grid = SeededGridSource(11, 3)
    twice = face_shift(face_shift(grid, 2, 3), 2, 4)
    once = face_shift(grid, 2, 7)
    assert twice.sample(3) == once.sample(3)


def test_crop_face_shift_compatibility():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.choice((2, 3))
        grid = SeededGridSource(rng.randint(0, 10**6), k)
        i = rng.randint(1, k)
        s = rng.randint(0, 3)
        m = rng.randint(1, 4 if k == 2 else 3)
        assert face_shift(grid, i, s).sample(m) == grid.sample(m + s).crop(i, s)


def test_shell_word_examples():
    assert sample2("0110", 2).word() == Word.from_string("0110")
    # shells of the 3x3 cube: (0,0) | (0,1) (1,0) (1,1) | (0,2) (1,2) (2,0) (2,1) (2,2)
    assert sample2("011010001", 3).word() == Word.from_string("010110001")
    assert ArraySample(3, 0, ()).word() == Word(0, 0)


def test_shell_position_is_the_rank_in_the_sorted_shell_order():
    """The arithmetic shell position of a cell against its index among the
    cells sorted by (largest coordinate, row-major)."""
    for k in (1, 2, 3, 4):
        for n in range(6):
            cells = sorted(product(range(n), repeat=k), key=lambda v: (max(v), v))
            assert [_shell_position(v) for v in cells] == list(range(n**k))


def test_shell_word_prefix_is_restriction():
    rng = random.Random(13)
    for _ in range(300):
        k = rng.choice((1, 2, 3))
        n = rng.randint(0, 6 if k < 3 else 4)
        a = ArraySample(k, n, tuple(rng.randint(0, 1) for _ in range(n**k)))
        w = a.word()
        assert w.length == n**k
        assert ArraySample.from_word(k, w) == a
        for m in range(n + 1):
            assert a.restrict(m).word() == w.take(m**k)
    with pytest.raises(ValueError):
        ArraySample.from_word(2, Word.from_string("101"))


def _oracle_shell_word(sample: ArraySample) -> Word:
    """One sample at a time: its cells sorted by (largest coordinate, row-major)."""
    cells = sorted(product(range(sample.size), repeat=sample.dimension), key=lambda v: (max(v), v))
    return Word.from_bits(sample.get(v) for v in cells)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_batch_shell_conversion_matches_per_sample(k, n):
    rng = random.Random(100 * k + n)
    texts = ["".join(rng.choice("01") for _ in range(n**k)) for _ in range(25)]
    samples = [ArraySample.from_bit_string(k, n, t) for t in texts]
    words = shell_words(k, n, texts)
    assert words == [_oracle_shell_word(a) for a in samples]
    assert [ArraySample.from_word(k, w).bit_string() for w in words] == texts
    assert shell_words(k, n, []) == []


def test_shell_conversion_rejects_bad_samples_before_building_tables():
    with pytest.raises(ValueError, match="negative"):
        shell_words(2, -3, [""])
    with pytest.raises(ValueError, match="needs 4 bits"):
        shell_words(2, 2, ["1011", "101"])  # mixed lengths
    with pytest.raises(ValueError):
        shell_words(2, 2, ["1021"])
    with pytest.raises(ValueError):
        shell_words(0, 2, ["1"])
    # a size whose cube has 10**18 cells is refused from the bit count alone
    with pytest.raises(ValueError, match="needs"):
        shell_words(2, 10**9, ["1"])


def test_cylinder_measure():
    for k, n in ((2, 3), (3, 2), (2, 5)):
        s = ArraySample.from_function(k, n, lambda c: 0)
        assert s.cylinder_measure() == Dyadic(1, n**k)


def test_array_measure_against_refinement_oracle():
    small = sample2("1", 1)
    big = sample2("0110", 2)
    other = sample2("1011", 2)
    # 'other' extends 'small' (leading cell 1), 'big' does not
    assert small.is_prefix_of(other)
    assert not small.is_prefix_of(big)
    reduced = prefix_reduce(a.word() for a in (small, big, other))
    assert reduced == CubeSet.from_words({small.word(), big.word()})
    got = array_measure_open({small, big, other})
    # refine to size 2: cylinders above 'small' are the 8 extensions
    refined_hits = sum(
        1 for s in all_samples(2, 2) if small.is_prefix_of(s) or big.is_prefix_of(s)
    )
    assert got == Dyadic(refined_hits, 4)
    assert arrays_prefix_free({small, big})
    assert not arrays_prefix_free({small, other})


def test_grid_source_determinism():
    a = SeededGridSource(42, 2)
    b = SeededGridSource(42, 2)
    assert a.sample(5) == b.sample(5)
    assert SeededGridSource(1, 2).sample(4) != SeededGridSource(2, 2).sample(4)


def test_grid_find_witness_examples():
    full = ClopenSet(1, {ONE_CELL.word(), ZERO_CELL.word()})
    assert grid_find_witness(SeededGridSource(9, 2), full, 10) == 1

    zeros = ExplicitGridSource(ArraySample(2, 0, ()), 0)
    ones_target = ClopenSet(1, {ONE_CELL.word()})
    assert grid_find_witness(zeros, ones_target, 50) is None


def test_grid_find_witness_matches_scan_oracle():
    target = ClopenSet(1, {ONE_CELL.word()})
    for seed in range(20):
        grid = SeededGridSource(seed, 2)
        got = grid_find_witness(grid, target, 64)
        oracle = next(
            (
                n
                for n in range(1, 65)
                if grid.bit((n, 0)) == 1 and grid.bit((0, n)) == 1
            ),
            None,
        )
        assert got == oracle


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n1", [1, 2, 3])
def test_block_bits_are_the_shifted_shell_word(k, n1):
    """Seeded block_bits (hoisted mix chains) == the generic GridSource
    version (through ``bit``) == the face-shifted source's shell word."""
    for seed in (0, 5):
        grid = SeededGridSource(seed, k)
        for axis in range(k):
            for offset in (0, 1, 2, 7, 64):
                seeded = tuple(grid.block_bits(axis, offset, n1))
                generic = tuple(GridSource.block_bits(grid, axis, offset, n1))
                shifted = face_shift(grid, axis + 1, offset).shell_word(n1).bits()
                assert seeded == generic == shifted, (seed, axis, offset)


def _grid_witness_by_shell_words(grid, target, n_max):
    """Least n whose k face-shifted shell words all lie in the target, each
    block read in full."""
    k = grid.dimension
    n1 = round(target.granularity ** (1 / k))
    for n in range(1, n_max + 1):
        if all(
            target.contains_word(face_shift(grid, i, n).shell_word(n1)) for i in range(1, k + 1)
        ):
            return n
    return None


@pytest.mark.parametrize("k, n1", [(1, 3), (2, 2), (3, 1), (2, 3)])
def test_grid_find_witness_matches_full_read_oracle(k, n1):
    """Abandoning a block at its first failing cell finds the same least n as
    reading every block in full, on seeded and explicit grids."""
    rng = random.Random(100 * k + n1)
    cells = n1**k
    found = 0
    for trial in range(8):
        words = rng.sample(range(1 << cells), rng.randint(1, max(1, (1 << cells) // 3)))
        target = ClopenSet(cells, {Word(v, cells) for v in words})
        size = 12
        sample = ArraySample(k, size, tuple(rng.randint(0, 1) for _ in range(size**k)))
        for grid in (SeededGridSource(trial, k), ExplicitGridSource(sample, trial % 2)):
            got = grid_find_witness(grid, target, 6)
            assert got == _grid_witness_by_shell_words(grid, target, 6)
            found += got is not None
    assert 0 < found < 16


@pytest.mark.parametrize("k, n1, members", [(2, 2, 2), (3, 2, 64), (2, 3, 128)])
def test_grid_find_witness_matches_axis_zero_first_oracle(k, n1, members):
    """Reading the blocks from the last axis to the first finds the n that
    reading them from axis 0 on finds, each block read in full through
    ``bit``; the targets are sparse enough for witnesses past n = 30."""
    cells = n1**k
    rng = random.Random(cells)
    target = ClopenSet(cells, {Word(v, cells) for v in rng.sample(range(1 << cells), members)})
    for seed in range(5):
        grid = SeededGridSource(seed, k)
        oracle = next(
            (
                n
                for n in range(1, 301)
                if all(
                    target.contains_word(Word.from_bits(GridSource.block_bits(grid, axis, n, n1)))
                    for axis in range(k)
                )
            ),
            None,
        )
        assert grid_find_witness(grid, target, 300) == oracle, seed


def test_grid_find_witness_reports_a_late_witness():
    target = ClopenSet(4, shell_words(2, 2, ["1011", "0000"]))
    grid = SeededGridSource(7, 2)
    assert grid_find_witness(grid, target, 4000) == 67
    assert _grid_witness_by_shell_words(grid, target, 67) == 67
    assert grid_find_witness(grid, target, 66) is None


def _lane_bits(value, count):
    """The bits of ``count`` 128-bit lanes, each lane's lowest; the other
    bits must be clear."""
    bits = [value >> 128 * i & 1 for i in range(count)]
    assert value == sum(b << 128 * i for i, b in enumerate(bits))
    return bits


# (lo, count): reads ending at the first chunk edges, a first and a second
# chunk read whole, offsets whose c + lo + GAMMA crosses 2**64, and offsets
# wider than a lane
_FACE_READS = [
    (60, 4), (62, 3), (190, 2), (130, 63), (4090, 6), (4000, 97), (1, 64), (65, 128),
    ((1 << 64) - _GAMMA - 4, 8), ((1 << 130) + 5, 3),
]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n1", [1, 2, 3])
def test_face_bits_are_the_block_bits_of_each_offset(k, n1):
    """Lane ``i`` of cell ``j`` is cell ``j`` of ``block_bits(axis, lo + i)``,
    on a seeded grid (lane-mixed) and through the generic read."""
    grid = SeededGridSource(3, k)
    for axis in range(k):
        for lo, count in _FACE_READS:
            blocks = [tuple(grid.block_bits(axis, lo + i, n1)) for i in range(count)]
            expected = [list(column) for column in zip(*blocks)]
            seeded = grid.face_bits(axis, n1, lo, count)
            assert [_lane_bits(v, count) for v in seeded] == expected, (axis, lo)
            assert GridSource.face_bits(grid, axis, n1, lo, count) == seeded


def test_face_bits_of_a_finite_grid():
    rng = random.Random(5)
    sample = ArraySample(2, 6, tuple(rng.randint(0, 1) for _ in range(36)))
    for default in (0, 1):
        grid = ExplicitGridSource(sample, default)
        for axis in (0, 1):
            cells = grid.face_bits(axis, 2, 3, 4)
            for i in range(4):
                block = [_lane_bits(v, 4)[i] for v in cells]
                assert block == list(grid.block_bits(axis, 3 + i, 2))
    with pytest.raises(InsufficientDataError):
        ExplicitGridSource(sample, None).face_bits(1, 2, 4, 2)  # cells at 6 on axis 1
    assert len(ExplicitGridSource(sample, None).face_bits(1, 2, 4, 1)) == 4
    with pytest.raises(ValueError):
        SeededGridSource(1, 2).face_bits(0, 2, 5, 0)
    with pytest.raises(ValueError):
        SeededGridSource(1, 2).face_bits(2, 2, 5, 1)


def _chunk_edges(count):
    """The last candidate of each of the first ``count`` chunks."""
    edges, last, size = [], 0, multidim._FIRST_FACES
    for _ in range(count):
        last += size
        edges.append(last)
        size = min(2 * size, multidim._MAX_FACES)
    return edges


@pytest.mark.parametrize("chunks", [(64, 4096), (2, 8)], ids=["module", "small"])
@pytest.mark.parametrize("k, n1", [(2, 3), (3, 2)])
def test_grid_find_witness_at_chunk_edges(chunks, k, n1, monkeypatch):
    """A witness at the last candidate of a chunk or the first of the next is
    found, and not one candidate early; the target holds the blocks of that
    candidate, so a sparse target puts the least witness there."""
    monkeypatch.setattr(multidim, "_FIRST_FACES", chunks[0])
    monkeypatch.setattr(multidim, "_MAX_FACES", chunks[1])
    witnesses = [n + d for n in _chunk_edges(3 if chunks[0] == 64 else 5) for d in (0, 1)]
    for seed, n in enumerate(witnesses):
        grid = SeededGridSource(seed, k)
        blocks = {Word.from_bits(grid.block_bits(axis, n, n1)) for axis in range(k)}
        target = ClopenSet(n1**k, blocks)
        assert grid_find_witness(grid, target, 100_000) == n
        assert _grid_witness_by_shell_words(grid, target, n) == n
        assert grid_find_witness(grid, target, n - 1) is None


def test_grid_find_witness_reads_doubling_chunks_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(multidim, "_FIRST_FACES", 2)
    monkeypatch.setattr(multidim, "_MAX_FACES", 8)
    reads = []

    class Recording(SeededGridSource):
        def face_bits(self, axis, size, lo, count):
            reads.append((axis, lo, count))
            return super().face_bits(axis, size, lo, count)

    assert grid_find_witness(Recording(1, 2), ClopenSet(4, set()), 40) is None
    assert reads == [(1, 1, 2), (1, 3, 4), (1, 7, 8), (1, 15, 8), (1, 23, 8), (1, 31, 8),
                     (1, 39, 2)]


def _grid_witness_by_candidate(grid, target, n_max):
    """The per-candidate scan: the blocks of each n from the last axis to the
    first, each read until its first cell that no member's prefix agrees with."""
    k = grid.dimension
    n1 = round(target.granularity ** (1 / k))
    prefixes = target.prefix_values()[1:]
    for n in range(1, n_max + 1):
        for axis in range(k - 1, -1, -1):
            value = 0
            for bit, agreeing in zip(grid.block_bits(axis, n, n1), prefixes):
                value = value << 1 | bit
                if value not in agreeing:
                    break
            else:
                continue
            break
        else:
            return n
    return None


def _outcome(search, *args):
    try:
        return search(*args)
    except InsufficientDataError as exc:
        return f"InsufficientDataError: {exc}"


@pytest.mark.parametrize("chunks", [(64, 4096), (2, 8)], ids=["module", "small"])
def test_finite_grid_gives_the_per_candidate_outcome(chunks, monkeypatch):
    """On a grid with no bits past its sample, the chunked search returns the
    same witness, or raises the same InsufficientDataError, as reading every
    candidate on its own."""
    monkeypatch.setattr(multidim, "_FIRST_FACES", chunks[0])
    monkeypatch.setattr(multidim, "_MAX_FACES", chunks[1])
    rng = random.Random(21)
    seen = set()
    for trial in range(120):
        k, n1 = rng.choice([(1, 2), (1, 3), (2, 1), (2, 2), (3, 1)])
        cells = n1**k
        size = rng.randint(n1, 40 if k == 1 else 9)
        sample = ArraySample(k, size, tuple(rng.randint(0, 1) for _ in range(size**k)))
        members = rng.sample(range(1 << cells), rng.randint(1, 1 << cells))
        target = ClopenSet(cells, {Word(v, cells) for v in members})
        grid = ExplicitGridSource(sample, None)
        n_max = rng.randint(1, 3 * size)
        expected = _outcome(_grid_witness_by_candidate, grid, target, n_max)
        assert _outcome(grid_find_witness, grid, target, n_max) == expected, trial
        seen.add(type(expected))
    assert seen == {int, str, type(None)}


def test_grid_kurtz_single_stage():
    target = ClopenSet(1, {ONE_CELL.word()})
    cert = grid_kurtz_stage_set(target, 2, 1)
    assert cert.exact_measure == Dyadic(3, 2)  # 1 - (1/2)^2
    assert len(cert.words) == 12
    # oracle: scan the 16 two-by-two cubes directly
    hits = sum(
        1
        for s in all_samples(2, 2)
        if not (s.get((1, 0)) == 1 and s.get((0, 1)) == 1)
    )
    assert cert.exact_measure == Dyadic(hits, 4)


def test_grid_kurtz_full_target_empty():
    full = ClopenSet(1, {ONE_CELL.word(), ZERO_CELL.word()})
    cert = grid_kurtz_stage_set(full, 2, 1)
    assert cert.exact_measure == D_ZERO


def test_grid_kurtz_product_across_stages():
    # cross-stage independence checked by enumeration, not assumed
    target = ClopenSet(1, {ONE_CELL.word()})
    for r in (1, 2, 3):
        cert = grid_kurtz_stage_set(target, 2, r)
        assert cert.exact_measure == (D_ONE - Dyadic(1, 2)) ** r
        assert cert.parameters["product_exact"]


def test_grid_kurtz_budget():
    # r = 15 is the least r whose sharp visits over 2^24 bits of cubes: its
    # cover is 2^15 cubes of 16^2 bits, and the sharp visits more than 2^16
    target = ClopenSet(1, {ONE_CELL.word()})
    grid_kurtz_stage_set(target, 2, 14)
    with pytest.raises(BudgetExceededError):
        grid_kurtz_stage_set(target, 2, 15)


def _survives_by_cells(sample, k, n1, target_bits, r):
    """Whether some face's moved block escapes the target at every stage 1..r,
    read cell by cell; the target is a set of row-major bit strings."""
    for stage in range(1, r + 1):
        if all(
            "".join(
                str(sample.get(tuple(c + stage * n1 * (a == axis) for a, c in enumerate(v))))
                for v in product(range(n1), repeat=k)
            )
            in target_bits
            for axis in range(k)
        ):
            return False
    return True


@pytest.mark.parametrize("k, n1, target_bits", [(2, 2, "1011"), (3, 1, "1")])
def test_grid_kurtz_multi_cell_blocks_match_cell_oracle(k, n1, target_bits):
    target = ClopenSet(n1**k, shell_words(k, n1, [target_bits]))
    cert = grid_kurtz_stage_set(target, k, 1)
    size = 2 * n1
    words = cert.cover.expand(1 << size**k)  # cubes above 4,096 words
    survivors = {ArraySample.from_word(k, w).bit_string() for w in words}
    assert len(survivors) == len(words)
    for value in range(1 << size**k):
        bits = format(value, f"0{size**k}b")
        sample = ArraySample.from_bit_string(k, size, bits)
        assert _survives_by_cells(sample, k, n1, {target_bits}, 1) == (bits in survivors)


def _witness_by_cells(grid, k, n1, target_bits, n_max):
    """Least n whose k face-shifted size-n1 blocks, read cell by cell in
    row-major order, all lie in ``target_bits``."""
    for n in range(1, n_max + 1):
        if all(
            "".join(
                str(grid.bit(tuple(c + n * (a == axis) for a, c in enumerate(v))))
                for v in product(range(n1), repeat=k)
            )
            in target_bits
            for axis in range(k)
        ):
            return n
    return None


@pytest.mark.parametrize("k, n1", [(2, 2), (3, 2), (2, 3)])
def test_grid_find_witness_multi_cell_targets_match_cell_oracle(k, n1):
    rng = random.Random(10 * k + n1)
    cells = n1**k
    # half of all blocks, so that witnesses come early and misses are seen too
    target_bits = set(rng.sample([format(v, f"0{cells}b") for v in range(1 << cells)],
                                 1 << (cells - 1)))
    target = ClopenSet(cells, shell_words(k, n1, sorted(target_bits)))
    found = 0
    for seed in range(12):
        grid = SeededGridSource(seed, k)
        got = grid_find_witness(grid, target, 6)
        assert got == _witness_by_cells(grid, k, n1, target_bits, 6)
        found += got is not None
    assert 0 < found < 12


# --- grid level sets against a flat-string oracle --------------------------------


def _restrict_str(bits: str, size: int, k: int, m: int) -> str:
    return "".join(
        bits[sum(c * size ** (k - 1 - j) for j, c in enumerate(coords))]
        for coords in product(range(m), repeat=k)
    )


def _crop_str(bits: str, size: int, k: int, i: int, s: int) -> str:
    out = []
    for coords in product(range(size - s), repeat=k):
        shifted = list(coords)
        shifted[i - 1] += s
        out.append(bits[sum(c * size ** (k - 1 - j) for j, c in enumerate(shifted))])
    return "".join(out)


def oracle_grid_levels(stages: dict[int, set[str]], k: int, r_max: int, stage_max: int):
    def cumulative(t):
        return {(s, w) for s, ws in stages.items() if s <= t for w in ws}

    levels = [{("", 0): 0}]  # (bits, size) -> stage
    for _ in range(r_max):
        parents = levels[-1]
        entries: dict[tuple[str, int], int] = {}
        for t in range(1, stage_max + 1):
            new = set()
            for value in range(1 << (t**k)):
                bits = format(value, f"0{t ** k}b")
                if any(
                    (_restrict_str(bits, t, k, m), m) in entries for m in range(t)
                ):
                    continue
                ok = False
                for (sbits, s), _stage in parents.items():
                    if t <= 2 * s or _restrict_str(bits, t, k, s) != sbits:
                        continue
                    for i in range(1, k + 1):
                        cropped = _crop_str(bits, t, k, i, s)
                        for bsize, bw in cumulative(t - s):
                            if (
                                bsize <= t - s
                                and _restrict_str(cropped, t - s, k, bsize) == bw
                            ):
                                ok = True
                                break
                        if ok:
                            break
                    if ok:
                        break
                if ok:
                    new.add((bits, t))
            for key in new:
                entries[key] = t
        levels.append(entries)
    return levels


def test_grid_levels_match_oracle():
    b = StagedCoEnumeration(
        {
            1: cubes(ONE_CELL.word()),
            3: cubes(ArraySample.from_bit_string(2, 3, "000010000").word()),
        },
        dimension=2,
    )
    con = GridMLConstruction(b, 4, candidate_budget=1 << 24)
    oracle = oracle_grid_levels(
        {1: {"1"}, 3: {"000010000"}}, 2, 2, 4
    )
    for r in (0, 1, 2):
        samples = [ArraySample.from_word(2, w) for w in con.level(r).expand(1 << 24)]
        got = {(a.bit_string(), a.size): a.size for a in samples}  # entered at its side
        want = {((bits, size)): s for (bits, size), s in oracle[r].items()}
        assert got == want, f"grid level {r}"


def test_grid_ml_example():
    b = StagedCoEnumeration({2: cubes(sample2("1011", 2).word())}, dimension=2)
    cert0 = GridMLConstruction(b, 5).level_certificate(0)
    assert cert0.words == (ArraySample(2, 0, ()).word(),)
    cert1 = GridMLConstruction(b, 5).level_certificate(1)
    assert cert1.words == (sample2("1011", 2).word(),)
    assert cert1.exact_measure == Dyadic(1, 4)  # 1/16
    assert cert1.required_bound == Dyadic(1, 3)  # q = 2 * 1/16 = 1/8
    assert is_prefix_free(cert1.words)


def test_grid_ml_empty_complement():
    empty = StagedCoEnumeration({}, dimension=2)
    con = GridMLConstruction(empty, 4)
    assert set(con.level(0).expand(1)) == {ArraySample(2, 0, ()).word()}
    for r in (1, 2):
        assert len(con.level(r)) == 0
    with pytest.raises(ValueError):
        GridMLConstruction(StagedCoEnumeration({}, dimension=0), 4)
    one = StagedCoEnumeration({1: cubes(ONE_CELL.word())}, dimension=2)
    assert len(GridMLConstruction(one, 4).level(1)) == 1


def test_grid_levels_prefix_free_and_staged():
    b = StagedCoEnumeration({1: cubes(ONE_CELL.word())}, dimension=2)
    con = GridMLConstruction(b, 4, candidate_budget=1 << 24)
    for r in (1, 2):
        level = con.level(r).expand(1 << 24)
        assert is_prefix_free(level)
        assert con.level(r).overlap(1 << 20) is None and len(set(level)) == len(level)
        assert all(w.length in {s**2 for s in range(1, 5)} for w in level)
        cert = con.level_certificate(r)
        assert cert.exact_measure <= cert.required_bound


def test_flatten_coenum_measure_and_schedule():
    """A grid class's cubes, each delivered at the stage equal to its length
    in a one-dimensional co-enumeration, keep its measure and bring the
    scheduled machinery to grids."""
    b = StagedCoEnumeration({2: cubes(sample2("1011", 2).word())}, dimension=2)
    flat = StagedCoEnumeration({n: [(n, care, value)] for n, care, value in b.newly(2)})
    assert flat.measure() == b.measure()
    # the one-dimensional scheduled machinery applies unchanged
    sched = schnorr_schedule(flat, 1, 0, 2)
    for t in (1, 2):
        cert = schnorr_error_set(flat, sched, 1, 0, t)
        assert cert.exact_measure <= cert.required_bound


def test_sample_text_roundtrip():
    s = ArraySample.from_bit_string(2, 3, "011010001")
    text = s.to_text()
    assert text.splitlines()[0] == "k 2 n 3"
    assert ArraySample.from_text(text) == s
    empty = ArraySample(3, 0, ())
    assert ArraySample.from_text(empty.to_text()) == empty
