"""Commuting face shifts on k-dimensional bit grids.

Finite observations are cube samples (size-n maps on {0..n-1}^k); the
"prefix" order is restriction to a leading sub-cube, and the cylinder above
a size-n sample has measure ``2**-(n**k)``.

Read in shell order -- cells ordered by their largest coordinate, then
row-major -- every size-m sub-cube is the first ``m**k`` cells of the cube.
A size-n sample is therefore a word of length ``n**k`` (its *shell word*),
restriction is :meth:`Word.take`, and the shell order is the bijection that
carries grids to one dimension: cube cylinders become word cylinders of the
same measure.  The open sets, clopen targets, staged co-enumerations and
level loop of the one-dimensional modules serve grids unchanged, and a grid
class's cubes of shell words, each delivered at the stage equal to its
length in a one-dimensional co-enumeration, bring the scheduled error-set
machinery to grids.  Certificates list grid samples by their
shell words; :meth:`ArraySample.from_word` gives the cube a shell word
stands for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .bitseq import (
    EMPTY_WORD,
    Word,
    _GAMMA,
    _MASK64,
    _mix64,
    _mix64_lanes,
    joined_bits,
)
from .certificates import TestCertificate, new_certificate
from .dyadic import D_ONE, Dyadic
from .errors import InsufficientDataError
from .kurtz import survivor_cover
from .measure import ClopenSet, StagedCoEnumeration, is_prefix_free, measure_open
from .mltest import MLConstruction
from .recurrence import _gap_hits, _gap_walk

_SampleIter = Iterable["ArraySample"]


# --- the shell order ------------------------------------------------------------


@cache
def _shell_cells(dimension: int, size: int) -> tuple[tuple[int, ...], ...]:
    """Cells of the size-n cube in shell order: by largest coordinate, then
    row-major.  The size-m sub-cube is always the first ``m**k`` of them."""
    return tuple(sorted(product(range(size), repeat=dimension), key=lambda v: (max(v), v)))


def _shell_position(cell: Sequence[int]) -> int:
    """Shell position of a cell, the same in every cube that holds it: the
    ``m**k`` cells of largest coordinate below ``m = max(cell)`` come first,
    then the cells of largest coordinate ``m`` that precede it row-major."""
    m, k = max(cell, default=0), len(cell)
    position, has_m = m**k, False
    for j, c in enumerate(cell):
        # cells that first differ here, by a smaller coordinate, and reach m
        position += c * ((m + 1) ** (k - j - 1) - (0 if has_m else m ** (k - j - 1)))
        has_m = has_m or c == m
    return position


@cache
def _shifted_block(dimension: int, block: int, axis: int, offset: int) -> tuple[int, ...]:
    """Shell positions of the size-b sub-cube moved ``offset`` cells along
    ``axis``, listed in the sub-cube's shell order."""
    shift = [offset * (a == axis) for a in range(dimension)]
    cells = _shell_cells(dimension, block)
    return tuple(_shell_position([c + d for c, d in zip(u, shift)]) for u in cells)


@cache
def _shell_order(dimension: int, size: int) -> tuple[int, ...]:
    """Row-major index of each cell of the size-n cube, in shell order."""
    cells = _shell_cells(dimension, size)
    return tuple(sum(c * size**e for e, c in enumerate(reversed(v))) for v in cells)


def _cube_side(cells: int, dimension: int) -> int:
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    side = round(cells ** (1 / dimension))
    if side**dimension != cells:
        raise ValueError(f"{cells} bits do not fill a cube in dimension {dimension}")
    return side


def _cell_count(dimension: int, size: int) -> int:
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    if size < 0:
        raise ValueError(f"sample size {size} is negative")
    return size**dimension


def _regroup(text: str, cells: int, order: tuple[int, ...]) -> str:
    """Reorder the cells of every ``cells``-long record of ``text`` at once:
    cell ``order[j]`` of each record becomes its cell ``j``."""
    src = text.encode("ascii")
    dst = bytearray(len(src))
    for j, p in enumerate(order):
        dst[j::cells] = src[p::cells]
    return dst.decode("ascii")


def shell_words(dimension: int, size: int, texts: Sequence[str]) -> list[Word]:
    """Shell words of size-n samples given by their row-major bit strings.

    The size and every bit count are checked before any shell table is
    built, and an empty batch builds none; the samples are then reordered
    together, one strided copy per cell.
    """
    cells = _cell_count(dimension, size)
    text = joined_bits(texts)
    bad = next((t for t in texts if len(t) != cells), None)
    if bad is not None:
        raise ValueError(
            f"size-{size} sample in dimension {dimension} needs {cells} bits, got {bad!r}"
        )
    if not (cells and texts):
        return [EMPTY_WORD] * len(texts)
    shell = _regroup(text, cells, _shell_order(dimension, size))
    return [Word(int(shell[i : i + cells], 2), cells) for i in range(0, len(shell), cells)]


def shell_word(dimension: int, size: int, bits: str) -> Word:
    """Shell word of the size-n sample whose row-major bit string is ``bits``."""
    return shell_words(dimension, size, [bits])[0]


@dataclass(frozen=True)
class ArraySample:
    """A fully populated size-n cube of bits, stored row-major."""

    dimension: int
    size: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.size < 0:
            raise ValueError("size must be nonnegative")
        if len(self.bits) != self.size**self.dimension:
            raise ValueError(
                f"size-{self.size} sample in dimension {self.dimension} needs "
                f"{self.size ** self.dimension} bits, got {len(self.bits)}"
            )
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be 0 or 1")

    @classmethod
    def from_function(
        cls, dimension: int, size: int, fn: Callable[[tuple[int, ...]], int]
    ) -> "ArraySample":
        bits = tuple(fn(coords) for coords in product(range(size), repeat=dimension))
        return cls(dimension, size, bits)

    @classmethod
    def from_bit_string(cls, dimension: int, size: int, text: str) -> "ArraySample":
        return cls(dimension, size, tuple(int(c) for c in text))

    @classmethod
    def from_word(cls, dimension: int, word: Word) -> "ArraySample":
        """The sample whose shell word is ``word``; inverse of :meth:`word`."""
        size = _cube_side(word.length, dimension)
        bits = [0] * word.length
        for b, p in zip(word.bits(), _shell_order(dimension, size)):
            bits[p] = b
        return cls(dimension, size, tuple(bits))

    def word(self) -> Word:
        """The bits in shell order; restricting to size m takes the first m**k."""
        return shell_word(self.dimension, self.size, self.bit_string())

    def _flat(self, coords: tuple[int, ...]) -> int:
        idx = 0
        for c in coords:
            if not 0 <= c < self.size:
                raise IndexError(f"coordinate {coords} outside cube of size {self.size}")
            idx = idx * self.size + c
        return idx

    def get(self, coords: tuple[int, ...]) -> int:
        if len(coords) != self.dimension:
            raise ValueError(f"expected {self.dimension} coordinates")
        return self.bits[self._flat(coords)]

    def restrict(self, m: int) -> "ArraySample":
        """Leading sub-cube of size m (the prefix of this sample)."""
        if not 0 <= m <= self.size:
            raise ValueError(f"cannot restrict size {self.size} to {m}")
        if m == self.size:
            return self
        return ArraySample.from_function(self.dimension, m, self.get)

    def crop(self, i: int, s: int) -> "ArraySample":
        """Remove s faces in direction i, trimming the rest to a cube."""
        if not 1 <= i <= self.dimension:
            raise ValueError(f"direction {i} outside 1..{self.dimension}")
        if not 0 <= s <= self.size:
            raise ValueError(f"cannot remove {s} faces from size {self.size}")
        new_size = self.size - s
        axis = i - 1

        def read(coords: tuple[int, ...]) -> int:
            shifted = coords[:axis] + (coords[axis] + s,) + coords[axis + 1 :]
            return self.get(shifted)

        return ArraySample.from_function(self.dimension, new_size, read)

    def is_prefix_of(self, other: "ArraySample") -> bool:
        if self.dimension != other.dimension:
            return False
        return self.size <= other.size and other.restrict(self.size) == self

    @property
    def cell_count(self) -> int:
        return self.size**self.dimension

    def cylinder_measure(self) -> Dyadic:
        return Dyadic(1, self.cell_count)

    def bit_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    def to_text(self) -> str:
        lines = [f"k {self.dimension} n {self.size}"]
        row = self.size if self.size else 1
        s = self.bit_string()
        lines.extend(s[p : p + row] for p in range(0, len(s), row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ArraySample":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        head = lines[0].split()
        if head[0] != "k" or head[2] != "n":
            raise ValueError("sample text must start with 'k <dim> n <size>'")
        dim, size = int(head[1]), int(head[3])
        return cls.from_bit_string(dim, size, "".join(lines[1:]))


def all_samples(dimension: int, size: int) -> Iterator[ArraySample]:
    cells = size**dimension
    for value in range(1 << cells):
        yield ArraySample(
            dimension, size, tuple((value >> (cells - 1 - f)) & 1 for f in range(cells))
        )


# A lane read gives each offset of a chunk a 16-byte lane of one int: lane
# ``i`` holds its bit at bit ``128 * i``, which leaves :func:`_mix64_lanes`
# the room it needs.
_LANE_BYTES = 16


@lru_cache(maxsize=16)
def _lanes(count: int) -> tuple[int, int, int]:
    """For ``count`` lanes: a 1 at the bottom of each, the lane index in each,
    and the 64-bit mask of each."""
    ones = int.from_bytes(b"\x01".ljust(_LANE_BYTES, b"\x00") * count, "little")
    iota = int.from_bytes(
        b"".join(i.to_bytes(_LANE_BYTES, "little") for i in range(count)), "little"
    )
    return ones, iota, _MASK64 * ones


def _lane_int(flags: bytes) -> int:
    """The lane int whose lane ``i`` holds the bit ``flags[i]``."""
    spread = bytearray(_LANE_BYTES * len(flags))
    spread[::_LANE_BYTES] = flags
    return int.from_bytes(spread, "little")


def _set_lanes(lanes: int, count: int) -> Iterator[int]:
    """The indices of the lanes of ``lanes`` whose bit is set, ascending."""
    flags = lanes.to_bytes(_LANE_BYTES * count, "little")[::_LANE_BYTES]
    i = flags.find(1)
    while i >= 0:
        yield i
        i = flags.find(1, i + 1)


class GridSource:
    """Deterministic bit field on the k-dimensional lattice."""

    dimension: int

    def bit(self, coords: tuple[int, ...]) -> int:
        raise NotImplementedError

    def sample(self, size: int) -> ArraySample:
        return ArraySample.from_function(self.dimension, size, self.bit)

    def shell_word(self, size: int) -> Word:
        """The shell word of the size-n sample, read cell by cell in shell order."""
        return Word.from_bits(self.bit(v) for v in _shell_cells(self.dimension, size))

    def block_bits(self, axis: int, offset: int, size: int) -> Iterator[int]:
        """The bits of the size-n block moved ``offset`` cells along ``axis``
        (0-based), one cell at a time in the block's shell order: the shell
        word of ``face_shift(self, axis + 1, offset)``, read lazily."""
        self._check_block(axis, offset)
        for u in _shell_cells(self.dimension, size):
            yield self.bit(u[:axis] + (u[axis] + offset,) + u[axis + 1 :])

    def face_bits(self, axis: int, size: int, lo: int, count: int) -> list[int]:
        """The size-n blocks moved ``lo, lo + 1, ..., lo + count - 1`` cells
        along ``axis``, read together: per cell in the block's shell order,
        one lane int (see :func:`_lane_int`) whose lane ``i`` holds the cell's
        bit in ``block_bits(axis, lo + i, size)``."""
        self._check_block(axis, lo, count)
        rows = [bytes(self.block_bits(axis, lo + i, size)) for i in range(count)]
        return [_lane_int(bytes(column)) for column in zip(*rows)]

    def _check_block(self, axis: int, offset: int, count: int = 1) -> None:
        if not 0 <= axis < self.dimension:
            raise ValueError(f"axis {axis} outside 0..{self.dimension - 1}")
        if offset < 0:
            raise ValueError("shift amount must be nonnegative")
        if count < 1:
            raise ValueError("a lane read needs at least one offset")


class SeededGridSource(GridSource):
    """splitmix64-mixed coordinates: ``h = mix64(seed + GAMMA)`` then
    ``h = mix64(h ^ (c + GAMMA))`` per coordinate; the bit is ``h & 1``."""

    def __init__(self, seed: int, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        self.seed = int(seed)
        self.dimension = dimension
        self._h0 = _mix64(self.seed + _GAMMA)
        # (axis, size) -> per cell of the block in shell order: the hash
        # through the coordinates before the axis, the coordinate on it and
        # the coordinates after it
        self._chains: dict[tuple[int, int], list[tuple[int, int, tuple[int, ...]]]] = {}

    def bit(self, coords: tuple[int, ...]) -> int:
        if len(coords) != self.dimension:
            raise ValueError(f"expected {self.dimension} coordinates")
        h = self._h0
        for c in coords:
            if c < 0:
                raise IndexError("negative coordinate")
            h = _mix64(h ^ (c + _GAMMA))
        return h & 1

    def _leading_chains(self, axis: int, size: int) -> list[tuple[int, int, tuple[int, ...]]]:
        chains = self._chains.get((axis, size))
        if chains is None:
            chains = []
            for u in _shell_cells(self.dimension, size):
                h = self._h0
                for c in u[:axis]:
                    h = _mix64(h ^ (c + _GAMMA))
                chains.append((h, u[axis], u[axis + 1 :]))
            self._chains[axis, size] = chains
        return chains

    def block_bits(self, axis: int, offset: int, size: int) -> Iterator[int]:
        """As :meth:`GridSource.block_bits`; the mix chain through the
        unshifted leading coordinates is hashed once per axis, size and cell,
        and only the shifted coordinate and the ones after it per offset."""
        self._check_block(axis, offset)
        for h, c, rest in self._leading_chains(axis, size):
            h = _mix64(h ^ (c + offset + _GAMMA))
            for c in rest:
                h = _mix64(h ^ (c + _GAMMA))
            yield h & 1

    def face_bits(self, axis: int, size: int, lo: int, count: int) -> list[int]:
        """As :meth:`GridSource.face_bits`, every offset's hash at once: per
        cell, one :func:`_mix64_lanes` of the leading chain XOR the lanes'
        ``c + lo + i + GAMMA``, and one more per coordinate after the axis."""
        self._check_block(axis, lo, count)
        ones, iota, lanes = _lanes(count)
        cells = []
        for h, c, rest in self._leading_chains(axis, size):
            # the scalar is reduced first so that no lane overflows into the
            # next; adding i may carry into bit 64, which the mix masks off
            # before any product, so each lane wraps mod 2**64 as in _mix64
            z = _mix64_lanes((((c + lo + _GAMMA) & _MASK64) * ones + iota) ^ h * ones, lanes)
            for c in rest:
                z = _mix64_lanes(z ^ (c + _GAMMA) * ones, lanes)
            cells.append(z & ones)
        return cells


class ExplicitGridSource(GridSource):
    """A finite sample, then a default bit (or an error when none is set)."""

    def __init__(self, sample: ArraySample, default_bit: int | None = 0):
        self.base = sample
        self.dimension = sample.dimension
        self.default_bit = default_bit

    def bit(self, coords: tuple[int, ...]) -> int:
        if all(0 <= c < self.base.size for c in coords):
            return self.base.get(coords)
        if self.default_bit is None:
            raise InsufficientDataError(f"no data at {coords}")
        return self.default_bit


class _ShiftedGridSource(GridSource):
    def __init__(self, inner: GridSource, offsets: tuple[int, ...]):
        self.inner = inner
        self.offsets = offsets
        self.dimension = inner.dimension

    def bit(self, coords: tuple[int, ...]) -> int:
        return self.inner.bit(tuple(c + o for c, o in zip(coords, self.offsets)))


def face_shift(grid: GridSource, i: int, s: int) -> GridSource:
    """Advance coordinate i by s; composes additively in s."""
    if not 1 <= i <= grid.dimension:
        raise ValueError(f"direction {i} outside 1..{grid.dimension}")
    if s < 0:
        raise ValueError("shift amount must be nonnegative")
    offsets = [0] * grid.dimension
    offsets[i - 1] = s
    if isinstance(grid, _ShiftedGridSource):
        combined = tuple(a + b for a, b in zip(grid.offsets, offsets))
        return _ShiftedGridSource(grid.inner, combined)
    return _ShiftedGridSource(grid, tuple(offsets))


# --- open sets of sample cylinders ---------------------------------------------


def arrays_prefix_free(samples: _SampleIter) -> bool:
    return is_prefix_free(a.word() for a in samples)


def array_measure_open(samples: _SampleIter) -> Dyadic:
    """Exact measure of the union of sample cylinders."""
    return measure_open(a.word() for a in samples)


# --- recurrence and certificates ------------------------------------------------


# offsets of the last axis read together: the first chunk's, doubling up to the cap
_FIRST_FACES = 64
_MAX_FACES = 4096


def grid_find_witness(grid: GridSource, target: ClopenSet, n_max: int) -> int | None:
    """Least n <= n_max whose k simultaneous face shifts all land in the target,
    a clopen set of the shell words of one cube size.

    The last axis's blocks are read for a chunk of candidates at once, 64
    first and doubling up to 4,096 (:meth:`GridSource.face_bits`; a seeded
    grid hashes each cell once per chunk, as lanes of one int).  The
    candidates whose block lies in the target are the lanes no gap word of
    the target matches, one AND per node of the gap words' trie.  Each of
    them, in ascending order, is then read on the other axes, from the last
    to the first, each block cell by cell against the target's prefix
    values and abandoned at the first cell no target word agrees with.  The
    last axis goes first because a seeded grid hashes its cells once past
    the coordinates they share with the unshifted cube, and which block
    fails first cannot change the least ``n``.  A chunk whose lane read
    raises InsufficientDataError is read candidate by candidate, so a finite
    grid gives the same ``n``, or raises the same error, as a plain scan.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    k = grid.dimension
    n1 = _cube_side(target.granularity, k)
    prefixes = target.prefix_values()[1:]
    walk = _gap_walk(target.gap_words())
    lo, count = 1, _FIRST_FACES
    while lo <= n_max:
        count = min(count, n_max + 1 - lo)
        try:
            cells = grid.face_bits(k - 1, n1, lo, count)
        except InsufficientDataError:
            candidates, axes = range(lo, lo + count), range(k - 1, -1, -1)
        else:
            ones = _lanes(count)[0]
            hit = _gap_hits(walk, ones, lambda j, bit: cells[j] if bit else ~cells[j])
            candidates = (lo + i for i in _set_lanes(ones ^ hit, count))
            axes = range(k - 2, -1, -1)
        n = _first_grid_witness(grid, n1, prefixes, axes, candidates)
        if n is not None:
            return n
        lo += count
        count = min(2 * count, _MAX_FACES)
    return None


def _first_grid_witness(
    grid: GridSource,
    n1: int,
    prefixes: Sequence[frozenset[int]],
    axes: Iterable[int],
    candidates: Iterable[int],
) -> int | None:
    """The first candidate whose size-n1 blocks on ``axes`` all spell members
    (see :func:`_spells_member`), the axes read in the order given."""
    block_bits = grid.block_bits
    for n in candidates:
        if all(_spells_member(block_bits(axis, n, n1), prefixes) for axis in axes):
            return n
    return None


def _spells_member(bits: Iterator[int], prefixes: Sequence[frozenset[int]]) -> bool:
    """The bits spell a member, read until the first bit at which the value so
    far is no member's prefix; ``prefixes[j]`` holds the length-(j+1) ones."""
    value = 0
    for bit, agreeing in zip(bits, prefixes):
        value = value << 1 | bit
        if value not in agreeing:
            return False
    return True


def grid_kurtz_stage_set(target: ClopenSet, dimension: int, r: int) -> TestCertificate:
    """Grid survivors through stages 1..r, shift amount ``r' * n1`` at stage r'.

    The target is a clopen set of the shell words of size-n1 cubes.  The
    examined blocks are pairwise disjoint cells, so the survivor cover must
    measure ``(1 - p**k)**r`` exactly; the construction still counts rather
    than assumes, and refuses to emit a violating certificate.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    k = dimension
    n1 = _cube_side(target.granularity, k)
    bound_size = (r + 1) * n1
    total = bound_size**k
    formula = (D_ONE - target.measure() ** k) ** r
    cover = survivor_cover(
        total,
        # per stage and face, the moved block's shell positions, read while the budget allows
        (
            (_shifted_block(k, n1, axis, stage * n1) for axis in range(k))
            for stage in range(1, r + 1)
        ),
        target,
        formula,
    )
    return new_certificate(
        kind="kurtz-stage",
        parameters={
            "dimension": k,
            "n1": n1,
            "r": r,
            "shifts": [stage * n1 for stage in range(1, r + 1)],
            "product_exact": True,
        },
        words=cover,
        exact_measure=formula,  # the survivor measure equals it
        required_bound=formula,
        stage_budget=r,
    )


class GridMLConstruction(MLConstruction):
    """Grid levels over shell words, on the one-dimensional level loop.

    An entry of size t extends a parent of size s with t > 2s, and the block
    moved s cells along some face i extends a complement sample enumerated
    by stage t - s.  The co-enumeration's dimension is the number of faces.
    """

    def __init__(
        self,
        coenum: StagedCoEnumeration,
        stage_max: int,
        candidate_budget: int = 1 << 22,
    ):
        super().__init__(coenum, coenum.dimension, stage_max, candidate_budget)

    def _first_stage(self, s: int) -> int:
        return 2 * s + 1

    def _offset(self, s: int, i: int) -> int:
        return s

    def _tau_positions(self, s: int, i: int, t: int, tau_length: int) -> tuple[int, ...]:
        return _shifted_block(self.k, _cube_side(tau_length, self.k), i - 1, s)

    def level_certificate(self, r: int) -> TestCertificate:
        return self._level_certificate(r, {"dimension": self.k})
