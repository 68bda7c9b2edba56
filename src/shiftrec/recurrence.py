"""Witness search for multiple recurrence under the tail map.

A sequence ``Z`` has a ``k``-recurrence witness ``n`` for a target when the
tails of ``Z`` at positions ``n, 2n, ..., kn`` all lie in the target.  For a
clopen target the check reads the first ``granularity`` bits of each tail;
for an effectively closed target it reads a window as long as the stage
budget and requires that no enumerated complement cube matches its head,
so the verdict over-approximates true membership and can only flip to
negative as the budget grows.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .bitseq import PseudorandomSource, SequenceSource, Word, pseudorandom_prefixes
from .certificates import JsonRecords
from .measure import ClopenSet, CubeSet, StagedCoEnumeration, union_cover


class Pi01Target:
    """An effectively closed target, examined at a fixed stage budget."""

    __slots__ = ("coenum", "stage_budget", "complement", "_gaps")

    def __init__(self, coenum: StagedCoEnumeration, stage_budget: int):
        if stage_budget < 0:
            raise ValueError("stage budget must be nonnegative")
        complement = CubeSet(union_cover(coenum.cumulative(stage_budget)))
        object.__setattr__(self, "coenum", coenum)
        object.__setattr__(self, "stage_budget", stage_budget)
        object.__setattr__(self, "complement", complement)
        object.__setattr__(self, "_gaps", tuple(sorted(complement.strings())))

    def __setattr__(self, name, value):
        raise AttributeError("Pi01Target is immutable")

    @property
    def granularity(self) -> int:
        """The window read from each tail: as long as the stage budget."""
        return self.stage_budget

    def contains_word(self, w: Word) -> bool:
        """No enumerated complement cube's cylinder holds ``w``."""
        return not self.complement.covers(w)

    def contains_value(self, value: int) -> bool:
        """:meth:`contains_word` of the ``granularity``-bit word packed in ``value``."""
        return not self.complement.covers(Word(value, self.stage_budget))

    def gap_words(self) -> tuple[str, ...]:
        """The complement's disjoint cubes, as sorted ``0/1/*`` strings: a
        window lies in the target when none of them matches its head."""
        return self._gaps


Target = Union[ClopenSet, Pi01Target]


def _first_witness(
    source: SequenceSource, target: Target, k: int, candidates: range
) -> int | None:
    """The first candidate ``n`` whose tails at ``n, 2n, ..., kn`` all lie in
    the target, read as packed window values."""
    length, contains, window = target.granularity, target.contains_value, source.window_value
    for n in candidates:
        for offset in range(n, k * n + 1, n):
            if not contains(window(offset, length)):
                break
        else:
            return n
    return None


def is_witness(source: SequenceSource, target: Target, k: int, n: int) -> bool:
    """True iff every tail of ``source`` at ``n, 2n, ..., kn`` lies in the target."""
    if n < 1:
        raise ValueError("witness candidates start at n = 1")
    if k < 1:
        raise ValueError("k must be a positive integer")
    return _first_witness(source, target, k, range(n, n + 1)) is not None


_Walk = tuple[tuple[int, tuple[tuple[int, int], ...]], ...]


def _gap_walk(gaps: Sequence[str]) -> _Walk:
    """The sorted ``0/1/*`` gap words as a walk down their trie: per word, the
    number of fixed bits in its common prefix with the word before, then
    ``(j, bit)`` for each later position ``j`` that is not ``*``."""
    walk, previous = [], ""
    for word in gaps:
        common = len(os.path.commonprefix((word, previous)))
        steps = tuple((j, int(word[j])) for j in range(common, len(word)) if word[j] != "*")
        walk.append((common - word.count("*", 0, common), steps))
        previous = word
    return tuple(walk)


def _gap_hits(walk: _Walk, full: int, plane: Callable[[int, int], int]) -> int:
    """The positions some gap word matches at: the OR over the walk's words
    of the AND of ``plane(j, bit)`` over their fixed positions ``j``, each
    trie node ANDing one plane onto its parent's matches; ``full`` marks
    every position (see :func:`_gap_walk`)."""
    hit, stack = 0, [full]
    for common, steps in walk:
        del stack[common + 1 :]
        for j, bit in steps:
            stack.append(stack[-1] & plane(j, bit))
        hit |= stack[-1]
    return hit


def _membership_text(stream: int, length: int, granularity: int, walk: _Walk) -> str:
    """Character ``p`` is ``"1"`` when the window of ``granularity`` bits at
    ``p`` lies in the target, for every ``p`` whose window fits in the
    ``length`` bits of ``stream`` (stream bit ``i`` at bit ``i``).

    A gap word ``w`` matches at ``p`` where bit ``p`` of every
    ``plane[w[j]] >> j`` is set, over its positions ``j`` that are not
    ``*``, ``plane[1]`` being the stream and ``plane[0]`` its complement;
    the windows in the target are those no gap word matches at (see
    :func:`_gap_hits`).
    """
    full = (1 << length) - 1
    planes = (stream ^ full, stream)
    hit = _gap_hits(walk, full, lambda j, bit: planes[bit] >> j)
    # the complement of hit below bit width, then a 1 at it, so that bin()
    # keeps leading zeros; read back to front, past that 1 and "0b"
    width = length - granularity + 1
    return bin(hit & ((1 << width) - 1) ^ ((2 << width) - 1))[:2:-1]


# bits of the first chunk read from a stream; a batch reads its seeds'
# first chunks together, this many seeds at a time
_FIRST_CHUNK = 128
_BATCH_GROUP = 1024
# candidates tested one at a time before the rest are tested together
_SINGLY = 4


def _first_passing(text: str, base: int, k: int, first: int, last: int) -> int | None:
    """The least ``n`` in ``first..last`` whose characters at ``base + i*n``,
    ``i = 1..k``, are all ``"1"``.

    The first few candidates are one stepped slice each, since a witness
    is often small.  After them, for each ``i`` the characters at
    ``base + i*n`` are one stepped slice, read as a binary numeral (``n``
    at bit ``last - n``); the AND of the ``k`` numerals holds the passing
    ``n``, and the least is its highest bit.
    """
    ones = "1" * k
    for n in range(first, min(first + _SINGLY, last + 1)):
        if text[base + n : base + k * n + 1 : n] == ones:
            return n
    first += _SINGLY
    if first > last:
        return None
    passing = -1
    for i in range(1, k + 1):
        passing &= int(text[base + i * first : base + i * last + 1 : i], 2)
    return last + 1 - passing.bit_length() if passing else None


def _scan(
    source: SequenceSource, target: Target, k: int, n_max: int, walk: _Walk, first: int = 1
) -> int | None:
    """The least witness in ``first..n_max`` (see :func:`least_witness`)."""
    g = target.granularity
    need = k * n_max + g
    if source.length is not None:
        need = min(need, source.length)
    stream, read = 0, 0
    while read < need:
        size = min(max(2 * read, _FIRST_CHUNK), need)
        stream |= source.window_lsb(read, size - read) << read
        read = size
        last = min(n_max, (read - g) // k)
        if last >= first:
            n = _first_passing(_membership_text(stream, read, g, walk), 0, k, first, last)
            if n is not None:
                return n
            first = last + 1
    return _first_witness(source, target, k, range(first, n_max + 1))


def least_witness(source: SequenceSource, target: Target, k: int, n_max: int) -> int | None:
    """The least witness ``n <= n_max``, or None.

    The stream is read in doubling chunks, 128 bits first, until the
    ``k * n_max + granularity`` bits of the last candidate's windows are in.
    After each chunk the windows' membership is one text (see
    :func:`_membership_text`), and candidate ``n`` is a witness when the
    characters at ``n, 2n, ..., kn`` are all ``"1"``.  A finite source is
    read only as far as it goes; the candidates whose windows do not fit
    are read window by window, so they raise InsufficientDataError as a
    plain scan would.
    """
    if k < 1 or n_max < 1:
        raise ValueError("k and n_max must be positive integers")
    return _scan(source, target, k, n_max, _gap_walk(target.gap_words()))


@dataclass(frozen=True)
class RecurrenceQuery:
    source: SequenceSource
    target: Target
    k: int
    n_max: int

    def __post_init__(self):
        if self.k < 1 or self.n_max < 1:
            raise ValueError("k and n_max must be positive integers")


@dataclass(frozen=True)
class BlockCheck:
    """One membership check: the tail block at offset ``i * n``."""

    i: int
    offset: int
    block: Word
    in_target: bool


@dataclass(frozen=True)
class WitnessReport:
    witness: int | None
    checked_range: int
    checks: tuple[BlockCheck, ...]

    def to_json_dict(self) -> dict:
        return {
            "witness": self.witness,
            "checked_range": self.checked_range,
            "checks": [
                {
                    "i": c.i,
                    "offset": c.offset,
                    "block": str(c.block),
                    "in_target": c.in_target,
                }
                for c in self.checks
            ],
        }


def find_witness(query: RecurrenceQuery) -> WitnessReport:
    """:func:`least_witness` with evidence: the ``k`` blocks of the reported
    witness, read again as words."""
    source, target, k = query.source, query.target, query.k
    n = least_witness(source, target, k, query.n_max)
    if n is None:
        return WitnessReport(None, query.n_max, ())
    checks = tuple(
        BlockCheck(i, i * n, source.window(i * n, target.granularity), True)
        for i in range(1, k + 1)
    )
    return WitnessReport(n, query.n_max, checks)


@dataclass(frozen=True)
class BatchSummary:
    k: int
    n_max: int
    rows: tuple[tuple[int, int | None], ...]  # (seed, least witness)

    @property
    def hits(self) -> int:
        return sum(1 for _, w in self.rows if w is not None)

    @property
    def fraction_with_witness(self) -> Fraction:
        return Fraction(self.hits, len(self.rows))

    def histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for _, w in self.rows:
            if w is not None:
                hist[w] = hist.get(w, 0) + 1
        return dict(sorted(hist.items()))

    def mean_witness(self) -> Fraction | None:
        if self.hits == 0:
            return None
        return Fraction(sum(w for _, w in self.rows if w is not None), self.hits)

    def to_csv_rows(self) -> list[str]:
        rows = ["seed,k,n_max,witness"]
        for seed, w in self.rows:
            rows.append(f"{seed},{self.k},{self.n_max},{'' if w is None else w}")
        return rows

    def to_json_dict(self) -> dict:
        mean = self.mean_witness()
        return {
            "k": self.k,
            "n_max": self.n_max,
            "seeds": len(self.rows),
            "hits": self.hits,
            "fraction_with_witness": float(self.fraction_with_witness),
            "mean_witness": None if mean is None else float(mean),
            "histogram": {str(n): c for n, c in self.histogram().items()},
            "rows": JsonRecords(("seed", "witness"), self.rows),
        }


def batch_statistics(
    seeds: Sequence[int] | Iterable[int], target: Target, k: int, n_max: int
) -> BatchSummary:
    """Least-witness statistics over seeded pseudorandom sources, in seed order."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seed list must be nonempty")
    if k < 1 or n_max < 1:
        raise ValueError("k and n_max must be positive integers")
    g, walk = target.granularity, _gap_walk(target.gap_words())
    # the candidates 1..last, whose windows fit in a first chunk, are tested
    # for a group of seeds on one membership text of their joined first
    # chunks; a seed's later candidates on its own
    last = max(0, min(n_max, (_FIRST_CHUNK - g) // k))
    rows = []
    for lo in range(0, len(seeds), _BATCH_GROUP):
        group = seeds[lo : lo + _BATCH_GROUP]
        text = ""
        if last:
            joined = pseudorandom_prefixes(group, _FIRST_CHUNK // 64)
            text = _membership_text(joined, _FIRST_CHUNK * len(group), g, walk)
        for s, seed in enumerate(group):
            n = _first_passing(text, _FIRST_CHUNK * s, k, 1, last)
            if n is None and last < n_max:
                n = _scan(PseudorandomSource(seed), target, k, n_max, walk, last + 1)
            rows.append((seed, n))
    return BatchSummary(k, n_max, tuple(rows))
