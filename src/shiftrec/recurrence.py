"""Witness search for multiple recurrence under the tail map.

A sequence ``Z`` has a ``k``-recurrence witness ``n`` for a target when the
tails of ``Z`` at positions ``n, 2n, ..., kn`` all lie in the target.  For a
clopen target the check reads the first ``granularity`` bits of each tail;
for an effectively closed target it reads a window as long as the stage
budget and requires that no enumerated complement word is a prefix, so the
verdict over-approximates true membership and can only flip to negative as
the budget grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .bitseq import PseudorandomSource, SequenceSource, Word
from .measure import ClopenSet, StagedCoEnumeration, prefix_reduce


class Pi01Target:
    """An effectively closed target, examined at a fixed stage budget."""

    __slots__ = ("coenum", "stage_budget", "complement", "_by_drop")

    def __init__(self, coenum: StagedCoEnumeration, stage_budget: int):
        if stage_budget < 0:
            raise ValueError("stage budget must be nonnegative")
        complement = prefix_reduce(coenum.cumulative(stage_budget))
        object.__setattr__(self, "coenum", coenum)
        object.__setattr__(self, "stage_budget", stage_budget)
        object.__setattr__(self, "complement", complement)
        # (bits dropped from a window, complement values of that shorter length)
        by_drop: dict[int, set[int]] = {}
        for shorter, _, value in complement.cubes:
            if shorter <= stage_budget:
                by_drop.setdefault(stage_budget - shorter, set()).add(value)
        object.__setattr__(self, "_by_drop", tuple(sorted(by_drop.items(), reverse=True)))

    def __setattr__(self, name, value):
        raise AttributeError("Pi01Target is immutable")

    @property
    def granularity(self) -> int:
        """The window read from each tail: as long as the stage budget."""
        return self.stage_budget

    def contains_word(self, w: Word) -> bool:
        """No enumerated complement word is a prefix of ``w``."""
        return not self.complement.covers(w)

    def contains_value(self, value: int) -> bool:
        """:meth:`contains_word` of the ``granularity``-bit word packed in ``value``."""
        for drop, values in self._by_drop:
            if value >> drop in values:
                return False
        return True


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


def least_witness(source: SequenceSource, target: Target, k: int, n_max: int) -> int | None:
    """The least witness ``n <= n_max``, or None, by linear scan."""
    if k < 1 or n_max < 1:
        raise ValueError("k and n_max must be positive integers")
    return _first_witness(source, target, k, range(1, n_max + 1))


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


def recurrence_profile(
    source: SequenceSource, target: Target, k_max: int, n_max: int
) -> tuple[tuple[int, int | None], ...]:
    """Least witness (or None) for each k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be a positive integer")
    return tuple((k, least_witness(source, target, k, n_max)) for k in range(1, k_max + 1))


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
            "rows": [
                {"seed": seed, "witness": w} for seed, w in self.rows
            ],
        }


def batch_statistics(
    seeds: Sequence[int] | Iterable[int], target: Target, k: int, n_max: int
) -> BatchSummary:
    """Least-witness statistics over seeded pseudorandom sources, in seed order."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seed list must be nonempty")
    rows = [(seed, least_witness(PseudorandomSource(seed), target, k, n_max)) for seed in seeds]
    return BatchSummary(k, n_max, tuple(rows))
