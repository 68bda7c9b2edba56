"""Survivor-set certificates for clopen targets on a geometric schedule.

With block spacing ``n_t = n0 * (k+1)**t`` the bit windows examined at all
stages are pairwise disjoint, so the survivor measure after stages
``0..t`` is exactly ``(1 - p**k)**(t+1)`` where ``p`` is the target
measure.  The survivors are a ``0/1/*`` cube cover, the full cube sharped
by the cubes that put every block of a stage in the target; it is checked
to be disjoint and its measure counted, so the identity is checked rather
than assumed.  Grid survivors use the same cover on shell positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bitseq import SequenceSource
from .certificates import OVERLAP_STEPS, TestCertificate, new_certificate
from .dyadic import D_ONE, Dyadic
from .errors import BoundViolationError, BudgetExceededError
from .measure import COVER_BITS, ClopenSet, CubeSet, sharp_cover
from .recurrence import is_witness


@dataclass(frozen=True)
class KurtzSchedule:
    granularity: int
    k: int

    def time(self, t: int) -> int:
        """Block spacing at stage t; stage 0 uses the granularity itself."""
        return self.granularity * (self.k + 1) ** t

    def blocks(self, t: int) -> tuple[range, ...]:
        """Bit positions of the k windows examined at stage t."""
        nt = self.time(t)
        return tuple(range(i * nt, i * nt + self.granularity) for i in range(1, self.k + 1))

    def length_through(self, t: int) -> int:
        return self.k * self.time(t) + self.granularity

    def blocks_disjoint_through(self, t: int) -> bool:
        spans = sorted((b for u in range(t + 1) for b in self.blocks(u)), key=lambda b: b.start)
        return all(a.stop <= b.start for a, b in zip(spans, spans[1:]))


def _word_cubes(values: set[int], bits: int) -> list[tuple[int, int]]:
    """Disjoint ``(care, value)`` cubes over ``bits`` bits matching exactly
    the words with these values: split on the last bit, a full half is one
    cube and a cube both halves hold is kept once with that bit free."""
    if len(values) in (0, 1 << bits):
        return [(0, 0)] if values else []
    halves = [_word_cubes({v >> 1 for v in values if v & 1 == b}, bits - 1) for b in (0, 1)]
    both = set(halves[0]) & set(halves[1])
    return [(care << 1, value << 1) for care, value in halves[0] if (care, value) in both] + [
        (care << 1 | 1, value << 1 | b)
        for b, half in enumerate(halves)
        for care, value in half
        if (care, value) not in both
    ]


def _scatter(cube: tuple, block: Sequence[int], length: int) -> tuple[int, int]:
    """``(care, value)`` over ``length`` bits of a target cube read by ``block``."""
    g, care, value = cube
    bits = [(1 << (length - 1 - p), 1 << (g - 1 - i)) for i, p in enumerate(block)]
    return sum(w for w, b in bits if care & b), sum(w for w, b in bits if value & b)


def survivor_cover(
    length: int, stages: Iterable[Iterable[Sequence[int]]], target: ClopenSet, formula: Dyadic
) -> CubeSet:
    """The length-``length`` words that survive every stage, as a cube cover.

    A stage lists its blocks, each as the bit positions it reads, in block
    order; a word survives it when some block does not read a target word.
    Each choice of one target cube per block, unless overlapping blocks
    disagree, is a cube the stage catches; the full cube is sharped by them
    all.  The cover must be disjoint with measure ``formula``.  Raises
    BudgetExceededError before the choices, or the cubes the sharp visits,
    exceed ``COVER_BITS`` bits; ``stages`` is read only until then.
    """
    budget = COVER_BITS // length
    g = target.granularity
    cubes = [(g, *cube) for cube in _word_cubes({w.value for w in target.words}, g)]
    caught: list[tuple] = []
    for blocks in stages:
        choices = [(0, 0)]
        for block in blocks:
            if len(caught) + len(choices) * len(cubes) > budget:
                raise BudgetExceededError(f"stage cubes of {length} bits exceed {COVER_BITS} bits")
            scattered = [_scatter(cube, block, length) for cube in cubes]
            choices = [(care | c, value | v) for care, value in choices for c, v in scattered
                       if not care & c & (value ^ v)]
        caught += [(length, care, value) for care, value in choices]
    cover = CubeSet(sharp_cover([(length, 0, 0)], caught, budget))
    overlap = cover.overlap(OVERLAP_STEPS)  # as verify checks it
    if overlap is not None or cover.measure() != formula:
        raise BoundViolationError(
            f"survivor cover (overlapping cubes: {overlap}) has measure {cover.measure()}, "
            f"not the product formula {formula}"
        )
    return cover


def kurtz_stage_set(target: ClopenSet, k: int, t: int) -> TestCertificate:
    """Clopen set of words surviving stages 0..t, with its exact measure.

    A word survives a stage when at least one of its k examined blocks lies
    outside the target.  The certificate is an equality certificate: the
    cover's measure must equal ``(1 - p**k)**(t+1)``.
    """
    if k < 1 or t < 0:
        raise ValueError("k must be positive and t nonnegative")
    schedule = KurtzSchedule(target.granularity, k)
    length = schedule.length_through(t)
    if not schedule.blocks_disjoint_through(t):
        raise BoundViolationError(
            f"stage blocks through t = {t} overlap, so the survivor measure is not "
            "the product (1-p^k)^(t+1)"
        )
    stages = [schedule.blocks(u) for u in range(t + 1)]
    formula = (D_ONE - target.measure() ** k) ** (t + 1)
    cover = survivor_cover(length, stages, target, formula)
    return new_certificate(
        kind="kurtz-stage",
        parameters={
            "k": k,
            "t": t,
            "granularity": target.granularity,
            "times": [schedule.time(u) for u in range(t + 1)],
        },
        words=cover,
        exact_measure=formula,  # the survivor measure equals it
        required_bound=formula,
        stage_budget=t,
    )


def kurtz_capture(
    source: SequenceSource, target: ClopenSet, k: int, t_max: int
) -> tuple[bool, int | None]:
    """Whether the sequence survives stages 0..t_max; else its first escape stage.

    Escaping at stage t means all k blocks of the sequence at spacing
    ``n_t`` lie in the target, i.e. ``n_t`` is a scheduled recurrence
    witness.
    """
    schedule = KurtzSchedule(target.granularity, k)
    for t in range(t_max + 1):
        if is_witness(source, target, k, schedule.time(t)):
            return False, t
    return True, None
