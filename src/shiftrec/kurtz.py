"""Survivor-set certificates for clopen targets on a geometric schedule.

With block spacing ``n_t = n0 * (k+1)**t`` the bit windows examined at all
stages are pairwise disjoint, so the survivor measure after stages
``0..t`` is exactly ``(1 - p**k)**(t+1)`` where ``p`` is the target
measure.  The certificate nevertheless counts the survivors over every
assignment of the examined bits, so the identity is checked rather than
assumed.  The same loop counts grid survivors, whose blocks are the
scattered shell positions of moved sub-cubes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bitseq import SequenceSource, Word
from .certificates import TestCertificate, new_certificate
from .dyadic import D_ONE, Dyadic
from .errors import BoundViolationError, BudgetExceededError
from .measure import ClopenSet, free_bit_values
from .recurrence import is_witness

# At most this many words of the bounding length, for word and grid survivor sets alike.
_ENUMERATION_BUDGET = 1 << 24


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


def _runs(block: Sequence[int], length: int) -> list[tuple[int, int, int]]:
    """``(shift, mask, place)`` per maximal run of consecutive positions in ``block``:
    ``((word >> shift) & mask) << place`` is the run's share of the block's value."""
    runs, start = [], 0
    for j in range(1, len(block) + 1):
        if j == len(block) or block[j] != block[j - 1] + 1:
            runs.append((length - 1 - block[j - 1], (1 << (j - start)) - 1, len(block) - j))
            start = j
    return runs


def _block_value(value: int, runs: list[tuple[int, int, int]]) -> int:
    """The bits a block reads from the word ``value``, in block order."""
    out = 0
    for shift, mask, place in runs:
        out |= ((value >> shift) & mask) << place
    return out


def _survivor_values(
    length: int,
    stages: Iterable[Iterable[Sequence[int]]],
    members: Iterable[int],
    formula: Dyadic,
) -> list[int]:
    """Values of the length-``length`` words that survive every stage.

    A stage lists its blocks, each as the bit positions it reads, in block
    order.  A word survives a stage when the bits of at least one block,
    read in that order, are not a member value.  The survivors among all
    assignments of the read bits are counted, and their measure must equal
    ``formula``; survival reads no other bit, so those bits are free.
    ``stages`` is read only once the budget admits all ``2**length`` words.
    """
    if (1 << length) > _ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"stage set needs all 2^{length} configurations, beyond the budget of "
            f"{_ENUMERATION_BUDGET}"
        )
    stage_blocks = [list(blocks) for blocks in stages]
    read = {p for blocks in stage_blocks for block in blocks for p in block}
    member_set = set(members)
    kept = free_bit_values(length, read)
    for blocks in stage_blocks:
        runs = [_runs(block, length) for block in blocks]
        kept = [v for v in kept if not all(_block_value(v, r) in member_set for r in runs)]
    exact = Dyadic(len(kept), len(read))
    if exact != formula:
        raise BoundViolationError(
            f"survivor measure {exact} differs from the product formula {formula}"
        )
    unread = free_bit_values(length, (p for p in range(length) if p not in read))
    return [v | u for v in kept for u in unread]


def kurtz_stage_set(target: ClopenSet, k: int, t: int) -> TestCertificate:
    """Clopen set of words surviving stages 0..t, with its exact measure.

    A word survives a stage when at least one of its k examined blocks lies
    outside the target.  The certificate is an equality certificate: the
    enumerated measure must equal ``(1 - p**k)**(t+1)``.
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
    values = _survivor_values(length, stages, (w.value for w in target.words), formula)
    return new_certificate(
        kind="kurtz-stage",
        parameters={
            "k": k,
            "t": t,
            "granularity": target.granularity,
            "times": [schedule.time(u) for u in range(t + 1)],
        },
        words=(Word(v, length) for v in values),
        exact_measure=formula,  # the survivor count equals it
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
