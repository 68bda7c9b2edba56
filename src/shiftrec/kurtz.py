"""Survivor-set certificates for clopen targets on a geometric schedule.

With block spacing ``n_t = n0 * (k+1)**t`` the bit windows examined at all
stages are pairwise disjoint, so the survivor measure after stages
``0..t`` is exactly ``(1 - p**k)**(t+1)`` where ``p`` is the target
measure.  The certificate nevertheless enumerates every word of the
bounding length and counts survivors, so the identity is checked rather
than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitseq import SequenceSource, Word
from .certificates import TestCertificate, new_certificate
from .dyadic import D_ONE, Dyadic
from .errors import BoundViolationError, BudgetExceededError
from .measure import ClopenSet

_CHUNK = 1 << 20


@dataclass(frozen=True)
class KurtzSchedule:
    granularity: int
    k: int

    def time(self, t: int) -> int:
        """Block spacing at stage t; stage 0 uses the granularity itself."""
        return self.granularity * (self.k + 1) ** t

    def blocks(self, t: int) -> tuple[tuple[int, int], ...]:
        """(start, length) of the k windows examined at stage t."""
        nt = self.time(t)
        return tuple((i * nt, self.granularity) for i in range(1, self.k + 1))

    def length_through(self, t: int) -> int:
        return self.k * self.time(t) + self.granularity

    def blocks_disjoint_through(self, t: int) -> bool:
        spans = sorted(
            span for u in range(t + 1) for span in self.blocks(u)
        )
        return all(
            a + al <= b for (a, al), (b, _) in zip(spans, spans[1:])
        )


def _survivor_values(
    length: int, stage_starts: list[list[int]], members: frozenset[Word], n0: int
) -> list[int]:
    mask = (1 << n0) - 1
    member_arr = np.asarray(sorted(w.value for w in members), dtype=np.int64)
    out: list[int] = []
    total = 1 << length
    for lo in range(0, total, _CHUNK):
        arr = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        keep = np.ones(arr.shape, dtype=bool)
        for starts in stage_starts:
            all_in = np.ones(arr.shape, dtype=bool)
            for start in starts:
                vals = (arr >> (length - start - n0)) & mask
                all_in &= np.isin(vals, member_arr)
            keep &= ~all_in
        out.extend(arr[keep].tolist())
    return out


def kurtz_stage_set(
    target: ClopenSet, k: int, t: int, enumeration_budget: int = 1 << 24
) -> TestCertificate:
    """Clopen set of words surviving stages 0..t, with its exact measure.

    A word survives a stage when at least one of its k examined blocks lies
    outside the target.  The certificate is an equality certificate: the
    enumerated measure must equal ``(1 - p**k)**(t+1)``.
    """
    if k < 1 or t < 0:
        raise ValueError("k must be positive and t nonnegative")
    schedule = KurtzSchedule(target.granularity, k)
    length = schedule.length_through(t)
    if (1 << length) > enumeration_budget:
        raise BudgetExceededError(
            f"stage set needs all 2^{length} words, beyond the budget of "
            f"{enumeration_budget} configurations"
        )
    if not schedule.blocks_disjoint_through(t):
        raise BoundViolationError(
            f"stage blocks through t = {t} overlap, so the survivor measure is not "
            "the product (1-p^k)^(t+1)"
        )
    stage_starts = [
        [start for start, _ in schedule.blocks(u)] for u in range(t + 1)
    ]
    values = _survivor_values(length, stage_starts, target.words, target.granularity)
    exact = Dyadic(len(values), length)
    formula = (D_ONE - target.measure() ** k) ** (t + 1)
    if exact != formula:
        raise BoundViolationError(
            f"survivor measure {exact} differs from (1-p^k)^(t+1) = {formula}"
        )
    return new_certificate(
        kind="kurtz-stage",
        parameters={
            "k": k,
            "t": t,
            "granularity": target.granularity,
            "times": [schedule.time(u) for u in range(t + 1)],
        },
        words=(Word(v, length) for v in values),
        exact_measure=exact,
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
        nt = schedule.time(t)
        if all(
            target.contains_word(source.window(i * nt, target.granularity))
            for i in range(1, k + 1)
        ):
            return False, t
    return True, None
