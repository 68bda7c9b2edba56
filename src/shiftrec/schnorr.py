"""Error-set certificates for co-enumerated targets with computable measure.

The schedule grows geometrically while pushing the not-yet-enumerated tail
of the complement below ``2**-(t+v+k)``; the stage-t error set collects the
sequences whose examined blocks land in that tail, as a disjoint cover of the
cubes ``*^(i*n_t) sigma``.  Stage bounds sum to at most ``2**-v``, which is
what makes the family a level-v test component.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certificates import TestCertificate, new_certificate
from .dyadic import D_ZERO, Dyadic, half_power
from .errors import BoundViolationError, NoCertificateError
from .measure import CubeSet, StagedCoEnumeration, union_cover


@dataclass(frozen=True)
class SchnorrSchedule:
    k: int
    v: int
    times: tuple[int, ...]  # times[0] == 1

    def time(self, t: int) -> int:
        return self.times[t]

    @property
    def t_max(self) -> int:
        return len(self.times) - 1


def schnorr_schedule(
    coenum: StagedCoEnumeration, k: int, v: int, t_max: int, max_stage_scan: int = 1 << 16
) -> SchnorrSchedule:
    """Minimal schedule meeting the growth and tail constraints.

    ``times[t]`` is the least ``n >= (k+1) * times[t-1]`` whose certified
    tail is at most ``2**-(t+v+k)``.
    """
    if k < 1 or v < 0 or t_max < 0:
        raise ValueError("need k >= 1, v >= 0, t_max >= 0")
    times = [1]
    for t in range(1, t_max + 1):
        n = (k + 1) * times[-1]
        bound = half_power(t + v + k)
        cap = max(n, coenum.support_bound if coenum.support_bound is not None else max_stage_scan)
        while coenum.tail_modulus(n) > bound:
            n += 1
            if n > cap:
                raise NoCertificateError(
                    f"no stage up to {cap} certifies a tail of at most {bound}"
                )
        times.append(n)
    return SchnorrSchedule(k, v, tuple(times))


def schnorr_error_set(
    coenum: StagedCoEnumeration,
    schedule: SchnorrSchedule,
    k: int,
    v: int,
    t: int,
) -> TestCertificate:
    """Certificate for the stage-t error set.

    A sequence errs at stage t when some block at offset ``i * n_t`` extends
    a complement cube enumerated after stage ``n_t``.  The cover's measure
    is exact and must stay at or below ``k * 2**-(t+v+k)``.
    """
    if not 1 <= t <= schedule.t_max:
        raise ValueError(f"stage {t} outside the schedule (1..{schedule.t_max})")
    if (k, v) != (schedule.k, schedule.v):
        raise ValueError("schedule was built for different parameters")
    nt = schedule.time(t)
    # a late cube sigma at block offset i * n_t, any bits before it
    cubes = [
        (i * nt + m, care, value)
        for i in range(1, k + 1)
        for m, care, value in coenum.late_cubes(nt)
    ]
    cover, bound = CubeSet(union_cover(cubes)), Dyadic(k, t + v + k)
    params = {"k": k, "v": v, "t": t, "n_t": nt}
    return new_certificate("schnorr-error", params, cover, cover.measure(), bound, nt)


def schnorr_union_bound(certs: list[TestCertificate]) -> Dyadic:
    """Exact measure of the union of the stage sets; must stay below 2**-v."""
    if not certs:
        return D_ZERO
    vs = {c.parameters["v"] for c in certs}
    if len(vs) > 1:
        raise ValueError(f"certificates mix test levels: {sorted(vs)}")
    v = vs.pop()
    union = CubeSet(union_cover(cube for c in certs for cube in c.cover.cubes)).measure()
    budget = sum((c.required_bound for c in certs), D_ZERO)
    level_bound = half_power(v)
    if union > budget or union > level_bound:
        raise BoundViolationError(
            f"union measure {union} exceeds its budget ({budget}, level bound {level_bound})"
        )
    return union
