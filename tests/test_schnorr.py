from itertools import product

import pytest

from shiftrec.dyadic import D_ZERO, Dyadic, half_power
from shiftrec.errors import NoCertificateError
from shiftrec.measure import CubeSet, StagedCoEnumeration, measure_open
from shiftrec.schnorr import (
    schnorr_error_set,
    schnorr_schedule,
    schnorr_union_bound,
)


def C(*texts):
    """The ``0/1/*`` cubes spelled by ``texts``."""
    return CubeSet.from_strings(texts).cubes


def two_stage():
    return StagedCoEnumeration({2: C("11"), 4: C("0000")})


def starred():
    """Late cubes with free bits, one of them inside an earlier cube."""
    return StagedCoEnumeration({2: C("11"), 4: C("0**0", "11*1")})


def oracle_error_measure(coenum, k, nt, depth):
    """Enumerate every word of the given depth and test the block condition."""
    late = CubeSet(coenum.late_cubes(nt)).strings()
    hits = 0
    for v in range(1 << depth):
        text = format(v, f"0{depth}b")
        if any(
            len(text) >= i * nt + len(sigma)
            and all(c in ("*", b) for b, c in zip(text[i * nt :], sigma))
            for i in range(1, k + 1)
            for sigma in late
        ):
            hits += 1
    return Dyadic(hits, depth)


def test_schedule_empty_complement():
    sched = schnorr_schedule(StagedCoEnumeration.empty(), 1, 0, 4)
    assert sched.times == (1, 2, 4, 8, 16)


def test_schedule_zero_tail_case():
    # support exhausted by stage 3: growth constraint alone drives the schedule
    b = StagedCoEnumeration({3: C("000", "001", "010")})
    sched = schnorr_schedule(b, 1, 0, 3)
    assert sched.times[1] >= 3  # must run past the support before the tail drops
    for t in range(1, 4):
        assert sched.times[t] >= 2 * sched.times[t - 1]
        assert b.tail_modulus(sched.times[t]) <= half_power(t + 0 + 1)


def test_schedule_two_stage_example():
    sched = schnorr_schedule(two_stage(), 1, 1, 2)
    assert sched.times[1] == 2  # tail after stage 2 is 1/16 <= 1/8
    assert sched.times[2] == 4


def test_schedule_minimality():
    b = two_stage()
    for v in range(4):
        sched = schnorr_schedule(b, 1, v, 3)
        for t in range(1, 4):
            n = sched.times[t]
            lower = (1 + 1) * sched.times[t - 1]
            assert n >= lower
            assert b.tail_modulus(n) <= half_power(t + v + 1)
            if n > lower:
                assert b.tail_modulus(n - 1) > half_power(t + v + 1)


def test_schedule_no_certificate():
    stubborn = StagedCoEnumeration(
        {1: C("1")},
        tail_modulus=lambda t: Dyadic(1, 1),
        support_bound=None,
    )
    with pytest.raises(NoCertificateError):
        schnorr_schedule(stubborn, 1, 0, 1, max_stage_scan=64)


def test_error_set_empty_when_fully_enumerated():
    b = StagedCoEnumeration({1: C("1")})
    sched = schnorr_schedule(b, 1, 0, 2)
    cert = schnorr_error_set(b, sched, 1, 0, 1)
    assert cert.exact_measure == D_ZERO
    assert cert.words == ()


def test_error_set_two_stage_example():
    b = two_stage()
    sched = schnorr_schedule(b, 1, 1, 2)
    cert = schnorr_error_set(b, sched, 1, 1, 1)
    assert cert.parameters["n_t"] == 2
    assert cert.exact_measure == Dyadic(1, 4)  # words xx0000
    assert cert.exact_measure <= cert.required_bound == half_power(3)
    assert cert.exact_measure == oracle_error_measure(b, 1, 2, 6)


def test_error_set_bound_holds_across_levels():
    for b, k, v in product((two_stage(), starred()), (1, 2), range(5)):
        sched = schnorr_schedule(b, k, v, 3)
        for t in range(1, 4):
            cert = schnorr_error_set(b, sched, k, v, t)
            assert cert.exact_measure <= Dyadic(k, t + v + k)
            depth = k * sched.times[t] + 4
            if depth <= 16:
                assert cert.exact_measure == oracle_error_measure(b, k, sched.times[t], depth)


def test_union_bound():
    b = two_stage()
    for v in range(3):
        sched = schnorr_schedule(b, 2, v, 3)
        certs = [schnorr_error_set(b, sched, 2, v, t) for t in range(1, 4)]
        union = schnorr_union_bound(certs)
        assert union <= half_power(v)
        assert union == measure_open(w for c in certs for w in c.words)


def test_union_requires_matching_level():
    b = two_stage()
    s0 = schnorr_schedule(b, 1, 0, 1)
    s1 = schnorr_schedule(b, 1, 1, 1)
    certs = [
        schnorr_error_set(b, s0, 1, 0, 1),
        schnorr_error_set(b, s1, 1, 1, 1),
    ]
    with pytest.raises(ValueError):
        schnorr_union_bound(certs)


def test_stage_bound_budget_sums_geometrically():
    # sum over t >= 1 of k 2^-(t+v+k) equals k 2^-(v+k) <= 2^-v
    for k in (1, 2, 3):
        for v in range(4):
            total = sum((Dyadic(k, t + v + k) for t in range(1, 40)), D_ZERO)
            assert total < half_power(v)


def test_union_empty():
    assert schnorr_union_bound([]) == D_ZERO
