import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftrec import rotation
from shiftrec.errors import DepthExhaustedError, PrecisionError
from shiftrec.rotation import (
    _MAX_PRECISION,
    ReturnReport,
    RotationSystem,
    cf_accelerated_return,
    dirichlet_ceiling,
    find_multi_return,
    verify_return,
)


def circle_norm(x) -> Fraction:
    """Distance from x to the nearest integer, in [0, 1/2], exactly: the
    reference the scans are checked against."""
    f = Fraction(x)
    frac = f - math.floor(f)
    return min(frac, 1 - frac)


def test_circle_norm_examples():
    assert circle_norm(0) == 0
    assert circle_norm(Fraction(1, 2)) == Fraction(1, 2)
    assert circle_norm("0.7") == Fraction(3, 10)
    assert circle_norm(Fraction(-1, 4)) == Fraction(1, 4)
    assert circle_norm(Fraction(17, 5)) == Fraction(2, 5)


def test_identity_rotation():
    report = find_multi_return(RotationSystem(0), 3, Fraction(1, 100), 10)
    assert report.n == 1
    assert all(d == 0 for d in report.distances)


def test_rational_rotation_period():
    report = find_multi_return(RotationSystem(Fraction(1, 2)), 1, "0.1", 10)
    assert report.n == 2
    assert report.distances == (Fraction(0),)


def test_absent_when_ceiling_too_low():
    # 1/3 never gets within 0.1 of an integer at n = 1, 2
    report = find_multi_return(RotationSystem(Fraction(1, 3)), 1, "0.1", 2)
    assert report is None


def test_golden_least_return():
    system = RotationSystem.golden()
    report = find_multi_return(system, 2, "0.05", 400)
    assert report.n == 21
    assert report.max_distance() < Fraction(1, 20)
    assert verify_return(system, report)  # doubled precision


def test_golden_scan_matches_float_oracle():
    # brute-force oracle on high-precision floats, independent of the
    # interval arithmetic inside the implementation
    alpha = (5**0.5 - 1) / 2
    eps = 0.05

    def norm(x):
        f = x - int(x)
        return min(f, 1 - f)

    oracle = next(
        n
        for n in range(1, 401)
        if norm(n * alpha) < eps and norm(2 * n * alpha) < eps
    )
    report = find_multi_return(RotationSystem.golden(), 2, "0.05", 400)
    assert report.n == oracle == 21


def test_scan_resumes_at_the_undecided_n(monkeypatch):
    """A doubling re-decides only the candidate it was raised for, and the
    scan sets up each precision level once: 2 -> 16 is four approximations."""
    calls = []
    approx = RotationSystem.approx
    monkeypatch.setattr(
        RotationSystem, "approx", lambda self, p: calls.append(p) or approx(self, p)
    )
    report = find_multi_return(RotationSystem.golden(), 2, Fraction(1, 20), 400, precision=2)
    assert (report.n, report.precision) == (21, 16)
    assert calls == [2, 4, 8, 16]


def test_escalation_stops_at_the_precision_cap(monkeypatch):
    # the scan up to n = 21 needs precision 16; a cap of 8 leaves it undecidable
    monkeypatch.setattr(rotation, "_MAX_PRECISION", 8)
    with pytest.raises(PrecisionError):
        find_multi_return(RotationSystem.golden(), 2, Fraction(1, 20), 400, precision=2)


def test_verify_escalates_a_too_close_recheck():
    system = RotationSystem.golden()
    report = find_multi_return(system, 2, Fraction(1, 20), 400, precision=2)
    # at precision 2 the error bound 21/4 decides nothing; verify doubles it
    assert verify_return(system, replace(report, precision=1))


def test_scan_minimality():
    system = RotationSystem(Fraction(47, 1024))
    report = find_multi_return(system, 2, "0.03", 500)
    assert report is not None
    value = Fraction(47, 1024)
    for smaller in range(1, report.n):
        assert max(circle_norm(i * smaller * value) for i in (1, 2)) >= Fraction(3, 100)


def test_witness_depends_only_on_parameters():
    # group-translation invariance: the search never takes a base point
    a = find_multi_return(RotationSystem.golden(), 2, "0.05", 400)
    b = find_multi_return(RotationSystem.golden(), 2, "0.05", 400)
    assert a == b


def test_cf_accelerated_rational():
    report = cf_accelerated_return(RotationSystem(Fraction(3, 7)), 3, "0.001")
    assert report.n == 7
    assert all(d == 0 for d in report.distances)


def test_cf_accelerated_convergent_property():
    system = RotationSystem.golden()
    report = cf_accelerated_return(system, 1, "0.05")
    fib = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
    assert report.n in fib
    assert report.max_distance() < Fraction(1, 20)


def test_cf_accelerated_golden_k3():
    system = RotationSystem.golden()
    report = cf_accelerated_return(system, 3, "0.01")
    value, err = system.approx(512)
    for i, d in enumerate(report.distances, start=1):
        recomputed = circle_norm(i * report.n * value)
        assert abs(recomputed - d) <= 2 * i * report.n * max(err, Fraction(1, 2**128))
        assert recomputed < Fraction(1, 100)


def test_cf_agrees_with_scan_admissibility():
    system = RotationSystem.golden()
    cf = cf_accelerated_return(system, 2, "0.05")
    scan = find_multi_return(system, 2, "0.05", cf.n)
    assert scan is not None and scan.n <= cf.n


def test_cf_depth_exhaustion():
    with pytest.raises(DepthExhaustedError):
        cf_accelerated_return(RotationSystem.golden(), 2, "0.05", max_depth=3)


def test_dirichlet_ceiling_values():
    assert dirichlet_ceiling(1, Fraction(1, 2)) == 2
    assert dirichlet_ceiling(2, "0.05") == 400
    assert dirichlet_ceiling(3, Fraction(1, 10)) == 1000


def test_dirichlet_ceiling_guarantees_witness():
    rng = random.Random(2024)
    k = 2
    eps = Fraction(1, 20)
    ceiling = dirichlet_ceiling(k, eps)
    strict = Fraction(1, 20)  # 1/ceil(1/eps)
    for _ in range(100):
        alpha = Fraction(rng.randrange(1 << 12), 1 << 12)
        system = RotationSystem(alpha)
        report = find_multi_return(system, k, strict, ceiling)
        assert report is not None, alpha


def test_cf_terms():
    assert RotationSystem.golden().cf_terms(5) == (0, 1, 1, 1, 1)
    assert RotationSystem(Fraction(3, 7)).cf_terms(10) == (0, 2, 3)
    assert RotationSystem("cf:2,3").exact == Fraction(3, 7)


@pytest.mark.parametrize("precision", [0, -3])
def test_nonpositive_precision_is_rejected(precision):
    system = RotationSystem.golden()
    report = find_multi_return(system, 2, "0.05", 400)
    calls = [
        lambda: RotationSystem("golden", precision),
        lambda: find_multi_return(system, 2, "0.05", 400, precision),
        lambda: cf_accelerated_return(system, 2, "0.05", precision=precision),
        lambda: verify_return(system, report, precision),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="precision must be a positive integer"):
            call()


def test_alpha_parsing():
    assert RotationSystem("0.25").exact == Fraction(1, 4)
    assert RotationSystem("3/8").exact == Fraction(3, 8)
    assert RotationSystem(Fraction(9, 8)).exact == Fraction(1, 8)  # reduced mod 1
    with pytest.raises(ValueError):
        RotationSystem("cf:0,1")
    with pytest.raises(ValueError):
        RotationSystem("pi")


def _fraction_scan(system, k, epsilon, candidates, precision):
    """Reference scan on Fractions, one circle_norm per multiple and one
    approximation per candidate: the first candidate n certified within
    epsilon, its distances and the precision reached."""
    for n in candidates:
        while True:
            value, err = system.approx(precision)
            dists, verdict = [], "in"
            for i in range(1, k + 1):
                d = circle_norm(i * n * value)
                slack = i * n * err
                if d + slack < epsilon:
                    dists.append(d)
                    continue
                verdict = "out" if d - slack >= epsilon else "undecided"
                break
            if verdict == "in":
                return n, tuple(dists), precision
            if verdict == "out":
                break
            precision *= 2
            if precision > _MAX_PRECISION:
                raise PrecisionError(f"n={n}, i={i} undecidable within error {slack}")
    return None, (), precision


def _reference_reports(system, k, epsilon, precision):
    """find_multi_return and cf_accelerated_return, recomputed with _fraction_scan."""
    prec = system.precision if precision is None else precision
    ceiling = dirichlet_ceiling(k, epsilon)
    n, dists, prec_scan = _fraction_scan(system, k, epsilon, range(1, ceiling + 1), prec)
    scan = None if n is None else ReturnReport(n, dists, epsilon, ceiling, prec_scan)
    for _, q in system.convergents(256):
        if q >= 1:
            n, dists, prec = _fraction_scan(system, k, epsilon, [q], prec)
            if n is not None:
                return scan, ReturnReport(q, dists, epsilon, q, prec)
    raise AssertionError("no convergent denominator certified a return")


@pytest.mark.parametrize("alpha", ["golden", "47/1024", "cf:1,2,3"])
@pytest.mark.parametrize("precision", [None, 2])
def test_integer_scan_matches_fraction_reference(alpha, precision):
    """Same n, distances and precision as a Fraction scan written out per n,
    for every k and epsilon."""
    cases = [
        (k, Fraction(1, q)) for k in (1, 2, 3, 4) for q in (20, 100, 997)
    ]
    for k, eps in cases:
        system = RotationSystem(alpha)
        scan = find_multi_return(system, k, eps, dirichlet_ceiling(k, eps), precision)
        cf = cf_accelerated_return(system, k, eps, precision=precision)
        reference = _reference_reports(RotationSystem(alpha), k, eps, precision)
        assert reference[0] is not None
        assert (scan, cf) == reference, (k, eps)


_BOTH_SIDES = [
    ("golden", k, eps)
    for k in range(1, 6)
    for eps in (Fraction(1, 2 * k), Fraction(1, 2 * k) + Fraction(1, 1000), Fraction(1, 14 * k))
]


# above 1/(2k) the least return need not be a convergent denominator:
# here n = 3 returns and the first convergent denominator that does is 4
_BOTH_SIDES.append((Fraction(217, 1000), 2, Fraction(2, 5)))


def _with_examples(test):
    for case in _BOTH_SIDES:
        test = example(*case)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.one_of(st.just("golden"), st.fractions(0, 1, max_denominator=5000)),
    k=st.integers(1, 5),
    eps=st.fractions(Fraction(1, 300), Fraction(3, 5), max_denominator=300),
)
@_with_examples
def test_least_return_matches_a_capped_plain_scan(alpha, k, eps):
    """On both sides of epsilon = 1/(2k): at or below it the answer comes
    from the convergents and nothing is scanned, above it from the scan;
    either way it is the first n up to the cap that a Fraction scan over
    every n certifies, with the same distances."""
    cap = 600
    system = RotationSystem(alpha)
    report = find_multi_return(system, k, eps, cap)
    n, dists, _ = _fraction_scan(RotationSystem(alpha), k, eps, range(1, cap + 1), system.precision)
    assert (report.n, report.distances) == (n, dists) if n else report is None
    if report is not None:
        assert report.bound_used == cap


def test_find_multi_return_reuses_a_convergent_report():
    """A given report stands for the convergent search, also when its
    denominator lies past n_max; one for another query is refused."""
    system = RotationSystem.golden()
    cf = cf_accelerated_return(system, 2, "1/20")
    assert find_multi_return(system, 2, "1/20", 400, convergent=cf).n == cf.n == 21
    assert find_multi_return(system, 2, "1/20", 20, convergent=cf) is None
    for k, eps in ((3, "1/20"), (2, "1/30")):
        with pytest.raises(ValueError, match="another epsilon or k"):
            find_multi_return(system, k, eps, 400, convergent=cf)
