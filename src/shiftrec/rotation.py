"""Return-time search for circle rotations x -> x + alpha (mod 1).

A simultaneous return at n means every multiple n*i*alpha (i = 1..k) lies
within epsilon of an integer; equivalently the point (x, .., x) of the
k-fold product rotation by (alpha, 2*alpha, .., k*alpha) returns to its
epsilon-cube, for every base point x at once.  All comparisons are made on
rational approximants with a tracked error bound; a comparison that the
current precision cannot decide escalates the precision instead of
guessing, so a reported witness is never a rounding artifact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, takewhile
from typing import Iterable

from .errors import DepthExhaustedError, PrecisionError

DEFAULT_PRECISION_ENV = "SHIFTREC_PRECISION"
_MAX_PRECISION = 1 << 14


def default_precision() -> int:
    text = os.environ.get(DEFAULT_PRECISION_ENV, "128")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{DEFAULT_PRECISION_ENV} must be an integer, not {text!r}") from None


def _checked_precision(precision: int) -> int:
    """``precision`` itself; a value below 1 could never be doubled to a decision."""
    if not isinstance(precision, int) or precision < 1:
        raise ValueError("precision must be a positive integer")
    return precision


def exact_fraction(value, name: str) -> Fraction:
    """``Fraction(value)``; a zero denominator raises ValueError, like any
    other text that names no number."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{name} {value!r} has a zero denominator") from None


def _positive_epsilon(epsilon: Fraction | str) -> Fraction:
    eps = exact_fraction(epsilon, "epsilon")
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return eps


class RotationSystem:
    """The rotation angle, given exactly or by its continued fraction.

    Accepted forms: a :class:`Fraction` (or ``p/q`` / decimal literal
    string), the keyword ``golden`` for the reciprocal golden ratio
    ``[0; 1, 1, 1, ...]``, or ``cf:a1,a2,...`` for the rational with that
    finite expansion.  ``approx(precision)`` returns a rational approximant
    together with an error bound of at most ``2**-precision``.
    """

    def __init__(self, alpha, precision: int | None = None):
        self.precision = _checked_precision(
            precision if precision is not None else default_precision()
        )
        self._cf_terms: tuple[int, ...] | None = None
        self._approx: dict[int, tuple[Fraction, Fraction]] = {}
        if isinstance(alpha, str):
            alpha = alpha.strip()
            if alpha == "golden":
                self.kind = "golden"
                self.exact = None
                return
            if alpha.startswith("cf:"):
                terms = [int(tok) for tok in alpha[3:].split(",") if tok.strip()]
                if not terms or any(a < 1 for a in terms):
                    raise ValueError("cf terms must be positive partial quotients")
                alpha = _from_continued_fraction([0] + terms)
            else:
                alpha = exact_fraction(alpha, "rotation angle")
        if isinstance(alpha, (int, Fraction)):
            value = Fraction(alpha)
            if not 0 <= value < 1:
                value -= math.floor(value)
            self.kind = "rational"
            self.exact = value
            return
        raise ValueError(f"cannot interpret rotation angle {alpha!r}")

    @classmethod
    def golden(cls, precision: int | None = None) -> "RotationSystem":
        return cls("golden", precision)

    def approx(self, precision: int) -> tuple[Fraction, Fraction]:
        """(value, error bound); the error is zero for an exact rational angle.
        Each precision is computed once per system."""
        cached = self._approx.get(precision)
        if cached is None:
            if self.kind == "rational":
                cached = self.exact, Fraction(0)
            else:
                # (sqrt(5) - 1) / 2 via an integer square root at the requested scale.
                scale = 1 << precision
                s = math.isqrt(5 * scale * scale)
                cached = Fraction(s - scale, 2 * scale), Fraction(1, scale)
            self._approx[precision] = cached
        return cached

    def cf_terms(self, depth: int) -> tuple[int, ...]:
        """The first ``depth`` partial quotients, including the integer part."""
        if self.kind == "golden":
            return (0,) + (1,) * max(depth - 1, 0)
        if self._cf_terms is None:
            terms = []
            num, den = self.exact.numerator, self.exact.denominator
            while den:
                a, rem = divmod(num, den)
                terms.append(a)
                num, den = den, rem
            self._cf_terms = tuple(terms)
        return self._cf_terms[:depth]

    def convergents(self, depth: int):
        """Yield (p, q) convergents of the expansion, q nondecreasing."""
        p_prev2, p_prev1 = 0, 1
        q_prev2, q_prev1 = 1, 0
        for a in self.cf_terms(depth):
            p = a * p_prev1 + p_prev2
            q = a * q_prev1 + q_prev2
            yield p, q
            p_prev2, p_prev1 = p_prev1, p
            q_prev2, q_prev1 = q_prev1, q

    def describe(self) -> str:
        if self.kind == "golden":
            return "golden"
        return f"{self.exact.numerator}/{self.exact.denominator}"


def _from_continued_fraction(terms: list[int]) -> Fraction:
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + 1 / value
    return value


@dataclass(frozen=True)
class ReturnReport:
    n: int
    distances: tuple[Fraction, ...]  # one per multiple i = 1..k
    epsilon: Fraction
    bound_used: int
    precision: int

    def max_distance(self) -> Fraction:
        return max(self.distances)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "distances": [f"{d.numerator}/{d.denominator}" for d in self.distances],
            "distances_float": [float(d) for d in self.distances],
            "epsilon": f"{self.epsilon.numerator}/{self.epsilon.denominator}",
            "bound_used": self.bound_used,
            "precision": self.precision,
        }


def _scan_returns(
    system: RotationSystem, k: int, epsilon: Fraction, candidates: Iterable[int], precision: int
) -> tuple[int | None, tuple[Fraction, ...], int]:
    """The first of ``candidates`` with every multiple ``i*n*alpha``
    (i = 1..k) certifiably within epsilon of an integer, its distances, and
    the precision reached; ``(None, (), precision)`` when none qualifies.

    Each precision is set up once: with ``value = num/den`` and
    ``err = e/den`` the distance of ``i*n*alpha`` is ``d/den`` with
    ``d = min(x, den - x)``, ``x = i*n*num mod den``, and
    ``d/den ± i*n*e/den`` is compared with ``epsilon`` by
    cross-multiplication.  A comparison too close to call doubles the
    precision and the scan goes on from that n: every earlier candidate
    stays certified "no return".  PrecisionError past the cap.
    """
    eps_num, eps_den = epsilon.numerator, epsilon.denominator
    pending = iter(candidates)
    n = next(pending, None)
    while n is not None:
        value, err = system.approx(precision)
        den = math.lcm(value.denominator, err.denominator)
        num = value.numerator * (den // value.denominator)
        e = err.numerator * (den // err.denominator)
        bar = eps_num * den
        for n in chain((n,), pending):
            step, slack_step = n * num % den, n * e
            x, slack = 0, 0
            for i in range(1, k + 1):
                x = (x + step) % den
                slack += slack_step
                d = min(x, den - x)
                if (d + slack) * eps_den >= bar:
                    break
            else:
                xs = (i * step % den for i in range(1, k + 1))
                return n, tuple(Fraction(min(x, den - x), den) for x in xs), precision
            if (d - slack) * eps_den < bar:
                break  # too close to call at this precision
        else:
            break
        precision *= 2
        if precision > _MAX_PRECISION:
            raise PrecisionError(
                f"distance for n={n}, i={i} undecidable within error {Fraction(slack, den)}"
            )
    return None, (), precision


def find_multi_return(
    system: RotationSystem,
    k: int,
    epsilon: Fraction | str,
    n_max: int,
    precision: int | None = None,
    convergent: ReturnReport | None = None,
) -> ReturnReport | None:
    """Least n <= n_max with every multiple n*i*alpha within epsilon of an
    integer.

    For ``epsilon <= 1/(2k)`` that is the first convergent denominator
    certified as a return (see :func:`cf_accelerated_return`), and nothing
    is scanned; ``convergent``, when given, is that report for the same
    system, ``k``, ``epsilon`` and ``precision``.  For larger epsilon it is
    one scan over 1..n_max (see :func:`_scan_returns`).
    """
    if k < 1:
        raise ValueError("k must be positive")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    eps = _positive_epsilon(epsilon)
    prec = _checked_precision(precision) if precision is not None else system.precision
    if convergent is not None and (convergent.epsilon, len(convergent.distances)) != (eps, k):
        raise ValueError("the convergent report is for another epsilon or k")
    if eps <= Fraction(1, 2 * k):
        if convergent is None:
            # q_j >= F_(j+1) > n_max once j > log_phi(n_max) + 1
            depth = 2 * n_max.bit_length() + 3
            convergent = _convergent_return(system, k, eps, prec, depth, n_max)
        if convergent is None or convergent.n > n_max:
            return None
        return ReturnReport(convergent.n, convergent.distances, eps, n_max, convergent.precision)
    n, dists, prec = _scan_returns(system, k, eps, range(1, n_max + 1), prec)
    return None if n is None else ReturnReport(n, dists, eps, n_max, prec)


def verify_return(
    system: RotationSystem, report: ReturnReport, precision: int | None = None
) -> bool:
    """Re-check a report, by default at twice the precision it was made at."""
    prec = _checked_precision(precision) if precision is not None else 2 * report.precision
    k, n = len(report.distances), report.n
    return _scan_returns(system, k, report.epsilon, (n,), prec)[0] is not None


def _convergent_return(
    system: RotationSystem,
    k: int,
    eps: Fraction,
    precision: int,
    depth: int,
    q_max: int | None = None,
) -> ReturnReport | None:
    """The first of the first ``depth`` convergent denominators, up to
    ``q_max``, certified as a return, or None."""
    denominators = (q for _, q in system.convergents(depth) if q >= 1)
    if q_max is not None:
        denominators = takewhile(lambda q: q <= q_max, denominators)
    q, dists, precision = _scan_returns(system, k, eps, denominators, precision)
    return None if q is None else ReturnReport(q, dists, eps, q, precision)


def cf_accelerated_return(
    system: RotationSystem,
    k: int,
    epsilon: Fraction | str,
    max_depth: int = 256,
    precision: int | None = None,
) -> ReturnReport:
    """A return among convergent denominators, the least return when
    ``epsilon <= 1/(2k)``.

    A denominator q with ``k * ||q * alpha|| < epsilon`` serves all the
    multiples at once; for a rational angle the final denominator always
    works.  Each candidate is certified directly before being reported.
    When ``epsilon <= 1/(2k)`` the first one certified is the least
    return:
    - the multiple ``i = 1`` needs ``d = ||n * alpha|| < epsilon``, so
      ``i * d < k * epsilon <= 1/2`` and ``||i * n * alpha|| = i * d``;
    - a return is then exactly an ``n`` with ``d < epsilon / k``, and the
      least such ``n`` beats every smaller one, so it is a best
      approximation of the second kind: a convergent denominator
      (Khinchin, *Continued Fractions*).
    """
    if k < 1:
        raise ValueError("k must be positive")
    eps = _positive_epsilon(epsilon)
    prec = _checked_precision(precision) if precision is not None else system.precision
    report = _convergent_return(system, k, eps, prec, max_depth)
    if report is None:
        raise DepthExhaustedError(
            f"no convergent denominator within depth {max_depth} certified a return"
        )
    return report


def dirichlet_ceiling(k: int, epsilon: Fraction | str) -> int:
    """Pigeonhole ceiling: some n <= ceil(1/epsilon)**k has all k multiples
    within 1/ceil(1/epsilon) of an integer, for every angle."""
    eps = _positive_epsilon(epsilon)
    q = math.ceil(1 / eps)
    return q**k
