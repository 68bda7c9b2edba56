"""Measure-bounded word-set certificates and their JSON round trip.

A certificate packages one enumerated test component: the words (or the
shell words of grid samples) it has produced, the exact measure of the open
set they generate, and the bound the construction promises.  A certificate
whose measure exceeds its bound indicates a construction bug, never a
legitimate run.  A survivor, error or level set that stands for more than
``CUBE_WORDS`` words is held and written as its disjoint ``0/1/*`` cube
cover instead of its words.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable

from .bitseq import Word, word_strings, words_from_strings
from .dyadic import D_ONE, Dyadic
from .errors import BoundViolationError
from .measure import CubeSet, prefix_reduce, sorted_words

# the C implementation whenever the interpreter has one
_escape = json.encoder.encode_basestring_ascii

KINDS = ("kurtz-stage", "schnorr-error", "ml-Cr", "ml-Gm", "ml-refined")

# A cover standing for more words than this is written as cubes.
CUBE_WORDS = 4096
# The fields a certificate object must have besides its words or cubes.
_FIELDS = ("kind", "parameters", "exact_measure", "required_bound", "stage_budget")
# Most cube visits verify makes while splitting a cover to look for overlaps.
OVERLAP_STEPS = 1 << 22


@dataclass
class TestCertificate:
    __test__ = False  # not a pytest class, despite the name

    kind: str
    parameters: dict[str, Any]
    # Words, or above CUBE_WORDS a CubeSet; a grid certificate holds the
    # shell words of its cube samples.
    words: tuple | CubeSet
    exact_measure: Dyadic
    required_bound: Dyadic
    stage_budget: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown certificate kind: {self.kind!r}")

    @property
    def cover(self) -> CubeSet:
        """The words or cubes as a cube cover; its ``word_count`` is exact at any size."""
        return self.words if isinstance(self.words, CubeSet) else CubeSet.from_words(self.words)

    @property
    def passes(self) -> bool:
        return self.exact_measure <= self.required_bound

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": dict(sorted(self.parameters.items())),
            **(
                {"cubes": self.words.strings()}
                if isinstance(self.words, CubeSet)
                else {"words": word_strings(self.words)}
            ),
            "exact_measure": str(self.exact_measure),
            "required_bound": str(self.required_bound),
            "stage_budget": self.stage_budget,
            "pass": self.passes,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TestCertificate":
        if not isinstance(data, dict) or ("words" in data) == ("cubes" in data):
            raise ValueError("a certificate must be a JSON object with either words or cubes")
        missing = [name for name in _FIELDS if name not in data]
        if missing:
            raise ValueError(f"a certificate has no {', '.join(missing)} field")
        encoding = "cubes" if "cubes" in data else "words"
        if not isinstance(data[encoding], list):
            raise ValueError(f"a certificate's {encoding} must be a list")
        parameters, budget = data["parameters"], data["stage_budget"]
        if not isinstance(parameters, dict):
            raise ValueError("certificate parameters must be an object")
        dim = parameters.get("dimension", 1)
        if type(dim) is not int or dim < 1:
            raise ValueError(f"a dimension must be an integer >= 1, got {dim!r}")
        if type(budget) is not int:
            raise ValueError(f"a stage budget must be an integer, got {budget!r}")
        measures = (data["exact_measure"], data["required_bound"])
        if not all(isinstance(m, str) for m in measures):
            raise ValueError(f"a measure and a bound must be dyadic strings, got {measures!r}")
        if encoding == "cubes":
            words = CubeSet.from_strings(data["cubes"])
            lengths = {cube[0] for cube in words.cubes}
        else:
            words = tuple(words_from_strings(data["words"]))
            lengths = {w.length for w in words}
        if dim > 1:
            # a grid word is the shell word of a cube: n**k bits for some n
            for length in lengths:
                if round(length ** (1 / dim)) ** dim != length:
                    raise ValueError(f"{length} bits do not fill a cube in dimension {dim}")
        return cls(
            kind=data["kind"],
            parameters=dict(parameters),
            words=words,
            exact_measure=Dyadic.from_string(measures[0]),
            required_bound=Dyadic.from_string(measures[1]),
            stage_budget=budget,
        )


def new_certificate(
    kind: str,
    parameters: dict[str, Any],
    words: Iterable[Word] | CubeSet,
    exact_measure: Dyadic,
    required_bound: Dyadic,
    stage_budget: int,
) -> TestCertificate:
    """Build a certificate, refusing to emit one that violates its bound.

    A cover of at most ``CUBE_WORDS`` words is expanded to its words."""
    if isinstance(words, CubeSet) and words.word_count <= CUBE_WORDS:
        words = words.expand(CUBE_WORDS)
    if not isinstance(words, CubeSet):
        words = sorted_words(words)
    cert = TestCertificate(kind, parameters, words, exact_measure, required_bound, stage_budget)
    if not cert.passes:
        raise BoundViolationError(
            f"{kind} certificate has measure {exact_measure} > bound {required_bound} "
            f"(parameters {parameters})"
        )
    return cert


# The recorded parameters each kind's bound follows from.  An ml-Gm bound
# also needs the head's measure, which a certificate does not record.
_BOUND_PARAMETERS = {
    "schnorr-error": ("k", "v", "t"),
    "ml-Cr": ("r", "q"),
    "ml-refined": ("u", "base_r", "q"),
}


def derived_bound(cert: TestCertificate) -> Dyadic | None:
    """The bound that the certificate's own parameters give, or None when its
    kind's bound does not follow from recorded parameters or they are absent.

    ``schnorr-error``: ``k/2^(t+v+k)``; ``ml-Cr``: ``q^r``, or 1 when
    ``q >= 1``; ``ml-refined``: ``q^(u - base_r)``.
    """
    names = _BOUND_PARAMETERS.get(cert.kind, ())
    p = cert.parameters
    if not names or any(n not in p for n in names):
        return None
    if any(type(p[n]) is not int or p[n] < 0 for n in names if n != "q"):
        raise ValueError(f"{cert.kind} parameters {', '.join(names)} must be nonnegative integers")
    if cert.kind == "schnorr-error":
        return Dyadic(p["k"], p["t"] + p["v"] + p["k"])
    q = Dyadic.from_string(p["q"]) if isinstance(p["q"], str) else None
    if q is None or q < 0:
        raise ValueError(f"parameter q must be a nonnegative dyadic string, got {p['q']!r}")
    if cert.kind == "ml-Cr":
        return q ** p["r"] if q < D_ONE else D_ONE
    if p["u"] < p["base_r"]:
        raise ValueError(f"ml-refined level u = {p['u']} is below base_r = {p['base_r']}")
    return q ** (p["u"] - p["base_r"])


def verify_certificate(cert: TestCertificate) -> list[str]:
    """Re-check a certificate from its own words or cubes and parameters;
    returns the list of problems.  Raises BudgetExceededError when looking
    for overlapping cubes takes more than ``OVERLAP_STEPS`` steps."""
    problems: list[str] = []
    if isinstance(cert.words, CubeSet):
        overlap = cert.words.overlap(OVERLAP_STEPS)
        if overlap is not None:
            problems.append(f"cubes {overlap[0]!r} and {overlap[1]!r} overlap")
        recomputed = cert.words.measure()
        lengths = [cube[0] for cube in cert.words.cubes]
    else:
        words = frozenset(cert.words)
        reduced = prefix_reduce(words)
        if len(reduced.cubes) != len(words):
            problems.append("word set is not prefix-free")
        recomputed = reduced.measure()
        lengths = map(itemgetter(1), words)
    # A stage-t word of a k-dimensional certificate has length t**k.
    longest = cert.stage_budget ** int(cert.parameters.get("dimension", 1))
    if cert.kind.startswith("ml-") and max(lengths, default=0) > longest:
        problems.append("a word is longer than the stage budget")
    if recomputed != cert.exact_measure:
        problems.append(
            f"stated measure {cert.exact_measure} differs from recomputed {recomputed}"
        )
    if recomputed > cert.required_bound:
        problems.append(
            f"measure {recomputed} violates required bound {cert.required_bound}"
        )
    elif cert.kind == "kurtz-stage" and recomputed != cert.required_bound:
        # a survivor set has exactly the measure of its product formula
        problems.append(
            f"measure {recomputed} differs from the bound {cert.required_bound} "
            "that a kurtz-stage certificate must equal"
        )
    bound = derived_bound(cert)
    if bound is not None and bound != cert.required_bound:
        problems.append(
            f"required bound {cert.required_bound} differs from {bound}, "
            "the bound its parameters give"
        )
    return problems


class JsonRecords:
    """JSON objects that share their keys, one tuple of values each:
    :func:`json_text` writes them as a list of objects without building a
    dict per record.  The keys are distinct and come sorted, as
    ``sort_keys`` orders them; the values are numbers, booleans or None."""

    __slots__ = ("keys", "rows")

    def __init__(self, keys: tuple[str, ...], rows: tuple[tuple, ...]):
        if not keys or any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("record keys must be one or more distinct keys, sorted")
        self.keys, self.rows = keys, rows


def json_text(obj) -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``.

    With ``indent`` the standard library encodes through a Python generator;
    here strings go through its C escaper and containers are joined.
    Mapping keys must be strings (the escaper raises ``TypeError`` otherwise).
    """
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, newline: str) -> str:
    if isinstance(obj, str):
        return _escape(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            _escape(k) + ": " + (_escape(v) if type(v) is str else _json_value(v, inner))
            for k, v in sorted(obj.items())
        ]
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_escape(v) if type(v) is str else _json_value(v, inner) for v in obj]
        opening, closing = "[", "]"
    elif isinstance(obj, JsonRecords):
        if not obj.rows:
            return "[]"
        field = inner + "  "
        keys = ("," + field).join(_escape(key).replace("%", "%%") + ": %s" for key in obj.keys)
        template = "{" + field + keys + inner + "}"
        items = [template % tuple(map(_json_scalar, row)) for row in obj.rows]
        opening, closing = "[", "]"
    else:
        return _json_scalar(obj)
    # brackets go onto the end items, so that the join is the only copy
    items[0] = opening + inner + items[0]
    items[-1] += newline + closing
    return ("," + inner).join(items)


def _json_scalar(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (math.inf, -math.inf):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_CERT_KEYS = ("certificates", "g_certificates", "refined_certificates")


def certificates_from_json(text: str) -> list[TestCertificate]:
    """The certificates of a file: the lists under the certificate keys of an
    object, a bare list, or else one certificate object.  Each must record
    the parameters its kind's bound follows from."""
    data = json.loads(text)
    if isinstance(data, dict):
        lists = [data[key] for key in _CERT_KEYS if key in data] or [[data]]
    else:
        lists = [data]
    if not all(isinstance(v, list) for v in lists):
        raise ValueError("certificates must be given as a JSON list")
    certs = [TestCertificate.from_json_dict(item) for item in chain.from_iterable(lists)]
    for cert in certs:
        missing = [n for n in _BOUND_PARAMETERS.get(cert.kind, ()) if n not in cert.parameters]
        if missing:
            raise ValueError(f"a {cert.kind} certificate must record {', '.join(missing)}")
    return certs
