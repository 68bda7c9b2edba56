"""Measure-bounded word-set certificates and their JSON round trip.

A certificate packages one enumerated test component: the words (or the
shell words of grid samples) it has produced, the exact measure of the open
set they generate, and the bound the construction promises.  A certificate
whose measure exceeds its bound indicates a construction bug, never a
legitimate run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

from .bitseq import Word
from .dyadic import Dyadic
from .errors import BoundViolationError
from .measure import is_prefix_free, measure_open, sorted_words

KINDS = ("kurtz-stage", "schnorr-error", "ml-Cr", "ml-Gm", "ml-refined")


@dataclass
class TestCertificate:
    __test__ = False  # not a pytest class, despite the name

    kind: str
    parameters: dict[str, Any]
    words: tuple  # Words; a grid certificate holds the shell words of its cube samples
    exact_measure: Dyadic
    required_bound: Dyadic
    stage_budget: int
    space: str = "bits"

    @property
    def passes(self) -> bool:
        return self.exact_measure <= self.required_bound

    def to_json_dict(self) -> dict:
        if self.space == "bits":
            words = [str(w) for w in self.words]
        else:
            from .multidim import row_major_bits

            dim = int(self.parameters["dimension"])
            samples = sorted(row_major_bits(dim, w) for w in self.words)
            words = [{"size": size, "bits": bits} for size, bits in samples]
        return {
            "kind": self.kind,
            "space": self.space,
            "parameters": dict(sorted(self.parameters.items())),
            "words": words,
            "exact_measure": str(self.exact_measure),
            "required_bound": str(self.required_bound),
            "stage_budget": self.stage_budget,
            "pass": self.passes,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "TestCertificate":
        space = data.get("space", "bits")
        if space == "bits":
            words = tuple(Word.from_string(w) for w in data["words"])
        else:
            from .multidim import shell_word

            dim = int(data["parameters"]["dimension"])
            words = sorted_words(
                shell_word(dim, int(w["size"]), w["bits"]) for w in data["words"]
            )
        return cls(
            kind=data["kind"],
            parameters=dict(data["parameters"]),
            words=words,
            exact_measure=Dyadic.from_string(data["exact_measure"]),
            required_bound=Dyadic.from_string(data["required_bound"]),
            stage_budget=int(data["stage_budget"]),
            space=space,
        )


def new_certificate(
    kind: str,
    parameters: dict[str, Any],
    words: Iterable[Word],
    exact_measure: Dyadic,
    required_bound: Dyadic,
    stage_budget: int,
    space: str = "bits",
) -> TestCertificate:
    """Build a certificate, refusing to emit one that violates its bound."""
    if kind not in KINDS:
        raise ValueError(f"unknown certificate kind: {kind!r}")
    cert = TestCertificate(
        kind, parameters, sorted_words(words), exact_measure, required_bound, stage_budget, space
    )
    if not cert.passes:
        raise BoundViolationError(
            f"{kind} certificate has measure {exact_measure} > bound {required_bound} "
            f"(parameters {parameters})"
        )
    return cert


def verify_certificate(cert: TestCertificate) -> list[str]:
    """Re-check a certificate from its own words; returns the list of problems."""
    problems: list[str] = []
    recomputed = measure_open(cert.words)
    if not is_prefix_free(cert.words):
        problems.append("word set is not prefix-free")
    # A stage-t word of a k-dimensional certificate has length t**k.
    longest = cert.stage_budget ** int(cert.parameters.get("dimension", 1))
    if cert.kind.startswith("ml-") and any(w.length > longest for w in cert.words):
        problems.append("a word is longer than the stage budget")
    if recomputed != cert.exact_measure:
        problems.append(
            f"stated measure {cert.exact_measure} differs from recomputed {recomputed}"
        )
    if recomputed > cert.required_bound:
        problems.append(
            f"measure {recomputed} violates required bound {cert.required_bound}"
        )
    return problems


def certificates_to_json(certs: Iterable[TestCertificate]) -> str:
    payload = {"certificates": [c.to_json_dict() for c in certs]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_CERT_KEYS = ("certificates", "g_certificates", "refined_certificates")


def certificates_from_json(text: str) -> list[TestCertificate]:
    data = json.loads(text)
    if isinstance(data, dict):
        items = [c for key in _CERT_KEYS for c in data.get(key, [])]
        if not items:
            items = [data]
    else:
        items = data
    return [TestCertificate.from_json_dict(item) for item in items]
