import json

import pytest

from shiftrec.bitseq import Word
from shiftrec.certificates import (
    TestCertificate,
    certificates_from_json,
    certificates_to_json,
    new_certificate,
    verify_certificate,
)
from shiftrec.dyadic import Dyadic
from shiftrec.errors import BoundViolationError
from shiftrec.kurtz import kurtz_stage_set
from shiftrec.measure import ClopenSet
from shiftrec.multidim import ArrayClopenSet, ArraySample, grid_kurtz_stage_set


def W(text):
    return Word.from_string(text)


def test_new_certificate_enforces_bound():
    with pytest.raises(BoundViolationError):
        new_certificate(
            "ml-Cr",
            {"r": 1},
            [W("0")],
            exact_measure=Dyadic(1, 1),
            required_bound=Dyadic(1, 2),
            stage_budget=4,
        )


def test_new_certificate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        new_certificate("mystery", {}, [], Dyadic(0), Dyadic(1), 0)


def test_words_sorted_canonically():
    cert = new_certificate(
        "ml-Cr",
        {"r": 1},
        [W("11"), W("0"), W("10")],
        exact_measure=Dyadic(1),
        required_bound=Dyadic(1),
        stage_budget=4,
    )
    assert [str(w) for w in cert.words] == ["0", "10", "11"]


def test_json_roundtrip_bits():
    cert = kurtz_stage_set(ClopenSet(1, {W("1")}), 2, 1)
    text = certificates_to_json([cert])
    back = certificates_from_json(text)[0]
    assert back.words == cert.words
    assert back.exact_measure == cert.exact_measure
    assert back.required_bound == cert.required_bound
    assert verify_certificate(back) == []


def test_json_roundtrip_grid():
    target = ArrayClopenSet(2, 1, {ArraySample(2, 1, (1,))})
    cert = grid_kurtz_stage_set(target, 1)
    back = certificates_from_json(certificates_to_json([cert]))[0]
    assert back.words == cert.words
    assert verify_certificate(back) == []


def test_verify_flags_tampered_measure():
    cert = kurtz_stage_set(ClopenSet(1, {W("1")}), 2, 0)
    payload = cert.to_json_dict()
    payload["exact_measure"] = "1/2^5"
    bad = TestCertificate.from_json_dict(payload)
    problems = verify_certificate(bad)
    assert any("differs from recomputed" in p for p in problems)


def test_verify_flags_bound_violation():
    cert = kurtz_stage_set(ClopenSet(1, {W("1")}), 2, 0)
    payload = cert.to_json_dict()
    payload["required_bound"] = "1/2^6"
    bad = TestCertificate.from_json_dict(payload)
    assert any("violates required bound" in p for p in problems_of(bad))


def problems_of(cert):
    return verify_certificate(cert)


def test_verify_flags_prefix_violation():
    payload = {
        "kind": "ml-Cr",
        "space": "bits",
        "parameters": {"r": 1},
        "words": ["0", "01"],
        "exact_measure": "1/2^1",
        "required_bound": "1/2^0",
        "stage_budget": 4,
        "escape_level": None,
        "pass": True,
    }
    bad = TestCertificate.from_json_dict(payload)
    assert any("not prefix-free" in p for p in verify_certificate(bad))


def test_verify_flags_grid_prefix_violation():
    # the size-2 sample "1011" restricts to the size-1 sample "1"
    payload = {
        "kind": "ml-Cr",
        "space": "grid",
        "parameters": {"dimension": 2, "r": 1},
        "words": [{"size": 1, "bits": "1"}, {"size": 2, "bits": "1011"}],
        "exact_measure": "1/2^1",
        "required_bound": "1/2^0",
        "stage_budget": 4,
        "pass": True,
    }
    bad = TestCertificate.from_json_dict(payload)
    assert any("not prefix-free" in p for p in verify_certificate(bad))
    payload["words"] = [{"size": 1, "bits": "1"}, {"size": 2, "bits": "0011"}]
    payload["exact_measure"] = "9/2^4"
    assert verify_certificate(TestCertificate.from_json_dict(payload)) == []


def test_json_output_is_deterministic():
    cert = kurtz_stage_set(ClopenSet(1, {W("1")}), 2, 1)
    assert certificates_to_json([cert]) == certificates_to_json([cert])
    data = json.loads(certificates_to_json([cert]))
    assert data["certificates"][0]["words"] == sorted(
        data["certificates"][0]["words"]
    )
