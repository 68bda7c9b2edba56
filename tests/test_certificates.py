import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftrec.bitseq import Word
from shiftrec.certificates import (
    JsonRecords,
    TestCertificate,
    certificates_from_json,
    json_text,
    new_certificate,
    verify_certificate,
)
from shiftrec.dyadic import Dyadic
from shiftrec.errors import BoundViolationError
from shiftrec.kurtz import kurtz_stage_set
from shiftrec.measure import ClopenSet
from shiftrec.multidim import ArraySample, grid_kurtz_stage_set


def certificates_to_json(certs) -> str:
    """A certificate file holding ``certs``, as the subcommands write one."""
    return json_text({"certificates": [c.to_json_dict() for c in certs]})


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
    target = ClopenSet(1, {ArraySample(2, 1, (1,)).word()})
    cert = grid_kurtz_stage_set(target, 2, 1)
    data = json.loads(certificates_to_json([cert]))["certificates"][0]
    # a grid certificate is written as a word certificate: shell words, no space field
    assert "space" not in data and data["words"] == [str(w) for w in cert.words]
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
    # the size-2 sample with shell word "1011" restricts to the size-1 sample "1"
    payload = {
        "kind": "ml-Cr",
        "parameters": {"dimension": 2, "r": 1},
        "words": ["1", "1011"],
        "exact_measure": "1/2^1",
        "required_bound": "1/2^0",
        "stage_budget": 4,
        "pass": True,
    }
    bad = TestCertificate.from_json_dict(payload)
    assert any("not prefix-free" in p for p in verify_certificate(bad))
    payload["words"] = ["1", "0011"]
    payload["exact_measure"] = "9/2^4"
    assert verify_certificate(TestCertificate.from_json_dict(payload)) == []


def test_json_output_is_deterministic():
    cert = kurtz_stage_set(ClopenSet(1, {W("1")}), 2, 1)
    assert certificates_to_json([cert]) == certificates_to_json([cert])
    data = json.loads(certificates_to_json([cert]))
    assert data["certificates"][0]["words"] == sorted(
        data["certificates"][0]["words"]
    )


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()  # non-ASCII and control characters included
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@given(json_values)
def test_json_text_equals_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


json_numbers = st.none() | st.booleans() | st.integers() | st.floats(
    allow_nan=True, allow_infinity=True
)


@given(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True), st.data())
def test_json_records_are_written_as_their_dicts(keys, data):
    """Records are written byte for byte as the list of their dicts, at any
    depth; keys with ``%`` and non-ASCII characters included."""
    keys = tuple(sorted(keys))
    rows = data.draw(st.lists(st.tuples(*[json_numbers] * len(keys)), max_size=4))
    other = data.draw(json_values)
    records, dicts = JsonRecords(keys, tuple(rows)), [dict(zip(keys, row)) for row in rows]
    for wrap in (lambda v: v, lambda v: {"rows": v, "x": other}, lambda v: [other, [v]]):
        assert json_text(wrap(records)) == json.dumps(wrap(dicts), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("keys", [(), ("b", "a"), ("a", "a")])
def test_json_records_want_distinct_sorted_keys(keys):
    with pytest.raises(ValueError):
        JsonRecords(keys, ())


def test_json_text_rejects_what_json_dumps_rejects():
    with pytest.raises(TypeError):
        json_text({"a": object()})
    with pytest.raises(TypeError):
        json_text({("a",): 1})


def test_verify_requires_kurtz_stage_equality():
    # the benchmark's tamper probe: 10 of 72 survivor words, measure restated,
    # bound loosened to 1; measure and bound are consistent, but a kurtz-stage
    # certificate must equal (1-p^k)^(t+1)
    cert = kurtz_stage_set(ClopenSet(1, {W("1")}), 2, 1)
    assert len(cert.words) == 72
    payload = cert.to_json_dict()
    kept = payload["words"][:10]
    top = max(len(w) for w in kept)
    payload["words"] = kept
    payload["exact_measure"] = str(Dyadic(sum(1 << (top - len(w)) for w in kept), top))
    payload["required_bound"] = "1/2^0"
    problems = verify_certificate(TestCertificate.from_json_dict(payload))
    assert problems and all("kurtz-stage" in p for p in problems)
    one_word = dict(payload, words=["01"], exact_measure="1/2^2")
    assert verify_certificate(TestCertificate.from_json_dict(one_word))


@pytest.mark.parametrize(
    "sample",
    [
        {"dimension": 0, "word": ""},  # no cube has dimension 0
        {"dimension": 2, "word": "101"},  # 3 bits fill no square
        {"dimension": 2, "word": "2"},
    ],
)
def test_grid_certificate_rejects_bad_samples(sample):
    payload = {
        "kind": "ml-Cr",
        "parameters": {"dimension": sample["dimension"], "r": 1},
        "words": [sample["word"]],
        "exact_measure": "1/2^0",
        "required_bound": "1/2^0",
        "stage_budget": 4,
        "pass": True,
    }
    with pytest.raises(ValueError):
        TestCertificate.from_json_dict(payload)
