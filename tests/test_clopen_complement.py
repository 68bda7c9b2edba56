"""A clopen target's complement as the cubes of its gap words, against the
same complement listed word by word.

Both co-enumerations deliver the words outside the target at the stage
equal to the granularity, so every schedule, measure and bound built from
them must agree, and so must the words each certificate stands for.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftrec.bitseq import Word
from shiftrec.measure import ClopenSet, CubeSet, StagedCoEnumeration
from shiftrec.mltest import ml_run
from shiftrec.schnorr import schnorr_error_set, schnorr_schedule, schnorr_union_bound


def word_complement(target: ClopenSet) -> StagedCoEnumeration:
    """The complement listed word by word, one fully fixed cube per word."""
    g = target.granularity
    outside = (Word(v, g) for v in range(1 << g) if Word(v, g) not in target.words)
    return StagedCoEnumeration({g: CubeSet.from_words(outside).cubes})


def gap_complement(target: ClopenSet) -> StagedCoEnumeration:
    return StagedCoEnumeration({target.granularity: target.complement().cubes})


def expanded(cert) -> tuple:
    """Everything a certificate states, its cover read as the words it stands for."""
    words = frozenset(cert.cover.expand(1 << 16))
    return cert.kind, cert.parameters, words, cert.exact_measure, cert.required_bound


@st.composite
def clopen_targets(draw):
    """Targets of 1 to 10 bits: a few words, all but a few, or any set."""
    g = draw(st.integers(1, 10))
    top = 1 << g
    few = st.sets(st.integers(0, top - 1), max_size=4)
    values = draw(
        st.one_of(
            few,
            few.map(lambda out: set(range(top)) - out),
            st.sets(st.integers(0, top - 1), max_size=min(top, 40)),
        )
    )
    return ClopenSet(g, {Word(v, g) for v in values})


@settings(max_examples=100, deadline=None)
@given(clopen_targets(), st.integers(1, 2), st.integers(0, 1))
def test_gap_word_complement_matches_the_word_complement(target, k, v):
    cubes, words = gap_complement(target), word_complement(target)
    g = target.granularity
    assert cubes.measure() == words.measure() == 1 - target.measure()
    for t in range(g + 2):
        assert cubes.tail_modulus(t) == words.tail_modulus(t)

    # the error sets hold at most 2^13 words each at these sizes
    t_max = 3 - k
    schedule = schnorr_schedule(cubes, k, v, t_max)
    assert schedule == schnorr_schedule(words, k, v, t_max)
    errors = []
    for coenum in (cubes, words):
        certs = [schnorr_error_set(coenum, schedule, k, v, t) for t in range(1, t_max + 1)]
        errors.append(([expanded(c) for c in certs], schnorr_union_bound(certs)))
    assert errors[0] == errors[1]

    if not target.words:  # escape sets need a target of positive measure
        for coenum in (cubes, words):
            with pytest.raises(ValueError, match="positive measure"):
                ml_run(coenum, k, g, 2)
        return
    runs = [ml_run(coenum, k, min(g + 2, 12), 2) for coenum in (cubes, words)]
    a, b = runs
    assert (a.path, a.q, a.head_max_len, a.tail_q) == (b.path, b.q, b.head_max_len, b.tail_q)
    for certs_a, certs_b in (
        (a.level_certs, b.level_certs),
        (a.g_certs or [], b.g_certs or []),
        (a.refined_certs or [], b.refined_certs or []),
    ):
        assert [expanded(c) for c in certs_a] == [expanded(c) for c in certs_b]
    if a.path == "split":
        heads = [set(CubeSet(run.head).expand(1 << 10)) for run in runs]
        assert heads[0] == heads[1]
        assert [(lv.j, lv.u, lv.bound) for lv in a.refinement] == [
            (lv.j, lv.u, lv.bound) for lv in b.refinement
        ]
