from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftrec import measure
from shiftrec.bitseq import EMPTY_WORD, Word
from shiftrec.dyadic import D_ONE, D_ZERO, Dyadic
from shiftrec.errors import BudgetExceededError, NoCertificateError
from shiftrec.measure import (
    ClopenSet,
    CubeSet,
    StagedCoEnumeration,
    is_prefix_free,
    measure_open,
    meet_cover,
    prefix_reduce,
    sharp,
    sharp_cover,
    split_tail,
    union_cover,
)


def W(text):
    return Word.from_string(text)


def words(*texts):
    return {W(t) for t in texts}


def C(*texts):
    """The ``0/1/*`` cubes spelled by ``texts``."""
    return frozenset(CubeSet.from_strings(texts).cubes)


def all_words(length):
    """All words of the given length, in increasing packed-value order."""
    return (Word(v, length) for v in range(1 << length))


def oracle_measure(word_set, depth=10):
    """Count extensions at a common refinement depth."""
    depth = max([depth] + [w.length for w in word_set])
    hits = sum(
        1
        for v in all_words(depth)
        if any(w.is_prefix_of(v) for w in word_set)
    )
    return Fraction(hits, 1 << depth)


word_sets = st.lists(
    st.integers(0, 6).flatmap(lambda n: st.integers(0, (1 << n) - 1).map(lambda v: Word(v, n))),
    max_size=16,
)


@given(word_sets)
def test_prefix_reduction_matches_pairwise_oracle(ws):
    pool = set(ws)
    minimal = {w for w in pool if not any(u.is_prefix_of(w) and u != w for u in pool)}
    assert prefix_reduce(ws) == CubeSet.from_words(minimal)
    assert is_prefix_free(ws) == (minimal == pool)


short_words = st.integers(0, 8).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda v: Word(v, n))
)


@given(word_sets, short_words)
def test_covers_matches_brute_force(ws, w):
    # ws need not be prefix-free; reduction keeps the covered cylinders
    reduced = prefix_reduce(ws)
    for j in range(w.length + 1):  # the short prefixes are often shorter than every member
        u = w.take(j)
        assert reduced.covers(u) == any(m.is_prefix_of(u) for m in ws)


def test_covers_examples():
    s = prefix_reduce(words("0", "01", "110"))
    assert s.covers(W("0")) and s.covers(W("0111")) and s.covers(W("1101"))
    assert not s.covers(W("1")) and not s.covers(W("11")) and not s.covers(W("111"))
    assert not s.covers(EMPTY_WORD)
    assert prefix_reduce({EMPTY_WORD}).covers(EMPTY_WORD)
    assert not prefix_reduce(set()).covers(W("0"))


def test_measure_open_examples():
    assert measure_open({EMPTY_WORD}) == D_ONE
    assert measure_open(words("01")) == Dyadic(1, 2)
    assert measure_open(set()) == D_ZERO


def test_measure_open_against_extension_oracle():
    s = words("0", "10", "110")
    assert measure_open(s) == Dyadic(7, 3)
    assert measure_open(s).as_fraction() == oracle_measure(s, 3)


def test_measure_open_overlapping():
    s = words("0", "01", "0110")
    assert measure_open(s).as_fraction() == oracle_measure(s)


@given(
    st.sets(
        st.integers(0, 5).flatmap(
            lambda n: st.integers(0, (1 << n) - 1).map(lambda v: Word(v, n))
        ),
        max_size=12,
    )
)
def test_reduce_preserves_measure(s):
    reduced = prefix_reduce(s)
    assert reduced.measure() == measure_open(s)
    assert reduced.overlap(1 << 20) is None
    assert len(reduced) == len(reduced.cubes) <= len(s)
    assert measure_open(s).as_fraction() == oracle_measure(s, 6)


def test_prefix_reduce_examples():
    assert prefix_reduce(words("0", "01")) == CubeSet.from_strings(["0"])
    assert prefix_reduce({EMPTY_WORD, W("1")}) == CubeSet.from_strings([""])
    assert len(prefix_reduce(words("0", "01", "110"))) == 2
    # already reduced: pairwise scan oracle agrees
    s = words("00", "01", "1")
    assert prefix_reduce(s) == CubeSet.from_words(s)
    assert is_prefix_free(s) and not is_prefix_free(words("0", "01"))


def test_clopen_complement_examples():
    """The complement is the gap words, padded to the granularity with free
    bits: one cube per gap word, however many words it stands for."""
    p = ClopenSet(1, words("1"))
    assert p.complement() == CubeSet.from_strings(["0"])
    assert ClopenSet(2, set()).complement() == CubeSet.from_strings(["**"])
    q = ClopenSet(2, words("00", "01", "10"))
    qc = q.complement()
    assert qc == CubeSet.from_strings(["11"])
    assert q.measure() == Dyadic(3, 2)
    assert qc.measure() == Dyadic(1, 2)
    zeros = ClopenSet(40, words("0" * 40))
    assert len(zeros.complement().cubes) == 40
    assert zeros.complement().measure() == Dyadic((1 << 40) - 1, 40)


@given(st.integers(1, 10), st.integers(0, 63))
def test_complement_measures_sum_to_one(granularity, mask):
    """The complement's cubes are disjoint, of the granularity's length, and
    stand for exactly the words outside the set."""
    members = [w for w in all_words(granularity) if (mask >> (w.value % 6)) & 1]
    p = ClopenSet(granularity, members)
    complement = p.complement()
    assert p.measure() + complement.measure() == D_ONE
    assert complement.overlap(1 << 20) is None
    assert all(n == granularity for n, _, _ in complement.cubes)
    assert set(complement.expand(1 << granularity)) == set(all_words(granularity)) - p.words


@given(st.integers(1, 10), st.data())
def test_clopen_gap_words_cover_the_complement(granularity, data):
    """The gap words are prefix-free, no longer than the granularity, at most
    ``granularity`` per member, and a word lies in the set exactly when
    none of them is its prefix; empty, full and all-but-one sets included."""
    top = (1 << granularity) - 1
    values = data.draw(
        st.one_of(
            st.sets(st.integers(0, top), max_size=40),
            st.just(set()),
            st.just(set(range(top + 1))),
            st.integers(0, top).map(lambda v: set(range(top + 1)) - {v}),
        )
    )
    p = ClopenSet(granularity, {Word(v, granularity) for v in values})
    gaps = p.gap_words()
    assert list(gaps) == sorted(gaps) and is_prefix_free(words(*gaps))
    assert all(len(g) <= granularity for g in gaps)
    assert len(gaps) <= max(1, granularity * len(values))
    for w in all_words(granularity):
        text = str(w)
        assert (w.value in values) != any(text.startswith(g) for g in gaps)
    assert p.gap_words() is gaps  # built once


def test_clopen_membership_and_errors():
    p = ClopenSet(2, words("11"))
    assert p.contains_word(W("1101"))
    assert not p.contains_word(W("10"))
    with pytest.raises(ValueError):
        p.contains_word(W("1"))
    with pytest.raises(ValueError):
        ClopenSet(2, words("1"))
    with pytest.raises(ValueError):
        ClopenSet(0, set())


def test_clopen_text_roundtrip():
    p = ClopenSet(2, words("01", "11"))
    assert ClopenSet.from_text("granularity 2\n01\n\n11\n") == p


def two_stage_coenum():
    return StagedCoEnumeration({2: C("11"), 4: C("0000")})


def test_staged_validation():
    with pytest.raises(ValueError):
        StagedCoEnumeration({2: C("111")})
    with pytest.raises(ValueError):
        StagedCoEnumeration({2: C("1*1")})
    with pytest.raises(ValueError):
        StagedCoEnumeration({0: C("")})


def test_staged_accessors():
    b = two_stage_coenum()
    assert b.newly(2) == C("11")
    assert b.cumulative(3) == C("11")
    assert b.cumulative(4) == C("11", "0000")
    assert b.late_cubes(2) == C("0000")
    assert b.measure() == Dyadic(5, 4)
    assert b.measure(3) == Dyadic(1, 2)
    assert b.support_bound == 4


def test_staged_cubes_overlap_across_stages():
    """A later cube inside an earlier one's cylinder adds nothing to the
    measure of the cubes delivered so far, but is its own tail."""
    b = StagedCoEnumeration({1: C("1"), 3: C("1*0", "0*1")})
    assert b.measure(1) == Dyadic(1, 1)
    assert b.measure() == Dyadic(3, 2)
    assert b.tail_modulus(1) == Dyadic(1, 1)
    assert b.tail_modulus(2) == b.tail_modulus(1)


def test_staged_tail_modulus_exact():
    b = two_stage_coenum()
    assert b.tail_modulus(0) == Dyadic(5, 4)
    assert b.tail_modulus(2) == Dyadic(1, 4)
    assert b.tail_modulus(4) == D_ZERO
    assert b.tail_modulus(9) == D_ZERO


def test_modulus_soundness():
    b = two_stage_coenum()
    for t in range(6):
        for later in range(t, 6):
            assert b.measure(t) + b.tail_modulus(t) >= b.measure(later)


def test_staged_text_roundtrip():
    b = two_stage_coenum()
    assert StagedCoEnumeration.from_text("stage 2: 11\n\nstage 4: 0000\n") == b
    assert StagedCoEnumeration.from_text("stage 4: 0000\nstage 2: 11 11\n") == b
    assert StagedCoEnumeration.from_text("") == StagedCoEnumeration.empty()


def test_split_tail_examples():
    # zero tail exactly at the last delivery stage
    heavy = C("0**", "100")  # measure 5/8
    b = StagedCoEnumeration({3: heavy})
    d, t = split_tail(b, Fraction(1, 2))
    assert d == heavy and t == 3

    assert split_tail(StagedCoEnumeration.empty(), Fraction(1, 2)) == (frozenset(), 0)

    d, t = split_tail(two_stage_coenum(), Dyadic(1, 3))
    assert d == C("11")
    assert t == 2


def test_split_tail_least_stage():
    b = two_stage_coenum()
    d, t = split_tail(b, Fraction(1, 2))
    # the tail after stage 0 is 5/16 < 1/2 already, with nothing delivered yet
    assert d == frozenset() and t == 0


def test_split_tail_thresholds():
    with pytest.raises(ValueError):
        split_tail(two_stage_coenum(), Fraction(0))


def test_split_tail_custom_modulus_no_certificate():
    b = StagedCoEnumeration(
        {1: C("1")},
        tail_modulus=lambda t: Dyadic(1, 1),
        support_bound=None,
    )
    with pytest.raises(NoCertificateError):
        split_tail(b, Fraction(1, 4), max_stage=32)


def test_after_keeps_the_later_stages():
    """The tail after a split stage is the stages after it."""
    b = two_stage_coenum()
    tail = b.after(2)
    assert tail.cumulative(4) == C("0000") and tail.stages == (4,)
    assert tail.measure() == Dyadic(1, 4)
    assert b.after(1) == b and b.after(4) == StagedCoEnumeration.empty()
    modulus = StagedCoEnumeration({1: C("1")}, tail_modulus=lambda t: Dyadic(1, t + 1))
    assert modulus.after(0).tail_modulus(3) == Dyadic(1, 4)


# --- disjoint cube covers, against brute-force expansion -----------------------


@st.composite
def cubes(draw, max_length=10, min_length=0):
    n = draw(st.integers(min_length, max_length))
    care = draw(st.integers(0, (1 << n) - 1))
    return (n, care, draw(st.integers(0, (1 << n) - 1)) & care)


@cache
def cube_words(cube):
    """Brute force: every word of the cube's length that matches it."""
    n, care, value = cube
    return frozenset(w for w in all_words(n) if not (w.value ^ value) & care)


def in_cylinder(cube, word):
    """The cube's padded cylinder contains the word's cylinder."""
    n = cube[0]
    return n <= word.length and word.take(n) in cube_words(cube)


@st.composite
def disjoint_covers(draw, max_length=10):
    """A disjoint cover: random cubes, each made disjoint from those before by
    sharp, so every cube is no longer than the ones it is sharped by."""
    cover = []
    for cube in sorted(draw(st.lists(cubes(max_length), max_size=5))):
        pieces = [cube]
        for other in cover:
            pieces = [p for piece in pieces for p in sharp(piece, other)]
        cover += pieces
    return CubeSet(cover)


def expansion(cover):
    return set(cover.expand(1 << 20))


@given(cubes(), st.data())
def test_sharp_is_disjoint_and_removes_the_cylinder(a, data):
    b = data.draw(cubes(max_length=a[0]))
    pieces = sharp(a, b)
    assert CubeSet(pieces).overlap(1 << 20) is None
    assert all(p[0] == a[0] for p in pieces)
    got = [w for p in pieces for w in cube_words(p)]
    assert len(got) == len(set(got))
    assert set(got) == {w for w in cube_words(a) if not in_cylinder(b, w)}


@given(st.integers(0, 10), st.data())
def test_sharp_cover_is_disjoint_union_minus_a_cover(n, data):
    kids = data.draw(st.lists(cubes(min_length=n, max_length=n), max_size=6))
    cover = data.draw(disjoint_covers(max_length=n))
    pieces = sharp_cover(kids, cover.cubes)
    assert CubeSet(pieces).overlap(1 << 20) is None
    assert all(p[0] == n for p in pieces)
    got = [w for p in pieces for w in cube_words(p)]
    assert len(got) == len(set(got))
    assert set(got) == {
        w
        for kid in kids
        for w in cube_words(kid)
        if not any(in_cylinder(c, w) for c in cover.cubes)
    }


def test_sharp_cover_of_many_words_is_fast():
    """Thousands of distinct words cost about their number times their
    branching depth, not their number squared."""
    kids = [(14, (1 << 14) - 1, v) for v in range(1, 1 << 14)]
    earlier = [(13, (1 << 13) - 1, 0)]
    pieces = sharp_cover(kids, earlier)
    assert len(CubeSet(pieces)) == (1 << 14) - 2
    assert CubeSet(pieces).overlap(1 << 20) is None


def test_sharp_needs_a_cube_no_longer():
    with pytest.raises(ValueError):
        sharp((1, 1, 1), (2, 3, 3))


@given(disjoint_covers())
def test_cover_measure_is_measure_open_of_its_expansion(cover):
    words_ = expansion(cover)
    assert is_prefix_free(words_)
    assert cover.measure() == measure_open(words_)
    assert len(cover) == len(words_) == sum(len(cube_words(c)) for c in cover.cubes)


@given(disjoint_covers(), st.integers(0, 10), st.data())
def test_cover_covers_agrees_with_expansion(cover, length, data):
    word = Word(data.draw(st.integers(0, (1 << length) - 1)), length)
    assert cover.covers(word) == any(w.is_prefix_of(word) for w in expansion(cover))


@given(st.lists(cubes(max_length=6), max_size=4))
def test_overlap_agrees_with_brute_force(cube_list):
    cover = CubeSet(cube_list)
    meets = any(
        any(u.is_prefix_of(v) or v.is_prefix_of(u) for u in cube_words(a) for v in cube_words(b))
        for i, a in enumerate(cube_list)
        for b in cube_list[i + 1 :]
    )
    assert (cover.overlap(1 << 20) is not None) == meets


@given(disjoint_covers())
def test_cover_strings_roundtrip(cover):
    assert CubeSet.from_strings(cover.strings()) == cover
    assert all(set(t) <= set("01*") for t in cover.strings())


def test_cover_examples_and_budgets():
    cover = CubeSet.from_strings(["1*0", "01"])
    assert cover.strings() == ["01", "1*0"]
    assert len(cover) == 3 and cover.measure() == Dyadic(1, 1)
    assert sorted(map(str, cover.expand(3))) == ["01", "100", "110"]
    with pytest.raises(BudgetExceededError):
        cover.expand(2)
    assert CubeSet.from_strings([""]).measure() == D_ONE
    assert not CubeSet([]) and len(CubeSet([])) == 0
    assert CubeSet.from_words(words("0", "10")).covers(W("101"))
    assert CubeSet.from_strings(["1*", "11"]).overlap(4) == ("1*", "11")
    assert CubeSet.from_strings(["0", "10", "11"]).overlap(8) is None
    with pytest.raises(BudgetExceededError):
        CubeSet.from_strings(["0", "10", "11"]).overlap(7)
    for bad in ("1x0", "1 0", "2"):
        with pytest.raises(ValueError):
            CubeSet.from_strings([bad])


@given(st.lists(cubes(max_length=7), max_size=6))
def test_union_cover_is_the_prefix_reduced_union(cube_list):
    kept = CubeSet(union_cover(cube_list))
    assert kept.overlap(1 << 20) is None
    union = prefix_reduce(w for c in cube_list for w in cube_words(c))
    assert expansion(kept) == expansion(union)
    assert kept.measure() == union.measure()


@given(cubes(), st.data())
def test_meet_cover_is_the_part_sharp_cover_leaves_out(a, data):
    event = data.draw(st.lists(cubes(max_length=a[0]), max_size=5))
    inside = meet_cover(a, event)
    outside = sharp_cover([a], event)
    assert all(p[0] == a[0] for p in inside)
    assert CubeSet(inside + outside).overlap(1 << 20) is None
    assert {w for p in inside for w in cube_words(p)} == {
        w for w in cube_words(a) if any(in_cylinder(c, w) for c in event)
    }
    assert CubeSet(inside + outside).measure() == CubeSet([a]).measure()


def test_cover_budgets_count_visited_cubes(monkeypatch):
    # full # 0*1* visits full with 0*1*, then its pieces 1*** and 0*0*: four cubes
    with pytest.raises(BudgetExceededError):
        sharp_cover([(4, 0, 0)], [(4, 0b1010, 0b0010)], 3)
    assert len(sharp_cover([(4, 0, 0)], [(4, 0b1010, 0b0010)], 4)) == 2
    # 1 takes one of ten bits; *** # 1 then visits three cubes, nine bits
    monkeypatch.setattr(measure, "COVER_BITS", 10)
    assert CubeSet(union_cover([(1, 1, 1), (3, 0, 0)])).strings() == ["1", "0**"]
    monkeypatch.setattr(measure, "COVER_BITS", 9)
    with pytest.raises(BudgetExceededError):
        union_cover([(1, 1, 1), (3, 0, 0)])


def reference_sharp(a, b):
    """``a # b`` bit by bit, lowest bit first (Brayton et al., 1984)."""
    n, care, value = a
    m, b_care, b_value = b
    b_care, b_value = b_care << (n - m), b_value << (n - m)
    if care & b_care & (value ^ b_value):
        return [a]
    pieces, free = [], b_care & ~care
    while free:
        bit = free & -free
        pieces.append((n, care | bit, value | (bit & ~b_value)))
        care, value, free = care | bit, value | (bit & b_value), free ^ bit
    return pieces


@given(cubes(), st.data())
def test_sharp_cover_of_one_cube_sharps_one_removed_cube_at_a_time(a, data):
    """The same pieces in the same order as sharping by each removed cube in turn."""
    removed = data.draw(st.lists(cubes(max_length=a[0]), max_size=6))
    pieces = [a]
    for b in removed:
        pieces = [p for piece in pieces for p in reference_sharp(piece, b)]
    assert sharp_cover([a], removed) == pieces


def test_word_count_past_sys_maxsize():
    cover = CubeSet([(100, 1, 1)])
    assert cover.word_count == 1 << 99
    with pytest.raises(OverflowError):
        len(cover)
