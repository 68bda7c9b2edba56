import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftrec.bitseq import (
    EMPTY_WORD,
    EventuallyPeriodicSource,
    ExplicitPrefixSource,
    PseudorandomSource,
    Word,
)
from shiftrec.dyadic import D_ONE, D_ZERO, Dyadic
from shiftrec.errors import BoundViolationError, BudgetExceededError
from shiftrec.kurtz import (
    KurtzSchedule,
    _word_cubes,
    kurtz_capture,
    kurtz_stage_set,
    survivor_cover,
)
from shiftrec.measure import ClopenSet, CubeSet, measure_open


def W(text):
    return Word.from_string(text)


P_ONES = ClopenSet(1, {W("1")})


def oracle_survivors(members: set[str], n0: int, k: int, t: int) -> tuple[int, int]:
    """String-based stage simulation over every word of the bounding length."""
    length = k * n0 * (k + 1) ** t + n0
    count = 0
    for value in range(1 << length):
        w = format(value, f"0{length}b")
        alive = True
        for u in range(t + 1):
            nu = n0 * (k + 1) ** u
            if all(w[i * nu : i * nu + n0] in members for i in range(1, k + 1)):
                alive = False
                break
        if alive:
            count += 1
    return count, length


def test_schedule_geometry():
    sched = KurtzSchedule(2, 3)
    assert [sched.time(t) for t in range(3)] == [2, 8, 32]
    for t in range(4):
        assert sched.time(t + 1) == (sched.k + 1) * sched.time(t)
        assert sched.blocks_disjoint_through(t)


def test_stage_set_full_target():
    cert = kurtz_stage_set(ClopenSet(1, {Word(0, 1), Word(1, 1)}), 2, 1)
    assert cert.exact_measure == D_ZERO
    assert len(cert.words) == 0


def test_stage_zero_measure():
    cert = kurtz_stage_set(P_ONES, 2, 0)
    assert cert.exact_measure == Dyadic(3, 2)  # 1 - (1/2)^2


def test_stage_one_exhaustive_count():
    cert = kurtz_stage_set(P_ONES, 2, 1)
    assert cert.exact_measure == Dyadic(9, 4)
    assert len(cert.words) == 72 and cert.words[0].length == 7
    count, length = oracle_survivors({"1"}, 1, 2, 1)
    assert (count, length) == (72, 7)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 2),
    st.integers(1, 2),
    st.integers(0, 1),
    st.integers(0, 15),
)
def test_measure_identity_matches_oracle(n0, k, t, mask):
    members = {w for w in range(1 << n0) if (mask >> w) & 1}
    target = ClopenSet(n0, {Word(w, n0) for w in members})
    cert = kurtz_stage_set(target, k, t)
    expected = (D_ONE - target.measure() ** k) ** (t + 1)
    assert cert.exact_measure == expected
    strings = {format(w, f"0{n0}b") for w in members}
    count, length = oracle_survivors(strings, n0, k, t)
    assert cert.exact_measure == Dyadic(count, length)
    # the survivors stand for up to 2^14 words, listed as cubes above 4,096
    assert measure_open(cert.cover.expand(1 << 14)) == cert.exact_measure


@st.composite
def block_layouts(draw):
    """A word length, stages of blocks of one size reading distinct positions in
    any order (blocks may overlap, and some positions may go unread), and the
    member values of that block size."""
    length = draw(st.integers(1, 10))
    size = draw(st.integers(1, min(3, length)))
    block = st.lists(st.integers(0, length - 1), min_size=size, max_size=size, unique=True)
    stages = draw(st.lists(st.lists(block, min_size=1, max_size=3), min_size=1, max_size=3))
    members = draw(st.sets(st.integers(0, (1 << size) - 1)))
    return length, stages, members


@settings(max_examples=60, deadline=None)
@given(block_layouts())
def test_survivor_values_match_brute_force(layout):
    length, stages, members = layout
    survivors = set()
    for value in range(1 << length):
        bits = format(value, f"0{length}b")
        if all(
            any(int("".join(bits[p] for p in block), 2) not in members for block in blocks)
            for blocks in stages
        ):
            survivors.add(value)
    formula = Dyadic(len(survivors), length)
    size = len(stages[0][0])
    target = ClopenSet(size, (Word(m, size) for m in members))
    # the stages are read once, as the grid survivor count passes them
    once = ((block for block in blocks) for blocks in stages)
    words = survivor_cover(length, once, target, formula).expand(1 << length)
    assert len(words) == len(survivors) and {w.value for w in words} == survivors
    with pytest.raises(BoundViolationError):
        survivor_cover(length, stages, target, Dyadic(len(survivors) + 1, length))


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        kurtz_stage_set(P_ONES, 2, 9)


@given(st.integers(1, 8), st.data())
def test_word_cubes_cover_exactly_the_words(bits, data):
    values = data.draw(st.sets(st.integers(0, (1 << bits) - 1)))
    cover = CubeSet((bits, care, value) for care, value in _word_cubes(values, bits))
    assert cover.overlap(1 << 20) is None
    assert sorted(w.value for w in cover.expand(1 << bits)) == sorted(values)


def test_many_word_targets_take_few_cubes_or_stop_early():
    """All 12-bit words but one are 12 cubes; 8-bit parity takes 128 cubes,
    so two blocks at two stages would take over 2^24 bits of cubes."""
    assert len(_word_cubes(set(range(1, 1 << 12)), 12)) == 12
    all_but_one = ClopenSet(12, (Word(v, 12) for v in range(1, 1 << 12)))
    assert kurtz_stage_set(all_but_one, 2, 1).exact_measure == Dyadic((2**13 - 1) ** 2, 48)
    odd = ClopenSet(8, (Word(v, 8) for v in range(1 << 8) if v.bit_count() % 2))
    assert len(_word_cubes({w.value for w in odd.words}, 8)) == 128
    assert kurtz_stage_set(odd, 2, 0).cover.measure() == Dyadic(3, 2)
    with pytest.raises(BudgetExceededError):
        kurtz_stage_set(odd, 2, 1)


def test_capture_examples():
    zeros = EventuallyPeriodicSource(EMPTY_WORD, Word(0, 1))
    for t_max in range(5):
        assert kurtz_capture(zeros, P_ONES, 1, t_max) == (True, None)
    ones = EventuallyPeriodicSource(EMPTY_WORD, Word(1, 1))
    assert kurtz_capture(ones, P_ONES, 1, 4) == (False, 0)


def test_capture_matches_bit_lookup():
    # escape stage = first scheduled time with all examined bits inside the target
    target = P_ONES
    for seed in range(30):
        src = PseudorandomSource(seed)
        captured, stage = kurtz_capture(src, target, 2, 6)
        schedule = KurtzSchedule(1, 2)
        oracle_stage = None
        for t in range(7):
            nt = schedule.time(t)
            if src.bit(nt) == 1 and src.bit(2 * nt) == 1:
                oracle_stage = t
                break
        assert (captured, stage) == (oracle_stage is None, oracle_stage)


def test_witness_at_scheduled_time_forces_escape():
    # capture soundness: a scheduled witness is exactly an escape
    schedule = KurtzSchedule(1, 1)
    for value in range(1 << 12):
        src = ExplicitPrefixSource(Word(value, 12), 0)
        captured, stage = kurtz_capture(src, P_ONES, 1, 5)
        scheduled_hits = [
            t for t in range(6) if src.bit(schedule.time(t)) == 1
        ]
        if scheduled_hits:
            assert not captured and stage == scheduled_hits[0]
        else:
            assert captured


def test_survivor_membership_consistency():
    # a sequence is captured through stage t iff its prefix is a stage-t survivor
    cert = kurtz_stage_set(P_ONES, 2, 1)
    survivors = set(cert.words)
    for value in range(1 << 7):
        src = ExplicitPrefixSource(Word(value, 7), 0)
        captured, _ = kurtz_capture(src, P_ONES, 2, 1)
        assert captured == (Word(value, 7) in survivors)


def test_overlapping_blocks_raise_even_under_optimization(monkeypatch):
    # an explicit check, not an assert, so `python -O` cannot strip it
    monkeypatch.setattr(KurtzSchedule, "blocks_disjoint_through", lambda self, t: False)
    with pytest.raises(BoundViolationError):
        kurtz_stage_set(P_ONES, 2, 0)
