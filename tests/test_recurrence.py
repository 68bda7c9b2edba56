import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shiftrec import recurrence
from shiftrec.bitseq import (
    EventuallyPeriodicSource,
    ExplicitPrefixSource,
    FileSource,
    PseudorandomSource,
    Word,
)
from shiftrec.errors import InsufficientDataError
from shiftrec.measure import ClopenSet, CubeSet, StagedCoEnumeration
from shiftrec.recurrence import (
    Pi01Target,
    RecurrenceQuery,
    batch_statistics,
    find_witness,
    is_witness,
    least_witness,
)


def W(text):
    return Word.from_string(text)


def C(*texts):
    """The ``0/1/*`` cubes spelled by ``texts``."""
    return CubeSet.from_strings(texts).cubes


def constant_source(bit):
    return EventuallyPeriodicSource(Word(0, 0), Word(bit, 1))


P_ONES = ClopenSet(1, {W("1")})
P_ZERO = ClopenSet(1, {W("0")})
P_FULL = ClopenSet(1, {W("0"), W("1")})


def naive_least_witness(source, target, k, n_max):
    """Exhaustive scan oracle, written against raw bits."""
    if isinstance(target, ClopenSet):
        length = target.granularity
    else:
        length = target.stage_budget
    for n in range(1, n_max + 1):
        if all(
            target.contains_word(source.window(i * n, length)) for i in range(1, k + 1)
        ):
            return n
    return None


def test_is_witness_examples():
    ones = constant_source(1)
    assert is_witness(ones, P_ONES, 3, 1)
    tail = ExplicitPrefixSource(W("0111"), 1)
    assert not is_witness(tail, P_ZERO, 1, 1)


def test_is_witness_bit_lookup():
    # direct bit-lookup oracle: positions 4 and 8 of 010010001...
    z = ExplicitPrefixSource(W("010010001"), 0)
    expected = z.bit(4) == 1 and z.bit(8) == 1
    assert is_witness(z, P_ONES, 2, 4) == expected
    assert expected  # both positions carry a 1


def test_is_witness_validation():
    with pytest.raises(ValueError):
        is_witness(constant_source(1), P_ONES, 1, 0)
    with pytest.raises(ValueError):
        is_witness(constant_source(1), P_ONES, 0, 1)


def test_find_witness_full_space():
    report = find_witness(RecurrenceQuery(PseudorandomSource(3), P_FULL, 2, 10))
    assert report.witness == 1


def test_find_witness_absent():
    report = find_witness(RecurrenceQuery(constant_source(0), P_ONES, 1, 500))
    assert report.witness is None
    assert report.checked_range == 500


def test_find_witness_matches_exhaustive_oracle():
    target = ClopenSet(2, {W("11")})
    for seed in range(25):
        src = PseudorandomSource(seed)
        got = find_witness(RecurrenceQuery(src, target, 2, 64)).witness
        assert got == naive_least_witness(src, target, 2, 64)


def test_witness_evidence_rechecks():
    target = ClopenSet(2, {W("11")})
    src = PseudorandomSource(11)
    report = find_witness(RecurrenceQuery(src, target, 2, 64))
    assert report.witness is not None
    # the evidence is the k blocks of the reported witness, and only those
    assert [(c.i, c.offset) for c in report.checks] == [(i, i * report.witness) for i in (1, 2)]
    for check in report.checks:
        assert check.in_target
        assert src.window(check.offset, 2) == check.block
        assert target.contains_word(check.block)


def test_minimality():
    target = ClopenSet(1, {W("1")})
    for seed in range(20):
        src = PseudorandomSource(seed)
        n = find_witness(RecurrenceQuery(src, target, 2, 64)).witness
        if n is not None:
            for smaller in range(1, n):
                assert not is_witness(src, target, 2, smaller)


def test_monotone_in_target():
    small = ClopenSet(2, {W("11")})
    large = ClopenSet(2, {W("11"), W("01")})
    for seed in range(20):
        src = PseudorandomSource(seed)
        n = find_witness(RecurrenceQuery(src, small, 2, 32)).witness
        if n is not None:
            assert is_witness(src, large, 2, n)


def test_profile_examples():
    """The least witness for each k = 1..k_max."""

    def profile(source, k_max, n_max):
        return [least_witness(source, P_ONES, k, n_max) for k in range(1, k_max + 1)]

    assert profile(constant_source(1), 4, 10) == [1, 1, 1, 1]
    assert profile(EventuallyPeriodicSource.from_strings("", "10"), 2, 10) == [2, 2]
    assert profile(constant_source(0), 3, 100) == [None, None, None]


def test_pi01_target_membership_and_antimonotonicity():
    coenum = StagedCoEnumeration({1: C("1"), 3: C("001")})
    src = EventuallyPeriodicSource.from_strings("", "001")
    # verdicts can only flip to negative as the stage budget grows
    for n in range(1, 20):
        for k in (1, 2):
            roomy = is_witness(src, Pi01Target(coenum, 1), k, n)
            tight = is_witness(src, Pi01Target(coenum, 3), k, n)
            assert roomy or not tight


def test_pi01_find_witness():
    # complement enumerates every word starting 1, so the target is "starts 0..."
    coenum = StagedCoEnumeration({1: C("1")})
    target = Pi01Target(coenum, 4)
    src = ExplicitPrefixSource(W("110"), 0)
    assert find_witness(RecurrenceQuery(src, target, 1, 10)).witness == 2


def test_batch_statistics_full_space():
    summary = batch_statistics(range(10), P_FULL, 2, 10)
    assert summary.fraction_with_witness == 1
    assert set(summary.histogram()) == {1}


def test_batch_statistics_deterministic():
    a = batch_statistics([7, 7, 7], P_ONES, 2, 50)
    b = batch_statistics([7, 7, 7], P_ONES, 2, 50)
    assert a == b
    assert len({w for _, w in a.rows}) == 1


def test_batch_statistics_hit_rate_near_p_to_k():
    # Monte-Carlo vs the exact per-step rate p**k = 1/4: the first-step hit
    # count over 1000 seeds is Binomial(1000, 1/4); 4 sigma ~ 0.055.
    summary = batch_statistics(range(1000), P_ONES, 2, 50)
    first = summary.histogram().get(1, 0) / 1000
    assert abs(first - 0.25) < 0.055
    assert summary.fraction_with_witness == 1


def test_batch_statistics_rejects_empty():
    with pytest.raises(ValueError):
        batch_statistics([], P_ONES, 1, 10)


def test_csv_rows_fixed_columns():
    summary = batch_statistics([1, 2], P_ONES, 2, 50)
    rows = summary.to_csv_rows()
    assert rows[0] == "seed,k,n_max,witness"
    assert rows[1].startswith("1,2,50,")


def test_least_witness_validation():
    """The same checks as RecurrenceQuery: k >= 1 and n_max >= 1."""
    for k, n_max in ((0, 10), (1, 0), (-1, 5)):
        with pytest.raises(ValueError, match="k and n_max must be positive integers"):
            least_witness(constant_source(1), P_ONES, k, n_max)


@st.composite
def stage_sets(draw):
    """A co-enumeration's stages: a few cubes of length t at stage t, some
    fully fixed and some with free bits."""
    stages = {}
    for t in draw(st.sets(st.integers(1, 6), max_size=3)):
        full = (1 << t) - 1
        cares = draw(st.lists(st.one_of(st.just(full), st.integers(0, full)), max_size=3))
        stages[t] = {(t, care, draw(st.integers(0, full)) & care) for care in cares}
    return stages


@given(stage_sets(), st.integers(0, 8), st.data())
def test_pi01_contains_value_matches_contains_word(stages, budget, data):
    target = Pi01Target(StagedCoEnumeration(stages), budget)
    value = data.draw(st.integers(0, (1 << budget) - 1))
    assert target.contains_value(value) == target.contains_word(Word(value, budget))


@st.composite
def clopen_targets(draw):
    g = draw(st.integers(1, 3))
    values = draw(st.sets(st.integers(0, (1 << g) - 1), min_size=1))
    return ClopenSet(g, {Word(v, g) for v in values})


@given(
    st.integers(0, 2**63),
    st.one_of(clopen_targets(), stage_sets().map(lambda s: Pi01Target(StagedCoEnumeration(s), 4))),
    st.integers(1, 4),
    st.integers(1, 40),
)
def test_least_witness_is_the_first_is_witness(seed, target, k, n_max):
    src = PseudorandomSource(seed)
    brute = next((n for n in range(1, n_max + 1) if is_witness(src, target, k, n)), None)
    assert least_witness(src, target, k, n_max) == brute
    if isinstance(target, ClopenSet):
        # the same scan read from raw bits and the target's bit strings
        members = {str(w) for w in target.words}
        g = target.granularity
        raw = next(
            (
                n
                for n in range(1, n_max + 1)
                if all(
                    "".join(str(src.bit(i * n + j)) for j in range(g)) in members
                    for i in range(1, k + 1)
                )
            ),
            None,
        )
        assert brute == raw


# --- the membership bitmap against a literal per-window oracle -----------------


def _random_clopen(rng, g):
    top = 1 << g
    shape = rng.randrange(4)
    if shape == 0:  # all but one word
        values = set(range(top)) - {rng.randrange(top)}
    elif shape == 1:  # sparse, so that witnesses are late or missing
        values = set(rng.sample(range(top), rng.randint(0, min(3, top))))
    else:
        values = set(rng.sample(range(top), rng.randint(0, top)))
    return ClopenSet(g, {Word(v, g) for v in values})


def _random_pi01(rng):
    """Stages of one to three cubes, half of them with free bits."""
    stages = {}
    for t in rng.sample(range(1, 9), rng.randint(0, 3)):
        cares = [rng.choice(((1 << t) - 1, rng.getrandbits(t))) for _ in range(rng.randint(1, 3))]
        stages[t] = {(t, care, rng.getrandbits(t) & care) for care in cares}
    return Pi01Target(StagedCoEnumeration(stages), rng.randint(0, 12))


def _random_source(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return PseudorandomSource(rng.getrandbits(64))
    if kind == 1:
        head = Word(rng.getrandbits(5), rng.randint(0, 5))
        return EventuallyPeriodicSource(head, Word(rng.getrandbits(7), rng.randint(1, 7)))
    return ExplicitPrefixSource(Word(rng.getrandbits(150), rng.randint(0, 150)), rng.randint(0, 1))


def _edge_n_max(rng, k, g):
    """An n_max whose last window ends next to a chunk edge of 64 to 512 bits."""
    edge = rng.choice((64, 128, 256, 512))
    return max(1, (edge - g) // k + rng.randint(-1, 1))


def test_least_witness_matches_the_literal_window_oracle():
    """Clopen targets of 1 to 10 bits (all-but-one, sparse and dense) and
    effectively closed ones, k = 1..5, windows ending at or just past the
    64-, 128-, 256- and 512-bit chunk edges, on pseudorandom, eventually
    periodic and explicit sources: the bitmap scan finds the least n that
    reading each window and testing its word finds."""
    rng = random.Random(17)
    found = missed = 0
    for trial in range(240):
        target = _random_clopen(rng, rng.randint(1, 10)) if trial % 3 else _random_pi01(rng)
        source = _random_source(rng)
        k = rng.randint(1, 5)
        n_max = _edge_n_max(rng, k, target.granularity)
        expected = naive_least_witness(source, target, k, n_max)
        assert least_witness(source, target, k, n_max) == expected, (trial, target, k, n_max)
        found += expected is not None
        missed += expected is None
    assert found > 60 and missed > 30


def test_batch_statistics_matches_the_literal_window_oracle(monkeypatch):
    """The batch tests its seeds' first chunks together, five seeds to a
    group here; every row is the literal oracle's least witness, also when
    n_max stops inside the first chunk and when no window fits in it."""
    monkeypatch.setattr(recurrence, "_BATCH_GROUP", 5)
    rng = random.Random(29)
    seeds = [rng.getrandbits(63) for _ in range(23)]
    far = StagedCoEnumeration({3: C("111"), 7: C("0000000")})
    cases = [
        (P_ONES, 4, 70),
        (_random_clopen(rng, 8), 3, 200),
        (_random_clopen(rng, 10), 2, 9),
        (ClopenSet(2, {W("11")}), 5, 3),
        (Pi01Target(far, 12), 2, 150),
        (P_ONES, 4, 32),  # one candidate past the first chunk's 31
        (Pi01Target(far, 130), 1, 20),  # a window longer than the first chunk
        (Pi01Target(far, 130), 1, 1),
    ]
    for target, k, n_max in cases:
        rows = batch_statistics(seeds, target, k, n_max).rows
        expected = [
            (seed, naive_least_witness(PseudorandomSource(seed), target, k, n_max))
            for seed in seeds
        ]
        assert list(rows) == expected, (target, k, n_max)


def _window_scan(source, target, k, n_max):
    """The least witness, reading the windows of each candidate in order
    and stopping at the first window outside the target."""
    for n in range(1, n_max + 1):
        if all(
            target.contains_word(source.window(i * n, target.granularity))
            for i in range(1, k + 1)
        ):
            return n
    return None


def _outcome(scan, *args):
    try:
        return scan(*args)
    except InsufficientDataError as exc:
        return str(exc)


def test_a_short_file_raises_where_the_window_scan_does():
    """On a file too short for every candidate, the bitmap covers the
    candidates whose windows fit, and the rest are read window by window:
    the result, or the index that ran past the file's end, is the window
    scan's."""
    rng = random.Random(5)
    raised = 0
    for trial in range(120):
        data = bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 24)))
        source = FileSource.from_bytes(data)
        target = _random_clopen(rng, rng.randint(2, 6))
        k = rng.randint(2, 5)
        n_max = rng.randint(1, 100)
        expected = _outcome(_window_scan, source, target, k, n_max)
        assert _outcome(least_witness, source, target, k, n_max) == expected, trial
        raised += isinstance(expected, str)
    assert 20 < raised < 100
