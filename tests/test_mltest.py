"""The level-set construction against a string-based stage simulator.

The oracle re-runs the definitions literally: at every stage it scans every
bit string of that length, checks the parent/shift-block conditions by
string slicing, and applies prefix minimality.  The production code builds
candidates constructively, so agreement is a real cross-check.
"""

from fractions import Fraction

import pytest

from shiftrec.bitseq import EMPTY_WORD, EventuallyPeriodicSource, Word
from shiftrec.dyadic import D_ONE, D_ZERO, Dyadic, half_power
from shiftrec.errors import BudgetExceededError
from shiftrec.measure import (
    CubeSet,
    StagedCoEnumeration,
    is_prefix_free,
    sharp_cover,
    split_tail,
)
from shiftrec.mltest import (
    refinement_depth,
    MLConstruction,
    ml_enumerate_G,
    ml_escape_level,
    ml_refined_levels,
    ml_run,
    ml_test_refinement,
)


def W(text):
    return Word.from_string(text)


def C(*texts):
    """The ``0/1/*`` cubes spelled by ``texts``."""
    return frozenset(CubeSet.from_strings(texts).cubes)


def extends(text: str, cube: str) -> bool:
    """``text`` starts with a word of the ``0/1/*`` cube."""
    return len(text) >= len(cube) and all(c in ("*", b) for b, c in zip(text, cube))


def level_words(con, r: int) -> set:
    """Level r expanded to its words."""
    return set(con.level(r).expand(1 << 24))


def stages_as_strings(coenum: StagedCoEnumeration) -> dict[int, set[str]]:
    return {t: set(CubeSet(coenum.newly(t)).strings()) for t in coenum.stages}


def oracle_levels(stages: dict[int, set[str]], k: int, r_max: int, stage_max: int):
    """Levels as dicts string -> entry stage, by literal stage simulation."""

    def cumulative(t):
        return {w for s, ws in stages.items() if s <= t for w in ws}

    levels = [{"": 0}]
    for _ in range(r_max):
        parents = levels[-1]
        entries: dict[str, int] = {}
        for t in range(1, stage_max + 1):
            new = set()
            for value in range(1 << t):
                eta = format(value, f"0{t}b")
                if any(eta[:l] in entries for l in range(t)):
                    continue
                satisfied = False
                for sigma, s in parents.items():
                    if t <= (k + 1) * s or not eta.startswith(sigma):
                        continue
                    for i in range(1, k + 1):
                        tail = eta[s * i :]
                        if any(extends(tail, b) for b in cumulative(t - s * i)):
                            satisfied = True
                            break
                    if satisfied:
                        break
                if satisfied:
                    new.add(eta)
            for eta in new:
                entries[eta] = t
        levels.append(entries)
    return levels


def oracle_escape_sets(levels, head: set[str], n_bound: int, k: int, m: int):
    union: dict[str, int] = {}
    for lev in levels:
        union.update(lev)
    qualifying = set()
    for eta in union:
        hits = 0
        for s in range(n_bound + 1, len(eta)):
            if eta[:s] not in union:
                continue
            if any(extends(eta[s * i :], d) for i in range(1, k + 1) for d in head):
                hits += 1
        if hits >= m:
            qualifying.add(eta)
    return {w for w in qualifying if not any(w[:j] in qualifying for j in range(len(w)))}


def oracle_refined_levels(levels, tail: set[str], k: int, base_r: int, u_max: int):
    """Refined levels base_r .. u_max as string sets: a level-u word stays
    when its parent is in refined level u-1 and some block at the parent's
    length extends a tail cube."""
    current = set(levels[base_r])
    refined = [current]
    for u in range(base_r + 1, u_max + 1):
        current = {
            eta
            for eta in levels[u]
            for sigma in current
            if eta.startswith(sigma)
            and any(extends(eta[len(sigma) * i :], d) for i in range(1, k + 1) for d in tail)
        }
        refined.append(current)
    return refined


def oracle_measure(words: set[str]) -> Fraction:
    """The measure of a prefix-free string set."""
    return sum((Fraction(1, 2 ** len(w)) for w in words), Fraction(0))


def cert_strings(cert) -> set[str]:
    return {str(w) for w in cert.cover.expand(1 << 20)}


def compare_levels(coenum, k, r_max, stage_max):
    con = MLConstruction(coenum, k, stage_max)
    oracle = oracle_levels(stages_as_strings(coenum), k, r_max, stage_max)
    for r in range(r_max + 1):
        got = {str(w): w.length for w in level_words(con, r)}  # a word enters at its length
        assert got == oracle[r], f"level {r} mismatch for k={k}"
    return con


B_SINGLE = StagedCoEnumeration({2: C("11")})
B_ZERO = StagedCoEnumeration({1: C("0")})
B_HEAVY = StagedCoEnumeration({1: C("0"), 2: C("11")})
B_TWO = StagedCoEnumeration({2: C("11"), 4: C("0000")})
B_THREE = StagedCoEnumeration({2: C("10"), 3: C("011"), 5: C("00100")})
B_P = StagedCoEnumeration.from_text("stage 1: 0\nstage 3: 111\nstage 6: 110110\n")
# disjoint cubes with free bits, as a clopen complement delivers them
B_STAR = StagedCoEnumeration({3: C("1*1"), 4: C("00*0", "011*")})

# (complement, k, stage budget) for the escape-set and refined-level oracles
SPLIT_CASES = (
    (B_HEAVY, 2, 12),
    (B_HEAVY, 3, 9),  # the hit event of a cube can be more than one piece
    (B_TWO, 1, 12),
    (B_TWO, 4, 12),
    (B_THREE, 2, 12),
    (B_THREE, 3, 12),
    (B_P, 1, 12),
    (B_P, 2, 12),
    (B_P, 3, 11),
    (B_STAR, 2, 12),
)


def test_levels_match_oracle_single_word():
    compare_levels(B_SINGLE, 2, 3, 10)


def test_levels_match_oracle_zero_complement():
    compare_levels(B_ZERO, 1, 3, 8)
    compare_levels(B_ZERO, 2, 3, 9)


def test_levels_match_oracle_heavy():
    compare_levels(B_HEAVY, 2, 3, 8)


def test_levels_match_oracle_two_stage():
    compare_levels(B_TWO, 1, 3, 9)


def test_levels_match_oracle_cubes():
    compare_levels(B_STAR, 1, 3, 9)
    compare_levels(B_STAR, 2, 2, 10)


def test_empty_complement_gives_empty_levels():
    con = MLConstruction(StagedCoEnumeration.empty(), 2, 10)
    assert level_words(con, 0) == {EMPTY_WORD}
    for r in (1, 2, 3):
        assert len(con.level(r)) == 0


def test_level_budget_charges_child_cubes_and_pieces(monkeypatch):
    """A level build charges one per child cube and one per piece that
    ``sharp_cover`` returns, not one per word."""
    import shiftrec.mltest as mltest

    coenum = StagedCoEnumeration.from_text("stage 2: 11\nstage 5: 00000\n")
    con = MLConstruction(coenum, 2, 22)
    con.level(1)
    charged = []

    def counting(children, entered):
        pieces = sharp_cover(children, entered)
        charged.append(len(children) + len(pieces))
        return pieces

    monkeypatch.setattr(mltest, "sharp_cover", counting)
    con.level(2)
    monkeypatch.undo()
    total = sum(charged)  # level 2 stands for 1,007 words
    assert total < len(con.level(2)) and 2 < len(charged)
    assert MLConstruction(coenum, 2, 22, candidate_budget=total).level(2) == con.level(2)
    with pytest.raises(BudgetExceededError):
        MLConstruction(coenum, 2, 22, candidate_budget=total - 1).level(2)


def test_level_zero_certificate():
    cert = MLConstruction(B_SINGLE, 2, 12).level_certificate(0)
    assert cert.words == (EMPTY_WORD,)
    assert cert.exact_measure == D_ONE


def test_single_word_level_values():
    con = MLConstruction(B_SINGLE, 2, 12)
    assert level_words(con, 1) == {W("11")}  # entered at stage 2
    assert len(con.level(2)) == 14
    assert {w.length for w in level_words(con, 2)} == {7}
    assert len(con.level(3)) == 0  # needs a stage above 21
    assert con.q == Dyadic(1, 1)


def test_stage_discipline_and_prefix_freeness():
    for coenum, k in ((B_SINGLE, 2), (B_HEAVY, 2), (B_TWO, 1)):
        con = MLConstruction(coenum, k, 10)
        for r in range(4):
            level = level_words(con, r)
            assert all(w.length <= 10 for w in level)
            # the cover is disjoint, so its expansion repeats no word
            assert con.level(r).overlap(1 << 20) is None
            assert len(level) == len(con.level(r))
            cert = con.level_certificate(r)
            assert is_prefix_free(cert.words)
            for w in level:
                if r > 0:
                    parents = [p for p in level_words(con, r - 1) if p.is_prefix_of(w)]
                    assert len(parents) == 1
                    assert w.length > (k + 1) * parents[0].length


def test_measure_bounds_direct_path():
    con = MLConstruction(B_SINGLE, 2, 12)
    q = con.q
    for r in range(4):
        cert = con.level_certificate(r)
        assert cert.exact_measure <= cert.required_bound == q**r
    assert con.level_certificate(1).exact_measure == Dyadic(1, 2)  # 1/4
    assert con.level_certificate(2).exact_measure == Dyadic(7, 6)  # 7/64


def test_measure_bound_inapplicable_when_q_big():
    """With q >= 1 a level promises only measure 1, so a run splits."""
    con = MLConstruction(B_HEAVY, 2, 8)
    assert con.q >= D_ONE
    assert con.level_certificate(1).required_bound == D_ONE
    assert ml_run(B_HEAVY, 2, 8, 1).path == "split"


def test_nesting_every_member_extends_previous_level():
    con = MLConstruction(B_ZERO, 1, 15)
    for r in range(1, 4):
        for w in level_words(con, r):
            assert any(p.is_prefix_of(w) for p in level_words(con, r - 1))


def test_non_recurrent_capture():
    # 0^infinity never recurs into "starts with 1"; every reachable level
    # holds one of its prefixes.
    zeros = EventuallyPeriodicSource(EMPTY_WORD, Word(0, 1))
    for k, stage_max in ((1, 15), (2, 15)):
        con = MLConstruction(B_ZERO, k, stage_max)
        r = 0
        while con.level(r):
            prefix = zeros.prefix(stage_max)
            assert any(w.is_prefix_of(prefix) for w in level_words(con, r)), (k, r)
            r += 1
        assert r >= 3


def test_escape_sets_match_oracle():
    head, split = split_tail(B_HEAVY, Fraction(1, 2))
    assert head == C("0") and split == 1
    for coenum, k, stage_max in SPLIT_CASES:
        con = MLConstruction(coenum, k, stage_max)
        levels = oracle_levels(stages_as_strings(coenum), k, con.levels_until_empty(), stage_max)
        # every head the stages cut off, the empty one included
        for t in (0, *coenum.stages):
            head = coenum.cumulative(t)
            n_bound = max((cube[0] for cube in head), default=0)
            for m, cert in enumerate(ml_enumerate_G(con, head, n_bound, 3)):
                expect = oracle_escape_sets(levels, CubeSet(head).strings(), n_bound, k, m)
                assert cert_strings(cert) == expect, (coenum, k, t, m)
                assert cert.exact_measure.as_fraction() == oracle_measure(expect)
    # Chains deep enough for two hits outgrow the literal level oracle; their
    # levels are the construction's, which the level tests check against it.
    for coenum, t in ((B_HEAVY, 1), (B_THREE, 2), (B_P, 1)):
        con = MLConstruction(coenum, 1, 16)
        levels = [{str(w): w.length for w in level_words(con, r)} for r in range(5)]
        head = coenum.cumulative(t)
        certs = ml_enumerate_G(con, head, t, 3)
        assert certs[2].exact_measure > D_ZERO
        for m, cert in enumerate(certs):
            expect = oracle_escape_sets(levels, CubeSet(head).strings(), t, 1, m)
            assert cert_strings(cert) == expect, (coenum, t, m)
            assert cert.exact_measure.as_fraction() == oracle_measure(expect)


def test_refined_levels_match_oracle():
    for coenum, k, stage_max in SPLIT_CASES:
        con = MLConstruction(coenum, k, stage_max)
        _, split = split_tail(coenum, Fraction(1, k))
        tail = coenum.after(split)
        tail_words = CubeSet(tail.cumulative(stage_max)).strings()
        levels = oracle_levels(stages_as_strings(coenum), k, 3, stage_max)
        for base_r in (0, 1):
            certs = ml_refined_levels(con, base_r, tail, 3)
            expect = oracle_refined_levels(levels, tail_words, k, base_r, 3)
            assert [c.parameters["u"] for c in certs] == list(range(base_r, 4))
            for cert, words in zip(certs, expect, strict=True):
                assert cert_strings(cert) == words, (coenum, k, base_r, cert.parameters["u"])
                assert cert.exact_measure.as_fraction() == oracle_measure(words)


def test_escape_and_refined_budgets_count_pieces():
    con = MLConstruction(B_P, 2, 12)
    head, n_bound = split_tail(B_P, Fraction(1, 2))
    tail = B_P.after(n_bound)
    certs = ml_enumerate_G(con, head, n_bound, 2)
    refined = ml_refined_levels(con, 0, tail, 2)
    assert certs[1].exact_measure > D_ZERO and len(refined[2].cover.cubes) > 1
    con.candidate_budget = 1  # the levels are built; the pieces are more
    with pytest.raises(BudgetExceededError):
        ml_enumerate_G(con, head, n_bound, 2)
    with pytest.raises(BudgetExceededError):
        ml_refined_levels(con, 0, tail, 2)


def test_escape_sets_reject_bad_hypotheses():
    # a non-prefix-free enumeration, and one that exhausts the whole space,
    # both void the decay estimate and are refused up front
    overlapping = StagedCoEnumeration({1: C("1"), 3: C("1*1")})
    con = MLConstruction(overlapping, 1, 8)
    with pytest.raises(ValueError):
        ml_enumerate_G(con, C("1"), 1, 1)
    full = StagedCoEnumeration({1: C("0", "1")})
    con = MLConstruction(full, 1, 8)
    with pytest.raises(ValueError):
        ml_enumerate_G(con, C("0"), 1, 1)


def test_escape_set_base_cases():
    con = MLConstruction(B_HEAVY, 2, 12)
    [cert0] = ml_enumerate_G(con, C("0"), 1, 0)
    assert cert0.words == (EMPTY_WORD,)
    empty_head = ml_enumerate_G(con, frozenset(), 0, 1)[1]
    assert empty_head.words == ()


def test_escape_decay():
    con = MLConstruction(B_HEAVY, 2, 12)
    head, n_bound = split_tail(B_HEAVY, Fraction(1, 2))
    v = D_ONE - CubeSet(head).measure()
    factor = D_ONE - v**2
    prev = None
    for m, cert in enumerate(ml_enumerate_G(con, head, n_bound, 3)):
        assert cert.exact_measure <= factor**m
        if prev is not None:
            assert cert.exact_measure <= factor * prev
        prev = cert.exact_measure


def test_escape_level_of_a_sequence():
    con = MLConstruction(B_HEAVY, 2, 12)
    head, n_bound = split_tail(B_HEAVY, Fraction(1, 2))
    certs = ml_enumerate_G(con, head, n_bound, 3)
    # G_0 = {empty word} contains a prefix of everything, so the level is >= 1
    for bits in ("000000000000", "110111111111", "101010101010"):
        level = ml_escape_level(W(bits), certs)
        assert level is None or level >= 1


def test_refined_levels_examples():
    con = MLConstruction(B_HEAVY, 2, 12)
    tail = B_HEAVY.after(1)
    certs = ml_refined_levels(con, 0, tail, 3)
    by_u = {c.parameters["u"]: c for c in certs}
    assert by_u[0].words == (EMPTY_WORD,)
    assert by_u[1].words == (W("11"),)
    assert by_u[1].exact_measure == Dyadic(1, 2)  # 1/4
    assert len(by_u[2].words) == 14
    assert by_u[2].exact_measure == Dyadic(7, 6)  # 7/64
    q = 2 * tail.measure()
    for u, cert in by_u.items():
        assert cert.exact_measure <= q**u


def test_refined_base_equals_plain_level():
    con = MLConstruction(B_SINGLE, 2, 12)
    certs = ml_refined_levels(con, 1, B_SINGLE, 2)
    assert set(certs[0].words) == level_words(con, 1)
    # removing nothing refines nothing
    full = ml_refined_levels(con, 0, B_SINGLE, 2)
    for cert, r in zip(full, range(3)):
        assert set(cert.words) == level_words(con, r)


def test_refined_nesting():
    con = MLConstruction(B_HEAVY, 2, 12)
    tail = B_HEAVY.after(1)
    certs = ml_refined_levels(con, 0, tail, 3)
    for prev, nxt in zip(certs, certs[1:]):
        for w in nxt.words:
            assert any(p.is_prefix_of(w) for p in prev.words)


def test_refinement_index_arithmetic():
    con = MLConstruction(B_HEAVY, 2, 12)
    tail = B_HEAVY.after(1)
    certs = ml_refined_levels(con, 0, tail, 3)
    levels = ml_test_refinement(certs, Dyadic(1, 1))
    assert [(lv.j, lv.u) for lv in levels] == [(0, 0), (1, 1), (2, 2), (3, 3)]
    for lv in levels:
        assert lv.cert.exact_measure <= half_power(lv.j)


def test_refinement_depth_arithmetic():
    # q = 1/2: depth j; q = 1/4: ceil(j/2), checked against 4**-u <= 2**-j
    for j in range(10):
        assert refinement_depth(Dyadic(1, 1), j) == j
        u = refinement_depth(Dyadic(1, 2), j)
        assert u == (j + 1) // 2
        assert Fraction(1, 4) ** u <= Fraction(1, 2) ** j
        if u:
            assert Fraction(1, 4) ** (u - 1) > Fraction(1, 2) ** j


def test_refinement_requires_small_q():
    con = MLConstruction(B_SINGLE, 2, 8)
    certs = ml_refined_levels(con, 0, B_SINGLE, 1)
    with pytest.raises(ValueError):
        ml_test_refinement(certs, D_ONE)


def test_ml_run_direct():
    result = ml_run(B_SINGLE, 2, 12, 3)
    assert result.path == "direct"
    assert result.q == Dyadic(1, 1)
    assert len(result.level_certs) == 4
    assert result.g_certs is None


def test_ml_run_split():
    result = ml_run(B_HEAVY, 2, 12, 3)
    assert result.path == "split"
    assert result.head == C("0")
    assert result.tail_q == Dyadic(1, 1)
    assert all(c.passes for c in result.all_certificates())
    assert result.refinement is not None


def test_truncation_monotone_in_stage_budget():
    deep = MLConstruction(B_SINGLE, 2, 12)
    shallow = MLConstruction(B_SINGLE, 2, 6)
    for r in range(3):
        assert level_words(shallow, r) <= level_words(deep, r)
