"""Level-set enumerations certifying failures of k-recurrence, with exact
measure accounting.

Level 0 holds the empty word.  A word ``eta`` of length ``t`` enters level
``r`` at stage ``t`` when it properly extends a level ``r-1`` word ``sigma``
entered at stage ``s = len(sigma)`` with ``t > (k+1) s``, some shifted block
``eta[s*i:]`` extends a complement cube enumerated by stage ``t - s*i``, and
no prefix of ``eta`` has entered level ``r`` before.  Entries therefore have
length equal to their entry stage and every level is prefix-free, so a level
is kept as a disjoint cube cover, a :class:`~shiftrec.measure.CubeSet`: a
member's entry stage is its length ``t``, or for a grid shell word of length
``t**k`` the cube side ``t``.  The candidates of one parent cube and one
witnessing complement cube form a single cube; a stage's such cubes below
one parent are split into disjoint cubes and sharped by the parent's
earlier entries (:func:`~shiftrec.measure.sharp_cover`), so a level is
built, measured and written without listing its words.

The shifted-block condition is cylinder membership (the tail *extends* an
enumerated word); requiring the tail to *be* an enumerated word would leave
level 2 empty even for a single-word complement and break the capture
property, since stage-length normalization pins each enumerated cube to one
exact length.

When ``q = k * (measure of the enumerated complement)`` is below one, level
``r`` has measure at most ``q**r``.  Otherwise the complement is split into
a finite head ``D`` and a light tail; the escape sets ``G_m`` count how many
chain stages consumed a head cube, and the refined levels re-run the chain
on the tail alone, restoring a geometric measure decay.

The level loop also builds grid levels over shell words:
:class:`shiftrec.multidim.GridMLConstruction` overrides only the first
admissible stage, the block offset and where a witnessing block's bits sit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from fractions import Fraction

from .bitseq import Word
from .certificates import TestCertificate, new_certificate
from .dyadic import D_ONE, D_ZERO, Dyadic, half_power
from .errors import BudgetExceededError, InapplicableBoundError
from .measure import (
    Cube,
    CubeSet,
    StagedCoEnumeration,
    meet_cover,
    sharp_cover,
    split_tail,
    union_cover,
)

# Most consecutive nonempty levels counted for the escape sets.
_LEVEL_CAP = 64


class MLConstruction:
    """Stagewise enumeration of the level sets for one complement and k.

    ``candidate_budget`` caps the cubes of one build: the child cubes and
    sharp pieces of a level, the pieces the escape sets split the chain
    into, or the pieces of a refined level.
    """

    def __init__(
        self,
        coenum: StagedCoEnumeration,
        k: int,
        stage_max: int,
        candidate_budget: int = 1 << 22,
    ):
        if k < 1 or stage_max < 0:
            raise ValueError("need k >= 1 and stage_max >= 0")
        self.coenum = coenum
        self.k = k
        self.stage_max = stage_max
        self.candidate_budget = candidate_budget
        # k times the measure of the complement enumerated within the budget
        self.q = k * coenum.measure(stage_max)
        # a stage-t entry has length t**dimension
        self._stage_of_length = {t**coenum.dimension: t for t in range(stage_max + 1)}
        self._levels = [CubeSet([(0, 0, 0)])]
        self._children: list[dict[Cube, list[Cube]]] = []
        self._events: dict[tuple, list[Cube]] = {}

    def level(self, r: int) -> CubeSet:
        """Level r, truncated at the stage budget."""
        if r < 0:
            raise ValueError("level index must be nonnegative")
        while len(self._levels) <= r:
            self._children.append(self._build_level(self._levels[-1]))
            self._levels.append(CubeSet(chain.from_iterable(self._children[-1].values())))
        return self._levels[r]

    def children(self, r: int) -> dict[Cube, list[Cube]]:
        """Level r+1's cubes by their parent, each cube of level r; read only."""
        self.level(r + 1)
        return self._children[r]

    def _first_stage(self, s: int) -> int:
        """Earliest stage at which a child of a stage-s parent can enter."""
        return (self.k + 1) * s + 1

    def _offset(self, s: int, i: int) -> int:
        """Where the i-th shifted block of a stage-s parent starts."""
        return i * s

    def _tau_positions(self, s: int, i: int, t: int, tau_length: int) -> range:
        """Positions, in a stage-t word, of the bits of a witnessing cube tau."""
        start = self._offset(s, i)
        return range(start, start + tau_length)

    def _block_cube(self, s: int, i: int, length: int, tau: Cube) -> Cube | None:
        """The length-``length`` words whose i-th shifted block past a stage-s
        parent extends the cube tau, or None when that block does not fit in
        them: tau's fixed bits scattered to the block's positions.  Raises
        when the block reads a position of the parent."""
        m, care, value = tau
        at = self._tau_positions(s, i, self._stage_of_length[length], m)
        if max(at, default=-1) >= length:
            return None
        if min(at, default=length) < s**self.coenum.dimension:
            raise ValueError("a witnessing block overlaps its parent")
        bits = [(1 << (length - 1 - p), 1 << (m - 1 - j)) for j, p in enumerate(at)]
        return length, sum(w for w, b in bits if care & b), sum(w for w, b in bits if value & b)

    def block_event(self, parent_length: int, length: int, cubes: frozenset[Cube]) -> list[Cube]:
        """The length-``length`` words some shifted block of which, past a
        parent of ``parent_length``, extends one of ``cubes``: a union of
        cubes, built once per lengths and cube set; read only."""
        key = (parent_length, length, cubes)
        if key not in self._events:
            s = self._stage_of_length[parent_length]
            built = (
                self._block_cube(s, i, length, tau)
                for tau in sorted(cubes)
                for i in range(1, self.k + 1)
            )
            self._events[key] = [cube for cube in built if cube is not None]
        return self._events[key]

    def _build_level(self, parents: CubeSet) -> dict[Cube, list[Cube]]:
        # the parents of one length share a stage and are extended together
        groups: defaultdict[int, list] = defaultdict(list)
        for cube in parents.cubes:
            groups[cube[0]].append(cube)
        # A child lies in its parent's cylinder and the parents are disjoint,
        # so a child can meet only the cubes entered below its own parent.
        entered: dict[tuple, list] = {cube: [] for cube in parents.cubes}
        generated = 0  # child cubes built and pieces kept
        for t in range(1, self.stage_max + 1):
            length = t**self.coenum.dimension
            for n, group in sorted(groups.items()):
                s = self._stage_of_length[n]
                first_stage = self._first_stage(s)
                if t < first_stage:
                    continue
                pad = length - n
                blocks = []  # (care, value) of each witnessing word's bits
                for i in range(1, self.k + 1):
                    offset = self._offset(s, i)
                    if offset >= t:
                        continue
                    if t == first_stage:
                        # Earliest admissible stage: any already-enumerated
                        # cube can witness, padded with free bits.
                        taus = self.coenum.cumulative(t - offset)
                    else:
                        # Later stages only add cubes whose witnessing block
                        # ends exactly at t; shorter blocks were already
                        # minimal at an earlier admissible stage.
                        taus = self.coenum.newly(t - offset)
                    for tau in taus:
                        _, care, fixed = self._block_cube(s, i, length, tau)
                        blocks.append((care, fixed))
                if not blocks:
                    continue
                for parent in group:
                    # a child keeps its parent's bits, carries tau's bits at
                    # their positions and is free elsewhere; the stage's
                    # entries are the children outside every earlier entry
                    _, p_care, p_value = parent
                    children = [
                        (length, p_care << pad | care, p_value << pad | fixed)
                        for care, fixed in blocks
                    ]
                    pieces = sharp_cover(children, entered[parent])
                    generated += len(children) + len(pieces)
                    if generated > self.candidate_budget:
                        raise BudgetExceededError(f"level exceeded {self.candidate_budget} cubes")
                    entered[parent] += pieces
        return entered

    def levels_until_empty(self) -> int:
        """Number of consecutive nonempty levels reachable within the budget."""
        r = 0
        while r < _LEVEL_CAP and self.level(r):
            r += 1
        return r

    def level_certificate(self, r: int) -> TestCertificate:
        return self._level_certificate(r, {"k": self.k})

    def _level_certificate(self, r: int, parameters: dict) -> TestCertificate:
        q = self.q
        level = self.level(r)
        return new_certificate(
            kind="ml-Cr",
            parameters={**parameters, "r": r, "q": str(q)},
            words=level,
            exact_measure=level.measure(),
            required_bound=q**r if q < D_ONE else D_ONE,
            stage_budget=self.stage_max,
        )


def ml_enumerate_G(
    construction: MLConstruction, head: frozenset[Cube], head_max_len: int, m_max: int
) -> list[TestCertificate]:
    """Escape sets G_0 ... G_m_max: G_m holds the members of the union chain
    with at least m head hits.

    A hit is a chain stage ``s > head_max_len`` (the word's length-s prefix
    is itself a chain member) at which some block ``word[s*i : s*i+|d|]``
    matches a head cube ``d``.  The words of a level cube share their chain
    ancestors, so each cube is split, one ancestor length at a time, into
    the pieces inside and outside that length's hit event, and each piece
    counts its hits once.  G_m is the union cover of the pieces with at
    least m hits; its measure decays like ``(1 - v**k)**m`` where ``v`` is
    the measure outside the head's open set.

    The decay bound relies on the standing hypotheses of the construction:
    the complement enumeration is prefix-free, its cubes' cylinders pairwise
    disjoint (so a block cannot witness a head hit and a tail-only chain step
    at once), and does not exhaust the whole space.  Inputs violating either
    are rejected here rather than allowed to surface as spurious bound
    violations.
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    k, budget = construction.k, construction.candidate_budget
    enumerated = CubeSet(construction.coenum.cumulative(construction.stage_max))
    if enumerated.overlap(budget) is not None:
        raise ValueError("escape sets require a prefix-free complement enumeration")
    if construction.q >= k:  # q is k times the complement's measure
        raise ValueError("escape sets require a target of positive measure")
    head = frozenset(head)
    pieces: list[tuple[Cube, int]] = []  # the chain split by hit count
    # each cube of the current level, with its ancestors' lengths above head_max_len
    ancestry = {cube: () for cube in construction.level(0).cubes}
    levels = construction.levels_until_empty()
    for r in range(levels):
        deeper = {}
        for cube, lengths in ancestry.items():
            split = [(cube, 0)]
            for s in lengths:
                event = construction.block_event(s, cube[0], head)
                split = [
                    (piece, hits + 1) for part, hits in split for piece in meet_cover(part, event)
                ] + [(piece, hits) for part, hits in split for piece in sharp_cover([part], event)]
            pieces += split
            if len(pieces) > budget:
                raise BudgetExceededError(f"escape sets exceeded {budget} cubes")
            if r + 1 < levels:
                if cube[0] > head_max_len:
                    lengths += (cube[0],)
                deeper.update(dict.fromkeys(construction.children(r)[cube], lengths))
        ancestry = deeper
    decay = D_ONE - (D_ONE - CubeSet(union_cover(head)).measure()) ** k
    certs = []
    for m in range(m_max + 1):
        cover = CubeSet(union_cover(piece for piece, hits in pieces if hits >= m))
        certs.append(
            new_certificate(
                kind="ml-Gm",
                parameters={"k": k, "m": m, "head_max_len": head_max_len},
                words=cover,
                exact_measure=cover.measure(),
                required_bound=decay**m,
                stage_budget=construction.stage_max,
            )
        )
    return certs


def ml_escape_level(prefix: Word, g_certs: list[TestCertificate]) -> int | None:
    """Least m whose escape set contains no prefix of the given word."""
    for cert in sorted(g_certs, key=lambda c: c.parameters["m"]):
        if not cert.cover.covers(prefix):
            return cert.parameters["m"]
    return None


def ml_refined_levels(
    construction: MLConstruction,
    base_r: int,
    tail_coenum: StagedCoEnumeration,
    u_max: int,
) -> list[TestCertificate]:
    """Refined levels from ``base_r``: chain steps must be witnessed by the tail.

    The refined level at ``u = base_r`` is the plain level; below it, each
    level-u cube is cut down to the refined pieces of its parent and to the
    words some block of which, at the parent's length, extends a tail cube.
    Each step multiplies the measure bound by ``q = k * (tail measure)``, so
    the certificate for level u carries the bound ``q**(u - base_r)``.
    """
    if u_max < base_r:
        raise ValueError("u_max must be at least base_r")
    k = construction.k
    tail = tail_coenum.cumulative(construction.stage_max)
    q = k * tail_coenum.measure(construction.stage_max)
    if q >= D_ONE:
        raise InapplicableBoundError(f"tail is not light enough: q = {q}")

    certs: list[TestCertificate] = []
    budget = construction.candidate_budget
    # each cube of level u with its refined pieces, when it has some
    current = {cube: [cube] for cube in construction.level(base_r).cubes}
    for u in range(base_r, u_max + 1):
        if u > base_r:
            children, deeper, generated = construction.children(u - 1), {}, 0
            for parent, kept in current.items():
                for child in children[parent]:
                    event = construction.block_event(parent[0], child[0], tail)
                    refined = [p for part in meet_cover(child, kept) for p in meet_cover(part, event)]
                    generated += len(refined)
                    if generated > budget:
                        raise BudgetExceededError(f"refined level exceeded {budget} cubes")
                    if refined:
                        deeper[child] = refined
            current = deeper
        cover = CubeSet(chain.from_iterable(current.values()))  # a subset of level u
        certs.append(
            new_certificate(
                kind="ml-refined",
                parameters={"k": k, "u": u, "base_r": base_r, "q": str(q)},
                words=cover,
                exact_measure=cover.measure(),
                required_bound=q ** (u - base_r),
                stage_budget=construction.stage_max,
            )
        )
    return certs


@dataclass(frozen=True)
class RefinementLevel:
    j: int
    u: int
    cert: TestCertificate
    bound: Dyadic


def refinement_depth(q: Dyadic, j: int) -> int:
    """Least u with ``q**u <= 2**-j``; needs q < 1."""
    if q >= D_ONE:
        raise ValueError("refinement requires q < 1")
    u = 0
    while q**u > half_power(j):
        u += 1
    return u


def ml_test_refinement(
    refined_certs: list[TestCertificate], q: Dyadic
) -> list[RefinementLevel]:
    """Re-index refined levels so that level j has measure at most 2**-j.

    Level j uses the least u with ``q**u <= 2**-j``; levels beyond the
    deepest available refined certificate are omitted.  With ``q == 0``
    every level ``j >= 1`` uses u = 1, so the levels stop after j = 1.
    """
    if q >= D_ONE:
        raise ValueError("refinement requires q < 1")
    by_u = {c.parameters["u"]: c for c in refined_certs}
    max_u = max(by_u)
    levels: list[RefinementLevel] = []
    j = 0
    while True:
        u = refinement_depth(q, j)
        if u > max_u:
            break
        if u not in by_u:
            raise ValueError(f"refinement needs the level-{u} certificate")
        cert = by_u[u]
        if cert.exact_measure > half_power(j):
            raise InapplicableBoundError(
                f"refined level {u} has measure {cert.exact_measure} > 2^-{j}; "
                "re-run the refinement from base level 0"
            )
        levels.append(RefinementLevel(j, u, cert, half_power(j)))
        if q == D_ZERO and u == 1:
            break
        j += 1
    return levels


@dataclass
class MLRunResult:
    path: str  # "direct" or "split"
    q: Dyadic
    level_certs: list[TestCertificate]
    head: frozenset[Cube] | None = None
    head_max_len: int | None = None
    tail_q: Dyadic | None = None
    g_certs: list[TestCertificate] | None = None
    refined_certs: list[TestCertificate] | None = None
    refinement: list[RefinementLevel] | None = None

    def all_certificates(self) -> list[TestCertificate]:
        certs = list(self.level_certs)
        if self.g_certs:
            certs.extend(self.g_certs)
        if self.refined_certs:
            certs.extend(self.refined_certs)
        return certs


def ml_run(
    coenum: StagedCoEnumeration,
    k: int,
    stage_max: int,
    r_max: int,
    m_max: int | None = None,
    u_max: int | None = None,
) -> MLRunResult:
    """Level certificates plus, when the direct bound fails, the split path.

    The direct bound applies when ``q = k * (complement measure) < 1``.
    Otherwise the complement splits into a head D (chosen so the remaining
    tail has measure below 1/k), the escape sets G_m are produced, and the
    refined levels re-run the chain on the tail.
    """
    con = MLConstruction(coenum, k, stage_max)
    level_certs = [con.level_certificate(r) for r in range(r_max + 1)]
    q = con.q
    if q < D_ONE:
        return MLRunResult("direct", q, level_certs)
    head, split = split_tail(coenum, Fraction(1, k))
    head_max_len = max((cube[0] for cube in head), default=0)
    tail = coenum.after(split)
    g_certs = ml_enumerate_G(con, head, head_max_len, r_max if m_max is None else m_max)
    refined = ml_refined_levels(con, 0, tail, u_max if u_max is not None else r_max)
    tail_q = k * tail.measure(stage_max)
    return MLRunResult(
        "split",
        q,
        level_certs,
        head=head,
        head_max_len=head_max_len,
        tail_q=tail_q,
        g_certs=g_certs,
        refined_certs=refined,
        refinement=ml_test_refinement(refined, tail_q),
    )
