"""Exact uniform measures of open sets given by word sets and cube covers.

An open set is presented by the words whose cylinders it unions, and held
as a :class:`CubeSet`: pairwise disjoint ``0/1/*`` cubes, which stand for
exponentially many words each.  Prefix reduction turns words into such a
cover, one fully cared cube per prefix-minimal word, so every measure here
is an exact dyadic sum of powers of two.  Effectively closed sets are kept
as staged co-enumerations of their complements, the convention being that
a cube delivered at stage ``t`` has length exactly ``t``; a clopen set's
complement is the cover of its gap words, at most ``granularity`` cubes per
member, so nothing here lists the ``2**granularity`` words of a length.

Grid samples of dimension ``k`` are words too: a size-``n`` cube is read in
shell order (see :mod:`shiftrec.multidim`), which makes it a word of length
``n**k`` whose first ``m**k`` bits are its size-``m`` sub-cube.  Everything
here therefore serves grids unchanged.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

from .bitseq import Word, words_from_strings
from .dyadic import D_ZERO, Dyadic
from .errors import BudgetExceededError, NoCertificateError

_WordIter = Iterable[Word]


def is_prefix_free(words: _WordIter) -> bool:
    """No member is a proper prefix of another: reduction keeps every word."""
    pool = frozenset(words)
    return len(prefix_reduce(pool).cubes) == len(pool)


def prefix_reduce(words: _WordIter) -> "CubeSet":
    """Keep exactly the prefix-minimal members, one fully cared cube each;
    the open set is unchanged, and the cover's ``len`` is the kept words'
    number.

    The words' values are bucketed by length once.  Shortest first, a
    bucket keeps the values that no kept word is a prefix of.
    """
    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for value, length in frozenset(words):
        buckets[length].append(value)
    kept: dict[int, set[int]] = {}
    for length, values in sorted(buckets.items()):
        for shorter, prefixes in kept.items():
            if values:
                values = [v for v in values if v >> (length - shorter) not in prefixes]
        if values:
            kept[length] = set(values)
    return CubeSet(
        (length, (1 << length) - 1, v) for length, values in kept.items() for v in values
    )


def measure_open(words: _WordIter) -> Dyadic:
    """Uniform measure of the open set generated by ``words``, exactly."""
    return prefix_reduce(words).measure()


# A cube is ``(length, care, value)``: the bits set in ``care`` are fixed to
# those of ``value`` (zero elsewhere), the others are free; bit 0 is the
# leftmost bit, as for words.
Cube = tuple[int, int, int]


def sharp(a: Cube, b: Cube) -> list[Cube]:
    """``a # b``: pairwise disjoint cubes of ``a``'s length covering exactly
    the words of ``a`` outside the cylinder of ``b``, which is no longer."""
    if b[0] > a[0]:
        raise ValueError(f"cannot sharp a length-{a[0]} cube by a length-{b[0]} cube")
    return sharp_cover([a], [b])


def _leaves(cubes: list, removed: list, length: int, budget: int | None = None) -> Iterator:
    """Split cubes of one length on their bits into groups whose cubes all meet.

    ``cubes`` and ``removed`` hold ``(care, value, ...)`` tuples of cubes of
    ``length`` bits.  Yields ``(care, value, group, removed)`` per leaf: the
    bits split on and their values, the cubes that agree with them, and the
    removed cubes that do.  The group's first cube fixes no bit that is
    left unsplit and that some cube of the group fixes differently, so that
    cube, fixed on the split bits too, holds every word of the group below
    the split and meets each of its cubes.  Each split is on a bit of the
    largest cube, which is therefore never copied; distinct words cost about
    their number times the depth at which they branch.  Raises
    BudgetExceededError once more than ``budget`` cubes have been visited.
    """
    visits = 0
    stack = [(0, 0, (1 << length) - 1, cubes, removed)]
    while stack:
        care, value, rest, group, others = stack.pop()
        visits += len(group)
        if budget is not None and visits > budget:
            raise BudgetExceededError(f"splitting {len(cubes)} cubes takes over {budget} steps")
        if len(group) == 1:
            yield care, value, group, others
            continue
        alike, differ, first = rest, 0, group[0][1]
        for cube in group:
            alike &= cube[0]
            differ |= cube[1] ^ first
        # a bit that every cube fixes alike never separates two of them
        rest &= ~(alike & ~differ)
        # splitting on the bits of the largest cube never copies it
        big = min(group, key=lambda cube: (cube[0] & rest).bit_count())
        split = big[0] & rest
        if split:
            bit = 1 << (split.bit_length() - 1)
            for side in (0, bit):
                sub = [c for c in group if not c[0] & bit or c[1] & bit == side]
                if sub:
                    kept = [c for c in others if not c[0] & bit or c[1] & bit == side]
                    stack.append((care | bit, value | side, rest ^ bit, sub, kept))
            continue
        yield care, value, [big, *(cube for cube in group if cube is not big)], others


def sharp_cover(
    cubes: Iterable[Cube], removed: Iterable[Cube], budget: int | None = None
) -> list[Cube]:
    """The words matched by some of ``cubes``, all of one length, and in no
    cylinder of ``removed``, whose cubes are no longer: as pairwise disjoint
    cubes of that length.

    The cubes are split on their bits (see :func:`_leaves`) until each
    group is contained in one of its members, and that member, fixed on the
    split bits, is sharped by the removed cubes that agree with them, one
    at a time.  Each piece carries on only the removed cubes that meet it,
    so a removed cube that misses a piece costs nothing below it.  Raises
    BudgetExceededError once splitting, or sharping, visits more than
    ``budget`` cubes; sharping visits each piece and the removed cubes that
    meet it.
    """
    cubes = list(cubes)
    if not cubes:
        return []
    n = cubes[0][0]
    padded = [(care << (n - m), value << (n - m)) for m, care, value in removed]
    pieces, visits = [], 0
    for care, value, group, others in _leaves([c[1:] for c in cubes], padded, n, budget):
        care, value = group[0][0] | care, group[0][1] | value
        parts = [(care, value, [o for o in others if not care & o[0] & (value ^ o[1])])]
        while parts:
            care, value, others = parts.pop()
            visits += 1 + len(others)
            if budget is not None and visits > budget:
                raise BudgetExceededError(f"a sharp visits over {budget} cubes of {n} bits")
            if not others:
                pieces.append((n, care, value))
                continue
            (b_care, b_value), *others = others
            # part # b: a piece per bit b fixes and the part leaves free (Brayton
            # et al., *Logic Minimization Algorithms for VLSI Synthesis*, 1984),
            # agreeing with b before it; popped in order, as one sharp at a time
            kids, free = [], b_care & ~care
            while free:
                bit = free & -free
                meet = [o for o in others if not o[0] & bit or (o[1] ^ b_value) & bit]
                kids.append((care | bit, value | (bit & ~b_value), meet))
                care, value, free = care | bit, value | (bit & b_value), free ^ bit
                others = [o for o in others if not o[0] & bit or not (o[1] ^ b_value) & bit]
            parts += reversed(kids)
    return pieces


def meet_cover(cube: Cube, cubes: Iterable[Cube]) -> list[Cube]:
    """The words of ``cube`` inside some cylinder of ``cubes``, which are no
    longer, as pairwise disjoint cubes of its length: the part of ``cube``
    that ``sharp_cover([cube], cubes)`` leaves out."""
    n, care, value = cube
    meets = []
    for m, c_care, c_value in cubes:
        c_care, c_value = c_care << (n - m), c_value << (n - m)
        if not care & c_care & (value ^ c_value):
            meets.append((n, care | c_care, value | c_value))
    return sharp_cover(meets, [])


# Most bits the sharps that build a survivor or error cover may visit, counted
# as cubes times their length; the cover, each of whose cubes is visited, holds
# no more.
COVER_BITS = 1 << 24


def union_cover(cubes: Iterable[Cube]) -> list[Cube]:
    """The union of the cylinders of ``cubes`` as pairwise disjoint cubes.

    Shortest first, each length's cubes are sharped by the cubes kept so
    far.  Raises BudgetExceededError once a sharp visits more cubes than
    the ``COVER_BITS`` left over by the cover so far allow.
    """
    kept: list[Cube] = []
    for n, bucket in groupby(sorted(cubes), itemgetter(0)):
        kept += sharp_cover(bucket, kept, (COVER_BITS - sum(m for m, _, _ in kept)) // max(n, 1))
    return kept


def _cube_text(cube: Cube) -> str:
    n, care, value = cube
    if not n:
        return ""
    bits = format(value, f"0{n}b")
    if care == (1 << n) - 1:
        return bits
    return "".join(b if c == "1" else "*" for b, c in zip(bits, format(care, f"0{n}b")))


def _text_cube(text: str) -> Cube:
    if not isinstance(text, str) or text.strip("01*"):
        raise ValueError(f"not a 0/1/* cube: {text!r}")
    if not text:
        return (0, 0, 0)
    care = int(text.replace("0", "1").replace("*", "0"), 2)
    return (len(text), care, int(text.replace("*", "0"), 2))


class CubeSet:
    """An open set as a cover of pairwise disjoint cubes.

    A cube stands for the words of its length that it matches, and for the
    union of their cylinders: a shorter cube is padded with free bits.  The
    cover's padded cubes must be pairwise disjoint; the constructor trusts
    its caller, and :meth:`overlap` checks.  :attr:`word_count` is the
    number of words the cover stands for, counted without expanding it.
    """

    __slots__ = ("cubes",)

    def __init__(self, cubes: Iterable[Cube]):
        object.__setattr__(self, "cubes", tuple(cubes))

    @classmethod
    def from_words(cls, words: _WordIter) -> "CubeSet":
        """The cover of a prefix-free word set, one fully cared cube per word."""
        return cls((n, (1 << n) - 1, v) for v, n in words)

    @classmethod
    def from_strings(cls, texts: Iterable[str]) -> "CubeSet":
        """The cover spelled by ``0/1/*`` strings; raises on any other character."""
        return cls(map(_text_cube, texts))

    def strings(self) -> list[str]:
        """The cubes as ``0/1/*`` strings in (length, text) order."""
        return sorted(map(_cube_text, self.cubes), key=lambda t: (len(t), t))

    def measure(self) -> Dyadic:
        """``Σ 2^-(cared bits)``, exactly; the cover's measure when it is disjoint."""
        if not self.cubes:
            return D_ZERO
        top = max(care.bit_count() for _, care, _ in self.cubes)
        return Dyadic(sum(1 << (top - care.bit_count()) for _, care, _ in self.cubes), top)

    @property
    def word_count(self) -> int:
        """The number of words the cover stands for, an int of any size."""
        return sum(1 << (n - care.bit_count()) for n, care, _ in self.cubes)

    def __len__(self) -> int:  # raises OverflowError past sys.maxsize
        return self.word_count

    def __bool__(self) -> bool:
        return bool(self.cubes)

    def covers(self, word: Word) -> bool:
        """Some cube's cylinder contains the cylinder of ``word``."""
        return any(
            n <= word.length and not ((word.value >> (word.length - n)) ^ value) & care
            for n, care, value in self.cubes
        )

    def expand(self, budget: int) -> list[Word]:
        """The words the cover stands for; raises when there are more than ``budget``."""
        if self.word_count > budget:
            raise BudgetExceededError(f"a cover of {self.word_count} words exceeds {budget} words")
        words = []
        for n, care, value in self.cubes:
            values = [value]
            for free in (1 << p for p in range(n) if not care >> p & 1):
                values += [v | free for v in values]
            words += (Word(v, n) for v in values)
        return words

    def overlap(self, budget: int) -> tuple[str, str] | None:
        """Two cubes whose padded cylinders meet, or None when the cover is
        disjoint.  The cubes are split on their bits (see :func:`_leaves`);
        a group of two or more holds cubes that meet.  Raises
        BudgetExceededError after visiting more than ``budget`` cubes."""
        if len(self.cubes) < 2:
            return None
        top = max(n for n, _, _ in self.cubes)
        padded = [(c << (top - n), v << (top - n), (n, c, v)) for n, c, v in self.cubes]
        for _, _, group, _ in _leaves(padded, [], top, budget):
            if len(group) > 1:
                return _cube_text(group[0][2]), _cube_text(group[1][2])
        return None

    def __setattr__(self, name, value):
        raise AttributeError("CubeSet is immutable")

    def __eq__(self, other):
        """The same cubes, in any order."""
        if isinstance(other, CubeSet):
            return frozenset(self.cubes) == frozenset(other.cubes)
        return NotImplemented

    def __repr__(self):
        return f"CubeSet({self.strings()!r})"


def sorted_words(words: _WordIter) -> tuple[Word, ...]:
    """Canonical (length, value) order, used everywhere output must be stable."""
    return tuple(sorted(words, key=itemgetter(1, 0)))


class ClopenSet:
    """A finite union of cylinders presented at one fixed granularity.

    Membership is decided on packed values.  The members' values, the
    values of their prefixes of each length and the gap words are built on
    first use.
    """

    __slots__ = ("granularity", "words", "_values", "_prefixes", "_gaps")

    def __init__(self, granularity: int, words: _WordIter):
        if granularity < 1:
            raise ValueError("granularity must be a positive integer")
        ws = frozenset(words)
        for w in ws:
            if w.length != granularity:
                raise ValueError(f"word {w} does not have length {granularity}")
        object.__setattr__(self, "granularity", granularity)
        object.__setattr__(self, "words", ws)
        object.__setattr__(self, "_values", None)
        object.__setattr__(self, "_prefixes", None)
        object.__setattr__(self, "_gaps", None)

    def __setattr__(self, name, value):
        raise AttributeError("ClopenSet is immutable")

    @classmethod
    def from_strings(cls, texts: Iterable[str], granularity: int | None = None) -> "ClopenSet":
        ws = [Word.from_string(t) for t in texts]
        if granularity is None:
            if not ws:
                raise ValueError("granularity required for an empty clopen set")
            granularity = ws[0].length
        return cls(granularity, ws)

    def measure(self) -> Dyadic:
        return Dyadic(len(self.words), self.granularity)

    def complement(self) -> CubeSet:
        """The words of ``granularity`` bits outside the set, as the disjoint
        cubes of its :meth:`gap_words` padded with free bits: never more than
        ``granularity`` cubes per member."""
        g = self.granularity
        return CubeSet.from_strings(gap.ljust(g, "*") for gap in self.gap_words())

    def _member_values(self) -> frozenset[int]:
        if self._values is None:
            object.__setattr__(self, "_values", frozenset(w.value for w in self.words))
        return self._values

    def contains_value(self, value: int) -> bool:
        """Membership of the word of ``granularity`` bits packed in ``value``."""
        values = self._values
        if values is None:
            values = self._member_values()
        return value in values

    def contains_word(self, w: Word) -> bool:
        """Membership of any word of length >= granularity, decided on its head."""
        if w.length < self.granularity:
            raise ValueError(
                f"word of length {w.length} is too short for granularity {self.granularity}"
            )
        return self.contains_value(w.value >> (w.length - self.granularity))

    def prefix_values(self) -> tuple[frozenset[int], ...]:
        """Entry ``j`` holds the values of the members' length-``j`` prefixes,
        for ``j = 0 .. granularity``; read only."""
        if self._prefixes is None:
            g, values = self.granularity, self._member_values()
            table = tuple(frozenset(v >> (g - j) for v in values) for j in range(g))
            object.__setattr__(self, "_prefixes", table + (values,))
        return self._prefixes

    def gap_words(self) -> tuple[str, ...]:
        """The words whose cylinders make up the complement, as sorted bit
        strings: each child of a member's prefix that is no member's prefix,
        or the empty word when there are no members.  Read off
        :meth:`prefix_values`, so never more than ``granularity`` words per
        member."""
        if self._gaps is None:
            table = self.prefix_values()
            gaps = [] if table[0] else [""]
            for j, (parents, children) in enumerate(zip(table, table[1:])):
                gaps += (
                    format(c, f"0{j + 1}b")
                    for v in parents
                    for c in (2 * v, 2 * v + 1)
                    if c not in children
                )
            object.__setattr__(self, "_gaps", tuple(sorted(gaps)))
        return self._gaps

    def __eq__(self, other):
        if isinstance(other, ClopenSet):
            return (self.granularity, self.words) == (other.granularity, other.words)
        return NotImplemented

    def __hash__(self):
        return hash((self.granularity, self.words))

    def __repr__(self):
        return f"ClopenSet({self.granularity}, {[str(w) for w in sorted_words(self.words)]})"

    @classmethod
    def from_text(cls, text: str) -> "ClopenSet":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        granularity = keyword_number(lines[0] if lines else "", "granularity")
        return cls(granularity, (Word.from_string(ln) for ln in lines[1:]))


def keyword_number(text: str, keyword: str) -> int:
    """``n`` from a class-file header or stage head ``<keyword> <n>``."""
    fields = text.split()
    if len(fields) != 2 or fields[0] != keyword:
        raise ValueError(f"expected '{keyword} <n>', got {text.strip()!r}")
    return int(fields[1])


def stage_tokens(lines: Iterable[str]) -> dict[int, list[str]]:
    """The tokens of ``stage <t>: <token> ...`` lines, by stage; blank lines
    are skipped and repeated stages merged."""
    stages: dict[int, list[str]] = {}
    for ln in lines:
        if ln.strip():
            head, _, rest = ln.partition(":")
            stages.setdefault(keyword_number(head, "stage"), []).extend(rest.split())
    return stages


class StagedCoEnumeration:
    """Stage-indexed growing open set (the enumerated complement of a closed set).

    A stage holds ``(length, care, value)`` cubes, and a cube delivered at
    stage ``t`` has length ``t**dimension``: in dimension one a cube of
    words, otherwise of the shell words of size-``t`` cubes.  Cubes of
    different stages may overlap.  With finite support the tail measure past
    any stage is computed exactly, once per stage; an infinite-support
    enumeration instead supplies ``tail_modulus``, an upper bound on the
    measure of the part not yet delivered.
    """

    def __init__(
        self,
        stages: Mapping[int, Iterable[Cube]],
        tail_modulus: Callable[[int], Dyadic] | None = None,
        support_bound: int | None = None,
        dimension: int = 1,
    ):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        clean: dict[int, frozenset[Cube]] = {}
        for t, cubes in stages.items():
            cs = frozenset(cubes)
            if not cs:
                continue
            if t < 1:
                raise ValueError(f"stage {t} is not a positive integer")
            for n, care, value in cs:
                if n != t**dimension:
                    raise ValueError(
                        f"cube {_cube_text((n, care, value))} delivered at stage {t} "
                        f"must have length {t**dimension}"
                    )
            clean[t] = cs
        self.dimension = dimension
        self._stages = dict(sorted(clean.items()))
        self._custom_modulus = tail_modulus
        if tail_modulus is None:
            support_bound = max(self._stages, default=0)
        self.support_bound = support_bound
        # the measure of the cubes delivered in a range of stages, by its
        # first and last nonempty stage
        self._measures: dict[tuple[int, int], Dyadic] = {}

    @classmethod
    def empty(cls) -> "StagedCoEnumeration":
        return cls({})

    @property
    def stages(self) -> tuple[int, ...]:
        return tuple(self._stages)

    @property
    def max_stage(self) -> int:
        return max(self._stages, default=0)

    def newly(self, t: int) -> frozenset[Cube]:
        return self._stages.get(t, frozenset())

    def _between(self, first: int, last: int) -> list[int]:
        """The nonempty stages from ``first`` through ``last``."""
        return [s for s in self._stages if first <= s <= last]

    def _cubes_between(self, first: int, last: int) -> frozenset[Cube]:
        return frozenset().union(*(self._stages[s] for s in self._between(first, last)))

    def cumulative(self, t: int) -> frozenset[Cube]:
        """All cubes delivered by stage ``t``."""
        return self._cubes_between(0, t)

    def late_cubes(self, t: int) -> frozenset[Cube]:
        """The cubes delivered after stage ``t``."""
        return self._cubes_between(t + 1, self.max_stage)

    def _measure_between(self, first: int, last: int) -> Dyadic:
        """Measure of the open set of the cubes of stages ``first .. last``."""
        stages = self._between(first, last)
        key = (stages[0], stages[-1]) if stages else (0, 0)
        if key not in self._measures:
            cubes = (cube for s in stages for cube in self._stages[s])
            self._measures[key] = CubeSet(union_cover(cubes)).measure()
        return self._measures[key]

    def tail_modulus(self, t: int) -> Dyadic:
        if self._custom_modulus is not None:
            return self._custom_modulus(t)
        return self._measure_between(t + 1, self.max_stage)

    def measure(self, t: int | None = None) -> Dyadic:
        """Measure of the open set of the cubes delivered by stage ``t``, or
        of all of them."""
        return self._measure_between(0, self.max_stage if t is None else t)

    def after(self, t: int) -> "StagedCoEnumeration":
        """The stages after ``t``, under the same tail modulus."""
        return StagedCoEnumeration(
            {s: cubes for s, cubes in self._stages.items() if s > t},
            tail_modulus=self._custom_modulus,
            support_bound=self.support_bound,
            dimension=self.dimension,
        )

    def __eq__(self, other):
        if isinstance(other, StagedCoEnumeration):
            return (self.dimension, self._stages) == (other.dimension, other._stages)
        return NotImplemented

    def __hash__(self):
        return hash((self.dimension, tuple(self._stages.items())))

    def __repr__(self):
        parts = ", ".join(f"{t}: {CubeSet(cs).strings()}" for t, cs in self._stages.items())
        return f"StagedCoEnumeration({{{parts}}})"

    @classmethod
    def from_text(cls, text: str) -> "StagedCoEnumeration":
        stages = stage_tokens(text.splitlines())
        return cls(
            {t: CubeSet.from_words(words_from_strings(ts)).cubes for t, ts in stages.items()}
        )


def split_tail(
    coenum: StagedCoEnumeration,
    threshold: Dyadic | Fraction,
    max_stage: int = 1 << 16,
) -> tuple[frozenset[Cube], int]:
    """Head/tail split at the least stage whose certified tail is below threshold.

    Returns ``(D, t)``: the cubes delivered by that stage and the stage.  The
    cubes of the later stages, ``coenum.after(t)``, then generate an open set
    of measure below ``threshold``.
    """
    thr = threshold.as_fraction() if isinstance(threshold, Dyadic) else Fraction(threshold)
    if thr <= 0:
        raise ValueError("threshold must be positive")
    cap = coenum.support_bound if coenum.support_bound is not None else max_stage
    for t in range(cap + 1):
        if coenum.tail_modulus(t).as_fraction() < thr:
            return coenum.cumulative(t), t
    raise NoCertificateError(
        f"tail modulus never certified a tail below {thr} within {cap} stages"
    )
