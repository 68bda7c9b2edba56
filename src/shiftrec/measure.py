"""Exact uniform measures of open sets given by word sets and cube covers.

An open set is presented by the words whose cylinders it unions.  After
prefix reduction the cylinders are pairwise disjoint, so every measure here
is an exact dyadic sum of powers of two.  A :class:`CubeSet` presents one as
pairwise disjoint ``0/1/*`` cubes instead, which stand for exponentially
many words each.  Effectively closed sets are kept as staged
co-enumerations of their complements, the convention being that a word
delivered at stage ``t`` has length exactly ``t``.

Grid samples of dimension ``k`` are words too: a size-``n`` cube is read in
shell order (see :mod:`shiftrec.multidim`), which makes it a word of length
``n**k`` whose first ``m**k`` bits are its size-``m`` sub-cube.  Everything
here therefore serves grids unchanged.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Mapping

from .bitseq import Word, all_words, words_from_strings
from .dyadic import D_ZERO, Dyadic
from .errors import BudgetExceededError, NoCertificateError

_WordIter = Iterable[Word]


def is_prefix_free(words: _WordIter) -> bool:
    """No member is a proper prefix of another: reduction keeps every word."""
    pool = frozenset(words)
    return len(prefix_reduce(pool)) == len(pool)


def uncovered(
    values: Collection[int], length: int, table: Mapping[int, set[int]]
) -> Collection[int]:
    """The values of length-``length`` words that no word of ``table`` (word
    length -> the values of the words of that length) is a prefix of."""
    for shorter, prefixes in table.items():
        if shorter <= length and values:
            values = [v for v in values if v >> (length - shorter) not in prefixes]
    return values


def free_bit_values(length: int, positions: Iterable[int]) -> list[int]:
    """Values, ascending, of every length-``length`` word that is zero outside
    ``positions`` (distinct bit positions, 0 the first bit)."""
    values = [0]
    for p in sorted(positions, reverse=True):
        bit = 1 << (length - 1 - p)
        values += [v | bit for v in values]
    return values


def _value_buckets(words: _WordIter) -> dict[int, list[int]]:
    """The words' values bucketed by length, shortest first."""
    buckets: defaultdict[int, list[int]] = defaultdict(list)
    for value, length in words:
        buckets[length].append(value)
    return dict(sorted(buckets.items()))


class PrefixFreeWordSet:
    """A word set in which no member is a proper prefix of another."""

    __slots__ = ("words", "_table")

    def __init__(self, words: _WordIter, *, _validated: bool = False):
        ws = frozenset(words)
        if not _validated and not is_prefix_free(ws):
            raise ValueError("word set is not prefix-free")
        object.__setattr__(self, "words", ws)
        object.__setattr__(self, "_table", None)  # values by length, built on first use

    def values_by_length(self) -> dict[int, set[int]]:
        """The members' values by word length, built on first use; read only."""
        if self._table is None:
            table = {n: set(vs) for n, vs in _value_buckets(self.words).items()}
            object.__setattr__(self, "_table", table)
        return self._table

    def covers(self, word: Word) -> bool:
        """Some member is a prefix of ``word``: its cylinder lies in the open set."""
        return not uncovered((word.value,), word.length, self.values_by_length())

    def __setattr__(self, name, value):
        raise AttributeError("PrefixFreeWordSet is immutable")

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: Word) -> bool:
        return w in self.words

    def __eq__(self, other):
        if isinstance(other, PrefixFreeWordSet):
            return self.words == other.words
        return NotImplemented

    def __hash__(self):
        return hash(self.words)

    def __repr__(self):
        return f"PrefixFreeWordSet({sorted_words(self.words)!r})"


def prefix_reduce(words: _WordIter) -> PrefixFreeWordSet:
    """Keep exactly the prefix-minimal members; the open set is unchanged.

    The words are bucketed by length once.  Shortest first, a bucket keeps
    the values that no kept word covers.
    """
    pool = frozenset(words)
    kept: dict[int, set[int]] = {}
    for length, values in _value_buckets(pool).items():
        values = uncovered(values, length, kept)
        if values:
            kept[length] = set(values)
    if sum(map(len, kept.values())) == len(pool):
        return PrefixFreeWordSet(pool, _validated=True)
    return PrefixFreeWordSet(
        (Word(v, length) for length, values in kept.items() for v in values),
        _validated=True,
    )


def measure_open(words: _WordIter | PrefixFreeWordSet) -> Dyadic:
    """Uniform measure of the open set generated by ``words``, exactly."""
    if not isinstance(words, PrefixFreeWordSet):
        words = prefix_reduce(words)
    per_length = Counter(map(itemgetter(1), words))
    if not per_length:
        return D_ZERO
    top = max(per_length)
    return Dyadic(sum(count << (top - n) for n, count in per_length.items()), top)


# A cube is ``(length, care, value)``: the bits set in ``care`` are fixed to
# those of ``value`` (zero elsewhere), the others are free; bit 0 is the
# leftmost bit, as for words.
Cube = tuple[int, int, int]


def sharp(a: Cube, b: Cube) -> list[Cube]:
    """``a # b``: pairwise disjoint cubes of ``a``'s length covering exactly
    the words of ``a`` outside the cylinder of ``b``, which is no longer.

    Each bit that ``b`` cares about and ``a`` leaves free gives one cube that
    agrees with ``b`` on the earlier such bits and differs from it at this
    one (Brayton et al., *Logic Minimization Algorithms for VLSI Synthesis*,
    1984).
    """
    n, care, value = a
    m, b_care, b_value = b
    if m > n:
        raise ValueError(f"cannot sharp a length-{n} cube by a length-{m} cube")
    b_care <<= n - m
    b_value <<= n - m
    if care & b_care & (value ^ b_value):
        return [a]  # already disjoint
    pieces = []
    free = b_care & ~care
    while free:
        bit = free & -free
        pieces.append((n, care | bit, value | (bit & ~b_value)))
        care |= bit
        value |= bit & b_value
        free ^= bit
    return pieces


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


def sharp_cover(cubes: Iterable[Cube], removed: Iterable[Cube]) -> list[Cube]:
    """The words matched by some of ``cubes``, all of one length, and in no
    cylinder of ``removed``, whose cubes are no longer: as pairwise disjoint
    cubes of that length.

    The cubes are split on their bits (see :func:`_leaves`) until each
    group is contained in one of its members, and that member, fixed on the
    split bits, is sharped by the removed cubes that agree with them.
    """
    cubes = list(cubes)
    if not cubes:
        return []
    n = cubes[0][0]
    padded = [(care << (n - m), value << (n - m)) for m, care, value in removed]
    pieces = []
    for care, value, group, others in _leaves([c[1:] for c in cubes], padded, n):
        parts = [(n, group[0][0] | care, group[0][1] | value)]
        for o_care, o_value in others:
            parts = [q for p in parts for q in sharp(p, (n, o_care, o_value))]
        pieces += parts
    return pieces


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
    its caller, and :meth:`overlap` checks.  ``len()`` is the number of
    words the cover stands for, counted without expanding it.
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

    def __len__(self) -> int:
        return sum(1 << (n - care.bit_count()) for n, care, _ in self.cubes)

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
        if len(self) > budget:
            raise BudgetExceededError(f"a cover of {len(self)} words exceeds {budget} words")
        return [
            Word(value | f, n)
            for n, care, value in self.cubes
            for f in free_bit_values(n, (p for p in range(n) if not care >> (n - 1 - p) & 1))
        ]

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


def words_by_length(words: _WordIter) -> dict[int, list[Word]]:
    """The words bucketed by length, shortest first."""
    buckets: defaultdict[int, list[Word]] = defaultdict(list)
    for w in words:
        buckets[w.length].append(w)
    return dict(sorted(buckets.items()))


def sorted_words(words: _WordIter) -> tuple[Word, ...]:
    """Canonical (length, value) order, used everywhere output must be stable."""
    buckets = words_by_length(words)
    for bucket in buckets.values():
        bucket.sort(key=itemgetter(0))  # equal lengths: value order, on int keys
    return tuple(chain.from_iterable(buckets.values()))


class ClopenSet:
    """A finite union of cylinders presented at one fixed granularity."""

    __slots__ = ("granularity", "words")

    def __init__(self, granularity: int, words: _WordIter):
        if granularity < 1:
            raise ValueError("granularity must be a positive integer")
        ws = frozenset(words)
        for w in ws:
            if w.length != granularity:
                raise ValueError(f"word {w} does not have length {granularity}")
        object.__setattr__(self, "granularity", granularity)
        object.__setattr__(self, "words", ws)

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

    @classmethod
    def full(cls, granularity: int) -> "ClopenSet":
        return cls(granularity, all_words(granularity))

    def measure(self) -> Dyadic:
        return Dyadic(len(self.words), self.granularity)

    def complement(self) -> "ClopenSet":
        if self.granularity > 26:
            raise BudgetExceededError(
                f"complement would enumerate 2^{self.granularity} words"
            )
        return ClopenSet(
            self.granularity,
            (w for w in all_words(self.granularity) if w not in self.words),
        )

    def contains_word(self, w: Word) -> bool:
        """Membership of any word of length >= granularity, decided on its head."""
        if w.length != self.granularity:
            if w.length < self.granularity:
                raise ValueError(
                    f"word of length {w.length} is too short for granularity {self.granularity}"
                )
            w = w.take(self.granularity)
        return w in self.words

    def __eq__(self, other):
        if isinstance(other, ClopenSet):
            return (self.granularity, self.words) == (other.granularity, other.words)
        return NotImplemented

    def __hash__(self):
        return hash((self.granularity, self.words))

    def __repr__(self):
        return f"ClopenSet({self.granularity}, {[str(w) for w in sorted_words(self.words)]})"

    def to_text(self) -> str:
        lines = [f"granularity {self.granularity}"]
        lines.extend(str(w) for w in sorted_words(self.words))
        return "\n".join(lines) + "\n"

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
    """Stage-indexed growing word set (the enumerated complement of a closed set).

    A word delivered at stage ``t`` has length exactly ``t**dimension``: in
    dimension one a word, otherwise the shell word of a size-``t`` cube.
    With finite support the tail measure past any stage is computed exactly;
    an infinite-support enumeration instead supplies ``tail_modulus``, an
    upper bound on the measure of the part not yet delivered.
    """

    def __init__(
        self,
        stages: Mapping[int, _WordIter],
        tail_modulus: Callable[[int], Dyadic] | None = None,
        support_bound: int | None = None,
        dimension: int = 1,
    ):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        clean: dict[int, frozenset[Word]] = {}
        for t, words in stages.items():
            ws = frozenset(words)
            if not ws:
                continue
            if t < 1:
                raise ValueError(f"stage {t} is not a positive integer")
            for w in ws:
                if w.length != t**dimension:
                    raise ValueError(
                        f"word {w} delivered at stage {t} must have length {t**dimension}"
                    )
            clean[t] = ws
        self.dimension = dimension
        self._stages = dict(sorted(clean.items()))
        self._custom_modulus = tail_modulus
        if tail_modulus is None:
            support_bound = max(self._stages, default=0)
        self.support_bound = support_bound
        self._cumulative: dict[int, frozenset[Word]] = {}

    @classmethod
    def from_words(cls, words: _WordIter) -> "StagedCoEnumeration":
        """Deliver each word at the stage equal to its length."""
        return cls(words_by_length(words))

    @classmethod
    def empty(cls) -> "StagedCoEnumeration":
        return cls({})

    @property
    def stages(self) -> tuple[int, ...]:
        return tuple(self._stages)

    @property
    def max_stage(self) -> int:
        return max(self._stages, default=0)

    def newly(self, t: int) -> frozenset[Word]:
        return self._stages.get(t, frozenset())

    def cumulative(self, t: int) -> frozenset[Word]:
        """All words delivered by stage ``t``."""
        key = max((s for s in self._stages if s <= t), default=0)
        if key not in self._cumulative:
            acc: set[Word] = set()
            for s, ws in self._stages.items():
                if s <= key:
                    acc |= ws
            self._cumulative[key] = frozenset(acc)
        return self._cumulative[key]

    def words(self) -> frozenset[Word]:
        return self.cumulative(self.max_stage)

    def late_words(self, t: int) -> frozenset[Word]:
        """The enumerated words delivered after stage ``t``."""
        return self.words() - self.cumulative(t)

    def tail_modulus(self, t: int) -> Dyadic:
        if self._custom_modulus is not None:
            return self._custom_modulus(t)
        return measure_open(self.late_words(t))

    def measure(self) -> Dyadic:
        """Measure of the open set generated by the enumerated words."""
        return measure_open(self.words())

    def is_prefix_free(self) -> bool:
        return is_prefix_free(self.words())

    def remove_words(self, drop: _WordIter) -> "StagedCoEnumeration":
        dropset = frozenset(drop)
        return StagedCoEnumeration(
            {t: ws - dropset for t, ws in self._stages.items()},
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
        parts = ", ".join(
            f"{t}: {[str(w) for w in sorted_words(ws)]}" for t, ws in self._stages.items()
        )
        return f"StagedCoEnumeration({{{parts}}})"

    def to_text(self) -> str:
        lines = []
        for t, ws in self._stages.items():
            lines.append(f"stage {t}: " + " ".join(str(w) for w in sorted_words(ws)))
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> "StagedCoEnumeration":
        stages = stage_tokens(text.splitlines())
        return cls({t: words_from_strings(tokens) for t, tokens in stages.items()})


def split_tail(
    coenum: StagedCoEnumeration,
    threshold: Dyadic | Fraction,
    max_stage: int = 1 << 16,
) -> tuple[frozenset[Word], int]:
    """Head/tail split at the least stage whose certified tail is below threshold.

    Returns ``(D, N)``: the words delivered by that stage and the maximum
    length among them.  The remaining enumerated words then generate an open
    set of measure below ``threshold``.
    """
    thr = threshold.as_fraction() if isinstance(threshold, Dyadic) else Fraction(threshold)
    if thr <= 0:
        raise ValueError("threshold must be positive")
    cap = coenum.support_bound if coenum.support_bound is not None else max_stage
    for t in range(cap + 1):
        if coenum.tail_modulus(t).as_fraction() < thr:
            head = coenum.cumulative(t)
            return head, max((w.length for w in head), default=0)
    raise NoCertificateError(
        f"tail modulus never certified a tail below {thr} within {cap} stages"
    )
