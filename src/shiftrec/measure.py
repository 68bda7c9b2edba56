"""Exact uniform measures of open sets given by word sets.

An open set is presented by the words whose cylinders it unions.  After
prefix reduction the cylinders are pairwise disjoint, so every measure here
is an exact dyadic sum of powers of two.  Effectively closed sets are kept
as staged co-enumerations of their complements, the convention being that a
word delivered at stage ``t`` has length exactly ``t``.

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

    @classmethod
    def from_values(cls, table: dict[int, set[int]]) -> "PrefixFreeWordSet":
        """The words of a by-length value table (word length -> the values of
        the words of that length) that the caller knows to be prefix-free; the
        table is not checked, and it becomes the set's index."""
        pfs = cls((Word(v, n) for n, vs in table.items() for v in vs), _validated=True)
        object.__setattr__(pfs, "_table", table)
        return pfs

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
