"""Span and count tracing around the public entry points of each shiftrec module.

The tracer wraps each traced name where its callers look it up: the
attribute of every loaded ``shiftrec`` module that is bound to the
function (so ``shiftrec.cli.kurtz_stage_set`` and ``measure_open`` in every
module importing it are both covered), or the class attribute for a method.
A traced name that no longer exists raises :class:`MissingLayerError`; a
refactor must never drop a layer silently.

Spans are kept in flat arrays while the run lasts (name, parent, start,
end) and are summarised or written out only when it ends.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import math
import sys
from array import array
from collections import defaultdict
from collections.abc import Sized
from pathlib import Path
from time import perf_counter

ROOT = "job"


class MissingLayerError(RuntimeError):
    """A traced name is missing from the program."""


def _materialize_first(args: tuple) -> tuple:
    """Turn a one-shot iterable first argument into a tuple so it can be counted."""
    if args and not isinstance(args[0], Sized):
        return (tuple(args[0]),) + args[1:]
    return args


def _count_prefix_reduce(counts, args, kwargs, result):
    counts["measure.prefix_reduce.words_in"] += len(args[0])
    counts["measure.prefix_reduce.words_out"] += len(result)


def _count_measure_open(counts, args, kwargs, result):
    counts["measure.measure_open.words_in"] += len(args[0])


def _count_kurtz(counts, args, kwargs, result):
    n = len(result.words)
    counts["kurtz.kurtz_stage_set.words_out"] += n
    counts["kurtz.kurtz_stage_set.words_max"] = max(
        counts["kurtz.kurtz_stage_set.words_max"], n
    )
    p = result.parameters
    length = p["k"] * p["times"][-1] + p["granularity"]
    counts["kurtz.enumerated"] += 2**length


def _count_schnorr(counts, args, kwargs, result):
    counts["schnorr.schnorr_error_set.words_out"] += len(result.words)


def _count_ml_level(counts, args, kwargs, result):
    counts["mltest.level_words"] += len(result.words)


def _count_grid_kurtz(counts, args, kwargs, result):
    counts["multidim.grid_kurtz_stage_set.samples_out"] += len(result.words)


def _count_grid_level(counts, args, kwargs, result):
    counts["multidim.GridMLConstruction.level_certificate.samples_out"] += len(result.words)


def _count_multi_return(counts, args, kwargs, result):
    if result is None:
        return
    requested = kwargs.get("precision", args[4] if len(args) > 4 else None)
    if requested is None:
        requested = args[0].precision
    counts["rotation.precision_doublings"] += math.log2(result.precision / requested)


# (module, attribute, span name, argument preparation, counter)
TRACED = (
    ("bitseq", "SequenceSource.window", "bitseq.window", None, None),
    ("bitseq", "PseudorandomSource.window", "bitseq.window", None, None),
    ("recurrence", "find_witness", None, None, None),
    ("recurrence", "batch_statistics", None, None, None),
    ("rotation", "find_multi_return", None, None, _count_multi_return),
    ("rotation", "cf_accelerated_return", None, None, None),
    ("rotation", "verify_return", None, None, None),
    ("measure", "prefix_reduce", None, _materialize_first, _count_prefix_reduce),
    ("measure", "measure_open", None, _materialize_first, _count_measure_open),
    ("measure", "is_prefix_free", None, None, None),
    ("measure", "split_tail", None, None, None),
    ("kurtz", "kurtz_stage_set", None, None, _count_kurtz),
    ("schnorr", "schnorr_schedule", None, None, None),
    ("schnorr", "schnorr_error_set", None, None, _count_schnorr),
    ("schnorr", "schnorr_union_bound", None, None, None),
    ("mltest", "ml_run", None, None, None),
    ("mltest", "MLConstruction.level_certificate", None, None, _count_ml_level),
    ("mltest", "ml_enumerate_G", None, None, None),
    ("mltest", "ml_refined_levels", None, None, None),
    ("multidim", "grid_kurtz_stage_set", None, None, _count_grid_kurtz),
    ("multidim", "GridMLConstruction.level_certificate", None, None, _count_grid_level),
    ("multidim", "array_measure_open", None, None, None),
    ("multidim", "arrays_prefix_free", None, None, None),
    ("multidim", "grid_find_witness", None, None, None),
    ("certificates", "new_certificate", None, None, None),
    ("certificates", "TestCertificate.to_json_dict", None, None, None),
    ("certificates", "certificates_from_json", None, None, None),
    ("certificates", "verify_certificate", None, None, None),
    ("cli", "main", None, None, None),
)


class Tracer:
    """Records spans and counts; owns the patches it installs."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, span: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; nested calls become its children."""
        nid = self._id(span)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[i] = t0
            self.end[i] = t1

    def _wrap(self, span: str, fn, prepare, counter):
        call, counts = self.call, self.counts

        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            result = call(span, fn, *args, **kwargs)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "shiftrec") -> None:
        """Patch every traced name; raises MissingLayerError if one is gone."""
        modules = [m for k, m in list(sys.modules.items()) if k == package or k.startswith(package + ".")]
        for module_name, attr, span, prepare, counter in TRACED:
            module = sys.modules.get(f"{package}.{module_name}")
            span = span or f"{module_name}.{attr}"
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(leaf) if owner is not None else None
            if not callable(original):
                raise MissingLayerError(f"traced name {package}.{module_name}.{attr} is missing")
            wrapped = self._wrap(span, original, prepare, counter)
            if owner_name:
                self._patch(owner, leaf, original, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapped)

    def _patch(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _durations(self) -> tuple[list[float], list[float]]:
        """Each span's duration and its self time (duration minus its children's)."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        self_time = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_time[p] -= dur[i]
        return dur, self_time

    def summary(self) -> dict:
        """Per-name calls, self time and outermost inclusive time, plus the root check."""
        dur, self_time = self._durations()
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        incl_s: defaultdict[str, float] = defaultdict(float)
        unnested = 0
        for i in range(len(dur)):
            nid = self.name[i]
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += self_time[i]
            p = self.parent[i]
            if p >= 0 and not self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]:
                unnested += 1
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:  # outermost span of its name: counts toward inclusive time
                incl_s[name] += dur[i]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "s": dict(incl_s),
            "wall_s": sum(d for d, p in zip(dur, self.parent) if p < 0),
            "self_total_s": sum(self_time),
            "unnested": unnested,
            "counts": dict(self.counts),
        }

    def root_phases(self) -> list[dict]:
        """Per root span: its duration and the part spent serializing output.

        Serializing is the self time of ``cli.main`` (argument parsing, JSON
        encoding, file writes) plus the time inside ``to_json_dict``.
        """
        dur, self_time = self._durations()
        main = self._ids.get("cli.main")
        to_json = self._ids.get("certificates.TestCertificate.to_json_dict")
        out: list[dict] = []
        for i in range(len(dur)):
            nid = self.name[i]
            if self.parent[i] < 0:
                out.append({"wall_s": dur[i], "serialize_s": 0.0})
            elif nid == main:
                out[-1]["serialize_s"] += self_time[i]
            elif nid == to_json:
                out[-1]["serialize_s"] += dur[i]
        return out

    def write(self, path: Path, label: str) -> None:
        """Append this tracer's spans to a gzipped TSV file."""
        new = not path.exists()
        with gzip.open(path, "at", compresslevel=1, encoding="utf-8") as fh:
            if new:
                fh.write("pass\tspan\tparent\tname\tstart_s\tend_s\n")
            base = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                fh.write(
                    f"{label}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - base:.9f}\t{self.end[i] - base:.9f}\n"
                )
