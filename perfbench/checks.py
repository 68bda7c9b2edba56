"""Result checks for the benchmark's jobs, made outside the timed region.

The checks read only documented output fields: exit status, ``all_pass``,
each certificate's ``kind``, ``exact_measure`` and ``required_bound``, the
rows of a ``recur`` batch, the ``scan``/``cf`` reports of ``rotate`` and the
``witness`` of ``grid --op witness``.  Certificate measures and rotation
results are the same for every seed and are compared with
``expected.json``.  Witnesses are re-derived here from the documented
splitmix64 sources, independently of the program, for every seed; for the
seeds listed in ``expected.json`` they are also compared with stored values.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import jobs as jobs_mod

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_CERT_KEYS = ("certificates", "g_certificates", "refined_certificates")


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class _Stream:
    """Counter-mode splitmix64 bits, as documented for ``PseudorandomSource``."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.blocks: dict[int, int] = {}

    def bit(self, i: int) -> int:
        j = i >> 6
        if j not in self.blocks:
            self.blocks[j] = _mix64((self.seed + (j + 1) * _GAMMA) & _MASK64)
        return (self.blocks[j] >> (i & 63)) & 1

    def starts_with(self, start: int, word: str) -> bool:
        return all(self.bit(start + p) == int(b) for p, b in enumerate(word))


def _least_witness(in_target, k: int, n_max: int) -> int | None:
    for n in range(1, n_max + 1):
        if all(in_target(i * n) for i in range(1, k + 1)):
            return n
    return None


def recur_witness(job: str, seed: int) -> int | None:
    """Least witness for one source seed, from the target's definition."""
    s = _Stream(seed)
    if job == "recur-clopen":
        p = jobs_mod.RECUR_CLOPEN
        return _least_witness(lambda pos: s.starts_with(pos, p["clopen"]), p["k"], p["n_max"])
    p = jobs_mod.RECUR_PI01
    # The complement enumerates 11 and 00000: a block is in the target iff it
    # starts with neither.
    return _least_witness(
        lambda pos: not s.starts_with(pos, "11") and not s.starts_with(pos, "00000"),
        p["k"],
        p["n_max"],
    )


def grid_witness(seed: int) -> int | None:
    """Least n whose three face-shifted size-2 cubes all lie in the target."""
    g = jobs_mod.GRID_WITNESS
    dim, size, targets = g["dimension"], g["n1"], g["targets"]
    root = _mix64(seed + _GAMMA)
    cells = list(product(range(size), repeat=dim))

    def bit(coords) -> int:
        h = root
        for c in coords:
            h = _mix64(h ^ (c + _GAMMA))
        return h & 1

    def in_target(axis: int, n: int) -> bool:
        got = ""
        for v in cells:
            coords = list(v)
            coords[axis] += n
            got += str(bit(coords))
            if not any(t.startswith(got) for t in targets):
                return False
        return True

    for n in range(1, g["n_max"] + 1):
        if all(in_target(axis, n) for axis in range(dim)):
            return n
    return None


def _dyadic(text: str) -> str:
    """Canonical ``num/den`` text of a ``num/2^exp`` literal."""
    num, _, exp = text.partition("/2^")
    return str(Fraction(int(num), 1 << int(exp or 0)))


def certificate_rows(data: dict) -> list[list[str]]:
    return [
        [key, c["kind"], _dyadic(c["exact_measure"]), _dyadic(c["required_bound"])]
        for key in _CERT_KEYS
        for c in data.get(key, [])
    ]


def _rotate_fields(data: dict) -> dict:
    """Return times and whether every reported distance is below epsilon.

    Distances and the working precision are left out: they depend on the
    approximant, which a change to precision handling may legitimately alter.
    """
    eps = Fraction(data["epsilon"])
    fields = {"scan_verified": data["scan_verified"]}
    for side in ("scan", "cf"):
        fields[f"{side}.n"] = data[side]["n"]
        fields[f"{side}.below_epsilon"] = all(Fraction(d) < eps for d in data[side]["distances"])
    return fields


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def seeded_results(job: str, data: dict) -> object:
    """The seed-dependent result of a job, as stored for the declared seeds."""
    if job.startswith("recur-"):
        return digest([row["witness"] for row in data["rows"]])
    if job.startswith("grid-witness-"):
        return data["witness"]
    if job == "ml-split":
        return data.get("escape_level")
    return None


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def check_job(record: dict, seed: int, expected: dict) -> list[str]:
    """Problems with one job's exit status and output; empty when it is right."""
    job = record["job"]
    if record["rc"] != 0:
        return [f"{job}: exit status {record['rc']!r}, expected 0"]
    if record["verifies"] is not None:
        return []
    try:
        data = json.loads(Path(record["out"]).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{job}: unreadable output ({exc})"]
    problems: list[str] = []
    want = expected["jobs"].get(job, {})
    if "certificates" in want:
        if data.get("all_pass") is not True:
            problems.append(f"{job}: all_pass is {data.get('all_pass')!r}")
        if certificate_rows(data) != want["certificates"]:
            problems.append(f"{job}: certificate measures or bounds differ from expected.json")
    if "rotate" in want and _rotate_fields(data) != want["rotate"]:
        problems.append(f"{job}: rotation result differs from expected.json")
    if job.startswith("recur-"):
        count = jobs_mod.RECUR_CLOPEN_SEEDS if job == "recur-clopen" else jobs_mod.RECUR_PI01_SEEDS
        seeds = jobs_mod.seed_list(seed, job, count)
        if [row["seed"] for row in data["rows"]] != seeds:
            problems.append(f"{job}: rows do not follow the input seed list")
        else:
            bad = [s for s, row in zip(seeds, data["rows"]) if row["witness"] != recur_witness(job, s)]
            if bad:
                problems.append(f"{job}: {len(bad)} witnesses disagree with the target definition")
    if job.startswith("grid-witness-"):
        i = int(job.rsplit("-", 1)[1])
        grid_seed = jobs_mod.seed_list(seed, "grid-witness", jobs_mod.GRID_WITNESS_SEEDS)[i]
        if data["witness"] != grid_witness(grid_seed):
            problems.append(f"{job}: witness {data['witness']} disagrees with the target definition")
    stored = expected["seeds"].get(str(seed), {})
    if job in stored and seeded_results(job, data) != stored[job]:
        problems.append(f"{job}: result for declared seed {seed} differs from expected.json")
    return problems
