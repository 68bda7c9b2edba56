"""Workloads of the shiftrec benchmark: seeded inputs and job lists.

Pure standard library, so the driver can rebuild a run's inputs and seed
lists for checking without importing the program under test.  The seed only
chooses *which* word is excluded, *which* late word is enumerated and
*which* sequences are searched; it never changes how many words a job
enumerates or the exact measures it must report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("certify-1d", "certify-grid", "search")

RECUR_CLOPEN_SEEDS = 10_000
RECUR_PI01_SEEDS = 2_000
GRID_WITNESS_SEEDS = 4

# The search targets, shared with the independent result checks.
RECUR_CLOPEN = dict(clopen="1", k=4, n_max=5000)
RECUR_PI01 = dict(stage_max=22, k=2, n_max=2000)
GRID_WITNESS = dict(dimension=3, n1=2, targets=("10110110", "00000000"), n_max=4000)


@dataclass(frozen=True)
class Job:
    """One ``shiftrec`` invocation; ``verifies`` names the job whose output it checks."""

    name: str
    argv: tuple[str, ...]
    verifies: str | None = None


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"shiftrec-bench:{seed}:{salt}")


def seed_list(seed: int, salt: str, count: int) -> list[int]:
    """Source seeds for a search job, derived from the workload seed."""
    rng = _rng(seed, salt)
    return [rng.getrandbits(63) for _ in range(count)]


def excluded_g8_word(seed: int) -> str:
    return format(_rng(seed, "g8").randrange(256), "08b")


def late_s_word(seed: int) -> str:
    """A length-22 word that does not extend ``11``, so S stays prefix-free."""
    rng = _rng(seed, "s")
    return rng.choice(("00", "01", "10")) + format(rng.getrandbits(20), "020b")


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    """Write the class and seed files a workload reads; returns them by name."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    directory.mkdir(parents=True, exist_ok=True)
    texts: dict[str, str] = {}
    if workload == "certify-1d":
        drop = excluded_g8_word(seed)
        words = [format(v, "08b") for v in range(256)]
        texts["G8"] = "granularity 8\n" + "".join(w + "\n" for w in words if w != drop)
        texts["S"] = f"stage 2: 11\nstage 22: {late_s_word(seed)}\n"
        texts["M"] = "stage 2: 11\nstage 5: 00000\n"
        texts["P"] = "stage 1: 0\nstage 3: 111\nstage 6: 110110\n"
    elif workload == "certify-grid":
        texts["Bg"] = "dimension 2\nstage 2: 1011\n"
    else:
        texts["M"] = "stage 2: 11\nstage 5: 00000\n"
        for name, count in (
            ("recur-clopen", RECUR_CLOPEN_SEEDS),
            ("recur-pi01", RECUR_PI01_SEEDS),
        ):
            texts[name] = " ".join(map(str, seed_list(seed, name, count))) + "\n"
    paths = {}
    for name, text in texts.items():
        path = directory / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths


def _with_verify(constructs: list[Job], out_dir: Path) -> list[Job]:
    jobs = []
    for job in constructs:
        jobs.append(job)
        jobs.append(
            Job(
                f"verify-{job.name}",
                ("verify", str(out_dir / f"{job.name}.out")),
                verifies=job.name,
            )
        )
    return jobs


def job_list(workload: str, seed: int, inputs: dict[str, Path], out_dir: Path) -> list[Job]:
    """The workload's jobs in run order, without their ``--out`` flags."""
    f = {name: str(path) for name, path in inputs.items()}
    if workload == "certify-1d":
        return _with_verify(
            [
                Job("kurtz-clopen", ("kurtz", "--clopen", "1", "--k", "2", "--t-max", "3")),
                Job("kurtz-g8", ("kurtz", "--class-file", f["G8"], "--k", "2", "--t-max", "1")),
                Job(
                    "schnorr-s",
                    ("schnorr", "--class-file", f["S"], "--k", "1", "--v", "0", "--t-max", "4"),
                ),
                Job(
                    "ml-direct",
                    ("mltest", "--class-file", f["M"], "--k", "2", "--r", "4",
                     "--stage-max", "22"),
                ),
                Job(
                    "ml-split",
                    ("mltest", "--class-file", f["P"], "--k", "2", "--r", "3",
                     "--stage-max", "16", "--seed", str(seed)),
                ),
            ],
            out_dir,
        )
    if workload == "certify-grid":
        return _with_verify(
            [
                Job(
                    "grid-kurtz",
                    ("grid", "--op", "kurtz", "--dimension", "2", "--n1", "1",
                     "--target-bits", "1", "--r", "3"),
                ),
                Job(
                    "grid-ml",
                    ("grid", "--op", "ml", "--class-file", f["Bg"], "--r", "2",
                     "--stage-max", "6"),
                ),
            ],
            out_dir,
        )
    gw = GRID_WITNESS
    witness_jobs = [
        Job(
            f"grid-witness-{i}",
            ("grid", "--op", "witness", "--dimension", str(gw["dimension"]),
             "--n1", str(gw["n1"]), "--target-bits", ",".join(gw["targets"]),
             "--n-max", str(gw["n_max"]), "--seed", str(s)),
        )
        for i, s in enumerate(seed_list(seed, "grid-witness", GRID_WITNESS_SEEDS))
    ]
    rc, rp = RECUR_CLOPEN, RECUR_PI01
    return [
        Job(
            "recur-clopen",
            ("recur", "--clopen", rc["clopen"], "--k", str(rc["k"]),
             "--n-max", str(rc["n_max"]), "--seeds-file", f["recur-clopen"]),
        ),
        Job(
            "recur-pi01",
            ("recur", "--class-file", f["M"], "--stage-max", str(rp["stage_max"]),
             "--k", str(rp["k"]), "--n-max", str(rp["n_max"]),
             "--seeds-file", f["recur-pi01"]),
        ),
        Job(
            "rotate-deep",
            ("rotate", "--alpha", "golden", "--k", "4", "--epsilon", "1/20000",
             "--precision", "16"),
        ),
        Job("rotate-coarse", ("rotate", "--alpha", "golden", "--k", "3", "--epsilon", "1/100")),
        *witness_jobs,
    ]
