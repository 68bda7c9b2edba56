"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime limit.

Frozen oracle values are recomputed if cheap, or were produced once by the
scripts under scripts/ and checked against independent implementations
(string-based stage simulators, exhaustive enumerations, an independent
PCG64 simulation for the witness-time distribution).
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from shiftrec.bitseq import EventuallyPeriodicSource, ExplicitPrefixSource, Word
from shiftrec.cli import main
from shiftrec.dyadic import D_ONE, Dyadic, half_power
from shiftrec.kurtz import KurtzSchedule, kurtz_capture, kurtz_stage_set
from shiftrec.measure import (
    ClopenSet,
    CubeSet,
    StagedCoEnumeration,
    is_prefix_free,
    split_tail,
)
from shiftrec.mltest import (
    MLConstruction,
    ml_enumerate_G,
    ml_refined_levels,
)
from shiftrec.multidim import (
    ArraySample,
    GridMLConstruction,
    SeededGridSource,
    all_samples,
    face_shift,
    grid_kurtz_stage_set,
)
from shiftrec.recurrence import RecurrenceQuery, batch_statistics, find_witness
from shiftrec.rotation import (
    RotationSystem,
    cf_accelerated_return,
    dirichlet_ceiling,
    find_multi_return,
    verify_return,
)
from shiftrec.schnorr import (
    schnorr_error_set,
    schnorr_schedule,
    schnorr_union_bound,
)


def W(text):
    return Word.from_string(text)


def C(*texts):
    """The ``0/1/*`` cubes spelled by ``texts``."""
    return CubeSet.from_strings(texts).cubes


def circle_norm(x) -> Fraction:
    """Distance from x to the nearest integer, in [0, 1/2], exactly."""
    f = Fraction(x)
    frac = f - math.floor(f)
    return min(frac, 1 - frac)


P_ONES = ClopenSet(1, {W("1")})


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.2f}s"
    print(f"criterion {number} ({name}): PASS in {elapsed:.2f}s (limit {limit_seconds}s)")


def test_criterion_1_kurtz_measure_identity():
    with criterion(1, "survivor measure identity", 1.0):
        expected = [Dyadic(3, 2), Dyadic(9, 4), Dyadic(27, 6)]  # 3/4, 9/16, 27/64
        certs = [kurtz_stage_set(P_ONES, 2, t) for t in range(3)]
        for t, cert in enumerate(certs):
            assert cert.exact_measure == expected[t]
            assert cert.exact_measure == (D_ONE - Dyadic(1, 1) ** 2) ** (t + 1)

        # independent oracle, t = 0, 1: literal scan of every word
        def oracle_count(t):
            length = 2 * 3**t + 1
            count = 0
            for value in range(1 << length):
                text = format(value, f"0{length}b")
                alive = True
                for u in range(t + 1):
                    nu = 3**u
                    if text[nu] == "1" and text[2 * nu] == "1":
                        alive = False
                        break
                if alive:
                    count += 1
            return count, length

        assert oracle_count(0) == (6, 3)
        assert oracle_count(1) == (72, 7)  # 72 of 128 at length 7
        assert len(certs[1].words) == 72 and certs[1].words[0].length == 7

        # t = 2: survival depends only on the six examined positions, so count
        # block patterns exactly and weight by the free positions
        length = 2 * 9 + 1
        positions = [1, 2, 3, 6, 9, 18]
        survivors = 0
        for pattern in product((0, 1), repeat=6):
            bit = dict(zip(positions, pattern))
            if all(not (bit[nu] and bit[2 * nu]) for nu in (1, 3, 9)):
                survivors += 1 << (length - 6)
        assert Dyadic(survivors, length) == expected[2]
        assert len(certs[2].words) == survivors


def test_criterion_2_scheduled_capture_desk_scale():
    with criterion(2, "scheduled witnesses force escape", 1.0):
        schedule = KurtzSchedule(1, 1)
        scheduled = [schedule.time(t) for t in range(6)]  # 1 2 4 8 16 32
        for value in range(1 << 12):
            src = ExplicitPrefixSource(Word(value, 12), 0)
            captured, stage = kurtz_capture(src, P_ONES, 1, 5)
            hits = [t for t, n in enumerate(scheduled) if src.bit(n) == 1]
            if hits:
                assert not captured and stage == hits[0]
            else:
                assert captured and stage is None


def test_criterion_3_schnorr_budget():
    with criterion(3, "error-set budget", 1.0):
        coenums = [
            StagedCoEnumeration.empty(),
            StagedCoEnumeration({2: C("11"), 4: C("0000")}),
            StagedCoEnumeration({1: C("1")}),
        ]
        for coenum in coenums:
            for k in (1, 2):
                for v in range(5):
                    sched = schnorr_schedule(coenum, k, v, 3)
                    for t in range(1, 4):
                        assert sched.times[t] >= (k + 1) * sched.times[t - 1]
                        assert coenum.tail_modulus(sched.times[t]) <= half_power(
                            t + v + k
                        )
                    certs = [
                        schnorr_error_set(coenum, sched, k, v, t) for t in range(1, 4)
                    ]
                    for t, cert in zip(range(1, 4), certs):
                        assert cert.exact_measure <= Dyadic(k, t + v + k)
                    assert schnorr_union_bound(certs) <= half_power(v)


def test_criterion_4_ml_certificates():
    with criterion(4, "level-set certificates", 30.0):
        # direct path: q = 1/2
        direct = MLConstruction(StagedCoEnumeration({2: C("11")}), 2, 12)
        assert direct.q == Dyadic(1, 1)
        for r in range(4):
            cert = direct.level_certificate(r)
            assert is_prefix_free(cert.words)
            assert cert.exact_measure <= half_power(r)

        # split path: complement of measure 3/4 >= 1/2
        heavy = StagedCoEnumeration({1: C("0"), 2: C("11")})
        con = MLConstruction(heavy, 2, 12)
        assert con.q >= D_ONE
        head, split = split_tail(heavy, Fraction(1, 2))
        tail = heavy.after(split)
        assert tail.measure().as_fraction() < Fraction(1, 2)
        v = D_ONE - CubeSet(head).measure()
        decay = D_ONE - v**2
        g = ml_enumerate_G(con, head, split, 3)
        for prev, nxt in zip(g, g[1:]):
            assert nxt.exact_measure <= decay * prev.exact_measure
        q_tail = 2 * tail.measure()
        refined = ml_refined_levels(con, 0, tail, 3)
        for u, cert in enumerate(refined):
            assert is_prefix_free(cert.words)
            assert cert.exact_measure <= q_tail**u


def test_criterion_5_non_recurrence_capture():
    with criterion(5, "the all-zero sequence is captured", 5.0):
        zeros = EventuallyPeriodicSource(Word(0, 0), Word(0, 1))
        for k in (1, 2, 3, 4):
            report = find_witness(RecurrenceQuery(zeros, P_ONES, k, 300))
            assert report.witness is None
        coenum = StagedCoEnumeration({1: C("0")})  # complement of "starts 1"
        for k, stage_max in ((1, 15), (2, 15)):
            con = MLConstruction(coenum, k, stage_max)
            prefix = zeros.prefix(stage_max)
            reachable = 0
            r = 0
            while con.level(r):
                assert any(w.is_prefix_of(prefix) for w in con.level(r).expand(1 << 24))
                reachable += 1
                r += 1
            assert reachable >= 3


# Frozen oracle for criterion 6 (scripts/witness_time_oracle.py):
#   exact survival head P(W > m), m = 1..7, by full enumeration, and
#   mean 9.0173 +- 0.0061 from 2,000,000 independent PCG64 samples.
# Successive candidate times share bit positions, so the simple
# independent-trials mean (8.0) provably understates the true value:
# already P(W > 2) = 50/64, not 49/64.
WITNESS_MEAN_ORACLE = 9.0173
WITNESS_MEAN_ORACLE_SE = 0.0061
WITNESS_SD_ORACLE = 8.5808
EXACT_SURVIVAL_HEAD = {
    1: Fraction(7, 8),
    2: Fraction(50, 64),
    3: Fraction(360, 512),
    4: Fraction(2560, 4096),
    5: Fraction(17920, 32768),
    6: Fraction(130816, 262144),
    7: Fraction(915712, 2097152),
}


def test_criterion_6_random_sequences_recur():
    with criterion(6, "seeded sources all obtain witnesses", 10.0):
        summary = batch_statistics(range(1000), P_ONES, 3, 200)
        assert summary.fraction_with_witness == 1

        # per-n success probability is p**k = 1/8 exactly: the survival head
        # of the witness-time law is known in closed form by enumeration
        witnesses = [w for _, w in summary.rows]
        n_seeds = len(witnesses)
        for m, exact in EXACT_SURVIVAL_HEAD.items():
            observed = sum(1 for w in witnesses if w > m) / n_seeds
            expected = float(exact)
            sigma = (expected * (1 - expected) / n_seeds) ** 0.5
            assert abs(observed - expected) <= 4 * sigma, (m, observed, expected)

        # mean within 3 standard errors of the oracle prediction
        emp_mean = sum(witnesses) / n_seeds
        se = WITNESS_SD_ORACLE / n_seeds**0.5
        band = 3 * se + 3 * WITNESS_MEAN_ORACLE_SE
        assert abs(emp_mean - WITNESS_MEAN_ORACLE) <= band, (emp_mean, band)


def test_criterion_7_multidim():
    with criterion(7, "grid identities and certificates", 60.0):
        rng = random.Random(99)
        for _ in range(10_000):
            k = rng.choice((2, 3))
            n = rng.randint(1, 8)
            bits = tuple(rng.randint(0, 1) for _ in range(n**k))
            sample = ArraySample(k, n, bits)
            i = rng.randint(1, k)
            a = rng.randint(0, n)
            b = rng.randint(0, n - a)
            assert sample.crop(i, a).crop(i, b) == sample.crop(i, a + b)
            assert sample.cylinder_measure() == Dyadic(1, n**k)
        grid = SeededGridSource(5, 2)
        for i in (1, 2):
            for s in (0, 1, 3):
                assert face_shift(grid, i, s).sample(3) == grid.sample(3 + s).crop(i, s)

        target = ClopenSet(1, {ArraySample(2, 1, (1,)).word()})
        cert = grid_kurtz_stage_set(target, 2, 1)
        assert cert.exact_measure == Dyadic(3, 2)
        oracle = sum(
            1
            for s in all_samples(2, 2)
            if not (s.get((1, 0)) == 1 and s.get((0, 1)) == 1)
        )
        assert cert.exact_measure == Dyadic(oracle, 4)

        b = StagedCoEnumeration(
            {2: CubeSet.from_words([ArraySample.from_bit_string(2, 2, "1011").word()]).cubes},
            dimension=2,
        )
        ml_cert = GridMLConstruction(b, 5).level_certificate(1)
        assert is_prefix_free(ml_cert.words)
        assert ml_cert.exact_measure == Dyadic(1, 4)
        assert ml_cert.exact_measure <= ml_cert.required_bound


def test_criterion_8_rotation():
    with criterion(8, "rotation return times", 10.0):
        system = RotationSystem.golden()
        eps = Fraction(1, 20)
        report = find_multi_return(system, 2, eps, 400)
        assert report.n == 21
        assert verify_return(system, report)  # doubled precision
        value, err = system.approx(256)
        for smaller in range(1, report.n):
            dists = [circle_norm(i * smaller * value) for i in (1, 2)]
            assert max(dists) - 2 * smaller * err >= eps or max(dists) >= eps

        cf = cf_accelerated_return(system, 2, eps)
        for i, d in enumerate(cf.distances, start=1):
            assert circle_norm(i * cf.n * value) <= d + 2 * i * cf.n * err
            assert d < eps

        ceiling = dirichlet_ceiling(2, eps)
        assert ceiling == 400
        rng = random.Random(4)
        for _ in range(100):
            alpha = Fraction(rng.randrange(1 << 12), 1 << 12)
            found = find_multi_return(RotationSystem(alpha), 2, eps, ceiling)
            assert found is not None


def _run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "byte-identical reruns", 30.0):
        class_file = tmp_path / "B.txt"
        class_file.write_text("stage 1: 0\nstage 2: 11\n")
        grid_file = tmp_path / "Bg.txt"
        grid_file.write_text("dimension 2\nstage 2: 1011\n")
        runs = {
            "recur": ["recur", "--clopen", "1", "--k", "2", "--n-max", "50",
                      "--seed", "1", "--seed", "2", "--seed", "3"],
            "kurtz": ["kurtz", "--clopen", "1", "--k", "2", "--t-max", "2"],
            "schnorr": ["schnorr", "--class-file", str(class_file), "--k", "1",
                        "--v", "1", "--t-max", "3"],
            "mltest": ["mltest", "--class-file", str(class_file), "--k", "2",
                       "--r", "3", "--stage-max", "12", "--seed", "7"],
            "grid-witness": ["grid", "--op", "witness", "--dimension", "2",
                             "--n1", "1", "--target-bits", "1", "--seed", "5"],
            "grid-kurtz": ["grid", "--op", "kurtz", "--dimension", "2",
                           "--n1", "1", "--target-bits", "1", "--r", "2"],
            "grid-ml": ["grid", "--op", "ml", "--class-file", str(grid_file),
                        "--r", "1", "--stage-max", "5"],
            "rotate": ["rotate", "--alpha", "golden", "--k", "2",
                       "--epsilon", "0.05"],
        }
        cert_path = None
        for name, argv in runs.items():
            code_a, out_a = _run_to_file(tmp_path, name + ".a", argv)
            code_b, out_b = _run_to_file(tmp_path, name + ".b", argv)
            assert code_a == code_b == 0, name
            assert out_a == out_b, name
            if name == "kurtz":
                cert_path = tmp_path / "kurtz.a"
        code_a, ver_a = _run_to_file(
            tmp_path, "verify.a", ["verify", str(cert_path)]
        )
        code_b, ver_b = _run_to_file(
            tmp_path, "verify.b", ["verify", str(cert_path)]
        )
        assert code_a == code_b == 0
        assert ver_a == ver_b
