"""Seeded benchmark for shiftrec.

    python3 perfbench/run.py --workload certify-1d --seed 1 --seconds 20 --trace 0

Runs one workload in a fresh worker process (one thread, one client, closed
loop) for about ``--seconds`` seconds of timed jobs, checks every job's
output outside the timed region, runs the known-defect probes, and prints
one JSON object as the last line of standard output.  With ``--trace 0``
it reports the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced pass.  Run it from any directory; it uses the
``src/shiftrec`` next to its own directory and writes only under
``.perfbench/`` there.  Exits 2 without a result when the program is not
there, the worker fails or a traced layer is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import jobs as jobs_mod
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # set-up only workers per run, plus the measured worker's own set-up
HANG_PROBE_LIMIT_S = 4.0
WORKER_LIMIT_S = 150.0

# Per-layer metrics: call counts, self times and outermost inclusive times of
# traced names, and the counters the tracer keeps at layer boundaries.
CALLS = (
    "bitseq.window",
    "recurrence.find_witness",
    "measure.prefix_reduce",
    "measure.measure_open",
    "cli.main",
)
SELF_TIMES = (
    "bitseq.window",
    "recurrence.find_witness",
    "measure.prefix_reduce",
    "measure.measure_open",
    "measure.is_prefix_free",
    "multidim.array_measure_open",
    "multidim.arrays_prefix_free",
    "certificates.new_certificate",
    "cli.main",
)
INCLUSIVE_TIMES = (
    "recurrence.batch_statistics",
    "rotation.find_multi_return",
    "rotation.cf_accelerated_return",
    "rotation.verify_return",
    "measure.split_tail",
    "kurtz.kurtz_stage_set",
    "schnorr.schnorr_schedule",
    "schnorr.schnorr_error_set",
    "schnorr.schnorr_union_bound",
    "mltest.ml_run",
    "mltest.MLConstruction.level_certificate",
    "mltest.ml_enumerate_G",
    "mltest.ml_refined_levels",
    "multidim.grid_kurtz_stage_set",
    "multidim.GridMLConstruction.level_certificate",
    "multidim.grid_find_witness",
    "certificates.TestCertificate.to_json_dict",
    "certificates.certificates_from_json",
    "certificates.verify_certificate",
)
COUNTS = (
    "measure.prefix_reduce.words_in",
    "measure.prefix_reduce.words_out",
    "measure.measure_open.words_in",
    "kurtz.kurtz_stage_set.words_out",
    "kurtz.kurtz_stage_set.words_max",
    "kurtz.enumerated",
    "schnorr.schnorr_error_set.words_out",
    "mltest.level_words",
    "multidim.grid_kurtz_stage_set.samples_out",
    "multidim.GridMLConstruction.level_certificate.samples_out",
    "rotation.precision_doublings",
)


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SHIFTREC_PRECISION", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _start_worker(spec: dict, spec_path: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready``; returns it with its set-up time."""
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        stdout=subprocess.PIPE,
        text=True,
        env=_worker_env(),
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup_s


def _finish(proc: subprocess.Popen, limit: float) -> int:
    try:
        proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    return proc.returncode


def _hang_probe(work: Path) -> dict:
    """``mltest --clopen 1 --k 2`` must end (0 with all_pass, or 2) within the limit."""
    out = work / "probe-hang.json"
    argv = [sys.executable, "-m", "shiftrec.cli", "mltest", "--clopen", "1", "--k", "2", "--out", str(out)]
    try:
        proc = subprocess.run(argv, env=_worker_env(), cwd=ROOT, timeout=HANG_PROBE_LIMIT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return {"probe": "mltest-hang", "ok": False, "detail": f"no exit within {HANG_PROBE_LIMIT_S} s"}
    ok = proc.returncode == 2
    if proc.returncode == 0:
        try:
            ok = json.loads(out.read_text(encoding="utf-8")).get("all_pass") is True
        except (OSError, ValueError):
            ok = False
    return {"probe": "mltest-hang", "ok": ok, "detail": f"exited {proc.returncode}"}


def _median_by_job(passes: list[dict], field: str, select) -> float:
    """Sum over jobs of the job's median ``field`` across the given passes."""
    per_job: dict[str, list[float]] = {}
    for p in passes:
        for rec in p["jobs"]:
            if select(rec):
                per_job.setdefault(rec["job"], []).append(rec[field])
    return sum(statistics.median(v) for v in per_job.values())


def _layer_metrics(summary: dict) -> dict[str, float]:
    calls, self_s, incl, counts = summary["calls"], summary["self_s"], summary["s"], summary["counts"]
    m: dict[str, float] = {}
    for name in CALLS:
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in INCLUSIVE_TIMES:
        m[f"{name}.s"] = incl.get(name, 0.0)
    for name in COUNTS:
        m[name] = counts.get(name, 0)
    words_in = counts.get("measure.prefix_reduce.words_in", 0)
    m["measure.prefix_reduce.kept_ratio"] = (
        counts.get("measure.prefix_reduce.words_out", 0) / words_in if words_in else 0.0
    )
    enumerated = counts.get("kurtz.enumerated", 0)
    m["kurtz.survivor_ratio"] = (
        counts.get("kurtz.kurtz_stage_set.words_out", 0) / enumerated if enumerated else 0.0
    )
    return m


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; returns the result line plus the full report."""
    base = ROOT / ".perfbench"
    work = base / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        spec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                "setup_only": True}
        setups = []
        for i in range(SETUPS):
            proc, setup_s = _start_worker({**spec, "work": str(work / f"setup{i}")}, work / "spec.json")
            _finish(proc, WORKER_LIMIT_S)
            setups.append(setup_s)
        spec.update(setup_only=False, work=str(work), result=str(work / "result.json"),
                    trace_file=str(base / f"trace-{workload}-seed{seed}.tsv.gz"))
        proc, setup_s = _start_worker(spec, work / "spec.json")
        setups.append(setup_s)
        rc = _finish(proc, WORKER_LIMIT_S)
        if rc != 0:
            raise RuntimeError(f"worker exited {rc}")
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))

        expected = checks.load_expected()
        problems = []
        attempted = 0
        failed = 0
        for p in result["passes"]:
            for rec in p["jobs"]:
                attempted += 1
                found = checks.check_job(rec, seed, expected)
                failed += bool(found)
                problems.extend(found)
        probes = result["probes"] + [_hang_probe(work)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [p for p in result["passes"] if not p["traced"]]
    wall_s = _median_by_job(plain, "seconds", lambda r: True)
    verify_s = _median_by_job(plain, "seconds", lambda r: r["verifies"] is not None)
    probe_failed = sum(not p["ok"] for p in probes)
    report = {
        "workload": workload,
        "seed": seed,
        "passes": len(plain),
        "problems": problems,
        "probes": probes,
        "failed_ratio": (failed + probe_failed) / (attempted + len(probes)),
        "verify_s": verify_s,
        "end_to_end": {
            "wall_s": (wall_s, "s"),
            "output_bytes": (_median_by_job(plain, "bytes", lambda r: True), "B"),
            "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        },
    }
    correct = failed == 0
    if trace:
        report["per_layer"], report["phases"], trace_ok = _trace_report(result, wall_s, verify_s)
        correct = correct and trace_ok
        report["per_layer"]["failed_ratio"] = (report["failed_ratio"], "1")
        report["per_layer"]["setup.import_s"] = (result["import_s"], "s")
    metrics = report["per_layer"] if trace else report["end_to_end"]
    report["line"] = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return report


def _trace_report(result: dict, wall_s: float, verify_s: float):
    """Per-layer metrics (median over traced passes), per-job phases, root check."""
    traced_passes = [p for p in result["passes"] if p["traced"]]
    layer_runs = []
    ok = True
    for tr in result["traces"]:
        s = tr["summary"]
        m = _layer_metrics(s)
        m["trace.wall_s"] = s["wall_s"]
        m["trace.root_self_s"] = s["self_s"].get(spans.ROOT, 0.0)
        # Children must nest inside their parents, and root self time plus every
        # layer's self time must add up to the traced wall time.
        if s["unnested"] or abs(s["self_total_s"] - s["wall_s"]) > 1e-6 * max(1.0, s["wall_s"]):
            ok = False
            print(f"trace: {s['unnested']} spans outside their parent; self times add up to "
                  f"{s['self_total_s']} s, wall is {s['wall_s']} s", file=sys.stderr)
        layer_runs.append(m)
    traced_wall = _median_by_job(traced_passes, "seconds", lambda r: True)
    per_layer = {name: statistics.median(m[name] for m in layer_runs) for name in layer_runs[0]}
    per_layer["trace.overhead_s"] = traced_wall - wall_s
    per_layer["verify_s"] = verify_s
    units = {}
    for name in per_layer:
        if name.endswith(("_s", ".s")):
            units[name] = "s"
        elif name.endswith(("_ratio",)) or name == "rotation.precision_doublings":
            units[name] = "1"
        else:
            units[name] = "count"
    phases = []  # from the first traced pass
    for rec, root in zip(traced_passes[0]["jobs"], result["traces"][0]["roots"]):
        verify = rec["verifies"] is not None
        phases.append({
            "job": rec["job"],
            "wall_s": root["wall_s"],
            "construct_s": 0.0 if verify else root["wall_s"] - root["serialize_s"],
            "serialize_s": 0.0 if verify else root["serialize_s"],
            "verify_s": root["wall_s"] if verify else 0.0,
        })
    return {n: (v, units[n]) for n, v in per_layer.items()}, phases, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "shiftrec" / "__init__.py").is_file():
        print(f"error: no shiftrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for probe in report["probes"]:
        print(f"probe {probe['probe']}: {'ok' if probe['ok'] else 'FAILED'} ({probe['detail']})",
              file=sys.stderr)
    print(json.dumps({k: report[k] for k in ("failed_ratio", "verify_s", "passes")}))
    if "phases" in report:
        print(json.dumps({"phases": report["phases"]}))
    print(json.dumps(report["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
