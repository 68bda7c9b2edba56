"""Benchmark worker: imports shiftrec once, then runs one workload's jobs.

Invoked by ``run.py`` as ``python3 worker.py SPEC.json``.  The worker
prints ``ready`` once ``import shiftrec`` is done and the inputs are
written (the end of set-up), then runs passes over the job list in a closed
loop with one client: each job is a ``shiftrec.cli.main(argv)`` call that
starts when the previous one returned.  Only the ``main`` call is timed;
garbage collection and bookkeeping happen between jobs.  Results go to the
spec's ``result`` path as JSON; the driver checks the outputs.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import jobs as jobs_mod
import spans

_MIB = 1024.0  # ru_maxrss is in KiB on Linux


def _run_job(cli, argv: list[str], tracer) -> tuple[object, float]:
    """One timed CLI call; returns (exit status or error text, seconds)."""
    gc.collect()
    t0 = perf_counter()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            # ``cli.main`` is looked up now, so the traced wrapper is the one called.
            rc = tracer.call(spans.ROOT, cli.main, argv)
    except SystemExit as exc:  # argparse rejects the flags
        rc = exc.code
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        rc = f"{type(exc).__name__}: {exc}"
    return rc, perf_counter() - t0


def _run_pass(cli, spec: dict, inputs: dict, index: int, tracer) -> list[dict]:
    out_dir = Path(spec["work"]) / "out" / f"p{index}"
    out_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for job in jobs_mod.job_list(spec["workload"], spec["seed"], inputs, out_dir):
        out = out_dir / f"{job.name}.out"
        rc, seconds = _run_job(cli, [*job.argv, "--out", str(out)], tracer)
        records.append(
            {
                "job": job.name,
                "verifies": job.verifies,
                "rc": rc,
                "seconds": seconds,
                "out": str(out),
                "bytes": out.stat().st_size if out.exists() else 0,
            }
        )
    return records


def _dyadic_text(num: int, exp: int) -> str:
    while exp > 0 and num % 2 == 0 and num:
        num //= 2
        exp -= 1
    return f"{num}/2^{exp}" if num else "0/2^0"


def _tamper_probe(cli, work: Path) -> dict:
    """Cut a kurtz-stage certificate, restate its measure, loosen its bound.

    ``verify`` must reject it (exit 1): the words no longer match the
    construction and the bound no longer matches the kind.
    """
    src = work / "probe-kurtz.json"
    rc, _ = _run_job(cli, ["kurtz", "--clopen", "1", "--k", "2", "--t-max", "2", "--out", str(src)], None)
    if rc != 0:
        return {"probe": "verify-tampered", "ok": False, "detail": f"kurtz exited {rc}"}
    data = json.loads(src.read_text(encoding="utf-8"))
    cert = max(data["certificates"], key=lambda c: len(c["words"]))
    kept = cert["words"][:10]
    top = max(len(w) for w in kept)
    cert["words"] = kept
    cert["exact_measure"] = _dyadic_text(sum(1 << (top - len(w)) for w in kept), top)
    cert["required_bound"] = "1/2^0"
    tampered = work / "probe-tampered.json"
    tampered.write_text(json.dumps({"certificates": [cert]}), encoding="utf-8")
    rc, _ = _run_job(cli, ["verify", str(tampered), "--out", str(work / "probe-verify.out")], None)
    return {"probe": "verify-tampered", "ok": rc == 1, "detail": f"verify exited {rc}, expected 1"}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    t0 = perf_counter()
    import shiftrec.cli as cli

    import_s = perf_counter() - t0
    work = Path(spec["work"])
    inputs = jobs_mod.write_inputs(spec["workload"], spec["seed"], work / "in")
    print("ready", flush=True)
    if spec["setup_only"]:
        return 0

    tracing = spec["trace"]
    passes: list[dict] = []
    tracers = []
    began = perf_counter()
    while not passes or perf_counter() - began < spec["seconds"] or (
        tracing and len(passes) < 2
    ):
        index = len(passes)
        traced = tracing and index % 2 == 1
        tracer = None
        if traced:
            tracer = spans.Tracer()
            tracer.install()
        try:
            records = _run_pass(cli, spec, inputs, index, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append({"traced": traced, "jobs": records})
        if tracer is not None:
            tracers.append(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / _MIB

    result = {
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "passes": passes,
        "probes": [_tamper_probe(cli, work)],
        "traces": [],
    }
    if tracers:
        trace_file = Path(spec["trace_file"])
        trace_file.unlink(missing_ok=True)
        for n, tracer in enumerate(tracers):
            result["traces"].append({"summary": tracer.summary(), "roots": tracer.root_phases()})
            tracer.write(trace_file, str(n))
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
