"""Print every end-to-end metric of every workload, by name with its unit.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Runs each workload once with tracing off, checks every job's result, and
also prints ``verify_s`` and ``failed_ratio`` (which counts the
known-defect probes).  Exits 1 when a timed job or a result check failed.
"""

from __future__ import annotations

import argparse
import sys

import jobs
import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    if not (run.ROOT / "src" / "shiftrec" / "__init__.py").is_file():
        print(f"error: no shiftrec sources under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    ok = True
    for workload in jobs.WORKLOADS:
        report = run.run_workload(workload, args.seed, args.seconds, trace=False)
        line = report["line"]
        ok = ok and line["correct"]
        rows = dict(report["end_to_end"])
        rows["verify_s"] = (report["verify_s"], "s")
        rows["failed_ratio"] = (report["failed_ratio"], "1")
        for name, (value, unit) in rows.items():
            print(f"{workload:13s} {name:13s} {value:14.6f} {unit}")
        print(f"{workload:13s} checks: {line['attempted']} timed jobs, {line['failed']} failed")
        for problem in report["problems"]:
            print(f"{workload:13s}   {problem}")
        for probe in report["probes"]:
            state = "ok" if probe["ok"] else "FAILED"
            print(f"{workload:13s} probe {probe['probe']}: {state} ({probe['detail']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
