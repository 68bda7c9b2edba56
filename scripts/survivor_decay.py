#!/usr/bin/env python3
"""Print the survivor measure per stage for a clopen target.

The measure should follow (1 - p**k)**(t+1) exactly; every row's survivors
are a cube cover whose measure is counted and compared with it, so a
mismatch would abort with a bound violation.
"""

import argparse

from shiftrec.kurtz import kurtz_stage_set
from shiftrec.measure import ClopenSet


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clopen", default="1", help="comma-separated target words")
    ap.add_argument("--k", type=int, default=2)
    ap.add_argument("--stages", type=int, default=3)
    args = ap.parse_args()

    target = ClopenSet.from_strings(args.clopen.split(","))
    print("t,length,survivors,measure,measure_float")
    for t in range(args.stages):
        cert = kurtz_stage_set(target, args.k, t)
        p = cert.parameters
        length = p["k"] * p["times"][-1] + p["granularity"]
        print(
            f"{t},{length},{cert.cover.word_count},{cert.exact_measure},"
            f"{float(cert.exact_measure.as_fraction())!r}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
