#!/usr/bin/env python3
"""Regenerate the frozen witness-time oracle used by the acceptance suite.

Two independent computations of the law of the least k-recurrence witness
for the target "first bit is 1" (per-step success probability 2**-k):

* the exact survival head P(W > m) for small m, by enumerating every
  assignment of the bits the first m checks can read;
* the mean and standard deviation of W, by a large simulation driven by
  numpy's PCG64 (a generator unrelated to the package's splitmix64 source).

Successive candidate times share bit positions (the check at n reads bits
n, 2n, .., kn), so W is *not* an independent-trials first-success time:
already P(W > 2) = 50/64 for k = 3 rather than (7/8)**2 = 49/64.

This script alone needs numpy; the shiftrec package does not depend on it.
"""

import argparse

import numpy as np


def exact_survival_head(k: int, m_max: int):
    rows = []
    for m in range(1, m_max + 1):
        top = k * m
        vals = np.arange(1 << top, dtype=np.int64)
        ok = np.ones(vals.shape, dtype=bool)
        for n in range(1, m + 1):
            hit = np.ones(vals.shape, dtype=bool)
            for i in range(1, k + 1):
                hit &= ((vals >> (top - i * n)) & 1).astype(bool)
            ok &= ~hit
        rows.append((m, int(ok.sum()), 1 << top))
    return rows


def simulate_mean(k: int, n_max: int, samples: int, seed: int):
    rng = np.random.default_rng(seed)
    chunk = 100_000
    total = 0.0
    totsq = 0.0
    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        bits = rng.integers(0, 2, size=(size, k * n_max + 1), dtype=np.uint8)
        w = np.zeros(size, dtype=np.int32)
        alive = np.ones(size, dtype=bool)
        for n in range(1, n_max + 1):
            hit = alive
            for i in range(1, k + 1):
                hit = hit & bits[:, i * n].astype(bool)
            w[hit] = n
            alive &= ~hit
            if not alive.any():
                break
        if alive.any():
            raise RuntimeError("some samples never obtained a witness")
        total += w.sum(dtype=np.float64)
        totsq += (w.astype(np.float64) ** 2).sum()
        done += size
    mean = total / done
    var = totsq / done - mean * mean
    return mean, var**0.5, (var / done) ** 0.5


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=200)
    ap.add_argument("--head", type=int, default=7)
    ap.add_argument("--samples", type=int, default=2_000_000)
    ap.add_argument("--seed", type=int, default=987654321)
    args = ap.parse_args()

    print(f"# least-witness law for k={args.k}, candidates 1..{args.n_max}")
    for m, hits, space in exact_survival_head(args.k, args.head):
        print(f"P(W > {m}) = {hits}/{space} = {hits / space:.6f}")
    mean, sd, se = simulate_mean(args.k, args.n_max, args.samples, args.seed)
    print(f"mean = {mean:.4f}  sd = {sd:.4f}  se = {se:.4f}  "
          f"(PCG64 seed {args.seed}, N = {args.samples})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
