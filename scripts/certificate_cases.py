#!/usr/bin/env python3
"""Time the isotypic-projector certificate on its large cases and print its
wall time, peak RSS, survivor count and value.

The cases (family, power, theta):
- the random complex 3x3x3 tensor at n = 4 and 5, and matmul:2,2,2 at
  n = 4, each at uniform theta and at bipartition {0};
- the random complex 2x2x2x2 tensor at n = 5 with the nested theta of
  weight 0.2 on each of the sides {0}, {0,1}, {0,1,2}, {0,1,3}, {0,2,3}:
  no orientation makes these five sides disjoint, so the walk branches on
  two of them.
The random tensors are default_rng(0)'s array of standard normal real
parts, then imaginary parts.  It checks nothing; CI prints it.

Usage: python scripts/certificate_cases.py [family power [bip|nested4]]
With no arguments every case runs, each in its own process so that its peak
RSS is its own; with a case, only that case runs.
"""

import resource
import subprocess
import sys
import time

import numpy as np

import tenspect as ts
from tenspect.entropy import ThetaWeights
from tenspect.quantum import upper_quantum_certificate

CASES = ["random 4", "random 5", "matmul:2,2,2 4", "random 5 bip", "matmul:2,2,2 4 bip",
         "random 5 nested4"]


def run_case(family: str, n: int, kind: str):
    dims = (2, 2, 2, 2) if kind == "nested4" else (3, 3, 3)
    if kind == "bip":
        theta = ThetaWeights.from_bipartitions({frozenset({0}): 1.0}, 3)
    elif kind == "nested4":
        theta = ThetaWeights.from_bipartitions(
            {frozenset(side): 0.2
             for side in ({0}, {0, 1}, {0, 1, 2}, {0, 1, 3}, {0, 2, 3})}, 4)
    else:
        theta = ThetaWeights.uniform(3)
    if family == "random":
        rng = np.random.default_rng(0)
        arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        t = ts.Tensor(dims, ts.COMPLEXFLOAT, arr)
    else:
        t = ts.build_family(ts.parse_family(family), ts.COMPLEXFLOAT)
    start = time.perf_counter()
    res = upper_quantum_certificate(t, theta, n)
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    label = {"bip": " bip {0}", "nested4": " 2x2x2x2 nested"}.get(kind, "")
    print(f"{family} n={n}{label}: {wall:.3f} s, peak RSS {rss:.0f} MB, "
          f"{res.surviving} survivors, {res.value:.4f} bits", flush=True)


def main():
    if len(sys.argv) > 1:
        run_case(sys.argv[1], int(sys.argv[2]), "".join(sys.argv[3:]))
        return
    for case in CASES:
        subprocess.run([sys.executable, __file__, *case.split()], check=True)


if __name__ == "__main__":
    main()
