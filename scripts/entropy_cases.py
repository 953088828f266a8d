#!/usr/bin/env python3
"""Time the entropy programs and print their Newton work and worst gap.

The cases:
- max_H_theta on `count` seeded 12-point supports in 4x4x4 (12 distinct
  points each, drawn by default_rng(seed)), at uniform theta and at
  theta = (1/2, 1/4, 1/4);
- max_min_entropy on reduced_polymult_support(n), n = 2..8, the supports
  of the cap-set bound, and on a five-point support in 3x3x3 whose cutting
  planes run 31 rounds.
Per case it prints the microseconds per solve (the least of five passes,
after a warm-up pass), the face steps (KKT solves, the saddle polish's
included) and rounds (face polishes) per solve, counted in one more pass,
and the worst gap.  It also prints the entropy solves (`max_H_theta`
calls, the minimax's inner solves included) and how many of them the
Sinkhorn-scaled start certified with no face step (a `_sweep` ran and
`_face_polish` did not); for max_min_entropy, the scipy.optimize.linprog
calls of its cutting planes per solve.  It checks nothing; CI prints it.

Usage: python scripts/entropy_cases.py [count] [seed]
"""

import sys
import time

import numpy as np
import scipy.optimize

import tenspect as ts
import tenspect.entropy as te
from tenspect.asymptotics import reduced_polymult_support

FIVE_POINTS = ts.SupportSet((3, 3, 3), ((0, 0, 0), (1, 1, 1), (1, 2, 0), (2, 0, 1), (2, 1, 2)))


def counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def report(label, solve, inputs, lps=False):
    """Time `solve` over the inputs, count its face steps, rounds and entropy
    solves, the solves the scaled start certified (and, if `lps`, its
    linprog calls), and print one line; `solve` returns the gap of its
    result."""
    for args in inputs:
        solve(*args)
    best = min(_timed(solve, inputs) for _ in range(5))
    calls = {"steps": 0, "rounds": 0, "sweeps": 0, "solves": 0, "certified": 0, "lps": 0}
    norm_solve, face_polish, sweep = te._min_norm_solve, te._face_polish, te._sweep
    max_h, linprog = te.max_H_theta, scipy.optimize.linprog

    def max_h_counted(*args):
        before = calls["sweeps"], calls["rounds"]
        res = max_h(*args)
        calls["solves"] += 1
        calls["certified"] += calls["sweeps"] > before[0] and calls["rounds"] == before[1]
        return res

    te._min_norm_solve = counted(calls, "steps", norm_solve)
    te._face_polish = counted(calls, "rounds", face_polish)
    te._sweep = counted(calls, "sweeps", sweep)
    te.max_H_theta = max_h_counted
    scipy.optimize.linprog = counted(calls, "lps", linprog)
    try:
        worst = max(solve(*args) for args in inputs)
    finally:
        te._min_norm_solve, te._face_polish, te._sweep = norm_solve, face_polish, sweep
        te.max_H_theta, scipy.optimize.linprog = max_h, linprog
    n = len(inputs)
    lp_calls = f"{calls['lps'] / n:.2f} linprog calls per solve, " if lps else ""
    print(f"{label}: {n} solves, {1e6 * best / n:.0f} us per solve, "
          f"{calls['steps'] / n:.2f} face steps and {calls['rounds'] / n:.2f} rounds per solve, "
          f"{calls['solves']} entropy solves, {calls['certified']} certified by the scaled start "
          f"with no face step, {lp_calls}worst gap {worst:.2e}", flush=True)


def _timed(solve, inputs):
    start = time.perf_counter()
    for args in inputs:
        solve(*args)
    return time.perf_counter() - start


def main():
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    rng = np.random.default_rng(seed)
    supports = [ts.SupportSet((4, 4, 4), tuple(zip(*np.unravel_index(flat, (4, 4, 4)))))
                for flat in (rng.choice(64, size=12, replace=False) for _ in range(count))]
    for name, weights in (("uniform", (1 / 3, 1 / 3, 1 / 3)), ("(1/2, 1/4, 1/4)", (0.5, 0.25, 0.25))):
        theta = te.ThetaWeights.from_legs(weights)
        report(f"max_H_theta, 12 points in 4x4x4, theta {name}",
               lambda supp: te.max_H_theta(supp, theta).gap, [(supp,) for supp in supports])
    for n in range(2, 9):
        report(f"max_min_entropy, reduced_polymult_support({n})",
               lambda supp: te.max_min_entropy(supp).gap, [(reduced_polymult_support(n),)],
               lps=True)
    report("max_min_entropy, five points in 3x3x3", lambda supp: te.max_min_entropy(supp).gap,
           [(FIVE_POINTS,)], lps=True)


if __name__ == "__main__":
    main()
