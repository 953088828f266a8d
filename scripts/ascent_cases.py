#!/usr/bin/env python3
"""Time the entropy ascent on its slow cases and print how each one ended.

For each case the script runs `lower_quantum_functional` with the default
options and prints the wall time, the value and the certified upper bound
(bits), the stop reason, the trace length of the best start, the number of
starts that ran, the number of state evaluations (calls of
`quantum._state`, counted by a wrapper: one per start and one per trial)
over all starts, and how many accepted steps of each kind (Newton on the
Kempf-Ness potential, sweep, Newton on the objective, gradient) the best
start took.  It checks nothing; CI prints it.

The cases:
- W at theta = (1/2, 1/2, 0): the supremum 1 bit lies on the boundary of
  the orbit;
- W at theta = (1/4, 1/4, 1/2): the optimum is attained but not at uniform
  marginals, so every sweep is rejected;
- R (x) W, with R the random complex 3x3x3 tensor below, at uniform theta:
  the optimum log2 3 + h(1/3) is attained but not at uniform marginals;
- W_eps = e_010 + e_001 + eps e_100 at eps = 1e-6 over C, at uniform theta:
  leg 0's marginal is nearly singular;
- a non-concise rational tensor at uniform theta: the 2x3x3 integer tensor
  BASE mapped into Q^3 on leg 0 by the integer 3x2 matrix LIFT;
- three theta of a W-class tensor: (g_0 x g_1 x g_2) W with complex 2x2 g_i
  drawn from default_rng(1);
- R at uniform theta, where the optimum has uniform marginals.

R is default_rng(0)'s 3x3x3 array of standard normal real parts, then
imaginary parts.

Usage: python scripts/ascent_cases.py [substring ...]
Only the cases whose name contains one of the substrings run (all without).
"""

import sys
import time
from fractions import Fraction

import numpy as np

import tenspect as ts
import tenspect.quantum as tq
from tenspect.entropy import ThetaWeights

BASE = [[[2, -1, -1], [1, 2, -1], [-1, -2, 2]],
        [[2, 1, 0], [0, 1, 1], [0, 1, 0]]]
LIFT = [[-1, -2], [2, -1], [1, 1]]
W_CLASS_THETAS = [(1 / 3, 1 / 3, 1 / 3), (1 / 2, 1 / 3, 1 / 6), (2 / 3, 1 / 6, 1 / 6)]


def _complex(arr) -> ts.Tensor:
    arr = np.asarray(arr, dtype=complex)
    return ts.Tensor(arr.shape, ts.COMPLEXFLOAT, arr)


def _random_333() -> ts.Tensor:
    rng = np.random.default_rng(0)
    return _complex(rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)))


def _w_class() -> ts.Tensor:
    rng = np.random.default_rng(1)
    gs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    return _complex(np.einsum("ia,jb,kc,abc->ijk", *gs, ts.state_array(ts.w_tensor())))


def _cases():
    w = ts.w_tensor()
    w_eps = ts.state_array(w)
    w_eps[1, 0, 0] = 1e-6
    base = ts.from_nonzeros((2, 3, 3), ts.RATIONAL,
                            {idx: Fraction(int(v)) for idx, v in np.ndenumerate(BASE) if v})
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    uniform = ThetaWeights.uniform(3)
    yield "W theta=(1/2,1/2,0)", w, ThetaWeights.from_legs([0.5, 0.5, 0.0])
    yield "W theta=(1/4,1/4,1/2)", w, ThetaWeights.from_legs([0.25, 0.25, 0.5])
    yield "R(x)W uniform", ts.tensor_product(_random_333(), ts.convert(w, ts.COMPLEXFLOAT)), uniform
    yield "W_eps eps=1e-6 uniform", _complex(w_eps), uniform
    yield "non-concise LIFT.BASE uniform", ts.restrict(base, [LIFT, eye, eye]), uniform
    w_class = _w_class()
    for theta in W_CLASS_THETAS:
        label = ",".join(f"{x:.3f}" for x in theta)
        yield f"W-class theta=({label})", w_class, ThetaWeights.from_legs(list(theta))
    yield "random 3x3x3 uniform", _random_333(), uniform


def main():
    wanted = sys.argv[1:]
    evaluations = [0]
    state = tq._state

    def counted(*args):
        evaluations[0] += 1
        return state(*args)

    tq._state = counted
    print(f"{'case':34} {'time s':>8} {'value':>10} {'upper':>10} {'stop':>14} "
          f"{'trace':>6} {'starts':>6} {'evals':>6}  newton/sweep/entropy_newton/gradient")
    for name, t, theta in _cases():
        if wanted and not any(text in name for text in wanted):
            continue
        evaluations[0] = 0
        start = time.perf_counter()
        res = tq.lower_quantum_functional(t, theta)
        wall = time.perf_counter() - start
        kinds = "/".join(str(res.steps.count(kind))
                         for kind in ("newton", "sweep", "entropy_newton", "gradient"))
        print(f"{name:34} {wall:8.3f} {res.value:10.7f} {res.upper:10.7f} {res.stop:>14} "
              f"{len(res.trace):6d} {len(res.start_values):6d} {evaluations[0]:6d}  {kinds}",
              flush=True)


if __name__ == "__main__":
    main()
