#!/usr/bin/env python3
"""Time the upper and lower support searches and count their entropy work.

For each search it prints the wall time, the evaluations the report
counts, the entropy-program solves (`max_H_theta` calls from the search),
how many of those the Sinkhorn-scaled start certified with no face step (a
`_sweep` ran and `_face_polish` did not), whether the pool's best support
was tight (the search then draws no step over Q; read from the last
`_settled` call, since the pool calls it at each new best), for the lower
search whether its best support was relabeled into an antichain (the
report's support is one that `tight_antichain_relabel` produced), the
sparsifier's runs (`_sparsify` calls, none once the start settles the
search), the tightness decisions (`check_tight` calls from the search),
the draws (calls of the `draw` that `_draws` returns, up to four per step),
the moves screened (`_SearchState.transvection_gain` calls, at most one per
move and state), the brackets (`h_theta_bracket` calls from the search, at
most one per order pattern), the states built
(`_SearchState.apply_transvection` calls), the permutation steps
(`_SearchState.permute` calls, one per leg of each antichain relabel) and
the Gauss-Jordan inversions (`invert_matrix` calls through `tensors` and
through the name `support_functionals` imports; the reported basis inverts
once per matrix step, on every field), all counted by wrappers.  The
tensors are `matmul:2,2,2` (tight, the pool settles) and `cw:3` (not
tight, its walks keep no step) over Q at uniform theta, and a seeded
3 x 2 x 3 tensor over F_3 whose upper and lower walks both keep a step
(seed 12 of `tests/test_walk_golden.py`, at its Dirichlet theta), each
searched with 4 restarts of 40 steps.
It checks nothing; CI prints it.

Usage: python scripts/search_cases.py
"""

import collections
import time

import numpy as np
# the entropy program's face step imports this on first use; imported here,
# it is in no search's time
import scipy.linalg.lapack  # noqa: F401

import tenspect as ts
import tenspect.entropy as te
import tenspect.support_functionals as sf
import tenspect.tensors as tt
from tenspect.entropy import ThetaWeights
from tenspect.supports import relabel_support


def walking_case():
    """The seeded F_3 tensor and theta of seed 12 in `tests/test_walk_golden.py`."""
    rng = np.random.default_rng(12)
    dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
    entries = rng.integers(-2, 3, size=dims) * (rng.random(dims) < 0.6)
    theta = ThetaWeights.from_legs(rng.dirichlet(np.ones(3)))
    return ts.Tensor(dims, ts.prime_field(3), entries), theta


def main():
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    te._sweep = counted("sweeps", te._sweep)
    te._face_polish = counted("face", te._face_polish)
    solve = sf.max_H_theta

    def solve_counted(*args):
        before = calls["sweeps"], calls["face"]
        out = solve(*args)
        calls["solves"] += 1
        calls["scaled"] += calls["sweeps"] > before[0] and calls["face"] == before[1]
        return out

    sf.max_H_theta = solve_counted
    draws, settled = sf._draws, sf._settled

    def draws_counted(seed):
        return counted("drawn", draws(seed))

    def settled_seen(domain, tight):
        calls["tight"] = tight.tight
        return settled(domain, tight)

    relabel, relabeled = sf.tight_antichain_relabel, set()

    def relabel_seen(supp, cert):
        perms = relabel(supp, cert)
        relabeled.add(relabel_support(supp, perms).points)
        return perms

    sf._draws, sf._settled = draws_counted, settled_seen
    sf.tight_antichain_relabel = relabel_seen
    sf._sparsify = counted("sparsified", sf._sparsify)
    sf.check_tight = counted("decided", sf.check_tight)
    sf.h_theta_bracket = counted("bracketed", sf.h_theta_bracket)
    state = sf._SearchState
    state.transvection_gain = counted("screened", state.transvection_gain)
    state.apply_transvection = counted("built", state.apply_transvection)
    state.permute = counted("permuted", state.permute)
    tt.invert_matrix = counted("inverted", tt.invert_matrix)
    sf.invert_matrix = counted("inverted", sf.invert_matrix)
    cases = [(spec, ts.build_family(ts.parse_family(spec), ts.RATIONAL),
              ThetaWeights.uniform(3), 0) for spec in ("matmul:2,2,2", "cw:3")]
    cases.append(("seed 12 F_3", *walking_case(), 12))
    for spec, t, theta, seed in cases:
        opts = sf.BasisSearchOptions(restarts=4, steps=40, seed=seed)
        for search in (sf.upper_support_functional, sf.lower_support_functional):
            calls.clear()
            relabeled.clear()
            start = time.perf_counter()
            rep = search(t, theta, opts)
            wall = time.perf_counter() - start
            moved = ""
            if search is sf.lower_support_functional:
                moved = ("best support relabeled, " if rep.support.points in relabeled
                         else "best support not relabeled, ")
            print(f"{spec} {search.__name__}: {wall:.3f} s, {rep.evaluations} evaluations, "
                  f"{calls['solves']} max_H_theta solves, "
                  f"{calls['scaled']} certified by the scaled start with no face step, "
                  f"pool's best support {'tight' if calls['tight'] else 'not tight'}, {moved}"
                  f"{calls['sparsified']} _sparsify calls, "
                  f"{calls['decided']} check_tight calls, "
                  f"{calls['drawn']} draws, "
                  f"{calls['screened']} moves screened by transvection_gain, "
                  f"{calls['bracketed']} h_theta_bracket calls, "
                  f"{calls['built']} states built by apply_transvection, "
                  f"{calls['permuted']} permutation steps, "
                  f"{calls['inverted']} invert_matrix calls", flush=True)


if __name__ == "__main__":
    main()
