import json
import math
import os
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenspect as ts
import tenspect.entropy as te
from tenspect.entropy import (INNER_TOL, ThetaWeights, binary_entropy,
                              h_theta_bracket, max_H_theta, max_min_entropy,
                              shannon_entropy)

from conftest import random_support

H13 = binary_entropy(1 / 3)
UNIFORM3 = ThetaWeights.uniform(3)


def _leg_entropies(supp, probs):
    """Each leg's marginal entropy of probs over supp.points."""
    return te._leg_entropies(te._incidence(supp)[0], probs)


def grid_search_H_theta(support, theta_arr, step=1e-3):
    """Independent oracle: dense grid over the probability simplex.

    Grid masses are integer multiples of the step, so every marginal
    probability is too; the entropy summands come from one lookup table.
    """
    pts = support.points
    m = len(pts)
    n_steps = int(round(1.0 / step))
    # groups[leg] = list of point-index tuples sharing a marginal value
    groups = []
    for leg in range(support.k):
        by_val = {}
        for j, p in enumerate(pts):
            by_val.setdefault(p[leg], []).append(j)
        groups.append(list(by_val.values()))
    v = np.arange(n_steps + 1) / n_steps
    with np.errstate(divide="ignore", invalid="ignore"):
        tbl = -v * np.log2(v)
    tbl[0] = 0.0

    def value(cols):
        total = np.zeros(cols[0].shape, dtype=float)
        for leg in range(support.k):
            acc = np.zeros_like(total)
            for members in groups[leg]:
                idx = cols[members[0]].copy()
                for t in members[1:]:
                    idx += cols[t]
                acc += tbl[idx]
            total += theta_arr[leg] * acc
        return total

    best = -np.inf
    if m == 1:
        return 0.0
    if m == 2:
        i = np.arange(n_steps + 1)
        return float(value([i, n_steps - i]).max())
    if m == 3:
        for i in range(n_steps + 1):
            j = np.arange(n_steps + 1 - i)
            cols = [np.full(j.size, i, dtype=np.int64), j, n_steps - i - j]
            best = max(best, float(value(cols).max()))
        return best
    if m == 4:
        for i in range(n_steps + 1):
            rem = n_steps - i
            counts = rem + 1 - np.arange(rem + 1)
            j = np.repeat(np.arange(rem + 1), counts)
            base = np.repeat(np.cumsum(counts) - counts, counts)
            l = np.arange(j.size) - base
            cols = [np.full(j.size, i, dtype=np.int64), j, l, rem - j - l]
            best = max(best, float(value(cols).max()))
        return best
    raise ValueError("oracle limited to four points")


def test_shannon_entropy_basics():
    assert shannon_entropy([1 / 8] * 8) == pytest.approx(3.0, abs=1e-12)
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert binary_entropy(1 / 3) == pytest.approx(0.918296, abs=5e-7)
    with pytest.raises(ValueError):
        shannon_entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_theta_weights_validation():
    with pytest.raises(ValueError):
        ThetaWeights.from_legs([0.5, 0.6])
    with pytest.raises(ValueError):
        ThetaWeights.from_legs([-0.1, 1.1])
    # NaN passes both the sign and the sum test unless it is rejected by name
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not finite"):
            ThetaWeights.from_legs([bad, 0.5, 0.5])
        with pytest.raises(ValueError, match="not finite"):
            ThetaWeights.from_bipartitions({frozenset({0}): bad}, 3)
    th = ThetaWeights.from_bipartitions({frozenset({1}): 0.4,
                                         frozenset({0, 1}): 0.6}, 3)
    # keys are canonicalised to the side containing leg 0
    assert all(0 in side for side, _ in th.items)
    assert th.is_noncrossing(3)


def _laminar_pair(s1, s2, k):
    """Some sides of the two bipartitions are nested or disjoint."""
    full = set(range(k))
    return any(a <= b or b <= a or not a & b
               for a in (s1, full - s1) for b in (s2, full - s2))


def test_noncrossing_detection():
    legs = ThetaWeights.uniform(4)
    assert legs.is_noncrossing(4)
    crossing = ThetaWeights.from_bipartitions(
        {frozenset({0, 1}): 0.5, frozenset({0, 2}): 0.5}, 4)
    assert not crossing.is_noncrossing(4)
    nested = ThetaWeights.from_bipartitions(
        {frozenset({0}): 0.5, frozenset({0, 1}): 0.5}, 4)
    assert nested.is_noncrossing(4)
    # all 129 pairs of distinct bipartitions of k = 2..5 legs
    pairs = 0
    for k in range(2, 6):
        sides = [frozenset(c) | {0} for r in range(k - 1)
                 for c in combinations(range(1, k), r)]
        for s1, s2 in combinations(sides, 2):
            th = ThetaWeights.from_bipartitions({s1: 0.5, s2: 0.5}, k)
            assert th.is_noncrossing(k) == _laminar_pair(s1, s2, k), (k, s1, s2)
            pairs += 1
    assert pairs == 129


def test_leg_entropies_match_pointwise_sums():
    """One bincount per leg adds the masses in the order of the points, so
    each leg's entropy is that of the pointwise-summed marginal, bitwise."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        supp = random_support(rng, bounds=(3, 4, 2), max_points=10)
        probs = rng.dirichlet(np.ones(len(supp)))
        want = []
        for i in range(supp.k):
            marg = np.zeros(supp.bounds[i])
            for p, w in zip(supp.points, probs):
                marg[p[i]] += w
            want.append(shannon_entropy(marg))
        assert _leg_entropies(supp, probs).tobytes() == np.array(want).tobytes()


def _returned_probs():
    """(support, probs) of max_H_theta on the suite supports at both suite
    theta and of max_min_entropy on reduced_polymult_support(n), n = 2..6."""
    out = [(supp, max_H_theta(supp, ThetaWeights.from_legs(w)).probs)
           for w in ((1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25)) for supp in _suite_supports()]
    for n in range(2, 7):
        supp = ts.reduced_polymult_support(n)
        out.append((supp, max_min_entropy(supp).probs))
    return out


def test_returned_probs_are_read_only_distributions():
    cases = _returned_probs()
    assert len(cases) == 85
    for supp, probs in cases:
        assert not probs.flags.writeable
        assert probs.dtype == np.float64 and probs.shape == (len(supp),)
        assert probs.min() >= 0.0 and abs(probs.sum() - 1.0) <= 1e-12, supp


@pytest.mark.parametrize("solve", [
    lambda: max_H_theta(ts.modular_sum_support(3), UNIFORM3),
    lambda: max_H_theta(_suite_supports()[0], UNIFORM3),
    lambda: max_min_entropy(ts.reduced_polymult_support(4)),
], ids=["start certifies", "newton rounds", "minimax"])
def test_writing_into_probs_raises_and_leaves_later_solves_alone(solve):
    """Where the uniform start certifies (modular_sum_support(3) at uniform
    theta), the returned probs is the cached start itself, which a write
    would change for every later solve of the program."""
    probs = solve().probs
    before = probs.copy()
    with pytest.raises(ValueError):
        probs[0] = 0.5
    assert solve().probs.tobytes() == before.tobytes()


def test_max_h_theta_unit():
    for r in (1, 2, 3, 5):
        supp = ts.SupportSet.from_tensor(ts.unit(r))
        res = max_H_theta(supp, UNIFORM3)
        assert res.value == pytest.approx(math.log2(r) if r > 1 else 0.0, abs=1e-12)
        assert res.exact_power == r


def test_max_h_theta_cw_and_dicke():
    for q in (1, 2, 3):
        supp = ts.SupportSet.from_tensor(ts.cw(q))
        res = max_H_theta(supp, UNIFORM3)
        assert res.value == pytest.approx(2 / 3 * math.log2(q) + H13, abs=1e-8)
    w = ts.SupportSet.from_tensor(ts.w_tensor())
    assert max_H_theta(w, UNIFORM3).value == pytest.approx(H13, abs=1e-9)


def test_max_h_theta_certificate_fields():
    supp = ts.SupportSet((3, 3, 3), ((0, 0, 0), (0, 1, 2), (1, 2, 0),
                                     (2, 2, 2), (1, 0, 1)))
    res = max_H_theta(supp, ThetaWeights.from_legs([0.6, 0.3, 0.1]))
    assert res.gap <= 1e-7
    assert res.converged and res.iterations >= 1


def test_max_h_theta_leaves_warning_filters_alone(monkeypatch):
    import warnings

    import scipy.optimize  # noqa: F401  (its import may add filters itself)

    rng = np.random.default_rng(2)
    pts = set()
    while len(pts) < 12:
        pts.add(tuple(int(x) for x in rng.integers(4, size=3)))
    supp = ts.SupportSet((4, 4, 4), tuple(sorted(pts)))
    face_polish, polishes = te._face_polish, []

    def counting(*args):
        polishes.append(args)
        return face_polish(*args)

    monkeypatch.setattr(te, "_face_polish", counting)
    before = list(warnings.filters)
    max_H_theta(supp, UNIFORM3)
    assert polishes                   # the solve reached a face polish
    assert warnings.filters == before


# 12-point supports in 4x4x4 whose optimum is a diagonal sub-support with
# uniform marginals (value exactly 2): the Newton face steps must trim the
# eight masses that vanish there to exactly 0 to certify within INNER_TOL
DEGENERATE_SUPPORTS = [
    ((0, 0, 2), (0, 0, 3), (0, 1, 3), (0, 2, 3), (0, 3, 2), (1, 1, 0),
     (1, 2, 2), (2, 2, 1), (3, 0, 1), (3, 1, 3), (3, 2, 0), (3, 3, 3)),
    ((0, 1, 0), (0, 2, 0), (0, 3, 1), (1, 1, 0), (1, 2, 0), (1, 2, 3),
     (2, 0, 0), (2, 0, 2), (2, 0, 3), (2, 3, 1), (3, 2, 0), (3, 2, 2)),
    ((0, 0, 1), (0, 0, 2), (0, 1, 3), (1, 0, 0), (1, 0, 2), (1, 1, 3),
     (2, 0, 2), (2, 2, 0), (2, 2, 1), (2, 3, 1), (3, 1, 0), (3, 2, 2)),
]
DEGENERATE_THETAS = [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25)]


@pytest.mark.parametrize("points", DEGENERATE_SUPPORTS)
@pytest.mark.parametrize("theta", DEGENERATE_THETAS)
def test_degenerate_supports_are_certified(points, theta, monkeypatch):
    import scipy.optimize

    def no_minimize(*args, **kwargs):
        raise AssertionError("max_H_theta called scipy.optimize.minimize")

    monkeypatch.setattr(scipy.optimize, "minimize", no_minimize)
    res = max_H_theta(ts.SupportSet((4, 4, 4), points), ThetaWeights.from_legs(theta))
    assert res.gap <= INNER_TOL
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.iterations < 20000


_SOLVE_SCRIPT = """
import json, sys
import tenspect as ts
from tenspect.entropy import ThetaWeights, max_H_theta
supports, thetas = json.load(sys.stdin)
out = []
for pts in supports:
    supp = ts.SupportSet((4, 4, 4), tuple(tuple(p) for p in pts))
    for w in thetas:
        res = max_H_theta(supp, ThetaWeights.from_legs(w))
        out.append([res.value.hex(), res.gap.hex(), res.iterations])
print(json.dumps(out))
"""


def test_results_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ts.__file__)))
    payload = json.dumps([DEGENERATE_SUPPORTS, DEGENERATE_THETAS])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _SOLVE_SCRIPT], input=payload,
                              capture_output=True, text=True, env=env, timeout=300,
                              check=True)
        results.append(json.loads(proc.stdout))
    assert results[0] == results[1]


def test_converged_flag(monkeypatch):
    supp = ts.SupportSet((4, 4, 4), ((0, 1, 3), (0, 3, 0), (1, 1, 1), (1, 3, 2),
                                     (2, 0, 2), (2, 1, 3), (2, 2, 3), (2, 3, 0),
                                     (2, 3, 3), (3, 0, 1), (3, 0, 3), (3, 3, 2)))
    with monkeypatch.context() as m:
        m.setattr(te, "MAX_ROUNDS", 1)
        cut = max_H_theta(supp, UNIFORM3)
    assert cut.converged is False
    assert cut.gap > INNER_TOL
    full = max_H_theta(supp, UNIFORM3)
    assert full.converged is True
    assert full.gap <= INNER_TOL
    assert max_H_theta(ts.SupportSet.from_tensor(ts.unit(3)), UNIFORM3).converged
    assert max_H_theta(ts.SupportSet((2, 2, 2), ((1, 0, 1),)), UNIFORM3).converged


def _suite_supports():
    """The 40 random 12-point supports in 4x4x4 of perfbench's support_programs."""
    rng = np.random.default_rng([1709, 3])
    out = []
    for _ in range(40):
        pts, tries = set(), 0
        while len(pts) < 12 and tries < 200:
            pts.add(tuple(int(rng.integers(4)) for _ in range(3)))
            tries += 1
        out.append(ts.SupportSet((4, 4, 4), tuple(pts)))
    return out


@pytest.mark.parametrize("theta", [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25)])
def test_newton_first_certifies_at_the_first_iteration(theta):
    theta = ThetaWeights.from_legs(theta)
    families = [ts.SupportSet.from_tensor(ts.build_family(ts.parse_family(spec)))
                for spec in ("W", "cw:2", "matmul:2,2,2")]
    results = [max_H_theta(supp, theta) for supp in families + _suite_supports()]
    assert all(res.gap <= INNER_TOL for res in results)
    assert all(res.iterations == 1 for res in results[:3])
    assert sum(res.iterations == 1 for res in results[3:]) >= 38


def _points(text):
    return tuple(tuple(int(c) for c in word) for word in text.split())


# suite support 31: the first Newton solve trims a coordinate that the
# optimum needs, and the second round adds it back
SUPPORT_31 = ts.SupportSet((4, 4, 4), _points("101 102 111 112 121 122 131 132 210 231 323 332"))


@pytest.mark.parametrize("theta", [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25)])
def test_active_set_adds_back_a_trimmed_coordinate(theta):
    assert _suite_supports()[31] == SUPPORT_31
    res = max_H_theta(SUPPORT_31, ThetaWeights.from_legs(theta))
    assert res.converged
    assert res.iterations <= 3


# a small theta_i on a value that only one point uses: the optimum puts a
# mass far below 1e-12 on that point; the last case certifies to 1e-10
SMALL_THETA_CASES = [
    ((2, 2, 5, 4), "0000 0041 0142 1010 1032", (0.13, 0.173, 0.693, 0.004), 1e-9),
    ((4, 4, 5), "012 030 034 103 202 323 332", (0.687, 0.004, 0.309), 1e-9),
    ((4, 3, 4), "123 200 213 220 221 302 323", (0.001, 0.842, 0.157), 1e-9),
    ((4, 5, 5), "031 132 202 230", (0.002, 0.673, 0.325), 1e-10),
]


@pytest.mark.parametrize("bounds,points,theta,tol", SMALL_THETA_CASES)
def test_small_theta_certifies_in_few_rounds(bounds, points, theta, tol):
    theta = ThetaWeights.from_legs(np.array(theta) / sum(theta))
    res = max_H_theta(ts.SupportSet(bounds, _points(points)), theta)
    assert res.gap <= tol
    assert res.iterations <= 3


# from a face gap of ~2e-9 on, the objective of this solve changes only at
# rounding level
SIX_POINTS = ts.SupportSet((4, 4, 4), ((0, 3, 3), (1, 2, 3), (2, 1, 2), (2, 3, 0),
                                       (3, 0, 2), (3, 2, 0)))


def test_face_polish_converges_quadratically(monkeypatch):
    # take max_H_theta's own objective from its first polish, then run the
    # polish from the uniform point and count the evaluations
    face_polish, args = te._face_polish, []

    def capture(p, f, grad, evaluate, inc, w):
        args.append((evaluate, inc, w))
        return p, f, grad

    monkeypatch.setattr(te, "_face_polish", capture)
    monkeypatch.setattr(te, "MAX_ROUNDS", 1)
    max_H_theta(SIX_POINTS, UNIFORM3)
    evaluate, inc, w = args[0]
    calls = []

    def counted(p):
        calls.append(p)
        return evaluate(p)

    start = np.full(6, 1 / 6)
    q, f, grad = face_polish(start, *counted(start), counted, inc, w)
    assert len(calls) <= 8
    # the polish returns its last point's evaluation
    want_f, want_grad = evaluate(q)
    assert f == want_f and np.array_equal(grad, want_grad)
    assert grad.max() - grad @ q <= 1e-14


def _kernel_cases():
    """Seeded 3- and 4-leg supports, each at a theta with a zero weight, at
    an interior point and at a point with zero masses."""
    rng = np.random.default_rng(361)
    cases = []
    for case in range(12):
        k = 3 + case % 2
        supp = random_support(rng, bounds=(3,) * k, max_points=10)
        if len(supp) < 3:
            continue
        theta = rng.dirichlet(np.ones(k))
        theta[int(rng.integers(k))] = 0.0
        theta = ThetaWeights.from_legs(theta / theta.sum())
        interior = rng.dirichlet(np.ones(len(supp)))
        face = interior * (rng.random(len(supp)) < 0.6)
        face[int(rng.integers(len(supp)))] += 0.5
        cases += [(supp, theta, interior), (supp, theta, face / face.sum())]
    return cases


def _per_leg_objective(supp, theta, q):
    """H_theta(q) in bits and its gradient, summed leg by leg from bincounts."""
    f, grad = 0.0, np.zeros(len(supp))
    for leg, w in enumerate(theta.leg_array(supp.k)):
        if w > 0:
            vals = np.array([supp.values(leg).index(p[leg]) for p in supp.points])
            marg = np.bincount(vals, weights=q)
            logm = np.log2(np.maximum(marg, 1e-300))
            f -= w * float(marg @ logm)
            grad -= w * logm[vals]
    return f, grad


def test_evaluate_matches_the_per_leg_formula():
    cases = _kernel_cases()
    assert len(cases) >= 16
    for supp, theta, q in cases:
        evaluate = te._uniform_start(supp, theta)[3]
        f, grad = evaluate(q)
        want_f, want_grad = _per_leg_objective(supp, theta, q)
        assert f == pytest.approx(want_f, rel=1e-13, abs=1e-13)
        assert np.allclose(grad, want_grad, rtol=1e-13, atol=1e-13)


def test_face_hessian_matches_finite_differences_of_the_gradient():
    for supp, theta, q in _kernel_cases():
        _, inc, w, evaluate = te._uniform_start(supp, theta)[:4]
        face = np.flatnonzero(q)
        hess = te._face_hessian(q, face, inc, w)
        step = 1e-7 * q[face].min()
        for col, j in enumerate(face):
            up, down = q.copy(), q.copy()
            up[j] += step
            down[j] -= step
            diff = (evaluate(up)[1] - evaluate(down)[1])[face] / (2 * step)
            assert np.allclose(hess[:, col], diff, rtol=1e-5, atol=1e-5 * np.abs(hess).max())


def _from_uniform(supp, theta):
    """The Newton rounds of `max_H_theta` from the uniform point, with no
    sweep: H_theta at the point they return, the point and its gap."""
    legs, inc, w, evaluate, p, f, grad, gap = te._uniform_start(supp, theta)
    p, gap, _ = te._newton_rounds(p, f, grad, gap, evaluate, inc, w)
    return float(theta.leg_array(supp.k) @ _leg_entropies(supp, p)), p, gap


def test_min_norm_solve_matches_lstsq(monkeypatch):
    """On the KKT systems of seeded face polishes, most of them singular and
    some with masses near 1e-280, the dgelsy solution is lstsq's minimum-norm
    one to 1e-12 relative.  The saddle polish's systems grow ill-conditioned
    as it converges (condition up to about 1e14 on the nonzero singular
    values), so there the two agree to the forward-error bound 16 eps kappa
    of a backward-stable solve."""
    solve, systems = te._min_norm_solve, []

    def recording(a, b):
        systems.append((a.copy(), b.copy()))
        return solve(a, b)

    monkeypatch.setattr(te, "_min_norm_solve", recording)
    # the uniform start: from the scaled one, fewer systems are singular
    for points in DEGENERATE_SUPPORTS:
        for theta in DEGENERATE_THETAS:
            _from_uniform(ts.SupportSet((4, 4, 4), points), ThetaWeights.from_legs(theta))
    for bounds, points, theta, _ in SMALL_THETA_CASES:
        theta = ThetaWeights.from_legs(np.array(theta) / sum(theta))
        _from_uniform(ts.SupportSet(bounds, _points(points)), theta)
    for supp in _suite_supports()[:10]:
        _from_uniform(supp, UNIFORM3)
    polishes = len(systems)
    rng = np.random.default_rng(362)
    for supp in [ts.SupportSet.from_tensor(ts.w_tensor())] + [
            random_support(rng, max_points=8) for _ in range(4)]:
        max_min_entropy(supp)
    assert polishes >= 100 and len(systems) - polishes >= 100
    singular = 0
    for index, (a, b) in enumerate(systems):
        want = np.linalg.lstsq(a, b)[0]
        sv = np.linalg.svd(a, compute_uv=False)
        rank = int((sv > sv[0] * b.size * np.finfo(float).eps).sum())
        singular += rank < b.size
        bound = 1e-12 if index < polishes else 16 * np.finfo(float).eps * sv[0] / sv[rank - 1]
        assert np.linalg.norm(solve(a, b) - want) <= bound * np.linalg.norm(want), index
    assert singular >= len(systems) // 3


def test_solve_reuses_the_bracket_program(monkeypatch):
    """A solve after the bracket of the same (support, theta) builds no
    incidence matrix again."""
    incidence, builds = te._incidence, []

    def counting(support):
        builds.append(support)
        return incidence(support)

    monkeypatch.setattr(te, "_incidence", counting)
    te._uniform_start.cache_clear()
    supp = _suite_supports()[0]
    lo, hi = h_theta_bracket(supp, UNIFORM3)
    value = max_H_theta(supp, UNIFORM3).value
    assert lo <= value <= hi + 1e-12
    assert len(builds) == 1
    max_H_theta(supp, ThetaWeights.from_legs([0.5, 0.25, 0.25]))
    assert len(builds) == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_value_never_below_feasible_points(seed):
    # concave-consistency: random feasible distributions never beat the optimum
    rng = np.random.default_rng(seed)
    supp = random_support(rng)
    theta = ThetaWeights.from_legs(rng.dirichlet(np.ones(3)))
    res = max_H_theta(supp, theta)
    for _ in range(10):
        probs = rng.dirichlet(np.ones(len(supp)))
        candidate = theta.leg_array(3) @ _leg_entropies(supp, probs)
        assert candidate <= res.value + 1e-7


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_leg_permutation_symmetry(seed):
    rng = np.random.default_rng(seed)
    supp = random_support(rng)
    theta_arr = rng.dirichlet(np.ones(3))
    perm = list(rng.permutation(3))
    supp_p = ts.SupportSet(tuple(supp.bounds[i] for i in perm),
                           tuple(tuple(p[i] for i in perm) for p in supp.points))
    theta_p = ThetaWeights.from_legs([theta_arr[i] for i in perm])
    v1 = max_H_theta(supp, ThetaWeights.from_legs(theta_arr)).value
    v2 = max_H_theta(supp_p, theta_p).value
    assert v1 == pytest.approx(v2, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_monotone_in_support(seed):
    rng = np.random.default_rng(seed)
    supp = random_support(rng, max_points=6)
    if len(supp) < 2:
        return
    sub_pts = supp.points[:len(supp) - 1]
    sub = ts.SupportSet(supp.bounds, sub_pts)
    theta = ThetaWeights.from_legs(rng.dirichlet(np.ones(3)))
    assert (max_H_theta(sub, theta).value
            <= max_H_theta(supp, theta).value + 1e-9)


def _bracket_thetas(rng, k):
    """theta at a vertex, uniform, and random with one or two zero weights."""
    vertex = np.eye(k)[int(rng.integers(k))]
    zeros = rng.dirichlet(np.ones(k))
    zeros[rng.choice(k, size=int(rng.integers(1, 3)), replace=False)] = 0.0
    return [ThetaWeights.from_legs(w) for w in (vertex, np.full(k, 1.0 / k), zeros / zeros.sum())]


def test_bracket_holds_the_program_value():
    """lo <= max_P H_theta(P) <= hi on seeded random supports of 3 and 4
    legs and 2 to 36 points; one-point and diagonal supports are exact."""
    rng = np.random.default_rng(25)
    for case in range(60):
        k = 3 + case % 2
        bounds = tuple(int(b) for b in rng.integers(2, 5, size=k))
        npts = int(rng.integers(2, min(36, math.prod(bounds)) + 1))
        flat = rng.choice(math.prod(bounds), size=npts, replace=False)
        supp = ts.SupportSet(bounds, tuple(sorted(
            tuple(int(x) for x in np.unravel_index(i, bounds)) for i in flat)))
        for theta in _bracket_thetas(rng, k):
            lo, hi = h_theta_bracket(supp, theta)
            value = max_H_theta(supp, theta).value
            assert lo <= value + 1e-12 and value <= hi + 1e-12, (supp, theta, lo, value, hi)
    for k in (3, 4):
        for m in (1, 2, 3):
            supp = ts.SupportSet((3,) * k, tuple((i,) * k for i in range(m)))
            for theta in _bracket_thetas(rng, k):
                assert h_theta_bracket(supp, theta) == (math.log2(m),) * 2
                assert max_H_theta(supp, theta).value == math.log2(m)


THETA_GRID = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
              (1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (0.5, 0.0, 0.5),
              (0.0, 0.5, 0.5), (0.5, 0.25, 0.25), (0.25, 0.5, 0.25),
              (0.25, 0.25, 0.5)]


def _value_path_cases():
    """(support, theta) pairs: the supports of density-0.8 random complex
    tensors of the sandwich dims and of W at the 10 grid theta, random
    12-point supports in 4x4x4, and random 4-leg supports."""
    rng = np.random.default_rng(35)
    cases = []
    for dims in 2 * [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3),
                     (2, 2, 4), (2, 3, 4), (3, 2, 4), (3, 3, 4)]:
        arr = (rng.standard_normal(dims) + 1j * rng.standard_normal(dims)) * (rng.random(dims) < 0.8)
        supp = ts.SupportSet.from_tensor(ts.Tensor(dims, ts.COMPLEXFLOAT, arr))
        cases += [(supp, ThetaWeights.from_legs(th)) for th in THETA_GRID]
    w = ts.SupportSet.from_tensor(ts.w_tensor())
    cases += [(w, ThetaWeights.from_legs(th)) for th in THETA_GRID]
    def drawn(bounds, npts):
        flat = rng.choice(math.prod(bounds), size=npts, replace=False)
        return ts.SupportSet(bounds, tuple(sorted(
            tuple(int(x) for x in np.unravel_index(j, bounds)) for j in flat)))

    for i in range(12):
        supp = drawn((4, 4, 4), 12)
        cases += [(supp, ThetaWeights.from_legs(THETA_GRID[j])) for j in (i % 10, 3)]
    for _ in range(12):
        bounds = tuple(int(b) for b in rng.integers(2, 4, size=4))
        supp = drawn(bounds, int(rng.integers(4, math.prod(bounds) + 1)))
        cases.append((supp, ThetaWeights.from_legs(rng.dirichlet(np.ones(4)))))
    return cases


def test_value_path_matches_the_solve():
    """max_H_theta's scaled start gives the value of the Newton rounds from
    the uniform point (`_from_uniform`) within 1e-12, a gap <= INNER_TOL,
    and value + gap bounds the uniform start's value up to 4 ulps of
    rounding in the two gaps.  The value, which may be the uniform point's,
    lies in [H_theta, H_theta + gap] at the returned distribution up to
    1e-12 of rounding between the two entropy sums."""
    cases = _value_path_cases()
    assert len({supp.points for supp, _ in cases}) >= 40
    for supp, theta in cases:
        res = max_H_theta(supp, theta)
        value, gap = res.value, res.gap
        at_dist = theta.leg_array(supp.k) @ _leg_entropies(supp, res.probs)
        assert at_dist - 1e-12 <= value <= at_dist + gap + 1e-12, (supp, theta, value, at_dist)
        ref = _from_uniform(supp, theta)[0]
        assert abs(value - ref) <= 1e-12, (supp, theta, value, ref)
        assert gap <= INNER_TOL, (supp, theta, gap)
        assert value + gap >= ref - 4 * np.spacing(ref), (supp, theta, value, gap, ref)


def test_one_leg_theta_certifies_after_one_sweep(monkeypatch):
    """At a one-leg theta, one sweep makes that leg's marginal uniform, the
    optimum; no face step runs."""
    sweeps = []
    sweep = te._sweep

    def counted(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(te, "_sweep", counted)
    monkeypatch.setattr(te, "_face_polish", None)
    rng = np.random.default_rng(36)
    for leg in range(3):
        theta = ThetaWeights.from_legs(np.eye(3)[leg])
        while True:
            # a support whose uniform point does not certify
            supp = random_support(rng, max_points=8)
            lo, hi = h_theta_bracket(supp, theta)
            if hi - lo > 1e-9:
                break
        sweeps.clear()
        res = max_H_theta(supp, theta)
        assert len(sweeps) == 1 and res.gap <= 1e-14
        assert res.value == pytest.approx(math.log2(len(supp.values(leg))), abs=1e-14)


def test_diagonal_support_value_is_exact():
    for k in (3, 4):
        for m in (1, 2, 4):
            supp = ts.SupportSet((4,) * k, tuple((i,) * k for i in range(m)))
            res = max_H_theta(supp, ThetaWeights.uniform(k))
            assert (res.value, res.gap) == (math.log2(m), 0.0)


def test_grid_oracle_agreement_small():
    rng = np.random.default_rng(123)
    for _ in range(6):
        supp = random_support(rng, max_points=3)
        theta_arr = rng.dirichlet(np.ones(3))
        res = max_H_theta(supp, ThetaWeights.from_legs(theta_arr))
        oracle = grid_search_H_theta(supp, theta_arr, step=1e-3)
        assert res.value == pytest.approx(oracle, abs=1e-4)


def test_grid_oracle_agreement_four_points():
    rng = np.random.default_rng(7)
    pts = set()
    while len(pts) < 4:
        pts.add(tuple(int(rng.integers(3)) for _ in range(3)))
    supp = ts.SupportSet((3, 3, 3), tuple(pts))
    theta_arr = np.array([0.45, 0.35, 0.2])
    res = max_H_theta(supp, ThetaWeights.from_legs(theta_arr))
    oracle = grid_search_H_theta(supp, theta_arr, step=1e-3)
    assert res.value == pytest.approx(oracle, abs=1e-4)


def test_max_min_entropy_unit_and_w():
    supp = ts.SupportSet.from_tensor(ts.unit(4))
    res = max_min_entropy(supp)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.exact_power == 4
    w = ts.SupportSet.from_tensor(ts.w_tensor())
    res = max_min_entropy(w)
    assert res.value == pytest.approx(H13, abs=1e-8)
    assert 2.0 ** res.value == pytest.approx(1.88988, abs=1e-5)
    assert res.gap <= 1e-6


def test_max_min_entropy_dual_value_is_certified():
    w = ts.SupportSet.from_tensor(ts.w_tensor())
    res = max_min_entropy(w)
    assert res.dual_value >= H13
    assert res.gap >= 0


@pytest.mark.parametrize("spec", ["cw:2", "cw:3"])
def test_max_min_entropy_gap_is_not_negative(spec):
    res = max_min_entropy(ts.SupportSet.from_tensor(ts.build_family(ts.parse_family(spec))))
    assert res.gap >= 0.0
    assert res.dual_value - res.value == res.gap


def test_saddle_polish_uses_binding_legs_of_weight_zero():
    # random4 of the theta golden: legs 0 and 2 both peak at log2 3 at
    # `best`, leg 1 stays above; near `best` and at the vertex
    # theta = (1, 0, 0), leg 2 is binding with weight 0
    supp = ts.SupportSet((3, 4, 3), ((0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 3, 0),
                                     (1, 3, 2), (2, 0, 1), (2, 1, 0), (2, 2, 0), (2, 3, 2)))
    best = np.array([2, 1, 0, 0, 0, 1, 0, 0, 1, 1]) / 6
    start = (1 - 1e-5) * best + 1e-6
    ents = _leg_entropies(supp, start)
    assert abs(ents[0] - ents[2]) <= 1e-9 < ents[1] - ents[0]
    q = te._saddle_polish(supp, start, np.array([1.0, 0.0, 0.0]))
    assert _leg_entropies(supp, q).min() == pytest.approx(
        math.log2(3), abs=1e-14)


def test_max_min_entropy_duality_gap():
    rng = np.random.default_rng(17)
    for _ in range(8):
        supp = random_support(rng, max_points=7)
        res = max_min_entropy(supp)
        assert res.gap <= 1e-6
        assert res.value <= res.dual_value + 1e-9
        # primal is feasible: value equals min marginal entropy of the dist
        ents = _leg_entropies(supp, res.probs)
        assert res.value == pytest.approx(float(ents.min()), abs=1e-12)


def test_max_min_entropy_phi3():
    phi3 = ts.reduced_polymult_support(3)
    res = max_min_entropy(phi3)
    assert 2.0 ** res.value == pytest.approx(2.75510, abs=1e-4)


def test_max_min_entropy_four_legs():
    # type-(2,2) tuples on four legs: uniform mass gives uniform binary
    # marginals, and two values per leg cap the program at one bit
    supp = ts.SupportSet.from_tensor(ts.dicke((2, 2)))
    res = max_min_entropy(supp)
    assert res.value == pytest.approx(1.0, abs=1e-8)
    assert res.gap <= 1e-6


FIVE_POINTS = ts.SupportSet((3, 3, 3), ((0, 0, 0), (1, 1, 1), (1, 2, 0), (2, 0, 1), (2, 1, 2)))


@pytest.mark.parametrize("supp", [ts.SupportSet.from_tensor(ts.w_tensor()),
                                  ts.reduced_polymult_support(5), FIVE_POINTS],
                         ids=["W", "polymult 5", "five points"])
def test_max_min_entropy_without_minimize(supp, monkeypatch):
    import scipy.optimize

    import tenspect.entropy as te

    def no_minimize(*args, **kwargs):
        raise AssertionError("max_min_entropy called scipy.optimize.minimize")

    def recording(fn, log):
        def wrapper(*args, **kwargs):
            log.append(fn(*args, **kwargs))
            return log[-1]
        return wrapper

    lps, planes = [], []
    monkeypatch.setattr(scipy.optimize, "minimize", no_minimize)
    monkeypatch.setattr(scipy.optimize, "linprog", recording(scipy.optimize.linprog, lps))
    monkeypatch.setattr(te, "_theta_cutting_planes", recording(te._theta_cutting_planes, planes))
    res = max_min_entropy(supp)
    assert res.value <= res.dual_value + 1e-12
    assert res.value == pytest.approx(float(_leg_entropies(supp, res.probs).min()),
                                      abs=1e-12)
    if supp is FIVE_POINTS:
        # the cutting planes reach their own stop target
        evals, _ = planes[0]
        lp = [lp for lp in lps if lp.success][-1]
        least = min(e[0] for e in evals)
        assert least - (lp.x[3] - 1e-12 * 3) <= te.MINIMAX_CUT_TOL


def _one_cut_supports():
    """reduced_polymult_support(2..8), W's support and the theta golden's
    minimax supports that make one inner solve."""
    from test_theta_golden import GOLDEN, _minimax_supports

    with open(GOLDEN, encoding="ascii") as fh:
        golden = json.load(fh)["max_min_entropy"]
    out = {f"polymult {n}": ts.reduced_polymult_support(n) for n in range(2, 9)}
    out["W"] = ts.SupportSet.from_tensor(ts.w_tensor())
    for key, supp in _minimax_supports().items():
        if golden[key]["inner_calls"] == 1:
            out[f"golden {key}"] = supp
    return out


def _counted_linprog(monkeypatch):
    """The list that each later scipy.optimize.linprog call appends to."""
    import scipy.optimize

    calls, linprog = [], scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(args)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    return calls


@pytest.mark.parametrize("key", list(_one_cut_supports()))
def test_one_cut_lp_is_the_least_cut(key, monkeypatch):
    # with one cut h the LP stops at a vertex with value min_i h_i and the
    # cut's weight is 1, so the cutting planes stop at round 1 with weights
    # [1.0] and no LP; where the legs tie to an ulp (polymult 4) HiGHS may
    # pick a vertex whose h_i is an ulp above the least, and the stop test
    # decides the same on either bound
    supp = _one_cut_supports()[key]
    k = supp.k
    res = max_H_theta(supp, ThetaWeights.uniform(k))
    h = _leg_entropies(supp, res.probs)
    lp = te._cut_lp([h], k)
    assert lp.success
    assert lp.x[k] in h
    assert 0.0 <= lp.x[k] - h.min() <= 2 * np.spacing(h.min())
    assert -lp.ineqlin.marginals[0] == 1.0
    assert res.value - (h.min() - 1e-12 * k) <= te.MINIMAX_CUT_TOL
    assert res.value - (lp.x[k] - 1e-12 * k) <= te.MINIMAX_CUT_TOL

    calls = _counted_linprog(monkeypatch)
    max_min_entropy(supp)
    assert calls == []


def test_several_cuts_still_solve_the_lp(monkeypatch):
    calls = _counted_linprog(monkeypatch)
    max_min_entropy(FIVE_POINTS)
    assert calls


def entropy_trick_max(x, y):
    """max over p in [0, 1] of p x + (1 - p) y + h(p) and its maximiser,
    by golden-section search (the objective is concave in p)."""
    def objective(p):
        return p * x + (1 - p) * y + binary_entropy(p)

    ratio = (math.sqrt(5) - 1) / 2
    lo, hi = 0.0, 1.0
    for _ in range(80):
        a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if objective(a) < objective(b):
            lo = a
        else:
            hi = b
    p = (lo + hi) / 2
    return objective(p), p


def test_entropy_trick():
    # the paper's entropy trick: max_p [p x + (1-p) y + h(p)] = log2(2^x + 2^y)
    for x, y, total in ((0, 0, 2.0), (1, 1, 4.0), (1, 2, 6.0)):
        value, p = entropy_trick_max(x, y)
        assert 2.0**value == pytest.approx(total, abs=1e-9)
        assert p == pytest.approx(2.0**x / total, abs=1e-6)


@settings(max_examples=20, deadline=None)
@given(st.floats(0, 4), st.floats(0, 4))
def test_entropy_trick_identity(x, y):
    value, _ = entropy_trick_max(x, y)
    assert 2.0**value == pytest.approx(2.0**x + 2.0**y, abs=1e-9)
