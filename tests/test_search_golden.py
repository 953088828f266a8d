"""Golden records of both support-functional searches.

`search_golden.json` holds `to_records()` of the upper and the lower search
for fixed tensors, domains, theta and seeds.  Besides the named families,
two cases run on a rational tensor with non-integer entries, the second
with a rational extra basis, so that the coefficients and the inverse
basis maps carry a common denominator.  The searches are exact over Q
and F_p, so every record, the number of entropy programs solved included,
must come back unchanged.  Regenerate with `PYTHONPATH=src python tests/test_search_golden.py`
only when a change to the search results is intended: it rewrites only the
fields that `_same` rejects and keeps every other stored field as it is,
so floats a few ulps off do not churn.

`search_bounds.json` keeps the upper search's `rho_upper` and the lower
search's `rho_lower` of every record here and in
`complex_search_golden.json`, frozen before the first re-capture that moved
a value.  A re-captured lower value may not fall by more than 1e-12, nor an
upper value rise by more than 1e-12.  It is never regenerated.
"""

import functools
import json
import math
import os
from fractions import Fraction

import pytest

import tenspect as ts
import tenspect.support_functionals as sf
from tenspect.entropy import ThetaWeights
from tenspect.support_functionals import (BasisSearchOptions, _SearchState,
                                          lower_support_functional,
                                          support_at_basis,
                                          upper_support_functional)
from tenspect.tensors import BasisTuple, parse_domain

GOLDEN = os.path.join(os.path.dirname(__file__), "search_golden.json")
BOUNDS = os.path.join(os.path.dirname(__file__), "search_bounds.json")
FAMILIES = ["W", "cw:2", "cw:3", "unit:3", "matmul:2,2,2", "polymul:4"]
THETAS = {"uniform": ThetaWeights.uniform(3),
          "half": ThetaWeights.from_legs([0.5, 0.25, 0.25])}




def _rational_basis():
    mats = [[[1, Fraction(1, 2)], [Fraction(-1, 3), 1]],
            [[Fraction(2, 3), 0], [Fraction(1, 4), 1]],
            [[1, Fraction(-3, 2)], [Fraction(1, 5), Fraction(1, 2)]]]
    return BasisTuple.make(mats, ts.RATIONAL)


def _rational_w():
    """W / 2 plus a 1/3 entry, written in the standard basis although it is
    sparse in `_rational_basis()`: dense coefficients with denominators."""
    vals = {idx: Fraction(1, 2) for idx in ts.w_tensor().nonzero_indices()}
    vals[(0, 0, 0)] = Fraction(1, 3)
    sparse = ts.from_nonzeros((2, 2, 2), ts.RATIONAL, vals)
    return ts.restrict(sparse, _rational_basis().matrices)


# spec -> (tensor, extra bases) for the cases outside the named families
RATIONAL_CASES = {"W/2+1/3": lambda: (_rational_w(), ()),
                  "W/2+1/3 extra": lambda: (_rational_w(), (_rational_basis(),))}


def _cases():
    cases = [(spec, dom) for spec in FAMILIES for dom in ("Q", "Fp:5")]
    cases.append(("capset:3,3", "Fp:3"))
    cases += [(spec, "Q") for spec in RATIONAL_CASES]
    out = []
    for spec, dom in cases:
        for name in THETAS:
            out.append((f"{spec} {dom} {name}", spec, dom, name, len(out)))
    return out


def _reports(spec, dom, theta_name, seed):
    if spec in RATIONAL_CASES:
        t, extra = RATIONAL_CASES[spec]()
    else:
        domain = None if spec.startswith("capset") else parse_domain(dom)
        t, extra = ts.build_family(ts.parse_family(spec), domain), ()
    opts = BasisSearchOptions(restarts=4, steps=40, seed=seed, extra_bases=extra)
    theta = THETAS[theta_name]
    return t, {"upper": upper_support_functional(t, theta, opts),
               "lower": lower_support_functional(t, theta, opts)}


def _run(spec, dom, theta_name, seed):
    _, reports = _reports(spec, dom, theta_name, seed)
    return {side: rep.to_records() for side, rep in reports.items()}


@functools.lru_cache(maxsize=None)
def _record(*args):
    """`_run` as JSON reads it back, once per case for the golden and the
    bounds checks; callers must not change it."""
    return json.loads(json.dumps(_run(*args)))


def _same(got, want):
    if isinstance(want, float) and isinstance(got, float):
        return got == pytest.approx(want, rel=1e-12, abs=1e-12)
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    return got == want


def _kept(got, want):
    """got, with every field that `_same` accepts taken from the stored want."""
    if _same(got, want):
        return want
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return {k: _kept(got[k], want[k]) for k in got}
    return got


def _keeps_bounds(got, bound):
    """The lower search's value has not fallen, nor the upper search's risen,
    by more than 1e-12 from the frozen bound."""
    assert got["lower"]["rho_lower"] >= bound["rho_lower"] - 1e-12
    assert got["upper"]["rho_upper"] <= bound["rho_upper"] + 1e-12


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key,spec,dom,theta_name,seed", _cases(),
                         ids=[c[0] for c in _cases()])
def test_search_matches_golden(golden, key, spec, dom, theta_name, seed):
    want = golden[key]
    got = _record(spec, dom, theta_name, seed)
    for side in ("upper", "lower"):
        assert _same(got[side], want[side]), (side, got[side], want[side])


@pytest.mark.parametrize("key,spec,dom,theta_name,seed", _cases(),
                         ids=[c[0] for c in _cases()])
def test_search_keeps_frozen_bounds(key, spec, dom, theta_name, seed):
    with open(BOUNDS, encoding="ascii") as fh:
        bound = json.load(fh)["search_golden"][key]
    _keeps_bounds(_record(spec, dom, theta_name, seed), bound)


def test_diagonal_upper_walk_builds_no_candidate(golden, monkeypatch):
    """On unit:3 every transvection adds a support point and removes none,
    so the upper walk passes every step over before building its state:
    the search builds as many states as its pool alone, and its record is
    the golden one."""
    key, spec, dom, theta_name, seed = next(c for c in _cases() if c[0] == "unit:3 Q uniform")
    t = ts.build_family(ts.parse_family(spec), parse_domain(dom))
    init, built = _SearchState.__init__, []

    def counting(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(_SearchState, "__init__", counting)
    counts = []
    for restarts, steps in ((0, 0), (4, 40)):
        built.clear()
        opts = BasisSearchOptions(restarts=restarts, steps=steps, seed=seed)
        rep = upper_support_functional(t, THETAS[theta_name], opts)
        counts.append(len(built))
    assert counts[0] == counts[1]
    assert _same(json.loads(json.dumps(rep.to_records())), golden[key]["upper"])


def test_bracket_screen_changes_no_decision(monkeypatch, drawn):
    """The walk solves a candidate's entropy program only when its bracket
    cannot decide the step.  With a bracket that never decides, every
    candidate is solved, and every record is the same; the screen solves
    strictly fewer programs on cw:3.  matmul:2,2,2 and polymul:4 start at a
    tight support over Q and F_5, so they draw no step and solve no walk
    candidate."""
    cases = {c[0]: c for c in _cases()}
    solve, solves = sf.max_H_theta, []

    def counting(*args, **kwargs):
        solves.append(args[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(sf, "max_H_theta", counting)
    for key in ("cw:3 Q uniform", "cw:3 Fp:5 uniform", "matmul:2,2,2 Q half",
                "polymul:4 Fp:5 uniform", "capset:3,3 Fp:3 uniform", "W/2+1/3 extra Q half"):
        args = cases[key][1:]
        solves.clear()
        drawn.clear()
        screened = _run(*args)
        n_screened, n_drawn = len(solves), len(drawn)
        solves.clear()
        with monkeypatch.context() as m:
            m.setattr(sf, "h_theta_bracket", lambda supp, theta: (-math.inf, math.inf))
            assert _run(*args) == screened, key
        if key.startswith("cw:3"):
            assert n_screened < len(solves), (key, n_screened, len(solves))
        if key.startswith(("matmul", "polymul")):
            assert n_drawn == 0, (key, n_drawn)


@pytest.mark.parametrize("key,spec,dom,theta_name,seed", _cases(),
                         ids=[c[0] for c in _cases()])
def test_rational_basis_is_exact(key, spec, dom, theta_name, seed):
    """The returned basis, replayed from the accepted steps, reproduces the
    returned support; over Q its entries are Fractions."""
    t, reports = _reports(spec, dom, theta_name, seed)
    for rep in reports.values():
        if dom == "Q":
            assert all(isinstance(v, Fraction) for mat in rep.basis.matrices
                       for v in mat.flat)
        assert support_at_basis(t, rep.basis).points == rep.support.points


if __name__ == "__main__":
    with open(GOLDEN, encoding="ascii") as fh:
        stored = json.load(fh)
    records = {key: _kept(_record(spec, dom, name, seed), stored.get(key))
               for key, spec, dom, name, seed in _cases()}
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
