"""Golden records of the two minimisations over the theta simplex.

`theta_golden.json` holds, for fixed supports, tensors and seeds:

* `max_min_entropy`: value, dual value, gap, theta and the number of inner
  solves (`entropy.max_H_theta` calls);
* `asympt_slicerank`: value, route, theta and the evaluated
  (theta, value) pairs of the quantum route (none on the support route);
* the JSON text of two CLI calls that run these minimisations.

A change to how the cutting-plane loop is organised must leave these in
place: floats within 1e-12, equal counts and list lengths, and the same CLI
text byte for byte.  The exception is the theta of a minimax and of a
support-route slice rank.  That theta is a witness, not a claim: where the
optimum is not unique, a rounding-level change of the inner solves picks
another one.  So it is checked for what it certifies, not pinned.  It lies
on the simplex, and `max_H_theta` at it gives value + gap at most the
record's dual value + 1e-12 (for a slice rank, log2 of its value, the
minimax's primal value).  `test_minimax_checks_catch_a_changed_record`
shows what these checks catch.

Regenerate only the sections whose change is intended, e.g.
`PYTHONPATH=src python tests/test_theta_golden.py asympt_slicerank`:
named sections (`max_min_entropy`, `asympt_slicerank`, `cli`) are
re-captured and the others are kept as read from the file; with no names,
all three are re-captured.

`minimax_bounds.json` keeps the `max_min_entropy` value, dual value and gap
frozen before the first such re-capture (the primal that SLSQP polished); a
regenerated golden file must not weaken them: the value (a lower bound)
falls by at most 1e-12, the dual value (an upper bound) rises by at most
1e-12 and the gap does not grow.  It is never regenerated.

`ascent_bounds.json` keeps the `asympt_slicerank` values frozen before the
first re-capture of those records (the first-order ascent, before scaling
sweeps); a re-captured value may not fall by more than 1e-12.
"""

import functools
import itertools
import json
import math
import os
import sys
from unittest import mock

import numpy as np
import pytest

import tenspect as ts
import tenspect.entropy as te
from tenspect.asymptotics import (asympt_slicerank, modular_sum_support,
                                  reduced_polymult_support)
from tenspect.cli import run
from tenspect.quantum import AscentOptions

GOLDEN = os.path.join(os.path.dirname(__file__), "theta_golden.json")
BOUNDS = os.path.join(os.path.dirname(__file__), "minimax_bounds.json")
ASCENT_BOUNDS = os.path.join(os.path.dirname(__file__), "ascent_bounds.json")
FAMILIES = ["W", "cw:2", "cw:3", "unit:3", "matmul:2,2,2", "polymul:3", "dicke:2,2"]
RANDOM_SUPPORTS = 23
SLICERANK_FAMILIES = ["W", "unit:3", "cw:2"]
SLICERANK_DIMS = [(2, 2, 2), (2, 3, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2), (2, 3, 3)]
SLICERANK_OPTIONS = dict(starts=2, max_iter=200)
CLI_CALLS = {
    "slicerank W": ["slicerank", "--family", "W", "--seed", "5", "--starts", "2",
                    "--iters", "200", "--format", "json"],
    "slicerank cw:2": ["slicerank", "--family", "cw:2", "--starts", "2",
                       "--iters", "200", "--format", "json"],
    "subrank-asymptotic W": ["subrank-asymptotic", "--family", "W", "--format", "json"],
    "subrank-asymptotic polymul:4": ["subrank-asymptotic", "--family", "polymul:4",
                                     "--format", "json"],
}


def _random_support(index):
    rng = np.random.default_rng(3000 + index)
    k = 3 if index < 15 else 4
    bounds = tuple(int(b) for b in rng.integers(3, 5 if k == 3 else 4, size=k))
    npts = int(rng.integers(5, 11))
    pts = set()
    while len(pts) < npts:
        pts.add(tuple(int(rng.integers(b)) for b in bounds))
    return ts.SupportSet(bounds, tuple(sorted(pts)))


def _minimax_supports():
    out = {f"polymult {n}": reduced_polymult_support(n) for n in range(2, 9)}
    for spec in FAMILIES:
        out[spec] = ts.SupportSet.from_tensor(ts.build_family(ts.parse_family(spec)))
    out["modsum 3"] = modular_sum_support(3)
    out["modsum 4"] = modular_sum_support(4)
    for index in range(RANDOM_SUPPORTS):
        out[f"random{index}"] = _random_support(index)
    # ends on the repeated-theta rule after 27 rounds
    out["five points"] = ts.SupportSet((3, 3, 3), ((0, 0, 0), (1, 1, 1), (1, 2, 0),
                                                  (2, 0, 1), (2, 1, 2)))
    return out


def _slicerank_tensors():
    out = {spec: ts.build_family(ts.parse_family(spec)) for spec in SLICERANK_FAMILIES}
    for index, dims in enumerate(SLICERANK_DIMS):
        rng = np.random.default_rng(4000 + index)
        arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        arr = arr * (rng.random(dims) < 0.5)
        out[f"random{index} {'x'.join(map(str, dims))}"] = ts.Tensor(dims, ts.COMPLEXFLOAT, arr)
    return out


def _run_minimax(supp):
    with mock.patch.object(te, "max_H_theta", wraps=te.max_H_theta) as inner:
        res = te.max_min_entropy(supp)
    return {"value": res.value, "dual_value": res.dual_value, "gap": res.gap,
            "theta": res.theta.to_records()["weights"], "inner_calls": inner.call_count}


def _run_slicerank(t, index):
    res = asympt_slicerank(t, AscentOptions(seed=index, **SLICERANK_OPTIONS))
    return {"value": res.value, "route": res.route,
            "theta": res.theta.to_records()["weights"],
            "quantum_values": [[list(th), v] for th, v in res.quantum_values]}


def _run_cli(argv):
    code, out = run(argv)
    assert code == 0, out
    return out


def _close(got, want):
    if isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            _close(g, w)
    elif isinstance(want, str):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=0, abs=1e-12)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _minimax_record(key):
    return _run_minimax(_minimax_supports()[key])


def _check_theta(supp, theta, bound):
    """theta lies on the simplex and certifies the upper bound: max_H_theta at
    theta gives value + gap <= bound + 1e-12."""
    assert len(theta) == supp.k and min(theta) >= 0.0
    assert sum(theta) == pytest.approx(1.0, rel=0, abs=1e-12)
    res = te.max_H_theta(supp, te.ThetaWeights.from_legs(theta))
    assert res.value + res.gap <= bound + 1e-12


def _check_minimax(supp, got, want):
    """got, a minimax record of supp, against the golden record want."""
    assert got["inner_calls"] == want["inner_calls"]
    for name in ("value", "dual_value", "gap"):
        _close(got[name], want[name])
    _check_theta(supp, got["theta"], want["dual_value"])


@pytest.mark.parametrize("key", list(_minimax_supports()))
def test_max_min_entropy_matches_golden(golden, key):
    _check_minimax(_minimax_supports()[key], _minimax_record(key),
                   golden["max_min_entropy"][key])


#: records whose optimal theta is not unique: max_P H_theta(P) is the same at
#: every theta (the legs' values can all be uniform at once), or along an
#: edge of the simplex through the returned theta
NONUNIQUE_THETA = {"cw:2", "unit:3", "matmul:2,2,2", "dicke:2,2", "modsum 3", "modsum 4",
                   "random0", "random2", "random3", "random15",
                   "random4", "random5", "random12", "random13", "random20"}


@pytest.mark.parametrize("key", list(_minimax_supports()))
def test_minimax_checks_catch_a_changed_record(golden, key):
    """The checks of a minimax record catch its dual value lowered by 1e-9,
    also in a re-captured record (theta then certifies less than it), its
    gap raised by 1e-9 and, where the optimal theta is unique, its theta
    moved by 1e-3 along any feasible e_i - e_j."""
    supp, want, got = _minimax_supports()[key], golden["max_min_entropy"][key], _minimax_record(key)
    low = {**got, "dual_value": got["dual_value"] - 1e-9}
    high = {**got, "gap": got["gap"] + 1e-9}
    for record, reference in ((low, want), (low, low), (high, want)):
        with pytest.raises(AssertionError):
            _check_minimax(supp, record, reference)
    if key in NONUNIQUE_THETA:
        return
    theta = np.array(got["theta"])
    for i, j in itertools.permutations(range(supp.k), 2):
        if theta[j] >= 1e-3:
            moved = theta.copy()
            moved[i] += 1e-3
            moved[j] -= 1e-3
            with pytest.raises(AssertionError):
                _check_minimax(supp, {**got, "theta": moved.tolist()}, want)


@pytest.mark.parametrize("key", list(_minimax_supports()))
def test_max_min_entropy_keeps_frozen_bounds(key):
    with open(BOUNDS, encoding="ascii") as fh:
        old = json.load(fh)[key]
    got = _minimax_record(key)
    assert got["value"] >= old["value"] - 1e-12
    assert got["dual_value"] <= old["dual_value"] + 1e-12
    assert got["gap"] <= max(old["gap"], 0.0) + 1e-15


@functools.lru_cache(maxsize=None)
def _slicerank_record(index, key):
    return _run_slicerank(_slicerank_tensors()[key], index)


@pytest.mark.parametrize("index,key", list(enumerate(_slicerank_tensors())))
def test_asympt_slicerank_matches_golden(golden, index, key):
    want = golden["asympt_slicerank"][key]
    got = _slicerank_record(index, key)
    assert got["route"] == want["route"]
    for name in ("value", "quantum_values"):
        _close(got[name], want[name])
    if got["route"] == "support":
        supp = ts.SupportSet.from_tensor(_slicerank_tensors()[key])
        _check_theta(supp, got["theta"], math.log2(want["value"]))
    else:
        _close(got["theta"], want["theta"])


@pytest.mark.parametrize("index,key", list(enumerate(_slicerank_tensors())))
def test_asympt_slicerank_keeps_frozen_bounds(index, key):
    with open(ASCENT_BOUNDS, encoding="ascii") as fh:
        old = json.load(fh)["asympt_slicerank"][key]
    assert _slicerank_record(index, key)["value"] >= old - 1e-12


@pytest.mark.parametrize("key", list(CLI_CALLS))
def test_cli_text_matches_golden(golden, key):
    assert _run_cli(CLI_CALLS[key]) == golden["cli"][key]


#: the sections of the golden file, each with the function that re-captures it
CAPTURES = {
    "max_min_entropy": lambda: {key: _run_minimax(supp)
                                for key, supp in _minimax_supports().items()},
    "asympt_slicerank": lambda: {key: _run_slicerank(t, index) for index, (key, t)
                                 in enumerate(_slicerank_tensors().items())},
    "cli": lambda: {key: _run_cli(argv) for key, argv in CLI_CALLS.items()},
}


if __name__ == "__main__":
    sections = sys.argv[1:] or list(CAPTURES)
    unknown = sorted(set(sections) - set(CAPTURES))
    if unknown:
        sys.exit(f"unknown section(s) {', '.join(unknown)}; choose from {', '.join(CAPTURES)}")
    records = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="ascii") as fh:
            records = json.load(fh)
    for section in sections:
        records[section] = CAPTURES[section]()
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
