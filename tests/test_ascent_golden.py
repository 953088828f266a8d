"""Golden records of the entropy ascent.

`ascent_golden.json` holds, for fixed tensors, theta, options and seeds, the
value, the certified upper bound, the start values, the trace length and the
stop reason of `lower_quantum_functional`.  A change to how the ascent
evaluates its objective must leave every iterate in place: the trace length
and stop must come back equal and the values within 1e-12.  Regenerate with
`PYTHONPATH=src python tests/test_ascent_golden.py` only when a change to the
ascent's iterates is intended.

History of the re-captures: the operator-scaling sweeps (the first one); the
early stop at the certified support bound; the Newton steps on the
Kempf-Ness potential, which took the random records that end at "bound"
from 9-133 trace entries to 5-8 and kept the 2x2x2 uniform and skew ones,
where the sweep already converges fast, at 4; and the Newton steps on the
objective itself ("entropy_newton"), which replace the gradient steps
wherever every weighted side's marginal has full rank: "random5 2x2x2x2 bip"
went from 98 trace entries to 11 and "random5 2x2x2x2 multi" from 151 at the
iteration cap to 10 at "gradient", each with a higher value, and no other
record moved.

`ascent_bounds.json` keeps the values and start values frozen before the
first such re-capture (the first-order ascent, before scaling sweeps).  It is
never regenerated.  Every value is a lower bound on log2 F_theta, so a
re-captured value or start value may not fall below its frozen one by more
than 1e-12.  The starts end after the first one that reaches the certified
upper bound, so a record may hold fewer start values than its frozen one
only if its value is within BOUND_TOL of that bound.  The "multi" theta of
the 4-leg tensor weights only sides with two legs on both sides, which get
no scaling sweep; its frozen record also holds the trace length of the
first-order ascent, and its entropy_newton steps must end in fewer entries.
"""

import functools
import json
import os

import numpy as np
import pytest

import tenspect as ts
from tenspect.entropy import ThetaWeights
from tenspect.quantum import BOUND_TOL, AscentOptions, lower_quantum_functional

GOLDEN = os.path.join(os.path.dirname(__file__), "ascent_golden.json")
BOUNDS = os.path.join(os.path.dirname(__file__), "ascent_bounds.json")
FAMILY_OPTIONS = dict(starts=3, max_iter=400)
RANDOM_OPTIONS = dict(starts=2, max_iter=150)
RANDOM_DIMS = [(2, 2, 2), (2, 3, 2), (3, 3, 3), (2, 3, 4), (4, 4, 3), (2, 2, 2, 2)]


def _thetas(k):
    skew = [0.5, 0.25, 0.25] if k == 3 else [0.4, 0.2, 0.2, 0.2]
    bip = ({frozenset({0, 1}): 0.5, frozenset({0}): 0.5} if k == 3 else
           {frozenset({0, 1}): 0.5, frozenset({0, 2}): 0.25, frozenset({0}): 0.25})
    out = {"uniform": ThetaWeights.uniform(k),
           "skew": ThetaWeights.from_legs(skew),
           "bip": ThetaWeights.from_bipartitions(bip, k)}
    if k == 4:
        out["multi"] = ThetaWeights.from_bipartitions(
            {frozenset({0, 1}): 0.5, frozenset({0, 2}): 0.5}, k)
    return out


def _random_tensor(index):
    dims = RANDOM_DIMS[index]
    rng = np.random.default_rng(1000 + index)
    arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return ts.Tensor(dims, ts.COMPLEXFLOAT, arr)


def _cases():
    out = [(f"{spec} uniform", spec, "uniform") for spec in ("W", "cw:2", "unit:3")]
    for index, dims in enumerate(RANDOM_DIMS):
        for name in _thetas(len(dims)):
            out.append((f"random{index} {'x'.join(map(str, dims))} {name}", index, name))
    return out


def _run(source, theta_name):
    if isinstance(source, str):
        t = ts.build_family(ts.parse_family(source))
        opts = AscentOptions(seed=0, **FAMILY_OPTIONS)
    else:
        t = _random_tensor(source)
        opts = AscentOptions(seed=source, **RANDOM_OPTIONS)
    res = lower_quantum_functional(t, _thetas(t.k)[theta_name], opts)
    return {"value": res.value, "upper": res.upper,
            "start_values": list(res.start_values),
            "trace_len": len(res.trace), "stop": res.stop}


def _load(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def _record(key):
    _, source, theta_name = next(c for c in _cases() if c[0] == key)
    return _run(source, theta_name)


def _assert_same(got, want):
    assert got["trace_len"] == want["trace_len"]
    assert got["value"] == pytest.approx(want["value"], rel=0, abs=1e-12)
    assert got["start_values"] == pytest.approx(want["start_values"], rel=0, abs=1e-12)


KEYS = [c[0] for c in _cases()]


@pytest.mark.parametrize("key", KEYS)
def test_ascent_matches_golden(key):
    got, want = _record(key), _load(GOLDEN)[key]
    _assert_same(got, want)
    assert got["stop"] == want["stop"]
    assert got["upper"] == pytest.approx(want["upper"], rel=0, abs=1e-12)


@pytest.mark.parametrize("key", KEYS)
def test_ascent_keeps_frozen_bounds(key):
    old = _load(BOUNDS)["lower_quantum_functional"][key]
    got = _record(key)
    assert got["value"] >= old["value"] - 1e-12
    assert len(got["start_values"]) <= len(old["start_values"])
    if len(got["start_values"]) < len(old["start_values"]):
        assert got["value"] >= got["upper"] - BOUND_TOL
    for new, frozen in zip(got["start_values"], old["start_values"]):
        assert new >= frozen - 1e-12


def test_theta_without_sweep_takes_entropy_newton_steps():
    key = "random5 2x2x2x2 multi"
    frozen = _load(BOUNDS)["lower_quantum_functional"][key]
    t = _random_tensor(5)
    res = lower_quantum_functional(t, _thetas(t.k)["multi"],
                                   AscentOptions(seed=5, **RANDOM_OPTIONS))
    assert set(res.steps) == {"entropy_newton"}
    assert len(res.trace) < frozen["trace_len"]
    assert res.value >= frozen["value"] - 1e-12


if __name__ == "__main__":
    records = {key: _run(source, name) for key, source, name in _cases()}
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
