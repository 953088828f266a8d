"""Golden records of the entropy ascent.

`ascent_golden.json` holds, for fixed tensors, theta, options and seeds, the
value, the start values and the trace length of `lower_quantum_functional`.
A change to how the ascent evaluates its objective must leave every iterate
in place: the trace length must come back equal and the values within 1e-12.
Regenerate with `PYTHONPATH=src python tests/test_ascent_golden.py` only when
a change to the ascent's iterates is intended.
"""

import json
import os

import numpy as np
import pytest

import tenspect as ts
from tenspect.entropy import ThetaWeights
from tenspect.quantum import AscentOptions, lower_quantum_functional

GOLDEN = os.path.join(os.path.dirname(__file__), "ascent_golden.json")
FAMILY_OPTIONS = dict(starts=3, max_iter=400)
RANDOM_OPTIONS = dict(starts=2, max_iter=150)
RANDOM_DIMS = [(2, 2, 2), (2, 3, 2), (3, 3, 3), (2, 3, 4), (4, 4, 3), (2, 2, 2, 2)]


def _thetas(k):
    skew = [0.5, 0.25, 0.25] if k == 3 else [0.4, 0.2, 0.2, 0.2]
    bip = ({frozenset({0, 1}): 0.5, frozenset({0}): 0.5} if k == 3 else
           {frozenset({0, 1}): 0.5, frozenset({0, 2}): 0.25, frozenset({0}): 0.25})
    return {"uniform": ThetaWeights.uniform(k),
            "skew": ThetaWeights.from_legs(skew),
            "bip": ThetaWeights.from_bipartitions(bip, k)}


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
    return {"value": res.value, "start_values": list(res.start_values),
            "trace_len": len(res.trace)}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key,source,theta_name", _cases(), ids=[c[0] for c in _cases()])
def test_ascent_matches_golden(golden, key, source, theta_name):
    want = golden[key]
    got = _run(source, theta_name)
    assert got["trace_len"] == want["trace_len"]
    assert got["value"] == pytest.approx(want["value"], rel=0, abs=1e-12)
    assert got["start_values"] == pytest.approx(want["start_values"], rel=0, abs=1e-12)


if __name__ == "__main__":
    records = {key: _run(source, name) for key, source, name in _cases()}
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
