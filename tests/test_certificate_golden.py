"""Golden records of the isotypic-projector certificate.

`certificate_golden.json` holds, for seeded random complex tensors, theta and
tensor powers n, the value, the surviving count and the witness of
`upper_quantum_certificate`. A change to how the projectors are applied must
leave every surviving tuple in place: the count and the witness must come
back equal and the value within 1e-12. Regenerate with
`PYTHONPATH=src python tests/test_certificate_golden.py` only when a change
to the certificate's answers is intended.
"""

import json
import os

import numpy as np
import pytest

import tenspect as ts
from tenspect.entropy import ThetaWeights
from tenspect.quantum import upper_quantum_certificate

GOLDEN = os.path.join(os.path.dirname(__file__), "certificate_golden.json")
RANDOM_DIMS = [(2, 2, 3), (2, 3, 3), (2, 2, 2, 2), (3, 3, 3)]
# (tensor index, theta name, power)
CASES = ([(index, name, 3) for index in (0, 1, 2) for name in ("legs", "bip")]
         + [(0, "legs", 4), (0, "bip", 4), (1, "legs", 4), (2, "legs", 4),
            (2, "bip", 4), (3, "bip1", 4)])


def _theta(name, k):
    if name == "legs":
        return ThetaWeights.uniform(k)
    if name == "bip":
        return ThetaWeights.from_bipartitions(
            {frozenset({0}): 0.5, frozenset({0, 1}): 0.5}, k)
    return ThetaWeights.from_bipartitions({frozenset({0}): 1.0}, k)


def _random_tensor(index):
    dims = RANDOM_DIMS[index]
    rng = np.random.default_rng(3000 + index)
    arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    return ts.Tensor(dims, ts.COMPLEXFLOAT, arr)


def _key(index, name, n):
    return f"random{index} {'x'.join(map(str, RANDOM_DIMS[index]))} {name} n={n}"


def _run(index, name, n):
    t = _random_tensor(index)
    res = upper_quantum_certificate(t, _theta(name, t.k), n)
    return {"value": res.value, "surviving": res.surviving,
            "witness": [[list(side), list(lam)] for side, lam in res.witness]}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("index,name,n", CASES, ids=[_key(*c) for c in CASES])
def test_certificate_matches_golden(golden, index, name, n):
    want = golden[_key(index, name, n)]
    got = _run(index, name, n)
    assert got["surviving"] == want["surviving"]
    assert got["witness"] == want["witness"]
    assert got["value"] == pytest.approx(want["value"], rel=0, abs=1e-12)


if __name__ == "__main__":
    records = {_key(*case): _run(*case) for case in CASES}
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
