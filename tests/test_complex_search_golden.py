"""Golden records of both support-functional searches over C.

`complex_search_golden.json` holds, for fixed complex tensors, theta and
seeds, `to_records()` of the upper and the lower search, and the
sparsifier's coefficient array and inverse basis maps as float hex.  The
searches run the same float operations every time, so the search records
must come back unchanged (floats to 1e-12, as in `test_search_golden.py`)
and the sparsifier's arrays bit for bit.  Regenerate with
`PYTHONPATH=src python tests/test_complex_search_golden.py` only when a
change to the complex results is intended: as in `test_search_golden.py`,
it rewrites only the fields that `_same` rejects.  The upper and lower
values may not cross the frozen bounds of `search_bounds.json`.
"""

import functools
import json
import os

import numpy as np
import pytest

import tenspect as ts
from tenspect.entropy import ThetaWeights
from tenspect.support_functionals import (BasisSearchOptions, _SearchState,
                                          _sparsify, lower_support_functional,
                                          support_at_basis,
                                          upper_support_functional)
from test_search_golden import BOUNDS, _keeps_bounds, _kept, _same

GOLDEN = os.path.join(os.path.dirname(__file__), "complex_search_golden.json")
FAMILIES = ["W", "cw:2", "unit:3"]
SHAPES = [(2, 2, 2), (2, 3, 3), (3, 3, 3), (2, 2, 4)]
THETAS = {"uniform": ThetaWeights.uniform(3),
          "half": ThetaWeights.from_legs([0.5, 0.25, 0.25])}


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _tensor(name: str, seed: int) -> ts.Tensor:
    """A named family converted to C, or a seeded random ("random", 60 %
    of the entries nonzero) or rank-2 ("lowrank") complex tensor."""
    if name in FAMILIES:
        return ts.convert(ts.build_family(ts.parse_family(name)), ts.COMPLEXFLOAT)
    kind, shape = name.split()
    dims = tuple(int(d) for d in shape.split("x"))
    rng = np.random.default_rng(seed)
    if kind == "random":
        arr = _complex(rng, dims) * (rng.random(dims) < 0.6)
    else:
        arr = sum(np.einsum("i,j,l->ijl", *(_complex(rng, d) for d in dims))
                  for _ in range(2))
    return ts.Tensor(dims, ts.COMPLEXFLOAT, arr)


def _names():
    shapes = ["x".join(str(d) for d in s) for s in SHAPES]
    return FAMILIES + [f"{kind} {s}" for kind in ("random", "lowrank") for s in shapes]


def _cases():
    out = []
    for i, name in enumerate(_names()):
        for theta_name in THETAS:
            out.append((f"{name} {theta_name}", name, theta_name, i))
    return out


def _hex(arr) -> list[str]:
    return [f"{z.real.hex()} {z.imag.hex()}" for z in np.asarray(arr, dtype=complex).flat]


def _run(name, theta_name, seed):
    t = _tensor(name, seed)
    opts = BasisSearchOptions(restarts=2, steps=20, seed=seed)
    theta = THETAS[theta_name]
    sparse = _sparsify(_SearchState.start(t))
    return {"upper": upper_support_functional(t, theta, opts).to_records(),
            "lower": lower_support_functional(t, theta, opts).to_records(),
            "sparse_coeff": _hex(sparse.coeff),
            "sparse_inv_maps": [_hex(m) for m in sparse.basis().inverses()]}


@functools.lru_cache(maxsize=None)
def _record(*args):
    """`_run` as JSON reads it back, once per case; callers must not change it."""
    return json.loads(json.dumps(_run(*args)))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key,name,theta_name,seed", _cases(),
                         ids=[c[0] for c in _cases()])
def test_complex_search_matches_golden(golden, key, name, theta_name, seed):
    want = golden[key]
    got = _record(name, theta_name, seed)
    assert got["sparse_coeff"] == want["sparse_coeff"]
    assert got["sparse_inv_maps"] == want["sparse_inv_maps"]
    for side in ("upper", "lower"):
        assert _same(got[side], want[side]), (side, got[side], want[side])


@pytest.mark.parametrize("key,name,theta_name,seed", _cases(),
                         ids=[c[0] for c in _cases()])
def test_complex_search_keeps_frozen_bounds(key, name, theta_name, seed):
    with open(BOUNDS, encoding="ascii") as fh:
        bound = json.load(fh)["complex_search_golden"][key]
    _keeps_bounds(_record(name, theta_name, seed), bound)


@pytest.mark.parametrize("key,name,theta_name,seed", _cases(),
                         ids=[c[0] for c in _cases()])
def test_complex_basis_reproduces_support(key, name, theta_name, seed):
    """The returned basis, replayed from the accepted steps, gives back the
    returned support, and each leg's basis matrix inverts its replayed map
    to 1e-12."""
    t = _tensor(name, seed)
    opts = BasisSearchOptions(restarts=2, steps=20, seed=seed)
    for search in (upper_support_functional, lower_support_functional):
        rep = search(t, THETAS[theta_name], opts)
        assert support_at_basis(t, rep.basis).points == rep.support.points
        for mat, inv in zip(rep.basis.matrices, rep.basis.inverses()):
            assert np.abs(mat @ inv - np.eye(len(mat))).max() <= 1e-12


if __name__ == "__main__":
    with open(GOLDEN, encoding="ascii") as fh:
        stored = json.load(fh)
    records = {key: _kept(_record(name, theta_name, seed), stored.get(key))
               for key, name, theta_name, seed in _cases()}
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
