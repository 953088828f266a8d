"""Golden records of both support-functional searches.

`search_golden.json` holds `to_records()` of the upper and the lower search
for fixed tensors, domains, theta and seeds.  The searches are exact over Q
and F_p, so every record must come back unchanged, except that the lower
search may solve fewer entropy programs than recorded (it may skip repeated
supports).  Regenerate with `PYTHONPATH=src python tests/test_search_golden.py`
only when a change to the search results is intended.
"""

import json
import os

import pytest

import tenspect as ts
from tenspect.entropy import ThetaWeights
from tenspect.support_functionals import (BasisSearchOptions,
                                          lower_support_functional,
                                          upper_support_functional)
from tenspect.tensors import parse_domain

GOLDEN = os.path.join(os.path.dirname(__file__), "search_golden.json")
FAMILIES = ["W", "cw:2", "cw:3", "unit:3", "matmul:2,2,2", "polymul:4"]
THETAS = {"uniform": ThetaWeights.uniform(3),
          "half": ThetaWeights.from_legs([0.5, 0.25, 0.25])}


def _cases():
    cases = [(spec, dom) for spec in FAMILIES for dom in ("Q", "Fp:5")]
    cases.append(("capset:3,3", "Fp:3"))
    out = []
    for spec, dom in cases:
        for name in THETAS:
            out.append((f"{spec} {dom} {name}", spec, dom, name, len(out)))
    return out


def _run(spec, dom, theta_name, seed):
    domain = None if spec.startswith("capset") else parse_domain(dom)
    t = ts.build_family(ts.parse_family(spec), domain)
    opts = BasisSearchOptions(restarts=4, steps=40, seed=seed)
    theta = THETAS[theta_name]
    return {"upper": upper_support_functional(t, theta, opts).to_records(),
            "lower": lower_support_functional(t, theta, opts).to_records()}


def _same(got, want):
    if isinstance(want, float) and isinstance(got, float):
        return got == pytest.approx(want, rel=1e-12, abs=1e-12)
    if isinstance(want, dict) and isinstance(got, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k]) for k in want)
    if isinstance(want, list) and isinstance(got, list):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    return got == want


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key,spec,dom,theta_name,seed", _cases(),
                         ids=[c[0] for c in _cases()])
def test_search_matches_golden(golden, key, spec, dom, theta_name, seed):
    want = golden[key]
    got = json.loads(json.dumps(_run(spec, dom, theta_name, seed)))
    assert got["lower"]["evaluations"] <= want["lower"]["evaluations"]
    got["lower"]["evaluations"] = want["lower"]["evaluations"]
    for side in ("upper", "lower"):
        assert _same(got[side], want[side]), (side, got[side], want[side])


if __name__ == "__main__":
    records = {key: _run(spec, dom, name, seed) for key, spec, dom, name, seed in _cases()}
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
