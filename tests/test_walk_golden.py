"""Golden records of support searches whose walks keep steps.

No search in `search_golden.json` or `complex_search_golden.json` keeps a
walk step (the pool settles, or no drawn step gains), so those records pin
neither the kept steps nor the basis replayed from them.
`walk_golden.json` holds `to_records()` of the upper and the lower search
on seeded exact tensors where a walk does move: dims from
`integers(2, 4, size=3)`, entries
`integers(-2, 3, size=dims)` on about 60 % of the indices, and theta from
`dirichlet(ones(3))`, all drawn from `default_rng(seed)`, over Q, F_5 and
F_3, searched with 4 restarts of 40 steps at the same seed.  The records
are exact but for the entropies, compared to 1e-12 as in
`test_search_golden.py`.  Regenerate with
`PYTHONPATH=src python tests/test_walk_golden.py` only when a change to the
walk's results is intended; as there, only the fields that `_same` rejects
are rewritten.
"""

import functools
import json
import os

import numpy as np
import pytest

import tenspect as ts
from tenspect.entropy import ThetaWeights
from tenspect.support_functionals import (BasisSearchOptions, _SearchState,
                                          lower_support_functional,
                                          upper_support_functional)
from tenspect.tensors import parse_domain
from test_search_golden import _kept, _same

GOLDEN = os.path.join(os.path.dirname(__file__), "walk_golden.json")
# seed -> the search whose walk keeps a step on it, over at least one field
WALKS = {0: "lower", 1: "lower", 12: "upper", 22: "upper", 42: "upper", 53: "upper"}
DOMAINS = ("Q", "Fp:5", "Fp:3")
SEARCHES = {"upper": upper_support_functional, "lower": lower_support_functional}


def _tensor(seed: int, label: str) -> tuple[ts.Tensor, ThetaWeights]:
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
    entries = rng.integers(-2, 3, size=dims) * (rng.random(dims) < 0.6)
    theta = ThetaWeights.from_legs(rng.dirichlet(np.ones(3)))
    return ts.Tensor(dims, parse_domain(label), entries), theta


def _cases():
    return [(f"seed {seed} {label}", seed, label) for seed in WALKS for label in DOMAINS]


@functools.lru_cache(maxsize=None)
def _record(seed: int, label: str) -> dict:
    """Both searches' records as JSON reads them back; callers must not
    change them."""
    t, theta = _tensor(seed, label)
    opts = BasisSearchOptions(restarts=4, steps=40, seed=seed)
    return json.loads(json.dumps({side: search(t, theta, opts).to_records()
                                  for side, search in SEARCHES.items()}))


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("key,seed,label", _cases(), ids=[c[0] for c in _cases()])
def test_walk_matches_golden(golden, key, seed, label):
    got = _record(seed, label)
    for side in SEARCHES:
        assert _same(got[side], golden[key][side]), (side, got[side], golden[key][side])


@pytest.mark.parametrize("seed", list(WALKS))
def test_golden_walks_keep_steps(monkeypatch, seed):
    """On each seed the search named in WALKS keeps at least one step
    (`_SearchState.apply_transvection` runs) over its three fields."""
    apply, kept = _SearchState.apply_transvection, []

    def applying(state, *move):
        kept.append(move)
        return apply(state, *move)

    monkeypatch.setattr(_SearchState, "apply_transvection", applying)
    for label in DOMAINS:
        t, theta = _tensor(seed, label)
        SEARCHES[WALKS[seed]](t, theta, BasisSearchOptions(restarts=4, steps=40, seed=seed))
    assert kept, seed


@pytest.mark.parametrize("restarts,steps", [(3, 30), (6, 7)])
def test_restarts_continue_one_walk(restarts, steps):
    """A restart starts where the last one stopped, so `restarts` walks of
    `steps` draws are one walk of `restarts * steps` draws: the same record
    for both searches on every seed and field here."""
    for _, seed, label in _cases():
        t, theta = _tensor(seed, label)
        for search in SEARCHES.values():
            split = search(t, theta, BasisSearchOptions(restarts=restarts, steps=steps, seed=seed))
            whole = search(t, theta, BasisSearchOptions(restarts=1, steps=restarts * steps,
                                                        seed=seed))
            assert split.to_records() == whole.to_records(), (seed, label, search.__name__)


if __name__ == "__main__":
    stored = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="ascii") as fh:
            stored = json.load(fh)
    records = {key: _kept(_record(seed, label), stored.get(key)) for key, seed, label in _cases()}
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")
