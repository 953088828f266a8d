"""Golden records of tightness and degeneration certificates.

The other tests verify the certificates that `check_tight` and
`check_comb_degeneration` return; `certificates_golden.json` pins them,
since the basis search's antichain relabels and the CLI's `tight` and
`degeneration` output are built from them.  It holds:
- "tight": for seeds 0-299, `check_tight`'s report (tight, method, maps or
  forced pair) on a seeded random support, and on a tight one
  `tight_antichain_relabel`'s permutations.  The support is drawn from
  `default_rng(seed)`: 2-4 legs, bounds 1-4, 1-12 points (repeats merged);
- "subset": on the same supports, `check_comb_degeneration`'s maps (or
  null) onto the subset of every other point;
- "modsum": `check_comb_degeneration`'s maps for modular_sum_support(m)
  over reduced_polymult_support(m), m = 3, 4, 5, both relabeled by the
  same per-leg permutations `default_rng(seed).permutation(m)`, seeds
  0-9, as the benchmark draws them.
Every field is an integer, a string or a flag and must come back exactly.
Regenerate with `PYTHONPATH=src python tests/test_certificates_golden.py`
only when a change to the certificates is intended.
"""

import functools
import json
import os

import numpy as np
import pytest

from tenspect.asymptotics import modular_sum_support, reduced_polymult_support
from tenspect.supports import (SupportSet, check_comb_degeneration, check_tight,
                               tight_antichain_relabel)

GOLDEN = os.path.join(os.path.dirname(__file__), "certificates_golden.json")
SEEDS = range(300)
MODSUM_SEEDS = range(10)


def _support(seed: int) -> SupportSet:
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    bounds = tuple(int(b) for b in rng.integers(1, 5, size=k))
    pts = rng.integers(0, bounds, size=(int(rng.integers(1, 13)), k))
    return SupportSet(bounds, tuple(map(tuple, pts.tolist())))


def _relabeled(s: SupportSet, perms) -> SupportSet:
    return SupportSet(s.bounds, tuple(tuple(int(perm[x]) for perm, x in zip(perms, p))
                                      for p in s.points))


def _maps(cert) -> list | None:
    return None if cert is None else [list(m) for m in cert.maps]


def _tight_record(seed: int) -> dict:
    s = _support(seed)
    rep = check_tight(s)
    return {"tight": rep.tight, "method": rep.method,
            "maps": _maps(rep.certificate),
            "forced_pair": None if rep.forced_pair is None else list(rep.forced_pair),
            "relabel": ([list(perm) for perm in tight_antichain_relabel(s, rep.certificate)]
                        if rep.tight else None)}


def _subset_record(seed: int) -> list | None:
    s = _support(seed)
    return _maps(check_comb_degeneration(s, SupportSet(s.bounds, s.points[::2])))


def _modsum_record(m: int, seed: int) -> list | None:
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(m) for _ in range(3)]
    return _maps(check_comb_degeneration(_relabeled(modular_sum_support(m), perms),
                                         _relabeled(reduced_polymult_support(m), perms)))


def _modsum_cases():
    return [(m, seed) for m in (3, 4, 5) for seed in MODSUM_SEEDS]


@functools.lru_cache(maxsize=1)
def _records() -> dict:
    return {"tight": {f"seed {seed}": _tight_record(seed) for seed in SEEDS},
            "subset": {f"seed {seed}": _subset_record(seed) for seed in SEEDS},
            "modsum": {f"m={m} seed {seed}": _modsum_record(m, seed)
                       for m, seed in _modsum_cases()}}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("kind", ["tight", "subset", "modsum"])
def test_certificates_match_golden(golden, kind):
    got = json.loads(json.dumps(_records()[kind]))
    assert got.keys() == golden[kind].keys()
    bad = [key for key in got if got[key] != golden[kind][key]]
    assert not bad, [(key, got[key], golden[kind][key]) for key in bad[:5]]


def test_golden_covers_both_outcomes(golden):
    """The random supports reach both tightness methods and both verdicts,
    and the subsets both a certificate and none."""
    tight = golden["tight"].values()
    assert {(r["tight"], r["method"]) for r in tight} == {
        (True, "linear"), (True, "nullspace"), (False, "nullspace")}
    assert {r is None for r in golden["subset"].values()} == {True, False}
    assert all(r is not None for r in golden["modsum"].values())


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(_records(), fh, indent=1, sort_keys=True)
        fh.write("\n")
