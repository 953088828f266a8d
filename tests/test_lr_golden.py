"""Golden records of Littlewood-Richardson coefficients.

`lr_golden.json` holds every nonzero c^lam_{mu,nu} with |lam| <= 7 and four
larger cases. A triple up to 7 that the file does not list is zero, so the
test checks every triple up to 7, zeros included. Regenerate with
`PYTHONPATH=src python tests/test_lr_golden.py` only when a change to the
coefficients' values is intended.
"""

import json
import os

import pytest

from tenspect.partitions import lr_coefficient, partitions

GOLDEN = os.path.join(os.path.dirname(__file__), "lr_golden.json")
MAX_N = 7
LARGER = [((4, 3, 2, 1), (3, 2, 1), (2, 1, 1)), ((5, 4, 3), (4, 2), (3, 3)),
          ((6, 4, 2, 2), (4, 3, 1), (3, 2, 1)), ((5, 5, 4, 2), (4, 4, 2), (3, 2, 1))]


def _triples(n):
    for a in range(n + 1):
        for mu in partitions(a):
            for nu in partitions(n - a):
                for lam in partitions(n):
                    yield lam, mu, nu


def _key(lam, mu, nu):
    return "/".join(",".join(map(str, p)) for p in (lam, mu, nu))


def _records():
    records = {}
    for n in range(MAX_N + 1):
        for triple in _triples(n):
            c = lr_coefficient(*triple)
            if c:
                records[_key(*triple)] = c
    records.update({_key(*triple): lr_coefficient(*triple) for triple in LARGER})
    return records


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


@pytest.mark.parametrize("n", range(MAX_N + 1))
def test_lr_matches_golden_up_to_seven(golden, n):
    for triple in _triples(n):
        assert lr_coefficient(*triple) == golden.get(_key(*triple), 0), triple


@pytest.mark.parametrize("triple", LARGER, ids=[_key(*t) for t in LARGER])
def test_lr_matches_golden_larger(golden, triple):
    assert lr_coefficient(*triple) == golden[_key(*triple)]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(_records(), fh, indent=1, sort_keys=True)
        fh.write("\n")
