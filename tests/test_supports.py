import re
from fractions import Fraction
from itertools import combinations, permutations, product as iter_product
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenspect as ts
from tenspect import linalg
from tenspect.supports import (_generic_points, is_diagonal, relabel_support,
                               tight_antichain_relabel, value_ranks)

from conftest import random_support


def test_support_set_normalisation():
    s = ts.SupportSet((2, 2), ((1, 1), (0, 0), (1, 1)))
    assert s.points == ((0, 0), (1, 1))
    with pytest.raises(ValueError):
        ts.SupportSet((2, 2), ((2, 0),))
    with pytest.raises(ValueError):
        ts.SupportSet((2, 2), ((0, 0, 0),))


@pytest.mark.parametrize("points,message", [
    (((0, 1), (0, 0, 0)), "point (0, 0, 0) has wrong arity"),
    (((1, 1), (0,)), "point (0,) has wrong arity"),
    (((1, 1), (0, -1)), "point (0, -1) outside bounds (2, 3)"),
    (((1, 3), (0, 2)), "point (1, 3) outside bounds (2, 3)"),
    (((2, 0), (0, 0)), "point (2, 0) outside bounds (2, 3)"),
    # the first offending point in sorted order is named, whatever its fault
    (((5, 0), (0, 0, 0)), "point (0, 0, 0) has wrong arity"),
    (((0, 5), (1, 0, 0)), "point (0, 5) outside bounds (2, 3)"),
])
def test_support_set_names_the_first_offending_point(points, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ts.SupportSet((2, 3), points)


def test_support_set_takes_numpy_and_sorted_points():
    pts = ((0, 0, 1), (0, 2, 0), (1, 0, 2), (1, 1, 1))
    for given in (pts, np.array(pts), tuple(map(tuple, np.array(pts, dtype=np.int64))),
                  pts[::-1] + pts[:1]):
        s = ts.SupportSet(np.array([2, 3, 3]), given)
        assert s.points == pts and s.bounds == (2, 3, 3)
        assert all(type(x) is int for p in s.points for x in p + s.bounds)
    with pytest.raises(ValueError, match=re.escape("point (1, 3, 0) outside bounds (2, 3, 3)")):
        ts.SupportSet((2, 3, 3), np.array(pts + ((1, 3, 0),)))


def test_support_io_roundtrip():
    s = ts.SupportSet((3, 3, 3), ((0, 1, 2), (2, 0, 1)))
    text = "3 3 3 3\n0 1 2\n2 0 1\n"
    assert ts.loads_support(text).points == s.points
    from tenspect.supports import dumps_support
    assert ts.loads_support(dumps_support(s)).points == s.points


def test_max_points_examples():
    anti = ts.SupportSet((2, 2, 2), ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    assert ts.max_points(anti).points == anti.points
    chain = ts.SupportSet((2, 2), ((0, 0), (0, 1), (1, 1)))
    assert ts.max_points(chain).points == ((1, 1),)
    pm = ts.SupportSet.from_tensor(ts.poly_mult_mod(3))
    # dominance-scan oracle
    expected = tuple(p for p in pm.points
                     if not any(q != p and all(x >= y for x, y in zip(q, p))
                                for q in pm.points))
    assert ts.max_points(pm).points == expected
    with pytest.raises(ValueError):
        ts.max_points(ts.SupportSet((2,), ()))


def test_downward_closure_examples():
    s = ts.SupportSet((2, 2), ((1, 1),))
    assert ts.downward_closure(s).points == ((0, 0), (0, 1), (1, 0), (1, 1))
    phi3 = ts.reduced_polymult_support(3)
    assert len(ts.downward_closure(phi3)) == 10
    closed = ts.downward_closure(phi3)
    assert ts.downward_closure(closed).points == closed.points


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_max_points_of_closure(seed):
    rng = np.random.default_rng(seed)
    s = random_support(rng)
    assert (ts.max_points(ts.downward_closure(s)).points
            == ts.max_points(s).points)


def test_antichain_matches_pairwise_definition():
    """No point lies strictly below another; the empty support included."""
    rng = np.random.default_rng(7)
    supports = [ts.SupportSet((2, 3), ())]
    supports += [random_support(rng, bounds=(2, 3, 3), max_points=8) for _ in range(60)]
    for s in supports:
        pairwise = not any(all(x <= y for x, y in zip(p, q))
                           for p, q in permutations(s.points, 2))
        assert ts.is_antichain(s) == pairwise, s.points


def test_antichain_and_free_examples():
    diag = ts.SupportSet.from_tensor(ts.unit(3))
    # the natural product order makes the diagonal a chain, yet it is free
    assert not ts.is_antichain(diag)
    assert ts.is_free(diag)
    assert is_diagonal(diag)
    two = ts.SupportSet((2, 2, 2), ((0, 0, 1), (0, 1, 0)))
    assert ts.is_antichain(two)
    assert ts.is_free(two)
    notfree = ts.SupportSet((2, 2), ((0, 0), (0, 1)))
    assert not ts.is_free(notfree)


@st.composite
def _supports(draw):
    """Supports of order 1 to 4 with legs of 1 to 3 values, from empty to
    full; small legs make shared coordinates frequent."""
    bounds = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    points = draw(st.lists(st.tuples(*(st.integers(0, b - 1) for b in bounds)), max_size=8))
    return ts.SupportSet(bounds, tuple(points))


@given(_supports())
def test_free_and_diagonal_match_pairwise_definitions(s):
    pairs = list(combinations(s.points, 2))
    assert ts.is_free(s) == all(sum(x != y for x, y in zip(p, q)) >= 2 for p, q in pairs)
    assert is_diagonal(s) == all(x != y for p, q in pairs for x, y in zip(p, q))


def test_free_and_diagonal_edge_supports():
    """Empty and one-point supports are both; at order 1 every support is
    diagonal and only those of at most one point are free."""
    for s in (ts.SupportSet((2, 3), ()), ts.SupportSet((2, 3), ((1, 2),))):
        assert ts.is_free(s) and is_diagonal(s)
    line = ts.SupportSet((3,), ((0,), (2,)))
    assert is_diagonal(line) and not ts.is_free(line)


def test_check_tight_examples():
    for n in (2, 3, 4, 5):
        phi = ts.reduced_polymult_support(n)
        rep = ts.check_tight(phi)
        assert rep.tight
        assert rep.certificate.verify(phi)
    psi2 = ts.SupportSet((2, 2, 2), tuple(
        p for p in iter_product(range(2), repeat=3) if sum(p) % 2 == 1))
    rep = ts.check_tight(psi2)
    assert not rep.tight
    assert rep.forced_pair is not None
    with pytest.raises(ValueError):
        ts.check_tight(ts.SupportSet((2,), ()))


@pytest.mark.parametrize("bounds,point", [((3,), (2,)), ((3, 4), (2, 1)),
                                          ((3, 4, 2), (2, 1, 0))])
def test_check_tight_one_point(bounds, point):
    # the linear ansatz certifies every one-point support, for any k
    single = ts.SupportSet(bounds, (point,))
    rep = ts.check_tight(single)
    assert rep.tight and rep.method == "linear"
    assert rep.certificate.verify(single)


def _rational_basis(rng, size, length):
    return [[Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13)))
             for _ in range(length)] for _ in range(size)]


@pytest.mark.parametrize("seed", range(6))
def test_generic_points_match_the_fraction_sums(seed):
    # the integer sums over the basis times its common denominator give the
    # same primitive points as Fraction sums cleared point by point
    rng = np.random.default_rng(seed)
    bases = [[]] + [_rational_basis(rng, size, int(rng.integers(1, 7)))
                    for size in (1, 2, 3, 4)]
    for basis in bases:
        den = lcm(*(x.denominator for v in basis for x in v))
        ints = [[int(x * den) for x in v] for v in basis]
        limit = 4 * max(len(basis), 1) + 3
        want = [linalg.clear_denominators(
                    [sum(m ** j * x for j, x in enumerate(col)) for col in zip(*basis)])
                for m in range(1, limit + 1)]
        assert list(_generic_points(ints, limit)) == want


def test_check_tight_zero_nullspace():
    # u(0) = u(2) = 0 is the only solution, so the pair is forced equal
    rep = ts.check_tight(ts.SupportSet((3,), ((0,), (2,))))
    assert not rep.tight
    assert rep.forced_pair == (0, 0, 2)
    assert rep.method == "nullspace"


def test_tight_certificates_always_verify():
    rng, perm_rng = np.random.default_rng(7), np.random.default_rng(8)
    for _ in range(40):
        s = random_support(rng)
        rep = ts.check_tight(s)
        if rep.tight:
            assert rep.certificate.verify(s)
            perms = tight_antichain_relabel(s, rep.certificate)
            assert ts.is_antichain(relabel_support(s, perms))
            # the weights carried through any relabeling certify its image
            shuffled = tuple(tuple(int(x) for x in perm_rng.permutation(b)) for b in s.bounds)
            for ps in (perms, shuffled):
                assert rep.certificate.relabel(ps).verify(relabel_support(s, ps))
        else:
            # forced pair: every rational solution has equal weights there
            assert rep.forced_pair is not None


def test_tight_implies_antichain_after_relabel():
    diag = ts.SupportSet.from_tensor(ts.unit(4))
    rep = ts.check_tight(diag)
    assert rep.tight
    relabeled = relabel_support(diag, tight_antichain_relabel(diag, rep.certificate))
    assert ts.is_antichain(relabeled)


def test_value_ranks_number_each_legs_values_in_order():
    s = ts.SupportSet((4, 3, 2), ((3, 0, 1), (1, 2, 1), (3, 2, 1)))
    assert value_ranks(s) == [{1: 0, 3: 1}, {0: 0, 2: 1}, {1: 0}]
    assert [list(rank) for rank in value_ranks(s)] == [s.values(i) for i in range(s.k)]
    assert value_ranks(ts.SupportSet((2, 2), ())) == [{}, {}]


def test_relabel_support_leaves_legs_past_the_permutations():
    s = ts.SupportSet((2, 3, 2), ((0, 1, 1), (1, 2, 0), (1, 0, 1)))
    assert relabel_support(s, [[1, 0]]).points == ((0, 0, 1), (0, 2, 0), (1, 1, 1))
    assert relabel_support(s, [[1, 0], [2, 0, 1]]).points == (
        (0, 1, 0), (0, 2, 1), (1, 0, 1))
    assert relabel_support(s, []) == s


@pytest.mark.parametrize("perms,message", [
    ([[0, 0]], "not a permutation"),
    ([[1, 0], [0, 1, 1]], "not a permutation"),
    ([[0, 1], [0, 1]], "not a permutation"),
    ([[0, 1], [0, 1, 2], [1, 0], [0]], "4 permutations for 3 legs"),
])
def test_relabel_support_rejects_bad_permutations(perms, message):
    s = ts.SupportSet((2, 3, 2), ((0, 1, 1), (1, 2, 0)))
    with pytest.raises(ValueError, match=message):
        relabel_support(s, perms)


def test_cw_support_not_tight_but_free():
    cw = ts.SupportSet.from_tensor(ts.cw(2))
    assert not ts.check_tight(cw).tight
    assert ts.is_free(cw)


def test_comb_degeneration_examples():
    psi3 = ts.modular_sum_support(3)
    phi3 = ts.reduced_polymult_support(3)
    cert = ts.check_comb_degeneration(psi3, phi3)
    assert cert is not None and cert.verify(psi3, phi3)
    # reflexive: zero maps
    cert = ts.check_comb_degeneration(phi3, phi3)
    assert cert is not None and cert.verify(phi3, phi3)
    big = ts.SupportSet((2, 2), ((0, 0), (1, 1)))
    small = ts.SupportSet((2, 2), ((1, 1),))
    cert = ts.check_comb_degeneration(big, small)
    assert cert is not None and cert.verify(big, small)
    with pytest.raises(ValueError):
        ts.check_comb_degeneration(small, big)
    # onto the empty set: weights positive on every point
    empty = ts.SupportSet((2, 2), ())
    cert = ts.check_comb_degeneration(big, empty)
    assert cert is not None and cert.verify(big, empty)


def test_comb_degeneration_infeasible():
    # symmetric pair: any weights vanishing on one point of a swap-pair
    # cannot be positive on its mirror and vice versa
    big = ts.SupportSet((2, 2), ((0, 1), (1, 0)))
    small = ts.SupportSet((2, 2), ((0, 1),))
    cert = ts.check_comb_degeneration(big, small)
    if cert is not None:
        assert cert.verify(big, small)
    else:
        assert cert is None
    # truly infeasible: small == one point of an equal-sum pair
    big2 = ts.SupportSet((2, 2), ((0, 0), (0, 1), (1, 0), (1, 1)))
    small2 = ts.SupportSet((2, 2), ((0, 1), (1, 0)))
    # u1(0)+u2(1)=0 and u1(1)+u2(0)=0 force u1(0)+u2(0) = -(u1(1)+u2(1));
    # both must be positive, impossible
    assert ts.check_comb_degeneration(big2, small2) is None


def test_subrank_examples():
    assert ts.subrank_set(ts.SupportSet.from_tensor(ts.unit(5))).value == 5
    w = ts.SupportSet.from_tensor(ts.w_tensor())
    res = ts.subrank_set(w)
    assert res.value == 1
    phi2 = ts.reduced_polymult_support(2)
    assert ts.subrank_set(phi2).value == 1


def test_subrank_matches_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(60):
        s = random_support(rng, bounds=(3, 3, 3), max_points=9)
        assert ts.subrank_set(s).value == ts.subrank_set_bruteforce(s)


def test_subrank_witness_is_free_diagonal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = random_support(rng, bounds=(4, 4, 4), max_points=10)
        res = ts.subrank_set(s)
        d = res.diagonal
        assert len(d) == res.value
        for i, p in enumerate(d):
            for q in d[i + 1:]:
                assert all(x != y for x, y in zip(p, q))
        boxes = [set(p[i] for p in d) for i in range(3)]
        inside = [q for q in s.points
                  if all(q[i] in boxes[i] for i in range(3))]
        assert sorted(inside) == sorted(d)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_subrank_supermultiplicative(seed):
    rng = np.random.default_rng(seed)
    s = random_support(rng, bounds=(2, 2, 2), max_points=4)
    v = ts.subrank_set(s).value
    t = ts.from_nonzeros(s.bounds, ts.RATIONAL, {p: 1 for p in s.points})
    prod = ts.SupportSet.from_tensor(ts.tensor_product(t, t))
    assert ts.subrank_set(prod).value >= v * v


def test_subrank_budget_raises():
    s = ts.SupportSet.from_tensor(ts.unit(6))
    with pytest.raises(ts.BudgetExceededError, match="support size 6 beyond budget 3"):
        ts.subrank_set(s, budget=3)
    assert ts.subrank_set(s, budget=6).value == 6


def _brute_tight(s, lo=-6, hi=6):
    # exhaustive injective weights on legs 1 and 2, leg 3 solved from the
    # zero-sum constraints; only sound as a one-sided (tightness) oracle
    from itertools import permutations

    used = [s.values(i) for i in range(s.k)]
    for a0 in permutations(range(lo, hi + 1), len(used[0])):
        m0 = dict(zip(used[0], a0))
        for a1 in permutations(range(lo, hi + 1), len(used[1])):
            m1 = dict(zip(used[1], a1))
            need = {}
            ok = True
            for p in s.points:
                req = -(m0[p[0]] + m1[p[1]])
                if need.setdefault(p[2], req) != req:
                    ok = False
                    break
            if ok and len(set(need.values())) == len(need):
                return True
    return False


def test_check_tight_agrees_with_bruteforce_oracle():
    rng = np.random.default_rng(0)
    for _ in range(60):
        s = random_support(rng, bounds=(2, 2, 2), max_points=4)
        rep = ts.check_tight(s)
        if rep.tight:
            assert rep.certificate.verify(s)
        else:
            # if a bounded-range certificate existed, the exact method
            # would have found one
            assert not _brute_tight(s), s.points


def _brute_degeneration_infeasible(big, small, bound=3):
    from itertools import product as iterprod

    k = big.k
    small_set = set(small.points)
    offs = np.cumsum([0] + list(big.bounds))
    for combo in iterprod(range(-bound, bound + 1),
                          repeat=int(sum(big.bounds))):
        ok = True
        for p in big.points:
            tot = sum(combo[offs[i] + p[i]] for i in range(k))
            if (p in small_set and tot != 0) or (p not in small_set and tot <= 0):
                ok = False
                break
        if ok:
            return False
    return True


def test_comb_degeneration_infeasibility_is_genuine():
    # every None answer on these tiny instances is confirmed by brute force
    rng = np.random.default_rng(21)
    nones = 0
    for _ in range(25):
        big = random_support(rng, bounds=(2, 2), max_points=4)
        pts = tuple(p for p in big.points if rng.random() < 0.6) or big.points[:1]
        small = ts.SupportSet(big.bounds, pts)
        cert = ts.check_comb_degeneration(big, small)
        if cert is None:
            assert _brute_degeneration_infeasible(big, small), (big.points,
                                                                small.points)
            nones += 1
        else:
            assert cert.verify(big, small)
    # the sweep should hit at least one infeasible instance
    assert nones >= 1
