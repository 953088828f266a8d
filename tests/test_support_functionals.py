import json
import math
from fractions import Fraction

import numpy as np
import pytest

import tenspect as ts
import tenspect.support_functionals as sf
from tenspect.entropy import (INNER_TOL, ThetaWeights, binary_entropy, h_theta_bracket,
                              max_H_theta)
from tenspect.linalg import COMPLEX_ZERO_TOL, matrix_rank
from tenspect.support_functionals import (BasisSearchOptions, _SearchState,
                                          _sparsify, gauge_points,
                                          lower_support_functional,
                                          rho_lower_at_basis,
                                          rho_upper_at_basis,
                                          upper_support_functional)
from tenspect.supports import max_points
from tenspect.tensors import (BasisTuple, coefficients_in_basis, contract_leg,
                              identity_matrix, invert_matrix, parse_domain)

from conftest import random_complex_tensor, random_exact_tensor

H13 = binary_entropy(1 / 3)
U3 = ThetaWeights.uniform(3)
FAST = BasisSearchOptions(restarts=3, steps=25, seed=0)


def test_rho_upper_at_basis_examples():
    std = BasisTuple.standard(ts.unit(4))
    assert rho_upper_at_basis(ts.unit(4), std, U3) == pytest.approx(2.0, abs=1e-9)
    cw2 = ts.cw(2)
    val = rho_upper_at_basis(cw2, BasisTuple.standard(cw2), U3)
    assert val == pytest.approx(2 / 3 + H13, abs=1e-8)


def test_rho_upper_generic_basis_larger(rng):
    w = ts.convert(ts.w_tensor(), ts.COMPLEXFLOAT)
    mats = [np.eye(2) + 0.4 * rng.standard_normal((2, 2)) for _ in range(3)]
    basis = BasisTuple.make(mats, ts.COMPLEXFLOAT)
    assert rho_upper_at_basis(w, basis, U3) > H13 + 1e-3


def test_rho_lower_at_basis_examples():
    # a chain support has a single maximal point
    toy = ts.from_nonzeros((2, 2), ts.RATIONAL, {(0, 0): 1, (1, 1): 1})
    theta2 = ThetaWeights.uniform(2)
    assert rho_lower_at_basis(toy, BasisTuple.standard(toy), theta2) == 0.0
    w = ts.w_tensor()
    assert rho_lower_at_basis(w, BasisTuple.standard(w), U3) \
        == pytest.approx(H13, abs=1e-9)


def test_lower_leq_upper_at_every_basis(rng):
    for _ in range(10):
        t = random_complex_tensor(rng)
        std = BasisTuple.standard(t)
        mats = [np.linalg.qr(rng.standard_normal((d, d))
                             + 1j * rng.standard_normal((d, d)))[0]
                for d in t.dims]
        rnd = BasisTuple.make(mats, ts.COMPLEXFLOAT)
        for basis in (std, rnd):
            lo = rho_lower_at_basis(t, basis, U3)
            up = rho_upper_at_basis(t, basis, U3)
            assert lo <= up + 1e-9


def test_upper_functional_unit_exact():
    for r in range(1, 7):
        rep = upper_support_functional(ts.unit(r), U3, FAST)
        assert rep.zeta_exact == r
        assert rep.rho_upper == pytest.approx(math.log2(r) if r > 1 else 0.0,
                                              abs=1e-12)
        assert rep.oblique_basis_found    # diagonal supports are tight
        assert rep.tight_certificate is not None


def test_upper_functional_dicke_exact_at_standard_basis():
    rep = upper_support_functional(ts.w_tensor(), U3, FAST)
    assert rep.rho_upper == pytest.approx(H13, abs=1e-9)
    assert rep.oblique_basis_found
    assert rep.tight_certificate is not None
    assert rep.rho_lower <= rep.rho_upper + 1e-9


def test_upper_functional_invariant_report():
    rep = upper_support_functional(ts.cw(2), U3, FAST)
    assert rep.rho_upper == pytest.approx(2 / 3 + H13, abs=1e-8)
    # support is an antichain iff rho_upper equals rho_lower
    if rep.oblique_basis_found and ts.is_antichain(rep.support):
        assert abs(rep.rho_upper - rep.rho_lower) <= 1e-9
    rec = rep.to_records()
    assert rec["support_size"] == len(rep.support)


def test_upper_functional_search_recovers_hidden_diagonal():
    # a rank-2 diagonal written over basis vectors e0 and e1 + e2; the raw
    # support entropy exceeds 1 bit and the search must walk back down
    a = [[1, 0], [0, 1], [0, 1]]
    t = ts.restrict(ts.unit(2), [a, a, a])
    std_val = rho_upper_at_basis(t, BasisTuple.standard(t), U3)
    assert std_val > 1.0 + 0.1
    rep = upper_support_functional(t, U3, BasisSearchOptions(restarts=6, steps=80))
    assert rep.rho_upper == pytest.approx(1.0, abs=1e-9)
    assert rep.zeta_exact == 2


def test_search_builds_a_support_set_once_per_support(monkeypatch):
    # candidates are compared by their points; a validated SupportSet is
    # built for each support not seen before and for the winner
    post_init, built = ts.SupportSet.__post_init__, []

    def counting(self):
        built.append(self.points)
        post_init(self)

    monkeypatch.setattr(ts.SupportSet, "__post_init__", counting)
    t = ts.build_family(ts.parse_family("matmul:2,2,2"))
    report = upper_support_functional(t, U3, FAST)
    assert len(built) <= report.evaluations + 1


def test_upper_functional_capset_with_binomial_basis_in_pool():
    from tenspect.tensors import as_matrix, binomial_basis_matrix, invert_matrix
    m = p = 3
    t = ts.cap_set_tensor(m, p)
    dom = ts.prime_field(p)
    b = binomial_basis_matrix(m, p)
    shift = np.zeros((m, m), dtype=int)
    for w in range(m):
        shift[w, (w + 1) % m] = 1
    third_map = np.tensordot(invert_matrix(b, dom), as_matrix(shift, dom),
                             axes=(1, 0)) % p
    # pool basis: columns of the composed inverse transform
    basis = BasisTuple.make([b, b, invert_matrix(third_map, dom)], dom)
    rep = upper_support_functional(t, U3, BasisSearchOptions(
        restarts=0, steps=0, extra_bases=(basis,)))
    assert rep.oblique_basis_found
    assert rep.tight_certificate is not None
    assert rep.rho_upper == pytest.approx(math.log2(2.7551046117), abs=1e-6)


def test_lower_functional_unit_reaches_log_r():
    rep = lower_support_functional(ts.unit(3), U3, FAST)
    assert rep.rho_lower == pytest.approx(math.log2(3), abs=1e-9)
    assert rep.oblique_basis_found


def test_zero_tensor_rejected():
    z = ts.zeros((2, 2, 2), ts.RATIONAL)
    with pytest.raises(ValueError):
        upper_support_functional(z, U3, FAST)


def test_additivity_on_oblique_pair_block_basis():
    # block-diagonal union of two antichain supports: entropies combine
    # through the direct-sum rule
    w = ts.w_tensor()
    s = ts.direct_sum(w, w)
    val = rho_upper_at_basis(s, BasisTuple.standard(s), U3)
    part = rho_upper_at_basis(w, BasisTuple.standard(w), U3)
    assert 2.0 ** val == pytest.approx(2.0 ** part + 2.0 ** part, abs=1e-6)
    mixed = ts.direct_sum(ts.unit(2), w)
    val = rho_upper_at_basis(mixed, BasisTuple.standard(mixed), U3)
    assert 2.0 ** val == pytest.approx(2.0 + 2.0 ** H13, abs=1e-6)


def test_submultiplicativity_product_basis(rng):
    for _ in range(5):
        s = random_exact_tensor(rng, max_dim=2)
        t = random_exact_tensor(rng, max_dim=2)
        prod = ts.tensor_product(s, t)
        v = rho_upper_at_basis(prod, BasisTuple.standard(prod), U3)
        vs = rho_upper_at_basis(s, BasisTuple.standard(s), U3)
        vt = rho_upper_at_basis(t, BasisTuple.standard(t), U3)
        assert v <= vs + vt + 1e-9


def test_zeta_bounded_by_weighted_dims(rng):
    for _ in range(5):
        t = random_complex_tensor(rng)
        theta = ThetaWeights.from_legs(rng.dirichlet(np.ones(3)))
        rep = upper_support_functional(t, theta, BasisSearchOptions(restarts=1, steps=10))
        bound = sum(w * math.log2(t.dims[i]) for i, w in sorted(
            (leg, wt) for leg, wt in rep.theta.items))
        assert rep.rho_upper <= bound + 1e-9


def test_gauge_points_examples():
    assert gauge_points(ts.unit(4)) == (4, 4, 4)
    a, b, c = 2, 3, 4
    assert gauge_points(ts.matmul(a, b, c)) == (a * b, b * c, c * a)
    for q in (1, 2, 3):
        assert gauge_points(ts.cw(q)) == (q + 1, q + 1, q + 1)


@pytest.mark.parametrize("label", ["Q", "Fp:5", "C"])
def test_search_state_basis_replays_its_steps(label):
    """A walk of 12 transvections from a sparsified state in a rational
    basis: the replayed basis gives the walked coefficients, up to the
    scale of the integer numerators over Q."""
    domain = parse_domain(label)
    t = ts.convert(ts.cw(2), domain)
    h, q = Fraction(1, 2), Fraction(1, 3)
    mats = [[[1, h, 0], [-q, 1, 0], [0, 2, 1]],
            [[2 * q, 0, 1], [h * h, 1, 0], [0, 0, 1]],
            [[1, -3 * h, 0], [1, h, 0], [0, 1, 1]]]
    state = _SearchState.start(t)
    for leg, inv in enumerate(BasisTuple.make(mats, domain).inverses()):
        state = state.apply(leg, inv)
    state = _sparsify(state)
    rng = np.random.default_rng(3)
    walk = []
    for _ in range(12):
        leg, (dst, src) = int(rng.integers(3)), rng.choice(3, 2, replace=False)
        walk.append((leg, int(dst), int(src), int(rng.integers(1, 4))))
        state = state.apply_transvection(*walk[-1])
    assert state.steps[-12:] == tuple(walk)
    got = coefficients_in_basis(t, state.basis()).entries
    if label == "C":
        assert np.allclose(got, state.coeff, atol=1e-9)
        return
    idx = tuple(np.argwhere(state.coeff != 0)[0])
    scale = state.coeff[idx] / got[idx] if label == "Q" else 1
    assert (got * scale == state.coeff).all()


@pytest.mark.parametrize("label", ["Q", "Fp:5", "C"])
def test_search_state_replay_leaves_its_steps_unchanged(label):
    """A transvection right after a leg's first matrix step: the replay
    copies that matrix, so a second replay gives the same basis."""
    domain = parse_domain(label)
    mat = domain.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    state = _SearchState.start(ts.convert(ts.cw(2), domain)).apply(0, mat.copy())
    state = state.apply_transvection(0, 2, 0, 3)
    first = state.basis().inverses()
    assert np.array_equal(state.steps[0][1], mat)
    assert all(np.array_equal(a, b) for a, b in zip(first, state.basis().inverses()))


def _dense_replay(state):
    """The state's inverse maps with each permutation step replayed as the
    matrix it stands for, contracted into the map."""
    dom = state.domain
    inv = [identity_matrix(d, dom) for d in state.coeff.shape]
    for step in state.steps:
        leg = step[0]
        if len(step) == 4:
            _, dst, src, c = step
            inv[leg][dst] = dom.reduce(inv[leg][dst] + c * inv[leg][src])
        else:
            mat = identity_matrix(len(step[1]), dom)[step[1]] if np.ndim(step[1]) == 1 else step[1]
            inv[leg] = contract_leg(inv[leg], 0, mat, dom)
    return inv


def _random_steps(state, rng, count):
    """`count` seeded steps, each a permutation, a transvection or (one in
    five) a matrix step by an invertible integer matrix; every permutation
    step must give the coefficients of `apply(leg, identity[:, perm])`."""
    dom = state.domain
    for _ in range(count):
        leg = int(rng.integers(state.coeff.ndim))
        n, kind = state.coeff.shape[leg], rng.random()
        if kind < 0.2:
            mat = dom.array(rng.integers(-2, 3, size=(n, n)))
            if matrix_rank(mat, dom) == n:
                state = state.apply(leg, mat)
        elif kind < 0.6 or n < 2:
            perm = tuple(rng.permutation(n).tolist())
            moved = state.permute(leg, perm)
            as_matrix = state.apply(leg, identity_matrix(n, dom)[:, list(perm)])
            assert np.array_equal(moved.coeff, as_matrix.coeff)
            state = moved
        else:
            dst, src = rng.choice(n, 2, replace=False)
            state = state.apply_transvection(leg, int(dst), int(src), int(rng.integers(-3, 4)))
    return state


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("label", ["Q", "Fp:5", "Fp:3", "C"])
def test_replayed_basis_is_the_gauss_jordan_inverse(label, seed):
    """Seeded step logs mixing permutation, transvection and matrix steps:
    the maps that `basis()` replays are those of a replay with every
    permutation as its matrix, and the basis replayed beside them is their
    Gauss-Jordan inverse, entry for entry and type for type over Q and F_p.
    Over C the maps are equal (the dense replay may turn a zero's sign)
    and the basis agrees within 1e-12 of its largest entry.  The basis
    gives the state's support."""
    domain = parse_domain(label)
    rng = np.random.default_rng(seed)
    t = (random_complex_tensor(rng, max_dim=4) if label == "C"
         else random_exact_tensor(rng, domain, max_dim=4))
    state = _random_steps(_SearchState.start(t), rng, 16)
    basis = state.basis()
    maps = _dense_replay(state)
    want = BasisTuple.from_maps([invert_matrix(m, domain) for m in maps], maps, domain)
    if domain.exact:
        for got, ref in zip(basis.inverses() + basis.matrices, want.inverses() + want.matrices):
            assert [(type(x), x) for x in got.flat] == [(type(x), x) for x in ref.flat]
    else:
        assert all(np.array_equal(got, ref) for got, ref in zip(basis.inverses(), maps))
        assert all(np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
                   for got, ref in zip(basis.matrices, want.matrices))
    assert ts.SupportSet.from_tensor(coefficients_in_basis(t, basis)).points == state.points()


def test_sparsify_contracts_no_map(monkeypatch):
    """The sparsifier changes the coefficients only: no candidate step
    contracts a 2-D basis map."""
    contract = sf.contract_leg
    map_calls = []

    def counting(entries, leg, mat, domain):
        if np.ndim(entries) == 2:
            map_calls.append(leg)
        return contract(entries, leg, mat, domain)

    monkeypatch.setattr(sf, "contract_leg", counting)
    w = ts.w_tensor()
    t = ts.Tensor(w.dims, ts.RATIONAL, w.entries / 2 + Fraction(1, 3))
    state = _sparsify(_SearchState.start(t))
    assert state.steps and map_calls == []


@pytest.mark.parametrize("search", [upper_support_functional, lower_support_functional])
@pytest.mark.parametrize("name", ["W", "unsettled"])
def test_user_basis_that_does_not_fit_is_rejected(search, name):
    """A user basis with fewer matrices than legs, or with legs of the wrong
    size, is rejected up front, also where the tight start of W settles the
    pool before the pool reaches it."""
    t = ts.w_tensor() if name == "W" else ts.from_nonzeros(
        (2, 2, 2), ts.RATIONAL, {(0, 0, 0): -2, (0, 1, 0): -1, (1, 0, 1): 2, (1, 1, 0): -2})
    for dims in ((2, 2), (3, 3, 3)):
        basis = BasisTuple.make([np.eye(d, dtype=int) for d in dims], ts.RATIONAL)
        with pytest.raises(ValueError, match="does not fit"):
            search(t, U3, BasisSearchOptions(restarts=1, steps=5, extra_bases=(basis,)))


@pytest.mark.parametrize("bad", [dict(restarts=-1), dict(steps=-1)])
def test_invalid_search_budgets_rejected(bad):
    with pytest.raises(ValueError):
        BasisSearchOptions(**bad)


def _screen_tensor(rng, domain):
    """Sparse small integer entries (Gaussian integers over C), so that a
    transvection often cancels an entry exactly; over C, some zero entries
    become nonzero values just under the zero tolerance."""
    dims = tuple(int(d) for d in rng.integers(2, 5, size=3))
    arr = rng.integers(-3, 4, size=dims) * (rng.random(dims) < 0.45)
    arr[(0,) * 3] = 1
    if domain.label != "C":
        return ts.from_nonzeros(dims, domain, {idx: int(arr[idx]) for idx in np.ndindex(*dims)})
    arr = arr + 1j * rng.integers(-2, 3, size=dims) * (arr != 0)
    tiny = (arr == 0) & (rng.random(dims) < 0.3)
    phase = np.exp(2j * np.pi * rng.random(dims))
    arr[tiny] = (rng.uniform(0.3, 0.99, size=dims) * COMPLEX_ZERO_TOL * phase)[tiny]
    return ts.Tensor(dims, domain, arr)


@pytest.mark.parametrize("label", ["Q", "Fp:5", "C"])
def test_transvection_gain_matches_the_dense_step(label):
    """The slice screen's (removed, added) gives the dense update's support
    on seeded random walks: new = (old - removed) | added, with removed
    inside old and added outside it, and where the lower search passes a
    step over, the maximal points stay the same."""
    domain = parse_domain(label)
    rng = np.random.default_rng(5)
    seen = {"same": 0, "superset": 0, "removed": 0, "dominated": 0}
    for _ in range(12):
        t = _screen_tensor(rng, domain)
        state = _SearchState.start(t)
        for step in range(150):
            leg = int(rng.integers(3))
            dst, src = (int(i) for i in rng.choice(t.dims[leg], 2, replace=False))
            c = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            removed, added = state.transvection_gain(leg, dst, src, c)
            cand = state.apply_transvection(leg, dst, src, c)
            old, new = set(state.points()), set(cand.points())
            assert len(set(removed)) == len(removed) and set(removed) <= old
            assert len(set(added)) == len(added) and not old & set(added)
            assert new == (old - set(removed)) | set(added)
            if removed:
                seen["removed"] += 1
            else:
                seen["same" if not added else "superset"] += 1
                if added and state.below.issuperset(added):
                    seen["dominated"] += 1
                    assert (max_points(ts.SupportSet(t.dims, state.points()))
                            == max_points(ts.SupportSet(t.dims, cand.points())))
            if step % 10 == 0 and new:
                state = cand
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("label", ["Q", "Fp:5", "C"])
def test_transvection_gain_sees_exact_cancellation(label):
    """2 - 2 * 1 cancels (1, 0, 0) exactly: the screen reports a removed
    point, and so does the dense step."""
    domain = parse_domain(label)
    scale = 1 + 1j if label == "C" else 1
    vals = {(0, 0, 0): scale, (1, 0, 0): 2 * scale, (1, 1, 1): 1}
    state = _SearchState.start(ts.from_nonzeros((2, 2, 2), domain, vals))
    assert state.transvection_gain(0, 1, 0, -2) == ([(1, 0, 0)], [])
    assert (1, 0, 0) not in state.apply_transvection(0, 1, 0, -2).points()


def test_transvection_gain_reads_entries_under_the_zero_tolerance():
    """Over C an entry != 0 below the tolerance is outside the support but
    enters the arithmetic: three times it is over the tolerance."""
    arr = np.zeros((2, 2, 2), dtype=complex)
    arr[0, 0, 0], arr[0, 1, 0] = 1, 0.9 * COMPLEX_ZERO_TOL
    state = _SearchState.start(ts.Tensor((2, 2, 2), ts.COMPLEXFLOAT, arr))
    assert state.points() == ((0, 0, 0),)
    removed, added = state.transvection_gain(0, 1, 0, 3)
    assert removed == [] and sorted(added) == [(1, 0, 0), (1, 1, 0)]
    assert state.apply_transvection(0, 1, 0, 3).points() == ((0, 0, 0), (1, 0, 0), (1, 1, 0))


# highs whose redraw threshold 2**32 % high is large (near 2**31 + 1 half
# of all words are redrawn) or trivial (powers of two, 2**32 - 1)
WIDE_HIGHS = [2**31 - 1, 2**31, 2**31 + 1, 2**31 + 2**30 + 1, 2**32 - 2**30 - 1,
              2**32 - 3, 2**32 - 2, 2**32 - 1]


def test_draws_equal_generator_integers_call_for_call():
    """The walk's batched draws give what one `integers(high)` call per draw
    gives on the same seed: 50 seeds of 2,000 mixed small highs (high = 1
    takes no word), every tenth followed by highs near 2**31 and 2**32 - 1,
    where redraws are frequent, across several batches."""
    for seed in range(50):
        highs = np.random.default_rng(10_000 + seed).integers(1, 13, size=2000).tolist()
        if seed % 10 == 0:
            highs += WIDE_HIGHS * 300
        draw, rng = sf._draws(seed), np.random.default_rng(seed)
        got = [draw(h) for h in highs]
        assert got == [int(rng.integers(h)) for h in highs], seed


def _equivalence_cases():
    c = parse_domain("C")
    rng = np.random.default_rng(11)
    tiny = [t for t in (_screen_tensor(rng, c) for _ in range(40))
            if any(0 < abs(v) < COMPLEX_ZERO_TOL for v in t.entries.flat)][:3]
    assert len(tiny) == 3
    return ([("cw:3 Q", ts.build_family(ts.parse_family("cw:3"), ts.RATIONAL)),
             ("cw:2 F_5", ts.build_family(ts.parse_family("cw:2"), parse_domain("Fp:5"))),
             ("capset:3,3 F_3", ts.build_family(ts.parse_family("capset:3,3")))]
            + [(f"C tiny {i}", t) for i, t in enumerate(tiny)])


def test_batched_draws_change_no_decision(monkeypatch):
    """With the draws taken one `Generator.integers` call at a time, every
    search record is the same, on Q, F_5, F_3 and C with entries under the
    zero tolerance."""
    calls = []

    def one_call_per_draw(seed):
        rng = np.random.default_rng(seed)

        def draw(high):
            calls.append(high)
            return int(rng.integers(high))
        return draw

    thetas = (U3, ThetaWeights.from_legs([0.5, 0.25, 0.25]))
    for name, t in _equivalence_cases():
        for seed, theta in enumerate(thetas):
            opts = BasisSearchOptions(restarts=4, steps=40, seed=seed)
            searches = (upper_support_functional, lower_support_functional)
            batched = [search(t, theta, opts).to_records() for search in searches]
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(sf, "_draws", one_call_per_draw)
                assert [search(t, theta, opts).to_records() for search in searches] == batched, name
            assert len(calls) >= 2 * 4 * 40, name


# the solve of this support at theta = (1/4, 1/4, 1/2) ends with a gap of
# 9.0e-10, between SCREEN_MARGIN and INNER_TOL, with no Newton round
GAP_SUPPORT = ts.SupportSet((2, 2, 3), ((0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1),
                                        (1, 0, 0), (1, 0, 2), (1, 1, 0), (1, 1, 2)))


def test_screen_decides_as_the_solve_above_the_margin():
    """The basis search skips a solve when the bracket end on the gaining
    side, widened by SCREEN_MARGIN, is not better than the reference by the
    slack.  For a solve whose gap exceeds SCREEN_MARGIN, every reference
    near the ends of the bracket and the solved value gets the decision of
    the solved value, in both directions; the solved value is at least lo."""
    theta = ThetaWeights.from_legs([0.25, 0.25, 0.5])
    lo, hi = h_theta_bracket(GAP_SUPPORT, theta)
    res = max_H_theta(GAP_SUPPORT, theta)
    value, gap = res.value, res.gap
    assert sf.SCREEN_MARGIN < gap <= INNER_TOL
    assert lo <= value <= hi + sf.SCREEN_MARGIN
    slack = 1e-9
    for sign, end in ((1.0, lo), (-1.0, hi)):
        for base in (lo, hi, value, value - gap, value + gap):
            for shift in (-2 * gap, -gap, -sf.SCREEN_MARGIN, 0.0, sf.SCREEN_MARGIN, gap, 2 * gap):
                ref = base + sign * (slack + shift)
                solved = sign * value < sign * ref - slack
                screened = sign * end < sign * ref - (slack - sf.SCREEN_MARGIN)
                assert screened or not solved, (sign, base, shift)


def _plane_tensor(rng):
    """Random nonzero rational entries on the points x of a random box with
    a . x = c for nonzero integers a_i: x -> a_i x_i certifies that the
    support is tight."""
    dims = tuple(int(d) for d in rng.integers(3, 6, size=3))
    a = rng.choice([-2, -1, 1, 2], size=3)
    c = int(a @ [rng.integers(d) for d in dims])
    vals = {x: Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 10)), int(rng.integers(1, 6)))
            for x in np.ndindex(*dims) if int(a @ x) == c}
    return ts.from_nonzeros(dims, ts.RATIONAL, vals)


def _tight_cases():
    families = [(f"{spec} {label}", ts.build_family(ts.parse_family(spec), parse_domain(label)))
                for spec in ("W", "unit:3", "matmul:2,2,2", "polymul:4")
                for label in ("Q", "Fp:5", "Fp:3")]
    rng = np.random.default_rng(40)
    return families + [(f"plane {i}", _plane_tensor(rng)) for i in range(24)]


def test_tight_pool_support_ends_the_walk(monkeypatch, drawn):
    """Over Q and F_p, a search whose best pool support is tight and valued
    at its own H_theta draws no step.  Its report equals that of the full
    walk (the stop turned off) in every field but `evaluations`, which is
    never higher: on the tight families and on seeded supports on a plane,
    at uniform theta, at (1/2, 1/4, 1/4) and at a theta with a zero
    weight.  W over C still walks."""
    thetas = (U3, ThetaWeights.from_legs([0.5, 0.25, 0.25]),
              ThetaWeights.from_legs([0.5, 0.5, 0.0]))
    stopped = 0
    for name, t in _tight_cases():
        walks = 0
        for seed, theta in enumerate(thetas):
            opts = BasisSearchOptions(restarts=3, steps=25, seed=seed)
            for search in (upper_support_functional, lower_support_functional):
                drawn.clear()
                got = search(t, theta, opts).to_records()
                walks += len(drawn) > 0
                with monkeypatch.context() as m:
                    m.setattr(sf, "_settled", lambda *args: False)
                    want = search(t, theta, opts).to_records()
                assert got.pop("evaluations") <= want.pop("evaluations"), name
                assert got == want, name
        stopped += walks == 0
    assert stopped >= 30
    drawn.clear()
    upper_support_functional(ts.convert(ts.w_tensor(), parse_domain("C")), U3, FAST)
    assert len(drawn) > 0


def test_tight_pool_support_from_a_user_basis_is_scored_as_itself(drawn):
    """The lower search's pool state in an extra basis has a tight support S
    that is not an antichain.  The pool relabels it into an antichain,
    valued at H_theta(S), the upper search's value, so the pool alone
    reaches the optimum and the walk draws nothing."""
    basis = BasisTuple.make([[[0, 0, -2], [1, 1, -1], [-2, -1, -2]], [[1, 0], [0, -1]],
                             [[0, 2, -1], [1, -2, -1], [2, 2, -2]]], ts.RATIONAL)
    coeff = ts.from_nonzeros((3, 2, 3), ts.RATIONAL, {(0, 0, 0): -2, (1, 1, 1): -1, (2, 0, 1): 1})
    t = ts.restrict(coeff, basis.matrices)
    assert not ts.is_antichain(ts.SupportSet.from_tensor(coeff))
    pool = lower_support_functional(t, U3, BasisSearchOptions(restarts=0, steps=0,
                                                               extra_bases=(basis,)))
    assert pool.rho_lower == pool.rho_upper == 1.1570698560510286
    assert ts.is_antichain(pool.support)
    assert pool.tight_certificate is not None and pool.tight_certificate.verify(pool.support)
    assert sf.support_at_basis(t, pool.basis).points == pool.support.points
    opts = BasisSearchOptions(restarts=4, steps=40, seed=2, extra_bases=(basis,))
    drawn.clear()
    rep = lower_support_functional(t, U3, opts)
    assert len(drawn) == 0
    assert rep.rho_lower == pool.rho_lower
    assert upper_support_functional(t, U3, opts).rho_upper == pytest.approx(pool.rho_lower,
                                                                             abs=1e-12)


def test_relabeled_start_that_ties_the_start_ends_the_walk(drawn):
    """At theta = (1/2, 1/2, 0) the maximal points of polymul:4's tight
    start support have the support's own entropy: the relabeled start only
    ties it, and the rule, not the tie, makes it the best state, so the
    lower search draws no step."""
    theta = ThetaWeights.from_legs([0.5, 0.5, 0.0])
    for label in ("Q", "Fp:5", "Fp:3"):
        t = ts.build_family(ts.parse_family("polymul:4"), parse_domain(label))
        drawn.clear()
        rep = lower_support_functional(t, theta, FAST)
        assert len(drawn) == 0, label
        assert rep.rho_lower == pytest.approx(2.0, abs=1e-12), label
        assert ts.is_antichain(rep.support) and rep.tight_certificate.verify(rep.support)


def test_walk_skips_a_leg_of_dimension_one(drawn):
    """On a 1 x 2 x 3 x 3 tensor the walk draws no row of the first leg.
    Neither search's pool reaches a tight support, so both walk; the lower
    walk keeps steps, and each returned basis reproduces its support."""
    t = ts.from_nonzeros((1, 2, 3, 3), ts.RATIONAL,
                         {(0, 0, 1, 0): 3, (0, 0, 1, 2): -2, (0, 0, 2, 0): 2, (0, 0, 2, 1): 3,
                          (0, 0, 2, 2): -2, (0, 1, 0, 0): -1, (0, 1, 0, 1): 3,
                          (0, 1, 1, 0): -2, (0, 1, 1, 1): 2})
    theta = ThetaWeights.uniform(4)
    for search in (upper_support_functional, lower_support_functional):
        pool = search(t, theta, BasisSearchOptions(restarts=0, steps=0))
        drawn.clear()
        rep = search(t, theta, FAST)
        assert len(drawn) > 0 and 1 not in drawn
        assert sf.support_at_basis(t, rep.basis).points == rep.support.points
    # the lower walk kept steps
    assert rep.support.points != pool.support.points and rep.rho_lower > pool.rho_lower


def test_lower_search_reaches_the_tight_diagonal_of_a_matrix():
    """The sparsified start of a 1 x 3 x 3 tensor has a diagonal support,
    which is tight; it is in the lower pool too, so on 30 seeded rational
    tensors the lower search reads the upper search's value."""
    for seed in range(30):
        entries = np.random.default_rng(seed).integers(-3, 4, size=(1, 3, 3))
        t = ts.from_nonzeros((1, 3, 3), ts.RATIONAL,
                             {idx: int(v) for idx, v in np.ndenumerate(entries) if v})
        upper = upper_support_functional(t, U3, FAST)
        lower = lower_support_functional(t, U3, FAST)
        assert lower.rho_lower == pytest.approx(upper.rho_upper, abs=1e-12), seed


@pytest.mark.parametrize("label", ["Q", "Fp:5"])
def test_pool_stops_before_sparsifying_a_settled_start(monkeypatch, label):
    """Neither search sparsifies a start whose support settles it (W,
    unit:3, matmul:2,2,2 and polymul:4 over Q and F_5); each sparsifies
    cw:3's start once."""
    sparsify, calls = sf._sparsify, []

    def counting(state):
        calls.append(state)
        return sparsify(state)

    monkeypatch.setattr(sf, "_sparsify", counting)
    for spec in ("W", "unit:3", "matmul:2,2,2", "polymul:4", "cw:3"):
        t = ts.build_family(ts.parse_family(spec), parse_domain(label))
        for search in (upper_support_functional, lower_support_functional):
            calls.clear()
            search(t, U3, FAST)
            assert len(calls) == (spec == "cw:3"), (spec, search.__name__)


def test_lower_search_on_the_capset_tensor():
    """The standard support of capset:3,3 over F_3 has one maximal point
    (0 bits).  The sparsifier's row reductions swap two basis vectors on
    legs 0 and 1, which leaves four maximal points, so the lower search
    reads at least 1.28 bits."""
    t = ts.build_family(ts.parse_family("capset:3,3"))
    assert lower_support_functional(t, U3, FAST).rho_lower >= 1.28


@pytest.mark.parametrize("label", ["Q", "Fp:5"])
@pytest.mark.parametrize("spec", ["W", "unit:3", "matmul:2,2,2", "polymul:4"])
def test_lower_search_decides_tightness_once(monkeypatch, spec, label):
    """The lower search decides its start support alone: where the start
    is no antichain, its relabeled antichain state replaces it and takes
    its report, the certificate carried through the same permutations.
    That certificate verifies on the reported support and agrees with
    deciding that support afresh."""
    decide, calls = sf.check_tight, []

    def counting(supp):
        calls.append(supp.points)
        return decide(supp)

    monkeypatch.setattr(sf, "check_tight", counting)
    t = ts.build_family(ts.parse_family(spec), parse_domain(label))
    rep = lower_support_functional(t, U3, FAST)
    assert len(calls) == 1
    start = ts.SupportSet.from_tensor(t)
    assert rep.support.points != start.points or ts.is_antichain(start)
    assert rep.tight_certificate is not None and rep.tight_certificate.verify(rep.support)
    assert decide(rep.support).tight


def _rank_pattern(points):
    """Each leg's values replaced by their rank among the leg's values."""
    legs = [sorted(set(col)) for col in zip(*points)]
    return tuple(tuple(leg.index(x) for leg, x in zip(legs, p)) for p in points)


GOLDEN_WALKS = ("cw:3 Q half", "cw:3 Fp:5 half", "capset:3,3 Fp:3 half")


def _golden_walks():
    """(key, tensor, options) of the golden cases in GOLDEN_WALKS, all at
    theta = (1/2, 1/4, 1/4), whose pools do not settle, so both searches walk."""
    from test_search_golden import _cases
    for key, spec, dom, _, seed in (c for c in _cases() if c[0] in GOLDEN_WALKS):
        domain = None if spec.startswith("capset") else parse_domain(dom)
        yield key, ts.build_family(ts.parse_family(spec), domain), \
            BasisSearchOptions(restarts=4, steps=40, seed=seed)


def test_search_values_each_order_pattern_once(monkeypatch):
    """Supports whose legs' values have the same order share one entropy
    program, so no search solves or brackets an order pattern twice (the
    lower walk on cw:3 meets eight relabelings of one W-like pattern).
    `evaluations` still counts the distinct scored supports valued: the
    golden count."""
    from test_search_golden import GOLDEN
    with open(GOLDEN, encoding="ascii") as fh:
        golden = json.load(fh)
    solve, bracket, solved, bracketed = sf.max_H_theta, sf.h_theta_bracket, [], []

    def solving(supp, theta):
        solved.append(_rank_pattern(supp.points))
        return solve(supp, theta)

    def bracketing(supp, theta):
        bracketed.append(_rank_pattern(supp.points))
        return bracket(supp, theta)

    monkeypatch.setattr(sf, "max_H_theta", solving)
    monkeypatch.setattr(sf, "h_theta_bracket", bracketing)
    theta = ThetaWeights.from_legs([0.5, 0.25, 0.25])
    for key, t, opts in _golden_walks():
        for side, search in (("upper", upper_support_functional),
                             ("lower", lower_support_functional)):
            solved.clear()
            bracketed.clear()
            rep = search(t, theta, opts)
            assert solved and len(set(solved)) == len(solved), (key, side)
            assert len(set(bracketed)) == len(bracketed), (key, side)
            assert rep.evaluations == golden[key][side]["evaluations"], (key, side)


def test_search_screens_each_move_once_per_state(monkeypatch):
    """Restarts start from the same best state, and a move passed over
    there is not screened again: no (state, move) pair reaches
    `transvection_gain` twice in one search, where over F_p a move's
    coefficient is its residue, and no move whose residue is 0 is screened."""
    screen, screened = _SearchState.transvection_gain, []

    def screening(state, *move):
        screened.append((state, *move))     # holds the state, so no id is reused
        return screen(state, *move)

    monkeypatch.setattr(_SearchState, "transvection_gain", screening)
    theta = ThetaWeights.from_legs([0.5, 0.25, 0.25])
    for key, t, opts in _golden_walks():
        for search in (upper_support_functional, lower_support_functional):
            screened.clear()
            search(t, theta, opts)
            assert screened, key
            p = t.domain.p
            moves = {(id(s), leg, dst, src, c % p if p else c)
                     for s, leg, dst, src, c in screened}
            assert len(moves) == len(screened) and all(move[-1] for move in moves), key


# over F_3 the lower search keeps the step row 1 -= row 0 on leg 1 at its
# pool's best state, and keeps it again at the state it leads to
KEPT_TWICE = ts.from_nonzeros((3, 2, 2), parse_domain("Fp:3"),
                              {(0, 0, 0): 2, (0, 1, 1): 2, (1, 0, 0): 1, (1, 0, 1): 2,
                               (1, 1, 0): 1, (1, 1, 1): 1, (2, 0, 0): 1, (2, 1, 0): 1})


def test_walk_screens_a_kept_move_again(monkeypatch):
    """A kept move is not recorded as passed over, and a skipped move still
    takes its draws.  Scripted draws give two restarts of two steps: the
    first keeps move g (row 1 -= row 0 on leg 1) at the pool's best, then
    passes over move x (row 0 += 3 row 2 on leg 0, residue 0 over F_3)
    without screening it; the second, at the state the first ended in,
    skips x again and keeps g again."""
    g, x = (1, 1, 0, 2), (0, 0, 2, 5)    # (leg, dst, src, index of c)
    script = iter(g + x + x + g)
    monkeypatch.setattr(sf, "_draws", lambda seed: lambda high: next(script))
    screen, apply, screened, applied = (_SearchState.transvection_gain,
                                        _SearchState.apply_transvection, [], [])

    def screening(state, *move):
        screened.append(move)
        return screen(state, *move)

    def applying(state, *move):
        applied.append(move)
        return apply(state, *move)

    monkeypatch.setattr(_SearchState, "transvection_gain", screening)
    monkeypatch.setattr(_SearchState, "apply_transvection", applying)
    lower_support_functional(KEPT_TWICE, U3, BasisSearchOptions(restarts=2, steps=2))
    assert next(script, None) is None
    assert applied == [(1, 1, 0, -1)] * 2
    assert screened == [(1, 1, 0, -1), (1, 1, 0, -1)]
