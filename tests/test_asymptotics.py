import math

import numpy as np
import pytest

import tenspect as ts
import tenspect.asymptotics as tasy
from tenspect.asymptotics import (asympt_slicerank, asympt_subrank_tight3,
                                  capset_bound, modular_sum_support,
                                  reduced_polymult_support,
                                  slicerank_exact_combinatorial, z_of_n)
from tenspect.entropy import binary_entropy
from tenspect.quantum import AscentOptions, lower_quantum_functional, state_array

H13 = binary_entropy(1 / 3)

Z_TABLE = {2: 1.88988, 3: 2.75510, 4: 3.61072, 5: 4.46158, 6: 5.30973,
           7: 6.15620, 8: 7.00155, 9: 7.84612, 10: 8.69012}


def test_z_values_match_table():
    for n, z in Z_TABLE.items():
        assert round(z_of_n(n).z, 5) == z


def test_z_closed_forms():
    assert abs(z_of_n(2).z - 3 * 2 ** (-2 / 3)) <= 1e-12
    assert abs(z_of_n(2).gamma - 2.0) <= 1e-12
    assert abs(z_of_n(3).z - 3 * (207 + 33 * math.sqrt(33)) ** (1 / 3) / 8) <= 1e-10
    with pytest.raises(ValueError):
        z_of_n(1)


def test_asympt_subrank_matches_z():
    for n in (2, 3, 4):
        phi = reduced_polymult_support(n)
        res = asympt_subrank_tight3(phi)
        assert res.value == pytest.approx(z_of_n(n).z, abs=1e-4)
        assert res.minimax.gap <= 1e-6


def test_asympt_subrank_w_and_unit():
    w = ts.SupportSet.from_tensor(ts.w_tensor())
    assert asympt_subrank_tight3(w).value == pytest.approx(2 ** H13, abs=1e-6)
    u = ts.SupportSet.from_tensor(ts.unit(4))
    assert asympt_subrank_tight3(u).value == pytest.approx(4.0, abs=1e-9)


def test_asympt_subrank_rejects_bad_input():
    psi2 = ts.SupportSet((2, 2, 2), ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)))
    with pytest.raises(ValueError):
        asympt_subrank_tight3(psi2)   # not tight
    with pytest.raises(ValueError):
        asympt_subrank_tight3(ts.SupportSet((2, 2), ((0, 1),)))   # k != 3


def test_sandwich_subrank_set_vs_asymptotic():
    rng = np.random.default_rng(3)
    phi4 = reduced_polymult_support(4)
    for _ in range(10):
        pts = tuple(p for p in phi4.points if rng.random() < 0.7)
        if not pts:
            continue
        sub = ts.SupportSet(phi4.bounds, pts)
        res = asympt_subrank_tight3(sub)   # subsets of tight sets stay tight
        exact = ts.subrank_set(sub).value
        assert exact <= res.value + 1e-9
        assert res.value <= min(len(sub.values(i)) for i in range(3)) + 1e-9


def test_degeneration_lower_bound_pipeline():
    for m in (2, 3):
        psi = modular_sum_support(m)
        phi = reduced_polymult_support(m)
        cert = ts.check_comb_degeneration(psi, phi)
        assert cert is not None and cert.verify(psi, phi)
        assert asympt_subrank_tight3(phi).value == pytest.approx(z_of_n(m).z, abs=1e-4)
    phi = reduced_polymult_support(3)
    assert ts.check_comb_degeneration(phi, phi) is not None


def test_capset_bound_values():
    rep = capset_bound(3, 3)
    assert rep.value == pytest.approx(2.75510, abs=1e-4)
    assert set(rep.transformed_support.points) == set(rep.target_support.points)
    assert rep.degeneration.verify(rep.modular_support, rep.target_support)
    assert capset_bound(2, 2).value == pytest.approx(1.88988, abs=1e-4)
    assert capset_bound(4, 2).value == pytest.approx(3.61072, abs=1e-4)


def test_capset_bound_validation():
    with pytest.raises(ValueError):
        capset_bound(6, 3)
    with pytest.raises(ValueError):
        capset_bound(3, 2)


def test_slicerank_exact_examples():
    w = ts.SupportSet.from_tensor(ts.w_tensor())
    assert slicerank_exact_combinatorial(w).size == 2
    assert slicerank_exact_combinatorial(
        ts.SupportSet.from_tensor(ts.unit(5))).size == 5
    single = ts.SupportSet((3, 3, 3), ((1, 2, 0),))
    assert slicerank_exact_combinatorial(single).size == 1


def test_slicerank_exact_cover_is_valid():
    rng = np.random.default_rng(9)
    from conftest import random_support
    checked = 0
    for _ in range(30):
        s = random_support(rng, bounds=(3, 3, 3), max_points=7)
        if not ts.is_antichain(s):
            continue
        cover = slicerank_exact_combinatorial(s)
        checked += 1
        for p in s.points:
            assert any(p[leg] == val for leg, val in cover.slices)
        assert cover.size <= min(len(s.values(i)) for i in range(3))
        assert cover.size >= ts.subrank_set(s).value
    assert checked >= 3


def test_slicerank_exact_point_limit():
    # an antichain of SLICE_COVER_MAX_POINTS + 1 points on two legs
    n = tasy.SLICE_COVER_MAX_POINTS
    s = ts.SupportSet((n + 1, n + 1), tuple((i, n - i) for i in range(n + 1)))
    with pytest.raises(ts.BudgetExceededError, match="support larger than budget"):
        slicerank_exact_combinatorial(s)


def test_slicerank_exact_limit_before_antichain_test(monkeypatch):
    # the point limit and the empty test come before any antichain pass
    n = tasy.SLICE_COVER_MAX_POINTS
    s = ts.SupportSet((n + 1, n + 1), tuple((i, n - i) for i in range(n + 1)))

    def refuse(*args, **kwargs):
        raise AssertionError("antichain test ran before the size checks")

    monkeypatch.setattr(tasy, "is_antichain", refuse)
    monkeypatch.setattr(tasy, "check_tight", refuse)
    with pytest.raises(ts.BudgetExceededError, match="support larger than budget"):
        slicerank_exact_combinatorial(s)
    with pytest.raises(ValueError, match="empty support"):
        slicerank_exact_combinatorial(ts.SupportSet((2, 2, 2), ()))


def test_slicerank_exact_rejects_unordered():
    bad = ts.SupportSet((2, 2, 2), ((0, 0, 0), (0, 1, 1), (1, 1, 1)))
    with pytest.raises(ValueError):
        slicerank_exact_combinatorial(bad)


def test_slicerank_exact_matches_bruteforce_cover():
    from itertools import combinations

    def brute_cover(s):
        slices = [(leg, v) for leg in range(s.k) for v in s.values(leg)]
        for size in range(1, len(slices) + 1):
            for combo in combinations(slices, size):
                if all(any(p[leg] == v for leg, v in combo) for p in s.points):
                    return size
        return None

    from conftest import random_support
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 12:
        s = random_support(rng, bounds=(3, 3, 3), max_points=6)
        if not ts.is_antichain(s):
            continue
        assert slicerank_exact_combinatorial(s).size == brute_cover(s)
        checked += 1


def test_asympt_slicerank_w():
    t = ts.convert(ts.w_tensor(), ts.COMPLEXFLOAT)
    opts = AscentOptions(starts=3, max_iter=400, seed=0)
    res = asympt_slicerank(t, opts)
    assert res.value == pytest.approx(1.88988, abs=2e-3)
    assert res.route == "support"
    # quantum and combinatorial routes agree on free tensors
    quantum = lower_quantum_functional(t, res.theta, opts).value
    assert abs(quantum - res.log2_value) <= 2e-3


@pytest.mark.parametrize("spec", ["W", "cw:2", "unit:3"])
def test_asympt_slicerank_free_support_runs_no_ascent(monkeypatch, spec):
    def refuse(*args, **kwargs):
        raise AssertionError("the support route ran an ascent")

    monkeypatch.setattr(tasy, "lower_quantum_functional", refuse)
    t = ts.convert(ts.build_family(ts.parse_family(spec)), ts.COMPLEXFLOAT)
    res = asympt_slicerank(t, AscentOptions(starts=2, max_iter=200, seed=0))
    assert res.route == "support"
    assert res.quantum_values == ()


def test_asympt_slicerank_non_free_takes_quantum_route(monkeypatch):
    from conftest import random_complex_tensor
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return lower_quantum_functional(*args, **kwargs)

    monkeypatch.setattr(tasy, "lower_quantum_functional", counted)
    t = random_complex_tensor(np.random.default_rng(7), max_dim=2, density=1.0)
    assert not ts.is_free(ts.SupportSet.from_tensor(t))
    res = asympt_slicerank(t, AscentOptions(starts=2, max_iter=200, seed=0))
    assert res.route == "quantum"
    assert len(calls) == len(res.quantum_values) >= 1


def test_asympt_slicerank_empty_support_takes_quantum_route():
    # every entry lies below the complex zero tolerance, so the support is
    # empty (free, but without a minimax) and the ascent gives the value
    t = ts.convert(ts.w_tensor(), ts.COMPLEXFLOAT)
    tiny = ts.Tensor(t.dims, ts.COMPLEXFLOAT, 1e-11 * state_array(t))
    assert len(ts.SupportSet.from_tensor(tiny)) == 0
    res = asympt_slicerank(tiny, AscentOptions(starts=3, max_iter=400, seed=0))
    assert res.route == "quantum"
    assert res.value == pytest.approx(1.88988, abs=2e-3)


def test_asympt_slicerank_zero_tensor():
    zero = ts.Tensor((2, 2, 2), ts.COMPLEXFLOAT, np.zeros((2, 2, 2), dtype=complex))
    with pytest.raises(ValueError, match="zero tensor"):
        asympt_slicerank(zero)


def test_asympt_slicerank_unit3():
    t = ts.convert(ts.unit(3), ts.COMPLEXFLOAT)
    res = asympt_slicerank(t, AscentOptions(starts=2, max_iter=300, seed=0))
    assert res.value == pytest.approx(3.0, abs=1e-6)


def test_asympt_slicerank_cw2():
    t = ts.convert(ts.cw(2), ts.COMPLEXFLOAT)
    res = asympt_slicerank(t, AscentOptions(starts=3, max_iter=400, seed=0))
    assert res.value == pytest.approx(2 ** (2 / 3 + H13), abs=5e-3)
    # grid refinement over theta confirms the uniform weights minimise the
    # support-route objective; q=3 makes the minimum strict (at q=2 the
    # objective is flat at log2 3)
    from tenspect.entropy import ThetaWeights, max_H_theta
    supp = ts.SupportSet.from_tensor(ts.cw(3))
    target = 2 / 3 * math.log2(3) + H13
    best, best_theta = math.inf, None
    for n_steps in (6, 12):
        for i in range(n_steps + 1):
            for j in range(n_steps + 1 - i):
                th = (i / n_steps, j / n_steps, (n_steps - i - j) / n_steps)
                val = max_H_theta(supp, ThetaWeights.from_legs(th)).value
                assert val >= target - 1e-8
                if val < best:
                    best, best_theta = val, th
    assert best == pytest.approx(target, abs=1e-8)
    assert best_theta == (1 / 3, 1 / 3, 1 / 3)


def test_asympt_slicerank_bounds(rng):
    from conftest import random_complex_tensor
    for _ in range(3):
        t = random_complex_tensor(rng)
        res = asympt_slicerank(t, AscentOptions(starts=2, max_iter=250, seed=1))
        assert res.value >= 1.0 - 1e-6
        assert res.value <= min(t.dims) + 1e-3
