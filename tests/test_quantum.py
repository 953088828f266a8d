import gc
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import tenspect as ts
import tenspect.quantum as tq
from tenspect.entropy import ThetaWeights, binary_entropy, max_H_theta
from tenspect.errors import BudgetExceededError
from tenspect.partitions import irrep_dimension, partition_entropy, partitions
from tenspect.quantum import (MAX_POWER_ELEMENTS, ZERO_TOL, AscentOptions,
                              _dimension_bound, _entropy_derivatives,
                              _evaluate, _gradient, _kempf_ness,
                              _scaling_legs, _side_entropy,
                              _traceless_basis,
                              _collapse_rest, _gather,
                              _norm_table, _offsets, _orient, _project,
                              _surviving_tuples, _weight_blocks, _young_project,
                              bipartition_projector_apply,
                              isotypic_projector_apply,
                              lower_quantum_functional, marginal, state_array,
                              symmetrize_copies, tensor_power_array,
                              upper_quantum_certificate, von_neumann_entropy)

from conftest import random_complex_tensor

H13 = binary_entropy(1 / 3)
U3 = ThetaWeights.uniform(3)
FAST = AscentOptions(starts=3, max_iter=400, seed=0)


def normalized(t):
    arr = state_array(t)
    return arr / np.linalg.norm(arr)


def test_marginal_examples():
    psi = normalized(ts.unit(3))
    rho = marginal(psi, [0])
    assert np.allclose(rho, np.eye(3) / 3, atol=1e-12)
    assert von_neumann_entropy(rho) == pytest.approx(math.log2(3), abs=1e-10)

    prod = np.zeros((2, 2, 2), dtype=complex)
    prod[0, 0, 0] = 1.0
    for side in ([0], [1], [2], [0, 1]):
        assert von_neumann_entropy(marginal(prod, side)) == pytest.approx(0.0, abs=1e-12)

    w = normalized(ts.w_tensor())
    spec = np.linalg.eigvalsh(marginal(w, [0]))
    assert np.allclose(sorted(spec), [1 / 3, 2 / 3], atol=1e-12)
    assert von_neumann_entropy(marginal(w, [0])) == pytest.approx(H13, abs=1e-10)


def test_marginal_is_density_matrix(rng):
    for _ in range(5):
        t = random_complex_tensor(rng)
        psi = state_array(t)
        for side in ([0], [1, 2], [0, 2]):
            rho = marginal(psi, side)
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-10


def test_marginal_validation():
    psi = normalized(ts.unit(2))
    with pytest.raises(ValueError):
        marginal(psi, [])
    with pytest.raises(ValueError):
        marginal(psi, [0, 1, 2])
    with pytest.raises(ValueError):
        marginal(np.zeros((2, 2)), [0])


def test_pure_state_marginal_entropy_symmetry(rng):
    for _ in range(8):
        t = random_complex_tensor(rng)
        psi = state_array(t)
        psi /= np.linalg.norm(psi)
        for side in ([0], [1], [2], [0, 1], [0, 2]):
            comp = [i for i in range(3) if i not in side]
            hs = von_neumann_entropy(marginal(psi, side))
            hc = von_neumann_entropy(marginal(psi, comp))
            assert hs == pytest.approx(hc, abs=1e-8)


def test_gradient_matches_finite_differences(rng):
    t_arr = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
    gs = [np.eye(2, dtype=complex) + 0.2 * rng.standard_normal((2, 2)),
          np.eye(3, dtype=complex), np.eye(2, dtype=complex)]
    sides = [([0], 0.5), ([1, 2], 0.25), ([1], 0.25)]
    state = _evaluate(t_arr, gs, sides)
    f0, grads = state.value, _gradient(state, sides)
    eps = 1e-7
    for leg in range(3):
        n = gs[leg].shape[0]
        for a in range(n):
            for b in range(n):
                bumped = [g.copy() for g in gs]
                bumped[leg][a, b] += eps
                f1 = _evaluate(t_arr, bumped, sides).value
                assert (f1 - f0) / eps == pytest.approx(grads[leg][a, b].real, abs=1e-5)
                bumped = [g.copy() for g in gs]
                bumped[leg][a, b] += 1j * eps
                f1 = _evaluate(t_arr, bumped, sides).value
                assert (f1 - f0) / eps == pytest.approx(grads[leg][a, b].imag, abs=1e-5)


@pytest.mark.parametrize("dims,legs", [
    ((2, 3, 4), [0.5, 0.3, 0.2]),
    ((2, 3, 4), None),
    ((2, 2, 2, 2), None)])
def test_result_is_the_evaluated_final_state(dims, legs):
    # the trial that passes its gain test is the kept state: its value ends
    # the trace, and evaluating its transforms again gives it bit for bit
    rng = np.random.default_rng(34)
    arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    t = ts.Tensor(dims, ts.COMPLEXFLOAT, arr)
    theta = (ThetaWeights.from_legs(legs) if legs else
             ThetaWeights.from_bipartitions({(0,): 0.5, (0, 1): 0.5}, len(dims)))
    res = lower_quantum_functional(t, theta, AscentOptions(starts=2, max_iter=150))
    assert len(res.steps) > 0
    sides = [(list(side), w) for side, w in theta.bipartition_sides(len(dims)) if w > 0]
    state = _evaluate(arr, list(res.transforms), sides)
    assert res.value == res.trace[-1] == state.value
    assert res.leg_entropies == tuple(_side_entropy(state.psi, state.norm2, [i])[0]
                                      for i in range(len(dims)))


def test_ascent_at_bound_evaluates_once(monkeypatch):
    calls = []
    state = tq._state

    def counted(*args):
        calls.append(args)
        return state(*args)

    monkeypatch.setattr(tq, "_state", counted)
    res = lower_quantum_functional(ts.w_tensor(), U3, FAST)
    assert res.stop == "bound" and len(res.trace) == 1
    assert len(calls) == 1


@pytest.mark.parametrize("legs", [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (1.0, 0.0, 0.0)])
def test_leg_entropies_reuse_the_weighted_legs(monkeypatch, legs):
    # a weighted leg's entropy is read from the final state's spectra; only
    # the legs of weight 0 take a marginal of their own
    evals, sides = [], []
    evaluate, side_entropy = tq._evaluate, tq._side_entropy

    def counted_evaluate(*args):
        evals.append(args)
        return evaluate(*args)

    def counted_side(*args):
        sides.append(args)
        return side_entropy(*args)

    monkeypatch.setattr(tq, "_evaluate", counted_evaluate)
    monkeypatch.setattr(tq, "_side_entropy", counted_side)
    rng = np.random.default_rng(35)
    t = ts.Tensor((2, 3, 3), ts.COMPLEXFLOAT,
                  rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))
    res = lower_quantum_functional(t, ThetaWeights.from_legs(legs), FAST)
    weighted = sum(w > 0 for w in legs)
    assert len(sides) == weighted * len(evals) + 3 - weighted
    assert len(res.leg_entropies) == 3


def test_lower_functional_normalisation():
    for r in (1, 2, 3):
        res = lower_quantum_functional(ts.unit(r), U3, FAST)
        assert res.value == pytest.approx(math.log2(r) if r > 1 else 0.0, abs=1e-6)
        assert res.functional == pytest.approx(r, abs=1e-6)


def test_lower_functional_known_values():
    res = lower_quantum_functional(ts.w_tensor(), U3, FAST)
    assert res.value == pytest.approx(H13, abs=1e-3)
    res = lower_quantum_functional(ts.cw(2), U3, FAST)
    assert res.value == pytest.approx(2 / 3 + H13, abs=1e-3)


def test_lower_functional_monotone_trace(rng):
    t = random_complex_tensor(rng)
    res = lower_quantum_functional(t, U3, AscentOptions(starts=4, max_iter=300, seed=3))
    for a, b in zip(res.trace, res.trace[1:]):
        assert b >= a - 1e-12


def test_lower_functional_leg_entropies(rng):
    # under a leg theta the value is the weighted sum of the leg entropies
    t = random_complex_tensor(rng)
    theta = ThetaWeights.from_legs([0.5, 0.25, 0.25])
    res = lower_quantum_functional(t, theta, FAST)
    assert len(res.leg_entropies) == 3
    assert res.value == pytest.approx(
        sum(w * h for w, h in zip((0.5, 0.25, 0.25), res.leg_entropies)), rel=0, abs=1e-12)
    # a leg with zero weight still gets its entropy
    res = lower_quantum_functional(ts.unit(2), ThetaWeights.from_legs([1.0, 0.0, 0.0]), FAST)
    assert res.leg_entropies == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)


def test_lower_functional_bipartition_theta():
    theta = ThetaWeights.from_bipartitions({frozenset({0, 1}): 1.0}, 3)
    res = lower_quantum_functional(ts.unit(2), theta, FAST)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_lower_functional_zero_rejected():
    with pytest.raises(ValueError):
        lower_quantum_functional(ts.zeros((2, 2, 2), ts.RATIONAL), U3, FAST)


@pytest.mark.parametrize("bad", [dict(starts=0), dict(starts=-1), dict(max_iter=-1)])
def test_invalid_ascent_budgets_rejected(bad):
    with pytest.raises(ValueError):
        AscentOptions(**bad)


def test_zero_iteration_budget_is_valid():
    res = lower_quantum_functional(ts.w_tensor(), U3, AscentOptions(starts=1, max_iter=0))
    assert len(res.start_values) == 1


def _random_333():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    return ts.Tensor((3, 3, 3), ts.COMPLEXFLOAT, arr)


def test_stop_reasons():
    assert lower_quantum_functional(ts.unit(3), U3, FAST).stop == "bound"
    capped = lower_quantum_functional(_random_333(), U3, AscentOptions(starts=2, max_iter=1))
    assert capped.stop == "iteration_cap"
    assert len(capped.trace) == 2
    # W is not semistable: its optimum h(1/3) lies below the dimension bound
    # of 1 bit, but its support bound certifies it
    assert lower_quantum_functional(ts.w_tensor(), U3, FAST).stop == "bound"


def test_condition_limit_stop(monkeypatch):
    # every step from the identity leaves a transform of condition > 1.5
    monkeypatch.setattr(tq, "COND_LIMIT", 1.5)
    res = lower_quantum_functional(_random_333(), U3, AscentOptions(starts=2, max_iter=50))
    assert res.stop == "condition_limit"
    assert len(res.trace) == 2
    assert res.value <= res.upper


def test_no_step_stop(monkeypatch):
    # no sweep, no entropy-Newton step and no gradient step: the start,
    # below its bound, is where the ascent stops
    for name in ("_scaling_sweep", "_entropy_newton", "_backtrack"):
        monkeypatch.setattr(tq, name, lambda *args: None)
    res = lower_quantum_functional(_random_333(), U3, AscentOptions(starts=2, max_iter=50))
    assert res.stop == "no_step"
    assert res.trace == (res.value,) and res.steps == ()
    assert res.value < res.upper


@pytest.mark.parametrize("spec", ["unit:3", "cw:2"])
def test_ascent_stops_after_first_start_at_bound(monkeypatch, spec):
    calls = []
    ascend = tq._ascend

    def counted(*args, **kwargs):
        calls.append(args)
        return ascend(*args, **kwargs)

    monkeypatch.setattr(tq, "_ascend", counted)
    t = ts.build_family(ts.parse_family(spec))
    res = lower_quantum_functional(t, U3, FAST)
    assert len(res.start_values) == 1 and len(calls) == 1
    assert res.stop == "bound"


@pytest.mark.parametrize("legs", [[1 / 3, 1 / 3, 1 / 3], [0.25, 0.25, 0.5]])
def test_w_support_bound_certifies_the_ascent(legs):
    theta = ThetaWeights.from_legs(legs)
    res = lower_quantum_functional(ts.w_tensor(), theta, FAST)
    assert res.stop == "bound"
    support_max = max_H_theta(ts.SupportSet.from_tensor(ts.w_tensor()), theta).value
    assert res.upper == pytest.approx(support_max, rel=0, abs=1e-12)
    assert res.value <= res.upper + 1e-12


def test_support_bound_keeps_tiny_entries():
    # W with one entry scaled down to 1e-12: the orbit scales it back up, so
    # F = h(1/3), and the bound keeps the entry (without it the support
    # bound is 2/3 bit, where the ascent would stop).  Leg 0's marginal is
    # singular, so no scaling step applies and the gradient toward scaling
    # the entry up is of order 1e-24: the ascent stays at 2/3 bit, and its
    # stop says why
    arr = state_array(ts.w_tensor())
    arr[1, 0, 0] = 1e-12
    res = lower_quantum_functional(ts.Tensor((2, 2, 2), ts.COMPLEXFLOAT, arr), U3, FAST)
    assert res.upper >= H13 - 1e-12
    assert res.stop == "singular"
    assert res.value == pytest.approx(2 / 3, rel=0, abs=1e-15)


def test_scaling_sweep_reaches_log2_3_on_random_333():
    res = lower_quantum_functional(_random_333(), U3, AscentOptions(starts=1, max_iter=400))
    assert res.value == pytest.approx(math.log2(3), rel=0, abs=1e-8)
    assert res.stop == "bound"


def test_newton_steps_reach_log2_3_on_random_333_within_20_iterations():
    res = lower_quantum_functional(_random_333(), U3, AscentOptions(starts=1, max_iter=400))
    assert res.stop == "bound" and len(res.trace) <= 21
    assert len(res.steps) == len(res.trace) - 1 and "newton" in res.steps
    assert set(res.steps) <= {"newton", "sweep", "entropy_newton", "gradient"}


def test_entropy_newton_certifies_w_at_a_non_uniform_optimum():
    # W at theta = (1/4, 1/4, 1/2): the optimum is not at uniform marginals,
    # so every sweep is rejected; Newton steps on the objective reach the
    # support bound
    theta = ThetaWeights.from_legs([0.25, 0.25, 0.5])
    res = lower_quantum_functional(ts.w_tensor(), theta, AscentOptions(starts=2, max_iter=150))
    assert res.stop == "bound" and len(res.trace) <= 5
    assert "entropy_newton" in res.steps


def test_entropy_newton_on_a_w_class_tensor():
    # (g_0 x g_1 x g_2) W with complex g_i from default_rng(1), as in
    # scripts/ascent_cases.py; the first-order ascent took 356 trace entries
    # to the value below
    rng = np.random.default_rng(1)
    gs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3)]
    arr = np.einsum("ia,jb,kc,abc->ijk", *gs, state_array(ts.w_tensor()))
    theta = ThetaWeights.from_legs([1 / 2, 1 / 3, 1 / 6])
    res = lower_quantum_functional(ts.Tensor((2, 2, 2), ts.COMPLEXFLOAT, arr), theta)
    assert len(res.trace) <= 30
    assert res.value >= 0.93224129747985 - 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_traceless_basis_is_orthonormal_hermitian_and_traceless(d):
    basis = _traceless_basis(d)
    assert basis.shape == (d * d - 1, d, d) and not basis.flags.writeable
    assert np.allclose(basis, basis.conj().transpose(0, 2, 1), rtol=0, atol=1e-15)
    assert np.allclose(np.trace(basis, axis1=1, axis2=2), 0.0, rtol=0, atol=1e-15)
    gram = np.einsum("kab,lba->kl", basis, basis)
    assert np.allclose(gram, np.eye(d * d - 1), rtol=0, atol=1e-15)


def _kempf_ness_potential(psi, legs, coords):
    """log ||(x_i e^{X_i/2}) psi||^2 - sum_i tr X_i / d_i, X_i from coords."""
    out, traces = psi, 0.0
    for leg in legs:
        d = psi.shape[leg]
        x = np.tensordot(coords[:d * d - 1], _traceless_basis(d), axes=1)
        coords = coords[d * d - 1:]
        out = np.moveaxis(np.tensordot(scipy.linalg.expm(x / 2), out, axes=([1], [leg])), 0, leg)
        traces += np.trace(x).real / d
    return math.log(np.vdot(out, out).real) - traces


@pytest.mark.parametrize("legs", [[0, 1, 2], [0, 2], [1]])
def test_kempf_ness_derivatives_match_finite_differences(legs):
    rng = np.random.default_rng(24)
    psi = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    grad, hess = _kempf_ness(psi, legs)
    m = sum(psi.shape[leg] ** 2 - 1 for leg in legs)
    assert grad.shape == (m,) and hess.shape == (m, m)
    unit = np.eye(m)

    def potential(coords):
        return _kempf_ness_potential(psi, legs, coords)

    eps = 1e-5
    fd_grad = np.array([(potential(eps * e) - potential(-eps * e)) / (2 * eps) for e in unit])
    assert np.abs(fd_grad - grad).max() <= 1e-6 * np.abs(grad).max()

    eps = 3e-4
    fd_hess = np.empty((m, m))
    for k in range(m):
        for j in range(k, m):
            plus, minus = unit[k] + unit[j], unit[k] - unit[j]
            fd_hess[k, j] = fd_hess[j, k] = (
                potential(eps * plus) - potential(eps * minus)
                - potential(-eps * minus) + potential(-eps * plus)) / (4 * eps * eps)
    assert np.abs(fd_hess - hess).max() <= 1e-6 * np.abs(hess).max()


def _objective_at(psi, sides, coords):
    """The objective at (x_i e^{X_i/2}) psi over every leg, X_i from coords."""
    gs = []
    for d in psi.shape:
        gs.append(scipy.linalg.expm(np.tensordot(coords[:d * d - 1], _traceless_basis(d), axes=1) / 2))
        coords = coords[d * d - 1:]
    return _evaluate(psi, gs, sides).value


@pytest.mark.parametrize("dims,sides", [
    ((2, 3, 4), [([0], 0.5), ([1], 0.5), ([2], 0.0)]),
    ((2, 3, 4), [([0, 1], 0.5), ([0], 0.5)]),
    ((2, 2, 2, 2), [([0, 1], 0.5), ([0, 2], 0.3), ([3], 0.2)])])
def test_entropy_derivatives_match_finite_differences(dims, sides):
    rng = np.random.default_rng(33)
    psi = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    sides = [(side, w) for side, w in sides if w > 0]
    grad, hess = _entropy_derivatives(psi, sides)
    m = sum(d * d - 1 for d in dims)
    assert grad.shape == (m,) and hess.shape == (m, m)
    unit = np.eye(m)

    def objective(coords):
        return _objective_at(psi, sides, coords)

    eps = 1e-5
    fd_grad = np.array([(objective(eps * e) - objective(-eps * e)) / (2 * eps) for e in unit])
    assert np.abs(fd_grad - grad).max() <= 1e-6 * np.abs(grad).max()

    eps = 3e-4
    fd_hess = np.empty((m, m))
    for k in range(m):
        for j in range(k, m):
            plus, minus = unit[k] + unit[j], unit[k] - unit[j]
            fd_hess[k, j] = fd_hess[j, k] = (
                objective(eps * plus) - objective(eps * minus)
                - objective(-eps * minus) + objective(-eps * plus)) / (4 * eps * eps)
    assert np.abs(fd_hess - hess).max() <= 1e-4 * np.abs(hess).max()


def test_entropy_derivatives_need_full_rank_marginals():
    # W_eps at eps = 0: leg 0's marginal has rank 1, where log^[1] is unbounded
    psi = state_array(ts.w_tensor())
    psi[1, 0, 0] = 0.0
    assert _entropy_derivatives(psi, [([0], 0.5), ([1], 0.5)]) is None
    assert _entropy_derivatives(psi, [([1], 0.5), ([2], 0.5)]) is not None


def test_scaling_legs_and_dimension_bound():
    assert _scaling_legs(3, [([0, 1], 0.5), ([0], 0.5)]) == [0, 2]
    assert _scaling_legs(3, [([1], 1.0)]) == [1]
    # sides with two legs on both sides get no scaling sweep
    assert _scaling_legs(4, [([0, 1], 0.5), ([0, 2], 0.5)]) == []
    # min(4, 6) on both sides, so 2 bits
    assert _dimension_bound((2, 3, 4), [([2], 0.5), ([0, 1], 0.5)]) == pytest.approx(2.0, abs=1e-15)
    assert _dimension_bound((2, 2, 3, 2), [([0, 1], 1.0)]) == pytest.approx(2.0, abs=1e-15)


def test_degeneration_monotonicity(rng):
    # restricting by a singular map never raises the ascent value
    for _ in range(4):
        t = random_complex_tensor(rng, max_dim=2)
        sing = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        maps = [sing if i == 0 else np.eye(t.dims[i], dtype=complex)
                for i in range(3)]
        restricted = ts.restrict(t, maps)
        if restricted.is_zero():
            continue
        a = lower_quantum_functional(t, U3, FAST)
        b = lower_quantum_functional(restricted, U3, FAST)
        assert a.value >= b.value - 1e-3


def test_super_additivity_and_multiplicativity_spot():
    w = ts.w_tensor()
    u2 = ts.unit(2)
    opts = AscentOptions(starts=3, max_iter=500, seed=1)
    ew = lower_quantum_functional(w, U3, opts).value
    eu = lower_quantum_functional(u2, U3, opts).value
    es = lower_quantum_functional(ts.direct_sum(w, u2), U3, opts).value
    assert 2.0 ** es >= 2.0 ** ew + 2.0 ** eu - 2e-3
    ep = lower_quantum_functional(ts.tensor_product(w, u2), U3, opts).value
    assert ep >= ew + eu - 2e-3


def test_projector_suite_small():
    rng = np.random.default_rng(2)
    for d, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        v = rng.standard_normal((d,) * n) + 1j * rng.standard_normal((d,) * n)
        total = np.zeros_like(v)
        parts = {}
        for lam in partitions(n):
            pv = isotypic_projector_apply(v, (d,), n, lam, [0])
            parts[lam] = pv
            total += pv
            again = isotypic_projector_apply(pv, (d,), n, lam, [0])
            assert np.abs(again - pv).max() < 1e-8
        assert np.abs(total - v).max() < 1e-8
        lams = list(parts)
        for i in range(len(lams)):
            for j in range(i + 1, len(lams)):
                cross = isotypic_projector_apply(parts[lams[i]], (d,), n,
                                                 lams[j], [0])
                assert np.abs(cross).max() < 1e-8


def test_projectors_on_two_legs_of_a_nonsymmetric_vector(rng):
    # side [0, 2] is not contiguous in the copy-major layout, and v is not a
    # power, so only a projector that moves exactly the side's axes passes
    dims, n, side, k = (2, 3, 2), 3, [0, 2], 3
    v = rng.standard_normal(dims * n) + 1j * rng.standard_normal(dims * n)
    lams = list(partitions(n))
    parts = [isotypic_projector_apply(v, dims, n, lam, side) for lam in lams]
    assert np.abs(sum(parts) - v).max() < 1e-10
    for i, (lam, pv) in enumerate(zip(lams, parts)):
        again = isotypic_projector_apply(pv, dims, n, lam, side)
        assert np.abs(again - pv).max() < 1e-10
        for qv in parts[i + 1:]:
            assert abs(np.vdot(pv, qv)) < 1e-10
        # swapping the leg-1 axes of copies 0 and 1 commutes with the projector
        swapped = isotypic_projector_apply(v.swapaxes(1, k + 1), dims, n, lam, side)
        assert np.abs(swapped - pv.swapaxes(1, k + 1)).max() < 1e-10


def test_partitions_longer_than_the_side_dimension_project_to_zero(rng):
    dims = (2, 3, 2)
    for n, side, lam in [(3, [0], (1, 1, 1)), (4, [1], (1, 1, 1, 1)),
                         (3, [2], (1, 1, 1))]:
        v = rng.standard_normal(dims * n) + 1j * rng.standard_normal(dims * n)
        assert np.abs(isotypic_projector_apply(v, dims, n, lam, side)).max() < 1e-12
    # on a copy-symmetric vector the side's projection equals the
    # complement's, so more rows than the complement's dimension (3 here,
    # against d_S = 4) also gives zero; a random v is not copy-symmetric
    dims = (2, 2, 3)
    psi = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    power = tensor_power_array(psi, 4)
    assert np.abs(power).max() > 0.1
    out = isotypic_projector_apply(power, dims, 4, (1, 1, 1, 1), [0, 1])
    assert np.abs(out).max() < 1e-12


def test_symmetrizer_fixes_powers_and_antisym_kills_them(rng):
    dims = (2, 2, 2)
    psi = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    power = tensor_power_array(psi, 2)
    full = [0, 1, 2]
    sym = isotypic_projector_apply(power, dims, 2, (2,), full)
    assert np.abs(sym - power.reshape(dims * 2)).max() < 1e-10
    anti = isotypic_projector_apply(power, dims, 2, (1, 1), full)
    assert np.abs(anti).max() < 1e-10


def test_block_projectors_agree_between_sides(rng):
    dims = (2, 3, 2)
    for n in (2, 3):
        psi = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        power = tensor_power_array(psi, n)
        for side in ([0], [1], [0, 2]):
            comp = [i for i in range(3) if i not in side]
            for lam in partitions(n):
                a = bipartition_projector_apply(power, dims, n, lam, side)
                b = bipartition_projector_apply(power, dims, n, lam, comp)
                assert np.abs(a - b).max() < 1e-8


def test_certificate_examples():
    point = ThetaWeights.from_bipartitions({frozenset({0}): 1.0}, 3)
    res = upper_quantum_certificate(ts.unit(2), point, 2)
    assert res.value == pytest.approx(1.0, abs=1e-10)
    assert res.witness[0][1] == (1, 1)

    prod = ts.from_nonzeros((2, 2, 2), ts.RATIONAL, {(0, 0, 0): 1})
    res = upper_quantum_certificate(prod, U3, 2)
    assert res.value == pytest.approx(0.0, abs=1e-12)

    res = upper_quantum_certificate(ts.w_tensor(), U3, 3)
    assert res.value <= H13 + 1e-8
    assert res.value >= 0.85


def test_certificate_budget_and_crossing():
    with pytest.raises(BudgetExceededError):
        upper_quantum_certificate(ts.unit(2), U3, 6)
    res = upper_quantum_certificate(ts.unit(2), U3, 5)
    assert res.value == pytest.approx(partition_entropy((3, 2)), rel=0, abs=1e-12)
    assert res.witness == (((0,), (3, 2)), ((1,), (3, 2)), ((2,), (3, 2)))
    crossing = ThetaWeights.from_bipartitions(
        {frozenset({0, 1}): 0.5, frozenset({0, 2}): 0.5}, 4)
    t4 = ts.unit(2, k=4)
    with pytest.raises(ValueError, match="crossing theta weights are not supported"):
        upper_quantum_certificate(t4, crossing, 2)
    zero = ts.Tensor((2, 2, 2), ts.COMPLEXFLOAT, np.zeros((2, 2, 2), dtype=complex))
    with pytest.raises(ValueError, match="zero tensor"):
        upper_quantum_certificate(zero, U3, 2)


@pytest.mark.parametrize("dims,n", [((2, 2, 2), 0), ((2, 2, 2), 6), ((4, 4, 4), 5)])
def test_power_limit_is_one_check(dims, n):
    # the certificate and both public projectors share one limit:
    # n <= 5 and at most MAX_POWER_ELEMENTS entries (64^5 is above it); a
    # power below 1 is not a budget overrun but an invalid argument
    t = ts.Tensor(dims, ts.COMPLEXFLOAT, np.ones(dims, dtype=complex))
    error = ValueError if n < 1 else BudgetExceededError
    with pytest.raises(error):
        upper_quantum_certificate(t, U3, n)
    for project in (isotypic_projector_apply, bipartition_projector_apply):
        with pytest.raises(error):
            project(np.ones(1), dims, n, (n,), [0])
    assert n in (0, 6) or math.prod(dims) ** n > MAX_POWER_ELEMENTS


def _dense_survivors(power, n, sides):
    """Each tuple of (side, lam), depth first, whose successive dense
    permutation-sum projections of `power` do not vanish."""
    if not sides:
        yield ()
        return
    for lam in partitions(n):
        out = _young_project(power, lam, n, list(sides[0]))
        if np.linalg.norm(out) > ZERO_TOL:
            for tail in _dense_survivors(out, n, sides[1:]):
                yield ((sides[0], lam),) + tail


def _dense_certificate(arr, theta, n):
    """(surviving, witness, value) of the certificate from the dense
    permutation sums of the power, sides chained in theta's order."""
    sides = [(tuple(sorted(side)), w) for side, w in theta.bipartition_sides(arr.ndim)
             if w > 0]
    power = tensor_power_array(arr / np.linalg.norm(arr), n)
    alive = list(_dense_survivors(power, n, [side for side, _ in sides]))

    def weighted(chosen):
        # summed in side order, as the certificate does, so ties break alike
        total = 0.0
        for (_, w), (_, lam) in zip(sides, chosen):
            total += w * partition_entropy(lam)
        return total

    witness = max(alive, key=weighted)
    return len(alive), witness, weighted(witness)


def test_certificate_at_power_five_matches_the_permutation_sums():
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    res = upper_quantum_certificate(ts.Tensor((2, 2, 2), ts.COMPLEXFLOAT, arr), U3, 5)
    assert (res.surviving, res.witness, res.value) == _dense_certificate(arr, U3, 5)


# (dims, theta, powers): certificates with more than one side, where one
# table of norms decides the sides on disjoint legs
BIP4 = ThetaWeights.from_bipartitions({frozenset({0}): 0.5, frozenset({0, 1}): 0.5}, 4)
# noncrossing, but no choice of side or complement makes all five disjoint:
# the walk branches on {0} and {0, 1}, and one table decides the other three
NESTED4 = ThetaWeights.from_bipartitions(
    {frozenset(side): 0.2 for side in ({0}, {0, 1}, {0, 1, 2}, {0, 1, 3}, {0, 2, 3})}, 4)
MULTI_SIDE_CASES = [((2, 3, 2), U3, (2, 3)), ((2, 1, 3), U3, (2, 3)),
                    ((2, 3, 2), ThetaWeights.from_legs([0.5, 0.5, 0.0]), (2, 3)),
                    ((2, 2, 2, 2), BIP4, (2, 3, 4)), ((2, 2, 2, 2), NESTED4, (2, 3))]


@pytest.mark.parametrize("dims,theta,powers", MULTI_SIDE_CASES,
                         ids=["2x3x2-legs", "2x1x3-legs", "2x3x2-two-legs", "2x2x2x2-bip",
                              "2x2x2x2-nested"])
@pytest.mark.parametrize("seed", [0, 1])
def test_multi_side_certificate_matches_the_permutation_sums(dims, theta, powers, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    t = ts.Tensor(dims, ts.COMPLEXFLOAT, arr)
    for n in powers:
        res = upper_quantum_certificate(t, theta, n)
        assert (res.surviving, res.witness, res.value) == _dense_certificate(arr, theta, n)


def _random_array(rng, dims):
    return rng.standard_normal(dims) + 1j * rng.standard_normal(dims)


def _rank_two_rest(rng):
    # leg 0's reduced state has rank 2 < 3, so the compressed rest has a zero row
    slices = _random_array(rng, (2, 3, 3))
    return np.tensordot(rng.standard_normal((3, 2)), slices, 1)


BIP0_3 = ThetaWeights.from_bipartitions({frozenset({0}): 1.0}, 3)
# (array maker, theta, powers): theta whose sides leave legs of larger
# dimension untouched, which the certificate collapses into one leg
REST_CASES = [
    (lambda rng: _random_array(rng, (3, 3, 3)), BIP0_3, (3, 4)),
    (lambda rng: _random_array(rng, (2, 2, 4)), ThetaWeights.from_legs([1.0, 0.0, 0.0]), (3, 4)),
    (lambda rng: _random_array(rng, (2, 5)),
     ThetaWeights.from_bipartitions({frozenset({0}): 1.0}, 2), (3, 4)),
    (lambda rng: _random_array(rng, (2, 2, 2, 3)),
     ThetaWeights.from_bipartitions({frozenset({0, 1}): 1.0}, 4), (2, 3)),
    # a (x) B with B of rank 1, and a random 3x3 on legs 0 and 1 times a vector
    (lambda rng: np.multiply.outer(_random_array(rng, 3), np.outer(*_random_array(rng, (2, 3)))),
     BIP0_3, (3, 4)),
    (lambda rng: np.multiply.outer(_random_array(rng, (3, 3)), _random_array(rng, 3)),
     BIP0_3, (3,)),
    (_rank_two_rest, BIP0_3, (3, 4)),
    (lambda rng: _random_array(rng, (3, 3, 3)) * (rng.random((3, 3, 3)) < 0.4), BIP0_3, (3,)),
]


@pytest.mark.parametrize("make,theta,powers", REST_CASES,
                         ids=["3x3x3-bip0", "2x2x4-leg0", "2x5-bip0", "2x2x2x3-bip01",
                              "product-rank1", "matrix-times-vector", "rank2-rest",
                              "sparse-3x3x3"])
def test_collapsed_rest_matches_the_permutation_sums(make, theta, powers):
    arr = make(np.random.default_rng(3))
    t = ts.Tensor(arr.shape, ts.COMPLEXFLOAT, arr)
    for n in powers:
        res = upper_quantum_certificate(t, theta, n)
        assert (res.surviving, res.witness, res.value) == _dense_certificate(arr, theta, n)


def test_collapsed_rest_keeps_the_reduced_state():
    arr = _random_array(np.random.default_rng(4), (2, 3, 4))
    arr /= np.linalg.norm(arr)
    low, legs = _collapse_rest(arr, [(1,)])
    assert low.shape == (3, 3) and legs == [(0,)]
    assert np.abs(low @ low.conj().T - marginal(arr, (1,))).max() < 1e-12
    # legs of the larger dimension are kept as they are
    assert _collapse_rest(arr, [(1, 2)])[0] is arr


def test_single_bipartition_at_power_five_stays_small():
    # leg 0 alone: the power is built on 3 x 3 entries, not on the 27 of the
    # tensor (about 460 MB of traced allocations without the collapse)
    tracemalloc.start()
    try:
        res = upper_quantum_certificate(_random_333(), BIP0_3, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.power == 5 and res.surviving > 0
    assert peak < 32 * 2 ** 20


def test_certificate_calls_carry_no_state():
    rng = np.random.default_rng(7)
    # the NESTED4 call runs the branch levels' buffers across threads
    a, b, c = [(ts.Tensor(dims, ts.COMPLEXFLOAT,
                          rng.standard_normal(dims) + 1j * rng.standard_normal(dims)), theta, n)
               for dims, theta, n in [((2, 3, 2), U3, 4), ((2, 2, 2, 2), BIP4, 3),
                                      ((2, 2, 2, 2), NESTED4, 3)]]
    first_a = upper_quantum_certificate(*a)
    first_b = upper_quantum_certificate(*b)
    first_c = upper_quantum_certificate(*c)
    assert upper_quantum_certificate(*a) == first_a
    # two at once, from an empty cache, switching threads often
    _weight_blocks.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(lambda call: upper_quantum_certificate(*call),
                                    [a, b, c] * 8, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [first_a, first_b, first_c] * 8


def test_weight_blocks_are_cached_and_read_only():
    order, types, onehot = _weight_blocks(3, 3)
    again = _weight_blocks(3, 3)
    assert again[0] is order and again[1] is types and again[2] is onehot
    for arr in (order, onehot):
        with pytest.raises(ValueError):
            arr[0] = 1
    # test_projector_matrix checks that q_lam^T q_lam is each block's projector
    for rows, blocks, size, q, spans in types:
        with pytest.raises(ValueError):
            q[0, 0] = 1.0
        assert np.abs(q @ q.T - np.eye(size)).max() < 1e-12


@pytest.mark.parametrize("dims,theta,p,legs", [
    ((2, 3, 2), U3, 0, [(0,), (1,), (2,)]),
    ((2, 2, 3), ThetaWeights.from_bipartitions({frozenset({0, 1}): 1.0}, 3), 0, [(2,)]),
    ((2, 2, 2, 2), BIP4, 0, [(0,), (2, 3)]),
    ((2, 2, 2, 2), NESTED4, 2, [(0,), (0, 1), (3,), (2,), (1,)])])
def test_orientation_branches_only_where_sides_cannot_be_disjoint(dims, theta, p, legs):
    sides = [tuple(sorted(side)) for side, w in theta.bipartition_sides(len(dims)) if w > 0]
    assert _orient(dims, sides) == (p, legs)


@pytest.mark.parametrize("n", [3, 4])
def test_survivors_do_not_depend_on_the_order_of_the_sides(n):
    # noncrossing side projectors commute on copy-symmetric vectors; these
    # orders of NESTED4's sides branch on 1, 2 and 3 of them
    rng = np.random.default_rng(11)
    arr = _random_array(rng, (2, 2, 2, 2))
    arr /= np.linalg.norm(arr)
    own = [tuple(sorted(side)) for side, w in NESTED4.bipartition_sides(4) if w > 0]
    orders = {1: [(0, 1), (0,), (0, 1, 2), (0, 1, 3), (0, 2, 3)], 2: own,
              3: [(0,), (0, 1, 2), (0, 1), (0, 1, 3), (0, 2, 3)]}
    found = []
    for p, sides in orders.items():
        assert _orient((2, 2, 2, 2), sides)[0] == p
        found.append({frozenset(chosen) for chosen in _surviving_tuples(arr, n, sides)})
    assert found[0] == found[1] == found[2]
    assert len(found[0]) == {3: 14, 4: 60}[n]


def test_certificate_below_support_entropy(rng):
    # sandwich: finite-level certificate never beats the support bound
    from tenspect.support_functionals import rho_upper_at_basis
    from tenspect.tensors import BasisTuple
    for _ in range(6):
        t = random_complex_tensor(rng)
        up = rho_upper_at_basis(t, BasisTuple.standard(t), U3)
        cert = upper_quantum_certificate(t, U3, 2)
        assert cert.value <= up + 1e-6


def _schur_at_ones(lam, d):
    """s_lam(1^d) by the hook-content formula: prod over boxes (d + j - i) / h(i, j)."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])]
    value = Fraction(1)
    for i, row in enumerate(lam):
        for j in range(row):
            value *= Fraction(d + j - i, (row - j) + (conj[j] - i) - 1)
    return value


def _blocks(d, n, lam):
    """Each weight block of the lam-projector on (C^d)^{(x)n}: its rows in
    [d]^n and its matrix q_lam^T q_lam, None where lam has no rows."""
    order, types, _ = _weight_blocks(d, n)
    c = list(partitions(n)).index(lam)
    for rows, blocks, size, q, spans in types:
        mat = q[spans[c]].T @ q[spans[c]] if c in spans else None
        for block in order[rows].reshape(blocks, size):
            yield block, mat


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_projector_matrix(d, n, rng):
    assert sorted(_weight_blocks(d, n)[0]) == list(range(d ** n))
    totals = {}
    v = rng.standard_normal(d ** n) + 1j * rng.standard_normal(d ** n)
    for lam in partitions(n):
        got = np.zeros_like(v)
        trace = 0.0
        for rows, mat in _blocks(d, n, lam):
            if mat is None:
                mat = np.zeros((len(rows), len(rows)))
            totals[rows[0]] = totals.get(rows[0], 0) + mat
            assert np.abs(mat - mat.T).max() < 1e-12
            assert np.abs(mat @ mat - mat).max() < 1e-12
            trace += np.trace(mat)
            got[rows] = mat @ v[rows]
        want = irrep_dimension(lam) * _schur_at_ones(lam, d)
        assert trace == pytest.approx(float(want), rel=0, abs=1e-12)
        # v is not symmetric in the copies, so the copy order of the
        # blocks' rows and columns must match the permutation sum's
        want = isotypic_projector_apply(v, (d,), n, lam, [0]).reshape(-1)
        assert np.abs(got - want).max() < 1e-12
    for total in totals.values():
        assert np.abs(total - np.eye(len(total))).max() < 1e-12


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (3, 5)])
def test_projector_matrix_is_the_permutation_sum(d, n):
    # the permutation sum applied to the copy-major power of eye(d), rows on
    # leg 0 and columns on leg 1 of each copy; zero off the weight blocks and
    # q_lam^T q_lam on each block, to rounding
    eye_power = reduce(np.multiply.outer, [np.eye(d)] * n)
    for lam in partitions(n):
        want = _young_project(eye_power, lam, n, [0])
        want = want.transpose(list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2)))
        want = np.ascontiguousarray(want).reshape(d ** n, d ** n)
        inside = np.zeros(want.shape, dtype=bool)
        for rows, got in _blocks(d, n, lam):
            block = want[np.ix_(rows, rows)]
            inside[np.ix_(rows, rows)] = True
            if got is None:
                assert not block.any()
                continue
            assert np.abs(got - block).max() < 1e-12
        assert not want[~inside].any()


# (leg dimensions, side, largest power): the projection acts on the side or
# on its complement, whichever has the smaller dimension d <= 4, with one leg
# or several, contiguous or not, some of dimension 1
SIDE_CASES = [((1, 3), (0,), 4), ((3, 2), (0,), 4), ((2, 4), (1,), 4),
              ((4, 4), (0,), 4), ((2, 2, 2), (0, 1), 4), ((2, 2, 4), (0, 1), 4),
              ((2, 3, 2, 1), (0, 2), 4), ((1, 2, 3), (2,), 4),
              ((2, 2, 2, 2), (0, 3), 3)]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(SIDE_CASES), n=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_projection_matches_the_permutation_sum(case, n, seed):
    dims, side, max_n = case
    n = min(n, max_n)
    rng = np.random.default_rng(seed)
    shape = dims * n
    arr = symmetrize_copies(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), n)
    (legs,) = _orient(dims, [side])[1]
    order, types, onehot = _weight_blocks(math.prod(dims[i] for i in legs), n)
    pos = reduce(np.add.outer, _offsets(dims, n, [legs], [order])).ravel()

    def layout(power):
        return power.reshape(-1)[pos]

    moved = np.empty(arr.size, dtype=complex)
    table = _norm_table(layout(arr), moved, [(types, onehot)])
    out = np.empty_like(moved)
    for c, lam in enumerate(partitions(n)):
        want = _young_project(arr, lam, n, list(side))
        assert table[c] == pytest.approx(np.linalg.norm(want) ** 2, rel=0, abs=1e-10)
        _project(moved, out, types, c)
        assert np.abs(out - layout(want)).max() < 1e-10
        if np.sqrt(table[c]) <= ZERO_TOL:
            assert np.linalg.norm(want) <= ZERO_TOL + 1e-10


@pytest.mark.parametrize("dims,groups,n", [
    ((2, 3, 2), [(0,), (1,), (2,)], 3), ((3, 3, 3), [(0,)], 2), ((2, 2, 3), [(2,), (0,)], 4),
    ((2, 2, 2, 2), [(0,), (2, 3)], 3), ((2, 1, 3), [(1,), (0, 2)], 3), ((2, 3), [(1,)], 1)])
def test_gathered_power_is_the_power_at_its_positions(dims, groups, n):
    # the copy-major power laid out through the offsets holds, at each entry,
    # the power at that entry's group words in block order, and reads every
    # copy-major index once
    rng = np.random.default_rng(n)
    arr = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    rest = tuple(i for i in range(len(dims)) if not any(i in g for g in groups))
    orders = [_weight_blocks(math.prod(dims[i] for i in g), n)[0] for g in groups]
    offsets = _offsets(dims, n, groups, orders)
    power = tensor_power_array(arr, n)
    out = np.empty(power.size, dtype=complex)
    _gather(power.reshape(-1), offsets, out)
    assert sorted(reduce(np.add.outer, offsets).ravel()) == list(range(power.size))
    axes = [m * len(dims) + i for g in groups + [rest] for m in range(n) for i in g]
    want = power.transpose(axes).reshape([math.prod(dims[i] for i in g) ** n
                                          for g in groups + [rest]])
    want = want[np.ix_(*orders, np.arange(want.shape[-1]))]
    assert (out == want.reshape(-1)).all()


@pytest.mark.parametrize("d,n", [(7, 3), (10, 3), (20, 2)])
def test_certificate_at_large_side_dimension(d, n):
    # against the dense permutation sum of every partition on leg 0
    rng = np.random.default_rng(d)
    arr = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    theta = ThetaWeights.from_bipartitions({frozenset({0}): 1.0}, 2)
    res = upper_quantum_certificate(ts.Tensor((d, d), ts.COMPLEXFLOAT, arr), theta, n)
    power = tensor_power_array(arr / np.linalg.norm(arr), n)
    alive = [lam for lam in partitions(n)
             if np.linalg.norm(_young_project(power, lam, n, [0])) > ZERO_TOL]
    best = max(alive, key=partition_entropy)
    assert res.surviving == len(alive)
    assert res.witness == (((0,), best),)
    assert res.value == partition_entropy(best)


def test_certificate_leaves_no_reference_cycle():
    t = random_complex_tensor(np.random.default_rng(5))
    gc.collect()
    gc.disable()
    try:
        upper_quantum_certificate(t, U3, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
