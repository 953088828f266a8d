"""Quantum marginals, entropy ascent over local transformations, and
isotypic projections on tensor powers.

The lower functional maximises the theta-weighted marginal von Neumann
entropy of (g_1 x ... x g_k) t over invertible g_i (per-step
renormalisation, seeded multi-start).  Each iteration first tries one
operator-scaling sweep: g_i <- rho_i^{-1/2} g_i on each leg that is a
weighted side or the one-leg complement of one, in turn, which reaches the
optimum at a linear rate where it has uniform marginals (every semistable
tensor).  The sweep is kept if it passes the Armijo test of a gradient step
of the current trial length; otherwise the iteration is a gradient step with
an Armijo line search (analytic Wirtinger gradient).  Both must gain more
than 4 ulps, so a saturated maximum stops without depending on the last
bits.  The ascent stops at the dimension bound sum_S w_S log2 min(d_S, d_C),
a certified maximum, and the result names the reason it stopped.
Line-search trials evaluate the objective alone (one eigvalsh per weighted
side); the gradient is computed once per accepted step.  Each leg product
is one matmul on the (legs before, leg, legs after) view of the array.

The upper certificate enumerates tuples of partitions whose isotypic
projections leave a tensor power alive.  The public projector
functions apply the permutation sum: each permutation is one transpose of
the side's axes of the copy-major power, with the other legs in place.  The
certificate only projects copy-symmetric vectors, on which the side's
projection equals its complement's, so it acts on whichever of the two has
the smaller dimension d: each projection is one matmul with the real
d^n x d^n matrix of the projector, built once per call from the permutation
sum.  Partitions with more rows than min(d_S, d_C) are skipped, since
Schur-Weyl duality makes their projections of a copy-symmetric vector zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations as iter_permutations
from math import factorial, prod

import numpy as np

from .entropy import ThetaWeights
from .errors import BudgetExceededError
from .partitions import (character, irrep_dimension, normalize_partition,
                         partition_entropy, partitions)
from .tensors import COMPLEXFLOAT, Tensor, convert

__all__ = [
    "state_array", "marginal", "von_neumann_entropy",
    "AscentOptions", "LowerQuantumResult", "lower_quantum_functional",
    "isotypic_projector_apply", "bipartition_projector_apply",
    "symmetrize_copies", "tensor_power_array",
    "CertificateResult", "upper_quantum_certificate",
]

# the entropy ascent stops when its value is within BOUND_TOL of the
# dimension bound, when the gradient norm falls below GRAD_TOL, at the
# iteration cap, when a transform's condition number exceeds COND_LIMIT, or
# when no step gains
BOUND_TOL = 1e-13
GRAD_TOL = 1e-7
COND_LIMIT = 1e8
#: no scaling sweep when a leg marginal's smallest eigenvalue is at or below
#: SINGULAR times its largest
SINGULAR = 1e-12
# ascent step rule: first trial step, Armijo slope fraction, backtrack factor
STEP0 = 1.0
ARMIJO = 1e-4
BACKTRACK = 0.5
#: size of the random perturbation of the identity at every start but the first
PERTURBATION = 0.3

#: a projected tensor power with norm at or below this is annihilated
ZERO_TOL = 1e-8


def state_array(t: Tensor) -> np.ndarray:
    """Writable complex array of a tensor, converting exact domains."""
    return np.array(convert(t, COMPLEXFLOAT).entries, dtype=complex)


def _side_indices(k: int, side) -> list[int]:
    side = sorted(set(int(x) for x in side))
    if not side or len(side) >= k:
        raise ValueError("marginal subset must be proper and nonempty")
    if any(x < 0 or x >= k for x in side):
        raise ValueError("marginal subset out of range")
    return side


def marginal(psi: np.ndarray, side) -> np.ndarray:
    """Reduced density matrix of a (possibly unnormalised) pure state."""
    mat, _ = _side_view(psi, _side_indices(psi.ndim, side))
    norm2 = float(np.vdot(mat, mat).real)
    if norm2 <= 0.0:
        raise ValueError("zero state has no marginals")
    return mat @ mat.conj().T / norm2


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy in bits of a density matrix, over `_spectrum_mask`'s eigenvalues."""
    evals = np.linalg.eigvalsh(rho)
    evals = evals[_spectrum_mask(evals)]
    return float(-(evals * np.log2(evals)).sum())


# ---------------------------------------------------------------------------
# lower functional: entropy ascent over local invertible transformations


@dataclass(frozen=True)
class AscentOptions:
    starts: int = 16
    max_iter: int = 5000
    seed: int = 0


@dataclass(frozen=True)
class LowerQuantumResult:
    value: float                    # bits; a lower bound on the supremum
    transforms: tuple[np.ndarray, ...]
    trace: tuple[float, ...]        # monotone objective trace of the best start
    start_values: tuple[float, ...]
    # why the best start stopped: "bound", "gradient", "iteration_cap",
    # "condition_limit" or "no_step"
    stop: str

    @property
    def functional(self) -> float:
        return 2.0 ** self.value

    def trace_csv(self) -> str:
        lines = ["iteration,objective"]
        lines += [f"{i},{v!r}" for i, v in enumerate(self.trace)]
        return "\n".join(lines) + "\n"


def _apply_transforms(t_arr: np.ndarray, gs, skip: int | None = None) -> np.ndarray:
    """(g_0 x ... x g_{k-1}) t, leaving the leg `skip` untouched.

    Each leg product is one matmul on the (legs before, leg, legs after)
    view of the array.
    """
    out = t_arr
    for leg, g in enumerate(gs):
        if leg == skip:
            continue
        dims = out.shape
        out = np.matmul(g, out.reshape(prod(dims[:leg]), dims[leg], -1)).reshape(dims)
    return out


def _state(t_arr, gs):
    """The transformed tensor and its squared norm, or None if it vanishes."""
    psi = _apply_transforms(t_arr, gs)
    norm2 = float(np.vdot(psi, psi).real)
    if not np.isfinite(norm2) or norm2 < 1e-250:
        return None
    return psi, norm2


def _side_view(psi: np.ndarray, side) -> tuple[np.ndarray, list[int]]:
    """psi as a (side, rest) matrix, with the axis order of that view."""
    axes = sorted(side)
    order = axes + [i for i in range(psi.ndim) if i not in axes]
    return psi.transpose(order).reshape(prod(psi.shape[i] for i in axes), -1), order


def _spectrum_mask(evals: np.ndarray) -> np.ndarray:
    # eigenvalues come in ascending order, so the last one is the largest
    return evals > max(evals[-1], 1e-300) * 1e-14


def _objective(t_arr, gs, sides):
    """Objective in bits alone: one eigvalsh per weighted side."""
    state = _state(t_arr, gs)
    if state is None:
        return None
    psi, _ = state
    return sum(w * von_neumann_entropy(marginal(psi, side)) for side, w in sides)


def _objective_and_grads(t_arr, gs, sides):
    """Objective in bits plus per-leg Wirtinger ascent directions."""
    state = _state(t_arr, gs)
    if state is None:
        return None
    psi, norm2 = state
    value = 0.0
    gpsi = np.zeros_like(psi)
    for side, w in sides:
        mat, order = _side_view(psi, side)
        evals, vecs = np.linalg.eigh(mat @ mat.conj().T / norm2)
        keep = _spectrum_mask(evals)
        lam = evals[keep]
        u = vecs[:, keep]
        h_s = float(-(lam * np.log2(lam)).sum())
        value += w * h_s
        lpsi = ((u * np.log2(lam)) @ u.conj().T @ mat).reshape([psi.shape[i] for i in order])
        gpsi += w * (lpsi.transpose(np.argsort(order)) + h_s * psi)
    gpsi = -gpsi / norm2
    grads = []
    for leg, d in enumerate(psi.shape):
        # contract over every other leg: one matmul of the (before, leg, after)
        # views flattened to (leg, rest) and (rest, leg), the same product
        # tensordot over those legs forms
        phi = _apply_transforms(t_arr, gs, skip=leg).reshape(prod(psi.shape[:leg]), d, -1)
        w_mat = (np.conj(gpsi).reshape(phi.shape).transpose(1, 0, 2).reshape(d, -1)
                 @ phi.transpose(0, 2, 1).reshape(-1, d))
        grads.append(2.0 * np.conj(w_mat))
    return value, grads, psi


def _scaling_legs(k: int, sides) -> list[int]:
    """Legs that are a weighted side or the one-leg complement of one."""
    legs = set()
    for side, _ in sides:
        comp = [i for i in range(k) if i not in side]
        legs.update(part[0] for part in (side, comp) if len(part) == 1)
    return sorted(legs)


def _scaling_sweep(psi, gs, legs):
    """The transforms after g_i <- rho_i^{-1/2} g_i on each leg in turn, with
    rho_i leg i's marginal of the state so far; None if a marginal is
    singular."""
    gs = list(gs)
    for leg in legs:
        evals, vecs = np.linalg.eigh(marginal(psi, [leg]))
        if evals[0] <= SINGULAR * evals[-1]:
            return None
        scale = (vecs / np.sqrt(evals)) @ vecs.conj().T
        gs[leg] = scale @ gs[leg]
        dims = psi.shape
        psi = np.matmul(scale, psi.reshape(prod(dims[:leg]), dims[leg], -1)).reshape(dims)
    return gs


def _gains(cand_value, value, least):
    """cand_value beats value by at least `least` and by more than 4 ulps."""
    return (cand_value is not None and cand_value >= value + least
            and cand_value - value > 4 * math.ulp(value))


def _armijo_step(t_arr, gs, grads, sides, value, gnorm2, step):
    """Backtracking from `step` along the gradient: (transforms, step length)
    of the first trial with Armijo ascent, or None."""
    alpha = step
    for _ in range(40):
        cand = [g + alpha * d for g, d in zip(gs, grads)]
        if _gains(_objective(t_arr, cand, sides), value, ARMIJO * alpha * gnorm2):
            return cand, alpha
        alpha *= BACKTRACK
    return None


def _ascend(t_arr, gs, sides, legs, bound, opts: AscentOptions):
    """One start: (value, transforms, trace, stop reason), or None if the
    start state vanishes."""
    res = _objective_and_grads(t_arr, gs, sides)
    if res is None:
        return None
    value, grads, psi = res
    trace = [value]
    step = STEP0
    for it in range(opts.max_iter + 1):
        gnorm2 = sum(float(np.vdot(g, g).real) for g in grads)
        if value >= bound - BOUND_TOL:
            return value, gs, trace, "bound"
        if math.sqrt(gnorm2) < GRAD_TOL:
            return value, gs, trace, "gradient"
        if it == opts.max_iter:
            return value, gs, trace, "iteration_cap"
        cand = _scaling_sweep(psi, gs, legs) if legs else None
        if cand is None or not _gains(_objective(t_arr, cand, sides), value,
                                      ARMIJO * step * gnorm2):
            found = _armijo_step(t_arr, gs, grads, sides, value, gnorm2, step)
            if found is None:
                return value, gs, trace, "no_step"
            cand, alpha = found
            step = min(alpha * 2.0, 8.0)
        gs = [g / (np.linalg.norm(g) / math.sqrt(g.shape[0])) for g in cand]
        conds = []
        for g in gs:
            sv = np.linalg.svd(g, compute_uv=False)
            conds.append(sv[0] / max(sv[-1], 1e-300))
        res = _objective_and_grads(t_arr, gs, sides)
        if res is None:
            return value, gs, trace, "no_step"
        value, grads, psi = res
        trace.append(value)
        if max(conds) > COND_LIMIT:
            return value, gs, trace, "condition_limit"


def _dimension_bound(dims, sides) -> float:
    """Sum of w_S log2 min(d_S, d_{S^c}): no marginal entropy exceeds it."""
    total = prod(dims)
    out = 0.0
    for side, w in sides:
        d_s = prod(dims[i] for i in side)
        out += w * math.log2(min(d_s, total // d_s))
    return out


def lower_quantum_functional(t: Tensor, theta: ThetaWeights,
                             options: AscentOptions | None = None
                             ) -> LowerQuantumResult:
    """Seeded multi-start entropy ascent; returns the best lower bound."""
    opts = options or AscentOptions()
    t_arr = state_array(t)
    if float(np.vdot(t_arr, t_arr).real) <= 0.0:
        raise ValueError("zero tensor")
    k = t_arr.ndim
    sides = [(list(side), w) for side, w in theta.bipartition_sides(k) if w > 0]
    legs = _scaling_legs(k, sides)
    bound = _dimension_bound(t_arr.shape, sides)
    rng = np.random.default_rng(opts.seed)
    results = []
    for start in range(max(opts.starts, 1)):
        if start == 0:
            gs = [np.eye(d, dtype=complex) for d in t_arr.shape]
        else:
            gs = [np.eye(d, dtype=complex)
                  + PERTURBATION * (rng.standard_normal((d, d))
                                    + 1j * rng.standard_normal((d, d)))
                  for d in t_arr.shape]
        out = _ascend(t_arr, gs, sides, legs, bound, opts)
        if out is not None:
            results.append((out[0], start, out[1], out[2], out[3]))
    if not results:
        raise RuntimeError("every ascent start failed")
    results.sort(key=lambda r: (-r[0], r[1]))
    best = results[0]
    return LowerQuantumResult(value=best[0],
                              transforms=tuple(best[2]),
                              trace=tuple(best[3]),
                              start_values=tuple(r[0] for r in results),
                              stop=best[4])


# ---------------------------------------------------------------------------
# isotypic projections on tensor powers


def tensor_power_array(t_arr: np.ndarray, n: int) -> np.ndarray:
    """n-th tensor power with copy-major axis order."""
    out = np.asarray(t_arr, dtype=complex)
    for _ in range(n - 1):
        out = np.multiply.outer(out, t_arr)
    return out


def _permute_copies(arr: np.ndarray, perm, legs) -> np.ndarray:
    """Send copy m's axes of `legs` to copy perm[m]; the other legs stay.

    `arr` has copy-major axes, k = arr.ndim // len(perm) of them per copy.
    """
    k = arr.ndim // len(perm)
    axes = list(range(arr.ndim))
    for m, target in enumerate(perm):
        for leg in legs:
            axes[target * k + leg] = m * k + leg
    return arr.transpose(axes)


def _cycle_type(perm) -> tuple[int, ...]:
    n = len(perm)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        cycles.append(length)
    return normalize_partition(cycles)


def _young_project(arr: np.ndarray, lam, n: int, legs) -> np.ndarray:
    lam = normalize_partition(lam)
    if sum(lam) != n:
        raise ValueError("partition size must equal the power")
    dim = irrep_dimension(lam)
    out = np.zeros_like(arr)
    for perm in iter_permutations(range(n)):
        chi = character(lam, _cycle_type(perm))
        if chi:
            out += chi * _permute_copies(arr, perm, legs)
    return out * (dim / factorial(n))


def symmetrize_copies(arr: np.ndarray, n: int) -> np.ndarray:
    """Average of a copy-major n-th power over the permutations of its copies."""
    return _young_project(arr, (n,), n, range(arr.ndim // n))


MAX_POWER_ELEMENTS = 20_000_000


def _check_budget(dims, n: int):
    if n > 5:
        raise BudgetExceededError("tensor power limited to n <= 5")
    if prod(dims) ** n > MAX_POWER_ELEMENTS:
        raise BudgetExceededError("tensor power too large for dense projection")


def _power_and_legs(v: np.ndarray, dims, n: int, side) -> tuple[np.ndarray, list[int]]:
    """v as a copy-major n-th power array over dims, and the sorted side."""
    dims = tuple(dims)
    _check_budget(dims, n)
    legs = sorted(set(int(x) for x in side))
    if not legs or any(x < 0 or x >= len(dims) for x in legs):
        raise ValueError("invalid leg subset")
    return np.asarray(v, dtype=complex).reshape(dims * n), legs


def isotypic_projector_apply(v: np.ndarray, dims, n: int, lam, side) -> np.ndarray:
    """Apply the isotypic projector for a leg subset to a vector in the
    n-th power of the full leg space (copy-major axes)."""
    arr, legs = _power_and_legs(v, dims, n, side)
    return _young_project(arr, lam, n, legs)


def bipartition_projector_apply(v: np.ndarray, dims, n: int, lam, side) -> np.ndarray:
    """Symmetrise over the copies, then project the side's isotype."""
    arr, legs = _power_and_legs(v, dims, n, side)
    return _young_project(symmetrize_copies(arr, n), lam, n, legs)


def _projector_matrix(d: int, lam, n: int) -> np.ndarray:
    """The real d^n x d^n matrix of the lam-isotypic projector on (C^d)^{(x)n}.

    It is the permutation sum applied to the identity, held as the real
    copy-major power of eye(d) with rows on leg 0 and columns on leg 1 of
    each copy.  A permutation of the copies has a 1 at (w, w o perm) for
    each word w in [d]^n, so the sum is a scatter of the characters into an
    integer matrix, scaled once.
    """
    lam = normalize_partition(lam)
    words = np.arange(d ** n).reshape((d,) * n)
    out = np.zeros((d ** n, d ** n), dtype=np.int64)
    for perm in iter_permutations(range(n)):
        chi = character(lam, _cycle_type(perm))
        if chi:
            np.add.at(out, (words.ravel(), words.transpose(np.argsort(perm)).ravel()), chi)
    return out * (irrep_dimension(lam) / factorial(n))


def _surviving_tuples(arr, sides, projections):
    """Yield, depth first, each tuple of (side, lam), one per side in order,
    whose successive projections of arr do not vanish."""
    if not sides:
        yield ()
        return
    side = sides[0][0]
    for lam, out in projections(arr, side):
        for tail in _surviving_tuples(out, sides[1:], projections):
            yield ((side, lam),) + tail


@dataclass(frozen=True)
class CertificateResult:
    value: float          # bits; a polytope point, so a lower bound on log2 F^theta
    witness: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    power: int
    surviving: int

    @property
    def functional(self) -> float:
        return 2.0 ** self.value


def upper_quantum_certificate(t: Tensor, theta: ThetaWeights, n: int,
                              order=None) -> CertificateResult:
    """Best weighted partition entropy over surviving projector tuples.

    Enumerates tuples of partitions of n, one per weighted bipartition, and
    keeps those whose ordered projector product does not annihilate the n-th
    power.  Crossing weights need an explicit projector order.  The value is
    a point of the entanglement polytope: a lower bound on log2 F^theta.
    """
    if n < 1 or n > 4:
        raise BudgetExceededError("certificate power limited to 1 <= n <= 4")
    t_arr = state_array(t)
    norm = math.sqrt(float(np.vdot(t_arr, t_arr).real))
    if norm == 0.0:
        raise ValueError("zero tensor")
    k = t_arr.ndim
    dims = t_arr.shape
    _check_budget(dims, n)
    sides = [(tuple(sorted(side)), w) for side, w in theta.bipartition_sides(k)
             if w > 0]
    if order is not None:
        by_key = {tuple(sorted(side)): (tuple(sorted(side)), w) for side, w in sides}
        try:
            sides = [by_key[tuple(sorted(s))] for s in order]
        except KeyError as exc:
            raise ValueError("order must list exactly the weighted bipartitions") from exc
    elif not theta.is_noncrossing(k):
        raise ValueError("crossing theta weights need an explicit projector order")

    lams = list(partitions(n))
    matrices = {}

    def projections(arr, side):
        """Yield (lam, the side's lam-projection of arr) for each partition
        lam whose projection does not vanish.

        arr is copy-symmetric (a power, then side projections that commute
        with copy permutations), and on such vectors the side's projection
        equals the complement's, so it acts on the legs of smaller dimension
        d.  Schur-Weyl: a partition with more than d rows gives zero.
        """
        comp = tuple(i for i in range(k) if i not in side)
        legs = min(side, comp, key=lambda ls: prod(dims[i] for i in ls))
        d = prod(dims[i] for i in legs)
        axes = [m * k + leg for m in range(n) for leg in legs]
        axes += [a for a in range(n * k) if a not in axes]
        moved = np.ascontiguousarray(arr.transpose(axes)).reshape(d ** n, -1).view(float)
        shape = [arr.shape[a] for a in axes]
        for lam in lams:
            if len(lam) > d:
                continue
            if (d, lam) not in matrices:
                matrices[d, lam] = _projector_matrix(d, lam, n)
            out = (matrices[d, lam] @ moved).view(complex)
            if math.sqrt(float(np.vdot(out, out).real)) > ZERO_TOL:
                yield lam, out.reshape(shape).transpose(np.argsort(axes))

    best_val = -math.inf
    best_tuple = None
    surviving = 0
    for chosen in _surviving_tuples(tensor_power_array(t_arr / norm, n), sides,
                                    projections):
        surviving += 1
        weight_sum = 0.0
        for (_, w), (_, lam) in zip(sides, chosen):
            weight_sum += w * partition_entropy(lam)
        if weight_sum > best_val:
            best_val = weight_sum
            best_tuple = chosen
    if best_tuple is None:
        raise RuntimeError(f"no projector tuple survived the zero tolerance {ZERO_TOL}")
    return CertificateResult(best_val, best_tuple, n, surviving)
