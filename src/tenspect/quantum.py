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
bits.  Before its starts, the ascent computes a certified upper bound, the
least of the dimension bound sum_S w_S log2 min(d_S, d_C) and, when each
weighted side is one leg or the complement of one, the support bound
max_P H_theta(P) + gap over the support of t (every nonzero entry) in leg
weights: log2 of Strassen's rho^theta at the standard basis, which bounds
zeta^theta >= F^theta.  A start stops once it is within BOUND_TOL of that
bound, a certified maximum, and no later start runs; the result names the
reason the best start stopped.
Line-search trials evaluate the objective alone (one eigvalsh per weighted
side); the gradient is computed once per accepted step.  Each leg product
is one matmul on the (legs before, leg, legs after) view of the array.

The upper certificate enumerates tuples of partitions whose isotypic
projections leave a tensor power alive.  The public projector
functions apply the permutation sum: each permutation is one transpose of
the side's axes of the copy-major power, with the other legs in place.  The
certificate only projects copy-symmetric vectors, on which the side's
projection equals its complement's, so it acts on whichever of the two has
the smaller dimension d.  The projector on (C^d)^{(x)n} is block diagonal
by weight (the content of a word of [d]^n), and all blocks of one weight
type share one real matrix, built from the integer class sums of S_n on
that type's first block and cached per (d, n).  Each projection reads its
input rows in block order and makes one batched matmul per weight type; only
the norm is taken on the last side.  The first side gathers its input from
the power; each later side gathers it straight from the previous side's
projection through one flat index per pair of consecutive sides, built once
per call, so no projection goes back to copy-major order.  Partitions with
more rows than min(d_S, d_C) are skipped, since Schur-Weyl duality makes
their projections of a copy-symmetric vector zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as iter_permutations
from math import factorial, prod

import numpy as np

from .entropy import ThetaWeights, max_H_theta
from .errors import BudgetExceededError
from .partitions import (character, irrep_dimension, normalize_partition,
                         partition_entropy, partitions)
from .supports import SupportSet
from .tensors import COMPLEXFLOAT, Tensor, convert

__all__ = [
    "state_array", "marginal", "von_neumann_entropy",
    "AscentOptions", "LowerQuantumResult", "lower_quantum_functional",
    "isotypic_projector_apply", "bipartition_projector_apply",
    "symmetrize_copies", "tensor_power_array",
    "CertificateResult", "upper_quantum_certificate",
]

# the entropy ascent stops when its value is within BOUND_TOL of its
# certified upper bound, when the gradient norm falls below GRAD_TOL, at the
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
    starts: int = 8
    max_iter: int = 1500
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1 or self.max_iter < 0:
            raise ValueError("starts must be >= 1 and max_iter >= 0")


@dataclass(frozen=True)
class LowerQuantumResult:
    value: float                    # bits; a lower bound on the supremum
    # bits; the certified upper bound at which a start stops with "bound"
    upper: float
    transforms: tuple[np.ndarray, ...]
    trace: tuple[float, ...]        # monotone objective trace of the best start
    start_values: tuple[float, ...]  # of the starts that ran, best first
    # why the best start stopped: "bound", "gradient", "iteration_cap",
    # "condition_limit" or "no_step"
    stop: str
    # von Neumann entropy (bits) of every leg's marginal, weighted or not,
    # of the best start's final state
    leg_entropies: tuple[float, ...]

    @property
    def functional(self) -> float:
        return 2.0 ** self.value


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


def _support_bound(t_arr: np.ndarray, sides) -> float:
    """max_P H_theta(P) + gap over the support of t_arr, in leg weights; inf
    unless each weighted side is one leg or the one-leg complement of one.

    The support keeps every entry != 0, however small, since the orbit can
    scale it back up.
    """
    k = t_arr.ndim
    weights = [0.0] * k
    for side, w in sides:
        comp = [i for i in range(k) if i not in side]
        part = next((p for p in (side, comp) if len(p) == 1), None)
        if part is None:
            return math.inf
        weights[part[0]] += w
    supp = SupportSet(t_arr.shape, tuple(map(tuple, np.argwhere(t_arr != 0).tolist())))
    res = max_H_theta(supp, ThetaWeights.from_legs(weights))
    return res.value + max(res.gap, 0.0)


def lower_quantum_functional(t: Tensor, theta: ThetaWeights,
                             options: AscentOptions | None = None
                             ) -> LowerQuantumResult:
    """Seeded multi-start entropy ascent; returns the best lower bound.

    The starts end after the first one that stops at the certified upper
    bound `upper`, the least of the dimension and support bounds.
    """
    opts = options or AscentOptions()
    t_arr = state_array(t)
    if float(np.vdot(t_arr, t_arr).real) <= 0.0:
        raise ValueError("zero tensor")
    k = t_arr.ndim
    sides = [(list(side), w) for side, w in theta.bipartition_sides(k) if w > 0]
    legs = _scaling_legs(k, sides)
    bound = min(_dimension_bound(t_arr.shape, sides), _support_bound(t_arr, sides))
    rng = np.random.default_rng(opts.seed)
    results = []
    for start in range(opts.starts):
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
            if out[3] == "bound":
                break
    if not results:
        raise RuntimeError("every ascent start failed")
    results.sort(key=lambda r: (-r[0], r[1]))
    best = results[0]
    psi = _apply_transforms(t_arr, best[2])
    return LowerQuantumResult(value=best[0],
                              upper=bound,
                              transforms=tuple(best[2]),
                              trace=tuple(best[3]),
                              start_values=tuple(r[0] for r in results),
                              stop=best[4],
                              leg_entropies=tuple(von_neumann_entropy(marginal(psi, [i]))
                                                  for i in range(k)))


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
    if n < 1 or n > 5:
        raise BudgetExceededError("tensor power limited to 1 <= n <= 5")
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


@lru_cache(maxsize=None)
def _weight_blocks(d: int, n: int):
    """The words of [d]^n in block order, and the blocks of each weight type.

    The lam-isotypic projector on (C^d)^{(x)n} permutes positions within a
    word, so it keeps the weight (the content of the word) and is block
    diagonal by weight.  Rows are ordered by weight type (the sorted
    content), then by weight, then within a block by the word of ranks
    (each value replaced by its rank in the word's content, most frequent
    first, ties by value).  Relabelling the values in [d] commutes with the
    projector and maps one block of a type onto another in this order, so
    every block of a type has one matrix, built from the class sums of the
    type's first block: P_lam = (dim lam / n!) sum_kappa chi_lam(kappa) C_kappa.

    Returns (order, projectors): order[i] is the index in [d]^n (copy 0
    most significant) of the word on row i, and projectors maps each
    partition lam of n to one (rows, blocks, block size, real projector
    block or None where it is zero) per weight type.  The result is cached
    per (d, n), and its arrays are read-only.
    """
    words = np.indices((d,) * n).reshape(n, -1).T
    counts = (words[:, :, None] == np.arange(d)).sum(axis=1)
    rank_of = np.argsort(np.argsort(-counts, axis=1, kind="stable"), axis=1)
    ranks = np.take_along_axis(rank_of, words, axis=1)
    powers = n ** np.arange(n - 1, -1, -1)
    # the sorted ranks spell the type, the sorted digits the weight
    type_codes = np.sort(ranks, axis=1) @ powers
    order = np.lexsort((ranks @ powers, np.sort(words, axis=1) @ d ** np.arange(n - 1, -1, -1),
                        type_codes))
    ranks, type_codes = ranks[order], type_codes[order]
    lams = list(partitions(n))
    chars = np.array([[character(lam, kappa) for kappa in lams] for lam in lams])
    scales = np.array([irrep_dimension(lam) / factorial(n) for lam in lams])[:, None, None]
    perms = list(iter_permutations(range(n)))
    kappa = np.array([lams.index(_cycle_type(perm)) for perm in perms])
    starts = [0] + (np.flatnonzero(type_codes[1:] != type_codes[:-1]) + 1).tolist() + [d ** n]
    projectors = {lam: [] for lam in lams}
    for start, stop in zip(starts, starts[1:]):
        size = factorial(n) // prod(factorial(c) for c in np.bincount(ranks[start]))
        block = ranks[start:start + size]
        # class sums: entry (c, i, j) counts the permutations of cycle type
        # lams[c] that send word i of the block to word j
        cols = np.searchsorted(block @ powers, block[:, perms] @ powers)
        flat = (kappa * size + np.arange(size)[:, None]) * size + cols
        sums = np.bincount(flat.ravel(), minlength=len(lams) * size * size)
        mats = (chars @ sums.reshape(len(lams), -1)).reshape(-1, size, size) * scales
        mats.flags.writeable = False
        for lam, mat in zip(lams, mats):
            projectors[lam].append((slice(start, stop), (stop - start) // size, size,
                                    mat if mat.any() else None))
    order.flags.writeable = False
    return order, projectors


def _side_plan(dims, side, n: int):
    """(d, axes, rows, projectors) of a side's projection at power n.

    On copy-symmetric vectors a side's projection equals its complement's,
    so it acts on the legs of smaller dimension d.  `axes` puts those legs
    of every copy first in the copy-major power, and `rows` indexes their
    words in the order of `_weight_blocks(d, n)`, whose projectors it holds.
    """
    k = len(dims)
    comp = tuple(i for i in range(k) if i not in side)
    legs = min(tuple(side), comp, key=lambda ls: prod(dims[i] for i in ls))
    d = prod(dims[i] for i in legs)
    order, projectors = _weight_blocks(d, n)
    axes = [m * k + leg for m in range(n) for leg in legs]
    axes += [a for a in range(n * k) if a not in axes]
    return d, axes, np.unravel_index(order, [dims[i] for i in legs] * n), projectors


def _block_order(arr: np.ndarray, plan) -> np.ndarray:
    """A copy-major power as the (d^n, rest) matrix a side projects."""
    _, axes, rows, _ = plan
    return arr.transpose(axes)[rows].reshape(len(rows[0]), -1)


def _step_indices(dims, n: int, plans) -> list[np.ndarray]:
    """For each pair of consecutive sides, the flat index inv_here[pos_next]
    that gathers the next side's matrix from this side's projection, where
    pos holds the copy-major index of each entry of a side's matrix.  int32
    suffices: `_check_budget` keeps the power under 2^31 entries."""
    flat = np.arange(prod(dims) ** n, dtype=np.int32)
    pos = [_block_order(flat.reshape(tuple(dims) * n), plan) for plan in plans]
    steps = []
    for here, after in zip(pos, pos[1:]):
        inv = np.empty_like(flat)
        inv[here.ravel()] = flat
        steps.append(inv[after])
    return steps


def _block_projections(moved, out, d: int, projectors, last: bool):
    """Yield each partition lam of n whose projection of the (d^n, rest)
    matrix `moved` does not vanish, leaving the projection in `out`.

    Each weight type's blocks are projected by one batched matmul.
    Schur-Weyl: a partition with more than d rows gives zero.  On the `last`
    side only the norm is needed, so vanishing blocks are not cleared.
    """
    moved = moved.view(float)
    out = out.view(float)
    for lam, blocks_of_lam in projectors.items():
        if len(lam) > d:
            continue
        norm2 = 0.0
        for rows, blocks, size, mat in blocks_of_lam:
            if mat is not None:
                part = out[rows].reshape(blocks, size, -1)
                np.matmul(mat, moved[rows].reshape(blocks, size, -1), out=part)
                norm2 += float(np.vdot(part, part))
            elif not last:
                out[rows] = 0.0
        if math.sqrt(norm2) > ZERO_TOL:
            yield lam


def _surviving_tuples(power, dims, sides):
    """Yield, depth first, each tuple of (side, lam), one per side in order,
    whose successive projections of the copy-symmetric power do not vanish.

    Only the first side gathers from the power, which is then let go; each
    later side gathers straight from the previous side's projection by one
    `np.take`.  Each depth has its own input buffer; one output buffer serves
    all, as a projection is dead once the next side has gathered it.
    """
    n = power.ndim // len(dims)
    plans = [_side_plan(dims, side, n) for side in sides]
    first = _block_order(power, plans[0])
    del power
    out = np.empty(first.size, dtype=complex)
    levels = []
    for side, plan, step in zip(sides, plans, [None] + _step_indices(dims, n, plans)):
        moved = first if step is None else np.empty(step.shape, dtype=complex)
        levels.append((side, plan[0], plan[3], step, moved, out.reshape(moved.shape)))
    yield from _walk(levels)


def _walk(levels):
    """The survivors of the sides in `levels`; below depth 0, the shared
    output buffer holds the previous side's projection on entry."""
    if not levels:
        yield ()
        return
    side, d, projectors, step, moved, out = levels[0]
    if step is not None:
        # the index is in range; mode "raise" would buffer the output
        np.take(out, step, out=moved, mode="clip")
    for lam in _block_projections(moved, out, d, projectors, last=len(levels) == 1):
        for tail in _walk(levels[1:]):
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


def upper_quantum_certificate(t: Tensor, theta: ThetaWeights, n: int) -> CertificateResult:
    """Best weighted partition entropy over surviving projector tuples.

    Enumerates tuples of partitions of n, one per weighted bipartition, and
    keeps those whose successive projections, in the order of theta's
    bipartitions, do not annihilate the n-th power.  There is no projector
    order to choose: crossing weights raise ValueError.  The value is
    a point of the entanglement polytope: a lower bound on log2 F^theta.
    Like the public projectors, it raises BudgetExceededError unless
    1 <= n <= 5 and the power has at most MAX_POWER_ELEMENTS entries.
    """
    t_arr = state_array(t)
    norm = math.sqrt(float(np.vdot(t_arr, t_arr).real))
    if norm == 0.0:
        raise ValueError("zero tensor")
    k = t_arr.ndim
    dims = t_arr.shape
    _check_budget(dims, n)
    sides = [(tuple(sorted(side)), w) for side, w in theta.bipartition_sides(k)
             if w > 0]
    if not theta.is_noncrossing(k):
        raise ValueError("crossing theta weights are not supported")

    entropy = {lam: partition_entropy(lam) for lam in partitions(n)}
    best_val = -math.inf
    best_tuple = None
    surviving = 0
    for chosen in _surviving_tuples(tensor_power_array(t_arr / norm, n), dims,
                                    [side for side, _ in sides]):
        surviving += 1
        weight_sum = 0.0
        for (_, w), (_, lam) in zip(sides, chosen):
            weight_sum += w * entropy[lam]
        if weight_sum > best_val:
            best_val = weight_sum
            best_tuple = chosen
    if best_tuple is None:
        raise RuntimeError(f"no projector tuple survived the zero tolerance {ZERO_TOL}")
    return CertificateResult(best_val, best_tuple, n, surviving)
