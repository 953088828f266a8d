"""Quantum marginals, entropy ascent over local transformations, and
isotypic projections on tensor powers.

The lower functional maximises the theta-weighted marginal von Neumann
entropy of (g_1 x ... x g_k) t over invertible g_i (per-step
renormalisation, seeded multi-start).  The scaling legs are the legs that
are a weighted side or the one-leg complement of one.  Where the optimum
has uniform marginals on them (every semistable tensor), it is the
minimiser of the Kempf-Ness potential log ||(x_i e^{X_i/2}) psi||^2 -
sum_i tr X_i / d_i over Hermitian X_i on the scaling legs, and the ascent
is tensor scaling.  An iteration tries up to four steps in turn and keeps
the first that passes its Armijo test:
- a Newton step on that potential, g_i <- e^{X_i/2} g_i with X solving the
  Hessian system over the traceless directions and scaled down to largest
  |eigenvalue| NEWTON_RADIUS (where the supremum lies on the boundary, the
  potential has no minimiser).  It is tried after an accepted Newton step,
  and after an accepted sweep that followed a scaling step and left more
  than NEWTON_AFTER of the certified gap; never where the support bound
  (below) certifies less than the value at uniform marginals;
- one operator-scaling sweep, g_i <- rho_i^{-1/2} g_i on each scaling leg
  in turn, which converges at a linear rate;
- a Newton step on the objective itself ("entropy_newton"), over traceless
  Hermitian X_i on every leg: the exact gradient and Hessian of
  sum_S w_S H(rho_S), the Hessian's second-order part from the
  Daleckii-Krein divided differences of log in each side's eigenbasis, its
  eigenvalues replaced by -max(|lambda|, floor) so that the step ascends,
  backtracked from length 1 (capped at NEWTON_RADIUS).  It serves the
  optima that are not at uniform marginals, where every sweep is rejected;
  it needs every weighted side's marginal at full rank;
- a gradient step with an Armijo line search (analytic Wirtinger
  gradient), where no other step gains.
Newton and sweep trials pass the Armijo test of a gradient step of the
current trial length, entropy_newton trials that of their own direction.
Every step must gain more than 4 ulps, so a saturated maximum stops without
depending on the last bits.  Before its starts, the ascent computes a
certified upper bound, the least of the dimension bound
sum_S w_S log2 min(d_S, d_C) (the value at uniform marginals) and, when
each weighted side is one leg or the complement of one, the support bound
max_P H_theta(P) + gap over the support of t (every nonzero entry) in leg
weights (`max_H_theta`): log2 of Strassen's rho^theta at the standard
basis, which bounds zeta^theta >= F^theta.  A start stops once it is within BOUND_TOL of that
bound, a certified maximum, and no later start runs; the result names the
reason the best start stopped and the kind of each step it took.
Every trial (Newton, sweep, entropy_newton, line search) is rescaled to
||g_i|| = sqrt(d_i) and evaluated once (one eigh per weighted side, over
||psi||^2); the trial that passes is the next state, and the gradient is
read from it.  Each leg product is one matmul on the (before, leg, after) view.

The upper certificate enumerates tuples of partitions whose isotypic
projections leave a tensor power alive.  The public projector
functions apply the permutation sum: each permutation is one transpose of
the side's axes of the copy-major power, with the other legs in place.  The
certificate only projects copy-symmetric vectors, on which a side's
projection equals its complement's and keeps them copy-symmetric, so each
side acts on its own legs or on its complement's.  The sides are oriented
onto pairwise disjoint legs where that is possible (every leg theta, every
theta on 3 legs, every single bipartition); their projectors then act on
different tensor factors and commute.  The projector on (C^d)^{(x)n} is
block diagonal by weight (the content of a word of [d]^n), and all blocks
of one weight type share one real orthogonal matrix whose rows, grouped by
partition, are orthonormal bases of the isotypic components (eigenvectors
of one weighted sum of the integer class sums of S_n on that type's first
block), cached per (d, n).  Every projection acts on the legs U of the oriented sides, so its
norm depends only on the reduced state of U; where the other legs span more
than d_U, they are first collapsed into one leg of dimension d_U that keeps
that state (the QR factor of psi as a d_U x d_R matrix), so the power has
d_U^(2n) entries, while the size limit still counts the input's.  The
certificate builds the copy-major power once (`tensor_power_array`) and
reads it, through one table of offsets per level, in a layout with one
axis per side over its words in block order and a last axis over the other
legs.  Every level moves its sides' axes into isotypic coordinates by one
batched matmul per weight type and reads every tuple's norm from one
table: the squared moduli summed over the last axis, then each side's axis
summed by partition; one test on that table decides every level.  Where no
orientation makes all sides disjoint (at least 4 legs with nested splits),
the walk branches on the shortest prefix of sides whose remainder can be
oriented: each surviving partition of a prefix side is projected back from
its isotypic coordinates and taken into the next level's layout.
Partitions with more rows than a side's dimension d have no isotypic
component, and Schur-Weyl duality makes those with more rows than
min(d_S, d_C) vanish on copy-symmetric vectors.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import permutations as iter_permutations
from math import factorial, prod

import numpy as np

from .entropy import ThetaWeights, max_H_theta
from .errors import BudgetExceededError
from .partitions import (character, irrep_dimension, normalize_partition,
                         partition_entropy, partitions)
from .supports import SupportSet
from .tensors import COMPLEXFLOAT, Tensor, convert

# the entropy ascent stops when its value is within BOUND_TOL of its
# certified upper bound, when the gradient norm falls below GRAD_TOL (a stop
# named "singular" if a scaling leg's marginal fails the SINGULAR test), at
# the iteration cap, when a transform's condition number exceeds COND_LIMIT,
# or when no step gains
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
#: largest |eigenvalue| of a Newton step's X_i
NEWTON_RADIUS = 0.5
#: a Newton step follows a sweep only if that sweep left more than this
#: fraction of the certified gap; a faster sweep is tried again first
NEWTON_AFTER = 0.01
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
    """Entropy in bits of a density matrix, over the eigenvalues `_entropy` keeps."""
    return _entropy(rho)[0]


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
    # why the best start stopped: "bound", "gradient", "singular" (the
    # gradient stop where a scaling leg's marginal is singular, so no scaling
    # step applies and the value may lie far below the optimum),
    # "iteration_cap", "condition_limit" or "no_step"
    stop: str
    # von Neumann entropy (bits) of every leg's marginal, weighted or not,
    # of the best start's final state
    leg_entropies: tuple[float, ...]
    # the kind of each accepted step of the best start, one per trace entry
    # after the first: "newton" (Kempf-Ness), "sweep", "entropy_newton" or
    # "gradient"
    steps: tuple[str, ...]

    @property
    def functional(self) -> float:
        return 2.0 ** self.value


def _leg_product(mat: np.ndarray, arr: np.ndarray, leg: int) -> np.ndarray:
    """A square matrix, or each of a stack of them (whose axes come first),
    applied to leg `leg` of arr: one matmul on its (before, leg, after) view."""
    dims = arr.shape
    return np.matmul(mat[..., None, :, :], arr.reshape(prod(dims[:leg]), dims[leg], -1)
                     ).reshape(mat.shape[:-2] + dims)


def _state(t_arr, gs):
    """(psi, ||psi||^2, prefixes) for psi = (g_0 x ... x g_{k-1}) t, with
    prefixes[i] = t with the transforms of legs 0..i-1 applied; None if psi
    vanishes."""
    prefixes = [t_arr]
    for leg, g in enumerate(gs):
        prefixes.append(_leg_product(g, prefixes[-1], leg))
    psi = prefixes.pop()
    norm2 = float(np.vdot(psi, psi).real)
    if not np.isfinite(norm2) or norm2 < 1e-250:
        return None
    return psi, norm2, prefixes


def _side_view(psi: np.ndarray, side) -> tuple[np.ndarray, list[int]]:
    """psi as a (side, rest) matrix, with the axis order of that view."""
    axes = sorted(side)
    order = axes + [i for i in range(psi.ndim) if i not in axes]
    return psi.transpose(order).reshape(prod(psi.shape[i] for i in axes), -1), order


def _entropy(rho: np.ndarray):
    """(entropy in bits, kept eigenvalues, their eigenvectors) of a density
    matrix, from one eigh.  It keeps the eigenvalues above 1e-14 times the
    largest, which comes last in ascending order."""
    evals, vecs = np.linalg.eigh(rho)
    keep = evals > max(evals[-1], 1e-300) * 1e-14
    lam = evals[keep]
    return float(-(lam * np.log2(lam)).sum()), lam, vecs[:, keep]


def _side_entropy(psi: np.ndarray, norm2: float, side):
    """`_entropy` of psi's marginal on `side`, with norm2 = ||psi||^2: every
    value the ascent compares, and every leg entropy it reports, is this."""
    mat, _ = _side_view(psi, side)
    return _entropy(mat @ mat.conj().T / norm2)


#: the ascent's state at transforms gs: the objective sum_S w_S H(rho_S) in
#: bits, psi = (g_0 x ... x g_{k-1}) t, its ||psi||^2 and prefixes (`_state`)
#: and the `_side_entropy` of each weighted side
_Evaluation = namedtuple("_Evaluation", "gs value psi norm2 prefixes spectra")


def _evaluate(t_arr, gs, sides):
    """The `_Evaluation` at transforms gs, or None if psi vanishes."""
    state = _state(t_arr, gs)
    if state is None:
        return None
    psi, norm2, prefixes = state
    spectra = [_side_entropy(psi, norm2, side) for side, _ in sides]
    value = 0.0
    for (_, w), (h_s, _, _) in zip(sides, spectra):
        value += w * h_s
    return _Evaluation(gs, value, psi, norm2, prefixes, spectra)


def _gradient(state, sides):
    """Per-leg Wirtinger ascent directions of the objective at `state`."""
    psi, gs, prefixes = state.psi, state.gs, state.prefixes
    gpsi = np.zeros_like(psi)
    for (side, w), (h_s, lam, u) in zip(sides, state.spectra):
        mat, order = _side_view(psi, side)
        lpsi = ((u * np.log2(lam)) @ u.conj().T @ mat).reshape([psi.shape[i] for i in order])
        gpsi += w * (lpsi.transpose(np.argsort(order)) + h_s * psi)
    gpsi = -gpsi / state.norm2
    grads = []
    for leg in range(psi.ndim):
        # t with every transform but leg's, from the prefix that stops
        # before leg; then contract over every other leg: one matmul of the
        # (leg, rest) views
        phi = prefixes[leg]
        for later in range(leg + 1, psi.ndim):
            phi = _leg_product(gs[later], phi, later)
        grads.append(2.0 * (_side_view(gpsi, [leg])[0] @ _side_view(phi, [leg])[0].conj().T))
    return grads


def _scaling_legs(k: int, sides) -> list[int]:
    """Legs that are a weighted side or the one-leg complement of one."""
    legs = set()
    for side, _ in sides:
        comp = [i for i in range(k) if i not in side]
        legs.update(part[0] for part in (side, comp) if len(part) == 1)
    return sorted(legs)


def _singular(evals) -> bool:
    """A marginal's ascending eigenvalues fail the SINGULAR test."""
    return evals[0] <= SINGULAR * evals[-1]


def _scaling_sweep(psi, gs, legs):
    """The transforms after g_i <- rho_i^{-1/2} g_i on each leg in turn, with
    rho_i leg i's marginal of the state so far; None if a marginal is
    singular.

    rho_i is `marginal`'s, normalised by its own view of psi rather than by
    `_state`'s ||psi||^2: the two differ by a scalar, which moves only the
    scale of g_i, and every accepted g_i is renormalised, so the choice moves
    only rounding (the trace lengths of some records hang on those bits)."""
    gs = list(gs)
    for leg in legs:
        evals, vecs = np.linalg.eigh(marginal(psi, [leg]))
        if _singular(evals):
            return None
        scale = (vecs / np.sqrt(evals)) @ vecs.conj().T
        gs[leg] = scale @ gs[leg]
        psi = _leg_product(scale, psi, leg)
    return gs


@lru_cache(maxsize=None)
def _traceless_basis(d: int) -> np.ndarray:
    """An orthonormal basis, under (X, Y) -> tr XY, of the traceless Hermitian
    d x d matrices: a read-only (d^2 - 1, d, d) array."""
    mats = np.zeros((d * d - 1, d, d), dtype=complex)
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    for k, (a, b) in enumerate(pairs):
        mats[2 * k, a, b] = mats[2 * k, b, a] = math.sqrt(0.5)
        mats[2 * k + 1, a, b], mats[2 * k + 1, b, a] = 1j * math.sqrt(0.5), -1j * math.sqrt(0.5)
    # the diagonal ones: the Helmert basis of the vectors that sum to zero
    for m in range(1, d):
        mats[2 * len(pairs) + m - 1, range(m + 1), range(m + 1)] = (
            np.r_[np.ones(m), -m] / math.sqrt(m * (m + 1)))
    mats.flags.writeable = False
    return mats


def _moved(psi, legs) -> np.ndarray:
    """E psi for every `_traceless_basis` matrix E of each leg in `legs`, in
    that order: an (m, *psi.shape) array, m = sum_i (d_i^2 - 1)."""
    return np.concatenate([_leg_product(_traceless_basis(psi.shape[leg]), psi, leg)
                           for leg in legs])


def _kempf_ness(psi, legs):
    """Gradient and Hessian at X = 0 of the Kempf-Ness potential
    log ||(x_i e^{X_i/2}) psi||^2 - sum_i tr X_i / d_i over traceless
    Hermitian X_i on `legs`, in the coordinates of `_traceless_basis`.

    For basis matrices E and F they are <E> and Re <E F> - <E><F>, with <.>
    the expectation in psi: the inner products of the real vectors of psi
    and of every E psi.  The identity directions, which only rescale psi,
    are the Hessian's null space and are left out.
    """
    moved = _moved(psi, legs).reshape(-1, psi.size).view(float)
    flat = psi.reshape(-1).view(float)
    norm2 = flat @ flat
    grad = moved @ flat / norm2
    return grad, moved @ moved.T / norm2 - np.outer(grad, grad)


def _entropy_derivatives(psi, sides):
    """Gradient and Hessian at X = 0 of the objective sum_S w_S H(rho_S) in
    bits at (x_i e^{X_i/2}) psi, over traceless Hermitian X_i on every leg, in
    the coordinates of `_traceless_basis`; None if a weighted side's marginal
    keeps fewer eigenvalues than its dimension (where log^[1] is unbounded).

    Each side is read on the smaller of itself and its complement, which
    has the same entropy.  With psi normalised, sigma_S its unnormalised
    marginal, L_S = log rho_S + H_S (nats) and E_a the basis matrices:
    - the norm terms: d_a ||psi||^2 = g_a = Re <psi, E_a psi>;
    - the gradient: -l_a, with phi = sum_S w_S L_S psi and l_a = Re <phi, E_a psi>;
    - the first-order term: with d_ab psi = (E_a E_b + E_b E_a) psi / 8, the
      sum of w_S tr(L_S d_ab sigma_S) is (G_ab + G_ba) / 4 + P_ab / 2, with
      G_ab = Re <E_a phi, E_b psi> and P_ab = sum_S w_S Re <E_a psi, L_S E_b psi>;
    - the second-order term: w_S sum_jk (U^H d_a sigma U)_jk^* (U^H d_b sigma U)_jk
      log^[1](s_j, s_k) in side S's eigenbasis (Daleckii-Krein);
    - the quotient rule for rho = sigma / ||psi||^2 adds l g^T + g l^T +
      (sum_S w_S) g g^T.
    The Hessian is minus the first- and second-order terms plus the last one.
    """
    k = psi.ndim
    psi = psi / math.sqrt(float(np.vdot(psi, psi).real))
    views = []
    for side, w in sides:
        comp = [i for i in range(k) if i not in side]
        side = min(side, comp, key=lambda s: prod(psi.shape[i] for i in s))
        mat, order = _side_view(psi, side)
        h, lam, u = _entropy(mat @ mat.conj().T)
        if len(lam) < len(mat):
            return None
        views.append((side, w, mat, order, h * math.log(2), lam, u))
    moved = _moved(psi, range(k))
    m = len(moved)
    rows = moved.reshape(m, -1).view(float)
    norm_grad = rows @ psi.reshape(-1).view(float)
    phi = np.zeros_like(psi)
    hess = sum(w for _, w in sides) * np.outer(norm_grad, norm_grad)
    for side, w, mat, order, h, lam, u in views:
        logs = np.log(lam) + h
        vmat = u.conj().T @ mat
        phi += w * (u @ (logs[:, None] * vmat)).reshape([psi.shape[i] for i in order]) \
            .transpose(np.argsort(order))
        # U^H M_a, with M_a = E_a psi in the side's view, as (j, a, rest)
        rot = (u.conj().T @ _side_view(moved, [i + 1 for i in side])[0]).reshape(len(mat), m, -1)
        # U^H (d_a sigma) U = (Y_a + Y_a^H) / 2 with Y_a = U^H M_a M^H U, as (j, a, k)
        y = rot @ vmat.conj().T
        dsig = (y + y.conj().transpose(2, 1, 0)) / 2
        ratio = lam[:, None] / lam - 1
        divided = np.divide(np.log1p(ratio), ratio, out=np.ones_like(ratio), where=ratio != 0) / lam
        # P / 2 and the Daleckii-Krein sum, as one real Gram
        left, right = (np.concatenate(parts, axis=2).transpose(1, 0, 2).reshape(m, -1).view(float)
                       for parts in ([rot, dsig], [logs[:, None, None] / 2 * rot,
                                                   divided[:, None, :] * dsig]))
        hess -= w * left @ right.T
    lgrad = rows @ phi.reshape(-1).view(float)
    asym = np.outer(lgrad, norm_grad) - _moved(phi, range(k)).reshape(m, -1).view(float) @ rows.T / 4
    hess += asym + asym.T
    return -lgrad / math.log(2), hess / math.log(2)


def _exponential_step(gs, legs, coords, length=1.0):
    """(transforms, length): g_i <- e^{s X_i/2} g_i on `legs`, with X the
    traceless Hermitian X_i that `coords` gives in `_traceless_basis`
    coordinates and s the given length, cut down where s X has an
    |eigenvalue| above NEWTON_RADIUS; None if X is not finite."""
    spectra = []
    for leg in legs:
        d = gs[leg].shape[0]
        spectra.append(np.linalg.eigh((coords[:d * d - 1] @ _traceless_basis(d).reshape(-1, d * d))
                                      .reshape(d, d)))
        coords = coords[d * d - 1:]
    radius = max(np.abs(evals).max() for evals, _ in spectra)
    if not np.isfinite(radius):
        return None
    length *= NEWTON_RADIUS / max(radius * length, NEWTON_RADIUS)
    gs = list(gs)
    for leg, (evals, vecs) in zip(legs, spectra):
        gs[leg] = ((vecs * np.exp(0.5 * length * evals)) @ vecs.conj().T) @ gs[leg]
    return gs, length


def _newton_step(psi, gs, legs):
    """The transforms after the Newton step of the Kempf-Ness potential at
    psi on `legs` (`_exponential_step`); None if its Hessian is singular."""
    grad, hess = _kempf_ness(psi, legs)
    try:
        step = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        return None
    found = _exponential_step(gs, legs, step)
    return None if found is None else found[0]


def _entropy_newton(t_arr, state, sides):
    """The state after a modified Newton step of the objective at `state`
    over every leg, or None.

    The direction solves the Hessian system with each Hessian eigenvalue
    replaced by -max(|lambda|, floor), floor the rank tolerance of
    `np.linalg.matrix_rank`, so it ascends.  The step backtracks from length
    1, capped at NEWTON_RADIUS (`_exponential_step`), with the Armijo slope
    of that direction (`_backtrack`).
    None where `_entropy_derivatives` gives none, the Hessian's eigh fails,
    the direction is not finite or does not ascend, or no trial gains.
    """
    derivs = _entropy_derivatives(state.psi, sides)
    if derivs is None or not np.isfinite(derivs[1]).all():
        return None
    grad, hess = derivs
    try:
        evals, vecs = np.linalg.eigh(hess)
    except np.linalg.LinAlgError:
        return None
    floor = np.abs(evals).max() * len(evals) * np.finfo(float).eps
    coords = vecs @ ((grad @ vecs) / np.maximum(np.abs(evals), floor))
    slope = grad @ coords
    if not slope > 0:
        return None
    found = _backtrack(t_arr, sides, state.value, slope, 1.0,
                       partial(_exponential_step, state.gs, range(len(state.gs)), coords))
    return None if found is None else found[0]


def _accepted(t_arr, cand, sides, value, least):
    """The state at transforms `cand` rescaled to ||g_i|| = sqrt(d_i), if its
    value beats `value` by at least `least` and by more than 4 ulps; None if
    it does not or `cand` is None."""
    if cand is None:
        return None
    state = _evaluate(t_arr, [g / (np.linalg.norm(g) / math.sqrt(g.shape[0])) for g in cand], sides)
    if state is None or not (state.value >= value + least
                             and state.value - value > 4 * math.ulp(value)):
        return None
    return state


def _backtrack(t_arr, sides, value, slope, length, trial):
    """(state, length) of the first of up to 40 trials, from `length` down
    by BACKTRACK, that gains ARMIJO * length * slope (`_accepted`), or None;
    trial(length) gives (transforms, the length it took) or None."""
    for _ in range(40):
        found = trial(length)
        if found is None:
            return None
        cand, length = found
        state = _accepted(t_arr, cand, sides, value, ARMIJO * length * slope)
        if state is not None:
            return state, length
        length *= BACKTRACK
    return None


def _ascend(t_arr, gs, sides, legs, bound, scalable, opts: AscentOptions):
    """One start: (final state, trace, stop reason, step kinds), or None if
    the start state vanishes.

    Each iteration keeps the first of these steps that passes its Armijo
    test: a Newton step on the Kempf-Ness potential (tried only if
    `scalable`, after a Newton step or a slow sweep that followed a scaling
    step), a scaling sweep, a Newton step on the objective
    (`_entropy_newton`), and a gradient step by backtracking, the fallback
    where none of the others gains.  The start is evaluated as given; the
    trial that passes (`_accepted`) is the next state, evaluated once.
    """
    state = _evaluate(t_arr, gs, sides)
    if state is None:
        return None
    trace = [state.value]
    kinds = []
    step = STEP0
    newton = False
    for it in range(opts.max_iter + 1):
        value, psi, gs = state.value, state.psi, state.gs
        if value >= bound - BOUND_TOL:
            return state, trace, "bound", kinds
        grads = _gradient(state, sides)
        gnorm2 = sum(float(np.vdot(g, g).real) for g in grads)
        if math.sqrt(gnorm2) < GRAD_TOL:
            singular = any(_singular(np.linalg.eigvalsh(marginal(psi, [leg]))) for leg in legs)
            return state, trace, "singular" if singular else "gradient", kinds
        if it == opts.max_iter:
            return state, trace, "iteration_cap", kinds
        least = ARMIJO * step * gnorm2
        cand = None
        if newton:
            cand = _accepted(t_arr, _newton_step(psi, gs, legs), sides, value, least)
            kind = "newton"
        if cand is None and legs:
            cand = _accepted(t_arr, _scaling_sweep(psi, gs, legs), sides, value, least)
            kind = "sweep"
        if cand is None:
            cand = _entropy_newton(t_arr, state, sides)
            kind = "entropy_newton"
        if cand is None:
            # the Armijo line search along the gradient
            found = _backtrack(t_arr, sides, value, gnorm2, step,
                               lambda alpha: ([g + alpha * d for g, d in zip(gs, grads)], alpha))
            if found is None:
                return state, trace, "no_step", kinds
            cand, alpha = found
            step = min(alpha * 2.0, 8.0)
            kind = "gradient"
        kinds.append(kind)
        state = cand
        trace.append(state.value)
        # Newton follows a Newton step, or a sweep that left more than
        # NEWTON_AFTER of the certified gap; not the first sweep after a
        # step that is not a scaling step, or after the start, whose gain is
        # the start's transient
        after = kinds[-2] if len(kinds) > 1 else None
        newton = scalable and (kind == "newton" or (
            kind == "sweep" and after in ("newton", "sweep")
            and bound - state.value > NEWTON_AFTER * (bound - value)))
        if max(np.linalg.cond(g) for g in state.gs) > COND_LIMIT:
            return state, trace, "condition_limit", kinds


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

    Each iteration takes a Newton step on the Kempf-Ness potential, a
    scaling sweep, a Newton step on the objective itself or, where none of
    those gains, a gradient step (`_ascend`); Kempf-Ness Newton steps are
    tried only where the support bound does not certify less than the
    dimension bound.
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
    dimension = _dimension_bound(t_arr.shape, sides)
    bound = min(dimension, _support_bound(t_arr, sides))
    # the dimension bound is the value at uniform marginals; where the
    # support bound certifies less, no state of the orbit closure has them,
    # the Kempf-Ness potential has no minimiser and no Newton step is tried
    scalable = bound >= dimension - BOUND_TOL
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
        out = _ascend(t_arr, gs, sides, legs, bound, scalable, opts)
        if out is not None:
            results.append((out[0].value, start, *out))
            if out[2] == "bound":
                break
    if not results:
        raise RuntimeError("every ascent start failed")
    results.sort(key=lambda r: (-r[0], r[1]))
    _, _, state, trace, stop, kinds = results[0]
    # the state's spectra hold each weighted one-leg side's entropy
    known = {side[0]: h for (side, _), (h, _, _) in zip(sides, state.spectra) if len(side) == 1}
    legs_h = tuple(known[i] if i in known else _side_entropy(state.psi, state.norm2, [i])[0]
                   for i in range(k))
    return LowerQuantumResult(value=state.value, upper=bound, transforms=tuple(state.gs),
                              trace=tuple(trace), start_values=tuple(r[0] for r in results),
                              stop=stop, steps=tuple(kinds), leg_entropies=legs_h)


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
    if n < 1:
        raise ValueError(f"tensor power n = {n} must be at least 1")
    if n > 5:
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
    """The words of [d]^n in block order, and an isotypic basis of each weight type.

    The lam-isotypic projector P_lam on (C^d)^{(x)n} permutes positions
    within a word, so it is block diagonal by weight (the content of the
    word).  Rows are ordered by weight type (the sorted content), then by
    weight, then within a block by the word of ranks (each letter replaced
    by the number of distinct letters of the word before it, most frequent
    first, ties by value).  Relabelling the letters in [d] commutes with the
    projector and maps one block of a type onto another in this order, so
    all blocks of a type share one basis: the eigenvectors of
    sum_c (c + 1) P_c over partitions(n), whose eigenvalue c + 1 marks
    partition c's component, formed in one contraction of the integer class
    sums C_kappa of the type's first block, as
    P_lam = (dim lam / n!) sum_kappa chi_lam(kappa) C_kappa.

    Returns (order, types, onehot).  order[i] is the index in [d]^n (copy 0
    most significant) of the word on row i.  types holds one (rows, blocks,
    block size, q, spans) per weight type: q is the real orthogonal matrix
    of those eigenvectors as rows, grouped by partition, and spans[c] is the
    row slice of partitions(n)[c]'s group.  So W = q V moves a block V into
    isotypic coordinates, ||P_lam V||^2 is the squared norm of lam's rows of
    W, and P_lam V = q_lam^T W_lam.  onehot[i, c] is 1 where row i of the
    moved words lies in partitions(n)[c]'s group.  The result is cached per
    (d, n), and its arrays are read-only.
    """
    words = np.indices((d,) * n).reshape(n, -1).T
    same = words[:, :, None] == words[:, None, :]
    key = (n - same.sum(axis=2)) * d + words
    # a letter's rank counts the first occurrences of the letters before it
    first = ~np.tril(same, -1).any(axis=2)
    ranks = (first[:, None, :] & (key[:, None, :] < key[:, :, None])).sum(axis=2)
    powers = n ** np.arange(n - 1, -1, -1)
    # the sorted ranks spell the type, the sorted digits the weight
    type_codes = np.sort(ranks, axis=1) @ powers
    order = np.lexsort((ranks @ powers, np.sort(words, axis=1) @ d ** np.arange(n - 1, -1, -1),
                        type_codes))
    ranks, type_codes = ranks[order], type_codes[order]
    lams = list(partitions(n))
    chars = np.array([[character(lam, kappa) for kappa in lams] for lam in lams])
    # w_kappa = sum_c (c + 1) (dim lams[c] / n!) chi_lams[c](kappa)
    weights = np.array([(c + 1) * irrep_dimension(lam) / factorial(n)
                        for c, lam in enumerate(lams)]) @ chars
    perms = list(iter_permutations(range(n)))
    kappa = np.array([lams.index(_cycle_type(perm)) for perm in perms])
    starts = [0] + (np.flatnonzero(type_codes[1:] != type_codes[:-1]) + 1).tolist() + [d ** n]
    types, labels = [], []
    for start, stop in zip(starts, starts[1:]):
        size = factorial(n) // prod(factorial(c) for c in np.bincount(ranks[start]))
        block = ranks[start:start + size]
        # class sums: entry (c, i, j) counts the permutations of cycle type
        # lams[c] that send word i of the block to word j
        cols = np.searchsorted(block @ powers, block[:, perms] @ powers)
        flat = (kappa * size + np.arange(size)[:, None]) * size + cols
        sums = np.bincount(flat.ravel(), minlength=len(lams) * size * size)
        # the eigenvectors, in ascending order, come grouped by partition
        evals, vecs = np.linalg.eigh(np.tensordot(weights, sums.reshape(-1, size, size), 1))
        label = np.rint(evals).astype(int) - 1
        bounds = np.searchsorted(label, np.arange(len(lams) + 1)).tolist()
        spans = {c: slice(lo, hi) for c, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
                 if hi > lo}
        q = np.ascontiguousarray(vecs.T)
        q.flags.writeable = False
        types.append((slice(start, stop), (stop - start) // size, size, q, spans))
        labels.append(np.tile(label, (stop - start) // size))
    onehot = np.eye(len(lams))[np.concatenate(labels)]
    onehot.flags.writeable = False
    order.flags.writeable = False
    return order, types, onehot


def _orient(dims, sides) -> tuple[int, list[tuple[int, ...]]]:
    """(p, legs): the legs each side's projection acts on, and the number p
    of sides the survivor walk branches on.

    On copy-symmetric vectors a side's projection equals its complement's,
    and it keeps them copy-symmetric, so each side may act on its own legs
    or on its complement's.  sides[p:] take pairwise disjoint legs, with p
    the least for which that is possible, so their projectors act on
    different tensor factors and commute.  Each side tries the smaller of
    its two leg sets first, which is all that a side of sides[:p] takes.
    """
    k = len(dims)
    choices = [sorted((side, tuple(i for i in range(k) if i not in side)),
                      key=lambda legs: prod(dims[i] for i in legs)) for side in sides]
    for p in range(len(sides)):
        # the last side alone always succeeds
        legs = _disjoint(choices[p:], frozenset())
        if legs is not None:
            break
    return p, [choice[0] for choice in choices[:p]] + legs


def _collapse_rest(t_arr: np.ndarray, legs):
    """(t_arr, legs) with the legs that no entry of `legs` uses collapsed into
    one last leg of the used legs' dimension d_U, when they span more.

    Every projection acts on the used legs U, so its norm depends only on the
    reduced state of U.  With psi as the d_U x d_R matrix M (the used legs in
    sorted order) and M^H = QR, the matrix L = R^H has L L^H = M M^H, the same
    reduced state on d_U columns.  Each leg set is renumbered into U.
    """
    used = sorted(set().union(*legs))
    m, _ = _side_view(t_arr, used)
    if m.shape[1] <= m.shape[0]:
        return t_arr, legs
    low = np.linalg.qr(m.conj().T, mode="r").conj().T
    renumber = {leg: j for j, leg in enumerate(used)}
    return (low.reshape([t_arr.shape[i] for i in used] + [len(m)]),
            [tuple(renumber[i] for i in g) for g in legs])


def _disjoint(choices, taken: frozenset):
    """The first list of one leg set per entry of `choices`, pairwise
    disjoint and disjoint from `taken`; None if there is none."""
    if not choices:
        return []
    for legs in choices[0]:
        if taken.isdisjoint(legs):
            rest = _disjoint(choices[1:], taken | set(legs))
            if rest is not None:
                return [legs] + rest
    return None


def _offsets(dims, n: int, groups, orders) -> list[np.ndarray]:
    """The copy-major offset (copy 0 most significant) of each word of each
    leg group, over its words in `orders`, and of each word of the other
    legs, in order: the entry of the layout with one axis per group and a
    last axis for the other legs lies at the sum of its words' offsets."""
    rest = tuple(i for i in range(len(dims)) if not any(i in g for g in groups))
    total = prod(dims)
    offsets = []
    for legs, words in zip(groups + [rest], orders + [np.arange(prod(dims[i] for i in rest) ** n)]):
        offset = np.zeros(len(words), dtype=np.intp)
        if legs:
            digits = np.unravel_index(words, [dims[i] for i in legs] * n)
            strides = [total ** (n - 1 - m) * prod(dims[leg + 1:])
                       for m in range(n) for leg in legs]
            for digit, stride in zip(digits, strides):
                offset += digit * stride
        offsets.append(offset)
    return offsets


def _gather(src: np.ndarray, offsets, out: np.ndarray):
    """out[i, j, ..., r] = src[offsets[0][i] + offsets[1][j] + ... + offsets[-1][r]]
    for the flat arrays src and out; one take per i."""
    inner = reduce(np.add.outer, offsets[1:]).ravel()
    for row, base in zip(out.reshape(len(offsets[0]), -1), offsets[0]):
        # the index is in range; mode "raise" would buffer the output
        np.take(src, inner + base, out=row, mode="clip")


def _project(src: np.ndarray, out: np.ndarray, types, c: int):
    """Write P_lam V = q_lam^T W_lam, lam = partitions(n)[c], into `out`, for
    the (words, rest) layout `src` that holds V in isotypic coordinates W."""
    x = src.view(float).reshape(types[-1][0].stop, -1)
    y = out.view(float).reshape(x.shape)
    for rows, blocks, size, q, spans in types:
        if c in spans:
            np.matmul(q[spans[c]].T, x[rows].reshape(blocks, size, -1)[:, spans[c]],
                      out=y[rows].reshape(blocks, size, -1))
        else:
            y[rows] = 0.0


def _norm_table(buf: np.ndarray, spare: np.ndarray, bases) -> np.ndarray:
    """Squared norm of the projection of the layout in `buf`, one axis per
    entry (types, onehot) of `bases` and a last axis for the other legs, by
    every tuple of partitions, one per axis; `buf` and `spare` hold as many
    complex entries and are overwritten.  With one axis, `spare` is left
    holding the layout in isotypic coordinates.

    Each axis is moved into isotypic coordinates by one batched matmul per
    weight type, into the other buffer; each but the last is written as the
    last axis, so that the next one comes first.  The squared moduli are
    then summed over the other legs and real and imaginary parts, and each
    side's axis over its partitions' rows.
    """
    src, dst = buf.view(float), spare.view(float)
    for types, onehot in bases[:-1]:
        x = src.reshape(len(onehot), -1)
        y = dst.reshape(-1, len(onehot))
        for rows, blocks, size, q, _ in types:
            np.matmul(x[rows].reshape(blocks, size, -1).transpose(0, 2, 1), q.T,
                      out=y[:, rows].reshape(-1, blocks, size).transpose(1, 0, 2))
        src, dst = dst, src
    types, onehot = bases[-1]
    x = src.reshape(len(onehot), -1)
    y = dst.reshape(x.shape)
    for rows, blocks, size, q, _ in types:
        np.matmul(q, x[rows].reshape(blocks, size, -1), out=y[rows].reshape(blocks, size, -1))
    # the moved axes come after the other legs and real/imaginary
    y = y.reshape(len(onehot), -1, prod(len(other) for _, other in bases[:-1]))
    table = np.einsum("ijk,ijk->ik", y, y, out=src[:len(y) * y.shape[2]].reshape(len(y), -1))
    table = (onehot.T @ table).T
    for _, other in bases[:-1]:
        table = table.reshape(len(other), -1).T @ other
    return np.moveaxis(table.reshape([onehot.shape[1]] * len(bases)), 0, -1)


def _walk(levels, scratch: np.ndarray, spare: np.ndarray):
    """The survivors of the sides in `levels`, as (side, partition index)
    tuples.  Each level but the first takes its input from `scratch` into
    `spare` through its step, and one table of norms, read as `spare` is
    moved into the level's buffer, decides its sides.  Each level but the
    last branches on its one side: its buffer keeps the isotypic
    coordinates, and each survivor is projected back into `scratch`."""
    sides, buf, bases, step = levels[0]
    if step is not None:
        np.take(scratch, step, out=spare, mode="clip")
    table = _norm_table(spare, buf, bases)
    for index in zip(*np.nonzero(np.sqrt(table) > ZERO_TOL)):
        if len(levels) == 1:
            yield tuple(zip(sides, index))
            continue
        (c,) = index
        _project(buf, scratch, bases[0][0], c)
        for tail in _walk(levels[1:], scratch, spare):
            yield ((sides[0], c),) + tail


def _surviving_tuples(t_arr: np.ndarray, n: int, sides):
    """Yield each tuple of (side, lam), one per side in order, whose
    successive projections of the copy-symmetric power do not vanish, in
    the order of the sides and, for each, of partitions(n).

    The walk branches on the first p sides of `_orient`, one level each,
    and the last level holds the other sides, on disjoint legs, with an
    axis per side.  The legs that no level acts on are collapsed first
    (`_collapse_rest`).  The copy-major power is built once in `scratch`,
    and each level's layout is read through `_offsets`: the first level's
    is gathered from the power into `spare`, and each later level's step
    is the index, in the level before, of each of its entries.  `scratch`
    then holds each projection, and is the last level's buffer.
    """
    p, legs = _orient(t_arr.shape, sides)
    t_arr, legs = _collapse_rest(t_arr, legs)
    dims = t_arr.shape
    scratch = tensor_power_array(t_arr, n).reshape(-1)
    spare = np.empty_like(scratch)
    levels = []
    for sides_here, groups in [([side], [g]) for side, g in zip(sides, legs[:p])] \
            + [(sides[p:], legs[p:])]:
        blocks = [_weight_blocks(prod(dims[i] for i in g), n) for g in groups]
        offsets = _offsets(dims, n, groups, [order for order, _, _ in blocks])
        step = None
        if not levels:
            _gather(scratch, offsets, spare)
        if p:
            pos = reduce(np.add.outer, offsets).ravel()
            if levels:
                step = inverse[pos]
            if len(levels) < p:
                inverse = np.empty_like(pos)
                inverse[pos] = np.arange(len(pos))
        buf = scratch if len(levels) == p else np.empty_like(scratch)
        levels.append((sides_here, buf, [(types, onehot) for _, types, onehot in blocks], step))
    lams = list(partitions(n))
    for chosen in _walk(levels, scratch, spare):
        yield tuple((side, lams[c]) for side, c in chosen)


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
    Like the public projectors, it raises ValueError if n < 1 and
    BudgetExceededError unless n <= 5 and the power has at most
    MAX_POWER_ELEMENTS entries.
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
    for chosen in _surviving_tuples(t_arr / norm, n, [side for side, _ in sides]):
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
