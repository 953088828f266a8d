"""Entropy maximisation over supports and the marginal-entropy minimax.

The central program maximises the theta-weighted sum of marginal Shannon
entropies over all probability distributions on a support set.  It is
concave, and `max_H_theta` is its one public solve.  It starts from a
Sinkhorn-scaled point: sweeps that make each weighted leg's marginal uniform
in turn (`_sweep`).  The optimum is the dimension bound sum_i theta_i log2
|V_i| exactly when the uniform weighted marginals lie in the support's
marginal polytope, the torus case of moment-polytope membership, and there
the sweeps certify it, mostly with no Newton step.  Elsewhere active-set
Newton rounds follow (`_newton_rounds`): Newton steps on the simplex face
(`_face_polish`) converge quadratically and trim the masses that vanish at
the optimum, and while the point does not certify, the coordinate of
largest gradient is added back by an exact line search toward its vertex
(`_add_back`) and the face steps run again.  A face step costs two small
products on one 0/1 incidence matrix, points x values (`_face_hessian`),
and one LAPACK minimum-norm solve of its KKT system (`_min_norm_solve`).
The certificate is the first-order gap over the full support at the
returned point: for concave F, F(P*) <= F(P) + max_j grad_j - grad . P over
the simplex.  `h_theta_bracket` brackets the value from the uniform point
alone, for callers that only compare it with a threshold.

`max_min_entropy` solves max_P min_i H(P_i), equal by minimax duality to
min_theta max_P H_theta(P); its inner solves are `max_H_theta` calls.  Where
a leg has weight 0 the maximiser, hence the cut and the theta returned, need
not be unique; the value and dual bound are certified either way.  The dual
side minimises over the theta simplex with `_theta_cutting_planes` and reports
the least certified bound value + gap among the evaluated theta; where the
first cut already closes the gap (its LP bound is min_i h_i) no LP runs.
The primal side mixes the inner maximisers with the LP's dual cut weights
(the one cut's weight is 1) and polishes the mixture with Newton steps on
the saddle KKT system (`_saddle_polish`, sharing the face Hessian and step
rule of `_face_polish`), so the pair comes with an explicit duality gap.
`_theta_cutting_planes` is the one LP loop over the theta simplex; the
asymptotic slice rank runs it too, over entropy ascents.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .supports import SupportSet, is_diagonal, value_ranks

LN2 = math.log(2.0)

#: certificate tolerance (bits) of `max_H_theta`
INNER_TOL = 1e-9

#: duality gap tolerance (bits) for the minimax program
MINIMAX_TOL = 1e-6

#: the minimax's cutting planes stop at this gap (bits), well inside MINIMAX_TOL
MINIMAX_CUT_TOL = 5e-9

#: round limit of the minimax's cutting planes
MINIMAX_ROUNDS = 80

#: round limit of the active-set Newton rounds of every entropy-program solve
MAX_ROUNDS = 50


def shannon_entropy(p) -> float:
    """Entropy in bits; 0 log 0 = 0."""
    arr = np.asarray(p, dtype=float)
    if arr.size and (arr.min() < -1e-12 or abs(arr.sum() - 1.0) > 1e-9):
        raise ValueError("not a probability vector")
    pos = arr[arr > 0]
    return float(-(pos * np.log2(pos)).sum())


def binary_entropy(x: float) -> float:
    if x < -1e-12 or x > 1 + 1e-12:
        raise ValueError("argument outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * math.log2(x) - (1 - x) * math.log2(1 - x))


# ---------------------------------------------------------------------------
# theta weights


@dataclass(frozen=True)
class ThetaWeights:
    """Probability weights over the k legs or over bipartitions of the legs.

    Bipartition keys are canonical frozensets containing leg 0.
    """

    mode: str                               # "legs" or "bipartitions"
    items: tuple[tuple[object, float], ...]

    def __post_init__(self):
        if self.mode not in ("legs", "bipartitions"):
            raise ValueError(f"unknown theta mode {self.mode!r}")
        total = 0.0
        for key, w in self.items:
            if not math.isfinite(w):
                raise ValueError(f"theta weight {w} is not finite")
            if w < -1e-12:
                raise ValueError("negative theta weight")
            total += w
            if self.mode == "legs" and not isinstance(key, int):
                raise ValueError("leg keys must be integers")
            if self.mode == "bipartitions":
                if not isinstance(key, frozenset) or 0 not in key:
                    raise ValueError("bipartition keys are frozensets containing leg 0")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"theta weights sum to {total}, expected 1")

    @classmethod
    def uniform(cls, k: int) -> "ThetaWeights":
        return cls("legs", tuple((i, 1.0 / k) for i in range(k)))

    @classmethod
    def from_legs(cls, weights) -> "ThetaWeights":
        ws = [float(w) for w in weights]
        return cls("legs", tuple((i, w) for i, w in enumerate(ws)))

    @classmethod
    def from_bipartitions(cls, mapping: dict, k: int) -> "ThetaWeights":
        items = []
        for side, w in mapping.items():
            side = frozenset(int(x) for x in side)
            if not side or len(side) >= k:
                raise ValueError("bipartition side must be proper and nonempty")
            if 0 not in side:
                side = frozenset(range(k)) - side
            items.append((side, float(w)))
        items.sort(key=lambda kv: sorted(kv[0]))
        return cls("bipartitions", tuple(items))

    def leg_array(self, k: int) -> np.ndarray:
        if self.mode != "legs":
            raise ValueError("theta is not in legs mode")
        arr = np.zeros(k)
        for leg, w in self.items:
            if leg < 0 or leg >= k:
                raise ValueError(f"leg {leg} out of range for k={k}")
            arr[leg] += w
        return arr

    def to_records(self) -> dict:
        """Plain-data form for reports; bipartition sides are 1-based."""
        if self.mode == "legs":
            return {"mode": "legs", "weights": [w for _, w in sorted(self.items)]}
        return {"mode": "bipartitions",
                "weights": {"|".join(str(x + 1) for x in sorted(side)): w
                            for side, w in self.items}}

    def bipartition_sides(self, k: int) -> tuple[tuple[frozenset, float], ...]:
        """View as bipartition weights; legs mode maps leg j to the side {j}
        (marginal entropies are side-symmetric for pure states)."""
        if self.mode == "bipartitions":
            return self.items
        return tuple((frozenset({leg}), w) for leg, w in self.items)

    def is_noncrossing(self, k: int) -> bool:
        """No pair of weighted bipartitions crosses."""
        sides = [set(key) if isinstance(key, frozenset) else {key}
                 for key, w in self.items if w > 0]
        full = set(range(k))
        # two bipartitions cross iff all four intersections of their sides meet
        return not any(all(a & b for a in (s1, full - s1) for b in (s2, full - s2))
                       for s1, s2 in combinations(sides, 2))


# ---------------------------------------------------------------------------
# the concave program: maximise H_theta over distributions on a support


@dataclass(frozen=True)
class HThetaResult:
    value: float                 # bits
    probs: np.ndarray            # the returned point over support.points, read-only
    gap: float                   # certified suboptimality bound, bits
    iterations: int
    converged: bool              # gap <= INNER_TOL
    exact_power: int | None = None   # 2**value as an exact integer, when known


def _incidence(support: SupportSet):
    """(idx, inc, cols): per leg, each point's value index, its rank among
    the leg's values (`value_ranks`), and the 0/1 matrices points x values
    of every leg (1 where the point takes the value) and values x legs."""
    ranks = value_ranks(support)
    idx = [np.array([rank[p[i]] for p in support.points]) for i, rank in enumerate(ranks)]
    sizes = [len(rank) for rank in ranks]
    inc = np.hstack([vals[:, None] == np.arange(n) for vals, n in zip(idx, sizes)])
    return idx, inc.astype(float), np.repeat(np.eye(support.k), sizes, axis=0)


def max_H_theta(support: SupportSet, theta: ThetaWeights) -> HThetaResult:
    """Maximise the theta-weighted marginal entropy over P(support), from a
    Sinkhorn-scaled start.

    `_sweep`s run from the uniform point until the gap is <= 1e-14, a sweep
    does not halve it, or 30 sweeps; the point of least gap, the uniform one
    included, is kept, and `_newton_rounds` run from it while its gap is >
    INNER_TOL.  The reported gap is max_j grad_j - grad . P over the full
    support at the returned point and bounds the distance to the true
    optimum; `converged` says gap <= INNER_TOL.  value, the greater of
    H_theta at the returned point (the theta-weighted sum, in leg order, of
    its `_leg_entropies`) and at the uniform point, is at least the
    bracket's lo and at most gap above H_theta at the returned `probs`,
    which are read-only; value + gap bounds the optimum.
    `iterations` counts the rounds, at most MAX_ROUNDS; 1 means the start
    point or the first Newton solve certified.  Supports that form a
    diagonal are solved exactly.
    """
    if len(support) == 0:
        raise ValueError("empty support")
    if is_diagonal(support):
        m = len(support)
        return HThetaResult(math.log2(m), _read_only(np.full(m, 1.0 / m)), 0.0, 0, True, m)
    legs, inc, w, evaluate, p, lo, grad, gap = _uniform_start(support, theta)
    f, q, last = lo, p, gap
    for _ in range(30):
        if last <= 1e-14:
            break
        q = _sweep(q, legs)
        g, grad_q = evaluate(q)
        gap_q = float(grad_q.max() - grad_q @ q)
        if gap_q < gap:
            p, f, grad, gap = q, g, grad_q, gap_q
        if gap_q > 0.5 * last:
            break
        last = gap_q
    p, gap, rounds = _newton_rounds(p, f, grad, gap, evaluate, inc, w)
    ents = _leg_entropies([vals for vals, _ in legs], p)
    value = float(sum(w_i * h for (_, w_i), h in zip(legs, ents)))
    return HThetaResult(max(value, lo), _read_only(p), gap, max(rounds, 1), gap <= INNER_TOL)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _sweep(q: np.ndarray, legs) -> np.ndarray:
    """One Sinkhorn sweep: q <- q / (|V_i| m_i(q))[v_i] over the weighted
    legs in order, each of which leaves leg i's marginal uniform."""
    for vals, _ in legs:
        marg = np.bincount(vals, weights=q)
        q = q / (marg.size * marg)[vals]
    return q


def _newton_rounds(p, f, grad, gap, evaluate, inc, w):
    """The active-set Newton rounds of the program from the point p.

    (f, grad) is evaluate(p) and gap its first-order certificate.  While
    gap > INNER_TOL, at most MAX_ROUNDS rounds: each runs the face steps of
    `_face_polish`, and each after the first starts by adding back the
    coordinate of largest gradient (`_add_back`).  Returns the last point,
    its gap and the number of rounds.
    """
    rounds = 0
    while gap > INNER_TOL and rounds < MAX_ROUNDS:
        if rounds:
            p = _add_back(p, int(grad.argmax()), evaluate)
            f, grad = evaluate(p)
        p, f, grad = _face_polish(p, f, grad, evaluate, inc, w)
        gap = float(grad.max() - grad @ p)
        rounds += 1
    return p, gap, rounds


@functools.lru_cache(maxsize=1)
def _uniform_start(support: SupportSet, theta: ThetaWeights):
    """The program at theta and its uniform point, where every solve starts:
    (legs, inc, w, evaluate, p, f, grad, gap).  `legs` lists the (value
    index, theta_i) pairs of the weighted legs, inc is their incidence matrix
    and w the theta_i of its columns, evaluate(q) gives H_theta(q) in bits
    and its gradient, (f, grad) = evaluate(p) and gap = max_j grad_j - grad
    . p.  The last pair's start is kept, so a solve after `h_theta_bracket`
    builds nothing again; its arrays are read-only."""
    theta_arr = theta.leg_array(support.k)
    idx, inc, cols = _incidence(support)
    legs = [(idx[i], theta_arr[i]) for i in range(support.k) if theta_arr[i] > 0]
    w = cols @ theta_arr
    inc, w = inc[:, w > 0], w[w > 0]

    def evaluate(q):
        marg = q @ inc
        wlog = w * np.log2(np.maximum(marg, 1e-300))
        return -float(marg @ wlog), inc @ -wlog

    p = np.full(len(support), 1.0 / len(support))
    f, grad = evaluate(p)
    for arr in (inc, w, p, grad, *(vals for vals, _ in legs)):
        _read_only(arr)
    return legs, inc, w, evaluate, p, f, grad, float(grad.max() - grad @ p)


def h_theta_bracket(support: SupportSet, theta: ThetaWeights) -> tuple[float, float]:
    """Certified bounds lo <= max_P H_theta(P) <= hi from the uniform point.

    lo is H_theta at the uniform point, a feasible one.  hi is the lesser
    of lo + gap, `max_H_theta`'s first-order certificate there, and the
    dimension bound sum_i theta_i log2 |values of leg i|.  One-point and
    diagonal supports give lo = hi = log2 |S|, the exact value.  Both ends
    are floats, so they hold up to rounding.
    """
    if is_diagonal(support):
        return (math.log2(len(support)),) * 2
    legs, _, _, _, _, lo, _, gap = _uniform_start(support, theta)
    return lo, min(lo + gap, sum(w * math.log2(vals.max() + 1) for vals, w in legs))


def _add_back(p: np.ndarray, j: int, evaluate) -> np.ndarray:
    """Exact line search for the concave H_theta from p toward the vertex e_j.

    Bisects on the sign of the directional derivative grad_j - grad . q over
    log2 of the step in [-1000, 0]: a small theta_i on a value that only j
    uses puts an optimal mass of about 1e-280 on j.
    """
    def toward(s):
        q = (1.0 - 2.0 ** s) * p
        q[j] += 2.0 ** s
        return q

    lo, hi = -1000.0, 0.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        q = toward(mid)
        grad = evaluate(q)[1]
        lo, hi = (mid, hi) if grad[j] > grad @ q else (lo, mid)
    return toward(lo)


def _face_polish(q: np.ndarray, f: float, grad: np.ndarray, evaluate, inc, w):
    """Newton steps for H_theta on the face of q's positive coordinates.

    (f, grad) is evaluate(q); returns the last point and its evaluation,
    (q, f, grad).  The face loses every coordinate that `_face_step` trims
    and gains none.  The Hessian (`_face_hessian` of inc and w) is singular
    along directions that keep every weighted marginal, so the KKT system
    with the simplex row takes its minimum-norm solution (`_min_norm_solve`),
    scaled by the square roots of the Hessian's diagonal (a mass can be
    1e-280, its Hessian entry 1e280).  Its right-hand side is the face
    gradient less grad . q, so that rounding scales with the gap and a tiny
    mass moves by an accurate fraction of itself.  The steps stop once the
    face gap max_face grad - grad . q is at most 1e-14 or no longer shrinks
    (rounding level), or after 30 steps.
    """
    last = np.inf
    for _ in range(30):
        face = np.flatnonzero(q)
        g = grad[face]
        gap = g.max() - g @ q[face]
        if gap <= 1e-14 or gap >= last:
            break
        last, n = gap, face.size
        hess = _face_hessian(q, face, inc, w)
        scale = 1.0 / np.sqrt(-hess.diagonal())
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = hess * scale * scale[:, None]
        kkt[n, :n] = kkt[:n, n] = scale
        sol = _min_norm_solve(kkt, np.append((g @ q[face] - g) * scale, 0.0))
        step = _face_step(q, face, scale * sol[:n], evaluate, f)
        if step is None:
            break
        q, (f, grad) = step
    return q, f, grad


def _face_hessian(q: np.ndarray, face: np.ndarray, inc: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hessian of sum_i w_i H_i (bits) at q on the face, -(1/ln 2) B diag(w /
    marg) B^T with B the face's rows of the incidence matrix inc, w its column
    weights and marg = q inc; a marginal of 0 reads as 1e-300, so that its
    column adds 0, not 0 * inf."""
    rows = inc[face]
    return -((rows * (w / np.maximum(q @ inc, 1e-300))) @ rows.T) / LN2


def _min_norm_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution of the square system a x = b:
    LAPACK's complete orthogonal factorisation (dgelsy) at lstsq's cutoff."""
    return _gelsy(b.size)(a, b[:, None], np.zeros(b.size, np.int32))[1][:, 0]


@functools.cache
def _gelsy(n: int):
    """dgelsy for n x n systems at lstsq's rcond n eps, its workspace queried once."""
    from scipy.linalg.lapack import dgelsy, dgelsy_lwork

    rcond = n * np.finfo(float).eps
    return functools.partial(dgelsy, cond=rcond, lwork=int(dgelsy_lwork(n, n, 1, rcond)[0]))


def _face_step(q: np.ndarray, face: np.ndarray, d: np.ndarray, evaluate, f: float):
    """Move q along the face direction d without lowering the objective.

    The step is the largest feasible one up to 1; coordinates that fall from
    above 1e-12 max to at or below it are trimmed to 0 (a tiny mass that
    `_add_back` has just added stays) and the rest renormalised.  The step
    is halved until evaluate(trial)[0] >= f less 4 ulps of |f| (a drop within
    rounding does not count as lowering f), at most 40 times.  Returns
    (trial, evaluate(trial)), or None when no step is kept.
    """
    shrink = d < 0
    step = min(1.0, float((-q[face][shrink] / d[shrink]).min())) if shrink.any() else 1.0
    for _ in range(40):
        trial = q.copy()
        trial[face] = np.maximum(q[face] + step * d, 0.0)
        lim = 1e-12 * trial.max()
        trial[face[(trial[face] <= lim) & (q[face] > lim)]] = 0.0
        trial /= trial.sum()
        out = evaluate(trial)
        if out[0] >= f - 4 * np.spacing(abs(f)):
            return trial, out
        step *= 0.5
    return None


# ---------------------------------------------------------------------------
# minimax: max_P min_i H(P_i) == min_theta max_P H_theta(P)


@dataclass(frozen=True)
class MinimaxEntropyResult:
    value: float                     # primal value, bits
    dual_value: float                # least inner value + gap over evaluated theta, >= value; bits
    gap: float
    probs: np.ndarray                # the primal point over support.points, read-only
    theta: ThetaWeights
    exact_power: int | None = None


def _cut_lp(cuts: list[np.ndarray], k: int):
    """HiGHS on `_theta_cutting_planes`' LP over the given cuts."""
    from scipy.optimize import linprog

    # variables theta, z, slack s >= |theta - uniform|; the cut rows,
    # then theta_i - s_i <= 1/k and -theta_i - s_i <= -1/k per leg
    ncuts = len(cuts)
    rows = np.hstack([cuts, -np.ones((ncuts, 1)), np.zeros((ncuts, k))])
    eye, zero = np.eye(k), np.zeros((k, 1))
    pull = np.stack([np.hstack([eye, zero, -eye]), np.hstack([-eye, zero, -eye])], axis=1)
    a_ub = np.vstack([rows, pull.reshape(2 * k, -1)])
    b_ub = np.concatenate([np.zeros(ncuts), np.tile([1.0 / k, -1.0 / k], k)])
    c = np.concatenate([np.zeros(k), [1.0], np.full(k, 1e-12)])
    a_eq = np.concatenate([np.ones(k), np.zeros(k + 1)])[None, :]
    return linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.array([1.0]),
                   bounds=[(0.0, 1.0)] * k + [(None, None)] + [(0.0, 1.0)] * k,
                   method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                            "dual_feasibility_tolerance": 1e-10})


def _theta_cutting_planes(k: int, evaluate, gap_tol: float, max_rounds: int):
    """Cutting planes for a convex g over the theta simplex of k legs.

    `evaluate(theta)` returns (value, h, payload) with theta' . h <=
    g(theta') for every theta', and value in [theta . h, theta . h + gap] up
    to rounding, gap being the evaluation's own certificate (0 for an
    ascent, `max_H_theta`'s for the minimax).  Starting at the uniform
    theta, each round evaluates theta and solves the LP min z subject to
    theta . h_s <= z over the simplex, with a 1e-12 L1 pull toward the
    uniform theta to break ties, so that z - 1e-12 k bounds min g from
    below; HiGHS runs at feasibility tolerances of 1e-10, below the callers'
    gap_tol.  With one cut h the LP's value is min_i h_i, at a vertex, and
    the cut's weight is 1, so the first round tests that bound directly and
    runs no LP when it closes the gap.  The next theta is the LP's, clipped
    at 0 and normalised.  The loop stops when the LP fails, when the least
    value is within gap_tol of the LP bound, when the next theta is within
    1e-14 of an evaluated one, or after max_rounds rounds.  Returns the
    (value, theta, h, payload) evaluations in order and the cut weights
    (duals) of the last LP that succeeded, over the evaluations it saw;
    [1.0] if no LP ran or none succeeded.
    """
    evals = []
    weights = np.ones(1)
    theta = np.full(k, 1.0 / k)
    for _ in range(max_rounds):
        value, h, payload = evaluate(theta)
        evals.append((value, theta, h, payload))
        # one cut: the LP's value is min_i h_i, at a vertex, with weight 1
        if len(evals) == 1 and value - (h.min() - 1e-12 * k) <= gap_tol:
            break
        lp = _cut_lp([e[2] for e in evals], k)
        if not lp.success:
            break
        weights = -lp.ineqlin.marginals[:len(evals)]
        # the tie-break pull can lift z above the pure cut bound by at most
        # its total weight
        lower = float(lp.x[k]) - 1e-12 * k
        if min(e[0] for e in evals) - lower <= gap_tol:
            break
        theta = np.maximum(lp.x[:k], 0.0)
        theta /= theta.sum()
        if any(np.linalg.norm(theta - e[1]) < 1e-14 for e in evals):
            break
    return evals, weights


def _saddle_polish(support: SupportSet, p: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Newton steps on the saddle KKT system of max_P min_i H(P_i).

    At a saddle point P maximises H_theta on its face and the H_i are equal
    on the legs with theta_i > 0.  Each step takes the legs with theta_i > 0
    or H_i within 1e-9 of min_i H_i (binding legs of weight 0 included) and
    solves the linearised system for the face direction of P and the new
    theta on those legs (clipped at 0 and normalised) by `_min_norm_solve`:
    `_face_hessian` bordered by the legs' entropy gradients, all read from
    the incidence matrix, and the simplex rows of P and theta.  A binding
    leg of weight 0 enters the Hessian with weight 1/(number of legs),
    renormalised, since without its curvature its entropy would be modelled
    as linear near its own maximum.  The face and step rule are
    `_face_polish`'s, with min_i H_i as the objective; it stops once the
    residual is at most 1e-13, once a step no longer raises the objective,
    or after 30 steps.
    """
    _, inc, cols = _incidence(support)

    def evaluate(q):
        marg = q @ inc
        logm = np.log2(np.maximum(marg, 1e-300))
        h = -(marg * logm) @ cols
        return float(h.min()), h, -((inc * logm) @ cols).T

    q = np.where(p > 1e-6 * p.max(), p, 0.0)
    q /= q.sum()
    f, h, grads = evaluate(q)
    for _ in range(30):
        legs = np.flatnonzero((theta > 0) | (h <= f + 1e-9))
        face = np.flatnonzero(q)
        n, a = face.size, legs.size
        g = grads[np.ix_(legs, face)].T
        stat = g @ theta[legs]
        if max(stat.max() - stat @ q[face], np.ptp(h[legs])) <= 1e-13:
            break
        kkt = np.zeros((n + a + 2, n + a + 2))
        w = np.where(theta[legs] > 0, theta[legs], 1.0 / a)
        kkt[:n, :n] = _face_hessian(q, face, inc, cols[:, legs] @ (w / w.sum()))
        kkt[:n, n:n + a] = g
        kkt[n:n + a, :n] = g.T
        kkt[:n, n + a] = kkt[n + a, :n] = 1.0
        kkt[n:n + a, n + a + 1] = kkt[n + a + 1, n:n + a] = 1.0
        rhs = np.concatenate([np.zeros(n), -h[legs], [0.0, 1.0]])
        sol = _min_norm_solve(kkt, rhs)
        step = _face_step(q, face, sol[:n], evaluate, f)
        if step is None or step[1][0] <= f:
            break
        q, (f, h, grads) = step
        theta = np.zeros_like(theta)
        theta[legs] = np.maximum(sol[n:n + a], 0.0)
        theta /= theta.sum()
    return q


def max_min_entropy(support: SupportSet) -> MinimaxEntropyResult:
    """Saddle value of the marginal-entropy game on a support.

    Dual side: `_theta_cutting_planes` on g(theta) = max_P H_theta(P), each
    theta evaluated by `max_H_theta` (its maximiser yields the valid cut g
    >= theta . h), stopping at a gap of MINIMAX_CUT_TOL or after
    MINIMAX_ROUNDS rounds; `dual_value` is the least inner value + gap, an
    upper bound on g at the returned theta, its witness.  Primal side: the maximisers mixed with the LP's cut weights (by concavity and
    LP duality min_i H_i of the mixture is about the LP bound), polished by
    `_saddle_polish`; `value`, its min_i H_i, is a certified lower bound.
    The returned pair carries the explicit duality gap dual_value - value,
    which is >= 0: where rounding puts the least inner bound a few ulps
    below `value`, `dual_value` is raised to `value` (an upper bound stays
    one when raised).
    """
    if len(support) == 0:
        raise ValueError("empty support")
    k = support.k
    if is_diagonal(support):
        m = len(support)
        probs, theta = _read_only(np.full(m, 1.0 / m)), ThetaWeights.uniform(k)
        return MinimaxEntropyResult(math.log2(m), math.log2(m), 0.0, probs, theta, m)

    idx = np.array(support.points).T

    def evaluate(theta_vec):
        res = max_H_theta(support, ThetaWeights.from_legs(theta_vec))
        return res.value, _leg_entropies(idx, res.probs), res

    evals, weights = _theta_cutting_planes(k, evaluate, MINIMAX_CUT_TOL, MINIMAX_ROUNDS)
    _, dual_theta, _, dual = min(evals, key=lambda e: e[3].value + e[3].gap)

    mix = weights @ [e[3].probs for e in evals[:weights.size]] / weights.sum()
    probs = _read_only(_saddle_polish(support, mix, dual_theta))
    value = float(_leg_entropies(idx, probs).min())
    dual_value = max(dual.value + dual.gap, value)
    gap = dual_value - value
    return MinimaxEntropyResult(value, dual_value, gap, probs, ThetaWeights.from_legs(dual_theta))


def _leg_entropies(idx, probs: np.ndarray) -> np.ndarray:
    """The marginal entropy (bits) of probs on each leg of `idx`, the
    points' values or value indices (`_incidence`) per leg."""
    return np.array([shannon_entropy(np.bincount(vals, weights=probs)) for vals in idx])
