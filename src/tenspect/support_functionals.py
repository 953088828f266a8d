"""Basis-dependent support entropies and their basis searches.

Both functionals search one pool of bases (standard, user supplied,
sparsified), then walk by seeded elementary transvections: the upper one
minimises the support entropy H_theta, the lower one maximises that of the
maximal points.  Results carry explicit exactness flags: a minimum found at
a tight (oblique) support is exact, anything else is an upper bound.

Every search state is the standard basis plus a log of steps: a change of
basis by a matrix on one leg, a permutation of one leg (the antichain
relabel, a gather of the coefficients), or a transvection.  A step changes
only the coefficients; the reported basis replays every step from the
standard basis, on every field the same way: each leg's basis matrix is
carried beside its inverse map, and only a matrix step is inverted.
The walk draws its steps from batched 32-bit words of the seeded
generator, as numpy's own `integers(high)` calls would (`_draws`).  It
screens each transvection on the one slice it reads, which gives the
support points the step removes and adds; no step that removes none can
gain in the upper search, nor in the lower one when every point it adds
lies below a current point.  It brackets each other candidate's entropy
program at the uniform point (`h_theta_bracket`), solves it for its value
(`max_H_theta`) only when the bracket, widened by SCREEN_MARGIN = 1e-10
bits for rounding, cannot decide the step, and builds a new state only for
a step it keeps.  Within one search each order pattern (each leg's values
replaced by their rank) is bracketed and solved at most once, and each
move is screened at most once per state.  Over Q and F_p the pool stops,
and no walk runs, at a tight best support (the lower search relabels it
into an antichain): there zeta_theta = zeta^theta = 2^H_theta, so no basis
can move either value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product

import numpy as np

from .entropy import ThetaWeights, h_theta_bracket, max_H_theta
from .linalg import row_reduce
from .supports import (SupportSet, TightnessCertificate, TightnessReport,
                       check_tight, downward_closure, is_diagonal, max_points,
                       tight_antichain_relabel)
from .tensors import (BasisTuple, Domain, Tensor, coefficients_in_basis,
                      contract_leg, flattening_rank, identity_matrix,
                      invert_matrix)

NEG_INF = float("-inf")

#: transvection coefficients of the basis search are the nonzero integers
#: in [-MAX_COEFF, MAX_COEFF]
MAX_COEFF = 3

#: bits by which the basis search widens a candidate's bracket before it
#: skips the solve: the rounding between the bracket's sums and
#: max_H_theta's final entropy sum
SCREEN_MARGIN = 1e-10

#: 32-bit words `_draws` takes from the generator at a time
DRAW_BATCH = 256


def _draws(seed: int):
    """`draw(high)` returns what the next `np.random.default_rng(seed)
    .integers(high)` call would, for 1 <= high < 2**32.  numpy maps a 32-bit
    word w to (w * high) >> 32 and draws again while the low 32 bits of
    w * high are below 2**32 % high (Lemire's method); high = 1 takes no
    word.  The words come in batches of DRAW_BATCH, the same stream."""
    rng = np.random.default_rng(seed)
    words = chain.from_iterable(iter(
        lambda: rng.integers(2**32, size=DRAW_BATCH, dtype=np.uint32).tolist(), None))

    def draw(high: int) -> int:
        if high == 1:
            return 0
        m = next(words) * high
        while m & 0xFFFFFFFF < (1 << 32) % high:
            m = next(words) * high
        return m >> 32

    return draw


def _scalar_record(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}i"
    return str(v)


def support_at_basis(t: Tensor, basis: BasisTuple) -> SupportSet:
    return SupportSet.from_tensor(coefficients_in_basis(t, basis))


def rho_upper_at_basis(t: Tensor, basis: BasisTuple, theta: ThetaWeights) -> float:
    """H_theta of the support of t in the given basis; -inf for the zero tensor."""
    supp = support_at_basis(t, basis)
    return max_H_theta(supp, theta).value if len(supp) else NEG_INF


def rho_lower_at_basis(t: Tensor, basis: BasisTuple, theta: ThetaWeights) -> float:
    supp = support_at_basis(t, basis)
    return max_H_theta(max_points(supp), theta).value if len(supp) else NEG_INF


def gauge_points(t: Tensor) -> tuple[int, ...]:
    """Per-leg flattening ranks (the dimensions after discarding null directions)."""
    if t.k < 2:
        raise ValueError("gauge points need order >= 2")
    return tuple(flattening_rank(t, (i,)) for i in range(t.k))


@dataclass(frozen=True)
class BasisSearchOptions:
    restarts: int = 8
    steps: int = 60
    seed: int = 0
    extra_bases: tuple[BasisTuple, ...] = ()

    def __post_init__(self):
        if self.restarts < 0 or self.steps < 0:
            raise ValueError("restarts and steps must be >= 0")


@dataclass(frozen=True)
class SupportFunctionalReport:
    theta: ThetaWeights
    basis: BasisTuple
    support: SupportSet
    rho_upper: float
    rho_lower: float
    oblique_basis_found: bool
    tight_certificate: TightnessCertificate | None
    zeta_exact: int | None
    evaluations: int     # distinct scored supports valued, by bracket or by solve

    @property
    def zeta_upper(self) -> float:
        return 2.0 ** self.rho_upper

    @property
    def zeta_lower(self) -> float:
        return 2.0 ** self.rho_lower

    def to_records(self) -> dict:
        basis_rec = [[[_scalar_record(v) for v in row] for row in mat]
                     for mat in self.basis.matrices]
        return {
            "rho_upper": self.rho_upper,
            "rho_lower": self.rho_lower,
            "zeta_upper": self.zeta_upper,
            "zeta_lower": self.zeta_lower,
            "zeta_exact": self.zeta_exact,
            "oblique_basis_found": self.oblique_basis_found,
            "tight": self.tight_certificate is not None,
            "theta": self.theta.to_records(),
            "basis": basis_rec,
            "support_size": len(self.support),
            "support_points": [list(p) for p in self.support.points],
            "evaluations": self.evaluations,
        }


class _SearchState:
    """Coefficient array and the steps that led to it from the standard basis.

    A step is `(leg, mat)`, a change of basis by an invertible matrix in the
    domain, `(leg, order)` with a 1-D `order`, a permutation of one leg
    (`permute`: the leg's index i takes the entries at order[i]), or `(leg,
    dst, src, c)`, a transvection.  A step is decided by the support alone,
    so it changes only the coefficients, integers over Q (`Domain.integral`,
    up to a scale that leaves the support unchanged); `basis` replays the
    steps.  States are never changed in place; every step returns a new
    state, so a state scans its coefficients once.
    """

    def __init__(self, coeff: np.ndarray, steps: tuple, domain: Domain):
        self.coeff = coeff
        self.steps = steps
        self.domain = domain

    @classmethod
    def start(cls, t: Tensor) -> "_SearchState":
        """The standard basis; rejects the zero tensor."""
        if t.is_zero():
            raise ValueError("support functionals are undefined for the zero tensor")
        return cls(t.domain.integral(t.entries)[0], (), t.domain)

    @cached_property
    def _entries(self) -> tuple[dict, frozenset, tuple]:
        """One scan of the coefficients: (values, support, points).  `values`
        maps the index of every entry that is != 0 to its value; `points`
        sorts `support`, the indices that `domain.is_zero` rejects.  Over C,
        entries != 0 below the zero tolerance are in `values` only."""
        values = {i: v for i, v in zip(product(*map(range, self.coeff.shape)),
                                       self.coeff.ravel().tolist()) if v != 0}
        points = tuple(i for i, v in values.items() if not self.domain.is_zero(v))
        return values, frozenset(points), points

    @cached_property
    def _slices(self) -> list:
        """`_slices[leg][i]` lists the (index, value) pairs of `values` with
        index[leg] == i."""
        slices = [[[] for _ in range(d)] for d in self.coeff.shape]
        for i, v in self._entries[0].items():
            for leg, at in enumerate(i):
                slices[leg][at].append((i, v))
        return slices

    @property
    def support(self) -> frozenset:
        return self._entries[1]

    @cached_property
    def below(self) -> frozenset:
        """The indices below some support point in the product order, the
        support included."""
        return frozenset(downward_closure(SupportSet(self.coeff.shape, self.points())).points)

    def points(self) -> tuple:    # sorted and unique, as in SupportSet
        return self._entries[2]

    def transvection_gain(self, leg: int, dst: int, src: int,
                          c: int) -> tuple[list, list]:
        """(removed, added): the points that `apply_transvection(leg, dst,
        src, c)` removes from and adds to the support.  Reads only the
        entries != 0 of slice src, with the same scalar arithmetic as the
        dense update."""
        values, support, _ = self._entries
        reduce, is_zero = self.domain.reduce, self.domain.is_zero
        removed, added = [], []
        for i, v in self._slices[leg][src]:
            at = i[:leg] + (dst,) + i[leg + 1:]
            if is_zero(reduce(values.get(at, 0) + c * v)):
                if at in support:
                    removed.append(at)
            elif at not in support:
                added.append(at)
        return removed, added

    def apply(self, leg: int, mat) -> "_SearchState":
        """Apply an invertible matrix to one leg of the coefficients."""
        coeff = contract_leg(self.coeff, leg, self.domain.integral(mat)[0], self.domain)
        return _SearchState(coeff, self.steps + ((leg, mat),), self.domain)

    def permute(self, leg: int, perm) -> "_SearchState":
        """Move one leg's index j to perm[j]: the step `apply(leg,
        identity[:, perm])`, taken as a gather of the coefficients."""
        order = np.argsort(perm)
        return _SearchState(np.take(self.coeff, order, axis=leg),
                            self.steps + ((leg, order),), self.domain)

    def apply_transvection(self, leg: int, dst: int, src: int, c: int) -> "_SearchState":
        """Row dst += c * row src on one leg of the coefficients, applied as
        a slice update."""
        dst_at = (slice(None),) * leg + (dst,)
        src_at = (slice(None),) * leg + (src,)
        coeff = self.coeff.copy()
        coeff[dst_at] = self.domain.reduce(coeff[dst_at] + c * coeff[src_at])
        return _SearchState(coeff, self.steps + ((leg, dst, src, c),), self.domain)

    def basis(self) -> BasisTuple:
        """The steps replayed in order on each leg's identity inverse map
        and identity basis matrix, side by side: a permutation permutes the
        map's rows and the matrix's columns; row dst += c * row src on the
        map is column src -= c * column dst on the matrix; a matrix step U
        takes the map M to U M and the matrix B to B U^-1, the one
        inversion (`invert_matrix`)."""
        dom = self.domain
        inv = [identity_matrix(d, dom) for d in self.coeff.shape]
        mats = [identity_matrix(d, dom) for d in self.coeff.shape]
        for step in self.steps:
            leg = step[0]
            if len(step) == 4:
                _, dst, src, c = step
                inv[leg][dst] = dom.reduce(inv[leg][dst] + c * inv[leg][src])
                mats[leg][:, src] = dom.reduce(mats[leg][:, src] - c * mats[leg][:, dst])
            elif np.ndim(step[1]) == 1:
                inv[leg], mats[leg] = inv[leg][step[1]], mats[leg][:, step[1]]
            else:
                inv[leg] = contract_leg(inv[leg], 0, step[1], dom)
                mats[leg] = contract_leg(invert_matrix(step[1], dom), 0, mats[leg], dom)
        return BasisTuple.from_maps(mats, inv, dom)


def _sparsify(state: _SearchState) -> _SearchState:
    """Per-leg row reduction of the flattenings; shrinks the support."""
    cur = state
    for _ in range(3):
        before = len(cur.points())
        for leg in range(cur.coeff.ndim):
            flat = np.moveaxis(cur.coeff, leg, 0).reshape(cur.coeff.shape[leg], -1)
            cand = cur.apply(leg, row_reduce(flat, cur.domain)[1])
            if len(cand.points()) <= len(cur.points()):
                cur = cand
        if len(cur.points()) >= before:
            break
    return cur


def _order_pattern(supp: SupportSet) -> tuple:
    """supp's points with each leg's values replaced by their rank.  The
    relabeling keeps each leg's order, so it keeps the points' order and the
    entropy program: supports with one pattern have the same H_theta,
    bracket and solve, bit for bit."""
    ranks = [{x: r for r, x in enumerate(sorted(set(col)))} for col in zip(*supp.points)]
    return tuple(tuple(rank[x] for rank, x in zip(ranks, p)) for p in supp.points)


def _settled(domain: Domain, tight: TightnessReport) -> bool:
    """Whether no basis can move a search's value from its best support S,
    decided by `tight`: a tight S is oblique, where zeta_theta = zeta^theta
    = 2^H_theta(S) (Strassen 1991), and the search values it at H_theta(S).
    Over C the support is cut at COMPLEX_ZERO_TOL, and a tight float
    support certifies nothing."""
    return domain.exact and tight.tight


def _basis_search(t: Tensor, theta: ThetaWeights, opts: BasisSearchOptions,
                  score, minimise: bool) -> SupportFunctionalReport:
    """Seeded local search over bases, shared by both support functionals.

    The value of a state is H_theta of score(support).  The pool values
    the standard basis, one state per user basis and the sparsified start
    (`_sparsify`) in that order, and stops at a best state where `_settled`
    holds.  The search starts from its best and, in each restart, walks
    through random elementary transvections with small integer
    coefficients.  A pool state or a step is kept when it moves the value
    by more than 1e-9 in the given direction; a restart replaces the best
    state when it gains over 1e-12.
    The steps come from `_draws(opts.seed)`, the values of successive
    `integers(high)` calls of the seeded generator, made only when a walk
    runs.  A move (leg, dst, src, c) passed over at a state is not screened
    there again: restarts start from the same best state, and a re-draw
    skips it once its draws are taken, so the stream is unchanged.  Over
    F_p a move is keyed by c mod p, since every name of one residue is the
    same transvection, and a move with c = 0 mod p, which changes nothing,
    is passed over unscreened.  A kept move leaves its state and is not
    recorded.  `transvection_gain` gives the support points a step
    removes and adds.  A step that removes
    none cannot gain when it adds none, when the search minimises (a
    superset cannot lower H_theta), or when every point it adds lies below
    a current point (the maximal points stay the same), and is passed over.
    Any other candidate's support is the current one less the removed
    points plus the added ones; its state is built only if the step is kept.
    Each candidate's scored support is built once and first valued by a
    bracket lo <= value <= hi at the uniform point (`h_theta_bracket`).
    Its program is solved (`max_H_theta`) only when the bracket, widened
    by SCREEN_MARGIN = 1e-10 bits for rounding, cannot decide the step; the
    solve starts from the program the bracket built.  A solved value is at
    least lo and at most hi up to that rounding, whatever the solve's gap;
    so a skipped solve could not have gained, and every decision is the one
    the solved value would make.  Brackets and values are kept per order
    pattern (`_order_pattern`): ranking each leg's values keeps the points'
    order, so supports with one pattern have the same program and value, bit
    for bit, and each pattern is bracketed and solved at most once.
    `evaluations` counts the distinct scored supports valued by bracket or
    by solve, whether or not their pattern was valued before.

    One rule values every tight best support at its own H_theta: where a
    state's scored support is not its support S (in the lower search, S is
    no antichain), `check_tight` decides S, and a tight S is relabeled into
    an antichain (`tight_antichain_relabel`, one `permute` step per leg)
    that takes S's certificate
    through the same permutations (`TightnessCertificate.relabel`), or is
    decided afresh if that fails to verify.  The rule runs on the pool's
    states and on a best state that a restart finds; a support is decided
    at most once.  Neither the rest of the pool nor a restart runs once
    `_settled` holds: over Q and F_p a tight S is oblique, where zeta_theta
    = zeta^theta = 2^H_theta(S), so no basis could move the value by more
    than the solve's gap.
    """
    sign = 1.0 if minimise else -1.0
    # order pattern -> max_H_theta value, or its bracket (lo, hi)
    exact: dict[tuple, float] = {}
    brackets: dict[tuple, tuple[float, float]] = {}
    # candidate support points -> (scored support, its order pattern): a
    # SupportSet, score (max_points) and pattern are made once per support,
    # not once per candidate
    scored: dict[tuple, tuple[SupportSet, tuple]] = {}
    valued: set[tuple] = set()      # the scored supports valued
    # support points -> tightness report: each support is decided once
    reports: dict[tuple, TightnessReport] = {}
    # (state, leg, dst, src, c, or c mod p over F_p): the moves passed over at a state
    passed: set[tuple] = set()

    def entropy(supp: SupportSet, key: tuple) -> float:
        valued.add(supp.points)
        if key not in exact:
            exact[key] = max_H_theta(supp, theta).value
        return exact[key]

    def scored_support(pts: tuple) -> tuple[SupportSet, tuple]:
        if pts not in scored:
            supp = score(SupportSet(t.dims, pts))
            scored[pts] = supp, _order_pattern(supp)
        return scored[pts]

    def decide(supp: SupportSet) -> TightnessReport:
        if supp.points not in reports:
            reports[supp.points] = check_tight(supp)
        return reports[supp.points]

    def scored_as_itself(state: _SearchState) -> _SearchState:
        """The state, relabeled into an antichain where its scored support
        is not its support and that support is tight."""
        pts = state.points()
        if scored_support(pts)[0].points == pts:
            return state
        supp = SupportSet(t.dims, pts)
        report = decide(supp)
        if not report.tight:
            return state
        perms = tight_antichain_relabel(supp, report.certificate)
        for leg, perm in enumerate(perms):
            state = state.permute(leg, perm)
        relabeled = SupportSet(t.dims, state.points())
        cert = report.certificate.relabel(perms)
        if cert.verify(relabeled):
            reports.setdefault(relabeled.points, TightnessReport(True, cert, method=report.method))
        return state

    def better(val: float, ref: float, slack: float) -> bool:
        return sign * val < sign * ref - slack

    def gain(pts: tuple, ref: float, slack: float) -> float | None:
        """The value of the scored support of pts if it is better than ref
        by more than slack, else None; solved only when the bracket's end
        on the gaining side is better by more than slack - SCREEN_MARGIN."""
        supp, key = scored_support(pts)
        valued.add(supp.points)
        if key not in exact:
            if key not in brackets:
                brackets[key] = h_theta_bracket(supp, theta)
            lo, hi = brackets[key]
            if not better(lo if minimise else hi, ref, slack - SCREEN_MARGIN):
                return None
        val = entropy(supp, key)
        return val if better(val, ref, slack) else None

    def pool():
        start = _SearchState.start(t)
        yield start
        for basis in opts.extra_bases:
            state = start
            for leg, mat in enumerate(basis.inverses()):
                state = state.apply(leg, mat)
            yield state
        yield _sparsify(start)

    for basis in opts.extra_bases:
        sizes = tuple(len(mat) for mat in basis.matrices)
        if basis.domain != t.domain:
            raise ValueError("basis domain does not match tensor domain")
        if sizes != t.dims:
            raise ValueError(f"basis of sizes {sizes} does not fit tensor dims {t.dims}")
    best_state, best_val, best_pts = None, sign * math.inf, None
    for state in map(scored_as_itself, pool()):
        pts = state.points()
        val = gain(pts, best_val, 1e-9)
        if val is not None:
            best_state, best_val, best_pts = state, val, pts
            best_supp = SupportSet(t.dims, pts)
            if settled := _settled(t.domain, decide(best_supp)):
                break
    restarts = 0 if settled or not opts.steps else opts.restarts
    draw = _draws(opts.seed) if restarts else None
    coeff_choices = [c for c in range(-MAX_COEFF, MAX_COEFF + 1) if c != 0]
    p = t.domain.p
    for _ in range(restarts):
        cur, cur_val, cur_pts = best_state, best_val, best_pts
        for _ in range(opts.steps):
            leg = draw(t.k)
            n = t.dims[leg]
            if n < 2:
                continue
            dst, src = draw(n), draw(n)
            if dst == src:
                continue
            c = coeff_choices[draw(len(coeff_choices))]
            # over F_p a move is its residue, and residue 0 changes nothing
            move = (cur, leg, dst, src, c % p if p else c)
            if not move[-1] or move in passed:
                continue
            removed, added = cur.transvection_gain(leg, dst, src, c)
            val = None
            if removed or not (minimise or cur.below.issuperset(added)):
                pts = tuple(sorted(cur.support.difference(removed).union(added)))
                val = gain(pts, cur_val, 1e-9) if pts else None
            if val is None:
                passed.add(move)
            else:
                cur, cur_val, cur_pts = cur.apply_transvection(leg, dst, src, c), val, pts
        if better(cur_val, best_val, 1e-12):
            best_state, best_val, best_pts = cur, cur_val, cur_pts

    if best_pts != best_supp.points:     # a restart replaced the pool's best
        best_state = scored_as_itself(best_state)
        best_supp = SupportSet(t.dims, best_state.points())
    tight_report = decide(best_supp)
    best_top = max_points(best_supp)
    return SupportFunctionalReport(
        theta=theta,
        basis=best_state.basis(),
        support=best_supp,
        rho_upper=entropy(best_supp, _order_pattern(best_supp)),
        rho_lower=entropy(best_top, _order_pattern(best_top)),
        # an antichain (every point maximal) is oblique as it stands; tight
        # supports become antichains after sorting each leg by the weights
        oblique_basis_found=len(best_top) == len(best_supp) or tight_report.tight,
        tight_certificate=tight_report.certificate if tight_report.tight else None,
        zeta_exact=len(best_supp) if is_diagonal(best_supp) else None,
        evaluations=len(valued),
    )


def upper_support_functional(t: Tensor, theta: ThetaWeights,
                             options: BasisSearchOptions | None = None) -> SupportFunctionalReport:
    """Minimise the support entropy over a basis pool.

    The result is an upper bound on the true minimum over all bases; it is
    exact (and flagged so) when the winning support is tight (oblique).
    """
    return _basis_search(t, theta, options or BasisSearchOptions(),
                         score=lambda supp: supp, minimise=True)


def lower_support_functional(t: Tensor, theta: ThetaWeights,
                             options: BasisSearchOptions | None = None) -> SupportFunctionalReport:
    """Maximise the maximal-point entropy over a basis pool (a lower bound)."""
    return _basis_search(t, theta, options or BasisSearchOptions(),
                         score=max_points, minimise=False)
