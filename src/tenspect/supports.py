"""Combinatorics of tensor supports.

Product order, maximal points, antichain and freeness tests, tightness
certificates, combinatorial degenerations, and the exact subrank of a set
(largest free diagonal).  All certificates returned here are re-verified by
direct substitution before they leave the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iter_product

import numpy as np

from . import linalg
from .errors import BudgetExceededError
from .tensors import Tensor


@dataclass(frozen=True)
class SupportSet:
    """Finite set of k-tuples of 0-based indices inside a box of bounds."""

    bounds: tuple[int, ...]
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        bounds = tuple(int(b) for b in self.bounds)
        if not bounds or any(b < 1 for b in bounds):
            raise ValueError("bounds must be positive")
        pts = sorted({tuple(map(int, p)) for p in self.points})
        # arity and bounds are checked over the whole set; only a failure
        # walks the points, to name the first offending one
        if pts and (set(map(len, pts)) != {len(bounds)}
                    or any(min(col) < 0 or max(col) >= b for col, b in zip(zip(*pts), bounds))):
            for p in pts:
                if len(p) != len(bounds):
                    raise ValueError(f"point {p} has wrong arity")
                if any(x < 0 or x >= b for x, b in zip(p, bounds)):
                    raise ValueError(f"point {p} outside bounds {bounds}")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "points", tuple(pts))

    @property
    def k(self) -> int:
        return len(self.bounds)

    def __len__(self):
        return len(self.points)

    def values(self, leg: int) -> list[int]:
        return sorted({p[leg] for p in self.points})

    def issubset(self, other: "SupportSet") -> bool:
        return set(self.points) <= set(other.points)

    @classmethod
    def from_tensor(cls, t: Tensor) -> "SupportSet":
        return cls(t.dims, tuple(t.nonzero_indices()))

    def relabel_leg(self, leg: int, mapping) -> "SupportSet":
        """Apply a value permutation to one leg: x -> mapping[x]."""
        mapping = list(mapping)
        if sorted(mapping) != list(range(self.bounds[leg])):
            raise ValueError("mapping is not a permutation of the leg values")
        pts = tuple(tuple(mapping[x] if i == leg else x for i, x in enumerate(p))
                    for p in self.points)
        return SupportSet(self.bounds, pts)


def dumps_support(s: SupportSet) -> str:
    lines = [f"{s.k} {' '.join(str(b) for b in s.bounds)}"]
    lines += [" ".join(str(x) for x in p) for p in s.points]
    return "\n".join(lines) + "\n"


def loads_support(text: str) -> SupportSet:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty support file")
    head = lines[0].split()
    k = int(head[0])
    if len(head) != k + 1:
        raise ValueError("malformed support header")
    bounds = tuple(int(x) for x in head[1:])
    pts = [tuple(int(x) for x in ln.split()) for ln in lines[1:]]
    return SupportSet(bounds, tuple(pts))


def load_support(path) -> SupportSet:
    with open(path, "r", encoding="ascii") as fh:
        return loads_support(fh.read())


def save_support(s: SupportSet, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_support(s))


# ---------------------------------------------------------------------------
# product order


def max_points(s: SupportSet) -> SupportSet:
    if not s.points:
        raise ValueError("empty support has no maximal points")
    pts = np.array(s.points)
    # dominated[i, j]: point j is >= point i in every coordinate; the points
    # are distinct, so off the diagonal that is j > i in the product order
    dominated = (pts[None, :, :] >= pts[:, None, :]).all(axis=2)
    np.fill_diagonal(dominated, False)
    keep = ~dominated.any(axis=1)
    return SupportSet(s.bounds, tuple(p for p, kept in zip(s.points, keep) if kept))


def downward_closure(s: SupportSet) -> SupportSet:
    closed = set()
    for p in s.points:
        for q in iter_product(*[range(x + 1) for x in p]):
            closed.add(q)
    return SupportSet(s.bounds, tuple(closed))


def is_antichain(s: SupportSet) -> bool:
    """Every point is maximal."""
    return not s.points or len(max_points(s)) == len(s)


def is_free(s: SupportSet) -> bool:
    """Every pair of distinct points differs in at least two coordinates:
    dropping any one coordinate is injective on the points."""
    n = len(s.points)
    return all(len({p[:i] + p[i + 1:] for p in s.points}) == n for i in range(s.k))


def is_diagonal(s: SupportSet) -> bool:
    """No two distinct points share a coordinate: every leg's values are
    pairwise distinct, so there are at most min(bounds) points."""
    n = len(s.points)
    return n <= min(s.bounds) and all(len({p[i] for p in s.points}) == n for i in range(s.k))


# ---------------------------------------------------------------------------
# tightness


@dataclass(frozen=True)
class TightnessCertificate:
    """Injective integer leg weights u_i with sum zero on every support point."""

    maps: tuple[tuple[int, ...], ...]   # maps[i][x] = u_i(x) on the full index set

    def verify(self, s: SupportSet) -> bool:
        if len(self.maps) != s.k:
            return False
        for i, m in enumerate(self.maps):
            if len(m) != s.bounds[i]:
                return False
            if len(set(m)) != len(m):
                return False
        return all(sum(self.maps[i][p[i]] for i in range(s.k)) == 0 for p in s.points)

    def relabel(self, perms) -> "TightnessCertificate":
        """The weights carried through per-leg value permutations, x ->
        perms[i][x] on leg i: a certificate for `relabel_support(s, perms)`
        whenever this one is for s."""
        inverses = [sorted(range(len(perm)), key=perm.__getitem__) for perm in perms]
        return TightnessCertificate(tuple(tuple(m[x] for x in inv)
                                          for m, inv in zip(self.maps, inverses)))


@dataclass(frozen=True)
class TightnessReport:
    tight: bool
    certificate: TightnessCertificate | None = None
    forced_pair: tuple[int, int, int] | None = None   # leg, value x, value y
    method: str = ""


def _extend_to_full_maps(s: SupportSet, partial: list[dict]) -> tuple[tuple[int, ...], ...]:
    # values not appearing on a leg get fresh large weights, keeping injectivity
    maps = []
    for i in range(s.k):
        m = [0] * s.bounds[i]
        taken = set(partial[i].values())
        nxt = (max(taken) if taken else 0) + 1
        for x in range(s.bounds[i]):
            if x in partial[i]:
                m[x] = partial[i][x]
            else:
                while nxt in taken:
                    nxt += 1
                m[x] = nxt
                taken.add(nxt)
                nxt += 1
        maps.append(tuple(m))
    return tuple(maps)


def _generic_points(basis: list[list[int]], limit: int):
    """Primitive integer points of sum_j m^j basis[j] for m = 1..limit, on
    an integer basis (`nullspace_fraction`'s ints); a hyperplane through 0
    not containing the span meets at most len(basis) - 1 of them
    (Vandermonde).  The sums run in Python ints: a positive multiple of a
    rational basis, as ints is of the Q basis, has the same primitive
    points."""
    cols = list(zip(*basis))
    for m in range(1, limit + 1):
        yield linalg._primitive([sum(m ** j * x for j, x in enumerate(col)) for col in cols])


def _linear_ansatz(s: SupportSet, used: list[list[int]]) -> TightnessCertificate | None:
    # u_i(x) = a_i * x + b_i with a_i != 0 is automatically injective.
    k = s.k
    rows = [list(p) + [1] for p in s.points]
    basis, _ = linalg.nullspace_fraction(np.array(rows, dtype=object))
    if not basis:
        return None
    # search small integer combinations for a vector with all a_i nonzero
    for ints in _generic_points(basis, 4 * len(basis) * k + 1):
        if all(ints[i] != 0 for i in range(k)):
            a, c0 = ints[:k], ints[k]
            partial = [{x: a[i] * x for x in used[i]} for i in range(k)]
            # absorb the affine constant into the last leg
            for x in partial[k - 1]:
                partial[k - 1][x] += c0
            maps = _extend_to_full_maps(s, partial)
            cert = TightnessCertificate(maps)
            if cert.verify(s):
                return cert
    return None


def check_tight(s: SupportSet) -> TightnessReport:
    """Decide tightness exactly.

    The constraint system "sum of leg weights vanishes on every point" is
    linear; injectivity holds for a generic rational solution unless some
    difference functional u_i(x) - u_i(y) vanishes identically on the
    solution space, in which case no injective certificate exists over the
    integers either.  Both outcomes are certified.  The solution space comes
    from `nullspace_fraction` as integer vectors, den times its basis over
    Q, so the pair tests and the generic points run on Python ints and
    decide as the rational basis would.
    """
    if not s.points:
        raise ValueError("tightness is undefined for an empty support")
    k = s.k
    used = [s.values(i) for i in range(k)]
    # the linear ansatz certifies every one-point support
    cert = _linear_ansatz(s, used)
    if cert is not None:
        return TightnessReport(True, cert, method="linear")

    # variables: one weight per (leg, used value)
    var_of = {}
    for i in range(k):
        for x in used[i]:
            var_of[(i, x)] = len(var_of)
    nvar = len(var_of)
    rows = []
    for p in s.points:
        row = [0] * nvar
        for i in range(k):
            row[var_of[(i, p[i])]] += 1
        rows.append(row)
    basis, _ = linalg.nullspace_fraction(np.array(rows, dtype=object))
    # a pair of values on one leg is forced equal iff its difference
    # functional vanishes on the whole nullspace (every pair, if it is {0})
    pairs = []
    for i in range(k):
        for x, y in combinations(used[i], 2):
            vx, vy = var_of[(i, x)], var_of[(i, y)]
            if all(b[vx] == b[vy] for b in basis):
                return TightnessReport(False, forced_pair=(i, x, y), method="nullspace")
            pairs.append((vx, vy))

    # a generic integer point separates every pair of values on every leg
    for ints in _generic_points(basis, len(pairs) * max(len(basis), 1) + 2):
        if all(ints[vx] != ints[vy] for vx, vy in pairs):
            partial = [{x: ints[var_of[(i, x)]] for x in used[i]} for i in range(k)]
            maps = _extend_to_full_maps(s, partial)
            cert = TightnessCertificate(maps)
            if cert.verify(s):
                return TightnessReport(True, cert, method="nullspace")
    # unreachable: each pair's difference is a nonzero polynomial in m of
    # degree below len(basis), so some point within the limit separates all
    raise RuntimeError("no generic point separated the value pairs")


def tight_antichain_relabel(s: SupportSet, cert: TightnessCertificate
                            ) -> tuple[tuple[int, ...], ...]:
    """Per-leg value permutations turning a tight support into an antichain.

    Relabeling each leg's value x by the rank of its certificate weight
    u_i(x) makes the weights increasing, so two comparable distinct points
    would have different weight sums.
    """
    return tuple(tuple(sorted(m).index(u) for u in m) for m in cert.maps[:s.k])


def relabel_support(s: SupportSet, perms) -> SupportSet:
    out = s
    for i, perm in enumerate(perms):
        out = out.relabel_leg(i, perm)
    return out


# ---------------------------------------------------------------------------
# combinatorial degeneration


@dataclass(frozen=True)
class CombDegenerationCertificate:
    """Integer leg weights: zero sums on the small set, positive on the rest."""

    maps: tuple[tuple[int, ...], ...]

    def verify(self, big: SupportSet, small: SupportSet) -> bool:
        if len(self.maps) != big.k:
            return False
        small_set = set(small.points)
        for p in big.points:
            total = sum(self.maps[i][p[i]] for i in range(big.k))
            if p in small_set:
                if total != 0:
                    return False
            elif total <= 0:
                return False
        return True


def _graded_probe(big: SupportSet, small: SupportSet) -> CombDegenerationCertificate | None:
    # common pattern: constant coordinate sum on the small set, larger on the rest
    sums_small = {sum(p) for p in small.points}
    if len(sums_small) != 1:
        return None
    sigma = sums_small.pop()
    if any(sum(p) <= sigma for p in set(big.points) - set(small.points)):
        return None
    maps = [tuple(range(big.bounds[i])) for i in range(big.k)]
    last = tuple(x - sigma for x in range(big.bounds[-1]))
    maps[-1] = last
    cert = CombDegenerationCertificate(tuple(maps))
    return cert if cert.verify(big, small) else None


def check_comb_degeneration(big: SupportSet, small: SupportSet
                            ) -> CombDegenerationCertificate | None:
    """Weights vanishing on `small` and strictly positive on `big` minus it.

    Feasibility is decided by a rational LP with strictness margin 1; the
    solution is rounded to integers and re-verified by substitution.
    Returns None when the LP is infeasible.
    """
    if big.k != small.k or big.bounds != small.bounds:
        raise ValueError("supports must share order and bounds")
    if not small.issubset(big):
        raise ValueError("second support must be a subset of the first")
    small_set = set(small.points)
    rest = [p for p in big.points if p not in small_set]
    if not rest:
        cert = CombDegenerationCertificate(
            tuple(tuple(0 for _ in range(b)) for b in big.bounds))
        return cert
    probe = _graded_probe(big, small)
    if probe is not None:
        return probe

    from scipy.optimize import linprog

    k = big.k
    var_of = {}
    for i in range(k):
        for x in range(big.bounds[i]):
            var_of[(i, x)] = len(var_of)
    nvar = len(var_of)

    def row_for(p):
        row = np.zeros(nvar)
        for i in range(k):
            row[var_of[(i, p[i])]] += 1.0
        return row

    a_eq = np.array([row_for(p) for p in small.points])
    b_eq = np.zeros(len(small.points))
    a_ub = np.array([-row_for(p) for p in rest])
    b_ub = -np.ones(len(rest))
    bound = 8.0 * k * max(big.bounds) * max(1, len(big.points))
    res = linprog(np.zeros(nvar), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(-bound, bound)] * nvar, method="highs")
    if not res.success:
        return None
    for denom in (1, 2, 3, 4, 6, 12, 24, 60, 10**3, 10**6, 10**9):
        fracs = [Fraction(v).limit_denominator(denom) for v in res.x]
        ints = linalg.clear_denominators(fracs) if any(fracs) else [0] * nvar
        maps = tuple(tuple(ints[var_of[(i, x)]] for x in range(big.bounds[i]))
                     for i in range(k))
        cert = CombDegenerationCertificate(maps)
        if cert.verify(big, small):
            return cert
    return None


# ---------------------------------------------------------------------------
# exact subrank of a set (largest free diagonal)


@dataclass(frozen=True)
class SubrankResult:
    value: int
    diagonal: tuple[tuple[int, ...], ...]


def _box_holds_another(points, boxes, members) -> bool:
    """Some point outside `members` has each coordinate in its leg's box."""
    k = len(boxes)
    for q in points:
        if q not in members and all(q[i] in boxes[i] for i in range(k)):
            return True
    return False


def _is_free_diagonal(s: SupportSet, diag: list[tuple[int, ...]]) -> bool:
    for p, q in combinations(diag, 2):
        if any(x == y for x, y in zip(p, q)):
            return False
    return not _box_holds_another(s.points, [set(p[i] for p in diag) for i in range(s.k)],
                                  set(diag))


def subrank_set(s: SupportSet, budget: int = 5000) -> SubrankResult:
    """Exact maximum free diagonal via branch and bound.

    Prunes with the minimum marginal support size; a support of more than
    `budget` points raises BudgetExceededError, a negative budget ValueError.
    """
    if budget < 0:
        raise ValueError(f"budget {budget} must be nonnegative")
    pts = list(s.points)
    if len(pts) > budget:
        raise BudgetExceededError(f"support size {len(pts)} beyond budget {budget}")
    k = s.k
    best: list[tuple[int, ...]] = []

    def extend(chosen, dsets, members, cand):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        if not cand:
            return
        bound = len(chosen) + min(len({q[i] for q in cand}) for i in range(k))
        if bound <= len(best):
            return
        for idx, p in enumerate(cand):
            new_dsets = [dsets[i] | {p[i]} for i in range(k)]
            new_members = members | {p}
            if _box_holds_another(pts, new_dsets, new_members):
                continue
            new_cand = [q for q in cand[idx + 1:]
                        if all(q[i] != p[i] for i in range(k))]
            chosen.append(p)
            extend(chosen, new_dsets, new_members, new_cand)
            chosen.pop()

    extend([], [set() for _ in range(k)], set(), pts)
    return SubrankResult(len(best), tuple(best))


#: subrank_set_bruteforce enumerates all subsets of at most this many points
BRUTEFORCE_MAX_POINTS = 14


def subrank_set_bruteforce(s: SupportSet) -> int:
    """Independent oracle: enumerate every subset.  Only for tiny supports."""
    pts = list(s.points)
    if len(pts) > BRUTEFORCE_MAX_POINTS:
        raise BudgetExceededError(f"brute force limited to {BRUTEFORCE_MAX_POINTS} points")
    best = 0
    for mask in range(1 << len(pts)):
        subset = [pts[i] for i in range(len(pts)) if mask >> i & 1]
        if len(subset) > best and _is_free_diagonal(s, subset):
            best = len(subset)
    return best
