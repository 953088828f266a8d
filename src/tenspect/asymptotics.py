"""Headline pipelines: the z(n) root equation, asymptotic subrank of tight
3-supports, the cap-set bound, exact combinatorial slice rank, and asymptotic
slice rank via a theta minimisation.  A degeneration lower bound is the
asymptotic subrank of the tight subset that `check_comb_degeneration`
certifies (`tenspect degeneration --bound`)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .entropy import (MinimaxEntropyResult, ThetaWeights, _theta_cutting_planes,
                      max_min_entropy)
from .errors import BudgetExceededError
from .quantum import AscentOptions, lower_quantum_functional
from .supports import (CombDegenerationCertificate, SupportSet,
                       TightnessReport, check_comb_degeneration, check_tight,
                       is_antichain, is_free)
from .tensors import (Tensor, binomial_basis_matrix, cap_set_tensor, invert_matrix,
                      prime_field, restrict)


# ---------------------------------------------------------------------------
# z(n)


#: absolute tolerance of the gamma root in z_of_n
ROOT_XTOL = 1e-15

#: the largest n of z_of_n: its bracket's low end 1 + 1e-3 / n nears 1.0 beyond
#: it, and rounds to 1.0 from about n = 9e12
Z_MAX_N = 10 ** 12


@dataclass(frozen=True)
class ZResult:
    n: int
    z: float
    gamma: float


def z_of_n(n: int) -> ZResult:
    """Solve the gamma root equation and evaluate z(n).

    gamma is the unique positive root of 1/(g-1) - n/(g^n - 1) = (n-1)/3,
    and z = (g^n - 1)/(g - 1) * g^(-2(n-1)/3).
    """
    from scipy.optimize import brentq

    if n < 2:
        raise ValueError("n must be >= 2")
    if n > Z_MAX_N:
        raise ValueError(f"n must be <= {Z_MAX_N}, got {n}")

    def f(g):
        # delta = g - 1; g^n - 1 via expm1/log1p avoids cancellation near 1;
        # n / (g^n - 1) reads 0 where g^n would overflow (above e^709)
        delta = g - 1.0
        power = n * math.log1p(delta)
        tail = n / math.expm1(power) if power <= 709.0 else 0.0
        return 1.0 / delta - tail - (n - 1.0) / 3.0

    # f(4) < 1/3 - (n - 1)/3 < 0, and f(1 + d) is about (n - 1)/6 > 0 while
    # n d is small: d = 1e-9 up to n = 10^6, 1e-3 / n above
    gamma = brentq(f, 1.0 + min(1e-9, 1e-3 / n), 4.0, xtol=ROOT_XTOL, rtol=8.9e-16,
                   maxiter=200)
    z = math.expm1(n * math.log1p(gamma - 1.0)) / (gamma - 1.0) \
        * gamma ** (-2.0 * (n - 1.0) / 3.0)
    return ZResult(n, float(z), float(gamma))


def reduced_polymult_support(n: int) -> SupportSet:
    """The tight set of triples in {0..n-1}^3 summing to n-1."""
    pts = [p for p in iter_product(range(n), repeat=3) if sum(p) == n - 1]
    return SupportSet((n, n, n), tuple(pts))


def modular_sum_support(m: int) -> SupportSet:
    """Triples in {0..m-1}^3 with coordinate sum m-1 modulo m."""
    pts = [p for p in iter_product(range(m), repeat=3) if sum(p) % m == m - 1]
    return SupportSet((m, m, m), tuple(pts))


# ---------------------------------------------------------------------------
# asymptotic subrank of tight 3-supports


@dataclass(frozen=True)
class AsymptoticSubrankResult:
    value: float
    log2_value: float
    tightness: TightnessReport
    minimax: MinimaxEntropyResult


def asympt_subrank_tight3(support: SupportSet) -> AsymptoticSubrankResult:
    """max_P min_i 2^H(P_i) on a tight 3-support."""
    if support.k != 3:
        raise ValueError("only order-3 supports are handled")
    report = check_tight(support)
    if not report.tight:
        raise ValueError("support is not tight; the formula does not apply")
    mm = max_min_entropy(support)
    return AsymptoticSubrankResult(2.0 ** mm.value, mm.value, report, mm)


# ---------------------------------------------------------------------------
# cap sets


@dataclass(frozen=True)
class CapsetReport:
    m: int
    p: int
    value: float
    z: ZResult
    relabeling: tuple[int, ...]           # applied to leg 3 before the transform
    transformed_support: SupportSet
    target_support: SupportSet
    degeneration: CombDegenerationCertificate
    modular_support: SupportSet


def _is_power_of(m: int, p: int) -> bool:
    if m < 2:
        return False
    while m % p == 0:
        m //= p
    return m == 1


def capset_bound(m: int, p: int) -> CapsetReport:
    """Certified asymptotic bound for progression-free sets modulo m.

    Builds the modular-sum tensor over F_p, relabels the third leg by the
    cyclic shift x -> x + 1 mod m, changes to the binomial basis, and checks
    that the resulting support is exactly the tight set of triples summing to
    m - 1.  A combinatorial degeneration from the modular-sum support onto
    that tight set is verified as well; the bound itself is z(m).
    """
    if not _is_power_of(m, p):
        raise ValueError("m must be a power of the prime p")
    dom = prime_field(p)
    t = cap_set_tensor(m, p)

    # shift leg 3 so the support becomes "sum = m-1 mod m"; composing b_inv
    # with the shift's permutation matrix moves column z - 1 to column z
    shift = [(x + 1) % m for x in range(m)]
    b_inv = invert_matrix(binomial_basis_matrix(m, p), dom)
    third = b_inv[:, [(z - 1) % m for z in range(m)]]
    transformed = SupportSet.from_tensor(restrict(t, [b_inv, b_inv, third]))
    target = reduced_polymult_support(m)
    if set(transformed.points) != set(target.points):
        raise RuntimeError("binomial basis transform did not produce the tight support")

    shifted_support = modular_sum_support(m)
    cert = check_comb_degeneration(shifted_support, target)
    if cert is None or not cert.verify(shifted_support, target):
        raise RuntimeError("combinatorial degeneration certificate failed")
    z = z_of_n(m)
    return CapsetReport(m=m, p=p, value=z.z, z=z, relabeling=tuple(shift),
                        transformed_support=transformed, target_support=target,
                        degeneration=cert, modular_support=shifted_support)


# ---------------------------------------------------------------------------
# slice rank


@dataclass(frozen=True)
class SliceCover:
    size: int
    slices: tuple[tuple[int, int], ...]   # (leg, value) pairs covering the support


#: slicerank_exact_combinatorial refuses supports with more points
SLICE_COVER_MAX_POINTS = 5000


def slicerank_exact_combinatorial(support: SupportSet) -> SliceCover:
    """Exact slice rank of an antichain-supported pattern.

    Equals the minimum total number of (leg, value) slices covering every
    support point; solved by branch and bound on the uncovered points.
    Tight supports are accepted too: sorting each leg by the tightness
    weights turns them into antichains without changing the cover number.
    """
    pts = list(support.points)
    if not pts:
        raise ValueError("empty support")
    if len(pts) > SLICE_COVER_MAX_POINTS:
        raise BudgetExceededError(f"support larger than budget {SLICE_COVER_MAX_POINTS}")
    if not is_antichain(support) and not check_tight(support).tight:
        raise ValueError("exact combinatorial slice rank needs an "
                         "antichain (or tight) support")
    k = support.k

    best: list[tuple[int, int]] = [(0, v) for v in support.values(0)]

    def covered(p, chosen) -> bool:
        return any(p[leg] == val for leg, val in chosen)

    def extend(chosen):
        nonlocal best
        if len(chosen) >= len(best):
            return
        uncovered = [p for p in pts if not covered(p, chosen)]
        if not uncovered:
            best = list(chosen)
            return
        # cheap lower bound: a slice covers at most max-count points
        max_cover = 1
        for leg in range(k):
            counts: dict[int, int] = {}
            for p in uncovered:
                counts[p[leg]] = counts.get(p[leg], 0) + 1
            max_cover = max(max_cover, max(counts.values()))
        if len(chosen) + math.ceil(len(uncovered) / max_cover) > len(best):
            return
        p = uncovered[0]
        for leg in range(k):
            extend(chosen + [(leg, p[leg])])

    extend([])
    return SliceCover(len(best), tuple(best))


#: target (bits) of the slice-rank theta minimisation
SLICERANK_TOL = 1e-3

#: round limit of the slice-rank cutting planes
SLICERANK_ROUNDS = 12


@dataclass(frozen=True)
class SliceRankResult:
    value: float
    log2_value: float
    theta: ThetaWeights
    route: str
    quantum_values: tuple[tuple[tuple[float, ...], float], ...]


def asympt_slicerank(t: Tensor, options: AscentOptions | None = None
                     ) -> SliceRankResult:
    """Asymptotic slice rank: the least quantum functional over leg theta.

    On a free standard support the quantum functionals equal the support
    functionals, so the value is exactly the support minimax max_P min_i
    H(P_i) (route "support") and no ascent runs.  Otherwise (route
    "quantum") `entropy._theta_cutting_planes` minimises the convex
    theta -> E(theta) over the marginal entropy vectors of the ascent's
    maximisers, stopping at a gap of SLICERANK_TOL / 4 or after
    SLICERANK_ROUNDS rounds.
    """
    # an empty support (a zero tensor, or complex entries all below
    # COMPLEX_ZERO_TOL) is free but has no minimax; the ascent handles it
    supp = SupportSet.from_tensor(t)
    if len(supp) and is_free(supp):
        mm = max_min_entropy(supp)
        return SliceRankResult(value=2.0 ** mm.value, log2_value=mm.value,
                               theta=mm.theta, route="support", quantum_values=())
    opts = options or AscentOptions()

    def evaluate(theta_vec):
        res = lower_quantum_functional(t, ThetaWeights.from_legs(theta_vec), opts)
        return res.value, np.array(res.leg_entropies), None

    evals, _ = _theta_cutting_planes(t.k, evaluate, SLICERANK_TOL / 4, SLICERANK_ROUNDS)
    best_val, best_theta, _, _ = min(evals, key=lambda e: e[0])
    return SliceRankResult(value=2.0 ** best_val, log2_value=best_val,
                           theta=ThetaWeights.from_legs(best_theta), route="quantum",
                           quantum_values=tuple((tuple(e[1]), e[0]) for e in evals))
