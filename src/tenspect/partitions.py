"""Integer partitions, symmetric group characters, irrep dimensions,
Kronecker and Littlewood-Richardson coefficients.

Every number comes from one recursion: the Murnaghan-Nakayama rule on beta
numbers gives the characters, a dimension is the character at the identity,
and both coefficient families are exact character inner products (LR through
Frobenius reciprocity, over S_|mu| x S_|nu|).  All arithmetic is integer
arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache


def normalize_partition(parts) -> tuple[int, ...]:
    out = tuple(sorted((int(x) for x in parts if int(x) > 0), reverse=True))
    return out


def partitions(n: int, max_part: int | None = None):
    """Yield partitions of n as non-increasing tuples."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(max_part, n)
    for first in range(top, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def partition_entropy(parts) -> float:
    """Shannon entropy in bits of the normalised parts."""
    parts = normalize_partition(parts)
    n = sum(parts)
    return float(-sum(q * math.log2(q) for q in (x / n for x in parts)))


def cycle_class_size(mu: tuple[int, ...]) -> int:
    """Number of permutations with cycle type mu."""
    n = sum(mu)
    z = 1
    counts: dict[int, int] = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    for length, mult in counts.items():
        z *= length ** mult * math.factorial(mult)
    return math.factorial(n) // z


@lru_cache(maxsize=None)
def _mn_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not lam:
        return 1 if not mu else 0
    if not mu:
        return 0
    length = mu[0]
    rest = mu[1:]
    d = len(lam)
    betas = [lam[i] + (d - 1 - i) for i in range(d)]
    beta_set = set(betas)
    total = 0
    for i, b in enumerate(betas):
        nb = b - length
        if nb < 0 or nb in beta_set:
            continue
        new_betas = sorted([x for j, x in enumerate(betas) if j != i] + [nb],
                           reverse=True)
        height = sum(1 for x in betas if nb < x < b)
        new_lam = tuple(x - (len(new_betas) - 1 - j)
                        for j, x in enumerate(new_betas))
        new_lam = tuple(x for x in new_lam if x > 0)
        total += (-1) ** height * _mn_character(new_lam, rest)
    return total


def character(lam, mu) -> int:
    """Irreducible character of the symmetric group, chi_lam at class mu."""
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("partition sizes differ")
    return _mn_character(lam, mu)


def irrep_dimension(lam) -> int:
    """Dimension of the irrep lam: its character at the identity class."""
    lam = normalize_partition(lam)
    return _mn_character(lam, (1,) * sum(lam))


def _multiplicity(total: int, order: int) -> int:
    """total / order, checked to be a non-negative integer."""
    if total % order != 0:
        raise ArithmeticError("character inner product is not an integer")
    if total < 0:
        raise ArithmeticError("negative multiplicity")
    return total // order


def kronecker_coefficient(lam, mu, nu) -> int:
    """Multiplicity via the exact character inner product over S_n."""
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    nu = normalize_partition(nu)
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("all three partitions must have the same size")
    total = sum(cycle_class_size(rho) * character(lam, rho) * character(mu, rho)
                * character(nu, rho) for rho in partitions(n))
    return _multiplicity(total, math.factorial(n))


def lr_coefficient(lam, mu, nu) -> int:
    """Multiplicity of chi_mu x chi_nu in chi_lam restricted to S_|mu| x S_|nu|."""
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    nu = normalize_partition(nu)
    a, b = sum(mu), sum(nu)
    if sum(lam) != a + b:
        raise ValueError("sizes must satisfy |lam| = |mu| + |nu|")
    total = 0
    for rho in partitions(a):
        weight = cycle_class_size(rho) * character(mu, rho)
        for tau in partitions(b):
            total += (weight * cycle_class_size(tau) * character(nu, tau)
                      * character(lam, rho + tau))
    return _multiplicity(total, math.factorial(a) * math.factorial(b))
