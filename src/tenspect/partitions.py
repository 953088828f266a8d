"""Integer partitions, symmetric group characters, Kronecker and
Littlewood-Richardson coefficients.

Characters use the Murnaghan-Nakayama recursion on beta numbers; Kronecker
coefficients come from the exact character inner product, LR coefficients
from lattice-word tableau enumeration.  All arithmetic is integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class PartitionSeq:
    """Non-increasing positive integer parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(x) for x in self.parts)
        if not parts or any(x < 1 for x in parts):
            raise ValueError("parts must be positive")
        if list(parts) != sorted(parts, reverse=True):
            raise ValueError("parts must be non-increasing")
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def normalized(self) -> tuple[float, ...]:
        n = self.n
        return tuple(x / n for x in self.parts)

    def entropy(self) -> float:
        return float(-sum(q * math.log2(q) for q in self.normalized() if q > 0))


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
    parts = normalize_partition(parts)
    if not parts:
        return 0.0
    return PartitionSeq(parts).entropy()


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
    """Hook length formula."""
    lam = normalize_partition(lam)
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate_partition(lam)
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            denom *= hook
    return math.factorial(n) // denom


def conjugate_partition(lam) -> tuple[int, ...]:
    lam = normalize_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


def kronecker_coefficient(lam, mu, nu) -> int:
    """Multiplicity via the exact character inner product."""
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    nu = normalize_partition(nu)
    n = sum(lam)
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("all three partitions must have the same size")
    total = 0
    for rho in partitions(n):
        total += (cycle_class_size(rho) * character(lam, rho)
                  * character(mu, rho) * character(nu, rho))
    fact = math.factorial(n)
    if total % fact != 0:
        raise ArithmeticError("character inner product is not an integer")
    g = total // fact
    if g < 0:
        raise ArithmeticError("negative multiplicity")
    return g


def lr_coefficient(lam, mu, nu) -> int:
    """Count Littlewood-Richardson skew tableaux of shape lam/mu, content nu."""
    lam = normalize_partition(lam)
    mu = normalize_partition(mu)
    nu = normalize_partition(nu)
    if sum(lam) != sum(mu) + sum(nu):
        raise ValueError("sizes must satisfy |lam| = |mu| + |nu|")
    rows = len(lam)
    mu_full = tuple(mu) + (0,) * (rows - len(mu))
    if len(mu) > rows or any(mu_full[i] > lam[i] for i in range(rows)):
        return 0
    if not nu:
        return 1 if lam == mu else 0

    cells = []
    for i in range(rows):
        for j in range(mu_full[i], lam[i]):
            cells.append((i, j))
    # fill row by row, left to right; the reverse reading word of that order
    # is checked incrementally through running content counts
    fill = {}
    remaining = list(nu)
    nparts = len(nu)
    count = 0

    def ok(i, j, v) -> bool:
        left = fill.get((i, j - 1))
        if j - 1 >= mu_full[i] and left is not None and left > v:
            return False
        up = fill.get((i - 1, j))
        if i > 0 and j < lam[i - 1] and j >= mu_full[i - 1]:
            if up is None or up >= v:
                return False
        return True

    def backtrack(pos, prefix_counts):
        nonlocal count
        if pos == len(cells):
            count += 1
            return
        i, j = cells[pos]
        for v in range(nparts):
            if remaining[v] == 0:
                continue
            if not ok(i, j, v):
                continue
            fill[(i, j)] = v
            remaining[v] -= 1
            backtrack_row_word(pos, i, j, v, prefix_counts)
            remaining[v] += 1
            del fill[(i, j)]

    def backtrack_row_word(pos, i, j, v, prefix_counts):
        # reverse reading word reads each row right to left; since we fill
        # left to right, defer the lattice check of a row until it is full
        row_end = lam[i] - 1
        if j < row_end:
            backtrack(pos + 1, prefix_counts)
            return
        counts = list(prefix_counts)
        for jj in range(row_end, mu_full[i] - 1, -1):
            vv = fill[(i, jj)]
            counts[vv] += 1
            if vv > 0 and counts[vv - 1] < counts[vv]:
                return
        backtrack(pos + 1, counts)

    backtrack(0, [0] * nparts)
    return count
