"""Scalar fields and the one elimination over them.

A `Domain` is the field of a tensor's entries: exact rationals (`Fraction`
object arrays), a prime field F_p (object arrays of ints in [0, p)), or
complex floats (complex128 arrays).  Every rule that depends on the field
(coercion, reduction mod p, division, the zero test, the choice of pivot
and `Domain.integral`, which writes an array as integer numerators over one
common denominator) is a method of `Domain`, so the rest of the library is
written once for all three fields.  The exact basis search keeps its
coefficients as those integers, so its row operations are integer ones.
The complex zero tolerance (`COMPLEX_ZERO_TOL`), the complex rank cutoff
(`RANK_REL_TOL`) and the singularity test of
`tenspect.tensors.invert_matrix` are field rules with fixed values, not
options.

Sizes here are tiny, so one plain Gauss-Jordan elimination, `_rref`, serves
ranks, inverses and the row reductions of the basis search's sparsifier
over Q, F_p and C.  It runs on numpy arrays in every field, so its complex
arithmetic is numpy's.  The rational nullspace is the one exception: it
eliminates fraction free, on rows of Python ints, and returns its basis as
integer vectors over one common denominator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

#: absolute tolerance for treating a complex entry as zero
COMPLEX_ZERO_TOL = 1e-10

#: relative singular value cutoff for numerical ranks
RANK_REL_TOL = 1e-9


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Domain:
    """Scalar domain tag: exact rationals, complex floats, or F_p."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Q", "C", "Fp"):
            raise ValueError(f"unknown scalar domain {self.kind!r}")
        if self.kind == "Fp":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"modulus must be prime, got {self.p!r}")
        elif self.p is not None:
            raise ValueError("modulus only applies to prime fields")

    @property
    def exact(self) -> bool:
        return self.kind != "C"

    @property
    def label(self) -> str:
        return self.kind if self.kind != "Fp" else f"Fp:{self.p}"

    def coerce(self, value):
        """One scalar of the domain.  Over Q a float is exact unless a fraction
        of denominator <= 10^12 is the same float (0.1 is 1/10).  Over F_p a
        rational a/b maps to a * b^-1 mod p; a denominator divisible by p, or
        a float that is not an integer, raises `ValueError`."""
        if self.kind == "Q":
            if isinstance(value, Fraction):
                return value
            if isinstance(value, float):
                near = Fraction(value).limit_denominator(10**12)
                return near if float(near) == value else Fraction(value)
            return Fraction(value)
        if self.kind == "C":
            return complex(value)
        if type(value) is int:      # the common case; other integers go via Fraction
            return value % self.p
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{value!r} is not an element of F_{self.p}")
        f = Fraction(value)
        if f.denominator % self.p == 0:
            raise ValueError(f"denominator of {value} is not invertible mod {self.p}")
        return f.numerator * pow(f.denominator, -1, self.p) % self.p

    def array(self, values) -> np.ndarray:
        """A fresh array of the domain's scalars with the shape of `values`."""
        if self.kind == "C":
            return np.array(values, dtype=complex)
        return np.frompyfunc(self.coerce, 1, 1)(np.asarray(values, dtype=object))

    def integral(self, arr) -> tuple[np.ndarray, int]:
        """(ints, den) with arr = ints / den.  Over Q, ints holds Python ints
        (an object array) and den is the lcm of the entries' denominators;
        over F_p and C the array comes back unchanged, with den = 1."""
        if self.kind != "Q":
            return arr, 1
        arr = np.asarray(arr, dtype=object)
        den = lcm(*(x.denominator for x in arr.flat))
        return np.frompyfunc(lambda x: x.numerator * (den // x.denominator), 1, 1)(arr), den

    def reduce(self, arr):
        """Entries reduced mod p over F_p; unchanged otherwise."""
        return arr % self.p if self.kind == "Fp" else arr

    def div(self, a, b):
        """a / b for a scalar b != 0 (a may be an array)."""
        if self.kind == "Fp":
            return a * pow(b, -1, self.p) % self.p
        return a / b

    def is_zero(self, value):
        """Zero test, elementwise on arrays: |x| <= COMPLEX_ZERO_TOL over C,
        x == 0 over the exact fields."""
        if self.kind == "C":
            return abs(value) <= COMPLEX_ZERO_TOL
        return value == 0

    def pivot(self, column: np.ndarray) -> int | None:
        """Position of the pivot in a nonempty column: the largest |x| over
        C, the first nonzero entry over Q and F_p; None if all are zero."""
        if self.kind == "C":
            i = int(np.argmax(np.abs(column)))
            return None if self.is_zero(column[i]) else i
        return next((i for i, x in enumerate(column) if x != 0), None)


RATIONAL = Domain("Q")
COMPLEXFLOAT = Domain("C")


def prime_field(p: int) -> Domain:
    return Domain("Fp", p)


def parse_domain(label: str) -> Domain:
    label = label.strip()
    if label == "Q":
        return RATIONAL
    if label == "C":
        return COMPLEXFLOAT
    m = re.fullmatch(r"Fp:(\d+)", label)
    if m:
        return prime_field(int(m.group(1)))
    raise ValueError(f"unknown domain label {label!r}")


def _rref(a: np.ndarray, domain: Domain, ncols: int | None = None) -> list[int]:
    """Gauss-Jordan elimination, in place, of an array over the domain,
    pivoting on the first `ncols` columns (all of them by default).

    Pivot rows are not scaled: every other row is zero in a pivot column,
    and the pivot entry stays as found.  Entries count as zero by
    `domain.is_zero`.  Returns the pivot columns.
    """
    nrows = a.shape[0]
    if ncols is None:
        ncols = a.shape[1]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = domain.pivot(a[r:, c])
        if pivot is None:
            continue
        if pivot:
            a[[r, r + pivot]] = a[[r + pivot, r]]
        for i in range(nrows):
            if i != r and not domain.is_zero(a[i, c]):
                a[i] = domain.reduce(a[i] - domain.div(a[i, c], a[r, c]) * a[r])
        pivots.append(c)
        r += 1
    return pivots


def matrix_rank(mat, domain: Domain) -> int:
    """Exact rank over Q and F_p; over C, the number of singular values
    above RANK_REL_TOL times the largest."""
    if domain.exact:
        return len(_rref(domain.array(mat), domain))
    arr = np.asarray(mat, dtype=complex)
    if arr.size == 0:
        return 0
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_REL_TOL * sv[0]))


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def clear_denominators(vec) -> list[int]:
    """Scale a rational vector (ints or `Fraction`s) to a primitive vector
    of Python ints: times the lcm of its denominators, then divided by the
    gcd of its entries."""
    den = lcm(*[x.denominator for x in vec])
    return _primitive([x.numerator * (den // x.denominator) for x in vec])


def nullspace_fraction(mat) -> tuple[list[list[int]], int]:
    """Basis of the right nullspace over Q as (ints, den): the vectors
    v / den for v in ints, den the least common denominator of their
    entries.  For each free column fc, v[fc] = den, v = 0 at the other free
    columns and v[pc] = -den * a[r, fc] / a[r, pc] at the pivot column pc of
    row r of the reduced echelon form a.  No rows give the identity over 1.

    The elimination is fraction free, on Python ints: each row is cleared of
    denominators, row_i becomes a_rc * row_i - a_ic * row_r, and every new
    row is divided by the gcd of its entries.  A pivot row is then primitive
    and zero off its pivot and the free columns, so den = lcm_r |a[r, pc]|.
    """
    arr = np.asarray(mat, dtype=object)
    if arr.ndim != 2:
        return [], 1
    nrows, ncols = arr.shape
    rows = [clear_denominators(row) for row in arr.tolist()]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow, a = rows[r], rows[r][c]
        for i, row in enumerate(rows):
            b = row[c]
            if b and i != r:
                rows[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
    free = [c for c in range(ncols) if c not in pivots]
    den = lcm(*(row[pc] for row, pc in zip(rows, pivots))) if free else 1
    ints = []
    for fc in free:
        v = [0] * ncols
        v[fc] = den
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc] * (den // row[pc])
        ints.append(v)
    return ints, den


def row_reduce(mat, domain: Domain) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Eliminate [A | I] on A's columns: returns (U A, U, pivots) with U
    invertible and U A in unscaled reduced echelon form."""
    arr = np.asarray(mat)
    if arr.ndim != 2:
        raise ValueError("expected a matrix")
    n, ncols = arr.shape
    aug = domain.array(np.hstack([arr, np.eye(n, dtype=int)]))
    pivots = _rref(aug, domain, ncols)
    return aug[:, :ncols], aug[:, ncols:], pivots


def _invert(mat, domain: Domain) -> np.ndarray:
    # U A is diagonal when A is invertible, so A^-1 is U with each row
    # divided by its pivot
    arr = np.asarray(mat)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError("expected a square matrix")
    n = arr.shape[0]
    red, u, pivots = row_reduce(arr, domain)
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    for r in range(n):
        u[r] = domain.div(u[r], red[r, r])
    return u


def invert_fraction(mat) -> np.ndarray:
    return _invert(mat, RATIONAL)


def invert_mod_p(mat, p: int) -> np.ndarray:
    return _invert(mat, prime_field(p))
