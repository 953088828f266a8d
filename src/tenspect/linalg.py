"""Small exact linear algebra over the rationals and prime fields.

Everything works on lists of lists (rows) holding `Fraction`s or reduced
ints mod p.  Sizes here are tiny, so one plain Gauss-Jordan elimination
serves ranks, nullspaces, inverses and the row reductions of the basis
search's sparsifier over both fields.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _as_rows(mat) -> list[list]:
    arr = np.asarray(mat, dtype=object)
    if arr.ndim != 2:
        raise ValueError("expected a matrix")
    return [list(row) for row in arr]


def _rref(mat, p: int | None = None, ncols: int | None = None
          ) -> tuple[list[list], list[int]]:
    """Gauss-Jordan elimination over Q (``p is None``, `Fraction` entries)
    or over F_p (ints in [0, p)), pivoting on the first `ncols` columns
    (all of them by default).

    Pivot rows are not scaled: every other row is zero in a pivot column,
    and the pivot entry stays as found.  Returns (rows, pivot column list).
    """
    if p is None:
        rows = [[Fraction(x) for x in row] for row in _as_rows(mat)]
    else:
        rows = [[int(x) % p for x in row] for row in _as_rows(mat)]
    nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c] if p is None else pow(rows[r][c], p - 2, p)
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                if p is not None:
                    rows[i] = [x % p for x in rows[i]]
        pivots.append(c)
        r += 1
    return rows, pivots


def rank_fraction(mat) -> int:
    return len(_rref(mat)[1])


def rank_mod_p(mat, p: int) -> int:
    return len(_rref(mat, p)[1])


def rank_complex(mat, rel_tol: float = 1e-9) -> int:
    """Numerical rank: singular values above rel_tol times the largest."""
    arr = np.asarray(mat, dtype=complex)
    if arr.size == 0:
        return 0
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


def nullspace_fraction(mat) -> list[list[Fraction]]:
    """Basis of the right nullspace over Q (list of vectors)."""
    arr = np.asarray(mat, dtype=object)
    nrows, ncols = arr.shape if arr.ndim == 2 else (0, 0)
    if nrows == 0:
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    rows, pivots = _rref(arr)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc] / rows[r][pc]
        basis.append(v)
    return basis


def row_reduce(mat, p: int | None = None) -> tuple[list[list], list[list], list[int]]:
    """Eliminate [A | I] on A's columns: returns (U A, U, pivots) with U
    invertible and U A in unscaled reduced echelon form."""
    rows = _as_rows(mat)
    n, ncols = len(rows), len(rows[0]) if rows else 0
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    red, pivots = _rref(aug, p, ncols)
    return [row[:ncols] for row in red], [row[ncols:] for row in red], pivots


def _invert(mat, p: int | None = None) -> np.ndarray:
    # U A is diagonal when A is invertible, so A^-1 is U with each row
    # divided by its pivot
    rows = _as_rows(mat)
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ValueError("expected a square matrix")
    red, u, pivots = row_reduce(rows, p)
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    out = np.empty((n, n), dtype=object)
    if p is None:
        out[:] = [[x / red[r][r] for x in row] for r, row in enumerate(u)]
    else:
        out[:] = [[x * pow(red[r][r], p - 2, p) % p for x in row]
                  for r, row in enumerate(u)]
    return out


def invert_fraction(mat) -> np.ndarray:
    return _invert(mat)


def invert_mod_p(mat, p: int) -> np.ndarray:
    return _invert(mat, p)


def clear_denominators(vec: list[Fraction]) -> list[int]:
    """Scale a rational vector to a primitive integer vector."""
    from math import gcd, lcm

    fracs = [Fraction(x) for x in vec]
    denom = lcm(*[f.denominator for f in fracs]) if fracs else 1
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return ints
