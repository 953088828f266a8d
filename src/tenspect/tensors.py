"""Dense order-k tensors over exact rationals, complex floats and prime fields.

Tensors are stored densely (instances in this library are tiny), entries are
exact wherever the scalar domain allows it, and every operation returns a
fresh immutable tensor.  The text file format, the named tensor families and
the basic semiring operations (tensor product, direct sum, restriction,
flattenings) all live here.  The scalar fields themselves (`Domain` and its
rules for coercion, reduction, division and zero tests) and the elimination
behind ranks and inverses live in `tenspect.linalg`; this module re-exports
the field names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product
from math import comb, prod

import numpy as np

from . import linalg
from .errors import SingularBasisError
from .linalg import COMPLEXFLOAT, RATIONAL, Domain, matrix_rank, parse_domain, prime_field


class Tensor:
    """Immutable dense tensor of order >= 1."""

    __slots__ = ("dims", "domain", "entries")

    def __init__(self, dims, domain: Domain, entries):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive, got {dims}")
        entries = domain.array(entries).reshape(dims)
        entries.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def k(self) -> int:
        return len(self.dims)

    def __repr__(self):
        nz = len(self.nonzero_indices())
        return f"Tensor(dims={self.dims}, domain={self.domain.label}, nonzeros={nz})"

    def nonzero_indices(self) -> list[tuple[int, ...]]:
        return nonzero_indices(self.entries, self.domain)

    def is_zero(self) -> bool:
        return not self.nonzero_indices()

    def __getitem__(self, idx):
        return self.entries[idx]


def nonzero_indices(entries: np.ndarray, domain: Domain) -> list[tuple[int, ...]]:
    """Indices, in C order, of the entries that `domain.is_zero` rejects."""
    return [tuple(idx) for idx in np.argwhere(~domain.is_zero(entries)).tolist()]


def zeros(dims, domain: Domain) -> Tensor:
    return Tensor(dims, domain, np.zeros(tuple(int(d) for d in dims), dtype=int))


def from_nonzeros(dims, domain: Domain, values: dict) -> Tensor:
    """Build a tensor from a {index tuple: value} mapping."""
    arr = np.zeros(tuple(int(d) for d in dims), dtype=object)
    for idx, val in values.items():
        arr[tuple(idx)] = domain.coerce(val)
    return Tensor(arr.shape, domain, arr)


def convert(t: Tensor, domain: Domain) -> Tensor:
    """Convert between scalar domains where the conversion is well defined:
    every domain maps into C and into Q (F_p by the representatives in
    [0, p)), and Q maps into F_p where p divides no denominator."""
    if domain == t.domain:
        return t
    # C has no exact image, and F_p none in another prime field
    if domain.exact and (t.domain.kind == "C" or t.domain.kind == domain.kind):
        raise ValueError(f"cannot convert {t.domain.label} tensor to {domain.label}")
    return Tensor(t.dims, domain, t.entries)


# ---------------------------------------------------------------------------
# semiring operations


def tensor_product(s: Tensor, t: Tensor) -> Tensor:
    if s.k != t.k:
        raise ValueError(f"order mismatch: {s.k} vs {t.k}")
    if s.domain != t.domain:
        raise ValueError(f"domain mismatch: {s.domain.label} vs {t.domain.label}")
    out = np.multiply.outer(s.entries, t.entries)
    k = s.k
    perm = [ax for i in range(k) for ax in (i, k + i)]
    out = out.transpose(perm)
    dims = tuple(sd * td for sd, td in zip(s.dims, t.dims))
    return Tensor(dims, s.domain, s.domain.reduce(out.reshape(dims)))


def direct_sum(s: Tensor, t: Tensor) -> Tensor:
    if s.k != t.k:
        raise ValueError(f"order mismatch: {s.k} vs {t.k}")
    if s.domain != t.domain:
        raise ValueError(f"domain mismatch: {s.domain.label} vs {t.domain.label}")
    dims = tuple(sd + td for sd, td in zip(s.dims, t.dims))
    out = zeros(dims, s.domain).entries.copy()
    out[tuple(slice(0, d) for d in s.dims)] = s.entries
    out[tuple(slice(sd, sd + td) for sd, td in zip(s.dims, t.dims))] = t.entries
    return Tensor(dims, s.domain, out)


def as_matrix(mat, domain: Domain) -> np.ndarray:
    arr = domain.array(mat)
    if arr.ndim != 2:
        raise ValueError("expected a matrix")
    return arr


def contract_leg(entries: np.ndarray, leg: int, mat: np.ndarray,
                 domain: Domain) -> np.ndarray:
    """Apply the matrix mat, of shape (m, n), to one leg (of size n) of an
    entry array over the domain; the other legs are untouched."""
    return domain.reduce(np.moveaxis(np.tensordot(mat, entries, axes=(1, leg)), 0, leg))


def restrict(t: Tensor, maps) -> Tensor:
    """Contract leg i with maps[i]; maps[i] has shape (m_i, n_i)."""
    if len(maps) != t.k:
        raise ValueError(f"expected {t.k} maps, got {len(maps)}")
    mats = [as_matrix(m, t.domain) for m in maps]
    for i, m in enumerate(mats):
        if m.shape[1] != t.dims[i]:
            raise ValueError(f"map {i} has shape {m.shape}, leg has dim {t.dims[i]}")
    out = t.entries
    for leg, m in enumerate(mats):
        out = contract_leg(out, leg, m, t.domain)
    return Tensor(tuple(m.shape[0] for m in mats), t.domain, out)


def flattening_matrix(t: Tensor, legs) -> np.ndarray:
    legs = sorted(set(int(i) for i in legs))
    if not legs or len(legs) >= t.k or any(i < 0 or i >= t.k for i in legs):
        raise ValueError(f"legs must be a proper nonempty subset of range({t.k})")
    rest = [i for i in range(t.k) if i not in legs]
    arr = t.entries.transpose(legs + rest)
    nrows = prod(t.dims[i] for i in legs)
    return arr.reshape(nrows, -1)


def flattening_rank(t: Tensor, legs) -> int:
    return matrix_rank(flattening_matrix(t, legs), t.domain)


def invert_matrix(mat, domain: Domain) -> np.ndarray:
    """The inverse, or SingularBasisError (over C: sigma_min / sigma_max < 1e-12)."""
    if domain.exact:
        try:
            if domain.p is None:
                return linalg.invert_fraction(mat)
            return linalg.invert_mod_p(mat, domain.p)
        except ZeroDivisionError as exc:
            raise SingularBasisError(str(exc)) from exc
    arr = np.asarray(mat, dtype=complex)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < 1e-12:
        raise SingularBasisError("matrix numerically singular")
    return np.linalg.inv(arr)


def identity_matrix(n: int, domain: Domain) -> np.ndarray:
    """The n x n identity, built from one 0 and one 1 of the domain (the
    exact fields' scalars are immutable, so the entries may be shared)."""
    out = np.full((n, n), domain.coerce(0), dtype=object if domain.exact else complex)
    np.fill_diagonal(out, domain.coerce(1))
    return out


# ---------------------------------------------------------------------------
# basis tuples


@dataclass(frozen=True, eq=False)
class BasisTuple:
    """One invertible square matrix per leg; columns are the basis vectors."""

    matrices: tuple[np.ndarray, ...]
    domain: Domain

    @classmethod
    def standard(cls, t: Tensor) -> "BasisTuple":
        """The standard basis; each identity map is its own inverse."""
        mats = [identity_matrix(d, t.domain) for d in t.dims]
        return cls.from_maps(mats, [m.copy() for m in mats], t.domain)

    @classmethod
    def make(cls, mats, domain: Domain) -> "BasisTuple":
        checked = []
        for m in mats:
            arr = as_matrix(m, domain)
            if arr.shape[0] != arr.shape[1]:
                raise SingularBasisError("basis matrices must be square")
            checked.append(arr)
        basis = cls(tuple(checked), domain)
        basis.inverses()     # the one singularity test; the inverses are kept
        return basis

    @classmethod
    def from_maps(cls, matrices, inverses, domain: Domain) -> "BasisTuple":
        """The basis with the given matrices and their given inverse maps;
        neither is checked."""
        basis = cls(tuple(matrices), domain)
        vars(basis)["_inverses"] = tuple(inverses)     # fills the cached property
        return basis

    @cached_property
    def _inverses(self) -> tuple[np.ndarray, ...]:
        return tuple(invert_matrix(m, self.domain) for m in self.matrices)

    def inverses(self) -> tuple[np.ndarray, ...]:
        """The inverse of each basis matrix, computed once per tuple."""
        return self._inverses


def coefficients_in_basis(t: Tensor, basis: BasisTuple) -> Tensor:
    """Coefficient tensor of t with respect to the given basis tuple."""
    if basis.domain != t.domain:
        raise ValueError("basis domain does not match tensor domain")
    return restrict(t, basis.inverses())


# ---------------------------------------------------------------------------
# named families


@dataclass(frozen=True)
class FamilySpec:
    """Tagged constructor choice for the named tensor families."""

    kind: str            # unit | dicke | cw | matmul | polymul | capset
    params: tuple[int, ...]


def unit(r: int, k: int = 3, domain: Domain = RATIONAL) -> Tensor:
    if r < 1 or k < 1:
        raise ValueError("unit tensor needs r >= 1 and k >= 1")
    vals = {(i,) * k: 1 for i in range(r)}
    return from_nonzeros((r,) * k, domain, vals)


def dicke(parts, domain: Domain = RATIONAL) -> Tensor:
    """Sum of all basis tuples whose index multiset matches the partition."""
    parts = tuple(int(x) for x in parts)
    if not parts or any(x < 1 for x in parts) or list(parts) != sorted(parts, reverse=True):
        raise ValueError("expected a partition with positive non-increasing parts")
    k = sum(parts)
    n = len(parts)
    symbols = [i for i, lam in enumerate(parts) for _ in range(lam)]
    vals = {}
    for idx in set(iter_product(*[range(n)] * k)):
        if sorted(idx) == symbols:
            vals[idx] = 1
    return from_nonzeros((n,) * k, domain, vals)


def w_tensor(domain: Domain = RATIONAL) -> Tensor:
    return dicke((2, 1), domain)


def cw(q: int, domain: Domain = RATIONAL) -> Tensor:
    """Unnormalised rank-(3q) tensor with support {(0,i,i),(i,0,i),(i,i,0)}."""
    if q < 1:
        raise ValueError("q must be >= 1")
    vals = {}
    for i in range(1, q + 1):
        vals[(0, i, i)] = 1
        vals[(i, 0, i)] = 1
        vals[(i, i, 0)] = 1
    return from_nonzeros((q + 1,) * 3, domain, vals)


def matmul(a: int, b: int, c: int, domain: Domain = RATIONAL) -> Tensor:
    if min(a, b, c) < 1:
        raise ValueError("matrix multiplication parameters must be positive")
    vals = {}
    for i in range(a):
        for j in range(b):
            for l in range(c):
                vals[(i * b + j, j * c + l, l * a + i)] = 1
    return from_nonzeros((a * b, b * c, c * a), domain, vals)


def poly_mult_mod(n: int, domain: Domain = RATIONAL) -> Tensor:
    """Structure tensor of truncated polynomial multiplication mod x^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vals = {(a1, a2, a1 + a2): 1
            for a1 in range(n) for a2 in range(n) if a1 + a2 < n}
    return from_nonzeros((n, n, n), domain, vals)


def cap_set_tensor(m: int, p: int) -> Tensor:
    """Indicator of alpha_1 + alpha_2 + alpha_3 = 0 mod m, over F_p."""
    if m < 2:
        raise ValueError("m must be >= 2")
    dom = prime_field(p)
    vals = {}
    for idx in iter_product(range(m), repeat=3):
        if sum(idx) % m == 0:
            vals[idx] = 1
    return from_nonzeros((m, m, m), dom, vals)


#: the parameter counts each family takes; dicke takes any
_FAMILY_PARAM_COUNTS = {"unit": (1, 2), "cw": (1,), "polymul": (1,), "matmul": (3,), "capset": (2,)}


def build_family(spec: FamilySpec, domain: Domain | None = None) -> Tensor:
    kind = spec.kind
    params = spec.params
    counts = _FAMILY_PARAM_COUNTS.get(kind)
    if counts and len(params) not in counts:
        raise ValueError(f"family {kind!r} takes {' or '.join(map(str, counts))} parameter(s), "
                         f"got {len(params)}")
    if kind == "unit":
        r = params[0]
        k = params[1] if len(params) > 1 else 3
        return unit(r, k, domain or RATIONAL)
    if kind == "dicke":
        return dicke(params, domain or RATIONAL)
    if kind == "cw":
        (q,) = params
        return cw(q, domain or RATIONAL)
    if kind == "matmul":
        a, b, c = params
        return matmul(a, b, c, domain or RATIONAL)
    if kind == "polymul":
        (n,) = params
        return poly_mult_mod(n, domain or RATIONAL)
    if kind == "capset":
        m, p = params
        if domain is not None and domain != prime_field(p):
            raise ValueError("cap set tensors live over F_p")
        return cap_set_tensor(m, p)
    raise ValueError(f"unknown family {kind!r}")


def parse_family(text: str) -> FamilySpec:
    """Parse strings like 'unit:3', 'cw:2', 'dicke:2,1', 'W'."""
    text = text.strip()
    if text.lower() == "w":
        return FamilySpec("dicke", (2, 1))
    if ":" not in text:
        raise ValueError(f"cannot parse family {text!r}")
    kind, _, rhs = text.partition(":")
    kind = kind.strip().lower()
    try:
        params = tuple(int(x) for x in rhs.split(","))
    except ValueError as exc:
        raise ValueError(f"bad family parameters in {text!r}") from exc
    aliases = {"unit": "unit", "dicke": "dicke", "cw": "cw", "matmul": "matmul",
               "polymul": "polymul", "capset": "capset", "w": "dicke"}
    if kind not in aliases:
        raise ValueError(f"unknown family {kind!r}")
    return FamilySpec(aliases[kind], params)


# ---------------------------------------------------------------------------
# text format
#
# header: `k d_1 ... d_k domain` with domain in {Q, C, Fp:<p>}; then one line
# `i_1 ... i_k value` per nonzero entry, 0-based indices.


def _format_value(v, domain: Domain) -> str:
    if domain.kind == "Q":
        f = Fraction(v)
        return f"{f.numerator}/{f.denominator}"
    if domain.kind == "Fp":
        return str(int(v))
    re_, im = v.real, v.imag
    return f"{re_:.17g}{im:+.17g}i"


_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$")


def _parse_value(text: str, domain: Domain):
    text = text.strip()
    if domain.kind == "Q":
        return Fraction(text)
    if domain.kind == "Fp":
        return int(text)
    m = _COMPLEX_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse complex value {text!r}")
    return complex(float(m.group("re")), float(m.group("im")))


def dumps_tensor(t: Tensor) -> str:
    lines = [f"{t.k} {' '.join(str(d) for d in t.dims)} {t.domain.label}"]
    for idx in t.nonzero_indices():
        lines.append(f"{' '.join(str(i) for i in idx)} {_format_value(t.entries[idx], t.domain)}")
    return "\n".join(lines) + "\n"


def loads_tensor(text: str) -> Tensor:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ValueError("empty tensor file")
    head = lines[0].split()
    k = int(head[0])
    if len(head) != k + 2:
        raise ValueError("malformed tensor header")
    dims = tuple(int(x) for x in head[1:1 + k])
    domain = parse_domain(head[k + 1])
    vals = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != k + 1:
            raise ValueError(f"malformed entry line {ln!r}")
        idx = tuple(int(x) for x in parts[:k])
        if any(i < 0 or i >= d for i, d in zip(idx, dims)):
            raise ValueError(f"index out of bounds in line {ln!r}")
        if idx in vals:
            raise ValueError(f"repeated index in line {ln!r}")
        vals[idx] = _parse_value(parts[k], domain)
    return from_nonzeros(dims, domain, vals)


def save_tensor(t: Tensor, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_tensor(t))


def load_tensor(path) -> Tensor:
    with open(path, "r", encoding="ascii") as fh:
        return loads_tensor(fh.read())


def binomial_basis_matrix(m: int, p: int) -> np.ndarray:
    """Lower triangular matrix B[x, a] = binom(x, a) mod p."""
    return prime_field(p).array([[comb(x, a) for a in range(m)] for x in range(m)])
