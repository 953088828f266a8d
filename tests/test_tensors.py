import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenspect as ts
from tenspect import linalg
from tenspect.tensors import (BasisTuple, as_matrix, binomial_basis_matrix,
                              identity_matrix, invert_matrix)

from conftest import random_exact_tensor


def test_tensor_validation():
    with pytest.raises(ValueError):
        ts.Tensor((), ts.RATIONAL, [])
    with pytest.raises(ValueError):
        ts.Tensor((0, 2), ts.RATIONAL, [])
    with pytest.raises(ValueError):
        ts.Domain("Fp", 4)
    t = ts.unit(2)
    with pytest.raises(AttributeError):
        t.dims = (1,)


def test_prime_field_entries_reduced():
    t = ts.from_nonzeros((2, 2), ts.prime_field(5), {(0, 0): 7, (1, 1): -1})
    assert t[0, 0] == 2
    assert t[1, 1] == 4


def test_prime_field_coercion_is_a_field_map():
    f5 = ts.prime_field(5)
    assert f5.coerce(Fraction(1, 2)) == 3
    assert f5.coerce(Fraction(-3, 4)) == 3
    assert f5.coerce(4.0) == 4
    for bad in (2.7, Fraction(1, 5)):
        with pytest.raises(ValueError):
            f5.coerce(bad)
    # every way into F_p follows the same rule
    half = {(0, 0): Fraction(1, 2)}
    assert ts.from_nonzeros((1, 1), f5, half)[0, 0] == 3
    assert ts.Tensor((1,), f5, [Fraction(1, 2)])[0] == 3
    assert as_matrix([[Fraction(1, 2)]], f5)[0, 0] == 3
    assert ts.convert(ts.from_nonzeros((1, 1), ts.RATIONAL, half), f5)[0, 0] == 3
    with pytest.raises(ValueError):
        ts.from_nonzeros((1, 1), f5, {(0, 0): 2.7})
    with pytest.raises(ValueError):
        BasisTuple.make([[[2.5]]], f5)


def test_rational_coercion_keeps_every_float():
    # a float maps to a small fraction only where that is the same float
    assert ts.RATIONAL.coerce(0.1) == Fraction(1, 10)
    assert ts.RATIONAL.coerce(1 / 3) == Fraction(1, 3)
    # otherwise exactly: the nearest fractions of denominator <= 10^12 are
    # 0, 0 and 1/666666666667
    for tiny in (1e-13, 3e-13, 1.5e-12):
        assert ts.RATIONAL.coerce(tiny) == Fraction(tiny)
    t = ts.Tensor((2, 2), ts.RATIONAL, np.array([[1.0, 1e-13], [0.0, 0.5]]))
    assert t[0, 1] == Fraction(1e-13) and t[1, 1] == Fraction(1, 2)
    assert ts.SupportSet.from_tensor(t).points == ((0, 0), (0, 1), (1, 1))


def test_unit_product_multiset():
    prod = ts.tensor_product(ts.unit(2), ts.unit(3))
    assert prod.dims == (6, 6, 6)
    assert [prod.entries[i] for i in prod.nonzero_indices()] == [1] * 6


def test_product_with_trivial_unit():
    w = ts.w_tensor()
    prod = ts.tensor_product(w, ts.unit(1))
    assert prod.dims == w.dims
    assert prod.nonzero_indices() == w.nonzero_indices()


def test_rank_one_triple_product_is_matmul():
    n = 2
    t1 = ts.from_nonzeros((n, n, 1), ts.RATIONAL, {(i, i, 0): 1 for i in range(n)})
    t2 = ts.from_nonzeros((n, 1, n), ts.RATIONAL, {(i, 0, i): 1 for i in range(n)})
    t3 = ts.from_nonzeros((1, n, n), ts.RATIONAL, {(0, i, i): 1 for i in range(n)})
    prod = ts.tensor_product(ts.tensor_product(t1, t2), t3)
    mm = ts.matmul(n, n, n)
    assert prod.dims == mm.dims
    assert (sorted(prod.entries[i] for i in prod.nonzero_indices())
            == sorted(mm.entries[i] for i in mm.nonzero_indices()))
    assert ts.gauge_points(prod) == ts.gauge_points(mm)
    # support {(ij, il, jl)} matches matmul's {(ij, jl, li)} after leg swap
    swapped = {(p[0], p[2], p[1]) for p in prod.nonzero_indices()}
    relabeled = {(i * n + j, j * n + l, i * n + l)
                 for i in range(n) for j in range(n) for l in range(n)}
    assert swapped == relabeled


def test_direct_sum_blocks():
    s = ts.direct_sum(ts.unit(2), ts.unit(3))
    assert s.dims == (5, 5, 5)
    assert s.nonzero_indices() == ts.unit(5).nonzero_indices()
    ww = ts.direct_sum(ts.w_tensor(), ts.w_tensor())
    assert ww.dims == (4, 4, 4)
    assert len(ww.nonzero_indices()) == 6


def test_direct_sum_order_mismatch():
    with pytest.raises(ValueError):
        ts.direct_sum(ts.unit(2, k=3), ts.unit(2, k=2))
    with pytest.raises(ValueError):
        ts.tensor_product(ts.unit(2), ts.convert(ts.unit(2), ts.COMPLEXFLOAT))


def test_restrict_identity():
    w = ts.w_tensor()
    maps = [identity_matrix(d, ts.RATIONAL) for d in w.dims]
    assert ts.restrict(w, maps).nonzero_indices() == w.nonzero_indices()


def test_restrict_projector_truncates_unit():
    p = [[1, 0, 0], [0, 1, 0]]
    r = ts.restrict(ts.unit(3), [p, p, p])
    assert r.dims == (2, 2, 2)
    assert r.nonzero_indices() == ts.unit(2).nonzero_indices()


def test_restrict_shape_mismatch():
    with pytest.raises(ValueError):
        ts.restrict(ts.unit(3), [[[1, 0], [0, 1]]] * 3)


def test_capset_binomial_transform_gives_tight_support():
    # shift leg 3 cyclically, then change to the binomial basis: the support
    # becomes exactly the triples summing to m-1
    m = p = 3
    t = ts.cap_set_tensor(m, p)
    dom = ts.prime_field(p)
    identity = identity_matrix(m, dom)
    shift = [[int(c == (z + 1) % m) for c in range(m)] for z in range(m)]
    shifted = ts.restrict(t, [identity, identity, shift])
    b = binomial_basis_matrix(m, p)
    b_inv = invert_matrix(b, dom)
    coeff = ts.restrict(shifted, [b_inv, b_inv, b_inv])
    supp = ts.SupportSet.from_tensor(coeff)
    expected = {pt for pt in np.ndindex(m, m, m) if sum(pt) == m - 1}
    assert set(supp.points) == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_restrict_composition(seed):
    rng = np.random.default_rng(seed)
    t = random_exact_tensor(rng)
    mats_a = [as_matrix(rng.integers(-2, 3, size=(d, d)), ts.RATIONAL) for d in t.dims]
    mats_b = [as_matrix(rng.integers(-2, 3, size=(d, d)), ts.RATIONAL) for d in t.dims]
    lhs = ts.restrict(ts.restrict(t, mats_a), mats_b)
    prods = [np.tensordot(b, a, axes=(1, 0)) for a, b in zip(mats_a, mats_b)]
    rhs = ts.restrict(t, prods)
    assert np.array_equal(lhs.entries, rhs.entries)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_product_and_sum_associative(seed):
    rng = np.random.default_rng(seed)
    a = random_exact_tensor(rng, max_dim=2)
    b = random_exact_tensor(rng, max_dim=2)
    c = random_exact_tensor(rng, max_dim=2)
    lhs = ts.tensor_product(ts.tensor_product(a, b), c)
    rhs = ts.tensor_product(a, ts.tensor_product(b, c))
    assert np.array_equal(lhs.entries, rhs.entries)
    lhs = ts.direct_sum(ts.direct_sum(a, b), c)
    rhs = ts.direct_sum(a, ts.direct_sum(b, c))
    assert np.array_equal(lhs.entries, rhs.entries)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_flattening_rank_complement_symmetry(seed):
    rng = np.random.default_rng(seed)
    t = random_exact_tensor(rng)
    for legs in [(0,), (1,), (2,), (0, 1), (0, 2)]:
        comp = tuple(i for i in range(3) if i not in legs)
        assert ts.flattening_rank(t, legs) == ts.flattening_rank(t, comp)


def test_flattening_rank_known_values():
    assert ts.flattening_rank(ts.unit(4), (0,)) == 4
    assert ts.flattening_rank(ts.unit(4), (1, 2)) == 4
    a, b, c = 2, 3, 2
    assert ts.flattening_rank(ts.matmul(a, b, c), (0,)) == a * b
    assert ts.flattening_rank(ts.w_tensor(), (0,)) == 2
    with pytest.raises(ValueError):
        ts.flattening_rank(ts.unit(2), ())
    with pytest.raises(ValueError):
        ts.flattening_rank(ts.unit(2), (0, 1, 2))


def test_complex_flattening_rank_thresholded(rng):
    arr = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    t = ts.Tensor((3, 3, 3), ts.COMPLEXFLOAT, arr)
    assert ts.flattening_rank(t, (0,)) == 3
    tiny = ts.Tensor((2, 2, 2), ts.COMPLEXFLOAT,
                     np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1e-13]]]))
    assert ts.flattening_rank(tiny, (0,)) == 1


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_prime_field_matches_bigint_oracle(seed):
    # F_p arithmetic agrees with plain big-integer arithmetic reduced mod p
    rng = np.random.default_rng(seed)
    p = 7
    a = random_exact_tensor(rng, domain=ts.prime_field(p), max_dim=2)
    b = random_exact_tensor(rng, domain=ts.prime_field(p), max_dim=2)
    prod = ts.tensor_product(a, b)
    a_int = np.vectorize(int, otypes=[object])(a.entries)
    b_int = np.vectorize(int, otypes=[object])(b.entries)
    outer = np.multiply.outer(a_int, b_int)
    k = 3
    perm = [ax for i in range(k) for ax in (i, k + i)]
    oracle = outer.transpose(perm).reshape(prod.dims) % p
    assert np.array_equal(prod.entries, oracle)
    mats = [rng.integers(0, p, size=(d, d)) for d in a.dims]
    r = ts.restrict(a, mats)
    oracle_r = a_int
    for leg, mat in enumerate(mats):
        oracle_r = np.moveaxis(
            np.tensordot(np.vectorize(int, otypes=[object])(mat), oracle_r,
                         axes=(1, leg)), 0, leg)
    assert np.array_equal(r.entries, oracle_r % p)


def test_family_constructors():
    assert ts.unit(3).nonzero_indices() == [(i, i, i) for i in range(3)]
    w = ts.dicke((2, 1))
    assert w.nonzero_indices() == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    cw2 = ts.cw(2)
    assert cw2.dims == (3, 3, 3)
    assert len(cw2.nonzero_indices()) == 6
    pm = ts.poly_mult_mod(3)
    assert set(pm.nonzero_indices()) == {(a, b, a + b)
                                         for a in range(3) for b in range(3)
                                         if a + b < 3}
    cs = ts.cap_set_tensor(3, 3)
    assert all(sum(idx) % 3 == 0 for idx in cs.nonzero_indices())
    assert cs.domain == ts.prime_field(3)
    with pytest.raises(ValueError):
        ts.cw(0)
    with pytest.raises(ValueError):
        ts.dicke((1, 2))


def test_build_family_and_parse():
    spec = ts.parse_family("dicke:2,1")
    assert ts.build_family(spec).nonzero_indices() == ts.w_tensor().nonzero_indices()
    assert ts.parse_family("W") == ts.FamilySpec("dicke", (2, 1))
    assert ts.build_family(ts.parse_family("unit:2,4")).dims == (2,) * 4
    with pytest.raises(ValueError):
        ts.parse_family("frobnicate:1")
    with pytest.raises(ValueError):
        ts.build_family(ts.FamilySpec("capset", (4, 4)))  # modulus must be prime
    # power-of-p is only required by the bound pipeline, not the tensor
    ts.build_family(ts.FamilySpec("capset", (4, 2)))


@pytest.mark.parametrize("spec, takes", [
    ("unit:2,3,4", "1 or 2"), ("matmul:1,1", "3"), ("cw:1,2", "1"), ("capset:3", "2"),
    ("polymul:2,2", "1"), ("matmul:1,1,1,1", "3"),
])
def test_build_family_checks_the_parameter_count(spec, takes):
    kind, _, params = spec.partition(":")
    message = f"family '{kind}' takes {takes} parameter(s), got {len(params.split(','))}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ts.build_family(ts.parse_family(spec))


def test_io_roundtrip_rational_and_fp(rng):
    t = ts.from_nonzeros((2, 3), ts.RATIONAL, {(0, 1): Fraction(3, 7),
                                               (1, 2): Fraction(-2, 5)})
    back = ts.loads_tensor(ts.dumps_tensor(t))
    assert np.array_equal(back.entries, t.entries)
    f = ts.from_nonzeros((2, 2), ts.prime_field(5), {(0, 0): 3})
    back = ts.loads_tensor(ts.dumps_tensor(f))
    assert back.domain == ts.prime_field(5)
    assert np.array_equal(back.entries, f.entries)


def test_io_roundtrip_complex(rng):
    arr = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    t = ts.Tensor((2, 2, 2), ts.COMPLEXFLOAT, arr)
    back = ts.loads_tensor(ts.dumps_tensor(t))
    assert np.allclose(back.entries, t.entries, atol=1e-15)


def test_io_rejects_bad_files():
    with pytest.raises(ValueError):
        ts.loads_tensor("")
    with pytest.raises(ValueError):
        ts.loads_tensor("2 2 2 Q\n0 5 1/1\n")
    with pytest.raises(ValueError):
        ts.loads_tensor("2 2 2 Zp\n")


def test_io_rejects_repeated_index():
    with pytest.raises(ValueError, match="repeated index"):
        ts.loads_tensor("3 1 1 1 Q\n0 0 0 1/1\n0 0 0 5/1\n")


def test_basis_tuple_validation(rng):
    t = ts.unit(2)
    with pytest.raises(ts.SingularBasisError):
        BasisTuple.make([[[1, 1], [1, 1]], identity_matrix(2, ts.RATIONAL),
                         identity_matrix(2, ts.RATIONAL)], ts.RATIONAL)
    # condition number 1e13 over C, and singular over F_5 (det 1*3 - 2*4 = 0 mod 5)
    with pytest.raises(ts.SingularBasisError):
        BasisTuple.make([np.diag([1.0, 1e-13]), np.eye(2), np.eye(2)], ts.COMPLEXFLOAT)
    f5 = ts.prime_field(5)
    with pytest.raises(ts.SingularBasisError):
        BasisTuple.make([[[1, 2], [4, 3]], identity_matrix(2, f5), identity_matrix(2, f5)], f5)
    basis = BasisTuple.make([[[1, 1], [0, 1]]] * 3, ts.RATIONAL)
    coeff = ts.coefficients_in_basis(t, basis)
    rebuilt = ts.restrict(coeff, basis.matrices)
    assert np.array_equal(rebuilt.entries, t.entries)


def test_convert_between_domains():
    w = ts.w_tensor()
    wc = ts.convert(w, ts.COMPLEXFLOAT)
    assert wc.domain == ts.COMPLEXFLOAT
    wf = ts.convert(w, ts.prime_field(3))
    assert wf[0, 0, 1] == 1
    with pytest.raises(ValueError):
        ts.convert(wc, ts.RATIONAL)


def test_field_rules_are_not_parameters():
    # the zero tolerance, rank cutoff, singularity test and max_H_theta's
    # convergence tolerance are fixed rules, not a caller's choice
    knobs = {"tol", "rel_tol", "require_injective", "max_points"}
    found = []
    for module in (ts, linalg):
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                            if not attr.startswith("_")]
            for label, fn in members:
                fn = getattr(fn, "__func__", fn)
                if not inspect.isfunction(fn) or not fn.__module__.startswith("tenspect"):
                    continue
                found += [f"{label}({p})" for p in inspect.signature(fn).parameters
                          if p in knobs]
    assert found == []


def _random_rational_matrix(rng):
    """Small rational matrix with zero rows, repeated rows and rows that are
    combinations of others mixed in, so that many are rank deficient."""
    nrows, ncols = int(rng.integers(1, 6)), int(rng.integers(1, 7))
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append([Fraction(0)] * ncols)
        elif kind < 0.3 and rows:
            rows.append(list(rows[int(rng.integers(len(rows)))]))
        elif kind < 0.45 and len(rows) >= 2:
            a, b = (rows[int(i)] for i in rng.integers(len(rows), size=2))
            c = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append([Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
                         if rng.random() < 0.6 else Fraction(0) for _ in range(ncols)])
    return np.array(rows, dtype=object)


def test_nullspace_fraction_is_the_reduced_echelon_basis():
    rng = np.random.default_rng(7)
    for _ in range(250):
        mat = _random_rational_matrix(rng)
        ncols = mat.shape[1]
        ints, den = linalg.nullspace_fraction(mat)
        assert all(type(x) is int for v in ints for x in v) and type(den) is int
        # den is the least common denominator of the basis over Q
        assert den >= 1 and math.gcd(den, *(x for v in ints for x in v)) == 1
        basis = [[Fraction(x, den) for x in v] for v in ints]
        rank = linalg.matrix_rank(mat, ts.RATIONAL)
        assert len(basis) == ncols - rank
        # a column is free exactly when it does not raise the prefix rank
        prefix = [0] + [linalg.matrix_rank(mat[:, :c + 1], ts.RATIONAL)
                        for c in range(ncols)]
        free = [c for c in range(ncols) if prefix[c + 1] == prefix[c]]
        assert len(free) == len(basis)
        for fc, v in zip(free, basis):
            assert all(isinstance(x, Fraction) for x in v)
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in mat)
            assert [v[c] for c in free] == [int(c == fc) for c in free]


def test_nullspace_fraction_shape_cases():
    # no rows: every column is free, the identity basis over den 1; no
    # columns: the empty basis
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.nullspace_fraction(np.empty((0, 3), dtype=object)) == (identity, 1)
    assert linalg.nullspace_fraction(np.empty((2, 0), dtype=object)) == ([], 1)
    assert linalg.nullspace_fraction([[], []]) == ([], 1)
    # 2 x + 3 y = 0: the basis (-3/2, 1), over den 2
    assert linalg.nullspace_fraction([[2, 3]]) == ([[-3, 2]], 2)
    assert linalg.nullspace_fraction([[Fraction(1, 2), Fraction(3, 4)]]) == ([[-3, 2]], 2)
