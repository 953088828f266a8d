import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tenspect.partitions import (character, cycle_class_size, irrep_dimension,
                                 kronecker_coefficient, lr_coefficient,
                                 partition_entropy, partitions)


def test_partitions_enumeration():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    counts = [len(list(partitions(n))) for n in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]


def test_class_sizes_sum_to_factorial():
    for n in range(1, 8):
        assert sum(cycle_class_size(mu) for mu in partitions(n)) == math.factorial(n)


def test_character_small_tables():
    # S3: classes (3), (2,1), (1,1,1)
    assert [character((3,), mu) for mu in partitions(3)] == [1, 1, 1]
    assert [character((2, 1), mu) for mu in partitions(3)] == [-1, 0, 2]
    assert [character((1, 1, 1), mu) for mu in partitions(3)] == [1, -1, 1]
    # spot values in S4
    assert character((2, 2), (2, 1, 1)) == 0
    assert character((3, 1), (2, 2)) == -1
    assert character((2, 1, 1), (4,)) == 1


def test_character_orthogonality():
    for n in (4, 5, 6):
        lams = list(partitions(n))
        for a in lams:
            for b in lams:
                inner = sum(cycle_class_size(mu) * character(a, mu) * character(b, mu)
                            for mu in partitions(n))
                assert inner == (math.factorial(n) if a == b else 0)


def test_dimension_consistency():
    # hook-length formula values for the partitions of 6, in enumeration order
    assert [irrep_dimension(lam) for lam in partitions(6)] \
        == [1, 5, 9, 10, 5, 16, 10, 5, 9, 5, 1]
    for n in range(1, 8):
        for lam in partitions(n):
            assert irrep_dimension(lam) == character(lam, (1,) * n)
        assert sum(irrep_dimension(lam) ** 2 for lam in partitions(n)) \
            == math.factorial(n)


def test_conjugate_partition():
    # chi of the conjugate is chi times the sign; (2, 1, 1) is odd
    assert character((3, 1), (2, 1, 1)) == -character((2, 1, 1), (2, 1, 1))


def test_kronecker_known_values():
    assert kronecker_coefficient((4,), (4,), (4,)) == 1
    assert kronecker_coefficient((2, 1), (2, 1), (2, 1)) == 1
    assert kronecker_coefficient((3,), (2, 1), (2, 1)) == 1
    assert kronecker_coefficient((3,), (3,), (2, 1)) == 0
    assert kronecker_coefficient((1, 1), (1, 1), (2,)) == 1
    with pytest.raises(ValueError):
        kronecker_coefficient((2,), (1,), (2,))


def test_kronecker_symmetry():
    import itertools
    for lam, mu, nu in [((3, 1), (2, 2), (2, 1, 1)), ((2, 2), (2, 1, 1), (2, 2))]:
        vals = {kronecker_coefficient(*perm)
                for perm in itertools.permutations((lam, mu, nu))}
        assert len(vals) == 1


def test_lr_known_values():
    assert lr_coefficient((2, 1), (2,), (1,)) == 1
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    assert lr_coefficient((4, 2), (2, 1), (2, 1)) == 1
    assert lr_coefficient((2, 2, 2), (2, 1), (2, 1)) == 1
    assert lr_coefficient((6,), (2, 1), (2, 1)) == 0
    with pytest.raises(ValueError):
        lr_coefficient((3,), (2,), (2,))


def test_lr_pieri_rule():
    # adding a row of r boxes: multiplicity one exactly for horizontal strips
    mu = (3, 1)
    for lam in partitions(6):
        c = lr_coefficient(lam, mu, (2,))
        rows = max(len(lam), len(mu)) + 1
        lam_full = lam + (0,) * (rows - len(lam))
        mu_full = mu + (0,) * (rows - len(mu))
        contains = all(lam_full[i] >= mu_full[i] for i in range(rows))
        horizontal = contains and all(lam_full[i + 1] <= mu_full[i]
                                      for i in range(rows - 1))
        assert c == (1 if horizontal else 0)


def test_lr_dimension_sum_rule_exhaustive():
    # restriction of the induced product representation preserves dimensions
    from math import comb
    for n in range(2, 7):
        for a in range(1, n):
            for mu in partitions(a):
                for nu in partitions(n - a):
                    total = sum(lr_coefficient(lam, mu, nu) * irrep_dimension(lam)
                                for lam in partitions(n))
                    assert total == (irrep_dimension(mu) * irrep_dimension(nu)
                                     * comb(n, a)), (mu, nu)


def test_kronecker_dimension_sum_rule_exhaustive():
    # decomposing the tensor product of two irreducibles preserves dimensions
    for n in range(2, 7):
        lams = list(partitions(n))
        for lam in lams:
            for mu in lams:
                total = sum(kronecker_coefficient(lam, mu, nu) * irrep_dimension(nu)
                            for nu in lams)
                assert total == irrep_dimension(lam) * irrep_dimension(mu), (lam, mu)


def test_kronecker_trivial_factor_reduces_to_delta():
    # tensoring with the trivial representation changes nothing
    for n in range(2, 7):
        lams = list(partitions(n))
        for lam in lams:
            for mu in lams:
                g = kronecker_coefficient(lam, (n,), mu)
                assert g == (1 if lam == mu else 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6))
def test_partition_entropy_bounds(n):
    for lam in partitions(n):
        h = partition_entropy(lam)
        assert -1e-12 <= h <= math.log2(len(lam)) + 1e-12
