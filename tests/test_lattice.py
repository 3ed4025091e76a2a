import random

import pytest
from hypothesis import given, settings, strategies as st

from toricctl.lattice import (
    det,
    det_adjugate3,
    hermite_normal_form,
    identity,
    is_primitive,
    mat_mul,
    matrix,
    smith_normal_form,
    unimodular_solve,
    xgcd,
)
from tests.oracles import (
    adj3,
    det3,
    fraction_solve,
    is_row_hnf,
    random_matrix,
    random_unimodular,
)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
V = (-1, -2, -3)


def columns(*cols):
    return tuple(zip(*cols))


entries = st.integers(-20, 20)


def matrices(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda m: tuple(tuple(r) for r in m))


# -- determinant -------------------------------------------------------------


def test_det_examples():
    assert det(identity(3)) == 1
    assert det(columns(E1, E2, V)) == -3
    assert det(columns(E2, E3, V)) == -1
    assert det(((5,),)) == 5
    assert det(((1, 2), (3, 4))) == -2


def test_det_rejects_non_square():
    with pytest.raises(ValueError):
        det(((1, 2, 3), (4, 5, 6)))


@given(matrices(3, 3), matrices(3, 3))
def test_det_multiplicative(a, b):
    assert det(mat_mul(a, b)) == det(a) * det(b)


# -- closed-form 3x3 kernel and unimodular solver ------------------------------


def singular_matrices():
    """Third row a combination of the first two."""
    return st.tuples(matrices(2, 3), st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda t: t[0] + (tuple(t[1] * x + t[2] * y for x, y in zip(*t[0])),)
    )


@given(st.one_of(matrices(3, 3), singular_matrices()))
def test_det_adjugate3_matches_oracles(m):
    d, adj = det_adjugate3(m)
    assert d == det3(m) == det(m)
    assert adj == adj3(m)


def test_det_adjugate3_rejects_non_3x3():
    for m in (((1, 2), (3, 4)), ((1, 2, 3), (4, 5, 6)), ((1, 2, 3), (4, 5, 6), (7, 8))):
        with pytest.raises(ValueError):
            det_adjugate3(m)


@given(
    matrices(3, 3).filter(lambda m: det(m) != 0),
    st.one_of(matrices(3, 3), st.randoms(use_true_random=False).map(random_unimodular)),
)
def test_unimodular_solve_against_fraction_oracle(source, g0):
    # target g0 is rarely reachable; g0 @ source is reached iff g0 is unimodular
    for target in (g0, mat_mul(g0, source)):
        g = unimodular_solve(source, target)
        exact = fraction_solve(source, target)
        if g is None:
            integral = all(x.denominator == 1 for row in exact for x in row)
            assert not integral or det3(exact) not in (1, -1)
        else:
            assert mat_mul(g, source) == target
            assert det(g) in (1, -1)
            assert g == exact


def test_unimodular_solve_rejects_singular_source():
    with pytest.raises(ValueError):
        unimodular_solve(columns(E1, E2, (1, 1, 0)), identity(3))


def test_xgcd():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rng.randint(-99, 99), rng.randint(-99, 99)
        g, s, t = xgcd(a, b)
        assert g == s * a + t * b
        assert g >= 0
        assert g == __import__("math").gcd(a, b)


# -- Hermite normal form ------------------------------------------------------


def test_hnf_identity():
    h, u = hermite_normal_form(identity(3))
    assert h == identity(3)
    assert u == identity(3)


def test_hnf_already_reduced():
    m = ((2, 0), (0, 3))
    h, u = hermite_normal_form(m)
    assert h == m
    assert u == identity(2)


@given(matrices(3, 3))
def test_hnf_properties_square(m):
    h, u = hermite_normal_form(m)
    assert mat_mul(u, m) == h
    assert det(u) in (1, -1)
    assert is_row_hnf(h)


@given(st.sampled_from([(2, 4), (4, 2), (1, 3), (3, 1)]).flatmap(lambda s: matrices(*s)))
def test_hnf_properties_rectangular(m):
    h, u = hermite_normal_form(m)
    assert mat_mul(u, m) == h
    assert det(u) in (1, -1)
    assert is_row_hnf(h)


# -- Smith normal form --------------------------------------------------------


def _check_snf(m):
    d, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert det(u) in (1, -1)
    assert det(v) in (1, -1)
    size = min(len(m), len(m[0]))
    diag = [d[i][i] for i in range(size)]
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    # zeros trail, chain divides
    assert diag[: len(nonzero)] == nonzero
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return diag


def test_snf_examples():
    assert _check_snf(identity(3)) == [1, 1, 1]
    assert _check_snf(columns(E1, E2, V)) == [1, 1, 3]
    assert _check_snf(columns((2, 0, 0), (0, 2, 0), E3)) == [1, 2, 2]


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

    rng = random.Random(8128)
    for k in range(300):
        m = random_matrix(rng, span=12)
        if k % 3 == 0:  # rank deficient: the last row a combination of the others
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            m = m[:2] + (tuple(s * a + t * b for a, b in zip(*m[:2])),)
        d = smith_normal_form(m)[0]
        expected = sympy_invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)
        assert [d[i][i] for i in range(3)] == [abs(int(x)) for x in expected], m


def test_snf_rank_deficient():
    assert _check_snf(((0, 0), (0, 0))) == [0, 0]
    assert _check_snf(((1, 2, 3), (2, 4, 6), (3, 6, 9)))[1:] == [0, 0]


@given(matrices(3, 3))
@settings(deadline=None)
def test_snf_properties(m):
    _check_snf(m)


@given(st.sampled_from([(2, 4), (4, 3), (1, 3)]).flatmap(lambda s: matrices(*s)))
@settings(deadline=None)
def test_snf_properties_rectangular(m):
    _check_snf(m)


# -- primitivity and misc ------------------------------------------------------


def test_is_primitive():
    assert is_primitive((1, 0, 0))
    assert is_primitive((-1, -2, -3))
    assert not is_primitive((2, 4, 6))
    assert not is_primitive((0, 0, 0))
    assert not is_primitive(())


def test_matrix_validation():
    with pytest.raises(ValueError):
        matrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        matrix(((1, 2.5),))


def test_acceptance_style_bulk_roundtrip():
    rng = random.Random(20260808)
    for _ in range(100):
        m = random_matrix(rng)
        h, u = hermite_normal_form(m)
        assert mat_mul(u, m) == h and det(u) in (1, -1) and is_row_hnf(h)
        _check_snf(m)
