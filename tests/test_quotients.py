import random
import time
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from toricctl import lattice, quotients
from toricctl.cones import make_cone
from toricctl.lattice import mat_mul, mat_vec
from toricctl.quotients import (
    CyclicQuotientType,
    NonCyclicType,
    is_terminal,
    lattice_equivalent,
    normalize_type,
    quotient_type,
    quotient_type_from_adjugate,
    standard_cone,
)
from tests.oracles import (
    adj3,
    det3,
    normalize_type_by_units,
    oracle_quotient,
    quotient_type_by_smith_form,
    random_unimodular,
    random_valid_cone_rays,
    reid_tai_canonical,
    reid_tai_terminal,
)

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
V = (-1, -2, -3)


# -- type construction and normalization ----------------------------------------


def test_type_constructor_reduces_negative_weights():
    t = CyclicQuotientType(3, (1, 1, -1))
    assert t.weights == (1, 1, 2)
    assert str(t) == "1/3(1,1,2)"


def test_type_constructor_rejects_non_effective():
    with pytest.raises(ValueError):
        CyclicQuotientType(4, (2, 2, 0))
    with pytest.raises(ValueError):
        CyclicQuotientType(0, (0, 0, 0))


def test_smooth_type():
    t = CyclicQuotientType(1, (5, -2, 7))
    assert t.weights == (0, 0, 0)
    assert t.is_smooth
    assert str(t) == "smooth"


def test_normalize_examples():
    assert normalize_type(CyclicQuotientType(3, (2, 2, 1))).weights == (1, 1, 2)
    assert normalize_type(CyclicQuotientType(2, (1, 1, 1))).weights == (1, 1, 1)
    assert normalize_type(CyclicQuotientType(5, (2, 2, 1))).weights == (1, 1, 3)


def _random_effective_type(rng):
    while True:
        r = rng.randint(1, 30)
        weights = tuple(rng.randrange(r) for _ in range(3))
        if gcd(*weights, r) == 1:
            return CyclicQuotientType(r, weights)


def test_normalize_idempotent_and_orbit_constant():
    rng = random.Random(4242)
    for _ in range(150):
        t = _random_effective_type(rng)
        n = normalize_type(t)
        assert normalize_type(n) == n
        # invariance under unit rescaling and permutation of weights
        units = [u for u in range(1, t.r) if gcd(u, t.r) == 1] or [1]
        u = rng.choice(units)
        mixed = list((u * a) % t.r for a in t.weights)
        rng.shuffle(mixed)
        assert normalize_type(CyclicQuotientType(t.r, tuple(mixed))) == n


def _gcds_pairwise_coprime_above_one(r, weights):
    """Does 1/r(weights) take the stepped route of ``normalize_type``?"""
    gcds = [gcd(a, r) for a in weights]
    return min(gcds) > 1 and all(gcd(x, y) == 1 for x, y in combinations(gcds, 2))


def test_normalize_and_terminal_match_oracles_for_all_types_up_to_30():
    checked = stepped = 0
    for r in range(1, 31):
        for weights in combinations_with_replacement(range(r), 3):
            if gcd(*weights, r) != 1:
                continue
            checked += 1
            stepped += _gcds_pairwise_coprime_above_one(r, weights)
            t = CyclicQuotientType(r, weights)
            assert normalize_type(t).weights == normalize_type_by_units(r, weights), t
            assert is_terminal(t) == reid_tai_terminal(r, weights), t
    assert checked == 37_067  # effective types with r <= 30, up to permutation
    assert stepped == 64  # e.g. 1/30(2,3,5)


@st.composite
def _gcd_heavy_types(draw):
    """Effective types with r <= 5000 that favour zero weights and weights
    sharing factors with r: the weights are drawn as multiples of 0, 1, p, q,
    s, pq, qs or ps, and r is often pqs.  Dividing out gcd(weights, r) keeps
    the action effective."""
    p, q, s = (draw(st.integers(1, 17)) for _ in range(3))
    r = p * q * s if draw(st.booleans()) else draw(st.integers(1, 5000))
    factors = (0, 1, p, q, s, p * q, q * s, p * s)
    weights = tuple(
        draw(st.sampled_from(factors)) * draw(st.integers(1, r)) % r for _ in range(3)
    )
    d = gcd(*weights, r)
    return r // d, tuple(w // d for w in weights)


@st.composite
def _coprime_gcd_types(draw):
    """Types 1/(pqs)(p x, q y, s z) for distinct primes p, q, s up to 17: the
    gcds with r are often pairwise coprime and above 1, the stepped route of
    ``normalize_type``.  Dividing out gcd(weights, r) keeps the action
    effective."""
    p, q, s = draw(st.permutations((2, 3, 5, 7, 11, 13, 17)))[:3]
    r = p * q * s
    weights = tuple(f * draw(st.integers(1, r)) % r for f in (p, q, s))
    d = gcd(*weights, r)
    return r // d, tuple(w // d for w in weights)


def _check_against_oracles(r, weights):
    t = CyclicQuotientType(r, weights)
    assert normalize_type(t).weights == normalize_type_by_units(r, weights)
    assert is_terminal(t) == reid_tai_terminal(r, weights)


@settings(deadline=None, max_examples=200)
@given(_gcd_heavy_types())
@example((30, (6, 10, 15)))
@example((12, (0, 3, 4)))
@example((2, (0, 0, 1)))
@example((3315, (221, 255, 195)))
def test_normalize_and_terminal_match_oracles_on_gcd_heavy_types(rw):
    _check_against_oracles(*rw)


@settings(deadline=None, max_examples=200)
@given(_coprime_gcd_types())
@example((1001, (14, 33, 65)))
def test_normalize_and_terminal_match_oracles_on_coprime_gcd_types(rw):
    _check_against_oracles(*rw)


def test_quotient_type_and_terminal_at_order_one_million_are_fast():
    # the ROADMAP target for r = 10^6 is 5 ms; the best of five calls absorbs
    # a slow host
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        qt = quotient_type(standard_cone(10**6))
        terminal = is_terminal(qt)
        best = min(best, time.perf_counter() - start)
    assert qt == CyclicQuotientType(10**6, (1, 1, 10**6 - 1))
    assert terminal
    assert best < 0.005


# -- Reid-Tai sums and terminality ------------------------------------------------


def test_terminal_examples():
    assert is_terminal(CyclicQuotientType(3, (1, 1, 2)))
    t = CyclicQuotientType(2, (1, 1, 0))
    assert not is_terminal(t)
    assert reid_tai_canonical(t.r, t.weights)
    assert is_terminal(CyclicQuotientType(1, (0, 0, 0)))


def test_standard_family_is_terminal():
    for r in range(2, 31):
        for b in range(1, r):
            if gcd(b, r) != 1:
                continue
            t = CyclicQuotientType(r, (1, r - 1, b))
            assert is_terminal(t), (r, b)
            # cross-check against the exhaustive Reid-Tai loop
            assert reid_tai_terminal(r, t.weights)


def test_alternating_weight_family_is_terminal():
    # weights (a, -a, 1) with gcd(a, r) = 1: same family after relabeling
    for r in range(2, 31):
        for a in range(1, r):
            if gcd(a, r) != 1:
                continue
            assert is_terminal(CyclicQuotientType(r, (a, -a, 1)))


def _terminal_lemma(r, weights):
    """Up to permutation, a + b = 0 (mod r) and gcd(a, r) = gcd(c, r) = 1."""
    return any(
        (a + b) % r == 0 and gcd(a, r) == 1 and gcd(c, r) == 1
        for a, b, c in permutations(weights)
    )


def test_terminal_lemma_holds_for_all_effective_types():
    # Without gcd(a, r) = 1 the lemma also admits non-isolated types such as
    # 1/2(0,0,1) and 1/4(2,2,1), which are not terminal.
    for r, weights in ((2, (0, 0, 1)), (4, (2, 2, 1))):
        assert not is_terminal(CyclicQuotientType(r, weights))
        assert not _terminal_lemma(r, weights)
        assert (weights[0] + weights[1]) % r == 0 and gcd(weights[2], r) == 1
    checked = 0
    for r in range(1, 41):
        for weights in combinations_with_replacement(range(r), 3):
            if gcd(*weights, r) != 1:
                continue
            checked += 1
            assert is_terminal(CyclicQuotientType(r, weights)) == _terminal_lemma(r, weights), (
                r,
                weights,
            )
    assert checked == 112_469  # effective types with r <= 40, up to permutation


@given(st.integers(1, 40), st.tuples(st.integers(0, 39), st.integers(0, 39), st.integers(0, 39)))
def test_terminal_implies_canonical(r, weights):
    weights = tuple(w % r for w in weights)
    if gcd(*weights, r) != 1:
        return
    t = CyclicQuotientType(r, weights)
    if is_terminal(t):
        assert reid_tai_canonical(r, t.weights)
    if not reid_tai_canonical(r, t.weights):
        assert not is_terminal(t)


# -- quotient types of cones --------------------------------------------------------


def test_quotient_type_examples():
    assert quotient_type(make_cone(E1, E2, E3)) == CyclicQuotientType(1, (0, 0, 0))
    assert quotient_type(make_cone(E1, E2, V)) == CyclicQuotientType(3, (1, 1, 2))
    assert quotient_type(make_cone(E1, E3, V)) == CyclicQuotientType(2, (1, 1, 1))
    assert quotient_type(make_cone((1, 0, 0), (1, 2, 0), (1, 0, 2))) == NonCyclicType((2, 2))
    # r = 101 * 103 * 107 and every weight shares one prime with r: g = 101 near r^(1/3)
    assert quotient_type(make_cone((11021, -103, 2), (0, 101, -3), (0, 0, 1))) == (
        CyclicQuotientType(1113121, (101, 103, 107))
    )


def test_quotient_type_matches_multiplicity():
    rng = random.Random(1003)
    for _ in range(60):
        rays = random_valid_cone_rays(rng)
        qt = quotient_type(make_cone(*rays))
        from toricctl.cones import cone_multiplicity

        mult = cone_multiplicity(make_cone(*rays))
        if isinstance(qt, CyclicQuotientType):
            assert qt.r == mult
        else:
            product = 1
            for f in qt.factors:
                product *= f
            assert product == mult


def test_quotient_type_invariant_under_unimodular_maps():
    rng = random.Random(77)
    for _ in range(60):
        rays = random_valid_cone_rays(rng)
        g = random_unimodular(rng)
        mapped = tuple(mat_vec(g, ray) for ray in rays)
        assert quotient_type(make_cone(*rays)) == quotient_type(make_cone(*mapped))


_RAY = st.tuples(*[st.integers(-30, 30)] * 3).filter(lambda ray: gcd(*ray) == 1)


@settings(deadline=None, max_examples=300)
@given(st.tuples(_RAY, _RAY, _RAY).filter(lambda rays: det3(tuple(zip(*rays))) != 0))
@example(((11021, -103, 2), (0, 101, -3), (0, 0, 1)))
def test_quotient_type_weight_gcds_are_pairwise_coprime(rays):
    # A prime dividing r and two weights puts a lattice point strictly inside
    # the third ray, which is impossible for a primitive ray; so the
    # gcd(a_i, r) are pairwise coprime and normalize_type's g is <= r^(1/3).
    qt = quotient_type(make_cone(*rays))
    if isinstance(qt, CyclicQuotientType):
        a = qt.weights
        assert all(gcd(a[i], a[j], qt.r) == 1 for i, j in ((0, 1), (0, 2), (1, 2)))
        g = min(gcd(w, qt.r) for w in a)
        assert g**3 <= qt.r


def test_quotient_type_agrees_with_parallelepiped_oracle():
    rng = random.Random(555)
    for _ in range(80):
        rays = random_valid_cone_rays(rng)
        qt = quotient_type(make_cone(*rays))
        oracle = oracle_quotient(rays)
        if isinstance(qt, CyclicQuotientType):
            assert oracle == ("cyclic", qt.r, qt.weights)
        else:
            assert oracle == ("noncyclic", qt.factors)


def test_quotient_type_agrees_with_parallelepiped_oracle_at_large_order():
    # orders 100..1000 from small ray entries, so the box scan stays small;
    # the oracle's group-law walk is quadratic in r, so few cones are drawn
    rng = random.Random(2718)
    orders = []
    while len(orders) < 8:
        rays = random_valid_cone_rays(rng, max_multiplicity=1000, span=9)
        order = abs(det3(tuple(zip(*rays))))
        if order < 100:
            continue
        orders.append(order)
        qt = quotient_type(make_cone(*rays))
        if isinstance(qt, CyclicQuotientType):
            assert oracle_quotient(rays) == ("cyclic", qt.r, qt.weights)
        else:
            assert oracle_quotient(rays) == ("noncyclic", qt.factors)
    assert max(orders) > 500


_BIG_RAY = st.tuples(*[st.integers(-(10**6), 10**6)] * 3).filter(lambda ray: gcd(*ray) == 1)


@settings(deadline=None, max_examples=300)
@given(st.tuples(_BIG_RAY, _BIG_RAY, _BIG_RAY).filter(lambda rays: det3(tuple(zip(*rays))) != 0))
@example(((11021, -103, 2), (0, 101, -3), (0, 0, 1)))
@example(((1, 0, 0), (1, 2, 0), (1, 0, 2)))
def test_quotient_type_agrees_with_smith_form_oracle(rays):
    assert quotient_type(make_cone(*rays)) == quotient_type_by_smith_form(rays)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**32 - 1).map(lambda seed: random_valid_cone_rays(random.Random(seed))))
@example(((1, 0, 0), (1, 2, 0), (1, 0, 2)))
@example(((1, 0, 2), (1, 2, 0), (1, 0, 0)))
def test_quotient_type_from_adjugate_ignores_the_sign_of_the_adjugate(rays):
    cols = tuple(zip(*rays))
    r, adj = abs(det3(cols)), adj3(cols)
    negated = tuple(tuple(-x for x in row) for row in adj)
    expected = quotient_type_by_smith_form(rays)
    assert quotient_type_from_adjugate(r, adj) == expected
    assert quotient_type_from_adjugate(r, negated) == expected


@st.composite
def _noncyclic_cones(draw):
    """``(d, e, rays)`` with the rays the columns of ``U diag(1, d, d*e) V``,
    ``U`` and ``V`` unimodular, so that Z^3 / R Z^3 = Z/d x Z/(d*e)."""
    d = draw(st.integers(2, 60))
    e = draw(st.integers(1, 60))
    rng = random.Random(draw(st.integers(0, 2**32)))
    u, v = (random_unimodular(rng, rng.randint(12, 30)) for _ in range(2))
    m = mat_mul(mat_mul(u, ((1, 0, 0), (0, d, 0), (0, 0, d * e))), v)
    return d, e, tuple(zip(*m))


@settings(deadline=None, max_examples=200)
@given(_noncyclic_cones().filter(lambda der: all(gcd(*ray) == 1 for ray in der[2])))
@example((2**64, 3**40, ((1, 0, 0), (1, 2**64, 0), (1, 0, 6**40 * 2**24))))
def test_quotient_type_agrees_with_smith_form_oracle_on_noncyclic_cones(der):
    d, e, rays = der
    qt = quotient_type(make_cone(*rays))
    assert qt == NonCyclicType((d, d * e))
    assert qt == quotient_type_by_smith_form(rays)


def test_quotient_type_agrees_with_both_oracles_on_all_unit_cube_cones():
    # every triple of distinct nonzero vectors with entries in {-1, 0, 1}
    vectors = [v for v in product((-1, 0, 1), repeat=3) if any(v)]
    checked = set()
    for rays in combinations(vectors, 3):
        if det3(tuple(zip(*rays))) == 0:
            continue
        qt = quotient_type(make_cone(*rays))
        assert qt == quotient_type_by_smith_form(rays)
        if isinstance(qt, CyclicQuotientType):
            assert oracle_quotient(rays) == ("cyclic", qt.r, qt.weights)
        else:
            assert oracle_quotient(rays) == ("noncyclic", qt.factors)
        checked.add(str(qt))
    assert checked == {
        "smooth",
        "1/2(0,1,1)",
        "1/2(1,1,1)",
        "1/3(1,1,1)",
        "1/3(1,1,2)",
        "1/4(1,1,2)",
        "1/4(1,2,3)",
        "noncyclic(2,2)",
    }


def test_quotient_type_needs_no_smith_form(monkeypatch):
    def refuse(m):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    monkeypatch.setattr(quotients, "smith_normal_form", refuse, raising=False)
    assert str(quotient_type(make_cone(E1, E2, V))) == "1/3(1,1,2)"
    assert str(quotient_type(make_cone((1, 0, 0), (1, 2, 0), (1, 0, 2)))) == "noncyclic(2,2)"


# -- standard cones -------------------------------------------------------------------


def test_standard_cone_examples():
    assert standard_cone(1).rays == ((1, 0, 0), (0, 0, 1), (0, 1, -1))
    assert quotient_type(standard_cone(1)) == CyclicQuotientType(1, (0, 0, 0))
    assert quotient_type(standard_cone(2)) == CyclicQuotientType(2, (1, 1, 1))
    assert quotient_type(standard_cone(3)) == CyclicQuotientType(3, (1, 1, 2))
    with pytest.raises(ValueError):
        standard_cone(0)


def test_standard_cone_family_types():
    for n in range(1, 25):
        qt = quotient_type(standard_cone(n))
        expected = normalize_type(CyclicQuotientType(n, (1, 1, -1))) if n > 1 else CyclicQuotientType(1, (0, 0, 0))
        assert qt == expected
        assert is_terminal(qt)


# -- lattice equivalence ----------------------------------------------------------------


def test_lattice_equivalent_identity():
    unit = make_cone(E1, E2, E3)
    assert lattice_equivalent(unit, unit) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_lattice_equivalent_diag_flip():
    g = lattice_equivalent(make_cone(E1, E2, V), make_cone(E1, E2, (-1, -2, 3)))
    assert g == ((1, 0, 0), (0, 1, 0), (0, 0, -1))


def test_lattice_equivalent_multiplicity_obstruction():
    assert lattice_equivalent(make_cone(E1, E2, E3), make_cone(E1, E2, V)) is None


def test_lattice_equivalent_maps_ray_sets():
    rng = random.Random(31)
    for _ in range(40):
        rays = random_valid_cone_rays(rng)
        g = random_unimodular(rng)
        c1 = make_cone(*rays)
        c2 = make_cone(*(mat_vec(g, ray) for ray in rays))
        found = lattice_equivalent(c1, c2)
        assert found is not None
        images = {mat_vec(found, ray) for ray in c1.rays}
        assert images == set(c2.rays)


def test_sheared_cone_variants():
    # the shear ((1,0,0),(0,1,0),(0,-1,1)) sends V to (-1,-2,-1); the variant
    # with flipped middle sign spans the same singularity type as well
    base = make_cone(E1, E3, V)
    shear = ((1, 0, 0), (0, 1, 0), (0, -1, 1))
    image = mat_vec(shear, V)
    assert image == (-1, -2, -1)
    computed = make_cone(E1, E3, image)
    variant = make_cone(E1, E3, (-1, 2, -1))
    assert lattice_equivalent(base, computed) is not None
    assert lattice_equivalent(base, variant) is not None
    assert (
        str(quotient_type(base))
        == str(quotient_type(computed))
        == str(quotient_type(variant))
        == "1/2(1,1,1)"
    )


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 20))
def test_standard_cone_equivalence_to_weight_normal_form(n):
    # cones with the same normalized type and multiplicity n embed the same
    # sublattice data; the standard cone realizes 1/n(1,1,-1)
    qt = quotient_type(standard_cone(n))
    assert isinstance(qt, CyclicQuotientType)
    assert qt.r == n
