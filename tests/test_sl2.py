import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tests.oracles import (
    generators_by_operators,
    images_by_operators,
    quadric_family_by_operators,
    ring,
    sign_invariant_by_flip,
    spot_check_failures_by_point,
    substitute_term_by_term,
    variables,
)
from toricctl import sl2
from toricctl.sl2 import (
    DEFAULT_SPOT_CHECK_SEED,
    Poly,
    invariant_ideal_generators,
    quadric_family,
    quadric_family_sanity,
    quotient_images_sign_invariant,
    quotient_map_substitution,
    rep_weights,
    substitute_all,
    verify_invariant_ideal,
)

X, Y, Z = variables("x y z")
W, T2, DELTA = variables("w t2 delta")


def small_polys():
    names = st.sampled_from(("x", "y", "z"))
    monomials = st.tuples(names, st.integers(0, 3), st.integers(-5, 5))
    return st.lists(monomials, max_size=4).map(
        lambda parts: sum((c * variables(n)[0] ** e for n, e, c in parts), ring(0))
    )


# -- the oracle ring and the library's substitution ----------------------------------


def test_add_zero_is_identity():
    p = 3 * X**2 - Y
    assert p + 0 == p
    assert p + ring(0) == p


def test_square_of_sum():
    assert (X + Y) ** 2 == X**2 + 2 * X * Y + Y**2
    assert (X + Y) * (X + Y) == (X + Y) ** 2


def test_substitute_example():
    p = X * Y
    assert p.substitute({"x": X**2, "y": 2 * X * Y}) == 2 * X**3 * Y


def test_unused_variables_are_pruned():
    p = (X + Y) - Y
    assert p == X
    assert p.variables == ("x",)


def test_constant_arithmetic_and_equality():
    assert ring(3) + 4 == 7
    assert ring(0).is_zero
    assert (X - X).is_zero
    assert str(Poly((), {})) == "0"


def test_pow_validation():
    with pytest.raises(ValueError):
        X ** -1


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(small_polys(), small_polys())
@settings(max_examples=60)
def test_substitution_is_ring_homomorphism(p, q):
    sub = {"x": Y + 1, "y": X * Z, "z": ring(-2)}
    assert (p + q).substitute(sub) == ring(p.substitute(sub)) + q.substitute(sub)
    assert (p * q).substitute(sub) == ring(p.substitute(sub)) * q.substitute(sub)


@given(small_polys(), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=60)
def test_evaluate_matches_constant_substitution(p, a, b, c):
    point = {"x": a, "y": b, "z": c}
    value = p.evaluate(point)
    assert p.substitute({k: ring(v) for k, v in point.items()}) == value


# Variable names inside and outside the fixed precedence, so that merging the
# images' variables exercises both orders.
_SUBSTITUTION_NAMES = ("a", "c", "delta", "x", "y", "z", "w", "t2")


def _polys(max_terms: int, max_exponent: int):
    monomials = st.tuples(
        st.dictionaries(
            st.sampled_from(_SUBSTITUTION_NAMES), st.integers(0, max_exponent), max_size=3
        ),
        st.integers(-5, 5),
    )

    def build(parts):
        total = ring(0)
        for powers, c in parts:
            term = ring(c)
            for name, e in powers.items():
                term = term * variables(name)[0] ** e
            total = total + term
        return total

    return st.lists(monomials, max_size=max_terms).map(build)


_IMAGES = st.one_of(
    _polys(max_terms=3, max_exponent=2),
    st.integers(-3, 3),
    st.integers(-3, 3).map(ring),
)


@given(
    _polys(max_terms=4, max_exponent=3),
    st.dictionaries(st.sampled_from(_SUBSTITUTION_NAMES), _IMAGES, max_size=4),
)
@settings(max_examples=150, deadline=None)
@example(ring(0), {"x": X + Y})
@example(ring(-7), {"x": X + Y})
@example(X**2 * Y - 3 * X + 1, {"x": X + Y})
@example(X**3 * W + Y, {"x": 0, "w": W - X})
@example(T2**2 - X * Z, {"x": 5, "z": ring(0)})
def test_substitute_matches_term_by_term_oracle(poly, assignment):
    expected = substitute_term_by_term(poly, assignment)
    actual = poly.substitute(assignment)
    assert actual == expected
    assert actual.variables == expected.variables
    assert str(actual) == str(expected)


@given(
    st.lists(_polys(max_terms=4, max_exponent=3), max_size=4),
    st.dictionaries(st.sampled_from(_SUBSTITUTION_NAMES), _IMAGES, max_size=4),
)
@settings(max_examples=60, deadline=None)
@example(list(invariant_ideal_generators()), quotient_map_substitution())
@example([X**3, X * Y, ring(2)], {"x": Y + 1})
@example([ring(0), W**2], {"w": 0})
def test_substitute_all_matches_term_by_term_oracle(polys, assignment):
    # one power table per image for all the polynomials, each term expanded from it
    actual = substitute_all(polys, assignment)
    expected = [substitute_term_by_term(poly, assignment) for poly in polys]
    assert list(actual) == expected
    assert [p.variables for p in actual] == [p.variables for p in expected]
    assert [str(p) for p in actual] == [str(p) for p in expected]


def test_evaluate_requires_all_variables():
    with pytest.raises(ValueError):
        (X + Y).evaluate({"x": 1})


# -- rendering --------------------------------------------------------------------


def test_generator_rendering_matches_published_form():
    rendered = [str(g) for g in invariant_ideal_generators()]
    assert rendered == [
        "3*d^2 - 8*c*e + 4*delta*e",
        "c*d - 6*b*e + delta*d",
        "3*b*d - 48*a*e + 2*delta*c + 2*delta^2",
        "c^2 - 36*a*e + 2*delta*c + delta^2",
        "b*c - 6*a*d + delta*b",
        "3*b^2 - 8*a*c + 4*delta*a",
    ]


def test_rendering_signs():
    assert str(X - 1) == "x - 1"
    assert str(-X) == "-x"
    assert str(1 - X) == "-x + 1"


# -- the invariant ideal -------------------------------------------------------------


def test_generator_count_and_sixth_generator():
    gens = invariant_ideal_generators()
    assert len(gens) == 6
    a, b, c, d, e, delta = variables("a b c d e delta")
    assert gens[5] == 3 * b**2 - 8 * a * c + 4 * delta * a
    # the literal term tables against the operator-built generators, all six
    expected = generators_by_operators()
    assert gens == expected
    assert [g.variables for g in gens] == [g.variables for g in expected]


def test_generators_are_homogeneous_quadrics():
    for g in invariant_ideal_generators():
        assert {sum(exps) for exps in g.terms} == {2}


def test_quotient_map_images():
    images = quotient_map_substitution()
    assert images["a"] == X**2
    assert images["b"] == 2 * X * Y
    assert images["c"] == 2 * X * Z + Y**2
    assert images["d"] == 2 * Y * Z
    assert images["e"] == Z**2
    assert images["delta"] == 4 * X * Z - Y**2
    # the literal term tables against the operator-built images, all six
    expected = images_by_operators()
    assert list(images) == list(expected)
    for name, image in images.items():
        assert image == expected[name], name
        assert image.variables == expected[name].variables


def test_quotient_map_consistency_relation():
    # generator 4 in disguise: (c + delta)^2 = 36 a e on the image
    images = quotient_map_substitution()
    assert (ring(images["c"]) + images["delta"]) ** 2 == 36 * ring(images["a"]) * images["e"]


def test_all_generators_vanish_symbolically():
    substitution = quotient_map_substitution()
    for g in invariant_ideal_generators():
        assert g.substitute(substitution).is_zero


def test_generators_vanish_under_sympy():
    sympy = pytest.importorskip("sympy")

    def to_sympy(poly):
        symbols = [sympy.Symbol(name) for name in poly.variables]
        return sympy.Add(
            *(
                c * sympy.Mul(*(x**e for x, e in zip(symbols, exps)))
                for exps, c in poly.terms.items()
            )
        )

    substitution = {sympy.Symbol(k): to_sympy(v) for k, v in quotient_map_substitution().items()}
    generators = [to_sympy(g) for g in invariant_ideal_generators()]
    assert len(generators) == 6
    for g in generators:
        assert g != 0
        assert sympy.expand(g.subs(substitution, simultaneous=True)) == 0, g


def test_verify_invariant_ideal_report():
    report = verify_invariant_ideal()
    assert report.seed == DEFAULT_SPOT_CHECK_SEED
    assert report.samples == 100
    assert len(report.checks) == 6
    assert report.all_vanish
    for check in report.checks:
        assert check.symbolic_zero
        assert check.numeric_failures == 0
        assert check.samples == 100


def test_verify_invariant_ideal_options():
    assert len(verify_invariant_ideal(limit=1).checks) == 1
    assert verify_invariant_ideal(samples=0).all_vanish
    with pytest.raises(ValueError):
        verify_invariant_ideal(limit=0)
    with pytest.raises(ValueError):
        verify_invariant_ideal(samples=-1)
    # deterministic for a fixed seed
    assert verify_invariant_ideal(seed=5).to_dict() == verify_invariant_ideal(seed=5).to_dict()


def test_sampling_catches_non_vanishing_polynomials():
    # perturb each generator; the perturbed image must be nonzero and at least
    # one of the 100 seeded sample points must witness it
    rng = random.Random(DEFAULT_SPOT_CHECK_SEED)
    points = [tuple(rng.randint(-10, 10) for _ in range(3)) for _ in range(100)]
    substitution = quotient_map_substitution()
    for g in invariant_ideal_generators():
        perturbed = (g + DELTA**2).substitute(substitution)
        assert not perturbed.is_zero
        witnesses = [
            p for p in points if perturbed.evaluate({"x": p[0], "y": p[1], "z": p[2]}) != 0
        ]
        assert witnesses


def _randint_points(seed, samples):
    rng = random.Random(seed)
    return [tuple(rng.randint(-10, 10) for _ in range(3)) for _ in range(samples)]


_SEEDS = (0, 1, DEFAULT_SPOT_CHECK_SEED, -31337)
# 1 400 samples are 4 200 coordinates, more than one chunk of draws can hold:
# a chunk of _CHUNK_WORDS = 4 096 words yields at most that many.
_ABOVE_ONE_CHUNK = 1_400


def _first_chunk_draws(seed):
    """How many of the first chunk's words ``randint(-10, 10)`` accepts."""
    rng = random.Random(seed)
    return sum(rng.getrandbits(5) < 21 for _ in range(sl2._CHUNK_WORDS))


@pytest.mark.parametrize("samples", [0, 1, 100, 20_000, _ABOVE_ONE_CHUNK, 100_000])
@pytest.mark.parametrize("seed", _SEEDS)
def test_spot_check_points_are_the_randint_points(seed, samples):
    chunks = list(sl2._spot_check_draws(seed, samples))
    assert all(len(chunk) % 3 == 0 for chunk in chunks)
    coords = [c - sl2.SPOT_CHECK_RANGE for c in b"".join(chunks)]
    rng = random.Random(seed)
    assert coords == [rng.randint(-10, 10) for _ in range(3 * samples)]
    if samples >= _ABOVE_ONE_CHUNK:
        assert 3 * _ABOVE_ONE_CHUNK > sl2._CHUNK_WORDS
        # the first chunk holds the whole triples of its accepted draws; the
        # rest carries over
        drawn = _first_chunk_draws(seed)
        assert len(chunks[0]) == drawn - drawn % 3


def test_chunk_boundary_carries_a_partial_triple():
    # at least one seed ends its first chunk mid-triple, so the randint test
    # exercises the carry into the next chunk
    assert any(_first_chunk_draws(seed) % 3 for seed in _SEEDS)


def test_spot_check_memory_is_flat_in_the_sample_count():
    tracemalloc.start()
    try:
        assert verify_invariant_ideal(samples=300_000).all_vanish
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


@pytest.mark.parametrize(
    "limit, samples",
    [(6, 100), (6, 20_000), (3, 20_000), (1, 6_000)],
)
def test_numeric_failures_count_perturbed_points_with_multiplicity(monkeypatch, limit, samples):
    seed = 4242
    points = Counter(_randint_points(seed, samples))
    # the perturbation below is nonzero exactly where delta = 4xz - y^2 is
    failing = {p: n for p, n in points.items() if 4 * p[0] * p[2] - p[1] ** 2}
    expected = sum(failing.values())
    assert 0 < expected < samples
    if samples >= 6_000:
        assert expected > len(failing)  # failing points repeat, so multiplicity counts
    original = sl2._NUMERIC_GENERATORS
    for k in range(6):
        perturbed = list(original)
        perturbed[k] = lambda a, b, c, d, e, dl, f=original[k]: f(a, b, c, d, e, dl) + dl * dl
        monkeypatch.setattr(sl2, "_NUMERIC_GENERATORS", tuple(perturbed))
        report = verify_invariant_ideal(seed=seed, samples=samples, limit=limit)
        assert len(report.checks) == limit
        failures = [check.numeric_failures for check in report.checks]
        if k < limit:
            assert failures == [expected if i == k else 0 for i in range(limit)]
            assert not report.checks[k].passed
            assert report.checks[k].symbolic_zero
            assert not report.all_vanish
        else:
            assert failures == [0] * limit
            assert report.all_vanish


# (c, i, j) adds c * images[i] * images[j] to a formula; index 6 stands for 1
_PERTURBATION = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(0, 6), st.integers(0, 6)), max_size=3
)


def _perturbed(perturbations):
    def make(formula, terms):
        def perturbed(*images):
            factors = images + (1,)
            return formula(*images) + sum(c * factors[i] * factors[j] for c, i, j in terms)

        return perturbed

    return tuple(map(make, sl2._NUMERIC_GENERATORS, perturbations))


def _assert_fold_matches_oracle(seed, samples, limit, perturbations):
    formulas = _perturbed(perturbations)
    expected = spot_check_failures_by_point(seed, samples, formulas[:limit])
    with mock.patch.object(sl2, "_NUMERIC_GENERATORS", formulas):
        report = verify_invariant_ideal(seed=seed, samples=samples, limit=limit)
    assert [check.numeric_failures for check in report.checks] == expected
    return expected


@given(
    st.integers(-(10**6), 10**6),
    st.integers(0, 600),
    st.integers(1, 6),
    st.lists(_PERTURBATION, min_size=6, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_folded_failures_match_the_per_point_oracle(seed, samples, limit, perturbations):
    _assert_fold_matches_oracle(seed, samples, limit, perturbations)


# Seed 0 draws the origin among its first 500 points, seed 2 does not; both
# draw points without their mirror and pairs p, -p.
@pytest.mark.parametrize("seed, draws_origin", [(0, True), (2, False)])
def test_folded_failures_at_the_origin_and_at_unpaired_points(seed, draws_origin):
    samples = 500
    points = Counter(_randint_points(seed, samples))
    mirror = {p: tuple(-c for c in p) for p in points}
    assert ((0, 0, 0) in points) == draws_origin
    assert any(mirror[p] not in points for p in points)
    assert any(mirror[p] in points and mirror[p] != p for p in points)
    # delta + 1 fails at the origin; a + b - e fails at some points but not all
    perturbations = [[(1, 5, 6), (1, 6, 6)], [(1, 0, 6), (-1, 4, 6), (1, 1, 6)]] + [[]] * 4
    failures = _assert_fold_matches_oracle(seed, samples, 6, perturbations)
    assert 0 < failures[1] < samples and failures[2:] == [0] * 4


def test_images_sign_invariant():
    assert quotient_images_sign_invariant()
    flip = {"x": -X, "y": -Y, "z": -Z}
    for image in quotient_map_substitution().values():
        assert image.substitute(flip) == image


_XYZ_TABLES = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.integers(-3, 3),
    max_size=4,
).map(lambda terms: Poly(("x", "y", "z"), terms))


@given(st.dictionaries(st.sampled_from(("a", "b", "c", "d", "e", "delta")), _XYZ_TABLES, max_size=6))
@settings(max_examples=80, deadline=None)
@example(quotient_map_substitution())
@example({"a": X**2, "b": X * Y + Z})
@example({"c": ring(5), "d": X * Y * Z})
def test_sign_invariance_by_parity_matches_the_flip(images):
    # the tables hold odd-degree terms, so both verdicts are drawn
    with mock.patch.object(sl2, "quotient_map_substitution", lambda: images):
        assert quotient_images_sign_invariant() == sign_invariant_by_flip(images)


def test_sign_invariance_oracle_sees_both_verdicts():
    assert sign_invariant_by_flip(quotient_map_substitution())
    assert not sign_invariant_by_flip({"a": X**2, "b": X * Y + Z})
    with mock.patch.object(sl2, "quotient_map_substitution", lambda: {"b": X * Y + Z}):
        assert not quotient_images_sign_invariant()


# -- quadric family and representation weights ------------------------------------------


def test_quadric_family_examples():
    assert quadric_family(0) == 4 * X * Z - Y**2 - 1
    assert quadric_family(1) == 4 * X * Z - Y**2 - DELTA
    assert quadric_family(2).evaluate({"x": 1, "y": 2, "z": 2, "delta": 2}) == 0
    with pytest.raises(ValueError):
        quadric_family(-1)


def test_quadric_family_table_matches_operators():
    for k in range(9):
        actual, expected = quadric_family(k), quadric_family_by_operators(k)
        assert actual == expected, k
        assert actual.variables == expected.variables
        assert str(actual) == str(expected)
    assert quadric_family(0).variables == ("x", "y", "z")  # delta^0 is the constant -1
    assert quadric_family_sanity()


def test_rep_weights_examples():
    assert rep_weights(2).weights == (2, 0, -2)
    assert rep_weights(2).fixed_space_dim == 1
    assert rep_weights(1).weights == (1, -1)
    assert rep_weights(1).fixed_space_dim == 0
    assert len(rep_weights(4).weights) == 5
    with pytest.raises(ValueError):
        rep_weights(-1)


def test_rep_weights_properties():
    for k in range(0, 25):
        rw = rep_weights(k)
        assert len(rw.weights) == k + 1
        assert sum(rw.weights) == 0
        assert rw.weights == tuple(sorted(rw.weights, reverse=True))
        assert rw.fixed_space_dim == (1 if k % 2 == 0 else 0)
        assert rw.fixed_space_dim == (1 if 0 in rw.weights else 0)
