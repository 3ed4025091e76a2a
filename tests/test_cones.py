import json
import random
import time
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from toricctl.cones import (
    FanFormatError,
    cone_multiplicity,
    fan_from_dict,
    fan_from_json,
    fan_to_dict,
    fan_to_json,
    fan_walls,
    is_complete,
    make_cone,
    make_fan,
    validate_fan,
)
from toricctl import cones
from toricctl.quotients import quotient_type
from toricctl.varieties import analyze
from tests import oracles

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
V = (-1, -2, -3)

UNIT_CONE = make_cone(E1, E2, E3)


def p1123_fan():
    return make_fan("P1123", [E1, E2, E3, V], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def p3_fan():
    return make_fan(
        "P3", [E1, E2, E3, (-1, -1, -1)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    )


def p1x3_fan():
    # (P^1)^3: rays +-e_i, one maximal cone per octant
    rays = [E1, E2, E3, (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cones = [
        (i, j, k)
        for i in (0, 3)
        for j in (1, 4)
        for k in (2, 5)
    ]
    return make_fan("P1xP1xP1", rays, cones)


# -- cones ---------------------------------------------------------------------


def test_multiplicity_examples():
    assert cone_multiplicity(UNIT_CONE) == 1
    assert cone_multiplicity(make_cone(E1, E2, V)) == 3
    assert cone_multiplicity(make_cone(E1, E3, V)) == 2


def test_smoothness_examples():
    assert quotient_type(UNIT_CONE).is_smooth
    assert quotient_type(make_cone(E2, E3, V)).is_smooth
    assert not quotient_type(make_cone(E1, E2, V)).is_smooth


def test_multiplicity_is_a_lattice_invariant():
    import itertools
    import random

    from toricctl.lattice import mat_vec
    from tests.oracles import random_unimodular, random_valid_cone_rays

    rng = random.Random(909)
    for _ in range(40):
        rays = random_valid_cone_rays(rng)
        mult = cone_multiplicity(make_cone(*rays))
        for perm in itertools.permutations(rays):
            assert cone_multiplicity(make_cone(*perm)) == mult
        g = random_unimodular(rng)
        mapped = tuple(mat_vec(g, ray) for ray in rays)
        assert cone_multiplicity(make_cone(*mapped)) == mult


def test_smooth_iff_unit_invariant_factors():
    import random

    from toricctl.lattice import smith_normal_form
    from tests.oracles import random_valid_cone_rays

    rng = random.Random(911)
    for _ in range(40):
        rays = random_valid_cone_rays(rng)
        c = make_cone(*rays)
        d = smith_normal_form(c.ray_matrix())[0]
        factors = tuple(d[i][i] for i in range(3))
        assert (cone_multiplicity(c) == 1) == (factors == (1, 1, 1))


def test_cone_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        make_cone((2, 4, 6), E2, E3)  # common factor
    with pytest.raises(ValueError):
        make_cone((0, 0, 0), E2, E3)
    with pytest.raises(ValueError):
        make_cone(E1, E2, (1, 1, 0))  # dependent
    with pytest.raises(ValueError):
        make_cone((1, 0), (0, 1), (1, 1))  # wrong dimension


def test_cone_from_validated_kernel_is_the_checked_cone():
    # det -3 and det 1; the kernel takes no part in equality or repr
    fan = make_fan("two", [E1, E2, E3, V], [(0, 1, 3), (2, 1, 3)])
    validation = validate_fan(fan)
    assert [d for d, _ in validation.kernels] == [-3, 1]
    for k, kernel in enumerate(validation.kernels):
        checked = fan.simplicial_cone(k)
        cone = cones.Cone.from_kernel(fan.cone_rays(k), kernel)
        assert cone == checked and hash(cone) == hash(checked)
        assert repr(cone) == repr(checked) == f"Cone(rays={fan.cone_rays(k)!r})"
        assert cone.kernel == checked.kernel
        assert quotient_type(cone) == quotient_type(checked)
        assert cone_multiplicity(cone) == cone_multiplicity(checked) == abs(kernel[0])


def test_classify_point_examples():
    # x lies in the cone iff every inward facet normal n has n . x >= 0, and in
    # its interior iff every n . x > 0; both orientations of the ray triple
    def dots(normals, x):
        return [sum(n_i * x_i for n_i, x_i in zip(n, x)) for n in normals]

    for rays in ((E1, E2, E3), (E1, E2, V), (V, E2, E1)):
        normals = cones._facet_normals(rays)[1]
        inside = tuple(map(sum, zip(*rays)))
        assert all(t > 0 for t in dots(normals, inside))
        assert all(t < 0 for t in dots(normals, tuple(-x for x in inside)))
        for k, ray in enumerate(rays):
            on_ray = dots(normals, ray)
            assert on_ray[k] > 0 and on_ray[:k] + on_ray[k + 1 :] == [0, 0]
        assert dots(normals, (0, 0, 0)) == [0, 0, 0]


# -- fan validation --------------------------------------------------------------


def test_validate_p1123():
    assert validate_fan(p1123_fan()).ok


def test_validate_single_cone():
    fan = make_fan("unit", [E1, E2, E3], [(0, 1, 2)])
    assert validate_fan(fan).ok


def test_validate_octants():
    assert validate_fan(p1x3_fan()).ok


def test_validate_detects_interior_overlap():
    fan = make_fan(
        "overlap",
        [E1, E2, E3, (1, 1, 1), (-1, 0, 0)],
        [(0, 1, 2), (3, 1, 4)],
    )
    report = validate_fan(fan)
    assert not report.ok
    assert any("common face" in p for p in report.problems)
    # independent witness: an exact common interior point of the two cones,
    # namely 2*(1,1,1) + (0,1,0) + (-1,0,0)
    witness = (1, 3, 2)
    for k in (0, 1):
        normals = oracles._inward_normals(fan.cone_rays(k))
        assert all(sum(n_i * x_i for n_i, x_i in zip(n, witness)) > 0 for n in normals)


def test_validate_detects_non_primitive_ray():
    fan = make_fan("bad", [(2, 4, 6), E2, E3], [(0, 1, 2)])
    report = validate_fan(fan)
    assert any("not primitive" in p for p in report.problems)


def test_validate_detects_duplicate_rays():
    fan = make_fan("dup", [E1, E2, E3, E1], [(0, 1, 2)])
    report = validate_fan(fan)
    assert any("duplicates" in p for p in report.problems)


def test_validate_detects_degenerate_cone():
    fan = make_fan("degen", [E1, E2, (1, 1, 0)], [(0, 1, 2)])
    report = validate_fan(fan)
    assert any("degenerate" in p for p in report.problems)


def test_validate_detects_duplicate_cones():
    fan = make_fan("dupcone", [E1, E2, E3], [(0, 1, 2), (2, 1, 0)])
    report = validate_fan(fan)
    assert not report.ok


# -- pair check against the Fraction reference -----------------------------------

PAIR_KINDS = ("share0", "share1", "share2", "mutant", "dup_vector")


def small_fan(rng, kind):
    """A few cones grown from a random cone, each new one related to an old one.

    ``shareN`` adds a cone with N ray indices of an old cone and either the
    negations of its other rays (meeting the old cone in a face) or random
    rays; ``mutant`` adds a cone inside an old one; ``dup_vector`` adds a
    cone on a copy of an old ray stored under a new index.  The last cone
    added is of the given kind, the ones before it of a random ``shareN``.
    """
    rays = list(oracles.random_valid_cone_rays(rng))
    fan_cones = [(0, 1, 2)]
    steps = rng.randint(1, 3)
    for step in range(steps):
        base = rng.choice(fan_cones)
        step_kind = kind if step == steps - 1 else rng.choice(PAIR_KINDS[:3])
        if step_kind == "mutant":
            a, b, c = (rays[i] for i in base)
            x, y, z = (rng.randint(1, 3) for _ in range(3))
            inside = oracles.primitive_part(
                tuple(x * p + y * q + z * t for p, q, t in zip(a, b, c))
            )
            new = rng.sample(base, 2) + [oracles.add_ray(rays, inside)]
        elif step_kind == "dup_vector":
            k = rng.choice(base)
            rays.append(rays[k])
            rest = [i for i in base if i != k]
            if rng.random() < 0.5:
                rest = [oracles.add_ray(rays, tuple(-x for x in rays[i])) for i in rest]
            new = [len(rays) - 1] + rest
        else:
            shared = rng.sample(base, int(step_kind[-1]))
            if rng.random() < 0.5:
                fresh = [tuple(-x for x in rays[i]) for i in base if i not in shared]
            else:
                fresh = list(oracles.random_valid_cone_rays(rng))[: 3 - len(shared)]
            new = shared + [oracles.add_ray(rays, ray) for ray in fresh]
        if len(set(new)) == 3:
            rng.shuffle(new)
            fan_cones.append(tuple(new))
    return rays, fan_cones


def _pair_verdicts(fan):
    """Per-pair verdicts of the integer check, each pair in both orders."""
    normals = []
    for k in range(len(fan.cones)):
        d, cone_normals = cones._facet_normals(fan.cone_rays(k))
        normals.append(cone_normals if d else None)
    verdicts = {}
    for ca in range(len(fan.cones)):
        for cb in range(len(fan.cones)):
            if ca != cb and normals[ca] and normals[cb]:
                verdicts[ca, cb] = cones._intersection_is_common_face(fan, normals, ca, cb)
    return verdicts


def _check_against_reference(rays, fan_cones):
    fan = make_fan("random", rays, fan_cones)
    assert list(validate_fan(fan).problems) == oracles.fan_problems(rays, fan_cones)
    verdicts = _pair_verdicts(fan)
    for (ca, cb), verdict in verdicts.items():
        assert verdict == oracles.intersection_is_common_face(
            rays, fan_cones[ca], fan_cones[cb]
        ), (ca, cb)
    return verdicts


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(PAIR_KINDS))
def test_pair_check_matches_fraction_reference(seed, kind):
    _check_against_reference(*small_fan(random.Random(seed), kind))


def test_pair_check_reference_sees_both_verdicts():
    rng = random.Random(4242)
    for kind in PAIR_KINDS:
        seen = set()
        for _ in range(40):
            seen |= set(_check_against_reference(*small_fan(rng, kind)).values())
        assert seen == {True, False}, kind


def test_stellar_subdivisions_stay_valid_and_complete():
    rng = random.Random(77)
    for stars in (1, 5, 12):
        rays, fan_cones = oracles.stellar_fan(rng, stars)
        fan = make_fan("stellar", rays, fan_cones)
        assert validate_fan(fan).ok
        assert oracles.fan_problems(rays, fan_cones) == []
        assert is_complete(fan)
        assert analyze(fan).class_rank == len(rays) - 3


# -- fast accept and separating-facet screen against the reference ----------------


def _normals_if_fast_path(fan):
    """The cones' normals when ``validate_fan`` would offer the fan to the
    fast accept (rays primitive and distinct, cones non-degenerate and
    distinct), else None."""
    if len(set(fan.rays)) < len(fan.rays) or any(gcd(*ray) != 1 for ray in fan.rays):
        return None
    if len({frozenset(cone) for cone in fan.cones}) < len(fan.cones):
        return None
    normals = []
    for k in range(len(fan.cones)):
        d, cone_normals = cones._facet_normals(fan.cone_rays(k))
        if d == 0:
            return None
        normals.append(cone_normals)
    return normals


def _check_fast_paths(rays, fan_cones):
    """Each fast verdict implies the reference one, the fast accept passes iff
    the fan is valid and complete, and the problem lists agree.

    Returns the fast-accept verdict (None when the fan does not reach it) and
    the set of screen verdicts seen."""
    fan = make_fan("random", rays, fan_cones)
    reference = oracles.fan_problems(rays, fan_cones)
    validation = validate_fan(fan)
    assert list(validation.problems) == reference
    normals = _normals_if_fast_path(fan)
    accepted = None if normals is None else cones._fast_accept(fan, normals)
    assert validation.complete == (accepted is True)
    if normals is None:
        return None, set()
    assert accepted == (reference == [] and is_complete(fan))
    if accepted:
        assert oracles.is_complete_by_wall_graph(fan_cones)
    screened = set()
    for ca in range(len(fan.cones)):
        for cb in range(len(fan.cones)):
            if ca == cb:
                continue
            separated = cones._separated(fan, normals, ca, cb)
            screened.add(separated)
            if separated:
                assert oracles.intersection_is_common_face(rays, fan_cones[ca], fan_cones[cb])
    return accepted, screened


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(oracles.FAN_KINDS), st.booleans(), st.booleans())
def test_fast_accept_and_screen_imply_the_reference_verdicts(seed, kind, mapped, reversed_cones):
    rng = random.Random(seed)
    _check_fast_paths(*oracles.moved_stellar_or_mutant(rng, kind, mapped, reversed_cones))


def test_fast_paths_see_both_verdicts():
    # a perturbed ray keeps every wall in two cones, so only the opposite-sides
    # test and the test point can turn such a fan away
    rng = random.Random(7)
    accepted = {kind: set() for kind in oracles.FAN_KINDS}
    screened = set()
    for kind in oracles.FAN_KINDS:
        for _ in range(20):
            fast, pairs = _check_fast_paths(*oracles.stellar_or_mutant(rng, kind))
            accepted[kind].add(fast)
            screened |= pairs
    assert accepted["stellar"] == {True}
    assert accepted["removed"] == {False}
    assert False in accepted["overlap"] and True not in accepted["overlap"]
    assert {True, False} <= accepted["perturbed"]
    assert screened == {True, False}


# Equator rays of the "pentagram" fans, 144 degrees apart in turn.  In the
# second set cone 0's ray sum (19, 60, 1) lies on the wall of rays 3 and 5,
# in no other cone's interior, so only a closed-cone test point sees the
# second sheet.
PENTAGRAMS = (
    [(100, 0, 0), (-81, 59, 0), (31, -95, 0), (31, 95, 0), (-81, -59, 0)],
    [(100, 1, 0), (-81, 59, 0), (31, -95, 0), (19, 60, 0), (-81, -59, 0)],
)


def pentagram_fan(equator):
    """Every wall lies in two cones on opposite sides, but the fan wraps twice.

    Rays 5 and 6 are the poles; the cones are (i, i+1, 5) and (i+1, i, 6) for
    i mod 5, so the five cones around each pole turn through 720 degrees."""
    rays = [oracles.primitive_part(ray) for ray in equator] + [(0, 0, 1), (0, 0, -1)]
    fan_cones = [(i, (i + 1) % 5, 5) for i in range(5)]
    fan_cones += [((i + 1) % 5, i, 6) for i in range(5)]
    return rays, fan_cones


@pytest.mark.parametrize("equator", PENTAGRAMS)
def test_pentagram_double_cover_is_not_fast_accepted(equator):
    rays, fan_cones = pentagram_fan(equator)
    fan = make_fan("pentagram", rays, fan_cones)
    normals = _normals_if_fast_path(fan)
    assert all(len(sides) == 2 for sides in fan_walls(fan).values())
    assert not cones._fast_accept(fan, normals)
    problems = list(validate_fan(fan).problems)
    assert problems == oracles.fan_problems(rays, fan_cones)
    assert len(problems) == 20


def test_analyze_400_cone_fan_is_fast():
    # the ROADMAP target is 50 ms; the best of three calls absorbs a slow host
    rays, fan_cones = oracles.stellar_fan(random.Random(400), 198, span=1)
    fan = make_fan("stellar-400", rays, fan_cones)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        report = analyze(fan)
        best = min(best, time.perf_counter() - start)
    assert len(fan.cones) == 400
    assert report.valid and report.complete
    assert best < 0.05


def test_fan_constructor_structural_checks():
    with pytest.raises(ValueError):
        make_fan("bad", [E1, E2], [(0, 1, 1)])  # repeated index
    with pytest.raises(ValueError):
        make_fan("bad", [E1, E2, E3], [(0, 1, 5)])  # out of range
    with pytest.raises(ValueError):
        make_fan("bad", [(1, 0), (0, 1), (1, 1)], [(0, 1, 2)])  # wrong dim


# -- completeness -----------------------------------------------------------------


def test_completeness_examples():
    assert is_complete(p1123_fan())
    assert is_complete(p3_fan())
    assert is_complete(p1x3_fan())
    assert not is_complete(make_fan("unit", [E1, E2, E3], [(0, 1, 2)]))


def test_wall_count_of_complete_fans():
    for fan in (p1123_fan(), p3_fan(), p1x3_fan()):
        walls = fan_walls(fan)
        assert all(len(sides) == 2 for sides in walls.values())
        assert 2 * len(walls) == 3 * len(fan.cones)


def test_incomplete_two_cone_fan():
    fan = make_fan("half", [E1, E2, E3, (-1, 0, 0)], [(0, 1, 2), (3, 1, 2)])
    assert validate_fan(fan).ok
    assert not is_complete(fan)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 10), st.floats(0.0, 1.0))
def test_wall_count_matches_wall_graph_search(seed, stars, drop):
    # valid fans, complete or not: a stellar fan with random cones removed
    rng = random.Random(seed)
    rays, fan_cones = oracles.stellar_fan(rng, stars)
    fan_cones = [cone for cone in fan_cones if rng.random() >= drop]
    fan = make_fan("stellar-minus", rays, fan_cones)
    assert validate_fan(fan).ok
    assert is_complete(fan) == oracles.is_complete_by_wall_graph(fan_cones)


def test_is_complete_rejects_degenerate():
    fan = make_fan("degen", [E1, E2, (1, 1, 0)], [(0, 1, 2)])
    with pytest.raises(ValueError):
        is_complete(fan)


# -- fan file format ---------------------------------------------------------------


def test_fan_json_roundtrip():
    fan = p1123_fan()
    assert fan_from_json(fan_to_json(fan)) == fan
    data = fan_to_dict(fan)
    assert data["dim"] == 3
    assert json.loads(json.dumps(data)) == data


def test_fan_parse_rejects_bad_dim():
    data = fan_to_dict(p1123_fan())
    data["dim"] = 2
    with pytest.raises(FanFormatError):
        fan_from_dict(data)


@pytest.mark.parametrize("dim", [3.0, True, "3", None])
def test_fan_parse_rejects_dim_that_is_not_the_integer_3(dim):
    data = fan_to_dict(p1123_fan())
    data["dim"] = dim
    with pytest.raises(FanFormatError, match="'dim' must be the integer 3"):
        fan_from_dict(data)


@pytest.mark.parametrize("field", ["rays", "cones"])
@pytest.mark.parametrize("value", [5, None, {"a": 1}, "abc", True])
def test_fan_parse_rejects_non_list_containers(field, value):
    data = fan_to_dict(p1123_fan())
    data[field] = value
    with pytest.raises(FanFormatError, match=f"'{field}' must be a list"):
        fan_from_dict(data)


def test_fan_parse_rejects_non_integer_entries():
    data = fan_to_dict(p1123_fan())
    data["rays"][0][0] = 1.5
    with pytest.raises(FanFormatError):
        fan_from_dict(data)
    data = fan_to_dict(p1123_fan())
    data["rays"][0][0] = True
    with pytest.raises(FanFormatError):
        fan_from_dict(data)


def test_fan_parse_rejects_bad_indices():
    data = fan_to_dict(p1123_fan())
    data["cones"][0] = [0, 1, 9]
    with pytest.raises(FanFormatError):
        fan_from_dict(data)
    data = fan_to_dict(p1123_fan())
    data["cones"][0] = [0, 1, 1]
    with pytest.raises(FanFormatError):
        fan_from_dict(data)


def test_fan_parse_rejects_missing_fields_and_bad_json():
    with pytest.raises(FanFormatError):
        fan_from_dict({"name": "x", "dim": 3, "rays": []})
    with pytest.raises(FanFormatError):
        fan_from_json("{not json")
    with pytest.raises(FanFormatError):
        fan_from_json("[1, 2, 3]")


def test_fan_accessors():
    fan = p1123_fan()
    assert fan.cone_rays(1) == (E1, E2, V)
    assert cone_multiplicity(fan.simplicial_cone(1)) == 3
