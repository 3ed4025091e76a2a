import itertools
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from toricctl import lattice, quotients
from toricctl.cones import load_fan, make_fan, validate_fan
from toricctl.lattice import mat_vec
from toricctl.varieties import (
    LinkingSolution,
    analyze,
    build_wps_fan,
    classify_case1,
    fan_lattice_equivalent,
    solve_linking_equations,
)
from tests import oracles
from tests.oracles import linking_solutions

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
FANS = Path(__file__).parent / "data" / "fans"


# -- weighted projective space fans ---------------------------------------------


def test_wps_fan_examples():
    assert build_wps_fan(1, 1, 1, 1).rays == (E1, E2, E3, (-1, -1, -1))
    assert build_wps_fan(1, 1, 2, 3).rays == (E1, E2, E3, (-1, -2, -3))
    assert build_wps_fan(1, 1, 1, 2).rays == (E1, E2, E3, (-1, -1, -2))
    assert len(build_wps_fan(1, 1, 2, 3).cones) == 4


def test_wps_rejects_bad_weights():
    with pytest.raises(ValueError):
        build_wps_fan(1, 2, 2, 2)  # triple (2,2,2) shares a factor
    with pytest.raises(ValueError):
        build_wps_fan(0, 1, 1, 1)
    with pytest.raises(ValueError):
        build_wps_fan(1, 1, 1, -2)


def test_wps_general_weights_satisfy_defining_relation():
    weights = (2, 3, 5, 7)
    fan = build_wps_fan(*weights)
    combo = [0, 0, 0]
    for w, ray in zip(weights, fan.rays):
        for i in range(3):
            combo[i] += w * ray[i]
    assert combo == [0, 0, 0]
    report = analyze(fan)
    assert report.valid and report.complete and report.class_rank == 1


def test_wps_general_path_matches_normalized_path_up_to_equivalence():
    # same variety, weights listed in a different order: the fans must be
    # related by a unimodular ray bijection
    normalized = build_wps_fan(1, 1, 2, 3)
    general = build_wps_fan(2, 1, 1, 3)
    assert fan_lattice_equivalent(general, normalized) is not None


def test_wps_permutation_invariance():
    base = analyze(build_wps_fan(1, 1, 2, 3))
    base_types = sorted(record.singularity for record in base.cones)
    for perm in itertools.permutations((1, 2, 3)):
        report = analyze(build_wps_fan(1, *perm))
        assert report.valid and report.complete
        assert report.class_rank == 1
        assert sorted(record.singularity for record in report.cones) == base_types


def test_wps_rank_one_for_well_formed_weights():
    for weights in [(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 3), (1, 2, 3, 5), (2, 3, 5, 7), (3, 4, 5, 7)]:
        assert analyze(build_wps_fan(*weights)).class_rank == 1


# -- analysis -------------------------------------------------------------------


def test_analyze_p1123():
    report = analyze(build_wps_fan(1, 1, 2, 3))
    assert report.valid and report.complete and report.q_factorial
    assert report.class_rank == 1
    assert report.all_terminal
    by_cone = {record.ray_indices: record for record in report.cones}
    assert by_cone[(0, 1, 2)].singularity == "smooth"
    assert by_cone[(1, 2, 3)].singularity == "smooth"
    assert by_cone[(0, 1, 3)].singularity == "1/3(1,1,2)"
    assert by_cone[(0, 1, 3)].multiplicity == 3
    assert by_cone[(0, 2, 3)].singularity == "1/2(1,1,1)"
    assert by_cone[(0, 2, 3)].multiplicity == 2
    assert all(record.terminal for record in report.cones)


def test_analyze_p3_and_p1112():
    p3 = analyze(build_wps_fan(1, 1, 1, 1))
    assert p3.valid and p3.complete and p3.class_rank == 1
    assert all(record.singularity == "smooth" for record in p3.cones)

    p1112 = analyze(build_wps_fan(1, 1, 1, 2))
    singular = [record for record in p1112.cones if record.singularity != "smooth"]
    assert len(singular) == 1
    assert singular[0].singularity == "1/2(1,1,1)"
    assert singular[0].terminal is True
    assert p1112.class_rank == 1



def test_analyze_of_smooth_complete_fans_needs_no_smith_form(monkeypatch):
    # a unimodular cone is smooth by its determinant alone
    rays, fan_cones = oracles.stellar_fan(random.Random(5), 20, span=1)
    fans = [build_wps_fan(1, 1, 1, 1), make_fan("stellar", rays, fan_cones)]

    def refuse(m):
        raise AssertionError("smith_normal_form called")

    monkeypatch.setattr(lattice, "smith_normal_form", refuse)
    monkeypatch.setattr(quotients, "smith_normal_form", refuse, raising=False)
    for fan in fans:
        report = analyze(fan)
        assert report.valid and report.complete
        assert {record.singularity for record in report.cones} == {"smooth"}

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(oracles.FAN_KINDS), st.booleans(), st.booleans())
def test_analyze_records_match_the_per_cone_oracle(seed, kind, mapped, reversed_cones):
    rng = random.Random(seed)
    rays, fan_cones = oracles.moved_stellar_or_mutant(rng, kind, mapped, reversed_cones)
    fan = make_fan(kind, rays, fan_cones)
    report = analyze(fan)
    if validate_fan(fan).cones_computable:
        assert report.cones == oracles.cone_records_by_cones(fan)
    else:
        assert report.cones == ()


@pytest.mark.parametrize("name", ["stellar", "stellar-overlap", "clockwise"])
def test_analyze_takes_one_kernel_per_cone(monkeypatch, name):
    original = lattice.det_adjugate3
    calls = []

    def counted(m):
        calls.append(m)
        return original(m)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("toricctl") and getattr(module, "det_adjugate3", None) is original:
            monkeypatch.setattr(module, "det_adjugate3", counted)
    fan = load_fan(FANS / f"{name}.json")
    report = analyze(fan)
    assert report.valid == (name != "stellar-overlap")
    assert len(calls) == len(fan.cones)


def test_analyze_invalid_fan():
    fan = make_fan(
        "overlap",
        [E1, E2, E3, (1, 1, 1), (-1, 0, 0)],
        [(0, 1, 2), (3, 1, 4)],
    )
    report = analyze(fan)
    assert not report.valid
    assert not report.q_factorial
    assert report.class_rank is None
    assert report.violations
    # individually fine cones still get their audit rows
    assert len(report.cones) == 2


def test_analyze_skips_cone_audit_for_bad_rays_and_degenerate_cones():
    degenerate = make_fan("degen", [E1, E2, (1, 1, 0), E3], [(0, 1, 2), (0, 1, 3)])
    non_primitive = make_fan("fat", [E1, E2, (0, 0, 2)], [(0, 1, 2)])
    for fan, problem in ((degenerate, "degenerate"), (non_primitive, "not primitive")):
        report = analyze(fan)
        assert not report.valid
        assert report.cones == () and not report.all_terminal
        assert any(problem in v for v in report.violations)


def test_analyze_report_serializes():
    report = analyze(build_wps_fan(1, 1, 2, 3))
    data = report.to_dict()
    assert json.loads(json.dumps(data)) == data
    assert data["rays"] == 4 and data["max_cones"] == 4
    assert data["class_rank"] == 1
    text = "\n".join(report.text_lines())
    assert "1/3(1,1,2)" in text and "1/2(1,1,1)" in text


def test_class_group_rank_examples():
    assert analyze(build_wps_fan(1, 1, 2, 3)).class_rank == 1
    assert analyze(build_wps_fan(1, 1, 1, 1)).class_rank == 1
    rays = [E1, E2, E3, (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    cones = [(i, j, k) for i in (0, 3) for j in (1, 4) for k in (2, 5)]
    assert analyze(make_fan("(P1)^3", rays, cones)).class_rank == 3


def test_class_group_rank_preconditions():
    assert analyze(make_fan("unit", [E1, E2, E3], [(0, 1, 2)])).class_rank is None  # incomplete
    assert analyze(make_fan("degen", [E1, E2, (1, 1, 0)], [(0, 1, 2)])).class_rank is None


# -- linking equations ------------------------------------------------------------


def test_linking_solutions_examples():
    assert [(s.n, s.m, s.mu, s.nu) for s in solve_linking_equations(10)] == [(3, 2, 1, 2)]
    assert solve_linking_equations(2) == []
    with pytest.raises(ValueError):
        solve_linking_equations(1)
    with pytest.raises(ValueError):
        solve_linking_equations(0)


def test_linking_solutions_monotone_in_bound():
    small = {(s.n, s.m) for s in solve_linking_equations(50)}
    large = {(s.n, s.m) for s in solve_linking_equations(5000)}
    assert small <= large
    assert large == {(3, 2)}


def test_linking_closed_form_matches_enumeration():
    for bound in range(2, 2001):
        found = [(s.n, s.m, s.mu, s.nu) for s in solve_linking_equations(bound)]
        assert found == linking_solutions(bound), bound


def test_linking_solution_validation():
    s = LinkingSolution(3, 2, 1, 2)
    assert s.m == s.mu * s.n - 1 and s.n == s.nu * s.m - 1
    with pytest.raises(ValueError):
        LinkingSolution(4, 3, 1, 2)  # fails the second equation
    with pytest.raises(ValueError):
        LinkingSolution(2, 3, 1, 1)  # n > m violated
    with pytest.raises(ValueError):
        LinkingSolution(6, 4, 1, 1)  # not coprime (and wrong anyway)


# -- case 1 classification -----------------------------------------------------------


def test_classify_case1_bound_10():
    records = classify_case1(10)
    assert len(records) == 1
    record = records[0]
    assert (record.solution.n, record.solution.m) == (3, 2)
    assert record.ray == (-2, -3, -1)
    assert sorted(record.singularities) == ["1/2(1,1,1)", "1/3(1,1,2)"]
    assert record.equivalent_to == "P(1,1,2,3)"
    assert record.labelings_agree
    assert record.ok
    assert record.report.valid and record.report.complete
    assert record.report.class_rank == 1


def test_classify_case1_trivial_and_stable():
    assert classify_case1(2) == []
    ten = [r.to_dict() for r in classify_case1(10)]
    hundred = [r.to_dict() for r in classify_case1(100)]
    assert ten == hundred


def test_classify_case1_records_serialize():
    for record in classify_case1(10):
        data = record.to_dict()
        assert json.loads(json.dumps(data)) == data


# -- fan equivalence -------------------------------------------------------------------


def test_fan_lattice_equivalent_self():
    fan = build_wps_fan(1, 1, 2, 3)
    g = fan_lattice_equivalent(fan, fan)
    assert g is not None
    mapped = {mat_vec(g, ray) for ray in fan.rays}
    assert mapped == set(fan.rays)


def test_fan_lattice_equivalent_distinguishes():
    assert fan_lattice_equivalent(build_wps_fan(1, 1, 2, 3), build_wps_fan(1, 1, 1, 1)) is None
    assert fan_lattice_equivalent(build_wps_fan(1, 1, 1, 2), build_wps_fan(1, 1, 1, 1)) is None
