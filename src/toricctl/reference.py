"""Built-in reference computations with pinned expected results.

``run_reference_suite`` executes the full battery that the ``reproduce-paper``
subcommand exposes: the P(1,1,2,3) fan audit, the unimodular normal-form
checks on its singular cones, the standard-cone types, the uniqueness of the
linking-equation solution, the reconstruction of the rank-one split fan, and
the invariant-ideal verification.  Expected values live in ``EXPECTED`` so a
test harness can corrupt them deliberately and watch the suite fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import make_cone
from .lattice import mat_vec
from .quotients import lattice_equivalent, quotient_type, standard_cone
from .sl2 import (
    DEFAULT_SPOT_CHECK_SEED,
    quadric_family_sanity,
    quotient_images_sign_invariant,
    rep_weights,
    verify_invariant_ideal,
)
from .varieties import analyze, build_wps_fan, classify_case1, solve_linking_equations

EXPECTED = {
    "wps_1123_singularities": {
        (0, 1, 2): "smooth",
        (0, 1, 3): "1/3(1,1,2)",
        (0, 2, 3): "1/2(1,1,1)",
        (1, 2, 3): "smooth",
    },
    "wps_1123_class_rank": 1,
    "ray_flip_matrix": ((1, 0, 0), (0, 1, 0), (0, 0, -1)),
    "standard_cone_types": {1: "smooth", 2: "1/2(1,1,1)", 3: "1/3(1,1,2)"},
    "linking_solutions": ((3, 2, 1, 2),),
    "case1_match": "P(1,1,2,3)",
}

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
V_1123 = (-1, -2, -3)


@dataclass(frozen=True)
class ReferenceCheck:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ReferenceReport:
    seed: int
    checks: tuple[ReferenceCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "checks": [check.to_dict() for check in self.checks],
            "all_passed": self.all_passed,
        }


def _check_wps_1123() -> ReferenceCheck:
    report = analyze(build_wps_fan(1, 1, 2, 3))
    expected = EXPECTED["wps_1123_singularities"]
    found = {record.ray_indices: record.singularity for record in report.cones}
    problems = []
    if not (report.valid and report.complete and report.q_factorial):
        problems.append("fan is not a valid complete q-factorial fan")
    if report.ray_count != 4 or report.cone_count != 4:
        problems.append(f"expected 4 rays / 4 cones, found {report.ray_count}/{report.cone_count}")
    if found != expected:
        problems.append(f"singularities {found} != expected {expected}")
    if not report.all_terminal:
        problems.append("not all cones terminal")
    if report.class_rank != EXPECTED["wps_1123_class_rank"]:
        problems.append(f"class rank {report.class_rank}")
    detail = "; ".join(problems) if problems else (
        "valid complete fan, singular cones 1/3(1,1,2) and 1/2(1,1,1), "
        "all terminal, class rank 1"
    )
    return ReferenceCheck("wps_1123_analysis", not problems, detail)


def _check_ray_flip() -> ReferenceCheck:
    g = lattice_equivalent(
        make_cone(E1, E2, V_1123), make_cone(E1, E2, (-1, -2, 3))
    )
    expected = EXPECTED["ray_flip_matrix"]
    passed = g == expected
    detail = f"found {g}, expected {expected}"
    return ReferenceCheck("diag_1_1_minus1_equivalence", passed, detail)


def _check_sheared_cone() -> ReferenceCheck:
    shear = ((1, 0, 0), (0, 1, 0), (0, -1, 1))
    image = mat_vec(shear, V_1123)  # = (-1, -2, -1)
    base = make_cone(E1, E3, V_1123)
    computed = make_cone(E1, E3, image)
    variant = make_cone(E1, E3, (-1, 2, -1))  # sign variant with the same type
    ok_computed = lattice_equivalent(base, computed) is not None
    ok_variant = lattice_equivalent(base, variant) is not None
    types = {str(quotient_type(c)) for c in (base, computed, variant)}
    passed = ok_computed and ok_variant and types == {"1/2(1,1,1)"}
    detail = (
        f"shear image {image}; equivalent: computed={ok_computed}, "
        f"sign-variant={ok_variant}; types={sorted(types)}"
    )
    return ReferenceCheck("sheared_cone_equivalence", passed, detail)


def _check_standard_cones() -> ReferenceCheck:
    expected = EXPECTED["standard_cone_types"]
    found = {n: str(quotient_type(standard_cone(n))) for n in sorted(expected)}
    passed = found == expected
    return ReferenceCheck("standard_cone_types", passed, f"found {found}")


def _check_linking() -> ReferenceCheck:
    solutions = tuple(
        (s.n, s.m, s.mu, s.nu) for s in solve_linking_equations(10**6)
    )
    expected = EXPECTED["linking_solutions"]
    passed = solutions == expected
    return ReferenceCheck(
        "linking_equations_to_1e6", passed, f"solutions {list(solutions)}"
    )


def _check_case1() -> ReferenceCheck:
    records = classify_case1(10)
    passed = (
        len(records) == 1
        and records[0].ok
        and records[0].equivalent_to == EXPECTED["case1_match"]
        and records[0].ray == (-2, -3, -1)
        and records[0].labelings_agree
    )
    detail = (
        f"{len(records)} record(s); "
        + (
            f"ray {records[0].ray}, matched {records[0].equivalent_to}"
            if records
            else "no records"
        )
    )
    return ReferenceCheck("case1_reconstruction", passed, detail)


def _check_invariant_ideal(seed: int) -> ReferenceCheck:
    verification = verify_invariant_ideal(seed=seed)
    vanished = sum(1 for c in verification.checks if c.passed)
    symmetric = quotient_images_sign_invariant()
    passed = verification.all_vanish and symmetric
    detail = (
        f"{vanished}/{len(verification.checks)} generators vanish; "
        f"images sign-invariant: {symmetric}"
    )
    return ReferenceCheck("invariant_ideal_vanishes", passed, detail)


def _check_quadric_and_weights() -> ReferenceCheck:
    family_ok = quadric_family_sanity()
    weights_ok = all(
        sum(table.weights) == 0
        and len(table.weights) == table.k + 1
        and table.fixed_space_dim == 1 - table.k % 2
        for table in map(rep_weights, range(7))
    )
    passed = family_ok and weights_ok
    detail = f"quadric family ok: {family_ok}; weight tables k<=6 ok: {weights_ok}"
    return ReferenceCheck("quadric_family_and_weights", passed, detail)


def run_reference_suite(seed: int = DEFAULT_SPOT_CHECK_SEED) -> ReferenceReport:
    checks = (
        _check_wps_1123(),
        _check_ray_flip(),
        _check_sheared_cone(),
        _check_standard_cones(),
        _check_linking(),
        _check_case1(),
        _check_invariant_ideal(seed),
        _check_quadric_and_weights(),
    )
    return ReferenceReport(seed, checks)
