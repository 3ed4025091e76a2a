"""Fan-level analysis, weighted projective space fans, and the rank-one
classification of split fans over the projective line.

``analyze`` bundles validity, completeness, the per-cone singularity audit and
the class-group rank into one report.  ``build_wps_fan`` realizes a weighted
projective 3-space as a 4-ray fan.  ``solve_linking_equations`` and
``classify_case1`` mechanize the search for a 4-ray fan whose two singular
charts have types ``1/n(1,1,-1)`` and ``1/m(1,1,-1)`` linked by
``m = mu*n - 1`` and ``n = nu*m - 1``; the linking equations have one
solution, in closed form.  Ray-triple determinants and lattice equivalences
go through the 3x3 kernel ``lattice.det_adjugate3`` and ``lattice.unimodular_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import gcd

from .cones import Cone, Fan, validate_fan
from .lattice import Matrix, Vector, det_adjugate3, mat_vec, smith_normal_form, unimodular_solve
from .quotients import (
    CyclicQuotientType,
    is_terminal,
    normalize_type,
    quotient_type,
)


@dataclass(frozen=True)
class ConeRecord:
    ray_indices: tuple[int, int, int]
    multiplicity: int
    singularity: str
    terminal: bool | None  # None when the quotient is non-cyclic (out of scope)

    def to_dict(self) -> dict:
        return {
            "rays": list(self.ray_indices),
            "multiplicity": self.multiplicity,
            "type": self.singularity,
            "terminal": self.terminal,
        }


@dataclass(frozen=True)
class AnalysisReport:
    fan_name: str
    valid: bool
    violations: tuple[str, ...]
    q_factorial: bool
    complete: bool
    cones: tuple[ConeRecord, ...]
    class_rank: int | None
    all_terminal: bool
    ray_count: int
    cone_count: int

    def to_dict(self) -> dict:
        return {
            "name": self.fan_name,
            "valid": self.valid,
            "violations": list(self.violations),
            "q_factorial": self.q_factorial,
            "complete": self.complete,
            "rays": self.ray_count,
            "max_cones": self.cone_count,
            "cones": [record.to_dict() for record in self.cones],
            "class_rank": self.class_rank,
            "all_terminal": self.all_terminal,
        }

    def text_lines(self) -> list[str]:
        status = "valid" if self.valid else "INVALID"
        shape = "complete" if self.complete else "not complete"
        lines = [
            f"fan '{self.fan_name}': {status}, {shape}, "
            f"{self.ray_count} rays, {self.cone_count} maximal cones",
            f"q-factorial: {'yes' if self.q_factorial else 'no'}",
        ]
        for problem in self.violations:
            lines.append(f"  violation: {problem}")
        if self.cones:
            lines.append("cones:")
            for record in self.cones:
                flag = {True: "terminal", False: "not terminal", None: "terminal unknown"}[
                    record.terminal
                ]
                lines.append(
                    f"  cone {record.ray_indices}: mult {record.multiplicity}, "
                    f"type {record.singularity}, {flag}"
                )
            lines.append(f"all cones terminal: {'yes' if self.all_terminal else 'no'}")
        if self.class_rank is not None:
            lines.append(f"class group rank (rho over Q): {self.class_rank}")
        return lines


def analyze(fan: Fan) -> AnalysisReport:
    """Full audit: validity, completeness, per-cone singularity types, rank.

    Everything comes from one ``validate_fan`` call, which evaluates the 3x3
    kernel ``det_adjugate3`` once per cone: a cone's multiplicity is
    ``|det|``, its quotient type comes from its inward facet normals, which
    are the rows of the adjugate up to one common sign, and completeness is
    the verdict of the fast accept (see ``cones._fast_accept`` for why it is
    exact on a valid fan).  Each cone is built from its kernel, so nothing
    is checked or evaluated twice.
    """
    validation = validate_fan(fan)
    valid = validation.ok
    records: list[ConeRecord] = []
    if validation.cones_computable:
        for k, kernel in enumerate(validation.kernels):
            qt = quotient_type(Cone.from_kernel(fan.cone_rays(k), kernel))
            terminal = is_terminal(qt) if isinstance(qt, CyclicQuotientType) else None
            records.append(ConeRecord(tuple(fan.cones[k]), abs(kernel[0]), str(qt), terminal))
    complete = valid and validation.complete
    rank = len(fan.rays) - 3 if valid and complete else None
    all_terminal = bool(records) and all(record.terminal is True for record in records)
    return AnalysisReport(
        fan_name=fan.name,
        valid=valid,
        violations=validation.problems,
        q_factorial=valid,
        complete=complete,
        cones=tuple(records),
        class_rank=rank,
        all_terminal=all_terminal,
        ray_count=len(fan.rays),
        cone_count=len(fan.cones),
    )


def _well_formed(weights: tuple[int, int, int, int]) -> bool:
    return all(gcd(*triple) == 1 for triple in combinations(weights, 3))


def build_wps_fan(w0: int, w1: int, w2: int, w3: int) -> Fan:
    """The 4-ray fan of the weighted projective space P(w0, w1, w2, w3).

    Weights must be positive and well-formed (every triple coprime).  The rays
    are the images of the standard basis of Z^4 in Z^4 modulo the weight
    vector; for ``w0 == 1`` the basis of the quotient is chosen so that the
    rays come out as e1, e2, e3 and (-w1, -w2, -w3), with the last ray listed
    last.
    """
    weights = (w0, w1, w2, w3)
    if any(type(w) is not int or w < 1 for w in weights):
        raise ValueError(f"weights must be positive integers, got {weights}")
    if not _well_formed(weights):
        raise ValueError(f"weights {weights} are not well-formed (a triple has a common factor)")
    name = "P({},{},{},{})".format(*weights)
    if w0 == 1:
        rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-w1, -w2, -w3)]
    else:
        # Smith form of the weight column: U @ w = +-e1, so dropping the first
        # coordinate of U @ x projects Z^4 onto Z^4 / Z*w = Z^3.
        column = tuple((w,) for w in weights)
        _, u_mat, _ = smith_normal_form(column)
        rays = [tuple(u_mat[i][j] for i in range(1, 4)) for j in range(4)]
    fan = Fan(name, tuple(rays), tuple(combinations(range(4), 3)))
    for k, ray in enumerate(fan.rays):
        if gcd(*ray) != 1:
            raise AssertionError(f"constructed ray {k} = {ray} is not primitive")
    return fan


@dataclass(frozen=True)
class LinkingSolution:
    """A solution of m = mu*n - 1 and n = nu*m - 1 with n > m > 1 coprime."""

    n: int
    m: int
    mu: int
    nu: int

    def __post_init__(self) -> None:
        if not (self.n > self.m > 1):
            raise ValueError("need n > m > 1")
        if gcd(self.n, self.m) != 1:
            raise ValueError("n and m must be coprime")
        if self.m != self.mu * self.n - 1 or self.n != self.nu * self.m - 1:
            raise ValueError("linking equations are not satisfied")

    def to_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "mu": self.mu, "nu": self.nu}


def solve_linking_equations(bound: int) -> list[LinkingSolution]:
    """All linking solutions with n <= bound, in ascending order of n.

    There is exactly one, (n, m, mu, nu) = (3, 2, 1, 2).  Proof: with
    1 < m < n, ``m = mu*n - 1`` rules out mu <= 0 (then m < 0) and mu >= 2
    (then m >= 2n - 1 > n), so mu = 1 and m = n - 1.  The second equation
    becomes ``n + 1 = nu*(n - 1)``, so n - 1 divides (n + 1) - (n - 1) = 2;
    n - 1 = 1 would give m = 1, hence n - 1 = 2, n = 3, m = 2 and nu = 2.
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    return [LinkingSolution(3, 2, 1, 2)] if bound >= 3 else []


def fan_lattice_equivalent(f1: Fan, f2: Fan) -> Matrix | None:
    """A unimodular map sending rays of ``f1`` bijectively onto rays of ``f2``
    and maximal cones onto maximal cones, or None.

    Ray arrangements of ``f2`` are tried in lexicographic order against the
    first independent ray triple of ``f1``, so the answer is deterministic.
    """
    if len(f1.rays) != len(f2.rays) or len(f1.cones) != len(f2.cones):
        return None
    sources = (
        tuple(zip(*(f1.rays[i] for i in triple)))
        for triple in combinations(range(len(f1.rays)), 3)
    )
    base = next((source for source in sources if det_adjugate3(source)[0] != 0), None)
    if base is None:
        return None
    f2_cones = {frozenset(cone) for cone in f2.cones}
    for arrangement in permutations(range(len(f2.rays)), 3):
        g = unimodular_solve(base, tuple(zip(*(f2.rays[i] for i in arrangement))))
        if g is None:
            continue
        ray_index = {ray: i for i, ray in enumerate(f2.rays)}
        mapping = {}
        for i, ray in enumerate(f1.rays):
            vec = mat_vec(g, ray)
            if vec not in ray_index:
                break
            mapping[i] = ray_index[vec]
        if len(mapping) != len(f1.rays) or len(set(mapping.values())) != len(f1.rays):
            continue
        mapped_cones = {frozenset(mapping[i] for i in cone) for cone in f1.cones}
        if mapped_cones == f2_cones:
            return g
    return None


@dataclass(frozen=True)
class Case1Record:
    """Outcome of reconstructing the fan attached to one linking solution."""

    solution: LinkingSolution
    ray: Vector
    singularities: tuple[str, ...]
    expected_singularities: tuple[str, ...]
    report: AnalysisReport
    equivalent_to: str | None
    labelings_agree: bool
    ok: bool

    def to_dict(self) -> dict:
        return {
            "solution": self.solution.to_dict(),
            "ray": list(self.ray),
            "singularities": list(self.singularities),
            "expected_singularities": list(self.expected_singularities),
            "report": self.report.to_dict(),
            "equivalent_to": self.equivalent_to,
            "labelings_agree": self.labelings_agree,
            "ok": self.ok,
        }


def _split_fan(name: str, v: Vector) -> Fan:
    return Fan(
        name,
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), v),
        tuple(combinations(range(4), 3)),
    )


def classify_case1(bound: int) -> list[Case1Record]:
    """Reconstruct and audit the fan for every linking solution up to bound.

    For a solution (n, m) the constraints pin the fourth ray to
    ``v = (-m, -n, -1)`` up to relabeling the coordinates and swapping the
    roles of n and m; both labelings are built and must give lattice
    equivalent fans.  The reconstruction for (n, m) = (3, 2) must match the
    fan of P(1,1,2,3) under a unimodular ray bijection.
    """
    records: list[Case1Record] = []
    reference = build_wps_fan(1, 1, 2, 3)
    for solution in solve_linking_equations(bound):
        n, m = solution.n, solution.m
        v = (-m, -n, -1)
        fan = _split_fan(f"case1(n={n},m={m})", v)
        report = analyze(fan)
        singular = tuple(
            record.singularity for record in report.cones if record.multiplicity > 1
        )
        expected = tuple(
            sorted(
                str(normalize_type(CyclicQuotientType(r, (1, 1, r - 1)))) for r in (n, m)
            )
        )
        swapped = _split_fan(f"case1(n={n},m={m}) swapped", (-n, -m, -1))
        labelings_agree = fan_lattice_equivalent(fan, swapped) is not None
        equivalent_to = None
        if (n, m) == (3, 2) and fan_lattice_equivalent(fan, reference) is not None:
            equivalent_to = reference.name
        ok = (
            report.valid
            and report.complete
            and report.all_terminal
            and report.class_rank == 1
            and tuple(sorted(singular)) == expected
            and labelings_agree
            and equivalent_to is not None
        )
        records.append(
            Case1Record(
                solution=solution,
                ray=v,
                singularities=singular,
                expected_singularities=expected,
                report=report,
                equivalent_to=equivalent_to,
                labelings_agree=labelings_agree,
                ok=ok,
            )
        )
    return records
