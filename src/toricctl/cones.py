"""Simplicial rational polyhedral cones in Z^3 and fans built from them.

Only full-dimensional simplicial cones are supported as maximal cones; faces
are derived on the fly, never stored.  All geometry is decided by exact
integer arithmetic: determinants and facet normals come from the closed-form
3x3 kernel ``lattice.det_adjugate3`` (rows of the adjugate are cross products
of rays), and every test is the sign of a dot product with such a normal, so
validity and completeness verdicts are never approximate.

A ``Cone`` keeps the kernel it was checked with, so its multiplicity and
quotient type need no second evaluation.  ``validate_fan`` evaluates the
kernel once per cone and hands the results back in ``FanValidation.kernels``,
together with the completeness verdict of its fast accept, so that a caller
auditing the fan (``varieties.analyze``) builds each cone from its kernel
(``Cone.from_kernel``) instead of checking and evaluating it again, and needs
no ``is_complete``.  ``Fan.simplicial_cone`` and ``is_complete`` remain for
library callers and as the tests' cross-checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .lattice import Matrix, Vector, _cross, det_adjugate3, is_primitive


class FanFormatError(ValueError):
    """Raised when a fan file does not follow the documented JSON schema."""


@dataclass(frozen=True)
class Cone:
    """A full-dimensional simplicial cone in Z^3, given by 3 primitive rays."""

    rays: tuple[Vector, Vector, Vector]
    # ``_facet_normals`` of the rays: the determinant of the ray matrix and
    # the inward facet normals, from the one kernel call that also rejects a
    # degenerate triple; ``quotient_type`` and ``cone_multiplicity`` read it
    kernel: tuple[int, Normals] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.rays) != 3:
            raise ValueError("a simplicial cone in Z^3 needs exactly 3 rays")
        for ray in self.rays:
            if len(ray) != 3 or any(type(x) is not int for x in ray):
                raise ValueError(f"ray {ray!r} is not an integer vector of length 3")
            if not is_primitive(ray):
                raise ValueError(f"ray {ray} is not primitive")
        kernel = _facet_normals(self.rays)
        if kernel[0] == 0:
            raise ValueError(f"degenerate cone: rays {self.rays} are linearly dependent")
        object.__setattr__(self, "kernel", kernel)

    @classmethod
    def from_kernel(cls, rays: tuple[Vector, Vector, Vector], kernel: tuple[int, Normals]) -> Cone:
        """The cone on rays that ``validate_fan`` found primitive and not
        degenerate, with the kernel it computed for them; no check is repeated."""
        cone = object.__new__(cls)
        object.__setattr__(cone, "rays", rays)
        object.__setattr__(cone, "kernel", kernel)
        return cone

    def ray_matrix(self) -> Matrix:
        """The 3x3 matrix whose columns are the rays."""
        return tuple(zip(*self.rays))


def make_cone(r1: Sequence[int], r2: Sequence[int], r3: Sequence[int]) -> Cone:
    return Cone((tuple(r1), tuple(r2), tuple(r3)))


def cone_multiplicity(c: Cone) -> int:
    """Index of the sublattice spanned by the rays; 1 means smooth."""
    return abs(c.kernel[0])


Normals = tuple[Vector, Vector, Vector]


def _facet_normals(rays: Sequence[Vector]) -> tuple[int, Normals]:
    """Determinant of the ray matrix and the inward facet normals of its cone.

    Row ``k`` of the adjugate of the matrix with the rays as columns satisfies
    ``n_k . r_j == det`` when ``j == k`` and 0 otherwise.  Flipping all three
    rows by the sign of ``det`` makes them point inward.  For a degenerate
    triple the determinant is 0 and the normals are meaningless.
    """
    d, normals = det_adjugate3(tuple(zip(*rays)))
    if d < 0:
        normals = tuple(tuple(-x for x in n) for n in normals)
    return d, normals


@dataclass(frozen=True)
class Fan:
    """A fan given by its ray table and maximal cones as ray-index triples.

    The constructor only enforces structural well-formedness (shapes, index
    ranges, distinct indices per cone); geometric validity is the business of
    :func:`validate_fan` so that broken fans can be loaded and diagnosed.
    """

    name: str
    rays: tuple[Vector, ...]
    cones: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        for ray in self.rays:
            if len(ray) != 3 or any(type(x) is not int for x in ray):
                raise ValueError(f"ray {ray!r} is not an integer vector of length 3")
        for cone in self.cones:
            if len(cone) != 3 or len(set(cone)) != 3:
                raise ValueError(f"cone {cone!r} must consist of 3 distinct ray indices")
            for idx in cone:
                if type(idx) is not int or not 0 <= idx < len(self.rays):
                    raise ValueError(f"cone {cone!r} has ray index out of range")

    def cone_rays(self, k: int) -> tuple[Vector, Vector, Vector]:
        i, j, l = self.cones[k]
        return (self.rays[i], self.rays[j], self.rays[l])

    def simplicial_cone(self, k: int) -> Cone:
        return Cone(self.cone_rays(k))


def make_fan(
    name: str, rays: Iterable[Sequence[int]], cones: Iterable[Sequence[int]]
) -> Fan:
    return Fan(
        name,
        tuple(tuple(r) for r in rays),
        tuple(tuple(c) for c in cones),
    )


@dataclass(frozen=True)
class FanValidation:
    problems: tuple[str, ...]
    # every ray is primitive and no cone is degenerate, so every cone has a
    # quotient singularity type
    cones_computable: bool
    # ``_facet_normals`` of each cone, in cone order: the determinant of its
    # ray matrix and its inward facet normals (meaningless when det is 0)
    kernels: tuple[tuple[int, Normals], ...]
    # the fast accept ran and certified the fan valid and complete; False
    # also when it did not run
    complete: bool

    @property
    def ok(self) -> bool:
        return not self.problems


def _intersection_is_common_face(
    fan: Fan, normals: Sequence[Normals | None], ca: int, cb: int
) -> bool:
    """Exact check that two maximal cones intersect in the cone on their shared rays.

    ``normals[k]`` holds the inward facet normals of cone ``k``.  The
    intersection of the two simplicial cones is cut out by their 6 normals;
    each of its extreme rays is, up to sign, the cross product of two of them,
    so it suffices to test every such candidate that satisfies all 6.  A
    candidate ``x`` lies in cone A, so ``x = sum_k (n_k . x / |det A|) r_k``
    with ``n_k`` the normal of A opposite ray ``k``; it lies in the cone on the
    shared rays iff ``n_k . x == 0`` for every ray ``k`` of A that B does not
    share.  Rays are shared by index, as in the fan's cone table.  Most pairs
    of a fan are settled first, and far more cheaply, by ``_separated``.
    """
    if _separated(fan, normals, ca, cb) or _separated(fan, normals, cb, ca):
        return True
    all_normals = normals[ca] + normals[cb]
    others = fan.cones[cb]
    unshared = [all_normals[k] for k, i in enumerate(fan.cones[ca]) if i not in others]
    for n, m in combinations(all_normals, 2):
        x0, x1, x2 = _cross(n, m)
        # x or -x is a candidate iff no two of the 6 dots have opposite signs
        positive = negative = False
        for n0, n1, n2 in all_normals:
            t = n0 * x0 + n1 * x1 + n2 * x2
            if t > 0:
                if negative:
                    break
                positive = True
            elif t < 0:
                if positive:
                    break
                negative = True
        else:
            # x == 0 passes here, as all its dots are 0
            if any(n0 * x0 + n1 * x1 + n2 * x2 for n0, n1, n2 in unshared):
                return False
    return True


def _separated(fan: Fan, normals: Sequence[Normals], ca: int, cb: int) -> bool:
    """Does a facet plane of cone A separate it from cone B, apart from their shared rays?

    Tries each inward normal ``n`` of A opposite a ray that B does not share
    (rays are shared by index).  ``n`` vanishes on the other two rays of A, so
    on every shared ray; if ``n . b < 0`` for every unshared ray ``b`` of B,
    then a point ``x = sum_b c_b b`` of B with ``c_b >= 0`` has ``n . x <= 0``,
    with equality only when every unshared ``c_b`` is 0, while ``n . x >= 0``
    on A.  So A and B meet exactly in the cone on their shared rays, for 3
    dot products per normal.  False says nothing: the exact check decides.
    """
    own, others = fan.cones[ca], fan.cones[cb]
    unshared_b = [fan.rays[j] for j in others if j not in own]
    for i, (n0, n1, n2) in zip(own, normals[ca]):
        if i in others:
            continue
        for x, y, z in unshared_b:
            if n0 * x + n1 * y + n2 * z >= 0:
                break
        else:
            return True
    return False


def _fast_accept(fan: Fan, normals: Sequence[Normals]) -> bool:
    """Local-to-global certificate that a fan with good rays and cones is valid and complete.

    True when the fan has a cone and
      * every wall (pair of ray indices of a cone) lies in exactly two cones;
      * the two cones of each wall meet exactly in it, by the pairwise
        check; as neither is degenerate, they lie strictly on opposite sides
        of it (``_separated`` sees this with one dot product);
      * the sum ``p`` of the rays of cone 0 lies in no other closed cone.

    Proof (the degree argument; Cox-Little-Schenck, *Toric Varieties*, ch. 3,
    and Oda, *Convex Bodies and Algebraic Geometry*, section 1).  The cones,
    as triangles glued along their walls by ray index, form a closed
    pseudomanifold K (first condition), and radial projection maps each
    triangle injectively onto a spherical triangle, giving f: K -> S^2.  f is
    a local homeomorphism inside each triangle and, by the second condition,
    at every point inside a wall, so at every point but the vertices.  Let V
    be the finite set of ray directions: f from K minus the preimage of V to
    S^2 minus V is proper and a local homeomorphism, hence a covering of a
    connected space, with a constant number of sheets.  ``p`` lies inside
    cone 0 and, by the third condition, in no other cone, so it is not in V
    and has one preimage: there is one sheet.  If a point of V had two
    preimages, or the cones around one ray formed two cycles or wound twice
    around it (a pinch or a double winding), points near it would have two
    preimages.  So f is a bijection, a homeomorphism of compact spaces.  Two
    cones therefore meet in the image of the common face of their triangles,
    the cone on their shared rays, which is what the pairwise check tests,
    and the cones cover R^3.

    Conversely, take a fan with no ray or cone problem (rays primitive and
    distinct, cones non-degenerate and distinct) that is valid and complete.
    Every wall lies in exactly two cones, by the criterion of
    ``is_complete``.  The two cones of each wall meet in that wall, since the
    pairwise check is exact.  The ray sum ``p`` of cone 0 lies in the
    interior of cone 0; if ``p`` lay in another closed cone B, then cone 0
    meet B would be a face of cone 0 containing an interior point, so cone 0
    would equal B, a duplicate cone or a duplicate ray, both reported as
    problems.  So on such fans this returns True iff the fan is valid and
    complete, and ``FanValidation.complete`` is the completeness verdict.

    So the pairwise check runs on the 3C/2 pairs of cones that share a wall
    instead of all C(C-1)/2 pairs: O(C) for C cones.  A valid fan that is not
    complete fails the first condition, so its validation stays O(C^2).
    """
    if not fan.cones:
        return False
    for sides in fan_walls(fan).values():
        if len(sides) != 2 or not _intersection_is_common_face(fan, normals, *sides):
            return False
    px, py, pz = (sum(axis) for axis in zip(*fan.cone_rays(0)))
    return not any(
        all(n0 * px + n1 * py + n2 * pz >= 0 for n0, n1, n2 in cone_normals)
        for cone_normals in normals[1:]
    )


def validate_fan(fan: Fan) -> FanValidation:
    """Report all geometric violations: bad rays, degenerate cones, bad intersections.

    A fan with no ray or cone problem is first offered to ``_fast_accept``,
    which certifies a valid complete fan in O(C).  Otherwise every pair of
    cones goes through the exact ``_intersection_is_common_face``, so the
    problem list is that of the exact check on every pair.

    The result also carries what the checks computed anyway: each cone's
    determinant and inward facet normals (one ``det_adjugate3`` call per
    cone), and whether the fast accept passed, which by its converse is
    whether the fan is valid and complete.
    """
    problems: list[str] = []
    for i, ray in enumerate(fan.rays):
        if not is_primitive(ray):
            problems.append(f"ray {i} = {list(ray)} is not primitive")
    rays_primitive = not problems
    seen: dict[Vector, int] = {}
    for i, ray in enumerate(fan.rays):
        if ray in seen:
            problems.append(f"ray {i} duplicates ray {seen[ray]}")
        else:
            seen[ray] = i
    kernels = tuple(_facet_normals(fan.cone_rays(k)) for k in range(len(fan.cones)))
    normals: list[Normals | None] = []
    for cone, (d, cone_normals) in zip(fan.cones, kernels):
        if d == 0:
            normals.append(None)
            problems.append(f"cone {list(cone)} is degenerate (rays linearly dependent)")
        else:
            normals.append(cone_normals)
    cone_sets = {}
    for k, cone in enumerate(fan.cones):
        key = frozenset(cone)
        if key in cone_sets:
            problems.append(f"cone {list(cone)} duplicates cone {list(fan.cones[cone_sets[key]])}")
        else:
            cone_sets[key] = k
    if not problems and _fast_accept(fan, normals):
        return FanValidation((), True, kernels, True)
    if rays_primitive:
        for ca, cb in combinations(range(len(fan.cones)), 2):
            if normals[ca] is None or normals[cb] is None:
                continue
            if not _intersection_is_common_face(fan, normals, ca, cb):
                problems.append(
                    f"cones {list(fan.cones[ca])} and {list(fan.cones[cb])} "
                    "do not intersect in a common face"
                )
    return FanValidation(
        tuple(problems), rays_primitive and None not in normals, kernels, False
    )


def fan_walls(fan: Fan) -> dict[tuple[int, int], list[int]]:
    """The 2-dimensional faces, as sorted ray-index pairs, each with the
    indices of the maximal cones that contain it."""
    walls: dict[tuple[int, int], list[int]] = {}
    for k, cone in enumerate(fan.cones):
        for pair in combinations(sorted(cone), 2):
            walls.setdefault(pair, []).append(k)
    return walls


def is_complete(fan: Fan) -> bool:
    """Wall criterion for completeness of a valid pure simplicial fan in Z^3.

    True iff the fan has a cone and every wall lies in exactly two maximal
    cones.  Proof of sufficiency for a valid fan: two cones on a wall meet
    exactly in that wall, so they lie on opposite sides of it and cover a
    neighbourhood of each point inside the wall.  Around each ray the cones
    containing it follow one another wall by wall and close up into cycles,
    and two such cycles cannot overlap, so they cover a neighbourhood of each
    point of the ray but 0.  The support minus 0 is thus open in R^3 minus 0,
    and closed as a finite union of closed cones; R^3 minus 0 is connected, so
    a nonempty support is all of R^3.  Callers are expected to have validated
    the fan first; degenerate cones are rejected here outright.

    ``validate_fan`` already decides completeness through its fast accept
    (``FanValidation.complete``), which is what ``varieties.analyze`` reads;
    this function stays for library callers and as the tests' cross-check.
    """
    if not fan.cones:
        return False
    for k in range(len(fan.cones)):
        if det_adjugate3(tuple(zip(*fan.cone_rays(k))))[0] == 0:
            raise ValueError(f"cone {list(fan.cones[k])} is degenerate")
    return all(len(cones) == 2 for cones in fan_walls(fan).values())


# ---------------------------------------------------------------------------
# Fan file format:
#   { "name": str, "dim": 3, "rays": [[int,int,int], ...], "cones": [[i,j,k], ...] }
# with 0-based ray indices.


def fan_to_dict(fan: Fan) -> dict:
    return {
        "name": fan.name,
        "dim": 3,
        "rays": [list(ray) for ray in fan.rays],
        "cones": [list(cone) for cone in fan.cones],
    }


def fan_to_json(fan: Fan) -> str:
    return json.dumps(fan_to_dict(fan), indent=2) + "\n"


def _require_int(value, where: str) -> int:
    if type(value) is not int:
        raise FanFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def fan_from_dict(data) -> Fan:
    if not isinstance(data, dict):
        raise FanFormatError("fan document must be a JSON object")
    for key in ("name", "dim", "rays", "cones"):
        if key not in data:
            raise FanFormatError(f"missing required field '{key}'")
    if not isinstance(data["name"], str):
        raise FanFormatError("'name' must be a string")
    if type(data["dim"]) is not int or data["dim"] != 3:
        raise FanFormatError(f"'dim' must be the integer 3, got {data['dim']!r}")
    for key in ("rays", "cones"):
        if not isinstance(data[key], list):
            raise FanFormatError(f"'{key}' must be a list, got {type(data[key]).__name__}")
    rays = []
    for i, ray in enumerate(data["rays"]):
        if not isinstance(ray, list) or len(ray) != 3:
            raise FanFormatError(f"rays[{i}]: expected a list of 3 integers")
        rays.append(tuple(_require_int(x, f"rays[{i}][{j}]") for j, x in enumerate(ray)))
    cones = []
    for k, cone in enumerate(data["cones"]):
        if not isinstance(cone, list) or len(cone) != 3:
            raise FanFormatError(f"cones[{k}]: expected a list of 3 ray indices")
        idx = tuple(_require_int(x, f"cones[{k}][{j}]") for j, x in enumerate(cone))
        for j, x in enumerate(idx):
            if not 0 <= x < len(rays):
                raise FanFormatError(f"cones[{k}][{j}]: ray index {x} out of range")
        if len(set(idx)) != 3:
            raise FanFormatError(f"cones[{k}]: ray indices must be distinct")
        cones.append(idx)
    return Fan(data["name"], tuple(rays), tuple(cones))


def fan_from_json(text: str) -> Fan:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over the digit limit
        raise FanFormatError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FanFormatError("invalid JSON: nested too deeply") from exc
    return fan_from_dict(data)


def load_fan(path) -> Fan:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise FanFormatError(f"not UTF-8 text: {exc}") from exc
    return fan_from_json(text)


def save_fan(fan: Fan, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(fan_to_json(fan))
