"""Independent brute-force oracles used by the test suite.

Nothing in here calls into the library's normal-form or quotient machinery:
determinants and adjugates are written out as explicit 3x3 cofactor formulas,
lattice points are found by scanning the bounding box of the fundamental
parallelepiped, group structure is read off by literally iterating the group
law, fan validity and lattice equivalences are decided by ``Fraction``
Gaussian elimination, and polynomial substitution multiplies out one term at
a time with the ring operations of ``RingPoly``, a ``Poly`` whose operators
work on monomials keyed by (variable, exponent) pairs, independently of the
library's term tables.  Slow and dumb on purpose.

The one exception is ``quotient_type_by_smith_form``, the general Smith
normal form route that ``quotients.quotient_type`` took before its closed
form, kept as a cross-check on orders far beyond the reach of the
parallelepiped scan.  ``generators_by_operators`` and ``images_by_operators``
build the invariant-ideal generators and the quotient map with ``RingPoly``
operators, as ``sl2`` did before its literal term tables, and
``quadric_family_by_operators``, ``sign_invariant_by_flip`` and
``spot_check_failures_by_point`` are the ``sl2`` routes that the quadric
table, the parity test and the folded spot-check replaced.
``cone_records_by_cones`` builds ``analyze``'s per-cone records as it did
before it read them from ``validate_fan``'s kernels: a checked ``Cone`` per
maximal cone, then its own determinant and adjugate, classified without the
sign flip of the inward normals.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

from toricctl.lattice import det_adjugate3, mat_vec, smith_normal_form
from toricctl.quotients import (
    CyclicQuotientType,
    NonCyclicType,
    is_terminal,
    normalize_type,
    quotient_type_from_adjugate,
)
from toricctl.sl2 import SPOT_CHECK_RANGE, Poly
from toricctl.varieties import ConeRecord


def det3(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def adj3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


def fraction_solve(source, target):
    """The rational ``g`` with ``g @ source == target``, by Gauss-Jordan
    elimination over ``Fraction`` on ``[source | I]``; None if ``source`` is
    singular."""
    n = len(source)
    rows = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(source)
    ]
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[c])]
    inverse = [row[n:] for row in rows]
    return tuple(
        tuple(sum(t[k] * inverse[k][j] for k in range(n)) for j in range(n)) for t in target
    )


def linking_solutions(bound: int):
    """Linking solutions ``(n, m, mu, nu)`` with n <= bound, by walking n.

    With 1 < m < n the first equation forces mu = 1 and m = n - 1, so each n
    is tested for the divisibility (n - 1) | (n + 1) that the second needs.
    """
    solutions = []
    for n in range(3, bound + 1):
        m = n - 1
        nu, rem = divmod(n + 1, m)
        if rem == 0:
            solutions.append((n, m, 1, nu))
    return solutions


def normalize_type_by_units(r: int, weights):
    """The least sorted weight triple of 1/r(weights) over all phi(r) unit
    rescalings, by trying every unit."""
    if r == 1:
        return (0, 0, 0)
    return min(
        tuple(sorted(u * a % r for a in weights)) for u in range(1, r) if gcd(u, r) == 1
    )


def reid_tai_terminal(r: int, weights) -> bool:
    """Is 1/r(weights) terminal: does every Reid-Tai sum for k = 1..r-1 exceed 1?"""
    return all(sum(k * a % r for a in weights) > r for k in range(1, r))


def reid_tai_canonical(r: int, weights) -> bool:
    """Is 1/r(weights) canonical: is every Reid-Tai sum for k = 1..r-1 at least 1?"""
    return all(sum(k * a % r for a in weights) >= r for k in range(1, r))


def parallelepiped_points(rays):
    """All lattice points of the half-open parallelepiped spanned by the rays.

    Returns a dict mapping the scaled ray-coordinate triple ``c`` (so the
    actual coordinates are ``c / |det|``, each in ``[0, 1)``) to the lattice
    point itself.  The point count must equal ``|det|``.
    """
    cols = tuple(zip(*rays))  # rays become matrix columns
    d = det3(cols)
    if d == 0:
        raise ValueError("degenerate ray set")
    ad = abs(d)
    adj = adj3(cols)
    if d < 0:
        adj = tuple(tuple(-x for x in row) for row in adj)
    lo = [sum(min(0, rays[j][i]) for j in range(3)) for i in range(3)]
    hi = [sum(max(0, rays[j][i]) for j in range(3)) for i in range(3)]
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = adj
    points = {}
    for x in range(lo[0], hi[0] + 1):
        for y in range(lo[1], hi[1] + 1):
            c0xy = a00 * x + a01 * y
            c1xy = a10 * x + a11 * y
            c2xy = a20 * x + a21 * y
            for z in range(lo[2], hi[2] + 1):
                c0 = c0xy + a02 * z
                if not 0 <= c0 < ad:
                    continue
                c1 = c1xy + a12 * z
                if not 0 <= c1 < ad:
                    continue
                c2 = c2xy + a22 * z
                if not 0 <= c2 < ad:
                    continue
                points[(c0, c1, c2)] = (x, y, z)
    if len(points) != ad:
        raise AssertionError(f"expected {ad} lattice points, found {len(points)}")
    return points


def _element_order(c, modulus: int) -> int:
    order = 1
    current = c
    while any(current):
        current = tuple((a + b) % modulus for a, b in zip(current, c))
        order += 1
    return order


def oracle_quotient(rays):
    """Brute-force classification of Z^3 modulo the ray lattice.

    Returns ``("cyclic", r, weights)`` with the weights already minimized over
    all generators (which is exactly normalization), or
    ``("noncyclic", (d2, d3))`` with the nontrivial invariant factors.
    """
    points = parallelepiped_points(rays)
    ad = len(points)
    if ad == 1:
        return ("cyclic", 1, (0, 0, 0))
    orders = {c: _element_order(c, ad) for c in points}
    exponent = max(orders.values())
    if exponent == ad:
        weights = min(tuple(sorted(c)) for c, order in orders.items() if order == ad)
        return ("cyclic", ad, weights)
    d2 = ad // exponent
    if d2 < 2 or exponent % d2 != 0:
        raise AssertionError(f"inconsistent group structure: order {ad}, exponent {exponent}")
    return ("noncyclic", (d2, exponent))


def quotient_type_by_smith_form(rays):
    """``quotients.quotient_type`` of the cone on ``rays`` via the Smith
    normal form of the ray matrix.

    ``D = U R V`` identifies ``Z^3 / R Z^3`` with the product of the
    ``Z / d_i``; when cyclic, the class of the last column of ``U^-1``
    (``adj(U) = +-U^-1``) generates, and ``adj(R)`` applied to it gives
    ``r`` times its ray coordinates, up to sign, so the weights.
    """
    m = tuple(zip(*rays))
    dm, adj_m = det_adjugate3(m)
    if abs(dm) == 1:
        return CyclicQuotientType(1, (0, 0, 0))
    d_mat, u_mat, _ = smith_normal_form(m)
    factors = tuple(d_mat[i][i] for i in range(3))
    nontrivial = tuple(f for f in factors if f != 1)
    if len(nontrivial) >= 2:
        return NonCyclicType(nontrivial)
    r = factors[2]
    if abs(dm) != r:
        raise AssertionError(f"group order {r} differs from |det| = {abs(dm)}")
    generator = tuple(row[2] for row in det_adjugate3(u_mat)[1])
    weights = tuple(x % r for x in mat_vec(adj_m, generator))
    return normalize_type(CyclicQuotientType(r, weights))


def random_valid_cone_rays(rng: random.Random, max_multiplicity: int = 12, span: int = 5):
    """Rejection-sample 3 primitive rays with 0 < |det| <= max_multiplicity."""
    while True:
        rays = tuple(
            tuple(rng.randint(-span, span) for _ in range(3)) for _ in range(3)
        )
        if any(gcd(*ray) != 1 for ray in rays):
            continue
        d = det3(tuple(zip(*rays)))
        if d == 0 or abs(d) > max_multiplicity:
            continue
        return rays


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def primitive_part(v):
    g = gcd(*v)
    return tuple(x // g for x in v) if g else v


def _inward_normals(rays):
    cols = tuple(zip(*rays))
    sign = 1 if det3(cols) > 0 else -1
    return tuple(tuple(sign * x for x in row) for row in adj3(cols))


def _solve_nonneg_combination(rays, v) -> bool:
    """Is ``v`` a nonnegative rational combination of the given independent rays?"""
    if not rays:
        return all(x == 0 for x in v)
    # Gaussian elimination over Fraction on the 3 x len(rays) system.
    rows = [[Fraction(rays[j][i]) for j in range(len(rays))] + [Fraction(v[i])] for i in range(3)]
    ncols = len(rays)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, 3) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(3):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    # rays are independent, so every column is a pivot; leftover rows must vanish
    if len(pivots) != ncols:
        return False
    for i in range(r, 3):
        if rows[i][-1] != 0:
            return False
    coeffs = [rows[i][-1] for i in range(ncols)]
    return all(t >= 0 for t in coeffs)


def intersection_is_common_face(rays, cone_a, cone_b) -> bool:
    """Do two non-degenerate cones, given as ray-index triples, meet in the
    cone on their shared ray indices?

    Every extreme ray of the intersection is, up to sign, the cross product of
    two of the 6 inward facet normals; each such candidate that satisfies all
    6 is solved for as a nonnegative combination of the shared rays.
    """
    shared_rays = [rays[i] for i in sorted(set(cone_a) & set(cone_b))]
    normals = _inward_normals([rays[i] for i in cone_a]) + _inward_normals(
        [rays[i] for i in cone_b]
    )
    candidates = set()
    for n1, n2 in combinations(normals, 2):
        d = _cross(n1, n2)
        if d == (0, 0, 0):
            continue
        for cand in (d, tuple(-x for x in d)):
            if all(sum(n_i * c_i for n_i, c_i in zip(n, cand)) >= 0 for n in normals):
                candidates.add(primitive_part(cand))
    return all(_solve_nonneg_combination(shared_rays, cand) for cand in sorted(candidates))


def fan_problems(rays, cones) -> list[str]:
    """The violation list of a fan, in the order and wording of ``validate_fan``."""
    problems = []
    for i, ray in enumerate(rays):
        if gcd(*ray) != 1:
            problems.append(f"ray {i} = {list(ray)} is not primitive")
    for i, ray in enumerate(rays):
        if ray in rays[:i]:
            problems.append(f"ray {i} duplicates ray {rays.index(ray)}")
    degenerate = set()
    for k, cone in enumerate(cones):
        if det3(tuple(zip(*(rays[i] for i in cone)))) == 0:
            degenerate.add(k)
            problems.append(f"cone {list(cone)} is degenerate (rays linearly dependent)")
    for k, cone in enumerate(cones):
        first = next(j for j in range(k + 1) if set(cones[j]) == set(cone))
        if first < k:
            problems.append(f"cone {list(cone)} duplicates cone {list(cones[first])}")
    if any(gcd(*ray) != 1 for ray in rays):
        return problems
    for ca, cb in combinations(range(len(cones)), 2):
        if ca in degenerate or cb in degenerate:
            continue
        if not intersection_is_common_face(rays, cones[ca], cones[cb]):
            problems.append(
                f"cones {list(cones[ca])} and {list(cones[cb])} do not intersect in a common face"
            )
    return problems


def stellar_fan(rng: random.Random, stars: int, span: int = 3):
    """A complete simplicial fan: P^3's fan with ``stars`` random stellar subdivisions.

    Each step replaces a random cone by the three cones joining its walls to
    a primitive lattice point strictly inside it, so the fan stays complete
    and every cone stays non-degenerate; cones need not stay smooth.
    """
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = [tuple(c) for c in combinations(range(4), 3)]
    for _ in range(stars):
        a, b, c = cones.pop(rng.randrange(len(cones)))
        x, y, z = (rng.randint(1, span) for _ in range(3))
        inside = tuple(x * p + y * q + z * s for p, q, s in zip(rays[a], rays[b], rays[c]))
        rays.append(primitive_part(inside))
        n = len(rays) - 1
        cones += [(a, b, n), (a, n, c), (n, b, c)]
    return rays, cones


def add_ray(rays, ray) -> int:
    """The index of ``ray`` in the list ``rays``, appending it if it is new."""
    if ray in rays:
        return rays.index(ray)
    rays.append(ray)
    return len(rays) - 1


FAN_KINDS = ("stellar", "overlap", "removed", "perturbed")


def stellar_or_mutant(rng: random.Random, kind: str):
    """A small stellar fan (valid and complete), or a mutant of one.

    ``overlap`` adds a cone on two rays of an old cone and a point inside it;
    ``removed`` drops a random cone; ``perturbed`` moves one ray to a random
    primitive vector, so the cones around it may fold over one another while
    every wall still lies in two cones.
    """
    rays, fan_cones = stellar_fan(rng, rng.randint(0, 4), span=rng.randint(1, 3))
    if kind == "overlap":
        a, b, c = rng.choice(fan_cones)
        x, y, z = (rng.randint(1, 3) for _ in range(3))
        inside = tuple(x * p + y * q + z * t for p, q, t in zip(rays[a], rays[b], rays[c]))
        fan_cones.append((a, b, add_ray(rays, primitive_part(inside))))
    elif kind == "removed":
        fan_cones.pop(rng.randrange(len(fan_cones)))
    elif kind == "perturbed":
        while True:
            ray = tuple(rng.randint(-3, 3) for _ in range(3))
            if any(ray):
                break
        rays[rng.randrange(len(rays))] = primitive_part(ray)
    return rays, fan_cones


def moved_stellar_or_mutant(rng: random.Random, kind: str, mapped: bool, reversed_cones: bool):
    """``stellar_or_mutant``, with its rays moved by ``random_unimodular``
    when ``mapped``, and with every cone's rays listed backwards when
    ``reversed_cones``: an odd permutation, so every determinant changes sign."""
    rays, fan_cones = stellar_or_mutant(rng, kind)
    if mapped:
        g = random_unimodular(rng)
        rays = [tuple(sum(a * b for a, b in zip(row, ray)) for row in g) for ray in rays]
    if reversed_cones:
        fan_cones = [cone[::-1] for cone in fan_cones]
    return rays, fan_cones


def cone_records_by_cones(fan):
    """The per-cone records of ``varieties.analyze`` for a fan whose rays are
    primitive and whose cones are non-degenerate, one checked ``Cone`` at a
    time, each classified from its own adjugate rather than from the inward
    normals that ``Cone.kernel`` and ``validate_fan`` keep."""
    records = []
    for k in range(len(fan.cones)):
        d, adj = det_adjugate3(fan.simplicial_cone(k).ray_matrix())
        qt = quotient_type_from_adjugate(abs(d), adj)
        terminal = is_terminal(qt) if isinstance(qt, CyclicQuotientType) else None
        records.append(ConeRecord(tuple(fan.cones[k]), abs(d), str(qt), terminal))
    return tuple(records)


def is_complete_by_wall_graph(cones) -> bool:
    """Completeness of a valid fan: every wall in exactly two cones, and the
    graph joining cones across walls connected (breadth-first search)."""
    if not cones:
        return False
    by_wall: dict[frozenset, list[int]] = {}
    for k, cone in enumerate(cones):
        for pair in combinations(sorted(cone), 2):
            by_wall.setdefault(frozenset(pair), []).append(k)
    if any(len(owners) != 2 for owners in by_wall.values()):
        return False
    reached = {0}
    frontier = [0]
    while frontier:
        k = frontier.pop()
        for pair in combinations(sorted(cones[k]), 2):
            for other in by_wall[frozenset(pair)]:
                if other not in reached:
                    reached.add(other)
                    frontier.append(other)
    return len(reached) == len(cones)


def random_matrix(rng: random.Random, rows: int = 3, cols: int = 3, span: int = 20):
    return tuple(
        tuple(rng.randint(-span, span) for _ in range(cols)) for _ in range(rows)
    )


def random_unimodular(rng: random.Random, steps: int = 8):
    """A unimodular 3x3 matrix built from random elementary operations."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(3), 2)
        if kind == 0:
            k = rng.choice((-3, -2, -1, 1, 2, 3))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)


def is_row_hnf(h) -> bool:
    """Structural check for the documented row-style Hermite form."""
    pivot_cols = []
    pivot_rows = []
    seen_zero_row = False
    for r, row in enumerate(h):
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            seen_zero_row = True
            continue
        if seen_zero_row:
            return False  # nonzero row below a zero row
        if pivot_cols and col <= pivot_cols[-1]:
            return False  # pivot columns must strictly increase
        if row[col] <= 0:
            return False
        pivot_cols.append(col)
        pivot_rows.append(r)
    for r, col in zip(pivot_rows, pivot_cols):
        pivot = h[r][col]
        for i in range(r):
            if not 0 <= h[i][col] < pivot:
                return False
    return True


def _monomials(poly: Poly) -> dict:
    """The terms of ``poly`` keyed by their sorted (variable, exponent) pairs."""
    return {
        tuple(sorted((name, e) for name, e in zip(poly.variables, exps) if e)): c
        for exps, c in poly.terms.items()
    }


def _from_monomials(monomials: dict) -> "RingPoly":
    names = sorted({name for mono in monomials for name, _ in mono})
    terms: dict[tuple[int, ...], int] = {}
    for mono, c in monomials.items():
        powers = dict(mono)
        key = tuple(powers.get(name, 0) for name in names)
        terms[key] = terms.get(key, 0) + c
    return RingPoly(names, terms)


class RingPoly(Poly):
    """A ``Poly`` with the ring operators ``+``, ``-``, ``*`` and ``**``.

    The other operand may be an int or any ``Poly``, so a library result can
    meet a ``RingPoly`` on either side; two plain ``Poly`` values are lifted
    with ``ring`` first."""

    __slots__ = ()

    def __add__(self, other) -> "RingPoly":
        out = _monomials(self)
        for mono, c in _monomials(ring(other)).items():
            out[mono] = out.get(mono, 0) + c
        return _from_monomials(out)

    __radd__ = __add__

    def __neg__(self) -> "RingPoly":
        return RingPoly(self.variables, {exps: -c for exps, c in self.terms.items()})

    def __sub__(self, other) -> "RingPoly":
        return self + (-ring(other))

    def __rsub__(self, other) -> "RingPoly":
        return ring(other) + (-self)

    def __mul__(self, other) -> "RingPoly":
        right = _monomials(ring(other))
        out: dict = {}
        for m1, c1 in _monomials(self).items():
            for m2, c2 in right.items():
                powers = Counter(dict(m1))
                powers.update(dict(m2))
                mono = tuple(sorted(powers.items()))
                out[mono] = out.get(mono, 0) + c1 * c2
        return _from_monomials(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "RingPoly":
        if type(exponent) is not int or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = ring(1)
        for _ in range(exponent):
            result = result * self
        return result


def ring(value) -> RingPoly:
    """An int or a ``Poly`` as a ``RingPoly``."""
    if isinstance(value, RingPoly):
        return value
    if isinstance(value, Poly):
        return RingPoly(value.variables, value.terms)
    if isinstance(value, int):
        return RingPoly((), {(): value})
    raise TypeError(f"cannot coerce {value!r} to a polynomial")


def variables(names: str) -> tuple[RingPoly, ...]:
    """Convenience: ``a, b = variables("a b")``."""
    return tuple(RingPoly((name,), {(1,): 1}) for name in names.split())


def substitute_term_by_term(poly: Poly, assignment) -> Poly:
    """``poly.substitute(assignment)`` with one ``RingPoly`` product per
    factor: each term is its coefficient times ``image ** e`` for every
    variable, and the terms are summed one addition at a time.  Variables
    missing from the assignment map to themselves."""
    images = {
        name: ring(assignment[name]) if name in assignment else variables(name)[0]
        for name in poly.variables
    }
    acc = ring(0)
    for exps, c in sorted(poly.terms.items()):
        term = ring(c)
        for name, e in zip(poly.variables, exps):
            if e:
                term = term * images[name] ** e
        acc = acc + term
    return acc


def generators_by_operators() -> tuple[Poly, ...]:
    """The six invariant-ideal generators, multiplied out by ``RingPoly`` operators."""
    a, b, c, d, e, delta = variables("a b c d e delta")
    return (
        3 * d**2 - 8 * c * e + 4 * delta * e,
        c * d - 6 * b * e + delta * d,
        3 * b * d - 48 * a * e + 2 * delta * c + 2 * delta**2,
        c**2 - 36 * a * e + 2 * delta * c + delta**2,
        b * c - 6 * a * d + delta * b,
        3 * b**2 - 8 * a * c + 4 * delta * a,
    )


def images_by_operators() -> dict[str, Poly]:
    """The quotient map's images of a..e and delta, multiplied out by ``RingPoly`` operators."""
    x, y, z = variables("x y z")
    return {
        "a": x**2,
        "b": 2 * x * y,
        "c": 2 * x * z + y**2,
        "d": 2 * y * z,
        "e": z**2,
        "delta": 4 * x * z - y**2,
    }


def quadric_family_by_operators(k: int) -> Poly:
    """The family member ``4xz - y^2 - delta^k``, multiplied out by ``RingPoly`` operators."""
    x, y, z, delta = variables("x y z delta")
    return 4 * x * z - y**2 - delta**k


def sign_invariant_by_flip(images) -> bool:
    """Every polynomial of ``images`` is fixed by substituting (-x, -y, -z)."""
    x, y, z = variables("x y z")
    flip = {"x": -x, "y": -y, "z": -z}
    return all(substitute_term_by_term(p, flip) == p for p in images.values())


def spot_check_failures_by_point(seed: int, samples: int, formulas) -> list[int]:
    """How many of the ``samples`` seeded spot-check points fail each formula.

    Every point is drawn with ``randint`` and evaluated on its own, with no
    deduplication and no folding of p with -p."""
    rng = random.Random(seed)
    failures = [0] * len(formulas)
    for _ in range(samples):
        x, y, z = (rng.randint(-SPOT_CHECK_RANGE, SPOT_CHECK_RANGE) for _ in range(3))
        images = (x * x, 2 * x * y, 2 * x * z + y * y, 2 * y * z, z * z, 4 * x * z - y * y)
        for k, formula in enumerate(formulas):
            if formula(*images) != 0:
                failures[k] += 1
    return failures
