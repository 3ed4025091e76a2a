"""Cyclic quotient singularity types of simplicial cones, and terminality.

A full-dimensional simplicial cone whose rays span a finite-index sublattice
``L`` of Z^3 describes the germ C^3 / G with ``G = Z^3 / L``.  When ``G`` is
cyclic of order ``r``, a generator acts on the chart coordinates with weights
``(a1, a2, a3)`` read off from the ray coordinates of any lift of the
generator; the singularity type is written ``1/r(a1, a2, a3)``.

Types are normalized by rescaling with units mod ``r`` and sorting, so that
equality of normalized types is equality of singularities up to the usual
ambiguities (choice of generator, ordering of coordinates).  The search is
gcd-seeded: only the units that carry a weight of least ``gcd(a, r)`` onto that
gcd can give the least triple, and for the type of a cone the best of them is
found in a few gcd steps, so ``normalize_type`` never walks the phi(r) units.
Terminality is decided by the 3-fold terminal lemma (Morrison-Stevens,
White-Frumkin) in O(log r) instead of by the r - 1 Reid-Tai sums.

The determinant and adjugate of a cone's ray matrix are the kernel the
``Cone`` keeps from its closed-form ``lattice.det_adjugate3`` call, and
unimodular equivalences come from the solver ``lattice.unimodular_solve``.
The group needs no Smith normal form: it is the span of the adjugate's
columns mod ``r``, a generator is built from them in O(log r) gcd steps, and
the invariant factors of a non-cyclic group come from the determinantal
divisors, the gcds of the entries and of the 2x2 minors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import gcd

from .cones import Cone
from .lattice import Matrix, unimodular_solve


@dataclass(frozen=True)
class CyclicQuotientType:
    """The cyclic quotient singularity 1/r(a1, a2, a3); r = 1 is the smooth point.

    Weights are stored reduced mod ``r``.  Only effective actions are allowed:
    ``gcd(a1, a2, a3, r) == 1``.
    """

    r: int
    weights: tuple[int, int, int]

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("group order r must be >= 1")
        if len(self.weights) != 3:
            raise ValueError("exactly 3 weights required")
        reduced = tuple(w % self.r for w in self.weights)
        object.__setattr__(self, "weights", reduced)
        if gcd(*reduced, self.r) != 1:
            raise ValueError(
                f"non-effective action: gcd of weights {reduced} and order {self.r} exceeds 1"
            )

    @property
    def is_smooth(self) -> bool:
        return self.r == 1

    def __str__(self) -> str:
        if self.r == 1:
            return "smooth"
        return "1/{}({},{},{})".format(self.r, *self.weights)


@dataclass(frozen=True)
class NonCyclicType:
    """Quotient by a non-cyclic abelian group; carries the invariant factors > 1."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 2 or any(f < 2 for f in self.factors):
            raise ValueError("non-cyclic type needs at least two invariant factors > 1")

    def __str__(self) -> str:
        return "noncyclic({})".format(",".join(str(f) for f in self.factors))


QuotientType = CyclicQuotientType | NonCyclicType


def _least_image_unit(u0: int, m: int, g: int, b: int) -> int:
    """The unit ``u = u0 + m*t`` mod ``r = m*g`` (``0 <= t < g``) with the least
    ``u*b mod r``, for ``gcd(u0, m) = gcd(b, g) = 1`` and ``g > 1``.

    With ``u0*b = m*Q + R`` and ``R < m``, ``u*b mod r = R + m*q`` for
    ``q = (Q + t*b) mod g``, a bijection of Z/g since ``gcd(b, g) = 1``; so
    the steps ``q = 0, 1, 2, ...`` give the images in increasing order, and
    the first ``u`` coprime to ``r`` wins.  A prime of ``m`` never divides
    ``u``, and a prime of ``g`` that does not divide ``m`` excludes one
    residue class of ``q``, so a few steps suffice.
    """
    r = m * g
    q0 = u0 * b // m
    inverse = pow(b, -1, g)
    for q in range(g):
        u = u0 + m * ((q - q0) * inverse % g)
        if gcd(u, r) == 1:
            return u
    raise AssertionError(f"no unit in the coset of {u0} mod {m}")


def normalize_type(t: CyclicQuotientType) -> CyclicQuotientType:
    """Canonical representative: lexicographically least sorted weight triple
    over all rescalings by units mod r.

    Weights that are 0 stay 0 under every unit and sort first.  A unit carries
    a nonzero weight ``a`` onto the multiples of ``gcd(a, r)`` coprime to
    ``r / gcd(a, r)``, and onto nothing smaller than ``gcd(a, r)`` itself, so
    the first nonzero entry of the least triple is ``g``, the least
    ``gcd(a, r)`` over the nonzero weights; a weight 0 has ``gcd(0, r) = r``,
    above every other, so taking the least over all weights is the same.  Only
    units sending a weight with ``gcd(a, r) = g`` to ``g`` can win:
    ``u = (a / g)^-1 mod m`` with ``m = r / g``, lifted to a unit mod r.  When
    ``g = 1`` that is one unit per such weight.

    When ``g > 1`` and the ``gcd(a_i, r)`` are pairwise coprime, as they are
    for the type of every cone with primitive rays (a prime dividing ``r`` and
    two weights would put a lattice point strictly inside the third ray),
    exactly one weight ``a`` has ``gcd(a, r) = g``, and the other two, ``b``
    and ``c``, are coprime to ``g``.  The candidates ``u0 + m*t`` all send
    ``a`` to ``g``; the least triple is ``(g, x, y)`` with ``x`` the least
    image of ``b`` or of ``c`` over the candidates, so the winner is the
    candidate that minimizes ``u*b mod r`` or the one that minimizes
    ``u*c mod r``, each found in a few steps by ``_least_image_unit``.  This
    covers ``1/(pqs)(p, q, s)``, reached by ``check-fan`` on the cone with
    rays ``(1000070001221, -1000033, 66669), (0, 1000003, -66668), (0, 0, 1)``
    and by ``wps p,q,s,pqs``, where a scan of the candidates took seconds.

    Types whose gcds are not pairwise coprime, such as
    ``1/(pqs)(pq, qs, ps)``, come only from the library, never from
    ``quotient_type``; for them all up to ``g`` candidates per weight are
    scanned, O(g).
    """
    r = t.r
    if r == 1:
        return CyclicQuotientType(1, (0, 0, 0))
    gcds = [gcd(a, r) for a in t.weights]
    g = min(gcds)
    m = r // g
    if g > 1 and all(gcd(x, y) == 1 for x, y in combinations(gcds, 2)):
        (_, a), (_, b), (_, c) = sorted(zip(gcds, t.weights))
        u0 = pow(a // g, -1, m)
        units = (_least_image_unit(u0, m, g, b), _least_image_unit(u0, m, g, c))
    else:
        units = (
            u
            for s in {a // g for a, d in zip(t.weights, gcds) if d == g}
            for u in range(pow(s, -1, m), r, m)
            if gcd(u, r) == 1
        )
    best = min(tuple(sorted(u * a % r for a in t.weights)) for u in units)
    return CyclicQuotientType(r, best)


def _coprime_part(n: int, g: int) -> int:
    """The largest divisor of ``n > 0`` coprime to ``g``.

    Each step divides out ``gcd(n, h)`` for the part ``h`` of ``g`` still
    shared with ``n``, at least halving ``n``, so there are at most
    ``log2(n)`` steps.
    """
    h = gcd(n, g)
    while h > 1:
        n //= h
        h = gcd(n, h)
    return n


def quotient_type_from_adjugate(r: int, adjugate: Matrix) -> QuotientType:
    """Classify Z^3 modulo the ray lattice of a cone, normalized, from its kernel.

    ``r`` is ``|det R| >= 1`` for the matrix ``R`` with the rays as columns,
    and ``adjugate`` is ``adj(R)`` or ``-adj(R)``: ``Cone.kernel`` and
    ``validate_fan`` keep the rows of ``adj(R)`` negated when ``det R < 0``,
    as inward facet normals, and either sign gives the same type.  Negating
    every column of the adjugate negates every ``w`` of the generator walk
    below mod ``r``, and ``normalize_type`` rescales by the unit -1 among the
    others, so a cyclic type is unchanged; the gcds of the entries are
    unchanged too, so the invariant factors of a non-cyclic type are.

    With the rays as the columns of ``R``, ``r = |det R|`` and ``A = adj(R)``,
    the map ``x -> A x mod r`` has kernel ``R Z^3`` (``A x = r y`` gives
    ``x = +-R y`` since ``R A = det R * I``), so ``G = Z^3 / R Z^3`` is the
    subgroup of ``(Z/r)^3`` spanned by the columns ``c1, c2, c3`` of ``A``,
    and the image of a lattice point is ``r`` times its ray coordinates, up
    to the sign of ``det R``.  A cone with ``r = 1`` is smooth.

    An element ``w`` of ``(Z/r)^3`` has order ``r / gcd(w, r)``, and ``G``
    has order ``r``, so ``G`` is cyclic iff some element has
    ``gcd(w, r) = 1``.  Starting from ``w = c1``, the steps
    ``w += t * c2`` and ``w += t' * c3``, each ``t`` the largest divisor of
    ``r`` coprime to the current ``gcd(w, r)``, find one whenever there is
    one: a prime ``p`` of ``r`` that does not divide ``w`` divides ``t``, so
    ``w`` stays nonzero mod ``p``; a prime that divides ``w`` does not divide
    ``t``, so ``w`` becomes a unit times ``c_j`` mod ``p``.  In the end ``p``
    divides ``w`` only if it divides every ``c_j``, that is all of ``G``,
    which then has no element of order ``r``.  The weights of a generator
    ``w`` are its entries; the signs are immaterial, since normalization
    rescales by the unit -1 as well.

    Otherwise the invariant factors come from the determinantal divisors:
    ``d1`` is the gcd of the entries of ``R``, which is 1 since the rays are
    primitive, ``d1 d2`` the gcd of its 2x2 minors, the entries of ``A``, and
    ``d1 d2 d3 = r``; a non-cyclic group has ``d2 > 1``.
    """
    if r == 1:
        return CyclicQuotientType(1, (0, 0, 0))
    c1, c2, c3 = zip(*adjugate)
    w = c1
    for cj in (c2, c3):
        g = gcd(*w, r)
        if g == 1:
            break
        t = _coprime_part(r, g)
        w = tuple((x + t * y) % r for x, y in zip(w, cj))
    if gcd(*w, r) == 1:
        return normalize_type(CyclicQuotientType(r, w))
    d2 = gcd(*c1, *c2, *c3)
    return NonCyclicType((d2, r // d2))


def quotient_type(c: Cone) -> QuotientType:
    """Classify Z^3 modulo the ray lattice of the cone, normalized; see
    ``quotient_type_from_adjugate``, which it feeds the cone's kernel."""
    d, normals = c.kernel
    return quotient_type_from_adjugate(abs(d), normals)


def is_terminal(t: CyclicQuotientType) -> bool:
    """Terminal iff every Reid-Tai sum exceeds 1, decided by the terminal lemma.

    The terminal lemma for 3-fold cyclic quotients (Morrison-Stevens,
    *Terminal quotient singularities in dimensions three and four*, Proc. AMS
    1984; White-Frumkin): 1/r(a, b, c) with r > 1 is terminal iff, up to
    permutation, a + b = 0 (mod r) and gcd(a, r) = gcd(c, r) = 1.  Since
    a + b = 0 gives gcd(a, r) = gcd(b, r), checking the three pairings covers
    all six permutations.  Costs O(log r) instead of the r - 1 Reid-Tai sums.
    """
    r = t.r
    if r == 1:
        return True
    a, b, c = t.weights
    ua, ub, uc = (gcd(w, r) == 1 for w in t.weights)
    return (
        ((a + b) % r == 0 and ua and uc)
        or ((a + c) % r == 0 and ua and ub)
        or ((b + c) % r == 0 and ub and ua)
    )


def standard_cone(n: int) -> Cone:
    """The reference cone with rays e1, e3, (-(n-1), n, -1), of type 1/n(1,1,-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Cone(((1, 0, 0), (0, 0, 1), (-(n - 1), n, -1)))


def lattice_equivalent(c1: Cone, c2: Cone) -> Matrix | None:
    """A unimodular matrix mapping the ray set of ``c1`` onto that of ``c2``.

    All 6 ray bijections are tried in lexicographic order and the first
    integral unimodular solution of ``g @ R1 = R2 @ P`` is returned, so the
    result is deterministic.  Returns None when the cones are not equivalent.
    """
    r1 = c1.ray_matrix()
    for perm in permutations(c2.rays):
        g = unimodular_solve(r1, tuple(zip(*perm)))
        if g is not None:
            return g
    return None
