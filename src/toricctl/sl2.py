"""Exact multivariate polynomials over Z as term tables, and the SL2 identities.

The polynomial type is deliberately small: a term table with integer
coefficients over named variables, in canonical form (no zero terms, unused
variables dropped, fixed variable precedence), so equality is structural.  It
substitutes and evaluates but has no ring operators: every polynomial here is
a literal table, and the ring that cross-checks them is in ``tests/oracles.py``.

The headline computation: the six quadratic generators of the invariant ideal
cutting out the SL2-invariant surfaces in the 5-dimensional irreducible
representation all vanish identically under the two-to-one substitution

    a -> x^2, b -> 2xy, c -> 2xz + y^2, d -> 2yz, e -> z^2, delta -> 4xz - y^2

which exhibits that surface family as a quotient of the quadric family
``4xz - y^2 = delta`` by the sign involution on (x, y, z).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from operator import add
from typing import Iterator, Mapping, Sequence

# Fixed variable precedence; names outside this list sort after, alphabetically.
_VARIABLE_PRECEDENCE = ("a", "b", "c", "d", "e", "delta", "x", "y", "z")
_PRECEDENCE_INDEX = {name: i for i, name in enumerate(_VARIABLE_PRECEDENCE)}

DEFAULT_SPOT_CHECK_SEED = 271828
SPOT_CHECK_RANGE = 10  # sample coordinates are drawn from [-10, 10]


def _var_key(name: str) -> tuple[int, int | str]:
    if name in _PRECEDENCE_INDEX:
        return (0, _PRECEDENCE_INDEX[name])
    return (1, name)


class Poly:
    """Multivariate polynomial with exact integer coefficients.

    ``variables`` is the ordered tuple of variable names actually occurring;
    ``terms`` maps exponent tuples (parallel to ``variables``) to nonzero
    coefficients.  Instances are immutable by convention and canonical by
    construction.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], int]):
        cleaned = {exps: c for exps, c in terms.items() if c != 0}
        variables = tuple(variables)
        # drop variables that occur in no term
        used = [
            i for i in range(len(variables)) if any(exps[i] for exps in cleaned)
        ]
        if len(used) != len(variables):
            variables = tuple(variables[i] for i in used)
            cleaned = {
                tuple(exps[i] for i in used): c for exps, c in cleaned.items()
            }
        # enforce canonical variable order
        order = sorted(range(len(variables)), key=lambda i: _var_key(variables[i]))
        if order != list(range(len(variables))):
            variables = tuple(variables[i] for i in order)
            cleaned = {
                tuple(exps[i] for i in order): c for exps, c in cleaned.items()
            }
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Poly((), {(): other})
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def substitute(self, assignment: Mapping[str, "Poly | int"]) -> "Poly":
        """Ring homomorphism: replace variables by polynomials.

        Variables missing from the assignment map to themselves.  This is
        ``substitute_all`` on the one polynomial ``self``.
        """
        return substitute_all((self,), assignment)[0]

    def evaluate(self, point: Mapping[str, int]) -> int:
        """Exact integer value at an integer point; every variable must be set."""
        missing = [name for name in self.variables if name not in point]
        if missing:
            raise ValueError(f"missing values for variables: {missing}")
        total = 0
        for exps, c in self.terms.items():
            value = c
            for name, e in zip(self.variables, exps):
                value *= point[name] ** e
            total += value
        return total

    # -- rendering ---------------------------------------------------------

    def _sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        # graded order, ties broken reverse-lexicographically, descending
        def key(item):
            exps, _ = item
            return (sum(exps), tuple(-e for e in reversed(exps)))

        return sorted(self.terms.items(), key=key, reverse=True)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for exps, c in self._sorted_terms():
            # display convention: "delta" leads a monomial, as in "4*delta*e"
            factors = sorted(
                ((name, e) for name, e in zip(self.variables, exps) if e),
                key=lambda item: (item[0] != "delta", _var_key(item[0])),
            )
            mono = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in factors
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


def _coerce(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, int):
        return Poly((), {(): value})
    raise TypeError(f"cannot coerce {value!r} to a polynomial")


# Term dicts map exponent tuples to coefficients, as ``Poly.terms`` does, but
# may hold zero coefficients and unused variables until a ``Poly`` is built.


def _merged_variables(polys: Sequence[Poly]) -> tuple[str, ...]:
    """The union of the variables of ``polys``, in canonical order."""
    return tuple(sorted({name for poly in polys for name in poly.variables}, key=_var_key))


def _reindexed(poly: Poly, merged: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    """A fresh term dict of ``poly`` over ``merged``, a superset of its variables."""
    slots = [merged.index(name) for name in poly.variables]
    out = {}
    for exps, c in poly.terms.items():
        new = [0] * len(merged)
        for i, e in zip(slots, exps):
            new[i] = e
        out[tuple(new)] = c
    return out


def _convolve(left: dict, right: dict) -> dict[tuple[int, ...], int]:
    """The product of two term dicts over the same variables."""
    out: dict[tuple[int, ...], int] = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def substitute_all(
    polys: Sequence[Poly], assignment: Mapping[str, "Poly | int"]
) -> tuple[Poly, ...]:
    """``poly.substitute(assignment)`` for each of ``polys``, in order.

    The images are aligned to one merged variable tuple once, and each
    image's powers are tabulated once for all of ``polys``, up to the largest
    exponent of its variable in any of them.  Every term of a polynomial is
    expanded from those tables into that polynomial's accumulator.
    """
    names = _merged_variables(polys)
    images = [
        _coerce(assignment[name]) if name in assignment else Poly((name,), {(1,): 1})
        for name in names
    ]
    merged = _merged_variables(images)
    one = (0,) * len(merged)
    top = dict.fromkeys(names, 0)
    for poly in polys:
        for exps in poly.terms:
            for name, e in zip(poly.variables, exps):
                top[name] = max(top[name], e)
    tables = {}
    for name, image in zip(names, images):
        base = _reindexed(image, merged)
        powers = [{one: 1}]
        for _ in range(top[name]):
            powers.append(_convolve(powers[-1], base))
        tables[name] = powers
    results = []
    for poly in polys:
        acc: dict[tuple[int, ...], int] = {}
        for exps, c in poly.terms.items():
            term = {one: c}
            for name, e in zip(poly.variables, exps):
                if e:
                    term = _convolve(term, tables[name][e])
            for key, value in term.items():
                acc[key] = acc.get(key, 0) + value
        results.append(Poly(merged, acc))
    return tuple(results)


# ---------------------------------------------------------------------------
# The invariant ideal and the quotient map.


# The literal term tables below are the published formulas, term for term;
# ``tests/oracles.py`` rebuilds both from ``Poly`` operators as a cross-check.
_ABCDE_DELTA = ("a", "b", "c", "d", "e", "delta")
_XYZ = ("x", "y", "z")


def invariant_ideal_generators() -> tuple[Poly, ...]:
    """The six quadratic generators, in their published order.

    Exponents are listed over (a, b, c, d, e, delta).
    """
    return tuple(
        Poly(_ABCDE_DELTA, terms)
        for terms in (
            # 3d^2 - 8ce + 4 delta e
            {(0, 0, 0, 2, 0, 0): 3, (0, 0, 1, 0, 1, 0): -8, (0, 0, 0, 0, 1, 1): 4},
            # cd - 6be + delta d
            {(0, 0, 1, 1, 0, 0): 1, (0, 1, 0, 0, 1, 0): -6, (0, 0, 0, 1, 0, 1): 1},
            # 3bd - 48ae + 2 delta c + 2 delta^2
            {
                (0, 1, 0, 1, 0, 0): 3,
                (1, 0, 0, 0, 1, 0): -48,
                (0, 0, 1, 0, 0, 1): 2,
                (0, 0, 0, 0, 0, 2): 2,
            },
            # c^2 - 36ae + 2 delta c + delta^2
            {
                (0, 0, 2, 0, 0, 0): 1,
                (1, 0, 0, 0, 1, 0): -36,
                (0, 0, 1, 0, 0, 1): 2,
                (0, 0, 0, 0, 0, 2): 1,
            },
            # bc - 6ad + delta b
            {(0, 1, 1, 0, 0, 0): 1, (1, 0, 0, 1, 0, 0): -6, (0, 1, 0, 0, 0, 1): 1},
            # 3b^2 - 8ac + 4 delta a
            {(0, 2, 0, 0, 0, 0): 3, (1, 0, 1, 0, 0, 0): -8, (1, 0, 0, 0, 0, 1): 4},
        )
    )


def quotient_map_substitution() -> dict[str, Poly]:
    """The double-cover substitution, with delta mapped to the quadric value.

    Exponents are listed over (x, y, z).
    """
    return {
        "a": Poly(_XYZ, {(2, 0, 0): 1}),  # x^2
        "b": Poly(_XYZ, {(1, 1, 0): 2}),  # 2xy
        "c": Poly(_XYZ, {(1, 0, 1): 2, (0, 2, 0): 1}),  # 2xz + y^2
        "d": Poly(_XYZ, {(0, 1, 1): 2}),  # 2yz
        "e": Poly(_XYZ, {(0, 0, 2): 1}),  # z^2
        "delta": Poly(_XYZ, {(1, 0, 1): 4, (0, 2, 0): -1}),  # 4xz - y^2
    }


# Independent numeric route: the same six generators as plain integer
# arithmetic, used to cross-check the symbolic expansion at sample points.
_NUMERIC_GENERATORS = (
    lambda a, b, c, d, e, dl: 3 * d * d - 8 * c * e + 4 * dl * e,
    lambda a, b, c, d, e, dl: c * d - 6 * b * e + dl * d,
    lambda a, b, c, d, e, dl: 3 * b * d - 48 * a * e + 2 * dl * c + 2 * dl * dl,
    lambda a, b, c, d, e, dl: c * c - 36 * a * e + 2 * dl * c + dl * dl,
    lambda a, b, c, d, e, dl: b * c - 6 * a * d + dl * b,
    lambda a, b, c, d, e, dl: 3 * b * b - 8 * a * c + 4 * dl * a,
)


@dataclass(frozen=True)
class GeneratorCheck:
    index: int  # 1-based, in published order
    symbolic_zero: bool
    samples: int
    numeric_failures: int

    @property
    def passed(self) -> bool:
        return self.symbolic_zero and self.numeric_failures == 0

    def to_dict(self) -> dict:
        return {
            "generator": self.index,
            "symbolic_zero": self.symbolic_zero,
            "samples": self.samples,
            "numeric_failures": self.numeric_failures,
        }


@dataclass(frozen=True)
class IdealVerification:
    seed: int
    samples: int
    checks: tuple[GeneratorCheck, ...]

    @property
    def all_vanish(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "generators": [check.to_dict() for check in self.checks],
            "all_vanish": self.all_vanish,
        }


# ``bytes.translate`` tables for the top byte b of a word: its top 5 bits are
# b >> 3, and draws of 2R + 1 = 21 or more (b >= 21 << 3) are rejected.
_TOP5 = bytes(b >> 3 for b in range(256))
_REJECTED = bytes(range((2 * SPOT_CHECK_RANGE + 1) << 3, 256))
_CHUNK_WORDS = 1 << 12  # words per getrandbits call: bounds memory for any sample count


def _spot_check_draws(seed: int, samples: int) -> Iterator[bytes]:
    """The coordinates of the ``samples`` seeded points, shifted by R, in chunks.

    With R = ``SPOT_CHECK_RANGE``, the bytes yielded are, in order, the 3 *
    ``samples`` values ``rng.randint(-R, R) + R`` of ``rng =
    random.Random(seed)``, each chunk a whole number of (x, y, z) triples.  They
    are read from the same Mersenne-Twister stream that ``randint`` consumes
    in CPython: ``randint(-R, R)`` draws ``getrandbits(5)``, the top 5 bits of
    one 32-bit word, and redraws while the result is not below the width 2R +
    1.  One ``getrandbits(32 * n)`` call returns n such words with the first
    one least significant, so the little-endian bytes ``[3::4]`` are the
    words' top bytes; ``translate`` drops the rejected ones and shifts the
    rest down to 5 bits.  At most ``_CHUNK_WORDS`` words are drawn at a time,
    and the zero to two coordinates after the last whole triple carry over to
    the next chunk, so memory stays flat in ``samples``.
    """
    rng = random.Random(seed)
    missing = 3 * samples  # coordinates not yet drawn
    pending = b""  # drawn coordinates not yet yielded in a whole triple
    while missing:
        words = min(_CHUNK_WORDS, 2 * missing)
        tops = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        coords = pending + tops.translate(_TOP5, _REJECTED)[:missing]
        missing -= len(coords) - len(pending)
        whole = len(coords) - len(coords) % 3
        yield coords[:whole]
        pending = coords[whole:]


def verify_invariant_ideal(
    seed: int = DEFAULT_SPOT_CHECK_SEED, samples: int = 100, limit: int = 6
) -> IdealVerification:
    """Substitute the quotient map into the generators and test for zero.

    The verdict per generator is the exact symbolic one, from one
    ``substitute_all`` call for all ``limit`` generators.  In addition each
    generator is evaluated (through independent plain-integer arithmetic) at
    ``samples`` seeded random points of the quadric parametrization.  The
    points lie in a box of 21^3 points, so large samples repeat points: each
    distinct point is evaluated once, its images a..delta are computed once
    for all generators, and a nonzero value counts as many failures as the
    point has draws.

    A point p and its mirror -p are evaluated once for both: a nonzero value
    counts the draws of p plus those of -p.  This is exact because every
    image a..delta is a quadratic form in (x, y, z), so p and -p have the
    same images, and every formula sees only the images.  The origin is its
    own mirror, and a point whose mirror was not drawn counts alone.
    """
    if not 1 <= limit <= 6:
        raise ValueError("limit must be between 1 and 6")
    if samples < 0:
        raise ValueError("samples must be nonnegative")
    formulas = _NUMERIC_GENERATORS[:limit]
    failures = [0] * limit
    counts: Counter[tuple[int, int, int]] = Counter()
    for coords in _spot_check_draws(seed, samples):
        triples = iter(coords)
        counts.update(zip(triples, triples, triples))
    mirror_sum = 2 * SPOT_CHECK_RANGE  # shifted coordinates of p and -p add up to this
    for point, count in counts.items():
        u, v, w = point
        mirror = (mirror_sum - u, mirror_sum - v, mirror_sum - w)
        if mirror > point:
            count += counts.get(mirror, 0)
        elif mirror < point and mirror in counts:
            continue  # evaluated with its mirror
        x, y, z = u - SPOT_CHECK_RANGE, v - SPOT_CHECK_RANGE, w - SPOT_CHECK_RANGE
        images = (x * x, 2 * x * y, 2 * x * z + y * y, 2 * y * z, z * z, 4 * x * z - y * y)
        for k, formula in enumerate(formulas):
            if formula(*images) != 0:
                failures[k] += count
    substituted = substitute_all(invariant_ideal_generators()[:limit], quotient_map_substitution())
    checks = tuple(
        GeneratorCheck(k + 1, image.is_zero, samples, failures[k])
        for k, image in enumerate(substituted)
    )
    return IdealVerification(seed, samples, checks)


def quotient_images_sign_invariant() -> bool:
    """Every image polynomial is fixed by (x, y, z) -> (-x, -y, -z).

    The images are polynomials in x, y and z.  The flip multiplies a term of
    total degree n by (-1)^n, and distinct terms cannot cancel, so an image is
    fixed iff every one of its terms has even total degree.
    """
    return all(
        sum(exps) % 2 == 0
        for image in quotient_map_substitution().values()
        for exps in image.terms
    )


def quadric_family(k: int) -> Poly:
    """The family member ``4xz - y^2 - delta^k``.

    Exponents are listed over (delta, x, y, z); at k = 0 the last term is the
    constant -1, and delta drops out.
    """
    if type(k) is not int or k < 0:
        raise ValueError("k must be a nonnegative integer")
    return Poly(("delta",) + _XYZ, {(0, 1, 0, 1): 4, (0, 0, 2, 0): -1, (k, 0, 0, 0): -1})


def quadric_family_sanity() -> bool:
    """Structural checks for the first family members and one exact root.

    The expected members are written over other variable orders, so the
    comparison also checks that the tables are canonical.
    """
    return (
        quadric_family(0) == Poly(("z", "y", "x"), {(1, 0, 1): 4, (0, 2, 0): -1, (0, 0, 0): -1})
        and quadric_family(1)
        == Poly(_XYZ + ("delta",), {(1, 0, 1, 0): 4, (0, 2, 0, 0): -1, (0, 0, 0, 1): -1})
        and quadric_family(2).evaluate({"x": 1, "y": 2, "z": 2, "delta": 2}) == 0
    )


@dataclass(frozen=True)
class RepWeights:
    """Torus weights of the (k+1)-dimensional irreducible representation."""

    k: int
    weights: tuple[int, ...]

    @property
    def fixed_space_dim(self) -> int:
        return 1 - self.k % 2

    def to_dict(self) -> dict:
        return {"k": self.k, "weights": list(self.weights), "fixed_dim": self.fixed_space_dim}


def rep_weights(k: int) -> RepWeights:
    if type(k) is not int or k < 0:
        raise ValueError("k must be a nonnegative integer")
    return RepWeights(k, tuple(range(k, -k - 1, -2)))
