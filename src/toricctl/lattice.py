"""Exact integer linear algebra over Z^n.

Vectors are tuples of ints and matrices are row-major tuples of int tuples.
Every routine works with arbitrary-precision Python integers; nothing in this
module (or anywhere else in the package) touches floating point.

Conventions, fixed so that results are bit-exact:

* ``hermite_normal_form`` is row-style: ``H = U @ M`` with ``U`` unimodular,
  ``H`` in upper echelon form with positive pivots, and every entry above a
  pivot reduced into ``[0, pivot)``.
* ``smith_normal_form`` returns ``D = U @ M @ V`` with nonnegative diagonal
  entries forming a divisibility chain, zero factors last.

``det`` and the normal forms are the generic n x n API.
Every 3x3 determinant, adjugate and unimodular solve in the package goes
through the closed-form kernel ``det_adjugate3`` and ``unimodular_solve``.
"""

from __future__ import annotations

import math
from typing import Sequence

Vector = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def vector(entries: Sequence[int]) -> Vector:
    """Validate and freeze an integer vector."""
    out = tuple(entries)
    if not out:
        raise ValueError("vector must have at least one entry")
    for x in out:
        if type(x) is not int:
            raise ValueError(f"vector entry {x!r} is not an integer")
    return out


def matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    """Validate and freeze a rectangular integer matrix."""
    out = tuple(vector(row) for row in rows)
    if not out:
        raise ValueError("matrix must have at least one row")
    width = len(out[0])
    if any(len(row) != width for row in out):
        raise ValueError("matrix rows have unequal lengths")
    return out


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise ValueError("matrix dimensions do not match for multiplication")
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(m: Matrix, v: Sequence[int]) -> Vector:
    if len(m[0]) != len(v):
        raise ValueError("matrix/vector dimensions do not match")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _square_dim(m: Matrix) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
    return n


def det(m: Matrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination."""
    n = _square_dim(m)
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _cross(a: Sequence[int], b: Sequence[int]) -> Vector:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def det_adjugate3(m: Matrix) -> tuple[int, Matrix]:
    """Determinant and adjugate of a 3x3 matrix, in closed form.

    Row ``k`` of the adjugate is the cross product of columns ``k+1`` and
    ``k+2`` (cyclically), so ``adj @ m == det * identity``; the determinant is
    column 0 dotted with row 0 of the adjugate.
    """
    if len(m) != 3 or any(len(row) != 3 for row in m):
        raise ValueError("matrix is not 3x3")
    c0, c1, c2 = zip(*m)
    adj = (_cross(c1, c2), _cross(c2, c0), _cross(c0, c1))
    return sum(x * y for x, y in zip(c0, adj[0])), adj


def unimodular_solve(source: Matrix, target: Matrix) -> Matrix | None:
    """The integral ``g`` with ``g @ source == target`` and ``det(g) == +-1``.

    ``source`` must be a nonsingular 3x3 matrix, so ``g`` is unique over Q:
    ``g = target @ adj(source) / det(source)``.  Returns None when that ``g``
    is not integral or not unimodular.
    """
    d, adj = det_adjugate3(source)
    if d == 0:
        raise ValueError("source matrix is singular")
    numerator = mat_mul(target, adj)
    if any(x % d for row in numerator for x in row):
        return None
    g = tuple(tuple(x // d for x in row) for row in numerator)
    return g if det_adjugate3(g)[0] in (1, -1) else None


def is_primitive(v: Sequence[int]) -> bool:
    """True iff the gcd of the entries is 1 (the zero vector is not primitive)."""
    return math.gcd(*v) == 1 if v else False


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns ``(g, s, t)`` with ``g = s*a + t*b`` and ``g >= 0``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hermite_normal_form(m: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``U`` unimodular and ``H = U @ M``: upper echelon,
    positive pivots, entries above each pivot reduced into ``[0, pivot)``.
    """
    h = [list(row) for row in matrix(m)]
    rows, cols = len(h), len(h[0])
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    row = 0
    for col in range(cols):
        if row == rows:
            break
        pivot = next((r for r in range(row, rows) if h[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != row:
            h[row], h[pivot] = h[pivot], h[row]
            u[row], u[pivot] = u[pivot], u[row]
        for r in range(row + 1, rows):
            if h[r][col] == 0:
                continue
            # 2x2 unimodular transform from the extended gcd of the two leads.
            a, b = h[row][col], h[r][col]
            g, s, t = xgcd(a, b)
            aa, bb = a // g, b // g
            h[row], h[r] = (
                [s * x + t * y for x, y in zip(h[row], h[r])],
                [-bb * x + aa * y for x, y in zip(h[row], h[r])],
            )
            u[row], u[r] = (
                [s * x + t * y for x, y in zip(u[row], u[r])],
                [-bb * x + aa * y for x, y in zip(u[row], u[r])],
            )
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        p = h[row][col]
        for r in range(row):
            q = h[r][col] // p  # floor division leaves a remainder in [0, p)
            if q:
                h[r] = [x - q * y for x, y in zip(h[r], h[row])]
                u[r] = [x - q * y for x, y in zip(u[r], u[row])]
        row += 1
    return tuple(tuple(r) for r in h), tuple(tuple(r) for r in u)


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form.

    Returns ``(D, U, V)`` with ``U``, ``V`` unimodular and ``D = U @ M @ V``
    diagonal, the diagonal nonnegative with ``d1 | d2 | ...`` and zero factors
    last.
    """
    a = [list(row) for row in matrix(m)]
    rows, cols = len(a), len(a[0])
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_combine(i: int, j: int, s: int, t: int, aa: int, bb: int) -> None:
        a[i], a[j] = (
            [s * x + t * y for x, y in zip(a[i], a[j])],
            [-bb * x + aa * y for x, y in zip(a[i], a[j])],
        )
        u[i], u[j] = (
            [s * x + t * y for x, y in zip(u[i], u[j])],
            [-bb * x + aa * y for x, y in zip(u[i], u[j])],
        )

    def col_combine(i: int, j: int, s: int, t: int, aa: int, bb: int) -> None:
        for row_ in a:
            row_[i], row_[j] = s * row_[i] + t * row_[j], -bb * row_[i] + aa * row_[j]
        for row_ in v:
            row_[i], row_[j] = s * row_[i] + t * row_[j], -bb * row_[i] + aa * row_[j]

    def col_add(dst: int, src: int) -> None:
        for row_ in a:
            row_[dst] += row_[src]
        for row_ in v:
            row_[dst] += row_[src]

    size = min(rows, cols)
    k = 0
    while k < size:
        # Pivot: nonzero entry of least magnitude in the trailing submatrix.
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != k:
            a[k], a[bi] = a[bi], a[k]
            u[k], u[bi] = u[bi], u[k]
        if bj != k:
            for row_ in a:
                row_[k], row_[bj] = row_[bj], row_[k]
            for row_ in v:
                row_[k], row_[bj] = row_[bj], row_[k]
        # Clear row and column k.  When the pivot divides an entry a plain
        # subtraction is used (it leaves the pivot line untouched); otherwise
        # an xgcd transform strictly shrinks |a[k][k]|, so the loop terminates.
        while True:
            for r in range(k + 1, rows):
                x = a[r][k]
                if x == 0:
                    continue
                p = a[k][k]
                if x % p == 0:
                    q = x // p
                    a[r] = [y - q * z for y, z in zip(a[r], a[k])]
                    u[r] = [y - q * z for y, z in zip(u[r], u[k])]
                else:
                    g, s, t = xgcd(p, x)
                    row_combine(k, r, s, t, p // g, x // g)
            for c in range(k + 1, cols):
                x = a[k][c]
                if x == 0:
                    continue
                p = a[k][k]
                if x % p == 0:
                    q = x // p
                    for row_ in a:
                        row_[c] -= q * row_[k]
                    for row_ in v:
                        row_[c] -= q * row_[k]
                else:
                    g, s, t = xgcd(p, x)
                    col_combine(k, c, s, t, p // g, x // g)
            if all(a[r][k] == 0 for r in range(k + 1, rows)) and all(
                a[k][c] == 0 for c in range(k + 1, cols)
            ):
                break
        k += 1

    rank = k
    for i in range(rank):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    # Enforce the divisibility chain by gcd/lcm exchanges on diagonal pairs.
    for i in range(rank):
        for j in range(i + 1, rank):
            if a[j][j] % a[i][i] == 0:
                continue
            col_add(i, j)
            g, s, t = xgcd(a[i][i], a[j][i])
            row_combine(i, j, s, t, a[i][i] // g, a[j][i] // g)
            # clear the fill-in at (i, j); a[i][i] = g divides it exactly
            mult = a[i][j] // a[i][i]
            for row_ in a:
                row_[j] -= mult * row_[i]
            for row_ in v:
                row_[j] -= mult * row_[i]
    return (
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in v),
    )
