"""Exact linear algebra helpers.

Two kinds of matrices appear: structure matrices over Q (nested tuples of
Fraction) and matrices of series (nested lists of LaurentSeries).  Structure
matrices support elimination and solving; series matrices only
need the ring operations and evaluation against rational structure data.

Series matrices skip exact-zero entries everywhere.  A product entry with
one nonzero term is that one series product; one with more is a single
:func:`opercalc.series.dot`, which packs all its terms into one big-int sum
and builds one series per entry, with the certified order of the sum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import PreconditionError
from .series import LaurentSeries, dot, is_exact_zero

FracMatrix = Tuple[Tuple[Fraction, ...], ...]
SeriesMatrix = List[List[LaurentSeries]]


# -- rational matrices -------------------------------------------------------


_ZERO = Fraction(0)


def fmat_mul(a: FracMatrix, b: FracMatrix) -> FracMatrix:
    """a * b over the nonzero entries of both; zero output entries share one Fraction."""
    rows_b = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row_a in a:
        acc = [_ZERO] * len(b[0])
        for x, row_b in zip(row_a, rows_b):
            if x:
                for j, y in row_b:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def fmat_combine(coeffs: Sequence[Fraction], mats: Sequence[FracMatrix]) -> FracMatrix:
    """sum_i coeffs[i] * mats[i], as one row times the flattened matrices."""
    (flat,) = fmat_mul((tuple(coeffs),), [[x for row in mat for x in row] for mat in mats])
    m = len(mats[0][0])
    return tuple(flat[i:i + m] for i in range(0, len(flat), m))


def fmat_comm(a: FracMatrix, b: FracMatrix) -> FracMatrix:
    """ab - ba over the nonzero entries of both, as E_ik E_kj = E_ij; zero
    entries share one Fraction."""
    nz_a, nz_b = ([[(k, x) for k, x in enumerate(row) if x] for row in m] for m in (a, b))
    out = [[_ZERO] * len(a) for _ in a]
    for p, q, s in ((nz_a, nz_b, 1), (nz_b, nz_a, -1)):
        for acc, row_p in zip(out, p):
            for k, x in row_p:
                for j, y in q[k]:
                    acc[j] += s * x * y
    return tuple(map(tuple, out))


def fmat_transpose(a: FracMatrix) -> FracMatrix:
    return tuple(zip(*a)) if a else a


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form and the pivot column list."""
    m = [list(map(Fraction, r)) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def fmat_inverse(a: FracMatrix) -> FracMatrix:
    n = len(a)
    aug = [list(a[i]) + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise PreconditionError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def solve_exact(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> List[Fraction]:
    """The unique solution of a consistent full-column-rank system."""
    rows = [list(map(Fraction, r)) + [Fraction(bi)] for r, bi in zip(a, b)]
    ncols = len(a[0])
    red, pivots = rref(rows)
    if ncols in pivots:
        raise PreconditionError("inconsistent linear system")
    if len(pivots) != ncols:
        raise PreconditionError("linear system is underdetermined")
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


# -- series matrices ----------------------------------------------------------


def smat_from_frac(a: FracMatrix) -> SeriesMatrix:
    return [[LaurentSeries.constant(x) for x in row] for row in a]


def smat_zero(n: int, m: Optional[int] = None) -> SeriesMatrix:
    m = n if m is None else m
    return [[LaurentSeries.zero() for _ in range(m)] for _ in range(n)]


def smat_identity(n: int) -> SeriesMatrix:
    return [[LaurentSeries.one() if i == j else LaurentSeries.zero() for j in range(n)]
            for i in range(n)]


def smat_is_exact_zero(a: SeriesMatrix) -> bool:
    return all(is_exact_zero(x) for row in a for x in row)


def smat_add(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    return [[y if is_exact_zero(x) else x if is_exact_zero(y) else x + y
             for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def smat_sub(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    return [[x if is_exact_zero(y) else -y if is_exact_zero(x) else x - y
             for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def smat_scale(c, a: SeriesMatrix) -> SeriesMatrix:
    return [[x if is_exact_zero(x) else x * c for x in row] for row in a]


def smat_mul(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    """a * b over the nonzero terms of each entry: one term is a product, more a :func:`dot`."""
    rows_b = [[(j, y) for j, y in enumerate(row) if not is_exact_zero(y)] for row in b]
    zero = LaurentSeries.zero()
    out = []
    for row_a in a:
        terms = {}
        for x, row_b in zip(row_a, rows_b):
            if row_b and not is_exact_zero(x):
                for j, y in row_b:
                    if j in terms:
                        terms[j].append((x, y))
                    else:
                        terms[j] = [(x, y)]
        row = [zero] * len(b[0])
        for j, t in terms.items():
            row[j] = t[0][0] * t[0][1] if len(t) == 1 else dot(t)
        out.append(row)
    return out


def smat_comm(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    return smat_sub(smat_mul(a, b), smat_mul(b, a))


def smat_derivative(a: SeriesMatrix) -> SeriesMatrix:
    return [[x if is_exact_zero(x) else x.derivative() for x in row] for row in a]


def smat_truncate(a: SeriesMatrix, trunc: Optional[int]) -> SeriesMatrix:
    return [[x.truncate(trunc) for x in row] for row in a]


def smat_is_zero(a: SeriesMatrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def smat_agrees(a: SeriesMatrix, b: SeriesMatrix) -> bool:
    return all(x.agrees(y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def smat_combine(coords: Sequence[LaurentSeries], basis: Sequence[FracMatrix]) -> SeriesMatrix:
    """sum_i coords[i] * basis[i] as a series matrix."""
    if not basis:
        raise PreconditionError("empty basis")
    n, m = len(basis[0]), len(basis[0][0])
    out = smat_zero(n, m)
    for c, mat in zip(coords, basis):
        for i in range(n):
            for j in range(m):
                if mat[i][j] != 0:
                    out[i][j] = out[i][j] + c * mat[i][j]
    return out


def apply_frac(a: FracMatrix, v: Sequence[LaurentSeries]) -> List[LaurentSeries]:
    """Rational matrix acting on a vector of series."""
    out = []
    for row in a:
        acc = LaurentSeries.zero()
        for c, s in zip(row, v):
            if c != 0:
                acc = acc + s * c
        out.append(acc)
    return out
