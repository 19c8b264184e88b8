"""Structure of the classical matrix models.

Exponent tables are frozen from the standard lists; invariant polynomials are
checked against elementary symmetric functions on triangular matrices, where
the characteristic polynomial is readable by eye.
"""

import hashlib
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from opercalc.errors import MalformedInputError
from opercalc.lie import AlgebraType, LieModel, invariants, model, parse_algebra
from opercalc.matrices import (
    apply_frac,
    fmat_combine,
    fmat_comm,
    fmat_inverse,
    fmat_mul,
    fmat_transpose,
    rref,
    smat_add,
    smat_agrees,
    smat_combine,
    smat_comm,
    smat_from_frac,
    smat_is_zero,
    smat_mul,
    smat_scale,
    smat_sub,
    smat_zero,
)
from opercalc.series import LaurentSeries
from oracles import smat_identity

ALL_MODELS = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3),
    ("C", 2), ("C", 3),
    ("D", 2), ("D", 3), ("D", 4),
]

EXPONENT_TABLE = {
    ("A", 1): [1], ("A", 2): [1, 2], ("A", 3): [1, 2, 3], ("A", 4): [1, 2, 3, 4],
    ("B", 2): [1, 3], ("B", 3): [1, 3, 5],
    ("C", 2): [1, 3], ("C", 3): [1, 3, 5],
    ("D", 2): [1, 1], ("D", 3): [1, 2, 3], ("D", 4): [1, 3, 3, 5],
}


def rnd_series(rng, trunc=8):
    return LaurentSeries.from_terms(
        {k: F(rng.randint(-5, 5), rng.randint(1, 4)) for k in range(trunc)}, trunc
    )


def rnd_graded(rng, m, d, trunc=8):
    out = smat_zero(m.N)
    for b in m.graded_basis(d):
        out = smat_add(out, smat_scale(rnd_series(rng, trunc), smat_from_frac(b)))
    return out


class TestStructure:
    @pytest.mark.parametrize("family,rank", ALL_MODELS)
    def test_exponents(self, family, rank):
        assert model(family, rank).exponents == EXPONENT_TABLE[(family, rank)]

    @pytest.mark.parametrize("family,rank", ALL_MODELS)
    def test_principal_triple(self, family, rank):
        m = model(family, rank)
        assert fmat_comm(m.x, m.y) == m.h
        for v, c in ((m.x, 2), (m.y, -2)):
            assert fmat_comm(m.h, v) == tuple(tuple(c * a for a in row) for row in v)

    @pytest.mark.parametrize("family,rank", ALL_MODELS)
    def test_graded_dimensions(self, family, rank):
        m = model(family, rank)
        for d in range(1, m.dmax + 1):
            expect = sum(1 for e in m.exponents if e >= d)
            assert len(m.graded_basis(d)) == expect, d
            assert len(m.graded_basis(-d)) == expect, -d
        assert len(m.graded_basis(0)) == m.rank
        assert m.graded_basis(m.dmax + 1) == []

    @pytest.mark.parametrize("family,rank", ALL_MODELS)
    def test_coweights_sum_to_half_h(self, family, rank):
        m = model(family, rank)
        total = [sum(w[i] for w in m.coweights) for i in range(m.N)]
        assert [2 * t for t in total] == m.hdiag

    @pytest.mark.parametrize("family,rank", ALL_MODELS)
    def test_grades_match_root_coords(self, family, rank):
        m = model(family, rank)
        for i in range(m.N):
            for j in range(m.N):
                if i != j:
                    assert sum(m.root_coords(i, j)) == (m.hdiag[i] - m.hdiag[j]) // 2


RANK_CAP_MODELS = [(f, r) for f in "ABCD" for r in range(1, 13) if (f, r) != ("D", 1)]


def y_coeffs_oracle(m):
    """The coefficients of y by elimination: [x, y] = h read on the diagonal,
    one column [e_r, f_r] per simple root, solved by rref."""
    cols = [fmat_comm(e, f) for e, f in zip(m.e_vectors, m.f_vectors)]
    assert all(c[i][j] == 0 for c in cols for i in range(m.N) for j in range(m.N) if i != j)
    rows = [[c[i][i] for c in cols] + [m.hdiag[i]] for i in range(m.N)]
    red, pivots = rref(rows)
    assert pivots == list(range(m.rank))
    return [red[r][m.rank] for r in range(m.rank)]


def coweights_oracle(m):
    """The coweights by inverting the simple roots' values on a basis of
    diagonals: E_rr - E_(r+1)(r+1) for A, E_rr - E_(N-1-r)(N-1-r) otherwise."""
    N, n = m.N, m.rank
    ends = [r + 1 if m.family == "A" else N - 1 - r for r in range(n)]
    basis = [[F(int(i == r) - int(i == e)) for i in range(N)] for r, e in enumerate(ends)]
    inv = fmat_inverse([[b[i] - b[j] for b in basis] for i, j in m.simple_positions])
    return [[sum((inv[t][r] * basis[t][i] for t in range(n)), F(0)) for i in range(N)]
            for r in range(n)]


class TestClosedForms:
    """y_coeffs and the coweights are closed forms; these check the equations
    that define them, and the elimination that found them before."""

    @pytest.mark.parametrize("family,rank", RANK_CAP_MODELS)
    def test_formulas_solve_their_equations(self, family, rank):
        m = model(family, rank)
        assert fmat_comm(m.x, m.y) == m.h
        assert m.y == fmat_combine(m.y_coeffs, m.f_vectors)
        for r, w in enumerate(m.coweights):
            assert [w[i] - w[j] for i, j in m.simple_positions] == [
                int(s == r) for s in range(m.rank)], r
            if family == "A":
                assert sum(w) == 0, r
            else:
                assert all(w[i] == -w[m.N - 1 - i] for i in range(m.N)), r

    @pytest.mark.parametrize("family,rank", RANK_CAP_MODELS)
    def test_formulas_match_elimination(self, family, rank):
        m = model(family, rank)
        assert m.y_coeffs == y_coeffs_oracle(m)
        assert m.coweights == coweights_oracle(m)


def kerx_oracle(m, d):
    """The slice at degree d by elimination: the kernel of [x, .] from degree
    d to d + 1, one vector per free column (all units at the top degree), with
    x pinned first at d = 1."""
    basis_d, basis_up = m.graded_basis(d), m.graded_basis(d + 1)
    n = len(basis_d)
    vecs = [[F(int(k == t)) for k in range(n)] for t in range(n)]
    if basis_up:
        rows = [m.coords(d + 1, fmat_comm(m.x, b)) for b in basis_d]
        red, pivots = rref([[row[i] for row in rows] for i in range(len(basis_up))])
        free = [f for f in range(n) if f not in pivots]
        vecs = [vecs[f] for f in free]
        for f, v in zip(free, vecs):
            for r, c in enumerate(pivots):
                v[c] = -red[r][f]
    if d == 1:
        picked = [m.coords(1, m.x)]
        for v in vecs:
            if len(rref(picked + [v])[1]) > len(picked):
                picked.append(v)
        vecs = picked
    return [fmat_combine(v, basis_d) for v in vecs]


class TestKostantSplit:
    @pytest.mark.parametrize("family,rank", ALL_MODELS)
    def test_reconstruction(self, family, rank):
        rng = random.Random(hash((family, rank)) % 10**6)
        m = model(family, rank)
        for d in range(0, m.dmax + 1):
            X = rnd_graded(rng, m, d)
            Z, v = m.kostant_split(d, X)
            back = smat_comm(smat_from_frac(m.y), Z)
            for coeff, b in zip(v, m.kostant_data(d)["vbasis"]):
                back = smat_add(back, smat_scale(coeff, smat_from_frac(b)))
            assert smat_agrees(back, X), (family, rank, d)

    @pytest.mark.parametrize("family,rank", ALL_MODELS)
    def test_multiplicities(self, family, rank):
        m = model(family, rank)
        for d in range(1, m.dmax + 1):
            assert m.kostant_data(d)["vdim"] == m.exponents.count(d)
        assert m.kostant_data(0)["vdim"] == 0

    def test_x_spans_degree_one_slot(self):
        for family, rank in ALL_MODELS:
            m = model(family, rank)
            if m.kostant_data(1)["vdim"] == 1:
                assert m.kostant_data(1)["vbasis"][0] == m.x

    @pytest.mark.parametrize("family,rank", RANK_CAP_MODELS)
    def test_slice_matches_elimination(self, family, rank):
        m = model(family, rank)
        for d in range(1, m.dmax + 1):
            assert m.kostant_data(d)["vbasis"] == kerx_oracle(m, d), d

    def test_fingerprint_stable_and_separating(self):
        prints = {}
        for family, rank in ALL_MODELS:
            fresh = LieModel(family, rank)
            assert fresh.vbasis_fingerprint() == model(family, rank).vbasis_fingerprint()
            prints[(family, rank)] = fresh.vbasis_fingerprint()
        assert len(set(prints.values())) == len(prints)


def elimination_oracle(m, d):
    """Pivot positions and recovering matrix of the degree-d coordinates by
    elimination: the rref of the basis rows over the degree-d positions, then
    the inverse of the transposed pivot block."""
    pos = [(i, j) for i in range(m.N) for j in range(m.N) if m.grades[i][j] == d]
    basis = m.graded_basis(d)
    rows = [[b[i][j] for (i, j) in pos] for b in basis]
    _, pivots = rref(rows)
    block = tuple(tuple(row[p] for p in pivots) for row in rows)
    return [pos[p] for p in pivots], fmat_inverse(fmat_transpose(block))


def oracle_coords(m, d, X):
    ppos, E = elimination_oracle(m, d)
    vals = [X[i][j] for (i, j) in ppos]
    if isinstance(X, tuple):
        return [sum((r * v for r, v in zip(row, vals)), F(0)) for row in E]
    return apply_frac(E, vals)


def rnd_entry(rng):
    """Exact zero, truncated zero, exact or truncated series, at random."""
    kind = rng.randrange(4)
    if kind == 0:
        return LaurentSeries.zero()
    if kind == 1:
        return LaurentSeries.zero(rng.randint(-1, 6))
    terms = {k: F(rng.randint(-5, 5), rng.randint(1, 4))
             for k in range(rng.randint(-2, 0), rng.randint(1, 5))}
    return LaurentSeries.from_terms(terms, None if kind == 2 else rng.randint(2, 9))


COORD_MODELS = ([("A", r) for r in range(1, 7)] + [("B", r) for r in range(1, 7)]
                + [("C", r) for r in range(1, 7)] + [("D", r) for r in range(2, 7)])


class TestCoords:
    """coords reads one entry per coordinate (a trace on A's diagonal) and
    must give exactly what the elimination gives, on any matrix."""

    @pytest.mark.parametrize("family,rank", COORD_MODELS)
    def test_matches_elimination(self, family, rank):
        rng = random.Random(f"coords:{family}:{rank}")
        m = model(family, rank)
        degrees = range(-m.dmax - 1, m.dmax + 2)
        for _ in range(3):
            inside = smat_zero(m.N)
            for d in degrees:
                basis = m.graded_basis(d)
                if basis:
                    coeffs = [rnd_entry(rng) for _ in basis]
                    inside = smat_add(inside, smat_combine(coeffs, basis))
            outside = [[rnd_entry(rng) for _ in range(m.N)] for _ in range(m.N)]
            frac_in = fmat_combine(
                [F(rng.randint(-9, 9), rng.randint(1, 5)) for d in degrees
                 for _ in m.graded_basis(d)],
                [b for d in degrees for b in m.graded_basis(d)])
            frac_out = rnd_frac_matrix(rng, m.N, m.N, 0.7)
            for d in degrees:
                for X in (inside, outside):
                    got, want = m.coords(d, X), oracle_coords(m, d, X)
                    assert ([(s.val, s.nums, s.den, s.trunc) for s in got]
                            == [(s.val, s.nums, s.den, s.trunc) for s in want]), d
                for X in (frac_in, frac_out):
                    got = m.coords(d, X)
                    assert got == oracle_coords(m, d, X), d
                    assert all(type(x) is F for x in got), d


# the complement bases fix every normal form written to disk, so their
# digests are pinned: any change to the model construction must leave them
FINGERPRINTS = {
    ("A", 1): "28c08c227265d164", ("A", 2): "c6caf4f347a4b0cd",
    ("A", 3): "6961a24be13b115d", ("A", 4): "1ef09a24fe27ab44",
    ("A", 5): "e5e0d0ad8e70ad3e",
    ("B", 2): "ae0db4caa8909b15", ("B", 3): "ccaf31bab0c10946",
    ("B", 4): "7a96dbff1f1a6f55", ("B", 5): "8069e8d074cbe8d7",
    ("C", 2): "5e6a2ee9e31f5e5d", ("C", 3): "d5836ebb38220806",
    ("C", 4): "d2882467fe71e678", ("C", 5): "3f85fccf7d38a91e",
    ("D", 3): "3bb39190192fee12", ("D", 4): "e436aee416291780",
    ("D", 5): "0eb40362cc1ef4e0",
}


def _mat_text(mat):
    return ";".join(",".join(str(x) for x in row) for row in mat)


def structure_digest(m):
    """Digest of the root vectors, x, y, coweights, graded bases and Kostant data."""
    parts = [m.name(), str(m.y_coeffs), str(m.coweights)]
    parts += [_mat_text(v) for v in m.e_vectors + m.f_vectors + [m.x, m.y]]
    for d in range(-m.dmax, m.dmax + 1):
        parts += [f"g{d}:" + _mat_text(b) for b in m.graded_basis(d)]
    for d in range(0, m.dmax + 1):
        k = m.kostant_data(d)
        parts += [f"k{d}:" + _mat_text(k["Minv"])]
        parts += [_mat_text(b) for b in k["vbasis"] + k["basis_up"]]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


# every structure datum of the models up to the rank cap of serialize: graded
# coordinates, gauge steps and normal forms are all read in these bases, so any
# change to the model construction must leave them
STRUCTURE_DIGESTS = {
    ("A", 1): "b21d4d161a4a3a75", ("A", 2): "aa3910a8faa8528d",
    ("A", 3): "ddec3b7d4cdd343d", ("A", 4): "fc1d92aca127643e",
    ("A", 5): "d8b513205d88da1d", ("A", 6): "609608546aab7f9b",
    ("B", 1): "fed4c21cae018c65", ("B", 2): "9c68a18343306d31",
    ("B", 3): "fbb9c127ee32a881", ("B", 4): "90ab3c34eed96253",
    ("B", 5): "bf41456c5d5003d2", ("B", 6): "c49cbb76230d1805",
    ("C", 1): "e992513320fac4b6", ("C", 2): "67a1c14ae297f353",
    ("C", 3): "b1ed6b06ef9db0d8", ("C", 4): "d5774123490a7c5e",
    ("C", 5): "ec66d4897da5415c", ("C", 6): "05bc833895fcae58",
    ("D", 2): "5815305248338ae5", ("D", 3): "e23889c2004a6c9b",
    ("D", 4): "36383d40b28f3294", ("D", 5): "c4246ef6f43bdb46",
    ("D", 6): "acce4fff423171b6",
    ("A", 7): "cdde3973f2130742", ("A", 8): "9527967ae0466306",
    ("A", 9): "1edd0b6a59050dce", ("A", 10): "a2829c5b70641884",
    ("A", 11): "9e69da7439fbf47c", ("A", 12): "6d80252714ea3bc9",
    ("B", 7): "1c1ba446addc6a0d", ("B", 8): "fafd2a5edb98d2f0",
    ("B", 9): "14321eafc54e0eb3", ("B", 10): "ecb7bcedb7cfd48d",
    ("B", 11): "34bc3bd48413fb06", ("B", 12): "d659d03d0f22df48",
    ("C", 7): "8223fc4a071b2938", ("C", 8): "ce219516fc69a851",
    ("C", 9): "a405be0ab902bd19", ("C", 10): "069a4781e7153d96",
    ("C", 11): "1eb97c9ce3b36854", ("C", 12): "365f9f097ee57a68",
    ("D", 7): "51f7ab0d15a66bb2", ("D", 8): "58a9fa975a9b0e8e",
    ("D", 9): "e37d98b9446838af", ("D", 10): "a45f55deac037a14",
    ("D", 11): "cbcfa5c78453196a", ("D", 12): "cbea36cca4e442b5",
}


class TestPinnedModelData:
    @pytest.mark.parametrize("family,rank", sorted(FINGERPRINTS))
    def test_vbasis_fingerprint(self, family, rank):
        assert model(family, rank).vbasis_fingerprint() == FINGERPRINTS[(family, rank)]

    @pytest.mark.parametrize("family,rank", sorted(STRUCTURE_DIGESTS))
    def test_structure_digest(self, family, rank):
        assert structure_digest(model(family, rank)) == STRUCTURE_DIGESTS[(family, rank)]

    @pytest.mark.parametrize("family,rank", ALL_MODELS + [("B", 1), ("C", 1)])
    def test_bases_lie_in_the_model_and_span_it(self, family, rank):
        # membership by the dense constraint X^T J + J X = 0 (trace 0 for A),
        # completeness by the rank of the stacked graded bases
        m = model(family, rank)
        basis = [b for d in range(-m.dmax, m.dmax + 1) for b in m.graded_basis(d)]
        for X in basis + m.e_vectors + m.f_vectors:
            if family == "A":
                assert sum(X[i][i] for i in range(m.N)) == 0
            else:
                assert dense_in_model(m, smat_from_frac(X))
        for (i, j), e, f in zip(m.simple_positions, m.e_vectors, m.f_vectors):
            assert e[i][j] == f[j][i] == 1
        _, pivots = rref([[x for row in b for x in row] for b in basis])
        assert len(pivots) == len(basis) == MODEL_DIM[family](m.N)


MODEL_DIM = {"A": lambda n: n * n - 1, "B": lambda n: n * (n - 1) // 2,
             "C": lambda n: n * (n + 1) // 2, "D": lambda n: n * (n - 1) // 2}


def naive_mul(a, b):
    """The dense triple loop."""
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), F(0))
                       for j in range(len(b[0]))) for i in range(len(a)))


def rnd_frac_matrix(rng, n, m, density):
    return tuple(tuple(F(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < density
                       else F(0) for _ in range(m)) for _ in range(n))


class TestFracProducts:
    @pytest.mark.parametrize("density", [0.0, 0.1, 0.4, 1.0])
    def test_fmat_mul_matches_dense_triple_loop(self, density):
        rng = random.Random(int(density * 10) + 17)
        for n, k, m in [(1, 1, 1), (3, 3, 3), (2, 5, 4), (6, 1, 3), (5, 7, 2), (9, 9, 9)]:
            a = rnd_frac_matrix(rng, n, k, density)
            b = rnd_frac_matrix(rng, k, m, density)
            got = fmat_mul(a, b)
            assert got == naive_mul(a, b)
            assert all(type(x) is F for row in got for x in row)
            assert len(got) == n and all(len(row) == m for row in got)

    def test_fmat_combine_and_comm_match_dense(self):
        rng = random.Random(5)
        pairs = []
        for density in (0.1, 0.5, 1.0, 0.0):
            mats = [rnd_frac_matrix(rng, 3, 4, density) for _ in range(4)]
            coeffs = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in mats]
            want = tuple(tuple(sum((c * mat[i][j] for c, mat in zip(coeffs, mats)), F(0))
                               for j in range(4)) for i in range(3))
            assert fmat_combine(coeffs, mats) == want
            pairs.append(tuple(rnd_frac_matrix(rng, 5, 5, density) for _ in range(2)))
        dense, zero = pairs[2][0], pairs[3][0]
        unit = tuple(tuple(F(-7, 3) if (i, j) == (1, 3) else F(0) for j in range(5))
                     for i in range(5))
        pairs += [(zero, dense), (unit, dense), (dense, unit), (unit, unit),
                  (unit, fmat_transpose(unit)), (((F(2, 5),),), ((F(-3),),)),
                  (((F(0),),), ((F(4),),))]
        for a, b in pairs:
            ab, ba = naive_mul(a, b), naive_mul(b, a)
            got = fmat_comm(a, b)
            assert got == tuple(tuple(x - y for x, y in zip(r, t)) for r, t in zip(ab, ba))
            assert type(got) is tuple and all(type(row) is tuple for row in got)
            assert all(type(x) is F for row in got for x in row)


def dense_in_model(m, q):
    """q^T J + J q == 0 by two dense products, the defining constraint itself."""
    Js = smat_from_frac(m.J)
    qt = [list(col) for col in zip(*q)]
    return smat_is_zero(smat_add(smat_mul(qt, Js), smat_mul(Js, q)))


class TestInModel:
    @pytest.mark.parametrize("family,rank", [("B", 2), ("B", 3), ("C", 2), ("C", 3),
                                             ("D", 3), ("D", 4)])
    def test_matches_dense_constraint(self, family, rank):
        rng = random.Random(f"in_model:{family}:{rank}")
        m = model(family, rank)
        seen = set()
        for _ in range(12):
            q = smat_zero(m.N)
            for d in range(-m.dmax, m.dmax + 1):
                q = smat_add(q, rnd_graded(rng, m, d, trunc=rng.randint(3, 8)))
            cases = [q]
            for pert in (rnd_series(rng, 6), LaurentSeries.zero(4), LaurentSeries.one()):
                i, j = rng.randrange(m.N), rng.randrange(m.N)
                bad = [row[:] for row in q]
                bad[i][j] = bad[i][j] + pert
                cases.append(bad)
            for c in cases:
                got = m.in_model(c)
                assert got == dense_in_model(m, c)
                seen.add(got)
            assert m.in_model(q)
        assert seen == {True, False}


def elementary_symmetric(vals, k):
    total = F(0)
    for c in combinations(vals, k):
        term = F(1)
        for x in c:
            term *= x
        total += term
    return total


class TestInvariants:
    def test_triangular_oracle_sl(self):
        # char poly of a lower-triangular matrix reads off the diagonal
        m = model("A", 2)
        diag = [F(3), F(-1), F(-2)]
        q = smat_zero(3)
        for i in range(3):
            q[i][i] = LaurentSeries.constant(diag[i])
        q[1][0] = LaurentSeries.constant(5)
        q[2][1] = LaurentSeries.constant(-7)
        # det(t - X) = t^3 + c_2 t + c_3 with c_k = (-1)^k e_k(diagonal)
        got = dict(invariants(m, q))
        assert got[2] == LaurentSeries.constant(elementary_symmetric(diag, 2))
        assert got[3] == LaurentSeries.constant(-elementary_symmetric(diag, 3))

    def test_two_by_two_formula(self):
        m = model("A", 1)
        rng = random.Random(3)
        a, b, c = (rnd_series(rng) for _ in range(3))
        q = [[a, b], [c, -1 * a]]
        (k, p2), = invariants(m, q)
        assert k == 2
        # det of [[a, b], [c, -a]]
        assert p2.agrees(-1 * a * a - b * c)

    @pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 3)])
    def test_conjugation_invariance(self, family, rank):
        rng = random.Random(hash((family, rank, "inv")) % 10**6)
        m = model(family, rank)
        q = smat_from_frac(m.y)
        for d in range(0, m.dmax + 1):
            q = smat_add(q, rnd_graded(rng, m, d))
        n_mat = rnd_graded(rng, m, 1)
        expn = smat_identity(m.N)
        term = smat_identity(m.N)
        for k in range(1, m.N + 1):
            term = smat_scale(F(1, k), smat_mul(term, n_mat))
            if smat_is_zero(term):
                break
            expn = smat_add(expn, term)
        # unipotent inverse: sum of powers of (I - E)
        diff = smat_sub(smat_identity(m.N), expn)
        inv = smat_identity(m.N)
        power = smat_identity(m.N)
        for _ in range(2 * m.N):
            power = smat_mul(power, diff)
            if smat_is_zero(power):
                break
            inv = smat_add(inv, power)
        conj = smat_mul(smat_mul(expn, q), inv)
        a = invariants(m, q)
        b = invariants(m, conj)
        assert [k for k, _ in a] == [k for k, _ in b]
        for (_, pa), (_, pb) in zip(a, b):
            assert pa.agrees(pb)

    def test_family_degree_selection(self):
        assert [k for k, _ in invariants(model("A", 3), smat_from_frac(model("A", 3).y))] == [2, 3, 4]
        assert [k for k, _ in invariants(model("B", 2), smat_from_frac(model("B", 2).y))] == [2, 4]
        assert [k for k, _ in invariants(model("C", 3), smat_from_frac(model("C", 3).y))] == [2, 4, 6]
        assert [k for k, _ in invariants(model("D", 4), smat_from_frac(model("D", 4).y))] == [2, 4, 6, 8]


class TestParse:
    def test_names(self):
        assert parse_algebra("A:2") == AlgebraType("A", 2)
        assert parse_algebra("sl:3") == AlgebraType("A", 2)
        assert parse_algebra("so:5") == AlgebraType("B", 2)
        assert parse_algebra("so:6") == AlgebraType("D", 3)
        assert parse_algebra("sp:6") == AlgebraType("C", 3)
        for (family, rank), want in {
            ("A", 3): (4, [1, 2, 3], "sl(4)"), ("B", 3): (7, [1, 3, 5], "so(7)"),
            ("C", 2): (4, [1, 3], "sp(4)"), ("D", 4): (8, [1, 3, 3, 5], "so(8)"),
            ("D", 2): (4, [1, 1], "so(4)"),
        }.items():
            t, m = AlgebraType(family, rank), model(family, rank)
            assert (t.N, t.exponents, t.describe()) == (m.N, m.exponents, m.describe()) == want

    def test_rejects(self):
        for bad in ("E:8", "sl:1", "sp:5", "so:2", "junk", "A:x"):
            with pytest.raises(MalformedInputError):
                parse_algebra(bad)
