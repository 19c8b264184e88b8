"""Classical matrix models with their principal grading.

Each model is a family letter and a rank: traceless matrices for A, and the
stabilizer of an antidiagonal bilinear form for B (odd orthogonal), C
(symplectic) and D (even orthogonal).  The forms are chosen so that the
principal nilpotent is supported on superdiagonals with entries +-1 and the
grading element is an integer diagonal matrix.  The coefficients of y and the
coweights are closed forms (Bourbaki, Lie Groups, ch. VI, plates I-IV) read
off the coroots [e_r, f_r]; only the splitting of each graded piece into the
image of ad(y) plus a pinned complement takes elimination.  All of it is
exact and cached.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .errors import MalformedInputError, PreconditionError
from .matrices import (
    FracMatrix,
    SeriesMatrix,
    apply_frac,
    fmat_combine,
    fmat_comm,
    fmat_inverse,
    fmat_mul,
    rref,
    smat_combine,
    smat_mul,
    smat_zero,
)
from .record import Record
from .series import LaurentSeries, is_exact_zero

FAMILIES = ("A", "B", "C", "D")
_ZERO = Fraction(0)


class AlgebraType(Record):
    """A family letter and a rank, with what follows from them alone.

    Building a :class:`LieModel` takes exact elimination on its graded
    pieces; the matrix size, the exponents and the name need none of it.
    ``model(t.family, t.rank)`` builds the model of a type ``t``.
    """

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in FAMILIES:
            raise MalformedInputError(f"unknown family {family!r}")
        if rank < 1 or (family == "D" and rank < 2):
            raise MalformedInputError(f"rank {rank} out of range for family {family}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    @property
    def N(self) -> int:
        r = self.rank
        return {"A": r + 1, "B": 2 * r + 1, "C": 2 * r, "D": 2 * r}[self.family]

    @property
    def exponents(self) -> List[int]:
        r = self.rank
        if self.family == "A":
            return list(range(1, r + 1))
        if self.family in ("B", "C"):
            return [2 * i - 1 for i in range(1, r + 1)]
        return sorted([2 * i - 1 for i in range(1, r)] + [r - 1])

    def describe(self) -> str:
        return {"A": "sl", "B": "so", "C": "sp", "D": "so"}[self.family] + f"({self.N})"


def moduli_dimension(model: Union[LieModel, AlgebraType], genus: int,
                     deg_twist: int) -> Tuple[int, List[Tuple[int, int, int]]]:
    """Global parameter count: sum over exponents d of dim H^0(Omega^{d+1}((d+1)D)).

    Only the exponents are read, so an :class:`AlgebraType` serves without a
    model.  Returns the total and rows (exponent, k, contribution).
    """
    if genus < 0 or deg_twist < 0:
        raise PreconditionError("genus and twist degree must be nonnegative")
    table = []
    total = 0
    for d in model.exponents:
        k = d + 1
        if genus == 0:
            dim = max(0, -2 * k + k * deg_twist + 1)
        elif genus == 1:
            dim = 1 if deg_twist == 0 else k * deg_twist
        else:
            dim = (2 * k - 1) * (genus - 1) + k * deg_twist
        table.append((d, k, dim))
        total += dim
    return total, table


class LieModel:
    """One classical family at a fixed rank, with all graded structure data.

    Use :func:`model` to obtain (cached) instances.
    """

    def __init__(self, family: str, rank: int):
        self.type = AlgebraType(family, rank)
        self.family = family
        self.rank = rank
        self.N = N = self.type.N

        # B, C and D preserve the antidiagonal form J = sum_i s_i E_{i, N-1-i}
        self.signs: Optional[List[Fraction]] = None
        self.J: Optional[FracMatrix] = None
        if family != "A":
            self.signs = [Fraction((-1) ** i if family in ("B", "C") else 1) for i in range(N)]
            self.J = self._matrix({(i, N - 1 - i): s for i, s in enumerate(self.signs)})

        if family == "D":
            half = [Fraction(2 * (rank - i)) for i in range(1, rank + 1)]
            self.hdiag = half + [-x for x in reversed(half)]
        else:
            self.hdiag = [Fraction(N + 1 - 2 * i) for i in range(1, N + 1)]
        if any((a - b) % 2 != 0 for a in self.hdiag for b in self.hdiag):
            raise AssertionError("grading element must have uniform parity")
        self.h = self._matrix({(i, i): x for i, x in enumerate(self.hdiag)})
        # degree of each matrix position, read on every gauge step
        self.grades = [[int(a - b) // 2 for b in self.hdiag] for a in self.hdiag]
        self._root_coords: Dict[Tuple[int, int], Tuple[int, ...]] = {}

        self.exponents = self.type.exponents
        self.dmax = max(self.exponents)

        self._init_root_vectors()
        self._init_coweights()
        # degree -> (basis, reads); reads is None for A at degree 0
        self._graded: Dict[int, Tuple[List[FracMatrix], Optional[list]]] = {}
        self._kostant: Dict[int, dict] = {}
        self._xpowers: List[FracMatrix] = [self.x]  # x^1, x^2, ... as far as built

    # -- construction of the principal triple ---------------------------------

    def _mate(self, i: int, j: int) -> Tuple[Tuple[int, int], Fraction]:
        """The position tied to (i, j) by the form, and c with X[mate] = c X[i][j].

        X^T J + J X = 0 reads X[N-1-j][N-1-i] = -s_i s_j X[i][j], as J^T = +-J.
        """
        N = self.N
        return (N - 1 - j, N - 1 - i), -self.signs[i] * self.signs[j]

    def _pair_vector(self, i: int, j: int) -> FracMatrix:
        """E_ij plus c times its mate: the model vector with a 1 at (i, j)."""
        entries = {(i, j): Fraction(1)}
        if self.signs is not None:
            mate, c = self._mate(i, j)
            entries[mate] = c
        return self._matrix(entries)

    def _matrix(self, entries: Dict[Tuple[int, int], Fraction]) -> FracMatrix:
        """The N x N rational matrix with these entries and zeros elsewhere."""
        rows = [[_ZERO] * self.N for _ in range(self.N)]
        for (i, j), x in entries.items():
            rows[i][j] = x
        return tuple(map(tuple, rows))

    def _init_root_vectors(self):
        n = self.rank
        reps = [(r, r + 1) for r in range(n - (self.family == "D"))]
        if self.family == "D":
            reps.append((n - 2, n))  # the fork: the last two roots share row n - 2
        self.simple_positions = reps
        self.e_vectors = [self._pair_vector(i, j) for (i, j) in reps]
        self.f_vectors = [self._pair_vector(j, i) for (i, j) in reps]
        self.x = fmat_combine([Fraction(1)] * n, self.e_vectors)
        # y = sum c_r f_r with [x, y] = h.  [e_r, f_s] = 0 for r != s, and [e_r, f_r]
        # is the coroot, +1 at row i and -1 at row j of the position (i, j) and
        # mirrored below the middle, so c_r is h summed down to row i.  D's fork
        # roots differ only in sign at row n - 1, where h is 0: each takes half.
        fork = n - 2 if self.family == "D" else n
        self.y_coeffs = [sum(self.hdiag[:i + 1]) / (2 if r >= fork else 1)
                         for r, (i, _) in enumerate(reps)]
        self.y = fmat_combine(self.y_coeffs, self.f_vectors)
        if fmat_comm(self.x, self.y) != self.h:
            raise AssertionError("principal relations failed")

    def _init_coweights(self):
        """Coweight r: the diagonal w with w[i] - w[j] = [r == s] at the position
        (i, j) of each simple root s.

        For A it is [i <= r] less its mean; for B, C and D the step
        [i <= r] - [i >= N-1-r], odd under the form's i -> N-1-i.  A root whose
        column mirrors its row reads w[i] - w[N-1-i] = 2 w[i], so C's last root
        at (n-1, n) takes half a step.  So do D's fork roots, which read
        w[n-2] -+ w[n-1]: one is 1 and the other 0 when w[n-1] = w[n-2] = 1/2,
        and swapped when w[n-1] = -1/2 (and w[n] = 1/2 by the form).
        """
        N, n = self.N, self.rank
        halved = {"C": n - 1, "D": n - 2}.get(self.family, n)  # first half-step root
        self.coweights: List[List[Fraction]] = []
        for r in range(n):
            if self.family == "A":
                w = [Fraction((i <= r) * N - r - 1, N) for i in range(N)]
            else:
                w = [Fraction((i <= r) - (i >= N - 1 - r), 1 + (r >= halved)) for i in range(N)]
            if self.family == "D" and r == n - 2:
                w[n - 1], w[n] = Fraction(-1, 2), Fraction(1, 2)
            self.coweights.append(w)

    # -- gradings ---------------------------------------------------------------

    def root_coords(self, i: int, j: int) -> Tuple[int, ...]:
        """Coordinates of the position weight in the simple root basis."""
        if (i, j) not in self._root_coords:
            out = []
            for w in self.coweights:
                m = w[i] - w[j]
                if m.denominator != 1:
                    raise AssertionError("non-integral root coordinate")
                out.append(int(m))
            self._root_coords[(i, j)] = tuple(out)
        return self._root_coords[(i, j)]

    def graded_basis(self, d: int) -> List[FracMatrix]:
        """Basis of the degree-d part of the model, one vector per free position.

        For B, C and D a position p whose mate comes earlier in row-major
        order gives its pair vector E_p + c E_mate, and its coordinate is read
        at the mate as X[mate] / c (after gauge steps X[p] and X[mate] can
        carry different truncation orders); a position that is its own mate
        gives one only when c = 1.  For A the units span every d != 0, each
        read at its own position, and the E_pp - E_00 span the traceless
        diagonal: coordinate p is X[p][p] for p < N - 1 and the last one is
        -(X[0][0] + ... + X[N-2][N-2]).
        """
        if d not in self._graded:
            if self.family == "A" and d == 0:
                basis = [self._matrix({(p, p): Fraction(1), (0, 0): Fraction(-1)})
                         for p in range(1, self.N)]
                reads = None
            else:
                basis, reads = [], []
                for i in range(self.N):
                    for j in range(self.N):
                        if self.grades[i][j] != d:
                            continue
                        mate, c = (i, j), Fraction(1)
                        if self.signs is not None:
                            mate, c = self._mate(i, j)
                            if mate > (i, j) or (mate == (i, j) and c != 1):
                                continue
                        basis.append(self._pair_vector(i, j))
                        reads.append((mate, 1 / c))
            self._graded[d] = basis, reads
        return self._graded[d][0]

    def coords(self, d: int, X: Union[SeriesMatrix, FracMatrix]) -> list:
        """Coordinates of the degree-d part of any model matrix X, of series or
        of rationals, in the graded basis, read where :meth:`graded_basis` says."""
        self.graded_basis(d)
        reads = self._graded[d][1]
        if reads is None:
            diag = [X[p][p] for p in range(self.N - 1)]
            return diag[1:] + [-sum(diag[1:], diag[0])]
        return [X[i][j] if f == 1 else X[i][j] * f for (i, j), f in reads]

    def subdiagonal_coords(self, X: SeriesMatrix) -> List[LaurentSeries]:
        """Coefficients along the simple negative root vectors."""
        return [X[j][i] for (i, j) in self.simple_positions]

    # -- splitting off the image of ad(y) ----------------------------------------

    def _x_power(self, d: int) -> FracMatrix:
        """x^d, each power one product on the one below it."""
        while len(self._xpowers) < d:
            self._xpowers.append(fmat_mul(self._xpowers[-1], self.x))
        return self._xpowers[d - 1]

    def _kerx_basis(self, d: int) -> List[FracMatrix]:
        """Basis of (Ker ad x) at degree d, with x pinned first at d = 1.

        By Kostant's theorem the slice is spanned by the powers x^d in the
        model (odd d for B, C and D) and, for D at d = rank - 1, the Pfaffian
        vector E_{0,d+1} - E_{0,d} with its mates.  Its basis is the reduced
        echelon form over the coordinates read last to first, which is the
        kernel basis that elimination of [x, .] gives.
        """
        span = []
        if d in self.exponents and (self.family == "A" or d % 2):
            span.append(self.coords(d, self._x_power(d)))
        if self.family == "D" and d == self.rank - 1:
            pfaffian = fmat_combine([-1, 1], [self._pair_vector(0, d),
                                              self._pair_vector(0, d + 1)])
            span.append(self.coords(d, pfaffian))
        red, _ = rref([c[::-1] for c in span])
        vecs = [v[::-1] for v in reversed(red)]
        if d == 1:
            # pin x into the first slot, keeping the rest of the echelon basis
            picked = [self.coords(1, self.x)]
            for v in vecs:
                if len(rref(picked + [v])[1]) > len(picked):
                    picked.append(v)
            vecs = picked
        return [fmat_combine(v, self.graded_basis(d)) for v in vecs]

    def kostant_data(self, d: int) -> dict:
        """Inverse of (Z, v) -> [y, Z] + v at degree d, with V = Ker ad x."""
        if d in self._kostant:
            return self._kostant[d]
        basis_d = self.graded_basis(d)
        basis_up = self.graded_basis(d + 1)
        dim = len(basis_d)
        vbasis = self._kerx_basis(d) if d >= 1 else []
        img = [self.coords(d, fmat_comm(self.y, b)) for b in basis_up]
        vcols = [self.coords(d, b) for b in vbasis]
        cols = img + vcols
        if len(cols) != dim:
            raise AssertionError("graded splitting has wrong dimension")
        M = tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))
        data = {
            "Minv": fmat_inverse(M),
            "zdim": len(basis_up),
            "vdim": len(vbasis),
            "vbasis": vbasis,
            "basis_up": basis_up,
        }
        mult = sum(1 for e in self.exponents if e == d) if d >= 1 else 0
        if data["vdim"] != mult:
            raise AssertionError("complement dimension disagrees with exponents")
        self._kostant[d] = data
        return data

    def kostant_split(self, d: int, X: SeriesMatrix) -> Tuple[SeriesMatrix, List[LaurentSeries]]:
        """Write the degree-d part of X as [y, Z] + sum v_i B_i, Z of degree d+1;
        X is read only where :meth:`coords` reads it."""
        data = self.kostant_data(d)
        c = self.coords(d, X)
        zv = apply_frac(data["Minv"], c)
        z, v = zv[: data["zdim"]], zv[data["zdim"]:]
        Z = smat_combine(z, data["basis_up"]) if data["zdim"] else smat_zero(self.N)
        return Z, v

    # -- series-level helpers ------------------------------------------------------

    def in_model(self, q: SeriesMatrix) -> bool:
        """All certified coefficients satisfy the defining constraints."""
        N = self.N
        if self.family == "A":
            return sum((q[i][i] for i in range(N)), LaurentSeries.zero()).is_zero()
        # (q^T J + J q)[a][b] is s[N-1-b] q[N-1-b][a] + s[a] q[N-1-a][b], and
        # J^T = +-J, so a <= b suffice; the signs are +-1, so the sum vanishes
        # exactly when q[N-1-b][a] + s[N-1-b] s[a] q[N-1-a][b] does
        s = self.signs
        for a in range(N):
            for b in range(a, N):
                x, y = q[N - 1 - b][a], q[N - 1 - a][b]
                if is_exact_zero(x) and is_exact_zero(y):
                    continue
                if not (x + y if s[N - 1 - b] == s[a] else x - y).is_zero():
                    return False
        return True

    def grade_parts(self, q: SeriesMatrix) -> Dict[int, SeriesMatrix]:
        """Split a matrix positionwise by grading; zero entries are dropped."""
        parts: Dict[int, SeriesMatrix] = {}
        for i in range(self.N):
            for j in range(self.N):
                if q[i][j].is_zero():
                    continue
                d = self.grades[i][j]
                if d not in parts:
                    parts[d] = [[LaurentSeries.zero() for _ in range(self.N)]
                                for _ in range(self.N)]
                parts[d][i][j] = q[i][j]
        return parts

    # -- identification -------------------------------------------------------------

    def name(self) -> str:
        return f"{self.family}:{self.rank}"

    def describe(self) -> str:
        return self.type.describe()

    def vbasis_fingerprint(self) -> str:
        """Digest pinning the complement bases used in normal forms."""
        parts = [self.name()]
        for d in range(1, self.dmax + 1):
            for b in self.kostant_data(d)["vbasis"]:
                parts.append(f"d{d}:" + ";".join(",".join(str(x) for x in row) for row in b))
        import hashlib  # loads OpenSSL; most operctl commands never need a fingerprint

        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]

    def __eq__(self, other):
        return isinstance(other, LieModel) and (self.family, self.rank) == (other.family, other.rank)

    def __hash__(self):
        return hash((self.family, self.rank))

    def __repr__(self):
        return f"LieModel({self.name()} ~ {self.describe()})"


def invariants(m: LieModel, X: SeriesMatrix) -> List[Tuple[int, LaurentSeries]]:
    """Characteristic coefficients of X, keyed by degree.

    Type A reports degrees 2..N; types B and C the even degrees (the odd ones
    vanish on the algebra and are checked to); type D the even degrees through
    2k-2 plus the determinant in degree 2k, which is the square of the
    (unimplemented) Pfaffian slot.
    """
    N = m.N
    # Faddeev-LeVerrier: exact characteristic coefficients c_1..c_N
    coeffs: List[LaurentSeries] = []
    Mk = smat_zero(N)
    for i in range(N):
        Mk[i][i] = LaurentSeries.one()
    for k in range(1, N + 1):
        acc = smat_mul(X, Mk)
        tr = LaurentSeries.zero()
        for i in range(N):
            tr = tr + acc[i][i]
        ck = tr * Fraction(-1, k)
        coeffs.append(ck)
        Mk = [row[:] for row in acc]
        for i in range(N):
            Mk[i][i] = Mk[i][i] + ck
    if m.family == "A":
        wanted = list(range(2, N + 1))
    elif m.family in ("B", "C"):
        wanted = [k for k in range(2, N + 1) if k % 2 == 0]
    else:
        wanted = [k for k in range(2, N - 1) if k % 2 == 0] + [N]
    if m.family != "A":
        for k in range(1, N + 1):
            if k not in wanted and not coeffs[k - 1].is_zero():
                raise AssertionError(f"degree-{k} coefficient should vanish on {m.name()}")
    return [(k, coeffs[k - 1]) for k in wanted]


_MODELS: Dict[Tuple[str, int], LieModel] = {}


def model(family: str, rank: int) -> LieModel:
    key = (family, rank)
    if key not in _MODELS:
        _MODELS[key] = LieModel(family, rank)
    return _MODELS[key]


def parse_algebra(text: str) -> AlgebraType:
    """Accept 'A:2' style names and 'sl:3' / 'so:5' / 'sp:4' aliases."""
    try:
        kind, _, num = text.partition(":")
        n = int(num)
    except ValueError:
        raise MalformedInputError(f"cannot parse algebra {text!r}")
    kind = kind.strip()
    if kind in FAMILIES:
        return AlgebraType(kind, n)
    if kind == "sl":
        if n < 2:
            raise MalformedInputError("sl needs size >= 2")
        return AlgebraType("A", n - 1)
    if kind == "sp":
        if n < 2 or n % 2:
            raise MalformedInputError("sp needs even size >= 2")
        return AlgebraType("C", n // 2)
    if kind == "so":
        if n >= 3 and n % 2 == 1:
            return AlgebraType("B", (n - 1) // 2)
        if n >= 4 and n % 2 == 0:
            return AlgebraType("D", n // 2)
        raise MalformedInputError("so needs size >= 3")
    raise MalformedInputError(f"unknown algebra kind {kind!r}")
