"""Between scalar operators and flagged matrix connections, family by family.

A flagged system is h*d/dz + q on O^n with q vanishing below the first
subdiagonal and invertible constants on it, so the coordinate flag is a
complete filtration moved one step at a time.  Its scalar operator is read
off through the cyclic vector e_0; the inverse direction builds a companion
matrix.  For the traceless, symplectic and odd orthogonal models the same
read-off runs against the canonical gauge and the inverse direction solves
for canonical densities exponent by exponent.  The even orthogonal model is
not scalar: it is equivalent to a pair (L, f) of a skew operator and a
density, handled by so_even_build / so_even_extract.

Weight conventions: an order-n operator between weights (a, b) requires
b = a + n for the general-linear kind, and the self-dual window
a = (1 - n)/2, b = (1 + n)/2 for the other kinds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .diffops import (DiffOp, PseudoSymbol, _pairing_transposed, compose, pairing,
                      pseudo_invert, symmetric_square, to_plain, transpose)
from .errors import MalformedInputError, NotAnOperError, PreconditionError
from .gauge import CanonicalForm, GaugeElement, OperConnection, gauge_apply
from .lie import LieModel, model as lie_model
from .matrices import (
    FracMatrix,
    SeriesMatrix,
    fmat_inverse,
    fmat_mul,
    fmat_transpose,
    smat_agrees,
    smat_from_frac,
    smat_mul,
)
from .record import Record
from .series import Density, LaurentSeries, Rat, _fr, dot, half_integer, is_exact_zero

ZERO = LaurentSeries.zero()
ONE = LaurentSeries.one()

KIND_FAMILY = {"sl": "A", "sp": "C", "so_odd": "B"}
FAMILY_KIND = {f: k for k, f in KIND_FAMILY.items()}


# -- flagged systems -------------------------------------------------------------


class FlaggedSystem(Record):
    """h*d/dz + q on O^n together with the weights of the two edge lines.

    `src` is the density weight carried by the first coordinate line and
    `tgt` = src + n the weight of the top quotient; the scalar operator of
    the system maps weight-src densities to weight-tgt densities.
    """

    __slots__ = ("matrix", "src", "tgt", "planck")

    def __init__(self, matrix: SeriesMatrix, src: Rat, tgt: Rat, planck: Rat):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "src", half_integer(src))
        object.__setattr__(self, "tgt", half_integer(tgt))
        object.__setattr__(self, "planck", _fr(planck))

    @property
    def n(self) -> int:
        return len(self.matrix)

    def validate(self):
        n = self.n
        if n < 1 or any(len(row) != n for row in self.matrix):
            raise MalformedInputError("connection matrix must be square")
        if self.tgt - self.src != n:
            raise PreconditionError(f"edge weights must differ by the size {n}")
        # constant subdiagonal keeps the coordinate trivializations unambiguous
        _require_flag(self.matrix, constant=True)

    def trace(self) -> LaurentSeries:
        out = ZERO
        for i in range(self.n):
            out = out + self.matrix[i][i]
        return out

    def symbol(self) -> LaurentSeries:
        """Product of the subdiagonal entries; the top coefficient of the read-off."""
        out = ONE
        for i in range(self.n - 1):
            out = out * self.matrix[i + 1][i]
        return out

    def agrees(self, other: "FlaggedSystem") -> bool:
        return (
            (self.src, self.tgt, self.planck) == (other.src, other.tgt, other.planck)
            and self.n == other.n
            and smat_agrees(self.matrix, other.matrix)
        )


def companion_system(op: DiffOp) -> FlaggedSystem:
    """Unit subdiagonal, last column -f_i; requires a monic operator."""
    n = op.order
    if n < 1:
        raise PreconditionError("an operator of positive order is required")
    if op.tgt - op.src != n:
        raise PreconditionError(f"edge weights must differ by the order {n}")
    if not op.coeffs[-1].agrees(ONE):
        raise PreconditionError("principal symbol must be 1")
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i + 1][i] = ONE
    for i in range(n):
        rows[i][n - 1] = rows[i][n - 1] - op.coeffs[i]
    return FlaggedSystem(rows, op.src, op.tgt, op.planck)


def as_flagged(conn: OperConnection) -> FlaggedSystem:
    """Coordinate flag of a matrix connection, with the self-dual edge weights."""
    if conn.model.family == "D":
        raise PreconditionError("the even orthogonal flag has a two-dimensional middle step")
    return FlaggedSystem(conn.q, *_window(conn.model.N), conn.planck)


def _window(n: int) -> Tuple[Fraction, Fraction]:
    """The self-dual weight window (a, b) = ((1 - n)/2, (1 + n)/2) at order n."""
    a = Fraction(1 - n, 2)
    return a, 1 - a


def _is_constant(s: LaurentSeries) -> bool:
    """An exact nonzero constant series."""
    return s.is_exact() and s.is_monomial() and s.val == 0


def _require_flag(q: SeriesMatrix, constant: bool):
    """q vanishes below the first subdiagonal and is invertible (or constant) on it."""
    n = len(q)
    if any(not q[i][j].is_zero() for i in range(2, n) for j in range(i - 1)):
        raise NotAnOperError("matrix has entries below the first subdiagonal")
    for i in range(n - 1):
        a = q[i + 1][i]
        if constant and not _is_constant(a):
            raise NotAnOperError("subdiagonal entries must be invertible constants")
        if not a.is_unit():
            raise NotAnOperError(f"subdiagonal entry at row {i + 1} is not invertible")


# -- the cyclic read-off ---------------------------------------------------------


def _nabla_row(q: SeriesMatrix, h: Fraction, vec: Sequence[LaurentSeries],
               i: int) -> LaurentSeries:
    """Row i of (h d/dz + q) vec."""
    acc = dot(zip(q[i], vec))
    if h and not is_exact_zero(vec[i]):
        acc = h * vec[i].derivative() + acc
    return acc


def _apply_nabla(q: SeriesMatrix, h: Fraction,
                 vec: Sequence[LaurentSeries]) -> List[LaurentSeries]:
    return [_nabla_row(q, h, vec, i) for i in range(len(q))]


def _flag_readoff(q: SeriesMatrix, h: Fraction, trunc: Optional[int]) -> List[LaurentSeries]:
    """Coefficients c with nabla^n e_0 = sum c_k nabla^k e_0 on a checked flag (_require_flag)."""
    n = len(q)
    vs = [[ONE] + [ZERO] * (n - 1)]
    for _ in range(n):
        vs.append(_apply_nabla(q, h, vs[-1]))
    coeffs: List[LaurentSeries] = [ZERO] * n
    for i in range(n - 1, -1, -1):
        num = vs[n][i] - dot((coeffs[m], vs[m][i]) for m in range(i + 1, n))
        coeffs[i] = num.div(vs[i][i], trunc)
    return coeffs


def diffop_from_oper(obj: Union[OperConnection, FlaggedSystem],
                     kind: Optional[str] = None,
                     trunc: Optional[int] = None) -> DiffOp:
    """Scalar operator of a flagged system or a model connection.

    Model connections give the monic operator in the self-dual weight window
    (invariant under constant torus rescalings and flag-preserving unipotent
    gauges).  Flagged systems keep their declared weights and the coordinate
    symbol: the result is symbol * (monic read-off), so a dualized system
    yields exactly -L^t.
    """
    if isinstance(obj, FlaggedSystem):
        if kind not in (None, "gl"):
            raise PreconditionError("flagged systems carry the general-linear kind")
        obj.validate()
        q, n, g, (src, tgt) = obj.matrix, obj.n, obj.symbol(), (obj.src, obj.tgt)
    else:
        model = obj.model
        if model.family == "D":
            raise PreconditionError("even orthogonal opers are not scalar; use so_even_extract")
        expected = FAMILY_KIND[model.family]
        if kind is not None and kind != expected:
            raise PreconditionError(f"model {model.name()} carries kind {expected!r}, not {kind!r}")
        obj = obj.truncated(trunc)
        obj.validate()
        q, n, g, (src, tgt) = obj.q, model.N, ONE, _window(model.N)
        _require_flag(q, constant=False)
    c = _flag_readoff(q, obj.planck, trunc)
    cmap = {i: -(g * ck) for i, ck in enumerate(c)}
    cmap[n] = g
    return DiffOp.from_map(cmap, src, tgt, obj.planck)


# -- building connections from operators ----------------------------------------


def companion_torus(model: LieModel) -> GaugeElement:
    """Constant torus carrying the unit subdiagonal to the canonical coefficients."""
    t = {
        r: LaurentSeries.constant(c)
        for r, c in enumerate(model.y_coeffs)
        if c != 1
    }
    return GaugeElement(model, t, [])


def _require_window(op: DiffOp):
    a, b = _window(op.order)
    if (op.src, op.tgt) != (a, b):
        raise PreconditionError(
            f"the self-dual weight window ({a}, {b}) is required, got ({op.src}, {op.tgt})"
        )
    if not op.coeffs[-1].agrees(ONE):
        raise PreconditionError("principal symbol must be 1")


def _jet(op: DiffOp, i: int) -> DiffOp:
    """D^i on the source weight of op: the i-th step of its jet flag."""
    return DiffOp.from_map({i: ONE}, op.src, op.src + i, op.planck)


def verify_flag_pairing(op: DiffOp, trunc: Optional[int] = None):
    """The residue pairing must kill D^i against D^j for i + j < n - 1 and be
    invertible on the antidiagonal; raises otherwise.

    With L^(-1) = sum_{m <= -n} q_m D^m, q_(-n) = 1/lead and (D^j)^t = (-1)^j D^j,
    the D^(-1) coefficient of D^i L^(-1) (D^j)^t takes binom(i, k) h^k q_m^(k)
    only at m = k - 1 - i - j <= -n: none below the antidiagonal (an exact 0),
    and on it only k = 0, m = -n, giving (-1)^j / lead.  D^0 against D^(n-1) decides.
    """
    n = op.order
    if n and not pairing(_jet(op, 0), _jet(op, n - 1), op, trunc=trunc).is_unit():
        raise PreconditionError("residue pairing is degenerate on the flag")


def oper_from_diffop(op: DiffOp, kind: str,
                     trunc: Optional[int] = None) -> Union[FlaggedSystem, OperConnection]:
    """Connection of the requested kind whose scalar operator is the input.

    gl: the companion flagged system.  sl: the companion moved to the
    principal gauge by the constant companion torus; requires a vanishing
    subprincipal coefficient.  sp / so_odd: the canonical connection whose
    read-off reproduces the operator; requires L^t = L resp. L^t = -L.
    """
    if kind == "gl":
        if not op.coeffs[-1].agrees(ONE):
            raise PreconditionError("principal symbol must be 1")
        return companion_system(op)
    if kind == "sl":
        return _sl_connection(op)
    if kind in ("sp", "so_odd"):
        return _selfdual_connection(op, kind, trunc)
    raise MalformedInputError(f"unknown kind {kind!r}")


def _sl_connection(op: DiffOp) -> OperConnection:
    n = op.order
    if n < 2:
        raise PreconditionError("the traceless kind needs order at least 2")
    _require_window(op)
    if not op.coeff(n - 1).is_zero():
        raise PreconditionError(
            "subprincipal coefficient must vanish (the companion trace is -f_{n-1})"
        )
    model = lie_model("A", n - 1)
    fs = companion_system(op)
    # no validate(): A's one constraint is trace 0, and the trace -f_{n-1} was just checked
    conn = OperConnection(model, op.planck, fs.matrix)
    return gauge_apply(conn, companion_torus(model))


def _selfdual_connection(op: DiffOp, kind: str, trunc: Optional[int]) -> OperConnection:
    n = op.order
    if kind == "sp":
        if n < 2 or n % 2:
            raise PreconditionError("the symplectic kind needs even order")
        model = lie_model("C", n // 2)
        want = op
    else:
        if n < 3 or n % 2 == 0:
            raise PreconditionError("the odd orthogonal kind needs odd order at least 3")
        model = lie_model("B", (n - 1) // 2)
        want = -op
    _require_window(op)
    if not transpose(op).agrees(want):
        sign = "+" if kind == "sp" else "-"
        raise PreconditionError(f"transpose condition L^t = {sign}L fails")
    h = op.planck
    # read-off slot n-1-d is g * v_d plus terms in earlier densities only:
    # any other monomial in the v's has weight above d + 1.  The read-off of
    # the constant oper y + B_d is its characteristic polynomial, so g is
    # (-1)^d e_(d+1)(y + B_d).  By the grading, tr((y + B_d)^k) is 0 for k <= d
    # (y is nilpotent) and (d+1) tr(y^d B_d) at k = d + 1, so Newton's
    # identities leave g = tr(y^d B_d).  The exponents 1, 3, 5, ... step y^d by y^2.
    # Each read-off serves the next slot, the last one the image check; y alone reads off as D^n.
    yd, y2 = model.y, fmat_mul(model.y, model.y)
    vals: List[LaurentSeries] = [ZERO] * model.rank
    readoff: List[LaurentSeries] = [ZERO] * n
    for r, d in enumerate(model.exponents):
        (b,) = model.kostant_data(d)["vbasis"]
        g = sum(yd[i][j] * x for j, row in enumerate(b) for i, x in enumerate(row) if x)
        yd = fmat_mul(yd, y2)
        vals[r] = (Fraction(1) / -g) * (op.coeff(n - 1 - d) + readoff[n - 1 - d])
        q = CanonicalForm.of(model, h, vals).matrix()
        readoff = _flag_readoff(q, h, trunc)
    for i in range(n):
        if not (-readoff[i]).agrees(op.coeff(i)):
            raise PreconditionError(
                "operator is not in the image of the canonical connections of this kind"
            )
    # no verify_flag_pairing: its one pairing is (-1)^(n-1)/lead, a unit as lead agrees with 1
    return OperConnection(model, h, q)


# -- duality ---------------------------------------------------------------------


def dualize(obj: Union[FlaggedSystem, OperConnection]) -> FlaggedSystem:
    """Reversed-flag dual; its read-off is -L^t with weights (1-b, 1-a)."""
    fs = obj if isinstance(obj, FlaggedSystem) else as_flagged(obj)
    fs.validate()
    n = fs.n
    q = fs.matrix
    dual = [[-q[n - 1 - j][n - 1 - i] for j in range(n)] for i in range(n)]
    return FlaggedSystem(dual, 1 - fs.tgt, 1 - fs.src, fs.planck)


# -- residue pairings along the flag ---------------------------------------------


def flag_gram(op: DiffOp, size: Optional[int] = None,
              trunc: Optional[int] = None) -> List[List[LaurentSeries]]:
    """G[i][j] = residue pairing of D^i against D^j through the operator."""
    if op.src + op.tgt != 1:
        raise PreconditionError("the self-dual weight window is required")
    n = op.order if size is None else size
    ops = [_jet(op, i) for i in range(n)]
    transposed = [transpose(v) for v in ops]
    return [
        [_pairing_transposed(u, vt, op, None, trunc) for vt in transposed]
        for u in ops
    ]


# -- the rank-one bridge ----------------------------------------------------------


def sl2_to_o3(u: Density, planck: Rat = 1) -> Tuple[OperConnection, DiffOp]:
    """Odd orthogonal image of the weight-2 density u.

    Returns the rank-1 orthogonal connection with -2u in the two upper slots
    and the order-3 skew operator D^3 + 4u D + 2h u'; the operator is the
    read-off of the connection.
    """
    if u.weight != 2:
        raise PreconditionError("a weight-2 density is required")
    h = _fr(planck)
    s = u.series
    q = [
        [ZERO, -2 * s, ZERO],
        [ONE, ZERO, -2 * s],
        [ZERO, ONE, ZERO],
    ]
    conn = OperConnection(lie_model("B", 1), h, q)
    conn.validate()
    return conn, symmetric_square(s, h)


# -- the even orthogonal pair ------------------------------------------------------


def _so_even_frames(k: int):
    """Constant frame change between (odd orthogonal) + O and the so(2k) model.

    The middle two-dimensional step is spanned by the odd-model middle vector
    e and the extra line w; with the odd form scaled by eps = (-1)^k the pair
    (e + w, (w - e)/2) is hyperbolic over the rationals for every k.
    """
    if k < 2:
        raise PreconditionError("the even orthogonal pair needs k >= 2")
    mB = lie_model("B", k - 1)
    mD = lie_model("D", k)
    n = 2 * k
    eps = Fraction((-1) ** k)
    cols: List[List[Fraction]] = []
    for j in range(n):
        col = [Fraction(0)] * n
        if j <= k - 2:
            col[j] = Fraction(1)
        elif j == k - 1:
            col[k - 1] = Fraction(1)
            col[n - 1] = Fraction(1)
        elif j == k:
            col[k - 1] = Fraction(-1, 2)
            col[n - 1] = Fraction(1, 2)
        else:
            col[j - 1] = eps * Fraction((-1) ** (n - 1 - j))
        cols.append(col)
    S: FracMatrix = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    form = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(n - 1):
            form[i][j] = eps * mB.J[i][j]
    form[n - 1][n - 1] = Fraction(1)
    carried = fmat_mul(fmat_mul(fmat_transpose(S), tuple(map(tuple, form))), S)
    if carried != mD.J:
        raise AssertionError("frame change fails to carry the form")
    return mB, mD, eps, S, fmat_inverse(S)


def so_even_build(op: DiffOp, f: Density,
                  depth: int = 4) -> Tuple[OperConnection, PseudoSymbol]:
    """Even orthogonal connection of the pair (L, f) and its symbol L + f d^-1 f.

    L must be skew of odd order 2k-1 with symbol 1 and f a weight-k density;
    the block connection sends the extra line to f times the first flag line.
    The emitted symbol lives in the plain (planck 1) ring.
    """
    n1 = op.order
    if n1 < 3 or n1 % 2 == 0:
        raise PreconditionError("a skew operator of odd order at least 3 is required")
    k = (n1 + 1) // 2
    if f.weight != k:
        raise PreconditionError(f"the pairing density must have weight {k}, got {f.weight}")
    conn_e = oper_from_diffop(op, "so_odd")
    mB, mD, eps, S, Sinv = _so_even_frames(k)
    n = 2 * k
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(n - 1):
            rows[i][j] = conn_e.q[i][j]
    s = f.series
    rows[0][n - 1] = s
    rows[n - 1][n - 2] = -eps * s
    q = smat_mul(smat_from_frac(Sinv), smat_mul(rows, smat_from_frac(S)))
    conn = OperConnection(mD, op.planck, q)
    so_even_conditions(conn)
    plain = to_plain(op)
    d_inv = pseudo_invert(DiffOp.from_map({1: ONE}, 0, 1, 1), depth)
    f_in = DiffOp.from_map({0: s}, 1 - k, 1, 1)
    f_out = DiffOp.from_map({0: s}, 0, k, 1)
    symbol = plain.to_symbol() + compose(f_out.to_symbol(), compose(d_inv, f_in))
    return conn, symbol


def so_even_conditions(conn: OperConnection):
    """Flag conditions making an even orthogonal connection an oper.

    The coordinate flag realizes the ranks and the orthocomplement pattern by
    construction; checked are the degree bound, invertible one-dimensional
    steps away from the middle, and the invertible composite through the
    two-dimensional middle step.
    """
    m = conn.model
    if m.family != "D":
        raise PreconditionError("an even orthogonal model is required")
    conn.validate()
    k = m.rank
    q = conn.q
    parts = m.grade_parts(q)
    low = [d for d in parts if d < -1]
    if low:
        raise NotAnOperError(f"connection has components in degree {min(low)} < -1")
    for i in list(range(0, k - 2)) + list(range(k + 1, 2 * k - 1)):
        if not q[i + 1][i].is_unit():
            raise NotAnOperError(f"induced flag map at step {i} is not invertible")
    fork = q[k + 1][k - 1] * q[k - 1][k - 2] + q[k + 1][k] * q[k][k - 2]
    if not fork.is_unit():
        raise NotAnOperError("composite through the middle step is not invertible")


def _j_pair(signs: Sequence[Fraction], a: Sequence[LaurentSeries],
            b: Sequence[LaurentSeries]) -> LaurentSeries:
    """a^T J b for the antidiagonal form J with these signs."""
    return dot(zip(a, reversed(b)), signs)


def _series_solve(cols: Sequence[Sequence[LaurentSeries]],
                  rhs: Sequence[LaurentSeries],
                  trunc: Optional[int]) -> List[LaurentSeries]:
    """Solve sum_j x_j cols[j] = rhs by elimination on invertible pivots."""
    ncol = len(cols)
    nrow = len(rhs)
    rows = [[cols[j][i] for j in range(ncol)] + [rhs[i]] for i in range(nrow)]
    where: List[int] = []
    used = set()
    for j in range(ncol):
        # constant pivots first: dividing by them never costs precision
        p = next((r for r in range(nrow) if r not in used and _is_constant(rows[r][j])), None)
        if p is None:
            p = next((r for r in range(nrow) if r not in used and rows[r][j].is_unit()), None)
        if p is None:
            raise PreconditionError("linear solve found no invertible pivot")
        used.add(p)
        where.append(p)
        prow = rows[p]
        for r in range(nrow):
            if r == p or is_exact_zero(rows[r][j]):
                continue
            fac = rows[r][j].div(prow[j], trunc)
            rows[r] = [x - fac * y for x, y in zip(rows[r], prow)]
    for r in range(nrow):
        if r not in used and not rows[r][ncol].is_zero():
            raise PreconditionError("inconsistent linear system")
    return [rows[p][ncol].div(rows[p][j], trunc) for j, p in enumerate(where)]


def so_even_extract(conn: OperConnection,
                    trunc: Optional[int] = None) -> Tuple[DiffOp, Density]:
    """The pair (L, f) of an even orthogonal oper; inverse of so_even_build.

    The kernel line of the middle flag map carries a unique norm-1 section
    (up to sign, pinned by a positive leading middle coordinate); corrections
    below the middle make its image proportional to itself modulo the first
    flag line, the proportionality vanishes, the first-line component is f,
    and the scalar operator of the orthocomplement is L.
    """
    so_even_conditions(conn)
    m = conn.model
    k = m.rank
    n = 2 * k
    conn = conn.truncated(trunc)
    q = conn.q
    h = conn.planck
    mid = [-q[k + 1][k], q[k + 1][k - 1]]
    lam = 2 * (mid[0] * mid[1])
    if not lam.is_unit():
        raise PreconditionError("middle kernel line is isotropic or undetermined")
    mu = lam.sqrt(trunc)
    if mid[0].leading() / mu.leading() < 0:
        mu = -mu
    s: List[LaurentSeries] = [ZERO] * n
    s[k - 1] = mid[0].div(mu, trunc)
    s[k] = mid[1].div(mu, trunc)
    # correction next to the middle, from the proportionality cross term
    delta = _apply_nabla(q, h, s)
    theta = q[k - 1][k - 2] * s[k] - q[k][k - 2] * s[k - 1]
    if not theta.is_unit():
        raise PreconditionError("middle correction is degenerate")
    cross = delta[k - 1] * s[k] - delta[k] * s[k - 1]
    s[k - 2] = -cross.div(theta, trunc)
    # row i of nabla s, where s[i - 1] is still an exact 0, determines s[i - 1]
    for i in range(k - 2, 0, -1):
        s[i - 1] = -_nabla_row(q, h, s, i).div(q[i][i - 1], trunc)
    delta = _apply_nabla(q, h, s)
    for i in range(1, n):
        if not delta[i].is_zero():
            raise PreconditionError(
                "distinguished section is not horizontal modulo the first flag line"
            )
    f = Density(delta[0], k)

    def project(vec: List[LaurentSeries]) -> List[LaurentSeries]:
        c = _j_pair(m.signs, vec, s)
        if c.is_zero():
            return vec
        return [x - c * y for x, y in zip(vec, s)]

    vs = [project([ONE] + [ZERO] * (n - 1))]
    for _ in range(n - 1):
        vs.append(project(_apply_nabla(q, h, vs[-1])))
    target = vs.pop()
    coeffs = _series_solve(vs + [s], target, trunc)
    if not coeffs[-1].is_zero():
        raise PreconditionError("cyclic relation leaks onto the distinguished section")
    cmap: Dict[int, LaurentSeries] = {i: -c for i, c in enumerate(coeffs[:-1])}
    cmap[n - 1] = ONE
    op = DiffOp.from_map(cmap, 1 - k, k, h)
    if not transpose(op).agrees(-op):
        raise PreconditionError("extracted operator is not skew")
    return op, f
