"""Reference constructions the tests compare the library against, and a call counter.

Each reference is written independently of the code path it checks, and
nothing in ``src/`` calls it.
"""

from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from unittest import mock

from opercalc.dictionary import _flag_readoff, _require_window, flag_gram, verify_flag_pairing
from opercalc.diffops import DiffOp, pairing, transpose
from opercalc.errors import NotAnOperError, PreconditionError
from opercalc.gauge import CanonicalForm, _apply_torus, _oper_subdiagonal
from opercalc.lie import model as lie_model
from opercalc.series import LaurentSeries


def inverse_calls(fn):
    """fn() and the number of LaurentSeries.inverse calls it made."""
    real, calls = LaurentSeries.inverse, []

    def counted(self, trunc=None):
        calls.append(self)
        return real(self, trunc=trunc)

    with mock.patch.object(LaurentSeries, "inverse", counted):
        return fn(), len(calls)


def smat_identity(n):
    return [[LaurentSeries.one() if i == j else LaurentSeries.zero() for j in range(n)]
            for i in range(n)]


def desingularize_componentwise(f, cf, trunc=None):
    """Closed-form version: v_d scales by f^{-d-1}, the x-slot gets the
    h^2 (f''f/2 - f'^2/4) correction.  Cross-check for ``desingularize``."""
    model = cf.model
    if model.kostant_data(1)["vdim"] != 1:
        raise PreconditionError("componentwise form needs a one-dimensional degree-1 slot")
    h = cf.planck
    corr = (f.derivative().derivative() * f * Fraction(1, 2)
            - f.derivative() * f.derivative() * Fraction(1, 4)) * (h * h)
    out = []
    for d, dens in zip(model.exponents, cf.v):
        s = dens.series + corr if d == 1 else dens.series
        out.append(s * f.power_rational(-d - 1, trunc=trunc))
    return CanonicalForm.of(model, h, out)


def flag_pairing_loop(op, trunc=None):
    """Every pairing of D^i against D^j with i + j <= n - 1: those below the
    antidiagonal must vanish and those on it be units.  Reference for the
    one-pairing ``verify_flag_pairing``."""
    n = op.order
    a = op.src
    h = op.planck
    one = LaurentSeries.one()
    ops = [DiffOp.from_map({i: one}, a, a + i, h) for i in range(n)]
    for i in range(n):
        for j in range(n - 1 - i):
            if not pairing(ops[i], ops[j], op, trunc=trunc).is_zero():
                raise PreconditionError("flag is not self-orthogonal under the residue pairing")
        g = pairing(ops[i], ops[n - 1 - i], op, trunc=trunc)
        if not g.is_unit():
            raise PreconditionError("residue pairing is degenerate on the flag")


def _constant_of(s):
    if not s.is_exact():
        raise AssertionError("expected an exact series")
    if s.is_zero():
        return Fraction(0)
    if not (s.is_monomial() and s.val == 0):
        raise AssertionError("expected a constant series")
    return s.leading()


def _canonical_readoff(model, planck, vals, trunc):
    """The read-off of the canonical connection with these densities."""
    return _flag_readoff(CanonicalForm.of(model, planck, vals).matrix(), planck, trunc)


def probe_slot_constant(model, h, r):
    """Slot n-1-d of the read-off of the constant oper y + B_d, d the r-th
    exponent, by a full series read-off of its canonical connection."""
    probe = [LaurentSeries.zero()] * model.rank
    probe[r] = LaurentSeries.one()
    return _constant_of(_canonical_readoff(model, h, probe, None)[model.N - 1 - model.exponents[r]])


def selfdual_connection_probed(op, kind, trunc=None):
    """The sp / so_odd build with each slot constant probed by a read-off.
    Reference for the closed-form constants of ``oper_from_diffop``."""
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
    vals = [LaurentSeries.zero()] * model.rank
    for r, d in enumerate(model.exponents):
        g = probe_slot_constant(model, h, r)
        if g == 0:
            raise AssertionError("degenerate canonical slot")
        cur = _canonical_readoff(model, h, vals, trunc)[n - 1 - d]
        vals[r] = (Fraction(1) / -g) * (op.coeff(n - 1 - d) + cur)
    final = _canonical_readoff(model, h, vals, trunc)
    for i in range(n):
        if not (-final[i]).agrees(op.coeff(i)):
            raise PreconditionError(
                "operator is not in the image of the canonical connections of this kind"
            )
    verify_flag_pairing(op, trunc=trunc)
    return CanonicalForm.of(model, h, vals).connection()


def flag_gram_loop(op, size=None, trunc=None):
    """G[i][j] = pairing(D^i, D^j, op), one public pairing call per entry.
    Reference for ``flag_gram``, which transposes each D^j once."""
    if op.src + op.tgt != 1:
        raise PreconditionError("the self-dual weight window is required")
    n = op.order if size is None else size
    one = LaurentSeries.one()
    ops = [DiffOp.from_map({i: one}, op.src, op.src + i, op.planck) for i in range(n)]
    return [[pairing(u, v, op, trunc=trunc) for v in ops] for u in ops]


def gram_horizontal(op, trunc=None):
    """h * dG_ij = G_{i+1,j} + G_{i,j+1} on the extended Gram matrix."""
    n = op.order
    h = op.planck
    g = flag_gram(op, size=n + 1, trunc=trunc)
    for i in range(n):
        for j in range(n):
            lhs = h * g[i][j].derivative() if h else LaurentSeries.zero()
            if not lhs.agrees(g[i + 1][j] + g[i][j + 1]):
                return False
    return True


def pack_by_shifts(xs, kb):
    """sum_i xs[i] 2^(8 kb i), one shift of the accumulator per slot.
    Reference for ``series._pack`` on either side of its size rule."""
    acc = 0
    for x in reversed(xs):
        acc = (acc << (8 * kb)) + x
    return acc


def unit_power_two_dots(eps, e, one, a0=1):
    """G_0..G_n and S_0..S_n of ``series.unit_power`` over the ints, each order
    as two dots, against U_j and against j U_j:
    k G_k = (p+q) sum j U_j G_(k-j) - q k sum U_j G_(k-j).
    Reference for the one-dot recurrence."""
    p, q = e.numerator, e.denominator
    s, n = q * q * a0, len(eps)
    G = [one]
    U = list(map(mul, eps, accumulate(repeat(s, n - 1), mul, initial=q)))
    JU = [j * u for j, u in enumerate(U, 1)]
    for k in range(1, n + 1):
        g = -q * sum(map(mul, U, reversed(G)))
        g += (p + q) * sum(map(mul, JU, reversed(G))) // k
        G.append(g)
    return G, list(accumulate(repeat(s, n), mul, initial=1))


def torus_by_products(model, q, planck, deriv, trunc):
    """The torus c_r = k_r / a_r of ``normalize`` and q moved by it, every
    entry multiplied by its character, the degree -1 entries by c_r itself.
    Reference for ``gauge._torus_to_y``, which writes those entries."""
    a = _oper_subdiagonal(model, model.grade_parts(q))
    torus, inverses = {}, {}
    for r, (ar, kr) in enumerate(zip(a, model.y_coeffs)):
        if not ar.is_unit():
            raise NotAnOperError(
                f"coefficient on the negative simple root {r} has no invertible constant term"
            )
        c = LaurentSeries.constant(kr).div(ar, trunc=trunc)
        if not (c.is_exact() and c == LaurentSeries.one()):
            torus[r] = c
            inverses[r] = ar * (1 / kr)
    if torus:
        q = _apply_torus(model, torus, inverses.__getitem__, q, planck, deriv)
    return torus, q
