"""Connections on the formal disc and their normal forms.

A connection h*d/dz + q with q valued in a classical model is acted on by
gauge elements b = t * exp(u_1) * exp(u_2) * ... where t is an adjoint-torus
element given by per-simple-root coordinates and each u_r is homogeneous of
degree r.  The action is q |-> Ad(b^{-1}) q + h * b^{-1} b'.  Torus elements
act diagonally on root spaces (their matrix form may not exist over Q).  An
exponential step is q |-> e^{-ad u}(q) + h*Phi(-ad u)(u') with
Phi(A) = (e^A - 1)/A, and its first term is the conjugation e^{-u} q e^{u}:
two matrix products, with each factor carried as W - 1.  The grading is
additive, so u^k lives only in degree k r, and e^{-u} - 1 is e^{u} - 1 with
its odd powers negated, read off the degree of each position.  Phi stays the
commutator series: it starts at u', which is homogeneous and as sparse as u,
and each commutator raises the degree by r, so it ends after a few sparse
products.  Folding it into the conjugation as h e^{-u} (e^{u})' gives the
same output; it waits until the benchmark's layer guard stops counting
calls of smat_comm.

Normalization moves any connection satisfying the transversality/unit
conditions to the unique representative y + sum_d v_d * B_d, one density v_d
of weight d+1 per exponent d.  The same loop with the derivative term
weighted by a series f normalizes f*d/dz + q; an explicit first-order gauge
desingularizes connections divided by a vanishing f.  At h = 0 everything
degenerates to conjugation and the invariants of the normal form give the
spectral data.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import ceil
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (
    IdentityCheckError,
    NotAnOperError,
    PreconditionError,
)
from .lie import LieModel, invariants, moduli_dimension
from .matrices import (
    SeriesMatrix,
    smat_add,
    smat_agrees,
    smat_combine,
    smat_comm,
    smat_derivative,
    smat_identity,
    smat_is_exact_zero,
    smat_is_zero,
    smat_mul,
    smat_scale,
    smat_sub,
    smat_truncate,
    smat_zero,
)
from .record import Record
from .series import Density, LaurentSeries, is_exact_zero

__all__ = [
    "CanonicalForm", "GaugeElement", "OperConnection", "act_quadratic_differential",
    "classify_singularity", "desingularize", "desingularize_componentwise", "embed_sl2",
    "gauge_apply", "gauge_compose", "gauge_inverse", "hitchin_map", "identity_gauge",
    "moduli_dimension",  # defined in lie, which needs no gauge machinery for it
    "normalize", "normalize_singular", "steps_from_unipotent",
]

ONE = LaurentSeries.one()


class OperConnection(Record):
    """h*d/dz + q with q a series matrix in the model."""

    __slots__ = ("model", "planck", "q")

    def __init__(self, model: LieModel, planck: Fraction, q: SeriesMatrix):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "planck", planck)
        object.__setattr__(self, "q", q)

    def validate(self):
        if not self.model.in_model(self.q):
            raise PreconditionError("connection matrix violates the algebra constraints")

    def truncated(self, trunc: Optional[int]) -> "OperConnection":
        if trunc is None:
            return self
        return OperConnection(self.model, self.planck, smat_truncate(self.q, trunc))


class GaugeElement(Record):
    """b = t * exp(u_1) * exp(u_2) * ...

    `torus` maps a simple-root index to the coordinate c_alpha = alpha(t);
    missing indices mean 1.  `steps[r-1]` is u_r, homogeneous of degree r
    (trailing entries may be zero matrices).  Unhashable, as `torus` is a dict.
    """

    __slots__ = ("model", "torus", "steps")

    def __init__(self, model: LieModel, torus: Optional[Dict[int, LaurentSeries]] = None,
                 steps: Optional[List[SeriesMatrix]] = None):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "torus", {} if torus is None else torus)
        object.__setattr__(self, "steps", [] if steps is None else steps)

    def validate(self):
        for r, c in self.torus.items():
            if not (0 <= r < self.model.rank):
                raise PreconditionError(f"no simple root with index {r}")
            if c.is_zero():
                raise PreconditionError("torus coordinate with no certified leading term")
        N, grades = self.model.N, self.model.grades
        for i, u in enumerate(self.steps):
            if len(u) != N or any(len(row) != N for row in u):
                raise PreconditionError(f"step {i + 1} is not {N} x {N}")
            # off degree i+1 a step is exactly 0: e^{-u} - 1 is read off
            # e^{u} - 1 by degree, as u^k lives only in degree k(i+1), and a
            # truncated zero there would keep the nilpotent sums of e^{u} and
            # Phi from reaching an exactly vanishing term
            if not all(is_exact_zero(x) for row, degs in zip(u, grades)
                       for x, d in zip(row, degs) if d != i + 1):
                raise PreconditionError(f"step {i + 1} is not homogeneous of degree {i + 1}")
            if not self.model.in_model(u):
                raise PreconditionError(f"step {i + 1} violates the algebra constraints")

    def is_identity(self) -> bool:
        return all(c.agrees(ONE) for c in self.torus.values()) and all(
            smat_is_zero(u) for u in self.steps
        )

    def agrees(self, other: "GaugeElement") -> bool:
        if self.model != other.model:
            return False
        for r in range(self.model.rank):
            if not self.torus.get(r, ONE).agrees(other.torus.get(r, ONE)):
                return False
        z = smat_zero(self.model.N)
        return all(smat_agrees(a, b) for a, b in zip_longest(self.steps, other.steps, fillvalue=z))


def identity_gauge(model: LieModel) -> GaugeElement:
    return GaugeElement(model, {}, [])


class CanonicalForm(Record):
    """h*d/dz + y + sum v_d * B_d, densities listed in exponent order."""

    __slots__ = ("model", "planck", "v")

    def __init__(self, model: LieModel, planck: Fraction, v: Tuple[Density, ...]):
        if len(v) != model.rank:
            raise PreconditionError("one canonical density per exponent is required")
        for d, dens in zip(model.exponents, v):
            if dens.weight != d + 1:
                raise PreconditionError(
                    f"density for exponent {d} must have weight {d + 1}, got {dens.weight}"
                )
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "planck", planck)
        object.__setattr__(self, "v", v)

    @classmethod
    def of(cls, model: LieModel, planck: Fraction,
           series: Sequence[LaurentSeries]) -> "CanonicalForm":
        """The form whose i-th density is series[i], of weight d + 1 for the i-th exponent d."""
        if len(series) != model.rank:
            raise PreconditionError(f"expected {model.rank} canonical series, got {len(series)}")
        return cls(model, planck, tuple(Density(s, d + 1) for d, s in zip(model.exponents, series)))

    def matrix(self) -> SeriesMatrix:
        m = self.model
        vbasis = [b for d in sorted(set(m.exponents)) for b in m.kostant_data(d)["vbasis"]]
        return smat_combine([ONE] + [dens.series for dens in self.v], [m.y] + vbasis)

    def connection(self) -> OperConnection:
        return OperConnection(self.model, self.planck, self.matrix())

    def agrees(self, other: "CanonicalForm") -> bool:
        return (
            self.model == other.model
            and self.planck == other.planck
            and all(a.agrees(b) for a, b in zip(self.v, other.v))
        )


# -- the gauge action -----------------------------------------------------------


def _torus_powers(torus: Dict[int, LaurentSeries], trunc: Optional[int]):
    """Per-root powers c^k needed positionwise, computed once; c^-1 to order `trunc`."""
    cache: Dict[Tuple[int, int], LaurentSeries] = {}

    def power(r: int, k: int) -> LaurentSeries:
        if k == 0:
            return ONE
        if (r, k) not in cache:
            c = torus.get(r, ONE)
            cache[(r, k)] = c**k if k > 0 else c.inverse(trunc=trunc) ** (-k)
        return cache[(r, k)]

    return power


def _scale_positions(model: LieModel, torus: Dict[int, LaurentSeries], w: SeriesMatrix,
                     sign: int, trunc: Optional[int] = None) -> SeriesMatrix:
    """Entrywise adjoint action of the torus element, with exponent sign*m."""
    power = _torus_powers(torus, trunc)
    out = smat_zero(model.N)
    for i in range(model.N):
        for j in range(model.N):
            s = w[i][j]
            if is_exact_zero(s):
                continue
            for r, m in enumerate(model.root_coords(i, j)):
                if m and (r in torus):
                    s = s * power(r, sign * m)
            out[i][j] = s
    return out


def _apply_torus(model: LieModel, torus: Dict[int, LaurentSeries], q: SeriesMatrix,
                 planck: Fraction, deriv: LaurentSeries, trunc: Optional[int]) -> SeriesMatrix:
    out = _scale_positions(model, torus, q, -1, trunc)
    if planck != 0:
        for r, c in torus.items():
            rate = c.derivative() * c.inverse(trunc=trunc)
            if is_exact_zero(rate):
                continue
            term = planck * deriv * rate
            for i in range(model.N):
                out[i][i] = out[i][i] + model.coweights[r][i] * term
    return out


def _nilpotent_sum(start: SeriesMatrix, step: Callable[[SeriesMatrix], SeriesMatrix],
                   coeff: Callable[[int], Fraction], limit: int) -> SeriesMatrix:
    """start + t_1 + t_2 + ... with t_0 = start, t_k = coeff(k) * step(t_{k-1}).

    The step is nilpotent, so the sum stops at the first exactly vanishing
    term (a truncated zero still certifies an order and is added);
    `limit` bounds the number of terms tried.
    """
    total = term = start
    for k in range(1, limit + 1):
        term = step(term)
        c = coeff(k)
        if c != 1:
            term = smat_scale(c, term)
        if smat_is_exact_zero(term):
            return total
        total = smat_add(total, term)
    raise AssertionError("nilpotent sum failed to terminate")


def _exp_neg_ad(model: LieModel, u: SeriesMatrix, r: int, q: SeriesMatrix) -> SeriesMatrix:
    """e^{-ad u}(q) = e^{-u} q e^{u} for u homogeneous of degree r, each factor as W - 1."""
    e = _exp_minus_one(model, u)
    left = smat_add(q, smat_mul(_odd_negated(model, e, r), q))
    return smat_add(left, smat_mul(left, e))


def _odd_negated(model: LieModel, e: SeriesMatrix, r: int) -> SeriesMatrix:
    """exp(-u) - 1 read off e = exp(u) - 1 for u homogeneous of degree r.

    The grading is additive, so u^k lives only in degree k r: the entries
    of e at odd grade / r are those of the odd powers, and change sign.
    """
    return [[x if is_exact_zero(x) or not (d // r) % 2 else -x for x, d in zip(row, degs)]
            for row, degs in zip(e, model.grades)]


def _phi_neg_ad(model: LieModel, u: SeriesMatrix, w: SeriesMatrix) -> SeriesMatrix:
    return _nilpotent_sum(w, lambda t: smat_comm(u, t), lambda k: Fraction(-1, k + 1),
                          2 * model.dmax + 3)


def _apply_step(model: LieModel, u: SeriesMatrix, r: int, q: SeriesMatrix,
                planck: Fraction, deriv: LaurentSeries) -> SeriesMatrix:
    """e^{-ad u}(q) + h * deriv * Phi(-ad u)(u') for u homogeneous of degree r."""
    out = _exp_neg_ad(model, u, r, q)
    if planck != 0:
        du = smat_derivative(u)
        if not smat_is_exact_zero(du):
            out = smat_add(out, smat_scale(planck * deriv, _phi_neg_ad(model, u, du)))
    return out


def gauge_apply(conn: OperConnection, b: GaugeElement,
                trunc: Optional[int] = None) -> OperConnection:
    """Act on the connection.

    `trunc` bounds the inverses of torus coordinates, which an exact
    non-monomial coordinate needs.
    """
    if b.model != conn.model:
        raise PreconditionError("gauge element belongs to a different model")
    b.validate()
    q = conn.q
    if b.torus:
        q = _apply_torus(conn.model, b.torus, q, conn.planck, ONE, trunc)
    for r, u in enumerate(b.steps, 1):
        if not smat_is_exact_zero(u):
            q = _apply_step(conn.model, u, r, q, conn.planck, ONE)
    return OperConnection(conn.model, conn.planck, q)


# -- composition in the gauge group ----------------------------------------------


def _exp_minus_one(model: LieModel, u: SeriesMatrix) -> SeriesMatrix:
    """exp(u) - 1 = u + u^2/2 + ...: a unipotent element less its unit diagonal."""
    return _nilpotent_sum(u, lambda t: smat_mul(t, u), lambda k: Fraction(1, k + 1), model.N)


def _group_mul(a: SeriesMatrix, b: SeriesMatrix) -> SeriesMatrix:
    """(1 + a)(1 + b) - 1 = a + b + ab, so no product meets the unit diagonal."""
    return smat_add(smat_add(a, b), smat_mul(a, b))


def _unipotent_part(model: LieModel, steps: Sequence[SeriesMatrix]) -> SeriesMatrix:
    """exp(u_1) exp(u_2) ... - 1 for the steps in the order given."""
    a = smat_zero(model.N)
    for u in steps:
        if not smat_is_exact_zero(u):
            a = _group_mul(a, _exp_minus_one(model, u))
    return a


def steps_from_unipotent(model: LieModel, w: SeriesMatrix) -> List[SeriesMatrix]:
    """Peel a unipotent group element into homogeneous exponential steps.

    u_d is read from w at the degree-d pivots (the identity has degree 0);
    input outside the group of the model leaves a nonzero residual w - 1.
    """
    return _peel(model, smat_sub(w, smat_identity(model.N)))


def _peel(model: LieModel, a: SeriesMatrix) -> List[SeriesMatrix]:
    """:func:`steps_from_unipotent` of the element 1 + a."""
    steps = []
    for d in range(1, model.dmax + 1):
        u = smat_combine(model.coords(d, a), model.graded_basis(d))
        steps.append(u)
        if not smat_is_exact_zero(u):
            a = _group_mul(_exp_minus_one(model, smat_scale(-1, u)), a)
    if not smat_is_zero(a):
        raise PreconditionError("matrix is not in the unipotent group of the model")
    return steps


def gauge_compose(b1: GaugeElement, b2: GaugeElement) -> GaugeElement:
    """The element acting like b1 followed by b2 (the product b1*b2)."""
    if b1.model != b2.model:
        raise PreconditionError("gauge elements belong to different models")
    b1.validate()
    b2.validate()
    model = b1.model
    torus: Dict[int, LaurentSeries] = {}
    for r in range(model.rank):
        c = b1.torus.get(r, ONE) * b2.torus.get(r, ONE)
        if not (c.is_exact() and c == ONE):
            torus[r] = c
    # t1 W1 t2 W2 = (t1 t2) (Ad(t2^{-1}) W1) W2, and Ad(t^{-1}) scales a root
    # position by the inverse root value; each W is carried as W - 1.
    a1 = _unipotent_part(model, b1.steps)
    if b2.torus:
        a1 = _scale_positions(model, b2.torus, a1, -1)
    a = _group_mul(a1, _unipotent_part(model, b2.steps))
    return GaugeElement(model, torus, _peel(model, a))


def gauge_inverse(b: GaugeElement, trunc: Optional[int] = None) -> GaugeElement:
    b.validate()
    model = b.model
    torus = {r: c.inverse(trunc=trunc) for r, c in b.torus.items()}
    # (exp(u_1) ... exp(u_n))^{-1} = exp(-u_n) ... exp(-u_1)
    inv = _unipotent_part(model, [smat_scale(-1, u) for u in reversed(b.steps)])
    if b.torus:
        inv = _scale_positions(model, b.torus, inv, +1)
    return GaugeElement(model, torus, _peel(model, inv))


# -- normalization -----------------------------------------------------------------


def _oper_subdiagonal(model: LieModel, parts: Dict[int, SeriesMatrix]) -> List[LaurentSeries]:
    low = [d for d in parts if d < -1]
    if low:
        raise NotAnOperError(f"connection has components in degree {min(low)} < -1")
    if -1 not in parts:
        raise NotAnOperError("connection has no degree -1 component")
    return model.subdiagonal_coords(parts[-1])


def normalize(conn: OperConnection, trunc: Optional[int] = None,
              deriv: Optional[LaurentSeries] = None) -> Tuple[GaugeElement, CanonicalForm]:
    """The unique gauge moving the connection to y + sum v_d B_d, and that form."""
    model = conn.model
    f = ONE if deriv is None else deriv
    conn = conn.truncated(trunc)
    conn.validate()
    q = conn.q
    parts = model.grade_parts(q)
    a = _oper_subdiagonal(model, parts)
    torus: Dict[int, LaurentSeries] = {}
    for r, (ar, kr) in enumerate(zip(a, model.y_coeffs)):
        if not ar.is_unit():
            raise NotAnOperError(
                f"coefficient on the negative simple root {r} has no invertible constant term"
            )
        c = LaurentSeries.constant(kr).div(ar, trunc=trunc)
        if not (c.is_exact() and c == ONE):
            torus[r] = c
    if torus:
        q = _apply_torus(model, torus, q, conn.planck, f, trunc)
    steps: List[SeriesMatrix] = []
    vout: List[LaurentSeries] = []
    for r in range(1, model.dmax + 2):
        z, v = model.kostant_split(r - 1, q)
        vout.extend(v)
        if r <= model.dmax:
            u = smat_scale(-1, z)
            steps.append(u)
            if not smat_is_exact_zero(u):
                q = _apply_step(model, u, r, q, conn.planck, f)
        elif not smat_is_zero(z):
            raise AssertionError("defect left above the top exponent")
    return GaugeElement(model, torus, steps), CanonicalForm.of(model, conn.planck, vout)


def normalize_singular(f: LaurentSeries, conn: OperConnection,
                       trunc: Optional[int] = None) -> Tuple[GaugeElement, CanonicalForm]:
    """Normal form of f*d/dz + q; the loop is normalize with f-weighted derivatives."""
    if f.is_zero():
        raise PreconditionError("the scaling series vanishes identically")
    if f.val < 0:
        raise PreconditionError("the scaling series must be regular")
    return normalize(conn, trunc=trunc, deriv=f)


# -- singular points ------------------------------------------------------------------


def desingularize(f: LaurentSeries, cf: CanonicalForm,
                  trunc: Optional[int] = None) -> CanonicalForm:
    """Normal form of d/dz + f^{-1}(y + sum v_d B_d), via the explicit gauge.

    The gauge is torus coordinates c_alpha = f for every alpha together with
    the single step (h/2)(f'/f) x; both come from pushing the 2x2 matrix
    [[f, h f'/2], [0, 1]] through the principal embedding.  The result has
    Laurent coefficients when f vanishes at the origin.
    """
    if f.is_zero():
        raise PreconditionError("cannot desingularize by an identically zero series")
    model = cf.model
    h = cf.planck
    tinv = None
    if trunc is not None:
        # A degree-d output multiplies up to d + 1 factors f^-1 or f'/f (one
        # from the scaling below, d from the torus), each costing up to
        # max(val f, 1) orders, and the step differentiates f'/f once more.
        # The terms that cancel there do not start at val v_d, so the inverse
        # also reaches val v_d further (capped at trunc), as the componentwise
        # form v_d f^(-d-1) does.
        lift = min(max([0] + [d.series.val for d in cf.v]), max(trunc, 0))
        tinv = trunc + 1 + lift + (model.dmax + 1) * max(f.val, 1)
    finv = f.inverse(trunc=tinv)
    q = smat_scale(finv, cf.matrix())
    conn = OperConnection(model, h, q)
    torus = {r: f for r in range(model.rank)}
    rate = f.derivative() * finv
    u1 = smat_combine([rate * Fraction(h, 2)], [model.x])
    out = gauge_apply(conn, GaugeElement(model, torus, [u1]), trunc=tinv).q
    if not all(
        s.agrees(LaurentSeries.constant(k))
        for s, k in zip(model.subdiagonal_coords(out), model.y_coeffs)
    ):
        raise IdentityCheckError("desingularizing gauge did not restore the principal part")
    vout: List[LaurentSeries] = []
    for d in range(0, model.dmax + 1):
        z, v = model.kostant_split(d, out)
        if not smat_is_zero(z):
            raise IdentityCheckError(f"desingularized connection has a defect in degree {d}")
        vout.extend(v)
    return CanonicalForm.of(model, h, vout)


def desingularize_componentwise(f: LaurentSeries, cf: CanonicalForm,
                                trunc: Optional[int] = None) -> CanonicalForm:
    """Closed-form version: v_d scales by f^{-d-1}, the x-slot gets the
    h^2 (f''f/2 - f'^2/4) correction.  Cross-check for :func:`desingularize`."""
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


def classify_singularity(cf: CanonicalForm) -> Tuple[int, List[Tuple[int, int]]]:
    """Least m with pole order of v_d at most (d+1)m, plus the order table."""
    table = []
    m = 0
    for d, dens in zip(cf.model.exponents, cf.v):
        pole = max(0, -dens.series.val) if not dens.series.is_zero() else 0
        table.append((d, pole))
        m = max(m, ceil(Fraction(pole, d + 1)))
    return m, table


# -- distinguished constructions --------------------------------------------------------


def embed_sl2(model: LieModel, planck: Fraction, u: Density,
              etas: Sequence[Density] = ()) -> OperConnection:
    """y - u x + sum eta_d B_d: the canonical connection with v_1 = -u."""
    if u.weight != 2:
        raise PreconditionError("the quadratic coordinate must have weight 2")
    if model.kostant_data(1)["vdim"] != 1:
        raise PreconditionError("embedding needs a one-dimensional degree-1 slot")
    return CanonicalForm(model, planck, (-u, *etas)).connection()


def act_quadratic_differential(conn: OperConnection, omega: Density,
                               trunc: Optional[int] = None) -> OperConnection:
    """Shift by a weight-2 density along the connection's own principal part.

    The degree-1 direction is dual to the degree-(-1) part (each simple slot
    scaled by kappa_r / a_r), so a canonical connection is shifted by
    -omega * x exactly and normalization sends v_1 to v_1 - omega always.
    """
    if omega.weight != 2:
        raise PreconditionError("the shift must have weight 2")
    model = conn.model
    a = _oper_subdiagonal(model, model.grade_parts(conn.q))
    coeffs = []
    for ar, kr in zip(a, model.y_coeffs):
        if not ar.is_unit():
            raise NotAnOperError("shifting needs invertible simple-root coefficients")
        coeffs.append((-1 * omega.series * kr).div(ar, trunc=trunc))
    return OperConnection(model, conn.planck,
                          smat_add(conn.q, smat_combine(coeffs, model.e_vectors)))


def hitchin_map(cf: CanonicalForm) -> List[Density]:
    """Invariants of the normal form at h = 0, one weight-k density per degree k."""
    if cf.planck != 0:
        raise PreconditionError("spectral invariants require h = 0")
    return [Density(s, Fraction(k)) for k, s in invariants(cf.model, cf.matrix())]
