"""Scalar differential and pseudodifferential operators between densities.

An operator of order n maps weight-a densities to weight-b densities and is
stored as sum f_i * D^i with left coefficients, where the generator obeys
D(f phi) = f D(phi) + planck * f' * phi; at planck 1 this is d/dz.  Negative
powers follow the symbol calculus: D^i f = sum_k binom(i, k) planck^k f^(k)
D^(i-k), truncated below a tracked floor.  The residue (coefficient of
D^(-1)) and the inverse of an operator give the pairing res(u L^(-1) v^t);
transposes, kernels along the diagonal, and Lie derivatives complete the
calculus.

DiffOp's own arithmetic is the symbol calculus seen through ``to_symbol``:
sums and ``agrees`` are the symbols', :func:`_differential` is the one way
back to a DiffOp, and :func:`_floor` is the one floor rule of a product.

The symbol calculus runs on one kernel, :func:`_products`, the only binomial
expansion here.  Its callers ask it only for the coefficients they return:
compose for its tracked range, transpose for the orders it keeps,
pseudo_invert for the one coefficient of op . (partial inverse) that fixes
the next term, and pairing for the orders of u . op^(-1) that reach D^(-1)
and then for that coefficient alone.  Each coefficient is built as one sum
of products (``series._dot``) over its Leibniz terms.

An operator inverts once per truncation: its private ``_inverse`` slot holds,
for the last truncation asked, the inverse of its leading coefficient and the
inverse symbol's terms built so far, and pseudo_invert (hence pairing and the
flag pairings and Gram matrices of the dictionary) cuts or extends them.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import InsufficientTruncationError, PreconditionError
from .kernels import BiKernel
from .record import Record
from .series import Density, LaurentSeries, Rat, _dot, _fr, dot, half_integer, is_exact_zero

ZERO = LaurentSeries.zero()
_SIGNS = (LaurentSeries.one(), -LaurentSeries.one())  # (-1)^i by the parity of i


def _gbinom(i: int, k: int) -> int:
    """binom(i, k) for any integer i and k >= 0; binom(-m, k) = (-1)^k binom(m + k - 1, k)."""
    return comb(i, k) if i >= 0 else (-1) ** k * comb(k - i - 1, k)


class DiffOp(Record):
    """sum_{i=0}^{order} coeffs[i] * D^i from weight-src to weight-tgt densities.

    The private `_inverse` is a cache of :func:`pseudo_invert`'s work, None
    until its first call.
    """

    __slots__ = ("order", "src", "tgt", "planck", "coeffs", "_inverse")

    def __init__(self, order: int, src: Rat, tgt: Rat, planck: Rat, coeffs):
        coeffs = tuple(coeffs)
        if order < 0 or len(coeffs) != order + 1:
            raise PreconditionError("coefficient list does not match the order")
        if order > 0 and coeffs[-1].is_zero():
            raise PreconditionError("leading coefficient vanishes; trim the order")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "src", half_integer(src))
        object.__setattr__(self, "tgt", half_integer(tgt))
        object.__setattr__(self, "planck", _fr(planck))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_inverse", None)

    @classmethod
    def from_map(cls, coeffs: Mapping[int, LaurentSeries], src: Rat, tgt: Rat,
                 planck: Rat = 1) -> "DiffOp":
        order = max((i for i, c in coeffs.items() if not c.is_zero()), default=0)
        return cls(order, src, tgt, planck,
                   [coeffs.get(i, ZERO) for i in range(order + 1)])

    def coeff(self, i: int) -> LaurentSeries:
        return self.coeffs[i] if 0 <= i <= self.order else ZERO

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def principal_symbol(self) -> Density:
        return Density(self.coeffs[-1], self.tgt - self.src - self.order)

    def agrees(self, other: "DiffOp") -> bool:
        return self.to_symbol().agrees(other.to_symbol())

    def __repr__(self):
        parts = [f"({c})*D^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero()]
        body = " + ".join(parts) if parts else "0"
        return f"DiffOp[{self.src}->{self.tgt}, h={self.planck}]({body})"

    # -- ring structure -------------------------------------------------------

    def __add__(self, other: "DiffOp") -> "DiffOp":
        return _differential(self.to_symbol() + other.to_symbol())

    def __neg__(self) -> "DiffOp":
        return DiffOp(self.order, self.src, self.tgt, self.planck,
                      [-c for c in self.coeffs])

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def __rmul__(self, scalar) -> "DiffOp":
        return DiffOp.from_map(
            {i: scalar * c for i, c in enumerate(self.coeffs)},
            self.src, self.tgt, self.planck,
        )

    def to_symbol(self) -> "PseudoSymbol":
        return PseudoSymbol(
            self.order, 0, self.src, self.tgt, self.planck,
            {i: c for i, c in enumerate(self.coeffs)}, exact_below=True,
        )

    def apply(self, phi: Density) -> Density:
        """Evaluate on a density of the source weight."""
        if phi.weight != self.src:
            raise PreconditionError("operator applied to a density of the wrong weight")
        ds = [phi.series]  # phi, phi', ..., phi^(order)
        for _ in range(self.order):
            ds.append(ds[-1].derivative())
        h = self.planck
        return Density(dot(zip(self.coeffs, ds), [h**i for i in range(self.order + 1)]), self.tgt)


class PseudoSymbol:
    """sum_{floor <= i <= top} coeffs[i] * D^i, unknown below the floor.

    `exact_below` marks symbols (differential operators) whose coefficients
    below the floor are known to vanish, so composition does not erode them.
    """

    __slots__ = ("top", "floor", "src", "tgt", "planck", "coeffs", "exact_below")

    def __init__(self, top: int, floor: int, src: Rat, tgt: Rat, planck: Rat,
                 coeffs: Mapping[int, LaurentSeries], exact_below: bool = False):
        if floor > top:
            raise PreconditionError(f"empty symbol range [{floor}, {top}]")
        cs = {}
        for i, c in coeffs.items():
            if i > top or i < floor:
                raise PreconditionError("symbol coefficient outside declared range")
            if not is_exact_zero(c):
                cs[i] = c
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "floor", floor)
        object.__setattr__(self, "src", half_integer(src))
        object.__setattr__(self, "tgt", half_integer(tgt))
        object.__setattr__(self, "planck", _fr(planck))
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "exact_below", exact_below)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("PseudoSymbol is immutable")

    def coeff(self, i: int) -> LaurentSeries:
        if i < self.floor and not self.exact_below:
            raise InsufficientTruncationError(
                f"coefficient of D^{i} lies below the tracked floor {self.floor}"
            )
        return self.coeffs.get(i, ZERO)

    def agrees(self, other: "PseudoSymbol") -> bool:
        if (self.src, self.tgt, self.planck) != (other.src, other.tgt, other.planck):
            return False
        lo = max(self.floor, other.floor)
        hi = max(self.top, other.top)
        return all(
            self.coeffs.get(i, ZERO).agrees(other.coeffs.get(i, ZERO))
            for i in range(lo, hi + 1)
        )

    def __repr__(self):
        parts = [f"({self.coeffs[i]})*D^{i}" for i in sorted(self.coeffs, reverse=True)]
        body = " + ".join(parts) if parts else "0"
        return f"PseudoSymbol[{self.src}->{self.tgt}, floor={self.floor}]({body})"

    def __add__(self, other: "PseudoSymbol") -> "PseudoSymbol":
        if (self.src, self.tgt) != (other.src, other.tgt):
            raise PreconditionError("cannot add operators between different densities")
        if self.planck != other.planck:
            raise PreconditionError("cannot mix distinct planck values")
        unknown = [s.floor for s in (self, other) if not s.exact_below]
        exact = not unknown
        floor = min(self.floor, other.floor) if exact else max(unknown)
        top = max(self.top, other.top)
        out = {}
        for i in range(floor, top + 1):
            out[i] = self.coeffs.get(i, ZERO) + other.coeffs.get(i, ZERO)
        return PseudoSymbol(top, floor, self.src, self.tgt, self.planck, out, exact)

    def __neg__(self) -> "PseudoSymbol":
        return PseudoSymbol(self.top, self.floor, self.src, self.tgt, self.planck,
                            {i: -c for i, c in self.coeffs.items()}, self.exact_below)

    def __sub__(self, other: "PseudoSymbol") -> "PseudoSymbol":
        return self + (-other)


Operator = Union[DiffOp, PseudoSymbol]


def _as_symbol(op: Operator) -> PseudoSymbol:
    return op.to_symbol() if isinstance(op, DiffOp) else op


def _differential(p: PseudoSymbol) -> DiffOp:
    """The operator of a symbol exact below D^0: the one place a symbol becomes a DiffOp."""
    return DiffOp.from_map(p.coeffs, p.src, p.tgt, p.planck)


def _products(pairs: Sequence[Tuple[Tuple[int, LaurentSeries], Tuple[int, LaurentSeries]]],
              h: Fraction, lo: int, hi: int) -> Dict[int, LaurentSeries]:
    """The D^k coefficients, lo <= k <= hi, of the sum of f D^i . g D^j over the pairs.

    D^i g = sum_kk binom(i, kk) h^kk g^(kk) D^(i-kk), so a pair ((i, f), (j, g))
    reaches D^k at kk = i + j - k >= 0; for i >= 0 the sum stops at kk = i and
    at planck 0 it stops at kk = 0.  Each derivative g^(kk) is built once and
    each binom(i, kk) h^kk f once per call, and every coefficient is one
    ``_dot`` over its terms.  Exact zeros take no part.
    """
    derivs: Dict[int, List[LaurentSeries]] = {}  # keyed by id: pairs holds every g
    scaled: Dict[Tuple[int, int, int], LaurentSeries] = {}
    terms: Dict[int, List[Tuple[LaurentSeries, LaurentSeries]]] = {}
    flat, unit = h == 0, h == 1
    for (i, f), (j, g) in pairs:
        if is_exact_zero(f) or is_exact_zero(g):
            continue
        kk_hi = i + j - lo
        if i >= 0:
            kk_hi = min(kk_hi, i)
        if flat:
            kk_hi = min(kk_hi, 0)
        ds = derivs.setdefault(id(g), [g])
        for kk in range(max(0, i + j - hi), kk_hi + 1):
            while len(ds) <= kk:
                ds.append(ds[-1].derivative())
            gk = ds[kk]
            if is_exact_zero(gk):
                break  # so is every later derivative
            fk = scaled.get((id(f), i, kk))
            if fk is None:
                c = _gbinom(i, kk) * (1 if unit else h**kk)
                fk = scaled[(id(f), i, kk)] = f if c == 1 else c * f
            terms.setdefault(i + j - kk, []).append((fk, gk))
    return {k: _dot(t) for k, t in terms.items()}


def _pairs(a: Mapping[int, LaurentSeries], b: Mapping[int, LaurentSeries]):
    """Every pair of a term of a with a term of b, for :func:`_products`."""
    right = list(b.items())
    return [(p, q) for p in a.items() for q in right]


def _check_chain(a: Operator, b: Operator):
    """a . b needs b to land in the weight a expects, at the same planck."""
    if a.src != b.tgt:
        raise PreconditionError(
            f"weights do not chain: right factor lands in {b.tgt}, left expects {a.src}"
        )
    if a.planck != b.planck:
        raise PreconditionError("cannot compose distinct planck values")


def _floor(sa: PseudoSymbol, sb: PseudoSymbol) -> Tuple[int, bool]:
    """Floor of sa . sb and whether it is exact below it; a negative power in
    an exact sa expands into an infinite tail."""
    if sa.exact_below and sb.exact_below:
        return sa.floor + sb.floor, all(i >= 0 for i in sa.coeffs)
    cands = []
    if not sa.exact_below:
        cands.append(sa.floor + sb.top)
    if not sb.exact_below:
        cands.append(sb.floor + sa.top)
    return max(cands), False


def compose(a: Operator, b: Operator) -> Operator:
    """Normal-form product a . b; differential inputs give a differential output."""
    _check_chain(a, b)
    sa, sb = _as_symbol(a), _as_symbol(b)
    h = sa.planck
    top = sa.top + sb.top
    floor, exact = _floor(sa, sb)
    acc = _products(_pairs(sa.coeffs, sb.coeffs), h, floor, top)
    out = PseudoSymbol(top, floor, sb.src, sa.tgt, h, acc, exact)
    if isinstance(a, DiffOp) and isinstance(b, DiffOp):
        return _differential(out)
    return out


def _transposed(coeffs: Mapping[int, LaurentSeries], h: Fraction, lo: int, hi: int):
    """sum (-D)^i . f_i at orders lo..hi: the pairs ((i, (-1)^i), (0, f_i))."""
    return _products([((i, _SIGNS[i % 2]), (0, f)) for i, f in coeffs.items()], h, lo, hi)


def transpose(op: DiffOp) -> DiffOp:
    """sum (-D)^i . f_i, mapping weight 1-tgt to weight 1-src."""
    acc = _transposed(dict(enumerate(op.coeffs)), op.planck, 0, op.order)
    return DiffOp.from_map(acc, 1 - op.tgt, 1 - op.src, op.planck)


def transpose_symbol(p: PseudoSymbol) -> PseudoSymbol:
    """Transpose down to the same floor; order m depends only on inputs >= m."""
    acc = _transposed(p.coeffs, p.planck, p.floor, p.top)
    # a negative power expands into an infinite tail below the floor
    exact = p.exact_below and all(i >= 0 for i in p.coeffs)
    return PseudoSymbol(p.top, p.floor, 1 - p.tgt, 1 - p.src, p.planck, acc, exact)


def symbols(op: DiffOp) -> Tuple[Density, DiffOp]:
    """Principal symbol and the defect operator op + (-1)^(order+1) op^t.

    The defect is compared coefficientwise (the transpose's weights are the
    mirror pair); its order drops below order-1 exactly when the subprincipal
    symbol vanishes.
    """
    t = transpose(op)
    sgn = 1 if (op.order + 1) % 2 == 0 else -1
    hi = max(op.order, t.order)
    defect = DiffOp.from_map(
        {i: op.coeff(i) + sgn * t.coeff(i) for i in range(hi + 1)},
        op.src, op.tgt, op.planck,
    )
    return op.principal_symbol(), defect


def pseudo_invert(op: DiffOp, depth: int, trunc: Optional[int] = None) -> PseudoSymbol:
    """Two-sided inverse symbol with top -order and floor -order - depth.

    The term q_{-n-j} does not depend on depth, so op's `_inverse` slot keeps
    (trunc, lead^(-1), {-n-j: q_{-n-j}}, d) for the last trunc asked, with
    every term down to -n-d built.  A call at depth <= d cuts those terms, a
    deeper one resumes at d + 1, and one at another trunc starts over and
    replaces the slot.  A call that raises stores nothing.
    """
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    n = op.order
    h = op.planck
    kept = op._inverse
    if kept is None or kept[0] != trunc:
        lead = op.coeffs[-1]
        if not lead.is_unit():
            raise PreconditionError("leading coefficient is not an invertible series")
        kept = (trunc, lead.inverse(trunc=trunc), {}, -1)
    _, inv_lead, coeffs, done = kept
    if depth > done:
        coeffs = dict(coeffs)
        one = LaurentSeries.one()
        terms = dict(enumerate(op.coeffs))
        for j in range(done + 1, depth + 1):
            # op . (partial sum) matches the target above -j; the term q_{-n-j}
            # enters the coefficient of D^{-j} only through lead * q_{-n-j}, so
            # only that coefficient of op . (partial sum) is built
            cur = _products(_pairs(terms, coeffs), h, -j, -j).get(-j, ZERO)
            diff = (one if j == 0 else ZERO) - cur
            if not is_exact_zero(diff):
                coeffs[-n - j] = diff * inv_lead
        object.__setattr__(op, "_inverse", (trunc, inv_lead, coeffs, depth))
    floor = -n - depth
    return PseudoSymbol(-n, floor, op.tgt, op.src, h,
                        {i: c for i, c in coeffs.items() if i >= floor}, False)


def res(p: Operator) -> Density:
    """Coefficient of D^(-1); a density of weight tgt - src + 1."""
    s = _as_symbol(p)
    if not s.exact_below:
        _check_residue_floor(s.floor)
    return Density(s.coeffs.get(-1, ZERO), s.tgt - s.src + 1)


def _check_residue_floor(floor: int):
    """The residue is the coefficient of D^(-1), so the floor must reach -1."""
    if floor > -1:
        raise InsufficientTruncationError(f"residue untracked: floor is {floor}, need -1")


def pairing(u: Operator, v: Operator, op: DiffOp,
            depth: Optional[int] = None, trunc: Optional[int] = None) -> LaurentSeries:
    """res(u . op^(-1) . v^t), the bilinear pairing attached to op.

    Only the D^(-1) coefficient is built, from the coefficients of
    u . op^(-1) of order at least -1 - v.order, the only ones that reach it.
    """
    if isinstance(v, PseudoSymbol):
        raise PreconditionError("the right slot must be a differential operator")
    return _pairing_transposed(u, transpose(v), op, depth, trunc)


def _pairing_transposed(u: Operator, vt: DiffOp, op: DiffOp,
                        depth: Optional[int], trunc: Optional[int]) -> LaurentSeries:
    """:func:`pairing` with v^t given; v^t has the order of v."""
    su = _as_symbol(u)
    if depth is None:
        # floor of u . op^(-1) . v^t is u.top + v.order - order - depth
        depth = max(su.top + vt.order - op.order + 1, 0)
    inv = pseudo_invert(op, depth, trunc=trunc)
    _check_chain(su, inv)
    _check_chain(inv, vt)  # u . op^(-1) has the source of op^(-1)
    # the floor compose would give u . op^(-1), and then the triple product
    _check_residue_floor(_floor(su, inv)[0] + vt.order)
    h = op.planck
    left = _products(_pairs(su.coeffs, inv.coeffs), h, -1 - vt.order, su.top + inv.top)
    return _products(_pairs(left, dict(enumerate(vt.coeffs))), h, -1, -1).get(-1, ZERO)


def kernel_from_diffop(op: DiffOp) -> BiKernel:
    """Diagonal kernel with c_(-i-1) = i! f_i / order!; plain-derivative form.

    planck is first folded into the coefficients (f_i -> planck^i f_i).
    """
    plain = to_plain(op)
    n = plain.order
    fact_n = factorial(n)
    coeffs = {
        -i - 1: Fraction(factorial(i), fact_n) * c
        for i, c in enumerate(plain.coeffs)
    }
    return BiKernel(1 - plain.src, plain.tgt, -n - 1, -1, coeffs)


def diffop_from_kernel(k: BiKernel) -> DiffOp:
    """Inverse of kernel_from_diffop; requires the pole range of a kernel."""
    if k.mmax != -1:
        raise PreconditionError("operator kernels end at diagonal order -1")
    n = -k.mmin - 1
    fact_n = factorial(n)
    coeffs = {
        i: Fraction(fact_n, factorial(i)) * k.coeff(-i - 1) for i in range(n + 1)
    }
    return DiffOp.from_map(coeffs, 1 - k.w1, k.w2, 1)


def to_plain(op: DiffOp) -> DiffOp:
    """Push planck into the coefficients: f_i -> planck^i f_i, planck -> 1."""
    h = op.planck
    if h == 1:
        return op
    return DiffOp.from_map(
        {i: h**i * c for i, c in enumerate(op.coeffs)}, op.src, op.tgt, 1
    )


def symmetric_square(u: LaurentSeries, planck: Rat = 1) -> DiffOp:
    """D^3 + 4u D + 2h u', the symmetric square of the Hill operator D^2 + u,
    from weight -1 to weight 2 densities."""
    h = _fr(planck)
    return DiffOp.from_map({3: LaurentSeries.one(), 1: 4 * u, 0: (2 * h) * u.derivative()},
                           -1, 2, h)


def lie_action(v: Density, weight: Rat, planck: Rat = 1) -> DiffOp:
    """The first-order operator phi -> g phi' + weight g' phi for v = g (dz)^(-1)."""
    if v.weight != -1:
        raise PreconditionError("vector fields are densities of weight -1")
    h = _fr(planck)
    if h == 0:
        raise PreconditionError("vector fields do not act inside the planck-0 ring")
    w = half_integer(weight)
    return DiffOp.from_map(
        {1: Fraction(1, 1) / h * v.series, 0: w * v.series.derivative()},
        w, w, h,
    )


def lie_derivative(op: DiffOp, v: Density) -> DiffOp:
    """[v, op]: the Lie derivative along the vector field v."""
    left = lie_action(v, op.tgt, op.planck)
    right = lie_action(v, op.src, op.planck)
    out = compose(left, op) - compose(op, right)
    return out
