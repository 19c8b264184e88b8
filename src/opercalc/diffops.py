"""Scalar differential and pseudodifferential operators between densities.

An operator of order n maps weight-a densities to weight-b densities and is
stored as sum f_i * D^i with left coefficients, where the generator obeys
D(f phi) = f D(phi) + planck * f' * phi; at planck 1 this is d/dz.  Negative
powers follow the symbol calculus: D^i f = sum_k binom(i, k) planck^k f^(k)
D^(i-k), truncated below a tracked floor.  The residue (coefficient of
D^(-1)) and the inverse of an operator give the pairing res(u L^(-1) v^t);
transposes, kernels along the diagonal, and Lie derivatives complete the
calculus.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, Mapping, Optional, Tuple, Union

from .errors import InsufficientTruncationError, PreconditionError
from .kernels import BiKernel
from .series import Density, LaurentSeries, Rat, _fr, half_integer, is_exact_zero

ZERO = LaurentSeries.zero()


def _gbinom(i: int, k: int) -> Fraction:
    """binom(i, k) for any integer i and k >= 0."""
    num = 1
    for t in range(k):
        num *= i - t
    return Fraction(num, factorial(k))


class DiffOp:
    """sum_{i=0}^{order} coeffs[i] * D^i from weight-src to weight-tgt densities."""

    __slots__ = ("order", "src", "tgt", "planck", "coeffs")

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

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("DiffOp is immutable")

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
        if (self.src, self.tgt, self.planck) != (other.src, other.tgt, other.planck):
            return False
        hi = max(self.order, other.order)
        return all(self.coeff(i).agrees(other.coeff(i)) for i in range(hi + 1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiffOp)
            and (self.order, self.src, self.tgt, self.planck) ==
                (other.order, other.src, other.tgt, other.planck)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.src, self.tgt, self.planck, self.coeffs))

    def __repr__(self):
        parts = [f"({c})*D^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero()]
        body = " + ".join(parts) if parts else "0"
        return f"DiffOp[{self.src}->{self.tgt}, h={self.planck}]({body})"

    # -- ring structure -------------------------------------------------------

    def _check_linear(self, other: "DiffOp"):
        if (self.src, self.tgt) != (other.src, other.tgt):
            raise PreconditionError("cannot add operators between different densities")
        if self.planck != other.planck:
            raise PreconditionError("cannot mix distinct planck values")

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check_linear(other)
        hi = max(self.order, other.order)
        return DiffOp.from_map(
            {i: self.coeff(i) + other.coeff(i) for i in range(hi + 1)},
            self.src, self.tgt, self.planck,
        )

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

    def to_symbol(self, floor: Optional[int] = None) -> "PseudoSymbol":
        fl = 0 if floor is None else floor
        return PseudoSymbol(
            self.order, min(fl, 0), self.src, self.tgt, self.planck,
            {i: c for i, c in enumerate(self.coeffs)}, exact_below=True,
        )

    def apply(self, phi: Density) -> Density:
        """Evaluate on a density of the source weight."""
        if phi.weight != self.src:
            raise PreconditionError("operator applied to a density of the wrong weight")
        out = ZERO
        for i, c in enumerate(self.coeffs):
            d = phi.series
            for _ in range(i):
                d = d.derivative()
            out = out + self.planck**i * c * d
        return Density(out, self.tgt)


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
            raise PreconditionError("cannot add symbols between different densities")
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


def _shifted(i: int, g: LaurentSeries, h: Fraction, floor: int) -> Dict[int, LaurentSeries]:
    """Normal form of D^i g as {i - k: binom(i,k) h^k g^(k)}, down to the floor."""
    out = {}
    gk = g
    hk = Fraction(1)
    for k in range(0, i - floor + 1):
        c = _gbinom(i, k)
        if c == 0:
            break  # nonnegative i: the sum is finite
        if not is_exact_zero(gk):
            out[i - k] = (c * hk) * gk
        if h == 0:
            break
        gk = gk.derivative()
        hk = hk * h
    return out


def compose(a: Operator, b: Operator) -> Operator:
    """Normal-form product a . b; differential inputs give a differential output."""
    if a.src != b.tgt:
        raise PreconditionError(
            f"weights do not chain: right factor lands in {b.tgt}, left expects {a.src}"
        )
    if a.planck != b.planck:
        raise PreconditionError("cannot compose distinct planck values")
    sa, sb = _as_symbol(a), _as_symbol(b)
    h = sa.planck
    top = sa.top + sb.top
    if sa.exact_below and sb.exact_below:
        floor = sa.floor + sb.floor
        # a negative power on the left expands into an infinite tail
        exact = all(i >= 0 for i in sa.coeffs)
    else:
        cands = []
        if not sa.exact_below:
            cands.append(sa.floor + sb.top)
        if not sb.exact_below:
            cands.append(sb.floor + sa.top)
        floor = max(cands)
        exact = False
    acc: Dict[int, LaurentSeries] = {}
    for i, fi in sa.coeffs.items():
        for j, gj in sb.coeffs.items():
            for t, s in _shifted(i, gj, h, floor - j).items():
                k = t + j
                if k < floor:
                    continue
                acc[k] = acc.get(k, ZERO) + fi * s
    out = PseudoSymbol(top, floor, sb.src, sa.tgt, h, acc, exact)
    if isinstance(a, DiffOp) and isinstance(b, DiffOp):
        return DiffOp.from_map(dict(out.coeffs), sb.src, sa.tgt, h)
    return out


def transpose(op: DiffOp) -> DiffOp:
    """sum (-D)^i . f_i, mapping weight 1-tgt to weight 1-src."""
    h = op.planck
    acc: Dict[int, LaurentSeries] = {}
    for i, fi in enumerate(op.coeffs):
        for k, s in _shifted(i, fi, h, 0).items():
            sgn = -1 if i % 2 else 1
            acc[k] = acc.get(k, ZERO) + sgn * s
    return DiffOp.from_map(acc, 1 - op.tgt, 1 - op.src, h)


def transpose_symbol(p: PseudoSymbol) -> PseudoSymbol:
    """Transpose down to the same floor; order m depends only on inputs >= m."""
    h = p.planck
    acc: Dict[int, LaurentSeries] = {}
    for i, fi in p.coeffs.items():
        for k, s in _shifted(i, fi, h, p.floor).items():
            sgn = -1 if i % 2 else 1
            acc[k] = acc.get(k, ZERO) + sgn * s
    acc = {k: c for k, c in acc.items() if k >= p.floor}
    # a negative power expands into an infinite tail below the floor
    exact = p.exact_below and all(i >= 0 for i in p.coeffs)
    return PseudoSymbol(p.top, p.floor, 1 - p.tgt, 1 - p.src, h, acc, exact)


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
    """Two-sided inverse symbol with top -order and floor -order - depth."""
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    n = op.order
    lead = op.coeffs[-1]
    if not lead.is_unit():
        raise PreconditionError("leading coefficient is not an invertible series")
    inv_lead = lead.inverse(trunc=trunc)
    coeffs: Dict[int, LaurentSeries] = {}
    h = op.planck
    one = LaurentSeries.one()
    for j in range(depth + 1):
        # op . (partial sum) matches the target above -j; the term q_{-n-j}
        # enters the coefficient of D^{-j} only through lead * q_{-n-j}
        cur = ZERO
        if coeffs:
            partial = PseudoSymbol(-n, -n - j, op.tgt, op.src, h, coeffs, False)
            cur = compose(op, partial).coeffs.get(-j, ZERO)
        diff = (one if j == 0 else ZERO) - cur
        if not is_exact_zero(diff):
            coeffs[-n - j] = diff * inv_lead
    return PseudoSymbol(-n, -n - depth, op.tgt, op.src, h, coeffs, False)


def res(p: Operator) -> Density:
    """Coefficient of D^(-1); a density of weight tgt - src + 1."""
    s = _as_symbol(p)
    if s.floor > -1 and not s.exact_below:
        raise InsufficientTruncationError(
            f"residue untracked: floor is {s.floor}, need -1"
        )
    return Density(s.coeffs.get(-1, ZERO), s.tgt - s.src + 1)


def pairing(u: Operator, v: Operator, op: DiffOp,
            depth: Optional[int] = None, trunc: Optional[int] = None) -> LaurentSeries:
    """res(u . op^(-1) . v^t), the bilinear pairing attached to op."""
    if isinstance(v, PseudoSymbol):
        raise PreconditionError("the right slot must be a differential operator")
    vt = transpose(v)
    su = _as_symbol(u)
    if depth is None:
        # floor of u . op^(-1) . v^t is u.top + v.order - order - depth
        depth = max(su.top + v.order - op.order + 1, 0)
    inv = pseudo_invert(op, depth, trunc=trunc)
    total = compose(compose(su, inv), vt)
    return res(total).series


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
