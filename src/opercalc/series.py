"""Truncated Laurent series and half-integer-weight densities over Q.

A series knows its valuation, its stored coefficients and the first unknown
order ``trunc``.  ``trunc = None`` marks an exact Laurent polynomial: every
unwritten coefficient is genuinely zero, not merely unknown.  Arithmetic
propagates certified orders (min for sums, min of relative precisions for
products and quotients) and never rounds silently; operations that would need
infinitely many terms of exact input take an explicit ``trunc`` argument and
raise ``InsufficientTruncationError`` without one.

No floating point is used anywhere: coefficients are ``fractions.Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import InsufficientTruncationError, PreconditionError

Rat = Union[int, Fraction]


def _fr(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _tmin(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """min of truncation orders, with None acting as +infinity."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _int_nth_root(m: int, n: int) -> Optional[int]:
    """Exact n-th root of a nonnegative integer, or None."""
    if m < 0:
        return None
    if m in (0, 1) or n == 1:
        return m
    hi = 1
    while hi**n < m:
        hi <<= 1
    lo = hi >> 1
    while lo <= hi:
        mid = (lo + hi) // 2
        p = mid**n
        if p == m:
            return mid
        if p < m:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def fraction_root(c: Fraction, e: Fraction) -> Fraction:
    """c**e when the result is an exact rational; PreconditionError otherwise."""
    if e.denominator == 1:
        return c**e.numerator
    if c < 0 and e.denominator % 2 == 0:
        raise PreconditionError(f"no rational power {c}^{e}")
    sign = -1 if c < 0 else 1
    p, q = abs(c.numerator), c.denominator
    rp = _int_nth_root(p, e.denominator)
    rq = _int_nth_root(q, e.denominator)
    if rp is None or rq is None:
        raise PreconditionError(f"no rational power {c}^{e}")
    return (sign * Fraction(rp, rq)) ** e.numerator


def unit_power(eps: Sequence, e: Fraction, zero, one) -> list:
    """Coefficients g_0..g_n of (1 + sum_{j=1..n} eps[j-1] x^j)^e mod x^(n+1).

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, section 4.7): g = f^e
    solves f g' = e f' g, so g_0 = 1 and

        g_k = (1/k) sum_{j=1..k} ((e+1) j - k) eps_j g_{k-j},

    O(n^2) ring operations.  The coefficients lie in any ring containing Q,
    given by its `zero` and `one`: Fractions for series powers, series for
    kernel powers.
    """
    p, q = e.numerator, e.denominator
    nonzero = [(j, x) for j, x in enumerate(eps, 1) if x != zero]
    g = [one]
    for k in range(1, len(eps) + 1):
        acc = zero
        for j, x in nonzero:
            if j > k:
                break
            w = (p + q) * j - q * k  # q * ((e+1) j - k)
            y = g[k - j]
            if w and y != zero:
                acc = acc + x * y * w
        g.append(acc * Fraction(1, q * k))
    return g


def _convolve(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> list:
    """The first n coefficients of the product of two coefficient lists.

    Each factor is scaled to Python ints over the lcm of its denominators (the
    layout of FLINT's fmpq_poly), so the inner loop is integer arithmetic and
    only one Fraction is normalized per output coefficient.
    """
    a, b = a[:n], b[:n]
    # lists, not generators: unpacking a generator builds and resizes a tuple
    # per call, and the freed tuples pile up in CPython's free lists (peak RSS)
    da = lcm(*[c.denominator for c in a])
    db = lcm(*[c.denominator for c in b])
    ib = [c.numerator * (db // c.denominator) for c in b]
    out = [0] * n
    for i, c in enumerate(a):
        x = c.numerator * (da // c.denominator)
        if x:
            for k, y in enumerate(ib[: n - i], i):
                out[k] += x * y
    d = da * db
    return [Fraction(c, d) for c in out]


class LaurentSeries:
    """Immutable truncated Laurent series with exact rational coefficients."""

    __slots__ = ("val", "coeffs", "trunc")

    def __init__(self, val: int, coeffs: Iterable[Rat], trunc: Optional[int] = None):
        cs = [_fr(c) for c in coeffs]
        if trunc is not None:
            cs = cs[: max(0, trunc - val)]
            if len(cs) < trunc - val:
                cs.extend(Fraction(0) for _ in range(trunc - val - len(cs)))
        # strip leading zeros, raising the valuation
        if cs and cs[0] == 0:
            lead = next((i for i, c in enumerate(cs) if c), len(cs))
            del cs[:lead]
            val += lead
        if trunc is None:
            while cs and cs[-1] == 0:
                cs.pop()
            if not cs:
                val = 0
        elif not cs:
            val = trunc
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, terms: Mapping[int, Rat], trunc: Optional[int] = None) -> "LaurentSeries":
        if not terms:
            return cls.zero(trunc)
        lo = min(terms)
        hi = max(terms)
        cs = [terms.get(k, 0) for k in range(lo, hi + 1)]
        return cls(lo, cs, trunc)

    @classmethod
    def constant(cls, c: Rat, trunc: Optional[int] = None) -> "LaurentSeries":
        return cls(0, [c], trunc)

    @classmethod
    def monomial(cls, c: Rat, k: int, trunc: Optional[int] = None) -> "LaurentSeries":
        return cls(k, [c], trunc)

    @classmethod
    def zero(cls, trunc: Optional[int] = None) -> "LaurentSeries":
        return cls(0 if trunc is None else trunc, [], trunc)

    @classmethod
    def one(cls, trunc: Optional[int] = None) -> "LaurentSeries":
        return cls.constant(1, trunc)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        """True when every certified coefficient vanishes."""
        return not self.coeffs

    def is_exact(self) -> bool:
        return self.trunc is None

    def is_monomial(self) -> bool:
        return bool(self.coeffs) and all(c == 0 for c in self.coeffs[1:])

    def rel_prec(self) -> Optional[int]:
        """Number of certified orders past the valuation (None = exact)."""
        return None if self.trunc is None else self.trunc - self.val

    def coeff(self, k: int) -> Fraction:
        """Certified coefficient of z^k; raises past the truncation order."""
        if self.trunc is not None and k >= self.trunc:
            raise InsufficientTruncationError(
                f"coefficient of z^{k} requested but series certified below order {self.trunc}"
            )
        if k < self.val or k >= self.val + len(self.coeffs):
            return Fraction(0)
        return self.coeffs[k - self.val]

    def leading(self) -> Fraction:
        if self.is_zero():
            raise PreconditionError("zero series has no leading coefficient")
        return self.coeffs[0]

    def is_unit(self) -> bool:
        """Invertible: nonzero constant term, certified."""
        if self.trunc is not None and self.trunc <= 0:
            raise InsufficientTruncationError("constant term not certified")
        return self.val == 0 and bool(self.coeffs) and self.coeffs[0] != 0

    def terms(self) -> dict:
        return {self.val + i: c for i, c in enumerate(self.coeffs) if c != 0}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "LaurentSeries":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        t = _tmin(self.trunc, other.trunc)
        if self.is_zero() and self.trunc is None:
            return other.truncate(t)
        if other.is_zero() and other.trunc is None:
            return self.truncate(t)
        lo = min(self.val, other.val)
        hi = max(self.val + len(self.coeffs), other.val + len(other.coeffs))
        if t is not None:
            hi = min(hi, t)
        cs = [self.coeff(k) + other.coeff(k) if (t is None or k < t) else 0 for k in range(lo, hi)]
        return LaurentSeries(lo, cs, t)

    __radd__ = __add__

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.val, [-c for c in self.coeffs], self.trunc)

    def __sub__(self, other) -> "LaurentSeries":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, Fraction)):
            c = _fr(other)
            if c == 0:
                return LaurentSeries.zero(None)
            return LaurentSeries(self.val, [c * a for a in self.coeffs], self.trunc)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if (self.is_zero() and self.trunc is None) or (other.is_zero() and other.trunc is None):
            return LaurentSeries.zero(None)
        ta = None if self.trunc is None else self.trunc + other.val
        tb = None if other.trunc is None else other.trunc + self.val
        t = _tmin(ta, tb)
        lo = self.val + other.val
        hi = self.val + len(self.coeffs) + other.val + len(other.coeffs)
        if t is not None:
            hi = min(hi, t)
        return LaurentSeries(lo, _convolve(self.coeffs, other.coeffs, max(0, hi - lo)), t)

    __rmul__ = __mul__

    def inverse(self, trunc: Optional[int] = None) -> "LaurentSeries":
        """Multiplicative inverse; needs a certified nonzero leading coefficient."""
        if self.is_zero():
            if self.trunc is None:
                raise ZeroDivisionError("inverse of the zero series")
            raise InsufficientTruncationError("divisor has no certified leading coefficient")
        rel = self.rel_prec()
        if self.is_monomial():
            if rel is None:
                return LaurentSeries.monomial(1 / self.coeffs[0], -self.val)
            inv = LaurentSeries.monomial(1 / self.coeffs[0], -self.val, self.trunc - 2 * self.val)
            return inv.truncate(trunc)
        if rel is None:
            if trunc is None:
                raise InsufficientTruncationError(
                    "inverse of an exact non-monomial series needs an explicit truncation"
                )
            rel = trunc + self.val  # relative orders needed so result reaches `trunc`
        elif trunc is not None:
            rel = min(rel, trunc + self.val)
        # recurrence for (sum a_i z^i)^(-1) with i relative to the valuation
        a = [self.coeff(self.val + i) for i in range(max(rel, 0))]
        out = []
        for k in range(max(rel, 0)):
            s = Fraction(1) if k == 0 else Fraction(0)
            for j in range(k):
                s -= out[j] * a[k - j]
            out.append(s / a[0])
        return LaurentSeries(-self.val, out, -self.val + max(rel, 0))

    def __truediv__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _fr(other))
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.div(other)

    def div(self, other: "LaurentSeries", trunc: Optional[int] = None) -> "LaurentSeries":
        if self.is_zero() and self.trunc is None:
            other.leading()  # raises on zero divisor
            return LaurentSeries.zero(None)
        res = self * other.inverse(trunc=None if trunc is None else trunc - self.val)
        return res if res.is_exact() else res.truncate(trunc)

    def __pow__(self, n: int) -> "LaurentSeries":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = LaurentSeries.one(None)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def power_rational(self, e: Rat, trunc: Optional[int] = None) -> "LaurentSeries":
        """Rational power; non-integer e uses :func:`unit_power` (Miller's recurrence).

        Requires e*val integral and an exact rational power of the leading
        coefficient; for non-integer e this means the leading coefficient is
        a perfect power (typically 1).
        """
        e = _fr(e)
        if self.is_zero():
            raise PreconditionError("rational power of a series with no certified leading term")
        if e.denominator == 1:
            n = e.numerator
            if n >= 0:
                res = self**n
            else:
                t_inv = None if trunc is None else trunc + (-n - 1) * self.val
                res = self.inverse(trunc=t_inv) ** (-n)
            return res if res.is_exact() else res.truncate(trunc)
        ve = e * self.val
        if ve.denominator != 1:
            raise PreconditionError(f"power {e} of a series of valuation {self.val} is not a Laurent series")
        c0 = self.leading()
        r0 = fraction_root(c0, e)
        rel = self.rel_prec()
        if rel is None:
            if self.is_monomial():
                return LaurentSeries.monomial(r0, int(ve))
            if trunc is None:
                raise InsufficientTruncationError(
                    "rational power of an exact non-monomial series needs an explicit truncation"
                )
            rel = trunc - int(ve)
        elif trunc is not None:
            rel = min(rel, trunc - int(ve))
        if rel <= 0:
            return LaurentSeries.zero(int(ve))
        # self = c0 z^v (1 + eps); result = r0 z^{ve} (1 + eps)^e
        eps = [self.coeff(self.val + i) / c0 for i in range(1, rel)]
        out = unit_power(eps, e, Fraction(0), Fraction(1))
        return LaurentSeries(int(ve), [r0 * c for c in out], int(ve) + rel)

    def sqrt(self, trunc: Optional[int] = None) -> "LaurentSeries":
        return self.power_rational(Fraction(1, 2), trunc)

    def derivative(self) -> "LaurentSeries":
        cs = [(self.val + i) * c for i, c in enumerate(self.coeffs)]
        return LaurentSeries(self.val - 1, cs, None if self.trunc is None else self.trunc - 1)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by z^k."""
        return LaurentSeries(self.val + k, self.coeffs, None if self.trunc is None else self.trunc + k)

    def truncate(self, trunc: Optional[int]) -> "LaurentSeries":
        t = _tmin(self.trunc, trunc)
        if t == self.trunc:
            return self
        return LaurentSeries(self.val, self.coeffs, t)

    # -- comparison --------------------------------------------------------

    def agrees(self, other: "LaurentSeries") -> bool:
        """Equality on every coefficient both sides certify."""
        other = _coerce(other)
        t = _tmin(self.trunc, other.trunc)
        if t is None:
            return self.val == other.val and self.coeffs == other.coeffs
        lo = min(self.val, other.val)
        return all(self.coeff(k) == other.coeff(k) for k in range(lo, t))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.constant(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.val == other.val and self.coeffs == other.coeffs and self.trunc == other.trunc

    def __hash__(self):
        return hash((self.val, self.coeffs, self.trunc))

    def __repr__(self):
        if self.is_zero():
            body = "0"
        else:
            parts = []
            for i, c in enumerate(self.coeffs):
                if c == 0:
                    continue
                k = self.val + i
                term = str(c) if k == 0 else (f"{c}*z^{k}" if c != 1 else f"z^{k}")
                parts.append(term)
            body = " + ".join(parts)
        tail = "" if self.trunc is None else f" + O(z^{self.trunc})"
        return body + tail


def _coerce(x) -> LaurentSeries:
    if isinstance(x, LaurentSeries):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentSeries.constant(x)
    return NotImplemented


def half_integer(w: Rat) -> Fraction:
    w = _fr(w)
    if (2 * w).denominator != 1:
        raise PreconditionError(f"weight {w} is not a half-integer")
    return w


@dataclass(frozen=True)
class Density:
    """A series section of the w-th tensor power of the cotangent line.

    The local coordinate trivializes the line, so a density is a series with a
    declared half-integer weight; weights add under multiplication and no sign
    is attached to transposing half-integer factors.
    """

    series: LaurentSeries
    weight: Fraction

    def __post_init__(self):
        object.__setattr__(self, "weight", half_integer(self.weight))

    def __add__(self, other: "Density") -> "Density":
        if self.weight != other.weight:
            raise PreconditionError(f"cannot add densities of weights {self.weight} and {other.weight}")
        return Density(self.series + other.series, self.weight)

    def __neg__(self) -> "Density":
        return Density(-self.series, self.weight)

    def __sub__(self, other: "Density") -> "Density":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Density):
            return Density(self.series * other.series, self.weight + other.weight)
        return Density(self.series * other, self.weight)

    __rmul__ = __mul__

    def agrees(self, other: "Density") -> bool:
        return self.weight == other.weight and self.series.agrees(other.series)

    def __repr__(self):
        return f"({self.series!r}) (dz)^{self.weight}"
