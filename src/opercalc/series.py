"""Truncated Laurent series and half-integer-weight densities over Q.

A series knows its valuation, its stored coefficients and the first unknown
order ``trunc``.  ``trunc = None`` marks an exact Laurent polynomial: every
unwritten coefficient is genuinely zero, not merely unknown.  Arithmetic
propagates certified orders (min for sums, min of relative precisions for
products and quotients) and never rounds silently; operations that would need
infinitely many terms of exact input take an explicit ``trunc`` argument and
raise ``InsufficientTruncationError`` without one.

No floating point is used anywhere.  The coefficients are stored as Python
ints ``nums`` over one positive common denominator ``den`` (the layout of
FLINT's fmpq_poly), in one canonical form: ``gcd(den, *nums) == 1``, no
leading zero, no stored trailing zero (the certified zeros up to ``trunc``
are implicit) and ``den == 1`` when ``nums`` is empty.  Arithmetic works on
these ints; ``coeffs`` is a read-only view of the coefficients as
``fractions.Fraction``, zero-padded up to ``trunc``.

Products run on one integer kernel, Kronecker substitution: a coefficient
list is evaluated at 2^k as one Python int, with the slot width k derived
from the operand sizes so that every signed output coefficient fits, and one
big-int product is read back, at C speed through a memoryview cast for
slots of 1, 2, 4 and 8 bytes (3 rounds up to 4, 5-7 to 8).  A short list is
packed by shifting, a long one (n^2 kb past ``_PACK_BYTES``) by writing its
slots as bytes and reading them once; a square packs its one operand once.
A monomial factor only scales, and operands of fewer than four terms are
convolved term by term.  A sum of products, :func:`dot`, brings its terms
over one common denominator and packs those without a monomial factor into
one integer at the slot width that sum needs, so an entry of a series-matrix
product or a symbol coefficient is built by one ``_series`` call, not by one
per product and per partial sum; rational weights on its terms ride in the
same denominator scales.

Rational powers run J.C.P. Miller's recurrence fraction-free
(:func:`unit_power`): the k-th coefficient of (1 + eps)^e, e = p/q, is kept
as an integer (over the ring of eps) G_k over the scale S_k = (q^2 a_0)^k,
because binom(p/q, m) q^(2m) is always an integer, and each order is one
integer dot.  The inverse of a non-monomial series is the same recurrence at
e = -1.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import InsufficientTruncationError, PreconditionError
from .record import Record

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


def unit_power(eps: Sequence, e: Fraction, one, a0: int = 1) -> Tuple[list, List[int]]:
    """Scaled coefficients of (1 + sum_{j=1..n} (eps[j-1] / a0) x^j)^e mod x^(n+1).

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, section 4.7): g = f^e
    solves f g' = e f' g, so with e = p/q, g_0 = 1 and

        g_k = (1/(q k)) sum_{j=1..k} ((p+q) j - q k) (eps_j / a0) g_{k-j}.

    Writing g_k = G_k / S_k with S_k = (q^2 a0)^k, and U_j = eps_j q^(2j-1) a0^(j-1),

        G_0 = 1,  k G_k = sum_{j=1..k} ((p+q) j - q k) U_j G_{k-j}.

    Every G_k is integral over the ring of the eps_j: g_k is a sum of
    binom(e, m) times coefficients of (sum (eps_j / a0) x^j)^m, m <= k, and
    binom(p/q, m) q^(2m) is an integer, because a prime r not dividing q
    never divides its denominator and for r | q that denominator has
    valuation at most m v_r(q) + v_r(m!) < 2 m v_r(q).  So the division by k
    is exact.  The ring is given by its `one`:
      - ints, for series powers and inverses (eps the numerators, a0 the
        leading numerator, of either sign; `one` may be any integer, which
        then scales every G_k, as the recurrence is linear): each order is
        one C-level integer dot, the small weights (p+q) j - q k (a range in
        j) applied to the U_j first, and one exact // k; the dot stops at the
        last nonzero eps_j.  At p + q = 0 (e = -1, the inverse) every weight
        is -q k, so G_k = -q sum U_j G_{k-j};
      - series, for kernel powers (a0 = 1): each order is one weighted
        :func:`dot` of the eps_j G_{k-j}, weights ((p+q) j - q k) q^(2j-1) a0^(j-1) / k.
    Returns the lists G_0..G_n and S_0..S_n.
    """
    p, q = e.numerator, e.denominator
    s, n = q * q * a0, len(eps)
    G = [one]
    if isinstance(one, int):
        last = n
        while last and not eps[last - 1]:
            last -= 1  # U_j = 0 past the last nonzero eps_j, so the dots stop there
        U = list(map(mul, eps[:last], accumulate(repeat(s, last - 1), mul, initial=q)))
        d = p + q
        for k in range(1, n + 1):
            # map stops at the shorter of U and G, so j runs to min(k, last)
            if d:
                w = d - q * k  # the weight at j = 1, rising by d per j
                g = sum(map(mul, map(mul, range(w, w + d * min(k, last), d), U), reversed(G))) // k
            else:
                g = -q * sum(map(mul, U, reversed(G)))
            G.append(g)
    else:
        f = list(accumulate(repeat(s, n - 1), mul, initial=q))  # f[j-1] = q^(2j-1) a0^(j-1)
        for k in range(1, n + 1):
            G.append(dot(zip(eps[:k], reversed(G)),
                         [Fraction(((p + q) * j - q * k) * f[j - 1], k) for j in range(1, k + 1)]))
    return G, list(accumulate(repeat(s, n), mul, initial=1))


_SCHOOL = 4  # a shorter operand is convolved term by term, not packed


# n^2 kb at and above which _pack writes n slots of kb bytes rather than shifting
_PACK_BYTES = 20000


def _pack(xs: Sequence[int], kb: int) -> int:
    """sum_i xs[i] 2^(8 kb i), each |xs[i]| < 2^(8 kb - 1): the list evaluated at 2^(8 kb).

    Shifting a growing accumulator copies it once per slot, about n^2 kb / 2
    bytes in all, which is cheap only for short lists.  Longer ones are
    written as the mirror of :func:`_unpack`: each slot biased by
    2^(8 kb - 1) into kb nonnegative little-endian bytes, read once, less
    the sum of the biases.
    """
    n = len(xs)
    if n * n * kb < _PACK_BYTES:
        k, acc = 8 * kb, 0
        for x in reversed(xs):
            acc = (acc << k) + x
        return acc
    half = 1 << (8 * kb - 1)
    buf = b"".join([(x + half).to_bytes(kb, "little") for x in xs])
    return int.from_bytes(buf, "little") - int.from_bytes((bytes(kb - 1) + b"\x80") * n, "little")


def _unpack(c: int, kb: int, n: int) -> List[int]:
    """The first n signed kb-byte slots of c, each under 2^(8 kb - 1) in absolute value.

    Adding 2^(8 kb - 1) to every slot makes them all nonnegative, so no
    borrow crosses a slot, and the slots at and above n are masked off.
    Flipping each top bit back leaves every slot in two's complement, so the
    widths of signed machine integers are read as those at C speed.
    """
    off = int.from_bytes((bytes(kb - 1) + b"\x80") * n, "little")
    c = (c + off) & ((1 << (8 * kb * n)) - 1)
    fmt = _SLOT_FORMATS.get(kb)
    if fmt:
        return memoryview((c ^ off).to_bytes(kb * n, "little")).cast(fmt).tolist()
    half = 1 << (8 * kb - 1)
    buf = c.to_bytes(kb * n, "little")
    return [int.from_bytes(buf[i:i + kb], "little") - half for i in range(0, kb * n, kb)]


# signed machine integers read the little-endian slots only on a little-endian machine;
# _SLOT_WIDTHS[kb] is the least of their widths that holds kb bytes
_SLOT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}
_SLOT_WIDTHS = (0, 1, 2, 4, 4, 8, 8, 8, 8) if _SLOT_FORMATS else ()


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for signed coefficients of absolute value at most bound,
    rounded up to the next width that :func:`_unpack` reads at C speed (3 to 4, 5-7 to 8)."""
    kb = bound.bit_length() // 8 + 1
    return _SLOT_WIDTHS[kb] if kb < len(_SLOT_WIDTHS) else kb


def _maxabs(xs: Sequence[int]) -> int:
    return max(max(xs), -min(xs)) if xs else 0


def _convolve(a: Sequence[int], b: Sequence[int], n: int) -> List[int]:
    """The first n coefficients of the product of two integer coefficient lists.

    Kronecker substitution: both lists are evaluated at 2^k, with k wide
    enough for every signed output coefficient, the two integers are
    multiplied once and the product is read back slot by slot.  A list
    times itself is packed once, and CPython squares an int multiplied by
    itself.  A shorter operand is run term by term instead, and a monomial
    only scales.
    """
    square = a is b
    a, b = a[:n], b[:n]
    if len(a) > len(b):
        a, b = b, a
    if len(a) >= _SCHOOL:
        ma = _maxabs(a)
        bound = len(a) * ma * (ma if square else _maxabs(b))
        if not bound:
            return [0] * n  # an all-zero operand, whose partner's slots need not fit
        kb = _slot_bytes(bound)
        pa = _pack(a, kb)
        return _unpack(pa * (pa if square else _pack(b, kb)), kb, n)
    if len(a) == 1:
        c = a[0]
        return [c * y for y in b] + [0] * (n - len(b))
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            j = i + len(b)
            out[i:j] = map(add, out[i:j], map(mul, b[: n - i], repeat(x)))
    return out


class LaurentSeries:
    """Immutable truncated Laurent series with exact rational coefficients."""

    __slots__ = ("val", "nums", "den", "trunc")

    def __init__(self, val: int, coeffs: Iterable[Rat], trunc: Optional[int] = None):
        cs = [_fr(c) for c in coeffs]
        # lists, not generators: unpacking a generator builds and resizes a tuple
        # per call, and the freed tuples pile up in CPython's free lists (peak RSS)
        den = lcm(*[c.denominator for c in cs])
        self._fill(val, [c.numerator * (den // c.denominator) for c in cs], den, trunc)

    def _fill(self, val: int, nums: Sequence[int], den: int,
              trunc: Optional[int]) -> "LaurentSeries":
        """Store val + nums/den (den > 0) cut at trunc, in canonical form."""
        if trunc is not None and len(nums) > trunc - val:
            nums = nums[: max(0, trunc - val)]
        lo, hi = 0, len(nums)
        while hi and not nums[hi - 1]:
            hi -= 1
        if hi == 0:
            nums, den = (), 1
            val = 0 if trunc is None else trunc
        else:
            while not nums[lo]:
                lo += 1
            if lo or hi < len(nums):
                nums = nums[lo:hi]
            val += lo
            g = gcd(den, *nums)
            if g != 1:
                nums = [x // g for x in nums]
                den //= g
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "trunc", trunc)
        return self

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
        return _ZERO if trunc is None else _series(trunc, (), 1, trunc)

    @classmethod
    def one(cls, trunc: Optional[int] = None) -> "LaurentSeries":
        return _series(0, (1,), 1, trunc)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients from z^val as Fractions, zero-padded up to trunc."""
        d = self.den
        cs = tuple([Fraction(x, d) for x in self.nums])
        if self.trunc is None:
            return cs
        return cs + (Fraction(0),) * (self.trunc - self.val - len(cs))

    def is_zero(self) -> bool:
        """True when every certified coefficient vanishes."""
        return not self.nums

    def is_exact(self) -> bool:
        return self.trunc is None

    def is_monomial(self) -> bool:
        return len(self.nums) == 1

    def rel_prec(self) -> Optional[int]:
        """Number of certified orders past the valuation (None = exact)."""
        return None if self.trunc is None else self.trunc - self.val

    def coeff(self, k: int) -> Fraction:
        """Certified coefficient of z^k; raises past the truncation order."""
        if self.trunc is not None and k >= self.trunc:
            raise InsufficientTruncationError(
                f"coefficient of z^{k} requested but series certified below order {self.trunc}"
            )
        if k < self.val or k >= self.val + len(self.nums):
            return Fraction(0)
        return Fraction(self.nums[k - self.val], self.den)

    def leading(self) -> Fraction:
        if self.is_zero():
            raise PreconditionError("zero series has no leading coefficient")
        return Fraction(self.nums[0], self.den)

    def is_unit(self) -> bool:
        """Invertible: nonzero constant term, certified."""
        if self.trunc is not None and self.trunc <= 0:
            raise InsufficientTruncationError("constant term not certified")
        return self.val == 0 and bool(self.nums)

    def terms(self) -> dict:
        return {self.val + i: Fraction(x, self.den) for i, x in enumerate(self.nums) if x}

    def _aligned(self, lo: int, n: int, f: int) -> List[int]:
        """The numerators times f in n slots from order lo (lo <= val)."""
        i = min(self.val - lo, n)
        xs = self.nums[: n - i]
        out = [0] * i + (list(xs) if f == 1 else [x * f for x in xs])
        return out + [0] * (n - len(out))

    # -- arithmetic --------------------------------------------------------

    def _plus(self, other: "LaurentSeries", sign: int) -> "LaurentSeries":
        """self + sign * other (sign 1 or -1), built as one series."""
        t = _tmin(self.trunc, other.trunc)
        if not self.nums and self.trunc is None:
            return (other if sign == 1 else -other).truncate(t)
        if not other.nums and other.trunc is None:
            return self.truncate(t)
        lo = min(self.val, other.val)
        hi = max(self.val + len(self.nums), other.val + len(other.nums))
        if t is not None:
            hi = min(hi, t)
        n = max(0, hi - lo)
        d = lcm(self.den, other.den)
        out = map(add, self._aligned(lo, n, d // self.den),
                  other._aligned(lo, n, sign * (d // other.den)))
        return _series(lo, list(out), d, t)

    def __add__(self, other) -> "LaurentSeries":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "LaurentSeries":
        return _series(self.val, [-x for x in self.nums], self.den, self.trunc)

    def __sub__(self, other) -> "LaurentSeries":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._plus(self, -1)

    def __mul__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            if p == 0:
                return LaurentSeries.zero()
            if p == 1 and other.denominator == 1:
                return self
            return _series(self.val, [x * p for x in self.nums], self.den * other.denominator, self.trunc)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if (not self.nums and self.trunc is None) or (not other.nums and other.trunc is None):
            return LaurentSeries.zero()
        # an exact 1 changes neither the value nor the certified order of the other factor
        if _is_one(other):
            return self
        if _is_one(self):
            return other
        ta = None if self.trunc is None else self.trunc + other.val
        tb = None if other.trunc is None else other.trunc + self.val
        t = _tmin(ta, tb)
        lo = self.val + other.val
        hi = lo + len(self.nums) + len(other.nums) - 1
        if t is not None:
            hi = min(hi, t)
        nums = _convolve(self.nums, other.nums, max(0, hi - lo))
        return _series(lo, nums, self.den * other.den, t)

    __rmul__ = __mul__

    def inverse(self, trunc: Optional[int] = None) -> "LaurentSeries":
        """Multiplicative inverse; needs a certified nonzero leading coefficient."""
        if self.is_zero():
            if self.trunc is None:
                raise ZeroDivisionError("inverse of the zero series")
            raise InsufficientTruncationError("divisor has no certified leading coefficient")
        rel = self.rel_prec()
        if self.is_monomial():
            a0 = self.nums[0]
            sign = 1 if a0 > 0 else -1
            if rel is None:
                return _series(-self.val, (sign * self.den,), abs(a0), None)
            inv = _series(-self.val, (sign * self.den,), abs(a0), self.trunc - 2 * self.val)
            return inv.truncate(trunc)
        if rel is None:
            if trunc is None:
                raise InsufficientTruncationError(
                    "inverse of an exact non-monomial series needs an explicit truncation"
                )
            rel = trunc + self.val  # relative orders needed so result reaches `trunc`
        elif trunc is not None:
            rel = min(rel, trunc + self.val)
        a0 = self.nums[0]
        return self._miller(_MINUS_ONE, self.den if a0 > 0 else -self.den, abs(a0), -self.val, rel)

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
            return LaurentSeries.zero()
        res = self * other.inverse(trunc=None if trunc is None else trunc - self.val)
        return res if res.is_exact() else res.truncate(trunc)

    def __pow__(self, n: int) -> "LaurentSeries":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out, base = None, self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            base = base * base if n else base
        return LaurentSeries.one() if out is None else out

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
        return self._miller(e, r0.numerator, r0.denominator, int(ve), rel)

    def _miller(self, e: Fraction, rn: int, rd: int, ve: int, rel: int) -> "LaurentSeries":
        """(rn/rd) z^ve (1 + eps)^e to rel orders from ve, where self = c0 z^val (1 + eps).

        eps_j = nums_j / nums_0, so by :func:`unit_power` the result is
        (rn/rd) z^ve sum_k G_k / S_k, brought over rd |S_(rel-1)|: the
        recurrence starts at G_0 = +-rn, with the sign of
        S_(rel-1) = (q^2 nums_0)^(rel-1).
        """
        if rel <= 0:
            return LaurentSeries.zero(ve)
        a0 = self.nums[0]
        eps = list(self.nums[1:rel])
        eps += [0] * (rel - 1 - len(eps))  # the certified zeros past the stored nums
        G, S = unit_power(eps, e, rn if a0 > 0 or rel % 2 else -rn, a0)
        nums = list(map(mul, G, reversed(S)))  # S_n / S_k = S_(n-k)
        return _series(ve, nums, rd * abs(S[-1]), ve + rel)

    def sqrt(self, trunc: Optional[int] = None) -> "LaurentSeries":
        return self.power_rational(Fraction(1, 2), trunc)

    def derivative(self) -> "LaurentSeries":
        v = self.val
        nums = [(v + i) * x for i, x in enumerate(self.nums)]
        return _series(v - 1, nums, self.den, None if self.trunc is None else self.trunc - 1)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by z^k."""
        return _series(self.val + k, self.nums, self.den, None if self.trunc is None else self.trunc + k)

    def truncate(self, trunc: Optional[int]) -> "LaurentSeries":
        t = _tmin(self.trunc, trunc)
        if t == self.trunc:
            return self
        return _series(self.val, self.nums, self.den, t)

    # -- comparison --------------------------------------------------------

    def agrees(self, other: "LaurentSeries") -> bool:
        """Equality on every coefficient both sides certify."""
        other = _coerce(other)
        t = _tmin(self.trunc, other.trunc)
        if t is None:
            return self.val == other.val and self.nums == other.nums and self.den == other.den
        lo = min(self.val, other.val)
        n = max(0, t - lo)
        return self._aligned(lo, n, other.den) == other._aligned(lo, n, self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.constant(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.val == other.val and self.nums == other.nums and self.den == other.den
                and self.trunc == other.trunc)

    def __hash__(self):
        return hash((self.val, self.nums, self.den, self.trunc))

    def __repr__(self):
        if self.is_zero():
            body = "0"
        else:
            parts = []
            for i, x in enumerate(self.nums):
                if x == 0:
                    continue
                c = Fraction(x, self.den)
                k = self.val + i
                term = str(c) if k == 0 else (f"{c}*z^{k}" if c != 1 else f"z^{k}")
                parts.append(term)
            body = " + ".join(parts)
        tail = "" if self.trunc is None else f" + O(z^{self.trunc})"
        return body + tail


def is_exact_zero(x: LaurentSeries) -> bool:
    """Exactly 0: no certified coefficient and no truncation order to carry.

    A truncated zero O(z^k) is not exact; it must still take part in products
    and sums, because its order bounds what the result certifies.
    """
    return not x.nums and x.trunc is None


def _is_one(x: LaurentSeries) -> bool:
    """Exactly the series 1 (in canonical form its only stored numerator is 1 over 1)."""
    return x.trunc is None and x.val == 0 and x.nums == (1,) and x.den == 1


def dot(pairs: Iterable[Tuple[LaurentSeries, LaurentSeries]],
        weights: Optional[Iterable[Rat]] = None) -> LaurentSeries:
    """sum w * x * y over the pairs, built as one series with the certified order of the sum.

    Exact-zero factors are skipped, and so is a term of zero weight, as
    0 * (x * y) is exactly 0; the rest is :func:`_dot` (weights 1 each when
    None), which decides how a lone term is multiplied.
    """
    if weights is None:
        terms = [(x, y) for x, y in pairs if not (is_exact_zero(x) or is_exact_zero(y))]
        ws = None
    else:
        terms, ws = [], []
        for (x, y), w in zip(pairs, weights):
            if w and not (is_exact_zero(x) or is_exact_zero(y)):
                terms.append((x, y))
                ws.append(w)
    return _dot(terms, ws) if terms else _ZERO


def _dot(terms: Sequence[Tuple[LaurentSeries, LaurentSeries]],
         ws: Optional[Sequence[Rat]] = None) -> LaurentSeries:
    """sum w * x * y over one or more pairs with no exact-zero factor and no zero weight.

    The one place a lone term is decided: it is ``x * y`` (times its weight),
    which keeps __mul__'s exact 0 and 1 returns.  More terms share one
    denominator, with the weights (1 each when None) in its scales.  A term
    with a monomial factor only scales its other factor into the output list;
    the rest are packed whole (see :func:`_convolve`) at the slot width this
    sum needs, into one integer read back once: the read masks off the slots
    at and above the sum's length, and carries only move upward.
    """
    if len(terms) == 1:
        x, y = terms[0]
        return x * y if ws is None else x * y * ws[0]
    dens = [x.den * y.den for x, y in terms]
    if ws is None:
        den = lcm(*dens)
        scales = [den // d for d in dens]
    else:
        dens = [d * w.denominator for d, w in zip(dens, ws)]
        den = lcm(*dens)
        scales = [den // d * w.numerator for d, w in zip(dens, ws)]
    t = lo = hi = None
    for x, y in terms:
        if x.trunc is not None:
            t = _tmin(t, x.trunc + y.val)
        if y.trunc is not None:
            t = _tmin(t, y.trunc + x.val)
        v = x.val + y.val
        top = v + len(x.nums) + len(y.nums) - 1
        lo = v if lo is None else min(lo, v)
        hi = top if hi is None else max(hi, top)
    if t is not None:
        hi = min(hi, t)
    n = max(0, hi - lo)
    scaled, packed, bound = [], [], 0
    for (x, y), s in zip(terms, scales):
        off = x.val + y.val - lo
        if off >= n or not (x.nums and y.nums):
            continue  # a truncated zero adds nothing but its order, counted in t
        if len(x.nums) == 1 or len(y.nums) == 1:
            (c,), ys = (x.nums, y.nums) if len(x.nums) == 1 else (y.nums, x.nums)
            scaled.append((c * s, ys, off))
        else:
            packed.append((x.nums, y.nums, s, off))
            bound += abs(s) * min(len(x.nums), len(y.nums)) * _maxabs(x.nums) * _maxabs(y.nums)
    if packed:
        kb = _slot_bytes(bound)
        k = 8 * kb
        acc = 0
        for xs, ys, s, off in packed:
            acc += (_pack(xs, kb) * _pack(ys, kb) * s) << (k * off)
        nums = _unpack(acc, kb, n)
    else:
        nums = [0] * n
    for c, ys, off in scaled:
        end = min(off + len(ys), n)  # map stops at the shorter slice of nums
        nums[off:end] = map(add, nums[off:end], map(mul, ys, repeat(c)))
    return _series(lo, nums, den, t)


def _series(val: int, nums: Sequence[int], den: int, trunc: Optional[int]) -> LaurentSeries:
    """The series val + nums/den cut at trunc: every arithmetic result is built here."""
    return object.__new__(LaurentSeries)._fill(val, nums, den, trunc)


_ZERO = _series(0, (), 1, None)  # immutable, so every exact zero can share it
_MINUS_ONE = Fraction(-1)  # the exponent of an inverse


def _coerce(x) -> LaurentSeries:
    if isinstance(x, LaurentSeries):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentSeries.constant(x)
    return NotImplemented


def half_integer(w: Rat) -> Fraction:
    w = _fr(w)
    if w.denominator > 2:
        raise PreconditionError(f"weight {w} is not a half-integer")
    return w


class Density(Record):
    """A series section of the w-th tensor power of the cotangent line.

    The local coordinate trivializes the line, so a density is a series with a
    declared half-integer weight; weights add under multiplication and no sign
    is attached to transposing half-integer factors.
    """

    __slots__ = ("series", "weight")

    def __init__(self, series: LaurentSeries, weight: Rat):
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "weight", half_integer(weight))

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
