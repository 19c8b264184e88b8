"""Two-point kernels expanded along the diagonal.

A kernel is a finite sum K = sum_m c_m(z2) (z1 - z2)^m carrying a bidegree
(w1, w2) of half-integer weights, considered modulo (z1 - z2)^(mmax + 1).
All coefficient series share one certified jet order in z2.  Re-expanding
around the first point (`swap`), rational powers of kernels with unit leading
coefficient, and parity-projected extensions across the diagonal are the
basic moves.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping

from .errors import PreconditionError
from .series import LaurentSeries, Rat, _fr, _series, _tmin, half_integer, unit_power


class BiKernel:
    __slots__ = ("w1", "w2", "mmin", "mmax", "coeffs", "trunc")

    def __init__(self, w1: Rat, w2: Rat, mmin: int, mmax: int,
                 coeffs: Mapping[int, LaurentSeries]):
        if mmin > mmax:
            raise PreconditionError(f"empty expansion range [{mmin}, {mmax}]")
        if any(m < mmin or m > mmax for m in coeffs):
            raise PreconditionError("kernel coefficient outside declared range")
        trunc = None
        for c in coeffs.values():
            trunc = _tmin(trunc, c.trunc)
        cs = {}
        for m, c in coeffs.items():
            c = c.truncate(trunc)
            if not c.is_zero():
                cs[m] = c
        object.__setattr__(self, "w1", half_integer(w1))
        object.__setattr__(self, "w2", half_integer(w2))
        object.__setattr__(self, "mmin", mmin)
        object.__setattr__(self, "mmax", mmax)
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("BiKernel is immutable")

    def coeff(self, m: int) -> LaurentSeries:
        if m < self.mmin or m > self.mmax:
            raise PreconditionError(f"order {m} outside range [{self.mmin}, {self.mmax}]")
        return self.coeffs.get(m, LaurentSeries.zero(self.trunc))

    def weights(self):
        return (self.w1, self.w2)

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "BiKernel") -> "BiKernel":
        if self.weights() != other.weights():
            raise PreconditionError("cannot add kernels of different bidegrees")
        if (self.mmin, self.mmax) != (other.mmin, other.mmax):
            raise PreconditionError("cannot add kernels with different ranges")
        out = {m: self.coeff(m) + other.coeff(m) for m in range(self.mmin, self.mmax + 1)}
        return BiKernel(self.w1, self.w2, self.mmin, self.mmax, out)

    def __neg__(self) -> "BiKernel":
        return BiKernel(self.w1, self.w2, self.mmin, self.mmax,
                        {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "BiKernel") -> "BiKernel":
        return self + (-other)

    def __mul__(self, scalar) -> "BiKernel":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return BiKernel(self.w1, self.w2, self.mmin, self.mmax,
                        {m: c * scalar for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    # -- diagonal re-expansion -------------------------------------------------

    def swap(self) -> "BiKernel":
        """Exchange the two points.

        Writing (z1 - z2)^m = (-1)^m (z2 - z1)^m and Taylor-expanding each
        c_m at the first point gives, modulo (z1 - z2)^(mmax + 1),

            c'_n = sum_{m <= n} (-1)^m c_m^(n - m) / (n - m)! .

        The bidegree swaps; each differentiation costs one certified order,
        so the jet order drops by the range width in general.
        """
        # chains[m][i] = c_m^(i), each derivative taken once
        chains = {}
        for m, c in self.coeffs.items():
            chain = [c]
            for _ in range(self.mmax - m):
                chain.append(chain[-1].derivative())
            chains[m] = chain
        out = {}
        for n in range(self.mmin, self.mmax + 1):
            acc = LaurentSeries.zero()
            for m, chain in chains.items():
                if m <= n:
                    acc = acc + chain[n - m] * Fraction(-1 if m % 2 else 1, factorial(n - m))
            out[n] = acc
        return BiKernel(self.w2, self.w1, self.mmin, self.mmax, out)

    def power(self, e: Rat) -> "BiKernel":
        """K^e for rational e, for kernels whose leading coefficient agrees with 1.

        The leading order and both weights scale by e and must stay integral
        resp. half-integral; the range width is preserved, i.e. the result is
        taken modulo (z1 - z2)^(e*mmin + width + 1).  With K = c0 D^mmin (1 +
        eps), the coefficients of (1 + eps)^e come from Miller's recurrence
        (:func:`unit_power` with a0 = 1: one weighted dot per order, and one
        division G_k / S_k, S_k = q^(2k), per coefficient) and are scaled by
        c0^e; an exact c0 = 1 makes both c0 factors the exact series 1.
        """
        e = _fr(e)
        c0 = self.coeff(self.mmin)
        if not c0.agrees(1):
            raise PreconditionError("kernel power needs leading coefficient 1")
        em = e * self.mmin
        if em.denominator != 1:
            raise PreconditionError(f"power {e} of leading order {self.mmin} is not integral")
        w1 = half_integer(e * self.w1)
        w2 = half_integer(e * self.w2)
        width = self.mmax - self.mmin
        inv0 = c0.inverse()
        eps = [self.coeff(self.mmin + k) * inv0 for k in range(1, width + 1)]
        G, S = unit_power(eps, e, LaurentSeries.one())
        lead = c0.power_rational(e)
        base = int(em)
        # coefficient k of (1 + eps)^e is G_k / S_k: S_k joins the denominator
        return BiKernel(w1, w2, base, base + width,
                        {base + k: _series(g.val, g.nums, g.den * s, g.trunc) * lead
                         for k, (g, s) in enumerate(zip(G, S))})

    def symmetrize_lift(self, parity: int, extra: int) -> "BiKernel":
        """Extend across the diagonal by `extra` orders with a chosen parity.

        Appends zero coefficients on (mmax, mmax + extra], applies the
        projector (1 + parity * swap)/2 on the extended range, and checks the
        original coefficients came back unchanged -- which is exactly the
        condition that the input was already parity-symmetric to its own
        order.
        """
        if parity not in (1, -1):
            raise PreconditionError("parity must be +1 or -1")
        if extra < 0:
            raise PreconditionError("extension size must be nonnegative")
        if self.w1 != self.w2:
            raise PreconditionError("parity extension needs equal weights")
        ext = BiKernel(self.w1, self.w2, self.mmin, self.mmax + extra, dict(self.coeffs))
        proj = (ext + parity * ext.swap()) * Fraction(1, 2)
        for m in range(self.mmin, self.mmax + 1):
            if not proj.coeff(m).agrees(self.coeff(m)):
                raise PreconditionError(
                    f"kernel is not parity {parity:+d} symmetric on its own range"
                )
        return proj

    # -- comparison ------------------------------------------------------------

    def agrees(self, other: "BiKernel") -> bool:
        """Equality of certified data: same bidegree and range, series agree."""
        if self.weights() != other.weights():
            return False
        if (self.mmin, self.mmax) != (other.mmin, other.mmax):
            return False
        return all(self.coeff(m).agrees(other.coeff(m))
                   for m in range(self.mmin, self.mmax + 1))

    def __eq__(self, other):
        if not isinstance(other, BiKernel):
            return NotImplemented
        return (self.weights() == other.weights()
                and (self.mmin, self.mmax) == (other.mmin, other.mmax)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.w1, self.w2, self.mmin, self.mmax,
                     tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        body = " + ".join(f"({c!r})*D^{m}" for m, c in sorted(self.coeffs.items())) or "0"
        return (f"BiKernel[{self.w1},{self.w2}; D=(z1-z2) in [{self.mmin},{self.mmax}]]"
                f" {body}")
