"""Kernel algebra: swap, rational powers, parity extensions.

The swap rule is checked against a from-scratch bivariate expansion, and
rational powers against integer multiplication implemented independently
below by convolution.
"""

from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from opercalc.errors import PreconditionError
from opercalc.kernels import BiKernel
from opercalc.series import LaurentSeries

Z = LaurentSeries.monomial(1, 1)
ONE = LaurentSeries.one()


def kmul(A, B):
    """Convolution product of kernels, modulo the attainable diagonal order."""
    mmin = A.mmin + B.mmin
    mmax = min(A.mmax + B.mmin, B.mmax + A.mmin)
    out = {}
    for m in range(mmin, mmax + 1):
        acc = LaurentSeries.zero()
        for i in range(A.mmin, A.mmax + 1):
            j = m - i
            if B.mmin <= j <= B.mmax:
                acc = acc + A.coeff(i) * B.coeff(j)
        out[m] = acc
    return BiKernel(A.w1 + B.w1, A.w2 + B.w2, mmin, mmax, out)


def swap_oracle(K):
    """Re-expand around the first point by brute force.

    Only valid for polynomial kernels with mmin >= 0: expand into monomials
    z1^i z2^j, substitute z2 = z1 + (z2 - z1), and recollect.
    """
    assert K.mmin >= 0
    a = {}
    for m in range(K.mmin, K.mmax + 1):
        c = K.coeff(m)
        assert c.is_exact() and c.val >= 0
        for j, g in c.terms().items():
            for k in range(m + 1):
                key = (k, m - k + j)
                a[key] = a.get(key, F(0)) + g * comb(m, k) * F(-1) ** (m - k)
    out = {}
    for n in range(K.mmin, K.mmax + 1):
        acc = {}
        for (i, j), v in a.items():
            if j >= n:
                acc[i + j - n] = acc.get(i + j - n, F(0)) + v * comb(j, n)
        out[n] = LaurentSeries.from_terms(acc)
    return BiKernel(K.w2, K.w1, K.mmin, K.mmax, out)


def second_order_kernel(u):
    """Diagonal expansion attached to the operator d^2 + u."""
    return BiKernel(F(3, 2), F(3, 2), -3, -1, {-3: ONE, -1: u * F(1, 2)})


def third_order_kernel(u):
    """Diagonal expansion attached to d^3 + 4u d + 2u'."""
    return BiKernel(2, 2, -4, -1,
                    {-4: ONE, -2: u * F(2, 3), -1: u.derivative() * F(1, 3)})


U = LaurentSeries.from_terms({0: 3, 1: 1, 3: -2})  # sample polynomial potential


class TestSwap:
    def test_matches_bivariate_expansion(self):
        K = BiKernel(1, 2, 0, 3, {0: 1 + Z, 1: Z * Z, 3: LaurentSeries.constant(5)})
        S = K.swap()
        O = swap_oracle(K)
        assert S.weights() == O.weights() == (2, 1)
        for m in range(0, 4):
            assert S.coeff(m) == O.coeff(m)

    def test_negative_orders_hand_value(self):
        K = BiKernel(1, 1, -2, -1, {-2: ONE, -1: Z})
        S = K.swap()
        assert S.coeff(-2) == ONE
        assert S.coeff(-1) == LaurentSeries.monomial(-1, 1)

    def test_involution_on_exact_kernels(self):
        K = BiKernel(F(1, 2), F(3, 2), -3, 0,
                     {-3: ONE, -1: U, 0: U.derivative()})
        assert K.swap().swap() == K

    def test_involution_up_to_certification(self):
        u = LaurentSeries.from_terms({0: 1, 1: 2, 2: 5}, trunc=9)
        K = BiKernel(1, 1, -2, 0, {-2: ONE, 0: u})
        assert K.swap().swap().agrees(K)

    def test_jet_order_drops_by_width(self):
        u = LaurentSeries.from_terms({0: 1, 1: 1}, trunc=8)
        K = BiKernel(1, 1, -2, 0, {-2: u, 0: u})
        assert K.swap().trunc == 6


class TestPower:
    def test_needs_unit_leading_coefficient(self):
        K = BiKernel(1, 1, -2, -1, {-2: 2 * ONE})
        with pytest.raises(PreconditionError):
            K.power(F(1, 2))

    def test_leading_order_must_scale_integrally(self):
        K = BiKernel(1, 1, -2, -1, {-2: ONE})
        with pytest.raises(PreconditionError):
            K.power(F(1, 3))

    def test_weights_must_stay_half_integral(self):
        K = BiKernel(F(3, 2), F(3, 2), -2, -1, {-2: ONE})
        with pytest.raises(PreconditionError):
            K.power(F(1, 2))

    def test_float_exponent_rejected(self):
        K = BiKernel(1, 1, -2, -1, {-2: ONE})
        with pytest.raises(TypeError):
            K.power(0.5)

    def test_truncated_kernel_half_power_round_trip(self):
        K = BiKernel(1, 1, -2, 2, {-2: ONE.truncate(10), -1: U.truncate(10),
                                   0: U.derivative(), 2: Z * U})
        H = K.power(F(1, 2))
        assert H.trunc is not None and (H.mmin, H.mmax) == (-1, 3)
        assert H.power(2).agrees(K)

    def test_integer_power_matches_convolution(self):
        K = BiKernel(1, 1, -2, 1, {-2: ONE, 0: U, 1: U.derivative()})
        P = K.power(3)
        Q = kmul(kmul(K, K), K)
        assert (P.mmin, P.mmax) == (Q.mmin, Q.mmax)
        assert P.agrees(Q)

    def test_cube_of_four_thirds_is_fourth_power(self):
        K = second_order_kernel(U).symmetrize_lift(-1, 1)
        P = K.power(F(4, 3))
        lhs = kmul(kmul(P, P), P)
        rhs = kmul(kmul(kmul(K, K), K), K)
        assert lhs.weights() == rhs.weights() == (6, 6)
        assert lhs.agrees(rhs)

    def test_four_thirds_reproduces_third_order_kernel(self):
        K = second_order_kernel(U).symmetrize_lift(-1, 1)
        P = K.power(F(4, 3))
        T = third_order_kernel(U)
        assert (P.mmin, P.mmax) == (T.mmin, T.mmax) == (-4, -1)
        assert P.agrees(T)

    def test_two_thirds_symmetric_square_root_cube(self):
        K = second_order_kernel(U).symmetrize_lift(-1, 1)
        P = K.power(F(2, 3))
        assert (P.mmin, P.mmax) == (-2, 1)
        assert P.weights() == (1, 1)
        # its cube recovers the square of the original kernel
        assert kmul(kmul(P, P), P).agrees(kmul(K, K))


def binomial_power(K, e):
    """K^e as sum_k binom(e, k) eps^k, eps^k by repeated convolution in D."""
    width = K.mmax - K.mmin
    eps = [K.coeff(K.mmin + j) for j in range(1, width + 1)]
    out = [ONE] + [LaurentSeries.zero()] * width
    powk = list(out)
    binom = F(1)
    for k in range(1, width + 1):
        binom = binom * (e - (k - 1)) / k
        new = [LaurentSeries.zero()] * (width + 1)
        for i, p in enumerate(powk):
            for j, q in enumerate(eps, 1):
                if i + j <= width:
                    new[i + j] = new[i + j] + p * q
        powk = new
        out = [o + binom * p for o, p in zip(out, powk)]
    base = K.mmin * e
    assert base.denominator == 1
    base = int(base)
    return BiKernel(K.w1 * e, K.w2 * e, base, base + width,
                    {base + i: c for i, c in enumerate(out)})


class TestPowerOracle:
    def test_four_thirds_equals_binomial_series(self):
        # Laurent coefficients of valuation -2 .. 2 behind the leading 1
        K = BiKernel(F(3, 2), F(3, 2), -3, 2, {
            -3: ONE,
            -2: LaurentSeries.from_terms({-2: 1, 0: F(-1, 2), 2: 3}),
            -1: LaurentSeries.from_terms({-1: F(2, 3), 1: 1}),
            0: LaurentSeries.from_terms({0: -2, 2: F(1, 5)}),
            1: LaurentSeries.from_terms({1: 7, 2: -1}),
            2: LaurentSeries.from_terms({2: F(-3, 4)}),
        })
        P = K.power(F(4, 3))
        R = binomial_power(K, F(4, 3))
        assert P == R
        assert P.trunc == R.trunc is None
        assert [c.trunc for c in P.coeffs.values()] == [c.trunc for c in R.coeffs.values()]
        assert (P.mmin, P.mmax, P.weights()) == (-4, 1, (2, 2))


class TestParityExtension:
    def test_skew_extension_of_second_order_kernel(self):
        K = second_order_kernel(U)
        L = K.symmetrize_lift(-1, 1)
        assert (L.mmin, L.mmax) == (-3, 0)
        assert L.coeff(-3) == ONE
        assert L.coeff(-2).is_zero()
        assert L.coeff(-1) == U * F(1, 2)
        assert L.coeff(0) == U.derivative() * F(1, 4)

    def test_extension_is_parity_symmetric(self):
        L = second_order_kernel(U).symmetrize_lift(-1, 1)
        assert (L.swap() + L).coeff(0).is_zero()
        for m in range(-3, 1):
            assert (L.swap() + L).coeff(m).is_zero()

    def test_wrong_parity_rejected(self):
        with pytest.raises(PreconditionError):
            second_order_kernel(U).symmetrize_lift(1, 1)

    def test_needs_equal_weights(self):
        K = BiKernel(1, 2, -1, -1, {-1: ONE})
        with pytest.raises(PreconditionError):
            K.symmetrize_lift(1, 0)

    def test_parity_and_extension_checked(self):
        K = second_order_kernel(U)
        with pytest.raises(PreconditionError, match="parity must be"):
            K.symmetrize_lift(0, 1)
        with pytest.raises(PreconditionError, match="must be nonnegative"):
            K.symmetrize_lift(-1, -1)

    def test_even_extension(self):
        K = BiKernel(1, 1, 0, 0, {0: U})
        L = K.symmetrize_lift(1, 2)
        assert L.coeff(0) == U
        assert L.coeff(1) == U.derivative() * F(1, 2)
        assert (L.swap() - L).coeff(2).is_zero()


class TestLinear:
    def test_add_same_shape(self):
        A = BiKernel(1, 1, -1, 0, {-1: ONE})
        B = BiKernel(1, 1, -1, 0, {0: Z})
        C = A + B
        assert C.coeff(-1) == ONE and C.coeff(0) == Z

    def test_bidegree_mismatch(self):
        A = BiKernel(1, 1, -1, 0, {-1: ONE})
        B = BiKernel(1, 2, -1, 0, {-1: ONE})
        with pytest.raises(PreconditionError):
            A + B

    def test_out_of_range_coefficient_rejected(self):
        with pytest.raises(PreconditionError):
            BiKernel(1, 1, -1, 0, {1: ONE})

    def test_empty_range_rejected(self):
        with pytest.raises(PreconditionError, match="empty expansion range"):
            BiKernel(1, 1, 0, -1, {})

    def test_coeff_outside_range(self):
        with pytest.raises(PreconditionError, match="outside range"):
            BiKernel(1, 1, -1, 0, {-1: ONE}).coeff(1)

    def test_range_mismatch(self):
        A = BiKernel(1, 1, -1, 0, {-1: ONE})
        B = BiKernel(1, 1, -2, 0, {-2: ONE})
        with pytest.raises(PreconditionError, match="different ranges"):
            A + B

    def test_hash_repr_and_agrees_across_shapes(self):
        K = BiKernel(1, F(1, 2), -2, -1, {-2: ONE, -1: Z})
        same = BiKernel(1, F(1, 2), -2, -1, {-1: Z, -2: ONE})
        assert K == same and hash(K) == hash(same) and len({K, same}) == 1
        assert repr(K) == "BiKernel[1,1/2; D=(z1-z2) in [-2,-1]] (1)*D^-2 + (z^1)*D^-1"
        assert repr(BiKernel(0, 0, 0, 0, {})) == "BiKernel[0,0; D=(z1-z2) in [0,0]] 0"
        assert K.agrees(BiKernel(1, F(1, 2), -2, -1, {-2: ONE.truncate(3), -1: Z}))
        # the same coefficients under another bidegree or range never agree
        assert not K.agrees(BiKernel(F(1, 2), 1, -2, -1, {-2: ONE, -1: Z}))
        assert not K.agrees(BiKernel(1, F(1, 2), -3, -1, {-2: ONE, -1: Z}))
        assert not K.agrees(BiKernel(1, F(1, 2), -2, 0, {-2: ONE, -1: Z}))

    def test_common_jet_order(self):
        a = LaurentSeries.from_terms({0: 1}, trunc=5)
        K = BiKernel(1, 1, 0, 1, {0: a, 1: ONE})
        assert K.trunc == 5 and K.coeff(1).trunc == 5


def miller_kernel_power(K, e):
    """K^e by Miller's recurrence run on series with Fraction weights (no scaling)."""
    width = K.mmax - K.mmin
    c0 = K.coeff(K.mmin)
    inv0 = c0.inverse()
    eps = [None] + [K.coeff(K.mmin + j) * inv0 for j in range(1, width + 1)]
    g = [ONE]
    for k in range(1, width + 1):
        acc = LaurentSeries.zero()
        for j in range(1, k + 1):
            acc = acc + eps[j] * g[k - j] * ((e + 1) * j - k)
        g.append(acc * F(1, k))
    lead = c0.power_rational(e)
    base = int(e * K.mmin)
    return BiKernel(e * K.w1, e * K.w2, base, base + width,
                    {base + k: c * lead for k, c in enumerate(g)})


RATS = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def unit_kernel(draw):
    """(K, e): leading coefficient 1, exact or truncated (then c0 only agrees with 1)."""
    e = draw(st.sampled_from([F(1, 2), F(-1, 3), F(2, 3), F(4, 3), F(-5, 2)]))
    q = e.denominator
    width = draw(st.integers(0, 7))
    mmin = q * draw(st.integers(-2, 1))
    trunc = draw(st.one_of(st.none(), st.integers(1, 10)))
    coeffs = {mmin: LaurentSeries.one(trunc)}
    for k in range(1, width + 1):
        terms = draw(st.dictionaries(st.integers(-2, 4), RATS, max_size=3))
        if terms:
            coeffs[mmin + k] = LaurentSeries.from_terms(terms, trunc)
    w = F(q * draw(st.integers(-3, 3)), 2)
    return BiKernel(w, w, mmin, mmin + width, coeffs), e


class TestFractionFreePower:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(unit_kernel())
    def test_matches_series_miller(self, case):
        K, e = case
        P, R = K.power(e), miller_kernel_power(K, e)
        assert P == R and P.trunc == R.trunc
        assert [c.trunc for c in P.coeffs.values()] == [c.trunc for c in R.coeffs.values()]

    def test_truncated_leading_coefficient_that_only_agrees_with_one(self):
        c0 = LaurentSeries.one(4)
        assert c0.agrees(1) and c0 != ONE
        K = BiKernel(1, 1, -2, 3, {-2: c0, -1: LaurentSeries.from_terms({0: 2, 1: -1}, 4),
                                  1: LaurentSeries.from_terms({-1: F(1, 3)}, 4),
                                  3: LaurentSeries.from_terms({2: 5}, 4)})
        for e in (F(1, 2), F(-1, 2), F(3, 2)):
            P = K.power(e)
            assert P == miller_kernel_power(K, e)
            assert P.trunc == 3 and P.coeff(int(-2 * e)).agrees(1)
