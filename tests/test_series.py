"""Series arithmetic: normalization, certified truncation orders, exactness."""

import random
import sys
from fractions import Fraction as F
from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from opercalc.errors import InsufficientTruncationError, PreconditionError
from opercalc.series import (_PACK_BYTES, Density, LaurentSeries, _convolve, _pack, _slot_bytes,
                             _unpack, dot, fraction_root, unit_power)
from oracles import pack_by_shifts, unit_power_two_dots

Z = LaurentSeries.monomial(1, 1)


def S(terms, trunc=None):
    return LaurentSeries.from_terms(terms, trunc)


class TestNormalization:
    def test_leading_zeros_raise_valuation(self):
        s = LaurentSeries(-2, [0, 0, 3, 1], None)
        assert s.val == 0 and s.coeffs == (F(3), F(1))
        # under a finite trunc the certified zero tail stays
        s = LaurentSeries(-2, [0, 0, 3, 1, 0], 4)
        assert (s.val, s.coeffs, s.trunc) == (0, (F(3), F(1), F(0), F(0)), 4)
        s = LaurentSeries(-3, [0] * 5 + [7], 5)
        assert (s.val, s.coeffs, s.trunc) == (2, (F(7), F(0), F(0)), 5)
        s = LaurentSeries(-2, [0, 0, 0], 1)
        assert (s.val, s.coeffs, s.trunc) == (1, (), 1)
        s = LaurentSeries(0, [0] * 40000 + [1, 2], 40001)
        assert (s.val, s.coeffs, s.trunc) == (40000, (F(1),), 40001)

    def test_exact_trailing_zeros_stripped(self):
        s = LaurentSeries(1, [2, 0, 0], None)
        assert s.coeffs == (F(2),) and s.trunc is None

    def test_truncated_keeps_certified_zero_tail(self):
        s = LaurentSeries(0, [1, 0, 0], 3)
        assert s.coeffs == (F(1), F(0), F(0)) and s.trunc == 3

    def test_coeffs_past_trunc_discarded(self):
        s = LaurentSeries(0, [1, 2, 3, 4], 2)
        assert s.coeffs == (F(1), F(2))

    def test_empty_exact_zero(self):
        s = LaurentSeries.zero()
        assert s.val == 0 and s.coeffs == () and s.is_zero()

    def test_empty_truncated_sits_at_trunc(self):
        s = LaurentSeries(0, [0, 0], 2)
        assert s.val == 2 and s.coeffs == () and s.trunc == 2

    def test_storage_invariant(self):
        s = S({0: 1, 3: 5}, trunc=6)
        assert len(s.coeffs) == s.trunc - s.val


class TestCoefficientAccess:
    def test_certified_zero_outside_support(self):
        s = S({2: 7}, trunc=5)
        assert s.coeff(0) == 0 and s.coeff(4) == 0

    def test_past_trunc_raises(self):
        s = S({0: 1}, trunc=3)
        with pytest.raises(InsufficientTruncationError):
            s.coeff(3)

    def test_exact_any_order(self):
        s = S({-1: 2})
        assert s.coeff(10**6) == 0

    def test_unit_detection(self):
        assert S({0: 5, 1: 1}).is_unit()
        assert not S({1: 1}).is_unit()
        with pytest.raises(InsufficientTruncationError):
            S({}, trunc=0).is_unit()


class TestAddMul:
    def test_add_trunc_is_min(self):
        a = S({0: 1, 1: 1, 2: F(1, 2)}, trunc=3)
        b = S({0: 1, 1: -1}, trunc=4)
        assert (a + b).trunc == 3

    def test_mul_relative_precision(self):
        # trunc of a product: min(ta + vb, tb + va)
        a = S({2: 1, 3: 4}, trunc=5)
        b = S({-1: 1}, trunc=6)
        assert (a * b).trunc == min(5 + (-1), 6 + 2)

    def test_mul_exact_times_exact_is_exact(self):
        p = (1 + Z) * (1 - Z)
        assert p == S({0: 1, 2: -1})

    def test_scalar_zero_annihilates(self):
        a = S({0: 1}, trunc=4)
        assert (0 * a).is_exact() and (0 * a).is_zero()

    def test_cancellation_raises_valuation(self):
        a = S({0: 1, 1: 2}, trunc=5)
        b = S({0: 1, 1: 3}, trunc=5)
        d = a - b
        assert d.val == 1 and d.coeff(1) == -1

    def test_int_pow(self):
        assert (1 + Z) ** 3 == S({0: 1, 1: 3, 2: 3, 3: 1})
        assert (Z**-2) == LaurentSeries.monomial(1, -2)

    @pytest.mark.parametrize("x", [1 + Z, S({0: 2, 1: -1, 3: F(1, 3)}, trunc=6),
                                   S({-2: 3, 0: F(-1, 2)})], ids=["exact", "truncated", "laurent"])
    def test_pow_squares_and_multiplies_in(self, x):
        # x**n starts from x: bit_length(n) - 1 squares and popcount(n) - 1
        # products into the result; x**0 is the exact 1 and makes none
        real, calls = LaurentSeries.__mul__, []

        def counted(a, b):
            calls.append(b)
            return real(a, b)

        for n in range(10):
            want = LaurentSeries.one()
            for _ in range(n):
                want = want * x
            calls.clear()
            with mock.patch.object(LaurentSeries, "__mul__", counted):
                got = x ** n
            assert got == want
            assert len(calls) == (n.bit_count() + n.bit_length() - 2 if n else 0), n


def naive_product(a, b):
    """(val, coeffs, trunc) of a * b by a Fraction double loop over the terms."""
    if (not a.coeffs and a.trunc is None) or (not b.coeffs and b.trunc is None):
        return 0, (), None
    terms = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            k = a.val + i + b.val + j
            terms[k] = terms.get(k, F(0)) + x * y
    orders = [t + v for t, v in ((a.trunc, b.val), (b.trunc, a.val)) if t is not None]
    t = min(orders) if orders else None
    nonzero = sorted(k for k, c in terms.items() if c != 0 and (t is None or k < t))
    if not nonzero:
        return (0 if t is None else t), (), t
    lo = nonzero[0]
    hi = nonzero[-1] + 1 if t is None else t
    return lo, tuple(terms.get(k, F(0)) for k in range(lo, hi)), t


def seeded_series(rng):
    kind = rng.random()
    if kind < 0.1:
        return LaurentSeries.zero()
    if kind < 0.2:
        return LaurentSeries.zero(rng.randint(-5, 8))
    val = rng.randint(-5, 5)
    n = rng.randint(1, 7)
    cs = [F(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.75 else F(0)
          for _ in range(n)]
    trunc = None if rng.random() < 0.4 else val + rng.randint(0, n + 2)
    return LaurentSeries(val, cs, trunc)


class TestProductOracle:
    def test_matches_naive_double_loop(self):
        rng = random.Random(4)
        cut = 0
        for _ in range(3000):
            a, b = seeded_series(rng), seeded_series(rng)
            p = a * b
            assert (p.val, p.coeffs, p.trunc) == naive_product(a, b), (a, b)
            assert (p.val, p.coeffs, p.trunc) == naive_product(b, a)
            if p.trunc is not None and p.trunc < a.val + b.val + len(a.coeffs) + len(b.coeffs) - 1:
                cut += 1
        assert cut > 100  # many products lose terms past their certified order

    def test_shared_denominators(self):
        a = S({-1: F(1, 6), 0: F(-3, 4), 2: F(5, 9)})
        b = S({1: F(2, 15), 2: F(7, 10)}, trunc=4)
        p = a * b
        assert (p.val, p.coeffs, p.trunc) == naive_product(a, b)
        assert p.coeff(0) == F(1, 6) * F(2, 15)


class TestDivision:
    def test_geometric(self):
        one = LaurentSeries.one()
        g = one.div(1 - Z, trunc=6)
        assert g == S({k: 1 for k in range(6)}, trunc=6)

    def test_truncated_divisor_needs_no_hint(self):
        b = S({0: 1, 1: -1}, trunc=4)
        q = LaurentSeries.one() / b
        assert q.trunc == 4 and all(q.coeff(k) == 1 for k in range(4))

    def test_exact_nonmonomial_requires_hint(self):
        with pytest.raises(InsufficientTruncationError):
            LaurentSeries.one().div(1 + Z)

    def test_monomial_division_stays_exact(self):
        s = S({-1: 3, 2: 5})
        q = s / LaurentSeries.monomial(2, 3)
        assert q.is_exact() and q == S({-4: F(3, 2), -1: F(5, 2)})

    def test_valuation_shift_precision(self):
        # dividing by z^2(1+z) certified to z^5 keeps 5 relative orders
        b = S({2: 1, 3: 1}, trunc=7)
        q = LaurentSeries.one() / b
        assert q.val == -2 and q.rel_prec() == 5
        assert (q * b).agrees(LaurentSeries.one())

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            LaurentSeries.one() / LaurentSeries.zero()
        with pytest.raises(InsufficientTruncationError):
            LaurentSeries.one() / LaurentSeries.zero(trunc=3)


class TestRationalPower:
    def test_fraction_root(self):
        assert fraction_root(F(8), F(1, 3)) == 2
        assert fraction_root(F(4, 9), F(1, 2)) == F(2, 3)
        assert fraction_root(F(-27), F(1, 3)) == -3
        assert fraction_root(F(-27), F(2, 3)) == 9
        with pytest.raises(PreconditionError):
            fraction_root(F(2), F(1, 2))
        with pytest.raises(PreconditionError):
            fraction_root(F(-4), F(1, 2))

    def test_cube_equals_fourth_power(self):
        # p = s^(4/3) certified by p^3 == s^4 on the shared window
        s = S({-3: 1, -1: 1})
        p = s.power_rational(F(4, 3), trunc=8)
        assert (p**3).agrees(s**4)

    def test_valuation_must_stay_integral(self):
        with pytest.raises(PreconditionError):
            S({-2: 1}).power_rational(F(4, 3))

    def test_leading_coefficient_must_have_root(self):
        with pytest.raises(PreconditionError):
            S({0: 2, 1: 1}).power_rational(F(1, 2), trunc=4)

    def test_sqrt_squares_back(self):
        s = S({0: 1, 1: 4, 2: -2}, trunc=9)
        r = s.sqrt()
        assert (r * r).agrees(s)

    def test_exact_monomial_power_exact(self):
        p = LaurentSeries.monomial(4, 2).power_rational(F(1, 2))
        assert p.is_exact() and p == LaurentSeries.monomial(2, 1)

    @pytest.mark.parametrize("e, lead", [(F(1, 2), F(4)), (F(-1, 3), F(8)), (F(4, 3), F(27, 8))])
    def test_matches_sympy_expansion(self, e, lead):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        terms = {0: lead, 1: 2, 2: F(-1, 3), 3: 5, 7: F(3, 4)}
        base = sum(sympy.Rational(c.numerator, c.denominator) * x**k for k, c in terms.items())
        ref = sympy.expand(sympy.series(base ** sympy.Rational(e.numerator, e.denominator),
                                        x, 0, 24).removeO())
        expected = []
        for k in range(24):
            c = ref.coeff(x, k)
            assert c.is_Rational
            expected.append(F(int(c.p), int(c.q)))
        assert S(terms).power_rational(e, trunc=24) == LaurentSeries(0, expected, 24)
        assert S(terms, trunc=24).power_rational(e) == LaurentSeries(0, expected, 24)

    def test_negative_integer_power_via_hint(self):
        s = S({1: 1, 2: 1})
        p = s.power_rational(-2, trunc=3)
        assert p.val == -2 and (p * s * s).agrees(LaurentSeries.one())


class TestCalculus:
    def test_derivative(self):
        s = S({-1: 1, 0: 5, 3: 2})
        assert s.derivative() == S({-2: -1, 2: 6})

    def test_derivative_loses_one_certified_order(self):
        s = S({0: 1, 1: 1}, trunc=5)
        assert s.derivative().trunc == 4

    def test_shift(self):
        s = S({0: 1, 1: 1}, trunc=3)
        t = s.shift(-2)
        assert t.val == -2 and t.trunc == 1


class TestAgrees:
    def test_overlap_only(self):
        a = S({0: 1, 1: 2}, trunc=2)
        b = S({0: 1, 1: 2, 2: 9}, trunc=3)
        assert a.agrees(b) and b.agrees(a)

    def test_exact_vs_truncated(self):
        a = S({0: 1})
        b = S({0: 1}, trunc=4)
        assert a.agrees(b)
        c = S({0: 1, 3: 1})
        assert not c.agrees(b)

    def test_structural_eq_distinguishes_trunc(self):
        assert S({0: 1}, trunc=3) != S({0: 1}, trunc=4)


class TestDensity:
    def test_half_integer_weights(self):
        for w in (F(3, 2), F(5, 2), F(-7, 2), F(-4), 3):
            assert Density(Z, w).weight == w
        assert type(Density(Z, 3).weight) is F
        for w in (F(1, 3), F(3, 4), F(-1, 6)):
            with pytest.raises(PreconditionError, match="is not a half-integer"):
                Density(Z, w)

    def test_weights_add_under_mul(self):
        a = Density(Z, F(1, 2))
        b = Density(1 + Z, F(3, 2))
        assert (a * b).weight == 2

    def test_sum_and_difference(self):
        a, b = Density(Z, F(3, 2)), Density(1 + Z, F(3, 2))
        assert a + b == Density(1 + 2 * Z, F(3, 2))
        assert a - b == Density(LaurentSeries.constant(-1), F(3, 2))
        with pytest.raises(PreconditionError, match="weights 3/2 and 2"):
            a - Density(Z, 2)

    def test_add_requires_equal_weight(self):
        with pytest.raises(PreconditionError):
            Density(Z, 1) + Density(Z, 2)

    def test_scalar_action(self):
        d = 3 * Density(Z, 1)
        assert d.series == LaurentSeries.monomial(3, 1) and d.weight == 1


# -- the int-over-denominator representation, against Fraction references -------

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)
RATS = st.one_of(st.just(F(0)), st.fractions(min_value=-9, max_value=9, max_denominator=12))


@st.composite
def raw_series(draw, min_len=0):
    """(val, coeffs, trunc) with zeros anywhere: exact and truncated, zeros included."""
    val = draw(st.integers(-5, 5))
    cs = draw(st.lists(RATS, min_size=min_len, max_size=7))
    trunc = draw(st.one_of(st.none(), st.integers(val - 2, val + len(cs) + 3)))
    return val, cs, trunc


def canon(val, cs, trunc):
    """(val, coeffs, trunc) as exposed: cut and zero-padded to trunc, zeros stripped."""
    cs = list(cs)
    if trunc is not None:
        cs = cs[: max(0, trunc - val)]
        cs += [F(0)] * (trunc - val - len(cs))
    while cs and cs[0] == 0:
        cs.pop(0)
        val += 1
    if trunc is None:
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            val = 0
    elif not cs:
        val = trunc
    return val, tuple(cs), trunc


def build(raw):
    return LaurentSeries(*raw), canon(*raw)


def key(s):
    return (s.val, s.nums, s.den, s.trunc)


def check(s, ref):
    """s is in canonical form and shows exactly the reference (val, coeffs, trunc)."""
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    assert all(type(x) is int for x in s.nums)
    if s.nums:
        assert s.nums[0] != 0 and s.nums[-1] != 0
        assert s.trunc is None or s.val + len(s.nums) <= s.trunc
    else:
        assert s.den == 1
    assert (s.val, s.coeffs, s.trunc) == ref


def is_exact_zero(r):
    return not r[1] and r[2] is None


def ref_truncate(r, t):
    val, cs, trunc = r
    new = t if trunc is None else (trunc if t is None else min(trunc, t))
    return r if new == trunc else canon(val, cs, new)


def ref_add(a, b):
    ta, tb = a[2], b[2]
    t = ta if tb is None else (tb if ta is None else min(ta, tb))
    if is_exact_zero(a):
        return ref_truncate(b, t)
    if is_exact_zero(b):
        return ref_truncate(a, t)
    terms = {}
    for val, cs, _ in (a, b):
        for i, c in enumerate(cs):
            terms[val + i] = terms.get(val + i, F(0)) + c
    lo = min(a[0], b[0])
    hi = max(a[0] + len(a[1]), b[0] + len(b[1]))
    if t is not None:
        hi = min(hi, t)
    return canon(lo, [terms.get(k, F(0)) for k in range(lo, hi)], t)


def ref_neg(a):
    return canon(a[0], [-c for c in a[1]], a[2])


def ref_scale(a, c):
    return (0, (), None) if c == 0 else canon(a[0], [c * x for x in a[1]], a[2])


def ref_inverse(a, trunc):
    """The (val, coeffs, trunc) of a^-1 by the Fraction recurrence a_0 b_k = -sum a_j b_(k-j)."""
    val, cs, t = a
    if all(c == 0 for c in cs[1:]):
        if t is None:
            return canon(-val, [1 / cs[0]], None)
        return ref_truncate(canon(-val, [1 / cs[0]], t - 2 * val), trunc)
    if t is None:
        rel = trunc + val
    else:
        rel = t - val if trunc is None else min(t - val, trunc + val)
    n = max(rel, 0)
    a_ = [cs[i] if i < len(cs) else F(0) for i in range(n)]
    out = []
    for k in range(n):
        s = F(1 if k == 0 else 0) - sum((out[j] * a_[k - j] for j in range(k)), F(0))
        out.append(s / a_[0])
    return canon(-val, out, -val + n)


class TestIntegerRepresentation:
    @SETTINGS
    @given(raw_series())
    def test_constructor_and_coeffs_view(self, raw):
        s, ref = build(raw)
        check(s, ref)
        assert s.terms() == {s.val + i: c for i, c in enumerate(ref[1]) if c}

    @SETTINGS
    @given(raw_series(), raw_series())
    def test_sum_difference_negation(self, ra, rb):
        (a, ra), (b, rb) = build(ra), build(rb)
        check(a + b, ref_add(ra, rb))
        check(a - b, ref_add(ra, ref_neg(rb)))
        check(-a, ref_neg(ra))

    @SETTINGS
    @given(raw_series(), raw_series(), RATS)
    @example((0, [], None), (1, [F(1, 2), F(-3, 4)], None), F(0))  # exact zeros
    @example((2, [F(5, 6)], 4), (0, [], None), F(1, 3))
    @example((0, [], 3), (1, [F(2, 9), F(1, 4)], 6), F(-2))  # truncated zeros
    @example((-1, [F(1, 2), 0, F(7, 5)], 5), (-1, [F(1, 2), 0, F(7, 5)], None), F(1, 2))
    @example((0, [F(1, 3), F(1, 4)], None), (0, [F(1, 3), F(1, 4)], None), F(1, 3))
    def test_difference_is_the_sum_with_the_negation(self, ra, rb, c):
        a, b, k = LaurentSeries(*ra), LaurentSeries(*rb), LaurentSeries.constant(c)
        assert key(a - b) == key(a + (-b))
        assert key(c - a) == key(k + (-a))
        assert key(a - c) == key(a + (-k))

    @SETTINGS
    @given(raw_series(), st.fractions(min_value=-9, max_value=9, max_denominator=12))
    def test_scalar_product_and_quotient(self, ra, c):
        a, ra = build(ra)
        check(a * c, ref_scale(ra, c))
        check(c * a, ref_scale(ra, c))
        check(a * c.numerator, ref_scale(ra, F(c.numerator)))
        if c:
            check(a / c, ref_scale(ra, 1 / c))

    @SETTINGS
    @given(raw_series(), raw_series())
    def test_series_product(self, ra, rb):
        (a, ra), (b, rb) = build(ra), build(rb)
        check(a * b, naive_product(a, b))

    @SETTINGS
    @given(raw_series(), st.integers(0, 4))
    @example((2, [F(3), F(-1, 2)], None), 3)  # exact
    @example((-3, [F(1, 2), F(0), F(5)], 4), 2)  # truncated, negative valuation
    @example((0, [], 3), 2)  # truncated zero
    @example((-2, [F(1)], None), 4)  # exact monomial of negative valuation
    def test_product_with_exact_one(self, ra, k):
        # an exact 1 on either side, as a series, an int or a Fraction, and the
        # exact 1 that x**k starts from, against the Fraction double loop
        a, _ = build(ra)
        one = LaurentSeries.one()
        ref = naive_product(a, one)
        for got in (a * one, one * a, a * 1, 1 * a, a * F(1), F(1) * a):
            check(got, ref)
            assert key(got) == key(LaurentSeries(*ref))
        # a truncated 1 is not the exact 1: it still bounds the certified order
        one_t = LaurentSeries.one(2)
        check(a * one_t, naive_product(a, one_t))
        check(one_t * a, naive_product(one_t, a))
        power = LaurentSeries.one()
        for _ in range(k):
            power = LaurentSeries(*naive_product(power, a))
        check(a**k, (power.val, power.coeffs, power.trunc))
        assert key(a**k) == key(power)

    @SETTINGS
    @given(raw_series(min_len=1), st.one_of(st.none(), st.integers(-6, 12)))
    def test_inverse(self, ra, trunc):
        a, ra = build(ra)
        if a.is_zero():
            with pytest.raises((ZeroDivisionError, InsufficientTruncationError)):
                a.inverse(trunc)
        elif a.is_exact() and not a.is_monomial() and trunc is None:
            with pytest.raises(InsufficientTruncationError):
                a.inverse(trunc)
        else:
            check(a.inverse(trunc), ref_inverse(ra, trunc))

    @SETTINGS
    @given(raw_series(), st.integers(-4, 4), st.one_of(st.none(), st.integers(-6, 12)))
    def test_derivative_shift_truncate(self, ra, k, t):
        a, ra = build(ra)
        val, cs, trunc = ra
        check(a.derivative(),
              canon(val - 1, [(val + i) * c for i, c in enumerate(cs)], None if trunc is None else trunc - 1))
        check(a.shift(k), canon(val + k, cs, None if trunc is None else trunc + k))
        check(a.truncate(t), ref_truncate(ra, t))

    @pytest.mark.parametrize("terms", [
        {0: F(-3, 2), 1: 2, 2: F(-1, 3), 5: F(7, 4)},
        {0: 5, 1: F(1, 6), 3: -2, 4: F(9, 11)},
        {-2: F(2, 3), -1: 1, 1: F(-5, 7)},
        # 44 dense terms under a negative leading coefficient: the scales a_0^k alternate in sign
        {-3: F(-3, 2), **{k: F((7 * k) % 11 - 5, k % 4 + 1) for k in range(-2, 41)}},
    ])
    def test_inverse_matches_sympy(self, terms):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        v = min(terms)
        n = max(32, len(terms))
        unit = sum(sympy.Rational(c.numerator, c.denominator) * x ** (k - v) for k, c in terms.items())
        # the inverse of the unit in Q[x]/(x^n), by sympy's extended Euclidean algorithm
        ref = sympy.expand(sympy.invert(unit, x**n, x))
        expected = []
        for k in range(n):
            c = ref.coeff(x, k)
            assert c.is_Rational
            expected.append(F(int(c.p), int(c.q)))
        want = LaurentSeries(-v, expected, n - v)
        assert S(terms).inverse(trunc=n - v) == want
        assert S(terms, trunc=v + n).inverse() == want


# -- the fraction-free power recurrence, against a plain Fraction Miller loop ----

POWER_EXPS = [F(1, 2), F(-1, 3), F(2, 3), F(4, 3), F(-5, 2)]
NONZERO = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)


def miller(eps, e, n):
    """g_0..g_(n-1) of (1 + sum_j eps[j] x^j)^e: g_k = (1/k) sum ((e+1) j - k) eps_j g_(k-j)."""
    eps = list(eps[:n]) + [F(0)] * (n - len(eps))
    g = [F(1)]
    for k in range(1, n):
        g.append(sum((((e + 1) * j - k) * eps[j] * g[k - j] for j in range(1, k + 1)), F(0)) / k)
    return g


def ref_power(val, cs, t, e, root, trunc=None):
    """(val, coeffs, trunc) of the power e of val + cs (certified below t), root = cs[0]^e."""
    ve = int(e * val)
    if t is None:
        if not any(cs[1:]):
            return canon(ve, [root], None)
        rel = trunc - ve
    else:
        rel = t - val if trunc is None else min(t - val, trunc - ve)
    if rel <= 0:
        return canon(ve, [], ve)
    g = miller([c / cs[0] for c in cs], e, rel)
    return canon(ve, [root * x for x in g], ve + rel)


@st.composite
def power_case(draw):
    """(e, root, val, coeffs, trunc of the input, trunc argument) over every input shape."""
    e = draw(st.sampled_from(POWER_EXPS))
    q = e.denominator
    rho = draw(st.sampled_from([F(1), F(2, 3), F(-2), F(3, 5)]))
    lead = rho**q
    root = (rho if q % 2 else abs(rho)) ** e.numerator
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):  # sparse: most eps_j are zero
        support = draw(st.dictionaries(st.integers(1, 63), NONZERO, max_size=4))
        cs = [support.get(k, F(0)) for k in range(1, n)]
    else:
        cs = draw(st.lists(RATS, min_size=n - 1, max_size=n - 1))
    val = q * draw(st.integers(-2, 2))
    shape = draw(st.sampled_from(["truncated", "short", "exact", "trunc-arg"]))
    trunc, arg = val + n, None
    if shape == "short":  # rel_prec past the stored nums: the tail is certified zero
        cs = cs[: draw(st.integers(0, n - 1))]
    elif shape == "exact":
        trunc, arg = None, int(e * val) + n
    elif shape == "trunc-arg":
        arg = int(e * val) + draw(st.integers(-2, n + 3))
    return e, root, val, [lead] + cs, trunc, arg


class TestFractionFreePower:
    @SETTINGS
    @given(power_case())
    def test_matches_fraction_miller(self, case):
        e, root, val, cs, trunc, arg = case
        got = LaurentSeries(val, cs, trunc).power_rational(e, arg)
        check(got, ref_power(val, cs, trunc, e, root, arg))

    @pytest.mark.parametrize("e", POWER_EXPS)
    def test_dense_64_orders(self, e):
        rng = random.Random(64)
        cs = [F(1)] + [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(63)]
        check(LaurentSeries(0, cs, 64).power_rational(e), ref_power(0, cs, 64, e, F(1)))

    @pytest.mark.parametrize("lead, e, root", [(F(1), F(1, 2), F(1)), (F(4, 9), F(1, 2), F(2, 3)),
                                               (F(-8), F(1, 3), F(-2)), (F(-8), F(2, 3), F(4)),
                                               (F(-8), F(-1, 3), F(-1, 2))])
    def test_leading_coefficients(self, lead, e, root):
        # a negative leading numerator makes the scales (q^2 a0)^k alternate in sign
        cs = [lead, F(3), F(0), F(-1, 2), F(0), F(0), F(5, 7)]
        for val in (-3 * e.denominator, 0, 2 * e.denominator):
            got = LaurentSeries(val, cs, val + 20).power_rational(e)
            check(got, ref_power(val, cs, val + 20, e, root))
            assert got.den > 0

    def test_unit_power_scales(self):
        # G_k / S_k are the coefficients of (1 + sum (eps_j / a0) x^j)^e, S_k = (q^2 a0)^k
        eps, a0, e = [3, 0, -2, 7, 0, 1], -5, F(-2, 3)
        G, S = unit_power(eps, e, 1, a0)
        assert S == [(3**2 * a0) ** k for k in range(len(eps) + 1)]
        assert all(type(g) is int for g in G)
        assert [F(g, s) for g, s in zip(G, S)] == miller([F(0)] + [F(x, a0) for x in eps], e, 7)

    @SETTINGS
    @given(st.sampled_from([F(-7, 6), F(5, 4), F(4, 9), F(-1, 3), F(5, 2), F(-1), F(-3), F(2)]),
           st.lists(st.one_of(st.just(0), st.integers(-30, 30)), max_size=24),
           st.integers(1, 12), st.booleans())
    def test_scaled_coefficients_are_integers(self, e, eps, a, negative):
        # k G_k = sum ((p+q) j - q k) U_j G_(k-j), U_j = eps_j q^(2j-1) a0^(j-1), recomputed
        # here from the returned G: the sum must be a multiple of k, for every a0 sign
        a0 = -a if negative else a
        p, q = e.numerator, e.denominator
        G, S = unit_power(eps, e, 1, a0)
        assert all(type(g) is int for g in G)
        U = [x * q ** (2 * j - 1) * a0 ** (j - 1) for j, x in enumerate(eps, 1)]
        for k in range(1, len(eps) + 1):
            total = sum(((p + q) * j - q * k) * U[j - 1] * G[k - j] for j in range(1, k + 1))
            assert total % k == 0 and total // k == G[k]
        assert S == [(q * q * a0) ** k for k in range(len(eps) + 1)]
        n = len(eps) + 1
        assert [F(g, s) for g, s in zip(G, S)] == miller([F(0)] + [F(x, a0) for x in eps], e, n)


# -- the packed integer kernels, against loops written here ------------------------


def schoolbook(a, b, n):
    """The first n coefficients of the product of two int lists, term by term."""
    out = [0] * n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < n:
                out[i + j] += x * y
    return out


@st.composite
def kernel_int(draw):
    """0 or a signed integer of 1 to 300 bits."""
    bits = draw(st.integers(0, 300))
    if bits == 0:
        return 0
    x = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    return -x if draw(st.booleans()) else x


KERNEL = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def dot_factor(draw):
    """(val, coeffs, trunc): any raw series, a monomial, or wide coefficients over a mixed denominator."""
    kind = draw(st.sampled_from(["raw", "monomial", "wide"]))
    if kind == "raw":
        return draw(raw_series())
    val = draw(st.integers(-5, 5))
    if kind == "monomial":
        cs = [draw(NONZERO)]
    else:
        den = draw(st.sampled_from([1, 6, 7, 1 << 65]))
        cs = [F(x, den) for x in draw(st.lists(kernel_int(), min_size=1, max_size=8))]
    trunc = draw(st.one_of(st.none(), st.integers(val - 1, val + len(cs) + 3)))
    return val, cs, trunc


def dot_weight():
    """0, small signed rationals, and wide ints and fractions that widen the packed slots:
    up to 10^30 over a one-digit denominator, and up to 300 bits over up to 200 bits."""
    return st.one_of(st.just(0), st.integers(-9, 9), RATS, kernel_int(),
                     st.builds(F, st.integers(-10**30, 10**30), st.integers(1, 9)),
                     st.builds(F, kernel_int(), st.integers(1, 1 << 200)))


def per_slot(c, kb, n):
    """The first n signed kb-byte slots of c, read one at a time, each borrow carried up."""
    k, out = 8 * kb, []
    for _ in range(n):
        x = c & ((1 << k) - 1)
        if x >> (k - 1):
            x -= 1 << k
        out.append(x)
        c = (c - x) >> k
    return out


class TestPackedKernels:
    @KERNEL
    @given(st.lists(kernel_int(), max_size=40), st.lists(kernel_int(), max_size=40), st.data())
    def test_convolve_matches_schoolbook(self, a, b, data):
        # n runs from 0 past the full length len(a) + len(b) - 1
        n = data.draw(st.integers(0, len(a) + len(b) + 3))
        assert _convolve(tuple(a), tuple(b), n) == schoolbook(a, b, n)

    @pytest.mark.parametrize("bits", [1, 2, 7, 8, 9, 63, 64, 65, 300])
    def test_convolve_fills_its_slots(self, bits):
        # every product term at the largest magnitude and one sign: the
        # coefficients reach the bound the slot width is sized for
        top = (1 << bits) - 1
        for n in (1, 4, 5, 17, 64):
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a, b = [sa * top] * n, [sb * top] * n
                for cut in (0, n, 2 * n - 1, 2 * n + 2):
                    assert _convolve(a, b, cut) == schoolbook(a, b, cut)
        assert _convolve([], [5, 6], 3) == [0, 0, 0]

    def test_unpack_matches_per_slot_reads(self):
        # every width, the C-speed reads of 1, 2, 4 and 8 bytes and the slot-by-slot
        # rest, with slots at the largest magnitude of either sign, and slots
        # above n that the read must mask off
        rng = random.Random(11)
        for kb in range(1, 13):
            top = (1 << (8 * kb - 1)) - 1
            for n in range(1, 41):
                slots = [rng.choice([top, -top, 0, 1, -1, rng.randint(-top, top)])
                         for _ in range(n + rng.randint(0, 3))]
                c = sum(x << (8 * kb * i) for i, x in enumerate(slots))
                assert _unpack(c, kb, n) == per_slot(c, kb, n) == slots[:n]

    def test_slot_widths_fit_and_round_up(self):
        for bits in range(0, 160):
            for bound in ((1 << bits) - 1, 1 << bits):
                kb, least = _slot_bytes(bound), bound.bit_length() // 8 + 1
                assert bound < 1 << (8 * kb - 1)
                if sys.byteorder == "little" and least <= 8:
                    assert kb == min(w for w in (1, 2, 4, 8) if w >= least)
                else:
                    assert kb == least

    @SETTINGS
    @given(st.lists(st.tuples(raw_series(), raw_series()), max_size=6))
    def test_dot_matches_sum_of_products(self, raws):
        pairs, ref = [], (0, (), None)
        for ra, rb in raws:
            (a, _), (b, _) = build(ra), build(rb)
            pairs.append((a, b))
            ref = ref_add(ref, naive_product(a, b))
        check(dot(pairs), ref)

    @SETTINGS
    @given(st.lists(st.tuples(dot_factor(), dot_factor(), dot_weight()), max_size=6))
    # opposite weights on opposite products: the slot bound must add |w|, not w,
    # or the two terms cancel in the bound while their sum is 2 w x y
    @example([((0, [F(3)] * 6, None), (0, [F(5)] * 6, None), F(1 << 90)),
              ((0, [F(3)] * 6, None), (0, [F(-5)] * 6, None), -F(1 << 90))])
    # monomial factors only: the first scaled factor reaches past the order
    # the second term certifies, and must be cut there, not written past it
    @example([((1, [F(2, 3)], None), (0, [F(1), F(2), F(3), F(4), F(5)], None), 1),
              ((0, [F(-1)], 3), (1, [F(7)], None), F(1, 2))])
    # 40-digit factors over mixed denominators at weights near 10^30 over one
    # digit: the packed slots run past 8 bytes, and a monomial term rides along
    @example([((0, [F(10**40 - 1, 7), F(-10**39), F(3, 12)], None),
               (1, [F(3 - 10**40, 35), F(10**38, 2)], 6), F(10**30 - 7, 9)),
              ((-1, [F(10**40, 3)] * 5, None), (2, [F(-5, 12), F(10**40 - 1)], None), F(-10**30, 7)),
              ((0, [F(10**40 + 1, 5)], 4), (0, [F(1), F(-2), F(10**35, 3)], None), F(10**30, 1))])
    def test_weighted_dot_matches_scaled_sum(self, cases):
        # sum w * (x * y) built left to right by __mul__ and __add__
        pairs, weights, ref = [], [], LaurentSeries.zero()
        for ra, rb, w in cases:
            a, b = LaurentSeries(*ra), LaurentSeries(*rb)
            pairs.append((a, b))
            weights.append(w)
            ref = ref + w * (a * b)
        got = dot(pairs, weights)
        assert key(got) == key(ref)
        assert all(type(x) is int for x in got.nums)



# -- long series: the pack rule, squares and the one-dot recurrence ----------------


def signed_ints(rng, n, bits):
    """n nonzero signed integers of up to `bits` bits, mixed signs."""
    return [rng.choice((1, -1)) * (rng.getrandbits(bits) | 1) for _ in range(n)]


class TestLongSeries:
    def test_pack_matches_the_shift_loop_on_both_sides_of_its_rule(self):
        # every slot width the kernels read, 3 and 9 bytes among them, slots
        # at the largest magnitude of either sign, 0 and +-1
        rng = random.Random(14)
        sides = set()
        for kb in (1, 2, 3, 4, 8, 9, 86):
            top = (1 << (8 * kb - 1)) - 1
            for n in range(201):
                xs = [rng.choice([top, -top, 0, 1, -1, rng.randint(-top, top)]) for _ in range(n)]
                sides.add(n * n * kb >= _PACK_BYTES)
                assert _pack(xs, kb) == pack_by_shifts(xs, kb), (kb, n)
        assert sides == {False, True}

    def test_squares_match_the_general_product(self):
        # a list times itself packs once; a distinct list of the same length
        # and wider coefficients must still take the general product
        rng = random.Random(15)
        for n in (4, 5, 17, 40, 90, 150):
            for bits in (1, 8, 64, 300, 700):
                a = tuple(signed_ints(rng, n, bits))
                b = tuple(signed_ints(rng, n, bits + 40))
                for cut in (0, 1, n, 2 * n - 1, 2 * n + 2):
                    want = schoolbook(a, a, cut)
                    assert _convolve(a, a, cut) == _convolve(a, list(a), cut) == want
                    assert _convolve(a, b, cut) == _convolve(b, a, cut) == schoolbook(a, b, cut)

    def test_series_squares_and_powers(self):
        rng = random.Random(16)
        for n in (3, 4, 12, 60, 140):
            for trunc in (None, n + 5):
                cs = [F(c, rng.randint(1, 30)) for c in signed_ints(rng, n, 90)]
                x = LaurentSeries(-2, cs, trunc)
                y = LaurentSeries(x.val, x.coeffs, x.trunc)  # equal, with its own nums
                assert y == x and y.nums is not x.nums
                assert x * x == x * y
                assert x ** 3 == x * y * y
                assert x ** 4 == (x * y) * (y * y)

    @pytest.mark.parametrize("e", [F(-1), F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(2, 3),
                                   F(3, 2), F(-4, 3), F(5, 2)])
    def test_unit_power_matches_the_two_dot_recurrence(self, e):
        rng = random.Random(str(e))
        for n in list(range(13)) + [20, 41, 80, 160]:
            for a0 in ((2, -1, -12) if n > 20 else (2, -1, 3, -7, 12)):
                eps = [rng.randint(-9, 9) for _ in range(n)]
                if n and rng.random() < 0.5:  # trailing zero eps: the dot stops early
                    cut = rng.randint(0, n - 1)
                    eps[cut:] = [0] * (n - cut)
                one = rng.choice((1, -5))
                assert unit_power(eps, e, one, a0) == unit_power_two_dots(eps, e, one, a0), (n, a0)
