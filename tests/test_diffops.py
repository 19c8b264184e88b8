"""Differential operators, symbol calculus, residues, pairings, kernels.

Composition is checked against the action on densities (which uses only
multiplication and d/dz), the Gram determinants against a from-scratch
Laplace expansion, and the commutator formulas against hand-expanded
products recorded inline.  The packed symbol calculus is compared, == on
every (val, nums, den, trunc) and error, with a term-by-term Leibniz loop
kept here as the reference, and its outputs are pinned by a digest.
"""

import hashlib
import random
from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from opercalc.diffops import (
    DiffOp,
    PseudoSymbol,
    compose,
    diffop_from_kernel,
    kernel_from_diffop,
    lie_action,
    lie_derivative,
    pairing,
    pseudo_invert,
    res,
    symbols,
    to_plain,
    transpose,
    transpose_symbol,
)
from opercalc.dictionary import flag_gram, verify_flag_pairing
from opercalc.errors import InsufficientTruncationError, PreconditionError
from opercalc.series import Density, LaurentSeries, is_exact_zero
from oracles import inverse_calls

Z = LaurentSeries.monomial(1, 1)
ONE = LaurentSeries.one()
ZERO = LaurentSeries.zero()


def det_oracle(rows):
    """Laplace expansion along the first row; exact and independent."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sgn = -1 if j % 2 else 1
        total += sgn * rows[0][j] * det_oracle(minor)
    return total


def rnd_series(rng, lo=0, hi=4):
    terms = {k: F(rng.randint(-4, 4), rng.randint(1, 3)) for k in range(lo, hi)}
    return LaurentSeries.from_terms(terms)


def rnd_op(rng, order, src, tgt, planck=1, unit_lead=False):
    coeffs = {i: rnd_series(rng) for i in range(order)}
    lead = LaurentSeries.constant(rng.choice([1, 2, -1])) if unit_lead \
        else rnd_series(rng) + LaurentSeries.constant(5)
    coeffs[order] = lead
    return DiffOp(order, src, tgt, planck, [coeffs[i] for i in range(order + 1)])


def d_power(n, src, tgt, planck=1):
    return DiffOp.from_map({n: ONE}, src, tgt, planck)


def identity_window(sym):
    """The tracked coefficients of a symbol match the identity operator."""
    ok = sym.coeffs.get(0, ZERO).agrees(ONE)
    for i in range(sym.floor, sym.top + 1):
        if i != 0:
            ok = ok and sym.coeffs.get(i, ZERO).is_zero()
    return ok


ORACLE = settings(derandomize=True, database=None, max_examples=60, deadline=None)
PLANCKS = st.sampled_from([F(1), F(1, 2), F(0)])
RATS = sorted({F(p, q) for p in range(-4, 5) for q in (1, 2, 3, 6)})
NONZERO = [c for c in RATS if c]


@st.composite
def st_series(draw, lead=False, unit=False):
    """Exact or truncated, mixed denominators, zeros included.

    lead: a certified nonzero first coefficient; unit: that coefficient is the constant term.
    """
    val = 0 if unit else draw(st.integers(-1, 2))
    cs = draw(st.lists(st.sampled_from(RATS), max_size=4))
    if lead or unit:
        cs = [draw(st.sampled_from(NONZERO))] + cs
    lo = val + 1 if lead or unit else val - 1
    return LaurentSeries(val, cs, draw(st.one_of(st.none(), st.integers(lo, val + 6))))


# -- sums and agreement against per-coefficient loops -------------------------------------

@st.composite
def st_sum_case(draw):
    """(a, b) on one pair of weights and one planck, with b often cancelling a's top order.

    b is drawn free, as a's negated top plus lower terms (an exact or a
    truncated cancellation), as a twin of a cut to lower certified orders,
    or on other weights or another planck.
    """
    h = draw(PLANCKS)
    src = draw(st.sampled_from([F(-1), F(-1, 2), F(0)]))
    tgt = src + draw(st.integers(0, 3))

    def op(n, top=None, weights=(src, tgt), planck=h):
        cs = {i: draw(st_series()) for i in range(n)}
        cs[n] = draw(st_series(lead=True)) if top is None else top
        return DiffOp.from_map(cs, *weights, planck)

    a = op(draw(st.integers(0, 4)))
    mode = draw(st.sampled_from(["free", "cancel", "cancel", "twin", "weights", "planck"]))
    if mode == "free":
        b = op(draw(st.integers(0, 4)))
    elif mode == "cancel":
        top = -a.coeffs[-1]
        if draw(st.booleans()):
            top = top.truncate(top.val + draw(st.integers(0, 3)))
        b = op(a.order, top)
    elif mode == "twin":
        b = DiffOp.from_map({i: c.truncate(c.val + draw(st.integers(-1, 3))) if draw(st.booleans())
                             else c for i, c in enumerate(a.coeffs)}, a.src, a.tgt, h)
    else:
        # a's own coefficients half the time, so that only the weights or planck differ
        weights, planck = (src, tgt), h
        if mode == "weights":
            weights = (src, tgt + draw(st.sampled_from([F(1, 2), 1])))
        else:
            planck = draw(PLANCKS.filter(lambda x: x != h))
        b = DiffOp(a.order, *weights, planck, a.coeffs) if draw(st.booleans()) \
            else op(draw(st.integers(0, 4)), weights=weights, planck=planck)
    return a, b


def ref_linear(a, b, sub):
    """a + b or a - b coefficient by coefficient, trimmed as from_map trims: the
    order is that of the highest coefficient that is not zero to its certified order."""
    if (a.src, a.tgt) != (b.src, b.tgt):
        raise PreconditionError("cannot add operators between different densities")
    if a.planck != b.planck:
        raise PreconditionError("cannot mix distinct planck values")
    cs = [a.coeff(i) - b.coeff(i) if sub else a.coeff(i) + b.coeff(i)
          for i in range(max(a.order, b.order) + 1)]
    order = max((i for i, c in enumerate(cs) if not c.is_zero()), default=0)
    return DiffOp(order, a.src, a.tgt, a.planck, cs[:order + 1])


def ref_agrees(a, b):
    return (a.src, a.tgt, a.planck) == (b.src, b.tgt, b.planck) and all(
        a.coeff(i).agrees(b.coeff(i)) for i in range(max(a.order, b.order) + 1))


class TestDiffOpBasics:
    def test_constructor_checks_lengths_and_lead(self):
        with pytest.raises(PreconditionError):
            DiffOp(2, 0, 0, 1, [ONE, ONE])
        with pytest.raises(PreconditionError):
            DiffOp(1, 0, 0, 1, [Z, ZERO])

    def test_float_planck_rejected(self):
        with pytest.raises(TypeError):
            DiffOp.from_map({0: ONE}, 0, 0, planck=0.5)
        with pytest.raises(TypeError):
            PseudoSymbol(0, -2, 0, 0, 0.5, {0: ONE})

    def test_from_map_trims_zero_lead(self):
        L = DiffOp.from_map({3: ZERO, 1: Z, 0: ONE}, 0, 1)
        assert L.order == 1
        assert L.coeff(1) == Z and L.coeff(5) == ZERO

    def test_zero_operator(self):
        L = DiffOp.from_map({}, 0, 0)
        assert L.order == 0 and L.is_zero()

    def test_principal_symbol_weight(self):
        L = d_power(3, F(-1, 2), F(5, 2))
        s = L.principal_symbol()
        assert s.weight == F(5, 2) - F(-1, 2) - 3 and s.series == ONE

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st_sum_case())
    def test_linear_structure(self, case):
        a, b = case
        for x, y in ((a, b), (b, a)):
            assert outcome(lambda: x + y) == outcome(ref_linear, x, y, False)
            assert outcome(lambda: x - y) == outcome(ref_linear, x, y, True)
            assert x.agrees(y) == ref_agrees(x, y)
            exact = all(c.is_exact() for c in x.coeffs + y.coeffs)
            if exact and (x.src, x.tgt, x.planck) == (y.src, y.tgt, y.planck):
                # not with truncated ones: from_map drops a truncated-zero top order as exact
                assert (x + y - x).agrees(y)
        assert a.agrees(a) and (2 * a).coeffs == tuple(2 * c for c in a.coeffs)

    def test_apply_weight_check(self):
        L = d_power(1, 0, 1)
        with pytest.raises(PreconditionError):
            L.apply(Density(Z, 1))
        out = L.apply(Density(Z * Z, 0))
        assert out.weight == 1 and out.series == 2 * Z


class TestCompose:
    def test_ring_relation(self):
        # D . z = z D + h
        for h in (1, F(1, 2)):
            D = d_power(1, 0, 0, h)
            zmul = DiffOp.from_map({0: Z}, 0, 0, h)
            out = compose(D, zmul)
            assert out.coeff(1) == Z and out.coeff(0) == LaurentSeries.constant(h)

    def test_planck_zero_is_commutative(self):
        rng = random.Random(11)
        f = DiffOp.from_map({0: rnd_series(rng)}, 0, 0, 0)
        D = d_power(2, 0, 0, 0)
        assert compose(D, f).agrees(compose(f, D))

    def test_against_action_on_densities(self):
        rng = random.Random(13)
        for h in (1, F(1, 2), 0):
            for _ in range(12):
                L = rnd_op(rng, rng.randint(0, 3), 1, 2, h)
                M = rnd_op(rng, rng.randint(0, 3), 0, 1, h)
                phi = Density(rnd_series(rng, 0, 6), 0)
                lhs = compose(L, M).apply(phi)
                rhs = L.apply(M.apply(phi))
                assert lhs.agrees(rhs)

    def test_associative(self):
        rng = random.Random(17)
        for _ in range(8):
            L = rnd_op(rng, 2, 2, 3)
            M = rnd_op(rng, 1, 1, 2)
            N = rnd_op(rng, 2, 0, 1)
            assert compose(compose(L, M), N).agrees(compose(L, compose(M, N)))

    def test_weights_must_chain(self):
        with pytest.raises(PreconditionError):
            compose(d_power(1, 0, 1), d_power(1, 0, 2))
        with pytest.raises(PreconditionError):
            compose(d_power(1, 0, 1, 1), d_power(1, 0, 0, F(1, 2)))


class TestTranspose:
    def test_first_order(self):
        D = d_power(1, F(-1, 2), F(3, 2))
        t = transpose(D)
        assert t.agrees(DiffOp.from_map({1: -ONE}, F(-1, 2), F(3, 2)))
        assert (t.src, t.tgt) == (1 - F(3, 2), 1 - F(-1, 2))

    def test_second_order_by_hand(self):
        # (D^2 + a D + b)^t = D^2 - a D + (b - h a')
        rng = random.Random(19)
        for h in (1, F(1, 3)):
            a, b = rnd_series(rng), rnd_series(rng)
            L = DiffOp.from_map({2: ONE, 1: a, 0: b}, 0, 2, h)
            t = transpose(L)
            assert t.coeff(2) == ONE
            assert t.coeff(1) == -a
            assert t.coeff(0).agrees(b - h * a.derivative())

    def test_involution(self):
        rng = random.Random(23)
        for _ in range(10):
            L = rnd_op(rng, rng.randint(0, 4), F(-1, 2), F(3, 2), F(1, 2))
            assert transpose(transpose(L)).agrees(L)

    def test_antihomomorphism(self):
        rng = random.Random(29)
        for _ in range(10):
            L = rnd_op(rng, 2, 1, 2)
            M = rnd_op(rng, 2, 0, 1)
            assert transpose(compose(L, M)).agrees(
                compose(transpose(M), transpose(L))
            )


class TestTruncatedZeros:
    """A coefficient O(z^k) is unknown from order k on, not zero: it bounds
    what every result built from it certifies."""

    def test_compose_keeps_a_truncated_zero(self):
        D = DiffOp.from_map({1: ONE}, 0, 1)
        out = compose(D, DiffOp.from_map({1: ONE, 0: ZERO.truncate(5)}, -1, 0))
        # D . O(z^5) = O(z^5) D + O(z^4)
        assert [c.trunc for c in out.coeffs] == [4, 5, None]
        assert out.coeffs[2] == ONE and not out.coeffs[0].is_exact()

    def test_transpose_keeps_a_truncated_zero(self):
        out = transpose(DiffOp.from_map({1: ONE, 0: ZERO.truncate(5)}, 0, 1))
        assert [c.trunc for c in out.coeffs] == [5, None]
        assert out.coeffs[1] == -ONE


class TestSymbols:
    def test_principal_and_defect(self):
        rng = random.Random(31)
        a, b = rnd_series(rng), rnd_series(rng)
        L = DiffOp.from_map({2: ONE, 1: a, 0: b}, F(-1, 2), F(3, 2))
        prin, defect = symbols(L)
        assert prin.series == ONE and prin.weight == 0
        assert defect.coeff(1).agrees(2 * a)
        assert defect.coeff(0).agrees(a.derivative())
        assert defect.coeff(2).is_zero()

    def test_defect_detects_subprincipal_term(self):
        u = Z * Z
        L = DiffOp.from_map({2: ONE, 0: u}, F(-1, 2), F(3, 2))
        _, defect = symbols(L)
        assert defect.is_zero()

    def test_odd_order_skew_form(self):
        u = Z
        L = DiffOp.from_map(
            {3: ONE, 1: 4 * u, 0: 2 * u.derivative()}, -1, 2
        )
        _, defect = symbols(L)
        assert defect.is_zero()


class TestPseudoSymbols:
    def test_range_validation(self):
        with pytest.raises(PreconditionError):
            PseudoSymbol(0, 1, 0, 0, 1, {})
        with pytest.raises(PreconditionError):
            PseudoSymbol(0, -2, 0, 0, 1, {-3: ONE})

    def test_negation_difference_and_repr(self):
        s = PseudoSymbol(1, -1, 0, 1, 1, {1: ONE, -1: Z})
        assert repr(s) == "PseudoSymbol[0->1, floor=-1]((1)*D^1 + (z^1)*D^-1)"
        neg = -s
        assert (neg.top, neg.floor, neg.exact_below) == (1, -1, False)
        assert neg.coeffs == {1: -ONE, -1: -Z}
        assert repr(neg) == "PseudoSymbol[0->1, floor=-1]((-1)*D^1 + (-1*z^1)*D^-1)"
        t = PseudoSymbol(0, -2, 0, 1, 1, {0: Z, -2: ONE})
        diff = s - t
        # the unknown tail of t starts at -2, that of s at -1: the difference knows down to -1
        assert (diff.top, diff.floor) == (1, -1)
        assert all(diff.coeff(i) == c for i, c in ((1, ONE), (0, -Z), (-1, Z)))
        assert (s - s).coeffs == {} and repr(s - s) == "PseudoSymbol[0->1, floor=-1](0)"

    def test_floor_access(self):
        s = PseudoSymbol(0, -2, 0, 0, 1, {-1: Z})
        assert s.coeff(-1) == Z and s.coeff(-2).is_zero()
        with pytest.raises(InsufficientTruncationError):
            s.coeff(-3)
        exact = d_power(1, 0, 1).to_symbol()
        assert exact.coeff(-5).is_zero()

    def test_invert_plain_power(self):
        Q = pseudo_invert(d_power(2, F(-1, 2), F(3, 2)), 3)
        assert Q.top == -2 and Q.floor == -5
        assert Q.coeffs == {-2: ONE}

    def test_invert_two_sided(self):
        rng = random.Random(37)
        for _ in range(6):
            n = rng.randint(1, 3)
            L = rnd_op(rng, n, 0, n, unit_lead=True)
            Q = pseudo_invert(L, 4)
            assert identity_window(compose(L, Q))
            assert identity_window(compose(Q, L))

    def test_invert_keeps_truncated_zero_terms(self):
        # D + O(z^5): the D^-2..D^-4 terms vanish only to the order the input
        # certifies, so none of them may come back as an exact zero
        L = DiffOp.from_map({1: ONE, 0: LaurentSeries.zero(5)}, 0, 1)
        Q = pseudo_invert(L, 3)
        assert Q.coeff(-1) == ONE
        for i in (-2, -3, -4):
            c = Q.coeff(i)
            assert c.is_zero() and not c.is_exact() and c.trunc <= 5
        assert identity_window(compose(L, Q))

    def test_invert_needs_unit_lead(self):
        L = DiffOp.from_map({1: Z, 0: ONE}, 0, 1)
        with pytest.raises(PreconditionError):
            pseudo_invert(L, 2)

    def test_invert_exact_lead_needs_truncation(self):
        L = DiffOp.from_map({1: ONE + Z}, 0, 1)
        with pytest.raises(InsufficientTruncationError):
            pseudo_invert(L, 2)
        Q = pseudo_invert(L, 2, trunc=8)
        assert identity_window(compose(L, Q))

    def test_residue(self):
        s = PseudoSymbol(-1, -2, F(3, 2), F(-1, 2), 1, {-1: Z}, False)
        out = res(s)
        assert out.series == Z and out.weight == F(-1, 2) - F(3, 2) + 1
        assert res(d_power(2, 0, 2)).series.is_zero()
        shallow = PseudoSymbol(2, 0, 0, 0, 1, {0: ONE}, False)
        with pytest.raises(InsufficientTruncationError):
            res(shallow)


class TestPairing:
    def test_hill_values(self):
        rng = random.Random(41)
        for _ in range(5):
            u = rnd_series(rng)
            L = DiffOp.from_map({2: ONE, 0: u}, F(-1, 2), F(3, 2))
            one = DiffOp.from_map({0: ONE}, F(-1, 2), F(3, 2))
            D = d_power(1, F(-1, 2), F(3, 2))
            assert pairing(one, D, L) == LaurentSeries.constant(-1)
            assert pairing(one, one, L).is_zero()
            assert pairing(D, one, L) == ONE
            assert pairing(D, D, L).is_zero()

    def test_depth_too_small_refused(self):
        L = d_power(2, F(-1, 2), F(3, 2))
        D = d_power(1, F(-1, 2), F(3, 2))
        with pytest.raises(InsufficientTruncationError):
            pairing(D, D, L, depth=0)

    def test_right_slot_must_be_an_operator(self):
        L = d_power(2, F(-1, 2), F(3, 2))
        D = d_power(1, F(-1, 2), F(3, 2))
        with pytest.raises(PreconditionError, match="right slot"):
            pairing(D, pseudo_invert(L, 1), L)

    def test_negative_depth_refused(self):
        with pytest.raises(PreconditionError, match="depth must be nonnegative"):
            pseudo_invert(d_power(2, F(-1, 2), F(3, 2)), -1)

    def gram(self, n):
        L = d_power(n, F(1 - n, 2), F(1 + n, 2))
        basis = [d_power(i, F(1 - n, 2), F(1 + n, 2)) for i in range(n)]
        rows = []
        for u in basis:
            row = []
            for v in basis:
                val = pairing(u, v, L)
                assert val.is_exact() and (val.is_zero() or val.is_monomial())
                row.append(val.coeff(0))
            rows.append(row)
        return rows

    def test_gram_antidiagonal_pattern(self):
        rows = self.gram(3)
        for i in range(3):
            for j in range(3):
                want = F((-1) ** j) if i + j == 2 else F(0)
                assert rows[i][j] == want

    def test_gram_determinant_is_one_for_odd_order(self):
        assert det_oracle(self.gram(3)) == 1
        assert det_oracle(self.gram(5)) == 1


class TestLieDerivative:
    def test_action_requires_vector_field(self):
        with pytest.raises(PreconditionError):
            lie_action(Density(Z, 1), 0)
        with pytest.raises(PreconditionError):
            lie_action(Density(Z, -1), 0, planck=0)

    def test_second_order_flat_case(self):
        # [v, D^2] = g'''/2 between the weights of a square root
        rng = random.Random(43)
        g = rnd_series(rng, 0, 6)
        L = d_power(2, F(-1, 2), F(3, 2))
        out = lie_derivative(L, Density(g, -1))
        ddd = g.derivative().derivative().derivative()
        assert out.agrees(DiffOp.from_map({0: F(1, 2) * ddd}, F(-1, 2), F(3, 2)))

    def test_second_order_with_potential(self):
        # [v, D^2 + u] = 2 u g' + u' g + g'''/2, expanded by hand
        rng = random.Random(47)
        for _ in range(6):
            u, g = rnd_series(rng, 0, 5), rnd_series(rng, 0, 5)
            L = DiffOp.from_map({2: ONE, 0: u}, F(-1, 2), F(3, 2))
            out = lie_derivative(L, Density(g, -1))
            want = (2 * u * g.derivative() + u.derivative() * g
                    + F(1, 2) * g.derivative().derivative().derivative())
            assert out.agrees(DiffOp.from_map({0: want}, F(-1, 2), F(3, 2)))

    def test_leibniz_over_composition(self):
        rng = random.Random(53)
        for h in (1, F(1, 2)):
            v = Density(rnd_series(rng, 0, 5), -1)
            L = rnd_op(rng, 2, 1, 2, h)
            M = rnd_op(rng, 1, 0, 1, h)
            lhs = lie_derivative(compose(L, M), v)
            rhs = compose(lie_derivative(L, v), M) + compose(L, lie_derivative(M, v))
            assert lhs.agrees(rhs)


class TestKernels:
    def test_second_order_kernel_values(self):
        rng = random.Random(59)
        u = rnd_series(rng, 0, 6)
        L = DiffOp.from_map({2: ONE, 0: u}, F(-1, 2), F(3, 2))
        K = kernel_from_diffop(L)
        assert K.weights() == (F(3, 2), F(3, 2))
        assert (K.mmin, K.mmax) == (-3, -1)
        assert K.coeff(-3) == ONE
        assert K.coeff(-2).is_zero()
        assert K.coeff(-1).agrees(F(1, 2) * u)
        lifted = K.symmetrize_lift(-1, 1)
        assert lifted.coeff(0).agrees(F(1, 4) * u.derivative())

    def test_third_order_kernel_values(self):
        rng = random.Random(61)
        u = rnd_series(rng, 0, 6)
        L = DiffOp.from_map(
            {3: ONE, 1: 4 * u, 0: 2 * u.derivative()}, -1, 2
        )
        K = kernel_from_diffop(L)
        assert K.weights() == (2, 2)
        assert K.coeff(-4) == ONE
        assert K.coeff(-3).is_zero()
        assert K.coeff(-2).agrees(F(2, 3) * u)
        assert K.coeff(-1).agrees(F(1, 3) * u.derivative())
        K.symmetrize_lift(1, 1)  # symmetric across the diagonal

    def test_round_trip(self):
        rng = random.Random(67)
        for h in (1, F(1, 3)):
            for _ in range(6):
                L = rnd_op(rng, rng.randint(1, 4), F(-1, 2), F(3, 2), h)
                back = diffop_from_kernel(kernel_from_diffop(L))
                assert back.agrees(to_plain(L))

    def test_swap_matches_negated_transpose(self):
        rng = random.Random(71)
        for _ in range(6):
            L = rnd_op(rng, 3, F(-1, 2), F(3, 2))
            lhs = kernel_from_diffop(L).swap()
            rhs = kernel_from_diffop(-transpose(L))
            assert lhs.agrees(rhs)

    def test_kernel_range_check(self):
        from opercalc.kernels import BiKernel

        with pytest.raises(PreconditionError):
            diffop_from_kernel(BiKernel(1, 1, -2, 0, {-2: ONE}))

    def test_to_plain_is_a_morphism(self):
        rng = random.Random(73)
        h = F(2, 3)
        L = rnd_op(rng, 2, 1, 2, h)
        M = rnd_op(rng, 2, 0, 1, h)
        assert to_plain(compose(L, M)).agrees(compose(to_plain(L), to_plain(M)))

    def test_to_plain_at_zero_keeps_multiplication_part(self):
        L = DiffOp.from_map({2: ONE, 0: Z}, 0, 0, 0)
        flat = to_plain(L)
        assert flat.order == 0 and flat.coeff(0) == Z


# -- the packed symbol calculus against a term-by-term Leibniz loop ---------------------

def ref_binom(i, k):
    num = 1
    for t in range(k):
        num *= i - t
    return F(num, factorial(k))


def ref_shifted(i, g, h, floor):
    """Normal form of D^i g as {i - k: binom(i,k) h^k g^(k)}, down to the floor."""
    out = {}
    gk = g
    hk = F(1)
    for k in range(0, i - floor + 1):
        c = ref_binom(i, k)
        if c == 0:
            break  # nonnegative i: the sum is finite
        if not is_exact_zero(gk):
            out[i - k] = (c * hk) * gk
        if h == 0:
            break
        gk = gk.derivative()
        hk = hk * h
    return out


def as_symbol(x):
    return x.to_symbol() if isinstance(x, DiffOp) else x


def ref_compose(a, b):
    """a . b with one product and one addition per Leibniz term."""
    if a.src != b.tgt:
        raise PreconditionError(
            f"weights do not chain: right factor lands in {b.tgt}, left expects {a.src}"
        )
    if a.planck != b.planck:
        raise PreconditionError("cannot compose distinct planck values")
    sa, sb = as_symbol(a), as_symbol(b)
    h = sa.planck
    top = sa.top + sb.top
    if sa.exact_below and sb.exact_below:
        floor = sa.floor + sb.floor
        exact = all(i >= 0 for i in sa.coeffs)
    else:
        cands = []
        if not sa.exact_below:
            cands.append(sa.floor + sb.top)
        if not sb.exact_below:
            cands.append(sb.floor + sa.top)
        floor = max(cands)
        exact = False
    acc = {}
    for i, fi in sa.coeffs.items():
        for j, gj in sb.coeffs.items():
            for t, s in ref_shifted(i, gj, h, floor - j).items():
                k = t + j
                if k >= floor:
                    acc[k] = acc.get(k, ZERO) + fi * s
    out = PseudoSymbol(top, floor, sb.src, sa.tgt, h, acc, exact)
    if isinstance(a, DiffOp) and isinstance(b, DiffOp):
        return DiffOp.from_map(dict(out.coeffs), sb.src, sa.tgt, h)
    return out


def ref_transposed(coeffs, h, floor):
    acc = {}
    for i, fi in coeffs.items():
        for k, s in ref_shifted(i, fi, h, floor).items():
            acc[k] = acc.get(k, ZERO) + (-1 if i % 2 else 1) * s
    return acc


def ref_transpose(op):
    return DiffOp.from_map(ref_transposed(dict(enumerate(op.coeffs)), op.planck, 0),
                           1 - op.tgt, 1 - op.src, op.planck)


def ref_transpose_symbol(p):
    exact = p.exact_below and all(i >= 0 for i in p.coeffs)
    return PseudoSymbol(p.top, p.floor, 1 - p.tgt, 1 - p.src, p.planck,
                        ref_transposed(p.coeffs, p.planck, p.floor), exact)


def ref_pseudo_invert(op, depth, trunc):
    """Each q_(-n-j) from the D^(-j) coefficient of a reference composition."""
    n, h = op.order, op.planck
    inv_lead = op.coeffs[-1].inverse(trunc=trunc)
    coeffs = {}
    for j in range(depth + 1):
        cur = ZERO
        if coeffs:
            partial = PseudoSymbol(-n, -n - j, op.tgt, op.src, h, coeffs, False)
            cur = ref_compose(op, partial).coeffs.get(-j, ZERO)
        diff = (ONE if j == 0 else ZERO) + (-cur)
        if not is_exact_zero(diff):
            coeffs[-n - j] = diff * inv_lead
    return PseudoSymbol(-n, -n - depth, op.tgt, op.src, h, coeffs, False)


def ref_pairing(u, v, op, depth, trunc):
    """The residue of the reference double composition u . op^(-1) . v^t."""
    su = as_symbol(u)
    if depth is None:
        depth = max(su.top + v.order - op.order + 1, 0)
    total = ref_compose(ref_compose(su, ref_pseudo_invert(op, depth, trunc)), ref_transpose(v))
    return res(total).series


def skey(s):
    return (s.val, s.nums, s.den, s.trunc)


def okey(x):
    """(val, nums, den, trunc) of every coefficient, with the operator's range and weights."""
    if isinstance(x, LaurentSeries):
        return skey(x)
    if isinstance(x, Density):
        return (x.weight, skey(x.series))
    if isinstance(x, DiffOp):
        return ("D", x.order, x.src, x.tgt, x.planck, tuple(skey(c) for c in x.coeffs))
    if isinstance(x, PseudoSymbol):
        return ("P", x.top, x.floor, x.src, x.tgt, x.planck, x.exact_below,
                tuple(sorted((i, skey(c)) for i, c in x.coeffs.items())))
    return tuple(okey(y) for y in x)


def outcome(f, *args, **kw):
    """okey of the result, or the type and message of the exception raised."""
    try:
        return okey(f(*args, **kw))
    except (PreconditionError, InsufficientTruncationError) as e:
        return (type(e).__name__, str(e))


@st.composite
def st_op(draw, h, src, order=None, unit=False):
    n = draw(st.integers(0, 4)) if order is None else order
    coeffs = {i: draw(st_series()) for i in range(n)}
    coeffs[n] = draw(st_series(lead=True, unit=unit))
    return DiffOp.from_map(coeffs, src, src + n, h)


@st.composite
def st_symbol(draw, h, src, tgt):
    top = draw(st.integers(-2, 3))
    floor = top - draw(st.integers(0, 4))
    coeffs = {i: draw(st_series()) for i in range(floor, top + 1) if draw(st.booleans())}
    return PseudoSymbol(top, floor, src, tgt, h, coeffs, draw(st.booleans()))


@st.composite
def st_case(draw):
    """An operator L with a unit lead, and operators and symbols that chain with it."""
    h = draw(PLANCKS)
    n = draw(st.integers(1, 4))
    # the pairing chains at the window a = (1 - n)/2; a quarter of the cases miss it
    a = F(1 - n, 2) + draw(st.sampled_from([0, 0, 0, F(1, 2)]))
    L = draw(st_op(h, a, order=n, unit=True))
    M = draw(st_op(h, L.tgt))
    u = draw(st_op(h, a))
    v = draw(st_op(h, a))
    sym = draw(st_symbol(h, L.tgt, a + draw(st.integers(-2, 2))))
    left = draw(st_symbol(h, a, a + 1))
    return L, M, u, v, sym, left


class TestLeibnizOracle:
    """compose, transpose, pseudo_invert and pairing are == to the term-by-term loop."""

    @ORACLE
    @given(st_case(), st.integers(0, 4))
    def test_compose_both_orders(self, case, depth):
        L, M, _, _, sym, _ = case
        Q = ref_pseudo_invert(L, depth, 8)
        for a, b in ((M, L), (sym, L), (sym, L.to_symbol()), (L, Q), (Q, L), (L, L), (sym, Q)):
            assert outcome(compose, a, b) == outcome(ref_compose, a, b)

    @ORACLE
    @given(st_case(), st.integers(0, 4))
    def test_transposes(self, case, depth):
        L, M, u, _, sym, left = case
        for op in (L, M, u):
            assert transpose(op) == ref_transpose(op)
        for p in (sym, left, L.to_symbol(), ref_pseudo_invert(L, depth, 8)):
            assert okey(transpose_symbol(p)) == okey(ref_transpose_symbol(p))

    @ORACLE
    @given(st_case(), st.integers(0, 5), st.sampled_from([None, 3, 8]))
    def test_pseudo_invert_reads_the_reference_composition(self, case, depth, trunc):
        L = case[0]
        assert outcome(pseudo_invert, L, depth, trunc=trunc) == \
            outcome(ref_pseudo_invert, L, depth, trunc)

    @ORACLE
    @given(st_case(), st.sampled_from([None, 0, 1, 3]))
    def test_pairing_is_the_reference_residue(self, case, depth):
        L, _, u, v, _, left = case
        a, h = L.src, L.planck
        flag = [DiffOp.from_map({i: ONE}, a, a + i, h) for i in range(L.order)]
        cases = [(u, v), (left, v), (v, u), (flag[0], flag[-1]), (flag[-1], flag[0]), (u, L)]
        for x, y in cases:
            assert outcome(pairing, x, y, L, depth=depth, trunc=8) == \
                outcome(ref_pairing, x, y, L, depth, 8)


class TestInverseCache:
    """An operator keeps its inverse symbol for the last truncation asked; cut,
    extended or started over, every call is == to the same call on a fresh operator."""

    @ORACLE
    @given(st_case())
    def test_interleaved_calls_match_a_fresh_operator(self, case):
        L, _, u, v, _, _ = case
        a, h = L.src, L.planck
        flag = [DiffOp.from_map({i: ONE}, a, a + i, h) for i in range(L.order)]

        def fresh():
            return DiffOp(L.order, L.src, L.tgt, L.planck, L.coeffs)

        # deeper, shallower, another trunc (None raises on an exact non-monomial
        # lead), a raising depth, then resumed at the trunc the slot holds
        for depth, trunc in ((4, 12), (0, None), (2, 8), (-1, 8), (3, 8), (6, 12), (1, 12)):
            assert outcome(pseudo_invert, L, depth, trunc=trunc) == \
                outcome(pseudo_invert, fresh(), depth, trunc=trunc)
        for x, y in ((u, v), (flag[0], flag[-1]), (flag[-1], flag[0])):
            assert outcome(pairing, x, y, L, trunc=12) == outcome(pairing, x, y, fresh(), trunc=12)

    @staticmethod
    def order_5_op(seed):
        rng = random.Random(seed)
        cs = {i: rnd_series(rng) for i in range(5)}
        cs[5] = ONE + Z * rnd_series(rng)
        return DiffOp.from_map(cs, -2, 3, 1)

    def test_flag_pairings_invert_once(self):
        # one pairing, and 25 for the Gram matrix, which each inverted the operator anew
        L = self.order_5_op(1)
        assert inverse_calls(lambda: verify_flag_pairing(L, trunc=12))[1] == 1
        L = self.order_5_op(2)
        assert inverse_calls(lambda: flag_gram(L, trunc=12))[1] == 1
        # the slot holds one truncation: another starts over, once
        assert inverse_calls(lambda: flag_gram(L, trunc=8))[1] == 1
        assert inverse_calls(lambda: flag_gram(L, trunc=8))[1] == 0

    def test_cache_is_not_a_field(self):
        L, twin = self.order_5_op(3), self.order_5_op(3)
        text = repr(L)
        pseudo_invert(L, 3, trunc=12)
        assert L._inverse is not None and twin._inverse is None
        assert L == twin and hash(L) == hash(twin) and repr(L) == repr(twin) == text


# -- outputs pinned bit for bit ---------------------------------------------------------

# recorded with the term-by-term Leibniz loop, before the calculus was packed; a
# change to any coefficient, truncation order or error message changes it
PINNED_SYMBOL_DIGEST = "11b064cf87d807d5"


def pinned_symbol_outputs():
    """okey or exception of every calculus output on seeded inputs at h = 1, 1/2, 0."""
    rng = random.Random("pinned:diffops")

    def ser(trunc):
        s = rnd_series(rng, rng.randint(-1, 1), 4)
        return s if trunc is None else s.truncate(trunc)

    out = []
    for h in (F(1), F(1, 2), F(0)):
        for trunc in (None, 7):
            for n in range(1, 6):
                a = F(1 - n, 2)
                cs = {i: ser(trunc) for i in range(n)}
                cs[n] = LaurentSeries.constant(rng.choice([1, 2, F(-1, 3)])) + ser(trunc).shift(1)
                L = DiffOp.from_map(cs, a, a + n, h)
                M = DiffOp.from_map({i: ser(trunc) for i in range(n)}, a + n, a + 2 * n - 1, h)
                u = DiffOp.from_map({i: ser(trunc) for i in range(n)}, a, a + n - 1, h)
                v = DiffOp.from_map({i: ser(trunc) for i in range(n - 1)}, a, a + n - 2, h)
                sym = PseudoSymbol(1, -2, a + n, a + n + 1, h, {i: ser(trunc) for i in (1, 0, -2)})
                out += [outcome(pseudo_invert, L, 3, trunc=9), outcome(pseudo_invert, L, 2)]
                Q = pseudo_invert(L, 3, trunc=9)
                out += [outcome(compose, f, g) for f, g in ((L, Q), (Q, L), (M, L), (sym, L), (L, M))]
                out += [outcome(transpose, L), outcome(transpose, M),
                        outcome(transpose_symbol, Q), outcome(transpose_symbol, sym),
                        outcome(symbols, L)]
                for depth in (None, 0, 1, 3):
                    out += [outcome(pairing, u, v, L, depth=depth, trunc=9),
                            outcome(pairing, v, u, transpose(L), depth=depth, trunc=9),
                            outcome(pairing, Q, v, L, depth=depth, trunc=9)]
                if h:
                    w = Density(ser(trunc), -1)
                    out += [outcome(lie_derivative, L, w), outcome(lie_derivative, M, w)]
    return hashlib.sha256(repr(out).encode()).hexdigest()[:16]


def test_symbol_outputs_are_pinned():
    assert pinned_symbol_outputs() == PINNED_SYMBOL_DIGEST
