"""Scalar operators vs. flagged connections, duality, and the even orthogonal pair.

Round trips are the backbone: each direction of the dictionary is built from
different machinery (data placement and density elimination one way,
back-substituted cyclic vectors the other), so agreement is a real check.
Transpose symmetries are verified against the transpose from the operator
module, Gram determinants against a from-scratch Laplace expansion, and the
rank-one orthogonal bridge against matrices and coefficients recorded inline.
Miura opers y + diag(phi) are checked against closed forms built from the phi_i.
"""

import random
from fractions import Fraction as F
from functools import partial
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from opercalc import dictionary, diffops
from opercalc.diffops import (
    DiffOp,
    compose,
    lie_derivative,
    pairing,
    symbols,
    to_plain,
    transpose,
    transpose_symbol,
)
from opercalc.errors import (
    MalformedInputError,
    NotAnOperError,
    OperCalcError,
    PreconditionError,
)
from opercalc.dictionary import (
    FlaggedSystem,
    _series_solve,
    as_flagged,
    companion_system,
    companion_torus,
    diffop_from_oper,
    dualize,
    flag_gram,
    oper_from_diffop,
    sl2_to_o3,
    so_even_build,
    so_even_conditions,
    so_even_extract,
    verify_flag_pairing,
)
from opercalc.gauge import (
    CanonicalForm,
    GaugeElement,
    OperConnection,
    gauge_apply,
    hitchin_map,
    normalize,
)
from opercalc.lie import model
from opercalc.matrices import fmat_mul, smat_add, smat_from_frac, smat_scale, smat_zero
from opercalc.series import Density, LaurentSeries, is_exact_zero
from oracles import (
    flag_gram_loop,
    flag_pairing_loop,
    gram_horizontal,
    probe_slot_constant,
    selfdual_connection_probed,
)

Z = LaurentSeries.monomial(1, 1)
ONE = LaurentSeries.one()
ZERO = LaurentSeries.zero()


def det_oracle(rows):
    """Laplace expansion along the first row; exact and independent."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        sgn = -1 if j % 2 else 1
        total = total + sgn * rows[0][j] * det_oracle(minor)
    return total


def rnd_poly(rng, deg=3, den=2):
    terms = {k: F(rng.randint(-4, 4), rng.randint(1, den)) for k in range(deg + 1)}
    return LaurentSeries.from_terms(terms)


def rnd_monic(rng, order, src=None, planck=1):
    a = F(1 - order, 2) if src is None else F(src)
    coeffs = {i: rnd_poly(rng) for i in range(order)}
    coeffs[order] = ONE
    return DiffOp.from_map(coeffs, a, a + order, planck)


def rnd_selfdual(rng, order, planck=1):
    """Monic operator with L^t = L (even order) or L^t = -L (odd order).

    Symmetrising a random monic operator keeps the lead and is independent
    of any canonical-form machinery.
    """
    m = rnd_monic(rng, order, planck=planck)
    t = transpose(m)
    sgn = 1 if order % 2 == 0 else -1
    half = DiffOp.from_map(
        {i: F(1, 2) * (m.coeff(i) + sgn * t.coeff(i)) for i in range(order + 1)},
        m.src, m.tgt, m.planck,
    )
    return half


def rnd_canonical(rng, family, rank, planck=1, deg=3):
    m = model(family, rank)
    dens = tuple(
        Density(rnd_poly(rng, deg=deg), d + 1) for d in m.exponents
    )
    return CanonicalForm(m, F(planck), dens).connection()


class TestFlaggedSystem:
    def test_validate_shape(self):
        with pytest.raises(MalformedInputError):
            FlaggedSystem(((ONE, ONE),), 0, 1, 1).validate()

    def test_validate_weights(self):
        q = ((ZERO, ZERO), (ONE, ZERO))
        with pytest.raises(PreconditionError):
            FlaggedSystem(q, 0, 3, 1).validate()

    def test_validate_below_subdiagonal(self):
        q = ((ZERO, ZERO, ZERO), (ONE, ZERO, ZERO), (Z, ONE, ZERO))
        with pytest.raises(NotAnOperError):
            FlaggedSystem(q, -1, 2, 1).validate()

    def test_validate_subdiagonal_must_be_constant(self):
        q = ((ZERO, ZERO), (ONE + Z, ZERO))
        with pytest.raises(NotAnOperError):
            FlaggedSystem(q, F(-1, 2), F(3, 2), 1).validate()

    def test_float_planck_rejected(self):
        with pytest.raises(TypeError):
            FlaggedSystem(((ZERO, ZERO), (ONE, ZERO)), F(-1, 2), F(3, 2), 0.5)

    def test_symbol_and_trace(self):
        q = ((Z, ZERO), (2 * ONE, -Z))
        fs = FlaggedSystem(q, F(-1, 2), F(3, 2), 1)
        assert fs.symbol().agrees(2 * ONE)
        assert fs.trace().is_zero()

    def test_companion_requires_monic(self):
        op = DiffOp.from_map({2: 2 * ONE, 0: Z}, F(-1, 2), F(3, 2), 1)
        with pytest.raises(PreconditionError):
            companion_system(op)

    def test_companion_requires_matching_window(self):
        op = DiffOp.from_map({2: ONE, 0: Z}, 0, 3, 1)
        with pytest.raises(PreconditionError):
            companion_system(op)

    def test_companion_requires_positive_order(self):
        with pytest.raises(PreconditionError, match="positive order"):
            companion_system(DiffOp.from_map({0: ONE}, 0, 0, 1))


class TestKindChecks:
    def test_readoff_kind_must_match_the_model(self):
        conn = rnd_canonical(random.Random(5), "A", 2)
        with pytest.raises(PreconditionError, match="carries kind 'sl', not 'sp'"):
            diffop_from_oper(conn, "sp")

    def test_gl_needs_a_monic_operator(self):
        op = DiffOp.from_map({2: 2 * ONE, 0: Z}, 0, 2, 1)
        with pytest.raises(PreconditionError, match="principal symbol must be 1"):
            oper_from_diffop(op, "gl")

    def test_sl_needs_order_two(self):
        op = DiffOp.from_map({1: ONE, 0: Z}, 0, 1, 1)
        with pytest.raises(PreconditionError, match="order at least 2"):
            oper_from_diffop(op, "sl")


class TestReadoffRoundTrips:
    def test_gl_round_trip(self):
        rng = random.Random(11)
        for order in (1, 2, 3, 4):
            for planck in (1, F(1, 2)):
                op = rnd_monic(rng, order, src=rng.randint(-2, 2), planck=planck)
                fs = companion_system(op)
                fs.validate()
                assert diffop_from_oper(fs, trunc=20).agrees(op)

    def test_gl_read_off_keeps_a_truncated_zero(self):
        # D^2 + O(z^5): the companion carries O(z^5), so must the read-off
        op = DiffOp.from_map({2: ONE, 0: ZERO.truncate(5)}, F(-1, 2), F(3, 2))
        back = diffop_from_oper(companion_system(op))
        assert back.agrees(op) and back.coeffs[2] == ONE
        assert back.coeffs[0].trunc == 5

    def test_gl_kind_tag(self):
        op = rnd_monic(random.Random(1), 2)
        fs = companion_system(op)
        assert diffop_from_oper(fs, kind="gl", trunc=20).agrees(op)
        with pytest.raises(PreconditionError):
            diffop_from_oper(fs, kind="sl")

    def test_sl_round_trip(self):
        rng = random.Random(12)
        for order in (2, 3, 4):
            op_map = {i: rnd_poly(rng) for i in range(order - 1)}
            op_map[order - 1] = ZERO
            op_map[order] = ONE
            a = F(1 - order, 2)
            op = DiffOp.from_map(op_map, a, a + order, 1)
            conn = oper_from_diffop(op, "sl")
            conn.validate()
            assert conn.model.name() == f"A:{order - 1}"
            assert diffop_from_oper(conn, trunc=20).agrees(op)

    def test_sl_needs_vanishing_subprincipal(self):
        rng = random.Random(13)
        op = rnd_monic(rng, 3)
        if op.coeff(2).is_zero():  # pragma: no cover - rng guard
            op = op + DiffOp.from_map({2: ONE}, op.src, op.tgt, 1)
        with pytest.raises(PreconditionError):
            oper_from_diffop(op, "sl")

    def test_sl_connection_is_canonical_subdiagonal(self):
        rng = random.Random(14)
        op = DiffOp.from_map(
            {3: ONE, 2: ZERO, 1: rnd_poly(rng), 0: rnd_poly(rng)}, -1, 2, 1
        )
        conn = oper_from_diffop(op, "sl")
        kappa = conn.model.y_coeffs
        for i in range(2):
            assert conn.q[i + 1][i].agrees(LaurentSeries.constant(kappa[i]))

    def test_sp_round_trip(self):
        rng = random.Random(15)
        for order in (2, 4):
            for planck in (1, F(1, 2)):
                op = rnd_selfdual(rng, order, planck=planck)
                assert transpose(op).agrees(op)
                conn = oper_from_diffop(op, "sp", trunc=24)
                conn.validate()
                assert conn.model.family == "C"
                assert diffop_from_oper(conn, trunc=24).agrees(op)

    def test_so_odd_round_trip(self):
        rng = random.Random(16)
        for order in (3, 5):
            for planck in (1, F(1, 2)):
                op = rnd_selfdual(rng, order, planck=planck)
                assert transpose(op).agrees(-op)
                conn = oper_from_diffop(op, "so_odd", trunc=24)
                conn.validate()
                assert conn.model.family == "B"
                assert diffop_from_oper(conn, trunc=24).agrees(op)

    def test_canonical_connections_recovered_exactly(self):
        # the inverse direction lands back on the same canonical matrix
        rng = random.Random(17)
        for family, rank, kind in (("C", 2, "sp"), ("B", 2, "so_odd")):
            conn = rnd_canonical(rng, family, rank)
            op = diffop_from_oper(conn, trunc=24)
            back = oper_from_diffop(op, kind, trunc=24)
            for i in range(conn.model.N):
                for j in range(conn.model.N):
                    assert back.q[i][j].agrees(conn.q[i][j])

    def test_planck_zero_round_trip(self):
        rng = random.Random(18)
        conn = rnd_canonical(rng, "B", 1, planck=0)
        op = diffop_from_oper(conn, trunc=20)
        assert op.planck == 0
        back = oper_from_diffop(op, "so_odd", trunc=20)
        for i in range(3):
            for j in range(3):
                assert back.q[i][j].agrees(conn.q[i][j])

    def test_wrong_window_rejected(self):
        op = DiffOp.from_map({2: ONE, 0: Z}, 0, 2, 1)
        with pytest.raises(PreconditionError):
            oper_from_diffop(op, "sp")

    def test_parity_rejected(self):
        rng = random.Random(19)
        with pytest.raises(PreconditionError):
            oper_from_diffop(rnd_selfdual(rng, 3), "sp")
        with pytest.raises(PreconditionError):
            oper_from_diffop(rnd_selfdual(rng, 4), "so_odd")

    def test_transpose_condition_rejected(self):
        rng = random.Random(20)
        op = rnd_monic(rng, 4)
        if transpose(op).agrees(op):  # pragma: no cover - rng guard
            op = op + DiffOp.from_map({1: ONE}, op.src, op.tgt, 1)
        with pytest.raises(PreconditionError):
            oper_from_diffop(op, "sp")

    def test_unknown_kind(self):
        with pytest.raises(MalformedInputError):
            oper_from_diffop(rnd_monic(random.Random(0), 2), "e8")

    def test_even_orthogonal_model_refused(self):
        rng = random.Random(21)
        conn = rnd_canonical(rng, "D", 3)
        with pytest.raises(PreconditionError):
            diffop_from_oper(conn)
        with pytest.raises(PreconditionError):
            as_flagged(conn)


class TestGaugeInvariance:
    def test_readoff_constant_torus_and_unipotent(self):
        rng = random.Random(22)
        for family, rank in (("A", 2), ("C", 2), ("B", 2)):
            conn = rnd_canonical(rng, family, rank)
            op = diffop_from_oper(conn, trunc=24)
            m = conn.model
            step = smat_zero(m.N)
            for e in m.e_vectors:
                step = smat_add(step, smat_scale(rnd_poly(rng, deg=1), smat_from_frac(e)))
            b = GaugeElement(m, {0: LaurentSeries.constant(F(3))}, [step])
            b.validate()
            moved = gauge_apply(conn, b)
            assert diffop_from_oper(moved, trunc=24).agrees(op)

    def test_companion_torus_matches_model_coefficients(self):
        m = model("A", 2)
        conn = OperConnection(
            m, F(1),
            ((ZERO, ZERO, -Z), (ONE, ZERO, ZERO), (ZERO, ONE, ZERO)),
        )
        moved = gauge_apply(conn, companion_torus(m))
        for i in range(2):
            assert moved.q[i + 1][i].agrees(LaurentSeries.constant(m.y_coeffs[i]))


class TestDefectTraceEquivalence:
    def test_defect_drops_iff_traceless(self):
        rng = random.Random(23)
        for order in (2, 3, 4):
            for _ in range(5):
                op = rnd_monic(rng, order)
                f_top = op.coeff(order - 1)
                fs = companion_system(op)
                _, defect = symbols(op)
                # the subprincipal defect coefficient is twice the companion trace
                assert defect.coeff(order - 1).agrees(2 * f_top)
                assert fs.trace().agrees(-f_top)
                drops = defect.coeff(order - 1).is_zero()
                assert drops == fs.trace().is_zero()


class TestDuality:
    def test_two_path_against_transpose(self):
        rng = random.Random(24)
        for order in (3, 4):
            for _ in range(20 if order == 3 else 5):
                op = rnd_monic(rng, order, src=rng.randint(-2, 1))
                dual = dualize(companion_system(op))
                dual.validate()
                got = diffop_from_oper(dual, trunc=24)
                want = -transpose(op)
                assert got.agrees(want)
                assert (got.src, got.tgt) == (1 - op.tgt, 1 - op.src)

    def test_dual_symbol_sign(self):
        rng = random.Random(25)
        for order in (2, 3, 4):
            fs = companion_system(rnd_monic(rng, order))
            sign = F((-1) ** (order - 1))
            assert dualize(fs).symbol().agrees(LaurentSeries.constant(sign))

    def test_involution(self):
        rng = random.Random(26)
        fs = companion_system(rnd_monic(rng, 3))
        assert dualize(dualize(fs)).agrees(fs)

    def test_general_constant_subdiagonal(self):
        rng = random.Random(27)
        for n in (3, 4):
            rows = [[ZERO] * n for _ in range(n)]
            for i in range(n - 1):
                rows[i + 1][i] = LaurentSeries.constant(F(rng.choice([2, -1, 3])))
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rnd_poly(rng, deg=2)
            fs = FlaggedSystem(tuple(tuple(r) for r in rows), -1, n - 1, 1)
            fs.validate()
            got = diffop_from_oper(dualize(fs), trunc=24)
            assert got.agrees(-transpose(diffop_from_oper(fs, trunc=24)))

    def test_model_connection_dualizes_through_the_flag(self):
        rng = random.Random(28)
        conn = rnd_canonical(rng, "A", 2)
        dual = dualize(conn)
        got = diffop_from_oper(dual, trunc=24)
        # the flagged read-off carries the coordinate symbol of the flag
        g = as_flagged(conn).symbol()
        want = -transpose(g * diffop_from_oper(conn, trunc=24))
        assert got.agrees(want)


FLAG_LEADS = ("unit", "non-unit", "non-monomial", "truncated")


@st.composite
def st_flag_case(draw):
    """An operator of order 0-6 at planck 1, 1/2 or 0, in or off the self-dual
    window, with a lead of each kind, and the truncation to check it at."""
    n = draw(st.integers(0, 6))
    h = draw(st.sampled_from([F(1), F(1, 2), F(0)]))
    rng = draw(st.randoms(use_true_random=False))
    a = F(1 - n, 2)
    if not draw(st.booleans()):
        a += F(rng.choice([-3, -2, -1, 1, 2, 3]), 2)
    c = LaurentSeries.constant(rng.choice([1, -1, 2, F(-1, 3)]))
    kind = draw(st.sampled_from(FLAG_LEADS))
    if kind == "unit":
        lead = c
    elif kind == "non-unit":
        lead = Z * (c + Z * rnd_poly(rng))
    elif kind == "non-monomial":
        lead = c + Z * c + Z * Z * rnd_poly(rng)
    else:
        lead = (c + Z * rnd_poly(rng)).truncate(rng.randint(1, 6))
    coeffs = [rnd_poly(rng) for _ in range(n)] + [lead]
    coeffs = [x.truncate(rng.randint(2, 9)) if rng.random() < 0.3 else x for x in coeffs]
    trunc = draw(st.sampled_from([None, 12, 8, 3, 0, -1]))
    return (n, a, a + n, h, coeffs), trunc


def flag_outcome(check, args, trunc):
    """None, or the type and message of what check raises, on a fresh operator
    (its inverse slot empty), and the number of pairings it computed."""
    real, calls = dictionary.pairing, []

    def counted(*a, **kw):
        calls.append(a)
        return real(*a, **kw)

    op = DiffOp(*args)
    with mock.patch.object(dictionary, "pairing", counted):
        try:
            check(op, trunc=trunc)
        except OperCalcError as e:
            return (type(e).__name__, str(e)), len(calls)
    return None, len(calls)


class TestFlagPairing:
    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(case=st_flag_case())
    def test_one_pairing_matches_every_pairing(self, case):
        args, trunc = case
        got, calls = flag_outcome(verify_flag_pairing, args, trunc)
        assert got == flag_outcome(flag_pairing_loop, args, trunc)[0]
        assert calls == (1 if args[0] else 0)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(case=st_flag_case(), extra=st.integers(0, 1))
    def test_gram_transposes_each_flag_operator_once(self, case, extra):
        args, trunc = case
        size = args[0] + extra
        real, calls = transpose, []

        def counted(v):
            calls.append(v)
            return real(v)

        def gram(build):
            try:
                return build(DiffOp(*args), size=size, trunc=trunc)
            except OperCalcError as e:
                return type(e).__name__, str(e)

        with mock.patch.object(dictionary, "transpose", counted), \
                mock.patch("opercalc.diffops.transpose", counted):
            got = gram(flag_gram)
        assert got == gram(flag_gram_loop)
        windowed = args[1] + args[2] == 1
        assert len(calls) == (size if windowed else 0)

    def test_gram_pattern_so_odd(self):
        rng = random.Random(29)
        for order in (3, 5):
            op = rnd_selfdual(rng, order)
            g = flag_gram(op, trunc=20)
            for i in range(order):
                for j in range(order - 1 - i):
                    assert g[i][j].is_zero()
                anti = g[i][order - 1 - i]
                sign = F((-1) ** i)
                assert anti.agrees(LaurentSeries.constant(sign))

    def test_gram_determinant_is_one(self):
        rng = random.Random(30)
        for order in (3, 5):
            op = rnd_selfdual(rng, order)
            g = flag_gram(op, trunc=20)
            assert det_oracle(g).agrees(ONE)

    def test_gram_symmetry_by_kind(self):
        rng = random.Random(31)
        sp = rnd_selfdual(rng, 4)
        gs = flag_gram(sp, trunc=20)
        for i in range(4):
            for j in range(4):
                assert gs[i][j].agrees(-gs[j][i])
        so = rnd_selfdual(rng, 5)
        go = flag_gram(so, trunc=20)
        for i in range(5):
            for j in range(5):
                assert go[i][j].agrees(go[j][i])

    def test_gram_horizontality(self):
        rng = random.Random(32)
        for order, planck in ((4, 1), (4, F(1, 2)), (3, 1)):
            op = rnd_selfdual(rng, order, planck=planck)
            assert gram_horizontal(op, trunc=18)

    def test_operator_kills_the_pairing(self):
        rng = random.Random(33)
        op = rnd_selfdual(rng, 4)
        probe = DiffOp.from_map({1: rnd_poly(rng)}, op.src, op.src + 1, 1)
        assert pairing(op, probe, op, trunc=18).is_zero()

    def test_verify_flag_pairing_accepts_window_operators(self):
        rng = random.Random(34)
        verify_flag_pairing(rnd_monic(rng, 4), trunc=18)

    def test_window_required(self):
        op = DiffOp.from_map({2: ONE}, 0, 2, 1)
        with pytest.raises(PreconditionError):
            flag_gram(op)


class TestRankOneBridge:
    def test_matrix_recorded_inline(self):
        u = Density(Z, 2)
        conn, lt = sl2_to_o3(u)
        want = (
            (ZERO, -2 * Z, ZERO),
            (ONE, ZERO, -2 * Z),
            (ZERO, ONE, ZERO),
        )
        for i in range(3):
            for j in range(3):
                assert conn.q[i][j].agrees(want[i][j])

    def test_operator_recorded_inline(self):
        rng = random.Random(35)
        s = rnd_poly(rng)
        h = F(1, 3)
        _, lt = sl2_to_o3(Density(s, 2), planck=h)
        want = DiffOp.from_map(
            {3: ONE, 1: 4 * s, 0: 2 * h * s.derivative()}, -1, 2, h
        )
        assert lt.agrees(want)

    def test_operator_is_the_readoff(self):
        rng = random.Random(36)
        for h in (1, F(1, 2), 0):
            conn, lt = sl2_to_o3(Density(rnd_poly(rng), 2), planck=h)
            assert diffop_from_oper(conn, trunc=20).agrees(lt)

    def test_operator_is_skew(self):
        rng = random.Random(37)
        _, lt = sl2_to_o3(Density(rnd_poly(rng), 2))
        assert transpose(lt).agrees(-lt)

    def test_bracket_identity(self):
        # applying the order-3 operator to a vector field gives twice the
        # Lie derivative of the order-2 operator along that field
        rng = random.Random(38)
        for _ in range(20):
            u = rnd_poly(rng)
            g = rnd_poly(rng)
            _, lt = sl2_to_o3(Density(u, 2))
            hill = DiffOp.from_map({2: ONE, 0: u}, F(-1, 2), F(3, 2), 1)
            der = lie_derivative(hill, Density(g, -1))
            for i in range(1, der.order + 1):
                assert der.coeff(i).is_zero()
            assert lt.apply(Density(g, -1)).series.agrees(2 * der.coeff(0))

    def test_weight_check(self):
        with pytest.raises(PreconditionError):
            sl2_to_o3(Density(Z, 1))


class TestEvenOrthogonal:
    def rnd_pair(self, rng, k, planck=1):
        order = 2 * k - 1
        op = rnd_selfdual(rng, order, planck=planck)
        f = Density(rnd_poly(rng, deg=2), k)
        return op, f

    def test_round_trip_k2(self):
        rng = random.Random(39)
        for _ in range(3):
            op, f = self.rnd_pair(rng, 2)
            conn, sym = so_even_build(op, f)
            conn.validate()
            so_even_conditions(conn)
            op2, f2 = so_even_extract(conn, trunc=24)
            assert op2.agrees(op)
            assert f2.weight == f.weight
            assert f2.series.agrees(f.series)

    def test_round_trip_k3(self):
        rng = random.Random(40)
        op, f = self.rnd_pair(rng, 3)
        conn, sym = so_even_build(op, f)
        so_even_conditions(conn)
        op2, f2 = so_even_extract(conn, trunc=24)
        assert op2.agrees(op)
        assert f2.series.agrees(f.series)
        # every exact zero off the subdiagonal made O(z^6): the below-middle
        # corrections must carry that order, not skip the entry as exact
        q = [[ZERO.truncate(6) if is_exact_zero(x) and i != j + 1 else x
              for j, x in enumerate(row)] for i, row in enumerate(conn.q)]
        op3, f3 = so_even_extract(OperConnection(conn.model, conn.planck, q), trunc=24)
        assert op3.agrees(op2) and f3.series.agrees(f2.series)
        assert all(c.trunc is not None and c.trunc < 24 for c in op3.coeffs[:-1])

    def test_round_trip_planck_half(self):
        rng = random.Random(41)
        op, f = self.rnd_pair(rng, 2, planck=F(1, 2))
        conn, sym = so_even_build(op, f)
        op2, f2 = so_even_extract(conn, trunc=24)
        assert op2.agrees(op)
        assert f2.series.agrees(f.series)

    def test_zero_twist(self):
        rng = random.Random(42)
        op = rnd_selfdual(rng, 3)
        conn, sym = so_even_build(op, Density(ZERO, 2))
        op2, f2 = so_even_extract(conn, trunc=24)
        assert op2.agrees(op)
        assert f2.series.is_zero()

    def test_symbol_is_skew(self):
        rng = random.Random(43)
        op, f = self.rnd_pair(rng, 2)
        _, sym = so_even_build(op, f, depth=4)
        flipped = transpose_symbol(sym)
        for i in range(sym.floor, sym.top + 1):
            assert flipped.coeffs.get(i, ZERO).agrees(-sym.coeffs.get(i, ZERO))

    def test_symbol_differential_part(self):
        rng = random.Random(44)
        op, f = self.rnd_pair(rng, 2)
        _, sym = so_even_build(op, f)
        plain = to_plain(op)
        for i in range(0, sym.top + 1):
            assert sym.coeffs.get(i, ZERO).agrees(plain.coeff(i))

    def test_symbol_tail_is_rank_one(self):
        rng = random.Random(45)
        op, f = self.rnd_pair(rng, 2)
        _, sym = so_even_build(op, f, depth=5)
        # order -1 coefficient of f ; D^-1 ; f is f^2
        assert sym.coeffs.get(-1, ZERO).agrees(f.series * f.series)

    def test_solve_eliminates_a_truncated_zero(self):
        # rows [1, 0 | 1] and [O(z^3), 1 | 2]: x_1 = 2 - O(z^3) is unknown from z^3 on
        cols = [[ONE, LaurentSeries.zero(3)], [ZERO, ONE]]
        rhs = [ONE, LaurentSeries.constant(2)]
        assert _series_solve(cols, rhs, None) == [ONE, LaurentSeries.constant(2, 3)]

    def test_solve_refuses_without_an_invertible_pivot(self):
        with pytest.raises(PreconditionError, match="no invertible pivot"):
            _series_solve([[Z, Z * Z]], [ONE, ONE], None)

    def test_solve_refuses_an_inconsistent_system(self):
        # one column, two rows: x = 1 and x = 2
        with pytest.raises(PreconditionError, match="inconsistent linear system"):
            _series_solve([[ONE, ONE]], [ONE, LaurentSeries.constant(2)], None)

    def test_extract_pins_the_section_by_its_middle_coordinate(self):
        # the torus -1 on both fork roots keeps the kernel-line norm and turns
        # the middle coordinate negative: the section changes sign with it,
        # and so does f, its first-line component
        rng = random.Random(49)
        op, f = self.rnd_pair(rng, 2)
        conn, _ = so_even_build(op, f)
        minus = LaurentSeries.constant(-1)
        flipped = gauge_apply(conn, GaugeElement(conn.model, {0: minus, 1: minus}, []))
        assert (-flipped.q[3][2]).leading() < 0 < (-conn.q[3][2]).leading()
        back, g = so_even_extract(flipped)
        assert back == op and g == Density(-f.series, 2)

    def test_extract_refuses_a_non_constant_flag_map(self):
        rng = random.Random(49)
        op, f = self.rnd_pair(rng, 2)
        conn, _ = so_even_build(op, f)
        v = conn.model._pair_vector(1, 0)
        q = tuple(tuple(x + c * Z for x, c in zip(row, vrow)) for row, vrow in zip(conn.q, v))
        bent = OperConnection(conn.model, conn.planck, q)
        so_even_conditions(bent)
        with pytest.raises(PreconditionError, match="extracted operator is not skew"):
            so_even_extract(bent, trunc=24)

    def test_conditions_reject_other_families(self):
        rng = random.Random(46)
        conn = rnd_canonical(rng, "B", 2)
        with pytest.raises(PreconditionError):
            so_even_conditions(conn)

    def test_conditions_reject_broken_chain(self):
        rng = random.Random(47)
        op, f = self.rnd_pair(rng, 3)
        conn, _ = so_even_build(op, f)
        n = 6
        q = [list(r) for r in conn.q]
        q[1][0] = ZERO  # kill a chain map away from the fork ...
        q[n - 1][n - 2] = ZERO  # ... and its mirror, staying inside the algebra
        broken = OperConnection(conn.model, conn.planck, tuple(tuple(r) for r in q))
        with pytest.raises(NotAnOperError):
            so_even_conditions(broken)

    def test_conditions_reject_broken_fork(self):
        rng = random.Random(48)
        op, f = self.rnd_pair(rng, 2)
        conn, _ = so_even_build(op, f)
        k = 2
        q = [list(r) for r in conn.q]
        q[k + 1][k - 1] = ZERO
        q[k + 1][k] = ZERO
        q[k][k - 2] = ZERO  # mirrors of the two fork entries
        q[k - 1][k - 2] = ZERO
        broken = OperConnection(conn.model, conn.planck, tuple(tuple(r) for r in q))
        with pytest.raises(NotAnOperError):
            so_even_conditions(broken)

    def test_extract_refuses_non_square_norm(self):
        # the algebra forces the kernel-line norm to equal the fork composite,
        # so the reachable refusal is a norm without a rational square root
        rng = random.Random(49)
        op, f = self.rnd_pair(rng, 2)
        conn, _ = so_even_build(op, f)
        k = 2
        q = [list(r) for r in conn.q]
        q[k + 1][k - 1] = 2 * q[k + 1][k - 1]
        q[k][k - 2] = 2 * q[k][k - 2]  # mirror entry scales along
        scaled = OperConnection(conn.model, conn.planck, tuple(tuple(r) for r in q))
        so_even_conditions(scaled)
        with pytest.raises(PreconditionError):
            so_even_extract(scaled, trunc=20)

    def test_build_needs_odd_order(self):
        rng = random.Random(50)
        op = rnd_selfdual(rng, 4)
        with pytest.raises(PreconditionError):
            so_even_build(op, Density(ZERO, 2))

    def test_build_needs_matching_twist_weight(self):
        rng = random.Random(51)
        op = rnd_selfdual(rng, 3)
        with pytest.raises(PreconditionError):
            so_even_build(op, Density(ZERO, 3))


# -- seeded round trips for every kind ----------------------------------------------

KIND_ORDERS = [("gl", n) for n in range(2, 7)] + [("sl", n) for n in range(2, 7)] + \
    [("sp", n) for n in (2, 4, 6)] + [("so_odd", n) for n in (3, 5)]
ROUND_TRIP = settings(derandomize=True, database=None, max_examples=8, deadline=None)


@st.composite
def st_kind_op(draw, kind, order):
    """A window operator of the kind: monic, sl without subprincipal term, sp/so_odd L^t = +-L."""
    planck = draw(st.sampled_from([F(1), F(1, 2)]))
    rng = draw(st.randoms(use_true_random=False))
    if kind in ("sp", "so_odd"):
        return rnd_selfdual(rng, order, planck=planck)
    op = rnd_monic(rng, order, planck=planck)
    if kind == "sl":
        op = DiffOp.from_map({**dict(enumerate(op.coeffs)), order - 1: ZERO},
                             op.src, op.tgt, planck)
    return op


class TestEveryKindRoundTrips:
    @pytest.mark.parametrize("kind,order", KIND_ORDERS, ids=lambda x: str(x))
    @ROUND_TRIP
    @given(data=st.data())
    def test_round_trip_and_flag_pairing(self, kind, order, data):
        op = data.draw(st_kind_op(kind, order))
        trunc = 24 if kind in ("sp", "so_odd") else None
        back = diffop_from_oper(oper_from_diffop(op, kind, trunc=trunc), trunc=trunc or 20)
        assert back.agrees(op) and back.order == order
        verify_flag_pairing(op, trunc=24)


SELF_DUAL_ORDERS = {"sp": (2, 4, 6, 8), "so_odd": (3, 5, 7)}
SELF_DUAL_SHAPES = ("exact", "truncated", "broken")


@st.composite
def st_selfdual_case(draw):
    """An sp operator of order 2-8 or an so_odd one of order 3-7 at planck 1,
    1/2 or 0, with exact or truncated coefficients or broken self-adjointness,
    and the truncation to build it at."""
    kind = draw(st.sampled_from(sorted(SELF_DUAL_ORDERS)))
    order = draw(st.sampled_from(SELF_DUAL_ORDERS[kind]))
    h = draw(st.sampled_from([F(1), F(1, 2), F(0)]))
    # a seeded generator spreads the shapes evenly; through hypothesis's randoms
    # about half of the cases came out truncated
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    coeffs = list(rnd_selfdual(rng, order, planck=h).coeffs)
    shape = rng.choice(SELF_DUAL_SHAPES)
    if shape == "truncated":
        coeffs[:-1] = [c.truncate(rng.randint(3, 10)) if rng.random() < 0.5 else c
                       for c in coeffs[:-1]]
    elif shape == "broken":
        # a term of this parity is +-D^i f + lower terms under the transpose,
        # off by sign from what L^t = +-L asks
        i = rng.randrange(order - 1, -1, -2)
        coeffs[i] = coeffs[i] + Z ** rng.randint(0, 3)
    a = F(1 - order, 2)
    trunc = draw(st.sampled_from([None, 24, 12, 6]))
    return (order, a, a + order, h, coeffs), kind, trunc


def build_outcome(build, args, kind, trunc):
    """The model, planck and (val, nums, den, trunc) of each entry of the
    connection build makes from a fresh operator, or the type and message of
    what it raises."""
    try:
        conn = build(DiffOp(*args), kind, trunc)
    except OperCalcError as e:
        return type(e).__name__, str(e)
    return conn.model.name(), conn.planck, [[(s.val, s.nums, s.den, s.trunc) for s in row]
                                            for row in conn.q]


def call_count(module, name, fn):
    """fn() and the number of calls it made to module.name."""
    real, calls = getattr(module, name), []

    def counted(*a, **kw):
        calls.append(a)
        return real(*a, **kw)

    with mock.patch.object(module, name, counted):
        return fn(), len(calls)


def trace_of_product(a, b):
    """tr(a b) as the sum of a[i][j] b[j][i]."""
    return sum(a[i][j] * b[j][i] for i in range(len(a)) for j in range(len(a)))


class TestSelfDualSlotConstants:
    """The sp / so_odd build takes slot constant d as tr(y^d B_d) (Kostant 1959;
    Drinfeld-Sokolov 1985); the reference probes it with a full read-off of
    the constant oper y + B_d."""

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(case=st_selfdual_case())
    def test_closed_form_constants_match_the_probed_build(self, case):
        args, kind, trunc = case
        got = build_outcome(oper_from_diffop, args, kind, trunc)
        assert got == build_outcome(selfdual_connection_probed, args, kind, trunc)

    @pytest.mark.parametrize("family", ["B", "C"])
    def test_probed_slot_is_the_trace(self, family):
        for rank in range(1, 13):
            m = model(family, rank)
            for h in (F(1), F(1, 2), F(0)) if rank <= 8 else (F(1),):
                for r, d in enumerate(m.exponents):
                    power = m.y
                    for _ in range(d - 1):
                        power = fmat_mul(power, m.y)
                    (b,) = m.kostant_data(d)["vbasis"]
                    g = probe_slot_constant(m, h, r)
                    assert g != 0 and g == trace_of_product(power, b), (family, rank, h, d)

    @pytest.mark.parametrize("kind,order", [("sp", n) for n in (2, 4, 6, 8)]
                             + [("so_odd", n) for n in (3, 5, 7)], ids=str)
    def test_one_readoff_per_slot_and_no_pairing(self, kind, order):
        # each read-off serves the next slot, the last one the image check;
        # the flag pairing is not re-checked, so nothing is pseudo-inverted
        rng = random.Random(f"readoffs:{kind}{order}")
        op = rnd_selfdual(rng, order)
        build = partial(oper_from_diffop, op, kind, trunc=24)
        conn, readoffs = call_count(dictionary, "_flag_readoff", build)
        assert call_count(diffops, "pseudo_invert", build) == (conn, 0)
        assert readoffs == conn.model.rank

    @pytest.mark.parametrize("kind,order", [("sp", 2), ("sp", 4), ("so_odd", 3), ("so_odd", 5)],
                             ids=str)
    def test_lead_agreeing_with_one_builds_at_trunc_zero(self, kind, order):
        # with lead 1 + O(z), trunc 0 certifies no constant term of the flag
        # pairing (-1)^(n-1)/lead; the build does not compute it
        op = rnd_selfdual(random.Random(f"trunc0:{kind}{order}"), order)
        cmap = {i: op.coeff(i) for i in range(order)}
        cmap[order] = LaurentSeries.one(1)
        op = DiffOp.from_map(cmap, op.src, op.tgt, op.planck)
        assert oper_from_diffop(op, kind, trunc=0) == oper_from_diffop(op, kind, trunc=1)


# -- Miura opers: closed forms from a factorization ---------------------------------

MIURA_MODELS = [("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 5)] + \
    [("C", r) for r in range(2, 5)] + [("D", r) for r in range(3, 5)]
SCALAR_MODELS = [fr for fr in MIURA_MODELS if fr[0] != "D"]
SELF_DUAL_MODELS = [fr for fr in MIURA_MODELS if fr[0] in "BC"]
MIURA_KIND = {"A": "sl", "B": "so_odd", "C": "sp"}
MIURA_INPUTS = pytest.mark.parametrize("truncated", [False, True], ids=["exact", "truncated"])


def miura_phi(rng, truncated):
    """A short series, an exact zero now and then, cut at its own order when truncated."""
    if rng.random() < 0.15:
        return ZERO
    s = LaurentSeries.from_terms({k: F(rng.randint(-3, 3), rng.randint(1, 2))
                                  for k in range(rng.randint(0, 1), 3)})
    return s.truncate(rng.randint(4, 8)) if truncated else s


def miura_diagonal(rng, m, truncated):
    """phi_0..phi_(N-1) of a diagonal in the model: traceless for A, and
    (phi, -phi reversed) for B, C and D, with an exact 0 in the middle for B."""
    if m.family == "A":
        phis = [miura_phi(rng, truncated) for _ in range(m.N - 1)]
        last = ZERO
        for p in phis:
            last = last - p
        return phis + [last]
    half = [miura_phi(rng, truncated) for _ in range(m.N // 2)]
    return half + [ZERO] * (m.N % 2) + [-p for p in reversed(half)]


def miura_case(family, rank, h, truncated):
    """The model, its diagonal phi and the Miura connection y + diag(phi)."""
    m = model(family, rank)
    phis = miura_diagonal(random.Random(f"miura:{family}{rank}:{h}:{truncated}"), m, truncated)
    q = smat_from_frac(m.y)
    for i, p in enumerate(phis):
        q[i][i] = p
    conn = OperConnection(m, h, q)
    conn.validate()
    return m, phis, conn


def miura_factors(phis, h):
    """(D - phi_(N-1)) . ... . (D - phi_0) on the self-dual window, one compose per factor."""
    a = F(1 - len(phis), 2)
    out = None
    for i, p in enumerate(phis):
        f = DiffOp.from_map({1: ONE, 0: -p}, a + i, a + i + 1, h)
        out = f if out is None else compose(f, out)
    return out


def elementary(phis):
    """e_0..e_N of the phi_i: one product per subset."""
    e = []
    for k in range(len(phis) + 1):
        acc = ZERO
        for sub in combinations(phis, k):
            t = ONE
            for p in sub:
                t = t * p
            acc = acc + t
        e.append(acc)
    return e


def no_overclaim(got, ref):
    """got agrees with ref and certifies no order that ref leaves open."""
    if ref.trunc is None:
        return got.agrees(ref)
    return got.agrees(ref) and got.trunc is not None and got.trunc <= ref.trunc


def assert_closed_form(got, ref, truncated):
    if not truncated:
        assert got == ref
    else:
        assert got.order == ref.order
        for g, r in zip(got.coeffs, ref.coeffs):
            assert no_overclaim(g, r), (g, r)


class TestMiuraOracle:
    """Miura opers y + diag(phi) against closed forms built here from the phi_i
    (Drinfeld-Sokolov 1985, section 3; Frenkel, Opers on the projective line, 2004).

    (a) The scalar operator is the composed factors (D - phi_(N-1)) ... (D - phi_0).
    (b) normalize agrees with normalize of the connection oper_from_diffop builds
    from those factors.  (c) At h = 0 the invariant of degree k is (-1)^k e_k(phi).
    (d) For B and C the factors pair off, as phi_(N-1-i) = -phi_i, so
    L^t = (-1)^N L, and the dictionary's round trip through the sp or so_odd
    connection gives L back (for truncated phi it only agrees, see the test).
    Exact inputs give ==; truncated ones agree and certify no order the closed
    form leaves open.  D opers are not scalar, so D takes (c) only.  Nothing here
    shares code with the read-off, normalize or lie.invariants beyond calling them.
    """

    @MIURA_INPUTS
    @pytest.mark.parametrize("h", [F(1), F(1, 2), F(0)], ids=str)
    @pytest.mark.parametrize("family,rank", SCALAR_MODELS, ids=lambda x: str(x))
    def test_scalar_operator_is_the_composed_factors(self, family, rank, h, truncated):
        m, phis, conn = miura_case(family, rank, h, truncated)
        assert_closed_form(diffop_from_oper(conn), miura_factors(phis, h), truncated)
        if family == "A":
            # the general-linear flagged system takes any diagonal, traceless or not
            rng = random.Random(f"miura:gl{rank}:{h}:{truncated}")
            phis = [miura_phi(rng, truncated) for _ in range(m.N)]
            rows = [[ONE if i == j + 1 else phis[i] if i == j else ZERO for j in range(m.N)]
                    for i in range(m.N)]
            a = F(1 - m.N, 2)
            fs = FlaggedSystem(rows, a, a + m.N, h)
            assert_closed_form(diffop_from_oper(fs), miura_factors(phis, h), truncated)

    @MIURA_INPUTS
    @pytest.mark.parametrize("h", [F(1), F(1, 2), F(0)], ids=str)
    @pytest.mark.parametrize("family,rank", SCALAR_MODELS, ids=lambda x: str(x))
    def test_normal_forms_agree(self, family, rank, h, truncated):
        m, phis, conn = miura_case(family, rank, h, truncated)
        built = oper_from_diffop(miura_factors(phis, h), MIURA_KIND[family], trunc=None)
        cf, cf_built = normalize(conn)[1], normalize(built)[1]
        assert cf.agrees(cf_built)
        if not truncated:
            assert cf == cf_built

    @MIURA_INPUTS
    @pytest.mark.parametrize("family,rank", MIURA_MODELS, ids=lambda x: str(x))
    def test_spectral_invariants_are_symmetric_functions(self, family, rank, truncated):
        m, phis, conn = miura_case(family, rank, F(0), truncated)
        e = elementary(phis)
        got = hitchin_map(normalize(conn)[1])
        assert [d.weight for d in got] == [k for k in range(2, m.N + 1)
                                          if family == "A" or k % 2 == 0]
        for d in got:
            k = int(d.weight)
            ref = e[k] if k % 2 == 0 else -e[k]
            assert d.series == ref if not truncated else no_overclaim(d.series, ref)

    @MIURA_INPUTS
    @pytest.mark.parametrize("h", [F(1), F(1, 2), F(0)], ids=str)
    @pytest.mark.parametrize("family,rank", SELF_DUAL_MODELS, ids=lambda x: str(x))
    def test_self_dual_factor_products(self, family, rank, h, truncated):
        m, phis, _ = miura_case(family, rank, h, truncated)
        op = miura_factors(phis, h)
        assert_closed_form(transpose(op), op if m.N % 2 == 0 else -op, truncated)
        back = diffop_from_oper(oper_from_diffop(op, MIURA_KIND[family]))
        # the coefficients L^t = +-L forces to vanish come back exact from the
        # canonical connection, which has no slot for them: a truncated input
        # only agrees
        assert back.agrees(op) if truncated else back == op
