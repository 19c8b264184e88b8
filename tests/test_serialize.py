"""Structured-text round trips, structural format detection, input validation.

Every writer/loader pair is checked to reproduce the object exactly; the
text layer itself is pinned byte for byte (sorted keys, embedded version,
trailing newline).  Malformed documents must fail with MalformedInputError,
never with a raw KeyError or ValueError.
"""

import json
from fractions import Fraction as F

import pytest

from opercalc import __version__
from opercalc import serialize as ser
from opercalc.diffops import DiffOp, kernel_from_diffop, pseudo_invert
from opercalc.errors import InsufficientTruncationError, MalformedInputError
from opercalc.dictionary import oper_from_diffop
from opercalc.gauge import (
    CanonicalForm,
    GaugeElement,
    OperConnection,
    gauge_apply,
    normalize,
)
from opercalc.lie import model
from opercalc.matrices import smat_combine
from opercalc.series import Density, LaurentSeries

Z = LaurentSeries.monomial(1, 1)
ONE = LaurentSeries.one()
ZERO = LaurentSeries.zero()
U = LaurentSeries.from_terms({-1: F(1, 3), 0: 2, 2: -5})
CUT = LaurentSeries.from_terms({0: 1, 1: -2}, trunc=4)


class TestRationals:
    def test_integers_have_no_slash(self):
        assert ser.rat_str(F(4)) == "4"
        assert ser.rat_str(F(-7, 1)) == "-7"

    def test_fractions_reduced(self):
        assert ser.rat_str(F(2, 6)) == "1/3"
        assert ser.rat_parse("-10/4") == F(-5, 2)

    @pytest.mark.parametrize("bad", ["", "1/0", "a", "1.5", "1/2/3", True, None, 2.5])
    def test_rejects(self, bad):
        with pytest.raises(MalformedInputError):
            ser.rat_parse(bad)


class TestRoundTrips:
    def check(self, obj, writer, loader, eq=lambda a, b: a == b):
        doc = writer(obj)
        again = json.loads(json.dumps(doc))  # force plain-text types
        assert eq(loader(again), obj)
        return doc

    def test_series_exact(self):
        doc = self.check(U, ser.series_obj, ser.series_load)
        assert doc["trunc"] is None
        assert doc["val"] == -1

    def test_series_truncated(self):
        doc = self.check(CUT, ser.series_obj, ser.series_load)
        assert doc["trunc"] == 4

    def test_series_zero(self):
        self.check(ZERO, ser.series_obj, ser.series_load)
        self.check(LaurentSeries.zero(trunc=3), ser.series_obj, ser.series_load)

    def test_density(self):
        self.check(Density(U, F(3, 2)), ser.density_obj, ser.density_load)

    def test_kernel(self):
        op = DiffOp.from_map({2: ONE, 0: U}, F(-1, 2), F(3, 2), 1)
        k = kernel_from_diffop(op).symmetrize_lift(-1, 1)
        got = ser.kernel_load(json.loads(json.dumps(ser.kernel_obj(k))))
        assert (got.w1, got.w2, got.mmin, got.mmax) == (k.w1, k.w2, k.mmin, k.mmax)
        for m in range(k.mmin, k.mmax + 1):
            assert got.coeff(m) == k.coeff(m)

    def test_algebra(self):
        for fam, rank in (("A", 2), ("B", 2), ("C", 3), ("D", 3)):
            m = ser.algebra_load(ser.algebra_obj(model(fam, rank)))
            assert (m.family, m.rank) == (fam, rank)

    def test_connection(self):
        conn = OperConnection(model("A", 1), F(1, 2), ((Z, U), (ONE, -1 * Z)))
        got = ser.connection_load(json.loads(json.dumps(ser.connection_obj(conn))))
        assert got.planck == F(1, 2)
        assert all(got.q[i][j] == conn.q[i][j] for i in range(2) for j in range(2))

    def test_canonical(self):
        cf = CanonicalForm(model("C", 2), F(1), (Density(U, 2), Density(CUT, 4)))
        doc = ser.canonical_obj(cf)
        assert doc["certified"] == 4
        assert doc["vbasis"] == model("C", 2).vbasis_fingerprint()
        got = ser.canonical_load(json.loads(json.dumps(doc)))
        assert got.agrees(cf) and cf.agrees(got)

    def test_gauge(self):
        m = model("A", 2)
        g, _ = normalize(
            OperConnection(m, F(1), ((ZERO, Z, U), (ONE, ZERO, Z), (ZERO, ONE, ZERO)))
        )
        got = ser.gauge_load(json.loads(json.dumps(ser.gauge_obj(g))))
        assert got.torus.keys() == g.torus.keys()
        assert all(got.torus[r] == g.torus[r] for r in g.torus)
        assert len(got.steps) == len(g.steps)

    @pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("B", 2), ("C", 2), ("D", 3)])
    def test_connection_and_gauge_load_back_equal(self, family, rank):
        # every series matrix is a list of lists, so a file reads back ==
        m = model(family, rank)
        dens = tuple(Density(ONE + Z * U if d % 2 else CUT, d + 1) for d in m.exponents)
        conn = CanonicalForm(m, F(1, 2), dens).connection()
        self.check(conn, ser.connection_obj, ser.connection_load)
        u1 = smat_combine([Z] * len(m.graded_basis(1)), m.graded_basis(1))
        moved = gauge_apply(conn, GaugeElement(m, {0: ONE + Z}, [u1]), trunc=6)
        g, _ = normalize(moved, trunc=6)
        self.check(g, ser.gauge_obj, ser.gauge_load)
        self.check(ser.connection_load(ser.connection_obj(moved)), ser.connection_obj,
                   ser.connection_load)

    @pytest.mark.parametrize("order", [2, 3])
    def test_sl_connection_loads_back_equal(self, order):
        a = F(1 - order, 2)
        conn = oper_from_diffop(DiffOp.from_map({order: ONE, 0: U}, a, a + order), "sl")
        assert all(type(row) is list for row in conn.q) and type(conn.q) is list
        self.check(conn, ser.connection_obj, ser.connection_load)

    def test_diffop(self):
        op = DiffOp.from_map({3: ONE, 1: U, 0: CUT}, -1, 2, F(1, 2))
        doc = self.check(
            op, ser.diffop_obj, ser.diffop_load, eq=lambda a, b: a.agrees(b)
        )
        assert "kind" not in doc
        assert ser.diffop_obj(op, kind="sl")["kind"] == "sl"

    def test_symbol(self):
        from opercalc.diffops import PseudoSymbol

        sym = PseudoSymbol(2, -3, -1, 2, 1, {2: ONE, -1: U, -3: CUT})
        got = ser.symbol_load(json.loads(json.dumps(ser.symbol_obj(sym))))
        assert got.floor == sym.floor
        for i in (2, -1, -3):
            assert got.coeff(i) == sym.coeff(i)


class TestTextLayer:
    def test_dumps_is_deterministic_and_versioned(self):
        doc = ser.series_obj(U)
        text = ser.dumps(doc)
        assert text == ser.dumps(ser.series_obj(U))
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["version"] == __version__
        assert list(parsed) == sorted(parsed)

    def test_loads_rejects_broken_text(self):
        with pytest.raises(MalformedInputError):
            ser.loads("{not json")
        with pytest.raises(MalformedInputError):
            ser.loads("[1, 2]")  # not an object


class TestDetection:
    def test_tag_wins(self):
        assert ser.detect_format({"format": "series"}) == "series"

    def test_structural_fallback(self):
        conn = OperConnection(model("A", 1), F(1), ((ZERO, U), (ONE, ZERO)))
        cases = [
            (ser.series_obj(U), "series"),
            (ser.density_obj(Density(U, 2)), "density"),
            (ser.kernel_obj(kernel_from_diffop(DiffOp.from_map({1: ONE}, 0, 1, 1))), "kernel"),
            (ser.connection_obj(conn), "connection"),
            (ser.diffop_obj(DiffOp.from_map({1: ONE}, 0, 1, 1)), "diffop"),
            (ser.canonical_obj(CanonicalForm(model("A", 1), F(1), (Density(U, 2),))), "canonical"),
            (ser.gauge_obj(GaugeElement(model("A", 1), {0: ONE}, [])), "gauge"),
            (ser.symbol_obj(pseudo_invert(DiffOp.from_map({1: ONE}, 0, 1, 1), 2)), "symbol"),
        ]
        for doc, want in cases:
            doc = json.loads(json.dumps(doc))
            doc.pop("format", None)
            assert ser.detect_format(doc) == want
            ser.load_object(doc)

    def test_unrecognizable(self):
        with pytest.raises(MalformedInputError):
            ser.detect_format({"x": 1})

    def test_unknown_tag(self):
        with pytest.raises(MalformedInputError, match="unknown format tag"):
            ser.detect_format({"format": "spinor"})

    @pytest.mark.parametrize("tag", [[], {}])
    def test_non_string_tag(self, tag):
        with pytest.raises(MalformedInputError, match="unknown format tag"):
            ser.detect_format({"format": tag})


class TestValidation:
    def doc(self, obj_fn, *args):
        return json.loads(json.dumps(obj_fn(*args)))

    def test_series_field_types(self):
        base = self.doc(ser.series_obj, U)
        for field, bad in (("val", "1"), ("trunc", "4"), ("coeffs", "1/2"),
                           ("coeffs", [0.5]), ("val", True)):
            broken = dict(base)
            broken[field] = bad
            with pytest.raises(MalformedInputError):
                ser.series_load(broken)

    def test_series_missing_field(self):
        base = self.doc(ser.series_obj, U)
        del base["val"]
        with pytest.raises(MalformedInputError):
            ser.series_load(base)

    def test_connection_shape(self):
        conn = OperConnection(model("A", 1), F(1), ((ZERO, U), (ONE, ZERO)))
        base = self.doc(ser.connection_obj, conn)
        broken = dict(base, q=base["q"][:1])
        with pytest.raises(MalformedInputError):
            ser.connection_load(broken)

    def test_canonical_fingerprint_guard(self):
        cf = CanonicalForm(model("A", 1), F(1), (Density(U, 2),))
        base = self.doc(ser.canonical_obj, cf)
        broken = dict(base, vbasis="deadbeefdeadbeef")
        with pytest.raises(MalformedInputError, match="complement basis"):
            ser.canonical_load(broken)

    def test_canonical_exponent_guard(self):
        cf = CanonicalForm(model("A", 1), F(1), (Density(U, 2),))
        base = self.doc(ser.canonical_obj, cf)
        with pytest.raises(MalformedInputError):
            ser.canonical_load(dict(base, exponents=[3]))
        with pytest.raises(MalformedInputError):
            ser.canonical_load(dict(base, v=base["v"] + base["v"]))

    def test_diffop_order_consistency(self):
        op = DiffOp.from_map({2: ONE, 0: U}, 0, 2, 1)
        base = self.doc(ser.diffop_obj, op)
        with pytest.raises(MalformedInputError):
            ser.diffop_load(dict(base, order=3))

    def test_density_needs_weight(self):
        base = self.doc(ser.density_obj, Density(U, 2))
        del base["weight"]
        with pytest.raises(MalformedInputError, match="density needs a weight"):
            ser.density_load(base)

    def test_kernel_keys_are_integers(self):
        base = self.doc(ser.kernel_obj, kernel_from_diffop(DiffOp.from_map({1: ONE}, 0, 1, 1)))
        broken = dict(base, coeffs={"x": ser.series_obj(ONE)})
        with pytest.raises(MalformedInputError, match="keys must be integers"):
            ser.kernel_load(broken)

    def test_unknown_algebra_type(self):
        with pytest.raises(MalformedInputError, match="unknown algebra type"):
            ser.algebra_load({"type": "E", "rank": 6})

    def test_gauge_names_its_algebra(self):
        base = self.doc(ser.gauge_obj, GaugeElement(model("A", 1), {0: ONE}, []))
        del base["algebra"]
        with pytest.raises(MalformedInputError, match="does not name its algebra"):
            ser.gauge_load(base)

    def test_symbol_exact_below_is_a_boolean(self):
        base = self.doc(ser.symbol_obj, pseudo_invert(DiffOp.from_map({1: ONE}, 0, 1, 1), 2))
        floor = base["floor"]
        assert base["exact_below"] is False
        with pytest.raises(InsufficientTruncationError):
            ser.symbol_load(base).coeff(floor - 1)
        assert ser.symbol_load(dict(base, exact_below=True)).coeff(floor - 1) == ZERO
        # a string, number or null would load as a truthy or falsy flag and
        # claim exact zeros below the floor that the file does not certify
        for bad in ("false", "true", 0, 1, None, []):
            with pytest.raises(MalformedInputError, match="exact_below"):
                ser.symbol_load(dict(base, exact_below=bad))

    def test_symbol_range_consistency(self):
        base = self.doc(ser.symbol_obj, pseudo_invert(DiffOp.from_map({1: ONE}, 0, 1, 1), 2))
        with pytest.raises(MalformedInputError, match="symbol range disagrees"):
            ser.symbol_load(dict(base, order=base["order"] + 1))

    def test_gauge_torus_keys(self):
        g = GaugeElement(model("A", 1), {0: ONE}, [])
        base = self.doc(ser.gauge_obj, g)
        broken = dict(base, torus={"x": base["torus"]["0"]})
        with pytest.raises(MalformedInputError):
            ser.gauge_load(broken)


class TestCaps:
    """A value at each input cap loads; one past it is malformed."""

    @pytest.mark.parametrize("field", ["val", "trunc"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_series_orders(self, field, sign):
        cap = sign * ser.MAX_ORDER
        doc = {"val": min(0, cap), "coeffs": ["1"], "trunc": None}
        s = ser.series_load(dict(doc, **{field: cap}))
        assert getattr(s, field) == cap
        with pytest.raises(MalformedInputError, match="cap"):
            ser.series_load(dict(doc, **{field: cap + sign}))

    def test_algebra_rank(self):
        assert ser.algebra_load({"type": "A", "rank": ser.MAX_RANK}).rank == ser.MAX_RANK
        for fam in "ABCD":
            with pytest.raises(MalformedInputError, match="cap"):
                ser.algebra_load({"type": fam, "rank": ser.MAX_RANK + 1})

    def test_list_length(self):
        s = ser.series_load({"val": 0, "coeffs": ["1"] * ser.MAX_ENTRIES})
        assert len(s.coeffs) == ser.MAX_ENTRIES
        with pytest.raises(MalformedInputError, match="cap"):
            ser.series_load({"val": 0, "coeffs": ["1"] * (ser.MAX_ENTRIES + 1)})

    def test_object_size(self):
        doc = {str(i): 0 for i in range(ser.MAX_ENTRIES)}
        assert ser.loads(json.dumps(doc)) == doc
        doc["x"] = 0
        with pytest.raises(MalformedInputError, match="cap"):
            ser.loads(json.dumps(doc))

    @pytest.mark.parametrize("make", [
        lambda n: "7" * n,
        lambda n: "-" + "7" * n,
        lambda n: "7" * (n // 2) + "/" + "3" * (n - n // 2),
        lambda n: int("7" * n),
    ], ids=["int-string", "negative", "fraction", "json-int"])
    def test_rational_digits(self, make):
        assert ser.rat_parse(make(ser.MAX_DIGITS)) == F(make(ser.MAX_DIGITS))
        with pytest.raises(MalformedInputError, match="cap"):
            ser.rat_parse(make(ser.MAX_DIGITS + 1))

    def test_rational_at_cap_round_trips(self):
        big = "9" * ser.MAX_DIGITS
        s = ser.series_load({"val": 0, "coeffs": [big]})
        assert ser.series_obj(s)["coeffs"] == [big]

    @pytest.mark.parametrize("text", ["[" * 100_000, '{"a": ' + "1" * 5000 + "}"],
                             ids=["deep-nesting", "long-int-literal"])
    def test_hostile_text_is_malformed(self, text):
        with pytest.raises(MalformedInputError, match="not valid structured text"):
            ser.loads(text)
