"""Command line behaviour: formats, determinism, exit codes, diagnostics.

Files written twice from the same input are compared byte for byte, the
operator -> connection -> operator loop is required to reproduce the input
file exactly, and every documented exit code is driven through main().
"""

import json
import time
from fractions import Fraction as F

import pytest

from opercalc import cli, lie
from opercalc import serialize as ser
from opercalc.diffops import DiffOp, transpose
from opercalc.gauge import (
    CanonicalForm,
    GaugeElement,
    OperConnection,
    gauge_apply,
)
from opercalc.lie import model
from opercalc.series import Density, LaurentSeries
from oracles import desingularize_componentwise

Z = LaurentSeries.monomial(1, 1)
ONE = LaurentSeries.one()
ZERO = LaurentSeries.zero()
U = LaurentSeries.from_terms({0: 3, 1: 1, 3: -2})


def write(path, obj):
    path.write_text(ser.dumps(obj))
    return str(path)


def hill_op():
    return DiffOp.from_map({2: ONE, 0: U}, F(-1, 2), F(3, 2), 1)


def run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNormalize:
    def test_companion_input_gives_minus_potential(self, tmp_path, capsys):
        conn = OperConnection(model("A", 1), F(1), ((ZERO, -1 * U), (ONE, ZERO)))
        src = write(tmp_path / "c.json", ser.connection_obj(conn))
        code, out, err = run(["normalize", src], capsys)
        assert code == 0 and err == ""
        cf = ser.canonical_load(json.loads((tmp_path / "c.canonical.json").read_text()))
        assert cf.v[0].series == -1 * U
        assert cf.v[0].weight == 2
        g = ser.gauge_load(json.loads((tmp_path / "c.gauge.json").read_text()))
        assert g.is_identity()

    def test_gauged_input_same_coordinates(self, tmp_path, capsys):
        m = model("A", 1)
        cf = CanonicalForm(m, F(1), (Density(U, 2),))
        conn = cf.connection()
        b = GaugeElement(m, {0: LaurentSeries.constant(3)}, [((ZERO, Z), (ZERO, ZERO))])
        moved = gauge_apply(conn, b)
        s1 = write(tmp_path / "a.json", ser.connection_obj(conn))
        s2 = write(tmp_path / "b.json", ser.connection_obj(moved))
        assert run(["normalize", s1], capsys)[0] == 0
        assert run(["normalize", s2], capsys)[0] == 0
        c1 = ser.canonical_load(json.loads((tmp_path / "a.canonical.json").read_text()))
        c2 = ser.canonical_load(json.loads((tmp_path / "b.canonical.json").read_text()))
        assert c1.agrees(c2)

    def test_byte_determinism(self, tmp_path, capsys):
        conn = OperConnection(model("A", 1), F(1), ((ZERO, -1 * U), (ONE, ZERO)))
        src = write(tmp_path / "c.json", ser.connection_obj(conn))
        run(["normalize", src, "--out", str(tmp_path / "r1")], capsys)
        run(["normalize", src, "--out", str(tmp_path / "r2")], capsys)
        assert (tmp_path / "r1.canonical.json").read_bytes() == \
            (tmp_path / "r2.canonical.json").read_bytes()
        assert (tmp_path / "r1.gauge.json").read_bytes() == \
            (tmp_path / "r2.gauge.json").read_bytes()

    def test_singular_scaling(self, tmp_path, capsys):
        conn = OperConnection(model("A", 1), F(1), ((Z, ZERO), (ONE, -1 * Z)))
        src = write(tmp_path / "c.json", ser.connection_obj(conn))
        zf = write(tmp_path / "z.json", ser.series_obj(Z))
        code, out, _ = run(["normalize-singular", zf, src], capsys)
        assert code == 0
        cf = ser.canonical_load(json.loads((tmp_path / "c.canonical.json").read_text()))
        assert cf.v[0].series == Z * Z + Z

    def test_truncated_zero_is_not_certified_exact(self, tmp_path, capsys):
        conn = OperConnection(model("A", 1), F(1), ((ZERO, LaurentSeries.zero(5)), (ONE, ZERO)))
        src = write(tmp_path / "c.json", ser.connection_obj(conn))
        code, out, err = run(["normalize", src], capsys)
        assert code == 0 and err == ""
        assert "c.canonical.json (certified order: 5)" in out
        cf = ser.canonical_load(json.loads((tmp_path / "c.canonical.json").read_text()))
        assert cf.v[0].series == LaurentSeries.zero(5)


class TestDesingularize:
    def test_exact_non_monomial_scaling_with_trunc(self, tmp_path, capsys):
        cf = CanonicalForm(model("A", 1), F(1), (Density(U, 2),))
        src = write(tmp_path / "cf.json", ser.canonical_obj(cf))
        f = LaurentSeries.from_terms({1: 1, 2: 3})
        fsrc = write(tmp_path / "f.json", ser.series_obj(f))
        code, out, err = run(["desingularize", fsrc, src, "--trunc", 10], capsys)
        assert code == 0 and err == ""
        got = ser.canonical_load(
            json.loads((tmp_path / "cf.desingularized.json").read_text()))
        cw = desingularize_componentwise(f, cf, trunc=10)
        assert got.agrees(cw)
        assert got.v[0].series.trunc >= cw.v[0].series.trunc == 10


class TestConvert:
    def test_round_trip_is_bit_identical(self, tmp_path, capsys):
        src = write(tmp_path / "op.json", ser.diffop_obj(hill_op(), kind="sl"))
        assert run(["convert", src], capsys)[0] == 0
        assert run(["convert", tmp_path / "op.connection.json"], capsys)[0] == 0
        back = (tmp_path / "op.connection.diffop.json").read_bytes()
        assert back == (tmp_path / "op.json").read_bytes()

    def test_sl_also_writes_reconciling_torus(self, tmp_path, capsys):
        src = write(tmp_path / "op.json", ser.diffop_obj(hill_op(), kind="sl"))
        run(["convert", src], capsys)
        g = ser.gauge_load(json.loads((tmp_path / "op.torus.json").read_text()))
        assert g.steps == []

    def test_gl_round_trip_through_flagged(self, tmp_path, capsys):
        op = DiffOp.from_map({3: ONE, 2: U, 0: Z}, 0, 3, 1)
        src = write(tmp_path / "op.json", ser.diffop_obj(op, kind="gl"))
        assert run(["convert", src], capsys)[0] == 0
        assert (tmp_path / "op.flagged.json").exists()
        assert run(["convert", tmp_path / "op.flagged.json"], capsys)[0] == 0
        back = (tmp_path / "op.flagged.diffop.json").read_bytes()
        assert back == (tmp_path / "op.json").read_bytes()

    def test_non_unit_symbol_exits_2(self, tmp_path, capsys):
        op = DiffOp.from_map({2: 2 * ONE, 0: U}, F(-1, 2), F(3, 2), 1)
        src = write(tmp_path / "op.json", ser.diffop_obj(op))
        code, _, err = run(["convert", src, "--kind", "sl"], capsys)
        assert code == 2
        assert err.startswith("operctl: code=2 kind=")

    def test_missing_kind_exits_1(self, tmp_path, capsys):
        src = write(tmp_path / "op.json", ser.diffop_obj(hill_op()))
        code, _, err = run(["convert", src], capsys)
        assert code == 1 and "kind" in err


class TestKernel:
    def test_power_one_is_identity(self, tmp_path, capsys):
        src = write(tmp_path / "op.json", ser.diffop_obj(hill_op()))
        run(["kernel", src, "--out", str(tmp_path / "plain")], capsys)
        run(["kernel", src, "--power", "1", "--out", str(tmp_path / "p1")], capsys)
        assert (tmp_path / "plain.kernel.json").read_bytes() == \
            (tmp_path / "p1.kernel.json").read_bytes()

    def test_lift_and_power_range(self, tmp_path, capsys):
        src = write(tmp_path / "op.json", ser.diffop_obj(hill_op()))
        code, _, _ = run(
            ["kernel", src, "--lift", "skew", "--power", "4/3"], capsys
        )
        assert code == 0
        k = ser.kernel_load(json.loads((tmp_path / "op.kernel.json").read_text()))
        assert (k.mmin, k.mmax) == (-4, -1)
        assert k.coeff(-2) == U * F(2, 3)
        assert k.coeff(-1) == U.derivative() * F(1, 3)

    def test_check_passes_and_prints_sides(self, tmp_path, capsys):
        src = write(tmp_path / "op.json", ser.diffop_obj(hill_op()))
        code, out, err = run(["kernel-check", src], capsys)
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        names = [ln.split()[0] for ln in lines]
        assert names == ["check=pow43", "check=pow23", "check=swap", "check=roundtrip"]
        for ln in lines:
            assert "result=pass" in ln and "lhs={" in ln and "rhs={" in ln

    def test_check_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        src = write(tmp_path / "op.json", ser.diffop_obj(hill_op()))

        def rigged(op, names):
            yield "pow43", {}, {}, False

        monkeypatch.setattr(cli, "_kernel_checks", rigged)
        code, out, err = run(["kernel-check", src], capsys)
        assert code == 4
        assert "result=fail" in out
        assert err.startswith("operctl: code=4 kind=IdentityCheckError")

    def test_check_needs_vanishing_subprincipal(self, tmp_path, capsys):
        op = DiffOp.from_map({2: ONE, 1: Z, 0: U}, F(-1, 2), F(3, 2), 1)
        src = write(tmp_path / "op.json", ser.diffop_obj(op))
        code, out, err = run(["kernel-check", src, "--check", "pow43"], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("operctl: code=2 ")
        assert "subprincipal coefficient must vanish" in err

    def test_check_needs_window(self, tmp_path, capsys):
        op = DiffOp.from_map({2: ONE, 0: U}, 0, 2, 1)
        src = write(tmp_path / "op.json", ser.diffop_obj(op))
        code, _, _ = run(["kernel-check", src, "--check", "pow43"], capsys)
        assert code == 2


class TestPairCommands:
    def test_sl2_o3_files(self, tmp_path, capsys):
        src = write(tmp_path / "u.json", ser.density_obj(Density(U, 2)))
        code, _, _ = run(["sl2-o3", src], capsys)
        assert code == 0
        conn = ser.connection_load(json.loads((tmp_path / "u.connection.json").read_text()))
        assert conn.q[0][1].agrees(-2 * U)
        op = ser.diffop_load(json.loads((tmp_path / "u.diffop.json").read_text()))
        assert op.coeff(1).agrees(4 * U)

    def test_so_even_build_extract_loop(self, tmp_path, capsys):
        m3 = DiffOp.from_map({3: ONE, 1: U, 0: Z}, -1, 2, 1)
        skew = F(1, 2) * (m3 - transpose(m3))
        opf = write(tmp_path / "op.json", ser.diffop_obj(skew))
        df = write(tmp_path / "f.json", ser.density_obj(Density(U, 2)))
        assert run(["so-even-build", opf, df], capsys)[0] == 0
        conn = tmp_path / "op.connection.json"
        assert run(["so-even-extract", conn, "--out", str(tmp_path / "back")], capsys)[0] == 0
        op2 = ser.diffop_load(json.loads((tmp_path / "back.diffop.json").read_text()))
        f2 = ser.density_load(json.loads((tmp_path / "back.density.json").read_text()))
        assert op2.agrees(skew)
        assert f2.series.agrees(U)

    def test_dualize_flag_reversal(self, tmp_path, capsys):
        op = DiffOp.from_map({3: ONE, 1: U, 0: Z}, -1, 2, 1)
        from opercalc.dictionary import companion_system

        src = write(tmp_path / "fs.json", ser.flagged_obj(companion_system(op)))
        assert run(["dualize", src], capsys)[0] == 0
        fs = ser.flagged_load(json.loads((tmp_path / "fs.dual.json").read_text()))
        assert (fs.src, fs.tgt) == (F(-1), F(2))
        from opercalc.dictionary import diffop_from_oper

        assert diffop_from_oper(fs, trunc=16).agrees(-transpose(op))

    def test_transpose(self, tmp_path, capsys):
        src = write(tmp_path / "op.json", ser.diffop_obj(hill_op()))
        assert run(["transpose", src], capsys)[0] == 0
        got = ser.diffop_load(json.loads((tmp_path / "op.transpose.json").read_text()))
        assert got.agrees(hill_op())  # self-adjoint

    @pytest.mark.parametrize("kind", [7, []])
    def test_transpose_rejects_unknown_kind(self, tmp_path, capsys, kind):
        src = write(tmp_path / "op.json", dict(ser.diffop_obj(hill_op()), kind=kind))
        code, _, err = run(["transpose", src], capsys)
        assert code == 1
        assert err.startswith("operctl: code=1 ") and err.count("\n") == 1
        assert f"unknown kind {kind!r}" in err
        assert not (tmp_path / "op.transpose.json").exists()


def dims_raising(exc, monkeypatch, capsys):
    """Run `dims` with its command replaced by one that raises exc."""
    def boom(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_dims", boom)
    return run(["dims", "--algebra", "A:1", "--genus", "2"], capsys)


class TestInternalErrors:
    @pytest.mark.parametrize("exc", [AssertionError("nilpotent sum failed to terminate"),
                                     ZeroDivisionError('inverse of the "zero" series'),
                                     AttributeError("'NoneType' object has no attribute 'q'"),
                                     KeyError("coeffs"),
                                     RecursionError("maximum recursion depth exceeded")])
    def test_internal_error_is_one_line_exit_5(self, exc, monkeypatch, capsys):
        def boom(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_dims", boom)
        code, out, err = run(["dims", "--algebra", "A:1", "--genus", "2"], capsys)
        assert code == 5 and out == ""
        msg = str(exc).replace('"', "'")
        assert err == f'operctl: code=5 kind={type(exc).__name__} msg="{msg}"\n'

    def test_multiline_message_folds_onto_one_line(self, monkeypatch, capsys):
        _, _, err = dims_raising(AssertionError("first line\nsecond line\r\nthird"),
                                 monkeypatch, capsys)
        assert err == 'operctl: code=5 kind=AssertionError msg="first line second line third"\n'


class TestBoundedDiagnostics:
    def test_huge_malformed_coefficient_is_clipped(self, tmp_path, capsys):
        obj = ser.diffop_obj(hill_op(), kind="sl")
        obj["coeffs"][0]["coeffs"][0] = "1x" + "7" * 200000
        src = tmp_path / "op.json"
        src.write_text(json.dumps(obj))
        code, out, err = run(["convert", src, "--kind", "sl"], capsys)
        assert code == 1 and out == ""
        assert len(err.encode()) < 1024 and err.count("\n") == 1
        assert err.startswith("operctl: code=1 kind=MalformedInputError msg=")
        assert "'1x777" in err and err.endswith(' chars)"\n')

    def test_message_at_the_cap_is_kept_whole(self, monkeypatch, capsys):
        msg = "m" * cli.MSG_CAP
        _, _, err = dims_raising(AssertionError(msg), monkeypatch, capsys)
        assert err == f'operctl: code=5 kind=AssertionError msg="{msg}"\n'

    def test_message_past_the_cap_keeps_prefix_and_length(self, monkeypatch, capsys):
        msg = "ab" * cli.MSG_CAP
        _, _, err = dims_raising(AssertionError(msg), monkeypatch, capsys)
        clipped = msg[:cli.MSG_CAP] + f"...({len(msg)} chars)"
        assert err == f'operctl: code=5 kind=AssertionError msg="{clipped}"\n'


class TestTables:
    def test_dims_rows_and_total(self, capsys):
        code, out, _ = run(["dims", "--algebra", "A:2", "--genus", "2"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "algebra sl(3) genus 2 twist 0",
            "d=1 k=2 dim=3",
            "d=2 k=3 dim=5",
            "total 8",
        ]

    def test_dims_rank1(self, capsys):
        code, out, _ = run(["dims", "--algebra", "A:1", "--genus", "2"], capsys)
        assert code == 0 and out.splitlines()[-1] == "total 3"
        code, out, _ = run(["dims", "--algebra", "A:1", "--genus", "1"], capsys)
        assert code == 0 and out.splitlines()[-1] == "total 1"

    def test_dims_accepts_aliases(self, capsys):
        assert run(["dims", "--algebra", "sl:3", "--genus", "2"], capsys) == \
            run(["dims", "--algebra", "A:2", "--genus", "2"], capsys)

    def test_dims_huge_rank_builds_no_model(self, capsys):
        # dims needs only the exponents; a model of A:100000 would be N x N data
        start = time.perf_counter()
        code, out, _ = run(["dims", "--algebra", "A:100000", "--genus", "2"], capsys)
        assert code == 0 and time.perf_counter() - start < 20
        lines = out.splitlines()
        assert lines[0] == "algebra sl(100001) genus 2 twist 0" and len(lines) == 100002
        assert lines[-1] == f"total {100000**2 + 2 * 100000}"  # sum of 2d + 1, d = 1..n
        assert ("A", 100000) not in lie._MODELS

    def test_file_over_the_rank_cap_exits_1_without_a_model(self, tmp_path, capsys):
        # 86 bytes that would otherwise build the model of A:48 first
        src = tmp_path / "big.json"
        src.write_text('{"format": "canonical", "algebra": {"type": "A", "rank": 48}, '
                       '"planck": "1", "v": []}')
        start = time.perf_counter()
        code, out, err = run(["classify", src], capsys)
        assert code == 1 and out == "" and time.perf_counter() - start < 5
        assert "over the cap" in err and len(err.splitlines()) == 1
        assert ("A", 48) not in lie._MODELS

    def test_dims_unknown_algebra_exits_1(self, capsys):
        code, out, err = run(["dims", "--algebra", "Q:2", "--genus", "2"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("operctl: code=1 ")

    @pytest.mark.parametrize("algebra,family,rank", [("A:0", "A", 0), ("D:1", "D", 1)])
    def test_dims_rank_out_of_range_exits_1(self, capsys, algebra, family, rank):
        code, out, err = run(["dims", "--algebra", algebra, "--genus", "2"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("operctl: code=1 ")
        assert f"rank {rank} out of range for family {family}" in err

    def test_classify_table(self, tmp_path, capsys):
        cf = CanonicalForm(
            model("A", 1), F(1), (Density(LaurentSeries.from_terms({-2: 5, 0: 1}), 2),)
        )
        src = write(tmp_path / "cf.json", ser.canonical_obj(cf))
        code, out, _ = run(["classify", src], capsys)
        assert code == 0
        assert out.splitlines() == ["multiplicity 1", "d=1 pole=2 bound=2"]

    def test_hitchin_needs_planck_zero(self, tmp_path, capsys):
        cf = CanonicalForm(model("A", 1), F(1), (Density(U, 2),))
        src = write(tmp_path / "cf.json", ser.canonical_obj(cf))
        code, _, err = run(["hitchin", src], capsys)
        assert code == 2 and "code=2" in err

    def test_hitchin_zero_coordinates_zero_invariants(self, tmp_path, capsys):
        cf = CanonicalForm(model("A", 1), F(0), (Density(ZERO, 2),))
        src = write(tmp_path / "cf.json", ser.canonical_obj(cf))
        code, _, _ = run(["hitchin", src], capsys)
        assert code == 0
        inv = json.loads((tmp_path / "cf.invariants.json").read_text())
        assert all(not e["coeffs"] for e in inv["invariants"])


class TestDiagnostics:
    def test_unparseable_file_exits_1(self, tmp_path, capsys):
        p = tmp_path / "x.json"
        p.write_text("not structured text")
        code, _, err = run(["normalize", str(p)], capsys)
        assert code == 1
        assert err.startswith('operctl: code=1 kind=MalformedInputError msg="')
        assert err.count("\n") == 1

    def test_huge_certified_order_exits_1_at_once(self, tmp_path, capsys):
        # a file of a few hundred bytes asking for two million certified orders
        hill = ser.diffop_obj(hill_op(), kind="sl")
        hill["coeffs"][0] = {"val": 0, "coeffs": ["3", "1"], "trunc": 2_000_000}
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(hill))
        start = time.perf_counter()
        code, out, err = run(["convert", str(p), "--kind", "sl"], capsys)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == "" and "over the cap" in err
        assert err.count("\n") == 1
        assert sorted(x.name for x in tmp_path.iterdir()) == ["huge.json"]

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run(["normalize", str(tmp_path / "absent.json")], capsys)
        assert code == 1 and "cannot read" in err

    def test_out_into_a_missing_directory_exits_1(self, tmp_path, capsys):
        conn = OperConnection(model("A", 1), F(1), ((ZERO, -1 * U), (ONE, ZERO)))
        src = write(tmp_path / "c.json", ser.connection_obj(conn))
        code, out, err = run(["normalize", src, "--out", tmp_path / "absent" / "r"], capsys)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("operctl: code=1 ")
        assert "cannot write" in err and not (tmp_path / "absent").exists()

    def test_canonical_weight_off_its_exponent_exits_2(self, tmp_path, capsys):
        obj = ser.canonical_obj(CanonicalForm(model("A", 1), F(0), (Density(U, 2),)))
        obj["v"][0]["weight"] = 3
        src = write(tmp_path / "cf.json", obj)
        code, out, err = run(["hitchin", src], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("operctl: code=2 ")
        assert "density for exponent 1 must have weight 2, got 3" in err

    def test_convert_non_unit_subdiagonal_exits_2(self, tmp_path, capsys):
        conn = OperConnection(model("A", 1), F(1), ((ZERO, U), (Z, ZERO)))
        src = write(tmp_path / "c.json", ser.connection_obj(conn))
        code, out, err = run(["convert", src], capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "kind=NotAnOperError" in err
        assert "subdiagonal entry at row 1 is not invertible" in err

    def test_wrong_format_exits_1(self, tmp_path, capsys):
        src = write(tmp_path / "op.json", ser.diffop_obj(hill_op()))
        code, _, err = run(["normalize", src], capsys)
        assert code == 1 and "expected connection" in err

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        src = write(tmp_path / "op.json", ser.diffop_obj(hill_op()))
        code, _, err = run(["transpose", src, "--bogus"], capsys)
        assert code == 1

    def test_not_an_oper_exits_2(self, tmp_path, capsys):
        m = model("A", 1)
        conn = OperConnection(m, F(1), ((ZERO, U), (Z, ZERO)))  # vanishing subdiag at 0
        src = write(tmp_path / "c.json", ser.connection_obj(conn))
        code, _, err = run(["normalize", src], capsys)
        assert code == 2 and "kind=NotAnOperError" in err

    def test_insufficient_truncation_exits_3(self, tmp_path, capsys, monkeypatch):
        from opercalc.errors import InsufficientTruncationError

        src = write(
            tmp_path / "c.json",
            ser.connection_obj(OperConnection(model("A", 1), F(1), ((ZERO, U), (ONE, ZERO)))),
        )

        def starved(conn, trunc=None, deriv=None):
            raise InsufficientTruncationError("needs more certified orders")

        monkeypatch.setattr("opercalc.gauge.normalize", starved)
        code, _, err = run(["normalize", src], capsys)
        assert code == 3 and "kind=InsufficientTruncationError" in err

    @pytest.mark.parametrize("command", ["normalize", "classify"])
    def test_non_string_format_tag_exits_1(self, tmp_path, capsys, command):
        conn = OperConnection(model("A", 1), F(1), ((ZERO, U), (ONE, ZERO)))
        src = write(tmp_path / "c.json", dict(ser.connection_obj(conn), format=[]))
        code, out, err = run([command, src], capsys)
        assert code == 1 and out == ""
        assert err.startswith("operctl: code=1 kind=MalformedInputError ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["classify", "hitchin"])
    def test_non_list_exponents_exit_1(self, tmp_path, capsys, command):
        cf = CanonicalForm(model("A", 1), F(0), (Density(U, 2),))
        src = write(tmp_path / "cf.json", dict(ser.canonical_obj(cf), exponents=7))
        code, out, err = run([command, src], capsys)
        assert code == 1 and out == ""
        assert err.startswith("operctl: code=1 kind=MalformedInputError ") and err.count("\n") == 1
        assert "exponents must be an array" in err

    def test_fingerprint_mismatch_exits_1(self, tmp_path, capsys):
        cf = CanonicalForm(model("A", 1), F(0), (Density(U, 2),))
        obj = ser.canonical_obj(cf)
        obj["vbasis"] = "0" * 16
        src = write(tmp_path / "cf.json", obj)
        code, _, err = run(["hitchin", src], capsys)
        assert code == 1 and "different complement basis" in err


class TestSelftest:
    def test_all_pass(self, capsys):
        code, out, err = run(["selftest"], capsys)
        assert code == 0 and err == ""
        lines = out.strip().splitlines()
        assert len(lines) >= 9
        assert all(ln.startswith("selftest ") and ln.endswith(" pass") for ln in lines)
