"""Start-up footprint: which modules a process loads, and the records that replaced dataclasses.

Module checks run in a fresh interpreter each, because this test process has
long since imported every module.  A probe script runs ``operctl``'s entry
point (``opercalc.cli:main``) and reports its exit code and the modules that
the import and the command added to ``sys.modules``.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import opercalc
from opercalc import serialize as ser
from opercalc.diffops import DiffOp
from opercalc.dictionary import FlaggedSystem
from opercalc.gauge import CanonicalForm, GaugeElement, OperConnection, normalize
from opercalc.lie import AlgebraType, model
from opercalc.series import Density, LaurentSeries

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))

Z = LaurentSeries.monomial(1, 1)
ONE = LaurentSeries.one()
ZERO = LaurentSeries.zero()
U = LaurentSeries.from_terms({0: 3, 1: 1, 3: -2})

# opercalc.* modules that `import opercalc.cli` may load: the argument parser,
# the exit codes and the file format, and nothing of the arithmetic
CLI_BASE = {"opercalc", "opercalc.cli", "opercalc.errors", "opercalc.serialize"}

PROBE = """
import json, sys
before = set(sys.modules)
from opercalc.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else None
loaded = sorted(set(sys.modules) - before)
sys.stderr.write("\\n" + json.dumps({"code": code, "loaded": loaded}) + "\\n")
"""


def probe(*argv, cwd=None):
    """Exit code and newly loaded modules of one operctl run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *map(str, argv)], cwd=cwd,
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    return report["code"], set(report["loaded"])


def ours(loaded):
    return {m for m in loaded if m == "opercalc" or m.startswith("opercalc.")}


def write(path, obj):
    path.write_text(ser.dumps(obj))
    return path


class TestModulesLoaded:
    def test_importing_the_cli_loads_no_arithmetic(self):
        code, loaded = probe()
        assert code is None
        assert ours(loaded) == CLI_BASE
        assert "dataclasses" not in loaded and "hashlib" not in loaded

    def test_dims_loads_no_operator_modules(self):
        code, loaded = probe("dims", "--algebra", "D:4", "--genus", "2")
        assert code == 0
        assert not ours(loaded) & {"opercalc.dictionary", "opercalc.diffops", "opercalc.kernels",
                                   "opercalc.gauge"}
        assert "opercalc.lie" in loaded
        assert "hashlib" not in loaded

    def test_malformed_file_fails_before_the_library_loads(self, tmp_path):
        text = ser.dumps(ser.diffop_obj(DiffOp.from_map({2: ONE, 0: U}, 0, 2, 1)))
        bad = tmp_path / "bad.json"
        bad.write_text(text[: len(text) // 2])
        code, loaded = probe("convert", bad, "--kind", "sp")
        assert code == 1
        assert ours(loaded) == CLI_BASE

    def test_kernel_check_loads_no_connection_modules(self, tmp_path):
        hill = DiffOp.from_map({2: ONE, 0: U}, F(-1, 2), F(3, 2), 1)
        src = write(tmp_path / "hill.json", ser.diffop_obj(hill))
        code, loaded = probe("kernel-check", src)
        assert code == 0
        assert not ours(loaded) & {"opercalc.dictionary", "opercalc.gauge", "opercalc.lie",
                                   "opercalc.matrices"}

    def test_non_hill_operator_fails_before_the_dictionary_loads(self, tmp_path):
        cubic = DiffOp.from_map({3: ONE, 1: U, 0: U.derivative()}, -1, 2, 1)
        src = write(tmp_path / "op.json", ser.diffop_obj(cubic, kind="sl"))
        code, loaded = probe("kernel-check", src)
        assert code == 2
        assert not ours(loaded) & {"opercalc.dictionary", "opercalc.gauge", "opercalc.lie"}


def chain(tmp_path):
    """One run of each step of the benchmark's operctl chain, on small inputs."""
    cubic = DiffOp.from_map({3: ONE, 1: U, 0: U.derivative()}, -1, 2, 1)
    op = write(tmp_path / "op.json", ser.diffop_obj(cubic, kind="sl"))
    cf = CanonicalForm(model("A", 2), F(0), (Density(U, 2), Density(Z * U, 3)))
    conn = write(tmp_path / "conn.json", ser.connection_obj(cf.connection()))
    hill = write(tmp_path / "hill.json", ser.diffop_obj(
        DiffOp.from_map({2: ONE, 0: U}, F(-1, 2), F(3, 2), 1)))
    bad = tmp_path / "bad.json"
    bad.write_text(op.read_text()[:100])
    d = tmp_path
    return [
        (("convert", op, "--kind", "sl"), 0),
        (("normalize", d / "op.connection.json"), 0),
        (("classify", d / "op.connection.canonical.json"), 0),
        (("convert", d / "op.connection.json"), 0),
        (("normalize", conn, "--trunc", "8"), 0),
        (("hitchin", d / "conn.canonical.json"), 0),
        (("kernel", hill, "--lift", "skew", "--power", "4/3"), 0),
        (("kernel-check", hill), 0),
        (("dims", "--algebra", "B:3", "--genus", "1"), 0),
        (("selftest",), 0),
        (("convert", bad, "--kind", "sp"), 1),
        (("kernel-check", op), 2),
        (("hitchin", d / "op.connection.canonical.json"), 2),
    ]


def test_no_chain_step_loads_dataclasses(tmp_path):
    for argv, want in chain(tmp_path):
        code, loaded = probe(*argv, cwd=tmp_path)
        assert code == want, argv
        assert "dataclasses" not in loaded, argv


class TestPackage:
    def test_star_import_binds_all_from_defining_modules(self):
        script = (
            "import importlib, json, sys\n"
            "ns = {}\n"
            "exec('from opercalc import *', ns)\n"
            "del ns['__builtins__']\n"
            "import opercalc\n"
            "same = {n: ns[n] is (opercalc.__version__ if n == '__version__' else getattr(\n"
            "    importlib.import_module(ns[n].__module__), n)) for n in ns}\n"
            "where = {n: getattr(ns[n], '__module__', None) for n in ns}\n"
            "print(json.dumps({'names': sorted(ns), 'all': opercalc.__all__,\n"
            "                  'same': same, 'where': where}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=ENV,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert got["names"] == sorted(got["all"])
        assert len(got["all"]) == len(set(got["all"])) == 52
        assert all(got["same"].values())
        assert got["where"]["normalize"] == "opercalc.gauge"
        assert got["where"]["FlaggedSystem"] == "opercalc.dictionary"
        assert got["where"]["OperCalcError"] == "opercalc.errors"

    def test_names_and_submodules_resolve(self):
        assert opercalc.normalize is normalize
        assert opercalc.gauge.normalize is normalize
        assert opercalc.serialize is ser
        assert set(opercalc.__all__) <= set(dir(opercalc))
        assert {"gauge", "serialize", "cli"} <= set(dir(opercalc))
        with pytest.raises(AttributeError, match="no_such_name"):
            opercalc.no_such_name


# -- records ------------------------------------------------------------------------

M = model("A", 1)
S = LaurentSeries.from_terms({0: 3, 2: F(1, 2)}, 5)
STEP = ((ZERO, Z), (ZERO, ZERO))
Q = ((ZERO, Z), (ONE, ZERO))

# seeded instances and the reprs the dataclass versions of these records gave
RECORDS = [
    ("Density", lambda: Density(S, 2), "(3 + 1/2*z^2 + O(z^5)) (dz)^2"),
    ("AlgebraType", lambda: AlgebraType("B", 3), "AlgebraType(family='B', rank=3)"),
    ("OperConnection", lambda: OperConnection(M, F(1, 2), Q),
     "OperConnection(model=LieModel(A:1 ~ sl(2)), planck=Fraction(1, 2), "
     "q=((0, z^1), (1, 0)))"),
    ("GaugeElement", lambda: GaugeElement(M, {0: LaurentSeries.constant(2)}, [STEP]),
     "GaugeElement(model=LieModel(A:1 ~ sl(2)), torus={0: 2}, steps=[((0, z^1), (0, 0))])"),
    ("GaugeElement-identity", lambda: GaugeElement(M), "GaugeElement(model=LieModel(A:1 ~ sl(2)), torus={}, steps=[])"),
    ("CanonicalForm", lambda: CanonicalForm(M, F(0), (Density(S, 2),)),
     "CanonicalForm(model=LieModel(A:1 ~ sl(2)), planck=Fraction(0, 1), "
     "v=((3 + 1/2*z^2 + O(z^5)) (dz)^2,))"),
    ("FlaggedSystem", lambda: FlaggedSystem(Q, F(-1, 2), F(3, 2), 1),
     "FlaggedSystem(matrix=((0, z^1), (1, 0)), src=Fraction(-1, 2), "
     "tgt=Fraction(3, 2), planck=Fraction(1, 1))"),
]
FIELDS = {
    Density: ("series", "weight"),
    AlgebraType: ("family", "rank"),
    OperConnection: ("model", "planck", "q"),
    GaugeElement: ("model", "torus", "steps"),
    CanonicalForm: ("model", "planck", "v"),
    FlaggedSystem: ("matrix", "src", "tgt", "planck"),
}


@pytest.mark.parametrize("make,text", [r[1:] for r in RECORDS], ids=[r[0] for r in RECORDS])
class TestRecords:
    def test_repr(self, make, text):
        assert repr(make()) == text

    def test_eq_and_hash_follow_the_field_tuple(self, make, text):
        a, b = make(), make()
        key = tuple(getattr(a, f) for f in FIELDS[type(a)])
        assert a == b and not (a != b)
        assert a != key and key != a
        if isinstance(a, GaugeElement):  # its torus is a dict
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(key)

    def test_immutable_and_without_instance_dict(self, make, text):
        a = make()
        with pytest.raises(AttributeError):
            setattr(a, FIELDS[type(a)][0], None)
        assert not hasattr(a, "__dict__")


def test_records_differ_by_any_field():
    assert Density(S, 2) != Density(S, 3)
    assert Density(S, 2) != Density(Z, 2)
    assert AlgebraType("B", 3) != AlgebraType("C", 3)
    assert OperConnection(M, F(1), Q) != OperConnection(M, F(0), Q)
    assert GaugeElement(M) == GaugeElement(M, {}, [])
    assert GaugeElement(M) != GaugeElement(M, {0: ONE}, [])
    assert FlaggedSystem(Q, F(-1, 2), F(3, 2), 1) != FlaggedSystem(Q, F(-1, 2), F(3, 2), 0)
