"""Hostile input files through every operctl command, in process.

Each case takes valid files of every format, mutates them, and runs one
command on them through ``cli.main``.  Structural mutations replace or
delete one to three fields anywhere in a file (integers, integers past the
caps, bad rationals, nulls, lists, objects); byte-level ones cut the text
short, break its UTF-8, nest arrays deeply or repeat a key.  Whatever the
file, the command must end with an exit code from 0 to 4, print one
``operctl: code=`` line on the standard error stream when it fails and
nothing there when it succeeds, print no traceback, and finish within
``CASE_SECONDS``.  Exit 5, an internal error, is a defect of the library.

The integers a mutation writes are small (at most 300) or past the caps, so
the cases do not reach the unbounded work that a huge certified order within
the caps can ask for.
"""

import copy
import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from opercalc import cli
from opercalc import serialize as ser
from opercalc.diffops import DiffOp, kernel_from_diffop, pseudo_invert
from opercalc.dictionary import companion_system, so_even_build
from opercalc.gauge import CanonicalForm, GaugeElement, OperConnection
from opercalc.lie import model
from opercalc.series import Density, LaurentSeries

CASE_SECONDS = 10  # far above any case here; a hang or a runaway loop fails

Z = LaurentSeries.monomial(1, 1)
ONE = LaurentSeries.one()
ZERO = LaurentSeries.zero()
U = LaurentSeries.from_terms({0: 3, 1: 1, 3: -2})


def _files():
    """One small valid file object per format (two each for the connection,
    canonical, diffop and density formats), keyed by name."""
    hill = DiffOp.from_map({2: ONE, 0: U}, F(-1, 2), F(3, 2), 1)
    cubic = DiffOp.from_map({3: ONE, 1: 4 * U, 0: 2 * U.derivative()}, -1, 2, 1)
    f2 = Density(LaurentSeries.from_terms({0: 1, 1: 2}), 2)
    m = model("A", 1)
    step = ((ZERO, Z), (ZERO, ZERO))
    return {
        "connection": ser.connection_obj(OperConnection(m, F(1), ((ZERO, -1 * U), (ONE, ZERO)))),
        "connection_d": ser.connection_obj(so_even_build(cubic, f2)[0]),
        "flagged": ser.flagged_obj(companion_system(hill)),
        "canonical": ser.canonical_obj(CanonicalForm(m, F(1), (Density(U, 2),))),
        "canonical_0": ser.canonical_obj(CanonicalForm(m, F(0), (Density(U, 2),))),
        "gauge": ser.gauge_obj(GaugeElement(m, {0: LaurentSeries.constant(3)}, [step])),
        "diffop": ser.diffop_obj(hill, kind="sl"),
        "diffop_3": ser.diffop_obj(cubic, kind="so_odd"),
        "symbol": ser.symbol_obj(pseudo_invert(DiffOp.from_map({1: ONE}, 0, 1, 1), 2)),
        "kernel": ser.kernel_obj(kernel_from_diffop(hill)),
        "density": ser.density_obj(Density(U, 2)),
        "density_2": ser.density_obj(f2),
        "series": ser.series_obj(Z + Z * Z),
    }


FILES = _files()

# each command with the file each of its inputs expects, and its flags
COMMANDS = [
    ("normalize", ["connection"], []),
    ("normalize-singular", ["series", "connection"], []),
    ("desingularize", ["series", "canonical"], []),
    ("classify", ["canonical"], []),
    ("convert", ["diffop"], ["--kind", "sl"]),
    ("convert", ["diffop_3"], ["--kind", "so_odd"]),
    ("convert", ["diffop"], []),
    ("convert", ["connection"], []),
    ("convert", ["flagged"], []),
    ("transpose", ["diffop"], []),
    ("dualize", ["flagged"], []),
    ("dualize", ["connection"], []),
    ("kernel", ["diffop"], ["--power", "4/3", "--lift", "skew"]),
    ("kernel-check", ["diffop"], []),
    ("sl2-o3", ["density"], []),
    ("so-even-build", ["diffop_3", "density_2"], []),
    ("so-even-extract", ["connection_d"], []),
    ("hitchin", ["canonical_0"], []),
    ("dims", [], ["--algebra", "B:2", "--genus", "2"]),
    ("selftest", [], []),
]

VALUES = [0, 1, -1, 7, 300, 2**63, -(10**30), 10**4100, "1/0", "x", "1.5", "--1", "",
          None, [], [None], [1, 2], {}, {"val": 0}, True, 1.5]


def _paths(obj, path=()):
    """Every position in a parsed file: object keys and array indices."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for k, v in items:
        yield path + (k,)
        yield from _paths(v, path + (k,))


@st.composite
def st_structural(draw, obj):
    """obj with one to three fields replaced or deleted; top-level keys half the time."""
    obj = json.loads(json.dumps(obj))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(obj))
        if not paths:
            break
        top = [p for p in paths if len(p) == 1]
        path = draw(st.sampled_from(top if top and draw(st.booleans()) else paths))
        parent = obj
        for k in path[:-1]:
            parent = parent[k]
        if isinstance(parent, dict) and draw(st.integers(0, 5)) == 5:
            del parent[path[-1]]
        else:
            # a copy, so that a later mutation of this case cannot reach into VALUES
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return json.dumps(obj).encode()


@st.composite
def st_bytes(draw, obj):
    """The text of obj cut short, with invalid UTF-8, deeply nested, or with a repeated key."""
    text = json.dumps(obj, indent=2).encode()
    how = draw(st.sampled_from(["cut", "utf8", "nest", "duplicate"]))
    at = draw(st.integers(0, len(text)))
    if how == "cut":
        return text[:at]
    if how == "utf8":
        return text[:at] + draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\xed\xa0\x80"])) + text[at:]
    key = draw(st.sampled_from(sorted(obj)))
    if how == "nest":
        depth = draw(st.sampled_from([50, 5000, 100_000]))
        value = "[" * depth + "]" * depth
    else:
        value = json.dumps(draw(st.sampled_from(VALUES)))
    return b"{" + json.dumps(key).encode() + b": " + value.encode() + b"," + text[1:]


@st.composite
def st_blobs(draw, inputs):
    """The bytes of each input file: a mutation of the file the command expects,
    or one time in four of a file of any format."""
    blobs = []
    for want in inputs:
        base = FILES[draw(st.sampled_from(sorted(FILES)))] if draw(st.integers(0, 3)) == 3 \
            else FILES[want]
        mutate = st_structural if draw(st.integers(0, 2)) else st_bytes
        blobs.append(draw(mutate(base)))
    return blobs


def run_case(name, blobs, flags):
    """Exit code, stdout, stderr and seconds of one operctl run on the blobs."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, blob in enumerate(blobs):
            path = Path(tmp) / f"in{i}.json"
            path.write_bytes(blob)
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([name, *paths, *flags])
        return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def test_valid_files_exit_0():
    for name, inputs, flags in COMMANDS:
        blobs = [json.dumps(FILES[k]).encode() for k in inputs]
        code, _, err, _ = run_case(name, blobs, flags)
        assert (code, err) == (0, ""), (name, inputs, err)


@pytest.mark.parametrize("name,inputs,flags", COMMANDS,
                         ids=[":".join([c[0], "+".join(c[1]), *c[2][1::2]]) for c in COMMANDS])
@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(data=st.data())
def test_hostile_files_end_in_a_documented_exit(name, inputs, flags, data):
    blobs = data.draw(st_blobs(inputs)) if inputs else []
    code, out, err, secs = run_case(name, blobs, flags)
    assert 0 <= code <= 4, err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(f"operctl: code={code} ") and err.count("\n") == 1, err
    assert "Traceback" not in out + err
    assert secs < CASE_SECONDS
