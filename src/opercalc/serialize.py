"""Shared structured-text formats for every object the command line touches.

Rationals are decimal-free strings ("p/q" or "p"), series carry their
valuation, coefficient list and certified order (``null`` = exact Laurent
polynomial), matrices are row-major arrays of series objects.  Canonical-form
files embed the complement-basis fingerprint and every file written by the
CLI embeds the library version, so outputs are comparable across runs and
byte-identical for identical inputs.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import __version__
from .errors import MalformedInputError

if TYPE_CHECKING:  # annotations only: each loader imports its classes when called
    from .diffops import DiffOp, PseudoSymbol
    from .dictionary import FlaggedSystem
    from .gauge import CanonicalForm, GaugeElement, OperConnection
    from .kernels import BiKernel
    from .lie import LieModel
    from .series import Density, LaurentSeries

# Input caps.  A file within them loads exactly as it would without them; one
# beyond them is malformed (exit 1), so that a few hundred bytes cannot ask for
# millions of coefficients.  Each cap sits far above every file the tests and
# the benchmark feed to operctl or have it write.
MAX_ORDER = 10_000  # |x| of every integer field: series val and trunc, orders, ranks
MAX_ENTRIES = 10_000  # items in one array or object
# decimal digits of one rational, numerator and denominator together; below
# CPython's default limit of 4300 digits on int <-> str conversion
MAX_DIGITS = 4_000
# rank of an algebra named in a file, whose model is built before the rest of
# the file is checked; the build grows steeply with the rank, and C:12, the
# slowest family at the cap, takes about 0.6 s with every Kostant splitting
# (Python 3.11.7, 2 vCPUs)
MAX_RANK = 12
_INT_CAP = 10**MAX_DIGITS


def rat_str(x) -> str:
    return str(Fraction(x))


_RAT = re.compile(r"-?\d+(/\d+)?\Z")


def rat_parse(s) -> Fraction:
    try:
        if isinstance(s, bool):
            raise ValueError
        if isinstance(s, int):
            if abs(s) >= _INT_CAP:
                raise MalformedInputError(f"rational over the cap of {MAX_DIGITS} digits")
            return Fraction(s)
        if isinstance(s, str) and _RAT.match(s):
            if len(s) - s.startswith("-") - ("/" in s) > MAX_DIGITS:
                raise MalformedInputError(f"rational over the cap of {MAX_DIGITS} digits")
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    raise MalformedInputError(f"not an exact rational: {s!r}")


def _int(x, what) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise MalformedInputError(f"{what} must be an integer, got {x!r}")
    if abs(x) > MAX_ORDER:
        raise MalformedInputError(f"{what} is over the cap of {MAX_ORDER} in absolute value")
    return x


def _dict(x, what) -> dict:
    if not isinstance(x, dict):
        raise MalformedInputError(f"{what} must be an object, got {type(x).__name__}")
    if len(x) > MAX_ENTRIES:
        raise MalformedInputError(f"{what} has {len(x)} entries, over the cap of {MAX_ENTRIES}")
    return x


def _list(x, what) -> list:
    if not isinstance(x, list):
        raise MalformedInputError(f"{what} must be an array, got {type(x).__name__}")
    if len(x) > MAX_ENTRIES:
        raise MalformedInputError(f"{what} has {len(x)} entries, over the cap of {MAX_ENTRIES}")
    return x


# -- series and densities ---------------------------------------------------------


def series_obj(s: LaurentSeries) -> dict:
    return {
        "val": s.val,
        "trunc": s.trunc,
        "coeffs": [rat_str(c) for c in s.coeffs],
    }


def certified_order(obj) -> Optional[int]:
    """Least certified order among the series objects in a file object; None when all are exact."""
    if isinstance(obj, dict):
        ts = [certified_order(v) for v in obj.values()]
        if "coeffs" in obj and "val" in obj:
            ts.append(obj.get("trunc"))
    elif isinstance(obj, list):
        ts = [certified_order(v) for v in obj]
    else:
        return None
    return min((t for t in ts if t is not None), default=None)


def series_load(obj) -> LaurentSeries:
    from .series import LaurentSeries

    obj = _dict(obj, "series")
    if "val" not in obj or "coeffs" not in obj:
        raise MalformedInputError("series needs 'val' and 'coeffs' fields")
    val = _int(obj["val"], "series val")
    trunc = obj.get("trunc")
    if trunc is not None:
        trunc = _int(trunc, "series trunc")
    coeffs = [rat_parse(c) for c in _list(obj["coeffs"], "series coeffs")]
    return LaurentSeries(val, coeffs, trunc)


def density_obj(d: Density) -> dict:
    out = series_obj(d.series)
    out["weight"] = rat_str(d.weight)
    return out


def density_load(obj) -> Density:
    from .series import Density

    obj = _dict(obj, "density")
    if "weight" not in obj:
        raise MalformedInputError("density needs a weight")
    return Density(series_load(obj), rat_parse(obj["weight"]))


# -- kernels -----------------------------------------------------------------------


def kernel_obj(k: BiKernel) -> dict:
    return {
        "w1": rat_str(k.w1),
        "w2": rat_str(k.w2),
        "mmin": k.mmin,
        "mmax": k.mmax,
        "coeffs": {str(m): series_obj(k.coeff(m)) for m in range(k.mmin, k.mmax + 1)},
    }


def kernel_load(obj) -> BiKernel:
    from .kernels import BiKernel

    obj = _dict(obj, "kernel")
    try:
        coeffs = {
            int(m): series_load(s)
            for m, s in _dict(obj.get("coeffs", {}), "kernel coeffs").items()
        }
    except ValueError:
        raise MalformedInputError("kernel coefficient keys must be integers")
    return BiKernel(
        rat_parse(obj.get("w1", 0)),
        rat_parse(obj.get("w2", 0)),
        _int(obj.get("mmin", 0), "kernel mmin"),
        _int(obj.get("mmax", -1), "kernel mmax"),
        coeffs,
    )


# -- algebras and matrices ----------------------------------------------------------


def algebra_obj(m: LieModel) -> dict:
    return {"type": m.family, "rank": m.rank}


def algebra_load(obj) -> LieModel:
    from .lie import model

    obj = _dict(obj, "algebra")
    fam = obj.get("type")
    if fam not in ("A", "B", "C", "D"):
        raise MalformedInputError(f"unknown algebra type {fam!r}")
    rank = _int(obj.get("rank"), "algebra rank")
    if rank > MAX_RANK:
        raise MalformedInputError(f"algebra rank {rank} is over the cap of {MAX_RANK}")
    return model(fam, rank)


def matrix_obj(q) -> list:
    return [[series_obj(c) for c in row] for row in q]


def matrix_load(obj):
    rows = _list(obj, "matrix")
    return [[series_load(c) for c in _list(r, "matrix row")] for r in rows]


# -- connections, canonical forms, gauges -------------------------------------------


def connection_obj(conn: OperConnection) -> dict:
    return {
        "format": "connection",
        "algebra": algebra_obj(conn.model),
        "planck": rat_str(conn.planck),
        "q": matrix_obj(conn.q),
    }


def connection_load(obj) -> OperConnection:
    from .gauge import OperConnection

    obj = _dict(obj, "connection")
    m = algebra_load(obj.get("algebra"))
    conn = OperConnection(m, rat_parse(obj.get("planck", 1)), matrix_load(obj.get("q")))
    if len(conn.q) != m.N or any(len(r) != m.N for r in conn.q):
        raise MalformedInputError(f"connection matrix must be {m.N}x{m.N}")
    return conn


def flagged_obj(fs: FlaggedSystem) -> dict:
    return {
        "format": "flagged",
        "src": rat_str(fs.src),
        "tgt": rat_str(fs.tgt),
        "planck": rat_str(fs.planck),
        "q": matrix_obj(fs.matrix),
    }


def flagged_load(obj) -> FlaggedSystem:
    from .dictionary import FlaggedSystem

    obj = _dict(obj, "flagged system")
    return FlaggedSystem(
        matrix_load(obj.get("q")),
        rat_parse(obj.get("src")),
        rat_parse(obj.get("tgt")),
        rat_parse(obj.get("planck", 1)),
    )


def canonical_obj(cf: CanonicalForm) -> dict:
    v = [density_obj(d) for d in cf.v]
    return {
        "format": "canonical",
        "algebra": algebra_obj(cf.model),
        "planck": rat_str(cf.planck),
        "exponents": list(cf.model.exponents),
        "v": v,
        "vbasis": cf.model.vbasis_fingerprint(),
        "certified": certified_order(v),
    }


def canonical_load(obj) -> CanonicalForm:
    from .gauge import CanonicalForm

    obj = _dict(obj, "canonical form")
    m = algebra_load(obj.get("algebra"))
    fp = obj.get("vbasis")
    if fp is not None and fp != m.vbasis_fingerprint():
        raise MalformedInputError(
            "canonical coordinates were written against a different complement basis"
        )
    exps = obj.get("exponents")
    if exps is not None and _list(exps, "exponents") != list(m.exponents):
        raise MalformedInputError(f"exponents of {m.name()} are {list(m.exponents)}")
    v = [density_load(d) for d in _list(obj.get("v"), "canonical coordinates")]
    if len(v) != m.rank:
        raise MalformedInputError(f"{m.name()} needs {m.rank} canonical coordinates")
    return CanonicalForm(m, rat_parse(obj.get("planck", 1)), tuple(v))


def gauge_obj(b: GaugeElement) -> dict:
    return {
        "format": "gauge",
        "algebra": algebra_obj(b.model),
        "torus": {str(r): series_obj(s) for r, s in sorted(b.torus.items())},
        "steps": [matrix_obj(s) for s in b.steps],
    }


def gauge_load(obj) -> GaugeElement:
    from .gauge import GaugeElement

    obj = _dict(obj, "gauge")
    if "algebra" not in obj:
        raise MalformedInputError("gauge file does not name its algebra")
    m = algebra_load(obj["algebra"])
    try:
        torus = {
            int(r): series_load(s)
            for r, s in _dict(obj.get("torus", {}), "gauge torus").items()
        }
    except ValueError:
        raise MalformedInputError("torus keys must be simple-root indices")
    steps = [matrix_load(s) for s in _list(obj.get("steps", []), "gauge steps")]
    return GaugeElement(m, torus, steps)


# -- operators -----------------------------------------------------------------------


def diffop_obj(op: DiffOp, kind: Optional[str] = None) -> dict:
    out = {
        "format": "diffop",
        "order": op.order,
        "src": rat_str(op.src),
        "tgt": rat_str(op.tgt),
        "planck": rat_str(op.planck),
        "coeffs": [series_obj(c) for c in op.coeffs],
    }
    if kind is not None:
        out["kind"] = kind
    return out


def diffop_load(obj) -> DiffOp:
    from .diffops import DiffOp

    obj = _dict(obj, "operator")
    coeffs = [series_load(c) for c in _list(obj.get("coeffs"), "operator coeffs")]
    order = _int(obj.get("order", len(coeffs) - 1), "operator order")
    if order != len(coeffs) - 1:
        raise MalformedInputError("operator order disagrees with its coefficient list")
    return DiffOp(
        order,
        rat_parse(obj.get("src", 0)),
        rat_parse(obj.get("tgt", order)),
        rat_parse(obj.get("planck", 1)),
        coeffs,
    )


def symbol_obj(p: PseudoSymbol) -> dict:
    from .series import LaurentSeries

    return {
        "format": "symbol",
        "order": p.top,
        "floor": p.floor,
        "src": rat_str(p.src),
        "tgt": rat_str(p.tgt),
        "planck": rat_str(p.planck),
        "coeffs": [series_obj(p.coeffs.get(i, LaurentSeries.zero()))
                   for i in range(p.floor, p.top + 1)],
        "exact_below": p.exact_below,
    }


def symbol_load(obj) -> PseudoSymbol:
    from .diffops import PseudoSymbol

    obj = _dict(obj, "symbol")
    floor = _int(obj.get("floor"), "symbol floor")
    coeffs = [series_load(c) for c in _list(obj.get("coeffs"), "symbol coeffs")]
    top = _int(obj.get("order", floor + len(coeffs) - 1), "symbol order")
    if top != floor + len(coeffs) - 1:
        raise MalformedInputError("symbol range disagrees with its coefficient list")
    exact_below = obj.get("exact_below", False)
    if not isinstance(exact_below, bool):  # "false" must not certify zeros below the floor
        raise MalformedInputError(f"symbol exact_below must be true or false, got {exact_below!r}")
    return PseudoSymbol(
        top,
        floor,
        rat_parse(obj.get("src", 0)),
        rat_parse(obj.get("tgt", top)),
        rat_parse(obj.get("planck", 1)),
        {floor + i: c for i, c in enumerate(coeffs)},
        exact_below,
    )


# -- files ---------------------------------------------------------------------------

_LOADERS = {
    "connection": connection_load,
    "flagged": flagged_load,
    "canonical": canonical_load,
    "gauge": gauge_load,
    "diffop": diffop_load,
    "symbol": symbol_load,
    "kernel": kernel_load,
    "density": density_load,
    "series": series_load,
}


def detect_format(obj) -> str:
    """Format tag of a parsed file, inferred structurally when absent."""
    obj = _dict(obj, "input")
    tag = obj.get("format")
    if tag is not None:
        if not isinstance(tag, str) or tag not in _LOADERS:
            raise MalformedInputError(f"unknown format tag {tag!r}")
        return tag
    if "mmin" in obj:
        return "kernel"
    if "floor" in obj:
        return "symbol"
    if "order" in obj or ("coeffs" in obj and "src" in obj):
        return "diffop"
    if "v" in obj:
        return "canonical"
    if "torus" in obj or "steps" in obj:
        return "gauge"
    if "q" in obj:
        return "connection" if "algebra" in obj else "flagged"
    if "weight" in obj:
        return "density"
    if "coeffs" in obj:
        return "series"
    raise MalformedInputError("unrecognized input file shape")


def load_object(obj):
    return _LOADERS[detect_format(obj)](obj)


def dumps(obj: dict) -> str:
    """Deterministic text form: sorted keys, embedded library version."""
    out = dict(obj)
    out["version"] = __version__
    return json.dumps(out, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> dict:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:  # a JSON syntax error, an over-long integer, deep nesting
        raise MalformedInputError(f"not valid structured text: {e}")
    return _dict(obj, "input")
