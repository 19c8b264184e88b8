"""operctl: command line front end over the shared structured-text formats.

Every command reads the formats defined in ``serialize``, dispatches to the
library, writes deterministic files (sorted keys, embedded version and basis
fingerprints) and states the certified order of what it wrote.  Exit codes:
0 success, 1 malformed input, 2 violated precondition (including the oper
conditions), 3 insufficient truncation, 4 failed identity check, 5 internal
error (any other exception raised inside the library: a defect to report,
not a verdict on the input).  Errors are reported as a single
machine-parseable line on the standard error stream, its message folded onto
one line and clipped to ``MSG_CAP`` characters.

The truncation flag is a fallback resource, not an output format: each
command first attempts the computation exactly and re-runs it at the given
truncation only when the exact attempt raises InsufficientTruncationError,
so exact inputs keep exact outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional

from . import serialize as ser
from .errors import (
    IdentityCheckError,
    InsufficientTruncationError,
    MalformedInputError,
    NotAnOperError,
    OperCalcError,
    PreconditionError,
)

if TYPE_CHECKING:
    from .diffops import DiffOp
    from .series import LaurentSeries

KINDS = ("gl", "sl", "sp", "so_odd")  # the operator kinds the dictionary builds

# Library modules are imported inside each command, after its input is read
# and checked, so that a process loads only what its command uses and a bad
# file fails before any of the arithmetic is loaded.


class _Parser(argparse.ArgumentParser):
    """Flag validation failures become malformed-input errors (exit 1)."""

    def error(self, message):
        raise MalformedInputError(message)


# -- plumbing ---------------------------------------------------------------------


def _read(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ser.loads(fh.read())
    except (OSError, UnicodeDecodeError) as e:  # a missing file, or bytes that are not UTF-8
        raise MalformedInputError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}")


def _load_as(path: str, *formats: str):
    obj = _read(path)
    tag = ser.detect_format(obj)
    if tag not in formats:
        raise MalformedInputError(
            f"{path} holds a {tag} file; expected {' or '.join(formats)}"
        )
    return ser.load_object(obj), tag


def _write(path: str, obj: dict):
    text = ser.dumps(obj)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise MalformedInputError(f"cannot write {path}: {e.strerror or e}")
    c = ser.certified_order(obj)
    print(f"wrote {path} (certified order: {'exact' if c is None else c})")


def _prefix(args, *inputs: str) -> str:
    if getattr(args, "out", None):
        return args.out
    stem = inputs[0]
    return stem[:-5] if stem.endswith(".json") else stem


def _with_trunc(fn, trunc: int):
    try:
        return fn(None)
    except InsufficientTruncationError:
        return fn(trunc)


def _compact(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- commands ----------------------------------------------------------------------


def cmd_normalize(args) -> int:
    conn, _ = _load_as(args.connection, "connection")
    from .gauge import normalize

    g, cf = _with_trunc(lambda t: normalize(conn, trunc=t), args.trunc)
    p = _prefix(args, args.connection)
    _write(p + ".canonical.json", ser.canonical_obj(cf))
    _write(p + ".gauge.json", ser.gauge_obj(g))
    return 0


def cmd_normalize_singular(args) -> int:
    fobj = _read(args.scaling)
    f = ser.series_load(fobj)
    conn, _ = _load_as(args.connection, "connection")
    from .gauge import normalize_singular

    g, cf = _with_trunc(lambda t: normalize_singular(f, conn, trunc=t), args.trunc)
    p = _prefix(args, args.connection)
    _write(p + ".canonical.json", ser.canonical_obj(cf))
    _write(p + ".gauge.json", ser.gauge_obj(g))
    return 0


def cmd_desingularize(args) -> int:
    fobj = _read(args.scaling)
    f = ser.series_load(fobj)
    cf, _ = _load_as(args.canonical, "canonical")
    from .gauge import desingularize

    out = _with_trunc(lambda t: desingularize(f, cf, trunc=t), args.trunc)
    p = _prefix(args, args.canonical)
    _write(p + ".desingularized.json", ser.canonical_obj(out))
    return 0


def cmd_classify(args) -> int:
    cf, _ = _load_as(args.canonical, "canonical")
    from .gauge import classify_singularity

    m, table = classify_singularity(cf)
    print(f"multiplicity {m}")
    for d, pole in table:
        print(f"d={d} pole={pole} bound={(d + 1) * m}")
    return 0


def cmd_convert(args) -> int:
    obj = _read(args.input)
    tag = ser.detect_format(obj)
    p = _prefix(args, args.input)
    if tag == "diffop":
        op = ser.diffop_load(obj)
        kind = args.kind or obj.get("kind")
        if kind is None:
            raise MalformedInputError("building a connection needs --kind")
        from .dictionary import FlaggedSystem, companion_torus, oper_from_diffop

        out = _with_trunc(lambda t: oper_from_diffop(op, kind, trunc=t), args.trunc)
        if isinstance(out, FlaggedSystem):
            _write(p + ".flagged.json", ser.flagged_obj(out))
        else:
            _write(p + ".connection.json", ser.connection_obj(out))
            if kind == "sl":
                # the constant torus reconciling unit-subdiagonal coordinates
                # with the model's principal ones, for the record
                _write(p + ".torus.json", ser.gauge_obj(companion_torus(out.model)))
        return 0
    if tag in ("connection", "flagged"):
        carrier = ser.load_object(obj)
        from .dictionary import FAMILY_KIND, diffop_from_oper

        kind = args.kind
        op = _with_trunc(lambda t: diffop_from_oper(carrier, kind, trunc=t), args.trunc)
        if kind is None:
            kind = "gl" if tag == "flagged" else FAMILY_KIND[carrier.model.family]
        _write(p + ".diffop.json", ser.diffop_obj(op, kind=kind))
        return 0
    raise MalformedInputError(f"convert expects an operator or connection file, got {tag}")


def cmd_transpose(args) -> int:
    obj = _read(args.input)
    op = ser.diffop_load(obj)
    kind = obj.get("kind")
    if kind is not None and kind not in KINDS:
        raise MalformedInputError(f"unknown kind {kind!r}")
    from .diffops import transpose

    p = _prefix(args, args.input)
    _write(p + ".transpose.json", ser.diffop_obj(transpose(op), kind=kind))
    return 0


def cmd_dualize(args) -> int:
    obj, _ = _load_as(args.input, "connection", "flagged")
    from .dictionary import dualize

    p = _prefix(args, args.input)
    _write(p + ".dual.json", ser.flagged_obj(dualize(obj)))
    return 0


_PARITY = {"sym": 1, "skew": -1}


def cmd_kernel(args) -> int:
    obj = _read(args.input)
    op = ser.diffop_load(obj)
    from .diffops import kernel_from_diffop

    k = kernel_from_diffop(op)
    if args.lift is not None:
        k = k.symmetrize_lift(_PARITY[args.lift], args.extra)
    if args.power is not None:
        k = k.power(ser.rat_parse(args.power))
    p = _prefix(args, args.input)
    _write(p + ".kernel.json", ser.kernel_obj(k))
    return 0


def _hill_potential(op: DiffOp) -> LaurentSeries:
    from .series import LaurentSeries

    if op.order != 2 or not op.coeffs[2].agrees(LaurentSeries.one()):
        raise PreconditionError("kernel identities start from a monic order-2 operator")
    if (op.src, op.tgt) != (Fraction(-1, 2), Fraction(3, 2)):
        raise PreconditionError("the self-dual weight window (-1/2, 3/2) is required")
    if not op.coeff(1).is_zero():
        raise PreconditionError("subprincipal coefficient must vanish")
    return op.coeff(0)


def _kernel_checks(op: DiffOp, names: List[str]):
    """Yield (name, lhs, rhs, pass) for the requested identities."""
    from .diffops import diffop_from_kernel, kernel_from_diffop, symmetric_square, to_plain

    for name in names:
        if name in ("pow43", "pow23"):
            u = _hill_potential(op)
            k = kernel_from_diffop(op).symmetrize_lift(-1, 1)
            if name == "pow43":
                lhs = k.power(Fraction(4, 3))
                rhs = kernel_from_diffop(symmetric_square(u, op.planck))
            else:
                lhs = k.power(Fraction(2, 3))
                rhs = lhs.swap()
            ok = (lhs.mmin, lhs.mmax) == (rhs.mmin, rhs.mmax) and lhs.agrees(rhs)
            yield name, ser.kernel_obj(lhs), ser.kernel_obj(rhs), ok
        elif name == "swap":
            k = kernel_from_diffop(op)
            lhs, rhs = k.swap().swap(), k
            yield name, ser.kernel_obj(lhs), ser.kernel_obj(rhs), lhs.agrees(rhs)
        elif name == "roundtrip":
            lhs = diffop_from_kernel(kernel_from_diffop(op))
            rhs = to_plain(op)
            yield name, ser.diffop_obj(lhs), ser.diffop_obj(rhs), lhs.agrees(rhs)
        else:
            raise MalformedInputError(f"unknown identity {name!r}")


def cmd_kernel_check(args) -> int:
    obj = _read(args.input)
    op = ser.diffop_load(obj)
    names = args.check or ["pow43", "pow23", "swap", "roundtrip"]
    failed = []
    for name, lhs, rhs, ok in _kernel_checks(op, names):
        result = "pass" if ok else "fail"
        print(f"check={name} result={result} lhs={_compact(lhs)} rhs={_compact(rhs)}")
        if not ok:
            failed.append(name)
    if failed:
        raise IdentityCheckError(f"identities failed: {', '.join(failed)}")
    return 0


def cmd_sl2_o3(args) -> int:
    u = ser.density_load(_read(args.density))
    from .dictionary import sl2_to_o3

    conn, lt = sl2_to_o3(u, planck=ser.rat_parse(args.planck))
    p = _prefix(args, args.density)
    _write(p + ".connection.json", ser.connection_obj(conn))
    _write(p + ".diffop.json", ser.diffop_obj(lt, kind="so_odd"))
    return 0


def cmd_so_even_build(args) -> int:
    op = ser.diffop_load(_read(args.operator))
    f = ser.density_load(_read(args.density))
    from .dictionary import so_even_build

    conn, sym = so_even_build(op, f, depth=args.depth)
    p = _prefix(args, args.operator)
    _write(p + ".connection.json", ser.connection_obj(conn))
    _write(p + ".symbol.json", ser.symbol_obj(sym))
    return 0


def cmd_so_even_extract(args) -> int:
    conn, _ = _load_as(args.connection, "connection")
    from .dictionary import so_even_extract

    op, f = _with_trunc(lambda t: so_even_extract(conn, trunc=t), args.trunc)
    p = _prefix(args, args.connection)
    _write(p + ".diffop.json", ser.diffop_obj(op, kind="so_odd"))
    _write(p + ".density.json", ser.density_obj(f))
    return 0


def cmd_hitchin(args) -> int:
    cf, _ = _load_as(args.canonical, "canonical")
    from .gauge import hitchin_map

    inv = hitchin_map(cf)
    out = {
        "format": "invariants",
        "algebra": ser.algebra_obj(cf.model),
        "invariants": [
            {"degree": int(d.weight), **ser.density_obj(d)} for d in inv
        ],
    }
    p = _prefix(args, args.canonical)
    _write(p + ".invariants.json", out)
    return 0


def cmd_dims(args) -> int:
    from .lie import moduli_dimension, parse_algebra

    algebra = parse_algebra(args.algebra)
    total, rows = moduli_dimension(algebra, args.genus, args.twist)
    print(f"algebra {algebra.describe()} genus {args.genus} twist {args.twist}")
    for d, k, dim in rows:
        print(f"d={d} k={k} dim={dim}")
    print(f"total {total}")
    return 0


def _selftest_cases():
    from .diffops import DiffOp, transpose
    from .dictionary import companion_system, diffop_from_oper, dualize, oper_from_diffop
    from .gauge import (
        CanonicalForm,
        GaugeElement,
        gauge_apply,
        gauge_compose,
        normalize,
    )
    from .lie import model, moduli_dimension
    from .series import LaurentSeries

    one = LaurentSeries.one()
    u = LaurentSeries.from_terms({0: 3, 1: 1, 3: -2})
    hill = DiffOp.from_map({2: one, 0: u}, Fraction(-1, 2), Fraction(3, 2), 1)

    def kernel_identities():
        for name, lhs, rhs, ok in _kernel_checks(
            hill, ["pow43", "pow23", "swap", "roundtrip"]
        ):
            yield f"kernel-{name}", ok

    def normalization():
        m = model("A", 1)
        z = LaurentSeries.monomial(1, 1)
        cf = CanonicalForm.of(m, Fraction(1), (z * z + 2 * z,))
        conn = cf.connection()
        g, cf2 = normalize(conn)
        yield "normalize-fixed-point", g.is_identity() and cf2.agrees(cf)
        b = GaugeElement(m, {0: LaurentSeries.constant(3)}, [((LaurentSeries.zero(), z), (LaurentSeries.zero(), LaurentSeries.zero()))])
        g2, cf3 = normalize(gauge_apply(conn, b))
        yield "normalize-gauge-invariance", cf3.agrees(cf) and gauge_compose(b, g2).is_identity()

    def dictionary():
        sym = DiffOp.from_map(
            {4: one, 2: u, 1: u.derivative() * 2, 0: u * u},
            Fraction(-3, 2), Fraction(5, 2), 1,
        )
        sp = Fraction(1, 2) * (sym + transpose(sym))
        conn = oper_from_diffop(sp, "sp")
        yield "dictionary-roundtrip-sp", diffop_from_oper(conn, trunc=16).agrees(sp)
        cub = DiffOp.from_map({3: one, 1: u, 0: u.derivative()}, -1, 2, 1)
        dual = dualize(companion_system(cub))
        got = diffop_from_oper(dual, trunc=16)
        yield "dualize-two-path", got.agrees(-transpose(cub))

    def dims():
        total, _ = moduli_dimension(model("A", 1), 2, 0)
        yield "dims-rank1-genus2", total == 3

    for gen in (kernel_identities, normalization, dictionary, dims):
        yield from gen()


def cmd_selftest(args) -> int:
    failed = []
    for name, ok in _selftest_cases():
        print(f"selftest {name} {'pass' if ok else 'fail'}")
        if not ok:
            failed.append(name)
    if failed:
        raise IdentityCheckError(f"selftest failed: {', '.join(failed)}")
    return 0


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> _Parser:
    top = _Parser(prog="operctl", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def cmd(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def trunc_flag(p):
        p.add_argument("--trunc", type=int, default=12,
                       help="fallback certified order (default 12)")

    def out_flag(p):
        p.add_argument("--out", help="output path prefix (default: input stem)")

    p = cmd("normalize", cmd_normalize, "move a connection to its normal form")
    p.add_argument("connection")
    trunc_flag(p), out_flag(p)

    p = cmd("normalize-singular", cmd_normalize_singular,
            "normal form of f*d/dz + q for a regular scaling series f")
    p.add_argument("scaling")
    p.add_argument("connection")
    trunc_flag(p), out_flag(p)

    p = cmd("desingularize", cmd_desingularize,
            "normal form of d/dz + f^-1 (matrix of a canonical form)")
    p.add_argument("scaling")
    p.add_argument("canonical")
    trunc_flag(p), out_flag(p)

    p = cmd("classify", cmd_classify, "pole multiplicity of canonical coordinates")
    p.add_argument("canonical")

    p = cmd("convert", cmd_convert,
            "scalar operator <-> connection, both directions by file shape")
    p.add_argument("input")
    p.add_argument("--kind", choices=KINDS,
                   help="target kind (required toward connections)")
    trunc_flag(p), out_flag(p)

    p = cmd("transpose", cmd_transpose, "formal adjoint of an operator")
    p.add_argument("input")
    out_flag(p)

    p = cmd("dualize", cmd_dualize, "reversed-flag dual of a connection")
    p.add_argument("input")
    out_flag(p)

    p = cmd("kernel", cmd_kernel, "diagonal kernel of an operator")
    p.add_argument("input")
    p.add_argument("--power", help="raise to a rational power p/q")
    p.add_argument("--lift", choices=["sym", "skew"],
                   help="extend across the diagonal with a parity")
    p.add_argument("--extra", type=int, default=1,
                   help="orders to extend by (default 1)")
    out_flag(p)

    p = cmd("kernel-check", cmd_kernel_check,
            "print both sides of kernel identities with a pass/fail field")
    p.add_argument("input")
    p.add_argument("--check", action="append",
                   choices=["pow43", "pow23", "swap", "roundtrip"],
                   help="identity to check (repeatable; default all)")

    p = cmd("sl2-o3", cmd_sl2_o3,
            "orthogonal rank-1 connection and order-3 operator of a weight-2 density")
    p.add_argument("density")
    p.add_argument("--planck", default="1")
    out_flag(p)

    p = cmd("so-even-build", cmd_so_even_build,
            "even orthogonal connection of an odd skew operator and a twist density")
    p.add_argument("operator")
    p.add_argument("density")
    p.add_argument("--depth", type=int, default=4,
                   help="tail depth of the emitted symbol (default 4)")
    out_flag(p)

    p = cmd("so-even-extract", cmd_so_even_extract,
            "skew operator and twist density of an even orthogonal connection")
    p.add_argument("connection")
    trunc_flag(p), out_flag(p)

    p = cmd("hitchin", cmd_hitchin, "spectral invariants of a planck-0 normal form")
    p.add_argument("canonical")
    out_flag(p)

    p = cmd("dims", cmd_dims, "global parameter count over a curve")
    p.add_argument("--algebra", required=True, help="TYPE:RANK (e.g. A:2) or sl:N, so:N, sp:N")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--twist", type=int, default=0,
                   help="degree of the twisting divisor (default 0)")

    p = cmd("selftest", cmd_selftest, "run the built-in identity suite")

    return top


_EXIT_CODES = (
    (InsufficientTruncationError, 3),
    (IdentityCheckError, 4),
    (MalformedInputError, 1),
    (NotAnOperError, 2),
    (PreconditionError, 2),
)


INTERNAL_ERROR = 5
MSG_CAP = 400  # characters of a diagnostic message; the rest is counted, not echoed


def _report(code: int, e: Exception) -> int:
    msg = " ".join(str(e).replace('"', "'").splitlines())
    if len(msg) > MSG_CAP:
        msg = f"{msg[:MSG_CAP]}...({len(msg)} chars)"
    sys.stderr.write(f'operctl: code={code} kind={type(e).__name__} msg="{msg}"\n')
    return code


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except OperCalcError as e:
        for cls, code in _EXIT_CODES:
            if isinstance(e, cls):
                break
        else:  # pragma: no cover - base-class fallback
            code = 1
        return _report(code, e)
    except Exception as e:  # a defect; KeyboardInterrupt and SystemExit pass through
        return _report(INTERNAL_ERROR, e)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
