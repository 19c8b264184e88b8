"""The benchmark's workloads: seeded inputs, one job per call, exact checks.

Each workload is a fixed cycle of cells (algebra, sizes, planck value); job
i uses cell i mod len(cycle) with coefficients drawn from a generator seeded
by (workload, seed, i), so a seed always gives the same inputs and every run
holds the same mix of cells.  Inputs are made by `make` outside the timed
region; `run` does the timed library calls and raises `CheckFailed` when an
exact check fails.  Library names are imported into this module so that the
tracer's rebinding of ``from x import y`` aliases reaches them too.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from typing import Dict, List, Optional, Sequence, Tuple

import opercalc.cli
from opercalc import serialize as ser
from opercalc.diffops import (
    DiffOp,
    PseudoSymbol,
    compose,
    kernel_from_diffop,
    pairing,
    pseudo_invert,
    transpose,
)
from opercalc.dictionary import diffop_from_oper, oper_from_diffop
from opercalc.gauge import (
    GaugeElement,
    OperConnection,
    gauge_apply,
    gauge_compose,
    gauge_inverse,
    hitchin_map,
    normalize,
)
from opercalc.lie import LieModel, invariants, model
from opercalc.matrices import smat_add, smat_from_frac, smat_scale, smat_zero
from opercalc.series import LaurentSeries

ONE = LaurentSeries.one()
ZERO = LaurentSeries.zero()
Z = LaurentSeries.monomial(1, 1)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(BENCH_DIR, "cli_digests.json")


class CheckFailed(Exception):
    """A job's output failed its exact check."""


def check(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def job_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def warm_model(family: str, rank: int) -> LieModel:
    """Build a model with every graded basis and Kostant splitting it can use."""
    m = model(family, rank)
    m.graded_basis(-1)
    for d in range(0, m.dmax + 1):
        m.kostant_data(d)
    return m


# -- random inputs ---------------------------------------------------------------


def rnd_rat(rng: random.Random, den: int = 3) -> F:
    return F(rng.randint(-4, 4), rng.randint(1, den))


def rnd_poly(rng: random.Random, deg: int, den: int = 3) -> LaurentSeries:
    return LaurentSeries.from_terms({k: rnd_rat(rng, den) for k in range(deg + 1)})


def rnd_series(rng: random.Random, trunc: int) -> LaurentSeries:
    return LaurentSeries.from_terms({k: rnd_rat(rng) for k in range(trunc)}, trunc)


def rnd_gauge(rng: random.Random, m: LieModel, trunc: int) -> GaugeElement:
    torus = {r: ONE.truncate(trunc) + Z * rnd_series(rng, trunc - 1) for r in range(m.rank)}
    steps = []
    for d in range(1, m.dmax + 1):
        u = smat_zero(m.N)
        for b in m.graded_basis(d):
            u = smat_add(u, smat_scale(rnd_series(rng, trunc), smat_from_frac(b)))
        steps.append(u)
    return GaugeElement(m, torus, steps)


def rnd_oper(rng: random.Random, m: LieModel, planck: F,
             coeff) -> OperConnection:
    """y plus z*coeff() on each negative simple root and coeff() in degrees 0..dmax."""
    q = smat_from_frac(m.y)
    for b in m.graded_basis(-1):
        q = smat_add(q, smat_scale(Z * coeff(), smat_from_frac(b)))
    for d in range(0, m.dmax + 1):
        for b in m.graded_basis(d):
            q = smat_add(q, smat_scale(coeff(), smat_from_frac(b)))
    return OperConnection(m, planck, q)


def rnd_monic(rng: random.Random, order: int, planck=1, deg: int = 3,
              drop_subprincipal: bool = False) -> DiffOp:
    a = F(1 - order, 2)
    coeffs = {i: rnd_poly(rng, deg, den=2) for i in range(order)}
    if drop_subprincipal:
        coeffs[order - 1] = ZERO
    coeffs[order] = ONE
    return DiffOp.from_map(coeffs, a, a + order, planck)


def rnd_selfdual(rng: random.Random, order: int, planck=1) -> DiffOp:
    """(L + L^t)/2 for even order, (L - L^t)/2 for odd order."""
    m = rnd_monic(rng, order, planck=planck)
    t = transpose(m)
    sgn = 1 if order % 2 == 0 else -1
    return DiffOp.from_map(
        {i: F(1, 2) * (m.coeff(i) + sgn * t.coeff(i)) for i in range(order + 1)},
        m.src, m.tgt, m.planck,
    )


def hill(u: LaurentSeries, planck=1) -> DiffOp:
    return DiffOp.from_map({2: ONE, 0: u}, F(-1, 2), F(3, 2), planck)


def third_order_of(u: LaurentSeries) -> DiffOp:
    """The order-3 partner of the Hill operator: D^3 + 4u D + 2u'."""
    return DiffOp.from_map({3: ONE, 1: 4 * u, 0: 2 * u.derivative()}, -1, 2, 1)


def identity_window(sym: PseudoSymbol) -> bool:
    """The tracked coefficients of a symbol are those of the identity."""
    ok = sym.coeffs.get(0, ZERO).agrees(ONE)
    for i in range(sym.floor, sym.top + 1):
        if i != 0:
            ok = ok and sym.coeffs.get(i, ZERO).is_zero()
    return ok


# -- gauge-batch -------------------------------------------------------------------


class GaugeBatch:
    """Criterion-03 pattern: two normalizations related by a random gauge.

    Nearly all time goes to gauge, matrices, lie and many short, mostly-zero
    series products.  Cells are (family, rank, truncation, planck); small
    algebras dominate the count so that a run of five cycles holds at least
    100 jobs, and B:2 at trunc 16, B:3, C:3 and D:4 keep the slow tail.
    """

    name = "gauge-batch"
    H0, H1, HALF = F(0), F(1), F(1, 2)
    # listed in rising cost.  The median falls inside the block of six A:2
    # trunc-12 cells and p90 inside the block of four ~0.9 s cells below
    # D:4, so neither sits on a gap between cells of different cost.
    cells: Sequence[Tuple[str, int, int, F]] = (
        ("A", 1, 8, H1), ("A", 1, 8, HALF), ("A", 1, 12, HALF), ("A", 1, 12, H0),
        ("A", 1, 16, H1), ("A", 1, 16, H0), ("A", 2, 8, H1), ("A", 2, 10, H1),
        ("A", 2, 12, H1), ("A", 2, 12, HALF), ("A", 2, 12, H1), ("A", 2, 12, HALF),
        ("A", 2, 12, H1), ("A", 2, 12, HALF), ("A", 3, 8, H1), ("C", 2, 8, H0),
        ("B", 2, 12, H0), ("B", 3, 8, HALF), ("C", 3, 12, H1), ("C", 3, 12, HALF),
        ("B", 2, 16, H0), ("D", 4, 8, H1),
    )

    def models(self):
        return sorted({(f, r) for f, r, _, _ in self.cells})

    def make(self, seed: int, i: int):
        family, rank, trunc, planck = self.cells[i % len(self.cells)]
        rng = job_rng(self.name, seed, i)
        m = model(family, rank)
        conn = rnd_oper(rng, m, planck, lambda: rnd_series(rng, trunc))
        return conn, rnd_gauge(rng, m, trunc)

    def run(self, job):
        conn, b = job
        g1, cf1 = normalize(conn)
        g2, cf2 = normalize(gauge_apply(conn, b))
        check(cf1.agrees(cf2), "normal forms of gauge-equivalent connections differ")
        check(g1.agrees(gauge_compose(b, g2)), "g1 differs from b * g2")
        if conn.planck == 0:
            # at planck 0 the gauge action is conjugation: invariants are kept
            spectral = hitchin_map(cf1)
            direct = invariants(conn.model, conn.q)
            check(len(spectral) == len(direct) and all(
                d.series.agrees(s) for d, (_, s) in zip(spectral, direct)
            ), "spectral invariants of the normal form differ from the input's")
            check(gauge_compose(gauge_inverse(b), g1).agrees(g2), "b^-1 * g1 differs from g2")


# -- operators ---------------------------------------------------------------------


class Operators:
    """Few, long, dense convolutions: series powers, kernel powers, symbols.

    Cells: ("series", orders, exponent) for inverse and rational powers of a
    unit; ("kernel", order, degree) for BiKernel.power of a monic operator's
    kernel; ("pow43", degree) for the criterion-01 identity; ("diffop",
    order, truncation) for pseudo_invert, compose and pairing; ("dict", kind,
    order) for the criterion-04 dictionary round trips.
    """

    name = "operators"
    # listed in rising cost.  The median falls inside the ~50 ms block
    # (order-32 series, order-5 kernel) and p90 inside the order-8 kernel
    # cell, well below the two ~1 s cells above it.
    cells: Sequence[tuple] = (
        ("pow43", 5), ("pow43", 16), ("dict", "gl", 3), ("dict", "sl", 3),
        ("dict", "so_odd", 3), ("kernel", 3, 8), ("dict", "sp", 4), ("kernel", 4, 8),
        ("dict", "so_odd", 5), ("diffop", 2, 12), ("series", 32, F(1, 2)),
        ("series", 32, F(-1, 3)), ("kernel", 5, 8), ("diffop", 3, 12), ("diffop", 4, 16),
        ("series", 40, F(1, 2)), ("diffop", 5, 12), ("series", 48, F(2, 3)),
        ("diffop", 6, 16), ("series", 64, F(1, 2)), ("kernel", 8, 8),
        ("series", 96, F(1, 2)), ("kernel", 8, 12),
    )
    # sl 3 -> A:2, sp 4 -> C:2, so_odd 3 / 5 -> B:1 / B:2
    _models = (("A", 2), ("B", 1), ("B", 2), ("C", 2))

    def models(self):
        return list(self._models)

    def make(self, seed: int, i: int):
        cell = self.cells[i % len(self.cells)]
        rng = job_rng(self.name, seed, i)
        kind = cell[0]
        if kind == "series":
            _, n, e = cell
            return kind, LaurentSeries(0, [1] + [rnd_rat(rng) for _ in range(n - 1)], n), e
        if kind == "kernel":
            _, n, deg = cell
            a = F(1 - n, 2)
            coeffs = {i: rnd_poly(rng, deg) for i in range(n)}
            coeffs[n] = ONE
            return kind, DiffOp.from_map(coeffs, a, a + n, 1), F(n + 2, n + 1)
        if kind == "pow43":
            return kind, rnd_poly(rng, cell[1], den=2), None
        if kind == "diffop":
            _, n, trunc = cell
            a = F(1 - n, 2)
            coeffs = {i: rnd_poly(rng, 4) for i in range(n)}
            coeffs[n] = ONE + Z * rnd_poly(rng, 3)
            L = DiffOp.from_map(coeffs, a, a + n, 1)
            u = DiffOp.from_map({i: rnd_poly(rng, 2) for i in range(n)}, a, a + n - 1, 1)
            v = DiffOp.from_map({i: rnd_poly(rng, 2) for i in range(n - 1)}, a, a + n - 2, 1)
            return kind, (L, u, v), trunc
        _, dkind, n = cell
        planck = rng.choice((1, F(1, 2)))
        if dkind == "gl":
            op = rnd_monic(rng, n, planck=planck)
        elif dkind == "sl":
            op = rnd_monic(rng, n, drop_subprincipal=True)
        else:
            op = rnd_selfdual(rng, n)
        return kind, op, dkind

    def run(self, job):
        kind, x, y = job
        getattr(self, "_" + kind)(x, y)

    @staticmethod
    def _series(a: LaurentSeries, e: F):
        check((a * a.inverse()).agrees(ONE), "a * a^-1 differs from 1")
        r = a.sqrt() if e == F(1, 2) else a.power_rational(e)
        check((r ** e.denominator).agrees(a.power_rational(e.numerator)),
              f"(a^{e})^{e.denominator} differs from a^{e.numerator}")

    @staticmethod
    def _kernel(op: DiffOp, e: F):
        k = kernel_from_diffop(op)
        check(k.power(e).power(1 / e).agrees(k), f"(K^{e})^(1/{e}) differs from K")

    @staticmethod
    def _pow43(u: LaurentSeries, _):
        lift = kernel_from_diffop(hill(u)).symmetrize_lift(-1, 1)
        lhs = lift.power(F(4, 3))
        rhs = kernel_from_diffop(third_order_of(u))
        check((lhs.w1, lhs.w2) == (rhs.w1, rhs.w2), "pow43 weights differ")
        check((lhs.mmin, lhs.mmax) == (rhs.mmin, rhs.mmax) == (-4, -1), "pow43 range differs")
        check(all(lhs.coeff(m) == rhs.coeff(m) for m in range(-4, 0)), "pow43 coefficients differ")
        sym = lift.power(F(2, 3))
        swapped = sym.swap()
        check(all(sym.coeff(m) == swapped.coeff(m) for m in range(-2, 2)),
              "the 2/3 power is not swap-symmetric")

    @staticmethod
    def _diffop(ops, trunc: int):
        L, u, v = ops
        n, a = L.order, L.src
        Q = pseudo_invert(L, 4, trunc=trunc)
        check(identity_window(compose(L, Q)) and identity_window(compose(Q, L)),
              "pseudo-inverse is not two-sided")
        # the flag pairing vanishes below the antidiagonal and is
        # (-1)^j / lead on it
        inv_lead = L.coeffs[-1].inverse(trunc=trunc)
        d = [DiffOp.from_map({i: ONE}, a, a + i, 1) for i in range(n)]
        for i in range(n):
            j = n - 1 - i
            check(pairing(d[i], d[j], L, trunc=trunc).agrees((-1) ** j * inv_lead),
                  "flag pairing is not (-1)^j / lead on the antidiagonal")
            if j:
                check(pairing(d[i], d[j - 1], L, trunc=trunc).is_zero(),
                      "flag pairing does not vanish below the antidiagonal")
        # res(P^t) = -res(P) and (u L^-1 v^t)^t = v (L^t)^-1 u^t
        check(pairing(v, u, transpose(L), trunc=trunc).agrees(-pairing(u, v, L, trunc=trunc)),
              "pairing is not antisymmetric under transposition")

    @staticmethod
    def _dict(op: DiffOp, kind: str):
        trunc = 24 if kind in ("sp", "so_odd") else None
        back = diffop_from_oper(oper_from_diffop(op, kind, trunc=trunc), trunc=trunc or 20)
        check(back.agrees(op), f"{kind} dictionary round trip differs")


# -- cli-pipeline --------------------------------------------------------------------

POOL = 32  # input variants with recorded output digests

# (step, argv, expected exit code, digest the printed text): every variant
# runs the whole chain, one operctl process per step.  "normalize-fallback"
# reads exact non-monomial units, so its exact attempt raises and the command
# re-runs at --trunc.
CHAIN: Sequence[Tuple[str, Tuple[str, ...], int, bool]] = (
    ("convert", ("convert", "{dir}/op.json", "--kind", "{kind}"), 0, False),
    ("normalize", ("normalize", "{dir}/op.connection.json"), 0, False),
    ("classify", ("classify", "{dir}/op.connection.canonical.json"), 0, True),
    ("convert-back", ("convert", "{dir}/op.connection.json"), 0, False),
    ("normalize-fallback", ("normalize", "{dir}/conn.json", "--trunc", "8"), 0, False),
    ("hitchin", ("hitchin", "{dir}/conn.canonical.json"), 0, False),
    ("kernel", ("kernel", "{dir}/hill.json", "--lift", "skew", "--power", "4/3"), 0, False),
    ("kernel-check", ("kernel-check", "{dir}/hill.json"), 0, True),
    ("dims", ("dims", "--algebra", "{dims}", "--genus", "{genus}"), 0, True),
    ("selftest", ("selftest",), 0, True),
    ("malformed", ("convert", "{dir}/bad.json", "--kind", "sp"), 1, True),
    ("not-hill", ("kernel-check", "{dir}/op.json"), 2, True),
    ("hitchin-planck", ("hitchin", "{dir}/op.connection.canonical.json"), 2, True),
)
PASS_LINES = {"kernel-check": "result=pass", "selftest": " pass"}

_KINDS = (("sl", 3), ("sp", 4), ("so_odd", 5))  # models A:2, C:2, B:2
_CONN_ALGEBRAS = (("A", 1), ("A", 2), ("C", 2), ("B", 2))
_DIMS_ALGEBRAS = ("A:3", "B:3", "C:3", "D:4")


def cli_variant(v: int) -> Tuple[Dict[str, str], Dict[str, str]]:
    """Input files and argv fields of pool variant v (independent of the seed)."""
    rng = random.Random(f"cli-pipeline:variant:{v}")
    kind, order = _KINDS[v % len(_KINDS)]
    op = rnd_monic(rng, order, drop_subprincipal=True) if kind == "sl" else rnd_selfdual(rng, order)
    family, rank = _CONN_ALGEBRAS[v % len(_CONN_ALGEBRAS)]
    conn = rnd_oper(rng, model(family, rank), F(0), lambda: rnd_poly(rng, 2))
    op_text = ser.dumps(ser.diffop_obj(op, kind=kind))
    files = {
        "op.json": op_text,
        "conn.json": ser.dumps(ser.connection_obj(conn)),
        "hill.json": ser.dumps(ser.diffop_obj(hill(rnd_poly(rng, 5, den=2)))),
        "bad.json": op_text[: len(op_text) // 2],
    }
    fields = {"kind": kind, "dims": _DIMS_ALGEBRAS[v % len(_DIMS_ALGEBRAS)],
              "genus": str(rng.randint(0, 3))}
    return files, fields


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


class CliPipeline:
    """One operctl process per job, in a fixed chain over generated files.

    Per job, interpreter start and import dominate; model build, parsing and
    serialization also count.  Each cycle runs the whole chain on one pool
    variant chosen by the seed, so every output can be compared with the
    byte digests recorded in cli_digests.json.
    """

    name = "cli-pipeline"
    cells = CHAIN
    # models the chain's processes build: convert/normalize, conn.json, dims
    _models = (("A", 1), ("A", 2), ("B", 2), ("C", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4))

    def __init__(self, workdir: str, in_process: bool = False):
        self.workdir = workdir
        self.in_process = in_process
        self._digests: Optional[dict] = None
        self._fields: Dict[str, str] = {}
        self._path = ""
        self.env = dict(os.environ, PYTHONPATH=SRC)

    def models(self):
        return list(self._models)

    def variant_of(self, seed: int, cycle: int) -> int:
        order = list(range(POOL))
        random.Random(f"{self.name}:{seed}").shuffle(order)
        return order[cycle % POOL]

    def prepare(self, v: int) -> Tuple[str, Dict[str, str]]:
        """Write variant v's inputs into a fresh directory; returns it and the argv fields."""
        files, fields = cli_variant(v)
        path = tempfile.mkdtemp(prefix=f"v{v}-", dir=self.workdir)
        for name, text in files.items():
            with open(os.path.join(path, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return path, fields

    @staticmethod
    def job(v: int, step: int, path: str, fields: Dict[str, str]):
        return v, step, path, [a.format(dir=path, **fields) for a in CHAIN[step][1]]

    def make(self, seed: int, i: int):
        """Job i: step i mod len(CHAIN) of the chain on this cycle's variant.

        Jobs of one cycle must be made in order: step 0 writes the inputs
        into a fresh directory that the later steps read and write.
        """
        cycle, step = divmod(i, len(CHAIN))
        v = self.variant_of(seed, cycle)
        if step == 0:
            self._path, self._fields = self.prepare(v)
        return self.job(v, step, self._path, self._fields)

    def invoke(self, argv: List[str], cwd: str) -> Tuple[int, str, str]:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = opercalc.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "opercalc.cli", *argv], cwd=cwd,
                              env=self.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def outputs(step: int, path: str, before: set, text: str) -> dict:
        """Digests of the files a step wrote and, where flagged, of its text."""
        files = {}
        for name in sorted(set(os.listdir(path)) - before):
            with open(os.path.join(path, name), encoding="utf-8") as fh:
                files[name] = _sha(fh.read())
        out = {"files": files}
        if CHAIN[step][3]:
            out["text"] = _sha(text)
        return out

    def digests(self) -> dict:
        if self._digests is None:
            with open(DIGESTS, encoding="utf-8") as fh:
                self._digests = json.load(fh)
        return self._digests

    def execute(self, job) -> Tuple[int, dict, str, str]:
        """Run one step: exit code, output digests, printed text."""
        _, step, path, argv = job
        before = set(os.listdir(path))
        code, out, err = self.invoke(argv, path)
        return code, self.outputs(step, path, before, out + err), out, err

    def run(self, job):
        v, step, path, argv = job
        name, _, want, _ = CHAIN[step]
        code, got, out, err = self.execute(job)
        check(code == want, f"{name}: exit {code}, expected {want}: {err.strip()}")
        if name in PASS_LINES:
            lines = out.splitlines()
            check(bool(lines) and all(PASS_LINES[name] in ln for ln in lines),
                  f"{name}: not every line says pass")
        recorded = self.digests().get(str(v), {}).get(name)
        check(recorded is not None, f"no recorded digest for variant {v} step {name}")
        check(got == recorded, f"{name}: output bytes differ from the recorded digests")


WORKLOADS = {"gauge-batch": GaugeBatch, "operators": Operators, "cli-pipeline": CliPipeline}
