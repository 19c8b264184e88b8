"""Reference constructions the tests compare the library against, and a call counter.

Each reference is written independently of the code path it checks, and
nothing in ``src/`` calls it.
"""

from fractions import Fraction
from unittest import mock

from opercalc.diffops import DiffOp, pairing
from opercalc.errors import PreconditionError
from opercalc.gauge import CanonicalForm
from opercalc.series import LaurentSeries


def inverse_calls(fn):
    """fn() and the number of LaurentSeries.inverse calls it made."""
    real, calls = LaurentSeries.inverse, []

    def counted(self, trunc=None):
        calls.append(self)
        return real(self, trunc=trunc)

    with mock.patch.object(LaurentSeries, "inverse", counted):
        return fn(), len(calls)


def smat_identity(n):
    return [[LaurentSeries.one() if i == j else LaurentSeries.zero() for j in range(n)]
            for i in range(n)]


def desingularize_componentwise(f, cf, trunc=None):
    """Closed-form version: v_d scales by f^{-d-1}, the x-slot gets the
    h^2 (f''f/2 - f'^2/4) correction.  Cross-check for ``desingularize``."""
    model = cf.model
    if model.kostant_data(1)["vdim"] != 1:
        raise PreconditionError("componentwise form needs a one-dimensional degree-1 slot")
    h = cf.planck
    corr = (f.derivative().derivative() * f * Fraction(1, 2)
            - f.derivative() * f.derivative() * Fraction(1, 4)) * (h * h)
    out = []
    for d, dens in zip(model.exponents, cf.v):
        s = dens.series + corr if d == 1 else dens.series
        out.append(s * f.power_rational(-d - 1, trunc=trunc))
    return CanonicalForm.of(model, h, out)


def flag_pairing_loop(op, trunc=None):
    """Every pairing of D^i against D^j with i + j <= n - 1: those below the
    antidiagonal must vanish and those on it be units.  Reference for the
    one-pairing ``verify_flag_pairing``."""
    n = op.order
    a = op.src
    h = op.planck
    one = LaurentSeries.one()
    ops = [DiffOp.from_map({i: one}, a, a + i, h) for i in range(n)]
    for i in range(n):
        for j in range(n - 1 - i):
            if not pairing(ops[i], ops[j], op, trunc=trunc).is_zero():
                raise PreconditionError("flag is not self-orthogonal under the residue pairing")
        g = pairing(ops[i], ops[n - 1 - i], op, trunc=trunc)
        if not g.is_unit():
            raise PreconditionError("residue pairing is degenerate on the flag")
