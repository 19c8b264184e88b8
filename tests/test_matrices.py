"""Series matrix products against a dense reference loop.

The reference multiplies every pair of entries, zeros included, so exact-zero
skipping in the library has to reproduce it exactly, truncation orders and
all.
"""

import random
from fractions import Fraction as F

from opercalc.matrices import smat_add, smat_comm, smat_mul, smat_scale, smat_sub
from opercalc.series import LaurentSeries

ONE = LaurentSeries.one()
ZERO = LaurentSeries.zero()


def dense_product(a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = ZERO
            for x, brow in zip(row, b):
                acc = acc + x * brow[j]
            out_row.append(acc)
        out.append(out_row)
    return out


def sparse_matrix(rng, n, m):
    """Mostly exact zeros, with truncated zeros and Laurent entries mixed in."""
    def entry():
        kind = rng.random()
        if kind < 0.55:
            return ZERO
        if kind < 0.7:
            return LaurentSeries.zero(rng.randint(-2, 6))
        val = rng.randint(-2, 2)
        cs = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        return LaurentSeries(val, cs, None if rng.random() < 0.5 else val + rng.randint(0, 5))
    return [[entry() for _ in range(m)] for _ in range(n)]


def entrywise(op, a, b):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def as_tuples(a):
    return [[(x.val, x.coeffs, x.trunc) for x in row] for row in a]


class TestSmatMul:
    def test_truncated_zero_entry_is_multiplied(self):
        # O(z^3) carries an order: its products are truncated, never exact 0
        a = [[ONE, LaurentSeries.zero(3)], [ZERO, ONE]]
        b = [[ONE, ZERO], [LaurentSeries.monomial(2, 1), ZERO]]
        out = smat_mul(a, b)
        assert out[0][0] == ONE + LaurentSeries.zero(4)
        assert out[0][1] == ZERO and out[0][1].is_exact()

    def test_matches_dense_reference(self):
        rng = random.Random(9)
        for _ in range(400):
            n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
            a, b = sparse_matrix(rng, n, k), sparse_matrix(rng, k, m)
            assert as_tuples(smat_mul(a, b)) == as_tuples(dense_product(a, b))

    def test_entrywise_ops_match_series_ops(self):
        rng = random.Random(10)
        c = LaurentSeries(-1, [F(1, 2), 3], 4)
        for _ in range(200):
            a, b = sparse_matrix(rng, 3, 3), sparse_matrix(rng, 3, 3)
            assert as_tuples(smat_add(a, b)) == as_tuples(entrywise(lambda x, y: x + y, a, b))
            assert as_tuples(smat_sub(a, b)) == as_tuples(entrywise(lambda x, y: x - y, a, b))
            assert as_tuples(smat_scale(c, a)) == as_tuples(entrywise(lambda x, _: c * x, a, b))
            assert as_tuples(smat_scale(F(-2, 3), a)) == \
                as_tuples(entrywise(lambda x, _: F(-2, 3) * x, a, b))
            assert as_tuples(smat_comm(a, b)) == as_tuples(
                entrywise(lambda x, y: x - y, dense_product(a, b), dense_product(b, a)))
