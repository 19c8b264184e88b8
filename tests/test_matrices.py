"""Series matrix products against a dense reference loop.

The reference multiplies every pair of entries, zeros included, so exact-zero
skipping in the library has to reproduce it exactly, truncation orders and
all.
"""

import random
from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings, strategies as st

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


def reference_entry(pairs):
    """(val, nums, den, trunc) of sum x * y by Fraction loops over the terms.

    A product with an exact zero factor is exact 0; any other product is
    certified below min(trunc x + val y, trunc y + val x), and the sum below
    the least of those.
    """
    t, terms = None, {}
    for x, y in pairs:
        if (not x.nums and x.trunc is None) or (not y.nums and y.trunc is None):
            continue
        for order, v in ((x.trunc, y.val), (y.trunc, x.val)):
            if order is not None:
                t = order + v if t is None else min(t, order + v)
        for i, c in x.terms().items():
            for j, d in y.terms().items():
                terms[i + j] = terms.get(i + j, F(0)) + c * d
    keys = sorted(k for k, c in terms.items() if c and (t is None or k < t))
    if not keys:
        return (0 if t is None else t), (), 1, t
    cs = [terms.get(k, F(0)) for k in range(keys[0], keys[-1] + 1)]
    den = lcm(*(c.denominator for c in cs))
    return keys[0], tuple(int(c * den) for c in cs), den, t


def kernel_matrix(rng, n, m):
    """Sparse: exact zeros, truncated zeros, monomials and long mixed-denominator entries."""
    def entry():
        kind = rng.random()
        if kind < 0.4:
            return ZERO
        if kind < 0.5:
            return LaurentSeries.zero(rng.randint(-3, 9))
        val = rng.randint(-3, 3)
        if kind < 0.7:
            c = rng.choice([F(1), F(-1), F(rng.randint(-9, 9) or 1, rng.randint(1, 7))])
            return LaurentSeries(val, [c], None if rng.random() < 0.7 else val + rng.randint(1, 8))
        cs = [F(rng.randint(-10**6, 10**6), rng.choice([1, 2, 3, 5, 7, 12, 35]))
              for _ in range(rng.randint(2, 14))]
        return LaurentSeries(val, cs, None if rng.random() < 0.5 else val + rng.randint(0, 16))
    return [[entry() for _ in range(m)] for _ in range(n)]


class TestSmatMulOracle:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_pairwise_reference(self, seed):
        rng = random.Random(seed)
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a, b = kernel_matrix(rng, n, k), kernel_matrix(rng, k, m)
        out = smat_mul(a, b)
        for i in range(n):
            for j in range(m):
                x = out[i][j]
                want = reference_entry([(a[i][t], b[t][j]) for t in range(k)])
                assert (x.val, x.nums, x.den, x.trunc) == want


def wide_matrix(rng, n, m):
    """kernel_matrix entries at magnitudes from one digit to 40, so the entries
    of one product need slot widths from 1 byte to past 8."""
    def entry():
        kind = rng.random()
        if kind < 0.35:
            return ZERO
        if kind < 0.45:
            return LaurentSeries.zero(rng.randint(-3, 9))
        val = rng.randint(-3, 3)
        top = 10 ** rng.choice([1, 2, 5, 9, 18, 40])
        size = 1 if kind < 0.6 else rng.randint(2, 14)
        cs = [F(rng.randint(-top, top) or 1, rng.choice([1, 2, 3, 5, 7, 12, 35])) for _ in range(size)]
        return LaurentSeries(val, cs, None if rng.random() < 0.5 else val + rng.randint(0, 16))
    return [[entry() for _ in range(m)] for _ in range(n)]


def key(x):
    return (x.val, x.nums, x.den, x.trunc)


class TestWideProducts:
    """smat_mul against a left-to-right sum of __mul__ products and __add__ per
    entry, which builds no sum of products: entries from one digit to 40, so
    the entries of one product need slot widths from 1 byte to past 8."""

    def test_entries_match_left_to_right_sum(self):
        rng = random.Random(12)
        for _ in range(150):
            n, k, m = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 5)
            a, b = wide_matrix(rng, n, k), wide_matrix(rng, k, m)
            out = smat_mul(a, b)
            for i in range(n):
                for j in range(m):
                    want = ZERO
                    for t in range(k):
                        want = want + a[i][t] * b[t][j]
                    assert key(out[i][j]) == key(want)
