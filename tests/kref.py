"""Reference linear algebra over the residue field k of GR(4, d), on
k-vectors as tuples of bitmasks, for the tests.  The package does its
k-linear algebra on packed vectors through the F2 echelon of
weil2.symplectic; these are the coordinate rules it is checked against:
the generic elimination kernel of weil2.linalg run with a ScalarOps over
k, and spans by brute force over every coefficient tuple."""

import functools
import itertools

from weil2 import linalg


@functools.cache
def field_ops(R):
    """The ops of k, where every nonzero entry is a pivot; the inverse of
    x is the reduction of the ring inverse of its lift."""
    fmul = R.field_mul
    return linalg.ScalarOps(
        0, 1, bool, lambda x: R.reduce(R.inv(R.lift(x))),
        lambda c, row: [fmul(c, x) for x in row],
        lambda row, f, prow: [x ^ fmul(f, y) for x, y in zip(row, prow)],
    )


def vec_mat(R, v, A):
    """The row action v -> sum_j v[j] * A[j] over k."""
    out = [0] * len(A[0])
    for c, row in zip(v, A):
        for j, x in enumerate(row):
            out[j] ^= R.field_mul(c, x)
    return tuple(out)


def rref(R, rows):
    """(RREF rows, pivot columns) over k, by the kernel."""
    return linalg.rref(field_ops(R), rows)


def rank(R, rows):
    return len(rref(R, rows)[0])


def span(R, rows, width):
    """Every k-combination of rows, in itertools.product order of the
    coefficient tuples (with repeats when the rows are dependent)."""
    return [vec_mat(R, coeffs, rows) if rows else (0,) * width
            for coeffs in itertools.product(range(R.field_size), repeat=len(rows))]


def invert(ops, A):
    """A^-1 by one solve_many against the unit vectors; None when A is
    singular."""
    xs = linalg.solve_many(ops, A, linalg.unit_vectors(ops, len(A)))
    return None if xs is None else linalg.transpose(xs)


def elements(space, sub):
    """The k-vectors of a Subspace, in the order of sub.packed."""
    return tuple(map(space.unpack, sub.packed))
