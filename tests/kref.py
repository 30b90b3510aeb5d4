"""Reference rules over the residue field k of GR(4, d) and over the ring,
on k-vectors as tuples of bitmasks and R-vectors as tuples of ring
indices, for the tests.  The package computes over k on packed vectors
(the F2 echelon and the form masks of weil2.symplectic, the packed H(V)
of weil2.heisenberg) and solves over R by one Newton step from k
(SympSpace._ring_solve); these are the coordinate rules it is checked
against: a generic elimination kernel run with the ops of the ring or of
k, spans by brute force over every coefficient tuple, the forms
coordinate by coordinate, H(V) on tuples, and Sp(V) walked on tuples."""

import functools
import itertools
import operator
from typing import NamedTuple

from weil2 import linalg


class ScalarOps(NamedTuple):
    """What the elimination kernel needs to know about an algebra.  The row
    operations act on whole rows, so an algebra keeps its own inner loop."""
    zero: object
    one: object
    is_pivot: object  # x -> whether x may serve as a pivot
    inv: object       # x -> x^-1
    scale: object     # (c, row) -> [c * x for x in row]
    update: object    # (row, f, prow) -> [x - f * y for x, y in zip(row, prow)]


@functools.cache
def ring_ops(R):
    """The ops of GR(4, d): pivots are units.  Over the local ring every
    invertible matrix has unit pivots (invertibility mod 2 lifts); a row
    with no unit entry left is not pivoted."""
    mul, sub = R.mul, R.sub
    return ScalarOps(
        0, R.one, R.is_unit, R.inv,
        lambda c, row: [mul(c, x) for x in row],
        lambda row, f, prow: [sub(x, mul(f, y)) for x, y in zip(row, prow)],
    )


@functools.cache
def field_ops(R):
    """The ops of k, where every nonzero entry is a pivot; the inverse of
    x is the reduction of the ring inverse of its lift."""
    fmul = R.field_mul
    return ScalarOps(
        0, 1, bool, lambda x: R.reduce(R.inv(R.lift(x))),
        lambda c, row: [fmul(c, x) for x in row],
        lambda row, f, prow: [x ^ fmul(f, y) for x, y in zip(row, prow)],
    )


def eliminate(ops, rows, ncols):
    """Reduce the list of row lists `rows` to reduced row echelon form on its
    first `ncols` columns, in place, using pivots that pass ops.is_pivot;
    later columns (right-hand sides) ride along.  Returns the pivot columns;
    pivoted rows come first, in pivot order."""
    is_pivot, inv, scale, update = ops.is_pivot, ops.inv, ops.scale, ops.update
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if is_pivot(rows[i][c])), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r] = scale(inv(rows[r][c]), rows[r])
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = update(rows[i], f, prow)
        pivots.append(c)
        r += 1
    return pivots


def solve_many(ops, A, rhs):
    """One solution x_b of A x = b for each b in rhs, from one elimination
    of A with the right-hand sides appended as columns; free unknowns are
    zero.  None when some system is inconsistent (or, over the ring, needs
    a non-unit pivot)."""
    n, m = len(A), len(A[0])
    aug = [list(A[i]) + [b[i] for b in rhs] for i in range(n)]
    pivots = eliminate(ops, aug, m)
    if any(any(row) for row in aug[len(pivots):]):
        return None
    out = []
    for j in range(m, m + len(rhs)):
        x = [ops.zero] * m
        for row, c in zip(aug, pivots):
            x[c] = row[j]
        out.append(tuple(x))
    return out


def unit_vectors(ops, n):
    """The n standard basis vectors of the algebra of ops, e_1 first."""
    return [tuple(ops.one if j == i else ops.zero for j in range(n))
            for i in range(n)]


def rref_by(ops, rows):
    """(reduced pivoted rows, pivot columns) of a matrix; rows that find no
    pivot are dropped."""
    rows = [list(r) for r in rows]
    pivots = eliminate(ops, rows, len(rows[0]) if rows else 0)
    return tuple(tuple(r) for r in rows[:len(pivots)]), tuple(pivots)


def rref_ring(R, rows):
    """(RREF rows, pivot columns) over R with unit pivots."""
    return rref_by(ring_ops(R), rows)


def vec_mat(R, v, A):
    """The row action v -> sum_j v[j] * A[j] over k."""
    out = [0] * len(A[0])
    for c, row in zip(v, A):
        for j, x in enumerate(row):
            out[j] ^= R.field_mul(c, x)
    return tuple(out)


def rref(R, rows):
    """(RREF rows, pivot columns) over k, by the kernel."""
    return rref_by(field_ops(R), rows)


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
    xs = solve_many(ops, A, unit_vectors(ops, len(A)))
    return None if xs is None else linalg.transpose(xs)


def elements(space, sub):
    """The k-vectors of a Subspace, in the order of sub.packed."""
    return tuple(map(space.unpack, sub.packed))


def vectors(sp):
    """Every k-vector of V, in itertools.product order."""
    return itertools.product(range(sp.R.field_size), repeat=sp.dim)


def xor(u, v):
    """u + v over k."""
    return tuple(map(operator.xor, u, v))


def beta_field(sp, v, w):
    """The k-valued residue of bt: sum_i v_i w_{n+i} over k."""
    fmul, n = sp.R.field_mul, sp.n
    s = 0
    for i in range(n):
        s ^= fmul(v[i], w[n + i])
    return s


def omega_field(sp, v, w):
    """The residue of omt: omega(v, w) = 2 * lift(omega_field(v, w))."""
    return beta_field(sp, v, w) ^ beta_field(sp, w, v)


def beta(sp, v, w):
    """beta(v, w) = 2 * lift(beta_field(v, w)) in R."""
    R = sp.R
    return R.mul(R.two, R.lift(beta_field(sp, v, w)))


def h_elements(sp):
    """H(V) as (k-vector, z) in lexicographic order."""
    return [(v, z) for v in vectors(sp) for z in range(sp.R.size)]


def h_mul(sp, h1, h2):
    """(v1, z1) (v2, z2) = (v1 + v2, z1 + z2 + beta(v1, v2)) on k-vectors."""
    (v1, z1), (v2, z2) = h1, h2
    R = sp.R
    return xor(v1, v2), R.add(R.add(z1, z2), beta(sp, v1, v2))


def sp_k(sp):
    """Sp(V) as the frames of k-vectors whose omega_field Gram matrix is
    the residue of standard_omt_gram, in lexicographic order."""
    gram = tuple(map(sp.reduce_vec, sp.standard_omt_gram()))
    live = linalg.gram_live(lambda v, w: omega_field(sp, v, w), gram)
    return tuple(linalg.frames((tuple(vectors(sp)),) * sp.dim, live))
