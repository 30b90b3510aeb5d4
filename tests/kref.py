"""Reference rules over the residue field k of GR(4, d), on k-vectors as
tuples of bitmasks, for the tests.  The package computes over k on packed
vectors (the F2 echelon and the form masks of weil2.symplectic, the packed
H(V) of weil2.heisenberg); these are the coordinate rules it is checked
against: the generic elimination kernel of weil2.linalg run with a
ScalarOps over k, spans by brute force over every coefficient tuple, the
forms coordinate by coordinate, H(V) on tuples, and Sp(V) walked on
tuples."""

import functools
import itertools
import operator

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
