"""Linear algebra over GR(4,d).

Matrices are tuples of row tuples of ring element indices of a
GaloisRing.  The residue field k has no section here: k-linear algebra is
done on packed k-vectors through the F2 echelon of weil2.symplectic
(spans, RREF rows, ranks, projections and the row action of a matrix over
k).  Nothing is eliminated over Q(zeta_8): irreducibility is read off
operator traces (weil.character_norm_is_one).

Every elimination goes through one kernel, `eliminate`: reduced row echelon
form on the leading columns, in place, with unit pivots only.  The algebra
enters through an ops object (zero, one, pivot test, inverse, row scale,
row update).  The package builds one, ``ring_ops(R)``: a pivot must be a
unit of R.  Over the local ring every invertible matrix has unit pivots
(invertibility mod 2 lifts), so this is enough for the free submodules
and invertible matrices used here; a row with no unit entry left is not
pivoted.  The tests run the same kernel over k and Q(zeta_8) with ops of
their own, as references.

`rref` and `solve_many` (one elimination for several right-hand sides)
run the kernel.  `rref_ring` serves `SympSpace.oriented_transform` alone,
and `solve_many` with the unit vectors as right-hand sides gives
`SympSpace._projection`, the projection matrix that
`SympSpace.r_map_tilde` reads, and `SympSpace._dual_family`, the duals of
`heisenberg.symplectic_lift_matrix`.  The free lifts of Lagrangians are
built in closed form and eliminate nothing.  `det_ring` is the Leibniz
formula alone: its matrices are n x n, and n <= 4 wherever they are
built, since the Lagrangian listing refuses every n >= 5.

`vec_mat` is the ring's one row action v -> sum_j v[j] * A[j]: every
linear combination of rows, and every matrix product (row by row), goes
through it; the product of Sp(Vt) reads it through the memoized table
`SympSpace.ring_action`.

`frames` is the one backtracking search (Lagrangians, Sp(V), Sp(Vt),
transversal triples, isometries of Z/4 forms), and `gram_live` its live
step for a prescribed Gram matrix.
"""
from __future__ import annotations

import functools
import itertools
from typing import NamedTuple


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
    """The ops of GR(4, d), built once per ring: pivots are units."""
    mul, sub = R.mul, R.sub
    return ScalarOps(
        0, R.one, R.is_unit, R.inv,
        lambda c, row: [mul(c, x) for x in row],
        lambda row, f, prow: [sub(x, mul(f, y)) for x, y in zip(row, prow)],
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
        pv = rows[r][c]
        prow = rows[r] = scale(inv(pv), rows[r])
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


def rref(ops, rows):
    """(reduced pivoted rows, pivot columns) of a matrix; rows that find no
    pivot are dropped."""
    rows = [list(r) for r in rows]
    pivots = eliminate(ops, rows, len(rows[0]) if rows else 0)
    return tuple(tuple(r) for r in rows[:len(pivots)]), tuple(pivots)


def frames(levels, live):
    """Every tuple (x_0, ..., x_{m-1}) with x_i in levels[i] that the live
    step lets through, in itertools.product order.  live(rows, level) lists
    the candidates of `level`, the next level, that may follow the prefix
    tuple `rows`; a candidate it drops is pruned with every completion.
    Zero levels give one empty tuple.  Lazy: live runs once per prefix
    reached, so a search that stops at its first frame walks one path."""
    m = len(levels)
    if m == 0:
        yield ()
        return
    rows = []
    stack = [iter(live((), levels[0]))]
    while stack:
        # rows[i] came from stack[i]; the top holds level len(rows)'s candidates
        for x in stack[-1]:
            rows.append(x)
            if len(rows) == m:
                yield tuple(rows)
                rows.pop()
            else:
                stack.append(iter(live(tuple(rows), levels[len(rows)])))
                break
        else:
            stack.pop()
            if rows:
                rows.pop()


def gram_live(form, gram):
    """The live step of the frames g with form(g_j, g_i) = gram[j][i] for
    every j < i; a diagonal that a non-alternating form must meet is the
    levels' part."""
    def live(rows, level):
        want = [gram[j][len(rows)] for j in range(len(rows))]
        out = []
        for v in level:
            for r, w in zip(rows, want):
                if form(r, v) != w:
                    break
            else:
                out.append(v)
        return out
    return live


# ---------------------------------------------------------------------------
# ring matrices
# ---------------------------------------------------------------------------

def vec_mat(R, v, A):
    """The row action v -> sum_j v[j] * A[j] over the ring."""
    add, mul = R.add, R.mul
    out = [0] * len(A[0])
    for c, row in zip(v, A):
        if c:
            out = [add(s, mul(c, x)) for s, x in zip(out, row)]
    return tuple(out)


def vec_add(R, u, v):
    return tuple(R.add(a, b) for a, b in zip(u, v))


def transpose(A):
    return tuple(zip(*A))


def rref_ring(R, rows):
    """Row-reduce over the ring using unit pivots only.

    Returns (reduced pivoted rows, pivot columns).  Rows that cannot be
    unit-pivoted (all entries non-unit) are dropped; for the free submodules
    this library manipulates they never occur.
    """
    return rref(ring_ops(R), rows)


def det_ring(R, A):
    """Determinant over the ring by the Leibniz formula (1 when A is
    empty, from its one empty permutation)."""
    n = len(A)
    det = 0
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = R.one
        for i in range(n):
            term = R.mul(term, A[i][perm[i]])
        det = R.add(det, R.neg(term) if inv % 2 else term)
    return det
