"""Linear algebra over GR(4,d).

Matrices are tuples of row tuples of ring element indices of a
GaloisRing.  Nothing here eliminates.  The residue field k has no section
here: k-linear algebra is done on packed k-vectors through the F2 echelon
of weil2.symplectic (spans, RREF rows, ranks, projections and the row
action of a matrix over k).  Every R-linear system the package solves
reduces to one invertible over k, so `SympSpace._ring_solve` reads its
k-solution off that echelon and lifts it with one Newton step (Hensel):
the projection onto N along L, the duals of
`heisenberg.symplectic_lift_matrix` and the canonical basis of a moved
oriented Lagrangian.  Nothing is eliminated over Q(zeta_8): irreducibility
is read off operator traces (weil.character_norm_is_one).  The tests keep
a coordinate elimination kernel as the reference (tests/kref.py).
`det_ring` is the Leibniz formula alone: its matrices are n x n, and
n <= 4 wherever they are built, since the Lagrangian listing refuses
every n >= 5.

`vec_mat` is the ring's one row action v -> sum_j v[j] * A[j]: every
linear combination of rows, and every matrix product (row by row), goes
through it; the product of Sp(Vt) reads it through the memoized table
`SympSpace.ring_action`.

`frames` is the one backtracking search (Lagrangians, Sp(V), Sp(Vt),
transversal triples, isometries of Z/4 forms), and `gram_live` its live
step for a prescribed Gram matrix.
"""
from __future__ import annotations

import itertools


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
