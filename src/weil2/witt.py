"""Symmetric unimodular forms over Z/4Z: Gauss character, block
decomposition, isometry, and the monoid generated by [1], [3], hyp, M4.

Grams are tuples of tuples of ints mod 4.  Congruence uses the column
convention: apply_congruence(U, B)[i][j] = sum_ab U[a][i] B[a][b] U[b][j],
i.e. the columns of U are the new basis vectors.

The Gauss character sums i^{B(v,v)} over a transversal {0,1}^r of V/2V
(B(v,v) mod 4 only depends on v mod 2V), so it is a Gaussian integer, kept
as the pair (re, im), and |G|^2 = 2^r for every unimodular gram ("purity").
"""
from __future__ import annotations

import itertools

from . import linalg

HYP = ((0, 1), (1, 0))
M4 = ((2, 1), (1, 2))
#: the canonical blocks in the order of a counts tuple
_KINDS = (((1,),), ((3,),), HYP, M4)

#: frozen isometry witnesses for the defining relations (columns are the
#: images of the new basis in the old one):
#:   REL1: M4 + M4        -> hyp + hyp
#:   REL2: [1]+[1]+[1]    -> [3] + M4
#:   REL3: [3]+[3]+[3]    -> [1] + M4
REL1_WITNESS = ((3, 2, 1, 3), (3, 1, 0, 0), (2, 2, 1, 3), (3, 3, 0, 1))
REL2_WITNESS = ((1, 1, 1), (1, 2, 1), (1, 1, 2))
REL3_WITNESS = ((1, 1, 2), (1, 1, 3), (1, 2, 3))


def validate_gram(B):
    r = len(B)
    for row in B:
        if len(row) != r:
            raise ValueError("gram must be square")
    for i in range(r):
        for j in range(r):
            if not (0 <= B[i][j] < 4):
                raise ValueError("gram entries must be reduced mod 4")
            if B[i][j] != B[j][i]:
                raise ValueError("gram must be symmetric")
    if det4(B) % 2 == 0:
        raise ValueError("gram must be unimodular (odd determinant)")
    return tuple(tuple(row) for row in B)


def det4(B):
    """Determinant mod 4 via exact integer elimination (Bareiss)."""
    n = len(B)
    if n == 0:
        return 1
    M = [[int(x) for x in row] for row in B]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            p = next((i for i in range(k + 1, n) if M[i][k]), None)
            if p is None:
                return 0
            M[k], M[p] = M[p], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return (sign * M[n - 1][n - 1]) % 4


def gauss_sum(B):
    """G([V, B]) = sum over V/2V of i^{B(v,v)}, as the pair (re, im)."""
    r = len(B)
    tally = [0, 0, 0, 0]
    for v in itertools.product(range(2), repeat=r):
        q = 0
        for i in range(r):
            if v[i]:
                q += B[i][i]
                for j in range(i + 1, r):
                    if v[j]:
                        q += 2 * B[i][j]
        tally[q % 4] += 1
    return tally[0] - tally[2], tally[1] - tally[3]


def direct_sum(A, B):
    """The block-diagonal gram of A then B."""
    return (tuple(tuple(row) + (0,) * len(B) for row in A)
            + tuple((0,) * len(A) + tuple(row) for row in B))


def neg_gram(B):
    return tuple(tuple((-x) % 4 for x in row) for row in B)


def canonical_gram(counts):
    M = ()
    for block, mult in zip(_KINDS, counts):
        for _ in range(mult):
            M = direct_sum(M, block)
    return M


def _pair(B, x, y):
    """B(x, y) = sum over a, b of x[a] B[a][b] y[b] mod 4, skipping the zero
    coordinates of x and y."""
    ys = [(b, yb) for b, yb in enumerate(y) if yb]
    return sum(xa * row[b] * yb for xa, row in zip(x, B) if xa for b, yb in ys) % 4


def apply_congruence(U, B):
    cols = list(zip(*U))
    return tuple(tuple(_pair(B, x, y) for y in cols) for x in cols)


# -- invariants ----------------------------------------------------------------

def gw_exponent(counts):
    """The mu8-exponent of the Gauss character on the canonical blocks:
    G = zeta^gw * 2^{rank/2}."""
    n1, n3, nh, nm = counts
    return (n1 + 7 * n3 + 4 * nm) % 8


def counts_rank(counts):
    n1, n3, nh, nm = counts
    return n1 + n3 + 2 * nh + 2 * nm


def counts_disc(counts):
    n1, n3, nh, nm = counts
    return 3 if (n3 + nh + nm) % 2 else 1


# -- canonical decomposition ---------------------------------------------------

def _split_off(B, block, x):
    """x minus its B-orthogonal projection onto the span of block, one or
    two vectors with unimodular Gram matrix G:
    x - sum_ij G^-1[i][j] B(x, b_j) b_i.  G^-1 is det G times the
    adjugate, since 1 and 3 are their own inverses mod 4."""
    G = [[_pair(B, b, c) for c in block] for b in block]
    adj = [[1]] if len(G) == 1 else [[G[1][1], -G[0][1]], [-G[1][0], G[0][0]]]
    dots = [_pair(B, x, b) for b in block]
    coeffs = [det4(G) * sum(a * t for a, t in zip(row, dots)) for row in adj]
    return tuple((xa - sum(c * b[a] for c, b in zip(coeffs, block))) % 4
                 for a, xa in enumerate(x))


def decompose(B):
    """Split a unimodular gram into canonical blocks.

    Returns (counts, U) with counts = (#[1], #[3], #hyp, #M4) and
    apply_congruence(U, B) == canonical_gram(counts).

    Each step takes G, the Gram matrix of the current basis, peels one
    block and splits it off the rest of the basis (_split_off).  The
    choices are deterministic: the first v in itertools.product order of
    {0,1}^m with G(v, v) odd gives [G(v, v)] and replaces the basis
    vector at v's first 1.  As G(v, v) = sum_k v_k G[k][k] mod 2, that v
    is b_k for the last k with G[k][k] odd.  Failing that (every G(v, v)
    is even), the first (i, j) in row-major order with G[i][j] odd gives
    e = b_i and f = G[i][j] b_j, which replace b_i and b_j.  They span M4
    when both have length 2 and HYP otherwise; if only f has length 2
    they are swapped, and if e has length 2 the HYP basis is (e + f, f).
    U lists the blocks as [1], [3], HYP, M4, each kind in the order it was
    peeled.
    """
    B = validate_gram(B)
    n = len(B)
    basis = [tuple(int(a == b) for b in range(n)) for a in range(n)]
    blocks = []  # (index in _KINDS, so [q] is q // 2; ambient vectors)
    while basis:
        m = len(basis)
        G = [[_pair(B, x, y) for y in basis] for x in basis]
        odd = [k for k in range(m) if G[k][k] % 2]
        if odd:
            k = odd[-1]
            kind, vecs, used = G[k][k] // 2, [basis[k]], {k}
        else:
            i, j = next((i, j) for i in range(m) for j in range(m) if G[i][j] % 2)
            e, f = basis[i], tuple(G[i][j] * a % 4 for a in basis[j])
            q = (G[i][i], G[j][j])
            if q == (0, 2):
                e, f, q = f, e, (2, 0)
            if q == (2, 0):
                e = tuple((a + b) % 4 for a, b in zip(e, f))
            kind, vecs, used = 3 if q == (2, 2) else 2, [e, f], {i, j}
        blocks.append((kind, vecs))
        basis = [_split_off(B, vecs, x) for a, x in enumerate(basis) if a not in used]

    counts = tuple(sum(kind == k for kind, _ in blocks) for k in range(4))
    U = tuple(zip(*(x for k in range(4) for kind, vecs in blocks if kind == k
                    for x in vecs)))
    if apply_congruence(U, B) != canonical_gram(counts):
        raise RuntimeError("decompose: the congruence witness failed")
    return counts, U


def is_isometric(A, B):
    """Whether apply_congruence(U, A) = B for some invertible U: the
    columns of U are frames whose level k holds the vectors of A-norm
    B[k][k], gram_live checks their pairings with the columns above, and
    the first invertible frame ends the search.  Only for rank <= 4."""
    if len(A) != len(B):
        return False
    if len(A) > 4:
        raise ValueError("brute-force isometry search is limited to rank <= 4")
    if det4(A) != det4(B):
        return False
    by_norm = {}
    for c in itertools.product(range(4), repeat=len(A)):
        by_norm.setdefault(_pair(A, c, c), []).append(c)
    levels = [by_norm.get(B[k][k], ()) for k in range(len(B))]
    live = linalg.gram_live(lambda u, c: _pair(A, u, c), B)
    # the columns are the rows of U's transpose, which has U's determinant
    return any(det4(cols) % 2 for cols in linalg.frames(levels, live))


def symmetric_grams(r):
    """Every symmetric gram mod 4 of the given rank, 4^{r(r+1)/2} of them,
    in itertools.product order of the upper triangle; keep r small."""
    idx = [(i, j) for i in range(r) for j in range(i, r)]
    for vals in itertools.product(range(4), repeat=len(idx)):
        M = [[0] * r for _ in range(r)]
        for (i, j), v in zip(idx, vals):
            M[i][j] = M[j][i] = v
        yield tuple(tuple(row) for row in M)


def all_unimodular_grams(r):
    """The symmetric grams of the given rank with odd determinant."""
    return (M for M in symmetric_grams(r) if det4(M) % 2)


def tuples_of_rank(r):
    """The counts tuples of the given rank, in itertools.product order."""
    blocks, halves = range(r + 1), range(r // 2 + 1)
    return [c for c in itertools.product(blocks, blocks, halves, halves)
            if counts_rank(c) == r]


# -- trace forms of ring-valued grams ------------------------------------------

def trace_form(R, B):
    """The Z4-gram of tr(B(x, y)) over the power basis {x^a e_i} of R^rank.
    Entries of B are ring element indices."""
    xs = [R.one]
    gen = R.from_coords([0, 1] + [0] * (R.d - 2)) if R.d >= 2 else R.one
    for _ in range(1, R.d):
        xs.append(R.mul(xs[-1], gen))
    # basis vector i * d + a is x^a e_i
    basis = [(i, x) for i in range(len(B)) for x in xs]
    return tuple(tuple(R.psi_exp(R.mul(B[i][j], R.mul(x, y))) for j, y in basis)
                 for i, x in basis)


def ring_disc(R, B):
    """Discriminant of an R-valued unimodular gram: det in R^x modulo
    squares of units (canonical orbit representative)."""
    return R.disc_class(linalg.det_ring(R, B))

