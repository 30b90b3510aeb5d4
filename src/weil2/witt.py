"""Symmetric unimodular forms over Z/4Z: Gauss character, block
decomposition, isometry, and the monoid generated by [1], [3], hyp, M4.

Grams are tuples of tuples of ints mod 4.  Congruence uses the column
convention: apply_congruence(U, B)[i][j] = sum_ab U[a][i] B[a][b] U[b][j],
i.e. the columns of U are the new basis vectors.

The Gauss character sums i^{B(v,v)} over a transversal {0,1}^r of V/2V
(B(v,v) mod 4 only depends on v mod 2V), so |G|^2 = 2^r for every
unimodular gram ("purity").
"""
from __future__ import annotations

import itertools

from . import linalg
from .cyclotomic import Cyc8

HYP = ((0, 1), (1, 0))
M4 = ((2, 1), (1, 2))

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
    """G([V, B]) = sum over V/2V of i^{B(v,v)}, exact in Z[i]."""
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
    return Cyc8((tally[0] - tally[2], 0, tally[1] - tally[3], 0))


def direct_sum(A, B):
    n, m = len(A), len(B)
    out = [[0] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            out[i][j] = A[i][j]
    for i in range(m):
        for j in range(m):
            out[n + i][n + j] = B[i][j]
    return tuple(tuple(r) for r in out)


def neg_gram(B):
    return tuple(tuple((-x) % 4 for x in row) for row in B)


def scale_gram(c, B):
    return tuple(tuple((c * x) % 4 for x in row) for row in B)


def canonical_gram(counts):
    n1, n3, nh, nm = counts
    M = None
    for block, mult in ((((1,),), n1), (((3,),), n3), (HYP, nh), (M4, nm)):
        for _ in range(mult):
            M = direct_sum(M, block) if M is not None else block
    return M if M is not None else ()


def apply_congruence(U, B):
    n = len(B)
    return tuple(
        tuple(
            sum(U[a][i] * B[a][b] * U[b][j] for a in range(n) for b in range(n)) % 4
            for j in range(n)
        )
        for i in range(n)
    )


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

def decompose(B):
    """Split a unimodular gram into canonical blocks.

    Returns (counts, U) with counts = (#[1], #[3], #hyp, #M4) and
    apply_congruence(U, B) == canonical_gram(counts).

    Deterministic: case 1 peels the lexicographically first {0,1} vector
    with odd diagonal value; case 2 (all diagonal values even) takes the
    first unit off-diagonal entry in row-major order and projects off the
    rank-2 block it spans.
    """
    B = validate_gram(B)
    n = len(B)

    def form(x, y, G):
        return sum(
            x[a] * G[a][b] * y[b] for a in range(len(G)) for b in range(len(G))
        ) % 4

    def ambient(coeffs, bas):
        return tuple(
            sum(coeffs[i] * bas[i][a] for i in range(len(bas))) % 4 for a in range(n)
        )

    blocks = []
    cols = []

    def rec(G, bas):
        m = len(G)
        if m == 0:
            return
        # case 1: some 0/1 vector with unit length
        for v in itertools.product(range(2), repeat=m):
            if not any(v):
                continue
            q = form(v, v, G)
            if q % 2 == 0:
                continue
            blocks.append(((q,),))
            cols.append(ambient(v, bas))
            qinv = q  # 1 and 3 are self-inverse mod 4
            piv = v.index(1)
            newbas = []
            for i in range(m):
                if i == piv:
                    continue
                e = tuple(1 if j == i else 0 for j in range(m))
                c = (form(e, v, G) * qinv) % 4
                p = tuple((e[j] - c * v[j]) % 4 for j in range(m))
                newbas.append(ambient(p, bas))
            newG = tuple(tuple(form(x, y, B) for y in newbas) for x in newbas)
            rec(newG, newbas)
            return
        # case 2: everything on the diagonal is even; grab a unit off
        # the diagonal and split off the rank-2 block
        for i in range(m):
            for j in range(m):
                if i != j and G[i][j] % 2:
                    u = G[i][j] % 4
                    uinv = u  # unit in {1, 3}
                    e = tuple(1 if a == i else 0 for a in range(m))
                    f = tuple(uinv if a == j else 0 for a in range(m))
                    qe, qf = form(e, e, G), form(f, f, G)
                    if (qe, qf) == (0, 2):
                        e, f = f, e
                        qe, qf = qf, qe

                    def proj(v):
                        ve, vf = form(v, e, G), form(v, f, G)
                        w = [(v[a] - ve * f[a] - vf * e[a]) % 4 for a in range(m)]
                        if (qe, qf) == (2, 2):
                            w = [(w[a] + 2 * ve * e[a] + 2 * vf * f[a]) % 4
                                 for a in range(m)]
                        elif (qe, qf) == (2, 0):
                            w = [(w[a] + 2 * vf * f[a]) % 4 for a in range(m)]
                        return tuple(w)

                    if (qe, qf) == (0, 0):
                        be, bf = e, f
                        blocks.append(HYP)
                    elif (qe, qf) == (2, 2):
                        be, bf = e, f
                        blocks.append(M4)
                    else:  # (2, 0): e + f, f spans a hyperbolic plane
                        be = tuple((e[a] + f[a]) % 4 for a in range(m))
                        bf = f
                        blocks.append(HYP)
                    cols.append(ambient(be, bas))
                    cols.append(ambient(bf, bas))
                    newbas = []
                    for a in range(m):
                        if a in (i, j):
                            continue
                        v = tuple(1 if x == a else 0 for x in range(m))
                        newbas.append(ambient(proj(v), bas))
                    newG = tuple(tuple(form(x, y, B) for y in newbas) for x in newbas)
                    rec(newG, newbas)
                    return
        raise AssertionError("no unit entry found in a unimodular gram")

    basis0 = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    rec(B, basis0)

    # stable-sort the blocks into canonical order and assemble the witness
    def block_key(b):
        if len(b) == 1:
            return (0, b[0][0])
        return (1, 0) if b == HYP else (1, 1)

    starts = []
    s = 0
    for b in blocks:
        starts.append(s)
        s += len(b)
    ordered = sorted(range(len(blocks)), key=lambda bi: block_key(blocks[bi]))
    Ucols = []
    for bi in ordered:
        for k in range(len(blocks[bi])):
            Ucols.append(cols[starts[bi] + k])
    counts = (
        sum(1 for b in blocks if b == ((1,),)),
        sum(1 for b in blocks if b == ((3,),)),
        sum(1 for b in blocks if b == HYP),
        sum(1 for b in blocks if b == M4),
    )
    U = tuple(tuple(Ucols[j][i] for j in range(n)) for i in range(n))
    if apply_congruence(U, B) != canonical_gram(counts):
        raise RuntimeError("decompose: the congruence witness failed")
    return counts, U


def is_isometric(A, B):
    """Brute-force congruence search (column extension with partial gram
    pruning); exponential, so only for rank <= 4."""
    if len(A) != len(B):
        return False
    if len(A) > 4:
        raise ValueError("brute-force isometry search is limited to rank <= 4")
    if det4(A) != det4(B):
        return False
    n = len(A)
    cands = list(itertools.product(range(4), repeat=n))

    def extend(ucols):
        k = len(ucols)
        if k == n:
            return True
        for c in cands:
            ok = True
            for i in range(k + 1):
                u = ucols[i] if i < k else c
                val = sum(u[a] * A[a][b] * c[b] for a in range(n) for b in range(n)) % 4
                if val != B[i][k]:
                    ok = False
                    break
            if not ok:
                continue
            if k + 1 == n:
                U = tuple(tuple((ucols + [c])[j][i] for j in range(n)) for i in range(n))
                if det4(U) % 2 == 0:
                    continue
            if extend(ucols + [c]):
                return True
        return False

    return extend([])


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
    out = []
    for n1 in range(r + 1):
        for n3 in range(r + 1):
            for nh in range(r // 2 + 1):
                for nm in range(r // 2 + 1):
                    if n1 + n3 + 2 * nh + 2 * nm == r:
                        out.append((n1, n3, nh, nm))
    return out


# -- trace forms of ring-valued grams ------------------------------------------

def trace_form(R, B):
    """The Z4-gram of tr(B(x, y)) over the power basis {x^a e_i} of R^rank.
    Entries of B are ring element indices."""
    r = len(B)
    xs = [R.one]
    gen = R.from_coords([0, 1] + [0] * (R.d - 2)) if R.d >= 2 else R.one
    for _ in range(1, R.d):
        xs.append(R.mul(xs[-1], gen))
    n = r * R.d
    out = [[0] * n for _ in range(n)]
    for i in range(r):
        for a in range(R.d):
            for j in range(r):
                for b in range(R.d):
                    val = R.mul(B[i][j], R.mul(xs[a], xs[b]))
                    out[i * R.d + a][j * R.d + b] = R.psi_exp(val)
    return tuple(tuple(row) for row in out)


def ring_disc(R, B):
    """Discriminant of an R-valued unimodular gram: det in R^x modulo
    squares of units (canonical orbit representative)."""
    return R.disc_class(linalg.det_ring(R, B))

