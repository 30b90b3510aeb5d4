import itertools
import random

import pytest

import kref
from weil2 import linalg
from weil2.galois import ring
from weil2.symplectic import SympSpace


def _random_matrix(R, rng, n):
    return tuple(tuple(rng.randrange(R.size) for _ in range(n)) for _ in range(n))


def _random_invertible(R, rng, n):
    while True:
        A = _random_matrix(R, rng, n)
        if R.is_unit(linalg.det_ring(R, A)):
            return A


@pytest.mark.parametrize("d", [1, 2])
def test_inverse_ring_roundtrip(d):
    R = ring(d)
    ops = kref.ring_ops(R)
    rng = random.Random(d)
    for n in (1, 2, 3):
        for _ in range(20):
            A = _random_invertible(R, rng, n)
            Ainv = kref.invert(ops, A)
            assert _ring_mat_mul(R, A, Ainv) == _identity(ops, n)
            assert _ring_mat_mul(R, Ainv, A) == _identity(ops, n)


def test_det_multiplicative():
    R = ring(2)
    rng = random.Random(5)
    for _ in range(40):
        A = _random_matrix(R, rng, 3)
        B = _random_matrix(R, rng, 3)
        dAB = linalg.det_ring(R, _ring_mat_mul(R, A, B))
        assert dAB == R.mul(linalg.det_ring(R, A), linalg.det_ring(R, B))


def test_det_transpose_invariant():
    R = ring(1)
    rng = random.Random(7)
    for _ in range(40):
        A = _random_matrix(R, rng, 4)
        assert linalg.det_ring(R, A) == linalg.det_ring(R, linalg.transpose(A))


def test_solve_ring():
    R = ring(2)
    rng = random.Random(9)
    for _ in range(30):
        A = _random_invertible(R, rng, 3)
        x = tuple(rng.randrange(R.size) for _ in range(3))
        b = linalg.vec_mat(R, x, linalg.transpose(A))
        assert kref.solve_many(kref.ring_ops(R), A, (b,)) == [x]


def test_rref_ring_recovers_pivot_columns():
    R = ring(1)
    rows = ((1, 2, 0), (0, 0, 1))
    can, pivots = kref.rref_ring(R, rows)
    assert pivots == (0, 2)
    for r, p in zip(can, pivots):
        assert r[p] == 1
        for other in range(len(can)):
            if other != pivots.index(p):
                assert can[other][p] == 0


def test_field_rank_and_span():
    """The kernel's rank over k counts the brute-force span, and the packed
    Subspace of the same rows (k^2 is V at d2n1) has that many elements."""
    R = ring(2)  # residue field F4
    rows = ((1, 2), (2, 3))
    assert kref.rank(R, ((1, 0), (0, 1))) == 2
    assert kref.rank(R, ((1, 1), (1, 1))) == 1
    sp = kref.span(R, rows, 2)
    # one combination per coefficient tuple; distinct values count the span
    assert len(sp) == R.field_size ** len(rows)
    assert len(set(sp)) == R.field_size ** kref.rank(R, rows)
    assert len(SympSpace(R, 1).subspace(rows).packed) == len(set(sp))


def test_solve_field():
    R = ring(1)
    A = ((1, 1), (0, 1))
    b = (0, 1)
    x, = kref.solve_many(kref.field_ops(R), A, (b,))
    got = tuple(sum(A[i][j] * x[j] for j in range(2)) % 2 for i in range(2))
    assert got == b


def test_vector_helpers():
    R = ring(1)
    assert linalg.vec_add(R, (1, 2), (3, 3)) == (0, 1)


# -- the reference elimination kernel, through each algebra's ops -----------

def _ring_mat_mul(R, A, B):
    return tuple(linalg.vec_mat(R, row, B) for row in A)


def _field_mat_mul(R, A, B):
    return tuple(kref.vec_mat(R, row, B) for row in A)


def _algebras():
    """(name, ops, random scalar, matrix product) for the ring and the
    residue field at d = 1, 2."""
    out = []
    for d in (1, 2):
        R = ring(d)
        out.append((f"ring-d{d}", kref.ring_ops(R),
                    lambda rng, R=R: rng.randrange(R.size),
                    lambda A, B, R=R: _ring_mat_mul(R, A, B)))
        out.append((f"field-d{d}", kref.field_ops(R),
                    lambda rng, R=R: rng.randrange(R.field_size),
                    lambda A, B, R=R: _field_mat_mul(R, A, B)))
    return out


ALGEBRAS = _algebras()


def _identity(ops, n):
    return tuple(tuple(ops.one if i == j else ops.zero for j in range(n))
                 for i in range(n))


def _random_square(ops, scalar, rng, n, invertible):
    while True:
        A = tuple(tuple(scalar(rng) for _ in range(n)) for _ in range(n))
        rows = [list(r) for r in A]
        if not invertible or len(kref.eliminate(ops, rows, n)) == n:
            return A


@pytest.mark.parametrize("name,ops,scalar,mul", ALGEBRAS, ids=[a[0] for a in ALGEBRAS])
def test_kernel_solve_and_inverse(name, ops, scalar, mul):
    rng = random.Random(name)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            A = _random_square(ops, scalar, rng, n, invertible=True)
            b = tuple(scalar(rng) for _ in range(n))
            (x,) = kref.solve_many(ops, A, (b,))
            assert mul(A, tuple((xi,) for xi in x)) == tuple((bi,) for bi in b)
            Ainv = kref.invert(ops, A)
            assert mul(A, Ainv) == _identity(ops, n)


def _in_row_space(ops, rows, v):
    return kref.solve_many(ops, linalg.transpose(rows), (v,)) is not None


@pytest.mark.parametrize("name,ops,scalar,mul", ALGEBRAS, ids=[a[0] for a in ALGEBRAS])
def test_kernel_rref_idempotent_and_row_space(name, ops, scalar, mul):
    rng = random.Random(name)
    for nrows, ncols in ((1, 3), (2, 4), (3, 3), (2, 5)):
        for _ in range(6):
            # rows of an invertible matrix span a free summand (unit pivots
            # exist over the ring), and a dependent row rides along
            A = _random_square(ops, scalar, rng, ncols, invertible=True)[:nrows]
            if nrows > 1:
                A += (tuple(ops.update(list(A[0]), ops.one, A[1])),)
            can, pivots = kref.rref_by(ops, A)
            assert len(can) == len(pivots) == nrows
            assert kref.rref_by(ops, can) == (can, pivots)
            assert all(_in_row_space(ops, A, row) for row in can)
            assert all(_in_row_space(ops, can, row) for row in A)


@pytest.mark.parametrize("d", [1, 2])
def test_wrappers_match_kernel(d):
    """SympSpace._ring_solve gives the kernel's RREF over the ring: its
    pivots, and X rows as the canonical rows; over k, the RREF rows and
    pivots that SympSpace.subspace reads off the F2 echelon are the
    kernel's, on rows that may be dependent."""
    R = ring(d)
    sp = SympSpace(R, 2)
    rng = random.Random(100 + d)
    for _ in range(10):
        A = _random_square(kref.ring_ops(R), lambda g: g.randrange(R.size),
                           rng, 4, invertible=True)[:3]
        pivots, X = sp._ring_solve(A)
        assert (_ring_mat_mul(R, X, A), pivots) == kref.rref_ring(R, A)
        rows = tuple(tuple(rng.randrange(R.field_size) for _ in range(4)) for _ in range(3))
        span = sp.subspace(rows)
        assert (span.rows, span.pivots) == kref.rref(R, rows)


def test_singular_inverse_raises():
    """solve_many against the unit vectors finds no inverse of a singular
    matrix over the ring or over k; a non-unit pivot over the ring, an
    inconsistent system over k."""
    R = ring(1)
    for ops, A in ((kref.ring_ops(R), ((2, 0), (0, 1))),
                   (kref.field_ops(R), ((1, 1), (1, 1)))):
        assert kref.invert(ops, A) is None
    assert kref.solve_many(kref.ring_ops(R), ((1, 0), (0, 2)), ((0, 1),)) is None
    assert kref.solve_many(kref.field_ops(R), ((1, 1), (1, 1)), ((0, 1),)) is None


def _cofactor_det(R, A):
    """The determinant by cofactor expansion along row 0."""
    if not A:
        return R.one
    det = 0
    for j, a in enumerate(A[0]):
        minor = tuple(row[:j] + row[j + 1:] for row in A[1:])
        term = R.mul(a, _cofactor_det(R, minor))
        det = R.add(det, R.neg(term) if j % 2 else term)
    return det


@pytest.mark.parametrize("d", [1, 2])
def test_det_ring_matches_cofactor_expansion(d):
    """det_ring against an independent rule: cofactor expansion along row
    0 on random matrices, and det(A) det(X) = 1 for the inverse X that
    SympSpace._ring_solve gives, for n = 1..4; a row swap flips the
    sign."""
    R = ring(d)
    sp = SympSpace(R, 2)
    rng = random.Random(60 + d)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            A = _random_matrix(R, rng, n)
            assert linalg.det_ring(R, A) == _cofactor_det(R, A)
            A = _random_square(kref.ring_ops(R), lambda g: g.randrange(R.size),
                               rng, n, invertible=True)
            pivots, X = sp._ring_solve(A)
            assert pivots == tuple(range(n))
            assert R.mul(linalg.det_ring(R, A), linalg.det_ring(R, X)) == R.one
    # a row swap flips the sign
    B = (A[1], A[0]) + A[2:]
    assert linalg.det_ring(R, B) == R.neg(linalg.det_ring(R, A))


# -- frames -------------------------------------------------------------------

def _pairwise_live(allowed):
    """The live step keeping a candidate x after the prefix rows when
    allowed(r, x) holds for every row r above it."""
    def live(rows, level):
        return [x for x in level if all(allowed(r, x) for r in rows)]
    return live


@pytest.mark.parametrize("seed", range(8))
def test_frames_match_the_filtered_product(seed):
    """Random levels (some empty, some with repeats) and a random pairwise
    rule: the frames are itertools.product filtered by brute force, in the
    same order."""
    rng = random.Random(seed)
    levels = [[rng.randrange(6) for _ in range(rng.randrange(5))]
              for _ in range(rng.randrange(1, 5))]
    allowed_pairs = {(a, b) for a in range(6) for b in range(6) if rng.random() < 0.7}

    def allowed(a, b):
        return (a, b) in allowed_pairs

    want = [t for t in itertools.product(*levels)
            if all(allowed(t[j], t[i]) for i in range(len(t)) for j in range(i))]
    assert list(linalg.frames(levels, _pairwise_live(allowed))) == want
    # a live step that keeps everything gives the product itself
    keep_all = _pairwise_live(lambda a, b: True)
    assert list(linalg.frames(levels, keep_all)) == list(itertools.product(*levels))


def test_frames_of_zero_levels_is_one_empty_tuple():
    def live(rows, level):
        raise AssertionError("zero levels need no live step")

    assert list(linalg.frames([], live)) == [()]
    assert list(linalg.frames((), live)) == [()]


def test_frames_are_lazy():
    """The first frame costs one live call per level, each on a prefix of
    that frame."""
    seen = []

    def live(rows, level):
        seen.append(rows)
        return [x for x in level if x not in rows]

    levels = [range(5)] * 4
    first = next(linalg.frames(levels, live))
    assert first == (0, 1, 2, 3)
    assert seen == [(), (0,), (0, 1), (0, 1, 2)]


def test_gram_live_keeps_the_prescribed_pairings():
    """gram_live against a brute-force filter: the frames of vectors of
    (Z/4)^2 with dot products gram[j][i] above the diagonal."""
    gram = ((1, 2, 3), (2, 0, 1), (3, 1, 3))
    vectors = tuple(itertools.product(range(4), repeat=2))

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v)) % 4

    want = [t for t in itertools.product(vectors, repeat=3)
            if all(dot(t[j], t[i]) == gram[j][i] for i in range(3) for j in range(i))]
    got = list(linalg.frames((vectors,) * 3, linalg.gram_live(dot, gram)))
    assert got == want and got
