"""Scaled transports: formal p-th-root scalars attached to intertwiners,
with exact equality testing.

A ScaledTransport (s, P, p) stands for s^{1/p} * P without ever
extracting the root: two transports are equal when their matrices
(ZiMatrix values) are proportional, P = r * P', and s == s' * r^p.
Every scalar here, s and r alike, is a monomial zeta^e sqrt2^s and is kept
as its exponent pair (e, s), e in 0..7; scalars multiply by adding
exponents (`monomial_product`).

The trivializing scalar for the intertwiner groupoid is the rational
    A = (-1)^{dn} / 4^{dn} = zeta^{4dn} sqrt2^{-4dn}
(with p = 4); the composite of two canonical intertwiners is C * F with
C^4 = (-1)^{dn} 4^{dn}, so A-scaled transports compose on the nose.

At the oriented level the finer scalar (p = 2) is
    A_split(Mt, Lt) / |M|^2,   A_split = G([R^n, tr B])^2,
where B = diag(1, .., 1, w) and w is the wedge pairing of the two
orientations.  Its square recovers A by the fourth-power Gauss identity
G([X])^4 = (-1)^{rk} 4^{rk}.
"""
from __future__ import annotations

from .models import gaussian_monomial, intertwiner_matrix
from .symplectic import OrientedLagrangian
from .witt import gauss_sum, trace_form


def monomial_product(a, b, p=1):
    """a * b^p for exponent pairs (e, s) of zeta^e sqrt2^s."""
    return (a[0] + p * b[0]) % 8, a[1] + p * b[1]


class ScaledTransport:
    __slots__ = ("scalar", "matrix", "power")

    def __init__(self, scalar, matrix, power):
        self.scalar = scalar
        self.matrix = matrix
        self.power = power

    def _matches(self, scalar, r):
        """scalar^{1/p} P == self, for r the ratio of P to self.matrix."""
        return r is not None and monomial_product(scalar, r, self.power) == self.scalar

    def is_product(self, scalar, X, Y):
        """self == scalar^{1/p} X Y, with X Y compared on packed rows, never
        built (ZiMatrix.product_ratio)."""
        return self._matches(scalar, X.product_ratio(Y, self.matrix))

    def composes_to(self, other, target):
        """self . other == target (apply other first)."""
        if self.power != other.power:
            raise ValueError("cannot compose transports of different powers")
        return target.power == self.power and target.is_product(
            monomial_product(self.scalar, other.scalar), self.matrix, other.matrix)

    def __eq__(self, other):
        """s1^{1/p} P1 == s2^{1/p} P2: with P1 = r P2 this is s1 r^p == s2."""
        if not isinstance(other, ScaledTransport) or self.power != other.power:
            return NotImplemented
        return other._matches(self.scalar, self.matrix.ratio(other.matrix))

    def __repr__(self):
        return (f"ScaledTransport(scalar={self.scalar}, "
                f"shape={self.matrix.shape}, power={self.power})")


def trivializing_scalar(space):
    """A = (-1)^{dn} / 4^{dn} as its exponent pair."""
    dn = space.dn
    return 4 * dn % 8, -4 * dn


def first_transversal_rows(space, rows1, rows2):
    """The first Lagrangian of enumerate_lagrangians() transversal to both
    spans.  It is a scan of the list, not a draw: which common transversal
    is taken fixes the mu4 phase of every Weil operator routed through it,
    and with it the emit-corpus and weil-matrix outputs."""
    for rows in space.enumerate_lagrangians():
        if space.transversal_k(rows, rows1) and space.transversal_k(rows, rows2):
            return rows
    raise ValueError("no common transversal subspace found")


def _intertwiner(space, eM, eL):
    """(Kt, F): F maps the model of eL to the model of eM.  It is the
    intertwiner itself when the pair is transversal (Kt is None), else the
    product of the two through the enhanced initial lift Kt of their first
    common transversal."""
    if eM.rows != eL.rows and space.transversal_k(eM.rows, eL.rows):
        return None, intertwiner_matrix(eM, eL)
    Kt = space.initial_lift(first_transversal_rows(space, eM.rows, eL.rows))
    eK = space.enhance_from_lift(Kt)
    return Kt, intertwiner_matrix(eM, eK) @ intertwiner_matrix(eK, eL)


def trivialization_transport(space, eM, eL):
    """T_{M,L}: power-4 transport from the model of (L, alpha_L) to the
    model of (M, alpha_M); routed through the first common transversal
    when the pair itself is not transversal."""
    A = trivializing_scalar(space)
    Kt, F = _intertwiner(space, eM, eL)
    return ScaledTransport(A if Kt is None else monomial_product(A, A), F, 4)


def wedge_form(space, oM, oL):
    """B = diag(1, .., 1, w) over R, with w the wedge pairing of o_L and o_M."""
    R, n = space.R, space.n
    w = space.wedge_pairing(oL, oM)
    return tuple(
        tuple((w if i == n - 1 else R.one) if i == j else 0 for j in range(n))
        for i in range(n)
    )


def splitting_scalar(space, oM, oL):
    """A_split(Mt, Lt) / |M|^2 = G^2 / 4^{dn} for a transversal oriented
    pair, from the exponents of the Gaussian integer G = zeta^e sqrt2^s.
    RuntimeError when G is not of that form."""
    G = gauss_sum(trace_form(space.R, wedge_form(space, oM, oL)))
    g = gaussian_monomial(G, (1, 0))
    if g is None:
        raise RuntimeError(f"Gauss sum {G} is not zeta^e sqrt2^s")
    return monomial_product((0, -4 * space.dn), g, 2)


def enhanced_of_oriented(space, oX):
    return space.enhance_from_lift(oX.basis)


def splitting_transport(space, oM, oL):
    """S_{Mt,Lt}: power-2 transport refining T over oriented Lagrangians."""
    Kt, F = _intertwiner(space, enhanced_of_oriented(space, oM),
                         enhanced_of_oriented(space, oL))
    if Kt is None:
        s = splitting_scalar(space, oM, oL)
    else:
        oK = OrientedLagrangian(Kt, space.R.one)
        s = monomial_product(splitting_scalar(space, oM, oK),
                             splitting_scalar(space, oK, oL))
    return ScaledTransport(s, F, 2)


def transport_square(S):
    """The power-4 transport with the same matrix and squared scalar."""
    return ScaledTransport(monomial_product(S.scalar, S.scalar), S.matrix, 4)
