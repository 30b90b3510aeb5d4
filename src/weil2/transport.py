"""Scaled transports: formal p-th-root scalars attached to intertwiners,
with exact equality testing.

A ScaledTransport (s, P, p) stands for s^{1/p} * P without ever
extracting the root: two transports are equal when their matrices
(ZiMatrix values) are proportional, P = r * P', and s == s' * r^p.

The trivializing scalar for the intertwiner groupoid is the rational
    A = (-1)^{dn} / 4^{dn}
(with p = 4); the composite of two canonical intertwiners is C * F with
C^4 = (-1)^{dn} 4^{dn}, so A-scaled transports compose on the nose.

At the oriented level the finer scalar (p = 2) is
    A_split(Mt, Lt) / |M|^2,   A_split = G([R^n, tr B])^2,
where B = diag(1, .., 1, w) and w is the wedge pairing of the two
orientations.  Its square recovers A by the fourth-power Gauss identity
G([X])^4 = (-1)^{rk} 4^{rk}.
"""
from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyc8
from .models import intertwiner_matrix
from .symplectic import OrientedLagrangian
from .witt import gauss_sum, trace_form


class ScaledTransport:
    __slots__ = ("scalar", "matrix", "power")

    def __init__(self, scalar, matrix, power):
        self.scalar = scalar
        self.matrix = matrix
        self.power = power

    def compose(self, other):
        """Operator product self . other (apply other first)."""
        if self.power != other.power:
            raise ValueError("cannot compose transports of different powers")
        return ScaledTransport(
            self.scalar * other.scalar, self.matrix @ other.matrix, self.power
        )

    def __eq__(self, other):
        """s1^{1/p} P1 == s2^{1/p} P2: with P1 = r P2 this is s1 r^p == s2."""
        if not isinstance(other, ScaledTransport) or self.power != other.power:
            return NotImplemented
        r = self.matrix.ratio(other.matrix)
        if r is None:
            return False
        return self.scalar * r ** self.power == other.scalar

    def __repr__(self):
        return (f"ScaledTransport(scalar={self.scalar}, "
                f"shape={self.matrix.shape}, power={self.power})")


def trivializing_scalar(space):
    dn = space.dn
    return Cyc8.from_rational(Fraction((-1) ** dn, 4 ** dn))


def first_transversal_rows(space, rows1, rows2):
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
    return ScaledTransport(A if Kt is None else A * A, F, 4)


def wedge_form(space, oM, oL):
    """B = diag(1, .., 1, w) over R, with w the wedge pairing of o_L and o_M."""
    R, n = space.R, space.n
    w = space.wedge_pairing(oL, oM)
    return tuple(
        tuple((w if i == n - 1 else R.one) if i == j else 0 for j in range(n))
        for i in range(n)
    )


def splitting_scalar(space, oM, oL):
    """A_split(Mt, Lt) / |M|^2 for a transversal oriented pair."""
    G = gauss_sum(trace_form(space.R, wedge_form(space, oM, oL)))
    return (G * G) * Cyc8.from_rational(Fraction(1, 4 ** space.dn))


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
        s = splitting_scalar(space, oM, oK) * splitting_scalar(space, oK, oL)
    return ScaledTransport(s, F, 2)


def transport_square(S):
    """The power-4 transport with the same matrix and squared scalar."""
    return ScaledTransport(S.scalar * S.scalar, S.matrix, 4)
