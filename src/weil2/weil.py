"""The Weil representation of ASp(V) on a fixed model, assembled from the
scaled-transport trivialization, together with its oriented refinement.

For each enhanced Lagrangian the transport T_{L,L0} to the base carries a
rational scalar whose canonical fourth root lambda_L turns the transport
matrix into an honest matrix E_L; transitions E_{M,L} = E_M E_L^{-1} then
compose exactly.  Scalars and roots are monomials zeta^e sqrt2^s, handled
as their exponent pairs (e, s) throughout.  The operator attached to a in ASp(V) is

    W(a) = E_{L0, a.L0} P_a,      (P_a f)(h) = f(a^{-1} h),

which satisfies Egorov's relation W(a) pi(h) = pi(a h) W(a).  The map
a -> W(a) is projective with a mu4-valued cocycle.

At the oriented level the scalars are squares (power-2 transports), the
canonical square root mu replaces lambda, operators attach to Sp(Vt)
through the section lift_sp, and the cocycle drops to mu2 = {+-1}.

Irreducibility is read off characters: over a whole group,
(1/|G|) sum |tr W(a)|^2 = 1 (Schur's criterion), with every trace a
monomial times a Gaussian integer, so the test runs in integers.
"""
from __future__ import annotations

import collections

from .heisenberg import act_on_enhanced, asp_inv, lift_sp
from .models import monomial_operator, mu4_exponent
from .symplectic import _cached
from .transport import (
    enhanced_of_oriented,
    splitting_transport,
    trivialization_transport,
)


def canonical_root(s, p):
    """The canonical p-th root of a transport scalar s = zeta^e sqrt2^b,
    given and returned as exponent pairs: (j, b/p) with the smallest j in
    0..7 such that p j = e (mod 8).  ValueError unless b <= 0, p divides b
    and such a j exists."""
    e, b = s
    j = next((j for j in range(8) if (p * j - e) % 8 == 0), None)
    if b > 0 or b % p or j is None:
        raise ValueError(f"transport scalar {s} has no canonical {p}th root")
    return j, b // p


def translation_matrix(a, src, dst):
    """P_a: H_{src} -> H_{dst} for dst = a.src, (P_a f)(h) = f(a^{-1} h),
    as a monomial ZiMatrix: row t of dst's transversal reads a^{-1} (t, 0)."""
    sp = src.space
    inv, psi_exp = asp_inv(sp, a), sp.R.psi_exp
    return monomial_operator(src, ((inv.act[t], psi_exp(inv.alpha[t]))
                                   for t in sp.transversal(dst.pivots)))


class _TransportedRepresentation:
    """What the enhanced and the oriented construction share: the honest
    transports E_X = root(s) * F of the transport (s, F, p) from X to the
    base, with root(s) its canonical p-th root, their transitions
    E_{X,Y} = E_X E_Y^{-1}, and the operator E_{base, target} P_a on the
    model of base_enhanced, given the transport function."""

    def __init__(self, space, base, base_enh, transport):
        self.space = space
        self.base = base
        self.base_enhanced = base_enh
        self._transport = transport
        self._caches = collections.defaultdict(dict)  # see symplectic._cached

    @_cached
    def e_hat(self, x):
        """root(s) * F of the transport from x to the base: an honest
        matrix."""
        T = self._transport(self.space, x, self.base)
        return T.matrix.scaled(*canonical_root(T.scalar, T.power))

    def transition(self, x, y):
        """E_{x,y}: H_y -> H_x, composing exactly (no scalar slack)."""
        return self.e_hat(x) @ self.e_hat(y).inverse()

    def _assemble(self, a, target, target_enh):
        P = translation_matrix(a, self.base_enhanced, target_enh)
        return self.transition(self.base, target) @ P

    def cocycle(self, x, y, xy):
        """The exponent c in 0..3 with W(x) W(y) = i^c W(xy), for the
        product xy = Group.mul(x, y) of the enumerated group (heisenberg);
        None when there is no such c.  W(x) W(y) is compared on packed rows,
        never built (ZiMatrix.product_ratio)."""
        return mu4_exponent(self.operator(x).product_ratio(
            self.operator(y), self.operator(xy)))


class WeilRepresentation(_TransportedRepresentation):
    """Enhanced-level construction over a fixed base model."""

    def __init__(self, space, base=None):
        if base is None:
            base = space.enhance_from_lift(space.standard_oriented().basis)
        super().__init__(space, base, base, trivialization_transport)

    @_cached
    def operator(self, a):
        target = act_on_enhanced(self.space, a, self.base)
        return self._assemble(a, target, target)


class SplitWeilRepresentation(_TransportedRepresentation):
    """Oriented-level construction: operators attach to Sp(Vt) and the
    cocycle lands in {+1, -1} (exponents 0 and 2)."""

    def __init__(self, space):
        base = space.standard_oriented()
        super().__init__(space, base, enhanced_of_oriented(space, base),
                         splitting_transport)

    @_cached
    def operator(self, gt):
        a = lift_sp(self.space, gt, validate=False)
        target = self.space.oriented_transform(gt, self.base)
        return self._assemble(a, target, enhanced_of_oriented(self.space, target))


def character_norm_is_one(operators):
    """Whether (1/|G|) sum_g |tr X(g)|^2 = 1 for the list of the operators
    X(g) over a group G, exactly in integers.  The trace of
    X = zeta^e sqrt2^s Y is zeta^e sqrt2^s tr Y with tr Y = (re, im) a
    Gaussian integer (ZiMatrix.trace), so |tr X|^2 = 2^s (re^2 + im^2);
    both sides are scaled by 2^t, t the largest of 0 and every -s, to
    stay integral.  For a projective representation of G by operators of
    finite order this is Schur's criterion for irreducibility
    (verify.schur_check establishes the rest)."""
    t = max([0] + [-X.sqrt2_exp for X in operators])
    total = 0
    for X in operators:
        re, im = X.trace()
        total += (re * re + im * im) << (X.sqrt2_exp + t)
    return total == len(operators) << t


def coboundary_ratio(rep_alt, rep, Phi, a):
    """The exponent b in 0..3 with W'(a) = i^b Phi W(a) Phi^{-1}: the two
    constructions differ by an explicit mu4-valued coboundary.  None when
    there is no such b.  Phi is invertible, so this is W'(a) Phi =
    i^b Phi W(a), and W'(a) Phi is compared on packed rows, never built."""
    return mu4_exponent(rep_alt.operator(a).product_ratio(
        Phi, Phi @ rep.operator(a)))
