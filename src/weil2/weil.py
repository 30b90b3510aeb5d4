"""The Weil representation of ASp(V) on a fixed model, assembled from the
scaled-transport trivialization, together with its oriented refinement.

For each enhanced Lagrangian the transport T_{L,L0} to the base carries a
rational scalar whose canonical fourth root lambda_L turns the chain
product into an honest matrix E_L; transitions E_{M,L} = E_M E_L^{-1} then
compose exactly.  The operator attached to a in ASp(V) is

    W(a) = E_{L0, a.L0} P_a,      (P_a f)(h) = f(a^{-1} h),

which satisfies Egorov's relation W(a) pi(h) = pi(a h) W(a).  The map
a -> W(a) is projective with a mu4-valued cocycle.

At the oriented level the scalars are squares (power-2 transports), the
canonical square root mu replaces lambda, operators attach to Sp(Vt)
through the section lift_sp, and the cocycle drops to mu2 = {+-1}.
"""
from __future__ import annotations

from . import linalg
from .cyclotomic import Cyc8, ZETA, mu4_exponent, sqrt2_pow
from .heisenberg import act_on_enhanced, asp_inv, lift_sp
from .models import Model, ZiMatrix
from .transport import (
    enhanced_of_oriented,
    splitting_transport,
    trivialization_transport,
)


def lambda_root(s):
    """Canonical fourth root of the rational transport scalar: |s|^{1/4},
    times the first power of zeta whose fourth power matches the sign."""
    if not s.is_rational():
        raise ValueError("trivialization scalar must be rational")
    fr = s.rational_value()
    if fr.numerator not in (1, -1):
        raise ValueError(f"unexpected scalar {fr}")
    q = fr.denominator
    k = (q.bit_length() - 1) // 2
    if 4 ** k != q:
        raise ValueError(f"unexpected scalar denominator {q}")
    root = sqrt2_pow(-k)
    if fr.numerator < 0:
        root = ZETA * root
    if root ** 4 != s:
        raise RuntimeError(f"{root} is not a fourth root of {s}")
    return root


def mu_root(s):
    """Canonical square root of a splitting scalar s in Q(i) with |s| a
    power of 2: zeta^j |s|^{1/2} with the smallest j such that
    zeta^{2j} = s / |s|."""
    a2 = s.abs_squared()
    if a2.numerator != 1:
        raise ValueError(f"unexpected splitting scalar {s}")
    q = a2.denominator
    m = (q.bit_length() - 1) // 2
    if 4 ** m != q:
        raise ValueError(f"unexpected splitting scalar norm 1/{q}")
    unit = s * Cyc8.from_rational(2 ** m)
    j = mu4_exponent(unit)
    if j is None:
        raise ValueError(f"splitting scalar unit part {unit} is not in mu4")
    root = Cyc8.zeta_pow(j) * sqrt2_pow(-m)
    if root * root != s:
        raise RuntimeError(f"{root} is not a square root of {s}")
    return root


def translation_matrix(space, a, model_src, model_dst):
    """P_a: H_{src} -> H_{dst} for dst = a.src, (P_a f)(h) = f(a^{-1} h),
    as a monomial ZiMatrix."""
    inv = asp_inv(space, a)
    entries = []
    for t in model_dst.reps:
        e, col = model_src.eval_exponent(inv.apply_h((t, 0)))
        entries.append((e, model_src.rep_index[col]))
    return ZiMatrix.monomial(entries, model_src.dim)


class _TransportedRepresentation:
    """What the enhanced and the oriented construction share: the honest
    transports E_X = root(s) * (chain product) of the transport from X to
    the base, their transitions E_{X,Y} = E_X E_Y^{-1}, and the operator
    E_{base, target} P_a, given the transport function and the root of its
    scalar."""

    def __init__(self, space, base, base_enh, transport, root):
        self.space = space
        self.base = base
        self.base_model = Model(space, base_enh)
        self._transport = transport
        self._root = root
        self._ehat = {}
        self._ops = {}

    def e_hat(self, x):
        """root(s) * (chain product) of the transport from x to the base:
        an honest matrix."""
        key = x.key()
        if key not in self._ehat:
            T = self._transport(self.space, x, self.base)
            self._ehat[key] = T.product().scaled(self._root(T.scalar))
        return self._ehat[key]

    def transition(self, x, y):
        """E_{x,y}: H_y -> H_x, composing exactly (no scalar slack)."""
        return self.e_hat(x) @ self.e_hat(y).inverse()

    def _assemble(self, a, target, target_enh):
        P = translation_matrix(self.space, a, self.base_model,
                               Model(self.space, target_enh))
        return self.transition(self.base, target) @ P

    def cocycle(self, x, y, xy):
        """The exponent c in 0..3 with W(x) W(y) = i^c W(xy), for the
        product xy = Group.mul(x, y) of the enumerated group (heisenberg)."""
        return _mu4_ratio(self.operator(x) @ self.operator(y),
                          self.operator(xy), "cocycle")


class WeilRepresentation(_TransportedRepresentation):
    """Enhanced-level construction over a fixed base model."""

    def __init__(self, space, base=None):
        if base is None:
            base = space.enhance_from_lift(space.standard_oriented().basis)
        super().__init__(space, base, base, trivialization_transport,
                         lambda_root)

    def operator(self, a):
        key = a.key()
        if key not in self._ops:
            target = act_on_enhanced(self.space, a, self.base)
            self._ops[key] = self._assemble(a, target, target)
        return self._ops[key]


class SplitWeilRepresentation(_TransportedRepresentation):
    """Oriented-level construction: operators attach to Sp(Vt) and the
    cocycle lands in {+1, -1} (exponents 0 and 2)."""

    def __init__(self, space):
        base = space.standard_oriented()
        super().__init__(space, base, enhanced_of_oriented(space, base),
                         splitting_transport, mu_root)

    def operator(self, gt):
        if gt not in self._ops:
            a = lift_sp(self.space, gt, validate=False)
            target = self.space.oriented_transform(gt, self.base)
            self._ops[gt] = self._assemble(
                a, target, enhanced_of_oriented(self.space, target))
        return self._ops[gt]


def commutant_dimension(operators):
    """dim of {X : X W = W X for all W}: the exact nullity of the stacked
    commutator system over Q(zeta8)."""
    m = operators[0].shape[0]
    zero = Cyc8.from_rational(0)
    rows = []
    for W in (op.to_cyc() for op in operators):
        # (X W - W X)[i][j] = sum_k X[i][k] W[k][j] - W[i][k] X[k][j]
        for i in range(m):
            for j in range(m):
                row = [zero] * (m * m)
                for k in range(m):
                    row[i * m + k] = row[i * m + k] + W[k][j]
                    row[k * m + j] = row[k * m + j] - W[i][k]
                rows.append(row)
    return m * m - len(linalg.eliminate(linalg.CYC8_OPS, rows, m * m))


def coboundary_ratio(rep_alt, rep, Phi, a):
    """The exponent b in 0..3 with W'(a) = i^b Phi W(a) Phi^{-1}: the two
    constructions differ by an explicit mu4-valued coboundary."""
    return _mu4_ratio(rep_alt.operator(a),
                      Phi @ rep.operator(a) @ Phi.inverse(), "coboundary")


def _mu4_ratio(X, Y, what):
    """The exponent c in 0..3 with X = i^c Y; ValueError when X and Y are
    not proportional or the ratio is not a fourth root of unity."""
    r = X.ratio(Y)
    if r is None:
        raise ValueError(f"{what}: operators are not proportional")
    c = mu4_exponent(r)
    if c is None:
        raise ValueError(f"{what} value {r} is not a fourth root of unity")
    return c
