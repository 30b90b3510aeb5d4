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
from .heisenberg import asp_inv, lift_sp
from .models import Model, matrix_inverse_cyc, matrix_mul_cyc, matrix_scale_cyc
from .transport import (
    enhanced_of_oriented,
    matrix_ratio,
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
    """P_a: H_{src} -> H_{dst} for dst = a.src, (P_a f)(h) = f(a^{-1} h)."""
    inv = asp_inv(space, a)
    rows = []
    for t in model_dst.reps:
        e, col = model_src.eval_exponent(inv.apply_h((t, 0)))
        rows.append((e, model_src.rep_index[col]))
    zero = Cyc8.from_rational(0)
    out = [[zero] * model_src.dim for _ in range(model_dst.dim)]
    for i, (e, j) in enumerate(rows):
        out[i][j] = Cyc8.i_pow(e)
    return tuple(tuple(r) for r in out)


class WeilRepresentation:
    """Enhanced-level construction over a fixed base model."""

    def __init__(self, space, base=None):
        self.space = space
        self.base = base if base is not None else space.enhance_from_lift(
            space.standard_oriented().basis
        )
        self.base_model = Model(space, self.base)
        self._ehat = {}
        self._ops = {}

    def e_hat(self, enh):
        """lambda * (chain product) of T_{enh, base}: an honest matrix."""
        key = enh.key()
        if key not in self._ehat:
            T = trivialization_transport(self.space, enh, self.base)
            self._ehat[key] = matrix_scale_cyc(lambda_root(T.scalar), T.product())
        return self._ehat[key]

    def transition(self, eM, eL):
        """E_{M,L}: H_L -> H_M, composing exactly (no scalar slack)."""
        return matrix_mul_cyc(self.e_hat(eM), matrix_inverse_cyc(self.e_hat(eL)))

    def operator(self, a):
        key = a.key()
        if key not in self._ops:
            target = _act_enhanced(self.space, a, self.base)
            P = translation_matrix(
                self.space, a, self.base_model, Model(self.space, target)
            )
            E = self.transition(self.base, target)
            self._ops[key] = matrix_mul_cyc(E, P)
        return self._ops[key]

    def cocycle(self, a, b):
        """W(a) W(b) = c(a, b) W(ab); the scalar is a fourth root of unity."""
        from .heisenberg import asp_mul
        lhs = matrix_mul_cyc(self.operator(a), self.operator(b))
        rhs = self.operator(asp_mul(self.space, a, b))
        r = matrix_ratio(lhs, rhs)
        if r is None:
            raise ValueError("Weil operators do not compose projectively")
        if mu4_exponent(r) is None:
            raise ValueError(f"cocycle value {r} is not a fourth root of unity")
        return r

    def egorov_defect(self, a, h):
        """W(a) pi(h) - pi(a h) W(a), as matrices (zero iff Egorov holds)."""
        W = self.operator(a)
        lhs = matrix_mul_cyc(W, self.base_model.pi_matrix(h))
        rhs = matrix_mul_cyc(self.base_model.pi_matrix(a.apply_h(h)), W)
        return tuple(
            tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(lhs, rhs)
        )


class SplitWeilRepresentation:
    """Oriented-level construction: operators attach to Sp(Vt) and the
    cocycle lands in {+1, -1}."""

    def __init__(self, space, base=None):
        self.space = space
        self.base = base if base is not None else space.standard_oriented()
        self.base_enh = enhanced_of_oriented(space, self.base)
        self.base_model = Model(space, self.base_enh)
        self._ehat = {}
        self._ops = {}

    def e_hat(self, oriented):
        key = oriented.key()
        if key not in self._ehat:
            S = splitting_transport(self.space, oriented, self.base)
            self._ehat[key] = matrix_scale_cyc(mu_root(S.scalar), S.product())
        return self._ehat[key]

    def transition(self, oM, oL):
        return matrix_mul_cyc(self.e_hat(oM), matrix_inverse_cyc(self.e_hat(oL)))

    def operator(self, gt):
        key = gt
        if key not in self._ops:
            a = lift_sp(self.space, gt, validate=False)
            target = self.space.oriented_transform(gt, self.base)
            P = translation_matrix(
                self.space, a, self.base_model,
                Model(self.space, enhanced_of_oriented(self.space, target)),
            )
            E = self.transition(self.base, target)
            self._ops[key] = matrix_mul_cyc(E, P)
        return self._ops[key]

    def cocycle(self, gt, ht):
        """W(g) W(h) = c(g, h) W(gh) with c = +-1.  The operator product
        acts by h first, so the matrix of gh has rows ht[i] * gt."""
        from .heisenberg import apply_sp_R
        prod = tuple(apply_sp_R(self.space, gt, ht[i]) for i in range(self.space.dim))
        lhs = matrix_mul_cyc(self.operator(gt), self.operator(ht))
        rhs = self.operator(prod)
        r = matrix_ratio(lhs, rhs)
        if r is None:
            raise ValueError("split operators do not compose projectively")
        if not (r == Cyc8.from_rational(1) or r == Cyc8.from_rational(-1)):
            raise ValueError(f"split cocycle value {r} is not a sign")
        return r


def _act_enhanced(space, a, enh):
    from .heisenberg import act_on_enhanced
    return act_on_enhanced(space, a, enh)


def commutant_dimension(space, operators):
    """dim of {X : X W = W X for all W}: the exact nullity of the stacked
    commutator system over Q(zeta8)."""
    m = len(operators[0])
    zero = Cyc8.from_rational(0)
    rows = []
    for W in operators:
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
    """b(a) with W'(a) = b(a) * Phi W(a) Phi^{-1}; the two constructions
    differ by an explicit mu4-valued coboundary."""
    conj = matrix_mul_cyc(
        matrix_mul_cyc(Phi, rep.operator(a)), matrix_inverse_cyc(Phi)
    )
    r = matrix_ratio(rep_alt.operator(a), conj)
    if r is None:
        raise ValueError("object change does not conjugate the operators")
    if mu4_exponent(r) is None:
        raise ValueError(f"coboundary value {r} is not a fourth root of unity")
    return r
