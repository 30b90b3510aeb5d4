"""Model spaces of the Heisenberg representation and the canonical
intertwiners between them.

For an enhanced Lagrangian (L, alpha) the model H_L consists of functions
on H(V) with
    f((l, z) * h) = psi(z - alpha(l)) f(h),
where psi(x) = i^{tr x} is the additive character of central character
psi.  Such f is determined by its values on (t, 0) for t in a fixed
transversal T_L of L in V (the span of the non-pivot standard basis
vectors, in lexicographic order).

The right translation pi_L(h) f = f(. h) realizes H(V) on H_L with one
psi-entry per matrix row.  Between two models the canonical intertwiner is
averaging over the source Lagrangian:
    (F_{M,L} f)(h) = sum_{m in M} f((m, alpha_M(m)) * h).
For a transversal pair every matrix entry of F_{M,L} is a single fourth
root of unity; we store the exponent matrix (entries in Z/4) and only
expand to exact cyclotomic numbers on demand.
"""
from __future__ import annotations

from math import lcm

from . import linalg
from .cyclotomic import Cyc8
from .witt import gauss_sum, trace_form


class Model:
    __slots__ = ("space", "enh", "reps", "rep_index", "_pivset")

    def __init__(self, space, enh):
        self.space = space
        self.enh = enh
        comp = [space.std_basis_k(j) for j in range(space.dim)
                if j not in enh.pivots]
        self.reps = tuple(sorted(space.span_k(comp))) if comp else ((0,) * space.dim,)
        self.rep_index = {t: i for i, t in enumerate(self.reps)}
        self._pivset = enh.pivots

    @property
    def dim(self):
        return len(self.reps)

    def split(self, v):
        """v = l + t with l in L and t in the transversal."""
        l = linalg.vec_mat_field(
            self.space.R, [v[p] for p in self.enh.pivots], self.enh.rows)
        t = tuple(a ^ b for a, b in zip(v, l))
        return l, t

    def eval_exponent(self, h):
        """psi-exponent bookkeeping for f((v, z)) = psi(z - alpha(l) -
        beta(l, t)) f((t, 0)): returns (exponent, t)."""
        sp, R = self.space, self.space.R
        v, z = h
        l, t = self.split(v)
        w = R.sub(R.sub(z, self.enh.alpha_of(l)), sp.beta(l, t))
        return R.psi_exp(w), t

    def pi_exponents(self, h):
        """pi(h) as (exponent, column) per row: (pi(h) f)[t] = psi(e) f[t']."""
        sp, R = self.space, self.space.R
        w, z = h
        out = []
        for t in self.reps:
            ht = ((tuple(a ^ b for a, b in zip(t, w))),
                  R.add(z, sp.beta(t, w)))
            e, t2 = self.eval_exponent(ht)
            out.append((e, self.rep_index[t2]))
        return tuple(out)

    def pi_matrix(self, h):
        """pi(h) as an exact matrix of fourth roots of unity (one nonzero
        per row)."""
        n = self.dim
        M = [[Cyc8.from_rational(0)] * n for _ in range(n)]
        for i, (e, j) in enumerate(self.pi_exponents(h)):
            M[i][j] = Cyc8.i_pow(e)
        return tuple(tuple(r) for r in M)


def standard_model(space):
    enh = space.enhance_from_lift(space.standard_oriented().basis)
    return Model(space, enh)


def _intertwiner_term(model_M, model_L, m, tM):
    """(psi-exponent, l, t_L) of the term m of F_{M,L} in row t_M, where
    m + t_M = l + t_L with l in L: the exponent of
    psi(alpha_M(m) + beta(m, t_M) - alpha_L(l) - beta(l, t_L))."""
    sp = model_M.space
    R = sp.R
    l, tL = model_L.split(tuple(a ^ b for a, b in zip(m, tM)))
    e = R.psi_exp(R.sub(
        R.sub(R.add(model_M.enh.alpha_of(m), sp.beta(m, tM)),
              model_L.enh.alpha_of(l)),
        sp.beta(l, tL),
    ))
    return e, l, tL


def intertwiner_exponents(model_M, model_L):
    """The exponent matrix of F_{M,L} for a transversal pair: entry
    [t_M][t_L] is the psi-exponent of the single m in M with
    m + t_M + t_L in L."""
    sp = model_M.space
    if not sp.transversal_k(model_M.enh.rows, model_L.enh.rows):
        raise ValueError("exponent form requires a transversal pair")
    rows = []
    for tM in model_M.reps:
        row = [None] * model_L.dim
        for m in model_M.enh.elements:
            e, _, tL = _intertwiner_term(model_M, model_L, m, tM)
            j = model_L.rep_index[tL]
            if row[j] is not None:
                raise RuntimeError("transversal pair hits a column twice")
            row[j] = e
        if None in row:
            raise RuntimeError("transversal pair misses a column")
        rows.append(tuple(row))
    return tuple(rows)


def intertwiner_matrix(model_M, model_L):
    """F_{M,L} as an exact cyclotomic matrix; works for any pair (entries
    are Z[i] sums over the fibre of m + t_M + t_L in L)."""
    spanL = set(model_L.enh.elements)
    out = []
    for tM in model_M.reps:
        row = [[0, 0, 0, 0] for _ in range(model_L.dim)]
        for m in model_M.enh.elements:
            e, l, tL = _intertwiner_term(model_M, model_L, m, tM)
            if l not in spanL:
                raise RuntimeError("split left the Lagrangian")
            row[model_L.rep_index[tL]][e] += 1
        out.append(tuple(
            Cyc8((c[0] - c[2], 0, c[1] - c[3], 0)) for c in row
        ))
    return tuple(out)


# -- exact Z[i] fast path ------------------------------------------------------
# a Z[i] value is an (re, im) int pair


def zi_rot(a, e):
    r, i = a
    e %= 4
    if e == 0:
        return (r, i)
    if e == 1:
        return (-i, r)
    if e == 2:
        return (-r, -i)
    return (i, -r)


def compose_exponent_matrices(A, B):
    """(A B)[i][j] = sum_k i^{A[i][k] + B[k][j]} as Z[i] pairs."""
    n, mid, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        Ai = A[i]
        row = []
        for j in range(m):
            re = im = 0
            for k in range(mid):
                e = (Ai[k] + B[k][j]) % 4
                if e == 0:
                    re += 1
                elif e == 1:
                    im += 1
                elif e == 2:
                    re -= 1
                else:
                    im -= 1
            row.append((re, im))
        out.append(tuple(row))
    return tuple(out)


def proportionality_scalar(comp, F_exp):
    """comp = C * i^{F_exp} entrywise: extract C in Z[i] and verify every
    entry; returns the exact Cyc8 scalar."""
    c = zi_rot(comp[0][0], -F_exp[0][0])
    for i in range(len(comp)):
        for j in range(len(comp[0])):
            if zi_rot(c, F_exp[i][j]) != comp[i][j]:
                raise ValueError("composite is not proportional to the target")
    return Cyc8((c[0], 0, c[1], 0))


def _integer_rows(A):
    """A over the lcm D of its entries' denominators: per row, the
    (column, numerator 4-tuple) of each nonzero entry; and D."""
    D = lcm(*(x.den for row in A for x in row))
    rows = [
        [(j, x.a if x.den == D else tuple(c * (D // x.den) for c in x.a))
         for j, x in enumerate(row) if x.a != (0, 0, 0, 0)]
        for row in A
    ]
    return rows, D


def matrix_mul_cyc(A, B):
    """The exact product A B of Q(zeta_8) matrices (tuples of Cyc8 rows).

    Summing Cyc8 products entry by entry builds, and gcd-normalizes, one
    Cyc8 per multiply and per add.  Instead each operand is brought to one
    common denominator, so the sums run over plain integer 4-tuples
    (multiplied mod z^4 + 1, zero entries skipped: the operators here are
    monomial or sparse), and only the finished entry, over DA * DB, is
    normalized.  Cyc8's normal form is canonical, so the result equals the
    entrywise sum exactly."""
    rows_a, da = _integer_rows(A)
    rows_b, db = _integer_rows(B)
    den = da * db
    m = len(B[0])
    out = []
    for row in rows_a:
        acc = [[0, 0, 0, 0] for _ in range(m)]
        for k, (a0, a1, a2, a3) in row:
            for j, (b0, b1, b2, b3) in rows_b[k]:
                s = acc[j]
                s[0] += a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1
                s[1] += a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2
                s[2] += a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3
                s[3] += a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
        out.append(tuple(Cyc8(s, den) for s in acc))
    return tuple(out)


def matrix_scale_cyc(c, A):
    return tuple(tuple(c * x for x in row) for row in A)


def matrix_inverse_cyc(A):
    """Exact inverse over Q(zeta8) through the shared elimination kernel."""
    return linalg.invert(linalg.CYC8_OPS, A, "Q(zeta8)")


# -- the three routes to the association scalar ---------------------------------

def composition_scalar(space, eN, eM, eL):
    """Route 1: compose F_{N,M} F_{M,L} and divide by F_{N,L}; asserts full
    proportionality.  Requires all three pairs transversal."""
    mN, mM, mL = Model(space, eN), Model(space, eM), Model(space, eL)
    FNM = intertwiner_exponents(mN, mM)
    FML = intertwiner_exponents(mM, mL)
    FNL = intertwiner_exponents(mN, mL)
    comp = compose_exponent_matrices(FNM, FML)
    return proportionality_scalar(comp, FNL)


def formula_scalar(space, eN, eM, eL):
    """Route 2: the quadratic character sum
    C = sum_{m in M} psi(alpha_M(m) + alpha_N(r(m)) - alpha_L(m - r(m))
                         - beta(m, r(m))),
    with r the projection onto N along L.  Everything but the three alphas
    depends on the subspaces alone and is read from space.r_terms."""
    R = space.R
    add, sub, psi_exp = R.add, R.sub, R.psi_exp
    aM, aN, aL = eM._amap, eN._amap, eL._amap
    tally = [0, 0, 0, 0]
    for m, rm, lm, b in space.r_terms(eM.rows, eN.rows, eL.rows):
        tally[psi_exp(sub(sub(add(aM[m], aN[rm]), aL[lm]), b))] += 1
    return Cyc8((tally[0] - tally[2], 0, tally[1] - tally[3], 0))


def gauss_scalar(space, eN, eM, eL, lifts=None):
    """Route 3: reduce the character sum to a Gauss character of the
    R-valued symmetric form omt_L(m1, m2) = omt(r^Lt(m1), m2) on a free
    lift Mt.

    Choosing free lifts (Mt, Nt, Lt) splits Q into the lift part
    omt_L(mt, mt) plus a 2R-valued defect sigma; sigma matches a linear
    character psi(2 omt_L(mt_s, .)) and completes into the square, so
    C = psi(-omt_L(mt_s, mt_s)) * G([Mt, tr omt_L]).
    """
    R = space.R
    if lifts is None:
        Mt = space.initial_lift(eM.rows)
        Nt = space.initial_lift(eN.rows)
        Lt = space.initial_lift(eL.rows)
    else:
        Mt, Nt, Lt = lifts
    gram = space.omega_tilde_L_gram(Mt, Nt, Lt)
    if gram != linalg.transpose(gram):
        raise RuntimeError("omt_L must be symmetric")

    baseM = space.enhance_from_lift(Mt)
    baseN = space.enhance_from_lift(Nt)
    baseL = space.enhance_from_lift(Lt)
    piv = baseM.pivots
    # psi-exponent of sigma(m), the enhancement part of the character sum
    # relative to the canonical enhancements of the lifts
    sigma_exp = {}
    for m, rm, lm, _ in space.r_terms(eM.rows, eN.rows, eL.rows):
        s = R.add(
            R.sub(eM.alpha_of(m), baseM.alpha_of(m)),
            R.sub(eN.alpha_of(rm), baseN.alpha_of(rm)),
        )
        sigma_exp[m] = R.psi_exp(R.sub(s, R.sub(eL.alpha_of(lm), baseL.alpha_of(lm))))

    def coeffs(m):
        # ring coefficients of the {0,1}-coordinate lift of m against Mt
        return tuple(R.lift(m[p]) for p in piv)

    def gram_eval(a, b):
        s = 0
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        s = R.add(s, R.mul(ai, R.mul(gram[i][j], bj)))
        return s

    # match sigma against the linear characters 2 omt_L(mt_s, .)
    m_sigma = None
    for cand in eM.elements:
        cc = coeffs(cand)
        if all(
            sigma_exp[m] == R.psi_exp(R.mul(R.two, gram_eval(cc, coeffs(m))))
            for m in eM.elements
        ):
            m_sigma = cand
            break
    if m_sigma is None:
        raise ValueError("sigma does not match any linear character")

    cs = coeffs(m_sigma)
    shift = Cyc8.i_pow(-R.psi_exp(gram_eval(cs, cs)) % 4)
    return shift * gauss_sum(trace_form(R, gram))
