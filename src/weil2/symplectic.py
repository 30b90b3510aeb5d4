"""The symplectic module (Vt, omt) over R, its reduction (V, om), and the
Lagrangian zoo: plain subspaces of V, enhanced Lagrangians (L, alpha),
free submodule lifts, and oriented Lagrangians (Lt, o).

Conventions (standard splitting, first n coordinates vs last n):
    bt((l1,m1),(l2,m2)) = <l1, m2>            (the splitting cocycle)
    omt = bt - bt^T                           (the symplectic form on Vt)
    beta = 2*bt  and  om = 2*omt  on V = k^{2n}, valued in the ideal 2R.

k-vectors are tuples of bitmasks as keys (Subspace.rows, the rows of a
k-matrix) and packed (below) wherever the package computes with them:
k-linear algebra, the forms beta and omega, and H(V) (heisenberg);
R-vectors are tuples of ring indices.

Packed k-vectors.  The per-draw geometry (enumerating Lagrangians,
validating enhancements, building intertwiners, testing transversality)
reads a k-vector v packed into one int, d bits per coordinate: coordinate
j sits in bits jd .. jd + d - 1, so addition over k is XOR.  A k-linear
form v -> sum_j v_j c_j is F2-linear on those bits, and bit a of its value
is parity(pack(v) & mask_a) for d masks fixed by c: bit jd + b of mask_a
is bit a of xi^b c_j, with xi the class of x.  `beta_masks(pack(w))` are
the masks of the k-valued residue of bt(., w), and `omega_masks(pack(w))`
those of the residue of omt(., w); beta = 2 * lift of the first (`beta`)
and omega = 2 * lift of the second.  beta is 2R-valued and biadditive and
psi is additive, so psi_exp(beta(v, w)) = 2 * parity(pack(v) &
trace_mask(pack(w))) for one mask per w.  Multiplying a packed vector by
xi is a shift and a reduction (`_multiples`), and a span over k is held
as its F2 echelon (`_f2_insert`, `_echelon`), whose rank is its size: a
transversality test is the rank of the packed generators of two spans.
The echelon of a k-subspace is unique and holds its RREF rows over k
(`_rows`), so `subspace(rows)` reads, once per rows tuple, the RREF rows
and pivots of a span, its F2-generators xi^a * row_i packed with their
masks, and its elements packed, in lexicographic order, with the position
of each; an enhancement alpha is a tuple over those positions.
`action(g)` is the row action of a matrix over k as a table on packed V,
and `r_terms` reads its projection off one tagged echelon.
`transversal(pivots)` holds the models' transversal of a pivot set,
packed, with columns and trace masks.  `fill_quadratic` fills a function
of known polarization on a span from packed generators, and `polarizes`
checks one on span x generators.  The Lagrangians and the transversal
triples are frames of linalg.frames; a sampled run lists neither, and
draws its subspaces by an isotropic walk (`random_lagrangian`) and its
triples as graphs of symmetric maps (`sample_transversal_triple`).
A free lift of a Lagrangian over R is built in closed form from the
pivot columns of its canonical rows (`initial_lift`, `_lift_at`), with no
elimination.
"""
from __future__ import annotations

import collections
import collections.abc
import functools
import itertools
import math
import operator

from . import linalg

MAX_LISTING = 2 ** 16
MAX_SWEEP = 2 ** 20
MAX_N = 16  # no Lagrangian list fits past n = 4; larger counts are slow
MAX_SHOWN_DIGITS = 48  # a refused count longer than this is shown by size


class CapExceeded(ValueError):
    pass


def _refuse_above(count, cap, what, work):
    """Refuse `what` before it starts when it would do `count` > `cap`
    units of `work`, a phrase such as "build {} elements".  A count of more
    than MAX_SHOWN_DIGITS digits is shown as "more than 2^k (D digits)"."""
    if count > cap:
        # D from the bit length, one short at most: str() refuses an int of
        # more than sys.get_int_max_str_digits() digits
        digits = int(count.bit_length() * math.log10(2))
        digits += count >= 10 ** digits
        shown = (f"{count:,}" if digits <= MAX_SHOWN_DIGITS else
                 f"more than 2^{(count - 1).bit_length() - 1} ({digits} digits)")
        raise CapExceeded(f"{what} refused: it would {work.format(shown)} > {cap:,}")


def _check_rank(n):
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must be in 1..{MAX_N}, got {n}")


def lagrangian_count(q, n):
    """#Lag = prod_{i<=n} (q^i + 1), the Lagrangian subspaces of k^{2n}."""
    return math.prod(q ** i + 1 for i in range(1, n + 1))


def transversal_triple_count(q, n):
    """The number of pairwise-transversal triples of Lagrangian subspaces of
    k^{2n}, |k| = q, in closed form: #Lag Lagrangians N,
    q^{n(n+1)/2} Lagrangians L transversal to N (graphs of symmetric maps),
    and sigma_n(q) = q^{n(n+1)/2} prod_{i<=ceil(n/2)} (1 - q^{1-2i})
    Lagrangians M transversal to both (the invertible symmetric n x n
    matrices over k)."""
    half = (n + 1) // 2
    sigma = q ** (n * (n + 1) // 2 - half * half)
    for i in range(1, half + 1):
        sigma *= q ** (2 * i - 1) - 1
    return lagrangian_count(q, n) * q ** (n * (n + 1) // 2) * sigma


def sweep_count(d, n):
    """The enhanced triples an exhaustive cocycle sweep over GR(4, d)^{2n}
    visits: q^{3dn} per pairwise-transversal subspace triple.  The sweep
    over free lifts in verify needs no count of its own: at MAX_SWEEP,
    every shape whose lift triples (q^{3n(n+1)/2} per subspace triple)
    outnumber its enhanced triples is refused by the enhanced count, except
    d1n2 with 245,760 lift triples."""
    _check_rank(n)
    q = 2 ** d
    return transversal_triple_count(q, n) * q ** (3 * d * n)


def exhaustive_by_default(d, n):
    """The default cocycle mode: exhaustive where check_sweep admits it."""
    return sweep_count(d, n) <= MAX_SWEEP


def check_sweep(d, n):
    """Refuse an exhaustive cocycle sweep above MAX_SWEEP enhanced triples
    before any work."""
    _refuse_above(sweep_count(d, n), MAX_SWEEP,
                  f"exhaustive cocycle sweep at d{d}n{n}",
                  "visit {} enhanced triples")


def check_lagrangians(d, n):
    """#Lag at d, n; listing them is refused above MAX_LISTING before any
    work."""
    _check_rank(n)
    want = lagrangian_count(2 ** d, n)
    _refuse_above(want, MAX_LISTING, f"Lagrangian enumeration at d{d}n{n}",
                  "list {} Lagrangians")
    return want


def check_sampled(d, n, count):
    """The refusals of a sampled run at (d, n), before any work: the sample
    count (a run of no draws would pass vacuously), then the Lagrangian
    count above MAX_LISTING.  Sampled runs draw their subspaces without a
    list (random_lagrangian, sample_transversal_triple), so that count no
    longer measures their work; it stays the cap until a cap on the model
    dimension q^{dn} replaces it."""
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    check_lagrangians(d, n)


def check_cocycle(d, n, mode, sample_count):
    """The mode of a cocycle run at (d, n), "exhaustive" or "sampled",
    after that mode's refusals and before any work.  None means
    exhaustive where exhaustive_by_default admits it, else sampled."""
    if mode is None:
        mode = "exhaustive" if exhaustive_by_default(d, n) else "sampled"
    if mode == "exhaustive":
        check_sweep(d, n)
    else:
        check_sampled(d, n, sample_count)
    return mode


def _cached(method):
    """Memoize a method on its positional arguments, which must be
    hashable, in self._caches[method name].  A call that raises caches
    nothing."""
    name = method.__name__
    missing = object()

    @functools.wraps(method)
    def cached(self, *args):
        cache = self._caches[name]
        out = cache.get(args, missing)
        if out is missing:
            out = cache[args] = method(self, *args)
        return out

    return cached


class _Keyed:
    """Equality, hash and order of a value by its type and its key()."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __lt__(self, other):
        return self.key() < other.key()


class SympSpace:
    def __init__(self, ring, n: int):
        _check_rank(n)
        self.R = ring
        self.n = n
        self.dim = 2 * n
        self.dn = ring.d * n
        self._caches = collections.defaultdict(dict)  # method name -> memo, see _cached
        # 2 * lift(x) indexed by the residue x; beta reads it at a form value
        self._two_lift = tuple(ring.mul(ring.two, ring.lift(x))
                               for x in range(ring.field_size))
        # the top bit of each packed coordinate, and x^d mod the modulus
        d = ring.d
        self._xi_shift = (sum(1 << j * d + d - 1 for j in range(self.dim)),
                          ring.field_mul(1 << d - 1, 2) if d > 1 else 0)

    # -- forms ---------------------------------------------------------------
    def bt(self, vt, wt):
        R, n = self.R, self.n
        s = 0
        for i in range(n):
            s = R.add(s, R.mul(vt[i], wt[n + i]))
        return s

    def omt(self, vt, wt):
        return self.R.sub(self.bt(vt, wt), self.bt(wt, vt))

    @_cached
    def lift_vec(self, v):
        """The {0,1}-coordinate lift of a k-vector (a tuple), memoized."""
        return tuple(self.R.lift(x) for x in v)

    def reduce_vec(self, vt):
        return tuple(self.R.reduce(x) for x in vt)

    def beta(self, x, y):
        """beta = 2*bt on V at packed x and y, read as 2 * lift(b) for b
        the k-valued residue sum_i x_i y_{n+i} of bt, at the beta masks of
        y: 2c in R depends only on the residue of c, and bt of the
        {0,1}-lifts reduces to b.  So beta is independent of the coordinate
        lifts and biadditive."""
        return self._two_lift[_form_value(x, self.beta_masks(y))]

    # -- packed k-vectors and the masks of forms ---------------------------------
    def pack(self, v):
        """The k-vector v as one int, coordinate j in bits jd .. jd + d - 1."""
        d = self.R.d
        out = 0
        for x in reversed(v):
            out = (out << d) | x
        return out

    def unpack(self, v):
        """The k-vector of a packed int: the inverse of pack."""
        d, low = self.R.d, self.R.field_size - 1
        return tuple(v >> (j * d) & low for j in range(self.dim))

    def _form_masks(self, c):
        """The d masks of the k-linear form x -> sum_j x_j c_j, for c
        packed: bit a of its value is parity(pack(x) & masks[a]).  Bit
        jd + b of masks[a] is bit a of xi^b c_j, which is bit jd + a of the
        packed multiple xi^b c."""
        d = self.R.d
        lows = self._xi_shift[0] >> d - 1  # bit 0 of every coordinate
        masks = [0] * d
        for b, x in enumerate(self._multiples(c)):
            for a in range(d):
                masks[a] |= (x >> a & lows) << b
        return tuple(masks)

    def beta_masks(self, v):
        """The masks of x -> sum_i x_i w_{n+i}, the residue of bt(., w), for
        packed v = pack(w): c is w's second half, moved down."""
        return self._form_masks(v >> self.dn)

    def omega_masks(self, v):
        """The masks of x -> sum_j x_j c_j, the residue of omt(., w), for
        packed v = pack(w): c = (w[n:], w[:n]), the two halves of v
        swapped."""
        return self._form_masks(v >> self.dn | (v & (1 << self.dn) - 1) << self.dn)

    def trace_mask(self, v):
        """T with psi_exp(beta(x, w)) = 2 * parity(pack(x) & T) for packed
        v = pack(w): that exponent is additive in x and lies in {0, 2}, so
        bit jd + b of T is psi_exp(beta(xi^b e_j, w)) / 2, read at
        coordinate j of the packed multiple xi^b (v >> dn)."""
        R, d, two_lift = self.R, self.R.d, self._two_lift
        low = R.field_size - 1
        mask = 0
        for b, x in enumerate(self._multiples(v >> self.dn)):
            for j in range(self.n):
                mask |= (R.psi_exp(two_lift[x >> j * d & low]) >> 1) << (j * d + b)
        return mask

    @_cached
    def subspace(self, rows):
        """The Subspace spanned by the rows tuple, memoized: every
        enhancement over the same rows shares one."""
        return Subspace(self, rows)

    @_cached
    def transversal(self, pivots):
        """The transversal T_L shared by the Lagrangians with these pivot
        columns, the span of the other standard basis vectors: a dict from
        packed t to (column, trace_mask(t)), in column order (t sorted as
        k-vectors)."""
        comp = tuple(self.std_basis_k(j) for j in range(self.dim)
                     if j not in pivots)
        return {t: (j, self.trace_mask(t))
                for j, t in enumerate(self.subspace(comp).packed)}

    def std_basis_k(self, i):
        v = [0] * self.dim
        v[i] = 1
        return tuple(v)

    @_cached
    def whole(self):
        """V as a Subspace: its gens are the unit generators 1 << (i d + a),
        and its packed elements list V in lexicographic order."""
        return self.subspace(tuple(map(self.std_basis_k, range(self.dim))))

    @_cached
    def action(self, g):
        """The row action v -> v g of a k-matrix as a table indexed by packed
        v: linear, so filled from the images xi^a g[i] of unit generators."""
        images = (x for row in g for x in self._multiples(self.pack(row)))
        return tuple(fill_quadratic(self.whole().gens, images,
                                    lambda x, j: 0, operator.xor).values())

    @_cached
    def ring_action(self, gt):
        """The row action vt -> vt gt of a matrix over R as a dict on every
        vt in R^{2n}, each entry from linalg.vec_mat."""
        R = self.R
        return {vt: linalg.vec_mat(R, vt, gt)
                for vt in itertools.product(range(R.size), repeat=self.dim)}

    # -- Lagrangian subspaces of V --------------------------------------------
    @_cached
    def enumerate_lagrangians(self):
        """All n-dimensional isotropic subspaces of V as canonical RREF bases,
        sorted: per pivot set, the frames (linalg.frames) of packed echelon
        rows whose live step keeps a row orthogonal to the rows above it,
        that is, of even parity against each of their omega masks.  The
        list is built once per space; a refused call caches nothing."""
        n, m, q, d = self.n, self.dim, self.R.field_size, self.R.d
        want = check_lagrangians(d, n)
        rows, masks = {}, {}  # packed echelon row -> its k-vector, omega masks

        def live(prefix, level):
            above = []
            for x in prefix:
                above += masks[x]
            out = []
            for x in level:
                for mask in above:
                    if (x & mask).bit_count() & 1:
                        break
                else:
                    out.append(x)
            return out

        found = []
        for pivots in itertools.combinations(range(m), n):
            levels = []
            for p in pivots:
                # the packed echelon rows with pivot p, in product order
                level = [1 << p * d]
                for c in range(p + 1, m):
                    if c not in pivots:
                        level = [x | v << c * d for x in level for v in range(q)]
                levels.append(level)
                for x in level:
                    if x not in rows:
                        rows[x] = self.unpack(x)
                        masks[x] = self.omega_masks(x)
            found.extend(tuple(map(rows.__getitem__, frame))
                         for frame in linalg.frames(levels, live))
        if len(found) != want:
            raise RuntimeError(f"{len(found)} Lagrangians, expected {want}")
        return tuple(sorted(found))

    def dual_standard_lagrangian(self):
        return tuple(self.std_basis_k(self.n + i) for i in range(self.n))

    @_cached
    def transversal_k(self, rows1, rows2):
        """Whether the spans of the two row tuples add up to V, memoized.
        The rows have rank r over k exactly when their F2-generators have
        rank rd over F2, so the test is that rank against 2dn."""
        return len(self._echelon(map(self.pack, rows1 + rows2))) == 2 * self.dn

    def transversal_triples(self):
        """Every triple of Lagrangians whose three pairs are transversal, in
        itertools.product order of enumerate_lagrangians(): the frames of
        three positions in that list, each transversal to every one above
        it, read from one table of transversal_k over all pairs."""
        subs = self.enumerate_lagrangians()
        transversal = [[self.transversal_k(a, b) for b in subs] for a in subs]

        def live(rows, level):
            for i in rows:
                level = [j for j in level if transversal[i][j]]
            return level
        return [tuple(map(subs.__getitem__, frame))
                for frame in linalg.frames((range(len(subs)),) * 3, live)]

    # -- Lagrangians drawn without a list ------------------------------------------
    def random_lagrangian(self, rng):
        """A uniform Lagrangian subspace, as the canonical RREF rows that
        enumerate_lagrangians lists, by an isotropic walk on packed vectors:
        v_{i+1} is a uniform F2-combination of an F2-basis of P_i =
        span(v_1..v_i)^perp (one rng.randrange), redrawn while it lies in
        span(v_1..v_i), and P_{i+1} is the kernel of omega(., v_{i+1}) on
        P_i.  Level i has q^{2n-i} - q^i choices whatever came before, so
        each Lagrangian is reached through its |GL_n(k)| ordered bases with
        the same probability.  The span is kept as its F2 echelon (see
        _f2_insert)."""
        d = self.R.d
        perp, span = [1 << b for b in range(2 * self.dn)], {}  # P_0 = V
        for _ in range(self.n):
            v = _draw_outside(perp, span, rng)
            for g in self._multiples(v):
                _f2_insert(g, span)
            # x -> (x, omega(x, v)) in one int, the value in the low d bits:
            # the echelon elements with a pivot past them are the kernel's
            masks = self.omega_masks(v)
            cut = {}
            for x in perp:
                _f2_insert(x << d | _form_value(x, masks), cut)
            perp = [z >> d for p, z in cut.items() if p >= d]
        return self._lagrangian_rows(span)

    def sample_transversal_triple(self, rng):
        """A uniform pairwise-transversal triple (N, M, L) of Lagrangian
        subspaces, built rather than searched for.  N is a random_lagrangian
        with RREF rows n_i.  The unit vectors c_j at the partners of N's
        pivot columns (j <-> j + n) have omega(n_i, c_j) = n_i[p_j] =
        delta_ij, so f_j = c_j + sum_{l>j} omega(c_j, c_l) n_l, the
        correction make_isotropic makes over R, is an isotropic dual family
        of N with no solve.  L has rows l_j = f_j + sum_i S_ij n_i for a
        uniform symmetric S: the graphs over span(f) of the symmetric maps
        into N, which are the Lagrangians transversal to N.  M has rows
        l_j + sum_i T_ij n_i for a uniform invertible symmetric T, redrawn
        while T is singular: the Lagrangians transversal to N and L.  That
        is the count #Lag * q^{n(n+1)/2} * sigma_n(q) of
        transversal_triple_count, one factor per draw.  Each subspace is
        checked Lagrangian and each pair transversal (through
        transversal_k, which the cocycle routes read again), a RuntimeError
        otherwise."""
        n, d, dim = self.n, self.R.d, self.dim
        N = self.random_lagrangian(rng)
        span = self.subspace(N)
        mult = [span.gens[i * d:(i + 1) * d] for i in range(n)]  # xi^a n_i
        row_of = {p: i for i, p in enumerate(span.pivots)}
        f = []
        for j, p in enumerate(span.pivots):
            c = (p + n) % dim
            i = row_of.get(c, -1)
            f.append(1 << c * d ^ (mult[i][0] if i > j else 0))
        S = self._random_symmetric(rng)
        l = [fj ^ _graph_term(S[j], mult) for j, fj in enumerate(f)]
        T = self._random_symmetric(rng)
        while not self._invertible_k(T):
            T = self._random_symmetric(rng)
        m = [lj ^ _graph_term(T[j], mult) for j, lj in enumerate(l)]
        L, M = (self._lagrangian_rows(self._echelon(rows)) for rows in (l, m))
        if not (self.transversal_k(N, M) and self.transversal_k(M, L)
                and self.transversal_k(N, L)):
            raise RuntimeError("sampled triple is not pairwise transversal")
        return N, M, L

    def _multiples(self, v):
        """xi^a v packed, for a = 0..d-1: the F2-generators of k v.  xi
        multiplies each coordinate by shifting it up one bit and, where its
        top bit falls out, adding x^d reduced by the modulus; coordinates
        are d bits apart, so that product carries into no other one."""
        top, reduction = self._xi_shift
        out = [v]
        for _ in range(self.R.d - 1):
            v = (v & ~top) << 1 ^ ((v & top) >> self.R.d - 1) * reduction
            out.append(v)
        return out

    def _echelon(self, vectors):
        """The F2 echelon of the k-span of packed vectors."""
        echelon = {}
        for v in vectors:
            for g in self._multiples(v):
                _f2_insert(g, echelon)
        return echelon

    def _random_symmetric(self, rng):
        """A uniform symmetric n x n matrix over k: one
        rng.randrange(q^(n(n+1)/2)), whose base-q digits, lowest first, are
        the upper triangle read row by row."""
        q, n = self.R.field_size, self.n
        npos = n * (n + 1) // 2
        idx = rng.randrange(q ** npos)
        vals = []
        for _ in range(npos):
            idx, v = divmod(idx, q)
            vals.append(v)
        return _symmetric(n, vals)

    def _invertible_k(self, A):
        """Whether the n x n matrix A over k is invertible: its rows, packed,
        span k^n."""
        return len(self._echelon(map(self.pack, A))) == self.dn

    def _rows(self, echelon):
        """The canonical RREF rows over k of the span of an F2 echelon that
        is a k-subspace.  Its RREF rows r_i have F2-generators xi^a r_i,
        which are already reduced with pivots at bits p_i d + a (the value
        xi^a sits at pivot column p_i, and every other generator is 0 at
        bit a of that column), so the echelon holds exactly those, d per
        pivot column in pivot order, r_i at bit 0 of its column."""
        return tuple(self.unpack(echelon[p]) for p in sorted(echelon)[::self.R.d])

    def _lagrangian_rows(self, echelon):
        """The canonical RREF rows (_rows) of the span of an F2 echelon
        that is a k-subspace; a RuntimeError unless the span is
        Lagrangian."""
        rows = self._rows(echelon)
        if len(echelon) != self.dn or not self.subspace(rows).isotropic():
            raise RuntimeError("sampled subspace is not Lagrangian")
        return rows

    # -- enhanced Lagrangians ---------------------------------------------------
    def enhance_from_lift(self, basis):
        """The enhancement alpha(l) = bt(lt, lt) of the reduction of a free
        isotropic lift; independent of which lift of l in the submodule is
        used (the cross terms cancel against isotropy), so filled from the
        generators xi^a b_i of the reduced basis at lift(xi^a) b_i.
        Memoized per lift basis: the EnhancedLagrangian is shared by every
        caller and must not be mutated."""
        return self._enhance(tuple(tuple(b) for b in basis))

    @_cached
    def _enhance(self, basis):
        R = self.R
        rows = tuple(map(self.reduce_vec, basis))
        gens = [x for row in rows for x in self._multiples(self.pack(row))]
        lifts = [tuple(R.mul(R.lift(1 << a), x) for x in b)
                 for b in basis for a in range(R.d)]
        alpha = fill_quadratic(gens, [self.bt(lt, lt) for lt in lifts],
                               _beta_pairing(self, map(self.beta_masks, gens)), R.add)
        return EnhancedLagrangian(self, rows,
                                  map(alpha.__getitem__, self.subspace(rows).packed))

    def enumerate_enhancements(self, rows):
        """Every solution alpha of the polarization equation over the fixed
        subspace.  The solution set is a torsor over the group homomorphisms
        L -> R (which land in the 2-torsion 2R)."""
        base = self.enhance_from_lift(self.initial_lift(rows))
        out = [EnhancedLagrangian(self, base.rows, alpha)
               for alpha in _enhancement_twists(base).all()]
        if len({e.alpha for e in out}) != len(out):
            raise RuntimeError("enhancement torsor has repeated elements")
        return tuple(sorted(out, key=lambda e: e.alpha))

    def random_enhancement(self, lift_rows, rng):
        """The canonical enhancement of the lift twisted by a uniformly
        random map into 2R: one rng.choice per F2-generator of L."""
        base = self.enhance_from_lift(lift_rows)
        return EnhancedLagrangian(self, base.rows, _enhancement_twists(base).sample(rng))

    def random_enhanced(self, rows, rng):
        """(lift, enhancement) over the subspace: a random_lift, then a
        random_enhancement of that lift.  Every sampled cocycle and
        trivialization draw goes through here, one subspace at a time."""
        lift = self.random_lift(rows, rng)
        return lift, self.random_enhancement(lift, rng)

    def random_enhanced_triple(self, rng):
        """A random_enhanced over each subspace of a sample_transversal_triple:
        the one draw of the sampled cocycle check and table."""
        return tuple(self.random_enhanced(rows, rng)
                     for rows in self.sample_transversal_triple(rng))

    # -- free submodule lifts -----------------------------------------------------
    def initial_lift(self, rows):
        """The canonical basis of one free isotropic lift of the subspace
        whose canonical RREF rows are `rows`, in closed form.  The
        {0,1}-lift b of the rows has b_i[p_j] = delta_ij at the pivots, so
        the pivot duals (_pivot_duals) are an exact dual family of b, and
        make_isotropic corrects b against them; its corrections are 2R
        multiples at the partner columns, and _reduce_pivots re-reduces.
        A ValueError unless `rows` are the canonical rows of their span
        (Subspace.rows), on which the closed forms rest."""
        rows = tuple(map(tuple, rows))
        span = self.subspace(rows)
        if span.rows != rows:
            raise ValueError("a lift needs the canonical RREF rows of a subspace")
        b = self.make_isotropic([self.lift_vec(r) for r in rows],
                                self._pivot_duals(span.pivots))
        if any(self.omt(bi, bj) for bi in b for bj in b):
            raise RuntimeError("lift correction failed")
        return self._reduce_pivots(b, span.pivots)

    def make_isotropic(self, b, duals):
        """b_i + sum_{j > i} omt(b_i, b_j) c_j for each i, with c = duals an
        exact dual family of b: omt(b_i, c_j) = delta_ij.  When b reduces
        to an isotropic family, every omt(b_i, b_j) lies in 2R, whose
        products vanish, so the corrected family is isotropic and has the
        same reduction.  The duals are the pivot duals of canonical rows
        (initial_lift) or a solved _dual_family
        (heisenberg.symplectic_lift_matrix, whose rows are not in RREF)."""
        R = self.R
        return [linalg.vec_add(R, bi, linalg.vec_mat(
                    R, [self.omt(bi, bj) if j > i else 0 for j, bj in enumerate(b)],
                    duals))
                for i, bi in enumerate(b)]

    def _dual_family(self, basis):
        """Vectors c_j with omt(b_i, c_j) = delta_ij (no isotropy demanded),
        from one elimination with the unit vectors as right-hand sides, for
        a family with no pivot block (heisenberg.symplectic_lift_matrix).
        Every caller passes a free family, for which the system is
        solvable; a RuntimeError when it is not."""
        R, n = self.R, self.n
        ops = linalg.ring_ops(R)
        rows = [tuple(R.neg(x) for x in b[n:]) + tuple(b[:n]) for b in basis]
        duals = linalg.solve_many(ops, rows, linalg.unit_vectors(ops, len(basis)))
        if duals is None:
            raise RuntimeError("no dual family: the family is not free")
        return duals

    @_cached
    def _pivot_duals(self, pivots):
        """The exact dual family of every family b with b_i[p_j] = delta_ij
        at these pivot columns, read off the pivots: c_j = e_{p_j + n} for
        p_j < n and -e_{p_j - n} otherwise, since omt(b, c_j) = b[p_j].
        For b over an isotropic subspace, two exact dual families differ
        mod 2 by elements of its span, so 2R multiples of either span the
        same submodule with b: initial_lift and _lift_at give the lifts
        that solved duals give."""
        R, n = self.R, self.n
        duals = []
        for p in pivots:
            c = [0] * self.dim
            c[(p + n) % self.dim] = R.one if p < n else R.neg(R.one)
            duals.append(tuple(c))
        return tuple(duals)

    def _reduce_pivots(self, b, pivots):
        """The canonical basis of the span of a family b whose pivot block
        [b_i[p_j]] is I + T with T over 2R, as rref_ring would give it.
        T^2 = 0, as products of 2R vanish, so (I + T)^-1 = I - T and the
        canonical rows are b - T b."""
        R = self.R
        out = []
        for i, bi in enumerate(b):
            t = [R.sub(R.one if i == j else 0, bi[p]) for j, p in enumerate(pivots)]
            out.append(linalg.vec_add(R, bi, linalg.vec_mat(R, t, b)) if any(t)
                       else tuple(bi))
        return tuple(out)

    @_cached
    def _lift_frame(self, rows):
        """(initial lift, its pivot columns) of the subspace, cached per
        rows: every lift _lift_at builds over the rows starts from it."""
        return self.initial_lift(rows), self.subspace(rows).pivots

    def _lift_at(self, rows, S):
        """The lift base + 2*S*duals of the subspace, for a symmetric n x n
        matrix S over k and the pivot duals of the initial lift, in closed
        form.  Dual c_j is +-1 at the partner column of p_j and 0 elsewhere,
        and 2R elements are their own negatives, so row i gains
        2 lift(S_ij) at that column; where it is a pivot column,
        _reduce_pivots re-reduces."""
        R, n, dim, two_lift = self.R, self.n, self.dim, self._two_lift
        base, pivots = self._lift_frame(rows)
        partners = [(p + n) % dim for p in pivots]
        basis = []
        for bi, Si in zip(base, S):
            row = list(bi)
            for c, s in zip(partners, Si):
                if s:
                    row[c] = R.add(row[c], two_lift[s])
            basis.append(row)
        return self._reduce_pivots(basis, pivots)

    def enumerate_submodule_lifts(self, rows):
        """All free Lagrangian submodules reducing onto the subspace; they
        form a torsor over symmetric n x n matrices over k."""
        q, n = self.R.field_size, self.n
        npos = n * (n + 1) // 2
        lifts = tuple(sorted({
            self._lift_at(rows, _symmetric(n, vals))
            for vals in itertools.product(range(q), repeat=npos)
        }))
        if len(lifts) != q ** npos:
            raise RuntimeError(
                f"{len(lifts)} lifts of a Lagrangian, expected {q ** npos}")
        return lifts

    def random_lift(self, rows, rng):
        """A uniformly random free Lagrangian submodule over the subspace:
        one uniform draw of S in the torsor that enumerate_submodule_lifts
        walks.  It takes one rng.randrange(q^(n(n+1)/2)) call
        (_random_symmetric), so it has the same distribution as rng.choice
        on the list of all lifts, but not the same draw: that list is
        sorted, not in S order."""
        return self._lift_at(rows, self._random_symmetric(rng))

    def random_oriented(self, rows, rng):
        """A random_lift of the subspace, then a uniform orientation unit
        (one rng.choice over R.units, which is in ascending order)."""
        return OrientedLagrangian(self.random_lift(rows, rng),
                                  rng.choice(self.R.units))

    def oriented_by_rows(self):
        """The oriented Lagrangians over each Lagrangian subspace, {rows:
        list} in enumerate_lagrangians order: its free lifts, times the
        units.  Refused above MAX_LISTING before any work."""
        R, n, q = self.R, self.n, self.R.field_size
        _refuse_above(lagrangian_count(q, n) * q ** (n * (n + 1) // 2) * len(R.units),
                      MAX_LISTING, f"oriented Lagrangian enumeration at d{R.d}n{n}",
                      "list {} oriented Lagrangians")
        return {rows: [OrientedLagrangian(basis, u)
                       for basis in self.enumerate_submodule_lifts(rows)
                       for u in R.units]
                for rows in self.enumerate_lagrangians()}

    def enumerate_oriented(self):
        """All oriented Lagrangians (canonical submodule basis, unit): the
        oriented_by_rows fibres, one after another."""
        return tuple(itertools.chain.from_iterable(self.oriented_by_rows().values()))

    def standard_oriented(self):
        basis = tuple(
            tuple(self.R.one if j == i else 0 for j in range(self.dim))
            for i in range(self.n)
        )
        return OrientedLagrangian(basis, self.R.one)

    # -- pairings and projections ---------------------------------------------------
    def omt_gram(self, As, Bs):
        """The matrix [omt(a, b)], one row per a in As, one column per b
        in Bs."""
        return tuple(tuple(self.omt(a, b) for b in Bs) for a in As)

    @_cached
    def standard_omt_gram(self):
        """The omt Gram matrix of e_1..f_n, the {0,1} lifts of the standard
        basis of V, built once per space."""
        e = [self.lift_vec(self.std_basis_k(i)) for i in range(self.dim)]
        return self.omt_gram(e, e)

    def wedge_pairing(self, oL, oM):
        """omt_wedge(o_L, o_M) = u_L * u_M * det[omt(l_i, m_j)]; a unit
        exactly when the pair is transversal."""
        R = self.R
        det = linalg.det_ring(R, self.omt_gram(oL.basis, oM.basis))
        if not R.is_unit(det):
            raise ValueError("wedge pairing of a non-transversal pair")
        return R.mul(R.mul(oL.unit, oM.unit), det)

    @_cached
    def r_terms(self, M_rows, N_rows, L_rows):
        """The enhancement-free terms of the character sum over M, by span
        position: for the i-th element m of M, (i, the position of r(m) in
        N, the position of m - r(m) in L, psi_exp(beta(m, r(m)))), where r
        is the projection onto N along L (requires N + L = V).  r is read
        off one tagged F2 echelon: each F2-generator g of N enters as
        g | g << 2dn and each of L as g, so once N + L = V the entry at
        unit bit p is 1 << p | r(e_p) << 2dn.  r is linear, so it is filled
        on packed vectors from the images of M's F2-generators.  The tuple
        is memoized per (M, N, L)."""
        if not self.transversal_k(N_rows, L_rows):
            raise ValueError("r_terms needs N transversal to L")
        top = 2 * self.dn
        M, N, L = (self.subspace(rows) for rows in (M_rows, N_rows, L_rows))
        tagged = {}
        for g in N.gens:
            _f2_insert(g | g << top, tagged)
        for g in L.gens:
            _f2_insert(g, tagged)
        units = [tagged[p] >> top for p in range(top)]
        images = (_combination(g, units) for g in M.gens)
        r = fill_quadratic(M.gens, images, lambda x, j: 0, operator.xor)
        return tuple((i, N.index[r[m]], L.index[m ^ r[m]],
                      2 * ((m & self.trace_mask(r[m])).bit_count() & 1))
                     for i, m in enumerate(M.packed))

    @_cached
    def _projection(self, N_rows, L_rows):
        """The projection onto N along L over R as a matrix P: row i is the
        image of e_i, so v maps to vec_mat(v, P).  One elimination of
        (N + L)^T with the 2n unit vectors as right-hand sides, cached per
        (N, L).  A ValueError unless N + L = V, checked on the reductions:
        free submodules are transversal exactly when their reductions are
        (Nakayama)."""
        R = self.R
        ops = linalg.ring_ops(R)
        if not self.transversal_k(*(tuple(map(self.reduce_vec, rows))
                                     for rows in (N_rows, L_rows))):
            raise ValueError("r_map_tilde needs N transversal to L")
        xs = linalg.solve_many(ops, linalg.transpose(N_rows + L_rows),
                               linalg.unit_vectors(ops, self.dim))
        if xs is None:
            raise RuntimeError("inconsistent projection onto N along L")
        return tuple(linalg.vec_mat(R, x[:len(N_rows)], N_rows) for x in xs)

    def r_map_tilde(self, Mt, Nt, Lt):
        """Images of Mt's basis under the projection onto Nt along Lt, read
        off the pair's projection matrix over R; a ValueError unless the
        reductions of Nt and Lt are transversal."""
        P = self._projection(tuple(Nt), tuple(Lt))
        return [linalg.vec_mat(self.R, m, P) for m in Mt]

    def omega_tilde_L_gram(self, Mt, Nt, Lt):
        """Gram matrix of the R-valued symmetric form omt_L(m1, m2) =
        omt(r^Lt(m1), m2) on the basis of Mt."""
        return self.omt_gram(self.r_map_tilde(Mt, Nt, Lt), Mt)

    def oriented_transform(self, gt, oriented):
        """g acts on (Lt, o) by moving the submodule and pushing the top
        wedge forward; the result is re-expressed over the canonical basis.
        Matrices act on row vectors: b -> sum_j b[j] gt[j]."""
        R = self.R
        img = [linalg.vec_mat(R, b, gt) for b in oriented.basis]
        can, pivots = linalg.rref_ring(R, img)
        T = tuple(tuple(v[p] for p in pivots) for v in img)
        return OrientedLagrangian(can, R.mul(oriented.unit, linalg.det_ring(R, T)))


class EnhancedLagrangian(_Keyed):
    """A Lagrangian subspace with a quadratic function alpha polarizing beta:
    alpha(l1 + l2) - alpha(l1) - alpha(l2) = beta(l1, l2).  alpha is given
    and kept as a sequence of values, one per element of the span in the
    order of span.packed, and psi holds its Z/4 digits psi_exp(alpha) in
    that order.  A mapping is refused (ValueError), validated or not: the
    tuple of its keys would pass for the values."""

    __slots__ = ("space", "span", "rows", "pivots", "alpha", "psi")

    def __init__(self, space, rows, alpha, validate=True):
        if isinstance(alpha, collections.abc.Mapping):
            raise ValueError("alpha must be a sequence over span.elements, "
                             "not a mapping")
        self.space = space
        self.span = space.subspace(tuple(map(tuple, rows)))
        self.rows, self.pivots = self.span.rows, self.span.pivots
        self.alpha = tuple(alpha)
        self.psi = tuple(map(space.R.psi_exp, self.alpha))
        if validate:
            self._validate()

    def _validate(self):
        """Totality, isotropy, then polarization, on L x G for the dn
        F2-generators G = {xi^a * row_i} of L.  That is the all-pairs check:
        beta is biadditive, so omega(x, .) vanishes on L once it does on G,
        and `polarizes` covers L x L from L x G.  Each pair is read on
        packed vectors, through the omega and beta masks of g."""
        sp, R, span = self.space, self.space.R, self.span
        if len(self.alpha) != len(span.packed):
            raise ValueError("alpha must be total on L")
        if len(self.rows) != sp.n:
            raise ValueError("subspace is not middle-dimensional")
        if not span.isotropic():
            raise ValueError("subspace is not isotropic")
        if not polarizes(dict(zip(span.packed, self.alpha)), span.packed,
                         span.gens, _beta_pairing(sp, span.beta_masks), R.sub):
            raise ValueError("alpha does not polarize beta")

    def key(self):
        return (self.rows, self.alpha)

    def __repr__(self):
        return f"EnhancedLagrangian(rows={self.rows}, alpha={self.alpha})"


class Subspace:
    """A k-subspace of V as the per-draw geometry reads it, from the F2
    echelon of its rows (SympSpace._echelon): its RREF rows and pivot
    columns (SympSpace._rows); its F2-generators xi^a * row_i (i outer, a
    inner), the echelon's entries in pivot order, packed, with the omega
    masks and the beta masks of each; its elements packed, in
    lexicographic order of their k-vectors; and the position of each
    (`index`).  SympSpace.subspace builds one per rows tuple."""

    __slots__ = ("rows", "pivots", "packed", "index", "gens",
                 "omega_masks", "beta_masks", "_pivot_bits")

    def __init__(self, space, rows):
        d = space.R.d
        echelon = space._echelon(map(space.pack, rows))
        # generator xi^a row_i is the entry at bit a of column pivots[i]
        self._pivot_bits = tuple(sorted(echelon))
        self.rows = space._rows(echelon)
        self.pivots = tuple(p // d for p in self._pivot_bits[::d])
        self.gens = tuple(map(echelon.__getitem__, self._pivot_bits))
        # elements differ first at a pivot column, where their coefficients
        # sit, so lexicographic order is that of the coefficient tuples:
        # fill from the last row's generators up, the lowest bit fastest
        packed = [0]
        for i in reversed(range(len(self.rows))):
            for g in self.gens[i * d:(i + 1) * d]:
                packed += [x ^ g for x in packed]
        self.packed = tuple(packed)
        self.index = {x: i for i, x in enumerate(self.packed)}
        self.omega_masks = tuple(map(space.omega_masks, self.gens))
        self.beta_masks = tuple(map(space.beta_masks, self.gens))

    def isotropic(self):
        """Whether omega vanishes on the span: on each pair of its
        F2-generators, as omega is biadditive."""
        return not any(_form_value(g, masks)
                       for g in self.gens for masks in self.omega_masks)

    def split(self, v):
        """pack(l) for the l in the subspace that agrees with the packed
        vector v at every pivot: v ^ split(v) is zero at the pivots."""
        l = 0
        for bit, g in zip(self._pivot_bits, self.gens):
            if v >> bit & 1:
                l ^= g
        return l


def _symmetric(n, vals):
    """The symmetric n x n matrix whose upper triangle, read row by row, is
    vals."""
    S = [[0] * n for _ in range(n)]
    it = iter(vals)
    for i in range(n):
        for j in range(i, n):
            S[i][j] = S[j][i] = next(it)
    return S


def _form_value(x, masks):
    """The k-value at packed x of the k-linear form with these d masks."""
    b = 0
    for a, mask in enumerate(masks):
        b |= ((x & mask).bit_count() & 1) << a
    return b


def _beta_pairing(space, beta_masks):
    """(x, j) -> beta(x, g_j) on packed x, given the beta masks of each g_j."""
    two_lift, masks = space._two_lift, tuple(beta_masks)
    return lambda x, j: two_lift[_form_value(x, masks[j])]


def fill_quadratic(gens, values, pair, add):
    """The f with f(0) = 0, f(gens[j]) = values[j] and f(x ^ gens[j]) =
    f(x) + f(gens[j]) + pair(x, j) for x in the span of gens[:j], as a dict
    packed x -> f(x); add adds values (R.add, or XOR over k).  The keys are
    in packed order for the unit generators, SympSpace.whole().gens."""
    f = {0: 0}
    for j, (g, fg) in enumerate(zip(gens, values)):
        for x, fx in list(f.items()):
            f[x ^ g] = add(add(fx, fg), pair(x, j))
    return f


def polarizes(f, xs, gens, pair, sub):
    """Whether f(x ^ g_j) - f(x) - f(g_j) = pair(x, j) for x in xs and each
    g_j in gens.  With xs the span and pair(., j) = B(., g_j) for a
    biadditive B, that is the all-pairs check: the defect D(x, y) =
    f(x + y) - f(x) - f(y) - B(x, y) obeys D(x, y + g) = D(x, y) +
    D(x + y, g) - D(y, g) and D(x, 0) = -f(0) = D(0, g)."""
    return all(sub(sub(f[x ^ g], f[x]), f[g]) == pair(x, j)
               for j, g in enumerate(gens) for x in xs)


def _combination(bits, vectors):
    """The XOR of vectors[a] over the set bits a of bits: an F2-combination,
    or c * v for c in k given the multiples xi^a v of v."""
    out = 0
    for a, x in enumerate(vectors):
        if bits >> a & 1:
            out ^= x
    return out


def _graph_term(row, multiples):
    """sum_i row[i] n_i, packed, given the multiples xi^a n_i of each n_i."""
    out = 0
    for c, mult in zip(row, multiples):
        if c:
            out ^= _combination(c, mult)
    return out


def _f2_reduce(v, echelon):
    """v reduced by an F2 echelon, a dict from the pivot of each vector
    (its lowest set bit, clear in every other vector of the echelon) to
    the vector: v with every pivot bit cleared, 0 exactly when v lies in
    the span."""
    for p, x in echelon.items():
        if v >> p & 1:
            v ^= x
    return v


def _f2_insert(v, echelon):
    """Add v to the span of the echelon, in place, keeping every pivot bit
    clear in the other vectors: then the echelon of a span is unique, its
    reduced row echelon form over F2 with the lowest bits first."""
    v = _f2_reduce(v, echelon)
    if v:
        p = (v & -v).bit_length() - 1
        for q, x in echelon.items():
            if x >> p & 1:
                echelon[q] = x ^ v
        echelon[p] = v


def _draw_outside(basis, echelon, rng):
    """A uniform F2-combination of the packed basis, one rng.randrange per
    try, redrawn while it lies in the span of the echelon."""
    while True:
        v = _combination(rng.randrange(1 << len(basis)), basis)
        if _f2_reduce(v, echelon):
            return v


class Twists:
    """The torsor twist by Hom(S, 2R) of a function on an F2-space S: the
    values base[i] + f(packed[i]) for a group homomorphism f from S into
    the 2-torsion ideal 2R, filled from its values on the packed
    generators gens of S.  `all` gives every f, in itertools.product order
    of those values over the sorted 2R; `sample` draws one f with an
    rng.choice over the sorted 2R per generator, in the same order."""

    __slots__ = ("R", "base", "gens", "packed")

    def __init__(self, R, base, gens, packed):
        self.R = R
        self.base = tuple(base)
        self.gens = tuple(gens)
        self.packed = packed

    def _at(self, vals):
        add = self.R.add
        f = fill_quadratic(self.gens, vals, lambda x, j: 0, add)
        return tuple(map(add, self.base, map(f.__getitem__, self.packed)))

    def all(self):
        tors = self.R.two_torsion()
        return [self._at(vals)
                for vals in itertools.product(tors, repeat=len(self.gens))]

    def sample(self, rng):
        tors = self.R.two_torsion()
        return self._at([rng.choice(tors) for _ in self.gens])


def _enhancement_twists(base):
    """The twists of an enhanced Lagrangian's alpha, on its elements."""
    return Twists(base.space.R, base.alpha, base.span.gens, base.span.packed)


class OrientedLagrangian(_Keyed):
    """A free Lagrangian submodule with a generator of its top wedge, stored
    as (canonical basis, unit): o = unit * (b_1 ^ ... ^ b_n)."""

    __slots__ = ("basis", "unit")

    def __init__(self, basis, unit):
        self.basis = tuple(tuple(b) for b in basis)
        self.unit = unit

    def key(self):
        return (self.basis, self.unit)

    def __repr__(self):
        return f"OrientedLagrangian(basis={self.basis}, unit={self.unit})"


def enumerate_enhanced(space):
    """All enhanced Lagrangians of the space, in a fixed deterministic order."""
    q = space.R.field_size
    _refuse_above(lagrangian_count(q, space.n) * q ** space.dn, MAX_LISTING,
                  f"enhanced Lagrangian enumeration at d{space.R.d}n{space.n}",
                  "list {} enhanced Lagrangians")
    out = []
    for rows in space.enumerate_lagrangians():
        out.extend(space.enumerate_enhancements(rows))
    return tuple(out)
