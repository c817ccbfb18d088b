"""Shared deterministic generators for the test suite.

Everything takes an explicit random.Random so failures reproduce exactly.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

from hypothesis import settings

from structura.errors import (
    FieldNotSplit,
    LengthMismatch,
    MajorizationFails,
    ParseError,
    PreconditionViolated,
    RankDeficient,
    ShapeMismatch,
    SingularInput,
    StructuraError,
    SumMismatch,
    ZeroMatrix,
    _quoted,
    require,
)
from structura.qpoly import (
    NEG_INF,
    ONE,
    ZERO,
    FactoredPoly,
    Poly,
    _reduced,
    atom_valuation,
    divides,
    poly_gcd,
    split_over_rationals,
)
from structura.polymat import (
    ColumnReduction,
    PolyMatrix,
    _column_matrix,
    _frac_rank,
    _integer_columns,
    _integer_lines,
    _left_inverse_columns,
    det,
    invariant_factors,
    is_column_proper,
    is_minimal_basis,
    rank,
)
from structura.extract import (
    RationalMatrix,
    VerificationReport,
    extract_poly_structure,
    extract_rational_structure,
    spans_equal,
)
from structura.feasibility import Prescription, g_sequence, majorizes
from structura.jsonio import _scalar_pair
from structura.minors import (
    _select,
    minor_at,
    star_dual,
    validate_index_tuple,
)

# Every property draws the same examples on every run and Python version:
# the seed is a hash of the test's source, and no example database is kept.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

ROOT_POOL = [Fraction(v) for v in range(-3, 4)]


# -- brute-force minor oracles ----------------------------------------------


def _iter_minors(P: PolyMatrix, k: int):
    for rows_idx in itertools.combinations(range(P.m), k):
        for cols_idx in itertools.combinations(range(P.n), k):
            yield det(P.submatrix(rows_idx, cols_idx))


def cofactor_det(rows) -> Poly:
    """Determinant by cofactor expansion along the first column."""
    n = len(rows)
    if n == 0:
        return ONE
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = ZERO
    for i in range(n):
        e = rows[i][0]
        if e.is_zero:
            continue
        minor = [r[1:] for k, r in enumerate(rows) if k != i]
        term = e * cofactor_det(minor)
        acc = acc + term if i % 2 == 0 else acc - term
    return acc


def det_select_nonzero_minor(E: PolyMatrix, Z):
    """select_nonzero_minor with every vanishing test read over Q[s]: E and
    the chosen minor by polynomial determinants, and the dependency chain by
    scanned_rank on Poly submatrices. _select reads a level only through its
    shape and which entries are nonzero, so each level is passed as its
    nonzero pattern."""
    if not E.is_square:
        raise SingularInput("a square matrix is required")
    r = E.m
    Z = validate_index_tuple(Z, r)
    if det(E).is_zero:
        raise SingularInput("matrix is singular")
    chain, cur = [], E
    while cur.m >= 3:
        n = cur.m
        u = next(i for i in range(1, n + 1)
                 if scanned_rank(cur.submatrix(range(n - 1), range(i))) == i - 1)
        chain.append(([[not e.is_zero for e in row] for row in cur.rows], u))
        cur = cur.submatrix(range(n - 1), [j for j in range(n) if j != u - 1])
    chain.append(([[not e.is_zero for e in row] for row in cur.rows], None))
    I, J = _select(tuple(chain), 0, Z)
    zs = star_dual(Z, r)
    require(all(i <= b for i, b in zip(I, zs)), "row bound violated")
    require(all(j <= b for j, b in zip(J, Z)), "column bound violated")
    require(not minor_at(E, I, J).is_zero, "selected minor vanished")
    return I, J


# the first points at which the scan oracle scanned_rank evaluates, in its
# order
FIRST_RANK_POINTS = (0, 1, -1, 2, -2)


def scanned_rank(P: PolyMatrix) -> int:
    """Rank over Q(s), read from the values of P at 0, 1, -1, 2, -2, ...

    A rho x rho minor takes one entry from each of its rows and columns, so
    it has degree at most the sum of the rho largest column degrees of P,
    and at most the same sum over the row degrees (a zero line counts as
    degree 0). With D the smaller of the two sums for rho = min(m, n), no
    nonzero minor vanishes at D + 1 distinct points, so the largest rank of
    P(x) over that many points is the rank of P; the scan stops once a value
    reaches min(m, n).
    """
    full = min(P.m, P.n)
    if full == 0 or P.is_zero:
        return 0

    def top_sum(degs):
        return sum(sorted((int(max(d, 0)) for d in degs), reverse=True)[:full])

    row_degs = (max(e.degree for e in row) for row in P.rows)
    bound = min(top_sum(P.column_degrees()), top_sum(row_degs))
    coeffs, width = _integer_lines(P.rows)[0], int(P.degree) + 1
    best = 0
    for k in range(bound + 1):
        x = (k + 1) // 2 if k % 2 else -(k // 2)
        powers = [x ** t for t in range(width)]
        # the rows of P(x), each times a positive integer
        best = max(best, _frac_rank([[sum(c * y for c, y in zip(cs, powers)) for cs in row]
                                     for row in coeffs]))
        if best == full:
            break
    return best


def nested_sum_matrix(diag) -> PolyMatrix:
    """L @ diag(diag) @ L^T with L the unit lower triangular matrix of ones:
    entry (i, j) is diag[0] + ... + diag[min(i, j)], the determinant is the
    product of diag, and every entry has degree at most max deg diag."""
    sums = list(itertools.accumulate(diag))
    n = len(diag)
    return PolyMatrix([[sums[min(i, j)] for j in range(n)] for i in range(n)], n=n)


class KOutOfRange(StructuraError):
    """An order k outside 1..rank in the minor oracles below."""


def gcd_minors_oracle(P: PolyMatrix, k: int) -> Poly:
    """Monic gcd of all order-k minors; equals the product of the first k
    invariant factors."""
    r = rank(P)
    if not 1 <= k <= r:
        raise KOutOfRange(f"k={k} outside 1..rank={r}")
    acc = ZERO
    for mnr in _iter_minors(P, k):
        if mnr.is_zero:
            continue
        acc = mnr.monic() if acc.is_zero else poly_gcd(acc, mnr)
        if acc == ONE:
            return ONE
    return acc.monic()


def max_minor_degree(P: PolyMatrix, k: int) -> int:
    """Max degree over all order-k minors, exhaustively enumerated."""
    r = rank(P)
    if not 1 <= k <= r:
        raise KOutOfRange(f"k={k} outside 1..rank={r}")
    best = NEG_INF
    for mnr in _iter_minors(P, k):
        if mnr.degree > best:
            best = mnr.degree
    return best


def _check_sa_conditions(alpha, delta):
    """Brute-force validation of the triangular-diagonal compatibility
    conditions: k-fold product gcd divisibility and total product equality."""
    r = len(alpha)
    prod_a = ONE
    for a in alpha:
        prod_a = prod_a * a
    prod_d = ONE
    for dd in delta:
        prod_d = prod_d * dd
    if prod_a != prod_d:
        raise PreconditionViolated("products of the two diagonals differ")
    lead = ONE
    for k in range(1, r):
        lead = lead * alpha[k - 1]
        acc = ZERO
        for subset in itertools.combinations(range(r), k):
            p = ONE
            for idx in subset:
                p = p * delta[idx]
            acc = p.monic() if acc.is_zero else poly_gcd(acc, p)
        if not divides(lead, acc):
            raise PreconditionViolated(
                f"order-{k} product gcd misses the invariant prefix"
            )


def is_unimodular(P: PolyMatrix) -> bool:
    """Square with constant nonzero determinant."""
    if not P.is_square:
        return False
    d = det(P)
    return d.degree == 0


def fraction_rref(rows):
    """Reduced row echelon form over Q in Fraction arithmetic: (the nonzero
    rows, pivot columns)."""
    M = [[Fraction(x) for x in r] for r in rows]
    n = len(M[0]) if M else 0
    pivots = []
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        M[r] = [x / M[r][c] for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                M[i] = [a - M[i][c] * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
    return M[:len(pivots)], pivots


def fraction_kernel_vector(rows, n: int):
    """The kernel vector over Q of the last free column, 1 in that column,
    from fraction_rref; None when every column has a pivot."""
    ref, pivots = fraction_rref(rows)
    free = next((c for c in reversed(range(n)) if c not in pivots), None)
    if free is None:
        return None
    v = [Fraction(c == free) for c in range(n)]
    for r, pc in enumerate(pivots):
        v[pc] = -ref[r][free]
    return v


# -- Smith and Poly-arithmetic oracles -----------------------------------------


def smith_partial_multiplicities(P: PolyMatrix, lam) -> tuple:
    """Valuations of the invariant factors at a rational point, ascending:
    the exponent of s - lam in each entry of the Smith diagonal."""
    diag = invariant_factors(P)
    if not diag:
        raise ZeroMatrix("partial multiplicities of the zero matrix")
    lin = Poly((-lam, 1))
    return tuple(atom_valuation(a, lin)[0] for a in diag)


def _content_scale(polys) -> Fraction:
    """Scale factor turning the coefficients into integers with gcd 1; 1 for
    a zero or already primitive integer line.

    Each Poly holds integer numerators whose content is coprime to its
    denominator, so the gcd of all numerators and the lcm of all
    denominators are those of the reduced coefficients.
    """
    num_gcd = 0
    den_lcm = 1
    for p in polys:
        num_gcd = math.gcd(num_gcd, *p.numerators)
        den_lcm = math.lcm(den_lcm, p.denominator)
    if num_gcd in (0, den_lcm):
        return Fraction(1)
    return Fraction(den_lcm, num_gcd)


def poly_ext_gcd(a: Poly, b: Poly):
    """Monic g with x*a + y*b = g by the extended Euclidean algorithm in
    Poly arithmetic, remainders kept monic: (g, x, y)."""
    r0, r1 = a, b
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while not r1.is_zero:
        q, r2 = divmod(r0, r1)
        r0, r1 = r1, r2
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
        if not r1.is_zero and r1.lc != 1:
            inv = 1 / r1.lc
            r1, s1, t1 = r1.scale(inv), s1.scale(inv), t1.scale(inv)
    if r0.lc != 1:
        inv = 1 / r0.lc
        r0, s0, t0 = r0.scale(inv), s0.scale(inv), t0.scale(inv)
    return r0, s0, t0


# Elimination steps of the Poly Smith oracle. Each is a row operation on the
# working matrix W and, when X is not None, the same operation on the rows of
# X, the transformer of the side being reduced. Column steps on a matrix are
# these row steps on its transpose (Kailath 1980, Linear Systems, 6.3).


def _transposed(rows) -> list:
    return [list(col) for col in zip(*rows)]


def _find_pivot(S, t, m, n):
    """(degree, row, col) of the minimal-degree nonzero Poly in rows t..m-1
    and columns t..n-1 of S, ties to the smallest (row, col); None when that
    block is zero."""
    best = None
    for i in range(t, m):
        for j in range(t, n):
            e = S[i][j]
            if not e.is_zero and (best is None or e.degree < best[0]):
                best = (e.degree, i, j)
    return best


def _swap(W, X, a, b):
    if a == b:
        return
    for M in (W, X) if X is not None else (W,):
        M[a], M[b] = M[b], M[a]


def _row_sub(W, X, i, t, q):
    # row_i -= q * row_t
    for M in (W, X) if X is not None else (W,):
        dst = M[i]
        for j, e in enumerate(M[t]):
            if not e.is_zero:
                dst[j] = dst[j] - q * e


def _block(W, X, t, i, xx, yy, u, v):
    # [row_t; row_i] <- [[xx, yy], [-v, u]] @ [row_t; row_i], det 1
    for M in (W, X) if X is not None else (W,):
        rt, ri = M[t], M[i]
        for j, (a, b) in enumerate(zip(rt, ri)):
            rt[j] = xx * a + yy * b
            ri[j] = u * b - v * a


def _scale(W, X, t, c: Fraction):
    for M in (W, X) if X is not None else (W,):
        M[t] = [e.scale(c) for e in M[t]]


def _normalize(W, X, i):
    c = _content_scale(W[i])
    if c != 1:
        _scale(W, X, i, c)


def _clear_below(W, X, t):
    """Clear column t of W below the pivot W[t][t] by row steps."""
    for i in range(t + 1, len(W)):
        b = W[i][t]
        if b.is_zero:
            continue
        a = W[t][t]
        q, rem = divmod(b, a)
        if rem.is_zero:
            _row_sub(W, X, i, t, q)
        else:
            g, xx, yy = poly_ext_gcd(a, b)
            _block(W, X, t, i, xx, yy, a // g, b // g)
            _normalize(W, X, t)
        _normalize(W, X, i)


def poly_smith_core(P: PolyMatrix, track: bool):
    """Smith elimination with Poly entries: (diag, U, V) as lists of Poly
    rows, or (diag, None, None) without track. The reference for
    polymat._smith_core, which runs the same steps, pivots and rescales on
    integer rows.

    Every step is a row operation followed by a rescale of the row to
    primitive integer form (_content_scale). The column half of each pivot
    step runs on the transpose of the working matrix, where V acts as the
    left transformer V^T; it is kept transposed and turned back at the end.
    """
    m, n = P.m, P.n
    U, Vt = ([list(r) for r in PolyMatrix.identity(k).rows] if track else None
             for k in (m, n))
    W = [list(row) for row in P.rows]
    t = 0
    if m and n:  # zip(*W) of a 0 x n matrix has no rows, not n empty ones
        for i in range(m):
            _normalize(W, U, i)
        W = _transposed(W)
        for j in range(n):
            _normalize(W, Vt, j)
        W = _transposed(W)
    while t < min(m, n):
        piv = _find_pivot(W, t, m, n)
        if piv is None:
            break
        _swap(W, U, t, piv[1])
        W = _transposed(W)
        _swap(W, Vt, t, piv[2])
        W = _transposed(W)
        while True:
            _clear_below(W, U, t)
            W = _transposed(W)
            _clear_below(W, Vt, t)
            W = _transposed(W)
            if any(not W[i][t].is_zero for i in range(t + 1, m)):
                continue
            a = W[t][t]
            bad = next((i for i in range(t + 1, m)
                        if any(not (e % a).is_zero for e in W[i][t + 1:])), None)
            if bad is None:
                break
            _row_sub(W, U, t, bad, Poly.constant(-1))
            _normalize(W, U, t)
        lc = W[t][t].lc
        if lc != 1:
            _scale(W, U, t, 1 / lc)
        t += 1
    diag = tuple(W[i][i] for i in range(t))
    return diag, U, _transposed(Vt) if track else None


def left_inverse_matrix(A: PolyMatrix, right: PolyMatrix, diag) -> PolyMatrix:
    """polymat._left_inverse_columns on PolyMatrix arguments: the first
    len(diag) columns of left^-1 for left @ A @ right = D, as a PolyMatrix."""
    cols = _left_inverse_columns(_integer_lines(A.rows), _integer_columns(right), diag)
    return _column_matrix(*cols, A.m)


def _leading_coefficient_rows(cols, degs) -> list:
    """Rows of the leading column-coefficient matrix, each scaled by a
    positive integer to integer entries, which keeps the rank and the kernel:
    entry (i, j) is the coefficient of s^degs[j] in cols[j][i]. Every degree
    must be finite."""
    out = []
    for row in zip(*cols):
        den = math.lcm(*(e.denominator for e in row))
        out.append([e.numerators[d] * (den // e.denominator) if d < len(e.numerators) else 0
                    for e, d in zip(row, degs)])
    return out


def poly_column_reduce(P: PolyMatrix) -> ColumnReduction:
    """Wolovich column reduction with each replacement column built in Poly
    arithmetic (monomial times column, summed) and rescaled by _content_scale:
    another reduced basis of the span that column_reduce reduces, with the
    same column degrees."""
    if P.n == 0:
        return ColumnReduction(P, ())
    cols = [list(P.col(j)) for j in range(P.n)]
    while True:
        degs = [max((e.degree for e in c), default=NEG_INF) for c in cols]
        if NEG_INF in degs:
            raise RankDeficient("column reduction requires full column rank")
        c = fraction_kernel_vector(_leading_coefficient_rows(cols, degs), P.n)
        if c is None:
            break
        support = [j for j in range(P.n) if c[j] != 0]
        dmax = max(degs[j] for j in support)
        j0 = max(j for j in support if degs[j] == dmax)
        inv = 1 / c[j0]
        new_col = [ZERO] * P.m
        for j in support:
            mono = Poly.monomial(c[j] * inv, int(dmax - degs[j]))
            for i in range(P.m):
                new_col[i] = new_col[i] + mono * cols[j][i]
        rescale = _content_scale(new_col)
        cols[j0] = [e.scale(rescale) for e in new_col]
    reduced = PolyMatrix(
        [[cols[j][i] for j in range(P.n)] for i in range(P.m)], n=P.n
    )
    return ColumnReduction(reduced, reduced.column_degrees())


def poly_normalize_basis(B: PolyMatrix) -> tuple:
    """Column-reduce, scale leading vectors to a 1 pivot, sort columns, all in
    Poly and Fraction arithmetic: the reference for the degrees of
    polymat._normalize_basis, whose Popov form is another basis of the span.

    Returns (basis, indices descending). The leading vector of a column is
    scaled by the leading coefficient of its first entry of top degree, and
    the sort key is (degree descending, first nonzero row, coefficients).
    """
    if B.n == 0:
        return B, ()
    red = poly_column_reduce(B).reduced
    cols = []
    for j in range(red.n):
        col = [red.rows[i][j] for i in range(red.m)]
        d = max(e.degree for e in col)
        lead = next(e.lc for e in col if e.degree == d)
        col = [e.scale(1 / lead) for e in col]
        pivot = next(i for i, e in enumerate(col) if not e.is_zero)
        key = tuple(e.coeffs for e in col)
        cols.append((-int(d), pivot, key, col, int(d)))
    cols.sort(key=lambda t: (t[0], t[1], t[2]))
    basis = PolyMatrix(
        [[c[3][i] for c in cols] for i in range(red.m)], n=red.n
    )
    return basis, tuple(c[4] for c in cols)


def smith_is_minimal_basis(K: PolyMatrix):
    """The minimal-basis test by the Smith form: K.n invariant factors, all
    1, plus column properness. The reference for polymat.is_minimal_basis,
    which reads the same answer from a row echelon form."""
    degs = K.column_degrees()
    if K.n == 0:
        return True, degs
    if K.m < K.n:
        return False, degs
    diag = invariant_factors(K)
    if len(diag) != K.n or any(a != ONE for a in diag):
        return False, degs
    return is_column_proper(K), degs


# -- reference polynomial ----------------------------------------------------


class RefPoly:
    """Polynomial over Q as a plain tuple of Fractions, ascending by power:
    the schoolbook oracle for the integer-numerator Poly."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        a, b = list(self.coeffs), other.coeffs
        a += [Fraction(0)] * (len(b) - len(a))
        for i, c in enumerate(b):
            a[i] += c
        return RefPoly(a)

    def __neg__(self):
        return RefPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return RefPoly(out)

    def __divmod__(self, other):
        b = other.coeffs
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
        for k in range(len(quo) - 1, -1, -1):
            q = rem[k + len(b) - 1] / b[-1]
            quo[k] = q
            for j, c in enumerate(b):
                rem[k + j] -= q * c
        return RefPoly(quo), RefPoly(rem[:len(b) - 1])

    def monic(self):
        return RefPoly(c / self.coeffs[-1] for c in self.coeffs) if self.coeffs else self

    def gcd(self, other):
        x, y = self, other
        while not y.is_zero:
            x, y = y, divmod(x, y)[1]
        return x.monic()

    def reverse(self, deg):
        return RefPoly([Fraction(0)] * (deg + 1 - len(self.coeffs)) + list(self.coeffs[::-1]))

    def shift(self, a):
        acc = RefPoly()
        for c in reversed(self.coeffs):
            acc = acc * RefPoly((a, 1)) + RefPoly((c,))
        return acc

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sort_key(self):
        return (len(self.coeffs), self.coeffs)


# -- random generators --------------------------------------------------------


def random_poly(rng: random.Random, max_deg: int, lo: int = -3, hi: int = 3) -> Poly:
    deg = rng.randint(0, max_deg)
    return Poly([rng.randint(lo, hi) for _ in range(deg + 1)])


def random_nonzero_poly(rng, max_deg, lo=-3, hi=3) -> Poly:
    while True:
        p = random_poly(rng, max_deg, lo, hi)
        if not p.is_zero:
            return p


def random_matrix(rng: random.Random, m: int, n: int, max_deg: int) -> PolyMatrix:
    """Random nonzero matrix with a sprinkling of zero entries."""
    while True:
        rows = []
        for _ in range(m):
            row = []
            for _ in range(n):
                if rng.random() < 0.25:
                    row.append(Poly())
                else:
                    row.append(random_poly(rng, max_deg))
            rows.append(row)
        P = PolyMatrix(rows, n=n)
        if not P.is_zero:
            return P


def random_rational_matrix(rng: random.Random, m: int, n: int, max_deg: int) -> PolyMatrix:
    """Random m x n matrix with coefficients a/b, |a| <= 3, 1 <= b <= 4, and a
    sprinkling of zero entries; may be zero."""
    def entry():
        if rng.random() < 0.25:
            return ZERO
        deg = rng.randint(0, max_deg)
        return Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(deg + 1)])

    return PolyMatrix([[entry() for _ in range(n)] for _ in range(m)], n=n)


def random_low_rank_matrix(rng, m: int, n: int, r: int) -> PolyMatrix:
    """Rank <= r by construction: an m x r times an r x n factor."""
    left = PolyMatrix(
        [[random_poly(rng, 1) for _ in range(r)] for _ in range(m)], n=r
    )
    right = PolyMatrix(
        [[random_poly(rng, 1) for _ in range(n)] for _ in range(r)], n=n
    )
    P = left @ right
    return P


def random_unimodular(rng: random.Random, n: int, ops: int = 3) -> PolyMatrix:
    rows = [list(r) for r in PolyMatrix.identity(n).rows]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 1 and i != j:
            q = random_poly(rng, 1, -2, 2)
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        else:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [e.scale(c) for e in rows[i]]
    return PolyMatrix(rows, n=n)


def random_split_monic(rng, deg: int, pool=ROOT_POOL) -> Poly:
    p = ONE
    for _ in range(deg):
        root = rng.choice(pool)
        p = p * Poly((-root, 1))
    return p


def random_partition(rng, size: int, maxv: int) -> tuple:
    return tuple(sorted((rng.randint(0, maxv) for _ in range(size)), reverse=True))


def random_composition_desc(rng, total: int, parts: int) -> tuple:
    """Partition `total` into `parts` nonnegative summands, sorted descending."""
    if parts == 0:
        assert total == 0
        return ()
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    vals = []
    prev = 0
    for c in cuts + [total]:
        vals.append(c - prev)
        prev = c
    return tuple(sorted(vals, reverse=True))


def random_feasible_poly_prescription(
    rng: random.Random,
    variant: str = "P2_span_indices",
    max_r: int = 3,
    max_mn: int = 5,
    extra_d: int = 3,
) -> Prescription:
    """Feasible by construction: the majorization right side is grown from the
    left side by prefix-preserving unit moves, then split into a split-over-Q
    invariant chain plus ascending infinite multiplicities."""
    r = rng.randint(1, max_r)
    m = rng.randint(r, max_mn)
    n = rng.randint(r, max_mn)
    k = (0,) * r if m == r else random_partition(rng, r, 2)
    l = (0,) * r if n == r else random_partition(rng, r, 2)
    g = g_sequence(k, l)
    d = g[0] + rng.randint(0, extra_d)

    w = [d - gi for gi in reversed(g)]  # descending, the majorization lhs
    for _ in range(rng.randint(0, 2 * r)):
        qpos = max((idx for idx in range(r) if w[idx] > 0), default=None)
        if qpos is None or qpos == 0:
            break
        w[0] += 1
        w[qpos] -= 1

    totals = list(reversed(w))  # ascending: deg(alpha_i) + f_i
    a = [totals[0]]
    f = [0]
    for i in range(1, r):
        inc = totals[i] - totals[i - 1]
        da = rng.randint(0, inc)
        a.append(a[-1] + da)
        f.append(f[-1] + inc - da)

    exps: dict = {}
    alphas = []
    for i in range(r):
        inc = a[i] - (a[i - 1] if i else 0)
        for _ in range(inc):
            root = rng.choice(ROOT_POOL)
            exps[root] = exps.get(root, 0) + 1
        p = ONE
        for root, e in sorted(exps.items()):
            p = p * (Poly((-root, 1)) ** e)
        alphas.append(p)

    kwargs = dict(
        variant=variant,
        m=m,
        n=n,
        r=r,
        d=d,
        alpha=tuple(alphas),
        f=tuple(f),
    )
    if variant == "P1_spans":
        from structura.synthesis import build_minimal_basis

        K = _shuffle_constant_left(rng, build_minimal_basis(k, m))
        Lt = _shuffle_constant_left(rng, build_minimal_basis(l, n))
        kwargs.update(K=K, Lt=Lt)
    else:
        kwargs.update(k=k, l=l)
        if variant == "P3_full":
            kwargs.update(
                left=random_composition_desc(rng, sum(k), m - r),
                right=random_composition_desc(rng, sum(l), n - r),
            )
    return Prescription(**kwargs)


def _shuffle_constant_left(rng, B: PolyMatrix) -> PolyMatrix:
    """Left-multiply by a random constant invertible matrix: keeps minimality
    and column degrees, varies the prescribed subspace."""
    n = B.m
    while True:
        C = PolyMatrix(
            [
                [Poly.constant(rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(n)
            ],
            n=n,
        )
        d = det(C)
        if not d.is_zero:
            return C @ B


def rationalize_prescription(rng, p: Prescription) -> Prescription:
    """Wrap a feasible polynomial prescription into its rational counterpart
    by choosing a split top denominator."""
    from structura.qpoly import poly_gcd

    psi1 = random_split_monic(rng, rng.randint(0, 2))
    eps, psi = [], []
    for al in p.alpha:
        gshared = poly_gcd(psi1, al) if not al.is_constant else ONE
        eps.append((al // gshared).monic())
        psi.append((psi1 // gshared).monic())
    q = tuple(fi + int(psi1.degree) - p.d for fi in p.f)
    variant = {
        "P1_spans": "R1_spans",
        "P2_span_indices": "R2_span_indices",
        "P3_full": "R3_full",
    }[p.variant]
    return Prescription(
        variant=variant,
        m=p.m,
        n=p.n,
        r=p.r,
        epsilon=tuple(eps),
        psi=tuple(psi),
        q=q,
        k=p.k,
        l=p.l,
        right=p.right,
        left=p.left,
        K=p.K,
        Lt=p.Lt,
    )


# -- dual minimal basis oracle -----------------------------------------------


def _zigzag_block(cm: Sequence[int], cn: Sequence[int]):
    """One irreducible dual block: columns supported on a shared cut grid.

    Column entries carry the monomial distance to the interval end (left
    factor) or start with alternating signs (right factor), so every
    orthogonality product telescopes to zero.
    """
    acc = list(itertools.accumulate(cm, initial=0))
    bcc = list(itertools.accumulate(cn, initial=0))
    cuts = sorted(set(acc) | set(bcc))
    rowof = {c: i for i, c in enumerate(cuts)}
    rows = len(cuts)
    mcols = []
    for i in range(len(cm)):
        lo, hi = acc[i], acc[i + 1]
        col = [ZERO] * rows
        for c in cuts:
            if lo <= c <= hi:
                col[rowof[c]] = Poly.monomial(1, hi - c)
        mcols.append(col)
    ncols = []
    for j in range(len(cn)):
        lo, hi = bcc[j], bcc[j + 1]
        col = [ZERO] * rows
        for idx, c in enumerate(cuts):
            if lo <= c <= hi:
                col[rowof[c]] = Poly.monomial((-1) ** idx, c - lo)
        ncols.append(col)
    return rows, mcols, ncols


def segmented_dual_minimal_bases(deg_m: Sequence[int], deg_n: Sequence[int]):
    """Dual minimal bases (M, N) with M^T N = 0 and the prescribed degrees.

    Positive degrees are split into independent zig-zag blocks at common
    partial sums; zero degrees become private constant columns. The result
    is validated before returning.
    """
    dm = [int(x) for x in deg_m]
    dn = [int(x) for x in deg_n]
    if any(x < 0 for x in dm + dn):
        raise ValueError("degrees must be nonnegative")
    if sum(dm) != sum(dn):
        raise SumMismatch("dual bases need equal degree sums")
    pm_list = [d for d in dm if d > 0]
    pn_list = [d for d in dn if d > 0]
    segs = []
    cm: list = []
    cn: list = []
    i = j = sa = sb = 0
    while i < len(pm_list) or j < len(pn_list):
        if sa == sb:
            if cm or cn:
                segs.append((cm, cn))
                cm, cn = [], []
            cm.append(pm_list[i])
            sa += pm_list[i]
            i += 1
            cn.append(pn_list[j])
            sb += pn_list[j]
            j += 1
        elif sa < sb:
            cm.append(pm_list[i])
            sa += pm_list[i]
            i += 1
        else:
            cn.append(pn_list[j])
            sb += pn_list[j]
            j += 1
    if cm or cn:
        segs.append((cm, cn))

    blocks = [_zigzag_block(c_m, c_n) for c_m, c_n in segs]
    blocks += [(1, [[ONE]], []) for d in dm if d == 0]
    blocks += [(1, [], [[ONE]]) for d in dn if d == 0]

    r, q = len(dm), len(dn)
    total_rows = sum(b[0] for b in blocks)
    M_rows = [[ZERO] * r for _ in range(total_rows)]
    N_rows = [[ZERO] * q for _ in range(total_rows)]
    roff = moff = noff = 0
    for rows, mcols, ncols in blocks:
        for ci, col in enumerate(mcols):
            for ri, e in enumerate(col):
                M_rows[roff + ri][moff + ci] = e
        for ci, col in enumerate(ncols):
            for ri, e in enumerate(col):
                N_rows[roff + ri][noff + ci] = e
        roff += rows
        moff += len(mcols)
        noff += len(ncols)
    M = PolyMatrix(M_rows, n=r)
    N = PolyMatrix(N_rows, n=q)

    require((M.transpose() @ N).is_zero, "dual bases must annihilate each other")
    okM, dM = is_minimal_basis(M)
    okN, dN = is_minimal_basis(N)
    require(okM and okN, "constructed factors must be minimal bases")
    require(sorted(dM) == sorted(dm) and sorted(dN) == sorted(dn),
            "constructed factors must have the prescribed degrees")
    return M, N


# -- verification and distribution oracles -----------------------------------


def fieldwise_verify(matrix, prescription) -> VerificationReport:
    """verify with one equality test per field: the reference for the labels
    of extract.verify's comparison table and for their order."""
    p = prescription
    mismatches = []

    if p.is_rational:
        if isinstance(matrix, PolyMatrix):
            matrix = RationalMatrix.from_poly_matrix(matrix)
        if not isinstance(matrix, RationalMatrix):
            raise ShapeMismatch("rational prescription needs a matrix input")
    elif not isinstance(matrix, PolyMatrix):
        raise ShapeMismatch("polynomial prescription needs a PolyMatrix")
    if (matrix.m, matrix.n) != (p.m, p.n):
        raise ShapeMismatch(
            f"matrix is {matrix.m}x{matrix.n}, prescription wants {p.m}x{p.n}"
        )
    if matrix.is_zero:
        # every prescription has rank r >= 1, which no zero matrix attains
        return VerificationReport(passed=False, mismatches=("rank",))

    if p.is_rational:
        data = extract_rational_structure(matrix)
        if data.rank != p.r:
            mismatches.append("rank")
        if data.numerators != tuple(p.epsilon):
            mismatches.append("numerators")
        if data.denominators != tuple(p.psi):
            mismatches.append("denominators")
        if data.inf_orders != tuple(p.q):
            mismatches.append("inf_orders")
    else:
        data = extract_poly_structure(matrix)
        if data.rank != p.r:
            mismatches.append("rank")
        if data.degree != p.d:
            mismatches.append("degree")
        if data.invariant_factors != tuple(p.alpha):
            mismatches.append("invariant_factors")
        if data.inf_partial_mults != tuple(p.f):
            mismatches.append("inf_partial_mults")

    k_want, l_want = p.span_degrees()
    if data.colspan_indices != tuple(k_want):
        mismatches.append("colspan_indices")
    if data.rowspan_indices != tuple(l_want):
        mismatches.append("rowspan_indices")

    if p.uses_bases and data.rank == p.r:
        if not spans_equal(data.colspan_basis, p.K):
            mismatches.append("colspan_basis")
        if not spans_equal(data.rowspan_basis, p.Lt):
            mismatches.append("rowspan_basis")

    if p.uses_null_indices:
        if data.right_indices != tuple(p.right):
            mismatches.append("right_indices")
        if data.left_indices != tuple(p.left):
            mismatches.append("left_indices")

    return VerificationReport(passed=not mismatches, mismatches=tuple(mismatches))


class SearchExhausted(StructuraError):
    """The distribution search below spent its node budget."""


class _DistributionBudget:
    """10^6 nodes for one distribution search."""

    def __init__(self):
        self.left = 10**6

    def spend(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise SearchExhausted("invariant-factor distribution search budget exhausted")


def _distribution_candidates(m_desc, quotas, budget):
    """All caps-respecting, majorized ways to spread one root's multiplicity,
    nearest to the greedy vector first. No entry of a majorized vector exceeds
    the largest multiplicity, so the caps are cut to it, and prefixes whose
    remaining multiplicity exceeds the remaining caps are dropped: neither
    cut loses a candidate."""
    r = len(quotas)
    caps = [min(q, m_desc[0]) for q in quotas]
    room = list(itertools.accumulate(reversed(caps), initial=0))[::-1]
    out = []

    def rec(pos, remaining, partial):
        if remaining > room[pos]:
            return
        if pos == r:
            if majorizes(sorted(partial, reverse=True), m_desc):
                out.append(tuple(partial))
            return
        cap = min(caps[pos], remaining)
        for v in range(cap + 1):
            partial.append(v)
            rec(pos + 1, remaining - v, partial)
            partial.pop()

    rec(0, sum(m_desc), [])
    # greedy preference: largest multiplicities onto the largest open quotas
    slots = sorted(range(r), key=lambda idx: (-quotas[idx], idx))
    greedy = [0] * r
    for v, idx in zip(m_desc, slots):
        greedy[idx] = v
    out.sort(key=lambda vec: (sum(abs(a - b) for a, b in zip(vec, greedy)), vec))
    budget.spend(len(out))
    return out


def per_member_distribute_invariant_factors(alpha, h):
    """distribute_invariant_factors as a backtracking search over every
    majorized distribution of each root, with split_over_rationals run on
    every chain member, then a degree-order check before the root-by-root
    one."""
    r = len(alpha)
    if len(h) != r:
        raise LengthMismatch("one target degree per invariant factor")
    facs = []
    for a in alpha:
        fa = split_over_rationals(a)
        if not fa.is_split:
            raise FieldNotSplit(
                "invariant factors do not split into linear factors over Q; "
                "the construction needs an algebraically closed field"
            )
        if fa.leading != 1:
            raise ValueError("invariant factors must be monic")
        facs.append(fa)
    hh = [int(x) for x in h]
    degs = [sum(mlt for _, mlt in fa.factors) for fa in facs]
    for i in range(r - 1):
        if degs[i] > degs[i + 1]:
            raise ValueError("invariant factors must be a divisibility chain")
    if any(x < 0 for x in hh):
        raise MajorizationFails("a target degree is negative")
    g = tuple(sorted(hh, reverse=True))
    if not majorizes(g, tuple(reversed(degs))):
        raise MajorizationFails(
            f"degree reordering {g} is not majorized by {tuple(reversed(degs))}"
        )

    roots = sorted({rt for fa in facs for rt, _ in fa.factors})
    mult = {rt: [0] * r for rt in roots}
    for i, fa in enumerate(facs):
        for rt, mlt in fa.factors:
            mult[rt][i] = mlt
    for rt in roots:
        if any(mult[rt][i] > mult[rt][i + 1] for i in range(r - 1)):
            raise ValueError("invariant factors must be a divisibility chain")

    order = sorted(roots, key=lambda rt: (-sum(mult[rt]), rt))
    budget = _DistributionBudget()
    quotas = list(hh)
    assign: dict = {}

    def rec(idx: int) -> bool:
        budget.spend()
        if idx == len(order):
            return all(x == 0 for x in quotas)
        rt = order[idx]
        m_desc = sorted(mult[rt], reverse=True)
        for vec in _distribution_candidates(m_desc, quotas, budget):
            for i in range(r):
                quotas[i] -= vec[i]
            assign[rt] = vec
            if rec(idx + 1):
                return True
            for i in range(r):
                quotas[i] += vec[i]
            del assign[rt]
        return False

    if not rec(0):
        raise SearchExhausted("no distribution found within the explored space")

    delta = []
    for i in range(r):
        p = ONE
        for rt in roots:
            e = assign[rt][i]
            if e:
                p = p * (Poly((-rt, 1)) ** e)
        delta.append(p)

    return delta


# -- rational-root oracle -------------------------------------------------------


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def divisor_split_over_rationals(p: Poly) -> FactoredPoly:
    """split_over_rationals by the rational root theorem: every +-a/b with a
    dividing the constant and b the leading coefficient of the primitive
    squarefree part is tried by evaluation, and each root found is divided
    out by Poly division. Its cost grows with the divisor search, about the
    square root of the extreme coefficients, so it suits small inputs only."""
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    v = next(i for i, c in enumerate(p.coeffs) if c)
    q = Poly(p.coeffs[v:]).monic()
    factors = [(Fraction(0), v)] if v else []
    if q.degree >= 1:
        dq = Poly([i * c for i, c in enumerate(q.coeffs) if i])
        sf = q // poly_gcd(q, dq) if q.degree >= 2 else q
        ints = sf.numerators
        g = math.gcd(*ints)
        cands = {Fraction(sign * num, den)
                 for num in _divisors(ints[0] // g) for den in _divisors(ints[-1] // g)
                 for sign in (1, -1)}
        for cand in sorted(cands):
            if sf(cand) == 0:
                mult, q = atom_valuation(q, Poly((-cand, 1)))
                factors.append((cand, mult))
    return FactoredPoly(p.lc, sorted(factors), q.monic())


# -- JSON reading oracle --------------------------------------------------------


def scalarwise_poly_from_json(v) -> Poly:
    """poly_from_json with every array read scalar by scalar: one _scalar_pair
    per coefficient, the numerators over the lcm of the denominators, then the
    gcd reduction. The reference for the accept/reject decisions, values and
    ParseError texts of the whole-array reader."""
    if not isinstance(v, list):
        raise ParseError(f"polynomial must be a coefficient array, got {_quoted(v)}")
    pairs = [_scalar_pair(c) for c in v]
    den = math.lcm(*(q for _, q in pairs))
    return _reduced([p * (den // q) for p, q in pairs], den)


def fraction_poly_str(p: Poly) -> str:
    """Poly.__str__ read from one Fraction per coefficient (Poly.coeffs). The
    reference for Poly.__str__, which reads the numerators over the
    denominator."""
    if p.is_zero:
        return "0"
    terms = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "s" if k == 1 else f"s^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        terms.append((sign, body))
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out
