"""Polynomial-matrix kernel: determinant, rank, Smith form (with or without
transformers), column reduction, reversal, Mobius frames, and the
minimal-basis test.

The rank is read from values of the matrix at distinct rationals, with no
polynomial elimination; column_reduce detects rank deficiency by itself.

All operations are pure; matrices are immutable value objects. Pivoting rules
are deterministic (minimal degree, then smallest (row, col) lexicographically)
so identical inputs always produce identical transformers.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (
    DegreeMismatch,
    DegreeTooSmall,
    RankDeficient,
    ZeroMatrix,
    require,
)
from .qpoly import NEG_INF, ONE, ZERO, Poly, _reduced, as_fraction

_MINUS_ONE = Poly.constant(-1)


class _DenseMatrix:
    """Immutable dense matrix body shared by PolyMatrix and RationalMatrix;
    every entry is an instance of the subclass's entry_type."""

    __slots__ = ("m", "n", "rows")
    entry_type: type

    def __init__(self, rows: Sequence[Sequence], n: int | None = None):
        rows = tuple(tuple(e for e in row) for row in rows)
        m = len(rows)
        if m:
            n = len(rows[0])
            if any(len(r) != n for r in rows):
                raise ValueError("ragged rows")
        elif n is None:
            n = 0
        entry_type = self.entry_type
        for row in rows:
            for e in row:
                if not isinstance(e, entry_type):
                    raise TypeError(f"entries must be {entry_type.__name__}")
        self.m, self.n, self.rows = m, n, rows

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.rows for e in row)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and (self.m, self.n) == (other.m, other.n)
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.m, self.n, self.rows))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(e) for e in row) for row in self.rows)
        return f"{type(self).__name__}({self.m}x{self.n}: [{body}])"


class PolyMatrix(_DenseMatrix):
    """Dense matrix of Poly entries."""

    __slots__ = ()
    entry_type = Poly

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix(
            [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(m: int, n: int) -> "PolyMatrix":
        return PolyMatrix([[ZERO] * n for _ in range(m)], n=n)

    @staticmethod
    def from_scalar_rows(rows) -> "PolyMatrix":
        """Build from rows of ints/Fractions/Polys/coefficient lists."""
        out = []
        for row in rows:
            conv = []
            for e in row:
                if isinstance(e, Poly):
                    conv.append(e)
                elif isinstance(e, (list, tuple)):
                    conv.append(Poly(e))
                else:
                    conv.append(Poly.constant(e))
            out.append(conv)
        return PolyMatrix(out)

    # -- queries ---------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.m == self.n

    @property
    def degree(self):
        """Max entry degree; NEG_INF for a zero (or empty) matrix."""
        degs = [e.degree for row in self.rows for e in row]
        return max(degs, default=NEG_INF)

    def col(self, j: int):
        return tuple(self.rows[i][j] for i in range(self.m))

    def col_degree(self, j: int):
        return max((self.rows[i][j].degree for i in range(self.m)), default=NEG_INF)

    def column_degrees(self):
        return tuple(self.col_degree(j) for j in range(self.n))

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(
            [[self.rows[i][j] for i in range(self.m)] for j in range(self.n)],
            n=self.m,
        )

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix(
            [[self.rows[i][j] for j in col_idx] for i in row_idx], n=len(col_idx)
        )

    def map_entries(self, fn: Callable[[Poly], Poly]) -> "PolyMatrix":
        return PolyMatrix([[fn(e) for e in row] for row in self.rows], n=self.n)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch")
        return PolyMatrix(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.n)]
                for i in range(self.m)
            ],
            n=self.n,
        )

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + other.scale(Poly.constant(-1))

    def scale(self, p: Poly) -> "PolyMatrix":
        return self.map_entries(lambda e: e * p)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.m:
            raise ValueError("shape mismatch in product")
        out = []
        for i in range(self.m):
            row = []
            for j in range(other.n):
                acc = ZERO
                for t in range(self.n):
                    a = self.rows[i][t]
                    if a.is_zero:
                        continue
                    b = other.rows[t][j]
                    if b.is_zero:
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return PolyMatrix(out, n=other.n)

    @staticmethod
    def hstack(a: "PolyMatrix", b: "PolyMatrix") -> "PolyMatrix":
        if a.m != b.m:
            raise ValueError("row count mismatch")
        return PolyMatrix(
            [list(a.rows[i]) + list(b.rows[i]) for i in range(a.m)], n=a.n + b.n
        )


# -- determinants, rank -----------------------------------------------------


def _exact_div(a: Poly, b: Poly) -> Poly:
    q, r = divmod(a, b)
    require(r.is_zero, "fraction-free elimination produced a nonzero remainder")
    return q


def _find_pivot(S, t, m, n):
    """(degree, row, col) of the minimal-degree nonzero entry in rows t..m-1
    and columns t..n-1 of S, ties to the smallest (row, col); None when that
    block is zero."""
    best = None
    for i in range(t, m):
        for j in range(t, n):
            e = S[i][j]
            if not e.is_zero and (best is None or e.degree < best[0]):
                best = (e.degree, i, j)
    return best


def _bareiss(rows) -> Poly:
    """Determinant of a square matrix by fraction-free elimination with the
    _find_pivot rule."""
    M = [list(r) for r in rows]
    n = len(M)
    denom = ONE
    sign = 1
    for k in range(n):
        best = _find_pivot(M, k, n, n)
        if best is None:
            return ZERO
        _, pi, pj = best
        if pi != k:
            M[k], M[pi] = M[pi], M[k]
            sign = -sign
        if pj != k:
            for row in M:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        piv = M[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = _exact_div(M[i][j] * piv - M[i][k] * M[k][j], denom)
            M[i][k] = ZERO
        denom = piv
    # the last pivot is the determinant up to the sign of the permutations
    return denom if sign > 0 else -denom


def det(P: PolyMatrix) -> Poly:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not P.is_square:
        raise ValueError("determinant of a non-square matrix")
    return _bareiss(P.rows)


def rank(P: PolyMatrix) -> int:
    """Rank over Q(s), read from the values of P at 0, 1, -1, 2, -2, ...

    Every term of a rho x rho minor takes one entry from each of its rows and
    each of its columns, so the minor has degree at most the sum of the rho
    largest column degrees of P, and at most the same sum over the row
    degrees (a zero column or row counts as degree 0). With D the smaller of
    the two sums for rho = min(m, n), no nonzero minor can vanish at D + 1
    distinct points (the deterministic form of DeMillo-Lipton 1978 /
    Schwartz 1980 / Zippel 1979). The largest rank of P(x) over that many
    points is therefore the rank of P; no value exceeds it, so the scan stops
    once it reaches min(m, n).
    """
    full = min(P.m, P.n)
    if full == 0 or P.is_zero:
        return 0

    def top_sum(degs):
        return sum(sorted((int(max(d, 0)) for d in degs), reverse=True)[:full])

    row_degs = (max(e.degree for e in row) for row in P.rows)
    bound = min(top_sum(P.column_degrees()), top_sum(row_degs))
    coeffs, width = [_over_lcm(row)[0] for row in P.rows], int(P.degree) + 1
    best = 0
    for k in range(bound + 1):
        x = (k + 1) // 2 if k % 2 else -(k // 2)
        powers = [x ** t for t in range(width)]
        # the rows of P(x), each times a positive integer
        best = max(best, _frac_rank([[sum(map(operator.mul, cs, powers)) for cs in row]
                                     for row in coeffs]))
        if best == full:
            break
    return best


# -- Smith normal form -------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ P @ right equals diag(diag) padded with zeros; the leading
    columns of left^-1 and right^-T come from _left_inverse_columns."""

    left: PolyMatrix
    diag: tuple
    right: PolyMatrix
    rank: int


def _content_scale(polys) -> Fraction:
    """Scale factor turning the coefficients into integers with gcd 1.

    Keeps coefficient growth in check during elimination; scaling a row or
    column is a unimodular operation. Each Poly holds integer numerators
    whose content is coprime to its denominator, so the gcd of all
    numerators and the lcm of all denominators are those of the reduced
    coefficients.
    """
    num_gcd = 0
    den_lcm = 1
    for p in polys:
        num_gcd = math.gcd(num_gcd, *p.numerators)
        den_lcm = math.lcm(den_lcm, p.denominator)
    if num_gcd in (0, den_lcm):
        return Fraction(1)
    return Fraction(den_lcm, num_gcd)


def _ext_gcd(a: Poly, b: Poly):
    """Monic g with x*a + y*b = g; remainders kept monic to limit growth."""
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


def _transposed(rows) -> list:
    return [list(col) for col in zip(*rows)]


# Elimination steps of the Smith core. Each is a row operation on the working
# matrix W and, when X is not None, the same operation on the rows of X, the
# transformer of the side being reduced. Column steps on a matrix are these
# row steps on its transpose (Kailath 1980, Linear Systems, 6.3).


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
            g, xx, yy = _ext_gcd(a, b)
            _block(W, X, t, i, xx, yy, a // g, b // g)
            _normalize(W, X, t)
        _normalize(W, X, i)


def _smith_core(P: PolyMatrix, track: bool):
    """Smith elimination over Q[s]: (diag, U, V).

    Every step is a row operation. The column half of each pivot step runs
    on the transpose of the working matrix, where V acts as the left
    transformer V^T; it is kept transposed and turned back once at the end.
    The transformers are updated only when track is set, and are None
    otherwise; the elimination on the working matrix, and so the diagonal,
    is the same either way. Entries are cleared with single-shot Bezout block
    transforms instead of iterated remainder steps, and rows/columns are
    rescaled to primitive integer form after every operation, which keeps
    coefficients tame.
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
            _row_sub(W, U, t, bad, _MINUS_ONE)
            _normalize(W, U, t)
        lc = W[t][t].lc
        if lc != 1:
            _scale(W, U, t, 1 / lc)
        t += 1
    diag = tuple(W[i][i] for i in range(t))
    return diag, U, _transposed(Vt) if track else None


def smith_form(P: PolyMatrix) -> SmithDecomposition:
    """Smith normal form over Q[s] with unimodular transformers.

    The only entry point that builds the transformers; callers that read
    just the diagonal use invariant_factors.
    """
    diag, U, V = _smith_core(P, track=True)
    return SmithDecomposition(
        left=PolyMatrix(U, n=P.m),
        diag=diag,
        right=PolyMatrix(V, n=P.n),
        rank=len(diag),
    )


def _left_inverse_columns(P: PolyMatrix, right: PolyMatrix, diag) -> PolyMatrix:
    """The first len(diag) columns of left^-1, for a Smith decomposition
    left @ P @ right = D with diagonal diag.

    P @ right = left^-1 @ D, so column j of P @ right is column j of left^-1
    times diag[j] (Kailath 1980, 6.3). The product is formed row by row and
    each entry is divided exactly by its invariant factor, skipped when that
    factor is 1. With P^T and left^T in place of P and right, the same
    columns are those of right^-T. Each row of P and each column of right
    is put on integers over its lcm denominator, so an entry of the product
    is one integer sum over the product of the two.
    """
    cols = [_over_lcm(col) for col in list(zip(*right.rows))[:len(diag)]]
    out = []
    for row, row_den in map(_over_lcm, P.rows):
        new = []
        for (col, col_den), a in zip(cols, diag):
            acc = [0] * (max(map(len, row)) + max(map(len, col)))
            for u, v in zip(row, col):
                if u and v:
                    for i, y in enumerate(v):
                        if y:
                            for k, x in enumerate(u, i):
                                acc[k] += x * y
            acc = _reduced(acc, row_den * col_den)
            if a != ONE:
                acc, rem = divmod(acc, a)
                require(rem.is_zero, "P @ right = left^-1 @ D: a column of P @ "
                        "right is not divisible by its invariant factor")
            new.append(acc)
        out.append(new)
    return PolyMatrix(out, n=len(diag))


def invariant_factors(P: PolyMatrix) -> tuple:
    """Monic invariant factors of P, ascending in divisibility: the Smith
    diagonal without the transformers; () for a zero matrix."""
    return _smith_core(P, track=False)[0]


# -- constant-matrix helpers (over Q) ----------------------------------------


def _primitive(row: list) -> list:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _frac_rref(rows):
    """Gauss-Jordan elimination of an integer matrix over Q, run on integers.

    Each row is made primitive, and every row update p * row_i - f * row_r
    is divided by its gcd again. Returns (rows, pivot cols): row r is zero in
    the other pivot columns and before pivots[r], so it is M[r][pivots[r]]
    times row r of the reduced row echelon form over Q. The pivots are those
    of elimination over Q, since each integer row is a nonzero multiple of
    the rational row at every step.
    """
    M = [_primitive(row) for row in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        prow = M[r]
        p = prow[c]
        for i in range(m):
            f = M[i][c]
            if i != r and f:
                M[i] = _primitive([p * x - f * y for x, y in zip(M[i], prow)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    return M, pivots


def _over_lcm(polys):
    """(numerators, den): the numerators of each Poly over the lcm den of
    their denominators, so that polys[i] = numerators[i] / den."""
    den = math.lcm(*(e.denominator for e in polys))
    return [e.numerators if e.denominator == den
            else [c * (den // e.denominator) for c in e.numerators] for e in polys], den


def _frac_rank(rows) -> int:
    return len(_frac_rref(rows)[1])


def _kernel_vector(rows, n: int):
    """The kernel vector of the last free column of an integer matrix with n
    columns, times the lcm L of the pivot entries: L in the free column,
    -M[r][free] * L / M[r][pc] in pivot column pc, zero elsewhere; None when
    every column has a pivot."""
    M, pivots = _frac_rref(rows)
    free = next((c for c in reversed(range(n)) if c not in pivots), None)
    if free is None:
        return None
    L = math.lcm(*(M[r][pc] for r, pc in enumerate(pivots)))
    v = [0] * n
    v[free] = L
    for r, pc in enumerate(pivots):
        v[pc] = -M[r][free] * (L // M[r][pc])
    return v


def _lead(col):
    """(degree, leading row) of a column of integer coefficient lists without
    trailing zeros; the degree of a zero column is -1, and its row None."""
    d = max(map(len, col), default=0) - 1
    return d, ([a[d] if len(a) > d else 0 for a in col] if d >= 0 else None)


def _integer_columns(P: PolyMatrix):
    """(cols, dens, degs, leads): column j of P as integer coefficient lists
    over the lcm dens[j] of its denominators, with its degree and leading
    row. The leading rows are those of the leading column-coefficient matrix,
    each column times a positive integer, which keeps its rank."""
    pairs = [_over_lcm(P.col(j)) for j in range(P.n)]
    cols = [col for col, _ in pairs]
    leads = [_lead(col) for col in cols]
    return cols, [den for _, den in pairs], [d for d, _ in leads], [row for _, row in leads]


# -- column reduction ---------------------------------------------------------


@dataclass(frozen=True)
class ColumnReduction:
    reduced: PolyMatrix
    column_degrees: tuple


def _reduce_columns(P: PolyMatrix):
    """Wolovich column reduction on integer columns: (cols, dens, degs) of
    the reduced matrix, as _integer_columns gives them.

    Repeatedly cancels leading-coefficient dependencies with monomial column
    replacements; ties break toward the rightmost reducible column. Every
    step is unimodular and lowers one column degree. A column proper matrix
    has full column rank, so a rank-deficient P never reaches a full-rank
    leading-coefficient matrix: its degree sum keeps falling until a column
    is zero, which raises RankDeficient.
    """
    cols, dens, degs, leads = _integer_columns(P)
    while True:
        if -1 in degs:
            raise RankDeficient("column reduction requires full column rank")
        c = _kernel_vector(list(zip(*leads)), P.n)
        if c is None:
            return cols, dens, degs
        support = [j for j in range(P.n) if c[j]]
        dmax = max(degs[j] for j in support)
        j0 = max(j for j in support if degs[j] == dmax)
        # sum_j c_j s^(dmax - degs[j]) cols[j] over the column denominators is
        # a positive multiple of the rational combination with c_j0 = 1;
        # divided by the gcd of its numerators it is the unique primitive
        # positive multiple, as a content rescale would give
        sign = 1 if c[j0] > 0 else -1
        new = [[0] * (dmax + 1) for _ in range(P.m)]
        for j in support:
            w = sign * c[j]
            for acc, a in zip(new, cols[j]):
                for t, x in enumerate(a, dmax - degs[j]):
                    acc[t] += w * x
        # a zero combination (gcd 0) is a zero column and raises on the next pass
        g = math.gcd(*(x for acc in new for x in acc))
        for acc in new:
            while acc and not acc[-1]:
                acc.pop()
        cols[j0] = [[x // g for x in acc] for acc in new] if g > 1 else new
        dens[j0] = 1
        degs[j0], leads[j0] = _lead(cols[j0])


def column_reduce(P: PolyMatrix) -> ColumnReduction:
    """Wolovich column reduction of a full-column-rank matrix (see
    _reduce_columns); raises RankDeficient when P does not have full column
    rank."""
    cols, dens, degs = _reduce_columns(P)
    reduced = PolyMatrix(
        [[_reduced(list(col[i]), den) for col, den in zip(cols, dens)] for i in range(P.m)],
        n=P.n,
    )
    return ColumnReduction(reduced, tuple(degs))


def is_column_proper(P: PolyMatrix) -> bool:
    """True when the highest-column-degree coefficient matrix has full rank."""
    _, _, degs, leads = _integer_columns(P)
    return -1 not in degs and _frac_rank(list(zip(*leads))) == min(P.m, P.n)


def is_minimal_basis(K: PolyMatrix):
    """Minimal-basis test: trivial Smith form plus column properness.

    Returns (flag, column_degrees); the degrees are reported regardless of
    the flag.
    """
    degs = K.column_degrees()
    if K.n == 0:
        return True, degs
    if K.m < K.n:
        return False, degs
    diag = invariant_factors(K)
    if len(diag) != K.n or any(a != ONE for a in diag):
        return False, degs
    return is_column_proper(K), degs


# -- reversal and Mobius frames ----------------------------------------------


def reversal(P: PolyMatrix) -> PolyMatrix:
    """rev P(t) = t^d P(1/t) with d the matrix degree."""
    if P.is_zero:
        raise ZeroMatrix("reversal of the zero matrix")
    d = int(P.degree)
    return P.map_entries(lambda e: e.reverse(d))


def mobius_frame(P: PolyMatrix, a, d: int) -> PolyMatrix:
    """(s - a)^d P(1/(s - a)): the reversal in a frame of degree d, shifted
    to s - a. Writing P = sum P_j s^j, this is sum P_j (s - a)^(d - j)."""
    if d < (P.degree if not P.is_zero else 0):
        raise DegreeTooSmall(f"frame degree {d} below matrix degree {P.degree}")
    a = as_fraction(a)
    return P.map_entries(lambda e: e.reverse(d).shift(-a))


def scale_basis_mobius(K: PolyMatrix, a) -> PolyMatrix:
    """Column-wise K(1/s + a) * diag(s^deg) with the column degrees of K:
    maps a minimal basis to a minimal basis with the same column degrees."""
    a = as_fraction(a)
    degs = K.column_degrees()
    for j, dj in enumerate(degs):
        if dj == NEG_INF:
            raise DegreeMismatch(f"column {j} is zero and has no degree")
    return PolyMatrix(
        [[e.shift(a).reverse(dj) for e, dj in zip(row, degs)] for row in K.rows],
        n=K.n,
    )
