"""Polynomial-matrix kernel: polynomial and rational matrices, determinant,
rank, Smith form (with or without transformers), the minimal bases of the
four fundamental subspaces, local multiplicities from Toeplitz ranks, weak
Popov and Popov forms, reversal, Mobius frames, and the minimal-basis test.

Every elimination runs on integer coefficient lists, by row steps, from the
one integer form each PolyMatrix keeps (PolyMatrix._ints), copying the rows
it changes. The Smith core keeps primitive integer rows and runs the column
half of each pivot step as the same row steps on the transposed working
matrix; its transformers, like the columns that column reduction and basis
normalization take, are integer lists over one denominator per line. det is
a fraction-free elimination of the rows over their lcms. The rank is read
from one integer value of the matrix, taken past the Cauchy bound of its
minors and built by Kronecker substitution, by forward elimination over Q,
with no polynomial elimination; column_reduce detects rank deficiency by
itself.

All operations are pure; matrices are immutable value objects. det and the
Smith core share one deterministic pivot rule, _find_pivot (the shortest
nonzero entry, then the smallest (row, col)), so identical inputs always
produce identical transformers.
"""

from __future__ import annotations

import math
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
from .qpoly import NEG_INF, ONE, ZERO, Poly, RatFn, _make, _pdivmod, _reduced, as_fraction


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

    @classmethod
    def _of_rows(cls, rows: tuple, n: int):
        """The matrix on rows, length-n tuples of entry_type, unchecked."""
        M = object.__new__(cls)
        M.m, M.n, M.rows = len(rows), n, rows
        return M

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
    """Dense matrix of Poly entries and its integer form _ints, the nested
    tuples (numerators, dens) of _integer_lines(rows). Each is built from the
    other on first read: a matrix read from JSON integers has no Poly yet."""

    __slots__ = ("_ints",)
    entry_type = Poly

    def __getattr__(self, name):
        # only an unset slot gets here: _of_rows sets rows, _of_integer_rows _ints
        if name == "_ints":
            self._ints = _integer_lines(self.rows)
        elif name == "rows":
            self.rows = tuple([tuple([_make(c, 1) for c in row]) for row in self._ints[0]])
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return getattr(self, name)

    @classmethod
    def _of_integer_rows(cls, rows: tuple, n: int) -> "PolyMatrix":
        """The matrix of integer form (rows, dens all 1), as _integer_lines gives it."""
        M = object.__new__(cls)
        M.m, M.n, M._ints = len(rows), n, (rows, (1,) * len(rows))
        return M

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix._of_rows(
            tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)), n
        )

    @staticmethod
    def zeros(m: int, n: int) -> "PolyMatrix":
        return PolyMatrix._of_rows(((ZERO,) * n,) * m, n)

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
    def is_zero(self) -> bool:
        return not any(map(any, self._ints[0]))

    @property
    def degree(self):
        """Max entry degree; NEG_INF for a zero (or empty) matrix."""
        top = max((len(c) for row in self._ints[0] for c in row), default=0)
        return top - 1 if top else NEG_INF

    def col(self, j: int):
        return tuple(self.rows[i][j] for i in range(self.m))

    def col_degree(self, j: int):
        return max((self.rows[i][j].degree for i in range(self.m)), default=NEG_INF)

    def column_degrees(self):
        return tuple(self.col_degree(j) for j in range(self.n))

    def transpose(self) -> "PolyMatrix":
        # zip(*rows) of a 0 x n matrix has no rows, not n empty ones
        cols = tuple(zip(*self.rows)) if self.m else ((),) * self.n
        return PolyMatrix._of_rows(cols, self.m)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix._of_rows(
            tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx), len(col_idx)
        )

    def map_entries(self, fn: Callable[[Poly], Poly]) -> "PolyMatrix":
        return PolyMatrix._of_rows(tuple(tuple(map(fn, row)) for row in self.rows), self.n)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch")
        return PolyMatrix._of_rows(
            tuple(tuple(x + y for x, y in zip(a, b)) for a, b in zip(self.rows, other.rows)),
            self.n,
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
            out.append(tuple(row))
        return PolyMatrix._of_rows(tuple(out), other.n)

    @staticmethod
    def hstack(a: "PolyMatrix", b: "PolyMatrix") -> "PolyMatrix":
        if a.m != b.m:
            raise ValueError("row count mismatch")
        return PolyMatrix._of_rows(tuple(r + s for r, s in zip(a.rows, b.rows)), a.n + b.n)


class RationalMatrix(_DenseMatrix):
    """Dense matrix of rational functions."""

    __slots__ = ()
    entry_type = RatFn

    @staticmethod
    def from_poly_matrix(P: PolyMatrix) -> "RationalMatrix":
        return RationalMatrix([[RatFn(e) for e in row] for row in P.rows], n=P.n)

    @property
    def is_polynomial(self) -> bool:
        return all(e.is_polynomial for row in self.rows for e in row)


# -- determinants, rank -----------------------------------------------------


def _find_pivot(W, t, m, n):
    """(length, row, col) of the shortest nonzero coefficient list in rows
    t..m-1 and columns t..n-1 of W, ties to the smallest (row, col); None
    when that block is zero. The pivot rule of _bareiss and _smith_core."""
    best = None
    for i in range(t, m):
        for j in range(t, n):
            e = W[i][j]
            if e and (best is None or len(e) < best[0]):
                best = (len(e), i, j)
    return best


def _bareiss(M) -> list:
    """Determinant of a square matrix M of integer coefficient lists, as one,
    by fraction-free elimination in place with the _find_pivot rule. Each
    update pivot * M[i][j] - M[i][k] * M[k][j] is divided exactly by the
    previous pivot: by its primitive part, then by its content."""
    n = len(M)
    prev, sign = [1], 1
    for k in range(n):
        best = _find_pivot(M, k, n, n)
        if best is None:
            return []
        _, pi, pj = best
        M[k], M[pi] = M[pi], M[k]
        for row in M:
            row[k], row[pj] = row[pj], row[k]
        sign *= (-1) ** ((pi != k) + (pj != k))
        piv = M[k][k]
        c, pp = math.gcd(*prev), _primitive(prev)
        for i in range(k + 1, n):
            f = [-x for x in M[i][k]]
            for j in range(k + 1, n):
                e = _comb(piv, M[i][j], f, M[k][j])
                if k:
                    e = _exact_quotient(e, pp)
                    require(e is not None and not any(x % c for x in e),
                            "fraction-free elimination produced a nonzero remainder")
                    e = [x // c for x in e]
                M[i][j] = e
            M[i][k] = []
        prev = piv
    # the last pivot is the determinant up to the sign of the permutations
    return prev if sign > 0 else [-x for x in prev]


def det(P: PolyMatrix) -> Poly:
    """Exact determinant by fraction-free (Bareiss) elimination on the rows
    of P over their lcms, divided by the product of those lcms."""
    if not P.is_square:
        raise ValueError("determinant of a non-square matrix")
    rows, dens = P._ints
    return _reduced(list(_bareiss([list(row) for row in rows])), math.prod(dens))


def _kronecker_values(rows) -> list:
    """The integer matrix P(2^b) of rows = P._ints[0], with 2^b past the
    Cauchy bound of every minor of P (see rank): a minor of any size of P
    vanishes exactly when the same minor of this matrix does. Each value is
    built by shifts, as in Kronecker substitution."""

    def norms(lines):
        return sorted((max(1, sum(abs(c) for cs in line for c in cs)) for line in lines),
                      reverse=True)

    full = min(len(rows), len(rows[0])) if rows else 0
    bound = min(math.prod(norms(rows)[:full]), math.prod(norms(zip(*rows))[:full]))
    b = (bound + 1).bit_length()

    def value(cs):
        acc = 0
        for c in reversed(cs):
            acc = (acc << b) + c
        return acc

    return [[value(cs) for cs in row] for row in rows]


def rank(P: PolyMatrix) -> int:
    """Rank over Q(s), read from the single integer matrix _kronecker_values.

    Scale each row of P by the lcm of its denominators, and let N_i be the
    larger of 1 and the sum of the absolute values of the coefficients
    of row i. A k x k minor, k <= min(m, n), is a signed sum over
    permutations of products of one entry from each of its k rows. The
    coefficient sum of a product is at most the product of the coefficient
    sums, and expanding the product of the N_i of those rows counts every
    such term, so each coefficient of the minor has absolute value at most
    that product, and at most the product H of the min(m, n) largest N_i
    since no N_i is below 1. Read over the columns, the same argument bounds
    the minors by the product of the column sums, so H may be the smaller of
    the two products. By Cauchy's bound a nonzero integer polynomial with
    coefficients of absolute value at most H has no root of modulus above
    H + 1 (von zur Gathen and Gerhard, Modern Computer Algebra). At x = 2^b
    with b = (H + 1).bit_length(), so x > H + 1, every nonzero minor of P
    is nonzero, and the rank of P(x) is the rank of P. The same holds for
    every submatrix of P(x), which is how minors.select_nonzero_minor reads
    the ranks of submatrices without building them over Q[s].
    """
    return _frac_rank(_kronecker_values(P._ints[0]))


# -- Smith normal form -------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ P @ right equals diag(diag) padded with zeros; the leading
    columns of left^-1 and right^-T come from _left_inverse_columns."""

    left: PolyMatrix
    diag: tuple
    right: PolyMatrix
    rank: int


def _comb(p, a, q, b) -> list:
    """p * a + q * b for integer coefficient lists, trailing zeros stripped."""
    if not (p and a):
        p, a, q, b = q, b, p, ()
    if not (q and b):
        if not (p and a):
            return []
        if len(p) == 1:
            c = p[0]
            return [c * e for e in a]
        q = b = ()
    acc = [0] * (max(len(p) + len(a), len(q) + len(b)) - 1)
    for x, y in ((p, a), (q, b)):
        if len(x) == 1:
            c = x[0]
            for k, e in enumerate(y):
                acc[k] += c * e
            continue
        for i, c in enumerate(x):
            if c:
                for k, e in enumerate(y, i):
                    acc[k] += c * e
    while acc and not acc[-1]:
        acc.pop()
    return acc


def _exact_quotient(a, b):
    """a / b for integer coefficient lists, b nonzero and primitive, or None
    when b does not divide a. By Gauss's lemma the quotient then has integer
    coefficients, so pseudo-division never rescales."""
    if len(a) < len(b):
        return None if a else []
    quo, _, rem = _pdivmod(a, b)
    return None if rem else quo


def _content(line) -> int:
    """gcd of every coefficient of a list of integer coefficient lists."""
    return math.gcd(*(c for e in line for c in e))


def _divided(line, g: int) -> list:
    return [[c // g for c in e] for e in line] if g > 1 else line


def _ext_gcd(a, b):
    """Bezout block of nonzero integer coefficient lists, b not a multiple of
    a: ((x, y, D), (w, u, E)) with x a + y b = D g for the monic gcd g,
    u = E a / g, w = -E b / g and D, E > 0, so [[x/D, y/D], [w/E, u/E]] has
    determinant 1. x/D and y/D are the unique pair of degrees below those
    of b / g and a / g, so the extended Euclidean algorithm over Q returns
    the same; here it runs on integer triples s a + t b = r, with each
    pseudo-division step divided by the content of the whole triple.
    """
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, scale, r2 = _pdivmod(r0, r1) if len(r0) >= len(r1) else ([], 1, r0)
        neg = [-c for c in q]
        s2, t2 = _comb([scale], s0, neg, s1), _comb([scale], t0, neg, t1)
        g = math.gcd(*r2, *s2, *t2)
        if g > 1:
            r2, s2, t2 = ([c // g for c in x] for x in (r2, s2, t2))
        r0, r1, s0, s1, t0, t1 = r1, r2, s1, s2, t1, t2
    # g = r0 / lc with lc the leading coefficient of r0 = c0 * r0p
    lc = r0[-1]
    sign = 1 if lc > 0 else -1
    c0, r0p = math.gcd(*r0), _primitive(r0)
    u, v = _exact_quotient(a, r0p), _exact_quotient(b, r0p)
    return (([sign * c for c in s0], [sign * c for c in t0], abs(lc)),
            ([-lc * c for c in v], [lc * c for c in u], c0))


def _put(W, X, i, new):
    W[i], x = new
    if X is not None:
        X[0][i], X[1][i] = x


def _combined(W, X, t, i, p, q, den):
    """(p * row t + q * row i) / den of W, rescaled to primitive integer
    form, and the same step on rows t and i of the transformer X. The content
    G of p * row t + q * row i is den times that rescale, so the transformer
    row is divided by G; a row that comes out zero is not rescaled, and its
    transformer row is divided by den. Rows t and i of W are zero left of
    column t, so only the columns from t on are combined."""
    w = [_comb(p, a, q, b) for a, b in zip(W[t][t:], W[i][t:])]
    g = _content(w)
    w = W[t][:t] + _divided(w, g)
    if X is None:
        return w, None
    nums, dens = X
    dt, di = dens[t], dens[i]
    lcm = math.lcm(dt, di)
    if dt != lcm:
        p = [c * (lcm // dt) for c in p]
    if di != lcm:
        q = [c * (lcm // di) for c in q]
    x = [_comb(p, a, q, b) for a, b in zip(nums[t], nums[i])]
    d = lcm * (g or den)
    g = math.gcd(d, _content(x))
    return w, (_divided(x, g), d // g)


def _clear(W, X, t):
    """Clear the pivot's column of W below W[t][t] by row steps.

    An entry b that the pivot a divides is cleared by subtracting b / a
    times the pivot's row; any other by the Bezout block of (a, b), which
    leaves a constant multiple of their gcd in the pivot. A constant pivot's
    primitive part is +-1, so b over it is +-b.
    """
    ca, ap = math.gcd(*W[t][t]), _primitive(W[t][t])
    for i in range(t + 1, len(W)):
        b = W[i][t]
        if not b:
            continue
        quo = [ap[0] * c for c in b] if len(ap) == 1 else _exact_quotient(b, ap)
        if quo is not None:
            # row_i - (quo / ca) row_t
            _put(W, X, i, _combined(W, X, t, i, [-c for c in quo], [ca], ca))
        else:
            (x, y, d), (w, u, e) = _ext_gcd(W[t][t], b)
            new_t = _combined(W, X, t, i, x, y, d)
            _put(W, X, i, _combined(W, X, t, i, w, u, e))
            _put(W, X, t, new_t)
            ca, ap = math.gcd(*W[t][t]), _primitive(W[t][t])


def _transposed(W) -> list:
    return [list(col) for col in zip(*W)]


def _smith_core(P: PolyMatrix, track: bool):
    """Smith elimination over Q[s] on integer rows: (diag, U, V^T).

    W holds integer coefficient lists. Its rows, then its columns, are first
    rescaled to primitive integer form, and every later step (_combined)
    rescales the row it changes the same way; a nonzero constant is a unit
    of Q[s]. A row that becomes zero is not rescaled. The column half of each
    pivot step is the same row steps on the transpose of W, with V^T as
    their transformer, so row j of V^T is column j of V. The pivot row of U
    is divided by the pivot's leading coefficient, which may be negative; W
    keeps the integer pivot, since no later step reads that row.

    With track set, U and V^T are (numerator lists, dens), row i being
    numerators[i] over dens[i] > 0, coprime to them; without it they are
    None, and the steps on W, so the diagonal, are the same.
    """
    m, n = P.m, P.n
    U = Vt = None
    if track:
        U, Vt = (([[[1] if i == j else [] for j in range(k)] for i in range(k)], [1] * k)
                 for k in (m, n))
    W, dens = list(P._ints[0]), P._ints[1]
    for X in (U, Vt):  # the rows of W, then those of W^T; X is the identity
        for i, row in enumerate(W):
            g = _content(row)
            W[i] = _divided(row, g)
            if X is not None and g:
                c = Fraction(dens[i], g)
                X[0][i][i], X[1][i] = [c.numerator], c.denominator
        # W^T has no rows when m or n is 0, and then no pivot step is taken
        W, dens = _transposed(W), [1] * n
    diag = []
    for t in range(min(m, n)):
        piv = _find_pivot(W, t, m, n)
        if piv is None:
            break
        _, pi, pj = piv
        W[t], W[pi] = W[pi], W[t]
        for row in W:
            row[t], row[pj] = row[pj], row[t]
        for X, k in ((U, pi), (Vt, pj)):
            if X is not None:
                for side in X:
                    side[t], side[k] = side[k], side[t]
        while True:
            _clear(W, U, t)
            W = _transposed(W)
            _clear(W, Vt, t)
            W = _transposed(W)
            if any(W[i][t] for i in range(t + 1, m)):
                continue
            ap = _primitive(W[t][t])
            # a constant pivot divides every entry
            bad = None if len(ap) == 1 else next(
                (i for i in range(t + 1, m)
                 if any(_exact_quotient(e, ap) is None for e in W[i][t + 1:])), None)
            if bad is None:
                break
            _put(W, U, t, _combined(W, U, t, bad, [1], [1], 1))
        a = W[t][t]
        lc = a[-1]
        diag.append(_reduced([c if lc > 0 else -c for c in a], abs(lc)))
        if track and lc != 1:
            nums, den = U[0][t], U[1][t] * abs(lc)
            nums = nums if lc > 0 else [[-c for c in e] for e in nums]
            g = math.gcd(den, _content(nums))
            U[0][t], U[1][t] = _divided(nums, g), den // g
    return tuple(diag), U, Vt


def _column_matrix(cols, dens, m: int) -> PolyMatrix:
    """The PolyMatrix whose column j is cols[j] over dens[j]."""
    return PolyMatrix._of_rows(
        tuple(tuple(_reduced(list(col[i]), den) for col, den in zip(cols, dens))
              for i in range(m)),
        len(cols),
    )


def smith_form(P: PolyMatrix) -> SmithDecomposition:
    """Smith normal form over Q[s] with unimodular transformers, as
    PolyMatrix values.

    _smith_core eliminates on integer rows, each rescaled to primitive form
    after every step except when it becomes zero, and keeps each transformer
    row over one denominator; this turns those rows into Polys. Callers that
    read just the diagonal use invariant_factors, and _minimal_bases reads
    the integer transformers of _smith_core directly.
    """
    diag, (U, Ud), Vt = _smith_core(P, track=True)
    return SmithDecomposition(
        left=_column_matrix(U, Ud, P.m).transpose(),
        diag=diag,
        right=_column_matrix(*Vt, P.n),
        rank=len(diag),
    )


def _left_inverse_columns(rows, cols, diag):
    """(cols, dens): the first len(diag) columns of left^-1, for a Smith
    decomposition left @ A @ right = D with diagonal diag, given the rows of
    A and the columns of right as (numerator lists, dens).

    A @ right = left^-1 @ D, so column j of A @ right is column j of left^-1
    times diag[j] (Kailath 1980, 6.3). Each entry of the product is one
    integer sum over the lcm of the row denominators, divided exactly by the
    primitive part of its invariant factor, skipped when that is 1. With
    A = P^T and the rows of left for the columns of right, the same columns
    are those of right^-T.
    """
    row_nums, row_dens = rows
    lcm = math.lcm(*row_dens)
    out, dens = [], []
    for col, col_den, a in zip(*cols, diag):
        ga, ap = math.gcd(*a.numerators), _primitive(a.numerators)
        new = []
        for row, row_den in zip(row_nums, row_dens):
            acc = [0] * (max(map(len, row)) + max(map(len, col)))
            for u, v in zip(row, col):
                if u and v:
                    for i, y in enumerate(v):
                        if y:
                            for k, x in enumerate(u, i):
                                acc[k] += x * y
            while acc and not acc[-1]:
                acc.pop()
            if row_den != lcm:
                acc = [c * (lcm // row_den) for c in acc]
            if a != ONE:
                acc = _exact_quotient(acc, ap)
                require(acc is not None, "P @ right = left^-1 @ D: a column of P @ "
                        "right is not divisible by its invariant factor")
            if a.denominator != 1:
                acc = [c * a.denominator for c in acc]
            new.append(acc)
        den = lcm * col_den * ga
        g = math.gcd(den, _content(new))
        out.append(_divided(new, g))
        dens.append(den // g)
    return out, dens


def invariant_factors(P: PolyMatrix) -> tuple:
    """Monic invariant factors of P, ascending in divisibility: the Smith
    diagonal without the transformers; () for a zero matrix."""
    return _smith_core(P, track=False)[0]


# -- constant-matrix helpers (over Q) ----------------------------------------


def _primitive(row: list) -> list:
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _echelon_insert(echelon: dict, row: list) -> None:
    """Reduce an integer row into an echelon form over Q, in place.

    echelon maps each pivot column to a primitive integer row that is zero
    before it; rows may be shorter than row, and read as padded with zeros.
    row is made primitive, and while its first nonzero column c has a
    pivot row e, it becomes e[c] * row - row[c] * e, made primitive again. A
    row left nonzero joins echelon under its first nonzero column."""
    row, c = _primitive(row), 0
    while True:
        while c < len(row) and not row[c]:
            c += 1
        if c == len(row):
            return
        e = echelon.get(c)
        if e is None:
            echelon[c] = row
            return
        p, f = e[c], row[c]
        row = _primitive([p * x - f * y for x, y in zip(row, e)]
                         + [p * x for x in row[len(e):]])


def _echelon(rows) -> dict:
    """The echelon form of an integer matrix, as _echelon_insert builds it
    row by row. Its keys are the pivot columns: column c is one exactly when
    it is not in the span of the columns before it."""
    echelon = {}
    for row in rows:
        _echelon_insert(echelon, row)
    return echelon


def _frac_rank(rows) -> int:
    """Rank over Q of an integer matrix: the number of its echelon rows."""
    return len(_echelon(rows))


def _integer_lines(lines):
    """(numerators, dens): each line of Polys as the numerators of its
    entries over the lcm of their denominators, and those lcms, as nested
    tuples."""
    nums, dens = [], []
    for line in lines:
        den = math.lcm(*[e.denominator for e in line])
        nums.append(tuple([e.numerators if e.denominator == den
                           else tuple([c * (den // e.denominator) for c in e.numerators])
                           for e in line]))
        dens.append(den)
    return tuple(nums), tuple(dens)


def _integer_columns(P: PolyMatrix):
    """(cols, dens): column j of P as integer coefficient lists over the lcm
    dens[j] of its denominators, read from _ints when those are all 1."""
    if P._ints[1].count(1) == P.m:
        return (tuple(zip(*P._ints[0])) if P.m else ((),) * P.n), (1,) * P.n
    return _integer_lines(P.col(j) for j in range(P.n))


# -- column reduction: weak Popov form ----------------------------------------


@dataclass(frozen=True)
class ColumnReduction:
    reduced: PolyMatrix
    column_degrees: tuple


def _pivot(col):
    """(degree, pivot row) of a column of integer coefficient lists without
    trailing zeros, the pivot being its last row of top degree; (-1, None)
    for a zero column."""
    lens = [len(a) for a in col]
    top = max(lens, default=0)
    return (top - 1, len(lens) - 1 - lens[::-1].index(top)) if top else (-1, None)


def _cancel(col, other, i: int, e: int, d: int):
    """The simple transformation a * col - b * s^(e - d) * other, made
    primitive, which cancels the s^e term in row i of col against the s^d
    term there of other: a and b are those two coefficients over their gcd,
    with a > 0."""
    x, y = col[i][e], other[i][d]
    g = math.gcd(x, y)
    a, b = (y // g, x // g) if y > 0 else (-y // g, -x // g)
    shifted = [0] * (e - d) + [-b]
    new = [_comb([a], u, shifted, v) for u, v in zip(col, other)]
    return _divided(new, _content(new))


def _weak_popov(cols, dens):
    """Weak Popov form of the matrix whose column j is cols[j] over dens[j]:
    (cols, dens, leads), leads[j] the (degree, pivot row) of column j, with
    distinct pivot rows (Mulders-Storjohann 2003).

    While two columns share a pivot row, the one with the larger (degree,
    index) is replaced by _cancel against the other, a unimodular step that
    lowers its degree or moves its pivot up; a replaced column is primitive
    over denominator 1. Distinct pivot rows give a full-rank leading
    coefficient matrix, which a rank-deficient matrix never reaches: a column
    becomes zero instead, which raises RankDeficient.
    """
    cols, dens = list(cols), list(dens)
    leads = [_pivot(col) for col in cols]
    owner, todo = {}, list(range(len(cols)))
    while todo:
        j = todo.pop()
        d, p = leads[j]
        if p is None:
            raise RankDeficient("column reduction requires full column rank")
        k = owner.setdefault(p, j)
        if k == j:
            continue
        if (leads[k][0], k) > (d, j):
            owner[p], j, k = j, k, j
        cols[j] = _cancel(cols[j], cols[k], p, leads[j][0], leads[k][0])
        dens[j], leads[j] = 1, _pivot(cols[j])
        todo.append(j)
    return cols, dens, leads


def _popov(cols, leads):
    """The columns of the weak Popov form (cols, leads) of _weak_popov in
    column Popov form, up to their order and scale: each column cancels by
    _cancel every term of degree >= d_j in the pivot row of each other
    column j, largest (degree, row) first. That brings in terms of lower
    (degree, row) only and changes no leading term, so one pass per column
    leaves every entry beside a pivot of lower degree."""
    cols = list(cols)
    owner = {p: (d, j) for j, (d, p) in enumerate(leads)}
    for k, col in enumerate(cols):
        while True:
            e, i = max(((len(col[i]) - 1, i) for i, (d, j) in owner.items()
                        if j != k and len(col[i]) > d), default=(-1, None))
            if i is None:
                break
            d, j = owner[i]
            col = _cancel(col, cols[j], i, e, d)
        cols[k] = col
    return cols


def column_reduce(P: PolyMatrix) -> ColumnReduction:
    """Column reduction of a full-column-rank matrix to a weak Popov form
    (see _weak_popov), which is column reduced; raises RankDeficient when P
    does not have full column rank."""
    cols, dens, leads = _weak_popov(*_integer_columns(P))
    return ColumnReduction(_column_matrix(cols, dens, P.m), tuple(d for d, _ in leads))


def is_column_proper(P: PolyMatrix) -> bool:
    """True when the highest-column-degree coefficient matrix has full rank."""
    cols = _integer_columns(P)[0]
    degs = [max(map(len, col), default=0) - 1 for col in cols]
    if -1 in degs:
        return False
    # each row of the leading coefficient matrix times a positive integer
    leads = [[a[d] if len(a) > d else 0 for a, d in zip(row, degs)] for row in zip(*cols)]
    return _frac_rank(leads) == min(P.m, P.n)


def is_minimal_basis(K: PolyMatrix):
    """Minimal-basis test: trivial Smith form plus column properness.

    Returns (flag, column_degrees); the degrees are reported regardless of
    the flag. Row steps alone (_clear, on the shortest entry of each column)
    give K = U^-1 [H; 0] with U unimodular and H upper triangular, so the
    Smith form is trivial exactly when every h_tt is a nonzero constant; the
    scan stops at the first zero or nonconstant one.
    """
    degs = K.column_degrees()
    if K.n == 0:
        return True, degs
    if K.m < K.n:
        return False, degs
    W = [list(row) for row in K._ints[0]]
    for t in range(K.n):
        piv = _find_pivot(W, t, K.m, t + 1)
        if piv is None:
            return False, degs
        W[t], W[piv[1]] = W[piv[1]], W[t]
        _clear(W, None, t)
        if len(W[t][t]) > 1:
            return False, degs
    return is_column_proper(K), degs


# -- minimal bases and local multiplicities ----------------------------------


def _weak_basis(cols) -> tuple:
    """((cols, leads), indices descending): the weak Popov form of integer
    columns, each up to a constant factor (_weak_popov), and its pivot
    degrees, which the column Popov form keeps."""
    cols, _, leads = _weak_popov(cols, [1] * len(cols))
    return (cols, leads), tuple(sorted((d for d, _ in leads), reverse=True))


def _normalize_basis(weak, m: int) -> PolyMatrix:
    """The column Popov form of the m-row basis whose weak Popov form is
    weak = (cols, leads) (_weak_basis), or I for weak None, the basis of all
    of Q[s]^m. Each pivot (the last entry of top degree in its column) is
    monic and of higher degree than the other entries of its row, and the
    columns run by degree descending, then by pivot row. The form is unique
    per module (Kailath 1980, 6.7; Beckermann-Labahn-Villard 2006), so every
    basis of one module prints the same; that of a unimodular basis is I."""
    if weak is None:
        return PolyMatrix.identity(m)
    cols, leads = weak
    out = []
    for col, (d, p) in zip(_popov(cols, leads) if cols else (), leads):
        lead = col[p][d]
        sign = 1 if lead > 0 else -1
        out.append((-d, p, [_reduced([sign * x for x in a], sign * lead) for a in col]))
    out.sort(key=lambda t: t[:2])
    return PolyMatrix._of_rows(tuple(tuple(t[2][i] for t in out) for i in range(m)), len(out))


def _minimal_bases(P: PolyMatrix) -> tuple:
    """(diag, colspan, rowspan, right null, left null) of a nonzero P: the
    monic Smith diagonal, then one (weak, indices) pair per subspace, weak
    the weak Popov form of a basis (_weak_basis), which _normalize_basis
    turns into the column Popov form.

    With U P V = D the tracked Smith form, P V = U^-1 D and U P = D V^-1
    (Kailath 1980, 6.3): the span bases are the first rank columns of U^-1
    and V^-T, read by _left_inverse_columns, and the null bases the trailing
    columns of V and rows of U. A full-rank span is all of Q[s]^m or Q[s]^n,
    with basis I, so weak None. A square nonsingular P has both spans I and
    no null basis, so it takes invariant_factors and builds no transformer.
    """
    if P.is_square and rank(P) == P.m:
        full, empty = (None, (0,) * P.m), _weak_basis([])
        return invariant_factors(P), full, full, empty, empty
    diag, U, Vt = _smith_core(P, track=True)
    r = len(diag)
    full = (None, (0,) * r)
    colspan = full if r == P.m else _weak_basis(
        _left_inverse_columns(P._ints, Vt, diag)[0])
    rowspan = full if r == P.n else _weak_basis(
        _left_inverse_columns(_integer_columns(P), U, diag)[0])
    return diag, colspan, rowspan, _weak_basis(Vt[0][r:]), _weak_basis(U[0][r:])


def _multiplicities_at_zero(rows, r: int) -> tuple:
    """Valuations at 0 of the invariant factors of a rank-r matrix P, read
    from integer rows, each a row of P scaled, which leaves every rank below.

    With A_k the s^k coefficients, T_j is the block lower-triangular Toeplitz
    matrix with j block rows, A_0 on its diagonal and A_k on its k-th block
    subdiagonal. The local Smith form P = E diag(s^f_i, 0) F, E and F
    invertible at 0, gives rank T_j = sum_i max(0, j - f_i), so
    rank T_j - rank T_(j-1) counts the f_i below j (Gohberg-Lancaster-Rodman
    1982, Matrix Polynomials); the scan stops once that count reaches r. The
    f_i sum to at most the degree of a nonzero r x r minor, r * deg P.

    T_j is T_(j-1) with one more block row [A_(j-1) ... A_0] and one more
    block column, which is zero above A_0. So the rows of T_(j-1), padded
    with zeros, are rows of T_j: one running echelon form holds them, and
    step j only reduces the rows of the new block row into it. rank T_j is
    the number of echelon rows.
    """
    top = max(len(cs) for row in rows for cs in row) - 1
    echelon, f, j = {}, [], 0
    while len(f) < r:
        j += 1
        require(j <= r * top + 1, "partial multiplicities exceed the rank bound")
        prev = len(echelon)
        for row in rows:
            _echelon_insert(echelon, [cs[j - 1 - k] if j - 1 - k < len(cs) else 0
                                      for k in range(j) for cs in row])
        f.extend([j - 1] * (len(echelon) - prev - len(f)))
    return tuple(f)


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
