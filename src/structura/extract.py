"""Structural data of polynomial and rational matrices.

Extracts invariant factors / invariant rational functions, the infinite
structure, and minimal bases plus indices of all four fundamental subspaces.
The index-sum and dual-sum identities are checked on every extraction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ShapeMismatch, ZeroMatrix, require
from .qpoly import ONE, ZERO, RatFn, _reduced, poly_lcm
from .polymat import (
    PolyMatrix,
    _DenseMatrix,
    _echelon_insert,
    _integer_columns,
    _integer_lines,
    _over_lcm,
    _left_inverse_columns,
    _popov,
    _smith_core,
    rank,
)

@dataclass(frozen=True)
class _SubspaceData:
    """What both structural-data records hold: the shape, the rank, and the
    minimal indices and bases of the four fundamental subspaces."""
    m: int
    n: int
    rank: int
    colspan_indices: tuple  # descending
    rowspan_indices: tuple
    right_indices: tuple
    left_indices: tuple
    colspan_basis: PolyMatrix  # m x r
    rowspan_basis: PolyMatrix  # n x r (columns span the row space)
    right_null_basis: PolyMatrix  # n x (n - r)
    left_null_basis: PolyMatrix  # m x (m - r)

    def _dual_sums_agree(self) -> bool:
        """The left-null indices sum to the column-span ones, and the right-null
        indices to the row-span ones."""
        return (sum(self.left_indices) == sum(self.colspan_indices)
                and sum(self.right_indices) == sum(self.rowspan_indices))


@dataclass(frozen=True)
class PolyStructuralData(_SubspaceData):
    degree: int
    invariant_factors: tuple
    inf_partial_mults: tuple  # f_1 <= ... <= f_r, f_1 = 0
    inf_orders: tuple  # q_i = f_i - degree

    def identities(self) -> dict:
        """Whether each index-sum identity holds, by report label: the index
        sum theorem (eqIST), the dual sums (eqsums), the span index sums
        (eqsumklfa) and f_1 = 0 (eqf1)."""
        # r * d less the finite and infinite degrees: what the null indices,
        # and also the span indices, sum to
        rest = (self.rank * self.degree - sum(self.inf_partial_mults)
                - sum(int(a.degree) for a in self.invariant_factors))
        return {
            "eqIST": sum(self.right_indices) + sum(self.left_indices) == rest,
            "eqsums": self._dual_sums_agree(),
            "eqsumklfa": sum(self.colspan_indices) + sum(self.rowspan_indices) == rest,
            "eqf1": self.inf_partial_mults[0] == 0,
        }


def _checked(data):
    """data, once every entry of its identity table holds."""
    for label, ok in data.identities().items():
        require(ok, f"index-sum identity {label} fails on the extracted data")
    return data


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


@dataclass(frozen=True)
class RatStructuralData(_SubspaceData):
    numerators: tuple  # eps_1 | ... | eps_r
    denominators: tuple  # psi_r | ... | psi_1
    inf_orders: tuple  # q_1 <= ... <= q_r

    def identities(self) -> dict:
        """Whether each index-sum identity holds, by report label: the dual
        sums (eqsums) and the rational index sum theorem (eqIST_rational)."""
        # what the span indices sum to: the pole degrees less the zero degrees,
        # less the orders at infinity
        rest = (sum(int(p.degree) for p in self.denominators)
                - sum(int(e.degree) for e in self.numerators) - sum(self.inf_orders))
        return {
            "eqsums": self._dual_sums_agree(),
            "eqIST_rational": sum(self.colspan_indices) + sum(self.rowspan_indices) == rest,
        }


# -- pieces -------------------------------------------------------------------


def _multiplicities_at_zero(rows, r: int) -> tuple:
    """Valuations at 0 of the invariant factors of a rank-r matrix of Polys.

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
    coeffs = [_over_lcm(row)[0] for row in rows]  # scales rows of every T_j
    top = max(len(cs) for row in coeffs for cs in row) - 1
    echelon, f, j = {}, [], 0
    while len(f) < r:
        j += 1
        require(j <= r * top + 1, "partial multiplicities exceed the rank bound")
        prev = len(echelon)
        for row in coeffs:
            _echelon_insert(echelon, [cs[j - 1 - k] if j - 1 - k < len(cs) else 0
                                      for k in range(j) for cs in row])
        f.extend([j - 1] * (len(echelon) - prev - len(f)))
    return tuple(f)


def partial_multiplicities(P: PolyMatrix, lam) -> tuple:
    """Valuations of the invariant factors at a rational point, ascending:
    the multiplicities at 0 of P(s + lam)."""
    r = rank(P)
    if not r:
        raise ZeroMatrix("partial multiplicities of the zero matrix")
    return _multiplicities_at_zero([[e.shift(lam) for e in row] for row in P.rows], r)


def _inf_structure(P: PolyMatrix, r: int):
    """inf_structure of a nonzero P of rank r, read from the coefficients
    of rev P = P_d + P_(d-1) s + ... + P_0 s^d."""
    d = int(P.degree)
    f = _multiplicities_at_zero([[e.reverse(d) for e in row] for row in P.rows], r)
    require(f[0] == 0, "smallest partial multiplicity of infinity must vanish")
    q = tuple(fi - d for fi in f)
    return d, f, q


def inf_structure(P: PolyMatrix):
    """(degree, partial multiplicities of infinity, invariant orders)."""
    if P.is_zero:
        raise ZeroMatrix("infinite structure of the zero matrix")
    return _inf_structure(P, rank(P))


def _normalize_basis(cols, dens, m: int) -> tuple:
    """(basis, indices descending): the column Popov form of the m-row basis
    whose column j is cols[j] over dens[j], as _popov takes them. Each pivot
    (the last entry of top degree in its column) is monic and of higher
    degree than the other entries of its row, and the columns run by degree
    descending, then by pivot row. The form is unique per module (Kailath 1980, 6.7;
    Beckermann-Labahn-Villard 2006), so every basis of one module prints the
    same; that of a unimodular basis is I."""
    if not cols:
        return PolyMatrix.zeros(m, 0), ()
    cols, leads = _popov(cols, dens)
    out = []
    for col, (d, p) in zip(cols, leads):
        lead = col[p][d]
        sign = 1 if lead > 0 else -1
        out.append((-d, p, [_reduced([sign * x for x in a], sign * lead) for a in col]))
    out.sort(key=lambda t: t[:2])
    basis = PolyMatrix([[t[2][i] for t in out] for i in range(m)], n=len(out))
    return basis, tuple(-t[0] for t in out)


def extract_poly_structure(P: PolyMatrix) -> PolyStructuralData:
    """Full structural data; every sum identity is checked before returning.

    With U and V the Smith transformers and D the padded diagonal, U P V = D
    gives P V = U^-1 D and U P = D V^-1 (Kailath 1980, 6.3). The span bases
    are the first rank columns of U^-1 and of V^-T, obtained from these
    products by exact division; the null bases are the trailing columns of V
    and the trailing rows of U. Each basis printed is the column Popov form
    of its module (_normalize_basis), read from the integer columns that
    _smith_core and _left_inverse_columns return. A span of full rank is all
    of Q[s]^m or Q[s]^n, whose Popov form is I with indices all 0, so that
    span takes I without _left_inverse_columns.
    """
    if P.is_zero:
        raise ZeroMatrix("structural data of the zero matrix")
    diag, (U, Ud), (Vt, Vd) = _smith_core(P, track=True)
    r = len(diag)
    d, f, q = _inf_structure(P, r)

    full = (PolyMatrix.identity(r), (0,) * r)  # the Popov form of a full-rank span
    col_basis, k_idx = full if r == P.m else _normalize_basis(
        *_left_inverse_columns(_integer_lines(P.rows), (Vt, Vd), diag), P.m)
    row_basis, l_idx = full if r == P.n else _normalize_basis(
        *_left_inverse_columns(_integer_columns(P), (U, Ud), diag), P.n)
    rnull_basis, d_idx = _normalize_basis(Vt[r:], Vd[r:], P.n)
    lnull_basis, v_idx = _normalize_basis(U[r:], Ud[r:], P.m)

    return _checked(PolyStructuralData(
        m=P.m,
        n=P.n,
        rank=r,
        degree=d,
        invariant_factors=diag,
        inf_partial_mults=f,
        inf_orders=q,
        colspan_indices=k_idx,
        rowspan_indices=l_idx,
        right_indices=d_idx,
        left_indices=v_idx,
        colspan_basis=col_basis,
        rowspan_basis=row_basis,
        right_null_basis=rnull_basis,
        left_null_basis=lnull_basis,
    ))


def clear_denominators(R: RationalMatrix):
    """(psi1, P): monic least common denominator and the polynomial psi1 * R.
    The lcm and each quotient psi1 / den are taken once per distinct
    denominator."""
    if R.is_zero:
        raise ZeroMatrix("cannot clear denominators of the zero matrix")
    dens = list(dict.fromkeys(e.den for row in R.rows for e in row if not e.is_zero))
    psi1 = ONE
    for den in dens:
        psi1 = poly_lcm(psi1, den)
    quotients = {den: psi1 // den for den in dens}
    rows = [[ZERO if e.is_zero else e.num * quotients[e.den] for e in row] for row in R.rows]
    return psi1, PolyMatrix(rows, n=R.n)


def extract_rational_structure(R: RationalMatrix) -> RatStructuralData:
    """Structural data of a rational matrix via denominator clearing."""
    if R.is_zero:
        raise ZeroMatrix("structural data of the zero matrix")
    psi1, P = clear_denominators(R)
    data = extract_poly_structure(P)
    eps, psi = [], []
    for a in data.invariant_factors:
        fr = RatFn(a, psi1)
        eps.append(fr.num.monic())
        psi.append(fr.den)
    q1 = int(psi1.degree) - data.degree
    q = tuple(fi + q1 for fi in data.inf_partial_mults)
    shared = {fd.name: getattr(data, fd.name) for fd in fields(_SubspaceData)}
    return _checked(RatStructuralData(
        **shared, numerators=tuple(eps), denominators=tuple(psi), inf_orders=q))


# -- verification --------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    mismatches: tuple

    def __bool__(self) -> bool:
        return self.passed


def spans_equal(computed: PolyMatrix, supplied: PolyMatrix) -> bool:
    """Whether two minimal bases of the same shape span the same module.

    Both arguments must be minimal bases. A minimal basis has a trivial Smith
    form, so it spans the whole module V ∩ Q[s]^m of the polynomial vectors
    in its rational span V (Forney 1975, "Minimal bases of rational vector
    spaces"). Two minimal bases therefore span the same module exactly when
    their rational spans agree, that is when placing them side by side does
    not raise the rank above the number of columns of one.
    """
    if (computed.m, computed.n) != (supplied.m, supplied.n):
        return False
    return rank(PolyMatrix.hstack(computed, supplied)) == computed.n


def verify(matrix, prescription) -> VerificationReport:
    """Extract the structure of a matrix and compare it against a prescription:
    one table of expected values, then the bases and null indices; exact
    equality throughout."""
    p = prescription
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
        want = {"rank": p.r, "numerators": tuple(p.epsilon),
                "denominators": tuple(p.psi), "inf_orders": tuple(p.q)}
    else:
        data = extract_poly_structure(matrix)
        want = {"rank": p.r, "degree": p.d, "invariant_factors": tuple(p.alpha),
                "inf_partial_mults": tuple(p.f)}
    k_want, l_want = p.span_degrees()
    want.update(colspan_indices=tuple(k_want), rowspan_indices=tuple(l_want))
    mismatches = [label for label, value in want.items() if getattr(data, label) != value]

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
